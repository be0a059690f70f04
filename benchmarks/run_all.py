"""Driver for the full benchmark suite (tier 2) — a thin lab front-end.

Runs the suite (``benchmarks/suite.py``) through
:func:`repro.lab.run_suite` directly — no pytest subprocess::

    python benchmarks/run_all.py --jobs 8            # parallel, warm cache
    python benchmarks/run_all.py --jobs 8 --no-cache # force recompute
    python benchmarks/run_all.py -k fig5             # one experiment
    python benchmarks/run_all.py --tags quick        # the smoke subset

Rendered artefacts land in ``benchmarks/out/`` and are byte-identical at
any jobs/cache setting; the content-addressed store lives in
``benchmarks/out/.cache/`` with one run-index JSON per invocation under
``.cache/runs/``.  ``repro lab run benchmarks/suite.py`` is the same
code path with the full CLI surface (diff, gc, stats).
"""

from __future__ import annotations

import argparse
import os
import sys


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        description="run the paper-figure benchmark suite"
    )
    parser.add_argument("--jobs", type=int, default=1, metavar="N",
                        help="worker processes per engine call (default 1)")
    parser.add_argument("--no-cache", action="store_true",
                        help="disable the content-addressed artifact store")
    parser.add_argument("--reanalyze", action="store_true",
                        help="re-run analyses (and their assertions) even "
                             "when every artifact is already in the store")
    parser.add_argument("-k", dest="keyword", default=None,
                        help="substring to select experiments by name")
    parser.add_argument("--tags", default=None, metavar="T[,T...]",
                        help="comma-separated tags to select experiments")
    args = parser.parse_args(argv)

    bench_dir = os.path.dirname(os.path.abspath(__file__))
    repo_root = os.path.dirname(bench_dir)
    for entry in (os.path.join(repo_root, "src"), repo_root):
        if entry not in sys.path:
            sys.path.insert(0, entry)

    from repro.lab import SuiteManifest, manifest_roots, run_suite

    manifest_path = os.path.join(bench_dir, "suite.py")
    manifest = SuiteManifest.load(manifest_path)
    out_dir, store_dir = manifest_roots(manifest_path)
    tags = tuple(t for t in (args.tags or "").split(",") if t)

    suite_run = run_suite(
        manifest,
        out_dir=out_dir,
        store_dir=None if args.no_cache else store_dir,
        jobs=args.jobs,
        reanalyze=args.reanalyze,
        keyword=args.keyword,
        tags=tags,
    )
    return 0 if suite_run.ok else 1


if __name__ == "__main__":
    sys.exit(main())
