"""The ``repro perf`` suite runner and its ``BENCH_kernel.json`` schema.

Running the suite executes every kernel scenario from
:mod:`repro.perf.kernel` twice — once with the runtime sanitizer disarmed
(production configuration) and once with every domain armed — plus a pure
Python *calibration loop* that measures the host's interpreter speed.  The
report it emits is a stable, machine-comparable JSON document:

.. code-block:: json

    {
      "schema": "repro-bench-kernel/3",
      "quick": false,
      "python": "3.11.7",
      "platform": "Linux-...",
      "calibration_mops": 24.1,
      "suites": {
        "disarmed": {"event-dispatch": {"ops": 200000, "seconds": 0.21,
                                        "ops_per_sec": 952000.0}, ...,
                     "fig5-autoscale": {"ops": 9500, "seconds": 0.7,
                                        "ops_per_sec": 13500.0,
                                        "events_per_req": 15.1}},
        "armed":    {...}
      },
      "scale": {
        "fig5-100k": {"ops": 50000, "seconds": 12.1,
                      "ops_per_sec": 4100.0, "events_per_req": 22.3},
        "fig5-1m":   {"...": "full mode only"}
      },
      "headline": {"event_throughput": 952000.0, "normalized": 39.5,
                   "scale_normalized": 0.00017}
    }

``headline.event_throughput`` is the disarmed ``event-dispatch`` rate —
the kernel's raw dispatch speed.  ``headline.normalized`` divides it by
the calibration rate, yielding a machine-independent figure CI can gate
on: a slower runner lowers both numerator and denominator, so only a
*kernel* regression moves the ratio.

The ``scale`` section holds batched Large-Variation replays on the
million-user path (batched populations, sanitizer disarmed).
``fig5-100k`` runs in every mode and backs the CI gate via
``headline.scale_normalized``; ``fig5-1m`` — the full 10⁶-user,
600-simulated-second trace — runs in full mode only and is the committed
baseline's proof that a million-user Large Variation trace completes in
minutes.

Schema v3 changes what the end-to-end rows (``fig5-autoscale`` and the
``scale`` rows) count: ``ops`` is *completed simulated requests*, not
kernel events, and ``events_per_req`` reports the kernel events per
completed request beside it.  Under v2 a change that removed kernel
events from a request's path lowered the gated rate and read as a
slowdown.  :func:`load_report` refuses v2 reports, since their
``scale_normalized`` is in different units.

Wall-clock reads here are the measurement itself and never feed a
simulation, hence the ``DCM001`` suppressions.
"""

from __future__ import annotations

import json
import platform
import sys
from time import perf_counter  # repro: noqa[DCM001] -- benchmark timing is the product here
from typing import Any, Dict, List, Optional

from repro.check import config as check_config
from repro.errors import ConfigurationError
from repro.perf import kernel

#: Schema tag; bump when the report layout changes incompatibly.
#: v2 added the "scale" section and headline.scale_normalized; v3 counts
#: completed requests (not kernel events) as the end-to-end rows' ops.
SCHEMA = "repro-bench-kernel/3"

#: Best-of repetitions for the micro scenarios (full, quick).
REPS = (5, 3)

#: Calibration loop iterations (full, quick).
CALIBRATION_OPS = (2_000_000, 500_000)


def calibrate(ops: int) -> float:
    """Millions of trivial interpreter loop iterations per second."""
    start = perf_counter()  # repro: noqa[DCM001] -- benchmark timing
    acc = 0
    for i in range(ops):
        acc += i
    elapsed = perf_counter() - start  # repro: noqa[DCM001] -- benchmark timing
    return ops / elapsed / 1e6


def _best_of(fn, *args, reps: int) -> Dict[str, Any]:
    """Fastest of ``reps`` runs of ``fn`` -> ``(ops, seconds[, events])``.

    The optional third element (kernel events, end-to-end rows only) adds
    ``events_per_req`` to the row.
    """
    best: Optional[tuple] = None
    for _ in range(reps):
        row = fn(*args)
        if best is None or row[1] < best[1]:
            best = row
    ops, seconds = best[0], best[1]
    out = {"ops": ops, "seconds": seconds, "ops_per_sec": ops / seconds}
    if len(best) > 2:
        out["events_per_req"] = best[2] / max(1, ops)
    return out


def run_suite(quick: bool = False) -> Dict[str, Any]:
    """Run every scenario armed and disarmed; return the report dict."""
    idx = 1 if quick else 0
    reps = REPS[idx]
    suites: Dict[str, Dict[str, Any]] = {}
    for label, armed in (("disarmed", False), ("armed", True)):
        with check_config.override(armed):
            rows: Dict[str, Any] = {}
            for name, fn in kernel.MICRO_BENCHES.items():
                rows[name] = _best_of(fn, kernel.SIZES[name][idx], reps=reps)
            rows["fig5-autoscale"] = _best_of(kernel.bench_fig5, quick, reps=1)
            suites[label] = rows
    # Million-user-path benches run disarmed only (production config): the
    # CI-sized 100k variant always, the 10⁶ acceptance variant in full mode.
    with check_config.override(False):
        scale: Dict[str, Any] = {
            "fig5-100k": _best_of(kernel.bench_fig5_100k, reps=1)
        }
        if not quick:
            scale["fig5-1m"] = _best_of(kernel.bench_fig5_1m, reps=1)
    calibration = calibrate(CALIBRATION_OPS[idx])
    throughput = suites["disarmed"]["event-dispatch"]["ops_per_sec"]
    scale_rate = scale["fig5-100k"]["ops_per_sec"]
    return {
        "schema": SCHEMA,
        "quick": quick,
        "python": platform.python_version(),
        "platform": platform.platform(),
        "calibration_mops": round(calibration, 3),
        "suites": suites,
        "scale": scale,
        "headline": {
            "event_throughput": round(throughput, 1),
            "normalized": round(throughput / (calibration * 1e6), 6),
            # A request rate is ~1e-4 of the calibration rate: keep digits.
            "scale_normalized": round(scale_rate / (calibration * 1e6), 9),
        },
    }


def render_report(report: Dict[str, Any]) -> str:
    """Human-readable table of a suite report."""
    from repro.analysis.tables import render_table

    def line(label: str, name: str, row: Dict[str, Any]) -> List[object]:
        per_req = row.get("events_per_req")
        return [label, name, f"{row['ops_per_sec']:,.0f}",
                f"{row['seconds']:.3f}", row["ops"],
                "-" if per_req is None else f"{per_req:.2f}"]

    rows: List[List[object]] = []
    for label in ("disarmed", "armed"):
        for name, row in report["suites"][label].items():
            rows.append(line(label, name, row))
    for name, row in report.get("scale", {}).items():
        rows.append(line("scale", name, row))
    rows.append(["-", "calibration (Mops/s)",
                 f"{report['calibration_mops']:,.3f}", "-", "-", "-"])
    rows.append(["-", "normalized throughput",
                 f"{report['headline']['normalized']:.3f}", "-", "-", "-"])
    title = "kernel microbenchmarks" + (" [quick]" if report["quick"] else "")
    title += " (end-to-end rows: ops = completed requests)"
    return render_table(
        ["checks", "scenario", "ops/sec", "best (s)", "ops", "events/req"],
        rows, title=title,
    )


def save_report(report: Dict[str, Any], path: str) -> None:
    """Write the report as stable, diff-friendly JSON."""
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(report, fh, indent=2, sort_keys=True)
        fh.write("\n")


def record_report(report: Dict[str, Any], store) -> str:
    """Record a perf report in a lab :class:`~repro.lab.store.ArtifactStore`.

    Keyed by host fingerprint + mode — never by the timings — so each
    machine/mode pair keeps one slot that successive runs overwrite.  The
    artifact is ``volatile``: ``repro lab diff`` reports timing drift as a
    note, not a delta.  Returns the artifact key.
    """
    from repro.lab.store import artifact_key

    producer = {
        "kind": "perf-report",
        "quick": bool(report.get("quick")),
        "python": report.get("python"),
        "platform": report.get("platform"),
    }
    key = artifact_key(producer)
    metrics = {
        name: float(value)
        for name, value in report["headline"].items()
        if isinstance(value, (int, float))
    }
    store.put(
        key,
        {"text": render_report(report), "metrics": metrics, "data": report},
        producer=producer, type="bench", volatile=True,
    )
    return key


def load_report(path: str) -> Dict[str, Any]:
    with open(path, "r", encoding="utf-8") as fh:
        report = json.load(fh)
    schema = report.get("schema")
    if schema == "repro-bench-kernel/2":
        raise ConfigurationError(
            f"{path}: bench schema {schema!r} counts kernel events as the "
            f"end-to-end ops, so its rates cannot be compared with "
            f"{SCHEMA!r} (completed requests); re-record it with "
            f"`repro perf --out {path}`"
        )
    if schema != SCHEMA:
        raise ConfigurationError(
            f"{path}: unsupported bench schema {schema!r} "
            f"(expected {SCHEMA!r})"
        )
    return report


def compare_reports(current: Dict[str, Any], baseline: Dict[str, Any],
                    tolerance: float = 0.25) -> List[str]:
    """Regressions of ``current`` vs ``baseline``; empty when within bounds.

    Gates on the *normalized* event throughput (dispatch rate divided by
    the host's calibration rate) so a slower CI runner does not read as a
    kernel regression; ``tolerance`` is the allowed fractional drop.  When
    both reports carry the ``scale_normalized`` headline (the
    ``fig5-100k`` million-user-path rate of completed requests, identical
    in quick and full mode), it is gated the same way.
    """
    problems: List[str] = []
    base = baseline["headline"]["normalized"]
    cur = current["headline"]["normalized"]
    floor = base * (1.0 - tolerance)
    if cur < floor:
        problems.append(
            f"normalized event throughput regressed: {cur:.3f} < "
            f"{floor:.3f} (baseline {base:.3f} - {tolerance:.0%})"
        )
    base_scale = baseline["headline"].get("scale_normalized")
    cur_scale = current["headline"].get("scale_normalized")
    if base_scale is not None and cur_scale is not None:
        scale_floor = base_scale * (1.0 - tolerance)
        if cur_scale < scale_floor:
            problems.append(
                f"normalized fig5-100k scale throughput regressed: "
                f"{cur_scale:.4g} < {scale_floor:.4g} "
                f"(baseline {base_scale:.4g} - {tolerance:.0%})"
            )
    return problems


def main(argv: Optional[List[str]] = None) -> int:  # pragma: no cover - thin CLI shim
    """Entry point used by ``benchmarks/bench_kernel.py``."""
    from repro.cli import main as cli_main

    return cli_main(["perf"] + list(argv or []))


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main(sys.argv[1:]))
