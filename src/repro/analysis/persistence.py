"""Saving and loading experiment results (JSON/CSV).

Experiments are cheap to re-run but comparisons outlive sessions: these
helpers serialise the run artefacts — stability reports, time series,
scaling timelines, sweep curves — into plain JSON/CSV files that the CLI
writes and other tooling (or EXPERIMENTS.md updates) can consume.
"""

from __future__ import annotations

import csv
import json
from dataclasses import asdict
from typing import Any, Dict, List, Sequence, Tuple

from repro.analysis.sla import StabilityReport
from repro.analysis.timeseries import response_time_series, throughput_series
from repro.errors import ConfigurationError

#: Format version stamped into every JSON artefact.
SCHEMA_VERSION = 1


def write_csv(path: str, headers: Sequence[str], rows: Sequence[Sequence[Any]]) -> None:
    """Write a simple CSV with a header row."""
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(headers)
        for row in rows:
            if len(row) != len(headers):
                raise ConfigurationError(
                    f"row width {len(row)} != header width {len(headers)}"
                )
            writer.writerow(row)


def read_csv(path: str) -> Tuple[List[str], List[List[str]]]:
    """Read a CSV written by :func:`write_csv`; returns (headers, rows)."""
    with open(path, newline="") as fh:
        reader = csv.reader(fh)
        try:
            headers = next(reader)
        except StopIteration:
            raise ConfigurationError(f"{path}: empty CSV") from None
        return headers, [row for row in reader]


def report_to_dict(report: StabilityReport) -> Dict[str, Any]:
    """A stability report as a plain dict."""
    return asdict(report)


def run_to_dict(dep, bin_width: float = 5.0) -> Dict[str, Any]:
    """Serialise a stopped controller :class:`~repro.scenario.Deployment`.

    Captures the summary report, binned response-time (p95) and throughput
    series, per-tier VM timelines, controller events, and (for DCM runs)
    the soft-resource re-allocation log.  The raw request log is *not*
    included — it is large and reproducible from the seed.
    """
    log, duration = dep.system.request_log, dep.duration
    rt = response_time_series(log, duration, bin_width, percentile=95.0)
    xput = throughput_series(log, duration, bin_width)
    return {
        "schema_version": SCHEMA_VERSION,
        "controller": dep.spec.controller,
        "duration": duration,
        "report": report_to_dict(dep.stability_report()),
        "series": {
            "bin_width": bin_width,
            "p95_response_time": list(rt.values),
            "throughput": list(xput.values),
        },
        "vm_timelines": {
            tier: [[t, c] for t, c in dep.controller.scaling_timeline(tier)]
            for tier in ("app", "db")
        },
        "events": [
            {"time": e.time, "tier": e.tier, "kind": e.kind, "detail": e.detail}
            for e in dep.controller.events
        ],
        "reallocations": [
            {"time": e.time, "action": e.kind, "detail": e.detail}
            for e in dep.system.control_log
            if e.actor == "app-agent"
        ],
    }


def save_run(dep, path: str, bin_width: float = 5.0) -> None:
    """Write a controller run's artefact JSON to ``path``."""
    with open(path, "w") as fh:
        json.dump(run_to_dict(dep, bin_width), fh, indent=2)


def load_run(path: str) -> Dict[str, Any]:
    """Load an artefact written by :func:`save_run` (schema-checked)."""
    with open(path) as fh:
        data = json.load(fh)
    version = data.get("schema_version")
    if version != SCHEMA_VERSION:
        raise ConfigurationError(
            f"{path}: unsupported schema version {version!r} "
            f"(expected {SCHEMA_VERSION})"
        )
    return data


def save_curve(
    path: str,
    x_label: str,
    pairs: Sequence[Tuple[Any, Any]],
    y_label: str = "value",
) -> None:
    """Persist a simple (x, y) curve as CSV."""
    write_csv(path, [x_label, y_label], [[x, y] for x, y in pairs])


def load_curve(path: str) -> List[Tuple[float, float]]:
    """Load a curve written by :func:`save_curve`."""
    _headers, rows = read_csv(path)
    try:
        return [(float(a), float(b)) for a, b, *_ in rows]
    except (ValueError, IndexError) as err:
        raise ConfigurationError(f"{path}: malformed curve row: {err}") from None
