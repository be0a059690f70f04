"""ASCII rendering of tables and series for benchmark output.

The benchmark harnesses print the same rows/series the paper reports; these
helpers keep that output aligned and diff-friendly (EXPERIMENTS.md quotes it
verbatim).
"""

from __future__ import annotations

from typing import Iterable, List, Optional, Sequence

from repro.errors import ConfigurationError


def format_cell(value: object, precision: int = 3) -> str:
    """Format one cell: floats get fixed precision (scientific when tiny)."""
    if isinstance(value, float):
        if value != 0 and abs(value) < 10 ** (-precision):
            return f"{value:.{precision}e}"
        return f"{value:.{precision}f}"
    return str(value)


def render_table(
    headers: Sequence[str],
    rows: Iterable[Sequence[object]],
    precision: int = 3,
    title: Optional[str] = None,
) -> str:
    """Render an aligned ASCII table."""
    str_rows: List[List[str]] = [
        [format_cell(c, precision) for c in row] for row in rows
    ]
    for row in str_rows:
        if len(row) != len(headers):
            raise ConfigurationError(
                f"row width {len(row)} != header width {len(headers)}"
            )
    widths = [
        max(len(h), *(len(r[i]) for r in str_rows)) if str_rows else len(h)
        for i, h in enumerate(headers)
    ]
    lines: List[str] = []
    if title:
        lines.append(title)
    sep = "-+-".join("-" * w for w in widths)
    lines.append(" | ".join(h.ljust(w) for h, w in zip(headers, widths)))
    lines.append(sep)
    for row in str_rows:
        lines.append(" | ".join(c.rjust(w) for c, w in zip(row, widths)))
    return "\n".join(lines)


def table_artifact(
    headers: Sequence[str],
    rows: Iterable[Sequence[object]],
    precision: int = 3,
    title: Optional[str] = None,
    metrics: Optional[dict] = None,
) -> dict:
    """A rendered table as a lab artifact payload.

    Pairs the ASCII rendering (``text``, what lands in ``out/*.txt``) with
    the raw ``headers``/``rows`` under ``data`` so downstream tooling can
    re-plot without re-parsing the ASCII, plus optional scalar ``metrics``
    for ``repro lab diff``.
    """
    row_list = [list(row) for row in rows]
    return {
        "text": render_table(headers, row_list, precision=precision, title=title),
        "data": {"headers": list(headers), "rows": row_list},
        "metrics": dict(metrics or {}),
    }


def render_series(
    label: str,
    pairs: Sequence[tuple],
    max_points: int = 40,
    precision: int = 1,
) -> str:
    """Render a (time, value) series compactly, downsampling to
    ``max_points`` evenly spaced samples."""
    if not pairs:
        return f"{label}: (empty)"
    if len(pairs) > max_points:
        step = len(pairs) / max_points
        pairs = [pairs[int(i * step)] for i in range(max_points)]
    body = " ".join(
        f"{t:.0f}s:{format_cell(float(v), precision)}" for t, v in pairs
    )
    return f"{label}: {body}"


def render_run_telemetry(telemetry) -> str:
    """Render one engine invocation's timing/cache telemetry.

    ``telemetry`` is duck-typed (any object with the
    :class:`repro.runner.RunTelemetry` attributes), keeping this module
    free of engine imports.
    """
    point_seconds = [s for s in telemetry.point_seconds if s > 0]
    rows = [
        ["points", float(telemetry.points)],
        ["cache hits", float(telemetry.cache_hits)],
        ["cache misses", float(telemetry.cache_misses)],
        ["workers", float(telemetry.jobs)],
        ["wall-clock (s)", telemetry.wall_seconds],
        ["compute (s)", telemetry.busy_seconds],
        ["mean point (s)", float(sum(point_seconds) / len(point_seconds))
         if point_seconds else 0.0],
        ["max point (s)", max(point_seconds) if point_seconds else 0.0],
        ["worker utilization", telemetry.worker_utilization],
    ]
    cache_note = (
        f"cache: {telemetry.store}" if telemetry.store else "cache: disabled"
    )
    return render_table(
        ["telemetry", "value"], rows, title="engine telemetry"
    ) + f"\n{cache_note}"


def render_sparkline(values: Sequence[float], width: int = 60) -> str:
    """A unicode sparkline for quick visual shape checks in terminals."""
    if not values:
        return ""
    blocks = "▁▂▃▄▅▆▇█"
    vals = list(values)
    if len(vals) > width:
        step = len(vals) / width
        vals = [vals[int(i * step)] for i in range(width)]
    lo, hi = min(vals), max(vals)
    span = hi - lo or 1.0
    return "".join(blocks[int((v - lo) / span * (len(blocks) - 1))] for v in vals)
