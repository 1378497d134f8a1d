"""ASCII rendering of experiment tables (mean ± std cells, aligned columns)."""

from __future__ import annotations

from typing import Dict, List, Mapping, Optional, Sequence

import numpy as np

__all__ = ["mean_std", "render_table", "render_series"]


def mean_std(values: Sequence[float], digits: int = 3) -> str:
    """Format runs as the paper's ``mean±std`` cells."""
    arr = np.asarray(list(values), dtype=float)
    if arr.size == 0:
        return "-"
    if arr.size == 1:
        return f"{arr[0]:.{digits}f}"
    return f"{arr.mean():.{digits}f}±{arr.std():.{digits}f}"


def render_table(
    headers: Sequence[str],
    rows: Sequence[Sequence[object]],
    *,
    title: Optional[str] = None,
) -> str:
    """Monospace table with per-column alignment."""
    str_rows = [[str(c) for c in row] for row in rows]
    widths = [len(h) for h in headers]
    for row in str_rows:
        for i, cell in enumerate(row):
            widths[i] = max(widths[i], len(cell))
    sep = "-+-".join("-" * w for w in widths)
    lines: List[str] = []
    if title:
        lines.append(title)
    lines.append(" | ".join(h.ljust(w) for h, w in zip(headers, widths)))
    lines.append(sep)
    for row in str_rows:
        lines.append(" | ".join(c.ljust(w) for c, w in zip(row, widths)))
    return "\n".join(lines)


def render_series(
    name: str,
    xs: Sequence[object],
    ys: Sequence[float],
    *,
    digits: int = 3,
    width: int = 40,
) -> str:
    """One labelled numeric series plus a coarse ASCII sparkline.

    This is the textual stand-in for the paper's line plots: the numeric
    series is the ground truth, the bar sketch aids eyeballing trends.
    Bars scale over the finite points; a NaN or infinite point gets none.
    """
    ys_arr = np.asarray(list(ys), dtype=float)
    finite = ys_arr[np.isfinite(ys_arr)]
    lo = float(finite.min()) if finite.size else 0.0
    hi = float(finite.max()) if finite.size else 1.0
    span = (hi - lo) or 1.0
    lines = [f"{name}:"]
    for x, v in zip(xs, ys_arr):
        bar = "#" * int(round((v - lo) / span * width)) if np.isfinite(v) else ""
        lines.append(f"  {str(x):>8} {v:.{digits}f} |{bar}")
    return "\n".join(lines)
