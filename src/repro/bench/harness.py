"""Measurement harness shared by the benchmark suite.

Provides the handful of utilities every experiment needs:

* :func:`time_call` — robust wall-clock timing (median of several repeats);
* :func:`fit_powerlaw_exponent` — least-squares slope on a log–log scale, used
  to report the *empirical* growth exponent of a scaling series (experiment
  E2 compares it against the paper's PTIME data-complexity claim);
* :class:`ResultTable` — a tiny column-aligned table printer so every bench
  prints the rows/series it reproduces in a uniform way (the output of
  ``pytest benchmarks/ --benchmark-only``; ``docs/performance.md`` describes
  the benchmark files);
* :func:`scaling_series` — run a (build, run) pair over a list of sizes and
  collect timings.

The harness deliberately depends only on the standard library plus numpy
(which is available offline) so benchmarks can run anywhere the library runs.
"""

from __future__ import annotations

import math
import time
from dataclasses import dataclass, field
from typing import Callable, Iterable, Optional, Sequence

try:  # numpy is an optional convenience for the fit; fall back to a manual fit.
    import numpy as _np
except ImportError:  # pragma: no cover - numpy is installed in the target env
    _np = None

__all__ = ["time_call", "fit_powerlaw_exponent", "ResultTable", "scaling_series"]


def time_call(fn: Callable[[], object], *, repeats: int = 3) -> float:
    """Median wall-clock time (seconds) of calling ``fn()`` *repeats* times."""
    samples = []
    for _ in range(max(1, repeats)):
        start = time.perf_counter()
        fn()
        samples.append(time.perf_counter() - start)
    samples.sort()
    return samples[len(samples) // 2]


def fit_powerlaw_exponent(sizes: Sequence[float], times: Sequence[float]) -> float:
    """Least-squares slope of ``log(time)`` against ``log(size)``.

    For a series that scales as ``time ≈ c · size^k`` the returned value
    approximates ``k``; a value around 1 means linear scaling, around 2
    quadratic, and so on.  Degenerate inputs (fewer than two points, zero
    times) return ``float('nan')``.
    """
    pairs = [(s, t) for s, t in zip(sizes, times) if s > 0 and t > 0]
    if len(pairs) < 2:
        return float("nan")
    xs = [math.log(s) for s, _ in pairs]
    ys = [math.log(t) for _, t in pairs]
    if _np is not None:
        slope, _intercept = _np.polyfit(xs, ys, 1)
        return float(slope)
    n = len(xs)
    mean_x = sum(xs) / n
    mean_y = sum(ys) / n
    denominator = sum((x - mean_x) ** 2 for x in xs)
    if denominator == 0:
        return float("nan")
    return sum((x - mean_x) * (y - mean_y) for x, y in zip(xs, ys)) / denominator


@dataclass
class ResultTable:
    """A minimal column-aligned table used by every benchmark's printed report."""

    title: str
    headers: Sequence[str]
    rows: list[Sequence[object]] = field(default_factory=list)

    def add_row(self, *values: object) -> None:
        """Append one row (values are converted to strings when printing)."""
        if len(values) != len(self.headers):
            raise ValueError(
                f"row has {len(values)} values but the table has {len(self.headers)} columns"
            )
        self.rows.append(values)

    def render(self) -> str:
        """Render the table as aligned text."""
        string_rows = [[_format_cell(v) for v in row] for row in self.rows]
        widths = [len(h) for h in self.headers]
        for row in string_rows:
            for index, cell in enumerate(row):
                widths[index] = max(widths[index], len(cell))
        lines = [self.title, "-" * len(self.title)]
        lines.append("  ".join(h.ljust(widths[i]) for i, h in enumerate(self.headers)))
        lines.append("  ".join("-" * widths[i] for i in range(len(self.headers))))
        for row in string_rows:
            lines.append("  ".join(cell.ljust(widths[i]) for i, cell in enumerate(row)))
        return "\n".join(lines)

    def print(self) -> None:
        """Print the rendered table (with a leading blank line for readability)."""
        print("\n" + self.render())


def _format_cell(value: object) -> str:
    """Human-friendly cell formatting (floats get 4 significant digits)."""
    if isinstance(value, float):
        return f"{value:.4g}"
    return str(value)


def scaling_series(
    sizes: Iterable[int],
    build: Callable[[int], object],
    run: Callable[[object], object],
    *,
    repeats: int = 3,
) -> list[tuple[int, float]]:
    """Time ``run(build(size))`` for every size; building is not timed.

    Returns a list of ``(size, median_seconds)`` pairs in input order.
    """
    series: list[tuple[int, float]] = []
    for size in sizes:
        prepared = build(size)
        elapsed = time_call(lambda: run(prepared), repeats=repeats)
        series.append((size, elapsed))
    return series
