"""Measurement harness for the Section 5 experiments.

Absolute times differ from the paper's C++/Opteron setup (this is
Python); what must reproduce is the *shape*: growth rates (log-log
slopes), orderings (who is faster), and crossover behaviour.  The helpers here
time callables, sweep parameter ranges and fit slopes so the figure
regenerators can assert those shapes.
"""

from __future__ import annotations

import math
import time
from dataclasses import dataclass, field
from typing import Callable, Dict, List, Sequence, Tuple


def time_call(fn: Callable[[], object]) -> Tuple[float, object]:
    """(elapsed seconds, return value) for one call."""
    start = time.perf_counter()
    result = fn()
    return time.perf_counter() - start, result


def loglog_slope(xs: Sequence[float], ys: Sequence[float]) -> float:
    """Least-squares slope of log(y) against log(x).

    Slope ≈ 1 means linear growth, ≈ 1.5 the u^{3/2} single-round prover,
    ≈ 0.5 the √u communication, ≈ 0 polylogarithmic growth.
    """
    if len(xs) != len(ys) or len(xs) < 2:
        raise ValueError("need at least two matching points")
    lx = [math.log(x) for x in xs]
    ly = [math.log(max(y, 1e-12)) for y in ys]
    n = len(lx)
    mean_x = sum(lx) / n
    mean_y = sum(ly) / n
    num = sum((a - mean_x) * (b - mean_y) for a, b in zip(lx, ly))
    den = sum((a - mean_x) ** 2 for a in lx)
    if den == 0:
        raise ValueError("all x values identical")
    return num / den


@dataclass
class Series:
    """One plotted line: a name and matching x/y vectors."""

    name: str
    xs: List[float] = field(default_factory=list)
    ys: List[float] = field(default_factory=list)

    def add(self, x: float, y: float) -> None:
        self.xs.append(float(x))
        self.ys.append(float(y))

    def slope(self) -> float:
        return loglog_slope(self.xs, self.ys)


@dataclass
class FigureData:
    """All the series of one figure plus free-form notes."""

    figure_id: str
    title: str
    series: Dict[str, Series] = field(default_factory=dict)
    notes: List[str] = field(default_factory=list)

    def series_named(self, name: str) -> Series:
        if name not in self.series:
            self.series[name] = Series(name)
        return self.series[name]

    def note(self, text: str) -> None:
        self.notes.append(text)

    def render(self) -> str:
        lines = ["== %s: %s ==" % (self.figure_id, self.title)]
        xs = None
        for s in self.series.values():
            xs = s.xs
            break
        if xs:
            header = ["x"] + list(self.series.keys())
            rows = []
            for idx, x in enumerate(xs):
                row = ["%g" % x]
                for s in self.series.values():
                    row.append(
                        "%.6g" % s.ys[idx] if idx < len(s.ys) else "-"
                    )
                rows.append(row)
            lines.append(format_table(header, rows))
        for s in self.series.values():
            if len(s.xs) >= 2:
                lines.append(
                    "  slope(%s) = %.3f" % (s.name, s.slope())
                )
        for note in self.notes:
            lines.append("  note: %s" % note)
        return "\n".join(lines)


def format_table(headers: Sequence[str], rows: Sequence[Sequence[str]]) -> str:
    """Plain fixed-width table (the benches print these)."""
    widths = [len(h) for h in headers]
    for row in rows:
        for c, cell in enumerate(row):
            widths[c] = max(widths[c], len(cell))
    def fmt(cells):
        return "  " + "  ".join(
            str(cell).rjust(widths[c]) for c, cell in enumerate(cells)
        )
    out = [fmt(headers), fmt(["-" * w for w in widths])]
    out.extend(fmt(row) for row in rows)
    return "\n".join(out)


def throughput(updates: int, seconds: float) -> float:
    """Updates per second (guarding against timer underflow)."""
    return updates / max(seconds, 1e-9)
