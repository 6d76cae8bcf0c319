"""Result container and reporting utilities for the figure reproductions.

Each figure function returns a :class:`FigureResult`: named series of (x, y)
points plus labels — exactly the rows/series the paper plots.  The harness
renders them as an aligned text table (what ``repro-experiments`` prints) and
as CSV (what EXPERIMENTS.md is generated from); :meth:`FigureResult.from_csv`
reads the CSV back, so the two formats round-trip.  Missing cells (a series
with no point at some x, e.g. a capped optimal algorithm) are rendered with
the single :data:`MISSING` sentinel in both formats.
"""

from __future__ import annotations

import csv
import io
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable

__all__ = ["FigureResult", "timed", "MISSING"]

#: rendering of a missing cell — a series with no point at some x — in both
#: the text table and the CSV (one sentinel, so the formats agree and
#: :meth:`FigureResult.from_csv` can distinguish "absent" from any value)
MISSING = "-"


@dataclass
class FigureResult:
    """Named series reproducing one figure of the paper."""

    fig: str  #: e.g. "fig07"
    title: str
    xlabel: str
    ylabel: str
    #: series name -> list of (x, y)
    series: dict[str, list[tuple[float, float]]] = field(default_factory=dict)
    notes: str = ""

    def add(self, name: str, x: float, y: float) -> None:
        """Append one point to a series (created on first use)."""
        self.series.setdefault(name, []).append((float(x), float(y)))

    # ------------------------------------------------------------------
    def xs(self) -> list[float]:
        """Sorted union of x values across series."""
        vals = {x for pts in self.series.values() for x, _ in pts}
        return sorted(vals)

    def to_table(self) -> str:
        """Aligned text table: one row per x, one column per series."""
        names = list(self.series)
        lookup = {name: dict(pts) for name, pts in self.series.items()}
        widths = [max(len(n), 10) for n in names]
        xw = max(len(self.xlabel), 8)
        out = io.StringIO()
        out.write(f"# {self.fig}: {self.title}\n")
        if self.notes:
            out.write(f"# {self.notes}\n")
        out.write(self.xlabel.rjust(xw))
        for n, w in zip(names, widths):
            out.write("  " + n.rjust(w))
        out.write("\n")
        for x in self.xs():
            xs = f"{int(x)}" if float(x).is_integer() else f"{x:.4g}"
            out.write(xs.rjust(xw))
            for n, w in zip(names, widths):
                v = lookup[n].get(x)
                out.write("  " + (f"{v:.4f}" if v is not None else MISSING).rjust(w))
            out.write("\n")
        return out.getvalue()

    def csv_bytes(self) -> bytes:
        """The CSV rendering as bytes (x column + one column per series).

        ``repr`` of a float round-trips exactly in Python 3, so
        :meth:`from_csv` recovers the series bit-identically; the byte
        form is what the figure-farm identity gates compare.
        """
        buf = io.StringIO()
        names = list(self.series)
        lookup = {name: dict(pts) for name, pts in self.series.items()}
        w = csv.writer(buf)
        w.writerow([self.xlabel] + names)
        for x in self.xs():
            w.writerow([repr(x)] + [
                repr(v) if (v := lookup[n].get(x)) is not None else MISSING
                for n in names
            ])
        return buf.getvalue().encode()

    def to_csv(self, path: str | Path) -> Path:
        """Write :meth:`csv_bytes` to ``path`` (parents created)."""
        path = Path(path)
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_bytes(self.csv_bytes())
        return path

    @classmethod
    def from_csv(
        cls,
        path: str | Path,
        *,
        fig: str = "",
        title: str = "",
        ylabel: str = "",
        notes: str = "",
    ) -> "FigureResult":
        """Read a :meth:`to_csv` file back into a result.

        The CSV stores only the x label and the series; the other labels are
        not part of the format and default to empty unless passed in.
        :data:`MISSING` cells are restored as absent points.  A row whose
        cell count differs from the header's, or a cell that is neither
        :data:`MISSING` nor a number, raises ``ValueError`` naming the path
        and line.
        """
        path = Path(path)
        with path.open(newline="") as fh:
            rows = list(csv.reader(fh))
        if not rows or not rows[0]:
            raise ValueError(f"{path}: not a FigureResult CSV (empty or no header)")
        xlabel, names = rows[0][0], rows[0][1:]
        res = cls(fig, title, xlabel, ylabel, notes=notes)
        for line, row in enumerate(rows[1:], 2):
            if len(row) != len(rows[0]):
                raise ValueError(
                    f"{path}:{line}: {len(row)} cells under a {len(rows[0])}-column header"
                )
            try:
                x = float(row[0])
                cells = [(n, float(c)) for n, c in zip(names, row[1:]) if c != MISSING]
            except ValueError as exc:
                raise ValueError(f"{path}:{line}: {exc}") from None
            for name, y in cells:
                res.add(name, x, y)
        return res

    def __str__(self) -> str:  # pragma: no cover - convenience
        return self.to_table()


def timed(fn: Callable, *args, repeats: int = 1, **kw) -> tuple[float, object]:
    """Wall-clock a call; returns ``(seconds, result)``.

    With ``repeats > 1`` the call is repeated and the *best* wall-clock time
    is reported (the standard way to time millisecond-scale deterministic
    code under concurrent load: the minimum is the run with the least
    interference).  The result of the first call is returned — the
    algorithms are deterministic, so every repeat computes the same value.
    """
    if repeats < 1:
        raise ValueError(f"repeats must be >= 1, got {repeats}")
    t0 = time.perf_counter()
    out = fn(*args, **kw)
    best = time.perf_counter() - t0
    for _ in range(repeats - 1):
        t0 = time.perf_counter()
        fn(*args, **kw)
        best = min(best, time.perf_counter() - t0)
    return best, out
