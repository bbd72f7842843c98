"""Grid scans: evaluate the point report over a rectangular grid, emit CSV."""

from __future__ import annotations

import csv
import itertools
from dataclasses import dataclass
from pathlib import Path
from typing import Optional

import numpy as np

from .geometry import GeometryError
from .obstruction import identity_report, scan_columns
from .structures import StructureFile

__all__ = ["CHUNK", "GridAxis", "GridSpec", "ScanSummary", "run_scan"]

# Points per batch.  A 1,000-point scan of pullback4 (2-core x86-64, numpy
# 2.4) ran as fast in 128-point chunks as in one 1,000-point chunk; peak RSS
# rose by 0.3 MB over point-by-point evaluation with the former, 3.1 MB with
# the latter.
CHUNK = 128
NUMERIC_COLUMNS = ("n_max_abs", "obstruction", "contraction", "identity_residual_contraction")


@dataclass(frozen=True)
class GridAxis:
    lo: float
    hi: float
    count: int

    def __post_init__(self):
        if self.count < 1:
            raise ValueError("grid axis count must be >= 1")
        if self.lo > self.hi:
            raise ValueError("grid axis needs lo <= hi")

    def values(self) -> np.ndarray:
        return np.linspace(self.lo, self.hi, self.count)


@dataclass(frozen=True)
class GridSpec:
    """Per-axis ranges; enumeration is row major (last axis fastest)."""

    axes: tuple[GridAxis, ...]

    @classmethod
    def parse(cls, text: str) -> "GridSpec":
        axes = []
        for part in text.split(","):
            pieces = part.split(":")
            if len(pieces) != 3:
                raise ValueError(f"bad grid axis {part!r}, expected lo:hi:count")
            axes.append(GridAxis(float(pieces[0]), float(pieces[1]), int(pieces[2])))
        return cls(tuple(axes))

    def total(self) -> int:
        out = 1
        for ax in self.axes:
            out *= ax.count
        return out

    def points(self):
        return itertools.product(*(ax.values() for ax in self.axes))


@dataclass(frozen=True)
class ScanSummary:
    rows: int
    flagged: int
    max_abs_obstruction: Optional[float]
    argmax_point: Optional[tuple[float, ...]]
    out_path: str

    def render_text(self) -> str:
        g17 = lambda x: format(x, ".17g")
        lines = [f"scan: {self.rows} points, {self.flagged} flagged"]
        if self.max_abs_obstruction is None:
            lines.append("max |obstruction|: n/a (no successful rows)")
        else:
            lines.append(
                "max |obstruction| = "
                + g17(self.max_abs_obstruction)
                + " at ("
                + ", ".join(g17(v) for v in self.argmax_point)
                + ")"
            )
        lines.append(f"csv: {self.out_path}")
        return "\n".join(lines) + "\n"


def _rows(structure: StructureFile, chunk: list, tol_alg: float, tol_identity: float) -> list:
    """Per point of `chunk`: the numeric columns and the verdict, or the
    error that point raises.  The chunk is evaluated as one batch; if that
    raises, each point goes through its own report, so an error flags only
    its own row and carries the message a single-point check gives."""
    chart, j_field, metric = structure.chart, structure.j_field, structure.metric
    fields = NUMERIC_COLUMNS + ("verdict",)
    try:
        points = np.array(chunk)
        g_jm = metric.eval(chart, points) if metric is not None else None
        cols = scan_columns(j_field.eval(chart, points), g_jm, tol_alg, tol_identity)
        return list(zip(*(cols[name].tolist() for name in fields)))
    except (GeometryError, ValueError):
        pass
    rows = []
    for point in chunk:
        try:
            rep = identity_report(
                j_field, metric, chart, point, tol_alg=tol_alg, tol_identity=tol_identity
            )
            rows.append(tuple(getattr(rep, name) for name in fields))
        except (GeometryError, ValueError) as exc:
            rows.append(exc)
    return rows


def run_scan(
    structure: StructureFile,
    grid: GridSpec,
    out_path,
    tol_alg: float = 1e-9,
    tol_identity: float = 1e-9,
) -> ScanSummary:
    """Scan the grid, writing one CSV row per point in enumeration order.

    Points are evaluated in chunks of CHUNK.  A failing point (singular
    frame, non-SPD metric, expression domain error, non-finite report) is
    flagged in the status column and the scan continues.
    """
    chart = structure.chart
    if len(grid.axes) != chart.n:
        raise ValueError(f"grid has {len(grid.axes)} axes, chart has {chart.n}")
    g17 = lambda x: format(x, ".17g")
    rows = 0
    flagged = 0
    best: Optional[float] = None
    best_point: Optional[tuple[float, ...]] = None
    out_path = Path(out_path)
    points = grid.points()
    with out_path.open("w", encoding="utf-8", newline="") as handle:
        writer = csv.writer(handle, lineterminator="\n")
        writer.writerow(list(chart.var_names) + list(NUMERIC_COLUMNS) + ["status"])
        while chunk := list(itertools.islice(points, CHUNK)):
            for point, row in zip(chunk, _rows(structure, chunk, tol_alg, tol_identity)):
                rows += 1
                coords = [g17(v) for v in point]
                if isinstance(row, Exception):
                    flagged += 1
                    writer.writerow(coords + ["nan"] * len(NUMERIC_COLUMNS) + [f"error: {row}"])
                    continue
                writer.writerow(coords + [g17(v) for v in row[:-1]] + [row[-1]])
                if best is None or abs(row[1]) > best:
                    best = abs(row[1])
                    best_point = tuple(float(v) for v in point)
    return ScanSummary(rows, flagged, best, best_point, str(out_path))
