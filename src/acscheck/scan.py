"""Grid scans: evaluate the point report over a rectangular grid, emit CSV."""

from __future__ import annotations

import contextlib
import io
import math
import os
import stat
from pathlib import Path
from typing import Optional

import numpy as np

from ._record import Record
from .obstruction import BATCH, _check_tolerances, _refusal, batch_size, identity_report
from .structures import StructureFile

__all__ = ["GridSpec", "ScanSummary", "run_scan"]

NUMERIC_COLUMNS = ("n_max_abs", "obstruction", "contraction", "identity_residual_contraction")


class GridSpec(Record):
    """Per-axis ``(lo, hi, count)`` ranges; enumeration is row major (last axis fastest)."""

    axes: tuple[tuple[float, float, int], ...]

    def __post_init__(self):
        for lo, hi, count in self.axes:
            if not math.isfinite(hi - lo):  # also a NaN or infinite bound
                raise ValueError(f"grid axis bounds and their span must be finite, got {lo}:{hi}")
            if count < 1:
                raise ValueError("grid axis count must be >= 1")
            if lo > hi:
                raise ValueError("grid axis needs lo <= hi")

    @classmethod
    def parse(cls, text: str) -> "GridSpec":
        grid = cls(())
        for part in text.split(","):
            try:
                lo, hi, count = part.split(":")
                axis = (float(lo), float(hi), int(count))
            except ValueError:
                raise ValueError(f"bad grid axis {part!r}, expected lo:hi:count") from None
            grid = cls(grid.axes + (axis,))  # each axis is checked before the next is read
        return grid

    def chunks(self, size: int):
        """The axes' values, built or refused first, and an iterator over the
        points in order in chunks of `size`, each as one index array per axis."""
        counts = [count for _, _, count in self.axes]
        total = math.prod(counts)
        try:
            if total > 2**63 - 1:  # numpy cannot index more points
                raise ValueError
            values = [np.linspace(lo, hi, count) for lo, hi, count in self.axes]
            for axis, (lo, _, _) in zip(values, self.axes):
                axis[0] = lo  # linspace's first value, lo + 0 * step, turns -0.0 into 0.0
        except (MemoryError, ValueError):
            raise ValueError(f"grid {' x '.join(map(str, counts))} is too large to allocate") from None

        def chunk(k):  # flat indices split by divmod into axis indices, last axis first
            flat, index = np.arange(k, min(k + size, total)), []
            for count in reversed(counts):
                flat, i = np.divmod(flat, count)
                index.insert(0, i)
            return index

        return values, map(chunk, range(0, total, size))

    def points(self):
        """The points in order as tuples of floats; the axes are built, or refused, first."""
        values, chunks = self.chunks(BATCH)
        return (point for index in chunks for point in zip(*(axis[i].tolist() for axis, i in zip(values, index))))


class ScanSummary(Record):
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
            at = ", ".join(map(g17, self.argmax_point))
            lines.append(f"max |obstruction| = {g17(self.max_abs_obstruction)} at ({at})")
        lines.append(f"csv: {self.out_path}")
        return "\n".join(lines) + "\n"


def _keys(points: np.ndarray, read: list) -> list:
    """Per point, the bytes of its coordinates of indices `read`, those the
    fields read: points with equal keys have rows of equal bits.  Bytes,
    unlike floats, keep -0.0 apart from 0.0."""
    if not read:
        return [b""] * len(points)
    coords = np.ascontiguousarray(points[:, read])
    return coords.view(np.dtype((np.void, coords.itemsize * len(read)))).ravel().tolist()


def _flagged(exc: Exception) -> str:
    """The CSV text after the coordinates of a row that `exc` flags."""
    import csv  # the message can hold commas and quotes; only a flagged row loads csv

    text = io.StringIO()
    csv.writer(text, lineterminator="\n").writerow(["nan"] * len(NUMERIC_COLUMNS) + ["error: " + _refusal(exc)])
    return text.getvalue()


def _rows(structure: StructureFile, points: np.ndarray, tol_alg: float, tol_identity: float) -> list:
    """Per point of `points`, in one batch: its |obstruction| and the CSV
    text after its coordinates, or None and the text of a flagged row.  If
    the fields or the report raise a ValueError or run out of memory, each
    point is run again as a chunk of one, so an error flags only its own row
    and carries the text a check of that point gives."""
    try:
        rep = identity_report(structure.j_field, structure.metric, structure.chart, points, tol_alg, tol_identity)
    except (MemoryError, ValueError) as exc:
        if len(points) == 1:
            return [(None, _flagged(exc))]
        return [row for k in range(len(points)) for row in _rows(structure, points[k:k + 1], tol_alg, tol_identity)]
    # the numeric columns as %.17g, then the verdict: the bytes csv.writer gives, as no field needs quoting
    tail = "%.17g," * len(NUMERIC_COLUMNS) + "%s\n"
    columns = zip(*(rep[name].tolist() for name in NUMERIC_COLUMNS + ("verdict",)))
    return list(zip(np.abs(rep["obstruction"]).tolist(), [tail % row for row in columns]))


def run_scan(
    structure: StructureFile,
    grid: GridSpec,
    out_path,
    tol_alg: float = 1e-9,
    tol_identity: float = 1e-9,
) -> ScanSummary:
    """Scan the grid, writing one CSV row per point in enumeration order.

    Points are evaluated in chunks of `batch_size(n^3)`, n^3 the floats of a
    point's report tensors.  A point's row is a function of the coordinates
    its fields read (`reads`) alone, so each chunk evaluates only the points
    whose coordinates it has not met in itself or in the chunk before, and
    formats each distinct axis value it holds once.  A failing point
    (singular frame, non-SPD metric, expression domain error, non-finite
    report) is flagged in the status column and the scan continues.
    """
    chart, metric = structure.chart, structure.metric
    _check_tolerances(tol_alg, tol_identity)  # before a chunk could flag every row with it
    if len(grid.axes) != chart.n:
        raise ValueError(f"grid has {len(grid.axes)} axes, chart has {chart.n}")
    names = structure.j_field.reads() | (metric.reads() if metric is not None else set())
    read = [i for i, name in enumerate(chart.var_names) if name in names]
    rows = flagged = 0
    best: Optional[float] = None
    best_point: Optional[tuple[float, ...]] = None
    memo: dict = {}  # the last chunk's rows by their keys
    out_path = Path(out_path)
    values, chunks = grid.chunks(batch_size(chart.n**3))
    mode = os.lstat(out_path).st_mode if os.path.lexists(out_path) else stat.S_IFREG
    part = out_path.with_name(f".{out_path.name}.{os.getpid()}.part") if stat.S_ISREG(mode) else out_path
    try:  # a missing or regular file is replaced whole, on success only; any other (a FIFO, a link) in place
        with part.open("w", encoding="utf-8", newline="") as handle:
            handle.write(",".join((*chart.var_names, *NUMERIC_COLUMNS, "status")) + "\n")  # identifiers: no quoting
            for index in chunks:
                pts = np.stack([axis[i] for axis, i in zip(values, index)], axis=1)
                keys = _keys(pts, read)
                # one point of each key that memo lacks
                fresh = [k for key, k in dict(zip(keys, range(len(keys)))).items() if key not in memo]
                if fresh:
                    memo.update(zip([keys[k] for k in fresh], _rows(structure, pts[fresh], tol_alg, tol_identity)))
                memo = {key: memo[key] for key in keys}
                found = [memo[key] for key in keys]
                texts = []  # per axis, the text of each point's coordinate, one format a distinct value
                for axis, i in zip(values, [i.tolist() for i in index]):
                    distinct = list(set(i))
                    text = dict(zip(distinct, [format(v, ".17g") for v in axis[distinct].tolist()]))
                    texts.append(map(text.__getitem__, i))
                handle.write("".join(map(",".join, zip(*texts, [tail for _, tail in found]))))
                for k, (obs, _) in enumerate(found):
                    if obs is None:
                        flagged += 1
                    elif best is None or obs > best:
                        best, best_point = obs, tuple(pts[k].tolist())
                rows += len(found)
        if part != out_path:  # unlinked first: a rename over a file can cost as much as truncating it
            out_path.unlink(missing_ok=True)
            part.rename(out_path)
    except BaseException as exc:
        if part != out_path:
            with contextlib.suppress(OSError):  # a part never made: the error to raise is exc
                part.unlink()
        if isinstance(exc, OSError) and exc.filename == str(part):  # named as an open of out_path names it
            exc.filename = str(out_path)
        raise
    return ScanSummary(rows, flagged, best, best_point, str(out_path))
