"""Structure files (chart + J field + optional metric) and the built-in gallery.

File format, line oriented; ``#`` starts a comment anywhere on a line::

    [chart]
    dim = 4
    vars = x1, x2, x3, x4          # optional, defaults to x1..xn
    name = expblock4               # optional metadata
    description = ...              # optional metadata

    [J]
    kind = explicit                # explicit (default) | conjugation | pullback
    1 2 = -1                       # <row> <col> = <expression>, 1-indexed
    3 4 = -exp(x1)

    [metric]                        # optional; omitted means Euclidean
    2 2 = x1^2                      # diagonal defaults to 1, off-diagonal to 0

A conjugation section gives the frame A of J = A J0 A^-1 (J0 the standard
block), its diagonal defaulting to 1; a pullback section gives the map phi of
J = (Dphi)^-1 J0 Dphi, one ``<i> = <expression>`` line per component, each
defaulting to its own coordinate.  Explicit entries default to 0.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from pathlib import Path
from typing import Optional

from . import expr
from .geometry import (
    ChartSpec,
    ConjugationField,
    ExplicitField,
    MatrixField,
    MetricField,
    PullbackField,
    standard_block,
)

__all__ = [
    "StructureError",
    "StructureFile",
    "parse_structure",
    "serialize_structure",
    "load_structure",
    "gallery",
    "gallery_names",
]


class StructureError(ValueError):
    """Structure-file failure, annotated with the offending line number."""

    def __init__(self, message: str, line: Optional[int] = None):
        if line is not None:
            message = f"line {line}: {message}"
        super().__init__(message)
        self.line = line


@dataclass(frozen=True)
class StructureFile:
    """A chart, an almost-complex-structure field, and an optional metric."""

    chart: ChartSpec
    j_field: MatrixField
    metric: Optional[MetricField]  # None means Euclidean
    name: str = ""
    description: str = ""


def _split_sections(text: str) -> dict[str, list[tuple[int, str]]]:
    """Section name -> its non-blank lines, comments stripped, as (lineno, text)."""
    sections: dict[str, list[tuple[int, str]]] = {}
    current: Optional[str] = None
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if line.startswith("[") and line.endswith("]"):
            current = line[1:-1].strip()
            if current not in ("chart", "J", "metric"):
                raise StructureError(f"unknown section [{current}]", lineno)
            if current in sections:
                raise StructureError(f"duplicate section [{current}]", lineno)
            sections[current] = []
            continue
        if current is None:
            raise StructureError("content before any section header", lineno)
        sections[current].append((lineno, line))
    return sections


def _parse_kv(line: str, lineno: int, seen: dict) -> tuple[str, str]:
    """'key = value'; a key already in `seen` is refused, a new one maps to its line."""
    if "=" not in line:
        raise StructureError("expected 'key = value' or an entry line", lineno)
    key, value = (part.strip() for part in line.split("=", 1))
    if key in seen:
        raise StructureError(f"repeated key {key!r}", lineno)
    seen[key] = lineno
    return key, value


def _parse_entry_expr(text: str, lineno: int, chart: ChartSpec) -> expr.ExprNode:
    try:
        node = expr.parse_expr(text)
    except expr.ExprError as exc:
        raise StructureError(f"bad expression: {exc}", lineno) from exc
    unknown = expr.free_variables(node) - set(chart.var_names)
    if unknown:
        raise StructureError(
            f"unknown variable {sorted(unknown)[0]!r}", lineno
        )
    return node


# [J] kind -> its field class and the name of that class's expression table
_KINDS = {
    "explicit": (ExplicitField, "entries"),
    "conjugation": (ConjugationField, "frame"),
    "pullback": (PullbackField, "components"),
}


def _default_entry(kind: str, chart: ChartSpec, index: tuple[int, ...]) -> expr.ExprNode:
    """The entry a file leaves out, for a [J] kind or for "metric": a pullback
    component is its own coordinate; a frame or metric diagonal is 1; the
    rest is 0."""
    if kind == "pullback":
        return expr.Var(chart.var_names[index[0]])
    return expr.Const(1.0 if kind in ("conjugation", "metric") and index[0] == index[1] else 0.0)


def _indices(kind: str, n: int) -> list[tuple[int, ...]]:
    """A table's indices in file order: one per component for a pullback,
    (row, col) otherwise."""
    return list(itertools.product(range(n), repeat=1 if kind == "pullback" else 2))


def _parse_table(kind: str, lines, chart: ChartSpec):
    """The expression table of `kind` from its '<i> [<j>] = expr' lines, with
    defaults where a line is missing; metric entries are mirrored."""
    indices = _indices(kind, chart.n)
    arity = len(indices[0])
    entries: dict[tuple[int, ...], tuple[int, expr.ExprNode]] = {}
    for lineno, line in lines:
        head, _, rhs = line.partition("=")
        idx_text = head.split()
        if not rhs or len(idx_text) != arity or not all(t.isdigit() for t in idx_text):
            form = "<i>" if arity == 1 else "<row> <col>"
            raise StructureError(f"expected '{form} = <expression>'", lineno)
        idx = tuple(int(t) for t in idx_text)
        if any(not 1 <= v <= chart.n for v in idx):
            raise StructureError(f"index out of range 1..{chart.n}: {' '.join(idx_text)}", lineno)
        key = tuple(v - 1 for v in idx)
        if key in entries:
            raise StructureError(f"duplicate entry {' '.join(idx_text)}", lineno)
        entries[key] = (lineno, _parse_entry_expr(rhs.strip(), lineno, chart))
    if kind == "metric":
        for (i, j), (lineno, node) in list(entries.items()):
            twin = entries.setdefault((j, i), (lineno, node))
            if i > j and twin[1] != node:
                raise StructureError(f"asymmetric metric entries for ({j + 1},{i + 1})", lineno)
    nodes = [entries[k][1] if k in entries else _default_entry(kind, chart, k) for k in indices]
    if kind == "pullback":
        return tuple(nodes)
    return tuple(tuple(nodes[i : i + chart.n]) for i in range(0, len(nodes), chart.n))


def _entry_lines(kind: str, chart: ChartSpec, table) -> list[str]:
    """'<i> [<j>] = expr' for each entry that is not its default; the metric
    writes its upper triangle only."""
    lines = []
    for k in _indices(kind, chart.n):
        node = table[k[0]] if len(k) == 1 else table[k[0]][k[1]]
        if node != _default_entry(kind, chart, k) and not (kind == "metric" and k[0] > k[1]):
            lines.append(" ".join(str(v + 1) for v in k) + f" = {expr.to_source(node)}")
    return lines


def parse_structure(text: str, default_name: str = "") -> StructureFile:
    sections = _split_sections(text)
    if "chart" not in sections:
        raise StructureError("missing [chart] section")
    if "J" not in sections:
        raise StructureError("missing [J] section")

    dim: Optional[int] = None
    var_names: Optional[tuple[str, ...]] = None
    name = default_name
    description = ""
    seen: dict = {}
    for lineno, line in sections["chart"]:
        key, value = _parse_kv(line, lineno, seen)
        if key == "dim":
            try:
                dim = int(value)
            except ValueError:
                raise StructureError(f"bad dimension {value!r}", lineno) from None
        elif key == "vars":
            var_names = tuple(v.strip() for v in value.split(","))
        elif key == "name":
            name = value
        elif key == "description":
            description = value
        else:
            raise StructureError(f"unknown chart key {key!r}", lineno)
    if dim is None:
        raise StructureError("chart section must set 'dim'")
    try:
        chart = ChartSpec.default(dim) if var_names is None else ChartSpec(dim, var_names)
    except ValueError as exc:  # a chart rule: cite vars, or dim without vars
        raise StructureError(str(exc), seen.get("vars", seen["dim"])) from exc

    kind = "explicit"
    j_entry_lines = []
    seen = {}
    for lineno, line in sections["J"]:
        if line.split("=", 1)[0].strip() != "kind":
            j_entry_lines.append((lineno, line))
            continue
        kind = _parse_kv(line, lineno, seen)[1]
        if kind not in _KINDS:
            raise StructureError(f"unknown J kind {kind!r}", lineno)
    j_field = _KINDS[kind][0](_parse_table(kind, j_entry_lines, chart))
    metric = MetricField(_parse_table("metric", sections["metric"], chart)) if "metric" in sections else None
    return StructureFile(chart, j_field, metric, name=name, description=description)


def serialize_structure(sf: StructureFile) -> str:
    """Canonical text form; parsing it back reproduces identical fields."""
    lines = ["[chart]", f"dim = {sf.chart.n}", "vars = " + ", ".join(sf.chart.var_names)]
    if sf.name:
        lines.append(f"name = {sf.name}")
    if sf.description:
        lines.append(f"description = {sf.description}")
    kind = next((k for k, (cls, _) in _KINDS.items() if isinstance(sf.j_field, cls)), None)
    if kind is None:
        raise StructureError(f"cannot serialise a J field of type {type(sf.j_field).__name__}")
    lines += ["", "[J]", f"kind = {kind}"]
    lines += _entry_lines(kind, sf.chart, getattr(sf.j_field, _KINDS[kind][1]))
    if sf.metric is not None:
        lines += ["", "[metric]"] + _entry_lines("metric", sf.chart, sf.metric.entries)
    return "\n".join(lines) + "\n"


def load_structure(path) -> StructureFile:
    """Load and fully validate a structure file."""
    p = Path(path)
    return parse_structure(p.read_text(encoding="utf-8"), default_name=p.stem)


# Built-in structures: description, and the structure-file text below the
# [chart] header (standard2n is written out per dimension by `gallery`).
_GALLERY = {
    "standard2n:<n>": ("constant block structure in dimension n; integrable", None),
    "expblock4": (
        "exponentially warped second block; non-integrable",
        "[J]\n1 2 = -1\n2 1 = 1\n3 4 = -exp(x1)\n4 3 = exp(-x1)\n",
    ),
    "shear4": ("conjugation by a coordinate shear; non-integrable", "[J]\nkind = conjugation\n1 3 = x1\n"),
    "pullback4": (
        "pullback of the constant structure; integrable",
        "[J]\nkind = pullback\n2 = x2 + x1^2\n4 = x4 + x1*x3\n",
    ),
}


def gallery_names() -> tuple[str, ...]:
    return tuple(_GALLERY)


def gallery_description(name: str) -> str:
    return _GALLERY[name][0]


def gallery(name: str) -> StructureFile:
    """Built-in example structures by name (see :func:`gallery_names`)."""
    n = 4
    if name.startswith("standard2n:"):
        try:
            n = int(name.split(":", 1)[1])
        except ValueError:
            raise StructureError(f"bad gallery dimension in {name!r}") from None
        try:
            j0 = standard_block(ChartSpec.default(n).n)
        except ValueError as exc:
            raise StructureError(str(exc)) from None
        description = "constant block structure; integrable"
        body = "[J]\n" + "".join(f"{i + 1} {j + 1} = {j0[i, j]:g}\n" for i, j in zip(*j0.nonzero()))
    elif _GALLERY.get(name, (None, None))[1]:
        description, body = _GALLERY[name]
    else:
        raise StructureError(f"unknown gallery structure {name!r}")
    header = f"[chart]\ndim = {n}\nname = {name}\ndescription = {description}\n"
    return parse_structure(header + body)
