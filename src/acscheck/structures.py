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

Entry defaults by kind: explicit J entries default to 0; a conjugation
section defines the frame A with diagonal defaulting to 1 (the structure is
A J0 A^-1 with J0 the standard block); a pullback section uses single-index
lines ``<i> = <expression>`` for the map components, each defaulting to its
own coordinate (the structure is (Dphi)^-1 J0 Dphi).
"""

from __future__ import annotations

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


def _split_sections(text: str):
    """Yield (section, key_lines, entry_lines) with line numbers attached."""
    sections: dict[str, list[tuple[int, str]]] = {}
    order: list[str] = []
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
            order.append(current)
            continue
        if current is None:
            raise StructureError("content before any section header", lineno)
        sections[current].append((lineno, line))
    return sections


def _parse_kv(line: str, lineno: int) -> tuple[str, str]:
    if "=" not in line:
        raise StructureError("expected 'key = value' or an entry line", lineno)
    key, value = line.split("=", 1)
    return key.strip(), value.strip()


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


def _parse_indexed_entries(lines, chart, n_indices: int):
    """Parse '<i> [<j>] = expr' lines into {(i, j) or (i,): (lineno, ast)}."""
    out: dict[tuple[int, ...], tuple[int, expr.ExprNode]] = {}
    for lineno, line in lines:
        head, _, rhs = line.partition("=")
        idx_text = head.split()
        if not rhs or len(idx_text) != n_indices or not all(
            t.isdigit() for t in idx_text
        ):
            raise StructureError(
                "expected '<index>' * %d '= <expression>'" % n_indices, lineno
            )
        idx = tuple(int(t) for t in idx_text)
        if any(not 1 <= v <= chart.n for v in idx):
            raise StructureError(
                f"index out of range 1..{chart.n}: {' '.join(idx_text)}", lineno
            )
        key = tuple(v - 1 for v in idx)
        if key in out:
            raise StructureError(f"duplicate entry {' '.join(idx_text)}", lineno)
        out[key] = (lineno, _parse_entry_expr(rhs.strip(), lineno, chart))
    return out


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
    for lineno, line in sections["chart"]:
        key, value = _parse_kv(line, lineno)
        if key == "dim":
            try:
                dim = int(value)
            except ValueError:
                raise StructureError(f"bad dimension {value!r}", lineno) from None
            if dim <= 0 or dim % 2:
                raise StructureError("dimension must be even and positive", lineno)
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
    if var_names is None:
        var_names = tuple(f"x{i + 1}" for i in range(dim))
    try:
        chart = ChartSpec(dim, var_names)
    except ValueError as exc:
        raise StructureError(str(exc)) from exc

    kind = "explicit"
    j_entry_lines = []
    for lineno, line in sections["J"]:
        head = line.split("=", 1)[0].strip()
        if head == "kind":
            _, value = _parse_kv(line, lineno)
            if value not in ("explicit", "conjugation", "pullback"):
                raise StructureError(f"unknown J kind {value!r}", lineno)
            kind = value
        else:
            j_entry_lines.append((lineno, line))

    j_field: MatrixField
    if kind == "pullback":
        entries = _parse_indexed_entries(j_entry_lines, chart, n_indices=1)
        components = tuple(
            entries[(i,)][1] if (i,) in entries else expr.Var(chart.var_names[i])
            for i in range(chart.n)
        )
        j_field = PullbackField(components, standard_block(chart.n))
    else:
        entries = _parse_indexed_entries(j_entry_lines, chart, n_indices=2)
        default_diag = 1.0 if kind == "conjugation" else 0.0
        rows = tuple(
            tuple(
                entries[(i, j)][1]
                if (i, j) in entries
                else expr.Const(default_diag if i == j else 0.0)
                for j in range(chart.n)
            )
            for i in range(chart.n)
        )
        if kind == "conjugation":
            j_field = ConjugationField(rows, standard_block(chart.n))
        else:
            j_field = ExplicitField(rows)

    metric: Optional[MetricField] = None
    if "metric" in sections:
        entries = _parse_indexed_entries(sections["metric"], chart, n_indices=2)
        for (i, j), (lineno, node) in entries.items():
            if i > j and (j, i) in entries and entries[(j, i)][1] != node:
                raise StructureError(
                    f"asymmetric metric entries for ({j + 1},{i + 1})", lineno
                )
        rows = tuple(
            tuple(
                entries.get((i, j), entries.get((j, i), (0, None)))[1]
                or expr.Const(1.0 if i == j else 0.0)
                for j in range(chart.n)
            )
            for i in range(chart.n)
        )
        metric = MetricField(rows)

    return StructureFile(chart, j_field, metric, name=name, description=description)


def _is_default_expr(node: expr.ExprNode, default: float) -> bool:
    return isinstance(node, expr.Const) and node.value == default


def serialize_structure(sf: StructureFile) -> str:
    """Canonical text form; parsing it back reproduces identical fields."""
    lines = ["[chart]", f"dim = {sf.chart.n}", "vars = " + ", ".join(sf.chart.var_names)]
    if sf.name:
        lines.append(f"name = {sf.name}")
    if sf.description:
        lines.append(f"description = {sf.description}")
    lines.append("")
    lines.append("[J]")
    if isinstance(sf.j_field, PullbackField):
        lines.append("kind = pullback")
        for i, comp in enumerate(sf.j_field.components):
            if comp != expr.Var(sf.chart.var_names[i]):
                lines.append(f"{i + 1} = {expr.to_source(comp)}")
    elif isinstance(sf.j_field, ConjugationField):
        lines.append("kind = conjugation")
        for i, row in enumerate(sf.j_field.frame):
            for j, node in enumerate(row):
                if not _is_default_expr(node, 1.0 if i == j else 0.0):
                    lines.append(f"{i + 1} {j + 1} = {expr.to_source(node)}")
    else:
        lines.append("kind = explicit")
        for i, row in enumerate(sf.j_field.entries):
            for j, node in enumerate(row):
                if not _is_default_expr(node, 0.0):
                    lines.append(f"{i + 1} {j + 1} = {expr.to_source(node)}")
    if sf.metric is not None:
        lines.append("")
        lines.append("[metric]")
        for i, row in enumerate(sf.metric.entries):
            for j, node in enumerate(row):
                if j >= i and not _is_default_expr(node, 1.0 if i == j else 0.0):
                    lines.append(f"{i + 1} {j + 1} = {expr.to_source(node)}")
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
        if n <= 0 or n % 2:
            raise StructureError("gallery standard2n needs a positive even dimension")
        description = "constant block structure; integrable"
        # the standard block: e_{2a} -> e_{2a+1} -> -e_{2a}
        body = "[J]\n" + "".join(
            f"{2 * a + 2} {2 * a + 1} = 1\n{2 * a + 1} {2 * a + 2} = -1\n" for a in range(n // 2)
        )
    elif _GALLERY.get(name, (None, None))[1]:
        description, body = _GALLERY[name]
    else:
        raise StructureError(f"unknown gallery structure {name!r}")
    header = f"[chart]\ndim = {n}\nname = {name}\ndescription = {description}\n"
    return parse_structure(header + body)
