"""Expression language for structure-file entries.

Precedence, loosest first: ``+ -``; ``* /``; unary ``-``; ``^`` (right
associative); atoms.  Atoms are decimal numbers with an optional exponent
part, variables, the constants ``pi`` and ``e``, function calls, and
parenthesised expressions.  Functions: sin, cos, exp, log, sqrt, tanh.

ASTs are immutable and compare structurally; ``to_source`` renders an AST
back to text that re-parses to an identical tree.
"""

from __future__ import annotations

import math
import re
from typing import Union

import numpy as np

from . import jets
from ._record import Record

__all__ = [
    "Const",
    "Var",
    "Unary",
    "Binary",
    "Call",
    "ExprNode",
    "ExprError",
    "ExprSyntaxError",
    "ExprNameError",
    "ExprDomainError",
    "FUNCTIONS",
    "CONSTANTS",
    "parse_expr",
    "to_source",
    "free_variables",
    "bind_and_eval",
]

FUNCTIONS = ("sin", "cos", "exp", "log", "sqrt", "tanh")
CONSTANTS = {"pi": math.pi, "e": math.e}


class ExprError(ValueError):
    """Base class for expression-language failures."""


class ExprSyntaxError(ExprError):
    """Malformed input; carries the byte offset of the offending token."""

    def __init__(self, message: str, offset: int):
        super().__init__(f"{message} (offset {offset})")
        self.offset = offset


class ExprNameError(ExprError):
    """Unknown function at parse time, or unbound variable at bind time."""


class ExprDomainError(ExprError):
    """Numeric domain failure, annotated with the offending subexpression."""


class Const(Record):
    value: float


class Var(Record):
    name: str


class Unary(Record):
    op: str  # "neg"
    operand: "ExprNode"


class Binary(Record):
    op: str  # "add" | "sub" | "mul" | "div" | "pow"
    left: "ExprNode"
    right: "ExprNode"


class Call(Record):
    func: str
    arg: "ExprNode"


ExprNode = Union[Const, Var, Unary, Binary, Call]


# Optional whitespace, then one token: a number, a name or an operator.  Any
# other character falls to the last group and is refused at its own offset.
_TOKEN = re.compile(
    r"\s*(?:((?:\d+\.?\d*|\.\d+)(?:[eE][+-]?\d+)?|[A-Za-z][A-Za-z0-9_]*|[-+*/^()])|(\S))"
)
_OPERATORS = ("+", "-", "*", "/", "^", "(", ")")
_BINARY = {"+": "add", "-": "sub", "*": "mul", "/": "div"}
# Python stops at 1,000 frames; kept to 4 * _MAX_DEPTH: the parser takes up to four per
# parenthesis, call, unary minus or power around a token (its `depth`), a walker one per tree level.
_MAX_DEPTH = 200


def parse_expr(text: str) -> ExprNode:
    """Parse an expression; raises ExprSyntaxError/ExprNameError on bad input."""
    if not text.strip():
        raise ExprSyntaxError("empty expression", 0)
    tokens = []  # (text, offset) pairs, every one read before the grammar runs
    for m in _TOKEN.finditer(text):
        if m[2]:
            raise ExprSyntaxError(f"unexpected character {m[2]!r}", m.start(2))
        tokens.append((m[1], m.start(1)))
    tokens.append(("", len(text)))  # the end of input
    k = 0
    height = {}  # id of each operator node built -> levels of its tree; a leaf has none

    def take(*ops: str) -> str:
        """Consume and return the next token if it is one of `ops`, else ""."""
        nonlocal k
        if tokens[k][0] in ops:
            k += 1
            return tokens[k - 1][0]
        return ""

    def expected(what: str) -> ExprSyntaxError:
        tok, pos = tokens[k]
        return ExprSyntaxError(f"expected {what}, found {tok or 'end of input'!r}", pos)

    def level(node: ExprNode) -> ExprNode:
        h = height[id(node)] = 1 + max(height.get(id(getattr(node, f)), 0) for f in node._fields[1:])
        if h > 4 * _MAX_DEPTH:  # refused at the token after the node
            raise ExprSyntaxError("expression nested too deeply", tokens[k][1])
        return node

    def sum_(depth: int) -> ExprNode:
        node = product(depth)
        while op := take("+", "-"):
            node = level(Binary(_BINARY[op], node, product(depth)))
        return node

    def product(depth: int) -> ExprNode:
        node = unary(depth)
        while op := take("*", "/"):
            node = level(Binary(_BINARY[op], node, unary(depth)))
        return node

    def unary(depth: int) -> ExprNode:
        if depth > _MAX_DEPTH:  # refused at the token that opened this level
            raise ExprSyntaxError("expression nested too deeply", tokens[k - 1][1])
        if take("-"):
            return level(Unary("neg", unary(depth + 1)))
        base = atom(depth)
        # the exponent goes through unary(), making ^ right associative and
        # letting x^-2 parse without parentheses
        return level(Binary("pow", base, unary(depth + 1))) if take("^") else base

    def atom(depth: int) -> ExprNode:
        nonlocal k
        tok, pos = tokens[k]
        if take("("):
            return closed(sum_(depth + 1))
        if tok[:1].isalpha():  # a name: a variable, a constant or a call
            k += 1
            if not take("("):
                return Const(CONSTANTS[tok]) if tok in CONSTANTS else Var(tok)
            if tok not in FUNCTIONS:
                raise ExprNameError(f"unknown function {tok!r} (offset {pos})")
            return level(Call(tok, closed(sum_(depth + 1))))
        if not tok or tok in _OPERATORS:
            raise expected("a number, name, unary minus or '('")
        k += 1  # what is left is a number
        return Const(float(tok))

    def closed(node: ExprNode) -> ExprNode:
        if not take(")"):
            raise expected("')'")
        return node

    node = sum_(0)
    if tokens[k][0]:
        raise expected("an operator or end of input")
    return node


_PREC = {"add": 1, "sub": 1, "mul": 2, "div": 2, "neg": 3, "pow": 4}
_SYM = {"add": " + ", "sub": " - ", "mul": "*", "div": "/"}


def to_source(node: ExprNode) -> str:
    """Render an AST to text that re-parses to a structurally identical AST."""
    return _render(node, 0)


def _render(node: ExprNode, context: int) -> str:
    if isinstance(node, Const):
        s, prec = repr(float(node.value)), 5
    elif isinstance(node, Var):
        s, prec = node.name, 5
    elif isinstance(node, Call):
        s, prec = f"{node.func}({_render(node.arg, 0)})", 5
    elif isinstance(node, Unary):
        s, prec = "-" + _render(node.operand, 3), 3
    elif isinstance(node, Binary):
        prec = _PREC[node.op]
        if node.op == "pow":
            s = _render(node.left, 5) + "^" + _render(node.right, 3)
        else:
            s = _render(node.left, prec) + _SYM[node.op] + _render(node.right, prec + 1)
    else:
        raise TypeError(f"not an expression node: {node!r}")
    if prec < context:
        s = "(" + s + ")"
    return s


def free_variables(node: ExprNode) -> set[str]:
    if isinstance(node, Var):
        return {node.name}
    if isinstance(node, Unary):
        return free_variables(node.operand)
    if isinstance(node, Binary):
        return free_variables(node.left) | free_variables(node.right)
    if isinstance(node, Call):
        return free_variables(node.arg)
    return set()


@np.errstate(all="ignore")  # overflow shows as a domain error or a non-finite entry
def bind_and_eval(node: ExprNode, chart, point, order: int = 1) -> jets.Jet:
    """Evaluate an AST as a jet at `point`, one coordinate vector, or at a
    batch of them (shape ``(..., n)``), walking the AST once.

    `chart` is either a ChartSpec or a plain sequence of variable names; the
    coordinate order of `point` follows it.
    """
    names = list(getattr(chart, "var_names", chart))
    pts = np.asarray(point, dtype=float)
    if pts.shape[-1:] != (len(names),):
        raise ValueError(f"point has {pts.shape[-1]} coordinates, chart has {len(names)}")
    index = {name: i for i, name in enumerate(names)}
    out = _eval(node, index, pts, order, {})
    if isinstance(out, jets.Jet):
        return out
    return jets.constant(np.full(pts.shape[:-1], out), len(names), order)


def _eval(node: ExprNode, index: dict, pts: np.ndarray, order: int, seeds: dict):
    """A jet, or a float where the subtree holds no variable."""
    if isinstance(node, Const):
        return node.value
    if isinstance(node, Var):
        i = index.get(node.name)
        if i is None:
            raise ExprNameError(f"unbound variable {node.name!r}")
        if i not in seeds:
            seeds[i] = jets.seed_variable(i, pts[..., i], pts.shape[-1], order)
        return seeds[i]
    if isinstance(node, Unary):
        return jets.jet_apply(node.op, [_eval(node.operand, index, pts, order, seeds)])
    if isinstance(node, Binary):
        op = node.op
        values = [_eval(node.left, index, pts, order, seeds), _eval(node.right, index, pts, order, seeds)]
    elif isinstance(node, Call):
        op, values = node.func, [_eval(node.arg, index, pts, order, seeds)]
    else:
        raise TypeError(f"not an expression node: {node!r}")
    try:
        return jets.jet_apply(op, values)
    except jets.JetDomainError as exc:
        raise ExprDomainError(f"{exc} in {to_source(node)!r}") from exc
