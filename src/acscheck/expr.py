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


_NUMBER = re.compile(r"(?:\d+\.?\d*|\.\d+)(?:[eE][+-]?\d+)?")
_NAME = re.compile(r"[A-Za-z][A-Za-z0-9_]*")


class _Token(Record):
    kind: str  # "num" | "name" | "op" | "end"
    text: str
    pos: int


def _tokenize(text: str) -> list[_Token]:
    out = []
    i = 0
    while i < len(text):
        c = text[i]
        if c.isspace():
            i += 1
            continue
        m = _NUMBER.match(text, i)
        if m:
            out.append(_Token("num", m.group(), i))
            i = m.end()
            continue
        m = _NAME.match(text, i)
        if m:
            out.append(_Token("name", m.group(), i))
            i = m.end()
            continue
        if c in "+-*/^()":
            out.append(_Token("op", c, i))
            i += 1
            continue
        raise ExprSyntaxError(f"unexpected character {c!r}", i)
    out.append(_Token("end", "", len(text)))
    return out


class _Parser:
    def __init__(self, text: str):
        self.tokens = _tokenize(text)
        self.k = 0

    def peek(self) -> _Token:
        return self.tokens[self.k]

    def advance(self) -> _Token:
        tok = self.tokens[self.k]
        self.k += 1
        return tok

    def at_op(self, *ops: str) -> bool:
        tok = self.peek()
        return tok.kind == "op" and tok.text in ops

    def parse(self) -> ExprNode:
        node = self.sum_()
        tok = self.peek()
        if tok.kind != "end":
            raise ExprSyntaxError(
                f"expected an operator or end of input, found {tok.text!r}", tok.pos
            )
        return node

    def sum_(self) -> ExprNode:
        node = self.product()
        while self.at_op("+", "-"):
            op = self.advance().text
            node = Binary("add" if op == "+" else "sub", node, self.product())
        return node

    def product(self) -> ExprNode:
        node = self.unary()
        while self.at_op("*", "/"):
            op = self.advance().text
            node = Binary("mul" if op == "*" else "div", node, self.unary())
        return node

    def unary(self) -> ExprNode:
        if self.at_op("-"):
            self.advance()
            return Unary("neg", self.unary())
        return self.power()

    def power(self) -> ExprNode:
        base = self.atom()
        if self.at_op("^"):
            self.advance()
            # exponent goes through unary(), making ^ right associative and
            # letting x^-2 parse without parentheses
            return Binary("pow", base, self.unary())
        return base

    def atom(self) -> ExprNode:
        tok = self.peek()
        if tok.kind == "num":
            self.advance()
            return Const(float(tok.text))
        if tok.kind == "name":
            self.advance()
            if self.at_op("("):
                if tok.text not in FUNCTIONS:
                    raise ExprNameError(
                        f"unknown function {tok.text!r} (offset {tok.pos})"
                    )
                self.advance()
                arg = self.sum_()
                self.expect_close()
                return Call(tok.text, arg)
            if tok.text in CONSTANTS:
                return Const(CONSTANTS[tok.text])
            return Var(tok.text)
        if self.at_op("("):
            self.advance()
            node = self.sum_()
            self.expect_close()
            return node
        found = tok.text if tok.kind != "end" else "end of input"
        raise ExprSyntaxError(
            f"expected a number, name, unary minus or '(', found {found!r}", tok.pos
        )

    def expect_close(self) -> None:
        tok = self.peek()
        if not self.at_op(")"):
            found = tok.text if tok.kind != "end" else "end of input"
            raise ExprSyntaxError(f"expected ')', found {found!r}", tok.pos)
        self.advance()


def parse_expr(text: str) -> ExprNode:
    """Parse an expression; raises ExprSyntaxError/ExprNameError on bad input."""
    if not text.strip():
        raise ExprSyntaxError("empty expression", 0)
    return _Parser(text).parse()


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
