"""Expression language for structure-file entries.

Precedence, loosest first: ``+ -``; ``* /``; unary ``-``; ``^`` (right
associative); atoms.  Atoms are decimal numbers with an optional exponent
part, variables, the constants ``pi`` and ``e``, function calls, and
parenthesised expressions.  Functions: sin, cos, exp, log, sqrt, tanh.

An AST is a nested tuple: ``("const", value)``, ``("var", name)``, or
``(op, *operands)`` with `op` a :func:`jets.jet_apply` operation name
(``neg``, ``add``, ``sub``, ``mul``, ``div``, ``pow`` or a function name).
ASTs are immutable and compare structurally; ``to_source`` renders an AST
back to text that re-parses to an identical tree.
"""

from __future__ import annotations

import math
import re

import numpy as np

from . import jets

__all__ = [
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
    "partial_variables",
    "bind_and_eval",
    "eval_table",
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


ExprNode = tuple  # ("const", value), ("var", name) or (op, *operands)


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
        h = height[id(node)] = 1 + max(height.get(id(child), 0) for child in node[1:])
        if h > 4 * _MAX_DEPTH:  # refused at the token after the node
            raise ExprSyntaxError("expression nested too deeply", tokens[k][1])
        return node

    def sum_(depth: int) -> ExprNode:
        node = product(depth)
        while op := take("+", "-"):
            node = level((_BINARY[op], node, product(depth)))
        return node

    def product(depth: int) -> ExprNode:
        node = unary(depth)
        while op := take("*", "/"):
            node = level((_BINARY[op], node, unary(depth)))
        return node

    def unary(depth: int) -> ExprNode:
        if depth > _MAX_DEPTH:  # refused at the token that opened this level
            raise ExprSyntaxError("expression nested too deeply", tokens[k - 1][1])
        if take("-"):
            return level(("neg", unary(depth + 1)))
        base = atom(depth)
        # the exponent goes through unary(), making ^ right associative and
        # letting x^-2 parse without parentheses
        return level(("pow", base, unary(depth + 1))) if take("^") else base

    def atom(depth: int) -> ExprNode:
        nonlocal k
        tok, pos = tokens[k]
        if take("("):
            return closed(sum_(depth + 1))
        if tok[:1].isalpha():  # a name: a variable, a constant or a call
            k += 1
            if not take("("):
                return ("const", CONSTANTS[tok]) if tok in CONSTANTS else ("var", tok)
            if tok not in FUNCTIONS:
                raise ExprNameError(f"unknown function {tok!r} (offset {pos})")
            return level((tok, closed(sum_(depth + 1))))
        if not tok or tok in _OPERATORS:
            raise expected("a number, name, unary minus or '('")
        k += 1  # what is left is a number
        return ("const", float(tok))

    def closed(node: ExprNode) -> ExprNode:
        if not take(")"):
            raise expected("')'")
        return node

    node = sum_(0)
    if tokens[k][0]:
        raise expected("an operator or end of input")
    return node


_INFIX = {"add": (" + ", 1), "sub": (" - ", 1), "mul": ("*", 2), "div": ("/", 2)}  # symbol, precedence


def to_source(node: ExprNode) -> str:
    """Render an AST to text that re-parses to a structurally identical AST."""
    return _render(node, 0)


def _render(node: ExprNode, context: int) -> str:
    op = node[0]
    if op == "const":
        s, prec = repr(float(node[1])), 5
    elif op == "var":
        s, prec = node[1], 5
    elif op == "neg":
        s, prec = "-" + _render(node[1], 3), 3
    elif op == "pow":
        s, prec = _render(node[1], 5) + "^" + _render(node[2], 3), 4
    elif op in _INFIX:
        sym, prec = _INFIX[op]
        s = _render(node[1], prec) + sym + _render(node[2], prec + 1)
    else:  # a function call
        s, prec = f"{op}({_render(node[1], 0)})", 5
    if prec < context:
        s = "(" + s + ")"
    return s


def free_variables(node: ExprNode) -> set[str]:
    if node[0] == "var":
        return {node[1]}
    if node[0] == "const":
        return set()
    return set().union(*map(free_variables, node[1:]))  # map, unlike a comprehension, adds no frame


def partial_variables(node: ExprNode) -> set[str]:
    """The variables whose values the partials and Hessians of `node`'s jet
    read: none for a constant or a variable, its operands' for ``neg``,
    ``add``, ``sub`` and a product or quotient by a subtree without
    variables (:mod:`jets` puts no value into a derivative there), and every
    free variable of any other subtree."""
    op = node[0]
    if op in ("const", "var"):
        return set()
    if op in ("neg", "add", "sub"):
        return set().union(*map(partial_variables, node[1:]))
    if op in ("mul", "div") and not free_variables(node[2]):
        return partial_variables(node[1])
    if op == "mul" and not free_variables(node[1]):
        return partial_variables(node[2])
    return free_variables(node)


def bind_and_eval(node: ExprNode, chart, point, order: int = 1) -> jets.Jet:
    """The jet of one AST: :func:`eval_table` of a one-entry table."""
    v, p, h = eval_table(((node,),), chart, point, order)
    v, h = v[..., 0, 0], None if h is None else h[..., 0, 0, :, :]
    return jets.Jet(v if v.ndim else float(v), p[..., 0, 0], h)


@np.errstate(all="ignore")  # overflow shows as a domain error or a non-finite entry
def eval_table(rows, chart, point, order: int = 1, upper: bool = False):
    """Values ``(..., r, c)``, partials ``(..., n, r, c)`` and, at order 2,
    Hessians ``(..., r, c, n, n)`` of a table of ASTs at points ``(..., n)``
    in the order of `chart` (a ChartSpec or names), each variable seeded
    once; `upper` copies entries below the diagonal from their mirror images."""
    names = list(getattr(chart, "var_names", chart))
    pts, n = np.asarray(point, dtype=float), len(names)
    if pts.shape[-1:] != (n,):
        raise ValueError(f"point has {(pts.shape or (0,))[-1]} coordinates, chart has {n}")
    if order not in (1, 2):
        raise ValueError("order must be 1 or 2")
    index, seeds = {name: i for i, name in enumerate(names)}, {}
    batch, r, c = pts.shape[:-1], len(rows), len(rows[0])
    values, partials = np.zeros(batch + (r, c)), np.zeros(batch + (n, r, c))
    hessians = np.zeros(batch + (r, c, n, n)) if order == 2 else None
    for i in range(r):
        for j in range(i if upper else 0, c):
            jet = _eval(rows[i][j], index, pts, order, seeds)
            if not isinstance(jet, jets.Jet):  # a float: zero derivatives
                jet = jets.Jet(jet, 0.0, 0.0)
            for ij in {(i, j), (j, i)} if upper else ((i, j),):
                values[(..., *ij)] = jet.value
                partials[(..., slice(None), *ij)] = jet.grad
            if hessians is not None:
                hessians[..., i, j, :, :] = jet.hess
    return values, partials, hessians


def _eval(node: ExprNode, index: dict, pts: np.ndarray, order: int, seeds: dict):
    """A jet, or a float where the subtree holds no variable."""
    op = node[0]
    if op == "const":
        return node[1]
    if op == "var":
        i = index.get(node[1])
        if i is None:
            raise ExprNameError(f"unbound variable {node[1]!r}")
        if i not in seeds:
            seeds[i] = jets.seed_variable(i, pts[..., i], pts.shape[-1], order)
        return seeds[i]
    values = []
    for child in node[1:]:  # a loop, not a comprehension: one frame per tree level
        values.append(_eval(child, index, pts, order, seeds))
    try:
        return jets.jet_apply(op, values)
    except jets.JetDomainError as exc:
        raise ExprDomainError(f"{exc} in {to_source(node)!r}") from exc
