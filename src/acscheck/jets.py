"""Forward-mode jets over a batch of points ("vector forward mode",
Griewank & Walther, *Evaluating Derivatives*, 2nd ed., SIAM 2008).

A :class:`Jet` carries a value per point of a batch (a float for a single
point), gradients ``(..., n)`` and, at order 2, symmetric Hessians
``(..., n, n)`` (``None`` at order 1); constants are plain floats.  Every
entry has the bits a scalar evaluation at its own point gives: arithmetic is
elementwise IEEE, and library functions and powers are evaluated point by
point with :mod:`math` (numpy's vectorised ``exp``, ``log``, ``tanh`` and
``power`` round differently).  Overflow raises :class:`JetDomainError`.
"""

from __future__ import annotations

import math
from typing import Optional, Sequence, Union

import numpy as np

__all__ = [
    "Jet",
    "JetDomainError",
    "constant",
    "seed_variable",
    "jet_apply",
    "power",
    "sin",
    "cos",
    "exp",
    "log",
    "sqrt",
    "tanh",
]


class JetDomainError(ValueError):
    """An operation left its real domain (division by zero, log(-1), ...)."""


class Jet:
    """Values, gradients and optional Hessians over a batch of points; for a
    single point the value is a float.  Operations return new jets."""

    __slots__ = ("value", "grad", "hess")

    def __init__(self, value, grad: np.ndarray, hess: Optional[np.ndarray] = None):
        self.value, self.grad, self.hess = value, grad, hess

    def __neg__(self) -> "Jet":
        return Jet(-self.value, -self.grad, None if self.hess is None else -self.hess)

    def __add__(self, other) -> "Jet":
        if not isinstance(other, Jet):
            return Jet(self.value + _float(other), self.grad, self.hess)
        if (self.hess is None) != (other.hess is None):
            raise TypeError("cannot mix jets of different orders")
        hess = None if self.hess is None else self.hess + other.hess
        return Jet(self.value + other.value, self.grad + other.grad, hess)

    __radd__ = __add__

    def __sub__(self, other) -> "Jet":
        return self + (-other)  # x - y is x + (-y) in IEEE arithmetic, bit for bit

    def __rsub__(self, other) -> "Jet":
        return (-self) + other

    def __mul__(self, other) -> "Jet":
        if not isinstance(other, Jet):
            c = _float(other)
            return Jet(self.value * c, c * self.grad, None if self.hess is None else c * self.hess)
        if (self.hess is None) != (other.hess is None):
            raise TypeError("cannot mix jets of different orders")
        u, w = _along(self.value, 1), _along(other.value, 1)
        hess = None
        if self.hess is not None:
            # outer(p, q) + outer(q, p) keeps the Hessian exactly symmetric
            hess = (
                _along(self.value, 2) * other.hess
                + _along(other.value, 2) * self.hess
                + _outer(self.grad, other.grad)
                + _outer(other.grad, self.grad)
            )
        return Jet(self.value * other.value, u * other.grad + w * self.grad, hess)

    __rmul__ = __mul__

    def __truediv__(self, other) -> "Jet":
        return self * _chain(other, _reciprocal)

    def __rtruediv__(self, other) -> "Jet":
        return _chain(self, _reciprocal) * _float(other)

    def __pow__(self, other) -> "Jet":
        return power(self, other)


Operand = Union[Jet, float]


def _float(x) -> float:
    if isinstance(x, (int, float)):
        return float(x)
    raise TypeError(f"cannot use {type(x).__name__} as a jet operand")


def _along(x, axes: int):
    """Per-point scalars `x` broadcast against `axes` derivative axes."""
    return x[(...,) + (None,) * axes] if isinstance(x, np.ndarray) else x


def _outer(p: np.ndarray, q: np.ndarray) -> np.ndarray:
    return p[..., :, None] * q[..., None, :]


def constant(value, n: int, order: int = 1) -> Jet:
    """Jet of a constant (a float, or an array of per-point values): zero
    gradient, and zero Hessian at order 2."""
    if order not in (1, 2):
        raise ValueError("order must be 1 or 2")
    value = np.array(value, dtype=float)
    grad = np.zeros(value.shape + (n,))
    hess = np.zeros(grad.shape + (n,)) if order == 2 else None
    return Jet(value if value.ndim else float(value), grad, hess)  # a float for one point


def seed_variable(index: int, value, n: int, order: int = 1) -> Jet:
    """Jet of the coordinate variable `index` at the given value(s)."""
    if not 0 <= index < n:
        raise ValueError(f"coordinate index {index} out of range for dimension {n}")
    jet = constant(value, n, order)
    jet.grad[..., index] = 1.0
    return jet


def _chain(u: Operand, kernel) -> Operand:
    """A smooth unary function of `u`: `kernel(v)` returns its value and
    first two derivatives at one point, in float arithmetic."""
    shape = np.shape(u.value) if isinstance(u, Jet) else ()
    values = np.ravel(u.value).tolist() if isinstance(u, Jet) else [u]
    try:
        rows = list(map(kernel, values))
    except (OverflowError, ZeroDivisionError):  # float arithmetic's overflow
        raise JetDomainError(f"{kernel.__name__[1:]} overflow") from None
    if not isinstance(u, Jet):
        return rows[0][0]
    f, df, d2f = np.array(rows).T.reshape((3,) + shape) if shape else rows[0]
    hess = None
    if u.hess is not None:
        if not np.isfinite(d2f).all():
            raise JetDomainError(f"{kernel.__name__[1:]} overflow")
        hess = _along(df, 2) * u.hess + _along(d2f, 2) * _outer(u.grad, u.grad)
    return Jet(f, _along(df, 1) * u.grad, hess)


def _over(a: float, b: float) -> float:
    """a / b for a second derivative, infinite where b underflowed to 0: only
    order-2 jets use it, and `_chain` refuses it there."""
    return a / b if b else math.copysign(math.inf, a) * math.copysign(1.0, b)


def _reciprocal(v):
    if v == 0.0:
        raise JetDomainError("division by zero")
    return 1.0 / v, -1.0 / (v * v), _over(2.0, v * v * v)


def _power_kernel(k: float):
    """The kernel of ``v ** k`` for one exponent `k`: the exponent is
    classified once, and each point makes the same ``**`` calls (``v ** 2``
    is not always ``v * v``: C ``pow`` is not always correctly rounded).
    Each kernel is named ``_power``, as `_chain` names its overflow error
    after the kernel."""
    if not (math.isfinite(k) and k == round(k)):
        def kernel(v):
            if v <= 0.0:
                raise JetDomainError("non-integer exponent requires positive base")
            return v**k, k * v ** (k - 1.0), k * (k - 1.0) * v ** (k - 2.0)
    elif (ki := int(round(k))) == 0:
        def kernel(v):
            return 1.0, 0.0, 0.0
    elif ki == 1:
        def kernel(v):
            return v, 1.0, 0.0
    else:
        zero = 0.0, 0.0, 2.0 if ki == 2 else 0.0  # the second derivative survives at ki == 2
        def kernel(v):
            if v == 0.0:
                if ki < 0:
                    raise JetDomainError("zero base with negative exponent")
                return zero
            return v**ki, ki * v ** (ki - 1), ki * (ki - 1) * v ** (ki - 2)
    kernel.__name__ = "_power"
    return kernel


def power(base: Operand, exponent: Operand) -> Operand:
    """base ** exponent.

    A float exponent works on any base if it is an integer, and needs a
    strictly positive base otherwise.  A jet exponent, whatever its
    derivatives, is exp(exponent * log(base)) and needs base > 0 at every
    point: pass a float for a constant exponent.
    """
    if not isinstance(exponent, Jet):
        return _chain(base, _power_kernel(_float(exponent)))
    if np.any((base.value if isinstance(base, Jet) else _float(base)) <= 0.0):
        raise JetDomainError("variable exponent requires positive base")
    return exp(exponent * log(base))


def _sin(v):
    s, c = math.sin(v), math.cos(v)
    return s, c, -s


def _cos(v):
    s, c = math.sin(v), math.cos(v)
    return c, -s, -c


def _exp(v):
    f = math.exp(v)
    return f, f, f


def _log(v):
    if v <= 0.0:
        raise JetDomainError("log of non-positive value")
    return math.log(v), 1.0 / v, _over(-1.0, v * v)


def _sqrt(v):
    if v <= 0.0:
        raise JetDomainError("sqrt of non-positive value")
    s = math.sqrt(v)
    return s, 0.5 / s, _over(-0.25, s * v)


def _tanh(v):
    t = math.tanh(v)
    sech2 = 1.0 - t * t
    return t, sech2, -2.0 * t * sech2


def _unary(kernel):
    def apply(u: Operand) -> Operand:
        return _chain(u, kernel)

    apply.__name__ = apply.__qualname__ = kernel.__name__[1:]
    apply.__doc__ = f"{apply.__name__} of a jet, or of a float."
    return apply


sin, cos, exp, log, sqrt, tanh = map(_unary, (_sin, _cos, _exp, _log, _sqrt, _tanh))

_UNARY = {"neg": lambda u: -u, **{f.__name__: f for f in (sin, cos, exp, log, sqrt, tanh)}}

_BINARY = {
    "add": lambda a, b: a + b,
    "sub": lambda a, b: a - b,
    "mul": lambda a, b: a * b,
    "div": lambda a, b: a * _chain(b, _reciprocal),
    "pow": power,
}


def jet_apply(op: str, args: Sequence[Operand]) -> Operand:
    """Apply a named operation to jets or floats, checking arity."""
    if op in _UNARY:
        if len(args) != 1:
            raise ValueError(f"{op} expects 1 argument, got {len(args)}")
        return _UNARY[op](args[0])
    if op in _BINARY:
        if len(args) != 2:
            raise ValueError(f"{op} expects 2 arguments, got {len(args)}")
        return _BINARY[op](args[0], args[1])
    raise ValueError(f"unknown jet operation {op!r}")
