"""numpy's PCG64 streams of ``default_rng(entropy)``, for many entropies at
once (README, "How points are evaluated")."""

from __future__ import annotations

import numpy as np

_BLOCK = 1 << 12  # draws computed at once, over all rows: bounds the temporaries
_MASK = 0xFFFFFFFF
_A = np.array([[0x2360ED051FC65DA4], [0x4385DF649FCCF645]], np.uint64)  # A_k for k = 1, 2, ...
_C = np.array([[0], [1]], np.uint64)  # C_k


def _mul(a, b):
    """a * b mod 2**128 of (hi, lo) pairs of uint64 arrays."""
    (ah, al), (bh, bl) = a, b
    a1, a0, b1, b0 = al >> 32, al & _MASK, bl >> 32, bl & _MASK
    t = a1 * b0 + (a0 * b0 >> 32)  # the high word of al * bl from 32-bit halves
    w = (t & _MASK) + a0 * b1
    return a1 * b1 + (t >> 32) + (w >> 32) + al * bh + ah * bl, al * bl


def _add(a, b):
    lo = a[1] + b[1]
    return a[0] + b[0] + (lo < a[1]), lo


def _jumps(k: int):
    """(A_j, C_j) for j = 1..k, as (2, k) arrays of (hi, lo) rows."""
    global _A, _C
    while _A.shape[1] < k:  # A_(n+j) = A_n A_j and C_(n+j) = A_j C_n + C_j
        _A, _C = np.hstack([_A, _mul(_A[:, -1:], _A)]), np.hstack([_C, _add(_mul(_A, _C[:, -1:]), _C)])
    return _A[:, :k], _C[:, :k]


def _seeds(words):
    """(4, rows) ``SeedSequence(entropy).generate_state(4, np.uint64)`` of (rows, w) uint32 `words`."""
    h = [0x43B0D7E5, 0x931E8875]

    def hashmix(v):  # its constant depends only on the call count, so rows share it
        v, h[0] = v ^ np.uint32(h[0]), h[0] * h[1] & _MASK
        v = v * np.uint32(h[0])
        return v ^ v >> 16

    w = words.shape[1]
    pool = [hashmix(words[:, i] if i < w else np.zeros(len(words), np.uint32)) for i in range(4)]
    for src in range(max(w, 4)):  # each pool word into the others, then each later word into all
        for dst in range(4):
            if src != dst:
                r = 0xCA01F9DD * pool[dst] - 0x4973F715 * hashmix(pool[src] if src < 4 else words[:, src])
                pool[dst] = r ^ r >> 16
    h[:] = 0x8B51F9DD, 0x58F38DED  # generate_state hashes the pool the same way
    out = [hashmix(pool[i % 4]).astype(np.uint64) for i in range(8)]
    return np.array([out[i] | out[i + 1] << 32 for i in range(0, 8, 2)])


def _words(entropy) -> list:
    """SeedSequence's 32-bit words, low first, of an int or a nested sequence of ints."""
    if isinstance(entropy, (int, np.integer)):
        if entropy < 0:
            raise ValueError("expected non-negative integer")
        return [int(entropy) >> s & _MASK for s in range(0, max(int(entropy).bit_length(), 1), 32)]
    if isinstance(entropy, (float, np.inexact, str)):
        raise TypeError("seed must be integer")
    return [w for x in entropy for w in _words(x)]


class Streams:
    """One stream per entropy, drawing as numpy's ``default_rng(entropy)``; a draw
    from a subset of rows continues only those rows' streams."""

    def __init__(self, entropies):
        words = []
        for e in entropies:
            if not isinstance(e, (int, np.integer, list, tuple, range, np.ndarray)):
                raise TypeError(f"SeedSequence expects int or sequence of ints for entropy not {e}")
            words.append(_words(e))
        seeds = np.empty((4, len(words)), np.uint64)
        for w in {len(x) for x in words}:  # rows of one word count hash together
            rows = [r for r, x in enumerate(words) if len(x) == w]
            seeds[:, rows] = _seeds(np.array([words[r] for r in rows], np.uint32).reshape(len(rows), w))
        self.inc = np.array([seeds[2] << 1 | seeds[3] >> 63, seeds[3] << 1 | 1])
        self.s = np.array(_add(_mul(_A[:, :1], _add(self.inc, seeds[:2])), self.inc))

    def _raw(self, rows, k: int):
        """Blocks (columns, outputs) of the next k outputs of `rows`: draw j
        steps state s to A_j s + C_j inc, A_j = M^j, C_j = 1 + ... + M^(j-1)."""
        step = max(1, _BLOCK // max(len(rows), 1))
        for j in range(0, k, step):
            a, c = _jumps(min(step, k - j))
            h, lo = _add(_mul(a, self.s[:, rows, None]), _mul(c, self.inc[:, rows, None]))
            self.s[:, rows] = h[:, -1], lo[:, -1]
            x, rot = h ^ lo, h >> 58
            yield slice(j, j + a.shape[1]), x >> rot | x << (64 - rot & 63)

    def uniform(self, low: float, high: float, shape: tuple) -> np.ndarray:
        """``uniform(low, high, shape)`` of each row: shape ``(rows, *shape)``."""
        out = np.empty((self.s.shape[1], int(np.prod(shape))))
        for cols, x in self._raw(np.arange(len(out)), out.shape[1]):
            out[:, cols] = low + (high - low) * ((x >> 11) * 2.0**-53)
        return out.reshape(len(out), *shape)

    def integers63(self) -> list:
        """``integers(0, 2**63 - 1)`` of every row by Lemire's method: the high word of
        x (2**63 - 1), drawn again while the low word is below 2**64 % (2**63 - 1) = 2."""
        out, todo = np.empty(self.s.shape[1], np.uint64), np.arange(self.s.shape[1])
        while len(todo):
            x = next(self._raw(todo, 1))[1][:, 0]
            out[todo], low = _mul((0, x), (0, 2**63 - 1))
            todo = todo[low < 2]
        return out.tolist()
