"""Characters, transforms and convolution on finite abelian groups.

The transform is the dense character sum

    fhat(t) = sum_x f(x) * conj(gamma_t(x)),
    gamma_t(x) = exp(2 pi i sum_j t_j x_j / n_j),

computed factor by factor along the cyclic components, no FFT library.
Each factor is one pass over a flat buffer whose axes rotate, so the
factor at hand is always the leading axis. An order-2 factor is the
butterfly (a + b, a - b) of the buffer's two halves in the array's own
number type, so ints and Fractions stay exact; a factor of order >= 3
multiplies by a small dense DFT matrix in complex arithmetic, on the
same operand that ``np.tensordot`` would build, which keeps its bits.
Roots of unity at quarter turns are snapped to their exact values 1,
-1, i, -i, so on groups of exponent 2 or 4 the transform of an
integer-valued function is exactly integer-valued in float arithmetic.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from typing import Iterable, NamedTuple

import numpy as np

from .groups import Element, FiniteAbelianGroup

_QUARTERS = {
    Fraction(0, 1): 1 + 0j,
    Fraction(1, 4): -1j,
    Fraction(1, 2): -1 + 0j,
    Fraction(3, 4): 1j,
}


def root_of_unity(frac: Fraction) -> complex:
    """exp(-2 pi i frac) with exact values at quarter turns."""
    frac = frac % 1
    if frac in _QUARTERS:
        return _QUARTERS[frac]
    a = -2.0 * math.pi * float(frac)
    return complex(math.cos(a), math.sin(a))


@lru_cache(maxsize=64)
def _root_table(n: int) -> np.ndarray:
    """exp(-2 pi i k / n) for k < n, exact at quarter turns (read-only,
    since every caller with this n shares it)."""
    table = np.array([root_of_unity(Fraction(k, n)) for k in range(n)])
    table.flags.writeable = False
    return table


@lru_cache(maxsize=64)
def _dft_matrix(n: int) -> np.ndarray:
    """exp(-2 pi i jk / n), read-only like ``_root_table``."""
    r = np.arange(n)
    W = _root_table(n)[np.outer(r, r) % n]
    W.flags.writeable = False
    return W


@dataclass
class GroupFunction:
    """Real-valued function on a finite abelian group, flat enumeration order."""
    group: FiniteAbelianGroup
    values: np.ndarray

    def __post_init__(self):
        v = np.asarray(self.values, dtype=float)
        if v.shape != (self.group.order,):
            raise ValueError(f"expected {self.group.order} values, got shape {v.shape}")
        self.values = v

    def __call__(self, x) -> float:
        return float(self.values[self.group.index(self.group.canon(x))])

    def support(self) -> list[Element]:
        return self.group.elements_at(np.flatnonzero(self.values))

    def total(self) -> float:
        return float(self.values.sum())

    def l1(self) -> float:
        return float(np.abs(self.values).sum())


@dataclass
class DualFunction:
    """Complex-valued function on the dual group, same enumeration order."""
    group: FiniteAbelianGroup
    values: np.ndarray

    def __post_init__(self):
        v = np.asarray(self.values, dtype=complex)
        if v.shape != (self.group.order,):
            raise ValueError(f"expected {self.group.order} values, got shape {v.shape}")
        self.values = v

    def __call__(self, t) -> complex:
        return complex(self.values[self.group.index(self.group.canon(t))])


def from_dict(group: FiniteAbelianGroup, table: dict) -> GroupFunction:
    v = np.zeros(group.order)
    for x, val in table.items():
        v[group.index(group.canon(x))] = val
    return GroupFunction(group, v)


def delta(group: FiniteAbelianGroup) -> GroupFunction:
    v = np.zeros(group.order)
    v[0] = 1.0
    return GroupFunction(group, v)


def indicator(group: FiniteAbelianGroup, subset: Iterable) -> GroupFunction:
    v = np.zeros(group.order)
    v[group.indices(subset)] = 1.0
    return GroupFunction(group, v)


def _axis_transform(arr: np.ndarray, moduli: tuple[int, ...], conjugate: bool) -> np.ndarray:
    """Character sum of ``arr`` (flat, enumeration order), factor by factor.

    One pass per factor over a flat buffer whose axes rotate: before the
    pass over factor j it holds the axes j, j+1, ..., k-1, 0, ..., j-1
    in C order, so factor j is the leading axis, and the pass leaves it
    last. An order-2 factor is the butterfly of the two contiguous
    halves, written into the two columns of the next buffer. An order
    >= 3 factor multiplies ``np.dot(W, b)`` with b the operand that
    ``np.tensordot`` would build, axis j first and the other axes in
    their original order, C-contiguous, and the product is then written
    back rotated: BLAS may round an entry differently at another column
    position, and this operand keeps the bits of the tensordot path.

    Order-2 factors keep the number type; the result turns complex at the
    first factor of order >= 3, which an ``object`` array cannot meet.
    ``arr`` is only read; the result is always a new array.
    """
    x = src = np.asarray(arr).reshape(moduli or (1,))
    after = x.size
    for n in moduli:
        after //= n
        if n == 1:
            continue
        rest = x.size // n
        if n == 2:
            a, b = x.reshape(2, rest)
            out = np.empty((rest, 2), dtype=x.dtype)
            np.add(a, b, out=out[:, 0])
            np.subtract(a, b, out=out[:, 1])
        else:
            if x.dtype == object:
                raise ValueError(f"exact transform needs every modulus in {{1, 2}}, got {n}")
            W = _dft_matrix(n)
            if conjugate:
                W = W.conj()
            before = rest // after
            b = np.ascontiguousarray(
                x.reshape(n, after, before).transpose(0, 2, 1), dtype=complex)
            prod = np.dot(W, b.reshape(n, rest)).reshape(n, before, after)
            out = np.ascontiguousarray(prod.transpose(2, 1, 0))
        x = out
    return (x.copy() if x is src else x).reshape(-1)


def dft(f: GroupFunction) -> DualFunction:
    return DualFunction(f.group, _axis_transform(f.values, f.group.moduli, False))


def idft(F: DualFunction) -> GroupFunction:
    vals = _axis_transform(F.values, F.group.moduli, True) / F.group.order
    worst = float(np.abs(vals.imag).max()) if vals.size else 0.0
    scale = max(1.0, float(np.abs(F.values).sum()))
    if worst > 1e-9 * scale:
        raise ValueError(f"inverse transform is not real: max imag {worst:.3e}")
    return GroupFunction(F.group, vals.real)


def dft_exact_signs(group: FiniteAbelianGroup, values) -> list:
    """Exact transform for groups of exponent <= 2 (all characters +-1).

    `values` may be ints or Fractions; the result has the same arithmetic.
    """
    if any(m not in (1, 2) for m in group.moduli):
        raise ValueError("exact sign transform needs all moduli in {1, 2}")
    vals = np.array(list(values), dtype=object)
    if len(vals) != group.order:
        raise ValueError("value count mismatch")
    return _axis_transform(vals, group.moduli, False).tolist()


def convolve(f: GroupFunction, g: GroupFunction) -> GroupFunction:
    """(f * g)(x) = sum_y f(y) g(x - y), exact shift-and-add.

    Integer inputs give integer outputs exactly (no transform round trip).
    """
    if f.group != g.group:
        raise ValueError("convolution needs both functions on the same group")
    G = f.group
    if G.rank == 0:
        return GroupFunction(G, f.values * g.values)
    # accumulate shifts of the denser function over the sparser support
    a, b = (f, g) if np.count_nonzero(f.values) <= np.count_nonzero(g.values) else (g, f)
    shape = G.moduli
    bb = b.values.reshape(shape)
    acc = np.zeros(shape)
    support = np.flatnonzero(a.values)
    for i, y in zip(support, G.elements_at(support)):
        acc += a.values[i] * np.roll(bb, shift=y, axis=tuple(range(G.rank)))
    return GroupFunction(G, acc.reshape(-1))


def reflect(f: GroupFunction) -> GroupFunction:
    """x -> f(-x): flipping an axis sends x to n-1-x, rolling by one to -x."""
    G = f.group
    if G.rank == 0:
        return GroupFunction(G, f.values.copy())
    axes = tuple(range(G.rank))
    out = np.roll(np.flip(f.values.reshape(G.moduli), axes), 1, axes)
    return GroupFunction(G, out.reshape(-1))


def autocorrelation(f: GroupFunction) -> GroupFunction:
    """f * reflect(f); its transform is |fhat|^2, hence positive definite."""
    return convolve(f, reflect(f))


class PDReport(NamedTuple):
    flag: bool
    min_real: float
    max_imag: float
    tol: float


def is_positive_definite(f: GroupFunction) -> PDReport:
    """Bochner test: positive definite iff the transform is nonnegative.

    The tolerance is 1e-9 scaled by the l1 mass of f. Both extrema are
    reported so callers can see the margin, not just the verdict.
    """
    tol = 1e-9 * max(1.0, f.l1())
    F = dft(f).values
    min_real = float(F.real.min()) if F.size else 0.0
    max_imag = float(np.abs(F.imag).max()) if F.size else 0.0
    return PDReport(min_real >= -tol and max_imag <= tol, min_real, max_imag, tol)


def parseval_gap(f: GroupFunction) -> float:
    """Relative gap in sum |f|^2 = (1/|G|) sum |fhat|^2 (diagnostic)."""
    lhs = float((f.values ** 2).sum())
    rhs = float((np.abs(dft(f).values) ** 2).sum()) / f.group.order
    return abs(lhs - rhs) / max(1.0, abs(lhs))
