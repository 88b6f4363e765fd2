"""Finite abelian groups in product-of-cyclics form.

A group is a tuple of moduli (n_1, ..., n_k); elements are coordinate
tuples with 0 <= x_i < n_i. Enumeration order is mixed-radix
lexicographic on the coordinates (first coordinate most significant), and
every module downstream relies on that order for determinism.

This module is the one home of that index arithmetic: ``index`` and
``element`` convert single elements, and ``digits``, ``flat`` and
``translate`` do the same on numpy arrays of flat indices for the LP,
the packing and spectrum searches and the certificate checkers.

Quotients and subgroup renormalization go through an exact integer Smith
normal form so the result is again a product of cyclic groups together
with an explicit projection / isomorphism.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache
from typing import Callable, Iterable, Sequence

import numpy as np

from .errors import DomainNotSymmetricError, InvalidHomomorphismError

Element = tuple[int, ...]


@dataclass(frozen=True)
class FiniteAbelianGroup:
    moduli: tuple[int, ...]

    @property
    def order(self) -> int:
        return math.prod(self.moduli)

    @property
    def rank(self) -> int:
        return len(self.moduli)

    def identity(self) -> Element:
        return (0,) * len(self.moduli)

    def canon(self, x: Sequence[int]) -> Element:
        if len(x) != len(self.moduli):
            raise ValueError(f"element {x!r} has rank {len(x)}, group has rank {len(self.moduli)}")
        return tuple(int(c) % m for c, m in zip(x, self.moduli))

    def add(self, x: Element, y: Element) -> Element:
        return tuple((a + b) % m for a, b, m in zip(x, y, self.moduli))

    def neg(self, x: Element) -> Element:
        return tuple((-a) % m for a, m in zip(x, self.moduli))

    def sub(self, x: Element, y: Element) -> Element:
        return tuple((a - b) % m for a, b, m in zip(x, y, self.moduli))

    def is_self_inverse(self, x: Element) -> bool:
        return all((2 * a) % m == 0 for a, m in zip(x, self.moduli))

    def index(self, x: Element) -> int:
        i = 0
        for c, m in zip(x, self.moduli):
            i = i * m + (c % m)
        return i

    def element(self, i: int) -> Element:
        coords = []
        for m in reversed(self.moduli):
            coords.append(i % m)
            i //= m
        return tuple(reversed(coords))

    def elements(self) -> list[Element]:
        return _elements_of(self.moduli)

    def element_order(self, x: Element) -> int:
        o = 1
        for c, m in zip(x, self.moduli):
            o = o * (m // math.gcd(m, c)) // math.gcd(o, m // math.gcd(m, c))
        return o

    def pair_representatives(self, elems: Iterable[Element]) -> list[tuple[Element, int]]:
        """One representative per negation pair {x, -x}, with the pair size.

        0 is skipped. Representatives come out in enumeration order, the
        lexicographically smaller member of each pair first.
        """
        chosen: list[tuple[Element, int]] = []
        seen: set[Element] = set()
        for x in sorted(elems, key=self.index):
            if all(c == 0 for c in x) or x in seen:
                continue
            nx = self.neg(x)
            seen.add(x)
            seen.add(nx)
            chosen.append((x, 1 if nx == x else 2))
        return chosen


@lru_cache(maxsize=128)
def _elements_of(moduli: tuple[int, ...]) -> list[Element]:
    elems: list[Element] = [()]
    for m in moduli:
        elems = [e + (r,) for e in elems for r in range(m)]
    return elems


def digits(moduli: tuple[int, ...], idx) -> np.ndarray:
    """Mixed-radix coordinates of flat indices, one trailing axis per factor."""
    rest = np.asarray(idx, dtype=np.int64)
    out = np.empty(rest.shape + (len(moduli),), dtype=np.int64)
    for j in range(len(moduli) - 1, -1, -1):
        rest, out[..., j] = np.divmod(rest, moduli[j])
    return out


def flat(moduli: tuple[int, ...], coords: np.ndarray) -> np.ndarray:
    """Flat indices of coordinates reduced modulo the group, the inverse
    of ``digits``."""
    idx = np.zeros(coords.shape[:-1], dtype=np.int64)
    for j, m in enumerate(moduli):
        idx = idx * m + coords[..., j] % m
    return idx


def translate(moduli: tuple[int, ...], v, s) -> np.ndarray:
    """Flat indices of v + s for broadcastable arrays of flat indices."""
    return flat(moduli, digits(moduli, v) + digits(moduli, s))


def make_group(moduli: Sequence[int]) -> FiniteAbelianGroup:
    mods = tuple(int(m) for m in moduli)
    for m in mods:
        if m < 1:
            raise ValueError(f"modulus {m} is not a positive integer")
    return FiniteAbelianGroup(mods)


def direct_product(a: FiniteAbelianGroup, b: FiniteAbelianGroup) -> FiniteAbelianGroup:
    return FiniteAbelianGroup(a.moduli + b.moduli)


# ---------------------------------------------------------------------------
# symmetric domains


@dataclass(frozen=True)
class SymmetricDomain:
    group: FiniteAbelianGroup
    elements: frozenset[Element]

    @property
    def size(self) -> int:
        return len(self.elements)

    def sorted_elements(self) -> list[Element]:
        return sorted(self.elements, key=self.group.index)

    def pair_representatives(self) -> list[tuple[Element, int]]:
        return self.group.pair_representatives(self.elements)

    def __contains__(self, x) -> bool:
        return tuple(x) in self.elements


def symmetric_domain(group: FiniteAbelianGroup, elements: Iterable) -> SymmetricDomain:
    """Validate and build a symmetric domain 0 in Omega = -Omega.

    Rank-1 groups accept bare integers for convenience; coordinates are
    reduced modulo the group.
    """
    elems = set()
    for x in elements:
        if isinstance(x, int):
            if group.rank != 1:
                raise ValueError("bare integer element in a group of rank != 1")
            x = (x,)
        elems.add(group.canon(tuple(x)))
    if group.identity() not in elems:
        raise DomainNotSymmetricError("domain must contain 0", offender=group.identity())
    for x in elems:
        if group.neg(x) not in elems:
            raise DomainNotSymmetricError(f"domain misses the negation of {x}", offender=x)
    return SymmetricDomain(group, frozenset(elems))


def difference_set(group: FiniteAbelianGroup, subset: Iterable) -> SymmetricDomain:
    """H - H as a symmetric domain (always symmetric, always contains 0)."""
    pts = [group.canon(tuple(h) if not isinstance(h, int) else (h,)) for h in subset]
    if not pts:
        raise ValueError("difference set of an empty set")
    diffs = {group.sub(a, b) for a in pts for b in pts}
    return SymmetricDomain(group, frozenset(diffs))


# ---------------------------------------------------------------------------
# subgroups


@dataclass(frozen=True)
class Subgroup:
    group: FiniteAbelianGroup
    generators: tuple[Element, ...]
    elements: frozenset[Element]
    # one expression of each element as integer generator coefficients
    coordinates: dict[Element, tuple[int, ...]]

    @property
    def order(self) -> int:
        return len(self.elements)

    @property
    def index(self) -> int:
        return self.group.order // len(self.elements)

    def __contains__(self, x) -> bool:
        return tuple(x) in self.elements


def subgroup_generated(group: FiniteAbelianGroup, generators: Iterable) -> Subgroup:
    gens = tuple(group.canon(tuple(g) if not isinstance(g, int) else (g,))
                 for g in generators)
    zero = group.identity()
    coords: dict[Element, tuple[int, ...]] = {zero: (0,) * len(gens)}
    frontier = [zero]
    while frontier:
        nxt = []
        for x in frontier:
            cx = coords[x]
            for i, g in enumerate(gens):
                y = group.add(x, g)
                if y not in coords:
                    coords[y] = cx[:i] + (cx[i] + 1,) + cx[i + 1:]
                    nxt.append(y)
        frontier = nxt
    return Subgroup(group, gens, frozenset(coords), coords)


# ---------------------------------------------------------------------------
# Smith normal form over the integers (exact, list-of-lists of python ints)


def smith_normal_form(mat: Sequence[Sequence[int]]):
    """Return (d, P, Q) with P A Q = diag(d), P and Q unimodular.

    d is the list of diagonal entries (nonnegative, each dividing the
    next), length min(rows, cols). Pure integer arithmetic.
    """
    A = [[int(v) for v in row] for row in mat]
    r = len(A)
    c = len(A[0]) if r else 0
    P = [[int(i == j) for j in range(r)] for i in range(r)]
    Q = [[int(i == j) for j in range(c)] for i in range(c)]

    def swap_rows(i, j):
        A[i], A[j] = A[j], A[i]
        P[i], P[j] = P[j], P[i]

    def swap_cols(i, j):
        for row in A:
            row[i], row[j] = row[j], row[i]
        for row in Q:
            row[i], row[j] = row[j], row[i]

    def add_row(src, dst, k):
        # row[dst] += k * row[src]
        A[dst] = [a + k * b for a, b in zip(A[dst], A[src])]
        P[dst] = [a + k * b for a, b in zip(P[dst], P[src])]

    def add_col(src, dst, k):
        for row in A:
            row[dst] += k * row[src]
        for row in Q:
            row[dst] += k * row[src]

    def negate_row(i):
        A[i] = [-v for v in A[i]]
        P[i] = [-v for v in P[i]]

    t = 0
    while t < min(r, c):
        # find a nonzero pivot of least magnitude in the trailing block
        piv = None
        best = None
        for i in range(t, r):
            for j in range(t, c):
                v = abs(A[i][j])
                if v and (best is None or v < best):
                    best = v
                    piv = (i, j)
        if piv is None:
            break
        swap_rows(t, piv[0])
        swap_cols(t, piv[1])
        while True:
            # clear column t with row ops
            done = True
            for i in range(t + 1, r):
                if A[i][t]:
                    q = A[i][t] // A[t][t]
                    add_row(t, i, -q)
                    if A[i][t]:
                        swap_rows(t, i)
                        done = False
            # clear row t with column ops
            for j in range(t + 1, c):
                if A[t][j]:
                    q = A[t][j] // A[t][t]
                    add_col(t, j, -q)
                    if A[t][j]:
                        swap_cols(t, j)
                        done = False
            if done:
                break
        if A[t][t] < 0:
            negate_row(t)
        # enforce the divisibility chain: A[t][t] must divide the rest
        fixed = True
        for i in range(t + 1, r):
            for j in range(t + 1, c):
                if A[i][j] % A[t][t]:
                    add_row(i, t, 1)
                    fixed = False
                    break
            if not fixed:
                break
        if fixed:
            t += 1
    d = [A[i][i] for i in range(min(r, c))]
    return d, P, Q


def _matvec(P, x):
    return tuple(sum(p * v for p, v in zip(row, x)) for row in P)


def quotient_group(group: FiniteAbelianGroup, K: Subgroup):
    """G/K renormalized to a product of cyclic groups.

    Returns (quotient, project) where project maps parent elements onto
    quotient coordinates. Factors of size 1 are dropped.
    """
    k = group.rank
    cols: list[list[int]] = []
    for i, m in enumerate(group.moduli):
        col = [0] * k
        col[i] = m
        cols.append(col)
    for g in K.generators:
        cols.append(list(g))
    mat = [[cols[j][i] for j in range(len(cols))] for i in range(k)]
    d, P, _ = smith_normal_form(mat)
    if len(d) < k or any(v == 0 for v in d[:k]):
        raise ValueError("relation lattice is not full rank")
    keep = [i for i in range(k) if d[i] > 1]
    quotient = FiniteAbelianGroup(tuple(d[i] for i in keep))
    expected = group.order // K.order
    if quotient.order != expected:
        raise ValueError(f"quotient order {quotient.order} != |G|/|K| = {expected}")

    def project(x: Sequence[int]) -> Element:
        y = _matvec(P, group.canon(tuple(x)))
        return tuple(y[i] % d[i] for i in keep)

    return quotient, project


def subgroup_as_group(K: Subgroup):
    """Renormalize a subgroup to its own product-of-cyclics group.

    Returns (group, to_sub, from_sub): to_sub maps parent elements of K to
    coordinates in the new group, from_sub maps them back.
    """
    G = K.group
    r = len(K.generators)
    if r == 0:
        trivial = FiniteAbelianGroup(())
        zero = G.identity()
        return trivial, {zero: ()}, {(): zero}
    # relation lattice: kernel of Z^r -> G, z -> sum z_i g_i
    k = G.rank
    mat = [[0] * (r + k) for _ in range(k)]
    for j, g in enumerate(K.generators):
        for i in range(k):
            mat[i][j] = g[i]
    for i, m in enumerate(G.moduli):
        mat[i][r + i] = m
    d, _, Q = smith_normal_form(mat)
    rank = sum(1 for v in d if v != 0)
    # kernel basis vectors = columns of Q past the rank; relations = top r coords
    rel_cols = [[Q[i][j] for i in range(r)] for j in range(rank, r + k)]
    if not rel_cols:
        raise ValueError("finite subgroup must have relations")
    rel = [[col[i] for col in rel_cols] for i in range(r)]
    d2, P2, _ = smith_normal_form(rel)
    if len(d2) < r or any(v == 0 for v in d2[:r]):
        raise ValueError("subgroup relation lattice is not full rank")
    keep = [i for i in range(r) if d2[i] > 1]
    sub = FiniteAbelianGroup(tuple(d2[i] for i in keep))
    if sub.order != K.order:
        raise ValueError(f"renormalized order {sub.order} != |K| = {K.order}")
    to_sub: dict[Element, Element] = {}
    from_sub: dict[Element, Element] = {}
    for x, z in K.coordinates.items():
        y = _matvec(P2, z)
        t = tuple(y[i] % d2[i] for i in keep)
        to_sub[x] = t
        from_sub[t] = x
    if len(from_sub) != K.order:
        raise ValueError("renormalization is not injective")
    return sub, to_sub, from_sub


# ---------------------------------------------------------------------------
# endomorphisms


def endomorphism(group: FiniteAbelianGroup, images: Sequence) -> Callable[[Element], Element]:
    """The endomorphism sending the i-th canonical generator to images[i].

    Well-definedness demands order(images[i]) divide moduli[i]; violations
    raise InvalidHomomorphismError.
    """
    if len(images) != group.rank:
        raise InvalidHomomorphismError(
            f"need {group.rank} generator images, got {len(images)}")
    imgs = [group.canon(tuple(g) if not isinstance(g, int) else (g,)) for g in images]
    for i, (g, m) in enumerate(zip(imgs, group.moduli)):
        o = group.element_order(g)
        if m % o:
            raise InvalidHomomorphismError(
                f"image {g} of generator {i} has order {o}, not dividing {m}")

    def phi(x: Sequence[int]) -> Element:
        x = group.canon(tuple(x))
        out = group.identity()
        for c, g in zip(x, imgs):
            out = group.add(out, tuple((c * gi) % m for gi, m in zip(g, group.moduli)))
        return out

    return phi


def apply_endomorphism(group: FiniteAbelianGroup, images: Sequence, x) -> Element:
    return endomorphism(group, images)(tuple(x) if not isinstance(x, int) else (x,))


def is_automorphism(group: FiniteAbelianGroup, images: Sequence) -> bool:
    phi = endomorphism(group, images)
    return len({phi(x) for x in group.elements()}) == group.order


def image_domain(domain: SymmetricDomain, images: Sequence) -> SymmetricDomain:
    """phi(Omega) for an automorphism phi given by generator images."""
    G = domain.group
    if not is_automorphism(G, images):
        raise InvalidHomomorphismError("generator images do not define a bijection")
    phi = endomorphism(G, images)
    return SymmetricDomain(G, frozenset(phi(x) for x in domain.elements))
