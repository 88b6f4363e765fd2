"""Finite abelian groups in product-of-cyclics form.

A group is a tuple of moduli (n_1, ..., n_k); elements are coordinate
tuples with 0 <= x_i < n_i. Enumeration order is mixed-radix
lexicographic on the coordinates (first coordinate most significant), and
every module downstream relies on that order for determinism.

This module is the one home of that index arithmetic: ``index`` and
``element`` convert single elements, and ``digits``, ``flat``,
``negation_pairs`` and ``translate`` do the same on numpy arrays of flat
indices for the LP, the packing and spectrum searches and the
certificate checkers. ``fixing_transpositions`` and ``orbit_labels``
find the coordinate swaps that fix a set and label the orbits they
generate together with -1, for the LP's symmetry reduction.

Quotients and subgroup renormalization go through an exact integer Smith
normal form so the result is again a product of cyclic groups together
with an explicit projection / isomorphism.
"""
from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from operator import index
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

    def canon(self, x) -> Element:
        """A caller's element as a tuple of Python ints reduced modulo the
        group: any integer sequence (tuple, list, numpy row), or on a rank-1
        group a bare Python or numpy integer. A wrong rank is a ValueError.
        """
        c = _element_coords(x)
        if len(c) != len(self.moduli):
            raise ValueError(f"element {x!r} has rank {len(c)}, group has rank {len(self.moduli)}")
        return tuple(int(a) % m for a, m in zip(c, self.moduli))

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
        """Every element, in flat index order; a fresh list per call."""
        return list(itertools.product(*map(range, self.moduli)))

    def element_order(self, x: Element) -> int:
        o = 1
        for c, m in zip(x, self.moduli):
            o = o * (m // math.gcd(m, c)) // math.gcd(o, m // math.gcd(m, c))
        return o


def _element_coords(x):
    """x as a coordinate sequence: a bare integer is a one-coordinate element."""
    return (x,) if isinstance(x, (int, np.integer)) else x


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


def negation_pairs(moduli: tuple[int, ...], idx) -> tuple[np.ndarray, np.ndarray]:
    """One representative per negation pair {x, -x} among the ascending,
    distinct flat indices ``idx``, and the pair size (1 when x = -x, else
    2); 0 is skipped. A representative is the first member of its pair in
    ``idx``: the smaller flat index, or the only one present."""
    idx = np.asarray(idx, dtype=np.int64)
    neg = flat(moduli, -digits(moduli, idx))
    present = idx.take(np.searchsorted(idx, neg), mode="clip") == neg
    keep = (idx > 0) & ((idx <= neg) | ~present)
    return idx[keep], np.where(idx[keep] == neg[keep], 1, 2)


def fixing_transpositions(moduli: tuple[int, ...], idx) -> np.ndarray:
    """The coordinate swaps (i, j), i < j, between equal moduli above 1
    that map the ascending, distinct flat indices ``idx`` onto themselves,
    as an (n, 2) array in (i, j) order.

    Swapping coordinates i and j moves the flat index of x by
    (x_j - x_i)(w_i - w_j), w the strides, so every swap is tested at
    once. A swap is a bijection of the group, so a set it maps into
    itself it maps onto itself.
    """
    k = len(moduli)
    swaps = [(i, j) for i in range(k) for j in range(i + 1, k)
             if moduli[i] == moduli[j] > 1]
    if not swaps:
        return np.empty((0, 2), dtype=np.int64)
    i, j = np.array(swaps).T
    idx = np.asarray(idx, dtype=np.int64)
    mods = np.asarray(moduli, dtype=np.int64)
    strides = np.cumprod(np.concatenate(([1], mods[:0:-1])))[::-1]
    x = digits(moduli, idx)
    moved = idx[:, None] + (x[:, j] - x[:, i]) * (strides[i] - strides[j])
    member = np.zeros(math.prod(moduli), dtype=bool)
    member[idx] = True
    kept = member[moved].all(axis=0)
    return np.column_stack((i[kept], j[kept]))


def orbit_labels(moduli: tuple[int, ...], transpositions, reps) -> np.ndarray:
    """The least flat index in the orbit of each negation-pair
    representative ``reps`` under -1 and the coordinate ``transpositions``.

    The transpositions join coordinates into blocks, and those that span
    a block generate every permutation of it. Sorting each block's
    coordinates ascending gives the least flat index among the
    permutations of x, so the label is the smaller of that for x and for
    -x. With no transposition every orbit is a pair {x, -x}, whose least
    member is its representative.
    """
    reps = np.asarray(reps, dtype=np.int64)
    root = list(range(len(moduli)))

    def find(a):
        while root[a] != a:
            a = root[a]
        return a

    for a, b in np.asarray(transpositions).tolist():
        root[find(b)] = find(a)
    blocks: dict[int, list[int]] = {}
    for c in range(len(moduli)):
        blocks.setdefault(find(c), []).append(c)
    blocks = [b for b in blocks.values() if len(b) > 1]
    if not blocks:
        return reps
    x = digits(moduli, reps)
    nx = -x % np.asarray(moduli, dtype=np.int64)
    for b in blocks:
        x[:, b] = np.sort(x[:, b], axis=1)
        nx[:, b] = np.sort(nx[:, b], axis=1)
    return np.minimum(flat(moduli, x), flat(moduli, nx))


def translate(moduli: tuple[int, ...], v, s) -> np.ndarray:
    """Flat indices of v + s for broadcastable arrays of flat indices.

    The flat sum v + s is right except where a digit sum reaches its
    modulus; one axis at a time, those entries drop that modulus times the
    axis stride. Each input's digits are taken once, on its own shape,
    and the only whole-result buffers are the output and one carry mask.
    """
    v = np.asarray(v, dtype=np.int64)
    s = np.asarray(s, dtype=np.int64)
    out = np.empty(np.broadcast_shapes(v.shape, s.shape), dtype=np.int64)
    np.add(v, s, out=out)
    carry = np.empty(out.shape, dtype=bool)
    stride = 1
    for m in reversed(moduli):
        v, v_digit = np.divmod(v, m)
        s, s_digit = np.divmod(s, m)
        np.greater_equal(v_digit, m - s_digit, out=carry)
        np.subtract(out, m * stride, out=out, where=carry)
        stride *= m
    return out


def make_group(moduli: Sequence[int]) -> FiniteAbelianGroup:
    # operator.index, as in periodic_set: 2.0 is refused, not truncated
    try:
        mods = tuple(index(m) for m in moduli)
    except TypeError as e:
        raise ValueError(f"moduli must be integers: {e}") from None
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

    def __contains__(self, x) -> bool:
        try:
            return self.group.canon(x) in self.elements
        except ValueError:
            return False


def symmetric_domain(group: FiniteAbelianGroup, elements: Iterable) -> SymmetricDomain:
    """Validate and build a symmetric domain 0 in Omega = -Omega.

    Elements are read by ``group.canon``, so coordinates are reduced
    modulo the group and rank-1 groups accept bare integers.
    """
    elems = {group.canon(x) for x in elements}
    if group.identity() not in elems:
        raise DomainNotSymmetricError("domain must contain 0", offender=group.identity())
    for x in elems:
        if group.neg(x) not in elems:
            raise DomainNotSymmetricError(f"domain misses the negation of {x}", offender=x)
    return SymmetricDomain(group, frozenset(elems))


def difference_set(group: FiniteAbelianGroup, subset: Iterable) -> SymmetricDomain:
    """H - H as a symmetric domain (always symmetric, always contains 0)."""
    pts = [group.canon(h) for h in subset]
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
        try:
            return self.group.canon(x) in self.elements
        except ValueError:
            return False


def subgroup_generated(group: FiniteAbelianGroup, generators: Iterable) -> Subgroup:
    gens = tuple(group.canon(g) for g in generators)
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

    def project(x) -> Element:
        y = _matvec(P, group.canon(x))
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
    imgs = [group.canon(g) for g in images]
    for i, (g, m) in enumerate(zip(imgs, group.moduli)):
        o = group.element_order(g)
        if m % o:
            raise InvalidHomomorphismError(
                f"image {g} of generator {i} has order {o}, not dividing {m}")

    def phi(x) -> Element:
        x = group.canon(x)
        out = group.identity()
        for c, g in zip(x, imgs):
            out = group.add(out, tuple((c * gi) % m for gi, m in zip(g, group.moduli)))
        return out

    return phi


def apply_endomorphism(group: FiniteAbelianGroup, images: Sequence, x) -> Element:
    return endomorphism(group, images)(x)


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
