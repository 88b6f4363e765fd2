"""Packing sets, the |G|/|Lambda| upper bound, and tiling checks.

A packing set for a symmetric domain Omega is a set Lambda whose pairwise
differences avoid Omega except at 0. Summing any feasible witness over
the translates of Lambda shows the extremal constant is at most
|G|/|Lambda|, so large packing sets mean strong upper bounds.

Finding the largest Lambda is a maximum independent set problem in the
Cayley graph of G with connection set Omega minus 0. That graph is
regular (every vertex sees |Omega|-1 others), so degree-based branching
orders collapse to plain index order, which is what the search uses;
branching lowest-index-first with the include branch explored first makes
the first optimum found the lexicographically least one.
"""
from __future__ import annotations

import time
from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from .bounds import BoundReport
from .config import (DEFAULT_BUDGET, EXACT_SEARCH_VERTEX_CAP, SearchBudget)
from .errors import CertificateInvalidError
from .groups import (Element, FiniteAbelianGroup, SymmetricDomain,
                     difference_set)
from .harmonic import convolve, indicator

PROVEN_MAX = "proven-max"
GREEDY_ONLY = "greedy-only"


@dataclass
class PackingSet:
    group: FiniteAbelianGroup
    elements: tuple[Element, ...]
    verified: bool
    maximality: str  # PROVEN_MAX or GREEDY_ONLY
    nodes: int = 0   # branch-and-bound nodes visited (0: greedy only)

    @property
    def size(self) -> int:
        return len(self.elements)


def check_packing_set(group: FiniteAbelianGroup, domain: SymmetricDomain,
                      lam) -> tuple[bool, tuple[Element, Element] | None]:
    """Exhaustive pairwise check; returns (ok, first violating pair)."""
    elems = [group.canon(x if isinstance(x, tuple) else (x,)) for x in lam]
    zero = group.identity()
    for i, x in enumerate(elems):
        for y in elems[:i]:
            d = group.sub(x, y)
            if d != zero and d in domain:
                return False, (x, y)
    return True, None


def packing_bound(group: FiniteAbelianGroup, domain: SymmetricDomain,
                  lam) -> BoundReport:
    """Upper bound |G|/|Lambda| from a verified packing set."""
    raw = lam.elements if isinstance(lam, PackingSet) else tuple(lam)
    elems = [group.canon(x if isinstance(x, tuple) else (x,)) for x in raw]
    if len(set(elems)) != len(elems):
        raise CertificateInvalidError("packing set has repeated elements")
    ok, pair = check_packing_set(group, domain, elems)
    if not ok:
        raise CertificateInvalidError(
            f"packing set rejected: difference of {pair[0]} and {pair[1]} "
            "lies in the domain")
    value = Fraction(group.order, len(elems))
    return BoundReport(value, "packing", "upper",
                       {"Lambda": sorted(elems, key=group.index)})


def _index_weights(group: FiniteAbelianGroup) -> np.ndarray:
    w = np.ones(group.rank, dtype=np.int64)
    for i in range(group.rank - 2, -1, -1):
        w[i] = w[i + 1] * group.moduli[i + 1]
    return w


def _shift_tables(group: FiniteAbelianGroup, domain: SymmetricDomain) -> np.ndarray:
    """Row per domain element (0 excluded): index permutation v -> v + omega."""
    shifts = [x for x in domain.sorted_elements() if x != group.identity()]
    elems = np.array(group.elements(), dtype=np.int64).reshape(group.order, group.rank)
    moduli = np.array(group.moduli, dtype=np.int64)
    weights = _index_weights(group)
    rows = np.empty((len(shifts), group.order), dtype=np.int64)
    for k, om in enumerate(shifts):
        rows[k] = ((elems + np.array(om, dtype=np.int64)) % moduli) @ weights
    return rows


class _CayleyMasks:
    """Closed-neighborhood bitmasks, precomputed only for small graphs."""

    def __init__(self, group: FiniteAbelianGroup, domain: SymmetricDomain):
        self.n = group.order
        self.tables = _shift_tables(group, domain)
        self.cache: list[int] | None = None
        if self.n <= 2048:
            self.cache = [self._build(v) for v in range(self.n)]

    def _build(self, v: int) -> int:
        m = 1 << v
        for row in self.tables:
            m |= 1 << int(row[v])
        return m

    def closed(self, v: int) -> int:
        if self.cache is not None:
            return self.cache[v]
        return self._build(v)


def _greedy(masks: _CayleyMasks) -> list[int]:
    free = (1 << masks.n) - 1
    out = []
    while free:
        v = (free & -free).bit_length() - 1
        out.append(v)
        free &= ~masks.closed(v)
    return out


def _swap_improve(masks: _CayleyMasks, chosen: list[int],
                  deadline: float | None) -> list[int]:
    """One deterministic pass of 1-out-2-in swaps (first improvement)."""
    n = masks.n
    full = (1 << n) - 1
    sel = set(chosen)
    improved = True
    while improved:
        improved = False
        blocked = 0
        for v in sel:
            blocked |= masks.closed(v)
        for u in sorted(sel):
            if deadline is not None and time.monotonic() > deadline:
                return sorted(sel)
            rest = sel - {u}
            occ = 0
            for v in rest:
                occ |= masks.closed(v)
            free = full & ~occ
            # need two free, mutually non-adjacent vertices
            f = free
            found = None
            while f:
                a = (f & -f).bit_length() - 1
                f &= f - 1
                second = free & ~masks.closed(a) & ~((1 << (a + 1)) - 1)
                if second:
                    b = (second & -second).bit_length() - 1
                    found = (a, b)
                    break
            if found:
                sel = rest | {found[0], found[1]}
                improved = True
                break
    return sorted(sel)


def max_packing_set(group: FiniteAbelianGroup, domain: SymmetricDomain,
                    budget: SearchBudget = DEFAULT_BUDGET) -> PackingSet:
    """Largest packing set by branch and bound, greedy seeded.

    Exact search runs when the graph has at most the configured vertex
    cap and within the node/time budget; otherwise the result is the
    greedy set improved by local swaps, flagged greedy-only. Budget
    exhaustion mid-search keeps the best set found so far (still a valid
    packing, so still usable for bounds) with the greedy-only flag.
    ``nodes`` counts the search nodes visited, the one that hit the node
    budget included; it is 0 when no search ran.
    """
    n = group.order
    masks = _CayleyMasks(group, domain)
    deadline = (time.monotonic() + budget.time_limit
                if budget.time_limit is not None else None)
    greedy = _greedy(masks)
    best = list(greedy)

    if n > EXACT_SEARCH_VERTEX_CAP:
        improved = _swap_improve(masks, greedy, deadline)
        elems = tuple(group.element(v) for v in improved)
        return PackingSet(group, elems, True, GREEDY_ONLY, nodes=0)

    nodes = 0
    exhausted = False
    full = (1 << n) - 1
    # stack of (candidate mask, chosen list); branch on lowest candidate
    stack: list[tuple[int, tuple[int, ...]]] = [(full, ())]
    while stack:
        nodes += 1
        if nodes > budget.node_limit:
            exhausted = True
            break
        if deadline is not None and nodes % 1024 == 0 and time.monotonic() > deadline:
            exhausted = True
            break
        cand, chosen = stack.pop()
        if not cand:
            if len(chosen) > len(best):
                best = list(chosen)
            continue
        if len(chosen) + cand.bit_count() <= len(best):
            continue
        v = (cand & -cand).bit_length() - 1
        closed = masks.closed(v)
        include = (cand & ~closed, chosen + (v,))
        if cand & closed & ~(1 << v):
            # exclude branch explored after include (LIFO: push it first)
            stack.append((cand & ~(1 << v), chosen))
            stack.append(include)
        else:
            # v conflicts with nothing left: taking it is never worse
            stack.append(include)

    elems = tuple(group.element(v) for v in best)
    flag = GREEDY_ONLY if exhausted else PROVEN_MAX
    return PackingSet(group, elems, True, flag, nodes=nodes)


def check_tiling(group: FiniteAbelianGroup, H, lam) -> tuple[bool, int | None]:
    """Is H + Lambda an exact cover at some level c? Returns (flag, c).

    The convolution of the two indicators counts representations, all
    integers here, so constancy is an exact test.
    """
    conv = convolve(indicator(group, H), indicator(group, lam))
    vals = np.rint(conv.values).astype(np.int64)
    if np.abs(conv.values - vals).max() > 1e-9:
        raise CertificateInvalidError("indicator convolution is not integral")
    if vals.min() == vals.max():
        return True, int(vals[0])
    return False, None


def tiling_bound(group: FiniteAbelianGroup, domain: SymmetricDomain,
                 H, lam) -> BoundReport:
    """Upper bound |H| when H+Lambda tiles, |G|/|Lambda| when it only packs.

    Needs the domain inside H-H and the translates H+l pairwise disjoint
    (a packing at level 1); anything else is rejected.
    """
    Hset = {group.canon(x if isinstance(x, tuple) else (x,)) for x in H}
    Lset = {group.canon(x if isinstance(x, tuple) else (x,)) for x in lam}
    diff = difference_set(group, Hset)
    outside = [x for x in domain.elements if x not in diff]
    if outside:
        raise CertificateInvalidError(
            f"domain point {sorted(outside, key=group.index)[0]} is not a "
            "difference of the tile")
    conv = convolve(indicator(group, Hset), indicator(group, Lset))
    top = int(np.rint(conv.values.max()))
    if top > 1:
        raise CertificateInvalidError(
            f"translates of the tile overlap (multiplicity {top})")
    tiles = bool(np.rint(conv.values.min()) == 1)
    if tiles:
        value = Fraction(len(Hset))
    else:
        value = Fraction(group.order, len(Lset))
    return BoundReport(value, "tiling", "upper",
                       {"H": sorted(Hset, key=group.index),
                        "Lambda": sorted(Lset, key=group.index),
                        "tiles": tiles})
