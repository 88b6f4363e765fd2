"""Packing sets, the |G|/|Lambda| upper bound, and tiling checks.

A packing set for a symmetric domain Omega is a set Lambda whose pairwise
differences avoid Omega except at 0. Summing any feasible witness over
the translates of Lambda shows the extremal constant is at most
|G|/|Lambda|, so large packing sets mean strong upper bounds.

Finding the largest Lambda is a maximum independent set problem in the
Cayley graph of G with connection set Omega minus 0. ``branch_and_bound``
is the one search for such sets: ``max_packing_set`` runs it on this
graph and ``spectral.find_spectrum`` on the graph whose connection set is
the support of the transform of 1_H. A Cayley graph is vertex-transitive,
so translating any independent set by minus one of its vertices gives one
of the same size through 0. Fixing 0 at the root therefore costs
nothing: the subtree without 0, which the search skips, holds no set
larger than the best one through 0. The graph is also regular, so
degree-based branching orders collapse to plain index order, which is
what the search uses; branching lowest-index-first with the include
branch explored first makes the first optimum found the lexicographically
least one.

A clique bounds every packing from above: if C - C lies in Omega, the
|G| translates x + C hold at most one point of a packing Lambda each and
cover every vertex |C| times, so |Lambda| |C| <= |G| (the clique-coclique
bound of a vertex-transitive graph). Before it searches, ``max_packing_set``
asks the same branch and bound, on Omega's own vertices, for a clique
through 0 large enough to cap packings at the greedy set's size; when
one exists the greedy set is proven maximal without a search node.

Every packing step reads one integer table, shift[k, v] = index(v +
omega_k), built by one ``groups.translate`` call: the greedy scan clears a
boolean array, the swap pass keeps coverage counts, and the branch and
bound turns a column into v's keep mask, the vertices outside v's closed
neighbourhood, the first time it branches there.

A search node is (cand, size, chosen): the candidate bitmask, the number
of vertices taken, and the taken vertices as a linked (parent, v) chain,
so making a node costs the same at any depth; the best set is rebuilt
from its chain only when it improves. The include branch keeps cand &
keep(v); the exclude branch, cand with v's bit cleared, is needed only
when including v drops some other candidate.
"""
from __future__ import annotations

import functools
import time
from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from .bounds import BoundReport
from .config import (DEFAULT_BUDGET, EXACT_SEARCH_VERTEX_CAP, SearchBudget)
from .errors import CertificateInvalidError
from .groups import (Element, FiniteAbelianGroup, SymmetricDomain,
                     difference_set, translate)
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
    """Returns (ok, first violating pair): the element at the smallest
    position of lam that clashes with an earlier one, and its earliest
    partner. Repeats do not clash. The translates of lam by Omega minus
    0 are looked up in a position array of lam as one (|Omega| - 1) x
    |lam| block: O(|lam| |Omega| + |G|) time and memory. Without repeats
    |lam| <= |G|, so the block is no larger than the shift table that
    ``max_packing_set`` builds for the group.
    """
    elems = [group.canon(x) for x in lam]
    idx = np.array([group.index(x) for x in elems], dtype=np.int64)
    n_lam = len(idx)
    # first position of each group element in lam, n_lam when absent
    first = np.full(group.order, n_lam, dtype=np.int64)
    values, where = np.unique(idx, return_index=True)
    first[values] = where
    omega = np.array([group.index(x) for x in
                      domain.elements - {group.identity()}], dtype=np.int64)
    earlier = first[translate(group.moduli, idx[None, :], omega[:, None])]
    earlier[earlier >= np.arange(n_lam)] = n_lam
    clash = earlier.min(axis=0, initial=n_lam)
    bad = np.flatnonzero(clash < n_lam)
    if bad.size == 0:
        return True, None
    return False, (elems[bad[0]], elems[clash[bad[0]]])


def packing_bound(group: FiniteAbelianGroup, domain: SymmetricDomain,
                  lam) -> BoundReport:
    """Upper bound |G|/|Lambda| from a verified packing set."""
    raw = lam.elements if isinstance(lam, PackingSet) else lam
    elems = [group.canon(x) for x in raw]
    if not elems:
        raise CertificateInvalidError("packing set is empty")
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


def vertex_mask(indices, n: int) -> int:
    """Bitmask of the flat indices ``indices`` among n vertices."""
    bits = np.zeros(n, dtype=bool)
    bits[indices] = True
    return int.from_bytes(np.packbits(bits, bitorder="little").tobytes(),
                          "little")


def branch_and_bound(keep, floor: int, target: int, node_limit: int,
                     deadline: float | None
                     ) -> tuple[list[int] | None, int, bool]:
    """Largest independent set through vertex 0 with more than floor vertices.

    ``keep(v)`` is the mask of the vertices that may join a set holding v,
    v itself excluded; it is called at most once per vertex. The search
    stops at the first set of ``target`` vertices. Returns (best, nodes,
    cut): the best set found (None if none beat the floor), the nodes
    visited, the one that hit the node budget included, and whether the
    node budget or the deadline (read every 1024 nodes) cut the search.
    """
    keep = functools.cache(keep)
    best = None
    nodes = 0
    # stack of (candidate mask, size, chosen) with chosen a linked
    # (parent, v) chain; branch on the lowest candidate
    stack: list[tuple[int, int, tuple | None]] = [(keep(0), 1, (None, 0))]
    while stack:
        nodes += 1
        if nodes > node_limit or (deadline is not None and nodes % 1024 == 0
                                  and time.monotonic() > deadline):
            return best, nodes, True
        cand, size, chosen = stack.pop()
        if size + cand.bit_count() <= floor:
            continue
        if size == target or not cand:
            best, floor = [], size
            while chosen is not None:
                chosen, v = chosen
                best.append(v)
            best.reverse()
            if size == target:
                break
            continue
        low = cand & -cand
        v = low.bit_length() - 1
        inside = cand & keep(v)
        if inside != cand ^ low:
            # exclude branch explored after include (LIFO: push it first);
            # when no candidate clashes with v, include is the only one
            stack.append((cand ^ low, size, chosen))
        stack.append((inside, size + 1, (chosen, v)))
    return best, nodes, False


def greedy_scan(shift: np.ndarray) -> list[int]:
    """Take the lowest free vertex until none is left, as one forward scan.

    An entry equal to the column count stands for a translate outside the
    vertex set and clears nothing.
    """
    n = shift.shape[1]
    free = np.ones(n + 1, dtype=bool)
    out = []
    for v in range(n):
        if free[v]:
            out.append(v)
            free[shift[:, v]] = False
    return out


def _swap_improve(shift: np.ndarray, chosen: list[int],
                  deadline: float | None) -> list[int]:
    """Passes of 1-out-2-in swaps (first improvement) until one finds none.

    cover[x] counts the chosen closed neighbourhoods that contain x. With
    u taken out, the free vertices are the uncovered ones and those only
    u covers, so trying u costs O(|Omega|). One block operation per pass
    counts them for every u, and the pair search runs only where there
    are at least two.
    """
    cover = np.bincount(shift[:, chosen].ravel(), minlength=shift.shape[1])
    sel = set(chosen)
    while True:
        uncovered = np.flatnonzero(cover == 0)
        order = sorted(sel)
        # |free| for each u: a pair needs two free vertices
        n_free = (cover[shift[:, order]] == 1).sum(axis=0) + len(uncovered)
        for u, room in zip(order, n_free.tolist()):
            if deadline is not None and time.monotonic() > deadline:
                return order
            if room < 2:
                continue
            own = shift[:, u]
            free = np.union1d(uncovered, own[cover[own] == 1]).tolist()
            # the least pair of free, mutually non-adjacent vertices
            pair = next(((a, b) for i, a in enumerate(free)
                         for b in free[i + 1:] if b not in shift[:, a]), None)
            if pair:
                cover[own] -= 1
                for w in pair:
                    cover[shift[:, w]] += 1
                sel = (sel - {u}) | set(pair)
                break
        else:
            return sorted(sel)


def _greedy_is_maximal(shift: np.ndarray, omega: np.ndarray, g: int,
                       node_limit: int, deadline: float | None) -> bool:
    """Does a clique inside Omega prove that no packing beats g points?

    A clique through 0 caps packings at |G| // k points (see
    ``max_packing_set``), so one of k = |G| // (g + 1) + 1 vertices, the
    least k with |G| // k <= g, proves g maximal. Its vertices are
    elements of Omega, pairwise adjacent: ``branch_and_bound`` runs on
    the complement of Omega's induced subgraph, where omega_j - omega_i
    lies in Omega exactly when omega_j lies in omega_i + Omega, the
    column of ``shift`` at omega_i.
    """
    n, m = shift.shape[1], len(omega)
    k = n // (g + 1) + 1
    if k > m:
        return False
    # position in Omega of every vertex, m for the ones outside it
    position = np.full(n, m, dtype=np.int64)
    position[omega] = np.arange(m)

    def keep(i):
        row = position[shift[:, omega[i]]]
        return vertex_mask(row[(row < m) & (row != i)], m)

    found, _nodes, _cut = branch_and_bound(keep, k - 1, k, node_limit,
                                           deadline)
    return found is not None


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

    Before the search, a clique can prove the greedy set of g points
    maximal. If C - C lies in Omega, each translate x + C holds at most
    one point of a packing Lambda (two would differ by a nonzero element
    of C - C), and every vertex lies in exactly |C| of the |G| translates,
    so |Lambda| |C| = sum over x of |(x + C) & Lambda| <= |G|. A clique
    through 0 of k = |G| // (g + 1) + 1 vertices therefore caps every
    packing at |G| // k <= g points: the greedy set is returned as
    proven-max with 0 nodes. The clique search runs under the same node
    limit and deadline, and its nodes are not counted in ``nodes``; when
    it finds no such clique the packing search runs as without it.
    """
    n = group.order
    # shift[k, v] = index(v + omega_k), Omega in enumeration order: column
    # v is the closed neighbourhood of v in the Cayley graph
    vertices = np.arange(n, dtype=np.int64)
    omega = np.array([group.index(x) for x in domain.sorted_elements()],
                     dtype=np.int64)
    shift = translate(group.moduli, vertices[None, :], omega[:, None])
    deadline = (time.monotonic() + budget.time_limit
                if budget.time_limit is not None else None)
    greedy = greedy_scan(shift)

    if n > EXACT_SEARCH_VERTEX_CAP:
        improved = _swap_improve(shift, greedy, deadline)
        elems = tuple(group.element(v) for v in improved)
        return PackingSet(group, elems, True, GREEDY_ONLY, nodes=0)

    if _greedy_is_maximal(shift, omega, len(greedy), budget.node_limit,
                          deadline):
        elems = tuple(group.element(v) for v in greedy)
        return PackingSet(group, elems, True, PROVEN_MAX, nodes=0)

    full = (1 << n) - 1
    found, nodes, cut = branch_and_bound(
        lambda v: full ^ vertex_mask(shift[:, v], n), len(greedy), n,
        budget.node_limit, deadline)
    elems = tuple(group.element(v) for v in found or greedy)
    flag = GREEDY_ONLY if cut else PROVEN_MAX
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
    Hset = {group.canon(x) for x in H}
    Lset = {group.canon(x) for x in lam}
    if not Hset or not Lset:
        raise CertificateInvalidError("tile and translates must be nonempty")
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
