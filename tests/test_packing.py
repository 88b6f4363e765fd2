"""Packing sets, exact search, tilings.

The search oracle enumerates every subset of the group by bitmask for
|G| <= 12, so the branch and bound answer is compared against a truly
independent maximum. The greedy-only path is pinned to a bitmask greedy
and swap pass kept here as the reference, the branch and bound to a
tuple-node search from the root {0} (node counts included), behind the
same clique certificate, and to the full tree it searched before it fixed
0, and the packing check to a pairwise scan.
"""
from __future__ import annotations

import random
from fractions import Fraction

import pytest

import turanlab as tl
from turanlab import (
    GREEDY_ONLY,
    PROVEN_MAX,
    CertificateInvalidError,
    SearchBudget,
    check_packing_set,
    check_tiling,
    make_group,
    max_packing_set,
    packing_bound,
    symmetric_domain,
    tiling_bound,
)


def _brute_max_packing(G, dom) -> int:
    """Max independent set in the Cayley graph, by bitmask enumeration."""
    n = G.order
    adj = [0] * n
    for i in range(n):
        for j in range(n):
            if i != j and G.sub(G.element(i), G.element(j)) in dom:
                adj[i] |= 1 << j
    best = 0
    for mask in range(1 << n):
        if mask.bit_count() <= best:
            continue
        m = mask
        ok = True
        while m:
            v = (m & -m).bit_length() - 1
            if adj[v] & mask:
                ok = False
                break
            m &= m - 1
        if ok:
            best = mask.bit_count()
    return best


def _closed_masks(G, dom) -> list[int]:
    """Closed-neighbourhood bitmask of every vertex, from group arithmetic."""
    masks = []
    for v in G.elements():
        m = 0
        for w in dom.elements:
            m |= 1 << G.index(G.add(v, w))
        masks.append(m)
    return masks


def _reference_greedy(masks) -> list[int]:
    """Lowest-free-vertex greedy on bitmasks."""
    free = (1 << len(masks)) - 1
    out = []
    while free:
        v = (free & -free).bit_length() - 1
        out.append(v)
        free &= ~masks[v]
    return out


def _reference_swaps(masks, chosen) -> list[int]:
    """1-out-2-in swap passes on bitmasks, rebuilding the occupancy of the
    rest of the selection for every candidate taken out."""
    full = (1 << len(masks)) - 1
    sel = set(chosen)
    improved = True
    while improved:
        improved = False
        for u in sorted(sel):
            rest = sel - {u}
            occ = 0
            for v in rest:
                occ |= masks[v]
            free = full & ~occ
            f = free
            found = None
            while f:
                a = (f & -f).bit_length() - 1
                f &= f - 1
                second = free & ~masks[a] & ~((1 << (a + 1)) - 1)
                if second:
                    found = (a, (second & -second).bit_length() - 1)
                    break
            if found:
                sel = rest | set(found)
                improved = True
                break
    return sorted(sel)


def _reference_clique(masks, k, node_limit) -> bool:
    """Is there a clique of k vertices through 0 inside Omega, found within
    node_limit nodes? Tuple-node search, lowest candidate first, include
    branch first, on the neighbours of 0 (masks[0] is Omega)."""
    nodes = 0
    stack = [(masks[0] & ~1, (0,))]
    while stack:
        nodes += 1
        if nodes > node_limit:
            return False
        cand, chosen = stack.pop()
        if len(chosen) + cand.bit_count() < k:
            continue
        if len(chosen) == k:
            return True
        v = (cand & -cand).bit_length() - 1
        if cand & ~masks[v]:
            stack.append((cand & ~(1 << v), chosen))
        stack.append((cand & masks[v] & ~(1 << v), chosen + (v,)))
    return False


def _reference_search(masks, node_limit, from_zero=True):
    """Branch and bound on (candidate mask, chosen tuple) nodes, greedy
    seeded, from the root {0}; with from_zero=False from the empty set, the
    full tree the search explored before it fixed 0. From the root {0} a
    clique of |G| // (g + 1) + 1 vertices inside Omega, g the greedy size,
    first proves the greedy set maximal with 0 nodes. Returns (best
    vertices, exhausted, nodes)."""
    full = (1 << len(masks)) - 1
    best = _reference_greedy(masks)
    if from_zero and _reference_clique(
            masks, len(masks) // (len(best) + 1) + 1, node_limit):
        return best, False, 0
    nodes = 0
    stack = [(full & ~masks[0], (0,))] if from_zero else [(full, ())]
    while stack:
        nodes += 1
        if nodes > node_limit:
            return best, True, nodes
        cand, chosen = stack.pop()
        if not cand:
            if len(chosen) > len(best):
                best = list(chosen)
            continue
        if len(chosen) + cand.bit_count() <= len(best):
            continue
        v = (cand & -cand).bit_length() - 1
        include = (cand & ~masks[v], chosen + (v,))
        if cand & masks[v] & ~(1 << v):
            stack.append((cand & ~(1 << v), chosen))
        stack.append(include)
    return best, False, nodes


def _reference_check(G, dom, lam):
    """Pairwise scan: later element first, then the earliest partner."""
    elems = [G.canon(x if isinstance(x, tuple) else (x,)) for x in lam]
    for i, x in enumerate(elems):
        for y in elems[:i]:
            d = G.sub(x, y)
            if d != G.identity() and d in dom:
                return False, (x, y)
    return True, None


def test_check_packing_set_hand_cases():
    G = make_group([8])
    dom = symmetric_domain(G, [0, 1, 3, 4, 5, 7])
    ok, pair = check_packing_set(G, dom, [0, 2])
    assert ok and pair is None
    ok, pair = check_packing_set(G, dom, [0, 1])
    assert not ok
    assert set(pair) == {(0,), (1,)}
    # the clash reported is at the smallest later position, paired with
    # its earliest partner; repeats are not clashes
    assert check_packing_set(G, dom, [2, 2, 0, 3]) == (False, ((3,), (2,)))
    assert check_packing_set(G, dom, [6, 0, 0, 6]) == (True, None)
    rng = random.Random(90503)
    for case in range(300):
        moduli = [rng.randint(1, 20)] if rng.random() < 0.5 else \
            [rng.randint(2, 4), rng.randint(1, 5)]
        G = make_group(moduli)
        elems = {G.identity()}
        for x in rng.sample(G.elements(), min(G.order, rng.randint(0, 4))):
            elems.update((x, G.neg(x)))
        dom = symmetric_domain(G, elems)
        lam = [rng.choice(G.elements()) for _ in range(rng.randint(0, 10))]
        assert check_packing_set(G, dom, lam) == \
            _reference_check(G, dom, lam), f"case {case}: {moduli} {lam}"


def test_packing_bound_is_exact_rational():
    G = make_group([8])
    dom = symmetric_domain(G, [0, 1, 3, 4, 5, 7])
    rep = packing_bound(G, dom, [0, 2])
    assert rep.value == Fraction(4)
    assert rep.exact and rep.direction == "upper"
    assert rep.certificate["Lambda"] == [(0,), (2,)]


def test_packing_bound_rejections():
    G = make_group([8])
    dom = symmetric_domain(G, [0, 1, 3, 4, 5, 7])
    with pytest.raises(CertificateInvalidError, match="repeated"):
        packing_bound(G, dom, [0, 2, 2])
    with pytest.raises(CertificateInvalidError, match="rejected"):
        packing_bound(G, dom, [0, 1])


def test_empty_sets_are_rejected_and_skipped():
    G = make_group([8])
    dom = symmetric_domain(G, [0, 1, 3, 4, 5, 7])
    with pytest.raises(CertificateInvalidError, match="empty"):
        packing_bound(G, dom, [])
    for H, lam in (([], [0, 2]), ([0, 1, 4, 5], [])):
        with pytest.raises(CertificateInvalidError, match="nonempty"):
            tiling_bound(G, dom, H, lam)
    # an empty hint fails its hypotheses like any other and is skipped
    reports = tl.compare_bounds(G, dom, {"Lambda": [[]],
                                         "H": [[0, 1, 4, 5]]})
    methods = [r.method for r in reports]
    assert methods.count("packing") == 1 and "tiling" not in methods


def test_max_packing_matches_bitmask_oracle():
    rng = random.Random(90501)
    for case in range(60):
        moduli = [rng.randint(2, 12)] if rng.random() < 0.6 else \
            [rng.randint(2, 3), rng.randint(2, 4)]
        G = make_group(moduli)
        nonzero = [x for x in G.elements() if x != G.identity()]
        elems = {G.identity()}
        for x in rng.sample(nonzero, min(len(nonzero), rng.randint(0, 4))):
            elems.add(x)
            elems.add(G.neg(x))
        dom = symmetric_domain(G, elems)
        found = max_packing_set(G, dom)
        assert found.maximality == PROVEN_MAX
        ok, _ = check_packing_set(G, dom, found.elements)
        assert ok
        want = _brute_max_packing(G, dom)
        assert found.size == want, \
            f"case {case}: {moduli} {sorted(dom.elements)}: " \
            f"search {found.size} oracle {want}"


def test_search_matches_reference_branch_and_bound():
    # same sets, flags and node counts as the tuple-node search from the
    # root {0} behind the same clique certificate (0 nodes where it fires),
    # with and without node-budget cuts; against the full tree
    # (root: the empty set) the same sets, never greedy-only where the
    # full tree proved the maximum, and never more nodes
    rng = random.Random(90505)
    cut = improved = certified = 0
    for case in range(200):
        r = rng.random()
        moduli = [rng.randint(1, 40)] if r < 0.4 else \
            [2] * rng.randint(3, 7) if r < 0.7 else \
            [rng.randint(2, 4) for _ in range(rng.randint(2, 3))]
        G = make_group(moduli)
        elems = {G.identity()}
        for x in rng.sample(G.elements(), min(G.order, rng.randint(0, 6))):
            elems.update((x, G.neg(x)))
        dom = symmetric_domain(G, elems)
        limit = rng.choice([20_000, 20_000, 3, 40, 400, 4000])
        masks = _closed_masks(G, dom)
        best, exhausted, nodes = _reference_search(masks, limit)
        cut += exhausted
        certified += nodes == 0
        found = max_packing_set(G, dom, SearchBudget(node_limit=limit))
        assert ([G.index(x) for x in found.elements],
                found.maximality == GREEDY_ONLY, found.nodes) == \
            (best, exhausted, nodes), f"case {case}: {moduli} {limit}"
        full_best, full_exhausted, full_nodes = _reference_search(
            masks, limit, from_zero=False)
        assert best == full_best, f"case {case}: {moduli} {limit}"
        assert exhausted <= full_exhausted and nodes <= full_nodes, \
            f"case {case}: {moduli} {limit}"
        improved += full_exhausted and not exhausted
    assert cut >= 20
    assert improved >= 10
    assert certified >= 100


def test_budget_exhaustion_keeps_valid_packing():
    G = make_group([12])
    dom = symmetric_domain(G, [0, 1, 11])
    found = max_packing_set(G, dom, SearchBudget(node_limit=1))
    assert found.maximality == GREEDY_ONLY
    ok, _ = check_packing_set(G, dom, found.elements)
    assert ok
    # the bound from an exhausted search is still a bound
    assert packing_bound(G, dom, found).as_float() >= 1.0


def test_oversize_group_takes_greedy_path(monkeypatch):
    import turanlab.packing as packing
    monkeypatch.setattr(packing, "EXACT_SEARCH_VERTEX_CAP", 16)
    G = make_group([24])
    dom = symmetric_domain(G, [0, 1, 23, 5, 19])
    found = max_packing_set(G, dom, SearchBudget(node_limit=1000))
    assert found.maximality == GREEDY_ONLY
    ok, _ = check_packing_set(G, dom, found.elements)
    assert ok


def test_greedy_path_matches_reference_greedy_and_swaps(monkeypatch):
    import turanlab.packing as packing
    monkeypatch.setattr(packing, "EXACT_SEARCH_VERTEX_CAP", 0)
    # Z_17 with {0, +-5}: greedy stops at 7, one swap reaches 8
    G = make_group([17])
    dom = symmetric_domain(G, [0, 5, -5])
    masks = _closed_masks(G, dom)
    assert len(_reference_greedy(masks)) == 7
    assert max_packing_set(G, dom).size == 8
    rng = random.Random(90504)
    swapped = 0
    for case in range(150):
        moduli = [rng.randint(1, 90)] if rng.random() < 0.5 else \
            [rng.randint(2, 6), rng.randint(2, 9)]
        G = make_group(moduli)
        elems = {G.identity()}
        for x in rng.sample(G.elements(), min(G.order, rng.randint(0, 6))):
            elems.update((x, G.neg(x)))
        dom = symmetric_domain(G, elems)
        masks = _closed_masks(G, dom)
        greedy = _reference_greedy(masks)
        want = _reference_swaps(masks, greedy)
        swapped += len(want) > len(greedy)
        found = max_packing_set(G, dom)
        assert found.maximality == GREEDY_ONLY and found.nodes == 0
        assert [G.index(x) for x in found.elements] == want, \
            f"case {case}: {moduli} {sorted(dom.elements)}"
    assert swapped >= 10


def test_large_cyclic_greedy_and_check():
    # 65536 vertices: far above the search cap; multiples of 3 are greedy's.
    # The clique {0, 1, 2} would prove 21845 = 65536 // 3 maximal, but the
    # certificate runs on the exact-search path only
    G = make_group([65536])
    dom = symmetric_domain(G, [0, 1, -1, 2, -2])
    found = max_packing_set(G, dom)
    assert found.maximality == GREEDY_ONLY and found.nodes == 0
    assert found.size == 21845 == G.order // 3
    assert packing_bound(G, dom, found).value == Fraction(65536, 21845)


# every finite abelian group of order at most 16, in invariant factors
_SMALL_GROUPS = [[n] for n in range(1, 17)] + [
    [2, 2], [2, 4], [2, 2, 2], [3, 3], [2, 6], [2, 8], [4, 4], [2, 2, 4],
    [2, 2, 2, 2]]


def test_certified_sets_match_bitmask_oracle():
    # a proven maximum is the true maximum whether the clique certificate
    # or the search proved it; a certified set is the greedy set, with 0
    # nodes, also under a node limit that cuts most searches
    rng = random.Random(90506)
    certified = searched = 0
    for moduli in _SMALL_GROUPS:
        G = make_group(moduli)
        for case in range(8):
            elems = {G.identity()}
            for x in rng.sample(G.elements(), min(G.order, rng.randint(0, 5))):
                elems.update((x, G.neg(x)))
            dom = symmetric_domain(G, elems)
            want = _brute_max_packing(G, dom)
            greedy = _reference_greedy(_closed_masks(G, dom))
            for limit in (5, 20_000):
                found = max_packing_set(G, dom, SearchBudget(node_limit=limit))
                where = f"{moduli} {sorted(dom.elements)} limit {limit}"
                if found.maximality == PROVEN_MAX:
                    assert found.size == want, where
                if found.nodes == 0:
                    assert found.maximality == PROVEN_MAX, where
                    assert [G.index(x) for x in found.elements] == greedy, \
                        where
                    certified += 1
                else:
                    searched += 1
            assert found.maximality == PROVEN_MAX
    assert certified >= 300 and searched >= 30


def test_hypercube_difference_set_is_certified_at_once():
    # H - H for the basis H of Z_2^8: greedy finds 32 points, and the star
    # {0} + {e_1 + e_j} is a clique of 8, so 256 / 8 = 32 caps any packing
    k = 8
    G = make_group([2] * k)
    basis = [tuple(int(i == j) for j in range(k)) for i in range(k)]
    dom = tl.difference_set(G, basis)
    found = max_packing_set(G, dom, SearchBudget(node_limit=20_000))
    assert (found.size, found.maximality, found.nodes) == (32, PROVEN_MAX, 0)
    assert check_packing_set(G, dom, found.elements) == (True, None)


def test_cyclic_interval_is_certified_at_once():
    # Z_12 with {0, +-1}: greedy takes the 6 even points, and the clique
    # {0, 1} caps any packing at 12 / 2 = 6
    G = make_group([12])
    dom = symmetric_domain(G, [0, 1, -1])
    found = max_packing_set(G, dom)
    assert (found.size, found.maximality, found.nodes) == (6, PROVEN_MAX, 0)


def test_search_reports_its_node_count(monkeypatch):
    # Z_17 with {0, +-5}: greedy 7, maximum 8, and Omega's largest clique
    # has 2 vertices, too few to prove 7 maximal, so the search runs
    G = make_group([17])
    dom = symmetric_domain(G, [0, 5, -5])
    full = max_packing_set(G, dom)
    assert full.maximality == PROVEN_MAX and full.size == 8
    assert full.nodes > 0
    for limit in (1, full.nodes // 2, full.nodes - 1):
        cut = max_packing_set(G, dom, SearchBudget(node_limit=limit))
        assert cut.maximality == GREEDY_ONLY
        assert 0 < cut.nodes <= limit + 1
    # above the vertex cap no search runs at all
    import turanlab.packing as packing
    monkeypatch.setattr(packing, "EXACT_SEARCH_VERTEX_CAP", 8)
    assert max_packing_set(G, dom).nodes == 0


def test_check_tiling_hand_cases():
    G8 = make_group([8])
    assert check_tiling(G8, [0, 1, 4, 5], [0, 2]) == (True, 1)
    G4 = make_group([4])
    assert check_tiling(G4, [0, 1], [0, 2]) == (True, 1)
    assert check_tiling(G4, [0, 1], [0, 1]) == (False, None)


def test_tiling_bound_paper_case():
    G = make_group([8])
    dom = symmetric_domain(G, [0, 1, 3, 4, 5, 7])
    rep = tiling_bound(G, dom, [0, 1, 4, 5], [0, 2])
    assert rep.value == Fraction(4)
    assert rep.exact
    assert rep.certificate["tiles"] is True


def test_tiling_bound_rejections():
    G = make_group([8])
    dom = symmetric_domain(G, [0, 1, 3, 4, 5, 7])
    # domain point 3 is not a difference of {0, 1}
    with pytest.raises(CertificateInvalidError, match="not a difference"):
        tiling_bound(G, dom, [0, 1], [0, 2])
    G4 = make_group([4])
    d4 = symmetric_domain(G4, [0, 1, 3])
    with pytest.raises(CertificateInvalidError, match="overlap"):
        tiling_bound(G4, d4, [0, 1], [0, 1])


def test_tiling_bound_packing_only_branch():
    # translates disjoint but not covering: value falls back to |G|/|Lambda|
    G = make_group([6])
    dom = symmetric_domain(G, [0, 1, 5])
    rep = tiling_bound(G, dom, [0, 1], [0])
    assert rep.value == Fraction(6)
    assert rep.certificate["tiles"] is False


def test_random_subgroup_transversals_tile():
    rng = random.Random(90502)
    for _ in range(80):
        G = make_group([rng.randint(2, 5), rng.randint(2, 5)])
        K = tl.subgroup_generated(G, rng.sample(G.elements(), 1))
        _Q, project = tl.quotient_group(G, K)
        reps = {}
        for x in G.elements():
            reps.setdefault(project(x), x)
        flag, level = check_tiling(G, sorted(K.elements), list(reps.values()))
        assert flag and level == 1
