"""Packing sets, exact search, tilings.

The search oracle enumerates every subset of the group by bitmask for
|G| <= 12, so the branch and bound answer is compared against a truly
independent maximum.
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


def test_check_packing_set_hand_cases():
    G = make_group([8])
    dom = symmetric_domain(G, [0, 1, 3, 4, 5, 7])
    ok, pair = check_packing_set(G, dom, [0, 2])
    assert ok and pair is None
    ok, pair = check_packing_set(G, dom, [0, 1])
    assert not ok
    assert set(pair) == {(0,), (1,)}


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


def test_search_reports_its_node_count(monkeypatch):
    G = make_group([12])
    dom = symmetric_domain(G, [0, 1, 11])
    full = max_packing_set(G, dom)
    assert full.maximality == PROVEN_MAX
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
