"""Spectra: zero sets, the two characterizations, search, bounds."""
from __future__ import annotations

import itertools
import random

import pytest

import turanlab as tl
from turanlab import (
    CertificateInvalidError,
    SearchBudget,
    compare_bounds,
    find_spectrum,
    is_spectrum,
    make_group,
    spectral_bound,
    symmetric_domain,
    transform_zero_set,
)


def test_transform_zero_set_hand_case():
    # indicator of {0,4} in Z8 transforms to 1 + (-1)^t
    G = make_group([8])
    zeros, diag = transform_zero_set(G, [0, 4])
    assert zeros == [(1,), (3,), (5,), (7,)]
    assert diag["min_nonzero_mag"] == pytest.approx(2.0)


def test_is_spectrum_hand_cases():
    G = make_group([4])
    assert is_spectrum(G, [0, 2], [0, 1]).flag
    assert not is_spectrum(G, [0, 2], [0, 2]).flag
    assert not is_spectrum(G, [0, 1], [0]).flag  # size mismatch
    with pytest.raises(ValueError):
        is_spectrum(G, [], [0])


def test_find_spectrum_hand_cases():
    G = make_group([4])
    search = find_spectrum(G, [0, 1])
    assert search.candidate is not None
    assert search.candidate.T == ((0,), (2,))
    assert search.candidate.verified
    # singletons are trivially spectral
    single = find_spectrum(G, [2])
    assert single.candidate.T == ((0,),)


def test_find_spectrum_needs_a_nonempty_base_set():
    # an empty H has no spectrum to look for
    with pytest.raises(ValueError, match="nonempty"):
        find_spectrum(make_group([8]), [])


def test_find_spectrum_certifies_absence():
    G = make_group([8])
    search = find_spectrum(G, [0, 1, 3])
    assert search.candidate is None
    assert search.exhausted


def test_find_spectrum_budget_cut_is_inconclusive():
    G = make_group([2] * 4)
    H = [G.element(1 << i) for i in range(4)]
    search = find_spectrum(G, H, SearchBudget(node_limit=2))
    assert search.candidate is None
    assert not search.exhausted


def test_find_spectrum_time_limit_cut_is_inconclusive():
    # no spectrum; proving that takes 1885 nodes, and the clock is read
    # every 1024
    G = make_group([2] * 8)
    H = [G.element(i) for i in
         (14, 53, 83, 108, 118, 136, 143, 167, 172, 179, 197, 208)]
    full = find_spectrum(G, H)
    assert full.candidate is None and full.exhausted and full.nodes > 1024
    cut = find_spectrum(G, H, SearchBudget(time_limit=0))
    assert cut.candidate is None
    assert not cut.exhausted
    assert cut.nodes == 1024


def _brute_has_spectrum(G, H) -> bool:
    """Any |H|-subset through 0 with pairwise differences killing the
    transform? Translation invariance makes the 0 anchor harmless."""
    zeros = set(transform_zero_set(G, H)[0])
    others = [x for x in G.elements() if x != G.identity()]
    h = len(set(H))
    if h == 1:
        return True
    for rest in itertools.combinations(others, h - 1):
        T = (G.identity(),) + rest
        if all(G.sub(a, b) in zeros
               for a, b in itertools.combinations(T, 2)):
            return True
    return False


def test_find_spectrum_matches_brute_force():
    rng = random.Random(90601)
    for case in range(120):
        moduli = [rng.randint(2, 12)] if rng.random() < 0.5 else \
            [rng.randint(2, 3), rng.randint(2, 4)]
        G = make_group(moduli)
        size = rng.randint(1, min(4, G.order))
        H = rng.sample(G.elements(), size)
        search = find_spectrum(G, H)
        want = _brute_has_spectrum(G, H)
        got = search.candidate is not None
        assert got == want, f"case {case}: {moduli} H={sorted(H)}"
        if got:
            assert is_spectrum(G, H, search.candidate.T).flag
        else:
            assert search.exhausted


def _reference_spectrum_search(G, H, node_limit):
    """The clique search find_spectrum ran before it shared the packing
    search: from T = {0}, lowest candidate first, include before exclude,
    the exclude branch always pushed. Returns (T indices, exhausted,
    nodes)."""
    h = len(set(H))
    if h == 1:
        return [0], True, 0
    zeros = transform_zero_set(G, H)[0]
    masks = {}

    def neighbours(v):
        if v not in masks:
            x = G.element(v)
            masks[v] = sum(1 << G.index(G.add(x, z)) for z in zeros)
        return masks[v]

    nodes = 0
    stack = [(neighbours(0), (0,))]
    while stack:
        nodes += 1
        if nodes > node_limit:
            return None, False, nodes
        cand, chosen = stack.pop()
        if len(chosen) == h:
            return list(chosen), True, nodes
        if len(chosen) + cand.bit_count() < h:
            continue
        low = cand & -cand
        v = low.bit_length() - 1
        stack.append((cand ^ low, chosen))
        stack.append((cand & neighbours(v), chosen + (v,)))
    return None, True, nodes


def _random_base_set(rng, G):
    k = rng.randint(2, 8)
    kind = rng.randrange(4)
    if kind == 0:
        return rng.sample(G.elements(), min(k, G.order))
    if kind == 1:
        # a shifted arithmetic progression
        step, start = rng.choice(G.elements()), rng.choice(G.elements())
        return list(dict.fromkeys(G.canon([a + j * b for a, b in
                                           zip(start, step)])
                                  for j in range(k)))
    if kind == 2:
        # a subset of the 0/1 cube
        return list({G.canon([rng.randint(0, 1) for _ in G.moduli])
                     for _ in range(k)})
    # two translates of a cyclic subgroup
    K = tl.subgroup_generated(G, [rng.choice(G.elements())]).elements
    shifts = rng.sample(G.elements(), 2)
    return list({G.add(s, x) for s in shifts for x in K})


def test_find_spectrum_matches_reference_clique_search():
    # same (T, exhausted, nodes) as the clique search, with and without
    # node-budget cuts
    rng = random.Random(90603)
    cut = 0
    for case in range(220):
        while True:
            moduli = [rng.randint(2, 64) for _ in range(rng.randint(1, 3))]
            G = make_group(moduli)
            if G.order <= 512:
                break
        H = _random_base_set(rng, G)
        limit = rng.choice([5, 50, 500, 100_000])
        T, exhausted, nodes = _reference_spectrum_search(G, H, limit)
        cut += not exhausted
        search = find_spectrum(G, H, SearchBudget(node_limit=limit))
        got = None if search.candidate is None else \
            [G.index(x) for x in search.candidate.T]
        assert (got, search.exhausted, search.nodes) == \
            (T, exhausted, nodes), f"case {case}: {moduli} H={H} {limit}"
    assert cut >= 20


def test_spectral_bound_hand_case():
    G = make_group([4])
    dom = symmetric_domain(G, [0, 1, 3])
    rep = spectral_bound(G, dom, [0, 1], [0, 2])
    assert rep.as_float() == 2.0
    assert rep.direction == "upper"


def test_spectral_bound_rejections():
    G = make_group([4])
    wide = symmetric_domain(G, [0, 2])
    with pytest.raises(CertificateInvalidError, match="not a difference"):
        spectral_bound(G, wide, [0, 1], [0, 2])
    dom = symmetric_domain(G, [0, 1, 3])
    with pytest.raises(CertificateInvalidError, match="not a spectrum"):
        spectral_bound(G, dom, [0, 1], [0, 1])


def test_subgroups_always_have_spectra():
    rng = random.Random(90602)
    for _ in range(100):
        G = make_group([rng.randint(2, 6), rng.randint(2, 6)])
        K = tl.subgroup_generated(G, rng.sample(G.elements(), 1))
        H = sorted(K.elements, key=G.index)
        search = find_spectrum(G, H)
        assert search.candidate is not None, f"{G.moduli} {H}"
        assert is_spectrum(G, H, search.candidate.T).flag


def test_compare_bounds_squeeze():
    G = make_group([8])
    dom = symmetric_domain(G, [0, 1, 3, 4, 5, 7])
    reports = compare_bounds(
        G, dom,
        hints={"H": [[0, 1, 4, 5]], "Lambda": [[0, 2]], "K": [[(2,)]]})
    assert tl.bounds_consistent(reports, 1e-6)
    top = tl.best_upper(reports)
    assert top.as_float() == pytest.approx(4.0, abs=1e-6)
    assert top.certificate.get("minimum") is True
    assert reports[0] is top  # uppers come first, best first
    methods = {r.method for r in reports}
    assert {"trivial", "packing", "tiling", "lp", "lp-witness"} <= methods
    low = tl.best_lower(reports)
    assert low.as_float() == pytest.approx(4.0, abs=1e-6)
    auto = [r for r in reports if r.method == "packing"
            and "maximality" in r.certificate]
    assert auto and auto[0].certificate["maximality"] == tl.PROVEN_MAX


def test_compare_bounds_skips_bad_hints():
    G = make_group([8])
    dom = symmetric_domain(G, [0, 1, 3, 4, 5, 7])
    reports = compare_bounds(G, dom, hints={"Lambda": [[0, 1]]})
    # the broken packing hint vanishes instead of poisoning the run
    assert all(r.certificate.get("Lambda") != [(0,), (1,)] for r in reports)
    assert tl.bounds_consistent(reports, 1e-6)
