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
