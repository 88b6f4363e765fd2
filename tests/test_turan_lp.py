"""LP solves against closed forms and an exact vertex oracle.

The oracle restricts moduli so every character real part is a rational
from the cosine table of lcm in {1,2,3,4,6}; the bound-form polytope
{y : every transform value >= 0} then has exact rational vertices, and
enumerating all of them gives an independent optimum to compare with.
"""
from __future__ import annotations

import dataclasses
import itertools
import json
import math
import random
from fractions import Fraction
from functools import lru_cache

import numpy as np
import pytest

import turanlab as tl
from turanlab import (
    CertificateInvalidError,
    WitnessRejectedError,
    build_lp_problem,
    make_group,
    solve_lp,
    symmetric_domain,
    turan_constant,
    verify_dual_certificate,
    witness_ratio,
)
from turanlab.config import LP_GROUP_ORDER_CAP

# cos(2 pi k / L) for the moduli where it is rational
_COS = {
    1: [Fraction(1)],
    2: [Fraction(1), Fraction(-1)],
    3: [Fraction(1), Fraction(-1, 2), Fraction(-1, 2)],
    4: [Fraction(1), Fraction(0), Fraction(-1), Fraction(0)],
    6: [Fraction(1), Fraction(1, 2), Fraction(-1, 2), Fraction(-1),
        Fraction(-1, 2), Fraction(1, 2)],
}


@lru_cache(maxsize=None)
def _rational_shapes(max_order: int) -> tuple[tuple[int, ...], ...]:
    """Factor tuples over {2,3,4,6} whose lcm keeps cosines rational."""
    out = []
    pool = [2, 3, 4, 6]

    def rec(prefix, order):
        for m in pool:
            if order * m > max_order:
                continue
            nxt = prefix + (m,)
            if math.lcm(*nxt) in (2, 3, 4, 6):
                out.append(nxt)
                rec(nxt, order * m)

    rec((), 1)
    return tuple(out)


def _pair_representatives(G, elems):
    """(representative, pair size) per negation pair {x, -x} of ``elems``,
    0 skipped, the first member of each pair in enumeration order."""
    chosen, seen = [], set()
    for x in sorted(elems, key=G.index):
        if x == G.identity() or x in seen:
            continue
        nx = G.neg(x)
        seen.update((x, nx))
        chosen.append((x, 1 if nx == x else 2))
    return chosen


def _det(M):
    n = len(M)
    if n == 1:
        return M[0][0]
    return sum((-1) ** j * M[0][j] * _det(
        [row[:j] + row[j + 1:] for row in M[1:]]) for j in range(n))


def _vertex_oracle(G, domain) -> Fraction:
    """Exact optimum of max 1 + sum m_r y_r over {1 + sum s_r(t) y_r >= 0}.

    s_r(t) = m_r Re chi_t(x_r) is rational for these groups, |y_r| <= 1
    keeps the region bounded, and y = 0 is interior, so the optimum sits
    on a vertex spanned by p active rows.
    """
    L = math.lcm(*G.moduli)
    pairs = _pair_representatives(G, domain.elements)
    p = len(pairs)
    if p == 0:
        return Fraction(1)
    rows = []
    for t in G.elements():
        row = []
        for x, mult in pairs:
            k = sum(ti * xi * (L // m) for ti, xi, m
                    in zip(t, x, G.moduli)) % L
            row.append(mult * _COS[L][k])
        rows.append(row)
    w = [Fraction(mult) for _x, mult in pairs]
    best = None
    for subset in itertools.combinations(range(len(rows)), p):
        A = [rows[i] for i in subset]
        det = _det(A)
        if det == 0:
            continue
        y = []
        for j in range(p):
            Aj = [row[:] for row in A]
            for i in range(p):
                Aj[i][j] = Fraction(-1)
            y.append(Fraction(_det(Aj), det))
        if any(Fraction(1) + sum(r_k * y_k for r_k, y_k in zip(row, y)) < 0
               for row in rows):
            continue
        val = Fraction(1) + sum(wq * yq for wq, yq in zip(w, y))
        if best is None or val > best:
            best = val
    assert best is not None, "oracle polytope lost its vertices"
    return best


def test_problem_shape():
    G = make_group([8])
    dom = symmetric_domain(G, [0, 1, 3, 4, 5, 7])
    prob = build_lp_problem(G, dom)
    assert prob.n_vars == 3          # pairs {1,7}, {3,5}, {4}
    assert prob.n_rows == 5          # 0, {1,7}, {2,6}, {3,5}, {4}


def test_exact_mode_needs_two_groups():
    G = make_group([3])
    dom = symmetric_domain(G, [0])
    with pytest.raises(ValueError, match="exact mode"):
        solve_lp(build_lp_problem(G, dom), mode="exact-rational")
    with pytest.raises(ValueError, match="exact mode"):
        turan_constant(G, dom, mode="exact-rational")
    with pytest.raises(ValueError):
        solve_lp(build_lp_problem(G, dom), mode="nonsense")


def test_z8_paper_instance():
    G = make_group([8])
    dom = symmetric_domain(G, [0, 1, 3, 4, 5, 7])
    sol = turan_constant(G, dom)
    assert sol.status == "optimal"
    assert sol.value == pytest.approx(4.0, abs=1e-9)
    assert sol.gap <= 1e-9
    back = witness_ratio(sol.f, dom)
    assert back.as_float() == pytest.approx(4.0, abs=1e-6)


def test_z10_odd_domain():
    G = make_group([10])
    dom = symmetric_domain(G, [0, 1, 3, 5, 7, 9])
    assert turan_constant(G, dom).value == pytest.approx(2.0, abs=1e-9)


def test_zero_domain_and_full_domain():
    rng = random.Random(90401)
    for _ in range(50):
        G = make_group([rng.randint(2, 8)])
        assert turan_constant(G, symmetric_domain(G, [0])).value == \
            pytest.approx(1.0, abs=1e-12)
        full = symmetric_domain(G, G.elements())
        assert turan_constant(G, full).value == pytest.approx(
            float(G.order), abs=1e-8)


def test_lp_matches_vertex_oracle():
    rng = random.Random(90402)
    for case in range(120):
        shapes = _rational_shapes(24)
        G = make_group(list(rng.choice(shapes)))
        nonzero = [x for x in G.elements() if x != G.identity()]
        elems = {G.identity()}
        for x in rng.sample(nonzero, min(len(nonzero), rng.randint(1, 3))):
            elems.add(x)
            elems.add(G.neg(x))
        dom = symmetric_domain(G, elems)
        if len(_pair_representatives(G, dom.elements)) > 3:
            continue  # keep the subset enumeration small
        sol = turan_constant(G, dom)
        want = _vertex_oracle(G, dom)
        assert sol.status == "optimal"
        assert abs(sol.value - float(want)) <= 1e-6, \
            f"case {case}: {G.moduli} {sorted(dom.elements)}: " \
            f"lp {sol.value} oracle {float(want)}"


def test_exact_rational_mode_matches_oracle():
    rng = random.Random(90403)
    for case in range(60):
        G = make_group([2] * rng.randint(1, 4))
        nonzero = [x for x in G.elements() if x != G.identity()]
        elems = {G.identity()} | set(rng.sample(nonzero, min(len(nonzero), 3)))
        dom = symmetric_domain(G, elems)  # every element self inverse
        sol = turan_constant(G, dom, mode="exact-rational")
        assert sol.status == "optimal"
        assert isinstance(sol.exact_value, Fraction)
        want = _vertex_oracle(G, dom)
        assert sol.exact_value == want, f"case {case}: {sorted(dom.elements)}"
        assert sol.value == pytest.approx(float(want), abs=1e-12)
        assert sol.gap == 0


def test_witness_round_trip_random():
    rng = random.Random(90404)
    for _ in range(150):
        moduli = [rng.randint(2, 9) for _ in range(rng.randint(1, 2))]
        G = make_group(moduli)
        nonzero = [x for x in G.elements() if x != G.identity()]
        elems = {G.identity()}
        for x in rng.sample(nonzero, min(len(nonzero), rng.randint(0, 4))):
            elems.add(x)
            elems.add(G.neg(x))
        dom = symmetric_domain(G, elems)
        sol = turan_constant(G, dom)
        rep = witness_ratio(sol.f, dom)
        assert rep.direction == "lower"
        assert rep.as_float() >= sol.value - 1e-6
        assert rep.as_float() <= sol.value + 1e-6


def test_witness_rejections():
    G = make_group([8])
    dom = symmetric_domain(G, [0, 1, 7])
    with pytest.raises(WitnessRejectedError, match="leaks outside"):
        witness_ratio(tl.from_dict(G, {(0,): 1.0, (2,): 0.5, (6,): 0.5}), dom)
    with pytest.raises(WitnessRejectedError, match="dips"):
        witness_ratio(tl.from_dict(G, {(0,): 1.0, (1,): 0.9, (7,): 0.9}), dom)
    with pytest.raises(WitnessRejectedError, match="f\\(0\\)"):
        witness_ratio(tl.from_dict(G, {(1,): 1.0, (7,): 1.0}), dom)


def test_dual_certificate_round_trip_and_tamper():
    G = make_group([8])
    dom = symmetric_domain(G, [0, 1, 3, 4, 5, 7])
    sol = turan_constant(G, dom)
    bound = verify_dual_certificate(sol.problem, sol.dual)
    assert bound == pytest.approx(sol.value, abs=1e-6)
    bad = np.array(sol.dual, dtype=float)
    bad[0] += 0.25  # breaks the row combination identity
    with pytest.raises(CertificateInvalidError):
        verify_dual_certificate(sol.problem, bad)
    with pytest.raises(CertificateInvalidError):
        verify_dual_certificate(sol.problem, -np.ones(sol.problem.n_rows))


def test_certificate_arithmetic_follows_the_weights():
    """Fraction weights are checked exactly and prove a Fraction bound;
    the same weights as floats are checked in float."""
    G, dom = _hh_domain(4)
    sol = turan_constant(G, dom, mode="exact-rational")
    assert all(isinstance(v, Fraction) for v in sol.dual)
    exact = verify_dual_certificate(sol.problem, sol.dual)
    assert isinstance(exact, Fraction) and exact == sol.exact_value == 4
    floats = verify_dual_certificate(sol.problem, [float(v) for v in sol.dual])
    assert type(floats) is float
    assert floats == pytest.approx(4.0, abs=1e-9)


def test_subgroup_and_quotient_bounds_z10():
    G = make_group([10])
    dom = symmetric_domain(G, [0, 1, 3, 5, 7, 9])
    K = tl.subgroup_generated(G, [2])
    sb = tl.subgroup_bound(G, dom, K)
    assert sb.direction == "upper"
    assert sb.as_float() == pytest.approx(2.0, abs=1e-9)
    qb = tl.quotient_bound(G, dom, K)
    assert qb.as_float() == pytest.approx(2.0, abs=1e-9)


def test_product_constant_paper_pair():
    G1 = make_group([8])
    d1 = symmetric_domain(G1, [0, 1, 3, 4, 5, 7])
    G2 = make_group([4])
    d2 = symmetric_domain(G2, [0, 1, 3])
    sol = tl.product_constant(G1, d1, G2, d2)
    assert sol.value == pytest.approx(8.0, abs=1e-6)


def test_automorphism_image_constant():
    G = make_group([12])
    dom = symmetric_domain(G, [0, 1, 3, 9, 11])
    base = turan_constant(G, dom).value
    moved = tl.automorphism_image_constant(G, dom, [(5,)]).value
    assert moved == pytest.approx(base, abs=1e-9)


def test_order_cap_falls_back_to_trivial_bracket():
    G = make_group([LP_GROUP_ORDER_CAP + 1])
    dom = symmetric_domain(G, [0, 1, LP_GROUP_ORDER_CAP])
    sol = turan_constant(G, dom)
    assert sol.status == "budget-exceeded"
    assert sol.value == 3.0
    assert sol.f is None
    assert "over cap" in sol.diagnostics["reason"]


def _random_lp_group(rng):
    """Small product groups over moduli {2, 3, 4, 5, 6, 12}."""
    if rng.random() < 0.3:
        return make_group([2] * rng.randint(1, 9))
    moduli = []
    order = 1
    for _ in range(rng.randint(1, 4)):
        m = rng.choice([2, 3, 4, 5, 6, 12])
        if order * m > 720:
            break
        moduli.append(m)
        order *= m
    return make_group(moduli or [rng.choice([2, 3, 4, 5, 6, 12])])


def _random_domain(rng, G, pairs):
    nonzero = [x for x in G.elements() if x != G.identity()]
    elems = {G.identity()}
    for x in rng.sample(nonzero, min(len(nonzero), pairs)):
        elems.add(x)
        elems.add(G.neg(x))
    return symmetric_domain(G, elems)


def _pair_problem(G, dom):
    """The program over negation pairs alone, as built before the orbit
    reduction: one variable per pair of the domain, one row per pair of
    characters, written with one pair per orbit."""
    from turanlab import LPProblem
    from turanlab.groups import digits, flat, negation_pairs
    from turanlab.harmonic import _root_table

    mods = G.moduli
    N = math.lcm(*mods)
    pairs = _pair_representatives(G, dom.elements)
    pair_coords = np.array([x for x, _s in pairs],
                           dtype=np.int64).reshape(len(pairs), len(mods))
    reps, sizes = negation_pairs(mods, np.arange(G.order))
    dual_index = np.concatenate(([0], reps))
    scale = np.array([N // m for m in mods], dtype=np.int64)
    return LPProblem(
        G, dom,
        sizes=np.array([s for _x, s in pairs], dtype=np.int64),
        phase_x=pair_coords * scale,
        pair_index=flat(mods, pair_coords),
        pair_neg_index=flat(mods, -pair_coords),
        orbit_start=np.arange(len(pairs)),
        dual_coords=digits(mods, dual_index).astype(
            np.min_scalar_type(max(mods, default=1))),
        dual_sizes=np.concatenate(([1], sizes)),
        dual_index=dual_index,
        row_order=np.arange(len(dual_index)),
        row_start=np.arange(len(dual_index)),
        cos_table=np.ascontiguousarray(_root_table(N).real))


def _swap(x, i, j):
    y = list(x)
    y[i], y[j] = y[j], y[i]
    return tuple(y)


def _closure(G, start, swaps):
    """The union of the orbits of ``start`` under -1 and the coordinate
    swaps, by breadth-first search on tuples."""
    seen = set(start)
    todo = list(seen)
    while todo:
        x = todo.pop()
        for y in [G.neg(x)] + [_swap(x, i, j) for i, j in swaps]:
            if y not in seen:
                seen.add(y)
                todo.append(y)
    return seen


def _random_swaps(rng, moduli):
    """Adjacent swaps that generate every permutation of random blocks of
    coordinates with equal moduli."""
    swaps = []
    for m in sorted(set(moduli)):
        coords = [j for j, mj in enumerate(moduli) if mj == m]
        rng.shuffle(coords)
        while coords:
            block = sorted(coords[:rng.randint(1, len(coords))])
            coords = coords[len(block):]
            swaps += list(zip(block, block[1:]))
    return swaps


def _orbit_union_domain(rng, G, seeds):
    """0 and the orbits of ``seeds`` random elements under -1 and the
    permutations of random blocks of equal-modulus coordinates."""
    nonzero = [x for x in G.elements() if x != G.identity()]
    start = [G.identity()] + rng.sample(nonzero, min(len(nonzero), seeds))
    return symmetric_domain(G, _closure(G, start, _random_swaps(rng, G.moduli)))


def _pairs_of_orbit(prob, o):
    """The pairs of variable orbit o, read off ``orbit_start``."""
    stop = np.append(prob.orbit_start, len(prob.sizes))[o + 1]
    return range(prob.orbit_start[o], stop)


def _pairs_of_row(prob, r):
    """The character pairs of row r, read off ``row_start``."""
    stop = np.append(prob.row_start, len(prob.row_order))[r + 1]
    return prob.row_order[prob.row_start[r]:stop]


def _orbit_pairs(prob):
    """The pairs of each variable orbit, in order."""
    return [[(prob.group.element(int(prob.pair_index[q])), int(prob.sizes[q]))
             for q in _pairs_of_orbit(prob, o)]
            for o in range(prob.n_vars)]


def test_rows_match_transform_of_a_delta():
    """Row r holds, per variable orbit, the sum over the orbit's pairs of
    pair size times the transform of a delta at the row's least
    character; the domains are unions of orbits of coordinate swaps."""
    rng = random.Random(90405)
    merged = 0
    for case in range(80):
        G = _random_lp_group(rng)
        prob = build_lp_problem(G, _orbit_union_domain(rng, G,
                                                       rng.randint(1, 8)))
        merged += prob.n_vars < len(prob.sizes)
        assert prob.dual_pairs == [(G.identity(), 1)] + \
            _pair_representatives(G, G.elements())
        quarter = all(m in (1, 2, 4) for m in G.moduli)
        for r, t in enumerate(prob.row_index.tolist()):
            re = tl.dft(tl.from_dict(G, {G.element(t): 1.0})).values.real
            want = np.array([sum(s * re[G.index(x)] for x, s in orbit)
                             for orbit in _orbit_pairs(prob)])
            got = prob.row(r)
            if quarter:
                # bit for bit; adding 0.0 only merges the two signed zeros
                assert (got + 0.0).tobytes() == (want + 0.0).tobytes(), \
                    f"case {case}: {G.moduli} row {r}"
            else:
                assert np.abs(got - want).max(initial=0.0) <= 1e-12, \
                    f"case {case}: {G.moduli} row {r}"
    assert merged >= 20, "too few cases merged pairs into orbits"


def test_exact_rows_match_sign_transform():
    """Exact mode reads the float rows; on moduli {1, 2} they must equal
    the orbit sums of the integer sign transform exactly, which the exact
    finish relies on."""
    rng = random.Random(90406)
    merged = 0
    for case in range(40):
        G = make_group([2] * rng.randint(1, 8) + [1] * rng.randint(0, 1))
        prob = build_lp_problem(G, _orbit_union_domain(rng, G,
                                                       rng.randint(1, 6)))
        merged += prob.n_vars < len(prob.sizes)
        for r, t in enumerate(prob.row_index.tolist()):
            delta = [0] * G.order
            delta[t] = 1
            re = tl.dft_exact_signs(G, delta)
            want = [sum(s * re[G.index(x)] for x, s in orbit)
                    for orbit in _orbit_pairs(prob)]
            got = prob.row(r)
            assert got.dtype == float
            assert got.tolist() == want, f"case {case}: {G.moduli} row {r}"
    assert merged >= 10, "too few cases merged pairs into orbits"


def _hh_domain(k):
    G = make_group([2] * k)
    return G, tl.difference_set(G, [tuple(int(i == j) for j in range(k))
                                    for i in range(k)])


def _record_pricing(monkeypatch):
    """Wrap the price callback that the solver hands to the simplex; the
    list collects (pi, offered rows) per call."""
    from turanlab import turan_lp

    calls = []
    real = turan_lp.solve_column_lp

    def spy(w, initial, price, **kwargs):
        p = len(w)

        def recording(pi):
            out = price(pi)
            calls.append((np.array(pi), [cid - 2 * p for cid, _v in out]))
            return out

        return real(w, initial, recording, **kwargs)

    monkeypatch.setattr(turan_lp, "solve_column_lp", spy)
    return calls


# (rng seed, seed elements) of the orbit-union domains under the swaps
# (0 1) and (2 3) that the pricing test runs on Z_2^k: k = 8 takes five
# rounds, two of them with more than 32 violated rows; k = 6 takes three
_PRICING_DOMAINS = {8: (6, 24), 6: (2, 10)}


def _pricing_domain(k):
    seed, count = _PRICING_DOMAINS[k]
    rng = random.Random(seed)
    G = make_group([2] * k)
    nonzero = [x for x in G.elements() if x != G.identity()]
    start = [G.identity()] + rng.sample(nonzero, count)
    return G, symmetric_domain(G, _closure(G, start, [(0, 1), (2, 3)]))


@pytest.mark.parametrize("k,mode", [(8, "float"), (6, "exact-rational")])
def test_price_offers_rows_once_in_rc_order(monkeypatch, k, mode):
    """Each round offers the not yet offered violated orbit rows by
    (rc, r), at most 32; rc is recomputed here as 1 + row . pi. Exact
    mode prices with the same float multipliers; there rc is recomputed
    in Fractions of those floats, whose float transform is exact on this
    instance, so the order is checked exactly, ties included. Float mode
    checks the order within rounding. The value is that of the pair-only
    program."""
    G, dom = _pricing_domain(k)
    exact = mode == "exact-rational"
    want = solve_lp(_pair_problem(G, dom), mode)
    calls = _record_pricing(monkeypatch)
    prob = build_lp_problem(G, dom)
    assert prob.n_vars < len(prob.sizes) and prob.n_rows < len(prob.dual_index)
    sol = solve_lp(prob, mode)
    assert sol.status == "optimal"
    assert sol.value == pytest.approx(want.value, abs=1e-9)
    if exact:
        assert sol.exact_value == want.exact_value
    tol = 1e-9
    seen: set[int] = set()
    capped = False
    for pi, rows in calls:
        assert pi.dtype == float
        assert len(rows) <= 32
        assert not seen & set(rows), "a row was offered twice"
        if exact:
            rc = [1 + sum(Fraction(a) * Fraction(y)
                          for a, y in zip(prob.row(r), pi))
                  for r in range(prob.n_rows)]
        else:
            rc = [1 + np.dot(prob.row(r), pi) for r in range(prob.n_rows)]
        cand = sorted((rc[r], r) for r in range(prob.n_rows)
                      if r not in seen and rc[r] < -tol)
        assert len(rows) == min(32, len(cand))
        capped |= len(cand) > 32
        if exact:
            assert rows == [r for _rc, r in cand[:32]]
        else:
            got = [rc[r] for r in rows]
            assert all(a <= b + 1e-11 for a, b in zip(got, got[1:]))
            rest = [v for v, r in cand if r not in rows]
            assert not rest or max(got) <= min(rest) + 1e-11
        seen.update(rows)
    assert calls[-1][1] == []
    if not exact:
        assert capped, "no round had more than 32 violated rows"


def _random_product_group(rng):
    """Z_2^k, Z_3^k or Z_4^k, or a product of mixed moduli; rank 1 to 12,
    order at most 4096."""
    shape = rng.randrange(3)
    if shape == 0:
        return make_group([2] * rng.randint(1, 12))
    if shape == 1:
        m = rng.choice([3, 4])
        return make_group([m] * rng.randint(1, 7 if m == 3 else 6))
    moduli = [rng.choice([2, 3, 4])]
    while len(moduli) < 12 and rng.random() < 0.85:
        m = rng.choice([2, 3, 4, 5, 6])
        if math.prod(moduli) * m > 4096:
            break
        moduli.append(m)
    return make_group(moduli)


def _same_solution(got, want):
    assert got.status == want.status
    assert repr(got.value) == repr(want.value)
    assert repr(got.gap) == repr(want.gap)
    assert got.dual.dtype == want.dual.dtype
    if got.dual.dtype == object:
        assert [(type(v), v) for v in got.dual] == \
            [(type(v), v) for v in want.dual]
    else:
        assert got.dual.tobytes() == want.dual.tobytes()
    assert got.f.values.tobytes() == want.f.values.tobytes()
    assert got.diagnostics == want.diagnostics
    assert got.exact_value == want.exact_value


def test_no_symmetry_solves_as_pairs():
    """Where no coordinate swap fixes the domain, every orbit is a
    negation pair: the problem equals the pair-only one array for array,
    and the float solve, and on Z_2^k the exact solve, match it byte for
    byte."""
    from turanlab.groups import fixing_transpositions

    rng = random.Random(90411)
    solved = exact = 0
    while solved < 36:
        G = _random_product_group(rng)
        dom = _random_domain(rng, G, rng.randint(1, 30))
        omega = sorted(G.index(x) for x in dom.elements)
        if len(fixing_transpositions(G.moduli, omega)):
            continue
        solved += 1
        prob, ref = build_lp_problem(G, dom), _pair_problem(G, dom)
        for f in dataclasses.fields(prob):
            got, want = getattr(prob, f.name), getattr(ref, f.name)
            if isinstance(want, np.ndarray):
                assert got.dtype == want.dtype, f.name
                assert np.array_equal(got, want), f"{G.moduli}: {f.name}"
            else:
                assert got == want, f.name
        modes = ["float"]
        if set(G.moduli) == {2}:
            modes.append("exact-rational")
            exact += 1
        for mode in modes:
            _same_solution(solve_lp(prob, mode), solve_lp(ref, mode))
    assert exact >= 5


def test_orbit_reduction_keeps_the_value():
    """On unions of orbits of coordinate swaps, the orbit program and the
    pair-only program agree within 1e-9 in float and exactly on Z_2^k;
    every certificate, spread back to the character pairs, passes the
    unchanged checker of either program, and every witness is accepted."""
    rng = random.Random(90412)
    shapes = [[2] * k for k in range(1, 10)] + [[3] * k for k in range(1, 6)] \
        + [[4] * k for k in range(1, 5)] \
        + [[2, 2, 3, 3], [2, 2, 4, 4], [3, 3, 4, 4], [2, 3, 3, 3], [4, 4, 2]]
    merged = 0
    for case in range(60):
        G = make_group(rng.choice(shapes))
        dom = _orbit_union_domain(rng, G, rng.randint(1, 6))
        red, full = build_lp_problem(G, dom), _pair_problem(G, dom)
        merged += red.n_vars < full.n_vars
        modes = ["float"] + (["exact-rational"] if set(G.moduli) == {2}
                             else [])
        for mode in modes:
            got, want = solve_lp(red, mode), solve_lp(full, mode)
            assert got.status == want.status == "optimal"
            assert abs(got.value - want.value) <= 1e-9, \
                f"case {case}: {G.moduli} {got.value} {want.value}"
            for prob in (red, full):
                bound = verify_dual_certificate(prob, got.dual)
                assert abs(float(bound) - got.value) <= 1e-9
            assert witness_ratio(got.f, dom).as_float() == \
                pytest.approx(got.value, abs=1e-6)
            if mode == "exact-rational":
                assert got.exact_value == want.exact_value
                assert verify_dual_certificate(red, got.dual) == \
                    got.exact_value
    assert merged >= 30, "too few cases merged pairs into orbits"


def test_symmetries_match_a_brute_force_orbit_closure():
    """The kept swaps are exactly those that map the domain onto itself;
    every label is the least flat index of its orbit under -1 and the kept
    swaps; the program's variable and row orbits are those orbits."""
    from turanlab.groups import fixing_transpositions, orbit_labels

    rng = random.Random(90413)
    for case in range(60):
        m = rng.choice([2, 3, 4, 5])
        moduli = [m] * rng.randint(1, {2: 7, 3: 5, 4: 4, 5: 3}[m])
        if rng.random() < 0.3:
            moduli += [rng.choice([2, 3])] * 2
        G = make_group(moduli)
        dom = (_orbit_union_domain(rng, G, rng.randint(1, 5)) if case % 3
               else _random_domain(rng, G, rng.randint(1, 5)))
        omega = sorted(G.index(x) for x in dom.elements)
        kept = fixing_transpositions(G.moduli, omega).tolist()
        want = [[i, j] for i, j in itertools.combinations(range(G.rank), 2)
                if moduli[i] == moduli[j] > 1
                and {_swap(x, i, j) for x in dom.elements} == dom.elements]
        assert kept == want, f"case {case}: {moduli}"

        reps = [0] + [G.index(x) for x, _s in
                      _pair_representatives(G, G.elements())]
        labels = orbit_labels(G.moduli, kept, reps).tolist()
        for t, label in zip(reps, labels):
            orbit = _closure(G, [G.element(t)], kept)
            assert label == min(G.index(y) for y in orbit), \
                f"case {case}: {moduli} {G.element(t)}"

        prob = build_lp_problem(G, dom)
        for orbit in _orbit_pairs(prob):
            members = {y for x, _s in orbit for y in (x, G.neg(x))}
            assert members == _closure(G, [orbit[0][0]], kept)
        for r, t in enumerate(prob.row_index.tolist()):
            chars = {y for q in _pairs_of_row(prob, r).tolist()
                     for y in (G.element(int(prob.dual_index[q])),
                               G.neg(G.element(int(prob.dual_index[q]))))}
            assert chars == _closure(G, [G.element(t)], kept)
            assert prob.row_sizes[r] == len(chars)


@pytest.mark.parametrize("k", range(2, 14))
def test_hypercube_difference_set_is_one_variable(k):
    """Z_2^k with H - H, H the unit vectors: the weight-2 vectors are one
    orbit and the character weights k + 1 orbits, so the program has one
    variable and k + 1 rows. With f = c on the weight-2 vectors the row
    of weight w reads 1 + c ((k - 2w)^2 - k) / 2, least at (k - 2w)^2 = 0
    for even k and 1 for odd k, so the value 1 + c k (k - 1) / 2 is k for
    even k and k + 1 for odd k; it is proven exactly."""
    G, dom = _hh_domain(k)
    prob = build_lp_problem(G, dom)
    assert (prob.n_vars, prob.n_rows) == (1, k + 1)
    sol = solve_lp(prob, "exact-rational")
    assert sol.status == "optimal"
    assert sol.exact_value == k + k % 2
    assert abs(turan_constant(G, dom).value - (k + k % 2)) <= 1e-9


def _one_row(prob, r):
    """Row r as built one row at a time: the pair entries from integer
    phases, then one reduceat over the orbits of a 1-d array."""
    phases = prob.phase_x @ prob.dual_coords[prob.row_rep[r]]
    per_pair = prob.sizes * prob.cos_table[phases % len(prob.cos_table)]
    return np.add.reduceat(per_pair, prob.orbit_start)


def test_batched_rows_stack_the_single_rows():
    """row(rs) for an index array is the stack of row(r), and both equal
    the rows built one at a time, bit for bit. The domains include orbits
    of 9 and more pairs on factors of order 3, whose entries are inexact,
    so summing an orbit in another order would change the bits."""
    rng = random.Random(90416)
    shapes = [[3] * 4, [3] * 5, [3] * 6, [3] * 4 + [2], [3] * 4 + [4],
              [5, 5, 3, 3, 3, 3]]
    long_orbits = 0
    for case in range(40):
        if case % 2:
            # every swap of equal moduli: orbits of up to |S_k| pairs
            G = make_group(rng.choice(shapes))
            swaps = [(i, j) for i, j in itertools.combinations(range(G.rank), 2)
                     if G.moduli[i] == G.moduli[j]]
            start = rng.sample(G.elements(), rng.randint(1, 4))
            dom = symmetric_domain(
                G, _closure(G, [G.identity()] + start, swaps))
        else:
            G = _random_product_group(rng)
            dom = _orbit_union_domain(rng, G, rng.randint(1, 8))
        prob = build_lp_problem(G, dom)
        if prob.n_vars == 0:
            continue
        per_orbit = np.diff(prob.orbit_start, append=len(prob.sizes))
        long_orbits += 3 in G.moduli and per_orbit.max() >= 9
        rs = rng.sample(range(prob.n_rows), min(prob.n_rows, 40)) + [0, 0]
        got = prob.row(np.array(rs))
        assert got.shape == (len(rs), prob.n_vars)
        assert got.tobytes() == np.stack([prob.row(r) for r in rs]).tobytes(), \
            f"case {case}: {G.moduli}"
        assert got.tobytes() == np.stack([_one_row(prob, r)
                                          for r in rs]).tobytes(), \
            f"case {case}: {G.moduli}"
        assert prob.row(np.array([], dtype=np.int64)).shape == (0, prob.n_vars)
    assert long_orbits >= 10, "too few orbits of 9 pairs on order-3 factors"


def _fold_per_pair(problem, lam, q, mu, sign):
    """Box weight mu of pair q folded alone: one pass over every
    character pair, as the certificate did before box runs folded at
    once."""
    re = problem._cos(problem.dual_coords @ problem.phase_x[q])
    if lam.dtype == object:
        re = re.astype(int)
    lam += (mu / problem.group.order) * problem.dual_sizes * (1 - sign * re)


def _spread_per_pair(problem, weights, exact):
    """The certificate spread with one add per character pair of a row
    and one fold per pair of a box orbit."""
    p = problem.n_vars
    if exact:
        lam = np.array([Fraction(0)] * len(problem.dual_index), dtype=object)
    else:
        lam = np.zeros(len(problem.dual_index))
    for cid, mu in weights.items():
        if mu == 0:
            continue
        if cid >= 2 * p:
            r = cid - 2 * p
            size = int(problem.row_sizes[r])
            for t in _pairs_of_row(problem, r).tolist():
                lam[t] += mu * int(problem.dual_sizes[t]) / size
            continue
        o = cid % p
        size = int(problem.orbit_sizes[o])
        for q in _pairs_of_orbit(problem, o):
            _fold_per_pair(problem, lam, q, mu * int(problem.sizes[q]) / size,
                           1 if cid < p else -1)
    return lam


def _assert_matches_per_pair(prob, weights, exact, where):
    """The certificate of two linear maps against the per-pair loop.

    Fractions are exact, so the two agree in value and in type. In float,
    the loop adds each entry's terms one at a time: at most one row term
    and one term per box pair, k in all, every term and every partial sum
    in [0, max|want|]. The two maps form the same terms in one indexed
    add and one product. Round to nearest makes each addition exact to
    half an ulp of its result, and the errors of independent additions
    grow like sqrt(k) rather than k (Higham and Mary, SIAM J. Sci.
    Comput. 41, 2019), so the two entries stay within sqrt(k) ulps of
    max(1, max|want|). With k <= 64 that is never looser than 8 ulps.
    """
    from turanlab.turan_lp import _certificate_from_weights

    got = _certificate_from_weights(prob, weights, exact)
    want = _spread_per_pair(prob, weights, exact)
    assert got.dtype == want.dtype
    if exact:
        assert [(type(v), v) for v in got] == [(type(v), v) for v in want]
        return got, want
    p = prob.n_vars
    k = 1 + sum(len(_pairs_of_orbit(prob, cid % p))
                for cid, mu in weights.items() if cid < 2 * p and mu)
    assert k <= 64, f"{where}: {k} terms"
    scale = max(1.0, np.abs(want).max(initial=0.0))
    err = np.abs(got - want).max(initial=0.0)
    assert err <= math.sqrt(k) * np.finfo(float).eps * scale, \
        f"{where}: {err / (np.finfo(float).eps * scale):.2f} ulps, k = {k}"
    return got, want


def _random_weights(rng, ids, exact):
    """A weight per column id, one in ten of them zero."""
    weights = {}
    for cid in ids:
        if rng.random() < 0.1:
            weights[cid] = 0
        elif exact:
            weights[cid] = Fraction(rng.randint(1, 99), rng.randint(1, 99))
        else:
            weights[cid] = rng.random() * 10 ** rng.randint(-3, 3)
    return weights


def _solved_bases(monkeypatch, rng, count):
    """(problem, basic weights, exact) of real solves on orbit unions and
    on subgroups of Z_2^k and Z_3^k, in float and, on Z_2^k, proven in
    Fractions. A subgroup K is optimal at the start basis, |K| with f the
    indicator of K, so its basis holds box columns only, as in the
    0-pivot subgroup solves of a bound comparison."""
    from turanlab import turan_lp

    results = []
    solve = turan_lp.solve_column_lp

    def keeping(*args, **kwargs):
        results.append(solve(*args, **kwargs))
        return results[-1]

    monkeypatch.setattr(turan_lp, "solve_column_lp", keeping)
    for case in range(count):
        G = make_group([rng.choice([2, 3])] * rng.randint(2, 6))
        if case % 3 == 0:
            K = tl.subgroup_generated(G, rng.sample(G.elements(), 2))
            dom = symmetric_domain(G, K.elements)
        else:
            dom = _orbit_union_domain(rng, G, rng.randint(1, 6))
        prob = build_lp_problem(G, dom)
        if prob.n_vars == 0:
            continue
        assert solve_lp(prob).status == "optimal"
        yield prob, results[-1].weights, False
        if set(G.moduli) == {2}:
            yield prob, turan_lp._exact_basis(prob, results[-1].basis)[0], True


def _check_solved_bases(monkeypatch, seed):
    """Both certificates of every solved basis pass the checker; returns
    how many bases held box columns only."""
    box_only = 0
    for prob, weights, exact in _solved_bases(monkeypatch,
                                              random.Random(seed), 30):
        where = f"{prob.group.moduli} exact={exact}"
        for lam in _assert_matches_per_pair(prob, weights, exact, where):
            bound = verify_dual_certificate(prob, lam)
            assert abs(float(bound) - (1 + float(sum(weights.values())))) \
                <= 1e-9 * prob.group.order, where
        box_only += all(cid < 2 * prob.n_vars for cid in weights)
    return box_only


def test_row_spread_matches_the_per_pair_loop(monkeypatch):
    """Character columns spread by one indexed add match one add per pair:
    equal Fractions, floats within the rounding of the per-pair order,
    with box columns between runs of rows and zero weights skipped. The
    certificates of solved bases pass the checker either way."""
    rng = random.Random(90417)
    shapes = [[2] * k for k in range(3, 8)] + [[3] * 4, [3, 3, 3, 2], [4] * 3]
    interleaved = fractions = 0
    for case in range(60):
        G = make_group(rng.choice(shapes))
        prob = build_lp_problem(G, _orbit_union_domain(rng, G,
                                                       rng.randint(1, 8)))
        p = prob.n_vars
        if p == 0:
            continue
        exact = set(G.moduli) == {2} and case % 2 == 0
        fractions += exact
        ids = (rng.sample(range(2 * p), min(2 * p, 3))
               + rng.sample(range(2 * p, 2 * p + prob.n_rows),
                            min(prob.n_rows, 12)))
        rng.shuffle(ids)
        kinds = "".join("r" if cid >= 2 * p else "b" for cid in ids)
        interleaved += "rrbr" in kinds or "rbrr" in kinds
        _assert_matches_per_pair(prob, _random_weights(rng, ids, exact),
                                 exact, f"case {case}: {G.moduli}")
    assert interleaved >= 10, "too few box columns between row runs"
    assert fractions >= 10, "too few cases with Fraction weights"
    assert _check_solved_bases(monkeypatch, 90421) >= 10, \
        "too few bases of box columns only"


def test_box_fold_matches_the_per_pair_loop(monkeypatch):
    """Box columns folded by one product match one fold per pair: equal
    Fractions, floats within the rounding of the per-pair order, with
    several box columns between runs of rows and box orbits of several
    pairs. The certificates of solved bases pass the checker either
    way."""
    rng = random.Random(90418)
    shapes = [[2] * k for k in range(3, 8)] + [[3] * 4, [3, 3, 3, 2], [4] * 3]
    box_runs = multi_pair = fractions = 0
    for case in range(60):
        G = make_group(rng.choice(shapes))
        prob = build_lp_problem(G, _orbit_union_domain(rng, G,
                                                       rng.randint(2, 10)))
        p = prob.n_vars
        if p == 0:
            continue
        exact = set(G.moduli) == {2} and case % 2 == 0
        fractions += exact
        ids = (rng.sample(range(2 * p), min(2 * p, rng.randint(2, 8)))
               + rng.sample(range(2 * p, 2 * p + prob.n_rows),
                            min(prob.n_rows, 4)))
        rng.shuffle(ids)
        kinds = "".join("r" if cid >= 2 * p else "b" for cid in ids)
        box_runs += "rbbr" in kinds or "rbbbr" in kinds
        multi_pair += sum(len(_pairs_of_orbit(prob, cid % p)) > 1
                          for cid in ids if cid < 2 * p)
        _assert_matches_per_pair(prob, _random_weights(rng, ids, exact),
                                 exact, f"case {case}: {G.moduli}")
    assert box_runs >= 10, "too few runs of box columns between row runs"
    assert multi_pair >= 10, "too few box orbits of several pairs"
    assert fractions >= 10, "too few cases with Fraction weights"
    assert _check_solved_bases(monkeypatch, 90422) >= 10, \
        "too few bases of box columns only"


def _count_transforms(monkeypatch):
    """Count the whole-group transforms of turan_lp and keep the last
    simplex result; returns (transform inputs, simplex results)."""
    from turanlab import turan_lp

    inputs, results = [], []
    transform, solve = turan_lp._axis_transform, turan_lp.solve_column_lp

    def counting(arr, moduli, conjugate):
        inputs.append(np.array(arr))
        return transform(arr, moduli, conjugate)

    def keeping(*args, **kwargs):
        results.append(solve(*args, **kwargs))
        return results[-1]

    monkeypatch.setattr(turan_lp, "_axis_transform", counting)
    monkeypatch.setattr(turan_lp, "solve_column_lp", keeping)
    return inputs, results


@pytest.mark.parametrize("moduli", [[2] * 6, [3, 3, 2], [4, 4]])
def test_optimal_float_solve_reuses_its_last_pricing_transform(monkeypatch,
                                                              moduli):
    """An optimal float solve transforms once per pricing round and once
    for its certificate: the witness reuses the last round's transform,
    and equals the witness projected afresh from the final multipliers."""
    from turanlab import turan_lp

    G = make_group(moduli)
    dom = _random_domain(random.Random(90419), G, 6)
    inputs, results = _count_transforms(monkeypatch)
    sol = turan_constant(G, dom)
    assert sol.status == "optimal"
    assert len(inputs) == sol.diagnostics["pricing_rounds"] + 1
    f, _primal = turan_lp._mixed_witness(sol.problem, results[-1].pi)
    assert f.values.tobytes() == sol.f.values.tobytes()


def test_exact_and_budget_solves_transform_their_own_witness(monkeypatch):
    """A proven exact basis replaces the multipliers, and a solve cut at
    the pivot cap stops on multipliers it never priced: both compute the
    witness transform themselves, from those multipliers."""
    from turanlab import simplex, turan_lp

    G, dom = _hh_domain(6)
    inputs, results = _count_transforms(monkeypatch)
    sol = turan_constant(G, dom, mode="exact-rational")
    assert sol.status == "optimal" and sol.exact_value is not None
    # pricing rounds, the exact basis, the certificate and the witness
    assert len(inputs) == sol.diagnostics["pricing_rounds"] + 3
    pi = turan_lp._exact_basis(sol.problem, results[-1].basis)[2]
    f, _primal = turan_lp._mixed_witness(sol.problem, pi)
    assert f.values.tobytes() == sol.f.values.tobytes()

    monkeypatch.setattr(simplex, "LP_PIVOT_CAP", 3)
    del inputs[:], results[:]
    G = make_group([2] * 7)
    sol = turan_constant(G, _random_domain(random.Random(90420), G, 20))
    assert sol.status == "budget-exceeded"
    assert len(inputs) == sol.diagnostics["pricing_rounds"] + 2
    f, _primal = turan_lp._mixed_witness(sol.problem, results[-1].pi)
    assert f.values.tobytes() == sol.f.values.tobytes()


# Z_2^8 domains, as masks of flat indices, whose solves still pivot at
# 3 000 pivots, their constants (HiGHS) and the bounds reported at that
# cap. In the first, a column has entered the basis twice and its two
# weights add up. In the second, a column has entered twice and the
# iterate has drifted from that singular basis; in the third it has
# drifted 1.6e-4 from a regular one. Both are solved again from their
# basis.
_CAPPED_DOMAINS = [
    (0x97f7febe7ffabfeb7fec879ee9cfff5dd9b89bdd17e8fa7e66095a3bdd867697,
     24.757939685081407, 48.000000000324064),
    (0xb9f7f603f0e6cec4388dfb6d22ab3dbedba569deff65bf4ff77cabbcfd05dfb,
     22.3340811747909, 32.00000000000005),
    (0xefbb71103566cd47a109c9590f272777ee6e2fb10e5ca37dbc7267b6ec73b8dd,
     18.943361188486627, 58.295982464429294),
]


@pytest.mark.parametrize("mask, constant, reported", _CAPPED_DOMAINS,
                         ids=["repeated-column", "drifted-singular",
                              "drifted"])
def test_a_solve_cut_at_the_pivot_cap_returns_a_checked_bound(
        monkeypatch, mask, constant, reported):
    """Budgets are statuses: a solve cut at the pivot cap returns
    budget-exceeded, in float and in exact mode, with a certificate the
    checker accepts for a bound at least the constant, and a witness at
    most the constant."""
    from turanlab import simplex

    monkeypatch.setattr(simplex, "LP_PIVOT_CAP", 3000)
    G = make_group([2] * 8)
    dom = symmetric_domain(G, [G.element(i) for i in range(G.order)
                               if mask >> i & 1])
    for mode in ("float", "exact-rational"):
        sol = turan_constant(G, dom, mode=mode)
        assert sol.status == "budget-exceeded" and sol.exact_value is None
        assert verify_dual_certificate(sol.problem, sol.dual) == sol.value
        assert sol.value >= constant - 1e-6
        assert abs(sol.value - reported) <= 1e-6
        assert witness_ratio(sol.f, dom).as_float() <= constant + 1e-6


def test_character_side_is_shared_per_group():
    """The character side is built once per group and kept swaps: a cold
    build equals a warm one field by field, equal moduli share the arrays
    across make_group calls, the shared arrays are read-only, and the
    cache stops at its bound."""
    from turanlab import turan_lp

    elems = [(0, 0, 0), (1, 2, 0), (2, 1, 0), (1, 1, 1), (2, 2, 1)]
    G = make_group([3, 3, 2])
    warm = build_lp_problem(G, symmetric_domain(G, elems))
    warm = build_lp_problem(G, symmetric_domain(G, elems))
    turan_lp._character_side.cache_clear()
    cold = build_lp_problem(G, symmetric_domain(G, elems))
    shared = ("dual_coords", "dual_sizes", "dual_index", "row_order",
              "row_start", "cos_table")
    for f in dataclasses.fields(cold):
        got, want = getattr(cold, f.name), getattr(warm, f.name)
        if isinstance(want, np.ndarray):
            assert got.dtype == want.dtype, f.name
            assert np.array_equal(got, want), f.name
        else:
            assert got == want, f.name

    H = make_group([3, 3, 2])
    other = build_lp_problem(H, symmetric_domain(H, elems))
    for name in shared:
        assert getattr(other, name) is getattr(cold, name), name
        with pytest.raises(ValueError):
            getattr(cold, name)[0] = 0

    bound = turan_lp.CHARACTER_CACHE_SIZE
    for n in range(2, bound + 8):
        Z = make_group([n])
        build_lp_problem(Z, symmetric_domain(Z, {0, 1, n - 1}))
    assert turan_lp._character_side.cache_info().currsize == bound


def test_singular_basis_restart_offers_rows_again(monkeypatch):
    """A forced SingularBasisError after the first pricing round: the
    perturbed re-solve must start with no row marked offered, or the rows
    that round offered would never come back and the value would rise."""
    from turanlab import turan_lp
    from turanlab.simplex import SingularBasisError

    # the first round offers every violated row, so a re-solve that kept
    # them marked would stop at its first pricing round, far above 6
    G, dom = _hh_domain(6)
    plain = turan_constant(G, dom)
    real = turan_lp.solve_column_lp
    attempts = []

    def flaky(w, initial, price, **kwargs):
        attempts.append(len(attempts))
        if len(attempts) > 1:
            return real(w, initial, price, **kwargs)

        def price_then_fail(pi):
            assert price(pi), "the first round offers rows"
            raise SingularBasisError("forced")

        return real(w, initial, price_then_fail, **kwargs)

    monkeypatch.setattr(turan_lp, "solve_column_lp", flaky)
    forced = turan_constant(G, dom)
    assert len(attempts) == 2
    assert forced.status == "optimal"
    assert forced.diagnostics["perturbed_restarts"] == 1
    assert plain.diagnostics["perturbed_restarts"] == 0
    assert abs(forced.value - plain.value) <= 1e-6
    assert forced.value == pytest.approx(6.0, abs=1e-6)


# Z_2^10 domains (flat indices) whose float solves used to fail, with
# their exact values. "drift": the updated basis inverse drifted until
# the certificate missed the objective by 2.9e-3 after 1087 pivots (HiGHS
# gives 4.9283820078579). "rounded-zero": Bland's rule took a leaving
# row whose basis direction was a rounded zero, 4.9e-11, made the basis
# singular and cycled until the 200000-pivot cap.
_HARD_DOMAINS = {
    "drift": ([0, 2, 5, 32, 50, 56, 94, 98, 101, 113, 163, 170, 175, 189,
               207, 220, 222, 238, 267, 291, 295, 296, 356, 357, 423, 447,
               481, 503, 504, 507, 511, 528, 532, 537, 551, 580, 589, 592,
               607, 652, 712, 717, 722, 732, 769, 781, 786, 792, 816, 835,
               840, 846, 848, 852, 883, 961, 962, 967, 981, 991, 1002],
              Fraction(7554564, 1532869)),
    "rounded-zero": ([0, 816, 200, 757, 578, 378, 817, 400, 554, 159, 857,
                      606, 577, 182, 181, 92, 778, 466, 903, 876, 289, 832,
                      23, 227, 529, 60, 558, 163, 582, 303, 990, 667, 862,
                      824, 433, 66, 596, 560, 313, 807, 559, 87, 343, 84,
                      281, 755, 108, 921, 322, 27, 650, 670, 148, 100],
                     Fraction(86812, 18951)),
}


@pytest.mark.parametrize("mode", ["float", "exact-rational"])
@pytest.mark.parametrize("name", sorted(_HARD_DOMAINS))
def test_hard_domains_solve_to_their_exact_values(name, mode):
    """Long degenerate solves end at an exactly optimal basis: float mode
    within 1e-9 of the exact value, exact mode equal to it."""
    G = make_group([2] * 10)
    flat, want = _HARD_DOMAINS[name]
    dom = symmetric_domain(G, [G.element(i) for i in flat])
    sol = turan_constant(G, dom, mode=mode)
    assert sol.status == "optimal"
    assert abs(sol.value - float(want)) <= 1e-9
    if mode == "exact-rational":
        assert sol.exact_value == want


def test_exact_solve_runs_one_elimination(monkeypatch):
    from turanlab import turan_lp

    calls = []
    adjugate = turan_lp.adjugate

    def spy(A):
        calls.append(len(A))
        return adjugate(A)

    monkeypatch.setattr(turan_lp, "adjugate", spy)
    G, dom = _hh_domain(6)
    sol = turan_constant(G, dom, mode="exact-rational")
    assert sol.exact_value == 6 and "exact_check" not in sol.diagnostics
    assert calls == [sol.problem.n_vars]


def _two_orbit_problem():
    """{0, (1, 0), (1, 1)} on Z_2^2: no swap fixes it, so the orbits are
    the two elements, of weight 1 each."""
    G = make_group([2, 2])
    prob = build_lp_problem(G, symmetric_domain(G, [(0, 0), (1, 0), (1, 1)]))
    assert prob.n_vars == 2 and prob.orbit_sizes.tolist() == [1, 1]
    return prob


@pytest.mark.parametrize("basis, message", [
    # +e_0 and -e_0
    ([0, 2], "final basis is singular"),
    # -e_0 and -e_1: xB = -w
    ([2, 3], "basic weight of column 2 is -1 < 0"),
    # -e_0 and +e_1: det(B) = -1
    ([2, 1], "basic weight of column 2 is -1 < 0"),
    # +e_0 and the column -(1, -1) of character (0, 1): pi = (1, 2)
    ([0, "row"], "multiplier of orbit 1 is 2, beyond [-1, 1]"),
    (["row", 0], "multiplier of orbit 1 is 2, beyond [-1, 1]"),
    # +e_0 and +e_1: pi = (1, 1), whose transform at (1, 0) is 1 - 1 - 1
    ([0, 1], "row 2 has reduced cost -1 < 0"),
    ([1, 0], "row 2 has reduced cost -1 < 0"),
], ids=["singular", "negative-weight", "negative-weight-det-1",
        "multiplier", "multiplier-det-1", "reduced-cost",
        "reduced-cost-det-1"])
def test_exact_basis_failures(basis, message):
    """Each failed check of the exact finish, with a positive and, where
    the check can fail after it, a negative determinant."""
    from turanlab import turan_lp

    prob = _two_orbit_problem()
    row = next(r for r in range(prob.n_rows)
               if prob.row(r).tolist() == [1, -1])
    basis = [2 * prob.n_vars + row if b == "row" else b for b in basis]
    with pytest.raises(CertificateInvalidError) as e:
        turan_lp._exact_basis(prob, basis)
    assert str(e.value) == message


def test_failed_exact_check_reports_no_exact_value(monkeypatch, tmp_path,
                                                   capsys):
    """A final basis that is not optimal (here the starting basis handed
    back in place of the real one) fails the exact check: no exact value,
    a diagnostic that says why, the float certificate instead, and no
    lp-exact bound in the report. No second solve runs."""
    from turanlab import turan_lp
    from turanlab.cli import main

    real = turan_lp.solve_column_lp
    solves = []

    def start_basis_back(w, initial, price, **kwargs):
        solves.append(1)
        res = real(w, initial, price, **kwargs)
        return dataclasses.replace(res, basis=list(range(len(w))))

    monkeypatch.setattr(turan_lp, "solve_column_lp", start_basis_back)
    G, dom = _hh_domain(4)
    sol = turan_constant(G, dom, mode="exact-rational")
    assert len(solves) == 1
    assert sol.status == "optimal"
    assert sol.exact_value is None
    assert "reduced cost" in sol.diagnostics["exact_check"]
    assert sol.dual.dtype == float
    assert sol.value == pytest.approx(4.0, abs=1e-9)

    doc = {"setting": "finite-group", "moduli": [2] * 4,
           "mode": "exact-rational",
           "domain": [list(x) for x in dom.sorted_elements()]}
    path = tmp_path / "problem.json"
    path.write_text(json.dumps(doc), encoding="utf-8")
    assert main(["turan", str(path)]) == 0
    rep = json.loads(capsys.readouterr().out)
    methods = [b["method"] for b in rep["bounds"]]
    assert "lp" in methods and "lp-exact" not in methods
