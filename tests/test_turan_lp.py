"""LP solves against closed forms and an exact vertex oracle.

The oracle restricts moduli so every character real part is a rational
from the cosine table of lcm in {1,2,3,4,6}; the bound-form polytope
{y : every transform value >= 0} then has exact rational vertices, and
enumerating all of them gives an independent optimum to compare with.
"""
from __future__ import annotations

import itertools
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
    pairs = domain.pair_representatives()
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
    with pytest.raises(ValueError):
        build_lp_problem(G, dom, constants=[1.0, 1.0])


def test_exact_mode_needs_two_groups():
    G = make_group([3])
    dom = symmetric_domain(G, [0])
    with pytest.raises(ValueError):
        build_lp_problem(G, dom, exact=True)
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
        if len(dom.pair_representatives()) > 3:
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
    G = make_group([16])
    dom = symmetric_domain(G, [0, 1, 15])
    sol = turan_constant(G, dom, order_cap=8)
    assert sol.status == "budget-exceeded"
    assert sol.value == 3.0
    assert sol.f((0,)) == 1.0 and sol.f.total() == 1.0
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


def test_rows_match_transform_of_a_delta():
    rng = random.Random(90405)
    for case in range(80):
        G = _random_lp_group(rng)
        prob = build_lp_problem(G, _random_domain(rng, G, rng.randint(1, 8)))
        assert prob.dual_pairs == [(G.identity(), 1)] + \
            G.pair_representatives(G.elements())
        quarter = all(m in (1, 2, 4) for m in G.moduli)
        for r, (t, _s) in enumerate(prob.dual_pairs):
            re = tl.dft(tl.from_dict(G, {t: 1.0})).values.real
            want = np.array([s * re[G.index(x)] for x, s in prob.pairs])
            got = prob.row(r)
            if quarter:
                # bit for bit; adding 0.0 only merges the two signed zeros
                assert (got + 0.0).tobytes() == (want + 0.0).tobytes(), \
                    f"case {case}: {G.moduli} row {r}"
            else:
                assert np.abs(got - want).max(initial=0.0) <= 1e-12, \
                    f"case {case}: {G.moduli} row {r}"


def test_exact_rows_match_sign_transform():
    rng = random.Random(90406)
    for case in range(40):
        G = make_group([2] * rng.randint(1, 8) + [1] * rng.randint(0, 1))
        prob = build_lp_problem(G, _random_domain(rng, G, rng.randint(1, 6)),
                                exact=True)
        for r, (t, _s) in enumerate(prob.dual_pairs):
            delta = [0] * G.order
            delta[G.index(t)] = 1
            re = tl.dft_exact_signs(G, delta)
            want = [Fraction(s) * re[G.index(x)] for x, s in prob.pairs]
            got = list(prob.row(r))
            assert got == want, f"case {case}: {G.moduli} row {r}"
            assert all(isinstance(v, Fraction) for v in got)


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
            calls.append((np.array(pi), [cid - 2 * p for cid, _v, _c in out]))
            return out

        return real(w, initial, recording, **kwargs)

    monkeypatch.setattr(turan_lp, "solve_column_lp", spy)
    return calls


@pytest.mark.parametrize("k,mode", [(8, "float"), (6, "exact-rational")])
def test_price_offers_rows_once_in_rc_order(monkeypatch, k, mode):
    """Each round offers the not yet offered violated rows by (rc, r),
    at most 32; rc is recomputed here as 1 + row . pi. Exact mode checks
    the order exactly, ties included; float mode within rounding."""
    calls = _record_pricing(monkeypatch)
    G, dom = _hh_domain(k)
    exact = mode == "exact-rational"
    prob = build_lp_problem(G, dom, exact=exact)
    sol = solve_lp(prob, mode)
    assert sol.status == "optimal" and sol.value == pytest.approx(k)
    tol = 0 if exact else 1e-9
    seen: set[int] = set()
    capped = False
    for pi, rows in calls:
        assert len(rows) <= 32
        assert not seen & set(rows), "a row was offered twice"
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
