"""Transforms, convolution, positive definiteness.

Hand oracles are tiny groups where every value is checkable on paper;
the randomized agreements live in the property suites.
"""
from __future__ import annotations

import cmath
import math
import random
from fractions import Fraction

import numpy as np
import pytest

import turanlab as tl
from turanlab import (
    GroupFunction,
    autocorrelation,
    convolve,
    delta,
    dft,
    dft_exact_signs,
    from_dict,
    idft,
    indicator,
    is_positive_definite,
    make_group,
    parseval_gap,
    reflect,
)
from turanlab.harmonic import _axis_transform, _dft_matrix, root_of_unity


def test_group_function_basics():
    G = make_group([4])
    f = from_dict(G, {(0,): 1.0, (1,): 0.5, (3,): 0.5})
    assert f((0,)) == 1.0
    assert f((2,)) == 0.0
    assert f.total() == 2.0
    assert f.l1() == 2.0
    assert set(f.support()) == {(0,), (1,), (3,)}


def test_group_function_shape_check():
    G = make_group([4])
    with pytest.raises(ValueError):
        GroupFunction(G, np.zeros(3))


def test_delta_and_indicator():
    G = make_group([2, 2])
    d = delta(G)
    assert d((0, 0)) == 1.0 and d.total() == 1.0
    ind = indicator(G, [(0, 0), (1, 0)])
    assert ind.total() == 2.0
    # bare ints only on rank one
    ind1 = indicator(make_group([5]), [0, 2])
    assert ind1((2,)) == 1.0


def test_dft_hand_case():
    """Forward kernel e^{-2 pi i t x / M} on the Z4 edge indicator."""
    G = make_group([4])
    F = dft(indicator(G, [0, 1]))
    want = np.array([2.0, 1.0 - 1.0j, 0.0, 1.0 + 1.0j])
    assert np.abs(F.values - want).max() < 1e-12


def test_dft_delta_is_flat():
    G = make_group([3, 4])
    F = dft(delta(G))
    assert np.abs(F.values - 1.0).max() < 1e-12


def test_dft_explicit_formula_random():
    rng = random.Random(90201)
    for _ in range(200):
        moduli = [rng.randint(2, 5) for _ in range(rng.randint(1, 3))]
        G = make_group(moduli)
        vals = np.array([rng.uniform(-3, 3) for _ in range(G.order)])
        F = dft(GroupFunction(G, vals))
        t = rng.choice(G.elements())
        direct = sum(
            vals[G.index(x)] * cmath.exp(
                -2j * cmath.pi * sum(ti * xi / m for ti, xi, m
                                     in zip(t, x, moduli)))
            for x in G.elements())
        assert abs(F.values[G.index(t)] - direct) < 1e-9 * max(1, np.abs(vals).sum())


def test_parseval_hand_case():
    G = make_group([4])
    f = indicator(G, [0, 1])
    # sum |f|^2 = 2 and sum |fhat|^2 / 4 = (4+2+0+2)/4
    assert parseval_gap(f) < 1e-12


def test_idft_rejects_imaginary_leak():
    G = make_group([4])
    F = tl.DualFunction(G, np.array([0.0, 1.0, 0.0, 0.0], dtype=complex))
    with pytest.raises(ValueError, match="not real"):
        idft(F)


def test_convolve_hand_case():
    G = make_group([4])
    f = indicator(G, [0, 1])
    g = convolve(f, f)
    assert list(g.values) == [1.0, 2.0, 1.0, 0.0]


def test_convolve_group_mismatch():
    with pytest.raises(ValueError):
        convolve(delta(make_group([4])), delta(make_group([2, 2])))


def test_convolution_theorem_random():
    rng = random.Random(90202)
    for _ in range(200):
        G = make_group([rng.randint(2, 6), rng.randint(2, 4)])
        a = GroupFunction(G, np.array([rng.uniform(-2, 2) for _ in range(G.order)]))
        b = GroupFunction(G, np.array([rng.uniform(-2, 2) for _ in range(G.order)]))
        lhs = dft(convolve(a, b)).values
        rhs = dft(a).values * dft(b).values
        assert np.abs(lhs - rhs).max() < 1e-9 * max(1.0, a.l1() * b.l1())


def test_reflect():
    G = make_group([5])
    f = from_dict(G, {(1,): 2.0, (2,): -1.0})
    r = reflect(f)
    assert r((4,)) == 2.0 and r((3,)) == -1.0 and r((1,)) == 0.0


def test_reflect_is_negation_on_mixed_groups():
    rng = random.Random(90205)
    for _ in range(100):
        G = make_group([rng.randint(1, 6) for _ in range(rng.randint(0, 4))])
        f = GroupFunction(G, np.array([rng.uniform(-2, 2) for _ in range(G.order)]))
        r = reflect(f)
        for x in G.elements():
            assert r.values[G.index(G.neg(x))] == f.values[G.index(x)]


def _dft_matrix_by_comprehension(n):
    """The DFT matrix as the nested comprehension over root_of_unity."""
    w = [root_of_unity(Fraction(j, n)) for j in range(n)]
    return np.array([[w[(t * x) % n] for x in range(n)] for t in range(n)])


@pytest.mark.parametrize("n", list(range(1, 14)) + [97, 256])
def test_dft_matrix_is_the_comprehension_bit_for_bit(n):
    got = _dft_matrix(n)
    want = _dft_matrix_by_comprehension(n)
    assert got.dtype == want.dtype and got.shape == want.shape
    assert got.tobytes() == want.tobytes()


def _dense_axis_product(arr, moduli, conjugate):
    """Every factor, order 2 included, as a dense complex matrix product."""
    out = arr.astype(complex).reshape(moduli if moduli else (1,))
    for axis, n in enumerate(moduli):
        W = _dft_matrix(n).conj() if conjugate else _dft_matrix(n)
        out = np.moveaxis(np.tensordot(W, out, axes=(1, axis)), 0, axis)
    return out.reshape(-1)


def _axis_transform_by_take_and_stack(arr, moduli, conjugate):
    """The transform as it was before the rotating buffer: order-2 axes
    by take and stack, the others by tensordot and moveaxis."""
    out = np.array(arr).reshape(moduli if moduli else (1,))
    for axis, n in enumerate(moduli):
        if n == 1:
            continue
        if n == 2:
            a, b = out.take(0, axis), out.take(1, axis)
            out = np.stack((a + b, a - b), axis=axis)
            continue
        if out.dtype == object:
            raise ValueError(f"exact transform needs every modulus in {{1, 2}}, got {n}")
        W = _dft_matrix(n)
        if conjugate:
            W = W.conj()
        out = np.moveaxis(np.tensordot(W, out.astype(complex, copy=False), axes=(1, axis)),
                          0, axis)
    return out.reshape(-1)


def _reference_cases(rng):
    """(moduli, values): ranks 0 to 12 over moduli 1 to 6 (order at most
    4096), the benchmark's shapes, and float, int and Fraction values
    with signed zeros among them."""
    shapes = [(2,) * 12, (2,) * 6 + (3,) * 4, (2, 2, 3, 3, 4, 4)]
    for rank in range(13):
        moduli = []
        for _ in range(rank):
            m = rng.randint(1, 6)
            moduli.append(m if math.prod(moduli) * m <= 4096 else 1)
        shapes.append(tuple(moduli))
    shapes += [tuple(rng.choice([1, 2]) for _ in range(rng.randint(0, 12)))
               for _ in range(6)]
    for moduli in shapes:
        order = math.prod(moduli)
        yield moduli, np.array([rng.choice((rng.uniform(-3, 3), 0.0, -0.0))
                                for _ in range(order)])
        yield moduli, np.array([rng.randint(-9, 9) for _ in range(order)])
        if set(moduli) <= {1, 2} and order <= 256:
            yield moduli, np.array([Fraction(rng.randint(-9, 9), rng.randint(1, 9))
                                    for _ in range(order)], dtype=object)


def test_axis_transform_matches_dense_product_bit_for_bit():
    """Float inputs against every factor as a dense complex product (up
    to the sign of zero), and float, int and Fraction inputs against the
    take-and-stack transform byte for byte, signed zeros and dtype
    included. The caller's array is never written to."""
    rng = random.Random(90206)
    for case in range(300):
        moduli = tuple(rng.randint(1, 6) for _ in range(rng.randint(0, 5)))
        G = make_group(list(moduli))
        vals = np.array([rng.uniform(-3, 3) for _ in range(G.order)])
        for conjugate in (False, True):
            got = _axis_transform(vals, moduli, conjugate)
            want = _dense_axis_product(vals, moduli, conjugate)
            # adding 0.0 only merges the two signed zeros
            assert (got.real + 0.0).tobytes() == (want.real + 0.0).tobytes(), \
                f"case {case}: {moduli} conjugate={conjugate}"
            if all(m <= 2 for m in moduli):
                assert got.dtype == float
    fractions = 0
    for moduli, vals in _reference_cases(random.Random(90208)):
        before = vals.copy()
        vals.flags.writeable = False
        for conjugate in (False, True):
            got = _axis_transform(vals, moduli, conjugate)
            want = _axis_transform_by_take_and_stack(vals, moduli, conjugate)
            assert got.dtype == want.dtype and got.shape == want.shape, moduli
            if got.dtype == object:
                fractions += 1
                assert [(type(v), v) for v in got] == [(type(v), v) for v in want]
            else:
                assert got.tobytes() == want.tobytes(), \
                    f"{moduli} {vals.dtype} conjugate={conjugate}"
            assert got is not vals and not np.shares_memory(got, vals)
        assert [(type(v), v) for v in vals.tolist()] == \
            [(type(v), v) for v in before.tolist()]
        assert vals.tobytes() == before.tobytes() or vals.dtype == object
    assert fractions >= 10


def test_fraction_transform_is_the_sign_sum():
    rng = random.Random(90207)
    for k in range(7):
        G = make_group([2] * k)
        vals = [Fraction(rng.randint(-9, 9), rng.randint(1, 9)) for _ in range(G.order)]
        got = _axis_transform(np.array(vals, dtype=object), G.moduli, False)
        assert got.dtype == object
        for t in G.elements():
            want = sum(v * (-1) ** sum(a * b for a, b in zip(t, x))
                       for v, x in zip(vals, G.elements()))
            assert got[G.index(t)] == want and isinstance(got[G.index(t)], Fraction)


def test_fraction_transform_refuses_odd_and_quarter_factors():
    for moduli in ([3], [2, 4], [2, 1, 6]):
        G = make_group(moduli)
        vals = np.array([Fraction(1)] * G.order, dtype=object)
        with pytest.raises(ValueError, match="exact transform"):
            _axis_transform(vals, G.moduli, False)


def test_autocorrelation_hand_case():
    G = make_group([4])
    g = autocorrelation(indicator(G, [0, 1]))
    assert list(g.values) == [2.0, 1.0, 0.0, 1.0]


def test_autocorrelation_transform_is_magnitude_squared():
    rng = random.Random(90203)
    for _ in range(200):
        G = make_group([rng.randint(2, 9)])
        f = GroupFunction(G, np.array([rng.uniform(-2, 2) for _ in range(G.order)]))
        lhs = dft(autocorrelation(f)).values
        rhs = np.abs(dft(f).values) ** 2
        assert np.abs(lhs - rhs).max() < 1e-9 * max(1.0, f.l1() ** 2)


def test_dft_exact_signs_hand_case():
    G = make_group([2, 2])
    # rows of the 4x4 sign matrix in index order 00,01,10,11
    out = dft_exact_signs(G, [1, 2, 3, 4])
    assert list(out) == [10, -2, -4, 0]


def test_dft_exact_signs_matches_float():
    rng = random.Random(90204)
    for _ in range(100):
        G = make_group([2] * rng.randint(1, 5))
        vals = [rng.randint(-9, 9) for _ in range(G.order)]
        exact = dft_exact_signs(G, vals)
        flo = dft(GroupFunction(G, np.array(vals, dtype=float))).values
        assert np.abs(np.array([float(v) for v in exact]) - flo.real).max() < 1e-9
        assert np.abs(flo.imag).max() < 1e-12


def test_dft_exact_signs_rejects_odd_moduli():
    with pytest.raises(ValueError):
        dft_exact_signs(make_group([3]), [0, 0, 0])


def test_is_positive_definite_hand_cases():
    G = make_group([4])
    ok = is_positive_definite(from_dict(G, {(0,): 2.0, (1,): 1.0, (3,): 1.0}))
    assert ok.flag and ok.min_real >= -1e-12
    # 1 + 1.8 cos(pi t / 2) dips to -0.8 at t = 2
    bad = is_positive_definite(from_dict(G, {(0,): 1.0, (1,): 0.9, (3,): 0.9}))
    assert not bad.flag
    assert abs(bad.min_real - (-0.8)) < 1e-9


def test_is_positive_definite_default_band():
    # 1 + 2a cos(pi t / 2) dips to 1 - 2a at t = 2; the band is
    # 1e-9 * ||f||_1 = 1e-9 * (1 + 2a), about 2e-9
    G = make_group([4])
    inside = from_dict(G, {(0,): 1.0, (1,): 0.5 + 5e-10, (3,): 0.5 + 5e-10})
    rep = is_positive_definite(inside)
    assert rep.flag and rep.min_real < 0
    assert rep.tol == 1e-9 * inside.l1()
    outside = from_dict(G, {(0,): 1.0, (1,): 0.5 + 2e-9, (3,): 0.5 + 2e-9})
    assert not is_positive_definite(outside).flag
