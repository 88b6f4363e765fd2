"""Group arithmetic, domains, subgroups, Smith normal form."""
from __future__ import annotations

import random

import numpy as np
import pytest

import turanlab as tl
from turanlab import (
    DomainNotSymmetricError,
    InvalidHomomorphismError,
    difference_set,
    direct_product,
    image_domain,
    is_automorphism,
    make_group,
    quotient_group,
    smith_normal_form,
    subgroup_as_group,
    subgroup_generated,
    symmetric_domain,
)
from turanlab.groups import negation_pairs, translate


def test_make_group_basics():
    G = make_group([2, 4])
    assert G.order == 8
    assert G.rank == 2
    assert G.identity() == (0, 0)
    assert G.moduli == (2, 4)


def test_make_group_rejects_bad_moduli():
    with pytest.raises(ValueError):
        make_group([0, 3])
    with pytest.raises(ValueError):
        make_group([-2])


@pytest.mark.parametrize("modulus", [8.5, 2.0, "3", None])
def test_make_group_refuses_a_modulus_that_is_not_an_integer(modulus):
    # the operator.index rule of periodic_set: nothing is truncated
    with pytest.raises(ValueError, match="integers"):
        make_group([2, modulus])


def test_make_group_takes_numpy_integers():
    assert make_group(np.array([2, 3])).moduli == (2, 3)
    assert all(type(m) is int for m in make_group(np.array([4])).moduli)


def test_arithmetic_hand_cases():
    G = make_group([6])
    assert G.add((4,), (5,)) == (3,)
    assert G.neg((2,)) == (4,)
    assert G.sub((1,), (5,)) == (2,)
    H = make_group([2, 4])
    assert H.add((1, 3), (1, 2)) == (0, 1)
    assert H.neg((1, 1)) == (1, 3)
    assert H.canon((7, -3)) == (1, 1)


def test_elements_are_a_fresh_list():
    # a caller that changes the list it got must not change the group
    e = make_group([4]).elements()
    e.reverse()
    e.pop()
    assert make_group([4]).elements() == [(0,), (1,), (2,), (3,)]
    assert is_automorphism(make_group([4]), [(1,)])
    assert make_group([]).elements() == [()]


def test_index_element_round_trip():
    rng = random.Random(90101)
    for _ in range(200):
        moduli = [rng.randint(2, 6) for _ in range(rng.randint(1, 3))]
        G = make_group(moduli)
        for i in range(G.order):
            assert G.index(G.element(i)) == i
        elems = G.elements()
        assert len(set(elems)) == G.order
        x = rng.choice(elems)
        assert G.element(G.index(x)) == x


def test_translate_matches_element_arithmetic():
    rng = random.Random(90108)
    for _ in range(100):
        moduli = tuple(rng.randint(1, 7) for _ in range(rng.randint(0, 4)))
        G = make_group(moduli)
        v, s = (np.array([rng.randrange(G.order)
                          for _ in range(rng.randint(1, 5))])
                for _ in range(2))
        got = translate(moduli, v[None, :], s[:, None])
        assert got.shape == (len(s), len(v)) and got.dtype == np.int64
        want = [[G.index(G.add(G.element(int(b)), G.element(int(a))))
                 for b in v] for a in s]
        assert got.tolist() == want, moduli
        assert int(translate(moduli, int(v[0]), int(s[0]))) == want[0][0]


def test_element_order_hand_and_lagrange():
    G = make_group([12])
    assert G.element_order((4,)) == 3
    assert G.element_order((5,)) == 12
    assert G.element_order((0,)) == 1
    rng = random.Random(90102)
    for _ in range(300):
        moduli = [rng.randint(2, 8) for _ in range(rng.randint(1, 3))]
        G = make_group(moduli)
        x = rng.choice(G.elements())
        k = G.element_order(x)
        assert G.order % k == 0
        acc = G.identity()
        for _ in range(k):
            acc = G.add(acc, x)
        assert acc == G.identity()
        # minimality: no smaller positive multiple hits 0
        acc = x
        for j in range(1, k):
            assert acc != G.identity(), (moduli, x, j)
            acc = G.add(acc, x)


def test_is_self_inverse():
    G = make_group([8])
    assert G.is_self_inverse((0,))
    assert G.is_self_inverse((4,))
    assert not G.is_self_inverse((3,))


def _pair_representatives(G, elems):
    """(representative, pair size) per negation pair of ``elems``, as
    ``negation_pairs`` picks them from the sorted flat indices."""
    reps, sizes = negation_pairs(G.moduli, sorted({G.index(x) for x in elems}))
    return [(G.element(i), s) for i, s in zip(reps.tolist(), sizes.tolist())]


def test_pair_representatives():
    G = make_group([8])
    reps = _pair_representatives(G, [(0,), (1,), (7,), (4,)])
    assert dict(reps) == {(1,): 2, (4,): 1}
    # zero never shows up, every nonzero element is counted exactly once
    rng = random.Random(90103)
    for _ in range(200):
        G = make_group([rng.randint(2, 9), rng.randint(2, 5)])
        elems = rng.sample(G.elements(), rng.randint(1, G.order))
        closed = {G.identity()} | {e for x in elems for e in (x, G.neg(x))}
        reps = _pair_representatives(G, closed)
        assert sum(m for _, m in reps) == len(closed) - 1
        seen = set()
        for x, m in reps:
            assert x != G.identity()
            assert m == (1 if G.is_self_inverse(x) else 2)
            assert x not in seen and G.neg(x) not in seen
            seen.add(x)


def _pair_representatives_by_tuples(G, elems):
    """Enumeration order, 0 skipped, the first member of each pair present."""
    chosen, seen = [], set()
    for x in sorted(elems, key=G.index):
        if all(c == 0 for c in x) or x in seen:
            continue
        nx = G.neg(x)
        seen.update((x, nx))
        chosen.append((x, 1 if nx == x else 2))
    return chosen


def test_pair_representatives_match_the_tuple_rule():
    rng = random.Random(90104)
    for case in range(300):
        G = make_group([rng.randint(1, 7) for _ in range(rng.randint(0, 3))])
        elems = rng.sample(G.elements(), rng.randint(0, G.order))
        if case % 2:
            elems += [G.neg(x) for x in elems]
        want = _pair_representatives_by_tuples(G, elems)
        assert _pair_representatives(G, elems) == want, (G.moduli, elems)


def test_symmetric_domain_validation():
    G = make_group([6])
    dom = symmetric_domain(G, [0, 1, 5])
    assert dom.size == 3
    assert (1,) in dom and (2,) not in dom
    assert dom.sorted_elements() == [(0,), (1,), (5,)]
    with pytest.raises(DomainNotSymmetricError):
        symmetric_domain(G, [1, 5])  # no zero
    with pytest.raises(DomainNotSymmetricError):
        symmetric_domain(G, [0, 1])  # missing -1
    with pytest.raises(ValueError):
        symmetric_domain(make_group([2, 2]), [0])  # bare int, rank 2


def test_difference_set_hand_case():
    G = make_group([8])
    dom = difference_set(G, [0, 1, 4, 5])
    assert dom.sorted_elements() == [(0,), (1,), (3,), (4,), (5,), (7,)]
    with pytest.raises(ValueError):
        difference_set(G, [])


def test_difference_set_is_symmetric_random():
    rng = random.Random(90104)
    for _ in range(300):
        G = make_group([rng.randint(2, 10)])
        H = rng.sample(G.elements(), rng.randint(1, G.order))
        dom = difference_set(G, H)
        for x in dom.elements:
            assert G.neg(x) in dom
        assert G.identity() in dom


def test_subgroup_generated_hand_cases():
    G = make_group([10])
    K = subgroup_generated(G, [2])
    assert K.order == 5
    assert K.index == 2
    assert K.elements == frozenset({(0,), (2,), (4,), (6,), (8,)})
    H = make_group([2, 4])
    K2 = subgroup_generated(H, [(1, 1)])
    assert K2.elements == frozenset({(0, 0), (1, 1), (0, 2), (1, 3)})


def test_subgroup_closure_random():
    rng = random.Random(90105)
    for _ in range(200):
        G = make_group([rng.randint(2, 6), rng.randint(2, 6)])
        gens = rng.sample(G.elements(), rng.randint(1, 3))
        K = subgroup_generated(G, gens)
        assert G.order % K.order == 0
        for x in K.elements:
            assert G.neg(x) in K
            for y in K.elements:
                assert G.add(x, y) in K


def _matmul(A, B):
    return [[sum(a * b for a, b in zip(row, col)) for col in zip(*B)]
            for row in A]


def _det(M):
    n = len(M)
    if n == 1:
        return M[0][0]
    return sum((-1) ** j * M[0][j] * _det(
        [row[:j] + row[j + 1:] for row in M[1:]]) for j in range(n))


def test_smith_normal_form_hand_case():
    d, P, Q = smith_normal_form([[2, 4], [6, 8]])
    assert d == [2, 4]
    S = _matmul(_matmul(P, [[2, 4], [6, 8]]), Q)
    assert S == [[2, 0], [0, 4]]


def test_smith_normal_form_random():
    """P A Q = diag(d), unimodular transforms, divisibility chain."""
    rng = random.Random(90106)
    for case in range(400):
        r = rng.randint(1, 4)
        c = rng.randint(1, 4)
        A = [[rng.randint(-6, 6) for _ in range(c)] for _ in range(r)]
        d, P, Q = smith_normal_form(A)
        assert len(d) == min(r, c)
        assert abs(_det(P)) == 1 and abs(_det(Q)) == 1, f"case {case}"
        S = _matmul(_matmul(P, A), Q)
        for i in range(r):
            for j in range(c):
                want = d[i] if i == j and i < len(d) else 0
                assert S[i][j] == want, f"case {case}: {A}"
        for a, b in zip(d, d[1:]):
            if b:
                assert a != 0 and b % a == 0, f"case {case}: chain {d}"
        assert all(v >= 0 for v in d)


def test_quotient_group_hand_case():
    G = make_group([10])
    K = subgroup_generated(G, [2])
    Q, project = quotient_group(G, K)
    assert Q.order == 2
    assert project((0,)) == project((2,)) == project((4,))
    assert project((1,)) != project((0,))


def test_quotient_group_random():
    rng = random.Random(90107)
    for _ in range(150):
        G = make_group([rng.randint(2, 6), rng.randint(2, 6)])
        K = subgroup_generated(G, rng.sample(G.elements(), rng.randint(1, 2)))
        Q, project = quotient_group(G, K)
        assert Q.order * K.order == G.order
        # homomorphism with kernel exactly K
        for _ in range(20):
            x, y = rng.choice(G.elements()), rng.choice(G.elements())
            assert project(G.add(x, y)) == Q.add(project(x), project(y))
        for x in G.elements():
            assert (project(x) == Q.identity()) == (x in K)


def test_subgroup_as_group():
    G = make_group([10])
    K = subgroup_generated(G, [2])
    Ks, to_sub, from_sub = subgroup_as_group(K)
    assert Ks.order == 5
    assert set(to_sub) == set(K.elements)
    for x in K.elements:
        assert from_sub[to_sub[x]] == x
        for y in K.elements:
            assert to_sub[G.add(x, y)] == Ks.add(to_sub[x], to_sub[y])


def test_endomorphism_and_automorphism():
    G = make_group([8])
    assert is_automorphism(G, [(3,)])
    assert not is_automorphism(G, [(2,)])
    assert tl.apply_endomorphism(G, [(3,)], (5,)) == (7,)
    H = make_group([2, 3])
    with pytest.raises(InvalidHomomorphismError):
        # the order-2 generator cannot land on an order-3 element
        tl.endomorphism(H, [(0, 1), (0, 1)])


def test_image_domain():
    G = make_group([12])
    dom = symmetric_domain(G, [0, 1, 3, 9, 11])
    img = image_domain(dom, [(5,)])
    assert img.sorted_elements() == [(0,), (3,), (5,), (7,), (9,)]
    with pytest.raises(InvalidHomomorphismError):
        image_domain(dom, [(3,)])  # 3 is not a unit mod 12


def test_direct_product():
    G = direct_product(make_group([2, 3]), make_group([4]))
    assert G.moduli == (2, 3, 4)
    assert G.order == 24
