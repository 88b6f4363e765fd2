"""Correctness checks made apart from the program.

Nothing here calls ``turanlab``: groups are plain tuples of moduli,
elements are flat indices in mixed-radix order (first coordinate most
significant, numpy's C order), transforms come from ``np.fft`` or from
the butterfly below, and LP values from HiGHS. Every check raises
``CheckError`` when the program's output is wrong.
"""
from __future__ import annotations

import math
from fractions import Fraction

import numpy as np

# agreement demanded between a reported value and the bounds re-proved
# here; it is the program's default reporting tolerance
VALUE_TOL = 1e-6
# slack for float transforms that should be nonnegative or vanish
FLOAT_SLACK = 1e-9


class CheckError(AssertionError):
    pass


def require(cond, message: str) -> None:
    if not cond:
        raise CheckError(message)


def flat(moduli, x) -> int:
    i = 0
    for c, m in zip(x, moduli):
        i = i * m + (c % m)
    return i


def coords(moduli) -> np.ndarray:
    """All elements as an (order, rank) integer array, in flat order."""
    grids = np.meshgrid(*[np.arange(m) for m in moduli], indexing="ij")
    return np.stack([g.ravel() for g in grids], axis=1)


def negate(moduli, idx: np.ndarray) -> np.ndarray:
    c = coords(moduli)[idx]
    m = np.asarray(moduli)
    return ((-c) % m) @ _weights(moduli)


def _weights(moduli) -> np.ndarray:
    w = np.ones(len(moduli), dtype=np.int64)
    for i in range(len(moduli) - 2, -1, -1):
        w[i] = w[i + 1] * moduli[i + 1]
    return w


def real_transform(moduli, values) -> np.ndarray:
    """sum_x v(x) cos(2 pi <t, x>) for every t, by np.fft."""
    arr = np.asarray(values, dtype=float).reshape(tuple(moduli))
    return np.fft.fftn(arr).real.ravel()


# ---------------------------------------------------------------------------
# finite-group LP


def _character_rows(moduli, dual_pairs) -> np.ndarray:
    """Flat index per row, after checking the rows are one representative
    per negation class of characters, the trivial one first."""
    idx = np.array([flat(moduli, t) for t, _s in dual_pairs], dtype=np.int64)
    order = math.prod(moduli)
    require(idx[0] == 0, "first row is not the trivial character")
    covered = np.zeros(order, dtype=np.int64)
    np.add.at(covered, idx, 1)
    neg = negate(moduli, idx)
    np.add.at(covered, neg[neg != idx], 1)
    require(covered.min() == 1 and covered.max() == 1,
            "rows do not cover each character pair exactly once")
    return idx


def check_float_lp(moduli, omega: set[int], sol) -> tuple[float, float]:
    """Re-prove a float LP value from both sides; returns (upper, lower).

    Upper: weights lam >= 0 on the character rows combine to minus the
    objective up to a residual e; since |f(x)| <= f(0) for positive
    definite f, weak duality gives 1 + sum lam + sum_x |e_x|.
    Lower: the witness lies in Omega, has f(0) > 0 and a nonnegative
    transform, so sum f / f(0) is attained.
    """
    require(sol.status == "optimal", f"status {sol.status}")
    rows = _character_rows(moduli, sol.problem.dual_pairs)
    lam = np.asarray(sol.dual, dtype=float)
    require(lam.shape == rows.shape, "one dual weight per row required")
    require(lam.min() >= -FLOAT_SLACK, f"negative dual weight {lam.min():.3e}")
    lam = np.maximum(lam, 0.0)
    u = np.zeros(math.prod(moduli))
    u[rows] = lam
    spread = real_transform(moduli, u)
    punct = np.array(sorted(omega - {0}), dtype=np.int64)
    resid = np.abs(spread[punct] + 1.0).sum() if punct.size else 0.0
    upper = 1.0 + float(lam.sum()) + float(resid)

    f = np.asarray(sol.f.values, dtype=float)
    support = set(np.flatnonzero(f).tolist())
    require(support <= omega, "witness support leaves the domain")
    require(f[0] > 0, "witness has f(0) <= 0")
    F = np.fft.fftn(f.reshape(tuple(moduli))).ravel()
    mass = float(np.abs(f).sum())
    require(F.real.min() >= -FLOAT_SLACK * mass,
            f"witness transform dips to {F.real.min():.3e}")
    lower = float(f.sum() / f[0])

    tol = VALUE_TOL * max(1.0, abs(sol.value))
    require(abs(upper - sol.value) <= tol,
            f"dual bound {upper!r} misses reported value {sol.value!r}")
    require(abs(lower - sol.value) <= tol,
            f"witness ratio {lower!r} misses reported value {sol.value!r}")
    require(lower <= upper + tol, "witness exceeds the dual bound")
    return upper, lower


def highs_value(moduli, omega: set[int]) -> float:
    """The constant as the primal LP over even f, solved by HiGHS."""
    from scipy.optimize import linprog

    punct = np.array(sorted(omega - {0}), dtype=np.int64)
    neg = negate(moduli, punct)
    reps = punct[punct <= neg]
    sizes = np.where(neg[punct <= neg] == reps, 1.0, 2.0)
    if reps.size == 0:
        return 1.0
    c = coords(moduli)
    phase = (c[:, None, :] * c[reps][None, :, :]
             / np.asarray(moduli, dtype=float)).sum(axis=2)
    A = sizes * np.cos(2.0 * np.pi * phase)
    res = linprog(-sizes, A_ub=-A, b_ub=np.ones(len(c)),
                  bounds=[(-1.0, 1.0)] * len(reps), method="highs")
    require(res.status == 0, f"HiGHS failed: {res.message}")
    return 1.0 - float(res.fun)


def walsh_hadamard(values: list) -> list:
    """Exact sum_x v(x) (-1)^<t,x> on Z_2^k, any exact number type."""
    vals = list(values)
    h = 1
    while h < len(vals):
        for base in range(0, len(vals), 2 * h):
            for j in range(base, base + h):
                a, b = vals[j], vals[j + h]
                vals[j], vals[j + h] = a + b, a - b
        h *= 2
    return vals


def check_exact_lp(k: int, omega: set[int], sol) -> Fraction:
    """Re-check an exact-rational certificate on Z_2^k in Fractions."""
    require(sol.status == "optimal", f"status {sol.status}")
    require(isinstance(sol.exact_value, Fraction), "no exact value")
    moduli = (2,) * k
    rows = _character_rows(moduli, sol.problem.dual_pairs)
    lam = [Fraction(v) for v in sol.dual]
    require(all(v >= 0 for v in lam), "negative exact dual weight")
    u = [Fraction(0)] * (2 ** k)
    for r, v in zip(rows.tolist(), lam):
        u[r] = v
    spread = walsh_hadamard(u)
    for x in omega - {0}:
        require(spread[x] == -1,
                f"row combination misses the objective at {x}")
    bound = 1 + sum(lam, Fraction(0))
    require(bound == sol.exact_value,
            f"certificate proves {bound}, solver reports {sol.exact_value}")
    return bound


# ---------------------------------------------------------------------------
# packings, spectra, periodic sets


def check_packing(moduli, omega, lam) -> int:
    """(Lambda + w) misses Lambda for every w in Omega minus 0; hash set."""
    pts = [tuple(int(c) % m for c, m in zip(x, moduli)) for x in lam]
    members = set(pts)
    require(len(members) == len(pts), "packing repeats an element")
    shifts = [tuple(w) for w in omega if any(c % m for c, m in zip(w, moduli))]
    for x in pts:
        for w in shifts:
            y = tuple((a + b) % m for a, b, m in zip(x, w, moduli))
            require(y not in members,
                    f"packing clash: {x} and {y} differ by a domain element")
    return len(pts)


def check_spectrum(moduli, H, T) -> None:
    """The characters of T are orthogonal on H and there are |H| of them."""
    Hs = np.array([list(h) for h in H], dtype=float)
    Ts = np.array([list(t) for t in T], dtype=float)
    require(len({tuple(t) for t in T}) == len(T), "spectrum repeats")
    require(len(T) == len(H), f"|T| = {len(T)} but |H| = {len(H)}")
    E = np.exp(2j * np.pi * (Ts / np.asarray(moduli, dtype=float)) @ Hs.T)
    gram = E @ E.conj().T
    off = np.abs(gram - len(H) * np.eye(len(T))).max()
    require(off <= FLOAT_SLACK * len(H), f"characters not orthogonal: {off:.3e}")


def _solve_fraction(B, v):
    """x with B x = v over the rationals (B square, nonsingular)."""
    n = len(B)
    A = [[Fraction(B[i][j]) for j in range(n)] + [Fraction(v[i])]
         for i in range(n)]
    for col in range(n):
        piv = next(r for r in range(col, n) if A[r][col] != 0)
        A[col], A[piv] = A[piv], A[col]
        for r in range(n):
            if r != col and A[r][col] != 0:
                q = A[r][col] / A[col][col]
                A[r] = [a - q * b for a, b in zip(A[r], A[col])]
    return [A[i][n] / A[i][i] for i in range(n)]


def _det_fraction(B) -> Fraction:
    n = len(B)
    A = [[Fraction(c) for c in row] for row in B]
    det = Fraction(1)
    for col in range(n):
        piv = next((r for r in range(col, n) if A[r][col] != 0), None)
        require(piv is not None, "singular lattice basis")
        if piv != col:
            A[col], A[piv] = A[piv], A[col]
            det = -det
        det *= A[col][col]
        for r in range(col + 1, n):
            q = A[r][col] / A[col][col]
            A[r] = [a - q * b for a, b in zip(A[r], A[col])]
    return det


def check_periodic_packing(omega_points, basis, residues) -> Fraction:
    """No nonzero domain point is a difference of the periodic set; the
    generators are the rows of ``basis``. Returns the density."""
    d = len(basis)
    cols = [[basis[j][i] for j in range(d)] for i in range(d)]
    for x in omega_points:
        if not any(x):
            continue
        for r1 in residues:
            for r2 in residues:
                z = _solve_fraction(cols, [a - b + c for a, b, c
                                           in zip(x, r1, r2)])
                require(any(v.denominator != 1 for v in z),
                        f"{tuple(x)} is a difference of the periodic set")
    return Fraction(len(residues), abs(_det_fraction(basis)))


def check_bracket(uppers, lowers, tol: float = VALUE_TOL) -> None:
    """Every upper bound sits above every lower bound."""
    if uppers and lowers:
        require(min(uppers) >= max(lowers) - tol,
                f"upper {min(uppers)!r} below lower {max(lowers)!r}")
