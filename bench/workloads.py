"""The two workloads: inputs made from the seed, and a check per operation.

An operation is one problem solved, one search or one CLI invocation.
``build(name, seed, rnd, workdir)`` returns the operations of round
``rnd``. Every round runs the same operations in the same order; their
inputs are drawn afresh for each round from ``(seed, workload, rnd)``.
Each operation's ``run`` calls the program and returns its output;
``check`` re-proves that output with ``checks`` and the paper's closed
forms, and raises ``CheckError`` when it is wrong.
"""
from __future__ import annotations

import contextlib
import io
import json
import math
import os
from dataclasses import dataclass
from fractions import Fraction
from typing import Callable

import numpy as np

import turanlab as T
from turanlab import cli

from checks import (VALUE_TOL, check_bracket, check_exact_lp,
                    check_float_lp, check_packing, check_periodic_packing,
                    check_spectrum, coords, flat, highs_value, negate,
                    require)

WORKLOADS = ("lp-product", "bounds")


@dataclass
class Op:
    name: str
    run: Callable[[], object]
    check: Callable[[object], None]


class CliFailed(Exception):
    """A CLI invocation exited non-zero."""


def build(name: str, seed: int, rnd: int, workdir: str) -> list[Op]:
    rng = np.random.default_rng([seed, WORKLOADS.index(name), rnd])
    return {"lp-product": _lp_product, "bounds": _bounds}[name](rng, workdir)


# ---------------------------------------------------------------------------
# inputs


def _random_domain(rng, moduli, pairs: int) -> list[tuple]:
    """0 plus ``pairs`` random negation pairs of nonzero elements."""
    order = math.prod(moduli)
    idx = np.arange(1, order)
    reps = idx[idx <= negate(moduli, idx)]
    chosen = np.sort(rng.choice(reps, size=pairs, replace=False))
    full = np.unique(np.concatenate([[0], chosen, negate(moduli, chosen)]))
    return [tuple(int(c) for c in row) for row in coords(moduli)[full]]


def _det(rows: list[list[int]]) -> int:
    """Exact integer determinant (Bareiss)."""
    A = [list(r) for r in rows]
    n, sign, prev = len(A), 1, 1
    for k in range(n - 1):
        if A[k][k] == 0:
            swap = next((i for i in range(k + 1, n) if A[i][k]), None)
            if swap is None:
                return 0
            A[k], A[swap] = A[swap], A[k]
            sign = -sign
        for i in range(k + 1, n):
            for j in range(k + 1, n):
                A[i][j] = (A[i][j] * A[k][k] - A[i][k] * A[k][j]) // prev
        prev = A[k][k]
    return sign * A[-1][-1]


def _automorphism(rng, moduli):
    """A random automorphism x -> A x, block-diagonal over runs of equal
    moduli, with each block invertible modulo its modulus."""
    blocks = []
    i = 0
    while i < len(moduli):
        j = i
        while j < len(moduli) and moduli[j] == moduli[i]:
            j += 1
        m = moduli[i]
        while True:
            A = rng.integers(0, m, size=(j - i, j - i))
            if math.gcd(_det(A.tolist()), m) == 1:
                break
        blocks.append((i, j, m, A))
        i = j

    def phi(x):
        out = list(x)
        for lo, hi, m, A in blocks:
            out[lo:hi] = [int(c) % m for c in A @ np.asarray(x[lo:hi])]
        return tuple(out)

    return phi


def _relabeled_domain(rng, moduli, pairs: int, base: int) -> list[tuple]:
    """A fixed random domain (drawn from ``base``) under a random
    automorphism drawn from ``rng``. The constant and the LP's size do not
    depend on the automorphism, so the draw changes the labels the
    program sees but not the instance. The simplex path does change with
    the labels, because ties are broken by index."""
    phi = _automorphism(rng, moduli)
    fixed = _random_domain(np.random.default_rng(base), moduli, pairs)
    return sorted(phi(x) for x in fixed)


# HiGHS values by operation name. A name fixes its instance up to a group
# automorphism, which leaves the constant unchanged, so every round's
# relabeling is held to the value of the first one.
_REFERENCE: dict[str, float] = {}


def _reference(name: str, moduli, omega) -> float:
    """HiGHS value of one instance, computed at its first check so that
    the oracle stays out of set-up time."""
    if name not in _REFERENCE:
        _REFERENCE[name] = highs_value(moduli, omega)
    return _REFERENCE[name]


def _basis(k: int) -> list[tuple]:
    return [tuple(int(i == j) for j in range(k)) for i in range(k)]


def _flat_set(moduli, elems) -> set[int]:
    return {flat(moduli, x) for x in elems}


def _lp_op(name, moduli, elems, *, mode="float", expect=None):
    """One finite-group LP solve with its checks.

    The domain is built with the round, outside the timed region; the
    operation is ``turan_constant``.
    ``expect`` is a closed-form value the answer must match.
    """
    G = T.make_group(moduli)
    D = T.symmetric_domain(G, elems)
    omega = _flat_set(moduli, elems)

    def run():
        return T.turan_constant(G, D, mode=mode)

    def check(sol):
        upper, _lower = check_float_lp(moduli, omega, sol)
        if mode == "exact-rational":
            exact = check_exact_lp(len(moduli), omega, sol)
            if expect is not None:
                require(exact == expect, f"{name}: {exact} != {expect}")
        if expect is not None:
            require(abs(upper - float(expect)) <= VALUE_TOL * float(expect),
                    f"{name}: {upper!r} != closed form {expect}")
        ref = _reference(name, moduli, omega)
        require(abs(sol.value - ref) <= VALUE_TOL * max(1.0, ref),
                f"{name}: {sol.value!r} but HiGHS finds {ref!r}")

    return Op(name, run, check)


_PRODUCT_GROUPS = ([2] * 10, [2] * 12, [3] * 6, [3] * 7, [4] * 5, [4] * 6,
                   [2, 2, 3, 3, 4, 4], [2] * 6 + [3] * 4)


def _lp_product(rng, _workdir):
    """Small cyclic factors: row building, index lookups and pivots."""
    ops = []
    for k in (8, 10, 12):
        H = _basis(k)
        D = T.difference_set(T.make_group([2] * k), H)
        ops.append(_lp_op(f"Z2^{k}-HH", [2] * k, sorted(D.elements),
                          expect=Fraction(k)))
    for g, moduli in enumerate(_PRODUCT_GROUPS):
        for j in range(2):
            ops.append(_lp_op(f"{moduli}-random{j}", moduli,
                              _relabeled_domain(rng, moduli, 30,
                                                base=2 * g + j)))
    return ops


# ---------------------------------------------------------------------------
# bounds: searches, checkers, lattice, real line and the CLI


def _reports_bracket(reports) -> None:
    check_bracket([r.as_float() for r in reports if r.direction == "upper"],
                  [r.as_float() for r in reports if r.direction == "lower"])


def _compare_op(name, moduli, elems, hints, budget, expect=None):
    G = T.make_group(moduli)
    D = T.symmetric_domain(G, elems)

    def run():
        return T.compare_bounds(G, D, hints, budget=budget)

    def check(reports):
        ref = _reference(name, moduli, _flat_set(moduli, elems))
        _reports_bracket(reports)
        for r in reports:
            if r.method == "packing":
                size = check_packing(moduli, elems, r.certificate["Lambda"])
                require(r.value == Fraction(G.order, size),
                        f"{name}: packing bound {r.value} for |Lambda|={size}")
            if r.method == "spectral":
                check_spectrum(moduli, r.certificate["H"], r.certificate["T"])
                require(r.as_float() == len(r.certificate["H"]),
                        f"{name}: spectral bound is not |H|")
            if r.method == "lp":
                require(abs(r.as_float() - ref) <= VALUE_TOL * ref,
                        f"{name}: lp {r.as_float()!r} vs HiGHS {ref!r}")
            if r.direction == "upper":
                require(r.as_float() >= ref - VALUE_TOL * ref,
                        f"{name}: {r.method} {r.as_float()!r} below the constant")
            else:
                require(r.as_float() <= ref + VALUE_TOL * ref,
                        f"{name}: {r.method} {r.as_float()!r} above the constant")
        if expect is not None:
            best = min(r.as_float() for r in reports if r.direction == "upper")
            require(abs(best - expect) <= VALUE_TOL * expect,
                    f"{name}: best upper {best!r} != {expect}")

    return Op(name, run, check)


def _spectrum_op(name, moduli, H, *, exists: bool):
    G = T.make_group(moduli)

    def run():
        return T.find_spectrum(G, H)

    def check(search):
        if exists:
            require(search.candidate is not None, f"{name}: no spectrum found")
            check_spectrum(moduli, H, search.candidate.T)
        else:
            require(search.candidate is None and search.exhausted,
                    f"{name}: expected a certified absence")
            require(not _has_spectrum(moduli[0], H),
                    f"{name}: a spectrum exists but none was found")

    return Op(name, run, check)


def _has_spectrum(n: int, H) -> bool:
    """Brute force on Z_n for |H| = 3: a spectrum {0, a, b} needs a, b and
    a - b all to be zeros of the indicator transform."""
    require(len(H) == 3, "brute force covers |H| = 3 only")
    hs = np.array([h[0] for h in H])
    vals = np.abs(np.exp(2j * np.pi * np.outer(np.arange(n), hs) / n).sum(axis=1))
    zero = vals <= 1e-9
    zs = np.flatnonzero(zero)
    return any(zero[(a - b) % n] for a in zs for b in zs if a < b)


def _cli(argv: list[str]):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        rc = cli.main(argv)
    if rc != 0:
        raise CliFailed(f"turanlab {' '.join(argv)} exited {rc}: "
                        f"{err.getvalue().strip()}")
    return out.getvalue()


def _write_problem(workdir: str, name: str, doc: dict) -> str:
    path = os.path.join(workdir, name + ".json")
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(doc, fh)
    return path


def _report_values(report: dict):
    ups = [float(b["value"]["decimal"]) for b in report["bounds"]
           if b["direction"] == "upper"]
    los = [float(b["value"]["decimal"]) for b in report["bounds"]
           if b["direction"] == "lower"]
    return ups, los


def _cli_turan_op(name, workdir, doc, check_doc):
    path = _write_problem(workdir, name, doc)

    def check(text):
        report = json.loads(text)
        ups, los = _report_values(report)
        # decimals carry 12 significant digits
        check_bracket(ups, los, tol=1e-9 * max(ups + los + [1.0]))
        check_doc(report, ups, los)

    return Op(name, lambda: _cli(["turan", path]), check)


def _bounds(rng, workdir):
    ops = []
    budget = T.SearchBudget(node_limit=20_000)

    # the paper's examples 4.1 and 4.4, with every hint kind
    ops.append(_compare_op("ex4.1", [8], [(x,) for x in (0, 1, 3, 4, 5, 7)],
                           {"H": [[0, 1, 4, 5]], "Lambda": [[0, 2]],
                            "K": [[4]]}, budget, expect=4.0))
    ops.append(_compare_op("ex4.4", [10], [(x,) for x in (0, 1, 3, 5, 7, 9)],
                           {"Lambda": [[0, 2, 4, 6, 8]], "K": [[2]]},
                           budget, expect=2.0))
    # hypercube H - H: the spectral bound 8 beats every packing bound
    k = 8
    D = T.difference_set(T.make_group([2] * k), _basis(k))
    ops.append(_compare_op(f"Z2^{k}-HH-compare", [2] * k, sorted(D.elements),
                           {"H": [_basis(k)]}, budget, expect=float(k)))
    # random cyclic domain with a subgroup hint
    n = int(rng.choice([84, 90, 96]))
    sub = int(rng.choice([d for d in (2, 3, 4, 6) if n % d == 0]))
    ops.append(_compare_op(f"Z{n}-random-compare", [n],
                           _relabeled_domain(rng, [n], 6, base=n),
                           {"K": [[n // sub]]}, budget))

    # the exact path: the Fraction simplex under Bland's rule and the
    # exact certificate, on H - H in Z_2^6, whose constant is 6
    k = 6
    D = T.difference_set(T.make_group([2] * k), _basis(k))
    ops.append(_lp_op(f"Z2^{k}-HH-exact", [2] * k, sorted(D.elements),
                      mode="exact-rational", expect=Fraction(k)))

    # spectrum searches: an interval of Z_{m r} has the spectrum r Z_{m r}
    # ... and {0, 1, 3} has none in Z_n for these n (brute force agrees)
    m, r = int(rng.integers(4, 9)), int(rng.integers(2, 5))
    ops.append(_spectrum_op(f"Z{m * r}-interval-spectrum", [m * r],
                            [(h,) for h in range(m)], exists=True))
    n3 = int(rng.choice([7, 11, 13, 14, 16]))
    ops.append(_spectrum_op(f"Z{n3}-013-spectrum", [n3], [(0,), (1,), (3,)],
                            exists=False))

    # one packing search above the exact-search cap: greedy plus swaps
    n_big, width = 4099, 16
    Gb = T.make_group([n_big])
    Db = T.symmetric_domain(Gb, [(x % n_big,) for x in range(-width, width + 1)])
    dom_big = [(x,) for x in range(-width, width + 1)]

    def run_big():
        lam = T.max_packing_set(Gb, Db)
        return lam, T.packing_bound(Gb, Db, lam)

    def check_big(out):
        lam, rep = out
        size = check_packing([n_big], dom_big, lam.elements)
        require(lam.maximality == T.GREEDY_ONLY, "above the cap, greedy only")
        require(rep.value == Fraction(n_big, size), "packing bound value")
        require(rep.value >= width + 1, "packing bound below the constant")

    ops.append(Op(f"Z{n_big}-packing-greedy", run_big, check_big))

    # lattice: torus LPs against the paper's closed forms
    N_odd = int(rng.choice([3, 5, 7, 9]))
    n_even = int(rng.integers(1, 4))
    N_fej = int(rng.integers(1, 7))

    def run_torus():
        return (T.upper_bound_z(T.omega_N_domain(N_odd), Ms=[2 * N_odd + 2]),
                T.upper_bound_z(T.omega_N_domain(2 * n_even),
                                Ms=[2 * (2 * n_even + 1)]),
                T.upper_bound_z(T.interval_domain(N_fej), Ms=[10 * (N_fej + 1)]))

    def check_torus(out):
        odd, even, fej = (r.as_float() for r in out)
        closed = 1 + 1 / math.cos(math.pi / (2 * n_even + 1))
        require(abs(odd - 2) <= VALUE_TOL, f"omega_{N_odd}: {odd!r} != 2")
        require(abs(even - closed) <= VALUE_TOL,
                f"omega_{2 * n_even}: {even!r} != {closed!r}")
        require(abs(fej - (N_fej + 1)) <= VALUE_TOL,
                f"interval {N_fej}: {fej!r} != {N_fej + 1}")

    ops.append(Op("torus-closed-forms", run_torus, check_torus))

    # periodic packings: Lambda* for {0, +-1, +-2n}, and example 4.5 in Z^2
    n_pk = int(rng.integers(1, 5))
    H45 = [(0, 0), (0, 1), (1, 0)]
    pts45 = sorted({(a[0] - b[0], a[1] - b[1]) for a in H45 for b in H45})
    pts_pk = [(0,), (1,), (-1,), (2 * n_pk,), (-2 * n_pk,)]

    def run_periodic():
        lam = T.omega_N_packing(n_pk)
        lam45 = T.periodic_set(2, ((1, 1), (2, -1)), [(0, 0)])
        return (lam, T.density_bound_zd(T.omega_N_domain(2 * n_pk), lam),
                T.density_bound_zd(T.lattice_domain(2, pts45), lam45))

    def check_periodic(out):
        lam, bound, bound45 = out
        density = check_periodic_packing(pts_pk, lam.basis, lam.residues)
        require(density == Fraction(n_pk, 2 * n_pk + 1), "Lambda* density")
        require(bound.value == 1 / density, "density bound value")
        closed = 1 + 1 / math.cos(math.pi / (2 * n_pk + 1))
        require(bound.as_float() >= closed - VALUE_TOL,
                "periodic bound below the constant")
        d45 = check_periodic_packing(pts45, ((1, 1), (2, -1)), [(0, 0)])
        require(bound45.value == 1 / d45 == 3, "example 4.5 bound is not 3")

    ops.append(Op("periodic-packings", run_periodic, check_periodic))

    # greedy window in d = 2 on the example 4.5 domain
    L = int(rng.integers(36, 41))

    def run_window():
        return T.greedy_packing_window(T.lattice_domain(2, pts45), L)

    def check_window(run):
        check_packing((10 ** 9, 10 ** 9), pts45, run.selected)
        require(run.achieved == len(run.selected) >= run.floor,
                "window run below its floor")

    ops.append(Op(f"window-L{L}", run_window, check_window))

    # real line: lattice certificate b for (-3b/2, 3b/2) minus {+-b}, and
    # tents of half-width below b; theorem 4.3's sharpness pair
    b = Fraction(int(rng.integers(2, 20)), int(rng.integers(2, 20))) + 1
    eps = Fraction(1, int(rng.integers(10, 100)))

    def run_real():
        dom = T.punctured_interval(3 * b / 2, b)
        return (T.lattice_certificate(dom, b), T.halving_bound(dom),
                T.witness_in_domain(T.tent_train(b * (1 - eps), [0]), dom),
                T.witness_in_domain(T.tent_train(1, [0, 2]),
                                    T.punctured_interval(3, 1)))

    def check_real(out):
        lat, half, tent, sharp = out
        # the only positive multiple of b below 3b/2 is b itself, removed
        require(lat.value == b, "lattice certificate value")
        require(half.value == 3 * b / 2, "halving bound is half of 3b")
        require(tent.value == b * (1 - eps), "single tent ratio is its width")
        require(sharp.value == 2, "theorem 4.3 sharpness pair is not 2")
        check_bracket([float(lat.value), float(half.value)],
                      [float(tent.value)])

    ops.append(Op("real-line-brackets", run_real, check_real))

    # the CLI, in process: turan on three settings, both searches, and
    # verify-paper
    n_cli = int(rng.choice([24, 30, 36, 40]))
    elems_cli = _relabeled_domain(rng, [n_cli], 5, base=n_cli)
    fg = {"setting": "finite-group", "moduli": [n_cli],
          "domain": [x[0] for x in elems_cli],
          "hints": {"H": [[0, 1]], "K": [[n_cli // 2]]},
          "budget": {"node_limit": 20000}}
    def check_fg(report, ups, los):
        ref = _reference(f"cli-turan-Z{n_cli}", [n_cli],
                         _flat_set([n_cli], elems_cli))
        require(min(ups) >= ref - VALUE_TOL * ref,
                "best upper below the constant")
        require(max(los) <= ref + VALUE_TOL * ref,
                "best lower above the constant")
        for bnd in report["bounds"]:
            if bnd["method"] == "packing":
                lam = [x if isinstance(x, list) else [x]
                       for x in bnd["certificate"]["Lambda"]]
                check_packing([n_cli], elems_cli, lam)

    ops.append(_cli_turan_op(f"cli-turan-Z{n_cli}", workdir, fg, check_fg))

    Nz = int(rng.integers(2, 6))
    lz = {"setting": "lattice-z", "dimension": 1,
          "domain": list(range(-Nz, Nz + 1)), "hints": {"M": [10 * (Nz + 1)],
                                                        "H": list(range(Nz + 1))}}

    def check_lz(report, ups, los):
        require(abs(min(ups) - (Nz + 1)) <= 1e-9 * (Nz + 1) + VALUE_TOL,
                "Fejer upper bound is not N + 1")
        require(max(los) == Nz + 1, "witness |H| is not N + 1")
        require(report["tight"], "interval bracket not tight")

    ops.append(_cli_turan_op(f"cli-turan-interval{Nz}", workdir, lz, check_lz))

    rl = {"setting": "real-line",
          "domain": [[str(-3 * b / 2), str(-b)], [str(-b), str(b)],
                     [str(b), str(3 * b / 2)]],
          "hints": {"c": str(b), "tents": [{"c": str(b * (1 - eps)), "D": [0]}]}}

    def check_rl(report, ups, los):
        rationals = {bnd["method"]: bnd["value"]["rational"]
                     for bnd in report["bounds"]}
        require(rationals["lattice"] == str(b), "lattice bound")
        require(rationals["tent-train"] == str(b * (1 - eps)), "tent bound")

    ops.append(_cli_turan_op("cli-turan-real-line", workdir, rl, check_rl))

    # the kept failure: lattice-z with M = [6, 100] in d = 2. Z_100^2 is
    # above the LP order cap, the torus solve ends budget-exceeded and
    # upper_bound_z raises, so the CLI exits 2
    fail = {"setting": "lattice-z", "dimension": 2,
            "domain": [[0, 0], [0, 1], [0, -1], [1, 0], [-1, 0]],
            "hints": {"M": [6, 100]}}
    ops.append(_cli_turan_op("cli-turan-lattice-z-M100", workdir, fail,
                             lambda *_: None))

    pk_path = _write_problem(workdir, "cli-search-packing", fg)

    def check_pk(text):
        out = json.loads(text)
        lam = [x if isinstance(x, list) else [x] for x in out["Lambda"]]
        size = check_packing([n_cli], elems_cli, lam)
        require(out["size"] == size, "reported size")
        # a search that runs out of its node budget may stop short
        require(out["maximality"] in ("proven-max", "greedy-only"),
                "unknown maximality")

    ops.append(Op("cli-search-packing", lambda: _cli(
        ["search", pk_path, "--what", "packing"]), check_pk))

    sp_doc = {"setting": "finite-group", "moduli": [m * r],
              "domain": [0], "hints": {"H": [list(range(m))]}}
    sp_path = _write_problem(workdir, "cli-search-spectrum", sp_doc)

    def check_sp(text):
        out = json.loads(text)
        require(out["found"], "spectrum not found")
        check_spectrum([m * r], [[h] for h in range(m)],
                       [t if isinstance(t, list) else [t] for t in out["T"]])

    ops.append(Op("cli-search-spectrum", lambda: _cli(
        ["search", sp_path, "--what", "spectrum"]), check_sp))

    def check_vp(text):
        out = json.loads(text)
        require(out["all_pass"] and len(out["checks"]) == 13,
                "verify-paper does not pass all 13 checks")

    ops.append(Op("cli-verify-paper", lambda: _cli(
        ["--output", "json", "verify-paper"]), check_vp))
    return ops
