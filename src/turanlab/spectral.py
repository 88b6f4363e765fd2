"""Spectra of finite sets, the |H| upper bound, and bound comparison.

T is a spectrum of H when the characters indexed by T form an orthogonal
basis of functions on H. Two equivalent tests are run side by side: the
Gram condition (pairwise differences of T are zeros of the transform of
the indicator of H, with |T| = |H|) and the summed identity

    sum over s in T of |chi_H hat(gamma - s)|^2 = |H|^2   for every gamma.

The two must agree; a disagreement beyond tolerance is reported as a
numerical inconsistency and never papered over.

A spectrum certifies the upper bound |H| for any domain inside H - H,
which on some instances beats every packing bound; compare_bounds runs
the whole battery and marks the winner.
"""
from __future__ import annotations

import time
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .bounds import BoundReport, rank_reports
from .config import (DEFAULT_BUDGET, DEFAULT_TOLERANCES, LP_GROUP_ORDER_CAP,
                     SearchBudget, Tolerances)
from .errors import CertificateInvalidError, NumericalInconsistencyError
from .groups import (Element, FiniteAbelianGroup, SymmetricDomain,
                     difference_set, flat, subgroup_generated, translate)
from .harmonic import _axis_transform, indicator
from .packing import (NeighbourMasks, max_packing_set, packing_bound,
                      tiling_bound)
from .turan_lp import quotient_bound, subgroup_bound, turan_constant

ZERO_TOL = 1e-9


@dataclass
class SpectrumCandidate:
    group: FiniteAbelianGroup
    H: tuple[Element, ...]
    T: tuple[Element, ...]
    verified: bool


@dataclass
class SpectrumSearch:
    candidate: SpectrumCandidate | None
    exhausted: bool
    nodes: int


class SpectrumReport(NamedTuple):
    flag: bool
    diagnostics: dict


def _canon_set(group: FiniteAbelianGroup, xs) -> list[Element]:
    out = []
    for x in xs:
        out.append(group.canon(x if isinstance(x, tuple) else (x,)))
    if len(set(out)) != len(out):
        raise ValueError("set has repeated elements")
    return sorted(out, key=group.index)


def _indicator_transform(group: FiniteAbelianGroup, H) -> np.ndarray:
    return _axis_transform(indicator(group, H).values, group.moduli, False)


def _exponent_two(group: FiniteAbelianGroup) -> bool:
    return all(m in (1, 2) for m in group.moduli)


def transform_zero_set(group: FiniteAbelianGroup, H,
                       tol: float = ZERO_TOL) -> tuple[list[Element], dict]:
    """Characters where the indicator transform of H vanishes.

    Exponent-2 groups have integer transform values, so the test there is
    exact. Otherwise |value| <= tol*|H| counts as zero, and the returned
    histogram shows how many values sit within 10x, 100x, 1000x of the
    threshold, making borderline classifications visible.
    """
    Hc = _canon_set(group, H)
    ft = _indicator_transform(group, Hc)
    mags = np.abs(ft)
    if _exponent_two(group):
        zero_mask = np.rint(ft.real) == 0
        if np.abs(ft.real - np.rint(ft.real)).max() > 1e-6:
            raise NumericalInconsistencyError(
                "exponent-2 transform is not integral")
    else:
        zero_mask = mags <= tol * len(Hc)
    edges = [tol * len(Hc) * f for f in (1.0, 10.0, 100.0, 1000.0)]
    hist = {f"<= {f:g}x": int((mags <= e).sum())
            for f, e in zip((1, 10, 100, 1000), edges)}
    zeros = [group.element(int(i)) for i in np.flatnonzero(zero_mask)]
    return zeros, {"histogram": hist, "min_nonzero_mag":
                   float(mags[~zero_mask].min()) if (~zero_mask).any() else None}


def is_spectrum(group: FiniteAbelianGroup, H, T,
                tol: float = ZERO_TOL) -> SpectrumReport:
    """Run both spectrum characterizations and require their agreement."""
    Hc = _canon_set(group, H)
    Tc = _canon_set(group, T)
    if not Hc or not Tc:
        raise ValueError("both sets must be nonempty")
    ft = _indicator_transform(group, Hc)
    mags = np.abs(ft)
    h = len(Hc)

    # (a) Gram: right size and every nonzero difference of T kills the transform
    gram_ok = len(Tc) == h
    worst_pair = 0.0
    if gram_ok:
        coords = np.array(Tc, dtype=np.int64).reshape(h, group.rank)
        # one array step per element, against all earlier ones: memory
        # stays O(|T|) where one step over all pairs would need |T|^2
        for i in range(1, h):
            diffs = flat(group.moduli, coords[i] - coords[:i])
            worst_pair = max(worst_pair, float(mags[diffs].max()))
        gram_ok = worst_pair <= tol * h

    # (b) the power sum over shifts of T is flat at |H|^2
    power = (mags ** 2).reshape(group.moduli if group.moduli else (1,))
    acc = np.zeros_like(power)
    for t in Tc:
        acc += np.roll(power, shift=t, axis=tuple(range(group.rank)))
    dev = float(np.abs(acc - h * h).max())
    ident_ok = dev <= max(tol, 1e-12) * h * h * max(1, len(Tc))

    diag = {"worst_offdiagonal": worst_pair, "identity_deviation": dev,
            "|H|": h, "|T|": len(Tc)}
    if gram_ok != ident_ok:
        raise NumericalInconsistencyError(
            f"spectrum tests disagree: gram={gram_ok} identity={ident_ok} "
            f"(off-diagonal {worst_pair:.3e}, identity deviation {dev:.3e})")
    return SpectrumReport(gram_ok, diag)


def find_spectrum(group: FiniteAbelianGroup, H,
                  budget: SearchBudget = DEFAULT_BUDGET,
                  tol: float = ZERO_TOL) -> SpectrumSearch:
    """Search for a spectrum of H as a clique in the zero-difference graph.

    Spectra are translation invariant, so 0 goes into T for free. The
    graph is a Cayley graph on the dual (hence regular: degree ordering
    degenerates to index order) and the clique must reach size |H|.
    Returns the lexicographically least spectrum if one exists within
    budget; exhausted=True means the absence is certified. The clock is
    read every 1024 nodes, as in the packing search.
    """
    Hc = _canon_set(group, H)
    h = len(Hc)
    zeros, _diag = transform_zero_set(group, H, tol)
    zset = {group.index(z) for z in zeros}

    if h == 1:
        cand = SpectrumCandidate(group, tuple(Hc), (group.identity(),), True)
        return SpectrumSearch(cand, True, 0)

    # adjacency masks of the zero graph, built lazily: the search typically
    # touches a tiny corner of a potentially large dual group
    zero_arr = np.array(sorted(zset), dtype=np.int64)
    masks = NeighbourMasks(lambda v: translate(group.moduli, zero_arr, v))
    deadline = (time.monotonic() + budget.time_limit
                if budget.time_limit is not None else None)

    nodes = 0
    exhausted = True
    found: tuple[int, ...] | None = None
    start = masks[0] & ~1  # candidates adjacent to 0, excluding 0 itself
    stack: list[tuple[int, tuple[int, ...]]] = [(start, (0,))]
    while stack:
        nodes += 1
        if nodes > budget.node_limit:
            exhausted = False
            break
        if deadline is not None and nodes % 1024 == 0 and time.monotonic() > deadline:
            exhausted = False
            break
        cand, chosen = stack.pop()
        if len(chosen) == h:
            found = chosen
            break
        if len(chosen) + cand.bit_count() < h:
            continue
        v = (cand & -cand).bit_length() - 1
        rest = cand & ~(1 << v)
        stack.append((rest, chosen))
        stack.append((rest & masks[v], chosen + (v,)))

    if found is None:
        return SpectrumSearch(None, exhausted, nodes)
    T = tuple(group.element(v) for v in found)
    report = is_spectrum(group, Hc, T, tol)
    if not report.flag:
        raise NumericalInconsistencyError(
            f"search produced a non-spectrum: {report.diagnostics}")
    return SpectrumSearch(SpectrumCandidate(group, tuple(Hc), T, True),
                          exhausted, nodes)


def spectral_bound(group: FiniteAbelianGroup, domain: SymmetricDomain,
                   H, T) -> BoundReport:
    """Upper bound |H| from a verified spectrum, for domains inside H-H."""
    Hc = _canon_set(group, H)
    Tc = _canon_set(group, T)
    diff = difference_set(group, Hc)
    outside = [x for x in domain.elements if x not in diff]
    if outside:
        raise CertificateInvalidError(
            f"domain point {sorted(outside, key=group.index)[0]} is not a "
            "difference of the base set")
    report = is_spectrum(group, Hc, Tc)
    if not report.flag:
        raise CertificateInvalidError(
            f"pair is not a spectrum: {report.diagnostics}")
    return BoundReport(float(len(Hc)), "spectral", "upper",
                       {"H": Hc, "T": Tc})


def compare_bounds(group: FiniteAbelianGroup, domain: SymmetricDomain,
                   hints: dict | None = None,
                   budget: SearchBudget = DEFAULT_BUDGET,
                   tolerances: Tolerances = DEFAULT_TOLERANCES,
                   ) -> list[BoundReport]:
    """Run every applicable bound and rank them, best upper bound first.

    hints: optional dict with keys "H" (list of base-set candidates for
    tiling/spectral bounds), "Lambda" (explicit packing sets), "K"
    (subgroup generator lists for subgroup/quotient bounds).

    Certificates that fail their hypotheses are skipped, not reported.
    The winner gets certificate["minimum"] = True.
    """
    hints = hints or {}
    reports: list[BoundReport] = []
    reports.append(BoundReport(float(domain.size), "trivial", "upper",
                               {"reason": "support size"}))

    lam = max_packing_set(group, domain, budget)
    found = packing_bound(group, domain, lam)
    found.certificate["maximality"] = lam.maximality
    reports.append(found)
    for explicit in hints.get("Lambda", []):
        try:
            reports.append(packing_bound(group, domain, explicit))
        except CertificateInvalidError:
            pass

    for H in hints.get("H", []):
        for explicit in hints.get("Lambda", []):
            try:
                reports.append(tiling_bound(group, domain, H, explicit))
            except CertificateInvalidError:
                pass
        try:
            search = find_spectrum(group, H, budget)
            if search.candidate is not None:
                reports.append(spectral_bound(group, domain,
                                              search.candidate.H,
                                              search.candidate.T))
        except (CertificateInvalidError, NumericalInconsistencyError):
            pass

    for gens in hints.get("K", []):
        K = subgroup_generated(group, gens)
        try:
            reports.append(subgroup_bound(group, domain, K))
            reports.append(quotient_bound(group, domain, K))
        except CertificateInvalidError:
            pass

    if group.order <= LP_GROUP_ORDER_CAP:
        sol = turan_constant(group, domain, tolerances=tolerances)
        if sol.status == "optimal":
            reports.append(BoundReport(sol.value, "lp", "upper",
                                       {"solution": sol}))
            reports.append(BoundReport(sol.value - sol.gap, "lp-witness",
                                       "lower", {"f": sol.f}))

    return rank_reports(reports)
