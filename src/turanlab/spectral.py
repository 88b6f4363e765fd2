"""Spectra of finite sets, the |H| upper bound, and bound comparison.

T is a spectrum of H when the characters indexed by T form an orthogonal
basis of functions on H. Two equivalent tests are run side by side: the
Gram condition (pairwise differences of T are zeros of the transform of
the indicator of H, with |T| = |H|) and the summed identity

    sum over s in T of |chi_H hat(gamma - s)|^2 = |H|^2   for every gamma.

The two must agree; a disagreement beyond tolerance is reported as a
numerical inconsistency and never papered over.

By the Gram condition a spectrum through 0 is an independent set of |H|
vertices in the Cayley graph on the dual whose connection set is the
support of the transform of 1_H, so ``find_spectrum`` runs the packing
search, ``packing.branch_and_bound``, on that graph.

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
from .config import (DEFAULT_BUDGET, DEFAULT_TOLERANCES, SearchBudget,
                     Tolerances)
from .errors import CertificateInvalidError, NumericalInconsistencyError
from .groups import (Element, FiniteAbelianGroup, SymmetricDomain,
                     difference_indices, digits, exponent_two, flat,
                     member_mask, sorted_distinct, subgroup_generated,
                     translate)
from .harmonic import _axis_transform
from .packing import (branch_and_bound, max_packing_set, packing_bound,
                      tiling_bound, vertex_mask)
from .turan_lp import _subgroup_and_quotient_bounds, turan_constant

ZERO_TOL = 1e-9
# entries of the |T| x |G| shift table that ``is_spectrum`` gathers at once
_POWER_BATCH = 1 << 16


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


def _canon_set(group: FiniteAbelianGroup, xs) -> np.ndarray:
    """The ascending flat indices of a set given by its elements."""
    raw = group.indices(xs)
    idx = sorted_distinct(raw)
    if len(idx) != len(raw):
        raise ValueError("set has repeated elements")
    return idx


def _indicator_transform(group: FiniteAbelianGroup,
                         idx: np.ndarray) -> np.ndarray:
    values = np.zeros(group.order)
    values[idx] = 1.0
    return _axis_transform(values, group.moduli, False)


def _transform_zeros(group: FiniteAbelianGroup,
                     Hc: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Magnitudes of the indicator transform of Hc and its zero mask."""
    ft = _indicator_transform(group, Hc)
    mags = np.abs(ft)
    if exponent_two(group.moduli):
        zero_mask = np.rint(ft.real) == 0
        if np.abs(ft.real - np.rint(ft.real)).max() > 1e-6:
            raise NumericalInconsistencyError(
                "exponent-2 transform is not integral")
    else:
        zero_mask = mags <= ZERO_TOL * len(Hc)
    return mags, zero_mask


def transform_zero_set(group: FiniteAbelianGroup,
                       H) -> tuple[list[Element], dict]:
    """Characters where the indicator transform of H vanishes.

    Exponent-2 groups have integer transform values, so the test there is
    exact. Otherwise |value| <= ZERO_TOL*|H| counts as zero, and the
    returned histogram shows how many values sit within 10x, 100x, 1000x
    of the threshold, making borderline classifications visible.
    """
    Hc = _canon_set(group, H)
    mags, zero_mask = _transform_zeros(group, Hc)
    edges = [ZERO_TOL * len(Hc) * f for f in (1.0, 10.0, 100.0, 1000.0)]
    hist = {f"<= {f:g}x": int((mags <= e).sum())
            for f, e in zip((1, 10, 100, 1000), edges)}
    zeros = group.elements_at(np.flatnonzero(zero_mask))
    return zeros, {"histogram": hist, "min_nonzero_mag":
                   float(mags[~zero_mask].min()) if (~zero_mask).any() else None}


def is_spectrum(group: FiniteAbelianGroup, H, T) -> SpectrumReport:
    """Run both spectrum characterizations and require their agreement."""
    Hc = _canon_set(group, H)
    Tc = _canon_set(group, T)
    if not len(Hc) or not len(Tc):
        raise ValueError("both sets must be nonempty")
    ft = _indicator_transform(group, Hc)
    mags = np.abs(ft)
    h = len(Hc)
    coords = digits(group.moduli, Tc)

    # (a) Gram: right size and every nonzero difference of T kills the
    # transform. A block of rows of T against all earlier elements at
    # once, at most _POWER_BATCH pairs, so memory stays O(|T| + batch)
    # where one step over all pairs would need |T|^2
    gram_ok = len(Tc) == h
    worst_pair = 0.0
    if gram_ok:
        step = max(1, _POWER_BATCH // h)
        for a in range(1, h, step):
            # the pairs (i, j), j < i, of rows a <= i < a + step
            rows = np.arange(a, min(a + step, h))
            i = np.repeat(rows, rows)
            j = np.arange(len(i)) - np.repeat(rows.cumsum() - rows, rows)
            diffs = flat(group.moduli, coords[i] - coords[j])
            worst_pair = max(worst_pair, float(mags[diffs].max()))
        gram_ok = worst_pair <= ZERO_TOL * h

    # (b) the power sum over shifts of T is flat at |H|^2. Row t of a
    # gather through ``translate`` is power(x - t) for every x; a few rows
    # of T at a time keep memory O(|G|) for large T, and carrying the sum
    # into each batch's first row adds the rows in T's order, one by one
    power = mags ** 2
    x = np.arange(group.order, dtype=np.int64)
    neg_t = flat(group.moduli, -coords)
    acc = np.zeros(group.order)
    step = max(1, _POWER_BATCH // group.order)
    for i in range(0, len(Tc), step):
        shifted = power[translate(group.moduli, x, neg_t[i:i + step, None])]
        shifted[0] += acc
        acc = shifted.sum(axis=0)
    dev = float(np.abs(acc - h * h).max())
    ident_ok = dev <= ZERO_TOL * h * h * max(1, len(Tc))

    diag = {"worst_offdiagonal": worst_pair, "identity_deviation": dev,
            "|H|": h, "|T|": len(Tc)}
    if gram_ok != ident_ok:
        raise NumericalInconsistencyError(
            f"spectrum tests disagree: gram={gram_ok} identity={ident_ok} "
            f"(off-diagonal {worst_pair:.3e}, identity deviation {dev:.3e})")
    return SpectrumReport(gram_ok, diag)


def find_spectrum(group: FiniteAbelianGroup, H,
                  budget: SearchBudget = DEFAULT_BUDGET) -> SpectrumSearch:
    """Search for a spectrum of H as an independent set of size |H|.

    The graph is the Cayley graph on the dual whose connection set is the
    support of the transform of 1_H: s and t may both lie in T exactly
    when s - t is a zero of the transform. Spectra are translation
    invariant, so 0 goes into T for free, and the graph is regular, so
    degree ordering degenerates to index order. Returns the
    lexicographically least spectrum if one exists within budget;
    exhausted=True means the absence is certified. The clock is read
    every 1024 nodes, as in the packing search.
    """
    Hc = _canon_set(group, H)
    h = len(Hc)
    if not h:
        raise ValueError("base set must be nonempty")
    zeros = np.flatnonzero(_transform_zeros(group, Hc)[1])
    H_elems = tuple(group.elements_at(Hc))

    if h == 1:
        cand = SpectrumCandidate(group, H_elems, (group.identity(),), True)
        return SpectrumSearch(cand, True, 0)

    deadline = (time.monotonic() + budget.time_limit
                if budget.time_limit is not None else None)
    # keep(v) = the characters v + zeros, built lazily: the search
    # typically touches a tiny corner of a potentially large dual group
    found, nodes, cut = branch_and_bound(
        lambda v: vertex_mask(translate(group.moduli, zeros, v), group.order),
        h - 1, h, budget.node_limit, deadline)
    if found is None:
        return SpectrumSearch(None, not cut, nodes)
    T = tuple(group.elements_at(found))
    report = is_spectrum(group, H_elems, T)
    if not report.flag:
        raise NumericalInconsistencyError(
            f"search produced a non-spectrum: {report.diagnostics}")
    return SpectrumSearch(SpectrumCandidate(group, H_elems, T, True),
                          True, nodes)


def spectral_bound(group: FiniteAbelianGroup, domain: SymmetricDomain,
                   H, T) -> BoundReport:
    """Upper bound |H| from a verified spectrum, for domains inside H-H."""
    Hc = _canon_set(group, H)
    Tc = _canon_set(group, T)
    diff = difference_indices(group.moduli, Hc)
    outside = domain.indices[~member_mask(diff, domain.indices)]
    if outside.size:
        raise CertificateInvalidError(
            f"domain point {group.element(int(outside[0]))} is not a "
            "difference of the base set")
    H_elems, T_elems = group.elements_at(Hc), group.elements_at(Tc)
    report = is_spectrum(group, H_elems, T_elems)
    if not report.flag:
        raise CertificateInvalidError(
            f"pair is not a spectrum: {report.diagnostics}")
    return BoundReport(float(len(Hc)), "spectral", "upper",
                       {"H": H_elems, "T": T_elems})


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
            for report in _subgroup_and_quotient_bounds(group, domain, K):
                reports.append(report)
        except CertificateInvalidError:
            pass

    # over the LP order cap the solve ends budget-exceeded and adds nothing
    sol = turan_constant(group, domain, tolerances=tolerances)
    if sol.status == "optimal":
        reports.append(BoundReport(sol.value, "lp", "upper",
                                   {"solution": sol}))
        reports.append(BoundReport(sol.value - sol.gap, "lp-witness",
                                   "lower", {"f": sol.f}))

    return rank_reports(reports)
