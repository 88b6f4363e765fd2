"""Command line front end.

Three subcommands:

  turanlab turan <problem.json>          bound one problem, emit a report
  turanlab verify-paper                  run the built-in example suite
  turanlab search <problem.json> --what packing|spectrum

Problem files and reports are JSON; the schema is documented in the
README. Bound values are serialized as {"decimal": ..., "rational": ...}
pairs where the decimal string carries 12 significant digits and the
rational field holds an exact "p/q" whenever the producing method is
exact. Reports carry no timestamps and no wall times unless --timings is
given, so identical inputs produce identical bytes.

Exit codes: 0 success (budget exhaustion included), 1 input or parse
failure, 2 a certificate or verification failed, 3 internal error.
"""
from __future__ import annotations

import argparse
import functools
import json
import math
import sys
import time
from fractions import Fraction

import numpy as np

from . import __version__
from .bounds import (BoundReport, _decimal, best_lower, best_upper,
                     rank_reports)
from .config import (DEFAULT_BUDGET, DEFAULT_TOLERANCES, LP_GROUP_ORDER_CAP,
                     SearchBudget, Tolerances)
from .errors import MTooSmallError, TuranError
from .examples import CHECKS
from .groups import SymmetricDomain, make_group, symmetric_domain
from .harmonic import GroupFunction
from .lattice import (density_bound_zd, lattice_domain, periodic_set,
                      upper_bound_z, witness_zd)
from .packing import GREEDY_ONLY, max_packing_set, packing_bound
from .real_line import (IntervalUnion, TentTrain, interval_union,
                        lattice_certificate, halving_bound, tent_train,
                        witness_in_domain)
from .spectral import compare_bounds, find_spectrum, spectral_bound
from .turan_lp import LPSolution, turan_constant


class SpecError(Exception):
    """Problem file (or usage) rejected before any mathematics ran."""


# ---------------------------------------------------------------------------
# serialization


def _number(x) -> dict:
    """The {"decimal", "rational"} pair used for every reported value."""
    exact = isinstance(x, (int, Fraction, np.integer))
    return {"decimal": _decimal(x),
            "rational": str(Fraction(x)) if exact else None}


def _jsonable(obj):
    if obj is None or isinstance(obj, (bool, np.bool_)):
        return bool(obj) if obj is not None else None
    if isinstance(obj, (int, np.integer)):
        return int(obj)
    if isinstance(obj, (float, np.floating)):
        return _decimal(obj)
    if isinstance(obj, Fraction):
        return str(obj)
    if isinstance(obj, str):
        return obj
    if isinstance(obj, (list, tuple)):
        return [_jsonable(v) for v in obj]
    if isinstance(obj, dict):
        return {str(k): _jsonable(v) for k, v in obj.items()}
    if isinstance(obj, SymmetricDomain):
        return [_jsonable(x) for x in obj.sorted_elements()]
    if isinstance(obj, GroupFunction):
        sup = sorted(obj.support(), key=obj.group.index)
        return {"moduli": list(obj.group.moduli),
                "support": [[_jsonable(x), _jsonable(obj(x))] for x in sup]}
    if isinstance(obj, LPSolution):
        return {"status": obj.status,
                "value": _decimal(obj.value),
                "gap": _decimal(obj.gap),
                "rational": _jsonable(obj.exact_value),
                "diagnostics": _jsonable(obj.diagnostics)}
    if isinstance(obj, TentTrain):
        return {"c": str(obj.c), "D": [str(d) for d in obj.D],
                "f0": str(obj.f0), "integral": str(obj.integral),
                "ratio": str(obj.ratio),
                "support": _jsonable(obj.support)}
    if isinstance(obj, IntervalUnion):
        return [[str(lo), str(hi)] for lo, hi in obj.pieces]
    return str(obj)


def _bound_dict(rep: BoundReport) -> dict:
    return {"method": rep.method,
            "direction": rep.direction,
            "value": _number(rep.value),
            "exact": rep.exact,
            "certificate": _jsonable(rep.certificate)}


# ---------------------------------------------------------------------------
# problem files

_HINT_KEYS = {"finite-group": {"H", "Lambda", "T", "K"},
              "lattice-z": {"M", "Lambda", "H"},
              "real-line": {"c", "tents"}}
_TOP_KEYS = {"finite-group": {"moduli", "domain", "mode", "hints"},
             "lattice-z": {"dimension", "domain", "hints"},
             "real-line": {"domain", "hints"}}


def _load_problem(path: str) -> dict:
    try:
        with open(path, "r", encoding="utf-8") as fh:
            text = fh.read()
    except OSError as e:
        raise SpecError(f"cannot read {path}: {e}") from e
    try:
        doc = json.loads(text)
    except json.JSONDecodeError as e:
        raise SpecError(f"{path}: invalid JSON at line {e.lineno} "
                        f"column {e.colno}: {e.msg}") from e
    if not isinstance(doc, dict):
        raise SpecError(f"{path}: problem file must hold a JSON object")
    setting = doc.get("setting")
    if setting not in _TOP_KEYS:
        raise SpecError("field 'setting' must be one of "
                        f"{sorted(_TOP_KEYS)}, got {setting!r}")
    unknown = set(doc) - _TOP_KEYS[setting] - {"setting", "budget",
                                               "tolerances"}
    if unknown:
        raise SpecError(f"unknown field(s) for setting {setting}: "
                        f"{sorted(unknown)}")
    if "domain" not in doc:
        raise SpecError("field 'domain' is required")
    hints = doc.get("hints", {})
    if not isinstance(hints, dict):
        raise SpecError("field 'hints' must be an object")
    bad = set(hints) - _HINT_KEYS[setting]
    if bad:
        raise SpecError(f"unknown hint(s) for setting {setting}: "
                        f"{sorted(bad)}")
    return doc


def _resolve_tolerances(doc: dict, args) -> Tolerances:
    tol = DEFAULT_TOLERANCES
    raw = doc.get("tolerances")
    if raw is not None:
        if not isinstance(raw, dict) or set(raw) - {"feasibility", "reporting"}:
            raise SpecError("field 'tolerances' accepts feasibility and "
                            "reporting only")
        tol = Tolerances(*(float(_json_number(raw.get(k, getattr(tol, k)),
                                              f"tolerances.{k}", positive=True))
                           for k in ("feasibility", "reporting")))
    if args.tol is not None:
        if not 0 < args.tol < math.inf:
            raise SpecError(f"--tol must be positive and finite, got "
                            f"{args.tol!r}")
        # the whole stack scales with the requested reporting tolerance
        tol = DEFAULT_TOLERANCES.scaled(args.tol / DEFAULT_TOLERANCES.reporting)
    return tol


def _resolve_budget(doc: dict, args) -> SearchBudget:
    nodes = DEFAULT_BUDGET.node_limit
    limit = DEFAULT_BUDGET.time_limit
    raw = doc.get("budget")
    if raw is not None:
        if not isinstance(raw, dict) or set(raw) - {"node_limit",
                                                    "time_limit"}:
            raise SpecError("field 'budget' accepts node_limit and "
                            "time_limit only")
        nodes = _json_number(raw.get("node_limit", nodes),
                             "budget.node_limit", (int,))
        if raw.get("time_limit") is not None:
            limit = float(_json_number(raw["time_limit"], "budget.time_limit"))
    if args.budget_nodes is not None:
        nodes = int(args.budget_nodes)
    if args.time_limit is not None:
        limit = float(args.time_limit)
    if nodes <= 0:
        raise SpecError("node budget must be positive")
    return SearchBudget(nodes, limit)


# JSON true and false load as Python bools, which are ints, but no number
# in a problem file may be one
def _has_bool(value) -> bool:
    return isinstance(value, bool) or (isinstance(value, list)
                                       and any(map(_has_bool, value)))


def _json_number(value, where: str, kinds=(int, float), positive=False):
    if type(value) not in kinds or (positive and not 0 < value < math.inf):
        what = ("a finite positive number" if positive else
                "an integer" if kinds == (int,) else "a number")
        raise SpecError(f"field '{where}' must be {what}, got {value!r}")
    return value


def _rat_field(value, where: str) -> Fraction:
    # exactness must survive serialization: floats are refused here
    if isinstance(value, bool) or isinstance(value, float):
        raise SpecError(f"{where}: real-line numbers must be integers or "
                        f"strings like \"3/2\", got {value!r}")
    try:
        return Fraction(value)
    except (ValueError, TypeError, ZeroDivisionError) as e:
        raise SpecError(f"{where}: not a rational: {value!r}") from e


def _checked(where: str, build, *args):
    """``build(*args)``, whose ValueError rejects the value of problem
    field ``where``: an input mistake."""
    try:
        return build(*args)
    except ValueError as e:
        raise SpecError(f"{where}: {e}") from e


# ---------------------------------------------------------------------------
# the turan subcommand


def _finite_group(doc):
    """The group, the domain and the mode of a finite-group problem."""
    if "moduli" not in doc:
        raise SpecError("finite-group problems need field 'moduli'")
    if not isinstance(doc["moduli"], list) or _has_bool(doc["moduli"]):
        raise SpecError("field 'moduli' must be a list of positive integers")
    group = _checked("moduli", make_group, doc["moduli"])
    domain = symmetric_domain(group, _elements(doc["domain"], group.rank,
                                               "domain"))
    mode = doc.get("mode", "float")
    if mode not in ("float", "exact-rational"):
        raise SpecError(f"mode must be float or exact-rational, got {mode!r}")
    return group, domain, mode


def _run_finite_group(doc, tol, budget):
    group, domain, mode = _finite_group(doc)
    hints = doc.get("hints", {})
    spectra = _element_sets(hints, "T", group.rank)
    if spectra and len(spectra) > len(hints.get("H", [])):
        raise SpecError("hint 'T' entries pair with 'H' by position; "
                        "got more spectra than base sets")
    cmp_hints = {k: _element_sets(hints, k, group.rank)
                 for k in ("H", "Lambda", "K") if k in hints}
    reports = compare_bounds(group, domain, cmp_hints or None, budget, tol)
    for H, T in zip(cmp_hints.get("H", []), spectra):
        reports.append(spectral_bound(group, domain, H, T))
    if mode == "exact-rational":
        try:
            sol = turan_constant(group, domain, mode="exact-rational",
                                 tolerances=tol)
        except ValueError as e:
            # asking for exact arithmetic outside its domain is an input
            # mistake, not an internal failure
            raise SpecError(str(e)) from e
        if sol.status == "optimal" and sol.exact_value is not None:
            reports.append(BoundReport(sol.exact_value, "lp-exact", "upper",
                                       {"solution": sol}))
    reports = rank_reports(reports)
    exhausted = group.order > LP_GROUP_ORDER_CAP or any(
        r.method == "packing"
        and r.certificate.get("maximality") == GREEDY_ONLY
        for r in reports)
    return reports, exhausted


def _elements(raw, rank: int, where: str) -> list:
    """The elements listed in problem field ``where``, checked to be lists
    of ``rank`` integer coordinates, or bare integers when the rank is 1."""
    if not isinstance(raw, list):
        raise SpecError(f"field '{where}' must be a list of elements")
    for i, x in enumerate(raw):
        coords = x if isinstance(x, list) else [x]
        if len(coords) != rank or not all(type(c) is int for c in coords):
            raise SpecError(f"{where}[{i}]: {x!r} is not an element with "
                            f"{rank} integer coordinate(s)")
    return raw


def _element_sets(hints: dict, key: str, rank: int) -> list[list]:
    """Hint ``key`` read as a list of element lists. Only a ``K`` entry may
    be empty: no generators give the trivial subgroup, while an empty
    base set, packing or spectrum proves nothing."""
    raw = hints.get(key, [])
    if not isinstance(raw, list):
        raise SpecError(f"hint '{key}' must be a list of element lists")
    for k, entry in enumerate(raw):
        if entry == [] and key != "K":
            raise SpecError(f"hints.{key}[{k}] must not be empty")
    return [_elements(entry, rank, f"hints.{key}[{k}]")
            for k, entry in enumerate(raw)]


def _run_lattice_z(doc, tol, budget):
    d = doc.get("dimension", 1)
    if type(d) is not int or d < 1:
        raise SpecError("field 'dimension' must be a positive integer")
    domain = lattice_domain(d, _elements(doc["domain"], d, "domain"))
    hints = doc.get("hints", {})
    Ms = hints.get("M")
    if Ms is None and d > 1:
        raise SpecError("lattice-z problems of dimension above 1 need "
                        "hints.M")
    if Ms is not None and not (
            isinstance(Ms, list) and Ms
            and all(type(M) is int and M > 0 for M in Ms)):
        raise SpecError("hint 'M' must be a non-empty list of positive "
                        "integers")
    try:
        torus = upper_bound_z(domain, Ms, tolerances=tol)
    except MTooSmallError as e:
        # the default schedule starts past the domain's diameter, so only
        # a hinted modulus can wrap two domain points together
        raise SpecError(f"hints.M: {e}") from e
    reports = [torus]
    if "Lambda" in hints:
        raw = hints["Lambda"]
        if not isinstance(raw, dict) or set(raw) != {"basis", "residues"}:
            raise SpecError("lattice-z hint 'Lambda' needs exactly the "
                            "fields basis and residues")
        if _has_bool(raw["basis"]):
            raise SpecError("hints.Lambda: basis must be a d x d integer "
                            "matrix, not true or false")
        lam = _checked("hints.Lambda", periodic_set, d, raw["basis"],
                       _elements(raw["residues"], d, "hints.Lambda.residues"))
        reports.append(density_bound_zd(domain, lam))
    if "H" in hints:
        reports.append(witness_zd(_elements(hints["H"], d, "hints.H"),
                                  domain))
    exhausted = torus.certificate.get("budget_exhausted", False)
    return rank_reports(reports), exhausted


def _run_real_line(doc, tol, budget):
    raw = doc["domain"]
    if not isinstance(raw, list):
        raise SpecError("real-line 'domain' must be a list of [lo, hi] pairs")
    pieces = []
    for i, pair in enumerate(raw):
        if not isinstance(pair, list) or len(pair) != 2:
            raise SpecError(f"domain[{i}] must be a [lo, hi] pair")
        pieces.append((_rat_field(pair[0], f"domain[{i}]"),
                       _rat_field(pair[1], f"domain[{i}]")))
    domain = interval_union(pieces)
    hints = doc.get("hints", {})
    reports = [halving_bound(domain)]
    if "c" in hints:
        reports.append(_checked("hints.c", lattice_certificate, domain,
                                _rat_field(hints["c"], "hints.c")))
    tents = hints.get("tents", [])
    if not isinstance(tents, list):
        raise SpecError("hint 'tents' must be a list of tents")
    for i, t in enumerate(tents):
        if not isinstance(t, dict) or set(t) != {"c", "D"}:
            raise SpecError(f"hints.tents[{i}] needs exactly the fields "
                            "c and D")
        if not isinstance(t["D"], list):
            raise SpecError(f"hints.tents[{i}].D must be a list of shifts")
        train = _checked(f"hints.tents[{i}]", tent_train,
                         _rat_field(t["c"], f"hints.tents[{i}].c"),
                         [_rat_field(x, f"hints.tents[{i}].D")
                          for x in t["D"]])
        reports.append(witness_in_domain(train, domain))
    return rank_reports(reports), False


_RUNNERS = {"finite-group": _run_finite_group,
            "lattice-z": _run_lattice_z,
            "real-line": _run_real_line}


def cmd_turan(args) -> int:
    doc = _load_problem(args.problem)
    tol = _resolve_tolerances(doc, args)
    budget = _resolve_budget(doc, args)
    started = time.perf_counter()
    reports, exhausted = _RUNNERS[doc["setting"]](doc, tol, budget)
    elapsed = time.perf_counter() - started

    up = best_upper(reports)
    lo = best_lower(reports)
    if up is not None and lo is not None \
            and lo.as_float() > up.as_float() + tol.reporting:
        raise TuranError(
            f"inconsistent bounds: lower {_decimal(lo.value)} exceeds "
            f"upper {_decimal(up.value)}")
    report = {
        "tool": f"turanlab {__version__}",
        "problem": doc,
        "bounds": [_bound_dict(r) for r in reports],
        "best_upper": None if up is None else _bound_dict(up),
        "best_lower": None if lo is None else _bound_dict(lo),
        "tight": (up is not None and lo is not None
                  and abs(up.as_float() - lo.as_float()) <= tol.reporting),
        "budget_exhausted": exhausted,
        "timings": {"total_s": _decimal(elapsed)} if args.timings else None,
    }
    if (args.output or "json") == "json":
        print(json.dumps(report, indent=2))
    else:
        _print_run_table(report)
    return 0


def _print_run_table(report: dict) -> None:
    print(report["tool"])
    print(f"{'direction':<10}{'method':<20}{'value':<18}rational")
    for b in report["bounds"]:
        rat = b["value"]["rational"] or "-"
        print(f"{b['direction']:<10}{b['method']:<20}"
              f"{b['value']['decimal']:<18}{rat}")
    for label in ("best_upper", "best_lower"):
        b = report[label]
        if b is not None:
            print(f"{label}: {b['value']['decimal']} ({b['method']})")
    print(f"tight: {str(report['tight']).lower()}")
    if report["budget_exhausted"]:
        print("note: a search budget was exhausted; bounds remain valid")


# ---------------------------------------------------------------------------
# the search subcommand


def cmd_search(args) -> int:
    doc = _load_problem(args.problem)
    if doc["setting"] != "finite-group":
        raise SpecError("search works on finite-group problems only")
    budget = _resolve_budget(doc, args)
    group, domain, _mode = _finite_group(doc)
    out = {"tool": f"turanlab {__version__}",
           "what": args.what,
           "moduli": list(group.moduli),
           "domain": _jsonable(domain)}

    if args.what == "packing":
        lam = max_packing_set(group, domain, budget)
        rep = packing_bound(group, domain, lam.elements)
        elements = _jsonable(sorted(lam.elements, key=group.index))
        out.update({
            "found": True,
            "size": lam.size,
            "maximality": lam.maximality,
            "Lambda": elements,
            "verification": {"packing_check": "pass",
                             "upper_bound": _number(rep.value)},
            "hint": {"Lambda": [elements]},
        })
    else:
        bases = _element_sets(doc.get("hints", {}), "H", group.rank)
        if not bases:
            raise SpecError("spectrum search needs hints.H with the base set")
        search = find_spectrum(group, bases[0], budget)
        out["nodes"] = search.nodes
        out["exhausted"] = search.exhausted
        if search.candidate is None:
            out["found"] = False
        else:
            cand = search.candidate
            verification = {"spectrum_check": "pass"}
            try:
                rep = spectral_bound(group, domain, cand.H, cand.T)
                verification["upper_bound"] = _number(rep.value)
            except TuranError:
                # domain is not contained in H - H; the spectrum stands alone
                verification["upper_bound"] = None
            base = _jsonable(sorted(cand.H, key=group.index))
            out.update({
                "found": True,
                "H": base,
                "T": _jsonable(sorted(cand.T, key=group.index)),
                "verification": verification,
                "hint": {"H": [base]},
            })
    print(json.dumps(out, indent=2))
    return 0


# ---------------------------------------------------------------------------
# the verify-paper subcommand


def _entry(name: str, expected: str, computed: str, ok: bool) -> dict:
    return {"name": name, "expected": expected, "computed": computed,
            "pass": bool(ok)}


def cmd_verify_paper(args) -> int:
    rows = []
    for name, expected, check in CHECKS:
        try:
            rows.append(_entry(name, expected, *check()))
        except TuranError as e:
            rows.append(_entry(name, "no error", f"error: {e}", False))
    all_pass = all(r["pass"] for r in rows)
    if (args.output or "table") == "json":
        print(json.dumps({"tool": f"turanlab {__version__}",
                          "checks": rows, "all_pass": all_pass}, indent=2))
    else:
        width = max(len(r["name"]) for r in rows)
        for r in rows:
            status = "pass" if r["pass"] else "FAIL"
            print(f"{r['name']:<{width}}  {status}  "
                  f"expected: {r['expected']}  computed: {r['computed']}")
        print(f"{sum(r['pass'] for r in rows)}/{len(rows)} checks passed")
    return 0 if all_pass else 2


# ---------------------------------------------------------------------------
# entry point


class _Parser(argparse.ArgumentParser):
    # usage mistakes are input failures, exit code 1
    def error(self, message):
        raise SpecError(message)


# built once per process: parsing leaves the parser as it was, and a
# parser per call would leave its reference cycles to the collector
@functools.cache
def build_parser() -> argparse.ArgumentParser:
    p = _Parser(prog="turanlab",
                description="Bounds for extremal positive definite "
                            "functions with prescribed support.")
    p.add_argument("--tol", type=float, default=None, metavar="X",
                   help="reporting tolerance; the feasibility "
                        "tolerance scales with it")
    p.add_argument("--budget-nodes", type=int, default=None, metavar="N",
                   help="node cap for combinatorial searches")
    p.add_argument("--time-limit", type=float, default=None, metavar="S",
                   help="wall clock cap in seconds for searches")
    p.add_argument("--output", choices=("json", "table"), default=None,
                   help="report format (default: json for turan and "
                        "search, table for verify-paper)")
    p.add_argument("--timings", action="store_true",
                   help="include wall times in reports (off by default so "
                        "identical runs emit identical bytes)")
    sub = p.add_subparsers(dest="command", required=True)
    t = sub.add_parser("turan", help="bound the problem in a JSON file")
    t.add_argument("problem", help="path to a problem JSON file")
    sub.add_parser("verify-paper",
                   help="run the built-in example verification suite")
    s = sub.add_parser("search",
                       help="search for a packing set or a spectrum")
    s.add_argument("problem", help="path to a problem JSON file")
    s.add_argument("--what", choices=("packing", "spectrum"), required=True)
    return p


def main(argv=None) -> int:
    try:
        args = build_parser().parse_args(argv)
        return {"turan": cmd_turan, "search": cmd_search,
                "verify-paper": cmd_verify_paper}[args.command](args)
    except (SpecError, OSError) as e:
        print(f"error: {e}", file=sys.stderr)
        return 1
    except TuranError as e:
        print(f"verification failed: {e}", file=sys.stderr)
        return 2
    except Exception as e:  # pragma: no cover - last resort
        print(f"internal error: {e!r}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
