"""End-to-end checks of the command line driver through main()."""

import json
import math
import runpy
import sys
from pathlib import Path

import pytest

from turanlab.cli import main

# verify-paper's table and JSON reports, byte for byte
DATA = Path(__file__).resolve().parent / "data"


def run(capsys, *argv):
    code = main(list(argv))
    out, err = capsys.readouterr()
    return code, out, err


def problem(tmp_path, doc, name="problem.json"):
    path = tmp_path / name
    path.write_text(json.dumps(doc), encoding="utf-8")
    return str(path)


EX_Z8 = {"setting": "finite-group", "moduli": [8],
         "domain": [0, 1, 3, 4, 5, 7],
         "hints": {"H": [[0, 1, 4, 5]], "Lambda": [[0, 2]],
                   "T": [[0, 1, 4, 5]], "K": [[4]]}}


def test_turan_finite_group_report(tmp_path, capsys):
    code, out, err = run(capsys, "turan", problem(tmp_path, EX_Z8))
    assert code == 0 and err == ""
    rep = json.loads(out)
    assert rep["tool"].startswith("turanlab ")
    assert rep["tight"] is True
    assert rep["budget_exhausted"] is False
    assert rep["timings"] is None
    assert rep["best_upper"]["value"]["decimal"] == "4"
    assert rep["best_lower"]["value"]["decimal"] == "4"
    methods = [b["method"] for b in rep["bounds"]]
    for m in ("trivial", "packing", "tiling", "spectral", "subgroup",
              "quotient", "lp", "lp-witness"):
        assert m in methods
    # ranked: all uppers ascending, then lowers; the winner is flagged
    uppers = [b for b in rep["bounds"] if b["direction"] == "upper"]
    lowers = [b for b in rep["bounds"] if b["direction"] == "lower"]
    assert rep["bounds"] == uppers + lowers
    vals = [float(b["value"]["decimal"]) for b in uppers]
    assert vals == sorted(vals)
    assert all(v >= 4 - 1e-6 for v in vals)
    assert uppers[0]["certificate"].get("minimum") is True
    tiling = next(b for b in rep["bounds"] if b["method"] == "tiling")
    assert tiling["exact"] is True
    assert tiling["value"]["rational"] == "4"
    assert tiling["certificate"]["tiles"] is True


def test_turan_exact_rational_mode(tmp_path, capsys):
    doc = {"setting": "finite-group", "moduli": [2, 2, 2],
           "mode": "exact-rational",
           "domain": [[0, 0, 0], [1, 0, 0], [0, 1, 0], [1, 1, 0]]}
    code, out, _ = run(capsys, "turan", problem(tmp_path, doc))
    assert code == 0
    rep = json.loads(out)
    exact = [b for b in rep["bounds"] if b["method"] == "lp-exact"]
    assert len(exact) == 1
    assert exact[0]["exact"] is True
    assert exact[0]["value"]["rational"] == "4"


def test_exact_rational_mode_rejects_odd_moduli(tmp_path, capsys):
    doc = {"setting": "finite-group", "moduli": [8], "mode": "exact-rational",
           "domain": [0, 1, 3, 4, 5, 7]}
    code, _, err = run(capsys, "turan", problem(tmp_path, doc))
    assert code == 1
    assert "exact mode" in err


EX_PLANE = {"setting": "lattice-z", "dimension": 2,
            "domain": [[0, 0], [0, 1], [0, -1], [1, 0], [-1, 0],
                       [1, -1], [-1, 1]],
            "hints": {"M": [6],
                      "Lambda": {"basis": [[1, 1], [2, -1]],
                                 "residues": [[0, 0]]},
                      "H": [[0, 0], [0, 1], [1, 0]]}}


def test_turan_lattice_z_report(tmp_path, capsys):
    code, out, _ = run(capsys, "turan", problem(tmp_path, EX_PLANE))
    assert code == 0
    rep = json.loads(out)
    by_method = {b["method"]: b for b in rep["bounds"]}
    assert set(by_method) == {"torus-lp", "periodic-packing",
                              "autocorrelation-witness"}
    packing = by_method["periodic-packing"]
    assert packing["exact"] is True
    assert packing["value"]["rational"] == "3"
    assert abs(float(by_method["torus-lp"]["value"]["decimal"]) - 3) <= 1e-6
    assert float(rep["best_lower"]["value"]["decimal"]) == pytest.approx(3)
    assert rep["tight"] is True


# Z_100^2 is above the LP order cap, so the M = 100 torus solve ends
# budget-exceeded while M = 6 gives the constant 2 of the plus shape
PLUS_OVER_CAP = {"setting": "lattice-z", "dimension": 2,
                 "domain": [[0, 0], [0, 1], [0, -1], [1, 0], [-1, 0]],
                 "hints": {"M": [6, 100]}}


def test_turan_lattice_z_budget_overrun_is_a_status(tmp_path, capsys):
    code, out, err = run(capsys, "turan", problem(tmp_path, PLUS_OVER_CAP))
    assert code == 0 and err == ""
    rep = json.loads(out)
    assert rep["budget_exhausted"] is True
    assert rep["best_upper"]["method"] == "torus-lp"
    assert rep["best_upper"]["value"]["decimal"] == "2"
    schedule = rep["best_upper"]["certificate"]["schedule"]
    assert [e["M"] for e in schedule] == [6, 100]
    assert "status" not in schedule[0]
    assert schedule[1]["status"] == "budget-exceeded"
    code, out, _ = run(capsys, "turan", problem(tmp_path, EX_PLANE))
    assert code == 0 and json.loads(out)["budget_exhausted"] is False


def test_turan_lattice_z_torus_far_over_cap_is_a_status(tmp_path, capsys):
    # the default schedule for {0, +-2^70} is three tori of order about
    # 2^71; their solves end budget-exceeded with no table of the torus
    doc = {"setting": "lattice-z", "domain": [0, 2 ** 70, -2 ** 70]}
    code, out, err = run(capsys, "turan", problem(tmp_path, doc))
    assert code == 0 and err == ""
    rep = json.loads(out)
    assert rep["budget_exhausted"] is True
    assert rep["best_upper"]["value"]["decimal"] == "3"


@pytest.mark.parametrize("dimension, hints, message", [
    (2, {}, "need hints.M"),
    (1, {"M": []}, "non-empty list of positive integers"),
    (1, {"M": [0]}, "non-empty list of positive integers"),
    (1, {"M": "x"}, "non-empty list of positive integers"),
    (1, {"M": [True]}, "non-empty list of positive integers"),
    (1, {"M": [6.0]}, "non-empty list of positive integers"),
    (2, {"M": [6, -6]}, "non-empty list of positive integers"),
], ids=["missing-in-2d", "empty", "zero", "string", "bool", "float",
        "negative"])
def test_exit_code_bad_torus_moduli(tmp_path, capsys, dimension, hints,
                                    message):
    domain = [[0] * dimension]
    for k in range(dimension):
        for s in (1, -1):
            point = [0] * dimension
            point[k] = s
            domain.append(point)
    doc = {"setting": "lattice-z", "dimension": dimension,
           "domain": domain, "hints": hints}
    code, out, err = run(capsys, "turan", problem(tmp_path, doc))
    assert code == 1 and out == ""
    assert message in err


@pytest.mark.parametrize("moduli, message", [
    ([2, 6], "hints.M: modulus 2 identifies (-1,) and (1,)"),
    ([1], "hints.M: modulus 1 identifies (-1,) and (0,)"),
], ids=["two-then-six", "one"])
def test_exit_code_torus_modulus_too_small(tmp_path, capsys, moduli,
                                           message):
    # a hinted modulus that wraps two domain points together is an input
    # mistake, even when another modulus in the list is valid
    doc = {"setting": "lattice-z", "domain": [0, 1, -1],
           "hints": {"M": moduli}}
    code, out, err = run(capsys, "turan", problem(tmp_path, doc))
    assert code == 1 and out == ""
    assert message in err


PUNCTURED = {"setting": "real-line",
             "domain": [["-3/2", -1], [-1, 1], [1, "3/2"]],
             "hints": {"c": 1, "tents": [{"c": "9/10", "D": [0]},
                                         {"c": "99/100", "D": [0]}]}}


def test_turan_real_line_report(tmp_path, capsys):
    code, out, _ = run(capsys, "turan", problem(tmp_path, PUNCTURED))
    assert code == 0
    rep = json.loads(out)
    assert rep["best_upper"]["method"] == "lattice"
    assert rep["best_upper"]["value"]["rational"] == "1"
    assert rep["best_lower"]["method"] == "tent-train"
    assert rep["best_lower"]["value"]["rational"] == "99/100"
    halving = next(b for b in rep["bounds"] if b["method"] == "halving")
    assert halving["value"]["rational"] == "3/2"
    assert rep["tight"] is False


def test_turan_real_line_wide_witness(tmp_path, capsys):
    doc = {"setting": "real-line",
           "domain": [[-3, -1], [-1, 1], [1, 3]],
           "hints": {"tents": [{"c": 1, "D": [0, 2]}]}}
    code, out, _ = run(capsys, "turan", problem(tmp_path, doc))
    assert code == 0
    rep = json.loads(out)
    assert rep["best_upper"]["method"] == "halving"
    assert rep["best_upper"]["value"]["rational"] == "3"
    assert rep["best_lower"]["value"]["rational"] == "2"
    assert rep["tight"] is False


def test_search_packing_roundtrip(tmp_path, capsys):
    base = {"setting": "finite-group", "moduli": [8],
            "domain": [0, 1, 3, 4, 5, 7]}
    code, out, _ = run(capsys, "search", problem(tmp_path, base),
                       "--what", "packing")
    assert code == 0
    found = json.loads(out)
    assert found["found"] is True
    assert found["size"] == 2
    assert found["maximality"] == "proven-max"
    assert found["Lambda"] == [[0], [2]]
    assert found["verification"]["packing_check"] == "pass"
    assert found["verification"]["upper_bound"]["rational"] == "4"
    # the emitted hint block drops straight back into a problem file
    doc = dict(base, hints=found["hint"])
    code, out, _ = run(capsys, "turan", problem(tmp_path, doc, "again.json"))
    assert code == 0
    rep = json.loads(out)
    hinted = [b for b in rep["bounds"] if b["method"] == "packing"
              and "maximality" not in b["certificate"]]
    assert hinted and hinted[0]["value"]["rational"] == "4"


def test_search_spectrum_found(tmp_path, capsys):
    doc = {"setting": "finite-group", "moduli": [4], "domain": [0, 1, 3],
           "hints": {"H": [[0, 1]]}}
    code, out, _ = run(capsys, "search", problem(tmp_path, doc),
                       "--what", "spectrum")
    assert code == 0
    found = json.loads(out)
    assert found["found"] is True
    assert found["exhausted"] is True
    assert found["H"] == [[0], [1]]
    assert found["T"] == [[0], [2]]
    assert found["verification"]["spectrum_check"] == "pass"
    up = found["verification"]["upper_bound"]
    assert float(up["decimal"]) == pytest.approx(2)


def test_search_spectrum_absent_is_still_success(tmp_path, capsys):
    # a certified "no spectrum exists" answer is a result, not a failure
    doc = {"setting": "finite-group", "moduli": [8], "domain": [0, 1, 7],
           "hints": {"H": [[0, 1, 3]]}}
    code, out, _ = run(capsys, "search", problem(tmp_path, doc),
                       "--what", "spectrum")
    assert code == 0
    found = json.loads(out)
    assert found["found"] is False
    assert found["exhausted"] is True


def test_verify_paper_json(capsys):
    code, out, _ = run(capsys, "--output", "json", "verify-paper")
    assert code == 0
    rep = json.loads(out)
    assert rep["all_pass"] is True
    names = [c["name"] for c in rep["checks"]]
    assert len(names) == 13
    for want in ("ex4.1", "ex4.2-odd", "ex4.2-even", "ex4.2-Lstar",
                 "ex4.4", "ex4.5", "thm4.3-certificate", "thm4.3-sharpness",
                 "tao-z2-12-spectrum", "tao-z2-12-comparison",
                 "fejer-interval", "product-rule",
                 "automorphism-invariance"):
        assert want in names
    assert all(c["pass"] for c in rep["checks"])


def test_verify_paper_table(capsys):
    code, out, _ = run(capsys, "verify-paper")
    assert code == 0
    assert "13/13 checks passed" in out
    assert "FAIL" not in out


@pytest.mark.parametrize("argv, golden", [
    ((), "verify_paper.txt"),
    (("--output", "json"), "verify_paper.json"),
])
def test_verify_paper_bytes(capsys, argv, golden):
    code, out, _ = run(capsys, *argv, "verify-paper")
    assert code == 0
    assert out == (DATA / golden).read_text(encoding="utf-8")


def test_python_dash_m_runs_the_cli(capsys, monkeypatch):
    monkeypatch.setattr(sys, "argv", ["turanlab", "verify-paper"])
    with pytest.raises(SystemExit) as stop:
        runpy.run_module("turanlab", run_name="__main__")
    assert stop.value.code == 0
    assert "13/13 checks passed" in capsys.readouterr().out


def test_invalid_packing_hint_is_skipped(tmp_path, capsys):
    doc = {"setting": "finite-group", "moduli": [8],
           "domain": [0, 1, 3, 4, 5, 7], "hints": {"Lambda": [[0, 1]]}}
    code, out, _ = run(capsys, "turan", problem(tmp_path, doc))
    assert code == 0
    rep = json.loads(out)
    packs = [b for b in rep["bounds"] if b["method"] == "packing"]
    # only the search result survives; the broken hint is dropped silently
    assert len(packs) == 1
    assert packs[0]["certificate"]["maximality"] == "proven-max"


def test_exit_code_missing_file(tmp_path, capsys):
    code, out, err = run(capsys, "turan", str(tmp_path / "nope.json"))
    assert code == 1 and out == ""
    assert "cannot read" in err


def test_exit_code_bad_json(tmp_path, capsys):
    path = tmp_path / "broken.json"
    path.write_text('{"setting": ', encoding="utf-8")
    code, _, err = run(capsys, "turan", str(path))
    assert code == 1
    assert "invalid JSON" in err


def test_exit_code_unknown_field(tmp_path, capsys):
    doc = dict(EX_Z8, extra=1)
    code, _, err = run(capsys, "turan", problem(tmp_path, doc))
    assert code == 1
    assert "unknown field" in err and "extra" in err


def test_exit_code_bad_setting(tmp_path, capsys):
    doc = {"setting": "modular", "domain": []}
    code, _, err = run(capsys, "turan", problem(tmp_path, doc))
    assert code == 1
    assert "must be one of" in err


def test_exit_code_unknown_hint(tmp_path, capsys):
    doc = {"setting": "real-line", "domain": [[-1, 1]],
           "hints": {"Lambda": []}}
    code, _, err = run(capsys, "turan", problem(tmp_path, doc))
    assert code == 1
    assert "unknown hint" in err


def test_exit_code_float_in_real_domain(tmp_path, capsys):
    doc = {"setting": "real-line", "domain": [[-1.5, 1.5]]}
    code, _, err = run(capsys, "turan", problem(tmp_path, doc))
    assert code == 1
    assert "integers or strings" in err


def test_exit_code_bad_mode(tmp_path, capsys):
    doc = {"setting": "finite-group", "moduli": [8], "domain": [0],
           "mode": "float64"}
    code, _, err = run(capsys, "turan", problem(tmp_path, doc))
    assert code == 1
    assert "float or exact-rational" in err


@pytest.mark.parametrize("what", ["packing", "spectrum"])
def test_search_rejects_a_bad_mode_like_turan(tmp_path, capsys, what):
    doc = {"setting": "finite-group", "moduli": [8], "domain": [0, 1, 7],
           "mode": "float64", "hints": {"H": [[0, 1]]}}
    path = problem(tmp_path, doc)
    _, _, turan_err = run(capsys, "turan", path)
    code, out, err = run(capsys, "search", path, "--what", what)
    assert code == 1 and out == ""
    assert err == turan_err
    assert "float or exact-rational" in err


def test_exit_code_search_needs_finite_group(tmp_path, capsys):
    doc = {"setting": "real-line", "domain": [[-1, 1]]}
    code, _, err = run(capsys, "search", problem(tmp_path, doc),
                       "--what", "packing")
    assert code == 1
    assert "finite-group" in err


def test_exit_code_spectrum_needs_base_hint(tmp_path, capsys):
    doc = {"setting": "finite-group", "moduli": [4], "domain": [0, 1, 3]}
    code, _, err = run(capsys, "search", problem(tmp_path, doc),
                       "--what", "spectrum")
    assert code == 1
    assert "hints.H" in err


@pytest.mark.parametrize("argv", [("turan",),
                                  ("search", "--what", "spectrum")])
def test_exit_code_hint_element_of_wrong_rank(tmp_path, capsys, argv):
    # one base set written flat on Z_2^8: each entry reads as a base set
    # of bare integers, which are elements of rank 1
    basis = [[int(j == i) for j in range(8)] for i in range(8)]
    doc = {"setting": "finite-group", "moduli": [2] * 8,
           "domain": [[0] * 8], "hints": {"H": basis}}
    path = problem(tmp_path, doc)
    code, _, err = run(capsys, argv[0], path, *argv[1:])
    assert code == 1
    assert "hints.H[0][0]" in err and "internal error" not in err
    for key in ("Lambda", "T"):
        doc["hints"] = {"H": [[[0] * 8]], key: [[[0] * 8], [[1] * 7]]}
        code, _, err = run(capsys, "turan", problem(tmp_path, doc))
        assert code == 1
        assert f"hints.{key}[1][0]" in err


def test_exit_code_non_integer_coordinate(tmp_path, capsys):
    doc = {"setting": "finite-group", "moduli": [4, 4],
           "domain": [[0, 0], [1.5, 0], [3, 0]]}
    code, out, err = run(capsys, "turan", problem(tmp_path, doc))
    assert code == 1 and out == ""
    assert "domain[1]" in err and "internal error" not in err


def test_exit_code_residue_of_wrong_rank(tmp_path, capsys):
    doc = json.loads(json.dumps(EX_PLANE))
    doc["hints"]["Lambda"]["residues"] = [[0, 0], [1, 0, 0]]
    code, _, err = run(capsys, "turan", problem(tmp_path, doc))
    assert code == 1
    assert "hints.Lambda.residues[1]" in err


_Z8 = {"setting": "finite-group", "moduli": [8], "domain": [0, 1, 7]}
_INTERVAL = {"setting": "lattice-z", "domain": [0, 1, -1]}
_LINE = {"setting": "real-line", "domain": [[-1, 1]]}


@pytest.mark.parametrize("doc, argv, message", [
    (dict(_Z8, hints={"Lambda": [[]]}), ("turan",), "hints.Lambda[0]"),
    (dict(_Z8, hints={"H": [[0, 1]], "T": [[]]}), ("turan",), "hints.T[0]"),
    (dict(_Z8, hints={"H": [[]], "Lambda": [[0, 2]]}), ("turan",),
     "hints.H[0]"),
    (dict(_Z8, hints={"H": [[]]}), ("turan",), "hints.H[0]"),
    (dict(_Z8, hints={"H": [[]]}), ("search", "--what", "spectrum"),
     "hints.H[0]"),
    (dict(_Z8, moduli=[0]), ("turan",), "moduli"),
    (dict(_INTERVAL, hints={"Lambda": {"basis": [[2]], "residues": []}}),
     ("turan",), "hints.Lambda"),
    (dict(_INTERVAL, hints={"Lambda": {"basis": [[0]], "residues": [0]}}),
     ("turan",), "hints.Lambda"),
    (dict(_LINE, hints={"tents": [{"c": 1, "D": []}]}), ("turan",),
     "hints.tents[0]"),
    (dict(_LINE, hints={"tents": [{"c": 0, "D": [0]}]}), ("turan",),
     "hints.tents[0]"),
    (dict(_LINE, hints={"c": 0}), ("turan",), "hints.c"),
], ids=["empty-Lambda", "empty-T", "empty-H-with-Lambda", "empty-H",
        "empty-H-search", "zero-modulus", "no-residues", "singular-basis",
        "tent-without-shifts", "tent-width-zero", "lattice-step-zero"])
def test_exit_code_malformed_problem_value(tmp_path, capsys, doc, argv,
                                           message):
    # values the library rejects are input mistakes naming their field,
    # not internal errors (and an empty base set is no spectrum search)
    code, out, err = run(capsys, argv[0], problem(tmp_path, doc), *argv[1:])
    assert code == 1 and out == ""
    assert message in err and "internal error" not in err


@pytest.mark.parametrize("doc, message", [
    (dict(_Z8, moduli=8), "moduli"),
    (dict(_LINE, hints={"tents": [{"c": 1, "D": 0}]}), "hints.tents[0].D"),
    (dict(_LINE, hints={"tents": 5}), "tents"),
    (dict(_INTERVAL, hints={"Lambda": {"basis": 5, "residues": [0]}}),
     "hints.Lambda: basis"),
    (dict(_INTERVAL, hints={"Lambda": {"basis": [5], "residues": [0]}}),
     "hints.Lambda: basis"),
    (dict(_INTERVAL, hints={"Lambda": {"basis": [[2.5]], "residues": [0]}}),
     "hints.Lambda: basis"),
    (dict(_INTERVAL, hints={"Lambda": {"basis": [[2.0]], "residues": [0]}}),
     "hints.Lambda: basis"),
    (dict(_INTERVAL, hints={"Lambda": {"basis": [["2"]], "residues": [0]}}),
     "hints.Lambda: basis"),
], ids=["scalar-moduli", "scalar-tent-shifts", "scalar-tents",
        "scalar-basis", "scalar-basis-row", "fractional-basis",
        "float-basis", "string-basis"])
def test_exit_code_wrong_type_in_problem_field(tmp_path, capsys, doc,
                                               message):
    # a scalar where a list belongs, or a lattice basis entry that is not
    # an integer (which used to be truncated to a lattice the file never
    # named), is an input mistake naming its field
    code, out, err = run(capsys, "turan", problem(tmp_path, doc))
    assert code == 1 and out == ""
    assert message in err and "internal error" not in err


@pytest.mark.parametrize("doc, message", [
    (dict(_Z8, moduli=[8.5]), "moduli"),
    (dict(_Z8, moduli=[True, 2], domain=[[0, 0]]), "moduli"),
    (dict(_Z8, domain=[0, True]), "domain[1]"),
    (dict(_Z8, budget={"node_limit": 2.5}), "budget.node_limit"),
    (dict(_Z8, budget={"node_limit": "abc"}), "budget.node_limit"),
    (dict(_Z8, budget={"node_limit": None}), "budget.node_limit"),
    (dict(_Z8, budget={"node_limit": True}), "budget.node_limit"),
    (dict(_Z8, budget={"time_limit": "abc"}), "budget.time_limit"),
    (dict(_Z8, tolerances={"feasibility": "x"}), "tolerances.feasibility"),
    (dict(_Z8, tolerances={"feasibility": -1}), "tolerances.feasibility"),
    (dict(_Z8, tolerances={"reporting": False}), "tolerances.reporting"),
    (dict(_Z8, tolerances={"feasibility": math.inf}),
     "tolerances.feasibility"),
    (dict(_Z8, tolerances={"reporting": math.inf}), "tolerances.reporting"),
    (dict(_INTERVAL, dimension=True), "dimension"),
    (dict(_INTERVAL, hints={"Lambda": {"basis": [[True]], "residues": [0]}}),
     "hints.Lambda: basis"),
], ids=["fractional-modulus", "boolean-modulus", "boolean-coordinate",
        "fractional-node-limit", "string-node-limit", "null-node-limit",
        "boolean-node-limit", "string-time-limit", "string-feasibility",
        "negative-feasibility", "boolean-reporting", "infinite-feasibility",
        "infinite-reporting", "boolean-dimension", "boolean-basis"])
def test_exit_code_problem_numbers_are_read_strictly(tmp_path, capsys, doc,
                                                     message):
    # a number of the wrong kind is refused, not truncated or read as
    # 0 and 1 (JSON true and false are Python ints), and not left to fail
    # later as an internal error or a failed verification
    code, out, err = run(capsys, "turan", problem(tmp_path, doc))
    assert code == 1 and out == ""
    assert message in err and "internal error" not in err


def test_trivial_subgroup_hint_stays_valid(tmp_path, capsys):
    # no generators give the trivial subgroup, a valid K
    code, out, _ = run(capsys, "turan",
                       problem(tmp_path, dict(_Z8, hints={"K": [[]]})))
    assert code == 0
    methods = [b["method"] for b in json.loads(out)["bounds"]]
    assert "subgroup" in methods and "quotient" in methods


def test_tolerances_field(tmp_path, capsys):
    doc = dict(EX_Z8, tolerances={"feasibility": 1e-9, "reporting": 1e-6})
    code, out, _ = run(capsys, "turan", problem(tmp_path, doc))
    assert code == 0 and json.loads(out)["tight"] is True
    doc["tolerances"]["gap"] = 1e-7
    code, _, err = run(capsys, "turan", problem(tmp_path, doc))
    assert code == 1
    assert "feasibility and reporting only" in err


def test_exit_code_invalid_periodic_packing(tmp_path, capsys):
    # Z^2 itself is not a packing for this domain: certificate failure
    doc = {"setting": "lattice-z", "dimension": 2,
           "domain": EX_PLANE["domain"],
           "hints": {"M": [6], "Lambda": {"basis": [[1, 0], [0, 1]],
                                          "residues": [[0, 0]]}}}
    code, _, err = run(capsys, "turan", problem(tmp_path, doc))
    assert code == 2
    assert "verification failed" in err


def test_exit_code_interior_lattice_point(tmp_path, capsys):
    # c = 1 puts 2c inside (1, 3), so the certificate must be refused
    doc = {"setting": "real-line", "domain": [[-3, -1], [-1, 1], [1, 3]],
           "hints": {"c": 1}}
    code, _, err = run(capsys, "turan", problem(tmp_path, doc))
    assert code == 2
    assert "verification failed" in err


def test_usage_errors_exit_one(tmp_path, capsys):
    assert run(capsys, "frobnicate")[0] == 1
    path = problem(tmp_path, EX_Z8)
    assert run(capsys, "search", path)[0] == 1  # missing --what
    for tol in ("-1", "nan", "inf"):
        code, _, err = run(capsys, "--tol", tol, "turan", path)
        assert code == 1 and "--tol must be positive" in err


def test_timings_flag(tmp_path, capsys):
    path = problem(tmp_path, {"setting": "finite-group", "moduli": [4],
                              "domain": [0, 1, 3]})
    code, out, _ = run(capsys, "--timings", "turan", path)
    assert code == 0
    rep = json.loads(out)
    assert float(rep["timings"]["total_s"]) >= 0


def test_identical_runs_emit_identical_bytes(tmp_path, capsys):
    path = problem(tmp_path, EX_Z8)
    first = run(capsys, "turan", path)
    second = run(capsys, "turan", path)
    assert first == second


def test_parser_is_built_once_and_reused(tmp_path, capsys):
    # main keeps one parser per process; a usage error between two calls
    # leaves it as it was, and no option of one call leaks into the next,
    # so every call prints the bytes a freshly built parser gives
    from turanlab.cli import build_parser
    path = problem(tmp_path, EX_Z8)
    calls = [("--output", "table", "turan", path),
             ("search", path),  # missing --what: exit 1
             ("turan", path),
             ("search", path, "--what", "packing")]
    fresh = []
    for argv in calls:
        build_parser.cache_clear()
        fresh.append(run(capsys, *argv))
    reused = [run(capsys, *argv) for argv in calls]
    assert build_parser() is build_parser()
    assert [code for code, _, _ in fresh] == [0, 1, 0, 0]
    assert reused == fresh


def test_table_output(tmp_path, capsys):
    code, out, _ = run(capsys, "--output", "table", "turan",
                       problem(tmp_path, EX_Z8))
    assert code == 0
    assert "direction" in out and "method" in out
    assert "best_upper: 4 (lp)" in out
    assert "tight: true" in out
