"""The scripts under demos/ run to the end and print their key value."""
from __future__ import annotations

import runpy
from pathlib import Path

import pytest

DEMOS = Path(__file__).resolve().parent.parent / "demos"


@pytest.mark.parametrize("script, expected", [
    ("finite_group_squeeze.py", "tiling bound    4  via H + Lambda"),
    ("hypercube_spectral_vs_packing.py", "found |T| = 12, verified = True"),
    ("hypercube_spectral_vs_packing.py",
     "lp on the full group: 12.000000000 (orbits: 1 variable, 13 rows;"),
    ("lattice_sparse_domains.py", "n=2: lp 2.236067977  closed 2.236067977"),
    ("real_line_brackets.py", "lower bound 2 > 1"),
])
def test_demo_runs(capsys, script, expected):
    runpy.run_path(str(DEMOS / script), run_name="__main__")
    assert expected in capsys.readouterr().out
