"""The settable options of the public entry points.

Every option a caller may set is named here, so that a new one is a
deliberate change to this list. Values that no caller sets are module
constants instead (``simplex.PIVOT_TOL``; ``simplex.STALL_LIMIT``, the
pivots without progress before a lift, and ``simplex.LIFT_SCALE``, the
size of that lift; ``spectral.ZERO_TOL``; ``groups.BLOCK_LIMIT``, the
largest product of moduli that ``translate`` handles with one table;
the ``config`` caps).
"""
from __future__ import annotations

import inspect

import pytest

from turanlab import harmonic, lattice, packing, simplex, spectral, turan_lp

OPTIONS = {
    simplex.solve_column_lp: ["entering_tol"],
    turan_lp.solve_lp: ["mode", "tolerances"],
    turan_lp.turan_constant: ["mode", "tolerances"],
    turan_lp.verify_dual_certificate: ["tolerances"],
    turan_lp.witness_ratio: [],
    spectral.transform_zero_set: [],
    spectral.is_spectrum: [],
    spectral.find_spectrum: ["budget"],
    spectral.compare_bounds: ["hints", "budget", "tolerances"],
    packing.max_packing_set: ["budget"],
    lattice.upper_bound_z: ["Ms", "tolerances"],
    lattice.explicit_witness_omega_N: [],
    harmonic.idft: [],
    harmonic.is_positive_definite: [],
}


def _options(fn) -> list[str]:
    """Parameters with a default, keyword-only ones and ``**kwargs``."""
    kinds = (inspect.Parameter.KEYWORD_ONLY, inspect.Parameter.VAR_KEYWORD)
    return [name for name, p in inspect.signature(fn).parameters.items()
            if p.default is not p.empty or p.kind in kinds]


@pytest.mark.parametrize("fn", list(OPTIONS), ids=lambda fn: fn.__name__)
def test_options_are_the_listed_ones(fn):
    assert _options(fn) == OPTIONS[fn]
