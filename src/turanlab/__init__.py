"""Bounds for extremal positive definite functions with prescribed support.

The quantity of interest is the largest value of (sum of f) / f(0) over
positive definite functions f vanishing outside a fixed symmetric set.
On a finite abelian group the supremum is a finite linear program and is
computed exactly; on the integer lattice and on unions of real intervals
the package brackets it between certified upper bounds (packings,
tilings, spectra, torus reductions) and explicit witnesses.
"""
from __future__ import annotations

__version__ = "0.1.0"

from .errors import (TuranError, DomainNotSymmetricError,
                     InvalidHomomorphismError, WitnessRejectedError,
                     CertificateInvalidError, MTooSmallError,
                     NumericalInconsistencyError)
from .config import (Tolerances, SearchBudget, DEFAULT_TOLERANCES,
                     DEFAULT_BUDGET, LP_GROUP_ORDER_CAP,
                     EXACT_SEARCH_VERTEX_CAP, LP_PIVOT_CAP)
from .groups import (FiniteAbelianGroup, SymmetricDomain, Subgroup,
                     make_group, direct_product, symmetric_domain,
                     difference_set, subgroup_generated, smith_normal_form,
                     quotient_group, subgroup_as_group, endomorphism,
                     apply_endomorphism, is_automorphism, image_domain)
from .harmonic import (GroupFunction, DualFunction, PDReport, from_dict,
                       delta, indicator, dft, idft, dft_exact_signs,
                       convolve, reflect, autocorrelation,
                       is_positive_definite, parseval_gap)
from .bounds import (BoundReport, best_upper, best_lower, bounds_consistent)
from .simplex import ColumnLPResult, solve_column_lp
from .turan_lp import (LPProblem, LPSolution, build_lp_problem, solve_lp,
                       turan_constant, verify_dual_certificate,
                       witness_ratio, subgroup_bound, quotient_bound,
                       automorphism_image_constant, product_constant)
from .packing import (PackingSet, PROVEN_MAX, GREEDY_ONLY,
                      check_packing_set, packing_bound, max_packing_set,
                      check_tiling, tiling_bound)
from .spectral import (SpectrumCandidate, SpectrumSearch, SpectrumReport,
                       ZERO_TOL, transform_zero_set, is_spectrum,
                       find_spectrum, spectral_bound, compare_bounds)
from .lattice import (LatticeDomain, PeriodicSet, OmegaNWitness, GreedyRun,
                      lattice_domain, interval_domain, omega_N_domain,
                      torus_reduction, default_m_schedule, upper_bound_z,
                      explicit_witness_omega_N, periodic_set,
                      omega_N_packing, check_packing_periodic,
                      density_bound_zd, greedy_packing_window, witness_zd)
from .real_line import (IntervalUnion, TentTrain, interval_union,
                        punctured_interval, lattice_certificate,
                        halving_bound, tent_train, witness_in_domain)

__all__ = [
    "__version__",
    # errors
    "TuranError", "DomainNotSymmetricError", "InvalidHomomorphismError",
    "WitnessRejectedError", "CertificateInvalidError", "MTooSmallError",
    "NumericalInconsistencyError",
    # configuration
    "Tolerances", "SearchBudget", "DEFAULT_TOLERANCES", "DEFAULT_BUDGET",
    "LP_GROUP_ORDER_CAP", "EXACT_SEARCH_VERTEX_CAP", "LP_PIVOT_CAP",
    # groups and domains
    "FiniteAbelianGroup", "SymmetricDomain", "Subgroup", "make_group",
    "direct_product", "symmetric_domain", "difference_set",
    "subgroup_generated", "smith_normal_form", "quotient_group",
    "subgroup_as_group", "endomorphism", "apply_endomorphism",
    "is_automorphism", "image_domain",
    # harmonic analysis
    "GroupFunction", "DualFunction", "PDReport", "from_dict", "delta",
    "indicator", "dft", "idft", "dft_exact_signs", "convolve", "reflect",
    "autocorrelation", "is_positive_definite", "parseval_gap",
    # reports
    "BoundReport", "best_upper", "best_lower", "bounds_consistent",
    # linear programming
    "ColumnLPResult", "solve_column_lp",
    "LPProblem", "LPSolution", "build_lp_problem", "solve_lp",
    "turan_constant", "verify_dual_certificate", "witness_ratio",
    "subgroup_bound", "quotient_bound", "automorphism_image_constant",
    "product_constant",
    # packings and tilings
    "PackingSet", "PROVEN_MAX", "GREEDY_ONLY", "check_packing_set",
    "packing_bound", "max_packing_set", "check_tiling", "tiling_bound",
    # spectra
    "SpectrumCandidate", "SpectrumSearch", "SpectrumReport", "ZERO_TOL",
    "transform_zero_set", "is_spectrum", "find_spectrum", "spectral_bound",
    "compare_bounds",
    # integer lattice
    "LatticeDomain", "PeriodicSet", "OmegaNWitness", "GreedyRun",
    "lattice_domain", "interval_domain", "omega_N_domain",
    "torus_reduction", "default_m_schedule", "upper_bound_z",
    "explicit_witness_omega_N", "periodic_set", "omega_N_packing",
    "check_packing_periodic", "density_bound_zd", "greedy_packing_window",
    "witness_zd",
    # real line
    "IntervalUnion", "TentTrain", "interval_union", "punctured_interval",
    "lattice_certificate", "halving_bound", "tent_train",
    "witness_in_domain",
]
