"""Where the traced run interposes, and how spans become per-layer metrics.

Spans are named after the package's modules. Each public entry point is
wrapped under every module-level name that binds it, so a call from one
layer into another is seen wherever the caller looks the name up. Two
callables are not module-level names and are wrapped where they are
used: ``LPProblem.row`` on its class, and the ``price`` callback that
``turan_lp`` hands to ``solve_column_lp``. Transforms in ``harmonic``
are reached only inside the ``row``, ``price`` and certificate spans.
"""
from __future__ import annotations

import statistics
import sys

import turanlab as T
from turanlab import cli, lattice, packing, real_line, spectral, turan_lp

MODULES = (T, cli, lattice, packing, real_line, spectral, turan_lp)

# (span name, public functions) interposed everywhere they are bound
ENTRY_POINTS = (
    ("turan_lp.solve", (turan_lp.turan_constant,)),
    ("turan_lp.build", (turan_lp.build_lp_problem,)),
    ("turan_lp.certificate", (turan_lp.verify_dual_certificate,)),
    ("packing.check", (packing.packing_bound, packing.check_packing_set,
                       packing.tiling_bound)),
    ("spectral.check", (spectral.is_spectrum, spectral.spectral_bound)),
    ("spectral.compare", (spectral.compare_bounds,)),
    ("lattice.torus", (lattice.upper_bound_z,)),
    ("lattice.periodic", (lattice.density_bound_zd,
                          lattice.check_packing_periodic)),
    ("lattice.window", (lattice.greedy_packing_window,)),
    ("real_line", (real_line.lattice_certificate, real_line.halving_bound,
                   real_line.witness_in_domain, real_line.tent_train)),
)

GROUP_BUILDERS = (T.make_group, T.symmetric_domain, T.difference_set,
                  T.torus_reduction)

# LPSolution.diagnostics key -> counter
LP_COUNTERS = {"pivots": "simplex.pivots", "bland_pivots": "simplex.bland_pivots",
               "pricing_rounds": "simplex.pricing_rounds",
               "columns": "simplex.columns",
               "perturbed_restarts": "turan_lp.restarts"}

# metric -> (span or counter key, unit); "name:self" is self time
PER_LAYER = {
    "turan_lp.build_s": ("turan_lp.build", "s"),
    "turan_lp.row_s": ("turan_lp.row", "s"),
    "turan_lp.price_s": ("turan_lp.price:self", "s"),
    "turan_lp.certificate_s": ("turan_lp.certificate", "s"),
    "turan_lp.finish_s": ("turan_lp.solve:self", "s"),
    "simplex.pivot_s": ("simplex.solve:self", "s"),
    "simplex.pivots": ("simplex.pivots", "count"),
    "simplex.bland_pivots": ("simplex.bland_pivots", "count"),
    "simplex.pricing_rounds": ("simplex.pricing_rounds", "count"),
    "simplex.columns": ("simplex.columns", "count"),
    "turan_lp.restarts": ("turan_lp.restarts", "count"),
    "packing.search_s": ("packing.search", "s"),
    "packing.check_s": ("packing.check", "s"),
    "packing.proven": ("packing.proven", "count"),
    "packing.lambda_total": ("packing.lambda_total", "count"),
    "spectral.search_s": ("spectral.search", "s"),
    "spectral.nodes": ("spectral.nodes", "count"),
    "spectral.check_s": ("spectral.check", "s"),
    "spectral.compare_s": ("spectral.compare", "s"),
    "lattice.torus_s": ("lattice.torus", "s"),
    "lattice.periodic_s": ("lattice.periodic", "s"),
    "lattice.window_s": ("lattice.window", "s"),
    "real_line.s": ("real_line", "s"),
    "cli.self_s": ("cli.main:self", "s"),
    "cli.report_bytes": ("cli.report_bytes", "bytes"),
}
# the spans that make up an LP solve; their self times add up to it
LP_SPANS = ("turan_lp.build:self", "turan_lp.row:self",
            "turan_lp.price:self", "turan_lp.certificate:self",
            "turan_lp.solve:self", "simplex.solve:self")


def _count_lp(tracer, sol) -> None:
    for key, counter in LP_COUNTERS.items():
        if key in sol.diagnostics:
            tracer.count(counter, sol.diagnostics[key])


def _count_packing(tracer, lam) -> None:
    tracer.count("packing.proven", int(lam.maximality == packing.PROVEN_MAX))
    tracer.count("packing.lambda_total", lam.size)


def _count_nodes(tracer, search) -> None:
    tracer.count("spectral.nodes", search.nodes)


def install_groups(tracer) -> None:
    """Spans around the benchmark's own group and domain building."""
    for fn in GROUP_BUILDERS:
        tracer.patch(T, fn.__name__, "groups.build")


def install(tracer) -> None:
    for name, fns in ENTRY_POINTS:
        for fn in fns:
            tracer.patch_everywhere(MODULES, fn, name)
    tracer.patch_everywhere(MODULES, turan_lp.solve_lp, "turan_lp.solve",
                            on_result=_count_lp)
    tracer.patch_everywhere(MODULES, packing.max_packing_set, "packing.search",
                            on_result=_count_packing)
    tracer.patch_everywhere(MODULES, spectral.find_spectrum, "spectral.search",
                            on_result=_count_nodes)
    tracer.patch(turan_lp.LPProblem, "row", "turan_lp.row")

    solve_column_lp = turan_lp.solve_column_lp

    def traced_solve(w, initial, price, **kwargs):
        return solve_column_lp(w, initial,
                               tracer.wrap("turan_lp.price", price), **kwargs)

    tracer.replace(turan_lp, "solve_column_lp",
                   tracer.wrap("simplex.solve", traced_solve))

    main = cli.main

    def traced_main(argv=None):
        # the caller redirects sys.stdout to a StringIO
        before = sys.stdout.tell()
        try:
            return main(argv)
        finally:
            tracer.count("cli.report_bytes", sys.stdout.tell() - before)

    tracer.replace(cli, "main", tracer.wrap("cli.main", traced_main))


def metrics(tracer, walls, traced) -> dict:
    """Median over traced rounds of each per-layer metric, the set-up
    time of group building, and the tracing overhead: the median of
    ``walls`` over traced rounds minus that over untraced rounds after
    round 0."""
    rounds = tracer.per_round()
    out = {}
    for metric, (key, unit) in PER_LAYER.items():
        out[metric] = (statistics.median(rounds[r].get(key, 0.0)
                                         for r in traced), unit)
    out["groups.build_s"] = (rounds[-1].get("groups.build", 0.0), "s")
    untraced = [w for r, w in enumerate(walls) if r > 0 and r not in traced]
    traced_wall = statistics.median(walls[r] for r in traced)
    out["trace.overhead_s"] = (traced_wall - statistics.median(untraced), "s")
    return out


def lp_share(tracer, walls, traced) -> float:
    """Share of the traced round wall time inside the LP spans."""
    rounds = tracer.per_round()
    return statistics.median(sum(rounds[r].get(k, 0.0) for k in LP_SPANS)
                             / walls[r] for r in traced)
