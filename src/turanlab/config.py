"""Central tolerance and budget records.

Every numeric comparison in the package goes through one of these values,
so a consumer can tighten or relax the whole stack in one place.
"""
from __future__ import annotations

from dataclasses import dataclass


@dataclass(frozen=True)
class Tolerances:
    # constraint feasibility (min of the transform may dip this far below 0)
    feasibility: float = 1e-9
    # tolerance quoted when comparing reported bound values to each other
    reporting: float = 1e-6

    def scaled(self, factor: float) -> "Tolerances":
        return Tolerances(self.feasibility * factor, self.reporting * factor)


@dataclass(frozen=True)
class SearchBudget:
    """Node and wall-clock budgets for combinatorial searches."""
    node_limit: int = 10_000_000
    time_limit: float | None = None


# group order above which the LP constructor refuses to run
LP_GROUP_ORDER_CAP = 8192
# largest vertex count for which branch and bound attempts a proven maximum
EXACT_SEARCH_VERTEX_CAP = 4096
# pivot cap for a single LP solve
LP_PIVOT_CAP = 200_000

DEFAULT_TOLERANCES = Tolerances()
DEFAULT_BUDGET = SearchBudget()
