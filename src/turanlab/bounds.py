"""Uniform bound reports.

Every bounding method in the package returns one of these so reports can
be ranked, compared and serialized the same way regardless of origin.
"""
from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction
from typing import Any


@dataclass
class BoundReport:
    value: float | Fraction
    method: str                 # lp, packing, tiling, spectral, subgroup, quotient, witness, ...
    direction: str              # "upper" or "lower"
    certificate: dict[str, Any] = field(default_factory=dict)
    exact: bool = False

    def __post_init__(self):
        if self.direction not in ("upper", "lower"):
            raise ValueError(f"direction must be upper/lower, got {self.direction!r}")
        if isinstance(self.value, Fraction):
            self.exact = True

    def as_float(self) -> float:
        return float(self.value)


def _decimal(x) -> str:
    """A reported number as text: 12 significant digits."""
    return format(float(x), ".12g")


def best_upper(reports) -> BoundReport | None:
    ups = [r for r in reports if r.direction == "upper"]
    return min(ups, key=lambda r: (r.as_float(), r.method)) if ups else None


def rank_reports(reports) -> list[BoundReport]:
    """Uppers by (value, method), then lowers by (-value, method).

    The best upper bound gets certificate["minimum"] = True, and only it.
    """
    for r in reports:
        r.certificate.pop("minimum", None)
    uppers = sorted((r for r in reports if r.direction == "upper"),
                    key=lambda r: (r.as_float(), r.method))
    lowers = sorted((r for r in reports if r.direction == "lower"),
                    key=lambda r: (-r.as_float(), r.method))
    if uppers:
        uppers[0].certificate["minimum"] = True
    return uppers + lowers


def best_lower(reports) -> BoundReport | None:
    los = [r for r in reports if r.direction == "lower"]
    return max(los, key=lambda r: (r.as_float(), r.method)) if los else None


def bounds_consistent(reports, tol: float) -> bool:
    """Every upper must sit above every lower, within tol."""
    up = best_upper(reports)
    lo = best_lower(reports)
    if up is None or lo is None:
        return True
    return up.as_float() >= lo.as_float() - tol
