"""Cross-check records and report serialization shared by the variant runners."""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from fractions import Fraction
from typing import Optional

from .exact import decimal_str, fraction_str
from .model import Packing, packing_to_json

__all__ = ["Check", "ScenarioOutcome", "CrossCheckFailure", "checks_pass", "report_to_json"]


class CrossCheckFailure(AssertionError):
    """A structural guarantee of a construction failed at runtime."""


@dataclass
class Check:
    name: str
    passed: bool
    detail: str = ""

    @staticmethod
    def equal(name, got, want) -> "Check":
        return Check(name, got == want, f"got {got}, want {want}")

    @staticmethod
    def at_least(name, got, bound) -> "Check":
        return Check(name, got >= bound, f"got {got}, bound {bound}")

    @staticmethod
    def at_most(name, got, bound) -> "Check":
        return Check(name, got <= bound, f"got {got}, bound {bound}")

    @staticmethod
    def truth(name, flag, detail="") -> "Check":
        return Check(name, bool(flag), detail)


def checks_pass(checks) -> bool:
    return all(c.passed for c in checks)


@dataclass
class ScenarioOutcome:
    scenario: str
    items_presented: int
    alg_cost: int
    opt_cost: Optional[int] = None  # exact optimum (known-opt runs)
    opt_upper: Optional[int] = None  # constructive upper bound (squares)
    checks: list = field(default_factory=list)
    opt_packing: Optional[Packing] = None

    @property
    def ratio(self) -> Fraction:
        denom = self.opt_cost if self.opt_cost is not None else self.opt_upper
        return Fraction(self.alg_cost, denom)

    def to_json(self, include_packings=False) -> dict:
        out = {
            "scenario": self.scenario,
            "itemsPresented": self.items_presented,
            "algCost": self.alg_cost,
            "optCost": self.opt_cost,
            "optUpper": self.opt_upper,
            "ratio": fraction_str(self.ratio),
            "ratioDecimal": decimal_str(self.ratio),
            "crossChecks": [
                {"name": c.name, "pass": c.passed, "detail": c.detail}
                for c in self.checks
            ],
        }
        if include_packings and self.opt_packing is not None:
            out["optPacking"] = packing_to_json(self.opt_packing)
        return out


def report_to_json(report: dict, out_path=None) -> str:
    """Deterministic, byte-stable JSON rendering of a run report."""
    text = json.dumps(report, indent=2, sort_keys=True)
    if out_path:
        with open(out_path, "w") as fh:
            fh.write(text + "\n")
    return text
