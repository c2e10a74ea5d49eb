"""Cross-check records and report serialization shared by the variant runners."""

from __future__ import annotations

from fractions import Fraction
from json.encoder import encode_basestring_ascii as _string
from typing import NamedTuple, Optional

from .exact import decimal_str, fraction_str
from .model import Packing, packing_to_json

__all__ = ["Check", "ScenarioOutcome", "CensusGap", "CrossCheckFailure", "SequenceExhausted",
           "checks_pass", "report_to_json"]


class CrossCheckFailure(AssertionError):
    """A structural guarantee of a construction failed at runtime."""


class CensusGap(RuntimeError):
    """A bin shape or side pattern matched no census category (should be unreachable)."""


class SequenceExhausted(RuntimeError):
    """An adversary's oracle has emitted all N values (or emission was stopped permanently)."""


class Check(NamedTuple):
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

    def to_json(self) -> dict:
        return {"name": self.name, "pass": self.passed, "detail": self.detail}


def checks_pass(checks) -> bool:
    return all(c.passed for c in checks)


class ScenarioOutcome:
    def __init__(self, scenario: str, items_presented: int, alg_cost: int,
                 opt_cost: Optional[int] = None, opt_upper: Optional[int] = None,
                 opt_packing: Optional[Packing] = None):
        self.scenario = scenario
        self.items_presented = items_presented
        self.alg_cost = alg_cost
        self.opt_cost = opt_cost  # exact optimum (known-opt runs)
        self.opt_upper = opt_upper  # constructive upper bound (squares)
        self.checks: list = []
        self.opt_packing = opt_packing

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
            "crossChecks": [c.to_json() for c in self.checks],
        }
        if include_packings and self.opt_packing is not None:
            out["optPacking"] = packing_to_json(self.opt_packing)
        return out


def report_to_json(report: dict) -> str:
    """Deterministic, byte-stable JSON rendering of a run report: byte for byte
    ``json.dumps(report, indent=2, sort_keys=True)``, written directly rather
    than through `json`'s pure-Python indenting encoder.  Reports hold dicts
    with `str` keys, lists, `str`, `int`, `bool` and None; anything else
    (a float, a tuple, a non-`str` key) raises TypeError."""
    out: list[str] = []
    _write(report, out, "\n")
    return "".join(out)


def _write(value, out: list, newline: str) -> None:
    """Append the JSON text of `value` to `out`; `newline` starts its own lines."""
    if isinstance(value, str):
        out.append(_string(value))
    elif value is None:
        out.append("null")
    elif value is True:
        out.append("true")
    elif value is False:
        out.append("false")
    elif isinstance(value, int):
        out.append(int.__repr__(value))
    elif isinstance(value, dict):
        if not value:
            out.append("{}")
            return
        inner = newline + "  "
        opener = "{" + inner
        for key in sorted(value):
            if not isinstance(key, str):
                raise TypeError(f"report keys must be str, got {type(key).__name__}")
            out.append(opener)
            out.append(_string(key))
            out.append(": ")
            _write(value[key], out, inner)
            opener = "," + inner
        out.append(newline + "}")
    elif isinstance(value, list):
        if not value:
            out.append("[]")
            return
        inner = newline + "  "
        opener = "[" + inner
        for element in value:
            out.append(opener)
            _write(element, out, inner)
            opener = "," + inner
        out.append(newline + "]")
    else:
        raise TypeError(f"Object of type {type(value).__name__} is not JSON serializable")
