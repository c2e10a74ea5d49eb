"""Adaptive perturbation oracle.

Emits values a = k**-e one at a time and is told, after each emission,
whether the observed placement satisfied the steering condition.  A
"satisfied" answer marks the item small (all later values will be larger), an
"unsatisfied" answer marks it large (all later values will be smaller).  The
walk is a bisection over an integer exponent window sized so that any pattern
of N answers leaves the window non-empty; jumps of two exponent steps keep
every large/small pair separated by a factor of at least k**2.

Exponents start at ``offset + 2**(N+2)`` and span ``2**(N+3)`` more, so every
value is below k**-4 regardless of the answers.  Values are kept in factored
form (see exact.py); expanding them literally is neither needed nor, for
large N, possible.
"""

from __future__ import annotations

from typing import Callable, NamedTuple, Optional

from .exact import Exact, check_base, power
from .reports import SequenceExhausted

__all__ = [
    "OracleConfig",
    "AdaptiveOracle",
    "Separator",
    "Emission",
    "SequenceExhausted",
    "ObservationPending",
    "NothingToObserve",
]


class ObservationPending(RuntimeError):
    """A value was emitted but its observation has not arrived yet."""


class NothingToObserve(RuntimeError):
    """observe() called with no emission outstanding."""


class _OracleConfig(NamedTuple):
    k: int  # separation base: a perturbation base, 10 or 20 (exact.check_base)
    n: int  # maximum number of values
    offset: int = 0  # extra exponent depth, for stacking scales across phases


class OracleConfig(_OracleConfig):
    __slots__ = ()

    def __new__(cls, *args, **kwargs):
        self = super().__new__(cls, *args, **kwargs)
        check_base(self.k)
        if self.n < 1:
            raise ValueError("n must be at least 1")
        if self.offset < 0:
            raise ValueError("offset must be nonnegative")
        return self

    @property
    def window_lo(self) -> int:
        return self.offset + 2 ** (self.n + 2)

    @property
    def window_hi(self) -> int:
        return self.offset + 2 ** (self.n + 2) + 2 ** (self.n + 3)


class Emission(NamedTuple):
    index: int
    exponent: int
    value: Exact
    small: Optional[bool] = None  # None until observed


class Separator(NamedTuple):
    """Threshold strictly between the small and the large class."""

    k: int
    gamma_exponent: int
    gamma: Exact
    small_sup: Exact  # >= every small value, < gamma
    large_inf: Exact  # <= every large value, > gamma
    ratio_exponent: int  # large_inf / small_sup >= k ** ratio_exponent


class AdaptiveOracle:
    """One oracle per adversary phase; single-threaded, deterministic."""

    def __init__(self, config: OracleConfig):
        self.config = config
        self.e_lo = config.window_lo
        self.e_hi = config.window_hi
        self.emitted: list[Emission] = []
        self.awaiting = False
        self.halted = False

    # -- emission/observation protocol ----------------------------------

    def next_value(self) -> Exact:
        """Emit the next perturbation value; classification comes later."""
        if self.awaiting:
            raise ObservationPending("observe the previous value first")
        if self.halted or len(self.emitted) >= self.config.n:
            raise SequenceExhausted("no more values in this sequence")
        if self.e_lo > self.e_hi:
            raise SequenceExhausted("exponent window exhausted")
        e = (self.e_lo + self.e_hi) // 2
        value = power(self.config.k, e)
        self.emitted.append(Emission(len(self.emitted), e, value))
        self.awaiting = True
        return value

    def observe(self, satisfied: bool) -> None:
        """Record whether the steering condition held for the last value."""
        if not self.awaiting:
            raise NothingToObserve("no emission outstanding")
        last = self.emitted[-1]
        if satisfied:  # small: every later value must be larger
            self.e_hi = last.exponent - 2
        else:  # large: every later value must be smaller
            self.e_lo = last.exponent + 2
        self.emitted[-1] = Emission(last.index, last.exponent, last.value, bool(satisfied))
        self.awaiting = False

    def stop_check(self, predicate: Callable[[], bool]) -> bool:
        """Evaluate a stopping condition; a true result halts emission for good."""
        if self.awaiting:
            raise ObservationPending("stopping is only checked between items")
        if predicate():
            self.halted = True
            return True
        return False

    # -- results ---------------------------------------------------------

    def separator(self) -> Separator:
        """Strict small/large threshold from the final window midpoint."""
        if self.awaiting:
            raise ObservationPending("cannot separate with an observation pending")
        k = self.config.k
        m = (self.e_lo + self.e_hi) // 2
        small_exps = [e.exponent for e in self.emitted if e.small is True]
        large_exps = [e.exponent for e in self.emitted if e.small is False]
        sup_exp = min(small_exps) if small_exps else self.e_hi + 2
        inf_exp = max(large_exps) if large_exps else self.e_lo - 2
        return Separator(
            k=k,
            gamma_exponent=m,
            gamma=power(k, m),
            small_sup=power(k, sup_exp),
            large_inf=power(k, inf_exp),
            ratio_exponent=sup_exp - inf_exp,
        )

    def trace(self) -> list[dict]:
        """Report-friendly walk: values shown as 'k^-e' strings."""
        out = []
        for e in self.emitted:
            cls = None if e.small is None else ("small" if e.small else "large")
            out.append({
                "index": e.index,
                "exponent": e.exponent,
                "value": f"{self.config.k}^-{e.exponent}",
                "class": cls,
            })
        return out
