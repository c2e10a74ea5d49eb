"""Deterministic online packing algorithms (the adversary's opponents).

Every algorithm receives one item at a time and must commit a placement
before seeing the next item.  Placements are applied to a live packing with
full rule validation, so an algorithm bug surfaces as IllegalPlacement and is
reported as an algorithm failure, never an adversary failure.

Algorithms see only the variant rules, the optional packed-cost advice, and
the items themselves; adversary internals are off limits.

Adversaries branch by forking a live session (`AlgorithmSession.fork`): a
copy of the packing, the transcript and the strategy's state, so every
branch meets the algorithm in exactly the state the shared prefix left it
in.  `fork_replay` rebuilds a session from scratch; each adversary run calls
it once, on its wave-one prefix, to check that the opponent is deterministic.
"""

from __future__ import annotations

import copy
from fractions import Fraction
from typing import Callable, Optional

from .exact import Exact, rat
from .model import ONE, ZERO, Item, Packing, PackingError, Placement, VariantRules
from .reports import CrossCheckFailure

__all__ = [
    "AlgorithmSession",
    "IllegalPlacement",
    "AdviceMismatch",
    "UnknownAlgorithm",
    "make_session",
    "fork_replay",
    "check_replay",
    "feed",
    "first_fit",
    "register_algorithm",
    "algorithm_ids",
]


class IllegalPlacement(RuntimeError):
    """The algorithm proposed a placement that violates the rules."""


class AdviceMismatch(ValueError):
    """Advice supplied for a variant that takes none, or missing for known-opt."""


class UnknownAlgorithm(KeyError):
    pass


class AlgorithmSession:
    """One run of one algorithm: owns a packing and a placement transcript."""

    def __init__(self, algorithm_id: str, rules: VariantRules, advice: Optional[int]):
        if (rules.kind == "known-opt") != (advice is not None):
            raise AdviceMismatch("advice must be present exactly for known-opt")
        if advice is not None and advice != rules.advice:
            raise AdviceMismatch("advice disagrees with the rules")
        self.algorithm_id = algorithm_id
        self.rules = rules
        self.advice = advice
        self.packing = Packing(rules)
        self.transcript: list[tuple[Item, Placement]] = []
        self._strategy = _REGISTRY[algorithm_id](rules, advice)

    @property
    def cost(self) -> int:
        return self.packing.cost

    def place(self, item: Item) -> Placement:
        """Ask the algorithm for a placement and commit it."""
        placement = self._strategy(self.packing, item)
        try:
            self.packing.add_item(item, placement)
        except PackingError as exc:
            raise IllegalPlacement(
                f"{self.algorithm_id} broke the rules on item {item.ident}: {exc}"
            ) from exc
        self.transcript.append((item, placement))
        return placement

    def fork(self) -> "AlgorithmSession":
        """An independent session in exactly this session's state."""
        clone = copy.copy(self)
        clone.packing = self.packing.copy()
        clone.transcript = list(self.transcript)
        fork_state = getattr(self._strategy, "fork", None)
        if fork_state is not None:
            clone._strategy = fork_state()
        return clone


def make_session(algorithm_id: str, rules: VariantRules,
                 advice: Optional[int] = None) -> AlgorithmSession:
    if algorithm_id not in _REGISTRY:
        raise UnknownAlgorithm(algorithm_id)
    return AlgorithmSession(algorithm_id, rules, advice)


def fork_replay(rules: VariantRules, advice: Optional[int], prefix: list[Item],
                algorithm_id: str) -> AlgorithmSession:
    """Fresh session fed the prefix; determinism makes it equal any earlier run."""
    session = make_session(algorithm_id, rules, advice)
    for item in prefix:
        session.place(item)
    return session


def check_replay(session: AlgorithmSession) -> None:
    """Replay the session's items through a fresh session; raise on divergence."""
    prefix = [item for item, _ in session.transcript]
    replay = fork_replay(session.rules, session.advice, prefix, session.algorithm_id)
    if replay.transcript != session.transcript:
        raise CrossCheckFailure("prefix replay diverged from the recorded run")


def feed(session: AlgorithmSession, items) -> int:
    """Place every item in order; returns the session's cost afterwards."""
    for item in items:
        session.place(item)
    return session.cost


# -- strategies ------------------------------------------------------------
#
# A strategy is a deterministic callable (packing, item) -> Placement.  See
# `register_algorithm` for the rule on strategy state.


def _fits(packing: Packing, index: int, item: Item) -> bool:
    if packing.bin_load(index) + item.size > ONE:
        return False
    if packing.rules.colored:
        colors = packing.bin_colors(index)
        if item.color not in colors and len(colors) >= packing.rules.t:
            return False
    return True


def _next_fit(rules, advice):
    def place(packing: Packing, item: Item) -> Placement:
        last = packing.cost - 1
        if last >= 0 and _fits(packing, last, item):
            return Placement(last)
        return Placement(packing.cost)

    return place


def first_fit(packing: Packing, item: Item) -> Placement:
    """The earliest bin the item fits in, else a fresh bin."""
    for b in range(packing.cost):
        if _fits(packing, b, item):
            return Placement(b)
    return Placement(packing.cost)


def _best_fit(rules, advice):
    def place(packing: Packing, item: Item) -> Placement:
        best = None
        best_room = None
        for b in range(packing.cost):
            if not _fits(packing, b, item):
                continue
            room = ONE - packing.bin_load(b)
            if best_room is None or room < best_room:
                best, best_room = b, room
        if best is None:
            return Placement(packing.cost)
        return Placement(best)

    return place


class _Harmonic:
    """Interval classes (1/(i+1), 1/i] for i < classes, then (0, 1/classes]."""

    def __init__(self, classes: int):
        self.classes = classes
        self.open_bin: dict[int, Optional[int]] = {i: None for i in range(1, classes + 1)}
        self.count_in_open: dict[int, int] = {i: 0 for i in range(1, classes + 1)}

    def fork(self) -> "_Harmonic":
        clone = _Harmonic(self.classes)
        clone.open_bin.update(self.open_bin)
        clone.count_in_open.update(self.count_in_open)
        return clone

    def classify(self, size: Exact) -> int:
        for i in range(1, self.classes):
            if size > rat(Fraction(1, i + 1)):
                return i
        return self.classes

    def __call__(self, packing: Packing, item: Item) -> Placement:
        cls = self.classify(item.size)
        b = self.open_bin[cls]
        if b is not None:
            if cls < self.classes:
                ok = self.count_in_open[cls] < cls
            else:
                ok = packing.bin_load(b) + item.size <= ONE
            if ok and (not packing.rules.colored or _fits(packing, b, item)):
                self.count_in_open[cls] += 1
                return Placement(b)
        fresh = packing.cost
        self.open_bin[cls] = fresh
        self.count_in_open[cls] = 1
        return Placement(fresh)


class _ShelfFirstFit:
    """Shelves stacked bottom-up; shelf height is its first square's side.

    Squares go left-to-right on the first shelf (scanning bins in creation
    order) that is tall enough and has horizontal room; a new shelf opens on
    top of the current stack when it fits, else a new bin opens.
    """

    def __init__(self):
        self.shelves: list[list[tuple]] = []  # per bin: [(y, height, cursor)]

    def fork(self) -> "_ShelfFirstFit":
        clone = _ShelfFirstFit()
        clone.shelves = [list(bin_shelves) for bin_shelves in self.shelves]
        return clone

    def __call__(self, packing: Packing, item: Item) -> Placement:
        side = item.size
        for b, bin_shelves in enumerate(self.shelves):
            for j, (y, height, cursor) in enumerate(bin_shelves):
                if side <= height and cursor + side <= ONE:
                    bin_shelves[j] = (y, height, cursor + side)
                    return Placement(b, cursor, y)
            top_y, top_height, _ = bin_shelves[-1]  # shelves stack bottom-up
            used = top_y + top_height
            if used + side <= ONE:
                bin_shelves.append((used, side, side))
                return Placement(b, ZERO, used)
        self.shelves.append([(ZERO, side, side)])
        return Placement(len(self.shelves) - 1, ZERO, ZERO)


_REGISTRY: dict[str, Callable] = {
    "next-fit": _next_fit,
    "first-fit": lambda rules, advice: first_fit,
    "best-fit": _best_fit,
    "harmonic-5": lambda rules, advice: _Harmonic(5),
    "ccff": lambda rules, advice: first_fit,  # honours the color cap through _fits
    "shelf-first-fit": lambda rules, advice: _ShelfFirstFit(),
}

ONE_D_BASELINES = ("next-fit", "first-fit", "best-fit", "harmonic-5")


def register_algorithm(algorithm_id: str, factory: Callable) -> None:
    """Add a strategy factory (rules, advice) -> (packing, item) -> Placement.

    The strategy must be deterministic.  A strategy that keeps state between
    calls must be an object with a `fork()` method returning an independent
    copy of that state; `AlgorithmSession.fork` calls it.  Any other callable
    (a plain function or lambda) is shared between forks, so it must keep no
    state of its own and read whatever it needs from the packing.
    """
    _REGISTRY[algorithm_id] = factory


def algorithm_ids() -> list[str]:
    return sorted(_REGISTRY)
