"""Deterministic online packing algorithms (the adversary's opponents).

Every algorithm receives one item at a time and must commit a placement
before seeing the next item.  Placements are applied to a live packing with
full rule validation, so an algorithm bug surfaces as IllegalPlacement and is
reported as an algorithm failure, never an adversary failure.

Algorithms see only the packing (whose rules carry the known-opt advice)
and the items themselves; adversary internals are off limits.  No strategy
tests capacity or the color cap itself: first-fit asks `Packing.first_fit`,
which scans the bins with `fits`' rule, and the others ask `Packing.fits`
(best-fit first asks `Packing.fits_no_open_bin`, which rules out every open
bin with one comparison), so that rule lives in `model.Packing` alone.

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


class UnknownAlgorithm(KeyError):
    pass


class AlgorithmSession:
    """One run of one algorithm: owns a packing and a placement transcript."""

    def __init__(self, algorithm_id: str, rules: VariantRules):
        self.algorithm_id = algorithm_id
        self.rules = rules
        self.packing = Packing(rules)
        self.transcript: list[tuple[Item, Placement]] = []
        self._strategy = _own(_REGISTRY[algorithm_id])

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
                f"{self.algorithm_id} broke the rules on item {item.ident}"
                f" in bin {placement.bin_index}: {exc}"
            ) from exc
        self.transcript.append((item, placement))
        return placement

    def fork(self) -> "AlgorithmSession":
        """An independent session in exactly this session's state."""
        clone = copy.copy(self)
        clone.packing = self.packing.copy()
        clone.transcript = list(self.transcript)
        clone._strategy = _own(self._strategy)
        return clone


def _own(strategy: Callable) -> Callable:
    """A session's own strategy: a fork of a stateful one, else the shared function."""
    fork = getattr(strategy, "fork", None)
    return strategy if fork is None else fork()


def make_session(algorithm_id: str, rules: VariantRules) -> AlgorithmSession:
    if algorithm_id not in _REGISTRY:
        raise UnknownAlgorithm(algorithm_id)
    return AlgorithmSession(algorithm_id, rules)


# `prefix` stays the third positional parameter: the benchmark's tracer
# (perfbench/tracer.py) counts replayed items from that argument.
def fork_replay(algorithm_id: str, rules: VariantRules,
                prefix: list[Item]) -> AlgorithmSession:
    """Fresh session fed the prefix; determinism makes it equal any earlier run."""
    session = make_session(algorithm_id, rules)
    for item in prefix:
        session.place(item)
    return session


def check_replay(session: AlgorithmSession) -> None:
    """Replay the session's items through a fresh session; raise on divergence."""
    prefix = [item for item, _ in session.transcript]
    replay = fork_replay(session.algorithm_id, session.rules, prefix)
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


def _next_fit(packing: Packing, item: Item) -> Placement:
    """The last bin if the item fits there, else a fresh bin."""
    last = packing.cost - 1
    if last >= 0 and packing.fits(last, item):
        return Placement(last)
    return Placement(packing.cost)


def first_fit(packing: Packing, item: Item) -> Placement:
    """The earliest bin the item fits in, else a fresh bin."""
    return Placement(packing.first_fit(item))


def _best_fit(packing: Packing, item: Item) -> Placement:
    """The fitting bin with the least room left, else a fresh bin."""
    if packing.fits_no_open_bin(item):
        return Placement(packing.cost)
    best = None
    best_room = None
    for b in range(packing.cost):
        if not packing.fits(b, item):
            continue
        room = packing.bin_room(b)
        if best_room is None or room < best_room:
            best, best_room = b, room
    if best is None:
        return Placement(packing.cost)
    return Placement(best)


class _Harmonic:
    """Interval classes (1/(i+1), 1/i] for i < classes, then (0, 1/classes].

    A class-i bin holds class-i items alone, so for i < classes `fits` takes
    i of them, each above 1/(i+1), and refuses the next."""

    def __init__(self, classes: int):
        self.classes = classes
        self.open_bin: dict[int, Optional[int]] = {i: None for i in range(1, classes + 1)}

    def fork(self) -> "_Harmonic":
        clone = _Harmonic(self.classes)
        clone.open_bin.update(self.open_bin)
        return clone

    def classify(self, size: Exact) -> int:
        for i in range(1, self.classes):
            if size > rat(Fraction(1, i + 1)):
                return i
        return self.classes

    def __call__(self, packing: Packing, item: Item) -> Placement:
        cls = self.classify(item.size)
        b = self.open_bin[cls]
        if b is not None and packing.fits(b, item):
            return Placement(b)
        self.open_bin[cls] = packing.cost
        return Placement(packing.cost)


class _ShelfFirstFit:
    """Shelves stacked bottom-up; shelf height is its first square's side.

    Squares go left-to-right on the first shelf (scanning bins in creation
    order) that is tall enough and has horizontal room; a new shelf opens on
    top of the current stack when it fits, else a new bin opens.

    Each shelf caches its horizontal room, each bin the room above its top
    shelf and its cap: the largest side it still takes, the larger of the top
    room and every shelf's min(height, room).  A bin whose cap is below the
    side is skipped with one comparison, and a probe never adds; only the
    bin placed into recomputes its cap.
    """

    def __init__(self):
        self.shelves: list[list[tuple]] = []  # per bin: [(y, height, cursor, room)]
        self.tops: list[Exact] = []  # per bin: room above the top shelf
        self.caps: list[Exact] = []  # per bin: the largest side it still takes

    def fork(self) -> "_ShelfFirstFit":
        clone = _ShelfFirstFit()
        clone.shelves = [list(bin_shelves) for bin_shelves in self.shelves]
        clone.tops = list(self.tops)
        clone.caps = list(self.caps)
        return clone

    def _update_cap(self, b: int) -> None:
        cap = self.tops[b]
        for _, height, _, room in self.shelves[b]:
            fit = height if height <= room else room
            if fit > cap:
                cap = fit
        self.caps[b] = cap

    def __call__(self, packing: Packing, item: Item) -> Placement:
        side = item.size
        for b, cap in enumerate(self.caps):
            if side > cap:
                continue
            bin_shelves = self.shelves[b]
            for j, (y, height, cursor, room) in enumerate(bin_shelves):
                if side <= height and side <= room:
                    bin_shelves[j] = (y, height, cursor + side, room - side)
                    self._update_cap(b)
                    return Placement(b, cursor, y)
            top_y, top_height, _, _ = bin_shelves[-1]  # the cap says the top fits
            used = top_y + top_height
            bin_shelves.append((used, side, side, ONE - side))
            self.tops[b] = self.tops[b] - side
            self._update_cap(b)
            return Placement(b, ZERO, used)
        top = ONE - side
        self.shelves.append([(ZERO, side, side, top)])
        self.tops.append(top)
        self.caps.append(top)  # the lone shelf's min(height, room) is at most top
        return Placement(len(self.shelves) - 1, ZERO, ZERO)


_REGISTRY: dict[str, Callable] = {
    "next-fit": _next_fit,
    "first-fit": first_fit,
    "best-fit": _best_fit,
    "harmonic-5": _Harmonic(5),  # prototype: every session owns a fork
    "ccff": first_fit,  # honours the color cap through Packing.first_fit
    "shelf-first-fit": _ShelfFirstFit(),
}

ONE_D_BASELINES = ("next-fit", "first-fit", "best-fit", "harmonic-5")


def register_algorithm(algorithm_id: str, strategy: Callable) -> None:
    """Add a deterministic strategy (packing, item) -> Placement.

    A strategy that keeps state between calls must be an object with a
    `fork()` method returning an independent copy of that state: the
    registered object is a prototype, and every session, new or forked, owns
    a `fork()` of the one it starts from.  Any other callable (a plain
    function or lambda) is shared by every session, so it must keep no state
    of its own and read whatever it needs from the packing.
    """
    _REGISTRY[algorithm_id] = strategy


def algorithm_ids() -> list[str]:
    return sorted(_REGISTRY)
