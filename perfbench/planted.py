"""Planted-optimum instances for `packbound oracle`.

An instance is made by cutting B unit bins into rational pieces and
shuffling the pieces.  The pieces of every planted bin sum to exactly 1, so
the volume bound and the planted packing both give B: the optimum is known
without trusting any solver.

Three kinds, one per input property the exact search depends on:

* ``plain``: 1-D, rational pieces;
* ``terms``: 1-D, and in every bin one piece pair carries +10^-e / -10^-e in
  factored form, so comparisons leave the rational-only path;
* ``colored``: class-constrained with t=2, at most 2 colors per planted bin.

Search cost per instance is heavy-tailed, so a pass that drew instances
freely would cost several times more on one seed than on another.
Instances are therefore drawn into fixed difficulty strata, measured by
``reference_nodes``: this file's own replay of the search order, run on
literal fractions.  A pass holds a fixed count per stratum, and the strata
are a property of the instance, not of the program under test.

Stdlib only: the generator never imports packbound.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from fractions import Fraction
from typing import Optional

KINDS = ("plain", "terms", "colored")
BIN_COUNTS = (5, 6)
PIECES_PER_BIN = (2, 3, 4)
DENOMINATORS = (12, 20, 30, 42, 60)
EXPONENTS = (6, 400)  # range of e in the +-10^-e perturbations
COLOR_CAP = 2  # t of the class-constrained kind

# (lowest, highest) reference node count of each stratum, highest exclusive
STRATA = ((0, 30), (30, 100), (100, 300), (300, 600), (600, 1000), (1000, 1500))


@dataclass(frozen=True)
class Piece:
    rational: Fraction
    exp: Optional[int] = None  # perturbation sign * 10^-exp, when present
    sign: int = 0
    color: Optional[int] = None

    @property
    def value(self) -> Fraction:
        if self.exp is None:
            return self.rational
        return self.rational + self.sign * Fraction(1, 10**self.exp)

    def size_json(self):
        text = _fraction_text(self.rational)
        if self.exp is None:
            return text
        return {"rational": text,
                "tiny": [{"base": 10, "exp": self.exp, "coef": str(self.sign)}]}


@dataclass(frozen=True)
class Instance:
    kind: str
    pieces: tuple  # Piece per item, in file order (item ident = index)
    planted: tuple  # per planted bin, the item idents it holds

    @property
    def optimum(self) -> int:
        return len(self.planted)

    def to_json(self) -> dict:
        rules = {"kind": "class-constrained", "t": COLOR_CAP} if self.kind == "colored" \
            else {"kind": "one-d"}
        return {"rules": rules,
                "items": [{"size": p.size_json(), "color": p.color} for p in self.pieces]}


def _fraction_text(q: Fraction) -> str:
    return str(q.numerator) if q.denominator == 1 else f"{q.numerator}/{q.denominator}"


def _cut(rng: random.Random, count: int) -> list[Fraction]:
    den = rng.choice(DENOMINATORS)
    marks = [0] + sorted(rng.sample(range(1, den), count - 1)) + [den]
    return [Fraction(b - a, den) for a, b in zip(marks, marks[1:])]


def planted_instance(rng: random.Random, kind: str) -> Instance:
    """One instance of `kind` with a planted optimum of B bins."""
    if kind not in KINDS:
        raise ValueError(f"unknown kind {kind!r}")
    n_bins = rng.choice(BIN_COUNTS)
    bins = []
    for _ in range(n_bins):
        parts = _cut(rng, rng.choice(PIECES_PER_BIN))
        pieces = [Piece(q) for q in parts]
        if kind == "terms":
            i, j = rng.sample(range(len(parts)), 2)
            e = rng.randint(*EXPONENTS)
            pieces[i] = Piece(parts[i], e, 1)
            pieces[j] = Piece(parts[j], e, -1)
        elif kind == "colored":
            palette = rng.sample(range(n_bins + 2), COLOR_CAP)
            pieces = [Piece(q, color=rng.choice(palette)) for q in parts]
        bins.append(pieces)
    flat = [(b, p) for b, pieces in enumerate(bins) for p in pieces]
    rng.shuffle(flat)
    planted = tuple(tuple(i for i, (b, _) in enumerate(flat) if b == k)
                    for k in range(n_bins))
    return Instance(kind, tuple(p for _, p in flat), planted)


def reference_nodes(instance: Instance, cap: int) -> Optional[int]:
    """Nodes the exact search visits on this instance, or None above `cap`.

    Replays the documented search order on literal fractions: items by
    decreasing size, a first-fit-decreasing incumbent, then depth-first
    placement into each distinct open bin and one fresh bin, cut by the
    volume bound.  Used only to sort instances into strata.
    """
    colored = instance.kind == "colored"
    sizes = [p.value for p in instance.pieces]
    order = sorted(range(len(sizes)), key=lambda i: (sizes[i], -i), reverse=True)
    ordered = [(sizes[i], instance.pieces[i].color) for i in order]
    lower = -(-sum(sizes) // 1)
    if colored:
        lower = max(lower, -(-len({c for _, c in ordered}) // COLOR_CAP))

    def fits(load, cols, size, color):
        return load + size <= 1 and (not colored or color in cols or len(cols) < COLOR_CAP)

    loads, colors = [], []
    for size, color in ordered:  # the greedy incumbent
        b = next((b for b in range(len(loads)) if fits(loads[b], colors[b], size, color)),
                 len(loads))
        if b == len(loads):
            loads.append(Fraction(0))
            colors.append(set())
        loads[b] += size
        colors[b].add(color)
    best = len(loads)
    if best == lower:
        return 0

    suffix = [Fraction(0)] * (len(ordered) + 1)
    for i in range(len(ordered) - 1, -1, -1):
        suffix[i] = suffix[i + 1] + ordered[i][0]
    loads, colors = [], []
    nodes = 0

    def search(index):
        nonlocal nodes, best
        nodes += 1
        if nodes > cap:
            raise OverflowError
        if index == len(ordered):
            best = min(best, len(loads))
            return
        need = suffix[index] - sum(1 - load for load in loads)
        if len(loads) + max(0, -(-need // 1)) >= best:
            return
        size, color = ordered[index]
        seen = set()
        for b in range(len(loads)):
            if not fits(loads[b], colors[b], size, color):
                continue
            signature = (loads[b], frozenset(colors[b]) if colored else None)
            if signature in seen:
                continue
            seen.add(signature)
            added = colored and color not in colors[b]
            loads[b] += size
            if added:
                colors[b].add(color)
            search(index + 1)
            if added:
                colors[b].discard(color)
            loads[b] -= size
        if len(loads) + 1 < best:
            loads.append(size)
            colors.append({color})
            search(index + 1)
            colors.pop()
            loads.pop()

    try:
        search(0)
    except OverflowError:
        return None
    return nodes


def draw_instances(seed: int, per_stratum: tuple) -> list[tuple[str, Instance]]:
    """Named instances for one pass: per kind, per_stratum[s] from stratum s."""
    if len(per_stratum) != len(STRATA):
        raise ValueError(f"need one count per stratum, {len(STRATA)} in all")
    rng = random.Random(f"packbound-oracle-search-{seed}")
    cap = STRATA[-1][1]
    out = []
    for kind in KINDS:
        wanted = list(per_stratum)
        drawn = [[] for _ in STRATA]
        while any(wanted):
            instance = planted_instance(rng, kind)
            nodes = reference_nodes(instance, cap)
            if nodes is None:
                continue
            s = next(s for s, (lo, hi) in enumerate(STRATA) if lo <= nodes < hi)
            if wanted[s]:
                wanted[s] -= 1
                drawn[s].append(instance)
        for s, instances in enumerate(drawn):
            for k, instance in enumerate(instances):
                out.append((f"{kind}-s{s}-{k}", instance))
    return out
