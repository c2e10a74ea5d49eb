"""The census of every adversary, the rows it implies, the continuations'
costs and the bound programs' own rows: the ko and sp band tables and the
clcbp census of each t.  `mathprog` builds every program from them and every
duel checks its census and continuations against them; the sp and clcbp duels
also stop their thirds by their programs' own rows.  A per-M form maps
variables to coefficients, "M" being M (1 in the programs, which count per M).
This module imports nothing from the package, so `bounds` loads no adversary.
"""

from __future__ import annotations

from fractions import Fraction as F
from typing import NamedTuple

__all__ = ["Cost", "Census", "StructuralRow", "KO", "SP", "CLCBP", "banded"]


class Cost(NamedTuple):
    """What a continuation costs: the algorithm pays a bin per presented item
    plus `pays` (the census bins no item can join), exactly that when `forced`
    and at least that otherwise, and the offline packing `opt`.  The program
    row is R*opt - pays - items >= 0."""

    label: str  # the program row
    pays: dict  # census variable -> coefficient
    items: dict  # presented items: a per-M form, or program id -> its form there
    forced: bool
    opt: dict = {"M": 1}  # like `items`; one dict shared by every default
    slack: int = 0  # the bins the layout's partly filled bins may add over `opt`
    rounds_up: bool = False  # a duel ceils `items` on its census instead of flooring


class StructuralRow(NamedTuple):
    """sum(terms) REL total, the total being a sum of variables or, when
    empty, M; a bin-count row `defines` its total."""

    label: str  # the program row
    check: str  # the duel's census check
    terms: dict  # category -> coefficient
    relation: str
    total: tuple = ()
    defines: bool = False

    @property
    def coeffs(self) -> dict:
        if self.defines:  # total - sum(terms) == 0
            return {**dict.fromkeys(self.total, 1), **{n: -c for n, c in self.terms.items()}}
        return {**self.terms, **dict.fromkeys(self.total, -1)}


class Census(NamedTuple):
    """One adversary's census: the program's variables (the ratio last), the
    wave-one bands by which `adversary.census` counts bins, what the wave-one
    items are called, the structural rows, the continuations' costs and its
    bound programs, each with the rows of its own (a case or a stop rule).
    A program is the structural rows, its own rows and the cost rows."""

    variables: tuple
    bands: dict  # thirds in the bin -> ((lo, hi) wave-one items, category) ranges
    wave_one: str
    rows: tuple  # its `StructuralRow`s, in program order
    costs: dict  # the duel's continuation -> its `Cost`, in program order
    programs: dict  # program id -> its own (label, terms, relation, per-M constant) rows
    large_below: int = 0  # a bin of thirds with fewer wave-one items holds one large third


def banded(bands: dict, wave_one: str, bins: tuple, thirds: tuple, kinds: tuple,
           costs: dict, programs: dict, large_below: int = 0) -> Census:
    """The census a band table implies: its variables are the categories
    (wave-one bins first), the (wave-one, wave-two) bin counts `bins`, the
    (small, large) thirds counts `thirds` (() when there are M thirds) and
    the ratio; its rows those of `kinds`, in that order.

    A category's wave-one capacity is its band's `hi`, its thirds the
    largest thirds count whose band carries it, and it is a wave-one bin
    exactly when `hi > 0`.
    """
    most: dict = {}  # category -> (largest hi, largest thirds count)
    for k, ranges in bands.items():
        for (_, hi), name in ranges:
            h, t = most.get(name, (0, 0))
            most[name] = (max(h, hi), max(t, k))
    most = dict(sorted(most.items(), key=lambda item: item[1][0] == 0))
    first = {n: hi for n, (hi, _) in most.items() if hi}
    starts = [(k, lo, name) for k, ranges in bands.items() for (lo, _), name in ranges]
    # a category carried at several thirds counts only bounds its thirds
    exact = len(starts) == len(most)
    large = {name for k, lo, name in starts if k and lo < large_below}
    rows = {
        "thirds": ("items-thirds", f"census-thirds-{'count' if exact else 'capacity'}",
                   {n: k for n, (_, k) in most.items() if k}, "==" if exact else ">=", thirds),
        "wave-one": (f"items-{wave_one}", f"census-{wave_one}-capacity", first, ">="),
        "wave-one-bins": (f"{bins[0]}-def", "census-wave1-bins",
                          dict.fromkeys(first, 1), "==", bins[:1], True),
        "wave-two-bins": (f"{bins[1]}-def", "census-wave2-bins",
                          {n: 1 for n in most if n not in first}, "==", bins[1:], True),
        "large-thirds": ("large-thirds", "census-large-thirds",
                         {n: 1 for n in most if n in large}, "==", thirds[1:]),
    }
    return Census((*most, *bins, *thirds, "ratio"), bands, wave_one,
                  tuple(StructuralRow(*rows[kind]) for kind in kinds), costs, programs,
                  large_below)


# thirds in the bin -> ((lo, hi) sevenths, category); "s24t1" is 2-4
# sevenths and one third, "t2" two thirds alone
KO = banded(
    bands={
        0: (((4, 6), "s46"), ((3, 3), "s3"), ((2, 2), "s2"), ((1, 1), "s1")),
        1: (((2, 4), "s24t1"), ((1, 1), "s1t1"), ((0, 0), "t1")),
        2: (((1, 1), "s1t2"), ((2, 2), "s2t2"), ((0, 0), "t2")),
    },
    wave_one="sevenths", bins=("bins7", "bins3"), thirds=(),
    kinds=("thirds", "wave-one", "wave-one-bins", "wave-two-bins"),
    costs={
        "four-fifths": Cost(
            "cost-fourfifths", {"s46": 1, "s3": 1, "s2": 1, "s24t1": 1, "s2t2": 1}, {"M": 1},
            False),
        "big-fill": Cost("cost-bigfill", {"bins7": 1}, {"M": 1, "bins7": F(-1, 6)}, True),
        "units": Cost("cost-units", {"bins7": 1, "bins3": 1}, {"M": F(1, 2)}, True),
        "over-half": Cost(
            "cost-halves", {"s46": 1, "s24t1": 1, "s2t2": 1, "s1t2": 1, "t2": 1}, {"M": 1},
            False),
        # M - max(M/4, bins3/2) items: 3M/4 with few new thirds bins
        # (bins3 <= M/2), M - bins3/2 with many
        "short-two-thirds": Cost(
            "cost-twothirds", {"bins7": 1, "bins3": 1, "s2": -1, "s1": -1},
            {"ko-case1": {"M": F(3, 4)}, "ko-case2": {"M": 1, "bins3": F(-1, 2)}}, False),
    },
    # the cases: few or many new thirds bins
    programs={
        "ko-case1": (("few-new-thirds", {"bins3": 1}, "<=", F(1, 2)),),
        "ko-case2": (("many-new-thirds", {"bins3": 1}, ">=", F(1, 2)),),
    },
)

# thirds in the bin -> ((lo, hi) quarters, category); "f58t1" is 5-8
# quarters and one third, "t4" four thirds alone.  A third is small when its
# bin already holds a third or five quarters, so a bin of thirds below five
# quarters holds exactly one large third.
SP = banded(
    bands={
        0: (((6, 9), "f69"), ((1, 5), "f15")),
        1: (((5, 8), "f58t1"), ((1, 4), "f14t1"), ((0, 0), "t13")),
        2: (((5, 7), "f57t2"), ((4, 4), "f4t2"), ((1, 3), "f13t2"), ((0, 0), "t13")),
        3: (((5, 6), "f56t3"), ((3, 4), "f34t3"), ((1, 2), "f12t3"), ((0, 0), "t13")),
        4: (((5, 5), "f5t4"), ((2, 4), "f24t4"), ((1, 1), "f1t4"), ((0, 0), "t4")),
    },
    wave_one="quarters", bins=("bins4", "bins3"), thirds=("sm3", "lg3"),
    kinds=("wave-one-bins", "wave-two-bins", "thirds", "large-thirds", "wave-one"),
    # opt: the bins of the closed-form layouts in `squares`
    costs={
        # slack: the last big square's L-strip and the last 3x3 grid
        "three-quarter-fill": Cost(
            "ratio-bigsquares", {"bins4": 1}, {"M": F(1, 5), "bins4": F(-1, 5)}, True,
            opt={"M": F(1, 5), "bins4": F(-4, 45)}, slack=2, rounds_up=True),
        # slack: the leftover thirds' row, the last grid, the quarters the floor leaves
        "six-tenths": Cost(
            "ratio-sixtenths",
            {"bins4": 1, "bins3": 1, "f15": -1, "f14t1": -1, "f13t2": -1, "f12t3": -1, "t13": -1},
            {"sm3": F(1, 3), "lg3": F(1, 3)}, False,
            opt={"M": F(1, 9), "sm3": F(7, 27), "lg3": F(7, 27)}, slack=3),
        # slack: the last 2x2 block, the small thirds the floored corner count leaves
        "short-two-thirds": Cost(
            "ratio-twothirds", {"bins4": 1, "bins3": 1, "f15": -1}, {"sm3": F(1, 3)}, False,
            opt={"sm3": F(1, 3), "lg3": F(1, 4)}, slack=2),
    },
    # wave two stops when its weighted thirds reach the total per M
    programs={"sp": (("stop-mix", {"sm3": 8, "lg3": 15}, "==", 12),)},
    large_below=5,
)


def _clcbp(t: int) -> Census:
    """x_j: bins holding j tinies after wave one; z1: bins holding a third,
    z2: bins holding two thirds; each per M."""
    tinies = {f"x{j}": j for j in range(1, t + 1)}
    full = f"x{t}"
    if t == 2:
        # the paper's cases: x1 <= x2, then x2 <= x1; in each, x_few <= x_many,
        # so the thirds wave brings 2*x_many items
        twothirds = {"clcbp2-case1": {"x2": F(1, 2), "z1": F(1, 2), "z2": 1},
                     "clcbp2-case2": {"x1": F(-1, 2), "x2": 1, "z1": F(1, 2), "z2": 1}}
        programs = {f"clcbp2-case{i}": (("skew", {"x1": 1, "x2": -2}, "<=", 0),
                                        ("balance", {few: 1, many: -1}, "<=", 0),
                                        ("t-count", {"z1": 1, "z2": 1, many: -2}, "==", 0))
                    for i, (few, many) in enumerate((("x1", "x2"), ("x2", "x1")), 1)}
    else:
        twothirds = {"z1": F(1, 2), "z2": 1}
        programs = {
            "clcbp3-case1": (("stop-low", {"z1": 1, "z2": 1, "x3": 6}, ">=", 2),
                             ("stop-tie", {"z1": 2, "z2": 3, "x3": -6}, "==", 0)),
            "clcbp3-case2": (("stop-low", {"z1": 1, "z2": 1, "x3": 6}, "<=", 2),
                             ("stop-tie", {"z1": 3, "z2": 4}, "==", 2)),
        }
    return Census(
        variables=(*tinies, "z1", "z2", "ratio"),
        bands={0: tuple(((j, j), x) for x, j in tinies.items())}, wave_one="tinies",
        rows=(StructuralRow("items", "census-tiny-items", tinies, "=="),
              StructuralRow("third-pairs", "census-pairs", {"z2": 1}, "<=", ("z1",))),
        costs={
            # (M - X)/t huge items, X the tiny bins, against M/t offline bins
            "huge": Cost("cost-tiny", dict.fromkeys(tinies, 1),
                         {"M": F(1, t), **dict.fromkeys(tinies, F(-1, t))}, True,
                         opt={"M": F(1, t)}),
            # a 3/5 item per third; slack: the tinies the thirds' bins leave (none at t = 2)
            "six-tenths": Cost("cost-sixtenths", {full: 1, "z2": 1}, {"z1": 1, "z2": 1}, False,
                               opt={"z1": 1, "z2": 1}, slack=t - 2),
            # a short two-thirds item per small third; slack: the bin of a
            # large third left without a pair and, from t = 3, the tinies' bin
            "short-two-thirds": Cost("cost-twothirds", {full: 1, "z1": 1}, {"z2": 1}, False,
                                     opt=twothirds, slack=t - 1),
        },
        programs=programs,
    )


CLCBP = {t: _clcbp(t) for t in (2, 3)}
