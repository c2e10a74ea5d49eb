"""Exact minimum-bin search, cross-checked against brute-force enumeration."""

import json
from collections import Counter
from fractions import Fraction
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

from packbound import optoracle

from packbound.exact import Exact, power, rat
from packbound.model import (ONE, Item, Packing, VariantRules, Violation, items_from_json,
                             packing_to_json, rules_from_json, validate_packing)
from packbound.optoracle import InvalidWitness, OracleInstance, min_bins

ONED = VariantRules("one-d")

# greedy first-fit-decreasing needs 4 bins, the volume bound says 3: the
# search runs (99 nodes) and proves 3
SEARCHED = ["5/12", "4/12", "3/12", "5/13", "4/13", "3/13", "6/13", "7/24", "5/24"]


def items_of(sizes, colors=None):
    return tuple(
        Item(i, rat(s), color=colors[i] if colors else None)
        for i, s in enumerate(sizes)
    )


def brute_force_min(sizes, colors=None, t=None):
    """Try every partition of items into bins (set-partition enumeration)."""
    n = len(sizes)
    if n == 0:
        return 0
    best = n

    def feasible(group):
        total = sum(Fraction(s) for s in (sizes[i] for i in group))
        if total > 1:
            return False
        if colors is not None:
            if len({colors[i] for i in group}) > t:
                return False
        return True

    def partitions(rest):
        if not rest:
            yield []
            return
        head, tail = rest[0], rest[1:]
        for sub in partitions(tail):
            for i, group in enumerate(sub):
                yield sub[:i] + [group + [head]] + sub[i + 1 :]
            yield sub + [[head]]

    for part in partitions(list(range(n))):
        if all(feasible(g) for g in part):
            best = min(best, len(part))
    return best


class TestKnownAnswers:
    def test_pairing(self):
        result = min_bins(OracleInstance(items_of(["3/5", "3/5", "2/5", "2/5"]), ONED))
        assert result.count == 2 and result.proven

    def test_empty(self):
        assert min_bins(OracleInstance((), ONED)).count == 0

    def test_single_full(self):
        assert min_bins(OracleInstance(items_of(["1"]), ONED)).count == 1

    def test_known_opt_rules_treated_as_one_d(self):
        rules = VariantRules("known-opt", advice=2)
        result = min_bins(OracleInstance(items_of(["3/5", "3/5"]), rules))
        assert result.count == 2

    def test_perturbed_adversary_sizes(self):
        # four 4/5-items and four sevenths pair up: cost 4
        sizes = [rat("4/5")] * 4 + [rat("1/7") + power(10, 64 + 2 * i) for i in range(4)]
        items = tuple(Item(i, s) for i, s in enumerate(sizes))
        result = min_bins(OracleInstance(items, ONED))
        assert result.count == 4 and result.proven

    def test_colored_tiny_plus_huge(self):
        rules = VariantRules("class-constrained", t=2)
        # four tiny distinct colors + one huge sharing color 0: two bins
        sizes = ["1/1000"] * 4 + ["9/10"]
        colors = [0, 1, 2, 3, 0]
        result = min_bins(OracleInstance(items_of(sizes, colors), rules))
        assert result.count == brute_force_min(
            [Fraction(1, 1000)] * 4 + [Fraction(9, 10)], colors, 2
        ) == 2

    def test_color_bound_drives_count(self):
        rules = VariantRules("class-constrained", t=2)
        sizes = ["1/100"] * 6
        colors = [0, 1, 2, 3, 4, 5]
        result = min_bins(OracleInstance(items_of(sizes, colors), rules))
        assert result.count == 3  # six colors, two per bin

    def test_budget_exhaustion_flags_result(self):
        sizes = ["5/12", "4/12", "3/12", "5/13", "4/13", "3/13", "6/13", "7/24", "5/24"]
        result = min_bins(OracleInstance(items_of(sizes), ONED, node_budget=3))
        if not result.proven:
            assert result.count >= 3
        assert validate_packing(result.witness) == []


class TestWitness:
    @given(st.lists(
        st.fractions(min_value=Fraction(1, 12), max_value=1, max_denominator=24),
        min_size=1, max_size=7,
    ))
    @settings(max_examples=80, deadline=None)
    def test_count_matches_brute_force_and_witness_validates(self, sizes):
        result = min_bins(OracleInstance(items_of(sizes), ONED))
        assert result.proven
        assert result.count == brute_force_min(sizes)
        assert validate_packing(result.witness) == []
        assert result.witness.cost == result.count

    @given(
        st.lists(st.fractions(min_value=Fraction(1, 10), max_value=Fraction(1, 2),
                              max_denominator=20), min_size=1, max_size=6),
        st.data(),
    )
    @settings(max_examples=50, deadline=None)
    def test_colored_matches_brute_force(self, sizes, data):
        colors = [data.draw(st.integers(min_value=0, max_value=3)) for _ in sizes]
        rules = VariantRules("class-constrained", t=2)
        result = min_bins(OracleInstance(items_of(sizes, colors), rules))
        assert result.count == brute_force_min(sizes, colors, 2)
        assert validate_packing(result.witness) == []


class TestSafetyChecks:
    def test_invalid_witness_is_an_error_not_an_assert(self, monkeypatch):
        bad = Violation(0, "overfull", (0,), "load exceeds 1")
        monkeypatch.setattr(optoracle, "validate_packing", lambda packing: [bad])
        with pytest.raises(InvalidWitness, match="overfull"):
            min_bins(OracleInstance(items_of(SEARCHED), ONED))

    def test_a_greedy_witness_at_the_bound_is_validated_too(self, monkeypatch):
        # first-fit-decreasing meets the volume bound here, so no node is searched
        instance = OracleInstance(items_of(["1/2", "1/3", "1/6", "2/3"]), ONED)
        assert min_bins(instance)[::2] == (2, 0)
        bad = Violation(1, "overfull", (3,), "load exceeds 1")
        monkeypatch.setattr(optoracle, "validate_packing", lambda packing: [bad])
        with pytest.raises(InvalidWitness, match="overfull"):
            min_bins(instance)

    def test_a_leaf_that_breaks_a_rule_is_refused_on_rebuild(self, monkeypatch):
        # the search sees every size as 1/100, so its best leaf fills one bin
        monkeypatch.setattr(optoracle, "_scaled_sizes", lambda items: ([1] * len(items), 100))
        with pytest.raises(InvalidWitness, match="exceeds bin capacity"):
            min_bins(OracleInstance(items_of(SEARCHED), ONED))

    @pytest.mark.parametrize("budget", [0, -1])
    def test_budget_below_one_is_rejected(self, budget):
        with pytest.raises(ValueError, match="node budget must be at least 1"):
            OracleInstance(items_of(SEARCHED), ONED, node_budget=budget)

    def test_explicit_budget(self):
        assert not min_bins(OracleInstance(items_of(SEARCHED), ONED, node_budget=1)).proven
        result = min_bins(OracleInstance(items_of(SEARCHED), ONED, node_budget=10_000))
        assert result.proven and result.count == 3


class TestLowerBound:
    @pytest.mark.parametrize("tail,bound", [(Exact(0), 2), (power(10, 40), 3),
                                            (-power(10, 40), 2)],
                             ids=["exactly-2", "a-hair-above", "a-hair-below"])
    def test_volume_bound_is_the_exact_ceiling(self, tail, bound):
        # four halves, one of them moved by 10**-40: the total is 2 + tail
        items = items_of(["1/2"] * 3) + (Item(3, rat("1/2") + tail),)
        assert optoracle._lower_bound(ONED, items) == bound

    @pytest.mark.parametrize("sizes,colors,bound", [
        (["1/100"] * 5, [0, 1, 2, 3, 4], 3),  # ceil(5 colors / 2) above volume 1
        (["3/4"] * 4, [0, 0, 1, 1], 3),  # volume 3 above ceil(2 colors / 2)
    ])
    def test_colored_bound_takes_the_larger(self, sizes, colors, bound):
        rules = VariantRules("class-constrained", t=2)
        assert optoracle._lower_bound(rules, items_of(sizes, colors)) == bound


def fixture_instances():
    for path in sorted((Path(__file__).parent / "fixtures" / "oracle").glob("*.json")):
        payload = json.loads(path.read_text())
        items = tuple(item for item, _ in items_from_json(payload["items"]))
        yield path.stem, OracleInstance(items, rules_from_json(payload["rules"]))


def exact_path(monkeypatch):
    """Make every later search run on the `Exact` sizes: no common
    denominator is short enough for ints."""
    monkeypatch.setattr(optoracle, "_INT_BITS_CAP", 0)


class TestIntegerSearch:
    """The search walks the same tree on int sizes as on the `Exact` ones."""

    # shared rational parts, so that rooms tie and signatures repeat
    RATIONALS = [Fraction(1, k) for k in range(2, 8)] + [
        Fraction(2, 5), Fraction(3, 5), Fraction(2, 3), Fraction(3, 4), Fraction(3, 10)]

    @given(
        st.sampled_from(["one-d", "class-constrained"]),
        st.lists(st.tuples(
            st.sampled_from(RATIONALS),
            st.sampled_from((-1, 0, 1)),  # perturbation sign
            st.sampled_from((10, 20)),  # perturbation base
            st.integers(min_value=1, max_value=60),  # perturbation exponent
            st.integers(min_value=0, max_value=3),  # color, under colored rules
        ), min_size=1, max_size=9),
    )
    @settings(max_examples=100, deadline=None)
    def test_int_and_exact_paths_agree(self, kind, specs):
        rules = VariantRules(kind, t=2) if kind == "class-constrained" else VariantRules(kind)
        items = []
        for ident, (q, sign, base, exp, color) in enumerate(specs):
            items.append(Item(ident, rat(q) + sign * power(base, exp),
                              color=color if rules.colored else None))
        instance = OracleInstance(tuple(items), rules, node_budget=3_000)
        assert type(optoracle._scaled_sizes(items)[1]) is int  # these sizes take the int path
        results = [min_bins(instance)]
        with pytest.MonkeyPatch.context() as patch:
            exact_path(patch)
            assert optoracle._scaled_sizes(items)[1] is ONE
            results.append(min_bins(instance))
        ints, exacts = ((r.count, r.nodes, r.proven, packing_to_json(r.witness))
                        for r in results)
        assert ints == exacts
        assert validate_packing(results[0].witness) == []

    def test_an_unexpandable_exponent_runs_on_the_exact_sizes(self):
        # SEARCHED with two items moved by -+10**-(10**30): the cap is
        # decided from the exponent, and no power is expanded
        tiny = power(10, 10**30)
        sizes = [rat(s) for s in SEARCHED]
        sizes[0], sizes[-1] = sizes[0] - tiny, sizes[-1] + tiny
        items = tuple(Item(i, s) for i, s in enumerate(sizes))
        assert optoracle._scaled_sizes(items)[1] is ONE
        result = min_bins(OracleInstance(items, ONED))
        assert result.proven and result.count == 3 and result.nodes > 0
        assert validate_packing(result.witness) == []
        assert sorted(it.ident for b in result.witness.bins for it, _ in b) == list(range(9))

    @pytest.mark.parametrize("forced", [False, True], ids=["ints", "exact"])
    def test_only_the_exact_path_searches_with_exact_operations(self, monkeypatch, forced):
        """Exact operations made outside the set-up and the witness checks
        (sorting, the root bound, the first-fit seed, `add_item` and
        `validate_packing`) are the search's own: none on ints, at least
        one per node on the `Exact` sizes."""
        counted = ("__add__", "__radd__", "__sub__", "__rsub__", "__neg__", "__lt__",
                   "__le__", "__gt__", "__ge__", "__eq__", "__hash__", "sign")
        calls = Counter()  # innermost open wrapper (None: the search) -> Exact operations
        frames = []

        def wrap(owner, name, layer):
            fn = getattr(owner, name)

            def wrapper(*args, **kwargs):
                if layer is None:
                    calls[frames[-1] if frames else None] += 1
                frames.append(layer or "exact")
                try:
                    return fn(*args, **kwargs)
                finally:
                    frames.pop()
            monkeypatch.setattr(owner, name, wrapper)

        for name in counted:
            wrap(Exact, name, None)
        for name in ("_sorted_items", "_lower_bound", "first_fit", "validate_packing"):
            wrap(optoracle, name, "checks")
        wrap(Packing, "add_item", "checks")
        if forced:
            exact_path(monkeypatch)
        searched = 0
        for name, instance in fixture_instances():
            calls.clear()
            nodes = min_bins(instance).nodes
            searched += nodes > 0
            if forced:
                assert calls[None] >= nodes, name
            else:
                assert calls[None] == 0 < calls["checks"], name
        assert searched == 5
