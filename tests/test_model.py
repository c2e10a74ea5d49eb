"""Packing model: rule enforcement, geometry, validation, serialization."""

from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from packbound.exact import power, rat
from packbound.model import (
    BadPlacement,
    CapacityExceeded,
    ColorLimitExceeded,
    GeometricOverlap,
    Item,
    OutOfBinBounds,
    Packing,
    PackingError,
    Placement,
    VariantRules,
    item_to_json,
    items_from_json,
    rules_from_json,
    rules_to_json,
    squares_disjoint,
    validate_packing,
)

ONED = VariantRules("one-d")
SQ = VariantRules("squares")


def half(x="0", y="0"):
    return (rat(x), rat(y), rat(Fraction(1, 2)))


class TestAddItem:
    def test_exact_fit_accepted(self):
        p = Packing(ONED)
        p.add_item(Item(0, rat(1)), Placement(0))
        assert p.cost == 1
        assert validate_packing(p) == []

    def test_capacity_exceeded_on_perturbed_sizes(self):
        # bin holding 6/7 - g, adding 1/7 + a with a > g must overflow
        g = power(10, 40)
        a = power(10, 38)  # larger than g
        p = Packing(ONED)
        p.add_item(Item(0, rat(Fraction(6, 7)) - g), Placement(0))
        with pytest.raises(CapacityExceeded):
            p.add_item(Item(1, rat(Fraction(1, 7)) + a), Placement(0))
        # a below g fits
        p.add_item(Item(2, rat(Fraction(1, 7)) + power(10, 44)), Placement(0))
        assert p.cost == 1

    def test_color_limit(self):
        rules = VariantRules("class-constrained", t=2)
        p = Packing(rules)
        tiny = rat("1/1000")
        p.add_item(Item(0, tiny, color=1), Placement(0))
        p.add_item(Item(1, tiny, color=2), Placement(0))
        with pytest.raises(ColorLimitExceeded):
            p.add_item(Item(2, tiny, color=3), Placement(0))
        # same color is fine
        p.add_item(Item(3, tiny, color=1), Placement(0))
        assert p.cost == 1

    def test_fresh_bin_must_be_next_index(self):
        p = Packing(ONED)
        p.add_item(Item(0, rat("1/2")), Placement(0))
        with pytest.raises(BadPlacement):
            p.add_item(Item(1, rat("1/2")), Placement(2))

    def test_color_only_for_class_constrained(self):
        p = Packing(ONED)
        with pytest.raises(BadPlacement):
            p.add_item(Item(0, rat("1/2"), color=1), Placement(0))

    def test_add_never_mutates_other_bins(self):
        p = Packing(ONED)
        p.add_item(Item(0, rat("2/3")), Placement(0))
        p.add_item(Item(1, rat("2/3")), Placement(1))
        before = [list(b) for b in p.bins]
        with pytest.raises(CapacityExceeded):
            p.add_item(Item(2, rat("2/3")), Placement(1))
        assert [list(b) for b in p.bins] == before


class TestSquares:
    def test_shared_edge_is_disjoint(self):
        assert squares_disjoint(half(), half(x="1/2"))

    def test_real_overlap_detected(self):
        assert not squares_disjoint(half(), half(x="1/4", y="1/4"))

    def test_perturbed_corner_squares(self):
        # big square 3/4 - g at origin; a small square to its right fits
        g = power(10, 30)
        big = (rat(0), rat(0), rat(Fraction(3, 4)) - g)
        delta = power(10, 33)
        side = rat(Fraction(1, 4)) + power(10, 35)
        small = (rat(Fraction(3, 4)) - g + delta, rat(0), side)
        assert squares_disjoint(big, small)
        # sanity against literal fractions
        bx, by, bs = (v.as_fraction() for v in big)
        sx, sy, ss = (v.as_fraction() for v in small)
        assert bx + bs <= sx and sx + ss <= 1

    def test_overlap_without_delta(self):
        g = power(10, 30)
        big = (rat(0), rat(0), rat(Fraction(3, 4)) - g)
        small = (rat(Fraction(3, 4)) - g - power(10, 33), rat(0), rat("1/4"))
        assert not squares_disjoint(big, small)

    def test_zero_side_rejected(self):
        with pytest.raises(ValueError):
            squares_disjoint((rat(0), rat(0), rat(0)), half())

    @given(
        st.fractions(min_value=0, max_value=Fraction(1, 2), max_denominator=64),
        st.fractions(min_value=0, max_value=Fraction(1, 2), max_denominator=64),
        st.fractions(min_value=Fraction(1, 64), max_value=Fraction(1, 2), max_denominator=64),
        st.fractions(min_value=0, max_value=Fraction(1, 2), max_denominator=64),
        st.fractions(min_value=0, max_value=Fraction(1, 2), max_denominator=64),
        st.fractions(min_value=Fraction(1, 64), max_value=Fraction(1, 2), max_denominator=64),
    )
    @settings(max_examples=150)
    def test_disjoint_symmetric_and_matches_interval_check(self, ax, ay, asz, bx, by, bsz):
        a = (rat(ax), rat(ay), rat(asz))
        b = (rat(bx), rat(by), rat(bsz))
        assert squares_disjoint(a, b) == squares_disjoint(b, a)
        overlap_x = max(ax, bx) < min(ax + asz, bx + bsz)
        overlap_y = max(ay, by) < min(ay + asz, by + bsz)
        assert squares_disjoint(a, b) == (not (overlap_x and overlap_y))

    def test_square_placement_needs_coordinates(self):
        p = Packing(SQ)
        with pytest.raises(BadPlacement):
            p.add_item(Item(0, rat("1/2")), Placement(0))

    def test_out_of_bounds(self):
        p = Packing(SQ)
        with pytest.raises(OutOfBinBounds):
            p.add_item(Item(0, rat("1/2")), Placement(0, rat("3/4"), rat(0)))

    def test_overlap_in_bin(self):
        p = Packing(SQ)
        p.add_item(Item(0, rat("1/2")), Placement(0, rat(0), rat(0)))
        with pytest.raises(GeometricOverlap):
            p.add_item(Item(1, rat("1/2")), Placement(0, rat("1/4"), rat("1/4")))
        p.add_item(Item(2, rat("1/2")), Placement(0, rat("1/2"), rat(0)))
        assert p.cost == 1 and validate_packing(p) == []


class TestFitsAndPop:
    """`fits` is the 1-D rule `add_item` enforces; `pop` undoes `add_item`."""

    RULES = [ONED, VariantRules("known-opt", advice=3),
             VariantRules("class-constrained", t=2)]

    item_specs = st.lists(
        st.tuples(
            st.fractions(min_value=Fraction(1, 20), max_value=Fraction(19, 20),
                         max_denominator=40),
            st.sampled_from((-1, 0, 1)),  # perturbation sign
            st.integers(min_value=0, max_value=3),  # color
            st.integers(min_value=0, max_value=6),  # target bin, clipped
        ),
        min_size=1,
        max_size=14,
    )

    @staticmethod
    def state(p):
        return ([list(b) for b in p.bins], list(p._loads),
                [set(c) for c in p._colors], set(p._ids), p.cost)

    @pytest.mark.parametrize("rules", RULES, ids=lambda r: r.kind)
    @given(specs=item_specs)
    @settings(max_examples=80, deadline=None)
    def test_fits_matches_add_item_and_pop_restores(self, rules, specs):
        p = Packing(rules)
        for ident, (size, tilt, color, target) in enumerate(specs):
            item = Item(ident, rat(size) + tilt * power(10, 30),
                        color=color if rules.colored else None)
            for b in range(p.cost + 1):
                before = p.copy()
                fits = p.fits(b, item)
                try:
                    p.add_item(item, Placement(b))
                except PackingError:
                    assert not fits
                else:
                    assert fits
                    assert p.pop(b) == item
                assert self.state(p) == self.state(before)
            b = min(target, p.cost)
            if p.fits(b, item):
                p.add_item(item, Placement(b))
        assert validate_packing(p) == []
        for b in range(p.cost):
            assert p.bin_colors(b) == {i.color for i in p.bin_items(b) if i.color is not None}


class TestValidate:
    def test_empty_packing_clean(self):
        assert validate_packing(Packing(ONED)) == []

    def test_three_oversized_thirds_flagged(self):
        p = Packing(ONED)
        third = rat(Fraction(1, 3)) + power(10, 50)
        p.add_item(Item(0, third), Placement(0))
        # force an invalid state bypassing add_item's checks
        p.bins[0].append((Item(1, third), Placement(0)))
        p.bins[0].append((Item(2, third), Placement(0)))
        p.bins[0].append((Item(3, rat("1/7")), Placement(0)))
        found = validate_packing(p)
        assert any(v.rule == "capacity" and v.bin_index == 0 for v in found)

    def test_duplicate_item_flagged(self):
        p = Packing(ONED)
        p.add_item(Item(0, rat("1/2")), Placement(0))
        p.bins.append([(Item(0, rat("1/2")), Placement(1))])
        assert any(v.rule == "duplicate-item" for v in validate_packing(p))

    @given(st.lists(st.fractions(min_value=Fraction(1, 100), max_value=1, max_denominator=200), max_size=12))
    @settings(max_examples=100)
    def test_first_fit_insertion_always_validates(self, sizes):
        p = Packing(ONED)
        for i, s in enumerate(sizes):
            size = rat(s)
            for b in range(p.cost + 1):
                try:
                    p.add_item(Item(i, size), Placement(b))
                    break
                except CapacityExceeded:
                    continue
        assert validate_packing(p) == []


class TestRulesAndJson:
    def test_variant_rules_validation(self):
        with pytest.raises(ValueError):
            VariantRules("one-d", advice=5)
        with pytest.raises(ValueError):
            VariantRules("known-opt")
        with pytest.raises(ValueError):
            VariantRules("class-constrained")
        with pytest.raises(ValueError):
            VariantRules("mystery")

    def test_rules_roundtrip(self):
        for rules in (ONED, SQ, VariantRules("known-opt", advice=8),
                      VariantRules("class-constrained", t=3)):
            assert rules_from_json(rules_to_json(rules)) == rules

    def test_item_roundtrip_with_perturbation(self):
        item = Item(0, rat("1/7") + power(10, 99), label="seventh")
        place = Placement(0, rat("1/4"), rat(0))
        sq_item = Item(1, rat("1/4"))
        obj = item_to_json(item)
        assert obj["color"] is None and obj["x"] is None
        parsed = items_from_json([obj])[0][0]
        assert parsed.size == item.size
        obj2 = item_to_json(sq_item, place)
        parsed2, pl2 = items_from_json([obj2])[0]
        assert pl2.x == place.x and pl2.y == place.y
