"""Packing model: rule enforcement, geometry, validation, serialization."""

from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from packbound.exact import Exact, power, rat
from packbound.model import (
    ONE,
    ZERO,
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
    items_from_json,
    rules_from_json,
    square_box,
    squares_disjoint,
    validate_packing,
)

ONED = VariantRules("one-d")
SQ = VariantRules("squares")


def half(x="0", y="0"):
    return square_box(rat(x), rat(y), rat(Fraction(1, 2)))


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
        big = square_box(rat(0), rat(0), rat(Fraction(3, 4)) - g)
        delta = power(10, 33)
        side = rat(Fraction(1, 4)) + power(10, 35)
        small = square_box(rat(Fraction(3, 4)) - g + delta, rat(0), side)
        assert squares_disjoint(big, small)
        # sanity against literal fractions
        _, _, bx1, _ = (v.as_fraction() for v in big)
        sx0, _, sx1, _ = (v.as_fraction() for v in small)
        assert bx1 <= sx0 and sx1 <= 1

    def test_overlap_without_delta(self):
        g = power(10, 30)
        big = square_box(rat(0), rat(0), rat(Fraction(3, 4)) - g)
        small = square_box(rat(Fraction(3, 4)) - g - power(10, 33), rat(0), rat("1/4"))
        assert not squares_disjoint(big, small)

    def test_zero_side_rejected(self):
        for side in (rat(0), rat("-1/4"), -power(10, 30)):
            with pytest.raises(ValueError, match="positive side"):
                square_box(rat(0), rat(0), side)

    def test_box_holds_the_far_edges(self):
        g = power(10, 30)
        assert square_box(rat("1/4"), g, rat("1/2")) == (rat("1/4"), g, rat("3/4"), rat("1/2") + g)

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
        a = square_box(rat(ax), rat(ay), rat(asz))
        b = square_box(rat(bx), rat(by), rat(bsz))
        assert squares_disjoint(a, b) == squares_disjoint(b, a)
        overlap_x = max(ax, bx) < min(ax + asz, bx + bsz)
        overlap_y = max(ay, by) < min(ay + asz, by + bsz)
        assert squares_disjoint(a, b) == (not (overlap_x and overlap_y))

    # a grid value plus a signed power(10, e): small denominators make the
    # rational parts tie often, so the terms decide
    perturbed = st.tuples(
        st.fractions(min_value=0, max_value=Fraction(3, 4), max_denominator=4),
        st.sampled_from((-1, 0, 1)),
        st.integers(min_value=2, max_value=40),
    )

    @given(st.lists(perturbed, min_size=6, max_size=6))
    @settings(max_examples=200, deadline=None)
    def test_perturbed_boxes_match_the_interval_rule(self, values):
        # sides get at least 1/4 of rational part, so a term never flips their sign
        (ax, ay, asz, bx, by, bsz) = [
            rat(q + (Fraction(1, 4) if i in (2, 5) else 0)) + tilt * power(10, e)
            for i, (q, tilt, e) in enumerate(values)]
        a, b = square_box(ax, ay, asz), square_box(bx, by, bsz)
        fa, fb = [[v.as_fraction() for v in s] for s in ((ax, ay, asz), (bx, by, bsz))]

        def overlap(i):  # the open intervals along axis i meet
            return max(fa[i], fb[i]) < min(fa[i] + fa[2], fb[i] + fb[2])

        disjoint = not (overlap(0) and overlap(1))
        assert squares_disjoint(a, b) == disjoint
        assert squares_disjoint(b, a) == disjoint

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


class TestStoredBoxes:
    """A squares packing keeps each bin's boxes in step with its squares."""

    @staticmethod
    def square(p, ident, side, b, x, y):
        p.add_item(Item(ident, rat(side)), Placement(b, rat(x), rat(y)))

    def test_pop_then_a_different_square_still_refuses_overlaps(self):
        p = Packing(SQ)
        self.square(p, 0, "1/2", 0, "0", "0")
        self.square(p, 1, "1/2", 0, "1/2", "0")
        assert p.pop(0).ident == 1
        self.square(p, 2, "1/4", 0, "1/2", "1/2")
        with pytest.raises(GeometricOverlap, match="overlaps item 0$"):
            self.square(p, 3, "1/2", 0, "1/4", "1/4")
        with pytest.raises(GeometricOverlap, match="overlaps item 2$"):
            self.square(p, 3, "1/4", 0, "5/8", "5/8")
        self.square(p, 4, "1/2", 0, "1/2", "0")  # where the popped square stood
        assert validate_packing(p) == []

    def test_a_reopened_bin_forgets_the_square_that_closed_it(self):
        p = Packing(SQ)
        self.square(p, 0, "1", 0, "0", "0")
        self.square(p, 1, "1/2", 1, "0", "0")
        p.pop(1)  # bin 1 closes
        self.square(p, 2, "1/4", 1, "3/4", "3/4")
        self.square(p, 3, "1/2", 1, "0", "0")
        with pytest.raises(GeometricOverlap, match="overlaps item 2$"):
            self.square(p, 4, "1/2", 1, "1/2", "1/2")
        assert p.cost == 2 and validate_packing(p) == []

    def test_a_closed_bin_takes_its_boxes_along(self):
        p = Packing(SQ)
        self.square(p, 0, "1/2", 0, "0", "0")
        self.square(p, 1, "1/2", 1, "0", "0")
        p.pop(1)  # bin 1 closes
        assert len(p._boxes) == p.cost == 1
        self.square(p, 2, "1/4", 1, "3/4", "3/4")
        q = p.copy()
        assert len(q._boxes) == q.cost == 2
        self.square(q, 3, "1/2", 1, "0", "0")  # where the closing square stood
        with pytest.raises(GeometricOverlap, match="overlaps item 2$"):
            self.square(q, 4, "1/2", 1, "1/2", "1/2")
        assert validate_packing(q) == [] and len(q._boxes) == q.cost

    def test_copies_and_forks_share_no_boxes(self):
        from packbound.algorithms import make_session

        p = Packing(SQ)
        self.square(p, 0, "1/2", 0, "0", "0")
        q = p.copy()
        self.square(q, 1, "1/2", 0, "1/2", "0")
        self.square(p, 2, "1/2", 0, "1/2", "0")  # q's square is not p's
        with pytest.raises(GeometricOverlap):
            self.square(q, 2, "1/2", 0, "1/2", "1/4")
        session = make_session("shelf-first-fit", SQ)
        session.place(Item(0, rat("1/2")))
        branch = session.fork()
        branch.packing.add_item(Item(1, rat("1/2")), Placement(0, rat("1/2"), rat("1/2")))
        session.packing.add_item(Item(2, rat("1/4")), Placement(0, rat("1/2"), rat("1/2")))
        assert [i.ident for i in branch.packing.bin_items(0)] == [0, 1]
        assert [i.ident for i in session.packing.bin_items(0)] == [0, 2]

    def test_validate_rebuilds_boxes_from_the_bins(self):
        p = Packing(SQ)
        self.square(p, 0, "1/2", 0, "0", "0")
        # bypass add_item: the stored boxes never see item 1
        p.bins[0].append((Item(1, rat("1/2")), Placement(0, rat("1/4"), rat("1/4"))))
        [found] = validate_packing(p)
        assert (found.rule, found.items) == ("overlap", (0, 1))

    @pytest.mark.parametrize("per_row", [2, 4])
    def test_each_square_is_summed_at_most_twice_per_pass(self, monkeypatch, per_row):
        n, pitch = per_row * per_row, Fraction(1, per_row)
        side = rat(pitch) - power(10, 20)
        p = Packing(SQ)
        add = Exact.__add__
        counts = []

        def counting(self, other, sign=1):
            counts[-1] += 1
            return add(self, other, sign)

        monkeypatch.setattr(Exact, "__add__", counting)
        counts.append(0)
        for ident in range(n):
            row, col = divmod(ident, per_row)
            p.add_item(Item(ident, side), Placement(0, rat(col * pitch), rat(row * pitch)))
        counts.append(0)
        assert validate_packing(p) == []
        # add_item, then validate_packing: two far edges per square, where a
        # sum per pair of squares would make n * (n - 1) / 2 or more
        assert all(0 < c <= 2 * n for c in counts), counts


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
        return ([list(b) for b in p.bins], [p.bin_room(b) for b in range(p.cost)],
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

    @pytest.mark.parametrize("rules", RULES + [VariantRules("class-constrained", t=1)],
                             ids=lambda r: f"{r.kind}-t{r.t}" if r.t else r.kind)
    @given(specs=item_specs)
    @settings(max_examples=80, deadline=None)
    def test_first_fit_is_the_first_bin_fits_takes(self, rules, specs):
        p = Packing(rules)
        for ident, (size, tilt, color, target) in enumerate(specs):
            item = Item(ident, rat(size) + tilt * power(10, 30),
                        color=color if rules.colored else None)
            first = next((b for b in range(p.cost) if p.fits(b, item)), p.cost)
            assert p.first_fit(item) == first
            b = min(target, p.cost)  # fill the bins unevenly, not first-fit
            p.add_item(item, Placement(b if p.fits(b, item) else p.cost))


class TestRoomCache:
    """Each 1-D bin caches its free room, which must stay 1 - its contents."""

    ops = st.lists(
        st.one_of(
            st.tuples(
                st.just("add"),
                st.fractions(min_value=Fraction(1, 20), max_value=Fraction(19, 20),
                             max_denominator=40),
                st.sampled_from((-1, 0, 1)),  # perturbation sign
                st.integers(min_value=2, max_value=60),  # perturbation exponent
                st.integers(min_value=0, max_value=6),  # target bin, clipped
            ),
            st.tuples(st.just("pop"), st.integers(min_value=0, max_value=6)),
            st.tuples(st.just("copy")),
        ),
        min_size=1,
        max_size=24,
    )

    @staticmethod
    def assert_rooms(p):
        for b in range(p.cost):
            expected = ONE - sum((item.size for item in p.bin_items(b)), ZERO)
            room = p.bin_room(b)
            assert (room.rational_part, room.terms) == (expected.rational_part, expected.terms)
            assert room == expected and hash(room) == hash(expected)

    @pytest.mark.parametrize("rules", [ONED, VariantRules("class-constrained", t=2)],
                             ids=lambda r: r.kind)
    @given(ops=ops)
    @settings(max_examples=80, deadline=None)
    def test_room_is_one_minus_contents(self, rules, ops):
        p = Packing(rules)
        packings = [p]
        for ident, op in enumerate(ops):
            if op[0] == "add":
                _, size, tilt, exp, target = op
                item = Item(ident, rat(size) + tilt * power(10, exp),
                            color=ident % 3 if rules.colored else None)
                b = min(target, p.cost)
                p.add_item(item, Placement(b if p.fits(b, item) else p.cost))
            elif op[0] == "pop":
                nonempty = [b for b in range(p.cost) if p.bins[b]]
                if not nonempty:
                    continue
                p.pop(nonempty[op[1] % len(nonempty)])
            else:
                p = p.copy()
                packings.append(p)
            self.assert_rooms(p)
        for q in packings:  # a copy shares no room list with its source
            self.assert_rooms(q)

    def test_pop_restores_the_room_object(self):
        p = Packing(ONED)
        p.add_item(Item(0, rat("1/3") + power(10, 40)), Placement(0))
        room = p.bin_room(0)
        p.add_item(Item(1, rat("1/4")), Placement(0))
        assert p.pop(0).ident == 1 and p.bin_room(0) is room

    def test_a_copy_pops_apart_from_its_source(self):
        p = Packing(ONED)
        p.add_item(Item(0, rat("1/3")), Placement(0))
        room = p.bin_room(0)
        p.add_item(Item(1, rat("1/4")), Placement(0))
        clone = p.copy()
        clone.pop(0)
        clone.add_item(Item(2, rat("1/2")), Placement(0))  # the source must not see this
        p.pop(0)
        assert p.bin_room(0) is room and clone.bin_room(0) == rat("1/6")
        clone.pop(0)
        assert clone.bin_room(0) is room
        p.pop(0)
        clone.add_item(Item(3, rat("1/5")), Placement(0))
        assert p.cost == 0 and clone.pop(0).ident == 3 and clone.bin_room(0) is room

    def test_squares_bins_keep_the_largest_room_at_one(self):
        p = Packing(SQ)
        assert p.largest_room() == ZERO  # no open bin
        p.add_item(Item(0, rat("1/2")), Placement(0, ZERO, ZERO))
        assert p.bin_room(0) == ONE and p.largest_room() == ONE

    def test_fits_builds_no_sum(self, monkeypatch):
        p = Packing(ONED)
        for ident, size in enumerate((rat("1/2") - power(10, 30), rat("1/3"),
                                      rat("2/5") - power(10, 12))):
            p.add_item(Item(ident, size), Placement(ident))
        probes = [Item(10, rat("2/5")), Item(11, rat("7/10") - power(10, 40)),
                  Item(12, rat("5/8") + power(10, 20))]
        # these two tie with the largest room, 2/3, on the rational part
        ties = [Item(13, rat("2/3") + power(20, 9)), Item(14, rat("2/3") - power(10, 9))]

        def refuse(self, other):
            raise AssertionError("fits built a new Exact sum")

        # each probe's rational part differs from every room's, so the
        # comparison is certified without forming a difference
        monkeypatch.setattr(Exact, "__add__", refuse)
        monkeypatch.setattr(Exact, "__sub__", refuse)
        verdicts = [[p.fits(b, item) for b in range(p.cost + 1)] for item in probes]
        assert verdicts == [
            [True, True, True, True],
            [False, False, False, True],
            [False, True, False, True],
        ]
        # the fresh-bin shortcut weighs each probe against the largest room
        assert p.largest_room() == rat("2/3")
        shortcut = [p.fits_no_open_bin(item) for item in probes + ties]
        assert shortcut == [False, True, False, True, False]


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
        for obj, rules in (({"kind": "one-d"}, ONED), ({"kind": "squares"}, SQ),
                           ({"kind": "known-opt", "advice": 8}, VariantRules("known-opt", advice=8)),
                           ({"kind": "class-constrained", "t": 3},
                            VariantRules("class-constrained", t=3))):
            assert rules_from_json(obj) == rules

    def test_item_roundtrip_with_perturbation(self):
        seventh = {"size": {"rational": "1/7", "tiny": [{"base": 10, "exp": 99, "coef": "1"}]},
                   "color": None, "x": None, "y": None, "label": "seventh"}
        quarter = {"size": "1/4", "color": None, "x": "1/4", "y": "0"}
        (parsed, pl), (parsed2, pl2) = items_from_json([seventh, quarter])
        assert parsed.size == rat("1/7") + power(10, 99) and parsed.label == "seventh"
        assert pl is None
        assert parsed2.size == rat("1/4")
        assert pl2.x == rat("1/4") and pl2.y == rat(0)
