"""Adaptive oracle: window walk, separation guarantees, protocol discipline."""

import itertools

import pytest
from hypothesis import given, settings, strategies as st

from packbound.exact import power
from packbound.oracle import (
    AdaptiveOracle,
    NothingToObserve,
    ObservationPending,
    OracleConfig,
    SequenceExhausted,
)


def run_pattern(k, n, answers, offset=0):
    oracle = AdaptiveOracle(OracleConfig(k, n, offset))
    for a in answers:
        oracle.next_value()
        oracle.observe(a)
    return oracle


class TestWindowWalk:
    def test_first_value_is_window_midpoint(self):
        oracle = AdaptiveOracle(OracleConfig(10, 2))
        assert (oracle.e_lo, oracle.e_hi) == (16, 48)
        assert oracle.next_value() == power(10, 32)

    def test_small_answer_moves_to_larger_values(self):
        oracle = AdaptiveOracle(OracleConfig(10, 2))
        oracle.next_value()
        oracle.observe(True)
        assert (oracle.e_lo, oracle.e_hi) == (16, 30)
        assert oracle.next_value() == power(10, 23)

    def test_large_answer_moves_to_smaller_values(self):
        oracle = AdaptiveOracle(OracleConfig(10, 2))
        oracle.next_value()
        oracle.observe(False)
        assert (oracle.e_lo, oracle.e_hi) == (34, 48)
        assert oracle.next_value() == power(10, 41)

    @pytest.mark.parametrize("k,n", [(10, 8), (10, 16), (20, 8), (20, 16)])
    @pytest.mark.parametrize(
        "pattern",
        [
            lambda n: [True] * n,
            lambda n: [False] * n,
            lambda n: [i % 2 == 0 for i in range(n)],
        ],
    )
    def test_full_patterns_never_exhaust_window(self, k, n, pattern):
        oracle = run_pattern(k, n, pattern(n))
        assert len(oracle.emitted) == n
        assert oracle.e_lo <= oracle.e_hi

    @given(st.lists(st.booleans(), min_size=1, max_size=12))
    @settings(max_examples=150)
    def test_any_pattern_supports_n_emissions(self, answers):
        oracle = run_pattern(10, len(answers), answers)
        assert len(oracle.emitted) == len(answers)
        assert oracle.e_lo <= oracle.e_hi


class TestSeparation:
    @given(st.lists(st.booleans(), min_size=1, max_size=12))
    @settings(max_examples=150)
    def test_gamma_strictly_separates_classes(self, answers):
        oracle = run_pattern(10, len(answers), answers)
        sep = oracle.separator()
        for e in oracle.emitted:
            if e.small:
                assert e.value < sep.gamma
            else:
                assert e.value > sep.gamma
        assert sep.small_sup < sep.gamma < sep.large_inf

    @given(st.lists(st.booleans(), min_size=2, max_size=12))
    @settings(max_examples=150)
    def test_cross_pairs_separated_by_k_squared(self, answers):
        oracle = run_pattern(10, len(answers), answers)
        smalls = [e for e in oracle.emitted if e.small]
        larges = [e for e in oracle.emitted if not e.small]
        for s, l in itertools.product(smalls, larges):
            assert s.exponent - l.exponent >= 2  # value ratio >= k**2
            assert l.value > s.value * 100

    def test_mixed_run_ratio_bound(self):
        oracle = run_pattern(10, 6, [True, False, True, False, True, False])
        sep = oracle.separator()
        assert sep.ratio_exponent >= 2

    def test_all_small_and_all_large_defaults(self):
        all_small = run_pattern(10, 5, [True] * 5).separator()
        assert all_small.ratio_exponent >= 2
        all_large = run_pattern(10, 5, [False] * 5).separator()
        assert all_large.ratio_exponent >= 2
        # gamma below every value when everything was large
        oracle = run_pattern(10, 5, [False] * 5)
        assert all(e.value > all_large.gamma for e in oracle.emitted)
        oracle = run_pattern(10, 5, [True] * 5)
        assert all(e.value < all_small.gamma for e in oracle.emitted)

    @pytest.mark.parametrize("k,n", [(10, 8), (10, 16), (20, 16)])
    def test_values_below_k_to_minus_four(self, k, n):
        from fractions import Fraction

        bound = Fraction(1, k**4)
        for answers in ([True] * n, [False] * n, [i % 2 == 0 for i in range(n)]):
            oracle = run_pattern(k, n, answers)
            for e in oracle.emitted:
                assert 0 < e.value < bound


class TestProtocol:
    def test_emission_before_observation_enforced(self):
        oracle = AdaptiveOracle(OracleConfig(10, 4))
        with pytest.raises(NothingToObserve):
            oracle.observe(True)
        oracle.next_value()
        with pytest.raises(ObservationPending):
            oracle.next_value()
        with pytest.raises(ObservationPending):
            oracle.separator()
        oracle.observe(True)
        oracle.separator()  # fine now

    def test_exhaustion_after_n(self):
        oracle = run_pattern(10, 3, [True, False, True])
        with pytest.raises(SequenceExhausted):
            oracle.next_value()

    def test_stop_check_halts_permanently(self):
        oracle = AdaptiveOracle(OracleConfig(10, 10))
        oracle.next_value()
        oracle.observe(False)
        assert oracle.stop_check(lambda: False) is False
        assert oracle.stop_check(lambda: True) is True
        with pytest.raises(SequenceExhausted):
            oracle.next_value()

    def test_stop_check_never_mid_emission(self):
        oracle = AdaptiveOracle(OracleConfig(10, 10))
        oracle.next_value()
        with pytest.raises(ObservationPending):
            oracle.stop_check(lambda: True)

    @given(st.lists(st.booleans(), min_size=1, max_size=10))
    @settings(max_examples=80)
    def test_determinism(self, answers):
        a = run_pattern(10, len(answers), answers)
        b = run_pattern(10, len(answers), answers)
        assert [e.exponent for e in a.emitted] == [e.exponent for e in b.emitted]

    @given(st.lists(st.booleans(), min_size=1, max_size=10))
    @settings(max_examples=80)
    def test_values_distinct_and_ordered_by_class_moves(self, answers):
        oracle = run_pattern(10, len(answers), answers)
        exps = [e.exponent for e in oracle.emitted]
        assert len(set(exps)) == len(exps)
        # after a small answer all later values are larger; after a large, smaller
        for i, e in enumerate(oracle.emitted):
            for later in oracle.emitted[i + 1 :]:
                if e.small:
                    assert later.value > e.value
                else:
                    assert later.value < e.value

    def test_offset_deepens_every_exponent(self):
        plain = AdaptiveOracle(OracleConfig(10, 4))
        deep = AdaptiveOracle(OracleConfig(10, 4, offset=1000))
        assert deep.e_lo == plain.e_lo + 1000
        assert deep.e_hi == plain.e_hi + 1000

    def test_trace_uses_power_strings(self):
        oracle = run_pattern(10, 2, [True, False])
        t = oracle.trace()
        assert t[0]["value"].startswith("10^-")
        assert t[0]["class"] == "small" and t[1]["class"] == "large"


class TestConfigBases:
    @pytest.mark.parametrize("k", [2, 3, 9, 11, 100])
    def test_bases_other_than_10_and_20_rejected_up_front(self, k):
        with pytest.raises(ValueError):
            OracleConfig(k, 4)
