"""`report_to_json` writes what `json.dumps(indent=2, sort_keys=True)` would."""

import json

import pytest
from hypothesis import example, given, settings, strategies as st

from packbound.reports import report_to_json

# quotes, backslashes, control characters and non-ASCII (one past the BMP),
# then any code point
text = st.text(st.one_of(st.sampled_from('"\\/\b\f\n\r\t\x00\x1f\x7f é€😀'),
                         st.characters()), max_size=12)
scalars = st.one_of(text, st.integers(min_value=-2**200, max_value=2**200),
                    st.booleans(), st.none())
values = st.recursive(scalars, lambda inner: st.one_of(
    st.lists(inner, max_size=4), st.dictionaries(text, inner, max_size=4)), max_leaves=30)


class TestMatchesJsonDumps:
    @given(values)
    @settings(max_examples=400)
    @example({})
    @example([])
    @example({"b": [], "a": {}, "c": [{}, [[]]]})
    @example({"": None, "é": True, "e": False, "E": -0, "big": -10**40})
    def test_same_text_as_json_dumps(self, value):
        assert report_to_json(value) == json.dumps(value, indent=2, sort_keys=True)

    def test_keys_are_sorted_by_code_point(self):
        value = {"b": 1, "B": 2, "a": {"z": [], "Z": "\n"}, "é": None}
        assert report_to_json(value) == json.dumps(value, indent=2, sort_keys=True)
        assert report_to_json(value).index('"B"') < report_to_json(value).index('"a"')


class TestRejects:
    @pytest.mark.parametrize("value", [1.5, [0.0], {"a": {"b": float("nan")}}, (1, 2),
                                       {"a": object()}])
    def test_other_values_raise_type_error(self, value):
        with pytest.raises(TypeError):
            report_to_json(value)

    @pytest.mark.parametrize("value", [{1: "a"}, {None: 1}, {True: 1}, {"a": {2.5: 1}},
                                       {(1,): 1}])
    def test_non_str_keys_raise_type_error(self, value):
        with pytest.raises(TypeError):
            report_to_json(value)
