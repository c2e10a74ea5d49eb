"""The package's records: NamedTuples, validating NamedTuple subclasses and
plain classes, none of them a dataclass.

The validating records (`VariantRules`, `Item`, `OracleInstance`,
`OracleConfig`) check their fields in `__new__`, with the same messages
for positional and keyword arguments.  The immutable records refuse field
assignment, equal values are equal and hash alike, and each `repr` lists
the fields by name.
"""

import ast
from fractions import Fraction as F
from pathlib import Path

import pytest

import packbound
from packbound.exact import power, rat
from packbound.mathprog import Certificate, Row
from packbound.model import Item, Placement, VariantRules, Violation
from packbound.optoracle import OracleInstance, OracleResult, min_bins
from packbound.oracle import Emission, OracleConfig, Separator
from packbound.reports import Check
from packbound.shapes import Census, Cost, StructuralRow

ONE_D = VariantRules("one-d")
THIRD = Item(3, rat("1/3"), color=1, label="third")
ROW = Row.build("lbl", {"x": 1}, ">=", 1)


def _message(build) -> str:
    with pytest.raises(ValueError) as info:
        build()
    return str(info.value)


# (positional arguments, keyword arguments, message); both forms build the same record
INVALID = {
    VariantRules: [
        (("two-d",), {"kind": "two-d"}, "unknown variant kind 'two-d'"),
        (("known-opt",), {"kind": "known-opt"}, "known-opt requires a positive advice value"),
        (("known-opt", 0), {"kind": "known-opt", "advice": 0},
         "known-opt requires a positive advice value"),
        (("one-d", 3), {"kind": "one-d", "advice": 3}, "advice is only meaningful for known-opt"),
        (("class-constrained",), {"kind": "class-constrained"},
         "class-constrained requires t >= 1"),
        (("class-constrained", None, 0), {"kind": "class-constrained", "t": 0},
         "class-constrained requires t >= 1"),
        (("squares", None, 2), {"kind": "squares", "t": 2},
         "t is only meaningful for class-constrained"),
    ],
    Item: [
        ((5, rat(0)), {"ident": 5, "size": rat(0)}, "item 5: size must lie in (0, 1]"),
        ((6, rat("3/2"), 1, "big"), {"ident": 6, "size": rat("3/2"), "color": 1, "label": "big"},
         "item 6: size must lie in (0, 1]"),
        ((7, rat(1) + power(10, 9)), {"ident": 7, "size": rat(1) + power(10, 9)},
         "item 7: size must lie in (0, 1]"),
    ],
    OracleInstance: [
        (((THIRD,), VariantRules("squares")), {"items": (THIRD,), "rules": VariantRules("squares")},
         "exact search covers one-dimensional variants only"),
        (((THIRD,), ONE_D, 0), {"items": (THIRD,), "rules": ONE_D, "node_budget": 0},
         "the node budget must be at least 1, got 0"),
    ],
    OracleConfig: [
        ((2, 4), {"k": 2, "n": 4}, "perturbation base must be 10 or 20, got 2"),
        ((10, 0), {"k": 10, "n": 0}, "n must be at least 1"),
        ((20, 3, -1), {"k": 20, "n": 3, "offset": -1}, "offset must be nonnegative"),
    ],
}


@pytest.mark.parametrize("cls, args, kwargs, message", [
    (cls, args, kwargs, message) for cls, cases in INVALID.items()
    for args, kwargs, message in cases])
def test_validating_records_keep_their_messages(cls, args, kwargs, message):
    assert _message(lambda: cls(*args)) == message
    assert _message(lambda: cls(**kwargs)) == message


def test_validating_records_accept_valid_fields():
    assert VariantRules("known-opt", advice=4).advice == 4
    assert VariantRules(kind="class-constrained", t=2).colored
    assert Item(1, rat(1)).label == ""
    assert OracleInstance((THIRD,), ONE_D).node_budget == 2_000_000
    assert OracleConfig(k=20, n=3).window_lo == 32


RESULT = min_bins(OracleInstance((Item(4, rat("1/3")), Item(5, rat("1/2"))), ONE_D))

# one instance per immutable record, built fresh on each call, with its repr
# as the record printed it while it was a dataclass: the two formats agree
IMMUTABLE = [
    (lambda: VariantRules("class-constrained", t=2),
     "VariantRules(kind='class-constrained', advice=None, t=2)"),
    (lambda: Item(3, rat("1/3"), color=1, label="third"),
     "Item(ident=3, size=Exact(1/3), color=1, label='third')"),
    (lambda: Placement(2, rat("1/4"), rat(0)), "Placement(bin_index=2, x=Exact(1/4), y=Exact(0))"),
    (lambda: Violation(1, "capacity", (3, 4), "load 4/3"),
     "Violation(bin_index=1, rule='capacity', items=(3, 4), detail='load 4/3')"),
    (lambda: OracleConfig(10, 4, offset=2), "OracleConfig(k=10, n=4, offset=2)"),
    (lambda: Emission(0, 7, power(10, 7)),
     "Emission(index=0, exponent=7, value=Exact(10^-7), small=None)"),
    (lambda: Separator(10, 3, rat("1/1000"), rat("1/10000"), rat("1/100"), 2),
     "Separator(k=10, gamma_exponent=3, gamma=Exact(1/1000), small_sup=Exact(1/10000), "
     "large_inf=Exact(1/100), ratio_exponent=2)"),
    (lambda: OracleInstance((THIRD,), ONE_D, node_budget=5),
     "OracleInstance(items=(Item(ident=3, size=Exact(1/3), color=1, label='third'),), "
     "rules=VariantRules(kind='one-d', advice=None, t=None), node_budget=5)"),
    (lambda: Check("d", False), "Check(name='d', passed=False, detail='')"),
    (lambda: Cost("units", {"b7": 1}, {"M": 1}, True),
     "Cost(label='units', pays={'b7': 1}, items={'M': 1}, forced=True, opt={'M': 1}, "
     "slack=0, rounds_up=False)"),
    (lambda: Census(("x1",), {0: (((1, 2), "x1"),)}, "tinies", (), {}, {}),
     "Census(variables=('x1',), bands={0: (((1, 2), 'x1'),)}, wave_one='tinies', rows=(), "
     "costs={}, programs={}, large_below=0)"),
    (lambda: StructuralRow("r", "census-r", {"a": 1}, ">="),
     "StructuralRow(label='r', check='census-r', terms={'a': 1}, relation='>=', total=(), "
     "defines=False)"),
    (lambda: Row.build("lbl", {"x": 1}, ">=", 1),
     "Row(label='lbl', coeffs=(('x', (Fraction(1, 1), Fraction(0, 1))),), "
     "const=(Fraction(1, 1), Fraction(0, 1)), relation='>=')"),
    (lambda: Certificate("cert", ((ROW, F(2)),), ROW),
     "Certificate(name='cert', ingredients=((Row(label='lbl', coeffs=(('x', (Fraction(1, 1), "
     "Fraction(0, 1))),), const=(Fraction(1, 1), Fraction(0, 1)), relation='>='), "
     "Fraction(2, 1)),), target=Row(label='lbl', coeffs=(('x', (Fraction(1, 1), "
     "Fraction(0, 1))),), const=(Fraction(1, 1), Fraction(0, 1)), relation='>='))"),
    (lambda: OracleResult(1, RESULT.witness, 0, True),
     f"OracleResult(count=1, witness={RESULT.witness!r}, nodes=0, proven=True)"),
]
IDS = [text[:text.index("(")] for _, text in IMMUTABLE]


@pytest.mark.parametrize("make, text", IMMUTABLE, ids=IDS)
def test_repr_lists_the_fields_by_name(make, text):
    assert repr(make()) == text


@pytest.mark.parametrize("make, text", IMMUTABLE, ids=IDS)
def test_immutable_records_refuse_assignment(make, text):
    record = make()
    field = text[text.index("(") + 1:text.index("=")]  # the first field
    with pytest.raises(AttributeError):
        setattr(record, field, getattr(record, field))
    with pytest.raises(AttributeError):
        record.extra = 1


@pytest.mark.parametrize("make, text", IMMUTABLE, ids=IDS)
def test_equal_values_are_equal_and_hash_alike(make, text):
    record, twin = make(), make()
    assert twin == record and twin is not record
    if "={" not in text:  # a dict field makes a record unhashable
        assert hash(twin) == hash(record)


def test_cost_opt_defaults_to_one_bin_per_m():
    assert Cost("units", {}, {"M": 1}, True).opt == {"M": 1}


def test_package_never_builds_a_record_around_its_checks():
    # `_make` and `_replace` build the tuple without the subclass's `__new__`,
    # so on a validating record they would skip its checks
    found = [
        f"{path.name}:{node.lineno}"
        for path in sorted(Path(packbound.__file__).parent.glob("*.py"))
        for node in ast.walk(ast.parse(path.read_text(), filename=str(path)))
        if isinstance(node, ast.Attribute) and node.attr in ("_make", "_replace")
    ]
    assert found == []
