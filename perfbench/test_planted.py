"""Tests of the planted-optimum instance generator used by oracle-search."""

import random
import sys
from fractions import Fraction
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))
sys.path.insert(0, str(HERE.parent / "src"))

import pytest  # noqa: E402

from packbound.exact import rat  # noqa: E402
from packbound.model import (  # noqa: E402
    Packing, Placement, items_from_json, rules_from_json, validate_packing)
from planted import KINDS, STRATA, draw_instances, planted_instance, reference_nodes  # noqa: E402

ONE_EACH = (1,) * len(STRATA)


def planted_packing(instance):
    """The instance file read back by packbound, packed as planted."""
    payload = instance.to_json()
    rules = rules_from_json(payload["rules"])
    items = [item for item, _ in items_from_json(payload["items"])]
    packing = Packing(rules)
    for b, idents in enumerate(instance.planted):
        for ident in idents:
            packing.add_item(items[ident], Placement(b))
    return packing


@pytest.mark.parametrize("kind", KINDS)
def test_same_seed_same_instances(kind):
    first = [planted_instance(random.Random(7), kind).to_json() for _ in range(3)]
    again = [planted_instance(random.Random(7), kind).to_json() for _ in range(3)]
    assert first == again


def test_draw_is_deterministic_per_seed():
    easy = (2,) + (0,) * (len(STRATA) - 1)

    def drawn(seed):
        return [(name, inst.to_json()) for name, inst in draw_instances(seed, easy)]

    assert drawn(3) == drawn(3)
    assert drawn(3) != drawn(4)


@pytest.mark.parametrize("kind", KINDS)
@pytest.mark.parametrize("seed", range(5))
def test_planted_bins_are_exactly_full_and_valid(kind, seed):
    instance = planted_instance(random.Random(seed), kind)
    packing = planted_packing(instance)
    assert validate_packing(packing) == []
    for b in range(packing.cost):
        assert packing.bin_load(b) == rat(1)
        assert sum(instance.pieces[i].value for i in instance.planted[b]) == 1
    if kind == "colored":
        assert all(len(packing.bin_colors(b)) <= 2 for b in range(packing.cost))


@pytest.mark.parametrize("kind", KINDS)
@pytest.mark.parametrize("seed", range(5))
def test_planted_optimum_equals_volume_bound(kind, seed):
    instance = planted_instance(random.Random(seed), kind)
    total = sum(p.value for p in instance.pieces)
    assert total == Fraction(instance.optimum)
    assert sorted(i for b in instance.planted for i in b) == list(range(len(instance.pieces)))


def test_terms_kind_carries_factored_perturbations():
    instance = planted_instance(random.Random(1), "terms")
    for idents in instance.planted:
        signs = sorted(instance.pieces[i].sign for i in idents if instance.pieces[i].exp)
        assert signs == [-1, 1]


def test_strata_hold_their_reference_node_counts():
    for name, instance in draw_instances(0, ONE_EACH):
        stratum = int(name.split("-s")[1].split("-")[0])
        lo, hi = STRATA[stratum]
        assert lo <= reference_nodes(instance, hi) < hi
