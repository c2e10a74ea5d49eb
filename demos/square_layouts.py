"""The three closed-form square layouts, with exact coordinate validation.

Coordinates are exact rationals (with factored perturbation terms), so
containment and pairwise interior-disjointness are decided without any
tolerance.
"""

from fractions import Fraction

from packbound import Item, Packing, Placement, VariantRules, power, rat, validate_packing
from packbound.squares import block_court_layout, corner_court_layout, l_strip_layout

def show(title, coords):
    packing = Packing(VariantRules("squares"))
    for item, x, y in coords:
        packing.add_item(item, Placement(0, x, y))
    assert validate_packing(packing) == []
    print(f"{title}  ({len(coords)} squares, exact-validated)")
    for item, x, y in coords:
        print(f"   side {str(item.size)[:40]:42s} at ({x}, {y})")
    print()

g = power(10, 60)
big = Item(0, rat(Fraction(3, 4)) - g)
smalls = [Item(1 + i, rat(Fraction(1, 4)) + power(10, 64 + 2 * i)) for i in range(5)]
show("corner square 3/4-g with five quarters in the L-strip:",
     [(big, rat(0), rat(0))] + l_strip_layout(smalls))

court = Item(10, rat(Fraction(3, 5)))
thirds = [Item(11 + i, rat(Fraction(1, 3)) + power(10, 80 + 2 * i)) for i in range(3)]
quarters = [Item(14 + i, rat(Fraction(1, 4)) + power(10, 90 + i)) for i in range(2)]
show("3/5 square with three thirds in the corners and two quarters between:",
     corner_court_layout(court, thirds, quarters))

four = [Item(20 + i, rat(Fraction(1, 3)) + power(10, 70 + 2 * i)) for i in range(4)]
five = [Item(24 + i, rat(Fraction(1, 4)) + power(10, 85 + i)) for i in range(5)]
show("2x2 block of four thirds plus five quarters in the L-strip:",
     block_court_layout(four, five))
