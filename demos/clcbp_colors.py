"""Class-constrained duel at t = 3: colors steer the construction.

Tiny items all get fresh colors; the wave of thirds reuses only colors the
algorithm left in short bins, two thirds per color, and the finals match
thirds by color with items too large to share their bins.
"""

from packbound import clcbp
from packbound.exact import decimal_str

run = clcbp.run_full("ccff", 3, 12)

c = run.census
per_count = {j: c[f"x{j}"] for j in range(1, run.t + 1)}
print(f"tiny wave: {sum(per_count.values())} bins "
      f"({', '.join(f'{n} with {j} items' for j, n in per_count.items() if n)})")
print(f"closed-form ratio bounds from the tiny wave alone:")
for name, value in run.closed_form.items():
    print(f"  {name}: {value} ({decimal_str(value)})")

print(f"\nthirds wave: {len(run.waves['thirds'].items)} items, "
      f"{c['z1']} bins with thirds, {c['z2']} with a pair")
if run.ledger:
    print(f"color ledger: {run.ledger}")

print("\nbranches:")
for sc in run.scenarios:
    print(f"  {sc.scenario:17s} items={sc.items_presented:2d} "
          f"alg={sc.alg_cost:2d} opt<= {sc.opt_upper:2d} "
          f"ratio >= {sc.ratio} ({decimal_str(sc.ratio)})")
