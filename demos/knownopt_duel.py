"""Duel: the known-optimal-cost adversary against First Fit at M = 8.

Every branch admits an offline packing of exactly M bins (rebuilt here and
proven minimal by the exact search), so each scenario ratio is a genuine
lower-bound data point for this opponent.
"""

from packbound import knownopt
from packbound.exact import decimal_str

run = knownopt.run_full("first-fit", 8)

# census category -> bins of that shape ("s24t1": 2-4 sevenths and one
# third), plus bins7 and bins3, the bins opened in wave one and in wave two
print("after both waves the algorithm's census is:")
print(f"  {run.census}")

print("\nbranches:")
for sc in run.scenarios:
    print(f"  {sc.scenario:17s} items={sc.items_presented:2d} "
          f"alg={sc.alg_cost:2d} opt={sc.opt_cost} "
          f"ratio={sc.ratio} ({decimal_str(sc.ratio)})")

best = max(sc.ratio for sc in run.scenarios)
print(f"\nworst branch for First Fit: {best} ({decimal_str(best)})")
print("every offline packing validated and confirmed minimal by the exact search:",
      all(c.passed for sc in run.scenarios for c in sc.checks))
