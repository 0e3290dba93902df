"""Set cover with outliers, checked against exhaustive oracles.

The solver guesses the optimum size along a geometric ladder and runs
budgeted greedy per guess until a (1 - lambda) fraction of elements is
covered.  Brute-force oracles verify both the k-cover guarantee and the
partial-cover bound on desk-scale inputs.
"""

import math

from coversketch import (
    brute_force_kcover,
    brute_force_set_cover,
    coverage,
    generate_planted,
    greedy_kcover,
    lazy_greedy,
    set_cover_outliers,
    stochastic_greedy,
)

inst, planted = generate_planted(k=5, m=200, k_prime=10, eps=0.2, seed=4)
print("instance:", inst, "planted optimum size:", len(planted))

lam, eps = 0.01, 0.2
sol = set_cover_outliers(inst, lam, eps, seed=0, engine="direct")
print(f"\ncovering {100 * (1 - lam):.0f}% of elements took",
      len(sol.chosen), "sets")
print("true coverage:", coverage(inst, sol.chosen), "of", inst.m)
bound = (1 + eps) * math.log(1 / lam) * len(planted)
print(f"guaranteed bound (1+eps) ln(1/lambda) OPT = {bound:.1f}")

exact = brute_force_set_cover(inst, lam, budget=10_000_000)
print("exhaustive optimum:", len(exact.chosen), "sets")

# The greedy family agrees with itself and stays within (1 - 1/e) of the
# exhaustive optimum for k-cover.
k = 4
g = greedy_kcover(inst, k)
l = lazy_greedy(inst, k)
s = stochastic_greedy(inst, k, eps=0.1, seed=3)
b = brute_force_kcover(inst, k)
print("\nk-cover values: greedy", g.coverage_value,
      "| lazy", l.coverage_value,
      "| stochastic", s.coverage_value,
      "| optimum", b.coverage_value)
print("lazy equals greedy pick for pick:", l.chosen == g.chosen)
print("both computed", g.evaluations, "gains from scratch (one per set);",
      "each pick then only decrements the gains it changes")
print("greedy / optimum =", g.coverage_value / b.coverage_value,
      ">= 1 - 1/e =", 1 - 1 / math.e)
