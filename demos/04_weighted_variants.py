"""Weighted, fractional, and probabilistic coverage via implicit expansions.

Each variant reduces to plain coverage by replacing an element with unit
copies: weight-w elements become w copies, fractional coverage connects the
first alpha*U of U copies, and probabilistic coverage flips a seeded coin per
(copy, set).  The sketch constructors hash the flat id of every candidate
copy, then gather edges (and draw coins) only for the copies that the
sampling rule keeps; no copy graph of the whole expansion is built.  Kept
copies of one element that hold the same edges are one sketch element,
weighted by their number, and every solver reads the weights.
"""

import numpy as np

from coversketch import (
    HashSource,
    coverage,
    coverage_fractional,
    coverage_probabilistic,
    coverage_weighted,
    generate_planted,
    greedy_kcover,
    loads_edge_list,
    practical_params,
    sketch_fractional,
    sketch_probabilistic,
    sketch_weighted,
    theory_params,
)
from coversketch.instance import (
    FractionalInstance,
    ProbabilisticInstance,
    WeightedInstance,
)
from coversketch.sketch import probabilistic_copy_count

# --- element weights -------------------------------------------------------
base = loads_edge_list("0 0\n0 1\n1 1\n1 2\n")
winst = WeightedInstance(base, np.array([5, 1, 2]), U=5)
print("weighted coverage of {0}:", coverage_weighted(winst, [0]))

# With rho=1 and no cap the sketch is the full expansion, so greedy's value
# on it is exactly the weighted coverage.
sk = sketch_weighted(winst, practical_params(1.0, 10), HashSource(0))
sol = greedy_kcover(sk, 1)
print("greedy on the expansion picks", sol.chosen,
      "with value", sol.coverage_value,
      "== weighted coverage", coverage_weighted(winst, sol.chosen))

# --- fractional coverage ---------------------------------------------------
# Set 0 covers half of the element, set 1 three quarters (U = 4).
finst = FractionalInstance.from_edges(2, 1, [0, 1], [0, 0], [2, 3], U=4)
print("\nfractional value of both sets:", coverage_fractional(finst, [0, 1]))
skf = sketch_fractional(finst, practical_params(1.0, 4), HashSource(1))
print("expansion coverage / U:", coverage(skf, [0, 1]) / finst.U)

# --- probabilistic coverage ------------------------------------------------
# Each of two sets covers the element with probability 1/2; together they
# cover 1 - (1/2)^2 = 3/4 of it in expectation.
pinst = ProbabilisticInstance.from_edges(2, 1, [0, 1], [0, 0], [1, 1], U=2)
exact = coverage_probabilistic(pinst, [0, 1])
eps = 0.3
zeta = probabilistic_copy_count(pinst.base.n, pinst.U, eps)
skp = sketch_probabilistic(pinst, eps, practical_params(1.0, 2), HashSource(2))
estimate = coverage(skp, [0, 1]) / zeta
print(f"\nprobabilistic coverage: exact={exact}  "
      f"estimate over {zeta} copies={estimate:.4f}  "
      f"relative error={(abs(estimate - exact) / exact):.4f} (allowed {eps / 2})")

# --- theory mode on a planted base -----------------------------------------
# Weights 1-4 on a small planted instance; n_tilde is derived from the
# expansion's size, and the sketch keeps the smallest-hash copies until
# their capped edges reach it.
planted, _ = generate_planted(5, 2000, 20, 0.2, seed=3)
weights = np.random.default_rng(3).integers(1, 5, size=planted.m)
wplanted = WeightedInstance(planted, weights, U=4)
copies = int(weights.sum())
params = theory_params(planted.n, copies, int(weights @ planted.elem_degrees),
                       k=2, eps=0.9)
skt = sketch_weighted(wplanted, params, HashSource(4))
# Weights are None when no kept copies merge: every weight is one.
weight = skt.element_weight
if weight is None:
    weight = np.ones(skt.instance.m, dtype=np.int64)
kept = int(weight.sum())
print(f"\ntheory sketch of {copies} weighted copies: {skt.instance.m} "
      f"distinct copies of weight sum {kept}, whose capped edge mass "
      f"{int(weight @ skt.instance.elem_degrees)} reaches "
      f"n_tilde={params.n_tilde} (degree cap {params.degree_cap}) with "
      f"{skt.instance.edge_count} sketch edges")
