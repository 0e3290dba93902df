"""Greedy-family solvers for k-cover and partial set cover, plus exact oracles.

All solvers run uniformly on a :class:`~coversketch.instance.CoverageInstance`
or a :class:`~coversketch.sketch.Sketch`.  Tie-breaking is globally "smallest
set id" so sketch-vs-instance comparisons are bit-exact.  Every greedy-family
solver reads marginal gains from one maintained array, which the ``take`` of
:func:`_engine` updates after each pick.  On a sketch with element weights (a
variant sketch, whose elements stand for several copies) every solver counts
an element by its weight, so gains, coverage and picks equal those on the
sketch of the unit copies.  The same engine also runs on a sketch given
as runs over its parent instance, (element, capped degree) pairs, without
building the sketch: the simulator's round 4 and the outlier ladder's sketch
engine solve that way, with picks, gains and coverage equal to greedy on the
built sketch.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass

import numpy as np

from .instance import (
    CoverageInstance,
    FractionalInstance,
    ProbabilisticInstance,
    WeightedInstance,
    _decimal,
    _gather_positions,
)
from .sketch import (
    HashSource,
    Sketch,
    _selection,
    derive_seed,
    theory_params,
)

__all__ = [
    "InfeasibleError",
    "BudgetExceededError",
    "Solution",
    "coverage",
    "coverage_weighted",
    "coverage_fractional",
    "coverage_probabilistic",
    "greedy_kcover",
    "lazy_greedy",
    "stochastic_greedy",
    "guess_ladder",
    "guess_families",
    "cover_threshold",
    "set_cover_outliers",
    "select_outlier_solution",
    "brute_force_kcover",
    "brute_force_set_cover",
]


class InfeasibleError(RuntimeError):
    """The requested coverage level cannot be met even with every set."""


class BudgetExceededError(RuntimeError):
    """An exhaustive search would exceed its evaluation budget."""


@dataclass
class Solution:
    """Ordered choice of set ids with the coverage value it achieves.

    ``evaluated_on`` records whether the value was measured on a full
    instance or on a sketch.  ``gains`` is the per-pick marginal-gain trace
    for greedy-family solvers.  ``evaluations`` is set by the k-cover greedy
    (:func:`greedy_kcover`, :func:`lazy_greedy`, and
    :func:`stochastic_greedy` when its sample spans all sets) to the number
    of marginal gains it computes from scratch, ``n``; after that, gains are
    only decremented.
    """

    chosen: list[int]
    coverage_value: float
    evaluated_on: str
    gains: list[int] | None = None
    evaluations: int | None = None


def _unwrap(target) -> tuple[CoverageInstance, str, np.ndarray | None]:
    """The instance, its tag, and the element weights (None: all 1)."""
    if isinstance(target, Sketch):
        return target.instance, "sketch", target.element_weight
    if isinstance(target, CoverageInstance):
        return target, "instance", None
    raise TypeError("target must be a CoverageInstance or a Sketch")


def _mass(inst: CoverageInstance, weight) -> int:
    """Total element weight: what covering every element is worth."""
    return inst.m if weight is None else int(weight.sum())


def _check_ids(n: int, chosen) -> list[int]:
    """The distinct ids of ``chosen`` in first-occurrence order; each must
    be a Python or numpy integer in ``[0, n)``."""
    ids = []
    for s in chosen:
        if isinstance(s, bool) or not isinstance(s, (int, np.integer)):
            raise ValueError(f"set id {s!r} is not an integer")
        if not 0 <= s < n:
            raise ValueError(f"set id {s} out of range")
        ids.append(int(s))
    return list(dict.fromkeys(ids))


def _covered(inst: CoverageInstance, chosen) -> np.ndarray:
    """Mask of the elements of ``inst`` that the chosen sets cover."""
    covered = np.zeros(inst.m, dtype=bool)
    for s in _check_ids(inst.n, chosen):
        covered[inst.set_elements(s)] = True
    return covered


def coverage(target, chosen) -> int:
    """Exact union size of the chosen sets, via marking; on a sketch with
    element weights, the total weight of the union."""
    inst, _, weight = _unwrap(target)
    covered = _covered(inst, chosen)
    return int(covered.sum() if weight is None else weight[covered].sum())


def coverage_weighted(winst: WeightedInstance, chosen) -> int:
    """Total weight of covered elements."""
    return int(winst.element_weight[_covered(winst.base, chosen)].sum())


def coverage_fractional(finst: FractionalInstance, chosen) -> float:
    """Sum over elements of the best fraction any chosen set provides."""
    base = finst.base
    ids = _check_ids(base.n, chosen)
    best = np.zeros(base.m, dtype=np.int64)
    for s in ids:
        lo, hi = base.set_indptr[s], base.set_indptr[s + 1]
        np.maximum.at(best, base.set_elems[lo:hi], finst.numer_set_order[lo:hi])
    return float(best.sum()) / finst.U


def coverage_probabilistic(pinst: ProbabilisticInstance, chosen) -> float:
    """Expected covered mass: sum over elements of 1 - prod(1 - alpha)."""
    base = pinst.base
    ids = _check_ids(base.n, chosen)
    miss = np.ones(base.m, dtype=np.float64)
    for s in ids:
        lo, hi = base.set_indptr[s], base.set_indptr[s + 1]
        np.multiply.at(miss, base.set_elems[lo:hi],
                       1.0 - pinst.numer_set_order[lo:hi] / pinst.U)
    return float((1.0 - miss).sum())


# ---------------------------------------------------------------------------
# Greedy family
# ---------------------------------------------------------------------------


def _engine(inst: CoverageInstance, runs=None, weight=None):
    """Greedy's maintained marginal gains and the ``take`` that picks a set.

    ``take(s)`` picks set ``s``: it marks the fresh elements of ``s``
    covered, subtracts them from the gain of every set holding them, and
    returns the gain ``s`` had before the pick.  Chosen sets keep gain -1
    (their elements are covered, so no later pick touches them).  Gains are
    maintained exactly, so that gain is the number of newly covered
    elements, or with ``weight`` their total weight.  The instance is read
    once here; ``take`` reads only these locals.

    With ``runs = (selected, counts)``, greedy runs on the sketch whose
    elements are ``selected`` of ``inst``, each with its first ``counts``
    sets, without building that sketch.  ``limit[e]`` is the kept count of
    element ``e`` (0 outside the runs) and ``cut[e]`` the first set id its
    run leaves out (``n`` when it keeps them all); runs hold ascending set
    ids, so set ``s`` keeps ``e`` iff ``s < cut[e]``.  Without runs, greedy
    runs on ``inst``: the limit is the degree, and there is no cut.  Runs
    that carry every edge of ``inst`` are ``inst`` up to element order, so
    they take that path too.

    With element ``weight`` (and no runs), a set's gain is the total weight
    of its elements, and ``edge_weight`` holds the weight of each edge's
    element in element order.  Both are floats: sums of integers below
    2**53 are exact in float64, so gains stay exact integers.
    """
    n = inst.n
    set_indptr, set_elems = inst.set_indptr, inst.set_elems
    elem_indptr, elem_set_ids = inst.elem_indptr, inst.elem_set_ids
    limit, cut, edge_weight = inst.elem_degrees, None, None
    if weight is not None:
        if _mass(inst, weight) >= 2**53:
            raise ValueError("element weights must sum to less than 2**53")
        edge_weight = np.repeat(weight.astype(np.float64), limit)
        gains = np.bincount(elem_set_ids, weights=edge_weight, minlength=n)
    elif runs is None or int(runs[1].sum()) == inst.edge_count:
        gains = inst.set_sizes.astype(np.int64)
    else:
        selected, counts = runs
        limit = np.zeros(inst.m, dtype=np.int64)
        limit[selected] = counts
        cut = np.full(inst.m, n, dtype=np.int64)
        short = np.flatnonzero(limit < inst.elem_degrees)
        cut[short] = elem_set_ids[elem_indptr[short] + limit[short]]
        kept = elem_set_ids[_gather_positions(elem_indptr, selected, counts)]
        gains = np.bincount(kept, minlength=n).astype(np.int64)
    covered = np.zeros(inst.m, dtype=bool)

    def take(s: int) -> int:
        gain = gains[s]
        elems = set_elems[set_indptr[s]:set_indptr[s + 1]]
        fresh = ~covered[elems]
        if cut is not None:
            fresh &= s < cut[elems]
        fresh = elems[fresh]
        covered[fresh] = True
        if len(fresh):
            # The kept sets of every fresh element in one gather.
            pos = _gather_positions(elem_indptr, fresh, limit[fresh])
            np.subtract(gains, np.bincount(
                elem_set_ids[pos],
                None if edge_weight is None else edge_weight[pos],
                minlength=n), out=gains)
        gains[s] = -1
        return int(gain)

    return gains, take


def _greedy_run(inst: CoverageInstance, max_picks: int,
                stop_threshold: int | None = None, fill_zero: bool = False,
                runs=None, weight=None):
    """Shared greedy loop, on ``inst`` (with element ``weight``) or on the
    sketch ``runs`` over it (see :func:`_engine`).

    Picks the set with the largest marginal coverage, smallest id on ties.
    With ``fill_zero`` the loop keeps picking (zero-gain, id order) until
    ``max_picks`` sets are chosen; otherwise it stops at zero gain or once
    ``stop_threshold`` of covered weight is reached.
    """
    gains, take = _engine(inst, runs, weight)
    chosen: list[int] = []
    trace: list[int] = []
    cov = 0
    while len(chosen) < max_picks:
        if stop_threshold is not None and cov >= stop_threshold:
            break
        s = int(gains.argmax())
        if gains[s] <= 0:
            if not fill_zero:
                break
            # Exhausted gains: remaining picks are id-order fillers.
            for t in np.flatnonzero(gains == 0):
                if len(chosen) >= max_picks:
                    break
                chosen.append(int(t))
                trace.append(0)
            break
        g = take(s)
        cov += g
        chosen.append(s)
        trace.append(g)
    return chosen, trace, cov


def _kcover(inst: CoverageInstance, tag: str, k: int, runs=None,
            weight=None) -> Solution:
    """:func:`greedy_kcover` on ``inst`` with element ``weight``, or on the
    sketch ``runs`` over it (see :func:`_engine`); ``tag`` is what the
    solution was evaluated on."""
    if not 0 <= k <= inst.n:
        raise ValueError("need 0 <= k <= n")
    chosen, trace, cov = _greedy_run(inst, k, fill_zero=True, runs=runs,
                                     weight=weight)
    return Solution(chosen=chosen, coverage_value=cov, evaluated_on=tag,
                    gains=trace, evaluations=inst.n)


def greedy_kcover(target, k: int) -> Solution:
    """Standard greedy for max k-cover; guarantees (1 - 1/e) of the optimum.

    Runs ``k`` picks; once marginal gains hit zero the remaining slots are
    filled with the smallest-id unchosen sets.
    """
    inst, tag, weight = _unwrap(target)
    return _kcover(inst, tag, k, weight=weight)


def lazy_greedy(target, k: int) -> Solution:
    """The k-cover greedy under its accelerated-greedy name.

    Runs the same engine as :func:`greedy_kcover` and returns an equal
    solution.  Lazy evaluation (Minoux 1978) saves nothing here: the engine
    already keeps every marginal gain exact with one vectorised update per
    pick.
    """
    inst, tag, weight = _unwrap(target)
    return _kcover(inst, tag, k, weight=weight)


def _stochastic(inst: CoverageInstance, tag: str, k: int, eps: float,
                seed: int, runs=None, weight=None) -> Solution:
    """:func:`stochastic_greedy` on ``inst`` with element ``weight``, or on
    the sketch ``runs`` over it (see :func:`_engine`)."""
    if not 0.0 < eps < 1.0:
        raise ValueError("eps must lie in (0, 1)")
    if not 1 <= k <= inst.n:
        raise ValueError("need 1 <= k <= n")
    sample = math.ceil((inst.n / k) * math.log(1.0 / eps))
    if sample >= inst.n:
        return _kcover(inst, tag, k, runs, weight)
    rng = np.random.default_rng(seed)
    gains, take = _engine(inst, runs, weight)
    chosen: list[int] = []
    trace: list[int] = []
    cov = 0
    for _ in range(k):
        draws = rng.integers(0, inst.n, size=sample)
        g = gains[draws]
        best = g.max()
        if best < 0:  # every draw is already chosen
            continue
        s = int(draws[g == best].min())
        gain = take(s)
        trace.append(gain)
        chosen.append(s)
        cov += gain
    return Solution(chosen=chosen, coverage_value=cov, evaluated_on=tag,
                    gains=trace)


def stochastic_greedy(target, k: int, eps: float, seed: int) -> Solution:
    """Greedy over a random candidate sample per pick.

    Each of ``k`` picks samples ``ceil((n/k) ln(1/eps))`` candidate sets
    uniformly with replacement and takes the best marginal gain among the
    unchosen ones (ties by id).  A pick whose sample holds only chosen sets
    is skipped, so the solution can have fewer than ``k`` sets.  When the
    sample size reaches ``n`` the sampling degrades to a full scan and the
    result equals :func:`greedy_kcover`.  Deterministic in ``seed``.
    """
    inst, tag, weight = _unwrap(target)
    return _stochastic(inst, tag, k, eps, seed, weight=weight)


# ---------------------------------------------------------------------------
# Set cover with outliers
# ---------------------------------------------------------------------------


def cover_threshold(m: int, lam: float) -> int:
    """Smallest integer coverage that reaches a (1 - lam) fraction of m.

    ``lam`` is read as the decimal it prints as, so the ceiling is exact:
    0.7 of 56,000,000 leaves 16,800,000, not 16,800,001.
    """
    return math.ceil((1 - _decimal(lam, "lam")) * m)


# Longest guess ladder built; eps = 0.05 needs fewer than 500 steps.
_MAX_LADDER_STEPS = 10_000


def guess_ladder(n: int, eps: float) -> list[int]:
    """Geometric guesses ceil((1+eps/3)^i) capped at n, deduplicated.

    Raises ValueError before looping when the ladder would take more than
    ``_MAX_LADDER_STEPS`` steps, ``ceil(ln n / ln(1 + eps/3))``.
    """
    if not 0.0 < eps < 1.0:
        raise ValueError("eps must lie in (0, 1)")
    try:
        steps = math.ceil(math.log(max(n, 1)) / math.log1p(eps / 3.0))
    except (ZeroDivisionError, OverflowError):  # eps / 3 is 0 or tiny
        steps = math.inf
    if steps > _MAX_LADDER_STEPS:
        raise ValueError(
            f"guess ladder for n={n}, eps={eps} needs more than "
            f"{_MAX_LADDER_STEPS} steps; increase eps")
    vals: list[int] = []
    i = 0
    while True:
        g = math.ceil((1.0 + eps / 3.0) ** i)
        if g >= n:
            break
        if not vals or g != vals[-1]:
            vals.append(g)
        i += 1
    vals.append(n)
    return vals


def guess_families(instance: CoverageInstance, eps: float,
                   delta_dprime: float, seed: int) -> list:
    """(guess, HashSource, theory SketchParams) for each rung of the ladder.

    Guess ``i`` hashes with its own family, seeded ``derive_seed(seed, i)``.
    """
    return [(g, HashSource(derive_seed(seed, i)),
             theory_params(instance.n, instance.m, instance.edge_count, k=g,
                           eps=eps, delta_dprime=delta_dprime))
            for i, g in enumerate(guess_ladder(instance.n, eps))]


def _guess_budget(guess: int, eps: float, lam: float) -> int:
    return math.ceil(guess * (1.0 + eps) * math.log(1.0 / lam))


def select_outlier_solution(sketches, lam: float, eps: float) -> Solution:
    """Partial-cover selection over per-guess sketches.

    ``sketches`` is any iterable of (guess, sketch) pairs in ascending guess
    order.  Per guess, greedy runs until its budget of
    ``ceil(g (1+eps) ln(1/lam))`` picks or a (1 - lam) fraction of the
    sketch's elements is covered; the first guess to reach the threshold
    wins, and no pair after it is consumed, so a generator can build each
    sketch when the walk reaches it.
    """
    for guess, sk in sketches:
        inst, _, weight = _unwrap(sk)
        thresh = cover_threshold(_mass(inst, weight), lam)
        budget = _guess_budget(guess, eps, lam)
        chosen, trace, cov = _greedy_run(inst, budget, stop_threshold=thresh,
                                         weight=weight)
        if cov >= thresh:
            return Solution(chosen=chosen, coverage_value=cov,
                            evaluated_on="sketch", gains=trace)
    raise InfeasibleError("infeasible outlier fraction")


def _walk_ladder(instance: CoverageInstance, guesses, lam: float,
                 eps: float) -> Solution:
    """:func:`select_outlier_solution` over per-guess sketches of
    ``instance`` given as runs, solved on the runs without building the
    sketches.

    ``guesses`` yields (guess, selected, counts) in ascending guess order:
    the elements the guess's sketch keeps, in any order, with their capped
    degrees.  Greedy picks, gains and coverage do not depend on element
    order, so each guess runs the greedy engine on its runs (see
    :func:`_engine`).  A guess is clamped when ``counts`` carries every edge
    of the instance, which needs a cap at least the largest degree.  Its
    sketch is then ``instance`` up to element order and empty elements, so
    clamped guesses with the same threshold share one threshold-stopped run
    on ``instance``, and each guess's budgeted run is its first ``budget``
    picks.  The threshold comes from ``len(selected)``: when the edge count
    meets ``n_tilde`` exactly, the zero-degree elements hashing after the
    cut are not in the sketch.
    """
    runs: dict[int, tuple] = {}     # by threshold
    for guess, selected, counts in guesses:
        thresh = cover_threshold(len(selected), lam)
        budget = _guess_budget(guess, eps, lam)
        if counts.sum() == instance.edge_count:
            if thresh not in runs:
                runs[thresh] = _greedy_run(instance, instance.n,
                                           stop_threshold=thresh)
            chosen, trace, _ = runs[thresh]
            chosen, trace = chosen[:budget], trace[:budget]
            cov = sum(trace)
        else:
            chosen, trace, cov = _greedy_run(instance, budget,
                                             stop_threshold=thresh,
                                             runs=(selected, counts))
        if cov >= thresh:
            return Solution(chosen=chosen, coverage_value=cov,
                            evaluated_on="sketch", gains=trace)
    raise InfeasibleError("infeasible outlier fraction")


def set_cover_outliers(instance: CoverageInstance, lam: float, eps: float,
                       delta_dprime: float = 0.5, seed: int = 0,
                       engine: str = "direct") -> Solution:
    """Cover at least a (1 - lam) fraction of elements with few sets.

    Walks the geometric guess ladder over the optimum size; for each guess
    runs budgeted greedy either directly on the instance or on a per-guess
    sketch (independent hash family per guess), hashed only for the guesses
    the walk reaches.  Returns the solution of the smallest successful guess,
    which has size at most ``(1+eps) ln(1/lam) OPT`` with the usual
    high-probability guarantee.

    The sketch engine runs greedy on a reached guess's runs over the
    instance and never builds its sketch.  When theory mode clamps
    ``n_tilde`` to the edge count and the guess's degree cap is at least
    the largest degree, the sketch is the instance up to element order, and
    such guesses share one greedy run per threshold, as the direct engine
    does.
    """
    if not 0.0 < lam < 1.0:
        raise ValueError("lam must lie in (0, 1)")
    if not 0.0 < eps < 1.0:
        raise ValueError("eps must lie in (0, 1)")
    if engine not in ("direct", "sketch"):
        raise ValueError("engine must be 'direct' or 'sketch'")
    n, m = instance.n, instance.m
    if engine == "sketch":
        degrees = instance.elem_degrees
        guesses = ((g, *_selection(degrees, params, source))
                   for g, source, params in guess_families(instance, eps,
                                                           delta_dprime, seed))
        return _walk_ladder(instance, guesses, lam, eps)

    # Direct engine: the greedy pick sequence is deterministic, so every
    # guess's budgeted run is a prefix of one run stopped at the threshold.
    # The first guess whose budget reaches that run returns it, and when no
    # budget does (only for lam > 1/e) the run is returned as well.
    thresh = cover_threshold(m, lam)
    chosen, trace, cov = _greedy_run(instance, n, stop_threshold=thresh)
    if cov < thresh:
        raise InfeasibleError("infeasible outlier fraction")
    return Solution(chosen=chosen, coverage_value=cov, evaluated_on="instance",
                    gains=trace)


# ---------------------------------------------------------------------------
# Exact oracles
# ---------------------------------------------------------------------------


def _set_bitmasks(inst: CoverageInstance, weight) -> list[int]:
    """One int per set with ``weight[e]`` bits for each of its elements
    ``e`` (one bit when ``weight`` is None), each element on its own bits:
    the bit count of a union of masks is its weighted coverage."""
    if weight is None:
        bits = [1 << e for e in range(inst.m)]
    else:
        ends = np.cumsum(weight).tolist()
        bits = [((1 << w) - 1) << (end - w)
                for w, end in zip(weight.tolist(), ends)]
    masks = []
    for s in range(inst.n):
        mask = 0
        for e in inst.set_elements(s).tolist():
            mask |= bits[e]
        masks.append(mask)
    return masks


def brute_force_kcover(target, k: int, budget: int = 10_000_000) -> Solution:
    """Exact optimum by exhaustive enumeration.

    Returns the lexicographically smallest optimal choice.  Raises
    :class:`BudgetExceededError` when C(n, k) exceeds ``budget``.
    """
    inst, tag, weight = _unwrap(target)
    if not 0 <= k <= inst.n:
        raise ValueError("need 0 <= k <= n")
    if math.comb(inst.n, k) > budget:
        raise BudgetExceededError(
            f"C({inst.n},{k}) combinations exceed the budget of {budget}")
    masks = _set_bitmasks(inst, weight)
    best_value = -1
    best: tuple[int, ...] = ()
    for combo in itertools.combinations(range(inst.n), k):
        union = 0
        for s in combo:
            union |= masks[s]
        value = union.bit_count()
        if value > best_value:
            best_value = value
            best = combo
    return Solution(chosen=list(best), coverage_value=best_value,
                    evaluated_on=tag)


def brute_force_set_cover(target, lam: float,
                          budget: int = 10_000_000) -> Solution:
    """Minimum-cardinality family covering a (1 - lam) fraction, exactly.

    Searches subsets in increasing size (lexicographic within a size), so the
    result is the lexicographically smallest minimum solution.
    """
    inst, tag, weight = _unwrap(target)
    if not 0.0 <= lam < 1.0:
        raise ValueError("lam must lie in [0, 1)")
    thresh = cover_threshold(_mass(inst, weight), lam)
    masks = _set_bitmasks(inst, weight)
    full = 0
    for mask in masks:
        full |= mask
    if full.bit_count() < thresh:
        raise InfeasibleError("infeasible outlier fraction")
    spent = 0
    for size in range(inst.n + 1):
        spent += math.comb(inst.n, size)
        if spent > budget:
            raise BudgetExceededError(
                f"enumeration through size {size} exceeds the budget of {budget}")
        for combo in itertools.combinations(range(inst.n), size):
            union = 0
            for s in combo:
                union |= masks[s]
            if union.bit_count() >= thresh:
                return Solution(chosen=list(combo),
                                coverage_value=union.bit_count(),
                                evaluated_on=tag)
    raise InfeasibleError("infeasible outlier fraction")
