import itertools
import math
from unittest import mock

import numpy as np
import pytest
from hypothesis import assume, given, settings, strategies as st

from coversketch import (
    BudgetExceededError,
    CoverageInstance,
    HashSource,
    InfeasibleError,
    brute_force_kcover,
    brute_force_set_cover,
    build_sketch,
    coverage,
    coverage_fractional,
    coverage_probabilistic,
    coverage_weighted,
    generate_adversarial,
    generate_planted,
    greedy_kcover,
    lazy_greedy,
    loads_edge_list,
    practical_params,
    set_cover_outliers,
    stochastic_greedy,
)
from coversketch.instance import FractionalInstance, WeightedInstance, \
    ProbabilisticInstance
from coversketch.sketch import SketchParams, _selection
from coversketch import solvers as solvers_module
from coversketch.solvers import _engine, _greedy_run, _stochastic, \
    cover_threshold, guess_ladder

import distsim_reference
from conftest import decimals, random_instance

# S0 = {a,b,c}, S1 = {c,d}, S2 = {d,e} with elements a..e as 0..4.
THREE_SETS = "0 0\n0 1\n0 2\n1 2\n1 3\n2 3\n2 4\n"


class TestCoverage:
    def test_empty_union(self):
        assert coverage(loads_edge_list(THREE_SETS), []) == 0

    def test_hand_union(self):
        inst = loads_edge_list("0 0\n0 1\n0 2\n1 2\n1 3\n")
        assert coverage(inst, [0, 1]) == 4

    def test_all_planted_sets_cover_everything(self):
        inst, planted = generate_planted(5, 60, 10, 0.2, seed=0)
        assert coverage(inst, list(range(inst.n))) == 60
        assert coverage(inst, planted) == 60

    def test_invalid_id(self):
        with pytest.raises(ValueError):
            coverage(loads_edge_list(THREE_SETS), [3])

    def test_duplicates_union_semantics(self):
        inst = loads_edge_list(THREE_SETS)
        assert coverage(inst, [0, 0]) == coverage(inst, [0])


class TestWeightedCoverage:
    def test_weighted_sum(self):
        inst = loads_edge_list("0 0\n1 1\n")
        winst = WeightedInstance(inst, np.array([2, 3]), 3)
        assert coverage_weighted(winst, [0, 1]) == 5
        assert coverage_weighted(winst, [0]) == 2

    def test_fractional_takes_max_not_sum(self):
        finst = FractionalInstance.from_edges(2, 1, [0, 1], [0, 0], [1, 3], 4)
        assert coverage_fractional(finst, [0, 1]) == 0.75

    def test_probabilistic_closed_form(self):
        pinst = ProbabilisticInstance.from_edges(2, 1, [0, 1], [0, 0],
                                                 [1, 1], 2)
        assert coverage_probabilistic(pinst, [0, 1]) == pytest.approx(0.75)
        assert coverage_probabilistic(pinst, [0]) == pytest.approx(0.5)


# One edge (set 0, element 0) with numerator 1 of U = 2, under each
# coverage function.
ONE_EDGE_CASES = [
    pytest.param(coverage, lambda: loads_edge_list("0 0\n0 1\n"),
                 id="coverage"),
    pytest.param(coverage_weighted, lambda: WeightedInstance(
        loads_edge_list("0 0\n"), np.array([2]), 2), id="weighted"),
    pytest.param(coverage_fractional, lambda: FractionalInstance.from_edges(
        1, 2, [0], [0], [1], 2), id="fractional"),
    pytest.param(coverage_probabilistic,
                 lambda: ProbabilisticInstance.from_edges(
                     1, 2, [0], [0], [1], 2), id="probabilistic"),
]


class TestChosenIds:
    @pytest.mark.parametrize("score, make", ONE_EDGE_CASES)
    def test_repeated_id_counts_once(self, score, make):
        target = make()
        once = score(target, [0])
        assert score(target, [0, 0]) == once
        assert score(target, [np.int64(0), np.uint8(0)]) == once
        assert score(target, np.zeros(2, dtype=np.int32)) == once

    @pytest.mark.parametrize("score, make", ONE_EDGE_CASES)
    @pytest.mark.parametrize("bad", [0.7, 0.0, np.float64(0.0), "0", True,
                                     None], ids=repr)
    def test_non_integer_id_is_named(self, score, make, bad):
        with pytest.raises(ValueError, match="is not an integer") as info:
            score(make(), [0, bad])
        assert repr(bad) in str(info.value)

    def test_repeats_keep_the_first_order(self):
        # The misses of element 0 multiply in first-occurrence order, so a
        # repeat leaves the float result bit for bit.
        pinst = ProbabilisticInstance.from_edges(3, 1, [0, 1, 2], [0, 0, 0],
                                                 [1, 2, 3], 7)
        for chosen in itertools.permutations(range(3)):
            miss = 1.0
            for s in chosen:
                miss *= 1.0 - (s + 1) / 7
            assert coverage_probabilistic(pinst, chosen) == 1.0 - miss
            assert coverage_probabilistic(pinst, chosen * 2) == 1.0 - miss


class TestGreedy:
    def test_k_zero(self):
        sol = greedy_kcover(loads_edge_list(THREE_SETS), 0)
        assert sol.chosen == [] and sol.coverage_value == 0

    def test_three_sets_matches_brute_force(self):
        inst = loads_edge_list(THREE_SETS)
        sol = greedy_kcover(inst, 2)
        best = brute_force_kcover(inst, 2)
        assert sol.coverage_value == best.coverage_value == 5
        assert sol.chosen == best.chosen == [0, 2]

    def test_adversarial_picks_bonus_sets(self):
        inst = generate_adversarial(10, 2, 2.0)
        sol = greedy_kcover(inst, 2)
        assert sol.chosen == [8, 9] and sol.coverage_value == 30

    def test_k_equals_n_chooses_all(self):
        inst = loads_edge_list(THREE_SETS)
        sol = greedy_kcover(inst, 3)
        assert sorted(sol.chosen) == [0, 1, 2]
        assert sol.coverage_value == 5

    def test_zero_gain_fillers_by_id(self):
        # One set covers everything; remaining picks are id-order fillers.
        inst = loads_edge_list("2 0\n2 1\n0 0\n1 1\n")
        sol = greedy_kcover(inst, 3)
        assert sol.chosen == [2, 0, 1]
        assert sol.gains == [2, 0, 0]

    def test_marginal_gains_non_increasing(self):
        for seed in range(30):
            inst = random_instance(seed)
            sol = greedy_kcover(inst, min(4, inst.n))
            assert sol.gains == sorted(sol.gains, reverse=True)

    def test_guarantee_against_brute_force(self):
        for seed in range(60):
            inst = random_instance(seed)
            k = min(3, inst.n)
            g = greedy_kcover(inst, k).coverage_value
            b = brute_force_kcover(inst, k).coverage_value
            assert g >= (1 - 1 / math.e) * b

    def test_value_is_fresh_coverage(self):
        for seed in range(10):
            inst = random_instance(seed)
            sol = greedy_kcover(inst, 3)
            assert sol.coverage_value == coverage(inst, sol.chosen)

    def test_duplicated_sets_leave_value_unchanged(self):
        for seed in range(10):
            inst = random_instance(seed)
            set_ids, elem_ids = inst.edges()
            doubled = CoverageInstance.from_edges(
                2 * inst.n, inst.m,
                np.concatenate([set_ids, set_ids + inst.n]),
                np.concatenate([elem_ids, elem_ids]))
            k = min(3, inst.n)
            assert greedy_kcover(doubled, k).coverage_value == \
                greedy_kcover(inst, k).coverage_value


class TestLazyGreedy:
    def test_identical_to_greedy_fuzz(self):
        for seed in range(1000):
            inst = random_instance(seed, max_n=10, max_m=20)
            k = (seed % inst.n) + 1
            a = greedy_kcover(inst, k)
            b = lazy_greedy(inst, k)
            assert a.chosen == b.chosen
            assert a.coverage_value == b.coverage_value

    def test_k_equals_n(self):
        inst = loads_edge_list(THREE_SETS)
        assert sorted(lazy_greedy(inst, 3).chosen) == [0, 1, 2]

    def test_saves_evaluations_on_planted(self):
        inst, _ = generate_planted(20, 2000, 500, 0.2, seed=1)
        k = 20
        sol = lazy_greedy(inst, k)
        assert sol.evaluations < inst.n * k
        assert sol.chosen == greedy_kcover(inst, k).chosen


class TestStochasticGreedy:
    def test_degenerate_sample_equals_greedy(self):
        inst = loads_edge_list(THREE_SETS)
        # n=3, k=2, eps=0.1: sample = ceil(1.5 ln 10) = 4 >= n, full scan.
        sol = stochastic_greedy(inst, 2, 0.1, seed=0)
        assert sol.chosen == greedy_kcover(inst, 2).chosen

    def test_reproducible_in_seed(self):
        inst = random_instance(3, max_n=12, max_m=25)
        a = stochastic_greedy(inst, 3, 0.5, seed=11)
        b = stochastic_greedy(inst, 3, 0.5, seed=11)
        assert a.chosen == b.chosen
        assert a.coverage_value in range(0, inst.m + 1)

    def test_expected_quality_on_three_sets(self):
        inst = loads_edge_list(THREE_SETS)
        vals = [stochastic_greedy(inst, 2, 0.1, seed=s).coverage_value
                for s in range(100)]
        assert np.mean(vals) >= (1 - 1 / math.e - 0.1) * 5

    def test_no_duplicate_choices(self):
        for seed in range(50):
            inst = random_instance(seed, max_n=8, max_m=15)
            sol = stochastic_greedy(inst, inst.n, 0.4, seed=seed)
            assert len(sol.chosen) == len(set(sol.chosen))

    def test_eps_bounds(self):
        inst = loads_edge_list(THREE_SETS)
        with pytest.raises(ValueError):
            stochastic_greedy(inst, 1, 1.0, seed=0)


class TestGuessLadder:
    def test_starts_at_one_ends_at_n(self):
        ladder = guess_ladder(50, 0.2)
        assert ladder[0] == 1 and ladder[-1] == 50
        assert ladder == sorted(set(ladder))

    def test_geometric_growth(self):
        ladder = guess_ladder(1000, 0.3)
        assert all(b <= math.ceil(a * 1.1) + 1 for a, b in
                   zip(ladder, ladder[1:]))

    def test_overlong_ladder_raises_before_looping(self):
        # The loop would take about 4e7 steps; the count is computed first.
        with pytest.raises(ValueError, match="n=1000000, eps=1e-06 needs "
                                             "more than 10000 steps"):
            guess_ladder(10**6, 1e-6)

    @pytest.mark.parametrize("eps", [1e-308, 5e-324])
    def test_vanishing_eps_raises_value_error(self, eps):
        # ln(n) / log1p(eps / 3) overflows, or eps / 3 rounds to 0.
        with pytest.raises(ValueError,
                           match=f"eps={eps} needs more than 10000 steps"):
            guess_ladder(2100, eps)

    @pytest.mark.parametrize("eps", [0.0, -0.5, 1.0])
    def test_eps_outside_unit_interval_rejected(self, eps):
        with pytest.raises(ValueError, match="eps must lie in"):
            guess_ladder(10, eps)


class TestCoverThreshold:
    def test_exact_at_scale(self):
        # In floats (1 - 0.7) * 56e6 is 16800000.000000004.
        assert cover_threshold(56_000_000, 0.7) == 16_800_000

    @given(decimals(0, 1), st.integers(1, 10**9))
    def test_matches_fraction_reference(self, lam, m):
        assert cover_threshold(m, float(lam)) == math.ceil((1 - lam) * m)

    @pytest.mark.parametrize("lam", [math.nan, math.inf, -math.inf])
    def test_rejects_non_finite_lam(self, lam):
        with pytest.raises(ValueError, match="^lam must be a finite number$"):
            cover_threshold(10, lam)


class TestSetCoverOutliers:
    def test_single_dominating_set(self):
        inst = loads_edge_list("0 0\n0 1\n0 2\n0 3\n1 3\n2 0\n")
        sol = set_cover_outliers(inst, 0.25, 0.2)
        assert sol.chosen == [0]

    def test_half_outliers_never_returns_tiny_set(self):
        # S0 = {0,1,2,3}, S1 = {3}; lambda = 0.5 needs 2 of 4 elements.
        inst = loads_edge_list("0 0\n0 1\n0 2\n0 3\n1 3\n")
        sol = set_cover_outliers(inst, 0.5, 0.2)
        assert sol.chosen == [0]

    def test_planted_bound_direct(self):
        lam, eps = 0.01, 0.2
        for seed in range(25):
            inst, planted = generate_planted(10, 500, 30, 0.2, seed=seed)
            sol = set_cover_outliers(inst, lam, eps, seed=seed,
                                     engine="direct")
            assert coverage(inst, sol.chosen) >= cover_threshold(500, lam)
            assert len(sol.chosen) <= (1 + eps) * math.log(1 / lam) * 10

    def test_sketch_engine_feasible_on_sketch(self):
        inst, _ = generate_planted(5, 400, 20, 0.2, seed=3)
        sol = set_cover_outliers(inst, 0.05, 0.2, seed=3, engine="sketch")
        assert sol.evaluated_on == "sketch"
        assert len(sol.chosen) >= 1

    def test_infeasible_outlier_fraction(self):
        # Sets cover only 5 of 10 elements; 90% coverage is impossible.
        inst = CoverageInstance.from_edges(
            2, 10, [0, 0, 0, 1, 1], [0, 1, 2, 3, 4])
        with pytest.raises(InfeasibleError, match="infeasible"):
            set_cover_outliers(inst, 0.1, 0.2)

    def test_matches_brute_force_within_factor(self):
        lam, eps = 0.1, 0.2
        for seed in range(40):
            inst = random_instance(seed, max_n=8, max_m=16)
            sol = set_cover_outliers(inst, lam, eps)
            opt = brute_force_set_cover(inst, lam)
            bound = max(1.0, (1 + eps) * math.log(1 / lam) * len(opt.chosen))
            assert len(sol.chosen) <= bound

    def test_param_validation(self):
        inst = loads_edge_list(THREE_SETS)
        with pytest.raises(ValueError):
            set_cover_outliers(inst, 0.0, 0.2)
        with pytest.raises(ValueError):
            set_cover_outliers(inst, 0.1, 0.2, engine="magic")


class TestBruteForce:
    def test_adversarial_optimum(self):
        inst = generate_adversarial(10, 2, 2.0)
        sol = brute_force_kcover(inst, 2)
        assert sol.coverage_value == 30

    def test_k_equals_n(self):
        inst = loads_edge_list(THREE_SETS)
        assert brute_force_kcover(inst, 3).coverage_value == 5

    def test_lexicographically_smallest_optimum(self):
        # Sets 0 and 1 are identical; {0} ties {1} and 0 wins.
        inst = loads_edge_list("0 0\n1 0\n")
        assert brute_force_kcover(inst, 1).chosen == [0]

    def test_budget_guard(self):
        inst, _ = generate_planted(10, 100, 40, 0.2, seed=0)
        with pytest.raises(BudgetExceededError):
            brute_force_kcover(inst, 10, budget=1000)

    def test_set_cover_planted_exact(self):
        # Any 4 sets cover at most 4 * 6 < 25 elements, so the planted
        # partition of size 5 is the unique minimum cardinality.
        inst, planted = generate_planted(5, 25, 10, 0.2, seed=4)
        sol = brute_force_set_cover(inst, 0.0, budget=10_000_000)
        assert len(sol.chosen) == 5

    def test_set_cover_single_covering_set(self):
        inst = loads_edge_list("0 0\n0 1\n1 0\n")
        sol = brute_force_set_cover(inst, 0.0)
        assert sol.chosen == [0]

    def test_set_cover_huge_lambda(self):
        inst = loads_edge_list(THREE_SETS)
        sol = brute_force_set_cover(inst, 0.99)
        assert len(sol.chosen) == 1

    def test_set_cover_infeasible(self):
        inst = CoverageInstance.from_edges(1, 5, [0], [0])
        with pytest.raises(InfeasibleError):
            brute_force_set_cover(inst, 0.1)


class TestSolversOnSketches:
    def test_tags_and_uniform_interface(self):
        inst = random_instance(2)
        sk = build_sketch(inst, practical_params(1.0, inst.n), HashSource(0))
        assert greedy_kcover(inst, 2).evaluated_on == "instance"
        assert greedy_kcover(sk, 2).evaluated_on == "sketch"
        assert brute_force_kcover(sk, 2).evaluated_on == "sketch"

    def test_full_sketch_same_solution(self):
        inst = random_instance(14)
        sk = build_sketch(inst, practical_params(1.0, inst.n + 1),
                          HashSource(5))
        assert greedy_kcover(sk, 3).chosen == greedy_kcover(inst, 3).chosen


# ---------------------------------------------------------------------------
# Properties against from-scratch references that live only in this file
# ---------------------------------------------------------------------------


@st.composite
def small_instances(draw, max_n=8, max_m=12):
    """Instances with empty sets and repeated (duplicate-coverage) sets."""
    m = draw(st.integers(0, max_m))
    sets = draw(st.lists(st.sets(st.integers(0, max(m - 1, 0)), max_size=m),
                         min_size=1, max_size=max_n))
    repeats = draw(st.lists(st.integers(0, len(sets) - 1), max_size=3))
    sets = draw(st.permutations(sets + [sets[i] for i in repeats]))
    set_ids = [s for s, elems in enumerate(sets) for _ in elems]
    elem_ids = [e for elems in sets for e in sorted(elems)]
    return CoverageInstance.from_edges(len(sets), m, set_ids, elem_ids)


def reference_greedy(inst, k, thresh=None):
    """Greedy that re-counts every gain from scratch each pick.

    Largest gain wins, smallest id on ties.  With ``thresh`` it stops at
    zero gain or once ``thresh`` elements are covered; without it, it makes
    ``k`` picks and zero-gain picks go to the smallest unchosen ids.
    """
    sets = [set(inst.set_elements(s).tolist()) for s in range(inst.n)]
    covered, chosen, gains = set(), [], []
    while len(chosen) < k:
        if thresh is not None and len(covered) >= thresh:
            break
        best, best_g = -1, -1
        for s in range(inst.n):
            g = len(sets[s] - covered)
            if s not in chosen and g > best_g:
                best, best_g = s, g
        if thresh is not None and best_g <= 0:
            break
        chosen.append(best)
        gains.append(best_g)
        covered |= sets[best]
    return chosen, gains, len(covered)


def sample_size(inst, k, eps):
    return math.ceil((inst.n / k) * math.log(1.0 / eps))


def stochastic_instances():
    """Small instances with empty and repeated sets, and larger random ones
    on which a sample draws repeated candidates."""
    return st.one_of(small_instances(), st.integers(0, 2**32 - 1).map(
        lambda seed: random_instance(seed, max_n=40, max_m=60)))


def reference_stochastic(inst, k, eps, seed):
    """Stochastic greedy with one gain count per sampled candidate."""
    sample = sample_size(inst, k, eps)
    if sample >= inst.n:
        return reference_greedy(inst, k)
    rng = np.random.default_rng(seed)
    covered = np.zeros(inst.m, dtype=bool)
    is_chosen = np.zeros(inst.n, dtype=bool)
    chosen, gains, cov = [], [], 0
    for _ in range(k):
        cand = np.unique(rng.integers(0, inst.n, size=sample))
        cand = cand[~is_chosen[cand]]
        if len(cand) == 0:
            continue
        best_s, best_g = -1, -1
        for s in cand.tolist():
            g = int((~covered[inst.set_elements(s)]).sum())
            if g > best_g:
                best_s, best_g = s, g
        is_chosen[best_s] = True
        chosen.append(best_s)
        gains.append(best_g)
        covered[inst.set_elements(best_s)] = True
        cov += best_g
    return chosen, gains, cov


def as_tuple(sol):
    return sol.chosen, sol.gains, sol.coverage_value


class TestAgainstReferences:
    @settings(max_examples=300, deadline=None)
    @given(small_instances())
    def test_kcover_every_k(self, inst):
        for k in range(inst.n + 1):
            want = reference_greedy(inst, k)
            assert as_tuple(greedy_kcover(inst, k)) == want
            assert as_tuple(lazy_greedy(inst, k)) == want

    @settings(max_examples=300, deadline=None)
    @given(stochastic_instances(), st.data(), st.floats(0.3, 0.99),
           st.integers(0, 2**32 - 1))
    def test_stochastic_sampled(self, inst, data, eps, seed):
        k = data.draw(st.integers(1, inst.n))
        assume(sample_size(inst, k, eps) < inst.n)
        assert as_tuple(stochastic_greedy(inst, k, eps, seed)) == \
            reference_stochastic(inst, k, eps, seed)

    @settings(max_examples=200, deadline=None)
    @given(stochastic_instances(), st.data(), st.floats(0.001, 0.5),
           st.integers(0, 2**32 - 1))
    def test_stochastic_full_scan(self, inst, data, eps, seed):
        k = data.draw(st.integers(1, inst.n))
        assume(sample_size(inst, k, eps) >= inst.n)
        assert as_tuple(stochastic_greedy(inst, k, eps, seed)) == \
            reference_stochastic(inst, k, eps, seed)

    @settings(max_examples=300, deadline=None)
    @given(small_instances(), st.floats(0.01, 0.99), st.floats(0.01, 0.99))
    def test_outliers_direct_is_greedy_prefix(self, inst, lam, eps):
        thresh = cover_threshold(inst.m, lam)
        chosen, gains, cov = reference_greedy(inst, inst.n, thresh)
        if cov < thresh:
            with pytest.raises(InfeasibleError):
                set_cover_outliers(inst, lam, eps, engine="direct")
            return
        sol = set_cover_outliers(inst, lam, eps, engine="direct")
        assert as_tuple(sol) == (chosen, gains, cov)
        assert sol.evaluated_on == "instance"


@st.composite
def sketch_runs(draw):
    """(instance, selected, counts, sketch): the runs of a theory or
    practical sketch of a small instance, and the sketch they assemble.

    The instances have empty sets and zero-degree elements.  Caps lie below
    and above the largest degree; theory cuts keep every element or drop
    some, by ``n_tilde`` below, at and above the capped mass; practical
    cuts keep each element at rate ``rho``.  Dropped elements, and
    zero-degree ones, have limit 0.
    """
    inst = draw(small_instances(max_n=10, max_m=16))
    degrees = inst.elem_degrees
    cap = draw(st.integers(1, int(degrees.max(initial=0)) + 1))
    source = HashSource(draw(st.integers(0, 2**64 - 1)))
    if draw(st.booleans()):
        mass = int(np.minimum(degrees, cap).sum())
        params = SketchParams(mode="theory", degree_cap=cap, n_tilde=max(
            1, draw(st.integers(mass // 3, mass + 1))))
    else:
        params = practical_params(draw(st.sampled_from([0.2, 0.5, 1.0])),
                                  cap)
    selected, counts = _selection(degrees, params, source)
    return (inst, selected, counts,
            distsim_reference.assemble_runs(inst, selected, counts, source,
                                            params))


class TestGreedyOnRuns:
    """Greedy over a sketch's runs on the parent instance gives the picks,
    gain trace and coverage of greedy on the assembled sketch."""

    @settings(max_examples=300, deadline=None)
    @given(sketch_runs(), st.data())
    def test_fill_zero(self, case, data):
        inst, selected, counts, sk = case
        k = data.draw(st.integers(0, inst.n))
        assert _greedy_run(inst, k, fill_zero=True,
                           runs=(selected, counts)) == \
            _greedy_run(sk.instance, k, fill_zero=True)

    @settings(max_examples=300, deadline=None)
    @given(sketch_runs(), st.data())
    def test_stop_threshold(self, case, data):
        inst, selected, counts, sk = case
        picks = data.draw(st.integers(0, inst.n))
        thresh = data.draw(st.integers(0, len(selected) + 1))
        assert _greedy_run(inst, picks, stop_threshold=thresh,
                           runs=(selected, counts)) == \
            _greedy_run(sk.instance, picks, stop_threshold=thresh)

    @settings(max_examples=300, deadline=None)
    @given(sketch_runs(), st.data(), st.floats(0.01, 0.99),
           st.integers(0, 2**32 - 1))
    def test_stochastic(self, case, data, eps, seed):
        inst, selected, counts, sk = case
        k = data.draw(st.integers(1, inst.n))
        assert _stochastic(inst, "sketch", k, eps, seed,
                           (selected, counts)) == \
            stochastic_greedy(sk, k, eps, seed)


@st.composite
def full_runs(draw):
    """(instance, selected, counts): runs that carry every edge of a small
    instance, in any element order.  Zero-degree elements are left out or
    kept with count 0."""
    inst = draw(small_instances(max_n=10, max_m=16))
    degrees = inst.elem_degrees
    keep = [e for e in range(inst.m) if degrees[e] or draw(st.booleans())]
    selected = np.array(draw(st.permutations(keep)), dtype=np.int64)
    return inst, selected, degrees[selected].astype(np.int64)


class TestGreedyOnFullRuns:
    """Runs that carry every edge are the instance up to element order, so
    greedy on them takes the instance path."""

    @settings(max_examples=200, deadline=None)
    @given(full_runs(), st.data())
    def test_greedy(self, case, data):
        inst, selected, counts = case
        k = data.draw(st.integers(0, inst.n))
        thresh = data.draw(st.none() | st.integers(0, inst.m + 1))
        got = _greedy_run(inst, k, stop_threshold=thresh,
                          fill_zero=thresh is None, runs=(selected, counts))
        assert got == reference_greedy(inst, k, thresh)
        assert got == _greedy_run(inst, k, stop_threshold=thresh,
                                  fill_zero=thresh is None)

    @settings(max_examples=200, deadline=None)
    @given(full_runs(), st.data(), st.floats(0.01, 0.99),
           st.integers(0, 2**32 - 1))
    def test_stochastic(self, case, data, eps, seed):
        inst, selected, counts = case
        k = data.draw(st.integers(1, inst.n))
        assert _stochastic(inst, "instance", k, eps, seed,
                           (selected, counts)) == \
            stochastic_greedy(inst, k, eps, seed)

    @settings(max_examples=50, deadline=None)
    @given(full_runs())
    def test_engine_gathers_nothing(self, case):
        inst, selected, counts = case
        with mock.patch.object(solvers_module, "_gather_positions",
                               wraps=solvers_module._gather_positions) as gather:
            gains, _ = _engine(inst, (selected, counts))
        assert gather.call_count == 0
        want_gains, _ = _engine(inst)
        assert gains.dtype == want_gains.dtype
        assert np.array_equal(gains, want_gains)


class CountingInstance(CoverageInstance):
    """An instance that records the name of every attribute read on it."""

    __slots__ = ()
    reads: list[str] = []

    def __getattribute__(self, name):
        CountingInstance.reads.append(name)
        return super().__getattribute__(name)


class TestEngineReadsInstanceOnce:
    """The engine reads the instance when it is built; a pick reads only
    the engine's own arrays, so a slower attribute read on the instance
    costs nothing per pick."""

    @pytest.mark.parametrize("path", ["instance", "runs", "weights"])
    def test_take_reads_no_attribute(self, path):
        base, _ = generate_planted(4, 300, 40, 0.2, seed=5)
        inst = CountingInstance(base.n, base.m, base.set_indptr,
                                base.set_elems)
        runs = weight = None
        if path == "runs":
            runs = _selection(base.elem_degrees, practical_params(0.5, 2),
                              HashSource(3))
            assert runs[1].sum() < base.edge_count
        elif path == "weights":
            weight = np.random.default_rng(1).integers(1, 9, size=base.m)
        gains, take = _engine(inst, runs, weight)
        CountingInstance.reads.clear()
        picks = 0
        while gains.max() > 0:
            s = int(gains.argmax())
            want = int(gains[s])
            assert take(s) == want
            picks += 1
        assert picks > 1
        assert CountingInstance.reads == []


class TestTracerContract:
    # The benchmark tracer (perfbench/spans.py) replaces solvers by object
    # identity, so an alias would trace greedy_kcover as "solvers.lazy"; it
    # also adds up lazy_greedy's ``evaluations``, which must be an int.
    def test_lazy_is_its_own_function(self):
        assert lazy_greedy is not greedy_kcover

    def test_evaluations_is_an_int(self):
        inst = loads_edge_list(THREE_SETS)
        evaluations = lazy_greedy(inst, 2).evaluations
        assert type(evaluations) is int and evaluations == inst.n
