"""Acceptance suite: one test per criterion, one printed pass/fail line each.

Run with `pytest tests/test_acceptance.py -v -s` to see the per-criterion
lines as they complete.
"""

import math
import time

import numpy as np

from coversketch import (
    CoverageInstance,
    HashSource,
    build_sketch,
    coverage,
    coverage_fractional,
    coverage_probabilistic,
    coverage_weighted,
    generate_adversarial,
    generate_planted,
    greedy_kcover,
    khop_dominating_instance,
    run_kcover_mapreduce,
    set_cover_outliers,
    theory_params,
)
from coversketch.cli import ExperimentSpec, run_experiment
from coversketch.instance import (
    FractionalInstance,
    ProbabilisticInstance,
    WeightedInstance,
)
from coversketch.sketch import (
    SketchParams,
    element_hash_array,
    practical_params,
    probabilistic_copy_count,
    sketch_fractional,
    sketch_probabilistic,
    sketch_weighted,
)
from coversketch.solvers import brute_force_kcover, cover_threshold

from conftest import random_instance


def _report(index, name, ok, detail, elapsed, limit):
    line = (f"[criterion {index}] {name}: {'PASS' if ok else 'FAIL'} "
            f"({detail}; {elapsed:.1f}s)")
    print(line, flush=True)
    assert ok, line
    assert elapsed < limit, f"criterion {index} exceeded {limit}s: {elapsed:.1f}s"


def test_criterion_1_greedy_guarantee():
    start = time.time()
    trials, failures = 500, 0
    bound = 1 - 1 / math.e
    for seed in range(trials):
        inst = random_instance(seed, max_n=12, max_m=30)
        k = (seed % min(4, inst.n)) + 1
        g = greedy_kcover(inst, k).coverage_value
        b = brute_force_kcover(inst, k).coverage_value
        if g < bound * b:
            failures += 1
    _report(1, "greedy >= (1-1/e) * optimum", failures == 0,
            f"{trials} instances, {failures} failures",
            time.time() - start, 60)


def test_criterion_2_sketch_fidelity_hardinst_a():
    start = time.time()
    spec = ExperimentSpec(
        instance_kind="planted",
        instance_args={"k": "100", "m": "10000", "kprime": "10000",
                       "eps": "0.2", "seed": "0"},
        rho_grid=[0.95], sigma_grid=[10], k_grid=[100], seeds=[1, 2, 3],
        solver="greedy", baseline="stochastic", solver_eps=0.1,
        out="unused.csv")
    rows = run_experiment(spec)
    mean = [r for r in rows if r["seed"] == "mean"][0]
    ok = (0.06 <= mean["sketch_ratio"] <= 0.10
          and mean["quality_ratio"] >= 0.95)
    _report(2, "8% sketch keeps >= 95% greedy quality", ok,
            f"ratio={mean['sketch_ratio']:.4f} "
            f"quality={mean['quality_ratio']:.4f}",
            time.time() - start, 120)


def test_criterion_3_hash_prefix_concentration():
    start = time.time()
    m, n = 100_000, 10
    inst = CoverageInstance.from_edges(n, m, np.arange(m) % n, np.arange(m))
    params = theory_params(inst.n, inst.m, inst.edge_count, k=3, eps=0.9)
    nt = params.n_tilde
    thresh = 2.0 * nt / m
    assert thresh < 1.0
    ids = np.arange(m, dtype=np.int64)
    hits = 0
    trials = 1000
    for seed in range(trials):
        x = int((element_hash_array(HashSource(seed), ids) < thresh).sum())
        hits += nt <= x <= 3 * nt
    ok = hits / trials >= 0.99
    _report(3, "elements below 2*n_tilde/m land in [n_tilde, 3*n_tilde]",
            ok, f"n_tilde={nt}, {hits}/{trials} in range",
            time.time() - start, 60)


def test_criterion_4_uniform_sampling_lower_bound():
    start = time.time()
    n, k, beta = 200, 20, 4.0
    inst = generate_adversarial(n, k, beta)
    opt = int((beta + 1) * n)
    assert coverage(inst, list(range(n - k, n))) == opt
    budget = n * k // int(beta * beta)  # nk / beta^2 = 250 edges
    set_ids, elem_ids = inst.edges()

    uniform_covs, sketch_covs = [], []
    cap = math.ceil(n * math.log(2) / (0.5 * k))
    params = SketchParams(mode="theory", k=k, eps=0.5, delta_dprime=0.5,
                          n_tilde=budget, degree_cap=cap)
    for seed in range(50):
        rng = np.random.default_rng(seed)
        pick = rng.choice(inst.edge_count, size=budget, replace=False)
        sampled = CoverageInstance.from_edges(inst.n, inst.m, set_ids[pick],
                                              elem_ids[pick])
        sol = greedy_kcover(sampled, k)
        uniform_covs.append(coverage(inst, sol.chosen))
        sk = build_sketch(inst, params, HashSource(seed))
        sketch_covs.append(coverage(inst, greedy_kcover(sk, k).chosen))
    uniform_ratio = float(np.mean(uniform_covs)) / opt
    sketch_ratio = float(np.mean(sketch_covs)) / opt
    ok = uniform_ratio <= 0.55 and sketch_ratio >= 0.9
    _report(4, "uniform 250-edge sample fails where equal-budget sketch works",
            ok, f"uniform={uniform_ratio:.3f} (<=0.55) "
            f"sketch={sketch_ratio:.3f} (>=0.9)",
            time.time() - start, 120)


def _equivalence_corpus():
    corpus = [
        ("planted-small-n", generate_planted(5, 10_000, 5, 0.2, seed=1)[0],
         3, 0.9),
        ("planted-mid", generate_planted(20, 10_000, 100, 0.2, seed=2)[0],
         10, 0.5),
        ("adversarial", generate_adversarial(1000, 100, 9.0), 100, 0.5),
    ]
    rng = np.random.default_rng(0)
    adj = [[] for _ in range(10_000)]
    for _ in range(15_000):
        u, v = rng.integers(0, 10_000, 2)
        if u != v:
            adj[int(u)].append(int(v))
            adj[int(v)].append(int(u))
    corpus.append(("khop-2", khop_dominating_instance(adj, 2), 50, 0.5))
    return corpus


def test_criterion_5_distributed_equivalence():
    start = time.time()
    runs = mismatches = flags = 0
    alpha = 12
    rounds_ok = load_ok = True
    for name, inst, k, eps in _equivalence_corpus():
        params = theory_params(inst.n, inst.m, inst.edge_count, k=k, eps=eps)
        for j in range(25):
            seed = 1000 * runs + 17 * j + 3
            machines = 2 + (j % 15)  # 2..16
            sol, report = run_kcover_mapreduce(inst, k, eps, 0.5, seed,
                                               machines)
            rounds_ok &= report.rounds_executed == 4
            load_ok &= report.coordinator_load <= \
                alpha * (params.n_tilde + inst.n)
            if report.divergence_flag:
                flags += 1
            else:
                ref = greedy_kcover(
                    build_sketch(inst, params, HashSource(seed)), k)
                if sol.chosen != ref.chosen or \
                        sol.coverage_value != ref.coverage_value:
                    mismatches += 1
            runs += 1
    ok = (runs == 100 and mismatches == 0 and flags <= 1
          and rounds_ok and load_ok)
    _report(5, "simulation equals single-process pipeline", ok,
            f"{runs} runs, {mismatches} mismatches, {flags} flags, "
            f"rounds_ok={rounds_ok}, coordinator<=alpha(n_tilde+n)={load_ok}",
            time.time() - start, 180)


def test_criterion_6_outlier_cover_bound():
    start = time.time()
    lam, eps = 0.01, 0.2
    trials, good = 200, 0
    for seed in range(trials):
        rng = np.random.default_rng(seed)
        k = int(rng.integers(5, 21))
        m = k * int(rng.integers(20, 80))
        kprime = int(rng.integers(2 * k, 6 * k))
        inst, _ = generate_planted(k, m, kprime, 0.2, seed=seed)
        sol = set_cover_outliers(inst, lam, eps, 0.5, seed, engine="direct")
        feasible = coverage(inst, sol.chosen) >= cover_threshold(m, lam)
        bounded = len(sol.chosen) <= (1 + eps) * math.log(1 / lam) * k
        good += feasible and bounded
    ok = good / trials >= 0.95
    _report(6, "outlier cover within (1+eps) ln(1/lambda) OPT", ok,
            f"{good}/{trials} within bound", time.time() - start, 180)


def _random_weighted_case(seed):
    rng = np.random.default_rng(seed)
    inst = random_instance(seed + 10_000, max_n=8, max_m=12)
    U = int(rng.integers(1, 6))
    w = rng.integers(1, U + 1, size=inst.m)
    return WeightedInstance(inst, w, U)


def _random_fractional_case(seed, cls=FractionalInstance, max_n=8, max_m=10,
                            max_u=4):
    rng = np.random.default_rng(seed)
    n = int(rng.integers(2, max_n + 1))
    m = int(rng.integers(2, max_m + 1))
    U = int(rng.integers(1, max_u + 1))
    set_ids, elem_ids, numer = [], [], []
    for v in range(m):
        for s in rng.choice(n, size=int(rng.integers(1, n + 1)),
                            replace=False):
            set_ids.append(int(s))
            elem_ids.append(v)
            numer.append(int(rng.integers(0, U + 1)))
    return cls.from_edges(n, m, set_ids, elem_ids, numer, U)


def test_criterion_7_weighted_expansion_equivalence():
    start = time.time()
    cases = bad = 0
    for seed in range(60):
        winst = _random_weighted_case(seed)
        assert int(winst.element_weight.sum()) <= 10_000
        params = practical_params(1.0, winst.base.n + 1)  # rho=1, no cap
        sk = sketch_weighted(winst, params, HashSource(seed))
        k = (seed % winst.base.n) + 1
        sol = greedy_kcover(sk, k)
        if sol.coverage_value != coverage_weighted(winst, sol.chosen):
            bad += 1
        cases += 1
    for seed in range(60):
        finst = _random_fractional_case(seed)
        assert finst.base.m * finst.U <= 10_000
        params = practical_params(1.0, finst.base.n + 1)
        sk = sketch_fractional(finst, params, HashSource(seed))
        k = (seed % finst.base.n) + 1
        sol = greedy_kcover(sk, k)
        if sol.coverage_value != \
                coverage_fractional(finst, sol.chosen) * finst.U:
            bad += 1
        cases += 1
    _report(7, "implicit expansion sketch equals closed-form coverage",
            bad == 0, f"{cases} cases, {bad} mismatches",
            time.time() - start, 60)


def test_criterion_8_probabilistic_estimator():
    start = time.time()
    eps = 0.3
    trials, good = 50, 0
    for case in range(trials):
        rng = np.random.default_rng(case)
        pinst = _random_fractional_case(
            int(rng.integers(0, 2 ** 31)), cls=ProbabilisticInstance,
            max_n=8, max_m=5, max_u=4)
        n = pinst.base.n
        zeta = probabilistic_copy_count(n, pinst.U, eps)
        sk = sketch_probabilistic(pinst, eps, practical_params(1.0, n),
                                  HashSource(case))
        # Bitmask histogram of sketch elements for all 2^n solutions at once.
        masks = np.zeros(sk.instance.m, dtype=np.int64)
        for e in range(sk.instance.m):
            mask = 0
            for s in sk.instance.element_sets(e).tolist():
                mask |= 1 << s
            masks[e] = mask
        # Each sketch element counts for the copies it stands for.
        hist = np.bincount(masks, weights=sk.element_weight, minlength=1 << n)
        idx = np.arange(1 << n)
        all_within = True
        for smask in range(1 << n):
            est = float(hist[(idx & smask) != 0].sum()) / zeta
            chosen = [s for s in range(n) if smask >> s & 1]
            exact = coverage_probabilistic(pinst, chosen)
            if exact == 0:
                if est != 0:
                    all_within = False
                    break
            elif abs(est - exact) > (eps / 2) * exact:
                all_within = False
                break
        good += all_within
    ok = good / trials >= 0.95
    _report(8, "zeta-copy estimate within eps/2 for all solutions at once",
            ok, f"{good}/{trials} cases fully within",
            time.time() - start, 120)


def test_criterion_9_quality_monotone_in_rho():
    start = time.time()
    spec = ExperimentSpec(
        instance_kind="planted",
        instance_args={"k": "50", "m": "5000", "kprime": "2000",
                       "eps": "0.2", "seed": "5"},
        rho_grid=[0.005, 0.02, 0.1, 0.5, 1.0], sigma_grid=[100],
        k_grid=[50], seeds=[1, 2, 3], solver="greedy",
        baseline="stochastic", solver_eps=0.1, out="unused.csv")
    rows = run_experiment(spec)
    means = [(r["rho"], r["quality_ratio"]) for r in rows
             if r["seed"] == "mean"]
    means.sort()
    qualities = [q for _, q in means]
    slack = 0.005
    monotone = all(b >= a - slack for a, b in zip(qualities, qualities[1:]))
    improves = qualities[-1] > qualities[0]
    ok = monotone and improves
    _report(9, "3-seed mean quality improves monotonically with rho", ok,
            "quality by rho: " + ", ".join(f"{r}:{q:.3f}" for r, q in means),
            time.time() - start, 180)
