"""The four closed-loop workloads of the coversketch benchmark.

Each workload is driven from one thread, one operation ("op") at a time, so a
slower program receives less load.  A workload builds its inputs and
references in ``setup``, runs the timed work in ``op`` and checks that op's
output in ``verify``, outside the timed interval.  The library is reached only
through the package namespace (``cs.<function>``) and ``cli.main``, looked up
at call time, so the traced run can wrap every call the ops make.

Why these four: ``file_pipeline`` is dominated by text ingest and writing,
``sketch_sweep`` by the solvers, ``mapreduce`` by the simulator and CSR
assembly, and ``weighted_variants`` by the copy-expansion transforms.  Each
layer therefore has one workload where it does most of the work and others
where it does almost none.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import os
from dataclasses import dataclass

import numpy as np

import coversketch as cs
from coversketch import cli

# generate_planted(k, m, k', eps): 500,000 edges, n = 2,100, m = 20,000.
BASE = (100, 20_000, 2_000, 0.2)
# The mapreduce input: 130,000 edges, n = 1,100, m = 10,000.  A set-cover
# simulation walks 41 guesses on it in about 2 s, so a run holds enough ops
# for its fastest one to repeat across runs; on BASE one op takes 6-9 s.
MAPREDUCE = (100, 10_000, 1_000, 0.2)
# The reduced planted instance under the probabilistic and criterion-7 inputs.
SMALL = (10, 200, 40, 0.2)
K = 100
SMALL_K = 10
RHOS = (0.01, 0.03, 0.1)
SIGMA = 100
STOCHASTIC_EPS = 0.1
THEORY_EPS = 0.5
DELTA_DPRIME = 0.5
MACHINES = 8
SETCOVER_LAMBDA = 0.05
WEIGHT_U = 8
PROBABILISTIC_U = 4
PROBABILISTIC_EPS = 0.5


@dataclass
class Verdict:
    """What ``verify`` found for one op.

    ``problems`` is empty when every check passed.  ``quality_ratio`` is the
    full-input coverage of the op's sketch solutions over the full-input
    greedy baseline; ``sketch_ratio`` is sketch edges over input edges.
    ``sim_max_load`` is the largest per-machine load of the op's simulations,
    or None when the op runs none.
    """

    problems: list[str]
    quality_ratio: float
    sketch_ratio: float
    sim_max_load: int | None = None


def _op_seed(seed: int, i: int) -> int:
    return 1000 * seed + i


def _base_instance(seed: int) -> cs.CoverageInstance:
    inst, _ = cs.generate_planted(*BASE, seed)
    return inst


def _solution_problems(label, got, want) -> list[str]:
    if got.chosen != want.chosen or got.coverage_value != want.coverage_value:
        return [f"{label}: picks or value differ from the reference"]
    return []


def _quiet_main(argv: list[str]) -> int:
    with contextlib.redirect_stdout(io.StringIO()):
        return cli.main(argv)


def _sha256(path: str) -> str:
    with open(path, "rb") as fh:
        return hashlib.sha256(fh.read()).hexdigest()


class FilePipeline:
    """``generate -> sketch -> solve`` through ``cli.main``, in one directory.

    Text ingest and serialization do most of the work; the solvers and the
    simulator do almost none.
    """

    name = "file_pipeline"
    checks = ("generated file sha256 equals set-up's; solution file picks "
              "and value equal in-memory greedy on build_sketch")

    def _generate_argv(self) -> list[str]:
        k, m, kprime, eps = BASE
        return ["generate", "planted", "--k", str(k), "--m", str(m),
                "--kprime", str(kprime), "--eps", str(eps),
                "--seed", str(self.seed), "--out", self.inst_path,
                "--no-timestamp"]

    def setup(self, seed: int, workdir: str) -> None:
        self.seed = seed
        self.inst_path = os.path.join(workdir, "inst.txt")
        self.sketch_path = os.path.join(workdir, "sketch.txt")
        self.sol_path = os.path.join(workdir, "sol.txt")
        if _quiet_main(self._generate_argv()) != 0:
            raise RuntimeError("reference generate failed")
        self.file_sha = _sha256(self.inst_path)
        self.inst = _base_instance(seed)
        self.greedy_full = cs.greedy_kcover(self.inst, K)
        self.edges_per_op = self.inst.edge_count

    def op(self, i: int):
        sk_seed = _op_seed(self.seed, i)
        codes = [
            _quiet_main(self._generate_argv()),
            _quiet_main(["sketch", "--in", self.inst_path,
                         "--out", self.sketch_path, "--rho", str(RHOS[-1]),
                         "--sigma", str(SIGMA), "--seed", str(sk_seed)]),
            _quiet_main(["solve", "--in", self.sketch_path,
                         "--problem", "kcover", "--k", str(K),
                         "--solver", "greedy", "--out", self.sol_path]),
        ]
        return sk_seed, codes

    def verify(self, i: int, out) -> Verdict:
        sk_seed, codes = out
        problems = [f"cli {cmd} exited {code}" for cmd, code
                    in zip(("generate", "sketch", "solve"), codes) if code]
        if problems:
            return Verdict(problems, 0.0, 0.0)
        if _sha256(self.inst_path) != self.file_sha:
            problems.append("generated file is not byte-identical to setup's")
        with open(self.sol_path) as fh:
            head, *ids = fh.read().split()
        value = int(head.split("=")[1])
        chosen = [int(s) for s in ids[1:]]
        ref_sk = cs.build_sketch(self.inst, cs.practical_params(RHOS[-1], SIGMA),
                                 cs.HashSource(sk_seed))
        ref = cs.greedy_kcover(ref_sk, K)
        if chosen != ref.chosen or value != ref.coverage_value:
            problems.append("solution file differs from in-memory greedy "
                            "on build_sketch")
        with open(self.sketch_path) as fh:
            sketch_edges = sum(1 for line in fh if not line.startswith("#"))
        if sketch_edges != ref_sk.instance.edge_count:
            problems.append("sketch file edge count differs from build_sketch")
        quality = cs.coverage(self.inst, chosen) / self.greedy_full.coverage_value
        return Verdict(problems, quality, sketch_edges / self.inst.edge_count)


class SketchSweep:
    """One seed of the ``experiment`` workflow per op, all in memory.

    Full-input baselines (lazy and stochastic greedy), then for each rho a
    practical sketch solved by greedy, lazy and stochastic greedy, each
    solution scored on the full instance.  The solvers do most of the work.
    """

    name = "sketch_sweep"
    checks = "lazy picks equal greedy picks on every sketch and the full instance"

    def setup(self, seed: int, workdir: str) -> None:
        self.seed = seed
        self.inst = _base_instance(seed)
        self.greedy_full = cs.greedy_kcover(self.inst, K)
        self.edges_per_op = self.inst.edge_count

    def op(self, i: int):
        s = _op_seed(self.seed, i)
        inst = self.inst
        lazy_full = cs.lazy_greedy(inst, K)
        stochastic_full = cs.stochastic_greedy(inst, K, STOCHASTIC_EPS, s)
        rows = []
        for rho in RHOS:
            sk = cs.build_sketch(inst, cs.practical_params(rho, SIGMA),
                                 cs.HashSource(s))
            k = min(K, sk.instance.n)
            sols = (cs.greedy_kcover(sk, k), cs.lazy_greedy(sk, k),
                    cs.stochastic_greedy(sk, k, STOCHASTIC_EPS, s))
            rows.append((rho, sk.instance.edge_count, sols,
                         [cs.coverage(inst, sol.chosen) for sol in sols]))
        return lazy_full, stochastic_full, rows

    def verify(self, i: int, out) -> Verdict:
        lazy_full, _, rows = out
        problems = _solution_problems("lazy on the full instance", lazy_full,
                                      self.greedy_full)
        base = self.greedy_full.coverage_value
        ratios = []
        sketch_edges = 0
        for rho, edges, (greedy, lazy, _), covs in rows:
            problems += _solution_problems(f"lazy on the rho={rho} sketch",
                                           lazy, greedy)
            ratios += [c / base for c in covs]
            sketch_edges += edges
        return Verdict(problems, float(np.mean(ratios)),
                       sketch_edges / (len(rows) * self.inst.edge_count))


class MapReduce:
    """The four-round simulated pipelines for k-cover and set cover, on the
    ``MAPREDUCE`` instance.

    The simulator and the per-guess CSR assembly do most of the work;
    nothing is parsed.
    """

    name = "mapreduce"
    checks = ("divergence flag clear; simulated k-cover equals its "
              "single-process reference; simulated set cover equals "
              "set_cover_outliers(engine='sketch')")

    def setup(self, seed: int, workdir: str) -> None:
        self.seed = seed
        self.inst, _ = cs.generate_planted(*MAPREDUCE, seed)
        self.greedy_full = cs.greedy_kcover(self.inst, K)
        self.edges_per_op = self.inst.edge_count
        self.first_setcover = None

    def op(self, i: int):
        inst, seed = self.inst, self.seed
        kcover = cs.run_kcover_mapreduce(inst, K, THEORY_EPS, DELTA_DPRIME,
                                         seed, MACHINES)
        params = cs.theory_params(inst.n, inst.m, inst.edge_count, k=K,
                                  eps=THEORY_EPS, delta_dprime=DELTA_DPRIME)
        reference = cs.greedy_kcover(
            cs.build_sketch(inst, params, cs.HashSource(seed)), K)
        setcover = cs.run_setcover_mapreduce(inst, SETCOVER_LAMBDA, THEORY_EPS,
                                             DELTA_DPRIME, seed, MACHINES)
        return kcover, reference, setcover

    def verify(self, i: int, out) -> Verdict:
        (ksol, krep), reference, (ssol, srep) = out
        problems = [f"{label} simulation diverged" for label, rep
                    in (("k-cover", krep), ("set-cover", srep))
                    if rep.divergence_flag]
        problems += _solution_problems("simulated k-cover", ksol, reference)
        if self.first_setcover is None:
            # Once per run: the simulated set cover against the
            # single-process sketch engine with the same seed.
            self.first_setcover = cs.set_cover_outliers(
                self.inst, SETCOVER_LAMBDA, THEORY_EPS, DELTA_DPRIME,
                self.seed, engine="sketch")
        problems += _solution_problems("simulated set cover", ssol,
                                       self.first_setcover)
        quality = (cs.coverage(self.inst, ksol.chosen)
                   / self.greedy_full.coverage_value)
        return Verdict(problems, quality,
                       krep.sketch_edges / self.inst.edge_count,
                       max(krep.max_load, srep.max_load))


def _weighted_inputs(seed: int, base: cs.CoverageInstance):
    rng = np.random.default_rng(seed)
    weights = rng.integers(1, WEIGHT_U + 1, size=base.m)
    winst = cs.WeightedInstance(base, weights, WEIGHT_U)
    set_ids, elem_ids = base.edges()
    numer = rng.integers(1, WEIGHT_U + 1, size=len(set_ids))
    finst = cs.FractionalInstance.from_edges(base.n, base.m, set_ids, elem_ids,
                                             numer, WEIGHT_U)
    return winst, finst


class WeightedVariants:
    """Weighted, fractional and probabilistic sketches, solved and scored.

    The copy-expansion path of the sketch module runs only here.
    """

    name = "weighted_variants"
    checks = ("solutions are k distinct sets with positive coverage; "
              "criterion-7 equivalences hold on the reduced instance")

    def setup(self, seed: int, workdir: str) -> None:
        self.seed = seed
        base = _base_instance(seed)
        self.winst, self.finst = _weighted_inputs(seed, base)
        small, _ = cs.generate_planted(*SMALL, seed)
        set_ids, elem_ids = small.edges()
        numer = np.random.default_rng(seed).integers(
            1, PROBABILISTIC_U + 1, size=len(set_ids))
        self.pinst = cs.ProbabilisticInstance.from_edges(
            small.n, small.m, set_ids, elem_ids, numer, PROBABILISTIC_U)
        greedy_base = cs.greedy_kcover(base, K).chosen
        greedy_small = cs.greedy_kcover(small, SMALL_K).chosen
        self.baselines = (cs.coverage_weighted(self.winst, greedy_base),
                          cs.coverage_fractional(self.finst, greedy_base),
                          cs.coverage_probabilistic(self.pinst, greedy_small))
        self.edges_per_op = (base.edge_count + self.finst.base.edge_count
                             + small.edge_count)
        self.equivalence_checked = False

    def op(self, i: int):
        params = cs.practical_params(RHOS[-1], SIGMA)
        source = cs.HashSource(_op_seed(self.seed, i))
        sketches = (cs.sketch_weighted(self.winst, params, source),
                    cs.sketch_fractional(self.finst, params, source),
                    cs.sketch_probabilistic(self.pinst, PROBABILISTIC_EPS,
                                            params, source))
        sols = [cs.greedy_kcover(sk, k)
                for sk, k in zip(sketches, (K, K, SMALL_K))]
        scores = (cs.coverage_weighted(self.winst, sols[0].chosen),
                  cs.coverage_fractional(self.finst, sols[1].chosen),
                  cs.coverage_probabilistic(self.pinst, sols[2].chosen))
        return sketches, sols, scores

    def _equivalence_problems(self) -> list[str]:
        """Criterion 7 on the reduced instance: with rho = 1 and a cap at
        least the largest degree, sketch coverage equals the closed form."""
        small, _ = cs.generate_planted(*SMALL, self.seed)
        winst, finst = _weighted_inputs(self.seed, small)
        params = cs.practical_params(1.0, int(small.elem_degrees.max()))
        source = cs.HashSource(self.seed)
        problems = []
        for k in range(1, SMALL_K + 1):
            sol = cs.greedy_kcover(cs.sketch_weighted(winst, params, source), k)
            if sol.coverage_value != cs.coverage_weighted(winst, sol.chosen):
                problems.append(f"weighted expansion differs at k={k}")
            sol = cs.greedy_kcover(cs.sketch_fractional(finst, params, source), k)
            if sol.coverage_value != \
                    cs.coverage_fractional(finst, sol.chosen) * finst.U:
                problems.append(f"fractional expansion differs at k={k}")
        return problems

    def verify(self, i: int, out) -> Verdict:
        sketches, sols, scores = out
        problems = []
        for label, sol, k, n in zip(("weighted", "fractional", "probabilistic"),
                                    sols, (K, K, SMALL_K),
                                    (self.winst.base.n, self.finst.base.n,
                                     self.pinst.base.n)):
            if len(set(sol.chosen)) != k or not all(0 <= s < n
                                                    for s in sol.chosen):
                problems.append(f"{label}: solution is not {k} distinct sets")
        if not all(score > 0 for score in scores):
            problems.append("a variant solution covers nothing")
        if not self.equivalence_checked:
            problems += self._equivalence_problems()
            self.equivalence_checked = True
        quality = float(np.mean([s / b for s, b in zip(scores, self.baselines)]))
        sketch_edges = sum(sk.instance.edge_count for sk in sketches)
        return Verdict(problems, quality, sketch_edges / self.edges_per_op)


WORKLOADS = {w.name: w for w in (FilePipeline, SketchSweep, MapReduce,
                                 WeightedVariants)}
