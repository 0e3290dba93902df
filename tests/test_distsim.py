import hashlib
import tracemalloc
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from coversketch import (
    CoverageInstance,
    HashSource,
    build_sketch,
    distsim,
    generate_planted,
    loads_edge_list,
    partition_input,
    run_kcover_mapreduce,
    run_setcover_mapreduce,
    theory_params,
)
from coversketch import sketch, solvers
from coversketch.solvers import InfeasibleError, greedy_kcover, \
    guess_families, guess_ladder, select_outlier_solution, \
    set_cover_outliers, stochastic_greedy
from coversketch.sketch import SketchParams, _select_elements, \
    _selection, derive_seed, element_hash_array

import distsim_reference
from conftest import random_instance


class TestPartitionInput:
    def test_modular_placement(self):
        inst = CoverageInstance.from_edges(2, 4, [0, 0, 1, 1], [0, 1, 2, 3])
        placement = partition_input(inst, 3)
        # Machine 1 owns elements 0 and 2, machine 2 owns 1 and 3, and the
        # coordinator owns none.
        assert placement.owner.tolist() == [1, 2, 1, 2]
        assert placement.storage_units.tolist() == [0, 2, 2]

    def test_two_machines_single_worker(self):
        inst = loads_edge_list("0 0\n0 1\n1 1\n")
        placement = partition_input(inst, 2)
        assert placement.owner.tolist() == [1, 1]
        assert placement.storage_units[1] == inst.edge_count
        assert placement.storage_units[0] == 0

    def test_idle_machines(self):
        inst = loads_edge_list("0 0\n")
        placement = partition_input(inst, 5)
        counts = np.bincount(placement.owner, minlength=5).tolist()
        assert counts.count(0) == 4
        assert placement.storage_units.tolist().count(0) == 4

    def test_needs_two_machines(self):
        inst = loads_edge_list("0 0\n")
        with pytest.raises(ValueError):
            partition_input(inst, 1)

    def test_machine_count_bounded(self):
        inst = loads_edge_list("0 0\n0 1\n")
        assert len(partition_input(inst, 2**16).storage_units) == 2**16
        with pytest.raises(ValueError,
                           match="machine count 65537 is over the limit "
                                 "of 65536"):
            partition_input(inst, 2**16 + 1)


class TestKcoverMapReduce:
    def test_matches_single_process_pipeline(self):
        inst, _ = generate_planted(5, 10_000, 5, 0.2, seed=1)
        for seed, machines in [(3, 2), (4, 5), (9, 16)]:
            sol, report = run_kcover_mapreduce(inst, 3, 0.9, 0.5, seed,
                                               machines)
            params = theory_params(inst.n, inst.m, inst.edge_count,
                                   k=3, eps=0.9)
            ref = greedy_kcover(
                build_sketch(inst, params, HashSource(seed)), 3)
            assert not report.divergence_flag
            assert sol.chosen == ref.chosen
            assert sol.coverage_value == ref.coverage_value

    def test_stochastic_solver_equivalence(self):
        inst, _ = generate_planted(4, 10_000, 8, 0.2, seed=2)
        sol, report = run_kcover_mapreduce(inst, 2, 0.9, 0.5, 7, 4,
                                           solver="stochastic")
        params = theory_params(inst.n, inst.m, inst.edge_count, k=2, eps=0.9)
        sk = build_sketch(inst, params, HashSource(7))
        ref = stochastic_greedy(sk, 2, 0.9, 7)
        assert not report.divergence_flag
        assert sol.chosen == ref.chosen

    def test_always_four_rounds_and_full_records(self):
        inst = random_instance(5, max_n=6, max_m=25)
        for machines in (2, 3, 7):
            _, report = run_kcover_mapreduce(inst, 2, 0.5, 0.5, 1, machines)
            assert report.rounds_executed == 4
            assert len(report.records) == machines * 4
            assert report.records.shape == (machines * 4, 5)
            assert report.records.dtype == np.int64
            lines = report.to_text().splitlines()
            assert len(lines) == machines * 4 + 1

    def test_deterministic_report(self):
        inst = random_instance(6, max_n=8, max_m=30)
        a = run_kcover_mapreduce(inst, 2, 0.5, 0.5, 3, 4)
        b = run_kcover_mapreduce(inst, 2, 0.5, 0.5, 3, 4)
        assert a[0].chosen == b[0].chosen
        assert np.array_equal(a[1].records, b[1].records)
        assert a[1].to_text() == b[1].to_text()

    def test_worker_load_accounting(self):
        inst, _ = generate_planted(4, 1000, 4, 0.2, seed=3)
        _, report = run_kcover_mapreduce(inst, 2, 0.9, 0.5, 5, 2)
        # Single worker holds the full edge share and receives one id unit
        # per selected element.
        selected = sum(r[2] for r in report.records if r[0] == 1 and r[1] == 3)
        assert report.loads[1] == inst.edge_count + selected
        assert report.max_load == report.loads[1]

    def test_coordinator_inbox_concentration(self):
        # Round-2 inbox holds one 3-unit tuple per reporting element; the
        # count stays below 3 * n_tilde in at least 99% of seeded runs.
        inst, _ = generate_planted(5, 10_000, 5, 0.2, seed=8)
        params = theory_params(inst.n, inst.m, inst.edge_count, k=3, eps=0.9)
        assert 2 * params.n_tilde / inst.m < 1
        good = 0
        for seed in range(100):
            _, report = run_kcover_mapreduce(inst, 3, 0.9, 0.5, seed, 8)
            tuples = sum(r[2] for r in report.records
                         if r[0] == 0 and r[1] == 2) // 3
            good += tuples <= 3 * params.n_tilde
        assert good >= 99

    def test_coordinator_load_bound(self):
        inst, _ = generate_planted(10, 2000, 40, 0.2, seed=4)
        params = theory_params(inst.n, inst.m, inst.edge_count, k=5, eps=0.5)
        _, report = run_kcover_mapreduce(inst, 5, 0.5, 0.5, 2, 6)
        assert report.coordinator_load <= 12 * (params.n_tilde + inst.n)

    def test_machine_count_validated(self):
        inst = loads_edge_list("0 0\n")
        with pytest.raises(ValueError):
            run_kcover_mapreduce(inst, 1, 0.5, 0.5, 0, 1)

    def test_solver_validated(self):
        inst = loads_edge_list("0 0\n1 1\n")
        with pytest.raises(ValueError):
            run_kcover_mapreduce(inst, 1, 0.5, 0.5, 0, 2, solver="magic")


class TestSetcoverMapReduce:
    def test_single_set_solution_four_rounds(self):
        # One set covers 4 of 6 elements; lambda = 0.5 is satisfied by it.
        inst = loads_edge_list("0 0\n0 1\n0 2\n0 3\n1 4\n2 5\n")
        sol, report = run_setcover_mapreduce(inst, 0.5, 0.2, 0.5, 1, 3)
        assert report.rounds_executed == 4
        assert len(sol.chosen) == 1

    def test_matches_sketch_engine_solver(self):
        inst, _ = generate_planted(5, 10_000, 10, 0.2, seed=5)
        lam, eps, seed = 0.05, 0.2, 11
        sol, report = run_setcover_mapreduce(inst, lam, eps, 0.5, seed, 4)
        ref = set_cover_outliers(inst, lam, eps, 0.5, seed, engine="sketch")
        assert not report.divergence_flag
        assert sol.chosen == ref.chosen
        assert sol.coverage_value == ref.coverage_value

    def test_planted_bound(self):
        import math
        inst, _ = generate_planted(10, 1000, 100, 0.2, seed=6)
        lam, eps = 0.01, 0.2
        sol, report = run_setcover_mapreduce(inst, lam, eps, 0.5, 3, 5)
        assert len(sol.chosen) <= (1 + eps) * math.log(1 / lam) * 10
        assert report.rounds_executed == 4

    def test_edge_mass_metric_logged(self):
        inst, _ = generate_planted(5, 500, 10, 0.2, seed=7)
        _, report = run_setcover_mapreduce(inst, 0.1, 0.2, 0.5, 2, 3)
        assert report.guess_count == len(report.sketch_edges_per_guess)
        assert report.sketch_edges == sum(report.sketch_edges_per_guess)
        assert report.sketch_edge_budget is not None
        assert report.within_budget == \
            (report.sketch_edges <= report.sketch_edge_budget)


class TestReportText:
    def test_record_columns(self):
        inst = random_instance(20, max_n=5, max_m=12)
        _, report = run_kcover_mapreduce(inst, 1, 0.5, 0.5, 0, 3)
        line = report.to_text().splitlines()[0]
        machine, rnd, uin, uout, peak = line.split()
        assert (int(machine), int(rnd)) == (0, 1)
        assert all(tok.isdigit() for tok in (uin, uout, peak))

    def test_summary_line(self):
        inst = random_instance(21, max_n=5, max_m=12)
        _, report = run_kcover_mapreduce(inst, 1, 0.5, 0.5, 0, 3)
        summary = report.to_text().splitlines()[-1]
        assert summary.startswith("rounds=4 machines=3 ")
        assert "divergence=" in summary

    def test_golden_demo_reports(self):
        # Pinned on the demo-03 runs: payloads are batched per owner and
        # guess, but every element still counts as one message.
        inst, _ = generate_planted(5, 10_000, 5, 0.2, seed=1)
        _, kcover = run_kcover_mapreduce(inst, 3, 0.9, 0.5, 42, 6)
        _, setcover = run_setcover_mapreduce(inst, 0.05, 0.2, 0.5, 7, 4)
        golden = [
            (kcover, 2256, 4552, "0 4 554 0 1108",
             "cbfd9cd48ce1432eb4ddc93a8c4fe3d0"
             "ae010e0342b1eba631987ae1b3bb299e"),
            (setcover, 300_000, 620_000, "0 4 220000 0 320000",
             "6057872dd529eaa5a3782c35b33c362f"
             "884ed6c5a1e078ca09e1d961cf7ef8f3"),
        ]
        for report, messages, units, round4, digest in golden:
            text = report.to_text()
            assert report.total_messages == messages
            assert report.total_message_units == units
            assert round4 in text.splitlines()
            assert hashlib.sha256(text.encode()).hexdigest() == digest

    def test_golden_diverging_report(self):
        # 300 edges on elements 0..199 of m = 3000: the reported mass stays
        # below n_tilde, so the flag is set and every report is shipped.
        rng = np.random.default_rng(0)
        inst = CoverageInstance.from_edges(6, 3000, rng.integers(0, 6, 300),
                                           rng.integers(0, 200, 300))
        _, report = run_kcover_mapreduce(inst, 2, 0.5, 0.5, 0, 4)
        text = report.to_text()
        assert report.divergence_flag
        assert report.total_messages == 1710
        assert report.total_message_units == 2340
        assert "0 4 60 0 630" in text.splitlines()
        assert hashlib.sha256(text.encode()).hexdigest() == (
            "cff0a1ec9da62069a9306e5187566a99"
            "76d1c3e4620f254f8b48a0ba37e0cbcd")

    def test_machine_bound_report_memory(self):
        # A 2-edge input on 2**16 machines: 262,144 record rows go from the
        # unit counters to the text as arrays, with no object per row.
        inst = loads_edge_list("0 0\n0 1\n")
        tracemalloc.start()
        try:
            _, kcover = run_kcover_mapreduce(inst, 1, 0.5, 0.5, 0, 2**16)
            _, setcover = run_setcover_mapreduce(inst, 0.5, 0.5, 0.5, 0,
                                                 2**16)
            text = kcover.to_text()
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 48 * 2**20
        assert setcover.records.shape == (2**18, 5)
        assert len(text.splitlines()) == 2**18 + 1
        assert hashlib.sha256(text.encode()).hexdigest() == (
            "c8906a5e0800311c76548bb80d177760"
            "810bdbd2a38040f2c55b7b47fbffb8a2")


# ---------------------------------------------------------------------------
# Simulated == single-process whenever the divergence flag is clear
# ---------------------------------------------------------------------------


@st.composite
def sim_cases(draw, max_n=7, max_m=24):
    """(instance, machines, eps, delta_dprime, seed) with empty elements,
    fewer elements than machines, degrees above the theory cap, and
    ``n_tilde`` both clamped to the edge count and below it."""
    n = draw(st.integers(1, max_n))
    rows = draw(st.lists(st.sets(st.integers(0, n - 1), max_size=n),
                         min_size=2, max_size=max_m))
    set_ids = [s for row in rows for s in sorted(row)]
    elem_ids = [v for v, row in enumerate(rows) for _ in row]
    inst = CoverageInstance.from_edges(n, len(rows), set_ids, elem_ids)
    return (inst, draw(st.integers(2, 9)),
            draw(st.sampled_from([0.1, 0.5, 0.9])),
            draw(st.sampled_from([0.01, 0.5, 1.0])),
            draw(st.integers(0, 2**64 - 1)))


def simulated_sketches(inst, machines, families):
    """Round-4 sketches, one per family, and the divergence flag of one
    simulated run."""
    runs, divergence, _, _ = distsim._run_sketch_rounds(
        inst, partition_input(inst, machines), families)
    return [distsim_reference.assemble_runs(inst, *run, *family)
            for run, family in zip(runs, families)], divergence


def outcome(sol):
    return sol.chosen, sol.coverage_value, sol.gains, sol.evaluated_on


def check_accounting(inst, report):
    """Loads are storage plus units received; every unit sent arrives; the
    coordinator receives exactly the sketch edges in round 4."""
    placement = partition_input(inst, report.machine_count)
    units_in = [0] * report.machine_count
    units_out = 0
    for mach, rnd, uin, uout, _ in report.records:
        units_in[mach] += uin
        units_out += uout
    assert report.loads == [store + got for store, got
                            in zip(placement.storage_units, units_in)]
    assert report.total_message_units == sum(units_in) == units_out
    assert report.records[3][:3].tolist() == [0, 4, report.sketch_edges]


class TestSimulateEqualsSingleProcess:
    @settings(max_examples=150, deadline=None)
    @given(sim_cases(), st.integers(0, 2**16))
    # No edges: n_tilde is 0 and no element reports, so the simulation
    # diverges, while the reference keeps the first element by hash.
    @example((CoverageInstance.from_edges(1, 2, [], []), 2, 0.5, 0.5, 0), 0)
    def test_kcover(self, case, k_pick):
        inst, machines, eps, delta_dprime, seed = case
        k = 1 + k_pick % inst.n
        params = theory_params(inst.n, inst.m, inst.edge_count, k=k, eps=eps,
                               delta_dprime=delta_dprime)
        source = HashSource(seed)
        sketches, divergence = simulated_sketches(
            inst, machines, [(source, params)])
        reference = build_sketch(inst, params, source)
        if not divergence:
            assert sketches[0] == reference
        for solver, ref in (
                ("greedy", greedy_kcover(reference, k)),
                ("stochastic", stochastic_greedy(reference, k, eps, seed))):
            sol, report = run_kcover_mapreduce(inst, k, eps, delta_dprime,
                                               seed, machines, solver=solver)
            assert report.divergence_flag == divergence
            check_accounting(inst, report)
            if not divergence:
                assert outcome(sol) == outcome(ref)

    @settings(max_examples=100, deadline=None)
    @given(sim_cases(), st.sampled_from([0.05, 0.2, 0.5]))
    def test_setcover(self, case, lam):
        inst, machines, eps, delta_dprime, seed = case
        families = [
            (HashSource(derive_seed(seed, i)),
             theory_params(inst.n, inst.m, inst.edge_count, k=g, eps=eps,
                           delta_dprime=delta_dprime))
            for i, g in enumerate(guess_ladder(inst.n, eps))]
        sketches, divergence = simulated_sketches(inst, machines, families)
        if not divergence:
            for sk, (source, params) in zip(sketches, families):
                assert sk == build_sketch(inst, params, source)
        try:
            sol, report = run_setcover_mapreduce(inst, lam, eps,
                                                 delta_dprime, seed, machines)
            got = outcome(sol)
        except InfeasibleError:
            got = report = None
        if report is not None:
            assert report.divergence_flag == divergence
            check_accounting(inst, report)
        if not divergence:
            try:
                want = outcome(set_cover_outliers(inst, lam, eps,
                                                  delta_dprime, seed,
                                                  engine="sketch"))
            except InfeasibleError:
                want = None
            assert got == want


def mixed_instance():
    """Random, every element covered; under the ``mixed`` case of
    :class:`TestLazyRound4` its walk crosses from clamped to unclamped."""
    rng = np.random.default_rng(5)
    mask = rng.random((1000, 40)) < 0.03
    mask[np.arange(1000), rng.integers(0, 40, 1000)] = True
    elem_ids, set_ids = np.nonzero(mask)
    return CoverageInstance.from_edges(40, 1000, set_ids, elem_ids)


class TestLazyRound4:
    """Round 4 solves a guess on its runs, without assembling its sketch,
    only when the ladder walk reaches it and the sketch leaves some edge
    out; clamped guesses share one greedy run on the instance.  Rounds 1-3
    and the unit accounting still cover every guess."""

    SEED, MACHINES = 3, 4
    # (instance, lam, eps, delta_dprime, walk); none diverges.  ``walk``
    # marks each guess the walk reaches up to the winner as clamped (C),
    # that is its sketch keeps every edge of the instance, or unclamped (U).
    # The clamped case has n_tilde at the edge count and caps at or above
    # the largest degree.  The mixed case's caps 21 and 11 lie above the
    # largest degree 9 and its later caps below it; those guesses keep
    # every element, degree-capped, and are solved on their runs.
    CASES = (
        (lambda: generate_planted(5, 2000, 10, 0.2, seed=3)[0],
         0.05, 0.7, 0.5, "UU"),
        (lambda: generate_planted(10, 2000, 50, 0.2, seed=1)[0],
         0.05, 0.5, 0.5, "CCCCC"),
        (mixed_instance, 0.05, 0.7, 0.5, "CCUUUUU"),
    )

    def cases(self):
        """(instance, lam, eps, delta_dprime) per case, after checking that
        its reference walk clamps as ``walk`` says."""
        for make, *knobs, walk in self.CASES:
            case = make(), *knobs
            _, reached = self.reference(case)
            assert "".join("UC"[flag] for flag in
                           self.clamped(case[0], reached)) == walk
            yield case

    def ladder(self, case):
        inst, _, eps, delta_dprime = case
        return guess_families(inst, eps, delta_dprime, self.SEED)

    def simulate(self, case):
        inst, lam, eps, delta_dprime = case
        return run_setcover_mapreduce(inst, lam, eps, delta_dprime,
                                      self.SEED, self.MACHINES)

    def reference(self, case):
        """Selection over the reference sketches, and the sketches of the
        ladder it consumed."""
        inst, lam, eps, _ = case
        reached = []

        def pairs():
            for g, source, params in self.ladder(case):
                reached.append(build_sketch(inst, params, source))
                yield g, reached[-1]

        return select_outlier_solution(pairs(), lam, eps), reached

    @staticmethod
    def count_calls(monkeypatch, module, name):
        counted = mock.Mock(wraps=getattr(module, name))
        monkeypatch.setattr(module, name, counted)
        return counted

    @staticmethod
    def record_runs(monkeypatch):
        """Wrap ``solvers._greedy_run``; returns the list that the runs of
        each call on runs are appended to."""
        solved = []
        greedy_run = solvers._greedy_run

        def record(*args, runs=None, **kwargs):
            if runs is not None:
                solved.append(runs)
            return greedy_run(*args, runs=runs, **kwargs)

        monkeypatch.setattr(solvers, "_greedy_run", record)
        return solved

    @staticmethod
    def clamped(inst, reached):
        """Per reached sketch: does it keep every edge of ``inst``?"""
        return [sk.instance.edge_count == inst.edge_count for sk in reached]

    def check_solved(self, inst, solved, reached):
        """Each unclamped reached guess is solved once on its runs, in walk
        order, and those runs assemble into its reference sketch; clamped
        ones are solved on the instance."""
        unclamped = [sk for sk, flag in zip(reached,
                                            self.clamped(inst, reached))
                     if not flag]
        assert len(solved) == len(unclamped)
        for runs, sk in zip(solved, unclamped):
            assert distsim_reference.assemble_runs(
                inst, *runs, HashSource(sk.hash_seed), sk.params) == sk

    def test_accounting_covers_every_guess(self):
        for case in self.cases():
            inst = case[0]
            _, report = self.simulate(case)
            ladder = self.ladder(case)
            assert not report.divergence_flag
            assert report.guess_count == len(ladder)
            assert report.sketch_edges_per_guess == [
                build_sketch(inst, params, source).instance.edge_count
                for _, source, params in ladder]
            check_accounting(inst, report)

    def test_simulation_assembles_up_to_the_winner(self, monkeypatch):
        """Round 4 assembles no sketch: it solves the reached guesses, up
        to the winner, on their runs."""
        assert not hasattr(distsim, "_assemble")
        assembled = self.count_calls(monkeypatch, sketch, "_assemble")
        solved = self.record_runs(monkeypatch)
        for case in self.cases():
            ref, reached = self.reference(case)
            assembled.reset_mock()
            solved.clear()
            sol, report = self.simulate(case)
            assert assembled.call_count == 0
            assert outcome(sol) == outcome(ref)
            assert len(reached) < report.guess_count
            self.check_solved(case[0], solved, reached)

    def test_sorts_only_cuts_that_can_drop_elements(self, monkeypatch):
        """Rounds 1-3 hash and sort a guess only when its cut can drop an
        element; round 4 sorts nothing, since greedy over the runs does not
        depend on their order; the sketch engine sorts only in its cuts.
        Every element of these fixtures has an edge and reports."""
        sorts = self.count_calls(monkeypatch, sketch, "_hash_order")
        hashes = self.count_calls(monkeypatch, sketch, "element_hash_array")
        assembled = self.count_calls(monkeypatch, sketch, "_assemble")
        # Per walk: sorts in (rounds 1-3, round 4, the sketch engine).  UU
        # sorts its first seven guesses (caps 8 to 2, capped mass above
        # n_tilde) once each, in round 2, and the sketch engine sorts its
        # two reached guesses in their cuts; its cap-1 guesses keep every
        # element.  Every guess of the other two cases keeps every element.
        want = {"UU": (7, 0, 2), "CCCCC": (0, 0, 0), "CCUUUUU": (0, 0, 0)}
        for (*_, walk), case in zip(self.CASES, self.cases()):
            inst, lam, eps, delta_dprime = case
            families = [(source, params)
                        for _, source, params in self.ladder(case)]
            sorts.reset_mock()
            hashes.reset_mock()
            distsim._run_sketch_rounds(
                inst, partition_input(inst, self.MACHINES), families)
            in_rounds = sorts.call_count
            assert hashes.call_count == in_rounds
            sorts.reset_mock()
            assembled.reset_mock()
            self.simulate(case)
            in_round4 = sorts.call_count - in_rounds
            sorts.reset_mock()
            set_cover_outliers(inst, lam, eps, delta_dprime, self.SEED,
                               engine="sketch")
            assert (in_rounds, in_round4, sorts.call_count) == want[walk]
            assert assembled.call_count == 0
            if walk == "CCCCC":
                # K-cover's one run, kept whole in id order by rounds 1-3,
                # is solved in id order: nothing is sorted or assembled.
                sorts.reset_mock()
                run_kcover_mapreduce(inst, 3, 0.5, 0.5, self.SEED,
                                     self.MACHINES)
                assert sorts.call_count == assembled.call_count == 0

    def test_sketch_engine_builds_up_to_the_winner(self, monkeypatch):
        """The sketch engine assembles no sketch either: it selects and
        solves the reached guesses, up to the winner, on their runs."""
        assert not hasattr(solvers, "_assemble")
        assembled = self.count_calls(monkeypatch, sketch, "_assemble")
        solved = self.record_runs(monkeypatch)
        hashed = self.count_calls(monkeypatch, solvers, "_selection")
        for case in self.cases():
            inst, lam, eps, delta_dprime = case
            ref, reached = self.reference(case)
            assembled.reset_mock()
            solved.clear()
            hashed.reset_mock()
            sol = set_cover_outliers(inst, lam, eps, delta_dprime, self.SEED,
                                     engine="sketch")
            assert assembled.call_count == 0
            assert outcome(sol) == outcome(ref)
            assert len(reached) < len(self.ladder(case))
            self.check_solved(inst, solved, reached)
            # Only the guesses the walk reaches are selected, in walk order.
            assert [(c.args[1], c.args[2].seed)
                    for c in hashed.call_args_list] == [
                (sk.params, sk.hash_seed) for sk in reached]


class TestExactMassTie:
    """A cut whose capped mass meets ``n_tilde`` exactly keeps every element
    only when none has capped degree 0; otherwise the zero-degree elements
    hashing after the cut are dropped, and rounds 1-3 must sort."""

    # Sets {0, 1, 2}, {3, 4}, {5}; elements 6-10 have no set.  With cap 1
    # the capped mass is 6, which is n_tilde.
    INST = CoverageInstance.from_edges(3, 11, [0, 0, 0, 1, 1, 2], range(6))
    PARAMS = SketchParams(mode="theory", n_tilde=6, degree_cap=1)

    def test_kept_set_matches_the_sort(self):
        inst, params = self.INST, self.PARAMS
        ids = np.arange(inst.m, dtype=np.int64)
        capped = np.minimum(inst.elem_degrees, params.degree_cap)
        dropped = 0
        for seed in range(20):
            source = HashSource(seed)
            want = _select_elements(element_hash_array(source, ids), capped,
                                    params)
            dropped += len(want) < inst.m
            for machines in (2, 3, 8):
                runs, divergence, _, _ = distsim._run_sketch_rounds(
                    inst, partition_input(inst, machines),
                    [(source, params)])
                assert not divergence
                np.testing.assert_array_equal(runs[0][0], want)
            np.testing.assert_array_equal(
                _selection(inst.elem_degrees, params, source)[0], want)
        # Some hash orders put an empty element after the sixth edge, so
        # the kept count, and with it the cover threshold, drops.
        assert dropped


# ---------------------------------------------------------------------------
# Rounds 1-3 == the per-guess reference loop
# ---------------------------------------------------------------------------


def check_rounds_match_reference(inst, machines, families):
    """``distsim._run_sketch_rounds`` equals the per-guess reference: the
    unit array, the message count, the divergence flag, and each family's
    runs once put into selection order."""
    placement = partition_input(inst, machines)
    runs, divergence, units, messages = distsim._run_sketch_rounds(
        inst, placement, families)
    want_runs, want_divergence, want_units, want_messages = \
        distsim_reference.run_sketch_rounds(inst, placement, families)
    assert divergence == want_divergence
    assert units.shape == (machines, 4, 3)
    assert units.dtype == np.int64
    np.testing.assert_array_equal(units, want_units)
    assert messages == want_messages
    assert len(runs) == len(want_runs) == len(families)
    for run, want_run, (source, params) in zip(runs, want_runs, families):
        have = distsim_reference.assemble_runs(inst, *run, source, params)
        np.testing.assert_array_equal(have.selected_elements, want_run[0])
        np.testing.assert_array_equal(have.instance.elem_degrees,
                                      want_run[1])
    return divergence


class TestRoundsEqualReference:
    """Rounds 1-3 without the per-guess sort and accounting equal the loop
    that sorted and charged each guess, on theory ladders and on drawn
    ones: zero-degree elements, caps below and above the largest degree,
    ``n_tilde`` at the capped mass exactly, and diverging runs on 2-9
    machines."""

    @settings(max_examples=200, deadline=None)
    @given(sim_cases(), st.data())
    def test_rounds(self, case, data):
        inst, machines, eps, delta_dprime, seed = case
        for ladder in (guess_families(inst, eps, delta_dprime, seed),
                       data.draw(drawn_ladders(inst, seed))):
            check_rounds_match_reference(
                inst, machines,
                [(source, params) for _, source, params in ladder])

    def test_golden_diverging_instance(self):
        # The instance of TestReportText.test_golden_diverging_report.
        rng = np.random.default_rng(0)
        inst = CoverageInstance.from_edges(6, 3000, rng.integers(0, 6, 300),
                                           rng.integers(0, 200, 300))
        ladder = guess_families(inst, 0.5, 0.5, 0)
        assert check_rounds_match_reference(
            inst, 4, [(source, params) for _, source, params in ladder])


# ---------------------------------------------------------------------------
# The shared run for clamped guesses == the walk that assembles every guess
# ---------------------------------------------------------------------------


@st.composite
def drawn_ladders(draw, inst, seed):
    """Ascending (guess, HashSource, SketchParams) rungs over ``inst``, as
    :func:`guess_families` returns them: caps below and above its largest
    degree, and ``n_tilde`` at its capped mass exactly (the tie that drops
    zero-degree elements hashing after the cut), above it (every element
    kept), or below it."""
    degrees = inst.elem_degrees
    guesses = sorted(draw(st.sets(st.integers(1, inst.n), min_size=1,
                                  max_size=5)))
    # Two caps at most, so that rungs share one and their ties differ only
    # in the zero-degree elements each hash cut drops.
    caps = st.integers(1, int(degrees.max(initial=0)) + 1)
    caps = st.sampled_from([draw(caps), draw(caps)])
    ladder = []
    for i, g in enumerate(guesses):
        cap = draw(caps)
        mass = int(np.minimum(degrees, cap).sum())
        n_tilde = max(1, mass + draw(st.sampled_from([0, 0, 1, -1, -3])))
        ladder.append((g, HashSource(derive_seed(seed, i)),
                       SketchParams(mode="theory", n_tilde=n_tilde,
                                    degree_cap=cap)))
    return ladder


def simulated_guesses(inst, machines, ladder):
    """(guess, selected, counts, source, params) per rung, from the runs
    rounds 1-3 ship."""
    runs, *_ = distsim._run_sketch_rounds(
        inst, partition_input(inst, machines),
        [(source, params) for _, source, params in ladder])
    return [(g, *run, source, params)
            for run, (g, source, params) in zip(runs, ladder)]


def engine_guesses(inst, ladder):
    """(guess, selected, counts, source, params) per rung, as the sketch
    engine hashes and selects."""
    degrees = inst.elem_degrees
    return [(g, *_selection(degrees, params, source), source, params)
            for g, source, params in ladder]


def walk_outcomes(inst, guesses, lam, eps):
    """(shortened walk, unshortened walk): ``solvers._walk_ladder`` on the
    per-guess runs, and select_outlier_solution after assembling every
    reached guess; each an outcome, or None when infeasible."""
    pairs = ((g, distsim_reference.assemble_runs(inst, sel, counts, source,
                                                 params))
             for g, sel, counts, source, params in guesses)
    runs = ((g, sel, counts) for g, sel, counts, _, _ in guesses)
    return (outcome_or_none(solvers._walk_ladder, inst, runs, lam, eps),
            outcome_or_none(select_outlier_solution, pairs, lam, eps))


def outcome_or_none(solve, *args, **kwargs):
    try:
        return outcome(solve(*args, **kwargs))
    except InfeasibleError:
        return None


class TestSharedLadderRun:
    """Clamped guesses answered from one shared greedy run give the outcome
    of assembling every reached guess, on theory ladders and on drawn
    ones, diverging simulations included."""

    @settings(max_examples=150, deadline=None)
    @given(sim_cases(), st.sampled_from([0.05, 0.2, 0.5]), st.data())
    def test_simulator(self, case, lam, data):
        inst, machines, eps, delta_dprime, seed = case
        ladder = guess_families(inst, eps, delta_dprime, seed)
        shortened, unshortened = walk_outcomes(
            inst, simulated_guesses(inst, machines, ladder), lam, eps)
        assert shortened == unshortened
        assert outcome_or_none(
            lambda: run_setcover_mapreduce(inst, lam, eps, delta_dprime,
                                           seed, machines)[0]) == unshortened
        ladder = data.draw(drawn_ladders(inst, seed))
        shortened, unshortened = walk_outcomes(
            inst, simulated_guesses(inst, machines, ladder), lam, eps)
        assert shortened == unshortened

    def test_ties_with_one_cap_do_not_share_a_threshold(self):
        # Sets {0, 1, 2}, {3, 4}, {5}; elements 6-10 have no set.  Both
        # guesses keep the whole capped mass (n_tilde 6 is met exactly), but
        # guess 1's cut also keeps the five empty elements: its threshold
        # is 6 of 11, guess 2's is 3 of 6.  Guess 1's two picks cover 5;
        # guess 2 stops after one pick.
        inst = CoverageInstance.from_edges(3, 11, [0, 0, 0, 1, 1, 2],
                                           range(6))
        params = SketchParams(mode="theory", n_tilde=6, degree_cap=1)
        guesses = [(1, np.r_[6:11, 0:6], np.r_[[0] * 5, [1] * 6]),
                   (2, np.arange(6), np.ones(6, dtype=np.int64))]
        shortened, unshortened = walk_outcomes(
            inst, [(g, sel, counts, HashSource(i), params)
                   for i, (g, sel, counts) in enumerate(guesses)], 0.5, 0.9)
        assert shortened == unshortened == ([0], 3, [3], "sketch")

    @settings(max_examples=150, deadline=None)
    @given(sim_cases(), st.sampled_from([0.05, 0.2, 0.5]), st.data())
    def test_sketch_engine(self, case, lam, data):
        inst, _, eps, delta_dprime, seed = case
        ladder = guess_families(inst, eps, delta_dprime, seed)
        pairs = ((g, build_sketch(inst, params, source))
                 for g, source, params in ladder)
        assert outcome_or_none(
            set_cover_outliers, inst, lam, eps, delta_dprime, seed,
            engine="sketch") == outcome_or_none(select_outlier_solution,
                                                pairs, lam, eps)
        ladder = data.draw(drawn_ladders(inst, seed))
        shortened, unshortened = walk_outcomes(
            inst, engine_guesses(inst, ladder), lam, eps)
        assert shortened == unshortened
