"""Deterministic simulated MapReduce executor for the sketch pipelines.

A round is a map over element records, a shuffle by key, and a reduce.
Machine 0 is the coordinator; element v is owned by worker
``1 + (v mod (machine_count - 1))``.  Both pipelines run in exactly four
rounds, which every hash family (one per set-cover guess) shares:

1. map: each owner hashes its elements and emits an (id, hash, degree)
   record for every element whose hash is at most ``2 n_tilde / m``; the
   records shuffle to the coordinator.  Hashes lie below 1, so from
   ``2 n_tilde / m >= 1`` on every element reports and the simulation
   computes a hash only when a later step needs it,
2. coordinator reduce: over the reported records only, keep the
   smallest-hash prefix whose capped degree mass reaches ``n_tilde`` (the
   cut :func:`~coversketch.sketch.build_sketch` makes) and send each kept id
   to its owner.  When the reports' capped mass stays below ``n_tilde``, or
   meets it with no zero-degree report, the cut keeps every report and
   nothing is sorted: the kept ids stay in id order,
3. map: each owner emits the capped run of ascending set ids of each of its
   kept elements; the shuffle delivers the runs to the coordinator,
4. coordinator reduce: put runs left in id order into selection order (by
   hash, then smaller id), assemble the sketch from the runs, exactly as
   ``build_sketch`` does, and run the solver.  The set-cover ladder walk
   assembles a guess's sketch only when it reaches that guess, so guesses
   after the winner are never assembled.  A reached guess whose runs carry
   every edge of the input (``n_tilde`` clamped to the edge count and a
   degree cap at least the largest degree) is not assembled either: its
   sketch is the input up to element order, and such guesses share one
   greedy run per threshold.  Rounds 1-3 and all unit accounting still
   cover every guess; the accounting sums per-element counters over all
   guesses and charges them to machines once.

Locality: a map reads only what its machine owns, the ids and degrees
(round 1) and adjacency lists (round 3) of its elements plus the ids sent to
it; a reduce reads only the records shuffled to the coordinator.  Each round
runs as whole-array operations over every machine's records at once, and
``Placement.owner`` charges each record to the machine that sends or
receives it.

Accounting: ``total_messages`` counts one message per element record.  A
(id, hash, degree) record costs 3 units, an element-id notification 1 unit,
an edge 1 unit; guess tags are routing metadata and cost nothing.  A
machine's load is its initial storage (its edge share) plus every unit it
receives; ``units_out`` is reported per round but charged to the receiver.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .instance import CoverageInstance, _format_rows
from .sketch import (
    HashSource,
    _keeps_every_element,
    _select_elements,
    _sketch_runs,
    element_hash_array,
    theory_params,
)
from . import solvers

__all__ = [
    "Placement",
    "SimReport",
    "partition_input",
    "run_kcover_mapreduce",
    "run_setcover_mapreduce",
]

COORDINATOR = 0
# Most machines a simulation takes; its records and placement grow with it.
_MAX_MACHINES = 1 << 16


@dataclass(frozen=True)
class Placement:
    """Ownership map from elements to worker machines."""

    machine_count: int
    owner: np.ndarray                 # machine id per element
    storage_units: np.ndarray         # per machine, initial edge share


@dataclass
class SimReport:
    """Per-machine, per-round load accounting plus pipeline outcomes."""

    rounds_executed: int
    machine_count: int
    # int64, one row per machine and round, machine-major: machine, round,
    # units in, units out, storage peak.
    records: np.ndarray
    loads: list[int]
    max_load: int
    coordinator_load: int
    total_messages: int
    total_message_units: int
    divergence_flag: bool
    n_tilde: int
    sketch_edges: int
    solution_handoff: dict
    guess_count: int | None = None
    sketch_edges_per_guess: list[int] | None = None
    sketch_edge_budget: int | None = None
    within_budget: bool | None = None

    def to_text(self) -> str:
        return _format_rows(self.records.T).decode("ascii") + (
            f"rounds={self.rounds_executed} machines={self.machine_count} "
            f"max_load={self.max_load} coordinator_load={self.coordinator_load} "
            f"total_messages={self.total_messages} "
            f"total_units={self.total_message_units} "
            f"divergence={int(self.divergence_flag)} "
            f"value={self.solution_handoff.get('value')}\n")


def partition_input(instance: CoverageInstance, machine_count: int) -> Placement:
    """Assign element v to worker ``1 + (v mod (machine_count - 1))``.

    Machine 0 is the coordinator and stores nothing initially.  Machines
    beyond the element count simply idle with zero load.  At most
    ``2**16`` machines are simulated.
    """
    if machine_count < 2:
        raise ValueError("need a coordinator plus at least one worker")
    if machine_count > _MAX_MACHINES:
        raise ValueError(f"machine count {machine_count} is over the limit "
                         f"of {_MAX_MACHINES}")
    owner = 1 + np.arange(instance.m, dtype=np.int64) % (machine_count - 1)
    storage = np.bincount(owner, weights=instance.elem_degrees,
                          minlength=machine_count).astype(np.int64)
    return Placement(machine_count, owner, storage)


_IN, _OUT, _PEAK = range(3)  # columns of the (machine, round) unit array


def _run_sketch_rounds(instance, placement, families):
    """Rounds 1..3, and the round-4 accounting, for one or more hash families.

    ``families`` lists (HashSource, SketchParams) pairs; all share the same
    four rounds.  Returns ``(runs, divergence, units, messages)``: per
    family the (selected ids, capped counts) runs that round 3 ships, which
    round 4 assembles with :func:`~coversketch.sketch._sketch_runs` when it
    needs the sketch; whether any family diverged; a ``(machines, 4, 3)``
    int64 array of units in, units out and storage peak per machine and
    round, summed over the families; and the message count.  A cut that
    keeps every reported element leaves its run in id order, and the
    assembly puts it into selection order; other runs are in selection
    order already.
    """
    m, mc = instance.m, placement.machine_count
    ids = np.arange(m, dtype=np.int64)
    # Per element, over every family: records reported in round 1, ids
    # selected in round 2, and capped-run units shipped in round 3.
    reports = np.zeros(m, dtype=np.int64)
    selections = np.zeros(m, dtype=np.int64)
    shipped = np.zeros(m, dtype=np.int64)
    runs = []
    divergence = False
    for source, params in families:
        # Round 1, map: owners report (id, hash, degree) of hashes at most
        # 2 n_tilde / m.  Every hash is below 1, so from 1 on all report and
        # nothing needs hashing yet.
        bound = 2.0 * params.n_tilde / m
        rep, h = ids, None
        if bound < 1.0:
            h = element_hash_array(source, ids)
            rep = np.flatnonzero(h <= bound)
            h = h[rep]
        reports[rep] += 1

        # Round 2, coordinator reduce: every report, in id order, when the
        # cut keeps them all; else the smallest-hash prefix of the reports,
        # where ties break by smaller id because ``rep`` ascends.
        capped = np.minimum(instance.elem_degrees[rep], params.cap)
        if _keeps_every_element(capped, params):
            sel, counts = rep, capped
        else:
            if h is None:
                h = element_hash_array(source, rep)
            keep = _select_elements(h, capped, params)
            sel, counts = rep[keep], capped[keep]
        if len(rep) < m and not (len(rep) and capped.sum() >= params.n_tilde):
            # The reference construction would keep drawing elements whose
            # hash exceeded the reporting threshold.
            divergence = True
        selections[sel] += 1

        # Round 3, map: owners ship the capped runs of selected elements.
        shipped[sel] += counts
        runs.append((sel, counts))

    def per_machine(units):
        return np.bincount(placement.owner, weights=units,
                           minlength=mc).astype(np.int64)

    reported, selected, sketch_units = (
        int(reports.sum()), int(selections.sum()), int(shipped.sum()))
    units = np.zeros((mc, 4, 3), dtype=np.int64)
    units[:, :, _PEAK] = placement.storage_units[:, None]
    units[:, 0, _OUT] = 3 * per_machine(reports)
    units[COORDINATOR, 1, _IN] = 3 * reported
    units[COORDINATOR, 1, _PEAK] = 3 * reported
    units[COORDINATOR, 1, _OUT] = selected
    units[:, 2, _IN] = per_machine(selections)
    units[COORDINATOR, 2, _PEAK] = selected
    units[:, 2, _OUT] = per_machine(shipped)
    units[COORDINATOR, 3, _IN] = sketch_units
    units[COORDINATOR, 3, _PEAK] = selected + sketch_units
    # One message per report, per selected id and per shipped run.
    return runs, divergence, units, reported + 2 * selected


def _finalize(placement, units, messages, divergence, n_tilde, sketch_edges,
              handoff, **extra) -> SimReport:
    """The report of the accounting ``_run_sketch_rounds`` returned."""
    mc = placement.machine_count
    received = units[:, :, _IN].sum(axis=1)
    loads = (placement.storage_units + received).tolist()
    records = np.column_stack((np.repeat(np.arange(mc), 4),
                               np.tile(np.arange(1, 5), mc),
                               units.reshape(-1, 3)))
    return SimReport(
        rounds_executed=4,
        machine_count=mc,
        records=records,
        loads=loads,
        max_load=max(loads),
        coordinator_load=loads[COORDINATOR],
        total_messages=messages,
        total_message_units=int(received.sum()),
        divergence_flag=divergence,
        n_tilde=n_tilde,
        sketch_edges=sketch_edges,
        solution_handoff=handoff,
        **extra,
    )


def run_kcover_mapreduce(instance: CoverageInstance, k: int, eps: float,
                         delta_dprime: float, seed: int, machine_count: int,
                         solver: str = "greedy"):
    """Four-round distributed k-cover; returns (Solution, SimReport).

    When the divergence flag is clear, the assembled sketch and therefore the
    solution are identical to the single-process pipeline
    ``build_sketch(instance, theory_params(...), HashSource(seed))`` followed
    by the same solver with the same seed.
    """
    if solver not in ("greedy", "stochastic"):
        raise ValueError("solver must be 'greedy' or 'stochastic'")
    placement = partition_input(instance, machine_count)
    params = theory_params(instance.n, instance.m, instance.edge_count,
                           k=k, eps=eps, delta_dprime=delta_dprime)
    source = HashSource(seed)
    runs, divergence, units, messages = _run_sketch_rounds(
        instance, placement, [(source, params)])
    sk = _sketch_runs(instance, *runs[0], source, params)
    if solver == "greedy":
        sol = solvers.greedy_kcover(sk, k)
    else:
        sol = solvers.stochastic_greedy(sk, k, eps, seed)
    handoff = {"round": 4, "machine": COORDINATOR, "solver": solver,
               "value": sol.coverage_value, "k": k}
    report = _finalize(placement, units, messages, divergence, params.n_tilde,
                       sk.instance.edge_count, handoff)
    return sol, report


def run_setcover_mapreduce(instance: CoverageInstance, lam: float, eps: float,
                           delta_dprime: float, seed: int, machine_count: int):
    """Four-round distributed set cover with outliers.

    All guesses of the geometric ladder share the same four rounds; their
    records carry the guess index as a tag, and rounds 1-3 and all unit
    accounting cover every guess.  In round 4 the coordinator walks the
    ladder with the budgeted-greedy selection and assembles a guess's sketch
    only when the walk reaches it and the sketch leaves some edge out.
    """
    if not 0.0 < lam < 1.0:
        raise ValueError("lam must lie in (0, 1)")
    placement = partition_input(instance, machine_count)
    ladder = solvers.guess_families(instance, eps, delta_dprime, seed)
    runs, divergence, units, messages = _run_sketch_rounds(
        instance, placement,
        [(source, params) for _, source, params in ladder])
    sol = solvers._walk_ladder(
        instance, ((g, *run, source, params)
                   for run, (g, source, params) in zip(runs, ladder)),
        lam, eps)
    per_guess = [int(counts.sum()) for _, counts in runs]
    budget = sum(params.n_tilde + params.degree_cap
                 for _, _, params in ladder)
    handoff = {"round": 4, "machine": COORDINATOR, "solver": "greedy",
               "value": sol.coverage_value, "lambda": lam}
    report = _finalize(
        placement, units, messages, divergence, ladder[0][2].n_tilde,
        sum(per_guess), handoff, guess_count=len(ladder),
        sketch_edges_per_guess=per_guess, sketch_edge_budget=budget,
        within_budget=sum(per_guess) <= budget)
    return sol, report
