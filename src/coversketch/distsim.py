"""Deterministic simulated MapReduce executor for the sketch pipelines.

Machines exchange messages only at synchronous round barriers; a machine sees
its own storage plus the messages delivered into the current round, nothing
else.  Machine 0 is the coordinator; elements are owned by worker machines
under modular placement.  Both pipelines run in exactly four rounds:

1. owners hash their elements and report (id, hash, degree) tuples below the
   hash threshold to the coordinator,
2. the coordinator picks the smallest-hash prefix whose capped degree mass
   reaches the target and notifies the owners,
3. owners ship the retained (capped) edges of selected elements, one run of
   ascending set ids per element,
4. the coordinator puts the runs in selection order, assembles the sketch
   from them without sorting edges, and runs the solver.

Each round's data from one machine to another travels as one batched payload
per guess tag (in round 3: ids, capped counts and the concatenated edges),
but ``total_messages`` counts one message per element the payload carries.

Accounting: a (id, hash, degree) tuple costs 3 units, an element-id
notification 1 unit, an edge 1 unit; guess tags on messages are routing
metadata and cost nothing.  A machine's load is its initial storage (its edge
share) plus every unit it receives; ``units_out`` is reported per round but
charged to the receiver.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .instance import CoverageInstance
from .sketch import (
    HashSource,
    _assemble,
    _gather_capped,
    _gather_positions,
    derive_seed,
    element_hash_array,
    theory_params,
)
from . import solvers

__all__ = [
    "Machine",
    "Placement",
    "SimReport",
    "partition_input",
    "run_kcover_mapreduce",
    "run_setcover_mapreduce",
]

COORDINATOR = 0


@dataclass
class Machine:
    """One simulated machine.

    A machine step sees only ``storage`` (its private data) and ``inbox``
    (messages delivered at the last round barrier).  ``load_counter``
    accumulates the units it processes: initial storage plus everything
    received.
    """

    id: int
    inbox: list
    storage: dict
    load_counter: int = 0


@dataclass(frozen=True)
class Placement:
    """Ownership map from elements to worker machines."""

    machine_count: int
    owner: np.ndarray                 # machine id per element
    elements: list[np.ndarray]        # per machine, owned element ids
    storage_units: list[int]          # per machine, initial edge share


@dataclass
class SimReport:
    """Per-machine, per-round load accounting plus pipeline outcomes."""

    rounds_executed: int
    machine_count: int
    records: list[tuple[int, int, int, int, int]]  # machine, round, in, out, peak
    loads: list[int]
    max_load: int
    coordinator_load: int
    total_messages: int
    total_message_units: int
    divergence_flag: bool
    n_tilde: int
    sketch_edges: int
    solution_handoff: dict
    placement_counts: list[int]
    guess_count: int | None = None
    sketch_edges_per_guess: list[int] | None = None
    sketch_edge_budget: int | None = None
    within_budget: bool | None = None

    def to_text(self) -> str:
        lines = [f"{mach} {rnd} {uin} {uout} {peak}"
                 for mach, rnd, uin, uout, peak in self.records]
        lines.append(
            f"rounds={self.rounds_executed} machines={self.machine_count} "
            f"max_load={self.max_load} coordinator_load={self.coordinator_load} "
            f"total_messages={self.total_messages} "
            f"total_units={self.total_message_units} "
            f"divergence={int(self.divergence_flag)} "
            f"value={self.solution_handoff.get('value')}")
        return "\n".join(lines) + "\n"


def partition_input(instance: CoverageInstance, machine_count: int) -> Placement:
    """Assign element v to worker ``1 + (v mod (machine_count - 1))``.

    Machine 0 is the coordinator and stores nothing initially.  Machines
    beyond the element count simply idle with zero load.
    """
    if machine_count < 2:
        raise ValueError("need a coordinator plus at least one worker")
    workers = machine_count - 1
    owner = 1 + np.arange(instance.m, dtype=np.int64) % workers
    elements = [np.empty(0, dtype=np.int64)]
    elements += [np.arange(w - 1, instance.m, workers, dtype=np.int64)
                 for w in range(1, machine_count)]
    units = np.bincount(owner, weights=instance.elem_degrees,
                        minlength=machine_count)
    storage = [int(u) for u in units]
    return Placement(machine_count, owner, elements, storage)


class _Recorder:
    """Collects per-(machine, round) unit counters."""

    def __init__(self, machine_count: int, rounds: int):
        self.machine_count = machine_count
        self.rounds = rounds
        self.units_in = np.zeros((machine_count, rounds + 1), dtype=np.int64)
        self.units_out = np.zeros((machine_count, rounds + 1), dtype=np.int64)
        self.storage_peak = np.zeros((machine_count, rounds + 1), dtype=np.int64)
        self.total_messages = 0

    def records(self):
        return [(mach, rnd, int(self.units_in[mach, rnd]),
                 int(self.units_out[mach, rnd]),
                 int(self.storage_peak[mach, rnd]))
                for mach in range(self.machine_count)
                for rnd in range(1, self.rounds + 1)]


def _boot_machines(instance: CoverageInstance, placement: Placement):
    """Create machines and load each worker's private edge lists.

    A worker stores its owned elements as a CSR slice: ascending ``ids``,
    their ``degrees``, and ``sets`` split by ``indptr``.  Initial storage
    counts toward load; the coordinator starts empty.
    """
    machines = [Machine(id=i, inbox=[], storage={},
                        load_counter=placement.storage_units[i])
                for i in range(placement.machine_count)]
    for w in range(1, placement.machine_count):
        ids = placement.elements[w]
        degrees = instance.elem_degrees[ids]
        sets = _gather_capped(instance.elem_indptr, instance.elem_set_ids,
                              ids, degrees)
        machines[w].storage.update(
            ids=ids, degrees=degrees, sets=sets,
            indptr=np.concatenate(([0], np.cumsum(degrees))))
    return machines


def _barrier(machines, rec, rnd, outbox):
    """Deliver queued (dst, units, count, payload) messages into ``rnd``.

    The outbox is emptied, so delivered payloads live only in inboxes.
    """
    for mach in machines:
        mach.inbox = []
    for dst, units, count, payload in outbox:
        machines[dst].inbox.append(payload)
        machines[dst].load_counter += units
        rec.units_in[dst, rnd] += units
        rec.total_messages += count
    outbox.clear()


def _fields_by_tag(inbox, tags):
    """Per tag, one tuple of arrays per payload field, one array per message.

    Every worker sends one payload per tag each round, so no tag is missing.
    """
    parts = {tag: [] for tag in tags}
    for tag, *fields in inbox:
        parts[tag].append(fields)
    return {tag: list(zip(*p)) for tag, p in parts.items()}


def _run_sketch_rounds(instance, placement, rec, families):
    """Rounds 1..3 plus round-4 assembly, for one or more hash families.

    ``families`` maps a tag to (HashSource, SketchParams); all tags share the
    same four rounds, with messages carrying the tag as routing metadata.
    Machines read only their own storage and inbox.  Returns
    ({tag: Sketch}, any_divergence, machines).
    """
    m = instance.m
    mc = placement.machine_count
    machines = _boot_machines(instance, placement)
    for w in range(mc):
        rec.storage_peak[w, 1:] = placement.storage_units[w]

    # Round 1: owners hash their elements and report small-hash tuples.
    outbox = []
    for w in range(1, mc):
        store = machines[w].storage
        owned, degs = store["ids"], store["degrees"]
        for tag, (source, params) in families.items():
            thresh = 2.0 * params.n_tilde / m if m else 0.0
            h = element_hash_array(source, owned)
            mask = h <= thresh
            count = int(mask.sum())
            rec.units_out[w, 1] += 3 * count
            outbox.append((COORDINATOR, 3 * count, count,
                           (tag, owned[mask], h[mask], degs[mask])))
    _barrier(machines, rec, 2, outbox)

    # Round 2: coordinator picks the smallest-hash prefix per family and
    # notifies each owner of its selected elements.
    coord = machines[COORDINATOR]
    reports = _fields_by_tag(coord.inbox, families)
    selections = {}
    divergence = False
    tuples_held = 0
    for tag, (source, params) in families.items():
        ids, hs, dg = map(np.concatenate, reports[tag])
        tuples_held += 3 * len(ids)
        order = np.lexsort((ids, hs))
        ids, dg = ids[order], dg[order]
        capped = np.minimum(dg, params.degree_cap)
        cum = np.cumsum(capped)
        if len(cum) and cum[-1] >= params.n_tilde:
            stop = int(np.searchsorted(cum, params.n_tilde, side="left")) + 1
        else:
            stop = len(ids)
            if len(ids) < m:
                # The reference construction would keep drawing elements
                # whose hash exceeded the reporting threshold.
                divergence = True
        sel = ids[:stop]
        selections[tag] = sel
        coord.storage[("selected", tag)] = sel
        rec.units_out[COORDINATOR, 2] += stop
        for w in range(1, mc):
            mine = sel[placement.owner[sel] == w]
            outbox.append((w, len(mine), len(mine), (tag, mine)))
    rec.storage_peak[COORDINATOR, 2] = tuples_held
    sel_units = sum(len(s) for s in selections.values())
    rec.storage_peak[COORDINATOR, 3] = sel_units
    _barrier(machines, rec, 3, outbox)

    # Round 3: owners ship the capped edges of their selected elements, one
    # batched payload per guess tag, counted as one message per element.
    for w in range(1, mc):
        store = machines[w].storage
        for tag, mine in machines[w].inbox:
            pos = np.searchsorted(store["ids"], mine)
            counts = np.minimum(store["degrees"][pos],
                                families[tag][1].degree_cap)
            edges = _gather_capped(store["indptr"], store["sets"], pos,
                                   counts)
            rec.units_out[w, 3] += len(edges)
            outbox.append((COORDINATOR, len(edges), len(mine),
                           (tag, mine, counts, edges)))
    _barrier(machines, rec, 4, outbox)

    # Round 4: coordinator assembles one sketch per family.  Each shipped
    # run is a capped prefix of an element's ascending set list, so putting
    # the runs in selection-rank order gives the sketch's element view.
    received = _fields_by_tag(coord.inbox, families)
    coord.inbox = []  # consumed; each tag's parts are freed once assembled
    rank = np.empty(m, dtype=np.int64)
    sketches = {}
    sketch_units = 0
    for tag, (source, params) in families.items():
        sel = coord.storage[("selected", tag)]
        ids, counts, set_ids = map(np.concatenate, received.pop(tag))
        rank[sel] = np.arange(len(sel), dtype=np.int64)
        order = np.empty(len(ids), dtype=np.int64)
        order[rank[ids]] = np.arange(len(ids), dtype=np.int64)
        indptr = np.concatenate(([0], np.cumsum(counts)))
        counts = counts[order]
        set_ids = set_ids[_gather_positions(indptr, order, counts)]
        sketches[tag] = _assemble(instance.n, sel, counts, set_ids,
                                  source.seed, params, m)
        sketch_units += len(set_ids)
    rec.storage_peak[COORDINATOR, 4] = sel_units + sketch_units
    return sketches, divergence, machines


def _finalize(rec, placement, machines, divergence, n_tilde, sketch_edges,
              handoff, **extra) -> SimReport:
    loads = [mach.load_counter for mach in machines]
    return SimReport(
        rounds_executed=4,
        machine_count=placement.machine_count,
        records=rec.records(),
        loads=loads,
        max_load=max(loads),
        coordinator_load=loads[COORDINATOR],
        total_messages=rec.total_messages,
        total_message_units=int(rec.units_in.sum()),
        divergence_flag=divergence,
        n_tilde=n_tilde,
        sketch_edges=sketch_edges,
        solution_handoff=handoff,
        placement_counts=[len(e) for e in placement.elements],
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
    rec = _Recorder(machine_count, 4)
    sketches, divergence, machines = _run_sketch_rounds(
        instance, placement, rec, {0: (HashSource(seed), params)})
    sk = sketches[0]
    if solver == "greedy":
        sol = solvers.greedy_kcover(sk, k)
    else:
        sol = solvers.stochastic_greedy(sk, k, eps, seed)
    handoff = {"round": 4, "machine": COORDINATOR, "solver": solver,
               "value": sol.coverage_value, "k": k}
    report = _finalize(rec, placement, machines, divergence, params.n_tilde,
                       sk.instance.edge_count, handoff)
    return sol, report


def run_setcover_mapreduce(instance: CoverageInstance, lam: float, eps: float,
                           delta_dprime: float, seed: int, machine_count: int):
    """Four-round distributed set cover with outliers.

    All guesses of the geometric ladder share the same four rounds; their
    messages carry the guess index as a tag.  The coordinator runs the
    budgeted-greedy selection over the assembled sketches in round 4.
    """
    if not 0.0 < lam < 1.0:
        raise ValueError("lam must lie in (0, 1)")
    placement = partition_input(instance, machine_count)
    guesses = solvers.guess_ladder(instance.n, eps)
    families = {}
    for i, g in enumerate(guesses):
        params = theory_params(instance.n, instance.m, instance.edge_count,
                               k=g, eps=eps, delta_dprime=delta_dprime)
        families[i] = (HashSource(derive_seed(seed, i)), params)
    rec = _Recorder(machine_count, 4)
    sketches, divergence, machines = _run_sketch_rounds(instance, placement,
                                                        rec, families)
    pairs = [(g, sketches[i]) for i, g in enumerate(guesses)]
    sol = solvers.select_outlier_solution(pairs, lam, eps)
    per_guess = [sketches[i].instance.edge_count for i in range(len(guesses))]
    budget = sum(families[i][1].n_tilde + families[i][1].degree_cap
                 for i in range(len(guesses)))
    handoff = {"round": 4, "machine": COORDINATOR, "solver": "greedy",
               "value": sol.coverage_value, "lambda": lam}
    report = _finalize(
        rec, placement, machines, divergence, families[0][1].n_tilde,
        sum(per_guess), handoff, guess_count=len(guesses),
        sketch_edges_per_guess=per_guess, sketch_edge_budget=budget,
        within_budget=sum(per_guess) <= budget)
    return sol, report
