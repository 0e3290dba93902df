"""Per-guess simulated rounds 1-3: the reference for ``distsim``.

:func:`run_sketch_rounds` is the simulator's rounds 1-3 as the library ran
them before: every hash family hashes all m elements, sorts the reported
hashes in round 2 and charges its units with per-round ``np.bincount`` calls
inside the loop over families.  The tests hold
``distsim._run_sketch_rounds`` equal to it: the unit array, the message
count, the divergence flag, and each family's runs once put into selection
order.

:func:`assemble_runs` is the sketch that a family's runs stand for, built
through ``CoverageInstance.from_edges`` rather than the library's assembly.
"""

import numpy as np

from coversketch import CoverageInstance, sketch
from coversketch.distsim import COORDINATOR
from coversketch.instance import _gather_positions

IN, OUT, PEAK = range(3)


def run_sketch_rounds(instance, placement, families):
    """Rounds 1..3, and the round-4 accounting, for one or more hash families.

    ``families`` lists (HashSource, SketchParams) pairs; all share the same
    four rounds.  Returns ``(runs, divergence, units, messages)``: per family
    the (selected ids, capped counts) runs round 3 ships in selection order,
    whether any family diverged, the ``(machines, 4, 3)`` array of units in,
    units out and storage peak per machine and round, and the message count.
    """
    m, mc = instance.m, placement.machine_count
    owner = placement.owner

    def per_machine(elems, units=None):
        return np.bincount(owner[elems], weights=units,
                           minlength=mc).astype(np.int64)

    units = np.zeros((mc, 4, 3), dtype=np.int64)
    units[:, :, PEAK] = np.reshape(placement.storage_units, (mc, 1))
    messages = 0
    ids = np.arange(m, dtype=np.int64)
    runs = []
    divergence = False
    tuples_held = sel_units = sketch_units = 0
    for source, params in families:
        # Round 1, map: owners report (id, hash, degree) of small hashes.
        h = sketch.element_hash_array(source, ids)
        rep = np.flatnonzero(h <= 2.0 * params.n_tilde / m)
        units[:, 0, OUT] += 3 * per_machine(rep)
        units[COORDINATOR, 1, IN] += 3 * len(rep)
        messages += len(rep)
        tuples_held += 3 * len(rep)

        # Round 2, coordinator reduce: the smallest-hash prefix of the
        # reports; ``rep`` ascends, so ties break by smaller id.
        capped = np.minimum(instance.elem_degrees[rep], params.degree_cap)
        keep = sketch._select_elements(h[rep], capped, params)
        sel, counts = rep[keep], capped[keep]
        if len(rep) < m and not (len(rep) and capped.sum() >= params.n_tilde):
            # The reference construction would keep drawing elements whose
            # hash exceeded the reporting threshold.
            divergence = True
        units[COORDINATOR, 1, OUT] += len(sel)
        units[:, 2, IN] += per_machine(sel)
        messages += len(sel)
        sel_units += len(sel)

        # Round 3, map: owners ship the capped runs of selected elements.
        shipped = per_machine(sel, counts)
        units[:, 2, OUT] += shipped
        units[COORDINATOR, 3, IN] += shipped.sum()
        messages += len(sel)
        runs.append((sel, counts))
        sketch_units += shipped.sum()
    units[COORDINATOR, 1, PEAK] = tuples_held
    units[COORDINATOR, 2, PEAK] = sel_units
    units[COORDINATOR, 3, PEAK] = sel_units + sketch_units
    return runs, divergence, units, messages


def assemble_runs(instance, selected, counts, source, params):
    """The sketch of ``instance`` whose elements are the runs ``(selected,
    counts)``: each selected element with its first ``counts`` sets.

    Theory-mode runs, in any order, are put into selection order: by hash,
    ties by smaller id.  Practical-mode runs are in selection order, which
    is id order.
    """
    if params.mode == "theory":
        order = np.lexsort((selected,
                            sketch.element_hash_array(source, selected)))
        selected, counts = selected[order], counts[order]
    set_ids = instance.elem_set_ids[_gather_positions(instance.elem_indptr,
                                                      selected, counts)]
    elem_ids = np.repeat(np.arange(len(selected), dtype=np.int64), counts)
    inst = CoverageInstance.from_edges(instance.n, len(selected), set_ids,
                                       elem_ids)
    return sketch.Sketch(instance=inst, hash_seed=source.seed, params=params,
                         selected_elements=np.asarray(selected,
                                                      dtype=np.int64),
                         original_m=instance.m)
