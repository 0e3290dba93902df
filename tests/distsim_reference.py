"""Per-guess simulated rounds 1-3: the reference for ``distsim``.

:func:`run_sketch_rounds` is the simulator's rounds 1-3 as the library ran
them before: every hash family hashes all m elements, sorts the reported
hashes in round 2 and charges its units with per-round ``np.bincount`` calls
inside the loop over families.  The tests hold
``distsim._run_sketch_rounds`` equal to it: every ``_Recorder`` array, the
message count, the divergence flag, and each tag's runs once put into
selection order.
"""

import numpy as np

from coversketch import sketch
from coversketch.distsim import COORDINATOR


def run_sketch_rounds(instance, placement, rec, families):
    """Rounds 1..3, and the round-4 accounting, for one or more hash families.

    ``families`` maps a tag to (HashSource, SketchParams); all tags share the
    same four rounds, and ``rec`` sums their units per machine and round.
    Returns ({tag: (selected ids, capped counts)}, any_divergence): the runs
    round 3 ships in selection order.
    """
    m, mc = instance.m, placement.machine_count
    owner = placement.owner

    def per_machine(elems, units=None):
        return np.bincount(owner[elems], weights=units,
                           minlength=mc).astype(np.int64)

    rec.storage_peak[:, 1:] = np.reshape(placement.storage_units, (mc, 1))
    ids = np.arange(m, dtype=np.int64)
    runs = {}
    divergence = False
    tuples_held = sel_units = sketch_units = 0
    for tag, (source, params) in families.items():
        # Round 1, map: owners report (id, hash, degree) of small hashes.
        h = sketch.element_hash_array(source, ids)
        rep = np.flatnonzero(h <= 2.0 * params.n_tilde / m)
        rec.units_out[:, 1] += 3 * per_machine(rep)
        rec.units_in[COORDINATOR, 2] += 3 * len(rep)
        rec.total_messages += len(rep)
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
        rec.units_out[COORDINATOR, 2] += len(sel)
        rec.units_in[:, 3] += per_machine(sel)
        rec.total_messages += len(sel)
        sel_units += len(sel)

        # Round 3, map: owners ship the capped runs of selected elements.
        shipped = per_machine(sel, counts)
        rec.units_out[:, 3] += shipped
        rec.units_in[COORDINATOR, 4] += shipped.sum()
        rec.total_messages += len(sel)
        runs[tag] = sel, counts
        sketch_units += shipped.sum()
    rec.storage_peak[COORDINATOR, 2] = tuples_held
    rec.storage_peak[COORDINATOR, 3] = sel_units
    rec.storage_peak[COORDINATOR, 4] = sel_units + sketch_units
    return runs, divergence
