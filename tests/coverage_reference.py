"""Per-set loops: the reference for the coverage scorers.

``coverage``, ``coverage_weighted``, ``coverage_fractional`` and
``coverage_probabilistic`` in ``coversketch.solvers`` read the edges of all
the chosen sets in one gather.  The functions here visit the distinct chosen
sets one at a time, in first-occurrence order, the way the library did
before; the tests hold the library scorers equal to these with ``==``,
floats included.
"""

import numpy as np

from coversketch.solvers import _check_ids


def covered(inst, chosen):
    """Mask of the elements of ``inst`` that the chosen sets cover."""
    mask = np.zeros(inst.m, dtype=bool)
    for s in _check_ids(inst.n, chosen):
        mask[inst.set_elements(s)] = True
    return mask


def coverage(inst, chosen, weight=None):
    """Union size, or with element ``weight`` the union's total weight."""
    mask = covered(inst, chosen)
    return int(mask.sum() if weight is None else weight[mask].sum())


def coverage_fractional(finst, chosen):
    """Sum over elements of the best fraction any chosen set provides."""
    base = finst.base
    best = np.zeros(base.m, dtype=np.int64)
    for s in _check_ids(base.n, chosen):
        lo, hi = base.set_indptr[s], base.set_indptr[s + 1]
        np.maximum.at(best, base.set_elems[lo:hi], finst.numer_set_order[lo:hi])
    return float(best.sum()) / finst.U


def coverage_probabilistic(pinst, chosen):
    """Sum over elements of 1 - prod(1 - alpha), set by set."""
    base = pinst.base
    miss = np.ones(base.m, dtype=np.float64)
    for s in _check_ids(base.n, chosen):
        lo, hi = base.set_indptr[s], base.set_indptr[s + 1]
        np.multiply.at(miss, base.set_elems[lo:hi],
                       1.0 - pinst.numer_set_order[lo:hi] / pinst.U)
    return float((1.0 - miss).sum())
