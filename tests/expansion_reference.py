"""Materialized unit-copy expansions: the reference for the variant sketches.

``sketch_weighted``, ``sketch_fractional`` and ``sketch_probabilistic`` expand
only the copies that their sampling rule keeps, and keep one weighted element
per distinct (element, capped run).  This module builds the whole copy graph
first (every copy's edge list, and for the probabilistic variant every coin)
and then samples it, the way the library did before; ``merge_copies`` then
groups the copies of such a sketch in a plain loop.  The tests hold the
library sketches equal to the merged ``reference_*`` sketches here.

Hashes are looked up on the sketch module at call time, and both sides
take them from ``coversketch.sketch._element_bits``, so a test that patches
that function patches both sides.
"""

import functools

import numpy as np
from hypothesis import strategies as st

from coversketch import CoverageInstance, sketch
from coversketch.instance import _check_key_range, _gather_positions
from coversketch.sketch import (
    Sketch,
    SketchParams,
    _GOLDEN,
    _TAG_EDGE_COIN,
    _U,
    _combine_array,
    _combine_scalar,
    _mix_inplace,
    _select_elements,
    _unit_array,
    practical_params,
    probabilistic_copy_count,
)


@st.composite
def sketch_params(draw, max_cap=6, max_n_tilde=40):
    """Practical or theory params for small instances.

    Caps fall below and above the degrees; ``n_tilde`` is either reachable
    or beyond every small instance's mass, so theory mode takes all of it.
    """
    cap = draw(st.integers(1, max_cap))
    if draw(st.booleans()):
        rho = draw(st.sampled_from([0.2, 0.5, 0.8, 1.0]))
        return practical_params(rho, cap)
    n_tilde = draw(st.one_of(st.integers(1, max_n_tilde), st.just(10**9)))
    return SketchParams(mode="theory", n_tilde=n_tilde, degree_cap=cap)


def copy_graph(base, per_elem, counts, j):
    """(flat copy ids, indptr, sets) of copies with at least one edge.

    The edge at element-order position p joins ``counts[p]`` copies of its
    element v, whose indices ``j < per_elem`` are listed grouped by p; copy
    j has flat id ``v * per_elem + j``.  With ``lo, deg`` the start and
    length of v's edges, ``lo * per_elem + j * deg + (p - lo)`` orders the
    entries by element, copy and set, and stays below ``per_elem * E``.
    """
    _check_key_range(per_elem, max(base.m, base.edge_count))
    v = np.repeat(np.arange(base.m, dtype=np.int64), base.elem_degrees)
    lo, deg = base.elem_indptr[v], base.elem_degrees[v]
    spread = functools.partial(np.repeat, repeats=counts)
    key = spread(lo * (per_elem - 1) + np.arange(len(v)))
    key += j * spread(deg)
    key.sort()
    key -= spread(lo * per_elem)
    copy, key = np.divmod(key, spread(deg))
    key += spread(lo)  # element-order position of each entry's edge
    sets = base.elem_set_ids[key]
    copy += spread(v * per_elem)  # flat copy ids
    starts = np.flatnonzero(np.diff(copy, prepend=-1))
    return copy[starts], np.append(starts, copy.size), sets


def weighted_copy_graph(winst):
    """(flat ids, indptr, sets) of every copy, isolated ones included."""
    base, w = winst.base, winst.element_weight
    v_of_copy = np.repeat(np.arange(base.m, dtype=np.int64), w)
    deg = base.elem_degrees[v_of_copy]
    copy_sets = base.elem_set_ids[_gather_positions(base.elem_indptr,
                                                    v_of_copy, deg)]
    return (np.arange(int(w.sum()), dtype=np.int64),
            np.concatenate(([0], np.cumsum(deg))), copy_sets)


def fractional_copy_graph(finst):
    """Copy-level adjacency: copy (v, j) joins sets with numerator > j."""
    reps = finst.numer_elem_order
    j = np.arange(int(reps.sum()), dtype=np.int64)
    j -= np.repeat(np.cumsum(reps) - reps, reps)
    return copy_graph(finst.base, finst.U, reps, j)


def edge_coin_array(source, flat_ids, set_ids):
    """Uniform coins on [0, 1) keyed by (copy id, set id), as floats.

    ``sketch_probabilistic`` draws the same coins for the edges of the
    copies it keeps, but never as floats.  It hashes the copy half of the
    key once per kept copy and reads the set half from a per-edge table;
    a coin is then a gather, an xor and one mix, and it compares the bits
    with the edge's ``_unit_limit`` of ``numerator / U`` from a second
    table, which decides exactly as ``coin < numerator / U``.
    """
    base = source._base(_TAG_EDGE_COIN)
    z = _combine_array(base, np.asarray(flat_ids, dtype=np.int64))
    z ^= _combine_array(base ^ _GOLDEN, np.asarray(set_ids, dtype=np.int64))
    return _unit_array(_mix_inplace(z))


def probabilistic_copy_graph(pinst, zeta, source):
    """Seeded Bernoulli expansion: copy (v, j) joins S with prob alpha_{S,v}."""
    base = pinst.base
    counts = np.zeros(base.edge_count, dtype=np.int64)
    hits = [np.empty(0, dtype=np.int64)]
    coin_base = source._base(_TAG_EDGE_COIN)
    for v in range(base.m):
        lo, hi = base.elem_indptr[v], base.elem_indptr[v + 1]
        copy_half = _combine_array(
            coin_base, v * zeta + np.arange(zeta, dtype=np.int64))
        for p, s, a in zip(range(lo, hi), base.elem_set_ids[lo:hi].tolist(),
                           pinst.numer_elem_order[lo:hi].tolist()):
            if a == 0:
                continue
            set_half = _U(_combine_scalar(coin_base ^ _GOLDEN, s))
            coins = _unit_array(_mix_inplace(copy_half ^ set_half))
            hits.append(np.flatnonzero(coins < a / pinst.U))
            counts[p] = hits[-1].size
    return copy_graph(base, zeta, counts, np.concatenate(hits))


def sketch_over_copies(n, flat_ids, copy_indptr, copy_sets, params, source,
                       original_m):
    """``build_sketch`` over a copy graph, keyed by flat copy ids.

    The sketch instance comes from ``CoverageInstance.from_edges``, not from
    the run-based assembly that the library sketches use.
    """
    degrees = np.diff(copy_indptr)
    hashes = sketch.element_hash_array(source, flat_ids)
    capped = np.minimum(degrees, params.cap)
    picks = _select_elements(hashes, capped, params)
    set_ids = copy_sets[_gather_positions(copy_indptr, picks, capped[picks])]
    new_elems = np.repeat(np.arange(len(picks), dtype=np.int64),
                          capped[picks])
    inst = CoverageInstance.from_edges(n, len(picks), set_ids, new_elems)
    return Sketch(instance=inst, hash_seed=source.seed, params=params,
                  selected_elements=flat_ids[picks],
                  original_m=int(original_m))


def merge_copies(sk, owners):
    """``sk``, a sketch of unit copies, with one weighted element per
    distinct (element, run): ``owners[i]`` is the base element of sketch
    element ``i``.  The first copy of a group in selection order stands for
    it, groups keep the order of those copies, and each weight counts its
    group's copies (None when every weight is 1).
    """
    indptr = sk.instance.elem_indptr.tolist()
    set_ids = sk.instance.elem_set_ids.tolist()
    groups = {}  # (element, run) -> [first copy, copy count]
    for i, owner in enumerate(np.asarray(owners).tolist()):
        key = (owner, tuple(set_ids[indptr[i]:indptr[i + 1]]))
        if key in groups:
            groups[key][1] += 1
        else:
            groups[key] = [i, 1]
    rows, weights, sets, elems = [], [], [], []
    for (_, run), (i, count) in groups.items():
        sets += run
        elems += [len(rows)] * len(run)
        rows.append(i)
        weights.append(count)
    inst = CoverageInstance.from_edges(sk.instance.n, len(rows), sets, elems)
    weight = np.asarray(weights, dtype=np.int64)
    return Sketch(instance=inst, hash_seed=sk.hash_seed, params=sk.params,
                  selected_elements=sk.selected_elements[rows],
                  original_m=sk.original_m,
                  element_weight=None if (weight == 1).all() else weight)


def weighted_owners(winst, flat_ids):
    """Base element of each flat copy id of the weighted expansion."""
    return np.searchsorted(np.cumsum(winst.element_weight), flat_ids,
                           side="right")


def reference_weighted(winst, params, source, merge=True):
    """The library's ``sketch_weighted``; with ``merge=False`` the sketch of
    the unit copies it merges."""
    sk = sketch_over_copies(winst.base.n, *weighted_copy_graph(winst), params,
                            source, int(winst.element_weight.sum()))
    if not merge:
        return sk
    return merge_copies(sk, weighted_owners(winst, sk.selected_elements))


def reference_fractional(finst, params, source, merge=True):
    sk = sketch_over_copies(finst.base.n, *fractional_copy_graph(finst),
                            params, source, finst.base.m * finst.U)
    return merge_copies(sk, sk.selected_elements // finst.U) if merge else sk


def reference_probabilistic(pinst, eps, params, source, merge=True):
    zeta = probabilistic_copy_count(pinst.base.n, pinst.U, eps)
    graph = probabilistic_copy_graph(pinst, zeta, source)
    sk = sketch_over_copies(pinst.base.n, *graph, params, source,
                            pinst.base.m * zeta)
    return merge_copies(sk, sk.selected_elements // zeta) if merge else sk


def materialize_weighted(winst):
    """Explicit unit-copy expansion; flat ids match ``sketch_weighted``."""
    flat_ids, indptr, sets = weighted_copy_graph(winst)
    return CoverageInstance.from_edges(
        winst.base.n, len(flat_ids), sets,
        np.repeat(flat_ids, np.diff(indptr)))


def materialize_fractional(finst):
    """Explicit U-copy expansion on flat ids ``v * U + j`` (isolated copies kept)."""
    flat_ids, indptr, sets = fractional_copy_graph(finst)
    elem_ids = np.repeat(flat_ids, np.diff(indptr))
    return CoverageInstance.from_edges(finst.base.n, finst.base.m * finst.U,
                                       sets, elem_ids)


def materialize_probabilistic(pinst, eps, source):
    """Explicit seeded Bernoulli expansion; returns (instance, zeta)."""
    zeta = probabilistic_copy_count(pinst.base.n, pinst.U, eps)
    flat_ids, indptr, sets = probabilistic_copy_graph(pinst, zeta, source)
    elem_ids = np.repeat(flat_ids, np.diff(indptr))
    inst = CoverageInstance.from_edges(pinst.base.n, pinst.base.m * zeta,
                                       sets, elem_ids)
    return inst, zeta
