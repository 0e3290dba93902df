"""Adaptive-sampling sketches: subsample elements, cap their degrees.

A sketch is a reduced coverage instance built by hashing elements to [0, 1)
and keeping either a smallest-hash prefix until a target edge mass is reached
(theory mode) or every element hashing below a fixed rate ``rho`` (practical
mode).  Each kept element retains at most a capped number of edges, always the
smallest set ids in its list.  Solving k-cover on the sketch preserves greedy
approximation quality while the sketch size stays near-linear in the number
of sets.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass

import numpy as np

from .instance import (
    CoverageInstance,
    FractionalInstance,
    ProbabilisticInstance,
    WeightedInstance,
    _check_key_range,
    _write_rows,
)

__all__ = [
    "HashSource",
    "element_hash",
    "element_hash_array",
    "derive_seed",
    "SketchParams",
    "theory_params",
    "practical_params",
    "Sketch",
    "build_sketch",
    "build_sketch_lazy",
    "sketch_weighted",
    "sketch_fractional",
    "sketch_probabilistic",
    "probabilistic_copy_count",
    "materialize_weighted",
    "materialize_fractional",
    "materialize_probabilistic",
    "serialize_sketch",
]

_MASK64 = (1 << 64) - 1
_GOLDEN = 0x9E3779B97F4A7C15
_MIX1 = 0xBF58476D1CE4E5B9
_MIX2 = 0x94D049BB133111EB
_U = np.uint64
_INV53 = float(2.0 ** -53)

# Stream tags keep independent hash families from colliding.
_TAG_ELEMENT = 0x01
_TAG_EDGE_COIN = 0x02
_TAG_SUBSEED = 0x03


def _mix_scalar(z: int) -> int:
    z &= _MASK64
    z = ((z ^ (z >> 30)) * _MIX1) & _MASK64
    z = ((z ^ (z >> 27)) * _MIX2) & _MASK64
    return z ^ (z >> 31)


def _mix_array(z: np.ndarray) -> np.ndarray:
    z = z.astype(_U, copy=True)
    z ^= z >> _U(30)
    z *= _U(_MIX1)
    z ^= z >> _U(27)
    z *= _U(_MIX2)
    z ^= z >> _U(31)
    return z


def _unit_array(z: np.ndarray) -> np.ndarray:
    """Top 53 bits of each hash as a float on [0, 1)."""
    return (z >> _U(11)).astype(np.float64) * _INV53


def _combine_scalar(state: int, key: int) -> int:
    return _mix_scalar(state ^ _mix_scalar((key + _GOLDEN) & _MASK64))


def _combine_array(state: int, keys: np.ndarray) -> np.ndarray:
    z = _mix_array(keys.astype(_U) + _U(_GOLDEN))
    z ^= _U(state)
    return _mix_array(z)


@dataclass(frozen=True)
class HashSource:
    """Seeded source of deterministic uniform hashes on [0, 1)."""

    seed: int

    def _base(self, tag: int) -> int:
        return _combine_scalar(_mix_scalar(self.seed & _MASK64), tag)


def element_hash(source: HashSource, element_id: int) -> float:
    """Deterministic hash of an element id to [0, 1)."""
    z = _combine_scalar(source._base(_TAG_ELEMENT), int(element_id))
    return (z >> 11) * _INV53


def element_hash_array(source: HashSource, ids: np.ndarray) -> np.ndarray:
    """Vectorized :func:`element_hash`; bit-identical to the scalar form."""
    return _unit_array(_combine_array(source._base(_TAG_ELEMENT),
                                      np.asarray(ids, dtype=np.int64)))


def _edge_coin_array(source: HashSource, flat_ids: np.ndarray,
                     set_ids: np.ndarray) -> np.ndarray:
    """Uniform coins on [0, 1) keyed by (copy id, set id).

    :func:`_probabilistic_copy_graph` draws the same coins with each half of
    the key hashed once; the tests compare it against this form.
    """
    base = source._base(_TAG_EDGE_COIN)
    z = _combine_array(base, np.asarray(flat_ids, dtype=np.int64))
    return _unit_array(_mix_array(
        z ^ _combine_array(base ^ _GOLDEN, np.asarray(set_ids, dtype=np.int64))))


def derive_seed(seed: int, index: int) -> int:
    """Stable per-index sub-seed (e.g. one hash family per guess)."""
    return _combine_scalar(_combine_scalar(_mix_scalar(seed & _MASK64),
                                           _TAG_SUBSEED), int(index))


# ---------------------------------------------------------------------------
# Parameters
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class SketchParams:
    """Sketch knobs.

    Theory mode carries (k, eps, delta_dprime) plus the derived target edge
    mass ``n_tilde``, per-element ``degree_cap``, and ``delta``.  Practical
    mode carries the element sampling probability ``rho`` and degree cap
    ``sigma``.  All logarithms in the derivations are natural.
    """

    mode: str
    k: int | None = None
    eps: float | None = None
    delta_dprime: float | None = None
    n_tilde: int | None = None
    degree_cap: int | None = None
    delta: float | None = None
    rho: float | None = None
    sigma: int | None = None

    @property
    def cap(self) -> int:
        return self.degree_cap if self.mode == "theory" else self.sigma


def theory_params(n: int, m: int, edge_count: int, k: int, eps: float,
                  delta_dprime: float = 0.5) -> SketchParams:
    """Derive (n_tilde, degree_cap, delta) for the theory-mode sketch.

    ``degree_cap = ceil(n ln(1/eps) / (eps k))``.  The guess count
    ``L = max(2, ceil(ln m / ln(1/(1-eps))))`` gives
    ``delta = delta_dprime * ln L``, and the target edge mass is
    ``n_tilde = ceil(24 n delta ln(1/eps) ln n / ((1-eps) eps^3))`` clamped to
    ``[1, edge_count]``.
    """
    if not 1 <= k <= n:
        raise ValueError("need 1 <= k <= n")
    if not 0.0 < eps < 1.0:
        raise ValueError("eps must lie in (0, 1) in theory mode")
    if not 0.0 < delta_dprime <= 1.0:
        raise ValueError("delta_dprime must lie in (0, 1]")
    if m < 2:
        raise ValueError("need m >= 2")
    log_inv_eps = math.log(1.0 / eps)
    cap = math.ceil(n * log_inv_eps / (eps * k))
    guesses = max(2, math.ceil(math.log(m) / math.log(1.0 / (1.0 - eps))))
    delta = delta_dprime * math.log(guesses)
    raw = 24.0 * n * delta * log_inv_eps * math.log(n) / ((1.0 - eps) * eps ** 3)
    n_tilde = min(max(1, math.ceil(raw)), int(edge_count))
    return SketchParams(mode="theory", k=k, eps=eps, delta_dprime=delta_dprime,
                        n_tilde=n_tilde, degree_cap=cap, delta=delta)


def practical_params(rho: float, sigma: int) -> SketchParams:
    """Practical knobs: sampling probability and degree cap."""
    if not 0.0 < rho <= 1.0:
        raise ValueError("rho must lie in (0, 1]")
    if sigma < 1:
        raise ValueError("sigma must be >= 1")
    return SketchParams(mode="practical", rho=float(rho), sigma=int(sigma))


# ---------------------------------------------------------------------------
# Sketch container and the shared selection core
# ---------------------------------------------------------------------------


@dataclass(frozen=True, eq=False)
class Sketch:
    """A reduced instance plus the provenance needed to reproduce it.

    ``selected_elements`` holds original element ids (flat copy ids for the
    weighted transforms) in selection order; sketch element ``i`` is
    ``selected_elements[i]``.
    """

    instance: CoverageInstance
    hash_seed: int
    params: SketchParams
    selected_elements: np.ndarray
    original_m: int
    oracle_lookups: int | None = None

    def __eq__(self, other):
        if not isinstance(other, Sketch):
            return NotImplemented
        return (self.instance == other.instance
                and self.hash_seed == other.hash_seed
                and self.params == other.params
                and self.original_m == other.original_m
                and np.array_equal(self.selected_elements,
                                   other.selected_elements))


def _select_elements(hashes: np.ndarray, capped: np.ndarray,
                     params: SketchParams) -> np.ndarray:
    """Indices kept by the sampling rule, in selection order."""
    if params.mode == "practical":
        return np.flatnonzero(hashes < params.rho)
    order = np.argsort(hashes, kind="stable")  # by hash, ties by smaller id
    # Every element when their capped mass stays below n_tilde.
    cum = np.cumsum(capped[order])
    return order[:int(np.searchsorted(cum, params.n_tilde)) + 1]


def _gather_capped(indptr: np.ndarray, flat_sets: np.ndarray,
                   picks: np.ndarray, counts: np.ndarray):
    """First ``counts[i]`` entries of each picked adjacency list, concatenated."""
    total = int(counts.sum())
    if total == 0:
        return (np.empty(0, dtype=np.int64), np.empty(0, dtype=np.int64))
    block_start = np.cumsum(counts) - counts
    offsets = np.repeat(block_start, counts)
    within = np.arange(total, dtype=np.int64) - offsets
    src = np.repeat(indptr[picks], counts) + within
    new_elem = np.repeat(np.arange(len(picks), dtype=np.int64), counts)
    return flat_sets[src], new_elem


def _assemble(n: int, selected: np.ndarray, set_ids: np.ndarray,
              new_elem_ids: np.ndarray, seed: int, params: SketchParams,
              original_m: int, lookups: int | None = None) -> Sketch:
    inst = CoverageInstance.from_edges(n, len(selected), set_ids, new_elem_ids)
    return Sketch(instance=inst, hash_seed=seed, params=params,
                  selected_elements=np.asarray(selected, dtype=np.int64),
                  original_m=int(original_m), oracle_lookups=lookups)


def build_sketch(instance: CoverageInstance, params: SketchParams,
                 source: HashSource) -> Sketch:
    """Construct the sketch of a materialized instance.

    Theory mode walks elements in increasing hash order (ties by smaller id)
    and stops once the retained edge mass reaches ``n_tilde`` or the instance
    is exhausted.  Practical mode keeps each element independently iff its
    hash falls below ``rho``.  A kept element retains its first
    ``min(cap, degree)`` edges, i.e. the smallest set ids.
    """
    hashes = element_hash_array(source, np.arange(instance.m, dtype=np.int64))
    capped = np.minimum(instance.elem_degrees, params.cap)
    selected = _select_elements(hashes, capped, params)
    set_ids, new_elems = _gather_capped(
        instance.elem_indptr, instance.elem_set_ids, selected, capped[selected])
    return _assemble(instance.n, selected, set_ids, new_elems,
                     source.seed, params, instance.m)


def build_sketch_lazy(element_count: int, degree_oracle, edge_oracle,
                      params: SketchParams, source: HashSource,
                      set_count: int) -> Sketch:
    """Theory-mode construction from random access oracles.

    Instead of hashing every element, repeatedly draws a uniformly random
    not-yet-selected element (seeded by ``source``) and treats draw order as
    hash order, stopping once the retained edge mass reaches ``n_tilde``.
    Only the selected elements' degrees and retained edges are probed;
    ``oracle_lookups`` on the result counts the probes.  ``set_count`` bounds
    valid set ids coming back from ``edge_oracle``.
    """
    if params.mode != "theory":
        raise ValueError("lazy construction requires theory-mode params")
    m = int(element_count)
    rng = np.random.default_rng(source.seed & _MASK64)
    swap: dict[int, int] = {}
    selected: list[int] = []
    blocks: list[list[int]] = []
    mass = 0
    lookups = 0
    for t in range(m):
        if mass >= params.n_tilde:
            break
        j = int(rng.integers(t, m))
        v = swap.get(j, j)
        swap[j] = swap.get(t, t)
        deg = int(degree_oracle(v))
        lookups += 1
        take = min(params.degree_cap, deg)
        edges = []
        for i in range(take):
            s = int(edge_oracle(v, i))
            lookups += 1
            if not 0 <= s < set_count:
                raise ValueError(f"edge oracle returned out-of-range set id {s}")
            edges.append(s)
        selected.append(v)
        blocks.append(edges)
        mass += take
    set_ids = np.asarray([s for b in blocks for s in b], dtype=np.int64)
    new_elems = np.repeat(np.arange(len(selected), dtype=np.int64),
                          [len(b) for b in blocks])
    return _assemble(set_count, np.asarray(selected, dtype=np.int64),
                     set_ids, new_elems, source.seed, params, m,
                     lookups=lookups)


# ---------------------------------------------------------------------------
# Weighted, fractional, and probabilistic transforms
#
# Each transform views the input as an implicit unweighted expansion: element
# v becomes copies with flat ids offset(v) + j, and copies are hashed exactly
# as the materialized expansion's elements would be.  Degenerate parameters
# (all weights one, rho = 1 with no cap) therefore reproduce the plain
# constructions bit for bit.
# ---------------------------------------------------------------------------


def _sketch_over_copies(n: int, flat_ids: np.ndarray, copy_indptr: np.ndarray,
                        copy_sets: np.ndarray, params: SketchParams,
                        source: HashSource, original_m: int) -> Sketch:
    degrees = np.diff(copy_indptr)
    hashes = element_hash_array(source, flat_ids)
    capped = np.minimum(degrees, params.cap)
    picks = _select_elements(hashes, capped, params)
    set_ids, new_elems = _gather_capped(copy_indptr, copy_sets, picks,
                                        capped[picks])
    return _assemble(n, flat_ids[picks], set_ids, new_elems,
                     source.seed, params, original_m)


def sketch_weighted(winst: WeightedInstance, params: SketchParams,
                    source: HashSource) -> Sketch:
    """Sketch of the implicit expansion with ``w_v`` unit copies per element.

    Copy (v, j) keeps v's edge list; its flat id is ``sum(w_u, u < v) + j``.
    With all weights one this is exactly :func:`build_sketch` on the base.
    """
    base = winst.base
    w = winst.element_weight
    total = int(w.sum())
    v_of_copy = np.repeat(np.arange(base.m, dtype=np.int64), w)
    flat_ids = np.arange(total, dtype=np.int64)
    deg = base.elem_degrees[v_of_copy]
    copy_indptr = np.concatenate(([0], np.cumsum(deg)))
    copy_sets, _ = _gather_capped(base.elem_indptr, base.elem_set_ids,
                                  v_of_copy, deg)
    return _sketch_over_copies(base.n, flat_ids, copy_indptr, copy_sets,
                               params, source, total)


def _copy_graph(base: CoverageInstance, per_elem: int, counts: np.ndarray,
                j: np.ndarray):
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
    # Sorting leaves each element's entries in its own block, so any
    # per-position value spread over its entries lines up with sorted keys.
    spread = functools.partial(np.repeat, repeats=counts)
    key = spread(lo * (per_elem - 1) + np.arange(len(v)))
    key += j * spread(deg)
    key.sort()
    key -= spread(lo * per_elem)
    copy, key = np.divmod(key, spread(deg))
    key += spread(lo)  # element-order position of each entry's edge
    sets = base.elem_set_ids[key]
    del key  # freed before the boundaries below allocate
    copy += spread(v * per_elem)  # flat copy ids
    starts = np.flatnonzero(np.diff(copy, prepend=-1))
    return copy[starts], np.append(starts, copy.size), sets


def _fractional_copy_graph(finst: FractionalInstance):
    """Copy-level adjacency: copy (v, j) joins sets with numerator > j.

    Copies with no edges are dropped (an all-zero fraction contributes no
    copies); remaining flat ids are ``v * U + j``.
    """
    # The edge at element-order position p joins copies 0 .. numer[p]-1.
    reps = finst.numer_elem_order
    j = np.arange(int(reps.sum()), dtype=np.int64)
    j -= np.repeat(np.cumsum(reps) - reps, reps)
    return _copy_graph(finst.base, finst.U, reps, j)


def sketch_fractional(finst: FractionalInstance, params: SketchParams,
                      source: HashSource) -> Sketch:
    """Sketch of the implicit expansion with ``U`` copies per element.

    Copy (v, j) is connected to set S iff ``j < alpha_{S,v} * U``; expansion
    coverage of any solution is exactly ``U`` times its fractional coverage.
    """
    flat_ids, indptr, sets = _fractional_copy_graph(finst)
    return _sketch_over_copies(finst.base.n, flat_ids, indptr, sets, params,
                               source, finst.base.m * finst.U)


def probabilistic_copy_count(n: int, U: int, eps: float) -> int:
    """Copies per element needed for a (1 +- eps/2) coverage estimate."""
    if not 0.0 < eps <= 1.0:
        raise ValueError("eps must lie in (0, 1]")
    return math.ceil(12.0 * (n + 1 + math.log(n)) * U / (eps * eps))


def _probabilistic_copy_graph(pinst: ProbabilisticInstance, zeta: int,
                              source: HashSource):
    """Seeded Bernoulli expansion: copy (v, j) joins S with prob alpha_{S,v}."""
    base = pinst.base
    counts = np.zeros(base.edge_count, dtype=np.int64)
    hits = [np.empty(0, dtype=np.int64)]
    coin_base = source._base(_TAG_EDGE_COIN)
    for v in range(base.m):
        lo, hi = base.elem_indptr[v], base.elem_indptr[v + 1]
        # Copy half of the coin key once per element, set half once per edge.
        copy_half = _combine_array(
            coin_base, v * zeta + np.arange(zeta, dtype=np.int64))
        for p, s, a in zip(range(lo, hi), base.elem_set_ids[lo:hi].tolist(),
                           pinst.numer_elem_order[lo:hi].tolist()):
            if a == 0:
                continue
            set_half = _U(_combine_scalar(coin_base ^ _GOLDEN, s))
            coins = _unit_array(_mix_array(copy_half ^ set_half))
            hits.append(np.flatnonzero(coins < a / pinst.U))
            counts[p] = hits[-1].size
    return _copy_graph(base, zeta, counts, np.concatenate(hits))


def sketch_probabilistic(pinst: ProbabilisticInstance, eps: float,
                         params: SketchParams, source: HashSource,
                         expansion_budget: int = 10_000_000) -> Sketch:
    """Sketch of the seeded Bernoulli expansion of a probabilistic instance.

    Each element becomes ``zeta = ceil(12 (n + 1 + ln n) U / eps^2)`` copies;
    each copy's edge to a containing set is present independently with
    probability ``alpha_{S,v}``.  Expansion coverage divided by ``zeta``
    estimates probabilistic coverage within a relative ``eps/2`` for all
    solutions simultaneously, with high probability.
    """
    zeta = probabilistic_copy_count(pinst.base.n, pinst.U, eps)
    if zeta * pinst.base.m > expansion_budget:
        raise ValueError(
            f"expansion needs {zeta * pinst.base.m} copies, over the budget of "
            f"{expansion_budget}; increase eps or the budget")
    flat_ids, indptr, sets = _probabilistic_copy_graph(pinst, zeta, source)
    return _sketch_over_copies(pinst.base.n, flat_ids, indptr, sets, params,
                               source, pinst.base.m * zeta)


# --- materialized expansions (verification mirrors of the implicit route) ---


def materialize_weighted(winst: WeightedInstance) -> CoverageInstance:
    """Explicit unit-copy expansion; flat ids match :func:`sketch_weighted`."""
    base = winst.base
    w = winst.element_weight
    total = int(w.sum())
    v_of_copy = np.repeat(np.arange(base.m, dtype=np.int64), w)
    copy_sets, copy_ids = _gather_capped(base.elem_indptr, base.elem_set_ids,
                                         v_of_copy, base.elem_degrees[v_of_copy])
    return CoverageInstance.from_edges(base.n, total, copy_sets, copy_ids)


def materialize_fractional(finst: FractionalInstance) -> CoverageInstance:
    """Explicit U-copy expansion on flat ids ``v * U + j`` (isolated copies kept)."""
    flat_ids, indptr, sets = _fractional_copy_graph(finst)
    elem_ids = np.repeat(flat_ids, np.diff(indptr))
    return CoverageInstance.from_edges(finst.base.n, finst.base.m * finst.U,
                                       sets, elem_ids)


def materialize_probabilistic(pinst: ProbabilisticInstance, eps: float,
                              source: HashSource) -> tuple[CoverageInstance, int]:
    """Explicit seeded Bernoulli expansion; returns (instance, zeta)."""
    zeta = probabilistic_copy_count(pinst.base.n, pinst.U, eps)
    flat_ids, indptr, sets = _probabilistic_copy_graph(pinst, zeta, source)
    elem_ids = np.repeat(flat_ids, np.diff(indptr))
    inst = CoverageInstance.from_edges(pinst.base.n, pinst.base.m * zeta,
                                       sets, elem_ids)
    return inst, zeta


# ---------------------------------------------------------------------------
# Serialization
# ---------------------------------------------------------------------------


def serialize_sketch(sk: Sketch, sink=None) -> str | None:
    """Edge-list text of the reduced graph with a provenance header.

    The header records mode, seed, and parameters; `#selected` lists the
    original element ids in selection order.  The body re-loads as a plain
    instance since `#` lines are comments.
    """
    p = sk.params
    if p.mode == "practical":
        head = (f"#sketch mode=practical seed={sk.hash_seed} "
                f"rho={p.rho!r} sigma={p.sigma}")
    else:
        head = (f"#sketch mode=theory seed={sk.hash_seed} k={p.k} "
                f"eps={p.eps!r} delta_dprime={p.delta_dprime!r} "
                f"n_tilde={p.n_tilde} degree_cap={p.degree_cap} "
                f"delta={p.delta!r}")
    parts = [head, f"#original_m {sk.original_m}",
             "#selected " + " ".join(map(str, sk.selected_elements.tolist()))]
    return _write_rows(sink, parts, *sk.instance.edges())
