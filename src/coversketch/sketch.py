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

import math
from dataclasses import dataclass, field

import numpy as np

from .instance import (
    CoverageInstance,
    FractionalInstance,
    ProbabilisticInstance,
    WeightedInstance,
    _check_budget,
    _check_key_range,
    _format_rows,
    _gather_positions,
    _transpose,
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
    "serialize_sketch",
]

_MASK64 = (1 << 64) - 1
_GOLDEN = 0x9E3779B97F4A7C15
_MIX1 = 0xBF58476D1CE4E5B9
_MIX2 = 0x94D049BB133111EB
_U = np.uint64
_INV53 = float(2.0 ** -53)
_INT64_MAX = 2**63 - 1

# Stream tags keep independent hash families from colliding.
_TAG_ELEMENT = 0x01
_TAG_EDGE_COIN = 0x02
_TAG_SUBSEED = 0x03


def _mix_scalar(z: int) -> int:
    z &= _MASK64
    z = ((z ^ (z >> 30)) * _MIX1) & _MASK64
    z = ((z ^ (z >> 27)) * _MIX2) & _MASK64
    return z ^ (z >> 31)


def _mix_inplace(z: np.ndarray) -> np.ndarray:
    """Mix the uint64 array ``z`` in place and return it.

    Every caller passes a temporary it owns; the array form of
    :func:`_mix_scalar`.
    """
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
    z = keys.astype(_U)
    z += _U(_GOLDEN)
    _mix_inplace(z)
    z ^= _U(state)
    return _mix_inplace(z)


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

    :func:`sketch_probabilistic` draws the same coins for the edges of the
    copies it keeps, hashing the copy half of the key once per copy and the
    set half once per set; the tests compare it against this form.
    """
    base = source._base(_TAG_EDGE_COIN)
    z = _combine_array(base, np.asarray(flat_ids, dtype=np.int64))
    z ^= _combine_array(base ^ _GOLDEN, np.asarray(set_ids, dtype=np.int64))
    return _unit_array(_mix_inplace(z))


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

    Theory mode also records ``raw_n_tilde``, the target edge mass before the
    clamp to the edge count; it takes no part in equality.
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
    raw_n_tilde: int | None = field(default=None, compare=False)

    @property
    def cap(self) -> int:
        """The degree cap, clamped to the int64 range so that numpy can take
        the minimum of it and int64 degrees; no degree reaches the clamp."""
        cap = self.degree_cap if self.mode == "theory" else self.sigma
        return min(cap, _INT64_MAX)


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
    if 1.0 - eps == 1.0:
        # ln(1 / (1 - eps)) would be 0; any larger eps keeps every term finite.
        raise ValueError(f"eps={eps!r} is too small for theory mode: "
                         "1 - eps rounds to 1")
    if not 0.0 < delta_dprime <= 1.0:
        raise ValueError("delta_dprime must lie in (0, 1]")
    if m < 2:
        raise ValueError("need m >= 2")
    log_inv_eps = math.log(1.0 / eps)
    cap = math.ceil(n * log_inv_eps / (eps * k))
    guesses = max(2, math.ceil(math.log(m) / math.log(1.0 / (1.0 - eps))))
    delta = delta_dprime * math.log(guesses)
    raw = 24.0 * n * delta * log_inv_eps * math.log(n) / ((1.0 - eps) * eps ** 3)
    raw_n_tilde = max(1, math.ceil(raw))
    n_tilde = min(raw_n_tilde, int(edge_count))
    return SketchParams(mode="theory", k=k, eps=eps, delta_dprime=delta_dprime,
                        n_tilde=n_tilde, degree_cap=cap, delta=delta,
                        raw_n_tilde=raw_n_tilde)


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


def _hash_order(hashes: np.ndarray) -> np.ndarray:
    """Indices of ``hashes`` in ascending order, ties by smaller index.

    Distinct hashes have one ascending order, which the default sort finds;
    the stable sort runs only when two sorted hashes are equal.
    """
    order = np.argsort(hashes)
    ranked = hashes[order]
    if (ranked[1:] == ranked[:-1]).any():
        return np.argsort(hashes, kind="stable")
    return order


def _keeps_every_element(capped: np.ndarray, params: SketchParams) -> bool:
    """Whether the theory cut keeps every element whatever their hashes.

    It does when their capped mass stays below ``n_tilde``, or meets it and
    no element has capped degree 0: a zero-degree element hashing after the
    element that reaches ``n_tilde`` would be dropped.
    """
    mass = int(capped.sum())
    return mass < params.n_tilde or (mass == params.n_tilde
                                     and bool(capped.all()))


def _select_elements(hashes: np.ndarray, capped: np.ndarray,
                     params: SketchParams) -> np.ndarray:
    """Indices kept by the sampling rule, in selection order."""
    if params.mode == "practical":
        return np.flatnonzero(hashes < params.rho)
    order = _hash_order(hashes)  # by hash, ties by smaller id
    # Every element when their capped mass stays below n_tilde.
    cum = np.cumsum(capped[order])
    return order[:int(np.searchsorted(cum, params.n_tilde)) + 1]


def _assemble(n: int, selected: np.ndarray, counts: np.ndarray,
              set_ids: np.ndarray, seed: int, params: SketchParams,
              original_m: int, lookups: int | None = None) -> Sketch:
    """Sketch whose element ``i`` is ``selected[i]`` with the next
    ``counts[i]`` entries of ``set_ids``, distinct and ascending, as its sets.
    """
    elem_indptr = np.zeros(len(counts) + 1, dtype=np.int64)
    np.cumsum(counts, out=elem_indptr[1:])
    set_indptr, set_elems, _ = _transpose(elem_indptr, set_ids, n)
    inst = CoverageInstance(n, len(selected), set_indptr, set_elems,
                            elem_indptr, set_ids)
    return Sketch(instance=inst, hash_seed=seed, params=params,
                  selected_elements=np.asarray(selected, dtype=np.int64),
                  original_m=int(original_m), oracle_lookups=lookups)


def _in_selection_order(selected: np.ndarray, counts: np.ndarray,
                        source: HashSource, params: SketchParams):
    """The runs ``(selected, counts)`` in selection order.

    Theory-mode runs come in selection order, or in ascending id order when
    the cut kept every element (:func:`_keeps_every_element`).  Ascending
    runs are sorted by hash, then smaller id; a run in both orders sorts to
    itself.  Practical-mode selection order is id order.
    """
    if params.mode == "theory" and (selected[1:] > selected[:-1]).all():
        order = _hash_order(element_hash_array(source, selected))
        return selected[order], counts[order]
    return selected, counts


def _sketch_runs(instance: CoverageInstance, selected: np.ndarray,
                 counts: np.ndarray, source: HashSource,
                 params: SketchParams) -> Sketch:
    """Sketch whose element ``i`` is element ``selected[i]`` of ``instance``
    with its first ``counts[i]`` sets, after :func:`_in_selection_order`."""
    selected, counts = _in_selection_order(selected, counts, source, params)
    set_ids = instance.elem_set_ids[_gather_positions(instance.elem_indptr,
                                                      selected, counts)]
    return _assemble(instance.n, selected, counts, set_ids, source.seed,
                     params, instance.m)


def _selection(degrees: np.ndarray, params: SketchParams,
               source: HashSource) -> tuple[np.ndarray, np.ndarray]:
    """The elements :func:`build_sketch` keeps of an instance whose element
    degrees are ``degrees``, and their capped degrees: the runs
    :func:`_sketch_runs` assembles.

    A theory cut that keeps every element hashes and sorts nothing and
    returns the elements in id order; other cuts return selection order.
    """
    ids = np.arange(len(degrees), dtype=np.int64)
    capped = np.minimum(degrees, params.cap)
    if params.mode == "theory" and _keeps_every_element(capped, params):
        return ids, capped
    selected = _select_elements(element_hash_array(source, ids), capped,
                                params)
    return selected, capped[selected]


def build_sketch(instance: CoverageInstance, params: SketchParams,
                 source: HashSource) -> Sketch:
    """Construct the sketch of a materialized instance.

    Theory mode walks elements in increasing hash order (ties by smaller id)
    and stops once the retained edge mass reaches ``n_tilde`` or the instance
    is exhausted.  Practical mode keeps each element independently iff its
    hash falls below ``rho``.  A kept element retains its first
    ``min(cap, degree)`` edges, i.e. the smallest set ids.
    """
    return _sketch_runs(instance,
                        *_selection(instance.elem_degrees, params, source),
                        source, params)


def _sketch_keys(n: int, m: int, key: np.ndarray, params: SketchParams,
                 source: HashSource) -> Sketch:
    """:func:`build_sketch` of the instance with ``n`` sets, ``m`` elements
    and the sorted unique ``set * m + element`` keys ``key``.

    Only the kept elements' edges get a CSR; a cut that keeps every element
    takes every key.
    """
    elems = key % m
    selected, counts = _selection(np.bincount(elems, minlength=m), params,
                                  source)
    if len(selected) < m:
        keep = np.zeros(m, dtype=bool)
        keep[selected] = True
        key = key[keep[elems]]
    del elems
    return _sketch_runs(CoverageInstance._from_keys(n, m, key), selected,
                        counts, source, params)


def build_sketch_lazy(element_count: int, degree_oracle, edge_oracle,
                      params: SketchParams, source: HashSource,
                      set_count: int) -> Sketch:
    """Theory-mode construction from random access oracles.

    Instead of hashing every element, repeatedly draws a uniformly random
    not-yet-selected element (seeded by ``source``) and treats draw order as
    hash order, stopping once the retained edge mass reaches ``n_tilde``.
    Only the selected elements' degrees and retained edges are probed;
    ``oracle_lookups`` on the result counts the probes.  ``set_count`` bounds
    valid set ids coming back from ``edge_oracle``; repeated ids count once.
    """
    if params.mode != "theory":
        raise ValueError("lazy construction requires theory-mode params")
    if set_count < 1:
        raise ValueError("instance needs at least one set")
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
        blocks.append(sorted(set(edges)))
        mass += len(blocks[-1])
    set_ids = np.asarray([s for b in blocks for s in b], dtype=np.int64)
    counts = np.asarray([len(b) for b in blocks], dtype=np.int64)
    return _assemble(set_count, np.asarray(selected, dtype=np.int64), counts,
                     set_ids, source.seed, params, m, lookups=lookups)


# ---------------------------------------------------------------------------
# Weighted, fractional, and probabilistic transforms
#
# Each transform views the input as an implicit unweighted expansion: element
# v becomes copies with flat ids offset(v) + j, and copies are hashed exactly
# as the materialized expansion's elements would be.  Only the copies that the
# sampling rule keeps are expanded: their edges are gathered from the base
# adjacency, filtered per copy (by numerator or by seeded coin) and capped.
# The expansion itself is never built.  Degenerate parameters (all weights
# one, rho = 1 with no cap) therefore reproduce the plain constructions bit
# for bit.
# ---------------------------------------------------------------------------

_HASH_BLOCK = 1 << 18  # candidate copies hashed per block
_FIRST_CHUNK = 1 << 12  # kept copies expanded in the first chunk
_MAX_CHUNK = 1 << 16  # chunks double up to this many copies


def _copy_count(copies: np.ndarray) -> int:
    """Sum of per-element copy counts; unlike an int64 sum it never wraps."""
    approx = float(copies.sum(dtype=np.float64))
    return int(copies.sum()) if approx < 2**62 else int(approx)


def _copy_hashes(source: HashSource, shift: np.ndarray, starts: np.ndarray,
                 ends: np.ndarray, total: int):
    """Yield ``(lo, hashes)`` for the candidate copies, one block at a time.

    Candidate ``i`` of element v (``starts[v] <= i < ends[v]``) has flat id
    ``i + shift[v]``.
    """
    for lo in range(0, total, _HASH_BLOCK):
        hi = min(lo + _HASH_BLOCK, total)
        v0 = int(np.searchsorted(ends, lo, side="right"))
        v1 = int(np.searchsorted(ends, hi - 1, side="right")) + 1
        reps = np.minimum(ends[v0:v1], hi) - np.maximum(starts[v0:v1], lo)
        flat = np.arange(lo, hi, dtype=np.int64)
        flat += np.repeat(shift[v0:v1], reps)
        yield lo, element_hash_array(source, flat)


def _sketch_copies(base: CoverageInstance, first: np.ndarray,
                   copies: np.ndarray, total: int, edge_filter,
                   params: SketchParams, source: HashSource,
                   original_m: int) -> Sketch:
    """Sketch of the expansion where element v has copies ``j < copies[v]``.

    Copy (v, j) has flat id ``first[v] + j``; flat ids ascend with (v, j).  It
    holds the edges of v that ``edge_filter(flat, j, pos, copy)`` accepts,
    where ``pos`` are element-order positions in ``base`` and ``copy`` indexes
    ``flat`` and ``j``.  Copies left without an edge by the filter are
    dropped; with ``edge_filter=None`` every copy keeps all of v's edges and
    edgeless copies stay.  The result equals :func:`build_sketch` over the
    expansion's copies, but only the copies that the sampling rule reaches
    gather edges.
    """
    ends = np.cumsum(copies)
    starts = ends - copies
    cap = params.cap

    def expand(idx):
        """(flat ids, capped counts, edge positions grouped by copy) of idx."""
        v = np.searchsorted(ends, idx, side="right")
        j = idx - starts[v]
        flat_ids = first[v] + j
        if edge_filter is None:
            counts = np.minimum(base.elem_degrees[v], cap)
            return flat_ids, counts, _gather_positions(base.elem_indptr, v,
                                                       counts)
        degrees = base.elem_degrees[v]
        pos = _gather_positions(base.elem_indptr, v, degrees)
        copy = np.repeat(np.arange(len(idx), dtype=np.int64), degrees)
        hit = edge_filter(flat_ids, j, pos, copy)
        pos, copy = pos[hit], copy[hit]
        counts = np.bincount(copy, minlength=len(idx))
        rank = np.arange(len(copy)) - np.repeat(np.cumsum(counts) - counts,
                                                counts)
        pos = pos[rank < cap]
        np.minimum(counts, cap, out=counts)
        has_edge = counts > 0
        return flat_ids[has_edge], counts[has_edge], pos

    blocks = _copy_hashes(source, first - starts, starts, ends, total)
    if params.mode == "practical":
        walk = np.concatenate([np.empty(0, dtype=np.int64)] + [
            lo + np.flatnonzero(h < params.rho) for lo, h in blocks])
        n_tilde = None
    else:
        hashes = np.empty(total, dtype=np.float64)
        for lo, h in blocks:
            hashes[lo:lo + len(h)] = h
        walk = _hash_order(hashes)  # ties by smaller flat id
        del hashes
        n_tilde = params.n_tilde
    selected, counts, pos = _expand_in_chunks(expand, walk, n_tilde)
    return _assemble(base.n, selected, counts, base.elem_set_ids[pos],
                     source.seed, params, original_m)


def _expand_in_chunks(expand, walk: np.ndarray, n_tilde: int | None):
    """(flat ids, capped counts, edge positions) of the candidates ``walk``.

    Expands ``walk`` in order, in chunks of doubling size.  With ``n_tilde``
    set (theory mode) the walk stops at the first copy whose cumulative
    capped mass reaches it, the cut :func:`_select_elements` makes over every
    copy at once; when the mass never gets there, every copy is kept.
    """
    empty = np.empty(0, dtype=np.int64)
    parts = [(empty, empty, empty)]
    mass = lo = 0
    size = _FIRST_CHUNK
    while lo < len(walk):
        flat_ids, counts, pos = expand(walk[lo:lo + size])
        lo, size = lo + size, min(2 * size, _MAX_CHUNK)
        cum = mass + np.cumsum(counts)
        done = n_tilde is not None and cum.size and cum[-1] >= n_tilde
        if done:
            cut = int(np.searchsorted(cum, n_tilde)) + 1
            flat_ids, counts = flat_ids[:cut], counts[:cut]
            pos = pos[:int(cum[cut - 1]) - mass]
        parts.append((flat_ids, counts, pos))
        if done:
            break
        mass = int(cum[-1]) if cum.size else mass
    return tuple(map(np.concatenate, zip(*parts)))


def sketch_weighted(winst: WeightedInstance, params: SketchParams,
                    source: HashSource) -> Sketch:
    """Sketch of the implicit expansion with ``w_v`` unit copies per element.

    Copy (v, j) keeps v's edge list; its flat id is ``sum(w_u, u < v) + j``.
    With all weights one this is exactly :func:`build_sketch` on the base.
    The ``sum(w)`` copies are hashed; only the kept ones gather edges.
    """
    w = winst.element_weight
    total = _copy_count(w)
    _check_budget(total, "copies", "lower the weights")
    return _sketch_copies(winst.base, np.cumsum(w) - w, w, total, None,
                          params, source, total)


def sketch_fractional(finst: FractionalInstance, params: SketchParams,
                      source: HashSource) -> Sketch:
    """Sketch of the implicit expansion with ``U`` copies per element.

    Copy (v, j) is connected to set S iff ``j < alpha_{S,v} * U``; expansion
    coverage of any solution is exactly ``U`` times its fractional coverage.
    Flat ids are ``v * U + j``.  Only the copies with an edge, ``j`` below
    v's largest numerator, are hashed; copies with no edge are left out.
    """
    base, U = finst.base, finst.U
    copies = np.zeros(base.m, dtype=np.int64)
    has_edge = base.elem_degrees > 0
    if has_edge.any():
        copies[has_edge] = np.maximum.reduceat(finst.numer_elem_order,
                                               base.elem_indptr[:-1][has_edge])
    total = _copy_count(copies)
    _check_budget(total, "copies", "lower U")
    _check_key_range(base.m, U)

    def numer_hit(flat_ids, j, pos, copy):
        return finst.numer_elem_order[pos] > j[copy]

    first = np.arange(base.m, dtype=np.int64) * U
    return _sketch_copies(base, first, copies, total, numer_hit, params,
                          source, base.m * U)


def probabilistic_copy_count(n: int, U: int, eps: float) -> int:
    """Copies per element needed for a (1 +- eps/2) coverage estimate."""
    if not 0.0 < eps <= 1.0:
        raise ValueError("eps must lie in (0, 1]")
    return math.ceil(12.0 * (n + 1 + math.log(n)) * U / (eps * eps))


def sketch_probabilistic(pinst: ProbabilisticInstance, eps: float,
                         params: SketchParams, source: HashSource) -> Sketch:
    """Sketch of the seeded Bernoulli expansion of a probabilistic instance.

    Each element becomes ``zeta = ceil(12 (n + 1 + ln n) U / eps^2)`` copies;
    each copy's edge to a containing set is present independently with
    probability ``alpha_{S,v}``.  Expansion coverage divided by ``zeta``
    estimates probabilistic coverage within a relative ``eps/2`` for all
    solutions simultaneously, with high probability.  Coins are drawn only
    for the edges of copies that the sampling rule reaches; copies whose
    coins all fail are left out.
    """
    base = pinst.base
    zeta = probabilistic_copy_count(base.n, pinst.U, eps)
    _check_budget(zeta * base.m, "copies", "increase eps")
    coin_base = source._base(_TAG_EDGE_COIN)
    # Copy half of each coin key once per copy, set half once per set.
    set_half = _combine_array(coin_base ^ _GOLDEN,
                              np.arange(base.n, dtype=np.int64))

    def coin_hit(flat_ids, j, pos, copy):
        z = _combine_array(coin_base, flat_ids)[copy]
        z ^= set_half[base.elem_set_ids[pos]]
        coins = _unit_array(_mix_inplace(z))
        return coins < pinst.numer_elem_order[pos] / pinst.U

    return _sketch_copies(base, np.arange(base.m, dtype=np.int64) * zeta,
                          np.full(base.m, zeta, dtype=np.int64),
                          zeta * base.m, coin_hit, params, source,
                          base.m * zeta)


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
    selected = _format_rows([sk.selected_elements], end=b" ")[:-1]
    parts = [head, f"#original_m {sk.original_m}",
             "#selected " + selected.decode("ascii")]
    return _write_rows(sink, parts, *sk.instance.edges())
