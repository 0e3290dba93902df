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


def _mix_inplace(z: np.ndarray, buffer: np.ndarray | None = None
                 ) -> np.ndarray:
    """Mix the uint64 array ``z`` in place and return it.

    Every caller passes a temporary it owns; the array form of
    :func:`_mix_scalar`.  The shifted words go through ``buffer`` (an
    array like ``z``, made here when not given), so no step allocates.
    """
    t = np.empty_like(z) if buffer is None else buffer
    z ^= np.right_shift(z, _U(30), out=t)
    z *= _U(_MIX1)
    z ^= np.right_shift(z, _U(27), out=t)
    z *= _U(_MIX2)
    z ^= np.right_shift(z, _U(31), out=t)
    return z


def _unit_array(z: np.ndarray) -> np.ndarray:
    """Top 53 bits of each hash as a float on [0, 1)."""
    return (z >> _U(11)).astype(np.float64) * _INV53


def _unit_limit(q):
    """Cut on hash bits: ``(z >> 11) < _unit_limit(q)`` exactly when
    ``_unit_array(z) < q``, for every q (a float or an array) in [0, 1].

    ``(z >> 11) * 2**-53`` is exact, so it lies below q iff the integer
    ``z >> 11`` lies below ``q * 2**53`` (also exact), that is below its
    ceiling.
    """
    return np.ceil(np.multiply(q, 2.0 ** 53)).astype(_U)


def _bits_below(z: np.ndarray, limit) -> np.ndarray:
    """``_unit_array(z) < q`` for ``limit = _unit_limit(q)``; shifts ``z``
    in place."""
    return np.right_shift(z, _U(11), out=z) < limit


def _combine_scalar(state: int, key: int) -> int:
    return _mix_scalar(state ^ _mix_scalar((key + _GOLDEN) & _MASK64))


def _combine_array(state: int, keys: np.ndarray) -> np.ndarray:
    z = keys.astype(_U)
    t = np.empty_like(z)
    z += _U(_GOLDEN)
    _mix_inplace(z, t)
    z ^= _U(state)
    return _mix_inplace(z, t)


@dataclass(frozen=True)
class HashSource:
    """Seeded source of deterministic uniform hashes on [0, 1)."""

    seed: int

    def _base(self, tag: int) -> int:
        return _combine_scalar(_mix_scalar(self.seed & _MASK64), tag)


def _element_bits(source: HashSource, ids: np.ndarray) -> np.ndarray:
    """The uint64 hashes of element ids, whose top 53 bits
    :func:`element_hash_array` returns as floats."""
    return _combine_array(source._base(_TAG_ELEMENT),
                          np.asarray(ids, dtype=np.int64))


def element_hash_array(source: HashSource, ids: np.ndarray) -> np.ndarray:
    """Deterministic hash of each element id to [0, 1): the top 53 bits of
    its seeded 64-bit mix, as a float."""
    return _unit_array(_element_bits(source, ids))


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
    ``selected_elements[i]``.  A weighted transform keeps one element per
    distinct (element, capped run) among its kept copies: the first such
    copy in selection order, standing for ``element_weight[i]`` copies.
    ``element_weight`` is None when every element stands for one copy, as
    in :func:`build_sketch` and :func:`build_sketch_lazy`.
    """

    instance: CoverageInstance
    hash_seed: int
    params: SketchParams
    selected_elements: np.ndarray
    original_m: int
    oracle_lookups: int | None = None
    element_weight: np.ndarray | None = None

    def __eq__(self, other):
        if not isinstance(other, Sketch):
            return NotImplemented
        weights = (self.element_weight, other.element_weight)
        return (self.instance == other.instance
                and self.hash_seed == other.hash_seed
                and self.params == other.params
                and self.original_m == other.original_m
                and np.array_equal(self.selected_elements,
                                   other.selected_elements)
                and (weights[0] is None) == (weights[1] is None)
                and (weights[0] is None or np.array_equal(*weights)))


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
              original_m: int, lookups: int | None = None,
              weight: np.ndarray | None = None) -> Sketch:
    """Sketch whose element ``i`` is ``selected[i]`` with the next
    ``counts[i]`` entries of ``set_ids``, distinct and ascending, as its sets,
    and weight ``weight[i]`` (None: every weight is 1).
    """
    elem_indptr = np.zeros(len(counts) + 1, dtype=np.int64)
    np.cumsum(counts, out=elem_indptr[1:])
    set_indptr, set_elems, _ = _transpose(elem_indptr, set_ids, n)
    inst = CoverageInstance(n, len(selected), set_indptr, set_elems,
                            elem_indptr, set_ids)
    return Sketch(instance=inst, hash_seed=seed, params=params,
                  selected_elements=np.asarray(selected, dtype=np.int64),
                  original_m=int(original_m), oracle_lookups=lookups,
                  element_weight=weight)


def _selection(degrees: np.ndarray, params: SketchParams,
               source: HashSource, ids: np.ndarray | None = None
               ) -> tuple[np.ndarray, np.ndarray]:
    """The candidates ``ids`` (ascending; every element by default) that the
    cut of :func:`build_sketch` keeps given their ``degrees``, and their
    capped degrees.  Simulator round 2 (``distsim._run_sketch_rounds``) and
    the sketch engine of ``solvers.set_cover_outliers`` call it; both solve
    on the runs without building a sketch.

    A theory cut that keeps every candidate hashes and sorts nothing and
    returns them in id order; other cuts return selection order, ties
    broken by smaller id.
    """
    if ids is None:
        ids = np.arange(len(degrees), dtype=np.int64)
    capped = np.minimum(degrees, params.cap)
    if params.mode == "theory" and _keeps_every_element(capped, params):
        return ids, capped
    keep = _select_elements(element_hash_array(source, ids), capped, params)
    return ids[keep], capped[keep]


def build_sketch(instance: CoverageInstance, params: SketchParams,
                 source: HashSource) -> Sketch:
    """Construct the sketch of a materialized instance.

    Theory mode walks elements in increasing hash order (ties by smaller id)
    and stops once the retained edge mass reaches ``n_tilde`` or the instance
    is exhausted.  Practical mode keeps each element independently iff its
    hash falls below ``rho``.  A kept element retains its first
    ``min(cap, degree)`` edges, i.e. the smallest set ids.

    The runs come from :meth:`CoverageInstance._element_runs`, which keeps
    an unbuilt element view, such as a freshly loaded instance's, unbuilt
    when the cut drops an element.
    """
    capped = np.minimum(instance.elem_degrees, params.cap)
    selected = _select_elements(
        element_hash_array(source, np.arange(instance.m, dtype=np.int64)),
        capped, params)
    counts = capped[selected]
    return _assemble(instance.n, selected, counts,
                     instance._element_runs(selected, counts), source.seed,
                     params, instance.m)


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
# as the materialized expansion's elements would be.  The expansion itself is
# never built.  A sample at a rate makes one pass per block of _HASH_BLOCK
# candidate copies: it hashes the block's flat ids to uint64 bits and keeps
# the copies whose bits fall below the integer form of the rate
# (_unit_limit).  The kept copies are expanded in batches of about
# 2 * _HASH_BLOCK edges at the mean degree: their edges are gathered from
# the base adjacency, filtered per copy (by numerator, or by a seeded coin
# drawn from per-edge tables) and capped; unfiltered copies hold capped runs
# of their elements' edges, which are gathered at the end.  A block of
# 2**15 copies takes 256 KiB of hash words, and a batch's temporaries stay
# in a core's cache.  One merge step makes one weighted row of the copies
# of an element that hold the same capped run: it groups rows by a key and
# a tag (_group_copies) and keeps each group's first row.  A copy whose
# edges include the next copy's is keyed by its run's last position and
# tagged by the run's length; other copies are tagged by their element and
# keyed by a sum of one word per edge (_run_keys), or by their element when
# unfiltered.  Practical mode samples once at rho, merges each batch as it
# is expanded and then the batches' survivors.  Theory mode samples below a
# rising rate until the sample's capped mass reaches n_tilde or the rate
# reaches 1, makes the shared cut (_select_elements) on the sample's
# copies, and merges the kept ones.  Degenerate parameters (all weights
# one, rho = 1 with no cap) reproduce the plain constructions bit for bit.
# ---------------------------------------------------------------------------

_HASH_BLOCK = 1 << 15  # candidate copies hashed per block


def _copy_count(copies: np.ndarray) -> int:
    """Sum of per-element copy counts; unlike an int64 sum it never wraps."""
    approx = float(copies.sum(dtype=np.float64))
    return int(copies.sum()) if approx < 2**62 else int(approx)


def _copy_bits(source: HashSource, shift: np.ndarray, starts: np.ndarray,
               ends: np.ndarray, total: int):
    """Yield ``(lo, bits)`` for the candidate copies, one block at a time.

    Candidate ``i`` of element v (``starts[v] <= i < ends[v]``) has flat id
    ``i + shift[v]``; ``bits`` are the :func:`_element_bits` of the flat ids
    of candidates ``lo, lo + 1, ...``.
    """
    contiguous = not shift.any()
    for lo in range(0, total, _HASH_BLOCK):
        hi = min(lo + _HASH_BLOCK, total)
        flat = np.arange(lo, hi, dtype=np.int64)
        if not contiguous:
            v0 = int(np.searchsorted(ends, lo, side="right"))
            v1 = int(np.searchsorted(ends, hi - 1, side="right")) + 1
            reps = np.minimum(ends[v0:v1], hi) - np.maximum(starts[v0:v1], lo)
            flat += np.repeat(shift[v0:v1], reps)
        yield lo, _element_bits(source, flat)


def _concatenate_runs(parts, width: int):
    """The int64 arrays of the ``parts`` (tuples of ``width``) laid end to
    end."""
    empty = np.empty(0, dtype=np.int64)
    return tuple(map(np.concatenate, zip((empty,) * width, *parts)))


# Runs of elements with at most this many edges get exact keys.
_EXACT_DEGREE = 53


def _key_words(max_degree: int) -> np.ndarray:
    """Word per edge offset that :func:`_run_keys` adds up.

    Offset ``o`` in an element of degree at most ``_EXACT_DEGREE`` adds
    ``2.0**o``; a sum of distinct such powers is exact in float64, so it
    names the run.  In a wider element, offset ``o`` adds entry
    ``_EXACT_DEGREE + o``, a seeded float in [1, 2).
    """
    words = np.ldexp(1.0, np.arange(_EXACT_DEGREE))
    if max_degree <= _EXACT_DEGREE:
        return words
    bits = np.arange(max_degree, dtype=_U) + _U(_GOLDEN)
    return np.concatenate((words, 1.0 + _unit_array(_mix_inplace(bits))))


def _run_keys(base: CoverageInstance, words: np.ndarray, v: np.ndarray,
              pos: np.ndarray, copy: np.ndarray) -> np.ndarray:
    """An int64 key for each copy ``c`` of element ``v[c]`` holding the
    edge positions ``pos[copy == c]``, in ascending order.

    Two copies of one element of degree at most ``_EXACT_DEGREE`` have
    equal keys exactly when they hold the same run; copies of other
    elements with equal keys need their runs compared.
    """
    offset = pos - base.elem_indptr[v][copy]
    degrees = base.elem_degrees[v]
    if len(v) and int(degrees.max()) > _EXACT_DEGREE:
        offset += np.where(degrees > _EXACT_DEGREE, _EXACT_DEGREE, 0)[copy]
    sums = np.bincount(copy, weights=words[offset], minlength=len(v))
    return sums.view(np.int64) ^ (v * np.int64(_GOLDEN - 2**64))


def _run_matcher(base: CoverageInstance, elems: np.ndarray,
                 counts: np.ndarray, offsets: np.ndarray, runs: np.ndarray):
    """``same_runs`` for :func:`_group_copies` over the copies of
    ``elems`` whose runs are the ``counts`` set ids of ``runs`` from
    ``offsets`` on; only copies of elements wider than ``_EXACT_DEGREE``
    need their runs compared."""

    def same_runs(i, j):
        same = counts[i] == counts[j]
        wide = np.flatnonzero(same & (base.elem_degrees[elems[i]]
                                      > _EXACT_DEGREE))
        if len(wide):
            c = counts[i[wide]]
            differ = (runs[_gather_positions(offsets, i[wide], c)]
                      != runs[_gather_positions(offsets, j[wide], c)])
            same[wide] = np.add.reduceat(differ, np.cumsum(c) - c) == 0
        return same

    return same_runs


# Bits of the largest bucket table of _group_copies: 8 MiB.
_TABLE_BITS = 20


def _group_copies(keys: np.ndarray, tags: np.ndarray,
                  same_runs=None) -> np.ndarray:
    """For each copy, the first copy with its key and tag: the group that
    copy starts.

    ``same_runs(i, j)``, given copies with equal keys and tags, tells for
    each pair whether the runs are equal too; copies that differ from the
    first copy of their key form groups of their own.

    Each round hashes the keys and tags of the ungrouped copies to buckets
    by a seeded multiplicative hash, takes the smallest copy of each bucket,
    and groups with it the copies that match it; the others try again with
    a new hash.
    """
    size = len(keys)
    rep = np.empty(size, dtype=np.int64)
    todo = np.arange(size)
    salt = _GOLDEN
    while len(todo):
        # Two buckets per copy group about four in five copies a round; a
        # table capped at _TABLE_BITS still groups at least one copy per
        # bucket each round.
        bits = min(len(todo).bit_length() + 1, _TABLE_BITS)
        bucket = np.multiply(keys[todo].view(_U) ^ _U(salt), _U(_MIX1))
        bucket ^= tags[todo].view(_U)
        bucket *= _U(_MIX2)
        bucket >>= _U(64 - bits)
        smallest = np.full(1 << bits, size, dtype=np.int64)
        np.minimum.at(smallest, bucket, todo)
        cand = smallest[bucket]
        match = (keys[cand] == keys[todo]) & (tags[cand] == tags[todo])
        if same_runs is not None:
            match[match] = same_runs(todo[match], cand[match])
        rep[todo[match]] = cand[match]
        todo = todo[~match]
        salt = _mix_scalar(salt)
    return rep


def _sketch_copies(base: CoverageInstance, first: np.ndarray,
                   copies: np.ndarray, total: int, edge_filter,
                   params: SketchParams, source: HashSource,
                   original_m: int, nested: bool = False) -> Sketch:
    """Sketch of the expansion where element v has copies ``j < copies[v]``,
    with one weighted element per distinct (element, capped run).

    Copy (v, j) has flat id ``first[v] + j``; flat ids ascend with (v, j).  It
    holds the edges of v that ``edge_filter(flat, j, pos, copy)`` accepts,
    where ``pos`` are element-order positions in ``base`` and ``copy`` indexes
    ``flat`` and ``j``.  Copies left without an edge by the filter are
    dropped; with ``edge_filter=None`` every copy keeps all of v's edges and
    edgeless copies stay.  The kept copies are those of :func:`build_sketch`
    over the expansion's copies, but only sampled copies gather edges.
    ``nested`` says that copy ``j + 1`` of an element holds a subset of the
    edges of copy ``j``.

    Practical mode samples once: it keeps the copies hashing below ``rho``.
    Theory mode samples below a rising rate, then makes the shared cut
    (:func:`_select_elements`) on the sample.  A sample is a prefix of the
    hash order, so once its capped mass reaches ``n_tilde`` its cut is the
    cut over every copy; until then the rate is raised by the shortfall,
    and at rate 1 the sample is every copy.

    The kept copies of one element that hold the same capped run become one
    sketch element: the first of them in selection order, whose weight is
    their number.  Greedy cannot tell such copies apart, so every solver
    that reads the weights gives the result it gives on the copies.  The
    inner ``merge`` finds them.  It groups rows by a key and a tag with
    :func:`_group_copies`, keeps each group's first row in row order, and
    sums the group's sizes.  A nested copy's capped run is its edges up to
    its last kept position, so that position (the key) and the run's
    length (the tag) name it.  Other copies are keyed by their
    :func:`_run_keys` and tagged by their element; unfiltered ones, whose
    runs an element fixes, are keyed by their element.  Practical mode's
    rows are in flat-id order, which is its selection order: it merges
    each ``batch`` of sampled copies as it expands them, which keeps one
    element's million copies to a few rows, and then the batches'
    survivors.  Theory mode expands without merging, makes its cut, and
    merges the kept copies in selection order.
    """
    ends = np.cumsum(copies)
    starts = ends - copies
    cap = params.cap
    max_degree = int(base.elem_degrees.max()) if base.m else 0
    # When no degree exceeds the cap, no filtered copy needs cutting.
    over_cap = max_degree > cap
    words = _key_words(max_degree)
    # Whether some copies' keys can be equal with different runs.
    wide = (max_degree > _EXACT_DEGREE and edge_filter is not None
            and not nested)
    practical = params.mode == "practical"
    unfiltered = np.empty(0, dtype=np.int64)
    # Copies per expansion, about 2 * _HASH_BLOCK edges at the mean degree:
    # enough that the cost per call does not dominate when elements have
    # few edges, few enough that the temporaries stay in cache.
    batch = 2 * _HASH_BLOCK * base.m // max(base.edge_count, 1)

    def expand(idx):
        """Rows (flat ids, capped counts, sizes, keys, tags, set ids grouped
        by row) of the copies of idx, each row of size 1.  An unfiltered
        copy holds the first ``counts`` edges of its element and gives no
        set ids."""
        v = np.searchsorted(ends, idx, side="right")
        j = idx - starts[v]
        flat_ids = first[v] + j
        sizes = np.ones(len(idx), dtype=np.int64)
        if edge_filter is None:
            counts = np.minimum(base.elem_degrees[v], cap)
            return flat_ids, counts, sizes, v, v, unfiltered
        degrees = base.elem_degrees[v]
        pos = _gather_positions(base.elem_indptr, v, degrees)
        copy = np.repeat(np.arange(len(idx), dtype=np.int64), degrees)
        # About half the edges pass, in no pattern: a gather by index is
        # several times faster than two boolean masks.
        hit = np.flatnonzero(edge_filter(flat_ids, j, pos, copy))
        pos, copy = pos[hit], copy[hit]
        counts = np.bincount(copy, minlength=len(idx))
        if over_cap:
            rank = np.arange(len(copy)) - np.repeat(
                np.cumsum(counts) - counts, counts)
            below = rank < cap
            pos = pos[below]
            if not nested:
                copy = copy[below]
            np.minimum(counts, cap, out=counts)
        has_edge = np.flatnonzero(counts)
        counts = counts[has_edge]
        if nested:
            keys, tags = pos[np.cumsum(counts) - 1], counts
        else:
            keys = _run_keys(base, words, v, pos, copy)[has_edge]
            tags = v[has_edge]
        return (flat_ids[has_edge], counts, sizes[has_edge], keys, tags,
                base.elem_set_ids[pos])

    def merge(part, rows=None):
        """The rows of ``part`` (its ``rows``, in that order, when given)
        with equal key, tag and run merged: the first row of each group,
        in row order, whose size is the sum of the group's sizes."""
        flat_ids, counts, sizes, keys, tags, set_ids = part
        order = np.arange(len(counts)) if rows is None else rows
        offsets = np.cumsum(counts) - counts
        same_runs = _run_matcher(base, tags[order], counts[order],
                                 offsets[order], set_ids) if wide else None
        rep = _group_copies(keys[order], tags[order], same_runs)
        firsts = np.flatnonzero(rep == np.arange(len(order)))
        if rows is None and len(firsts) == len(counts):
            return part
        merged = np.bincount(rep, sizes[order])[firsts].astype(np.int64)
        order = order[firsts]
        if edge_filter is not None:
            set_ids = set_ids[_gather_positions(offsets, order,
                                                counts[order])]
        return (flat_ids[order], counts[order], merged, keys[order],
                tags[order], set_ids)

    def sample(rate):
        """The rows of the copies hashing below ``rate``, in flat-id order;
        practical mode merges each expansion.  Copies wait until an
        expansion gets ``batch`` of them, so one gets fewer than ``batch``
        plus a block's."""
        limit = _unit_limit(rate)
        parts, held = [], unfiltered
        for lo, z in _copy_bits(source, first - starts, starts, ends, total):
            idx = np.concatenate((held, lo + np.flatnonzero(
                _bits_below(z, limit))))
            if len(idx) < batch and lo + len(z) < total:
                held = idx
                continue
            held = unfiltered
            part = expand(idx)
            parts.append(merge(part) if practical else part)
        return _concatenate_runs(parts, 6)

    if practical:
        part = merge(sample(params.rho))
    else:
        n_tilde = params.n_tilde
        # The capped mass of all copies is at most this bound.
        bound = int(copies @ np.minimum(base.elem_degrees, cap))
        rate = min(1.0, 2 * n_tilde / max(bound, 1))
        part = sample(rate)
        while (mass := int(part[1].sum())) < n_tilde and rate < 1.0:
            rate = min(1.0, 2 * rate * n_tilde / max(mass, 1))
            part = sample(rate)
        # Ties break by smaller flat id, as the sample is in flat-id order.
        part = merge(part, _select_elements(
            element_hash_array(source, part[0]), part[1], params))
    flat_ids, counts, sizes, _, tags, set_ids = part
    if edge_filter is None:
        set_ids = base.elem_set_ids[_gather_positions(base.elem_indptr, tags,
                                                      counts)]
    weight = None if (sizes == 1).all() else sizes
    return _assemble(base.n, flat_ids, counts, set_ids, source.seed, params,
                     original_m, weight=weight)


def sketch_weighted(winst: WeightedInstance, params: SketchParams,
                    source: HashSource) -> Sketch:
    """Sketch of the implicit expansion with ``w_v`` unit copies per element.

    Copy (v, j) keeps v's edge list; its flat id is ``sum(w_u, u < v) + j``.
    With all weights one this is exactly :func:`build_sketch` on the base.
    The ``sum(w)`` copies are hashed; only the kept ones gather edges.  The
    sketch holds distinct copies with weights: one element per base
    element with a kept copy, the first such copy in selection order,
    weighted by the number kept (see :func:`_sketch_copies`).
    ``original_m`` counts the copies.
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
    The sketch holds distinct copies with weights: kept copies of one
    element with the same capped run are one element, weighted by their
    number.  ``original_m`` counts the copies, ``m * U``.
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
                          source, base.m * U, nested=True)


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
    coins all fail are left out.  The sketch holds distinct copies with
    weights: kept copies of one element whose coins give the same capped
    run are one element, weighted by their number, so weighted coverage
    divided by ``zeta`` is the estimate.  ``original_m`` counts the copies,
    ``m * zeta``.
    """
    base = pinst.base
    zeta = probabilistic_copy_count(base.n, pinst.U, eps)
    _check_budget(zeta * base.m, "copies", "increase eps")
    coin_base = source._base(_TAG_EDGE_COIN)
    # Per base edge: the set half of its coin key, hashed once per set, and
    # the integer cut of its probability.
    set_half = _combine_array(coin_base ^ _GOLDEN,
                              np.arange(base.n, dtype=np.int64))
    edge_half = set_half[base.elem_set_ids]
    edge_limit = _unit_limit(pinst.numer_elem_order / pinst.U)

    def coin_hit(flat_ids, j, pos, copy):
        z = _combine_array(coin_base, flat_ids)[copy]
        z ^= edge_half[pos]
        return _bits_below(_mix_inplace(z), edge_limit[pos])

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
    instance since `#` lines are comments.  A sketch with element weights
    writes a third column, the weight of each edge's element, and
    :func:`~coversketch.instance.load_weighted_edge_list` reads it back.
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
    columns = sk.instance.edges()
    if sk.element_weight is not None:
        columns += (sk.element_weight[columns[1]],)
    return _write_rows(sink, parts, *columns)
