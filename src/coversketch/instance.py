"""Bipartite coverage instances: data model, file formats, generators, reductions.

A coverage instance is a bipartite incidence structure between ``n`` sets and
``m`` elements.  Both sides use dense 0-based integer ids.  The adjacency is
held by set (CSR style); the view by element, which solvers scan, is derived
from it on first read.  Instances are immutable after construction and safe to
share across threads: two threads that read the element view first may both
build it, and the two builds are equal arrays.
"""

from __future__ import annotations

import io
import itertools
import json
import math
from dataclasses import dataclass
from fractions import Fraction
from pathlib import Path

import numpy as np

__all__ = [
    "ParseError",
    "CoverageInstance",
    "WeightedInstance",
    "FractionalInstance",
    "ProbabilisticInstance",
    "InstanceStats",
    "load_edge_list",
    "loads_edge_list",
    "serialize_edge_list",
    "load_weighted_edge_list",
    "serialize_weighted_edge_list",
    "load_fractional_edge_list",
    "load_probabilistic_edge_list",
    "serialize_fractional_edge_list",
    "khop_dominating_instance",
    "generate_planted",
    "generate_adversarial",
    "feature_pairs_instance",
    "stats",
]


class ParseError(ValueError):
    """Malformed input; the message carries the 1-based line number."""


def _decimal(value: float, name: str) -> Fraction:
    """``value`` read exactly as the decimal it prints as (0.7 is 7/10, not
    the nearest binary fraction); ``name`` names it when it is not finite."""
    if not math.isfinite(value):
        raise ValueError(f"{name} must be a finite number")
    return Fraction(repr(float(value)))


def _decoy_size(block: int, eps: float) -> int:
    """``ceil((1 + eps) * block)``, exact for ``eps`` read as the decimal it
    prints as: 1.2 * 100 is 120, not the float 120.00000000000001."""
    return math.ceil((1 + _decimal(eps, "eps")) * block)


def _check_key_range(*factors: int) -> None:
    """Raise ValueError unless int64 sort keys below ``prod(factors)`` fit."""
    if math.prod(factors) > 2**63:
        raise ValueError(f"sizes {factors} overflow a 64-bit sort key")


# Entries an expansion may materialize: copies hashed by the weighted,
# fractional and probabilistic sketches, edges gathered per k-hop step, row
# pairs of a feature-pairs instance.
_EXPANSION_BUDGET = 10_000_000


def _check_budget(total: int, unit: str, advice: str) -> None:
    """Raise ValueError, naming both, when ``total`` exceeds
    ``_EXPANSION_BUDGET``, read at call time; callers check before they
    allocate anything of that size."""
    if total > _EXPANSION_BUDGET:
        raise ValueError(f"expansion needs {total} {unit}, over the budget "
                         f"of {_EXPANSION_BUDGET}; {advice}")


def _edge_keys(n: int, m: int, set_ids, elem_ids) -> np.ndarray:
    """Checked edge ids packed as ``set * m + element``, in input order."""
    _check_key_range(n, m)
    set_ids = np.asarray(set_ids, dtype=np.int64)
    elem_ids = np.asarray(elem_ids, dtype=np.int64)
    if set_ids.shape != elem_ids.shape:
        raise ValueError("edge arrays must have equal length")
    if set_ids.size:
        if set_ids.min() < 0 or set_ids.max() >= n:
            raise ValueError("set id out of range")
        if elem_ids.min() < 0 or elem_ids.max() >= m:
            raise ValueError("element id out of range")
    return set_ids * m + elem_ids


def _canonical_keys(key: np.ndarray) -> np.ndarray:
    """Packed ``set * m + element`` edge keys, sorted and unique: the
    canonical (set, element) order without duplicate pairs.

    Keys that already strictly ascend, as in every file the serializers
    write, are neither sorted nor deduplicated.
    """
    if not (key[1:] > key[:-1]).all():
        key.sort()
        key = key[np.diff(key, prepend=-1) != 0]
    return key


def _set_runs(n: int, m: int, key: np.ndarray):
    """``(set_indptr, set_elems)`` of sorted unique ``set * m + element`` keys."""
    starts = np.searchsorted(key, np.arange(n, dtype=np.int64) * m)
    return np.append(starts, key.size), key % max(m, 1)


def _run_ids(indptr: np.ndarray) -> np.ndarray:
    """Index of the run that holds each entry of CSR runs ``indptr``."""
    return np.repeat(np.arange(len(indptr) - 1, dtype=np.int64),
                     np.diff(indptr))


def _gather_positions(indptr: np.ndarray, picks: np.ndarray,
                      counts: np.ndarray) -> np.ndarray:
    """Positions of the first ``counts[i]`` entries of each picked list."""
    shift = (counts.cumsum() - counts - indptr[picks]).repeat(counts)
    return np.subtract(np.arange(len(shift), dtype=np.int64), shift,
                       out=shift)


def _transpose(indptr: np.ndarray, minor: np.ndarray, minor_count: int):
    """The other CSR view of runs of distinct, ascending minor ids.

    Run ``r`` holds ``minor[indptr[r]:indptr[r + 1]]``.  Returns
    ``(minor_indptr, major_ids, order)``: run ``c`` of the new view lists the
    ascending majors whose runs hold ``c``, and its entries are the input
    entries ``order``.  Either sort orders entries by (minor, major), so the
    two branches give the same result.  With at most 2**16 minor ids, a
    stable radix sort of the ids takes one byte pass for up to 256 ids
    (uint8) and two above (uint16); past 2**16, packed (minor, major) keys
    are sorted.
    """
    major_count = len(indptr) - 1
    if minor_count <= 2**16:
        # numpy radix-sorts 8- and 16-bit keys when asked for a stable sort.
        width = np.min_scalar_type(max(minor_count - 1, 0))
        order = np.argsort(minor.astype(width), kind="stable")
    else:
        _check_key_range(minor_count, major_count)
        # The keys are unique, so an unstable sort is exact.
        order = np.argsort(minor * major_count + _run_ids(indptr))
    minor_indptr = np.zeros(minor_count + 1, dtype=np.int64)
    np.cumsum(np.bincount(minor, minlength=minor_count),
              out=minor_indptr[1:])
    # Built after the sort, so it never coexists with the sort's buffers.
    return minor_indptr, _run_ids(indptr)[order], order


class CoverageInstance:
    """Immutable set/element incidence structure.

    The set view ``set_indptr``/``set_elems`` is always held.  The element
    view ``elem_indptr``/``elem_set_ids`` is taken from the constructor when
    given; otherwise its slots stay unset until one is first read, and
    ``__getattr__`` builds it then by one :func:`_transpose` of the set view.
    ``elem_degrees`` read before it is a bincount of ``set_elems`` and needs
    no transpose.  A race between threads may build a view twice; both
    builds are equal arrays.

    Attributes
    ----------
    n : int
        Number of sets.
    m : int
        Number of elements.
    edge_count : int
        Number of distinct (set, element) incidences.
    element_labels : list[int] | None
        Optional external ids for elements (display only, e.g. encoded row
        pairs from :func:`feature_pairs_instance`).
    """

    __slots__ = (
        "n",
        "m",
        "edge_count",
        "set_indptr",
        "set_elems",
        "elem_indptr",
        "elem_set_ids",
        "set_sizes",
        "elem_degrees",
        "element_labels",
    )

    def __init__(self, n, m, set_indptr, set_elems, elem_indptr=None,
                 elem_set_ids=None, element_labels=None):
        self.n = int(n)
        self.m = int(m)
        self.set_indptr = set_indptr
        self.set_elems = set_elems
        self.edge_count = int(len(set_elems))
        self.set_sizes = np.diff(set_indptr)
        self.element_labels = element_labels
        if len(set_indptr) != self.n + 1:
            raise ValueError("inconsistent index pointers")
        if (elem_indptr is None) != (elem_set_ids is None):
            raise ValueError("the element view needs both of its arrays")
        if elem_indptr is None:
            return
        if len(elem_indptr) != self.m + 1:
            raise ValueError("inconsistent index pointers")
        if len(elem_set_ids) != self.edge_count:
            raise ValueError("adjacency mismatch between set and element views")
        self.elem_indptr = elem_indptr
        self.elem_set_ids = elem_set_ids
        self.elem_degrees = np.diff(elem_indptr)

    @classmethod
    def from_edges(cls, n, m, set_ids, elem_ids, element_labels=None):
        """Build an instance from parallel edge arrays, deduplicating pairs.

        Ids must lie in ``[0, n)`` and ``[0, m)``.  Duplicate (set, element)
        pairs are collapsed; coverage is set-semantic.
        """
        n, m = int(n), int(m)
        if n < 1:
            raise ValueError("instance needs at least one set")
        return cls._from_keys(
            n, m, _canonical_keys(_edge_keys(n, m, set_ids, elem_ids)),
            element_labels)

    @classmethod
    def _from_keys(cls, n, m, key, element_labels=None):
        """Instance whose edges are the sorted unique ``set * m + element``
        keys ``key``, as :func:`_canonical_keys` returns them.  The element
        view is left to the first read."""
        return cls(n, m, *_set_runs(n, m, key), None, None, element_labels)

    def __getattr__(self, name):
        """Build an element-view slot, which is read here only when unset."""
        if name == "elem_degrees":
            self.elem_degrees = np.bincount(self.set_elems, minlength=self.m)
        elif name in ("elem_indptr", "elem_set_ids"):
            self.elem_indptr, self.elem_set_ids, _ = _transpose(
                self.set_indptr, self.set_elems, self.m)
            self.elem_degrees = np.diff(self.elem_indptr)
        else:
            raise AttributeError(name)
        return object.__getattribute__(self, name)

    def _has_element_view(self) -> bool:
        """Whether the element view is built; asking builds nothing."""
        try:
            object.__getattribute__(self, "elem_set_ids")
        except AttributeError:
            return False
        return True

    def _element_runs(self, selected: np.ndarray,
                      counts: np.ndarray) -> np.ndarray:
        """Set ids of the first ``counts[i]`` sets of each distinct element
        ``selected[i]``, end to end.  An unbuilt element view stays unbuilt
        when an element is left out: the runs are gathered from an element
        view of the selected elements' edges only."""
        view = self
        if len(selected) < self.m and not self._has_element_view():
            view = _kept_set_view(self, selected)
        return view.elem_set_ids[_gather_positions(view.elem_indptr,
                                                   selected, counts)]

    def set_elements(self, s: int) -> np.ndarray:
        """Sorted element ids contained in set ``s``."""
        return self.set_elems[self.set_indptr[s]:self.set_indptr[s + 1]]

    def element_sets(self, v: int) -> np.ndarray:
        """Sorted set ids containing element ``v``."""
        return self.elem_set_ids[self.elem_indptr[v]:self.elem_indptr[v + 1]]

    def edges(self) -> tuple[np.ndarray, np.ndarray]:
        """Edge arrays (set_ids, elem_ids) in canonical (set, element) order."""
        return _run_ids(self.set_indptr), self.set_elems

    def __eq__(self, other):
        if not isinstance(other, CoverageInstance):
            return NotImplemented
        return (self.n == other.n and self.m == other.m
                and np.array_equal(self.set_indptr, other.set_indptr)
                and np.array_equal(self.set_elems, other.set_elems)
                and np.array_equal(self.elem_indptr, other.elem_indptr)
                and np.array_equal(self.elem_set_ids, other.elem_set_ids))

    def __hash__(self):  # identity hashing; instances are reference-compared
        return id(self)

    def __repr__(self):
        return (f"CoverageInstance(n={self.n}, m={self.m}, "
                f"edge_count={self.edge_count})")


def _kept_set_view(instance: CoverageInstance, selected) -> CoverageInstance:
    """``instance`` with only the edges of the elements ``selected``, as a
    set view whose element view is left to the first read."""
    keep = np.zeros(instance.m, dtype=bool)
    keep[selected] = True
    pos = np.flatnonzero(keep[instance.set_elems])
    return CoverageInstance(instance.n, instance.m,
                            np.searchsorted(pos, instance.set_indptr),
                            instance.set_elems[pos])


@dataclass(frozen=True, eq=False)
class WeightedInstance:
    """Coverage instance with a positive integer weight per element."""

    base: CoverageInstance
    element_weight: np.ndarray
    U: int

    def __post_init__(self):
        w = np.asarray(self.element_weight, dtype=np.int64)
        object.__setattr__(self, "element_weight", w)
        if len(w) != self.base.m:
            raise ValueError("one weight per element required")
        if self.base.m and (w.min() < 1 or w.max() > self.U):
            raise ValueError("weights must be integers in [1, U]")


@dataclass(frozen=True, eq=False)
class FractionalInstance:
    """Coverage instance where set S covers a fraction alpha of element v.

    Fractions are stored exactly as integer numerators: ``alpha = numer / U``
    with ``numer`` in ``[0, U]``.  Two parallel arrays hold the numerators in
    the two adjacency orders of the base instance.
    """

    base: CoverageInstance
    numer_set_order: np.ndarray   # aligned with base.edges() / set_elems
    numer_elem_order: np.ndarray  # aligned with base.elem_set_ids
    U: int

    def __post_init__(self):
        a = np.asarray(self.numer_set_order, dtype=np.int64)
        b = np.asarray(self.numer_elem_order, dtype=np.int64)
        object.__setattr__(self, "numer_set_order", a)
        object.__setattr__(self, "numer_elem_order", b)
        if self.U < 1:
            raise ValueError("U must be a positive integer")
        for arr in (a, b):
            if len(arr) != self.base.edge_count:
                raise ValueError("one numerator per edge required")
            if arr.size and (arr.min() < 0 or arr.max() > self.U):
                raise ValueError("numerators must lie in [0, U]")

    @classmethod
    def from_edges(cls, n, m, set_ids, elem_ids, numer, U):
        """Build base instance and aligned numerators in one pass.

        Edges must be unique; duplicates are rejected rather than merged since
        they would carry conflicting fractions.
        """
        n, m = int(n), int(m)
        key = _edge_keys(n, m, set_ids, elem_ids)
        numer = np.asarray(numer, dtype=np.int64)
        if numer.shape != key.shape:
            raise ValueError("one numerator per edge required")
        order = np.argsort(key)
        key = key[order]
        if np.any(key[1:] == key[:-1]):
            raise ValueError("duplicate edge with fractional coverage")
        set_indptr, set_elems = _set_runs(n, m, key)
        elem_indptr, elem_set_ids, eorder = _transpose(set_indptr, set_elems,
                                                       m)
        base = CoverageInstance(n, m, set_indptr, set_elems, elem_indptr,
                                elem_set_ids)
        a = numer[order]
        return cls(base, a, a[eorder], int(U))


class ProbabilisticInstance(FractionalInstance):
    """Same shape as :class:`FractionalInstance`; alpha is an independent
    coverage probability per (set, element) edge."""


@dataclass(frozen=True)
class InstanceStats:
    """Summary statistics for a coverage instance."""

    n: int
    m: int
    edge_count: int
    max_element_degree: int
    max_set_size: int
    element_degree_hist: tuple[int, ...]
    set_size_hist: tuple[int, ...]

    def to_json_line(self) -> str:
        return json.dumps(
            {
                "n": self.n,
                "m": self.m,
                "edge_count": self.edge_count,
                "max_element_degree": self.max_element_degree,
                "max_set_size": self.max_set_size,
                "element_degree_hist": list(self.element_degree_hist),
                "set_size_hist": list(self.set_size_hist),
            },
            separators=(",", ":"),
        )


def stats(instance: CoverageInstance) -> InstanceStats:
    """Consistent summary statistics; histograms are indexed by degree."""
    deg = instance.elem_degrees
    size = instance.set_sizes
    return InstanceStats(
        n=instance.n,
        m=instance.m,
        edge_count=instance.edge_count,
        max_element_degree=int(deg.max()) if instance.m else 0,
        max_set_size=int(size.max()) if instance.n else 0,
        element_degree_hist=tuple(np.bincount(deg).tolist()) if instance.m else (),
        set_size_hist=tuple(np.bincount(size).tolist()),
    )


# ---------------------------------------------------------------------------
# Edge-list text format
#
# One edge per line: `<set-id> <element-id>`, separated by spaces or tabs, with
# optional full-line `#` comments.  Lines end in LF, CRLF or CR.  Weighted
# variants carry a third integer column (the element weight, or the numerator
# of alpha*U together with a `#U <int>` header line).  Every integer is a run
# of ASCII digits with a value of at most 2**31 - 1.
# ---------------------------------------------------------------------------

_MAX_VALUE = 2**31 - 1
# Longest token converted.  Longer tokens are rejected unread, so a token's
# place-by-place sum in int64 stays below 10**18 < 2**63 and cannot wrap
# before the range check.
_MAX_DIGITS = 18
# Rows formatted per block by the writer.
_WRITE_BLOCK = 1 << 16
# Bytes of a block first searched for the end of its leading `#` lines.
_HEADER_SCAN = 1 << 12
# Bytes per window of the reader; each parsed block ends at a line end.
_PARSE_BLOCK = 1 << 18
# The blocks' int32 rows are joined this many values at a time.  A segment
# is one allocation, which goes back to the system when freed, and the freed
# block-sized parts hold the next segment's.  Kept to the end, the parts
# would stay in the allocator's heap once freed (about 50 MiB of RSS at 12M
# edges).
_JOIN_SEGMENT = 1 << 21
# Ids are positional, so a loaded instance's arrays grow with its largest id,
# not its row count.  Loaders reject ids that reach this many plus
# _IDS_PER_ROW per row, before anything sized by the ids is allocated.
_ID_SLACK = 2**20
_IDS_PER_ROW = 16


def _blocks(source):
    """Yield the input as consecutive blocks of whole lines.

    The input is read ``_PARSE_BLOCK`` bytes at a time, and a block ends
    after the last line end of its window.  A CR in the last byte of a
    window does not end a block, since its LF may be read next, so no cut
    splits a CRLF.  A window without a line end is followed by one twice
    its size: a long line extends its block, and the input is still scanned
    in linear time.  The last block ends at the end of the input, with or
    without a line end.
    """
    if isinstance(source, bytes):
        source = io.BytesIO(source)
    if not hasattr(source, "read"):
        raise TypeError("source must be a path, bytes, or file object")
    held, size = [], _PARSE_BLOCK  # the open block's earlier windows
    while window := source.read(size):
        if isinstance(window, str):
            window = window.encode("utf-8")
        # A CR in the last byte may be the first half of a CRLF.
        end = 1 + max(window.rfind(b"\n"),
                      window.rfind(b"\r", 0, len(window) - 1))
        if not end:
            held.append(window)
            size *= 2
            continue
        view = memoryview(window)
        held.append(view[:end])
        yield held[0] if len(held) == 1 else b"".join(held)
        held, size = [view[end:]], _PARSE_BLOCK
    if any(held):
        yield b"".join(held)


def _line_ends(buf: np.ndarray, bounds: np.ndarray, pos: int) -> int:
    """Lines ended before byte ``pos``; LF, CR and CRLF each end one."""
    ends = bounds[1:np.searchsorted(bounds, pos)]
    crlf = ((np.diff(ends) == 1) & (buf[ends[:-1]] == ord("\r"))
            & (buf[ends[1:]] == ord("\n")))
    return len(ends) - int(np.count_nonzero(crlf))


def _strip_comments(buf: np.ndarray, bounds: np.ndarray):
    """Blank full-line `#` comments; returns (buffer, headers, bad).

    ``bad`` is the position of the `#` of the first malformed `#U` header, or
    None; the caller reports it only if no data line before it is malformed.

    ``bounds`` holds -1, the position of every LF and CR byte, and the length
    of the data, so line ``i`` spans ``bounds[i] + 1 .. bounds[i + 1]``.
    """
    hashes = np.flatnonzero(buf == ord("#"))
    headers, bad = {}, None
    if not hashes.size:
        return buf, headers, bad
    line = np.searchsorted(bounds, hashes) - 1
    first = np.flatnonzero(np.diff(line, prepend=-1))  # first `#` per line
    hashes, line = hashes[first], line[first]
    starts, ends = bounds[line] + 1, bounds[line + 1]
    # A comment's `#` is preceded on its line by spaces and tabs only.  The
    # ranges [start, hash) are disjoint, so one reduceat checks them all.
    blank = (buf == ord(" ")) | (buf == ord("\t"))
    lead = np.logical_and.reduceat(
        blank, np.column_stack((starts, hashes)).ravel())[0::2]
    lead |= starts == hashes
    hashes, starts, ends = hashes[lead], starts[lead], ends[lead]
    # Only a comment line holding a `U` byte can be a `#U` header.
    u_lines = np.searchsorted(bounds, np.flatnonzero(buf == ord("U")))
    maybe_u = np.isin(np.searchsorted(bounds, hashes), u_lines)
    for h, end in zip(hashes[maybe_u].tolist(), ends[maybe_u].tolist()):
        tokens = buf[h + 1:end].tobytes().split()
        if len(tokens) == 2 and tokens[0] == b"U":
            u = tokens[1]
            if not (u.isdigit() and len(u) <= _MAX_DIGITS
                    and int(u) <= _MAX_VALUE):
                bad = h
                break
            headers["U"] = int(u)
    if hashes.size:
        lo, hi = starts[0], ends[-1]
        inside = np.zeros(hi - lo + 1, dtype=np.int8)
        inside[starts - lo] = 1
        inside[ends - lo] = -1
        buf = buf.copy()
        buf[lo:hi][np.cumsum(inside[:-1], dtype=np.int8) > 0] = ord(" ")
    return buf, headers, bad


def _line_error(buf: np.ndarray, bounds: np.ndarray, pos: int,
                columns: int, field: str | None, line: int) -> ParseError:
    """Describe what is wrong with the line holding byte ``pos``, which is
    line ``line`` of the input.

    ``field`` names every column, or is None for edge-list columns: two ids,
    then values.
    """
    i = int(np.searchsorted(bounds, pos)) - 1
    text = buf[bounds[i] + 1:bounds[i + 1]].tobytes()
    tokens = [t for t in text.replace(b"\t", b" ").split(b" ") if t]
    where = f"line {line}"
    if len(tokens) != columns:
        return ParseError(f"{where}: expected {columns} fields, "
                          f"got {len(tokens)}")
    for col, tok in enumerate(tokens):
        if not tok.isdigit():
            if tok[:1] == b"-" and tok[1:].isdigit():
                name = field or ("id" if col < 2 else "value")
                return ParseError(f"{where}: negative {name}")
            return ParseError(f"{where}: non-integer token")
    return ParseError(f"{where}: integer out of range (max {_MAX_VALUE})")


def _token_values(buf: np.ndarray, ends: np.ndarray, lengths: np.ndarray):
    """The integers of the digit runs of ``buf`` that end before ``ends``
    and are ``lengths`` digits long, 1 to ``_MAX_DIGITS`` each.

    One byte gather per digit place: place ``p`` reads ``buf[ends - p]``
    and adds its digit times ``10**(p - 1)`` where the token has ``p``
    digits or more.  The sum is int32 when no token is longer than 9 digits,
    else int64; either way it is exact.
    """
    if not ends.size:
        return np.empty(0, dtype=np.int32)
    longest, shortest = int(lengths.max()), int(lengths.min())
    dtype = np.int32 if longest <= 9 else np.int64
    pos = ends - 1
    values = buf[pos].astype(dtype)
    values -= ord("0")
    lengths = lengths.astype(np.uint8)
    term = np.empty_like(values)
    for place in range(2, longest + 1):
        pos -= 1  # a shorter token's byte, or a wrapped one, is zeroed
        digit = buf[pos]
        digit -= np.uint8(ord("0"))
        if place > shortest:
            digit *= lengths >= place
        # The loop type is named, so no numpy version picks a uint8 or
        # uint16 loop for the scalar and wraps the product.
        np.multiply(digit, 10 ** (place - 1), out=term, dtype=dtype)
        values += term
    return values


def _canonical_values(buf: np.ndarray, columns: int | None):
    """``(values, columns)`` of a block in the form the writers produce,
    else None.

    Every line of such a block is ``columns`` runs of 1 to ``_MAX_DIGITS``
    digits joined by single spaces and ended by an LF, and every value is
    at most ``_MAX_VALUE``; with ``columns=None`` the first line sets the
    width.  Bytes below "0" are the separators, so two compares, the gaps
    between separators and the separators themselves check the form.
    """
    if (not buf.size or buf[0] < ord("0") or buf[-1] != ord("\n")
            or buf.max() > ord("9")):
        return None
    seps = np.flatnonzero(buf < ord("0"))
    gaps = np.diff(seps, prepend=-1)
    if gaps.min() < 2 or gaps.max() > _MAX_DIGITS + 1:
        return None
    marks = buf[seps]
    if columns is None:
        columns = int(np.argmax(marks == ord("\n"))) + 1
    if marks.size % columns:
        return None
    marks = marks.reshape(-1, columns)
    if not ((marks[:, -1] == ord("\n")).all()
            and (marks[:, :-1] == ord(" ")).all()):
        return None
    values = _token_values(buf, seps, gaps - 1)
    if values.max() > _MAX_VALUE:
        return None
    return values, columns


def _header_end(buf: np.ndarray) -> int:
    """Bytes of the leading lines of ``buf`` that start with `#`, through
    the LF that ends the last of them; 0 when ``buf`` starts otherwise.

    An LF always ends a line, so the split falls between two lines of the
    input.  The LFs are found in a window that starts at ``_HEADER_SCAN``
    bytes and doubles until it holds a line that starts otherwise.
    """
    if not buf.size or buf[0] != ord("#"):
        return 0
    size = _HEADER_SCAN
    while True:
        ends = np.flatnonzero(buf[:size] == ord("\n"))
        # Line i + 1 starts after the LF that ends line i.
        data = np.flatnonzero(buf[ends[:-1] + 1] != ord("#"))
        if data.size:
            return int(ends[data[0]]) + 1
        if size >= buf.size:
            return int(ends[-1]) + 1 if ends.size else 0
        size *= 2


def _parse_block(block, columns: int | None, field: str | None,
                 lines: int):
    """Check and convert one block of whole lines with array operations.

    ``lines`` lines of the input come before the block.  Returns
    ``(values, columns, headers, lines)``: the block's integers in order, the
    row width (still None if ``columns`` was and the block has no data
    line), its `#U` header, if any, and ``lines`` plus the block's line
    ends.  A ParseError names the block's first malformed line.

    The block's leading `#` lines, such as the writers' headers, are parsed
    first and apart from the body (:func:`_header_end`), so that the body
    can still take the fast path.  Header lines come before every body
    line, so the first malformed line is still the one reported.
    """
    buf = np.frombuffer(block, dtype=np.uint8)
    head = _header_end(buf)
    if not head:
        return _parse_lines(buf, columns, field, lines)
    values, columns, headers, lines = _parse_lines(buf[:head], columns,
                                                   field, lines)
    body, columns, found, lines = _parse_lines(buf[head:], columns, field,
                                               lines)
    headers.update(found)
    return np.concatenate((values, body)), columns, headers, lines


def _parse_lines(buf: np.ndarray, columns: int | None, field: str | None,
                 lines: int):
    """:func:`_parse_block` of whole lines ``buf``, without the header split.

    Lines in the writers' form (:func:`_canonical_values`) are converted
    without the general checks below; any other lines, and so every error
    message, go through them.
    """
    canonical = _canonical_values(buf, columns)
    if canonical is not None:
        values, columns = canonical
        return values, columns, {}, lines + values.size // columns
    newline = (buf == ord("\n")) | (buf == ord("\r"))
    bounds = np.concatenate(([-1], np.flatnonzero(newline), [buf.size]))
    buf, headers, bad_header = _strip_comments(buf, bounds)
    sep = newline | (buf == ord(" ")) | (buf == ord("\t"))
    digit = (buf - np.uint8(ord("0"))) < 10
    # Token boundaries alternate start, end.
    flips = np.flatnonzero(np.diff(sep, prepend=True, append=True))
    starts, ends = flips[0::2], flips[1::2]
    counts = np.diff(np.searchsorted(starts, bounds))
    if columns is None:  # 0 without a data line, and None again on return
        columns = int(counts[counts != 0][:1].sum())
    # Everything before the first bad line is well-formed and gets parsed,
    # so an out-of-range value on an earlier line is still reported first.
    bad = np.concatenate((
        bounds[np.flatnonzero((counts != 0) & (counts != columns))[:1]] + 1,
        np.flatnonzero(~(sep | digit))[:1],
        starts[np.flatnonzero(ends - starts > _MAX_DIGITS)[:1]]))
    stop, first = buf.size, None
    if bad.size:
        first = int(bad.min())
        stop = int(bounds[np.searchsorted(bounds, first) - 1]) + 1
    ntok = int(np.searchsorted(starts, stop))
    values = _token_values(buf, ends[:ntok], ends[:ntok] - starts[:ntok])
    big = np.flatnonzero(values > _MAX_VALUE)
    if big.size:
        first = int(starts[big[0]])
    # A bad `#U` header is an error of its own line, so the earlier one wins.
    if bad_header is not None and (first is None or bad_header < first):
        line = lines + 1 + _line_ends(buf, bounds, bad_header)
        raise ParseError(f"line {line}: bad #U header")
    if first is not None:
        raise _line_error(buf, bounds, first, columns, field,
                          lines + 1 + _line_ends(buf, bounds, first))
    return (values, columns or None, headers,
            lines + _line_ends(buf, bounds, buf.size))


def _read_table(source, columns: int | None, field: str | None = None):
    """Parse rows of ``columns`` integers; returns (rows, headers).

    ``rows`` is an ``(r, columns)`` int32 array in file order: the parser
    admits no value above ``_MAX_VALUE``, so the cast of a block's values,
    int64 when a token is longer than 9 digits, is exact.  ``headers``
    holds the value of the last `#U <int>` comment, if any.  With
    ``columns=None`` the first data line sets the width.
    ``field`` names every column in error messages; by default the columns
    are an edge list's two ids and its values.  The input is parsed one
    block of whole lines at a time (see :func:`_blocks`), and a block of
    lines in the form the writers produce after their headers takes a fast
    path (see :func:`_canonical_values`).  A parse
    holds the rows, twice at 4 bytes per value while the blocks' rows are
    joined, and one block with its masks.  A ParseError names the first
    malformed line of the input, and an input without rows is an empty
    instance.
    """
    if isinstance(source, (str, Path)):
        with open(source, "rb") as fh:
            return _read_table(fh, columns, field)
    segments, parts, held, headers, lines = [], [], 0, {}, 0
    for block in _blocks(source):
        values, columns, found, lines = _parse_block(block, columns, field,
                                                     lines)
        headers.update(found)
        if values.size:
            parts.append(values.astype(np.int32, copy=False))
            held += values.size
            if held >= _JOIN_SEGMENT:
                segments.append(np.concatenate(parts))
                parts, held = [], 0
    parts = segments + parts
    if not parts:
        raise ValueError("empty instance")
    values = parts[0] if len(parts) == 1 else np.concatenate(parts)
    return values.reshape(-1, columns), headers


def _id_counts(rows: np.ndarray) -> list[int]:
    """One past the largest id in each of the two id columns of ``rows``.

    Raises ValueError, naming the largest id and the row count, when that id
    is at least ``_ID_SLACK + _IDS_PER_ROW * len(rows)``.
    """
    # One reduction per column: an axis-0 max over the strided pair of
    # columns is many times slower.
    counts = [int(rows[:, 0].max()) + 1, int(rows[:, 1].max()) + 1]
    limit = _ID_SLACK + _IDS_PER_ROW * len(rows)
    if max(counts) > limit:
        raise ValueError(
            f"largest id {max(counts) - 1} is too large for {len(rows)} rows: "
            f"ids are positional and must stay below {limit} "
            f"({_ID_SLACK} + {_IDS_PER_ROW} per row)")
    return counts


def _format_rows(columns, end: bytes = b"\n") -> bytes:
    """ASCII text of nonnegative integer arrays: one row per index, the
    values joined by spaces and each row closed by ``end``.

    Each array fills a ``(rows, width)`` block of one uint8 matrix with its
    ASCII digits, taken with repeated ``// 10``, where ``width`` is the
    length of its largest value.  A leading zero is written as a 0 byte (the
    last digit always stays), a one-byte column of spaces follows each block
    and ``end`` replaces the last one.  One boolean mask then drops the 0
    bytes.  A column of at most 9 digits is divided in uint32, which holds
    it exactly and divides faster than int64.
    """
    rows = len(columns[0])
    if not rows:
        return b""
    widths = [len(str(int(c.max()))) for c in columns]
    mat = np.empty((rows, sum(widths) + len(widths)), dtype=np.uint8)
    last = -1
    for col, width in zip(columns, widths):
        first, last = last + 1, last + width
        rest = col.astype(np.uint32) if width <= 9 else col
        for j in range(last, first - 1, -1):
            quot = rest // 10
            digit = rest - quot * 10 + ord("0")
            if j < last:
                digit *= rest > 0
            mat[:, j] = digit
            rest = quot
        last += 1
        mat[:, last] = ord(" ")
    mat[:, last] = end[0]
    return mat[mat != 0].tobytes()


def _write_rows(sink, head: list[str], *columns: np.ndarray) -> str | None:
    """Write header lines, then one line of space-separated integers per row.

    Rows are formatted ``_WRITE_BLOCK`` at a time by ``_format_rows``, so
    the digit matrices alive at once stay bounded by the block, not the
    input.  Returns the text when ``sink`` is None.  A path sink is opened in
    binary mode and gets the ASCII bytes of each block; a file object gets
    each block as a ``str``.  The output is LF-only; with neither header nor
    rows it is a single newline.
    """
    size = len(columns[0])
    first = "".join(f"{h}\n" for h in head) or ("" if size else "\n")
    blocks = (_format_rows([c[lo:lo + _WRITE_BLOCK] for c in columns])
              for lo in range(0, size, _WRITE_BLOCK))
    if sink is None:
        return first + b"".join(blocks).decode("ascii")
    if hasattr(sink, "write"):
        sink.write(first)
        for block in blocks:
            sink.write(block.decode("ascii"))
    else:
        with open(sink, "wb") as fh:
            fh.write(first.encode())
            fh.writelines(blocks)
    return None


def load_edge_list(source) -> CoverageInstance:
    """Load an unweighted edge list.

    ``n`` and ``m`` are one past the largest ids seen; ids are positional and
    never compacted, so an id far beyond the row count is rejected (see
    ``_ID_SLACK``).  Duplicate edges are deduplicated.  The parser rejects
    negative ids and ``n`` and ``m`` come from the largest ones, so no id
    needs a range check.  The element view is left to the first read.
    """
    rows, _ = _read_table(source, 2)
    n, m = _id_counts(rows)
    _check_key_range(n, m)
    # int64 before the product, which passes 2**31 once n * m does.
    key = rows[:, 0].astype(np.int64) * m + rows[:, 1]
    del rows  # freed before the keys are sorted
    key = _canonical_keys(key)
    return CoverageInstance._from_keys(n, m, key)


def loads_edge_list(text: str) -> CoverageInstance:
    """Load an edge list from a string."""
    return load_edge_list(text.encode("utf-8"))


def serialize_edge_list(instance: CoverageInstance, sink=None,
                        header_lines=()) -> str | None:
    """Write the canonical (set-major) edge list; returns text if sink is None."""
    head = [h if h.startswith("#") else f"#{h}" for h in header_lines]
    return _write_rows(sink, head, *instance.edges())


def load_weighted_edge_list(source) -> WeightedInstance:
    """Load a 3-column edge list where the third column is the element weight.

    Every edge of an element must repeat the same weight.  ``U`` defaults to
    the maximum weight and may be declared with a `#U <int>` header.
    """
    rows, headers = _read_table(source, 3)
    n, m = _id_counts(rows)
    s, e, w = rows.T
    base = CoverageInstance.from_edges(n, m, s, e)
    # The first row in file order whose weight is below 1 or differs from the
    # weight the previous edge of its element gave is reported.
    order = np.argsort(e, kind="stable")
    differs = ((e[order[1:]] == e[order[:-1]])
               & (w[order[1:]] != w[order[:-1]]))
    bad = np.concatenate((np.flatnonzero(w < 1), order[1:][differs]))
    if bad.size:
        i = int(bad.min())
        if w[i] < 1:
            raise ValueError(f"element {e[i]}: weight must be >= 1")
        raise ValueError(f"element {e[i]}: conflicting weights")
    weight = np.ones(m, dtype=np.int64)
    weight[e] = w
    U = headers.get("U", int(weight.max()))
    return WeightedInstance(base, weight, U)


def serialize_weighted_edge_list(winst: WeightedInstance, sink=None,
                                 header_lines=()) -> str | None:
    head = [f"#{h}" for h in header_lines] + [f"#U {winst.U}"]
    set_ids, elem_ids = winst.base.edges()
    return _write_rows(sink, head, set_ids, elem_ids,
                       winst.element_weight[elem_ids])


def _load_alpha_edge_list(source, cls):
    rows, headers = _read_table(source, 3)
    if "U" not in headers:
        raise ParseError("missing #U header for fractional coverage values")
    n, m = _id_counts(rows)
    return cls.from_edges(n, m, rows[:, 0], rows[:, 1], rows[:, 2],
                          headers["U"])


def load_fractional_edge_list(source) -> FractionalInstance:
    """Load a 3-column edge list of alpha numerators with a `#U` header."""
    return _load_alpha_edge_list(source, FractionalInstance)


def load_probabilistic_edge_list(source) -> ProbabilisticInstance:
    """Same format as the fractional loader; probabilistic interpretation."""
    return _load_alpha_edge_list(source, ProbabilisticInstance)


def serialize_fractional_edge_list(finst: FractionalInstance, sink=None,
                                   header_lines=()) -> str | None:
    head = [f"#{h}" for h in header_lines] + [f"#U {finst.U}"]
    return _write_rows(sink, head, *finst.base.edges(), finst.numer_set_order)


# ---------------------------------------------------------------------------
# Reductions and synthetic generators
# ---------------------------------------------------------------------------


def _khop_from_edges(nv: int, u: np.ndarray, v: np.ndarray,
                     hops: int) -> CoverageInstance:
    """k-hop closed neighbourhoods of the directed graph with edges
    ``u[i] -> v[i]`` on vertices ``0..nv-1``.

    The one-hop instance adds the diagonal to the edges; each further hop
    joins the reach so far with it, by one gather and one CSR build.  The
    gathered entries are checked against ``_EXPANSION_BUDGET`` first.
    """
    if hops not in (1, 2, 3):
        raise ValueError("hops must be 1, 2, or 3")
    if nv < 1:
        raise ValueError("empty instance")
    ids = np.arange(nv, dtype=np.int64)
    closed = CoverageInstance.from_edges(nv, nv, np.concatenate((u, ids)),
                                         np.concatenate((v, ids)))
    reach = closed
    for hop in range(2, hops + 1):
        a, mid = reach.edges()
        counts = closed.set_sizes[mid]
        _check_budget(int(counts.sum()), f"edges for {hop} hops",
                      "use fewer hops or a sparser graph")
        w = closed.set_elems[_gather_positions(closed.set_indptr, mid, counts)]
        reach = CoverageInstance.from_edges(nv, nv, np.repeat(a, counts), w)
    return reach


def khop_dominating_instance(adjacency, hops: int) -> CoverageInstance:
    """Reduce multi-hop dominating set to coverage.

    Vertices double as both sets and elements: set ``a`` contains element
    ``b`` iff ``b == a`` or ``b`` is reachable from ``a`` within ``hops``
    edges.  Any k-cover / partial-cover solution on the result is a dominating
    solution of the same value.  ``adjacency[a]`` lists the out-neighbours of
    ``a``, and edges are followed only in the direction listed: pass both
    directions of an undirected edge (the ``generate khop`` command does so
    for the edges of its graph file).  Self-loops and repeats change nothing.
    """
    sizes = [len(nbrs) for nbrs in adjacency]
    v = np.fromiter(itertools.chain.from_iterable(adjacency), dtype=np.int64,
                    count=sum(sizes))
    bad = np.flatnonzero((v < 0) | (v >= len(adjacency)))
    if bad.size:
        raise ValueError(f"neighbor id {v[bad[0]]} out of range")
    u = np.repeat(np.arange(len(adjacency), dtype=np.int64), sizes)
    return _khop_from_edges(len(adjacency), u, v, hops)


def generate_planted(k: int, m: int, k_prime: int, eps: float,
                     seed: int) -> tuple[CoverageInstance, list[int]]:
    """Planted partial-cover benchmark with a known optimum.

    ``k`` planted sets partition the ground set into consecutive blocks of
    size ``m/k``; ``k_prime`` decoy sets each hold ``ceil((1+eps) * m/k)``
    distinct elements drawn uniformly, independently across decoys.  Set ids
    are assigned by a seeded permutation so the hidden optimum does not align
    with smallest-id tie-breaking.  Returns the instance and the planted set
    ids (ascending).  Set, element and edge counts past ``_MAX_VALUE`` are
    rejected before anything is allocated.
    """
    if k < 1 or m < 1 or k_prime < 0:
        raise ValueError("k, m must be positive; k_prime nonnegative")
    if m % k != 0:
        raise ValueError("k must divide m so planted sets partition evenly")
    if eps < 0:
        raise ValueError("eps must be nonnegative")
    block = m // k
    decoy_size = _decoy_size(block, eps)
    if k_prime and decoy_size > m:
        raise ValueError("decoy sets larger than the ground set")
    n = k + k_prime
    for count, name in ((n, "sets"), (m, "elements"),
                        (m + k_prime * decoy_size, "edges")):
        if count > _MAX_VALUE:
            raise ValueError(f"planted instance needs {count} {name}, over "
                             f"the {_MAX_VALUE} that edge-list files hold")
    rng = np.random.default_rng(seed)
    # Run j < k of ``rows`` is planted block j; run k + i is decoy i's
    # picks, sorted, so every run ascends.  Set ``perm[j]`` is run j, so
    # the set view is the runs in the order of the inverse permutation.
    rows = np.empty(m + k_prime * decoy_size, dtype=np.int64)
    rows[:m] = np.arange(m)
    picks = rows[m:].reshape(k_prime, decoy_size)
    for i in range(k_prime):
        picks[i] = rng.choice(m, size=decoy_size, replace=False)
    picks.sort(axis=1)
    perm = rng.permutation(n)
    run_sizes = np.where(np.arange(n) < k, block, decoy_size)
    old = np.argsort(perm)
    sizes = run_sizes[old]
    set_elems = rows[_gather_positions(
        np.concatenate(([0], np.cumsum(run_sizes))), old, sizes)]
    return (CoverageInstance(n, m, np.concatenate(([0], np.cumsum(sizes))),
                             set_elems),
            sorted(int(s) for s in perm[:k]))


def generate_adversarial(n: int, k: int, beta: float,
                         seed: int = 0) -> CoverageInstance:
    """Bonus-set construction on which uniform edge sampling provably fails.

    ``n`` normal elements (ids ``0..n-1``) belong to every set.  ``beta * n``
    bonus elements follow in id order, split into ``k`` groups; group ``i`` is
    attached only to bonus set ``n-k+i``.  Bonus sets take the largest ids so
    that smallest-id tie-breaking favors normal sets, realizing the
    "arbitrary optimum" in the hardness argument.  The optimal k-cover picks
    the k bonus sets and covers all ``(beta+1) * n`` elements.  Construction
    is deterministic; ``seed`` is accepted for generator API uniformity.
    The ``n**2 + beta * n`` edges are checked against ``_EXPANSION_BUDGET``
    before any is listed.
    """
    if n < 2 or k < 1 or 2 * k > n:
        raise ValueError("need 1 <= k <= n/2")
    if beta < 1:
        raise ValueError("beta must be >= 1")
    group = _decimal(beta, "beta") * n / k
    if group.denominator != 1 or group < 1:
        raise ValueError("beta*n/k must be a positive integer")
    group = int(group)
    total_bonus = group * k
    _check_budget(n * n + total_bonus, "edges", "use a smaller n or beta")
    m = n + total_bonus
    normal_sets = np.repeat(np.arange(n, dtype=np.int64), n)
    normal_elems = np.tile(np.arange(n, dtype=np.int64), n)
    bonus_sets = np.repeat(np.arange(n - k, n, dtype=np.int64), group)
    bonus_elems = np.arange(n, m, dtype=np.int64)
    return CoverageInstance.from_edges(
        n, m,
        np.concatenate([normal_sets, bonus_sets]),
        np.concatenate([normal_elems, bonus_elems]))


def feature_pairs_instance(matrix) -> CoverageInstance:
    """Coverage view of column subset selection on a binary matrix.

    Columns become sets; elements are unordered row pairs ``{r1, r2}``
    (``r1 < r2``) that at least one column is active on, labelled by the code
    ``r1 * R + r2``.  Column ``c`` covers a pair iff it is active on both
    rows.  Only covered pairs are materialized; their dense element ids are
    assigned in increasing code order, with codes kept in
    ``element_labels``.  The ``sum(C(ones_c, 2))`` pairs are checked
    against ``_EXPANSION_BUDGET`` before any is listed.
    """
    mat = np.asarray(matrix)
    if mat.ndim != 2:
        raise ValueError("matrix must be 2-dimensional")
    if not np.isin(mat, (0, 1)).all():
        raise ValueError("matrix entries must be 0 or 1")
    nrows, ncols = mat.shape
    ones = mat.sum(axis=0, dtype=np.int64)
    _check_budget(int((ones * (ones - 1) // 2).sum()), "row pairs",
                  "use fewer rows or sparser columns")
    # The 1-entries in column-major order; entry i pairs with the ``later[i]``
    # entries after it in its column.
    col, row = np.nonzero(mat.T)
    ids = np.arange(row.size, dtype=np.int64)
    later = np.cumsum(ones)[col] - 1 - ids
    first = np.repeat(ids, later)
    codes = row[first] * nrows + row[_gather_positions(ids + 1, ids, later)]
    # Sort and drop equal neighbours: np.unique's hash path is far slower.
    all_codes = np.sort(codes)
    all_codes = all_codes[np.diff(all_codes, prepend=-1) != 0]
    if all_codes.size == 0:
        raise ValueError("empty instance")
    return CoverageInstance.from_edges(
        ncols, len(all_codes), col[first], np.searchsorted(all_codes, codes),
        element_labels=all_codes.tolist())
