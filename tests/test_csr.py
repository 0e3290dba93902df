"""CSR construction against lexsort/unique reference builders.

The constructors sort one packed int64 key per edge, as does the copy graph
of ``expansion_reference``, and sketch assembly transposes element runs.
The references below build the same arrays with chained ``np.lexsort``
calls and ``np.unique``, one sort per key column, and are the specification
the properties hold the constructors to: every array must be equal, with
the same dtype, on every input.
"""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from coversketch import CoverageInstance, FractionalInstance, \
    ProbabilisticInstance, feature_pairs_instance
from coversketch.instance import _check_key_range
from coversketch.sketch import HashSource, _assemble, _hash_order, \
    _select_elements, practical_params, probabilistic_copy_count, \
    sketch_fractional, sketch_probabilistic, SketchParams

from expansion_reference import edge_coin_array, fractional_copy_graph, \
    merge_copies, probabilistic_copy_graph, sketch_over_copies, sketch_params


def merged_copies(n, graph, params, source, original_m, per_element):
    """The sketch over the copy ``graph`` with its copies merged; copy
    ``c`` belongs to element ``c // per_element``."""
    sk = sketch_over_copies(n, *graph, params, source, original_m)
    return merge_copies(sk, sk.selected_elements // per_element)


def _indptr(ids, size):
    return np.concatenate(([0], np.cumsum(np.bincount(ids, minlength=size))))


def reference_csr(n, m, set_ids, elem_ids):
    """(set_indptr, set_elems, elem_indptr, elem_set_ids) of unique pairs."""
    set_ids = np.asarray(set_ids, dtype=np.int64)
    elem_ids = np.asarray(elem_ids, dtype=np.int64)
    order = np.lexsort((elem_ids, set_ids))
    s, e = set_ids[order], elem_ids[order]
    keep = np.ones(s.size, dtype=bool)
    keep[1:] = (s[1:] != s[:-1]) | (e[1:] != e[:-1])
    s, e = s[keep], e[keep]
    eorder = np.lexsort((s, e))
    return _indptr(s, n), e, _indptr(e, m), s[eorder]


def reference_feature_pairs(mat):
    """(element_labels, CSR arrays) of the row-pair instance, via np.unique."""
    nrows, ncols = mat.shape
    codes, sets = [], []
    for c in range(ncols):
        active = np.flatnonzero(mat[:, c])
        a, b = np.triu_indices(len(active), k=1)
        codes.append(active[a].astype(np.int64) * nrows + active[b])
        sets.append(np.full(len(a), c, dtype=np.int64))
    codes = np.concatenate(codes)
    labels = np.unique(codes)
    return labels, reference_csr(ncols, len(labels), np.concatenate(sets),
                                 np.searchsorted(labels, codes))


def reference_numerators(set_ids, elem_ids, numer):
    """Numerators in (set, element) and (element, set) order."""
    set_ids, elem_ids, numer = (np.asarray(a, dtype=np.int64)
                                for a in (set_ids, elem_ids, numer))
    return (numer[np.lexsort((elem_ids, set_ids))],
            numer[np.lexsort((set_ids, elem_ids))])


def _group_copies(flat, sets):
    order = np.lexsort((sets, flat))
    flat, sets = flat[order], sets[order]
    uniq, counts = np.unique(flat, return_counts=True)
    return uniq, np.concatenate(([0], np.cumsum(counts))), sets


def reference_fractional_copies(finst):
    base, U, reps = finst.base, finst.U, finst.numer_elem_order
    v = np.repeat(np.arange(base.m, dtype=np.int64), base.elem_degrees)
    start = np.cumsum(reps) - reps
    j = np.arange(int(reps.sum()), dtype=np.int64) - np.repeat(start, reps)
    return _group_copies(np.repeat(v * U, reps) + j,
                         np.repeat(base.elem_set_ids, reps))


def reference_probabilistic_copies(pinst, zeta, source):
    base = pinst.base
    flat, sets = [np.empty(0, dtype=np.int64)], [np.empty(0, dtype=np.int64)]
    for v in range(base.m):
        ids = v * zeta + np.arange(zeta, dtype=np.int64)
        lo, hi = base.elem_indptr[v], base.elem_indptr[v + 1]
        for s, a in zip(base.elem_set_ids[lo:hi].tolist(),
                        pinst.numer_elem_order[lo:hi].tolist()):
            coins = edge_coin_array(source, ids,
                                    np.full(zeta, s, dtype=np.int64))
            hit = coins < a / pinst.U
            flat.append(ids[hit])
            sets.append(np.full(int(hit.sum()), s, dtype=np.int64))
    return _group_copies(np.concatenate(flat), np.concatenate(sets))


def assert_arrays_equal(got, want):
    assert len(got) == len(want)
    for g, w in zip(got, want):
        assert g.dtype == np.int64 and np.asarray(w).dtype == np.int64
        np.testing.assert_array_equal(g, w)


def csr_arrays(inst):
    return (inst.set_indptr, inst.set_elems, inst.elem_indptr,
            inst.elem_set_ids)


# Side lengths on both sides of the two switches of the transpose: 256, from
# the one-pass radix sort of 8-bit ids to the two-pass sort of 16-bit ids,
# and 2**16, from there to the packed-key sort.
WIDE_SIDES = st.sampled_from((1, 3, 255, 256, 257, 65_535, 65_536, 65_537))


@st.composite
def edge_lists(draw, sides=st.integers(1, 9), max_edges=60):
    """(n, m, set_ids, elem_ids) in arbitrary order, duplicates allowed."""
    n = draw(sides)
    m = draw(sides)
    pairs = draw(st.lists(st.tuples(st.integers(0, n - 1),
                                    st.integers(0, m - 1)),
                          max_size=max_edges))
    set_ids = np.array([s for s, _ in pairs], dtype=np.int64)
    elem_ids = np.array([e for _, e in pairs], dtype=np.int64)
    return n, m, set_ids, elem_ids


@st.composite
def fractional_lists(draw, max_side=7, max_u=6):
    """Unique edges in arbitrary order with numerators in [0, U]."""
    n = draw(st.integers(1, max_side))
    m = draw(st.integers(1, max_side))
    U = draw(st.integers(1, max_u))
    pairs = draw(st.lists(st.tuples(st.integers(0, n - 1),
                                    st.integers(0, m - 1)),
                          unique=True, max_size=n * m))
    numer = draw(st.lists(st.integers(0, U), min_size=len(pairs),
                          max_size=len(pairs)))
    set_ids = np.array([s for s, _ in pairs], dtype=np.int64)
    elem_ids = np.array([e for _, e in pairs], dtype=np.int64)
    return n, m, set_ids, elem_ids, np.array(numer, dtype=np.int64), U


class TestCoverageFromEdges:
    @settings(max_examples=300, deadline=None)
    @given(edge_lists())
    def test_matches_reference(self, case):
        n, m, set_ids, elem_ids = case
        inst = CoverageInstance.from_edges(n, m, set_ids, elem_ids)
        assert_arrays_equal(csr_arrays(inst),
                            reference_csr(n, m, set_ids, elem_ids))
        assert inst.edge_count == len(inst.set_elems)

    @settings(max_examples=100, deadline=None)
    @given(edge_lists(WIDE_SIDES, max_edges=30))
    def test_matches_reference_wide_ids(self, case):
        n, m, set_ids, elem_ids = case
        inst = CoverageInstance.from_edges(n, m, set_ids, elem_ids)
        assert_arrays_equal(csr_arrays(inst),
                            reference_csr(n, m, set_ids, elem_ids))

    @pytest.mark.parametrize("seed", range(4))
    def test_large_shuffled_with_duplicates(self, seed):
        rng = np.random.default_rng(seed)
        n, m = int(rng.integers(1, 300)), int(rng.integers(1, 3000))
        set_ids = rng.integers(0, n, 20_000)
        elem_ids = rng.integers(0, m, 20_000)
        inst = CoverageInstance.from_edges(n, m, set_ids, elem_ids)
        assert_arrays_equal(csr_arrays(inst),
                            reference_csr(n, m, set_ids, elem_ids))

    @pytest.mark.parametrize("n, m", [(1, 1), (1, 5), (5, 1), (3, 0)])
    def test_empty_edge_arrays(self, n, m):
        inst = CoverageInstance.from_edges(n, m, [], [])
        assert_arrays_equal(csr_arrays(inst), reference_csr(n, m, [], []))
        assert inst.edge_count == 0

    @pytest.mark.parametrize("n, m", [(1, 1), (1, 7), (7, 1), (6, 9)])
    def test_largest_ids(self, n, m):
        set_ids = [n - 1, 0, n - 1, n - 1, 0]
        elem_ids = [m - 1, m - 1, 0, m - 1, 0]
        inst = CoverageInstance.from_edges(n, m, set_ids, elem_ids)
        assert_arrays_equal(csr_arrays(inst),
                            reference_csr(n, m, set_ids, elem_ids))

    def test_key_overflow_is_value_error(self):
        with pytest.raises(ValueError, match="overflow a 64-bit sort key"):
            CoverageInstance.from_edges(2**32, 2**31 + 1, [0], [0])

    def test_key_range_boundary(self):
        _check_key_range(2**32, 2**31)  # largest key 2**63 - 1
        with pytest.raises(ValueError):
            _check_key_range(2**32, 2**31 + 1)


@st.composite
def element_runs(draw, max_runs=8):
    """(n, counts, set_ids): runs of distinct ascending set ids, one per
    sketch element, with n small or on either side of 256 or of 2**16."""
    n = draw(st.one_of(st.integers(1, 9), WIDE_SIDES))
    runs = draw(st.lists(st.sets(st.integers(0, n - 1), max_size=6),
                         max_size=max_runs))
    counts = np.array([len(r) for r in runs], dtype=np.int64)
    set_ids = np.array([s for r in runs for s in sorted(r)], dtype=np.int64)
    return n, counts, set_ids


class TestRunAssembly:
    """Sketch assembly from element runs equals ``from_edges`` of the same
    edges: all four arrays, with their dtypes."""

    @settings(max_examples=300, deadline=None)
    @given(element_runs())
    def test_matches_from_edges(self, case):
        n, counts, set_ids = case
        elems = np.repeat(np.arange(len(counts), dtype=np.int64), counts)
        selected = np.arange(len(counts), dtype=np.int64) * 3
        sk = _assemble(n, selected, counts, set_ids, 1,
                       practical_params(1.0, 6), 3 * len(counts))
        want = CoverageInstance.from_edges(n, len(counts), set_ids, elems)
        assert_arrays_equal(csr_arrays(sk.instance), csr_arrays(want))
        assert_arrays_equal(csr_arrays(sk.instance),
                            reference_csr(n, len(counts), set_ids, elems))
        assert sk.instance.edge_count == want.edge_count
        assert_arrays_equal((sk.instance.set_sizes, sk.instance.elem_degrees),
                            (want.set_sizes, want.elem_degrees))
        assert_arrays_equal((sk.selected_elements,), (selected,))


class TestFractionalFromEdges:
    @settings(max_examples=300, deadline=None)
    @given(fractional_lists())
    def test_matches_reference(self, case):
        n, m, set_ids, elem_ids, numer, U = case
        for cls in (FractionalInstance, ProbabilisticInstance):
            finst = cls.from_edges(n, m, set_ids, elem_ids, numer, U)
            assert_arrays_equal(csr_arrays(finst.base),
                                reference_csr(n, m, set_ids, elem_ids))
            assert_arrays_equal(
                (finst.numer_set_order, finst.numer_elem_order),
                reference_numerators(set_ids, elem_ids, numer))

    @settings(max_examples=100, deadline=None)
    @given(fractional_lists(), st.data())
    def test_duplicate_edge_rejected(self, case, data):
        n, m, set_ids, elem_ids, numer, U = case
        if not set_ids.size:
            return
        i = data.draw(st.integers(0, set_ids.size - 1))
        with pytest.raises(ValueError, match="duplicate edge"):
            FractionalInstance.from_edges(
                n, m, np.append(set_ids, set_ids[i]),
                np.append(elem_ids, elem_ids[i]), np.append(numer, numer[i]),
                U)

    @settings(max_examples=50, deadline=None)
    @given(edge_lists(WIDE_SIDES, max_edges=30), st.randoms())
    def test_numerators_match_reference_wide_ids(self, case, rnd):
        n, m, set_ids, elem_ids = case
        pairs = sorted(set(zip(set_ids.tolist(), elem_ids.tolist())))
        rnd.shuffle(pairs)
        set_ids = np.array([s for s, _ in pairs], dtype=np.int64)
        elem_ids = np.array([e for _, e in pairs], dtype=np.int64)
        numer = np.arange(len(pairs), dtype=np.int64)
        finst = FractionalInstance.from_edges(n, m, set_ids, elem_ids, numer,
                                              max(len(pairs), 1))
        assert_arrays_equal(
            (finst.numer_set_order, finst.numer_elem_order),
            reference_numerators(set_ids, elem_ids, numer))

    def test_key_overflow_is_value_error(self):
        with pytest.raises(ValueError, match="overflow a 64-bit sort key"):
            FractionalInstance.from_edges(2**40, 2**40, [0], [0], [1], 1)

    @pytest.mark.parametrize("set_ids, elem_ids, numer", [
        ([0], [0], [1, 2, 2]),      # extra numerators
        ([0, 1], [0, 1], [1]),      # too few numerators
        ([0], [0], []),
    ])
    def test_numerator_count_must_match_edges(self, set_ids, elem_ids, numer):
        for cls in (FractionalInstance, ProbabilisticInstance):
            with pytest.raises(ValueError, match="one numerator per edge"):
                cls.from_edges(2, 2, set_ids, elem_ids, numer, 2)


class TestCopyGraphs:
    """The variant sketches against sketches of the materialized copy graph.

    Each test also holds the copy graph of ``expansion_reference`` to the
    lexsort builders above, so the reference is itself checked.
    """

    @settings(max_examples=200, deadline=None)
    @given(fractional_lists(), sketch_params(), st.integers(0, 2**32))
    def test_fractional_matches_reference(self, case, params, seed):
        finst = FractionalInstance.from_edges(*case)
        want = reference_fractional_copies(finst)
        assert_arrays_equal(fractional_copy_graph(finst), want)
        source = HashSource(seed)
        assert sketch_fractional(finst, params, source) == merged_copies(
            finst.base.n, want, params, source, finst.base.m * finst.U,
            finst.U)

    @settings(max_examples=60, deadline=None)
    @given(fractional_lists(max_side=5, max_u=4), st.integers(1, 24),
           st.sampled_from([0.7, 0.85, 1.0]), sketch_params(),
           st.integers(0, 2**32))
    def test_probabilistic_matches_reference(self, case, zeta, eps, params,
                                             seed):
        pinst = ProbabilisticInstance.from_edges(*case)
        source = HashSource(seed)
        assert_arrays_equal(probabilistic_copy_graph(pinst, zeta, source),
                            reference_probabilistic_copies(pinst, zeta,
                                                           source))
        zeta = probabilistic_copy_count(pinst.base.n, pinst.U, eps)
        want = reference_probabilistic_copies(pinst, zeta, source)
        assert sketch_probabilistic(pinst, eps, params, source) == \
            merged_copies(pinst.base.n, want, params, source,
                          pinst.base.m * zeta, zeta)

    def test_fractional_largest_file_u(self):
        U = 2**31 - 1
        finst = FractionalInstance.from_edges(
            3, 4, [2, 0, 1, 2, 0], [3, 3, 0, 1, 0], [2, 5, 1, 0, 3], U)
        want = reference_fractional_copies(finst)
        assert_arrays_equal(fractional_copy_graph(finst), want)
        assert want[0][-1] == 3 * U + 4  # last copy of element 3
        for params in (practical_params(1.0, 3),
                       SketchParams(mode="theory", n_tilde=5, degree_cap=1)):
            sk = sketch_fractional(finst, params, HashSource(1))
            assert sk == merged_copies(3, want, params, HashSource(1), 4 * U,
                                       U)
        sk = sketch_fractional(finst, practical_params(1.0, 3), HashSource(1))
        # Element 3 has numerators 2 and 5: copies 0-1 hold both sets and
        # copies 2-4 one, so its last group starts at copy 2.
        assert sk.element_weight @ sk.instance.elem_degrees == len(want[2])
        assert sk.selected_elements[-2:].tolist() == [3 * U, 3 * U + 2]
        assert sk.element_weight[-2:].tolist() == [2, 3]

    def test_fractional_key_overflow_is_value_error(self):
        # Three elements of 2**62 copies: flat ids reach 3 * 2**62 > 2**63.
        finst = FractionalInstance.from_edges(2, 3, [0, 1, 1], [1, 0, 1],
                                              [1, 2, 3], 2**62)
        with pytest.raises(ValueError, match="overflow a 64-bit sort key"):
            sketch_fractional(finst, practical_params(1.0, 2), HashSource(0))
        with pytest.raises(ValueError, match="overflow a 64-bit sort key"):
            fractional_copy_graph(finst)

    def test_fractional_flat_ids_at_key_limit(self):
        # Two elements of 2**62 copies: every flat id is below 2**63.
        U = 2**62
        finst = FractionalInstance.from_edges(2, 2, [0, 1, 1], [1, 0, 1],
                                              [1, 2, 3], U)
        sk = sketch_fractional(finst, practical_params(1.0, 2), HashSource(0))
        # Copies 0-1 of element 0 hold set 1; of element 1, copy 0 holds
        # sets 0 and 1 and copies 1-2 set 1.
        assert sk.selected_elements.tolist() == [0, U, U + 1]
        assert sk.element_weight.tolist() == [2, 1, 2]
        assert sk.original_m == 2 * U


class TestSelectElements:
    @settings(max_examples=200, deadline=None)
    @given(st.lists(st.sampled_from([0.0, 0.25, 0.5, 0.75]), max_size=40),
           st.integers(1, 3), st.integers(1, 60))
    def test_theory_order_breaks_ties_by_id(self, hashes, cap, n_tilde):
        hashes = np.array(hashes, dtype=np.float64)
        capped = np.full(hashes.size, cap, dtype=np.int64)
        params = SketchParams(mode="theory", n_tilde=n_tilde, degree_cap=cap)
        order = np.lexsort((np.arange(hashes.size), hashes))
        cum = np.cumsum(capped[order])
        stop = (int(np.searchsorted(cum, n_tilde)) + 1
                if hashes.size and cum[-1] >= n_tilde else hashes.size)
        np.testing.assert_array_equal(
            _select_elements(hashes, capped, params), order[:stop])

    def test_theory_tied_hashes_take_smaller_id_first(self):
        # Sixteen elements on two hash values: the smaller value's ids come
        # first, and each value's ids ascend.
        hashes = np.tile([0.5, 0.25], 8)
        capped = np.ones(16, dtype=np.int64)
        params = SketchParams(mode="theory", n_tilde=12, degree_cap=1)
        assert _select_elements(hashes, capped, params).tolist() == \
            [1, 3, 5, 7, 9, 11, 13, 15, 0, 2, 4, 6]


class TestHashOrder:
    @settings(max_examples=200, deadline=None)
    @given(st.one_of(
        st.lists(st.sampled_from([0.0, 0.125, 0.5, 0.875]), max_size=300),
        st.lists(st.floats(0.0, 1.0, exclude_max=True), max_size=300,
                 unique=True)))
    def test_equals_stable_argsort(self, hashes):
        hashes = np.array(hashes, dtype=np.float64)
        np.testing.assert_array_equal(_hash_order(hashes),
                                      np.argsort(hashes, kind="stable"))


class TestFeaturePairs:
    def check(self, mat):
        labels, csr = reference_feature_pairs(mat)
        if not labels.size:
            with pytest.raises(ValueError, match="empty instance"):
                feature_pairs_instance(mat)
            return
        inst = feature_pairs_instance(mat)
        assert inst.element_labels == labels.tolist()
        assert_arrays_equal(csr_arrays(inst), csr)

    @settings(max_examples=200, deadline=None)
    @given(st.integers(1, 8), st.integers(1, 6), st.data())
    def test_matches_unique_reference(self, nrows, ncols, data):
        cells = data.draw(st.lists(st.integers(0, 1), min_size=nrows * ncols,
                                   max_size=nrows * ncols))
        self.check(np.array(cells).reshape(nrows, ncols))

    @pytest.mark.parametrize("seed", range(2))
    def test_dense_random_matrix(self, seed):
        rng = np.random.default_rng(seed)
        self.check((rng.random((150, 12)) < 0.5).astype(int))
