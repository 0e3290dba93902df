import io
import json
import math
import sys
import threading
import tracemalloc
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from coversketch import (
    CoverageInstance,
    ParseError,
    brute_force_kcover,
    coverage,
    feature_pairs_instance,
    generate_adversarial,
    generate_planted,
    greedy_kcover,
    khop_dominating_instance,
    load_edge_list,
    loads_edge_list,
    serialize_edge_list,
    stats,
)
from coversketch import cli
from coversketch import instance as instance_mod
from coversketch.instance import (
    FractionalInstance,
    WeightedInstance,
    _decoy_size,
    _khop_from_edges,
    _transpose,
    load_fractional_edge_list,
    load_probabilistic_edge_list,
    load_weighted_edge_list,
    serialize_fractional_edge_list,
    serialize_weighted_edge_list,
)
from coversketch.sketch import HashSource, build_sketch, practical_params

import planted_reference
from conftest import decimals


def set_edges(inst):
    """Element list of every set, in set order."""
    return [inst.set_elements(s) for s in range(inst.n)]


def element_edges(inst):
    """Set list of every element, in element order."""
    return [inst.element_sets(v) for v in range(inst.m)]


class TestLoadEdgeList:
    def test_basic(self):
        inst = loads_edge_list("0 0\n0 1\n1 1\n")
        assert (inst.n, inst.m, inst.edge_count) == (2, 2, 3)

    def test_malformed_token_reports_line(self):
        with pytest.raises(ParseError, match="line 1"):
            loads_edge_list("0 x\n")

    def test_malformed_later_line(self):
        with pytest.raises(ParseError, match="line 3"):
            loads_edge_list("0 0\n# fine\n0\n")

    def test_duplicate_edges_deduplicated(self):
        inst = loads_edge_list("0 0\n0 0\n")
        assert inst.edge_count == 1

    def test_empty_is_an_error(self):
        with pytest.raises(ValueError, match="empty instance"):
            loads_edge_list("# only comments\n")

    def test_comments_and_gap_ids(self):
        # Unreferenced intermediate ids stay as degree-0 elements.
        inst = loads_edge_list("# header\n0 0\n1 4\n")
        assert (inst.n, inst.m) == (2, 5)
        assert inst.elem_degrees.tolist() == [1, 0, 0, 0, 1]

    def test_negative_id_rejected(self):
        with pytest.raises(ParseError):
            loads_edge_list("0 -1\n")

    def test_round_trip(self):
        inst = loads_edge_list("3 1\n0 0\n0 5\n2 3\n1 1\n")
        text = serialize_edge_list(inst)
        again = load_edge_list(io.BytesIO(text.encode()))
        assert again == inst

    def test_file_source(self, tmp_path):
        path = tmp_path / "edges.txt"
        path.write_text("0 0\n1 1\n")
        inst = load_edge_list(path)
        assert inst.n == 2


class TestCoverageInstance:
    def test_adjacency_consistency(self):
        inst = loads_edge_list("0 0\n0 1\n1 1\n2 0\n")
        assert inst.set_elements(0).tolist() == [0, 1]
        assert inst.element_sets(1).tolist() == [0, 1]
        assert inst.edge_count == sum(len(e) for e in set_edges(inst))
        assert inst.edge_count == sum(len(e) for e in element_edges(inst))

    def test_out_of_range_rejected(self):
        with pytest.raises(ValueError):
            CoverageInstance.from_edges(2, 2, [0, 2], [0, 1])

    def test_equality(self):
        a = loads_edge_list("0 0\n1 1\n")
        b = loads_edge_list("1 1\n0 0\n")
        assert a == b

    def test_equality_compares_element_view(self):
        a = CoverageInstance.from_edges(2, 2, [0, 1], [0, 1])
        broken = CoverageInstance(2, 2, a.set_indptr, a.set_elems, [0, 2, 2],
                                  [0, 1])
        assert broken != a

    def test_element_view_needs_both_arrays(self):
        a = CoverageInstance.from_edges(2, 2, [0, 1], [0, 1])
        with pytest.raises(ValueError, match="both of its arrays"):
            CoverageInstance(2, 2, a.set_indptr, a.set_elems, a.elem_indptr)


def _sketch_of_keys(text):
    """The instance the sketch command writes for ``text``."""
    return build_sketch(load_edge_list(text), practical_params(0.5, 2),
                        HashSource(3)).instance


# (constructor, transposes a full read of the element view makes).  The
# sketch assembly hands both views to the constructor.
LAZY_CONSTRUCTORS = [
    ("from_edges", lambda: CoverageInstance.from_edges(
        4, 6, [0, 3, 1, 0, 3, 2], [5, 0, 2, 5, 1, 5]), 1),
    ("load_edge_list", lambda: load_edge_list(b"2 1\n0 3\n2 0\n2 3\n"), 1),
    ("khop", lambda: _khop_from_edges(5, np.array([0, 1, 2, 3]),
                                      np.array([1, 2, 3, 4]), 2), 1),
    ("feature_pairs", lambda: feature_pairs_instance(
        [[1, 0, 1], [1, 1, 0], [0, 1, 1], [1, 1, 1]]), 1),
    ("adversarial", lambda: generate_adversarial(4, 2, 1.0), 1),
    ("planted", lambda: generate_planted(3, 12, 4, 0.5, 7)[0], 1),
    ("build_sketch", lambda: build_sketch(
        generate_planted(3, 12, 4, 0.5, 7)[0], practical_params(0.5, 2),
        HashSource(3)).instance, 0),
    ("sketch_keys", lambda: _sketch_of_keys(
        b"0 0\n0 1\n1 1\n2 1\n2 3\n0 4\n3 4\n1 5\n"), 0),
]


class TestLazyElementView:
    """The set view is held; the element view is derived on first read and
    equals an eager transpose of the set view."""

    @pytest.mark.parametrize("make, builds", [c[1:] for c in LAZY_CONSTRUCTORS],
                             ids=[c[0] for c in LAZY_CONSTRUCTORS])
    def test_derived_view_equals_transpose(self, make, builds, transposes):
        inst = make()
        del transposes[:]
        want_indptr, want_ids, _ = _transpose(inst.set_indptr, inst.set_elems,
                                              inst.m)
        degrees = inst.elem_degrees
        assert transposes == []
        assert degrees.dtype == np.int64
        np.testing.assert_array_equal(degrees, np.diff(want_indptr))
        for _ in range(2):
            for got, want in ((inst.elem_indptr, want_indptr),
                              (inst.elem_set_ids, want_ids)):
                assert got.dtype == np.int64
                np.testing.assert_array_equal(got, want)
        assert len(transposes) == builds
        # Once built, the view's slots are set, so reads no longer reach
        # the fallback hook.
        assert inst._has_element_view()
        for v in range(inst.m):
            assert inst.element_sets(v).tolist() == [
                s for s in range(inst.n) if v in inst.set_elements(s)]

    @settings(max_examples=150, deadline=None)
    @given(st.data())
    def test_element_runs_match_a_full_view_gather(self, data):
        """``_element_runs`` on an unbuilt element view equals a gather from
        the full element view.  A selection that leaves an element out
        takes the masked path: it transposes only the selected elements'
        edges and leaves the instance's element view unbuilt.  Element ids
        fall on both sides of 2**16, where the transpose switches sorts."""
        wide = data.draw(st.booleans(), "wide")
        m = data.draw(st.integers(2**16 + 1, 2**16 + 200) if wide
                      else st.integers(1, 40), "m")
        n = data.draw(st.integers(1, 8), "n")
        ids = (st.one_of(st.integers(0, 40), st.integers(2**16 - 40, m - 1))
               if wide else st.integers(0, m - 1))
        edges = data.draw(st.lists(st.tuples(st.integers(0, n - 1), ids),
                                   max_size=60), "edges")
        set_ids = [s for s, _ in edges]
        elem_ids = [v for _, v in edges]
        full = CoverageInstance.from_edges(n, m, set_ids, elem_ids)
        kind = data.draw(st.sampled_from(["empty", "partial", "full"]),
                         "kind")
        rng = np.random.default_rng(data.draw(st.integers(0, 2**32 - 1)))
        if kind == "full":
            selected = rng.permutation(m)
        else:
            # Ids of elements with and without edges, in any order.
            selected = np.array(data.draw(st.lists(
                st.one_of(ids, st.sampled_from(elem_ids or [0])),
                unique=True, max_size=0 if kind == "empty" else 30)),
                dtype=np.int64)
        degrees = full.elem_degrees[selected]
        counts = data.draw(st.sampled_from(["zero", "degree", "any"]),
                           "counts")
        counts = {"zero": np.zeros_like(degrees), "degree": degrees,
                  "any": rng.integers(0, degrees + 1)}[counts]
        want = [s for v, c in zip(selected.tolist(), counts.tolist())
                for s in full.element_sets(v)[:c].tolist()]
        inst = CoverageInstance.from_edges(n, m, set_ids, elem_ids)
        with mock.patch.object(instance_mod, "_transpose",
                               wraps=instance_mod._transpose) as calls:
            got = inst._element_runs(selected, counts)
        assert got.dtype == np.int64 and got.tolist() == want
        masked = len(selected) < m
        assert inst._has_element_view() != masked
        assert [(c.args[2], len(c.args[1])) for c in calls.call_args_list] \
            == [(m, int(degrees.sum()) if masked else full.edge_count)]

    def test_threads_share_one_unread_instance(self):
        # Threads that race to the first read may each build the view; every
        # reader must still see arrays equal to one eager transpose.
        want = CoverageInstance.from_edges(300, 400, *np.divmod(
            np.random.default_rng(5).choice(120_000, 20_000, replace=False),
            400))
        want_indptr, want_ids, _ = _transpose(want.set_indptr, want.set_elems,
                                              want.m)
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            for _ in range(20):
                inst = CoverageInstance(want.n, want.m, want.set_indptr,
                                        want.set_elems)
                seen = []
                readers = [threading.Thread(target=lambda: seen.append(
                    (inst.elem_degrees, inst.elem_set_ids, inst.elem_indptr)))
                    for _ in range(6)]
                for t in readers:
                    t.start()
                for t in readers:
                    t.join(timeout=30)
                assert not any(t.is_alive() for t in readers)
                assert len(seen) == len(readers)
                for degrees, ids, indptr in seen:
                    np.testing.assert_array_equal(indptr, want_indptr)
                    np.testing.assert_array_equal(ids, want_ids)
                    np.testing.assert_array_equal(degrees,
                                                  np.diff(want_indptr))
        finally:
            sys.setswitchinterval(interval)

    @pytest.mark.parametrize("make", [c[1] for c in LAZY_CONSTRUCTORS[:6]],
                             ids=[c[0] for c in LAZY_CONSTRUCTORS[:6]])
    def test_set_view_readers_never_transpose(self, make, transposes):
        inst = make()
        del transposes[:]
        stats(inst)
        serialize_edge_list(inst)
        inst.elem_degrees
        assert transposes == []

    def test_sketch_leaves_a_loaded_set_view_unbuilt(self, transposes):
        # A cut that drops an element gathers the runs from an element view
        # of the kept elements' edges; the loaded instance stays a set view.
        text = b"0 0\n0 1\n1 1\n2 1\n2 3\n0 4\n3 4\n1 5\n"
        inst = load_edge_list(text)
        del transposes[:]
        sk = build_sketch(inst, practical_params(0.5, 2), HashSource(3))
        assert not inst._has_element_view()
        kept = int(inst.elem_degrees[sk.selected_elements].sum())
        assert 0 < kept < inst.edge_count
        assert transposes == [(inst.m, kept), (inst.n, sk.instance.edge_count)]
        full = load_edge_list(text)
        full.elem_indptr
        assert sk == build_sketch(full, practical_params(0.5, 2),
                                  HashSource(3))

    def test_generate_commands_never_transpose(self, tmp_path, capsys,
                                               transposes):
        graph = tmp_path / "graph.txt"
        graph.write_text("0 1\n1 2\n2 3\n0 3\n")
        for argv in (["planted", "--k", "10", "--m", "2000", "--kprime",
                      "50", "--eps", "0.2", "--seed", "1"],
                     ["khop", "--graph", str(graph), "--hops", "2"]):
            out = str(tmp_path / f"{argv[0]}.txt")
            assert cli.main(["generate", *argv, "--out", out]) == 0
        capsys.readouterr()
        assert transposes == []


def reference_khop(adjacency, hops):
    """Per-vertex BFS over the lists as given: the specification of
    ``khop_dominating_instance``.  The first id out of range in list order
    is reported."""
    if hops not in (1, 2, 3):
        raise ValueError("hops must be 1, 2, or 3")
    nv = len(adjacency)
    for w in (w for nbrs in adjacency for w in nbrs):
        if not 0 <= w < nv:
            raise ValueError(f"neighbor id {w} out of range")
    set_ids, elem_ids = [], []
    for a in range(nv):
        seen, frontier = {a}, [a]
        for _ in range(hops):
            nxt = []
            for u in frontier:
                for w in adjacency[u]:
                    if w not in seen:
                        seen.add(w)
                        nxt.append(w)
            frontier = nxt
        set_ids.extend([a] * len(seen))
        elem_ids.extend(sorted(seen))
    return CoverageInstance.from_edges(nv, nv, set_ids, elem_ids)


@st.composite
def directed_lists(draw):
    """Out-neighbour lists with repeats, self-loops and isolated vertices;
    in half the draws, ids may run one past the last vertex."""
    nv = draw(st.integers(1, 12))
    top = nv if draw(st.booleans()) else nv - 1
    return draw(st.lists(st.lists(st.integers(0, top), max_size=5),
                         min_size=nv, max_size=nv))


class TestKhopDominating:
    @settings(max_examples=300, deadline=None)
    @given(directed_lists(), st.integers(1, 3))
    def test_matches_bfs_reference(self, adjacency, hops):
        try:
            want = reference_khop(adjacency, hops)
        except ValueError as exc:
            with pytest.raises(ValueError, match=str(exc)):
                khop_dominating_instance(adjacency, hops)
            return
        assert khop_dominating_instance(adjacency, hops) == want

    def test_path_one_hop(self):
        adj = [[1], [0, 2], [1]]
        inst = khop_dominating_instance(adj, 1)
        assert inst.n == inst.m == 3
        assert inst.set_elements(1).tolist() == [0, 1, 2]
        assert len(inst.set_elements(0)) == 2
        assert len(inst.set_elements(2)) == 2

    def test_path_two_hops(self):
        adj = [[1], [0, 2], [1, 3], [2, 4], [3]]
        inst = khop_dominating_instance(adj, 2)
        assert inst.set_elements(2).tolist() == [0, 1, 2, 3, 4]

    def test_star_greedy_matches_brute_force(self):
        leaves = 5
        adj = [list(range(1, leaves + 1))] + [[0]] * leaves
        inst = khop_dominating_instance(adj, 1)
        best = brute_force_kcover(inst, 1)
        assert best.coverage_value == 6
        assert greedy_kcover(inst, 1).coverage_value == 6
        assert best.chosen == [0]

    def test_hop_containment(self):
        rng = np.random.default_rng(3)
        nv = 40
        adj = [[] for _ in range(nv)]
        for _ in range(60):
            u, v = rng.integers(0, nv, 2)
            if u != v:
                adj[int(u)].append(int(v))
                adj[int(v)].append(int(u))
        prev = None
        for hops in (1, 2, 3):
            inst = khop_dominating_instance(adj, hops)
            pairs = set(zip(*map(np.ndarray.tolist, inst.edges())))
            if prev is not None:
                assert prev <= pairs
            prev = pairs

    def test_bad_hops(self):
        with pytest.raises(ValueError):
            khop_dominating_instance([[1], [0]], 4)

    def test_two_hop_star_memory(self):
        # 1,000 leaves at 2 hops reach every vertex: 1,002,001 edges, built
        # and written without the element view, which nothing here reads.
        leaves = np.arange(1, 1001, dtype=np.int64)
        hub = np.zeros_like(leaves)
        tracemalloc.start()
        try:
            inst = _khop_from_edges(1001, np.concatenate((hub, leaves)),
                                    np.concatenate((leaves, hub)), 2)
            text = serialize_edge_list(inst)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert inst.edge_count == 1001**2
        assert text.count("\n") == inst.edge_count
        assert peak < 42 * 2**20


class TestGeneratePlanted:
    def test_partition_no_decoys(self):
        inst, planted = generate_planted(2, 4, 0, 0.0, seed=1)
        assert inst.n == 2 and inst.m == 4
        sizes = sorted(len(inst.set_elements(s)) for s in planted)
        assert sizes == [2, 2]
        assert coverage(inst, planted) == 4

    def test_decoy_sizes_and_planted_union(self):
        inst, planted = generate_planted(2, 100, 50, 0.2, seed=9)
        assert inst.n == 52 and inst.m == 100
        decoys = sorted(set(range(52)) - set(planted))
        assert all(len(inst.set_elements(s)) == 60 for s in decoys)
        assert coverage(inst, planted) == 100
        # planted blocks are disjoint
        assert sum(len(inst.set_elements(s)) for s in planted) == 100

    def test_hardinst_a_parameters(self):
        inst, planted = generate_planted(100, 10000, 10000, 0.2, seed=0)
        assert inst.n == 10100 and inst.m == 10000
        assert len(planted) == 100
        st = stats(inst)
        assert st.edge_count == 10000 + 10000 * 120

    def test_deterministic_in_seed(self):
        a, pa = generate_planted(4, 40, 10, 0.2, seed=5)
        b, pb = generate_planted(4, 40, 10, 0.2, seed=5)
        c, _ = generate_planted(4, 40, 10, 0.2, seed=6)
        assert a == b and pa == pb
        assert a != c

    def test_rejects_bad_params(self):
        with pytest.raises(ValueError):
            generate_planted(3, 10, 5, 0.2, seed=0)

    @pytest.mark.parametrize("eps", [math.nan, math.inf])
    def test_rejects_non_finite_eps(self, eps):
        with pytest.raises(ValueError, match="^eps must be a finite number$"):
            generate_planted(2, 4, 1, eps, seed=0)

    @settings(max_examples=300, deadline=None)
    @given(st.integers(1, 6), st.integers(1, 8), st.integers(0, 6),
           st.one_of(st.sampled_from([0.0, 1.0, 2.0, 3.0, 5.0]),
                     decimals(0, 3).map(float)),
           st.integers(0, 2**32 - 1))
    @example(2, 2, 3, 1.0, 0)  # decoy_size == m
    @example(10, 200, 0, 0.2, 1)
    def test_matches_reference(self, k, block, k_prime, eps, seed):
        # An integer eps of k - 1 makes every decoy the whole ground set.
        m = k * block
        try:
            want, want_planted = planted_reference.generate_planted(
                k, m, k_prime, eps, seed)
        except ValueError as exc:
            with pytest.raises(ValueError, match=str(exc)):
                generate_planted(k, m, k_prime, eps, seed)
            return
        got, planted = generate_planted(k, m, k_prime, eps, seed)
        assert planted == want_planted
        assert_same_csr(got, want)
        assert got == want

    def test_no_decoys_skip_the_decoy_size_check(self):
        # A decoy of ceil(1.2 * 100) elements would not fit in 100, but
        # there is none.
        inst, planted = generate_planted(1, 100, 0, 0.2, 1)
        assert (inst.n, inst.m, inst.edge_count) == (1, 100, 100)
        assert planted == [0]
        assert inst.set_elements(0).tolist() == list(range(100))
        with pytest.raises(ValueError, match="decoy sets larger"):
            generate_planted(1, 100, 1, 0.2, 1)

    @pytest.mark.parametrize("args, count", [
        ((1, 10**12, 0, 0.0), "1000000000000 elements"),
        ((100, 20_000, 10**8, 0.2), "24000020000 edges"),
        ((1, 1, 2**31 - 1, 0.0), "2147483648 sets"),
    ])
    def test_oversized_rejected_before_allocating(self, args, count):
        # Each count would take from 16 GiB to 7.28 TiB of int64 rows.
        tracemalloc.start()
        try:
            with pytest.raises(ValueError, match=f"needs {count}, over the "
                                                 f"{2**31 - 1}"):
                generate_planted(*args, seed=1)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 2**20

    def test_decoy_size_exact_at_scale(self):
        # In floats 1.1 * 21e6 is 23100000.000000004.
        assert _decoy_size(21_000_000, 0.1) == 23_100_000

    @given(decimals(0, 3), st.integers(1, 10**9))
    def test_decoy_size_is_exact(self, eps, block):
        assert _decoy_size(block, float(eps)) == math.ceil((1 + eps) * block)


class TestGenerateAdversarial:
    def test_paper_shape(self):
        inst = generate_adversarial(10, 2, 2.0)
        assert inst.n == 10 and inst.m == 30
        bonus_sets = [8, 9]
        assert coverage(inst, bonus_sets) == 30
        assert brute_force_kcover(inst, 2).coverage_value == 30

    def test_small_case_brute_force(self):
        inst = generate_adversarial(4, 2, 1.0)
        bonus = [2, 3]
        assert all(len(inst.set_elements(s)) == 4 + 2 for s in bonus)
        assert brute_force_kcover(inst, 2).coverage_value == 8

    def test_minimal_parameters(self):
        inst = generate_adversarial(2, 1, 1.0)
        assert len(inst.set_elements(0)) == 2
        assert len(inst.set_elements(1)) == 4

    def test_normal_sets_cover_only_normals(self):
        inst = generate_adversarial(10, 2, 2.0)
        assert coverage(inst, [0, 1]) == 10

    def test_param_validation(self):
        with pytest.raises(ValueError):
            generate_adversarial(10, 6, 2.0)  # k > n/2
        with pytest.raises(ValueError):
            generate_adversarial(10, 2, 1.3)  # beta*n/k not integral

    @pytest.mark.parametrize("beta", [math.nan, math.inf])
    def test_rejects_non_finite_beta(self, beta):
        with pytest.raises(ValueError, match="^beta must be a finite number$"):
            generate_adversarial(10, 2, beta)

    @pytest.mark.parametrize("n,edges", [(10**9, 10**18 + 10**9),
                                         (30_000, 900_030_000)])
    def test_edge_count_over_budget_rejected(self, n, edges):
        with pytest.raises(ValueError, match=f"expansion needs {edges} "
                                             "edges, over the budget"):
            generate_adversarial(n, 2, 1.0)

    def test_near_integral_beta_rejected(self):
        # 1.0000000001 * 4 / 2 lies within 1e-9 of 2 but is not an integer.
        with pytest.raises(ValueError, match="positive integer"):
            generate_adversarial(4, 2, 1.0000000001)

    def test_fractional_beta_with_integral_group(self):
        inst = generate_adversarial(4, 2, 1.5)
        assert (inst.n, inst.m) == (4, 10)
        assert inst.set_elements(2).tolist() == [0, 1, 2, 3, 4, 5, 6]
        assert inst.set_elements(3).tolist() == [0, 1, 2, 3, 7, 8, 9]

    def test_decimal_beta_is_exact(self):
        # As floats, 1.1 * 10 is 11.000000000000002; as a decimal it is 11.
        inst = generate_adversarial(10, 1, 1.1)
        assert inst.m == 21
        assert inst.set_elements(9).tolist() == list(range(21))


class TestFeaturePairs:
    def test_complete_column(self):
        inst = feature_pairs_instance(np.ones((3, 1), dtype=int))
        assert inst.n == 1 and inst.m == 3
        assert inst.element_labels == [1, 2, 5]  # codes r1*R + r2

    def test_identity_has_no_pairs(self):
        with pytest.raises(ValueError, match="empty instance"):
            feature_pairs_instance(np.eye(3, dtype=int))

    def test_two_column_counts(self):
        mat = np.zeros((4, 2), dtype=int)
        mat[[0, 1, 2], 0] = 1
        mat[[2, 3], 1] = 1
        inst = feature_pairs_instance(mat)
        assert len(inst.set_elements(0)) == 3
        assert len(inst.set_elements(1)) == 1
        assert coverage(inst, [0, 1]) == 4

    def test_non_binary_rejected(self):
        with pytest.raises(ValueError):
            feature_pairs_instance(np.array([[0, 2], [1, 1]]))

    def test_matches_direct_enumeration(self):
        rng = np.random.default_rng(11)
        mat = (rng.random((20, 6)) < 0.4).astype(int)
        try:
            inst = feature_pairs_instance(mat)
        except ValueError:
            return
        for c in range(6):
            active = np.flatnonzero(mat[:, c])
            want = len(active) * (len(active) - 1) // 2
            assert len(inst.set_elements(c)) == want


class TestStats:
    def test_small_instance(self):
        inst = loads_edge_list("0 0\n0 1\n1 1\n")
        st = stats(inst)
        assert st.max_set_size == 2
        assert st.max_element_degree == 2
        assert st.set_size_hist == (0, 1, 1)

    def test_single_edge(self):
        st = stats(loads_edge_list("0 0\n"))
        assert st.max_set_size == st.max_element_degree == 1

    def test_planted_edge_count(self):
        inst, _ = generate_planted(5, 50, 7, 0.2, seed=2)
        st = stats(inst)
        assert st.edge_count == 50 + 7 * 12

    def test_json_line(self):
        st = stats(loads_edge_list("0 0\n"))
        payload = json.loads(st.to_json_line())
        assert payload["n"] == 1 and payload["m"] == 1
        assert "\n" not in st.to_json_line()


class TestWeightedFormats:
    def test_weighted_round_trip(self):
        text = "#U 5\n0 0 2\n0 1 5\n1 1 5\n"
        winst = load_weighted_edge_list(io.BytesIO(text.encode()))
        assert winst.U == 5
        assert winst.element_weight.tolist() == [2, 5]
        again = load_weighted_edge_list(
            io.BytesIO(serialize_weighted_edge_list(winst).encode()))
        assert again.base == winst.base
        assert np.array_equal(again.element_weight, winst.element_weight)

    def test_conflicting_weights_rejected(self):
        with pytest.raises(ValueError, match="conflicting"):
            load_weighted_edge_list(io.BytesIO(b"0 0 2\n1 0 3\n"))

    def test_fractional_round_trip(self):
        text = "#U 4\n0 0 2\n1 0 3\n1 1 4\n"
        finst = load_fractional_edge_list(io.BytesIO(text.encode()))
        assert finst.U == 4
        again = load_fractional_edge_list(
            io.BytesIO(serialize_fractional_edge_list(finst).encode()))
        assert again.base == finst.base
        assert np.array_equal(again.numer_set_order, finst.numer_set_order)

    def test_fractional_requires_header(self):
        with pytest.raises(ParseError, match="#U"):
            load_fractional_edge_list(io.BytesIO(b"0 0 2\n"))

    def test_probabilistic_loader_shares_format(self):
        pinst = load_probabilistic_edge_list(io.BytesIO(b"#U 2\n0 0 1\n"))
        assert pinst.U == 2

    def test_numerator_range_enforced(self):
        with pytest.raises(ValueError):
            load_fractional_edge_list(io.BytesIO(b"#U 2\n0 0 3\n"))

    def test_weight_range_enforced(self):
        winst_src = io.BytesIO(b"#U 2\n0 0 0\n")
        with pytest.raises(ValueError):
            load_weighted_edge_list(winst_src)


@st.composite
def loadable_edges(draw):
    """(n, m, set_ids, elem_ids) whose largest ids n - 1 and m - 1 both
    occur, so the loader, which sizes by the largest ids, sees n and m."""
    pairs = draw(st.lists(st.tuples(st.integers(0, 7), st.integers(0, 9)),
                          min_size=1, max_size=40))
    set_ids = np.array([s for s, _ in pairs], dtype=np.int64)
    elem_ids = np.array([e for _, e in pairs], dtype=np.int64)
    return int(set_ids.max()) + 1, int(elem_ids.max()) + 1, set_ids, elem_ids


def assert_same_csr(got, want):
    for name in ("set_indptr", "set_elems", "elem_indptr", "elem_set_ids"):
        a, b = getattr(got, name), getattr(want, name)
        assert a.dtype == b.dtype == np.int64
        np.testing.assert_array_equal(a, b)
    assert (got.n, got.m) == (want.n, want.m)


class TestRoundTripProperties:
    """serialize then load gives back the instance, in all three formats."""

    @settings(max_examples=150, deadline=None)
    @given(loadable_edges())
    def test_plain(self, case):
        inst = CoverageInstance.from_edges(*case)
        again = load_edge_list(serialize_edge_list(inst).encode())
        assert_same_csr(again, inst)

    @settings(max_examples=150, deadline=None)
    @given(loadable_edges(), st.integers(1, 9), st.data())
    def test_weighted(self, case, U, data):
        inst = CoverageInstance.from_edges(*case)
        w = np.array(data.draw(st.lists(st.integers(1, U), min_size=inst.m,
                                        max_size=inst.m)), dtype=np.int64)
        w[inst.elem_degrees == 0] = 1  # the loader's weight for no edge
        winst = WeightedInstance(inst, w, U)
        again = load_weighted_edge_list(
            serialize_weighted_edge_list(winst).encode())
        assert_same_csr(again.base, inst)
        np.testing.assert_array_equal(again.element_weight, w)
        assert again.U == U

    @settings(max_examples=150, deadline=None)
    @given(loadable_edges(), st.integers(1, 9), st.data())
    def test_fractional(self, case, U, data):
        n, m, set_ids, elem_ids = case
        pairs = sorted(set(zip(set_ids.tolist(), elem_ids.tolist())))
        numer = data.draw(st.lists(st.integers(0, U), min_size=len(pairs),
                                   max_size=len(pairs)))
        finst = FractionalInstance.from_edges(
            n, m, [s for s, _ in pairs], [e for _, e in pairs], numer, U)
        again = load_fractional_edge_list(
            serialize_fractional_edge_list(finst).encode())
        assert_same_csr(again.base, finst.base)
        np.testing.assert_array_equal(again.numer_set_order,
                                      finst.numer_set_order)
        np.testing.assert_array_equal(again.numer_elem_order,
                                      finst.numer_elem_order)
        assert again.U == U
