import dataclasses
import io
import math
import tracemalloc
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st
from scipy.stats import chi2

from coversketch import (
    CoverageInstance,
    HashSource,
    build_sketch,
    build_sketch_lazy,
    coverage,
    element_hash_array,
    generate_planted,
    greedy_kcover,
    load_edge_list,
    loads_edge_list,
    practical_params,
    sketch_fractional,
    sketch_probabilistic,
    sketch_weighted,
    theory_params,
)
from coversketch import instance as instance_module
from coversketch import sketch as sketch_module
from coversketch.instance import (
    FractionalInstance,
    ProbabilisticInstance,
    WeightedInstance,
    load_fractional_edge_list,
    load_weighted_edge_list,
)
from coversketch.sketch import (
    Sketch,
    SketchParams,
    _TAG_ELEMENT,
    _bits_below,
    _combine_scalar,
    _unit_array,
    _unit_limit,
    derive_seed,
    probabilistic_copy_count,
    serialize_sketch,
)
from coversketch.solvers import (
    InfeasibleError,
    brute_force_kcover,
    brute_force_set_cover,
    lazy_greedy,
    stochastic_greedy,
)

from conftest import random_instance
from expansion_reference import (
    materialize_fractional,
    materialize_probabilistic,
    materialize_weighted,
    merge_copies,
    reference_fractional,
    reference_probabilistic,
    reference_weighted,
    sketch_over_copies,
    sketch_params,
    weighted_owners,
)


def element_hash(source, element_id):
    """The scalar hash of one element id to [0, 1), the cross-check of
    ``element_hash_array``."""
    z = _combine_scalar(source._base(_TAG_ELEMENT), int(element_id))
    return (z >> 11) * 2.0 ** -53


def copy_mass(sk):
    """Edges of the unit copies that the sketch's elements stand for."""
    degrees = sk.instance.elem_degrees
    weight = sk.element_weight
    return int(degrees.sum() if weight is None else weight @ degrees)


class TestElementHash:
    def test_deterministic(self):
        src = HashSource(1234)
        assert element_hash(src, 42) == element_hash(src, 42)

    def test_scalar_matches_vectorized(self):
        src = HashSource(99)
        ids = np.arange(200, dtype=np.int64)
        vec = element_hash_array(src, ids)
        for i in (0, 7, 150, 199):
            assert vec[i] == element_hash(src, i)

    def test_range(self):
        h = element_hash_array(HashSource(5), np.arange(10_000))
        assert h.min() >= 0.0 and h.max() < 1.0

    def test_chi_square_uniformity(self):
        # 10^6 ids, 16 buckets, significance 10^-3.
        h = element_hash_array(HashSource(2024), np.arange(1_000_000))
        counts = np.bincount((h * 16).astype(int), minlength=16)
        expected = 1_000_000 / 16
        stat = float(((counts - expected) ** 2 / expected).sum())
        assert stat < chi2.ppf(1 - 1e-3, df=15)

    def test_distinct_seeds_disagree(self):
        ids = np.arange(10_000)
        a = element_hash_array(HashSource(1), ids)
        b = element_hash_array(HashSource(2), ids)
        assert (a == b).mean() <= 1e-4

    def test_derive_seed_changes_family(self):
        ids = np.arange(1000)
        a = element_hash_array(HashSource(derive_seed(7, 0)), ids)
        b = element_hash_array(HashSource(derive_seed(7, 1)), ids)
        assert not np.array_equal(a, b)
        assert derive_seed(7, 3) == derive_seed(7, 3)


# Cut probabilities: the ends of [0, 1], the smallest float, exact
# multiples of 2**-53, numerator / U for U up to 2**31 - 1, and any float.
CUT_PROBABILITIES = st.one_of(
    st.sampled_from([0.0, 1.0, 5e-324]),
    st.integers(0, 2**53).map(lambda i: i * 2.0 ** -53),
    st.integers(1, 2**31 - 1).flatmap(
        lambda U: st.integers(0, U).map(lambda a: a / U)),
    st.floats(0.0, 1.0))


class TestUnitLimit:
    """The integer cut on hash bits decides as the float cut on hashes."""

    @settings(max_examples=500, deadline=None)
    @given(CUT_PROBABILITIES, st.integers(0, 2**64 - 1), st.booleans(),
           st.integers(-2**12, 2**12))
    @example(0.0, 0, False, 0)
    @example(1.0, 2**64 - 1, False, 0)
    @example(5e-324, 0, False, 0)
    @example(5e-324, 0, True, 2**11)
    @example(0.5, 0, True, -1)
    def test_integer_cut_equals_float_cut(self, q, z, near, offset):
        limit = math.ceil(q * 2.0 ** 53)
        if near:  # z on either side of the first bits the cut rejects
            z = min(max((limit << 11) + offset, 0), 2**64 - 1)
        bits = np.array([z], dtype=np.uint64)
        got = _unit_limit(q)
        assert int(got) == limit
        want = _unit_array(bits) < q
        np.testing.assert_array_equal((bits >> np.uint64(11)) < got, want)
        np.testing.assert_array_equal(_bits_below(bits.copy(), got), want)
        # Per-edge tables take an array of probabilities.
        table = _unit_limit(np.array([q, q]))
        np.testing.assert_array_equal(_bits_below(bits.repeat(2), table),
                                      want.repeat(2))


class TestTheoryParams:
    def test_degree_cap_formula(self):
        p = theory_params(n=1000, m=100, edge_count=10_000, k=100, eps=0.5)
        assert p.degree_cap == 14  # ceil(1000 ln2 / 50)

    def test_eps_one_rejected(self):
        with pytest.raises(ValueError, match="eps"):
            theory_params(n=10, m=10, edge_count=20, k=2, eps=1.0)

    def test_clamped_to_edge_count(self):
        inst = loads_edge_list("0 0\n1 1\n2 0\n")
        p = theory_params(inst.n, inst.m, inst.edge_count, k=1, eps=0.5)
        assert p.n_tilde == inst.edge_count
        sk = build_sketch(inst, p, HashSource(0))
        # Degree-capped full instance: every element survives.
        assert sk.instance.m == inst.m
        assert sk.instance.edge_count == int(
            np.minimum(inst.elem_degrees, p.degree_cap).sum())

    @pytest.mark.parametrize("edge_count,n_tilde", [
        (10_000, 10_000), (1_788_902, 1_788_902), (10**9, 1_788_902)])
    def test_records_raw_n_tilde(self, edge_count, n_tilde):
        p = theory_params(n=1000, m=100, edge_count=edge_count, k=100,
                          eps=0.5)
        assert (p.raw_n_tilde, p.n_tilde) == (1_788_902, n_tilde)
        # raw_n_tilde takes no part in equality.
        assert dataclasses.replace(p, raw_n_tilde=None) == p

    def test_k_bounds(self):
        with pytest.raises(ValueError):
            theory_params(n=5, m=10, edge_count=20, k=6, eps=0.5)

    @pytest.mark.parametrize("eps", [5e-17, 1e-300, 5e-324])
    def test_eps_that_vanishes_from_one_rejected(self, eps):
        # 1 - eps rounds to 1, so ln(1 / (1 - eps)) would divide by zero.
        with pytest.raises(ValueError, match="1 - eps rounds to 1"):
            theory_params(n=10, m=10, edge_count=20, k=2, eps=eps)

    def test_smallest_eps_above_one_ulp(self):
        # The degree cap passes 2**63; sketches clamp it for numpy.
        inst, _ = generate_planted(4, 40, 46, 0.2, 1)
        p = theory_params(inst.n, inst.m, inst.edge_count, k=1, eps=1.2e-16)
        assert p.degree_cap > 2**63
        sk = build_sketch(inst, p, HashSource(0))
        assert sk.instance == build_sketch(
            inst, dataclasses.replace(p, degree_cap=inst.n),
            HashSource(0)).instance


@st.composite
def element_rows(draw, max_n=6, max_m=12):
    """(n, rows): per element of a small instance, its set ids; rows may
    be empty, so that elements of degree 0 take part in the cut."""
    n = draw(st.integers(1, max_n))
    return n, draw(st.lists(st.sets(st.integers(0, n - 1), max_size=n),
                            max_size=max_m))


class TestBuildSketch:
    @settings(max_examples=300, deadline=None)
    @given(element_rows(), sketch_params(), st.integers(0, 2**64 - 1),
           st.booleans(), st.data())
    def test_matches_reference_cut(self, case, params, seed, tied, data):
        """``build_sketch`` is the reference sketch over its elements, one
        copy each, on a fresh set view and on an instance whose element
        view was read first.  ``n_tilde`` may be pinned to the capped mass,
        the tie that keeps every element only when none has degree 0."""
        n, rows = case
        m = len(rows)
        set_ids = [s for row in rows for s in sorted(row)]
        elem_ids = [v for v, row in enumerate(rows) for _ in row]
        ref = CoverageInstance.from_edges(n, m, set_ids, elem_ids)
        mass = int(np.minimum(ref.elem_degrees, params.cap).sum())
        if params.mode == "theory" and data.draw(st.booleans()):
            params = dataclasses.replace(params, n_tilde=max(1, mass))
        source = HashSource(seed)
        bits = _coarse_bits if tied else sketch_module._element_bits
        with mock.patch.object(sketch_module, "_element_bits", bits):
            want = sketch_over_copies(n, np.arange(m, dtype=np.int64),
                                      ref.elem_indptr, ref.elem_set_ids,
                                      params, source, m)
            for read_first in (False, True):
                inst = CoverageInstance.from_edges(n, m, set_ids, elem_ids)
                if read_first:
                    inst.elem_indptr
                assert inst._has_element_view() == read_first
                assert_same_sketch(build_sketch(inst, params, source), want)

    def test_practical_identity(self):
        inst = random_instance(0)
        sk = build_sketch(inst, practical_params(1.0, inst.n + 1), HashSource(3))
        assert sk.instance.edge_count == inst.edge_count
        assert np.array_equal(sk.selected_elements, np.arange(inst.m))
        assert sk.instance == inst

    def test_sigma_past_int64_is_uncapped(self):
        inst = random_instance(0)
        huge = build_sketch(inst, practical_params(0.5, 10**21), HashSource(3))
        want = build_sketch(inst, practical_params(0.5, inst.n), HashSource(3))
        assert huge.instance == want.instance
        assert huge.params.sigma == 10**21

    def test_practical_sigma_one(self):
        inst = random_instance(1)
        sk = build_sketch(inst, practical_params(0.7, 1), HashSource(3))
        assert sk.instance.edge_count == sk.instance.m
        for e in range(sk.instance.m):
            orig = inst.element_sets(int(sk.selected_elements[e]))
            assert sk.instance.element_sets(e).tolist() == [int(orig[0])]

    def test_theory_hand_case(self):
        # 3 sets, 4 elements of degree 1, target mass 2: the two
        # smallest-hash elements survive.
        inst = loads_edge_list("0 0\n1 1\n2 2\n0 3\n")
        params = SketchParams(mode="theory", k=1, eps=0.5, delta_dprime=0.5,
                              n_tilde=2, degree_cap=5, delta=1.0)
        src = HashSource(17)
        h = element_hash_array(src, np.arange(4))
        want = np.argsort(h)[:2]
        sk = build_sketch(inst, params, src)
        assert sorted(sk.selected_elements.tolist()) == sorted(want.tolist())
        assert sk.instance.edge_count == 2

    def test_theory_selection_is_hash_ordered(self):
        inst = random_instance(7, max_n=8, max_m=25)
        p = theory_params(inst.n, inst.m, inst.edge_count, k=2, eps=0.5)
        sk = build_sketch(inst, p, HashSource(1))
        h = element_hash_array(HashSource(1), sk.selected_elements)
        assert np.all(np.diff(h) > 0)

    def test_deterministic(self):
        inst = random_instance(5)
        p = practical_params(0.6, 2)
        assert build_sketch(inst, p, HashSource(9)) == \
            build_sketch(inst, p, HashSource(9))
        assert build_sketch(inst, p, HashSource(9)) != \
            build_sketch(inst, p, HashSource(10))

    def test_rho_monotone_selection(self):
        inst = random_instance(2, max_m=30)
        lo = build_sketch(inst, practical_params(0.3, 3), HashSource(4))
        hi = build_sketch(inst, practical_params(0.8, 3), HashSource(4))
        assert set(lo.selected_elements.tolist()) <= \
            set(hi.selected_elements.tolist())

    def test_sigma_monotone_edges(self):
        inst = random_instance(2, max_m=30)
        lo = build_sketch(inst, practical_params(0.5, 1), HashSource(4))
        hi = build_sketch(inst, practical_params(0.5, 4), HashSource(4))
        assert np.array_equal(lo.selected_elements, hi.selected_elements)
        for e in range(lo.instance.m):
            a = set(lo.instance.element_sets(e).tolist())
            b = set(hi.instance.element_sets(e).tolist())
            assert a <= b

    def test_truncation_keeps_smallest_set_ids(self):
        inst = loads_edge_list("5 0\n1 0\n3 0\n0 1\n")
        sk = build_sketch(inst, practical_params(1.0, 2), HashSource(0))
        e = int(np.flatnonzero(sk.selected_elements == 0)[0])
        assert sk.instance.element_sets(e).tolist() == [1, 3]

    @settings(max_examples=200, deadline=None)
    @given(st.integers(1, 8), st.integers(1, 12), st.data(),
           st.integers(0, 5), st.integers(0, 2**32))
    def test_uncapped_full_rate_sketch_is_the_instance(self, n, m, data,
                                                       extra, seed):
        pairs = data.draw(st.lists(st.tuples(st.integers(0, n - 1),
                                             st.integers(0, m - 1))))
        inst = CoverageInstance.from_edges(n, m, [s for s, _ in pairs],
                                           [e for _, e in pairs])
        sigma = int(inst.elem_degrees.max()) + extra or 1
        sk = build_sketch(inst, practical_params(1.0, sigma), HashSource(seed))
        assert sk.instance == inst
        for name in ("set_indptr", "set_elems", "elem_indptr",
                     "elem_set_ids"):
            got, want = getattr(sk.instance, name), getattr(inst, name)
            assert got.dtype == want.dtype == np.int64
            np.testing.assert_array_equal(got, want)
        np.testing.assert_array_equal(sk.selected_elements, np.arange(m))
        assert sk.original_m == m


class TestLazySketch:
    @staticmethod
    def _oracles(inst):
        return (lambda v: int(inst.elem_degrees[v]),
                lambda v, i: int(inst.element_sets(v)[i]))

    def test_exhaustion_lookup_count(self):
        inst = random_instance(3)
        deg, edge = self._oracles(inst)
        params = SketchParams(mode="theory", k=1, eps=0.5, delta_dprime=0.5,
                              n_tilde=inst.edge_count,
                              degree_cap=int(inst.elem_degrees.max()),
                              delta=1.0)
        sk = build_sketch_lazy(inst.m, deg, edge, params, HashSource(8),
                               set_count=inst.n)
        assert sk.instance.m == inst.m
        assert sk.oracle_lookups == inst.edge_count + inst.m

    def test_uniform_degree_selection_count(self):
        # 20 elements of degree 3; target mass 30 selects exactly 10.
        rows = [(e % 5, e) for e in range(20)]
        rows += [((e + 1) % 5, e) for e in range(20)]
        rows += [((e + 2) % 5, e) for e in range(20)]
        inst = CoverageInstance.from_edges(
            5, 20, [r[0] for r in rows], [r[1] for r in rows])
        deg, edge = self._oracles(inst)
        params = SketchParams(mode="theory", k=1, eps=0.5, delta_dprime=0.5,
                              n_tilde=30, degree_cap=5, delta=1.0)
        sk = build_sketch_lazy(inst.m, deg, edge, params, HashSource(0),
                               set_count=inst.n)
        assert sk.instance.m == 10

    def test_deterministic(self):
        inst = random_instance(4)
        deg, edge = self._oracles(inst)
        params = SketchParams(mode="theory", k=1, eps=0.5, delta_dprime=0.5,
                              n_tilde=max(1, inst.edge_count // 2),
                              degree_cap=2, delta=1.0)
        a = build_sketch_lazy(inst.m, deg, edge, params, HashSource(5),
                              set_count=inst.n)
        b = build_sketch_lazy(inst.m, deg, edge, params, HashSource(5),
                              set_count=inst.n)
        assert a == b

    def test_draw_order_replay_matches_eager_rule(self):
        inst = random_instance(6)
        deg, edge = self._oracles(inst)
        cap = 2
        params = SketchParams(mode="theory", k=1, eps=0.5, delta_dprime=0.5,
                              n_tilde=max(1, inst.edge_count // 3),
                              degree_cap=cap, delta=1.0)
        sk = build_sketch_lazy(inst.m, deg, edge, params, HashSource(21),
                               set_count=inst.n)
        # Replaying the draw order as hash order reproduces the sketch:
        # selection stops at the same prefix, each element keeps its first
        # min(cap, degree) edges.
        mass = 0
        for pos, v in enumerate(sk.selected_elements.tolist()):
            assert mass < params.n_tilde  # still selecting
            keep = inst.element_sets(v)[:cap]
            assert sk.instance.element_sets(pos).tolist() == keep.tolist()
            mass += len(keep)
        assert mass >= params.n_tilde or sk.instance.m == inst.m

    def test_no_duplicate_draws(self):
        inst = random_instance(8)
        deg, edge = self._oracles(inst)
        params = SketchParams(mode="theory", k=1, eps=0.5, delta_dprime=0.5,
                              n_tilde=inst.edge_count, degree_cap=1, delta=1.0)
        sk = build_sketch_lazy(inst.m, deg, edge, params, HashSource(2),
                               set_count=inst.n)
        sel = sk.selected_elements.tolist()
        assert len(sel) == len(set(sel))

    def test_repeated_lists_count_each_id_once(self):
        # An oracle that lists each element's sets twice (degree 2 deg)
        # keeps the same distinct ids, so it retains the same mass and
        # stops at the same element as the plain oracle.  With the cap at
        # the largest degree, counting the probes instead would stop early.
        inst = random_instance(13)
        base = [inst.element_sets(v).tolist() for v in range(inst.m)]
        params = SketchParams(mode="theory", k=1, eps=0.5, delta_dprime=0.5,
                              n_tilde=max(1, inst.edge_count // 2),
                              degree_cap=int(inst.elem_degrees.max()),
                              delta=1.0)
        deg, edge = self._oracles(inst)
        plain = build_sketch_lazy(inst.m, deg, edge, params, HashSource(4),
                                  set_count=inst.n)
        doubled = build_sketch_lazy(
            inst.m, lambda v: 2 * len(base[v]),
            lambda v, i: base[v][i % len(base[v])], params, HashSource(4),
            set_count=inst.n)
        np.testing.assert_array_equal(doubled.selected_elements,
                                      plain.selected_elements)
        for name in ("set_indptr", "set_elems", "elem_indptr",
                     "elem_set_ids"):
            np.testing.assert_array_equal(getattr(doubled.instance, name),
                                          getattr(plain.instance, name))

    def test_unsorted_repeated_oracle_ids(self):
        # The oracle lists each element's sets in reverse with repeats; the
        # sketch keeps each retained id once, as from_edges would.
        inst = random_instance(10)
        lists = [np.repeat(inst.element_sets(v)[::-1], 2).tolist()
                 for v in range(inst.m)]
        params = SketchParams(mode="theory", k=1, eps=0.5, delta_dprime=0.5,
                              n_tilde=max(1, inst.edge_count), degree_cap=3,
                              delta=1.0)
        sk = build_sketch_lazy(inst.m, lambda v: len(lists[v]),
                               lambda v, i: lists[v][i], params,
                               HashSource(13), set_count=inst.n)
        sel = sk.selected_elements
        kept = [lists[v][:3] for v in sel.tolist()]
        want = CoverageInstance.from_edges(
            inst.n, len(sel), [s for k in kept for s in k],
            np.repeat(np.arange(len(sel)), [len(k) for k in kept]))
        assert sk == Sketch(want, 13, params, sel, inst.m)
        for name in ("elem_indptr", "elem_set_ids"):
            np.testing.assert_array_equal(getattr(sk.instance, name),
                                          getattr(want, name))
        assert sk.oracle_lookups == len(sel) + sum(map(len, kept))
        assert any(len(set(k)) < len(k) for k in kept)

    def test_out_of_range_oracle_rejected(self):
        inst = random_instance(9)
        deg, _ = self._oracles(inst)
        params = SketchParams(mode="theory", k=1, eps=0.5, delta_dprime=0.5,
                              n_tilde=1, degree_cap=3, delta=1.0)
        with pytest.raises(ValueError, match="out-of-range"):
            build_sketch_lazy(inst.m, deg, lambda v, i: inst.n + 1, params,
                              HashSource(1), set_count=inst.n)

    def test_no_sets_rejected(self):
        params = SketchParams(mode="theory", n_tilde=1, degree_cap=1)
        with pytest.raises(ValueError, match="at least one set"):
            build_sketch_lazy(3, lambda v: 0, lambda v, i: 0, params,
                              HashSource(0), set_count=0)

    def test_requires_theory_mode(self):
        with pytest.raises(ValueError):
            build_sketch_lazy(3, lambda v: 1, lambda v, i: 0,
                              practical_params(0.5, 1), HashSource(0),
                              set_count=2)


def _random_weighted(seed, max_u=5):
    rng = np.random.default_rng(seed)
    inst = random_instance(seed + 100, max_n=6, max_m=10)
    U = int(rng.integers(1, max_u + 1))
    w = rng.integers(1, U + 1, size=inst.m)
    return WeightedInstance(inst, w, U)


def _random_fractional(seed, cls=FractionalInstance, max_u=4):
    rng = np.random.default_rng(seed)
    n = int(rng.integers(2, 7))
    m = int(rng.integers(2, 9))
    U = int(rng.integers(1, max_u + 1))
    set_ids, elem_ids, numer = [], [], []
    for v in range(m):
        for s in rng.choice(n, size=int(rng.integers(1, n + 1)),
                            replace=False):
            set_ids.append(int(s))
            elem_ids.append(v)
            numer.append(int(rng.integers(0, U + 1)))
    return cls.from_edges(n, m, set_ids, elem_ids, numer, U)


class TestSketchWeighted:
    def test_unit_weights_match_plain_sketch(self):
        inst = random_instance(12)
        winst = WeightedInstance(inst, np.ones(inst.m, dtype=np.int64), 1)
        for params in (practical_params(0.5, 2),
                       theory_params(inst.n, inst.m, inst.edge_count,
                                     k=2, eps=0.5)):
            assert sketch_weighted(winst, params, HashSource(3)) == \
                build_sketch(inst, params, HashSource(3))

    def test_single_element_weight_five(self):
        inst = loads_edge_list("0 0\n1 0\n")
        winst = WeightedInstance(inst, np.array([5]), 5)
        sk = sketch_weighted(winst, practical_params(1.0, 10), HashSource(1))
        # Five copies with the same run: one element of weight 5.
        assert sk.instance.m == 1 and sk.element_weight.tolist() == [5]
        assert sk.instance.element_sets(0).tolist() == [0, 1]

    def test_greedy_prefers_heavy_element(self):
        # Set 0 covers only the weight-3 element, set 1 only the weight-1.
        inst = loads_edge_list("0 0\n1 1\n")
        winst = WeightedInstance(inst, np.array([3, 1]), 3)
        sk = sketch_weighted(winst, practical_params(1.0, 5), HashSource(0))
        sol = greedy_kcover(sk, 1)
        expanded = materialize_weighted(winst)
        assert sol.chosen == brute_force_kcover(expanded, 1).chosen == [0]

    def test_matches_materialized_expansion_coverage(self):
        for seed in range(10):
            winst = _random_weighted(seed)
            expanded = materialize_weighted(winst)
            params = practical_params(0.7, 3)
            sk = sketch_weighted(winst, params, HashSource(seed))
            ref = build_sketch(expanded, params, HashSource(seed))
            # Flat-id hashing makes this exact.
            assert sk == merge_copies(
                ref, weighted_owners(winst, ref.selected_elements))

    def test_weighted_file_expansion_bound(self):
        winst = _random_weighted(33)
        expanded = materialize_weighted(winst)
        assert expanded.m == int(winst.element_weight.sum())


class TestSketchFractional:
    def test_hand_expansion(self):
        # One element, U=4, alpha0=0.5, alpha1=0.75.
        finst = FractionalInstance.from_edges(2, 1, [0, 1], [0, 0], [2, 3], 4)
        sk = sketch_fractional(finst, practical_params(1.0, 5), HashSource(2))
        # Copy 3 is isolated and excluded; copies 0 and 1 hold one run.
        assert sk.instance.m == 2
        by_flat = {int(sk.selected_elements[e]):
                   (sk.instance.element_sets(e).tolist(),
                    int(sk.element_weight[e]))
                   for e in range(sk.instance.m)}
        assert by_flat == {0: ([0, 1], 2), 2: ([1], 1)}

    def test_zero_alpha_contributes_no_copies(self):
        finst = FractionalInstance.from_edges(2, 2, [0, 1], [0, 1], [2, 0], 2)
        sk = sketch_fractional(finst, practical_params(1.0, 5), HashSource(2))
        assert set((sk.selected_elements // 2).tolist()) == {0}

    def test_saturated_alpha_scales_coverage(self):
        inst = random_instance(21, max_n=5, max_m=8)
        U = 3
        ones = np.full(inst.edge_count, U, dtype=np.int64)
        finst = FractionalInstance(inst, ones, ones.copy(), U)
        sk = sketch_fractional(finst, practical_params(1.0, 10), HashSource(0))
        chosen = [0, min(1, inst.n - 1)]
        assert coverage(sk, chosen) == U * coverage(inst, chosen)

    def test_matches_materialized_expansion(self):
        for seed in range(10):
            finst = _random_fractional(seed)
            params = practical_params(0.8, 3)
            sk = sketch_fractional(finst, params, HashSource(seed))
            expanded = materialize_fractional(finst)
            ref = build_sketch(expanded, params, HashSource(seed))
            # Same coverage for every single-set solution and a few pairs.
            for s in range(finst.base.n):
                assert coverage(sk, [s]) == coverage(ref, [s])
            assert coverage(sk, list(range(finst.base.n))) == \
                coverage(ref, list(range(finst.base.n)))


class TestSketchProbabilistic:
    def test_degenerate_probabilities_exact(self):
        inst = random_instance(31, max_n=4, max_m=6)
        U = 2
        numer = np.where(np.arange(inst.edge_count) % 2 == 0, U, 0)
        pinst = ProbabilisticInstance(inst, numer,
                                      _elem_order(inst, numer), U)
        eps = 0.5
        sk = sketch_probabilistic(pinst, eps, practical_params(1.0, inst.n),
                                  HashSource(3))
        zeta = probabilistic_copy_count(inst.n, U, eps)
        chosen = list(range(inst.n))
        est = coverage(sk, chosen) / zeta
        from coversketch.solvers import coverage_probabilistic
        assert est == coverage_probabilistic(pinst, chosen)

    def test_half_probability_two_sets(self):
        pinst = ProbabilisticInstance.from_edges(2, 1, [0, 1], [0, 0],
                                                 [1, 1], 2)
        eps = 0.3
        zeta = probabilistic_copy_count(2, 2, eps)
        sk = sketch_probabilistic(pinst, eps, practical_params(1.0, 2),
                                  HashSource(11))
        est = coverage(sk, [0, 1]) / zeta
        assert abs(est - 0.75) <= (eps / 2) * 0.75

    def test_empty_solution_covers_nothing(self):
        pinst = _random_fractional(5, cls=ProbabilisticInstance)
        sk = sketch_probabilistic(pinst, 0.5,
                                  practical_params(1.0, pinst.base.n),
                                  HashSource(0))
        assert coverage(sk, []) == 0

    def test_budget_error_advises_larger_eps(self, monkeypatch):
        pinst = _random_fractional(6, cls=ProbabilisticInstance)
        monkeypatch.setattr(instance_module, "_EXPANSION_BUDGET", 10)
        with pytest.raises(ValueError, match="eps"):
            sketch_probabilistic(pinst, 0.3, practical_params(1.0, 2),
                                 HashSource(0))

    def test_matches_materialized_expansion(self):
        pinst = _random_fractional(7, cls=ProbabilisticInstance, max_u=2)
        eps = 0.8
        params = practical_params(0.9, 2)
        sk = sketch_probabilistic(pinst, eps, params, HashSource(4))
        expanded, zeta = materialize_probabilistic(pinst, eps, HashSource(4))
        ref = build_sketch(expanded, params, HashSource(4))
        for s in range(pinst.base.n):
            assert coverage(sk, [s]) == coverage(ref, [s])


@st.composite
def variant_cases(draw, max_n=4, max_m=6, max_u=3, wide=True):
    """(fractional instance, weights) with empty elements, zero numerators
    and weights up to U.  With ``wide``, some bases have more than 256
    sets, so that the sketch's transpose sorts set ids in 16 bits rather
    than 8."""
    n = draw(st.integers(1, max_n))
    if wide:
        n = draw(st.one_of(st.just(n), st.integers(257, 300)))
    m = draw(st.integers(1, max_m))
    U = draw(st.integers(1, max_u))
    pairs = draw(st.lists(st.tuples(st.integers(0, n - 1),
                                    st.integers(0, m - 1)),
                          unique=True, max_size=min(n * m, max_n * max_m)))
    numer = draw(st.lists(st.integers(0, U), min_size=len(pairs),
                          max_size=len(pairs)))
    weights = draw(st.lists(st.integers(1, U), min_size=m, max_size=m))
    finst = FractionalInstance.from_edges(
        n, m, [s for s, _ in pairs], [e for _, e in pairs], numer, U)
    return finst, np.array(weights, dtype=np.int64)


def _coarse_bits(src, ids, exact=sketch_module._element_bits):
    """Element hash bits with all but the top two cleared.  Their hashes
    are the exact ones rounded down to quarters, so that many of them tie."""
    return exact(src, ids) & np.uint64(3 << 62)


def assert_same_sketch(got, want):
    """``==`` plus the dtypes that ``Sketch.__eq__`` does not compare, and
    weights that are None unless some weight exceeds 1."""
    assert got == want
    for sk in (got, want):
        inst = sk.instance
        assert sk.selected_elements.dtype == np.int64
        assert type(sk.original_m) is int
        if sk.element_weight is not None:
            assert sk.element_weight.dtype == np.int64
            assert len(sk.element_weight) == inst.m
            assert (sk.element_weight >= 1).all()
            assert (sk.element_weight > 1).any()
        for arr in (inst.set_indptr, inst.set_elems, inst.elem_indptr,
                    inst.elem_set_ids):
            assert arr.dtype == np.int64


def without_empty(sk):
    """``sk`` with its edgeless elements dropped, selection order and the
    weights of the others kept."""
    keep = sk.instance.elem_degrees > 0
    set_ids, elems = sk.instance.edges()
    inst = CoverageInstance.from_edges(sk.instance.n, int(keep.sum()),
                                       set_ids, (np.cumsum(keep) - 1)[elems])
    weight = sk.element_weight
    if weight is not None:
        weight = weight[keep] if (weight[keep] > 1).any() else None
    return Sketch(inst, sk.hash_seed, sk.params, sk.selected_elements[keep],
                  sk.original_m, element_weight=weight)


class TestVariantsMatchReference:
    """Sketches of the kept copies equal sketches of the whole expansion."""

    @settings(max_examples=300, deadline=None)
    @given(variant_cases(), sketch_params(), st.integers(0, 2**32),
           st.booleans(), st.integers(1, 16), st.sampled_from([0.8, 1.0]))
    def test_all_variants_match_reference(self, case, params, seed, tied,
                                          hash_block, eps):
        finst, weights = case
        base, U = finst.base, finst.U
        winst = WeightedInstance(base, weights, U)
        pinst = ProbabilisticInstance(base, finst.numer_set_order,
                                      finst.numer_elem_order, U)
        source = HashSource(seed)
        bits = _coarse_bits if tied else sketch_module._element_bits
        # Small hash blocks walk the block loop of every sample on tiny
        # inputs; blocks of 1-16 copies split an element's copies.  A base
        # with more than 256 sets has thousands of probabilistic copies per
        # element, so its blocks are 1,024 times larger.  Tied hashes check
        # the cut's tie-break by smaller flat id, and n_tilde within and
        # beyond the mass makes theory mode stop at its first rate, raise
        # it, or take every copy.
        scale = 1 if base.n <= 256 else 1024
        with mock.patch.multiple(sketch_module, _element_bits=bits,
                                 _HASH_BLOCK=hash_block * scale):
            assert_same_sketch(sketch_weighted(winst, params, source),
                               reference_weighted(winst, params, source))
            assert_same_sketch(sketch_fractional(finst, params, source),
                               reference_fractional(finst, params, source))
            assert_same_sketch(
                sketch_probabilistic(pinst, eps, params, source),
                reference_probabilistic(pinst, eps, params, source))

    @settings(max_examples=300, deadline=None)
    @given(variant_cases(), sketch_params(), st.integers(0, 2**32))
    def test_unit_expansions_reduce_to_plain_sketch(self, case, params, seed):
        finst, _ = case
        base, U = finst.base, finst.U
        source = HashSource(seed)
        plain = build_sketch(base, params, source)
        ones = np.ones(base.m, dtype=np.int64)
        assert_same_sketch(
            sketch_weighted(WeightedInstance(base, ones, U), params, source),
            plain)
        # All numerators U: copy (v, j) has flat id v * U + j, as in the
        # weighted expansion with every weight U, minus its edgeless copies.
        full = np.full(base.edge_count, U, dtype=np.int64)
        frac = sketch_fractional(FractionalInstance(base, full, full, U),
                                 params, source)
        heavy = sketch_weighted(WeightedInstance(base, U * ones, U), params,
                                source)
        assert_same_sketch(frac, without_empty(heavy))
        if U == 1:
            assert_same_sketch(frac, without_empty(plain))


def _variant_sketches(case, params, seed, eps):
    """(merged, unmerged, owners) of the three variant sketches of
    ``case``: the library's sketch, the reference sketch of the unit
    copies, and the base element of each of its copies."""
    finst, weights = case
    base, U = finst.base, finst.U
    winst = WeightedInstance(base, weights, U)
    pinst = ProbabilisticInstance(base, finst.numer_set_order,
                                  finst.numer_elem_order, U)
    source = HashSource(seed)
    zeta = probabilistic_copy_count(base.n, U, eps)
    heavy = reference_weighted(winst, params, source, merge=False)
    frac = reference_fractional(finst, params, source, merge=False)
    coins = reference_probabilistic(pinst, eps, params, source, merge=False)
    return [(sketch_weighted(winst, params, source), heavy,
             weighted_owners(winst, heavy.selected_elements)),
            (sketch_fractional(finst, params, source), frac,
             frac.selected_elements // U),
            (sketch_probabilistic(pinst, eps, params, source), coins,
             coins.selected_elements // zeta)]


def _same_outcome(solve, merged, copies):
    """``solve`` gives equal solutions on both sketches, or raises the same
    error on both."""
    try:
        want = solve(copies)
    except InfeasibleError:
        with pytest.raises(InfeasibleError):
            solve(merged)
        return
    assert solve(merged) == want


class TestSolversOnMergedSketches:
    """Every solver gives on a merged sketch what it gives on the copies."""

    @settings(max_examples=150, deadline=None)
    @given(variant_cases(wide=False), sketch_params(), st.integers(0, 2**32),
           st.sampled_from([0.8, 1.0]), st.integers(0, 2**32), st.data())
    def test_solutions_equal_on_copies(self, case, params, seed, eps,
                                       solver_seed, data):
        n = case[0].base.n
        for merged, copies, _ in _variant_sketches(case, params, seed, eps):
            for k in range(1, n + 1):
                for solve in (lambda sk: greedy_kcover(sk, k),
                              lambda sk: lazy_greedy(sk, k),
                              lambda sk: stochastic_greedy(sk, k, 0.9,
                                                           solver_seed),
                              lambda sk: brute_force_kcover(sk, k)):
                    _same_outcome(solve, merged, copies)
            lam = data.draw(st.sampled_from([0.0, 0.3, 0.7]))
            _same_outcome(lambda sk: brute_force_set_cover(sk, lam), merged,
                          copies)
            chosen = data.draw(st.lists(st.integers(0, n - 1), max_size=n))
            assert coverage(merged, chosen) == coverage(copies, chosen)


class TestRunKeys:
    """Copies with equal run keys and different runs are kept apart."""

    def _wide_case(self):
        # Element 0 lies in all 70 sets, past the degrees whose runs get
        # exact keys, with numerator U but in sets 5 and 60, so that its
        # copies hold a few runs many times over; element 1 lies in three.
        n, U = 70, 3
        sets = list(range(n)) + [0, 1, 2]
        elems = [0] * n + [1] * 3
        numer = [1 if s in (5, 60) else U for s in range(n)] + [3, 1, 2]
        finst = FractionalInstance.from_edges(n, 2, sets, elems, numer, U)
        return finst, np.array([3, 2], dtype=np.int64)

    @pytest.mark.parametrize("params", [
        practical_params(1.0, 80), practical_params(0.6, 40),
        SketchParams(mode="theory", n_tilde=200, degree_cap=65)])
    def test_wide_elements_match_reference(self, params):
        finst, weights = self._wide_case()
        assert finst.base.elem_degrees.max() > sketch_module._EXACT_DEGREE
        sketches = _variant_sketches((finst, weights), params, seed=5,
                                     eps=1.0)
        for merged, copies, owners in sketches:
            assert_same_sketch(merged, merge_copies(copies, owners))
        # Element 0 has thousands of probabilistic copies over a few runs.
        merged = sketches[2][0]
        zeta = probabilistic_copy_count(finst.base.n, finst.U, 1.0)
        of_wide = merged.selected_elements // zeta == 0
        assert merged.element_weight[of_wide].max() > 1

    @settings(max_examples=100, deadline=None)
    @given(variant_cases(wide=False), sketch_params(), st.integers(0, 2**32),
           st.sampled_from([1, 4, 2**15]))
    def test_colliding_keys_split_by_runs(self, case, params, seed,
                                          hash_block):
        # Every element compares runs, and every run key is its edge count,
        # so filtered (fractional and probabilistic) copies of one element
        # with equal counts always collide.  A table of one bucket compares
        # every row with the first row left, whatever its key and tag.
        # Small hash blocks split an element's copies between expansions,
        # so the merge of the expansions' survivors compares runs too.
        with mock.patch.multiple(
                sketch_module, _EXACT_DEGREE=0, _HASH_BLOCK=hash_block,
                _TABLE_BITS=0,
                _key_words=lambda degree: np.ones(max(degree, 1))):
            for merged, copies, owners in _variant_sketches(
                    case, params, seed, eps=1.0):
                assert_same_sketch(merged, merge_copies(copies, owners))


def _theory(n_tilde, cap=3):
    return SketchParams(mode="theory", n_tilde=n_tilde, degree_cap=cap)


class TestTheoryCopySamples:
    """Theory-mode copy sketches sample below a rising rate, then cut."""

    def _passes(self, build):
        with mock.patch.object(sketch_module, "_copy_bits",
                               wraps=sketch_module._copy_bits) as spy:
            sk = build()
        return sk, spy.call_count

    def test_short_first_sample_samples_again(self):
        # One coin in four succeeds, so the bound on the capped mass is
        # about four times the mass and a first sample at twice n_tilde
        # over the bound falls short.
        base = random_instance(5, max_n=6, max_m=10)
        numer = np.ones(base.edge_count, dtype=np.int64)
        pinst = ProbabilisticInstance(base, numer, numer.copy(), 4)
        params, source = _theory(60), HashSource(7)
        sk, passes = self._passes(
            lambda: sketch_probabilistic(pinst, 0.8, params, source))
        assert passes == 2
        assert copy_mass(sk) >= 60
        assert_same_sketch(sk, reference_probabilistic(pinst, 0.8, params,
                                                       source))

    def test_bound_at_half_n_tilde_starts_at_rate_one(self):
        # Every copy's capped mass is at most the bound, which is no more
        # than twice n_tilde: one sample at rate 1 keeps every copy.
        winst = _random_weighted(8)
        w, degrees = winst.element_weight, winst.base.elem_degrees
        params = _theory(int(w @ np.minimum(degrees, 3)) // 2 + 1)
        source = HashSource(2)
        sk, passes = self._passes(
            lambda: sketch_weighted(winst, params, source))
        assert passes == 1
        assert_same_sketch(sk, reference_weighted(winst, params, source))

    def test_zero_candidate_copies(self):
        finst = FractionalInstance.from_edges(2, 2, [0, 1], [0, 1], [0, 0], 3)
        params, source = _theory(5), HashSource(1)
        sk, passes = self._passes(
            lambda: sketch_fractional(finst, params, source))
        assert passes == 1 and sk.instance.m == 0
        assert_same_sketch(sk, reference_fractional(finst, params, source))

    def test_probabilistic_peak_stays_small(self):
        # The probabilistic input of the weighted_variants benchmark: about
        # 2.1M candidate copies, of which the cut keeps a few thousand.
        small, _ = generate_planted(10, 200, 40, 0.2, 1)
        set_ids, elem_ids = small.edges()
        numer = np.random.default_rng(1).integers(1, 5, size=len(set_ids))
        pinst = ProbabilisticInstance.from_edges(small.n, small.m, set_ids,
                                                 elem_ids, numer, 4)
        zeta = probabilistic_copy_count(small.n, 4, 0.5)
        params = theory_params(small.n, small.m * zeta,
                               small.edge_count * zeta, k=10, eps=0.9)
        tracemalloc.start()
        try:
            sk = sketch_probabilistic(pinst, 0.5, params, HashSource(1))
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert small.m * zeta > 2 * 10**6
        assert copy_mass(sk) >= params.n_tilde
        assert peak < 8 * 2**20


class TestManyCopiesOfOneElement:
    """An element with a million sampled copies is expanded a batch at a
    time.  Practical mode merges each batch as it is expanded, so only a
    few rows per batch are held, and then merges the batches' survivors."""

    def _peak(self, build):
        tracemalloc.start()
        try:
            sk = build()
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        return sk, peak

    def test_fractional_at_rate_one(self):
        # Copies j < U/4 hold sets {0, 1, 2}, copies j < U/2 hold {0, 1}
        # and the rest hold {0}: three groups, each led by its first copy.
        U = 2**20
        finst = FractionalInstance.from_edges(3, 1, [0, 1, 2], [0, 0, 0],
                                              [U, U // 2, U // 4], U)
        sk, peak = self._peak(lambda: sketch_fractional(
            finst, practical_params(1.0, 3), HashSource(1)))
        assert sk.selected_elements.tolist() == [0, U // 4, U // 2]
        assert sk.element_weight.tolist() == [U // 4, U // 4, U // 2]
        assert sk.instance.elem_degrees.tolist() == [3, 2, 1]
        assert peak < 16 * 2**20

    def test_weighted_at_rate_one(self):
        base = loads_edge_list("0 0\n1 0\n")
        winst = WeightedInstance(base, np.array([2**20]), 2**20)
        sk, peak = self._peak(lambda: sketch_weighted(
            winst, practical_params(1.0, 2), HashSource(1)))
        assert sk.selected_elements.tolist() == [0]
        assert sk.element_weight.tolist() == [2**20]
        assert peak < 16 * 2**20

    def test_probabilistic_at_rate_one(self):
        # Keyed copies: the coins of each copy give it one of three runs
        # or no edge.
        pinst = ProbabilisticInstance.from_edges(2, 1, [0, 1], [0, 0],
                                                 [2048, 1024], 4096)
        assert probabilistic_copy_count(2, 4096, 0.4) == 1_134_535
        params, source = practical_params(1.0, 2), HashSource(1)
        want = reference_probabilistic(pinst, 0.4, params, source)
        sk, peak = self._peak(lambda: sketch_probabilistic(
            pinst, 0.4, params, source))
        assert_same_sketch(sk, want)
        assert peak < 16 * 2**20


class TestExpansionBudget:
    """Oversized expansions fail before anything of their size is allocated."""

    def _raises_without_allocating(self, build, count):
        tracemalloc.start()
        try:
            with pytest.raises(ValueError,
                               match=f"expansion needs {count} copies, over "
                                     f"the budget of 10000000"):
                build()
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 2**20

    def test_weighted_largest_file_weight(self):
        base = loads_edge_list("0 0\n1 1\n")
        winst = WeightedInstance(base, np.array([2**31 - 1, 1]), 2**31 - 1)
        self._raises_without_allocating(
            lambda: sketch_weighted(winst, practical_params(0.5, 2),
                                    HashSource(0)), 2**31)

    def test_fractional_largest_file_numerator(self):
        finst = load_fractional_edge_list(
            io.BytesIO(b"#U 2147483647\n0 0 2147483647\n1 1 3\n"))
        self._raises_without_allocating(
            lambda: sketch_fractional(finst, practical_params(0.5, 2),
                                      HashSource(0)), 2**31 + 2)

    def test_budget_is_read_at_call_time(self, monkeypatch):
        winst = WeightedInstance(loads_edge_list("0 0\n"), np.array([4]), 4)
        monkeypatch.setattr(instance_module, "_EXPANSION_BUDGET", 3)
        with pytest.raises(ValueError, match="needs 4 copies"):
            sketch_weighted(winst, practical_params(1.0, 1), HashSource(0))
        monkeypatch.setattr(instance_module, "_EXPANSION_BUDGET", 4)
        sk = sketch_weighted(winst, practical_params(1.0, 1), HashSource(0))
        assert sk.element_weight.tolist() == [4]
        finst = FractionalInstance.from_edges(1, 2, [0, 0], [0, 1], [2, 0], 2)
        monkeypatch.setattr(instance_module, "_EXPANSION_BUDGET", 1)
        with pytest.raises(ValueError, match="needs 2 copies"):
            sketch_fractional(finst, practical_params(1.0, 1), HashSource(0))


def _elem_order(inst, numer_set_order):
    set_ids, elem_ids = inst.edges()
    eorder = np.lexsort((set_ids, elem_ids))
    return np.asarray(numer_set_order)[eorder]


class TestSerializeSketch:
    def test_header_and_reload(self):
        inst = random_instance(40)
        sk = build_sketch(inst, practical_params(0.9, 2), HashSource(77))
        text = serialize_sketch(sk)
        assert text.startswith("#sketch mode=practical seed=77")
        assert "#original_m" in text and "#selected" in text
        again = load_edge_list(io.BytesIO(text.encode()))
        if sk.instance.edge_count:
            assert again.edge_count == sk.instance.edge_count

    def test_weighted_sketch_writes_weights(self):
        finst = _random_fractional(9)
        sk = sketch_fractional(finst, practical_params(1.0, finst.base.n),
                               HashSource(3))
        assert sk.element_weight is not None
        text = serialize_sketch(sk)
        rows = [line.split() for line in text.splitlines()
                if not line.startswith("#")]
        assert {len(row) for row in rows} == {3}
        again = load_weighted_edge_list(io.BytesIO(text.encode()))
        set_ids, elem_ids = sk.instance.edges()
        assert np.array_equal(again.base.edges()[0], set_ids)
        assert np.array_equal(again.base.edges()[1], elem_ids)
        # Fractional copies all hold an edge, so every element is read back.
        assert np.array_equal(again.element_weight, sk.element_weight)

    def test_theory_header_fields(self):
        inst = random_instance(41)
        p = theory_params(inst.n, inst.m, inst.edge_count, k=2, eps=0.5)
        text = serialize_sketch(build_sketch(inst, p, HashSource(1)))
        head = text.splitlines()[0]
        for token in ("mode=theory", "k=2", "n_tilde=", "degree_cap="):
            assert token in head
