import contextlib
import csv
import hashlib
import io
import tracemalloc
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from coversketch import generate_planted, greedy_kcover, \
    instance as instance_mod, load_edge_list, serialize_edge_list, \
    sketch as sketch_mod
from coversketch.cli import _build_parser, main
from coversketch.sketch import HashSource, build_sketch, practical_params, \
    serialize_sketch, theory_params


def run(argv, capsys):
    code = main(argv)
    out = capsys.readouterr()
    return code, out.out, out.err


class TestGenerate:
    def test_planted_with_sidecar(self, tmp_path, capsys):
        out = str(tmp_path / "inst.txt")
        code, stdout, _ = run(
            ["generate", "planted", "--k", "4", "--m", "40", "--kprime", "6",
             "--eps", "0.2", "--seed", "1", "--out", out,
             "--no-timestamp"], capsys)
        assert code == 0
        inst = load_edge_list(out)
        assert inst.n == 10 and inst.m == 40
        opt_lines = (tmp_path / "inst.txt.opt").read_text().splitlines()
        assert opt_lines[0] == "value=40 k=4"
        assert len(opt_lines) == 5
        assert '"n":10' in stdout.replace(" ", "")

    def test_adversarial(self, tmp_path, capsys):
        out = str(tmp_path / "adv.txt")
        code, _, _ = run(
            ["generate", "adversarial", "--n", "10", "--k", "2", "--beta",
             "2", "--seed", "1", "--out", out, "--no-timestamp"], capsys)
        assert code == 0
        inst = load_edge_list(out)
        assert inst.m == 30

    def test_khop(self, tmp_path, capsys):
        graph = tmp_path / "graph.txt"
        graph.write_text("0 1\n1 2\n")
        out = str(tmp_path / "dom.txt")
        code, _, _ = run(["generate", "khop", "--graph", str(graph),
                          "--hops", "1", "--out", out, "--no-timestamp"],
                         capsys)
        assert code == 0
        inst = load_edge_list(out)
        assert inst.set_elements(1).tolist() == [0, 1, 2]

    def test_feature_pairs_with_labels(self, tmp_path, capsys):
        matrix = tmp_path / "matrix.txt"
        matrix.write_text("1 0\n1 0\n1 1\n0 1\n")
        out = str(tmp_path / "fp.txt")
        code, _, _ = run(["generate", "feature-pairs", "--matrix",
                          str(matrix), "--out", out, "--no-timestamp"],
                         capsys)
        assert code == 0
        labels = (tmp_path / "fp.txt.labels").read_text().splitlines()
        assert len(labels) == load_edge_list(out).m

    @pytest.mark.parametrize("leaves,count", [(3200, 10259201),
                                              (100_000, 10000600001)])
    def test_khop_star_over_budget_exits_one(self, tmp_path, capsys, leaves,
                                             count):
        graph = tmp_path / "star.txt"
        graph.write_text("".join(f"0 {i}\n" for i in range(1, leaves + 1)))
        tracemalloc.start()
        try:
            code, _, err = run(["generate", "khop", "--graph", str(graph),
                                "--hops", "2", "--out",
                                str(tmp_path / "dom.txt")], capsys)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert code == 1 and "Traceback" not in err
        assert err.startswith(f"error: expansion needs {count} edges for 2 "
                              "hops, over the budget of 10000000")
        assert peak < 2**26  # the expansion itself is count * 8 bytes

    def test_feature_pairs_over_budget_exits_one(self, tmp_path, capsys):
        matrix = tmp_path / "ones.txt"
        matrix.write_text("1\n" * 5000)
        code, _, err = run(["generate", "feature-pairs", "--matrix",
                            str(matrix), "--out", str(tmp_path / "fp.txt")],
                           capsys)
        assert code == 1 and "Traceback" not in err
        assert err.startswith("error: expansion needs 12497500 row pairs, "
                              "over the budget of 10000000")

    @pytest.mark.parametrize("text,message", [
        ("1 0\n# note\n1\n", "line 3: expected 2 fields, got 1"),
        ("1 x\n", "line 1: non-integer token"),
        ("1 -1\n", "line 1: negative matrix entry"),
        ("# only\n", "empty instance")])
    def test_bad_matrix_exits_one(self, tmp_path, capsys, text, message):
        matrix = tmp_path / "matrix.txt"
        matrix.write_text(text)
        code, _, err = run(["generate", "feature-pairs", "--matrix",
                            str(matrix), "--out", str(tmp_path / "fp.txt")],
                           capsys)
        assert code == 1 and message in err and "Traceback" not in err

    def test_missing_flag_is_usage_error(self, tmp_path):
        with pytest.raises(SystemExit) as err:
            main(["generate", "planted", "--k", "4"])
        assert err.value.code == 2

    def test_usage_error_after_a_run(self, tmp_path, capsys):
        # The parser is built once per process; a usage error that follows
        # a successful command still exits 2 with argparse's message.
        args = ["generate", "planted", "--k", "2", "--m", "10", "--kprime",
                "2", "--eps", "0.0", "--no-timestamp", "--out",
                str(tmp_path / "a.txt")]
        assert run(args, capsys)[0] == 0
        with pytest.raises(SystemExit) as err:
            main(["generate", "planted", "--k", "4"])
        assert err.value.code == 2
        message = capsys.readouterr().err
        assert message.startswith("usage: coversketch generate planted")
        assert ("error: the following arguments are required: --m, "
                "--kprime, --eps, --out") in message
        assert run(args, capsys)[0] == 0

    def test_deterministic_without_timestamp(self, tmp_path, capsys):
        a, b = str(tmp_path / "a.txt"), str(tmp_path / "b.txt")
        args = ["generate", "planted", "--k", "2", "--m", "10", "--kprime",
                "2", "--eps", "0.0", "--seed", "5", "--no-timestamp"]
        assert run(args + ["--out", a], capsys)[0] == 0
        assert run(args + ["--out", b], capsys)[0] == 0
        assert (tmp_path / "a.txt").read_bytes() == \
            (tmp_path / "b.txt").read_bytes()

    def test_generator_error_exit_one(self, tmp_path, capsys):
        code, _, err = run(
            ["generate", "planted", "--k", "3", "--m", "10", "--kprime", "0",
             "--eps", "0.0", "--out", str(tmp_path / "x.txt")], capsys)
        assert code == 1
        assert "error" in err

    def test_allocation_past_the_address_space_exits_one(self, tmp_path,
                                                         capsys):
        # 2**58 elements need 2 EiB of int64 rows, more than a 64-bit
        # address space holds, so the allocation fails before touching
        # memory.
        out = tmp_path / "x.txt"
        code, stdout, err = run(
            ["generate", "planted", "--k", "1", "--m", str(2**58),
             "--kprime", "0", "--eps", "0", "--out", str(out)], capsys)
        assert (code, stdout) == (1, "")
        assert err.startswith("error: ") and err.count("\n") == 1
        assert "Traceback" not in err and not out.exists()

    @pytest.mark.parametrize("argv, count", [
        (["--k", "1", "--m", "1000000000000", "--kprime", "0", "--eps", "0"],
         "1000000000000 elements"),
        (["--k", "100", "--m", "20000", "--kprime", "100000000", "--eps",
          "0.2"], "24000020000 edges"),
    ])
    def test_oversized_planted_exits_one(self, tmp_path, capsys, argv,
                                         count):
        out = tmp_path / "x.txt"
        code, stdout, err = run(["generate", "planted", *argv, "--out",
                                 str(out)], capsys)
        assert (code, stdout) == (1, "")
        assert err == (f"error: planted instance needs {count}, over the "
                       "2147483647 that edge-list files hold\n")
        assert not out.exists()

    @pytest.mark.parametrize("value", ["nan", "inf"])
    @pytest.mark.parametrize("args,name", [
        (["planted", "--k", "2", "--m", "4", "--kprime", "1", "--eps"], "eps"),
        (["adversarial", "--n", "4", "--k", "1", "--beta"], "beta"),
    ])
    def test_non_finite_decimal_exits_one(self, tmp_path, capsys, args, name,
                                          value):
        code, _, err = run(["generate", *args, value, "--out",
                            str(tmp_path / "x.txt")], capsys)
        assert code == 1 and "Traceback" not in err
        assert err == f"error: {name} must be a finite number\n"


class TestSketchCommand:
    def test_ratio_one_with_no_pruning(self, tmp_path, capsys):
        inp = tmp_path / "inst.txt"
        inp.write_text("0 0\n0 1\n1 1\n")
        code, stdout, _ = run(
            ["sketch", "--in", str(inp), "--out", str(tmp_path / "sk.txt"),
             "--rho", "1", "--sigma", "1000000"], capsys)
        assert code == 0
        assert "ratio=1.0000" in stdout

    def test_ratio_matches_output_file(self, tmp_path, capsys):
        rng = np.random.default_rng(0)
        lines = [f"{int(rng.integers(0, 20))} {v}" for v in range(300)
                 for _ in range(int(rng.integers(1, 4)))]
        inp = tmp_path / "inst.txt"
        inp.write_text("\n".join(lines) + "\n")
        inst = load_edge_list(str(inp))
        out = tmp_path / "sk.txt"
        code, stdout, _ = run(
            ["sketch", "--in", str(inp), "--out", str(out),
             "--rho", "0.3", "--sigma", "2", "--seed", "3"], capsys)
        assert code == 0
        sk = load_edge_list(str(out))
        want = sk.edge_count / inst.edge_count
        assert f"ratio={want:.4f}" in stdout

    def test_huge_id_is_parse_error(self, tmp_path, capsys):
        inp = tmp_path / "inst.txt"
        inp.write_text("0 1000000000000\n")
        code, _, err = run(
            ["sketch", "--in", str(inp), "--out", str(tmp_path / "sk.txt"),
             "--rho", "1", "--sigma", "1"], capsys)
        assert code == 1
        assert "line 1: integer out of range" in err
        assert "Traceback" not in err

    def test_theory_k_too_large_is_error(self, tmp_path, capsys):
        inp = tmp_path / "inst.txt"
        inp.write_text("0 0\n1 1\n")
        code, _, err = run(
            ["sketch", "--in", str(inp), "--out", str(tmp_path / "sk.txt"),
             "--theory", "--k", "5", "--eps", "0.5"], capsys)
        assert code == 1 and "error" in err

    @pytest.mark.parametrize("text,message", [
        ("", "empty instance"),
        ("# only a comment\r\n\n", "empty instance"),
        ("0 1\r\n0 2\r\n0 x\r\n", "line 3: non-integer token"),
        ("0 1\r0 2\r# note\r0 2 3\r", "line 4: expected 2 fields, got 3"),
        ("0 1\n0 2\n0 -2\n", "line 3: negative id")])
    @pytest.mark.parametrize("mode", [["--rho", "0.5", "--sigma", "2"],
                                      ["--theory", "--k", "1"]])
    def test_bad_input_exits_one(self, tmp_path, capsys, text, message,
                                 mode):
        inp = tmp_path / "inst.txt"
        inp.write_bytes(text.encode())
        code, out, err = run(["sketch", "--in", str(inp), "--out",
                              str(tmp_path / "sk.txt")] + mode, capsys)
        assert (code, out, err) == (1, "", f"error: {message}\n")
        assert not (tmp_path / "sk.txt").exists()

    @pytest.mark.parametrize("mode", [["--rho", "0.5", "--sigma", "2"],
                                      ["--theory", "--k", "1"]])
    def test_id_over_bound_rejected_before_allocation(self, tmp_path, capsys,
                                                      mode):
        # The bound for 2 rows is 2**20 + 32; theory mode hashes every id.
        inp = tmp_path / "inst.txt"
        inp.write_text("0 0\n0 2000000000\n")
        tracemalloc.start()
        try:
            code, _, err = run(["sketch", "--in", str(inp), "--out",
                                str(tmp_path / "sk.txt")] + mode, capsys)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert code == 1 and "Traceback" not in err
        assert err.startswith("error: largest id 2000000000 is too large for "
                              "2 rows")
        assert peak < 2**20


_CLAMP_WARNING = ("warning: theory-mode n_tilde {} is clamped to the input's "
                  "{} edges, so the sketch keeps every element, "
                  "degree-capped\n")


def composed_sketch(path, out, knobs):
    """(exit code, stdout, stderr) of ``sketch`` written as the composition
    of ``load_edge_list`` and ``build_sketch``, which writes ``out``.

    The element view is read before ``build_sketch``, so that it gathers
    every sketch from the full element view; the command sketches a freshly
    loaded instance, which a cut that drops an element leaves unbuilt."""
    try:
        inst = load_edge_list(path)
        inst.elem_indptr
        if "theory" in knobs:
            params = theory_params(inst.n, inst.m, inst.edge_count,
                                   knobs["k"], knobs["eps"],
                                   knobs["delta_dprime"])
        else:
            params = practical_params(knobs["rho"], knobs["sigma"])
        sk = build_sketch(inst, params, HashSource(knobs["seed"]))
    except ValueError as exc:
        return 1, "", f"error: {exc}\n"
    serialize_sketch(sk, out)
    err = ""
    if "theory" in knobs:
        clamp = theory_params(inst.n, inst.m, inst.edge_count, 1,
                              knobs["eps"], knobs["delta_dprime"])
        if clamp.n_tilde == inst.edge_count:
            err = _CLAMP_WARNING.format(clamp.raw_n_tilde, inst.edge_count)
    return 0, f"ratio={sk.instance.edge_count / inst.edge_count:.4f}\n", err


def sketch_argv(path, out, knobs):
    argv = ["sketch", "--in", path, "--out", out, "--seed",
            str(knobs["seed"])]
    if "theory" in knobs:
        return argv + ["--theory", "--k", str(knobs["k"]), "--eps",
                       repr(knobs["eps"]), "--delta-dprime",
                       repr(knobs["delta_dprime"])]
    return argv + ["--rho", repr(knobs["rho"]), "--sigma",
                   str(knobs["sigma"])]


def quiet_main(argv):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(argv)
    return code, out.getvalue(), err.getvalue()


def assert_sketch_matches_composition(tmp_dir, text: bytes, knobs):
    """Write ``text`` to ``tmp_dir``, sketch it both ways and compare exit
    code, stdout, stderr and the file written, absent on both on failure."""
    inp, got, want = (tmp_dir / name
                      for name in ("inst.txt", "got.txt", "want.txt"))
    inp.write_bytes(text)
    for path in (got, want):
        path.unlink(missing_ok=True)
    assert quiet_main(sketch_argv(str(inp), str(got), knobs)) == \
        composed_sketch(str(inp), str(want), knobs)
    assert got.exists() == want.exists()
    if got.exists():
        assert got.read_bytes() == want.read_bytes()


@st.composite
def messy_edge_text(draw):
    """Edge-list bytes with duplicate and unsorted rows, comment lines,
    mixed line ends and id gaps, so that some elements have degree 0."""
    sets = draw(st.lists(st.integers(0, 12), min_size=1, max_size=6))
    elems = draw(st.lists(st.integers(0, 40), min_size=1, max_size=12))
    count = draw(st.integers(1, 40))
    rows = draw(st.lists(st.tuples(st.sampled_from(sets),
                                   st.sampled_from(elems)),
                         min_size=count, max_size=count))
    rows = draw(st.permutations(rows + rows[:draw(st.integers(0, 5))]))
    lines = [f"{s}{draw(st.sampled_from([' ', '  ', chr(9)]))}{e}"
             for s, e in rows]
    for _ in range(draw(st.integers(0, 3))):
        lines.insert(draw(st.integers(0, len(lines))), "# comment 1 2")
    ends = draw(st.lists(st.sampled_from(["\n", "\r\n", "\r"]),
                         min_size=len(lines), max_size=len(lines)))
    return "".join(a + b for a, b in zip(lines, ends)).encode()


_practical_knobs = st.fixed_dictionaries({
    "rho": st.sampled_from([0.05, 0.3, 0.7, 1.0]),
    "sigma": st.integers(1, 5), "seed": st.integers(0, 2**32)})
# eps 0.8-0.95 with a small delta_dprime leaves n_tilde below the edge
# count; the default eps clamps it, and with k = 1 the degree cap reaches
# every degree, so the capped mass equals n_tilde exactly.
_theory_knobs = st.fixed_dictionaries({
    "theory": st.just(True), "k": st.integers(1, 3),
    "seed": st.integers(0, 2**32)}).flatmap(
    lambda d: st.one_of(
        st.fixed_dictionaries({"eps": st.sampled_from([0.8, 0.9, 0.95]),
                               "delta_dprime": st.sampled_from([0.001,
                                                                0.01])}),
        st.fixed_dictionaries({"eps": st.just(0.5),
                               "delta_dprime": st.just(0.5)})).map(
        lambda extra: {**d, **extra}))


class TestSketchMatchesComposition:
    """``sketch`` gathers from an element view of the kept elements' edges
    when its cut drops one; its file, stdout and stderr are those of
    ``build_sketch`` gathering from the full element view."""

    @settings(max_examples=150, deadline=None)
    @given(messy_edge_text(), _practical_knobs)
    def test_random_files_practical(self, tmp_path_factory, text, knobs):
        assert_sketch_matches_composition(tmp_path_factory.mktemp("sk"),
                                          text, knobs)

    @settings(max_examples=150, deadline=None)
    @given(messy_edge_text(), _theory_knobs)
    def test_random_files_theory(self, tmp_path_factory, text, knobs):
        assert_sketch_matches_composition(tmp_path_factory.mktemp("sk"),
                                          text, knobs)

    @pytest.mark.parametrize("seed", range(12))
    def test_exact_mass_tie_with_empty_elements(self, tmp_path, seed):
        # Clamped: n_tilde is the 5 edges and the cap 3 covers every
        # degree, so the capped mass meets n_tilde exactly; elements 1-3 and
        # 5-6 have degree 0 and are kept only if they hash before the
        # element that reaches it.
        text = b"0 0\n1 4\n0 4\n1 7\n1 0\n"
        knobs = {"theory": True, "k": 1, "eps": 0.5, "delta_dprime": 0.5,
                 "seed": seed}
        assert_sketch_matches_composition(tmp_path, text, knobs)
        inst = load_edge_list(text)
        params = theory_params(inst.n, inst.m, inst.edge_count, 1, 0.5)
        assert params.n_tilde == inst.edge_count == 5
        assert params.degree_cap >= inst.elem_degrees.max()

    def test_exact_mass_tie_drops_empty_elements(self):
        inst = load_edge_list(b"0 0\n1 4\n0 4\n1 7\n1 0\n")
        params = theory_params(inst.n, inst.m, inst.edge_count, 1, 0.5)
        kept = {len(build_sketch(inst, params, HashSource(seed))
                    .selected_elements) for seed in range(12)}
        assert min(kept) < inst.m and max(kept) > 3

    @pytest.mark.parametrize("knobs", [
        {"rho": 0.1, "sigma": 3, "seed": 4},
        {"theory": True, "k": 5, "eps": 0.5, "delta_dprime": 0.5, "seed": 4},
        {"theory": True, "k": 5, "eps": 0.9, "delta_dprime": 0.5, "seed": 4},
        {"theory": True, "k": 5, "eps": 0.95, "delta_dprime": 0.1,
         "seed": 4}])
    def test_planted_file_and_messy_copy(self, tmp_path, knobs):
        inst, _ = generate_planted(10, 2000, 50, 0.2, 1)
        canonical = serialize_edge_list(inst).encode()
        rows = canonical.splitlines()
        messy = b"\r\n".join(rows[::-1] + rows[:50]) + b"\r\n"
        got = []
        for name, text in (("canonical", canonical), ("messy", messy)):
            (tmp_path / name).mkdir()
            assert_sketch_matches_composition(tmp_path / name, text, knobs)
            got.append((tmp_path / name / "got.txt").read_bytes())
        assert got[0] == got[1]

    def test_no_csr_sized_by_the_input(self, tmp_path, monkeypatch):
        inst, _ = generate_planted(10, 2000, 50, 0.2, 1)
        path = str(tmp_path / "inst.txt")
        serialize_edge_list(inst, path)
        sizes = []

        def counted(indptr, minor, minor_count,
                    _transpose=instance_mod._transpose):
            sizes.append(len(minor))
            return _transpose(indptr, minor, minor_count)
        monkeypatch.setattr(instance_mod, "_transpose", counted)
        assert quiet_main(["sketch", "--in", path, "--out",
                           str(tmp_path / "sk.txt"), "--rho", "0.1",
                           "--sigma", "3", "--seed", "4"])[0] == 0
        selected = np.asarray(
            (tmp_path / "sk.txt").read_text().splitlines()[2].split()[1:],
            dtype=np.int64)
        kept_edges = int(inst.elem_degrees[selected].sum())
        assert sizes and max(sizes) <= kept_edges < inst.edge_count // 5


class TestSolveCommand:
    def test_kcover_zero(self, tmp_path, capsys):
        inp = tmp_path / "inst.txt"
        inp.write_text("0 0\n1 1\n")
        code, stdout, _ = run(
            ["solve", "--in", str(inp), "--problem", "kcover", "--k", "0"],
            capsys)
        assert code == 0 and "value=0" in stdout

    def test_brute_force_flag_exact(self, tmp_path, capsys):
        inp = tmp_path / "inst.txt"
        inp.write_text("0 0\n0 1\n0 2\n1 2\n1 3\n2 3\n2 4\n")
        out = tmp_path / "sol.txt"
        code, stdout, _ = run(
            ["solve", "--in", str(inp), "--problem", "kcover", "--k", "2",
             "--solver", "brute-force", "--out", str(out)], capsys)
        assert code == 0 and "value=5" in stdout
        lines = out.read_text().splitlines()
        assert lines[0] == "value=5 k=2"
        assert lines[1:] == ["0", "2"]

    def test_stochastic_can_write_fewer_than_k_sets(self, tmp_path, capsys):
        # With n = 3 and k = 3 each pick samples ceil(ln 2) = 1 set; the
        # third pick draws a chosen set and is skipped.
        inp = tmp_path / "inst.txt"
        inp.write_text("0 0\n0 1\n1 2\n2 3\n")
        out = tmp_path / "sol.txt"
        code, stdout, _ = run(
            ["solve", "--in", str(inp), "--problem", "kcover", "--k", "3",
             "--solver", "stochastic", "--eps", "0.5", "--seed", "0",
             "--out", str(out)], capsys)
        assert code == 0 and stdout == "value=2\n"
        lines = out.read_text().splitlines()
        assert lines[0] == "value=2 k=2"
        assert len(lines[1:]) == 2 == len(set(lines[1:]))

    def test_lazy_is_no_solver_choice(self, tmp_path, capsys):
        # lazy_greedy is greedy_kcover's engine; the CLI names it greedy.
        inp = tmp_path / "inst.txt"
        inp.write_text("0 0\n1 1\n")
        with pytest.raises(SystemExit) as exit_info:
            main(["solve", "--in", str(inp), "--problem", "kcover", "--k",
                  "1", "--solver", "lazy"])
        assert exit_info.value.code == 2
        err = capsys.readouterr().err
        assert "argument --solver: invalid choice: 'lazy'" in err

    def test_infeasible_outliers_exit_one(self, tmp_path, capsys):
        inp = tmp_path / "inst.txt"
        inp.write_text("0 0\n0 5\n")  # elements 1..4 uncoverable
        code, _, err = run(
            ["solve", "--in", str(inp), "--problem", "setcover-outliers",
             "--lambda", "0.1"], capsys)
        assert code == 1
        assert "infeasible outlier fraction" in err


class TestSimulateCommand:
    def test_equivalence_with_sketch_plus_solve(self, tmp_path, capsys):
        rng = np.random.default_rng(1)
        lines = []
        for v in range(500):
            for s in rng.choice(12, size=int(rng.integers(1, 5)),
                                replace=False):
                lines.append(f"{int(s)} {v}")
        inp = tmp_path / "inst.txt"
        inp.write_text("\n".join(lines) + "\n")

        sim_sol = tmp_path / "sim.sol"
        sim_rep = tmp_path / "sim.rep"
        code, stdout, _ = run(
            ["simulate", "--in", str(inp), "--problem", "kcover", "--k", "3",
             "--eps", "0.5", "--seed", "9", "--machines", "4",
             "--out-solution", str(sim_sol), "--out-report", str(sim_rep)],
            capsys)
        assert code == 0 and "divergence=0" in stdout

        sk_file = tmp_path / "sk.txt"
        code, _, _ = run(
            ["sketch", "--in", str(inp), "--out", str(sk_file), "--theory",
             "--k", "3", "--eps", "0.5", "--seed", "9"], capsys)
        assert code == 0
        solve_sol = tmp_path / "solve.sol"
        code, _, _ = run(
            ["solve", "--in", str(sk_file), "--problem", "kcover", "--k",
             "3", "--out", str(solve_sol)], capsys)
        assert code == 0
        assert sim_sol.read_bytes() == solve_sol.read_bytes()

    def test_report_line_count(self, tmp_path, capsys):
        inp = tmp_path / "inst.txt"
        inp.write_text("0 0\n1 1\n2 2\n")
        rep = tmp_path / "r.txt"
        code, _, _ = run(
            ["simulate", "--in", str(inp), "--problem", "kcover", "--k", "1",
             "--machines", "3", "--out-report", str(rep)], capsys)
        assert code == 0
        assert len(rep.read_text().splitlines()) == 3 * 4 + 1

    def test_single_machine_rejected(self, tmp_path, capsys):
        inp = tmp_path / "inst.txt"
        inp.write_text("0 0\n")
        code, _, err = run(
            ["simulate", "--in", str(inp), "--problem", "kcover", "--k", "1",
             "--machines", "1"], capsys)
        assert code == 1 and "error" in err

    def test_machine_count_over_limit(self, tmp_path, capsys):
        inp = tmp_path / "inst.txt"
        inp.write_text("0 0\n1 1\n")
        code, _, err = run(
            ["simulate", "--in", str(inp), "--problem", "kcover", "--k", "1",
             "--machines", "65537"], capsys)
        assert code == 1
        assert "machine count 65537 is over the limit of 65536" in err
        assert "Traceback" not in err

    def test_tiny_eps_ladder_is_error(self, tmp_path, capsys):
        inp = tmp_path / "inst.txt"
        inp.write_text("0 0\n1 1\n2 2\n")
        code, _, err = run(
            ["simulate", "--in", str(inp), "--problem", "setcover-outliers",
             "--machines", "4", "--eps", "1e-6"], capsys)
        assert code == 1
        assert "guess ladder for n=3, eps=1e-06 needs more than 10000 " \
            "steps" in err
        assert "Traceback" not in err


class TestExtremeArguments:
    """Arguments past what floats or int64 hold end in an error line and
    exit 1, or succeed; never in a traceback."""

    @pytest.mark.parametrize("argv,message", [
        (["sketch", "--theory", "--k", "1", "--eps", "1e-300"],
         "eps=1e-300 is too small for theory mode"),
        (["simulate", "--problem", "kcover", "--k", "1", "--machines", "2",
          "--eps", "1e-300"], "eps=1e-300 is too small for theory mode"),
        (["simulate", "--problem", "setcover-outliers", "--machines", "2",
          "--eps", "5e-324"], "eps=5e-324 needs more than 10000 steps"),
        (["solve", "--problem", "setcover-outliers", "--engine", "sketch",
          "--eps", "5e-324"], "eps=5e-324 needs more than 10000 steps"),
        (["solve", "--problem", "setcover-outliers", "--engine", "sketch",
          "--eps", "1e-300"], "eps=1e-300 needs more than 10000 steps")])
    def test_vanishing_eps_exits_one(self, tmp_path, capsys, argv, message):
        inp = tmp_path / "inst.txt"
        inp.write_text("0 0\n1 1\n2 2\n")
        if argv[0] == "sketch":
            argv = argv + ["--out", str(tmp_path / "sk.txt")]
        code, _, err = run(argv + ["--in", str(inp)], capsys)
        assert code == 1 and err.startswith("error: ") and message in err
        assert "Traceback" not in err

    def test_sigma_past_int64_sketches(self, tmp_path, capsys):
        inp = tmp_path / "inst.txt"
        inst, _ = generate_planted(4, 40, 6, 0.2, 1)
        serialize_edge_list(inst, str(inp))
        outs = []
        for sigma in ("1000000000000000000000", str(inst.n)):
            out = tmp_path / f"sk{len(outs)}.txt"
            code, stdout, err = run(["sketch", "--in", str(inp), "--out",
                                     str(out), "--rho", "0.5", "--sigma",
                                     sigma, "--seed", "2"], capsys)
            assert (code, err) == (0, "")
            outs.append((stdout, out.read_text().split("\n", 1)[1]))
        assert outs[0] == outs[1]

    def test_adversarial_over_budget_exits_one(self, tmp_path, capsys):
        tracemalloc.start()
        try:
            code, _, err = run(["generate", "adversarial", "--n",
                                "1000000000", "--k", "2", "--beta", "1",
                                "--out", str(tmp_path / "adv.txt")], capsys)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert code == 1 and "Traceback" not in err
        assert err.startswith("error: expansion needs 1000000001000000000 "
                              "edges, over the budget of 10000000")
        assert peak < 2**20


# Command: (its required flags, the flags argparse names when all are
# missing, whether it takes --lambda).
SHARED_FLAG_COMMANDS = {
    "sketch": (["--in", "IN", "--out", "OUT"], "--in, --out", False),
    "solve": (["--in", "IN", "--problem", "kcover"], "--in, --problem", True),
    "simulate": (["--in", "IN", "--problem", "kcover", "--machines", "2"],
                 "--in, --problem, --machines", True),
}


class TestSharedFlags:
    """sketch, solve and simulate share --in/--k/--eps/--delta-dprime/--seed,
    and solve and simulate --problem/--lambda, with the same defaults."""

    @pytest.mark.parametrize("command", SHARED_FLAG_COMMANDS)
    def test_defaults(self, command):
        flags, _, takes_lambda = SHARED_FLAG_COMMANDS[command]
        args = _build_parser().parse_args([command, *flags])
        assert args.input == "IN"
        assert (args.eps, args.delta_dprime, args.seed) == (0.5, 0.5, 0)
        assert args.k is None
        assert getattr(args, "lam", None) == (0.01 if takes_lambda else None)

    @pytest.mark.parametrize("command", SHARED_FLAG_COMMANDS)
    def test_required_message(self, command, capsys):
        with pytest.raises(SystemExit) as exit_info:
            main([command])
        assert exit_info.value.code == 2
        assert capsys.readouterr().err.endswith(
            f"coversketch {command}: error: the following arguments are "
            f"required: {SHARED_FLAG_COMMANDS[command][1]}\n")


class TestNegativeSeed:
    """A negative ``--seed`` is a usage error that names the option."""

    @pytest.mark.parametrize("argv", [
        ["generate", "planted", "--k", "2", "--m", "20", "--kprime", "3",
         "--eps", "0.2", "--out", "OUT"],
        ["sketch", "--in", "IN", "--out", "OUT", "--rho", "0.5", "--sigma",
         "2"],
        ["solve", "--in", "IN", "--problem", "kcover", "--solver",
         "stochastic", "--k", "1"],
        ["simulate", "--in", "IN", "--problem", "kcover", "--k", "1",
         "--machines", "2"]], ids=lambda argv: argv[0])
    def test_exits_two_naming_seed(self, tmp_path, capsys, argv):
        inp = tmp_path / "inst.txt"
        inp.write_text("0 0\n1 1\n2 2\n")
        argv = [str(inp) if a == "IN" else str(tmp_path / "out.txt")
                if a == "OUT" else a for a in argv]
        with pytest.raises(SystemExit) as exit_info:
            main(argv + ["--seed", "-1"])
        err = capsys.readouterr().err
        assert exit_info.value.code == 2
        assert "argument --seed: must be a non-negative integer, got -1" \
            in err
        assert not (tmp_path / "out.txt").exists()

    @pytest.mark.parametrize("key,value,message", [
        ("seeds", "1,-2", "seeds must be non-negative, got -2"),
        ("planted.seed", "-3", "planted.seed must be non-negative, got -3")])
    def test_experiment_spec_rejects_negative_seed(self, tmp_path, capsys,
                                                   key, value, message):
        spec = tmp_path / "spec.txt"
        spec.write_text("instance planted\nplanted.k 2\nplanted.m 20\n"
                        "planted.kprime 3\nplanted.eps 0.2\nrho 0.5\n"
                        f"sigma 2\nk 1\nseeds 1\n{key} {value}\n")
        code, _, err = run(["experiment", "--spec", str(spec)], capsys)
        assert code == 1 and err == f"error: {message}\n"


class TestClampWarning:
    """One stderr line when theory mode clamps n_tilde to the edge count;
    stdout and the files written are what they are without it."""

    COMMANDS = {
        "sketch": ["sketch", "--theory", "--k", "2"],
        "solve": ["solve", "--problem", "setcover-outliers", "--engine",
                  "sketch", "--lambda", "0.3"],
        "simulate": ["simulate", "--problem", "setcover-outliers",
                     "--machines", "3", "--lambda", "0.3"],
    }

    @pytest.mark.parametrize("command", sorted(COMMANDS))
    @pytest.mark.parametrize("knobs,warnings", [
        ([], 1),                                          # n_tilde 6734
        (["--eps", "0.9", "--delta-dprime", "0.01"], 0),  # n_tilde 9
    ])
    def test_warning(self, tmp_path, capsys, command, knobs, warnings):
        inst = str(tmp_path / "inst.txt")
        run(["generate", "planted", "--k", "4", "--m", "400", "--kprime",
             "6", "--eps", "0.2", "--seed", "1", "--out", inst,
             "--no-timestamp"], capsys)
        argv = self.COMMANDS[command] + knobs + [
            "--in", inst, "--seed", "3",
            "--out-solution" if command == "simulate" else "--out",
            str(tmp_path / "out.txt")]
        code, out, err = run(argv, capsys)
        assert code == 0 and "warning" not in out
        assert err.count("warning:") == warnings
        if warnings:
            assert err == ("warning: theory-mode n_tilde 6734 is clamped to "
                           "the input's 1120 edges, so the sketch keeps "
                           "every element, degree-capped\n")


class TestExperimentCommand:
    def _write_spec(self, tmp_path, **overrides):
        spec = {
            "instance": "planted",
            "planted.k": "5",
            "planted.m": "200",
            "planted.kprime": "20",
            "planted.eps": "0.2",
            "planted.seed": "3",
            "rho": "0.5",
            "sigma": "50",
            "k": "5",
            "seeds": "1,2,3",
            "solver": "stochastic",
            "out": str(tmp_path / "results.csv"),
        }
        spec.update(overrides)
        path = tmp_path / "spec.txt"
        path.write_text("".join(f"{k} {v}\n" for k, v in spec.items()))
        return path, spec["out"]

    def test_row_count_one_point_three_seeds(self, tmp_path, capsys):
        path, out = self._write_spec(tmp_path)
        code, stdout, _ = run(["experiment", "--spec", str(path)], capsys)
        assert code == 0
        with open(out) as fh:
            rows = list(csv.DictReader(fh))
        assert len(rows) == 4  # 3 seed rows + 1 mean row
        assert rows[-1]["seed"] == "mean"

    def test_full_sketch_quality_is_one(self, tmp_path, capsys):
        path, out = self._write_spec(tmp_path, rho="1.0", sigma="100000")
        assert run(["experiment", "--spec", str(path)], capsys)[0] == 0
        with open(out) as fh:
            rows = list(csv.DictReader(fh))
        for row in rows:
            assert float(row["quality_ratio"]) == 1.0
            assert float(row["sketch_ratio"]) == 1.0

    def test_mean_rows_are_arithmetic_means(self, tmp_path, capsys):
        path, out = self._write_spec(tmp_path, rho="0.4,0.8")
        assert run(["experiment", "--spec", str(path)], capsys)[0] == 0
        with open(out) as fh:
            rows = list(csv.DictReader(fh))
        groups = {}
        for row in rows:
            groups.setdefault(row["rho"], []).append(row)
        for group in groups.values():
            seeds = [r for r in group if r["seed"] != "mean"]
            mean = [r for r in group if r["seed"] == "mean"][0]
            for col in ("coverage", "quality_ratio", "sketch_edges"):
                want = sum(float(r[col]) for r in seeds) / len(seeds)
                got = float(mean[col])
                assert abs(got - want) <= 1e-9 * max(1.0, abs(want))

    def test_one_sketch_per_rho_sigma_seed(self, tmp_path, capsys,
                                           monkeypatch):
        # 2 rho x 2 sigma x 3 seeds sketches serve all three k values; the
        # CSV bytes are those of the sweep that built one sketch per k.
        path, out = self._write_spec(tmp_path, rho="0.8,0.3", sigma="50,4",
                                     k="5,2,3")
        builds = mock.Mock(wraps=sketch_mod.build_sketch)
        monkeypatch.setattr(sketch_mod, "build_sketch", builds)
        assert run(["experiment", "--spec", str(path)], capsys)[0] == 0
        assert builds.call_count == 12
        with open(out, "rb") as fh:
            data = fh.read()
        assert data.count(b"\n") == 49  # header, 36 seed rows, 12 means
        assert hashlib.sha256(data).hexdigest() == self.SWEEP_SHA256

    SWEEP_SHA256 = ("b67e4c64c13a18b4529e79b12729d812"
                    "90a3c695c585d918b39595c7c737a420")

    def test_builds_the_element_view_once(self, tmp_path, capsys,
                                          monkeypatch, transposes):
        # The baseline solves read the element view.  Built before the
        # sweep, it serves every sketch's gather, so no sketch masks the
        # set view of the fresh instance; the CSV does not change.
        path, out = self._write_spec(tmp_path, rho="0.8,0.3", sigma="50,4",
                                     k="5,2,3")
        inst, _ = generate_planted(5, 200, 20, 0.2, 3)
        masks = mock.Mock(wraps=instance_mod._kept_set_view)
        monkeypatch.setattr(instance_mod, "_kept_set_view", masks)
        assert run(["experiment", "--spec", str(path)], capsys)[0] == 0
        assert masks.call_count == 0
        full = [c for c in transposes if c[0] == inst.m]
        assert full == [(inst.m, inst.edge_count)]
        with open(out, "rb") as fh:
            assert hashlib.sha256(fh.read()).hexdigest() == self.SWEEP_SHA256

    def test_spec_validation(self, tmp_path, capsys):
        path, _ = self._write_spec(tmp_path, seeds="1,1")
        code, _, err = run(["experiment", "--spec", str(path)], capsys)
        assert code == 1 and "distinct" in err

    @pytest.mark.parametrize("key, message", [
        ("solver", "solver must be stochastic or greedy"),
        ("baseline", "baseline must be stochastic or greedy"),
    ])
    def test_lazy_is_no_spec_solver(self, tmp_path, capsys, key, message):
        path, out = self._write_spec(tmp_path, **{key: "lazy"})
        code, _, err = run(["experiment", "--spec", str(path)], capsys)
        assert (code, err) == (1, f"error: {message}\n")
        assert not (tmp_path / "results.csv").exists()

    def test_greedy_baseline(self, tmp_path, capsys):
        path, out = self._write_spec(tmp_path, baseline="greedy")
        assert run(["experiment", "--spec", str(path)], capsys)[0] == 0
        inst, _ = generate_planted(5, 200, 20, 0.2, 3)
        want = greedy_kcover(inst, 5).coverage_value
        with open(out) as fh:
            rows = list(csv.DictReader(fh))
        assert [float(r["baseline_coverage"]) for r in rows] == [want] * 4

    @pytest.mark.parametrize("kind, present, missing", [
        ("planted", {"planted.m": "200"}, "planted.k"),
        ("adversarial", {"adversarial.n": "10", "adversarial.k": "2"},
         "adversarial.beta"),
        ("khop", {"khop.hops": "2"}, "khop.graph"),
        ("file", {}, "file.path"),
    ])
    def test_missing_instance_key_exit_one(self, tmp_path, capsys, kind,
                                           present, missing):
        lines = [f"instance {kind}", *(f"{k} {v}" for k, v in present.items()),
                 "rho 0.5", "sigma 50", "k 5", "seeds 1",
                 f"out {tmp_path / 'results.csv'}"]
        path = tmp_path / "spec.txt"
        path.write_text("\n".join(lines) + "\n")
        code, _, err = run(["experiment", "--spec", str(path)], capsys)
        assert code == 1 and missing in err and "Traceback" not in err
        assert not (tmp_path / "results.csv").exists()

    INSTANCE_KEYS = {
        "planted": {"planted.k": "5", "planted.m": "200",
                    "planted.kprime": "20", "planted.eps": "0.2"},
        "adversarial": {"adversarial.n": "10", "adversarial.k": "2",
                        "adversarial.beta": "0.5"},
        "khop": {"khop.graph": "graph.txt", "khop.hops": "2"},
    }

    @pytest.mark.parametrize("key, value, expected", [
        ("rho", "0.1,x", "a number"),
        ("sigma", "50,5x", "an integer"),
        ("k", "two", "an integer"),
        ("seeds", "1.5", "an integer"),
        ("solver_eps", "tiny", "a number"),
        ("planted.k", "five", "an integer"),
        ("planted.seed", "0x3", "an integer"),
        ("adversarial.beta", "half", "a number"),
        ("khop.hops", "2.5", "an integer"),
    ])
    def test_bad_value_names_its_key(self, tmp_path, capsys, key, value,
                                     expected):
        kind = key.split(".")[0] if "." in key else "planted"
        spec = {"instance": kind, **self.INSTANCE_KEYS[kind], "rho": "0.5",
                "sigma": "50", "k": "5", "seeds": "1",
                "out": str(tmp_path / "results.csv"), key: value}
        path = tmp_path / "spec.txt"
        path.write_text("".join(f"{k} {v}\n" for k, v in spec.items()))
        code, _, err = run(["experiment", "--spec", str(path)], capsys)
        bad = value.split(",")[-1]
        assert (code, err) == (
            1, f"error: spec key {key}: expected {expected}, got {bad!r}\n")
        assert not (tmp_path / "results.csv").exists()

    def test_columns_fixed(self, tmp_path, capsys):
        path, out = self._write_spec(tmp_path)
        assert run(["experiment", "--spec", str(path)], capsys)[0] == 0
        with open(out) as fh:
            header = fh.readline().strip().split(",")
        assert header == ["rho", "sigma", "k", "seed", "sketch_edges",
                          "sketch_ratio", "coverage", "baseline_coverage",
                          "quality_ratio"]
