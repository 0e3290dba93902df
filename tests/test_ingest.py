"""Edge-list ingest against a per-line reference parser.

The loaders parse their input one block of whole lines at a time, each
block with array operations.  The reference below reads the same format one
line at a time and is the specification the properties hold the loaders
to: rows, headers and the line an error names must agree on every input.
The properties also run with windows of 1 to 64 bytes, so that every block
cut is crossed, and ``parse_reference`` (the whole-file parse that the block
parse replaced) must give the same rows, headers and error messages on
multi-block files.
"""

import hashlib
import io
import os
import re
import tempfile
import time
import tracemalloc
from unittest import mock

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

from coversketch import CoverageInstance, ParseError, generate_planted, \
    load_edge_list, loads_edge_list
from coversketch import instance as instance_mod
from coversketch.cli import _load_graph_edges, main
from coversketch.instance import FractionalInstance, WeightedInstance, \
    _khop_from_edges, _read_table, load_fractional_edge_list, \
    load_probabilistic_edge_list, load_weighted_edge_list, \
    serialize_edge_list, serialize_fractional_edge_list, \
    serialize_weighted_edge_list
from coversketch.sketch import HashSource, build_sketch, practical_params, \
    serialize_sketch, theory_params

import parse_reference

_LINE_END = re.compile(rb"\r\n|\r|\n")
_TOKEN = re.compile(rb"[0-9]{1,18}")
_MAX_VALUE = 2**31 - 1


def _integer(token: bytes) -> bool:
    return bool(_TOKEN.fullmatch(token)) and int(token) <= _MAX_VALUE


def reference_parse(data: bytes, columns: int):
    """Per-line parser of the edge-list format; returns (rows, headers)."""
    rows, headers = [], {}
    for lineno, raw in enumerate(_LINE_END.split(data), start=1):
        line = raw.strip(b" \t")
        if not line:
            continue
        if line.startswith(b"#"):
            tokens = line[1:].split()
            if len(tokens) == 2 and tokens[0] == b"U":
                if not _integer(tokens[1]):
                    raise ParseError(f"line {lineno}: bad #U header")
                headers["U"] = int(tokens[1])
            continue
        tokens = [t for t in line.replace(b"\t", b" ").split(b" ") if t]
        if len(tokens) != columns or not all(map(_integer, tokens)):
            raise ParseError(f"line {lineno}: malformed")
        rows.append([int(t) for t in tokens])
    if not rows:
        raise ValueError("empty instance")
    return rows, headers


def _outcome(parse, data, columns):
    """(rows, headers) on success, else the line named by the ParseError."""
    try:
        rows, headers = parse(data, columns)
    except ParseError as exc:
        return re.match(r"line (\d+):", str(exc)).group(1)
    except ValueError as exc:
        return str(exc)
    return np.asarray(rows, dtype=np.int64).tolist(), headers


_blank = st.text(alphabet=" \t", max_size=2)
_sep = st.text(alphabet=" \t", min_size=1, max_size=2)
_small = st.one_of(st.integers(0, 40).map(str),
                   st.integers(0, 40).map(lambda v: f"00{v}"))
# The parser alone allocates nothing by id, so it also gets the largest id.
_number = st.one_of(_small, st.just(str(_MAX_VALUE)))


@st.composite
def _data_line(draw, columns, number):
    tokens = draw(st.lists(number, min_size=columns, max_size=columns))
    seps = draw(st.lists(_sep, min_size=columns - 1, max_size=columns - 1))
    body = tokens[0] + "".join(s + t for s, t in zip(seps, tokens[1:]))
    return draw(_blank) + body + draw(_blank)


_comment = st.builds(
    lambda lead, text: lead + "#" + text, _blank,
    st.text(alphabet="abU #\t0123456789", max_size=12))
_header = st.builds(lambda a, b, u: f"#{a}U{b}{u}", _blank, _sep,
                    st.integers(1, 99))


@st.composite
def edge_file(draw, columns, number=_number):
    """Edge-list bytes plus the 0-based indices of its data lines."""
    kinds = draw(st.lists(st.sampled_from("ddddcbh"), min_size=1,
                          max_size=25))
    lines, data_lines = [], []
    for i, kind in enumerate(kinds):
        if kind == "d":
            data_lines.append(i)
            lines.append(draw(_data_line(columns, number)))
        elif kind == "c":
            lines.append(draw(_comment))
        elif kind == "h":
            lines.append(draw(_header))
        else:
            lines.append(draw(_blank))
    ends = draw(st.lists(st.sampled_from(["\n", "\r\n", "\r"]),
                         min_size=len(lines), max_size=len(lines)))
    if draw(st.booleans()):
        ends[-1] = ""
    return lines, ends, data_lines


def _join(lines, ends) -> bytes:
    return "".join(a + b for a, b in zip(lines, ends)).encode("utf-8")


_BAD_TOKENS = ["x", "-1", "+5", "1.5", "1_0", "\u0663", "0x1", "9" * 19,
               str(_MAX_VALUE + 1), "1000000000000", "1\x0b2", "1\x0c2",
               "1\u20282", "1#", "1 2"]


class TestAgainstReference:
    @pytest.mark.parametrize("columns", [2, 3])
    @settings(max_examples=150, deadline=None)
    @given(data=st.data())
    def test_random_files_agree(self, columns, data):
        lines, ends, _ = data.draw(edge_file(columns))
        raw = _join(lines, ends)
        assert _outcome(_read_table, raw, columns) == \
            _outcome(reference_parse, raw, columns)

    @settings(max_examples=100, deadline=None)
    @given(data=st.data())
    def test_edge_list_loader_agrees(self, data):
        # Small ids only: the instance allocates arrays of size max id + 1.
        lines, ends, _ = data.draw(edge_file(2, _small))
        raw = _join(lines, ends)
        try:
            rows, _ = reference_parse(raw, 2)
        except ValueError:
            with pytest.raises(ValueError):
                load_edge_list(raw)
            return
        arr = np.asarray(rows, dtype=np.int64)
        want = CoverageInstance.from_edges(
            arr[:, 0].max() + 1, arr[:, 1].max() + 1, arr[:, 0], arr[:, 1])
        assert load_edge_list(raw) == want

    @pytest.mark.parametrize("columns", [2, 3])
    @settings(max_examples=150, deadline=None)
    @given(data=st.data())
    def test_one_token_mutation_names_same_line(self, columns, data):
        lines, ends, data_lines = data.draw(edge_file(columns))
        if not data_lines:
            lines.insert(0, "0" + " 1" * (columns - 1))
            ends.insert(0, "\n")
            data_lines = [0]
        i = data.draw(st.sampled_from(data_lines))
        tokens = lines[i].split()
        j = data.draw(st.integers(0, columns - 1))
        action = data.draw(st.sampled_from(["replace", "drop", "extra"]))
        if action == "replace":
            tokens[j] = data.draw(st.sampled_from(_BAD_TOKENS))
        elif action == "drop":
            del tokens[j]
        else:
            tokens.insert(j, "7")
        lines[i] = " ".join(tokens)
        raw = _join(lines, ends)
        want = _outcome(reference_parse, raw, columns)
        assert isinstance(want, str) and want.isdigit()
        assert _outcome(_read_table, raw, columns) == want


class TestIngestContract:
    def test_messages(self):
        cases = [(b"0 x\n", "line 1: non-integer token"),
                 (b"0 1\n2\n", "line 2: expected 2 fields, got 1"),
                 (b"0 1\r\n\r\n0 -1\r\n", "line 3: negative id"),
                 (b"0 1\r2 3\r\r0 +5", "line 4: non-integer token"),
                 (b"#U x\n0 1\n", "line 1: bad #U header"),
                 (b"0 1 # trailing\n", "line 1: expected 2 fields, got 4"),
                 (b"0 2147483648\n", "line 1: integer out of range")]
        for raw, message in cases:
            with pytest.raises(ParseError, match=re.escape(message)):
                load_edge_list(raw)

    def test_first_bad_line_wins_across_kinds(self):
        with pytest.raises(ParseError, match="line 2: integer out of range"):
            load_edge_list(b"0 1\n0 99999999999\n0 x\n")
        with pytest.raises(ParseError, match="line 2: non-integer"):
            load_edge_list(b"0 1\n0 x\n0 99999999999\n")
        with pytest.raises(ParseError, match="line 2: non-integer"):
            load_edge_list(b"0 1\n0 x\n#U x\n")
        with pytest.raises(ParseError, match="line 2: bad #U header"):
            load_edge_list(b"0 1\n#U x\n0 x\n")

    def test_largest_id_accepted_by_parser(self):
        rows, _ = _read_table(b"0 2147483647\n", 2)
        assert rows.tolist() == [[0, 2147483647]]

    def test_source_kinds_agree(self, tmp_path):
        text = "# c\n3 1\r\n0 0\n\n 0\t5 \n2 3"
        path = tmp_path / "inst.txt"
        path.write_bytes(text.encode())
        want = loads_edge_list(text)
        assert want.n == 4 and want.m == 6
        for source in (str(path), path, text.encode(),
                       io.BytesIO(text.encode()), io.StringIO(text)):
            assert load_edge_list(source) == want
        with pytest.raises(TypeError):
            load_edge_list(123)

    def test_long_hash_comment_is_linear(self):
        raw = b"#" * 1_000_000 + b"\n0 1\n"
        start = time.perf_counter()
        inst = load_edge_list(raw)
        assert time.perf_counter() - start < 1.0
        assert inst.edge_count == 1

    def test_many_comment_lines(self):
        raw = b"# note\n" * 100_000 + b"#U 3\n0 1\n"
        start = time.perf_counter()
        rows, headers = _read_table(raw, 2)
        assert time.perf_counter() - start < 1.0
        assert rows.tolist() == [[0, 1]] and headers == {"U": 3}


# Window sizes that put block cuts inside CRLFs, `#U` headers, comments and
# tokens.
_SMALL_BLOCKS = [1, 2, 3, 7, 64]


@pytest.fixture(scope="class", params=_SMALL_BLOCKS)
def small_block(request):
    with mock.patch.object(instance_mod, "_PARSE_BLOCK", request.param):
        yield request.param


def _sources(raw, tmp_dir):
    """``raw`` as every source kind the loaders accept."""
    path = os.path.join(tmp_dir, "inst.txt")
    with open(path, "wb") as fh:
        fh.write(raw)
    return [raw, path, io.BytesIO(raw), io.StringIO(raw.decode("utf-8"))]


def _message(parse, source, columns):
    """The ParseError text, else (rows, headers)."""
    try:
        rows, headers = parse(source, columns)
    except ValueError as exc:
        return str(exc)
    return rows.tolist(), headers


@pytest.mark.usefixtures("small_block")
class TestAgainstReferenceSmallBlocks(TestAgainstReference):
    """The reference properties with windows of 1 to 64 bytes."""


@pytest.mark.usefixtures("small_block")
class TestIngestContractSmallBlocks(TestIngestContract):
    """The ingest contract with windows of 1 to 64 bytes."""

    def test_many_comment_lines(self):
        # Each window of a few comment lines is a block of its own, so the
        # base test's clock holds at the real block size only.
        raw = b"# note\n" * 1_000 + b"#U 3\n0 1\n"
        rows, headers = _read_table(raw, 2)
        assert rows.tolist() == [[0, 1]] and headers == {"U": 3}


@pytest.mark.usefixtures("small_block")
class TestBlockCuts:
    @settings(max_examples=60, deadline=None)
    @given(data=st.data())
    def test_blocks_are_whole_lines(self, data):
        lines, ends, _ = data.draw(edge_file(2))
        raw = _join(lines, ends)
        want = _message(parse_reference.read_table, raw, 2)
        for source in (raw, io.BytesIO(raw), io.StringIO(raw.decode())):
            blocks = [bytes(b) for b in instance_mod._blocks(source)]
            assert b"".join(blocks) == raw and all(blocks)
            for block, after in zip(blocks, blocks[1:]):
                assert block[-1:] in (b"\n", b"\r")
                assert not (block.endswith(b"\r")
                            and after.startswith(b"\n"))
        with tempfile.TemporaryDirectory() as tmp:
            for source in _sources(raw, tmp):
                assert _message(_read_table, source, 2) == want

    @pytest.mark.parametrize("end", ["\n", "\r\n", "\r"])
    def test_error_in_later_block(self, end):
        lines = [f"{i} {i % 7}" for i in range(60)]
        lines[40] = "4 -2"
        lines[50] = "#U x"
        raw = (end.join(lines) + end).encode()
        with tempfile.TemporaryDirectory() as tmp:
            for source in _sources(raw, tmp):
                with pytest.raises(ParseError, match="^line 41: negative id"):
                    _read_table(source, 2)

    def test_width_and_header_from_later_block(self):
        raw = b"# first\n\n#U 5\n \n1 2 3\n4 5 6\n#U 9\n"
        rows, headers = _read_table(raw, None)
        assert rows.tolist() == [[1, 2, 3], [4, 5, 6]]
        assert headers == {"U": 9}
        with pytest.raises(ValueError, match="^empty instance$"):
            _read_table(b"# only\r\n\r\n#U 3\r\n", None)


def test_cr_closes_window_lf_in_next(tmp_path):
    # Every window size up to the whole input; the first window of 4 or 9
    # bytes ends in the CR of a CRLF.
    raw = b"0 1\r\n0 x\r\n"
    for block in range(1, len(raw) + 1):
        with mock.patch.object(instance_mod, "_PARSE_BLOCK", block):
            for source in _sources(raw, str(tmp_path)):
                with pytest.raises(ParseError,
                                   match="^line 2: non-integer token"):
                    _read_table(source, 2)


class TestWholeFileReference:
    """The block parse at the real block size against the whole-file parse
    on a 2.2 MB planted file, its messy copies and late-block mutations."""

    @pytest.fixture(scope="class")
    def text(self):
        inst, _ = generate_planted(10, 20000, 100, 0.2, 1)
        text = serialize_edge_list(inst, header_lines=["planted"])
        assert len(text) > 8 * instance_mod._PARSE_BLOCK
        return text

    @staticmethod
    def _copies(text):
        head, *rows = text.splitlines()
        noted = [f"{r}\n\t# note {i}" if i % 997 == 0 else r
                 for i, r in enumerate(rows)]
        noted.insert(len(rows) * 3 // 4, "#U 7")
        return {"lf": text,
                "reversed-crlf": "\r\n".join([head, *rows[::-1]]) + "\r\n",
                "cr": text.replace("\n", "\r"),
                "comments-crlf": "\r\n".join([head, *noted]),
                "comments-cr": "\r".join([head, *noted]) + "\r"}

    def test_rows_and_headers_agree(self, text, tmp_path):
        for name, copy in self._copies(text).items():
            raw = copy.encode()
            want = parse_reference.read_table(raw, 2)
            for source in _sources(raw, str(tmp_path)):
                rows, headers = _read_table(source, 2)
                assert np.array_equal(rows, want[0]), name
                assert headers == want[1], name

    def test_late_mutations_agree(self, text):
        lines = self._copies(text)["comments-crlf"].split("\r\n")
        rng = np.random.default_rng(0)
        late = rng.integers(len(lines) * 9 // 10, len(lines), 2 * 17)
        edits = [lambda t, tok=tok: [t[0], tok] for tok in _BAD_TOKENS]
        edits += [lambda t: t[:1], lambda t: t + ["7"]]
        for edit, i, j in zip(edits, late[0::2], late[1::2]):
            mutated = list(lines)
            for at in sorted((i, j)):  # the first bad line must win
                if not mutated[at].lstrip().startswith("#"):
                    mutated[at] = " ".join(edit(mutated[at].split()))
            raw = "\r\n".join(mutated).encode()
            want = _message(parse_reference.read_table, raw, 2)
            assert isinstance(want, str) and want.startswith("line ")
            assert _message(_read_table, raw, 2) == want


class TestLongLines:
    @pytest.mark.parametrize("end", ["\n", "\r\n", "\r"])
    def test_data_line_past_four_blocks(self, tmp_path, end):
        pad = " \t" * (2 * instance_mod._PARSE_BLOCK + 3)
        raw = f"0 1{end}2{pad}3{end}4 5{end}".encode()
        for source in _sources(raw, str(tmp_path)):
            rows, _ = _read_table(source, 2)
            assert rows.tolist() == [[0, 1], [2, 3], [4, 5]]

    def test_selected_line_longer_than_a_block(self):
        m = 60_000
        inst = CoverageInstance.from_edges(3, m, np.arange(m) % 3,
                                           np.arange(m))
        sk = build_sketch(inst, practical_params(1.0, 10), HashSource(1))
        text = serialize_sketch(sk)
        selected = text.splitlines()[2]
        assert selected.startswith("#selected ")
        assert len(selected) > instance_mod._PARSE_BLOCK
        assert loads_edge_list(text) == sk.instance


# Text that replaces up to three bytes of a canonical file: each leaves the
# writers' form, or keeps it, and so picks the path of its block.
_MUTATIONS = _BAD_TOKENS + ["", "\t", "  ", " \n", "\r", "\r\n", "\n",
                            "# note\n", "#U 5\n", "#U x\n", "0" * 18]


@st.composite
def canonical_file(draw):
    """Text as the writers lay rows out, and its column count."""
    columns = draw(st.sampled_from([2, 3]))
    rows = draw(st.integers(1, 30))
    value = st.one_of(st.integers(0, 40), st.integers(0, _MAX_VALUE))
    cols = [np.array(draw(st.lists(value, min_size=rows, max_size=rows)),
                     dtype=np.int64) for _ in range(columns)]
    return instance_mod._format_rows(cols).decode(), columns


class TestCanonicalFastPath:
    """Blocks in the writers' form skip the general checks; every other
    block, and so every error message, goes through them."""

    @pytest.mark.parametrize("block", [3, 8, 64])
    @settings(max_examples=100, deadline=None)
    @given(data=st.data())
    def test_one_mutation_agrees_with_reference(self, block, data):
        text, columns = data.draw(canonical_file())
        if data.draw(st.booleans()):
            # Separators get drawn often: most bad edits sit next to one.
            seps = [i for i, c in enumerate(text) if c in " \n"]
            pos = data.draw(st.one_of(st.integers(0, len(text)),
                                      st.sampled_from(seps)))
            cut = data.draw(st.integers(0, 3))
            text = (text[:pos] + data.draw(st.sampled_from(_MUTATIONS))
                    + text[pos + cut:])
        raw = text.encode()
        width = data.draw(st.sampled_from([columns, None]))
        # Blocks of a few bytes, and segments of a few values, so that the
        # parts of the rows are joined more than once.
        with mock.patch.object(instance_mod, "_PARSE_BLOCK", block), \
                mock.patch.object(instance_mod, "_JOIN_SEGMENT", 5):
            got = _message(_read_table, raw, width)
        assert got == _message(parse_reference.read_table, raw, width)

    def test_every_edit_agrees_with_reference(self):
        # Each mutation replacing 0 to 3 bytes at each position of a small
        # file, and each prefix of it.
        text = instance_mod._format_rows(
            [np.array([0, 7, 12]), np.array([31, 4, 2147483647])]).decode()
        edits = [text[:end] for end in range(len(text))]
        edits += [text[:pos] + new + text[pos + cut:]
                  for pos in range(len(text) + 1) for cut in range(4)
                  for new in _MUTATIONS]
        with mock.patch.object(instance_mod, "_PARSE_BLOCK", 8):
            for raw in map(str.encode, edits):
                for width in (2, None):
                    assert _message(_read_table, raw, width) == \
                        _message(parse_reference.read_table, raw, width)

    @pytest.fixture(scope="class")
    def text(self):
        inst, _ = generate_planted(10, 20000, 100, 0.2, 1)
        text = serialize_edge_list(inst, header_lines=["planted", "seed=1"])
        assert len(text) > 8 * instance_mod._PARSE_BLOCK
        return text

    def test_writer_blocks_skip_general_checks(self, text):
        want = parse_reference.read_table(text.encode(), 2)
        with mock.patch.object(instance_mod, "_strip_comments",
                               wraps=instance_mod._strip_comments) as strip:
            rows, headers = _read_table(text.encode(), 2)
        assert strip.call_count == 1  # the block that holds the header
        assert rows.dtype == np.int32
        assert np.array_equal(rows, want[0]) and headers == want[1] == {}

    @pytest.mark.parametrize("token", [str(_MAX_VALUE + 1), "9" * 19,
                                       "-1", "x"])
    def test_late_bad_value_named(self, text, token):
        lines = text.split("\n")
        at = len(lines) * 9 // 10
        lines[at] = f"0 {token}"
        raw = "\n".join(lines).encode()
        want = _message(parse_reference.read_table, raw, 2)
        assert want.startswith(f"line {at + 1}: ")
        assert _message(_read_table, raw, 2) == want

    def test_keys_past_int32(self):
        # The key 1048575 * 1048576 wraps in int32.
        raw = b"1048575 0\n0 1048575\n"
        want = CoverageInstance.from_edges(2**20, 2**20, [2**20 - 1, 0],
                                           [0, 2**20 - 1])
        assert load_edge_list(raw) == want


def test_parse_memory_is_rows_plus_a_block(tmp_path):
    """A parse holds the rows twice while it joins the blocks' rows, plus
    one block and its masks."""
    inst, _ = generate_planted(100, 20000, 2000, 0.2, 3)
    path = tmp_path / "planted.txt"
    serialize_edge_list(inst, str(path))
    assert path.stat().st_size >= 4_000_000
    tracemalloc.start()
    try:
        rows, _ = _read_table(path, 2)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert rows.shape == (inst.edge_count, 2)
    assert peak < 2 * rows.nbytes + 4 * 2**20


class TestIdBound:
    """Ids are positional, so an id far beyond the row count would size the
    instance's arrays by the id; every loader rejects it first."""

    @pytest.mark.parametrize("load,raw", [
        (load_edge_list, b"0 2147483646\n"),
        (load_edge_list, b"2147483646 0\n"),
        (load_weighted_edge_list, b"0 2147483646 1\n"),
        (load_fractional_edge_list, b"#U 2\n0 2147483646 1\n"),
        (load_probabilistic_edge_list, b"#U 2\n2147483646 0 1\n"),
        (_load_graph_edges, b"0 2147483646\n")])
    def test_rejected_before_allocation(self, load, raw):
        tracemalloc.start()
        try:
            with pytest.raises(ValueError, match="largest id 2147483646 is "
                               "too large for 1 rows"):
                load(raw)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 2**20

    def test_limit_grows_with_rows(self):
        limit = 2**20 + 16 * 2
        assert load_edge_list(f"0 0\n0 {limit - 1}\n".encode()).m == limit
        with pytest.raises(ValueError, match=f"largest id {limit} "):
            load_edge_list(f"0 0\n0 {limit}\n".encode())

    def test_cli_exits_one(self, tmp_path, capsys):
        inp = tmp_path / "huge.txt"
        inp.write_text("0 2147483646\n")
        code = main(["sketch", "--in", str(inp), "--out",
                     str(tmp_path / "sk.txt"), "--rho", "0.5"])
        err = capsys.readouterr().err
        assert code == 1
        assert err.startswith("error: largest id 2147483646")
        assert "Traceback" not in err


def reference_weights(rows, m):
    """The per-row weight check, in file order."""
    weight = np.ones(m, dtype=np.int64)
    seen = np.zeros(m, dtype=bool)
    for _, e, w in rows:
        if w < 1:
            raise ValueError(f"element {e}: weight must be >= 1")
        if seen[e] and weight[e] != w:
            raise ValueError(f"element {e}: conflicting weights")
        weight[e] = w
        seen[e] = True
    return weight


class TestWeightedLoader:
    @settings(max_examples=200, deadline=None)
    @given(st.lists(st.tuples(st.integers(0, 3), st.integers(0, 5),
                              st.integers(0, 3)), min_size=1, max_size=30))
    def test_weight_checks_match_row_loop(self, rows):
        raw = "".join(f"{s} {e} {w}\n" for s, e, w in rows).encode()
        m = max(e for _, e, _ in rows) + 1
        try:
            want = reference_weights(rows, m)
        except ValueError as exc:
            with pytest.raises(ValueError, match=re.escape(str(exc))):
                load_weighted_edge_list(raw)
            return
        assert load_weighted_edge_list(raw).element_weight.tolist() == \
            want.tolist()


def reference_adjacency(rows):
    nv = max(max(u, v) for u, v in rows) + 1
    adjacency = [set() for _ in range(nv)]
    for u, v in rows:
        if u != v:
            adjacency[u].add(v)
            adjacency[v].add(u)
    return adjacency


class TestGraphLoader:
    @settings(max_examples=100, deadline=None)
    @given(st.lists(st.tuples(st.integers(0, 8), st.integers(0, 8)),
                    min_size=1, max_size=30))
    def test_neighbor_sets(self, tmp_path_factory, rows):
        path = tmp_path_factory.mktemp("g") / "graph.txt"
        path.write_text("".join(f"{u} {v}\n" for u, v in rows))
        inst = _khop_from_edges(*_load_graph_edges(str(path)), 1)
        assert [set(inst.set_elements(a).tolist()) for a in range(inst.n)] \
            == [nbrs | {a} for a, nbrs in enumerate(reference_adjacency(rows))]

    @pytest.mark.parametrize("text,message", [
        ("0 1\n1 x\n", "line 2: non-integer token"),
        ("0 1 2\n", "line 1: expected 2 fields, got 3"),
        ("0 -1\n", "line 1: negative id"),
        ("# only\n", "empty instance")])
    def test_khop_bad_graph_exits_one(self, tmp_path, capsys, text, message):
        graph = tmp_path / "graph.txt"
        graph.write_text(text)
        code = main(["generate", "khop", "--graph", str(graph), "--hops",
                     "1", "--out", str(tmp_path / "out.txt")])
        err = capsys.readouterr().err
        assert code == 1 and message in err and "Traceback" not in err


def reference_text(head, *columns):
    """The writers' format: header lines, then one f-string per row."""
    rows = (" ".join(map(str, r)) for r in zip(*(c.tolist() for c in columns)))
    return "\n".join([*head, *rows]) + "\n"


class TestWriter:
    @pytest.fixture(autouse=True)
    def small_blocks(self, monkeypatch):
        # Rows then span several formatting blocks and a partial last one.
        monkeypatch.setattr(instance_mod, "_WRITE_BLOCK", 2)

    @pytest.mark.parametrize("edges", [0, 1, 2, 5, 12])
    def test_writers_match_reference(self, tmp_path, edges):
        rng = np.random.default_rng(edges)
        inst = CoverageInstance.from_edges(
            3, 4, rng.integers(0, 3, edges), rng.integers(0, 4, edges))
        set_ids, elem_ids = inst.edges()
        weight = rng.integers(1, 5, 4)
        numer = rng.integers(0, 7, inst.edge_count)
        winst = WeightedInstance(inst, weight, 9)
        finst = FractionalInstance.from_edges(3, 4, set_ids, elem_ids, numer, 7)
        sk = build_sketch(inst, practical_params(1.0, 10), HashSource(1))
        sk_head = serialize_sketch(sk).split("\n")[:3]
        cases = [
            (lambda out: serialize_edge_list(inst, out, ["a", "#b"]),
             reference_text(["#a", "#b"], set_ids, elem_ids)),
            (lambda out: serialize_edge_list(inst, out),
             reference_text([], set_ids, elem_ids)),
            (lambda out: serialize_weighted_edge_list(winst, out, ["w"]),
             reference_text(["#w", "#U 9"], set_ids, elem_ids,
                            weight[elem_ids])),
            (lambda out: serialize_fractional_edge_list(finst, out),
             reference_text(["#U 7"], set_ids, elem_ids, numer)),
            (lambda out: serialize_sketch(sk, out),
             reference_text(sk_head, *sk.instance.edges())),
        ]
        path = tmp_path / "out.txt"
        for write, want in cases:
            assert write(None) == want
            buf = io.StringIO()
            assert write(buf) is None and buf.getvalue() == want
            assert write(str(path)) is None and path.read_text() == want

    @settings(max_examples=150, deadline=None,
              suppress_health_check=[HealthCheck.function_scoped_fixture])
    @given(st.integers(1, 3), st.integers(0, 9), st.integers(1, 3),
           st.sampled_from([[], ["#a"], ["#a", "#U 7"]]), st.data())
    def test_digit_widths_match_reference(self, ncols, rows, block, head,
                                          data):
        # Widths 1 to 19 digits, each power-of-ten boundary and both int
        # limits, split into blocks of 1-3 rows.
        value = st.one_of(st.sampled_from(
            [0, 9, 10, 99, 100, 2**31 - 1, 2**63 - 1]),
            st.integers(0, 2**63 - 1))
        columns = [np.array(data.draw(st.lists(value, min_size=rows,
                                               max_size=rows)),
                            dtype=np.int64) for _ in range(ncols)]
        want = reference_text(head, *columns)
        with mock.patch.object(instance_mod, "_WRITE_BLOCK", block), \
                tempfile.TemporaryDirectory() as tmp:
            assert instance_mod._write_rows(None, head, *columns) == want
            buf = io.StringIO()
            assert instance_mod._write_rows(buf, head, *columns) is None
            assert buf.getvalue() == want
            path = os.path.join(tmp, "out.txt")
            assert instance_mod._write_rows(path, head, *columns) is None
            with open(path, "rb") as fh:
                assert fh.read() == want.encode("ascii")


class TestUint32Digits:
    """Columns of at most 9 digits are divided in uint32, wider ones in
    int64; the text is the same on both sides of the switch."""

    VALUES = [0, 9, 10, 999_999_999, 1_000_000_000, 2**31 - 1, 2**32 - 1,
              2**32, 2**62]

    @pytest.mark.parametrize("block", [None, 2])
    def test_rows_at_the_switch(self, monkeypatch, block):
        if block is not None:
            monkeypatch.setattr(instance_mod, "_WRITE_BLOCK", block)
        for v in self.VALUES:
            assert instance_mod._format_rows([np.array([v])]) == \
                f"{v}\n".encode()
        # Each prefix ends at a different largest value, so the columns
        # (and, with two-row blocks, each block) cross the switch in turn.
        for stop in range(1, len(self.VALUES) + 1):
            col = np.array(self.VALUES[:stop], dtype=np.int64)
            columns = (col, col[::-1].copy(), np.minimum(col, 999_999_999))
            want = "".join(" ".join(map(str, row)) + "\n"
                           for row in zip(*(c.tolist() for c in columns)))
            assert instance_mod._write_rows(None, [], *columns) == want


def _sha256(text):
    return hashlib.sha256(text.encode("ascii")).hexdigest()


class TestWriterGolden:
    """sha256 pins of every serializer on a 500,000-edge planted instance.

    The texts span 8 write blocks, 5-digit element ids and, for the clamped
    theory sketch, a `#selected` line of all 20,000 element ids.  The digests
    were taken from the row-at-a-time writer that the digit-matrix writer
    replaced.
    """

    @pytest.fixture(scope="class")
    def planted(self):
        inst, _ = generate_planted(100, 20000, 2000, 0.2, 3)
        return inst

    def test_edge_list(self, planted):
        text = serialize_edge_list(planted, header_lines=[
            "planted k=100 m=20000 k_prime=2000 eps=0.2 seed=3"])
        assert _sha256(text) == ("e4d7d35126bde2f91a4b1eec4cb3c0d9"
                                 "38af616dfce85c6e0f18d7f703a64b7d")

    def test_weighted_and_fractional(self, planted):
        rng = np.random.default_rng(3)
        weights = rng.integers(1, 9, size=planted.m)
        set_ids, elem_ids = planted.edges()
        numer = rng.integers(1, 9, size=len(set_ids))
        winst = WeightedInstance(planted, weights, 8)
        finst = FractionalInstance.from_edges(planted.n, planted.m, set_ids,
                                              elem_ids, numer, 8)
        text = serialize_weighted_edge_list(winst, header_lines=["weighted"])
        assert _sha256(text) == ("81f30c8433c0898cfe9b2529f8b26c87"
                                 "a97c53a5f3653b72da309ff952eb2853")
        assert _sha256(serialize_fractional_edge_list(finst)) == (
            "1b3b521c52d2a9e4fa77fa5ba2d83823"
            "149bf0a7444bc53676cf60d06401a07f")

    def test_sketches(self, planted):
        practical = build_sketch(planted, practical_params(0.1, 100),
                                 HashSource(3))
        params = theory_params(planted.n, planted.m, planted.edge_count, 10,
                               0.5)
        theory = build_sketch(planted, params, HashSource(3))
        assert len(theory.selected_elements) == planted.m
        assert _sha256(serialize_sketch(practical)) == (
            "7a2d031256b1d6d763dfcd7e1160c01b"
            "a8f3ca6cd03b985861a8c3067c85fec3")
        assert _sha256(serialize_sketch(theory)) == (
            "8d26c9897de9a037223d70a65974073e"
            "d17beeb5f89ff66618bbcb83efde4810")
