"""The whole-file edge-list parse: the reference for ``instance._read_table``.

:func:`read_table` reads the entire input, builds its byte masks, token
arrays and comment-blanked copy over all of it at once, and converts every
row with one ``np.fromstring``.  The library parses the same format one
block of whole lines at a time; the tests hold its rows, headers and
``ParseError`` messages equal to these.  The library converts tokens place
by place from their ends; this parse keeps ``np.fromstring`` on purpose, so
that the two conversions stay independent and one checks the other.
"""

from pathlib import Path

import numpy as np

from coversketch.instance import _MAX_DIGITS, _MAX_VALUE, ParseError


def _read_bytes(source) -> bytes:
    """Raw content of a path, bytes, or binary or text file object."""
    if isinstance(source, (str, Path)):
        with open(source, "rb") as fh:
            return fh.read()
    if isinstance(source, bytes):
        return source
    if hasattr(source, "read"):
        data = source.read()
        return data.encode("utf-8") if isinstance(data, str) else data
    raise TypeError("source must be a path, bytes, or file object")


def _line_number(buf: np.ndarray, pos: int) -> int:
    """1-based line of byte ``pos``; LF, CR and CRLF each end one line."""
    lf, cr = buf[:pos] == ord("\n"), buf[:pos] == ord("\r")
    crlf = np.count_nonzero(cr[:-1] & lf[1:])
    return 1 + int(np.count_nonzero(lf) + np.count_nonzero(cr) - crlf)


def _strip_comments(data: bytes, buf: np.ndarray, bounds: np.ndarray):
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
        tokens = data[h + 1:end].split()
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
                columns: int, field: str | None) -> ParseError:
    """Describe what is wrong with the line holding byte ``pos``.

    ``field`` names every column, or is None for edge-list columns: two ids,
    then values.
    """
    i = int(np.searchsorted(bounds, pos)) - 1
    text = buf[bounds[i] + 1:bounds[i + 1]].tobytes()
    tokens = [t for t in text.replace(b"\t", b" ").split(b" ") if t]
    where = f"line {_line_number(buf, pos)}"
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


def read_table(source, columns: int | None, field: str | None = None):
    """Parse rows of ``columns`` integers; returns (rows, headers).

    ``rows`` is an ``(r, columns)`` int64 array in file order and
    ``headers`` holds the value of a `#U <int>` comment, if any.  With
    ``columns=None`` the first data line sets the width.  ``field`` names
    every column in error messages; by default the columns are an edge
    list's two ids and its values.  The whole input is
    checked and converted with array operations; a ParseError names the
    first malformed line, and an input without rows is an empty instance.
    """
    data = _read_bytes(source)
    buf = np.frombuffer(data, dtype=np.uint8)
    newline = (buf == ord("\n")) | (buf == ord("\r"))
    bounds = np.concatenate(([-1], np.flatnonzero(newline), [buf.size]))
    buf, headers, bad_header = _strip_comments(data, buf, bounds)
    sep = newline | (buf == ord(" ")) | (buf == ord("\t"))
    digit = (buf - np.uint8(ord("0"))) < 10
    # Token boundaries alternate start, end.
    flips = np.flatnonzero(np.diff(sep, prepend=True, append=True))
    starts, ends = flips[0::2], flips[1::2]
    counts = np.diff(np.searchsorted(starts, bounds))
    if columns is None:  # 0 without a data line: the input is empty
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
    values = (np.fromstring(buf[:stop].tobytes(), dtype=np.int64, sep=" ")
              if ntok else np.empty(0, dtype=np.int64))
    big = np.flatnonzero(values > _MAX_VALUE)
    if big.size:
        first = int(starts[big[0]])
    # A bad `#U` header is an error of its own line, so the earlier one wins.
    if bad_header is not None and (first is None or bad_header < first):
        raise ParseError(f"line {_line_number(buf, bad_header)}: "
                         "bad #U header")
    if first is not None:
        raise _line_error(buf, bounds, first, columns, field)
    if not values.size:
        raise ValueError("empty instance")
    return values.reshape(-1, columns), headers
