"""Curve-file ingestion: a malformed-file corpus, a seeded fuzz, a round trip and the two routes.

The corpus pins, file by file, what ``ingest_curves`` returns or raises:
the parsed arrays, or the exact error message and line.  Invalid UTF-8
and a field over csv's size limit raise ``CurveParseError`` naming the
first such byte or line, in file order even inside a quoted cell that
spans lines, and a leading byte-order mark is skipped; every other
outcome is the one the earlier whole-file parser gave, so streaming the
file changed no accepted value, no message and no line number.

``ingest_curves`` reads a file once.  A csv reader reads the header, then
a bulk pass (``np.loadtxt`` per chunk) reads the data lines until a chunk
it refuses, from whose first line the csv row parser reads to the end.
The differential tests require the outcome to equal the row parser's
alone (every chunk refused) on every file, to the bit or to the message
and line; the route tests check that clean files skip the row parser and
that it sees only the lines from the refused chunk on.  They read every
file serially.  The helper-route tests share one booted helper process,
which bulk-parses the upper half of a large file while the caller reads
the lower half: the same defect corpus, with defects in either half, a
replaced file, a killed helper and a lowered csv field size limit must
give the row parser's outcome too.  A process's first large file starts
no helper, a helper that has not booted or cannot be spawned leaves the
file to the caller, and the outcome is again the row parser's.
"""

import csv
import functools
import io
import os
import random
import re
import signal
import time
from pathlib import Path

import numpy as np
import pytest

from funcroc import CurveParseError
from funcroc.cli import main
from funcroc import _helper, harness
from funcroc.harness import _parse_cells, _parse_rows, _read_bulk, ingest_curves

HEADER = "label,0.5,1.0"
HEADER_ERROR = "header must be 'label,t1,...,tm' with at least two grid points"

# (file bytes, (diseased rows, healthy rows)) for accepted files
ACCEPTED = {
    "mixed-line-endings-and-blank-lines": (
        b"label,0.5,1.0\r\nD,1,2\n\nH,3,4\rD,5,6\r\n\r\n\rH,7,8",
        ([[1.0, 2.0], [5.0, 6.0]], [[3.0, 4.0], [7.0, 8.0]]),
    ),
    "quoted-padded-and-underscore-cells": (
        b'label, 0.5 ,"1.0"\nD," 1.5 ",1_000\n"H",\t2\t,"3"\n d ,-0.0,+.5\n',
        ([[1.5, 1000.0], [-0.0, 0.5]], [[2.0, 3.0]]),
    ),
    # a spreadsheet "CSV UTF-8" export: the mark is skipped
    "leading-byte-order-mark": (
        b"\xef\xbb\xbflabel,0.5,1.0\nD,1,2\nH,3,4\n", ([[1.0, 2.0]], [[3.0, 4.0]])
    ),
    # str.strip drops the file separator U+001C and float alone does not
    "file-separator-padded-cell": (
        HEADER.encode() + b"\nD,1.5\x1c,2\nH,3,4\n", ([[1.5, 2.0]], [[3.0, 4.0]])
    ),
    "sum-overflows-but-every-cell-is-finite": (
        b"label,0.5,1.0\nD,1e308,1e308\nH,-1e308,-1e308\nH,1e308,-1e308\n",
        ([[1e308, 1e308]], [[-1e308, -1e308], [1e308, -1e308]]),
    ),
}

# (file bytes, message, line) for rejected files
REJECTED = {
    "empty-file": (b"", "file is empty", 1),
    "blank-lines-only": (b"\n\r\n\n", "file is empty", 1),
    "header-after-blank-lines": (b"\n\ntime,0.5,1.0\nD,1,2\n", HEADER_ERROR, 3),
    "one-grid-point": (b"label,0.5\nD,1\nH,2\n", HEADER_ERROR, 1),
    "unsorted-grid": (
        b"label,1.0,0.5\nD,1,2\nH,3,4\n",
        "bad grid in header: grid points must be strictly increasing",
        1,
    ),
    "grid-out-of-range": (
        b"label,0.5,1.5\nD,1,2\nH,3,4\n", "bad grid in header: grid points must lie in [0, 1]", 1
    ),
    "non-finite-grid-point": (b"label,0.5,inf\nD,1,2\n", "column 3: non-finite value 'inf'", 1),
    "nan-cell": (HEADER.encode() + b"\nD,1,nan\nH,3,4\n", "column 3: non-finite value 'nan'", 2),
    "inf-cell": (HEADER.encode() + b"\nD,1,2\nH,inf,4\n", "column 2: non-finite value 'inf'", 3),
    "negative-inf-cell": (
        HEADER.encode() + b"\nD,1,2\nH,3,-inf\n", "column 3: non-finite value '-inf'", 3
    ),
    "overflowing-cell": (
        HEADER.encode() + b"\nD,1e999,2\nH,3,4\n", "column 2: non-finite value '1e999'", 2
    ),
    "padded-nan-cell-is-named-stripped": (
        HEADER.encode() + b"\nD,1, NaN \nH,3,4\n", "column 3: non-finite value 'NaN'", 2
    ),
    "word-cell": (HEADER.encode() + b"\nD,1,2\nH,3,four\n", "column 3: not a number: 'four'", 3),
    "empty-cell": (HEADER.encode() + b"\nD,,2\nH,3,4\n", "column 2: not a number: ''", 2),
    "nan-before-a-bad-word": (
        HEADER.encode() + b"\nD,nan,x\nH,3,4\n", "column 2: non-finite value 'nan'", 2
    ),
    "short-row": (HEADER.encode() + b"\nD,1,2\nH,3\n", "expected 3 cells, found 2", 3),
    "long-row": (HEADER.encode() + b"\nD,1,2,3\nH,3,4\n", "expected 3 cells, found 4", 2),
    "nan-then-ragged-row": (
        HEADER.encode() + b"\nD,nan,1\nH,1\n", "column 2: non-finite value 'nan'", 2
    ),
    "unknown-label": (HEADER.encode() + b"\nX,1,2\nH,3,4\n", "unknown group label 'X'", 2),
    "bad-row-after-mixed-endings": (
        b"label,0.5,1.0\r\nD,1,2\r\rH,3,x\n", "column 3: not a number: 'x'", 4
    ),
    "missing-healthy-group": (
        HEADER.encode() + b"\nD,1,2\nd,3,4\n", "no rows labeled 'H' found", None
    ),
    "missing-diseased-group": (HEADER.encode() + b"\nH,1,2\n", "no rows labeled 'D' found", None),
    "header-only": (HEADER.encode() + b"\n", "no rows labeled 'D' found", None),
    # the bulk pass reads a chunk of blank lines and nothing else
    "header-then-blank-lines": (
        HEADER.encode() + b"\n\n\r\n\r\n", "no rows labeled 'D' found", None
    ),
    # invalid UTF-8: the byte offset is that of the first invalid byte in the file
    "invalid-utf8-byte": (
        HEADER.encode() + b"\nD,1,2\nH,3,\xff4\n", "invalid UTF-8 at byte offset 24", 3
    ),
    "truncated-utf8-sequence-at-end": (
        HEADER.encode() + b"\nD,1,2\nH,3,4\xe2\x82", "invalid UTF-8 at byte offset 25", 3
    ),
    "invalid-utf8-after-crlf-and-cr": (
        b"label,0.5,1.0\r\nD,1,2\rH,\x80,4\r\n", "invalid UTF-8 at byte offset 23", 3
    ),
    "byte-order-mark-then-invalid-utf8": (
        b"\xef\xbb\xbf" + HEADER.encode() + b"\nD,1,2\nH,3,\xff4\n",
        "invalid UTF-8 at byte offset 27",
        3,
    ),
    "bad-row-before-invalid-utf8": (
        HEADER.encode() + b"\nD,1\nH,3,\xff\n", "expected 3 cells, found 2", 2
    ),
    "bad-header-before-invalid-utf8": (b"time,0.5,1.0\nD,\xff,2\n", HEADER_ERROR, 1),
    "invalid-utf8-in-the-header": (
        b"label,0.5,\xff1.0\nD,1,2\nH,3,4\n", "invalid UTF-8 at byte offset 10", 1
    ),
    "field-over-the-csv-size-limit": (
        HEADER.encode() + b"\nD,1,2\nH,3," + b"4" * 200_000 + b"\n",
        "malformed CSV: field larger than field limit (131072)",
        3,
    ),
    "invalid-utf8-before-a-bad-row": (
        HEADER.encode() + b"\nD,\xff,2\nH,3\n", "invalid UTF-8 at byte offset 16", 2
    ),
    # the record starts on line 2; the invalid byte is on its second line
    "invalid-utf8-in-a-quoted-cell-spanning-lines": (
        HEADER.encode() + b'\nD,"1\n5\xff",2\nH,3,4\n', "invalid UTF-8 at byte offset 20", 3
    ),
}


def _write(tmp_path, data: bytes):
    path = tmp_path / "curves.csv"
    path.write_bytes(data)
    return path


@pytest.mark.parametrize("name", sorted(ACCEPTED))
def test_accepted_file_parses_to_the_pinned_values(tmp_path, name):
    data, (diseased, healthy) = ACCEPTED[name]
    d, h = ingest_curves(_write(tmp_path, data))
    assert d.grid.points.tolist() == [0.5, 1.0]
    assert d.values.tobytes() == np.array(diseased).tobytes()
    assert h.values.tobytes() == np.array(healthy).tobytes()


@pytest.mark.parametrize("name", sorted(REJECTED))
def test_rejected_file_raises_the_pinned_error(tmp_path, name):
    data, message, line = REJECTED[name]
    with pytest.raises(CurveParseError) as excinfo:
        ingest_curves(_write(tmp_path, data))
    expected = message if line is None else f"line {line}: {message}"
    assert (str(excinfo.value), excinfo.value.line) == (expected, line)


def _rows(rng, m, n):
    labels = ["D", "H"] + [rng.choice("DH") for _ in range(n - 2)]
    rng.shuffle(labels)
    return [[label] + [repr(rng.gauss(0.0, 10.0 ** rng.randint(-3, 3))) for _ in range(m)]
            for label in labels]


def test_invalid_utf8_past_the_first_chunks_names_its_absolute_offset(tmp_path):
    # the streaming decoder reads the file in chunks of a few kilobytes; the
    # reported offset must still be counted from the start of the file
    rng = random.Random(5)
    lines = [["label", "0.25", "0.5", "1.0"]] + _rows(rng, 3, 400)
    text = "".join(",".join(row) + "\r\n" for row in lines).encode("utf-8")
    assert len(text) > 3 * 8192
    offset = len(text) - 20
    data = text[:offset] + b"\xff" + text[offset:]
    line = data[:offset].count(b"\r\n") + 1
    with pytest.raises(CurveParseError) as excinfo:
        ingest_curves(_write(tmp_path, data))
    assert str(excinfo.value) == f"line {line}: invalid UTF-8 at byte offset {offset}"
    assert excinfo.value.line == line


def test_cli_exits_with_two_on_invalid_utf8(tmp_path, capsys):
    path = _write(tmp_path, HEADER.encode() + b"\nD,1,2\nH,3,\xff4\n")
    code = main(["analyze", "--input", str(path)])
    assert code == 2
    assert "invalid UTF-8 at byte offset 24" in capsys.readouterr().err


def test_invalid_byte_gone_on_the_second_read_names_the_file_as_changed(tmp_path, monkeypatch):
    # the offset is sought in a second read of the file's bytes; when that read
    # decodes cleanly, the file changed between the two reads
    path = _write(tmp_path, HEADER.encode() + b"\nD,1,2\nH,3,\xff4\n")
    monkeypatch.setattr(Path, "read_bytes", lambda self: f"{HEADER}\nD,1,2\nH,3,4\n".encode())
    with pytest.raises(CurveParseError) as excinfo:
        ingest_curves(path)
    assert str(excinfo.value) == f"line 3: {path} changed while it was read"
    assert excinfo.value.line == 3


MUTATIONS = ["nan", "inf", "-inf", "1e999", "", " ", "x", "1_0", '"2.5"', "1e308", '"1\n5"',
             "\x00", " ", "٣", "1.5\x1c", "\x85", "　"]


def _mutated_file(rng: random.Random) -> bytes:
    """A small curve file with a few random defects of cells, rows, labels or bytes."""
    m = rng.randint(2, 5)
    points = sorted(rng.sample(range(1, 101), m))
    rows = [["label"] + [str(p / 100) for p in points]] + _rows(rng, m, rng.randint(2, 6))
    for _ in range(rng.randint(0, 3)):
        row = rng.choice([row for row in rows if row])
        kind = rng.randrange(6)
        if kind == 0:
            row[rng.randrange(len(row))] = rng.choice(MUTATIONS)
        elif kind == 1:
            row.pop(rng.randrange(len(row)))
        elif kind == 2:
            row.append("0.5")
        elif kind == 3:
            rows.insert(rng.randrange(len(rows) + 1), [])
        elif kind == 4:
            row[0] = rng.choice(["d", " H ", "X", "label", "", "D\x00"])
        else:
            rows[0][1:] = rows[0][:0:-1]
    data = "".join(",".join(row) + rng.choice(["\n", "\r\n", "\r"]) for row in rows).encode()
    if rng.random() < 0.15:
        k = rng.randrange(len(data) + 1)
        data = data[:k] + rng.choice([b"\xff", b"\xc3", b"\xe2\x82", b"\x80"]) + data[k:]
    return data


@pytest.mark.parametrize("seed", range(4))
def test_mutated_files_parse_or_raise_only_curve_parse_errors(tmp_path, seed):
    rng = random.Random(seed)
    outcomes = set()
    for _ in range(60):
        path = _write(tmp_path, _mutated_file(rng))
        try:
            d, h = ingest_curves(path)
        except CurveParseError as exc:
            assert exc.line is None or exc.line >= 1
            outcomes.add("rejected")
        else:
            assert d.values.shape[1] == h.values.shape[1] == len(d.grid)
            outcomes.add("accepted")
    assert outcomes == {"accepted", "rejected"}


@pytest.mark.parametrize("seed", range(3))
def test_written_repr_floats_read_back_bit_for_bit_in_any_row_order(tmp_path, seed):
    rng = np.random.default_rng(seed)
    m, n = 7, 40
    points = np.sort(rng.uniform(0.0, 1.0, m))
    values = rng.standard_normal((n, m)) * 10.0 ** rng.integers(-300, 300, (n, m))
    values[0, :3] = [-0.0, 5e-324, 1.7976931348623157e308]
    labels = np.array(["D", "H"] * (n // 2))
    order = rng.permutation(n)
    lines = ["label," + ",".join(map(repr, points.tolist()))]
    lines += [labels[i] + "," + ",".join(map(repr, values[i].tolist())) for i in order]
    path = tmp_path / "curves.csv"
    path.write_text("\n".join(lines) + "\n", encoding="utf-8")
    d, h = ingest_curves(path)
    assert d.grid.points.tobytes() == points.tobytes()
    for sample, label in ((d, "D"), (h, "H")):
        rows = [i for i in order if labels[i] == label]
        assert sample.values.tobytes() == values[rows].tobytes()


def _outcome(path):
    """The grid and arrays ``ingest_curves`` returns, or its error message and line."""
    try:
        d, h = ingest_curves(path)
    except CurveParseError as exc:
        return str(exc), exc.line
    return (d.grid.points.tobytes(), d.values.shape, d.values.tobytes(),
            h.values.shape, h.values.tobytes())


def _row_parsers_outcome(monkeypatch, path):
    """``_outcome`` with the bulk pass refusing every chunk, which leaves the csv row
    parser alone (the header is always read by csv), and the helper process unused."""
    with monkeypatch.context() as patch:
        patch.setattr(_helper, "_use_helper", lambda reps: False)
        patch.setattr(harness, "_read_bulk", lambda lines, m, groups: False)
        return _outcome(path)


class _Routes:
    """Patches the per-chunk bulk pass to count its results, or to refuse every chunk.

    The helper process would parse the upper half of a large file with a bulk pass
    of its own, which the counts cannot see, so every file is read serially.
    """

    def __init__(self, monkeypatch):
        self.monkeypatch = monkeypatch
        self.bulk = self.refused = 0
        monkeypatch.setattr(_helper, "_use_helper", lambda reps: False)

    def _counting(self, lines, m, groups):
        accepted = _read_bulk(lines, m, groups)
        if accepted:
            self.bulk += 1
        else:
            self.refused += 1
        return accepted

    def both(self, path):
        """(``ingest_curves``'s outcome, the row parser's outcome) on one file."""
        with self.monkeypatch.context() as patch:
            patch.setattr(harness, "_read_bulk", self._counting)
            got = _outcome(path)
        return got, _row_parsers_outcome(self.monkeypatch, path)


@pytest.mark.parametrize("seed", range(4))
def test_mutated_files_give_the_row_parsers_arrays_or_error(tmp_path, monkeypatch, seed):
    rng = random.Random(123 + seed)
    routes = _Routes(monkeypatch)
    for _ in range(500):
        data = _mutated_file(rng)
        got, expected = routes.both(_write(tmp_path, data))
        assert got == expected, data
    # both routes are exercised (files that end at the header reach neither count)
    assert routes.bulk > 50 and routes.refused > 50


def _big_rows(rng):
    """A header and rows of repr floats that span several bulk chunks."""
    return [["label"] + [str(p / 10) for p in range(1, 9)]] + _rows(rng, 8, 2_000)


def _encode(rows, line_ending):
    return "".join(",".join(row) + line_ending for row in rows).encode("utf-8")


def _defect(rows, rng, kind, early):
    """``rows`` with a defect of ``kind`` in one of the last 100, or if ``early`` the first
    100, data rows: those the helper process reads, or those the caller does."""
    row = rows[rng.randrange(1, 101) if early else rng.randrange(len(rows) - 100, len(rows))]
    if kind == "bad-cell":
        row[3] = "x"
    elif kind == "non-finite-cell":
        row[3] = "-inf"
    elif kind == "ragged-row":
        row.pop()
    elif kind == "unknown-label":
        row[0] = "X"
    elif kind == "quoted-cell":
        row[3] = '"' + row[3] + '"'
    elif kind == "quoted-label":
        row[0] = '"' + row[0] + '"'
    elif kind == "field-over-the-csv-limit":
        row[3] = "4" * 200_000
    elif kind == "line-over-the-csv-limit":  # every field under the limit, the line over it
        row[1:] = [" " * 20_000 + cell for cell in row[1:]]
    elif kind == "blank-lines":
        rows.insert(rows.index(row), [])
    elif kind == "space-only-line":  # csv reads a one-cell row, not a blank one
        rows.insert(rows.index(row), [" "])
    elif kind == "underscore-digits":
        row[3] = "1_5"
    return rows


DEFECTS = ["clean", "bad-cell", "non-finite-cell", "ragged-row", "unknown-label", "quoted-cell",
           "quoted-label", "field-over-the-csv-limit", "line-over-the-csv-limit", "blank-lines",
           "space-only-line", "underscore-digits", "invalid-utf8"]


@functools.lru_cache(maxsize=2)
def _seeded_rows(seed):
    """``_big_rows`` of a generator seeded with ``seed``, and the generator's state after."""
    rng = random.Random(seed)
    return _big_rows(rng), rng.getstate()


def _defective_file(kind, line_ending, early=False):
    """``_big_rows`` with a defect of ``kind`` (``_defect``), or an invalid byte near the
    start or the end of the file, as bytes.  Early defects share their rows per line ending."""
    rows, state = _seeded_rows(f"early{line_ending}" if early else f"{kind}{line_ending}")
    rng = random.Random()
    rng.setstate(state)
    data = _encode(_defect([row[:] for row in rows], rng, kind, early), line_ending)
    if kind == "invalid-utf8":
        k = rng.randrange(1_000, 6_000) if early else rng.randrange(len(data) - 5_000, len(data))
        data = data[:k] + b"\xff" + data[k:]
    return data


# The helper route: with a booted helper, the caller reads the lower half of a large
# file's data lines and the helper the upper half, unless either refuses a chunk.

@pytest.fixture(scope="module")
def real_helper():
    """One helper process for the helper-route tests of this module, killed at the end."""
    yield
    _helper._stop()


@pytest.fixture
def helper_route(real_helper, monkeypatch):
    """Every file may use the helper, which has booted (a new one if a test killed it),
    as if the process had read a large file before.  Returns the list of the replies the
    caller receives: "accepted" with the upper half's values, "refused", or "lost" when
    the helper ended without a reply."""
    monkeypatch.setattr(_helper, "_use_helper", lambda reps: True)
    monkeypatch.setattr(harness, "_large_ingested", True)
    _helper._start()
    deadline = time.monotonic() + 60
    while not _helper._helper.poll():
        assert _helper._helper.ready is False and time.monotonic() < deadline, "no helper booted"
        time.sleep(0.01)
    replies, receive = [], _helper._Helper.receive

    def recording(self):
        reply = receive(self)
        replies.append("lost" if reply is None else "accepted" if reply else "refused")
        return reply

    monkeypatch.setattr(_helper._Helper, "receive", recording)
    return replies


@pytest.mark.parametrize("line_ending", ["\n", "\r\n", "\r"])
@pytest.mark.parametrize("kind", DEFECTS)
def test_defect_past_the_first_bulk_chunk_gives_the_row_parsers_outcome(
        tmp_path, monkeypatch, helper_route, kind, line_ending):
    data = _defective_file(kind, line_ending)
    assert len(data) > 3 * harness._BULK_CHUNK
    routes = _Routes(monkeypatch)
    path = _write(tmp_path, data)
    got, expected = routes.both(path)
    assert got == expected
    # the row parser reads on from the first refused chunk, so no second one is refused
    clean = kind in ("clean", "blank-lines")
    assert routes.refused == (0 if clean else 1)
    # on the helper route, the helper reads the defect and refuses; the caller reads on
    monkeypatch.setattr(_helper, "_use_helper", lambda reps: True)
    assert _outcome(path) == expected
    # no line of a file with "\r" line endings ends in a newline, so no split is found
    assert helper_route == ([] if line_ending == "\r" else ["accepted" if clean else "refused"])


# a file with "\r" line endings, read by the caller alone, is in the test above
@pytest.mark.parametrize("line_ending", ["\n", "\r\n"])
@pytest.mark.parametrize("kind", DEFECTS[1:])
def test_defect_in_the_callers_half_gives_the_row_parsers_outcome(
        tmp_path, monkeypatch, helper_route, kind, line_ending):
    path = _write(tmp_path, _defective_file(kind, line_ending, early=True))
    expected = _row_parsers_outcome(monkeypatch, path)
    assert _outcome(path) == expected
    # the helper accepts the clean upper half, and the reply is dropped where the caller's
    # row parser read to the end
    assert helper_route == ["accepted"]


def test_file_whose_only_quote_is_in_a_label_gives_the_row_parsers_arrays(tmp_path, monkeypatch):
    data = HEADER.encode() + b'\n"D",1,2\nH,3,4\n'
    got, expected = _Routes(monkeypatch).both(_write(tmp_path, data))
    assert got == expected
    assert got[2] == np.array([[1.0, 2.0]]).tobytes()


@pytest.fixture
def serial(monkeypatch):
    """Every file is read by the caller alone, whatever BLAS pinning allows."""
    monkeypatch.setattr(_helper, "_use_helper", lambda reps: False)


def test_clean_repr_float_file_never_reaches_the_row_parser(tmp_path, monkeypatch, serial):
    def refuse(*args):
        raise AssertionError("the row parser ran on a clean file")

    monkeypatch.setattr(harness, "_parse_rows", refuse)
    rng = random.Random(7)
    rows = _big_rows(rng)
    d, h = ingest_curves(_write(tmp_path, _encode(rows, "\n")))
    assert len(d.values) + len(h.values) == len(rows) - 1


def test_file_refused_in_its_last_chunk_is_parsed_once(tmp_path, monkeypatch, serial):
    rows = _big_rows(random.Random(11))
    rows[-1][3] = "1_5"  # float reads it, loadtxt does not
    text = _encode(rows, "\n").decode("utf-8")
    handle = io.StringIO(text, newline="")
    handle.readline()
    chunks = list(iter(lambda: handle.readlines(harness._BULK_CHUNK), []))
    assert len(chunks) > 3
    parsed = []

    def counting(cells, line):
        parsed.append(line)
        return _parse_cells(cells, line)

    monkeypatch.setattr(harness, "_parse_cells", counting)
    d, h = ingest_curves(_write(tmp_path, text.encode("utf-8")))
    assert len(d.values) + len(h.values) == len(rows) - 1
    first = len(rows) - len(chunks[-1]) + 1
    # the header (line 1) once, then each line of the refused chunk once
    assert parsed == [1] + list(range(first, len(rows) + 1))


@pytest.mark.parametrize("data, expected", [
    (ACCEPTED["quoted-padded-and-underscore-cells"][0],
     ACCEPTED["quoted-padded-and-underscore-cells"][1]),
    (HEADER.encode() + b"\nD,1_000,2\nH,3,4_5.0\n", ([[1000.0, 2.0]], [[3.0, 45.0]])),
])
def test_quoted_or_underscore_file_parses_through_the_row_parser(
        tmp_path, monkeypatch, data, expected):
    calls = []

    def counting(*args):
        calls.append(args)
        return _parse_rows(*args)

    monkeypatch.setattr(harness, "_parse_rows", counting)
    d, h = ingest_curves(_write(tmp_path, data))
    assert len(calls) == 1
    assert d.values.tobytes() == np.array(expected[0]).tobytes()
    assert h.values.tobytes() == np.array(expected[1]).tobytes()


def test_a_file_replaced_before_the_helper_opens_it_is_read_by_the_caller(
        tmp_path, monkeypatch, helper_route):
    path = _write(tmp_path, _defective_file("clean", "\n"))
    expected = _row_parsers_outcome(monkeypatch, path)
    identity = _helper._identity

    def replacing(status):  # after the caller's fstat, before the request is sent
        other = tmp_path / "other.csv"  # other values, every newline where it was
        other.write_bytes(path.read_bytes().replace(b"5", b"6"))
        other.replace(path)
        return identity(status)

    monkeypatch.setattr(_helper, "_identity", replacing)
    assert _outcome(path) == expected
    assert helper_route == ["refused"]


def test_a_refusal_in_the_callers_half_leaves_the_helper_in_step(
        tmp_path, monkeypatch, helper_route):
    bad = _write(tmp_path, _defective_file("bad-cell", "\n", early=True))
    with pytest.raises(CurveParseError, match="not a number: 'x'"):
        ingest_curves(bad)
    good = tmp_path / "good.csv"
    good.write_bytes(_defective_file("clean", "\r\n"))
    expected = _row_parsers_outcome(monkeypatch, good)
    assert _outcome(good) == expected
    assert helper_route == ["accepted", "accepted"]  # the first reply was dropped


def test_the_helper_applies_the_callers_csv_field_size_limit(tmp_path, monkeypatch,
                                                             helper_route):
    rows = _big_rows(random.Random(3))
    rows[-10][3] = "1." + "0" * 1_500  # a number under the default limit, over the lowered one
    path = _write(tmp_path, _encode(rows, "\n"))
    limit = csv.field_size_limit(1_000)
    try:
        expected = _row_parsers_outcome(monkeypatch, path)
        line = len(rows) - 9
        assert expected == (f"line {line}: malformed CSV: field larger than field limit (1000)",
                            line)
        assert _outcome(path) == expected
    finally:
        csv.field_size_limit(limit)
    assert helper_route == ["refused"]


def test_a_refusal_in_the_callers_last_chunk_drops_the_reply(tmp_path, monkeypatch,
                                                             helper_route):
    data = bytearray(_defective_file("clean", "\n"))
    start = data.index(b"\n") + 1
    split = data.index(b"\n", (start + len(data)) // 2) + 1  # as the caller picks it
    # an underscore in a number of the caller's last line: float reads it, loadtxt does not
    digits = re.compile(rb"\d(\d)\d").search(data, data.rindex(b"\n", 0, split - 1))
    assert digits.end() < split
    data[digits.start(1)] = ord("_")
    path = _write(tmp_path, bytes(data))
    expected = _row_parsers_outcome(monkeypatch, path)
    assert _outcome(path) == expected
    assert helper_route == ["accepted"]


def test_a_process_starts_the_helper_at_its_second_large_file_and_uses_it_once_booted(
        tmp_path, monkeypatch, helper_route):
    path = _write(tmp_path, _defective_file("clean", "\n"))
    expected = _row_parsers_outcome(monkeypatch, path)
    _helper._stop()
    monkeypatch.setattr(harness, "_large_ingested", False)
    assert _outcome(path) == expected
    assert _helper._helper is None and harness._large_ingested
    # the second starts the helper, which has not booted when the ingest begins
    assert _outcome(path) == expected
    assert _helper._helper is not None and _helper._helper.ready is False
    assert helper_route == []
    deadline = time.monotonic() + 60
    while not _helper._helper.poll():
        assert _helper._helper.ready is False and time.monotonic() < deadline, "no helper booted"
        time.sleep(0.01)
    helper_route.clear()  # the boot's reply
    assert _outcome(path) == expected
    assert helper_route == ["accepted"]


def test_the_split_is_chosen_before_the_first_chunk_or_not_at_all(
        tmp_path, monkeypatch, helper_route):
    path = _write(tmp_path, _defective_file("clean", "\n"))
    expected = _row_parsers_outcome(monkeypatch, path)
    polls = []

    def booting(self):  # the helper boots once the caller has read a chunk
        polls.append(len(chunks))
        return bool(chunks)

    chunks = []

    def counting(lines, m, groups):
        chunks.append(len(lines))
        return _read_bulk(lines, m, groups)

    monkeypatch.setattr(_helper._Helper, "poll", booting)
    monkeypatch.setattr(harness, "_read_bulk", counting)
    assert _outcome(path) == expected
    assert polls == [0] and helper_route == []


# last, so that no other test waits for a new helper to boot
def test_a_helper_killed_mid_parse_leaves_the_caller_to_read_on(
        tmp_path, monkeypatch, helper_route):
    rows = _big_rows(random.Random(9))
    # the helper's reply, about 256 KB, outgrows the pipe, so it is never whole before the
    # caller reads it, however early the helper ends its parse
    path = _write(tmp_path, _encode(rows + rows[1:] * 3, "\n"))
    expected = _row_parsers_outcome(monkeypatch, path)

    chunks = []

    def killing(lines, m, groups):  # the request is sent before the caller's first chunk
        if not chunks:
            os.kill(_helper._helper.pid, signal.SIGKILL)
        chunks.append(len(lines))
        return _read_bulk(lines, m, groups)

    monkeypatch.setattr(harness, "_read_bulk", killing)
    assert _outcome(path) == expected
    assert helper_route == ["lost"] and _helper._helper.ready is None
    assert len(chunks) > 12  # the caller's half, then the helper's read serially


def test_a_helper_that_cannot_be_spawned_leaves_the_file_to_the_caller(tmp_path, monkeypatch):
    path = _write(tmp_path, _defective_file("clean", "\r\n"))
    expected = _row_parsers_outcome(monkeypatch, path)
    _helper._stop()
    monkeypatch.setattr(_helper, "_use_helper", lambda reps: True)
    monkeypatch.setattr(harness, "_large_ingested", True)

    def refuse(*args, **kwargs):
        raise BlockingIOError(11, "Resource temporarily unavailable")  # e.g. RLIMIT_NPROC

    monkeypatch.setattr(os, "posix_spawn", refuse)
    assert _outcome(path) == expected
    assert _helper._helper is None
