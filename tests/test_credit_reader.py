"""Differential test of the portfolio CSV reader against the DictReader
oracle: on seeded, generated CSVs full of wire-format corner cases, both
return equal obligors or raise a ValueError with the same message."""

import copy
import csv
import io
import pathlib
import pickle
import random
import tracemalloc
from collections.abc import Sequence

import pytest

from betakotz import credit
from betakotz.credit import (
    Obligor, Portfolio, loss_rates, period_report, read_portfolio_csv)
from csv_oracle import read_portfolio_csv as oracle_read_portfolio_csv

FIXTURE = pathlib.Path(__file__).resolve().parent.parent / "fixtures" / "portfolio_synthetic.csv"

CASES = 300

REQUIRED = ("id", "rating", "segment", "ead", "guarantee", "days_past_due")
OPTIONAL = ("pd_override", "lgd_override")
RATINGS = ("AA", "A", "BB", "B", "CC", "Default")
SEGMENTS = ("Automobiles", "Other", "CreditCard", "CFCAutomobiles", "CFCOther")
GUARANTEES = (
    "AdmissibleFinancialCollateral", "CommercialResidentialRealEstate",
    "RealEstateLeasing", "OtherLeasing", "Receivables", "OtherAdmissible",
    "NonAdmissible", "NoGuarantee",
)

# Per column: cells every version of the reader accepts, and cells that
# fail a check (a parse, a range, or Obligor's own invariants).
GOOD = {
    "id": ("OBL-1", " padded ", "with, comma", 'say "hi"', ""),
    "ead": ("1000", " 2.5e3 ", "0", "-0", "1_000", "12.75"),
    "days_past_due": ("", "0", " 45 ", "+7", "900", " "),
    "pd_override": ("", "0.25", " 0.3 ", "1", "0", " "),
    "lgd_override": ("", "0.5", "1.0", " 0.05", "0"),
}
BAD = {
    "rating": ("AAA", "", "Gold", "A A"),
    "segment": ("Nowhere", "", "Credit Card"),
    "guarantee": (" Gold ", "", "None"),
    "ead": ("nan", "inf", "-inf", "-5", "abc", "", "1e400", "1,5"),
    "days_past_due": ("-3", "1.5", "x", "ten"),
    "pd_override": ("nan", "1.5", "-0.1", "bad", "inf"),
    "lgd_override": ("nan", "2", "-1e-9", "?"),
}


def _quote_free(cells):
    return {column: tuple(c for c in texts if "," not in c and '"' not in c)
            for column, texts in cells.items()}


# The cells of GOOD and BAD that csv.writer writes without quotes.
QUOTE_FREE_GOOD, QUOTE_FREE_BAD = _quote_free(GOOD), _quote_free(BAD)


def _spelling(rng, value):
    """A case-mangled, sometimes padded spelling of an enum value."""
    text = "".join(c.upper() if rng.random() < 0.3 else c.lower()
                   if rng.random() < 0.3 else c for c in value)
    return rng.choice(("", " ", "  ")) + text + rng.choice(("", " "))


def _good_cell(rng, column, good=GOOD):
    if column == "rating":
        return _spelling(rng, rng.choice(RATINGS))
    if column == "segment":
        return _spelling(rng, rng.choice(SEGMENTS))
    if column == "guarantee":
        return _spelling(rng, rng.choice(GUARANTEES))
    return rng.choice(good[column])


def _header_name(rng, name):
    if rng.random() < 0.3:
        name = name.upper() if rng.random() < 0.5 else name.title()
    if rng.random() < 0.3:
        name = rng.choice((" ", "  ")) + name + rng.choice(("", " "))
    return name


def generate_csv(rng, quote_free=False, plant=None):
    """One portfolio CSV as text, drawn from the wire format's corners;
    with `quote_free`, of cells that need no quotes, each line ended by
    "\\n".  With a `plant`, the file's one fault is that one: "missing
    columns", "no obligor rows", or a (column, bad cell) pair set in one
    row."""
    good, bad = (QUOTE_FREE_GOOD, QUOTE_FREE_BAD) if quote_free else (GOOD, BAD)
    extra = ["extra", "more"] if quote_free else ["extra", "cells, quoted"]
    columns = list(REQUIRED) + [c for c in OPTIONAL if rng.random() < 0.6]
    if plant == "missing columns" or not plant and rng.random() < 0.05:
        columns.remove(rng.choice(REQUIRED))
    if isinstance(plant, tuple) and plant[0] not in columns:
        columns.append(plant[0])
    rng.shuffle(columns)
    if rng.random() < 0.25:
        # a duplicate normalized name: the last column of that name wins
        columns.insert(rng.randrange(len(columns) + 1), rng.choice(columns))
    header = [_header_name(rng, c) for c in columns]
    lines = [header]
    fault_rate = rng.choice((0.0, 0.0, 0.02, 0.05))
    count = rng.choice((0, 1, 2, 3, 4, 6, 8, 12))
    planted_row = None
    if plant == "no obligor rows":
        count = 0
    elif isinstance(plant, tuple):
        count = max(count, 1)
        planted_row = rng.randrange(count)
        # the last column of the planted name is the one read
        planted_cell = len(columns) - 1 - columns[::-1].index(plant[0])
    for row_index in range(count):
        row = [_good_cell(rng, c, good) for c in columns]
        if row_index == planted_row:
            row[planted_cell] = plant[1]
        elif not plant:
            faults = 2 if rng.random() < 0.05 else int(rng.random() < 8 * fault_rate)
            for _ in range(faults):
                k = rng.randrange(len(columns))
                if columns[k] in bad:
                    row[k] = rng.choice(bad[columns[k]])
            shape = rng.random()
            if shape < 0.04:
                row = row[:rng.randrange(len(row))]  # short row
            elif shape < 0.14:
                row += extra[:rng.randint(1, 2)]
        while rng.random() < 0.15:
            lines.append([])  # blank line
        lines.append(row)
    if rng.random() < 0.1:
        lines.append([])
    if quote_free:
        return "".join(",".join(line) + "\n" for line in lines)
    out = io.StringIO()
    writer = csv.writer(out, lineterminator=rng.choice(("\n", "\r\n")))
    for line in lines:
        if line:
            writer.writerow(line)
        else:
            out.write("\n")
    return out.getvalue()


def generate_corpus(rng, quote_free=False):
    """CASES files of generate_csv: random ones, then one for each fault
    planted once (each bad cell, a missing column and no obligor rows),
    so that the corpus fails every check whatever the seed."""
    bad = QUOTE_FREE_BAD if quote_free else BAD
    plants = ["missing columns", "no obligor rows",
              *((column, text) for column, texts in bad.items() for text in texts)]
    return ([generate_csv(rng, quote_free) for _ in range(CASES - len(plants))]
            + [generate_csv(rng, quote_free, plant) for plant in plants])


# A fragment of each error message the reader can give.
CHECKS = (
    "missing columns", "no obligor rows",
    "column 'days_past_due': not an integer",
    "column 'pd_override': not a number", "column 'pd_override': -0.1 outside",
    "column 'lgd_override': not a number", "column 'lgd_override': 2.0 outside",
    "column 'rating': unknown value", "column 'segment': unknown value",
    "column 'guarantee': unknown value",
    "column 'ead': not a number", "column 'ead': -5.0 outside [0.0, inf]",
    "ead must be >= 0, got nan", "ead must be >= 0, got inf",
    "days_past_due must be >= 0, got -3",
    "pd_override must lie in [0, 1], got nan",
    "lgd_override must lie in [0, 1], got nan",
)


def outcome(reader, path):
    try:
        return reader(path)
    except ValueError as err:
        return f"ValueError: {err}"


def assert_matches_oracle(path, texts):
    """Each of `texts`, written to `path`, reads the same through the reader
    and the oracle, an accepted text without the row route, and the texts
    exercise both outcomes and every check."""
    accepted = 0
    messages = []
    row_route = []
    row_obligors = credit._row_obligors
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(credit, "_row_obligors",
                      lambda *args: row_route.append(1) or row_obligors(*args))
        for case, text in enumerate(texts):
            path.write_text(text, encoding="utf-8", newline="")
            expected = outcome(oracle_read_portfolio_csv, path)
            row_route.clear()
            assert outcome(read_portfolio_csv, path) == expected, (case, text)
            if isinstance(expected, str):
                messages.append(expected)
            else:
                accepted += 1
                assert row_route == [], (case, text)
    # The generator must exercise both outcomes and every check.
    assert accepted >= CASES // 4 and len(messages) >= CASES // 4
    missed = [c for c in CHECKS if not any(c in m for m in messages)]
    assert missed == []


def test_reader_matches_dictreader_oracle(tmp_path):
    rng = random.Random(20261018)
    assert_matches_oracle(tmp_path / "p.csv", generate_corpus(rng))


# Line ends of a quote-free file: each "\n" as it stands, each "\r\n",
# and no line end after the last line.
LINE_ENDS = {
    "lf": lambda text: text,
    "crlf": lambda text: text.replace("\n", "\r\n"),
    "no-final-newline": lambda text: text.removesuffix("\n"),
}


@pytest.mark.parametrize("line_ends", LINE_ENDS)
def test_quote_free_reader_matches_dictreader_oracle(tmp_path, line_ends):
    # Files without a quote are split with str.split where csv.reader
    # would read them the same, so they get a corpus of their own.
    rng = random.Random(20261021)
    texts = [LINE_ENDS[line_ends](text)
             for text in generate_corpus(rng, quote_free=True)]
    assert not any('"' in text for text in texts)
    assert_matches_oracle(tmp_path / "p.csv", texts)


def test_reader_matches_oracle_on_fixture():
    assert read_portfolio_csv(FIXTURE) == oracle_read_portfolio_csv(FIXTURE)


@pytest.mark.parametrize("text", [
    "",
    "\n",
    "id,rating\n",
    "id,rating,segment,ead,guarantee,days_past_due\n",
    "id,rating,segment,ead,guarantee,days_past_due\n\n\n",
    "id,rating,segment,ead,guarantee,days_past_due\n\na,AA,Other,1,NoGuarantee,0\n"
    "\nb,AA,Other,-1,NoGuarantee,0\n",
    "id,rating,segment,ead,guarantee,days_past_due\n  \n",
    "id,rating,segment,ead,guarantee,days_past_due\n\"\"\n",
    "id,rating,segment,ead,guarantee,days_past_due\n,AA,Other,inf,NoGuarantee,0\n",
    # int() refuses the separators \x1c-\x1f that str.strip() removes,
    # and whitespace-only cells of every kind read as blank.
    "id,rating,segment,ead,guarantee,days_past_due\na,AA,Other,1,NoGuarantee,\x1c45\x1f\n",
    "id,rating,segment,ead,guarantee,days_past_due,pd_override,lgd_override\n"
    "a,AA,Other,1,NoGuarantee,\x1d,\x1e,\u3000\n",
    "id,rating,segment,ead,guarantee,days_past_due,pd_override,lgd_override\n"
    "a,AA,Other,1,NoGuarantee,\t 7\x1c, \x1c0.25 , \xa0\n",
    "id,rating,segment,ead,guarantee,days_past_due\na,AA,Other,1,NoGuarantee, \x1cx \n",
    "id,rating,segment,ead,guarantee,days_past_due,pd_override\n"
    "a,AA,Other,1,NoGuarantee,0,\x1f bad \n",
    "id,rating,segment,ead,guarantee,days_past_due,lgd_override\n"
    "a,AA,Other,1,NoGuarantee,0, 1.5\x1c\n",
    # a quoted header name that spans lines, within the first block and
    # past it, and lone "\r" line ends
    'id,rating,segment,ead,guarantee,days_past_due,"note\non two lines"\n'
    "a,AA,Other,1,NoGuarantee,0,x\nb,B,Other,2,NoGuarantee,0,y\n",
    pytest.param(
        'id,rating,segment,ead,guarantee,days_past_due,"' + "note\n" * 3000 + '"\n'
        "a,AA,Other,1,NoGuarantee,0,x\nb,B,Other,2,NoGuarantee,0,y\n",
        id="header-name-past-the-first-block"),
    "id,rating,segment,ead,guarantee,days_past_due\ra,AA,Other,1,NoGuarantee,0\r"
    "\rb,B,Other,2,NoGuarantee,0\r",
    # finite EADs whose sum overflows
    "id,rating,segment,ead,guarantee,days_past_due\na,AA,Other,1e308,NoGuarantee,0\n"
    "b,B,Other,1e308,NoGuarantee,5\n",
    # every header name quoted, as R's write.csv writes them, over a plain
    # body; a blank line right after the header; a first block of only
    # "\r\n" blank lines
    '"id","rating","segment","ead","guarantee","days_past_due"\n'
    "a,AA,Other,1,NoGuarantee,0\nb,B,Other,2,NoGuarantee,0\n",
    "id,rating,segment,ead,guarantee,days_past_due\n\na,AA,Other,1,NoGuarantee,0\n"
    "b,B,Other,2,NoGuarantee,0\n",
    pytest.param(
        "id,rating,segment,ead,guarantee,days_past_due\r\n"
        + "\r\n" * credit._BLOCK_CHARS
        + "a,AA,Other,1,NoGuarantee,0\r\nb,B,Other,2,NoGuarantee,0\r\n",
        id="blank-first-block"),
])
def test_reader_matches_oracle_on_edge_files(tmp_path, text):
    path = tmp_path / "p.csv"
    path.write_text(text, encoding="utf-8", newline="")
    assert outcome(read_portfolio_csv, path) == outcome(oracle_read_portfolio_csv, path)


# ---------------------------------------------------------------------------
# chunked reading: files several chunks long
# ---------------------------------------------------------------------------

CHUNK = credit._CHUNK_ROWS
COLUMNS = REQUIRED + OPTIONAL
ROWS = 4 * CHUNK + CHUNK // 3
THIRD = 2 * CHUNK + CHUNK // 4  # a row of the third chunk

# Blocks of 8,192 characters, the reader's size before it read 32 K at a
# time: a file of ROWS rows spans several of them, and the tests that
# place their edits at block edges in such a file run at this size.
SMALL_BLOCK = 8192


def _plain_row(rng, k):
    """A row whose cells the column route takes as they stand."""
    row = [_good_cell(rng, c) for c in COLUMNS]
    row[0] = f"OBL-{k}"
    row[COLUMNS.index("days_past_due")] = rng.choice(("0", " 45 ", "+7", "900"))
    return row


def _write_rows(path, rows, blank_before=()):
    """Write the header and `rows`, with two blank lines before each row
    index in `blank_before`."""
    out = io.StringIO()
    writer = csv.writer(out, lineterminator="\n")
    writer.writerow(COLUMNS)
    for k, row in enumerate(rows):
        if k in blank_before:
            out.write("\n\n")
        writer.writerow(row)
    path.write_text(out.getvalue(), encoding="utf-8", newline="")


def _set(rows, k, column, text):
    rows[k][COLUMNS.index(column)] = text


def _chunked_rows(faults=()):
    """ROWS rows: four full chunks and a part one.  The first has a
    blank days_past_due, the second a short and a long row, and the
    fourth cells padded with \\x1c (an ead that float() refuses as it
    stands but strip() mends); the third and the last have none of
    these.  The column route converts all five.  `faults` are (row
    index, column, text) to set on top."""
    rng = random.Random(20261019)
    rows = [_plain_row(rng, k) for k in range(ROWS)]
    _set(rows, 3, "days_past_due", "")
    rows[CHUNK + 5] = rows[CHUNK + 5][:len(REQUIRED)]
    rows[CHUNK + 9] += ["extra", "cells, quoted"]
    _set(rows, 3 * CHUNK + 10, "days_past_due", "\x1c45")
    _set(rows, 3 * CHUNK + 11, "ead", "\x1c5")
    for k, column, text in faults:
        _set(rows, k, column, text)
    return rows


def outcome_or_csv_error(reader, path):
    try:
        return reader(path)
    except (ValueError, csv.Error) as err:
        return f"{type(err).__name__}: {err}"


# Each file has blank lines just before the second and the fourth chunk,
# which must not shift the chunks or the row numbers.  The expected
# outcome is the number of obligors, or the row number the error names.
# Each fault makes the column route refuse its chunk, and the row route
# then names the row.
@pytest.mark.parametrize("faults, expected", [
    ((), ROWS),
    # row numbers run on across chunks and blank lines
    (((4 * CHUNK + 20, "rating", "Gold"),), f"row {4 * CHUNK + 22},"),
    # the earlier of two faulty chunks wins, whichever route each takes
    (((THIRD + 9, "lgd_override", "2"), (3 * CHUNK + 1, "ead", "-5")),
     f"row {THIRD + 11},"),
    (((CHUNK + 7, "ead", "nan"), (2 * CHUNK + 3, "guarantee", "None")),
     f"row {CHUNK + 9}:"),
    # each check of the column route
    (((THIRD, "ead", "inf"),), f"row {THIRD + 2}:"),
    (((THIRD, "ead", "-1e-300"),), f"row {THIRD + 2},"),
    (((THIRD, "days_past_due", "-3"),), f"row {THIRD + 2}:"),
    (((THIRD, "pd_override", "nan"),), f"row {THIRD + 2}:"),
    (((THIRD, "segment", "Nowhere"),), f"row {THIRD + 2},"),
], ids=["accepted", "later-chunk", "two-chunks", "two-chunks-row-route",
        "ead-inf", "ead-negative", "days-negative", "pd-nan", "segment"])
def test_chunked_reader_matches_oracle(tmp_path, faults, expected):
    path = tmp_path / "p.csv"
    _write_rows(path, _chunked_rows(faults), blank_before=(CHUNK, 3 * CHUNK))
    got = outcome(read_portfolio_csv, path)
    assert got == outcome(oracle_read_portfolio_csv, path)
    if isinstance(expected, int):
        assert len(got) == expected
    else:
        assert got.startswith(f"ValueError: {expected}"), got


def test_valid_chunks_build_no_obligor_through_init(tmp_path, monkeypatch):
    # The column route converts every chunk of a valid file, blank days,
    # ragged rows and \x1c-padded numbers included, so no obligor is
    # built through Obligor.__init__.
    path = tmp_path / "p.csv"
    _write_rows(path, _chunked_rows(), blank_before=(CHUNK, 3 * CHUNK))
    calls = []
    init = credit.Obligor.__init__
    monkeypatch.setattr(credit.Obligor, "__init__",
                        lambda self, *args: calls.append(1) or init(self, *args))
    assert len(read_portfolio_csv(path)) == ROWS
    assert len(calls) == 0


def _quoted_header(text):
    # every header name quoted, as R's write.csv writes them
    head, body = text.split("\n", 1)
    return '"' + head.replace(",", '","') + '"\n' + body


# Spellings of a plain file: the line ends, a blank last line, a blank
# second line, a first block of only blank lines, and a quoted header.
PLAIN_SPELLINGS = {
    **{f"plain-{name}": edit for name, edit in LINE_ENDS.items()},
    "plain-blank-last-line": lambda text: text + "\n",
    "blank-second-line": lambda text: text.replace("\n", "\n\n", 1),
    "blank-first-block": lambda text: text.replace(
        "\n", "\n" * (credit._BLOCK_CHARS + 2), 1),
    "quoted-header": _quoted_header,
}


@pytest.mark.parametrize("source, readers", [
    ("plain-lf", 1), ("plain-crlf", 1), ("plain-no-final-newline", 1),
    ("plain-blank-last-line", 2), ("quoted-header", 1), ("blank-second-line", 2),
    ("blank-first-block", 2),
    ("quote-free-chunked", 2), ("chunked", 2)])
def test_quote_free_chunks_take_the_split_route(tmp_path, monkeypatch, source,
                                                readers):
    monkeypatch.setattr(credit, "_BLOCK_CHARS", SMALL_BLOCK)
    # csv.reader reads the header, and no block of a plain file, with
    # "\n" or "\r\n" line ends or none after the last line, or with a
    # quoted header.  A block that the split cannot read, as it holds a
    # blank line, a short or long row or a quote, hands itself and the
    # rest of the file to one more csv.reader, which yields its blank
    # lines too.  The chunked files' first block (about 139 lines, 8,192
    # characters and the rest of a line) holds the two blank lines before
    # row CHUNK and the short row, so the second csv.reader reads every
    # line after the header.
    path = tmp_path / "p.csv"
    if source.endswith("chunked"):
        rows = _chunked_rows()
        if source == "quote-free-chunked":
            rows[CHUNK + 9][-1] = "more"
        _write_rows(path, rows, blank_before=(CHUNK, 3 * CHUNK))
    else:
        rng = random.Random(11)
        _write_rows(path, [_plain_row(rng, k) for k in range(ROWS)])
        text = path.read_text(encoding="utf-8")
        path.write_text(PLAIN_SPELLINGS[source](text), encoding="utf-8", newline="")
    text = path.read_text(encoding="utf-8")
    assert ('"' in text) == (source in ("chunked", "quoted-header"))
    expected = oracle_read_portfolio_csv(path)
    lines_read = []  # the lines, blank ones included, that each csv.reader yields
    reader = csv.reader

    def counting_reader(*args):
        lines_read.append(0)
        for row in reader(*args):
            lines_read[-1] += 1
            yield row

    monkeypatch.setattr(credit.csv, "reader", counting_reader)
    assert read_portfolio_csv(path) == expected and len(expected) == ROWS
    assert len(lines_read) == readers and lines_read[0] == 1
    if source == "plain-blank-last-line":
        assert lines_read[1] == 3 + 1  # the last block's three rows, and the blank line
    elif source == "blank-second-line":
        assert lines_read[1] == ROWS + 1
    elif source == "blank-first-block":
        # the first block's SMALL_BLOCK + 1 blank lines
        assert lines_read[1] == ROWS + SMALL_BLOCK + 1
    elif source.endswith("chunked"):
        assert lines_read[1] == ROWS + 4  # and the four blank lines
    assert credit._BLOCK_CHARS == 8192  # the block edges the counts assume


def _quoted_newline(rows):
    # The id of the last line of the second chunk of lines holds a quoted
    # line break, so its field ends in the third chunk.
    _set(rows, 2 * CHUNK - 1, "id", "OBL\nsplit")
    return rows


def _blank_lines(path):
    # a chunk of lines that are all blank, and blank lines to the file's end
    lines = path.read_text(encoding="utf-8").splitlines(keepends=True)
    lines[CHUNK:CHUNK] = ["\n"] * (2 * CHUNK + 7)
    path.write_text("".join(lines) + "\r\n" * (CHUNK + 3), encoding="utf-8",
                    newline="")


def _line_ends(end):
    def rewrite(path):
        path.write_bytes(path.read_bytes().replace(b"\n", end))
    return rewrite


@pytest.mark.parametrize("edit_rows, edit_file", [
    (_quoted_newline, None),
    (None, _blank_lines),
    (None, _line_ends(b"\r")),
    (None, _line_ends(b"\r\r\n")),
    (lambda rows: _set(rows, CHUNK + 4, "id", "OBL\x00nul") or rows, None),
    (lambda rows: _set(rows, 3 * CHUNK, "segment", "Nowhere\x00") or rows, None),
], ids=["quote-spans-chunks", "blank-chunks", "lone-cr", "cr-crlf", "nul",
        "nul-fault"])
def test_chunk_edges_match_oracle(tmp_path, edit_rows, edit_file):
    # Chunks that the split leaves to csv.reader: a quote first seen in a
    # later chunk, a chunk of blank lines, a \r that is not part of a
    # "\r\n", a NUL.  Row numbers and chunks run on across them.
    rng = random.Random(23)
    rows = [_plain_row(rng, k) for k in range(ROWS)]
    path = tmp_path / "p.csv"
    _write_rows(path, edit_rows(rows) if edit_rows else rows)
    if edit_file:
        edit_file(path)
    got = outcome(read_portfolio_csv, path)
    assert got == outcome(oracle_read_portfolio_csv, path)
    if edit_rows and "Nowhere\x00" in rows[3 * CHUNK]:
        assert got.startswith(f"ValueError: row {3 * CHUNK + 2},"), got
    else:
        assert len(got) == ROWS


# ---------------------------------------------------------------------------
# block edges: the lines after the header are read in blocks of characters
# ---------------------------------------------------------------------------

BLOCK = credit._BLOCK_CHARS

# The layouts of a file's text: its line ends, and a byte-order mark.
LAYOUTS = {**LINE_ENDS, "bom": lambda text: "\ufeff" + text}


def _varied_rows(rng, count):
    """Plain rows whose ids vary in length and whose cells are not blank,
    so that block edges fall in every column."""
    rows = [_plain_row(rng, k) for k in range(count)]
    for row in rows:
        row[0] += "x" * rng.randrange(16)
        for column in OPTIONAL:
            row[COLUMNS.index(column)] = rng.choice(GOOD[column][1:])
    return rows


def _write_layout(tmp_path, text, layout):
    """`text` in `layout` as p.csv, and the same text without a
    byte-order mark (which the oracle does not skip) as plain.csv."""
    path, plain = tmp_path / "p.csv", tmp_path / "plain.csv"
    text = LAYOUTS[layout](text)
    path.write_text(text, encoding="utf-8", newline="")
    plain.write_text(text.removeprefix("\ufeff"), encoding="utf-8", newline="")
    return path, plain


def _edge_columns(data, block):
    """The column in which each block of `block` bytes of `data` after
    the first starts: the number of commas before it on its line."""
    return {data.count(b",", data.rfind(b"\n", 0, edge) + 1, edge)
            for edge in range(block, len(data), block)}


@pytest.mark.parametrize("layout", LAYOUTS)
def test_block_edges_in_every_column_match_oracle(tmp_path, layout):
    # Rows of varied length put the edges of the reader's blocks in
    # every column of a line, with "\n" or "\r\n" line ends, none after
    # the last line, or a byte-order mark.
    path = tmp_path / "rows.csv"
    _write_rows(path, _varied_rows(random.Random(29), 12000))
    path, plain = _write_layout(tmp_path, path.read_text(encoding="utf-8"), layout)
    assert _edge_columns(path.read_bytes(), BLOCK) == set(range(len(COLUMNS)))
    got = read_portfolio_csv(path)
    assert got == oracle_read_portfolio_csv(plain) and len(got) == 12000


def _small_file(variant):
    """A 14-row file, with blank lines, a quoted field that spans lines
    or a faulty row after the first few lines."""
    rows = _varied_rows(random.Random(31), 14)
    if variant == "quoted":
        _set(rows, 9, "id", 'OBL "q",\nnext line')
    elif variant == "fault":
        _set(rows, 11, "segment", "Nowhere")
    out = io.StringIO()
    writer = csv.writer(out, lineterminator="\n")
    writer.writerow(COLUMNS)
    for k, row in enumerate(rows):
        if variant in ("blank-lines", "fault") and k % 4 == 3:
            out.write("\n" * (k % 3 + 1))
        writer.writerow(row)
    return out.getvalue()


@pytest.mark.parametrize("variant", ["plain", "blank-lines", "quoted", "fault"])
@pytest.mark.parametrize("layout", LAYOUTS)
def test_every_block_size_matches_oracle(tmp_path, monkeypatch, variant, layout):
    # With blocks of 1 to 96 bytes, an edge falls at every byte of a small
    # file: inside a cell, between "\r" and "\n", among blank lines and
    # inside a quoted field; most lines are longer than a block, and some
    # blocks hold only blank lines.
    path, plain = _write_layout(tmp_path, _small_file(variant), layout)
    expected = outcome(oracle_read_portfolio_csv, plain)
    assert isinstance(expected, str) == (variant == "fault")
    for block in range(1, 97):
        monkeypatch.setattr(credit, "_BLOCK_CHARS", block)
        assert outcome(read_portfolio_csv, path) == expected, block


def _blank_block(end):
    def edit(text):
        # blank lines over three blocks, so that one block holds only them
        lines = text.splitlines(keepends=True)
        lines[300:300] = [end] * (3 * SMALL_BLOCK // len(end))
        return "".join(lines)
    return edit


def _quote_after_first_block(text):
    # the first quote is near the end of the file's second block, in a
    # field that spans lines, and a partial line follows it
    lines = text.splitlines(keepends=True)
    k = next(k for k in range(len(lines)) if len("".join(lines[:k])) > 2 * SMALL_BLOCK)
    lines[k - 3] = '"OBL ""q""\nsplit"' + lines[k - 3][lines[k - 3].index(","):]
    return "".join(lines)


@pytest.mark.parametrize("edit", [
    _blank_block("\n"),
    _blank_block("\r\n"),
    lambda text: text.replace("OBL-150,", "L" * (3 * SMALL_BLOCK + 5) + ","),
    lambda text: text.replace("OBL-150,", "L" * (3 * SMALL_BLOCK + 5) + ",", 1)
    .replace("Other", "Nowhere", 30),
    _quote_after_first_block,
], ids=["blank-block", "blank-block-crlf", "long-line", "long-line-fault",
        "quote-after-first-block"])
def test_block_edge_cases_match_oracle(tmp_path, monkeypatch, edit):
    monkeypatch.setattr(credit, "_BLOCK_CHARS", SMALL_BLOCK)
    rng = random.Random(37)
    path = tmp_path / "p.csv"
    _write_rows(path, [_plain_row(rng, k) for k in range(ROWS)])
    text = edit(path.read_text(encoding="utf-8"))
    assert text != path.read_text(encoding="utf-8")
    path.write_text(text, encoding="utf-8", newline="")
    got = outcome(read_portfolio_csv, path)
    assert got == outcome(oracle_read_portfolio_csv, path)
    assert isinstance(got, str) == ("Nowhere" in text)


def test_plain_file_at_the_shipped_block_size(tmp_path, monkeypatch):
    # A plain file several blocks long is split throughout at the
    # shipped size: one chunk per block of _BLOCK_CHARS characters and
    # the rest of the line they end in, and csv.reader reads only the
    # header.
    path = tmp_path / "p.csv"
    _write_rows(path, _varied_rows(random.Random(43), 3000))
    text = path.read_text(encoding="utf-8")
    body = text[text.index("\n") + 1:]
    blocks, start = 0, 0
    while start < len(body):
        blocks += 1
        start = body.find("\n", start + credit._BLOCK_CHARS - 1) + 1 or len(body)
    assert blocks >= 4
    expected = oracle_read_portfolio_csv(path)
    chunks, readers = [], []
    column_fields, reader = credit._column_fields, csv.reader
    monkeypatch.setattr(credit, "_column_fields",
                        lambda *args: chunks.append(1) or column_fields(*args))
    monkeypatch.setattr(credit.csv, "reader",
                        lambda *args: readers.append(1) or reader(*args))
    assert read_portfolio_csv(path) == expected
    assert len(chunks) == blocks and len(readers) == 1


# The ASCII characters that str.strip() removes and that a quote-free
# cell can hold (a "\n" or "\r" ends its line), and three non-ASCII ones.
ID_PADS = [*(c for c in map(chr, range(128)) if not c.strip() and c not in "\r\n"),
           "\x85", "\xa0", "\u3000"]


@pytest.mark.parametrize("pad", ID_PADS, ids=repr)
def test_ids_padded_in_one_block_are_stripped(tmp_path, monkeypatch, pad):
    # A quote-free month of canonical cells, split throughout, in which
    # a few ids of one block are padded with `pad` and nothing else in
    # the file is: every id is str.strip() of its cell.
    assert not pad.strip()
    ids = [f"OBL-{k}" for k in range(3000)]
    ids[1500:1504] = [pad + "OBL-a", "OBL-b" + pad, pad + "OBL-c" + pad, 2 * pad]
    path = tmp_path / "p.csv"
    path.write_text(",".join(COLUMNS) + "\n" + "".join(
        f"{id_text},BB,Other,1000.5,NoGuarantee,{k % 1000},,\n"
        for k, id_text in enumerate(ids)), encoding="utf-8", newline="")
    assert path.stat().st_size > 3 * BLOCK
    readers, reader = [], csv.reader
    monkeypatch.setattr(credit.csv, "reader",
                        lambda *args: readers.append(1) or reader(*args))
    assert [o.id for o in read_portfolio_csv(path)] == [text.strip() for text in ids]
    assert len(readers) == 1  # the header's


# Day spellings that the table of canonical counts "0" ... "999" misses,
# and that int() reads: leading zeros, padding, a sign, an underscore,
# Unicode digits, blanks and counts of 1,000 and more.
OFF_TABLE_DAYS = ("007", " 5", "+5", "1_000", "\u0665", "\uff17\uff12", "", " ",
                  "-0", "1000", "2500")


def test_day_table_holds_the_canonical_spellings_below_1000():
    assert list(credit._DAY_BY_TEXT) == list(map(str, range(1000)))
    for text, day in credit._DAY_BY_TEXT.items():
        assert int(text) == day


def _day_rows(rng, count, every):
    """`count` plain rows with canonical days, and an off-table spelling
    in every `every`-th row."""
    rows = _varied_rows(rng, count)
    for k, row in enumerate(rows):
        row[COLUMNS.index("days_past_due")] = (
            OFF_TABLE_DAYS[k // every % len(OFF_TABLE_DAYS)] if k % every == every - 1
            else str(rng.randrange(1000)))
    return rows


@pytest.mark.parametrize("fault", [None, "-3"])
def test_off_table_days_at_every_block_edge_match_oracle(tmp_path, monkeypatch, fault):
    # Each off-table spelling among canonical days, with blocks of 1 to
    # 96 bytes, so that an edge falls at every byte of the file; with a
    # negative day, the row it is in is named.
    rows = _day_rows(random.Random(47), 2 * len(OFF_TABLE_DAYS), 2)
    if fault:
        _set(rows, 15, "days_past_due", fault)
    path = tmp_path / "p.csv"
    _write_rows(path, rows)
    expected = outcome(oracle_read_portfolio_csv, path)
    assert isinstance(expected, str) == bool(fault)
    for block in range(1, 97):
        monkeypatch.setattr(credit, "_BLOCK_CHARS", block)
        assert outcome(read_portfolio_csv, path) == expected, block


@pytest.mark.parametrize("fault", [None, "-3"])
def test_off_table_days_in_every_block_match_oracle(tmp_path, monkeypatch, fault):
    # An off-table spelling in every 7th row of a file of several blocks
    # at the shipped size: the column route converts every block that
    # holds one, and a negative day halfway through names its row.
    rows = _day_rows(random.Random(53), 3000, 7)
    if fault:
        _set(rows, 1500, "days_past_due", fault)
    path = tmp_path / "p.csv"
    _write_rows(path, rows)
    assert path.stat().st_size > 4 * credit._BLOCK_CHARS
    row_route = []
    row_obligors = credit._row_obligors
    monkeypatch.setattr(credit, "_row_obligors",
                        lambda *args: row_route.append(1) or row_obligors(*args))
    got = outcome(read_portfolio_csv, path)
    assert got == outcome(oracle_read_portfolio_csv, path)
    if fault:
        assert got.startswith("ValueError: row 1502:"), got
    else:
        assert row_route == [] and {o.days_past_due for o in got} >= {7, 5, 1000, 72}


# Per column, in Obligor.__slots__ order: cells that each route reads,
# as written, padded or in mixed case, and cells that fail a check.
ROUTE_CELLS = {
    "id": (("a", " b ", ""), ()),
    "rating": (("AA", "Default", " bb ", "cC"), ("AAA", "")),
    "segment": (("Other", "CreditCard", " other", "CFCAUTOMOBILES"), ("Nowhere", "\t")),
    "ead": (("1000", "12.75", " 7 ", "007", "-0", "1e308", "\x1c5", "\u0665", "1_0"),
            ("nan", "inf", "-5", "\t", "", "1e400")),
    "guarantee": (("NoGuarantee", "Receivables", " noguarantee ", "NONADMISSIBLE"),
                  ("None", "")),
    "days_past_due": (("0", "45", "900", "1000", " 7 ", "007", "-0", "", "\t",
                       "\x1c5", "\u0665", "1_0", "+7"),
                      ("-3", "1.5", "nan", "inf", "1e308", "x")),
    "pd_override": (("", "0.25", " 0.3 ", "-0", "1", "\t"),
                    ("nan", "inf", "1e308", "1.5", "-1e-9", "x")),
    "lgd_override": (("", "0.5", "1.0", "-0", "\u0660"), ("nan", "inf", "2", "?")),
}


def _route_chunk(rng):
    """The eight cell columns of a chunk of 1-4 rows, each cell bad with
    probability 0.1; an override column is absent a third of the time."""
    rows = rng.randint(1, 4)
    columns = []
    for column, (good, bad) in ROUTE_CELLS.items():
        if column.endswith("override") and rng.random() < 1 / 3:
            columns.append([])
        else:
            columns.append([rng.choice(bad if bad and rng.random() < 0.1 else good)
                            for _ in range(rows)])
    return columns


def test_column_and_row_routes_agree():
    # The column route refuses a chunk exactly when the row route raises
    # for it, and otherwise gives the same fields, to the bit: its enum
    # fields, held as member indices, are the members the rows hold.
    rng = random.Random(61)
    accepted = 0
    for _ in range(2000):
        cell_columns = _route_chunk(rng)
        fields = credit._column_fields(cell_columns)
        try:
            obligors = credit._row_obligors(cell_columns, 1)
        except ValueError:
            assert fields is None, cell_columns
            continue
        assert fields is not None, cell_columns
        expected = [[getattr(o, name) for o in obligors] for name in Obligor.__slots__]
        members = credit._enum_columns([list(column) for column in fields], credit._MEMBERS)
        assert repr(list(map(list, members))) == repr(expected), cell_columns
        accepted += 1
    assert 200 < accepted < 1800  # both outcomes are well sampled


def test_split_cells_counts_lines_not_cells():
    # Short lines whose cells still land on the width: "a\nb\n" at width 3
    # has five cells, one line's worth, but two lines.
    assert credit._split_cells("a\nb\n", 3) is None
    # the right number of cells, but a "\n" cell out of place
    assert credit._split_cells("a,b\nc,d,e,f\n", 3) is None
    assert credit._split_cells("a,b,c\nd,e,f\n", 3) == [
        "a", "b", "c", "\n", "d", "e", "f", "\n", ""]


def test_lone_cr_among_crlf_line_ends_stays_off_the_split(tmp_path, monkeypatch):
    # "\r\n" line ends and one lone "\r": the block is not rewritten to
    # "\n" line ends and split, and csv.reader reads it.
    path = tmp_path / "p.csv"
    path.write_text("id,rating,segment,ead,guarantee,days_past_due\r\n"
                    "a,AA,Other,1,NoGuarantee,0\rb,B,Other,2,NoGuarantee,0\r\n"
                    "c,A,Other,3,NoGuarantee,0\r\n", encoding="utf-8", newline="")
    calls = []
    split_cells = credit._split_cells
    monkeypatch.setattr(credit, "_split_cells",
                        lambda *args: calls.append(args) or split_cells(*args))
    portfolio = read_portfolio_csv(path)
    assert calls == []
    assert portfolio == oracle_read_portfolio_csv(path)
    assert [o.id for o in portfolio] == ["a", "b", "c"]


def test_overflowing_exposures_take_the_column_route(tmp_path, monkeypatch):
    # Each EAD of 1e308 is finite, though their sum is not: the column
    # route accepts the file, and the report refuses its total exposure
    # with a ValueError, not an OverflowError.
    path = tmp_path / "p.csv"
    path.write_text("id,rating,segment,ead,guarantee,days_past_due\n"
                    "a,AA,Other,1e308,NoGuarantee,0\n"
                    "b,B,Other,1e308,NoGuarantee,5\n", encoding="utf-8")
    expected = oracle_read_portfolio_csv(path)
    calls = []
    init, row_obligors = credit.Obligor.__init__, credit._row_obligors
    monkeypatch.setattr(credit.Obligor, "__init__",
                        lambda self, *args: calls.append(1) or init(self, *args))
    monkeypatch.setattr(credit, "_row_obligors",
                        lambda *args: calls.append(2) or row_obligors(*args))
    portfolio = read_portfolio_csv(path)
    assert calls == [] and portfolio == expected
    assert [o.ead for o in portfolio] == [1e308, 1e308]
    for report in (loss_rates, lambda obligors: period_report("m", obligors)):
        with pytest.raises(ValueError, match=r"^total exposure must be finite, got inf$"):
            report(portfolio)


# (file, offset, bytes that overwrite the file's from the offset, decoder's reason)
@pytest.mark.parametrize("source, offset, bad, reason", [
    ("plain", 3, b"\xff", "invalid start byte"),  # in the header
    ("plain", 20_000, b"\xff", "invalid start byte"),
    # a sequence cut short at and across the 8 KB reads of the decoder
    ("plain", 8190, b"\xe2\x82", "invalid continuation byte"),
    ("plain", 8191, b"\xe2\x82", "invalid continuation byte"),
    ("plain", 8192, b"\xe2\x82", "invalid continuation byte"),
    ("plain", -1, b"\xe2", "unexpected end of data"),
    ("quoted", 20_000, b"\xff", "invalid start byte"),  # on the csv.reader route
])
def test_byte_that_is_not_utf8_names_its_offset(tmp_path, source, offset, bad, reason):
    path = tmp_path / "p.csv"
    _write_rows(path, _chunked_rows() if source == "quoted"
                else _varied_rows(random.Random(41), ROWS))
    data = path.read_bytes()
    offset %= len(data)
    assert ('"' in data[:offset].decode()) == (source == "quoted")
    path.write_bytes(data[:offset] + bad + data[offset + len(bad):])
    with pytest.raises(ValueError) as info:
        read_portfolio_csv(path)
    assert str(info.value) == f"not UTF-8 at byte offset {offset}: {reason}"


@pytest.mark.parametrize("source", ["fixture", "chunked"])
def test_byte_order_mark_reads_as_nothing(tmp_path, source):
    # Excel's "CSV UTF-8" starts the file with a byte-order mark, which
    # must not become part of the first header name.
    plain = FIXTURE
    if source == "chunked":
        plain = tmp_path / "plain.csv"
        _write_rows(plain, _chunked_rows(), blank_before=(CHUNK, 3 * CHUNK))
    marked = tmp_path / "marked.csv"
    marked.write_bytes(b"\xef\xbb\xbf" + plain.read_bytes())
    assert read_portfolio_csv(marked) == read_portfolio_csv(plain)


@pytest.mark.parametrize("fault", [None, 5])
def test_fault_before_a_malformed_line_comes_first(tmp_path, fault):
    # csv.reader refuses a field over its size limit, which the reader
    # reports as a ValueError naming that row (the oracle lets csv.Error
    # through).  A faulty row before that line in the same chunk is still
    # reported first, as row by row.
    rng = random.Random(7)
    rows = [_plain_row(rng, k) for k in range(20)]
    _set(rows, 12, "id", "x" * (csv.field_size_limit() + 1))
    if fault is not None:
        _set(rows, fault, "segment", "Nowhere")
    path = tmp_path / "p.csv"
    _write_rows(path, rows)
    got = outcome_or_csv_error(read_portfolio_csv, path)
    if fault is None:
        assert got == "ValueError: row 14: field larger than field limit (131072)"
    else:
        assert got == outcome_or_csv_error(oracle_read_portfolio_csv, path)
        assert got.startswith("ValueError: row 7,"), got


@pytest.mark.parametrize("spell, line_end", [
    (lambda rng, value: value, "\n"), (_spelling, "\n"), (lambda rng, value: value, "\r"),
], ids=["schema-spellings", "mangled-spellings", "lone-cr-line-ends"])
def test_transient_memory_is_bounded_by_the_chunk(tmp_path, spell, line_end):
    # What the reader holds at its peak beyond the portfolio it returns
    # must not grow with the file: reading the whole of a 20,000-row file
    # before converting it holds about 10 MB more, and the process's peak
    # RSS grows with it.  Nor may it grow with the number of distinct
    # enum spellings, of which a file of case-mangled, padded cells has
    # thousands, nor when no "\n" ends a line.
    def transient(count):
        path = tmp_path / f"p{count}.csv"
        rng = random.Random(count)
        _write_rows(path, [
            [f"OBL-{k}", spell(rng, rng.choice(RATINGS)),
             spell(rng, rng.choice(SEGMENTS)),
             f"{rng.lognormvariate(10.5, 1.3):.2f}", spell(rng, rng.choice(GUARANTEES)),
             rng.choice(("0", "45", "400")),
             f"{rng.random():.6f}" if rng.random() < 0.04 else "",
             f"{rng.random():.6f}" if rng.random() < 0.04 else ""]
            for k in range(count)])
        path.write_bytes(path.read_bytes().replace(b"\n", line_end.encode()))
        tracemalloc.start()
        try:
            obligors = read_portfolio_csv(path)
            current, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert len(obligors) == count
        return peak - current

    small, large = transient(2_000), transient(20_000)
    assert large - small < 128 * 1024, (small, large)


# ---------------------------------------------------------------------------
# the Portfolio that a read returns
# ---------------------------------------------------------------------------

def test_portfolio_is_a_read_only_sequence():
    portfolio = read_portfolio_csv(FIXTURE)
    obligors = oracle_read_portfolio_csv(FIXTURE)
    n = len(obligors)
    assert isinstance(portfolio, Sequence) and len(portfolio) == n == 59
    assert list(portfolio) == obligors
    assert [portfolio[k] for k in range(-n, n)] == obligors + obligors
    for k in (n, -n - 1):
        with pytest.raises(IndexError):
            portfolio[k]
    for part in (slice(3, 17), slice(None, None, -2), slice(50, 500), slice(5, 5)):
        assert type(portfolio[part]) is Portfolio
        assert list(portfolio[part]) == obligors[part]
    assert repr(portfolio) == f"Portfolio({obligors!r})"
    assert Portfolio(obligors) == portfolio and len(Portfolio()) == 0
    with pytest.raises(TypeError):
        Portfolio([*obligors, "OBL-0060"])
    # an enum field that is not a member of its column's enum, as the
    # loss rates of a list of such obligors refuse it
    for fields, bad in ((("AA", credit.Segment.OTHER), "AA"),
                        ((credit.Rating.AA, credit.Rating.AA), credit.Rating.AA)):
        odd = Obligor("x", *fields, 1.0, credit.Guarantee.NO_GUARANTEE)
        for refuse in (Portfolio, loss_rates):
            with pytest.raises(KeyError) as refused:
                refuse([*obligors, odd])
            assert refused.value.args == (bad,)
    # read-only: no hash, no mutating method, nothing public but the
    # two Sequence methods
    assert Portfolio.__hash__ is None
    with pytest.raises(TypeError):
        hash(portfolio)
    with pytest.raises(TypeError):
        portfolio[0] = obligors[0]
    with pytest.raises(AttributeError):
        portfolio.extra = 1
    assert {name for name in dir(portfolio) if not name.startswith("_")} == {
        "count", "index"}


@pytest.mark.parametrize("read, built", [
    (list, 3), (lambda p: p[1], 1), (lambda p: p[-1], 1), (lambda p: p[1:], 0)],
    ids=["list", "index", "negative-index", "slice"])
def test_portfolio_builds_each_obligor_it_hands_out_by_init(monkeypatch, read, built):
    # Obligor.__init__ is the one definition of a valid obligor: every
    # obligor that iteration or an index hands out is built through it.
    obligors = oracle_read_portfolio_csv(FIXTURE)[:3]
    portfolio = Portfolio(obligors)
    calls = []
    init = credit.Obligor.__init__
    monkeypatch.setattr(credit.Obligor, "__init__",
                        lambda self, *args: calls.append(1) or init(self, *args))
    got = read(portfolio)
    assert len(calls) == built
    assert got == read(obligors)


def test_portfolio_refuses_a_field_that_obligor_refuses():
    # a column that no valid obligor has, as a hand-written pickle holds it
    portfolio = Portfolio._of_columns(
        [["x"], [credit.Rating.AA], [credit.Segment.OTHER], [-1.0],
         [credit.Guarantee.NO_GUARANTEE], [0], [None], [None]])
    for read in (list, lambda p: p[0]):
        with pytest.raises(ValueError,
                           match=r"^obligor 'x': ead must be >= 0, got -1\.0$"):
            read(portfolio)


def test_portfolio_copies_and_pickles_round_trip():
    portfolio = read_portfolio_csv(FIXTURE)
    copies = [copy.copy(portfolio), copy.deepcopy(portfolio), *(
        pickle.loads(pickle.dumps(portfolio, protocol))
        for protocol in range(pickle.HIGHEST_PROTOCOL + 1))]
    for copied in copies:
        assert type(copied) is Portfolio
        assert copied == portfolio and list(copied) == list(portfolio)


# A Portfolio of two obligors, pickled with protocol 4 by a reader whose
# Portfolio held its enum columns as members, not as member indices.
MEMBER_COLUMNS_PICKLE = (
    b"\x80\x04\x95+\x01\x00\x00\x00\x00\x00\x00\x8c\x08builtins\x94\x8c"
    b"\x07getattr\x94\x93\x94\x8c\x0fbetakotz.credit\x94\x8c\tPortfolio"
    b"\x94\x93\x94\x8c\x0b_of_columns\x94\x86\x94R\x94]\x94(]\x94(\x8c"
    b"\x05OBL-1\x94\x8c\x05OBL-2\x94e]\x94(h\x03\x8c\x06Rating\x94\x93"
    b"\x94\x8c\x02BB\x94\x85\x94R\x94h\x0f\x8c\x07Default\x94\x85\x94R"
    b"\x94e]\x94(h\x03\x8c\x07Segment\x94\x93\x94\x8c\x05Other\x94\x85"
    b"\x94R\x94h\x18\x8c\x08CFCOther\x94\x85\x94R\x94e]\x94(G@\x8fD\x00"
    b"\x00\x00\x00\x00G@\x00\x00\x00\x00\x00\x00\x00e]\x94(h\x03\x8c\tGu"
    b"arantee\x94\x93\x94\x8c\x0bNoGuarantee\x94\x85\x94R\x94h\"\x8c\x0b"
    b"Receivables\x94\x85\x94R\x94e]\x94(K-K\x00e]\x94(NG?\xd0\x00\x00"
    b"\x00\x00\x00\x00e]\x94(NNee\x85\x94R\x94.")


def test_portfolio_pickles_as_its_members():
    # A Portfolio pickles as its obligors' fields, members and all, so
    # pickles written before its enum columns were held as indices load,
    # and it pickles to the same bytes.
    portfolio = Portfolio([
        Obligor("OBL-1", credit.Rating.BB, credit.Segment.OTHER, 1000.5,
                credit.Guarantee.NO_GUARANTEE, 45),
        Obligor("OBL-2", credit.Rating.DEFAULT, credit.Segment.CFC_OTHER, 2.0,
                credit.Guarantee.RECEIVABLES, 0, 0.25)])
    loaded = pickle.loads(MEMBER_COLUMNS_PICKLE)
    assert type(loaded) is Portfolio and loaded == portfolio
    assert list(loaded) == list(portfolio) and loaded[1].rating is credit.Rating.DEFAULT
    assert pickle.dumps(portfolio, 4) == MEMBER_COLUMNS_PICKLE


def test_portfolio_equality():
    portfolio = read_portfolio_csv(FIXTURE)
    obligors = oracle_read_portfolio_csv(FIXTURE)
    changed = list(obligors)
    changed[7] = obligors[8]
    for same in (obligors, tuple(obligors), read_portfolio_csv(FIXTURE),
                 Portfolio(obligors)):
        assert portfolio == same and same == portfolio
        assert not (portfolio != same or same != portfolio)
    for other in (changed, tuple(changed), obligors[:-1], Portfolio(changed),
                  portfolio[1:], [], repr(portfolio), "", None):
        assert portfolio != other and other != portfolio
        assert not (portfolio == other or other == portfolio)


@pytest.mark.parametrize("source", ["fixture", "chunked"])
def test_reports_on_a_portfolio_match_a_list(tmp_path, source):
    # The columns a read keeps and the obligors of list(...) give the
    # same loss rates and report, bit for bit.
    path = FIXTURE
    if source == "chunked":
        path = tmp_path / "p.csv"
        _write_rows(path, _chunked_rows(), blank_before=(CHUNK, 3 * CHUNK))
    portfolio = read_portfolio_csv(path)
    obligors = list(portfolio)
    assert type(obligors) is list and obligors == oracle_read_portfolio_csv(path)
    assert (list(map(float.hex, loss_rates(portfolio)))
            == list(map(float.hex, loss_rates(obligors))))

    def exact(report):
        return {key: value.hex() if isinstance(value, float) else value
                for key, value in report.to_dict().items()}

    assert (exact(period_report("m", portfolio, 0.99))
            == exact(period_report("m", obligors, 0.99)))
