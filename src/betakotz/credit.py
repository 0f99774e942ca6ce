"""Credit-portfolio pipeline: obligor records to monthly risk reports.

Per-obligor expected loss is EAD x PD x LGD, with PD drawn from the
SFC consumer-portfolio rating matrix and LGD from the SFC guarantee/
days-past-due schedule (overrides win when present).  Loss rates are
per-obligor expected losses divided by total exposure; each period the
rate sample is fitted by the method of moments and the fitted law's
tail measures are scaled back into currency.
"""

from __future__ import annotations

import csv
import enum
import io
import json
import math
import operator
import sys
from collections.abc import Sequence
from itertools import chain, compress, islice, zip_longest

from . import risk
from .distribution import (BetaKotzParams, ConfidenceLevel, _moment_shapes, _Record,
                           _sample_moments)

__all__ = [
    "Rating",
    "Segment",
    "Guarantee",
    "Obligor",
    "Portfolio",
    "PortfolioReport",
    "SFC_PD_TABLE",
    "SFC_LGD_SCHEDULE",
    "pd_lookup",
    "lgd_lookup",
    "expected_loss",
    "loss_rates",
    "period_report",
    "read_portfolio_csv",
    "report_to_json",
    "report_to_csv",
]


class Rating(enum.Enum):
    __hash__ = object.__hash__  # C-level; Enum equality is identity anyway

    AA = "AA"
    A = "A"
    BB = "BB"
    B = "B"
    CC = "CC"
    DEFAULT = "Default"


class Segment(enum.Enum):
    __hash__ = object.__hash__  # C-level; Enum equality is identity anyway

    AUTOMOBILES = "Automobiles"
    OTHER = "Other"
    CREDIT_CARD = "CreditCard"
    CFC_AUTOMOBILES = "CFCAutomobiles"
    CFC_OTHER = "CFCOther"


class Guarantee(enum.Enum):
    __hash__ = object.__hash__  # C-level; Enum equality is identity anyway

    ADMISSIBLE_FINANCIAL_COLLATERAL = "AdmissibleFinancialCollateral"
    COMMERCIAL_RESIDENTIAL_REAL_ESTATE = "CommercialResidentialRealEstate"
    REAL_ESTATE_LEASING = "RealEstateLeasing"
    OTHER_LEASING = "OtherLeasing"
    RECEIVABLES = "Receivables"
    OTHER_ADMISSIBLE = "OtherAdmissible"
    NON_ADMISSIBLE = "NonAdmissible"
    NO_GUARANTEE = "NoGuarantee"


# Each enum's members in definition order.  A Portfolio holds an enum
# field as its member's index here, and the PD and LGD tables are
# indexed by it.
_MEMBERS = {cls: tuple(cls) for cls in (Rating, Segment, Guarantee)}

# The index of each member in its own enum's _MEMBERS: a field that is
# not a member of its column's enum is a KeyError.
_INDEX_OF = {cls: {member: i for i, member in enumerate(members)}
             for cls, members in _MEMBERS.items()}

# The member index of each spelling an enum column looks up, in Rating,
# Segment, Guarantee order: the schema's own, as cells are first tried,
# and its lower case, as a stripped and lower-cased cell is.
_ENUM_BY_TEXT = {
    cls: {text: i for i, member in enumerate(members)
          for text in (member.value, member.value.lower())}
    for cls, members in _MEMBERS.items()
}


def _enum_indices(cls, texts):
    """The member index of `cls` that each of `texts` spells, stripped
    and in any case, or None, as an iterator of C-level maps."""
    return map(_ENUM_BY_TEXT[cls].get, map(str.lower, map(str.strip, texts)))


def _parse_enum(cls, text, column, row_num):
    index, = _enum_indices(cls, [text])
    if index is None:
        raise ValueError(
            f"row {row_num}, column '{column}': unknown value {text!r}; "
            f"expected one of {sorted(m.value for m in cls)}"
        )
    return _MEMBERS[cls][index]


def _check_days(days_past_due):
    """ValueError unless `days_past_due` is an integer (of a type that
    operator.index takes, as bool and NumPy's) >= 0."""
    try:
        if operator.index(days_past_due) >= 0:
            return
    except TypeError:
        raise ValueError(
            f"days_past_due is not an integer: {days_past_due!r}") from None
    raise ValueError(f"days_past_due must be >= 0, got {days_past_due}")


class Obligor(_Record):
    """One borrower record."""

    __slots__ = ("id", "rating", "segment", "ead", "guarantee", "days_past_due",
                 "pd_override", "lgd_override")

    def __init__(self, id: str, rating: Rating, segment: Segment, ead: float,
                 guarantee: Guarantee, days_past_due: int = 0,
                 pd_override: float | None = None,
                 lgd_override: float | None = None):
        try:  # the id is formatted only for a refusal
            if not 0.0 <= ead <= sys.float_info.max:
                if isinstance(ead, int) and abs(ead) > sys.float_info.max:
                    # Described, not printed: it can have more digits than
                    # the interpreter converts to text.
                    raise ValueError(
                        "ead must be >= 0 and at most the largest float, "
                        f"{sys.float_info.max}, got an int larger in magnitude")
                raise ValueError(f"ead must be >= 0, got {ead}")
            _check_days(days_past_due)
            if pd_override is not None and not 0.0 <= pd_override <= 1.0:
                raise ValueError(f"pd_override must lie in [0, 1], got {pd_override}")
            if lgd_override is not None and not 0.0 <= lgd_override <= 1.0:
                raise ValueError(f"lgd_override must lie in [0, 1], got {lgd_override}")
        except ValueError as err:
            raise ValueError(f"obligor {id!r}: {err}") from None
        self.__setstate__((id, rating, segment, ead, guarantee, days_past_due,
                           pd_override, lgd_override))


# The enum of each field in Obligor.__slots__ order, None for a field
# that is not one.
_SLOT_ENUMS = (None, Rating, Segment, None, Guarantee, None, None, None)


def _enum_columns(columns, tables):
    """`columns` with each enum field looked up in `tables`, lazily."""
    return [values if cls is None else map(tables[cls].__getitem__, values)
            for cls, values in zip(_SLOT_ENUMS, columns)]


class Portfolio(Sequence):
    """A read-only sequence of obligors, held as eight columns.

    The columns are the obligors' fields in `Obligor.__slots__` order,
    each enum field as its member's index in definition order; an item
    is built by `Obligor(...)` only when it is read.  A slice is a
    Portfolio, and a Portfolio equals another of equal columns, or a
    list or tuple of equal obligors.  `list(portfolio)` gives the
    obligors as a list.
    """

    __slots__ = ("_columns",)

    def __init__(self, obligors=()):
        obligors = list(obligors)
        for o in obligors:
            if type(o) is not Obligor:
                raise TypeError(f"a Portfolio holds Obligor records, not {o!r}")
        self._columns = _field_columns(obligors)

    @classmethod
    def _of_indices(cls, columns):
        portfolio = object.__new__(cls)
        portfolio._columns = columns
        return portfolio

    @classmethod
    def _of_columns(cls, columns):
        # Columns of members, as __reduce__ gives them: a pickle holds the
        # obligors' own fields, not the indices, and loads in any version.
        return cls._of_indices(list(map(list, _enum_columns(columns, _INDEX_OF))))

    def __len__(self):
        return len(self._columns[0])

    def __getitem__(self, index):
        if isinstance(index, slice):
            return Portfolio._of_indices([column[index] for column in self._columns])
        return next(map(Obligor, *_enum_columns(
            [[column[index]] for column in self._columns], _MEMBERS)))

    def __iter__(self):
        return map(Obligor, *_enum_columns(self._columns, _MEMBERS))

    def __eq__(self, other):
        if isinstance(other, Portfolio):
            return self._columns == other._columns
        if isinstance(other, (list, tuple)):
            return len(self) == len(other) and all(map(operator.eq, self, other))
        return NotImplemented

    def __repr__(self):
        return f"Portfolio({list(self)!r})"

    def __reduce__(self):
        return Portfolio._of_columns, (
            list(map(list, _enum_columns(self._columns, _MEMBERS))),)


def _field_columns(obligors):
    """The eight field columns of a sequence of obligors, in
    Obligor.__slots__ order with enum fields as member indices: a
    Portfolio's own, or any other's, read by list comprehensions, whose
    slot loads 3.11 specialises."""
    if type(obligors) is Portfolio:  # isinstance runs ABCMeta's Python hooks
        return obligors._columns
    # An enum field that is not a member of its enum is a KeyError.
    ratings, segments, guarantees = (_INDEX_OF[Rating], _INDEX_OF[Segment],
                                     _INDEX_OF[Guarantee])
    return [[o.id for o in obligors], [ratings[o.rating] for o in obligors],
            [segments[o.segment] for o in obligors], [o.ead for o in obligors],
            [guarantees[o.guarantee] for o in obligors],
            [o.days_past_due for o in obligors],
            [o.pd_override for o in obligors], [o.lgd_override for o in obligors]]


# SFC consumer-portfolio PD matrix: a row per rating, a PD per segment,
# each in definition order, so a rating's index and then a segment's
# index look a PD up.
_PD_BY_RATING = (
    # Automobiles, Other, CreditCard, CFCAutomobiles, CFCOther
    (0.0097, 0.0210, 0.0158, 0.0102, 0.0354),  # AA
    (0.0312, 0.0388, 0.0535, 0.0288, 0.0719),  # A
    (0.0748, 0.1268, 0.0953, 0.1234, 0.1586),  # BB
    (0.1576, 0.1416, 0.1417, 0.2427, 0.3118),  # B
    (0.3101, 0.2257, 0.1706, 0.4332, 0.4101),  # CC
    (1.0, 1.0, 1.0, 1.0, 1.0),                 # Default
)

# The same matrix, (rating, segment) -> PD.
SFC_PD_TABLE = {(rating, segment): pd
                for rating, row in zip(Rating, _PD_BY_RATING)
                for segment, pd in zip(Segment, row)}

# SFC loss-given-default schedule, guarantee -> (base LGD, tiers).  Tiers
# are ordered (days threshold, lgd) pairs whose thresholds are inclusive
# lower bounds; the admissible-financial-collateral flat 12% has none.
SFC_LGD_SCHEDULE = {
    Guarantee.ADMISSIBLE_FINANCIAL_COLLATERAL: (0.12, ()),
    Guarantee.COMMERCIAL_RESIDENTIAL_REAL_ESTATE: (0.40, ((360, 0.70), (720, 1.00))),
    Guarantee.REAL_ESTATE_LEASING: (0.35, ((360, 0.70), (720, 1.00))),
    Guarantee.OTHER_LEASING: (0.45, ((270, 0.70), (540, 1.00))),
    Guarantee.RECEIVABLES: (0.45, ((360, 0.80), (720, 1.00))),
    Guarantee.OTHER_ADMISSIBLE: (0.50, ((270, 0.70), (540, 1.00))),
    Guarantee.NON_ADMISSIBLE: (0.60, ((210, 0.70), (420, 1.00))),
    Guarantee.NO_GUARANTEE: (0.75, ((30, 0.85), (90, 1.00))),
}


# The schedule's last threshold, from which on every guarantee's LGD is flat.
_LAST_DAY = max(day for _, tiers in SFC_LGD_SCHEDULE.values() for day, _ in tiers)


def _lgd_by_day(base, tiers):
    """The LGD at each day 0 ... _LAST_DAY of a guarantee of `base` LGD
    and `tiers`: the base, then from each threshold on its tier's LGD."""
    table = [base] * (_LAST_DAY + 1)
    for day, lgd in tiers:
        table[day:] = [lgd] * (_LAST_DAY + 1 - day)
    return table


# guarantee index -> its LGD at each day up to _LAST_DAY, which later
# days share
_LGD_BY_DAY = tuple(_lgd_by_day(*SFC_LGD_SCHEDULE[g]) for g in Guarantee)


def pd_lookup(rating: Rating, segment: Segment) -> float:
    """Probability of default for a rating/segment pair."""
    return SFC_PD_TABLE[(rating, segment)]


def lgd_lookup(guarantee: Guarantee, days_past_due: int) -> float:
    """Loss given default for a guarantee class at the given delinquency."""
    _check_days(days_past_due)
    # the LGD of an obligor of EAD 1 and PD 1, over a total of 1
    return _loss_rates([(None, None, 1.0, _INDEX_OF[Guarantee][guarantee],
                         days_past_due, 1.0, None)], 1.0)[0]


def expected_loss(o: Obligor) -> float:
    """EAD x PD x LGD for one obligor; overrides win over table lookups."""
    return _loss_rates(zip(*_field_columns([o])[1:]), 1.0)[0]  # x / 1.0 is x


def loss_rates(portfolio: Sequence[Obligor]) -> list[float]:
    """Per-obligor expected loss divided by total portfolio exposure.

    The rates sum to the portfolio's total expected loss rate.
    """
    return _loss_rates(*_rows_and_total(portfolio))


def _rows_and_total(portfolio):
    """`portfolio`'s rows for _loss_rates, and its total exposure, the
    exact sum of its EADs: ValueError unless that is finite and > 0."""
    columns = _field_columns(portfolio)[1:]
    try:
        total = math.fsum(columns[2])
    except OverflowError:
        total = math.inf
    if not math.isfinite(total):
        raise ValueError(f"total exposure must be finite, got {total}")
    if not total > 0.0:
        raise ValueError("total exposure must be positive")
    return zip(*columns), total


def _loss_rates(rows, total):
    """Each obligor's expected loss EAD x PD x LGD, in that order, divided
    by `total`, from its `_field_columns` but the id: the one definition
    of an obligor's loss rate and of its LGD, with pd_lookup inlined (a
    day is an integer >= 0: Obligor and the reader refuse any other)."""
    # A comprehension over locals: no Python call, no global load per row.
    pd_by_rating, lgd_by_day, last_day = _PD_BY_RATING, _LGD_BY_DAY, _LAST_DAY
    return [ead * (pd_by_rating[rating][segment] if pd_value is None else pd_value)
            * (lgd_by_day[guarantee][days if days < last_day else last_day]
               if lgd_value is None else lgd_value) / total
            for rating, segment, ead, guarantee, days, pd_value, lgd_value in rows]


# The wire format of a PortfolioReport, as (key, format spec) in to_dict
# order: money at 2 decimals, rate-domain values at 9 significant digits.
REPORT_COLUMNS = (
    ("label", ""), ("total_exposure", ".2f"), ("expected_loss", ".2f"),
    ("var", ".2f"), ("ec", ".2f"), ("cvar", ".2f"),
    ("fitted_a", ".9g"), ("fitted_b", ".9g"), ("alpha", ".9g"), ("obligor_count", ""),
)


class PortfolioReport(_Record):
    """One period's credit-risk report in currency units."""

    __slots__ = ("label", "total_exposure", "expected_loss", "var", "ec", "cvar",
                 "fitted", "alpha", "obligor_count")

    def __init__(self, label: str, total_exposure: float, expected_loss: float,
                 var: float, ec: float, cvar: float, fitted: BetaKotzParams,
                 alpha: ConfidenceLevel, obligor_count: int):
        if obligor_count < 1:
            raise ValueError("obligor_count must be positive")
        if not cvar >= var >= 0.0:
            raise ValueError(f"need cvar >= var >= 0, got cvar={cvar}, var={var}")
        if ec != var - expected_loss:
            raise ValueError("ec must equal var - expected_loss exactly")
        self.__setstate__((label, total_exposure, expected_loss, var, ec, cvar,
                           fitted, alpha, obligor_count))

    def to_dict(self) -> dict:
        """Full-precision field mapping."""
        return {
            "label": self.label,
            "total_exposure": self.total_exposure,
            "expected_loss": self.expected_loss,
            "var": self.var,
            "ec": self.ec,
            "cvar": self.cvar,
            "fitted_a": self.fitted.a,
            "fitted_b": self.fitted.b,
            "alpha": self.alpha.alpha,
            "obligor_count": self.obligor_count,
        }

    def to_rendered_dict(self) -> dict:
        """Wire form: each value of REPORT_COLUMNS read back at its precision."""
        d = self.to_dict()
        return {key: float(format(d[key], spec)) if spec else d[key]
                for key, spec in REPORT_COLUMNS}


def period_report(
    label: str,
    portfolio: Sequence[Obligor],
    alpha=0.99,
) -> PortfolioReport:
    """Fit the period's loss-rate sample and report tail measures in currency.

    Obligors with zero expected loss stay in the exposure denominator
    but are excluded from the fitting sample (their rate has no
    log-likelihood and carries no tail information).  The fit reads only
    the sample's mean and variance, taken as stats_from_samples takes
    them while the rates are formed: no log-sum, and no rate list kept.
    """
    if not portfolio:
        raise ValueError("portfolio must be non-empty")
    rows, total = _rows_and_total(portfolio)
    # The rates of a chunk of obligors at a time, the positive ones read
    # by _sample_moments as stats_from_samples has a sample read: no list
    # per obligor.  A rate lies in [0, 1] (EADs, PDs and LGDs are >= 0, no
    # EAD exceeds their exact sum, a -0.0 EAD gives a -0.0 rate), and one
    # of 1.0 is counted, then refused.  The rates sum to at most 1 (and
    # a rounding), so they are formed again to look for one only if their
    # sum, n * mean, is over 1/2.
    n, mean, m2 = _sample_moments(filter(None, chain.from_iterable(
        _loss_rates(islice(rows, _CHUNK_ROWS), total)
        for _ in range(0, len(portfolio), _CHUNK_ROWS))))
    if n < 2:
        raise ValueError(
            f"need at least 2 obligors with positive expected loss, got {n}")
    rates = list(filter(None, loss_rates(portfolio))) if n * mean > 0.5 else ()
    if 1.0 in rates:
        raise ValueError(f"sample value at index {rates.index(1.0)} must lie "
                         "strictly in (0, 1), got 1.0")
    fitted = _moment_shapes(mean, m2 / (n - 1))
    measures = risk.report(fitted, alpha)
    el, var_cur = measures.mean * total, measures.var * total
    return PortfolioReport(
        label=label, total_exposure=total, expected_loss=el, var=var_cur,
        ec=var_cur - el, cvar=measures.cvar * total, fitted=fitted,
        alpha=measures.alpha, obligor_count=len(portfolio))


# ---------------------------------------------------------------------------
# wire formats
# ---------------------------------------------------------------------------

_REQUIRED_COLUMNS = ("id", "rating", "segment", "ead", "guarantee", "days_past_due")
_OPTIONAL_COLUMNS = ("pd_override", "lgd_override")

# Characters per block, read on to a line end, that read_portfolio_csv
# makes one chunk.  A chunk's text, cells and fields are alive at once,
# so the reader's transient memory grows with the block: reading a whole
# 20,000-row file at once held about 10 MB more.  Each block also costs
# a fixed few µs of Python work: 32 K characters make 18 chunks of a
# 10,000-row month, against 70 at 8 K, for 279 KB transient, not 92 KB.
_BLOCK_CHARS = 32768

# Non-blank rows per chunk once csv.reader reads the rest of a file, and
# rates per chunk that period_report forms.
_CHUNK_ROWS = 128


def _parse_float(text, column, row_num, lo=None, hi=None):
    try:
        value = float(text.strip())
    except ValueError:
        raise ValueError(
            f"row {row_num}, column '{column}': not a number: {text!r}"
        ) from None
    if lo is not None and value < lo or hi is not None and value > hi:
        raise ValueError(
            f"row {row_num}, column '{column}': {value} outside "
            f"[{lo}, {hi if hi is not None else 'inf'}]"
        )
    return value


def read_portfolio_csv(path) -> Portfolio:
    """Load obligors from the portfolio CSV wire format.

    UTF-8, with or without a byte-order mark; a byte that is not UTF-8
    raises ValueError naming its offset in the file.  Header row
    required; header names are stripped and lower-cased, and of two that
    collide the last column wins.  Enum columns are case-insensitive;
    optional pd_override/lgd_override columns win over table lookups
    when non-empty.  Blank lines are skipped and not counted as rows, a
    short row reads its missing cells as empty, and cells beyond the
    header are ignored.  Schema violations name the offending row and
    column; a line that `csv.reader` refuses (a field over
    `csv.field_size_limit()`) raises ValueError naming its row.  The
    obligors come as a Portfolio, which holds their fields as columns.
    """
    # A byte-order mark is dropped by hand: "utf-8-sig" decodes in Python.
    with open(path, encoding="utf-8", newline="") as handle:
        try:
            head = handle.readline().removeprefix("\ufeff")
            # csv.reader reads on only while the header record needs it
            # (a quoted name spanning lines): the handle is left after it.
            try:
                header = next(csv.reader(chain((head,), handle))) if head else None
            except csv.Error as err:
                raise ValueError(f"row 1: {err}") from None
            if header is None:
                raise ValueError("portfolio CSV is empty (missing header row)")
            width = len(header)
            index = {name.strip().lower(): i for i, name in enumerate(header)}
            missing = [c for c in _REQUIRED_COLUMNS if c not in index]
            if missing:
                raise ValueError(f"portfolio CSV is missing columns: {missing}")
            # The index of each of the eight cells of a row; an absent
            # optional column reads an empty cell past the header's width.
            picked = [index.get(c, width)
                      for c in _REQUIRED_COLUMNS + _OPTIONAL_COLUMNS]
            columns = [[] for _ in Obligor.__slots__]
            for chunk in _field_chunks(handle, width, picked):
                for column, values in zip(columns, chunk):
                    column += values
        except UnicodeDecodeError as err:
            # err.object: the bytes last read, after any held back before
            offset = handle.buffer.tell() - len(err.object) + err.start
            raise ValueError(
                f"not UTF-8 at byte offset {offset}: {err.reason}") from None
    if not columns[0]:
        raise ValueError("portfolio CSV contains no obligor rows")
    return Portfolio._of_indices(columns)


def _field_chunks(handle, width, picked):
    """The obligor fields of the rows after the header, as eight columns
    (iterables) per chunk: one chunk per block of `handle`, its next
    _BLOCK_CHARS characters and the rest of the line they end in.

    A block is split into cells with one str.split when that reads it as
    csv.reader would: when it has no quote, every line has the header's
    width, and none has a \\r other than in a "\\r\\n" line end, a NUL, or
    a field over csv.field_size_limit().  From the first block that is
    not split on (a blank line, too, has not the header's width), one
    csv.reader reads it and the rest of the file, _CHUNK_ROWS non-blank
    rows a chunk; blank lines are not rows.  Either way `_column_fields`
    converts the cells, and `_row_obligors` names the first faulty row
    of a chunk that it refuses.
    """
    limit = csv.field_size_limit()
    # Split cells are a line's cells and then a "\n" cell, so a column is
    # every (width + 1)-th cell; an absent optional column has no cells.
    slices = [slice(i, -1, width + 1) if i < width else slice(0) for i in picked]
    row_num = 1  # the last row read; blank lines are not rows
    rows_left = None  # csv.reader's non-blank rows, once a block is not split
    while True:
        # The last chunk's cells go before the next is read: holding two
        # chunks at once would double the transient memory.
        cells = cell_columns = rows = error = None
        if rows_left is None:
            text = handle.read(_BLOCK_CHARS) + handle.readline()
            if not text:
                return
            # Quotes first: the rewrite would change a quoted "\r\n".
            if '"' not in text:
                if "\r" in text:
                    text = text.replace("\r\n", "\n")
                if not ("\r" in text or "\0" in text or len(text) > limit):
                    if text[-1] != "\n":  # the file's last line
                        text += "\n"
                    cells = _split_cells(text, width)
            if cells is None:
                rows_left = filter(None, csv.reader(
                    chain(io.StringIO(text, newline=""), handle)))
        strip_ids = True
        if cells is not None:
            cell_columns = list(map(cells.__getitem__, slices))
            # Stripping an id changes it only if the block holds a
            # character that str.strip() removes.
            strip_ids = not text.isascii() or any(map(text.__contains__, _ASCII_STRIPPED))
        else:
            rows = []
            try:
                rows.extend(islice(rows_left, _CHUNK_ROWS))
            except csv.Error as err:
                # extend keeps the rows before the malformed line, and a
                # fault among them is reported first, as row by row.
                error = ValueError(f"row {row_num + len(rows) + 1}: {err}")
            if not rows:
                if error is not None:
                    raise error
                return
            if set(map(len, rows)) != {width}:  # a short or long row
                rows = [(row + [""] * width)[:width] for row in rows]
            # the columns, and one with no cells at the header's width
            cell_columns = list(map([*zip(*rows), ()].__getitem__, picked))
        chunk = _column_fields(cell_columns, strip_ids)
        if chunk is None:
            chunk = _field_columns(_row_obligors(cell_columns, row_num))
        if error is not None:
            raise error
        row_num += len(cell_columns[0])
        yield chunk


def _split_cells(text, width):
    """The cells of quote-free `text`, which ends in "\\n": each line's
    cells, then a "\\n" cell; None when a line has not `width` cells."""
    spaced = text.replace("\n", ",\n,")
    # the lines, as each line end gained two commas: a "\n" is only ever one
    n = (len(spaced) - len(text)) // 2
    cells = spaced.split(",")
    del spaced  # the cells hold its text now
    fits = len(cells) == (width + 1) * n + 1 and cells[width::width + 1] == ["\n"] * n
    return cells if fits else None


# The ASCII characters that str.strip() removes, but "\n" and "\r", which
# no cell of a split block holds.
_ASCII_STRIPPED = " \t\x0b\x0c\x1c\x1d\x1e\x1f"

# The int of each canonical spelling "0" ... "999" of a day count.
_DAY_BY_TEXT = dict(zip(map(str, range(1000)), range(1000)))


def _column_fields(cell_columns, strip_ids=True):
    """A chunk's eight obligor fields from its eight cell columns (an
    absent override column has no cells), converted column by column
    with C-level maps; None when a cell fails a check.  The ids are
    stripped if `strip_ids`.
    """
    (ids, rating_cells, segment_cells, ead_cells, guarantee_cells, days_cells,
     pd_cells, lgd_cells) = cell_columns
    try:
        # A day column of canonical counts below 1,000, as months are
        # written, is looked up whole; any other column is stripped cell
        # by cell for int(), and a blank day reads as 0.
        try:
            days = list(map(_DAY_BY_TEXT.__getitem__, days_cells))
        except KeyError:
            days = [int(text or 0) for text in map(str.strip, days_cells)]
            # _DAY_BY_TEXT holds 0 ... 999 only: int() alone can give < 0.
            if min(days) < 0:
                return None
        try:
            eads = list(map(float, ead_cells))
        except ValueError:
            eads = list(map(float, map(str.strip, ead_cells)))
        pd_overrides = _override_column(pd_cells, len(days))
        lgd_overrides = _override_column(lgd_cells, len(days))
    except ValueError:
        return None
    # Each EAD is checked as Obligor checks it: finite and not negative.  A
    # NaN or inf makes the sum not finite; only then, or when finite EADs
    # overflow it, is each one checked.
    if not (min(eads) >= 0.0 and (
            math.isfinite(sum(eads)) or all(map(math.isfinite, eads)))):
        return None
    indices = []
    for texts, cls in zip((rating_cells, segment_cells, guarantee_cells),
                          (Rating, Segment, Guarantee)):
        try:
            indices.append(list(map(_ENUM_BY_TEXT[cls].__getitem__, texts)))
        except KeyError:  # a padded or mixed-case spelling
            spellings = set(texts)  # each looked up once
            by_text = dict(zip(spellings, _enum_indices(cls, spellings)))
            if None in by_text.values():
                return None
            indices.append(map(by_text.__getitem__, texts))
    ratings, segments, guarantees = indices
    return (map(str.strip, ids) if strip_ids else ids, ratings, segments, eads,
            guarantees, days, pd_overrides, lgd_overrides)


def _override_column(texts, n):
    """The n values of an override column: None for a blank or absent
    cell, else its float.  ValueError for a value that float() refuses or
    that lies outside [0, 1], NaN included."""
    values = [None] * n
    for k in compress(range(n), texts):
        stripped = texts[k].strip()
        if stripped:
            value = values[k] = float(stripped)
            if not 0.0 <= value <= 1.0:
                raise ValueError(f"override outside [0, 1]: {value}")
    return values


def _row_obligors(cell_columns, row_num):
    """A chunk's obligors from its eight cell columns, one row at a time,
    each cell stripped and parsed on its own: the source of every error
    message.  `row_num` is the number of the row before the chunk."""
    obligors = []
    for row_num, (id_text, rating_text, segment_text, ead_text, guarantee_text,
                  days_text, pd_text, lgd_text) in enumerate(
            zip_longest(*cell_columns, fillvalue=""), row_num + 1):
        # Checks run in a fixed order, so a row with several faults
        # always reports the same one.
        days_text = days_text.strip()
        try:
            days = int(days_text) if days_text else 0
        except ValueError:
            raise ValueError(
                f"row {row_num}, column 'days_past_due': not an "
                f"integer: {days_text!r}"
            ) from None
        pd_text, lgd_text = pd_text.strip(), lgd_text.strip()
        pd_override = _parse_float(
            pd_text, "pd_override", row_num, lo=0.0, hi=1.0) if pd_text else None
        lgd_override = _parse_float(
            lgd_text, "lgd_override", row_num, lo=0.0, hi=1.0) if lgd_text else None
        rating = _parse_enum(Rating, rating_text, "rating", row_num)
        segment = _parse_enum(Segment, segment_text, "segment", row_num)
        ead = _parse_float(ead_text, "ead", row_num, lo=0.0)
        guarantee = _parse_enum(Guarantee, guarantee_text, "guarantee", row_num)
        try:
            obligors.append(Obligor(id_text.strip(), rating, segment, ead, guarantee,
                                    days, pd_override, lgd_override))
        except ValueError as err:
            raise ValueError(f"row {row_num}: {err}") from None
    return obligors


def report_to_json(report: PortfolioReport) -> str:
    """Rendered JSON wire form of a period report."""
    return json.dumps(report.to_rendered_dict(), indent=2, sort_keys=True)


def report_to_csv(report: PortfolioReport) -> str:
    """Rendered single-record CSV wire form of a period report."""
    d = report.to_dict()
    return (",".join(key for key, _ in REPORT_COLUMNS) + "\n"
            + ",".join(format(d[key], spec) for key, spec in REPORT_COLUMNS) + "\n")
