"""The DictReader-based portfolio CSV reader: a test oracle.

This is `credit.read_portfolio_csv` as it was before the single-pass
`csv.reader` version, kept verbatim so the differential test can require
the same obligors, or the same error message, from both.  It builds a
dict per row and parses each cell through `_parse_enum`/`_parse_float`,
which is why the library no longer uses it.
"""

import csv

from betakotz.credit import (
    _OPTIONAL_COLUMNS,
    _REQUIRED_COLUMNS,
    Guarantee,
    Obligor,
    Rating,
    Segment,
    _parse_enum,
    _parse_float,
)


def read_portfolio_csv(path) -> list[Obligor]:
    """Load obligors from the portfolio CSV wire format.

    Header row required; enum columns are case-insensitive; optional
    pd_override/lgd_override columns win over table lookups when
    non-empty.  Schema violations name the offending row and column.
    """
    with open(path, newline="", encoding="utf-8") as handle:
        # Short rows read missing cells as ""; of two columns whose
        # normalized names collide, the last wins.
        reader = csv.DictReader(handle, restval="")
        if reader.fieldnames is None:
            raise ValueError("portfolio CSV is empty (missing header row)")
        reader.fieldnames = [n.strip().lower() for n in reader.fieldnames]
        missing = [c for c in _REQUIRED_COLUMNS if c not in reader.fieldnames]
        if missing:
            raise ValueError(f"portfolio CSV is missing columns: {missing}")
        obligors = []
        for row_num, row in enumerate(reader, start=2):
            days_text = str(row.get("days_past_due", "")).strip()
            try:
                days = int(days_text) if days_text else 0
            except ValueError:
                raise ValueError(
                    f"row {row_num}, column 'days_past_due': not an "
                    f"integer: {days_text!r}"
                ) from None
            overrides = {}
            for column in _OPTIONAL_COLUMNS:
                text = str(row.get(column) or "").strip()
                overrides[column] = (
                    _parse_float(text, column, row_num, lo=0.0, hi=1.0)
                    if text else None
                )
            try:
                obligors.append(Obligor(
                    id=str(row.get("id", "")).strip(),
                    rating=_parse_enum(Rating, row.get("rating", ""), "rating", row_num),
                    segment=_parse_enum(Segment, row.get("segment", ""),
                                        "segment", row_num),
                    ead=_parse_float(row.get("ead", ""), "ead", row_num, lo=0.0),
                    guarantee=_parse_enum(Guarantee, row.get("guarantee", ""),
                                          "guarantee", row_num),
                    days_past_due=days,
                    pd_override=overrides["pd_override"],
                    lgd_override=overrides["lgd_override"],
                ))
            except ValueError as err:
                if str(err).startswith("row "):
                    raise
                raise ValueError(f"row {row_num}: {err}") from None
    if not obligors:
        raise ValueError("portfolio CSV contains no obligor rows")
    return obligors
