"""Strict readers for the two table formats the CLI emits.

A table op fails when its output is not valid in its stated format:
CSV whose numeric cells do not all parse, or JSON that a strict parser
rejects (bare ``NaN``/``Infinity`` tokens included).
"""
from __future__ import annotations

import json
import re
from dataclasses import dataclass

# Columns that hold row labels rather than numbers.
LABEL_COLUMNS = frozenset({"check", "quantity"})

_NUMBER = re.compile(
    r"[+-]?(?:(?:\d+(?:\.\d*)?|\.\d+)(?:[eE][+-]?\d+)?|nan|inf)")


class FormatError(ValueError):
    """Output that is not valid in its stated format."""


@dataclass(frozen=True)
class Table:
    columns: tuple
    rows: tuple        # one dict per row, keyed by column name
    comments: tuple    # comment lines without their "# " prefix

    def column(self, name: str) -> list:
        return [row[name] for row in self.rows]

    def value(self, label: str) -> float:
        """The value cell of the single row whose quantity is ``label``."""
        found = [row["value"] for row in self.rows
                 if row["quantity"] == label]
        if len(found) != 1:
            raise FormatError(f"expected one row {label!r}, "
                              f"found {len(found)}")
        return found[0]


def _reject_constant(token: str):
    raise FormatError(f"non-standard JSON constant {token}")


def parse_json(text: str):
    """json.loads that rejects NaN, Infinity and -Infinity."""
    try:
        return json.loads(text, parse_constant=_reject_constant)
    except json.JSONDecodeError as exc:
        raise FormatError(f"invalid JSON: {exc}") from exc


def _check_row(columns, row, lineno):
    if len(row) != len(columns):
        raise FormatError(f"row {lineno} has {len(row)} cells for "
                          f"{len(columns)} columns")
    return dict(zip(columns, row))


def parse_json_table(text: str) -> Table:
    doc = parse_json(text)
    keys = {"check", "config", "comments", "columns", "rows"}
    if not isinstance(doc, dict) or set(doc) != keys:
        raise FormatError(f"JSON table must have exactly the keys "
                          f"{sorted(keys)}")
    columns = tuple(doc["columns"])
    rows = []
    for lineno, raw in enumerate(doc["rows"], start=1):
        row = _check_row(columns, raw, lineno)
        for name, cell in row.items():
            numeric = isinstance(cell, (int, float)) \
                and not isinstance(cell, bool)
            if name not in LABEL_COLUMNS and not numeric:
                raise FormatError(f"row {lineno} column {name!r} is not "
                                  f"a number: {cell!r}")
        rows.append(row)
    return Table(columns, tuple(rows), tuple(doc["comments"]))


def parse_csv_table(text: str) -> Table:
    lines = text.splitlines()
    comments = []
    while lines and lines[0].startswith("#"):
        comments.append(lines.pop(0)[1:].strip())
    if not lines:
        raise FormatError("CSV table has no header")
    columns = tuple(lines[0].split(","))
    rows = []
    for lineno, line in enumerate(lines[1:], start=1):
        row = _check_row(columns, line.split(","), lineno)
        for name, cell in row.items():
            if name in LABEL_COLUMNS:
                continue
            if not _NUMBER.fullmatch(cell):
                raise FormatError(f"row {lineno} column {name!r} is not "
                                  f"a number: {cell!r}")
            row[name] = float(cell)
        rows.append(row)
    return Table(columns, tuple(rows), tuple(comments))


def parse_table(text: str, fmt: str) -> Table:
    return parse_json_table(text) if fmt == "json" else parse_csv_table(text)
