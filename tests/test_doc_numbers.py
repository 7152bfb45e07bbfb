"""The model numbers the docs quote, checked against the rows goldens.

EXPERIMENTS.md and README.md wrap each checked ``paper -> model`` table
in ``<!-- golden-rows`` ... ``-->`` and ``<!-- /golden-rows -->``
markers.  A table of fast-mode numbers is checked against
``tests/golden/experiment_rows.json``; one whose opening marker reads
``<!-- golden-rows full`` is checked against the full-mode golden
``tests/golden/experiment_rows_full.json``.  The opening marker holds
one line per table body row::

    <experiment> | <golden row label> | <one entry per number in the row>

Every number after the row's first (label) cell gets an entry: either a
model field of that golden row -- the golden value must print exactly as
the doc prints it, at the doc's number of decimals -- or ``-`` for a
number that is not a model value (a paper anchor, a deviation, a
wall-clock time).  A line that is just ``-`` leaves its row unchecked.
"""

from __future__ import annotations

import re
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
DOCS = ("EXPERIMENTS.md", "README.md")
BLOCK = re.compile(
    r"<!-- golden-rows( full)?\n(.*?)\n-->\n(.*?)<!-- /golden-rows -->", re.S
)
# A number not glued to a word ("F2F", "M2") or to another number's digits.
NUMBER = re.compile(r"(?<![\w.])[-+]?\d+(?:\.\d+)?")


def _tables():
    for doc in DOCS:
        for i, (full, spec, table) in enumerate(BLOCK.findall((ROOT / doc).read_text())):
            yield pytest.param(bool(full), spec, table, id=f"{doc}#{i}")


@pytest.mark.parametrize("doc", DOCS)
def test_doc_has_checked_tables(doc):
    assert BLOCK.search((ROOT / doc).read_text()), f"{doc}: no golden-rows table"


@pytest.mark.parametrize(("full", "spec", "table"), list(_tables()))
def test_doc_table_matches_golden(full, spec, table, golden_rows, golden_rows_full):
    golden = golden_rows_full if full else golden_rows
    lines = [line.strip() for line in spec.strip().splitlines()]
    body = [r.strip() for r in table.strip().splitlines() if r.startswith("|")][2:]
    assert len(lines) == len(body), "one marker line per table body row"
    for line, row in zip(lines, body):
        if line == "-":
            continue
        eid, label, entries = (part.strip() for part in line.split("|"))
        model = {r["label"]: r["model"] for r in golden["experiments"][eid]}[label]
        numbers = NUMBER.findall(" ".join(row.strip("|").split("|")[1:]))
        fields = entries.split()
        assert len(numbers) == len(fields), f"{row}: numbers {numbers} vs {fields}"
        for number, field in zip(numbers, fields):
            if field == "-":
                continue
            value = model[field]
            if isinstance(value, str):
                value = float.fromhex(value)
            decimals = len(number.partition(".")[2])
            assert f"{value:.{decimals}f}" == number.lstrip("+"), (
                f"{row}: prints {field} = {number}, golden {eid}/{label} "
                f"is {value!r}"
            )
