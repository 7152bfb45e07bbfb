"""Shared fixtures.

Expensive objects (built stacks, factorized solvers, the IR-drop LUT) are
session-scoped: they are immutable after construction and shared by many
tests.
"""

from __future__ import annotations

import json
from dataclasses import asdict
from pathlib import Path

import pytest

from repro.controller import IRDropLUT
from repro.designs import hmc, off_chip_ddr3, on_chip_ddr3, wide_io
from repro.pdn import Bonding, build_stack


@pytest.fixture(scope="session")
def ddr3_off_bench():
    return off_chip_ddr3()


@pytest.fixture(scope="session")
def ddr3_on_bench():
    return on_chip_ddr3()


@pytest.fixture(scope="session")
def wideio_bench():
    return wide_io()


@pytest.fixture(scope="session")
def hmc_bench():
    return hmc()


@pytest.fixture(scope="session")
def ddr3_stack(ddr3_off_bench):
    """Off-chip stacked DDR3 at its baseline configuration."""
    return build_stack(ddr3_off_bench.stack, ddr3_off_bench.baseline)


@pytest.fixture(scope="session")
def ddr3_f2f_stack(ddr3_off_bench):
    return build_stack(
        ddr3_off_bench.stack,
        ddr3_off_bench.baseline.with_options(bonding=Bonding.F2F),
    )


@pytest.fixture(scope="session")
def onchip_stack(ddr3_on_bench):
    """On-chip stack with coupled PDNs (no dedicated TSVs)."""
    return build_stack(
        ddr3_on_bench.stack,
        ddr3_on_bench.baseline.with_options(dedicated_tsv=False),
    )


@pytest.fixture(scope="session")
def paper_stacks(ddr3_off_bench, ddr3_on_bench, wideio_bench, hmc_bench):
    """All four paper benchmarks at baseline: {key: (bench, stack)}."""
    benches = (ddr3_off_bench, ddr3_on_bench, wideio_bench, hmc_bench)
    return {b.key: (b, build_stack(b.stack, b.baseline)) for b in benches}


@pytest.fixture(scope="session")
def ddr3_lut(ddr3_stack):
    """Fully precomputed IR-drop LUT on the DDR3 baseline."""
    return IRDropLUT(ddr3_stack)


@pytest.fixture(scope="session")
def ddr3_lut_json(ddr3_lut):
    """The DDR3 LUT serialized as firmware-style JSON."""
    return ddr3_lut.to_json()


@pytest.fixture(scope="session")
def ddr3_floorplan(ddr3_off_bench):
    return ddr3_off_bench.stack.dram_floorplan


GOLDEN_DECISIONS = Path(__file__).parent / "golden" / "controller_decisions.json"


@pytest.fixture(scope="session")
def golden_decisions():
    """Frozen controller decisions: ``{"lut": <IRDropLUT.to_json text>,
    "cases": {name: <SimResult fields>}}`` (provenance in
    ``tests/test_engine_equivalence.py``)."""
    return json.loads(GOLDEN_DECISIONS.read_text())


@pytest.fixture(scope="session")
def golden_lut(golden_decisions):
    """The DDR3 LUT the golden cases ran under, solver-free."""
    return IRDropLUT.from_json(golden_decisions["lut"])


@pytest.fixture(scope="session")
def assert_golden(golden_decisions):
    """``check(name, result)``: every ``SimResult`` field equals the
    golden case exactly (JSON floats round-trip, so ``==`` is exact)."""

    def check(name, result):
        want = golden_decisions["cases"][name]
        got = asdict(result)
        got["state_occupancy"] = sorted(
            [list(state), cycles]
            for state, cycles in result.state_occupancy.items()
        )
        assert got.keys() == want.keys()
        for key in want:
            assert got[key] == want[key], f"{name}: SimResult.{key} diverged"

    return check


GOLDEN_ROWS = Path(__file__).parent / "golden" / "experiment_rows.json"
GOLDEN_ROWS_FULL = Path(__file__).parent / "golden" / "experiment_rows_full.json"


@pytest.fixture(scope="session")
def golden_rows():
    """Frozen fast-mode experiment rows: ``{"excluded_model_fields": ...,
    "experiments": {id: [{"label", "paper", "model"}, ...]}}``, floats
    as ``float.hex`` (nothing regenerates the file)."""
    return json.loads(GOLDEN_ROWS.read_text())


@pytest.fixture(scope="session")
def golden_rows_full():
    """Frozen full-mode experiment rows, laid out like :func:`golden_rows`."""
    return json.loads(GOLDEN_ROWS_FULL.read_text())


def _rows_checker(golden):
    """``check(result)``: every row of an ``ExperimentResult`` equals the
    golden bitwise -- labels, paper and model fields, and value types --
    apart from the wall-clock fields the golden excludes by name."""

    def encode(value):
        return value.hex() if isinstance(value, float) else value

    def check(result):
        eid = result.experiment_id
        skip = golden["excluded_model_fields"].get(eid, {}).get("fields", ())
        got = [
            {
                "label": row.label,
                "paper": {k: encode(v) for k, v in row.paper.items()},
                "model": {
                    k: encode(v)
                    for k, v in row.model.items()
                    if k not in skip
                },
            }
            for row in result.rows
        ]
        assert got == golden["experiments"][eid], f"{eid}: rows diverged"

    return check


@pytest.fixture(scope="session")
def assert_rows_golden(golden_rows):
    """Checks fast-mode rows against ``experiment_rows.json``."""
    return _rows_checker(golden_rows)


@pytest.fixture(scope="session")
def assert_full_rows_golden(golden_rows_full):
    """Checks full-mode rows against ``experiment_rows_full.json``."""
    return _rows_checker(golden_rows_full)
