"""repro: a 3D DRAM DC power-integrity co-optimization platform.

A from-scratch reproduction of Peng et al., "Design, Packaging, and
Architectural Policy Co-optimization for DC Power Integrity in 3D DRAM"
(DAC 2015).  The package provides:

* block-level floorplans and calibrated power models for the paper's four
  3D DRAM benchmarks (:mod:`repro.floorplan`, :mod:`repro.power`,
  :mod:`repro.designs`);
* a parametric PDN generator over the Table 8 design space
  (:mod:`repro.pdn`);
* the R-Mesh sparse IR-drop engine with a fine-grid golden reference
  (:mod:`repro.rmesh`);
* a cycle-accurate memory controller simulator with JEDEC-standard and
  IR-drop-aware scheduling policies (:mod:`repro.controller`,
  :mod:`repro.dram`);
* the cost model, regression surrogate, and IR-cost co-optimizer
  (:mod:`repro.cost`, :mod:`repro.regress`, :mod:`repro.opt`);
* experiment drivers regenerating every table and figure of the paper's
  evaluation (:mod:`repro.experiments`, ``repro3d`` CLI).

Quick start::

    from repro import benchmark, build_stack, MemoryState

    bench = benchmark("ddr3_off")
    stack = build_stack(bench.stack, bench.baseline)
    state = MemoryState.from_string("0-0-0-2", bench.stack.dram_floorplan)
    print(stack.solve_state(state))
"""

import importlib
from typing import Any

#: public name -> the module that defines it; resolved on first access
#: (PEP 562), so ``import repro`` loads no numerics until a name is used.
_EXPORTS = {
    "BenchmarkSpec": "repro.designs",
    "all_benchmarks": "repro.designs",
    "benchmark": "repro.designs",
    "PDNConfig": "repro.pdn",
    "PDNStack": "repro.pdn",
    "StackSpec": "repro.pdn",
    "TSVLocation": "repro.pdn",
    "Bonding": "repro.pdn",
    "RDLScope": "repro.pdn",
    "BumpLocation": "repro.pdn",
    "Mounting": "repro.pdn",
    "build_stack": "repro.pdn",
    "cached_build_stack": "repro.perf",
    "MemoryState": "repro.power",
    "IRDropResult": "repro.rmesh",
    "StackSolver": "repro.rmesh",
}

#: subpackages and modules reachable as ``repro.<name>`` before import.
_SUBMODULES = frozenset(
    "bench cli controller cost designs dram envcfg errors experiments "
    "floorplan geometry obs opt pdn perf power regress reporting resil "
    "rmesh tech units".split()
)

__version__ = "1.0.0"

__all__ = [*_EXPORTS, "__version__"]


def __getattr__(name: str) -> Any:
    if name in _EXPORTS:
        value = getattr(importlib.import_module(_EXPORTS[name]), name)
    elif name in _SUBMODULES:
        value = importlib.import_module(f"repro.{name}")
    else:
        raise AttributeError(f"module 'repro' has no attribute {name!r}")
    globals()[name] = value
    return value
