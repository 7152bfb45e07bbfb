"""Experiment drivers: one module per paper table / figure.

Each driver exposes ``run(fast: bool = True) -> ExperimentResult``; the
registry maps experiment ids (``"table6"``, ``"fig4"``, ...) to drivers.
``fast`` selects reduced sweeps where the full experiment is expensive
(the benchmark harness uses the full versions).

Importing this package imports no driver.  The static table
:data:`DRIVERS` names each id's module; ``registry[id]`` and
``run_experiment(id)`` import that one module on first use, so
``repro3d run ext_hmc`` never loads the co-optimizer's ``scipy.optimize``.
"""

from repro.experiments.base import (
    DRIVERS,
    ExperimentResult,
    Row,
    registry,
    run_experiment,
)

__all__ = ["DRIVERS", "ExperimentResult", "Row", "registry", "run_experiment"]
