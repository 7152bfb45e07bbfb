"""Record the outputs every benchmark run is checked against.

Usage, from the root of a checkout::

    python3 perfbench/record_references.py [--workload NAME ...]

Runs each named workload (default: all) once per input variant and
rewrites its entries in ``references.json``.  Re-record only for a
change that is meant to change the program's outputs.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path
from typing import Optional, Sequence

sys.path.insert(0, str(Path(__file__).resolve().parent.parent))

from perfbench import run as bench  # noqa: E402


def main(argv: Optional[Sequence[str]] = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", action="append")
    args = parser.parse_args(argv)
    bench.load_program()
    from perfbench.checks import REFERENCES
    from perfbench.workloads import VARIANTS, WORKLOADS

    references = json.loads(REFERENCES.read_text()) if REFERENCES.exists() else {}
    bench.WORKDIR.mkdir(exist_ok=True)
    try:
        for name in args.workload or sorted(WORKLOADS):
            workload = WORKLOADS[name]
            seeds = {workload.reference_key(seed): seed for seed in range(VARIANTS)}
            entries = {}
            for key, seed in sorted(seeds.items()):
                path = workload.setup(seed, bench.WORKDIR)
                record = bench.run_iteration(workload, path, traced=False)
                entries[key] = record["outputs"]
                print(f"{name} [{key}]: {record['wall_s']:.2f} s", file=sys.stderr)
            references[name] = entries
    finally:
        bench.remove_inputs()
    REFERENCES.write_text(json.dumps(references, indent=1, sort_keys=True) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
