"""Record the default-seed outputs that run.py checks as pins.

Usage, from the root of a checkout::

    python3 perfbench/pin.py > perfbench/pins.json

For each workload this builds the seed-0 inputs, computes the reference
outputs and their raw counts, runs one iteration, and prints what
``Workload.observed`` returns.  Run it only on a commit whose outputs are
known to be right; a later commit must reproduce these values bit for bit.
"""

from __future__ import annotations

import json
import sys
import tempfile
from pathlib import Path

from run import OUT_DIR, import_qfest
from workloads import DEFAULT_SEED, WORKLOADS, Tally


def main() -> int:
    q = import_qfest()
    OUT_DIR.mkdir(exist_ok=True)
    pins = {}
    for name, workload in WORKLOADS.items():
        tally = Tally()
        with tempfile.TemporaryDirectory(dir=OUT_DIR) as tmp:
            state = workload.setup(q, DEFAULT_SEED, Path(tmp))
            ref = workload.verify(q, state, tally)
            out, _ = workload.iteration(q, state)
            workload.check(ref, out, tally)
        if tally.failed:
            print(f"{name}: {tally.problems}", file=sys.stderr)
            return 1
        pins[name] = workload.observed(ref)
    print(json.dumps(pins, indent=2, sort_keys=True))
    return 0


if __name__ == "__main__":
    sys.exit(main())
