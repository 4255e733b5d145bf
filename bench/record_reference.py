"""Record the reference values the correctness gate compares runs against.

Run from the root of a checkout, for a range of workload seeds::

    python3 bench/record_reference.py 0 63

For each seed and each workload that records references, this runs one pass
and writes what ``reference_values`` returns to ``bench/reference.json``,
keeping the entries of other seeds. Record only from a commit whose results
are known to be right: a run whose values differ from these counts as failed.
"""

from __future__ import annotations

import json
import sys
from pathlib import Path

from run import pin_blas_threads


def main(argv: list[str]) -> int:
    first, last = (int(a) for a in argv)
    pin_blas_threads()
    root = Path(__file__).resolve().parents[1]
    sys.path.insert(0, str(root / "src"))
    import workloads  # imports numpy, so only after the threads are pinned

    out_dir = Path(__file__).with_name("out")
    out_dir.mkdir(exist_ok=True)
    path = workloads.REFERENCE_PATH
    recorded = json.loads(path.read_text()) if path.is_file() else {}
    for name in ("quadratic_tune", "swan_wide"):
        workload = workloads.WORKLOADS[name]()
        for seed in range(first, last + 1):
            done = workload.run_pass(workload.setup(seed), out_dir)
            if done.failures:
                print(f"{name} seed {seed}: not recorded, {done.failures}", file=sys.stderr)
                return 1
            recorded.setdefault(name, {})[str(seed)] = workload.reference_values(done)
            print(f"{name} seed {seed}: recorded", flush=True)
            path.write_text(json.dumps(recorded, indent=1, sort_keys=True) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
