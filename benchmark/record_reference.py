"""Record the reference outputs that the benchmark checks each run against.

    python3 benchmark/record_reference.py              # all workloads
    python3 benchmark/record_reference.py snr_k3 m64_k2

Run from the root of a checkout. For every workload it records the outputs
of seeds 0..SEEDS-1: the error count of each (grid point, detector) of a
sweep, and the per-quantity verdicts of the oracle bundle. An oracle verdict
is an absolute check, so recording refuses a seed on which a quantity fails.
Re-record only when a change is meant to alter outputs, and say so.
"""

from __future__ import annotations

import json
import sys

import run

SEEDS = 32


def dumps(reference: dict) -> str:
    """JSON text with one line per recorded seed, so re-recording diffs by seed."""
    blocks = []
    for name, recorded in reference["workloads"].items():
        rows = ",\n".join(f"   {json.dumps(seed)}: {json.dumps(out)}"
                          for seed, out in recorded.items())
        blocks.append(f"  {json.dumps(name)}: {{\n{rows}\n  }}")
    return '{\n "workloads": {\n' + ",\n".join(blocks) + "\n }\n}\n"


def record(names) -> dict:
    import workloads

    path = run.BENCH_DIR / "reference.json"
    recorded_before = json.loads(path.read_text())["workloads"] if path.exists() else {}
    reference = {"workloads": recorded_before}
    for name in names:
        workload = workloads.WORKLOADS[name]
        recorded = {}
        for seed in range(SEEDS):
            outputs = workload.run(workload.inputs(seed))
            failed = [q for q, passed in outputs if not passed] if name == "oracle" else []
            if failed:
                raise RuntimeError(f"oracle seed {seed}: {', '.join(failed)} fail the 99% rule")
            recorded[str(seed)] = outputs
            print(f"{name} seed {seed}: {outputs}", file=sys.stderr, flush=True)
        reference["workloads"][name] = recorded
    path.write_text(dumps(reference))
    return reference


if __name__ == "__main__":
    run._import_library()
    import workloads

    record(sys.argv[1:] or list(workloads.WORKLOADS))
