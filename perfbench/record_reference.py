"""Record the reference signature of every operation of a workload.

    python3 perfbench/record_reference.py [--workload NAME ...] [--seeds N]

Runs one untraced pass per seed 0..N-1 and writes
``perfbench/reference/<workload>.json``: per operation, the overall
verdicts seen and the merged signature (see ``check.py``).  Operations that
reported FAIL at some seed are listed under ``known_failing``; at the
commit that first recorded the reference these are defect D1 (the 12
nilpotent p = n+1 ``transvection`` operations of ``admissible_sweep``) and
defect D2 (``find-transitive`` nilpotent n = 6 in ``samples_large``).
"""

from __future__ import annotations

import argparse
import json
import sys

import check
import run
import workloads


def record(workload: str, seeds: int) -> dict:
    base = workloads.operations(workload)
    outcomes: list[list[dict]] = [[] for _ in base]
    for seed in range(seeds):
        result = run.run_pass([workloads.with_seed(op, seed) for op in base], trace=False)
        for per_op, outcome in zip(outcomes, result["outcomes"]):
            if outcome["problem"]:
                raise SystemExit(f"seed {seed}: {outcome['problem']}")
            per_op.append(outcome)
        print(f"{workload} seed {seed}: {result['wall_s']:.2f} s", file=sys.stderr)
    operations = {workloads.op_key(op): check.merge_reference(per_op)
                  for op, per_op in zip(base, outcomes)}
    return {
        "seeds": list(range(seeds)),
        "known_failing": [key for key, ref in operations.items() if check.FAIL in ref["verdicts"]],
        "operations": operations,
    }


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", action="append", choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--seeds", type=int, default=8)
    args = parser.parse_args()
    run.REFERENCE.mkdir(exist_ok=True)
    for workload in args.workload or sorted(workloads.WORKLOADS):
        data = record(workload, args.seeds)
        ops = ",\n".join(f"  {json.dumps(key)}: {json.dumps(ref)}"
                         for key, ref in data["operations"].items())
        with open(run.REFERENCE / f"{workload}.json", "w") as fh:
            fh.write(f'{{"seeds": {json.dumps(data["seeds"])},\n'
                     f'"known_failing": {json.dumps(data["known_failing"], indent=1)},\n'
                     f'"operations": {{\n{ops}\n}}}}\n')


if __name__ == "__main__":
    main()
