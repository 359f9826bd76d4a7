"""Benchmark of the riccitype certificate engine.

    python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>

Run from the root of a source checkout; the program is imported from
``src/``.  Each pass runs a fresh interpreter (``worker.py``) that drives
``riccitype.cli.main(argv)`` over the workload's operations as a closed
loop with one client; every operation gets ``--seed <n>``.

``--trace 0`` measures the end-to-end metrics: ``setup_s`` is the median
time of several fresh imports of ``riccitype.cli``; then untraced passes
run while the next one is expected to end within ``--seconds``, and each
metric is the median over the passes.  BLAS threads are left at their
defaults so that ``cpu_s`` shows thread behaviour.

``--trace 1`` runs one untraced and one traced pass with the same inputs,
checks that every report body is byte-identical between them, and gives the
per-layer metrics of the traced pass plus the tracing overhead (the
difference of the two passes' wall time).  Spans are written to
``.perfbench_out/``.

The last line of standard output is one JSON object with ``correct``,
``attempted``, ``failed`` and ``metrics``; lines before it record the
environment and print every metric, ``fail_share`` included, with its unit.
Exit code 2 without a result means the benchmark could not run.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import check  # noqa: E402
import workloads  # noqa: E402

ROOT = HERE.parent
SRC = ROOT / "src"
OUT = ROOT / ".perfbench_out"
REFERENCE = HERE / "reference"
SETUP_REPEATS = 5
# a run makes at most two passes after the set-up imports, and must end within 180 s
SETUP_TIMEOUT_S = 10
PASS_TIMEOUT_S = 80
IMPORT_PROBE = ("import sys, time\n"
                "sys.path.insert(0, sys.argv[1])\n"
                "start = time.perf_counter()\n"
                "import riccitype.cli\n"
                "print(time.perf_counter() - start)\n")


class BenchmarkError(RuntimeError):
    """The benchmark could not run; no result is printed."""


def _run(cmd: list[str], timeout: float, stdin: str | None = None) -> str:
    proc = subprocess.run(cmd, input=stdin, capture_output=True, text=True,
                          timeout=timeout, cwd=ROOT)
    if proc.returncode != 0:
        raise BenchmarkError(f"{cmd[1]} exited {proc.returncode}: {proc.stderr.strip()[-2000:]}")
    return proc.stdout


def setup_time() -> float:
    """Import time of ``riccitype.cli`` in a fresh interpreter."""
    return float(_run([sys.executable, "-c", IMPORT_PROBE, str(SRC)], SETUP_TIMEOUT_S).strip())


def run_pass(ops: list[list[str]], trace: bool, spans_path: Path | None = None) -> dict:
    spec = {"src": str(SRC), "ops": ops, "trace": trace,
            "spans_path": str(spans_path) if spans_path else None}
    out = _run([sys.executable, str(HERE / "worker.py")], PASS_TIMEOUT_S, stdin=json.dumps(spec))
    return json.loads(out.strip().splitlines()[-1])


def load_reference(workload: str) -> dict:
    path = REFERENCE / f"{workload}.json"
    if not path.is_file():
        raise BenchmarkError(f"no reference signatures at {path}")
    with open(path) as fh:
        return json.load(fh)["operations"]


def assess(ops: list[list[str]], passes: list[dict], reference: dict) -> dict:
    """Failure accounting and correctness over all passes of one run."""
    problems, notes = [], []
    attempted = failed = changed = 0
    for p in passes:
        for argv, outcome in zip(ops, p["outcomes"]):
            key = workloads.op_key(argv[:-2])
            ref = reference.get(key)
            attempted += 1
            failed += outcome["status"] == "failed"
            if outcome["problem"]:
                problems.append(f"{key}: {outcome['problem']}")
            if check.unexpected_fail(outcome, ref):
                notes.append(f"{key}: FAIL, which no reference seed showed")
            if ref is None or check.signature_changed(outcome["signature"], ref):
                changed += 1
    for i, argv in enumerate(ops):
        if len({p["outcomes"][i]["sha256"] for p in passes}) > 1:
            problems.append(f"{workloads.op_key(argv[:-2])}: report body differs between passes")
    return {"attempted": attempted, "failed": failed, "problems": problems, "notes": notes,
            "signature_changes": changed / len(passes)}


def untraced_run(ops, seconds: float, reference: dict):
    setup_time()  # warm-up: the first import in a checkout also compiles bytecode
    setups = [setup_time() for _ in range(SETUP_REPEATS)]
    passes = []
    start = time.perf_counter()
    while True:
        passes.append(run_pass(ops, trace=False))
        elapsed = time.perf_counter() - start
        if elapsed + elapsed / len(passes) > seconds:
            break
    verdict = assess(ops, passes, reference)
    attempted, failed = verdict["attempted"], verdict["failed"]
    metrics = {
        "wall_s": (statistics.median(p["wall_s"] for p in passes), "s"),
        "cpu_s": (statistics.median(p["cpu_s"] for p in passes), "s"),
        "peak_rss_mb": (statistics.median(p["peak_rss_mb"] for p in passes), "MB"),
        "ok_share": (1.0 - failed / attempted, "ratio"),
        "setup_s": (statistics.median(setups), "s"),
    }
    extra = {"fail_share": (failed / attempted, "ratio"), "passes": (len(passes), "count"),
             "signature_changes": (verdict["signature_changes"], "count")}
    return metrics, extra, passes, verdict


def traced_run(ops, workload: str, seed: int, reference: dict):
    plain = run_pass(ops, trace=False)
    traced = run_pass(ops, trace=True, spans_path=OUT / f"spans-{workload}-seed{seed}.json.gz")
    passes = [plain, traced]
    verdict = assess(ops, passes, reference)
    metrics = {}
    for name, value in traced["layers"].items():
        unit = "s" if name.endswith("_s") or name.endswith(".s") else "count"
        metrics[name] = (value, "MB" if name.endswith("_mb") else unit)
    metrics["report.signature_changes"] = (verdict["signature_changes"], "count")
    metrics["trace.overhead_s"] = (traced["wall_s"] - plain["wall_s"], "s")
    extra = {"trace.untraced_wall_s": (plain["wall_s"], "s"),
             "trace.traced_wall_s": (traced["wall_s"], "s"),
             "trace.spans": (traced["spans"], "count")}
    return metrics, extra, passes, verdict


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    args = parser.parse_args(argv)
    try:
        if not (SRC / "riccitype" / "cli.py").is_file():
            raise BenchmarkError(f"no riccitype sources under {SRC}")
        reference = load_reference(args.workload)
        ops = [workloads.with_seed(op, args.seed) for op in workloads.operations(args.workload)]
        OUT.mkdir(exist_ok=True)
        if args.trace:
            metrics, extra, passes, verdict = traced_run(ops, args.workload, args.seed, reference)
        else:
            metrics, extra, passes, verdict = untraced_run(ops, args.seconds, reference)
    except (BenchmarkError, subprocess.TimeoutExpired, OSError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2

    env = dict(passes[0]["env"], workload=args.workload, seed=args.seed, trace=args.trace)
    print("env " + json.dumps(env, sort_keys=True))
    for problem in verdict["problems"]:
        print(f"problem {problem}")
    for note in verdict["notes"]:
        print(f"note {note}")
    for name, (value, unit) in {**metrics, **extra}.items():
        print(f"metric {name} {value!r} {unit}")
    record = {"env": env, "metrics": metrics, "extra": extra, "problems": verdict["problems"],
              "notes": verdict["notes"],
              "passes": [{k: v for k, v in p.items() if k != "outcomes"} for p in passes],
              "op_wall_s": {workloads.op_key(op[:-2]): [p["outcomes"][i]["wall_s"] for p in passes]
                            for i, op in enumerate(ops)}}
    with open(OUT / f"result-{args.workload}-seed{args.seed}-trace{args.trace}.json", "w") as fh:
        json.dump(record, fh, indent=1)
    result = {"correct": not verdict["problems"], "attempted": verdict["attempted"],
              "failed": verdict["failed"],
              "metrics": {name: {"value": value, "unit": unit}
                          for name, (value, unit) in metrics.items()}}
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
