"""Self-test of the benchmark at tiny sizes.

    python3 perfbench/selftest.py

Runs the n = 2 probe operations plus a deliberately corrupted model and
checks that:
  * every end-to-end and per-layer metric named in BENCHMARK.json is emitted;
  * ``verify-geometry --debug-corrupt-omega`` is counted as failed, and so are
    an operation that exits with code 2 and one that raises;
  * another workload seed changes the sampled inputs but not the operation list;
  * traced and untraced report bodies are byte-identical;
  * without the program's sources the benchmark exits non-zero and prints no result.
Exits 0 when every check holds, 1 otherwise.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys

import check
import run
import workloads

CORRUPT = ["verify-geometry", "--case", "nilpotent", "--n", "2", "--p", "2", "--q", "1",
           "--debug-corrupt-omega"]
#: the sampler raises on a corrupted hyperbolic model instead of reporting FAIL
RAISES = ["verify-geometry", "--case", "hyperbolic", "--n", "2", "--debug-corrupt-omega"]


def _expect(ok: bool, what: str, failures: list[str]) -> None:
    print(f"{'ok  ' if ok else 'FAIL'} {what}")
    if not ok:
        failures.append(what)


def main() -> int:
    failures: list[str] = []
    with open(run.ROOT / "BENCHMARK.json") as fh:
        bench = json.load(fh)
    base = workloads.PROBES + [CORRUPT]
    ops = [workloads.with_seed(op, 1) for op in base]
    first = run.run_pass(ops, trace=False)
    reference = {workloads.op_key(op): check.merge_reference([outcome])
                 for op, outcome in zip(base, first["outcomes"])}
    run.OUT.mkdir(exist_ok=True)

    metrics, extra, _, verdict = run.untraced_run(ops, 0.0, reference)
    expected = {m["name"] for m in bench["end_to_end"]}
    _expect(set(metrics) == expected, "end-to-end metric names match BENCHMARK.json", failures)
    _expect(all(value > 0 for name, (value, _) in metrics.items()), "end-to-end metrics > 0",
            failures)
    corrupt = first["outcomes"][-1]
    _expect(corrupt["status"] == "failed" and corrupt["verdict"] == check.FAIL,
            "--debug-corrupt-omega is counted as failed", failures)
    _expect(verdict["failed"] == 1 and extra["fail_share"][0] == 1 / len(ops),
            "fail_share counts exactly the corrupted operation", failures)
    _expect(not verdict["problems"], "no problems in the untraced run", failures)

    bad = run.run_pass([["construct", "--case", "nilpotent", "--n", "2", "--seed", "1"],
                        RAISES + ["--seed", "1"]], trace=False)["outcomes"]
    _expect(bad[0]["status"] == "failed" and bad[0]["problem"] == "exit code 2",
            "a usage error (exit code 2) is counted as failed and incorrect", failures)
    _expect(bad[1]["status"] == "failed" and bad[1]["problem"].startswith("raised"),
            "an operation that raises is counted as failed and incorrect", failures)

    metrics, _, passes, verdict = run.traced_run(ops, "selftest", 1, reference)
    expected = {m["name"] for m in bench["per_layer"]}
    _expect(set(metrics) == expected, "per-layer metric names match BENCHMARK.json", failures)
    _expect(all(a["sha256"] == b["sha256"]
                for a, b in zip(passes[0]["outcomes"], passes[1]["outcomes"])),
            "traced and untraced report bodies are byte-identical", failures)
    _expect(not verdict["problems"], "no problems in the traced run", failures)

    for name in bench["workloads"]:
        lists = [[op[:-2] for op in
                  (workloads.with_seed(o, s) for o in workloads.operations(name["name"]))]
                 for s in (1, 2)]
        _expect(lists[0] == lists[1] == workloads.operations(name["name"]),
                f"{name['name']}: the seed does not change the operation list", failures)
    other = run.run_pass([workloads.with_seed(op, 2) for op in base], trace=False)
    # construct prints no seed, so its output changes only through the sampled points
    _expect(first["outcomes"][0]["sha256"] != other["outcomes"][0]["sha256"],
            "another seed changes the sampled construct output", failures)

    bare = run.OUT / "bare-checkout"
    shutil.rmtree(bare, ignore_errors=True)
    bare.mkdir(parents=True)
    shutil.copy(run.ROOT / "BENCHMARK.json", bare)
    shutil.copytree(run.HERE, bare / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = subprocess.run([sys.executable, "perfbench/run.py", "--workload", "algebra_large",
                           "--seed", "1", "--seconds", "1", "--trace", "0"],
                          cwd=bare, capture_output=True, text=True, timeout=120)
    shutil.rmtree(bare)
    _expect(proc.returncode != 0 and '"correct"' not in proc.stdout,
            "without sources the benchmark exits non-zero and prints no result", failures)

    print(f"{len(failures)} self-test check(s) failed" if failures else "self-test passed")
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
