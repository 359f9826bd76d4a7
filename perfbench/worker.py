"""One pass of a workload in a fresh interpreter.

Reads a JSON spec on stdin: ``{"src": <dir holding riccitype>, "ops": [argv,
...], "trace": bool, "spans_path": <file or null>}``.  Runs every operation
through ``riccitype.cli.main(argv)`` in order, each starting after the
previous one returned (a closed loop with one client), captures each
report, and prints one JSON line with the pass's timings, the outcome of
every operation and, when traced, the per-layer metrics.
"""

from __future__ import annotations

import contextlib
import ctypes
import gzip
import hashlib
import io
import json
import os
import platform
import resource
import sys
import time
import traceback
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))

import check  # noqa: E402
import tracer as tracing  # noqa: E402


def _rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss * 1024 / 1e6


def _cpu_s() -> float:
    usage = resource.getrusage(resource.RUSAGE_SELF)
    return usage.ru_utime + usage.ru_stime


def _openblas_threads() -> list[dict]:
    """Thread count each loaded OpenBLAS library reports for itself."""
    paths = []
    with open("/proc/self/maps") as fh:
        for line in fh:
            path = line.split()[-1]
            if "openblas" in path.lower() and ".so" in path and path not in paths:
                paths.append(path)
    out = []
    for path in paths:
        lib = ctypes.CDLL(path)
        threads = None
        for symbol in ("scipy_openblas_get_num_threads64_", "scipy_openblas_get_num_threads",
                       "openblas_get_num_threads64_", "openblas_get_num_threads"):
            fn = getattr(lib, symbol, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                threads = fn()
                break
        out.append({"library": os.path.basename(path), "threads": threads})
    return out


def environment() -> dict:
    import numpy
    import scipy

    def blas(module) -> str:
        info = module.show_config(mode="dicts")["Build Dependencies"]["blas"]
        return f"{info.get('name')} {info.get('version')}"

    return {
        "nproc": os.cpu_count(),
        "affinity": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "numpy_blas": blas(numpy),
        "scipy_blas": blas(scipy),
        "openblas_threads": _openblas_threads(),
        "OPENBLAS_NUM_THREADS": os.environ.get("OPENBLAS_NUM_THREADS"),
        "OMP_NUM_THREADS": os.environ.get("OMP_NUM_THREADS"),
    }


def _run_op(cli, argv: list[str]) -> dict:
    out, err = io.StringIO(), io.StringIO()
    code, error = None, None
    try:
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = cli.main(argv)
    except SystemExit as exc:  # argparse usage errors
        code = exc.code if isinstance(exc.code, int) else 2
    except Exception as exc:  # an operation that raises is recorded as failed
        error = "".join(traceback.format_exception(exc, limit=-2)).strip()
    body = out.getvalue()
    outcome = check.classify(argv[0], code, body, error)
    outcome["exit_code"] = code
    outcome["sha256"] = hashlib.sha256(body.encode()).hexdigest()
    return outcome


def run_pass(spec: dict) -> dict:
    src = Path(spec["src"]).resolve()
    sys.path.insert(0, str(src))
    from riccitype import cli

    if Path(cli.__file__).resolve().parent.parent != src:
        raise SystemExit(f"riccitype imported from {cli.__file__}, not from {src}")
    tracer = tracing.Tracer() if spec["trace"] else None
    if tracer is not None:
        tracer.install()
    outcomes = []
    cpu0 = _cpu_s()
    start = time.perf_counter()
    for index, argv in enumerate(spec["ops"]):
        if tracer is not None:
            tracer.op = index
        op_start = time.perf_counter()
        outcomes.append(_run_op(cli, argv))
        outcomes[-1]["wall_s"] = time.perf_counter() - op_start
    wall = time.perf_counter() - start
    cpu = _cpu_s() - cpu0
    result = {"wall_s": wall, "cpu_s": cpu, "peak_rss_mb": _rss_mb(),
              "outcomes": outcomes, "env": environment()}
    if tracer is not None:
        tracer.uninstall()
        result["layers"] = tracing.layer_metrics(tracer.spans, tracer.extras)
        result["spans"] = len(tracer.spans)
        if spec.get("spans_path"):
            with gzip.open(spec["spans_path"], "wt") as fh:
                json.dump({"columns": ["name", "layer", "start", "end", "parent", "op"],
                           "ops": [" ".join(argv) for argv in spec["ops"]],
                           "spans": tracer.spans}, fh, separators=(",", ":"))
    return result


def main() -> None:
    spec = json.load(sys.stdin)
    result = run_pass(spec)
    sys.stdout.write(json.dumps(result) + "\n")


if __name__ == "__main__":
    main()
