"""Compare the output of two source trees on every benchmark command line.

Usage::

    python tools/body_audit.py <parent_src> <change_src> [--workload NAME] [--seeds S ...]

Each ``*_src`` is a directory that holds the ``riccitype`` package (a
checkout's ``src``).  The operations are those of ``perfbench/workloads.py``
(read, not changed), each run once per seed (default 0-7) with ``--seed``
appended; an operation that several workloads share is run once.  ``--workload``
(repeatable) narrows the run to some workloads, or selects a set that no
default run includes, run at the first seed only: ``k_ladder``, the commands
that read ``--k`` over the hyperbolic and elliptic tuples at small and large
scales, since it varies k instead (414 command lines), and ``ladder``,
``verify-geometry`` for the five chart kinds of ``samples_large`` at
n = 8, 12, 16, 24 and 32, since it varies n instead (25).  Every command line goes
through ``riccitype.cli.main`` in one fresh interpreter per tree, with stdout
and stderr captured, and with Python's warning registry reset per command line
so that each prints its warnings as it would in its own process; the path of
the tree, which a warning names, is compared as ``<src>``.  The trees run one
after the other.

Prints every command line whose exit code, stdout or stderr differs between
the two trees, then a summary line; exits 1 if any differs, else 0.
"""

from __future__ import annotations

import argparse
import contextlib
import io
import json
import subprocess
import sys
import warnings
from pathlib import Path

REPO = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(REPO / "perfbench"))

import workloads  # noqa: E402


def k_ladder() -> list[list[str]]:
    """construct, verify-geometry and transvection over the hyperbolic and elliptic tuples:
    a narrow ladder of k at n = 2, 3 and a wide one at n = 2-4."""
    ops = []
    for ks, n_values in [(("1e-7", "1e-3", "0.1", "2", "10", "100", "1e3"), (2, 3)),
                         (("1e-12", "1e-10", "1e6", "1e9", "1e12"), (2, 3, 4))]:
        for case, n, p, q in workloads._admissible_parameters(n_values):
            if case != "nilpotent":
                ops += [[command, *workloads._case_args(case, n, p, q), "--k", k]
                        for k in ks for command in ("construct", "verify-geometry",
                                                    "transvection")]
    return ops


def ladder() -> list[list[str]]:
    """verify-geometry for the five chart kinds of samples_large at n = 8, 12, 16, 24, 32."""
    charts = [("hyperbolic", 0, 0), ("elliptic", 1, 0), ("elliptic", 5, 0),
              ("nilpotent", 2, 1), ("nilpotent", 3, 2)]
    return [["verify-geometry", *workloads._case_args(case, n, p, q)]
            for n in (8, 12, 16, 24, 32) for case, p, q in charts]


#: the command-line sets that --workload selects: the benchmark's workloads, and the k
#: ladder and the size ladder, which run at the first seed only
SETS = {**workloads.WORKLOADS, "k_ladder": k_ladder, "ladder": ladder}
FIRST_SEED_ONLY = ("k_ladder", "ladder")


def command_lines(names, seeds) -> list[list[str]]:
    """The distinct operations of the named sets, each with every seed appended (the two
    ladders with the first seed only)."""
    lines = {}
    for name in names:
        for op in SETS[name]():
            for seed in seeds[:1] if name in FIRST_SEED_ONLY else seeds:
                line = workloads.with_seed(op, seed)
                lines.setdefault(workloads.op_key(line), line)
    return list(lines.values())


def run_tree(src: str, argvs: list[list[str]]) -> list[dict]:
    """Exit code, stdout and stderr of every command line, run in this interpreter; the
    tree's path, which warnings name, reads ``<src>`` in stderr."""
    root = Path(src).resolve()
    sys.path.insert(0, str(root))
    from riccitype import cli

    if Path(cli.__file__).resolve().parent.parent != root:
        raise SystemExit(f"riccitype imported from {cli.__file__}, not from {src}")
    results = []
    for argv in argvs:
        out, err = io.StringIO(), io.StringIO()
        with warnings.catch_warnings(), contextlib.redirect_stdout(out), \
                contextlib.redirect_stderr(err):
            try:
                code = cli.main(argv)
            except SystemExit as exc:  # argparse usage errors
                code = exc.code
            except Exception as exc:  # recorded, so that the other tree is compared too
                code = f"raised {type(exc).__name__}: {exc}"
        results.append({"code": code, "stdout": out.getvalue(),
                        "stderr": err.getvalue().replace(str(root), "<src>")})
    return results


def run_in_subprocess(src: str, argvs: list[list[str]]) -> list[dict]:
    """``run_tree`` in a fresh interpreter, so that the two trees share no module."""
    script = ("import json, sys; sys.path.insert(0, sys.argv[1]); import body_audit; "
              "spec = json.load(sys.stdin); "
              "json.dump(body_audit.run_tree(spec['src'], spec['argvs']), sys.stdout)")
    proc = subprocess.run([sys.executable, "-c", script, str(Path(__file__).resolve().parent)],
                          input=json.dumps({"src": src, "argvs": argvs}),
                          capture_output=True, text=True, check=False)
    if proc.returncode != 0:
        raise SystemExit(f"the run of {src} failed:\n{proc.stderr}")
    return json.loads(proc.stdout)


def differences(argvs, parent: list[dict], change: list[dict]) -> list[str]:
    """One line per command line whose exit code, stdout or stderr differs."""
    lines = []
    for argv, old, new in zip(argvs, parent, change, strict=True):
        fields = [key for key in ("code", "stdout", "stderr") if old[key] != new[key]]
        if fields:
            lines.append(f"{' '.join(argv)}: {', '.join(fields)} differ"
                         f" (exit {old['code']} -> {new['code']})")
    return lines


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("parent_src")
    parser.add_argument("change_src")
    parser.add_argument("--workload", action="append", choices=sorted(SETS),
                        help="audit only this workload or set (repeatable; default: every "
                             "benchmark workload)")
    parser.add_argument("--seeds", type=int, nargs="+", default=list(range(8)))
    args = parser.parse_args(argv)
    argvs = command_lines(args.workload or list(workloads.WORKLOADS), args.seeds)
    parent = run_in_subprocess(args.parent_src, argvs)
    change = run_in_subprocess(args.change_src, argvs)
    lines = differences(argvs, parent, change)
    for line in lines:
        print(line)
    print(f"{len(lines)} of {len(argvs)} command lines differ")
    return 1 if lines else 0


if __name__ == "__main__":
    sys.exit(main())
