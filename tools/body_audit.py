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
scales, since it varies k instead (414 command lines); ``ladder``,
``verify-geometry`` for the five chart kinds of ``samples_large`` at
n = 8, 12, 16, 24 and 32, since it varies n instead (25); and ``fail_paths``, the
command lines that drive the reports' FAIL paths (``verify-geometry`` under the
``omega`` fault, ``--tol 1e-30`` on every command that reads it, and D6's seed-13
line, which keeps its own seed; 186).  Every command line goes through
``riccitype.cli.main`` in one fresh interpreter per tree, with stdout and stderr
captured, and with Python's warning registry reset per command line so that each
prints its warnings as it would in its own process; the path of the tree, which
a warning names, is compared as ``<src>``.  The trees run one after the other.

A command line may begin with a ``fault=<name>`` token, which names an entry of
``FAULTS``: a deliberate change to the model that ``riccitype.core.build_model``
returns, so a negative control that the program itself does not carry.  The token
is stripped before ``cli.main`` and applied to both trees alike, and a printed
command line keeps it.

Prints every command line whose exit code, stdout or stderr differs between
the two trees, then a summary line; exits 1 if any differs, else 0.  Between
the two it prints one row per report entry whose float value moved in the
machine block: the number of command lines in which it moved and the largest
|delta|; then one row per other moved field, which names the command line, the
field and both values: an exit code, stderr, a machine-block line that is not
a float value, or the text outside the machine block beyond its floats.  When
the trees agree, only the summary line is printed.
"""

from __future__ import annotations

import argparse
import contextlib
import dataclasses
import io
import json
import re
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


def perturbed_omega(model):
    """A copy of the model with Omega[0, -1] += 1e-3, so that Omega is no longer
    antisymmetric: in the hyperbolic case every Sigma_A draw misses the quadric."""
    bad = model.omega.copy()
    bad[0, -1] += 1e-3
    return dataclasses.replace(model, omega=bad)


#: {name: fault}: a fault maps the model that ``riccitype.core.build_model`` returns to a
#: broken one; a command line that begins with ``fault=<name>`` runs under it
FAULTS = {"omega": perturbed_omega}


def split_fault(argv: list[str]) -> tuple[object, list[str]]:
    """(fault, command line): the ``FAULTS`` entry that a leading ``fault=<name>`` token
    names (None without one), and the command line without the token."""
    if argv and argv[0].startswith("fault="):
        return FAULTS[argv[0].removeprefix("fault=")], argv[1:]
    return None, argv


def fail_paths() -> list[list[str]]:
    """Command lines that drive the reports' FAIL paths: verify-geometry under the omega
    fault over the 46 tuples at n = 2-4, --tol 1e-30 for every command that reads it, and
    D6's seed 13."""
    tuples = [workloads._case_args(*params)
              for params in workloads._admissible_parameters((2, 3, 4))]
    return ([["fault=omega", "verify-geometry", *args] for args in tuples]
            + [[command, *args, "--tol", "1e-30"] for command in
               ("verify-geometry", "transvection", "find-transitive") for args in tuples]
            + [["quaternion-evidence", "--tol", "1e-30"],
               ["find-transitive", *workloads._case_args("nilpotent", 3, 2, 1), "--seed", "13"]])


#: the command-line sets that --workload selects: the benchmark's workloads, and the k
#: ladder, the size ladder and the FAIL paths, which run at the first seed only (a line
#: that names its own seed keeps it)
SETS = {**workloads.WORKLOADS, "k_ladder": k_ladder, "ladder": ladder, "fail_paths": fail_paths}
FIRST_SEED_ONLY = ("k_ladder", "ladder", "fail_paths")


def command_lines(names, seeds) -> list[list[str]]:
    """The distinct operations of the named sets, each with every seed appended (the two
    ladders with the first seed only)."""
    lines = {}
    for name in names:
        for op in SETS[name]():
            for seed in seeds[:1] if name in FIRST_SEED_ONLY else seeds:
                line = op if "--seed" in op else workloads.with_seed(op, seed)
                lines.setdefault(workloads.op_key(line), line)
    return list(lines.values())


@contextlib.contextmanager
def faulted(core, fault):
    """Patch ``core.build_model`` so that the models it returns pass through ``fault``
    (nothing for None) until the block ends."""
    build = core.build_model
    if fault is not None:
        core.build_model = lambda *args, **kwargs: fault(build(*args, **kwargs))
    try:
        yield
    finally:
        core.build_model = build


def run_tree(src: str, argvs: list[list[str]]) -> list[dict]:
    """Exit code, stdout and stderr of every command line, run in this interpreter, each
    under the fault its ``fault=<name>`` token names; the tree's path, which warnings
    name, reads ``<src>`` in stderr."""
    root = Path(src).resolve()
    sys.path.insert(0, str(root))
    from riccitype import cli, core

    if Path(cli.__file__).resolve().parent.parent != root:
        raise SystemExit(f"riccitype imported from {cli.__file__}, not from {src}")
    results = []
    for line in argvs:
        fault, argv = split_fault(line)
        out, err = io.StringIO(), io.StringIO()
        with warnings.catch_warnings(), contextlib.redirect_stdout(out), \
                contextlib.redirect_stderr(err), faulted(core, fault):
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


#: a float as the report renders it (``report._fmt``)
FLOAT = re.compile(r"[-+]?\d\.\d{9}e[-+]\d+")


def _split_body(stdout: str) -> tuple[str, dict]:
    """The human section of a report and its machine block as a dict of key=value lines
    (empty when the output has no machine block)."""
    head, sep, block = stdout.partition("\n-- machine --\n")
    return head, dict(line.split("=", 1) for line in block.splitlines()) if sep else {}


def entry_moves(argvs, parent: list[dict], change: list[dict]) -> tuple[dict, list[str]]:
    """({entry name: [command lines in which its float value moved, largest |delta|]},
    one line per other moved field)."""
    moves, others = {}, []
    for argv, old, new in zip(argvs, parent, change, strict=True):
        cmd = " ".join(argv)
        others += [f"{cmd}: {key} {old[key]!r} -> {new[key]!r}" for key in ("code", "stderr")
                   if old[key] != new[key]]
        (old_head, old_block), (new_head, new_block) = map(_split_body, (old["stdout"],
                                                                      new["stdout"]))
        if FLOAT.sub("<float>", old_head) != FLOAT.sub("<float>", new_head):
            others.append(f"{cmd}: the text outside the machine block differs beyond its floats")
        moved = {}
        for key in sorted(old_block.keys() | new_block.keys()):
            a, b = old_block.get(key), new_block.get(key)
            if a == b:
                continue
            if key.endswith(".value") and FLOAT.fullmatch(a or "") and FLOAT.fullmatch(b or ""):
                name = old_block[key.removesuffix("value") + "name"]
                moved[name] = max(moved.get(name, 0.0), abs(float(a) - float(b)))
            else:
                others.append(f"{cmd}: {key} {a!r} -> {b!r}")
        for name, delta in moved.items():
            row = moves.setdefault(name, [0, 0.0])
            row[0], row[1] = row[0] + 1, max(row[1], delta)
    return moves, others


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
    moves, others = entry_moves(argvs, parent, change)
    for name, (count, delta) in sorted(moves.items(), key=lambda row: (-row[1][0], row[0])):
        print(f"entry {name}: {count} lines, largest |delta| {delta:.3e}")
    for line in others:
        print(f"moved {line}")
    print(f"{len(lines)} of {len(argvs)} command lines differ")
    return 1 if lines else 0


if __name__ == "__main__":
    sys.exit(main())
