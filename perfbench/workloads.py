"""Operation lists of the benchmark workloads.

An operation is one ``riccitype`` command line without ``--seed``; the
benchmark appends ``--seed <workload seed>`` to every operation, so a seed
changes the sampled inputs and never the operation list.

Sizing rule: no configuration may need a dense ``null_space`` U in
``lie.center`` above about 1 GB.  U is (dim * N^2)^2 doubles for an algebra
of dimension dim in gl(N); hyperbolic ``transvection`` needs 0.7 GB at
n = 6, 2.1 GB at n = 7 and 5.4 GB at n = 8, so n = 6 is the largest
hyperbolic size here.
"""

from __future__ import annotations

ADMISSIBLE_N = (2, 3, 4)


def _case_args(case: str, n: int, p: int = 0, q: int = 0) -> list[str]:
    args = ["--case", case, "--n", str(n)]
    if case == "elliptic":
        args += ["--p", str(p)]
    elif case == "nilpotent":
        args += ["--p", str(p), "--q", str(q)]
    return args


def _admissible_parameters(n_values) -> list[tuple[str, int, int, int]]:
    """Copy of ``riccitype.core.admissible_parameters`` kept here so that the
    operation list does not depend on the code under test."""
    out = []
    for n in n_values:
        out.append(("hyperbolic", n, 0, 0))
        for p in range(1, n + 2):
            out.append(("elliptic", n, p, n + 1 - p))
        for p in range(1, n + 2):
            for q in range(1, p + 1):
                out.append(("nilpotent", n, p, q))
    return out


#: One small operation per command and code path at n = 2.  Appended to the
#: workloads that do not reach every layer on their own, so that every
#: per-layer metric is a measured, non-zero time on every workload; together
#: they cost well under a second per pass.
PROBES = [
    ["construct"] + _case_args("hyperbolic", 2),
    ["verify-geometry"] + _case_args("hyperbolic", 2),
    ["verify-geometry"] + _case_args("nilpotent", 2, 2, 1),
    ["transvection"] + _case_args("nilpotent", 2, 2, 1),
    ["find-transitive"] + _case_args("nilpotent", 2, 2, 1),
    ["find-transitive"] + _case_args("elliptic", 2, 1),
    ["quaternion-evidence"],
]


def algebra_large() -> list[list[str]]:
    return [
        ["transvection"] + _case_args("hyperbolic", 6),
        ["transvection"] + _case_args("elliptic", 6, 3),
        ["transvection"] + _case_args("nilpotent", 7, 3, 1),
        ["transvection"] + _case_args("nilpotent", 7, 2, 1),
        ["find-transitive"] + _case_args("elliptic", 6, 1),
    ] + PROBES


def samples_large() -> list[list[str]]:
    charts = [("hyperbolic", 0, 0), ("elliptic", 1, 0), ("elliptic", 5, 0),
              ("nilpotent", 2, 1), ("nilpotent", 3, 2)]
    ops = [["verify-geometry"] + _case_args(case, 16, p, q) for case, p, q in charts]
    ops.append(["find-transitive"] + _case_args("nilpotent", 6, 2, 1))
    return ops + PROBES


def admissible_sweep() -> list[list[str]]:
    ops = []
    for case, n, p, q in _admissible_parameters(ADMISSIBLE_N):
        for command in ("construct", "verify-geometry", "transvection", "find-transitive"):
            ops.append([command] + _case_args(case, n, p, q))
    ops.append(["quaternion-evidence"])
    return ops


WORKLOADS = {
    "algebra_large": algebra_large,
    "samples_large": samples_large,
    "admissible_sweep": admissible_sweep,
}


def operations(workload: str) -> list[list[str]]:
    return WORKLOADS[workload]()


def with_seed(op: list[str], seed: int) -> list[str]:
    return op + ["--seed", str(seed)]


def op_key(op: list[str]) -> str:
    return " ".join(op)
