"""Reach guard: every function of the package runs in some command, or is allowlisted.

Small ``cli.main`` operations, one per command and per ``find-transitive``
branch plus ``--exact``, ``--candidate-file``, ``--debug-corrupt-omega`` and a
failing ``--tol``, run under ``sys.setprofile``.  The ``def`` functions of ``src/riccitype``
(methods and nested functions included) that never run must be exactly the
allowlist: a helper that no command reaches belongs in the tests, or nowhere.

A second guard reads the source alone: every parameter of a ``def`` or
``lambda`` in the package is read in its body, or is allowlisted.  A
parameter that no body reads is one every caller must still supply.

A third guard lifts the second to the command line: every flag that a command
accepts (its row of ``cli.COMMANDS``) moves the command's output, its
``config`` lines removed, for some value, or is allowlisted.
"""

import ast
import re
import sys
from pathlib import Path

import riccitype
from riccitype import cli

PACKAGE = Path(riccitype.__file__).resolve().parent

#: functions that no command runs: desk-scale parameter lists and the candidate
#: writer, which tests and callers use, and test-facing primitives
NEVER_RUN = {
    "core.admissible_parameters",
    "serialize.format_candidate",
    "serialize.format_vector",
    "core.SymplecticModel.pairing",
    "lie.bracket",
    "cli.script_main",
}

#: parameters that their function's body never reads, as "module.qualname(parameter)"
UNREAD_PARAMETERS = set()

#: flags of a small operation, each passed to the commands that accept it
SMALL = {"n": "2", "samples": "5"}
OPERATIONS = [
    ["construct", "--case", "hyperbolic"],
    # two FAIL reports: a sampled entry's witness, and a failed construction
    ["verify-geometry", "--case", "hyperbolic", "--tol", "1e-30"],
    ["verify-geometry", "--case", "hyperbolic", "--debug-corrupt-omega"],
    ["verify-geometry", "--case", "elliptic", "--p", "1"],
    ["verify-geometry", "--case", "elliptic", "--p", "2"],
    ["verify-geometry", "--case", "nilpotent", "--p", "2", "--q", "1"],
    ["verify-geometry", "--case", "nilpotent", "--p", "3", "--q", "2"],
    ["transvection", "--case", "hyperbolic", "--exact"],
    ["transvection", "--case", "nilpotent", "--p", "2", "--q", "1"],
    ["find-transitive", "--case", "hyperbolic"],
    ["find-transitive", "--case", "elliptic", "--p", "1"],
    ["find-transitive", "--case", "elliptic", "--p", "2"],
    ["find-transitive", "--case", "nilpotent", "--p", "1", "--q", "1"],
    ["find-transitive", "--case", "nilpotent", "--p", "2", "--q", "2"],
    ["find-transitive", "--case", "nilpotent", "--p", "3", "--q", "3"],
    ["find-transitive", "--case", "nilpotent", "--p", "3", "--q", "1"],
    ["find-transitive", "--case", "nilpotent", "--p", "2", "--q", "1"],
    ["quaternion-evidence"],
]


def flag_args(command: str, flags: dict) -> list:
    """The argv of those ``flags`` that ``command`` accepts; a value of None is a switch."""
    row = cli.COMMANDS[command][1]
    return [arg for flag, value in flags.items() if flag in row
            for arg in [f"--{flag}"] + ([] if value is None else [value])]


def package_functions() -> list:
    """(file, "module.qualname", node) for every def and lambda in the package;
    a lambda is named ``<lambda>``."""
    out = []

    def visit(node, path, prefix):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda)):
                name = f"{prefix}{getattr(child, 'name', '<lambda>')}"
                out.append((str(path), name, child))
                visit(child, path, f"{name}.")
            else:
                name = f"{child.name}." if isinstance(child, ast.ClassDef) else ""
                visit(child, path, prefix + name)

    for path in sorted(PACKAGE.rglob("*.py")):
        module = ".".join(path.relative_to(PACKAGE).with_suffix("").parts)
        visit(ast.parse(path.read_text()), path, f"{module}.")
    return out


def defined_functions() -> dict:
    """{(file, first line): "module.qualname"} of every def in the package.

    The first line is that of the first decorator, as in ``co_firstlineno``.
    """
    return {(path, min([node.lineno] + [d.lineno for d in node.decorator_list])): name
            for path, name, node in package_functions() if not isinstance(node, ast.Lambda)}


def unread_parameters() -> set:
    """"module.qualname(parameter)" for every parameter of a def or lambda in the
    package that its body never loads; a nested function that reads it counts."""
    out = set()
    for _, name, node in package_functions():
        args = node.args
        params = [a.arg for a in args.posonlyargs + args.args + args.kwonlyargs]
        params += [a.arg for a in (args.vararg, args.kwarg) if a is not None]
        body = node.body if isinstance(node.body, list) else [node.body]
        read = {n.id for stmt in body for n in ast.walk(stmt)
                if isinstance(n, ast.Name) and isinstance(n.ctx, ast.Load)}
        out.update(f"{name}({p})" for p in params if p not in read)
    return out


def test_every_parameter_is_read():
    assert unread_parameters() == UNREAD_PARAMETERS


def test_only_allowlisted_functions_never_run(tmp_path, capsys):
    candidate = tmp_path / "candidate.txt"
    candidate.write_text("dim=2\nB=1.0 0.0 0.0 -1.0\na_tilde=0.5 0.0\na=0.7\nc=1.0\n")
    operations = OPERATIONS + [["find-transitive", "--case", "nilpotent", "--p", "2", "--q", "1",
                                "--candidate-file", str(candidate)]]
    ran = set()

    def profile(frame, event, arg):
        if event == "call":
            ran.add((frame.f_code.co_filename, frame.f_code.co_firstlineno))

    cli._parser.cache_clear()  # a cached parser would skip the parser's own code
    sys.setprofile(profile)
    try:
        codes = [cli.main(op + flag_args(op[0], SMALL)) for op in operations]
    finally:
        sys.setprofile(None)
    capsys.readouterr()
    assert codes == [1 if {"--tol", "--debug-corrupt-omega"} & set(op) else 0 for op in operations]
    ran = {(str(Path(file).resolve()), line) for file, line in ran}
    never_run = {name for key, name in defined_functions().items() if key not in ran}
    assert never_run == NEVER_RUN


HYPERBOLIC = {"case": "hyperbolic", "n": "2"}
ELLIPTIC = {"case": "elliptic", "n": "2", "p": "1"}
DARBOUX = {"case": "nilpotent", "n": "2", "p": "2", "q": "1"}

#: {flag: (base, changed)}: two sets of flags that differ in the flag; each command
#: passes those that it accepts.  A change of --case changes the flags it reads, too.
FLAG_PAIRS = {
    "case": (HYPERBOLIC, ELLIPTIC),
    "n": (ELLIPTIC, {**ELLIPTIC, "n": "3"}),
    "k": (ELLIPTIC, {**ELLIPTIC, "k": "2"}),
    "p": (ELLIPTIC, {**ELLIPTIC, "p": "2"}),
    "q": (DARBOUX, {**DARBOUX, "q": "2"}),
    # the quaternion equivariance maximum is a few units in the last place, which
    # seeds 1-5 and 200 samples happen to leave as it is
    "seed": (DARBOUX, {**DARBOUX, "seed": "6"}),
    "samples": (DARBOUX, {**DARBOUX, "samples": "1000"}),
    "tol": (DARBOUX, {**DARBOUX, "tol": "1e-6"}),
    "tol-rank": (DARBOUX, {**DARBOUX, "tol-rank": "0.5"}),
    "exact": (DARBOUX, {**DARBOUX, "exact": None}),
    "debug-corrupt-omega": (DARBOUX, {**DARBOUX, "debug-corrupt-omega": None}),
    "candidate-file": (DARBOUX, {**DARBOUX, "candidate-file": "<candidate>"}),
    "w": (DARBOUX, {**DARBOUX, "w": "0.3,-0.7,0.2"}),
    "out": (DARBOUX, {**DARBOUX, "out": "<out>"}),
}

#: accepted flags that move no output, as (command, flag): reason
UNMOVED_FLAGS = {
    ("transvection", "seed"): "accepted so that one seed can be appended to every command line",
    **{(command, "out"): "writes the output to a file as well"
       for command in ("construct", "verify-geometry", "transvection", "find-transitive",
                       "quaternion-evidence")},
    ("transvection", "exact"): "moves the output only when the rational and floating "
                               "dimensions disagree (test_exact_dimension_mismatch_is_fail_report)",
    ("quaternion-evidence", "w"): "every nonzero w gives the same entries",
}

CONFIG_LINE = re.compile(r"^ *config[ .].*\n", re.MULTILINE)


def test_every_accepted_flag_moves_the_output(tmp_path, capsys):
    candidate = tmp_path / "candidate.txt"
    candidate.write_text("dim=2\nB=1.0 0.0 0.0 -1.0\na_tilde=0.5 0.0\na=0.7\nc=1.0\n")
    paths = {"<candidate>": str(candidate), "<out>": str(tmp_path / "report.txt")}
    outputs = {}

    def output(argv):
        argv = [paths.get(arg, arg) for arg in argv]
        if tuple(argv) not in outputs:
            code = cli.main(argv)
            outputs[tuple(argv)] = (code, CONFIG_LINE.sub("", capsys.readouterr().out))
        return outputs[tuple(argv)]

    unmoved = set()
    for command, (_, row) in cli.COMMANDS.items():
        for flag in row:
            base, changed = FLAG_PAIRS[flag]
            if output([command, *flag_args(command, base)]) == \
                    output([command, *flag_args(command, changed)]):
                unmoved.add((command, flag))
    assert unmoved == set(UNMOVED_FLAGS)
