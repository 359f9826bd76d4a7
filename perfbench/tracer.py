"""Out-of-process span tracer for the ``riccitype`` modules.

The tracer changes no file of the program.  It replaces every public
function of each traced module, and every public method of the classes
those modules define, with a wrapper that records a span.  Modules bind
each other's functions with ``from .lie import bracket_span``, so the
wrapper is installed at every module attribute that holds the original
function, not only in the defining module.

A span is ``[name, layer, start, end, parent, op]``: ``parent`` is the index
of the enclosing span (-1 for none) and ``op`` the index of the operation
that caused it.  Spans stay in memory until the pass ends.

``riccitype.exact`` is deliberately not traced: it is the opt-in ``--exact``
rational audit, whose cost grows far too fast to run at benchmark sizes,
and no workload turns it on.  ``riccitype.serialize`` is not a layer; its
time counts to the caller.
"""

from __future__ import annotations

import functools
import inspect
import sys
import time

PACKAGE = "riccitype"

LAYERS = (
    "cli", "report", "core", "lie", "transvection", "geometry",
    "transitive.nilpotent", "transitive.iwasawa", "transitive.quaternion",
)

CLI_COMMANDS = {
    "cmd_construct": "construct",
    "cmd_verify_geometry": "verify-geometry",
    "cmd_transvection": "transvection",
    "cmd_find_transitive": "find-transitive",
    "cmd_quaternion_evidence": "quaternion-evidence",
}

#: spans reported as ``<span>.calls`` and ``<span>.s`` (inclusive busy time)
TIMED_FUNCTIONS = tuple(
    f"{layer}.{fn}" for layer, fns in (
        ("lie", ("centralizer_in_sp", "involution_eigenspace", "bracket_span", "center",
                 "series_certificate", "closure_residual", "subspace_from_matrices",
                 "ad_eigenspaces")),
        ("transvection", ("transvection_algebra", "classify_transvection",
                          "nilpotent_ideal_report")),
        ("geometry", ("horizontal_basis", "lift_tangent", "curvature_tensor",
                      "ricci_type_residual", "curvature_cyclic_residual",
                      "reduced_symmetry_report", "symmetry_pullback_residual",
                      "chart_omega_matrix", "project")),
        ("transitive.nilpotent", ("hamiltonian_residual", "simply_transitive_certificate",
                                  "closure_conditions", "heisenberg_extension_check")),
        ("transitive.iwasawa", ("iwasawa_su1n",)),
        ("transitive.quaternion", ("orbit_rank_ts3_evidence",)),
        ("core", ("build_model", "sample_sigma")),
        ("report", ("CertificateReport.render",)),
    ) for fn in fns)

#: spans reported as ``<span>.calls`` only
COUNTED_FUNCTIONS = ("geometry.differential_project",)

CENTER_SPAN = "lie.center"


def _center_rows(s, *args, **kwargs) -> int:
    """Rows of the dense system ``lie.center`` hands to ``null_space``."""
    return s.dim * s.ambient_dim ** 2


def layer_of(module_name: str) -> str | None:
    layer = module_name[len(PACKAGE) + 1:]
    return layer if layer in LAYERS else None


class Tracer:
    """Installs span-recording wrappers; ``uninstall`` restores the originals."""

    def __init__(self) -> None:
        self.spans: list[list] = []
        self.extras: dict[int, int] = {}
        self.op = -1
        self._stack: list[int] = []
        self._patches: list[tuple[object, str, object]] = []

    def _wrap(self, fn, name: str, layer: str):
        spans, stack, extras = self.spans, self._stack, self.extras
        probe = _center_rows if name == CENTER_SPAN else None
        clock = time.perf_counter

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            index = len(spans)
            record = [name, layer, 0.0, 0.0, stack[-1] if stack else -1, self.op]
            spans.append(record)
            if probe is not None:
                extras[index] = probe(*args, **kwargs)
            stack.append(index)
            record[2] = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                record[3] = clock()
                stack.pop()

        return wrapper

    def install(self) -> None:
        modules = {name: mod for name, mod in sys.modules.items()
                   if name == PACKAGE or name.startswith(PACKAGE + ".")}
        wrappers: dict[int, object] = {}
        for mod_name, mod in sorted(modules.items()):
            layer = layer_of(mod_name)
            if layer is None:
                continue
            for attr, value in vars(mod).items():
                if attr.startswith("_"):
                    continue
                if inspect.isfunction(value) and value.__module__ == mod_name:
                    wrappers[id(value)] = self._wrap(value, f"{layer}.{value.__qualname__}", layer)
                elif inspect.isclass(value) and value.__module__ == mod_name:
                    for meth_name, meth in list(vars(value).items()):
                        if meth_name.startswith("_") or not inspect.isfunction(meth):
                            continue
                        self._patch(value, meth_name, meth,
                                    self._wrap(meth, f"{layer}.{meth.__qualname__}", layer))
        originals = {}
        for mod in modules.values():
            for attr, value in vars(mod).items():
                if id(value) in wrappers and inspect.isfunction(value):
                    originals[(mod, attr)] = value
        for (mod, attr), value in originals.items():
            self._patch(mod, attr, value, wrappers[id(value)])

    def _patch(self, owner, attr: str, original, wrapper) -> None:
        setattr(owner, attr, wrapper)
        self._patches.append((owner, attr, original))

    def uninstall(self) -> None:
        for owner, attr, original in reversed(self._patches):
            setattr(owner, attr, original)
        self._patches.clear()


def _durations(spans: list[list]) -> tuple[list[float], list[float]]:
    """Each span's duration and the part of it covered by its child spans."""
    durations = [s[3] - s[2] for s in spans]
    covered = [0.0] * len(spans)
    for s, d in zip(spans, durations):
        if s[4] >= 0:
            covered[s[4]] += d
    return durations, covered


def _outermost(spans: list[list], index: int) -> bool:
    """True unless an enclosing span has the same name (no double counting)."""
    name = spans[index][0]
    parent = spans[index][4]
    while parent >= 0:
        if spans[parent][0] == name:
            return False
        parent = spans[parent][4]
    return True


def layer_metrics(spans: list[list], extras: dict[int, int]) -> dict[str, float]:
    """Per-function calls and inclusive busy time, per-layer self time, counts."""
    durations, covered = _durations(spans)
    out: dict[str, float] = {}
    for name in TIMED_FUNCTIONS:
        out[f"{name}.calls"] = 0
        out[f"{name}.s"] = 0.0
    for name in COUNTED_FUNCTIONS:
        out[f"{name}.calls"] = 0
    for command in CLI_COMMANDS.values():
        out[f"cli.cmd.{command}.s"] = 0.0
    for layer in LAYERS:
        out[f"{layer}.self_s"] = 0.0

    timed, counted = set(TIMED_FUNCTIONS), set(COUNTED_FUNCTIONS)
    cli_spans = {f"cli.{fn}": cmd for fn, cmd in CLI_COMMANDS.items()}
    for i, span in enumerate(spans):
        name, layer = span[0], span[1]
        out[f"{layer}.self_s"] += durations[i] - covered[i]
        if name in timed:
            out[f"{name}.calls"] += 1
            if _outermost(spans, i):
                out[f"{name}.s"] += durations[i]
        elif name in counted:
            out[f"{name}.calls"] += 1
        elif name in cli_spans and _outermost(spans, i):
            out[f"cli.cmd.{cli_spans[name]}.s"] += durations[i]

    rows = max(extras.values(), default=0)
    out["lie.center.system_rows_max"] = rows
    # computed, not measured: bytes of the full U of an SVD of that system
    out["lie.center.dense_u_mb"] = rows * rows * 8 / 1e6
    return out
