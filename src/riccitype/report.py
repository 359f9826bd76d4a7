"""Deterministic certificate reports with a human section and a machine block.

Entries carry (name, value, threshold, verdict).  Verdicts are PASS/FAIL
for computed checks, DOCUMENTED for classification facts that are recorded
rather than recomputed, and UNKNOWN for questions left open.  The overall
verdict is PASS iff every computed entry passes, FAIL if any fails, and
UNKNOWN when nothing was computed.  ``add_sampled`` is the one reduction
of a residual sampled over points or times.  A residual, sampled or exceeds
entry reads its threshold by name from ``RESIDUALS`` or ``FLOORS``; no caller
passes one.  Rendering is byte-stable for a fixed configuration: no
timestamps, fixed float formatting, ordered entries.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

SCHEMA = "riccitype.report.v1"


def _fmt(value) -> str:
    if isinstance(value, bool):
        return "true" if value else "false"
    if isinstance(value, (int, np.integer)):
        return str(int(value))
    if isinstance(value, (float, np.floating)):
        return f"{float(value):.9e}"
    return str(value)


@dataclass
class ReportEntry:
    name: str
    value: object
    threshold: object = None
    verdict: str = "PASS"  # PASS | FAIL | DOCUMENTED | UNKNOWN | INFO
    detail: str = ""


#: the threshold of every residual and sampled entry (its value <= the threshold passes), by
#: entry name, or by "*.<entry>" for the find-transitive members, the controls and phi<i>;
#: "tol" is the report's own config["tol_algebraic"] (--tol)
RESIDUALS = {
    "characteristic.sp_membership": 1e-12, "characteristic.square_identity": 1e-12,
    "flow.series_oracle": 1e-10, "projection.flow_invariance": "tol",
    "projection.flow_invariance_fiber": "tol", "curvature.cyclic_identity": "tol",
    "curvature.ricci_type_residual": 1e-8, "ricci.square_identity": "tol",
    "ricci.trace_route_match": "tol", "reduced_form.darboux_constant": 1e-8,
    "symmetry.squares_to_identity": 1e-12, "symmetry.symplectic": 1e-12,
    "symmetry.commutes_with_A": 1e-12, "symmetry.fixed_point": "tol",
    "symmetry.involution_in_chart": 1e-8, "symmetry.symplectic_pullback": 1e-5,
    "centralizer.closure": 1e-10, "sigma1.involution": 1e-10, "sigma1.fixes_A": 1e-10,
    "A.in_k1": "tol", "algebra.closure": "tol", "algebra.sl_traceless": 1e-10,
    "ideal.bracket_containment": "tol", "*.closure_conditions": 1e-10,
    "*.bracket_closure_mod_A": 1e-10, "*.hamiltonian_identity": "tol",
    "eta.equivariance": 1e-10, "orbit.stabilizer_field": "tol",
}
#: the floor of every negative-control entry (its value > the floor passes), keyed as above
FLOORS = {"A.not_in_k1": 1e-3, "*.frame_invertibility": 1e-9, "*.closure_conditions": 1e-3}


@dataclass
class CertificateReport:
    command: str
    config: dict
    entries: list[ReportEntry] = field(default_factory=list)
    witnesses: list[str] = field(default_factory=list)

    def _threshold(self, table: dict, name: str) -> float:
        """The row of ``name`` in ``table``: its own, else that of "*.<entry>"."""
        row = table[name] if name in table else table["*." + name.partition(".")[2]]
        return float(self.config["tol_algebraic"] if row == "tol" else row)

    def _add(self, name: str, value, threshold, ok, detail: str = "", witness=None):
        """Append a PASS/FAIL entry; on FAIL, ``witness`` (if given) is its witness."""
        self.entries.append(ReportEntry(name, value, threshold, "PASS" if ok else "FAIL", detail))
        if not ok and witness is not None:
            self.add_witness(witness)
        return ok

    def add_residual(self, name: str, value: float, witness: str | None = None) -> bool:
        """Passes when the value is at most its row of ``RESIDUALS``."""
        threshold = self._threshold(RESIDUALS, name)
        return self._add(name, float(value), threshold, float(value) <= threshold, "", witness)

    def add_sampled(self, name: str, values, sample) -> bool:
        """Residual valued at its worst sample; ``np.argmax`` makes a NaN the worst, so it fails.

        On FAIL one witness names the entry, the worst index i and ``sample(i)``.
        """
        worst = int(np.argmax(values))
        ok = self.add_residual(name, values[worst])
        if not ok:
            self.add_witness(f"{name}: worst sample {worst}: {sample(worst)}")
        return ok

    def add_exceeds(self, name: str, value: float, witness: str | None = None) -> bool:
        """Negative-control entry: passes when the value exceeds its row of ``FLOORS``."""
        floor = self._threshold(FLOORS, name)
        return self._add(name, float(value), floor, float(value) > floor,
                         "expected to exceed threshold", witness)

    def add_equals(self, name: str, value, expected) -> bool:
        return self._add(name, value, expected, value == expected)

    def add_flag(self, name: str, ok: bool, detail: str = "", witness=None) -> bool:
        return self._add(name, bool(ok), True, bool(ok), detail, witness)

    def add_documented(self, name: str, statement: str) -> None:
        self.entries.append(ReportEntry(name, statement, None, "DOCUMENTED"))

    def add_unknown(self, name: str, statement: str) -> None:
        self.entries.append(ReportEntry(name, statement, None, "UNKNOWN"))

    def add_info(self, name: str, value) -> None:
        self.entries.append(ReportEntry(name, value, None, "INFO"))

    def add_witness(self, description: str) -> None:
        self.witnesses.append(description)

    @property
    def verdict(self) -> str:
        computed = [e for e in self.entries if e.verdict in ("PASS", "FAIL")]
        if any(e.verdict == "FAIL" for e in computed):
            return "FAIL"
        if computed:
            return "PASS"
        return "UNKNOWN"

    @property
    def exit_code(self) -> int:
        return 1 if self.verdict == "FAIL" else 0

    def render(self) -> str:
        lines = [f"== riccitype {self.command} =="]
        for key in sorted(self.config):
            lines.append(f"  config {key} = {_fmt(self.config[key])}")
        lines.append("")
        width = max((len(e.name) for e in self.entries), default=0)
        for e in self.entries:
            if e.verdict in ("PASS", "FAIL"):
                thr = f"  (threshold {_fmt(e.threshold)})" if e.threshold is not None else ""
                lines.append(f"  [{e.verdict}] {e.name:<{width}}  {_fmt(e.value)}{thr}")
            else:
                lines.append(f"  [{e.verdict}] {e.name:<{width}}  {_fmt(e.value)}")
            if e.detail:
                lines.append(f"           {e.detail}")
        if self.witnesses:
            lines.append("")
            for w in self.witnesses:
                lines.append(f"  witness: {w}")
        lines.append("")
        lines.append(f"verdict: {self.verdict}")
        lines.append("")
        lines.append("-- machine --")
        lines.append(f"schema={SCHEMA}")
        lines.append(f"command={self.command}")
        for key in sorted(self.config):
            lines.append(f"config.{key}={_fmt(self.config[key])}")
        for i, e in enumerate(self.entries):
            lines.append(f"entry.{i}.name={e.name}")
            lines.append(f"entry.{i}.value={_fmt(e.value)}")
            if e.threshold is not None:
                lines.append(f"entry.{i}.threshold={_fmt(e.threshold)}")
            lines.append(f"entry.{i}.verdict={e.verdict}")
        for i, w in enumerate(self.witnesses):
            lines.append(f"witness.{i}={w}")
        lines.append(f"verdict={self.verdict}")
        return "\n".join(lines) + "\n"
