"""Deterministic certificate reports with a human section and a machine block.

Entries carry (name, value, threshold, verdict).  Verdicts are PASS/FAIL
for computed checks, DOCUMENTED for classification facts that are recorded
rather than recomputed, and UNKNOWN for questions left open.  The overall
verdict is PASS iff every computed entry passes, FAIL if any fails, and
UNKNOWN when nothing was computed.  ``add_sampled`` is the one reduction
of a residual sampled over points or times.  Rendering is byte-stable for
a fixed configuration: no timestamps, fixed float formatting, ordered
entries.
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


@dataclass
class CertificateReport:
    command: str
    config: dict
    entries: list[ReportEntry] = field(default_factory=list)
    witnesses: list[str] = field(default_factory=list)

    def add_residual(self, name: str, value: float, threshold: float,
                     detail: str = "") -> bool:
        ok = float(value) <= float(threshold)
        self.entries.append(ReportEntry(name, float(value), float(threshold),
                                        "PASS" if ok else "FAIL", detail))
        return ok

    def add_sampled(self, name: str, values, threshold: float, sample) -> bool:
        """Residual valued at its worst sample; ``np.argmax`` makes a NaN the worst, so it fails.

        On FAIL one witness names the entry, the worst index i and ``sample(i)``.
        """
        worst = int(np.argmax(values))
        ok = self.add_residual(name, values[worst], threshold)
        if not ok:
            self.add_witness(f"{name}: worst sample {worst}: {sample(worst)}")
        return ok

    def add_exceeds(self, name: str, value: float, floor: float,
                    detail: str = "") -> bool:
        """Negative-control entry: passes when the value exceeds the floor."""
        ok = float(value) > float(floor)
        self.entries.append(ReportEntry(name, float(value), float(floor),
                                        "PASS" if ok else "FAIL",
                                        detail or "expected to exceed threshold"))
        return ok

    def add_equals(self, name: str, value, expected, detail: str = "") -> bool:
        ok = value == expected
        self.entries.append(ReportEntry(name, value, expected,
                                        "PASS" if ok else "FAIL", detail))
        return ok

    def add_flag(self, name: str, ok: bool, detail: str = "") -> bool:
        self.entries.append(ReportEntry(name, bool(ok), True,
                                        "PASS" if ok else "FAIL", detail))
        return bool(ok)

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
