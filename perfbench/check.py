"""Per-operation outcome, report signature and comparison with the reference.

An operation fails when it raises, exits with code 1 or 2, or reports
``verdict=FAIL``.  Every failure is counted; a FAIL verdict is the program's
own certificate result, so it does not by itself make a run incorrect.  An
operation is incorrect when it raises, exits with 2, returns an exit code
that disagrees with its verdict, or prints a malformed report.

The signature of a report is its entry names, verdicts and non-float values
in order.  Float values are left out because roundoff legitimately moves
them.  The reference is recorded over several seeds; a verdict or value
that differed between those seeds is stored as ``"*"`` and not compared.
"""

from __future__ import annotations

import re

FLOAT_RE = re.compile(r"^-?(\d\.\d+e[+-]\d+|\d+\.\d*(e[+-]?\d+)?|nan|inf)$")
ANY = "*"
FAIL = "FAIL"
CONSTRUCT_KEYS = ("case", "n", "mu", "sigma_samples", "quotient_type", "sigma_residual_max")
#: largest |sigma(x) - 1| a construct sample may show
SIGMA_RESIDUAL_MAX = 1e-9


def _is_float(text: str) -> bool:
    return bool(FLOAT_RE.match(text))


def _machine_block(body: str) -> list[tuple[str, str]] | None:
    marker = "-- machine --\n"
    if marker not in body:
        return None
    pairs = []
    for line in body.split(marker, 1)[1].splitlines():
        key, sep, value = line.partition("=")
        if not sep:
            return None
        pairs.append((key, value))
    return pairs


def _report_outcome(body: str) -> tuple[str | None, list]:
    """Overall verdict and signature of a rendered report; verdict None if malformed."""
    pairs = _machine_block(body)
    if not pairs or pairs[-1][0] != "verdict":
        return None, []
    entries: dict[int, dict[str, str]] = {}
    for key, value in pairs:
        parts = key.split(".")
        if parts[0] == "entry" and len(parts) == 3:
            entries.setdefault(int(parts[1]), {})[parts[2]] = value
    signature = []
    for i in sorted(entries):
        entry = entries[i]
        value = entry.get("value", "")
        signature.append([entry.get("name"), entry.get("verdict"),
                          None if _is_float(value) else value])
    return pairs[-1][1], signature


def _construct_outcome(body: str) -> tuple[str | None, list, str | None]:
    """``construct`` prints key=value lines and a matrix, no report."""
    values = {}
    for line in body.splitlines():
        key, sep, value = line.partition("=")
        if sep and key in CONSTRUCT_KEYS:
            values[key] = value
    if any(key not in values for key in CONSTRUCT_KEYS):
        return None, [], "malformed output"
    signature = [[key, None, None if _is_float(values[key]) else values[key]]
                 for key in CONSTRUCT_KEYS]
    try:
        residual = float(values["sigma_residual_max"])
    except ValueError:
        return None, [], "malformed output"
    if not residual <= SIGMA_RESIDUAL_MAX:
        return "OK", signature, f"sigma_residual_max {residual:.3e} > {SIGMA_RESIDUAL_MAX:g}"
    return "OK", signature, None


def classify(command: str, exit_code: int | None, body: str, error: str | None) -> dict:
    """Outcome of one operation: status ok/failed, verdict, signature, problem."""
    if error is not None:
        return {"status": "failed", "verdict": None, "signature": [],
                "problem": f"raised {error}"}
    if exit_code == 2:
        return {"status": "failed", "verdict": None, "signature": [],
                "problem": "exit code 2"}
    if command == "construct":
        verdict, signature, problem = _construct_outcome(body)
    else:
        verdict, signature = _report_outcome(body)
        problem = None if verdict is not None else "malformed output"
    if problem is None and exit_code != (1 if verdict == FAIL else 0):
        problem = f"exit code {exit_code} with verdict {verdict}"
    failed = problem is not None or exit_code != 0 or verdict == FAIL
    return {"status": "failed" if failed else "ok", "verdict": verdict,
            "signature": signature, "problem": problem}


def merge_reference(outcomes: list[dict]) -> dict:
    """Reference entry for one operation from its outcomes at several seeds."""
    verdicts = sorted({o["verdict"] for o in outcomes if o["verdict"] is not None})
    signatures = [o["signature"] for o in outcomes]
    names = [[e[0] for e in sig] for sig in signatures]
    if any(n != names[0] for n in names):
        raise ValueError("entry names differ between seeds")
    merged = []
    for column in zip(*signatures):
        name = column[0][0]
        verdict = column[0][1] if all(e[1] == column[0][1] for e in column) else ANY
        value = column[0][2] if all(e[2] == column[0][2] for e in column) else ANY
        merged.append([name, verdict, value])
    return {"verdicts": verdicts, "signature": merged}


def signature_changed(signature: list, reference: dict) -> bool:
    ref = reference["signature"]
    if len(signature) != len(ref):
        return True
    for (name, verdict, value), (r_name, r_verdict, r_value) in zip(signature, ref):
        if name != r_name:
            return True
        if r_verdict != ANY and verdict != r_verdict:
            return True
        if r_value != ANY and value != r_value:
            return True
    return False


def unexpected_fail(outcome: dict, reference: dict | None) -> bool:
    """A FAIL verdict where no reference seed reported FAIL."""
    return outcome["verdict"] == FAIL and (reference is None or FAIL not in reference["verdicts"])
