"""Plain-text serialization: matrices, model descriptors, subspaces, candidates.

Matrices are row-major decimal text, one row per line.  Model descriptors
and candidate files are key=value blocks; blank lines and '#' comments are
ignored.
"""

from __future__ import annotations

import numpy as np

from .core import SymplecticModel
from .lie import MatrixLieSubspace


def format_matrix(mat: np.ndarray) -> str:
    return "\n".join(" ".join(repr(float(v)) for v in row) for row in np.atleast_2d(mat))


def parse_matrix(text: str) -> np.ndarray:
    rows = [[float(v) for v in line.split()]
            for line in text.strip().splitlines() if line.strip()]
    return np.array(rows)


def format_vector(vec: np.ndarray) -> str:
    return " ".join(repr(float(v)) for v in np.asarray(vec).ravel())


def model_descriptor(model: SymplecticModel) -> str:
    lines = [f"case={model.case}", f"n={model.n}"]
    if model.case in ("hyperbolic", "elliptic"):
        lines.append(f"k={model.k!r}")
    if model.case in ("elliptic", "nilpotent"):
        lines.append(f"p={model.p}")
    if model.case == "nilpotent":
        lines.append(f"q={model.q}")
    return "\n".join(lines)


def format_subspace(sub: MatrixLieSubspace) -> str:
    lines = [f"ambient_dim={sub.ambient_dim}", f"count={sub.dim}"]
    for b in sub.basis:
        lines.append(format_matrix(b))
        lines.append("")
    return "\n".join(lines)


def format_chart_point(cp) -> str:
    """Case-tagged coordinate list, one line."""
    return f"{cp.case}:{cp.kind}: {format_vector(cp.coords)}"


def parse_chart_point(line: str):
    from .geometry import ChartPoint
    case, kind, coords = line.split(":", 2)
    return ChartPoint(case.strip(), kind.strip(),
                      np.array([float(v) for v in coords.split()]))


def format_transvection_data(data) -> str:
    """Nested subspace blocks plus the membership flag."""
    parts = [
        f"a_in_k1={str(bool(data.a_in_k1)).lower()}",
        f"base_point={format_vector(data.base_point.x)}",
        "[centralizer]", format_subspace(data.centralizer),
        "[p_part]", format_subspace(data.p_part),
        "[k_part]", format_subspace(data.k_part),
        "[algebra]", format_subspace(data.algebra),
    ]
    return "\n".join(parts)


def parse_key_values(text: str) -> dict[str, str]:
    out: dict[str, str] = {}
    for raw in text.splitlines():
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise ValueError(f"expected key=value, got {line!r}")
        key, value = line.split("=", 1)
        out[key.strip()] = value.strip()
    return out


def format_candidate(B: np.ndarray, a_tilde: np.ndarray, a: float, c: float) -> str:
    """Candidate file block: B row-major on one line, vectors, scalars."""
    return "\n".join([
        f"dim={B.shape[0]}",
        f"B={format_vector(B.reshape(-1))}",
        f"a_tilde={format_vector(a_tilde)}",
        f"a={a!r}",
        f"c={c!r}",
    ])


def parse_candidate(text: str) -> dict:
    kv = parse_key_values(text)
    missing = [key for key in ("dim", "B") if key not in kv]
    if missing:
        raise ValueError(f"candidate file lacks required key(s): {', '.join(missing)}")
    d = int(kv["dim"])
    b_flat = np.array([float(v) for v in kv["B"].split()])
    if b_flat.shape[0] != d * d:
        raise ValueError(f"B must have {d * d} entries, got {b_flat.shape[0]}")
    a_tilde = (np.array([float(v) for v in kv.get("a_tilde", "").split()])
               if kv.get("a_tilde", "").strip() else np.zeros(d))
    if a_tilde.shape[0] != d:
        raise ValueError(f"a_tilde must have {d} entries")
    return {
        "B": b_flat.reshape(d, d),
        "a_tilde": a_tilde,
        "a": float(kv.get("a", "0")),
        "c": float(kv.get("c", "1")),
    }
