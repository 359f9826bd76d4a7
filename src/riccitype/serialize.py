"""Plain-text serialization: matrices, model descriptors, candidates.

Matrices are row-major decimal text, one row per line.  Model descriptors
and candidate files are key=value blocks; blank lines and '#' comments are
ignored.
"""

from __future__ import annotations

import numpy as np

from .core import CASES, SymplecticModel


def format_matrix(mat: np.ndarray) -> str:
    return "\n".join(" ".join(repr(float(v)) for v in row) for row in np.atleast_2d(mat))


def format_vector(vec: np.ndarray) -> str:
    return " ".join(repr(float(v)) for v in np.asarray(vec).ravel())


def model_descriptor(model: SymplecticModel) -> str:
    """case, n and the parameters that the case reads (``CASES``), one key=value per line."""
    return "\n".join([f"case={model.case}", f"n={model.n}",
                      *(f"{name}={getattr(model, name)}" for name in CASES[model.case])])


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
    out = {
        "B": b_flat.reshape(d, d),
        "a_tilde": a_tilde,
        "a": float(kv.get("a", "0")),
        "c": float(kv.get("c", "1")),
    }
    for key, value in out.items():
        if not np.all(np.isfinite(value)):
            raise ValueError(f"candidate {key} must be finite")
    return out
