"""Quaternion double-cover machinery and the tangent-sphere orbit-rank bound.

Left and right multiplication by unit quaternions give the two SU(2)
factors of SO(4); the symmetric traceless part of sl(4, R) is parametrized
by a bilinear map eta equivariant under both factors.  For any nonzero
w in R^3, the span su(2)_L + {eta(v, w) : v} has fundamental-field rank at
most 5 at the base point (u = e1, w = 0) of the tangent-sphere chart of
the positive-case model with n = 3, one short of the dimension 6 needed
for a transitive orbit.
"""

from __future__ import annotations

import numpy as np

from ..core import apply_rows, build_model, dot_rows
from ..geometry import fundamental_fields
from ..lie import rank_count


def cross_matrix(v: np.ndarray) -> np.ndarray:
    """Matrix of x -> v x (cross product), one per row of a stack of vectors."""
    v = np.asarray(v, dtype=float)
    zero = np.zeros(v.shape[:-1])
    rows = [zero, -v[..., 2], v[..., 1], v[..., 2], zero, -v[..., 0], -v[..., 1], v[..., 0], zero]
    return np.stack(rows, axis=-1).reshape(v.shape[:-1] + (3, 3))


def _q_matrix(q: np.ndarray, sign: float) -> np.ndarray:
    # [[q0, -sign vec^T], [sign vec, q0 I + vec x]], one per row of a stack
    q = np.asarray(q, dtype=float)
    q0, vec = q[..., 0], q[..., 1:]
    out = np.zeros(q.shape[:-1] + (4, 4))
    out[..., 0, 0] = q0
    out[..., 0, 1:] = -sign * vec
    out[..., 1:, 0] = sign * vec
    out[..., 1:, 1:] = q0[..., None, None] * np.eye(3) + cross_matrix(vec)
    return out


def q_left_matrix(q: np.ndarray) -> np.ndarray:
    """Matrix of x -> q x on R^4 = H, q = (q0, vec); one per row of a stack."""
    return _q_matrix(q, 1.0)


def q_right_matrix(q: np.ndarray) -> np.ndarray:
    """Matrix of x -> x q^{-1} on R^4 for unit q; one per row of a stack."""
    return _q_matrix(q, -1.0)


def rotation_matrix(q: np.ndarray) -> np.ndarray:
    """SO(3) rotation of the conjugation x -> q x q^{-1} for unit q; one per row of a stack.

    R(q) v = (q0^2 - |vec|^2) v + 2 q0 (vec x v) + 2 (vec . v) vec
    """
    q = np.asarray(q, dtype=float)
    q0, vec = q[..., 0, None, None], q[..., 1:]
    return ((q0 * q0 - dot_rows(vec, vec)[..., None, None]) * np.eye(3)
            + 2.0 * q0 * cross_matrix(vec)
            + 2.0 * (vec[..., :, None] * vec[..., None, :]))


def eta(x: np.ndarray, y: np.ndarray) -> np.ndarray:
    """Symmetric traceless 4x4 block matrix pairing two vectors of R^3, one per row pair.

    eta(x, y) = [[x.y, (y x x)^T], [y x x, x y^T + y x^T - (x.y) I]]
    """
    x, y = np.asarray(x, dtype=float), np.asarray(y, dtype=float)
    cross = np.cross(y, x)
    xy = dot_rows(x, y)
    out = np.zeros(x.shape[:-1] + (4, 4))
    out[..., 0, 0] = xy
    out[..., 0, 1:] = cross
    out[..., 1:, 0] = cross
    out[..., 1:, 1:] = (x[..., :, None] * y[..., None, :] + y[..., :, None] * x[..., None, :]
                        - xy[..., None, None] * np.eye(3))
    return out


def equivariance_residuals(q: np.ndarray, x: np.ndarray,
                           y: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Residuals of q_L eta q_L^{-1} = eta(R x, y) and q_R eta q_R^{-1} = eta(x, R y).

    A stack of draws, one per row of q, x and y, gives two (S,) arrays.
    """
    ql, qr, rot = q_left_matrix(q), q_right_matrix(q), rotation_matrix(q)
    e = eta(x, y)
    left = ql @ e @ np.swapaxes(ql, -1, -2) - eta(apply_rows(rot, x), y)
    right = qr @ e @ np.swapaxes(qr, -1, -2) - eta(x, apply_rows(rot, y))
    return np.max(np.abs(left), axis=(-2, -1)), np.max(np.abs(right), axis=(-2, -1))


def su2_left_basis() -> list[np.ndarray]:
    """Generators of the left-multiplication su(2) inside so(4)."""
    return [q_left_matrix(np.concatenate([[0.0], e])) for e in np.eye(3)]


def orbit_rank_ts3_evidence(w: np.ndarray) -> dict:
    """Rank bound for su(2)_L + eta(. , w) at the base point of TS^3.

    Each X in gl(4) acts through diag(X, -X^T), which centralizes A in sp;
    its field is the exact fundamental field on the tangent-sphere chart.
    Returns the stacked-field singular values, the rank (expected <= 5 < 6),
    the rank of the su(2)_L fields alone (expected 3) and the norm of the
    field of the stabilizer element eta(w, w).  w is read at max|w| = 1:
    span{eta(., w)} and the line of eta(w, w) do not depend on its scale.
    The model is read at k = 1, as A_k = k A_1 only rescales it.
    """
    w = np.asarray(w, dtype=float)
    if w.shape != (3,) or np.max(np.abs(w)) == 0.0:
        raise ValueError("w must be a nonzero vector in R^3")
    if not np.all(np.isfinite(w)):
        raise ValueError(f"w must be finite, got {w.tolist()}")
    w = w / np.max(np.abs(w))
    model = build_model("hyperbolic", 3)
    gens = su2_left_basis() + [eta(v, w) for v in np.eye(3)] + [eta(w, w)]
    zero = np.zeros((4, 4))
    lifted = [np.block([[x, zero], [zero, -x.T]]) for x in gens]
    fields = fundamental_fields(model, lifted, np.eye(8)[0])  # at u = e1, w = 0
    svals = np.linalg.svd(fields[:, :6], compute_uv=False)
    # the rank cut is relative to the largest field, with an absolute floor of 1e-7
    rank = int(rank_count(svals, atol=1e-7))
    su2_rank = int(rank_count(np.linalg.svd(fields[:, :3], compute_uv=False), rtol=0.0, atol=1e-9))
    return {
        "singular_values": svals,
        "rank": rank,
        "su2_rank": su2_rank,
        "stabilizer_field_norm": float(np.max(np.abs(fields[:, 6]))),
    }
