"""Simply transitive subalgebras for the flat-characteristic case with p = 2.

A candidate complement to the even part of the transvection algebra is
parametrized by (B, a~, b~, c~, a, c, eps); its generator for parameters
(p, P, p') is the block matrix K below.  The family is spanned by the
generators of the unit tuples, the rows of eye(2n) read as (p | P | p'), and
is carried as their (2n, N, N) stack.  The subspace closes under the
bracket (mod R*A) iff two bilinear identities hold, evaluated on every pair
of unit tuples at once, which force

    c~ = 0,  B^2 = -eps*Id,  eps = -1 (so q = 1),  c^2 = 1,
    Omega0(b~, .) = Omega0(a~, (Id - cB) .),
    Omega0((B - c)X, (B - c)Y) = 0  for all X, Y.

Accepted families act simply transitively on the x*^1 > 0 component; the
action is Hamiltonian with explicit comoment, and strongly Hamiltonian
exactly when B = c*Id, in which case the algebra is a one-dimensional
dilation extension of the Heisenberg algebra.
"""

from __future__ import annotations

from dataclasses import dataclass, replace

import numpy as np

from ..core import SymplecticModel, apply_rows, as_matrix, dot_rows
from ..geometry import darboux_matrix
from ..lie import (RANK_RTOL, MatrixLieSubspace, bracket_rows, constants_certificate, line,
                   structure_constants, subspace_from_matrices)


@dataclass(frozen=True)
class NilpotentCandidate:
    """Parameters of a candidate complement subspace."""

    B: np.ndarray
    a_tilde: np.ndarray
    b_tilde: np.ndarray
    c_tilde: np.ndarray
    a: float
    c: float
    epsilon: int

    @property
    def block_dim(self) -> int:
        return self.B.shape[0]


def make_candidate(B, a_tilde=None, b_tilde=None, c_tilde=None, a: float = 0.0,
                   c: float = 1.0, epsilon: int = -1) -> NilpotentCandidate:
    b = np.asarray(B, dtype=float)
    d = b.shape[0]
    zeros = np.zeros(d)
    return NilpotentCandidate(
        B=b,
        a_tilde=zeros if a_tilde is None else np.asarray(a_tilde, float),
        b_tilde=zeros if b_tilde is None else np.asarray(b_tilde, float),
        c_tilde=zeros if c_tilde is None else np.asarray(c_tilde, float),
        a=float(a),
        c=float(c),
        epsilon=int(epsilon),
    )


def b_tilde_from_relation(a_tilde: np.ndarray, B: np.ndarray, c: float,
                          omega0: np.ndarray) -> np.ndarray:
    """Solve Omega0(b~, .) = Omega0(a~, (Id - cB) .) for b~."""
    row = (a_tilde @ omega0) @ (np.eye(B.shape[0]) - c * B)
    return np.linalg.solve(omega0.T, row)


def candidate_matrix_K(cand: NilpotentCandidate, p, P, p_prime,
                       omega0: np.ndarray) -> np.ndarray:
    """Generator matrix K(p, P, p') of the candidate family.

    Blocks over the basis (e_1, e_2; f_a; e*_1, e*_2), with
    underline(v) = v^T Omega0 and v = p a~ + B P + p' c~:

        [[0, -eps p], .  [-underline(P); -eps underline(v)] . [[-p'', eps p'], [p', p'']]]
        [      0      .                0                    .        (P | v)             ]
        [      0      .                0                    .  [[0, -eps p], [p, 0]]     ]

    where p'' = a p + Omega0(b~, P) + c p'.  A stack of g tuples, p and p'
    of shape (g,) and P of shape (g, d), gives the (g, N, N) stack of their
    matrices; one tuple gives one (N, N) matrix.
    """
    p, pp = np.asarray(p, dtype=float), np.asarray(p_prime, dtype=float)
    P = np.asarray(P, dtype=float)
    d = cand.block_dim
    if P.shape[-1] != d or omega0.shape != (d, d):
        raise ValueError("dimension mismatch between P, B and Omega0")
    eps = float(cand.epsilon)
    v = p[..., None] * cand.a_tilde + apply_rows(cand.B, P) + pp[..., None] * cand.c_tilde
    ppp = cand.a * p + dot_rows(cand.b_tilde @ omega0, P) + cand.c * pp
    k = np.zeros(p.shape + (4 + d, 4 + d))
    for i in (0, d + 2):  # the two corner blocks [[0, -eps p], [p, 0]]
        k[..., i, i + 1] = -eps * p
        k[..., i + 1, i] = p
    k[..., 0, 2:2 + d] = -(P @ omega0)
    k[..., 1, 2:2 + d] = -eps * (v @ omega0)
    k[..., 0, d + 2] = -ppp
    k[..., 0, d + 3] = eps * pp
    k[..., 1, d + 2] = pp
    k[..., 1, d + 3] = ppp
    k[..., 2:2 + d, d + 2] = P
    k[..., 2:2 + d, d + 3] = v
    return k


def family_generators(cand: NilpotentCandidate, omega0: np.ndarray) -> np.ndarray:
    """(2n, N, N) stack of K(1,0,0), K(0,e_a,0), K(0,0,1): the unit tuples are the
    rows of eye(d + 2), read as (p | P | p')."""
    units = np.eye(cand.block_dim + 2)
    return candidate_matrix_K(cand, units[:, 0], units[:, 1:-1], units[:, -1], omega0)


@dataclass
class ClosureReport:
    """Residuals of the two bracket-closure identities plus condition flags."""

    residual_first: float
    residual_second: float
    flags: dict[str, bool]

    @property
    def residual(self) -> float:
        return float(np.max([self.residual_first, self.residual_second]))


def closure_conditions(cand: NilpotentCandidate, omega0: np.ndarray,
                       tol: float = 1e-10) -> ClosureReport:
    """Evaluate both closure identities on every pair of unit generator tuples.

    By bilinearity it is enough to run all pairs of unit tuples
    (p, P, p') in {(1,0,0)} u {(0,e_a,0)} u {(0,0,1)}, the rows of
    eye(d + 2).  Each identity is one (g, g) array, or (g, g, d) for the
    vector identity, with the first tuple of a pair on axis 0 and the second
    (q, Q, q') on axis 1; every Omega0 product is one dot per pair.
    """
    d = cand.block_dim
    eps = float(cand.epsilon)
    B, at, bt, ct, c = cand.B, cand.a_tilde, cand.b_tilde, cand.c_tilde, cand.c
    units = np.eye(d + 2)
    P = units[:, 1:-1]
    p, pp = units[:, :1], units[:, -1:]
    q, qp = p.T, pp.T
    BP = apply_rows(B, P)
    v = p * at + BP + pp * ct
    bt_om, v_om = bt @ omega0, v @ omega0
    b_pair = dot_rows(bt_om, P)  # Omega0(b~, P) per tuple
    first, second = np.s_[:, None], np.s_[None, :]
    cross = p * qp - pp * q
    r_vec = q[..., None] * BP[first] - p[..., None] * BP[second] - cross[..., None] * ct
    s_vec = eps * (-q[..., None] * P[first] + p[..., None] * P[second])
    r_prime = (-2.0 * p * b_pair[second] + 2.0 * q * b_pair[first]
               - 2.0 * c * cross
               - eps * dot_rows(v_om[first], P[second])
               + eps * dot_rows(v_om[second], P[first]))
    r1 = 2.0 * eps * cross + 2.0 * dot_rows((P @ omega0)[first], P[second])
    r2 = 2.0 * eps * cross - 2.0 * eps * dot_rows(v_om[first], v[second])
    res1 = np.max(np.abs(s_vec - (apply_rows(B, r_vec) + r_prime[..., None] * ct)),
                  axis=-1, initial=0.0)
    res2 = np.abs(0.5 * (r1 + r2) - (dot_rows(bt_om, r_vec) + c * r_prime))
    ident = np.eye(d)
    flags = {
        "c_tilde_zero": float(np.max(np.abs(ct), initial=0.0)) <= tol,
        "b_square": float(np.max(np.abs(B @ B + eps * ident))) <= tol,
        "eps_minus_one": cand.epsilon == -1,
        "c_square_one": abs(c * c - 1.0) <= tol,
        "b_tilde_relation": float(np.max(np.abs(
            bt @ omega0 - (at @ omega0) @ (ident - c * B)))) <= tol,
        "isotropic_image": float(np.max(np.abs(
            (B - c * ident).T @ omega0 @ (B - c * ident)))) <= tol,
    }
    return ClosureReport(float(np.max(res1)), float(np.max(res2)), flags)


def build_h(model: SymplecticModel, B, a_tilde=None, a: float = 0.0, c: float = 1.0,
            validate: bool = True) -> tuple[MatrixLieSubspace, np.ndarray, NilpotentCandidate]:
    """Assemble the candidate subalgebra h_{B, a~, a, c} inside the transvection quotient.

    Preconditions for an accepted family (checked unless validate=False):
    B^2 = Id, c^2 = 1 and the isotropy of the image of (B - c) under Omega0.
    Returns (subspace, (2n, N, N) generator stack, completed candidate); the
    subspace is understood modulo the line R*A.
    """
    if model.case != "nilpotent" or model.p != 2 or model.q != 1:
        raise ValueError("candidate families require the nilpotent case with p=2, q=1")
    omega0 = model.omega0
    B = np.asarray(B, dtype=float)
    d = B.shape[0]
    ident = np.eye(d)
    if validate:
        if np.max(np.abs(B @ B - ident)) > 1e-10:
            raise ValueError("precondition failed: B^2 = Id")
        if abs(c * c - 1.0) > 1e-10:
            raise ValueError("precondition failed: c^2 = 1")
        rel = np.max(np.abs((B - c * ident).T @ omega0 @ (B - c * ident)))
        if rel > 1e-10:
            raise ValueError("precondition failed: image of (B - c*Id) must be Omega0-isotropic")
    at = np.zeros(d) if a_tilde is None else np.asarray(a_tilde, dtype=float)
    cand = make_candidate(B, a_tilde=at, b_tilde=b_tilde_from_relation(at, B, c, omega0),
                          a=a, c=c, epsilon=-1)
    gens = family_generators(cand, omega0)
    sub = subspace_from_matrices(gens, model.ambient_dim)
    if sub.dim != 2 * model.n:
        raise ValueError(f"candidate family has dimension {sub.dim}, expected {2 * model.n}")
    return sub, gens, cand


def normalize_candidate(model: SymplecticModel, cand: NilpotentCandidate
                        ) -> tuple[NilpotentCandidate, list[np.ndarray]]:
    """Conjugate away a~ (unipotent move) and then a (shear move).

    Returns the normalized candidate together with the conjugating group
    elements, in the order they are applied.
    """
    omega0 = model.omega0
    d = cand.block_dim
    dim = model.ambient_dim
    conjugators: list[np.ndarray] = []
    out = cand
    if np.max(np.abs(out.a_tilde)) > 0:
        u = -out.a_tilde
        g = np.eye(dim)
        g[0, 2:2 + d] = -(u @ omega0)
        g[2:2 + d, d + 2] = u
        conjugators.append(g)
        new_a = out.a - out.c * float(u @ omega0 @ out.a_tilde)
        out = replace(out, a_tilde=np.zeros(d), a=new_a,
                      b_tilde=b_tilde_from_relation(np.zeros(d), out.B, out.c, omega0))
    if abs(out.a) > 0:
        r = -out.a / (2.0 * out.c)
        g = np.eye(dim)
        g[0, d + 2] = r
        g[1, d + 3] = -r
        conjugators.append(g)
        out = replace(out, a=out.a + 2.0 * r * out.c)
    return out, conjugators


def simply_transitive_certificate(model: SymplecticModel, matrices,
                                  rank_tol: float = RANK_RTOL) -> dict:
    """Rank certificate of a family of chart vector fields at sampled points.

    ``matrices`` is the (S, 2n, g) field stack, one field per column, that
    ``geometry.fundamental_fields`` returns for S chart points.  Reports the
    rank and smallest singular value at every sample; the verdict fails with
    the index of the first sample whose rank drops below the chart dimension.
    """
    expected = 2 * model.n
    svals = np.linalg.svd(np.asarray(matrices, dtype=float), compute_uv=False)
    ranks = np.sum(svals > rank_tol * svals[:, :1], axis=1)
    deficient = np.flatnonzero(ranks < expected)
    return {
        "expected_rank": expected,
        "ranks": ranks.tolist(),
        "min_rank": int(ranks.min()),
        "min_singular_value": float(svals[:, min(expected, svals.shape[1]) - 1].min()),
        "passed": deficient.size == 0,
        "witness": int(deficient[0]) if deficient.size else None,
    }


def frame_invertibility_minimum(B: np.ndarray, gammas) -> tuple[float, int]:
    """(min over samples of sigma_min / sigma_max of cosh(g) Id + sinh(g) B, its index).

    The ratio is a scale-free invertibility statistic, 1 for scalar B.
    """
    g = np.asarray(gammas, dtype=float)[:, None, None]
    frames = np.cosh(g) * np.eye(B.shape[0]) + np.sinh(g) * B
    svals = np.linalg.svd(frames, compute_uv=False)
    ratios = svals[:, -1] / svals[:, 0]
    worst = int(np.argmin(ratios))  # the first NaN, if any
    return float(ratios[worst]), worst


def moment_map_f(B: np.ndarray, c: float, generator, coords,
                 omega0: np.ndarray) -> float:
    """Hamiltonian of the fundamental field at a Darboux chart point (y0, Y, gamma):

    f = p y0 - (1/2c) p' e^{2 c gamma} - Omega0(P,Y) cosh(g) - Omega0(BP,Y) sinh(g).
    """
    p, P, pp = generator
    P = np.asarray(P, dtype=float)
    coords = np.asarray(coords, dtype=float)
    y0, y, gamma = coords[0], coords[1:-1], coords[-1]
    return float(p * y0 - pp * np.exp(2.0 * c * gamma) / (2.0 * c)
                 - (P @ omega0 @ y) * np.cosh(gamma)
                 - ((B @ P) @ omega0 @ y) * np.sinh(gamma))


def hamiltonian_residual(model: SymplecticModel, B: np.ndarray, c: float,
                         fields: np.ndarray, coords: np.ndarray):
    """max |df - i(X*)omega| over the 2n unit generators of a normalized family at a point.

    ``fields`` is the (2n, 2n) field matrix at the Darboux chart point
    ``coords`` of ``family_generators`` of a normalized candidate (a~ = 0,
    a = 0) with this B and c, so column j is the field of the j-th unit tuple
    (1, 0, 0), (0, e_a, 0), (0, 0, 1); an (S, 2n, 2n) field stack at an
    (S, 2n) stack of points gives one residual per point.  Row j of the
    gradient matrix is the closed-form differential of moment_map_f for
    that tuple:

        df/dy0 = p,   df/dY = -cosh(g) Omega0^T P - sinh(g) Omega0^T BP,
        df/dgamma = -p' e^{2 c gamma} - sinh(g) Omega0(P,Y) - cosh(g) Omega0(BP,Y).
    """
    omega0 = model.omega0
    y, gamma = coords[..., 1:-1], coords[..., -1:]
    ch, sh = np.cosh(gamma), np.sinh(gamma)
    oy = apply_rows(omega0, y)
    grad = np.zeros(np.shape(fields))
    grad[..., 0, 0] = 1.0
    grad[..., 1:-1, 1:-1] = -ch[..., None] * omega0 - sh[..., None] * (B.T @ omega0)
    grad[..., 1:-1, -1] = -sh * oy - ch * apply_rows(B.T, oy)
    grad[..., -1, -1] = -np.exp(2.0 * c * gamma[..., 0])
    return np.max(np.abs(np.swapaxes(fields, -1, -2) @ darboux_matrix(model) - grad),
                  axis=(-2, -1))


def strongly_hamiltonian_defect(B: np.ndarray, omega0: np.ndarray) -> np.ndarray:
    """Comoment homomorphism defect 0.5 (B^T Omega0 B - Omega0).

    Entry (i, j) is (1/2)(Omega0(B e_i, B e_j) - Omega0(e_i, e_j)); it vanishes
    exactly when B preserves Omega0.
    """
    return 0.5 * (B.T @ omega0 @ B - omega0)


def heisenberg_extension_check(model: SymplecticModel, a, c: float = 1.0) -> dict:
    """Structure of the dilation extension for B = c*Id.

    The derived algebra of h_{c Id, c} is Heisenberg of dimension 2n - 1 and
    the complement generator acts on it with eigenvalues -c (multiplicity
    2n - 2) and -2c (multiplicity 1).  Both are read in the coordinates of
    h, from its structure constants modulo R*A.
    """
    d = 2 * (model.n - 1)
    sub, gens, cand = build_h(model, c * np.eye(d), a=0.0, c=c)
    c_h, _ = structure_constants(sub, line(as_matrix(a)))
    ident = np.eye(sub.dim)
    rows = bracket_rows(c_h, ident, ident)  # h' as orthonormal coordinate rows
    # brackets of h' in the coordinates of h, then read in the rows of h'
    brackets = np.einsum("ai,bj,ijk->abk", rows, rows, c_h)
    c_derived = brackets @ rows.T
    cert = constants_certificate(
        c_derived, float(np.max(np.abs(brackets - c_derived @ rows), initial=0.0)))
    # row j of sum_i alpha_i c_h[i] holds the coordinates of [K(1, 0, 0), b_j]
    images = rows @ np.tensordot(sub.coordinates([gens[0]])[:, 0], c_h, axes=1)
    if not np.max(np.abs(images - (images @ rows.T) @ rows)) <= 1e-6:
        raise ValueError("ad(x) does not preserve the subspace")
    eigs = np.linalg.eigvals(images @ rows.T)
    return {
        "derived_dim": rows.shape[0],
        "certificate": cert,
        "dilation_eigenvalues": eigs[np.lexsort((eigs.imag, eigs.real))],
        "expected_eigenvalues": sorted([-c] * (2 * model.n - 2) + [-2.0 * c]),
    }
