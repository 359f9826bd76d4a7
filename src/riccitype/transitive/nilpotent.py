"""Simply transitive subalgebras for the flat-characteristic case with p = 2.

A candidate complement to the even part of the transvection algebra is
parametrized by (B, a~, b~, c~, a, c, eps); its generator for parameters
(p, P, p') is the block matrix K below.  The subspace closes under the
bracket (mod R*A) iff two bilinear identities hold, which force

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

from ..core import SymplecticModel, as_matrix
from ..geometry import ChartPoint, chart_section, pushforward_darboux
from ..lie import (MatrixLieSubspace, bracket_rows, line, series_certificate,
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


def candidate_matrix_K(cand: NilpotentCandidate, p: float, P: np.ndarray,
                       p_prime: float, omega0: np.ndarray) -> np.ndarray:
    """Generator matrix K(p, P, p') of the candidate family.

    Blocks over the basis (e_1, e_2; f_a; e*_1, e*_2), with
    underline(v) = v^T Omega0 and v = p a~ + B P + p' c~:

        [[0, -eps p], .  [-underline(P); -eps underline(v)] . [[-p'', eps p'], [p', p'']]]
        [      0      .                0                    .        (P | v)             ]
        [      0      .                0                    .  [[0, -eps p], [p, 0]]     ]

    where p'' = a p + Omega0(b~, P) + c p'.
    """
    P = np.asarray(P, dtype=float)
    d = cand.block_dim
    if P.shape[0] != d or omega0.shape != (d, d):
        raise ValueError("dimension mismatch between P, B and Omega0")
    eps = float(cand.epsilon)
    v = p * cand.a_tilde + cand.B @ P + p_prime * cand.c_tilde
    ppp = cand.a * p + float(cand.b_tilde @ omega0 @ P) + cand.c * p_prime
    dim = 4 + d
    k = np.zeros((dim, dim))
    corner = np.array([[0.0, -eps * p], [p, 0.0]])
    k[:2, :2] = corner
    k[d + 2:, d + 2:] = corner
    k[0, 2:2 + d] = -(P @ omega0)
    k[1, 2:2 + d] = -eps * (v @ omega0)
    k[:2, d + 2:] = np.array([[-ppp, eps * p_prime], [p_prime, ppp]])
    k[2:2 + d, d + 2] = P
    k[2:2 + d, d + 3] = v
    return k


def family_generators(cand: NilpotentCandidate, omega0: np.ndarray) -> list[np.ndarray]:
    """Generators K(1,0,0), K(0,e_a,0), K(0,0,1)."""
    d = cand.block_dim
    gens = [candidate_matrix_K(cand, 1.0, np.zeros(d), 0.0, omega0)]
    for a in range(d):
        gens.append(candidate_matrix_K(cand, 0.0, np.eye(d)[a], 0.0, omega0))
    gens.append(candidate_matrix_K(cand, 0.0, np.zeros(d), 1.0, omega0))
    return gens


def _generator_tuples(d: int) -> list[tuple[float, np.ndarray, float]]:
    tuples = [(1.0, np.zeros(d), 0.0)]
    tuples += [(0.0, np.eye(d)[a], 0.0) for a in range(d)]
    tuples += [(0.0, np.zeros(d), 1.0)]
    return tuples


@dataclass
class ClosureReport:
    """Residuals of the two bracket-closure identities plus condition flags."""

    residual_first: float
    residual_second: float
    flags: dict[str, bool]

    @property
    def residual(self) -> float:
        return float(np.max([self.residual_first, self.residual_second]))

    @property
    def all_conditions(self) -> bool:
        return all(self.flags.values())


def closure_conditions(cand: NilpotentCandidate, omega0: np.ndarray,
                       tol: float = 1e-10) -> ClosureReport:
    """Evaluate both closure identities over a spanning set of generator pairs.

    By bilinearity it is enough to run all pairs of unit tuples
    (p, P, p') in {(1,0,0)} u {(0,e_a,0)} u {(0,0,1)}.
    """
    d = cand.block_dim
    eps = float(cand.epsilon)
    B, at, bt, ct, c = cand.B, cand.a_tilde, cand.b_tilde, cand.c_tilde, cand.c

    def pair(u, w):
        return float(u @ omega0 @ w)

    res1, res2 = [], []
    tuples = _generator_tuples(d)
    for (p, P, pp) in tuples:
        vP = p * at + B @ P + pp * ct
        for (q, Q, qp) in tuples:
            vQ = q * at + B @ Q + qp * ct
            r_vec = q * (B @ P) - p * (B @ Q) + (q * pp - p * qp) * ct
            s_vec = eps * (-q * P + p * Q)
            r_prime = (-2.0 * p * pair(bt, Q) + 2.0 * q * pair(bt, P)
                       - 2.0 * c * (p * qp - pp * q)
                       - eps * pair(vP, Q) + eps * pair(vQ, P))
            r1 = 2.0 * eps * (p * qp - pp * q) + 2.0 * pair(P, Q)
            r2 = 2.0 * eps * (p * qp - pp * q) - 2.0 * eps * pair(vP, vQ)
            res1.append(np.max(np.abs(s_vec - (B @ r_vec + r_prime * ct)), initial=0.0))
            res2.append(abs(0.5 * (r1 + r2) - (pair(bt, r_vec) + c * r_prime)))
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
            validate: bool = True) -> tuple[MatrixLieSubspace, list[np.ndarray], NilpotentCandidate]:
    """Assemble the candidate subalgebra h_{B, a~, a, c} inside the transvection quotient.

    Preconditions for an accepted family (checked unless validate=False):
    B^2 = Id, c^2 = 1 and the isotropy of the image of (B - c) under Omega0.
    Returns (subspace, generator list, completed candidate); the subspace is
    understood modulo the line R*A.
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


def fundamental_field_p2q1(B: np.ndarray, c: float, generator, chart_point,
                           omega0: np.ndarray) -> np.ndarray:
    """Closed-form fundamental vector field on the (y0, Y, gamma) chart.

    For the generator with parameters (p, P, p') of a normalized family:

        -p d_gamma
        -(cosh(g) P + sinh(g) BP) d_Y
        -(Omega0(P,Y) sinh(g) + Omega0(BP,Y) cosh(g) + p' (sinh(g)+c cosh(g))^2) d_y0
    """
    p, P, pp = generator
    P = np.asarray(P, dtype=float)
    coords = chart_point.coords if isinstance(chart_point, ChartPoint) else np.asarray(chart_point)
    y = coords[1:-1]
    gamma = coords[-1]
    ch, sh = np.cosh(gamma), np.sinh(gamma)
    bp = B @ P
    out = np.zeros_like(coords)
    out[-1] = -p
    out[1:-1] = -(ch * P + sh * bp)
    out[0] = -(float(P @ omega0 @ y) * sh + float(bp @ omega0 @ y) * ch
               + pp * (sh + c * ch) ** 2)
    return out


def sigma_level_field(model: SymplecticModel, a, k_matrix: np.ndarray, cp: ChartPoint) -> np.ndarray:
    """Fundamental field via the exact quotient differential of -K x at a section point."""
    x = chart_section(model, a, cp)
    return pushforward_darboux(model, x, -(k_matrix @ x))


def simply_transitive_certificate(model: SymplecticModel, fields, chart_points,
                                  rank_tol: float = 1e-7) -> dict:
    """Rank certificate of a family of chart vector fields at sampled points.

    ``fields`` are callables ChartPoint -> tangent vector.  Reports the rank
    and smallest singular value at every sample; the verdict fails with a
    witness if the rank ever drops below the chart dimension.
    """
    expected = 2 * model.n
    min_sv = np.inf
    witness = None
    ranks = []
    for idx, cp in enumerate(chart_points):
        mat = np.stack([np.asarray(f(cp), dtype=float) for f in fields], axis=1)
        svals = np.linalg.svd(mat, compute_uv=False)
        rank = int(np.sum(svals > rank_tol * svals[0]))
        ranks.append(rank)
        min_sv = min(min_sv, float(svals[min(expected, len(svals)) - 1]))
        if rank < expected and witness is None:
            witness = (idx, cp)
    return {
        "expected_rank": expected,
        "ranks": ranks,
        "min_rank": min(ranks),
        "min_singular_value": float(min_sv),
        "passed": witness is None and min(ranks) == expected,
        "witness": witness,
    }


def frame_invertibility_minimum(B: np.ndarray, gammas) -> tuple[float, int]:
    """(min over samples of sigma_min / sigma_max of cosh(g) Id + sinh(g) B, its index).

    The ratio is a scale-free invertibility statistic, 1 for scalar B.
    """
    ident = np.eye(B.shape[0])
    frames = np.array([np.cosh(g) * ident + np.sinh(g) * B for g in gammas])
    svals = np.linalg.svd(frames, compute_uv=False)
    ratios = svals[:, -1] / svals[:, 0]
    worst = int(np.argmin(ratios))  # the first NaN, if any
    return float(ratios[worst]), worst


def moment_map_f(B: np.ndarray, c: float, generator, chart_point,
                 omega0: np.ndarray) -> float:
    """Hamiltonian of the fundamental field:

    f = p y0 - (1/2c) p' e^{2 c gamma} - Omega0(P,Y) cosh(g) - Omega0(BP,Y) sinh(g).
    """
    p, P, pp = generator
    P = np.asarray(P, dtype=float)
    coords = chart_point.coords if isinstance(chart_point, ChartPoint) else np.asarray(chart_point)
    y0, y, gamma = coords[0], coords[1:-1], coords[-1]
    return float(p * y0 - pp * np.exp(2.0 * c * gamma) / (2.0 * c)
                 - (P @ omega0 @ y) * np.cosh(gamma)
                 - ((B @ P) @ omega0 @ y) * np.sinh(gamma))


def hamiltonian_residual(model: SymplecticModel, B: np.ndarray, c: float, generator,
                         chart_point, fd_step: float = 1e-5) -> float:
    """|df - i(X*)omega| componentwise, with df by central differences."""
    omega0 = model.omega0
    coords = chart_point.coords if isinstance(chart_point, ChartPoint) else np.asarray(chart_point)
    d = coords.shape[0]
    grad = np.zeros(d)
    for i in range(d):
        e = np.zeros(d)
        e[i] = fd_step
        grad[i] = (moment_map_f(B, c, generator, coords + e, omega0)
                   - moment_map_f(B, c, generator, coords - e, omega0)) / (2.0 * fd_step)
    from ..geometry import darboux_matrix
    w = darboux_matrix(model)
    field = fundamental_field_p2q1(B, c, generator, coords, omega0)
    return float(np.max(np.abs(field @ w - grad)))


def strongly_hamiltonian_defect(B: np.ndarray, c: float, P, Q,
                                omega0: np.ndarray) -> float:
    """Comoment homomorphism defect (1/2)(Omega0(BP, BQ) - Omega0(P, Q))."""
    P = np.asarray(P, dtype=float)
    Q = np.asarray(Q, dtype=float)
    return 0.5 * float((B @ P) @ omega0 @ (B @ Q) - P @ omega0 @ Q)


def heisenberg_extension_check(model: SymplecticModel, a, c: float = 1.0) -> dict:
    """Structure of the dilation extension for B = c*Id.

    The derived algebra of h_{c Id, c} is Heisenberg of dimension 2n - 1 and
    the complement generator acts on it with eigenvalues -c (multiplicity
    2n - 2) and -2c (multiplicity 1).  Both are read in the coordinates of
    h, from its structure constants modulo R*A.
    """
    d = 2 * (model.n - 1)
    sub, gens, cand = build_h(model, c * np.eye(d), a=0.0, c=c)
    modulo = line(as_matrix(a))
    c_h, _ = structure_constants(sub, modulo)
    ident = np.eye(sub.dim)
    rows = bracket_rows(c_h, ident, ident)  # h' as orthonormal coordinate rows
    cert = series_certificate(MatrixLieSubspace(sub.ambient_dim, list(sub.combine(rows.T))),
                              modulo=modulo)
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
