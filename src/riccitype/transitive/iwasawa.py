"""Iwasawa-type simply transitive deformations for the negative case with p = 1.

The transvection algebra of the elliptic p = 1 model is su(1, n), realized
as real 2(n+1) matrices through the complex identification z = x + iy.
With the standard rank-one element a of the odd part, the algebra splits
into ad(a)-eigenspaces with eigenvalues {0, +-1, +-2}; n is the sum of the
positive ones (a Heisenberg algebra of dimension 2n - 1), read from one
symmetric eigensolve since a is symmetric, and m is the centralizer of a in
the even part.  Graphs a_phi = {X + phi(X)} over the line R a, with phi(a)
in the maximal torus of m, give a family of solvable algebras
h_phi = a_phi + n whose groups act simply transitively on the ball chart.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ..core import SymplecticModel, build_model
from ..lie import MatrixLieSubspace, ad_matrix, line, rank_split, subspace_from_matrices
from ..transvection import TransvectionData, transvection_algebra


def realify(m_complex: np.ndarray) -> np.ndarray:
    """Real 2N x 2N matrix of a C-linear map acting on z = x + iy."""
    re, im = m_complex.real, m_complex.imag
    return np.block([[re, -im], [im, re]])


def rank_one_odd_element(n: int) -> np.ndarray:
    """The standard a = [[0, e1^T], [e1, 0]] of su(1, n), realified."""
    v = np.zeros((n + 1, n + 1), dtype=complex)
    v[0, 1] = 1.0
    v[1, 0] = 1.0
    return realify(v)


def torus_element(n: int, phi_params: np.ndarray) -> np.ndarray:
    """Torus element of m with diagonal angles phi_params, realified.

    diag(-i s/2, -i s/2, i t_1, ..., i t_{n-1}) with s = sum(t); traceless
    and commuting with the rank-one element.
    """
    phi_params = np.asarray(phi_params, dtype=float)
    if phi_params.shape != (n - 1,):
        raise ValueError(f"phi_params must have length n-1 = {n - 1}")
    s = float(np.sum(phi_params))
    diag = np.concatenate([[-0.5j * s, -0.5j * s], 1j * phi_params])
    return realify(np.diag(diag))


@dataclass
class IwasawaData:
    """su(1, n) with its Iwasawa-adapted pieces, all as real matrix subspaces."""

    model: SymplecticModel
    transvection: TransvectionData    # g = su(1, n), with k = u(n) its k_part
    abelian_part: MatrixLieSubspace   # a, one-dimensional
    centralizer_m: MatrixLieSubspace  # m = centralizer of a in k
    nilpotent_part: MatrixLieSubspace  # n = positive ad(a)-eigenspaces
    a_generator: np.ndarray

    @property
    def n(self) -> int:
        return self.model.n


def iwasawa_su1n(n: int) -> IwasawaData:
    """Build su(1, n) inside the elliptic p = 1 model, at k = 1, with its Iwasawa pieces.

    A_k = k A_1 has the centralizer of A_1, so the pieces do not depend on k."""
    if n < 2:
        raise ValueError("n must be >= 2")
    model = build_model("elliptic", n, p=1)
    tv = transvection_algebra(model)
    g = tv.algebra
    a_gen = rank_one_odd_element(n)
    if tv.p_part.distance(a_gen / np.linalg.norm(a_gen)) > 1e-9:
        raise RuntimeError("rank-one element is not in the odd part")
    # a is symmetric, so ad(a) is self-adjoint in the trace form: its matrix in
    # the orthonormal rows of g is symmetric, with eigenvalues in {0, +-1, +-2}
    ad_a = ad_matrix(g, a_gen)
    if not np.max(np.abs(ad_a - ad_a.T)) <= 1e-9:
        raise ValueError("ad(a) is not symmetric in the orthonormal rows of g")
    vals, vecs = np.linalg.eigh(ad_a)
    n_plus = MatrixLieSubspace(model.ambient_dim, vecs[:, vals > 0.5].T @ g.rows)
    # m = centralizer of a inside k = [p1, p1]
    k_part = tv.k_part
    cols = (a_gen @ k_part.basis - k_part.basis @ a_gen).reshape(k_part.dim, -1).T
    kernel = rank_split(cols, rtol=1e-9)[1]
    m_part = MatrixLieSubspace(model.ambient_dim, kernel.T @ k_part.rows)
    return IwasawaData(
        model=model,
        transvection=tv,
        abelian_part=line(a_gen),
        centralizer_m=m_part,
        nilpotent_part=n_plus,
        a_generator=a_gen,
    )


def build_a_phi(iw: IwasawaData, phi_params) -> tuple[MatrixLieSubspace, np.ndarray]:
    """The solvable algebra h_phi = a_phi + n and the generator a + phi(a) of a_phi.

    phi(a) is the torus element of m with angles ``phi_params`` (length n-1).
    """
    phi = torus_element(iw.n, phi_params)
    norm = np.linalg.norm(phi)
    if norm > 0 and iw.centralizer_m.distance(phi / norm) > 1e-8:
        raise ValueError("phi(a) does not lie in the centralizer m")
    gen = iw.a_generator + phi
    return subspace_from_matrices([gen, *iw.nilpotent_part.basis], iw.model.ambient_dim), gen


def sample_ball_points(n: int, count: int, seed: int) -> np.ndarray:
    """Seeded (count, 2n) sample of points of the ball chart, one per row, all with |w| < 0.9."""
    rng = np.random.default_rng(seed)
    v = rng.standard_normal((count, 2 * n))
    r = 0.9 * rng.uniform(size=count) ** (1.0 / (2 * n))
    return (r / np.linalg.norm(v, axis=1))[:, None] * v
