"""Generic numerical machinery for matrix Lie subalgebras.

Subspaces of gl(N, R) are carried as lists of basis matrices; span
arithmetic flattens matrices to vectors.  Every rank, row-space and
null-space decision goes through one rank-revealing kernel,
``rank_split``: an economy SVD for tall matrices (full V only for wide
ones, whose kernel an economy SVD would drop), cut at a relative and/or
absolute singular-value threshold, that also reports the singular-value
gap at the cut.  Brackets of two bases are formed at once as a
(d1, d2, N^2) tensor.  All operations optionally work modulo a
distinguished line (or subspace), which realizes quotient algebras
concretely.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .core import SymplecticModel, as_matrix

#: relative singular-value threshold for rank decisions
RANK_RTOL = 1e-7


def rank_split(mat: np.ndarray, rtol: float = RANK_RTOL,
               atol: float = 0.0) -> tuple[np.ndarray, np.ndarray, float]:
    """Orthonormal row-space and null-space bases of an m x k matrix.

    Singular values above ``max(rtol * sigma_0, atol)`` count towards the
    rank r.  Returns ``(row_basis, null_basis, gap)``: row_basis is r x k
    (orthonormal rows), null_basis is k x (k - r) (orthonormal columns),
    and gap = sigma_r / sigma_{r+1} is the ratio of the smallest kept to
    the largest dropped singular value (1-based), inf when either side of
    the cut is empty or the largest dropped value is zero.
    """
    mat = np.asarray(mat, dtype=float)
    m, k = mat.shape
    _, s, vt = np.linalg.svd(mat, full_matrices=m < k)
    cut = max(rtol * s[0], atol) if s.size else atol
    rank = int(np.count_nonzero(s > cut))
    gap = s[rank - 1] / s[rank] if 0 < rank < s.size and s[rank] > 0 else np.inf
    return vt[:rank], vt[rank:].T, float(gap)


def bracket(x: np.ndarray, y: np.ndarray) -> np.ndarray:
    """Commutator XY - YX."""
    if x.shape != y.shape:
        raise ValueError(f"shape mismatch {x.shape} vs {y.shape}")
    return x @ y - y @ x


@dataclass
class MatrixLieSubspace:
    """Span of a list of N x N matrices, with numerically independent basis."""

    ambient_dim: int
    basis: list[np.ndarray]
    tol: float = 1e-9
    _row_space: np.ndarray | None = field(default=None, repr=False, compare=False)

    @property
    def dim(self) -> int:
        return len(self.basis)

    def stacked(self) -> np.ndarray:
        """dim x N^2 matrix of flattened basis elements."""
        n2 = self.ambient_dim ** 2
        if not self.basis:
            return np.zeros((0, n2))
        return np.stack([b.reshape(-1) for b in self.basis])

    def row_space(self) -> np.ndarray:
        """Orthonormal rows spanning the flattened basis (cached)."""
        if self._row_space is None:
            self._row_space = rank_split(self.stacked())[0]
        return self._row_space

    def distance(self, x: np.ndarray) -> float:
        """Sup-norm distance from x to the span."""
        v = x.reshape(-1)
        q = self.row_space()
        if q.shape[0] == 0:
            return float(np.max(np.abs(v))) if v.size else 0.0
        return float(np.max(np.abs(v - q.T @ (q @ v))))

    def project_out(self, x: np.ndarray) -> np.ndarray:
        """Component of x orthogonal to the span (flattened metric)."""
        v = x.reshape(-1)
        q = self.row_space()
        if q.shape[0] == 0:
            return x
        return (v - q.T @ (q @ v)).reshape(x.shape)

    def coordinates(self, mats) -> np.ndarray:
        """Least-squares coefficients in the basis, one column per matrix of ``mats``."""
        rhs = np.reshape(mats, (len(mats), -1)).T
        coeff, *_ = np.linalg.lstsq(self.stacked().T, rhs, rcond=None)
        return coeff

    def combine(self, coeffs: np.ndarray) -> np.ndarray:
        """Stacked matrices sum_i coeffs[i, j] * basis[i], one per column of ``coeffs``."""
        n = self.ambient_dim
        return (coeffs.T @ self.stacked()).reshape(-1, n, n)

    def smallest_singular_ratio(self) -> float:
        stack = self.stacked()
        if stack.shape[0] == 0:
            return 1.0
        s = np.linalg.svd(stack, compute_uv=False)
        return float(s[-1] / s[0])


#: matrices below this max-norm count as zero (inputs are kept at unit scale)
ZERO_FLOOR = 1e-12


def subspace_from_matrices(mats, ambient_dim: int, tol: float = 1e-9) -> MatrixLieSubspace:
    """Rank-reduce a list (or stacked array) of matrices to an independent spanning set."""
    if len(mats) == 0:
        return MatrixLieSubspace(ambient_dim, [], tol)
    stack = np.asarray(mats, dtype=float)
    stack = stack.reshape(len(stack), -1)
    stack = stack[np.max(np.abs(stack), axis=1) > ZERO_FLOOR]
    if stack.shape[0] == 0:
        return MatrixLieSubspace(ambient_dim, [], tol)
    rows = rank_split(stack, atol=ZERO_FLOOR)[0]
    return MatrixLieSubspace(ambient_dim, list(rows.reshape(-1, ambient_dim, ambient_dim)), tol)


def _bracket_tensor(xs, ys, modulo: MatrixLieSubspace | None = None) -> np.ndarray:
    """(d1, d2, N^2) array of flattened brackets [xs[i], ys[j]].

    ``xs`` and ``ys`` are sequences (or stacked arrays) of N x N matrices;
    the brackets are reduced mod ``modulo`` by one orthogonal projection.
    """
    x = np.asarray(xs, dtype=float)[:, None]
    y = np.asarray(ys, dtype=float)[None]
    flat = (x @ y - y @ x).reshape(x.shape[0], y.shape[1], -1)
    if modulo is None:
        return flat
    q = modulo.row_space()
    return flat - (flat @ q.T) @ q


def line(x: np.ndarray, tol: float = 1e-9) -> MatrixLieSubspace:
    """The one-dimensional span of a single matrix."""
    return subspace_from_matrices([x], x.shape[0], tol)


def centralizer_in_sp(model: SymplecticModel, a, tol: float = 1e-9,
                      exact: bool = False) -> MatrixLieSubspace:
    """Basis of {X : tX Omega + Omega X = 0 and XA = AX}.

    Solved as one SVD nullspace of the stacked linear constraints on
    vec(X).  With exact=True a rational-arithmetic nullspace cross-checks
    the dimension (entries of Omega and A are rational for k = 1).
    """
    amat = as_matrix(a)
    omega = model.omega
    dim = model.ambient_dim
    ident = np.eye(dim)
    # row-major vec: vec(MX) = (M kron I) v, vec(XM) = (I kron tM) v
    transpose_perm = np.zeros((dim * dim, dim * dim))
    for i in range(dim):
        for j in range(dim):
            transpose_perm[i * dim + j, j * dim + i] = 1.0
    sp_rows = np.kron(ident, omega.T) @ transpose_perm + np.kron(omega, ident)
    comm_rows = np.kron(ident, amat.T) - np.kron(amat, ident)
    system = np.vstack([sp_rows, comm_rows])
    kernel = rank_split(system)[1]
    sub = MatrixLieSubspace(dim, list(kernel.T.reshape(-1, dim, dim)), tol)
    if exact:
        from .exact import rational_nullspace_dimension
        exact_dim = rational_nullspace_dimension(system)
        if exact_dim != sub.dim:
            raise RuntimeError(
                f"floating nullspace dim {sub.dim} != exact dim {exact_dim}")
    return sub


def closure_residual(s: MatrixLieSubspace,
                     modulo: MatrixLieSubspace | None = None) -> float:
    """Max distance of pairwise basis brackets from the span (mod ``modulo``)."""
    if s.dim < 2:
        return 0.0
    span = s if modulo is None else subspace_from_matrices(
        s.basis + modulo.basis, s.ambient_dim, s.tol)
    upper = np.triu_indices(s.dim, 1)
    return float(np.max(np.abs(_bracket_tensor(s.basis, s.basis, span)[upper])))


def involution_eigenspace(s: MatrixLieSubspace, theta, sign: int,
                          tol: float = 1e-9) -> MatrixLieSubspace:
    """(+1)- or (-1)-eigenspace of an involutive map theta preserving s."""
    if sign not in (1, -1):
        raise ValueError("sign must be +1 or -1")
    if s.dim == 0:
        return MatrixLieSubspace(s.ambient_dim, [], s.tol)
    images = [theta(b) for b in s.basis]
    if max(s.distance(img) for img in images) > 1e-7:
        raise ValueError("theta does not preserve the subspace")
    t_mat = s.coordinates(images)
    if np.max(np.abs(t_mat @ t_mat - np.eye(s.dim))) > 1e-7:
        raise ValueError("theta is not involutive on the subspace")
    kernel = rank_split(t_mat - sign * np.eye(s.dim))[1]
    return subspace_from_matrices(s.combine(kernel), s.ambient_dim, tol)


def bracket_span(s1: MatrixLieSubspace, s2: MatrixLieSubspace,
                 modulo: MatrixLieSubspace | None = None) -> MatrixLieSubspace:
    """Span of all pairwise brackets [s1, s2], reduced mod ``modulo``."""
    if s1.ambient_dim != s2.ambient_dim:
        raise ValueError("ambient dimension mismatch")
    if s1.dim == 0 or s2.dim == 0:
        return MatrixLieSubspace(s1.ambient_dim, [], s1.tol)
    brackets = _bracket_tensor(s1.basis, s2.basis, modulo)
    return subspace_from_matrices(brackets.reshape(-1, s1.ambient_dim, s1.ambient_dim),
                                  s1.ambient_dim, s1.tol)


def center(s: MatrixLieSubspace,
           modulo: MatrixLieSubspace | None = None) -> MatrixLieSubspace:
    """Elements commuting with everything in s (mod ``modulo``)."""
    if s.dim == 0:
        return s
    # solve sum_i c_i [b_i, b_j] = 0 (mod `modulo`) for all j: rows (j, entry), columns i
    system = _bracket_tensor(s.basis, s.basis, modulo).transpose(1, 2, 0).reshape(-1, s.dim)
    kernel = rank_split(system)[1]
    return subspace_from_matrices(s.combine(kernel), s.ambient_dim, s.tol)


@dataclass
class StructureCertificate:
    """Series dimensions and structural flags of a bracket-closed subspace."""

    dimension: int
    derived_series_dims: list[int]
    lower_central_dims: list[int]
    center_dim: int
    abelian: bool
    solvable: bool
    nilpotent: bool
    heisenberg: bool


def _series(s: MatrixLieSubspace, against_self: bool,
            modulo: MatrixLieSubspace | None) -> list[int]:
    dims = [s.dim]
    current = s
    while current.dim > 0:
        nxt = bracket_span(current if against_self else s, current, modulo=modulo)
        if nxt.dim >= current.dim:
            dims.append(nxt.dim)
            break
        dims.append(nxt.dim)
        current = nxt
    return dims


def series_certificate(s: MatrixLieSubspace,
                       modulo: MatrixLieSubspace | None = None,
                       closure_tol: float = 1e-8) -> StructureCertificate:
    """Derived/lower-central series dims and abelian/solvable/nilpotent/heisenberg flags."""
    if closure_residual(s, modulo=modulo) > closure_tol:
        raise ValueError("subspace is not closed under the bracket")
    derived = _series(s, against_self=True, modulo=modulo)
    lower = _series(s, against_self=False, modulo=modulo)
    cent = center(s, modulo=modulo)
    solvable = derived[-1] == 0
    nilpotent_flag = lower[-1] == 0
    abelian = s.dim == 0 or derived[1] == 0
    heis = _heisenberg_flag(s, cent, modulo)
    return StructureCertificate(
        dimension=s.dim,
        derived_series_dims=derived,
        lower_central_dims=lower,
        center_dim=cent.dim,
        abelian=abelian,
        solvable=solvable,
        nilpotent=nilpotent_flag,
        heisenberg=heis,
    )


def _heisenberg_flag(s: MatrixLieSubspace, cent: MatrixLieSubspace,
                     modulo: MatrixLieSubspace | None) -> bool:
    # center dim 1, derived algebra equal to the center, and the induced
    # antisymmetric form on s/center nondegenerate (equivalently dim odd)
    if s.dim < 3 or s.dim % 2 == 0 or cent.dim != 1:
        return False
    derived = bracket_span(s, s, modulo=modulo)
    if derived.dim != 1 or cent.distance(derived.basis[0]) > 1e-7:
        return False
    z = cent.basis[0].reshape(-1)
    lam = _bracket_tensor(s.basis, s.basis, modulo) @ z / float(z @ z)
    rank = rank_split(lam, rtol=0.0, atol=1e-8)[0].shape[0]
    return rank == s.dim - 1


def ad_matrix(s: MatrixLieSubspace, x: np.ndarray,
              modulo: MatrixLieSubspace | None = None) -> np.ndarray:
    """Matrix of ad(x) = [x, .] in the basis coordinates of s."""
    if s.dim == 0:
        return np.zeros((0, 0))
    images = _bracket_tensor([x], s.basis, modulo)[0]
    if max(s.distance(img) for img in images) > 1e-6:
        raise ValueError("ad(x) does not preserve the subspace")
    return s.coordinates(images)


def ad_eigenvalues(s: MatrixLieSubspace, x: np.ndarray,
                   modulo: MatrixLieSubspace | None = None) -> np.ndarray:
    """Complex eigenvalue multiset of ad(x) on s, sorted by (re, im)."""
    vals = np.linalg.eigvals(ad_matrix(s, x, modulo=modulo))
    order = np.lexsort((vals.imag, vals.real))
    return vals[order]


def ad_eigenspaces(s: MatrixLieSubspace, x: np.ndarray,
                   cluster_tol: float = 1e-6,
                   modulo: MatrixLieSubspace | None = None) -> dict[float, MatrixLieSubspace]:
    """Real eigen-decomposition of ad(x) on s, eigenvalues clustered.

    Raises if ad(x) is not diagonalizable over R (complex or defective
    eigenstructure at the given tolerance).
    """
    mat = ad_matrix(s, x, modulo=modulo)
    vals = np.linalg.eigvals(mat)
    if np.max(np.abs(vals.imag)) > cluster_tol:
        raise ValueError("ad(x) has non-real eigenvalues; not split over R")
    reals = np.sort(vals.real)
    clusters: list[list[float]] = []
    for v in reals:
        if clusters and abs(v - clusters[-1][-1]) <= cluster_tol:
            clusters[-1].append(v)
        else:
            clusters.append([v])
    out: dict[float, MatrixLieSubspace] = {}
    total = 0
    scale = max(1.0, float(np.max(np.abs(mat))))
    for group in clusters:
        lam = float(np.mean(group))
        kernel = rank_split(mat - lam * np.eye(s.dim), rtol=0.0,
                            atol=10 * cluster_tol * scale)[1]
        if kernel.shape[1] != len(group):
            raise ValueError(f"ad(x) defective at eigenvalue {lam:.6g}")
        out[lam] = subspace_from_matrices(s.combine(kernel), s.ambient_dim, s.tol)
        total += len(group)
    if total != s.dim:
        raise ValueError("eigenspace dimensions do not fill the subspace")
    return out
