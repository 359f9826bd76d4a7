"""Generic numerical machinery for matrix Lie subalgebras.

Subspaces of gl(N, R) are carried as orthonormal rows of their
flattened basis matrices (``MatrixLieSubspace.rows``), so coordinates
and distances are projections onto the rows.  Every rank, row-space and
null-space decision goes through one rank-revealing kernel,
``rank_split``: an economy SVD for tall matrices (full V only for wide
ones, whose kernel an economy SVD would drop), cut at a relative and/or
absolute singular-value threshold, that also reports the singular-value
gap at the cut.  Brackets of two bases are formed at once as a
(d1, d2, N^2) tensor.

The structure of a bracket-closed subspace of dimension d (closure,
series, center, Heisenberg flag) is read from its structure constants,
the (d, d, d) array c with [b_i, b_j] = sum_k c[i, j, k] b_k (de Graaf,
*Lie Algebras: Theory and Algorithms*, 2000).  ``structure_constants``
computes c and the closure residual from one bracket tensor; its
subspaces are then coordinate rows of length d.  A quotient algebra
(modulo a distinguished line or subspace) is taken there and only there:
``structure_constants`` and ``series_certificate`` take ``modulo``, and
every other route works on c or on plain matrix brackets.
``constants_certificate`` reads the certificate from c alone, for an
algebra known only by its structure constants.
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
    """Span of N x N matrices, carried as orthonormal rows of their flattenings.

    ``rows`` is (dim, N^2) with rows @ rows.T = I; every constructor in this
    package keeps that invariant (``rank_split`` row and null bases, products
    of orthonormal coordinate columns with orthonormal rows, and stacks of
    trace-orthogonal eigenspaces), so coordinates and distances are
    projections onto the rows.
    """

    ambient_dim: int
    rows: np.ndarray

    @property
    def dim(self) -> int:
        return self.rows.shape[0]

    @property
    def basis(self) -> np.ndarray:
        """(dim, N, N) stack of the basis matrices."""
        n = self.ambient_dim
        return self.rows.reshape(self.dim, n, n)

    def coordinates(self, mats) -> np.ndarray:
        """Coordinates of the orthogonal projections onto the span, one column per matrix."""
        return self.rows @ np.reshape(mats, (-1, self.rows.shape[1])).T

    def distance(self, x) -> float:
        """Sup-norm distance from a matrix, or the largest over a stack of matrices, to the span."""
        v = np.reshape(x, (-1, self.rows.shape[1])).T
        return float(np.max(np.abs(v - self.rows.T @ (self.rows @ v)), initial=0.0))


#: matrices below this max-norm count as zero (inputs are kept at unit scale)
ZERO_FLOOR = 1e-12


def _row_span(stack: np.ndarray) -> np.ndarray:
    """Orthonormal rows spanning the rows of ``stack`` whose max-norm exceeds ZERO_FLOOR."""
    stack = stack[np.max(np.abs(stack), axis=1) > ZERO_FLOOR]
    return rank_split(stack, atol=ZERO_FLOOR)[0]


def subspace_from_matrices(mats, ambient_dim: int) -> MatrixLieSubspace:
    """Orthonormal rows spanning a list (or stacked array) of matrices."""
    flat = np.reshape(np.asarray(mats, dtype=float), (len(mats), ambient_dim ** 2))
    return MatrixLieSubspace(ambient_dim, _row_span(flat))


def _bracket_tensor(xs, ys) -> np.ndarray:
    """(d1, d2, N^2) array of flattened brackets [xs[i], ys[j]].

    ``xs`` and ``ys`` are sequences (or stacked arrays) of N x N matrices;
    the difference is formed in place.
    """
    x = np.asarray(xs, dtype=float)[:, None]
    y = np.asarray(ys, dtype=float)[None]
    flat = x @ y
    flat -= y @ x
    return flat.reshape(x.shape[0], y.shape[1], x.shape[-1] ** 2)


def line(x: np.ndarray) -> MatrixLieSubspace:
    """The one-dimensional span of a single matrix."""
    return subspace_from_matrices([x], x.shape[0])


def centralizer_in_sp(model: SymplecticModel, a, exact: bool = False) -> MatrixLieSubspace:
    """Basis of {X : tX Omega + Omega X = 0 and XA = AX}.

    Solved as one SVD nullspace of the stacked linear constraints on
    vec(X).  The commutation rows are built from A / max|A|, so their
    scale does not depend on k.  With exact=True a rational-arithmetic
    nullspace cross-checks the dimension (the entries of Omega and of
    A / max|A| are rational).
    """
    amat = as_matrix(a)
    omega = model.omega
    dim = model.ambient_dim
    ident = np.eye(dim)
    # row-major vec: vec(MX) = (M kron I) v, vec(XM) = (I kron tM) v, and
    # vec(tX) permutes v by the index array `transpose`
    transpose = np.arange(dim * dim).reshape(dim, dim).T.ravel()
    sp_rows = np.kron(ident, omega.T)[:, transpose] + np.kron(omega, ident)
    # [X, A] = 0 is scale-free: at unit scale the commutation rows survive the
    # relative rank cut and the rational audit's rounding for any k
    unit = amat / np.max(np.abs(amat))
    comm_rows = np.kron(ident, unit.T) - np.kron(unit, ident)
    system = np.vstack([sp_rows, comm_rows])
    sub = MatrixLieSubspace(dim, rank_split(system)[1].T)
    if exact:
        from .exact import rational_nullspace_dimension
        exact_dim = rational_nullspace_dimension(system)
        if exact_dim != sub.dim:
            raise RuntimeError(
                f"floating nullspace dim {sub.dim} != exact dim {exact_dim}")
    return sub


def involution_eigenspace(s: MatrixLieSubspace, theta, sign: int) -> MatrixLieSubspace:
    """(+1)- or (-1)-eigenspace of an involutive map theta preserving s."""
    if sign not in (1, -1):
        raise ValueError("sign must be +1 or -1")
    images = np.reshape([theta(b) for b in s.basis], s.rows.shape)
    # written as `not <=` so that a NaN residual fails the guard
    if not s.distance(images) <= 1e-7:
        raise ValueError("theta does not preserve the subspace")
    t_mat = s.coordinates(images)
    if not np.max(np.abs(t_mat @ t_mat - np.eye(s.dim)), initial=0.0) <= 1e-7:
        raise ValueError("theta is not involutive on the subspace")
    # orthonormal coordinate columns of orthonormal rows give orthonormal rows
    kernel = rank_split(t_mat - sign * np.eye(s.dim))[1]
    return MatrixLieSubspace(s.ambient_dim, kernel.T @ s.rows)


def bracket_span(s1: MatrixLieSubspace, s2: MatrixLieSubspace) -> MatrixLieSubspace:
    """Span of all pairwise brackets [s1, s2]."""
    if s1.ambient_dim != s2.ambient_dim:
        raise ValueError("ambient dimension mismatch")
    brackets = _bracket_tensor(s1.basis, s2.basis)
    return subspace_from_matrices(brackets.reshape(-1, s1.rows.shape[1]), s1.ambient_dim)


def structure_constants(s: MatrixLieSubspace, modulo: MatrixLieSubspace | None = None
                        ) -> tuple[np.ndarray, float]:
    """(c, residual): [b_i, b_j] = sum_k c[i, j, k] b_k (mod ``modulo``), and the
    sup-norm of the brackets off span(s + modulo), which is 0 when s closes.

    One bracket tensor is projected once onto orthonormal rows q of that span.
    Without ``modulo``, q is the rows of s and the projection is c itself; with
    it, c takes the rows of s followed by those of ``modulo`` and drops the latter.
    """
    d = s.dim
    stacked = s.rows if modulo is None else np.vstack([s.rows, modulo.rows])
    q = s.rows if modulo is None else _row_span(stacked)
    flat = _bracket_tensor(s.basis, s.basis)
    on_span = flat @ q.T
    # kept 3-D: a (d^2, N^2) GEMM grows the BLAS buffers
    flat -= on_span @ q
    upper = np.triu_indices(d, 1)
    residual = float(np.max(np.abs(flat[upper]), initial=0.0))
    c = on_span if modulo is None else on_span @ np.linalg.pinv(stacked @ q.T)
    return c[:, :, :d], residual


def bracket_rows(c: np.ndarray, x: np.ndarray, y: np.ndarray) -> np.ndarray:
    """Orthonormal coordinate rows spanning [x, y] for coordinate rows x and y."""
    brackets = np.einsum("ai,bj,ijk->abk", x, y, c, optimize=True)
    return _row_span(brackets.reshape(-1, c.shape[2]))


def series_dims(c: np.ndarray, start_rows: np.ndarray, second_rows: np.ndarray,
                against_self: bool) -> list[int]:
    """Dimensions of the derived (``against_self``) or lower central series.

    The series starts at the span I of the coordinate rows ``start_rows``;
    its second term [I, I] is ``second_rows``, which the caller forms, once
    for both series of an algebra.  It steps to [current, current] or [I, current]
    and stops at 0 or at the first term that does not shrink.
    """
    dims = [start_rows.shape[0]]
    current, nxt = start_rows, second_rows
    while current.shape[0] > 0:
        dims.append(nxt.shape[0])
        if not 0 < nxt.shape[0] < current.shape[0]:
            break
        current, nxt = nxt, bracket_rows(c, nxt if against_self else start_rows, nxt)
    return dims


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
    #: read by the closure and nilpotent-ideal entries of the transvection report
    closure_residual: float = field(compare=False)
    structure: np.ndarray = field(repr=False, compare=False)
    #: orthonormal coordinate rows of the derived algebra [g, g]
    derived_rows: np.ndarray = field(repr=False, compare=False)


def series_certificate(s: MatrixLieSubspace,
                       modulo: MatrixLieSubspace | None = None) -> StructureCertificate:
    """Derived/lower-central series dims and abelian/solvable/nilpotent/heisenberg flags."""
    return constants_certificate(*structure_constants(s, modulo))


def constants_certificate(c: np.ndarray, residual: float) -> StructureCertificate:
    """``series_certificate`` of the algebra with structure constants c.

    ``residual`` is the algebra's closure residual, as ``structure_constants``
    returns it; the certificate is refused when it exceeds 1e-8.
    """
    if not residual <= 1e-8:
        raise ValueError("subspace is not closed under the bracket")
    d = c.shape[0]
    eye = np.eye(d)
    derived_rows = bracket_rows(c, eye, eye) if d else eye
    derived = series_dims(c, eye, derived_rows, against_self=True)
    lower = series_dims(c, eye, derived_rows, against_self=False)
    # the center solves sum_i a_i c[i, j, k] = 0 for all (j, k): rows (j, k), columns i
    system = c.transpose(1, 2, 0).reshape(d * d, d)
    center = rank_split(system)[1]
    heisenberg = False
    if d >= 3 and d % 2 == 1 and center.shape[1] == 1 and derived[1] == 1:
        # center = derived algebra = R z, so c[i, j] = lam_ij z and the form lam
        # must have rank d - 1; `system` is c.reshape(d, d * d) transposed
        z = center[:, 0]
        row = derived_rows[0]
        heisenberg = (np.max(np.abs(row - (row @ z) * z)) <= 1e-7
                      and rank_split(system, rtol=0.0, atol=1e-8)[0].shape[0] == d - 1)
    return StructureCertificate(
        dimension=d,
        derived_series_dims=derived,
        lower_central_dims=lower,
        center_dim=center.shape[1],
        abelian=d == 0 or derived[1] == 0,
        solvable=derived[-1] == 0,
        nilpotent=lower[-1] == 0,
        heisenberg=bool(heisenberg),
        closure_residual=residual,
        structure=c,
        derived_rows=derived_rows,
    )


def ad_matrix(s: MatrixLieSubspace, x: np.ndarray) -> np.ndarray:
    """Matrix of ad(x) = [x, .] in the basis coordinates of s."""
    images = _bracket_tensor([x], s.basis)[0]
    if not s.distance(images) <= 1e-6:
        raise ValueError("ad(x) does not preserve the subspace")
    return s.coordinates(images)


def ad_eigenvalues(s: MatrixLieSubspace, x: np.ndarray) -> np.ndarray:
    """Complex eigenvalue multiset of ad(x) on s, sorted by (re, im)."""
    vals = np.linalg.eigvals(ad_matrix(s, x))
    order = np.lexsort((vals.imag, vals.real))
    return vals[order]


def ad_eigenspaces(s: MatrixLieSubspace, x: np.ndarray,
                   cluster_tol: float = 1e-6) -> dict[float, MatrixLieSubspace]:
    """Real eigen-decomposition of ad(x) on s, eigenvalues clustered.

    Raises if ad(x) is not diagonalizable over R (complex or defective
    eigenstructure at the given tolerance).
    """
    mat = ad_matrix(s, x)
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
        out[lam] = MatrixLieSubspace(s.ambient_dim, kernel.T @ s.rows)
        total += len(group)
    if total != s.dim:
        raise ValueError("eigenspace dimensions do not fill the subspace")
    return out
