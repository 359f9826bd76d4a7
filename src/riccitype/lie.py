"""Generic numerical machinery for matrix Lie subalgebras.

Subspaces of gl(N, R) are carried as orthonormal rows of their
flattened basis matrices (``MatrixLieSubspace.rows``), so coordinates
and distances are projections onto the rows.  Every rank, row-space and
null-space decision is one economy SVD cut at a relative and/or absolute
singular-value threshold, that also reports the singular-value gap at the cut:
``row_span`` keeps the rows above the cut, and ``null_space`` the vectors below
it, of the matrix padded with zero rows to square when it is wide, so that the
economy V holds every null vector; ``rank_count`` is that cut on given singular
values, for callers that take their own SVD.  Brackets of a basis with itself
are formed for a list of pairs i < j by one kernel, in fixed blocks of rows i, so
that only one block of products is held at a time.  ``bracket_span`` and ``closure_residual``
take the pairs whose supports meet (a nonzero column of b_i meets a nonzero row of
b_j, or the other way round): any other bracket is a sum of exact 0 * x, so exactly
0, and neither the span nor the sup moves (few pairs meet in the exactly sparse
hyperbolic and nilpotent bases).  ``structure_constants`` takes every pair: a GEMM
row rounds by the number of rows sharing it, so fewer would move c's last digits.

The structure of a bracket-closed subspace of dimension d (closure,
derived series, Heisenberg flag) is read from its structure constants,
the (d, d, d) array c with [b_i, b_j] = sum_k c[i, j, k] b_k (de Graaf,
*Lie Algebras: Theory and Algorithms*, 2000).  ``structure_constants``
computes c block by block, and ``closure_residual`` only the residual of
the brackets off the span; coordinate subspaces are then rows of length d.
A quotient algebra (modulo extra orthonormal rows, orthogonal to s) is taken
by ``structure_constants`` alone, through its ``modulo``; every other route
works on c or on plain matrix brackets.
``constants_certificate`` reads the certificate from c alone; when the first
g basis elements p generate the algebra, [g, g] = [g, p] is read from its
columns c[:, :g], and so is the center {x : [x, p] = 0} when the Heisenberg
test needs it.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .core import SymplecticModel, sp_residual

#: relative singular-value threshold for rank decisions
RANK_RTOL = 1e-7


def rank_count(s: np.ndarray, rtol: float = RANK_RTOL, atol: float = 0.0) -> int | np.ndarray:
    """Number of singular values above ``max(rtol * s_0, atol)``.

    ``s`` is descending along its last axis; a stack of rows gives one count per row.
    """
    return (s > np.maximum(rtol * s[..., :1], atol)).sum(axis=-1)


def _split(mat: np.ndarray, rtol: float, atol: float) -> tuple[np.ndarray, int, float]:
    """(vt, r, gap) of the economy SVD of ``mat``: the singular values above
    ``max(rtol * sigma_0, atol)`` count towards the rank r, and gap = sigma_r / sigma_{r+1}
    is the ratio of the smallest kept to the largest dropped singular value (1-based),
    inf when either side of the cut is empty or the largest dropped value is zero."""
    _, s, vt = np.linalg.svd(mat, full_matrices=False)
    rank = int(rank_count(s, rtol, atol))
    return vt, rank, float(s[rank - 1] / s[rank] if 0 < rank < s.size and s[rank] > 0 else np.inf)


def row_span(mat, rtol: float = RANK_RTOL, atol: float = 0.0) -> tuple[np.ndarray, float]:
    """(rows, gap): r x k orthonormal rows spanning the row space of an m x k matrix."""
    vt, rank, gap = _split(np.asarray(mat, dtype=float), rtol, atol)
    return vt[:rank], gap


def null_space(mat, rtol: float = RANK_RTOL, atol: float = 0.0) -> tuple[np.ndarray, float]:
    """(basis, gap): k x (k - r) orthonormal columns spanning the null space of an m x k
    matrix; a wide one is padded with zero rows to k x k, which adds zero singular values."""
    mat = np.asarray(mat, dtype=float)
    if mat.shape[0] < mat.shape[1]:
        mat = np.vstack([mat, np.zeros((mat.shape[1] - mat.shape[0], mat.shape[1]))])
    vt, rank, gap = _split(mat, rtol, atol)
    return vt[rank:].T, gap


@dataclass
class MatrixLieSubspace:
    """Span of N x N matrices, carried as orthonormal rows of their flattenings.

    ``rows`` is (dim, N^2) with rows @ rows.T = I; every constructor in this
    package keeps that invariant (``row_span`` rows, ``null_space`` bases, and
    products of orthonormal coordinate columns with orthonormal rows), so
    coordinates and distances are projections onto the rows.
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
    return row_span(stack, atol=ZERO_FLOOR)[0]


def subspace_from_matrices(mats, ambient_dim: int) -> MatrixLieSubspace:
    """Orthonormal rows spanning a list (or stacked array) of matrices."""
    flat = np.reshape(np.asarray(mats, dtype=float), (len(mats), ambient_dim ** 2))
    return MatrixLieSubspace(ambient_dim, _row_span(flat))


#: rows i per block of ``_pair_brackets``: about 5 * _BLOCK * d * N^2 doubles live at once
_BLOCK = 8


def _meeting_pairs(basis: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """The pairs i < j, row-major, for which b_i b_j or b_j b_i has a product term not
    exactly 0 * x: from the supports of the columns of each b_i and the rows of each b_j."""
    cols, rows = (np.any(basis != 0, axis=axis).astype(float) for axis in (1, 2))
    meet = cols @ rows.T > 0
    return np.nonzero(np.triu(meet | meet.T, 1))


def _pair_brackets(basis: np.ndarray, i: np.ndarray, j: np.ndarray):
    """Yield (i, j, flat) per block of rows i: flat[m] is [b_i, b_j] flattened, for the
    pairs i[m] < j[m] in row-major order (so that each block of rows is one slice)."""
    cuts = [*np.searchsorted(i, range(0, basis.shape[0], _BLOCK)), i.size]
    for lo, hi in zip(cuts[:-1], cuts[1:]):
        x, y = basis[i[lo:hi]], basis[j[lo:hi]]
        yield i[lo:hi], j[lo:hi], (x @ y - y @ x).reshape(hi - lo, basis[0].size)


def line(x: np.ndarray) -> MatrixLieSubspace:
    """The one-dimensional span of a single matrix: the row x / |x|_F.  A zero or
    non-finite matrix is refused; a small one is not, since max|A| = k can be tiny."""
    flat = np.reshape(np.asarray(x, dtype=float), (1, -1))
    if not 0.0 < np.max(np.abs(flat)) < np.inf:  # a NaN max-norm fails too
        raise ValueError("a line needs a nonzero finite matrix")
    return MatrixLieSubspace(x.shape[0], flat / np.linalg.norm(flat))


def centralizer_in_sp(model: SymplecticModel, exact: bool = False) -> MatrixLieSubspace:
    """Basis of {X : tX Omega + Omega X = 0 and XA = AX} for the model's A, solved on S = Omega X.

    X is in sp(Omega) iff S is symmetric and, as tA Omega = -Omega A, XA = AX
    iff SA + tA S = 0: one ``null_space`` on the N(N+1)/2 upper-triangle
    coordinates of S, weighted 1/sqrt(2) off the diagonal, so orthonormal null
    vectors give orthonormal X = tOmega S (Omega is a signed permutation).  With
    exact=True a rational nullspace of the unweighted system checks the dimension.
    """
    omega = model.omega
    dim = model.ambient_dim
    if not np.max(np.abs(omega.T @ omega - np.eye(dim))) <= ZERO_FLOOR:
        raise ValueError("Omega is not orthogonal, so X = tOmega S does not invert S = Omega X")
    # [X, A] = 0 is scale-free: at unit scale the commutation rows survive the
    # relative rank cut and the rational audit's rounding for any k
    unit = model.A / model.k
    if not sp_residual(omega, unit) <= ZERO_FLOOR:
        raise ValueError("A is not in sp(Omega), so XA = AX is not SA + tA S = 0")
    row, col = np.triu_indices(dim)
    sym = np.zeros((row.size, dim, dim))  # E_rc + E_cr, and E_rr on the diagonal
    sym[:, row, col] = sym[:, col, row] = np.eye(row.size)
    image = (sym.reshape(-1, dim) @ unit).reshape(sym.shape)
    system = (image + image.transpose(0, 2, 1))[:, row, col].T  # SA + t(SA) = SA + tA S
    weight = np.where(row == col, 1.0, np.sqrt(0.5))
    coords = (null_space(system * weight)[0] * weight[:, None]).T
    s_mats = np.zeros((coords.shape[0], dim, dim))
    s_mats[:, row, col] = s_mats[:, col, row] = coords
    sub = MatrixLieSubspace(dim, (omega.T @ s_mats).reshape(-1, dim * dim))
    if exact:
        from .exact import rational_nullspace_dimension
        exact_dim = rational_nullspace_dimension(system)
        if exact_dim != sub.dim:
            raise RuntimeError(
                f"floating nullspace dim {sub.dim} != exact dim {exact_dim}")
    return sub


def involution_eigenspace(s: MatrixLieSubspace, sym: np.ndarray, sign: int) -> MatrixLieSubspace:
    """(+1)- or (-1)-eigenspace of conjugation m -> sym m sym, an involution of s."""
    if sign not in (1, -1):
        raise ValueError("sign must be +1 or -1")
    images = (sym @ s.basis @ sym).reshape(s.rows.shape)
    # written as `not <=` so that a NaN residual fails the guard
    if not s.distance(images) <= 1e-7:
        raise ValueError("conjugation by sym does not preserve the subspace")
    t_mat = s.coordinates(images)
    if not np.max(np.abs(t_mat @ t_mat - np.eye(s.dim)), initial=0.0) <= 1e-7:
        raise ValueError("conjugation by sym is not involutive on the subspace")
    # orthonormal coordinate columns of orthonormal rows give orthonormal rows
    kernel = null_space(t_mat - sign * np.eye(s.dim))[0]
    return MatrixLieSubspace(s.ambient_dim, kernel.T @ s.rows)


def bracket_span(s: MatrixLieSubspace) -> MatrixLieSubspace:
    """Span of the derived subspace [s, s], from the brackets of the meeting pairs i < j:
    ``_row_span`` drops the exactly zero brackets of the others, so the span is bit-identical."""
    flat = [block for _, _, block in _pair_brackets(s.basis, *_meeting_pairs(s.basis))]
    return subspace_from_matrices(np.vstack(flat) if flat else flat, s.ambient_dim)


def _project_pairs(s: MatrixLieSubspace, modulo: MatrixLieSubspace | None, pairs,
                   c: np.ndarray | None = None) -> float:
    """Sup-norm of the brackets of ``pairs`` off span(s + modulo); a (d, d, d) ``c`` is
    filled with their coordinates on s, c[j, i] = -c[i, j].  Each block is projected by
    two GEMMs onto the rows of s followed by those of ``modulo``: extra orthonormal
    rows, orthogonal to s (a ValueError otherwise)."""
    q = s.rows if modulo is None else np.vstack([s.rows, modulo.rows])
    if not np.max(np.abs(q @ q.T - np.eye(q.shape[0])), initial=0.0) <= 1e-12:
        raise ValueError("the rows of s and modulo are not jointly orthonormal")
    residual = 0.0
    for i, j, flat in _pair_brackets(s.basis, *pairs):
        on_span = flat @ q.T
        flat -= on_span @ q
        residual = max(residual, float(np.max(np.abs(flat), initial=0.0)))
        if c is not None:
            c[i, j] = on_span[:, :s.dim]
            c[j, i] = -c[i, j]
    return residual


def closure_residual(s: MatrixLieSubspace) -> float:
    """Sup-norm of the brackets off span(s), 0 when s closes, on the meeting pairs."""
    return _project_pairs(s, None, _meeting_pairs(s.basis))


def structure_constants(s: MatrixLieSubspace, modulo: MatrixLieSubspace | None = None
                        ) -> tuple[np.ndarray, float]:
    """(c, residual): [b_i, b_j] = sum_k c[i, j, k] b_k (mod ``modulo``), and the
    closure residual of s, from every pair i < j."""
    c = np.zeros((s.dim,) * 3)
    return c, _project_pairs(s, modulo, np.triu_indices(s.dim, 1), c)


def bracket_rows(c: np.ndarray, x: np.ndarray, y: np.ndarray) -> np.ndarray:
    """Orthonormal coordinate rows spanning [x, y] for coordinate rows x and y."""
    brackets = np.einsum("ai,bj,ijk->abk", x, y, c, optimize=True)
    return _row_span(brackets.reshape(-1, c.shape[2]))


def series_dims(c: np.ndarray, start_rows: np.ndarray, second_rows: np.ndarray,
                against_self: bool) -> list[int]:
    """Dimensions of the derived (``against_self``) or lower central series.

    The series starts at the span I of the coordinate rows ``start_rows``;
    its second term [I, I] is ``second_rows``, which the caller has already
    formed.  It steps to [current, current] or [I, current]
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
    """Derived series dimensions and structural flags of a bracket-closed subspace."""

    dimension: int
    derived_series_dims: list[int]
    abelian: bool
    solvable: bool
    heisenberg: bool
    #: read by the closure and nilpotent-ideal entries of the transvection report
    closure_residual: float = field(compare=False)
    structure: np.ndarray = field(repr=False, compare=False)
    #: orthonormal coordinate rows of the derived algebra [g, g]
    derived_rows: np.ndarray = field(repr=False, compare=False)


def constants_certificate(c: np.ndarray, residual: float,
                          generators: int | None = None) -> StructureCertificate:
    """Derived series dims and abelian/solvable/heisenberg flags of the algebra with
    structure constants c.

    ``residual`` is the algebra's closure residual, as ``structure_constants``
    returns it; the certificate is refused when it exceeds 1e-8.  The first
    ``generators`` basis elements (default: all) must generate the algebra.
    """
    if not residual <= 1e-8:
        raise ValueError("subspace is not closed under the bracket")
    d = c.shape[0]
    g = d if generators is None else generators
    eye = np.eye(d)
    derived_rows = _row_span(c[:, :g].reshape(-1, d)) if d else eye
    derived = series_dims(c, eye, derived_rows, against_self=True)
    heisenberg = False
    if d >= 3 and d % 2 == 1 and derived[1] == 1:
        # the center solves sum_i a_i c[i, j, k] = 0 for all j < g and k: rows (j, k),
        # columns i; one economy SVD (the system is tall) serves its relative cut and the
        # absolute rank cut below.
        # center = derived algebra = R z, so c[i, j] = lam_ij z and the form lam
        # must have rank d - 1; lam[:, :g] has the same kernel R z, as p generates
        _, sing, vt = np.linalg.svd(c[:, :g].transpose(1, 2, 0).reshape(g * d, d),
                                    full_matrices=False)
        z, row = vt[-1], derived_rows[0]  # the center is R z when the relative cut drops one
        heisenberg = (rank_count(sing) == d - 1 and np.max(np.abs(row - (row @ z) * z)) <= 1e-7
                      and rank_count(sing, rtol=0.0, atol=1e-8) == d - 1)
    return StructureCertificate(
        dimension=d,
        derived_series_dims=derived,
        abelian=d == 0 or derived[1] == 0,
        solvable=derived[-1] == 0,
        heisenberg=bool(heisenberg),
        closure_residual=residual,
        structure=c,
        derived_rows=derived_rows,
    )


def ad_matrix(s: MatrixLieSubspace, x: np.ndarray) -> np.ndarray:
    """Matrix of ad(x) = [x, .] in the basis coordinates of s."""
    images = x @ s.basis - s.basis @ x
    if not s.distance(images) <= 1e-6:
        raise ValueError("ad(x) does not preserve the subspace")
    return s.coordinates(images)


def ad_eigenvalues(s: MatrixLieSubspace, x: np.ndarray) -> np.ndarray:
    """Eigenvalue multiset of ad(x) on s, in LAPACK's order: sort it after any rounding."""
    return np.linalg.eigvals(ad_matrix(s, x))

