"""Transvection algebra of M_A: base points, Cartan-type split and classification.

The symmetry S at the distinguished base point of Sigma_A conjugates the
centralizer algebra g1 = {X in sp : XA = AX}; its (-1)-eigenspace p1 and
the bracket span k1 = [p1, p1] assemble the transvection algebra, taken
modulo the line R*A whenever A lies in k1 (nilpotent case).  The algebra's
basis is graded: p1 rows first, then k~ rows, with no re-orthonormalization.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .core import SymplecticModel, as_matrix
from .geometry import symmetry_matrix
from .lie import (
    MatrixLieSubspace,
    StructureCertificate,
    bracket_rows,
    bracket_span,
    centralizer_in_sp,
    involution_eigenspace,
    line,
    series_certificate,
    series_dims,
    subspace_from_matrices,
)

#: span-membership residual at which A is declared inside k1
A_MEMBERSHIP_TOL = 1e-7


@dataclass
class TransvectionData:
    """Base point, centralizer split and the assembled transvection algebra.

    ``algebra`` carries the graded basis: the rows of p1 followed by those of
    k~ (k1, or its trace-orthogonal complement of A when ``a_in_k1``), so
    its structure constants have the symmetric-pair block form
    [p, p] in k, [k, p] in p, [k, k] in k.  When ``a_in_k1`` the brackets
    are understood modulo the line through A (``modulo``).
    """

    base_point: np.ndarray
    symmetry: np.ndarray
    centralizer: MatrixLieSubspace  # g1
    p_part: MatrixLieSubspace       # (-1)-eigenspace of conjugation by S
    k_part: MatrixLieSubspace       # [p1, p1]
    a_in_k1: bool
    algebra: MatrixLieSubspace
    modulo: MatrixLieSubspace | None


def base_point(model: SymplecticModel) -> np.ndarray:
    """The distinguished base point of Sigma_A for each normal form, an (N,) array."""
    dim = model.ambient_dim
    x = np.zeros(dim)
    if model.case == "hyperbolic":
        s = 1.0 / np.sqrt(2.0 * model.k)
        x[0] = -s
        x[model.n + 1] = s
    elif model.case == "elliptic":
        x[0] = 1.0 / np.sqrt(model.k)
    else:
        x[model.p + 2 * (model.n + 1 - model.p)] = 1.0  # e*_1
    return x


def transvection_algebra(model: SymplecticModel, a,
                         exact: bool = False) -> TransvectionData:
    """Assemble the transvection algebra from the centralizer split at the base point."""
    x0 = base_point(model)
    s_mat = symmetry_matrix(model, a, x0)
    g1 = centralizer_in_sp(model, a, exact=exact)
    theta = lambda m: s_mat @ m @ s_mat
    p1 = involution_eigenspace(g1, theta, -1)
    k1 = bracket_span(p1, p1)
    if p1.dim == 0 or k1.dim == 0:
        raise ValueError("degenerate eigenspace split; check the base point")
    amat = as_matrix(a)
    a_unit = amat / np.linalg.norm(amat.reshape(-1))
    a_in_k1 = k1.distance(a_unit) <= A_MEMBERSHIP_TOL
    k_rows, modulo = k1.rows, None
    if a_in_k1:
        # quotient by R*A: keep the trace-orthogonal complement of A inside k1
        flat_a = a_unit.reshape(-1)
        k_rows = subspace_from_matrices(k1.rows - np.outer(k1.rows @ flat_a, flat_a),
                                        model.ambient_dim).rows
        modulo = line(amat)
    # S is orthogonal, so theta = Ad S preserves the trace form and its
    # eigenspaces p1 and k1 are trace-orthogonal: the stacked rows stay orthonormal
    algebra = MatrixLieSubspace(model.ambient_dim, np.vstack([p1.rows, k_rows]))
    return TransvectionData(
        base_point=x0,
        symmetry=s_mat,
        centralizer=g1,
        p_part=p1,
        k_part=k1,
        a_in_k1=a_in_k1,
        algebra=algebra,
        modulo=modulo,
    )


def upper_left_traces(data: TransvectionData, model: SymplecticModel) -> np.ndarray:
    """Traces of the leading (n+1)-block of the algebra basis (hyperbolic sl check)."""
    m = model.n + 1
    return np.array([np.trace(b[:m, :m]) for b in data.algebra.basis])


def nilpotent_ideal_report(cert: StructureCertificate) -> dict:
    """Codimension-1 nilpotent-ideal certificate for the solvable nilpotent case (p=2).

    ``cert`` is the algebra's certificate (modulo R*A); its structure
    constants c and derived algebra are read from it.  The candidate ideal
    is the derived algebra; the report records its codimension, the ideal
    property [g, I] in I (sup-norm of the off-ideal part in structure-constant
    coordinates), and termination of its lower central series.
    """
    c, ideal = cert.structure, cert.derived_rows
    d = c.shape[0]
    # coordinates of [b_i, y] for every basis element b_i and ideal row y, off the ideal
    image = np.einsum("ijk,bj->ibk", c, ideal).reshape(-1, d)
    ideal_res = float(np.max(np.abs(image - (image @ ideal.T) @ ideal), initial=0.0))
    series = series_dims(c, ideal, bracket_rows(c, ideal, ideal), against_self=False)
    return {
        "ideal_dim": ideal.shape[0],
        "codimension": d - ideal.shape[0],
        "ideal_residual": ideal_res,
        "lower_central_dims": series,
        "nilpotent": series[-1] == 0,
    }


def classify_transvection(data: TransvectionData,
                          model: SymplecticModel) -> tuple[StructureCertificate, str]:
    """Structure certificate plus the case label the dimensions identify.

    hyperbolic -> sl(n+1, R); elliptic -> su(p, q); nilpotent p=1 ->
    abelian R^{2n}; p=2 -> solvable with codimension-1 nilpotent ideal;
    p>2 -> non-solvable (Levi-type).
    """
    cert = series_certificate(data.algebra, modulo=data.modulo)
    n = model.n
    if model.case == "hyperbolic":
        label = f"sl({n + 1},R)" if cert.dimension == (n + 1) ** 2 - 1 else "unexpected"
    elif model.case == "elliptic":
        expected = (n + 1) ** 2 - 1
        label = f"su({model.p},{model.q})" if cert.dimension == expected else "unexpected"
    else:
        if model.p == 1:
            label = "abelian" if cert.abelian and cert.dimension == 2 * n else "unexpected"
        elif model.p == 2:
            label = "solvable" if cert.solvable else "unexpected"
        else:
            label = "non-solvable (Levi-type)" if not cert.solvable else "unexpected"
    return cert, label
