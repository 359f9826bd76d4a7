"""Matrix Lie subspace machinery: brackets, centralizers, eigenspaces, series."""

import numpy as np
import pytest

from riccitype import core, lie
from riccitype.exact import rational_nullspace_dimension

from oracles import (bracket_span_oracle, center_oracle, centralizer_oracle,
                     closure_residual_oracle, coordinates_oracle, heisenberg_candidate,
                     series_oracle, structure_constants_oracle)


def e_matrix(i, j, n=2):
    m = np.zeros((n, n))
    m[i, j] = 1.0
    return m


def test_bracket_identities():
    rng = np.random.default_rng(0)
    x, y, z = rng.standard_normal((3, 4, 4))
    assert np.max(np.abs(lie.bracket(x, x))) == 0
    assert np.array_equal(lie.bracket(x, y), -lie.bracket(y, x))
    jacobi = (lie.bracket(lie.bracket(x, y), z)
              + lie.bracket(lie.bracket(y, z), x)
              + lie.bracket(lie.bracket(z, x), y))
    assert np.max(np.abs(jacobi)) <= 1e-13


def test_bracket_shape_mismatch():
    with pytest.raises(ValueError):
        lie.bracket(np.zeros((2, 2)), np.zeros((3, 3)))


@pytest.mark.parametrize("case,n,p,q,expected", [
    ("hyperbolic", 2, None, None, 9),
    ("elliptic", 2, 1, None, 9),
    ("elliptic", 3, 2, None, 16),
    ("nilpotent", 2, 2, 1, 11),
])
def test_centralizer_dimension(case, n, p, q, expected):
    model = core.build_model(case, n, p=p, q=q)
    g1 = lie.centralizer_in_sp(model)
    assert g1.dim == expected
    assert lie.structure_constants(g1)[1] <= 1e-10
    for b in g1.basis:
        assert core.sp_residual(model.omega, b) <= 1e-12
        assert np.max(np.abs(b @ model.A - model.A @ b)) <= 1e-12


def test_centralizer_exact_mode_cross_check():
    model = core.build_model("nilpotent", 2, p=2, q=1)
    g1 = lie.centralizer_in_sp(model, exact=True)
    assert g1.dim == 11


K_LADDER = [1e-7, 1e-3, 0.1, 1.0, 2.0, 10.0, 1e2, 1e3]


@pytest.mark.parametrize("k", K_LADDER)
def test_centralizer_matches_vec_x_oracle(k):
    # the (m, m) solve on symmetric S = Omega X against the (2N^2, N^2) stack on vec(X)
    for case, n, p, q in core.admissible_parameters((2, 3, 4)):
        model = core.build_model(case, n, k=k, p=p, q=q)
        new, old = lie.centralizer_in_sp(model), centralizer_oracle(model)
        assert new.dim == old.dim, (case, n, p, q)
        assert max(new.distance(old.basis), old.distance(new.basis)) <= 1e-13, (case, n, p, q)
        assert np.max(np.abs(new.rows @ new.rows.T - np.eye(new.dim))) <= 1e-13


@pytest.mark.parametrize("n", [2, 3])
def test_centralizer_exact_dimension_on_symmetric_system(monkeypatch, n):
    from riccitype import exact
    shapes = []

    def recorded(mat):
        shapes.append(mat.shape)
        return rational_nullspace_dimension(mat)
    monkeypatch.setattr(exact, "rational_nullspace_dimension", recorded)
    for case, n_, p, q in core.admissible_parameters((n,)):
        model = core.build_model(case, n_, p=p, q=q)
        # exact=True raises when the rational and floating dimensions differ
        sub = lie.centralizer_in_sp(model, exact=True)
        assert sub.dim == lie.centralizer_in_sp(model).dim
    m = (2 * n + 2) * (2 * n + 3) // 2
    assert shapes == [(m, m)] * len(core.admissible_parameters((n,)))


def test_centralizer_refuses_non_orthogonal_omega():
    from dataclasses import replace
    model = core.build_model("hyperbolic", 2)
    with pytest.raises(ValueError, match="Omega is not orthogonal"):
        lie.centralizer_in_sp(replace(model, omega=2.0 * model.omega))


def test_centralizer_refuses_a_outside_sp():
    from dataclasses import replace
    model = core.build_model("elliptic", 2, p=1)
    with pytest.raises(ValueError, match=r"A is not in sp\(Omega\)"):
        lie.centralizer_in_sp(replace(model, A=model.A + 1e-6 * np.eye(model.ambient_dim)))


def test_rational_nullspace_oracle():
    # independent rational-arithmetic dimension for the same constraint system
    model = core.build_model("nilpotent", 2, p=2, q=1)
    dim = model.ambient_dim
    ident = np.eye(dim)
    perm = np.zeros((dim * dim, dim * dim))
    for i in range(dim):
        for j in range(dim):
            perm[i * dim + j, j * dim + i] = 1.0
    system = np.vstack([
        np.kron(ident, model.omega.T) @ perm + np.kron(model.omega, ident),
        np.kron(ident, model.A.T) - np.kron(model.A, ident),
    ])
    assert rational_nullspace_dimension(system) == 11


def test_rational_nullspace_reads_floats_exactly():
    # 1e-7 and 1 + 2^-52 are rationals other than 0 and 1: rounding each entry to a
    # bounded denominator read them as 0 and 1, and the dimensions as 2 and 1
    assert rational_nullspace_dimension(np.array([[1e-7, 0.0]])) == 1
    assert rational_nullspace_dimension(np.array([[1.0, 1.0], [1.0, 1.0 + 2.0 ** -52]])) == 0


def test_closure_residual_examples():
    e12, e21 = e_matrix(0, 1), e_matrix(1, 0)
    abelian_line = lie.subspace_from_matrices([e12], 2)
    assert lie.structure_constants(abelian_line)[1] == 0
    pair = lie.subspace_from_matrices([e12, e21], 2)
    assert lie.structure_constants(pair)[1] > 0.5


def test_involution_eigenspace_dims_and_restriction():
    model = core.build_model("hyperbolic", 2)
    from riccitype.transvection import base_point
    from riccitype.geometry import symmetry_matrix
    s = symmetry_matrix(model, base_point(model))
    g1 = lie.centralizer_in_sp(model)
    minus = lie.involution_eigenspace(g1, s, -1)
    plus = lie.involution_eigenspace(g1, s, +1)
    assert minus.dim == 4  # 2n
    assert minus.dim + plus.dim == g1.dim
    for b in minus.basis:
        assert np.max(np.abs(s @ b @ s + b)) <= 1e-10
    for b in plus.basis:
        assert np.max(np.abs(s @ b @ s - b)) <= 1e-10


def test_involution_eigenspace_rejects_non_involution():
    model = core.build_model("hyperbolic", 2)
    g1 = lie.centralizer_in_sp(model)
    with pytest.raises(ValueError, match="not involutive"):
        # conjugation by sqrt(2) I doubles every matrix
        lie.involution_eigenspace(g1, np.sqrt(2.0) * np.eye(g1.ambient_dim), +1)


def test_involution_eigenspace_rejects_non_preserving():
    sub = lie.subspace_from_matrices([e_matrix(0, 1)], 2)
    with pytest.raises(ValueError, match="does not preserve"):
        # conjugation by the swap takes E_01 to E_10, off the span
        lie.involution_eigenspace(sub, np.array([[0.0, 1.0], [1.0, 0.0]]), -1)


def test_bracket_span_hyperbolic_k1():
    model = core.build_model("hyperbolic", 2)
    from riccitype.transvection import base_point
    from riccitype.geometry import symmetry_matrix
    s = symmetry_matrix(model, base_point(model))
    g1 = lie.centralizer_in_sp(model)
    p1 = lie.involution_eigenspace(g1, s, -1)
    k1 = lie.bracket_span(p1)
    assert k1.dim == 4  # gl(n) for n = 2
    for b in k1.basis:
        assert abs(np.trace(b[:3, :3])) <= 1e-12


def test_bracket_span_abelian_is_zero():
    basis = [e_matrix(0, 1, 3), e_matrix(0, 2, 3)]
    sub = lie.subspace_from_matrices(basis, 3)
    assert lie.bracket_span(sub).dim == 0


def test_bracket_span_nilpotent_contains_A():
    model = core.build_model("nilpotent", 2, p=2, q=1)
    from riccitype.transvection import transvection_algebra
    data = transvection_algebra(model)
    a_unit = model.A / np.linalg.norm(model.A.reshape(-1))
    assert data.k_part.distance(a_unit) <= 1e-9


def heisenberg3():
    p = e_matrix(0, 1, 3)
    q = e_matrix(1, 2, 3)
    z = e_matrix(0, 2, 3)
    return lie.MatrixLieSubspace(3, np.array([p, q, z]).reshape(3, 9))


def test_series_certificate_heisenberg():
    h = heisenberg3()
    cert = lie.series_certificate(h)
    assert cert.heisenberg
    assert cert.solvable and not cert.abelian
    assert cert.derived_series_dims == [3, 1, 0]
    # nilpotent, with a one-dimensional center
    assert series_oracle(h, False) == [3, 1, 0]
    assert center_oracle(h).dim == 1


def test_series_certificate_sl2():
    h = np.diag([1.0, -1.0])
    e = e_matrix(0, 1)
    f = e_matrix(1, 0)
    sl2 = lie.subspace_from_matrices([h, e, f], 2)
    cert = lie.series_certificate(sl2)
    assert not cert.solvable
    assert cert.derived_series_dims[-1] == cert.derived_series_dims[-2] == 3
    assert not cert.heisenberg


def test_series_certificate_rebase_invariance():
    rng = np.random.default_rng(5)
    base = heisenberg3()
    cert0 = lie.series_certificate(base)
    mix = rng.standard_normal((3, 3)) + 3 * np.eye(3)
    rebased = lie.subspace_from_matrices(
        [sum(mix[i, j] * base.basis[j] for j in range(3)) for i in range(3)], 3)
    cert1 = lie.series_certificate(rebased)
    assert cert0.derived_series_dims == cert1.derived_series_dims
    assert series_oracle(base, False) == series_oracle(rebased, False) == [3, 1, 0]
    assert cert0.heisenberg == cert1.heisenberg


def test_series_certificate_requires_closure():
    pair = lie.subspace_from_matrices([e_matrix(0, 1), e_matrix(1, 0)], 2)
    with pytest.raises(ValueError):
        lie.series_certificate(pair)


def test_series_certificate_zero_dimensional():
    zero = lie.MatrixLieSubspace(3, np.zeros((0, 9)))
    cert = lie.series_certificate(zero)
    assert cert.derived_series_dims == series_oracle(zero, False) == [0]
    assert cert.abelian and cert.solvable and not cert.heisenberg


@pytest.mark.parametrize("x", [np.zeros((4, 4)), np.full((4, 4), np.nan),
                               np.diag([1.0, np.inf, 0.0, 0.0]), np.diag([np.nan, 1.0, 0.0, 0.0])],
                         ids=["zero", "nan", "inf", "nan_and_finite"])
def test_line_refuses_zero_and_non_finite_matrices(x):
    with pytest.raises(ValueError, match="a line needs a nonzero finite matrix"):
        lie.line(x)


def test_line_is_the_row_span_of_a():
    # the unit row x / |x|_F is the row that the SVD of the one-row stack gives, up to
    # sign, on every nilpotent A, so the quotients by R*A keep their bits
    for case, n, p, q in core.admissible_parameters((2, 3, 4)):
        if case == "nilpotent":
            model = core.build_model(case, n, p=p, q=q)
            row = lie.line(model.A).rows
            svd_row = lie.subspace_from_matrices([model.A], model.ambient_dim).rows
            assert row.shape == (1, model.ambient_dim ** 2)
            assert np.array_equal(row, svd_row) or np.array_equal(row, -svd_row)


def test_closure_residual_refuses_modulo_not_orthogonal_to_s():
    # the quotient rows are stacked under those of s as they are, so they must be
    # orthonormal and orthogonal to s
    h = heisenberg3()
    for modulo in (lie.line(h.basis[0]), lie.line(h.basis[2] + e_matrix(1, 0, 3))):
        with pytest.raises(ValueError, match="not jointly orthonormal"):
            lie.closure_residual(h, modulo)
        with pytest.raises(ValueError, match="not jointly orthonormal"):
            lie.structure_constants(h, modulo)
    # an orthogonal line is accepted, and d = 0 has no pairs to bracket
    assert lie.closure_residual(h, lie.line(e_matrix(1, 0, 3))) == 0.0
    zero = lie.MatrixLieSubspace(3, np.zeros((0, 9)))
    assert lie.closure_residual(zero) == lie.closure_residual(zero, lie.line(h.basis[0])) == 0.0


def test_center_svd_runs_only_for_the_heisenberg_test(monkeypatch):
    import sys
    from riccitype import transvection
    from riccitype.transitive import iwasawa
    callers = []
    original = lie._svd

    def recording(mat):
        callers.append(sys._getframe(1).f_code.co_name)
        return original(mat)
    monkeypatch.setattr(lie, "_svd", recording)
    # d = 15 and d = 11 are odd, but [g, g] is not a line: no center SVD
    for case, n, p, q in [("hyperbolic", 3, None, None), ("nilpotent", 3, 2, 1)]:
        model = core.build_model(case, n, p=p, q=q)
        callers.clear()
        transvection.classify_transvection(transvection.transvection_algebra(model), model)
        assert "rank_split" in callers and "constants_certificate" not in callers, case
    # the Iwasawa n is Heisenberg: one SVD of its center system
    data = iwasawa.iwasawa_su1n(3)
    callers.clear()
    assert lie.series_certificate(data.nilpotent_part).heisenberg
    assert callers.count("constants_certificate") == 1


def test_derived_algebra_formed_once_per_certificate(monkeypatch):
    from riccitype import transvection
    spans = []
    original = lie._row_span

    def recording(stack):
        spans.append(stack)
        return original(stack)
    monkeypatch.setattr(lie, "_row_span", recording)

    def derived_spans(cert, generators):
        # [g, g] = [g, p] is the row span of the columns c[:, :generators]
        d = cert.dimension
        block = cert.structure[:, :generators].reshape(-1, d)
        return sum(x.shape == block.shape and np.array_equal(x, block) for x in spans)
    # the derived series and the Heisenberg test both read [g, g]
    cert = lie.series_certificate(heisenberg3())
    assert cert.heisenberg and derived_spans(cert, 3) == 1
    spans.clear()
    model = core.build_model("nilpotent", 3, p=2, q=1)
    data = transvection.transvection_algebra(model)
    cert, _ = transvection.classify_transvection(data, model)
    ideal = transvection.nilpotent_ideal_report(cert)
    assert ideal["codimension"] == 1 and ideal["nilpotent"]
    assert derived_spans(cert, data.p_part.dim) == 1 and len(spans) > 1
    assert data.p_part.dim < cert.dimension


def test_subspace_independence_invariant():
    model = core.build_model("elliptic", 3, p=2)
    g1 = lie.centralizer_in_sp(model)
    s = np.linalg.svd(g1.rows, compute_uv=False)
    assert s[-1] / s[0] > 1e-7


def test_ad_eigenspaces_su12():
    from riccitype.transitive.iwasawa import iwasawa_su1n
    data = iwasawa_su1n(2)
    vals = np.linalg.eigvalsh(lie.ad_matrix(data.transvection.algebra, data.a_generator))
    lams, mults = np.unique(np.round(vals).astype(int), return_counts=True)
    assert np.max(np.abs(vals - np.round(vals))) <= 1e-9
    assert dict(zip(lams.tolist(), mults.tolist())) == {-2: 1, -1: 2, 0: 2, 1: 2, 2: 1}


@pytest.mark.parametrize("n", [2, 3])
def test_nilpotent_part_dimension(n):
    from riccitype.transitive.iwasawa import iwasawa_su1n
    data = iwasawa_su1n(n)
    assert data.nilpotent_part.dim == 2 * n - 1


# --- rank kernel -----------------------------------------------------------

def low_rank(rng, m, k, r):
    return rng.standard_normal((m, r)) @ rng.standard_normal((r, k))


def check_split(mat, row_basis, null_basis, expected_rank, residual=None):
    k = mat.shape[1]
    assert row_basis.shape == (expected_rank, k)
    assert null_basis.shape == (k, k - expected_rank)
    both = np.vstack([row_basis, null_basis.T])
    assert np.max(np.abs(both @ both.T - np.eye(k))) <= 1e-12
    if residual is None:
        residual = 1e-12 * (np.linalg.norm(mat, 2) if mat.size else 0.0)
    assert np.max(np.abs(mat @ null_basis), initial=0.0) <= residual


@pytest.mark.parametrize("m,k,r", [(60, 8, 3), (8, 60, 3), (12, 12, 5), (5, 9, 5), (9, 5, 5)])
def test_rank_split_matches_scipy_null_space(m, k, r):
    from scipy.linalg import null_space
    rng = np.random.default_rng(m * 100 + k)
    mat = low_rank(rng, m, k, r)
    row_basis, null_basis, gap = lie.rank_split(mat)
    assert null_basis.shape[1] == null_space(mat, rcond=lie.RANK_RTOL).shape[1] == k - r
    check_split(mat, row_basis, null_basis, r)
    s = np.linalg.svd(mat, compute_uv=False)
    assert gap == (np.inf if r == min(m, k) else pytest.approx(s[r - 1] / s[r], rel=1e-6))
    assert gap > 1e10


def test_rank_split_empty_and_zero():
    row_basis, null_basis, gap = lie.rank_split(np.zeros((0, 4)))
    check_split(np.zeros((0, 4)), row_basis, null_basis, 0)
    assert gap == np.inf
    for shape in [(6, 4), (4, 6)]:
        row_basis, null_basis, gap = lie.rank_split(np.zeros(shape))
        check_split(np.zeros(shape), row_basis, null_basis, 0)
        assert gap == np.inf


def test_rank_split_absolute_cutoff():
    mat = np.diag([3.0, 1e-3, 1e-9, 0.0])
    row_basis, null_basis, gap = lie.rank_split(mat, rtol=0.0, atol=1e-6)
    check_split(mat, row_basis, null_basis, 2, residual=1e-9)
    assert gap == pytest.approx(1e6)
    # the cut is the larger of the relative and the absolute threshold
    assert lie.rank_split(mat, rtol=1e-2, atol=1e-6)[0].shape[0] == 1
    assert lie.rank_split(mat, rtol=1e-12, atol=1e-6)[0].shape[0] == 2
    assert lie.rank_split(mat, rtol=0.0, atol=5.0)[0].shape[0] == 0


def test_rank_cuts_have_wide_gaps(monkeypatch):
    from riccitype.transitive import iwasawa, nilpotent
    from riccitype.transvection import classify_transvection, transvection_algebra
    gaps = []
    split = lie.rank_split

    def recording_split(*args, **kwargs):
        out = split(*args, **kwargs)
        gaps.append(out[2])
        return out

    monkeypatch.setattr(lie, "rank_split", recording_split)
    monkeypatch.setattr(iwasawa, "rank_split", recording_split)
    for case, n, p, q in core.admissible_parameters((2, 3)):
        model = core.build_model(case, n, p=p, q=q)
        classify_transvection(transvection_algebra(model), model)
    for n in (2, 3):
        model = core.build_model("nilpotent", n, p=2, q=1)
        heis = nilpotent.heisenberg_extension_check(*heisenberg_candidate(model))
        assert heis["certificate"].heisenberg
        data = iwasawa.iwasawa_su1n(n)
        assert lie.series_certificate(data.nilpotent_part).heisenberg
        h_phi, _ = iwasawa.build_a_phi(data, np.linspace(-1.0, 1.5, n - 1))
        assert lie.series_certificate(h_phi).solvable
        # the Iwasawa cut at 0.5 sits between the integer eigenvalues of ad(a)
        vals = np.linalg.eigvalsh(lie.ad_matrix(data.transvection.algebra, data.a_generator))
        assert np.max(np.abs(vals - np.round(vals))) <= 1e-9
        assert set(np.round(vals).tolist()) <= {-2.0, -1.0, 0.0, 1.0, 2.0}
    assert len(gaps) > 100
    assert min(gaps) >= 1e10


def test_only_row_spans_split_wide_matrices(monkeypatch, capsys):
    # rank_split forms the full V of a wide matrix, but no caller reads a wide kernel:
    # over every command at the 46 admissible tuples only _row_span splits wide
    # matrices, and with every wide kernel replaced by NaN each report is unchanged
    import sys

    from riccitype import cli
    from riccitype.transitive import iwasawa
    from test_contract import ARGVS

    def reports():
        return [(cli.main(argv), capsys.readouterr()) for argv in ARGVS]
    before = reports()
    split, callers = lie.rank_split, {}

    def poisoning_split(mat, *args, **kwargs):
        rows, kernel, gap = split(mat, *args, **kwargs)
        wide = mat.shape[0] < mat.shape[1]
        callers.setdefault(sys._getframe(1).f_code.co_name, set()).add(wide)
        return rows, np.full_like(kernel, np.nan) if wide else kernel, gap
    monkeypatch.setattr(lie, "rank_split", poisoning_split)
    monkeypatch.setattr(iwasawa, "rank_split", poisoning_split)
    assert reports() == before
    assert callers == {"_row_span": {False, True}, "centralizer_in_sp": {False},
                       "involution_eigenspace": {False}, "iwasawa_su1n": {False}}


def test_center_memory_stays_small():
    import tracemalloc
    from riccitype.transvection import transvection_algebra
    model = core.build_model("hyperbolic", 5)
    data = transvection_algebra(model)
    assert data.algebra.dim == 35
    tracemalloc.start()
    try:
        cert = lie.series_certificate(data.algebra, modulo=data.modulo)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert cert.derived_series_dims == [35, 35] and not cert.heisenberg
    # sl(6) is centerless: the (d^2, d) system sum_i x_i c[i, j, k] = 0 has full column rank
    sing = np.linalg.svd(cert.structure.transpose(1, 2, 0).reshape(-1, 35), compute_uv=False)
    assert sing[-1] > 1e-7 * sing[0]
    # a full U of the 5040 x 35 N^2 center system alone would take 203 MB
    assert peak < 20e6


def test_closure_residual_memory_stays_small():
    import tracemalloc
    model = core.build_model("nilpotent", 7, p=2, q=1)
    g1 = lie.centralizer_in_sp(model)
    assert g1.dim == 106
    peaks = []
    for route in (lie.closure_residual, lambda s: lie.structure_constants(s)[1]):
        tracemalloc.start()
        try:
            res = route(g1)
            peaks.append(tracemalloc.get_traced_memory()[1])
        finally:
            tracemalloc.stop()
        assert res <= 1e-10
    # the pair kernel holds one block of at most 8 x 105 pairs at a time
    # (1.7 MB per array), against 23 MB for the whole product tensor b_i b_j;
    # structure_constants adds its (106, 106, 106) c, 9.5 MB
    assert peaks[0] < 12e6
    assert peaks[1] < 22e6


# --- batched brackets against the pairwise loops ---------------------------

def span_distance(a, b):
    return max([a.distance(x) for x in b.basis] + [b.distance(x) for x in a.basis] + [0.0])


EQUIVALENCE_CASES = [("hyperbolic", 2, None, None), ("hyperbolic", 3, None, None),
                     ("elliptic", 2, 1, None), ("elliptic", 3, 2, None),
                     ("nilpotent", 2, 2, 1), ("nilpotent", 3, 3, 2), ("nilpotent", 3, 1, 1)]


@pytest.mark.parametrize("case,n,p,q", EQUIVALENCE_CASES)
def test_batched_brackets_match_pairwise_loops(case, n, p, q):
    from riccitype.transvection import transvection_algebra
    model = core.build_model(case, n, p=p, q=q)
    data = transvection_algebra(model)
    g = data.algebra
    for modulo in (None, lie.line(model.A)):
        gk = lie.structure_constants(g, modulo)[1]
        assert abs(gk - closure_residual_oracle(g, modulo)) <= 1e-10
        pk = lie.structure_constants(data.p_part, modulo)[1]
        assert abs(pk - closure_residual_oracle(data.p_part, modulo)) <= 1e-10
    p1 = data.p_part
    for new, old in [(lie.bracket_span(g), bracket_span_oracle(g, g)),
                     (lie.bracket_span(p1), bracket_span_oracle(p1, p1))]:
        assert new.dim == old.dim
        assert span_distance(new, old) <= 1e-10


# --- structure constants against the N^2 routes ------------------------------

@pytest.mark.parametrize("n", [2, 3, 4])
def test_pair_kernel_matches_full_bracket_tensor(n):
    from riccitype.transvection import transvection_algebra
    for case, n_, p, q in core.admissible_parameters((n,)):
        model = core.build_model(case, n_, p=p, q=q)
        data = transvection_algebra(model)
        for s, modulo in [(data.centralizer, None), (data.p_part, None),
                          (data.algebra, None), (data.algebra, lie.line(model.A))]:
            c, res = lie.structure_constants(s, modulo)
            c_old, res_old = structure_constants_oracle(s, modulo)
            assert np.max(np.abs(c - c_old), initial=0.0) <= 1e-13, (case, n_, p, q)
            assert abs(res - res_old) <= 1e-13
            assert np.array_equal(c, -c.swapaxes(0, 1))


def off_centralizer_row(model, g1, seed):
    """A unit element of sp(Omega) orthogonal to g1, so outside the centralizer."""
    sym = np.random.default_rng(seed).standard_normal((model.ambient_dim,) * 2)
    x = (model.omega.T @ (sym + sym.T)).reshape(-1)  # tOmega S is in sp(Omega) for symmetric S
    x -= g1.rows.T @ (g1.rows @ x)
    return x / np.linalg.norm(x)


@pytest.mark.parametrize("n", [2, 3, 4])
def test_closure_residual_matches_oracle_on_centralizer(n):
    for seed, (case, n_, p, q) in enumerate(core.admissible_parameters((n,))):
        model = core.build_model(case, n_, p=p, q=q)
        g1 = lie.centralizer_in_sp(model)
        res = lie.closure_residual(g1)
        assert abs(res - structure_constants_oracle(g1)[1]) <= 1e-15, (case, n_, p, q)
        assert res <= 1e-10
        # negative control: one row replaced by an sp(Omega) element outside g1
        rows = g1.rows.copy()
        rows[0] = off_centralizer_row(model, g1, seed)
        broken = lie.MatrixLieSubspace(g1.ambient_dim, rows)
        assert np.max(np.abs(broken.rows @ broken.rows.T - np.eye(g1.dim))) <= 1e-12
        assert lie.closure_residual(broken) > 1e-3, (case, n_, p, q)


def sparse_off_centralizer_row(model, g1):
    """The first unit tOmega (E_rc + E_cr), r <= c, exactly orthogonal to g1, or None.

    It is in sp(Omega) and outside g1, with one or two nonzero entries, so that,
    unlike the dense ``off_centralizer_row``, it meets only some pairs of g1.
    """
    dim = model.ambient_dim
    for r, c in zip(*np.triu_indices(dim)):
        sym = np.zeros((dim, dim))
        sym[r, c] = sym[c, r] = 1.0
        x = (model.omega.T @ sym).reshape(-1)
        if not np.any(g1.rows @ x):
            return x / np.linalg.norm(x)
    return None


@pytest.mark.parametrize("n", [2, 3, 4])
def test_closure_residual_catches_a_sparse_row_outside_the_centralizer(n):
    sparse = [t for t in core.admissible_parameters((n,)) if t[0] != "elliptic"]
    for case, n_, p, q in sparse:
        model = core.build_model(case, n_, p=p, q=q)
        g1 = lie.centralizer_in_sp(model)
        rows = g1.rows.copy()
        rows[0] = sparse_off_centralizer_row(model, g1)
        broken = lie.MatrixLieSubspace(g1.ambient_dim, rows)
        assert np.max(np.abs(broken.rows @ broken.rows.T - np.eye(g1.dim))) <= 1e-12
        # the closure reads only the meeting pairs, and still sees the row
        assert lie._meeting_pairs(broken.basis)[0].size < g1.dim * (g1.dim - 1) // 2
        res = lie.closure_residual(broken)
        assert res > 1e-3, (case, n_, p, q)
        assert res == structure_constants_oracle(broken)[1], (case, n_, p, q)


def dense_pair_brackets(s):
    """(d, d, N^2) brackets [b_i, b_j] of every pair, one matrix product per pair."""
    basis = s.basis
    prod = basis[:, None] @ basis[None]
    return (prod - prod.swapaxes(0, 1)).reshape(s.dim, s.dim, -1)


@pytest.mark.parametrize("n", [2, 3, 4, 7])
def test_pairs_outside_the_meeting_set_bracket_to_exact_zero(n):
    from riccitype.transvection import transvection_algebra
    # the 46 admissible tuples with n = 2-4, and the largest nilpotent benchmark config
    for case, n_, p, q in core.admissible_parameters((n,)) if n < 7 else [("nilpotent", 7, 2, 1)]:
        data = transvection_algebra(core.build_model(case, n_, p=p, q=q))
        for s in (data.centralizer, data.p_part, data.algebra):
            outside = np.triu(np.ones((s.dim, s.dim), dtype=bool), 1)
            outside[lie._meeting_pairs(s.basis)] = False
            assert not np.any(dense_pair_brackets(s)[outside]), (case, n_, p, q, s.dim)
            if case == "elliptic":  # dense bases: every pair meets
                assert not np.any(outside)
    if n == 7:
        # a silent fall-back to every pair would bracket all 5565 pairs of g1
        assert data.centralizer.dim == 106
        assert lie._meeting_pairs(data.centralizer.basis)[0].size == 1167


@pytest.mark.parametrize("n", [2, 3, 4])
def test_graded_certificate_matches_full_constants(n):
    from riccitype.transvection import transvection_algebra
    for case, n_, p, q in core.admissible_parameters((n,)):
        model = core.build_model(case, n_, p=p, q=q)
        data = transvection_algebra(model)
        c, res = lie.structure_constants(data.algebra, data.modulo)
        graded = lie.constants_certificate(c, res, generators=data.p_part.dim)
        full = lie.constants_certificate(c, res)
        # series dims, center dim and the abelian/solvable/nilpotent/Heisenberg flags
        assert graded == full, (case, n_, p, q)
        rows, rows_full = graded.derived_rows, full.derived_rows
        assert rows.shape == rows_full.shape
        # the orthogonal projectors onto the two derived row spans
        assert np.max(np.abs(rows.T @ rows - rows_full.T @ rows_full)) <= 1e-12


def equivalence_data(case, n, p, q):
    from riccitype.transvection import transvection_algebra
    model = core.build_model(case, n, p=p, q=q)
    return model, transvection_algebra(model)


@pytest.mark.parametrize("case,n,p,q", EQUIVALENCE_CASES)
def test_structure_constants_reconstruct_brackets(case, n, p, q):
    _, data = equivalence_data(case, n, p, q)
    g, modulo = data.algebra, data.modulo
    c, _ = lie.structure_constants(g, modulo)
    assert c.shape == (g.dim,) * 3
    basis = np.array(g.basis)
    diffs = [np.tensordot(c[i, j], basis, axes=1) - lie.bracket(g.basis[i], g.basis[j])
             for i in range(g.dim) for j in range(g.dim)]
    quotient = lie.MatrixLieSubspace(g.ambient_dim, np.zeros((0, g.ambient_dim ** 2))) \
        if modulo is None else modulo
    assert quotient.distance(diffs) <= 1e-10


#: sl and su are centerless and perfect; the p = 2 algebra is solvable but not
#: nilpotent; the p = 1 translations are abelian
CENTER_AND_LOWER_CENTRAL = {
    ("hyperbolic", 2, None, None): (0, [8, 8]),
    ("hyperbolic", 3, None, None): (0, [15, 15]),
    ("elliptic", 2, 1, None): (0, [8, 8]),
    ("elliptic", 3, 2, None): (0, [15, 15]),
    ("nilpotent", 2, 2, 1): (0, [7, 6, 6]),
    ("nilpotent", 3, 3, 2): (0, [14, 14]),
    ("nilpotent", 3, 1, 1): (6, [6, 0]),
}


@pytest.mark.parametrize("case,n,p,q", EQUIVALENCE_CASES)
def test_structure_constants_match_n2_oracles(case, n, p, q):
    from riccitype.transvection import nilpotent_ideal_report
    model, data = equivalence_data(case, n, p, q)
    g, modulo = data.algebra, data.modulo
    cert = lie.series_certificate(g, modulo)
    assert cert.derived_series_dims == series_oracle(g, True, modulo)
    # the center and the lower central series, which no report reads, from the oracles
    center_dim, lower = CENTER_AND_LOWER_CENTRAL[case, n, p, q]
    assert center_oracle(g, modulo).dim == center_dim
    assert series_oracle(g, False, modulo) == lower
    # the former N^2 ideal certificate: pairwise containment and its own series loop
    derived = bracket_span_oracle(g, g, modulo)
    extended = lie.subspace_from_matrices(
        [*derived.basis, *([] if modulo is None else modulo.basis)], g.ambient_dim)
    old_residual = max([extended.distance(lie.bracket(bg, bi))
                        for bg in g.basis for bi in derived.basis] + [0.0])
    ideal = nilpotent_ideal_report(cert)
    # the ideal is the derived algebra: its dimension is d minus the codimension
    assert g.dim - ideal["codimension"] == derived.dim
    assert ideal["lower_central_dims"] == series_oracle(derived, False, modulo)
    assert ideal["nilpotent"] == (ideal["lower_central_dims"][-1] == 0)
    assert ideal["ideal_residual"] <= 1e-10 and old_residual <= 1e-10


@pytest.mark.parametrize("case,n,p,q", EQUIVALENCE_CASES)
def test_coordinates_match_least_squares(case, n, p, q):
    # coordinates are a projection onto orthonormal rows; on span elements
    # they agree with a least-squares solve in the basis
    _, data = equivalence_data(case, n, p, q)
    rng = np.random.default_rng(11)
    for sub in (data.centralizer, data.p_part, data.k_part, data.algebra):
        mats = np.tensordot(rng.standard_normal((6, sub.dim)), sub.basis, axes=1)
        want = coordinates_oracle(sub, mats)
        assert np.max(np.abs(sub.coordinates(mats) - want)) <= 1e-12


def test_distance_takes_one_matrix_or_a_stack():
    sub = heisenberg3()
    off = [e_matrix(1, 0, 3), 2.0 * e_matrix(2, 2, 3), sub.basis[0]]
    assert sub.distance(off[0]) == 1.0
    assert sub.distance(off) == max(sub.distance(x) for x in off) == 2.0
    assert sub.distance(np.array(off)) == 2.0
    assert lie.MatrixLieSubspace(3, np.zeros((0, 9))).distance(off) == 2.0
    nan = np.full((3, 3), np.nan)
    assert np.isnan(sub.distance(off + [nan]))
