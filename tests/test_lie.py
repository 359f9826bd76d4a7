"""Matrix Lie subspace machinery: brackets, centralizers, eigenspaces, series."""

import numpy as np
import pytest

from riccitype import core, lie
from riccitype.exact import rational_nullspace_dimension

from oracles import coordinates_oracle


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
    model, elem = core.build_model(case, n, p=p, q=q)
    g1 = lie.centralizer_in_sp(model, elem)
    assert g1.dim == expected
    assert lie.structure_constants(g1)[1] <= 1e-10
    for b in g1.basis:
        assert core.sp_residual(model.omega, b) <= 1e-12
        assert np.max(np.abs(b @ elem.matrix - elem.matrix @ b)) <= 1e-12


def test_centralizer_exact_mode_cross_check():
    model, elem = core.build_model("nilpotent", 2, p=2, q=1)
    g1 = lie.centralizer_in_sp(model, elem, exact=True)
    assert g1.dim == 11


def test_rational_nullspace_oracle():
    # independent rational-arithmetic dimension for the same constraint system
    model, elem = core.build_model("nilpotent", 2, p=2, q=1)
    dim = model.ambient_dim
    ident = np.eye(dim)
    perm = np.zeros((dim * dim, dim * dim))
    for i in range(dim):
        for j in range(dim):
            perm[i * dim + j, j * dim + i] = 1.0
    system = np.vstack([
        np.kron(ident, model.omega.T) @ perm + np.kron(model.omega, ident),
        np.kron(ident, elem.matrix.T) - np.kron(elem.matrix, ident),
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
    model, elem = core.build_model("hyperbolic", 2)
    from riccitype.transvection import base_point
    from riccitype.geometry import symmetry_matrix
    s = symmetry_matrix(model, elem, base_point(model))
    g1 = lie.centralizer_in_sp(model, elem)
    theta = lambda m: s @ m @ s
    minus = lie.involution_eigenspace(g1, theta, -1)
    plus = lie.involution_eigenspace(g1, theta, +1)
    assert minus.dim == 4  # 2n
    assert minus.dim + plus.dim == g1.dim
    for b in minus.basis:
        assert np.max(np.abs(theta(b) + b)) <= 1e-10
    for b in plus.basis:
        assert np.max(np.abs(theta(b) - b)) <= 1e-10


def test_involution_eigenspace_rejects_non_involution():
    model, elem = core.build_model("hyperbolic", 2)
    g1 = lie.centralizer_in_sp(model, elem)
    with pytest.raises(ValueError):
        lie.involution_eigenspace(g1, lambda m: 2.0 * m, +1)


def test_involution_eigenspace_rejects_non_preserving():
    sub = lie.subspace_from_matrices([e_matrix(0, 1)], 2)
    with pytest.raises(ValueError):
        lie.involution_eigenspace(sub, lambda m: m.T, -1)


def test_bracket_span_hyperbolic_k1():
    model, elem = core.build_model("hyperbolic", 2)
    from riccitype.transvection import base_point
    from riccitype.geometry import symmetry_matrix
    s = symmetry_matrix(model, elem, base_point(model))
    g1 = lie.centralizer_in_sp(model, elem)
    p1 = lie.involution_eigenspace(g1, lambda m: s @ m @ s, -1)
    k1 = lie.bracket_span(p1, p1)
    assert k1.dim == 4  # gl(n) for n = 2
    for b in k1.basis:
        assert abs(np.trace(b[:3, :3])) <= 1e-12


def test_bracket_span_abelian_is_zero():
    basis = [e_matrix(0, 1, 3), e_matrix(0, 2, 3)]
    sub = lie.subspace_from_matrices(basis, 3)
    assert lie.bracket_span(sub, sub).dim == 0


def test_bracket_span_nilpotent_contains_A():
    model, elem = core.build_model("nilpotent", 2, p=2, q=1)
    from riccitype.transvection import transvection_algebra
    data = transvection_algebra(model, elem)
    a_unit = elem.matrix / np.linalg.norm(elem.matrix.reshape(-1))
    assert data.k_part.distance(a_unit) <= 1e-9


def heisenberg3():
    p = e_matrix(0, 1, 3)
    q = e_matrix(1, 2, 3)
    z = e_matrix(0, 2, 3)
    return lie.MatrixLieSubspace(3, np.array([p, q, z]).reshape(3, 9))


def test_series_certificate_heisenberg():
    cert = lie.series_certificate(heisenberg3())
    assert cert.heisenberg
    assert cert.nilpotent and cert.solvable and not cert.abelian
    assert cert.center_dim == 1
    assert cert.derived_series_dims == [3, 1, 0]


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
    assert cert0.lower_central_dims == cert1.lower_central_dims
    assert cert0.heisenberg == cert1.heisenberg


def test_series_certificate_requires_closure():
    pair = lie.subspace_from_matrices([e_matrix(0, 1), e_matrix(1, 0)], 2)
    with pytest.raises(ValueError):
        lie.series_certificate(pair)


def test_series_certificate_zero_dimensional():
    cert = lie.series_certificate(lie.MatrixLieSubspace(3, np.zeros((0, 9))))
    assert cert.derived_series_dims == cert.lower_central_dims == [0]
    assert cert.center_dim == 0 and cert.abelian and not cert.heisenberg


def test_derived_algebra_formed_once_per_certificate(monkeypatch):
    from riccitype import transvection
    calls = []
    original = lie.bracket_rows

    def recording(c, x, y):
        full = x.shape[0] == c.shape[0] and np.array_equal(x, np.eye(c.shape[0]))
        calls.append(full and np.array_equal(x, y))
        return original(c, x, y)
    monkeypatch.setattr(lie, "bracket_rows", recording)
    monkeypatch.setattr(transvection, "bracket_rows", recording)
    # the derived and lower central series and the Heisenberg test all read [g, g]
    assert lie.series_certificate(heisenberg3()).heisenberg
    model, elem = core.build_model("nilpotent", 3, p=2, q=1)
    data = transvection.transvection_algebra(model, elem)
    cert, _ = transvection.classify_transvection(data, model)
    ideal = transvection.nilpotent_ideal_report(cert)
    assert ideal["codimension"] == 1 and ideal["nilpotent"]
    assert calls.count(True) == 2 and len(calls) > 2


def test_subspace_independence_invariant():
    model, elem = core.build_model("elliptic", 3, p=2)
    g1 = lie.centralizer_in_sp(model, elem)
    s = np.linalg.svd(g1.rows, compute_uv=False)
    assert s[-1] / s[0] > 1e-7


def test_ad_eigenspaces_su12():
    from riccitype.transitive.iwasawa import iwasawa_su1n
    data = iwasawa_su1n(2)
    spaces = lie.ad_eigenspaces(data.algebra, data.a_generator)
    mults = {round(lam): sub.dim for lam, sub in spaces.items()}
    assert mults == {-2: 1, -1: 2, 0: 2, 1: 2, 2: 1}


def test_ad_eigenspaces_central_element():
    sub = heisenberg3()
    spaces = lie.ad_eigenspaces(sub, sub.basis[2])
    assert list(spaces.keys()) == [0.0]
    assert spaces[0.0].dim == 3


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
        model, elem = core.build_model(case, n, p=p, q=q)
        classify_transvection(transvection_algebra(model, elem), model)
    for n in (2, 3):
        model, elem = core.build_model("nilpotent", n, p=2, q=1)
        assert nilpotent.heisenberg_extension_check(model, elem)["certificate"].heisenberg
        data = iwasawa.iwasawa_su1n(n)
        assert lie.series_certificate(data.nilpotent_part).heisenberg
        _, h_phi, _ = iwasawa.build_a_phi(data, np.linspace(-1.0, 1.5, n - 1))
        assert lie.series_certificate(h_phi).solvable
    assert len(gaps) > 100
    assert min(gaps) >= 1e10


def test_center_memory_stays_small():
    import tracemalloc
    from riccitype.transvection import transvection_algebra
    model, elem = core.build_model("hyperbolic", 5)
    data = transvection_algebra(model, elem)
    assert data.algebra.dim == 35
    tracemalloc.start()
    try:
        cert = lie.series_certificate(data.algebra, modulo=data.modulo)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert cert.center_dim == 0
    # a full U of the 5040 x 35 N^2 center system alone would take 203 MB
    assert peak < 20e6


def test_closure_residual_memory_stays_small():
    import tracemalloc
    model, elem = core.build_model("nilpotent", 7, p=2, q=1)
    g1 = lie.centralizer_in_sp(model, elem)
    assert g1.dim == 106
    tracemalloc.start()
    try:
        res = lie.structure_constants(g1)[1]
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert res <= 1e-10
    # one (106, 106, 256) bracket tensor is 23 MB; forming the difference and
    # the projection out of place holds three of them (70 MB)
    assert peak < 60e6


# --- batched brackets against the pairwise loops ---------------------------

def reduce_oracle(x, modulo):
    if modulo is None:
        return x
    v = x.reshape(-1)
    q = modulo.rows
    return (v - q.T @ (q @ v)).reshape(x.shape)


def bracket_span_oracle(s1, s2, modulo=None):
    mats = [reduce_oracle(lie.bracket(b1, b2), modulo) for b1 in s1.basis for b2 in s2.basis]
    return lie.subspace_from_matrices(mats, s1.ambient_dim)


def closure_residual_oracle(s, modulo=None):
    res = 0.0
    span = s if modulo is None else lie.subspace_from_matrices(
        [*s.basis, *modulo.basis], s.ambient_dim)
    for i in range(s.dim):
        for j in range(i + 1, s.dim):
            res = max(res, span.distance(lie.bracket(s.basis[i], s.basis[j])))
    return res


def center_oracle(s, modulo=None):
    from scipy.linalg import null_space
    system = np.concatenate(
        [np.stack([reduce_oracle(lie.bracket(bi, bj), modulo).reshape(-1) for bi in s.basis],
                  axis=1)
         for bj in s.basis], axis=0)
    kernel = null_space(system, rcond=lie.RANK_RTOL)
    basis = [sum(ci * bi for ci, bi in zip(c, s.basis)) for c in kernel.T]
    return lie.subspace_from_matrices(basis, s.ambient_dim)


def series_oracle(s, against_self, modulo=None):
    dims = [s.dim]
    current = s
    while current.dim > 0:
        nxt = bracket_span_oracle(current if against_self else s, current, modulo)
        dims.append(nxt.dim)
        if nxt.dim >= current.dim:
            break
        current = nxt
    return dims


def span_distance(a, b):
    return max([a.distance(x) for x in b.basis] + [b.distance(x) for x in a.basis] + [0.0])


EQUIVALENCE_CASES = [("hyperbolic", 2, None, None), ("hyperbolic", 3, None, None),
                     ("elliptic", 2, 1, None), ("elliptic", 3, 2, None),
                     ("nilpotent", 2, 2, 1), ("nilpotent", 3, 3, 2), ("nilpotent", 3, 1, 1)]


@pytest.mark.parametrize("case,n,p,q", EQUIVALENCE_CASES)
def test_batched_brackets_match_pairwise_loops(case, n, p, q):
    from riccitype.transvection import transvection_algebra
    model, elem = core.build_model(case, n, p=p, q=q)
    data = transvection_algebra(model, elem)
    g = data.algebra
    for modulo in (None, lie.line(elem.matrix)):
        gk = lie.structure_constants(g, modulo)[1]
        assert abs(gk - closure_residual_oracle(g, modulo)) <= 1e-10
        pk = lie.structure_constants(data.p_part, modulo)[1]
        assert abs(pk - closure_residual_oracle(data.p_part, modulo)) <= 1e-10
    for new, old in [(lie.bracket_span(g, g), bracket_span_oracle(g, g)),
                     (lie.bracket_span(data.p_part, data.k_part),
                      bracket_span_oracle(data.p_part, data.k_part))]:
        assert new.dim == old.dim
        assert span_distance(new, old) <= 1e-10


# --- structure constants against the N^2 routes ------------------------------

def equivalence_data(case, n, p, q):
    from riccitype.transvection import transvection_algebra
    model, elem = core.build_model(case, n, p=p, q=q)
    return model, transvection_algebra(model, elem)


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


@pytest.mark.parametrize("case,n,p,q", EQUIVALENCE_CASES)
def test_structure_constants_match_n2_oracles(case, n, p, q):
    from riccitype.transvection import nilpotent_ideal_report
    model, data = equivalence_data(case, n, p, q)
    g, modulo = data.algebra, data.modulo
    cert = lie.series_certificate(g, modulo)
    assert cert.center_dim == center_oracle(g, modulo).dim
    assert cert.derived_series_dims == series_oracle(g, True, modulo)
    assert cert.lower_central_dims == series_oracle(g, False, modulo)
    # the former N^2 ideal certificate: pairwise containment and its own series loop
    derived = bracket_span_oracle(g, g, modulo)
    extended = lie.subspace_from_matrices(
        [*derived.basis, *([] if modulo is None else modulo.basis)], g.ambient_dim)
    old_residual = max([extended.distance(lie.bracket(bg, bi))
                        for bg in g.basis for bi in derived.basis] + [0.0])
    ideal = nilpotent_ideal_report(cert)
    assert ideal["ideal_dim"] == derived.dim
    assert ideal["codimension"] == g.dim - derived.dim
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
