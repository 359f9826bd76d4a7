"""Transvection algebra assembly and case classification."""

import numpy as np
import pytest

from riccitype import core, geometry, lie, transvection

from oracles import act_chart


def build(case, n, p=None, q=None, k=1.0):
    return core.build_model(case, n, k=k, p=p, q=q)


def test_base_points_match_normal_forms():
    k = 0.5
    model, elem = build("hyperbolic", 2, k=k)
    x0 = transvection.base_point(model)
    expected = np.zeros(6)
    expected[0] = -1.0
    expected[3] = 1.0
    assert np.allclose(x0, expected)  # 1/sqrt(2k) = 1 for k = 1/2
    assert abs(core.sigma_value(model, elem, x0) - 1.0) <= 1e-14

    model, elem = build("elliptic", 2, p=1, k=4.0)
    x0 = transvection.base_point(model)
    assert np.isclose(x0[0], 0.5)
    assert abs(core.sigma_value(model, elem, x0) - 1.0) <= 1e-14

    model, elem = build("nilpotent", 2, p=2, q=1)
    x0 = transvection.base_point(model)
    assert x0[4] == 1.0 and np.sum(np.abs(x0)) == 1.0


@pytest.mark.parametrize("n", [2, 3, 4])
def test_hyperbolic_transvection_is_sl(n):
    model, elem = build("hyperbolic", n)
    data = transvection.transvection_algebra(model, elem)
    assert data.centralizer.dim == (n + 1) ** 2
    assert data.p_part.dim == 2 * n
    assert not data.a_in_k1
    assert data.algebra.dim == (n + 1) ** 2 - 1
    assert np.max(np.abs(transvection.upper_left_traces(data, model))) <= 1e-10
    cert, label = transvection.classify_transvection(data, model)
    assert label == f"sl({n + 1},R)"
    assert not cert.solvable


@pytest.mark.parametrize("n,p", [(2, 1), (2, 2), (3, 1), (3, 4), (4, 2)])
def test_elliptic_transvection_is_su(n, p):
    model, elem = build("elliptic", n, p=p)
    data = transvection.transvection_algebra(model, elem)
    assert data.p_part.dim == 2 * n
    assert not data.a_in_k1
    assert data.algebra.dim == (n + 1) ** 2 - 1
    cert, label = transvection.classify_transvection(data, model)
    assert label == f"su({p},{n + 1 - p})"
    assert not cert.solvable


def test_nilpotent_p2_q1_dimensions():
    model, elem = build("nilpotent", 2, p=2, q=1)
    data = transvection.transvection_algebra(model, elem)
    assert data.centralizer.dim == 11
    assert data.p_part.dim == 4
    assert data.a_in_k1
    assert data.algebra.dim == 7
    assert lie.structure_constants(data.algebra, data.modulo)[1] <= 1e-10


@pytest.mark.parametrize("n,p,q,expect_solvable,expect_abelian", [
    (3, 1, 1, True, True),
    (2, 2, 1, True, False),
    (2, 2, 2, True, False),
    (3, 3, 2, False, False),
    (4, 3, 3, False, False),
])
def test_nilpotent_classification(n, p, q, expect_solvable, expect_abelian):
    model, elem = build("nilpotent", n, p=p, q=q)
    data = transvection.transvection_algebra(model, elem)
    cert, label = transvection.classify_transvection(data, model)
    assert cert.solvable == expect_solvable
    assert cert.abelian == expect_abelian
    if p == 1:
        assert cert.dimension == 2 * n and label == "abelian"
    if p == 2:
        assert label == "solvable"
        ideal = transvection.nilpotent_ideal_report(cert)
        assert ideal["codimension"] == 1
        assert ideal["nilpotent"]
        assert ideal["ideal_residual"] <= 1e-9
    if p > 2:
        assert label == "non-solvable (Levi-type)"


@pytest.mark.parametrize("case,n,p,q", [
    ("hyperbolic", 3, None, None),
    ("elliptic", 3, 2, None),
    ("nilpotent", 3, 2, 2),
])
def test_sigma1_invariants(case, n, p, q):
    model, elem = build(case, n, p=p, q=q)
    data = transvection.transvection_algebra(model, elem)
    s = data.symmetry
    assert np.max(np.abs(s @ s - np.eye(model.ambient_dim))) <= 1e-10
    assert np.max(np.abs(s @ elem.matrix @ s - elem.matrix)) <= 1e-10
    # sigma1 preserves g1
    for b in data.centralizer.basis:
        assert data.centralizer.distance(s @ b @ s) <= 1e-9


def test_A_membership_sides():
    model, elem = build("hyperbolic", 2)
    data = transvection.transvection_algebra(model, elem)
    a_unit = elem.matrix / np.linalg.norm(elem.matrix.reshape(-1))
    assert data.k_part.distance(a_unit) > 1e-3
    model, elem = build("nilpotent", 3, p=2, q=1)
    data = transvection.transvection_algebra(model, elem)
    a_unit = elem.matrix / np.linalg.norm(elem.matrix.reshape(-1))
    assert data.k_part.distance(a_unit) <= 1e-9


def test_flow_kernel_acts_trivially_on_chart():
    # the one-parameter flow generated by A induces the identity downstairs
    model, elem = build("nilpotent", 2, p=2, q=1)
    cp = geometry.project(model, elem, core.sample_sigma(model, elem, 1, seed=2)[0])
    for t in (-1.0, 0.4, 2.0):
        moved = act_chart(model, elem, elem.flow(t), cp)
        assert np.max(np.abs(cp - moved)) <= 1e-9


# --- orthonormal rows and the graded basis --------------------------------------

ALGEBRA_LARGE = [("hyperbolic", 6, 0, 0), ("elliptic", 6, 3, 4), ("nilpotent", 7, 3, 1),
                 ("nilpotent", 7, 2, 1)]
SUBSPACE_CASES = core.admissible_parameters((2, 3, 4)) + ALGEBRA_LARGE


@pytest.mark.parametrize("case,n,p,q", SUBSPACE_CASES)
def test_subspaces_have_orthonormal_rows(case, n, p, q):
    # coordinates and distances are projections onto the rows, so every
    # subspace the package builds must carry orthonormal rows
    from riccitype.transitive import iwasawa
    from riccitype.transitive import nilpotent as nil
    model, elem = build(case, n, p or None, q or None)
    data = transvection.transvection_algebra(model, elem)
    subs = [data.centralizer, data.p_part, data.k_part, data.algebra, lie.line(elem.matrix),
            lie.bracket_span(data.p_part, data.k_part)]
    if data.modulo is not None:
        subs.append(data.modulo)
    if case == "elliptic" and p == 1:
        iw = iwasawa.iwasawa_su1n(n)
        a_phi, h_phi, _ = iwasawa.build_a_phi(iw, np.linspace(-1.0, 1.5, n - 1))
        subs += [iw.algebra, iw.compact_part, iw.abelian_part, iw.centralizer_m,
                 iw.nilpotent_part, a_phi, h_phi,
                 *lie.ad_eigenspaces(iw.algebra, iw.a_generator).values()]
    if case == "nilpotent" and p == 2 and q == 1:
        subs.append(nil.build_h(model, np.eye(2 * (n - 1)))[0])
    for sub in subs:
        assert sub.rows.shape == (sub.dim, model.ambient_dim ** 2)
        assert np.max(np.abs(sub.rows @ sub.rows.T - np.eye(sub.dim)), initial=0.0) <= 1e-13


@pytest.mark.parametrize("case,n,p,q", SUBSPACE_CASES)
def test_structure_constants_have_symmetric_pair_blocks(case, n, p, q):
    # the algebra's basis is p1 rows then k~ rows, so c is graded:
    # [p, p] in k, [p, k] and [k, p] in p, [k, k] in k
    model, elem = build(case, n, p or None, q or None)
    data = transvection.transvection_algebra(model, elem)
    c = transvection.classify_transvection(data, model)[0].structure
    pp, kk = slice(None, data.p_part.dim), slice(data.p_part.dim, None)
    off = [c[pp, pp, pp], c[pp, kk, kk], c[kk, pp, kk], c[kk, kk, pp]]
    assert max(np.max(np.abs(block), initial=0.0) for block in off) <= 1e-12
    if data.algebra.dim > data.p_part.dim:  # the blocks are not vacuous: [p, p] reaches k~
        assert np.max(np.abs(c[pp, pp, kk])) > 0.1
