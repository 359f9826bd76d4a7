"""Candidate families, closure conditions and transitivity for the p=2, q=1 case."""

import numpy as np
import pytest
from scipy.linalg import expm

from riccitype import core, geometry, lie
from riccitype.transitive import nilpotent as nil


@pytest.fixture(scope="module")
def setup():
    model, elem = core.build_model("nilpotent", 2, p=2, q=1)
    return model, elem, model.omega0


def darboux_points(n, count, seed, scale=1.0):
    rng = np.random.default_rng(seed)
    return [geometry.ChartPoint("nilpotent", "darboux", scale * rng.standard_normal(2 * n))
            for _ in range(count)]


def test_candidate_matrix_linearity_and_zero(setup):
    model, elem, om0 = setup
    cand = nil.make_candidate(np.eye(2))
    assert np.max(np.abs(nil.candidate_matrix_K(cand, 0.0, np.zeros(2), 0.0, om0))) == 0
    rng = np.random.default_rng(1)
    p1, p2 = rng.standard_normal(2)
    v1, v2 = rng.standard_normal((2, 2))
    s1, s2 = rng.standard_normal(2)
    lhs = nil.candidate_matrix_K(cand, p1 + p2, v1 + v2, s1 + s2, om0)
    rhs = (nil.candidate_matrix_K(cand, p1, v1, s1, om0)
           + nil.candidate_matrix_K(cand, p2, v2, s2, om0))
    assert np.max(np.abs(lhs - rhs)) <= 1e-12


def test_candidate_matrix_single_p_block():
    model, elem = core.build_model("nilpotent", 2, p=2, q=1)
    om0 = model.omega0
    cand = nil.make_candidate(np.eye(2), a_tilde=None, a=0.0, c=1.0)
    k = nil.candidate_matrix_K(cand, 1.0, np.zeros(2), 0.0, om0)
    # p'' = a*p = 0 for a = 0: only the two hyperbolic-rotation corner blocks remain
    corner = np.array([[0.0, 1.0], [1.0, 0.0]])
    assert np.allclose(k[:2, :2], corner)
    assert np.allclose(k[4:, 4:], corner)
    k_zeroed = k.copy()
    k_zeroed[:2, :2] = 0
    k_zeroed[4:, 4:] = 0
    assert np.max(np.abs(k_zeroed)) == 0


@pytest.mark.parametrize("eps,q", [(-1, 1), (1, 2)])
def test_candidate_matrix_in_sp(eps, q):
    model, elem = core.build_model("nilpotent", 2, p=2, q=q)
    rng = np.random.default_rng(2)
    for _ in range(20):
        cand = nil.make_candidate(rng.standard_normal((2, 2)), rng.standard_normal(2),
                                  rng.standard_normal(2), rng.standard_normal(2),
                                  float(rng.standard_normal()), float(rng.standard_normal()),
                                  eps)
        k = nil.candidate_matrix_K(cand, float(rng.standard_normal()),
                                   rng.standard_normal(2), float(rng.standard_normal()),
                                   model.omega0)
        assert core.sp_residual(model.omega, k) <= 1e-12
        assert np.max(np.abs(k @ elem.matrix - elem.matrix @ k)) <= 1e-12


def test_closure_conditions_accepted(setup):
    model, elem, om0 = setup
    for b_mat, c in [(np.eye(2), 1.0), (-np.eye(2), -1.0), (np.diag([1.0, -1.0]), 1.0)]:
        cand = nil.make_candidate(b_mat, b_tilde=np.zeros(2), c=c)
        rep = nil.closure_conditions(cand, om0)
        assert rep.residual <= 1e-12
        assert rep.all_conditions


def test_closure_conditions_accepted_with_a_tilde(setup):
    model, elem, om0 = setup
    at = np.array([0.5, -0.2])
    b_mat = np.eye(2)
    cand = nil.make_candidate(b_mat, a_tilde=at,
                              b_tilde=nil.b_tilde_from_relation(at, b_mat, 1.0, om0),
                              a=0.8, c=1.0)
    rep = nil.closure_conditions(cand, om0)
    assert rep.residual <= 1e-12
    assert rep.all_conditions


def test_closure_conditions_negative_controls(setup):
    model, elem, om0 = setup
    controls = {
        "c_tilde": nil.make_candidate(np.eye(2), c_tilde=np.array([1.0, 0.0])),
        "b_square": nil.make_candidate(np.diag([1.0, 2.0])),
        "eps_plus_one": nil.make_candidate(np.array([[0.0, -1.0], [1.0, 0.0]]), epsilon=1),
        "c_square": nil.make_candidate(np.eye(2), c=2.0),
        "b_tilde": nil.make_candidate(np.eye(2), b_tilde=np.array([0.7, 0.0])),
        "isotropy": nil.make_candidate(-np.eye(2), c=1.0),
    }
    for name, cand in controls.items():
        rep = nil.closure_conditions(cand, om0)
        assert rep.residual > 1e-3, name
        assert not rep.all_conditions, name


def test_closure_isotropy_control_after_rebasing_omega0():
    # n = 3: rebase Omega0 by a coordinate swap so that the (-c)-eigenspace of a
    # previously admissible split B stops being isotropic
    model, elem = core.build_model("nilpotent", 3, p=2, q=1)
    om0 = model.omega0
    b_mat = np.diag([1.0, 1.0, -1.0, -1.0])
    assert nil.closure_conditions(nil.make_candidate(b_mat), om0).residual <= 1e-12
    swap = np.eye(4)[[0, 2, 1, 3]]
    om0_rebased = swap.T @ om0 @ swap
    rep = nil.closure_conditions(nil.make_candidate(b_mat), om0_rebased)
    assert rep.residual > 1e-3
    assert not rep.flags["isotropic_image"]


def test_build_h_accepted(setup):
    model, elem, om0 = setup
    for b_mat, c in [(np.eye(2), 1.0), (np.diag([1.0, -1.0]), 1.0), (-np.eye(2), -1.0)]:
        sub, gens, cand = nil.build_h(model, b_mat, c=c)
        assert sub.dim == 4
        assert lie.structure_constants(sub, lie.line(elem.matrix))[1] <= 1e-10


def test_build_h_rejects_preconditions(setup):
    model, elem, om0 = setup
    with pytest.raises(ValueError, match="B\\^2"):
        nil.build_h(model, np.diag([1.0, 2.0]))
    with pytest.raises(ValueError, match="c\\^2"):
        nil.build_h(model, np.eye(2), c=0.5)
    with pytest.raises(ValueError, match="isotropic"):
        nil.build_h(model, -np.eye(2), c=1.0)


def test_build_h_closure_fails_without_isotropy():
    # skipping validation, the assembled family genuinely fails to close
    model, elem = core.build_model("nilpotent", 3, p=2, q=1)
    b_mat = np.diag([1.0, -1.0, 1.0, -1.0])  # (B-1)-image not Omega0-isotropic
    sub, gens, cand = nil.build_h(model, b_mat, validate=False)
    assert lie.structure_constants(sub, lie.line(elem.matrix))[1] > 1e-3


def test_normalize_candidate(setup):
    model, elem, om0 = setup
    at = np.array([0.5, -0.2])
    cand = nil.make_candidate(np.eye(2), a_tilde=at,
                              b_tilde=nil.b_tilde_from_relation(at, np.eye(2), 1.0, om0),
                              a=0.8, c=1.0)
    normalized, conjugators = nil.normalize_candidate(model, cand)
    assert np.max(np.abs(normalized.a_tilde)) == 0
    assert normalized.a == 0
    assert len(conjugators) == 2
    for g in conjugators:
        assert core.sp_residual(model.omega, g - np.eye(6)) <= 1.0  # group elements
        assert np.max(np.abs(g.T @ model.omega @ g - model.omega)) <= 1e-12
    # closure is preserved
    assert nil.closure_conditions(normalized, om0).residual <= 1e-12
    # the conjugated family spans the normalized family modulo the flow generator
    total = np.eye(6)
    for g in conjugators:
        total = g @ total
    old_gens = nil.family_generators(cand, om0)
    new_span = lie.subspace_from_matrices(
        nil.family_generators(normalized, om0) + [elem.matrix], 6)
    for k in old_gens:
        moved = total @ k @ np.linalg.inv(total)
        assert new_span.distance(moved / np.linalg.norm(moved)) <= 1e-10


def test_normalize_fixed_point(setup):
    model, elem, om0 = setup
    cand = nil.make_candidate(np.diag([1.0, -1.0]), c=1.0)
    normalized, conjugators = nil.normalize_candidate(model, cand)
    assert conjugators == []
    assert np.array_equal(normalized.B, cand.B)


def test_fundamental_field_examples(setup):
    model, elem, om0 = setup
    origin = geometry.ChartPoint("nilpotent", "darboux", np.zeros(4))
    b_mat = np.diag([1.0, -1.0])
    out = nil.fundamental_field_p2q1(b_mat, 1.0, (1.0, np.zeros(2), 0.0), origin, om0)
    assert np.allclose(out, [0, 0, 0, -1.0])
    out = nil.fundamental_field_p2q1(b_mat, 1.0, (0.0, np.zeros(2), 1.0), origin, om0)
    assert np.allclose(out, [-1.0, 0, 0, 0])
    p_vec = np.array([0.4, -0.3])
    out = nil.fundamental_field_p2q1(b_mat, 1.0, (0.0, p_vec, 0.0), origin, om0)
    assert np.allclose(out, np.concatenate([[0.0], -p_vec, [0.0]]))


def test_fundamental_field_cross_validation(setup):
    # closed form vs exact quotient differential vs differenced chart action
    model, elem, om0 = setup
    b_mat, c = np.diag([1.0, -1.0]), 1.0
    sub, gens, cand = nil.build_h(model, b_mat, c=c)
    tuples = nil._generator_tuples(2)
    for cp in darboux_points(2, 5, seed=3):
        for gen, k in zip(tuples, gens):
            closed = nil.fundamental_field_p2q1(b_mat, c, gen, cp, om0)
            exact = nil.sigma_level_field(model, elem, k, cp)
            assert np.max(np.abs(closed - exact)) <= 1e-12
            s = 1e-5
            plus = geometry.act_chart(model, elem, expm(-s * k), cp).coords
            minus = geometry.act_chart(model, elem, expm(s * k), cp).coords
            fd = (plus - minus) / (2 * s)
            assert np.max(np.abs(closed - fd)) <= 1e-5


def test_simply_transitive_certificate(setup):
    model, elem, om0 = setup
    tuples = nil._generator_tuples(2)
    points = darboux_points(2, 100, seed=11)
    for b_mat, c in [(np.eye(2), 1.0), (np.diag([1.0, -1.0]), 1.0), (-np.eye(2), -1.0)]:
        fields = [lambda cp, g=g, b=b_mat, cc=c: nil.fundamental_field_p2q1(b, cc, g, cp, om0)
                  for g in tuples]
        cert = nil.simply_transitive_certificate(model, fields, points)
        assert cert["passed"]
        assert cert["min_rank"] == 4
        assert cert["min_singular_value"] > 0
        gammas = [cp.coords[-1] for cp in points]
        assert nil.frame_invertibility_minimum(b_mat, gammas)[0] > 0


def test_simply_transitive_duplicate_generator_fails(setup):
    model, elem, om0 = setup
    tuples = nil._generator_tuples(2)
    points = darboux_points(2, 10, seed=13)
    fields = [lambda cp, g=g: nil.fundamental_field_p2q1(np.eye(2), 1.0, g, cp, om0)
              for g in tuples[:3]]
    fields.append(fields[2])
    cert = nil.simply_transitive_certificate(model, fields, points)
    assert not cert["passed"]
    assert cert["witness"] is not None


def test_frame_eigenvalues_never_vanish():
    # B^2 = Id: eigenvalues of cosh(g) Id + sinh(g) B are e^{+-g}
    b_mat = np.diag([1.0, -1.0])
    for g in (-2.0, -0.3, 0.0, 1.7):
        mat = np.cosh(g) * np.eye(2) + np.sinh(g) * b_mat
        eig = np.sort(np.linalg.eigvals(mat))
        assert np.allclose(eig, np.sort([np.exp(g), np.exp(-g)]))


def test_frame_invertibility_is_scale_free():
    # det = e^{g tr B} underflows for scalar B although the frame is e^{+-g} Id
    gammas = [0.3, -12.0, 12.0, 1.0]
    for b_mat in (np.eye(8), -np.eye(8)):
        ratio, _ = nil.frame_invertibility_minimum(b_mat, gammas)
        assert ratio == pytest.approx(1.0)
    ratio, worst = nil.frame_invertibility_minimum(np.diag([1.0, -1.0]), gammas)
    assert ratio == pytest.approx(np.exp(-24.0)) and ratio < 1e-9
    assert worst == 1


def test_moment_map_values(setup):
    model, elem, om0 = setup
    b_mat = np.eye(2)
    cp = geometry.ChartPoint("nilpotent", "darboux", np.array([0.7, 0.1, -0.2, 0.0]))
    assert nil.moment_map_f(b_mat, 1.0, (1.0, np.zeros(2), 0.0), cp, om0) == pytest.approx(0.7)
    origin = geometry.ChartPoint("nilpotent", "darboux", np.zeros(4))
    assert nil.moment_map_f(b_mat, 1.0, (0.0, np.zeros(2), 1.0), origin, om0) == pytest.approx(-0.5)


def test_moment_map_hamiltonian_identity(setup):
    model, elem, om0 = setup
    tuples = nil._generator_tuples(2)
    for b_mat, c in [(np.eye(2), 1.0), (np.diag([1.0, -1.0]), 1.0)]:
        worst = 0.0
        for cp in darboux_points(2, 50, seed=17):
            for gen in tuples:
                worst = max(worst, nil.hamiltonian_residual(model, b_mat, c, gen, cp))
        assert worst <= 1e-5


def test_strongly_hamiltonian_defect(setup):
    model, elem, om0 = setup
    e1, e2 = np.eye(2)
    assert nil.strongly_hamiltonian_defect(np.eye(2), 1.0, e1, e2, om0) == 0
    assert nil.strongly_hamiltonian_defect(np.diag([1.0, -1.0]), 1.0, e1, e2, om0) == -1.0
    assert nil.strongly_hamiltonian_defect(np.diag([1.0, -1.0]), 1.0, e1, e1, om0) == 0


def test_strongly_hamiltonian_iff_scalar(setup):
    # defect vanishes on all basis pairs exactly for B = c*Id across a sweep
    model, elem, om0 = setup
    rng = np.random.default_rng(19)
    sweep = [(np.eye(2), 1.0), (-np.eye(2), -1.0), (np.diag([1.0, -1.0]), 1.0)]
    gen = rng.standard_normal((2, 2))
    sp_gen = 0.5 * (gen - om0 @ gen.T @ np.linalg.inv(om0))
    s = expm(0.4 * sp_gen)
    sweep.append((s @ np.diag([1.0, -1.0]) @ np.linalg.inv(s), 1.0))
    for b_mat, c in sweep:
        defect = max(abs(nil.strongly_hamiltonian_defect(b_mat, c, np.eye(2)[i],
                                                         np.eye(2)[j], om0))
                     for i in range(2) for j in range(2))
        scalar = np.max(np.abs(b_mat - c * np.eye(2))) <= 1e-9
        assert (defect <= 1e-12) == scalar


@pytest.mark.parametrize("c", [1.0, -1.0])
def test_heisenberg_extension(c):
    model, elem = core.build_model("nilpotent", 2, p=2, q=1)
    rep = nil.heisenberg_extension_check(model, elem, c=c)
    assert rep["derived_dim"] == 3
    cert = rep["certificate"]
    assert cert.heisenberg and cert.nilpotent and cert.center_dim == 1
    got = sorted(np.round(rep["dilation_eigenvalues"].real, 9).tolist())
    assert got == sorted(rep["expected_eigenvalues"])
    assert np.max(np.abs(rep["dilation_eigenvalues"].imag)) <= 1e-9


def test_heisenberg_extension_larger_n():
    model, elem = core.build_model("nilpotent", 3, p=2, q=1)
    rep = nil.heisenberg_extension_check(model, elem, c=1.0)
    assert rep["derived_dim"] == 5
    assert rep["certificate"].heisenberg
    got = sorted(np.round(rep["dilation_eigenvalues"].real, 9).tolist())
    assert got == [-2.0, -1.0, -1.0, -1.0, -1.0]


def test_normalize_preserves_transitivity_verdict(setup):
    # same seeded samples, generic sigma-level fields before vs closed form after
    model, elem, om0 = setup
    at = np.array([0.5, -0.2])
    cand = nil.make_candidate(np.eye(2), a_tilde=at,
                              b_tilde=nil.b_tilde_from_relation(at, np.eye(2), 1.0, om0),
                              a=0.8, c=1.0)
    normalized, _ = nil.normalize_candidate(model, cand)
    points = darboux_points(2, 40, seed=23)
    gens = nil.family_generators(cand, om0)
    fields_raw = [lambda cp, k=k: nil.sigma_level_field(model, elem, k, cp) for k in gens]
    tuples = nil._generator_tuples(2)
    fields_norm = [lambda cp, g=g: nil.fundamental_field_p2q1(normalized.B, normalized.c,
                                                              g, cp, om0)
                   for g in tuples]
    cert_raw = nil.simply_transitive_certificate(model, fields_raw, points)
    cert_norm = nil.simply_transitive_certificate(model, fields_norm, points)
    assert cert_raw["passed"] == cert_norm["passed"] == True
    assert cert_raw["ranks"] == cert_norm["ranks"]
