"""Candidate families, closure conditions and transitivity for the p=2, q=1 case."""

import dataclasses

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp
from scipy.linalg import expm

from riccitype import cli, core, geometry, lie
from riccitype.transitive import iwasawa as iwa
from riccitype.transitive import nilpotent as nil
from riccitype.transitive import quaternion as quat

from oracles import (center_oracle, closed_form_fields, closure_conditions_pairwise,
                     differenced_field, fundamental_field_p2q1, generator_tuples,
                     heisenberg_candidate, moment_map_f, moment_map_gradient,
                     normalize_candidate, series_certificate, series_oracle,
                     tangent_sphere_field)


@pytest.fixture(scope="module")
def setup():
    model = core.build_model("nilpotent", 2, p=2, q=1)
    return model, model.omega0


def family_fields(model, b_mat, c, coords):
    """Exact fields of the normalized family (a~ = 0, a = 0) with this B and c at chart points."""
    cand = nil.make_candidate(b_mat, c=c)
    return geometry.fundamental_fields(model, nil.family_generators(cand, model.omega0),
                                       coords)


def darboux_points(n, count, seed, scale=1.0):
    """A (count, 2n) stack of Darboux chart points, one per row."""
    return scale * np.random.default_rng(seed).standard_normal((count, 2 * n))


def test_candidate_matrix_linearity_and_zero(setup):
    model, om0 = setup
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
    model = core.build_model("nilpotent", 2, p=2, q=1)
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
    model = core.build_model("nilpotent", 2, p=2, q=q)
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
        assert np.max(np.abs(k @ model.A - model.A @ k)) <= 1e-12


def test_closure_conditions_accepted(setup):
    model, om0 = setup
    for b_mat, c in [(np.eye(2), 1.0), (-np.eye(2), -1.0), (np.diag([1.0, -1.0]), 1.0)]:
        cand = nil.make_candidate(b_mat, b_tilde=np.zeros(2), c=c)
        assert max(nil.closure_conditions(cand, om0)) <= 1e-12
        assert all(closure_conditions_pairwise(cand, om0)[2].values())


def test_closure_conditions_accepted_with_a_tilde(setup):
    model, om0 = setup
    at = np.array([0.5, -0.2])
    b_mat = np.eye(2)
    cand = nil.make_candidate(b_mat, a_tilde=at,
                              b_tilde=nil.b_tilde_from_relation(at, b_mat, 1.0, om0),
                              a=0.8, c=1.0)
    assert max(nil.closure_conditions(cand, om0)) <= 1e-12
    assert all(closure_conditions_pairwise(cand, om0)[2].values())


def test_closure_conditions_negative_controls(setup):
    model, om0 = setup
    controls = {
        "c_tilde": nil.make_candidate(np.eye(2), c_tilde=np.array([1.0, 0.0])),
        "b_square": nil.make_candidate(np.diag([1.0, 2.0])),
        "eps_plus_one": nil.make_candidate(np.array([[0.0, -1.0], [1.0, 0.0]]), epsilon=1),
        "c_square": nil.make_candidate(np.eye(2), c=2.0),
        "b_tilde": nil.make_candidate(np.eye(2), b_tilde=np.array([0.7, 0.0])),
        "isotropy": nil.make_candidate(-np.eye(2), c=1.0),
    }
    for name, cand in controls.items():
        assert max(nil.closure_conditions(cand, om0)) > 1e-3, name
        assert not all(closure_conditions_pairwise(cand, om0)[2].values()), name


def test_closure_isotropy_control_after_rebasing_omega0():
    # n = 3: rebase Omega0 by a coordinate swap so that the (-c)-eigenspace of a
    # previously admissible split B stops being isotropic
    model = core.build_model("nilpotent", 3, p=2, q=1)
    om0 = model.omega0
    b_mat = np.diag([1.0, 1.0, -1.0, -1.0])
    assert max(nil.closure_conditions(nil.make_candidate(b_mat), om0)) <= 1e-12
    swap = np.eye(4)[[0, 2, 1, 3]]
    om0_rebased = swap.T @ om0 @ swap
    cand = nil.make_candidate(b_mat)
    assert max(nil.closure_conditions(cand, om0_rebased)) > 1e-3
    assert not closure_conditions_pairwise(cand, om0_rebased)[2]["isotropic_image"]


def accepted_candidates(model):
    """The distinct candidates that a find-transitive run completes with build_h, at
    seeds 0-7: each sweep member once per B that a seed gives it."""
    members = {(name, b_mat.tobytes()): (b_mat, c, at, a) for seed in range(8)
               for name, b_mat, c, at, a in nil.sweep_members(model.omega0, seed)}
    return [nil.build_h(model, b_mat, a_tilde=at, a=a, c=c)[2]
            for b_mat, c, at, a in members.values()]


def report_candidates(n):
    """The candidates whose closure a find-transitive run checks, at seeds 0-7: the
    accepted candidates and the six negative controls."""
    model = core.build_model("nilpotent", n, p=2, q=1)
    controls = [cand for _, cand in nil.negative_controls(2 * (n - 1))]
    return model, accepted_candidates(model) + controls


def assert_matches_loop(cand, om0):
    """Pair arrays vs the pairwise loop, and the generator stack vs one K per tuple."""
    assert np.array_equal(nil.closure_conditions(cand, om0),
                          closure_conditions_pairwise(cand, om0)[:2])
    per_tuple = [nil.candidate_matrix_K(cand, p, P, pp, om0)
                 for p, P, pp in generator_tuples(cand.block_dim)]
    assert np.array_equal(nil.family_generators(cand, om0), per_tuple)


@pytest.mark.parametrize("n", [2, 3, 4, 6, 8])
def test_closure_conditions_match_pairwise_loop(n):
    model, cands = report_candidates(n)
    assert len(cands) == 18  # 3 fixed members, 8 seeded sp_conjugate, unnormalized, 6 controls
    for cand in cands:
        assert_matches_loop(cand, model.omega0)


@settings(max_examples=60, deadline=None, database=None)
@given(st.data())
def test_closure_conditions_match_pairwise_loop_property(data):
    d = data.draw(st.sampled_from([2, 4]))
    eps = data.draw(st.sampled_from([-1, 1]))
    entries = st.floats(-3.0, 3.0, allow_nan=False, allow_infinity=False)

    def draw(shape):
        return data.draw(hnp.arrays(float, shape, elements=entries))
    cand = nil.make_candidate(draw((d, d)), draw(d), draw(d), draw(d),
                              data.draw(entries), data.draw(entries), eps)
    om0 = core.standard_symplectic_form(d // 2)
    assert_matches_loop(cand, om0)
    # a stack of arbitrary tuples gives one K per tuple
    g = data.draw(st.integers(1, 4))
    p, P, pp = draw(g), draw((g, d)), draw(g)
    stacked = nil.candidate_matrix_K(cand, p, P, pp, om0)
    assert stacked.shape == (g, d + 4, d + 4)
    assert np.array_equal(stacked, [nil.candidate_matrix_K(cand, p[i], P[i], pp[i], om0)
                                    for i in range(g)])


def test_find_transitive_k_calls_do_not_grow_with_n(monkeypatch, capsys):
    # one K call per generator stack, however many generators the family has
    original = nil.candidate_matrix_K
    counts = []

    def counted(*args, **kwargs):
        counts[-1] += 1
        return original(*args, **kwargs)
    monkeypatch.setattr(nil, "candidate_matrix_K", counted)
    for n in (2, 6):
        counts.append(0)
        assert cli.main(["find-transitive", "--case", "nilpotent", "--n", str(n),
                         "--p", "2", "--q", "1"]) == 0
    capsys.readouterr()
    assert counts[0] == counts[1] > 0


def test_build_h_accepted(setup):
    model, om0 = setup
    for b_mat, c in [(np.eye(2), 1.0), (np.diag([1.0, -1.0]), 1.0), (-np.eye(2), -1.0)]:
        sub, gens, cand = nil.build_h(model, b_mat, c=c)
        assert sub.dim == 4
        assert lie.structure_constants(sub, lie.line(model.A))[1] <= 1e-10


def test_build_h_rejects_preconditions(setup):
    model, om0 = setup
    with pytest.raises(ValueError, match="B\\^2"):
        nil.build_h(model, np.diag([1.0, 2.0]))
    with pytest.raises(ValueError, match="c\\^2"):
        nil.build_h(model, np.eye(2), c=0.5)
    with pytest.raises(ValueError, match="isotropic"):
        nil.build_h(model, -np.eye(2), c=1.0)
    # a NaN residual fails a precondition
    with pytest.raises(ValueError, match="B\\^2"):
        nil.build_h(model, np.diag([np.nan, 1.0]))
    with pytest.raises(ValueError, match="c\\^2"):
        nil.build_h(model, np.eye(2), c=np.nan)


def test_build_h_closure_fails_without_isotropy():
    # the family that build_h refuses, assembled by hand, genuinely fails to close
    model = core.build_model("nilpotent", 3, p=2, q=1)
    b_mat = np.diag([1.0, -1.0, 1.0, -1.0])  # (B-1)-image not Omega0-isotropic
    with pytest.raises(ValueError, match="isotropic"):
        nil.build_h(model, b_mat)
    cand = nil.make_candidate(b_mat)  # a~ = b~ = 0, a = 0 and c = 1, as build_h would complete it
    sub = lie.subspace_from_matrices(nil.family_generators(cand, model.omega0),
                                     model.ambient_dim)
    assert sub.dim == 2 * model.n
    assert lie.structure_constants(sub, lie.line(model.A))[1] > 1e-3


def test_normalize_candidate(setup):
    model, om0 = setup
    at = np.array([0.5, -0.2])
    cand = nil.make_candidate(np.eye(2), a_tilde=at,
                              b_tilde=nil.b_tilde_from_relation(at, np.eye(2), 1.0, om0),
                              a=0.8, c=1.0)
    normalized, conjugators = normalize_candidate(model, cand)
    assert np.max(np.abs(normalized.a_tilde)) == 0
    assert normalized.a == 0
    assert len(conjugators) == 2
    for g in conjugators:
        assert core.sp_residual(model.omega, g - np.eye(6)) <= 1.0  # group elements
        assert np.max(np.abs(g.T @ model.omega @ g - model.omega)) <= 1e-12
    # closure is preserved
    assert max(nil.closure_conditions(normalized, om0)) <= 1e-12
    # the conjugated family spans the normalized family modulo the flow generator
    total = np.eye(6)
    for g in conjugators:
        total = g @ total
    old_gens = nil.family_generators(cand, om0)
    new_span = lie.subspace_from_matrices(
        [*nil.family_generators(normalized, om0), model.A], 6)
    for k in old_gens:
        moved = total @ k @ np.linalg.inv(total)
        assert new_span.distance(moved / np.linalg.norm(moved)) <= 1e-10


def test_normalize_fixed_point(setup):
    model, om0 = setup
    cand = nil.make_candidate(np.diag([1.0, -1.0]), c=1.0)
    normalized, conjugators = normalize_candidate(model, cand)
    assert conjugators == []
    assert np.array_equal(normalized.B, cand.B)


@pytest.mark.parametrize("n", [2, 3, 4, 6])
def test_normalized_family_is_make_candidate(n):
    # find-transitive certifies make_candidate(B, c=c) in place of the conjugated family
    model = core.build_model("nilpotent", n, p=2, q=1)
    d = 2 * (n - 1)
    at = np.linspace(-0.4, 0.9, d)
    split = core.signature_matrix(d // 2, d // 2)
    cands = accepted_candidates(model) + [
        nil.build_h(model, b_mat, a_tilde=at, a=a, c=-1.0)[2]
        for b_mat, a in [(-np.eye(d), 0.7), (split, -1.3)]]
    if n == 2:  # the candidate file of the reach guard
        cands.append(nil.build_h(model, np.diag([1.0, -1.0]), a_tilde=[0.5, 0.0], a=0.7)[2])
    assert sum(np.any(cand.a_tilde != 0) and cand.a != 0 for cand in cands) == 3 + (n == 2)
    for cand in cands:
        normalized, _ = normalize_candidate(model, cand)
        expected = nil.make_candidate(cand.B, c=cand.c)
        for field in dataclasses.fields(expected):
            got, want = getattr(normalized, field.name), getattr(expected, field.name)
            assert type(got) is type(want) and np.array_equal(got, want), field.name


def test_fundamental_field_examples(setup):
    model, om0 = setup
    fields = family_fields(model, np.diag([1.0, -1.0]), 1.0, np.zeros(4))
    assert fields.shape == (4, 4)
    assert np.allclose(fields[:, 0], [0, 0, 0, -1.0])
    assert np.allclose(fields[:, 3], [-1.0, 0, 0, 0])
    p_vec = np.array([0.4, -0.3])
    assert np.allclose(fields[:, 1:3] @ p_vec, np.concatenate([[0.0], -p_vec, [0.0]]))


def test_fundamental_field_cross_validation(setup):
    # exact fields (d pi_x(-X x)) vs the closed form and vs the differenced
    # group action, on the Darboux, ball and tangent-sphere charts
    model, om0 = setup
    b_mat, c = np.diag([1.0, -1.0]), 1.0
    sub, gens, cand = nil.build_h(model, b_mat, c=c)
    tuples = generator_tuples(2)
    points = darboux_points(2, 5, seed=3)
    for cp, mat in zip(points, geometry.fundamental_fields(model, gens, points)):
        for gen, k, field in zip(tuples, gens, mat.T):
            closed = fundamental_field_p2q1(b_mat, c, gen, cp, om0)
            assert np.max(np.abs(closed - field)) <= 1e-12
            fd = differenced_field(model, k, cp, 1e-5)
            assert np.max(np.abs(closed - fd)) <= 1e-5
    for n in (2, 3):
        data = iwa.iwasawa_su1n(n)
        phi = np.linspace(-1.5, 0.8, n - 1)
        gens = [iwa.build_a_phi(data, phi)[1], *data.nilpotent_part.basis]
        points = iwa.sample_ball_points(n, 5, seed=7)
        for cp, mat in zip(points, geometry.fundamental_fields(data.model, gens, points)):
            for k, field in zip(gens, mat.T):
                fd = differenced_field(data.model, k, cp, 1e-5)
                assert np.max(np.abs(field - fd)) <= 1e-8
    hyp = core.build_model("hyperbolic", 3)
    w = np.array([0.3, -1.2, 0.5])
    gl_gens = quat.su2_left_basis() + [quat.eta(v, w) for v in np.eye(3)] + [quat.eta(w, w)]
    zero = np.zeros((4, 4))
    lifted = [np.block([[x, zero], [zero, -x.T]]) for x in gl_gens]
    rng = np.random.default_rng(3)
    for _ in range(5):
        u = rng.standard_normal(4)
        u /= np.linalg.norm(u)
        tw = 0.6 * rng.standard_normal(4)
        tw -= (u @ tw) * u
        cp = np.concatenate([u, tw])
        for x, field in zip(gl_gens, geometry.fundamental_fields(hyp, lifted, cp).T):
            fd = tangent_sphere_field(x, u, tw, 1.0, 1e-6)
            assert np.max(np.abs(field - fd)) <= 1e-8
    # generators outside the centralizer of A in sp are rejected
    not_sp = np.zeros((8, 8))
    not_sp[0, 1] = 1.0  # commutes with A
    not_commuting = np.zeros((8, 8))
    not_commuting[:4, 4:] = np.eye(4)  # in sp
    for bad in (not_sp, not_commuting):
        with pytest.raises(ValueError, match="centralizer"):
            geometry.fundamental_fields(hyp, [bad], np.eye(8)[0])
    # the exact Hamiltonian gradient vs central differences of the moment map
    for n in (2, 3, 4):
        nmodel = core.build_model("nilpotent", n, p=2, q=1)
        d = 2 * (n - 1)
        split = np.diag(np.concatenate([np.ones(d // 2), -np.ones(d // 2)]))
        dar = geometry.darboux_matrix(nmodel)
        for b, cc in [(np.eye(d), 1.0), (-np.eye(d), -1.0), (split, 1.0)]:
            points = darboux_points(n, 5, seed=29)
            for cp, mat in zip(points, family_fields(nmodel, b, cc, points)):
                for gen, field in zip(generator_tuples(d), mat.T):
                    grad = moment_map_gradient(b, cc, gen, cp, nmodel.omega0, 1e-5)
                    assert np.max(np.abs(field @ dar - grad)) <= 1e-5
                assert nil.hamiltonian_residual(nmodel, b, cc, mat, cp) <= 1e-12


def test_simply_transitive_certificate(setup):
    model, om0 = setup
    points = darboux_points(2, 100, seed=11)
    for b_mat, c in [(np.eye(2), 1.0), (np.diag([1.0, -1.0]), 1.0), (-np.eye(2), -1.0)]:
        cert = nil.simply_transitive_certificate(model, family_fields(model, b_mat, c,
                                                                      points))
        assert cert["witness"] is None
        assert cert["min_rank"] == 4
        assert cert["min_singular_value"] > 0
        assert nil.frame_invertibility_minimum(b_mat, points[:, -1])[0] > 0


def test_simply_transitive_duplicate_generator_fails(setup):
    model, om0 = setup
    points = darboux_points(2, 10, seed=13)
    gens = nil.family_generators(nil.make_candidate(np.eye(2)), om0)
    cert = nil.simply_transitive_certificate(
        model, geometry.fundamental_fields(model, gens[[0, 1, 2, 2]], points))
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
    model, om0 = setup
    b_mat = np.eye(2)
    cp = np.array([0.7, 0.1, -0.2, 0.0])
    assert moment_map_f(b_mat, 1.0, (1.0, np.zeros(2), 0.0), cp, om0) == pytest.approx(0.7)
    origin = np.zeros(4)
    assert moment_map_f(b_mat, 1.0, (0.0, np.zeros(2), 1.0), origin, om0) == pytest.approx(-0.5)


def test_moment_map_hamiltonian_identity(setup):
    model, om0 = setup
    for b_mat, c in [(np.eye(2), 1.0), (np.diag([1.0, -1.0]), 1.0)]:
        points = darboux_points(2, 50, seed=17)
        worst = 0.0
        for cp, mat in zip(points, family_fields(model, b_mat, c, points)):
            worst = max(worst, nil.hamiltonian_residual(model, b_mat, c, mat, cp))
        assert worst <= 1e-5


def test_strongly_hamiltonian_defect(setup):
    model, om0 = setup
    # entry (i, j) is the defect at (e_i, e_j)
    assert nil.strongly_hamiltonian_defect(np.eye(2), om0)[0, 1] == 0
    assert nil.strongly_hamiltonian_defect(np.diag([1.0, -1.0]), om0)[0, 1] == -1.0
    assert nil.strongly_hamiltonian_defect(np.diag([1.0, -1.0]), om0)[0, 0] == 0


def test_strongly_hamiltonian_iff_scalar(setup):
    # defect vanishes on all basis pairs exactly for B = c*Id across a sweep
    model, om0 = setup
    rng = np.random.default_rng(19)
    sweep = [(np.eye(2), 1.0), (-np.eye(2), -1.0), (np.diag([1.0, -1.0]), 1.0)]
    gen = rng.standard_normal((2, 2))
    sp_gen = 0.5 * (gen - om0 @ gen.T @ np.linalg.inv(om0))
    s = expm(0.4 * sp_gen)
    sweep.append((s @ np.diag([1.0, -1.0]) @ np.linalg.inv(s), 1.0))
    for b_mat, c in sweep:
        defect = np.max(np.abs(nil.strongly_hamiltonian_defect(b_mat, om0)))
        scalar = np.max(np.abs(b_mat - c * np.eye(2))) <= 1e-9
        assert (defect <= 1e-12) == scalar


@pytest.mark.parametrize("c", [1.0, -1.0])
def test_heisenberg_extension(c):
    model = core.build_model("nilpotent", 2, p=2, q=1)
    sub, x, c_h = heisenberg_candidate(model, c)
    rep = nil.heisenberg_extension_check(sub, x, c_h)
    assert rep["derived_dim"] == 3
    assert rep["certificate"].heisenberg
    # the same h' as matrices, modulo R*A: nilpotent, with a one-dimensional center
    modulo = lie.line(model.A)
    rows = lie.bracket_rows(c_h, np.eye(4), np.eye(4))
    derived = lie.MatrixLieSubspace(model.ambient_dim, rows @ sub.rows)
    assert series_oracle(derived, False, modulo) == [3, 1, 0]
    assert center_oracle(derived, modulo).dim == 1
    got = sorted(np.round(rep["dilation_eigenvalues"].real, 9).tolist())
    assert got == sorted([-c, -c, -2.0 * c])
    assert np.max(np.abs(rep["dilation_eigenvalues"].imag)) <= 1e-9


def test_heisenberg_extension_larger_n():
    model = core.build_model("nilpotent", 3, p=2, q=1)
    rep = nil.heisenberg_extension_check(*heisenberg_candidate(model, 1.0))
    assert rep["derived_dim"] == 5
    assert rep["certificate"].heisenberg
    got = sorted(np.round(rep["dilation_eigenvalues"].real, 9).tolist())
    assert got == [-2.0, -1.0, -1.0, -1.0, -1.0]


def counting(calls, name, original):
    """``original`` with every call recorded in ``calls`` under ``name``; a generator
    is recorded when it is called, before it yields."""
    def counted(*args, **kwargs):
        calls.append(name)
        return original(*args, **kwargs)
    return counted


@pytest.mark.parametrize("n", [2, 3, 4])
@pytest.mark.parametrize("c", [1.0, -1.0])
def test_heisenberg_extension_reads_derived_algebra_from_constants(monkeypatch, n, c):
    model = core.build_model("nilpotent", n, p=2, q=1)
    sub, x, c_h = heisenberg_candidate(model, c)
    calls = []
    monkeypatch.setattr(lie, "_pair_brackets", counting(calls, "brackets", lie._pair_brackets))
    monkeypatch.setattr(nil, "build_h", counting(calls, "build_h", nil.build_h))
    cert = nil.heisenberg_extension_check(sub, x, c_h)["certificate"]
    # h' is read from the structure constants the candidate was certified with
    assert calls == []
    monkeypatch.undo()
    # the matrix route: h' as matrices, its own bracket tensor, modulo R*A
    modulo = lie.line(model.A)
    rows = lie.bracket_rows(c_h, np.eye(sub.dim), np.eye(sub.dim))
    derived = lie.MatrixLieSubspace(model.ambient_dim, rows @ sub.rows)
    assert cert == series_certificate(derived, modulo=modulo)
    assert cert.closure_residual <= 1e-12


@pytest.mark.parametrize("n", [2, 3])
def test_find_transitive_builds_and_brackets_each_candidate_once(monkeypatch, n):
    # the Heisenberg entries read the scalar_c_plus candidate: five families, five
    # builds and five bracket passes (six of each when h_{Id, 1} was rebuilt)
    calls = []
    monkeypatch.setattr(lie, "_pair_brackets", counting(calls, "brackets", lie._pair_brackets))
    monkeypatch.setattr(nil, "build_h", counting(calls, "build_h", nil.build_h))
    report = cli.cmd_find_transitive(cli.RunConfig(case="nilpotent", n=n, p=2, q=1, seed=0))
    assert report.verdict == "PASS"
    assert sum(e.name.endswith(".bracket_closure_mod_A") for e in report.entries) == 5
    assert sum(e.name.startswith("heisenberg.") for e in report.entries) == 3
    assert (calls.count("build_h"), calls.count("brackets")) == (5, 5)


def test_find_transitive_builds_the_line_of_a_once(monkeypatch):
    # every candidate's closure mod R*A and the Heisenberg check read one line R*A
    built = []
    original = lie.line
    monkeypatch.setattr(lie, "line", lambda x: built.append(None) or original(x))
    report = cli.cmd_find_transitive(cli.RunConfig(case="nilpotent", n=2, p=2, q=1, seed=0))
    assert report.verdict == "PASS"
    assert sum(e.name.endswith(".bracket_closure_mod_A") for e in report.entries) == 5
    assert len(built) == 1


def rank_formula_members(model):
    """(B, c) of accepted members: for c = +-1, B = c*Id with m = 0..n-1 entries -c in
    the first Lagrangian half, then six seeded Sp-conjugates of such a B."""
    n, om0 = model.n, model.omega0
    d = len(om0)

    def diagonal(c, m):
        return c * np.diag([-1.0] * m + [1.0] * (d - m))
    members = [(diagonal(c, m), c) for c in (1.0, -1.0) for m in range(n)]
    for seed in range(6):
        rng = np.random.default_rng(seed)
        c, m = float(rng.choice([1.0, -1.0])), int(rng.integers(n))
        gen = rng.standard_normal((d, d))
        s = expm(0.15 * (gen - om0 @ gen.T @ np.linalg.inv(om0)))
        members.append((s @ diagonal(c, m) @ np.linalg.inv(s), c))
    return members


def absolute_rank(mat):
    return lie.row_span(mat, rtol=0.0, atol=1e-9)[0].shape[0]


@pytest.mark.parametrize("n", [2, 3, 4, 5])
def test_derived_algebra_bracket_rank_is_the_rank_of_omega0_on_e(n):
    # modulo R*A, h' = [h, h] has dimension 2n - 1 and its bracket, c' read as a
    # d' x d'^2 matrix, has the rank r of Omega0 on E = ker(B - c*Id): h' is
    # heis_{r+1} + R^{2n-2-r}, and every stratum r = 0, 2, ..., 2n - 2 is reached
    model = core.build_model("nilpotent", n, p=2, q=1)
    om0, a_line = model.omega0, lie.line(model.A)
    strata = set()
    for b_mat, c in rank_formula_members(model):
        sub = nil.build_h(model, b_mat, c=c)[0]
        c_h = lie.structure_constants(sub, a_line)[0]
        rows = lie.bracket_rows(c_h, np.eye(sub.dim), np.eye(sub.dim))
        c_derived = np.einsum("ai,bj,ijk->abk", rows, rows, c_h) @ rows.T
        # absolute cuts: on a conjugate of +-Id, B - c*Id is rounding noise, which a
        # relative cut would count as rank
        e = lie.null_space(b_mat - c * np.eye(len(om0)), rtol=0.0, atol=1e-9)[0]
        r = absolute_rank(e.T @ om0 @ e)
        assert rows.shape[0] == 2 * n - 1
        assert absolute_rank(c_derived.reshape(len(rows), -1)) == r
        strata.add(r)
    assert strata == set(range(0, 2 * n - 1, 2))


def test_normalize_preserves_transitivity_verdict(setup):
    # same seeded samples, generic sigma-level fields before vs closed form after
    model, om0 = setup
    at = np.array([0.5, -0.2])
    cand = nil.make_candidate(np.eye(2), a_tilde=at,
                              b_tilde=nil.b_tilde_from_relation(at, np.eye(2), 1.0, om0),
                              a=0.8, c=1.0)
    normalized, _ = normalize_candidate(model, cand)
    points = darboux_points(2, 40, seed=23)
    gens = nil.family_generators(cand, om0)
    fields_norm = closed_form_fields(normalized.B, normalized.c, om0)
    cert_raw = nil.simply_transitive_certificate(
        model, geometry.fundamental_fields(model, gens, points))
    cert_norm = nil.simply_transitive_certificate(model, [fields_norm(cp) for cp in points])
    # rank 2n = 4 at every sample on both sides: no sample falls below it, and
    # a (4, 4) field matrix has rank at most 4
    assert cert_raw["witness"] is cert_norm["witness"] is None
    assert cert_raw["min_rank"] == cert_norm["min_rank"] == 4
