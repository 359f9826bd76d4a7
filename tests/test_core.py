"""Model construction, characteristic identities, flows and Sigma_A sampling."""

import numpy as np
import pytest

from riccitype import core

from oracles import build_A_from_ricci, ricci_ambient_form, sample_sigma_pointwise


def series_exp(a, t, terms=25):
    acc = np.eye(a.shape[0])
    term = np.eye(a.shape[0])
    for j in range(1, terms):
        term = term @ (t * a) / j
        acc = acc + term
    return acc


@pytest.mark.parametrize("case,n,p,q", core.admissible_parameters((2, 3, 4)))
def test_construction_identities(case, n, p, q):
    model = core.build_model(case, n, k=1.0, p=p or None, q=q or None)
    res = core.characteristic_residuals(model)
    assert res["sp_membership"] <= 1e-12
    assert res["square_identity"] <= 1e-12
    assert np.max(np.abs(model.A)) > 0
    # omega antisymmetric and invertible
    assert np.max(np.abs(model.omega + model.omega.T)) == 0
    assert abs(np.linalg.det(model.omega)) > 1e-6


@pytest.mark.parametrize("k", [1e-12, 1e-7, 1.0, 1e3, 1e12])
def test_model_k_is_the_scale_of_a(k):
    # every normal form's A has entries in {0, +-k}, and the nilpotent one in {0, 1}
    for case, n, p, q in core.admissible_parameters((2, 3, 4)):
        model = core.build_model(case, n, k=k, p=p or None, q=q or None)
        assert np.max(np.abs(model.A)) == model.k == (1.0 if case == "nilpotent" else k)


def test_nilpotent_block_structure():
    model = core.build_model("nilpotent", 2, p=2, q=1)
    a = model.A
    assert np.allclose(a[:2, 4:], np.eye(2))
    a_zeroed = a.copy()
    a_zeroed[:2, 4:] = 0
    assert np.max(np.abs(a_zeroed)) == 0
    # corner blocks -diag(1,-1) / diag(1,-1)
    assert np.allclose(model.omega[:2, 4:], -np.diag([1.0, -1.0]))
    assert np.allclose(model.omega[4:, :2], np.diag([1.0, -1.0]))


def test_hyperbolic_normal_form():
    model = core.build_model("hyperbolic", 2, k=1.0)
    expected = np.zeros((6, 6))
    expected[:3, :3] = np.eye(3)
    expected[3:, 3:] = -np.eye(3)
    assert np.array_equal(model.A, expected)
    assert np.allclose(model.A @ model.A, np.eye(6))


@pytest.mark.parametrize("case,kwargs", [
    ("hyperbolic", {"n": 1}),
    ("hyperbolic", {"n": 3, "k": 0.0}),
    ("hyperbolic", {"n": 3, "k": -2.0}),
    ("elliptic", {"n": 2, "p": 0}),
    ("elliptic", {"n": 2, "p": 4}),
    ("nilpotent", {"n": 2, "p": 2, "q": 3}),
    ("nilpotent", {"n": 2, "p": 4, "q": 1}),
    ("nilpotent", {"n": 2, "p": 2, "q": 0}),
])
def test_build_model_rejects_bad_parameters(case, kwargs):
    with pytest.raises(ValueError):
        core.build_model(case, **kwargs)


def test_build_A_from_ricci_zero_case():
    a, _ = build_A_from_ricci(np.zeros((4, 4)), 0.0, 2)
    assert np.linalg.matrix_rank(a) == 1
    assert np.max(np.abs(a @ a)) == 0


def test_build_A_from_ricci_positive_square():
    # direct matrix-squaring oracle for rho_check = Id, mu = 1
    a, mu = build_A_from_ricci(np.eye(4), 1.0, 2)
    square = a @ a
    assert np.max(np.abs(square - np.eye(6) / 36.0)) <= 1e-15
    assert abs(mu - 1.0 / 36.0) <= 1e-15


def test_build_A_from_ricci_negative_square():
    rho = core.standard_symplectic_form(2)  # J with J^2 = -Id, J in sp
    a, _ = build_A_from_ricci(rho, -1.0, 2)
    square = a @ a
    assert np.max(np.abs(square + np.eye(6) / 36.0)) <= 1e-15


def test_build_A_from_ricci_sp_membership_for_sp_input():
    # rho in sp(4) with rho^2 = Id: paired swap blocks
    rho = np.zeros((4, 4))
    rho[0, 2] = rho[2, 0] = 1.0
    rho[1, 3] = rho[3, 1] = 1.0
    omega4 = core.standard_symplectic_form(2)
    assert core.sp_residual(omega4, rho) == 0
    a, _ = build_A_from_ricci(rho, 1.0, 2)
    assert core.sp_residual(ricci_ambient_form(2), a) <= 1e-15


def test_build_A_from_ricci_rejects_bad_square():
    with pytest.raises(ValueError):
        build_A_from_ricci(np.eye(4), -1.0, 2)
    with pytest.raises(ValueError):
        build_A_from_ricci(np.eye(6), 1.0, 2)


@pytest.mark.parametrize("case,n,p,q", [
    ("hyperbolic", 2, None, None),
    ("elliptic", 2, 1, None),
    ("nilpotent", 2, 2, 1),
])
def test_exp_identity_at_zero(case, n, p, q):
    model = core.build_model(case, n, p=p, q=q)
    assert np.array_equal(model.flow(0.0), np.eye(model.ambient_dim))


def test_exp_nilpotent_closed_form():
    model = core.build_model("nilpotent", 2, p=2, q=1)
    assert np.array_equal(model.flow(3.0), np.eye(6) + 3.0 * model.A)


@pytest.mark.parametrize("case,n,p,t", [
    ("hyperbolic", 2, None, 0.7),
    ("elliptic", 2, 1, 0.7),
    ("hyperbolic", 3, None, -2.3),
    ("elliptic", 3, 2, 3.0),
])
def test_exp_matches_series_oracle(case, n, p, t):
    model = core.build_model(case, n, p=p)
    assert np.max(np.abs(model.flow(t) - series_exp(model.A, t))) <= 1e-12


@pytest.mark.parametrize("case,n,p", [("hyperbolic", 2, None), ("elliptic", 3, 2),
                                    ("hyperbolic", 16, None), ("elliptic", 16, 1)])
def test_series_exp_stack_matches_single_times(case, n, p):
    # verify-geometry's flow.series_oracle reads both stacks in one call each
    model = core.build_model(case, n, p=p)
    ts = np.linspace(-3.0, 3.0, 7)
    stack = core.series_exp(model.A, ts)
    flows = model.flow(ts)
    assert stack.shape == flows.shape == (7, model.ambient_dim, model.ambient_dim)
    for t, mat, flow in zip(ts, stack, flows):
        assert np.array_equal(mat, core.series_exp(model.A, t))
        assert np.array_equal(mat, series_exp(model.A, t))
        assert np.array_equal(flow, model.flow(t))


@pytest.mark.parametrize("case,n,p,q", [
    ("hyperbolic", 2, None, None),
    ("elliptic", 3, 2, None),
    ("nilpotent", 3, 3, 2),
])
def test_exp_flow_properties(case, n, p, q):
    model = core.build_model(case, n, p=p, q=q)
    rng = np.random.default_rng(0)
    for _ in range(5):
        s, t = rng.uniform(-5, 5, size=2)
        lhs = model.flow(s) @ model.flow(t)
        assert np.max(np.abs(lhs - model.flow(s + t))) <= 1e-10
    m = model.flow(1.3)
    assert np.max(np.abs(m.T @ model.omega @ m - model.omega)) <= 1e-12
    for pt in core.sample_sigma(model, 5, seed=1):
        moved = model.flow(2.1) @ pt
        assert abs(core.sigma_value(model, moved) - core.sigma_value(model, pt)) <= 1e-10


def test_sigma_value_base_points_and_scaling():
    model = core.build_model("nilpotent", 2, p=2, q=1)
    e1_star = np.zeros(6)
    e1_star[4] = 1.0
    assert core.sigma_value(model, e1_star) == 1.0

    model_e = core.build_model("elliptic", 2, k=1.0, p=1)
    e1 = np.zeros(6)
    e1[0] = 1.0
    assert core.sigma_value(model_e, e1) == 1.0

    rng = np.random.default_rng(3)
    x = rng.standard_normal(6)
    lam = 1.7
    assert np.isclose(core.sigma_value(model_e, lam * x),
                      lam ** 2 * core.sigma_value(model_e, x))


def test_sigma_value_dimension_mismatch():
    model = core.build_model("elliptic", 2, p=1)
    with pytest.raises(ValueError):
        core.sigma_value(model, np.zeros(4))


@pytest.mark.parametrize("case,n,p,q", [
    ("hyperbolic", 2, None, None),
    ("hyperbolic", 4, None, None),
    ("elliptic", 2, 1, None),
    ("elliptic", 3, 4, None),
    ("nilpotent", 2, 2, 1),
    ("nilpotent", 3, 4, 4),
    ("nilpotent", 4, 5, 3),
    ("nilpotent", 3, 3, 1),
])
def test_sample_sigma_constraint_and_determinism(case, n, p, q):
    model = core.build_model(case, n, p=p, q=q)
    pts = core.sample_sigma(model, 25, seed=7)
    for pt in pts:
        assert abs(core.sigma_value(model, pt) - 1.0) <= 1e-12
    again = core.sample_sigma(model, 25, seed=7)
    for a, b in zip(pts, again):
        assert np.array_equal(a, b)


def test_sample_sigma_hyperbolic_pairing():
    k = 0.8
    model = core.build_model("hyperbolic", 2, k=k)
    for pt in core.sample_sigma(model, 10, seed=1):
        xp, xm = pt[:3], pt[3:]
        assert abs(xp @ xm + 1.0 / (2.0 * k)) <= 1e-12


def test_sample_sigma_nilpotent_component():
    model = core.build_model("nilpotent", 2, p=2, q=1)
    for pt in core.sample_sigma(model, 20, seed=0):
        xs = pt[4:]
        assert xs[0] > 0
        assert abs(xs[0] ** 2 - xs[1] ** 2 - 1.0) <= 1e-12


def test_sample_sigma_rejects_bad_count():
    model = core.build_model("hyperbolic", 2)
    with pytest.raises(ValueError):
        core.sample_sigma(model, 0, seed=0)


@pytest.mark.parametrize("case,n,p,q", core.admissible_parameters((2, 3, 4)))
def test_sample_sigma_matches_pointwise_reference(case, n, p, q):
    # each block row is the point the per-point sampler draws, up to its first redraw
    model = core.build_model(case, n, p=p or None, q=q or None)
    for seed in range(8):
        got = core.sample_sigma(model, 50, seed)
        want, first_redraw = sample_sigma_pointwise(model, 50, seed)
        assert isinstance(got, np.ndarray) and got.shape == (50, model.ambient_dim)
        if first_redraw is None:
            assert np.array_equal(got, want)
        else:
            assert np.array_equal(got[:first_redraw], want[:first_redraw])


def test_sample_sigma_redraws_degenerate_rows():
    # hyperbolic n = 2, seed 5: row 47 has max|x+| < 0.1 and is redrawn after the block
    model = core.build_model("hyperbolic", 2)
    xs = core.sample_sigma(model, 50, seed=5)
    want, first_redraw = sample_sigma_pointwise(model, 50, seed=5)
    assert first_redraw == 47
    assert np.all(np.max(np.abs(xs[:, :3]), axis=1) >= 0.1)
    assert np.max(np.abs(core.sigma_value(model, xs) - 1.0)) <= 1e-12
    assert np.array_equal(xs[:47], want[:47])


def test_sample_sigma_retry_budget(monkeypatch):
    monkeypatch.setattr(core, "MAX_SAMPLE_RETRIES", 0)
    model = core.build_model("hyperbolic", 2)
    assert core.sample_sigma(model, 50, seed=0).shape == (50, 6)
    with pytest.raises(RuntimeError, match="exhausted the retry budget"):
        core.sample_sigma(model, 50, seed=5)
