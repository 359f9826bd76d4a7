"""Quaternion double cover, the equivariant pairing and the orbit-rank bound."""

import numpy as np
import pytest

from riccitype.transitive import quaternion as quat


def unit_quaternions(count, seed):
    rng = np.random.default_rng(seed)
    out = []
    for _ in range(count):
        q = rng.standard_normal(4)
        out.append(q / np.linalg.norm(q))
    return out


def test_identity_quaternion():
    q = np.array([1.0, 0, 0, 0])
    assert np.array_equal(quat.q_left_matrix(q), np.eye(4))
    assert np.array_equal(quat.q_right_matrix(q), np.eye(4))
    assert np.array_equal(quat.rotation_matrix(q), np.eye(3))


def test_left_right_orthogonal_and_rotation():
    for q in unit_quaternions(50, seed=1):
        ql, qr = quat.q_left_matrix(q), quat.q_right_matrix(q)
        assert np.max(np.abs(ql.T @ ql - np.eye(4))) <= 1e-12
        assert np.max(np.abs(qr.T @ qr - np.eye(4))) <= 1e-12
        rot = quat.rotation_matrix(q)
        assert np.max(np.abs(rot.T @ rot - np.eye(3))) <= 1e-12
        assert abs(np.linalg.det(rot) - 1.0) <= 1e-12
        # conjugation = left then right action, block diag(1, R)
        conj = ql @ qr
        assert np.max(np.abs(conj[0] - np.eye(4)[0])) <= 1e-12
        assert np.max(np.abs(conj[1:, 1:] - rot)) <= 1e-12


def test_left_matrix_is_quaternion_product():
    rng = np.random.default_rng(3)
    q = rng.standard_normal(4)
    x = rng.standard_normal(4)

    def qmul(a, b):
        a0, av = a[0], a[1:]
        b0, bv = b[0], b[1:]
        return np.concatenate([[a0 * b0 - av @ bv], a0 * bv + b0 * av + np.cross(av, bv)])

    assert np.max(np.abs(quat.q_left_matrix(q) @ x - qmul(q, x))) <= 1e-12


def test_eta_symmetric_traceless():
    rng = np.random.default_rng(5)
    for _ in range(20):
        x, y = rng.standard_normal((2, 3))
        e = quat.eta(x, y)
        assert np.max(np.abs(e - e.T)) <= 1e-12
        assert abs(np.trace(e)) <= 1e-12


def test_eta_unit_vector_value():
    e1 = np.eye(3)[0]
    assert np.allclose(quat.eta(e1, e1), np.diag([1.0, 1.0, -1.0, -1.0]))


def test_eta_diagonal_form():
    rng = np.random.default_rng(7)
    w = rng.standard_normal(3)
    t = 0.8
    e = quat.eta(t * w, w)
    expected = np.zeros((4, 4))
    expected[0, 0] = t * (w @ w)
    expected[1:, 1:] = 2 * t * np.outer(w, w) - t * (w @ w) * np.eye(3)
    assert np.max(np.abs(e - expected)) <= 1e-12


def test_equivariance_100_triples():
    rng = np.random.default_rng(11)
    worst = 0.0
    for _ in range(100):
        q = rng.standard_normal(4)
        q /= np.linalg.norm(q)
        x, y = rng.standard_normal((2, 3))
        left, right = quat.equivariance_residuals(q, x, y)
        worst = max(worst, left, right)
    assert worst <= 1e-10


def test_stacked_draws_match_single_draws():
    # one call over a stack of draws gives every draw's matrices and residuals
    z = np.random.default_rng(13).standard_normal((40, 10))
    qs = z[:, :4] / np.linalg.norm(z[:, :4], axis=1, keepdims=True)
    x, y = z[:, 4:7], z[:, 7:]
    left, right = quat.equivariance_residuals(qs, x, y)
    assert left.shape == right.shape == (40,)
    stacks = [quat.q_left_matrix(qs), quat.q_right_matrix(qs), quat.rotation_matrix(qs),
              quat.cross_matrix(x), quat.eta(x, y)]
    for i in range(40):
        assert np.array_equal([left[i], right[i]],
                              quat.equivariance_residuals(qs[i], x[i], y[i]))
        singles = [quat.q_left_matrix(qs[i]), quat.q_right_matrix(qs[i]),
                   quat.rotation_matrix(qs[i]), quat.cross_matrix(x[i]), quat.eta(x[i], y[i])]
        for stack, single in zip(stacks, singles):
            assert np.array_equal(stack[i], single)


@pytest.mark.parametrize("w", [np.array([1.0, 0, 0]), np.array([0.3, -1.2, 0.5])])
def test_orbit_rank_bound(w):
    rep = quat.orbit_rank_ts3_evidence(w)
    assert rep["rank"] <= 5
    assert rep["su2_rank"] == 3
    assert rep["stabilizer_field_norm"] <= 1e-9


def test_orbit_rank_rejects_zero():
    with pytest.raises(ValueError):
        quat.orbit_rank_ts3_evidence(np.zeros(3))
    with pytest.raises(ValueError):
        quat.orbit_rank_ts3_evidence(np.array([1.0, 2.0]))
