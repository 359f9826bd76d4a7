"""Finite-difference, group-action and closed-form oracles for the exact routes of the package.

The package computes chart differentials, fundamental vector fields,
Hamiltonian gradients and the reduced symmetry's differential through one
exact chart differential.  The functions here recompute them independently,
from central differences of the projection, of the chart action of
exp(+-hX) and of the reduced symmetry, and of the moment map, and
from the hand-derived Darboux-chart formulas, so that tests can compare the
routes.  The reduced form on horizontal lifts is evaluated here directly,
with its horizontality guard, and subspace coordinates by a least-squares
solve in the basis.  The canonical connection is a central difference of a
horizontal field along the line retracted to Sigma_A (``connection_nabla``),
on horizontal projections of constant vectors and on the lifted local
coordinate fields; no command needs it.  ``sample_sigma_pointwise`` is the
per-point Sigma_A sampler that the block sampler replaced: it draws each
point's free coordinates in turn and redraws a degenerate block in place.
``closure_conditions_pairwise`` evaluates the p = 2 closure identities one
pair of unit generator tuples at a time, the loop that the pair arrays of
``nilpotent.closure_conditions`` replaced.
"""

import numpy as np
from scipy.linalg import expm

from riccitype import geometry
from riccitype.core import MAX_SAMPLE_RETRIES, as_matrix, sigma_value
from riccitype.transitive import nilpotent as nil


def coordinates_oracle(sub, mats):
    """Least-squares coefficients of matrices in the basis of a subspace, one column each."""
    flat = np.reshape(mats, (len(mats), -1)).T
    return np.linalg.lstsq(sub.basis.reshape(sub.dim, -1).T, flat, rcond=None)[0]


def pushforward(model, a, x, v, fd_step=1e-5):
    """Finite-difference differential of the projection applied to an ambient tangent."""
    xv = np.asarray(x, dtype=float)
    plus = geometry.project(model, a, retract_to_sigma(model, a, xv + fd_step * v))
    minus = geometry.project(model, a, retract_to_sigma(model, a, xv - fd_step * v))
    return (plus - minus) / (2.0 * fd_step)


def horizontal_projection(model, a, x, v):
    """Component of v in H_x along span{x, Ax}."""
    xv = np.asarray(x, dtype=float)
    ax = as_matrix(a) @ xv
    sigma = model.pairing(xv, ax)
    alpha = model.pairing(v, ax) / sigma
    beta = -model.pairing(v, xv) / sigma
    return v - alpha * xv - beta * ax


def retract_to_sigma(model, a, z):
    """Rescale a nearby ambient point back onto Sigma_A."""
    val = sigma_value(model, a, z)
    if val <= 0:
        raise ValueError("cannot retract: Omega(z, Az) <= 0")
    return np.asarray(z, dtype=float) / np.sqrt(val)


def connection_nabla(model, a, x, xbar, yfield, fd_step=1e-5):
    """Covariant derivative of a horizontal field in a horizontal direction.

    Evaluates D0_{Xbar} Ybar - Omega(A Xbar, Ybar) x + Omega(Xbar, Ybar) Ax,
    where the flat term D0 is a central finite difference of the field along
    the retracted line through x.
    """
    if fd_step <= 0:
        raise ValueError("fd_step must be positive")
    xv = np.asarray(x, dtype=float)
    amat = as_matrix(a)
    xbar = np.asarray(xbar, dtype=float)
    y_here = np.asarray(yfield(xv), dtype=float)
    y_plus = np.asarray(yfield(retract_to_sigma(model, a, xv + fd_step * xbar)), dtype=float)
    y_minus = np.asarray(yfield(retract_to_sigma(model, a, xv - fd_step * xbar)), dtype=float)
    flat = (y_plus - y_minus) / (2.0 * fd_step)
    return (flat
            - model.pairing(amat @ xbar, y_here) * xv
            + model.pairing(xbar, y_here) * (amat @ xv))


def coordinate_field(model, a, local, index):
    """Horizontal lift of the index-th local coordinate field of a ``geometry.LocalChart``,
    as a field on Sigma_A."""

    def field(z):
        cp = geometry.project(model, a, z)
        return geometry.lift_tangent(model, a, z, local.coordinate_tangents(cp)[:, index])

    return field


def symmetry_chart_differential(model, a, s, x, directions, step=1e-5):
    """Central differences of the reduced symmetry ``s`` in the chart, along ambient
    tangents at x (one per column): each side is retracted to Sigma_A and
    projected, so no local chart is involved."""
    cols = []
    for v in np.asarray(directions, dtype=float).T:
        plus, minus = (geometry.project(model, a, s @ geometry.chart_section(
            model, a, geometry.project(model, a, retract_to_sigma(model, a, x + h * v))))
            for h in (step, -step))
        cols.append((plus - minus) / (2.0 * step))
    return np.stack(cols, axis=1)


def act_chart(model, a, g, cp, tol=1e-8):
    """Induced action of a centralizing symplectic map on chart coordinates."""
    amat = as_matrix(a)
    sp_res = float(np.max(np.abs(g.T @ model.omega @ g - model.omega)))
    comm_res = float(np.max(np.abs(g @ amat - amat @ g)))
    if sp_res > tol or comm_res > tol:
        raise ValueError(
            f"g is not in the centralizer of A in Sp (residuals {sp_res:.2e}, {comm_res:.2e})")
    return geometry.project(model, a, g @ geometry.chart_section(model, a, cp))


def act_tangent_sphere(b, u, w, k):
    """Closed-form GL(n+1) action on the tangent-sphere chart.

    B.(u, w) = (Bu/|Bu|, |Bu| B^{-T}(w - u/2k) + Bu/(2k |Bu|))
    """
    bu = b @ u
    r = float(np.sqrt(bu @ bu))
    u2 = bu / r
    w2 = r * np.linalg.solve(b.T, w - u / (2.0 * k)) + u2 / (2.0 * k)
    return u2, w2


def gl_to_sp_hyperbolic(model, b):
    """Embed B in GL(n+1) as diag(B, B^{-T}) in Sp, centralizing A."""
    m = model.n + 1
    g = np.zeros((2 * m, 2 * m))
    g[:m, :m] = b
    g[m:, m:] = np.linalg.inv(b).T
    return g


def differenced_field(model, a, x_mat, cp, step):
    """Fundamental field of X as the central difference of the chart action of exp(-sX)."""
    plus = act_chart(model, a, expm(-step * x_mat), cp)
    minus = act_chart(model, a, expm(step * x_mat), cp)
    return (plus - minus) / (2.0 * step)


def tangent_sphere_field(x_mat, u, w, k, step):
    """Fundamental field of X in gl(n+1) from the closed-form tangent-sphere action."""
    up, wp = act_tangent_sphere(expm(-step * x_mat), u, w, k)
    um, wm = act_tangent_sphere(expm(step * x_mat), u, w, k)
    return np.concatenate([up - um, wp - wm]) / (2.0 * step)


def moment_map_gradient(B, c, generator, coords, omega0, step):
    """Central-difference gradient of ``moment_map_f`` in the Darboux chart."""
    grad = np.zeros(coords.shape[0])
    for i in range(coords.shape[0]):
        e = np.zeros(coords.shape[0])
        e[i] = step
        grad[i] = (nil.moment_map_f(B, c, generator, coords + e, omega0)
                   - nil.moment_map_f(B, c, generator, coords - e, omega0)) / (2.0 * step)
    return grad


def fundamental_field_p2q1(B, c, generator, coords, omega0):
    """Closed-form fundamental vector field on the (y0, Y, gamma) chart.

    For the generator with parameters (p, P, p') of a normalized family:

        -p d_gamma
        -(cosh(g) P + sinh(g) BP) d_Y
        -(Omega0(P,Y) sinh(g) + Omega0(BP,Y) cosh(g) + p' (sinh(g)+c cosh(g))^2) d_y0
    """
    p, P, pp = generator
    P = np.asarray(P, dtype=float)
    coords = np.asarray(coords, dtype=float)
    y = coords[1:-1]
    gamma = coords[-1]
    ch, sh = np.cosh(gamma), np.sinh(gamma)
    bp = B @ P
    out = np.zeros_like(coords)
    out[-1] = -p
    out[1:-1] = -(ch * P + sh * bp)
    out[0] = -(float(P @ omega0 @ y) * sh + float(bp @ omega0 @ y) * ch
               + pp * (sh + c * ch) ** 2)
    return out


def closed_form_fields(B, c, omega0):
    """The closed-form fields of the unit tuples (1, 0, 0), (0, e_a, 0), (0, 0, 1),
    as a callable from Darboux chart coordinates to a matrix with one field per column."""
    tuples = generator_tuples(B.shape[0])

    def fields(cp):
        return np.stack([fundamental_field_p2q1(B, c, g, cp, omega0) for g in tuples], axis=1)
    return fields


def generator_tuples(d):
    """The unit tuples (1, 0, 0), (0, e_a, 0), (0, 0, 1) as (p, P, p') triples."""
    tuples = [(1.0, np.zeros(d), 0.0)]
    tuples += [(0.0, np.eye(d)[a], 0.0) for a in range(d)]
    tuples += [(0.0, np.zeros(d), 1.0)]
    return tuples


def closure_conditions_pairwise(cand, omega0, tol=1e-10):
    """Both closure identities of a candidate, one generator pair and one Omega0 product
    at a time, over all pairs of ``generator_tuples``."""
    d = cand.block_dim
    eps = float(cand.epsilon)
    B, at, bt, ct, c = cand.B, cand.a_tilde, cand.b_tilde, cand.c_tilde, cand.c

    def pair(u, w):
        return float(u @ omega0 @ w)

    res1, res2 = [], []
    tuples = generator_tuples(d)
    for (p, P, pp) in tuples:
        vP = p * at + B @ P + pp * ct
        for (q, Q, qp) in tuples:
            vQ = q * at + B @ Q + qp * ct
            r_vec = q * (B @ P) - p * (B @ Q) + (q * pp - p * qp) * ct
            s_vec = eps * (-q * P + p * Q)
            r_prime = (-2.0 * p * pair(bt, Q) + 2.0 * q * pair(bt, P)
                       - 2.0 * c * (p * qp - pp * q)
                       - eps * pair(vP, Q) + eps * pair(vQ, P))
            r1 = 2.0 * eps * (p * qp - pp * q) + 2.0 * pair(P, Q)
            r2 = 2.0 * eps * (p * qp - pp * q) - 2.0 * eps * pair(vP, vQ)
            res1.append(np.max(np.abs(s_vec - (B @ r_vec + r_prime * ct)), initial=0.0))
            res2.append(abs(0.5 * (r1 + r2) - (pair(bt, r_vec) + c * r_prime)))
    ident = np.eye(d)
    flags = {
        "c_tilde_zero": float(np.max(np.abs(ct), initial=0.0)) <= tol,
        "b_square": float(np.max(np.abs(B @ B + eps * ident))) <= tol,
        "eps_minus_one": cand.epsilon == -1,
        "c_square_one": abs(c * c - 1.0) <= tol,
        "b_tilde_relation": float(np.max(np.abs(
            bt @ omega0 - (at @ omega0) @ (ident - c * B)))) <= tol,
        "isotropic_image": float(np.max(np.abs(
            (B - c * ident).T @ omega0 @ (B - c * ident)))) <= tol,
    }
    return nil.ClosureReport(float(np.max(res1)), float(np.max(res2)), flags)


def horizontality_residual(model, a, x, v):
    """max |Omega(v, x)|, |Omega(v, Ax)|: zero exactly when v lies in H_x."""
    xv = np.asarray(x, dtype=float)
    ax = as_matrix(a) @ xv
    return max(abs(model.pairing(v, xv)), abs(model.pairing(v, ax)))


def reduced_omega(model, a, x, xbar, ybar, tol=1e-7):
    """Reduced symplectic form omega(X, Y) = Omega(Xbar, Ybar) on horizontal lifts."""
    for v in (xbar, ybar):
        scale = max(1.0, float(np.linalg.norm(v)))
        if horizontality_residual(model, a, x, v) > tol * scale:
            raise ValueError("input vector is not horizontal at x")
    return model.pairing(np.asarray(xbar, float), np.asarray(ybar, float))


def curvature_tensor(gram, paired):
    """R(v_i, v_j, v_k, v_l) = Omega(R(v_i, v_j) v_k, v_l) on a frame, materialized.

    ``gram`` and ``paired`` are G_ij = Omega(v_i, v_j) and W_ij = Omega(A v_i, v_j).
    """
    return (-2.0 * np.einsum("ij,kl->ijkl", gram, paired)
            - np.einsum("ik,jl->ijkl", gram, paired)
            + np.einsum("jk,il->ijkl", gram, paired)
            + np.einsum("ik,jl->ijkl", paired, gram)
            - np.einsum("jk,il->ijkl", paired, gram))


def ricci_type_defect(gram, paired, n):
    """sup |R - E(r)| and r by the einsum route: R and E(r) as two (2n)^4 tensors,
    r the trace of the materialized R."""
    r4 = curvature_tensor(gram, paired)
    # coefficient of v_m in R(v_i, v_m) v_j, traced over m
    ric = -np.einsum("ma,imja->ij", np.linalg.inv(gram), r4)
    factor = -1.0 / (2.0 * (n + 1))
    e4 = factor * (2.0 * np.einsum("ij,kl->ijkl", gram, ric)
                   + np.einsum("ik,jl->ijkl", gram, ric)
                   + np.einsum("il,jk->ijkl", gram, ric)
                   - np.einsum("jk,il->ijkl", gram, ric)
                   - np.einsum("jl,ik->ijkl", gram, ric))
    return float(np.max(np.abs(r4 - e4))), ric


def _redraw(rng, size, accept, redraws):
    for _ in range(MAX_SAMPLE_RETRIES):
        v = rng.standard_normal(size)
        if accept(v):
            return v
        redraws.append(None)
    raise RuntimeError("sampling failed: degenerate draws exhausted the retry budget")


def sample_sigma_pointwise(model, a, count, seed):
    """Per-point reference for ``core.sample_sigma``.

    Returns the (count, N) stack and the index of the first point whose
    degenerate free block was redrawn in place (None if no draw was redrawn);
    from that point on the stream differs from the block sampler's.
    """
    rng = np.random.default_rng(seed)
    m, p, q, k = model.n + 1, model.p, model.q, model.k
    points, first_redraw, redraws = [], None, []
    for i in range(count):
        if model.case == "hyperbolic":
            xp = _redraw(rng, m, lambda v: np.max(np.abs(v)) >= 0.1, redraws)
            xm = rng.standard_normal(m)
            j = int(np.argmax(np.abs(xp)))
            rest = xp @ xm - xp[j] * xm[j]
            xm[j] = (-1.0 / (2.0 * k) - rest) / xp[j]
            v = np.concatenate([xp, xm])
        elif model.case == "elliptic":
            x, y = rng.standard_normal(m), rng.standard_normal(m)
            pos = _redraw(rng, 2 * p, lambda v: v @ v >= 1e-8, redraws)
            neg_sq = float(x[p:] @ x[p:] + y[p:] @ y[p:])
            pos = np.sqrt((1.0 / k + neg_sq) / (pos @ pos)) * pos
            x[:p], y[:p] = pos[:p], pos[p:]
            v = np.concatenate([x, y])
        else:
            mid = m - p
            x, capx, xs = rng.standard_normal(p), rng.standard_normal(2 * mid), rng.standard_normal(p)
            pos = _redraw(rng, q, lambda v: v @ v >= 1e-8, redraws)
            neg_sq = float(xs[q:] @ xs[q:])
            pos = np.sqrt((1.0 + neg_sq) / (pos @ pos)) * pos
            if q == 1:
                pos[0] = abs(pos[0])
            xs[:q] = pos
            v = np.concatenate([x, capx, xs])
        if redraws and first_redraw is None:
            first_redraw = i
        val = model.pairing(v, as_matrix(a) @ v)
        if abs(val - 1.0) > 1e-12:
            raise RuntimeError(f"sampled point misses Sigma_A by {abs(val - 1.0):.3e}")
        points.append(v)
    return np.array(points), first_redraw
