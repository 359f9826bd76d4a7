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
coordinate fields (``coordinate_tangents``: unit vectors in the intrinsic
charts, a solve on the chart differential in the graph charts); no command
needs it.  ``curvature_tensor`` materializes the closed-form curvature
R(X, Y)Z = -2 Omega(X, Y) AZ - ... on a frame; the package keeps only the
transvection algebra's curvature, and the tests compare the two.
``algebra_curvature_terms`` gives the two terms of that curvature,
-[X_i, X_j] v_k and X_k [X_i, X_j] x, as einsums over the generators, the
route that the one product of pair columns replaced; ``ricci_type_defect_rows``
is the row loop of R - E(r) and the cyclic sum that the inner-dimension-2
products replaced.  ``algebra_curvature_dense`` and ``ricci_type_defect_dense``
are that whole-array kernel, the (2n)^4 product of every pair column and the
row loop of inner-dimension-2 products, which ``geometry``'s support route
replaced: the bit-for-bit oracle at the base point.  ``dense_form`` and
``support_form`` convert a curvature between the (2n)^4 array and the support
form (sorted flat indices and values) that ``geometry.algebra_curvature``
returns, so that fault tensors built here can stand in for it.
``sample_sigma_pointwise`` is the per-point Sigma_A sampler that
the block sampler replaced: it draws each point's free coordinates in turn
and redraws a degenerate block in place.
``closure_conditions_pairwise`` evaluates the p = 2 closure identities one
pair of unit generator tuples at a time, the loop that the pair arrays of
``nilpotent.closure_conditions`` replaced, and flags the six conditions they
force.  ``normalize_candidate`` conjugates a p = 2 family to its normalized
family (B, c); no command needs the conjugators, since the result is
``nilpotent.make_candidate(B, c=c)`` for every family ``build_h`` completes.  ``moment_map_f`` is the
closed-form Hamiltonian of a normalized p = 2 family in the Darboux chart,
which ``moment_map_gradient`` differences; no command needs it.
``heisenberg_candidate`` builds h_{c Id, c} and its structure constants modulo
R*A as ``find-transitive`` certifies its ``scalar_c_plus`` candidate, the input
``nilpotent.heisenberg_extension_check`` reads.
``centralizer_oracle`` solves the centralizer of A in sp(Omega) from the
(2N^2, N^2) stack of the sp and commutation rows on vec(X), and
``structure_constants_oracle`` projects the full (d, d, N^2) bracket tensor
over all pairs (i, j): the two routes that ``lie.centralizer_in_sp`` (on
symmetric S = Omega X) and ``lie.structure_constants`` (pairs i < j only)
replaced.  ``row_span_full_v`` is ``lie._row_span`` on the full V of a wide
stack, the SVD that the economy one replaced.  ``center_oracle``,
``series_oracle`` and ``closure_residual_oracle`` read the center, the derived
or lower central series and the closure of a subspace from one matrix bracket
per pair, with no structure constants.
``build_A_from_ricci`` realizes a prescribed Ricci endomorphism
as a characteristic element on ``ricci_ambient_form`` (Cahen, Gutt &
Rawnsley 2000); no command needs it.  ``bracket`` (the commutator),
``pairing`` (Omega(x, y) of a model) and ``series_certificate`` (a subspace's
structure certificate, as ``find-transitive`` takes it) are primitives that
only the tests call.
"""

from dataclasses import replace

import numpy as np
from scipy.linalg import expm, null_space

from riccitype import geometry, lie
from riccitype.core import DEFAULT_TOL, MAX_SAMPLE_RETRIES, sigma_value, standard_symplectic_form
from riccitype.transitive import nilpotent as nil


def bracket(x, y):
    """Commutator XY - YX."""
    if x.shape != y.shape:
        raise ValueError(f"shape mismatch {x.shape} vs {y.shape}")
    return x @ y - y @ x


def pairing(model, x, y):
    """Omega(x, y), as 1/2 (x Omega y - y Omega x): exactly antisymmetric in rounding."""
    return 0.5 * float(x @ model.omega @ y - y @ model.omega @ x)


def series_certificate(s, modulo=None):
    """The structure certificate of a subspace (modulo extra orthonormal rows), from its
    structure constants over every pair, as the commands take it."""
    return lie.constants_certificate(*lie.structure_constants(s, modulo))


def coordinates_oracle(sub, mats):
    """Least-squares coefficients of matrices in the basis of a subspace, one column each."""
    flat = np.reshape(mats, (len(mats), -1)).T
    return np.linalg.lstsq(sub.basis.reshape(sub.dim, -1).T, flat, rcond=None)[0]


def pushforward(model, x, v, fd_step=1e-5):
    """Finite-difference differential of the projection applied to an ambient tangent."""
    xv = np.asarray(x, dtype=float)
    plus = geometry.project(model, retract_to_sigma(model, xv + fd_step * v))
    minus = geometry.project(model, retract_to_sigma(model, xv - fd_step * v))
    return (plus - minus) / (2.0 * fd_step)


def horizontal_projection(model, x, v):
    """Component of v in H_x along span{x, Ax}."""
    xv = np.asarray(x, dtype=float)
    ax = model.A @ xv
    sigma = pairing(model, xv, ax)
    alpha = pairing(model, v, ax) / sigma
    beta = -pairing(model, v, xv) / sigma
    return v - alpha * xv - beta * ax


def retract_to_sigma(model, z):
    """Rescale a nearby ambient point back onto Sigma_A."""
    val = sigma_value(model, z)
    if val <= 0:
        raise ValueError("cannot retract: Omega(z, Az) <= 0")
    return np.asarray(z, dtype=float) / np.sqrt(val)


def connection_nabla(model, x, xbar, yfield, fd_step=1e-5):
    """Covariant derivative of a horizontal field in a horizontal direction.

    Evaluates D0_{Xbar} Ybar - Omega(A Xbar, Ybar) x + Omega(Xbar, Ybar) Ax,
    where the flat term D0 is a central finite difference of the field along
    the retracted line through x.
    """
    if fd_step <= 0:
        raise ValueError("fd_step must be positive")
    xv = np.asarray(x, dtype=float)
    amat = model.A
    xbar = np.asarray(xbar, dtype=float)
    y_here = np.asarray(yfield(xv), dtype=float)
    y_plus = np.asarray(yfield(retract_to_sigma(model, xv + fd_step * xbar)), dtype=float)
    y_minus = np.asarray(yfield(retract_to_sigma(model, xv - fd_step * xbar)), dtype=float)
    flat = (y_plus - y_minus) / (2.0 * fd_step)
    return (flat
            - pairing(model, amat @ xbar, y_here) * xv
            + pairing(model, xbar, y_here) * (amat @ xv))


def coordinate_tangents(model, center, x):
    """Chart tangents at project(x) of the local coordinate fields of the chart centred at
    the chart point ``center``, one per column.

    Ball and Darboux coordinates are global, with the unit vectors as tangents.  A
    graph chart (tangent sphere, quadric) keeps the free coordinates, all but the
    pivot pair picked at the centre; with D = d pi_x(horizontal frame), its
    coordinate frame is T = D D[free]^-1, whose free rows are the unit vectors.
    """
    kind = geometry.chart_kind(model)
    if kind in ("ball", "darboux"):
        return np.eye(2 * model.n)
    m = model.n + 1
    if kind == "tangent_sphere":  # (u, w): the pivot pair is (u_i, w_i)
        pivot = int(np.argmax(np.abs(center[:m])))
        pair = [pivot, m + pivot]
    else:  # (x, X, x*): the pivot pair is (x_i, x*_i)
        pivot = int(np.argmax(np.abs(model.eps * center[-model.p:])))
        pair = [pivot, 2 * m - model.p + pivot]
    free = np.delete(np.arange(2 * m), pair)
    frame = geometry.horizontal_basis(model, x).vectors
    diff = geometry.differential_project(model, x, frame)
    return diff @ np.linalg.inv(diff[free])


def coordinate_field(model, center, index):
    """Horizontal lift of the index-th local coordinate field of the chart centred at
    ``center`` (``coordinate_tangents``), as a field on Sigma_A."""

    def field(z):
        tangent = coordinate_tangents(model, center, z)[:, index]
        return geometry.lift_tangent(model, z, tangent)

    return field


def symmetry_chart_differential(model, s, x, directions, step=1e-5):
    """Central differences of the reduced symmetry ``s`` in the chart, along ambient
    tangents at x (one per column): each side is retracted to Sigma_A and
    projected, so no local chart is involved."""
    cols = []
    for v in np.asarray(directions, dtype=float).T:
        plus, minus = (geometry.project(model, s @ geometry.chart_section(
            model, geometry.project(model, retract_to_sigma(model, x + h * v))))
            for h in (step, -step))
        cols.append((plus - minus) / (2.0 * step))
    return np.stack(cols, axis=1)


def act_chart(model, g, cp, tol=1e-8):
    """Induced action of a centralizing symplectic map on chart coordinates."""
    amat = model.A
    sp_res = float(np.max(np.abs(g.T @ model.omega @ g - model.omega)))
    comm_res = float(np.max(np.abs(g @ amat - amat @ g)))
    if sp_res > tol or comm_res > tol:
        raise ValueError(
            f"g is not in the centralizer of A in Sp (residuals {sp_res:.2e}, {comm_res:.2e})")
    return geometry.project(model, g @ geometry.chart_section(model, cp))


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


def differenced_field(model, x_mat, cp, step):
    """Fundamental field of X as the central difference of the chart action of exp(-sX)."""
    plus = act_chart(model, expm(-step * x_mat), cp)
    minus = act_chart(model, expm(step * x_mat), cp)
    return (plus - minus) / (2.0 * step)


def tangent_sphere_field(x_mat, u, w, k, step):
    """Fundamental field of X in gl(n+1) from the closed-form tangent-sphere action."""
    up, wp = act_tangent_sphere(expm(-step * x_mat), u, w, k)
    um, wm = act_tangent_sphere(expm(step * x_mat), u, w, k)
    return np.concatenate([up - um, wp - wm]) / (2.0 * step)


def moment_map_f(B: np.ndarray, c: float, generator, coords, omega0: np.ndarray) -> float:
    """Hamiltonian of the fundamental field at a Darboux chart point (y0, Y, gamma):

    f = p y0 - (1/2c) p' e^{2 c gamma} - Omega0(P,Y) cosh(g) - Omega0(BP,Y) sinh(g).
    """
    p, P, pp = generator
    P = np.asarray(P, dtype=float)
    coords = np.asarray(coords, dtype=float)
    y0, y, gamma = coords[0], coords[1:-1], coords[-1]
    return float(p * y0 - pp * np.exp(2.0 * c * gamma) / (2.0 * c)
                 - (P @ omega0 @ y) * np.cosh(gamma)
                 - ((B @ P) @ omega0 @ y) * np.sinh(gamma))


def moment_map_gradient(B, c, generator, coords, omega0, step):
    """Central-difference gradient of ``moment_map_f`` in the Darboux chart."""
    grad = np.zeros(coords.shape[0])
    for i in range(coords.shape[0]):
        e = np.zeros(coords.shape[0])
        e[i] = step
        grad[i] = (moment_map_f(B, c, generator, coords + e, omega0)
                   - moment_map_f(B, c, generator, coords - e, omega0)) / (2.0 * step)
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
    at a time, over all pairs of ``generator_tuples``: (first residual, second residual,
    {condition: holds to tol})."""
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
    return float(np.max(res1)), float(np.max(res2)), flags


def normalize_candidate(model, cand):
    """Conjugate away a~ (unipotent move) and then a (shear move).

    Returns the normalized candidate together with the conjugating group
    elements, in the order they are applied.
    """
    omega0 = model.omega0
    d = cand.block_dim
    dim = model.ambient_dim
    conjugators = []
    out = cand
    if np.max(np.abs(out.a_tilde)) > 0:
        u = -out.a_tilde
        g = np.eye(dim)
        g[0, 2:2 + d] = -(u @ omega0)
        g[2:2 + d, d + 2] = u
        conjugators.append(g)
        new_a = out.a - out.c * float(u @ omega0 @ out.a_tilde)
        out = replace(out, a_tilde=np.zeros(d), a=new_a,
                      b_tilde=nil.b_tilde_from_relation(np.zeros(d), out.B, out.c, omega0))
    if abs(out.a) > 0:
        r = -out.a / (2.0 * out.c)
        g = np.eye(dim)
        g[0, d + 2] = r
        g[1, d + 3] = -r
        conjugators.append(g)
        out = replace(out, a=out.a + 2.0 * r * out.c)
    return out, conjugators


def heisenberg_candidate(model, c=1.0):
    """(subspace, complement generator K(1, 0, 0), structure constants modulo R*A) of
    h_{c Id, c} in a nilpotent p = 2, q = 1 model, built as ``find-transitive`` builds it."""
    sub, gens, _ = nil.build_h(model, c * np.eye(2 * (model.n - 1)), c=c)
    c_h, _ = lie.structure_constants(sub, lie.line(model.A))
    return sub, gens[0], c_h


def horizontality_residual(model, x, v):
    """max |Omega(v, x)|, |Omega(v, Ax)|: zero exactly when v lies in H_x."""
    xv = np.asarray(x, dtype=float)
    ax = model.A @ xv
    return max(abs(pairing(model, v, xv)), abs(pairing(model, v, ax)))


def reduced_omega(model, x, xbar, ybar, tol=1e-7):
    """Reduced symplectic form omega(X, Y) = Omega(Xbar, Ybar) on horizontal lifts."""
    for v in (xbar, ybar):
        scale = max(1.0, float(np.linalg.norm(v)))
        if horizontality_residual(model, x, v) > tol * scale:
            raise ValueError("input vector is not horizontal at x")
    return pairing(model, np.asarray(xbar, float), np.asarray(ybar, float))


def frame_pairing(model, frame):
    """W_ij = Omega(A v_i, v_j) on the columns of a frame."""
    v = frame.vectors
    return (model.A @ v).T @ model.omega @ v


def curvature_tensor(gram, paired):
    """R(v_i, v_j, v_k, v_l) = Omega(R(v_i, v_j) v_k, v_l) on a frame, materialized.

    ``gram`` and ``paired`` are G_ij = Omega(v_i, v_j) and W_ij = Omega(A v_i, v_j).
    """
    return (-2.0 * np.einsum("ij,kl->ijkl", gram, paired)
            - np.einsum("ik,jl->ijkl", gram, paired)
            + np.einsum("jk,il->ijkl", gram, paired)
            + np.einsum("ik,jl->ijkl", paired, gram)
            - np.einsum("jk,il->ijkl", paired, gram))


def algebra_curvature_terms(model, frame):
    """The two terms of -[[X_i, X_j], X_k] x = -[X_i, X_j] v_k + X_k [X_i, X_j] x,
    each paired with every v_l, as (2n)^4 arrays."""
    gens = geometry.transvection_generators(model, frame)
    brackets = np.einsum("iab,jbc->ijac", gens, gens) - np.einsum("jab,ibc->ijac", gens, gens)
    om_v = model.omega @ frame.vectors
    first = -np.einsum("ijab,bk,al->ijkl", brackets, frame.vectors, om_v, optimize=True)
    second = np.einsum("kab,ijbc,c,al->ijkl", gens, brackets, frame.base, om_v, optimize=True)
    return first, second


def dense_form(curv, d):
    """The (d, d, d, d) array of a curvature in support form (flat indices, values)."""
    out = np.zeros(d ** 4)
    out[curv[0]] = curv[1]
    return out.reshape((d,) * 4)


def support_form(curv):
    """The support form of a (2n)^4 curvature array: its nonzero flat indices, sorted,
    and the values there (a NaN counts as nonzero)."""
    keys = np.flatnonzero(curv)
    return keys, curv.ravel()[keys]


def algebra_curvature_dense(model, frame):
    """The algebra's curvature as one (2n)^4 array: T = one (2n)^2 x N by N x (2n)^2
    product of every pair column, then S and R built in its buffer row by row."""
    v = frame.vectors
    gens = geometry.transvection_generators(model, frame)
    d = v.shape[1]

    def columns(stack):  # [a, :, b] -> one column per pair (a, b)
        return np.moveaxis(stack, 1, 0).reshape(len(v), d * d)

    # T[(a, b), (c, d)] = (X_a v_b)^T X_c^T Omega v_d
    curv = columns(gens @ v).T @ columns(np.swapaxes(gens, 1, 2) @ (model.omega @ v))
    curv = curv.reshape((d,) * 4)
    pair = np.empty((d, d, d))  # one scratch block, reused by every row
    for i in range(d):
        # S_i = T_i + T_i^T on the middle pair; rows i' < i are S already, so
        # R_i'i = S_i'i - S_ii' and its negative follow
        curv[i] = np.add(curv[i], np.swapaxes(curv[i], 0, 1), out=pair)
        block = np.subtract(curv[:i, i], curv[i, :i], out=pair[:i])
        curv[:i, i] = block
        np.negative(block, out=curv[i, :i])
        curv[i, i] = 0.0
    return curv


def ricci_type_defect_dense(curv, gram, n):
    """sup |R - E(r)| on j > i, r and the sup of the cyclic sum on j, k > i of a (2n)^4
    array, one row i at a time, with each row of E(r) from one product of inner dimension 2
    (P[j, a, b] = r_ja G_ib - G_ja r_ib, as the BLAS kernel rounds it)."""
    ric = -np.einsum("ma,imja->ij", np.linalg.inv(gram), curv)
    f = -1.0 / (2.0 * (n + 1))
    d = len(curv)
    pairs = np.stack([ric, gram], axis=-1).reshape(d * d, 2)  # row (j, a): (r_ja, G_ja)
    defects, cyclic = [], []
    for i in range(d - 1):
        m = d - i - 1  # the rows j > i
        p = (pairs[(i + 1) * d:] @ np.stack([gram[i], -ric[i]])).reshape(m, d, d)
        rows = 2.0 * gram[i, i + 1:, None] * ric.reshape(1, d * d)
        rows = rows.reshape(m, d, d) + p
        rows += np.swapaxes(p, 1, 2)
        rows *= f
        defects.append(np.max(np.abs(curv[i, i + 1:] - rows)))
        upper = curv[i, i + 1:, i + 1:]
        cyclic.append(np.max(np.abs((upper + curv[i + 1:, i + 1:, i])
                                    - np.swapaxes(upper, 0, 1))))
    return float(np.max(defects)), ric, float(np.max(cyclic))


def ricci_type_residual_dense(model, x):
    """``geometry.ricci_type_residual`` on the whole-array kernel."""
    frame = geometry.horizontal_basis(model, x)
    defect, ric, cyclic = ricci_type_defect_dense(algebra_curvature_dense(model, frame),
                                                  frame.gram, model.n)
    rho = geometry.ricci_endomorphism(model, frame)
    square = rho @ rho - 4.0 * (model.n + 1) ** 2 * model.mu * np.eye(2 * model.n)
    scale = max(1.0, model.k)
    return {"cyclic": cyclic, "ricci_type": defect / scale,
            "square": float(np.max(np.abs(square))) / max(1.0, abs(model.mu)),
            "trace_route": float(np.max(np.abs(frame.gram @ rho - ric))) / scale}


def ricci_type_defect_rows(curv, gram, n):
    """sup |R - E(r)|, r and the sup of the cyclic sum, one broadcast row i at a time."""
    ric = -np.einsum("ma,imja->ij", np.linalg.inv(gram), curv)
    f = -1.0 / (2.0 * (n + 1))
    defects, cyclic = [], []
    for i in range(len(curv)):
        defects.append(np.max(np.abs(curv[i] - f * (2.0 * gram[i, :, None, None] * ric
                                                    + gram[i, None, :, None] * ric[:, None, :]
                                                    + gram[i, None, None, :] * ric[:, :, None]
                                                    - gram[:, :, None] * ric[i, None, None, :]
                                                    - gram[:, None, :] * ric[i, None, :, None]))))
        cyclic.append(np.max(np.abs(curv[i] + curv[:, :, i] + np.swapaxes(curv[:, i], 0, 1))))
    return float(np.max(defects)), ric, float(np.max(cyclic))


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


def sample_sigma_pointwise(model, count, seed):
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
        val = pairing(model, v, model.A @ v)
        if abs(val - 1.0) > 1e-12:
            raise RuntimeError(f"sampled point misses Sigma_A by {abs(val - 1.0):.3e}")
        points.append(v)
    return np.array(points), first_redraw


def centralizer_system(model):
    """(2N^2, N^2) rows of tX Omega + Omega X = 0 and [X, A / max|A|] = 0 on row-major vec(X)."""
    amat = model.A
    omega = model.omega
    dim = model.ambient_dim
    ident = np.eye(dim)
    # vec(MX) = (M kron I) v, vec(XM) = (I kron tM) v, and vec(tX) permutes v
    transpose = np.arange(dim * dim).reshape(dim, dim).T.ravel()
    sp_rows = np.kron(ident, omega.T)[:, transpose] + np.kron(omega, ident)
    unit = amat / np.max(np.abs(amat))
    comm_rows = np.kron(ident, unit.T) - np.kron(unit, ident)
    return np.vstack([sp_rows, comm_rows])


def centralizer_oracle(model):
    """The centralizer of A in sp(Omega) as one SVD null space of ``centralizer_system``."""
    system = centralizer_system(model)
    return lie.MatrixLieSubspace(model.ambient_dim, lie.null_space(system)[0].T)


def row_span_full_v(stack):
    """``lie._row_span`` on the full V of a wide stack, the SVD it took before the economy one:
    the same rows above ZERO_FLOOR, cut at the same threshold."""
    stack = stack[np.max(np.abs(stack), axis=1) > lie.ZERO_FLOOR]
    _, s, vt = np.linalg.svd(stack, full_matrices=stack.shape[0] < stack.shape[1])
    return vt[:int(lie.rank_count(s, atol=lie.ZERO_FLOOR))]


def structure_constants_oracle(s, modulo=None):
    """(c, residual) from the full (d, d, N^2) bracket tensor, projected in one pass."""
    d = s.dim
    stacked = s.rows if modulo is None else np.vstack([s.rows, modulo.rows])
    q = s.rows if modulo is None else lie._row_span(stacked)
    b = s.basis[:, None]  # the (d, d, N^2) tensor of every bracket [b_i, b_j]
    flat = (b @ s.basis - s.basis @ b).reshape(d, d, -1)
    on_span = flat @ q.T
    flat -= on_span @ q
    residual = float(np.max(np.abs(flat[np.triu_indices(d, 1)]), initial=0.0))
    c = on_span if modulo is None else on_span @ np.linalg.pinv(stacked @ q.T)
    return c[:, :, :d], residual


def reduce_oracle(x, modulo):
    """x with its component on the orthonormal rows of ``modulo`` removed."""
    if modulo is None:
        return x
    v = x.reshape(-1)
    q = modulo.rows
    return (v - q.T @ (q @ v)).reshape(x.shape)


def bracket_span_oracle(s1, s2, modulo=None):
    """Span of [s1, s2] (mod ``modulo``), one matrix bracket per pair of basis elements."""
    mats = [reduce_oracle(bracket(b1, b2), modulo) for b1 in s1.basis for b2 in s2.basis]
    return lie.subspace_from_matrices(mats, s1.ambient_dim)


def closure_residual_oracle(s, modulo=None):
    """Largest distance of a pair bracket to span(s + modulo), one pair at a time."""
    res = 0.0
    span = s if modulo is None else lie.subspace_from_matrices(
        [*s.basis, *modulo.basis], s.ambient_dim)
    for i in range(s.dim):
        for j in range(i + 1, s.dim):
            res = max(res, span.distance(bracket(s.basis[i], s.basis[j])))
    return res


def center_oracle(s, modulo=None):
    """The center of s (mod ``modulo``), from one null space of all pair brackets."""
    system = np.concatenate(
        [np.stack([reduce_oracle(bracket(bi, bj), modulo).reshape(-1) for bi in s.basis],
                  axis=1)
         for bj in s.basis], axis=0)
    kernel = null_space(system, rcond=lie.RANK_RTOL)
    basis = [sum(ci * bi for ci, bi in zip(c, s.basis)) for c in kernel.T]
    return lie.subspace_from_matrices(basis, s.ambient_dim)


def series_oracle(s, against_self, modulo=None):
    """Dimensions of the derived (``against_self``) or lower central series of s."""
    dims = [s.dim]
    current = s
    while current.dim > 0:
        nxt = bracket_span_oracle(current if against_self else s, current, modulo)
        dims.append(nxt.dim)
        if nxt.dim >= current.dim:
            break
        current = nxt
    return dims


def ricci_ambient_form(n):
    """Omega on R^{2(n+1)} adapted to the 3x3-block construction below.

    Basis order (e_0, e'_0, v_1..v_{2n}) with Omega(e_0, e'_0) = 1 and the
    standard form on the trailing 2n-dimensional symplectic block.
    """
    dim = 2 * (n + 1)
    omega = np.zeros((dim, dim))
    omega[0, 1] = 1.0
    omega[1, 0] = -1.0
    omega[2:, 2:] = standard_symplectic_form(n)
    return omega


def build_A_from_ricci(rho_check, mu, n, tol=DEFAULT_TOL):
    """Characteristic element on R^{2(n+1)} realizing a prescribed Ricci endomorphism.

    Given rho_check in End(R^{2n}) with rho_check^2 = mu*Id, returns the
    3x3-block matrix

        [[0, mu/4(n+1)^2, 0], [1, 0, 0], [0, 0, -rho_check/2(n+1)]]

    which squares to (mu/4(n+1)^2)*Id, and that square's mu/4(n+1)^2, as the pair
    (matrix, mu).  Its ambient form is ricci_ambient_form(n).
    """
    rho = np.asarray(rho_check, dtype=float)
    if rho.shape != (2 * n, 2 * n):
        raise ValueError(f"rho_check must be {2*n}x{2*n}, got {rho.shape}")
    if np.max(np.abs(rho @ rho - mu * np.eye(2 * n))) > tol:
        raise ValueError("rho_check does not satisfy rho_check^2 = mu*Id")
    dim = 2 * (n + 1)
    a = np.zeros((dim, dim))
    a[0, 1] = mu / (4.0 * (n + 1) ** 2)
    a[1, 0] = 1.0
    a[2:, 2:] = -rho / (2.0 * (n + 1))
    return a, mu / (4.0 * (n + 1) ** 2)
