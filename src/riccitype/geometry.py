"""Reduction geometry of M_A = Sigma_A / exp(tA).

Every function takes the model, which carries A and its flow; none takes A
separately.  Points of the quotient are carried in per-case chart
representations:

* hyperbolic:        (u, w) with <u,u> = 1, <u,w> = 0   (tangent-sphere picture)
* elliptic, p = 1:   w in C^n with |w| < 1, stored as (Re w, Im w)
* nilpotent p=2,q=1: global Darboux coordinates (y0, Y, gamma), component x*^1 > 0
* nilpotent general: (x, X, x*) with sum eps_i (x*^i)^2 = 1, sum eps_i x^i x*^i = 0

The elliptic case with p > 1 has no chart here; fiber distances are used
instead to compare points of the quotient.

Horizontal geometry lives at the Sigma level: H_x = span{x, Ax}^perp is
symplectic and pushes down isomorphically, so the reduced form, curvature
and symmetries are all evaluated on horizontal representatives.

A chart point is a plain coordinate array, one (d,) point or an (S, d) stack
of points one per row, in the chart ``chart_kind(model)``.  Every chart
function takes one point or a stack: ``project``, ``chart_section``, the
fiber comparisons, and the one exact chart differential,
``differential_project``, which serves every chart tangent: the lifts
(``lift_tangent``, one frame, differential and QR solve per point), the
fundamental fields d pi_x(-X x) (``fundamental_fields``, an (S, d, g) field
stack), the reduced form in the intrinsic charts (``chart_omega_matrix``)
and the reduced symmetry's differential d pi_{Sx} o S, whose symplectic
pullback is exact too.  No finite difference is left: the difference-quotient
connection is a test oracle.

``horizontal_basis`` takes one point or an (S, N) stack and returns a
``HorizontalFrame`` (with its Gram matrix) carrying that sample axis; each
sample gets the BLAS and LAPACK calls it would get alone.  The curvature is the
transvection algebra's, from closed-form odd generators, in support form: the
entries that can be nonzero and their values (``algebra_curvature``); neither a
closed-form curvature nor a (2n)^4 array is formed.  Its four checks, the
cyclic identity, R = E(r), rho^2 = 4(n+1)^2 mu Id and the trace route G rho = r
(``ricci_type_residual``), run at one point, on that curvature, the one r
traced from it and the one rho of the frame.  The two tensor checks read only
the independent components of R where a term can be nonzero: R is exactly
antisymmetric in its first pair, so R - E(r) is read on j > i and the cyclic
sum, alternating in (i, j, k), on j > i, k > i.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .core import SymplecticModel, apply_rows, dot_rows
from .lie import rank_count


class ChartUnavailableError(ValueError):
    """Raised for operations that need a chart the case does not provide."""


@dataclass(frozen=True)
class HorizontalFrame:
    """Basis of H_x = span{x, Ax}^perp at a base point of Sigma_A.

    A frame stack over S sample points carries a leading sample axis on
    every field: base (S, N), vectors (S, N, 2n), gram (S, 2n, 2n).
    """

    base: np.ndarray
    vectors: np.ndarray  # ambient_dim x 2n, columns span H_x
    gram: np.ndarray  # 2n x 2n, G_ij = Omega(v_i, v_j)


def chart_kind(model: SymplecticModel) -> str | None:
    """Chart tag for the case, or None when no chart is provided (elliptic p>1)."""
    if model.case == "hyperbolic":
        return "tangent_sphere"
    if model.case == "elliptic":
        return "ball" if model.p == 1 else None
    if model.p == 2 and model.q == 1:
        return "darboux"
    return "quadric"


def _split_nilpotent(model: SymplecticModel, x: np.ndarray, axis: int = -1):
    p = model.p
    return np.split(x, [p, p + 2 * (model.n + 1 - p)], axis=axis)


def _elliptic_z(model: SymplecticModel, x: np.ndarray) -> np.ndarray:
    m = model.n + 1
    return x[..., :m] + 1j * x[..., m:]


def project(model: SymplecticModel, x) -> np.ndarray:
    """Chart coordinates of the exp(tA)-orbit of x in Sigma_A.

    ``x`` is one point or an (S, N) stack of points, one per row; the chart
    coordinates come back in the same layout.
    """
    kind = chart_kind(model)
    if kind is None:
        raise ChartUnavailableError(
            "no chart for elliptic p > 1; use fiber_distance on Sigma_A points")
    v = np.asarray(x, dtype=float)
    if kind == "tangent_sphere":
        m = model.n + 1
        xp, xm = v[..., :m], v[..., m:]
        r = np.sqrt(dot_rows(xp, xp))[..., None]
        u = xp / r
        return np.concatenate([u, r * xm + u / (2.0 * model.k)], axis=-1)
    if kind == "ball":
        z = _elliptic_z(model, v)
        w = z[..., 1:] / z[..., :1]
        return np.concatenate([w.real, w.imag], axis=-1)
    xs_small, capx, xs = _split_nilpotent(model, v)
    if kind == "darboux":
        if np.any(xs[..., 0] <= 0):
            raise ValueError("point lies outside the component with x*^1 > 0")
        alpha = np.arcsinh(xs[..., 1:])
        y0 = -xs_small[..., :1] * np.sinh(alpha) + xs_small[..., 1:] * np.cosh(alpha)
        return np.concatenate([y0, capx, alpha], axis=-1)
    t = np.sum(model.eps * xs_small * xs, axis=-1, keepdims=True)
    return np.concatenate([xs_small - t * xs, capx, xs], axis=-1)


def chart_section(model: SymplecticModel, coords) -> np.ndarray:
    """A Sigma_A point in the fiber over each chart point (a section of the projection)."""
    c = np.asarray(coords, dtype=float)
    kind = chart_kind(model)
    if kind == "tangent_sphere":
        m = model.n + 1
        u, w = c[..., :m], c[..., m:]
        return np.concatenate([u, w - u / (2.0 * model.k)], axis=-1)
    if kind == "ball":
        n = model.n
        w = c[..., :n] + 1j * c[..., n:]
        w_sq = dot_rows(w.real, w.real) + dot_rows(w.imag, w.imag)
        z1 = 1.0 / np.sqrt(model.k * (1.0 - w_sq))
        z = np.concatenate([z1[..., None], z1[..., None] * w], axis=-1)
        return np.concatenate([z.real, z.imag], axis=-1)
    if kind == "darboux":
        y0, capy, gamma = c[..., :1], c[..., 1:-1], c[..., -1:]
        ch, sh = np.cosh(gamma), np.sinh(gamma)
        return np.concatenate([y0 * sh, y0 * ch, capy, ch, sh], axis=-1)
    return c.copy()


def fiber_time(model: SymplecticModel, x, y):
    """Flow time t with y approx exp(tA) x, per-case closed form, one per row of a stack."""
    vx, vy = np.asarray(x, dtype=float), np.asarray(y, dtype=float)
    if model.case == "hyperbolic":
        m = model.n + 1
        xp, yp = vx[..., :m], vy[..., :m]
        return np.log(np.sqrt(dot_rows(yp, yp)) / np.sqrt(dot_rows(xp, xp))) / model.k
    if model.case == "elliptic":
        zx, zy = _elliptic_z(model, vx), _elliptic_z(model, vy)
        return np.angle(np.sum(zy * np.conj(zx), axis=-1)) / model.k
    eps = model.eps
    xs_x = _split_nilpotent(model, vx)
    xs_y = _split_nilpotent(model, vy)
    return np.sum(eps * xs_y[0] * xs_y[2], axis=-1) - np.sum(eps * xs_x[0] * xs_x[2], axis=-1)


def fiber_distance(model: SymplecticModel, x, y):
    """Distance from y to the exp(tA)-orbit through x (chart-free comparison), per row."""
    vy = np.asarray(y, dtype=float)
    moved = apply_rows(model.flow(fiber_time(model, x, vy)), np.asarray(x, dtype=float))
    return np.max(np.abs(vy - moved), axis=-1)


def horizontal_basis(model: SymplecticModel, x) -> HorizontalFrame:
    """Orthonormal basis of H_x = {v : Omega(v, x) = Omega(v, Ax) = 0}.

    ``x`` is one point or an (S, N) stack of points, one per row; a stack
    gives a frame stack (``HorizontalFrame``) from one batched SVD of the
    (S, 2, N) constraints.  The first sample that fails raises.
    """
    v = np.asarray(x, dtype=float)
    pts = v.reshape(-1, v.shape[-1])
    # H_x does not depend on the scale of A; at unit scale the Omega A x row survives the rank cut
    unit = model.A / model.k
    constraints = np.stack([apply_rows(model.omega, pts),
                            apply_rows(model.omega, apply_rows(unit, pts))], axis=1)
    _, s, vt = np.linalg.svd(constraints)
    rank = rank_count(s)  # one row of singular values per sample
    # C order: numpy's reductions over the frame depend on its memory layout,
    # and the report values are fixed for a C-ordered frame
    frame = np.ascontiguousarray(np.swapaxes(vt[:, 2:], 1, 2))
    gram = np.swapaxes(frame, 1, 2) @ model.omega @ frame
    failed = (rank != 2) | (np.abs(np.linalg.det(gram)) < 1e-12)
    if failed.any():
        if rank[np.argmax(failed)] != 2:
            raise ValueError("horizontal space is rank deficient; is x on Sigma_A?")
        raise ValueError("Omega degenerates on the horizontal space")
    if v.ndim == 1:
        return HorizontalFrame(v, frame[0], gram[0])
    return HorizontalFrame(pts, frame, gram)


def differential_project(model: SymplecticModel, x, v) -> np.ndarray:
    """Exact differential of the projection on tangents of Sigma_A, per case.

    At one point ``x``, ``v`` is one (N,) tangent or an (N, m) matrix with
    one tangent per column; at an (S, N) stack of points it is (S, N) or
    (S, N, m).  The differential is linear in v, so the chart tangents come
    back in the same layout.
    """
    kind = chart_kind(model)
    if kind is None:
        raise ChartUnavailableError("no chart for elliptic p > 1")
    xv = np.asarray(x, dtype=float)
    v = np.asarray(v, dtype=float)
    one = v.ndim == xv.ndim  # one tangent per point: a matrix of one column
    if one:
        v = v[..., None]
    if kind == "tangent_sphere":
        m = model.n + 1
        xp, xm = xv[..., :m], xv[..., m:]
        vp, vm = v[..., :m, :], v[..., m:, :]
        r = np.sqrt(dot_rows(xp, xp))[..., None, None]
        dr = (xp[..., None, :] @ vp) / r
        du = vp / r - xp[..., :, None] * dr / (r * r)
        dw = xm[..., :, None] * dr + r * vm + du / (2.0 * model.k)
        out = np.concatenate([du, dw], axis=-2)
    elif kind == "ball":
        m = model.n + 1
        z = _elliptic_z(model, xv)[..., :, None]
        dz = v[..., :m, :] + 1j * v[..., m:, :]
        w = z[..., 1:, :] / z[..., :1, :]
        dw = (dz[..., 1:, :] - w * dz[..., :1, :]) / z[..., :1, :]
        out = np.concatenate([dw.real, dw.imag], axis=-2)
    else:
        xs_small, _, xs = _split_nilpotent(model, xv)
        vx, vcapx, vxs = _split_nilpotent(model, v, axis=-2)
        if kind == "darboux":
            ch, sh = xs[..., 0, None, None], xs[..., 1, None, None]
            x0, x1 = xs_small[..., 0, None, None], xs_small[..., 1, None, None]
            beta = vxs[..., 1:, :] / ch  # tangent of the hyperbola: v_* = beta * (sh, ch)
            dy0 = -vx[..., :1, :] * sh + vx[..., 1:, :] * ch + beta * (x1 * sh - x0 * ch)
            out = np.concatenate([dy0, vcapx, beta], axis=-2)
        else:
            eps = model.eps
            t = np.sum(eps * xs_small * xs, axis=-1)[..., None, None]
            dt = (eps * xs)[..., None, :] @ vx + (eps * xs_small)[..., None, :] @ vxs
            out = np.concatenate([vx - xs[..., :, None] * dt - t * vxs, vcapx, vxs], axis=-2)
    return out[..., 0] if one else out


def fundamental_fields(model: SymplecticModel, generators, coords) -> np.ndarray:
    """Fundamental vector fields on the chart of centralizer generators.

    The field of X at pi(x) is d/dt pi(exp(-tX) x) at t = 0, which is the
    exact differential d pi_x(-X x), at x = chart_section(coords).  One
    chart point gives the (2n, g) matrix whose column j is the field of
    generator j; an (S, 2n) stack gives an (S, 2n, g) field stack.  Each
    generator must lie in the centralizer of A in sp: |X^T Omega + Omega X|
    must be at most 1e-8, and |[X, A^]| at most 1e-8 max|X| for the unit-scale
    A^ = A / max|A|, since |[X, A]| grows with the scale k of A.
    """
    unit = model.A / model.k
    gens = np.asarray(generators, dtype=float)
    for x_mat in gens:
        sp_res = float(np.max(np.abs(x_mat.T @ model.omega + model.omega @ x_mat)))
        comm_res = float(np.max(np.abs(x_mat @ unit - unit @ x_mat)))
        # written as `not <=` so that a NaN residual fails the guard
        if not (sp_res <= 1e-8 and comm_res <= 1e-8 * np.max(np.abs(x_mat))):
            raise ValueError(f"generator is not in the centralizer of A in sp "
                             f"(residuals {sp_res:.2e}, {comm_res:.2e})")
    x = chart_section(model, coords)
    # X x for every generator X, one matrix-vector product each, one column per generator
    images = np.swapaxes(-(gens @ x[..., None, :, None])[..., 0], -1, -2)
    return differential_project(model, x, images)


def lift_tangent(model: SymplecticModel, x, chart_tangents) -> np.ndarray:
    """Horizontal lifts to H_x of chart tangents at project(x).

    ``chart_tangents`` is one tangent or a matrix with one tangent per column,
    and the lifts come back in the same layout; at an (S, N) stack of points
    they are an (S, d, m) stack, or one (d, m) matrix for every point.  Every
    chart builds the horizontal frame and the differential of the projection
    on it once, then solves one least-squares system for all columns.  The
    solve uses the exact differential (``differential_project``) so the lift is
    smooth enough to sit inside second-derivative checks.  It goes through a QR
    factorization: the chart coordinates can scale the rows of the differential
    very unevenly (the Darboux y0 row grows like x cosh(gamma)), which costs an
    SVD-based solve over a digit of accuracy.
    """
    xv = np.asarray(x, dtype=float)
    frame = horizontal_basis(model, xv).vectors
    q, r = np.linalg.qr(differential_project(model, xv, frame))
    rhs = np.swapaxes(q, -1, -2) @ np.asarray(chart_tangents, dtype=float)
    return frame @ np.linalg.solve(r, rhs)


def darboux_matrix(model: SymplecticModel) -> np.ndarray:
    """Constant chart matrix of omega in (y0, Y, gamma) coordinates."""
    d = 2 * model.n
    mat = np.zeros((d, d))
    mat[0, -1] = 1.0
    mat[-1, 0] = -1.0
    mat[1:-1, 1:-1] = model.omega0
    return mat


def chart_omega_matrix(model: SymplecticModel, x) -> np.ndarray:
    """Matrix of the reduced form on the coordinate directions at project(x).

    Only the intrinsic charts (ball, Darboux) are coordinate systems, with the
    unit vectors as coordinate tangents; the embedded representations raise
    ``ChartUnavailableError``.  The form is evaluated on the lifts at
    chart_section(cp), the point of the fiber over cp = project(x) that the
    chart section picks; omega is invariant along the fiber.
    """
    kind = chart_kind(model)
    if kind in ("tangent_sphere", "quadric"):
        raise ChartUnavailableError(f"the {kind} representation has no coordinate directions; "
                                    "the reduced form matrix needs the ball or Darboux chart")
    cp = project(model, x)
    lifts = lift_tangent(model, chart_section(model, cp), np.eye(2 * model.n))
    return np.swapaxes(lifts, -1, -2) @ model.omega @ lifts


def ricci_endomorphism(model: SymplecticModel, frame: HorizontalFrame) -> np.ndarray:
    """Matrix of the Ricci endomorphism -2(n+1) A restricted to H_x, in the frame.

    A frame stack gives one matrix per sample, as an (S, 2n, 2n) stack.
    """
    v = frame.vectors
    av = model.A @ v
    coeff = np.swapaxes(v, -1, -2) @ av  # frame is Euclidean-orthonormal and A preserves H_x
    # A v grows like the scale k of A: read against max|A|, which is 1 at k = 1 and at mu = 0
    if np.max(np.abs(v @ coeff - av)) > 1e-8 * model.k:
        raise ValueError("frame mismatch: A does not preserve the given frame span")
    return -2.0 * (model.n + 1) * coeff


def transvection_generators(model: SymplecticModel, frame: HorizontalFrame) -> np.ndarray:
    """Odd generators X_u = (Au).x - u.(Ax) of the transvection algebra at x = frame.base.

    (a.b) y = Omega(a, y) b + Omega(b, y) a.  For u in H_x, X_u commutes with
    A, X_u x = u, and S_x X_u S_x = -X_u, so the X_u span p1 at x.  One X_u
    per frame vector u: a (2n, N, N) stack.
    """
    amat, om, x, u = model.A, model.omega, frame.base, frame.vectors.T

    def sym(rows, b):  # rows[m].b for every row: b Omega(rows[m], .) + rows[m] Omega(b, .)
        return b[:, None] * (rows @ om)[:, None, :] + rows[:, :, None] * (b @ om)

    return sym(u @ amat.T, x) - sym(u, amat @ x)


def _table(keys: list, values: list):
    """The sorted distinct keys of some slots, and the value each slot gives each key.

    ``keys`` and ``values`` hold one array per slot; where a slot gives a key
    more than once, every copy carries the same value.  Returns the distinct
    keys, sorted, and the (slots, keys) table whose row s holds, at each key,
    the value slot s gives it, or 0.  The keys are deduplicated by one sort:
    numpy's hash-based ``unique`` is several times slower on these arrays.
    """
    slots = np.arange(len(keys)).repeat([len(k) for k in keys])
    flat = np.concatenate(keys)
    order = flat.argsort()
    flat = flat[order]
    first = np.empty(len(flat), bool)
    first[:1] = True
    np.not_equal(flat[1:], flat[:-1], out=first[1:])
    table = np.zeros((len(keys), np.count_nonzero(first)))
    table[slots[order], first.cumsum() - 1] = np.concatenate(values)[order]
    return flat[first], table


#: R_ijkl = (T_ijkl + T_ikjl) - (T_jikl + T_jkil) reads the entry T_abcd at
#: (i, j, k, l) = (a, b, c, d), (a, c, b, d), (b, a, c, d) and (c, a, b, d): the
#: powers of 2n in those four keys, for the digits in the order (a, c, b, d)
_T_READS = np.array([[3, 1, 2, 0], [3, 2, 1, 0], [2, 1, 3, 0], [2, 3, 1, 0]])


def algebra_curvature(model: SymplecticModel, frame: HorizontalFrame):
    """Curvature R_ijkl = Omega(-[[X_i, X_j], X_k] x, v_l) of the transvection algebra at x,
    in support form.

    Returns (keys, values): the sorted flat indices ((i d + j) d + k) d + l,
    d = 2n, of the entries that can be nonzero, and R at them; every other
    entry of R is exactly 0, and no (2n)^4 array is formed.
    R(u, v)w = -[[X_u, X_v], X_w] x on the odd part (Kobayashi & Nomizu II,
    ch. XI), with X_u from ``transvection_generators`` at x = frame.base.
    Since X_j x = v_j, the commutator expands to
    -X_i X_j v_k + X_j X_i v_k + X_k X_i v_j - X_k X_j v_i, so with
    T_abcd = Omega(X_c X_a v_b, v_d), R_ijkl = S_ijkl - S_jikl for
    S_ijkl = T_ijkl + T_ikjl.  T = U^T W for the columns U_ab = X_a v_b and
    W_cd = X_c^T Omega v_d, formed on their nonzero columns only, as one small
    product; every other T entry is exactly 0.  Each R entry reads its four T
    entries (``_table``) in the sums and difference above, so R is exactly
    0 at i = j and exactly -R_jikl at i > j: antisymmetric in (i, j).
    """
    v = frame.vectors
    gens = transvection_generators(model, frame)
    d = v.shape[1]

    def columns(stack):  # [a, :, b] -> one column per pair (a, b)
        return stack.transpose(1, 0, 2).reshape(len(v), d * d)

    u = columns(gens @ v)
    w = columns(gens.transpose(0, 2, 1) @ (model.omega @ v))
    cu, cw = np.flatnonzero(u.any(axis=0)), np.flatnonzero(w.any(axis=0))
    # T[(a, b), (c, d)] = (X_a v_b)^T X_c^T Omega v_d on those columns
    t = u[:, cu].T @ w[:, cw]
    rows, cols = np.nonzero(t)
    digits = np.concatenate(np.divmod([cu[rows], cw[cols]], d))  # rows a, c, b, d
    keys, terms = _table(list(d ** _T_READS @ digits), [t[rows, cols]] * 4)
    return keys, (terms[0] + terms[1]) - (terms[2] + terms[3])


def _ricci_type_defect(curv, gram: np.ndarray, n: int):
    """Sup-norm of R - E(r) for a curvature R in support form (``algebra_curvature``),
    its trace Ricci tensor r, and the sup-norm of the cyclic sum C_ijkl = R_ijkl + R_jkil + R_kijl.

    r_ij = -sum_{m,a} (G^-1)_ma R_imja, summed left to right over ascending
    (m, a), the order of the keys of R_imja.  E(r) (see ``ricci_type_residual``)
    is f (2 G_ij r_kl + P_jkl + P_jlk), evaluated in that order, with
    f = -1/(2n+2) and P_jab = r_ja G_ib - G_ja r_ib, two rounded products and
    their rounded difference.  Both sups are read on independent components
    only, as R is exactly antisymmetric in (i, j).  Then R - E(r) is
    antisymmetric in (i, j) too (E(r) is, since G is), so j > i carries all of
    it.  And C is alternating in (i, j, k): cyclic by its definition, and
    C_jikl = -C_ijkl term by term.  So every |C| is read at j > i, k > i as
    (R_ijkl + R_jkil) - R_ikjl (R_kijl = -R_ikjl exactly), or is 0 at a
    repeated index.  Both are evaluated only where a term can be nonzero: the
    keys of R, read at their own place, as R_jkil and as R_ikjl, and the places
    where E(r) meets two nonzero entries of G or r.  Everywhere else they read
    0 - 0.
    """
    keys, vals = curv
    d = len(gram)
    dd = d * d
    im, ja = np.divmod(keys, dd)
    (i, m), (j, a) = np.divmod(im, d), np.divmod(ja, d)  # R_imja
    ij, ma = i * d + j, m * d + a
    ric = -np.bincount(ij, np.linalg.inv(gram).ravel()[ma] * vals, dd).reshape(d, d)
    f = -1.0 / (2.0 * (n + 1))
    # E(r) reads G and r at (i, j) and (k, l), (j, k) and (i, l), (j, l) and (i, k): two
    # nonzero entries (x1, y1), (x2, y2) meet at (x1, y1, x2, y2), (x2, x1, y1, y2) and
    # (x2, x1, y2, y1), kept at j > i; outer sums run over (first entry, second entry)
    pairs = np.flatnonzero((gram != 0) | (ric != 0))
    x, y = np.divmod(pairs, d)
    below, top = np.greater.outer(x, x), x * d ** 3
    meets = np.concatenate([np.add.outer(pairs[x < y] * dd, pairs),
                            np.add.outer(pairs * d, top + y)[below],
                            np.add.outer(x * dd + y, top + y * d)[below]], axis=None)
    # R_imja as R_ijkl at (i, m, j, a), as R_jkil at (j, i, m, a), as R_ikjl at (i, j, m, a)
    own, jkil, ikjl = m > i, (i > j) & (m > j), (j > i) & (m > i)
    places, terms = _table([keys[own], ((j * d + i) * dd + ma)[jkil], (ij * dd + ma)[ikjl], meets],
                           [vals[own], vals[jkil], vals[ikjl], np.zeros(len(meets))])
    ij, kl = np.divmod(places, dd)
    (i, j), (k, l) = np.divmod(ij, d), np.divmod(kl, d)
    gf, rf = gram.ravel(), ric.ravel()
    ends = np.array([k, l])
    fore, aft = j * d + ends, i * d + ends[::-1]  # P_jkl and P_jlk
    p = rf[fore] * gf[aft] + gf[fore] * -rf[aft]
    e = 2.0 * gf[ij] * rf[kl]
    e += p[0]
    e += p[1]
    e *= f
    # max keeps a NaN, and reads 0 when nothing can be nonzero
    defect = np.abs(terms[0] - e).max(initial=0.0)
    cyclic = np.abs((terms[0] + terms[1]) - terms[2])[k > i].max(initial=0.0)
    return float(defect), ric, float(cyclic)


def ricci_type_residual(model: SymplecticModel, x) -> dict:
    """Sup-norms of the curvature identities at one point x of Sigma_A.

    R is the transvection algebra's curvature at x (``algebra_curvature``, in
    support form) in the frame, r its trace Ricci tensor and rho the Ricci
    endomorphism in the frame.  R is exactly antisymmetric in (i, j), so the
    two tensor keys read its independent components only, which carry every
    value, and only where a term can be nonzero (``_ricci_type_defect``).
    The keys are
    ``cyclic``: R_ijkl + R_jkil + R_kijl on j, k > i.  R_ijkl = S_ijkl - S_jikl
        with S symmetric in its middle pair satisfies it whatever the
        generators, so it checks how R is assembled, not the first Bianchi
        identity of the connection;
    ``ricci_type``: R - E(r) on j > i, with
        E(X,Y,Z,T) = -1/(2n+2) [2 w(X,Y) r(Z,T) + w(X,Z) r(Y,T) + w(X,T) r(Y,Z)
                                - w(Y,Z) r(X,T) - w(Y,T) r(X,Z)];
    ``square``: rho^2 - 4(n+1)^2 mu Id, divided by max(1, |mu|) since it grows
    like |mu| (the factor is 1 at k = 1 and at mu = 0);
    ``trace_route``: G rho - r, the Gram matrix times rho against that same r.
    ``ricci_type`` and ``trace_route`` are divided by max(1, max|A|): the
    orthonormal frame does not depend on the scale k of A, X_u grows like
    sqrt(k) and x like 1/sqrt(k), so R, r and G rho grow like k (the factor
    is 1 at k = 1 and at mu = 0).
    The transvection group acts transitively by symplectic maps that commute
    with A, so it preserves R, r and rho, and the base point stands for every
    point.
    """
    frame = horizontal_basis(model, x)
    defect, ric, cyclic = _ricci_type_defect(algebra_curvature(model, frame), frame.gram,
                                             model.n)
    rho = ricci_endomorphism(model, frame)
    square = rho @ rho - 4.0 * (model.n + 1) ** 2 * model.mu * np.eye(2 * model.n)
    scale = max(1.0, model.k)
    return {"cyclic": cyclic, "ricci_type": defect / scale,
            "square": float(np.max(np.abs(square))) / max(1.0, abs(model.mu)),
            "trace_route": float(np.max(np.abs(frame.gram @ rho - ric))) / scale}


def symmetry_matrix(model: SymplecticModel, x) -> np.ndarray:
    """Linear symmetry S_x y = -y + 2 Omega(y, Ax) x - 2 Omega(y, x) Ax."""
    xv = np.asarray(x, dtype=float)
    ax = model.A @ xv
    return (-np.eye(model.ambient_dim)
            + 2.0 * np.outer(xv, model.omega @ ax)
            - 2.0 * np.outer(ax, model.omega @ xv))


def _symmetry_differential(model: SymplecticModel, s, x, sx):
    """The horizontal frame L at x and T = d pi_{sx}(s L), for sx = s x.

    s commutes with A and preserves Omega, so s L is tangent to Sigma_A at s x
    and T is the chart differential of the reduced symmetry on the tangents d pi_x(L).
    """
    lifts = horizontal_basis(model, x).vectors
    return lifts, differential_project(model, sx, s @ lifts)


def symmetry_pullback_residual(model: SymplecticModel, s, x, sx, y):
    """|J^T omega' J - omega| for the chart differential J of the reduced symmetry, exactly.

    x is a section point, sx = s x, and y the section point over project(sx),
    or (S, N) stacks of them (then one residual per row).  M lifts the image
    tangents T (``_symmetry_differential``) at y; the lift is linear, so
    M^T Omega M - L^T Omega L is J^T omega' J - omega in the basis d pi_x(L).
    That holds in any basis, and on the orthonormal frame the rounding floor
    is eps, not eps |L|^2 for lifts L.
    """
    lifts, tangents = _symmetry_differential(model, s, x, sx)
    moved = lift_tangent(model, y, tangents)
    forms = [np.swapaxes(v, -1, -2) @ model.omega @ v for v in (moved, lifts)]
    return np.max(np.abs(forms[0] - forms[1]), axis=(-2, -1))


def reduced_symmetry_report(model: SymplecticModel, x_center, samples) -> dict:
    """Residuals of the reduced-symmetry axioms at an (S, N) stack of Sigma_A samples.

    Returns ambient involution/symplectic/commutation residuals, the chart
    fixed-point defect, and per sample the involutivity defect and the
    symplectic-pullback residual of the chart differential (where a chart
    exists), as (S,) arrays.
    """
    s = symmetry_matrix(model, x_center)
    pts = np.asarray(samples, dtype=float)
    out = {
        "symmetry_squared": float(np.max(np.abs(s @ s - np.eye(model.ambient_dim)))),
        "symmetry_symplectic": float(np.max(np.abs(s.T @ model.omega @ s - model.omega))),
        "symmetry_commutes_A": float(np.max(np.abs(s @ model.A - model.A @ s))),
    }
    if chart_kind(model) is None:
        x0 = np.asarray(x_center, dtype=float)
        out["fixed_point"] = float(fiber_distance(model, x0, s @ x0))
        out["involution_in_chart"] = fiber_distance(model, pts,
                                                    apply_rows(s, apply_rows(s, pts)))
        return out
    center = project(model, x_center)
    out["fixed_point"] = float(np.max(np.abs(
        center - project(model, s @ chart_section(model, center)))))
    # one section point and one image per sample feed both checks
    cp = project(model, pts)
    x = chart_section(model, cp)
    sx = apply_rows(s, x)
    y = chart_section(model, project(model, sx))
    out["involution_in_chart"] = np.max(np.abs(cp - project(model, apply_rows(s, y))), axis=-1)
    out["symplectic_pullback"] = symmetry_pullback_residual(model, s, x, sx, y)
    return out
