"""Reduction geometry of M_A = Sigma_A / exp(tA).

Points of the quotient are carried in per-case chart representations:

* hyperbolic:        (u, w) with <u,u> = 1, <u,w> = 0   (tangent-sphere picture)
* elliptic, p = 1:   w in C^n with |w| < 1, stored as (Re w, Im w)
* nilpotent p=2,q=1: global Darboux coordinates (y0, Y, gamma), component x*^1 > 0
* nilpotent general: (x, X, x*) with sum eps_i (x*^i)^2 = 1, sum eps_i x^i x*^i = 0

The elliptic case with p > 1 has no chart here; fiber distances are used
instead to compare points of the quotient.

Horizontal geometry lives at the Sigma level: H_x = span{x, Ax}^perp is
symplectic and pushes down isomorphically, so the reduced form, connection,
curvature and symmetries are all evaluated on horizontal representatives.

Each per-point quantity comes from one frame and one lift solve:
``lift_tangent`` lifts a whole matrix of chart tangents with a single
frame, differential and least-squares solve; ``chart_omega_matrix`` is the
one route to the chart matrix of the reduced form; and the curvature and
Ricci functions take a ``HorizontalFrame`` so that callers build it once
per sample.  ``ricci_type_residual`` builds the (2n)^4 curvature tensor
once and returns the trace Ricci tensor with its residual, so one tensor
per sample serves both the Ricci-type and the trace-route checks.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from scipy.linalg import null_space

from .core import CharacteristicElement, SymplecticModel, as_matrix, as_vector, exp_tA, sigma_value

DEFAULT_FD_STEP = 1e-5


class ChartUnavailableError(ValueError):
    """Raised for operations that need a chart the case does not provide."""


@dataclass(frozen=True)
class ChartPoint:
    """Case-tagged coordinates of a point of M_A."""

    case: str
    kind: str
    coords: np.ndarray


@dataclass(frozen=True)
class HorizontalFrame:
    """Basis of H_x = span{x, Ax}^perp at a base point of Sigma_A."""

    base: np.ndarray
    vectors: np.ndarray  # ambient_dim x 2n, columns span H_x


def chart_kind(model: SymplecticModel) -> str | None:
    """Chart tag for the case, or None when no chart is provided (elliptic p>1)."""
    if model.case == "hyperbolic":
        return "tangent_sphere"
    if model.case == "elliptic":
        return "ball" if model.p == 1 else None
    if model.p == 2 and model.q == 1:
        return "darboux"
    return "quadric"


def _split_nilpotent(model: SymplecticModel, x: np.ndarray):
    p = model.p
    m = model.n + 1 - p
    return x[:p], x[p:p + 2 * m], x[p + 2 * m:]


def _elliptic_z(model: SymplecticModel, x: np.ndarray) -> np.ndarray:
    m = model.n + 1
    return x[:m] + 1j * x[m:]


def project(model: SymplecticModel, a, x) -> ChartPoint:
    """Chart coordinates of the exp(tA)-orbit of x in Sigma_A."""
    v = as_vector(x)
    kind = chart_kind(model)
    if kind is None:
        raise ChartUnavailableError(
            "no chart for elliptic p > 1; use fiber_distance on Sigma_A points")
    if kind == "tangent_sphere":
        m = model.n + 1
        xp, xm = v[:m], v[m:]
        r = float(np.sqrt(xp @ xp))
        u = xp / r
        w = r * xm + u / (2.0 * model.k)
        return ChartPoint(model.case, kind, np.concatenate([u, w]))
    if kind == "ball":
        z = _elliptic_z(model, v)
        w = z[1:] / z[0]
        return ChartPoint(model.case, kind, np.concatenate([w.real, w.imag]))
    if kind == "darboux":
        xs_small, capx, xs = _split_nilpotent(model, v)
        if xs[0] <= 0:
            raise ValueError("point lies outside the component with x*^1 > 0")
        alpha = float(np.arcsinh(xs[1]))
        y0 = -xs_small[0] * np.sinh(alpha) + xs_small[1] * np.cosh(alpha)
        return ChartPoint(model.case, kind, np.concatenate([[y0], capx, [alpha]]))
    xs_small, capx, xs = _split_nilpotent(model, v)
    eps = model.eps
    t = float(np.sum(eps * xs_small * xs))
    return ChartPoint(model.case, kind, np.concatenate([xs_small - t * xs, capx, xs]))


def chart_section(model: SymplecticModel, a, cp: ChartPoint) -> np.ndarray:
    """A Sigma_A point in the fiber over a chart point (a section of the projection)."""
    c = cp.coords
    if cp.kind == "tangent_sphere":
        m = model.n + 1
        u, w = c[:m], c[m:]
        return np.concatenate([u, w - u / (2.0 * model.k)])
    if cp.kind == "ball":
        n = model.n
        w = c[:n] + 1j * c[n:]
        z1 = 1.0 / np.sqrt(model.k * (1.0 - float(w.real @ w.real + w.imag @ w.imag)))
        z = np.concatenate([[z1], z1 * w])
        return np.concatenate([z.real, z.imag])
    if cp.kind == "darboux":
        y0, capy, gamma = c[0], c[1:-1], c[-1]
        ch, sh = np.cosh(gamma), np.sinh(gamma)
        return np.concatenate([[y0 * sh, y0 * ch], capy, [ch, sh]])
    return c.copy()


def fiber_time(model: SymplecticModel, a, x, y) -> float:
    """Flow time t with y approx exp(tA) x, per-case closed form."""
    vx, vy = as_vector(x), as_vector(y)
    if model.case == "hyperbolic":
        m = model.n + 1
        return float(np.log(np.linalg.norm(vy[:m]) / np.linalg.norm(vx[:m])) / model.k)
    if model.case == "elliptic":
        zx, zy = _elliptic_z(model, vx), _elliptic_z(model, vy)
        phase = np.angle(np.sum(zy * np.conj(zx)))
        return float(phase / model.k)
    eps = model.eps
    xs_x = _split_nilpotent(model, vx)
    xs_y = _split_nilpotent(model, vy)
    return float(np.sum(eps * xs_y[0] * xs_y[2]) - np.sum(eps * xs_x[0] * xs_x[2]))


def fiber_distance(model: SymplecticModel, a, x, y) -> float:
    """Distance from y to the exp(tA)-orbit through x (chart-free comparison)."""
    amat = as_matrix(a)
    mu = a.mu if isinstance(a, CharacteristicElement) else None
    if mu is None:
        mu = {"hyperbolic": model.k ** 2, "elliptic": -model.k ** 2, "nilpotent": 0.0}[model.case]
    t = fiber_time(model, a, x, y)
    return float(np.max(np.abs(as_vector(y) - exp_tA(amat, mu, t) @ as_vector(x))))


def chart_distance(cp1: ChartPoint, cp2: ChartPoint) -> float:
    if cp1.kind != cp2.kind:
        raise ValueError(f"chart kinds differ: {cp1.kind} vs {cp2.kind}")
    return float(np.max(np.abs(cp1.coords - cp2.coords)))


def horizontal_basis(model: SymplecticModel, a, x) -> HorizontalFrame:
    """Orthonormal basis of H_x = {v : Omega(v, x) = Omega(v, Ax) = 0}."""
    v = as_vector(x)
    amat = as_matrix(a)
    constraints = np.stack([model.omega @ v, model.omega @ (amat @ v)])
    frame = null_space(constraints)
    if frame.shape[1] != model.ambient_dim - 2:
        raise ValueError("horizontal space is rank deficient; is x on Sigma_A?")
    gram = frame.T @ model.omega @ frame
    if abs(np.linalg.det(gram)) < 1e-12:
        raise ValueError("Omega degenerates on the horizontal space")
    return HorizontalFrame(v, frame)


def horizontal_projection(model: SymplecticModel, a, x, v) -> np.ndarray:
    """Component of v in H_x along span{x, Ax}."""
    xv = as_vector(x)
    amat = as_matrix(a)
    ax = amat @ xv
    sigma = model.pairing(xv, ax)
    alpha = model.pairing(v, ax) / sigma
    beta = -model.pairing(v, xv) / sigma
    return v - alpha * xv - beta * ax


def retract_to_sigma(model: SymplecticModel, a, z) -> np.ndarray:
    """Rescale a nearby ambient point back onto Sigma_A."""
    val = sigma_value(model, a, z)
    if val <= 0:
        raise ValueError("cannot retract: Omega(z, Az) <= 0")
    return as_vector(z) / np.sqrt(val)


def horizontality_residual(model: SymplecticModel, a, x, v) -> float:
    xv = as_vector(x)
    ax = as_matrix(a) @ xv
    return max(abs(model.pairing(v, xv)), abs(model.pairing(v, ax)))


def _lift_darboux(model: SymplecticModel, x: np.ndarray, tangents: np.ndarray) -> np.ndarray:
    """Closed-form horizontal lift in the (y0, Y, gamma) chart.

    lift(d_y0)    = sh(a) d_x1 + ch(a) d_x2
    lift(d_ya)    = d_Xa + (Omega0 X)_a (ch(a) d_x1 + sh(a) d_x2)
    lift(d_gamma) = d_alpha + (2 x1 sh ch - x2 (ch^2+sh^2)) d_x1
                            + (x1 (ch^2+sh^2) - 2 x2 sh ch) d_x2
    with d_alpha = sh(a) d_{x*1} + ch(a) d_{x*2}.  ``tangents`` is one
    (2n,) tangent or a (2n, m) matrix of tangents, one per column.
    """
    xs_small, capx, xs = _split_nilpotent(model, x)
    ch, sh = xs[0], xs[1]
    dy0, dy, dgamma = tangents[0], tangents[1:-1], tangents[-1]
    coef = (model.omega0 @ capx) @ dy
    ch2sh2 = ch * ch + sh * sh
    d_x1 = (dy0 * sh + coef * ch
            + dgamma * (2.0 * xs_small[0] * sh * ch - xs_small[1] * ch2sh2))
    d_x2 = (dy0 * ch + coef * sh
            + dgamma * (xs_small[0] * ch2sh2 - 2.0 * xs_small[1] * sh * ch))
    return np.concatenate([np.array([d_x1, d_x2]), dy, np.array([dgamma * sh, dgamma * ch])])


def pushforward(model: SymplecticModel, a, x, v, fd_step: float = DEFAULT_FD_STEP) -> np.ndarray:
    """Finite-difference differential of the projection applied to an ambient tangent."""
    xv = as_vector(x)
    plus = project(model, a, retract_to_sigma(model, a, xv + fd_step * v)).coords
    minus = project(model, a, retract_to_sigma(model, a, xv - fd_step * v)).coords
    return (plus - minus) / (2.0 * fd_step)


def pushforward_darboux(model: SymplecticModel, x, v) -> np.ndarray:
    """Exact differential of the (y0, Y, gamma) projection on tangents of Sigma_A."""
    xs_small, capx, xs = _split_nilpotent(model, as_vector(x))
    ch, sh = xs[0], xs[1]
    vx, vcapx, vxs = _split_nilpotent(model, np.asarray(v, dtype=float))
    beta = vxs[1] / ch  # tangent of the hyperbola: v_* = beta * (sh, ch)
    dy0 = -vx[0] * sh + vx[1] * ch + beta * (xs_small[1] * sh - xs_small[0] * ch)
    return np.concatenate([[dy0], vcapx, [beta]])


def differential_project(model: SymplecticModel, a, x, v) -> np.ndarray:
    """Exact differential of the projection on tangents of Sigma_A, per case."""
    kind = chart_kind(model)
    if kind is None:
        raise ChartUnavailableError("no chart for elliptic p > 1")
    xv = as_vector(x)
    v = np.asarray(v, dtype=float)
    if kind == "darboux":
        return pushforward_darboux(model, xv, v)
    if kind == "tangent_sphere":
        m = model.n + 1
        xp, xm = xv[:m], xv[m:]
        vp, vm = v[:m], v[m:]
        r = float(np.sqrt(xp @ xp))
        dr = float(xp @ vp) / r
        du = vp / r - xp * dr / (r * r)
        dw = dr * xm + r * vm + du / (2.0 * model.k)
        return np.concatenate([du, dw])
    if kind == "ball":
        z = _elliptic_z(model, xv)
        dz = _elliptic_z(model, v)
        w = z[1:] / z[0]
        dw = (dz[1:] - w * dz[0]) / z[0]
        return np.concatenate([dw.real, dw.imag])
    eps = model.eps
    xs_small, _, xs = _split_nilpotent(model, xv)
    vx, vcapx, vxs = _split_nilpotent(model, v)
    t = float(np.sum(eps * xs_small * xs))
    dt = float(np.sum(eps * (vx * xs + xs_small * vxs)))
    return np.concatenate([vx - dt * xs - t * vxs, vcapx, vxs])


def lift_tangent(model: SymplecticModel, a, x, chart_tangents) -> np.ndarray:
    """Horizontal lifts to H_x of chart tangents at project(x).

    ``chart_tangents`` is one (2n,) tangent or a (2n, m) matrix with one
    tangent per column; the lifts come back in the same layout.  The Darboux
    chart uses the closed-form lift table.  The other charts build the
    horizontal frame and the 2n x 2n differential of the projection on it
    once, then solve one least-squares system for all columns.  The solve
    uses the exact differential (``differential_project``) so the lift is
    smooth enough to sit inside second-derivative checks; the independent
    finite-difference route stays available as ``pushforward``.
    """
    tangents = np.asarray(chart_tangents, dtype=float)
    xv = as_vector(x)
    if chart_kind(model) == "darboux":
        return _lift_darboux(model, xv, tangents)
    frame = horizontal_basis(model, a, xv).vectors
    dmat = np.stack([differential_project(model, a, xv, v) for v in frame.T], axis=1)
    coeff, *_ = np.linalg.lstsq(dmat, tangents, rcond=None)
    return frame @ coeff


def reduced_omega(model: SymplecticModel, a, x, xbar, ybar,
                  tol: float = 1e-7) -> float:
    """Reduced symplectic form omega(X, Y) = Omega(Xbar, Ybar) on horizontal lifts."""
    for v in (xbar, ybar):
        scale = max(1.0, float(np.linalg.norm(v)))
        if horizontality_residual(model, a, x, v) > tol * scale:
            raise ValueError("input vector is not horizontal at x")
    return model.pairing(np.asarray(xbar, float), np.asarray(ybar, float))


def darboux_matrix(model: SymplecticModel) -> np.ndarray:
    """Constant chart matrix of omega in (y0, Y, gamma) coordinates."""
    d = 2 * model.n
    mat = np.zeros((d, d))
    mat[0, -1] = 1.0
    mat[-1, 0] = -1.0
    mat[1:-1, 1:-1] = model.omega0
    return mat


def chart_omega_matrix(model: SymplecticModel, a, x) -> np.ndarray:
    """Matrix of the reduced form on the local coordinate directions at project(x).

    The ``LocalChart`` is centred at cp = project(x) and the form is evaluated
    on the lifts at chart_section(cp), the point of the fiber that the chart
    section picks; omega is invariant along the fiber.
    """
    cp = project(model, a, x)
    dirs = LocalChart(model, a, cp).coordinate_tangents(cp)
    lifts = lift_tangent(model, a, chart_section(model, a, cp), dirs)
    return lifts.T @ model.omega @ lifts


def connection_nabla(model: SymplecticModel, a, x, xbar, yfield,
                     fd_step: float = DEFAULT_FD_STEP) -> np.ndarray:
    """Covariant derivative of a horizontal field in a horizontal direction.

    Evaluates D0_{Xbar} Ybar - Omega(A Xbar, Ybar) x + Omega(Xbar, Ybar) Ax,
    where the flat term D0 is a central finite difference of the field along
    the retracted line through x.
    """
    if fd_step <= 0:
        raise ValueError("fd_step must be positive")
    xv = as_vector(x)
    amat = as_matrix(a)
    xbar = np.asarray(xbar, dtype=float)
    y_here = np.asarray(yfield(xv), dtype=float)
    y_plus = np.asarray(yfield(retract_to_sigma(model, a, xv + fd_step * xbar)), dtype=float)
    y_minus = np.asarray(yfield(retract_to_sigma(model, a, xv - fd_step * xbar)), dtype=float)
    flat = (y_plus - y_minus) / (2.0 * fd_step)
    return (flat
            - model.pairing(amat @ xbar, y_here) * xv
            + model.pairing(xbar, y_here) * (amat @ xv))


def curvature(model: SymplecticModel, a, xbar, ybar, zbar) -> np.ndarray:
    """Curvature endomorphism applied to horizontal vectors.

    R(X, Y)Z = -2 Omega(X,Y) AZ - Omega(X,Z) AY + Omega(Y,Z) AX
               + Omega(AX,Z) Y - Omega(AY,Z) X
    """
    amat = as_matrix(a)
    om = model.omega
    xbar, ybar, zbar = (np.asarray(v, dtype=float) for v in (xbar, ybar, zbar))
    return (-2.0 * (xbar @ om @ ybar) * (amat @ zbar)
            - (xbar @ om @ zbar) * (amat @ ybar)
            + (ybar @ om @ zbar) * (amat @ xbar)
            + ((amat @ xbar) @ om @ zbar) * ybar
            - ((amat @ ybar) @ om @ zbar) * xbar)


def _frame_tensors(model: SymplecticModel, a, frame: HorizontalFrame):
    v = frame.vectors
    amat = as_matrix(a)
    gram = v.T @ model.omega @ v          # G_ij = Omega(v_i, v_j)
    paired = (amat @ v).T @ model.omega @ v  # W_ij = Omega(A v_i, v_j), symmetric
    return gram, paired


def curvature_tensor(model: SymplecticModel, a, frame: HorizontalFrame) -> np.ndarray:
    """R(v_i, v_j, v_k, v_l) = Omega(R(v_i, v_j) v_k, v_l) on the frame."""
    gram, paired = _frame_tensors(model, a, frame)
    r4 = (-2.0 * np.einsum("ij,kl->ijkl", gram, paired)
          - np.einsum("ik,jl->ijkl", gram, paired)
          + np.einsum("jk,il->ijkl", gram, paired)
          + np.einsum("ik,jl->ijkl", paired, gram)
          - np.einsum("jk,il->ijkl", paired, gram))
    return r4


def ricci_endomorphism(model: SymplecticModel, a, frame: HorizontalFrame) -> np.ndarray:
    """Matrix of the Ricci endomorphism -2(n+1) A restricted to H_x, in the frame."""
    v = frame.vectors
    amat = as_matrix(a)
    av = amat @ v
    coeff = v.T @ av  # frame is Euclidean-orthonormal and A preserves H_x
    if np.max(np.abs(v @ coeff - av)) > 1e-8:
        raise ValueError("frame mismatch: A does not preserve the given frame span")
    return -2.0 * (model.n + 1) * coeff


def ricci_type_residual(model: SymplecticModel, a,
                        frame: HorizontalFrame) -> tuple[float, np.ndarray]:
    """Sup-norm of R - E(r) over all frame 4-tuples, and the Ricci tensor r.

    E(X,Y,Z,T) = -1/(2n+2) [2 w(X,Y) r(Z,T) + w(X,Z) r(Y,T) + w(X,T) r(Y,Z)
                            - w(Y,Z) r(X,T) - w(Y,T) r(X,Z)]
    with r(X, Y) = Tr(Z -> R(X, Z) Y) the trace Ricci tensor of the curvature
    itself, in frame coordinates.  The residual is zero for Ricci-type
    curvature.
    """
    gram, _ = _frame_tensors(model, a, frame)
    r4 = curvature_tensor(model, a, frame)
    # coefficient of v_m in R(v_i, v_m) v_j, traced over m
    ric = -np.einsum("ma,imja->ij", np.linalg.inv(gram), r4)
    factor = -1.0 / (2.0 * (model.n + 1))
    e4 = factor * (2.0 * np.einsum("ij,kl->ijkl", gram, ric)
                   + np.einsum("ik,jl->ijkl", gram, ric)
                   + np.einsum("il,jk->ijkl", gram, ric)
                   - np.einsum("jk,il->ijkl", gram, ric)
                   - np.einsum("jl,ik->ijkl", gram, ric))
    return float(np.max(np.abs(r4 - e4))), ric


def curvature_cyclic_residual(model: SymplecticModel, a, frame: HorizontalFrame,
                              triples: int = 50, seed: int = 0) -> float:
    """Max norm of R(X,Y)Z + R(Y,Z)X + R(Z,X)Y over random horizontal triples."""
    rng = np.random.default_rng(seed)
    res = []
    for _ in range(triples):
        c = rng.standard_normal((3, frame.vectors.shape[1]))
        xb, yb, zb = (frame.vectors @ ci for ci in c)
        total = (curvature(model, a, xb, yb, zb)
                 + curvature(model, a, yb, zb, xb)
                 + curvature(model, a, zb, xb, yb))
        res.append(np.max(np.abs(total)))
    return float(np.max(res, initial=0.0))


def symmetry_matrix(model: SymplecticModel, a, x) -> np.ndarray:
    """Linear symmetry S_x y = -y + 2 Omega(y, Ax) x - 2 Omega(y, x) Ax."""
    xv = as_vector(x)
    ax = as_matrix(a) @ xv
    return (-np.eye(model.ambient_dim)
            + 2.0 * np.outer(xv, model.omega @ ax)
            - 2.0 * np.outer(ax, model.omega @ xv))


def centralizes_a_residual(model: SymplecticModel, a, g: np.ndarray) -> tuple[float, float]:
    """Residuals of (g in Sp, gA = Ag)."""
    amat = as_matrix(a)
    sp_res = float(np.max(np.abs(g.T @ model.omega @ g - model.omega)))
    comm_res = float(np.max(np.abs(g @ amat - amat @ g)))
    return sp_res, comm_res


def act_chart(model: SymplecticModel, a, g: np.ndarray, cp: ChartPoint,
              tol: float = 1e-8) -> ChartPoint:
    """Induced action of a centralizing symplectic map on chart points."""
    sp_res, comm_res = centralizes_a_residual(model, a, g)
    if sp_res > tol or comm_res > tol:
        raise ValueError(
            f"g is not in the centralizer of A in Sp (residuals {sp_res:.2e}, {comm_res:.2e})")
    return project(model, a, g @ chart_section(model, a, cp))


def act_tangent_sphere(b: np.ndarray, u: np.ndarray, w: np.ndarray,
                       k: float) -> tuple[np.ndarray, np.ndarray]:
    """Closed-form GL(n+1) action on the tangent-sphere chart.

    B.(u, w) = (Bu/|Bu|, |Bu| B^{-T}(w - u/2k) + Bu/(2k |Bu|))
    """
    bu = b @ u
    r = float(np.sqrt(bu @ bu))
    u2 = bu / r
    w2 = r * np.linalg.solve(b.T, w - u / (2.0 * k)) + u2 / (2.0 * k)
    return u2, w2


def gl_to_sp_hyperbolic(model: SymplecticModel, b: np.ndarray) -> np.ndarray:
    """Embed B in GL(n+1) as diag(B, B^{-T}) in Sp, centralizing A."""
    m = model.n + 1
    g = np.zeros((2 * m, 2 * m))
    g[:m, :m] = b
    g[m:, m:] = np.linalg.inv(b).T
    return g


class LocalChart:
    """Genuine local coordinates around a chart point.

    The intrinsic charts (ball, darboux) are global coordinate systems and
    the local map is a translation.  The embedded representations
    (tangent_sphere, quadric) get a graph chart: one constrained coordinate
    pair is solved from the defining equations.
    """

    def __init__(self, model: SymplecticModel, a, center: ChartPoint):
        self.model = model
        self.a = a
        self.kind = center.kind
        self.center = center
        if self.kind == "tangent_sphere":
            m = model.n + 1
            u = center.coords[:m]
            self.pivot = int(np.argmax(np.abs(u)))
            self.sign = 1.0 if u[self.pivot] >= 0 else -1.0
        elif self.kind == "quadric":
            p = model.p
            xs = center.coords[-p:]
            weighted = model.eps * xs
            self.pivot = int(np.argmax(np.abs(weighted)))
            self.sign = 1.0 if xs[self.pivot] >= 0 else -1.0

    @property
    def dim(self) -> int:
        return 2 * self.model.n

    def to_local(self, cp: ChartPoint) -> np.ndarray:
        c = cp.coords
        if self.kind in ("ball", "darboux"):
            return c - self.center.coords
        if self.kind == "tangent_sphere":
            m = self.model.n + 1
            idx = [i for i in range(m) if i != self.pivot]
            return np.concatenate([c[:m][idx], c[m:][idx]])
        p = self.model.p
        m2 = 2 * (self.model.n + 1 - p)
        idx = [i for i in range(p) if i != self.pivot]
        return np.concatenate([c[:p][idx], c[p:p + m2], c[p + m2:][idx]])

    def from_local(self, local: np.ndarray) -> ChartPoint:
        if self.kind in ("ball", "darboux"):
            return ChartPoint(self.center.case, self.kind, self.center.coords + local)
        if self.kind == "tangent_sphere":
            m = self.model.n + 1
            idx = [i for i in range(m) if i != self.pivot]
            u = np.zeros(m)
            w = np.zeros(m)
            u[idx] = local[:m - 1]
            w[idx] = local[m - 1:]
            u[self.pivot] = self.sign * np.sqrt(1.0 - float(u[idx] @ u[idx]))
            w[self.pivot] = -float(u[idx] @ w[idx]) / u[self.pivot]
            return ChartPoint(self.center.case, self.kind, np.concatenate([u, w]))
        p = self.model.p
        m2 = 2 * (self.model.n + 1 - p)
        eps = self.model.eps
        idx = [i for i in range(p) if i != self.pivot]
        xs_small = np.zeros(p)
        xs = np.zeros(p)
        xs_small[idx] = local[:p - 1]
        capx = local[p - 1:p - 1 + m2]
        xs[idx] = local[p - 1 + m2:]
        rad = eps[self.pivot] * (1.0 - float(np.sum(eps[idx] * xs[idx] ** 2)))
        if rad <= 0:
            raise ValueError("local coordinates leave the graph chart domain")
        xs[self.pivot] = self.sign * np.sqrt(rad)
        xs_small[self.pivot] = (-float(np.sum(eps[idx] * xs_small[idx] * xs[idx]))
                                / (eps[self.pivot] * xs[self.pivot]))
        return ChartPoint(self.center.case, self.kind,
                          np.concatenate([xs_small, capx, xs]))

    def coordinate_tangents(self, cp: ChartPoint) -> np.ndarray:
        """Chart-representation tangents of the local coordinate fields at cp (exact)."""
        if self.kind in ("ball", "darboux"):
            return np.eye(self.dim)
        c = cp.coords
        if self.kind == "tangent_sphere":
            m = self.model.n + 1
            u, w = c[:m], c[m:]
            idx = [i for i in range(m) if i != self.pivot]
            cols = []
            for i in idx:  # d/du_i
                du = np.zeros(m)
                dw = np.zeros(m)
                du[i] = 1.0
                du[self.pivot] = -u[i] / u[self.pivot]
                dw[self.pivot] = (-w[i] / u[self.pivot]
                                  + w[self.pivot] * u[i] / u[self.pivot] ** 2)
                cols.append(np.concatenate([du, dw]))
            for i in idx:  # d/dw_i
                du = np.zeros(m)
                dw = np.zeros(m)
                dw[i] = 1.0
                dw[self.pivot] = -u[i] / u[self.pivot]
                cols.append(np.concatenate([du, dw]))
            return np.stack(cols, axis=1)
        p = self.model.p
        m2 = 2 * (self.model.n + 1 - p)
        eps = self.model.eps
        xs_small, _, xs = c[:p], c[p:p + m2], c[p + m2:]
        idx = [i for i in range(p) if i != self.pivot]
        piv = self.pivot
        cols = []
        for i in idx:  # d/dx_i
            dsm = np.zeros(p)
            dsm[i] = 1.0
            dsm[piv] = -eps[i] * xs[i] / (eps[piv] * xs[piv])
            cols.append(np.concatenate([dsm, np.zeros(m2), np.zeros(p)]))
        for j in range(m2):  # d/dX_j
            dcap = np.zeros(m2)
            dcap[j] = 1.0
            cols.append(np.concatenate([np.zeros(p), dcap, np.zeros(p)]))
        for i in idx:  # d/dx*_i
            dsm = np.zeros(p)
            dxs = np.zeros(p)
            dxs[i] = 1.0
            dxs[piv] = -eps[piv] * eps[i] * xs[i] / xs[piv]
            dsm[piv] = (-eps[i] * xs_small[i] / (eps[piv] * xs[piv])
                        + eps[piv] * eps[i] * xs[i] * xs_small[piv] / xs[piv] ** 2)
            cols.append(np.concatenate([dsm, np.zeros(m2), dxs]))
        return np.stack(cols, axis=1)


def coordinate_field(model: SymplecticModel, a, local: LocalChart, index: int):
    """Horizontal lift of the index-th local coordinate field, as a field on Sigma_A."""

    def field(z):
        cp = project(model, a, z)
        return lift_tangent(model, a, z, local.coordinate_tangents(cp)[:, index])

    return field


def symmetry_in_chart(model: SymplecticModel, a, x_center, cp: ChartPoint) -> ChartPoint:
    """The reduced symmetry s_{pi(x_center)} applied to a chart point."""
    s = symmetry_matrix(model, a, x_center)
    return project(model, a, s @ chart_section(model, a, cp))


def symmetry_pullback_residual(model: SymplecticModel, a, x_center, cp: ChartPoint,
                               fd_step: float = DEFAULT_FD_STEP) -> float:
    """|J^T omega' J - omega| for the chart differential J of the reduced symmetry."""
    local = LocalChart(model, a, cp)
    image = symmetry_in_chart(model, a, x_center, cp)
    local_image = LocalChart(model, a, image)
    c0 = local.to_local(cp)
    d = local.dim
    jac = np.zeros((d, d))
    for i in range(d):
        e = np.zeros(d)
        e[i] = fd_step
        plus = local_image.to_local(symmetry_in_chart(model, a, x_center, local.from_local(c0 + e)))
        minus = local_image.to_local(symmetry_in_chart(model, a, x_center, local.from_local(c0 - e)))
        jac[:, i] = (plus - minus) / (2.0 * fd_step)
    w_here = chart_omega_matrix(model, a, chart_section(model, a, cp))
    w_image = chart_omega_matrix(model, a, chart_section(model, a, image))
    return float(np.max(np.abs(jac.T @ w_image @ jac - w_here)))


def reduced_symmetry_report(model: SymplecticModel, a, x_center, samples,
                            fd_step: float = DEFAULT_FD_STEP) -> dict:
    """Residuals of the reduced-symmetry axioms at the given Sigma_A samples.

    Returns ambient involution/symplectic/commutation residuals, the chart
    fixed-point and involutivity defects, and the symplectic-pullback
    residual of the chart differential (where a chart exists).
    """
    s = symmetry_matrix(model, a, x_center)
    out = {
        "symmetry_squared": float(np.max(np.abs(s @ s - np.eye(model.ambient_dim)))),
        "symmetry_symplectic": float(np.max(np.abs(s.T @ model.omega @ s - model.omega))),
        "symmetry_commutes_A": float(np.max(np.abs(s @ as_matrix(a) - as_matrix(a) @ s))),
        "chart_available": chart_kind(model) is not None,
    }
    if not out["chart_available"]:
        out["fixed_point"] = fiber_distance(model, a, x_center, s @ as_vector(x_center))
        out["involution_in_chart"] = float(np.max(
            [fiber_distance(model, a, as_vector(p), s @ (s @ as_vector(p))) for p in samples]))
        return out
    center_cp = project(model, a, x_center)
    out["fixed_point"] = chart_distance(center_cp,
                                        symmetry_in_chart(model, a, x_center, center_cp))
    invol, pullback = [], []
    for pt in samples:
        cp = project(model, a, pt)
        once = symmetry_in_chart(model, a, x_center, cp)
        twice = symmetry_in_chart(model, a, x_center, once)
        invol.append(chart_distance(cp, twice))
        pullback.append(symmetry_pullback_residual(model, a, x_center, cp, fd_step))
    out["involution_in_chart"] = float(np.max(invol, initial=0.0))
    out["symplectic_pullback"] = float(np.max(pullback, initial=0.0))
    return out
