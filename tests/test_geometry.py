"""Reduction geometry: charts, lifts, reduced form, connection, curvature, symmetries."""

import tracemalloc

import numpy as np
import pytest

from riccitype import cli, core, geometry, lie
from riccitype.transitive import iwasawa as iwa
from riccitype.transitive import nilpotent as nil
from riccitype.transvection import base_point, transvection_algebra

from oracles import (act_chart, act_tangent_sphere, algebra_curvature_dense,
                     algebra_curvature_terms, connection_nabla, coordinate_field,
                     coordinate_tangents, curvature_tensor, dense_form, frame_pairing,
                     gl_to_sp_hyperbolic, horizontal_projection, horizontality_residual,
                     pushforward, reduced_omega, retract_to_sigma, ricci_type_defect,
                     ricci_type_defect_rows, ricci_type_residual_dense,
                     symmetry_chart_differential)

CHART_CASES = [
    ("hyperbolic", 2, None, None),
    ("elliptic", 2, 1, None),
    ("nilpotent", 2, 2, 1),
    ("nilpotent", 3, 3, 2),
]

ALL_CASES = CHART_CASES + [("elliptic", 2, 2, None)]


def build(case, n, p, q):
    return core.build_model(case, n, p=p, q=q)


def moderate_chart_point(model, rng, scale=0.6):
    """Chart coordinates with O(1) entries (keeps fd truncation terms small)."""
    kind = geometry.chart_kind(model)
    n = model.n
    if kind == "tangent_sphere":
        u = rng.standard_normal(n + 1)
        u /= np.linalg.norm(u)
        w = scale * rng.standard_normal(n + 1)
        w -= (w @ u) * u
        return np.concatenate([u, w])
    if kind == "ball":
        v = rng.standard_normal(2 * n)
        return 0.7 * rng.uniform() ** (1.0 / (2 * n)) * v / np.linalg.norm(v)
    if kind == "darboux":
        return scale * rng.standard_normal(2 * n)
    p = model.p
    eps = model.eps
    xs = rng.standard_normal(p)
    pos = xs[:model.q]
    neg_sq = float(xs[model.q:] @ xs[model.q:])
    lam = np.sqrt((1.0 + neg_sq) / (pos @ pos))
    xs[:model.q] = lam * pos
    x_small = scale * rng.standard_normal(p)
    t = float(np.sum(eps * x_small * xs))
    x_small = x_small - t * xs  # enforce the linear constraint
    capx = scale * rng.standard_normal(2 * (n + 1 - p))
    return np.concatenate([x_small, capx, xs])


@pytest.mark.parametrize("case,n,p,q", ALL_CASES)
def test_horizontal_basis_frame(case, n, p, q):
    model = build(case, n, p, q)
    for pt in core.sample_sigma(model, 5, seed=2):
        frame = geometry.horizontal_basis(model, pt)
        assert frame.vectors.shape == (model.ambient_dim, 2 * n)
        ax = model.A @ pt
        for j in range(2 * n):
            v = frame.vectors[:, j]
            assert abs(model.pairing(v, pt)) <= 1e-12
            assert abs(model.pairing(v, ax)) <= 1e-12
        gram = frame.vectors.T @ model.omega @ frame.vectors
        assert abs(np.linalg.det(gram)) > 1e-8


def test_horizontal_basis_contains_f_directions():
    model = build("nilpotent", 2, 2, 1)
    x0 = base_point(model)
    frame = geometry.horizontal_basis(model, x0)
    span = frame.vectors @ frame.vectors.T  # orthonormal columns
    for a in range(2):
        f = np.zeros(6)
        f[2 + a] = 1.0
        assert np.linalg.norm(span @ f - f) <= 1e-12


def test_project_hyperbolic_formula():
    k = 1.3
    model = core.build_model("hyperbolic", 2, k=k)
    pt = core.sample_sigma(model, 1, seed=4)[0]
    xp, xm = pt[:3], pt[3:]
    r = np.sqrt(xp @ xp)
    cp = geometry.project(model, pt)
    u, w = cp[:3], cp[3:]
    assert np.allclose(u, xp / r)
    assert np.allclose(w, r * xm + u / (2 * k))
    assert abs(u @ u - 1.0) <= 1e-12
    assert abs(u @ w) <= 1e-12


def test_project_nilpotent_base_point_is_origin():
    model = build("nilpotent", 2, 2, 1)
    cp = geometry.project(model, base_point(model))
    assert np.max(np.abs(cp)) == 0


@pytest.mark.parametrize("case,n,p,q", CHART_CASES)
def test_project_flow_invariance(case, n, p, q):
    model = build(case, n, p, q)
    rng = np.random.default_rng(8)
    for pt in core.sample_sigma(model, 10, seed=8):
        cp = geometry.project(model, pt)
        for _ in range(2):
            t = float(rng.uniform(-3, 3))
            cp2 = geometry.project(model, model.flow(t) @ pt)
            assert np.max(np.abs(cp - cp2)) <= 1e-9


def test_project_flow_invariance_fiber_elliptic_p2():
    model = build("elliptic", 2, 2, None)
    with pytest.raises(geometry.ChartUnavailableError):
        geometry.project(model, core.sample_sigma(model, 1, seed=0)[0])
    for pt in core.sample_sigma(model, 10, seed=3):
        moved = model.flow(1.7) @ pt
        assert geometry.fiber_distance(model, pt, moved) <= 1e-10


def test_project_rejects_wrong_component():
    model = build("nilpotent", 2, 2, 1)
    pt = core.sample_sigma(model, 1, seed=0)[0]
    flipped = pt.copy()
    flipped[4:] = -flipped[4:]
    with pytest.raises(ValueError):
        geometry.project(model, flipped)


@pytest.mark.parametrize("case,n,p,q", CHART_CASES)
def test_chart_section_inverts_project(case, n, p, q):
    model = build(case, n, p, q)
    for pt in core.sample_sigma(model, 5, seed=11):
        cp = geometry.project(model, pt)
        x = geometry.chart_section(model, cp)
        assert abs(core.sigma_value(model, x) - 1.0) <= 1e-10
        assert np.max(np.abs(cp - geometry.project(model, x))) <= 1e-9


def test_lift_darboux_closed_form_table():
    model = build("nilpotent", 2, 2, 1)
    x = np.array([0.3, -0.7, 0.2, 0.5, 1.0, 0.0])  # gamma = 0
    lift_y0 = geometry.lift_tangent(model, x, [1.0, 0, 0, 0])
    assert np.allclose(lift_y0, [0, 1, 0, 0, 0, 0])
    lift_gamma = geometry.lift_tangent(model, x, [0, 0, 0, 1.0])
    assert np.allclose(lift_gamma, [0.7, 0.3, 0, 0, 0, 1.0])


@pytest.mark.parametrize("case,n,p,q", CHART_CASES)
def test_lift_roundtrip_fd_oracle(case, n, p, q):
    model = build(case, n, p, q)
    rng = np.random.default_rng(13)
    for pt in core.sample_sigma(model, 3, seed=13):
        frame = geometry.horizontal_basis(model, pt)
        v = frame.vectors @ rng.standard_normal(2 * n)
        tangent = pushforward(model, pt, v, fd_step=1e-5)
        lift = geometry.lift_tangent(model, pt, tangent)
        assert horizontality_residual(model, pt, lift) <= 1e-8
        back = pushforward(model, pt, lift, fd_step=1e-5)
        assert np.max(np.abs(back - tangent)) <= 1e-6


def lift_oracle(model, x, tangent):
    """The former one-tangent-at-a-time lift: a frame and 2n differentials per tangent."""
    if geometry.chart_kind(model) == "darboux":
        xs_small, capx, xs = x[:2], x[2:-2], x[-2:]
        ch, sh = xs[0], xs[1]
        dy0, dy, dgamma = tangent[0], tangent[1:-1], tangent[-1]
        out = np.zeros_like(x)
        coef = float(dy @ (model.omega0 @ capx))
        ch2sh2 = ch * ch + sh * sh
        out[0] = dy0 * sh + coef * ch + dgamma * (2.0 * xs_small[0] * sh * ch
                                                  - xs_small[1] * ch2sh2)
        out[1] = dy0 * ch + coef * sh + dgamma * (xs_small[0] * ch2sh2
                                                  - 2.0 * xs_small[1] * sh * ch)
        out[2:-2] = dy
        out[-2] = dgamma * sh
        out[-1] = dgamma * ch
        return out
    frame = geometry.horizontal_basis(model, x)
    mat = np.stack([geometry.differential_project(model, x, frame.vectors[:, j])
                    for j in range(frame.vectors.shape[1])], axis=1)
    coeff, *_ = np.linalg.lstsq(mat, tangent, rcond=None)
    return frame.vectors @ coeff


@pytest.mark.parametrize("case,n,p,q", CHART_CASES)
def test_lift_tangent_matrix_matches_per_column_oracle(case, n, p, q):
    model = build(case, n, p, q)
    rng = np.random.default_rng(59)
    for pt in core.sample_sigma(model, 4, seed=59):
        cp = geometry.project(model, pt)
        dirs = coordinate_tangents(model, cp, pt)
        tangents = np.concatenate([dirs, dirs @ rng.standard_normal((2 * n, 3))], axis=1)
        lifts = geometry.lift_tangent(model, pt, tangents)
        assert lifts.shape == (model.ambient_dim, tangents.shape[1])
        for j in range(tangents.shape[1]):
            want = lift_oracle(model, pt, tangents[:, j])
            scale = max(1.0, float(np.max(np.abs(want))))
            assert np.max(np.abs(lifts[:, j] - want)) <= 1e-12 * scale
            single = geometry.lift_tangent(model, pt, tangents[:, j])
            assert single.shape == (model.ambient_dim,)
            assert np.max(np.abs(single - want)) <= 1e-12 * scale


def count_calls(monkeypatch, names):
    """Wrap the named geometry functions; returns the call counts and the frame stacks."""
    calls = dict.fromkeys(names, 0)
    stacks = []

    def counted(name):
        original = getattr(geometry, name)

        def wrapper(*args, **kwargs):
            calls[name] += 1
            out = original(*args, **kwargs)
            if name == "horizontal_basis":
                stacks.append(out.vectors.shape[0] if out.vectors.ndim == 3 else None)
            return out
        monkeypatch.setattr(geometry, name, wrapper)

    for name in names:
        counted(name)
    return calls, stacks


def test_verify_geometry_builds_one_frame_per_sample(monkeypatch):
    calls, stacks = count_calls(monkeypatch, (
        "horizontal_basis", "differential_project", "lift_tangent", "ricci_type_residual",
        "ricci_endomorphism", "algebra_curvature"))
    counts = {}
    for samples in (10, 40):
        calls.update(dict.fromkeys(calls, 0))
        stacks.clear()
        config = cli.RunConfig(case="hyperbolic", n=2, samples=samples, seed=0)
        assert cli.cmd_verify_geometry(config).verdict == "PASS"
        # one frame at the base point for the curvature entries, then the
        # stacks of the image differential and of the lift of the pullback
        # over the first 20 samples
        assert stacks == [None, min(samples, 20), min(samples, 20)]
        assert calls["horizontal_basis"] == 1 + 2 * calls["lift_tangent"]
        assert calls["lift_tangent"] > 0
        # one differential of the whole frame stack per lift, and one image differential
        assert calls["differential_project"] == calls["lift_tangent"] + 1
        # the four curvature entries once, on the algebra's curvature and rho at
        # the base point
        assert calls["ricci_type_residual"] == calls["algebra_curvature"] == 1
        assert calls["ricci_endomorphism"] == 1
        counts[samples] = dict(calls)
    # no call count grows with the samples: no per-sample loop over the chart layer
    assert counts[10] == counts[40]


@pytest.mark.parametrize("case,n,p,q", [("nilpotent", 2, 2, 1), ("elliptic", 2, 1, None)])
def test_find_transitive_builds_one_field_stack_per_candidate(monkeypatch, case, n, p, q):
    calls, _ = count_calls(monkeypatch, ("differential_project",))
    counts = []
    for samples in (100, 300):
        calls["differential_project"] = 0
        config = cli.RunConfig(case=case, n=n, p=p, q=q, samples=samples, seed=0)
        report = cli.cmd_find_transitive(config)
        assert report.verdict == "PASS"
        candidates = sum(e.name.endswith(".transitive_rank") for e in report.entries)
        assert candidates > 0
        # one field stack over every chart point per candidate
        assert calls["differential_project"] <= candidates
        counts.append(calls["differential_project"])
    assert counts[0] == counts[1]


BATCH_CASES = core.admissible_parameters((2, 3)) + [("hyperbolic", 8, 0, 0)]


@pytest.mark.parametrize("case,n,p,q", BATCH_CASES)
def test_frame_stack_matches_single_frames(case, n, p, q):
    # the report values rest on the stacked calls giving each sample exactly
    # what the per-frame calls give it
    model = build(case, n, p or None, q or None)
    count = 20 if n == 8 else 6
    pts = core.sample_sigma(model, count, seed=73)
    frames = geometry.horizontal_basis(model, pts)
    assert frames.vectors.shape == (count, model.ambient_dim, 2 * n)
    assert all(frames.vectors[i].flags.c_contiguous for i in range(count))
    rho = geometry.ricci_endomorphism(model, frames)
    assert frames.gram.shape == rho.shape == (count, 2 * n, 2 * n)
    for i, pt in enumerate(pts):
        frame = geometry.horizontal_basis(model, pt)
        assert np.array_equal(frames.vectors[i], frame.vectors)
        assert np.array_equal(frames.gram[i], frame.gram)
        assert np.array_equal(frames.base[i], frame.base)
        assert np.array_equal(rho[i], geometry.ricci_endomorphism(model, frame))


@pytest.mark.parametrize("case,n,p,q", BATCH_CASES)
def test_chart_stack_matches_single_points(case, n, p, q):
    # every chart-layer function gives each row of a stack exactly what it gives
    # that point alone, so a stacked report reads the per-point values
    model = build(case, n, p or None, q or None)
    count = 20 if n == 8 else 6
    pts = core.sample_sigma(model, count, seed=83)
    ts = np.random.default_rng(83).uniform(-3.0, 3.0, size=count)
    flows = model.flow(ts)
    moved = core.apply_rows(flows, pts)
    sigma = core.sigma_value(model, pts)
    times = geometry.fiber_time(model, pts, moved)
    dists = geometry.fiber_distance(model, pts, moved)
    assert sigma.shape == times.shape == dists.shape == (count,)
    for i in range(count):
        assert np.array_equal(flows[i], model.flow(ts[i]))
        assert np.array_equal(moved[i], model.flow(ts[i]) @ pts[i])
        assert sigma[i] == core.sigma_value(model, pts[i])
        assert times[i] == geometry.fiber_time(model, pts[i], moved[i])
        assert dists[i] == geometry.fiber_distance(model, pts[i], moved[i])
    kind = geometry.chart_kind(model)
    if kind is None:
        return
    cps = geometry.project(model, pts)
    sections = geometry.chart_section(model, cps)
    frames = geometry.horizontal_basis(model, pts).vectors
    tangents = geometry.differential_project(model, pts, frames)
    first = geometry.differential_project(model, pts, frames[..., 0])
    lifts = geometry.lift_tangent(model, pts, tangents)
    s = geometry.symmetry_matrix(model, base_point(model))
    sx = core.apply_rows(s, sections)
    images = geometry.chart_section(model, geometry.project(model, sx))
    pullback = geometry.symmetry_pullback_residual(model, s, sections, sx, images)
    assert tangents.shape == (count, cps.shape[1], 2 * n) and pullback.shape == (count,)
    for i in range(count):
        assert np.array_equal(cps[i], geometry.project(model, pts[i]))
        assert np.array_equal(sections[i], geometry.chart_section(model, cps[i]))
        assert np.array_equal(tangents[i],
                              geometry.differential_project(model, pts[i], frames[i]))
        assert np.array_equal(first[i], geometry.differential_project(model, pts[i],
                                                                      frames[i][:, 0]))
        assert np.array_equal(lifts[i], geometry.lift_tangent(model, pts[i], tangents[i]))
        assert np.array_equal(sx[i], s @ sections[i])
        assert pullback[i] == geometry.symmetry_pullback_residual(model, s, sections[i],
                                                                  sx[i], images[i])
    if kind in ("ball", "darboux"):
        forms = geometry.chart_omega_matrix(model, pts)
        for i in range(count):
            assert np.array_equal(forms[i], geometry.chart_omega_matrix(model, pts[i]))


@pytest.mark.parametrize("case", ["nilpotent", "elliptic"])
def test_field_stack_matches_single_points(case):
    # the Darboux family of the nilpotent (2, 2, 1) model, and the Iwasawa h_phi on the ball
    rng = np.random.default_rng(89)
    if case == "nilpotent":
        model = build("nilpotent", 2, 2, 1)
        b_mat, c = np.diag([1.0, -1.0]), 1.0
        gens = nil.family_generators(nil.make_candidate(b_mat, c=c), model.omega0)
        coords = rng.standard_normal((30, 4))
    else:
        data = iwa.iwasawa_su1n(2)
        model = data.model
        gens = [iwa.build_a_phi(data, np.array([0.7]))[1], *data.nilpotent_part.basis]
        coords = iwa.sample_ball_points(2, 30, seed=89)
    fields = geometry.fundamental_fields(model, gens, coords)
    assert fields.shape == (30, 4, len(gens))
    for i in range(30):
        assert np.array_equal(fields[i], geometry.fundamental_fields(model, gens, coords[i]))
    if case == "nilpotent":
        residuals = nil.hamiltonian_residual(model, b_mat, c, fields, coords)
        assert residuals.shape == (30,)
        for i in range(30):
            assert residuals[i] == nil.hamiltonian_residual(model, b_mat, c, fields[i], coords[i])


@pytest.mark.parametrize("k", [1.0, 1e8])
def test_field_centralizer_guard_is_scale_free(k):
    # |[X, A]| grows with k; the guard reads [X, A / k] against max|X|, so the Iwasawa
    # generators (A_k = k A_1 has the centralizer of A_1) pass at any k and a generator
    # off the centralizer fails at any k
    data = iwa.iwasawa_su1n(2)
    model = core.build_model("elliptic", 2, k=k, p=1)
    gens = [iwa.build_a_phi(data, np.array([0.7]))[1], *data.nilpotent_part.basis]
    coords = iwa.sample_ball_points(2, 5, seed=3)
    assert geometry.fundamental_fields(model, gens, coords).shape == (5, 4, 4)
    sym = np.random.default_rng(5).standard_normal((6, 6))
    off = model.omega.T @ (sym + sym.T)  # in sp(Omega), not commuting with A
    for bad in (off, gens[0] + 1e-6 * off / np.max(np.abs(off))):
        with pytest.raises(ValueError, match="not in the centralizer of A"):
            geometry.fundamental_fields(model, [gens[0], bad], coords)


@pytest.mark.parametrize("k", [1e4, 1e8, 1e12])
def test_field_centralizer_guard_accepts_p_part_at_large_k(k):
    # the p-part of the elliptic p = 1 model at scale k: |[X, A]| is rounding of size
    # k max|X| eps, which an absolute 1e-8 bound refused from k = 1e8
    model = core.build_model("elliptic", 2, k=k, p=1)
    gens = transvection_algebra(model).p_part.basis
    coords = iwa.sample_ball_points(2, 5, seed=3)
    assert geometry.fundamental_fields(model, gens, coords).shape == (5, 4, len(gens))


def test_frame_stack_raises_for_a_bad_sample():
    model = build("hyperbolic", 2, None, None)
    pts = core.sample_sigma(model, 3, seed=79)
    pts[1] = 0.0  # span{x, Ax} collapses: rank deficient
    with pytest.raises(ValueError, match="rank deficient"):
        geometry.horizontal_basis(model, pts)


@pytest.mark.parametrize("case,n,p,q", CHART_CASES)
def test_differential_project_matches_fd(case, n, p, q):
    model = build(case, n, p, q)
    rng = np.random.default_rng(14)
    pt = core.sample_sigma(model, 1, seed=14)[0]
    frame = geometry.horizontal_basis(model, pt)
    # the frame, a random horizontal tangent, and A x (tangent to the fiber, mapped to 0)
    tangents = np.column_stack([frame.vectors, frame.vectors @ rng.standard_normal(2 * n),
                                model.A @ pt])
    exact = geometry.differential_project(model, pt, tangents)
    chart_dim = geometry.project(model, pt).shape[0]
    assert exact.shape == (chart_dim, tangents.shape[1])
    for j in range(tangents.shape[1]):
        single = geometry.differential_project(model, pt, tangents[:, j])
        assert single.shape == (chart_dim,)
        assert np.max(np.abs(exact[:, j] - single)) <= 1e-14
        fd = pushforward(model, pt, tangents[:, j], fd_step=1e-5)
        assert np.max(np.abs(exact[:, j] - fd)) <= 1e-6


@pytest.mark.parametrize("order", ["C", "F"])
@pytest.mark.parametrize("seed", [0, 1, 2, 3])
def test_reduced_omega_antisymmetry_and_errors(seed, order):
    # exact in rounding, whatever the memory layout of the frame the vectors come from
    for case, n, p, q in CHART_CASES:
        model = build(case, n, p, q)
        for pt in core.sample_sigma(model, 10, seed=seed):
            vecs = np.asarray(geometry.horizontal_basis(model, pt).vectors, order=order)
            for i, v in enumerate(vecs.T):
                assert reduced_omega(model, pt, v, v) == 0
                for w in vecs.T[i + 1:]:
                    vw = reduced_omega(model, pt, v, w)
                    assert vw == -reduced_omega(model, pt, w, v)
    with pytest.raises(ValueError):
        reduced_omega(model, pt, pt, w)


@pytest.mark.parametrize("case,n,p,q", [("hyperbolic", 2, None, None), ("nilpotent", 3, 3, 2)])
def test_chart_omega_matrix_needs_an_intrinsic_chart(case, n, p, q):
    # the tangent-sphere and quadric representations are embedded, not coordinate systems
    model = build(case, n, p, q)
    pt = core.sample_sigma(model, 1, seed=0)[0]
    with pytest.raises(geometry.ChartUnavailableError, match="needs the ball or Darboux chart"):
        geometry.chart_omega_matrix(model, pt)


def test_darboux_chart_matrix_constant():
    model = build("nilpotent", 2, 2, 1)
    dar = geometry.darboux_matrix(model)
    assert dar[0, -1] == 1.0 and dar[-1, 0] == -1.0
    worst = 0.0
    for pt in core.sample_sigma(model, 20, seed=6):
        mat = geometry.chart_omega_matrix(model, pt)
        worst = max(worst, float(np.max(np.abs(mat - dar))))
    assert worst <= 1e-8


def test_darboux_lift_omega_values():
    model = build("nilpotent", 2, 2, 1)
    om0 = model.omega0
    rng = np.random.default_rng(21)
    for _ in range(20):
        cp = moderate_chart_point(model, rng, scale=1.0)
        x = geometry.chart_section(model, cp)
        lifts = [geometry.lift_tangent(model, x, e) for e in np.eye(4)]
        assert abs(model.pairing(lifts[0], lifts[3]) - 1.0) <= 1e-12
        assert abs(model.pairing(lifts[1], lifts[2]) - om0[0, 1]) <= 1e-12


def constant_projection_field(model, c):
    def field(z):
        return horizontal_projection(model, z, c)
    return field


@pytest.mark.parametrize("case,n,p,q", [("hyperbolic", 2, None, None),
                                        ("nilpotent", 2, 2, 1),
                                        ("elliptic", 2, 1, None)])
def test_connection_against_analytic_oracle(case, n, p, q):
    # field = horizontal projection of a constant vector; its flat derivative
    # has a closed form, giving an independent value for the connection
    model = build(case, n, p, q)
    a = model.A
    pt = core.sample_sigma(model, 1, seed=9)[0]
    rng = np.random.default_rng(9)
    c = rng.standard_normal(model.ambient_dim)
    frame = geometry.horizontal_basis(model, pt)
    xbar = frame.vectors @ rng.standard_normal(2 * n)
    field = constant_projection_field(model, c)
    got = connection_nabla(model, pt, xbar, field)
    x = pt
    ax = a @ x
    y_here = field(x)
    flat = -(model.pairing(c, a @ xbar) * x + model.pairing(c, ax) * xbar
             - model.pairing(c, xbar) * ax - model.pairing(c, x) * (a @ xbar))
    want = (flat - model.pairing(a @ xbar, y_here) * x
            + model.pairing(xbar, y_here) * ax)
    assert np.max(np.abs(got - want)) <= 1e-6


def test_connection_rejects_bad_step():
    model = build("nilpotent", 2, 2, 1)
    pt = core.sample_sigma(model, 1, seed=0)[0]
    with pytest.raises(ValueError):
        connection_nabla(model, pt, np.zeros(6), lambda z: z, fd_step=0.0)


@pytest.mark.parametrize("case,n,p,q", CHART_CASES)
def test_connection_torsion_free_on_coordinate_fields(case, n, p, q):
    model = build(case, n, p, q)
    rng = np.random.default_rng(31)
    cp = moderate_chart_point(model, rng)
    x = geometry.chart_section(model, cp)
    pairs = [(0, 1), (1, 2), (0, 2), (2, 3), (1, 3)]
    for i, j in pairs:
        fi = coordinate_field(model, cp, i)
        fj = coordinate_field(model, cp, j)
        nij = connection_nabla(model, x, fi(x), fj)
        nji = connection_nabla(model, x, fj(x), fi)
        assert np.max(np.abs(nij - nji)) <= 1e-5


@pytest.mark.parametrize("case,n,p,q", CHART_CASES)
def test_connection_parallel_omega(case, n, p, q):
    model = build(case, n, p, q)
    rng = np.random.default_rng(33)
    cp = moderate_chart_point(model, rng)
    x = geometry.chart_section(model, cp)
    fields = [coordinate_field(model, cp, i) for i in range(3)]
    fx, fy, fz = fields
    h = 1e-5

    def w_yz(z):
        return float(fy(z) @ model.omega @ fz(z))

    xbar = fx(x)
    xp = retract_to_sigma(model, x + h * xbar)
    xm = retract_to_sigma(model, x - h * xbar)
    deriv = (w_yz(xp) - w_yz(xm)) / (2 * h)
    nxy = connection_nabla(model, x, xbar, fy)
    nxz = connection_nabla(model, x, xbar, fz)
    residual = abs(deriv - float(nxy @ model.omega @ fz(x))
                   - float(fy(x) @ model.omega @ nxz))
    assert residual <= 1e-5


def _cyclic_sum(curv):
    """R_ijkl + R_jkil + R_kijl of a whole (2n)^4 curvature array."""
    return curv + np.transpose(curv, (2, 0, 1, 3)) + np.transpose(curv, (1, 2, 0, 3))


@pytest.mark.parametrize("case,n,p,q", ALL_CASES)
def test_curvature_antisymmetry_and_cyclic(case, n, p, q):
    # the algebra's curvature at a sampled point, not only at the base point
    model = build(case, n, p, q)
    pt = core.sample_sigma(model, 1, seed=17)[0]
    frame = geometry.horizontal_basis(model, pt)
    support = geometry.algebra_curvature(model, frame)
    curv = dense_form(support, 2 * n)
    assert np.max(np.abs(curv + np.swapaxes(curv, 0, 1))) <= 1e-12
    # the kernel reads the cyclic sum on j, k > i: exactly the whole array's
    # sum there, and its sup up to the order of the three terms elsewhere
    cyclic = geometry._ricci_type_defect(support, frame.gram, n)[2]
    whole = np.abs(_cyclic_sum(curv))
    i, j, k = np.indices(curv.shape[:3])
    assert cyclic == np.max(whole[(j > i) & (k > i)])
    assert abs(cyclic - np.max(whole)) <= 1e-14 * max(1.0, float(np.max(np.abs(curv))))
    assert cyclic <= 1e-9
    # the closed form, materialized by the oracle, is cyclic too
    closed = curvature_tensor(frame.gram, frame_pairing(model, frame))
    assert np.max(np.abs(_cyclic_sum(closed))) <= 1e-9


def test_curvature_vanishes_on_kernel_directions():
    # mu = 0: on horizontal vectors killed by A the closed form collapses, and so
    # does the algebra's curvature
    model = build("nilpotent", 2, 2, 1)
    x0 = base_point(model)
    frame = geometry.horizontal_basis(model, x0)
    f1 = np.zeros(6)
    f1[2] = 1.0
    f2 = np.zeros(6)
    f2[3] = 1.0
    # A f = 0, and f1, f2 lie in H_x0, so their frame coefficients give them back
    c1, c2 = frame.vectors.T @ f1, frame.vectors.T @ f2
    assert np.array_equal(frame.vectors @ c1, f1) and np.array_equal(frame.vectors @ c2, f2)
    # Omega(R(f1, f2) f1, v_l) for every frame vector v_l; Omega is nondegenerate on H_x0
    out = np.einsum("i,j,k,ijkl->l", c1, c2, c1,
                    dense_form(geometry.algebra_curvature(model, frame), 4))
    assert np.max(np.abs(out)) <= 1e-14


@pytest.mark.parametrize("case,n,p,q", ALL_CASES)
def test_ricci_endomorphism_square_and_trace_route(case, n, p, q):
    model = build(case, n, p, q)
    ident = np.eye(2 * n)
    for pt in core.sample_sigma(model, 20, seed=19):
        frame = geometry.horizontal_basis(model, pt)
        rho = geometry.ricci_endomorphism(model, frame)
        assert np.max(np.abs(rho @ rho - 4 * (n + 1) ** 2 * model.mu * ident)) <= 1e-9
        gram = frame.vectors.T @ model.omega @ frame.vectors
        # the trace of the closed-form curvature, materialized by the einsum oracle
        trace_ric = ricci_type_defect(gram, frame_pairing(model, frame), n)[1]
        assert np.max(np.abs(gram @ rho - trace_ric)) <= 1e-9


def test_ricci_endomorphism_nilpotent_square_zero():
    model = build("nilpotent", 3, 2, 2)
    pt = core.sample_sigma(model, 1, seed=23)[0]
    rho = geometry.ricci_endomorphism(model, geometry.horizontal_basis(model, pt))
    assert np.max(np.abs(rho @ rho)) <= 1e-10


@pytest.mark.parametrize("k", [1e9, 1e12])
def test_ricci_endomorphism_accepts_sampled_frames_at_large_k(k):
    # A v grows like k: on sampled CP^2 frames the guard's defect reads about
    # 3e-7 absolute at k = 1e9 but 3e-16 relative to max|A|
    model = core.build_model("elliptic", 2, k=k, p=3)
    frames = geometry.horizontal_basis(model, core.sample_sigma(model, 6, seed=41))
    rho = geometry.ricci_endomorphism(model, frames)
    assert rho.shape == (6, 4, 4)
    assert np.max(np.abs(rho @ rho - 36.0 * model.mu * np.eye(4))) <= 1e-12 * abs(model.mu)


@pytest.mark.parametrize("k", [1.0, 1e9])
def test_ricci_endomorphism_refuses_a_tilted_frame(k):
    # one frame vector tilted by 1e-6 towards x: A no longer preserves the span,
    # and the relative guard still sees it at large k
    model = core.build_model("elliptic", 2, k=k, p=3)
    frame = geometry.horizontal_basis(model, core.sample_sigma(model, 1, seed=41)[0])
    vectors = frame.vectors.copy()
    vectors[:, 0] += 1e-6 * frame.base / np.linalg.norm(frame.base)
    vectors = np.linalg.qr(vectors)[0]
    tilted = geometry.HorizontalFrame(frame.base, vectors, vectors.T @ model.omega @ vectors)
    with pytest.raises(ValueError, match="frame mismatch"):
        geometry.ricci_endomorphism(model, tilted)


@pytest.mark.parametrize("case,n,p,q", [
    ("hyperbolic", 2, None, None), ("hyperbolic", 3, None, None), ("hyperbolic", 4, None, None),
    ("elliptic", 2, 1, None), ("elliptic", 2, 2, None), ("elliptic", 3, 2, None),
    ("elliptic", 4, 5, None),
    ("nilpotent", 2, 2, 1), ("nilpotent", 3, 3, 2), ("nilpotent", 4, 5, 3),
    ("nilpotent", 4, 3, 1),
])
def test_ricci_type_residual_small(case, n, p, q):
    # the algebra route holds at every point, not only at the base point
    model = build(case, n, p, q)
    for pt in [base_point(model), *core.sample_sigma(model, 10, seed=29)]:
        res = geometry.ricci_type_residual(model, pt)
        assert res["ricci_type"] <= 1e-8
        assert res["trace_route"] <= 1e-9
        assert res["cyclic"] <= 1e-9
        assert res["square"] <= 1e-9


def test_ricci_type_residual_frame_rebase_invariant():
    model = build("elliptic", 2, 1, None)
    pt = core.sample_sigma(model, 1, seed=31)[0]
    base = geometry.ricci_type_residual(model, pt)["ricci_type"]
    # the residual is tensorial: recomputing on a re-based frame changes nothing
    # beyond conditioning
    frame = geometry.horizontal_basis(model, pt)
    rng = np.random.default_rng(31)
    mix = np.linalg.qr(rng.standard_normal((4, 4)))[0]
    vectors = frame.vectors @ mix
    rebased = geometry.HorizontalFrame(pt, vectors, vectors.T @ model.omega @ vectors)
    curv = geometry.algebra_curvature(model, rebased)
    gram = rebased.gram
    residual, ric, cyclic = geometry._ricci_type_defect(curv, gram, model.n)
    assert cyclic <= 1e-9
    paired = frame_pairing(model, rebased)
    want, want_ric = ricci_type_defect(gram, paired, model.n)
    assert residual <= 1e-8
    assert want <= 1e-8
    assert base <= 1e-8
    assert _relative(ric, want_ric) <= 1e-12
    # on the re-based frame a wrong coefficient still reads a real defect at its true size
    for wrong_n in (model.n - 1, model.n + 1):
        got = geometry._ricci_type_defect(curv, gram, wrong_n)[0]
        want = ricci_type_defect(gram, paired, wrong_n)[0]
        assert want > 1e-2
        assert abs(got - want) <= 1e-12 * want


def _relative(got, want):
    return float(np.max(np.abs(got - want)) / np.max(np.abs(want)))


def test_ricci_type_defect_detects_wrong_coefficient():
    # E(r) for the wrong n leaves an O(1) defect on the algebra's curvature,
    # the size the einsum oracle reads on the closed form
    for case, n, p, q in [("hyperbolic", 3, None, None), ("elliptic", 3, 2, None),
                          ("nilpotent", 4, 3, 2), ("hyperbolic", 16, None, None)]:
        model = build(case, n, p, q)
        points = [base_point(model)]
        if n <= 4:
            points += list(core.sample_sigma(model, 3, seed=67))
        for pt in points:
            frame = geometry.horizontal_basis(model, pt)
            curv = geometry.algebra_curvature(model, frame)
            paired = frame_pairing(model, frame)
            for wrong_n in (n - 1, n + 1, 2 * n):
                got = geometry._ricci_type_defect(curv, frame.gram, wrong_n)[0]
                want = ricci_type_defect(frame.gram, paired, wrong_n)[0]
                assert got > 1e-2
                assert abs(got - want) <= 1e-12 * want


@pytest.mark.parametrize("case,n,p,q", [t for t in core.admissible_parameters((2, 3))
                                        if t[0] != "nilpotent"])
@pytest.mark.parametrize("k", [1e-3, 1.0, 1e3, 1e6, 1e9, 1e12])
def test_ricci_type_residual_k_ladder(case, n, p, q, k):
    # k scales A and leaves the (1,3) curvature alone: the check holds at every k
    model = core.build_model(case, n, k=k, p=p)
    res = geometry.ricci_type_residual(model, base_point(model))
    # R - E(r) and G rho - r are read relative to max|A|: R, r and G rho grow
    # like k on the orthonormal ambient frame
    assert res["ricci_type"] <= 1e-12
    assert res["trace_route"] <= 1e-12
    # the cyclic sum reads rounding of the size of R
    assert res["cyclic"] <= 1e-12 * max(1.0, k)
    # rho^2 - 4(n+1)^2 mu Id is read relative to max(1, |mu|)
    assert res["square"] <= 1e-12


@pytest.mark.parametrize("case,n,p,q", core.admissible_parameters((2, 3, 4)))
def test_transvection_generators_span_p_part(case, n, p, q):
    # the closed-form X_u span the odd part that the centralizer split computes
    model = build(case, n, p or None, q or None)
    x0 = base_point(model)
    frame = geometry.horizontal_basis(model, x0)
    gens = geometry.transvection_generators(model, frame)
    s = geometry.symmetry_matrix(model, x0)
    amat, om = model.A, model.omega
    assert np.max(np.abs(np.swapaxes(gens, 1, 2) @ om + om @ gens)) <= 1e-12
    assert np.max(np.abs(amat @ gens - gens @ amat)) <= 1e-12
    assert np.max(np.abs(s @ gens @ s + gens)) <= 1e-12
    assert np.max(np.abs((gens @ x0).T - frame.vectors)) <= 1e-12
    span = lie.subspace_from_matrices(gens, model.ambient_dim)
    p_part = transvection_algebra(model).p_part
    assert span.dim == p_part.dim == 2 * n
    assert span.distance(p_part.basis) <= 1e-12
    assert p_part.distance(span.basis) <= 1e-12


def test_ricci_type_residual_memory_n16():
    model = build("hyperbolic", 16, None, None)
    x0 = base_point(model)
    tracemalloc.start()
    try:
        res = geometry.ricci_type_residual(model, x0)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert res["ricci_type"] <= 1e-8 and res["trace_route"] <= 1e-10
    assert res["cyclic"] <= 1e-10 and res["square"] <= 1e-10
    # one (32)^4 float array would be 8 MB; the support route holds under 2 MB
    assert peak < 3 * 2 ** 20


@pytest.mark.parametrize("case,p", [("hyperbolic", None), ("elliptic", 1)])
def test_ricci_type_residual_memory_n32(case, p):
    model = build(case, 32, p, None)
    x0 = base_point(model)
    tracemalloc.start()
    try:
        res = geometry.ricci_type_residual(model, x0)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert res["ricci_type"] <= 1e-8 and res["trace_route"] <= 1e-10
    assert res["cyclic"] <= 1e-10 and res["square"] <= 1e-10
    # one (64)^4 float array would be 134 MB; the generator stacks take most of the peak
    assert peak < 16 * 2 ** 20


#: the five chart kinds of the benchmark's verify-geometry operations
CHART_KINDS = [("hyperbolic", 0, 0), ("elliptic", 1, 0), ("elliptic", 5, 0), ("nilpotent", 2, 1),
               ("nilpotent", 3, 2)]
#: (case, n, p, q, k) of the base points pinned against the whole-array kernel: the 46
#: tuples with n = 2-4 at k = 1, the hyperbolic and elliptic tuples of the narrow (n = 2,
#: 3) and wide (n = 2-4) k ladders, and the chart kinds at n = 8, 12, 16
BASE_POINT_PINS = (
    [(case, n, p, q, 1.0) for case, n, p, q in core.admissible_parameters((2, 3, 4))]
    + [(case, n, p, q, k)
       for ks, n_values in [((1e-7, 1e-3, 0.1, 2.0, 10.0, 100.0, 1e3), (2, 3)),
                            ((1e-12, 1e-10, 1e6, 1e9, 1e12), (2, 3, 4))]
       for case, n, p, q in core.admissible_parameters(n_values) if case != "nilpotent"
       for k in ks]
    + [(case, n, p, q, 1.0) for n in (8, 12, 16) for case, p, q in CHART_KINDS])


def _pinned_model(case, n, p, q, k):
    if case == "nilpotent":
        return core.build_model(case, n, p=p, q=q)
    return core.build_model(case, n, k=k, p=p or None)


@pytest.mark.parametrize("case,n,p,q,k", BASE_POINT_PINS)
def test_support_route_matches_the_whole_array_kernel_at_x0(case, n, p, q, k):
    # the four residuals that verify-geometry prints, bit for bit
    model = _pinned_model(case, n, p, q, k)
    x0 = base_point(model)
    assert geometry.ricci_type_residual(model, x0) == ricci_type_residual_dense(model, x0)


#: base points whose SVD frame keeps rounding residues (entries of 1.6e-16, so U and W
#: carry entries within 1e-15 of their largest, and G^-1 one of 5e-49): the facts hold
#: there once those are read as 0, and the residuals still match bit for bit
SVD_RESIDUE = {("hyperbolic", 2, 0, 0, 100.0), ("hyperbolic", 3, 0, 0, 100.0)}


@pytest.mark.parametrize("case,n,p,q,k", BASE_POINT_PINS)
def test_base_point_facts_behind_the_exact_support_route(case, n, p, q, k):
    # the support route gives the whole-array kernel's bits at x0 because (a) no T
    # entry sums two nonzero products, so any blocking of the product rounds it
    # alike, and (b) G^-1 has one nonzero per row, so the trace sums one term per m,
    # as the einsum does; at SVD_RESIDUE both hold up to the residues
    drift = "the support route's report bodies may then drift by rounding"
    floor = 1e-15 if (case, n, p, q, k) in SVD_RESIDUE else 0.0

    def support(a):
        return np.abs(a) > floor * np.max(np.abs(a))

    model = _pinned_model(case, n, p, q, k)
    frame = geometry.horizontal_basis(model, base_point(model))
    gens = geometry.transvection_generators(model, frame)
    d = 2 * n
    u = support((gens @ frame.vectors).transpose(1, 0, 2).reshape(-1, d * d))
    w = (gens.transpose(0, 2, 1) @ (model.omega @ frame.vectors)).transpose(1, 0, 2)
    w = support(w.reshape(-1, d * d))
    u, w = u[:, u.any(axis=0)], w[:, w.any(axis=0)]
    products = u.T.astype(int) @ w.astype(int)
    assert products.max(initial=0) <= 1, (
        f"a T entry sums {products.max()} nonzero products at x0: {drift}")
    per_row = np.count_nonzero(support(np.linalg.inv(frame.gram)), axis=1)
    assert np.all(per_row == 1), f"G^-1 rows at x0 hold {per_row.tolist()} nonzeros: {drift}"


@pytest.mark.parametrize("case,n,p,q", core.admissible_parameters((2, 3, 4)))
def test_support_route_agrees_with_the_whole_array_kernel_at_samples(case, n, p, q):
    # dense frames: r sums its terms in another order than the einsum, so the two
    # kernels agree to rounding of the size of R
    model = build(case, n, p or None, q or None)
    for pt in core.sample_sigma(model, 3, seed=61):
        frame = geometry.horizontal_basis(model, pt)
        bound = 1e-14 * max(1.0, float(np.max(np.abs(algebra_curvature_dense(model, frame)))))
        got, want = geometry.ricci_type_residual(model, pt), ricci_type_residual_dense(model, pt)
        assert all(abs(got[key] - want[key]) <= bound for key in want), (got, want)


def test_support_route_rounds_each_product_of_e_of_r():
    # hyperbolic n = 4 at k = 100, outside every audited set: some P_jab = r_ja G_ib -
    # G_ja r_ib have two nonzero products.  The whole-array kernel's BLAS product of inner
    # dimension 2 fused them into one rounding; the support route rounds each product and
    # their sum, so ricci_type reads 5.68e-16 against 1.137e-15, and nothing else moves
    model = core.build_model("hyperbolic", 4, k=100.0)
    x0 = base_point(model)
    got, want = geometry.ricci_type_residual(model, x0), ricci_type_residual_dense(model, x0)
    assert {key: got[key] for key in ("cyclic", "square", "trace_route")} == {
        key: want[key] for key in ("cyclic", "square", "trace_route")}
    assert got["ricci_type"] <= 1e-14 and want["ricci_type"] <= 1e-14


@pytest.mark.parametrize("case,n,p,q", ALL_CASES)
def test_ambient_symmetry_properties(case, n, p, q):
    model = build(case, n, p, q)
    pt = core.sample_sigma(model, 1, seed=37)[0]
    s = geometry.symmetry_matrix(model, pt)
    assert np.max(np.abs(s @ pt - pt)) <= 1e-12
    ax = model.A @ pt
    assert np.max(np.abs(s @ ax - ax)) <= 1e-12
    rng = np.random.default_rng(37)
    for _ in range(20):
        y = rng.standard_normal(model.ambient_dim)
        assert np.max(np.abs(s @ (s @ y) - y)) <= 1e-10
    assert np.max(np.abs(s.T @ model.omega @ s - model.omega)) <= 1e-12
    assert np.max(np.abs(s @ model.A - model.A @ s)) <= 1e-12


def test_symmetry_matrix_matches_normal_forms():
    model = core.build_model("hyperbolic", 2, k=0.5)
    s = geometry.symmetry_matrix(model, base_point(model))
    block = np.diag([1.0, -1.0, -1.0])
    assert np.max(np.abs(s - np.block([[block, np.zeros((3, 3))],
                                       [np.zeros((3, 3)), block]]))) <= 1e-12
    model = build("nilpotent", 2, 2, 1)
    s = geometry.symmetry_matrix(model, base_point(model))
    assert np.max(np.abs(s - np.diag([1.0, -1, -1, -1, 1, -1]))) <= 1e-12


@pytest.mark.parametrize("case,n,p,q", ALL_CASES)
def test_reduced_symmetry_report(case, n, p, q):
    model = build(case, n, p, q)
    samples = core.sample_sigma(model, 8, seed=41)
    rep = geometry.reduced_symmetry_report(model, base_point(model), samples)
    assert rep["symmetry_squared"] <= 1e-12
    assert rep["fixed_point"] <= 1e-9
    assert len(rep["involution_in_chart"]) == len(samples)
    assert np.max(rep["involution_in_chart"]) <= 1e-8
    if geometry.chart_kind(model) is not None:
        # the chart differential is exact and read on the orthonormal frame
        assert len(rep["symplectic_pullback"]) == len(samples)
        assert np.max(rep["symplectic_pullback"]) <= 1e-12


def test_symplectic_pullback_rounding_floor_n16():
    # verify-geometry --case hyperbolic --n 16 --seed 1 reads its first 20 samples; there the
    # lifted graph-chart tangents reach 1.3e3, which put an eps |L|^2 floor of 1.3e-10 on
    # the pullback, while the orthonormal frame holds it near eps
    model = build("hyperbolic", 16, None, None)
    samples = core.sample_sigma(model, 50, seed=1)[:20]
    rep = geometry.reduced_symmetry_report(model, base_point(model), samples)
    assert np.max(rep["symplectic_pullback"]) <= 1e-13


@pytest.mark.parametrize("case,n,p,q", CHART_CASES)
def test_symmetry_differential_matches_fd(case, n, p, q):
    model = build(case, n, p, q)
    s = geometry.symmetry_matrix(model, base_point(model))
    rng = np.random.default_rng(61)
    cps = ([geometry.project(model, pt) for pt in core.sample_sigma(model, 4, seed=61)]
           + [moderate_chart_point(model, rng) for _ in range(3)])
    for cp in cps:
        x = geometry.chart_section(model, cp)
        lifts, tangents = geometry._symmetry_differential(model, s, x, s @ x)
        fd = symmetry_chart_differential(model, s, x, lifts)
        for j in range(tangents.shape[1]):
            assert _relative(tangents[:, j], fd[:, j]) <= 1e-6


def test_act_chart_flow_is_identity():
    for case, n, p, q in CHART_CASES:
        model = build(case, n, p, q)
        cp = geometry.project(model, core.sample_sigma(model, 1, seed=43)[0])
        moved = act_chart(model, model.flow(1.3), cp)
        assert np.max(np.abs(cp - moved)) <= 1e-9


def test_act_chart_rejects_non_centralizing():
    model = build("hyperbolic", 2, None, None)
    cp = geometry.project(model, core.sample_sigma(model, 1, seed=43)[0])
    g = np.eye(6)
    g[0, 1] = 1.0  # symplectic only against the wrong pairing, and not centralizing
    with pytest.raises(ValueError):
        act_chart(model, g, cp)


def test_act_tangent_sphere_closed_form():
    k = 1.0
    model = core.build_model("hyperbolic", 2, k=k)
    rng = np.random.default_rng(47)
    cp = moderate_chart_point(model, rng)
    u, w = cp[:3], cp[3:]
    # scalar matrices act trivially
    u2, w2 = act_tangent_sphere(2.5 * np.eye(3), u, w, k)
    assert np.allclose(u2, u) and np.allclose(w2, w)
    # rotations act diagonally
    rot = np.linalg.qr(rng.standard_normal((3, 3)))[0]
    if np.linalg.det(rot) < 0:
        rot[:, 0] *= -1
    u2, w2 = act_tangent_sphere(rot, u, w, k)
    assert np.allclose(u2, rot @ u)
    assert np.allclose(w2, rot @ w)
    # generic B agrees with project(g . section)
    b = rng.standard_normal((3, 3)) + 3 * np.eye(3)
    g = gl_to_sp_hyperbolic(model, b)
    moved = act_chart(model, g, cp)
    u2, w2 = act_tangent_sphere(b, u, w, k)
    assert np.max(np.abs(moved - np.concatenate([u2, w2]))) <= 1e-9


@pytest.mark.parametrize("case,n,p,q", core.admissible_parameters((2, 3, 4))
                         + [("hyperbolic", 8, 0, 0), ("elliptic", 8, 3, 6), ("nilpotent", 8, 3, 2)])
def test_ricci_type_residual_full_admissible_sweep(case, n, p, q):
    model = build(case, n, p or None, q or None)
    for i, pt in enumerate([base_point(model), *core.sample_sigma(model, 3, seed=53)]):
        frame = geometry.horizontal_basis(model, pt)
        support = geometry.algebra_curvature(model, frame)
        curv = dense_form(support, 2 * n)
        # S_ijkl - S_jikl, formed at i < j and at i > j, is exactly antisymmetric
        assert np.all(curv + np.swapaxes(curv, 0, 1) == 0)
        scale = max(1.0, float(np.max(np.abs(curv))))
        # the one product of pair columns is the commutator route's two einsum terms
        first, second = algebra_curvature_terms(model, frame)
        assert np.max(np.abs(curv - (first + second))) <= 1e-12 * scale
        paired = frame_pairing(model, frame)
        # the algebra's curvature is the closed form, materialized by the oracle
        assert np.max(np.abs(curv - curvature_tensor(frame.gram, paired))) <= 1e-13
        residual, ric, cyclic = geometry._ricci_type_defect(support, frame.gram, n)
        assert residual <= 1e-8
        assert cyclic <= 1e-9
        # the support route against the broadcast row loop, whose r is the einsum trace
        rows_residual, rows_ric, rows_cyclic = ricci_type_defect_rows(curv, frame.gram, n)
        if i == 0:  # x0 frames have exact entries: the independent components read the same sups
            assert np.array_equal(ric, rows_ric)
            assert (residual, cyclic) == (rows_residual, rows_cyclic)
        # at a dense frame r sums its terms in another order than the einsum
        assert np.max(np.abs(ric - rows_ric)) <= 1e-14 * scale
        assert abs(residual - rows_residual) <= 1e-14 * scale
        assert abs(cyclic - rows_cyclic) <= 1e-14 * scale
        # the einsum oracle materializes R and E(r) from the closed form; both routes agree
        want, want_ric = ricci_type_defect(frame.gram, paired, n)
        assert want <= 1e-8
        # r vanishes on the flat p = 1 models, up to rounding of either route
        assert np.max(np.abs(ric - want_ric)) <= 1e-12 * max(1.0, float(np.max(np.abs(want_ric))))
        # the trace route G rho = r against the oracle's trace, at every point
        got = frame.gram @ geometry.ricci_endomorphism(model, frame)
        assert np.max(np.abs(got - want_ric)) <= 1e-12 * max(1.0, float(np.max(np.abs(want_ric))))


@pytest.mark.parametrize("case,n,p,q", [("hyperbolic", 16, 0, 0), ("elliptic", 16, 1, 0),
                                        ("elliptic", 16, 5, 0), ("nilpotent", 16, 2, 1),
                                        ("nilpotent", 16, 3, 2)])
def test_ricci_type_defect_at_x0_n16_matches_full_rows(case, n, p, q):
    # at x0 the sups on the independent components are those of the whole tensor
    model = build(case, n, p or None, q or None)
    frame = geometry.horizontal_basis(model, base_point(model))
    support = geometry.algebra_curvature(model, frame)
    residual, ric, cyclic = geometry._ricci_type_defect(support, frame.gram, n)
    rows_residual, rows_ric, rows_cyclic = ricci_type_defect_rows(dense_form(support, 2 * n),
                                                                  frame.gram, n)
    assert np.array_equal(ric, rows_ric)
    assert (residual, cyclic) == (rows_residual, rows_cyclic)


def test_reduced_symmetry_check_report():
    # the symmetry section of verify-geometry is the one report form of
    # reduced_symmetry_report: same entries, thresholds and values
    config = cli.RunConfig(case="nilpotent", n=2, p=2, q=1, samples=5, seed=3)
    report = cli.cmd_verify_geometry(config)
    assert report.verdict == "PASS"
    model = build("nilpotent", 2, 2, 1)
    samples = core.sample_sigma(model, 5, seed=3)
    rep = geometry.reduced_symmetry_report(model, base_point(model), samples)
    want = [("symmetry.squares_to_identity", rep["symmetry_squared"], 1e-12),
            ("symmetry.symplectic", rep["symmetry_symplectic"], 1e-12),
            ("symmetry.commutes_with_A", rep["symmetry_commutes_A"], 1e-12),
            ("symmetry.fixed_point", rep["fixed_point"], 1e-9),
            ("symmetry.involution_in_chart", np.max(rep["involution_in_chart"]), 1e-8),
            ("symmetry.symplectic_pullback", np.max(rep["symplectic_pullback"]), 1e-5)]
    got = [(e.name, e.value, e.threshold, e.verdict) for e in report.entries
           if e.name.startswith("symmetry.")]
    assert got == [(name, value, thr, "PASS") for name, value, thr in want]
