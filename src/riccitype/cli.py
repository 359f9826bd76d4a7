"""Command-line surface: construct, verify-geometry, transvection, find-transitive,
quaternion-evidence.

Exit codes: 0 for PASS (or purely documented/unknown verdicts), 1 for a
verification FAIL, 2 for usage or configuration errors.  All randomness
flows through the single --seed; at the default BLAS setting (one thread,
see ``riccitype``) identical configuration yields a byte-identical report
body.  A caller-set ``OPENBLAS_NUM_THREADS`` may move its last printed
digits.
"""

from __future__ import annotations

import argparse
import functools
import os
import sys
from dataclasses import dataclass, replace as dc_replace

import numpy as np

from . import core, geometry, lie, serialize, transvection
from .report import CertificateReport
from .transitive import iwasawa as iwa
from .transitive import nilpotent as nil
from .transitive import quaternion as quat

NONEXISTENCE_POSITIVE = ("documented classification: for mu > 0 the reduced space is TS^n "
                         "and never admits a simply transitive transvection subgroup")
NONEXISTENCE_NEGATIVE = ("documented classification: for mu < 0 a simply transitive "
                         "transvection subgroup exists if and only if p = 1")
NONEXISTENCE_Q124 = ("documented classification: for mu = 0 and q not in {1, 2, 4} the "
                     "space does not admit a simply transitive transvection subgroup")
NONEXISTENCE_P2 = ("documented classification: for mu = 0, p = 2 a simply transitive "
                   "transvection subgroup exists if and only if q = 1")
FLAT_P1 = ("documented classification: for mu = 0, p = 1 each component is the flat "
           "symplectic R^{2n} and the translation group acts simply transitively")
OPEN_CASE = ("open case: mu = 0 with p > 2 and q in {1, 2, 4} is not settled by the "
             "classification implemented here")


@dataclass
class RunConfig:
    case: str = "nilpotent"
    n: int = 2
    k: float = 1.0
    p: int | None = None
    q: int | None = None
    seed: int = 0
    samples: int = 50
    tol_algebraic: float = core.DEFAULT_TOL
    tol_rank: float = lie.RANK_RTOL
    exact_mode: bool = False

    def validate(self) -> None:
        if self.samples < 1:
            raise ValueError("samples must be >= 1")
        if self.tol_algebraic <= 0 or self.tol_rank <= 0:
            raise ValueError("tolerances must be positive")

    def as_dict(self) -> dict:
        out = {"case": self.case, "n": self.n, "seed": self.seed,
               "samples": self.samples, "tol_algebraic": self.tol_algebraic,
               "tol_rank": self.tol_rank, "exact": self.exact_mode}
        if self.case in ("hyperbolic", "elliptic"):
            out["k"] = self.k
        if self.p is not None:
            out["p"] = self.p
        if self.q is not None:
            out["q"] = self.q
        return out


def _build(config: RunConfig):
    return core.build_model(config.case, config.n, k=config.k, p=config.p, q=config.q)


def cmd_construct(config: RunConfig, out=sys.stdout) -> int:
    model, elem = _build(config)
    try:
        xs = core.sample_sigma(model, elem, config.samples, config.seed)
    except RuntimeError as exc:  # the FAIL that verify-geometry reports as sampling.sigma
        print(f"error: {exc}", file=sys.stderr)
        return 1
    print(serialize.model_descriptor(model), file=out)
    print(f"mu={elem.mu!r}", file=out)
    print(f"sigma_samples={config.samples}", file=out)
    print(f"quotient_type={_quotient_type(model)}", file=out)
    print("A=", file=out)
    print(serialize.format_matrix(elem.matrix), file=out)
    worst = np.max(np.abs(core.sigma_value(model, elem, xs) - 1.0))
    print(f"sigma_residual_max={worst:.3e}", file=out)
    return 0


def _quotient_type(model: core.SymplecticModel) -> str:
    n, p, q = model.n, model.p, model.q
    if model.case == "hyperbolic":
        return f"TS^{n}"
    if model.case == "elliptic":
        if p == 1:
            return f"C^{n} (ball chart)"
        if p == n + 1:
            return f"CP^{n}"
        return f"rank-{q} complex vector bundle over CP^{p - 1}"
    base = f"T(S^{q - 1} x R^{p - q}) x R^{2 * (n + 1 - p)}"
    if q == 1:
        base += f"; two components, each R^{2 * n}"
    return base


def _guard(report: CertificateReport, name: str, fn):
    """Run a suite section and return its result; a numerical failure becomes a
    FAIL entry with witness, and the result is None."""
    try:
        return fn()
    except (ValueError, RuntimeError, np.linalg.LinAlgError) as exc:
        report.add_flag(name, False, detail=str(exc))
        report.add_witness(f"{name}: {exc}")


def cmd_verify_geometry(config: RunConfig, corrupt_omega: bool = False) -> CertificateReport:
    report = CertificateReport("verify-geometry", config.as_dict())
    model, elem = _build(config)
    if corrupt_omega:
        bad = model.omega.copy()
        bad[0, -1] += 1e-3
        model = dc_replace(model, omega=bad)
        report.add_info("debug", "omega deliberately corrupted")
    res = core.characteristic_residuals(model, elem)
    ok = report.add_residual("characteristic.sp_membership", res["sp_membership"], 1e-12)
    ok &= report.add_residual("characteristic.square_identity", res["square_identity"], 1e-12)
    if not ok:
        report.add_witness("omega/A identities fail at construction; model corrupted?")
    ts = np.linspace(-3.0, 3.0, 7)
    # one call per time: the stacked (7, N, N) call left the Ricci-type check of
    # verify-geometry n = 16 about 10 % slower end to end on a 2-vCPU VM
    report.add_sampled("flow.series_oracle",
                       [np.max(np.abs(core.exp_tA(elem.matrix, elem.mu, t)
                                      - core.series_exp(elem.matrix, t))) for t in ts],
                       1e-10, lambda i: f"t = {ts[i]:g}")

    # one row per sample, for every section
    xs = _guard(report, "sampling.sigma",
                lambda: core.sample_sigma(model, elem, config.samples, config.seed))
    if xs is None:
        return report
    rng = np.random.default_rng(config.seed + 1)
    has_chart = geometry.chart_kind(model) is not None

    def point(i):
        return xs[i].tolist()

    def flow_invariance():
        ts = rng.uniform(-3.0, 3.0, size=len(xs[:20]))
        moved = core.apply_rows(elem.flow(ts), xs[:20])
        if has_chart:
            dists = np.max(np.abs(geometry.project(model, elem, xs[:20])
                                  - geometry.project(model, elem, moved)), axis=-1)
        else:
            dists = geometry.fiber_distance(model, elem, xs[:20], moved)
        name = "projection.flow_invariance" if has_chart else "projection.flow_invariance_fiber"
        report.add_sampled(name, dists, config.tol_algebraic, point)

    def curvature_suite():
        # one frame stack serves every sample; the trace route reads the first 20
        frame = geometry.horizontal_basis(model, elem, xs)
        cyc = geometry.curvature_cyclic_residual(model, elem, frame, triples=5, seed=config.seed)
        ricci, trace_ric, gram = geometry.ricci_type_residual(model, elem, frame)
        rho = geometry.ricci_endomorphism(model, elem, frame)
        ident = np.eye(2 * model.n)
        rho_sq = np.max(np.abs(rho @ rho - 4.0 * (model.n + 1) ** 2 * elem.mu * ident),
                        axis=(1, 2))
        trace_errs = np.max(np.abs(gram[:20] @ rho[:20] - trace_ric[:20]), axis=(1, 2))
        report.add_sampled("curvature.cyclic_identity", cyc, config.tol_algebraic, point)
        report.add_sampled("curvature.ricci_type_residual", ricci, 1e-8, point)
        report.add_sampled("ricci.square_identity", rho_sq, config.tol_algebraic, point)
        report.add_sampled("ricci.trace_route_match", trace_errs, config.tol_algebraic, point)

    def darboux():
        if geometry.chart_kind(model) != "darboux":
            return
        defect = geometry.chart_omega_matrix(model, elem, xs) - geometry.darboux_matrix(model)
        report.add_sampled("reduced_form.darboux_constant",
                           np.max(np.abs(defect), axis=(1, 2)), 1e-8, point)

    def symmetry_suite():
        x0 = transvection.base_point(model)
        sym = geometry.reduced_symmetry_report(model, elem, x0, xs[:20])
        report.add_residual("symmetry.squares_to_identity", sym["symmetry_squared"], 1e-12)
        report.add_residual("symmetry.symplectic", sym["symmetry_symplectic"], 1e-12)
        report.add_residual("symmetry.commutes_with_A", sym["symmetry_commutes_A"], 1e-12)
        report.add_residual("symmetry.fixed_point", sym["fixed_point"], config.tol_algebraic)
        report.add_sampled("symmetry.involution_in_chart", sym["involution_in_chart"], 1e-8,
                           point)
        if "symplectic_pullback" in sym:
            report.add_sampled("symmetry.symplectic_pullback", sym["symplectic_pullback"], 1e-5,
                               point)
        else:
            report.add_info("symmetry.symplectic_pullback",
                            "chart unavailable for elliptic p > 1; ambient identity checked")

    _guard(report, "projection.flow_invariance", flow_invariance)
    _guard(report, "curvature.suite", curvature_suite)
    _guard(report, "reduced_form.darboux_constant", darboux)
    _guard(report, "symmetry.suite", symmetry_suite)
    if report.verdict == "FAIL" and not report.witnesses:
        report.add_witness(f"first sampled point: {xs[0].tolist()}")
    return report


def cmd_transvection(config: RunConfig) -> CertificateReport:
    report = CertificateReport("transvection", config.as_dict())
    model, elem = _build(config)
    try:
        data = transvection.transvection_algebra(model, elem, exact=config.exact_mode)
    except RuntimeError as exc:  # --exact: the rational and floating dimensions differ
        report.add_flag("centralizer.exact_dim", False, detail=str(exc))
        report.add_witness(f"centralizer.exact_dim: {exc}")
        return report
    cert, label = transvection.classify_transvection(data, model)

    if model.case != "nilpotent":
        report.add_equals("centralizer.dim", data.centralizer.dim, (model.n + 1) ** 2)
    else:
        report.add_info("centralizer.dim", data.centralizer.dim)
    report.add_residual("centralizer.closure",
                        lie.structure_constants(data.centralizer)[1], 1e-10)
    report.add_equals("p_part.dim", data.p_part.dim, 2 * model.n)

    sig = data.symmetry
    theta_sq = float(np.max(np.abs(sig @ sig - np.eye(model.ambient_dim))))
    report.add_residual("sigma1.involution", theta_sq, 1e-10)
    report.add_residual("sigma1.fixes_A", float(np.max(np.abs(
        sig @ elem.matrix @ sig - elem.matrix))), 1e-10)

    a_unit = elem.matrix / np.linalg.norm(elem.matrix.reshape(-1))
    # for nilpotent p = n + 1 there is no middle block and A is not a bracket of p1
    if model.case == "nilpotent" and model.p <= model.n:
        report.add_residual("A.in_k1", data.k_part.distance(a_unit), config.tol_algebraic)
    else:
        report.add_exceeds("A.not_in_k1", data.k_part.distance(a_unit), 1e-3)

    if model.case in ("hyperbolic", "elliptic"):
        expected = (model.n + 1) ** 2 - 1
    elif model.p == 1:
        expected = 2 * model.n
    else:
        expected = model.p ** 2 + 2 * model.p * (model.n + 1 - model.p) - 1
    report.add_equals("algebra.dim", data.algebra.dim, expected)
    report.add_residual("algebra.closure", cert.closure_residual, config.tol_algebraic)
    report.add_info("algebra.label", label)
    report.add_info("algebra.derived_series", str(cert.derived_series_dims))

    if model.case == "hyperbolic":
        report.add_residual("algebra.sl_traceless", float(np.max(np.abs(
            transvection.upper_left_traces(data, model)))), 1e-10)
        report.add_flag("algebra.non_solvable", not cert.solvable)
    elif model.case == "elliptic":
        report.add_flag("algebra.non_solvable", not cert.solvable)
    elif model.p == 1:
        report.add_flag("algebra.abelian", cert.abelian)
    elif model.p == 2:
        report.add_flag("algebra.solvable", cert.solvable)
        ideal = transvection.nilpotent_ideal_report(cert)
        report.add_equals("ideal.codimension", ideal["codimension"], 1)
        report.add_residual("ideal.bracket_containment", ideal["ideal_residual"],
                            config.tol_algebraic)
        report.add_flag("ideal.nilpotent", ideal["nilpotent"])
    else:
        report.add_flag("algebra.non_solvable", not cert.solvable)
    if report.verdict == "FAIL":
        report.add_witness(f"classification label: {label}; "
                           f"derived series {cert.derived_series_dims}")
    return report


def _default_candidates(model: core.SymplecticModel, seed: int):
    """Accepted sweep: scalar, split-signature, and a random Sp-conjugate."""
    d = 2 * (model.n - 1)
    m = d // 2
    omega0 = model.omega0
    split = np.diag(np.concatenate([np.ones(m), -np.ones(m)]))
    rng = np.random.default_rng(seed)
    gen = rng.standard_normal((d, d))
    sp_gen = 0.5 * (gen - omega0 @ gen.T @ np.linalg.inv(omega0))
    s = core.series_exp(sp_gen, 0.3)
    conj = s @ split @ np.linalg.inv(s)
    named = [
        ("scalar_c_plus", np.eye(d), 1.0),
        ("scalar_c_minus", -np.eye(d), -1.0),
        ("split_signature", split, 1.0),
        ("sp_conjugate", conj, 1.0),
    ]
    return named


def _negative_controls(model: core.SymplecticModel):
    d = 2 * (model.n - 1)
    e1 = np.eye(d)[0]
    j = np.zeros((d, d))
    m = d // 2
    j[:m, m:] = -np.eye(m)
    j[m:, :m] = np.eye(m)
    return [
        ("violates_c_tilde", nil.make_candidate(np.eye(d), c_tilde=e1)),
        ("violates_b_square", nil.make_candidate(np.diag([2.0] + [1.0] * (d - 1)))),
        ("violates_eps", nil.make_candidate(j, epsilon=1)),
        ("violates_c_square", nil.make_candidate(np.eye(d), c=2.0)),
        ("violates_b_tilde", nil.make_candidate(np.eye(d), b_tilde=e1)),
        ("violates_isotropy", nil.make_candidate(-np.eye(d), c=1.0)),
    ]


def _certify_candidate(report: CertificateReport, model, elem, name: str,
                       b_mat: np.ndarray, c: float, config: RunConfig,
                       a_tilde=None, a: float = 0.0) -> None:
    omega0 = model.omega0
    sub, gens, cand = nil.build_h(model, b_mat, a_tilde=a_tilde, a=a, c=c)
    rep = nil.closure_conditions(cand, omega0)
    report.add_residual(f"{name}.closure_conditions", rep.residual, 1e-10)
    report.add_equals(f"{name}.dim", sub.dim, 2 * model.n)
    report.add_residual(f"{name}.bracket_closure_mod_A",
                        lie.structure_constants(sub, lie.line(elem.matrix))[1], 1e-10)
    rng = np.random.default_rng(config.seed + 17)
    pts = rng.standard_normal((max(config.samples, 100), 2 * model.n))  # Darboux chart points
    norm_cand, _ = nil.normalize_candidate(model, cand)
    mats = geometry.fundamental_fields(model, elem, nil.family_generators(norm_cand, omega0), pts)
    cert = nil.simply_transitive_certificate(model, mats, rank_tol=config.tol_rank)
    if not report.add_equals(f"{name}.transitive_rank", cert["min_rank"], 2 * model.n):
        idx = cert["witness"]
        report.add_witness(f"{name}: rank deficiency at sample {idx}: {pts[idx].tolist()}")
    report.add_info(f"{name}.min_singular_value", cert["min_singular_value"])
    gammas = pts[:, -1]
    ratio, worst = nil.frame_invertibility_minimum(norm_cand.B, gammas)
    if not report.add_exceeds(f"{name}.frame_invertibility", ratio, 1e-9):
        report.add_witness(f"{name}: frame nearly singular at sample {worst}: "
                           f"gamma = {gammas[worst]:.6g}")
    report.add_sampled(f"{name}.hamiltonian_identity",
                       nil.hamiltonian_residual(model, norm_cand.B, norm_cand.c, mats[:50],
                                                pts[:50]),
                       config.tol_algebraic, lambda i: pts[i].tolist())
    defect = np.max(np.abs(nil.strongly_hamiltonian_defect(norm_cand.B, omega0)))
    is_scalar = float(np.max(np.abs(norm_cand.B - norm_cand.c * np.eye(len(omega0))))) <= 1e-9
    report.add_flag(f"{name}.strongly_hamiltonian_iff_scalar",
                    (defect <= 1e-12) == is_scalar,
                    detail=f"defect={defect:.3e}, B==c*Id: {is_scalar}")


def cmd_find_transitive(config: RunConfig, candidate_file: str | None = None) -> CertificateReport:
    report = CertificateReport("find-transitive", config.as_dict())
    model, elem = _build(config)

    if model.case == "hyperbolic":
        report.add_documented("nonexistence.mu_positive", NONEXISTENCE_POSITIVE)
        return report

    if model.case == "elliptic":
        if model.p != 1:
            report.add_documented("nonexistence.mu_negative_p_gt_1", NONEXISTENCE_NEGATIVE)
            return report
        return _find_transitive_elliptic(report, config)

    # nilpotent
    if model.p == 1:
        data = transvection.transvection_algebra(model, elem)
        cert, _ = transvection.classify_transvection(data, model)
        report.add_flag("translations.abelian", cert.abelian and cert.dimension == 2 * model.n)
        report.add_documented("existence.flat_case", FLAT_P1)
        return report
    if model.q not in (1, 2, 4):
        report.add_documented("nonexistence.q_not_124", NONEXISTENCE_Q124)
        return report
    if model.p == 2 and model.q == 2:
        report.add_documented("nonexistence.p2_q2", NONEXISTENCE_P2)
        return report
    if model.p > 2:
        report.add_unknown("open.p_gt_2", OPEN_CASE)
        return report

    # p = 2, q = 1: certify candidates
    if candidate_file is not None:
        with open(candidate_file) as fh:
            raw = serialize.parse_candidate(fh.read())
        d = 2 * (model.n - 1)
        if raw["B"].shape[0] != d:
            raise ValueError(f"candidate dim={raw['B'].shape[0]} does not match "
                             f"2(n-1) = {d} for n={model.n}")
        _certify_candidate(report, model, elem, "file_candidate", raw["B"], raw["c"],
                           config, a_tilde=raw["a_tilde"], a=raw["a"])
    else:
        for name, b_mat, c in _default_candidates(model, config.seed):
            _certify_candidate(report, model, elem, name, b_mat, c, config)
        # normalization exercise: a~ and a nonzero, same split-signature B
        d = 2 * (model.n - 1)
        at = np.zeros(d)
        at[0] = 0.5
        _certify_candidate(report, model, elem, "unnormalized", np.eye(d), 1.0, config,
                           a_tilde=at, a=0.7)
        for name, cand in _negative_controls(model):
            rep = nil.closure_conditions(cand, model.omega0)
            if not report.add_exceeds(f"{name}.closure_conditions", rep.residual, 1e-3):
                report.add_witness(f"{name} unexpectedly closes")
        heis = nil.heisenberg_extension_check(model, elem, c=1.0)
        report.add_flag("heisenberg.derived_is_heisenberg", heis["certificate"].heisenberg)
        report.add_equals("heisenberg.derived_dim", heis["derived_dim"], 2 * model.n - 1)
        got = sorted(np.round(heis["dilation_eigenvalues"].real, 8).tolist())
        report.add_equals("heisenberg.dilation_spectrum", str(got),
                          str(sorted(heis["expected_eigenvalues"])))
    return report


def _find_transitive_elliptic(report: CertificateReport, config: RunConfig) -> CertificateReport:
    data = iwa.iwasawa_su1n(config.n, k=config.k)
    n = config.n
    report.add_equals("iwasawa.dim_k", data.compact_part.dim, n * n)
    report.add_equals("iwasawa.dim_a", data.abelian_part.dim, 1)
    report.add_equals("iwasawa.dim_m", data.centralizer_m.dim, (n - 1) ** 2)
    report.add_equals("iwasawa.dim_n", data.nilpotent_part.dim, 2 * n - 1)
    cert_n = lie.series_certificate(data.nilpotent_part)
    report.add_flag("iwasawa.n_heisenberg", cert_n.heisenberg)

    rng = np.random.default_rng(config.seed)
    phis = [np.zeros(n - 1), *rng.uniform(-2.0, 2.0, size=(2, n - 1))]
    base_spectrum = None
    pts = iwa.sample_ball_points(n, config.samples, config.seed + 5)
    for idx, phi in enumerate(phis):
        tag = f"phi{idx}"
        _, h_phi, gen = iwa.build_a_phi(data, phi)
        cert = lie.series_certificate(h_phi)
        report.add_equals(f"{tag}.dim", h_phi.dim, 2 * n)
        report.add_flag(f"{tag}.solvable", cert.solvable)
        fields = geometry.fundamental_fields(data.model, data.element,
                                             [gen, *data.nilpotent_part.basis], pts)
        cert_rank = nil.simply_transitive_certificate(data.model, fields,
                                                      rank_tol=config.tol_rank)
        if not report.add_equals(f"{tag}.transitive_rank", cert_rank["min_rank"], 2 * n):
            idx_w = cert_rank["witness"]
            report.add_witness(f"{tag}: rank deficiency at ball sample {idx_w}: "
                               f"{pts[idx_w].tolist()}")
        report.add_info(f"{tag}.min_singular_value", cert_rank["min_singular_value"])
        spectrum = np.round(iwa.ad_spectrum_on_n(data, phi), 6)
        if idx == 0:
            base_spectrum = spectrum
            # eigvals may return the real spectrum as complex with +-0j parts
            report.add_info(f"{tag}.ad_spectrum_on_n", str(np.real_if_close(spectrum).tolist()))
        else:
            distinct = not np.allclose(spectrum, base_spectrum, atol=1e-8)
            report.add_flag(f"{tag}.spectrum_differs_from_phi0", distinct,
                            detail=str(spectrum.tolist()))
    return report


def cmd_quaternion_evidence(config: RunConfig, w: np.ndarray) -> CertificateReport:
    report = CertificateReport("quaternion-evidence", config.as_dict())
    # one row per draw: a quaternion, normalized below, then x and y in R^3
    z = np.random.default_rng(config.seed).standard_normal((max(config.samples, 100), 10))
    qs = z[:, :4] / np.sqrt(core.dot_rows(z[:, :4], z[:, :4]))[:, None]
    x, y = z[:, 4:7], z[:, 7:]
    report.add_sampled("eta.equivariance", np.maximum(*quat.equivariance_residuals(qs, x, y)),
                       1e-10, lambda i: f"q, x, y = {[v[i].tolist() for v in (qs, x, y)]}")
    evidence = quat.orbit_rank_ts3_evidence(w, k=config.k)
    ok = report.add_flag("orbit.rank_at_most_5", evidence["rank"] <= 5,
                         detail=f"rank={evidence['rank']} of needed {evidence['dim_needed']}")
    if not ok:
        report.add_witness(f"singular values {evidence['singular_values'].tolist()}")
    report.add_equals("orbit.su2_rank", evidence["su2_rank"], 3)
    report.add_residual("orbit.stabilizer_field", evidence["stabilizer_field_norm"],
                        config.tol_algebraic)
    return report


@functools.cache
def _parser() -> argparse.ArgumentParser:
    """The argument parser, built once per process.

    Nothing in it may read the environment: ``RICCITYPE_TOL`` is read at every
    parse, by ``_config_from_args``.
    """
    parser = argparse.ArgumentParser(
        prog="riccitype",
        description="Ricci-type reduced symplectic symmetric spaces: "
                    "construction, verification and transitive-subgroup certificates")
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p: argparse.ArgumentParser) -> None:
        p.add_argument("--case", choices=core.CASES, default="nilpotent")
        p.add_argument("--n", type=int, default=2)
        p.add_argument("--k", type=float, default=1.0)
        p.add_argument("--p", type=int, default=None)
        p.add_argument("--q", type=int, default=None)
        p.add_argument("--seed", type=int, default=0)
        p.add_argument("--samples", type=int, default=50)
        p.add_argument("--tol", type=float, default=None,
                       help="algebraic tolerance (env RICCITYPE_TOL overrides the default)")
        p.add_argument("--tol-rank", type=float, default=lie.RANK_RTOL)
        p.add_argument("--exact", action="store_true",
                       help="cross-check nullspace dimensions with rational arithmetic")
        p.add_argument("--out", type=str, default=None, help="also write the report to a file")

    common(sub.add_parser("construct", help="build a model and print its descriptor"))
    pv = sub.add_parser("verify-geometry", help="curvature/Ricci/symmetry suite")
    common(pv)
    pv.add_argument("--debug-corrupt-omega", action="store_true",
                    help="negative control: perturb Omega to force a FAIL")
    common(sub.add_parser("transvection", help="transvection algebra certificate"))
    pf = sub.add_parser("find-transitive", help="simply-transitive subgroup certificates")
    common(pf)
    pf.add_argument("--candidate-file", type=str, default=None)
    pq = sub.add_parser("quaternion-evidence", help="double-cover and orbit-rank evidence")
    common(pq)
    pq.add_argument("--w", type=str, default="1,0,0",
                    help="comma-separated nonzero vector in R^3")
    return parser


def _config_from_args(args) -> RunConfig:
    env_tol = os.environ.get("RICCITYPE_TOL")
    tol = args.tol if args.tol is not None else float(env_tol) if env_tol else core.DEFAULT_TOL
    config = RunConfig(
        case=args.case, n=args.n, k=args.k, p=args.p, q=args.q, seed=args.seed,
        samples=args.samples, tol_algebraic=tol,
        tol_rank=args.tol_rank, exact_mode=args.exact)
    config.validate()
    return config


def main(argv=None) -> int:
    args = _parser().parse_args(argv)
    try:
        config = _config_from_args(args)
        if args.command == "construct":
            import io
            buf = io.StringIO()
            code = cmd_construct(config, out=buf)
            text = buf.getvalue()
            report = None
        else:
            if args.command == "verify-geometry":
                report = cmd_verify_geometry(config, corrupt_omega=args.debug_corrupt_omega)
            elif args.command == "transvection":
                report = cmd_transvection(config)
            elif args.command == "find-transitive":
                report = cmd_find_transitive(config, candidate_file=args.candidate_file)
            elif args.command == "quaternion-evidence":
                w = np.array([float(v) for v in args.w.split(",")])
                report = cmd_quaternion_evidence(config, w)
            else:  # pragma: no cover
                raise ValueError(f"unknown command {args.command}")
            text = report.render()
            code = report.exit_code
    except (ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    sys.stdout.write(text)
    if args.out:
        with open(args.out, "w") as fh:
            fh.write(text)
    return code


def script_main() -> None:  # pragma: no cover
    sys.exit(main())


if __name__ == "__main__":  # pragma: no cover
    script_main()
