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
import sys
from dataclasses import dataclass, fields

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
        # written as `not 0 < t < inf` so that NaN fails too
        if not (0 < self.tol_algebraic < np.inf and 0 < self.tol_rank < np.inf):
            raise ValueError("tolerances must be finite and positive")
        if self.tol_rank >= 1:  # a relative cut: at 1 it drops even the largest value
            raise ValueError(f"tol-rank must be < 1, got {self.tol_rank}")
        if self.seed < 0:
            raise ValueError(f"seed must be >= 0, got {self.seed}")

    def as_dict(self) -> dict:
        out = {"case": self.case, "n": self.n, "seed": self.seed,
               "samples": self.samples, "tol_algebraic": self.tol_algebraic,
               "tol_rank": self.tol_rank, "exact": self.exact_mode}
        read = {name: getattr(self, name) for name in core.CASES[self.case]}
        return out | {name: value for name, value in read.items() if value is not None}


def _build(config: RunConfig):
    return core.build_model(config.case, config.n, k=config.k, p=config.p, q=config.q)


def cmd_construct(config: RunConfig, out=sys.stdout) -> int:
    model = _build(config)
    try:
        xs = core.sample_sigma(model, config.samples, config.seed)
    except RuntimeError as exc:  # the FAIL that verify-geometry reports as sampling.sigma
        print(f"error: {exc}", file=sys.stderr)
        return 1
    print(serialize.model_descriptor(model), file=out)
    print(f"mu={model.mu!r}", file=out)
    print(f"sigma_samples={config.samples}", file=out)
    print(f"quotient_type={_quotient_type(model)}", file=out)
    print("A=", file=out)
    print(serialize.format_matrix(model.A), file=out)
    worst = np.max(np.abs(core.sigma_value(model, xs) - 1.0))
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


def cmd_verify_geometry(config: RunConfig) -> CertificateReport:
    report = CertificateReport("verify-geometry", config.as_dict())
    model = _build(config)
    res = core.characteristic_residuals(model)
    ok = report.add_residual("characteristic.sp_membership", res["sp_membership"])
    ok &= report.add_residual("characteristic.square_identity", res["square_identity"])
    if not ok:
        report.add_witness("omega/A identities fail at construction; model corrupted?")
    # flow times in units of 1/sqrt|mu|: exp(t k A_1) at |t k| <= 3 for every k
    unit_time = 1.0 / np.sqrt(abs(model.mu)) if model.mu else 1.0
    ts = np.linspace(-3.0, 3.0, 7) * unit_time
    flows = model.flow(ts) - core.series_exp(model.A, ts)
    report.add_sampled("flow.series_oracle", np.max(np.abs(flows), axis=(1, 2)),
                       lambda i: f"t = {ts[i]:g}")

    # one row per sample, for every section
    xs = _guard(report, "sampling.sigma",
                lambda: core.sample_sigma(model, config.samples, config.seed))
    if xs is None:
        return report
    rng = np.random.default_rng(config.seed + 1)
    has_chart = geometry.chart_kind(model) is not None
    x0 = transvection.base_point(model)

    def point(i):
        return xs[i].tolist()

    def flow_invariance():
        ts = rng.uniform(-3.0, 3.0, size=len(xs[:20])) * unit_time
        moved = core.apply_rows(model.flow(ts), xs[:20])
        if has_chart:
            dists = np.max(np.abs(geometry.project(model, xs[:20])
                                  - geometry.project(model, moved)), axis=-1)
            if model.case == "hyperbolic":  # the second block carries u/(2k): read it relative
                dists = dists * min(model.k, 1.0)
        else:  # Sigma_A has size 1/sqrt(k): read the distance relative below k = 1
            dists = geometry.fiber_distance(model, xs[:20], moved) * min(1.0, np.sqrt(model.k))
        name = "projection.flow_invariance" if has_chart else "projection.flow_invariance_fiber"
        report.add_sampled(name, dists, point)

    def curvature_suite():
        # every curvature entry reads the base point once: the group is transitive
        res = geometry.ricci_type_residual(model, x0)
        for name, key in (("curvature.cyclic_identity", "cyclic"),
                          ("curvature.ricci_type_residual", "ricci_type"),
                          ("ricci.square_identity", "square"),
                          ("ricci.trace_route_match", "trace_route")):
            report.add_residual(name, res[key], witness=f"{name}: base point {x0.tolist()}")

    def darboux():
        if geometry.chart_kind(model) != "darboux":
            return
        defect = geometry.chart_omega_matrix(model, xs) - geometry.darboux_matrix(model)
        report.add_sampled("reduced_form.darboux_constant",
                           np.max(np.abs(defect), axis=(1, 2)), point)

    def symmetry_suite():
        sym = geometry.reduced_symmetry_report(model, x0, xs[:20])
        report.add_residual("symmetry.squares_to_identity", sym["symmetry_squared"])
        report.add_residual("symmetry.symplectic", sym["symmetry_symplectic"])
        report.add_residual("symmetry.commutes_with_A", sym["symmetry_commutes_A"])
        report.add_residual("symmetry.fixed_point", sym["fixed_point"])
        report.add_sampled("symmetry.involution_in_chart", sym["involution_in_chart"], point)
        if "symplectic_pullback" in sym:
            report.add_sampled("symmetry.symplectic_pullback", sym["symplectic_pullback"], point)
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
    model = _build(config)
    try:
        data = transvection.transvection_algebra(model, exact=config.exact_mode)
    except RuntimeError as exc:  # --exact: the rational and floating dimensions differ
        report.add_flag("centralizer.exact_dim", False, detail=str(exc))
        report.add_witness(f"centralizer.exact_dim: {exc}")
        return report
    cert, label = transvection.classify_transvection(data, model)

    if model.case != "nilpotent":
        report.add_equals("centralizer.dim", data.centralizer.dim, (model.n + 1) ** 2)
    else:
        report.add_info("centralizer.dim", data.centralizer.dim)
    report.add_residual("centralizer.closure", lie.closure_residual(data.centralizer))
    report.add_equals("p_part.dim", data.p_part.dim, 2 * model.n)

    sig = data.symmetry
    theta_sq = float(np.max(np.abs(sig @ sig - np.eye(model.ambient_dim))))
    report.add_residual("sigma1.involution", theta_sq)
    # relative to the scale k = max|A|: 1 at k = 1 and for every nilpotent model
    report.add_residual("sigma1.fixes_A", float(np.max(np.abs(
        sig @ model.A @ sig - model.A)) / model.k))

    # for nilpotent p = n + 1 there is no middle block and A is not a bracket of p1
    if model.case == "nilpotent" and model.p <= model.n:
        report.add_residual("A.in_k1", data.a_distance)
    else:
        report.add_exceeds("A.not_in_k1", data.a_distance)

    report.add_equals("algebra.dim", data.algebra.dim, transvection.algebra_dimension(model))
    report.add_residual("algebra.closure", cert.closure_residual)
    report.add_info("algebra.label", label)
    report.add_info("algebra.derived_series", str(cert.derived_series_dims))

    if model.case == "hyperbolic":
        report.add_residual("algebra.sl_traceless", float(np.max(np.abs(
            transvection.upper_left_traces(data, model)))))
        report.add_flag("algebra.non_solvable", not cert.solvable)
    elif model.case == "elliptic":
        report.add_flag("algebra.non_solvable", not cert.solvable)
    elif model.p == 1:
        report.add_flag("algebra.abelian", cert.abelian)
    elif model.p == 2:
        report.add_flag("algebra.solvable", cert.solvable)
        ideal = transvection.nilpotent_ideal_report(cert)
        report.add_equals("ideal.codimension", ideal["codimension"], 1)
        report.add_residual("ideal.bracket_containment", ideal["ideal_residual"])
        report.add_flag("ideal.nilpotent", ideal["nilpotent"])
    else:
        report.add_flag("algebra.non_solvable", not cert.solvable)
    if report.verdict == "FAIL":
        report.add_witness(f"classification label: {label}; "
                           f"derived series {cert.derived_series_dims}")
    return report


def _transitive_rank(report: CertificateReport, name: str, model, fields: np.ndarray,
                     pts: np.ndarray, where: str, config: RunConfig) -> None:
    """The ``<name>.transitive_rank`` entry of an (S, 2n, g) field stack at the chart
    points ``pts``, its witness (``where`` names the kind of sample) and the
    ``<name>.min_singular_value`` INFO."""
    cert = nil.simply_transitive_certificate(model, fields, rank_tol=config.tol_rank)
    if not report.add_equals(f"{name}.transitive_rank", cert["min_rank"], 2 * model.n):
        idx = cert["witness"]
        report.add_witness(f"{name}: rank deficiency at {where} {idx}: {pts[idx].tolist()}")
    report.add_info(f"{name}.min_singular_value", cert["min_singular_value"])


def _certify_candidate(report: CertificateReport, model, a_line: lie.MatrixLieSubspace,
                       pts: np.ndarray, config: RunConfig, name: str, b_mat: np.ndarray,
                       c: float, a_tilde: np.ndarray, a: float):
    """The entries of one member (name, B, c, a~, a), that is h_{B, a~, a, c}, at the Darboux
    chart points ``pts``; ``a_line`` is ``lie.line(model.A)``.  Returns its subspace,
    generator stack and structure constants modulo R*A."""
    omega0 = model.omega0
    sub, gens, cand = nil.build_h(model, b_mat, a_tilde=a_tilde, a=a, c=c)
    report.add_residual(f"{name}.closure_conditions", max(nil.closure_conditions(cand, omega0)))
    report.add_equals(f"{name}.dim", sub.dim, 2 * model.n)
    c_h, residual = lie.structure_constants(sub, a_line)
    report.add_residual(f"{name}.bracket_closure_mod_A", residual)
    # the normalized family (B, c), to which a~ and a are conjugated away
    normalized = nil.family_generators(nil.make_candidate(b_mat, c=c), omega0)
    mats = geometry.fundamental_fields(model, normalized, pts)
    _transitive_rank(report, name, model, mats, pts, "sample", config)
    gammas = pts[:, -1]
    ratio, worst = nil.frame_invertibility_minimum(b_mat, gammas)
    report.add_exceeds(f"{name}.frame_invertibility", ratio,
                       witness=f"{name}: frame nearly singular at sample {worst}: "
                               f"gamma = {gammas[worst]:.6g}")
    report.add_sampled(f"{name}.hamiltonian_identity",
                       nil.hamiltonian_residual(model, b_mat, c, mats[:50], pts[:50]),
                       lambda i: pts[i].tolist())
    defect = np.max(np.abs(nil.strongly_hamiltonian_defect(b_mat, omega0)))
    is_scalar = float(np.max(np.abs(b_mat - c * np.eye(len(omega0))))) <= 1e-9
    report.add_flag(f"{name}.strongly_hamiltonian_iff_scalar",
                    (defect <= 1e-12) == is_scalar,
                    detail=f"defect={defect:.3e}, B==c*Id: {is_scalar}")
    return sub, gens, c_h


def cmd_find_transitive(config: RunConfig, candidate_file: str | None = None) -> CertificateReport:
    report = CertificateReport("find-transitive", config.as_dict())
    model = _build(config)
    if candidate_file is not None and (model.case, model.p, model.q) != ("nilpotent", 2, 1):
        raise ValueError("--candidate-file applies only to the nilpotent p = 2, q = 1 case")

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
        data = transvection.transvection_algebra(model)
        _, label = transvection.classify_transvection(data, model)
        report.add_flag("translations.abelian", label == "abelian")
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

    # p = 2, q = 1: certify each member on one block of Darboux chart points
    d = len(model.omega0)  # the middle block, on which B acts
    if candidate_file is None:
        members = nil.sweep_members(model.omega0, config.seed)
    else:
        with open(candidate_file) as fh:
            raw = serialize.parse_candidate(fh.read())
        if raw["B"].shape[0] != d:
            raise ValueError(f"candidate dim={raw['B'].shape[0]} does not match "
                             f"2(n-1) = {d} for n={model.n}")
        members = [("file_candidate", raw["B"], raw["c"], raw["a_tilde"], raw["a"])]
    a_line = lie.line(model.A)
    pts = nil.darboux_points(model.n, config.samples, config.seed)
    certified = {member[0]: _certify_candidate(report, model, a_line, pts, config, *member)
                 for member in members}
    if candidate_file is None:
        for name, cand in nil.negative_controls(d):
            report.add_exceeds(f"{name}.closure_conditions",
                               max(nil.closure_conditions(cand, model.omega0)),
                               witness=f"{name} unexpectedly closes")
        sub, gens, c_h = certified["scalar_c_plus"]  # h_{Id, 1}, so -c = -1 and -2c = -2
        heis = nil.heisenberg_extension_check(sub, gens[0], c_h)
        report.add_flag("heisenberg.derived_is_heisenberg", heis["certificate"].heisenberg)
        report.add_equals("heisenberg.derived_dim", heis["derived_dim"], 2 * model.n - 1)
        got = sorted(np.round(heis["dilation_eigenvalues"].real, 8).tolist())
        report.add_equals("heisenberg.dilation_spectrum", str(got),
                          str([-2.0] + [-1.0] * (2 * model.n - 2)))
    return report


def _find_transitive_elliptic(report: CertificateReport, config: RunConfig) -> CertificateReport:
    data = iwa.iwasawa_su1n(config.n)
    n = config.n
    report.add_equals("iwasawa.dim_k", data.transvection.k_part.dim, n * n)
    report.add_equals("iwasawa.dim_a", data.abelian_part.dim, 1)
    report.add_equals("iwasawa.dim_m", data.centralizer_m.dim, (n - 1) ** 2)
    report.add_equals("iwasawa.dim_n", data.nilpotent_part.dim, 2 * n - 1)
    cert_n = lie.constants_certificate(*lie.structure_constants(data.nilpotent_part))
    report.add_flag("iwasawa.n_heisenberg", cert_n.heisenberg)

    rng = np.random.default_rng(config.seed)
    phis = [np.zeros(n - 1), *rng.uniform(-2.0, 2.0, size=(2, n - 1))]
    base_spectrum = None
    pts = iwa.sample_ball_points(n, config.samples, config.seed + 5)
    for idx, phi in enumerate(phis):
        tag = f"phi{idx}"
        h_phi, gen = iwa.build_a_phi(data, phi)
        cert = lie.constants_certificate(*lie.structure_constants(h_phi))
        report.add_equals(f"{tag}.dim", h_phi.dim, 2 * n)
        report.add_flag(f"{tag}.solvable", cert.solvable)
        fields = geometry.fundamental_fields(data.model, [gen, *data.nilpotent_part.basis], pts)
        _transitive_rank(report, tag, data.model, fields, pts, "ball sample", config)
        # sorted after rounding, so that rounding noise cannot reorder the list
        spectrum = np.sort_complex(np.round(lie.ad_eigenvalues(data.nilpotent_part, gen), 6))
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
                       lambda i: f"q, x, y = {[v[i].tolist() for v in (qs, x, y)]}")
    evidence = quat.orbit_rank_ts3_evidence(w)
    report.add_flag("orbit.rank_at_most_5", evidence["rank"] <= 5,
                    detail=f"rank={evidence['rank']} of needed 6",
                    witness=f"singular values {evidence['singular_values'].tolist()}")
    report.add_equals("orbit.su2_rank", evidence["su2_rank"], 3)
    report.add_residual("orbit.stabilizer_field", evidence["stabilizer_field_norm"])
    return report


#: argparse settings of each flag.  A flag that sets a RunConfig field has no
#: default here: when it is not given it is absent, and the field's default holds.
FLAGS = {"case": {"choices": core.CASES}, "k": {"type": float}, "tol-rank": {"type": float},
         **{flag: {"type": int} for flag in ("n", "p", "q", "seed")},
         "samples": {"type": int, "help": "sample points; quaternion-evidence and the nilpotent "
                     "p = 2 branch of find-transitive draw max(samples, 100)"},
         "tol": {"type": float, "dest": "tol_algebraic", "metavar": "TOL",
                 "help": "algebraic tolerance"},
         "exact": {"action": "store_true", "dest": "exact_mode",
                   "help": "cross-check the centralizer dimension with rational arithmetic"},
         "candidate-file": {"default": None},
         "w": {"default": "1,0,0", "help": "comma-separated nonzero vector in R^3"},
         "out": {"default": None, "help": "also write the report to a file"}}

#: {command: (help, the flags it reads)}, plus an unread --seed on transvection: callers append one
COMMANDS = {command: (text, flags.split()) for command, text, flags in [
    ("construct", "build a model and print its descriptor", "case n k p q seed samples out"),
    ("verify-geometry", "curvature/Ricci/symmetry suite", "case n k p q seed samples tol out"),
    ("transvection", "transvection algebra certificate", "case n k p q seed tol exact out"),
    ("find-transitive", "simply-transitive subgroup certificates",
     "case n p q seed samples tol tol-rank candidate-file out"),
    ("quaternion-evidence", "double-cover and orbit-rank evidence", "seed samples tol w out")]}


@functools.cache
def _parser() -> argparse.ArgumentParser:
    """The argument parser, built once per process from ``COMMANDS``."""
    parser = argparse.ArgumentParser(
        prog="riccitype",
        description="Ricci-type reduced symplectic symmetric spaces: "
                    "construction, verification and transitive-subgroup certificates")
    sub = parser.add_subparsers(dest="command", required=True)
    for command, (text, flags) in COMMANDS.items():
        cmd = sub.add_parser(command, help=text, argument_default=argparse.SUPPRESS)
        for flag in flags:
            cmd.add_argument(f"--{flag}", **FLAGS[flag])
    return parser


def _config_from_args(args) -> RunConfig:
    given = vars(args)
    config = RunConfig(**{f.name: given[f.name] for f in fields(RunConfig) if f.name in given})
    config.validate()
    for flag in ("k", "p", "q"):
        if flag in given and flag not in core.CASES[config.case]:
            raise ValueError(f"--{flag} does not apply to the {config.case} case")
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
        else:
            if args.command == "verify-geometry":
                report = cmd_verify_geometry(config)
            elif args.command == "transvection":
                report = cmd_transvection(config)
            elif args.command == "find-transitive":
                report = cmd_find_transitive(config, candidate_file=args.candidate_file)
            elif args.command == "quaternion-evidence":
                w = np.array([float(v) for v in args.w.split(",")])
                report = cmd_quaternion_evidence(config, w)
            text = report.render()
            code = report.exit_code
        if args.out:
            with open(args.out, "w") as fh:
                fh.write(text)
    except (ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    sys.stdout.write(text)
    return code


def script_main() -> None:  # pragma: no cover
    sys.exit(main())


if __name__ == "__main__":  # pragma: no cover
    script_main()
