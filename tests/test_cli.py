"""CLI behavior: exit codes, verdicts, determinism, serialization round-trips."""

import json
import os
import re
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import riccitype
from riccitype import core, serialize
from riccitype.cli import main


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_construct_nilpotent(capsys):
    code, out, _ = run(capsys, "construct", "--case", "nilpotent", "--n", "2",
                       "--p", "2", "--q", "1")
    assert code == 0
    assert "mu=0.0" in out
    assert "case=nilpotent" in out
    assert len([ln for ln in out.splitlines() if ln and ln[0] in "-0123456789"]) >= 6


def test_construct_hyperbolic_notes_chart(capsys):
    code, out, _ = run(capsys, "construct", "--case", "hyperbolic", "--n", "3", "--k", "1")
    assert code == 0
    assert "TS^3" in out


def test_construct_invalid_parameters(capsys):
    code, _, err = run(capsys, "construct", "--case", "nilpotent", "--n", "2",
                       "--p", "2", "--q", "3")
    assert code == 2
    assert "error" in err


@pytest.mark.parametrize("argv", [
    ("verify-geometry", "--case", "nilpotent", "--n", "2", "--p", "2", "--q", "1",
     "--samples", "10"),
    ("verify-geometry", "--case", "hyperbolic", "--n", "2", "--samples", "10"),
    ("verify-geometry", "--case", "elliptic", "--n", "2", "--p", "1", "--samples", "10"),
    ("verify-geometry", "--case", "elliptic", "--n", "2", "--p", "2", "--samples", "10"),
])
def test_verify_geometry_passes(capsys, argv):
    code, out, _ = run(capsys, *argv)
    assert code == 0
    assert "verdict: PASS" in out


def test_verify_geometry_corrupted_omega_fails(capsys):
    code, out, _ = run(capsys, "verify-geometry", "--case", "nilpotent", "--n", "2",
                       "--p", "2", "--q", "1", "--samples", "5", "--debug-corrupt-omega")
    assert code == 1
    assert "verdict: FAIL" in out
    assert "witness" in out
    assert "[FAIL] symmetry.symplectic_pullback" in out


def _tuple_argv(case, n, p, q):
    argv = ["--case", case, "--n", str(n)]
    if case != "hyperbolic":
        argv += ["--p", str(p)]
    if case == "nilpotent":
        argv += ["--q", str(q)]
    return argv


@pytest.mark.parametrize("case,n,p,q", core.admissible_parameters((2, 3, 4)))
def test_verify_geometry_passes_every_admissible_tuple(capsys, case, n, p, q):
    code, out, _ = run(capsys, "verify-geometry", *_tuple_argv(case, n, p, q))
    assert code == 0, out
    pullback = re.search(r"\[PASS\] symmetry\.symplectic_pullback +(\S+) ", out)
    # the chart differential is exact, so the pullback sits at rounding level
    assert (pullback is None) == (case == "elliptic" and p > 1)
    if pullback:
        assert float(pullback.group(1)) <= 1e-10


def test_fd_step_flag_is_a_usage_error(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["verify-geometry", "--case", "hyperbolic", "--n", "2", "--fd-step", "1e-5"])
    assert exc.value.code == 2
    assert "--fd-step" in capsys.readouterr().err


def test_transvection_hyperbolic(capsys):
    code, out, _ = run(capsys, "transvection", "--case", "hyperbolic", "--n", "2")
    assert code == 0
    assert "algebra.dim" in out
    assert "sl(3,R)" in out


def test_transvection_nilpotent_solvable(capsys):
    code, out, _ = run(capsys, "transvection", "--case", "nilpotent", "--n", "2",
                       "--p", "2", "--q", "1")
    assert code == 0
    assert "algebra.solvable" in out
    assert "ideal.codimension" in out


def test_transvection_elliptic(capsys):
    code, out, _ = run(capsys, "transvection", "--case", "elliptic", "--n", "2", "--p", "2")
    assert code == 0
    assert "su(2,1)" in out


@pytest.mark.parametrize("command", ["construct", "find-transitive"])
@pytest.mark.parametrize("case,n,p,q", core.admissible_parameters((2, 3, 4)))
def test_command_passes_every_admissible_tuple(capsys, command, case, n, p, q):
    code, out, err = run(capsys, command, *_tuple_argv(case, n, p, q))
    assert code == 0, out
    assert err == ""


@pytest.mark.parametrize("case,n,p,q", core.admissible_parameters((2, 3, 4)))
def test_transvection_passes_every_admissible_tuple(capsys, case, n, p, q):
    # nilpotent p = n + 1 has no middle block, so A lies outside k1 = [p1, p1]
    code, out, _ = run(capsys, "transvection", *_tuple_argv(case, n, p, q))
    assert code == 0, out
    if case == "nilpotent":
        assert ("A.in_k1" in out) == (p <= n)
        assert ("A.not_in_k1" in out) == (p == n + 1)


def test_exact_dimension_mismatch_is_fail_report(capsys, monkeypatch):
    from riccitype import exact, lie
    # the float dimension + 1 stands in for a rational rank that disagrees
    monkeypatch.setattr(exact, "rational_nullspace_dimension",
                        lambda mat: mat.shape[1] - np.linalg.matrix_rank(mat) + 1)
    code, out, err = run(capsys, "transvection", "--case", "nilpotent", "--n", "2",
                         "--p", "2", "--q", "1", "--exact")
    assert code == 1
    assert err == ""
    assert "verdict=FAIL" in out
    dim = lie.centralizer_in_sp(*core.build_model("nilpotent", 2, p=2, q=1)).dim
    assert (f"witness.0=centralizer.exact_dim: floating nullspace dim {dim} "
            f"!= exact dim {dim + 1}") in out


def test_find_transitive_nilpotent_pass(capsys):
    code, out, _ = run(capsys, "find-transitive", "--case", "nilpotent", "--n", "2",
                       "--p", "2", "--q", "1", "--samples", "30")
    assert code == 0
    assert "verdict: PASS" in out
    assert "heisenberg.derived_is_heisenberg" in out


def test_find_transitive_elliptic_p1_pass(capsys):
    code, out, _ = run(capsys, "find-transitive", "--case", "elliptic", "--n", "2",
                       "--p", "1", "--samples", "30")
    assert code == 0
    assert "verdict: PASS" in out
    assert "iwasawa.n_heisenberg" in out


@pytest.mark.parametrize("argv,needle", [
    (("find-transitive", "--case", "hyperbolic", "--n", "2"), "never admits"),
    (("find-transitive", "--case", "elliptic", "--n", "2", "--p", "2"), "if and only if p = 1"),
    (("find-transitive", "--case", "nilpotent", "--n", "3", "--p", "3", "--q", "3"),
     "does not admit"),
    (("find-transitive", "--case", "nilpotent", "--n", "2", "--p", "2", "--q", "2"),
     "if and only if q = 1"),
    (("find-transitive", "--case", "nilpotent", "--n", "3", "--p", "3", "--q", "2"),
     "open case"),
])
def test_find_transitive_documented_verdicts(capsys, argv, needle):
    code, out, _ = run(capsys, *argv)
    assert code == 0
    assert needle in out
    assert "verdict: UNKNOWN" in out
    assert "PASS-by-computation" not in out


def test_find_transitive_flat_case(capsys):
    code, out, _ = run(capsys, "find-transitive", "--case", "nilpotent", "--n", "2",
                       "--p", "1", "--q", "1")
    assert code == 0
    assert "translation group" in out
    assert "verdict: PASS" in out


def test_find_transitive_candidate_file(tmp_path, capsys):
    path = tmp_path / "cand.txt"
    path.write_text(serialize.format_candidate(
        np.diag([1.0, -1.0]), np.array([0.2, 0.0]), 0.3, 1.0) + "\n")
    code, out, _ = run(capsys, "find-transitive", "--case", "nilpotent", "--n", "2",
                       "--p", "2", "--q", "1", "--samples", "20",
                       "--candidate-file", str(path))
    assert code == 0
    assert "file_candidate.transitive_rank" in out
    assert "verdict: PASS" in out


def test_find_transitive_bad_candidate_file_fails(tmp_path, capsys):
    path = tmp_path / "cand.txt"
    path.write_text(serialize.format_candidate(
        np.diag([1.0, 2.0]), np.zeros(2), 0.0, 1.0) + "\n")
    code, out, err = run(capsys, "find-transitive", "--case", "nilpotent", "--n", "2",
                         "--p", "2", "--q", "1", "--candidate-file", str(path))
    assert code == 2
    assert "B^2" in err


@pytest.mark.parametrize("drop", ["dim", "B"])
def test_find_transitive_candidate_file_missing_key(tmp_path, capsys, drop):
    text = serialize.format_candidate(np.diag([1.0, -1.0]), np.zeros(2), 0.0, 1.0)
    path = tmp_path / "cand.txt"
    path.write_text("\n".join(ln for ln in text.splitlines()
                              if not ln.startswith(drop + "=")) + "\n")
    code, out, err = run(capsys, "find-transitive", "--case", "nilpotent", "--n", "2",
                         "--p", "2", "--q", "1", "--candidate-file", str(path))
    assert code == 2
    assert out == ""
    assert err.splitlines() == [f"error: candidate file lacks required key(s): {drop}"]


def test_find_transitive_candidate_dim_mismatch(tmp_path, capsys):
    path = tmp_path / "cand.txt"
    path.write_text(serialize.format_candidate(np.eye(4), np.zeros(4), 0.0, 1.0) + "\n")
    code, out, err = run(capsys, "find-transitive", "--case", "nilpotent", "--n", "2",
                         "--p", "2", "--q", "1", "--candidate-file", str(path))
    assert code == 2
    assert out == ""
    lines = err.splitlines()
    assert len(lines) == 1 and lines[0].startswith("error: candidate dim=4")


def test_verify_geometry_sampler_failure_is_fail_report(capsys):
    # the corrupted form makes every Sigma_A draw miss the quadric
    code, out, err = run(capsys, "verify-geometry", "--case", "hyperbolic", "--n", "2",
                         "--debug-corrupt-omega")
    assert code == 1
    assert err == ""
    assert "verdict=FAIL" in out
    assert "[FAIL] sampling.sigma" in out
    assert any(ln.startswith("witness.0=sampling.sigma: sampled point misses Sigma_A")
               for ln in out.splitlines())


def test_construct_sampler_failure_exits_one(capsys):
    # at k = 1e3 a hyperbolic draw misses Sigma_A by more than 1e-12: the FAIL that
    # verify-geometry reports as sampling.sigma, here one line on stderr
    code, out, err = run(capsys, "construct", "--case", "hyperbolic", "--n", "2", "--k", "1e3")
    assert code == 1
    assert len(err.splitlines()) == 1
    assert err.startswith("error: sampled point misses Sigma_A by ")
    assert out == ""


def test_verify_geometry_exhausted_redraws_is_fail_report(capsys, monkeypatch):
    # seed 5 draws one degenerate hyperbolic row; with no redraw round left it fails
    monkeypatch.setattr(core, "MAX_SAMPLE_RETRIES", 0)
    code, out, err = run(capsys, "verify-geometry", "--case", "hyperbolic", "--n", "2",
                         "--seed", "5")
    assert (code, err) == (1, "")
    assert "[FAIL] sampling.sigma" in out
    assert ("witness.0=sampling.sigma: sampling failed: degenerate draws exhausted the "
            "retry budget") in out


def test_verify_geometry_nan_series_oracle_fails(capsys):
    # exp(tA) overflows at k = 1e6; the NaN residual must FAIL, not read as 0
    with pytest.warns(RuntimeWarning):
        code, out, _ = run(capsys, "verify-geometry", "--case", "hyperbolic", "--n", "2",
                           "--k", "1e6")
    assert code == 1
    assert re.search(r"\[FAIL\] flow\.series_oracle +nan ", out)
    assert "witness.0=flow.series_oracle: worst sample 0: t = -3" in out


def test_find_transitive_n5_scalar_frames_pass(capsys):
    # |det| of the scalar frames read 6.4e-10 here and failed the 1e-9 floor
    code, out, _ = run(capsys, "find-transitive", "--case", "nilpotent", "--n", "5",
                       "--p", "2", "--q", "1", "--seed", "3")
    assert code == 0
    assert re.search(r"\[PASS\] scalar_c_minus\.frame_invertibility +1\.0+e\+00 ", out)


def test_frame_invertibility_fail_names_sample_and_gamma(capsys, monkeypatch):
    from riccitype.transitive import nilpotent as nil
    monkeypatch.setattr(nil, "frame_invertibility_minimum", lambda b_mat, gammas: (0.0, 7))
    code, out, _ = run(capsys, "find-transitive", "--case", "nilpotent", "--n", "2",
                       "--p", "2", "--q", "1")
    assert code == 1
    assert re.search(r"witness\.0=scalar_c_plus: frame nearly singular at sample 7: "
                     r"gamma = -?\d", out)


@pytest.mark.parametrize("argv", [
    ["construct", "--case", "nilpotent", "--n", "2", "--p", "2", "--q", "1"],
    ["verify-geometry", "--case", "hyperbolic", "--n", "2", "--samples", "3"],
    ["transvection", "--case", "elliptic", "--n", "2", "--p", "1"],
    ["find-transitive", "--case", "nilpotent", "--n", "2", "--p", "2", "--q", "1",
     "--samples", "3"],
    ["find-transitive", "--case", "elliptic", "--n", "2", "--p", "1", "--samples", "3"],
    ["quaternion-evidence", "--n", "2", "--samples", "3"],
])
def test_commands_run_without_scipy(argv):
    # numpy is the only runtime dependency: every command runs with scipy unimportable
    script = ("import sys; sys.modules['scipy'] = None; from riccitype.cli import main; "
              f"sys.exit(main({argv!r}))")
    src = str(Path(riccitype.__file__).resolve().parent.parent)
    env = dict(os.environ, PYTHONPATH=src)
    proc = subprocess.run([sys.executable, "-c", script], env=env, capture_output=True,
                          text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    assert "Traceback" not in proc.stderr


def test_bracket_tensor_built_once_per_algebra(monkeypatch):
    from riccitype import cli, lie
    shapes = []
    original = lie._bracket_tensor

    def counted(*args, **kwargs):
        out = original(*args, **kwargs)
        shapes.append(out.shape)
        return out
    monkeypatch.setattr(lie, "_bracket_tensor", counted)
    config = cli.RunConfig(case="nilpotent", n=3, p=2, q=1)
    assert cli.cmd_transvection(config).verdict == "PASS"
    # [p1, p1], the centralizer's closure, and the (11, 11) algebra once
    assert sorted(shapes) == [(6, 6, 64), (11, 11, 64), (22, 22, 64)]


@pytest.mark.parametrize("how", ["flag", "env"])
def test_tolerance_sets_algebraic_thresholds(capsys, monkeypatch, how):
    argv = ["verify-geometry", "--case", "elliptic", "--n", "2", "--p", "2"]
    code, out, _ = run(capsys, *argv)
    assert code == 0
    if how == "flag":
        argv += ["--tol", "1e-30"]
    else:
        monkeypatch.setenv("RICCITYPE_TOL", "1e-30")
    code, out, _ = run(capsys, *argv)
    assert code == 1
    assert "(threshold 1.000000000e-30)" in out


def test_quaternion_evidence(capsys):
    code, out, _ = run(capsys, "quaternion-evidence", "--samples", "100")
    assert code == 0
    assert "orbit.rank_at_most_5" in out
    assert "verdict: PASS" in out


def test_quaternion_evidence_rejects_zero_w(capsys):
    code, _, err = run(capsys, "quaternion-evidence", "--w", "0,0,0")
    assert code == 2
    assert "nonzero" in err


def test_report_determinism(capsys):
    argv = ("find-transitive", "--case", "elliptic", "--n", "2", "--p", "1",
            "--samples", "20", "--seed", "3")
    _, out1, _ = run(capsys, *argv)
    _, out2, _ = run(capsys, *argv)
    assert out1 == out2


@pytest.mark.parametrize("argv", [
    ["verify-geometry", "--case", "hyperbolic", "--n", "8", "--samples", "10"],
    ["verify-geometry", "--case", "nilpotent", "--n", "8", "--p", "3", "--q", "2",
     "--samples", "10"],
    # 50 samples in one batched (2n)^4 pass
    ["verify-geometry", "--case", "nilpotent", "--n", "3", "--p", "2", "--q", "1"],
])
def test_report_independent_of_blas_threads(argv):
    script = f"import sys; from riccitype.cli import main; sys.exit(main({argv!r}))"
    src = str(Path(riccitype.__file__).resolve().parent.parent)
    outs = []
    for threads in ("1", "2"):
        env = dict(os.environ, PYTHONPATH=src, OPENBLAS_NUM_THREADS=threads)
        proc = subprocess.run([sys.executable, "-c", script], env=env, capture_output=True,
                              timeout=120)
        assert proc.returncode == 0, proc.stderr
        outs.append(proc.stdout)
    assert outs[0] == outs[1]


BLAS_THREAD_VARS = ("OPENBLAS_NUM_THREADS", "GOTO_NUM_THREADS", "OMP_NUM_THREADS")


def run_fresh(script: str, **env_vars: str) -> subprocess.CompletedProcess:
    """Run a script in a fresh interpreter with the BLAS thread variables set as given."""
    src = str(Path(riccitype.__file__).resolve().parent.parent)
    env = {k: v for k, v in os.environ.items() if k not in BLAS_THREAD_VARS}
    env.update(env_vars, PYTHONPATH=src)
    proc = subprocess.run([sys.executable, "-c", script], env=env, capture_output=True,
                          timeout=120)
    assert proc.returncode == 0, proc.stderr
    return proc


def test_default_report_is_the_one_thread_report():
    # a reduction split over two BLAS threads moves the last digits of this body
    argv = ["transvection", "--case", "hyperbolic", "--n", "6", "--seed", "0"]
    script = f"import sys; from riccitype.cli import main; sys.exit(main({argv!r}))"
    assert run_fresh(script).stdout == run_fresh(script, OPENBLAS_NUM_THREADS="1").stdout


# thread count of each loaded OpenBLAS, and the thread variables, after `import riccitype`
BLAS_PROBE = """
import ctypes, json, os
import riccitype
maps = open("/proc/self/maps").read() if os.path.exists("/proc/self/maps") else ""
threads = []
for path in sorted({ln.split()[-1] for ln in maps.splitlines() if "openblas" in ln.lower()}):
    lib = ctypes.CDLL(path)
    for symbol in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_",
                   "openblas_get_num_threads"):
        if hasattr(lib, symbol):
            fn = getattr(lib, symbol)
            fn.argtypes, fn.restype = [], ctypes.c_int
            threads.append(fn())
            break
print(json.dumps({"threads": threads,
                  "env": {k: os.environ.get(k) for k in %r}}))
""" % (BLAS_THREAD_VARS,)


@pytest.mark.parametrize("env_vars", [{}, {"OPENBLAS_NUM_THREADS": "2"},
                                      {"OMP_NUM_THREADS": "2"}])
def test_blas_threads_pinned_only_by_default(env_vars):
    got = json.loads(run_fresh(BLAS_PROBE, **env_vars).stdout)
    if not got["threads"]:
        pytest.skip("no OpenBLAS library found in the process")
    # OpenBLAS caps a requested count at the processors it may run on
    want = min(2, len(os.sched_getaffinity(0))) if env_vars else 1
    assert got["threads"] == [want] * len(got["threads"])
    # the pin leaves no variable behind; a caller's own setting stays
    assert got["env"] == {k: env_vars.get(k) for k in BLAS_THREAD_VARS}


@pytest.mark.parametrize("target,name", [
    ("curvature_cyclic_residual", "curvature.cyclic_identity"),
    ("ricci_type_residual", "curvature.ricci_type_residual"),
])
def test_curvature_witness_names_worst_sample(capsys, monkeypatch, target, name):
    from riccitype import geometry
    original = getattr(geometry, target)
    calls = []

    def spiked(*args, **kwargs):
        # one batched call; sample 3 of its per-sample residuals reads 1.0
        out = original(*args, **kwargs)
        calls.append(None)
        if target == "curvature_cyclic_residual":
            return _spoil_sample_3(out, 1.0)
        return (_spoil_sample_3(out[0], 1.0),) + out[1:]
    monkeypatch.setattr(geometry, target, spiked)
    code, out, _ = run(capsys, "verify-geometry", "--case", "hyperbolic", "--n", "2",
                       "--samples", "6", "--seed", "5")
    assert len(calls) == 1
    assert code == 1
    assert re.search(rf"\[FAIL\] {re.escape(name)} +1\.0+e\+00 ", out)
    model, elem = core.build_model("hyperbolic", 2)
    point = core.sample_sigma(model, elem, 6, seed=5)[3].tolist()
    assert f"witness.0={name}: worst sample 3: {point}" in out


def test_report_seed_changes_samples_not_verdict(capsys):
    code1, out1, _ = run(capsys, "verify-geometry", "--case", "nilpotent", "--n", "2",
                         "--p", "2", "--q", "1", "--samples", "5", "--seed", "1")
    code2, out2, _ = run(capsys, "verify-geometry", "--case", "nilpotent", "--n", "2",
                         "--p", "2", "--q", "1", "--samples", "5", "--seed", "2")
    assert code1 == code2 == 0
    assert "verdict: PASS" in out1 and "verdict: PASS" in out2


def test_out_file(tmp_path, capsys):
    target = tmp_path / "report.txt"
    code, out, _ = run(capsys, "verify-geometry", "--case", "nilpotent", "--n", "2",
                       "--p", "2", "--q", "1", "--samples", "5", "--out", str(target))
    assert code == 0
    assert target.read_text() == out


def test_machine_block_parseable(capsys):
    _, out, _ = run(capsys, "transvection", "--case", "hyperbolic", "--n", "2")
    machine = out.split("-- machine --", 1)[1]
    kv = serialize.parse_key_values(machine)
    assert kv["schema"] == "riccitype.report.v1"
    assert kv["command"] == "transvection"
    assert kv["verdict"] == "PASS"


def test_env_tolerance_override(capsys, monkeypatch):
    monkeypatch.setenv("RICCITYPE_TOL", "1e-6")
    code, out, _ = run(capsys, "transvection", "--case", "hyperbolic", "--n", "2")
    assert code == 0
    assert "config tol_algebraic = 1.000000000e-06" in out


def test_bad_env_tolerance_is_usage_error(capsys, monkeypatch):
    monkeypatch.setenv("RICCITYPE_TOL", "tight")
    code, out, err = run(capsys, "transvection", "--case", "hyperbolic", "--n", "2")
    assert code == 2
    assert out == ""
    assert err.startswith("error: ")


@pytest.mark.parametrize("k", ["1e-7", "1e-3", "1e3"])
@pytest.mark.parametrize("case", [("hyperbolic",), ("elliptic", "--p", "1"),
                                  ("elliptic", "--p", "2")],
                         ids=["hyperbolic", "elliptic-p1", "elliptic-p2"])
@pytest.mark.parametrize("exact", [False, True], ids=["float", "exact"])
def test_transvection_centralizer_dim_over_k(capsys, case, k, exact):
    # the commutation rows are solved at unit scale, so the centralizer keeps
    # dim (n + 1)^2 = 9 at n = 2 for small and large k, in rational arithmetic too
    argv = ["transvection", "--case", *case, "--n", "2", "--k", k] + ["--exact"] * exact
    code, out, err = run(capsys, *argv)
    assert (code, err) == (0, "")
    assert "entry.0.name=centralizer.dim\nentry.0.value=9\nentry.0.threshold=9\n" in out
    assert "verdict=PASS" in out


def test_matrix_roundtrip():
    rng = np.random.default_rng(0)
    mat = rng.standard_normal((4, 6))
    assert np.array_equal(np.loadtxt(serialize.format_matrix(mat).splitlines()), mat)


def test_candidate_roundtrip():
    text = serialize.format_candidate(np.diag([1.0, -1.0]), np.array([0.25, -1.5]), 0.75, -1.0)
    parsed = serialize.parse_candidate(text)
    assert np.array_equal(parsed["B"], np.diag([1.0, -1.0]))
    assert np.array_equal(parsed["a_tilde"], [0.25, -1.5])
    assert parsed["a"] == 0.75 and parsed["c"] == -1.0


def spectrum_info(out):
    lines = [line for line in out.splitlines() if "[INFO] phi0.ad_spectrum_on_n" in line]
    assert len(lines) == 1
    return lines[0].split(maxsplit=2)[2]


def test_ad_spectrum_info_prints_reals_for_split_complex_pairs(capsys, monkeypatch):
    # LAPACK may return a real multiple eigenvalue as a (1-0j, 1+0j) pair
    from riccitype.transitive import iwasawa
    spectrum = iwasawa.ad_spectrum_on_n
    monkeypatch.setattr(iwasawa, "ad_spectrum_on_n",
                        lambda data, phi=None: spectrum(data, phi) + 0j)
    code, out, _ = run(capsys, "find-transitive", "--case", "elliptic", "--n", "2",
                       "--p", "1", "--samples", "5")
    assert code == 0
    assert spectrum_info(out) == "[1.0, 1.0, 2.0]"


@pytest.mark.parametrize("seed", range(12))
def test_ad_spectrum_info_is_real_elliptic_n4(capsys, seed):
    code, out, _ = run(capsys, "find-transitive", "--case", "elliptic", "--n", "4",
                       "--p", "1", "--samples", "5", "--seed", str(seed))
    assert code == 0
    assert spectrum_info(out) == "[1.0, 1.0, 1.0, 1.0, 1.0, 1.0, 2.0]"


NAN = float("nan")


def _nan_sample(key):
    # a reduced_symmetry_report whose sample 3 reads NaN under key
    return lambda rep: {**rep, key: _spoil_sample_3(rep[key])}


def _spoil_sample_3(values, spoil=NAN):
    # a copy of a batched per-sample output (one value or matrix per sample)
    # whose sample 3 is replaced by spoil
    out = np.array(values, dtype=float)
    out[3] = spoil
    return out


def _sigma_point(case, n, p, q):
    model, elem = core.build_model(case, n, p=p or None, q=q or None)
    return str(core.sample_sigma(model, elem, 6, seed=5)[3].tolist())


def _darboux_point(case, n, p, q):
    rng = np.random.default_rng(5 + 17)
    return str([rng.standard_normal(2 * n) for _ in range(4)][3].tolist())


def _quaternion_draw(case, n, p, q):
    rng = np.random.default_rng(5)
    for _ in range(4):
        qvec = rng.standard_normal(4)
        qvec /= np.linalg.norm(qvec)
        draw = (qvec, rng.standard_normal(3), rng.standard_normal(3))
    return "q, x, y = " + str([v.tolist() for v in draw])


HYPERBOLIC = ("hyperbolic", 2, 0, 0)
DARBOUX = ("nilpotent", 2, 2, 1)


ELLIPTIC_P2 = ("elliptic", 2, 2, 1)
NAN_CASES = {  # test id: command, tuple, spiked function, its spiked call, spoil, entry, sample
    # call 3 of the series is the time t = 0
    "series_oracle": ("verify-geometry", HYPERBOLIC, "core.series_exp", 3, lambda m: m * NAN,
                      "flow.series_oracle", lambda *params: "t = 0"),
    # call 1 projects the flowed points
    "flow_invariance": ("verify-geometry", HYPERBOLIC, "geometry.project", 1, _spoil_sample_3,
                        "projection.flow_invariance", _sigma_point),
    "flow_invariance_fiber": ("verify-geometry", ELLIPTIC_P2, "geometry.fiber_distance", 0,
                              _spoil_sample_3, "projection.flow_invariance_fiber", _sigma_point),
    "cyclic_identity": ("verify-geometry", HYPERBOLIC, "geometry.curvature_cyclic_residual", 0,
                        _spoil_sample_3, "curvature.cyclic_identity", _sigma_point),
    "ricci_type_residual": ("verify-geometry", HYPERBOLIC, "geometry.ricci_type_residual", 0,
                            lambda out: (_spoil_sample_3(out[0]),) + out[1:],
                            "curvature.ricci_type_residual", _sigma_point),
    "square_identity": ("verify-geometry", HYPERBOLIC, "geometry.ricci_endomorphism", 0,
                        _spoil_sample_3, "ricci.square_identity", _sigma_point),
    "trace_route_match": ("verify-geometry", HYPERBOLIC, "geometry.ricci_type_residual", 0,
                          lambda out: (out[0], _spoil_sample_3(out[1]), out[2]),
                          "ricci.trace_route_match", _sigma_point),
    "darboux_constant": ("verify-geometry", DARBOUX, "geometry.chart_omega_matrix", 0,
                         _spoil_sample_3, "reduced_form.darboux_constant", _sigma_point),
    "involution_in_chart": ("verify-geometry", DARBOUX, "geometry.reduced_symmetry_report", 0,
                            _nan_sample("involution_in_chart"), "symmetry.involution_in_chart",
                            _sigma_point),
    "involution_in_chart_fiber": ("verify-geometry", ELLIPTIC_P2,
                                  "geometry.reduced_symmetry_report", 0,
                                  _nan_sample("involution_in_chart"),
                                  "symmetry.involution_in_chart", _sigma_point),
    "symplectic_pullback": ("verify-geometry", HYPERBOLIC, "geometry.symmetry_pullback_residual",
                            0, _spoil_sample_3, "symmetry.symplectic_pullback", _sigma_point),
    "hamiltonian_identity": ("find-transitive", DARBOUX, "nil.hamiltonian_residual", 0,
                             _spoil_sample_3, "scalar_c_plus.hamiltonian_identity",
                             _darboux_point),
    "equivariance": ("quaternion-evidence", HYPERBOLIC, "quat.equivariance_residuals", 0,
                     lambda out: (_spoil_sample_3(out[0]), out[1]), "eta.equivariance",
                     _quaternion_draw),
}


@pytest.mark.parametrize("command,params,target,call,spoil,name,sample",
                         list(NAN_CASES.values()), ids=list(NAN_CASES))
def test_nan_sample_fails_and_is_named(capsys, monkeypatch, command, params, target, call,
                                       spoil, name, sample):
    # every sampled residual goes through one reduction: a NaN at one sample
    # is the worst value, fails the entry, and the witness names that sample
    from riccitype import geometry
    from riccitype.transitive import nilpotent as nil
    from riccitype.transitive import quaternion as quat
    modules = {"core": core, "geometry": geometry, "nil": nil, "quat": quat}
    module, attr = target.split(".")
    original = getattr(modules[module], attr)
    calls = []

    def spiked(*args, **kwargs):
        out = original(*args, **kwargs)
        calls.append(None)
        return spoil(out) if len(calls) == call + 1 else out
    monkeypatch.setattr(modules[module], attr, spiked)
    argv = [command, "--samples", "6", "--seed", "5"]
    if command != "quaternion-evidence":
        argv += _tuple_argv(*params)
    code, out, err = run(capsys, *argv)
    assert code == 1
    assert err == ""
    assert re.search(rf"\[FAIL\] {re.escape(name)} +nan ", out)
    assert f"witness.0={name}: worst sample 3: {sample(*params)}" in out
