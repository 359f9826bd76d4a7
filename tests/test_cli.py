"""CLI behavior: exit codes, verdicts, determinism, serialization round-trips."""

import numpy as np
import pytest

from riccitype import core, serialize
from riccitype.cli import main
from riccitype.lie import MatrixLieSubspace


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


def test_matrix_roundtrip():
    rng = np.random.default_rng(0)
    mat = rng.standard_normal((4, 6))
    assert np.array_equal(serialize.parse_matrix(serialize.format_matrix(mat)), mat)


def test_candidate_roundtrip():
    text = serialize.format_candidate(np.diag([1.0, -1.0]), np.array([0.25, -1.5]), 0.75, -1.0)
    parsed = serialize.parse_candidate(text)
    assert np.array_equal(parsed["B"], np.diag([1.0, -1.0]))
    assert np.array_equal(parsed["a_tilde"], [0.25, -1.5])
    assert parsed["a"] == 0.75 and parsed["c"] == -1.0


def test_subspace_serialization():
    model, elem = core.build_model("hyperbolic", 2)
    sub = MatrixLieSubspace(6, [elem.matrix])
    text = serialize.format_subspace(sub)
    assert text.startswith("ambient_dim=6\ncount=1")
    body = "\n".join(text.splitlines()[2:])
    assert np.array_equal(serialize.parse_matrix(body), elem.matrix)


def test_chart_point_serialization_roundtrip():
    from riccitype import geometry
    model, elem = core.build_model("nilpotent", 2, p=2, q=1)
    cp = geometry.project(model, elem, core.sample_sigma(model, elem, 1, seed=9)[0])
    line = serialize.format_chart_point(cp)
    back = serialize.parse_chart_point(line)
    assert back.case == cp.case and back.kind == cp.kind
    assert np.array_equal(back.coords, cp.coords)


def test_transvection_data_serialization():
    from riccitype.transvection import transvection_algebra
    model, elem = core.build_model("hyperbolic", 2)
    data = transvection_algebra(model, elem)
    text = serialize.format_transvection_data(data)
    assert "a_in_k1=false" in text
    assert "[p_part]" in text and "count=4" in text



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
