"""Smoke test of tools/body_audit.py, the two-tree comparison of the benchmark command lines."""

import subprocess
import sys
from pathlib import Path

REPO = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(REPO / "tools"))

import body_audit  # noqa: E402
import pytest  # noqa: E402


def test_body_audit_same_tree_is_identical():
    src = str(REPO / "src")
    proc = subprocess.run([sys.executable, str(REPO / "tools" / "body_audit.py"), src, src,
                           "--workload", "samples_large", "--seeds", "0"],
                          capture_output=True, text=True, timeout=300, check=False)
    assert proc.returncode == 0, proc.stdout + proc.stderr
    # samples_large: six operations of its own and the seven probes, at one seed
    assert proc.stdout.splitlines() == ["0 of 13 command lines differ"]


def test_body_audit_names_each_differing_field():
    argvs = [["construct"], ["transvection"]]
    parent = [{"code": 0, "stdout": "a", "stderr": ""}, {"code": 0, "stdout": "b", "stderr": ""}]
    change = [parent[0], {"code": 1, "stdout": "c", "stderr": ""}]
    assert body_audit.differences(argvs, parent, change) == [
        "transvection: code, stdout differ (exit 0 -> 1)"]
    assert body_audit.differences(argvs, parent, parent) == []


def test_body_audit_dedupes_shared_operations():
    # the probes shared by every workload run once per seed
    lines = body_audit.command_lines(["algebra_large", "samples_large", "admissible_sweep"],
                                     range(8))
    assert len(lines) == len({" ".join(line) for line in lines}) == 196 * 8


def test_body_audit_k_ladder_size():
    # 3 commands x (7 values x 9 tuples at n = 2, 3 + 5 values x 15 tuples at n = 2-4),
    # at the first seed only
    lines = body_audit.command_lines(["k_ladder"], range(8))
    assert len(lines) == len({" ".join(line) for line in lines}) == 414
    assert all(line[-2:] == ["--seed", "0"] for line in lines)


def test_body_audit_ladder_size():
    # verify-geometry for 5 chart kinds x n = 8, 12, 16, 24, 32, at the first seed only
    lines = body_audit.command_lines(["ladder"], range(8))
    assert len(lines) == len({" ".join(line) for line in lines}) == 25
    assert all(line[0] == "verify-geometry" and line[-2:] == ["--seed", "0"] for line in lines)


def test_body_audit_fail_paths_size():
    # verify-geometry under the omega fault over the 46 tuples at n = 2-4, --tol 1e-30 on
    # verify-geometry, transvection and find-transitive over them and on quaternion-evidence,
    # and D6's line, which keeps its seed 13; the others at the first seed only
    lines = body_audit.command_lines(["fail_paths"], range(8))
    assert len(lines) == len({" ".join(line) for line in lines}) == 46 + 3 * 46 + 1 + 1 == 186
    assert sum(line[0] == "fault=omega" for line in lines) == 46
    assert sum(line[-2:] == ["--seed", "13"] for line in lines) == 1
    assert all(line[-2:] in (["--seed", "0"], ["--seed", "13"]) for line in lines)


def test_body_audit_runs_a_tagged_line_under_its_fault():
    from riccitype import core

    build = core.build_model
    argv = ["verify-geometry", "--case", "hyperbolic", "--n", "2", "--samples", "5"]
    assert body_audit.split_fault(["fault=omega", *argv]) == (body_audit.FAULTS["omega"], argv)
    assert body_audit.split_fault(argv) == (None, argv)
    clean, faulted, after = body_audit.run_tree(str(REPO / "src"),
                                                [argv, ["fault=omega", *argv], argv])
    # the perturbed Omega makes every Sigma_A draw miss the quadric; only the tagged line
    # sees it, and the builder is restored after it
    assert faulted["code"] == 1 and "[FAIL] sampling.sigma" in faulted["stdout"]
    assert clean == after and clean["code"] == 0 and "\nverdict=PASS\n" in clean["stdout"]
    assert core.build_model is build


def test_body_audit_names_each_moved_entry_and_value(monkeypatch, capsys):
    def body(closure, ideal, dim, verdict="PASS"):
        entries = [("algebra.closure", closure), ("ideal.bracket_containment", ideal),
                   ("algebra.dim", dim)]
        human = "".join(f"  [{verdict}] {name}  {value}\n" for name, value in entries)
        machine = "".join(f"entry.{i}.name={name}\nentry.{i}.value={value}\n"
                          for i, (name, value) in enumerate(entries))
        return f"{human}\n-- machine --\n{machine}verdict={verdict}\n"

    def result(stdout, code=0, stderr=""):
        return {"code": code, "stdout": stdout, "stderr": stderr}
    argvs = [["transvection", "--n", "2"], ["transvection", "--n", "3"], ["construct"]]
    parent = [result(body("2.220446049e-16", "1.000000000e-16", "8")),
              result(body("4.440892099e-16", "0.000000000e+00", "15")), result("mu=1.0\n")]
    change = [result(body("3.330669074e-16", "1.000000000e-16", "8")),
              result(body("2.220446049e-16", "1.110223025e-16", "16", "FAIL"), 1, "warning"),
              result("mu=2.0\n")]
    moves, others = body_audit.entry_moves(argvs, parent, change)
    # a float value that moves is counted per entry name; every other moved field is named
    assert moves == {"algebra.closure": [2, pytest.approx(2.22044605e-16, rel=1e-9)],
                     "ideal.bracket_containment": [1, pytest.approx(1.110223025e-16, rel=1e-9)]}
    assert others == ["transvection --n 3: code 0 -> 1",
                      "transvection --n 3: stderr '' -> 'warning'",
                      "transvection --n 3: the text outside the machine block differs beyond "
                      "its floats",
                      "transvection --n 3: entry.2.value '15' -> '16'",
                      "transvection --n 3: verdict 'PASS' -> 'FAIL'",
                      "construct: the text outside the machine block differs beyond its floats"]
    assert body_audit.entry_moves(argvs, parent, parent) == ({}, [])
    # the command prints the table after the differing lines, most lines first
    monkeypatch.setattr(body_audit, "command_lines", lambda workloads, seeds: argvs)
    monkeypatch.setattr(body_audit, "run_in_subprocess",
                        lambda src, lines: parent if src == "parent" else change)
    assert body_audit.main(["parent", "change"]) == 1
    out = capsys.readouterr().out.splitlines()
    assert out[3:6] == ["entry algebra.closure: 2 lines, largest |delta| 2.220e-16",
                        "entry ideal.bracket_containment: 1 lines, largest |delta| 1.110e-16",
                        "moved transvection --n 3: code 0 -> 1"]
    assert out[-1] == "3 of 3 command lines differ"
