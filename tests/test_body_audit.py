"""Smoke test of tools/body_audit.py, the two-tree comparison of the benchmark command lines."""

import subprocess
import sys
from pathlib import Path

REPO = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(REPO / "tools"))

import body_audit  # noqa: E402


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
