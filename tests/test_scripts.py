"""Smoke tests: the experiment scripts run and print the tables they promise."""

import csv
import io
import os
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]


def run_script(name, *argv):
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(ROOT / "src"),
                                                      env.get("PYTHONPATH")]))
    proc = subprocess.run([sys.executable, str(ROOT / "scripts" / name), *argv],
                          capture_output=True, text=True, env=env, timeout=120)
    assert proc.returncode == 0, proc.stderr
    return proc.stdout


def test_branch_diagram():
    # n = 7/2, m = 1/2 at s = 1/2: d = 3 branches at each of 5 grid points
    out = run_script("branch_diagram.py", "--s", "1/2", "--c1", "0.3", "--c2", "0.7",
                     "--n", "7/2", "--m", "1/2", "--r-max", "4", "--points", "5")
    rows = list(csv.reader(io.StringIO(out)))
    assert rows[0] == ["R", "q", "lambda", "u_first"]
    assert len(rows) == 1 + 5 * 3
    assert [float(r[0]) for r in rows[1::3]] == [0.0, 1.0, 2.0, 3.0, 4.0]


def test_limit_convergence():
    out = run_script("limit_convergence.py", "--c1", "0.3", "--c2", "0.7",
                     "--n", "3", "--m", "0", "--decades", "3")
    lines = out.splitlines()
    assert lines[0].split() == ["R_small", "R_large", "U->I", "V->Wt", "U->W", "V->I"]
    assert len(lines) == 1 + 3
    assert [float(line.split()[0]) for line in lines[1:]] == [1e-3, 1e-4, 1e-5]
