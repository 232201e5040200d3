"""The sweep scripts under scripts/ run end to end on tiny arguments."""

import csv
import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]


def _run_script(name, args, cwd):
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(ROOT / "src")] + [p for p in [env.get("PYTHONPATH")] if p])
    return subprocess.run(
        [sys.executable, str(ROOT / "scripts" / name), *args], cwd=cwd,
        env=env, capture_output=True, text=True, timeout=300)


def _rows(path):
    # the first line is the "# mpoqst ..." provenance comment
    with open(path, newline="") as fh:
        assert fh.readline().startswith("# mpoqst")
        return list(csv.DictReader(fh))


@pytest.mark.parametrize("name, args, svg, cells", [
    ("run_error_vs_n.py", ["--n-min", "2", "--n-max", "3", "--seeds", "1"],
     "error_vs_n.svg", 8),
    ("run_error_vs_m.py", ["--n", "2", "--shots", "100", "300",
                           "--seeds", "1"], "error_vs_m.svg", 2),
])
def test_sweep_script_writes_its_tables_and_plot(tmp_path, name, args, svg,
                                                 cells):
    out = tmp_path / "out"
    proc = _run_script(name, [*args, "--out", str(out)], tmp_path)
    assert proc.returncode == 0, proc.stderr
    results = _rows(out / "results.csv")
    assert len(results) == cells
    assert all(float(r["final_error"]) >= 0 for r in results)
    assert _rows(out / "medians.csv")
    assert (out / svg).read_text().startswith("<svg")


def test_gamma_sweep_script_reports_each_n(tmp_path):
    out = tmp_path / "out"
    proc = _run_script("run_gamma_sweep.py",
                       ["--n-min", "2", "--n-max", "3", "--draws", "2",
                        "--out", str(out)], tmp_path)
    assert proc.returncode == 0, proc.stderr
    lines = proc.stdout.splitlines()
    assert [line.split(":")[0] for line in lines[:2]] == [
        "n= 2 (exhaustive)", "n= 3 (exhaustive)"]
    assert "log-log slope" in lines[-1]
    rows = _rows(out / "gamma.csv")
    assert [(r["n"], r["method"], r["draws"]) for r in rows] == [
        ("2", "exhaustive", "2"), ("3", "exhaustive", "2")]
    printed = [float(line.split("median gamma ")[1].split()[0])
               for line in lines[:2]]
    assert [round(float(r["median_gamma"]), 3) for r in rows] == printed
