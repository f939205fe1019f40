"""Smoke self-test of the end-to-end benchmark (about 15 s).

    PYTHONPATH=src python -m pytest benchmarks/e2e -q

One untraced and one traced rep of every workload at ``--smoke`` sizes.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent.parent
RUN = HERE / "run.py"
BENCH = json.loads((ROOT / "BENCHMARK.json").read_text())


@pytest.fixture(scope="module")
def smoke(tmp_path_factory):
    out = tmp_path_factory.mktemp("e2e") / "results.json"
    proc = subprocess.run(
        [sys.executable, str(RUN), "--smoke", "--reps", "1", "--traced", "--out", str(out)],
        capture_output=True,
        text=True,
        timeout=170,
    )
    assert proc.returncode == 0, proc.stdout[-3000:] + proc.stderr[-3000:]
    return proc.stdout, out, json.loads(out.read_text())


def test_every_metric_printed_with_its_unit(smoke):
    stdout, _, _ = smoke
    # Metric lines read "<name> <value> <unit> ...".
    printed = {(p[0], p[2]) for p in map(str.split, stdout.splitlines()) if len(p) >= 3}
    for metric in BENCH["end_to_end"] + BENCH["per_layer"]:
        assert (metric["name"], metric["unit"]) in printed, metric


def test_smoke_fingerprints_match_recorded(smoke):
    _, _, results = smoke
    recorded = json.loads((HERE / "fingerprints.json").read_text())["smoke"]
    for workload, res in results["workloads"].items():
        assert res["fingerprint"] == recorded[workload]["0"], workload
        assert res["failed"] == 0, res["failures"]


def test_traced_rep_changes_no_output(smoke):
    _, _, results = smoke
    for workload, res in results["workloads"].items():
        assert res["traced_reps"] == 1, workload
        assert res["fingerprint_traced"] == res["fingerprint"], workload


def test_compare_with_itself_is_all_same(smoke):
    _, out, _ = smoke
    proc = subprocess.run(
        [sys.executable, str(RUN), "--compare", str(out), str(out)],
        capture_output=True,
        text=True,
    )
    assert proc.returncode == 0, proc.stdout
    verdicts = [line.split()[2] for line in proc.stdout.splitlines()]
    assert verdicts and set(verdicts) == {"same"}, proc.stdout


def test_refuses_to_run_without_the_simulator(tmp_path):
    shutil.copytree(HERE, tmp_path / "benchmarks" / "e2e",
                    ignore=shutil.ignore_patterns("out", "__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    proc = subprocess.run(
        [sys.executable, *BENCH["command"][1:], "--workload", "papi-read", "--seed", "0",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path,
        capture_output=True,
        text=True,
        timeout=60,
    )
    assert proc.returncode != 0
    assert proc.stdout == ""
