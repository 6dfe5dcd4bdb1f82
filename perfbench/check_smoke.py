"""Smoke check of the benchmark itself, on the seconds-long ``tiny`` design.

Run from the repository root (kept out of the default test collection):

    python3 -m pytest -q perfbench/check_smoke.py
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
MANIFEST = json.loads((ROOT / "BENCHMARK.json").read_text())


def _run(*args, cwd=ROOT):
    return subprocess.run([sys.executable, str(Path(cwd) / "perfbench" / "run.py"), *args],
                          cwd=cwd, capture_output=True, text=True, timeout=300)


def _bench(results, trace):
    proc = _run("--workload", "tiny", "--seed", "3", "--seconds", "1",
                "--trace", str(trace), "--results", str(results))
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout.strip().splitlines()[-1])


def test_untraced_and_traced_runs_report_every_declared_metric(tmp_path):
    for trace, section in ((0, "end_to_end"), (1, "per_layer")):
        result = _bench(tmp_path, trace)
        assert set(result) == {"correct", "attempted", "failed", "metrics"}
        assert result["correct"] is True
        assert result["failed"] == 0 and result["attempted"] >= 4
        declared = {m["name"]: m["unit"] for m in MANIFEST[section]}
        assert {k: v["unit"] for k, v in result["metrics"].items()} == declared
    assert (tmp_path / "tiny-s3-t1.spans.json").is_file()
    record = json.loads((tmp_path / "tiny-s3-t0.json").read_text())
    assert record["environment"]["blas_threads"] == 1
    assert record["environment"]["seed"] == 3

    compare = _run("--compare", str(tmp_path), str(tmp_path))
    assert compare.returncode == 0, compare.stdout
    assert "agree" in compare.stdout and "DIFFER" not in compare.stdout


def test_layer_map_names_declared_metrics():
    layer_map = json.loads((BENCH_DIR / "layer_map.json").read_text())
    per_layer = {m["name"] for m in MANIFEST["per_layer"]}
    end_to_end = {m["name"] for m in MANIFEST["end_to_end"]}
    workloads = {w["name"] for w in MANIFEST["workloads"]}
    for entry in layer_map["map"]:
        assert set(entry["layer"]) <= per_layer
        assert set(entry["moves"]) <= end_to_end
        assert set(entry["on"]) <= workloads


def test_fails_without_the_program(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(BENCH_DIR, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = _run("--workload", "desk", "--seed", "1", "--seconds", "1",
                "--trace", "0", cwd=tmp_path)
    assert proc.returncode != 0
    assert proc.stdout.strip() == ""
