"""Smoke test of the benchmark: each workload at tiny size, in both modes.

    python3 -m pytest perfbench/test_smoke.py
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
BENCH = json.loads((ROOT / "BENCHMARK.json").read_text())
WORKLOADS = [w["name"] for w in BENCH["workloads"]]
# per-layer counts the program makes deterministic
COUNTS = ("calls", "edges", "edges_copied", "elements", "max_state_bits", "handoffs")


def bench(*args, root=ROOT):
    return subprocess.run(
        [sys.executable, str(root / "perfbench" / "run.py"), *args],
        capture_output=True, text=True, cwd=root, timeout=300,
    )


def result(workload, trace, seed=0, root=ROOT):
    out = bench("--workload", workload, "--seed", str(seed), "--seconds", "1",
                "--trace", str(trace), "--smoke", root=root)
    assert out.returncode == 0, out.stderr
    res = json.loads(out.stdout.strip().splitlines()[-1])
    assert set(res) == {"correct", "attempted", "failed", "metrics"}
    return res


@pytest.mark.parametrize("workload", WORKLOADS)
def test_end_to_end_metrics(workload):
    res = result(workload, 0)
    assert res["correct"] and res["failed"] == 0 and res["attempted"] >= 1
    want = {m["name"]: m["unit"] for m in BENCH["end_to_end"]}
    assert {k: v["unit"] for k, v in res["metrics"].items()} == want
    assert all(v["value"] > 0 for v in res["metrics"].values())


@pytest.mark.parametrize("workload", WORKLOADS)
def test_per_layer_metrics_and_repeatable_counts(workload):
    first = result(workload, 1)
    second = result(workload, 1)
    want = {m["name"]: m["unit"] for m in BENCH["per_layer"]}
    for res in (first, second):
        assert res["correct"] and res["failed"] == 0
        assert {k: v["unit"] for k, v in res["metrics"].items()} == want
    counts = [k for k in want if k.rpartition(".")[2] in COUNTS]
    assert {k: first["metrics"][k]["value"] for k in counts} == {
        k: second["metrics"][k]["value"] for k in counts
    }


def _copy_bench(dst: Path, with_sources: bool) -> None:
    shutil.copytree(HERE, dst / "perfbench", ignore=shutil.ignore_patterns("_out", "__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", dst)
    if with_sources:
        (dst / "src").symlink_to(ROOT / "src")


def test_changed_artifact_bytes_fail_the_op(tmp_path):
    _copy_bench(tmp_path, with_sources=True)
    path = tmp_path / "perfbench" / "digests.json"
    digests = json.loads(path.read_text())
    digests["smoke/cli_p1"]["0"][0][0] = "0" * 64
    path.write_text(json.dumps(digests))
    res = result("cli_p1", 0, root=tmp_path)
    assert not res["correct"] and res["failed"] == 1


def test_refuses_to_run_without_sources(tmp_path):
    _copy_bench(tmp_path, with_sources=False)
    out = bench("--workload", "cli_p1", "--smoke", root=tmp_path)
    assert out.returncode != 0
    assert '"correct"' not in out.stdout
