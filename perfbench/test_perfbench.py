"""Tests of the benchmark itself, at the p = 3 smoke size.

    python3 -m pytest -q perfbench
"""

import json
import subprocess
import sys
from dataclasses import replace

import pytest

import run
from workloads import WORKLOADS

BENCHMARK = json.loads((run.ROOT / "BENCHMARK.json").read_text())
run.RESULTS.mkdir(exist_ok=True)


def _bench(workload: str, seed: int, trace: int) -> dict:
    out = subprocess.run(
        [sys.executable, str(run.BENCH / "run.py"), "--workload", workload, "--seed", str(seed),
         "--seconds", "1", "--trace", str(trace), "--smoke"],
        cwd=run.ROOT, capture_output=True, text=True, timeout=180, check=True,
    )
    return json.loads(out.stdout.strip().splitlines()[-1])


def _record(workload: str, seed: int, trace: int) -> dict:
    return json.loads((run.RESULTS / f"{workload}-smoke-seed{seed}-trace{trace}.json").read_text())


def test_declared_metrics_match_the_code():
    assert {m["name"]: m["unit"] for m in BENCHMARK["end_to_end"]} == run.END_TO_END_UNITS
    assert {m["name"]: m["unit"] for m in BENCHMARK["per_layer"]} == run.PER_LAYER_UNITS
    assert [w["name"] for w in BENCHMARK["workloads"]] == list(WORKLOADS)


@pytest.mark.parametrize("workload", list(WORKLOADS))
def test_smoke_prints_every_metric_and_is_seed_independent(workload):
    for trace, key in ((0, "end_to_end"), (1, "per_layer")):
        result = _bench(workload, seed=trace + 1, trace=trace)
        assert result["correct"] and result["failed"] == 0 and result["attempted"] > 0
        printed = {name: m["unit"] for name, m in result["metrics"].items()}
        assert printed == {m["name"]: m["unit"] for m in BENCHMARK[key]}
        assert all(isinstance(m["value"], (int, float)) for m in result["metrics"].values())
    digests = {c["sha256"] for t in (0, 1) for c in _record(workload, t + 1, t)["children"] if c["kind"] != "setup"}
    assert digests == {json.loads(run.DIGESTS.read_text())[workload]["smoke"]}


def _failed(child: run.Child) -> list[str]:
    return [name for name, ok, _ in child.checks if not ok]


def test_corrupted_verify_counts_as_failed():
    workload = WORKLOADS["verify-p7"]
    digest = json.loads(run.DIGESTS.read_text())[workload.name]["smoke"]
    corrupted = replace(workload, args={"smoke": (*workload.args["smoke"], "--corrupt", "heisenberg:1:2")})
    child = run.measure(corrupted, "smoke", 0, digest, 120, run.RESULTS / "negative-corrupt")
    assert {"exit_code", "verify.report.p3", "stdout_sha256"} <= set(_failed(child))


def test_wrong_digest_counts_as_failed():
    workload = WORKLOADS["quadforms-p13"]
    child = run.measure(workload, "smoke", 0, "0" * 64, 120, run.RESULTS / "negative-digest")
    assert _failed(child) == ["stdout_sha256"]


def test_refuses_to_run_without_the_source():
    bare = run.RESULTS / "bare-checkout"
    bench = bare / "perfbench"
    bench.mkdir(parents=True, exist_ok=True)
    for path in run.BENCH.iterdir():
        if path.is_file() and not path.name.startswith("test_"):
            (bench / path.name).write_bytes(path.read_bytes())
    (bare / "BENCHMARK.json").write_bytes((run.ROOT / "BENCHMARK.json").read_bytes())
    out = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "verify-p7", "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=bare, capture_output=True, text=True, timeout=60,
    )
    assert out.returncode != 0 and out.stdout == ""
