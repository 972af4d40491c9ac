"""The benchmark's own tests: tiny-size runs of every workload (free L=3,
mixed L=2, cross-construction length <= 2).

    python3 -m pytest perfbench
"""

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
NO_CACHE = shutil.ignore_patterns("__pycache__")


def copy_benchmark(dest):
    """BENCHMARK.json and the files under its paths, copied into dest."""
    shutil.copy(ROOT / "BENCHMARK.json", dest)
    for path in BENCH["paths"]:
        shutil.copytree(ROOT / path, dest / path, ignore=NO_CACHE)


def run(workload, trace=0, seed=0, cwd=ROOT):
    return subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload,
         "--seed", str(seed), "--seconds", "0.1", "--trace", str(trace),
         "--size", "tiny"],
        cwd=cwd, capture_output=True, text=True, timeout=170)


def result(proc):
    assert proc.returncode == 0, proc.stderr
    res = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(res) == {"correct", "attempted", "failed", "metrics"}
    return res


@pytest.mark.parametrize("workload", WORKLOADS)
@pytest.mark.parametrize("trace,section", [(0, "end_to_end"),
                                           (1, "per_layer")])
def test_every_metric_printed_with_its_unit(workload, trace, section):
    proc = run(workload, trace)
    res = result(proc)
    assert res["correct"] and res["failed"] == 0 and res["attempted"] >= 1
    want = {m["name"]: m["unit"] for m in BENCH[section]}
    assert {k: m["unit"] for k, m in res["metrics"].items()} == want
    printed = {line.split()[0]: line.split()[2]
               for line in proc.stdout.splitlines()[:-1]
               if line.split()[0] in want}
    assert printed == want


@pytest.mark.parametrize("workload", WORKLOADS)
def test_conjugated_inputs_match_recorded_outputs(workload):
    res = result(run(workload, 0, 3))
    assert res["correct"] and res["failed"] == 0
    assert res["metrics"]["correct_frac"]["value"] == 1.0


def _tamper(expected: dict):
    outcome = expected["outcome"]
    if "agree" in outcome:
        key = sorted(outcome["agree"])[0]
        outcome["agree"][key] = not outcome["agree"][key]
    else:
        records = outcome["reps"][0]["records"]
        key = sorted(records)[0]
        records[key][0] = "not_separable"


@pytest.mark.parametrize("workload", WORKLOADS)
def test_tampered_expected_output_is_counted_as_failed(workload, tmp_path):
    copy_benchmark(tmp_path)
    shutil.copytree(ROOT / "src", tmp_path / "src", ignore=NO_CACHE)
    path = tmp_path / "perfbench" / "expected" / f"{workload}.tiny.json"
    expected = json.loads(path.read_text())
    _tamper(expected)
    path.write_text(json.dumps(expected))
    res = result(run(workload, cwd=tmp_path))
    assert not res["correct"]
    assert res["failed"] > 0
    assert res["metrics"]["correct_frac"]["value"] < 1.0


def test_refuses_without_the_sources(tmp_path):
    copy_benchmark(tmp_path)
    proc = run(WORKLOADS[0], cwd=tmp_path)
    assert proc.returncode != 0
    assert not proc.stdout.strip()
