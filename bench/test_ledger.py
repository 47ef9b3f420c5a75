"""Checks of the benchmark itself. Slow (about four minutes) and outside
the tier-1 suite: run with ``pytest bench/``."""

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

import run

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
CONTRACT = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
WORKLOADS = [workload["name"] for workload in CONTRACT["workloads"]]


def bench(*args, cwd=ROOT):
    proc = subprocess.run([sys.executable, "bench/run.py", *args], cwd=cwd,
                          capture_output=True, text=True, timeout=600)
    lines = proc.stdout.strip().splitlines()
    result = json.loads(lines[-1]) if lines and lines[-1].startswith("{") \
        else None
    return proc.returncode, proc.stdout + proc.stderr, result


def table_value(output: str, name: str) -> float:
    """The value column of a per-layer table row."""
    for line in output.splitlines():
        fields = line.split()
        if fields and fields[0] == name:
            return float(fields[1])
    raise AssertionError(f"{name} not printed")


@pytest.mark.parametrize("workload", WORKLOADS)
def test_end_to_end_metrics_print_with_units(workload):
    code, output, result = bench("--workload", workload, "--passes", "1")
    assert code == 0, output
    assert result["correct"] and result["failed"] == 0, output
    assert result["attempted"] >= 1
    for metric in CONTRACT["end_to_end"]:
        printed = result["metrics"][metric["name"]]
        assert printed["unit"] == metric["unit"]
        assert printed["value"] > 0
        assert f"{metric['name']} " in output
    assert "failed_frac" in output and "sim_digest" in output


@pytest.mark.parametrize("workload", WORKLOADS)
def test_per_layer_metrics_print_with_units(workload):
    code, output, result = bench("--workload", workload, "--trace", "1")
    assert code == 0, output
    assert result["correct"] and result["failed"] == 0, output
    assert set(result["metrics"]) == {m["name"]
                                      for m in CONTRACT["per_layer"]}
    for metric in CONTRACT["per_layer"]:
        assert result["metrics"][metric["name"]]["unit"] == metric["unit"]
        if metric["unit"] == "s":
            assert result["metrics"][metric["name"]]["value"] > 0
    # layer spans account for the traced pass, bar the benchmark's own
    # bookkeeping between them
    assert 0.95 <= table_value(output, "bench.span_coverage") <= 1.0 + 1e-6
    assert (BENCH / "results" / f"trace-{workload}.json").exists()


def test_traced_counts_repeat_exactly():
    exact = [m["name"] for m in CONTRACT["per_layer"]
             if m["name"].endswith("_calls")]
    exact += ["sim.events", "memory.mshr_retry_ratio"]
    runs = [bench("--workload", "graphproj-dae", "--trace", "1")[2]
            for _ in range(2)]
    for name in exact:
        assert runs[0]["metrics"][name] == runs[1]["metrics"][name], name


def test_wrong_expected_cycles_fail_the_run(tmp_path, monkeypatch, capsys):
    baseline = json.loads((ROOT / run.IDENTITY_FILE).read_text())
    baseline["kernels"]["spmv"]["cycles"] += 1
    wrong = tmp_path / "identity.json"
    wrong.write_text(json.dumps(baseline))
    monkeypatch.setattr(run, "IDENTITY_FILE", wrong)
    code = run.main(["--workload", "parboil-ooo", "--passes", "1"])
    output = capsys.readouterr().out
    result = json.loads(output.strip().splitlines()[-1])
    assert code == 1, output
    assert result["failed"] == 1 and not result["correct"]
    assert "parboil-ooo/spmv" in output


def test_refuses_to_run_without_sources(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(BENCH, tmp_path / "bench",
                    ignore=shutil.ignore_patterns("results", ".work",
                                                  "__pycache__"))
    code, output, result = bench("--workload", "dse-sweep", "--seconds",
                                 "1", cwd=tmp_path)
    assert code != 0
    assert result is None, output
