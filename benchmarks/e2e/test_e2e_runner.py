"""Self-tests of the runner: every metric emitted, inputs from the seed only."""

from __future__ import annotations

import json
import shutil
import subprocess
import sys

import compare
import numpy as np
import pytest
import run
import workloads

SPEC = json.loads((run.ROOT / "BENCHMARK.json").read_text())


def _run(*argv, cwd=run.ROOT):
    return subprocess.run(
        [sys.executable, "benchmarks/e2e/run.py", *argv],
        cwd=cwd, capture_output=True, text=True, timeout=600,
    )


@pytest.mark.parametrize("trace", ["0", "1"])
def test_smoke_emits_every_listed_metric(trace):
    proc = _run("--workload", "all", "--seed", "5", "--seconds", "1",
                "--trace", trace, "--smoke")
    assert proc.returncode == 0, proc.stderr
    lines = proc.stdout.strip().splitlines()
    result = json.loads(lines[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0
    assert result["attempted"] > 0
    printed = {tuple(line.split()[:2]): line.split()[3]
               for line in lines[:-1] if not line.startswith("#")}
    listed = SPEC["per_layer"] if trace == "1" else SPEC["end_to_end"]
    assert [entry["name"] for entry in SPEC["workloads"]] == list(run.WORKLOADS)
    for workload in run.WORKLOADS:
        for entry in listed:
            assert printed[(workload, entry["name"])] == entry["unit"]
            metric = result["metrics"][f"{workload}.{entry['name']}"]
            assert metric["unit"] == entry["unit"]
            assert isinstance(metric["value"], float)


def test_refuses_to_run_without_the_program(tmp_path):
    shutil.copy(run.ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(run.HERE, tmp_path / "benchmarks" / "e2e",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = _run("--workload", "cli-cold", "--seed", "1", "--seconds", "1",
                "--trace", "0", cwd=tmp_path)
    assert proc.returncode != 0
    assert proc.stdout == ""


def test_same_seed_same_inputs():
    makers = [
        lambda seed: workloads.cli_inputs(seed, 10.0),
        lambda seed: workloads.scale_inputs(seed, 10.0, False),
        lambda seed: workloads.daemon_inputs("daemon-light", seed, 10.0),
        lambda seed: workloads.daemon_inputs("daemon-burst", seed, 10.0),
    ]
    for make in makers:
        assert make(1) == make(1)
        assert make(1) != make(2)


def test_same_seed_same_traces():
    base_a, specs_a = workloads.stream_inputs(7, 1.0, True)
    base_b, specs_b = workloads.stream_inputs(7, 1.0, True)
    assert specs_a == specs_b
    np.testing.assert_array_equal(base_a.link_loads_pps, base_b.link_loads_pps)
    for spec_a, spec_b in zip(specs_a, specs_b):
        for task_a, task_b in zip(workloads.generate(base_a, spec_a),
                                  workloads.generate(base_b, spec_b)):
            np.testing.assert_array_equal(task_a.od_sizes_pps, task_b.od_sizes_pps)
            np.testing.assert_array_equal(task_a.link_loads_pps,
                                          task_b.link_loads_pps)
    assert workloads.stream_inputs(8, 1.0, True)[1] != specs_a


def test_daemon_schedule_offers_the_stated_load():
    _, hot, schedule = workloads.daemon_inputs("daemon-burst", 3, 10.0)
    kinds = [entry["kind"] for entry in schedule]
    assert kinds.count("hot") == 90 and kinds.count("task") == 10
    assert kinds.count("theta") == 100 and kinds.count("burst") == 24
    assert all(entry["params"]["theta"] in hot
               for entry in schedule if entry["kind"] == "hot")
    times = [entry["t"] for entry in schedule]
    assert times == sorted(times) and 0.0 <= times[0] and times[-1] <= 10.0


def _run_file(path, workload, value, late=0.0):
    path.write_text(
        f"# e2e workload={workload} seed=1 seconds=10 trace=0\n"
        f"{workload} op_p50_ms {value} ms\n"
        f"{workload} throughput_ops {1000.0 / value} 1/s\n"
        f"{workload} peak_rss_mb 100.0 MB\n"
        f"{workload} setup_s 1.0 s\n"
        f"{workload} loadgen.late_p99_ms {late} ms\n"
        '{"correct": true, "attempted": 1, "failed": 0, "metrics": {}}\n'
    )
    return path


def test_compare_applies_the_gain_and_regression_rules(tmp_path, capsys):
    parent = [_run_file(tmp_path / f"p{i}.txt", "stream-week", 10.0 + 0.1 * i)
              for i in range(10)]
    faster = [_run_file(tmp_path / f"f{i}.txt", "stream-week", 8.0 + 0.1 * i)
              for i in range(10)]
    slower = [_run_file(tmp_path / f"s{i}.txt", "stream-week", 14.0 + 0.1 * i)
              for i in range(10)]
    argv = ["--parent", *map(str, parent), "--change"]
    assert compare.main(argv + list(map(str, faster))) == 0
    out = capsys.readouterr().out
    assert "op_p50_ms=gain" in out and "throughput_ops=gain" in out
    assert "peak_rss_mb=unchanged" in out
    assert compare.main(argv + list(map(str, slower))) == 1
    assert "op_p50_ms=regression" in capsys.readouterr().out
    # Nine pairs are too few for a gain, and a late run is dropped.
    late = _run_file(tmp_path / "late.txt", "stream-week", 8.0, late=9.0)
    assert compare.main(argv + list(map(str, faster[:9])) + [str(late)]) == 0
    out = capsys.readouterr().out
    assert "9 pairs" in out and "op_p50_ms=unchanged" in out and " late " in out
