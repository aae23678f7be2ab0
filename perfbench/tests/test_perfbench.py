"""Self-tests of the benchmark, at tiny problem sizes.

Run with ``python -m pytest perfbench/tests``.  They guard the benchmark
itself: every metric is emitted with its unit, counts repeat for a fixed
seed, no layer hook silently reads zero, and the output checks reject a
wrong answer.
"""
import argparse
import json
import os
import shutil
import signal
import subprocess
import sys
import tempfile
import time
from functools import lru_cache
from pathlib import Path

import numpy as np
import pytest

ROOT = Path(__file__).resolve().parents[2]
for path in (ROOT / "src", ROOT):
    if str(path) not in sys.path:
        sys.path.insert(0, str(path))

from hovi import cli  # noqa: E402
from hovi.cli import read_trajectory_csv  # noqa: E402

from perfbench import bench, checks, workloads  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
WORKLOADS = [w["name"] for w in SPEC["workloads"]]

# Layer metrics each workload exercises; a hook that stops firing (for
# instance after a rename in hovi) reads zero and fails the test.
EVERYWHERE = {
    "derivatives.partial.calls",
    "derivatives.partial.self_s",
    "core.as_window.calls",
    "delsolve.residual.evals",
    "delsolve.residual.self_s",
    "delsolve.jacobian.builds",
    "delsolve.jacobian.s",
    "delsolve.jacobian.residual_evals",
    "delsolve.jacobian.useful_ratio",
    "delsolve.jacobian.share",
    "delsolve.linalg.self_s",
    "delsolve.linesearch.trials",
    "delsolve.linesearch.accept_ratio",
    "trace.wall_s",
    "trace.overhead_ratio",
}
CLI = {"cli.run.self_s", "cli.output_bytes"}
EXERCISED = {
    "global-bvp": EVERYWHERE | CLI | {"core.window_value.calls"},
    "beam-free-time": EVERYWHERE
    | CLI
    | {
        "cli.coefficient_eval.calls",
        "cli.coefficient_eval.s",
        "timedep.warm_stage.s",
        "timedep.warm_stage.iterations",
        "timedep.full_stage.s",
        "timedep.discrete_energy.s",
    },
    "ocp-desk": EVERYWHERE
    | CLI
    | {"core.window_value.calls", "derivatives.partial_fd.calls", "derivatives.partial_fd.self_s"},
    "sphere-step-geometry": EVERYWHERE
    | {
        "core.window_value.calls",
        "delsolve.step.calls",
        "delsolve.step.s",
        "geometry.check_symplecticity.s",
        "geometry.check_symplecticity.step_calls",
        "geometry.omega_matrix.s",
        "geometry.momentum.s",
    },
}
# Paths that exactly one workload takes.
ONLY = {
    "derivatives.partial_fd.calls": "ocp-desk",
    "cli.coefficient_eval.calls": "beam-free-time",
}


@lru_cache(maxsize=None)
def measure(workload, trace, seed=5, repeat=0):
    """One in-process tiny run; ``repeat`` only separates cache entries."""
    args = argparse.Namespace(
        workload=workload, seed=seed, seconds=0.0, trace=trace, size="tiny"
    )
    with tempfile.TemporaryDirectory() as workdir:
        result, wrong = bench.run(args, workdir, setup_repeats=1)
    assert not wrong, wrong
    return result


def _metric_units(section):
    return {m["name"]: m["unit"] for m in SPEC[section]}


@pytest.mark.parametrize("workload", WORKLOADS)
@pytest.mark.parametrize("trace,section", [(0, "end_to_end"), (1, "per_layer")])
def test_tiny_run_emits_every_metric_with_its_unit(workload, trace, section):
    result = measure(workload, trace)
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True
    assert result["attempted"] >= 1
    emitted = {name: m["unit"] for name, m in result["metrics"].items()}
    assert emitted == _metric_units(section)
    for m in result["metrics"].values():
        assert isinstance(m["value"], (int, float)) and np.isfinite(m["value"])


def test_command_prints_result_as_last_line():
    out = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "ocp-desk", "--seed", "2",
         "--seconds", "0", "--trace", "0", "--size", "tiny"],
        cwd=ROOT, capture_output=True, text=True, timeout=170,
    )
    assert out.returncode == 0, out.stderr
    result = json.loads(out.stdout.strip().splitlines()[-1])
    assert set(result["metrics"]) == set(_metric_units("end_to_end"))
    assert "# conditions" in out.stdout


def test_command_fails_without_the_program(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(ROOT / "perfbench", tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    out = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "ocp-desk", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=170,
    )
    assert out.returncode != 0
    assert '"metrics"' not in out.stdout


@pytest.mark.parametrize("workload", ["global-bvp", "sphere-step-geometry"])
def test_counts_repeat_for_a_fixed_seed(workload):
    def counts(repeat):
        e2e = measure(workload, 0, repeat=repeat)["metrics"]
        layers = measure(workload, 1, repeat=repeat)["metrics"]
        return (
            e2e["newton_iters"]["value"],
            layers["delsolve.jacobian.builds"]["value"],
            layers["derivatives.partial.calls"]["value"],
        )

    assert counts(0) == counts(1)


@pytest.mark.parametrize("workload", WORKLOADS)
def test_no_exercised_layer_reads_zero(workload):
    metrics = measure(workload, 1)["metrics"]
    zero = sorted(n for n in EXERCISED[workload] if metrics[n]["value"] == 0)
    assert not zero, f"{workload}: exercised layers read zero: {zero}"
    for name, owner in ONLY.items():
        assert (metrics[name]["value"] != 0) == (workload == owner), name


def test_host_speed_samples_while_work_runs():
    with bench.HostSpeed() as host:
        end = time.perf_counter() + 0.3
        while time.perf_counter() < end:
            pass
    assert len(host.samples) >= 5
    assert 0 < host.overhead < 0.3
    assert host.scale > 0
    assert signal.getsignal(signal.SIGALRM) is signal.SIG_DFL


def test_checker_rejects_sphere_node_moved_off_the_sphere(tmp_path):
    work = workloads.prepare("global-bvp", 7, "tiny", str(tmp_path / "inputs"))
    path, cfg, out = work.jobs[0]
    assert cfg["system"] == "sphere-spline"
    assert cli.main(["run", path, "--out", out]) == 0
    csv = os.path.join(out, "trajectory.csv")
    assert checks.check_cli_output(cfg, csv) == []

    times, nodes, lambdas = read_trajectory_csv(csv)
    p = len(nodes) // 2
    nodes[p] *= 1.0 + 1e-6 / np.linalg.norm(nodes[p])
    moved = str(tmp_path / "moved.csv")
    with open(moved, "w") as fh:
        fh.write("index,t,q_1,q_2,q_3,lambda_1\n")
        for i in range(len(nodes)):
            row = [i, times[i], *nodes[i], *lambdas[i]]
            fh.write(",".join("%.17g" % v for v in row) + "\n")
    problems = checks.check_cli_output(cfg, moved)
    assert any("sphere norm defect" in p for p in problems), problems
