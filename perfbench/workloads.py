"""Seeded inputs and one unit of work for each benchmark workload.

A workload is prepared once from its seed (configs written as JSON, start
states built in memory) and then run unit by unit.  Every unit of a run
repeats the same inputs, so a fixed seed gives the same work and the same
counts.  The program sees only the generated configs and states: the CLI
workloads go through ``hovi.cli.main(["run", cfg, "--out", dir])``
in-process, the geometry workload calls the library directly.

Calls into hovi go through module attributes looked up at call time
(``geometry.check_symplecticity``, ``delsolve.step``, ``cli.main``) so
that the traced run's wrappers see them.
"""
from __future__ import annotations

import json
import os
import shutil
from dataclasses import dataclass, field

import numpy as np

from hovi import cli, delsolve, geometry
from hovi.applications import sphere_multiplier, sphere_spline_system
from hovi.errors import NonConvergenceError, RegularityError

from perfbench import checks

NAMES = ("global-bvp", "beam-free-time", "ocp-desk", "sphere-step-geometry")

# Problem sizes.  "tiny" exercises every code path in well under a second
# and serves the warm-up unit and the self-tests.
SIZES = {
    "full": {
        "sphere_N": 40,
        "custom_N": 40,
        "beam_N": 30,
        "loaded_N": 12,
        "ocp_N": 12,
        "states": 12,
        "steps": 50,
    },
    "tiny": {
        "sphere_N": 8,
        "custom_N": 8,
        "beam_N": 10,
        "loaded_N": 6,
        "ocp_N": 6,
        "states": 2,
        "steps": 4,
    },
}

SPHERE_R = 1.0
SPHERE_H = 0.1
# Seeded ranges.  The arc length and the beam tail offset are kept where
# the Newton iteration count is constant or moves by one (see WORKLOADS.md).
ARC_RANGE = (1.0, 1.4)
TAIL_OFFSET_RANGE = (0.0098, 0.0102)
LOADED_SLOPE_MAX = 0.005
LOADED_RHO_RANGE = (1e-4, 5e-4)
STIFFNESS_RANGE = (0.5, 1.0)
STEP_ANGLE_RANGE = (0.03, 0.08)


@dataclass
class UnitResult:
    """Outcome of one unit: operations attempted and what failed."""

    attempted: int = 0
    failed_solves: int = 0
    failed_checks: int = 0
    wrong: list = field(default_factory=list)
    output_bytes: int = 0

    @property
    def failed(self) -> int:
        return self.failed_solves + self.failed_checks

    def record_check(self, label: str, problems: list) -> None:
        """A converged solve whose output fails its check is a wrong answer."""
        if problems:
            self.failed_checks += 1
            self.wrong.extend(f"{label}: {p}" for p in problems)


def rotation(rng) -> np.ndarray:
    """Uniformly random proper rotation of R^3."""
    q, r = np.linalg.qr(rng.normal(size=(3, 3)))
    q = q * np.sign(np.diag(r))
    if np.linalg.det(q) < 0:
        q[:, 0] = -q[:, 0]
    return q


def _write(path: str, cfg: dict) -> str:
    with open(path, "w") as fh:
        json.dump(cfg, fh, indent=1, sort_keys=True)
    return path


def _beam_config(N, offset, mu, rho):
    """Member of the CLI acceptance family q(t) = 0.01 t^2 + 0.005 t."""
    q = lambda t: 0.01 * t * t + 0.005 * t
    return {
        "system": "beam",
        "params": {"mu": mu, "rho": rho, "N": N},
        "boundary": {
            "head_times": [0.0, 1.0],
            "head": [q(0.0), q(1.0)],
            "tail_times": [N - 1.0, float(N)],
            "tail": [q(N - 1.0) + offset, q(float(N))],
        },
        "solver": {"tol": 1e-9},
        "diagnostics": {"energy": True},
    }


class CliWorkload:
    """Units made of ``hovi run`` calls on fixed config files."""

    def __init__(self, configs: list, workdir: str):
        self.jobs = []
        for i, cfg in enumerate(configs):
            path = _write(os.path.join(workdir, f"config{i}.json"), cfg)
            self.jobs.append((path, cfg, os.path.join(workdir, f"out{i}")))

    def run_unit(self) -> UnitResult:
        result = UnitResult()
        for path, cfg, out in self.jobs:
            shutil.rmtree(out, ignore_errors=True)
            result.attempted += 1
            code = cli.main(["run", path, "--out", out])
            if code == cli.EXIT_CONFIG:
                raise RuntimeError(f"benchmark config rejected by hovi: {path}")
            result.output_bytes += sum(
                os.path.getsize(os.path.join(out, f)) for f in os.listdir(out)
            )
            if code != cli.EXIT_OK:
                result.failed_solves += 1
                continue
            trajectory = os.path.join(out, "trajectory.csv")
            result.record_check(cfg["system"], checks.check_cli_output(cfg, trajectory))
        return result


def _global_bvp(rng, size, workdir):
    N = size["sphere_N"]
    R = rotation(rng)
    arc = rng.uniform(*ARC_RANGE)

    def node(i):
        return (R @ np.array([np.cos(i * arc / N), np.sin(i * arc / N), 0.0])).tolist()

    sphere = {
        "system": "sphere-spline",
        "params": {"r": SPHERE_R, "h": SPHERE_H, "N": N},
        "boundary": {"head": [node(0), node(1)], "tail": [node(N - 1), node(N)]},
        "solver": {"tol": 1e-10},
    }
    custom = {
        "system": "custom-polynomial",
        "params": {
            "k": 3,
            "n": 2,
            "m": 0,
            "degree": 2,
            "seed": int(rng.integers(2 ** 31)),
            "N": size["custom_N"],
        },
        "boundary": {
            "head": rng.normal(size=(3, 2)).tolist(),
            "tail": rng.normal(size=(3, 2)).tolist(),
        },
        "solver": {"tol": 1e-10},
    }
    return CliWorkload([sphere, custom], workdir)


def _beam_free_time(rng, size, workdir):
    acceptance = _beam_config(size["beam_N"], rng.uniform(*TAIL_OFFSET_RANGE), [1.0], [0.0])
    loaded = _beam_config(
        size["loaded_N"],
        0.01,
        [1.0, rng.uniform(0.0, LOADED_SLOPE_MAX)],
        [rng.uniform(*LOADED_RHO_RANGE)],
    )
    return CliWorkload([acceptance, loaded], workdir)


def _ocp_desk(rng, size, workdir):
    s = rng.uniform(*STIFFNESS_RANGE)
    cfg = {
        "system": "ocp",
        "params": {
            "n": 2,
            "r": 1,
            "stiffness": [[1.0, s], [s, 2.0]],
            "h": 0.25,
            "N": size["ocp_N"],
        },
        "boundary": {
            "head": [[0.0, 0.0], [0.01, 0.005]],
            "tail": [[0.05, 0.03], [0.055, 0.032]],
        },
        "solver": {"tol": 1e-10},
    }
    return CliWorkload([cfg], workdir)


def great_circle_start(R: np.ndarray, theta: float) -> delsolve.StepState:
    """Sphere-spline step state on the great circle R(cos, sin, 0)."""

    def q(i):
        return SPHERE_R * (R @ np.array([np.cos(i * theta), np.sin(i * theta), 0.0]))

    nodes = np.array([q(i) for i in range(4)])
    lams = np.array(
        [
            [sphere_multiplier(np.array([q(j) for j in range(p - 2, p + 3)]), SPHERE_R, SPHERE_H)]
            for p in (2, 3)
        ]
    )
    return delsolve.StepState(nodes, lams)


class SphereStepWorkload:
    """One-step map trajectories with symplecticity and momentum checks."""

    def __init__(self, rng, size):
        self.system = sphere_spline_system(SPHERE_R, SPHERE_H)
        self.steps = size["steps"]
        self.check_at = (0, self.steps // 2, self.steps)
        self.starts = [
            great_circle_start(rotation(rng), rng.uniform(*STEP_ANGLE_RANGE))
            for _ in range(size["states"])
        ]

    def run_unit(self) -> UnitResult:
        result = UnitResult()
        action = geometry.rotation_action()
        for s, start in enumerate(self.starts):
            traj = [start]
            defects = []
            try:
                for i in range(self.steps + 1):
                    if i in self.check_at:
                        result.attempted += 1
                        srep = geometry.check_symplecticity(self.system, traj[-1])
                        defects.append(float(srep.defect_norm))
                    if i < self.steps:
                        result.attempted += 1
                        nxt, _ = delsolve.step(self.system, traj[-1])
                        traj.append(nxt)
            except (NonConvergenceError, RegularityError):
                result.failed_solves += 1
                continue
            result.attempted += 1
            drift = geometry.check_momentum_conservation(self.system, action, traj)
            result.record_check(
                f"state {s}",
                checks.check_step_trajectory(self.system, SPHERE_R, traj, defects, drift),
            )
        return result


_BUILDERS = {
    "global-bvp": _global_bvp,
    "beam-free-time": _beam_free_time,
    "ocp-desk": _ocp_desk,
}


def prepare(name: str, seed: int, size: str, workdir: str):
    """Generate the workload's inputs from its seed; returns an object with run_unit()."""
    if name not in NAMES:
        raise ValueError(f"unknown workload {name!r}, expected one of {NAMES}")
    rng = np.random.default_rng([seed, NAMES.index(name)])
    if name == "sphere-step-geometry":
        return SphereStepWorkload(rng, SIZES[size])
    os.makedirs(workdir, exist_ok=True)
    return _BUILDERS[name](rng, SIZES[size], workdir)
