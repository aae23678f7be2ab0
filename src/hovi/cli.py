"""Batch front end: JSON experiment configs in, CSV/JSON artifacts out.

Two subcommands: ``run`` executes the configured solve and writes a
trajectory CSV plus a diagnostics JSON; ``check`` runs the invariant
suite (gradient cross-checks, variational consistency, and the
geometric diagnostics where they apply) without a full solve where
possible.

Exit codes: 0 success, 1 configuration error, 2 solver non-convergence
or failed check, 3 regularity failure.
"""
from __future__ import annotations

import argparse
import json
import logging
import os
import re
import sys
from typing import Optional

import numpy as np

from .applications import (
    UnderactuatedSpec,
    beam_system,
    coupled_quadratic_lagrangian,
    great_circle_state,
    recover_controls,
    solve_ocp,
    sphere_spline_system,
)
from .core import ConstrainedSystem, DiscretePath, MultiplierSequence, WindowFunction, discrete_action
from .delsolve import (
    DEFAULT_MAX_ITER,
    DEFAULT_TOL,
    BoundaryData,
    StepState,
    del_residual,
    solve_bvp,
    step,
)
from .derivatives import FD_STEP, central_difference, check_gradient
from .errors import DimensionError, NonConvergenceError, NumericError, RegularityError
from .geometry import check_momentum_conservation, check_symplecticity, rotation_action
from .timedep import TimedPath, discrete_energy, extend, solve_free_times

log = logging.getLogger("hovi")

EXIT_OK = 0
EXIT_CONFIG = 1
EXIT_NONCONVERGENCE = 2
EXIT_REGULARITY = 3

_SYSTEMS = ("sphere-spline", "beam", "ocp", "custom-polynomial")


class ConfigError(Exception):
    pass


# ---------------------------------------------------------------------------
# config handling

def _require_keys(d: dict, allowed: set, required: set, where: str) -> None:
    if not isinstance(d, dict):
        raise ConfigError(f"{where} must be a JSON object")
    unknown = set(d) - allowed
    if unknown:
        raise ConfigError(f"unknown keys {sorted(unknown)} in {where}")
    missing = required - set(d)
    if missing:
        raise ConfigError(f"missing keys {sorted(missing)} in {where}")


def _integer(value, name: str) -> int:
    """A JSON integer, or a float without a fractional part."""
    if type(value) is int or (type(value) is float and value.is_integer()):
        return int(value)
    raise ConfigError(f"{name} must be an integer, got {value!r}")


def _real(value, name: str, shape=()):
    """Finite JSON numbers in nested lists of the given shape (any when None).

    A float for shape (), an array otherwise.  Booleans, strings, NaN and
    the infinities are errors.
    """
    def check(v):
        if isinstance(v, list):
            for item in v:
                check(item)
        elif type(v) not in (int, float) or not abs(v) <= sys.float_info.max:
            raise ConfigError(f"{name} must hold finite numbers, got {v!r}")

    check(value)
    arr = np.asarray(value, dtype=float)
    if shape is not None and arr.shape != shape:
        raise ConfigError(f"{name} must have shape {shape}, got {arr.shape}")
    return float(arr) if arr.shape == () else arr


def _tolerance(value, name: str) -> float:
    """A finite positive JSON number."""
    tol = _real(value, name)
    if tol <= 0:
        raise ConfigError(f"{name} must be a finite positive number, got {value!r}")
    return tol


def _flag(value, name: str) -> bool:
    if type(value) is not bool:
        raise ConfigError(f"{name} must be true or false, got {value!r}")
    return value


def load_config(path: str) -> dict:
    try:
        with open(path) as fh:
            cfg = json.load(fh)
    except OSError as exc:
        raise ConfigError(f"cannot read config: {exc}")
    except json.JSONDecodeError as exc:
        raise ConfigError(f"config is not valid JSON: {exc}")
    if not isinstance(cfg, dict):
        raise ConfigError("config must be a JSON object")
    _require_keys(
        cfg,
        {"system", "params", "boundary", "pins", "solver", "output", "diagnostics"},
        {"system", "params"},
        "config",
    )
    if cfg["system"] not in _SYSTEMS:
        raise ConfigError(f"unknown system {cfg['system']!r}, expected one of {_SYSTEMS}")
    if "pins" in cfg and cfg["system"] != "sphere-spline":
        raise ConfigError(f"pins are not supported for system {cfg['system']!r}")
    boundary_keys = {"head", "tail"}
    if cfg["system"] == "beam":
        boundary_keys |= {"head_times", "tail_times"}
    _require_keys(cfg.get("boundary", {}), boundary_keys, set(), "boundary")
    solver = cfg.get("solver", {})
    _require_keys(solver, {"tol", "max_iter"}, set(), "solver")
    tol = _tolerance(solver.get("tol", DEFAULT_TOL), "solver.tol")
    max_iter = _integer(solver.get("max_iter", DEFAULT_MAX_ITER), "solver.max_iter")
    if max_iter < 1:
        raise ConfigError("solver max_iter must be at least 1")
    cfg["solver"] = {"tol": tol, "max_iter": max_iter}
    diag = cfg.get("diagnostics", {})
    _require_keys(diag, {"symplectic", "momentum", "energy"}, set(), "diagnostics")
    cfg["diagnostics"] = {
        key: _flag(diag.get(key, False), f"diagnostics.{key}")
        for key in ("symplectic", "momentum", "energy")
    }
    output = cfg.get("output", {})
    _require_keys(output, {"trajectory", "diagnostics"}, set(), "output")
    cfg["output"] = {
        "trajectory": output.get("trajectory", "trajectory.csv"),
        "diagnostics": output.get("diagnostics", "diagnostics.json"),
    }
    return cfg


def _validated(validate, arg):
    """Run one config step; bad values in the config become ConfigError."""
    try:
        return validate(arg)
    except (ValueError, TypeError) as exc:
        raise ConfigError(str(exc)) from exc


def _boundary_block(cfg: dict, key: str, shape) -> np.ndarray:
    boundary = cfg.get("boundary", {})
    if key not in boundary:
        raise ConfigError(f"boundary.{key} is required for system {cfg['system']!r}")
    return _real(boundary[key], f"boundary.{key}", shape)


# ---------------------------------------------------------------------------
# system construction

def polynomial_system(
    k: int,
    n: int,
    m: int,
    seed: int,
    degree: int = 2,
    break_partials: bool = False,
) -> ConstrainedSystem:
    """Random polynomial Lagrangian and constraints with analytic gradients.

    The window value is a random quadratic-plus-quartic form in the
    flattened window; gradients are exact unless ``break_partials`` asks
    for the deliberately wrong fixture used as a negative control.
    """
    if degree < 2:
        raise ConfigError("polynomial degree must be at least 2")
    rng = np.random.default_rng(seed)
    size = (k + 1) * n

    def make_window_function(scale):
        A = scale * rng.normal(size=(size, size))
        A = 0.5 * (A + A.T)
        b = scale * rng.normal(size=size)
        c = scale * rng.normal(size=size) if degree >= 4 else np.zeros(size)

        def ev(w, A=A, b=b, c=c):
            z = np.asarray(w, dtype=float).ravel()
            return float(0.5 * z @ A @ z + b @ z + 0.25 * np.sum(c * z ** 4))

        def make_grad(j):
            def grad(w, j=j, A=A, b=b, c=c):
                z = np.asarray(w, dtype=float).ravel()
                g = A @ z + b + c * z ** 3
                if break_partials:
                    g = g + 1e-2 * (1.0 + np.abs(g))
                return g[(j - 1) * n : j * n]

            return grad

        return WindowFunction(k, n, ev, tuple(make_grad(j) for j in range(1, k + 2)))

    lagrangian = make_window_function(1.0)
    constraints = tuple(make_window_function(0.5) for _ in range(m))
    return ConstrainedSystem(k, n, lagrangian, constraints)


def _build_mu_rho(params: dict):
    mu_c = np.atleast_1d(_real(params.get("mu", 1.0), "mu", None))
    rho_c = np.atleast_1d(_real(params.get("rho", 0.0), "rho", None))
    mu = np.polynomial.Polynomial(mu_c)
    rho = np.polynomial.Polynomial(rho_c)
    return mu, rho, mu.deriv(), rho.deriv()


def _validate_sphere(cfg: dict):
    params = cfg["params"]
    _require_keys(params, {"r", "h", "N"}, {"r", "h", "N"}, "params")
    r, h = (_real(params[key], key) for key in ("r", "h"))
    N = _integer(params["N"], "N")
    if r <= 0 or h <= 0:
        raise ConfigError("sphere-spline needs positive r and h")
    if N <= 4:
        raise ConfigError("sphere-spline needs N > 4")
    head = _boundary_block(cfg, "head", (2, 3))
    tail = _boundary_block(cfg, "tail", (2, 3))
    pins = cfg.get("pins", {})
    if not isinstance(pins, dict):
        raise ConfigError("pins must be a JSON object")
    for i in pins:
        if not re.fullmatch("[0-9]+", i):
            raise ConfigError(f"pin index must be plain decimal digits, got {i!r}")
    pins = {int(i): _real(point, f"pins.{i}", (3,)) for i, point in pins.items()}
    return sphere_spline_system(r, h), BoundaryData(head, tail, N, pins), r, h


def _validate_beam(cfg: dict):
    params = cfg["params"]
    _require_keys(params, {"mu", "rho", "N"}, {"N"}, "params")
    N = _integer(params["N"], "N")
    if N <= 4:
        raise ConfigError("beam needs N > 4")
    mu, rho, dmu, drho = _build_mu_rho(params)
    system = beam_system(mu, rho, dmu, drho)
    boundary = cfg.get("boundary", {})
    keys = {"head_times", "head", "tail_times", "tail"}
    _require_keys(boundary, keys, keys, "boundary")
    timed = {key: _real(boundary[key], f"boundary.{key}", None) for key in keys}
    try:
        head = TimedPath(timed["head_times"], timed["head"])
        tail = TimedPath(timed["tail_times"], timed["tail"])
    except DimensionError as exc:
        raise ConfigError(f"bad beam boundary: {exc}")
    if head.times.shape[0] != 2 or tail.times.shape[0] != 2:
        raise ConfigError("beam boundary needs two timed nodes per side")
    return system, N, head, tail


def _validate_ocp(cfg: dict):
    params = cfg["params"]
    _require_keys(
        params,
        {"n", "r", "stiffness", "cost_weight", "t0", "h", "N"},
        {"n", "r", "stiffness", "N"},
        "params",
    )
    n, r, N = (_integer(params[key], key) for key in ("n", "r", "N"))
    if not 1 <= r < n:
        raise ConfigError("ocp needs 1 <= r < n")
    if N <= 4:
        raise ConfigError("ocp needs N > 4")
    K = _real(params["stiffness"], "stiffness", (n, n))
    weight = _real(params.get("cost_weight", 1.0), "cost_weight")
    if weight <= 0:
        raise ConfigError("cost_weight must be positive")
    t0 = _real(params.get("t0", 0.0), "t0")
    h = _real(params.get("h", 0.25), "h")
    if h <= 0:
        raise ConfigError("ocp needs positive h")
    lagrangian = coupled_quadratic_lagrangian(n, K)
    spec = UnderactuatedSpec(
        n, r, lagrangian, lambda w2, u, weight=weight: 0.5 * weight * float(u @ u)
    )
    times = t0 + h * np.arange(N + 1)
    head = _boundary_block(cfg, "head", (2, n))
    tail = _boundary_block(cfg, "tail", (2, n))
    return spec, times, head, tail


def _validate_custom(cfg: dict):
    params = cfg["params"]
    _require_keys(
        params,
        {"k", "n", "m", "seed", "degree", "N", "break_partials"},
        {"k", "n", "N"},
        "params",
    )
    k, n, N = (_integer(params[key], key) for key in ("k", "n", "N"))
    m = _integer(params.get("m", 0), "m")
    if k < 1 or n < 1 or m < 0:
        raise ConfigError("custom-polynomial needs k >= 1, n >= 1, m >= 0")
    if N <= 2 * k:
        raise ConfigError(f"custom-polynomial needs N > 2k = {2 * k}")
    system = polynomial_system(
        k,
        n,
        m,
        _integer(params.get("seed", 0), "seed"),
        degree=_integer(params.get("degree", 2), "degree"),
        break_partials=_flag(params.get("break_partials", False), "break_partials"),
    )
    return system, N


def _validate_custom_run(cfg: dict):
    system, N = _validate_custom(cfg)
    head = _boundary_block(cfg, "head", (system.k, system.n))
    tail = _boundary_block(cfg, "tail", (system.k, system.n))
    return system, BoundaryData(head, tail, N)


# ---------------------------------------------------------------------------
# output writers

def _write_csv(path: str, times, nodes: np.ndarray, lambdas: Optional[np.ndarray]) -> None:
    rows, n = nodes.shape
    m = 0 if lambdas is None else lambdas.shape[1]
    header = ["index", "t"]
    header += [f"q_{a + 1}" for a in range(n)]
    header += [f"lambda_{a + 1}" for a in range(m)]
    with open(path, "w", newline="\n") as fh:
        fh.write(",".join(header) + "\n")
        for i in range(rows):
            cells = [str(i), "%.17g" % times[i]]
            cells += ["%.17g" % v for v in nodes[i]]
            if m:
                lam = lambdas[i] if i < lambdas.shape[0] else np.zeros(m)
                cells += ["%.17g" % v for v in lam]
            fh.write(",".join(cells) + "\n")


def read_trajectory_csv(path: str):
    """Read back a trajectory CSV; returns (times, nodes, lambdas)."""
    with open(path) as fh:
        header = fh.readline().strip().split(",")
        data = np.array([[float(c) for c in line.split(",")] for line in fh if line.strip()])
    nq = sum(1 for h in header if h.startswith("q_"))
    nl = sum(1 for h in header if h.startswith("lambda_"))
    times = data[:, 1]
    nodes = data[:, 2 : 2 + nq]
    lambdas = data[:, 2 + nq : 2 + nq + nl] if nl else None
    return times, nodes, lambdas


def _write_json(path: str, payload: dict) -> None:
    with open(path, "w") as fh:
        json.dump(payload, fh, indent=2, sort_keys=True)
        fh.write("\n")


# ---------------------------------------------------------------------------
# run

def _report_payload(report) -> dict:
    return {
        "converged": bool(report.converged),
        "iterations": int(report.iterations),
        "final_residual_norm": float(report.final_residual_norm),
        "jacobian_condition_estimate": float(report.jacobian_condition_estimate),
        "residual_history": [float(v) for v in report.residual_history],
    }


def _solve_bvp(problem, tol, max_iter):
    system, boundary = problem[:2]
    return solve_bvp(system, boundary, tol=tol, max_iter=max_iter)


def _write_sphere(cfg, problem, solution, diag, trajectory):
    system, boundary, r, h = problem
    path, mult, _ = solution
    _write_csv(trajectory, h * np.arange(boundary.N + 1), path.nodes, mult.lambdas)
    diag["max_norm_defect"] = float(
        np.max(np.abs(np.linalg.norm(path.nodes, axis=1) - r))
    )
    if cfg["diagnostics"]["symplectic"] or cfg["diagnostics"]["momentum"]:
        k, tol = system.k, cfg["solver"]["tol"]
        state = StepState(path.nodes[: 2 * k], mult.lambdas[:k])
        if cfg["diagnostics"]["symplectic"]:
            srep = check_symplecticity(system, state, tol=tol)
            diag["symplectic_defect"] = float(srep.defect_norm)
            diag["symplectic_restricted"] = bool(srep.restricted)
        if cfg["diagnostics"]["momentum"]:
            traj = [state]
            for _ in range(min(10, boundary.N)):
                nxt, _ = step(system, traj[-1], tol=tol)
                traj.append(nxt)
            diag["momentum_drift"] = float(
                check_momentum_conservation(system, rotation_action(), traj)
            )


def _solve_beam(problem, tol, max_iter):
    system, N, head, tail = problem
    return solve_free_times(system, head, tail, N, tol=tol, max_iter=max_iter)


def _write_beam(cfg, problem, solution, diag, trajectory):
    system = problem[0]
    timed, _ = solution
    _write_csv(trajectory, timed.times, timed.nodes, None)
    if cfg["diagnostics"]["energy"]:
        energies = [
            discrete_energy(system, timed.times, timed.nodes, i)
            for i in range(1, timed.N - 1)
        ]
        diag["energy_series"] = [float(v) for v in energies]
        diag["energy_drift"] = float(max(energies) - min(energies))


def _solve_ocp(problem, tol, max_iter):
    return solve_ocp(*problem, tol=tol, max_iter=max_iter)


def _write_ocp(cfg, problem, solution, diag, trajectory):
    spec, times, _, _ = problem
    path, mult, _ = solution
    _write_csv(trajectory, times, path.nodes[:, 1:], mult.lambdas)
    controls = recover_controls(spec, times, path.nodes[:, 1:])
    diag["controls"] = [[float(v) for v in row] for row in controls]


def _write_custom(cfg, problem, solution, diag, trajectory):
    system, boundary = problem
    path, mult, _ = solution
    lambdas = mult.lambdas if system.m else None
    _write_csv(trajectory, np.arange(boundary.N + 1, dtype=float), path.nodes, lambdas)


# system -> (validate the config, solve, write the trajectory and the
# system's own diagnostics)
_RUNS = {
    "sphere-spline": (_validate_sphere, _solve_bvp, _write_sphere),
    "beam": (_validate_beam, _solve_beam, _write_beam),
    "ocp": (_validate_ocp, _solve_ocp, _write_ocp),
    "custom-polynomial": (_validate_custom_run, _solve_bvp, _write_custom),
}


def run_command(cfg: dict, out_dir: str) -> int:
    validate, solve, write = _RUNS[cfg["system"]]
    os.makedirs(out_dir, exist_ok=True)
    problem = _validated(validate, cfg)
    diagnostics = os.path.join(out_dir, cfg["output"]["diagnostics"])
    diag: dict = {"system": cfg["system"]}
    try:
        solution = solve(problem, cfg["solver"]["tol"], cfg["solver"]["max_iter"])
    except NonConvergenceError as exc:
        log.warning("%s solve did not converge: %s", cfg["system"], exc)
        diag.update(_report_payload(exc.report))
        diag["converged"] = False
        _write_json(diagnostics, diag)
        return EXIT_NONCONVERGENCE
    diag.update(_report_payload(solution[-1]))
    trajectory = os.path.join(out_dir, cfg["output"]["trajectory"])
    # A diagnostic that fails after a converged solve is recorded, and the
    # run still exits with the failure's code.
    try:
        write(cfg, problem, solution, diag, trajectory)
    except (NonConvergenceError, RegularityError) as exc:
        diag["diagnostic_error"] = str(exc)
        raise
    finally:
        _write_json(diagnostics, diag)
    return EXIT_OK


# ---------------------------------------------------------------------------
# check

def _variational_consistency(system: ConstrainedSystem, N: int, rng) -> float:
    """Worst relative defect of del_residual against the action gradient."""
    k, n, m = system.k, system.n, system.m
    nodes = rng.normal(size=(N + 1, n))
    lams = rng.normal(size=(N - k + 1, m))
    path = DiscretePath(nodes)
    mult = MultiplierSequence(lams)
    worst = 0.0
    for p in range(k, N - k + 1):
        res = del_residual(system, path, mult, p)

        def action(q):
            pert = nodes.copy()
            pert[p] = q
            return discrete_action(system, DiscretePath(pert), mult)

        fd = central_difference(action, nodes[p], FD_STEP)[0]
        worst = max(worst, float(np.max(np.abs(res - fd) / (1.0 + np.abs(fd)))))
    return worst


def _gradient_checks(system: ConstrainedSystem, rng, samples: int = 3) -> float:
    worst = 0.0
    funcs = [system.lagrangian] + list(system.constraints)
    for func in funcs:
        if func.partials is None:
            continue
        for _ in range(samples):
            w = rng.normal(size=(system.k + 1, system.n))
            worst = max(worst, check_gradient(func, w))
    return worst


def check_command(cfg: dict) -> int:
    rng = np.random.default_rng(2024)
    checks = []

    def add(name, value, threshold):
        checks.append(
            {
                "name": name,
                "value": float(value),
                "threshold": float(threshold),
                "pass": bool(value < threshold),
            }
        )

    name = cfg["system"]
    if name == "ocp":
        spec = _validated(_validate_ocp, cfg)[0]
        system = ConstrainedSystem(1, spec.n + 1, spec.lagrangian, ())
    elif name == "beam":
        system = extend(_validated(_validate_beam, cfg)[0])
    elif name == "sphere-spline":
        system, _, r, h = _validated(_validate_sphere, cfg)
    else:
        system = _validated(_validate_custom, cfg)[0]
    add("gradient_check", _gradient_checks(system, rng), 1e-5)
    if name != "ocp":
        add(
            "variational_consistency",
            _variational_consistency(system, 2 * system.k + 2, rng),
            1e-6,
        )
    if name == "sphere-spline":
        state, tol = great_circle_state(r, h), cfg["solver"]["tol"]
        srep = check_symplecticity(system, state, tol=tol)
        add("symplectic_restricted_defect", srep.defect_norm, 1e-4)
        traj = [state]
        for _ in range(10):
            nxt, _ = step(system, traj[-1], tol=tol)
            traj.append(nxt)
        add(
            "momentum_drift",
            check_momentum_conservation(system, rotation_action(), traj),
            1e-8,
        )

    passed = all(c["pass"] for c in checks)
    payload = {"system": name, "checks": checks, "passed": passed}
    json.dump(payload, sys.stdout, indent=2, sort_keys=True)
    sys.stdout.write("\n")
    return EXIT_OK if passed else EXIT_NONCONVERGENCE


# ---------------------------------------------------------------------------
# entry point

def main(argv=None) -> int:
    level = os.environ.get("HOVI_LOG", "WARNING").upper()
    logging.basicConfig(
        level=getattr(logging, level, logging.WARNING),
        stream=sys.stderr,
        format="%(levelname)s %(name)s: %(message)s",
    )
    parser = argparse.ArgumentParser(
        prog="hovi",
        description="Discrete variational integrators for higher-order "
        "constrained Lagrangian systems.",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    p_run = sub.add_parser("run", help="run a configured solve")
    p_run.add_argument("config")
    p_run.add_argument("--out", default=".", help="output directory")
    p_run.add_argument("--tol", type=float, default=None)
    p_run.add_argument("--max-iter", type=int, default=None)
    p_check = sub.add_parser("check", help="run invariant checks on a config")
    p_check.add_argument("config")
    args = parser.parse_args(argv)

    try:
        cfg = _validated(load_config, args.config)
        if args.command == "run":
            if args.tol is not None:
                cfg["solver"]["tol"] = _tolerance(args.tol, "--tol")
            if args.max_iter is not None:
                if args.max_iter < 1:
                    raise ConfigError("--max-iter must be at least 1")
                cfg["solver"]["max_iter"] = args.max_iter
            return run_command(cfg, args.out)
        return check_command(cfg)
    except (ConfigError, DimensionError, NumericError) as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except RegularityError as exc:
        print(f"regularity failure: {exc}", file=sys.stderr)
        return EXIT_REGULARITY
    except NonConvergenceError as exc:
        print(f"non-convergence: {exc}", file=sys.stderr)
        return EXIT_NONCONVERGENCE


if __name__ == "__main__":
    sys.exit(main())
