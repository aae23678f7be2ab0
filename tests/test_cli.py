import json
import os
import re
from pathlib import Path

import numpy as np
import pytest

from hovi import cli
from hovi.cli import ConfigError, load_config, polynomial_system, read_trajectory_csv
from hovi.core import DiscretePath, MultiplierSequence
from hovi.delsolve import BoundaryData, del_residual, solve_bvp
from hovi.applications import sphere_spline_system


def circle(i, theta=0.3):
    return [float(np.cos(i * theta)), float(np.sin(i * theta)), 0.0]


def write_config(path, cfg):
    with open(path, "w") as fh:
        json.dump(cfg, fh)
    return str(path)


def sphere_config(tmp_path, **overrides):
    cfg = {
        "system": "sphere-spline",
        "params": {"r": 1.0, "h": 0.1, "N": 8},
        "boundary": {
            "head": [circle(0), circle(1)],
            "tail": [circle(7), circle(8)],
        },
    }
    cfg.update(overrides)
    return write_config(tmp_path / "sphere.json", cfg)


def beam_config(tmp_path, **overrides):
    a, b = 0.01, 0.005
    q = lambda t: a * t * t + b * t
    cfg = {
        "system": "beam",
        "params": {"mu": [1.0], "rho": [0.0], "N": 30},
        "boundary": {
            "head_times": [0.0, 1.0],
            "head": [q(0.0), q(1.0)],
            "tail_times": [29.0, 30.0],
            "tail": [q(29.0) + 0.01, q(30.0)],
        },
        "solver": {"tol": 1e-9},
        "diagnostics": {"energy": True},
    }
    cfg.update(overrides)
    return write_config(tmp_path / "beam.json", cfg)


def custom_config(tmp_path, **params):
    base = {"k": 2, "n": 1, "N": 6, "m": 0, "seed": 3}
    base.update(params)
    cfg = {
        "system": "custom-polynomial",
        "params": base,
        "boundary": {"head": [[0.0], [0.1]], "tail": [[0.5], [0.6]]},
    }
    return write_config(tmp_path / "custom.json", cfg)


def test_load_config_rejects_unknown_keys(tmp_path):
    path = write_config(
        tmp_path / "c.json", {"system": "beam", "params": {}, "bogus": 1}
    )
    with pytest.raises(ConfigError):
        load_config(path)
    path = write_config(tmp_path / "d.json", {"params": {}})
    with pytest.raises(ConfigError):
        load_config(path)
    path = write_config(tmp_path / "e.json", {"system": "pendulum", "params": {}})
    with pytest.raises(ConfigError):
        load_config(path)


def test_load_config_rejects_bad_solver(tmp_path):
    path = sphere_config(tmp_path, solver={"tol": -1.0})
    assert cli.main(["run", path, "--out", str(tmp_path)]) == 1


def test_run_sphere_writes_trajectory(tmp_path):
    path = sphere_config(tmp_path)
    out = tmp_path / "out"
    assert cli.main(["run", path, "--out", str(out)]) == 0
    times, nodes, lambdas = read_trajectory_csv(out / "trajectory.csv")
    assert nodes.shape == (9, 3)
    assert lambdas.shape == (9, 1)
    # multiplier rows beyond the window count are zero-padded
    np.testing.assert_array_equal(lambdas[7:], 0.0)
    np.testing.assert_allclose(np.linalg.norm(nodes, axis=1), 1.0, atol=1e-10)
    diag = json.loads((out / "diagnostics.json").read_text())
    assert diag["converged"] is True
    assert diag["final_residual_norm"] < 1e-10


def test_run_sphere_is_bit_stable(tmp_path):
    path = sphere_config(tmp_path)
    out_a, out_b = tmp_path / "a", tmp_path / "b"
    assert cli.main(["run", path, "--out", str(out_a)]) == 0
    assert cli.main(["run", path, "--out", str(out_b)]) == 0
    assert (out_a / "trajectory.csv").read_bytes() == (
        out_b / "trajectory.csv"
    ).read_bytes()


def test_run_sphere_constant_boundary(tmp_path):
    p = [0.0, 0.6, 0.8]
    path = sphere_config(
        tmp_path, boundary={"head": [p, p], "tail": [p, p]}
    )
    out = tmp_path / "out"
    assert cli.main(["run", path, "--out", str(out)]) == 0
    _, nodes, lambdas = read_trajectory_csv(out / "trajectory.csv")
    np.testing.assert_allclose(nodes, np.tile(p, (9, 1)), atol=1e-10)
    np.testing.assert_allclose(lambdas, 0.0, atol=1e-10)


def test_csv_round_trip_preserves_residuals(tmp_path):
    path = sphere_config(tmp_path)
    out = tmp_path / "out"
    assert cli.main(["run", path, "--out", str(out)]) == 0
    _, nodes, lambdas = read_trajectory_csv(out / "trajectory.csv")
    system = sphere_spline_system(1.0, 0.1)
    head = np.array([circle(0), circle(1)])
    tail = np.array([circle(7), circle(8)])
    solved, mult, _ = solve_bvp(system, BoundaryData(head, tail, 8))
    csv_path = DiscretePath(nodes)
    csv_mult = MultiplierSequence(lambdas[:7])
    for p in range(2, 7):
        a = del_residual(system, csv_path, csv_mult, p)
        b = del_residual(system, solved, mult, p)
        np.testing.assert_allclose(a, b, atol=1e-12)


def test_run_malformed_config_exits_1(tmp_path):
    path = write_config(
        tmp_path / "bad.json",
        {
            "system": "sphere-spline",
            "params": {"r": 1.0, "h": -0.1, "N": 8},
            "boundary": {"head": [circle(0), circle(1)], "tail": [circle(7), circle(8)]},
        },
    )
    out = tmp_path / "out"
    assert cli.main(["run", path, "--out", str(out)]) == 1
    assert not (out / "trajectory.csv").exists()


def test_run_forced_nonconvergence_exits_2(tmp_path):
    path = sphere_config(tmp_path)
    out = tmp_path / "out"
    code = cli.main(["run", path, "--out", str(out), "--tol", "1e-16", "--max-iter", "2"])
    assert code == 2
    diag = json.loads((out / "diagnostics.json").read_text())
    assert diag["converged"] is False
    assert not (out / "trajectory.csv").exists()


def test_run_beam_energy_diagnostic(tmp_path):
    path = beam_config(tmp_path)
    out = tmp_path / "out"
    assert cli.main(["run", path, "--out", str(out)]) == 0
    diag = json.loads((out / "diagnostics.json").read_text())
    assert diag["converged"] is True
    assert diag["energy_drift"] < 1e-8
    times, nodes, lambdas = read_trajectory_csv(out / "trajectory.csv")
    assert lambdas is None
    assert np.all(np.diff(times) > 0)


def test_run_custom_polynomial(tmp_path):
    path = custom_config(tmp_path)
    out = tmp_path / "out"
    assert cli.main(["run", path, "--out", str(out)]) == 0
    _, nodes, lambdas = read_trajectory_csv(out / "trajectory.csv")
    assert nodes.shape == (7, 1)
    assert lambdas is None


def test_check_custom_polynomial_passes(tmp_path, capsys):
    path = custom_config(tmp_path)
    assert cli.main(["check", path]) == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["passed"] is True
    names = {c["name"] for c in payload["checks"]}
    assert {"gradient_check", "variational_consistency"} <= names


def test_check_broken_partials_fails(tmp_path, capsys):
    path = custom_config(tmp_path, break_partials=True)
    assert cli.main(["check", path]) == 2
    payload = json.loads(capsys.readouterr().out)
    assert payload["passed"] is False
    failed = {c["name"] for c in payload["checks"] if not c["pass"]}
    assert "gradient_check" in failed


def test_check_sphere_diagnostics(tmp_path, capsys):
    path = sphere_config(tmp_path)
    assert cli.main(["check", path]) == 0
    payload = json.loads(capsys.readouterr().out)
    by_name = {c["name"]: c for c in payload["checks"]}
    assert by_name["symplectic_restricted_defect"]["value"] < 1e-4
    assert by_name["momentum_drift"]["value"] < 1e-8


def test_check_small_step_sphere_steps_at_solver_tol(tmp_path, capsys):
    # At h = 0.025 the step residual stalls near 3e-12: stepping at 1e-12
    # instead of solver.tol found no decrease and exited 2 with no checks.
    path = sphere_config(tmp_path, params={"r": 1.0, "h": 0.025, "N": 10})
    assert cli.main(["check", path]) == 0
    by_name = {c["name"]: c for c in json.loads(capsys.readouterr().out)["checks"]}
    assert by_name["symplectic_restricted_defect"]["value"] < 1e-4
    assert by_name["momentum_drift"]["value"] < 1e-8


def test_polynomial_system_seed_reproducible():
    a = polynomial_system(1, 2, 1, seed=5)
    b = polynomial_system(1, 2, 1, seed=5)
    w = np.arange(6.0).reshape(3, 2)[:2]
    assert a.lagrangian.value(w) == b.lagrangian.value(w)
    assert a.constraints[0].value(w) == b.constraints[0].value(w)


def ocp_config(tmp_path, **overrides):
    cfg = {
        "system": "ocp",
        "params": {"n": 2, "r": 1, "stiffness": [[1.0, 0.8], [0.8, 2.0]], "N": 12},
        "boundary": {
            "head": [[0.0, 0.0], [0.01, 0.005]],
            "tail": [[0.05, 0.03], [0.055, 0.032]],
        },
    }
    cfg.update(overrides)
    return write_config(tmp_path / "ocp.json", cfg)


def ocp_overrides(**params):
    """Overrides that turn sphere_config into the ocp desk with these params."""
    base = {"n": 2, "r": 1, "stiffness": [[1.0, 0.8], [0.8, 2.0]], "N": 12}
    return {
        "system": "ocp",
        "params": dict(base, **params),
        "boundary": {"head": [[0.0, 0.0], [0.01, 0.005]], "tail": [[0.05, 0.03], [0.055, 0.032]]},
    }


def beam_overrides(params, **boundary):
    """Overrides that turn sphere_config into a short beam run."""
    base = {
        "head_times": [0.0, 1.0],
        "head": [0.0, 0.015],
        "tail_times": [9.0, 10.0],
        "tail": [0.9, 1.0],
    }
    return {"system": "beam", "params": params, "boundary": dict(base, **boundary)}


@pytest.mark.parametrize(
    "overrides",
    [
        {"params": {"r": "abc", "h": 0.1, "N": 8}},
        {"pins": {"x": circle(4)}},
        {"pins": {"4_0": circle(4)}},
        {"pins": {" 4": circle(4)}},
        {"pins": {"+4": circle(4)}},
        {"solver": {"tol": "x"}},
        {"solver": {"tol": float("inf")}},
        {"solver": {"tol": float("nan")}},
        {"solver": {"tol": True}},
        {"boundary": {"head": [circle(0), circle(1)[:2]], "tail": [circle(7), circle(8)]}},
        {"params": {"r": 1.0, "h": 0.1, "N": 8.5}},
        {"solver": {"max_iter": 10.5}},
        {"diagnostics": {"symplectic": "false"}},
        {
            "system": "custom-polynomial",
            "params": {"k": 1, "n": 1, "N": 4, "seed": 3.7},
            "boundary": {"head": [[0.0]], "tail": [[1.0]]},
        },
        {
            "system": "custom-polynomial",
            "params": {"k": 1, "n": 1, "N": 4, "break_partials": "no"},
            "boundary": {"head": [[0.0]], "tail": [[1.0]]},
        },
        ocp_overrides(r=1.5),
        {"params": {"r": 1.0, "h": "0.1", "N": 8}},
        {"params": {"r": True, "h": 0.1, "N": 8}},
        {"params": {"r": 1.0, "h": float("inf"), "N": 8}},
        {"pins": {"4": [float("nan"), 1.0, 0.0]}},
        ocp_overrides(t0=True),
        ocp_overrides(cost_weight="2"),
        ocp_overrides(cost_weight=float("inf")),
        ocp_overrides(stiffness=[[True, 0.8], [0.8, 2.0]]),
        ocp_overrides(stiffness=[[1.0, "1"], [0.8, 2.0]]),
        beam_overrides({"mu": ["1"], "N": 10}),
        beam_overrides({"N": 10}, head_times=[False, 1.0]),
    ],
    ids=[
        "bad-number",
        "bad-pin-index",
        "underscore-pin-index",
        "spaced-pin-index",
        "signed-pin-index",
        "bad-solver-tol",
        "infinite-solver-tol",
        "nan-solver-tol",
        "boolean-solver-tol",
        "ragged-head",
        "fractional-N",
        "fractional-max-iter",
        "string-flag",
        "fractional-seed",
        "string-break-partials",
        "fractional-r",
        "string-h",
        "boolean-r",
        "infinite-h",
        "nan-pin-point",
        "boolean-t0",
        "string-cost-weight",
        "infinite-cost-weight",
        "boolean-stiffness",
        "string-stiffness",
        "string-mu",
        "boolean-head-time",
    ],
)
@pytest.mark.parametrize("command", ["run", "check"])
def test_bad_config_values_exit_1(tmp_path, capsys, overrides, command):
    path = sphere_config(tmp_path, **overrides)
    args = [command, path] + (["--out", str(tmp_path / "out")] if command == "run" else [])
    assert cli.main(args) == 1
    assert "config error:" in capsys.readouterr().err


@pytest.mark.parametrize(
    "make_config",
    [
        lambda tmp: sphere_config(
            tmp,
            boundary={"head": [circle(0), circle(1)], "tail": [circle(7), circle(8)], "mid": []},
        ),
        lambda tmp: ocp_config(
            tmp,
            boundary={"head": [[0, 0], [0, 0]], "tail": [[1, 1], [1, 1]], "head_times": [0, 1]},
        ),
        lambda tmp: write_config(
            tmp / "custom.json",
            {
                "system": "custom-polynomial",
                "params": {"k": 1, "n": 1, "N": 4},
                "boundary": {"head": [[0.0]], "tail": [[1.0]], "extra": 1},
            },
        ),
        lambda tmp: beam_config(tmp, pins={"5": [0.0]}),
        lambda tmp: ocp_config(tmp, pins={"3": [0.0, 0.0]}),
        lambda tmp: write_config(
            tmp / "custom.json",
            {
                "system": "custom-polynomial",
                "params": {"k": 1, "n": 1, "N": 4},
                "boundary": {"head": [[0.0]], "tail": [[1.0]]},
                "pins": {},
            },
        ),
    ],
    ids=[
        "sphere-boundary",
        "ocp-boundary",
        "custom-boundary",
        "beam-pins",
        "ocp-pins",
        "custom-pins",
    ],
)
def test_load_config_rejects_misplaced_keys(tmp_path, make_config):
    with pytest.raises(ConfigError):
        load_config(make_config(tmp_path))


@pytest.mark.parametrize("tol", ["nan", "inf", "0", "-1e-8"])
def test_bad_tol_option_exits_1(tmp_path, capsys, tol):
    out = tmp_path / "out"
    assert cli.main(["run", sphere_config(tmp_path), "--out", str(out), f"--tol={tol}"]) == 1
    assert "config error:" in capsys.readouterr().err
    assert not (out / "trajectory.csv").exists()


def test_run_failed_diagnostic_keeps_diagnostics_json(tmp_path):
    # The solve through the pin converges; one momentum step after it
    # finds no decrease of its residual.
    angle = lambda a: [float(np.cos(a)), float(np.sin(a)), 0.0]
    path = sphere_config(
        tmp_path,
        params={"r": 1.0, "h": 0.1, "N": 10},
        boundary={"head": [angle(0.0), angle(0.1)], "tail": [angle(0.9), angle(1.0)]},
        pins={"5": [0.0, 1.0, 0.0]},
        diagnostics={"momentum": True},
    )
    out = tmp_path / "out"
    assert cli.main(["run", path, "--out", str(out)]) == 2
    assert (out / "trajectory.csv").exists()
    diag = json.loads((out / "diagnostics.json").read_text())
    assert diag["converged"] is True
    assert "line search" in diag["diagnostic_error"]
    assert "momentum_drift" not in diag


def test_run_boundary_off_the_sphere_exits_1(tmp_path, capsys):
    # The constraint of window 1 reads only the head node q_1.
    off = [(1.0 + 1e-5) * v for v in circle(1)]
    path = sphere_config(
        tmp_path, boundary={"head": [circle(0), off], "tail": [circle(7), circle(8)]}
    )
    out = tmp_path / "out"
    assert cli.main(["run", path, "--out", str(out)]) == 1
    assert "config error:" in capsys.readouterr().err
    assert not (out / "trajectory.csv").exists()


def test_run_singular_jacobian_exits_3(tmp_path, capsys):
    path = write_config(
        tmp_path / "singular.json",
        {
            "system": "custom-polynomial",
            "params": {"k": 1, "n": 2, "m": 2, "N": 4, "seed": 0},
            "boundary": {"head": [[0, 0]], "tail": [[1, 1]]},
        },
    )
    out = tmp_path / "out"
    assert cli.main(["run", path, "--out", str(out)]) == 3
    assert "regularity failure:" in capsys.readouterr().err
    assert not (out / "trajectory.csv").exists()


def test_run_unknown_node_at_the_origin_exits_3(tmp_path, capsys):
    # Between antipodal points the linear guess puts the unknown node 5 at
    # the origin, where the sphere constraint's gradient vanishes: the solve
    # meets a singular Jacobian instead of rejecting the config.
    a = 0.3
    boundary = {
        "head": [[np.cos(-a), np.sin(-a), 0.0], [1.0, 0.0, 0.0]],
        "tail": [[-1.0, 0.0, 0.0], [np.cos(np.pi + a), np.sin(np.pi + a), 0.0]],
    }
    path = sphere_config(tmp_path, params={"r": 1.0, "h": 0.1, "N": 10}, boundary=boundary)
    out = tmp_path / "out"
    assert cli.main(["run", path, "--out", str(out)]) == 3
    assert "singular Newton Jacobian" in capsys.readouterr().err
    assert not (out / "trajectory.csv").exists()


def test_run_ocp_writes_controls(tmp_path):
    out = tmp_path / "out"
    assert cli.main(["run", ocp_config(tmp_path), "--out", str(out)]) == 0
    times, nodes, lambdas = read_trajectory_csv(out / "trajectory.csv")
    assert nodes.shape == (13, 2)
    assert lambdas.shape == (13, 1)
    diag = json.loads((out / "diagnostics.json").read_text())
    assert diag["converged"] is True
    assert len(diag["controls"]) == 11


def test_readme_example_config_runs(tmp_path):
    readme = (Path(__file__).resolve().parent.parent / "README.md").read_text()
    blocks = re.findall(r"```json\n(.*?)```", readme, re.S)
    assert blocks
    for i, block in enumerate(blocks):
        path = write_config(tmp_path / f"readme{i}.json", json.loads(block))
        out = tmp_path / f"out{i}"
        assert cli.main(["run", path, "--out", str(out)]) == 0
        assert json.loads((out / "diagnostics.json").read_text())["converged"] is True
