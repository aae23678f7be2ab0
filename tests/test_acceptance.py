"""End-to-end acceptance suite.

Each test covers one acceptance criterion and prints a single PASS line
with the measured quantity once its assertions hold.
"""
import json
import time

import numpy as np
import pytest

from hovi import cli
from hovi.cli import polynomial_system, read_trajectory_csv
from hovi.core import (
    ConstrainedSystem,
    DiscretePath,
    MultiplierSequence,
    WindowFunction,
    discrete_action,
)
from hovi.delsolve import (
    BoundaryData,
    StepState,
    constraint_residual,
    del_residual,
    solve_bvp,
    step,
)
from hovi.derivatives import partial
from hovi.errors import RegularityError
from hovi.geometry import (
    GroupAction,
    check_momentum_conservation,
    check_symplecticity,
    omega_matrix,
    rotation_action,
    translation_action,
)
from hovi.applications import (
    great_circle_state,
    recover_controls,
    solve_ocp,
    sphere_multiplier,
    sphere_spline_system,
    underactuated_to_constrained,
)
from hovi.timedep import (
    TimedPath,
    discrete_energy,
    extend,
    solve_free_times,
)

from util_systems import (
    desk_ocp,
    free_particle,
    oscillator_lagrangian,
    second_difference_system,
)


def circle(i, theta=0.3):
    return np.array([np.cos(i * theta), np.sin(i * theta), 0.0])


def beam_instance():
    from hovi.applications import beam_system

    system = beam_system(
        lambda t: 1.0, lambda t: 0.0, dmu=lambda t: 0.0, drho=lambda t: 0.0
    )
    a, b = 0.01, 0.005
    q = lambda t: a * t * t + b * t
    head = TimedPath([0.0, 1.0], [q(0.0), q(1.0)])
    tail = TimedPath([29.0, 30.0], [q(29.0) + 0.01, q(30.0)])
    return system, head, tail


def test_criterion_1_variational_consistency():
    start = time.time()
    count = 0
    worst = 0.0
    for k in (1, 2, 3):
        for n in (1, 2, 3):
            for m in (0, 1):
                for seed in range(6):
                    system = polynomial_system(k, n, m, seed=100 * k + 10 * n + m + seed)
                    N = 2 * k + 2
                    rng = np.random.default_rng(seed + 1)
                    nodes = rng.normal(size=(N + 1, n))
                    lams = rng.normal(size=(N - k + 1, m))
                    path = DiscretePath(nodes)
                    mult = MultiplierSequence(lams)
                    for p in range(k, N - k + 1):
                        res = del_residual(system, path, mult, p)
                        for a in range(n):
                            h = 1e-6 * max(1.0, abs(nodes[p, a]))
                            up, dn = nodes.copy(), nodes.copy()
                            up[p, a] += h
                            dn[p, a] -= h
                            fd = (
                                discrete_action(system, DiscretePath(up), mult)
                                - discrete_action(system, DiscretePath(dn), mult)
                            ) / (2.0 * h)
                            worst = max(worst, abs(res[a] - fd) / (1.0 + abs(fd)))
                    count += 1
    elapsed = time.time() - start
    assert count >= 100
    assert worst < 1e-6
    assert elapsed < 60.0
    print(
        f"criterion 1: PASS ({count} systems, worst defect {worst:.2e}, {elapsed:.1f}s)"
    )


def test_criterion_2_cubic_exactness():
    system = second_difference_system(h=1.0)
    cubic = lambda t: 1.0 + 2.0 * t - 0.3 * t ** 2 + 0.5 * t ** 3
    N = 8
    samples = np.array([cubic(float(j)) for j in range(N + 1)])[:, None]
    boundary = BoundaryData(samples[:2], samples[-2:], N)
    path, _, report = solve_bvp(system, boundary)
    err = float(np.max(np.abs(path.nodes - samples)))
    assert report.converged
    assert err < 1e-10
    assert report.final_residual_norm < 1e-12
    print(
        f"criterion 2: PASS (node error {err:.2e}, "
        f"residual {report.final_residual_norm:.2e})"
    )


def test_criterion_3_sphere_spline():
    system = sphere_spline_system(1.0, 0.1)
    N = 10
    nodes = np.array([circle(i, theta=0.2) for i in range(N + 1)])
    boundary = BoundaryData(nodes[:2], nodes[-2:], N)
    path, mult, report = solve_bvp(system, boundary)
    assert report.converged
    assert report.iterations <= 25
    norm_defect = float(np.max(np.abs(np.linalg.norm(path.nodes, axis=1) - 1.0)))
    assert norm_defect < 1e-10
    mult_err = 0.0
    for p in range(2, N - 1):
        lam = sphere_multiplier(path.nodes[p - 2 : p + 3], 1.0, 0.1)
        mult_err = max(mult_err, abs(mult.lambdas[p, 0] - lam))
    assert mult_err < 1e-8

    p0 = np.array([0.0, 0.0, 1.0])
    cpath, cmult, creport = solve_bvp(
        system, BoundaryData(np.tile(p0, (2, 1)), np.tile(p0, (2, 1)), N)
    )
    assert creport.converged
    assert float(np.max(np.abs(cpath.nodes - p0))) < 1e-10
    assert float(np.max(np.abs(cmult.lambdas))) < 1e-10
    print(
        f"criterion 3: PASS ({report.iterations} iterations, norm defect "
        f"{norm_defect:.2e}, multiplier error {mult_err:.2e})"
    )


def test_criterion_4_symplecticity():
    # k=1 free particle: hand-checked A^T Omega A = Omega
    h = 1.0
    fp = free_particle(h=h)
    A = np.array([[0.0, 1.0], [-1.0, 2.0]])
    Om = np.array([[0.0, 1.0 / h], [-1.0 / h, 0.0]])
    np.testing.assert_array_equal(A.T @ Om @ A, Om)
    point = StepState(np.array([[0.0], [1.0]]), np.zeros((1, 0)))
    np.testing.assert_allclose(omega_matrix(fp, point), Om, atol=1e-6)
    fp_report = check_symplecticity(
        fp, StepState(np.array([[0.0], [1.0]]), np.zeros((1, 0)))
    )
    assert fp_report.defect_norm < 1e-8

    # k=2 quadratic Lagrangian, random state
    sd = second_difference_system(h=0.7)
    rng = np.random.default_rng(12)
    sd_report = check_symplecticity(
        sd, StepState(rng.normal(size=(4, 1)), np.zeros((2, 0)))
    )
    assert not sd_report.restricted
    assert sd_report.defect_norm < 1e-5

    # constrained sphere, restricted defect probed along 20 steps
    sphere = sphere_spline_system(1.0, 0.1)
    state = great_circle_state(1.0, 0.1)
    states = [state]
    for _ in range(20):
        state, rep = step(sphere, state)
        assert rep.converged
        states.append(state)
    worst = 0.0
    for probe in (states[0], states[10], states[20]):
        rep = check_symplecticity(sphere, probe)
        assert rep.restricted
        worst = max(worst, rep.defect_norm)
    assert worst < 1e-4
    print(
        f"criterion 4: PASS (k=1 defect {fp_report.defect_norm:.2e}, k=2 defect "
        f"{sd_report.defect_norm:.2e}, restricted defect {worst:.2e})"
    )


def test_criterion_5_momentum_conservation():
    sphere = sphere_spline_system(1.0, 0.1)
    state = great_circle_state(1.0, 0.1)
    traj = [state]
    for _ in range(50):
        nxt, rep = step(sphere, traj[-1])
        assert rep.converged
        traj.append(nxt)
    rot_drift = check_momentum_conservation(sphere, rotation_action(), traj)
    assert rot_drift < 1e-8

    fp = free_particle(h=1.0)
    fp_traj = [StepState(np.array([[0.0], [0.7]]), np.zeros((1, 0)))]
    for _ in range(50):
        nxt, _ = step(fp, fp_traj[-1])
        fp_traj.append(nxt)
    tr_drift = check_momentum_conservation(fp, translation_action(1), fp_traj)
    assert tr_drift < 1e-12

    # negative control: a potential term breaks translation invariance
    def lag(w):
        qb = 0.5 * (w[0, 0] + w[1, 0])
        return 0.5 * (w[1, 0] - w[0, 0]) ** 2 - 0.5 * qb * qb

    broken = ConstrainedSystem(1, 1, WindowFunction(1, 1, lag), ())
    br_traj = [StepState(np.array([[0.5], [0.8]]), np.zeros((1, 0)))]
    for _ in range(3):
        nxt, _ = step(broken, br_traj[-1])
        br_traj.append(nxt)
    br_drift = check_momentum_conservation(broken, translation_action(1), br_traj)
    assert br_drift > 1e-3
    print(
        f"criterion 5: PASS (rotation drift {rot_drift:.2e}, translation drift "
        f"{tr_drift:.2e}, broken-symmetry drift {br_drift:.2e})"
    )


def test_criterion_6_time_dependent_energy():
    # k=1 hand value on a linear path
    def ev(w):
        v = (w[1, 1] - w[0, 1]) / (w[1, 0] - w[0, 0])
        return 0.5 * v * v

    kinetic = WindowFunction(1, 2, ev)
    v = 1.7
    times = np.array([0.0, 0.4, 0.9, 1.3])
    hand = discrete_energy(kinetic, times, v * times, 1)
    assert hand == pytest.approx(0.5 * v * v, abs=1e-12)

    # autonomous k=1, free times, N = 30
    tol1 = 1e-10
    osc = oscillator_lagrangian()
    timed1, rep1 = solve_free_times(
        osc, TimedPath([0.0], [0.0]), TimedPath([3.0], [1.0]), N=30, tol=tol1
    )
    assert rep1.converged
    e1 = [
        discrete_energy(osc, timed1.times, timed1.nodes, i) for i in range(timed1.N)
    ]
    drift1 = max(e1) - min(e1)
    assert drift1 < 10.0 * tol1

    # autonomous k=2 beam, free times, N = 30
    tol2 = 1e-9
    beam, head, tail = beam_instance()
    timed2, rep2 = solve_free_times(beam, head, tail, N=30, tol=tol2)
    assert rep2.converged
    e2 = [
        discrete_energy(beam, timed2.times, timed2.nodes, i)
        for i in range(1, timed2.N - 1)
    ]
    drift2 = max(e2) - min(e2)
    assert drift2 < 10.0 * tol2
    print(
        f"criterion 6: PASS (hand value error {abs(hand - 0.5 * v * v):.2e}, "
        f"k=1 drift {drift1:.2e}, k=2 drift {drift2:.2e})"
    )


def test_beam_step_map_reproduces_the_free_time_solve():
    # The one-step map of the time-extended beam, started from the first
    # four nodes (times included) of the N = 30 free-time solve, continues
    # that solution node by node.
    beam, head, tail = beam_instance()
    timed, report = solve_free_times(beam, head, tail, N=30, tol=1e-9)
    assert report.converged
    nodes = timed.extended_nodes()
    system = extend(beam)
    state = StepState(nodes[:4], np.zeros((2, 0)))
    worst = 0.0
    for p in range(4, 9):
        state, rep = step(system, state)
        assert rep.converged
        worst = max(worst, float(np.max(np.abs(state.configs[-1] - nodes[p]))))
    assert worst < 1e-8
    print(f"beam step map: PASS (nodes 4-8 within {worst:.2e})")


def test_criterion_7_fixed_step_decoupling():
    h = 0.5
    base = second_difference_system(h=h)
    # strip the analytic partials so both formulations differentiate the
    # same way and the comparison isolates the decoupling identity
    auto = ConstrainedSystem(2, 1, WindowFunction(2, 1, base.lagrangian.eval), ())

    def ev(w):
        return auto.lagrangian.eval(w[:, 1:])

    tdl = WindowFunction(2, 2, ev)
    extended = extend(tdl)
    rng = np.random.default_rng(23)
    N = 7
    times = h * np.arange(N + 1)
    qs = rng.normal(size=(N + 1, 1))
    nodes = np.column_stack([times, qs])
    mult_e = MultiplierSequence.zeros(N - 1, 0)
    worst = 0.0
    for p in range(2, N - 1):
        spatial = del_residual(extended, DiscretePath(nodes), mult_e, p)[1]
        plain = del_residual(auto, DiscretePath(qs), mult_e, p)[0]
        span = 2.0 * h  # each window weight; equals 1 at h = 0.5
        worst = max(worst, abs(spatial - span * plain))
    assert worst < 1e-12
    print(f"criterion 7: PASS (max decoupling defect {worst:.2e})")


def test_criterion_8_ocp_self_consistency():
    spec, times, head, tail = desk_ocp()
    path, mult, report = solve_ocp(spec, times, head, tail, tol=1e-10)
    assert report.converged
    controls = recover_controls(spec, times, path.nodes[:, 1:])

    from hovi.applications import _forced_terms

    actuated = 0.0
    for i in range(1, times.shape[0] - 1):
        forced = _forced_terms(spec, path.nodes[i - 1 : i + 2])
        actuated = max(actuated, float(np.max(np.abs(forced[: spec.r] - controls[i - 1]))))
    assert actuated < 1e-8

    system = underactuated_to_constrained(spec)
    unactuated = 0.0
    for i in range(times.shape[0] - 2):
        unactuated = max(
            unactuated, float(np.max(np.abs(constraint_residual(system, path, i))))
        )
    assert unactuated < 1e-8
    print(
        f"criterion 8: PASS (actuated residual {actuated:.2e}, unactuated residual "
        f"{unactuated:.2e})"
    )


def test_criterion_9_regularity_detection():
    base = second_difference_system(h=1.0)
    phi = WindowFunction(2, 1, lambda w: w[1, 0] ** 2 - 1.0)
    system = ConstrainedSystem(2, 1, base.lagrangian, (phi,))
    state = StepState(
        np.array([[1.0], [1.1], [0.9], [1.05]]), np.array([[0.3], [-0.2]])
    )
    conditions = []
    for _ in range(2):
        with pytest.raises(RegularityError) as err:
            step(system, state)
        assert err.value.condition is not None
        conditions.append(err.value.condition)
    assert conditions[0] == conditions[1]
    print(f"criterion 9: PASS (condition estimate {conditions[0]:.2e})")


def test_criterion_10_cli_end_to_end(tmp_path):
    def write(name, cfg):
        p = tmp_path / name
        p.write_text(json.dumps(cfg))
        return str(p)

    sphere_cfg = write(
        "sphere.json",
        {
            "system": "sphere-spline",
            "params": {"r": 1.0, "h": 0.1, "N": 8},
            "boundary": {
                "head": [list(circle(0)), list(circle(1))],
                "tail": [list(circle(7)), list(circle(8))],
            },
        },
    )
    a, b = 0.01, 0.005
    q = lambda t: a * t * t + b * t
    beam_cfg = write(
        "beam.json",
        {
            "system": "beam",
            "params": {"mu": [1.0], "rho": [0.0], "N": 30},
            "boundary": {
                "head_times": [0.0, 1.0],
                "head": [q(0.0), q(1.0)],
                "tail_times": [29.0, 30.0],
                "tail": [q(29.0) + 0.01, q(30.0)],
            },
            "solver": {"tol": 1e-9},
        },
    )
    for cfg in (sphere_cfg, beam_cfg):
        out_a = tmp_path / "a"
        out_b = tmp_path / "b"
        assert cli.main(["run", cfg, "--out", str(out_a)]) == 0
        assert cli.main(["run", cfg, "--out", str(out_b)]) == 0
        assert (out_a / "trajectory.csv").read_bytes() == (
            out_b / "trajectory.csv"
        ).read_bytes()

    bad_cfg = write(
        "bad.json", {"system": "sphere-spline", "params": {"r": -1.0, "h": 0.1, "N": 8}}
    )
    assert cli.main(["run", bad_cfg, "--out", str(tmp_path / "c")]) == 1

    code = cli.main(
        [
            "run",
            sphere_cfg,
            "--out",
            str(tmp_path / "d"),
            "--tol",
            "1e-16",
            "--max-iter",
            "2",
        ]
    )
    assert code == 2
    print("criterion 10: PASS (exit codes 0/0 bit-stable, 1 malformed, 2 forced)")
