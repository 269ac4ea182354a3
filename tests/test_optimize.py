import math

import numpy as np
import pytest

from mipulse.fidelity import GateTarget
from mipulse.optimize import (
    PRESETS,
    _residual_columns,
    _residual_vector,
    composite_reference,
    control_problem,
    cost_and_gradient,
    min_time_search,
    solve_fixed_duration,
)

RABI = 2 * math.pi * 20e3
ETA = 0.2156


def finite_difference_gradient(phases, problem, duration, step=1e-6):
    grad = np.zeros(len(phases))
    for i in range(len(phases)):
        up, down = phases.copy(), phases.copy()
        up[i] += step
        down[i] -= step
        grad[i] = (
            cost_and_gradient(up, problem, duration, RABI)[0]
            - cost_and_gradient(down, problem, duration, RABI)[0]
        ) / (2 * step)
    return grad


@pytest.mark.parametrize("preset", sorted(PRESETS))
def test_gradient_matches_central_differences(preset, rng):
    problem = control_problem(
        preset, GateTarget(math.pi / 2), ratio=5.0, eta=ETA,
        extra_constraints=("trap1", "trap2") if preset == "robust" else (),
    )
    n = 12
    duration = 1.4 * math.pi / RABI
    phases = rng.uniform(-math.pi, math.pi, n)
    _, analytic = cost_and_gradient(phases, problem, duration, RABI)
    numeric = finite_difference_gradient(phases, problem, duration)
    scale = np.maximum(np.abs(numeric), np.abs(analytic))
    rel = np.abs(analytic - numeric) / np.maximum(scale, 1e-6 * scale.max())
    assert rel.max() < 1e-5


def test_known_solution_is_stationary():
    # a constant flip at an odd ratio solves the first-order recoil problem
    problem = control_problem("recoil", GateTarget(math.pi), ratio=5.0)
    phases = np.zeros(10)
    cost, grad = cost_and_gradient(phases, problem, math.pi / RABI, RABI)
    assert abs(cost) < 1e-12
    assert np.linalg.norm(grad) < 1e-8


def test_cost_validation():
    problem = control_problem("recoil", GateTarget(math.pi), ratio=5.0)
    with pytest.raises(ValueError):
        cost_and_gradient(np.zeros(1), problem, 1e-6, RABI)
    with pytest.raises(ValueError):
        cost_and_gradient(np.zeros(4), problem, -1e-6, RABI)
    with pytest.raises(ValueError):
        control_problem("nope", GateTarget(math.pi), ratio=5.0)


def test_infinite_ratio_drops_recoil_constraints():
    problem = control_problem("robust", GateTarget(math.pi), ratio=math.inf, eta=ETA)
    assert "recoil1" not in problem.constraints
    assert "recoil2" not in problem.constraints
    assert "detune" in problem.constraints and "rabi" in problem.constraints


def test_solve_recoil_quarter_flip_near_minimum():
    problem = control_problem("recoil", GateTarget(math.pi / 2), ratio=5.0)
    duration = 1.005 * 0.6077 * math.pi / RABI
    result = solve_fixed_duration(problem, duration, RABI, n_segments=50, seed=0)
    assert result.converged
    assert result.target_defect < 1e-8
    assert all(v < 1e-8 for v in result.constraint_norms.values())
    # recovered profile clusters at the two bang phases
    phases = np.array(result.pulse.phases)
    off_axis = np.minimum(np.abs(phases), np.abs(math.pi - np.abs(phases)))
    assert np.mean(off_axis < 0.35) >= 0.7


def test_feasibility_monotone_in_duration():
    problem = control_problem("recoil", GateTarget(math.pi / 2), ratio=5.0)
    base = 1.005 * 0.6077 * math.pi / RABI
    longer = solve_fixed_duration(problem, 1.1 * base, RABI, seed=1)
    assert longer.converged


def test_disentangle_converges_near_published_duration():
    problem = control_problem("disentangle", GateTarget(math.pi / 2), ratio=5.0, eta=ETA)
    result = solve_fixed_duration(problem, 49.2e-6, RABI, seed=0)
    assert result.converged
    assert all(v < 1e-8 for v in result.constraint_norms.values())


def test_disentangle_infeasible_below_minimum():
    # 17 us is roughly the recoil-free minimum and cannot also null the
    # entangling integral
    problem = control_problem("disentangle", GateTarget(math.pi / 2), ratio=5.0, eta=ETA)
    result = solve_fixed_duration(problem, 17e-6, RABI, seed=0, restarts=2, maxiter=400)
    assert not result.converged


def test_converged_robust_nulls_entangling_integral():
    # classical regime: amplitude-robustness implies thermal disentangling
    problem = control_problem("robust", GateTarget(math.pi), ratio=math.inf, eta=ETA)
    result = solve_fixed_duration(problem, 4.2 * math.pi / RABI, RABI, seed=0)
    assert result.converged
    assert result.constraint_norms["rabi"] < 1e-8
    from mipulse.model import SystemParams
    from mipulse.toggling import toggle_integrals

    params = SystemParams(omega=2 * math.pi * 100e3, rabi=RABI, eta=ETA)
    integrals = toggle_integrals(result.pulse, params, eta_correction=True)
    assert np.linalg.norm(integrals.entangle) < 1e-8


def test_min_time_flip_reaches_speed_limit():
    problem = control_problem("recoil", GateTarget(math.pi), ratio=5.0)
    result = min_time_search(problem, RABI, seed=0)
    assert result.converged
    assert result.pulse.area == pytest.approx(math.pi, rel=1e-6)


def test_min_time_quarter_flip_duration():
    problem = control_problem("recoil", GateTarget(math.pi / 2), ratio=5.0)
    result = min_time_search(problem, RABI, seed=0)
    assert result.converged
    assert abs(result.pulse.area / math.pi - 0.6077) / 0.6077 < 0.003


def test_composite_reference_published_values():
    pulse = composite_reference("jones-5a", RABI, ETA)
    assert pulse.rabi / (2 * math.pi) == pytest.approx(20.48e3, abs=10)
    assert len(pulse.segments) == 5
    durations = pulse.durations
    assert all(d == pytest.approx(25e-6, rel=1e-12) for d in durations)
    assert pulse.duration == pytest.approx(125e-6, rel=1e-12)
    expected = [math.radians(d) for d in (240, 210, 300, 210, 240)]
    assert np.allclose(
        np.mod(pulse.phases, 2 * math.pi), np.mod(expected, 2 * math.pi), atol=1e-12
    )


def test_composite_reference_unknown_name():
    with pytest.raises(ValueError):
        composite_reference("nope", RABI, ETA)


def test_result_reports_norms_and_iterations():
    problem = control_problem("recoil", GateTarget(math.pi), ratio=5.0)
    result = solve_fixed_duration(problem, math.pi / RABI, RABI, seed=0)
    assert result.converged
    assert set(result.constraint_norms) == {"recoil1"}
    assert result.iterations >= 0
    assert result.pulse.duration == pytest.approx(math.pi / RABI)


@pytest.mark.parametrize("preset", sorted(PRESETS))
def test_residual_columns_match_single_profiles(preset, rng):
    problem = control_problem(preset, GateTarget(math.pi / 2), ratio=5.0, eta=ETA)
    profiles = rng.uniform(-math.pi, math.pi, (40, 30))
    columns = _residual_columns(problem, 4.0)(None, iter(profiles))
    assert len(columns) == len(profiles)
    for column, phases in zip(columns, profiles):
        np.testing.assert_array_equal(column, _residual_vector(phases, problem, 4.0))


def test_control_problem_rejects_nan_ratio():
    with pytest.raises(ValueError):
        control_problem("disentangle", GateTarget(math.pi / 2), ratio=math.nan)
    assert control_problem("disentangle", GateTarget(math.pi / 2), math.inf).constraints == (
        "entangle",
    )
