import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from mipulse import optimize, toggling
from mipulse.fidelity import GateTarget
from mipulse.optimize import (
    PRESETS,
    _evaluate,
    _free_time_system,
    _polish_jacobian,
    _polish_residual,
    composite_reference,
    control_problem,
    cost_and_gradient,
    min_time_search,
    solve_fixed_duration,
)
from mipulse.pulse import wrap_phase
from oracles import central_differences

RABI = 2 * math.pi * 20e3
ETA = 0.2156


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
    numeric = central_differences(
        lambda p: cost_and_gradient(p, problem, duration, RABI)[0], phases
    )
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


@pytest.mark.parametrize("eta", [-0.1, 1.0, 1.2, math.nan, math.inf])
def test_control_problem_rejects_eta_outside_unit_interval(eta):
    with pytest.raises(ValueError, match="eta must be in"):
        control_problem("disentangle", GateTarget(math.pi / 2), ratio=5.0, eta=eta)


@pytest.mark.parametrize("duration", [0.0, -1e-6, math.nan, math.inf])
def test_solve_fixed_duration_rejects_bad_duration(duration):
    problem = control_problem("recoil", GateTarget(math.pi), ratio=5.0)
    with pytest.raises(ValueError, match="duration must be positive and finite"):
        solve_fixed_duration(problem, duration, RABI)


def test_solve_fixed_duration_rejects_negative_restarts_and_rabi():
    problem = control_problem("recoil", GateTarget(math.pi), ratio=5.0)
    for restarts in (-3, 0):
        with pytest.raises(ValueError, match="restarts must be >= 1"):
            solve_fixed_duration(problem, math.pi / RABI, RABI, restarts=restarts)
    with pytest.raises(ValueError, match="rabi must be positive and finite"):
        solve_fixed_duration(problem, math.pi / RABI, -RABI)


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


def test_min_time_quarter_flip_is_repeatable_and_no_longer():
    # no longer than 0.60840 pi, the upper end of a 1e-3 bisection bracket
    # of the same minimum
    problem = control_problem("recoil", GateTarget(math.pi / 2), ratio=5.0)
    first = min_time_search(problem, RABI, seed=0)
    second = min_time_search(problem, RABI, seed=0)
    assert first.converged
    assert 0.60840 * (1 - 1e-3) <= first.pulse.area / math.pi <= 0.60840
    assert first.pulse.phases == second.pulse.phases
    assert first.pulse.duration == second.pulse.duration


def test_attempt_builds_segment_integrals_once_per_mode(monkeypatch):
    # every segment lasts area/n throughout an attempt, so the duration plan
    # is built once for the values and once for the phase derivatives, not
    # once per descent step or polish evaluation
    built, segment_integral = [], toggling._segment_integral

    def counting(kind, *args):
        built.append(kind)
        return segment_integral(kind, *args)

    monkeypatch.setattr(toggling, "_segment_integral", counting)
    toggling._plan.cache_clear()
    problem = control_problem("disentangle", GateTarget(math.pi / 2), ratio=5.0, eta=ETA)
    area = RABI * 49.2e-6
    x0 = np.random.default_rng(0).uniform(-math.pi, math.pi, optimize.default_segments(area))
    _, iterations, (cost, _, _) = optimize._attempt(x0, problem, area, 300)
    assert iterations > 10
    assert cost < 1e-6  # so the polish ran too
    assert sorted(built) == sorted(problem.constraints * 2)


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


@pytest.mark.parametrize(
    "preset, duration, kwargs, converged",
    [
        ("recoil", math.pi / RABI, {}, True),
        ("disentangle", 17e-6, {"restarts": 2, "maxiter": 400}, False),
    ],
)
def test_result_scores_its_profile_once(monkeypatch, preset, duration, kwargs, converged):
    # the reported numbers are those of the best attempt's profile, bit for bit;
    # the pulse stores that profile wrapped to (-pi, pi], which moves last bits,
    # so the attempts are recorded to re-score the optimizer's own phases
    attempts, attempt = [], optimize._attempt

    def recording(*args):
        attempts.append(attempt(*args))
        return attempts[-1]

    monkeypatch.setattr(optimize, "_attempt", recording)
    problem = control_problem(preset, GateTarget(math.pi / 2), ratio=5.0, eta=ETA)
    result = solve_fixed_duration(problem, duration, RABI, seed=0, **kwargs)
    assert result.converged is converged
    phases, _, _ = min(attempts, key=lambda a: a[2][0])
    assert result.pulse.phases == tuple(wrap_phase(p) for p in phases)
    assert result.cost == cost_and_gradient(phases, problem, duration, RABI)[0]
    u_qubit, values = _evaluate(phases, problem, RABI * duration, grad=False)
    overlap = np.trace(problem.target.unitary.conj().T @ u_qubit) / 2
    assert result.target_defect == 1 - abs(overlap) ** 2
    assert result.constraint_norms == {
        name: float(np.linalg.norm(values[name])) for name in problem.constraints
    }


#: Rows of the minimal residual per preset and ratio, with ("trap1", "trap2")
#: added to ``robust``: three target rows, then three per Hermitian integral
#: and six per complex one.
POLISH_ROWS = {
    ("recoil", 5.0): 9, ("recoil", math.inf): 3,
    ("recoil2", 5.0): 15, ("recoil2", math.inf): 3,
    ("disentangle", 5.0): 18, ("disentangle", math.inf): 6,
    ("robust", 5.0): 33, ("robust", math.inf): 21,
}


@pytest.mark.parametrize("ratio", [5.0, math.inf])
@pytest.mark.parametrize("preset", sorted(PRESETS))
def test_polish_jacobian_matches_central_differences(preset, ratio, rng):
    problem = control_problem(
        preset, GateTarget(math.pi / 2, 0.3), ratio, eta=ETA,
        extra_constraints=("trap1", "trap2") if preset == "robust" else (),
    )
    phases = rng.uniform(-math.pi, math.pi, 12)
    residual = _polish_residual(phases, problem, 4.4)
    exact = _polish_jacobian(phases, problem, 4.4)
    numeric = central_differences(lambda p: _polish_residual(p, problem, 4.4), phases)
    rows = POLISH_ROWS[preset, ratio]
    assert residual.shape == (rows,)
    assert exact.shape == numeric.shape == (rows, 12)
    assert np.abs(exact - numeric).max() < 1e-8 * np.abs(exact).max()
    # one residual: the free-time system's value and phase columns, bit for bit
    free_residual, free_jacobian = _free_time_system(np.append(phases, 4.4), problem)
    assert np.array_equal(residual, free_residual)
    assert np.array_equal(exact, free_jacobian[:, :-1])


@settings(derandomize=True, deadline=None, max_examples=60)
@given(
    preset=st.sampled_from(sorted(PRESETS)),
    ratio=st.one_of(st.floats(2.0, 12.0), st.just(math.inf)),
    chi=st.floats(-math.pi, math.pi),
    theta=st.floats(0.1, math.pi),
    area=st.floats(0.5, 6.0),
    n=st.integers(2, 40),
    seed=st.integers(0, 2**32 - 1),
)
def test_cost_is_symmetric_under_reflection_about_the_target_axis(
    preset, ratio, chi, theta, area, n, seed
):
    # phi -> 2 chi - phi maps the cost onto itself and flips its gradient, so
    # every profile of phases in {chi, chi + pi} is a critical point where a
    # descent stops at once
    problem = control_problem(preset, GateTarget(theta, chi), ratio, eta=ETA)
    rng = np.random.default_rng(seed)
    phases = rng.uniform(-math.pi, math.pi, n)
    cost, grad = cost_and_gradient(phases, problem, area, 1.0)
    mirror_cost, mirror_grad = cost_and_gradient(2 * chi - phases, problem, area, 1.0)
    assert abs(mirror_cost - cost) <= 1e-13 * abs(cost)
    assert np.abs(mirror_grad + grad).max() <= 1e-13 * np.abs(grad).max()
    painted = chi + math.pi * rng.integers(0, 2, n)
    assert np.linalg.norm(cost_and_gradient(painted, problem, area, 1.0)[1]) <= 1e-12


@pytest.mark.parametrize("preset, extra, ratio, rows", [
    ("recoil", (), 5.0, 9),
    ("recoil", (), math.inf, 3),
    ("recoil2", (), 5.0, 15),
    ("recoil2", (), math.inf, 3),
    ("disentangle", (), 5.0, 18),
    ("disentangle", (), math.inf, 6),
    ("robust", ("trap1", "trap2"), 5.0, 33),
    ("robust", ("trap1", "trap2"), math.inf, 21),
    # "rabi" integrates the same operator as "entangle": one block, not two
    ("disentangle", ("rabi",), 5.0, 18),
    ("disentangle", ("rabi",), math.inf, 6),
])
def test_free_time_jacobian_matches_central_differences(preset, extra, ratio, rows, rng):
    problem = control_problem(
        preset, GateTarget(math.pi / 2, 0.3), ratio, eta=ETA, extra_constraints=extra
    )
    x = np.append(rng.uniform(-math.pi, math.pi, 12), 4.4)
    residual, exact = _free_time_system(x, problem)
    numeric = central_differences(lambda y: _free_time_system(y, problem)[0], x)
    assert residual.shape == (rows,)
    assert exact.shape == numeric.shape == (rows, 13)
    assert np.abs(exact - numeric).max() < 1e-8 * np.abs(exact).max()


def test_control_problem_rejects_nan_ratio():
    with pytest.raises(ValueError):
        control_problem("disentangle", GateTarget(math.pi / 2), ratio=math.nan)
    assert control_problem("disentangle", GateTarget(math.pi / 2), math.inf).constraints == (
        "entangle",
    )
