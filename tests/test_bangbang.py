import math

import numpy as np
import pytest

from mipulse.bangbang import (
    _reduced,
    _reduced_jacobian,
    _second_order_jacobian,
    _second_order_residuals,
    bang_residuals,
    duration_curve,
    solve_first_order,
    solve_second_order,
    table_rows,
)
from mipulse.fidelity import GateTarget, thermal_fidelity
from mipulse.model import SystemParams
from mipulse.propagate import evolve
from mipulse.pulse import PulseProgram, make_torf

RABI = 2 * math.pi * 20e3
ETA = 0.2156
KAPPA = 1 - 0.5 * ETA**2

# published three-angle solutions, degrees, indexed by (target_deg, ratio)
PUBLISHED_TABLE = {
    (45, 2): (26.36, 30.11, 52.51),
    (45, 3): (21.28, 19.74, 41.93),
    (45, 4): (18.17, 13.77, 36.18),
    (45, 5): (15.98, 9.93, 32.90),
    (45, 6): (14.21, 7.28, 31.13),
    (90, 2): (37.66, 27.55, 69.79),
    (90, 3): (30.04, 14.42, 58.75),
    (90, 4): (23.88, 7.63, 57.50),
    (90, 5): (15.12, 4.85, 69.45),
    (90, 6): (11.3052, 5.57, 78.54),
    (180, 2): (67.43, 14.83, 74.80),
    (180, 3): (0.0, 0.0, 180.0),
    (180, 4): (31.17, 5.72, 129.11),
    (180, 5): (0.0, 0.0, 180.0),
    (180, 6): (20.54, 3.66, 146.23),
}


def test_published_angles_satisfy_residuals():
    for (theta_deg, ratio), angles_deg in PUBLISHED_TABLE.items():
        angles = [math.radians(a) for a in angles_deg]
        residuals = bang_residuals(*angles, ratio, math.radians(theta_deg))
        # printed to 0.01 deg, so residuals vanish at table precision
        assert max(abs(r) for r in residuals) < 6e-3


def test_corner_solution_exact_at_odd_ratio():
    r = bang_residuals(0.0, 0.0, math.pi, 3.0, math.pi)
    assert max(abs(x) for x in r) < 1e-12


def test_constant_candidate_generic_ratio():
    r0, r1, r2 = bang_residuals(0.0, 0.0, 1.1, 4.3, 1.1)
    assert r0 == 0.0
    assert abs(r1) > 1e-3 or abs(r2) > 1e-3


def test_solve_quarter_flip_published_angles():
    solution = solve_first_order(5.0, math.pi / 2)
    expected = (0.0840, 0.0269, 0.3858)
    for got, want in zip(solution.angles.angles, expected):
        assert got / math.pi == pytest.approx(want, abs=1e-4)
    assert solution.area / math.pi == pytest.approx(0.6077, abs=2e-4)
    assert solution.residual < 1e-10


def test_solve_flip_at_odd_ratio_is_constant():
    solution = solve_first_order(5.0, math.pi)
    assert solution.angles.angles == (0.0, 0.0, math.pi)
    assert solution.area == pytest.approx(math.pi)


def test_solve_flip_even_ratio_matches_table():
    solution = solve_first_order(4.0, math.pi)
    for got, want in zip(solution.angles_deg, (31.17, 5.72, 129.11)):
        assert got == pytest.approx(want, abs=0.02)


def test_table_rows_match_published():
    rows = table_rows()
    assert len(rows) == 15
    for row in rows:
        key = (round(math.degrees(row.theta_tar)), round(row.ratio))
        expected = PUBLISHED_TABLE[key]
        for got, want in zip(row.angles_deg, expected):
            assert got == pytest.approx(want, abs=0.02)
        assert row.residual < 1e-10
        assert row.area >= row.theta_tar - 1e-12  # speed limit


def test_solutions_give_recoil_free_gates():
    # evolve the designed pulse under the first-order model at p0 = 1
    for ratio, theta in ((5.0, math.pi / 2), (3.0, math.radians(45))):
        solution = solve_first_order(ratio, theta)
        pulse = make_torf(solution.angles, RABI)
        params = SystemParams(omega=ratio * RABI, rabi=RABI, eta=ETA)
        report = thermal_fidelity(
            evolve(params, pulse, "lamb_dicke"), GateTarget(theta), 1.0
        )
        assert report.error < 1e-5


def test_table_remark_raised_drive_beyond_first_order():
    # first-order angles: keep the designed waveform timing but raise the
    # drive to rabi/(1 - eta^2/2); under the second-order model the slowed
    # qubit then traverses the designed rotations exactly, error <= 1e-4
    solution = solve_first_order(5.0, math.radians(90))
    designed = make_torf(solution.angles, RABI)
    raised = PulseProgram(rabi=RABI / KAPPA, segments=designed.segments)
    params = SystemParams(omega=5.0 * RABI, rabi=raised.rabi, eta=ETA)
    report = thermal_fidelity(
        evolve(params, raised, "second_order"), GateTarget(math.pi / 2), 1.0
    )
    assert report.error <= 1e-4


def test_solver_input_validation():
    with pytest.raises(ValueError):
        solve_first_order(1.2, math.pi)
    with pytest.raises(ValueError):
        solve_first_order(5.0, 0.0)
    with pytest.raises(ValueError):
        solve_second_order(1.0, math.pi, ETA)


def test_second_order_published_tuple():
    solution = solve_second_order(5.0, math.pi / 2, ETA)
    published = (0.0589, 0.0313, 0.1015, 0.0097, 0.2729)
    for got, want in zip(solution.angles.angles, published):
        assert abs(got / math.pi - want) < 0.002
    assert abs(solution.area / math.pi - 0.6751) / 0.6751 < 0.01
    assert solution.residual < 1e-8


def test_second_order_angle_sum_identity():
    solution = solve_second_order(5.0, math.pi / 2, ETA)
    net = solution.angles.net_rotation
    assert abs(net - (math.pi / 2) / KAPPA) < 1e-8


def test_second_order_gate_error():
    solution = solve_second_order(5.0, math.pi / 2, ETA)
    pulse = make_torf(solution.angles, RABI)
    params = SystemParams(omega=5.0 * RABI, rabi=RABI, eta=ETA)
    report = thermal_fidelity(
        evolve(params, pulse, "second_order"), GateTarget(math.pi / 2), 1.0
    )
    assert report.error < 1e-5


def test_duration_curve_reference_points():
    rows = duration_curve(math.pi, [3.0])
    assert rows[0][1] == pytest.approx(math.pi)
    rows = duration_curve(math.pi / 2, [5.0, 100.0])
    assert rows[0][1] / math.pi == pytest.approx(0.6077, abs=2e-4)
    assert abs(rows[1][1] / math.pi - 0.5) / 0.5 < 0.02  # approaches speed limit
    assert all(status == "ok" for _, _, status in rows)


def test_duration_curve_records_failures():
    rows = duration_curve(math.pi, [1.0, 3.0])
    assert rows[0][2].startswith("error:")
    assert math.isnan(rows[0][1])
    assert rows[1][2] == "ok"


def central_jacobian(func, x, step=1e-6):
    columns = []
    for j in range(len(x)):
        up, down = x.copy(), x.copy()
        up[j] += step
        down[j] -= step
        columns.append((func(up) - func(down)) / (2 * step))
    return np.stack(columns, axis=1)


def test_first_order_jacobian_matches_central_differences(rng):
    for _ in range(50):
        x = rng.uniform(0.0, 1.5, 2)
        ratio, theta = rng.uniform(1.6, 20.0), rng.uniform(0.1, math.pi)
        exact = _reduced_jacobian(x, ratio, theta)
        numeric = central_jacobian(lambda y: _reduced(y, ratio, theta), x)
        assert np.abs(exact - numeric).max() < 1e-8 * max(1.0, np.abs(exact).max())


def test_second_order_jacobian_matches_central_differences(rng):
    # the 24 x 9 duration Jacobian folded onto the five palindrome angles
    for _ in range(10):
        x = rng.uniform(0.01, 1.5, 5)
        ratio, theta = rng.uniform(1.6, 9.0), rng.uniform(0.2, math.pi)
        kappa = rng.uniform(0.95, 1.0)
        exact = _second_order_jacobian(x, ratio, kappa)
        numeric = central_jacobian(
            lambda y: _second_order_residuals(y, ratio, theta, kappa), x
        )
        assert exact.shape == (24, 5)
        assert np.abs(exact - numeric).max() < 1e-8


def test_second_order_quarter_flip_area_independent_of_seed():
    areas = [solve_second_order(5.0, math.pi / 2, ETA, seed=seed).area for seed in range(5)]
    assert max(areas) - min(areas) <= 1e-12 * min(areas)


@pytest.mark.parametrize("solver", [solve_first_order, solve_second_order])
def test_solvers_reject_nan_ratio(solver):
    args = (ETA,) if solver is solve_second_order else ()
    with pytest.raises(ValueError):
        solver(math.nan, math.pi / 2, *args)


def test_large_ratio_root_at_rounding_floor_is_kept():
    # at ratio 150 the residual terms are ~300 in size, so Newton stalls a
    # little above 1e-13 on a genuine root; the verified root is kept
    solution = solve_first_order(150.0, math.pi / 2)
    assert solution.residual < 1e-10
    assert solution.area / (math.pi / 2) - 1 < 0.01
