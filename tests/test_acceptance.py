"""Acceptance suite: one test per criterion, each printing a pass/fail line.

Heavy artifacts (the minimum-time disentangling pulse, the robust pulse)
are module-scoped fixtures shared across criteria.  Run with ``pytest -s``
to see the per-criterion lines on passing runs.
"""

import math
import time

import numpy as np
import pytest

from mipulse.bangbang import bang_residuals, solve_first_order, solve_second_order, table_rows
from mipulse.fidelity import (
    GateTarget,
    check_truncation,
    p0_from_temperature,
    per_m_fidelity,
    thermal_fidelity,
    thermal_limit_exact,
    thermal_limit_leading,
)
from mipulse.model import SystemParams
from mipulse.optimize import (
    PRESETS,
    composite_reference,
    control_problem,
    cost_and_gradient,
    min_time_search,
    solve_fixed_duration,
)
from mipulse.propagate import evolve
from mipulse.pulse import BangAngles, PulseProgram, make_constant, make_torf
from mipulse.toggling import effective_propagator, toggle_integrals
from oracles import bang_closed_form

RABI = 2 * math.pi * 20e3
OMEGA_TRAP = 2 * math.pi * 100e3
ETA = 0.2156
KAPPA = 1 - 0.5 * ETA**2

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


def report(number, ok, detail):
    status = "PASS" if ok else "FAIL"
    print(f"[{status}] criterion {number}: {detail}")


def params_at(ratio, eta=ETA, rabi=RABI, **kw):
    return SystemParams(omega=ratio * rabi, rabi=rabi, eta=eta, **kw)


def gate_error_for(pulse, ratio, target, p0, model, rabi=RABI, **kw):
    params = params_at(ratio, rabi=rabi, **kw)
    return thermal_fidelity(evolve(params, pulse, model), target, p0).error


@pytest.fixture(scope="module")
def torf2_solution():
    return solve_second_order(5.0, math.pi / 2, ETA)


@pytest.fixture(scope="module")
def tod_result():
    problem = control_problem("disentangle", GateTarget(math.pi / 2), ratio=5.0, eta=ETA)
    return min_time_search(problem, RABI, seed=0)


@pytest.fixture(scope="module")
def robust_result():
    problem = control_problem("robust", GateTarget(math.pi), ratio=5.0, eta=ETA)
    return solve_fixed_duration(problem, 92.5e-6, RABI, seed=0)


@pytest.fixture(scope="module")
def jones_pulse():
    return composite_reference("jones-5a", RABI, ETA)


def test_criterion_01_published_angle_table():
    start = time.time()
    rows = table_rows()
    elapsed = time.time() - start
    worst_angle = 0.0
    worst_residual = 0.0
    for row in rows:
        key = (round(math.degrees(row.theta_tar)), round(row.ratio))
        diffs = [abs(g - w) for g, w in zip(row.angles_deg, PUBLISHED_TABLE[key])]
        worst_angle = max(worst_angle, *diffs)
        residual = np.linalg.norm(
            bang_residuals(*row.angles.angles, row.ratio, row.theta_tar)
        )
        worst_residual = max(worst_residual, residual)
    ok = len(rows) == 15 and worst_angle < 0.02 and worst_residual < 1e-10
    report(1, ok, f"15 triples, worst angle diff {worst_angle:.4f} deg, "
                  f"worst residual {worst_residual:.1e}, {elapsed:.1f} s")
    assert len(rows) == 15
    assert worst_angle < 0.02
    assert worst_residual < 1e-10


def test_criterion_02_minimum_time_values(torf2_solution):
    first = solve_first_order(5.0, math.pi / 2)
    first_ok = abs(first.area / math.pi - 0.6077) <= 2e-4

    published = (0.0589, 0.0313, 0.1015, 0.0097, 0.2729)
    angle_diffs = [
        abs(got / math.pi - want)
        for got, want in zip(torf2_solution.angles.angles, published)
    ]
    area_rel = abs(torf2_solution.area / math.pi - 0.6751) / 0.6751
    second_ok = max(angle_diffs) < 0.002 and area_rel < 0.01
    report(2, first_ok and second_ok,
           f"first order area {first.area / math.pi:.5f} pi; second order area "
           f"{torf2_solution.area / math.pi:.5f} pi (rel {area_rel:.2%}), "
           f"max angle diff {max(angle_diffs):.5f} pi")
    assert first_ok
    assert second_ok


def test_criterion_03_odd_ratio_recoil_suppression():
    start = time.time()
    pulse = make_constant(math.pi, RABI)
    target = GateTarget(math.pi)
    err4 = gate_error_for(pulse, 4.0, target, 1.0, "lamb_dicke")
    err5 = gate_error_for(pulse, 5.0, target, 1.0, "lamb_dicke")
    closed = bang_closed_form(BangAngles(0.0, 0.0, math.pi), 5.0)
    recoil_norm = float(np.linalg.norm(closed.recoil1))
    ok = err5 * 100 <= err4 and recoil_norm < 1e-12
    report(3, ok, f"error ratio {err4 / err5:.0f}x (need >= 100), closed-form "
                  f"recoil norm {recoil_norm:.1e}, {time.time() - start:.1f} s")
    assert err5 * 100 <= err4
    assert recoil_norm < 1e-12


def test_criterion_04_second_order_fidelity(torf2_solution):
    start = time.time()
    target = GateTarget(math.pi / 2)
    torf2 = make_torf(torf2_solution.angles, RABI)
    err_torf2 = gate_error_for(torf2, 5.0, target, 1.0, "second_order")
    constant = make_constant(math.pi / 2, RABI, speed_correction=True, eta=ETA)
    err_const = gate_error_for(constant, 5.0, target, 1.0, "second_order")
    ok = err_torf2 <= 5e-6 and err_const >= 2e-4
    report(4, ok, f"second-order bang-bang error {err_torf2:.2e} (need <= 5e-6), "
                  f"constant error {err_const:.2e} (need >= 2e-4), "
                  f"{time.time() - start:.1f} s")
    assert err_torf2 <= 5e-6
    assert err_const >= 2e-4


def test_criterion_05_thermal_bound_agreement():
    start = time.time()
    ratio = 7 * KAPPA  # recoil-free ratio of the slowdown-corrected flip
    pulse = make_constant(math.pi, RABI, speed_correction=True, eta=ETA)
    target = GateTarget(math.pi)
    prop = evolve(params_at(ratio), pulse, "second_order")
    sim_ok, lead_ok = True, True
    details = []
    for p0 in (0.90, 0.95, 0.99):
        err = thermal_fidelity(prop, target, p0).error
        exact = thermal_limit_exact(p0, ETA, math.pi)
        lead = thermal_limit_leading(p0, ETA, math.pi)
        sim_ok &= abs(err / exact - 1) < 0.25
        lead_ok &= abs(lead / exact - 1) < 0.01
        details.append(f"p0={p0}: sim/exact={err / exact:.3f}")
    ok = sim_ok and lead_ok
    report(5, ok, "; ".join(details) + f"; leading within 1%: {lead_ok}, "
                                       f"{time.time() - start:.1f} s")
    assert sim_ok
    assert lead_ok


def test_criterion_06_disentangling_gain(tod_result):
    duration = tod_result.pulse.duration
    rel = abs(duration / 48.25e-6 - 1)
    norms_ok = tod_result.converged and all(
        v < 1e-8 for v in tod_result.constraint_norms.values()
    )
    target = GateTarget(math.pi / 2)
    err = gate_error_for(tod_result.pulse, 5.0, target, 0.9, "second_order")
    bound = thermal_limit_exact(0.9, ETA, math.pi / 2)
    gain_ok = err * 10 <= bound
    ok = norms_ok and rel < 0.05 and gain_ok
    report(6, ok, f"T = {duration * 1e6:.2f} us (rel {rel:.2%} of 48.25), converged "
                  f"{tod_result.converged}, p0=0.9 error {err:.2e} vs bound/10 "
                  f"{bound / 10:.2e}")
    assert norms_ok
    assert rel < 0.05
    assert gain_ok


def test_criterion_07_robust_performance(robust_result, jones_pulse):
    target = GateTarget(math.pi)
    robust_ok = robust_result.converged
    err_center = gate_error_for(robust_result.pulse, 5.0, target, 0.95, "full")
    robust_ok &= err_center <= 1e-4

    worst_composite = 0.0
    for frac in np.linspace(-0.1, 0.1, 11):
        params = SystemParams(
            omega=OMEGA_TRAP, rabi=jones_pulse.rabi, eta=ETA,
            delta_detuning=frac * RABI,
        )
        err = thermal_fidelity(evolve(params, jones_pulse, "full"), target, 0.95).error
        worst_composite = max(worst_composite, err)
    composite_ok = worst_composite < 1e-4
    report(7, robust_ok and composite_ok,
           f"robust on-resonance error {err_center:.2e} (need <= 1e-4); composite "
           f"worst error {worst_composite:.2e} over |dDelta/rabi| <= 0.1 (need < 1e-4)")
    assert robust_ok
    # Deliberately left red: the quoted composite zeroes every first-order
    # integral, yet its exact error floor is ~1.6e-4, set by the second
    # averaging commutator, so the < 1e-4 target cannot be met by any
    # faithful reproduction of the published sequence.
    assert composite_ok


def test_criterion_08_averaging_order_checks():
    start = time.time()
    rng = np.random.default_rng(11)
    first_ratios, second_ratios = [], []
    for _ in range(20):
        ratio = float(rng.choice([2.0, 3.0, 5.0]))
        nseg = int(rng.integers(3, 8))
        durations = rng.uniform(0.1, 0.8, nseg) * math.pi / RABI
        phases = rng.choice([0.0, math.pi], nseg)
        pulse = PulseProgram(rabi=RABI, segments=tuple(zip(durations, phases)))
        defects = {"first": {}, "second": {}}
        for eta in (0.2, 0.1):
            p = SystemParams(omega=ratio * RABI, rabi=RABI, eta=eta)
            cols = list(range(4)) + [p.truncation + 1 + m for m in range(4)]
            for order, model in (("first", "lamb_dicke"), ("second", "second_order")):
                exact = evolve(p, pulse, model).operator
                predicted = effective_propagator(pulse, p, order)
                defects[order][eta] = np.linalg.norm((exact - predicted)[:, cols])
        first_ratios.append(defects["first"][0.2] / defects["first"][0.1])
        second_ratios.append(defects["second"][0.2] / defects["second"][0.1])
    first_ok = all(3.5 <= r <= 4.5 for r in first_ratios)
    second_ok = all(7.0 <= r <= 9.0 for r in second_ratios)
    report(8, first_ok and second_ok,
           f"first-order defect ratios [{min(first_ratios):.2f}, "
           f"{max(first_ratios):.2f}] (need 3.5-4.5); second-order ratios "
           f"[{min(second_ratios):.2f}, {max(second_ratios):.2f}] (need 7-9), "
           f"{time.time() - start:.1f} s")
    assert first_ok
    # Deliberately left red: the first-order averaging shared by both
    # predictions leaves a second-Magnus commutator error of order eta^2,
    # so the second-order prediction defect also shrinks ~4x (not 7-9x)
    # when eta halves.  Verified by adding the second Magnus term
    # numerically, which removes the eta^2 floor.
    assert second_ok


def test_criterion_09_gradient_and_identity_suites(
    torf2_solution, tod_result, robust_result, jones_pulse
):
    start = time.time()
    rng = np.random.default_rng(7)

    # optimizer gradients against central finite differences
    grad_ok = True
    for preset in sorted(PRESETS):
        problem = control_problem(preset, GateTarget(math.pi / 2), ratio=5.0, eta=ETA)
        phases = rng.uniform(-math.pi, math.pi, 10)
        duration = 1.3 * math.pi / RABI
        _, analytic = cost_and_gradient(phases, problem, duration, RABI)
        numeric = np.zeros_like(analytic)
        for i in range(len(phases)):
            up, down = phases.copy(), phases.copy()
            up[i] += 1e-6
            down[i] -= 1e-6
            numeric[i] = (
                cost_and_gradient(up, problem, duration, RABI)[0]
                - cost_and_gradient(down, problem, duration, RABI)[0]
            ) / 2e-6
        scale = np.maximum(np.abs(numeric), np.abs(analytic))
        grad_ok &= bool(
            (np.abs(analytic - numeric) <= 1e-5 * np.maximum(scale, 1e-6 * scale.max())).all()
        )

    # drive-deviation integral is the entangling integral, entrywise
    params = params_at(5.0)
    rab_ok = True
    for _ in range(50):
        nseg = int(rng.integers(2, 9))
        pulse = PulseProgram(
            rabi=RABI,
            segments=tuple(
                (d, p) for d, p in zip(
                    rng.uniform(1e-6, 9e-6, nseg),
                    rng.uniform(-math.pi, math.pi, nseg),
                )
            ),
        )
        ti = toggle_integrals(pulse, params, eta_correction=bool(rng.integers(2)))
        rab_ok &= bool(np.abs(ti.rabi_dev - ti.entangle).max() <= 1e-14)

    # fidelity invariance under a motional number-operator phase
    target = GateTarget(math.pi / 2)
    prop = evolve(params, make_torf(torf2_solution.angles, RABI), "full")
    dim_m = params.truncation + 1
    invariance_ok = True
    for chi in rng.uniform(0, 2 * math.pi, 3):
        phase = np.kron(np.eye(2), np.diag(np.exp(-1j * chi * np.arange(dim_m))))
        for m in (0, 2):
            a = per_m_fidelity(prop.operator, target, m)
            b = per_m_fidelity(prop.operator @ phase, target, m)
            invariance_ok &= abs(a - b) < 1e-12

    # truncation drift M = 20 vs 40 for the criterion 4-7 pulses
    cases = [
        (make_torf(torf2_solution.angles, RABI), params_at(5.0), "second_order",
         GateTarget(math.pi / 2)),
        (make_constant(math.pi / 2, RABI, speed_correction=True, eta=ETA),
         params_at(5.0), "second_order", GateTarget(math.pi / 2)),
        (make_constant(math.pi, RABI, speed_correction=True, eta=ETA),
         params_at(7 * KAPPA), "second_order", GateTarget(math.pi)),
        (tod_result.pulse, params_at(5.0), "second_order", GateTarget(math.pi / 2)),
        (robust_result.pulse, params_at(5.0), "full", GateTarget(math.pi)),
        (jones_pulse, SystemParams(omega=OMEGA_TRAP, rabi=jones_pulse.rabi, eta=ETA),
         "full", GateTarget(math.pi)),
    ]
    worst_drift = 0.0
    for pulse, params_case, model, tgt in cases:
        drift = check_truncation(params_case, pulse, tgt, model=model)
        worst_drift = max(worst_drift, drift)
    drift_ok = worst_drift < 1e-9

    ok = grad_ok and rab_ok and invariance_ok and drift_ok
    report(9, ok, f"gradients {grad_ok}, rabi==entangle {rab_ok}, phase invariance "
                  f"{invariance_ok}, worst truncation drift {worst_drift:.1e}, "
                  f"{time.time() - start:.1f} s")
    assert grad_ok
    assert rab_ok
    assert invariance_ok
    assert drift_ok


def sig4(value):
    return float(f"{value:.4g}")


def test_criterion_10_conversions(jones_pulse):
    p0_1uk = p0_from_temperature(1e-6, OMEGA_TRAP)
    p0_12uk = p0_from_temperature(1.2e-6, OMEGA_TRAP)
    occupancy_ok = 0.988 <= p0_1uk <= 0.992 and 0.978 <= p0_12uk <= 0.982

    slow_flip = make_constant(math.pi / 2, 2 * math.pi * 770,
                              speed_correction=True, eta=ETA)
    oracle_332 = 1 / (4 * 770 * (1 - 0.5 * ETA**2))
    ok_332 = sig4(slow_flip.duration * 1e6) == sig4(oracle_332 * 1e6)

    published = BangAngles(0.0589 * math.pi, 0.0313 * math.pi, 0.1015 * math.pi,
                           0.0097 * math.pi, 0.2729 * math.pi)
    torf2 = make_torf(published, RABI)
    ok_1689 = sig4(torf2.duration * 1e6) == 16.89

    ok_125 = sig4(jones_pulse.duration * 1e6) == 125.0
    ok_25 = all(sig4(d * 1e6) == 25.0 for d in jones_pulse.durations)

    ok = occupancy_ok and ok_332 and ok_1689 and ok_125 and ok_25
    report(10, ok, f"p0(1 uK) = {p0_1uk:.4f}, p0(1.2 uK) = {p0_12uk:.4f}; durations "
                   f"{slow_flip.duration * 1e6:.4f} / {torf2.duration * 1e6:.4f} / "
                   f"{jones_pulse.duration * 1e6:.2f} / 25.00 us")
    assert occupancy_ok
    assert ok_332
    assert ok_1689
    assert ok_125
    assert ok_25
