import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from mipulse.fidelity import (
    GateTarget,
    ThermalState,
    TruncationError,
    check_truncation,
    p0_from_temperature,
    per_m_fidelity,
    thermal_fidelity,
    thermal_limit_exact,
    thermal_limit_leading,
)
from mipulse.model import SystemParams
from mipulse.propagate import evolve, su2_rotation
from mipulse.pulse import PulseProgram, make_constant, shift_axis
from oracles import probe_fidelity

RABI = 2 * math.pi * 20e3
ETA = 0.2156
OMEGA = 2 * math.pi * 100e3


def embedded_target(target, dim_m):
    return np.kron(target.unitary, np.eye(dim_m))


def test_perfect_gate_fidelity_one():
    target = GateTarget(math.pi / 2, 0.3)
    u = embedded_target(target, 12)
    for m in (0, 3, 7):
        assert per_m_fidelity(u, target, m) == pytest.approx(1.0, abs=1e-14)


def test_motional_phase_invariance(rng):
    # multiplying by a number-operator phase leaves every fidelity unchanged
    target = GateTarget(math.pi)
    dim_m = 15
    u = embedded_target(target, dim_m)
    for chi in rng.uniform(0, 2 * math.pi, 5):
        phase = np.kron(np.eye(2), np.diag(np.exp(-1j * chi * np.arange(dim_m))))
        for m in (0, 2, 5):
            assert abs(per_m_fidelity(u @ phase, target, m) - 1.0) < 1e-12


def test_identity_qubit_against_flip_target():
    target = GateTarget(math.pi)
    dim_m = 10
    u = np.eye(2 * dim_m, dtype=complex)
    # probe overlaps 0, 0, 1, 0 -> average 1/4
    assert per_m_fidelity(u, target, 0) == pytest.approx(0.25, abs=1e-14)


def test_guard_margin_rejects_high_levels():
    target = GateTarget(math.pi)
    u = embedded_target(target, 21)  # truncation 20
    per_m_fidelity(u, target, 16)
    with pytest.raises(ValueError):
        per_m_fidelity(u, target, 17)


def test_thermal_weights_hand_values():
    state = ThermalState(p0=0.5, truncation=1)
    assert np.allclose(state.weights, [2 / 3, 1 / 3])
    assert ThermalState(p0=1.0, truncation=5).weights[0] == 1.0


def test_thermal_weights_sum_and_infinite_limit():
    state = ThermalState(p0=0.9, truncation=200)
    assert state.weights.sum() == pytest.approx(1.0, abs=1e-15)
    geometric = 0.9 * 0.1 ** np.arange(201)
    assert np.abs(state.weights - geometric).max() < 1e-12


def test_thermal_fidelity_ground_state_only():
    target = GateTarget(math.pi)
    u = embedded_target(target, 21)
    report = thermal_fidelity(u, target, 1.0)
    assert report.thermal == pytest.approx(report.per_m[0], abs=1e-15)
    assert report.thermal == pytest.approx(1.0, abs=1e-14)


def test_thermal_fidelity_weighted_sum():
    target = GateTarget(math.pi)
    p = SystemParams(omega=5 * RABI, rabi=RABI, eta=ETA)
    prop = evolve(p, make_constant(math.pi, RABI), "second_order")
    report = thermal_fidelity(prop, target, 0.95)
    weights = ThermalState(p0=0.95, truncation=20).weights
    manual = float(np.dot(weights[: len(report.per_m)], report.per_m))
    assert report.thermal == pytest.approx(manual, abs=1e-15)


def test_thermal_fidelity_guards_tail_weight():
    target = GateTarget(math.pi)
    u = embedded_target(target, 6)  # truncation 5, margin leaves m <= 1
    with pytest.raises(TruncationError):
        thermal_fidelity(u, target, 0.5)


def test_p0_from_temperature_limits():
    assert p0_from_temperature(0.0, OMEGA) == 1.0
    with pytest.raises(ValueError):
        p0_from_temperature(-1e-6, OMEGA)


def test_p0_from_temperature_published_points():
    assert 0.988 <= p0_from_temperature(1e-6, OMEGA) <= 0.992
    assert 0.978 <= p0_from_temperature(1.2e-6, OMEGA) <= 0.982


def test_limit_exact_zero_at_unit_occupation():
    assert thermal_limit_exact(1.0, ETA, math.pi) == 0.0
    assert thermal_limit_leading(1.0, ETA, math.pi) == 0.0
    assert thermal_limit_leading(0.9, ETA, 0.0) == 0.0


def test_limit_exact_matches_series_oracle(rng):
    # independent oracle: Boltzmann-weighted per-level dephasing error,
    # summed to m = 200
    for p0, eta, theta in [(0.9, 0.2156, math.pi), (0.97, 0.1, 1.1), (0.85, 0.25, 2.0)]:
        gamma = eta**2 * theta / (1 - 0.5 * eta**2)
        m = np.arange(201)
        weights = p0 * (1 - p0) ** m
        series = float(np.sum(weights * 0.75 * np.sin(0.5 * m * gamma) ** 2))
        assert thermal_limit_exact(p0, eta, theta) == pytest.approx(series, abs=1e-12)


def test_limit_two_microkelvin_magnitude():
    p0 = p0_from_temperature(2e-6, OMEGA)
    assert p0 == pytest.approx(0.909, abs=2e-3)
    value = thermal_limit_exact(p0, ETA, math.pi)
    assert 1e-4 < value < 2e-3


def test_leading_agrees_with_exact_to_one_percent():
    for p0 in (0.8, 0.9, 0.95, 0.99):
        for theta in (math.pi, math.pi / 2):
            exact = thermal_limit_exact(p0, ETA, theta)
            lead = thermal_limit_leading(p0, ETA, theta)
            assert abs(lead / exact - 1) < 0.01


def test_fidelity_monotone_in_p0():
    # recoil-free corrected flip: per-level fidelity decreases with m, so
    # the thermal average increases with p0
    kappa = 1 - 0.5 * ETA**2
    p = SystemParams(omega=7 * kappa * RABI, rabi=RABI, eta=ETA)
    prop = evolve(p, make_constant(math.pi, RABI, speed_correction=True, eta=ETA),
                  "second_order")
    target = GateTarget(math.pi)
    errors = [thermal_fidelity(prop, target, p0).thermal for p0 in (0.85, 0.9, 0.95, 1.0)]
    assert all(a < b for a, b in zip(errors, errors[1:]))


def test_check_truncation_converged_case():
    p = SystemParams(omega=5 * RABI, rabi=RABI, eta=ETA, truncation=20)
    drift = check_truncation(p, make_constant(math.pi, RABI), GateTarget(math.pi),
                             model="second_order")
    assert drift < 1e-9


def random_unitary(rng, dim):
    z = rng.normal(size=(dim, dim)) + 1j * rng.normal(size=(dim, dim))
    q, r = np.linalg.qr(z)
    return q * (np.diag(r) / np.abs(np.diag(r)))


def test_block_kernel_matches_probe_state_route(rng):
    dim_m = 13
    for target in (GateTarget(math.pi), GateTarget(math.pi / 2, 0.7), GateTarget(1.3, -2.1)):
        for _ in range(3):
            u = random_unitary(rng, 2 * dim_m)
            oracle = [probe_fidelity(u, target.unitary, m) for m in range(dim_m)]
            per_m = [per_m_fidelity(u, target, m, margin=0) for m in range(dim_m)]
            report = thermal_fidelity(u, target, 0.9)
            assert np.abs(np.subtract(per_m, oracle)).max() < 1e-14
            thermal_oracle = oracle[: len(report.per_m)]
            assert np.abs(np.subtract(report.per_m, thermal_oracle)).max() < 1e-14


@pytest.mark.parametrize("theta, axis", [
    (math.nan, 0.0), (math.inf, 0.0), (math.pi, math.nan), (math.pi, -math.inf),
])
def test_gate_target_rejects_non_finite_angles(theta, axis):
    with pytest.raises(ValueError, match="must be finite"):
        GateTarget(theta, axis)


@settings(derandomize=True, deadline=None, max_examples=40)
@given(
    segments=st.lists(
        st.tuples(st.floats(0.1e-6, 20e-6), st.floats(-math.pi, math.pi)),
        min_size=1, max_size=6,
    ),
    theta=st.floats(0.1, math.pi),
    axis=st.floats(-2 * math.pi, 2 * math.pi),
)
def test_shift_axis_rotates_gate_and_target_alike(segments, theta, axis):
    # the path of design-torf2 --axis: shifting every phase by axis conjugates
    # the propagator by the qubit z rotation that turns GateTarget(theta, 0)
    # into GateTarget(theta, axis).  Operators are compared, not fidelities:
    # the four-probe average is not invariant under that rotation.
    pulse = PulseProgram(rabi=RABI, segments=tuple(segments))
    params = SystemParams(omega=OMEGA, rabi=RABI, eta=ETA)
    z = np.exp(1j * axis * np.repeat([0.0, 1.0], params.truncation + 1))
    u = evolve(params, pulse).operator
    shifted = evolve(params, shift_axis(pulse, axis)).operator
    assert np.abs(shifted - z[:, None] * u * z.conj()).max() <= 1e-12
    r = z[[0, -1]]
    rotated = r[:, None] * GateTarget(theta, 0.0).unitary * r.conj()
    assert np.abs(GateTarget(theta, axis).unitary - rotated).max() <= 1e-15


def test_target_unitary_is_built_once_and_read_only():
    target = GateTarget(math.pi / 3, 0.4)
    assert target.unitary is target.unitary
    assert not target.unitary.flags.writeable
    assert target.unitary.tobytes() == su2_rotation(math.pi / 3, 0.4).tobytes()
    assert target == GateTarget(math.pi / 3, 0.4)
    assert hash(target) == hash(GateTarget(math.pi / 3, 0.4))
