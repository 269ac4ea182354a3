import math

import numpy as np
import pytest

from mipulse.fidelity import GateTarget, thermal_fidelity
from mipulse.model import SystemParams, hamiltonian
from mipulse.operators import SIGMA_X, expm_hermitian, unitarity_defect
from mipulse.propagate import evolve, evolve_qubit, su2_rotation
from mipulse.pulse import BangAngles, PulseProgram, make_constant, make_sampled, make_torf

RABI = 2 * math.pi * 20e3
ETA = 0.2156


def params_with(**kw):
    base = dict(omega=5 * RABI, rabi=RABI, eta=ETA, truncation=20)
    base.update(kw)
    return SystemParams(**base)


def test_empty_pulse_is_identity():
    p = params_with(truncation=3)
    prop = evolve(p, PulseProgram(rabi=RABI, segments=()), "full")
    assert np.allclose(prop.operator, np.eye(8))


def test_decoupled_closed_form():
    p = params_with(eta=0.0, truncation=6)
    pulse = make_constant(math.pi, RABI)
    u = evolve(p, pulse, "full").operator
    dim = p.truncation + 1
    motional = np.diag(np.exp(-1j * p.omega * np.arange(dim) * pulse.duration))
    expected = np.kron(-1j * SIGMA_X, motional)
    assert np.abs(u - expected).max() < 1e-10


def test_motional_block_diagonal_at_zero_eta():
    p = params_with(eta=0.0, truncation=6)
    u = evolve(p, make_constant(1.0, RABI), "full").operator
    dim = p.truncation + 1
    block = u[:dim, :dim]
    assert np.abs(block - np.diag(np.diag(block))).max() < 1e-12


def test_segment_order():
    p = params_with(truncation=8)
    two = PulseProgram(rabi=RABI, segments=((3e-6, 0.2), (5e-6, -1.1)))
    first = PulseProgram(rabi=RABI, segments=((3e-6, 0.2),))
    second = PulseProgram(rabi=RABI, segments=((5e-6, -1.1),))
    combined = evolve(p, two, "full").operator
    product = evolve(p, second, "full").operator @ evolve(p, first, "full").operator
    assert np.abs(combined - product).max() < 1e-12


def test_refinement_invariance_full_model():
    p = params_with(truncation=10)
    coarse = make_constant(math.pi, RABI)
    fine = make_sampled([0.0] * 64, coarse.duration / 64, RABI)
    diff = evolve(p, coarse, "full").operator - evolve(p, fine, "full").operator
    assert np.abs(diff).max() < 1e-12


def test_unitarity():
    p = params_with()
    pulse = make_torf(BangAngles(0.3, 0.1, 0.9), RABI)
    for model in ("full", "lamb_dicke", "second_order"):
        assert unitarity_defect(evolve(p, pulse, model).operator) < 1e-10


def test_odd_ratio_error_dip():
    # constant flip under the first-order model: odd trap-to-drive ratios
    # suppress recoil, neighboring even ratios do not
    pulse = make_constant(math.pi, RABI)
    target = GateTarget(math.pi)
    errors = {}
    for ratio in (4.0, 5.0):
        p = params_with(omega=ratio * RABI)
        report = thermal_fidelity(evolve(p, pulse, "lamb_dicke"), target, 1.0)
        errors[ratio] = report.error
    assert errors[5.0] < errors[4.0] / 100


def test_evolve_qubit_flip():
    assert np.abs(evolve_qubit(make_constant(math.pi, RABI)) + 1j * SIGMA_X).max() < 1e-12


def test_evolve_qubit_bang_rotation_angle():
    angles = BangAngles(0.0840 * math.pi, 0.0269 * math.pi, 0.3858 * math.pi)
    u = evolve_qubit(make_torf(angles, RABI))
    net = 2 * angles.theta1 - 2 * angles.theta2 + angles.theta3
    assert net == pytest.approx(math.pi / 2, abs=1e-12)
    assert np.abs(u - su2_rotation(net, 0.0)).max() < 1e-12


def test_evolve_qubit_corrected_flip():
    pulse = make_constant(math.pi, RABI, speed_correction=True, eta=ETA)
    u = evolve_qubit(pulse, eta_correction=True, eta=ETA)
    assert np.abs(u + 1j * SIGMA_X).max() < 1e-12


def test_unknown_model_rejected():
    with pytest.raises(ValueError):
        evolve(params_with(), make_constant(1.0, RABI), "bogus")


@pytest.mark.parametrize("model", ["full", "lamb_dicke", "second_order"])
def test_evolve_matches_per_segment_exponentials(model, rng):
    # one eigensystem in the phase frame against a fresh exponential per segment
    p = params_with(truncation=10, delta_detuning=0.04 * RABI, delta_rabi=0.03 * RABI)
    segments = tuple(zip(rng.uniform(0.5e-6, 4e-6, 24), rng.uniform(-math.pi, math.pi, 24)))
    expected = np.eye(p.dim, dtype=complex)
    for duration, phase in segments:
        expected = expm_hermitian(hamiltonian(p, phase, model), duration) @ expected
    u = evolve(p, PulseProgram(rabi=RABI, segments=segments), model).operator
    assert np.abs(u - expected).max() < 1e-11


def test_non_finite_unitarity_defect_rejected(monkeypatch):
    monkeypatch.setattr("mipulse.propagate.unitarity_defect", lambda u: math.nan)
    with pytest.raises(ArithmeticError):
        evolve(params_with(truncation=3), make_constant(1.0, RABI), "full")
