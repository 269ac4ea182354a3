import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from mipulse.fidelity import GateTarget, thermal_fidelity
from mipulse import propagate
from mipulse.model import MODELS, SystemParams, hamiltonian
from mipulse.operators import SIGMA_X, unitarity_defect
from mipulse.propagate import evolve, evolve_qubit, su2_rotation
from mipulse.pulse import (
    BangAngles,
    PulseProgram,
    make_constant,
    make_sampled,
    make_torf,
    shift_axis,
)
from oracles import evolve_by_expm

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


EMPTY = PulseProgram(rabi=RABI, segments=())


def test_unknown_model_rejected():
    # H(0) is built before any segment, so an empty pulse is rejected too
    for pulse in (make_constant(1.0, RABI), EMPTY):
        with pytest.raises(ValueError):
            evolve(params_with(), pulse, "bogus")


@pytest.mark.parametrize("model", MODELS)
def test_evolve_matches_per_segment_exponentials(model, rng):
    # the eigenbasis recurrence against a fresh exponential per segment
    p = params_with(delta_detuning=0.04 * RABI, delta_rabi=0.03 * RABI)
    durations = rng.uniform(0.5e-6, 4e-6, 150)
    phases = rng.uniform(-math.pi, math.pi, 150)
    cases = {
        "empty": (),
        "one": ((durations[0], phases[0]),),
        "random": tuple(zip(durations, phases)),
        # c_k = 0 exactly: no phase jump between segments
        "repeated": tuple((d, 0.7) for d in durations[:12]),
        # jumps of 2 pi before wrapping, and of nearly 2 pi across the branch cut
        "two_pi": tuple(zip(durations[:12], 0.3 + 2 * math.pi * np.arange(12))),
        "branch_cut": tuple(zip(durations[:12], [math.pi, -math.pi + 1e-9] * 6)),
    }
    for name, segments in cases.items():
        pulse = PulseProgram(rabi=RABI, segments=segments)
        u = evolve(p, pulse, model).operator
        assert np.abs(u - evolve_by_expm(p, pulse, model)).max() < 1e-11, name


def test_non_finite_unitarity_defect_rejected(monkeypatch):
    monkeypatch.setattr("mipulse.propagate.unitarity_defect", lambda u: math.nan)
    for pulse in (make_constant(1.0, RABI), EMPTY, make_torf(BangAngles(0.3, 0.1, 0.9), RABI)):
        with pytest.raises(ArithmeticError):
            evolve(params_with(truncation=3), pulse, "full")


def test_one_eigh_per_evolve(monkeypatch):
    # perfbench/spans.py counts numpy.linalg.eigh calls by name: once the
    # full model's displacement operator is cached, evolve makes exactly one,
    # of the real gauged H(0)
    calls = []
    eigh = np.linalg.eigh

    def counted(h):
        calls.append((h.shape, h.dtype))
        return eigh(h)

    monkeypatch.setattr(np.linalg, "eigh", counted)
    p = params_with(truncation=4)
    pulses = [EMPTY] + [make_sampled(np.linspace(-3, 3, n), 1e-6, RABI) for n in (1, 2, 30)]
    for model in MODELS:
        evolve(p, EMPTY, model)
        for pulse in pulses:
            calls.clear()
            evolve(p, pulse, model)
            assert calls == [((p.dim, p.dim), np.float64)], (model, len(pulse.segments))


def gauged_h0(p, model):
    m = np.arange(p.truncation + 1)
    gauge = np.tile(np.array([1, 1j, -1, -1j])[m % 4], 2)
    h = hamiltonian(p, 0.0, model)
    return h, gauge.conj()[:, None] * h * gauge


@settings(derandomize=True, deadline=None, max_examples=120)
@given(
    model=st.sampled_from(MODELS),
    truncation=st.integers(1, 8),
    eta=st.floats(0.0, 0.5),
    delta_detuning=st.floats(-0.1 * RABI, 0.1 * RABI),
    delta_rabi=st.floats(-0.1 * RABI, 0.1 * RABI),
)
def test_gauged_h0_is_real(model, truncation, eta, delta_detuning, delta_rabi):
    # G = 1_2 (x) diag(i^m) makes H(0) real symmetric; exactly so when no
    # displacement operator is exponentiated
    p = params_with(truncation=truncation, eta=eta, delta_detuning=delta_detuning,
                    delta_rabi=delta_rabi)
    h, gauged = gauged_h0(p, model)
    residue = np.abs(gauged.imag).max()
    if model == "full":
        assert residue <= 1e-12 * np.abs(h).max()
    else:
        assert residue == 0.0
    assert np.array_equal(gauged.real, gauged.real.T)


@pytest.mark.parametrize("truncation", [1, 4, 20])
def test_gauge_is_cached_read_only(truncation):
    propagate._gauge.cache_clear()
    gauge = propagate._gauge(truncation)
    assert propagate._gauge(truncation) is gauge
    assert not gauge.flags.writeable
    m = np.arange(truncation + 1)
    assert gauge.tobytes() == np.tile(np.array([1, 1j, -1, -1j])[m % 4], 2).tobytes()


def test_gauge_breaking_term_rejected(monkeypatch):
    # sigma_z (x) (a + a^dag) is real, so the gauge turns it imaginary
    build = hamiltonian

    def broken(params, phase, model):
        fock = params.fock()
        kick = 1e-3 * params.rabi * np.kron(np.diag([1.0, -1.0]), fock.position)
        return build(params, phase, model) + kick

    monkeypatch.setattr("mipulse.propagate.hamiltonian", broken)
    for model in MODELS:
        for pulse in (EMPTY, make_constant(1.0, RABI)):
            with pytest.raises(ArithmeticError, match="not real"):
                evolve(params_with(truncation=4), pulse, model)


SEGMENTS = st.lists(
    st.tuples(st.floats(0.1e-6, 20e-6), st.floats(-math.pi, math.pi)), max_size=5
)
SYSTEMS = st.builds(
    params_with,
    truncation=st.integers(1, 8),
    delta_detuning=st.floats(-0.1 * RABI, 0.1 * RABI),
    delta_rabi=st.floats(-0.1 * RABI, 0.1 * RABI),
)


@settings(derandomize=True, deadline=None, max_examples=60)
@given(p=SYSTEMS, model=st.sampled_from(MODELS), first=SEGMENTS, second=SEGMENTS)
def test_concatenation_composes(p, model, first, second):
    # evolve(a ++ b) = evolve(b) @ evolve(a)
    a = PulseProgram(rabi=RABI, segments=tuple(first))
    b = PulseProgram(rabi=RABI, segments=tuple(second))
    joined = PulseProgram(rabi=RABI, segments=a.segments + b.segments)
    u = evolve(p, joined, model).operator
    assert np.abs(u - evolve(p, b, model).operator @ evolve(p, a, model).operator).max() < 1e-12


@settings(derandomize=True, deadline=None, max_examples=60)
@given(
    p=SYSTEMS,
    model=st.sampled_from(MODELS),
    segments=SEGMENTS,
    chi=st.floats(-2 * math.pi, 2 * math.pi),
)
def test_phase_frame_covariance(p, model, segments, chi):
    # adding chi to every phase conjugates U by R_chi = diag(1_g, e^{i chi} 1_e)
    pulse = PulseProgram(rabi=RABI, segments=tuple(segments))
    frame = np.exp(1j * chi * np.repeat([0.0, 1.0], p.truncation + 1))
    u = evolve(p, pulse, model).operator
    shifted = evolve(p, shift_axis(pulse, chi), model).operator
    assert np.abs(shifted - frame[:, None] * u * frame.conj()).max() < 1e-12
