import math
from dataclasses import replace

import numpy as np
import pytest

from mipulse import model, operators
from mipulse.fidelity import GateTarget
from mipulse.model import (
    MODELS,
    SystemParams,
    full_hamiltonian,
    hamiltonian,
    lamb_dicke_hamiltonian,
    qubit_pair,
    second_order_hamiltonian,
)
from mipulse.operators import (
    IDENT_2,
    SIGMA_X,
    SIGMA_Y,
    build_fock,
    displacement_coupling,
)
from mipulse.pulse import make_constant
from mipulse.scan import sweep_ratio

RABI = 2 * math.pi * 20e3


def params_with(**kw):
    base = dict(omega=2 * math.pi * 100e3, rabi=RABI, eta=0.2156, truncation=20)
    base.update(kw)
    return SystemParams(**base)


def hermiticity(h):
    return np.linalg.norm(h - h.conj().T)


def test_qubit_pair_axis_aligned():
    pair = qubit_pair(0.0, RABI)
    assert np.allclose(pair.drive, 0.5 * RABI * SIGMA_X)
    assert np.allclose(pair.quad, 0.5 * RABI * SIGMA_Y)


def test_qubit_pair_phase_flip():
    pair = qubit_pair(math.pi, RABI)
    assert np.allclose(pair.drive, -0.5 * RABI * SIGMA_X, atol=1e-10)


def test_qubit_pair_quarter_phase():
    pair = qubit_pair(math.pi / 2, RABI)
    assert np.allclose(pair.drive, 0.5 * RABI * SIGMA_Y, atol=1e-10)
    assert np.allclose(pair.quad, -0.5 * RABI * SIGMA_X, atol=1e-10)


@pytest.mark.parametrize("phase", [0.0, 0.3, 1.7, -2.2])
def test_qubit_pair_orthogonality(phase):
    pair = qubit_pair(phase, RABI)
    assert abs(np.trace(pair.drive @ pair.quad)) < 1e-12 * RABI**2


def test_params_validation():
    with pytest.raises(ValueError):
        params_with(omega=-1.0)
    with pytest.raises(ValueError):
        params_with(rabi=0.0)
    with pytest.raises(ValueError):
        params_with(eta=1.0)
    assert SystemParams.default().eta == 0.2156
    assert SystemParams.default().omega == pytest.approx(2 * math.pi * 100e3)


def test_full_decoupled_limit():
    p = params_with(eta=0.0, truncation=4)
    h = full_hamiltonian(p, 0.0)
    fock = build_fock(4)
    expected = np.kron(0.5 * RABI * SIGMA_X, np.eye(5)) + np.kron(
        np.eye(2), p.omega * fock.number
    )
    assert np.allclose(h, expected, atol=1e-9)


def test_full_coupling_block_is_displacement():
    p = params_with()
    h = full_hamiltonian(p, 0.0)
    dim = p.truncation + 1
    disp = displacement_coupling(p.eta, p.fock())
    assert np.allclose(h[dim:, :dim], 0.5 * RABI * disp, atol=1e-9)


def test_displacement_built_once_per_eta_and_truncation(monkeypatch):
    # an offset map at fixed (eta, M) exponentiates the displacement once
    calls = []

    def counted(eta, fock):
        calls.append((eta, fock.truncation))
        return displacement_coupling(eta, fock)

    monkeypatch.setattr(model, "displacement_coupling", counted)
    model._displacement.cache_clear()
    for delta in (0.0, 0.05 * RABI, -0.1 * RABI):
        h = full_hamiltonian(params_with(eta=0.123, truncation=5, delta_rabi=delta), 0.3)
        assert np.allclose(h[6:, :6], 0.5 * (RABI + delta) * np.exp(0.3j)
                           * displacement_coupling(0.123, build_fock(5)), atol=1e-9)
    full_hamiltonian(params_with(eta=0.123, truncation=6), 0.0)
    assert calls == [(0.123, 5), (0.123, 6)]
    assert not model._displacement(0.123, 5).flags.writeable


def test_full_detuning_shift():
    p0 = params_with()
    p1 = params_with(delta_detuning=0.1 * RABI)
    diff = full_hamiltonian(p1, 0.4) - full_hamiltonian(p0, 0.4)
    dim = p0.truncation + 1
    assert np.allclose(diff[dim:, dim:], 0.1 * RABI * np.eye(dim), atol=1e-9)
    assert np.allclose(diff[:dim, :dim], 0.0, atol=1e-12)


def test_lamb_dicke_matches_full_at_zero_eta():
    p = params_with(eta=0.0)
    assert np.allclose(
        lamb_dicke_hamiltonian(p, 1.1), full_hamiltonian(p, 1.1), atol=1e-9
    )


def test_lamb_dicke_coupling_block():
    p = params_with()
    h = lamb_dicke_hamiltonian(p, 0.0)
    fock = p.fock()
    coupling = h - np.kron(0.5 * RABI * SIGMA_X, np.eye(fock.dim)) - np.kron(
        np.eye(2), p.omega * fock.number
    )
    expected = p.eta * np.kron(0.5 * RABI * SIGMA_Y, fock.position)
    assert np.allclose(coupling, expected, atol=1e-9)


def test_lamb_dicke_defect_scales_linearly_in_eta():
    # || H_full - H_LD || = O(eta^2 * rabi): ratio ~4 when eta halves
    defects = {}
    for eta in (0.2, 0.1):
        p = params_with(eta=eta, truncation=6)
        defects[eta] = np.linalg.norm(
            full_hamiltonian(p, 0.7) - lamb_dicke_hamiltonian(p, 0.7), 2
        )
    ratio = defects[0.2] / defects[0.1]
    assert 3.0 < ratio < 5.0


def test_second_order_ground_matrix_element():
    p = params_with()
    for phase in (0.0, 0.9):
        h = second_order_hamiltonian(p, phase)
        dim = p.truncation + 1
        element = h[0, dim]  # <g,0|H|e,0>
        expected = 0.5 * RABI * np.exp(-1j * phase) * (1 - 0.5 * p.eta**2)
        assert abs(element - expected) < 1e-9


def test_second_order_prefactor_ratio():
    p = params_with()
    p0 = params_with(eta=0.0)
    dim = p.truncation + 1
    ratio = second_order_hamiltonian(p, 0.3)[0, dim] / full_hamiltonian(p0, 0.3)[0, dim]
    assert ratio == pytest.approx(1 - 0.5 * p.eta**2, abs=1e-14)


def test_second_order_defect_cubic_on_low_sector():
    # difference from the full Hamiltonian restricted to Fock levels <= 3
    defects = {}
    for eta in (0.05, 0.1, 0.2):
        p = params_with(eta=eta, truncation=20)
        diff = full_hamiltonian(p, 0.5) - second_order_hamiltonian(p, 0.5)
        dim = p.truncation + 1
        idx = [m for m in range(4)] + [dim + m for m in range(4)]
        defects[eta] = np.linalg.norm(diff[np.ix_(idx, idx)], 2)
    assert 6.0 < defects[0.2] / defects[0.1] < 10.0
    assert 6.0 < defects[0.1] / defects[0.05] < 10.0


def test_builders_hermitian_and_converge_at_zero_eta():
    p = params_with(eta=0.0, truncation=8)
    hs = [hamiltonian(p, 0.8, m) for m in ("full", "lamb_dicke", "second_order")]
    for h in hs:
        assert hermiticity(h) < 1e-12 * np.linalg.norm(h)
    assert np.allclose(hs[0], hs[1], atol=1e-9)
    assert np.allclose(hs[0], hs[2], atol=1e-9)


def test_unknown_model_rejected():
    with pytest.raises(ValueError):
        hamiltonian(params_with(), 0.0, "nope")


@pytest.mark.parametrize("field", ["omega", "rabi", "delta_detuning", "delta_rabi"])
@pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf])
def test_params_reject_non_finite(field, value):
    with pytest.raises(ValueError, match=field):
        params_with(**{field: value})


@pytest.mark.parametrize("model", MODELS)
def test_phase_is_a_diagonal_frame(model, rng):
    # H(phase) = R H(0) R^dag with R = diag(1_g, e^{i phase} 1_e)
    p = params_with(truncation=12, delta_detuning=0.07 * RABI, delta_rabi=-0.05 * RABI)
    h0 = hamiltonian(p, 0.0, model)
    dim = p.truncation + 1
    for phase in rng.uniform(-math.pi, math.pi, 5):
        frame = np.concatenate([np.ones(dim), np.full(dim, np.exp(1j * phase))])
        rotated = frame[:, None] * h0 * frame.conj()[None, :]
        h = hamiltonian(p, phase, model)
        assert np.linalg.norm(h - rotated) <= 1e-13 * np.linalg.norm(h)


def written_sum(params, phase, model_name):
    """The expanded models' sums as written, left to right, with ``np.kron``."""
    fock = build_fock(params.truncation)
    drive, quad = qubit_pair(phase, params.rabi)
    eta, eye = params.eta, np.eye(fock.dim)
    trap = np.kron(IDENT_2, params.omega * fock.number)
    if model_name == "lamb_dicke":
        return np.kron(drive, eye) + eta * np.kron(quad, fock.position) + trap
    two_quanta = fock.raise_ @ fock.raise_ + fock.lower @ fock.lower
    return (
        (1 - 0.5 * eta**2) * np.kron(drive, eye)
        + eta * np.kron(quad, fock.position)
        - 0.5 * eta**2 * np.kron(drive, two_quanta)
        - eta**2 * np.kron(drive, fock.number)
        + trap
    )


@pytest.mark.parametrize("model_name", ["lamb_dicke", "second_order"])
@pytest.mark.parametrize("phase", [0.0, -0.0, 0.3, -2.2, math.pi])
@pytest.mark.parametrize("eta, truncation", [(0.2156, 20), (0.05, 4), (0.0, 7)])
def test_expanded_models_are_the_written_sum_bit_for_bit(model_name, phase, eta, truncation):
    p = params_with(eta=eta, truncation=truncation)
    for omega in (2 * math.pi * 100e3, 2 * math.pi * 51.3e3):
        p = replace(p, omega=omega)
        expected = written_sum(p, phase, model_name).tobytes()
        assert hamiltonian(p, phase, model_name).tobytes() == expected


@pytest.mark.parametrize("model_name", MODELS)
def test_hamiltonians_are_fresh_writeable_arrays(model_name):
    p = params_with(truncation=6, delta_rabi=0.01 * RABI)
    first = hamiltonian(p, 0.4, model_name)
    bits = first.tobytes()
    assert first.flags.writeable
    first[...] = np.nan
    second = hamiltonian(p, 0.4, model_name)
    assert second is not first and second.flags.writeable
    assert second.tobytes() == bits


def test_static_part_is_read_only():
    model._static_part.cache_clear()
    hamiltonian(params_with(truncation=6), 0.2, "second_order")
    static = model._static_part("second_order", (0.2).hex(), RABI.hex(), (0.2156).hex(), 6)
    assert not static.flags.writeable
    assert model._static_part.cache_info().misses == 1


@pytest.mark.parametrize("model_name", ["lamb_dicke", "second_order"])
def test_static_part_keyed_on_exact_bits(model_name):
    # 0.0 and -0.0 compare equal, as do nothing one ulp apart: each is its own entry
    keys = [
        (0.0, RABI),
        (-0.0, RABI),
        (0.0, math.nextafter(RABI, math.inf)),
        (-0.0, math.nextafter(RABI, math.inf)),
    ]
    cold = []
    for phase, rabi in keys:
        model._static_part.cache_clear()
        cold.append(hamiltonian(params_with(rabi=rabi, truncation=5), phase, model_name).tobytes())
    assert cold[0] != cold[2]
    model._static_part.cache_clear()
    for _ in range(2):
        warm = [
            hamiltonian(params_with(rabi=rabi, truncation=5), phase, model_name).tobytes()
            for phase, rabi in keys
        ]
        assert warm == cold
    assert model._static_part.cache_info().currsize == len(keys)
    assert model._static_part.cache_info().misses == len(keys)


@pytest.mark.parametrize("model_name", MODELS)
def test_ratio_sweep_builds_ladder_and_static_part_once(monkeypatch, model_name):
    ladders, statics = [], []

    def counted_ladder(**fields):
        ladders.append(fields["truncation"])
        return ladder_type(**fields)

    def counted_pair(phase, rabi):
        statics.append((phase, rabi))
        return qubit_pair(phase, rabi)

    ladder_type = operators.FockOperators
    monkeypatch.setattr(operators, "FockOperators", counted_ladder)
    monkeypatch.setattr(model, "qubit_pair", counted_pair)
    build_fock.cache_clear()
    model._static_part.cache_clear()
    ratios = np.linspace(2.0, 6.0, 40)
    result = sweep_ratio(make_constant(math.pi, RABI), ratios, model_name, 1.0,
                         GateTarget(math.pi), eta=0.2156, truncation=6)
    assert [row[2] for row in result.rows] == ["ok"] * 40
    assert ladders == [6]
    assert statics == ([] if model_name == "full" else [(0.0, RABI)])
