import math

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from numpy.polynomial.legendre import leggauss

from mipulse import toggling
from mipulse.model import SystemParams
from mipulse.operators import SIGMA_X, SIGMA_Z
from mipulse.propagate import evolve, evolve_qubit, su2_rotation
from mipulse.pulse import BangAngles, PulseProgram, make_constant
from mipulse.toggling import (
    CONSTRAINT_KINDS,
    ToggleIntegrals,
    effective_propagator,
    evaluate_controls,
    interaction_scale,
    robust_qubit_predict,
    toggle_integrals,
)
from oracles import bang_closed_form, controls_by_matmul

RABI = 2 * math.pi * 20e3
ETA = 0.2156


def params_with(**kw):
    base = dict(omega=5 * RABI, rabi=RABI, eta=ETA, truncation=20)
    base.update(kw)
    return SystemParams(**base)


def quadrature_oracle(pulse, omega, kappa, nodes=120):
    """Independent numeric evaluation of all constraint integrals."""
    x, w = leggauss(nodes)
    kinds = {
        "recoil1": ("quad", 1, 0),
        "recoil2": ("drive", 2, 0),
        "entangle": ("drive", 0, 0),
        "detune": ("z", 0, 0),
        "trap1": ("quad", 1, 1),
        "trap2": ("drive", 2, 1),
    }
    out = {k: np.zeros((2, 2), dtype=complex) for k in kinds}
    accumulated = np.eye(2, dtype=complex)
    t0 = 0.0
    for duration, phase in pulse.segments:
        c, s = math.cos(phase), math.sin(phase)
        ops = {
            "drive": 0.5 * pulse.rabi * np.array([[0, c - 1j * s], [c + 1j * s, 0]]),
            "quad": 0.5 * pulse.rabi * np.array([[0, -s - 1j * c], [-s + 1j * c, 0]]),
            "z": 0.5 * pulse.rabi * SIGMA_Z.copy(),
        }
        for xi, wi in zip(x, w):
            local = 0.5 * duration * (xi + 1)
            weight = 0.5 * duration * wi
            t = t0 + local
            u = su2_rotation(kappa * pulse.rabi * local, phase) @ accumulated
            for key, (op, k, moment) in kinds.items():
                out[key] += (
                    weight * t**moment * np.exp(1j * k * omega * t)
                    * (u.conj().T @ ops[op] @ u)
                )
        accumulated = su2_rotation(kappa * pulse.rabi * duration, phase) @ accumulated
        t0 += duration
    return out


def random_pulse(rng, nseg=6, bang=False):
    durations = rng.uniform(1e-6, 9e-6, nseg)
    if bang:
        phases = rng.choice([0.0, math.pi], nseg)
    else:
        phases = rng.uniform(-math.pi, math.pi, nseg)
    return PulseProgram(rabi=RABI, segments=tuple(zip(durations, phases)))


def test_empty_pulse_gives_zero_integrals():
    ti = toggle_integrals(PulseProgram(rabi=RABI, segments=()), params_with())
    assert np.allclose(ti.u_qubit, np.eye(2))
    for name in ("recoil1", "recoil2", "entangle", "detune", "trap1", "trap2"):
        assert np.allclose(getattr(ti, name), 0.0)


@pytest.mark.parametrize("corrected", [False, True])
def test_integrals_match_quadrature_oracle(rng, corrected):
    params = params_with()
    kappa = 1 - 0.5 * ETA**2 if corrected else 1.0
    for _ in range(3):
        pulse = random_pulse(rng)
        ti = toggle_integrals(pulse, params, eta_correction=corrected)
        oracle = quadrature_oracle(pulse, params.omega, kappa)
        for name, value in oracle.items():
            scale = max(1.0, np.abs(value).max())
            assert np.abs(getattr(ti, name) - value).max() / scale < 1e-9


def test_constant_flip_recoil_free_at_odd_ratio():
    params = params_with(omega=5 * RABI)
    pulse = make_constant(math.pi, RABI)
    ti = toggle_integrals(pulse, params)
    assert np.linalg.norm(ti.recoil1) < 1e-12
    closed = bang_closed_form(BangAngles(0.0, 0.0, math.pi), 5.0)
    assert np.linalg.norm(closed.recoil1) < 1e-12


def test_recoil_present_at_even_ratio():
    closed = bang_closed_form(BangAngles(0.0, 0.0, math.pi), 4.0)
    assert np.linalg.norm(closed.recoil1) > 1e-3


def test_entangle_integral_of_corrected_gate():
    # recoil-free corrected flip accumulates theta / (1 - eta^2/2) about x
    params = params_with()
    pulse = make_constant(math.pi, RABI, speed_correction=True, eta=ETA)
    ti = toggle_integrals(pulse, params, eta_correction=True)
    expected = math.pi / (1 - 0.5 * ETA**2) * 0.5 * SIGMA_X
    assert np.abs(ti.entangle - expected).max() < 1e-12 * np.abs(expected).max()


def test_closed_form_matches_engine(rng):
    for _ in range(10):
        angles = BangAngles(*rng.uniform(0.02, 1.1, 3))
        ratio = rng.uniform(1.6, 9.0)
        closed = bang_closed_form(angles, ratio)
        seq = np.array([angles.theta1, angles.theta2, angles.theta3,
                        angles.theta2, angles.theta1])
        phases = np.array([0.0, math.pi, 0.0, math.pi, 0.0])
        u_qubit, values = evaluate_controls(
            phases, seq, 1.0, ratio, 1.0, ("recoil1", "recoil2", "entangle")
        )
        assert np.abs(closed.recoil1 - values["recoil1"]).max() < 1e-10
        assert np.abs(closed.recoil2 - values["recoil2"]).max() < 1e-10
        assert np.abs(closed.entangle - values["entangle"]).max() < 1e-10
        assert np.abs(closed.u_qubit - u_qubit).max() < 1e-12


def test_closed_form_rejects_low_ratio_and_second_order():
    with pytest.raises(ValueError):
        bang_closed_form(BangAngles(0.1, 0.1, 0.5), 1.2)
    with pytest.raises(ValueError):
        bang_closed_form(BangAngles(0.1, 0.1, 0.5, 0.1, 0.3), 5.0)


def test_rabi_deviation_equals_entangle(rng):
    params = params_with()
    for _ in range(50):
        pulse = random_pulse(rng, nseg=int(rng.integers(2, 9)))
        ti = toggle_integrals(pulse, params, eta_correction=bool(rng.integers(2)))
        assert np.abs(ti.rabi_dev - ti.entangle).max() <= 1e-14


def test_xaxis_pulses_entangle_along_x(rng):
    params = params_with()
    for _ in range(5):
        pulse = random_pulse(rng, bang=True)
        ti = toggle_integrals(pulse, params)
        value = ti.entangle
        # proportional to sigma_x: zero diagonal, real symmetric off-diagonal
        assert abs(value[0, 0]) < 1e-12 and abs(value[1, 1]) < 1e-12
        assert abs(value[0, 1] - value[1, 0]) < 1e-12
        assert abs(value[0, 1].imag) < 1e-12


def test_resolved_sideband_decay():
    pulse = make_constant(math.pi / 2, RABI)
    norms = []
    for ratio in (10.0, 30.0, 100.0):
        ti = toggle_integrals(pulse, params_with(omega=ratio * RABI))
        norms.append(np.linalg.norm(ti.recoil1))
    assert norms[0] > norms[1] > norms[2]
    assert norms[2] < 0.02


def test_concatenation_additivity(rng):
    # integrals over a concatenated pulse accumulate with conjugation by
    # the first part's qubit propagator and the harmonic phase offset
    params = params_with()
    a = random_pulse(rng, nseg=3)
    b = random_pulse(rng, nseg=4)
    joined = PulseProgram(rabi=RABI, segments=a.segments + b.segments)
    ti_a = toggle_integrals(a, params)
    ti_b = toggle_integrals(b, params)
    ti_ab = toggle_integrals(joined, params)
    u_a = evolve_qubit(a)
    expected = ti_a.recoil1 + np.exp(1j * params.omega * a.duration) * (
        u_a.conj().T @ ti_b.recoil1 @ u_a
    )
    assert np.abs(ti_ab.recoil1 - expected).max() < 1e-12


def test_effective_propagator_exact_at_zero_eta(rng):
    params = params_with(eta=0.0, truncation=8)
    pulse = random_pulse(rng, nseg=4)
    exact = evolve(params, pulse, "lamb_dicke").operator
    predicted = effective_propagator(pulse, params, "first")
    assert np.abs(exact - predicted).max() < 1e-11


def test_effective_propagator_first_order_scaling(rng):
    # leading averaging error is quadratic in the coupling: halving eta
    # shrinks the defect about fourfold
    pulse = random_pulse(rng, nseg=5, bang=True)
    defects = {}
    for eta in (0.1, 0.05):
        params = params_with(eta=eta, omega=3 * RABI)
        exact = evolve(params, pulse, "lamb_dicke").operator
        predicted = effective_propagator(pulse, params, "first")
        dim_m = params.truncation + 1
        cols = list(range(4)) + [dim_m + m for m in range(4)]
        defects[eta] = np.linalg.norm((exact - predicted)[:, cols])
    assert 3.4 < defects[0.1] / defects[0.05] < 4.6


def test_interaction_scale_reports():
    pulse = make_constant(math.pi, RABI)
    small = interaction_scale(pulse, params_with(omega=5 * RABI))
    assert 0 < small < math.pi / 3
    long_pulse = make_constant(math.pi, RABI / 40)  # 40x longer at same area
    # scale is reported, never asserted: just check it grows with worse cases
    assert interaction_scale(long_pulse, params_with(omega=5 * RABI)) >= 0


def test_robust_predict_identity_at_zero_offsets(rng):
    pulse = random_pulse(rng, nseg=4)
    predicted = robust_qubit_predict(pulse, 0.0, 0.0, eta=ETA)
    base = evolve_qubit(pulse, eta_correction=True, eta=ETA)
    assert np.abs(predicted - base).max() < 1e-12


def test_robust_predict_quadratic_defect():
    # a constant flip has vanishing detune/rabi integrals? No: it does not;
    # use a pulse that does (library composite) and check quadratic scaling
    from mipulse.optimize import composite_reference

    pulse = composite_reference("jones-5a", RABI, ETA)
    base = evolve_qubit(pulse, eta_correction=True, eta=ETA)
    defects = {}
    for scale in (0.1, 0.05):
        exact = evolve_qubit(
            PulseProgram(rabi=pulse.rabi * (1 + scale), segments=pulse.segments),
            eta_correction=True, eta=ETA,
        )
        predicted = robust_qubit_predict(pulse, 0.0, scale * pulse.rabi, eta=ETA)
        # prediction equals the unperturbed gate here (integrals vanish), so
        # the defect against exact evolution must be quadratic in the offset
        assert np.abs(predicted - base).max() < 1e-10
        defects[scale] = np.abs(exact - predicted).max()
    assert 3.0 < defects[0.1] / defects[0.05] < 5.0


def test_robust_predict_detuned_flip_accuracy():
    # constant flip with a 10% drive offset: first-order prediction within
    # a few 1e-3 of the exact two-level propagation
    pulse = make_constant(math.pi, RABI)
    exact = evolve_qubit(PulseProgram(rabi=1.1 * RABI, segments=pulse.segments))
    predicted = robust_qubit_predict(pulse, 0.0, 0.1 * RABI, eta=0.0,
                                     eta_correction=False)
    assert np.abs(exact - predicted).max() < 1e-2


def test_robust_predict_rejects_large_offsets():
    pulse = make_constant(math.pi, RABI)
    with pytest.raises(ValueError):
        robust_qubit_predict(pulse, 0.4 * RABI, 0.0)


def test_toggle_integrals_metadata():
    params = params_with()
    pulse = make_constant(math.pi, RABI)
    ti = toggle_integrals(pulse, params, eta_correction=True)
    assert isinstance(ti, ToggleIntegrals)
    assert ti.ratio == pytest.approx(5.0)
    assert ti.eta_corrected is True
    assert ti.pulse == pulse


@pytest.mark.parametrize("want_grad", [False, True])
def test_stacked_profiles_match_single_evaluation(rng, want_grad):
    kinds = tuple(CONSTRAINT_KINDS) + ("rabi",)
    durations = rng.uniform(0.05, 0.3, 23)
    stack = rng.uniform(-math.pi, math.pi, (2, 3, 23))
    stacked = evaluate_controls(stack, durations, 1.0, 3.7, 0.98, kinds, want_grad)
    for index in np.ndindex(stack.shape[:-1]):
        single = evaluate_controls(stack[index], durations, 1.0, 3.7, 0.98, kinds, want_grad)
        for many, one in zip(stacked, single):
            if isinstance(one, dict):
                assert many.keys() == one.keys()
                for name in one:
                    np.testing.assert_array_equal(many[name][index], one[name])
            else:
                np.testing.assert_array_equal(many[index], one)


@pytest.mark.parametrize("omega", [3.7, 0.0])
def test_duration_derivatives_match_central_differences(rng, omega):
    # omega = 0 is allowed when no finite-ratio kind is asked for
    if omega:
        kinds = tuple(CONSTRAINT_KINDS) + ("rabi",)
    else:
        kinds = ("entangle", "detune", "rabi")
    step = 1e-5
    for _ in range(4):
        n = int(rng.integers(2, 10))
        phases = rng.uniform(-math.pi, math.pi, n)
        durations = rng.uniform(0.05, 1.2, n)
        kappa = rng.uniform(0.9, 0.99)
        u_qubit, _, qubit_grad, grads = evaluate_controls(
            phases, durations, 1.3, omega, kappa, kinds, want_grad=True, wrt="durations"
        )
        for i in range(n):
            up, down = durations.copy(), durations.copy()
            up[i] += step
            down[i] -= step
            u_up, v_up = evaluate_controls(phases, up, 1.3, omega, kappa, kinds)
            u_down, v_down = evaluate_controls(phases, down, 1.3, omega, kappa, kinds)
            du = (u_up - u_down) / (2 * step)
            assert np.abs(du - u_qubit @ qubit_grad[i]).max() < 1e-8
            for name in kinds:
                dv = (v_up[name] - v_down[name]) / (2 * step)
                scale = max(1.0, np.abs(grads[name][i]).max())
                assert np.abs(dv - grads[name][i]).max() / scale < 1e-7, name


def test_derivative_variable_is_checked():
    with pytest.raises(ValueError):
        evaluate_controls([0.0], [1.0], 1.0, 0.0, 1.0, ("entangle",), True, wrt="rabi")


ALL_KINDS = tuple(CONSTRAINT_KINDS) + ("rabi",)


@settings(derandomize=True, deadline=None, max_examples=120)
@given(
    n=st.integers(0, 200),
    stack=st.sampled_from([(), (2,), (2, 3)]),
    kinds=st.lists(st.sampled_from(ALL_KINDS), unique=True, max_size=len(ALL_KINDS)),
    wrt=st.sampled_from(["phases", "durations"]),
    want_grad=st.booleans(),
    omega=st.sampled_from([0.0, 3.7, 11.3]),
    kappa=st.sampled_from([1.0, 0.977, 0.9]),
    seed=st.integers(0, 2**32 - 1),
)
@example(n=0, stack=(), kinds=list(ALL_KINDS), wrt="durations", want_grad=True,
         omega=3.7, kappa=0.977, seed=0)
@example(n=1, stack=(2,), kinds=list(ALL_KINDS), wrt="phases", want_grad=True,
         omega=0.0, kappa=0.977, seed=1)
@example(n=2, stack=(), kinds=["trap2", "trap1", "rabi"], wrt="durations", want_grad=True,
         omega=3.7, kappa=0.9, seed=2)
@example(n=200, stack=(2,), kinds=list(ALL_KINDS), wrt="durations", want_grad=True,
         omega=11.3, kappa=0.977, seed=3)
@example(n=5, stack=(2,), kinds=[], wrt="durations", want_grad=True,
         omega=3.7, kappa=0.977, seed=4)
def test_segment_kernel_matches_matmul_oracle(n, stack, kinds, wrt, want_grad, omega, kappa, seed):
    # the SU(2) kernel against per-segment matmul products and full 2x2
    # conjugations, entry by entry within 1e-13 of each array's largest entry
    rng = np.random.default_rng(seed)
    phases = rng.uniform(-math.pi, math.pi, stack + (n,))
    durations = rng.uniform(0.01, 0.6, n)
    args = (phases, durations, 1.3, omega, kappa, tuple(kinds), want_grad, wrt)
    kernel, oracle = evaluate_controls(*args), controls_by_matmul(*args)
    assert len(kernel) == len(oracle)
    for got, want in zip(kernel, oracle):
        if isinstance(want, dict):
            assert got.keys() == want.keys()
            pairs = [(got[name], want[name]) for name in want]
        else:
            pairs = [(got, want)]
        for g, w in pairs:
            assert g.shape == w.shape
            assert np.abs(g - w).max(initial=0.0) <= 1e-13 * np.abs(w).max(initial=0.0)


@pytest.mark.parametrize("wrt", ["phases", "durations"])
def test_values_do_not_depend_on_want_grad(rng, wrt):
    # the bang-bang solver reads its residuals from the evaluation that also
    # gives the Jacobian, so they must be the same bits as without it
    for n in (0, 1, 9, 64, 81, 200):
        phases = rng.uniform(-math.pi, math.pi, (3, n))
        durations = rng.uniform(0.05, 0.3, n)
        plain = evaluate_controls(phases, durations, 1.0, 3.7, 0.98, ALL_KINDS)
        full = evaluate_controls(
            phases, durations, 1.0, 3.7, 0.98, ALL_KINDS, want_grad=True, wrt=wrt
        )
        np.testing.assert_array_equal(full[0], plain[0])
        assert full[1].keys() == plain[1].keys()
        for name in plain[1]:
            np.testing.assert_array_equal(full[1][name], plain[1][name])


def assert_same_bits(got, want):
    """Two results of ``evaluate_controls``, compared array by array as bytes
    (so that -0.0 and 0.0, or two NaN payloads, differ)."""
    assert len(got) == len(want)
    for g, w in zip(got, want):
        if isinstance(w, dict):
            assert list(g) == list(w)
            g, w = list(g.values()), list(w.values())
        else:
            g, w = [g], [w]
        for a, b in zip(g, w):
            assert (a.dtype, a.shape) == (b.dtype, b.shape)
            assert a.tobytes() == b.tobytes()


@settings(derandomize=True, deadline=None, max_examples=80)
@given(
    n=st.integers(0, 60),
    stack=st.sampled_from([(), (2,), (2, 3)]),
    kinds=st.lists(st.sampled_from(ALL_KINDS), unique=True, max_size=len(ALL_KINDS)),
    mode=st.sampled_from([None, "phases", "durations"]),
    omega=st.sampled_from([0.0, 3.7]),
    seed=st.integers(0, 2**32 - 1),
)
@example(n=0, stack=(), kinds=list(ALL_KINDS), mode="durations", omega=3.7, seed=0)
@example(n=1, stack=(2,), kinds=list(ALL_KINDS), mode="phases", omega=3.7, seed=1)
@example(n=1, stack=(), kinds=[], mode=None, omega=0.0, seed=2)
def test_cached_plan_gives_the_same_bits(n, stack, kinds, mode, omega, seed):
    # a fresh plan, the cached one, and a fresh one again after other keys
    # evicted it give the same bits; the plan is read-only, and writing into a
    # result leaves the next call's result as it was
    rng = np.random.default_rng(seed)
    phases = rng.uniform(-math.pi, math.pi, stack + (n,))
    durations = rng.uniform(0.01, 0.6, n)
    kinds = tuple(kinds)

    def evaluate(durations, rabi=1.3):
        return evaluate_controls(
            phases, durations, rabi, omega, 0.977, kinds, mode is not None, mode or "phases"
        )

    toggling._plan.cache_clear()
    cold = evaluate(durations)
    warm = evaluate(durations)
    assert toggling._plan.cache_info().hits == 1
    assert_same_bits(warm, cold)

    plan = toggling._plan(
        durations.tobytes(), (1.3).hex(), omega.hex(), (0.977).hex(), kinds, mode
    )
    assert toggling._plan.cache_info().hits == 2
    assert not any(field.flags.writeable for field in plan if isinstance(field, np.ndarray))

    for result in warm:
        for array in result.values() if isinstance(result, dict) else [result]:
            array[...] = np.nan
    assert_same_bits(evaluate(durations), cold)

    # other duration sets, at other rates so that n = 0 has other keys too
    for scale in range(2, 2 + toggling._plan.cache_info().maxsize):
        evaluate(durations * scale, rabi=1.3 * scale)
    misses = toggling._plan.cache_info().misses
    assert_same_bits(evaluate(durations), cold)
    assert toggling._plan.cache_info().misses == misses + 1


@pytest.mark.parametrize("wrt", ["phases", "durations"])
def test_plans_are_keyed_on_exact_bits(rng, wrt):
    # a one-ulp change to one duration, and omega -0.0 against 0.0, each get
    # a plan of their own, which gives the same bits as built alone
    phases = rng.uniform(-math.pi, math.pi, (2, 7))
    durations = rng.uniform(0.01, 0.6, 7)
    nudged = durations.copy()
    nudged[3] = np.nextafter(nudged[3], 1.0)
    keys = [(durations, 0.0), (nudged, 0.0), (durations, -0.0)]

    def evaluate(durations, omega):
        return evaluate_controls(phases, durations, 1.3, omega, 0.977, ALL_KINDS, True, wrt)

    alone = []
    for key in keys:
        toggling._plan.cache_clear()
        alone.append(evaluate(*key))
    toggling._plan.cache_clear()
    for key, want in zip(keys, alone):
        assert_same_bits(evaluate(*key), want)
    assert toggling._plan.cache_info().misses == len(keys)
