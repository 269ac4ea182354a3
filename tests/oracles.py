"""Independent reference routes that the library's fast paths are tested against.

They live with the tests, not in the package: each one recomputes a library
result by a different and slower method.
"""

from __future__ import annotations

import math

import numpy as np

from mipulse.model import SystemParams, hamiltonian
from mipulse.operators import SIGMA_X, SIGMA_Y, SIGMA_Z, expm_hermitian
from mipulse.propagate import su2_rotation
from mipulse.pulse import BangAngles, PulseProgram
from mipulse.toggling import (
    ALIASES,
    CONSTRAINT_KINDS,
    MIN_RATIO,
    ToggleIntegrals,
    _e0,
    _e1,
    _MOMENT0,
)


def bang_closed_form(
    angles: BangAngles, ratio: float, theta_tar: float | None = None
) -> ToggleIntegrals:
    """First-harmonic recoil integral of a bang-bang pulse, antiderivative route.

    For phases restricted to {0, pi} the conjugated quadrature reduces to
    ``(Uq^dag)^2 h_quad`` and each segment integrates to a resolvent
    expression in the frequency ratio.  This is an algebraically
    independent route from :func:`~mipulse.toggling.toggle_integrals`; it
    requires ``ratio > 1.5`` (the averaging validity gate, which also keeps
    the ``1 - ratio^2`` resolvent away from resonance).

    Works in pulse-area units (rabi = 1), valid since the integrals are
    dimensionless.
    """
    if ratio <= MIN_RATIO:
        raise ValueError(
            f"ratio must exceed {MIN_RATIO} (averaging validity), got {ratio}"
        )
    if angles.order != "first":
        raise ValueError("closed form covers first-order (three-angle) pulses")
    half = angles.angles
    thetas = np.array(half + half[-2::-1], dtype=float)
    signs = np.array([(-1) ** k for k in range(len(thetas))], dtype=float)
    times = np.concatenate(([0.0], np.cumsum(thetas)))  # in units of 1/rabi
    cum_rot = np.concatenate(([0.0], np.cumsum(signs * thetas)))

    recoil1 = np.zeros((2, 2), dtype=complex)
    recoil2 = np.zeros((2, 2), dtype=complex)
    for n, (theta, sign) in enumerate(zip(thetas, signs)):
        if theta == 0.0:
            continue
        quad_n = sign * 0.5 * SIGMA_Y
        resolvent = (ratio * np.eye(2) - sign * SIGMA_X) / (ratio**2 - 1)
        u_pre_sq = su2_rotation(2 * cum_rot[n], 0.0).conj().T
        hop = np.exp(1j * ratio * theta) * su2_rotation(2 * sign * theta, 0.0).conj().T
        bracket = np.exp(1j * ratio * times[n]) * (hop - np.eye(2))
        recoil1 += u_pre_sq @ (-1j * bracket) @ resolvent @ quad_n
        recoil2 += (
            sign
            * 0.25
            * SIGMA_X
            / (1j * ratio)
            * (np.exp(2j * ratio * times[n + 1]) - np.exp(2j * ratio * times[n]))
        )
    entangle = 0.5 * cum_rot[-1] * SIGMA_X
    return ToggleIntegrals(
        u_qubit=su2_rotation(cum_rot[-1], 0.0),
        recoil1=recoil1,
        recoil2=recoil2,
        entangle=entangle,
        rabi_dev=entangle,
        ratio=ratio,
    )


def evolve_by_expm(params: SystemParams, pulse: PulseProgram, model: str) -> np.ndarray:
    """Propagator of a pulse as the product of a fresh exponential per segment.

    Each segment builds ``H(phase)`` and exponentiates it on its own, with no
    shared eigenbasis and no phase frame: the reference route for
    :func:`~mipulse.propagate.evolve`.
    """
    total = np.eye(params.dim, dtype=complex)
    for duration, phase in pulse.segments:
        total = expm_hermitian(hamiltonian(params, phase, model), duration) @ total
    return total


def probe_states(m: int, dim_m: int) -> np.ndarray:
    """The four probe states at motional level m, as columns (2*dim_m, 4)."""
    g = np.zeros(2 * dim_m, dtype=complex)
    e = np.zeros(2 * dim_m, dtype=complex)
    g[m] = 1.0
    e[dim_m + m] = 1.0
    inv_sqrt2 = 1 / math.sqrt(2)
    return np.stack(
        [g, e, (g + e) * inv_sqrt2, (g + 1j * e) * inv_sqrt2], axis=1
    )


def probe_fidelity(operator: np.ndarray, target_unitary: np.ndarray, m: int) -> float:
    """Per-level probe fidelity from full-space probe vectors and ``kron(target, I)``."""
    dim_m = operator.shape[0] // 2
    probes = probe_states(m, dim_m)
    evolved = operator @ probes
    targets = np.kron(target_unitary, np.eye(dim_m)) @ probes
    overlaps = np.einsum("ik,ik->k", targets.conj(), evolved)
    return float(np.mean(np.abs(overlaps) ** 2))


def central_differences(func, x: np.ndarray, step: float = 1e-6) -> np.ndarray:
    """Central-difference derivative of ``func`` at ``x``, one column per
    coordinate: the gradient of a scalar function, the Jacobian of a vector
    one."""
    columns = []
    for j in range(len(x)):
        up, down = x.copy(), x.copy()
        up[j] += step
        down[j] -= step
        columns.append((func(up) - func(down)) / (2 * step))
    return np.stack(columns, axis=-1)


# ---------------------------------------------------------------------------
# segment algebra as stacked 2x2 matrices, one segment after another

#: einsum of the per-segment conjugation A_n^dag B_n C_n.
_SANDWICH = "...nmi,...nmk,...nkl->...nil"

def _pauli_plane(c: np.ndarray, s: np.ndarray) -> np.ndarray:
    """Stack of ``c*sx + s*sy`` for component arrays c, s of shape (..., N)."""
    out = np.zeros(c.shape + (2, 2), dtype=complex)
    out[..., 0, 1] = c - 1j * s
    out[..., 1, 0] = c + 1j * s
    return out


def _segment_propagators(phases, durations, rate):
    """Per-segment rotations P, their phase derivatives D, and cumulative W
    (``W[..., i, :, :]`` is the product of the first i rotations)."""
    n = phases.shape[-1]
    half = 0.5 * rate * durations
    ca, sa = np.cos(half), np.sin(half)
    cphi, sphi = np.cos(phases), np.sin(phases)
    p = np.zeros(phases.shape + (2, 2), dtype=complex)
    p[..., 0, 0] = ca
    p[..., 1, 1] = ca
    p[..., 0, 1] = -1j * sa * (cphi - 1j * sphi)
    p[..., 1, 0] = -1j * sa * (cphi + 1j * sphi)
    # dP/dphase = -i sin(half) * (quadrature axis . sigma)
    d = np.zeros(phases.shape + (2, 2), dtype=complex)
    d[..., 0, 1] = -1j * sa * (-sphi - 1j * cphi)
    d[..., 1, 0] = -1j * sa * (-sphi + 1j * cphi)
    w = np.empty(phases.shape[:-1] + (n + 1, 2, 2), dtype=complex)
    w[..., 0, :, :] = np.eye(2)
    for i in range(n):
        np.matmul(p[..., i, :, :], w[..., i, :, :], out=w[..., i + 1, :, :])
    return p, d, w


def _segment_terms(kind, phases, durations, starts, rabi, omega, rate, want_grad):
    """Closed-form segment integrals S (and dS/dphase) before conjugation."""
    k, moment = CONSTRAINT_KINDS[kind]
    half = 0.5 * rabi
    cphi, sphi = np.cos(phases), np.sin(phases)
    drive = half * _pauli_plane(cphi, sphi)
    quad = half * _pauli_plane(-sphi, cphi)
    front = np.exp(1j * k * omega * starts)[:, None, None]
    kw = k * omega

    if kind in ("recoil2", "entangle", "trap2"):
        base = _e0(kw, durations)
        if moment:
            base = starts * base + _e1(kw, durations)
        s = front * drive * base[:, None, None]
        ds = front * quad * base[:, None, None] if want_grad else None
        return s, ds

    e0p, e0m = _e0(kw + rate, durations), _e0(kw - rate, durations)
    cos0 = 0.5 * (e0p + e0m)
    sin0 = -0.5j * (e0p - e0m)
    if moment:
        e1p, e1m = _e1(kw + rate, durations), _e1(kw - rate, durations)
        cos0 = starts * cos0 + 0.5 * (e1p + e1m)
        sin0 = starts * sin0 - 0.5j * (e1p - e1m)

    if kind in ("recoil1", "trap1"):
        s = front * (quad * cos0[:, None, None] - half * SIGMA_Z * sin0[:, None, None])
        ds = front * (-drive) * cos0[:, None, None] if want_grad else None
        return s, ds
    s = half * SIGMA_Z * cos0[:, None, None] + quad * sin0[:, None, None]
    ds = (-drive) * sin0[:, None, None] if want_grad else None
    return s, ds


def _tails(terms):
    """Sum of the conjugated segment terms after each segment."""
    return terms.sum(axis=-3)[..., None, :, :] - np.cumsum(terms, axis=-3)


def _duration_derivative(kind, tails, tails0, wpost, qubit_grad, phases, ends, rabi, omega):
    """dV/dtau_i of one integral: the integrand at the segment's end, the
    delay of every later segment (``i k omega`` times the tail, plus the
    moment-0 tail for a trap kind), and the commutator of the tail with
    the later segments' extra rotation K_i = ``qubit_grad[i]``."""
    k, moment = CONSTRAINT_KINDS[kind]
    half = 0.5 * rabi
    cphi, sphi = np.cos(phases), np.sin(phases)
    if kind in ("recoil1", "trap1"):
        h = half * _pauli_plane(-sphi, cphi)
    elif kind == "detune":
        h = np.broadcast_to(half * SIGMA_Z, phases.shape + (2, 2))
    else:
        h = half * _pauli_plane(cphi, sphi)
    edge = np.exp(1j * k * omega * ends) * ends**moment
    dv = np.einsum(_SANDWICH, wpost.conj(), h, wpost) * edge[:, None, None]
    dv += 1j * k * omega * tails
    if moment:
        dv += tails0
    dv += tails @ qubit_grad - qubit_grad @ tails
    return dv


def controls_by_matmul(
    phases, durations, rabi, omega, kappa, kinds, want_grad=False, wrt="phases"
):
    """:func:`~mipulse.toggling.evaluate_controls` by a per-segment ``matmul``
    loop for the prefix products and three-operand ``einsum`` conjugations
    of full 2x2 matrices; same arguments and return tuple."""
    by_phase = want_grad and wrt == "phases"
    by_duration = want_grad and wrt == "durations"
    phases = np.asarray(phases, dtype=float)
    durations = np.asarray(durations, dtype=float)
    ends = np.cumsum(durations)
    starts = np.concatenate(([0.0], ends))[: len(durations)]
    rate = kappa * rabi
    _, d_stack, w = _segment_propagators(phases, durations, rate)
    wpre = w[..., :-1, :, :]
    wpost = w[..., 1:, :, :]

    def conjugated_terms(kind):
        s, ds = _segment_terms(kind, phases, durations, starts, rabi, omega, rate, by_phase)
        return np.einsum(_SANDWICH, wpre.conj(), s, wpre), ds

    values, grads, qubit_grad = {}, {}, None
    if by_phase:
        qubit_grad = np.einsum(_SANDWICH, wpost.conj(), d_stack, wpre)
    elif by_duration:
        # dP_i/dtau_i = -i kappa drive_i P_i, carried to the end of the pulse
        drive = 0.5 * rabi * _pauli_plane(np.cos(phases), np.sin(phases))
        qubit_grad = np.einsum(_SANDWICH, wpost.conj(), -1j * kappa * drive, wpost)
    for name in kinds:
        kind = ALIASES.get(name, name)
        terms, ds = conjugated_terms(kind)
        values[kind] = values[name] = terms.sum(axis=-3)
        if by_phase:
            tails = _tails(terms)
            dv = np.einsum(_SANDWICH, wpre.conj(), ds, wpre)
            dv += np.einsum("...nmi,...nml->...nil", qubit_grad.conj(), tails)
            dv += np.einsum("...nim,...nml->...nil", tails, qubit_grad)
        elif by_duration:
            tails0 = None
            if kind in _MOMENT0:
                tails0 = _tails(conjugated_terms(_MOMENT0[kind])[0])
            dv = _duration_derivative(
                kind, _tails(terms), tails0, wpost, qubit_grad, phases, ends, rabi, omega
            )
        if want_grad:
            grads[kind] = grads[name] = dv
    if want_grad:
        return w[..., -1, :, :], values, qubit_grad, grads
    return w[..., -1, :, :], values
