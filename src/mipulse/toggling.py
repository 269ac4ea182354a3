"""Toggling-frame constraint integrals, evaluated in closed form per segment.

Every control objective of this package is an integral of the form

    V = int_0^T  Uq(t)^dag h(t) Uq(t) e^{i k w t} [t] dt

where ``Uq`` is the ideal-qubit propagator, ``h`` is one of the in-plane
drive operators (or ``(rabi/2) sz`` for the detuning integral), ``k`` is a
harmonic index in {0, 1, 2}, and an optional factor ``t`` appears in the
trap-robustness variants.  Over one segment of constant phase the
conjugated operator is a trigonometric polynomial in time, so each segment
contributes an analytic primitive: there is no quadrature error anywhere,
which is what makes residual targets of 1e-10 affordable.

The same machinery returns the exact derivative of every integral with
respect to each segment phase (the per-segment rotation is an explicit
function of its phase), which the optimizer uses as an adjoint-style
gradient, or with respect to each segment duration, which gives the
bang-bang solvers their exact Jacobians.

Averaged-propagator predictions assembled from these integrals are valid
when the integrated interaction stays small; callers can compare
:func:`interaction_scale` against :data:`VALIDITY_BOUND` (reported, not
asserted, since the regime boundary is soft).
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .model import SystemParams
from .operators import SIGMA_Z, expm_hermitian, tensor
from .pulse import PulseProgram

__all__ = [
    "ToggleIntegrals",
    "toggle_integrals",
    "effective_propagator",
    "robust_qubit_predict",
    "interaction_scale",
    "evaluate_controls",
    "VALIDITY_BOUND",
    "MIN_RATIO",
    "CONSTRAINT_KINDS",
]

#: Harmonic index and time-moment of each supported constraint integral.
CONSTRAINT_KINDS = {
    "recoil1": (1, 0),
    "recoil2": (2, 0),
    "entangle": (0, 0),
    "detune": (0, 0),
    "trap1": (1, 1),
    "trap2": (2, 1),
}

#: ``rabi`` deviations integrate the same operator as ``entangle``.
ALIASES = {"rabi": "entangle"}

#: Moment-0 kind with the same operator and harmonic as each trap kind.
_MOMENT0 = {"trap1": "recoil1", "trap2": "recoil2"}

#: Softly flagged bound on the integrated-interaction scale.
VALIDITY_BOUND = math.pi / 3

#: Closed-form reductions divide by 1 - ratio^2; below this the averaging
#: treatment is invalid anyway (strong motional excitation).
MIN_RATIO = 1.5

#: einsum of the per-segment conjugation A_n^dag B_n C_n.
_SANDWICH = "...nmi,...nmk,...nkl->...nil"


# ---------------------------------------------------------------------------
# elementary segment primitives

def _e0(mu: float, tau: np.ndarray) -> np.ndarray:
    """int_0^tau e^{i mu s} ds, stable for mu*tau -> 0."""
    x = mu * tau
    return tau * np.exp(0.5j * x) * np.sinc(x / (2 * math.pi))


def _e1(mu: float, tau: np.ndarray) -> np.ndarray:
    """int_0^tau s e^{i mu s} ds, series branch below |mu tau| = 1e-3."""
    tau = np.asarray(tau, dtype=float)
    x = mu * tau
    small = np.abs(x) < 1e-3
    ix = 1j * np.where(small, x, 0.0)
    series = tau**2 * (0.5 + ix / 3 + ix**2 / 8 + ix**3 / 30 + ix**4 / 144)
    mu_safe = mu if mu != 0 else 1.0
    with np.errstate(invalid="ignore"):
        general = (tau * np.exp(1j * x) - _e0(mu, tau)) / (1j * mu_safe)
    return np.where(small, series, general)


def _pauli_plane(c: np.ndarray, s: np.ndarray) -> np.ndarray:
    """Stack of ``c*sx + s*sy`` for component arrays c, s of shape (..., N)."""
    out = np.zeros(c.shape + (2, 2), dtype=complex)
    out[..., 0, 1] = c - 1j * s
    out[..., 1, 0] = c + 1j * s
    return out


def _segment_propagators(
    phases: np.ndarray, durations: np.ndarray, rate: float
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Per-segment rotations P, their phase derivatives D, and cumulative W.

    ``W[..., i, :, :]`` is the product of the first i rotations (identity at
    i = 0), so ``W[..., -1, :, :]`` is the full ideal-qubit propagator.
    """
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


def _segment_terms(
    kind: str,
    phases: np.ndarray,
    durations: np.ndarray,
    starts: np.ndarray,
    rabi: float,
    omega: float,
    rate: float,
    want_grad: bool,
) -> tuple[np.ndarray, np.ndarray | None]:
    """Closed-form segment integrals S (and dS/dphase) before conjugation.

    Within a segment the conjugated operator decomposes onto the drive
    axis, its quadrature, and sz, with coefficients 1, cos(rate*s) and
    sin(rate*s); multiplying by e^{i k omega s} leaves sums of complex
    exponentials whose primitives are ``_e0``/``_e1``.
    """
    k, moment = CONSTRAINT_KINDS[kind]
    half = 0.5 * rabi
    cphi, sphi = np.cos(phases), np.sin(phases)
    drive = half * _pauli_plane(cphi, sphi)
    quad = half * _pauli_plane(-sphi, cphi)
    front = np.exp(1j * k * omega * starts)[:, None, None]
    kw = k * omega

    if kind in ("recoil2", "entangle", "trap2"):
        # integrand commutes with the segment rotation: a single primitive
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
    if kind == "detune":
        s = half * SIGMA_Z * cos0[:, None, None] + quad * sin0[:, None, None]
        ds = (-drive) * sin0[:, None, None] if want_grad else None
        return s, ds
    raise ValueError(f"unknown constraint kind {kind!r}")


def _tails(terms: np.ndarray) -> np.ndarray:
    """Sum of the conjugated segment terms after each segment."""
    return terms.sum(axis=-3)[..., None, :, :] - np.cumsum(terms, axis=-3)


def _duration_derivative(
    kind: str,
    tails: np.ndarray,
    tails0: np.ndarray | None,
    wpost: np.ndarray,
    qubit_grad: np.ndarray,
    phases: np.ndarray,
    ends: np.ndarray,
    rabi: float,
    omega: float,
) -> np.ndarray:
    """dV/dtau_i of one integral from the tails after each segment.

    Lengthening segment i adds the integrand at its end time t_{i+1}; it
    delays every later segment, which multiplies the tail by ``i k omega``
    (and, for a trap kind, adds the tail of its moment-0 partner); and it
    rotates every later segment by K_i = ``qubit_grad[i]``, which adds the
    commutator ``tail K_i - K_i tail``.
    """
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


def evaluate_controls(
    phases,
    durations,
    rabi: float,
    omega: float,
    kappa: float,
    kinds: tuple[str, ...],
    want_grad: bool = False,
    wrt: str = "phases",
):
    """Qubit propagator and constraint integrals of a segmented pulse.

    Returns ``(u_qubit, values)`` or, with ``want_grad``,
    ``(u_qubit, values, qubit_grad, grads)``.  ``wrt`` names the segment
    variable x_i the derivatives are taken in: ``"phases"`` or
    ``"durations"``.  ``qubit_grad[i]`` is the right-logarithmic derivative
    G_i (so dUq/dx_i = Uq @ G_i) and ``grads[kind][i]`` is the exact
    derivative of the integral.  The harmonic frequency ``omega`` may be
    arbitrary (even 0) when no finite-ratio kind is requested.

    Leading axes of ``phases`` stack profiles that share ``durations``; each
    profile's results are bit-identical to evaluating it alone.
    """
    if wrt not in ("phases", "durations"):
        raise ValueError(f"wrt must be 'phases' or 'durations', got {wrt!r}")
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
    u_qubit = w[..., -1, :, :]

    def conjugated_terms(kind):
        s, ds = _segment_terms(
            kind, phases, durations, starts, rabi, omega, rate, by_phase
        )
        return np.einsum(_SANDWICH, wpre.conj(), s, wpre), ds

    values: dict[str, np.ndarray] = {}
    grads: dict[str, np.ndarray] = {}
    qubit_grad = None
    if by_phase:
        qubit_grad = np.einsum(_SANDWICH, wpost.conj(), d_stack, wpre)
    elif by_duration:
        # dP_i/dtau_i = -i kappa drive_i P_i, carried to the end of the pulse
        drive = 0.5 * rabi * _pauli_plane(np.cos(phases), np.sin(phases))
        qubit_grad = np.einsum(_SANDWICH, wpost.conj(), -1j * kappa * drive, wpost)

    for name in kinds:
        kind = ALIASES.get(name, name)
        if kind in values:
            values[name] = values[kind]
            if want_grad:
                grads[name] = grads[kind]
            continue
        terms, ds = conjugated_terms(kind)
        total = terms.sum(axis=-3)
        values[kind] = total
        values[name] = total
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
            grads[kind] = dv
            grads[name] = dv
    if want_grad:
        return u_qubit, values, qubit_grad, grads
    return u_qubit, values


# ---------------------------------------------------------------------------
# public integral record

@dataclass(frozen=True)
class ToggleIntegrals:
    """Constraint operators of a pulse at the final time.

    ``rabi_dev`` is entrywise identical to ``entangle`` (the two
    deviations integrate the same conjugated drive), which is why a pulse
    robust to drive-amplitude errors also suppresses thermal
    entanglement.  Fields are ``None`` when a route does not provide them.
    """

    u_qubit: np.ndarray
    recoil1: np.ndarray | None = None
    recoil2: np.ndarray | None = None
    entangle: np.ndarray | None = None
    detune: np.ndarray | None = None
    rabi_dev: np.ndarray | None = None
    trap1: np.ndarray | None = None
    trap2: np.ndarray | None = None
    ratio: float | None = None
    eta_corrected: bool = False
    pulse: PulseProgram | None = None


def toggle_integrals(
    pulse: PulseProgram,
    params: SystemParams,
    eta_correction: bool = False,
) -> ToggleIntegrals:
    """Evaluate all constraint integrals of ``pulse`` exactly.

    With ``eta_correction`` the ideal-qubit propagator runs at the
    slowed-down rate ``rabi (1 - eta^2/2)``; the integrand operators are
    unscaled either way.
    """
    kappa = 1 - 0.5 * params.eta**2 if eta_correction else 1.0
    kinds = tuple(CONSTRAINT_KINDS)
    u_qubit, values = evaluate_controls(
        pulse.phases, pulse.durations, pulse.rabi, params.omega, kappa, kinds
    )
    return ToggleIntegrals(
        u_qubit=u_qubit,
        recoil1=values["recoil1"],
        recoil2=values["recoil2"],
        entangle=values["entangle"],
        detune=values["detune"],
        rabi_dev=values["entangle"],
        trap1=values["trap1"],
        trap2=values["trap2"],
        ratio=params.ratio,
        eta_corrected=eta_correction,
        pulse=pulse,
    )


# ---------------------------------------------------------------------------
# averaged-propagator predictions

def _free_rotation(params: SystemParams, duration: float) -> np.ndarray:
    levels = np.arange(params.truncation + 1)
    return np.kron(np.eye(2), np.diag(np.exp(-1j * params.omega * levels * duration)))


def _assemble_exponent(
    params: SystemParams, integrals: ToggleIntegrals, order: str
) -> np.ndarray:
    fock = params.fock()
    eta = params.eta
    exponent = eta * (
        tensor(integrals.recoil1, fock.raise_)
        + tensor(integrals.recoil1.conj().T, fock.lower)
    )
    if order == "second":
        raise2, lower2 = fock.raise_ @ fock.raise_, fock.lower @ fock.lower
        exponent -= 0.5 * eta**2 * (
            tensor(integrals.recoil2, raise2)
            + tensor(integrals.recoil2.conj().T, lower2)
        )
        exponent -= eta**2 * tensor(integrals.entangle, fock.number)
    return exponent


def effective_propagator(
    pulse: PulseProgram, params: SystemParams, order: str = "first"
) -> np.ndarray:
    """Averaged prediction of the full-space propagator at time T.

    ``order="first"`` uses the uncorrected qubit propagator and the
    first-harmonic recoil integral (accurate to o(eta^2) against the
    first-order model); ``order="second"`` adds the two-quantum and
    occupation terms with the slowed-down qubit propagator (o(eta^3)
    against the second-order model).
    """
    if order not in ("first", "second"):
        raise ValueError(f"order must be 'first' or 'second', got {order!r}")
    integrals = toggle_integrals(pulse, params, eta_correction=(order == "second"))
    exponent = _assemble_exponent(params, integrals, order)
    dim_m = params.truncation + 1
    return (
        tensor(integrals.u_qubit, np.eye(dim_m))
        @ _free_rotation(params, pulse.duration)
        @ expm_hermitian(exponent)
    )


def interaction_scale(pulse: PulseProgram, params: SystemParams, order: str = "first") -> float:
    """Spectral norm of the integrated interaction behind the prediction.

    Values above :data:`VALIDITY_BOUND` (pi/3) indicate the averaging is
    leaving its validity regime; the scale is reported rather than
    asserted because the boundary is soft.
    """
    integrals = toggle_integrals(pulse, params, eta_correction=(order == "second"))
    exponent = _assemble_exponent(params, integrals, order)
    return float(np.linalg.norm(exponent, 2))


def robust_qubit_predict(
    pulse: PulseProgram,
    ddelta: float,
    domega: float,
    eta: float = 0.0,
    eta_correction: bool = True,
) -> np.ndarray:
    """First-order prediction of the qubit gate under static laser offsets.

    ``Uq_perturbed = Uq exp(-i (ddelta/rabi) V_det) exp(-i (domega/rabi) V_rab)``,
    accurate to second order in the relative offsets.  Offsets beyond 30%
    of the Rabi frequency are outside the perturbative regime and are
    rejected.
    """
    rel_det, rel_rab = ddelta / pulse.rabi, domega / pulse.rabi
    if abs(rel_det) > 0.3 or abs(rel_rab) > 0.3:
        raise ValueError(
            f"offsets ({rel_det:.3f}, {rel_rab:.3f}) of the Rabi frequency exceed "
            "the 0.3 perturbative-validity gate"
        )
    kappa = 1 - 0.5 * eta**2 if eta_correction else 1.0
    u_qubit, values = evaluate_controls(
        pulse.phases, pulse.durations, pulse.rabi, 0.0, kappa, ("detune", "rabi")
    )
    return (
        u_qubit
        @ expm_hermitian(values["detune"], t=rel_det)
        @ expm_hermitian(values["rabi"], t=rel_rab)
    )
