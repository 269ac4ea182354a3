"""Gradient-based phase-profile optimization for motion-insensitive gates.

A control problem asks for a piecewise-constant phase profile whose
ideal-qubit propagator reaches the target rotation while a chosen set of
toggling-frame integrals vanishes at the final time.  The cost is

    (1 - |Tr(U_tar^dag Uq)|^2 / 4) + sum_c w_c ||V_c(T)||_F^2

with exact adjoint-style gradients from the closed-form segment algebra;
finite differences are kept only as a test oracle.  A quasi-Newton descent
(L-BFGS-B) takes each restart into the convergence basin and a bounded
least-squares polish drives the residuals to machine level.

Problem presets map onto the four control problems this package targets:
``recoil`` (first-harmonic integral only, first-order dynamics),
``recoil2`` (both recoil harmonics), ``disentangle`` (recoil plus the
entangling integral), and ``robust`` (recoil plus detuning and
drive-amplitude deviations).  An infinite frequency ratio drops the recoil
constraints, leaving the classical robust/disentangling problems that
apply deep in the resolved sideband regime.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, replace

import numpy as np

from .bangbang import SolverError, solve_first_order
from .fidelity import GateTarget
from .pulse import PulseProgram
from .toggling import evaluate_controls

__all__ = [
    "ControlProblem",
    "OptimizationResult",
    "OptimizeFailure",
    "PRESETS",
    "control_problem",
    "cost_and_gradient",
    "solve_fixed_duration",
    "min_time_search",
    "composite_reference",
    "COMPOSITE_LIBRARY",
]

#: Constraint sets of the named control problems.
PRESETS = {
    "recoil": ("recoil1",),
    "recoil2": ("recoil1", "recoil2"),
    "disentangle": ("recoil1", "recoil2", "entangle"),
    "robust": ("recoil1", "recoil2", "detune", "rabi"),
}

#: Convergence bound on the target defect and every constraint norm.
CONVERGENCE_TOL = 1e-8

#: Default segment density: segments per pi of pulse area.
SEGMENTS_PER_PI = 40

#: Outer search gives up beyond this multiple of the target angle.
AREA_CEILING_FACTOR = 20.0

#: Most Jacobian columns evaluated together; larger stacks only hold more memory.
_COLUMN_STACK = 16


class OptimizeFailure(RuntimeError):
    """Raised when the minimum-time search exhausts its area ceiling."""


def minimize(*args, **kwargs):
    """``scipy.optimize.minimize``, imported on first call so that commands
    which never optimize do not load scipy."""
    from scipy.optimize import minimize as scipy_minimize

    return scipy_minimize(*args, **kwargs)


def least_squares(*args, **kwargs):
    """``scipy.optimize.least_squares``, imported on first call."""
    from scipy.optimize import least_squares as scipy_least_squares

    return scipy_least_squares(*args, **kwargs)


@dataclass(frozen=True)
class ControlProblem:
    """Target gate plus the set of integrals that must vanish at T.

    ``ratio`` is the trap-to-drive frequency ratio; ``math.inf`` removes
    the recoil constraints from the active set.  ``eta_correction``
    selects the slowed-down qubit propagator used by the second-order
    problems.
    """

    target: GateTarget
    ratio: float
    eta: float = 0.0
    constraints: tuple[str, ...] = ()
    eta_correction: bool = True
    weights: dict = field(default_factory=dict)

    @property
    def kappa(self) -> float:
        return 1 - 0.5 * self.eta**2 if self.eta_correction else 1.0

    def weight(self, name: str) -> float:
        return float(self.weights.get(name, 1.0))


def control_problem(
    preset: str,
    target: GateTarget,
    ratio: float,
    eta: float = 0.0,
    extra_constraints: tuple[str, ...] = (),
) -> ControlProblem:
    """Build a named problem; infinite ratio drops the recoil constraints."""
    if math.isnan(ratio):
        raise ValueError("ratio must not be NaN")
    if preset not in PRESETS:
        raise ValueError(f"unknown preset {preset!r}, expected one of {tuple(PRESETS)}")
    constraints = PRESETS[preset] + tuple(extra_constraints)
    if math.isinf(ratio):
        constraints = tuple(c for c in constraints if c not in ("recoil1", "recoil2"))
    return ControlProblem(
        target=target,
        ratio=ratio,
        eta=eta,
        constraints=constraints,
        eta_correction=(preset != "recoil"),
    )


@dataclass(frozen=True)
class OptimizationResult:
    """Outcome of one fixed-duration solve (or of the outer time search)."""

    pulse: PulseProgram
    cost: float
    constraint_norms: dict
    target_defect: float
    iterations: int
    converged: bool

    @property
    def duration(self) -> float:
        return self.pulse.duration


def _evaluate(phases: np.ndarray, problem: ControlProblem, area: float, grad: bool):
    n = phases.shape[-1]
    durations = np.full(n, area / n)
    omega = problem.ratio if math.isfinite(problem.ratio) else 0.0
    return evaluate_controls(
        phases, durations, 1.0, omega, problem.kappa, problem.constraints, want_grad=grad
    )


def cost_and_gradient(
    phases,
    problem: ControlProblem,
    duration: float,
    rabi: float,
) -> tuple[float, np.ndarray]:
    """Cost and its exact gradient with respect to each segment phase.

    Works in pulse-area units internally (the constraint integrals are
    dimensionless), so only ``rabi * duration`` matters.
    """
    phases = np.asarray(phases, dtype=float)
    if len(phases) < 2:
        raise ValueError("need at least 2 segments")
    if duration <= 0:
        raise ValueError(f"duration must be > 0, got {duration}")
    area = rabi * duration
    u_qubit, values, qubit_grad, grads = _evaluate(phases, problem, area, grad=True)
    u_tar = problem.target.unitary
    overlap = np.trace(u_tar.conj().T @ u_qubit) / 2
    cost = 1 - abs(overlap) ** 2
    aligned = u_tar.conj().T @ u_qubit
    gradient = -np.real(np.conj(overlap) * np.einsum("ij,nji->n", aligned, qubit_grad))
    for name in problem.constraints:
        weight = problem.weight(name)
        value = values[name]
        cost += weight * float(np.sum(np.abs(value) ** 2))
        gradient += weight * 2 * np.real(
            np.einsum("ij,nij->n", value.conj(), grads[name])
        )
    return float(cost), gradient


def _metrics(phases: np.ndarray, problem: ControlProblem, area: float):
    u_qubit, values = _evaluate(phases, problem, area, grad=False)
    overlap = np.trace(problem.target.unitary.conj().T @ u_qubit) / 2
    defect = 1 - abs(overlap) ** 2
    norms = {
        name: float(np.linalg.norm(values[name])) for name in problem.constraints
    }
    return float(defect), norms


def _residual_vector(phases: np.ndarray, problem: ControlProblem, area: float):
    """Phase-aligned residuals for the least-squares polish (leading axes of
    ``phases`` stack profiles, as in :func:`evaluate_controls`)."""
    u_tar = problem.target.unitary
    u_qubit, values = _evaluate(phases, problem, area, grad=False)
    overlap = np.trace(u_tar.conj().T @ u_qubit, axis1=-2, axis2=-1) / 2
    size = np.abs(overlap)
    alignment = np.where(size > 1e-9, overlap / np.maximum(size, 1e-9), 1.0)
    parts = [u_qubit - alignment[..., None, None] * u_tar]
    parts += [math.sqrt(problem.weight(name)) * values[name] for name in problem.constraints]
    flat = phases.shape[:-1] + (-1,)
    stacked = np.concatenate([part.reshape(flat) for part in parts], axis=-1)
    return np.concatenate([stacked.real, stacked.imag], axis=-1)


def _residual_columns(problem: ControlProblem, area: float):
    """Map-like ``workers`` for the polish's finite-difference Jacobian: the
    perturbed profiles go through :func:`_residual_vector` in stacks, so the
    segment product runs once per stack, not once per column.  The function
    scipy passes is that same residual, so it is not called."""
    def columns(_fun, profiles):
        profiles = np.array(list(profiles))
        stacks = np.array_split(profiles, -(-len(profiles) // _COLUMN_STACK))
        return [row for stack in stacks for row in _residual_vector(stack, problem, area)]

    return columns


def _is_converged(defect: float, norms: dict) -> bool:
    return defect < CONVERGENCE_TOL and all(
        v < CONVERGENCE_TOL for v in norms.values()
    )


def _attempt(
    x0: np.ndarray,
    problem: ControlProblem,
    area: float,
    maxiter: int,
) -> tuple[np.ndarray, int]:
    """Quasi-Newton descent, least-squares polish, adaptive reweighting.

    A constraint stalling above the convergence bound while the rest of
    the problem is solved gets its weight raised tenfold (at most twice)
    before re-descending from the current profile.
    """
    x, iterations = np.asarray(x0, dtype=float), 0
    weights = dict(problem.weights)
    for _ in range(3):
        weighted = replace(problem, weights=weights)
        fit = minimize(
            lambda p: cost_and_gradient(p, weighted, area, 1.0),
            x,
            jac=True,
            method="L-BFGS-B",
            options={"maxiter": maxiter, "maxcor": 30, "ftol": 1e-18, "gtol": 1e-12},
        )
        x, iterations = fit.x, iterations + fit.nit
        if cost_and_gradient(x, weighted, area, 1.0)[0] < 1e-6:
            polish = least_squares(
                lambda p: _residual_vector(p, weighted, area),
                x,
                method="trf",
                xtol=1e-15,
                ftol=1e-15,
                gtol=1e-15,
                max_nfev=60 * (len(x) + 1),
                workers=_residual_columns(weighted, area),
            )
            if np.linalg.norm(polish.fun) < np.linalg.norm(
                _residual_vector(x, weighted, area)
            ):
                x = polish.x
                iterations += polish.nfev
        defect, norms = _metrics(x, problem, area)
        if _is_converged(defect, norms):
            break
        stalled = [k for k, v in norms.items() if v >= CONVERGENCE_TOL]
        rest_solved = defect < CONVERGENCE_TOL and any(
            v < CONVERGENCE_TOL for v in norms.values()
        )
        if not stalled or not rest_solved:
            break
        for name in stalled:
            weights[name] = weights.get(name, 1.0) * 10.0
    return x, iterations


def _bang_seed(problem: ControlProblem, n: int) -> np.ndarray:
    """Paint the first-order bang-bang solution onto a uniform grid."""
    phases = np.zeros(n)
    if not math.isfinite(problem.ratio):
        return phases
    try:
        solution = solve_first_order(problem.ratio, problem.target.theta)
    except (SolverError, ValueError):
        return phases
    half = solution.angles.angles
    segs = np.array(half + half[-2::-1], dtype=float)
    seg_phase = np.array([0.0 if k % 2 == 0 else math.pi for k in range(len(segs))])
    edges = np.concatenate(([0.0], np.cumsum(segs))) / segs.sum()
    centers = (np.arange(n) + 0.5) / n
    idx = np.searchsorted(edges, centers, side="right") - 1
    phases = seg_phase[np.clip(idx, 0, len(segs) - 1)]
    return phases + problem.target.axis_angle


def _result_from(
    phases: np.ndarray,
    problem: ControlProblem,
    duration: float,
    rabi: float,
    iterations: int,
    label: str,
) -> OptimizationResult:
    area = rabi * duration
    cost = cost_and_gradient(phases, problem, duration, rabi)[0]
    defect, norms = _metrics(phases, problem, area)
    n = len(phases)
    pulse = PulseProgram(
        rabi=rabi,
        segments=tuple((duration / n, float(p)) for p in phases),
        label=label,
    )
    return OptimizationResult(
        pulse=pulse,
        cost=cost,
        constraint_norms=norms,
        target_defect=defect,
        iterations=iterations,
        converged=_is_converged(defect, norms),
    )


def default_segments(area: float, density: float = SEGMENTS_PER_PI) -> int:
    return max(2, math.ceil(density * area / math.pi))


def solve_fixed_duration(
    problem: ControlProblem,
    duration: float,
    rabi: float,
    n_segments: int | None = None,
    restarts: int = 8,
    seed: int = 0,
    maxiter: int = 1500,
    extra_seeds: tuple = (),
    label: str = "optimized",
) -> OptimizationResult:
    """Best result over the restart schedule at a fixed pulse duration.

    The schedule is ``restarts`` random phase profiles plus one bang-bang
    seed (plus any caller-provided warm starts, tried first).  Restarts
    stop early once one of them converges; non-convergence is a valid,
    flagged outcome.
    """
    area = rabi * duration
    n = n_segments or default_segments(area)
    rng = np.random.default_rng(seed)
    starts = [np.asarray(s, dtype=float) for s in extra_seeds]
    starts.append(_bang_seed(problem, n))
    starts += [rng.uniform(-math.pi, math.pi, n) for _ in range(restarts)]

    best: tuple[float, np.ndarray, int] | None = None
    total_iterations = 0
    for x0 in starts:
        if len(x0) != n:
            continue
        x, iterations = _attempt(x0, problem, area, maxiter)
        total_iterations += iterations
        cost = cost_and_gradient(x, problem, area, 1.0)[0]
        if best is None or cost < best[0]:
            best = (cost, x, total_iterations)
        defect, norms = _metrics(x, problem, area)
        if _is_converged(defect, norms):
            break
    assert best is not None
    return _result_from(best[1], problem, duration, rabi, best[2], label)


def _rescale_seed(phases: np.ndarray, n: int) -> np.ndarray:
    idx = np.minimum((np.arange(n) * len(phases)) // n, len(phases) - 1)
    return phases[idx]


def min_time_search(
    problem: ControlProblem,
    rabi: float,
    density: float = 2 * SEGMENTS_PER_PI,
    seed: int = 0,
    restarts: int = 8,
    maxiter: int = 1500,
    label: str = "optimized",
) -> OptimizationResult:
    """Shortest converging duration, refined by bisection to 0.1% relative.

    Durations are scanned upward from the ideal-rotation speed limit on a
    geometric grid until a fixed-duration solve converges.  The coarse
    scan runs at half the segment density (cheap and conservative); the
    feasibility boundary is then re-verified and bisected at the full
    density, warm-starting each trial from the best converged profile.
    The default density of 80 segments per pi keeps the uniform grid's
    feasibility gap near the speed limit below 0.1% (switch points of
    bang-bang optima fall between grid cells, which costs duration at low
    density).  Exhausting the ceiling (20 target angles of area) raises
    :class:`OptimizeFailure` with the best cost per duration.
    """
    area_min = problem.target.theta / problem.kappa
    ceiling = AREA_CEILING_FACTOR * problem.target.theta
    diagnostics: list[tuple[float, float]] = []

    def try_area(area: float, dens: float, warm: tuple = ()) -> OptimizationResult:
        result = solve_fixed_duration(
            problem,
            area / rabi,
            rabi,
            n_segments=default_segments(area, dens),
            restarts=restarts,
            seed=seed,
            maxiter=maxiter,
            extra_seeds=warm,
            label=label,
        )
        diagnostics.append((area, result.cost))
        return result

    def warm_from(result: OptimizationResult, area: float) -> tuple:
        return (
            _rescale_seed(
                np.array(result.pulse.phases), default_segments(area, density)
            ),
        )

    # coarse upward scan for an upper bracket
    area = area_min
    coarse: OptimizationResult | None = None
    area_lo = None
    while area <= ceiling:
        result = try_area(area, density / 2)
        if result.converged:
            coarse = result
            break
        area_lo = area
        area *= 1.25
    if coarse is None:
        raise OptimizeFailure(
            "no converging duration up to the search ceiling; "
            + ", ".join(f"area={a / math.pi:.3f}pi cost={c:.2e}" for a, c in diagnostics)
        )

    area_hi = area
    converged = try_area(area_hi, density, warm_from(coarse, area_hi))
    if not converged.converged:
        converged = coarse  # full density should not be harder; keep the proof
    if area_lo is None:
        return converged  # feasible already at the speed limit

    # the coarse grid is conservative: re-verify the lower bracket at full
    # density, extending downward while it remains feasible
    while area_lo > area_min * (1 + 1e-12):
        result = try_area(area_lo, density, warm_from(converged, area_lo))
        if not result.converged:
            break
        converged, area_hi = result, area_lo
        area_lo = max(area_min, area_lo / 1.25)
    else:
        result = try_area(area_min, density, warm_from(converged, area_min))
        if result.converged:
            return result

    while (area_hi - area_lo) > 1e-3 * area_hi:
        mid = 0.5 * (area_lo + area_hi)
        result = try_area(mid, density, warm_from(converged, mid))
        if result.converged:
            converged, area_hi = result, mid
        else:
            area_lo = mid
    return converged


#: Published composite sequences usable as robustness references.  Each
#: entry lists the subpulse phases in degrees; every subpulse is a full
#: flip at the compensated drive rate.
COMPOSITE_LIBRARY = {
    "jones-5a": (240.0, 210.0, 300.0, 210.0, 240.0),
}


def composite_reference(name: str, rabi: float, eta: float) -> PulseProgram:
    """A library composite sequence as a pulse program.

    Subpulses are driven at the raised rate ``rabi / (1 - eta^2/2)`` so
    that each full flip lasts exactly ``pi / rabi`` despite the
    second-order slowdown of the qubit drive.
    """
    if name not in COMPOSITE_LIBRARY:
        raise ValueError(
            f"unknown composite {name!r}, expected one of {tuple(COMPOSITE_LIBRARY)}"
        )
    kappa = 1 - 0.5 * eta**2
    drive = rabi / kappa
    subpulse = math.pi / rabi
    segments = tuple(
        (subpulse, math.radians(phase_deg)) for phase_deg in COMPOSITE_LIBRARY[name]
    )
    return PulseProgram(rabi=drive, segments=segments, label=f"composite {name}")
