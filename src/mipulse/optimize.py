"""Gradient-based phase-profile optimization for motion-insensitive gates.

A control problem asks for a piecewise-constant phase profile whose
ideal-qubit propagator reaches the target rotation while a chosen set of
toggling-frame integrals vanishes at the final time.  The cost is

    (1 - |Tr(U_tar^dag Uq)|^2 / 4) + sum_c ||V_c(T)||_F^2

with exact gradients from the closed-form segment algebra; finite
differences are kept only as a test oracle.  Each restart is one
quasi-Newton descent (L-BFGS-B) into the convergence basin and one
least-squares polish that drives the residuals to machine level.  The
polish works on the minimal residual rows ``r`` of :func:`_rows` (three
for the target, three or six per integral), with the exact Jacobian from
the same phase gradient.  The minimum-time search treats the duration as
one more variable: after a coarse scan it solves ``min A s.t.
r(phi, A) = 0`` by SLSQP on the same rows, with exact Jacobians in the
phases and the pulse area A.

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
from dataclasses import dataclass

import numpy as np

from .fidelity import GateTarget
from .pulse import PulseProgram
from .toggling import ALIASES, CONSTRAINT_KINDS, evaluate_controls

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

#: Iteration cap and objective tolerance of the free-time SLSQP solve.
SQP_MAXITER = 1000
SQP_FTOL = 1e-12

#: L-BFGS iteration cap of one fixed-duration attempt.
DESCENT_MAXITER = 1500

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

    @property
    def kappa(self) -> float:
        return 1 - 0.5 * self.eta**2 if self.eta_correction else 1.0


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
    if not 0 <= eta < 1:
        raise ValueError(f"eta must be in [0, 1), got {eta}")
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


def _evaluate(
    phases: np.ndarray, problem: ControlProblem, area: float, grad: bool, wrt: str = "phases"
):
    n = phases.shape[-1]
    durations = np.full(n, area / n)
    omega = problem.ratio if math.isfinite(problem.ratio) else 0.0
    return evaluate_controls(
        phases, durations, 1.0, omega, problem.kappa, problem.constraints,
        want_grad=grad, wrt=wrt,
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
    aligned = problem.target.unitary.conj().T @ u_qubit
    overlap = np.trace(aligned) / 2
    cost = 1 - abs(overlap) ** 2
    gradient = -np.real(np.conj(overlap) * np.einsum("ij,nji->n", aligned, qubit_grad))
    for name in problem.constraints:
        value = values[name]
        cost += float(np.sum(np.abs(value) ** 2))
        gradient += 2 * np.real(np.einsum("ij,nij->n", value.conj(), grads[name]))
    return float(cost), gradient


def _score(phases: np.ndarray, problem: ControlProblem, area: float):
    """Cost, target defect and constraint norms from one evaluation.

    The cost adds the same terms in the same order as
    :func:`cost_and_gradient`, so the two agree bit for bit.
    """
    u_qubit, values = _evaluate(phases, problem, area, grad=False)
    overlap = np.trace(problem.target.unitary.conj().T @ u_qubit) / 2
    defect = 1 - abs(overlap) ** 2
    cost = defect
    for name in problem.constraints:
        cost += float(np.sum(np.abs(values[name]) ** 2))
    norms = {
        name: float(np.linalg.norm(values[name])) for name in problem.constraints
    }
    return float(cost), float(defect), norms


def _pauli_rows(v: np.ndarray, hermitian: bool) -> np.ndarray:
    """Real Pauli components (x, y, z) of a stack of traceless ``v`` (shape
    (k, 2, 2)), one row each: three for Hermitian operators, else the three
    real parts, then the three imaginary parts."""
    v01, v10 = v[..., 0, 1], v[..., 1, 0]
    parts = np.array([0.5 * (v01 + v10), -0.5j * (v10 - v01), v[..., 0, 0]])
    return parts.real if hermitian else np.concatenate([parts.real, parts.imag])


def _rows(m: np.ndarray, stacks: dict, problem: ControlProblem) -> np.ndarray:
    """The minimal residual rows, one column per entry of the stacks.

    ``m`` stacks ``M = U_tar^dag Uq`` (or its derivatives) and ``stacks``
    the integrals (or theirs) per kind, each of shape (k, 2, 2).  The first
    three rows are ``(Re M10, Im M10, Im M00)``, which all vanish exactly
    when Uq is the target up to a global sign; then one block of Pauli
    components per distinct integral (after ``toggling.ALIASES``), three
    for a Hermitian one and six for a complex one.
    """
    blocks = [np.array([m[:, 1, 0].real, m[:, 1, 0].imag, m[:, 0, 0].imag])]
    for kind in dict.fromkeys(ALIASES.get(c, c) for c in problem.constraints):
        blocks.append(_pauli_rows(stacks[kind], hermitian=CONSTRAINT_KINDS[kind][0] == 0))
    return np.concatenate(blocks)


def _polish_residual(phases: np.ndarray, problem: ControlProblem, area: float):
    """:func:`_rows` of the profile at a fixed area, from one value evaluation."""
    u_qubit, values = _evaluate(phases, problem, area, grad=False)
    aligned = problem.target.unitary.conj().T @ u_qubit
    return _rows(aligned[None], {k: v[None] for k, v in values.items()}, problem)[:, 0]


def _polish_jacobian(phases: np.ndarray, problem: ControlProblem, area: float):
    """Exact phase Jacobian of :func:`_polish_residual`, from one gradient
    evaluation: ``dUq/dphi_i = Uq G_i``."""
    u_qubit, _, qubit_grad, grads = _evaluate(phases, problem, area, grad=True)
    aligned = problem.target.unitary.conj().T @ u_qubit
    return _rows(aligned @ qubit_grad, grads, problem)


def _free_time_system(x: np.ndarray, problem: ControlProblem):
    """Residual ``r(phi, A)`` of the free-time problem and its exact Jacobian.

    ``x`` holds the n phases, then the area A; the rows are :func:`_rows`.
    The Jacobian's columns are the phases, from the phase gradient, then
    A, from the duration gradient summed over the n equal segments and
    divided by n.
    """
    phases, area = x[:-1], x[-1]
    u_qubit, values, qubit_grad, grads = _evaluate(phases, problem, area, grad=True)
    _, _, qubit_rate, rates = _evaluate(phases, problem, area, grad=True, wrt="durations")
    aligned = problem.target.unitary.conj().T @ u_qubit
    # each stack holds a value, its n phase derivatives, then its area derivative
    m = np.concatenate([[aligned], aligned @ qubit_grad, [aligned @ qubit_rate.mean(axis=0)]])
    stacks = {
        kind: np.concatenate([[values[kind]], grads[kind], [rates[kind].mean(axis=0)]])
        for kind in grads
    }
    rows = _rows(m, stacks, problem)
    return rows[:, 0], rows[:, 1:]


def _is_converged(defect: float, norms: dict) -> bool:
    return defect < CONVERGENCE_TOL and all(
        v < CONVERGENCE_TOL for v in norms.values()
    )


def _attempt(
    x0: np.ndarray,
    problem: ControlProblem,
    area: float,
    maxiter: int,
) -> tuple[np.ndarray, int, tuple[float, float, dict]]:
    """One quasi-Newton descent, then one least-squares polish.

    The polish solves :func:`_polish_residual` = 0 at the fixed area: the
    free-time solve's rows without the area column.  It runs when the
    cost at the descent's end is below 1e-6 and is kept only if it lowers
    the residual norm.  That cost is evaluated afresh rather than read
    from the descent's report, which can differ from it in the last
    digits.  Returns the profile, the iterations spent and the profile's
    :func:`_score`.
    """
    fit = minimize(
        lambda p: cost_and_gradient(p, problem, area, 1.0),
        np.asarray(x0, dtype=float),
        jac=True,
        method="L-BFGS-B",
        options={"maxiter": maxiter, "maxcor": 30, "ftol": 1e-18, "gtol": 1e-12},
    )
    x, iterations = fit.x, fit.nit
    score = _score(x, problem, area)
    if score[0] < 1e-6:
        polish = least_squares(
            lambda p: _polish_residual(p, problem, area),
            x,
            jac=lambda p: _polish_jacobian(p, problem, area),
            method="trf",
            xtol=1e-15,
            ftol=1e-15,
            gtol=1e-15,
            max_nfev=60 * (len(x) + 1),
        )
        if np.linalg.norm(polish.fun) < np.linalg.norm(_polish_residual(x, problem, area)):
            x, iterations = polish.x, iterations + polish.nfev
            score = _score(x, problem, area)
    return x, iterations, score


def default_segments(area: float, density: float = SEGMENTS_PER_PI) -> int:
    return max(2, math.ceil(density * area / math.pi))


def solve_fixed_duration(
    problem: ControlProblem,
    duration: float,
    rabi: float,
    n_segments: int | None = None,
    restarts: int = 8,
    seed: int = 0,
    maxiter: int = DESCENT_MAXITER,
    extra_seeds: tuple = (),
    label: str = "optimized",
) -> OptimizationResult:
    """Best result over the restart schedule at a fixed pulse duration.

    The schedule is the warm starts (``extra_seeds``), then ``restarts``
    random profiles.  Restarts stop early once one of them converges;
    non-convergence is a valid, flagged outcome.
    """
    if not (math.isfinite(rabi) and rabi > 0):
        raise ValueError(f"rabi must be positive and finite, got {rabi}")
    if not (math.isfinite(duration) and duration > 0):
        raise ValueError(f"duration must be positive and finite, got {duration}")
    if restarts < 1:
        raise ValueError(f"restarts must be >= 1, got {restarts}")
    area = rabi * duration
    n = n_segments or default_segments(area)
    rng = np.random.default_rng(seed)
    starts = [np.asarray(s, dtype=float) for s in extra_seeds]
    starts += [rng.uniform(-math.pi, math.pi, n) for _ in range(restarts)]

    best = None
    total_iterations = 0
    for x0 in starts:
        if len(x0) != n:
            continue
        x, iterations, (cost, defect, norms) = _attempt(x0, problem, area, maxiter)
        total_iterations += iterations
        if best is None or cost < best[0]:
            best = (cost, defect, norms, x, total_iterations)
        if _is_converged(defect, norms):
            break
    assert best is not None
    cost, defect, norms, phases, iterations = best
    return _result(phases, (cost, defect, norms), iterations, duration, rabi, label)


def _result(phases, score, iterations, duration, rabi, label) -> OptimizationResult:
    cost, defect, norms = score
    return OptimizationResult(
        pulse=PulseProgram(
            rabi=rabi,
            segments=tuple((duration / len(phases), float(p)) for p in phases),
            label=label,
        ),
        cost=cost,
        constraint_norms=norms,
        target_defect=defect,
        iterations=iterations,
        converged=_is_converged(defect, norms),
    )


def _rescale_seed(phases: np.ndarray, n: int) -> np.ndarray:
    idx = np.minimum((np.arange(n) * len(phases)) // n, len(phases) - 1)
    return phases[idx]


def min_time_search(
    problem: ControlProblem,
    rabi: float,
    seed: int = 0,
    restarts: int = 8,
    label: str = "optimized",
) -> OptimizationResult:
    """Shortest converging duration: a coarse scan, then one free-time solve.

    Durations are scanned upward from the ideal-rotation speed limit on a
    geometric grid (factor 1.25, 40 segments per pi of area) until a
    fixed-duration solve converges; a feasible speed limit is returned as
    is.  The bracketing area is solved again at 80 segments per pi, warm
    from the coarse profile; that density keeps the uniform grid's
    feasibility gap near the speed limit below 0.1% (switch points of
    bang-bang optima fall between grid cells, which costs duration at low
    density).

    The feasibility boundary is a fold of the solution set, so the
    shortest area is the solution of ``min A s.t. r(phi, A) = 0`` (see
    :func:`_free_time_system`).  One SLSQP solve over the phases and the
    area, from the converged profile, finds it; one :func:`_attempt` at
    the final area polishes the residuals.  If that polish does not
    converge, or the area is not below the bracket, the converged bracket
    profile is returned.  Exhausting the ceiling (20 target angles of
    area) raises :class:`OptimizeFailure` with the best cost per duration.
    """
    density = 2 * SEGMENTS_PER_PI
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
    while area <= ceiling:
        result = try_area(area, density / 2)
        if result.converged:
            coarse = result
            break
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
    if area_hi == area_min:
        return converged  # feasible already at the speed limit

    phases = np.array(converged.pulse.phases)
    n = len(phases)
    area_gradient = np.zeros(n + 1)
    area_gradient[-1] = 1.0
    cache: dict = {}

    def system(x: np.ndarray):
        key = x.tobytes()
        if key not in cache:
            cache.clear()
            cache[key] = _free_time_system(x, problem)
        return cache[key]

    fit = minimize(
        lambda x: x[-1],
        np.append(phases, area_hi),
        jac=lambda x: area_gradient,
        method="SLSQP",
        bounds=[(None, None)] * n + [(area_min, None)],
        constraints={
            "type": "eq", "fun": lambda x: system(x)[0], "jac": lambda x: system(x)[1]
        },
        options={"maxiter": SQP_MAXITER, "ftol": SQP_FTOL},
    )
    area = float(fit.x[-1])
    if not area < area_hi:
        return converged
    x, iterations, score = _attempt(fit.x[:-1], problem, area, DESCENT_MAXITER)
    result = _result(x, score, fit.nit + iterations, area / rabi, rabi, label)
    return result if result.converged else converged


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
