"""Parameter sweeps emitting machine-readable tables.

Three sweep families cover the standard diagnostics: gate error versus the
trap-to-drive frequency ratio, error maps over static laser offsets, and
error versus the ground-state occupation (with the thermal bound as a
reference column).  Results are plain row tables with a status column;
failed grid points are flagged, never dropped, and row order always
follows grid order.  CSV output carries full float precision and a JSON
metadata sidecar records the complete configuration.

Grid points are independent; ``jobs > 1`` evaluates them in a process
pool of at most one worker per CPU, gathering results back into
deterministic grid order.
"""

from __future__ import annotations

import hashlib
import json
import os
from concurrent.futures import ProcessPoolExecutor
from dataclasses import asdict, dataclass, replace

from . import __version__ as _version
from .fidelity import GateTarget, gate_error, thermal_fidelity, thermal_limit_exact
from .model import SystemParams
from .propagate import evolve
from .pulse import PulseProgram, serialize

__all__ = [
    "SweepResult",
    "sweep_ratio",
    "robustness_map",
    "error_vs_p0",
    "write_csv",
    "write_metadata",
]


@dataclass(frozen=True)
class SweepResult:
    """Rows of a sweep plus everything needed to reproduce them."""

    columns: tuple[str, ...]
    rows: tuple[tuple, ...]
    metadata: dict


def _pulse_hash(pulse: PulseProgram) -> str:
    return hashlib.sha256(serialize(pulse).encode()).hexdigest()


def _ratio_point(args):
    ratio, pulse, model, theta, axis, p0, eta, truncation = args
    try:
        params = SystemParams(
            omega=ratio * pulse.rabi, rabi=pulse.rabi, eta=eta, truncation=truncation
        )
        return (ratio, gate_error(params, pulse, GateTarget(theta, axis), p0, model), "ok")
    except Exception as exc:  # noqa: BLE001 - failed points are flagged, not fatal
        return (ratio, float("nan"), f"error:{exc}")


def _map_point(args):
    ddelta_frac, domega_frac, pulse, theta, axis, p0, params_dict, rabi_ref = args
    try:
        params = SystemParams(**params_dict)
        params = replace(
            params,
            delta_detuning=ddelta_frac * rabi_ref,
            delta_rabi=domega_frac * rabi_ref,
        )
        err = gate_error(params, pulse, GateTarget(theta, axis), p0, "full")
        return (ddelta_frac, domega_frac, err, "ok")
    except Exception as exc:  # noqa: BLE001
        return (ddelta_frac, domega_frac, float("nan"), f"error:{exc}")


def _check_p0(p0: float) -> None:
    """The occupation is shared by every grid point: reject it once, up front."""
    if not 0 < p0 <= 1:
        raise ValueError(f"p0 must be in (0, 1], got {p0}")


def _run(points, worker, jobs):
    jobs = min(jobs, os.cpu_count() or 1)
    if jobs <= 1:
        return [worker(p) for p in points]
    with ProcessPoolExecutor(max_workers=jobs) as pool:
        return list(pool.map(worker, points))


def sweep_ratio(
    pulse_source,
    ratios,
    model: str,
    p0: float,
    target: GateTarget,
    eta: float = 0.2156,
    truncation: int = 20,
    jobs: int = 1,
) -> SweepResult:
    """Thermal gate error versus the trap-to-drive frequency ratio.

    ``pulse_source`` is either a fixed :class:`PulseProgram` or a callable
    ``ratio -> PulseProgram`` (a pulse family).  The trap frequency is set
    to ``ratio * rabi`` of each pulse; the error curve depends only on the
    dimensionless ratio.
    """
    _check_p0(p0)
    ratios = [float(r) for r in ratios]
    if not ratios:
        raise ValueError("ratio grid must be nonempty")
    pulses = [
        pulse_source(r) if callable(pulse_source) else pulse_source for r in ratios
    ]
    points = [
        (r, pulse, model, target.theta, target.axis_angle, p0, eta, truncation)
        for r, pulse in zip(ratios, pulses)
    ]
    rows = _run(points, _ratio_point, jobs)
    metadata = {
        "kind": "ratio-sweep",
        "model": model,
        "p0": p0,
        "eta": eta,
        "truncation": truncation,
        "target_theta_rad": target.theta,
        "target_axis_rad": target.axis_angle,
        "pulse_hash": sorted({_pulse_hash(p) for p in pulses}),
        "tool_version": _version,
    }
    return SweepResult(
        columns=("lambda", "infidelity", "status"),
        rows=tuple(rows),
        metadata=metadata,
    )


def robustness_map(
    pulse: PulseProgram,
    detuning_fracs,
    rabi_fracs,
    p0: float,
    target: GateTarget,
    params: SystemParams,
    rabi_ref: float | None = None,
    jobs: int = 1,
) -> SweepResult:
    """Full-model gate error over a grid of static laser offsets.

    Offsets are given as fractions of ``rabi_ref`` (defaults to the
    simulation Rabi frequency).  Row order is row-major over
    (detuning, rabi) grid order.
    """
    _check_p0(p0)
    rabi_ref = params.rabi if rabi_ref is None else rabi_ref
    params_dict = asdict(replace(params, delta_detuning=0.0, delta_rabi=0.0))
    points = [
        (float(dd), float(dr), pulse, target.theta, target.axis_angle, p0,
         params_dict, rabi_ref)
        for dd in detuning_fracs
        for dr in rabi_fracs
    ]
    if not points:
        raise ValueError("offset grid must be nonempty")
    rows = _run(points, _map_point, jobs)
    metadata = {
        "kind": "robustness-map",
        "model": "full",
        "p0": p0,
        "params": params_dict,
        "rabi_ref": rabi_ref,
        "target_theta_rad": target.theta,
        "target_axis_rad": target.axis_angle,
        "pulse_hash": _pulse_hash(pulse),
        "tool_version": _version,
    }
    return SweepResult(
        columns=("ddelta_over_omega", "domega_over_omega", "infidelity", "status"),
        rows=tuple(rows),
        metadata=metadata,
    )


def error_vs_p0(
    pulses,
    p0_grid,
    target: GateTarget,
    params: SystemParams,
    model: str = "second_order",
) -> SweepResult:
    """Per-pulse error versus ground-state occupation, with the bound column.

    The reference column carries the exact thermal-entanglement floor of
    recoil-free single-axis gates at the same target angle.
    """
    rows = []
    for pulse in pulses:
        label = pulse.label or _pulse_hash(pulse)[:12]
        try:
            prop = evolve(params, pulse, model)
        except Exception as exc:  # noqa: BLE001
            for p0 in p0_grid:
                rows.append((label, float(p0), float("nan"), float("nan"),
                             f"error:{exc}"))
            continue
        for p0 in p0_grid:
            bound = thermal_limit_exact(float(p0), params.eta, target.theta)
            try:
                report = thermal_fidelity(prop, target, float(p0))
                rows.append((label, float(p0), report.error, bound, "ok"))
            except Exception as exc:  # noqa: BLE001
                rows.append((label, float(p0), float("nan"), bound, f"error:{exc}"))
    metadata = {
        "kind": "p0-sweep",
        "model": model,
        "params": asdict(params),
        "target_theta_rad": target.theta,
        "target_axis_rad": target.axis_angle,
        "pulse_hash": [_pulse_hash(p) for p in pulses],
        "tool_version": _version,
    }
    return SweepResult(
        columns=("pulse", "p0", "infidelity", "recoil_free_limit", "status"),
        rows=tuple(rows),
        metadata=metadata,
    )


def _cell(value) -> str:
    if isinstance(value, float):
        return repr(value)
    return str(value)


def write_csv(result: SweepResult, path) -> None:
    """Write rows with full decimal precision (floats via repr)."""
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(",".join(result.columns) + "\n")
        for row in result.rows:
            fh.write(",".join(_cell(v) for v in row) + "\n")


def write_metadata(result: SweepResult, path, extra: dict | None = None) -> None:
    payload = dict(result.metadata)
    if extra:
        payload.update(extra)
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(payload, fh, indent=2, sort_keys=True)
        fh.write("\n")
