"""Correctness gate: decides which operations of a pass failed.

An operation is one CLI invocation, one design or one scan row.  A design
command is one operation (the invocation is the design); a scan command is
one operation for the invocation plus one per expected row.  An operation
fails on a nonzero return code, a status other than ``ok``, a non-finite
infidelity (even under status ``ok``: a NaN propagator passes ``evolve``'s
``defect > tol`` guard), a scan infidelity more than ``SCAN_ABS_TOL`` from
the frozen reference, a design that is not converged or leaves a constraint
norm at or above ``CONSTRAINT_TOL``, a minimum-time duration outside the
search's bisection tolerance, or a bang-bang area off its reference by more
than ``AREA_REL_TOL``.
"""

from __future__ import annotations

import csv
import json
import math

SCAN_ABS_TOL = 1e-9
CONSTRAINT_TOL = 1e-8
#: ``min_time_search`` bisects until the bracket is within 1e-3 relative.
BISECTION_REL_TOL = 1e-3
AREA_REL_TOL = 1e-9


def _finite(value) -> bool:
    return isinstance(value, (int, float)) and math.isfinite(value)


def check_design(sidecar_path, reference: dict) -> list[str]:
    """Failure reasons of one design command, judged from its sidecar."""
    with open(sidecar_path, encoding="utf-8") as fh:
        result = json.load(fh)["result"]
    reasons = []
    if "converged" in result:
        if result["converged"] is not True:
            reasons.append("design not converged")
        norms = dict(result["constraint_norms"], target_defect=result["target_defect"])
        for name, norm in norms.items():
            if not (_finite(norm) and norm < CONSTRAINT_TOL):
                reasons.append(f"{name} norm {norm!r} not below {CONSTRAINT_TOL}")
        want = reference["duration_s"]
        got = result["duration_s"]
        if not (_finite(got) and abs(got - want) <= BISECTION_REL_TOL * want):
            reasons.append(f"duration {got!r} s outside {BISECTION_REL_TOL} of {want!r} s")
    else:
        residual = result["residual"]
        if not (_finite(residual) and residual < CONSTRAINT_TOL):
            reasons.append(f"residual {residual!r} not below {CONSTRAINT_TOL}")
        want = reference["area_rad"]
        got = result["pulse_area_rad"]
        if not (_finite(got) and abs(got - want) <= AREA_REL_TOL * abs(want)):
            reasons.append(f"area {got!r} differs from {want!r}")
    return reasons


def read_scan(csv_path) -> list[dict]:
    with open(csv_path, newline="", encoding="utf-8") as fh:
        return list(csv.DictReader(fh))


def scan_key(row: dict, columns) -> str:
    """Grid coordinates of a row: the columns before ``infidelity``."""
    keys = list(columns)[: list(columns).index("infidelity")]
    return ",".join(row[k] for k in keys)


def check_scan(rows: list[dict], reference: dict) -> list[str]:
    """Failure reasons, one per failed row, against the frozen reference.

    ``reference["rows"]`` maps grid coordinates to the reference
    infidelity, in grid order; a missing or extra row fails too.
    """
    expected = reference["rows"]
    reasons = []
    seen = set()
    for row in rows:
        key = scan_key(row, row.keys())
        seen.add(key)
        try:
            value = float(row["infidelity"])
        except ValueError:
            value = math.nan
        if row["status"] != "ok":
            reasons.append(f"row {key}: status {row['status']!r}")
        elif not math.isfinite(value):
            reasons.append(f"row {key}: non-finite infidelity {row['infidelity']!r} with status ok")
        elif key not in expected:
            reasons.append(f"row {key}: not in the reference grid")
        elif abs(value - expected[key]) > SCAN_ABS_TOL:
            reasons.append(f"row {key}: infidelity {value!r} vs reference {expected[key]!r}")
    reasons += [f"row {key}: missing" for key in expected if key not in seen]
    return reasons
