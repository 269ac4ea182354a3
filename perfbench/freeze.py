"""Regenerate the frozen inputs and references in ``perfbench/data``.

Run from the root of a checkout, at the commit the references belong to::

    python3 perfbench/freeze.py

It writes the two pulse files the scan workloads read, with the commands
that made them, then runs every workload command once at seed 0 and records
what the gate compares against: the duration of a minimum-time design, the
area of a bang-bang design, and the infidelity of every scan row.  The
references hold for every seed only where the design lands on the same
solution for every seed; check a new design command over several seeds
before adding it.
"""

from __future__ import annotations

import contextlib
import io
import json
import sys
import tempfile
from pathlib import Path

from run import DATA, SRC, WORKLOADS, pin_blas_threads, expand

import gate

#: Frozen pulse files and the commands that made them.
INPUTS = {
    "robust.json": "design-robust --theta 180 --duration-us 92.5 --seed 0",
    "torf2.json": "design-torf2 --theta 90 --seed 0",
}


def _cli(argv: list[str]) -> None:
    import mipulse.cli

    with contextlib.redirect_stdout(io.StringIO()):
        code = mipulse.cli.main(argv)
    if code != 0:
        raise SystemExit(f"{' '.join(argv)} returned {code}")


def main() -> int:
    pin_blas_threads()
    sys.path.insert(0, str(SRC))
    DATA.mkdir(exist_ok=True)
    for name, command in INPUTS.items():
        _cli(command.split() + ["--out", str(DATA / name)])
        Path(str(DATA / name) + ".meta.json").unlink()

    references = {}
    with tempfile.TemporaryDirectory(dir=DATA) as tmp:
        templates = [t for spec in WORKLOADS.values() for size in ("full", "tiny")
                     for t in spec[size]]
        for i, template in enumerate(dict.fromkeys(templates)):
            out = Path(tmp) / (f"{i}.csv" if template.startswith("scan-") else f"{i}.json")
            _cli(expand(template, 0, out))
            if template.startswith("scan-"):
                rows = gate.read_scan(out)
                references[template] = {"rows": {
                    gate.scan_key(row, row.keys()): float(row["infidelity"]) for row in rows
                }}
                bad = gate.check_scan(rows, references[template])
            else:
                with open(str(out) + ".meta.json", encoding="utf-8") as fh:
                    result = json.load(fh)["result"]
                if "converged" in result:
                    references[template] = {"duration_s": result["duration_s"]}
                else:
                    references[template] = {"area_rad": result["pulse_area_rad"]}
                bad = gate.check_design(str(out) + ".meta.json", references[template])
            if bad:
                raise SystemExit(f"{template}: {bad[:3]}")
    with open(DATA / "reference.json", "w", encoding="utf-8") as fh:
        json.dump({"inputs": INPUTS, "commands": references}, fh, indent=1)
        fh.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
