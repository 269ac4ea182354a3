"""Smoke check of the benchmark at tiny size.

A plain script, not a pytest module, so no test run of the repository
collects it.  Run from the root of a checkout::

    python3 perfbench/smoke.py

It exits 0 when every check passes and 1 after printing the failures.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
import tempfile
from pathlib import Path

import run

BENCHMARK = json.loads((run.ROOT / "BENCHMARK.json").read_text())


def _run(*args: str, cwd: Path = run.ROOT) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, str(cwd / "perfbench" / "run.py"), *args],
        cwd=cwd, capture_output=True, text=True, timeout=600,
    )


def check_every_metric_is_emitted_with_its_unit(workload: str, trace: int) -> None:
    proc = _run("--workload", workload, "--seed", "0", "--seconds", "0",
                "--trace", str(trace), "--size", "tiny")
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True and result["failed"] == 0
    assert result["attempted"] >= 1
    wanted = BENCHMARK["per_layer" if trace else "end_to_end"]
    assert {m["name"]: m["unit"] for m in wanted} == {
        name: metric["unit"] for name, metric in result["metrics"].items()
    }


def check_nan_row_with_status_ok_counts_as_failed(tmp_path: Path) -> None:
    template = run.WORKLOADS["scan-map"]["tiny"][0]
    reference = json.loads((run.DATA / "reference.json").read_text())["commands"]
    rows = reference[template]["rows"]
    lines = ["ddelta_over_omega,domega_over_omega,infidelity,status"]
    for i, (key, value) in enumerate(rows.items()):
        lines.append(f"{key},{'nan' if i == 0 else repr(value)},ok")
    out = tmp_path / "map.csv"
    out.write_text("\n".join(lines) + "\n")
    argv = run.expand(template, 0, out)
    attempted, failed, reasons, _ = run.gate_pass(
        [(template, argv)], [0], "", reference)
    assert (attempted, failed) == (1 + len(rows), 1)
    assert "non-finite" in reasons[0]


def check_fails_without_program_sources(tmp_path: Path) -> None:
    shutil.copy(run.ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(run.HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = _run("--workload", "scan-map", "--seed", "0", "--seconds", "1",
                "--trace", "0", cwd=tmp_path)
    assert proc.returncode != 0
    assert proc.stdout.strip() == ""


def main() -> int:
    checks = [
        (f"every_metric_is_emitted_with_its_unit[{w['name']}-{trace}]",
         lambda tmp, w=w["name"], trace=trace:
             check_every_metric_is_emitted_with_its_unit(w, trace))
        for w in BENCHMARK["workloads"] for trace in (0, 1)
    ]
    checks += [
        ("nan_row_with_status_ok_counts_as_failed",
         check_nan_row_with_status_ok_counts_as_failed),
        ("fails_without_program_sources", check_fails_without_program_sources),
    ]
    failures = 0
    for name, check in checks:
        with tempfile.TemporaryDirectory(prefix=".perfbench_smoke_",
                                         dir=run.ROOT) as tmp:
            try:
                check(Path(tmp))
            except Exception as exc:  # report every failing check, then exit 1
                failures += 1
                print(f"FAIL {name}: {type(exc).__name__}: {exc}")
            else:
                print(f"ok   {name}")
    print(f"{len(checks) - failures} passed, {failures} failed")
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
