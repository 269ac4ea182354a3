"""Benchmark of the mipulse command line, one workload per interpreter.

Run from the root of a checkout::

    python3 perfbench/run.py --workload scan-map --seed 0 --seconds 25 --trace 0
    python3 perfbench/run.py --workload all --seed 0 --seconds 25

A run imports ``mipulse`` from ``src/`` of the checkout and calls
``mipulse.cli.main(argv)`` for each command of the workload in turn (a
closed loop with one client, ``--jobs 1``, BLAS on one thread).  One pass
runs the whole command list; passes repeat for about ``--seconds``.
``wall_s`` is the median pass time, rescaled by the machine-speed probe of
``speed.py`` to its reference speed.  ``setup_s`` is the median over fresh
interpreters that import ``mipulse.cli``, build the parser, parse the
workload's commands and load its input pulses.  Every pass goes through
the correctness gate in ``gate.py``.

``--trace 0`` prints the end-to-end metrics.  ``--trace 1`` times the same
untraced passes, then runs one pass under the span wrappers of
``spans.py`` and prints the per-layer metrics, the tracing overhead and the
import-time shares of set-up.  ``--workload all`` runs every workload both
ways, each in its own interpreter, and prints one table.

The last line of standard output is the result as one JSON object; the
line before it records the environment and the sample counts.
"""

from __future__ import annotations

import argparse
import contextlib
import io
import json
import os
import resource
import shutil
import statistics
import subprocess
import sys
from pathlib import Path
from time import perf_counter

import gate
from spans import Tracer

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
DATA = HERE / "data"
OUT = ROOT / ".perfbench_out"

BLAS_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
SETUP_SAMPLES = {"full": 3, "tiny": 1}

#: Command templates per workload and size; ``BENCHMARK.json`` and the
#: README give the reason for each workload.  ``{seed}`` is the design seed,
#: ``{data}`` the frozen inputs; each template is also its key in
#: ``data/reference.json``.  ``tiny`` is the smoke-test size.
WORKLOADS = {
    "design-mintime": {
        "full": ["design-tod --theta 60 --omega-hz inf --restarts 1 --seed {seed}"],
        "tiny": ["design-tod --theta 90 --omega-hz inf --duration-us 47.1 --restarts 1 "
                 "--seed {seed}"],
    },
    "design-bang": {
        "full": ["design-torf2 --theta 90 --seed {seed}",
                 "design-torf --theta 90 --seed {seed}"],
        "tiny": ["design-torf --theta 90 --seed {seed}"],
    },
    "scan-map": {
        "full": ["scan-map --pulse {data}/robust.json --theta 180 --p0 0.95 "
                 "--n-grid 5 --jobs 1"],
        "tiny": ["scan-map --pulse {data}/robust.json --theta 180 --p0 0.95 "
                 "--n-grid 2 --jobs 1"],
    },
    "scan-ratio": {
        "full": ["scan-ratio --theta 180 --model lamb_dicke --p0 1.0 --jobs 1",
                 "scan-p0 --pulse {data}/torf2.json --theta 90",
                 "scan-p0 --pulse {data}/robust.json --theta 180"],
        "tiny": ["scan-ratio --theta 180 --model lamb_dicke --p0 1.0 --lmax 2.2 --jobs 1",
                 "scan-p0 --pulse {data}/torf2.json --theta 90 --p0-max 0.86",
                 "scan-p0 --pulse {data}/robust.json --theta 180 --p0-max 0.86"],
    },
}

SETUP_CODE = """
import json, sys
sys.path.insert(0, sys.argv[1])
import mipulse.cli
from mipulse.pulse import load_pulse
parser = mipulse.cli.build_parser()
for argv in json.loads(sys.argv[2]):
    pulses = getattr(parser.parse_args(argv), "pulse", None) or []
    for path in [pulses] if isinstance(pulses, str) else pulses:
        load_pulse(path)
"""


def pin_blas_threads() -> int:
    """Run BLAS on one thread, before numpy is imported; returns the CPU
    count.  The speed probe times the main thread only, so the work it
    rescales must run there too."""
    for var in BLAS_VARS:
        os.environ[var] = "1"
    return len(os.sched_getaffinity(0))


def expand(template: str, seed: int, out: Path) -> list[str]:
    argv = [tok.format(seed=seed, data=DATA) for tok in template.split()]
    return argv + ["--out", str(out)]


def measure_setup(argvs: list[list[str]], samples: int) -> list[float]:
    """Wall seconds of fresh interpreters getting ready for the workload."""
    times = []
    for _ in range(samples):
        start = perf_counter()
        subprocess.run(
            [sys.executable, "-c", SETUP_CODE, str(SRC), json.dumps(argvs)],
            check=True, stdout=subprocess.DEVNULL, timeout=120,
        )
        times.append(perf_counter() - start)
    return times


def import_shares() -> dict[str, float]:
    """Cumulative import seconds of numpy, scipy.optimize and mipulse."""
    proc = subprocess.run(
        [sys.executable, "-X", "importtime", "-c",
         f"import sys; sys.path.insert(0, {str(SRC)!r}); import mipulse.cli"],
        check=True, stdout=subprocess.DEVNULL, stderr=subprocess.PIPE, text=True,
        timeout=120,
    )
    wanted = {"numpy": 0.0, "scipy.optimize": 0.0, "mipulse": 0.0}
    for line in proc.stderr.splitlines():
        parts = [p.strip() for p in line.removeprefix("import time:").split("|")]
        if len(parts) == 3 and parts[2] in wanted:
            wanted[parts[2]] = int(parts[1]) * 1e-6
    return wanted


def run_pass(cli, commands) -> tuple[float, float, list, str]:
    """One closed-loop pass over the command list.

    Returns the wall time, the wall time rescaled by the speed probe, the
    return codes (or exception text) and the captured console output.
    """
    from speed import SpeedProbe  # imports numpy: only after pin_blas_threads

    sink = io.StringIO()
    codes = []
    with SpeedProbe() as probe, contextlib.redirect_stdout(sink), \
            contextlib.redirect_stderr(sink):
        start = perf_counter()
        for _, argv in commands:
            try:
                codes.append(cli.main(argv))
            except Exception as exc:  # noqa: BLE001 - counted as a failed operation
                codes.append(f"{type(exc).__name__}: {exc}")
        wall = perf_counter() - start
    return wall, probe.rescale(wall), codes, sink.getvalue()


def gate_pass(commands, codes, console, references) -> tuple[int, int, list[str], int]:
    """Apply the gate to one pass: (attempted, failed, reasons, scan rows)."""
    attempted = failed = rows_seen = 0
    reasons: list[str] = []
    for (template, argv), code in zip(commands, codes):
        reference = references[template]
        out = argv[-1]
        is_scan = argv[0].startswith("scan-")
        ops = 1 + len(reference["rows"]) if is_scan else 1
        attempted += ops
        if code != 0:
            failed += ops
            reasons.append(f"{template}: return code {code!r}: {console[-300:]}")
            continue
        try:
            if is_scan:
                rows = gate.read_scan(out)
                bad = gate.check_scan(rows, reference)
                rows_seen += len(rows)
                failed += min(len(bad), ops - 1)
            else:
                bad = gate.check_design(out + ".meta.json", reference)
                failed += 1 if bad else 0
        except (OSError, ValueError, KeyError) as exc:
            bad = [f"unreadable output: {exc!r}"]
            failed += ops
        reasons += [f"{template}: {r}" for r in bad]
    return attempted, failed, reasons, rows_seen


def environment(nproc: int, seed: int) -> dict:
    import numpy
    import scipy
    import platform

    blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
    sha = None
    if (ROOT / ".git").exists():
        with contextlib.suppress(OSError, subprocess.SubprocessError):
            proc = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "HEAD"],
                                  capture_output=True, text=True, timeout=30)
            sha = proc.stdout.strip() or None
    return {
        "nproc": nproc,
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "blas": {"name": blas.get("name"), "version": blas.get("version")},
        "blas_threads_env": {var: os.environ.get(var) for var in BLAS_VARS},
        "git_sha": sha,
        "seed": seed,
    }


def run_workload(name: str, seed: int, seconds: float, trace: bool, size: str,
                 nproc: int) -> dict:
    import mipulse
    import mipulse.cli as cli

    if Path(mipulse.__file__).resolve().parent != SRC / "mipulse":
        raise RuntimeError(f"imported mipulse from {mipulse.__file__}, not from {SRC}")
    with open(DATA / "reference.json", encoding="utf-8") as fh:
        references = json.load(fh)["commands"]
    templates = WORKLOADS[name][size]
    outdir = OUT / f"{name}-{os.getpid()}"
    outdir.mkdir(parents=True, exist_ok=True)
    try:
        def commands(design_seed: int) -> list[tuple[str, list[str]]]:
            return [(t, expand(t, design_seed,
                               outdir / (f"{i}.csv" if t.startswith("scan-") else f"{i}.json")))
                    for i, t in enumerate(templates)]

        setup = [] if trace else measure_setup(
            [argv for _, argv in commands(seed)], SETUP_SAMPLES[size])

        walls: list[float] = []
        scaled: list[float] = []
        attempted = failed = 0
        reasons: list[str] = []
        start = perf_counter()
        # a pass starts only if it should end nearer the deadline than not
        while not walls or (perf_counter() - start
                            + 0.5 * statistics.median(walls) < seconds):
            # design seeds advance by pass, so a run's median spans several
            # seeds and its spread across runs shrinks
            pass_commands = commands(seed + len(walls))
            wall, wall_scaled, codes, console = run_pass(cli, pass_commands)
            walls.append(wall)
            scaled.append(wall_scaled)
            a, f, r, _ = gate_pass(pass_commands, codes, console, references)
            attempted, failed, reasons = attempted + a, failed + f, reasons + r
        wall_s = statistics.median(scaled)

        metrics: dict[str, tuple[float, str]] = {}
        if trace:
            with Tracer() as tracer:
                _, traced_wall, codes, console = run_pass(cli, commands(seed))
            a, f, r, rows_seen = gate_pass(commands(seed), codes, console, references)
            attempted, failed, reasons = attempted + a, failed + f, reasons + r
            metrics.update(tracer.metrics())
            metrics["scan.points"] = (rows_seen, "count")
            metrics["trace.wall_s"] = (traced_wall, "s")
            metrics["trace.overhead_s"] = (traced_wall - wall_s, "s")
            shares = import_shares()
            metrics["setup.import_numpy_s"] = (shares["numpy"], "s")
            metrics["setup.import_scipy_optimize_s"] = (shares["scipy.optimize"], "s")
            metrics["setup.import_mipulse_s"] = (shares["mipulse"], "s")
            metrics["gate.failed_frac"] = (failed / attempted, "frac")
        else:
            metrics["setup_s"] = (statistics.median(setup), "s")
            metrics["wall_s"] = (wall_s, "s")
            metrics["peak_rss_mb"] = (
                resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MB")
    finally:
        shutil.rmtree(outdir, ignore_errors=True)
        with contextlib.suppress(OSError):
            OUT.rmdir()

    info = {
        "workload": name,
        "size": size,
        "trace": int(trace),
        "env": environment(nproc, seed),
        "samples": {"wall_s": len(walls), "setup_s": len(setup)},
        "pass_wall_s": walls,
        "pass_scaled_s": scaled,
        "raw_wall_s": statistics.median(walls),
        "failed_frac": failed / attempted,
        "failures": reasons[:20],
    }
    print(json.dumps({"perfbench": info}))
    return {
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }


def run_all(args) -> int:
    """Every workload in its own interpreter, untraced then traced."""
    rows = []
    ok = True
    for name in WORKLOADS:
        results = {}
        for trace in (0, 1):
            proc = subprocess.run(
                [sys.executable, str(Path(__file__).resolve()), "--workload", name,
                 "--seed", str(args.seed), "--seconds", str(args.seconds),
                 "--trace", str(trace), "--size", args.size],
                capture_output=True, text=True, timeout=900,
            )
            if proc.returncode != 0:
                sys.stderr.write(proc.stderr)
                return proc.returncode
            lines = proc.stdout.strip().splitlines()
            results[trace] = (json.loads(lines[-2])["perfbench"], json.loads(lines[-1]))
        (info, plain), (_, traced) = results[0], results[1]
        ok = ok and plain["correct"] and traced["correct"]
        m = plain["metrics"]
        rows.append((name, m["setup_s"]["value"], m["wall_s"]["value"],
                     info["raw_wall_s"], info["samples"]["wall_s"],
                     m["peak_rss_mb"]["value"], plain["failed"] / plain["attempted"],
                     traced["metrics"]["trace.overhead_s"]["value"]))
        print(json.dumps({"workload": name, "env": info["env"],
                          "untraced": plain, "traced": traced}))
    print(f"{'workload':<16}{'setup_s (s)':>12}{'wall_s (s)':>11}{'raw wall (s)':>13}"
          f"{'passes':>7}{'peak_rss_mb (MB)':>17}{'failed_frac':>12}{'trace overhead (s)':>19}")
    for name, setup, wall, raw, passes, rss, failed, overhead in rows:
        print(f"{name:<16}{setup:>12.3f}{wall:>11.3f}{raw:>13.3f}{passes:>7d}{rss:>17.1f}"
              f"{failed:>12.4f}{overhead:>19.3f}")
    return 0 if ok else 1


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=[*WORKLOADS, "all"])
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=25.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--size", choices=("full", "tiny"), default="full",
                        help="tiny is the smoke-test size")
    args = parser.parse_args(argv)
    if not (SRC / "mipulse" / "cli.py").is_file():
        print(f"perfbench: no mipulse sources at {SRC}; run from a checkout",
              file=sys.stderr)
        return 2
    nproc = pin_blas_threads()
    if args.workload == "all":
        return run_all(args)
    sys.path.insert(0, str(SRC))
    result = run_workload(args.workload, args.seed, args.seconds, bool(args.trace),
                          args.size, nproc)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
