"""Per-layer spans recorded around calls into mipulse's public functions.

The benchmark's traced run wraps module globals from outside the program:
each wrapper opens a span on a stack, so a layer's self time is its
inclusive time minus the time of the spans it caused.  ``Tracer.install``
replaces a mipulse function in every loaded ``mipulse.*`` module that binds
it (``cli`` and ``scan`` import names directly); a foreign function such as
``scipy.optimize.least_squares`` is replaced only in the module named, so
the optimizer's polish and the bang-bang solver's least squares stay apart.
Untraced runs never create a ``Tracer``.
"""

from __future__ import annotations

import importlib
import os
import sys
from time import perf_counter


class LayerStats:
    """Counters of one layer: calls, inclusive and self seconds, extras."""

    def __init__(self):
        self.calls = 0
        self.total_s = 0.0
        self.self_s = 0.0
        self.extra: dict[str, float] = {}

    def add(self, key: str, value: float) -> None:
        self.extra[key] = self.extra.get(key, 0.0) + value


def _note_controls(stats, args, kwargs, result):
    # evaluate_controls(phases, durations, rabi, omega, kappa, kinds, want_grad)
    want_grad = kwargs.get("want_grad", args[6] if len(args) > 6 else False)
    stats.add("grad_calls", 1.0 if want_grad else 0.0)
    stats.add("segments", float(len(args[0] if args else kwargs["phases"])))


def _note_converged(stats, args, kwargs, result):
    stats.add("converged", 1.0 if result.converged else 0.0)


def _note_nit(stats, args, kwargs, result):
    stats.add("nit", float(result.nit))


def _note_nfev(stats, args, kwargs, result):
    stats.add("nfev", float(result.nfev))


def _note_bytes(stats, args, kwargs, result):
    path = args[1] if len(args) > 1 else kwargs["path"]
    stats.add("bytes", float(os.path.getsize(path)))


#: (layer, module, attribute, hook run on each successful call's result).
LAYERS = (
    ("operators.displacement_coupling", "mipulse.operators", "displacement_coupling", None),
    ("model.hamiltonian", "mipulse.model", "hamiltonian", None),
    ("propagate.eigh", "numpy.linalg", "eigh", None),
    ("propagate.evolve", "mipulse.propagate", "evolve", None),
    ("fidelity.thermal_fidelity", "mipulse.fidelity", "thermal_fidelity", None),
    ("toggling.evaluate_controls", "mipulse.toggling", "evaluate_controls", _note_controls),
    ("optimize.solve_fixed_duration", "mipulse.optimize", "solve_fixed_duration", _note_converged),
    ("optimize.cost_and_gradient", "mipulse.optimize", "cost_and_gradient", None),
    ("optimize.lbfgs", "mipulse.optimize", "minimize", _note_nit),
    ("optimize.polish", "mipulse.optimize", "least_squares", _note_nfev),
    ("bangbang.solve_second_order", "mipulse.bangbang", "solve_second_order", None),
    ("bangbang.least_squares", "mipulse.bangbang", "least_squares", _note_nfev),
    ("scan.write_csv", "mipulse.scan", "write_csv", _note_bytes),
)


class Tracer:
    """Installs span wrappers for ``LAYERS`` and restores the originals."""

    def __init__(self):
        self.stats = {layer: LayerStats() for layer, *_ in LAYERS}
        self._stack: list[float] = []
        self._patched: list[tuple[object, str, object]] = []

    def _wrap(self, fn, stats: LayerStats, hook):
        stack = self._stack

        def traced(*args, **kwargs):
            stack.append(0.0)
            start = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                duration = perf_counter() - start
                children = stack.pop()
                if stack:
                    stack[-1] += duration
                stats.calls += 1
                stats.total_s += duration
                stats.self_s += duration - children
            if hook is not None:
                hook(stats, args, kwargs, result)
            return result

        return traced

    def install(self) -> None:
        for layer, module_name, attr, hook in LAYERS:
            home = importlib.import_module(module_name)
            original = getattr(home, attr)
            wrapper = self._wrap(original, self.stats[layer], hook)
            if getattr(original, "__module__", "").startswith("mipulse"):
                homes = [m for name, m in list(sys.modules.items())
                         if name == "mipulse" or name.startswith("mipulse.")]
            else:
                homes = [home]
            for module in homes:
                for name, value in list(vars(module).items()):
                    if value is original:
                        setattr(module, name, wrapper)
                        self._patched.append((module, name, original))

    def uninstall(self) -> None:
        for module, name, original in reversed(self._patched):
            setattr(module, name, original)
        self._patched.clear()

    def __enter__(self) -> "Tracer":
        self.install()
        return self

    def __exit__(self, *exc) -> None:
        self.uninstall()

    def metrics(self) -> dict[str, tuple[float, str]]:
        """Per-layer metrics named as in ``BENCHMARK.json``, with units."""
        s = self.stats
        out: dict[str, tuple[float, str]] = {}

        def per_call_ms(st: LayerStats) -> float:
            return 1e3 * st.total_s / st.calls if st.calls else 0.0

        def per_call(st: LayerStats, key: str) -> float:
            return st.extra.get(key, 0.0) / st.calls if st.calls else 0.0

        for layer in ("operators.displacement_coupling", "model.hamiltonian",
                      "optimize.cost_and_gradient"):
            out[f"{layer}.calls"] = (s[layer].calls, "count")
            out[f"{layer}.self_s"] = (s[layer].self_s, "s")
        out["propagate.eigh.calls"] = (s["propagate.eigh"].calls, "count")
        out["propagate.eigh.s"] = (s["propagate.eigh"].total_s, "s")
        for layer in ("propagate.evolve", "fidelity.thermal_fidelity"):
            out[f"{layer}.calls"] = (s[layer].calls, "count")
            out[f"{layer}.self_s"] = (s[layer].self_s, "s")
            out[f"{layer}.ms_per_call"] = (per_call_ms(s[layer]), "ms")
        st = s["toggling.evaluate_controls"]
        out["toggling.evaluate_controls.calls"] = (st.calls, "count")
        out["toggling.evaluate_controls.grad_calls"] = (int(st.extra.get("grad_calls", 0)), "count")
        out["toggling.evaluate_controls.self_s"] = (st.self_s, "s")
        out["toggling.evaluate_controls.ms_per_call"] = (per_call_ms(st), "ms")
        out["toggling.evaluate_controls.segments_mean"] = (per_call(st, "segments"), "count")
        st = s["optimize.solve_fixed_duration"]
        out["optimize.solve_fixed_duration.calls"] = (st.calls, "count")
        out["optimize.solve_fixed_duration.converged_frac"] = (per_call(st, "converged"), "frac")
        st = s["optimize.lbfgs"]
        out["optimize.lbfgs.calls"] = (st.calls, "count")
        out["optimize.lbfgs.nit"] = (int(st.extra.get("nit", 0)), "count")
        out["optimize.lbfgs.self_s"] = (st.self_s, "s")
        for layer in ("optimize.polish", "bangbang.least_squares"):
            st = s[layer]
            out[f"{layer}.calls"] = (st.calls, "count")
            out[f"{layer}.nfev"] = (int(st.extra.get("nfev", 0)), "count")
            out[f"{layer}.self_s"] = (st.self_s, "s")
        out["bangbang.solve_second_order.s"] = (s["bangbang.solve_second_order"].total_s, "s")
        out["scan.write_csv.s"] = (s["scan.write_csv"].total_s, "s")
        out["scan.write_csv.bytes"] = (int(s["scan.write_csv"].extra.get("bytes", 0)), "bytes")
        return out
