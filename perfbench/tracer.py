"""Per-layer tracing from outside the package.

``Tracer.install`` replaces every public function of the five layers
(``fock``, ``measurement``, ``closedform``, ``oracle``, ``cli``) with a timing
wrapper, in every module namespace that binds it.  That includes names a
module took in with ``from .fock import ...``, which a patch of the defining
module alone would miss.  Functions look their globals up at call time, so
calls between the package's own functions are caught as well.

Spans are aggregated as they close rather than kept: per function, the number
of calls, the total time and the self time (total minus the time of wrapped
calls made inside it).  A layer's self time is the sum of the self times of
its functions; for ``cli`` that is ``main`` minus everything it calls in the
other layers, i.e. parsing, row formatting, serialisation and writes.

Work counts are computed from argument shapes, not measured:
``fock.displacement_matrix.elements`` is the sum of dim**2,
``oracle.oracle_wigner.cells`` the sum of grid points * K * Nb and
``closedform.fields.cells`` the grid points of closed-form fields.
``oracle.oracle_wigner.peak_alloc_mb`` is the largest ``tracemalloc`` peak
(MiB) seen around one ``oracle_wigner`` call.
"""
from __future__ import annotations

import functools
import importlib
import inspect
import tracemalloc
from collections import Counter, defaultdict
from time import perf_counter

LAYERS = ("fock", "measurement", "closedform", "oracle", "cli")

# Closed-form scalar entry points, reported together as closedform.scalars.
SCALARS = ("expectations", "squeezing", "fidelity", "g2_cross", "snr_ratio",
           "lambda_norm", "phi_moments", "helper_terms")

_SPAN_METRICS = {
    # metric name: (span, field)
    "fock.displacement_matrix.calls": ("fock.displacement_matrix", "calls"),
    "fock.displacement_matrix.self_s": ("fock.displacement_matrix", "self"),
    "fock.displace_a.self_s": ("fock.displace_a", "self"),
    "fock.apply_ladder.calls": ("fock.apply_ladder", "calls"),
    "fock.apply_ladder.self_s": ("fock.apply_ladder", "self"),
    "fock.inner.calls": ("fock.inner", "calls"),
    "fock.coordinate_wavefunction.self_s": ("fock.coordinate_wavefunction", "self"),
    "measurement.evolve_joint.calls": ("measurement.evolve_joint", "calls"),
    "measurement.evolve_joint.self_s": ("measurement.evolve_joint", "self"),
    "measurement.nonpostselected_moments.self_s": ("measurement.nonpostselected_moments", "self"),
    "measurement.postselect.self_s": ("measurement.postselect", "self"),
    "closedform.wigner_field.self_s": ("closedform.wigner_field", "self"),
    "closedform.intensity_field.self_s": ("closedform.intensity_field", "self"),
    "oracle.oracle_quantities.calls": ("oracle.oracle_quantities", "calls"),
    "oracle.oracle_quantities.self_s": ("oracle.oracle_quantities", "self"),
    "oracle.oracle_wigner.calls": ("oracle.oracle_wigner", "calls"),
    "oracle.oracle_wigner.self_s": ("oracle.oracle_wigner", "self"),
    "oracle.oracle_intensity.self_s": ("oracle.oracle_intensity", "self"),
    "oracle.compare.self_s": ("oracle.compare", "self"),
    "cli.main.calls": ("cli.main", "calls"),
}


def _arg(args, kwargs, pos, name):
    return args[pos] if len(args) > pos else kwargs[name]


def _dm_elements(args, kwargs):
    return _arg(args, kwargs, 1, "dim") ** 2


def _wigner_cells(args, kwargs):
    state, grid = _arg(args, kwargs, 0, "state"), _arg(args, kwargs, 1, "grid")
    na, nb = state.coeffs.shape
    return grid.nx * grid.ny * na * nb


def _field_cells(args, kwargs):
    grid = _arg(args, kwargs, 1, "grid")
    return grid.nx * grid.ny


# span -> (work counter, function of the call's arguments)
_WORK = {
    "fock.displacement_matrix": ("fock.displacement_matrix.elements", _dm_elements),
    "oracle.oracle_wigner": ("oracle.oracle_wigner.cells", _wigner_cells),
    "closedform.wigner_field": ("closedform.fields.cells", _field_cells),
    "closedform.intensity_field": ("closedform.fields.cells", _field_cells),
}


class Tracer:
    def __init__(self):
        self.calls = Counter()
        self.total = defaultdict(float)
        self.self_time = defaultdict(float)
        self.work = Counter()
        self.peak_alloc = 0
        self._stack = []  # time spent in wrapped children of each open span
        self._patched = []  # (namespace, attribute, original)

    def _wrap(self, span, fn):
        stack, calls, total, self_time = self._stack, self.calls, self.total, self.self_time
        work = _WORK.get(span)
        measure_alloc = span == "oracle.oracle_wigner"

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if work is not None:
                self.work[work[0]] += work[1](args, kwargs)
            if measure_alloc:
                tracemalloc.start()
            stack.append(0.0)
            t0 = perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                dt = perf_counter() - t0
                child = stack.pop()
                if stack:
                    stack[-1] += dt
                calls[span] += 1
                total[span] += dt
                self_time[span] += dt - child
                if measure_alloc:
                    self.peak_alloc = max(self.peak_alloc, tracemalloc.get_traced_memory()[1])
                    tracemalloc.stop()

        return wrapper

    def install(self):
        modules = {layer: importlib.import_module(f"oampointer.{layer}") for layer in LAYERS}
        wrappers = {}
        for layer, mod in modules.items():
            for name, obj in vars(mod).items():
                if (not name.startswith("_") and inspect.isfunction(obj)
                        and obj.__module__ == mod.__name__):
                    wrappers[obj] = self._wrap(f"{layer}.{name}", obj)
        for mod in (importlib.import_module("oampointer"), *modules.values()):
            for name, obj in list(vars(mod).items()):
                if inspect.isfunction(obj) and obj in wrappers:
                    self._patched.append((mod, name, obj))
                    setattr(mod, name, wrappers[obj])

    def uninstall(self):
        for mod, name, obj in reversed(self._patched):
            setattr(mod, name, obj)
        self._patched.clear()

    def metrics(self):
        out = {}
        for metric, (span, field) in _SPAN_METRICS.items():
            out[metric] = self.calls[span] if field == "calls" else self.self_time[span]
        out["closedform.scalars.calls"] = sum(self.calls[f"closedform.{n}"] for n in SCALARS)
        out["closedform.scalars.self_s"] = sum(self.self_time[f"closedform.{n}"] for n in SCALARS)
        for layer in LAYERS:
            out[f"{layer}.self_s"] = sum(t for span, t in self.self_time.items()
                                         if span.split(".", 1)[0] == layer)
        for name in ("fock.displacement_matrix.elements", "oracle.oracle_wigner.cells",
                     "closedform.fields.cells"):
            out[name] = self.work[name]
        out["oracle.oracle_wigner.peak_alloc_mb"] = self.peak_alloc / 2**20
        return out

    def span_table(self):
        """{span: [calls, total_s, self_s]} for every function that ran."""
        return {span: [self.calls[span], self.total[span], self.self_time[span]]
                for span in sorted(self.calls)}
