"""Spans around the calls into each layer, installed from the benchmark's side.

The tracer replaces, for the length of a traced pass, every public
function and public method of the package modules by a wrapper that
records a span (id, parent, op, name, start, end), and it wraps the
numpy.fft / scipy.fft entry points as the ``fft`` layer.  The program's
files are not changed: the wrappers are module attributes, set on
install() and restored on uninstall().  Untraced runs never install it,
so they record no spans.

Self time of a span is its duration minus the time covered by its child
spans.  Work counts (calls, steps, points, pairs, samples) are taken from
arguments and results, so they repeat exactly from run to run.
"""

import functools
import importlib
import inspect
import json
import time

import numpy as np
import scipy.fft

PACKAGE = "monopole_lab"
LAYERS = ("diagonal_system", "gauge_fields", "grid_spectral", "lie", "fl_norms", "cone_quadrature", "null_geometry", "cli")
FFT_NAMES = ("fft", "ifft", "fft2", "ifft2", "fftn", "ifftn", "rfft", "irfft", "rfft2", "irfft2", "rfftn", "irfftn")

# (metric, unit); a metric is <span>.<field>, and cone_quadrature.delta_integral
# sums the plus and minus surface integrals
LAYER_METRICS = [
    (f"{span}.{field}", "s" if field.endswith("_s") else "count")
    for span, fields in (
        ("diagonal_system.evolve", ("calls", "steps", "busy_s", "self_s")),
        ("fft.r2c", ("calls", "points", "busy_s")),
        ("fft.c2c", ("calls", "points", "busy_s")),
        ("grid_spectral.apply_projection", ("calls", "busy_s")),
        ("diagonal_system.evolve_with_residuals", ("busy_s", "self_s")),
        ("gauge_fields.monopole_residual", ("calls", "busy_s", "self_s")),
        ("gauge_fields.spatial_gradient", ("calls", "busy_s")),
        ("gauge_fields.sup_norm", ("busy_s",)),
        ("lie.bracket", ("calls", "busy_s")),
        ("lie.su2_matrix", ("calls", "busy_s")),
        ("diagonal_system.random_diagonal_state", ("busy_s",)),
        ("grid_spectral.random_band_limited", ("busy_s",)),
        ("lie.su2_coefficients", ("busy_s",)),
        ("fl_norms.free_wave_sample", ("calls", "busy_s")),
        ("fl_norms.xsb_norm", ("calls", "busy_s")),
        ("fl_norms.hsp_norm", ("calls", "busy_s")),
        ("fl_norms.key_bilinear_probe", ("calls", "pairs", "busy_s")),
        ("fl_norms.random_positive_coeffs", ("busy_s",)),
        ("fl_norms.scaling_check", ("busy_s",)),
        ("cone_quadrature.plus_kernel", ("calls", "busy_s")),
        ("cone_quadrature.minus_kernel", ("calls", "busy_s")),
        ("cone_quadrature.delta_integral", ("calls", "points")),
        ("null_geometry.null_sweep", ("samples", "busy_s")),
        ("null_geometry.approach_defects", ("busy_s",)),
        ("cli.run", ("calls", "busy_s", "self_s")),
    )
    for field in fields
] + [("trace.overhead_s", "s")]

_SPAN_ALIASES = {
    "cone_quadrature.delta_integral": ("cone_quadrature.delta_integral_plus", "cone_quadrature.delta_integral_minus"),
}


def _arg(fn, name):
    signature = inspect.signature(fn)

    def get(args, kwargs):
        return signature.bind(*args, **kwargs).arguments[name]

    return get


def _fft_points(args, kwargs, result):
    return {"points": max(np.asarray(args[0]).size, result.size)}


def _work_counters(modules):
    """Extra counts for the spans whose work is not one unit per call."""
    evolve_steps = _arg(modules["diagonal_system"].HalfWaveSolver.evolve, "n_steps")
    sweep_samples = _arg(modules["null_geometry"].null_sweep, "n_samples")
    return {
        "diagonal_system.evolve": lambda a, k, r: {"steps": int(evolve_steps(a, k))},
        "null_geometry.null_sweep": lambda a, k, r: {"samples": int(sweep_samples(a, k))},
        "fl_norms.key_bilinear_probe": lambda a, k, r: {
            "pairs": int(np.count_nonzero(a[0])) * int(np.count_nonzero(a[1]))
        },
        "cone_quadrature.delta_integral_plus": lambda a, k, r: {"points": int(r.quadrature_points)},
        "cone_quadrature.delta_integral_minus": lambda a, k, r: {"points": int(r.quadrature_points)},
    }


class Tracer:
    """Spans and work counts of one traced pass; install() before it, uninstall() after."""

    def __init__(self):
        self.op = None
        self.paused = False
        self.spans = []
        self.stats = {}
        self._next_id = 0
        self._stack = []
        self._restore = []

    def _wrap(self, name, fn, work=None, reentrant=True):
        stats = self.stats.setdefault(name, {"calls": 0, "busy_s": 0.0, "self_s": 0.0})
        stack = self._stack

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            # an fft entry point that calls another one is one transform
            if self.paused or (not reentrant and stack and stack[-1][2] == name):
                return fn(*args, **kwargs)
            span_id = self._next_id
            self._next_id += 1
            parent = stack[-1] if stack else None
            frame = [span_id, 0.0, name]
            stack.append(frame)
            start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = time.perf_counter()
                stack.pop()
                duration = end - start
                if parent is not None:
                    parent[1] += duration
                stats["calls"] += 1
                stats["busy_s"] += duration
                stats["self_s"] += duration - frame[1]
                self.spans.append((span_id, None if parent is None else parent[0], self.op, name, start, end))
            if work is not None:
                for key, value in work(args, kwargs, result).items():
                    stats[key] = stats.get(key, 0) + value
            return result

        return traced

    def _set(self, owner, attr, value):
        self._restore.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, value)

    def install(self):
        modules = {layer: importlib.import_module(f"{PACKAGE}.{layer}") for layer in LAYERS}
        counters = _work_counters(modules)
        wrapped = {}
        for layer, module in modules.items():
            for attr, obj in list(vars(module).items()):
                if attr.startswith("_"):
                    continue
                if inspect.isfunction(obj) and obj.__module__ == module.__name__:
                    name = f"{layer}.{attr}"
                    wrapped[obj] = self._wrap(name, obj, counters.get(name))
                elif inspect.isclass(obj) and obj.__module__ == module.__name__:
                    for method, fn in list(vars(obj).items()):
                        if inspect.isfunction(fn) and not method.startswith("_"):
                            name = f"{layer}.{method}"
                            if name in self.stats:
                                name = f"{layer}.{obj.__name__}.{method}"
                            self._set(obj, method, self._wrap(name, fn, counters.get(name)))
        # a function is called through every namespace that imported it
        for module in list(modules.values()) + [importlib.import_module(PACKAGE)]:
            for attr, obj in list(vars(module).items()):
                if inspect.isfunction(obj) and obj in wrapped:
                    self._set(module, attr, wrapped[obj])
        for namespace in (np.fft, scipy.fft):
            for attr in FFT_NAMES:
                kind = "fft.r2c" if "rfft" in attr else "fft.c2c"
                fn = getattr(namespace, attr)
                self._set(namespace, attr, self._wrap(kind, fn, _fft_points, reentrant=False))

    def uninstall(self):
        while self._restore:
            owner, attr, value = self._restore.pop()
            setattr(owner, attr, value)

    def layer_metrics(self, overhead_s):
        out = {}
        for metric, unit in LAYER_METRICS:
            if metric == "trace.overhead_s":
                out[metric] = {"value": overhead_s, "unit": unit}
                continue
            span, field = metric.rsplit(".", 1)
            total = sum(self.stats.get(name, {}).get(field, 0) for name in _SPAN_ALIASES.get(span, (span,)))
            out[metric] = {"value": total, "unit": unit}
        return out

    def write(self, path):
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(
                {
                    "fields": ["id", "parent", "op", "name", "start", "end"],
                    "stats": self.stats,
                    "spans": self.spans,
                },
                fh,
            )
