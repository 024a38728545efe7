"""Spans around qentropy's public functions, recorded from outside.

`Tracer.install()` replaces each function in LAYERS by a wrapper, in every
qentropy module that holds a reference to it, so calls made inside the
package are seen as well as the benchmark's own.  A span is (request, name,
start, end, parent); a layer's self time is its duration minus the time of
its child spans.  Totals are kept per name for the whole run; the spans
themselves are kept only while `recording` is set, to bound memory.

Each thread has its own span stack: the chunks that `mc --workers 2` runs
on a pool thread are spans without a parent, and their time is not taken
off the caller's self time.
"""

import functools
import inspect
import sys
import threading
import time

# (module, attribute); "Class.method" patches the method on the class
LAYERS = (
    ("cli", "main"),
    ("io", "load_spectrum"),
    ("io", "load_density"),
    ("entropy", "absolute_entropy"),
    ("entropy", "excess_entropy"),
    ("entropy", "shannon"),
    ("entropy", "density_p"),
    ("entropy", "entropy_by_quadrature"),
    ("states", "Spectrum.clustered_values"),
    ("states", "eig_hermitian"),
    ("states", "validate_density"),
    ("states", "partial_trace"),
    ("states", "tensor"),
    ("states", "projective_update"),
    ("states", "spectrum_from_values"),
    ("experiments", "inequality_suite"),
    ("experiments", "measurement_conjecture_scan"),
    ("experiments", "fig1_random_mixtures"),
    ("experiments", "random_density_hs"),
    ("rng", "RngStream.child"),
    ("montecarlo", "mc_entropy_estimate"),
)

# (layer, statistic) reported per round; the metric is named
# "<layer>.calls", "<layer>.self_s" or "<layer>.total_s"
PER_LAYER = (
    ("entropy.excess_entropy", "calls"),
    ("entropy.excess_entropy", "self"),
    ("entropy.absolute_entropy", "self"),
    ("entropy.shannon", "total"),
    ("states.Spectrum.clustered_values", "calls"),
    ("states.Spectrum.clustered_values", "total"),
    ("states.eig_hermitian", "calls"),
    ("states.eig_hermitian", "total"),
    ("states.validate_density", "total"),
    ("states.partial_trace", "total"),
    ("states.tensor", "total"),
    ("states.projective_update", "total"),
    ("states.spectrum_from_values", "total"),
    ("experiments.inequality_suite", "self"),
    ("experiments.measurement_conjecture_scan", "self"),
    ("experiments.fig1_random_mixtures", "self"),
    ("experiments.random_density_hs", "total"),
    ("rng.RngStream.child", "calls"),
    ("rng.RngStream.child", "total"),
    ("io.load_spectrum", "self"),
    ("io.load_density", "self"),
    ("cli.main", "self"),
    ("entropy.density_p", "calls"),
    ("entropy.density_p", "total"),
    ("entropy.entropy_by_quadrature", "total"),
    ("montecarlo.mc_entropy_estimate", "self"),
)
_SUFFIX = {"calls": ("calls", "count/round"), "self": ("self_s", "s/round"),
           "total": ("total_s", "s/round")}
DERIVED = (
    ("states.Spectrum.clustered_values.per_excess_entropy", "ratio"),
    ("montecarlo.samples", "count/round"),
    ("montecarlo.sphere.ns_per_sample", "ns"),
    ("montecarlo.basis.ns_per_sample", "ns"),
)
METRICS = tuple((f"{layer}.{_SUFFIX[stat][0]}", _SUFFIX[stat][1])
                for layer, stat in PER_LAYER) + DERIVED

_MC = "montecarlo.mc_entropy_estimate"


class _Stat:
    __slots__ = ("calls", "total", "self")

    def __init__(self):
        self.calls, self.total, self.self = 0, 0.0, 0.0


class Tracer:
    def __init__(self):
        self.stats: dict[str, _Stat] = {}
        self.mc = {"sphere": [0, 0.0], "basis": [0, 0.0]}  # mode -> [samples, seconds]
        self.spans: list[list] = []  # [request, name, start, end, parent]
        self.recording = False
        self.request = 0
        self._local = threading.local()  # .stack: [span index or -1, start, child seconds]
        self._lock = threading.Lock()

    def install(self):
        """Wrap every function in LAYERS wherever qentropy refers to it."""
        modules = [m for k, m in sys.modules.items()
                   if k == "qentropy" or k.startswith("qentropy.")]
        for mod_name, attr in LAYERS:
            home = sys.modules[f"qentropy.{mod_name}"]
            label = f"{mod_name}.{attr}"
            if "." in attr:
                cls_name, meth = attr.split(".")
                cls = getattr(home, cls_name)
                setattr(cls, meth, self._wrap(getattr(cls, meth), label))
                continue
            original = getattr(home, attr)
            wrapper = self._wrap(original, label)
            for mod in modules:
                for key, value in list(vars(mod).items()):
                    if value is original:
                        setattr(mod, key, wrapper)

    def _wrap(self, fn, label):
        stats = self.stats.setdefault(label, _Stat())
        enter, leave = self._enter, self._leave
        signature = inspect.signature(fn) if label == _MC else None

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            stack = enter(label)
            try:
                return fn(*args, **kwargs)
            finally:
                seconds = leave(stack, stats)
                if signature is not None:
                    call = signature.bind(*args, **kwargs)
                    call.apply_defaults()
                    acc = self.mc[call.arguments["mode"]]
                    acc[0] += call.arguments["samples"]
                    acc[1] += seconds

        return wrapper

    def _enter(self, name) -> list:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        index = -1
        if self.recording:
            with self._lock:
                index = len(self.spans)
                self.spans.append([self.request, name, 0.0, 0.0,
                                   stack[-1][0] if stack else -1])
        stack.append([index, time.perf_counter(), 0.0])
        return stack

    def _leave(self, stack: list, stats: _Stat) -> float:
        end = time.perf_counter()
        index, start, child = stack.pop()
        seconds = end - start
        if stack:
            stack[-1][2] += seconds
        with self._lock:
            stats.calls += 1
            stats.total += seconds
            stats.self += seconds - child
            if index >= 0:
                self.spans[index][2:4] = [start, end]
        return seconds

    def metrics(self, rounds: int) -> dict:
        """Per-layer metrics per round of the workload."""
        out = {}
        for (name, unit), (layer, stat) in zip(METRICS, PER_LAYER):
            out[name] = (getattr(self.stats[layer], stat) / rounds, unit)
        ee = self.stats["entropy.excess_entropy"].calls
        cv = self.stats["states.Spectrum.clustered_values"].calls
        out["states.Spectrum.clustered_values.per_excess_entropy"] = (
            cv / ee if ee else 0.0, "ratio")
        out["montecarlo.samples"] = (
            sum(s for s, _ in self.mc.values()) / rounds, "count/round")
        for mode, (samples, seconds) in self.mc.items():
            out[f"montecarlo.{mode}.ns_per_sample"] = (
                seconds / samples * 1e9 if samples else 0.0, "ns")
        return out
