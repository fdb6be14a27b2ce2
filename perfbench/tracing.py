"""Outside-in tracing of the emq layers.

The wrappers are installed from the benchmark's own files: every public
function named in TARGETS is replaced, in every ``emq.*`` module namespace
that binds it, by a wrapper that counts each call and times only the
outermost call of that function.  Timing every recursive ``normalize`` or
``evaluate`` call would multiply the overhead; counting them costs one
increment.

A span's self time is its duration minus the durations of the instrumented
spans nested inside it.  Wrappers pass arguments, results and exceptions
through unchanged.  The one deliberate difference is in
``SampleDomain.sample``: when the caller passes no generator, the wrapper
passes ``_CountingRandom(seed)``, which draws the same sequence as
``random.Random(seed)`` while counting the candidate points drawn.
"""

from __future__ import annotations

import importlib
import random
import sys
import time
from collections import defaultdict

# (module, attribute, span name); "Class.method" attributes patch the class
TARGETS = (
    ("emq.cli", "cmd_verify", "cli.cmd_verify"),
    ("emq.cli", "cmd_reduce", "cli.cmd_reduce"),
    ("emq.cli", "cmd_propagate", "cli.cmd_propagate"),
    ("emq.cli", "cmd_anomaly", "cli.cmd_anomaly"),
    ("emq.sysfile", "loads_model", "sysfile.load"),
    ("emq.expr", "parse", "expr.parse"),
    ("emq.expr", "normalize", "expr.normalize"),
    ("emq.expr", "differentiate", "expr.differentiate"),
    ("emq.expr", "substitute", "expr.substitute"),
    ("emq.expr", "expand", "expr.expand"),
    ("emq.expr", "evaluate", "expr.evaluate"),
    ("emq.expr", "SampleDomain.sample", "expr.sample"),
    ("emq.expr", "numeric_compare", "expr.numeric_compare"),
    ("emq.symplectic", "verify_charges", "symplectic.verify_charges"),
    ("emq.symplectic", "split_hamiltonian", "symplectic.split_hamiltonian"),
    ("emq.symplectic", "poisson_bracket", "symplectic.poisson_bracket"),
    ("emq.reduction", "run_reduction", "reduction.run_reduction"),
    ("emq.reduction", "eliminate_primary", "reduction.eliminate_primary"),
    ("emq.reduction", "apply_darboux", "reduction.apply_darboux"),
    ("emq.reduction", "verify_canonicity", "reduction.verify_canonicity"),
    ("emq.reduction", "eliminate_z", "reduction.eliminate_z"),
    ("emq.reduction", "jacobi_liouville_check",
     "reduction.jacobi_liouville_check"),
    ("emq.pathint", "propagate_quantum", "pathint.propagate_quantum"),
    ("emq.pathint", "sample_thermal_paths", "pathint.thermal_paths"),
    ("emq.anomaly", "consistency_report", "anomaly.consistency_report"),
    ("emq.anomaly", "GeneratingFunction.is_quadratic", "anomaly.is_quadratic"),
    ("emq.anomaly", "anomaly_coefficients", "anomaly.anomaly_coefficients"),
    ("emq.anomaly", "constraint_surface_vanishing",
     "anomaly.constraint_surface_vanishing"),
    ("emq.anomaly", "sliced_expansion_check",
     "anomaly.sliced_expansion_check"),
    ("emq.anomaly", "correction_scaling", "anomaly.correction_scaling"),
)

# per-layer metrics: (name, unit), in report order
LAYER_METRICS = (
    ("cli.import_s", "s"),
    ("cli.cmd_verify.self_s", "s"),
    ("cli.cmd_reduce.self_s", "s"),
    ("cli.cmd_propagate.self_s", "s"),
    ("cli.cmd_anomaly.self_s", "s"),
    ("sysfile.load.calls", "count"),
    ("sysfile.load.self_s", "s"),
    ("expr.parse.calls", "count"),
    ("expr.parse.self_s", "s"),
    ("expr.normalize.calls", "count"),
    ("expr.normalize.self_s", "s"),
    ("expr.differentiate.calls", "count"),
    ("expr.differentiate.self_s", "s"),
    ("expr.substitute.calls", "count"),
    ("expr.substitute.self_s", "s"),
    ("expr.expand.calls", "count"),
    ("expr.expand.self_s", "s"),
    ("expr.evaluate.calls", "count"),
    ("expr.evaluate.self_s", "s"),
    ("expr.sample.calls", "count"),
    ("expr.sample.points", "count"),
    ("expr.sample.self_s", "s"),
    ("expr.sample.accept_ratio", "ratio"),
    ("expr.numeric_compare.calls", "count"),
    ("expr.numeric_compare.points", "count"),
    ("expr.numeric_compare.self_s", "s"),
    ("symplectic.verify_charges.self_s", "s"),
    ("symplectic.split_hamiltonian.self_s", "s"),
    ("symplectic.poisson_bracket.calls", "count"),
    ("symplectic.poisson_bracket.self_s", "s"),
    ("reduction.run_reduction.calls", "count"),
    ("reduction.eliminate_primary.self_s", "s"),
    ("reduction.apply_darboux.self_s", "s"),
    ("reduction.verify_canonicity.self_s", "s"),
    ("reduction.eliminate_z.self_s", "s"),
    ("reduction.jacobi_liouville_check.self_s", "s"),
    ("pathint.propagate_quantum.calls", "count"),
    ("pathint.propagate_imag.self_s", "s"),
    ("pathint.propagate_real.self_s", "s"),
    ("pathint.propagate_classical.self_s", "s"),
    ("pathint.grid_points", "count"),
    ("pathint.split_steps", "count"),
    ("pathint.thermal_paths.self_s", "s"),
    ("pathint.thermal_paths.samples", "count"),
    ("anomaly.consistency_report.self_s", "s"),
    ("anomaly.is_quadratic.calls", "count"),
    ("anomaly.is_quadratic.self_s", "s"),
    ("anomaly.anomaly_coefficients.self_s", "s"),
    ("anomaly.constraint_surface_vanishing.self_s", "s"),
    ("anomaly.sliced_expansion_check.self_s", "s"),
    ("anomaly.correction_scaling.self_s", "s"),
    ("trace.overhead_ratio", "ratio"),
)

_MODE_SPANS = {"imaginary": "pathint.propagate_imag",
               "real": "pathint.propagate_real",
               "classical": "pathint.propagate_classical"}


class _CountingRandom(random.Random):
    """random.Random that counts uniform() draws; same sequence per seed."""

    def __init__(self, seed):
        super().__init__(seed)
        self.draws = 0

    def uniform(self, a, b):
        self.draws += 1
        return super().uniform(a, b)


class Tracer:
    """Counts, self times and work counters of the wrapped emq functions."""

    def __init__(self):
        self.self_s = defaultdict(float)
        self.work = defaultdict(float)
        self._stack = []
        self._patches = []
        self._cells = []

    # -- installation --------------------------------------------------------

    def install(self) -> None:
        for module_name, attr, span in TARGETS:
            module = importlib.import_module(module_name)
            if "." in attr:
                cls_name, meth = attr.split(".")
                cls = getattr(module, cls_name)
                original = cls.__dict__[meth]
                self._patch(cls, meth, self._wrap(original, span, attr))
                continue
            original = getattr(module, attr)
            wrapper = self._wrap(original, span, attr)
            for mod_name, mod in list(sys.modules.items()):
                if mod is None or not (mod_name == "emq"
                                       or mod_name.startswith("emq.")):
                    continue
                for name, value in list(vars(mod).items()):
                    if value is original:
                        self._patch(mod, name, wrapper)

    def uninstall(self) -> None:
        for owner, name, original in reversed(self._patches):
            setattr(owner, name, original)
        self._patches.clear()

    def _patch(self, owner, name, wrapper) -> None:
        self._patches.append((owner, name, getattr(owner, name)))
        setattr(owner, name, wrapper)

    def _wrap(self, fn, span, attr):
        if attr == "SampleDomain.sample":
            fn = self._counting_sample(fn)
        elif attr == "numeric_compare":
            fn = self._counting_compare(fn)
        elif attr == "propagate_quantum":
            return self._propagate_wrapper(fn, span)
        elif attr == "sample_thermal_paths":
            fn = self._counting_paths(fn)
        return self._timed(fn, span)

    def _timed(self, fn, span):
        """Count every call; time the outermost one and charge its self time."""
        count = [0]
        active = [False]
        stack = self._stack
        self_s = self.self_s
        clock = time.perf_counter
        self._cells.append((span, count))

        def wrapper(*args, **kwargs):
            count[0] += 1
            if active[0]:
                return fn(*args, **kwargs)
            active[0] = True
            nested = [0.0]
            stack.append(nested)
            t0 = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                took = clock() - t0
                stack.pop()
                active[0] = False
                self_s[span] += took - nested[0]
                if stack:
                    stack[-1][0] += took

        return wrapper

    # -- per-function work counters -------------------------------------------

    def _counting_sample(self, fn):
        work = self.work

        def sample(self_, n, seed=0, rng=None):
            if rng is not None:
                return fn(self_, n, seed=seed, rng=rng)
            counting = _CountingRandom(seed)
            points = fn(self_, n, seed=seed, rng=counting)
            work["expr.sample.points"] += len(points)
            work["expr.sample.drawn"] += (counting.draws
                                          / max(1, len(self_.ranges)))
            return points

        return sample

    def _counting_compare(self, fn):
        work = self.work

        def numeric_compare(*args, **kwargs):
            result = fn(*args, **kwargs)
            work["expr.numeric_compare.points"] += result.n_points
            return result

        return numeric_compare

    def _counting_paths(self, fn):
        work = self.work

        def sample_thermal_paths(*args, **kwargs):
            paths = fn(*args, **kwargs)
            work["pathint.thermal_paths.samples"] += paths.shape[0]
            return paths

        return sample_thermal_paths

    def _propagate_wrapper(self, fn, span):
        """propagate_quantum: one span per lattice mode, plus work counts."""
        count = [0]
        self._cells.append((span, count))
        timed = {mode: self._timed(fn, name)
                 for mode, name in _MODE_SPANS.items()}
        work = self.work

        def propagate_quantum(*args, **kwargs):
            count[0] += 1
            cfg = args[1] if len(args) > 1 else kwargs["cfg"]
            if cfg.mode == "imaginary":
                work["pathint.grid_points"] += cfg.n
            elif cfg.mode == "real":
                work["pathint.split_steps"] += cfg.n * cfg.slices
            return timed[cfg.mode](*args, **kwargs)

        return propagate_quantum

    # -- results --------------------------------------------------------------

    def snapshot(self) -> dict:
        """Raw totals of calls, self time and work counts."""
        calls = defaultdict(int)
        for span, cell in self._cells:
            calls[span] += cell[0]
        return {"calls": dict(calls), "self_s": dict(self.self_s),
                "work": dict(self.work)}


def layer_metrics(totals: dict, import_s: float, overhead_ratio: float) -> dict:
    """The per-layer metric table from merged tracer totals."""
    calls, self_s, work = totals["calls"], totals["self_s"], totals["work"]
    values = {"cli.import_s": import_s, "trace.overhead_ratio": overhead_ratio}
    drawn = work.get("expr.sample.drawn", 0.0)
    values["expr.sample.accept_ratio"] = (
        work.get("expr.sample.points", 0.0) / drawn if drawn else 0.0)
    for name, _ in LAYER_METRICS:
        if name in values:
            continue
        if name.endswith(".calls"):
            values[name] = calls.get(name[:-len(".calls")], 0)
        elif name.endswith(".self_s"):
            values[name] = self_s.get(name[:-len(".self_s")], 0.0)
        else:
            values[name] = work.get(name, 0.0)
    return values
