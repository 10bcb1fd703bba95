"""In-memory span tracer for the package's public layers.

`Tracer.installed(package)` wraps, for the duration of a `with` block:

- each public function in FUNCTIONS, in every module namespace of the
  package that bound it (a module that did `from .riccati import solve_dare`
  holds its own reference, so patching only `adaptive_lqr.riccati` would miss
  the calls made from `estimation` and `certificates`);
- the `__post_init__` validation of the value types in VALIDATED;
- the numpy.linalg kernels in KERNELS, as call counts without spans.

A span is (name, parent, start, end, error).  Spans stay in memory; the
per-layer metrics are computed from them at the end, a span's self time
being its duration minus the durations of its direct children.
"""

from __future__ import annotations

import functools
import json
import statistics
import sys
from collections import Counter, defaultdict
from contextlib import contextmanager
from time import perf_counter

import numpy as np

FUNCTIONS = {
    "riccati": ("riccati_step", "solve_dare", "check_membership", "q_from_p", "gain_from_q"),
    "estimation": ("update_correlations", "estimate_model", "solve_data_riccati",
                   "data_riccati_residual", "rho_of"),
    "controller": ("controller_step", "controller_observe", "excitation_sample"),
    "simulation": ("simulate", "disturbance_eval"),
    "certificates": ("corollary_bound_check", "sample_membership_plant", "random_plant",
                     "theorem1_margin", "lemma1_check", "lyapunov_decay_check"),
}
VALIDATED = {
    "riccati": ("PlantModel", "ValueMatrix", "QMatrix", "Gain"),
    "estimation": ("CorrelationState",),
    "controller": ("ControllerState",),
}
KERNELS = ("norm", "eigvalsh", "cond", "solve")

# Per-span statistics, reported as "<span name>.<statistic>".
_SPAN_STATS = {
    "riccati.riccati_step": ("calls", "self_s"),
    "riccati.solve_dare.warm": ("calls", "self_s"),
    "riccati.solve_dare.cold": ("calls", "self_s"),
    "riccati.check_membership": ("calls", "self_s"),
    "riccati.q_from_p": ("self_s",),
    "riccati.gain_from_q": ("self_s",),
    "riccati.validate": ("calls", "self_s"),
    "estimation.validate": ("calls", "self_s"),
    "controller.validate": ("calls", "self_s"),
    "estimation.update_correlations": ("self_s",),
    "estimation.solve_data_riccati": ("self_s",),
    "estimation.data_riccati_residual": ("self_s",),
    "estimation.rho_of": ("self_s",),
    "estimation.estimate_model": ("calls", "self_s", "failed"),
    "controller.controller_step": ("self_s",),
    "controller.controller_observe": ("self_s",),
    "controller.excitation_sample": ("self_s",),
    "simulation.simulate": ("self_s",),
    "simulation.disturbance_eval": ("self_s",),
    "certificates.corollary_bound_check": ("self_s",),
    "certificates.sample_membership_plant": ("self_s",),
    "certificates.theorem1_margin": ("self_s",),
    "certificates.lemma1_check": ("self_s",),
    "certificates.lyapunov_decay_check": ("self_s",),
}

UNITS = {
    **{f"{span}.{stat}": ("s" if stat == "self_s" else "count")
       for span, stats in _SPAN_STATS.items() for stat in stats},
    "riccati.solve_dare.warm.iters_mean": "count",
    "riccati.solve_dare.warm.iters_max": "count",
    "riccati.solve_dare.cold.iters_p50": "count",
    "riccati.solve_dare.cold.iters_max": "count",
    "riccati.solve_dare.failed": "count",
    "linalg.norm2.calls": "count",
    "linalg.eigvalsh.calls": "count",
    "linalg.cond.calls": "count",
    "linalg.solve.calls": "count",
    "controller.fallback_ratio": "ratio",
    "certificates.sample_membership_plant.tries_per_accept": "count",
    "trace.overhead_ratio": "ratio",
}


def _solve_dare_name(args, kwargs) -> str:
    p0 = kwargs.get("p0", args[3] if len(args) > 3 else None)
    return "riccati.solve_dare.cold" if p0 is None else "riccati.solve_dare.warm"


def _kernel_key(kernel):
    """Count key of a numpy.linalg call; spectral norms (ord=2) count apart."""
    if kernel != "norm":
        return lambda args, kwargs: f"linalg.{kernel}"
    return lambda args, kwargs: ("linalg.norm2" if (args[1] if len(args) > 1 else kwargs.get("ord")) == 2
                                 else "linalg.norm")


class Tracer:
    """Records spans and counts while installed; see the module docstring."""

    def __init__(self):
        self.spans: list[list] = []     # [name, parent index or -1, start, end, error type]
        self.counts: Counter = Counter()
        self._stack: list[int] = []

    def wrap(self, name, fn, on_result=None):
        """`fn` recording one span per call; `name` may be a callable of (args, kwargs)."""
        spans, stack = self.spans, self._stack

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            span = [name(args, kwargs) if callable(name) else name,
                    stack[-1] if stack else -1, 0.0, 0.0, None]
            stack.append(len(spans))
            spans.append(span)
            span[2] = perf_counter()
            try:
                result = fn(*args, **kwargs)
            except BaseException as exc:
                span[4] = type(exc).__name__
                raise
            finally:
                span[3] = perf_counter()
                stack.pop()
            if on_result is not None:
                on_result(result)
            return result

        return traced

    def _count(self, fn, key):
        counts = self.counts

        @functools.wraps(fn)
        def counted(*args, **kwargs):
            counts[key(args, kwargs)] += 1
            return fn(*args, **kwargs)

        return counted

    def _on_step(self, result):
        self.counts["controller.fallback"] += bool(result[2].fallback)

    @contextmanager
    def installed(self, package):
        """Install every wrapper for the duration of the block, then restore."""
        prefix = package.__name__
        modules = [m for name, m in list(sys.modules.items())
                   if name == prefix or name.startswith(prefix + ".")]
        undo = []

        def patch(owner, attr, new):
            undo.append((owner, attr, owner.__dict__[attr]))
            setattr(owner, attr, new)

        try:
            for mod_name, names in FUNCTIONS.items():
                home = sys.modules[f"{prefix}.{mod_name}"]
                for fname in names:
                    orig = getattr(home, fname)
                    name = _solve_dare_name if fname == "solve_dare" else f"{mod_name}.{fname}"
                    on_result = self._on_step if fname == "controller_step" else None
                    wrapped = self.wrap(name, orig, on_result)
                    for mod in modules:
                        if mod.__dict__.get(fname) is orig:
                            patch(mod, fname, wrapped)
            for mod_name, classes in VALIDATED.items():
                home = sys.modules[f"{prefix}.{mod_name}"]
                for cls_name in classes:
                    cls = getattr(home, cls_name)
                    patch(cls, "__post_init__",
                          self.wrap(f"{mod_name}.validate", cls.__dict__["__post_init__"]))
            for kernel in KERNELS:
                patch(np.linalg, kernel, self._count(getattr(np.linalg, kernel), _kernel_key(kernel)))
            yield self
        finally:
            for owner, attr, orig in reversed(undo):
                setattr(owner, attr, orig)

    # -- results ----------------------------------------------------------

    def summary(self) -> dict:
        """Per span name: calls, total and self seconds, errors by type."""
        spans = self.spans
        child_s = [0.0] * len(spans)
        for name, parent, start, end, _ in spans:
            if parent >= 0:
                child_s[parent] += end - start
        out = defaultdict(lambda: {"calls": 0, "total_s": 0.0, "self_s": 0.0, "errors": Counter()})
        for (name, _, start, end, error), child in zip(spans, child_s):
            s = out[name]
            s["calls"] += 1
            s["total_s"] += end - start
            s["self_s"] += end - start - child
            if error is not None:
                s["errors"][error] += 1
        return {name: {**s, "errors": dict(s["errors"])} for name, s in sorted(out.items())}

    def _children(self, parent_name, child_name) -> list[int]:
        """For each span named parent_name, the number of direct children named child_name."""
        index = {i: 0 for i, span in enumerate(self.spans) if span[0] == parent_name}
        for name, parent, *_ in self.spans:
            if name == child_name and parent in index:
                index[parent] += 1
        return list(index.values())

    def metrics(self, overhead_ratio: float) -> dict:
        """Every per-layer metric of UNITS, as {name: value}."""
        summary = self.summary()
        empty = {"calls": 0, "self_s": 0.0, "errors": {}}

        def stat(span_name, key):
            s = summary.get(span_name, empty)
            return sum(s["errors"].values()) if key == "failed" else s[key]

        values = {f"{span}.{key}": stat(span, key)
                  for span, keys in _SPAN_STATS.items() for key in keys}
        warm = self._children("riccati.solve_dare.warm", "riccati.riccati_step")
        cold = self._children("riccati.solve_dare.cold", "riccati.riccati_step")
        values["riccati.solve_dare.warm.iters_mean"] = statistics.fmean(warm) if warm else 0.0
        values["riccati.solve_dare.warm.iters_max"] = max(warm, default=0)
        values["riccati.solve_dare.cold.iters_p50"] = statistics.median(cold) if cold else 0.0
        values["riccati.solve_dare.cold.iters_max"] = max(cold, default=0)
        values["riccati.solve_dare.failed"] = (stat("riccati.solve_dare.warm", "failed")
                                               + stat("riccati.solve_dare.cold", "failed"))
        for kernel in ("norm2", "eigvalsh", "cond", "solve"):
            values[f"linalg.{kernel}.calls"] = self.counts[f"linalg.{kernel}"]
        steps = stat("controller.controller_step", "calls")
        values["controller.fallback_ratio"] = self.counts["controller.fallback"] / steps if steps else 0.0
        sampler = "certificates.sample_membership_plant"
        accepted = stat(sampler, "calls") - stat(sampler, "failed")
        tries = sum(self._children(sampler, "certificates.random_plant"))
        values["certificates.sample_membership_plant.tries_per_accept"] = (
            tries / accepted if accepted else 0.0)
        values["trace.overhead_ratio"] = overhead_ratio
        return {name: values[name] for name in UNITS}

    def write_spans(self, path) -> None:
        """Spans as JSON: a name table and one [name id, parent, start, end, error] row each."""
        names = sorted({s[0] for s in self.spans})
        ids = {n: i for i, n in enumerate(names)}
        with open(path, "w") as fh:
            json.dump({"names": names,
                       "columns": ["name", "parent", "start_s", "end_s", "error"],
                       "spans": [[ids[n], p, s, e, err] for n, p, s, e, err in self.spans]}, fh)
