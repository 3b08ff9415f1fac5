"""Span tracer that times stablesum's layers from outside the package.

`Tracer.install` replaces each function in TRACED, in every loaded stablesum
module namespace that binds it (``cli`` imports ``cdf`` and
``normalized_fdd_sample`` by name, ``linear_process`` imports
``sample_innovations``, ...), by a wrapper that records a span
``[name, start, end, parent]`` in memory; `uninstall` puts the originals
back.  Hooks derive work counts from each call's arguments and result.

A span's self time is its duration minus the durations of its direct
children.  Spans nest on one thread, so the self times of all spans under the
root ``cli`` span add up to the root's duration.
"""

from __future__ import annotations

import sys
import time
from collections import defaultdict


def _oracle(tracer, args, kwargs, result, duration):
    n = int(args[2] if len(args) > 2 else kwargs["N"])
    tracer.oracle_calls.append((n, duration, result.tail_bound))
    tracer.add("cf_oracle.j_depth.sum", result.j_depth)


def _count(key, of_result):
    def hook(tracer, args, kwargs, result, duration):
        tracer.add(key, of_result(args, result))
    return hook


def _fdd_bytes(tracer, args, kwargs, result, duration):
    # eps @ W per replicate reads K innovations and the K x m weight matrix
    # and writes m doubles; K = [N t_m] + M - 1
    process, n, fdd = args[:3]
    reps, m = result.shape
    k = int(float(n) * fdd.times[-1]) + int(process.truncation) - 1
    tracer.add("linear_process.fdd_sample.bytes", 8 * reps * (k + k * m + m))


def _layout(tracer, args, kwargs, result, duration):
    tracer.layout_specs.add(args[0])


# (module, function, span name, hook)
TRACED = [
    ("cf_oracle", "exact_fdd_log_cf", "cf_oracle.exact_log_cf", _oracle),
    ("slowly_varying", "coefficient_prefix_sums", "slowly_varying.prefix_sums",
     _count("slowly_varying.prefix_sums.elems", lambda a, r: len(r))),
    ("slowly_varying", "h_alpha_info", "slowly_varying.h_alpha",
     _count("slowly_varying.h_alpha.iters", lambda a, r: r.iterations)),
    ("stable_law", "sample", "stable_law.sample",
     _count("stable_law.sample.draws", lambda a, r: len(r))),
    ("stable_law", "cdf", "stable_law.cdf", None),
    ("innovations", "sample_innovations", "innovations.sample", None),
    ("innovations", "pareto_layout", "innovations.pareto_layout", _layout),
    ("linear_process", "normalized_fdd_sample", "linear_process.fdd_sample", _fdd_bytes),
    ("linear_process", "window_weights", "linear_process.window_weights", None),
    ("linear_process", "default_truncation_depth", "linear_process.truncation", None),
    ("linear_process", "truncation_tail", "linear_process.truncation_tail", None),
    ("verification", "ks_distance", "verification.ks",
     _count("verification.ks.points", lambda a, r: len(a[0]))),
    ("verification", "ecf", "verification.ecf", None),
]

MODULES = ("cli", "cf_oracle", "slowly_varying", "stable_law", "innovations",
           "linear_process", "verification")


class Tracer:
    def __init__(self):
        self.spans = []            # [name, start, end, parent index or -1]
        self.counts = defaultdict(float)
        self.oracle_calls = []     # (N, duration, tail_bound) per exact_fdd_log_cf
        self.layout_specs = set()
        self.missing = []          # TRACED functions the package no longer has
        self._stack = []
        self._undo = []

    def add(self, key, amount):
        self.counts[key] += amount

    def wrap(self, name, fn, hook=None):
        spans, stack = self.spans, self._stack

        def traced(*args, **kwargs):
            idx = len(spans)
            spans.append([name, time.perf_counter(), None, stack[-1] if stack else -1])
            stack.append(idx)
            try:
                result = fn(*args, **kwargs)
            finally:
                stack.pop()
                spans[idx][2] = time.perf_counter()
            if hook is not None:
                hook(self, args, kwargs, result, spans[idx][2] - spans[idx][1])
            return result

        return traced

    def install(self):
        modules = [m for key, m in list(sys.modules.items())
                   if m is not None and (key == "stablesum" or key.startswith("stablesum."))]
        for module_name, func_name, span, hook in TRACED:
            home = sys.modules.get(f"stablesum.{module_name}")
            original = getattr(home, func_name, None)
            if original is None:
                self.missing.append(f"{module_name}.{func_name}")
                continue
            wrapper = self.wrap(span, original, hook)
            for module in modules:
                for attr, value in list(vars(module).items()):
                    if value is original:
                        setattr(module, attr, wrapper)
                        self._undo.append((module, attr, original))

    def uninstall(self):
        for module, attr, original in reversed(self._undo):
            setattr(module, attr, original)
        self._undo.clear()

    def layer_metrics(self) -> dict:
        """Per-layer figures of every span recorded so far."""
        child = [0.0] * len(self.spans)
        for name, start, end, parent in self.spans:
            if parent >= 0:
                child[parent] += end - start
        total, own, calls = defaultdict(float), defaultdict(float), defaultdict(int)
        for (name, start, end, _), inner in zip(self.spans, child):
            total[name] += end - start
            own[name] += end - start - inner
            calls[name] += 1

        def per_call(n):
            times = [d for m, d, _ in self.oracle_calls if m == n]
            return sum(times) / len(times) if times else 0.0

        out = {
            "cf_oracle.exact_log_cf.self_s": own["cf_oracle.exact_log_cf"],
            "cf_oracle.exact_log_cf.calls": calls["cf_oracle.exact_log_cf"],
            "cf_oracle.tail_bound.max": max((b for *_, b in self.oracle_calls), default=0.0),
            "cf_oracle.exact_log_cf.n1e2_s": per_call(100),
            "cf_oracle.exact_log_cf.n1e4_s": per_call(10_000),
            "cf_oracle.exact_log_cf.n1e6_s": per_call(1_000_000),
            "slowly_varying.prefix_sums.s": total["slowly_varying.prefix_sums"],
            "slowly_varying.h_alpha.s": total["slowly_varying.h_alpha"],
            "stable_law.sample.s": total["stable_law.sample"],
            "stable_law.cdf.s": total["stable_law.cdf"],
            "stable_law.cdf.calls": calls["stable_law.cdf"],
            "innovations.sample.self_s": own["innovations.sample"],
            "innovations.pareto_layout.s": total["innovations.pareto_layout"],
            "innovations.pareto_layout.calls": calls["innovations.pareto_layout"],
            "innovations.pareto_layout.reuse": (
                len(self.layout_specs) / calls["innovations.pareto_layout"]
                if calls["innovations.pareto_layout"] else 0.0),
            "linear_process.fdd_sample.self_s": own["linear_process.fdd_sample"],
            "linear_process.window_weights.s": total["linear_process.window_weights"],
            "linear_process.truncation.s": total["linear_process.truncation"],
            "linear_process.truncation_tail.calls": calls["linear_process.truncation_tail"],
            "verification.ks.self_s": own["verification.ks"],
            "verification.ecf.s": total["verification.ecf"],
        }
        for key in ("cf_oracle.j_depth.sum", "slowly_varying.prefix_sums.elems",
                    "slowly_varying.h_alpha.iters", "stable_law.sample.draws",
                    "linear_process.fdd_sample.bytes", "verification.ks.points"):
            out[key] = self.counts[key]
        for module in MODULES:
            out[f"{module}.self_s"] = sum(t for name, t in own.items()
                                          if name.split(".")[0] == module)
        return out
