"""Span tracing of the hwnas package from outside, for the traced run only.

`Tracer.install()` replaces the public functions of each hwnas module with
wrappers that record one span per call: name, start, end, parent span and
whether the call raised. A name bound into another module by
`from .graph import output_shape` is a separate reference, so every hwnas
module's namespace is searched for the original function object and each
binding is replaced. `uninstall()` puts every original back, so untraced
passes run the unmodified code.

Span names are the layer metric names without their suffix; functions that
share a name (e.g. `save_lut` and `load_lut` as `latency.lut_io`) add up.
"""

from __future__ import annotations

import contextlib
import json
import sys
from collections import defaultdict

# (module, function names, span name)
FUNCTIONS = [
    ("graph", ["output_shape"], "graph.output_shape"),
    ("graph", ["validate"], "graph.validate"),
    ("graph", ["save_net", "load_net"], "graph.net_io"),
    ("nncore", ["sgd_step"], "nncore.sgd_step"),
    ("nncore", ["loss_ce", "loss_mse"], "nncore.loss"),
    ("nncore", ["save_checkpoint", "load_checkpoint"], "nncore.checkpoint_io"),
    ("search", ["train_search"], "search.train_search"),
    ("search", ["total_loss"], "search.total_loss"),
    ("search", ["train_compact"], "search.train_compact"),
    ("search", ["accuracy"], "search.accuracy"),
    ("search", ["derive_compact"], "search.derive_compact"),
    ("latency", ["expected_network_latency", "latency_alpha_grad",
                 "stage_latency_vectors", "fixed_latency", "compact_latency"],
     "latency"),
    ("latency", ["save_lut", "load_lut"], "latency.lut_io"),
    ("profiler", ["build_lut"], "profiler.build_lut"),
    ("profiler", ["calibrate"], "profiler.calibrate"),
    ("costmodel", ["simulate_records"], "costmodel.simulate_records"),
    ("costmodel", ["train_cost_model"], "costmodel.train"),
    ("costmodel", ["lut_from_model"], "costmodel.lut_from_model"),
    ("datasets", ["generate_classification_dataset", "generate_sr_dataset"],
     "datasets.generate"),
    ("lint", ["lint_network"], "lint.lint_network"),
    ("cli", ["write_manifest", "content_hash"], "cli.manifest"),
]

# (module, class, method, span name or callable(self) -> span name)
METHODS = [
    ("nncore", "ModuleInstance", "forward",
     lambda self: "nncore.fwd." + self.spec.kind.value),
    ("nncore", "ModuleInstance", "backward",
     lambda self: "nncore.bwd." + self.spec.kind.value),
    ("profiler", "SimulatedVPU", "run", "profiler.device_run"),
    ("profiler", "ExternalCommandRunner", "run", "profiler.device_run"),
]

# Counts taken from a call's result rather than from its span.
RESULT_COUNTS = {"costmodel.simulate_records": ("costmodel.records", len)}


class Span:
    __slots__ = ("name", "parent", "nested", "start", "end", "failed")

    def __init__(self, name, parent, nested):
        self.name, self.parent, self.nested = name, parent, nested
        self.start = self.end = 0.0
        self.failed = False


class Tracer:
    """Records spans with parent links while installed and not paused.
    Span times are read from `clock`."""

    def __init__(self, clock):
        self._clock = clock
        self.spans = []
        self.counts = defaultdict(int)
        self._stack = []
        self._active = defaultdict(int)
        self._restore = []
        self._paused = False

    # -- recording ---------------------------------------------------------

    def _call(self, name, fn, args, kwargs):
        if self._paused:
            return fn(*args, **kwargs)
        span = Span(name, self._stack[-1] if self._stack else None,
                    self._active[name] > 0)
        self.spans.append(span)
        self._stack.append(span)
        self._active[name] += 1
        span.start = self._clock()
        try:
            result = fn(*args, **kwargs)
        except BaseException:
            span.failed = True
            raise
        finally:
            span.end = self._clock()
            self._active[name] -= 1
            self._stack.pop()
        if name in RESULT_COUNTS:
            counter, measure = RESULT_COUNTS[name]
            self.counts[counter] += measure(result)
        return result

    def _wrap_function(self, name, fn):
        def traced(*args, **kwargs):
            return self._call(name, fn, args, kwargs)
        traced.__wrapped__ = fn
        return traced

    def _wrap_method(self, name_of, fn):
        def traced(obj, *args, **kwargs):
            return self._call(name_of(obj), fn, (obj,) + args, kwargs)
        traced.__wrapped__ = fn
        return traced

    @contextlib.contextmanager
    def paused(self):
        """Run hwnas code without recording it (the benchmark's own checks)."""
        self._paused = True
        try:
            yield
        finally:
            self._paused = False

    def take(self):
        """Return and clear the spans and counts recorded so far."""
        spans, counts = self.spans, dict(self.counts)
        self.spans, self.counts = [], defaultdict(int)
        return spans, counts

    # -- patching ----------------------------------------------------------

    def install(self):
        modules = [m for n, m in sys.modules.items()
                   if n == "hwnas" or n.startswith("hwnas.")]
        for mod_name, fn_names, span in FUNCTIONS:
            home = sys.modules["hwnas." + mod_name]
            for fn_name in fn_names:
                original = getattr(home, fn_name)
                wrapper = self._wrap_function(span, original)
                for mod in modules:
                    for attr, value in list(vars(mod).items()):
                        if value is original:
                            self._restore.append((mod, attr, original))
                            setattr(mod, attr, wrapper)
        for mod_name, cls_name, meth, span in METHODS:
            cls = getattr(sys.modules["hwnas." + mod_name], cls_name)
            original = cls.__dict__[meth]
            name_of = span if callable(span) else (lambda _obj, s=span: s)
            self._restore.append((cls, meth, original))
            setattr(cls, meth, self._wrap_method(name_of, original))

    def uninstall(self):
        for owner, attr, original in reversed(self._restore):
            setattr(owner, attr, original)
        self._restore = []


def summarize(spans, counts):
    """Per-name totals of one pass.

    Returns {name: {"s", "self_s", "calls", "failed"}} where `s` sums the
    outermost spans of that name (a span nested in a same-name span is not
    counted twice), `self_s` is span time minus the time of child spans,
    plus "<parent>><child>" call counts and the top-level span time under
    the key "": {"s": covered seconds}.
    """
    child = defaultdict(float)
    for sp in spans:
        if sp.parent is not None:
            child[id(sp.parent)] += sp.end - sp.start
    out = defaultdict(lambda: {"s": 0.0, "self_s": 0.0, "calls": 0, "failed": 0})
    covered = 0.0
    for sp in spans:
        dur = sp.end - sp.start
        agg = out[sp.name]
        agg["calls"] += 1
        agg["failed"] += sp.failed
        agg["self_s"] += dur - child[id(sp)]
        if not sp.nested:
            agg["s"] += dur
        if sp.parent is None:
            covered += dur
        else:
            out[sp.parent.name + ">" + sp.name]["calls"] += 1
    out[""]["s"] = covered
    for name, value in counts.items():
        out[name]["calls"] += value
    return out


def dump(spans, path):
    """Write spans as JSON lines; `parent` is the line index of the parent."""
    index = {id(sp): i for i, sp in enumerate(spans)}
    with open(path, "w", encoding="utf-8") as fh:
        for sp in spans:
            fh.write(json.dumps({"name": sp.name, "start": sp.start, "end": sp.end,
                                 "parent": index.get(id(sp.parent)),
                                 "failed": sp.failed}) + "\n")
