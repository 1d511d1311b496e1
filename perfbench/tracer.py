"""Per-layer tracing of the leadersel package, applied from outside it.

Every public function of each layer module is wrapped in every
``leadersel`` module namespace that holds it (modules bind names with
``from .linalg import ...``), and the public methods and cached
properties of the traced classes are wrapped on the class.  Nothing in
the package is edited: ``install`` patches, ``uninstall`` puts the
originals back, so untraced passes run the bare code.

A wrapped call records its count, total time and self time (its time
minus the time of wrapped calls made inside it).  A few calls also feed
work counters taken from their arguments or results.  Spans are kept in
memory and written out once, when the run ends.
"""

from __future__ import annotations

import importlib
import inspect
import json
import sys
from functools import cached_property, wraps
from pathlib import Path
from time import perf_counter

PACKAGE = "leadersel"
# The package modules, one layer each.
LAYERS = (
    "cli", "experiments", "graphs", "system", "linalg",
    "stability", "coherence", "selection", "simulate",
)
# Classes whose methods are wrapped on the class itself.
TRACED_CLASSES = {"coherence": ("SystemContext",)}


def _arg(args, kwargs, index, name):
    return kwargs[name] if name in kwargs else args[index]


def _n3(args, kwargs, result):
    return {"n3_sum": _arg(args, kwargs, 0, "m").shape[0] ** 3}


def _min_denominator(args, kwargs, result):
    inv = _arg(args, kwargs, 0, "inv")
    index = _arg(args, kwargs, 1, "index")
    scale = _arg(args, kwargs, 2, "scale")
    return {"min_denominator": 1.0 + scale * float(inv[index, index])}


def _max_dim(args, kwargs, result):
    return {"max_dim": _arg(args, kwargs, 0, "a").shape[0]}


def _evaluations(args, kwargs, result):
    return {"evaluations": result.evaluations}


def _subsets(args, kwargs, result):
    return {"subsets": result.evaluations}


def _euler_steps(args, kwargs, result):
    spec = _arg(args, kwargs, 0, "spec")
    return {"euler_steps": spec.steps * spec.ensemble}


# Work counters read from a traced call: function -> extractor.  The
# extractor returns {counter: amount}; how each counter combines across
# calls is given by COMBINE.
EXTRACTORS = {
    "linalg.sym_eigenvalues": _n3,
    "linalg.sherman_morrison_update": _min_denominator,
    "linalg.lyapunov_solve": _max_dim,
    "selection.greedy_select": _evaluations,
    "selection.exhaustive_select": _subsets,
    "simulate.simulate_coherence": _euler_steps,
}
COMBINE = {"min_denominator": min, "max_dim": max}

# Counters that must repeat exactly between runs of the same inputs.
EXACT_STATS = ("calls", "n3_sum", "evaluations", "subsets", "euler_steps")


class Tracer:
    """Wraps the package's public functions and aggregates what they do."""

    def __init__(self):
        self.targets = {}      # traced name -> (owner kind, owner, attribute, original)
        self.patches = []      # (owner, attribute, original) to restore
        self.broken = set()    # traced names whose counter extraction failed
        self.keep_spans = False
        self.spans = []
        self._stack = []
        self._next_id = 0
        self.job = -1
        self.reset()
        self._discover()

    # -- discovery and patching ------------------------------------------

    def _discover(self) -> None:
        for layer in LAYERS:
            try:
                module = importlib.import_module(f"{PACKAGE}.{layer}")
            except ImportError:
                continue  # a deleted layer shows up as missing metrics
            for attr, obj in vars(module).items():
                if (not attr.startswith("_") and inspect.isfunction(obj)
                        and obj.__module__ == module.__name__):
                    self.targets[f"{layer}.{attr}"] = ("function", module, attr, obj)
            for cls_name in TRACED_CLASSES.get(layer, ()):
                cls = getattr(module, cls_name, None)
                if cls is None:
                    continue
                for attr, obj in vars(cls).items():
                    if attr.startswith("_"):
                        continue
                    if inspect.isfunction(obj) or isinstance(obj, cached_property):
                        self.targets[f"{layer}.{cls_name}.{attr}"] = ("class", cls, attr, obj)

    def install(self) -> None:
        if self.patches:
            return
        package_modules = [
            mod for name, mod in list(sys.modules.items())
            if mod is not None and (name == PACKAGE or name.startswith(PACKAGE + "."))
        ]
        for name, (kind, owner, attr, original) in self.targets.items():
            if kind == "class":
                if isinstance(original, cached_property):
                    replacement = cached_property(self._wrap(name, original.func))
                    replacement.__set_name__(owner, attr)
                else:
                    replacement = self._wrap(name, original)
                setattr(owner, attr, replacement)
                self.patches.append((owner, attr, original))
                continue
            wrapper = self._wrap(name, original)
            for mod in package_modules:
                namespace = vars(mod)
                for key, value in list(namespace.items()):
                    if value is original:
                        namespace[key] = wrapper
                        self.patches.append((mod, key, original))

    def uninstall(self) -> None:
        for owner, attr, original in reversed(self.patches):
            if inspect.ismodule(owner):
                vars(owner)[attr] = original
            else:
                setattr(owner, attr, original)
        self.patches = []

    def _wrap(self, name, fn):
        tracer = self
        extract = EXTRACTORS.get(name)

        @wraps(fn)
        def traced(*args, **kwargs):
            stack = tracer._stack
            span_id = tracer._next_id
            tracer._next_id += 1
            parent = stack[-1][1] if stack else -1
            frame = [0.0, span_id]
            stack.append(frame)
            start = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = perf_counter()
                stack.pop()
                duration = end - start
                row = tracer.stats.setdefault(name, [0, 0.0, 0.0])
                row[0] += 1
                row[1] += duration
                row[2] += duration - frame[0]
                if stack:
                    stack[-1][0] += duration
                if tracer.keep_spans:
                    tracer.spans.append((span_id, parent, tracer.job, name, start, end))
            if extract is not None:
                tracer._count(name, extract, args, kwargs, result)
            return result

        return traced

    def _count(self, name, extract, args, kwargs, result) -> None:
        try:
            amounts = extract(args, kwargs, result)
        except Exception:  # a refactored signature must not crash the run
            self.broken.add(name)
            return
        for counter, amount in amounts.items():
            key = f"{name}.{counter}"
            combine = COMBINE.get(counter)
            if key not in self.counters:
                self.counters[key] = amount
            elif combine is None:
                self.counters[key] += amount
            else:
                self.counters[key] = combine(self.counters[key], amount)

    # -- aggregation ------------------------------------------------------

    def reset(self) -> None:
        """Start a fresh aggregation window (spans are kept)."""
        self.stats = {}
        self.counters = {}

    def snapshot(self) -> dict:
        """Per-window values: '<name>.calls|s|self_s' plus work counters."""
        out = {}
        for name, (calls, total, self_time) in self.stats.items():
            out[f"{name}.calls"] = calls
            out[f"{name}.s"] = total
            out[f"{name}.self_s"] = self_time
        out.update(self.counters)
        return out

    def value(self, snapshot: dict, metric: str):
        """Value of a per-layer metric in a snapshot, or None when missing.

        A traced name that exists but was not called reads 0; a name the
        package no longer defines, or whose counter could not be read,
        reads None (missing), never 0.
        """
        if metric in DERIVED:
            return DERIVED[metric](self, snapshot)
        target, _, stat = metric.rpartition(".")
        if target not in self.targets:
            return None
        if stat not in ("calls", "s", "self_s"):
            if target in self.broken:
                return None
            if target not in EXTRACTORS:
                return None
        return snapshot.get(metric, 0)

    def write_spans(self, path: Path) -> None:
        names = sorted({span[3] for span in self.spans})
        index = {name: i for i, name in enumerate(names)}
        rows = [[sid, parent, job, index[name], round(start, 7), round(end - start, 7)]
                for sid, parent, job, name, start, end in self.spans]
        payload = {"columns": ["id", "parent", "job", "name", "start_s", "duration_s"],
                   "names": names, "spans": rows}
        path.write_text(json.dumps(payload, separators=(",", ":")) + "\n")


def _ratio(numerator_metric, denominator_metric, scale):
    def derive(tracer: Tracer, snapshot: dict):
        top = tracer.value(snapshot, numerator_metric)
        bottom = tracer.value(snapshot, denominator_metric)
        if top is None or bottom is None:
            return None
        return scale * top / bottom if bottom else 0.0
    return derive


# Per-layer metrics that combine several traced values.  A ratio whose
# denominator is 0 (the layer did no such work on this workload) reads 0.
DERIVED = {
    "selection.exhaustive_select.us_per_subset": _ratio(
        "selection.exhaustive_select.s", "selection.exhaustive_select.subsets", 1e6),
    "simulate.euler_steps": lambda tracer, snap: tracer.value(
        snap, "simulate.simulate_coherence.euler_steps"),
    "simulate.us_per_step": _ratio(
        "simulate.simulate_coherence.s", "simulate.simulate_coherence.euler_steps", 1e6),
}


def is_exact(metric: str) -> bool:
    return metric.rpartition(".")[2] in EXACT_STATS
