"""Span tracer for the benchmark: wraps splitkern's public layer functions.

Spans are recorded around calls *into* each layer from the outside: every
wrapped function is rebound in every ``splitkern`` module that imported
it (``from .kernels import gram`` makes a second name for the same
function), so calls between modules land in their span too.  Spans stay
in memory and are written out once, when the traced run ends.

Self time of a span is its duration minus the time covered by its child
spans on the same thread.  Tasks handed to ``parallel_map`` run on pool
threads; each task gets a span whose uncovered time is credited to the
layer that called ``parallel_map`` (the task is that layer's own code, a
closure), so a layer's self time is summed over all threads.
"""

from __future__ import annotations

import itertools
import json
import os
import sys
import threading
import time

MAP = "_parallel.parallel_map"
TASK = "task"

# layer functions wrapped, as (module, function); the names of the
# reported per-layer metrics derive from these
TARGETS = [
    ("experiments", "gen_data"),
    ("experiments", "oracle_select"),
    ("experiments", "hk_error"),
    ("experiments", "l2_error"),
    ("kernels", "gram"),
    ("estimator", "spectral_model"),
    ("estimator", "fit_spectral"),
    ("estimator", "fit_iterative"),
    ("estimator", "predict"),
    ("filters", "filter_values"),
    ("distributed", "fit_distributed"),
    ("adaptivity", "fit_lattice"),
    ("adaptivity", "empirical_error"),
    ("cli", "main"),
]


def _arg(args, kwargs, pos, name):
    return kwargs[name] if name in kwargs else args[pos]


def _size(a) -> int:
    return int(getattr(a, "size", None) or len(a))


# work counts taken from a call's arguments: name -> fn(args, kwargs) -> dict
def _gram_work(a, kw):
    n = _size(_arg(a, kw, 1, "points"))
    return {"bytes": n * n * 8}        # computed: rows x cols x 8


def _spectral_model_work(a, kw):
    return {"n": _size(_arg(a, kw, 1, "x"))}


def _fit_iterative_work(a, kw):
    filt, lam = _arg(a, kw, 1, "filt"), _arg(a, kw, 2, "lam")
    return {"steps": int(filt.steps(lam))}


def _predict_work(a, kw):
    exp, x = _arg(a, kw, 0, "expansion"), _arg(a, kw, 1, "x")
    return {"evals": len(exp.points) * max(1, int(getattr(x, "size", 1)))}


def _fit_distributed_work(a, kw):
    return {"blocks": int(_arg(a, kw, 5, "part").m)}


WORK = {
    "kernels.gram": _gram_work,
    "estimator.spectral_model": _spectral_model_work,
    "estimator.fit_iterative": _fit_iterative_work,
    "estimator.predict": _predict_work,
    "distributed.fit_distributed": _fit_distributed_work,
}


class Tracer:
    """Collects spans ``[id, parent, name, tid, t0, t1, attrs]`` in memory."""

    def __init__(self):
        self.spans: list = []
        self._ids = itertools.count()
        self._local = threading.local()

    def _stack(self) -> list:
        st = getattr(self._local, "stack", None)
        if st is None:
            st = self._local.stack = []
        return st

    def _run(self, name, attrs, fn, args, kwargs, span_id=None, parent=None):
        stack = self._stack()
        if parent is None and stack:
            parent = stack[-1][0]
        span = [next(self._ids) if span_id is None else span_id, parent, name,
                threading.get_ident(), time.perf_counter(), None, attrs]
        stack.append(span)
        try:
            return fn(*args, **kwargs)
        finally:
            span[5] = time.perf_counter()
            stack.pop()
            self.spans.append(span)     # list.append is atomic under the GIL

    def _owner(self) -> str:
        """Layer whose code runs the tasks of a ``parallel_map`` call."""
        for span in reversed(self._stack()):
            if span[2] == TASK:
                return span[6]["owner"]
            if span[2] != MAP:
                return span[2]
        return "untraced"

    def _nested(self) -> bool:
        return any(s[2] in (MAP, TASK) for s in self._stack())

    def wrap(self, name, fn):
        work = WORK.get(name)

        def wrapper(*args, **kwargs):
            attrs = work(args, kwargs) if work else None
            return self._run(name, attrs, fn, args, kwargs)

        wrapper.__wrapped__ = fn
        return wrapper

    def wrap_map(self, fn, default_workers):
        def parallel_map(task_fn, items, workers=None):
            items = list(items)
            w = default_workers() if workers is None else int(workers)
            w = max(1, min(w, len(items) or 1))
            owner, outer = self._owner(), not self._nested()
            map_id = next(self._ids)
            entry = time.perf_counter()

            def task(item):
                attrs = {"owner": owner, "outer": outer,
                         "wait": time.perf_counter() - entry}
                return self._run(TASK, attrs, task_fn, (item,), {},
                                 parent=map_id)

            return self._run(MAP, {"workers": w, "outer": outer}, fn,
                             (task, items, workers), {}, span_id=map_id)

        parallel_map.__wrapped__ = fn
        return parallel_map

    def install(self) -> None:
        """Wrap every target and rebind it wherever splitkern imported it."""
        import importlib

        from splitkern import _parallel

        mods = [m for k, m in list(sys.modules.items())
                if k == "splitkern" or k.startswith("splitkern.")]
        swaps = []
        for mod_name, fn_name in TARGETS:
            mod = importlib.import_module(f"splitkern.{mod_name}")
            orig = getattr(mod, fn_name)
            swaps.append((orig, self.wrap(f"{mod_name}.{fn_name}", orig)))
        swaps.append((_parallel.parallel_map,
                      self.wrap_map(_parallel.parallel_map,
                                    _parallel.default_workers)))
        for orig, new in swaps:
            for mod in mods:
                for attr, val in list(vars(mod).items()):
                    if val is orig:
                        setattr(mod, attr, new)

    def write(self, path) -> None:
        os.makedirs(os.path.dirname(path), exist_ok=True)
        keys = ("id", "parent", "name", "tid", "t0", "t1", "attrs")
        with open(path, "w") as fh:
            for span in sorted(self.spans, key=lambda s: s[0]):
                fh.write(json.dumps(dict(zip(keys, span))) + "\n")

    def layer_metrics(self) -> dict:
        """Per-layer counts and self times of everything recorded so far."""
        spans = self.spans
        by_id = {s[0]: s for s in spans}
        covered: dict = {}
        for s in spans:
            p = by_id.get(s[1])
            if p is not None and p[3] == s[3]:
                covered[p[0]] = covered.get(p[0], 0.0) + (s[5] - s[4])

        out: dict = {}
        for mod_name, fn_name in TARGETS:
            out[f"{mod_name}.{fn_name}.calls"] = 0
            out[f"{mod_name}.{fn_name}.self_s"] = 0.0
        extra = {"kernels.gram.bytes": 0, "estimator.spectral_model.max_n": 0,
                 "estimator.fit_iterative.steps": 0,
                 "estimator.predict.evals": 0,
                 "distributed.fit_distributed.blocks": 0}
        map_wall = busy = wait = capacity = 0.0
        for s in spans:
            name, attrs = s[2], s[6]
            own = (s[5] - s[4]) - covered.get(s[0], 0.0)
            if name == MAP:
                if attrs["outer"]:
                    map_wall += s[5] - s[4]
                    capacity += attrs["workers"] * (s[5] - s[4])
                continue
            if name == TASK:
                if attrs["outer"]:
                    busy += s[5] - s[4]
                    wait += attrs["wait"]
                key = attrs["owner"] + ".self_s"
                if key in out:
                    out[key] += own
                continue
            out[name + ".calls"] += 1
            out[name + ".self_s"] += own
            if name == "kernels.gram":
                extra["kernels.gram.bytes"] += attrs["bytes"]
            elif name == "estimator.spectral_model":
                extra["estimator.spectral_model.max_n"] = max(
                    extra["estimator.spectral_model.max_n"], attrs["n"])
            elif name == "estimator.fit_iterative":
                extra["estimator.fit_iterative.steps"] += attrs["steps"]
            elif name == "estimator.predict":
                extra["estimator.predict.evals"] += attrs["evals"]
            elif name == "distributed.fit_distributed":
                extra["distributed.fit_distributed.blocks"] += attrs["blocks"]
        out.update(extra)
        out["adaptivity.levels"] = out["adaptivity.fit_lattice.calls"]
        out["parallel.parallel_map.wall_s"] = map_wall
        out["parallel.task_busy_s"] = busy
        out["parallel.task_wait_s"] = wait
        out["parallel.busy_frac"] = busy / capacity if capacity else 0.0
        return out
