"""Traced run of the ilcset CLI: per-layer spans and call counters.

Run as a child process with the checkout's ``src`` on ``PYTHONPATH``::

    python perfbench/tracer.py OUT.json run --preset example1 --iterations 5

The tracer imports every layer module of ``ilcset``, replaces each public
function (and the few extras below) with a timing wrapper on *every*
``ilcset`` module that bound it -- ``inf_norm``, for instance, is imported
by ``ilc_engine``, ``cli``, ``conditions``, ``set_transform`` and
``config`` -- and then calls ``ilcset.cli.main``. Nothing under ``src``
knows it is traced. Spans stay in memory and are written to OUT.json once,
after the command returns; the process exits with the command's status.

A span is ``(id, parent, name, thread, t0, t1, cpu_s)``: perf-counter
start and end plus the thread CPU time spent inside it, so
``wait = (t1 - t0) - cpu_s`` is the time the thread was runnable but held
off (the GIL on the threaded sweep) or blocked. A span opened on a worker
thread with no open span of its own takes the main thread's innermost open
span as parent, so a thread-pool sweep nests under the command that
started it.

Hot, tiny functions get a call counter and no span; see ``COUNTER_ONLY``.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import itertools
import json
import sys
import threading
import time

PACKAGE = "ilcset"
LAYERS = ("config", "schedule_lang", "presets", "plant", "ilc_engine",
          "set_transform", "conditions", "matrix_core", "cli")
# Layers whose functions are counted, not spanned, plus single hot functions.
COUNTER_ONLY_LAYERS = ("matrix_core",)
COUNTER_ONLY = ("schedule_lang.eval_expr",)
# Private functions traced under a public span name.
EXTRA = {"cli._sweep_rows": "cli.sweep"}
# Methods traced with a counter: (layer, class, method).
METHODS = (("schedule_lang", "MatrixSchedule", "at"),)
# sample_iteration(sys, unc, l) is keyed by (unc.seed, l) for useful_ratio.
SAMPLE_FN = "plant.sample_iteration"


def union_length(intervals, lo: float, hi: float) -> float:
    """Length of the union of ``intervals`` clipped to ``[lo, hi]``."""
    clipped = sorted((max(a, lo), min(b, hi)) for a, b in intervals)
    total, end = 0.0, lo
    for a, b in clipped:
        if b <= end:
            continue
        total += b - max(a, end)
        end = b
    return total


def self_times(spans) -> dict:
    """Self time per span id: duration minus the part its children cover.

    Children may overlap each other (worker threads of one parent); their
    union is subtracted, clipped to the parent's interval.
    """
    children: dict = {}
    for sid, parent, _name, _thread, t0, t1, _cpu in spans:
        if parent is not None:
            children.setdefault(parent, []).append((t0, t1))
    return {sid: (t1 - t0) - union_length(children.get(sid, ()), t0, t1)
            for sid, _parent, _name, _thread, t0, t1, _cpu in spans}


class Tracer:
    """In-memory spans and counters for one traced process."""

    def __init__(self):
        self.spans: list = []
        self.sample_keys: set = set()
        self._counters: dict = {}
        self._ids = itertools.count()
        self._local = threading.local()
        self._main_ident = threading.main_thread().ident
        self._main_stack: list = []

    def _stack(self) -> list:
        try:
            return self._local.stack
        except AttributeError:
            is_main = threading.get_ident() == self._main_ident
            self._local.stack = self._main_stack if is_main else []
            return self._local.stack

    def span(self, name: str, fn):
        spans, ids = self.spans, self._ids
        keyed = name == SAMPLE_FN
        signature = inspect.signature(fn) if keyed else None

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if keyed:
                bound = signature.bind(*args, **kwargs)
                self.sample_keys.add((bound.arguments["unc"].seed,
                                      bound.arguments["l"]))
            stack = self._stack()
            if stack:
                parent = stack[-1]
            else:
                parent = self._main_stack[-1] if self._main_stack else None
            sid = next(ids)
            stack.append(sid)
            c0 = time.thread_time()
            t0 = time.perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                t1 = time.perf_counter()
                cpu = time.thread_time() - c0
                stack.pop()
                spans.append((sid, parent, name, threading.get_ident(), t0, t1, cpu))
        return wrapper

    def counter(self, name: str, fn):
        # next() on itertools.count is atomic under the GIL, unlike += on a dict.
        count = self._counters[name] = itertools.count()

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            next(count)
            return fn(*args, **kwargs)
        return wrapper

    def counts(self) -> dict:
        # next() returns how many calls came before it.
        return {name: next(c) for name, c in self._counters.items()}


def _traced_name(layer: str, attr: str, obj, module_name: str):
    """Span/counter name for a module attribute, or None if not traced."""
    qualified = f"{layer}.{attr}"
    if qualified in EXTRA:
        return EXTRA[qualified]
    if (inspect.isfunction(obj) and obj.__module__ == module_name
            and not attr.startswith("_")):
        return qualified
    return None


def install(tracer: Tracer) -> list:
    """Wrap every traced function on every module that bound it.

    Returns the traced names, so a caller can tell a function that was
    never called (count 0) from one that no longer exists (absent).
    """
    modules = {layer: importlib.import_module(f"{PACKAGE}.{layer}") for layer in LAYERS}
    wrappers: dict = {}   # id(original) -> (original, wrapper)
    names = []
    for layer, module in modules.items():
        for attr, obj in list(vars(module).items()):
            name = _traced_name(layer, attr, obj, module.__name__)
            if name is None:
                continue
            hot = layer in COUNTER_ONLY_LAYERS or name in COUNTER_ONLY
            wrapped = tracer.counter(name, obj) if hot else tracer.span(name, obj)
            wrappers[id(obj)] = (obj, wrapped)
            names.append(name)
    for mod_name, module in list(sys.modules.items()):
        if mod_name != PACKAGE and not mod_name.startswith(PACKAGE + "."):
            continue
        for attr, obj in list(vars(module).items()):
            entry = wrappers.get(id(obj))
            if entry is not None and entry[0] is obj:
                setattr(module, attr, entry[1])
    for layer, cls_name, method in METHODS:
        cls = getattr(modules[layer], cls_name, None)
        if cls is not None and callable(getattr(cls, method, None)):
            name = f"{layer}.{cls_name}.{method}"
            setattr(cls, method, tracer.counter(name, getattr(cls, method)))
            names.append(name)
    return names


def main(argv) -> int:
    out_path, cli_args = argv[0], argv[1:]
    tracer = Tracer()
    names = install(tracer)
    cli = sys.modules[f"{PACKAGE}.cli"]
    t0 = time.perf_counter()
    status = cli.main(cli_args)
    wall = time.perf_counter() - t0
    doc = {"wall_s": wall, "status": status, "traced": names,
           "counts": tracer.counts(), "distinct_samples": len(tracer.sample_keys),
           "spans": tracer.spans}
    with open(out_path, "w", encoding="utf-8") as fh:
        json.dump(doc, fh)
    return status


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
