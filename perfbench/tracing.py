"""In-memory span tracing around the public functions of each layer.

The wrappers live here, in the benchmark, and are installed by patching
module and class attributes of an imported ``repro``; nothing under
``src/`` knows about them.  A span records its name, start, end, parent
span, thread and request id (the id of its root span); spans stay in a
list until :meth:`Tracer.dump` writes them out as JSON lines.

Child spans started on worker threads keep their parent because
:class:`concurrent.futures.ThreadPoolExecutor` submissions run in a copy
of the submitting thread's context while the tracer is installed.  A
call nested in a span of the same name (a subclass method calling
``super()``) is passed through, so one logical call gives one span.
"""

from __future__ import annotations

import contextvars
import functools
import importlib
import itertools
import json
import sys
import threading
import time
from concurrent.futures import ThreadPoolExecutor

_CURRENT = contextvars.ContextVar("perfbench_span", default=None)

QUEUE_METHODS = (
    "__init__",
    "close",
    "enqueue",
    "lease",
    "extend",
    "complete",
    "fail",
    "release",
    "requeue_expired",
    "release_worker",
    "counts",
    "unfinished",
    "states",
    "stats",
    "snapshot",
    "poisoned_entries",
)


class Span:
    __slots__ = ("id", "parent", "name", "start", "end", "thread", "request", "attrs")

    def as_dict(self):
        return {slot: getattr(self, slot) for slot in self.__slots__}


# -- per-layer accounting: (span, args, kwargs, result) -> None --------


def _sample_bytes(span, args, kwargs, result):
    span.attrs["bytes"] = int(result.dtype.itemsize) * int(result.size)


def _step_updates(span, args, kwargs, result):
    opinions = args[2] if len(args) > 2 else kwargs["opinions"]
    span.attrs["updates"] = int(opinions.shape[0]) * int(opinions.shape[1])


def _ensemble_result(span, args, kwargs, result):
    steps = result.steps
    span.attrs.update(
        method=result.method,
        threads=int(result.threads),
        replicas=int(result.replicas),
        steps_sum=int(steps.sum()),
        steps_max=int(steps.max()) if steps.size else 0,
    )


def _cache_hit(span, args, kwargs, result):
    span.attrs["hit"] = result is not None


def _cache_put_bytes(span, args, kwargs, result):
    span.attrs["bytes"] = result.stat().st_size if result is not None else 0


def _sweep_outcomes(span, args, kwargs, result):
    span.attrs["retries"] = result[0].stats.retries if result else 0
    span.attrs["failed"] = sum(len(o.errors) for o in result)


def _status(span, args, kwargs, result):
    span.attrs["status"] = result.status


class Tracer:
    """Collects spans from the wrappers it installs."""

    def __init__(self):
        self.spans = []
        self._ids = itertools.count(1)
        self._undo = []

    # -- wrapping ------------------------------------------------------

    def wrap(self, fn, name, account=None):
        spans = self.spans
        ids = self._ids

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            parent = _CURRENT.get()
            if parent is not None and parent.name == name:
                return fn(*args, **kwargs)
            span = Span()
            span.id = next(ids)
            span.parent = parent.id if parent is not None else None
            span.request = parent.request if parent is not None else span.id
            span.name = name
            span.thread = threading.get_ident()
            span.attrs = {}
            token = _CURRENT.set(span)
            span.start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
                if account is not None:
                    account(span, args, kwargs, result)
                return result
            except BaseException as exc:
                span.attrs["error"] = type(exc).__name__
                raise
            finally:
                span.end = time.perf_counter()
                _CURRENT.reset(token)
                spans.append(span)

        return traced

    def _set(self, owner, attr, value):
        self._undo.append(functools.partial(setattr, owner, attr, owner.__dict__[attr]))
        setattr(owner, attr, value)

    def patch_items(self, mapping, name):
        """Wrap every value of *mapping* (a registry of callables)."""
        for key, value in list(mapping.items()):
            self._undo.append(functools.partial(mapping.__setitem__, key, value))
            mapping[key] = self.wrap(value, name)

    def patch_function(self, module_name, attr, name, account=None):
        """Wrap a module-level function everywhere ``repro`` bound it."""
        original = getattr(importlib.import_module(module_name), attr)
        traced = self.wrap(original, name, account)
        for mod_name, mod in list(sys.modules.items()):
            if mod is None or not mod_name.startswith("repro"):
                continue
            for key, value in list(vars(mod).items()):
                if value is original:
                    self._set(mod, key, traced)

    def patch_method(self, base, attr, name, account=None):
        """Wrap *attr* on *base* and on every subclass that defines it."""
        seen, todo = set(), [base]
        while todo:
            cls = todo.pop()
            if cls in seen:
                continue
            seen.add(cls)
            todo.extend(cls.__subclasses__())
            if attr in cls.__dict__:
                self._set(cls, attr, self.wrap(cls.__dict__[attr], name, account))

    # -- install / uninstall ------------------------------------------

    def install(self):
        # Importing any of these imports the ``repro`` package, which
        # defines every Graph and Protocol subclass before methods are
        # patched.
        from repro.core.protocols import Protocol
        from repro.graphs.base import Graph
        from repro.service.app import ServiceApp, _Handler
        from repro.service.batcher import MicroBatcher
        from repro.service.engine import ServiceEngine
        from repro.sweeps.cache import SweepCache
        from repro.sweeps.queue import WorkQueue
        from repro.sweeps.runner import _HOST_BUILDERS

        self.patch_method(Graph, "sample_neighbors_batch", "graphs.sample", _sample_bytes)
        self.patch_method(Protocol, "step_batch", "dense.step", _step_updates)
        self.patch_method(Protocol, "kernel_step", "kernels.chain_step")
        self.patch_method(SweepCache, "get", "cache.get", _cache_hit)
        self.patch_method(SweepCache, "put", "cache.put", _cache_put_bytes)
        for method in QUEUE_METHODS:
            self.patch_method(WorkQueue, method, "queue.op")
        self.patch_method(_Handler, "_handle", "service.handle")
        self.patch_method(ServiceApp, "dispatch", "service.dispatch", _status)
        self.patch_method(ServiceEngine, "execute", "service.engine")
        self.patch_method(MicroBatcher, "run", "service.batcher")
        self.patch_function("repro.core.ensemble", "run_ensemble", "ensemble.run", _ensemble_result)
        self.patch_function("repro.sweeps.runner", "build_host", "graphs.build")
        # Called only on a memo miss: one span per from-scratch build.
        self.patch_items(_HOST_BUILDERS, "graphs.construct")
        self.patch_function("repro.sweeps.runner", "execute_point", "sweeps.point")
        self.patch_function("repro.sweeps.scheduler", "run_sweeps", "sweeps.run", _sweep_outcomes)
        self.patch_function("repro.sweeps.spec", "canonical_point", "spec.canonical")
        self.patch_function("repro.service.requests", "parse_point_request", "service.parse")
        self._set(ThreadPoolExecutor, "submit", _context_submit(ThreadPoolExecutor.submit))

    def uninstall(self):
        while self._undo:
            self._undo.pop()()

    def dump(self, path, counters):
        """Write *counters* then every span to *path* as JSON lines."""
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(json.dumps({"counters": counters}, sort_keys=True) + "\n")
            for span in self.spans:
                fh.write(json.dumps(span.as_dict(), sort_keys=True) + "\n")


def _context_submit(submit):
    @functools.wraps(submit)
    def context_submit(self, fn, /, *args, **kwargs):
        return submit(self, contextvars.copy_context().run, fn, *args, **kwargs)

    return context_submit


def load(path):
    """``(counters, spans)`` from a file written by :meth:`Tracer.dump`."""
    with open(path, encoding="utf-8") as fh:
        counters = json.loads(fh.readline())["counters"]
        spans = [json.loads(line) for line in fh if line.strip()]
    return counters, spans
