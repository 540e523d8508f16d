"""Per-layer self time from timing wrappers around public entry points.

The traced pass installs a :class:`LayerTracer`: every entry point named
in :data:`TIMED` is replaced, for the duration of the pass, by a wrapper
that opens a span on a per-tracer stack.  When a span closes, its
duration minus the time of the spans it directly enclosed is added to
its layer's *self time*, so the layer totals plus the time no span
covered add up to the pass's wall clock.

Nothing inside ``src/`` is changed: wrappers replace module and class
attributes in this process only, and :meth:`LayerTracer.uninstall` puts
the originals back.  A function imported by name into other modules is
replaced in every loaded ``repro`` module that holds it.
"""

from __future__ import annotations

import sys
import time
from collections import Counter, defaultdict
from contextlib import contextmanager
from typing import Callable, Iterator

from repro.creator import MicroCreator
from repro.engine.campaign import Campaign
from repro.engine.hashing import kernel_digest, options_digest
from repro.engine.runner import CampaignRun
from repro.engine.serialize import measurement_to_dict, measurements_from_payload
from repro.engine.store import ShardedResultCache, open_result_cache
from repro.launcher.kernel_input import SimKernel, as_sim_kernel
from repro.launcher.launcher import MicroLauncher
from repro.machine.kernel_model import analyze_kernel
from repro.machine.noise import NoiseModel
from repro.machine.pipeline import estimate_iteration_time

_DONE = object()

#: Layers whose self times partition the traced wall (with ``unattributed``).
LAYERS = (
    "creator",
    "expand",
    "hashing.options_digest",
    "hashing.kernel_digest",
    "launcher",
    "machine.kernel_model",
    "machine.pipeline",
    "machine.noise",
    "store.open",
    "store.put",
    "store.get",
    "serialize",
    "export.csv",
    "aggregate",
)


def _jobs(tracer: "LayerTracer", result, _args) -> None:
    tracer.items["expand"] += len(result)


def _put_rows(tracer: "LayerTracer", _result, args) -> None:
    # put(job_id, ...) stores one row; put_many(entries) stores len(entries).
    tracer.items["store.put"] += len(args[1]) if isinstance(args[1], list) else 1


def _opened(tracer: "LayerTracer", cache, _args) -> None:
    tracer.opened.append(cache)


def _launched(tracer: "LayerTracer", m, _args) -> None:
    tracer.experiments += len(m.experiment_tsc)
    if m.converged is not None:
        if m.converged:
            tracer.converged += 1
        else:
            tracer.capped += 1


#: (layer, owner, attribute, result hook).  ``owner`` is a class (the
#: method is replaced on it) or a function (replaced wherever a loaded
#: ``repro`` module binds it).  The hook turns a call's result into the
#: layer's work counts.  The workloads run sequential jobs only, so
#: ``MicroLauncher.run`` is the launcher entry point the engine calls.
TIMED: tuple[tuple[str, object, str, Callable | None], ...] = (
    ("expand", Campaign, "job_list", _jobs),
    ("hashing.options_digest", options_digest, "options_digest", None),
    ("hashing.kernel_digest", kernel_digest, "kernel_digest", None),
    ("launcher", MicroLauncher, "run", _launched),
    ("machine.kernel_model", analyze_kernel, "analyze_kernel", None),
    ("machine.pipeline", estimate_iteration_time, "estimate_iteration_time", None),
    ("machine.noise", NoiseModel, "perturb_batch", None),
    ("machine.noise", NoiseModel, "rng_for", None),
    ("store.open", open_result_cache, "open_result_cache", _opened),
    ("store.put", ShardedResultCache, "put", _put_rows),
    ("store.put", ShardedResultCache, "put_many", _put_rows),
    ("store.get", ShardedResultCache, "get", None),
    ("serialize", measurement_to_dict, "measurement_to_dict", None),
    ("serialize", measurements_from_payload, "measurements_from_payload", None),
    ("export.csv", CampaignRun, "write_csv", None),
)


class LayerTracer:
    """Self time, call counts and work counts per layer for one pass."""

    def __init__(self) -> None:
        self.self_s: dict[str, float] = defaultdict(float)
        self.calls: Counter = Counter()
        self.items: Counter = Counter()
        #: Experiments and stopping outcomes of ``MicroLauncher.run`` results.
        self.experiments = 0
        self.converged = 0
        self.capped = 0
        #: Kernel normalizations actually performed (input not yet a
        #: ``SimKernel``): the misses of the runner's per-process memo.
        self.normalizations = 0
        #: Every result cache opened during the pass.
        self.opened: list[object] = []
        #: Child time accumulated by each open span, innermost last.
        self._stack: list[float] = []
        self._patches: list[tuple[object, str, object]] = []

    # -- spans ---------------------------------------------------------

    @contextmanager
    def span(self, layer: str) -> Iterator[None]:
        """Time one call into ``layer``, excluding its child spans."""
        self._stack.append(0.0)
        start = time.perf_counter()
        try:
            yield
        finally:
            elapsed = time.perf_counter() - start
            children = self._stack.pop()
            self.self_s[layer] += elapsed - children
            self.calls[layer] += 1
            if self._stack:
                self._stack[-1] += elapsed

    def _timed(self, layer: str, fn: Callable, hook: Callable | None) -> Callable:
        def wrapper(*args, **kwargs):
            with self.span(layer):
                result = fn(*args, **kwargs)
            if hook is not None:
                hook(self, result, args)
            return result

        return wrapper

    def _timed_stream(self, fn: Callable) -> Callable:
        """Time a generator per ``next()``: consumers interleave with it."""

        def wrapper(*args, **kwargs):
            variants = fn(*args, **kwargs)
            while True:
                with self.span("creator"):
                    variant = next(variants, _DONE)
                if variant is _DONE:
                    return
                self.items["creator"] += 1
                yield variant

        return wrapper

    def _counted_normalize(self, fn: Callable) -> Callable:
        def wrapper(kernel, *args, **kwargs):
            if not isinstance(kernel, SimKernel):
                self.normalizations += 1
            return fn(kernel, *args, **kwargs)

        return wrapper

    # -- installation --------------------------------------------------

    def _replace(self, owner: object, name: str, wrapper: Callable) -> None:
        if isinstance(owner, type):
            self._patches.append((owner, name, owner.__dict__[name]))
            setattr(owner, name, wrapper)
            return
        for module in list(sys.modules.values()):
            if (
                module is not None
                and module.__name__.split(".")[0] == "repro"
                and getattr(module, name, None) is owner
            ):
                self._patches.append((module, name, owner))
                setattr(module, name, wrapper)

    def install(self) -> None:
        for layer, owner, name, hook in TIMED:
            original = getattr(owner, name) if isinstance(owner, type) else owner
            self._replace(owner, name, self._timed(layer, original, hook))
        self._replace(MicroCreator, "stream", self._timed_stream(MicroCreator.stream))
        self._replace(as_sim_kernel, "as_sim_kernel", self._counted_normalize(as_sim_kernel))

    def uninstall(self) -> None:
        while self._patches:
            owner, name, original = self._patches.pop()
            setattr(owner, name, original)

    @property
    def unbalanced(self) -> bool:
        """Whether a span is still open (a wrapper leaked)."""
        return bool(self._stack)

