"""Per-layer span tracing, done from outside the program.

The program's own observability (``repro.obs`` tracing and metering) is
left off: turning it on disables the count fast path, so a run traced
that way would time a different algorithm.  Instead, :func:`install`
replaces each layer's public functions *where their callers resolve
them* (a class attribute, or the importing module's global) with a
wrapper that records a span: layer, start, end, parent span and the
current request id.  A layer's self time is its span's duration minus
the time covered by its child spans.

Spans are kept in compact in-memory arrays and written out once, at the
end of the run, by :meth:`Tracer.write`.
"""

from __future__ import annotations

import dataclasses
import time
from array import array
from collections import defaultdict
from contextlib import contextmanager
from typing import Any, Callable, Dict, Iterator, List, Optional, Tuple

Observer = Callable[[Dict[str, float], Any, tuple, dict], None]


class Tracer:
    """Collects spans and per-layer self time, calls and counters."""

    def __init__(self) -> None:
        self.layers: List[str] = []
        self._layer_code: Dict[str, int] = {}
        # One entry per finished span; the span id is its index.
        self.parent = array("q")
        self.layer = array("H")
        self.start = array("d")
        self.end = array("d")
        self.request = array("q")
        self.self_s: Dict[str, float] = defaultdict(float)
        self.calls: Dict[str, int] = defaultdict(int)
        self.counters: Dict[str, float] = defaultdict(float)
        #: Request id stamped on every span opened while it is set
        #: (-1: not inside a client request).
        self.current_request = -1
        # Open spans: [span id, layer, seconds covered by children].
        self._stack: List[list] = []
        self._next_id = 0
        self._patches: List[Tuple[Any, str, Any]] = []

    def set_request(self, request: int) -> None:
        self.current_request = request

    def _code(self, layer: str) -> int:
        if layer not in self._layer_code:
            self._layer_code[layer] = len(self.layers)
            self.layers.append(layer)
        return self._layer_code[layer]

    def wrap(
        self, layer: str, fn: Callable[..., Any], observe: Optional[Observer] = None
    ) -> Callable[..., Any]:
        """``fn`` timed as a span of ``layer``.

        ``calls`` and ``observe`` see only the outermost span of a layer,
        so a layer function calling another of the same layer counts once.
        """
        code = self._code(layer)
        clock = time.perf_counter
        stack = self._stack

        def traced(*args: Any, **kwargs: Any) -> Any:
            span_id = self._next_id
            self._next_id += 1
            parent = stack[-1] if stack else None
            frame = [span_id, layer, 0.0]
            stack.append(frame)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                elapsed = end - start
                self.self_s[layer] += elapsed - frame[2]
                if parent is not None:
                    parent[2] += elapsed
                self._record(span_id, parent, code, start, end)
            if parent is None or parent[1] != layer:
                self.calls[layer] += 1
                if observe is not None:
                    observe(self.counters, result, args, kwargs)
            return result

        traced.__wrapped__ = fn  # type: ignore[attr-defined]
        return traced

    def _record(
        self, span_id: int, parent: Optional[list], code: int, start: float, end: float
    ) -> None:
        # Spans finish in post-order; store them by id so parents link up.
        while len(self.parent) <= span_id:
            self.parent.append(-2)
            self.layer.append(0)
            self.start.append(0.0)
            self.end.append(0.0)
            self.request.append(-1)
        self.parent[span_id] = parent[0] if parent is not None else -1
        self.layer[span_id] = code
        self.start[span_id] = start
        self.end[span_id] = end
        self.request[span_id] = self.current_request

    def patch(
        self, owner: Any, name: str, layer: str, observe: Optional[Observer] = None
    ) -> None:
        """Replace ``owner.name`` by its traced twin until :meth:`restore`."""
        original = owner.__dict__[name]
        if isinstance(original, classmethod):
            self.substitute(owner, name, classmethod(self.wrap(layer, original.__func__, observe)))
        else:
            self.substitute(owner, name, self.wrap(layer, original, observe))

    def substitute(self, owner: Any, name: str, replacement: Any) -> None:
        """Set ``owner.name`` to ``replacement`` until :meth:`restore`."""
        self._patches.append((owner, name, owner.__dict__[name]))
        setattr(owner, name, replacement)

    def restore(self) -> None:
        for owner, name, original in reversed(self._patches):
            setattr(owner, name, original)
        self._patches.clear()

    def attributed_s(self) -> float:
        """Total self time over every layer (= total root-span time)."""
        return sum(self.self_s.values())

    def write(self, path: str) -> None:
        """Write every span as one compressed ``.npz`` archive."""
        import numpy as np

        np.savez_compressed(
            path,
            layers=np.array(self.layers),
            parent=np.frombuffer(self.parent, dtype=np.int64),
            layer=np.frombuffer(self.layer, dtype=np.uint16),
            start=np.frombuffer(self.start, dtype=np.float64),
            end=np.frombuffer(self.end, dtype=np.float64),
            request=np.frombuffer(self.request, dtype=np.int64),
        )


# ----------------------------------------------------------------------
# Counters observed at layer boundaries.
# ----------------------------------------------------------------------
def _add_cost(prefix: str, cost: Any, counters: Dict[str, float]) -> None:
    counters[prefix + ".hops"] += cost.hops
    counters[prefix + ".kbytes"] += cost.bytes / 1024
    counters["overlay.faults.timeouts"] += cost.timeouts
    counters["overlay.faults.drops"] += cost.drops


def _on_sample(counters: Dict[str, float], result: Any, args: tuple, kwargs: dict) -> None:
    counters["workloads.items"] += len(result)


def _on_assign(counters: Dict[str, float], result: Any, args: tuple, kwargs: dict) -> None:
    counters["workloads.items"] += args[0] if args else kwargs["n_items"]


def _on_hash(counters: Dict[str, float], result: Any, args: tuple, kwargs: dict) -> None:
    counters["hashing.items"] += len(args[0] if args else kwargs["item_ids"])


def _on_lookup(counters: Dict[str, float], result: Any, args: tuple, kwargs: dict) -> None:
    counters["overlay.lookup.hops"] += result.cost.hops


def _on_insert(counters: Dict[str, float], result: Any, args: tuple, kwargs: dict) -> None:
    _add_cost("core.insert", result, counters)


def _on_count(counters: Dict[str, float], result: Any, args: tuple, kwargs: dict) -> None:
    counters["core.count.probes"] += result.probes
    counters["core.count.unique_probed"] += result.unique_probed
    counters["core.count.intervals"] += result.intervals_scanned
    counters["core.count.exhausted_intervals"] += result.exhausted_intervals
    _add_cost("core.count", result.cost, counters)


def _on_tick(counters: Dict[str, float], result: Any, args: tuple, kwargs: dict) -> None:
    _add_cost("core.maintenance", result.cost, counters)


def install(tracer: Tracer) -> None:
    """Trace every layer's public entry points (undo with ``restore``)."""
    import repro.core.insert as insert_mod
    import repro.core.maintenance as maintenance_mod
    import repro.experiments.common as common
    import repro.experiments.soak as soak
    import repro.experiments.table2 as table2
    import repro.experiments.table3 as table3
    from repro.core.dhs import DistributedHashSketch
    from repro.core.insert import Inserter
    from repro.core.maintenance import MaintenanceScheduler
    from repro.core.policy import RetryPolicy
    from repro.histograms.builder import DHSHistogramBuilder
    from repro.overlay.chord import ChordRing
    from repro.overlay.dht import DHTProtocol
    from repro.sketches.base import HashSketch
    from repro.workloads.zipf import ZipfGenerator

    tracer.patch(ZipfGenerator, "sample", "workloads", _on_sample)
    tracer.patch(common, "assign_uniform", "workloads", _on_assign)
    tracer.patch(common, "observations_np", "hashing", _on_hash)
    tracer.patch(insert_mod, "observations_np", "hashing", _on_hash)
    tracer.patch(ChordRing, "build", "overlay.build")
    tracer.patch(ChordRing, "lookup", "overlay.lookup", _on_lookup)
    tracer.patch(DHTProtocol, "store", "overlay.store")
    tracer.patch(Inserter, "insert_observation_arrays", "core.insert", _on_insert)
    tracer.patch(Inserter, "insert_bulk", "core.insert", _on_insert)
    tracer.patch(DistributedHashSketch, "count", "core.count", _on_count)
    tracer.patch(DistributedHashSketch, "count_many", "core.count", _on_count)
    for sketch_class in _subclasses(HashSketch):
        if "estimate" in sketch_class.__dict__:
            tracer.patch(sketch_class, "estimate", "sketches.estimate")
    tracer.patch(DHSHistogramBuilder, "reconstruct", "histograms.reconstruct")
    tracer.patch(MaintenanceScheduler, "tick", "core.maintenance", _on_tick)
    tracer.patch(maintenance_mod, "antientropy_round", "overlay.antientropy")
    tracer.patch(insert_mod, "replicate_to_successors", "overlay.replication")
    tracer.patch(RetryPolicy, "call", "core.policy")
    for module, names in (
        (table2, ("run_table2", "format_table2")),
        (table3, ("run_table3", "format_table3")),
        (soak, ("run_soak", "format_soak")),
    ):
        _patch_run_trials(tracer, module)
        for name in names:
            tracer.patch(module, name, "experiments")


def _patch_run_trials(tracer: Tracer, module: Any) -> None:
    """``run_trials`` as ``sim.parallel``; each cell it runs as ``experiments``."""
    run_trials = module.__dict__["run_trials"]

    def run_cells(specs: Any, jobs: Any = None) -> Any:
        tracer.counters["sim.parallel.cells"] += len(specs)
        cells = [
            dataclasses.replace(spec, fn=tracer.wrap("experiments", spec.fn))
            for spec in specs
        ]
        return run_trials(cells, jobs=jobs)

    tracer.substitute(module, "run_trials", tracer.wrap("sim.parallel", run_cells))


def _subclasses(cls: type) -> List[type]:
    found: List[type] = []
    pending = list(cls.__subclasses__())
    while pending:
        sub = pending.pop()
        if sub not in found:
            found.append(sub)
            pending.extend(sub.__subclasses__())
    return found


@contextmanager
def installed(tracer: Tracer) -> Iterator[Tracer]:
    install(tracer)
    try:
        yield tracer
    finally:
        tracer.restore()
