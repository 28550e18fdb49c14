"""The benchmark's four workloads and the checks on their outputs.

Each workload builds its inputs from the workload seed alone, runs one
*pass* (the unit the harness times, repeated until the run's time is
up) and checks what the pass produced:

* ``paper-table2`` — :func:`repro.experiments.table2.run_table2`;
* ``paper-table3`` — :func:`repro.experiments.table3.run_table3`;
* ``count-query`` — a closed-loop client sending single-metric counts
  against a ring populated during set-up;
* ``churn-soak`` — :func:`repro.experiments.soak.run_soak`.

Every count the program answers is recorded by :class:`CountLog` (a
timer around ``DistributedHashSketch.count``/``count_many``) and checked
against the estimator's standard error: an estimate the count did not
flag as degraded must lie within ``SIGMAS`` standard errors of the
truth; a degraded one (probe budget exhausted or messages lost) may
under-read, but not over-read.
"""

from __future__ import annotations

import dataclasses
import math
import random
import time
from typing import Any, Callable, Dict, Hashable, List, Optional, Sequence, Tuple

#: Relative standard error times sqrt(m), per estimator (Durand–Flajolet
#: super-LogLog and Flajolet–Martin PCSA).
STD_ERROR = {"sll": 1.05, "pcsa": 0.78}
#: How many standard errors an undegraded estimate may be off by.
SIGMAS = 6.0
ESTIMATORS = ("sll", "pcsa")


def error_bound(estimator: str, m: int) -> float:
    """Largest relative error an undegraded estimate may show."""
    return SIGMAS * STD_ERROR[estimator] / math.sqrt(m)


@dataclasses.dataclass
class CountRecord:
    """One count operation as its caller saw it."""

    estimator: str
    m: int
    seconds: float
    estimates: Dict[Hashable, float]
    degraded: bool
    hops: int
    kbytes: float
    now: int


class CountLog:
    """Times every count the program answers and keeps its outcome.

    Installed for the whole run, traced or not: it adds one clock read
    before and after each count, far below the time of a count.
    """

    def __init__(self) -> None:
        self.records: List[CountRecord] = []
        self._originals: List[Tuple[str, Any]] = []

    def install(self) -> None:
        from repro.core.dhs import DistributedHashSketch

        for name in ("count", "count_many"):
            original = DistributedHashSketch.__dict__[name]
            setattr(DistributedHashSketch, name, self._timed(original))
            self._originals.append((name, original))

    def restore(self) -> None:
        from repro.core.dhs import DistributedHashSketch

        for name, original in self._originals:
            setattr(DistributedHashSketch, name, original)
        self._originals.clear()

    def _timed(self, fn: Callable[..., Any]) -> Callable[..., Any]:
        clock = time.perf_counter
        records = self.records

        def timed(dhs: Any, *args: Any, **kwargs: Any) -> Any:
            start = clock()
            result = fn(dhs, *args, **kwargs)
            seconds = clock() - start
            config = dhs.config
            records.append(
                CountRecord(
                    estimator=config.estimator,
                    m=config.num_bitmaps,
                    seconds=seconds,
                    estimates=dict(result.estimates),
                    degraded=result.degraded,
                    hops=result.cost.hops,
                    kbytes=result.cost.bytes / 1024,
                    now=kwargs.get("now", 0),
                )
            )
            return result

        return timed


def check_estimate(
    estimate: float, truth: float, estimator: str, m: int, degraded: bool
) -> bool:
    """Is ``estimate`` of ``truth`` within the estimator's error bound?"""
    if not math.isfinite(estimate) or estimate < 0:
        return False
    error = estimate / truth - 1.0
    bound = error_bound(estimator, m)
    if degraded:
        return error <= bound
    return abs(error) <= bound


class Workload:
    """One benchmark workload; subclasses fill in the hooks."""

    name = ""
    #: Modules the program needs for this workload (timed in set-up).
    modules: Tuple[str, ...] = ()
    #: How many times a run calls :meth:`setup` before timing.
    setups = 1

    #: Workload sizes; keyword arguments to the constructor override them.
    DEFAULTS: Dict[str, Any] = {}

    def __init__(self, seed: int, **sizes: Any) -> None:
        self.seed = seed
        self.sizes = {**self.DEFAULTS, **sizes}
        #: Called with each client request's id before it is sent.
        self.begin_request: Callable[[int], None] = lambda request: None

    def setup(self) -> None:
        """Work done once before timing (repeated to time set-up)."""

    def input_seed(self, index: int) -> int:
        """Seed of input ``index``: the workload seed first, then seeds
        derived from it, so a run's median spans several inputs."""
        from repro.sim.seeds import derive_seed

        return self.seed if index == 0 else derive_seed(self.seed, "pass", index)

    def run_pass(self, index: int) -> Any:
        """The timed unit; returns what pass ``index`` produced."""
        raise NotImplementedError

    def truth(self, record: CountRecord, metric: Hashable) -> Optional[float]:
        """Exact cardinality behind a counted metric (None: not checked)."""
        return None

    def check_count(self, record: CountRecord) -> bool:
        for metric, estimate in record.estimates.items():
            truth = self.truth(record, metric)
            if truth is None:
                if not (math.isfinite(estimate) and estimate >= 0):
                    return False
            elif not check_estimate(
                estimate, truth, record.estimator, record.m, record.degraded
            ):
                return False
        return True

    def check_pass(self, output: Any) -> List[str]:
        """Pass-level output checks; returns the failures."""
        return []

    def reference_value(self, output: Any) -> Any:
        """The part of a pass's output pinned by reference.json: by
        default the driver's rows, as plain lists."""
        return [list(dataclasses.astuple(row)) for row in output]

    def quality(self, outputs: List[Any], records: List[CountRecord]) -> Dict[str, float]:
        """Output-quality figures of the run (deterministic per seed)."""
        return {
            "count_error_pct": 100 * self._mean_error(records),
            "degraded_pct": 100 * sum(r.degraded for r in records) / max(1, len(records)),
            "repair_kbytes": 0.0,
            "underread_pct": 0.0,
        }

    def _mean_error(self, records: List[CountRecord]) -> float:
        errors = [
            abs(estimate / truth - 1.0)
            for record in records
            for metric, estimate in record.estimates.items()
            for truth in [self.truth(record, metric)]
            if truth
        ]
        return sum(errors) / len(errors) if errors else 0.0


def _check_row_count(rows: Sequence[Any], ms: Sequence[int]) -> List[str]:
    """A paper driver returns one row per (m, estimator)."""
    expected = len(ms) * len(ESTIMATORS)
    return [] if len(rows) == expected else [f"{len(rows)} rows, expected {expected}"]


def _relation_sizes(scale: float) -> Dict[str, float]:
    from repro.workloads.relations import PAPER_SIZES

    return {name: float(max(1, int(size * scale))) for name, size in PAPER_SIZES.items()}


class PaperTable2(Workload):
    """Table 2 as the paper driver runs it: workload generation, hashing
    and routed population of 3M tuples per ``m``, then a few counts."""

    name = "paper-table2"
    modules = ("repro.experiments.table2",)
    DEFAULTS = dict(scale=0.02, n_nodes=128, ms=(128, 256, 512, 1024), trials=2)

    def __init__(self, seed: int, **sizes: Any) -> None:
        super().__init__(seed, **sizes)
        self.truths = _relation_sizes(self.sizes["scale"])

    def run_pass(self, index: int) -> Any:
        import repro.experiments.table2 as table2

        rows = table2.run_table2(seed=self.input_seed(index), jobs=1, **self.sizes)
        table2.format_table2(rows, self.sizes["scale"])
        return rows

    def truth(self, record: CountRecord, metric: Hashable) -> Optional[float]:
        return self.truths[str(metric)]

    def check_pass(self, output: Any) -> List[str]:
        return _check_row_count(output, self.sizes["ms"])


class PaperTable3(Workload):
    """Table 3: per-bucket population of a 100-bucket histogram and its
    reconstruction with one multi-metric count per trial."""

    name = "paper-table3"
    modules = ("repro.experiments.table3",)
    DEFAULTS = dict(
        n_nodes=1024, scale=0.001, ms=(128, 256, 512, 1024), n_buckets=100, trials=2
    )

    def run_pass(self, index: int) -> Any:
        import repro.experiments.table3 as table3

        rows = table3.run_table3(seed=self.input_seed(index), jobs=1, **self.sizes)
        table3.format_table3(rows, self.sizes["scale"])
        return rows

    def check_count(self, record: CountRecord) -> bool:
        # A bucket holds ~n/100 items, fewer than m: the n >> m standard
        # error does not apply, so cells are checked for sanity only and
        # pinned exactly by reference.json at the default seed.
        return (
            len(record.estimates) == self.sizes["n_buckets"]
            and super().check_count(record)
        )

    def check_pass(self, output: Any) -> List[str]:
        return _check_row_count(output, self.sizes["ms"]) + [
            f"m={row.m} {row.estimator}: hops {row.hops}"
            for row in output
            if not row.hops > 0
        ]

    def quality(self, outputs: List[Any], records: List[CountRecord]) -> Dict[str, float]:
        figures = super().quality(outputs, records)
        rows = [row for output in outputs for row in output]
        figures["count_error_pct"] = sum(r.mean_cell_error_pct for r in rows) / len(rows)
        return figures


class ChurnSoak(Workload):
    """Continuous churn under faults with both maintenance policies:
    writes, counts, anti-entropy and retries together."""

    name = "churn-soak"
    modules = ("repro.experiments.soak",)
    DEFAULTS = dict(ticks=300, items_per_tick=50)

    def run_pass(self, index: int) -> Any:
        import repro.experiments.soak as soak

        rows = soak.run_soak(seed=self.input_seed(index), jobs=1, **self.sizes)
        soak.format_soak(rows)
        return rows

    def truth(self, record: CountRecord, metric: Hashable) -> Optional[float]:
        return float(record.now * self.sizes["items_per_tick"])

    def check_count(self, record: CountRecord) -> bool:
        # Crashes and amnesia lose data the count cannot see, so any
        # estimate may under-read; none may over-read.
        flagged = dataclasses.replace(record, degraded=True)
        return super().check_count(flagged)

    def check_pass(self, output: Any) -> List[str]:
        return [
            f"{row.policy}: final divergence {row.final_divergence}"
            for row in output
            if row.policy == "antientropy" and row.final_divergence != 0
        ]

    def quality(self, outputs: List[Any], records: List[CountRecord]) -> Dict[str, float]:
        figures = super().quality(outputs, records)
        rows = [row for output in outputs for row in output]
        figures["repair_kbytes"] = sum(row.repair_kb for row in rows) / len(outputs)
        figures["underread_pct"] = sum(row.mean_underread_pct for row in rows) / len(rows)
        return figures


class CountQuery(Workload):
    """Closed loop, one client, no think time: single-metric counts that
    alternate sLL and PCSA, cycle through Q/R/S/T and start at seeded
    random origins, against rings populated during set-up.

    Every set-up populates one more ring from its own derived seed and
    draws its requests: ``origins`` seeded random origins for each
    (relation, estimator) pair.  A pass sends the requests of every ring
    once, so all passes of a run do the same work and differ only in
    the probes the counters draw.
    """

    name = "count-query"
    modules = ("repro.experiments.common", "repro.workloads.relations")
    DEFAULTS = dict(
        scale=0.02, n_nodes=128, m=512, lim=5, key_bits=24, rings=4, origins=2
    )

    def __init__(self, seed: int, **sizes: Any) -> None:
        super().__init__(seed, **sizes)
        self.setups = self.sizes["rings"]
        self.truths = _relation_sizes(self.sizes["scale"])
        #: One (ring, {estimator: counting DHS}) per set-up.
        self.datasets: List[Tuple[Any, Dict[str, Any]]] = []
        #: (counting DHS, relation, origin) of every request of a pass.
        self.requests: List[Tuple[Any, str, int]] = []
        self._request = 0

    def setup(self) -> None:
        from repro.core.config import DHSConfig
        from repro.core.dhs import DistributedHashSketch
        from repro.experiments.common import build_ring, populate_relation
        from repro.sim.seeds import derive_seed
        from repro.workloads.relations import standard_relations

        seed, sizes = self.input_seed(len(self.datasets)), self.sizes
        relations = standard_relations(
            scale=sizes["scale"], seed=derive_seed(seed, "relations")
        )
        ring = build_ring(sizes["n_nodes"], seed=derive_seed(seed, "ring"))

        def config(estimator: str) -> DHSConfig:
            return DHSConfig(
                key_bits=sizes["key_bits"], num_bitmaps=sizes["m"], lim=sizes["lim"],
                hash_seed=seed, estimator=estimator,
            )

        writer = DistributedHashSketch(ring, config("sll"), seed=derive_seed(seed, "writer"))
        for relation in relations:
            populate_relation(writer, relation, seed=derive_seed(seed, "load"))
        counters = {
            estimator: DistributedHashSketch(
                ring, config(estimator), seed=derive_seed(seed, "counter", estimator)
            )
            for estimator in ESTIMATORS
        }
        # Warm-up: one count from every node fills the lazy finger memo
        # and materializes every node before timing starts.
        names = sorted(self.truths)
        for i, origin in enumerate(ring.node_ids()):
            counters[ESTIMATORS[i % 2]].count(names[i % len(names)], origin=origin)
        self.datasets.append((ring, counters))
        rng = random.Random(derive_seed(seed, "origins"))
        for _ in range(sizes["origins"]):
            for name in names:
                for estimator in ESTIMATORS:
                    origin = ring.random_live_node(rng)
                    self.requests.append((counters[estimator], name, origin))

    def run_pass(self, index: int) -> Any:
        estimates = []
        for counter, metric, origin in self.requests:
            self.begin_request(self._request)
            self._request += 1
            estimates.append(counter.count(metric, origin=origin).estimate())
        return estimates

    def truth(self, record: CountRecord, metric: Hashable) -> Optional[float]:
        return self.truths[str(metric)]

    def reference_value(self, output: Any) -> Any:
        return list(output)


WORKLOADS = {cls.name: cls for cls in (PaperTable2, PaperTable3, CountQuery, ChurnSoak)}
