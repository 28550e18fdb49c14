"""DHS counting — the paper's Algorithm 1, for both estimator families.

Counting walks the id-space intervals and, per interval, probes up to
``lim`` nodes (one DHT lookup, then 1-hop successor/predecessor walks
confined to the interval) asking "which vectors have bit ``r`` set for
these metrics?".

* super-LogLog / LogLog / HLL scan **high → low** and record, per
  bitmap, the *first* set bit seen — its maximum (Alg. 1).
* PCSA scans **low → high**; a bitmap stays *active* while every probed
  position was found set, and resolves to its leftmost zero at the first
  position that ``lim`` probes could not confirm.

Observed bits are fed into an ordinary local sketch from
:mod:`repro.sketches`, so the distributed estimate uses byte-identical
math to the centralized estimators.  Probing any node yields the bit's
status for *all* bitmaps of *all* requested metrics at once, which is why
hop counts are independent of ``m`` and of the number of metrics
(sections 4.2/4.3) while byte counts are not.

Hot path: the per-metric bookkeeping (pending / active / found vectors)
is kept as packed integer bitmaps throughout, so a probe answers "which
of these pending vectors are set here?" with one ``int &`` per metric
against the node's :class:`~repro.core.tuples.PackedSlot` mask.  The
per-interval random probe keys are drawn up front (one pass over the
counting RNG per scan), and per-probe node-id recording is gated behind
``dht.trace`` — the ``probes``/``unique_probed`` counters stay exact.

There is one probe walk.  Each scan picks its per-probe read once: a
direct store read when the retry policy, fault layer and read repair
are all inert, else the policy-wrapped :meth:`Counter._probe_node`.
Tracing and metering only add spans, events and counters on top; they
never change which read runs.
"""

from __future__ import annotations

from bisect import bisect_left
from dataclasses import dataclass, field
from typing import Callable, Dict, Hashable, List, Optional, Sequence, Set

from repro.core.config import DHSConfig
from repro.core.mapping import BitIntervalMap
from repro.core.policy import DEFAULT_POLICY, RetryPolicy
from repro.core.retries import lim_with_replication, success_probability
from repro.core.tuples import PackedSlot, copy_entries, vectors_mask
from repro.errors import MessageDropped
from repro.hashing.family import HashFamily
from repro.obs import runtime as obs
from repro.obs.metrics import BUCKETS_BITS, BUCKETS_PROBES, Histogram
from repro.overlay.dht import DHTProtocol
from repro.overlay.node import Node
from repro.overlay.replication import replica_chain
from repro.overlay.stats import OpCost
from repro.sim.seeds import rng_for
from repro.sketches.base import HashSketch

__all__ = ["Counter", "CountResult"]

#: Estimators that scan from the most significant position downwards.
_DOWNWARD_ESTIMATORS = {"sll", "loglog", "hll"}

#: A per-probe read: ``read(target, metrics, position, now, cost)``
#: returns metric → bitmap of vectors set at ``position`` on ``target``,
#: ``None`` when the node is down, or :data:`_LOST` when the probe
#: message was dropped for good.
ProbeRead = Callable[
    [int, List[Hashable], int, int, OpCost], Optional[Dict[Hashable, int]]
]

#: Sentinel answer of a probe whose message was lost (compared by identity).
_LOST: Dict[Hashable, int] = {}


@dataclass
class CountResult:
    """Outcome of one counting operation (possibly many metrics)."""

    estimates: Dict[Hashable, float]
    sketches: Dict[Hashable, HashSketch]
    cost: OpCost
    #: Total node probes performed (the paper's "nodes visited" is
    #: ``unique_probed``: distinct probed nodes).
    probes: int = 0
    #: Distinct probed node ids, maintained incrementally on every probe.
    probed_ids: Set[int] = field(default_factory=set)
    #: Full probe sequence — only recorded when ``dht.trace`` is on
    #: (mirrors ``OpCost.nodes_visited``); empty otherwise.
    probed_nodes: List[int] = field(default_factory=list)
    intervals_scanned: int = 0
    #: True when any probe budget was exhausted with unresolved bitmaps
    #: or any message was lost/timed out — the estimate may be biased.
    degraded: bool = False
    #: Intervals whose probe walk ended by budget exhaustion (rather
    #: than resolving every pending bitmap or sweeping the interval).
    exhausted_intervals: int = 0
    #: Messages permanently lost during the count (retry budget spent).
    dropped_messages: int = 0
    #: Per-metric probability that no live data was missed: the product
    #: of eq. 5 success probabilities over every exhausted interval
    #: (1.0 = every interval resolved or was swept exhaustively).
    confidence: Dict[Hashable, float] = field(default_factory=dict)

    @property
    def unique_probed(self) -> int:
        """Distinct nodes probed (the paper's "nodes visited" column)."""
        return len(self.probed_ids)

    def estimate(self) -> float:
        """The single estimate (raises unless exactly one metric)."""
        if len(self.estimates) != 1:
            raise ValueError("estimate() is only defined for single-metric counts")
        return next(iter(self.estimates.values()))


class Counter:
    """Counting engine for one DHS deployment."""

    def __init__(
        self,
        dht: DHTProtocol,
        config: DHSConfig,
        mapping: BitIntervalMap,
        hash_family: HashFamily,
        seed: int = 0,
        policy: RetryPolicy = DEFAULT_POLICY,
    ) -> None:
        self.dht = dht
        self.config = config
        self.mapping = mapping
        self.hash_family = hash_family
        self.policy = policy
        self._rng = rng_for(seed, "dhs-count")
        # Per-count cached histogram objects (refreshed from the active
        # registry at each metered count; see count_many) so the
        # interval loop skips the registry's name lookup.
        self._hist_probes = Histogram(BUCKETS_PROBES)
        self._hist_bits = Histogram(BUCKETS_BITS)

    # ------------------------------------------------------------------
    # Public API.
    # ------------------------------------------------------------------
    def count(
        self,
        metric_id: Hashable,
        origin: Optional[int] = None,
        now: int = 0,
        expected_items: Optional[float] = None,
    ) -> CountResult:
        """Estimate the cardinality of one metric.

        ``expected_items`` is a prior cardinality estimate consumed by
        the ``eq6`` lim policy; with the policy active and no prior, a
        bootstrap fixed-``lim`` pass supplies one (its cost is included
        in the returned result).
        """
        return self.count_many(
            [metric_id], origin=origin, now=now, expected_items=expected_items
        )

    def count_many(
        self,
        metric_ids: Sequence[Hashable],
        origin: Optional[int] = None,
        now: int = 0,
        expected_items: Optional[float] = None,
    ) -> CountResult:
        """Estimate several metrics in one interval scan (section 4.2).

        The scan order is shared, so hop cost matches a single-metric
        count; only the response bytes grow with the metric count.
        """
        if not metric_ids:
            raise ValueError("count_many needs at least one metric id")
        if len(set(metric_ids)) != len(metric_ids):
            raise ValueError("metric ids must be unique")
        if origin is None:
            origin = self.dht.random_live_node(self._rng)
        span = (
            obs.TRACER.start(
                "dhs.count", tick=now, metrics=len(metric_ids), origin=origin
            )
            if obs.TRACING
            else None
        )
        try:
            if obs.METERING:
                registry = obs.METRICS
                self._hist_probes = registry.histogram("dhs.count.probes_per_interval")
                self._hist_bits = registry.histogram("dhs.count.bits_touched")
            bootstrap_cost: Optional[OpCost] = None
            if self.config.lim_policy == "eq6" and expected_items is None:
                bootstrap = self._run_scan(
                    metric_ids, origin, now, expected_items=None, force_fixed=True
                )
                estimates = [est for est in bootstrap.estimates.values() if est > 0]
                # The sparsest metric binds the probe budget.
                expected_items = min(estimates) if estimates else 0.0
                bootstrap_cost = bootstrap.cost
            result = self._run_scan(
                metric_ids, origin, now, expected_items=expected_items
            )
            if bootstrap_cost is not None:
                result.cost.add(bootstrap_cost)
            result.dropped_messages = result.cost.drops
            result.degraded = (
                result.exhausted_intervals > 0
                or result.cost.drops > 0
                or result.cost.timeouts > 0
            )
            if obs.METERING:
                obs.METRICS.inc("dhs.count.ops")
                if result.degraded:
                    obs.METRICS.inc("dhs.count.degraded")
            if span is not None:
                span.set(
                    hops=result.cost.hops,
                    messages=result.cost.messages,
                    probes=result.probes,
                    unique_probed=result.unique_probed,
                    intervals=result.intervals_scanned,
                    exhausted_intervals=result.exhausted_intervals,
                    drops=result.cost.drops,
                    timeouts=result.cost.timeouts,
                    degraded=result.degraded,
                )
        finally:
            if span is not None:
                obs.TRACER.end(span)
        return result

    def _run_scan(
        self,
        metric_ids: Sequence[Hashable],
        origin: int,
        now: int,
        expected_items: Optional[float],
        force_fixed: bool = False,
    ) -> CountResult:
        sketches = {
            metric: self.config.make_sketch(self.hash_family) for metric in metric_ids
        }
        read = self._probe_read()
        adaptive = self.config.lim_policy == "eq6" and not force_fixed
        prior = expected_items if adaptive else None
        # One probe key per interval, drawn up front: a single pass over
        # the counting RNG per scan, independent of which intervals the
        # scan actually reaches before resolving.
        keys = self._interval_keys()
        if self.config.estimator in _DOWNWARD_ESTIMATORS:
            result = self._scan_downward(sketches, origin, now, keys, prior, read)
        else:
            result = self._scan_upward(sketches, origin, now, keys, prior, read)
        result.estimates = {
            metric: sketch.estimate() for metric, sketch in sketches.items()
        }
        return result

    def _probe_read(self) -> ProbeRead:
        """The per-probe read for one scan.

        The direct store read is exact whenever every wrapper it skips
        is inert: a no-retry policy makes ``policy.call`` a plain call,
        no fault layer means probes cannot drop and ``node_responsive``
        is ``is_alive``, and read repair off means probes never write.
        Costs, RNG draws and results are identical either way
        (tests/core/test_probe_walk.py pins this).
        """
        config = self.config
        if (
            self.policy.is_default
            and self.dht.fault_layer is None
            and not (config.read_repair and config.replication > 0)
        ):
            return self._read_direct
        return self._probe_node

    def _interval_keys(self) -> List[int]:
        """Random probe key for every interval (ascending interval order)."""
        mapping = self.mapping
        rng = self._rng
        return [
            mapping.random_key_in_interval(index, rng)
            for index in range(mapping.num_intervals)
        ]

    # ------------------------------------------------------------------
    # Per-interval probe budget (fixed lim, or eq. 6 from a prior).
    # ------------------------------------------------------------------
    def _interval_budget(self, index: int, expected_items: Optional[float]) -> int:
        """Probe budget for one interval under the active lim policy."""
        config = self.config
        if expected_items is None:
            return config.lim
        position = self.mapping.position_for_index(index)
        items_here = expected_items * 2.0 ** -(position + 1)
        nodes_here = max(1.0, self.mapping.expected_nodes(index, self.dht.size))
        budget = lim_with_replication(
            config.lim_target_p,
            items_here,
            nodes_here,
            m=config.num_bitmaps,
            replication=config.replication + 1,
        )
        # Bound the adaptive budget: never below 1, never runaway.
        return max(1, min(budget, 8 * config.lim))

    # ------------------------------------------------------------------
    # Downward scan (LogLog family): first set bit seen is the maximum.
    # ------------------------------------------------------------------
    def _scan_downward(
        self,
        sketches: Dict[Hashable, HashSketch],
        origin: int,
        now: int,
        keys: Sequence[int],
        expected_items: Optional[float],
        read: ProbeRead,
    ) -> CountResult:
        config = self.config
        full = (1 << config.num_bitmaps) - 1
        pending: Dict[Hashable, int] = {metric: full for metric in sketches}
        result = CountResult(
            estimates={}, sketches=sketches, cost=OpCost(),
            confidence={metric: 1.0 for metric in sketches},
        )
        for index in reversed(range(self.mapping.num_intervals)):
            if not any(pending.values()):
                break
            position = self.mapping.position_for_index(index)
            found = self._probe_interval(
                index, position, pending, origin, now, result, expected_items,
                key=keys[index], read=read,
            )
            for metric, mask in found.items():
                newly = mask & pending[metric]
                if newly:
                    pending[metric] &= ~newly
                    sketches[metric].record_mask(newly, position)
        if config.bit_shift > 0:
            # Unresolved bitmaps are assumed set below the shift.
            for metric, mask in pending.items():
                sketches[metric].record_mask(mask, config.bit_shift - 1)
        return result

    # ------------------------------------------------------------------
    # Upward scan (PCSA): advance while every probed bit is confirmed.
    # ------------------------------------------------------------------
    def _scan_upward(
        self,
        sketches: Dict[Hashable, HashSketch],
        origin: int,
        now: int,
        keys: Sequence[int],
        expected_items: Optional[float],
        read: ProbeRead,
    ) -> CountResult:
        config = self.config
        full = (1 << config.num_bitmaps) - 1
        active: Dict[Hashable, int] = {metric: full for metric in sketches}
        if config.bit_shift > 0:
            # Positions below the shift are assumed set (section 3.5).
            for sketch in sketches.values():
                for position in range(config.bit_shift):
                    sketch.record_mask(full, position)
        result = CountResult(
            estimates={}, sketches=sketches, cost=OpCost(),
            confidence={metric: 1.0 for metric in sketches},
        )
        for index in range(self.mapping.num_intervals):
            if not any(active.values()):
                break
            position = self.mapping.position_for_index(index)
            found = self._probe_interval(
                index, position, active, origin, now, result, expected_items,
                key=keys[index], read=read,
            )
            for metric, mask in active.items():
                confirmed = mask & found.get(metric, 0)
                if confirmed:
                    sketches[metric].record_mask(confirmed, position)
                # Bitmaps whose bit could not be confirmed resolve here:
                # their leftmost zero is this position (already implicit
                # in the sketch state — bits above stay unset).
                active[metric] = confirmed
        return result

    # ------------------------------------------------------------------
    # Interval probe: one lookup plus <= lim-1 neighbour walks (Alg. 1).
    # ------------------------------------------------------------------
    def _probe_interval(
        self,
        index: int,
        position: int,
        needed: Dict[Hashable, int],
        origin: int,
        now: int,
        result: CountResult,
        expected_items: Optional[float] = None,
        key: Optional[int] = None,
        read: Optional[ProbeRead] = None,
    ) -> Dict[Hashable, int]:
        """Probe one interval; ``needed`` maps metric → pending bitmap.

        Returns metric → bitmap of vectors found set at ``position``.
        ``read`` is the scan's per-probe read (chosen here when absent).
        Under tracing the walk runs inside a ``count.interval`` span.
        """
        span = None
        if obs.TRACING:
            cost = result.cost
            before = (
                result.probes, cost.hops, cost.drops, cost.timeouts,
                result.exhausted_intervals,
            )
            span = obs.TRACER.start(
                "count.interval", tick=now, index=index, position=position
            )
        event = obs.TRACER.event if span is not None else None
        probes_done = 0
        found: Dict[Hashable, int] = {}
        try:
            metrics = [metric for metric, mask in needed.items() if mask]
            found = {metric: 0 for metric in metrics}
            if not metrics:
                return found
            result.intervals_scanned += 1
            probe_key = (
                self.mapping.random_key_in_interval(index, self._rng)
                if key is None
                else key
            )
            if read is None:
                read = self._probe_read()
            cost = result.cost
            config = self.config
            size_model = config.size_model
            num_metrics = len(metrics)
            try:
                lookup = self.policy.call(
                    lambda: self.dht.lookup(probe_key, origin=origin), self._rng, cost
                )
            except MessageDropped:
                # Every lookup attempt was dropped: the interval is
                # unreachable this scan.  Zero probes happened, so every
                # pending metric takes the full zero-probe eq. 5 hit.
                if event is not None:
                    event("count.unreachable", tick=now, index=index)
                self._charge_exhaustion(
                    index, position, metrics, needed, found, result,
                    expected_items, probes_done=0,
                )
                return found
            cost.add(lookup.cost)
            if event is not None:
                event(
                    "dht.lookup",
                    tick=now,
                    key=probe_key,
                    node=lookup.node_id,
                    hops=lookup.cost.hops,
                )
            cost.bytes += size_model.probe_bytes(
                request_hops=lookup.cost.hops, tuples_returned=0, metrics=num_metrics
            )
            step_bytes = size_model.probe_bytes(
                request_hops=1, tuples_returned=0, metrics=num_metrics
            )
            tuple_bytes = size_model.tuple_bytes
            budget = self._interval_budget(index, expected_items)
            repair = config.read_repair and config.replication > 0
            trace = self.dht.trace
            visited: Set[int] = set()
            target = lookup.node_id
            succ_cursor = pred_cursor = target
            go_to_succ = True
            budget_exhausted = False
            for attempt in range(budget):
                if attempt > 0:
                    cost.bytes += step_bytes
                visited.add(target)
                result.probes += 1
                probes_done += 1
                result.probed_ids.add(target)
                if trace:
                    result.probed_nodes.append(target)
                masks = read(target, metrics, position, now, cost)
                if masks is None:
                    # Timed-out probe of a crashed (or transiently down)
                    # node — Alg. 1's failure case.  The walk hop was
                    # already paid; record the timeout and walk on.
                    # Transient nodes are not evicted (the fault layer
                    # vetoes it).
                    cost.timeouts += 1
                    self.dht.timeout_repair(target)
                    if event is not None:
                        event("probe", tick=now, node=target, ok=False, timeout=True)
                elif masks is _LOST:
                    if event is not None:
                        event("probe", tick=now, node=target, ok=False, lost=True)
                else:
                    returned = 0
                    for metric, mask in masks.items():
                        if mask:
                            returned += mask.bit_count()
                            found[metric] |= mask
                    cost.bytes += returned * tuple_bytes
                    if repair and returned:
                        self._read_repair(target, metrics, masks, position, now, cost)
                    if event is not None:
                        event("probe", tick=now, node=target, ok=True, bits=returned)
                if all(not (needed[metric] & ~found[metric]) for metric in metrics):
                    break
                if attempt + 1 == budget:
                    # Budget exhausted: the walk ends here, so don't pay a
                    # hop for a neighbour that is never contacted.
                    budget_exhausted = True
                    break
                # Pick the next probe target: successors first, then
                # switch to predecessors once the interval's upper end is
                # reached.  The successor walk is allowed one node beyond
                # the interval: keys above the last in-interval node are
                # owned by the next node on the ring, so that "overflow"
                # node can hold tuples of this interval too.
                next_target = None
                if go_to_succ and not self.mapping.contains(index, succ_cursor):
                    # The walk already sits on the overflow owner (or the
                    # lookup landed there directly): nothing further up.
                    go_to_succ = False
                if go_to_succ:
                    candidate = self.dht.successor_id(succ_cursor)
                    if candidate in visited:
                        go_to_succ = False
                    elif self.mapping.contains(index, candidate):
                        succ_cursor = next_target = candidate
                    else:
                        next_target = candidate  # the one overflow owner
                        succ_cursor = candidate
                        go_to_succ = False
                if next_target is None:
                    candidate = self.dht.predecessor_id(pred_cursor)
                    if (
                        self.mapping.contains(index, candidate)
                        and candidate not in visited
                    ):
                        pred_cursor = next_target = candidate
                    else:
                        break  # interval exhausted in both directions
                target = next_target
                cost.hops += 1
                cost.messages += 1
                if trace:
                    cost.nodes_visited.append(target)
            if budget_exhausted:
                self._charge_exhaustion(
                    index, position, metrics, needed, found, result,
                    expected_items, probes_done=probes_done,
                )
            return found
        finally:
            if obs.METERING:
                self._record_interval_metrics(
                    probes_done, sum(map(int.bit_count, found.values()))
                )
            if span is not None:
                cost = result.cost
                attrs = span.attrs
                attrs["probes"] = result.probes - before[0]
                attrs["hops"] = cost.hops - before[1]
                attrs["drops"] = cost.drops - before[2]
                attrs["timeouts"] = cost.timeouts - before[3]
                attrs["exhausted"] = result.exhausted_intervals > before[4]
                obs.TRACER.end(span)

    def _record_interval_metrics(self, probes_done: int, bits: int) -> None:
        """Record one interval's probe/bit observations."""
        hist = self._hist_probes
        hist.counts[bisect_left(hist.bounds, probes_done)] += 1
        hist.total += probes_done
        hist.count += 1
        hist = self._hist_bits
        hist.counts[bisect_left(hist.bounds, bits)] += 1
        hist.total += bits
        hist.count += 1

    def _read_direct(
        self,
        target: int,
        metrics: List[Hashable],
        position: int,
        now: int,
        cost: OpCost,
    ) -> Optional[Dict[Hashable, int]]:
        """Read ``target``'s slots straight from its store.

        Charges the node load and the ``dht.probes`` counter exactly as
        :meth:`~repro.overlay.dht.DHTProtocol.probe` does, so metric
        snapshots match the wrapped read.  ``None`` when ``target`` is
        down.  ``cost`` is unused: nothing on this path can drop or retry.
        """
        node = self.dht.live_node(target)
        if node is None:
            return None
        self.dht.load.record(target)
        if obs.METERING:
            obs.METRICS.inc("dht.probes")
        store = node.store
        masks: Dict[Hashable, int] = {}
        for metric in metrics:
            slot = store.get((metric, position))
            masks[metric] = slot.live_mask(now) if isinstance(slot, PackedSlot) else 0
        return masks

    def _probe_node(
        self,
        target: int,
        metrics: List[Hashable],
        position: int,
        now: int,
        cost: OpCost,
    ) -> Optional[Dict[Hashable, int]]:
        """Probe one node under the retry policy and fault layer.

        ``None`` when ``target`` does not answer (crashed or transiently
        down); :data:`_LOST` when the probe message was permanently lost
        (the loss is already charged into ``cost`` by the policy).
        """
        if not self.dht.node_responsive(target):
            return None

        def read(node: Node) -> Dict[Hashable, int]:
            return {
                metric: vectors_mask(node, metric, position, now)
                for metric in metrics
            }

        try:
            masks: Dict[Hashable, int] = self.policy.call(
                lambda: self.dht.probe(target, read), self._rng, cost
            )
        except MessageDropped:
            return _LOST
        return masks

    def _read_repair(
        self,
        target: int,
        metrics: List[Hashable],
        masks: Dict[Hashable, int],
        position: int,
        now: int,
        cost: OpCost,
    ) -> None:
        """Re-write bits found at ``target`` onto replicas missing them.

        A crashed-and-rejoined (or amnesiac) successor silently degrades
        ``p_f^R`` bit survival; the counting walk is the natural place to
        notice, because it already read the authoritative bits.  Each
        repaired replica costs one hop plus the copied tuple bytes.
        """
        source = self.dht.node(target)
        tuple_bytes = self.config.size_model.tuple_bytes
        for replica_id in replica_chain(self.dht, target, self.config.replication):
            if not self.dht.node_responsive(replica_id):
                continue
            replica = self.dht.node(replica_id)
            wrote = 0
            for metric in metrics:
                src_mask = masks.get(metric, 0)
                if not src_mask:
                    continue
                missing = src_mask & ~vectors_mask(replica, metric, position, now)
                slot = source.store.get((metric, position))
                if missing and isinstance(slot, PackedSlot):
                    wrote += copy_entries(slot, replica, metric, position, missing)
            if wrote:
                cost.hops += 1
                cost.messages += 1
                cost.bytes += wrote * tuple_bytes
                cost.repair_writes += wrote
                self.dht.load.record(replica_id)
                if obs.METERING:
                    obs.METRICS.inc("dhs.repair.writes", wrote)
                if obs.TRACING:
                    obs.TRACER.event(
                        "read_repair", tick=now, node=replica_id, tuples=wrote
                    )

    def _charge_exhaustion(
        self,
        index: int,
        position: int,
        metrics: List[Hashable],
        needed: Dict[Hashable, int],
        found: Dict[Hashable, int],
        result: CountResult,
        expected_items: Optional[float],
        probes_done: int,
    ) -> None:
        """Record a budget-exhausted interval and discount confidence.

        ``probes_done`` nodes of the interval were probed without
        resolving every pending bitmap; eq. 5 gives the probability that
        those probes would have found live data had there been any, so
        each unresolved metric's confidence is multiplied by it.
        """
        unresolved = [
            metric for metric in metrics if needed[metric] & ~found[metric]
        ]
        if not unresolved:
            return
        result.exhausted_intervals += 1
        nodes_here = max(1.0, self.mapping.expected_nodes(index, self.dht.size))
        if expected_items is not None:
            items_here = expected_items * 2.0 ** -(position + 1)
        else:
            # No prior: assume the paper's lim=5 boundary case — as many
            # interval items as interval nodes (section 4.1).
            items_here = nodes_here
        if items_here <= 0:
            return
        p = success_probability(
            (self.config.replication + 1) * items_here, nodes_here, probes_done
        )
        for metric in unresolved:
            result.confidence[metric] = result.confidence.get(metric, 1.0) * p
