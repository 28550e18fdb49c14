"""DHS insertion (paper sections 3.2 and 3.4).

To record an item, compute its ``(vector, position)`` observation from
the k low-order bits of its hashed key, pick a *uniformly random* key
inside the id-space interval of that position, and store the DHS tuple
at the DHT node owning that key.  Choosing a fresh random key per write
is what spreads copies of the same logical bit over all the interval's
nodes — the redundancy the counting algorithm's probe phase relies on.

``insert_bulk`` implements the paper's batching observation: a node with
many items groups them by interval and contacts at most ``k`` nodes per
round, one per interval, instead of one per item.
"""

from __future__ import annotations

from typing import Any, Callable, Dict, Hashable, Iterable, List, Optional, Tuple

import numpy as np
import numpy.typing as npt

from repro.core.config import DHSConfig
from repro.core.mapping import BitIntervalMap
from repro.core.policy import DEFAULT_POLICY, RetryPolicy
from repro.core.tuples import write_entry, write_entry_mask
from repro.errors import MessageDropped
from repro.hashing.family import HashFamily
from repro.hashing.vectorized import observations_np
from repro.obs import runtime as obs
from repro.overlay.dht import DHTProtocol
from repro.overlay.node import Node
from repro.overlay.replication import replicate_to_successors
from repro.overlay.stats import OpCost
from repro.sim.seeds import rng_for
from repro.sketches.base import split_key

__all__ = ["Inserter"]


class Inserter:
    """Stateless-per-call insertion engine for one DHS deployment."""

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
        self._rng = rng_for(seed, "dhs-insert")

    # ------------------------------------------------------------------
    # Observations.
    # ------------------------------------------------------------------
    def observation(self, item: Any) -> Tuple[int, int]:
        """``(vector, position)`` of ``item``, clamped like the sketches."""
        vector, position = split_key(
            self.hash_family(item), self.config.num_bitmaps, self.config.key_bits
        )
        return vector, min(position, self.config.position_bits - 1)

    # ------------------------------------------------------------------
    # Single-item insertion.
    # ------------------------------------------------------------------
    def insert(
        self,
        metric_id: Hashable,
        item: Any,
        origin: Optional[int] = None,
        now: int = 0,
    ) -> OpCost:
        """Record one item under ``metric_id``; returns the cost.

        Items whose position falls below the configured ``bit_shift``
        are assumed set and cost nothing (section 3.5).
        """
        vector, position = self.observation(item)
        if not self.mapping.is_stored(position):
            return OpCost()
        return self._write_tuples(
            self.mapping.interval_index(position),
            [(metric_id, vector, position)],
            origin=origin,
            now=now,
        )

    def insert_many(
        self,
        metric_id: Hashable,
        items: Iterable[Any],
        origin: Optional[int] = None,
        now: int = 0,
    ) -> OpCost:
        """Insert items one at a time (at most one DHT store each).

        Items whose position falls below the configured ``bit_shift``
        are assumed set (section 3.5): they store nothing and contribute
        zero cost, so the per-item store count is *at most* one.
        """
        total = OpCost()
        for item in items:
            total.add(self.insert(metric_id, item, origin=origin, now=now))
        return total

    # ------------------------------------------------------------------
    # Bulk insertion: group by interval, one store per interval.
    # ------------------------------------------------------------------
    def insert_bulk(
        self,
        metric_id: Hashable,
        items: Iterable[Any],
        origin: Optional[int] = None,
        now: int = 0,
    ) -> OpCost:
        """Record many items with at most one DHT store per interval.

        All of an interval's tuples ride a single routed message, so the
        hop cost is ``O(k log N)`` per caller regardless of item count
        (the byte cost still scales with the distinct tuples sent).
        """
        by_interval: Dict[int, Dict[Tuple[Hashable, int, int], None]] = {}
        for item in items:
            vector, position = self.observation(item)
            if not self.mapping.is_stored(position):
                continue
            index = self.mapping.interval_index(position)
            # dict-as-ordered-set: one tuple per distinct (vector, bit).
            by_interval.setdefault(index, {})[(metric_id, vector, position)] = None
        total = OpCost()
        for index, tuple_set in sorted(by_interval.items()):
            total.add(
                self._write_tuples(index, list(tuple_set), origin=origin, now=now)
            )
        return total

    def insert_array(
        self,
        metric_id: Hashable,
        item_ids: npt.NDArray[np.int64],
        origin: Optional[int] = None,
        now: int = 0,
    ) -> OpCost:
        """Vectorized :meth:`insert_bulk` over an array of item ids.

        Hashes the whole array once with
        :func:`repro.hashing.vectorized.observations_np` (bit-for-bit
        identical to the scalar :meth:`observation` path — tests assert
        exact agreement), groups the distinct ``(vector, position)``
        observations by id-space interval with ``np.unique``, and sends
        each interval's tuples through the same :meth:`_write_tuples`
        path as the scalar bulk inserter.  Given the same items, seed
        and overlay state it performs the same stores, draws the same
        random target keys, and returns an equal
        :class:`~repro.overlay.stats.OpCost`.

        ``item_ids`` must be non-negative integers (the library's
        workload convention).  Non-``mixer`` hash families have no
        vectorized twin and fall back to the scalar path.
        """
        ids = np.ascontiguousarray(item_ids, dtype=np.int64)
        if self.config.hash_family_name != "mixer":
            return self.insert_bulk(
                metric_id, (int(item) for item in ids), origin=origin, now=now
            )
        vectors, positions = observations_np(
            ids, self.config.num_bitmaps, self.config.key_bits,
            seed=self.config.hash_seed,
        )
        return self.insert_observation_arrays(
            metric_id, vectors, positions, origin=origin, now=now
        )

    def insert_observation_arrays(
        self,
        metric_id: Hashable,
        vectors: npt.NDArray[np.int64],
        positions: npt.NDArray[np.int64],
        origin: Optional[int] = None,
        now: int = 0,
    ) -> OpCost:
        """Bulk-insert pre-computed observation *arrays* (numpy twin of
        :meth:`insert_observations`; same clamping, grouping and store
        order, so the two paths are byte- and cost-identical)."""
        config = self.config
        positions = np.minimum(
            np.asarray(positions, dtype=np.int64), config.position_bits - 1
        )
        vectors = np.asarray(vectors, dtype=np.int64)
        if config.bit_shift > 0:
            stored = positions >= config.bit_shift
            positions = positions[stored]
            vectors = vectors[stored]
        if positions.size == 0:
            return OpCost()
        if config.expiry(now) is None:
            return self._insert_mask_arrays(metric_id, vectors, positions, origin, now)
        m = config.num_bitmaps
        # One integer per (position, vector) pair; np.unique both dedups
        # and sorts, and ascending position is ascending interval index —
        # the same store order as the scalar path's sorted() grouping.
        combined = np.unique(positions * m + vectors)
        unique_positions = combined // m
        unique_vectors = combined - unique_positions * m
        segment_positions, starts = np.unique(unique_positions, return_index=True)
        bounds = np.concatenate((starts, np.asarray([combined.size])))
        total = OpCost()
        for segment, position in enumerate(segment_positions.tolist()):
            index = self.mapping.interval_index(position)
            lo, hi = int(bounds[segment]), int(bounds[segment + 1])
            tuples: List[Tuple[Hashable, int, int]] = [
                (metric_id, vector, position)
                for vector in unique_vectors[lo:hi].tolist()
            ]
            total.add(self._write_tuples(index, tuples, origin=origin, now=now))
        return total

    def _insert_mask_arrays(
        self,
        metric_id: Hashable,
        vectors: npt.NDArray[np.int64],
        positions: npt.NDArray[np.int64],
        origin: Optional[int],
        now: int,
    ) -> OpCost:
        """Immortal-write twin of :meth:`insert_observation_arrays`.

        Dedups the observations with one boolean scatter (no sort),
        packs each position's distinct vectors into bytes with
        ``np.packbits``, and stores one *bitmap* per non-empty interval
        via :func:`repro.core.tuples.write_entry_mask`.
        Same ascending-interval order, same per-interval random key
        draws, and the payload still counts one tuple per distinct
        ``(vector, position)`` pair, so costs and stored state are
        identical to the per-tuple path.
        """
        m = self.config.num_bitmaps
        n_pos = self.config.position_bits
        # Boolean presence grid over (position, vector): duplicate
        # observations collapse for free, no O(n log n) sort needed.
        grid = np.zeros(n_pos * m, dtype=bool)
        grid[positions * m + vectors] = True
        grid = grid.reshape(n_pos, m)
        packed = np.packbits(grid, axis=1, bitorder="little")
        pos_seen = np.zeros(n_pos, dtype=bool)
        pos_seen[positions] = True
        total = OpCost()
        for position in np.flatnonzero(pos_seen).tolist():
            index = self.mapping.interval_index(position)
            mask = int.from_bytes(packed[position].tobytes(), "little")
            total.add(self._store_mask(index, metric_id, position, mask, origin, now))
        return total

    def _store_mask(
        self,
        index: int,
        metric_id: Hashable,
        position: int,
        mask: int,
        origin: Optional[int],
        now: int,
    ) -> OpCost:
        """Store one interval's deduplicated vector bitmap."""

        def write(node: Node) -> None:
            write_entry_mask(node, metric_id, position, mask)

        return self._store_write(index, write, mask.bit_count(), origin, now)

    def insert_observations(
        self,
        metric_id: Hashable,
        observations: Iterable[Tuple[int, int]],
        origin: Optional[int] = None,
        now: int = 0,
    ) -> OpCost:
        """Bulk-insert pre-computed ``(vector, position)`` observations."""
        by_interval: Dict[int, Dict[Tuple[Hashable, int, int], None]] = {}
        for vector, position in observations:
            position = min(position, self.config.position_bits - 1)
            if not self.mapping.is_stored(position):
                continue
            index = self.mapping.interval_index(position)
            by_interval.setdefault(index, {})[(metric_id, vector, position)] = None
        total = OpCost()
        for index, tuple_set in sorted(by_interval.items()):
            total.add(
                self._write_tuples(index, list(tuple_set), origin=origin, now=now)
            )
        return total

    # ------------------------------------------------------------------
    # Shared write path.
    # ------------------------------------------------------------------
    def _write_tuples(
        self,
        index: int,
        tuples: List[Tuple[Hashable, int, int]],
        origin: Optional[int],
        now: int,
    ) -> OpCost:
        expiry = self.config.expiry(now)

        def write(node: Node) -> None:
            for metric_id, vector, position in tuples:
                write_entry(node, metric_id, vector, position, expiry)

        return self._store_write(index, write, len(tuples), origin, now)

    def _store_write(
        self,
        index: int,
        write: Callable[[Node], None],
        count: int,
        origin: Optional[int],
        now: int,
    ) -> OpCost:
        """Route one interval's tuples to a random in-interval key.

        The owner applies ``write``, then its successor replicas do.
        Tracing wraps the store in an ``insert.store`` span and metering
        counts it; neither changes what is written or charged.
        """
        span = (
            obs.TRACER.start("insert.store", tick=now, interval=index, tuples=count)
            if obs.TRACING
            else None
        )
        try:
            key = self.mapping.random_key_in_interval(index, self._rng)
            payload_bytes = count * self.config.size_model.tuple_bytes
            cost = OpCost()
            try:
                storing_node, stored = self.policy.call(
                    lambda: self.dht.store(
                        key, write, origin=origin, payload_bytes=payload_bytes
                    ),
                    self._rng,
                    cost,
                )
            except MessageDropped:
                # The write is lost for good: the tuples were never stored.
                # Soft-state refresh (or read-repair) re-creates them later;
                # the timeout/backoff accounting survives in the cost.
                if span is not None:
                    obs.TRACER.event("insert.lost", tick=now, interval=index)
            else:
                stored.add(cost)
                cost = stored
                if span is not None:
                    obs.TRACER.event(
                        "dht.store", tick=now, key=key, node=storing_node,
                        hops=cost.hops,
                    )
                if self.config.replication > 0:
                    extra = replicate_to_successors(
                        self.dht,
                        storing_node,
                        write,
                        degree=self.config.replication,
                        payload_bytes=payload_bytes,
                    )
                    if extra is not None:
                        cost.add(extra)
                        if span is not None:
                            obs.TRACER.event(
                                "replicate", tick=now, node=storing_node,
                                hops=extra.hops,
                            )
            if span is not None:
                span.set(
                    hops=cost.hops,
                    messages=cost.messages,
                    drops=cost.drops,
                    timeouts=cost.timeouts,
                )
        finally:
            if span is not None:
                obs.TRACER.end(span)
        if obs.METERING:
            obs.METRICS.inc("dhs.insert.stores")
            obs.METRICS.inc("dhs.insert.tuples", count)
            obs.METRICS.observe("dhs.insert.store_hops", cost.hops)
        return cost
