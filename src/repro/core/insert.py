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

There is one write path.  Every iterable becomes ``(vector, position)``
observation arrays (an integer ndarray is hashed in one numpy pass,
anything else item by item), and one grouping — a boolean
``(position, vector)`` grid packed into one bitmap per position —
feeds one routed store per non-empty interval.  TTL'd and immortal
writes take the same path; the owner and each successor replica apply
the same :func:`~repro.core.tuples.write_entry_mask`.  Refreshing is
re-insertion (section 3.3).  Single-item :meth:`Inserter.insert` skips
the grid and stores its one bit directly.
"""

from __future__ import annotations

from typing import Any, Hashable, Iterable, Optional, Tuple

import numpy as np
import numpy.typing as npt

from repro.core.config import DHSConfig
from repro.core.mapping import BitIntervalMap
from repro.core.policy import DEFAULT_POLICY, RetryPolicy
from repro.core.tuples import write_entry_mask
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
        return self._store_write(metric_id, position, 1 << vector, origin, now)

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
        (the byte cost still scales with the distinct tuples sent).  An
        integer ndarray of (non-negative) item ids under the ``mixer``
        family is hashed in one numpy pass by
        :func:`~repro.hashing.vectorized.observations_np`; anything else
        goes through :meth:`observation` one item at a time.  Both give
        bit-identical observations, so the stores are the same.
        """
        config = self.config
        if (
            isinstance(items, np.ndarray)
            and items.dtype.kind in "iu"
            and config.hash_family_name == "mixer"
        ):
            vectors, positions = observations_np(
                np.ascontiguousarray(items, dtype=np.int64),
                config.num_bitmaps, config.key_bits, seed=config.hash_seed,
            )
        else:
            pairs = np.array(
                [self.observation(item) for item in items], dtype=np.int64
            ).reshape(-1, 2)
            vectors, positions = pairs[:, 0], pairs[:, 1]
        return self._insert_grid(metric_id, vectors, positions, origin, now)

    def insert_observation_arrays(
        self,
        metric_id: Hashable,
        vectors: npt.NDArray[np.int64],
        positions: npt.NDArray[np.int64],
        origin: Optional[int] = None,
        now: int = 0,
    ) -> OpCost:
        """Bulk-insert pre-computed ``(vector, position)`` observation arrays.

        Positions are clamped like the sketches' and grouped exactly as
        in :meth:`insert_bulk`.
        """
        return self._insert_grid(metric_id, vectors, positions, origin, now)

    def _insert_grid(
        self,
        metric_id: Hashable,
        vectors: npt.NDArray[np.int64],
        positions: npt.NDArray[np.int64],
        origin: Optional[int],
        now: int,
    ) -> OpCost:
        """The one insert grouping: one bitmap store per non-empty interval.

        Dedups the observations with one boolean scatter over a
        ``(position, vector)`` grid (no sort), packs each position's
        distinct vectors into an integer bitmap with ``np.packbits``, and
        stores the intervals in ascending order — one random key draw
        each.  The payload counts one tuple per distinct pair.  Both
        public entry points call it, so neither nests inside the other.
        """
        config = self.config
        m = config.num_bitmaps
        n_pos = config.position_bits
        positions = np.minimum(np.asarray(positions, dtype=np.int64), n_pos - 1)
        vectors = np.asarray(vectors, dtype=np.int64)
        if config.bit_shift > 0:
            stored = positions >= config.bit_shift
            positions = positions[stored]
            vectors = vectors[stored]
        if positions.size == 0:
            return OpCost()
        grid = np.zeros(n_pos * m, dtype=bool)
        grid[positions * m + vectors] = True
        packed = np.packbits(grid.reshape(n_pos, m), axis=1, bitorder="little")
        pos_seen = np.zeros(n_pos, dtype=bool)
        pos_seen[positions] = True
        total = OpCost()
        for position in np.flatnonzero(pos_seen).tolist():
            mask = int.from_bytes(packed[position].tobytes(), "little")
            total.add(self._store_write(metric_id, position, mask, origin, now))
        return total

    # ------------------------------------------------------------------
    # The routed store.
    # ------------------------------------------------------------------
    def _store_write(
        self,
        metric_id: Hashable,
        position: int,
        mask: int,
        origin: Optional[int],
        now: int,
    ) -> OpCost:
        """Route the vectors ``mask`` of one position to a random key of
        its interval.

        The owner applies one :func:`~repro.core.tuples.write_entry_mask`,
        then its successor replicas apply the same write.  Tracing wraps
        the store in an ``insert.store`` span and metering counts it;
        neither changes what is written or charged.
        """
        index = self.mapping.interval_index(position)
        count = mask.bit_count()
        expiry = self.config.expiry(now)

        def write(node: Node) -> None:
            write_entry_mask(node, metric_id, position, mask, expiry)

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
