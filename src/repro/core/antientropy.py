"""Proactive anti-entropy reconciliation over replica chains.

Read-repair and ``stabilize()`` only fix replicas a counting walk
happens to traverse, so after amnesia, a partition, or a crash-rejoin,
untouched replicas stay divergent indefinitely.  This module adds the
background half of the paper's soft-state story (section 3.3): every
maintenance round, each node exchanges *digest trees* with its
replica-chain peers and OR-merges whatever turns out to differ —
independent of query traffic.

The digest tree is two levels of blake2b-128 over a node's register
state: one leaf per ``(metric, bit)`` slot, leaves grouped into
*segments* (one per stored DHS interval of the
:class:`~repro.core.mapping.BitIntervalMap`) whose digests roll up into
a single node root.  A converged pair exchanges two roots and stops —
the steady-state bandwidth floor is ``2 * SizeModel.digest_bytes`` per
pair — and only mismatched segments degrade to shipping their state as
tuples.  A leaf hashes the slot's bitmap in one canonical form
(little-endian bytes, no trailing zeros), so two stores with the same
live bits digest identically however their slots were written.

Reconciliation between a node ``X`` and a chain peer ``S`` is two
asymmetric directions, chosen so repeated rounds converge without
flooding copies around the ring:

* **push** — ``X`` offers the bits it is *primary* for
  (:func:`primary_mask`, the rule ``stabilize`` and
  ``replica_divergence`` also use), and ``S`` OR-merges what it misses.
  This keeps every replica chain at its configured depth.
* **homecoming** — ``S`` returns the bits for which ``X`` is visible to
  the counting walk (:func:`walk_visible`, shared with the interval
  handoff) while ``S`` itself is not.  This is how an amnesiac rejoiner
  pulls its spilled state back home, and how bits stranded behind a
  partition reach a reachable in-interval holder.

Every copy goes through :func:`~repro.core.tuples.copy_entries`.
Digest computation over register state is confined *here* by dhslint
rule DHS1001.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field
from hashlib import blake2b
from typing import Dict, Hashable, List, Mapping, Optional, Sequence, Tuple

from repro.core.mapping import BitIntervalMap
from repro.core.tuples import PackedSlot, copy_entries, packed_slots, vectors_mask
from repro.obs import runtime as obs
from repro.overlay.dht import DHTProtocol
from repro.overlay.messages import DEFAULT_SIZE_MODEL, SizeModel
from repro.overlay.node import Node
from repro.overlay.replication import live_predecessors, replica_chain
from repro.overlay.stats import OpCost

__all__ = [
    "AntiEntropyStats",
    "DigestTree",
    "antientropy_round",
    "primary_mask",
    "reconcile_pair",
    "store_digest",
    "sync_stores",
    "view_digest",
    "walk_visible",
]

#: blake2b output size for every digest in the tree (= SizeModel.digest_bytes).
_DIGEST_SIZE = 16

#: A DHS store key: ``(metric, bit)``.
SlotKey = Tuple[Hashable, int]


@dataclass(frozen=True)
class DigestTree:
    """A node root plus its per-segment digests."""

    root: bytes
    segments: Dict[int, bytes]


@dataclass
class AntiEntropyStats:
    """What one reconciliation round (or pair) did, and what it cost."""

    cost: OpCost = field(default_factory=OpCost)
    pairs: int = 0
    pairs_converged: int = 0
    segments_checked: int = 0
    segments_mismatched: int = 0
    entries_sent: int = 0
    entries_written: int = 0

    def merge(self, other: "AntiEntropyStats") -> None:
        """Fold another stats block into this one."""
        self.cost.add(other.cost)
        self.pairs += other.pairs
        self.pairs_converged += other.pairs_converged
        self.segments_checked += other.segments_checked
        self.segments_mismatched += other.segments_mismatched
        self.entries_sent += other.entries_sent
        self.entries_written += other.entries_written


# ----------------------------------------------------------------------
# Replica-plane rules shared with stabilize, the interval handoff and
# replica_divergence (repro.core.maintenance).
# ----------------------------------------------------------------------
def walk_visible(
    dht: DHTProtocol, mapping: BitIntervalMap, bit: int, node_id: int
) -> bool:
    """Whether the counting walk for ``bit`` can read ``node_id``.

    The walk's reach for interval ``[lo, hi)`` is exactly the
    in-interval nodes plus the one overflow owner (the node owning key
    ``hi - 1``, which owns every in-interval key when the interval is
    empty of nodes).  Shifted-away bits are never walked, so every node
    counts as visible for them.
    """
    if not mapping.is_stored(bit):
        return True
    index = mapping.interval_index(bit)
    if mapping.contains(index, node_id):
        return True
    _, hi = mapping.interval_for_index(index)
    return node_id == dht.owner_of(hi - 1)


def primary_mask(
    dht: DHTProtocol, predecessors: Sequence[int], key: SlotKey, live: int, now: int
) -> int:
    """The bits of ``live`` that none of ``predecessors`` hold at ``now``.

    Chain primacy: a node is primary for exactly these bits, and copying
    only them keeps every chain at ``R + 1`` holders across repeated
    sweeps instead of flooding copies around the ring.
    """
    metric, bit = key
    for pred_id in predecessors:
        if not live:
            break
        live &= ~vectors_mask(dht.node(pred_id), metric, bit, now)
    return live


# ----------------------------------------------------------------------
# Digests.
# ----------------------------------------------------------------------
def _segment(mapping: BitIntervalMap, bit: int) -> int:
    """Digest segment of ``bit``: its interval (``-1`` if never stored)."""
    return mapping.interval_index(bit) if mapping.is_stored(bit) else -1


def _canonical(mask: int) -> bytes:
    """Canonical bitmap bytes: little-endian, no trailing zeros."""
    return mask.to_bytes((mask.bit_length() + 7) // 8, "little")


def _leaf(
    key: SlotKey, mask_bytes: bytes, ttl_items: Sequence[Tuple[int, float]]
) -> Tuple[bytes, bytes]:
    """One slot's ``(sort key, digest)`` leaf."""
    key_repr = repr(key).encode()
    digest = blake2b(key_repr, digest_size=_DIGEST_SIZE)
    digest.update(b"\x00")
    digest.update(mask_bytes)
    for vector, expiry in ttl_items:
        digest.update(f"|{vector}:{expiry!r}".encode())
    return key_repr, digest.digest()


def _rollup(leaves: Dict[int, List[Tuple[bytes, bytes]]]) -> DigestTree:
    """Per-segment digests and the node root over sorted leaves."""
    segments: Dict[int, bytes] = {}
    for segment, pairs in leaves.items():
        digest = blake2b(digest_size=_DIGEST_SIZE)
        for key_repr, leaf in sorted(pairs):
            digest.update(key_repr)
            digest.update(leaf)
        segments[segment] = digest.digest()
    root = blake2b(digest_size=_DIGEST_SIZE)
    for segment in sorted(segments):
        root.update(segment.to_bytes(4, "little", signed=True))
        root.update(segments[segment])
    return DigestTree(root.digest(), segments)


def _live_ttl_items(slot: PackedSlot, now: int) -> Tuple[Tuple[int, float], ...]:
    """The slot's live TTL'd ``(vector, expiry)`` pairs, sorted."""
    expiring = slot.expiring
    if not expiring:
        return ()
    return tuple(sorted((v, e) for v, e in expiring.items() if e >= now))


def store_digest(node: Node, now: int, mapping: BitIntervalMap) -> DigestTree:
    """Digest tree over ``node``'s full live register state.

    Two stores hold bit-identical live state iff their roots agree.
    """
    leaves: Dict[int, List[Tuple[bytes, bytes]]] = {}
    for key, slot in packed_slots(node):
        leaves.setdefault(_segment(mapping, key[1]), []).append(
            _leaf(key, _canonical(slot.mask), _live_ttl_items(slot, now))
        )
    return _rollup(leaves)


def view_digest(view: Mapping[SlotKey, int], mapping: BitIntervalMap) -> DigestTree:
    """Digest tree over a plain ``{key: bitmap}`` view (protocol messages)."""
    leaves: Dict[int, List[Tuple[bytes, bytes]]] = {}
    for key, mask in view.items():
        leaves.setdefault(_segment(mapping, key[1]), []).append(
            _leaf(key, _canonical(mask), ())
        )
    return _rollup(leaves)


# ----------------------------------------------------------------------
# Reconciliation.
# ----------------------------------------------------------------------
#: A sync view: per slot key, the bitmap on offer plus the source slot
#: (consulted for per-vector expiries when bits are actually shipped).
_View = Dict[SlotKey, Tuple[int, PackedSlot]]


def _sync_direction(
    dht: DHTProtocol,
    dst_id: int,
    view: _View,
    now: int,
    *,
    model: SizeModel,
    mapping: BitIntervalMap,
    stats: AntiEntropyStats,
) -> bool:
    """One half of a reconciliation: offer ``view`` to ``dst_id``.

    Root digests are exchanged unconditionally (the bandwidth floor);
    on mismatch both sides ship per-segment digest lists, and only the
    mismatched segments degrade to tuple summaries which ``dst``
    OR-merges.  Returns whether the pair was already converged.
    """
    cost = stats.cost
    cost.messages += 2
    cost.hops += 2
    cost.bytes += 2 * model.digest_bytes
    dst = dht.node(dst_id)
    src_tree = view_digest({key: mask for key, (mask, _) in view.items()}, mapping)
    dst_masks: Dict[SlotKey, int] = {
        key: vectors_mask(dst, key[0], key[1], now) & mask
        for key, (mask, _) in view.items()
    }
    dst_tree = view_digest(dst_masks, mapping)
    if src_tree.root == dst_tree.root:
        return True
    segments = sorted(src_tree.segments)
    stats.segments_checked += len(segments)
    cost.messages += 2
    cost.hops += 2
    cost.bytes += 2 * len(segments) * model.digest_bytes
    mismatched = {
        segment
        for segment in segments
        if src_tree.segments[segment] != dst_tree.segments.get(segment)
    }
    stats.segments_mismatched += len(mismatched)
    shipped_slots = 0
    shipped_entries = 0
    for key, (mask, slot) in view.items():
        metric, bit = key
        if _segment(mapping, bit) not in mismatched:
            continue
        shipped_slots += 1
        shipped_entries += mask.bit_count()
        wrote = copy_entries(slot, dst, metric, bit, mask & ~dst_masks[key])
        stats.entries_written += wrote
        cost.repair_writes += wrote
    stats.entries_sent += shipped_entries
    cost.messages += 1
    cost.hops += 1
    cost.bytes += model.summary_bytes(shipped_slots, shipped_entries)
    dht.load.record(dst_id)
    return False


def _primary_view(
    dht: DHTProtocol, node_id: int, now: int, degree: int
) -> _View:
    """Live bits ``node_id`` is primary for (none of its preds hold them).

    Predecessors are consulted through the current fault state: a
    partitioned predecessor cannot answer, so its bits count as absent
    and the node steps up as primary for them — which is exactly what
    lets anti-entropy re-cover a chain *during* an outage.
    """
    preds = live_predecessors(dht, node_id, degree, responsive_only=True)
    view: _View = {}
    for key, slot in packed_slots(dht.node(node_id)):
        primary = primary_mask(dht, preds, key, slot.live_mask(now), now)
        if primary:
            view[key] = (primary, slot)
    return view


def _homecoming_view(
    dht: DHTProtocol, holder_id: int, home_id: int, now: int, mapping: BitIntervalMap
) -> _View:
    """Bits at ``holder_id`` whose interval sees ``home_id`` but not the holder."""
    view: _View = {}
    for key, slot in packed_slots(dht.node(holder_id)):
        bit = key[1]
        if not walk_visible(dht, mapping, bit, home_id) or walk_visible(
            dht, mapping, bit, holder_id
        ):
            continue
        live = slot.live_mask(now)
        if live:
            view[key] = (live, slot)
    return view


def reconcile_pair(
    dht: DHTProtocol,
    left_id: int,
    right_id: int,
    now: int,
    *,
    degree: int,
    model: SizeModel,
    mapping: BitIntervalMap,
    stats: Optional[AntiEntropyStats] = None,
) -> AntiEntropyStats:
    """Reconcile one replica-chain pair: primary push + homecoming pull."""
    if stats is None:
        stats = AntiEntropyStats()
    stats.pairs += 1

    def _run() -> None:
        assert stats is not None
        push = _primary_view(dht, left_id, now, degree)
        converged = _sync_direction(
            dht, right_id, push, now, model=model, mapping=mapping, stats=stats
        )
        home = _homecoming_view(dht, right_id, left_id, now, mapping)
        converged &= _sync_direction(
            dht, left_id, home, now, model=model, mapping=mapping, stats=stats
        )
        if converged:
            stats.pairs_converged += 1

    if obs.TRACING:
        with obs.TRACER.span(
            "dhs.antientropy.reconcile", tick=now, left=left_id, right=right_id
        ):
            _run()
    else:
        _run()
    return stats


def sync_stores(
    dht: DHTProtocol,
    left_id: int,
    right_id: int,
    now: int,
    *,
    mapping: BitIntervalMap,
    model: SizeModel = DEFAULT_SIZE_MODEL,
    stats: Optional[AntiEntropyStats] = None,
) -> AntiEntropyStats:
    """Full bidirectional sync: both stores end at the OR of their live state.

    The degenerate (chain-oblivious) exchange — used by tests to prove
    convergence properties and available as a forced whole-store repair.
    """
    if stats is None:
        stats = AntiEntropyStats()
    stats.pairs += 1

    def _full_view(node_id: int) -> _View:
        view: _View = {}
        for key, slot in packed_slots(dht.node(node_id)):
            live = slot.live_mask(now)
            if live:
                view[key] = (live, slot)
        return view

    converged = _sync_direction(
        dht, right_id, _full_view(left_id), now,
        model=model, mapping=mapping, stats=stats,
    )
    converged &= _sync_direction(
        dht, left_id, _full_view(right_id), now,
        model=model, mapping=mapping, stats=stats,
    )
    if converged:
        stats.pairs_converged += 1
    return stats


def antientropy_round(
    dht: DHTProtocol,
    replication: int,
    now: int,
    *,
    mapping: BitIntervalMap,
    model: Optional[SizeModel] = None,
    rng: Optional[random.Random] = None,
    sample: Optional[int] = None,
) -> AntiEntropyStats:
    """One reconciliation round over every responsive node's replica chain.

    Each responsive node reconciles with its ``max(1, replication)``
    responsive chain successors.  ``sample`` (with a seeded ``rng``)
    limits the round to a deterministic subset of initiators — the
    scheduler's knob for spreading repair load over several ticks.
    """
    size_model = model if model is not None else DEFAULT_SIZE_MODEL
    stats = AntiEntropyStats()
    ids: List[int] = list(dht.responsive_node_ids())
    if sample is not None and rng is not None and 0 < sample < len(ids):
        ids = sorted(rng.sample(ids, sample))
    degree = max(1, replication)

    def _run() -> None:
        for left_id in ids:
            for right_id in replica_chain(dht, left_id, degree, responsive_only=True):
                reconcile_pair(
                    dht, left_id, right_id, now,
                    degree=degree, model=size_model, mapping=mapping, stats=stats,
                )

    if obs.TRACING:
        with obs.TRACER.span(
            "dhs.antientropy.round", tick=now, initiators=len(ids)
        ):
            _run()
    else:
        _run()
    if obs.METERING:
        obs.METRICS.inc("dhs.antientropy.pairs", stats.pairs)
        obs.METRICS.inc("dhs.antientropy.repair_writes", stats.entries_written)
        obs.METRICS.inc("dhs.antientropy.bytes", stats.cost.bytes)
        obs.METRICS.observe(
            "dhs.antientropy.segments_mismatched", stats.segments_mismatched
        )
    return stats
