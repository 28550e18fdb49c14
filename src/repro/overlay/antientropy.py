"""Proactive anti-entropy reconciliation over replica chains.

PR 4's healing is query-driven: read-repair and ``stabilize()`` only fix
replicas a counting walk happens to traverse, so after amnesia, a
partition, or a crash-rejoin, untouched replicas stay divergent
indefinitely.  This module adds the background half of the paper's
soft-state story (section 3.3): every maintenance round, each node
exchanges *digest trees* with its replica-chain peers and OR-merges
whatever turns out to differ — independent of query traffic.

The digest tree is two levels of blake2b-128 over a node's register
state: one leaf per ``(metric, bit)`` slot, leaves grouped into
*segments* (one per stored DHS interval, via an injected ``segment_of``
mapping) whose digests roll up into a single node root.  A converged
pair exchanges two roots and stops — the steady-state bandwidth floor
is ``2 * SizeModel.digest_bytes`` per pair — and only mismatched
segments degrade to shipping their state as tuples.  A leaf hashes the
slot's bitmap in one canonical form (little-endian bytes, no trailing
zeros), so two stores with the same live bits digest identically however
their slots were written.

Reconciliation between a node ``X`` and a chain peer ``S`` is two
asymmetric directions, chosen so repeated rounds converge without
flooding copies around the ring:

* **push** — ``X`` offers the bits it is *primary* for (live bits none
  of its ``R`` live predecessors hold, the same primacy rule
  ``stabilize`` uses), and ``S`` OR-merges what it misses.  This keeps
  every replica chain at its configured depth.
* **homecoming** — ``S`` returns the bits for which ``X`` is *visible*
  to the counting walk (in-interval, per the injected predicate) while
  ``S`` itself is not.  This is how an amnesiac rejoiner pulls its
  spilled state back home, and how bits stranded behind a partition
  reach a reachable in-interval holder.

Layering note: this module sits in the overlay and must not import the
core DHS machinery, so slots are duck-typed (:class:`RegisterSlot`) and
the interval geometry (``segment_of``, ``visible``) plus the store
writer arrive as callables injected by
:func:`repro.core.maintenance.antientropy_sweep`.  Digest computation
over register state is confined *here* by dhslint rule DHS1001.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field
from hashlib import blake2b
from typing import (
    Callable,
    Dict,
    Hashable,
    Iterator,
    List,
    Mapping,
    Optional,
    Protocol,
    Sequence,
    Tuple,
    cast,
)

from repro.obs import runtime as obs
from repro.overlay.dht import DHTProtocol
from repro.overlay.messages import DEFAULT_SIZE_MODEL, SizeModel
from repro.overlay.node import Node
from repro.overlay.replication import live_predecessors, replica_chain
from repro.overlay.stats import OpCost

__all__ = [
    "AntiEntropyStats",
    "DigestTree",
    "RegisterSlot",
    "antientropy_round",
    "reconcile_pair",
    "store_digest",
    "sync_stores",
    "view_digest",
]

#: blake2b output size for every digest in the tree (= SizeModel.digest_bytes).
_DIGEST_SIZE = 16


class RegisterSlot(Protocol):
    """Duck type of a DHS register slot (:class:`~repro.core.tuples.PackedSlot`).

    The overlay never imports the core slot class (layering); it only
    relies on this surface.
    """

    mask: int
    expiring: Optional[Dict[int, float]]

    def live_mask(self, now: int) -> int: ...


#: A DHS store key: ``(metric, bit)``.
SlotKey = Tuple[Hashable, int]
#: Injected store writer: ``write_fn(node, metric, vector, bit, expiry)``.
WriteFn = Callable[[Node, Hashable, int, int, Optional[int]], None]
#: Injected walk-visibility predicate: ``visible(bit, node_id)``.
VisibleFn = Callable[[int, int], bool]
#: Injected interval geometry: ``segment_of(bit) -> segment index``.
SegmentFn = Callable[[int], int]


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


def _dhs_slots(node: Node) -> Iterator[Tuple[SlotKey, RegisterSlot]]:
    """The node's DHS register slots (other applications' values skipped)."""
    for key, value in node.store.items():
        if (
            isinstance(key, tuple)
            and len(key) == 2
            and isinstance(key[1], int)
            and hasattr(value, "live_mask")
        ):
            yield cast(SlotKey, key), cast(RegisterSlot, value)


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


def _live_ttl_items(slot: RegisterSlot, now: int) -> Tuple[Tuple[int, float], ...]:
    """The slot's live TTL'd ``(vector, expiry)`` pairs, sorted."""
    expiring = slot.expiring
    if not expiring:
        return ()
    return tuple(sorted((v, e) for v, e in expiring.items() if e >= now))


def store_digest(node: Node, now: int, segment_of: SegmentFn) -> DigestTree:
    """Digest tree over ``node``'s full live register state.

    Two stores hold bit-identical live state iff their roots agree.
    """
    leaves: Dict[int, List[Tuple[bytes, bytes]]] = {}
    for key, slot in _dhs_slots(node):
        leaves.setdefault(segment_of(key[1]), []).append(
            _leaf(key, _canonical(slot.mask), _live_ttl_items(slot, now))
        )
    return _rollup(leaves)


def view_digest(view: Mapping[SlotKey, int], segment_of: SegmentFn) -> DigestTree:
    """Digest tree over a plain ``{key: bitmap}`` view (protocol messages)."""
    leaves: Dict[int, List[Tuple[bytes, bytes]]] = {}
    for key, mask in view.items():
        leaves.setdefault(segment_of(key[1]), []).append(
            _leaf(key, _canonical(mask), ())
        )
    return _rollup(leaves)


def _bits(mask: int) -> List[int]:
    """Set-bit positions, ascending (local copy — no core import here)."""
    out: List[int] = []
    while mask:
        low = mask & -mask
        out.append(low.bit_length() - 1)
        mask ^= low
    return out


def _entry_expiry(slot: RegisterSlot, vector: int) -> Optional[int]:
    """Replication expiry for one live vector: ``None`` if immortal."""
    if (slot.mask >> vector) & 1:
        return None
    expiring = slot.expiring or {}
    return int(expiring[vector])


#: A sync view: per slot key, the bitmap on offer plus the source slot
#: (consulted for per-vector expiries when bits are actually shipped).
_View = Dict[SlotKey, Tuple[int, RegisterSlot]]


def _sync_direction(
    dht: DHTProtocol,
    dst_id: int,
    view: _View,
    now: int,
    *,
    model: SizeModel,
    segment_of: SegmentFn,
    write_fn: WriteFn,
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
    src_tree = view_digest({key: mask for key, (mask, _) in view.items()}, segment_of)
    dst_masks: Dict[SlotKey, int] = {}
    for key, (mask, _) in view.items():
        other = dst.store.get(key)
        have = (
            cast(RegisterSlot, other).live_mask(now)
            if hasattr(other, "live_mask")
            else 0
        )
        dst_masks[key] = have & mask
    dst_tree = view_digest(dst_masks, segment_of)
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
        if segment_of(key[1]) not in mismatched:
            continue
        shipped_slots += 1
        shipped_entries += mask.bit_count()
        metric, bit = key
        for vector in _bits(mask & ~dst_masks[key]):
            write_fn(dst, metric, vector, bit, _entry_expiry(slot, vector))
            stats.entries_written += 1
            cost.repair_writes += 1
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
    node = dht.node(node_id)
    preds = [
        dht.node(p)
        for p in live_predecessors(dht, node_id, degree, responsive_only=True)
    ]
    view: _View = {}
    for key, slot in _dhs_slots(node):
        live = slot.live_mask(now)
        if not live:
            continue
        pred_mask = 0
        for pred in preds:
            other = pred.store.get(key)
            if hasattr(other, "live_mask"):
                pred_mask |= cast(RegisterSlot, other).live_mask(now)
        primary = live & ~pred_mask
        if primary:
            view[key] = (primary, slot)
    return view


def _homecoming_view(
    dht: DHTProtocol, holder_id: int, home_id: int, now: int, visible: VisibleFn
) -> _View:
    """Bits at ``holder_id`` whose interval sees ``home_id`` but not the holder."""
    holder = dht.node(holder_id)
    view: _View = {}
    for key, slot in _dhs_slots(holder):
        bit = key[1]
        if not visible(bit, home_id) or visible(bit, holder_id):
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
    visible: VisibleFn,
    segment_of: SegmentFn,
    write_fn: WriteFn,
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
            dht, right_id, push, now,
            model=model, segment_of=segment_of, write_fn=write_fn, stats=stats,
        )
        home = _homecoming_view(dht, right_id, left_id, now, visible)
        converged &= _sync_direction(
            dht, left_id, home, now,
            model=model, segment_of=segment_of, write_fn=write_fn, stats=stats,
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
    model: SizeModel = DEFAULT_SIZE_MODEL,
    segment_of: SegmentFn,
    write_fn: WriteFn,
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
        for key, slot in _dhs_slots(dht.node(node_id)):
            live = slot.live_mask(now)
            if live:
                view[key] = (live, slot)
        return view

    converged = _sync_direction(
        dht, right_id, _full_view(left_id), now,
        model=model, segment_of=segment_of, write_fn=write_fn, stats=stats,
    )
    converged &= _sync_direction(
        dht, left_id, _full_view(right_id), now,
        model=model, segment_of=segment_of, write_fn=write_fn, stats=stats,
    )
    if converged:
        stats.pairs_converged += 1
    return stats


def antientropy_round(
    dht: DHTProtocol,
    replication: int,
    now: int,
    *,
    model: Optional[SizeModel] = None,
    visible: VisibleFn,
    segment_of: SegmentFn,
    write_fn: WriteFn,
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
                    degree=degree, model=size_model, visible=visible,
                    segment_of=segment_of, write_fn=write_fn, stats=stats,
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
