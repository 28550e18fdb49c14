"""DHS wire tuples and node-store layout.

A DHS entry is the paper's ``<metric_id, vector_id, bit, time_out>``
tuple (section 3.2/3.4).  On a node we index entries by ``(metric, bit)``
and keep one :class:`PackedSlot` per key: a packed integer bitmap whose
bit ``v`` says "vector ``v`` has bit ``bit`` set", plus a small
``{vector_id: expiry}`` side map for the (rare) TTL'd entries.  A
counting probe — "which vectors have bit ``r`` set for these metrics?" —
is then a single mask read (:func:`vectors_mask`) in the common
never-expiring case, instead of a per-vector dict walk.  A node stores at
most one entry per (metric, vector, bit): re-insertions only refresh the
expiry, and an immortal entry dominates any TTL.

Node stores also carry an incrementally-maintained entry count
(``Node.app_entries``) so :func:`storage_entries` — hit once per node
per load-balance snapshot — is O(1) instead of a full store scan; bulk
merges mark the count stale and the next query rescans once.
"""

from __future__ import annotations

from typing import Dict, Hashable, List, NamedTuple, Optional, Tuple, cast

from repro.overlay.node import Node, StoreValue

__all__ = [
    "DHSTuple",
    "PackedSlot",
    "bits_of",
    "write_entry",
    "write_entry_mask",
    "copy_entries",
    "packed_slots",
    "vectors_mask",
    "vectors_at",
    "merge_store_values",
    "purge_expired",
    "storage_entries",
]

#: Expiry sentinel for entries that never age out.
_NEVER = float("inf")


class DHSTuple(NamedTuple):
    """One DHS record as it travels on the wire."""

    metric_id: Hashable
    vector_id: int
    bit: int
    time_out: Optional[int] = None


class PackedSlot:
    """Packed storage for one ``(metric, bit)`` slot.

    ``mask`` holds the never-expiring vectors as an integer bitmap (bit
    ``v`` set ⇔ vector ``v`` stored forever); ``expiring`` holds only the
    TTL'd vectors as ``{vector_id: expiry}`` and is ``None`` until the
    first TTL write.  A vector lives in exactly one of the two — an
    immortal entry absorbs and dominates any finite expiry.

    Two cached summaries of ``expiring`` keep :meth:`live_mask` off the
    dict walk in the common case: ``_ttl_or`` (bitmap of TTL'd vectors,
    possibly a stale superset whose extra bits are always in ``mask``)
    and ``_ttl_min`` (a lower bound on the earliest expiry).  While
    ``now <= _ttl_min`` every TTL'd entry is provably live, so the
    result is just ``mask | _ttl_or``.
    """

    __slots__ = ("mask", "expiring", "_ttl_or", "_ttl_min")

    def __init__(
        self, mask: int = 0, expiring: Optional[Dict[int, float]] = None
    ) -> None:
        self.mask = mask
        self.expiring = expiring
        self._recompute_ttl_cache()

    def _recompute_ttl_cache(self) -> None:
        """Rebuild the exact TTL summaries from ``expiring``."""
        expiring = self.expiring
        if expiring:
            ttl_or = 0
            for vector in expiring:
                ttl_or |= 1 << vector
            self._ttl_or = ttl_or
            self._ttl_min = min(expiring.values())
        else:
            self._ttl_or = 0
            self._ttl_min = _NEVER

    def live_mask(self, now: int) -> int:
        """Bitmap of vectors alive at time ``now`` (immortal + unexpired)."""
        expiring = self.expiring
        if not expiring:
            return self.mask
        if now <= self._ttl_min:
            # Short-circuit: the earliest expiry is still in the future,
            # so every TTL'd vector is live — no dict walk.
            return self.mask | self._ttl_or
        mask = self.mask
        for vector, expiry in expiring.items():
            if expiry >= now:
                mask |= 1 << vector
        return mask

    def entries(self) -> int:
        """Stored entry count (live or stale)."""
        return self.mask.bit_count() + (len(self.expiring) if self.expiring else 0)

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, PackedSlot):
            return NotImplemented
        return self.mask == other.mask and (self.expiring or {}) == (
            other.expiring or {}
        )

    def __hash__(self) -> int:  # pragma: no cover - slots are not dict keys
        return hash((self.mask, tuple(sorted((self.expiring or {}).items()))))

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"PackedSlot(mask={self.mask:#x}, expiring={self.expiring!r})"


def bits_of(mask: int) -> List[int]:
    """Set-bit positions of ``mask``, ascending."""
    out: List[int] = []
    while mask:
        low = mask & -mask
        out.append(low.bit_length() - 1)
        mask ^= low
    return out


def _slot_for(node: Node, metric_id: Hashable, bit: int) -> PackedSlot:
    """The slot for ``(metric_id, bit)``, created empty on first write."""
    key = (metric_id, bit)
    raw = node.store.get(key)
    if isinstance(raw, PackedSlot):
        return raw
    slot = PackedSlot()
    node.store[key] = slot
    return slot


def _fold(slot: PackedSlot, add_mask: int, expiry: Optional[float]) -> int:
    """Fold vectors ``add_mask`` into ``slot``; returns the net new entries.

    An immortal write (``expiry`` ``None``) ORs the bitmap into ``mask``
    and promotes any TTL'd copies of those vectors; a TTL write adds the
    vectors not already immortal to ``expiring``, refreshing existing
    expiries max-wins.  ``_ttl_min`` may become a stale lower bound on
    refresh, which only makes the :meth:`PackedSlot.live_mask`
    short-circuit fire less often — never incorrectly.
    """
    new_bits = add_mask & ~slot.mask
    if not new_bits:
        return 0
    expiring = slot.expiring
    if expiry is None:
        slot.mask |= new_bits
        promoted = 0
        if expiring:
            for vector in bits_of(new_bits & slot._ttl_or):
                if expiring.pop(vector, None) is not None:
                    promoted += 1
        return new_bits.bit_count() - promoted
    if expiring is None:
        expiring = slot.expiring = {}
    new_expiry = float(expiry)
    added = 0
    for vector in bits_of(new_bits):
        current = expiring.get(vector)
        if current is None:
            expiring[vector] = new_expiry
            added += 1
        elif new_expiry > current:
            expiring[vector] = new_expiry
    slot._ttl_or |= new_bits
    if new_expiry < slot._ttl_min:
        slot._ttl_min = new_expiry
    return added


def write_entry_mask(
    node: Node,
    metric_id: Hashable,
    bit: int,
    add_mask: int,
    expiry: Optional[float],
) -> None:
    """Record (or refresh) every vector of ``add_mask`` at one slot.

    The one write into a node store: equivalent to one DHS tuple
    ``<metric_id, v, bit, expiry>`` per set bit ``v``, in one operation.
    ``expiry`` ``None`` is immortal and dominates any TTL.
    """
    node.app_entries += _fold(_slot_for(node, metric_id, bit), add_mask, expiry)


def write_entry(
    node: Node,
    metric_id: Hashable,
    vector_id: int,
    bit: int,
    expiry: Optional[float],
) -> None:
    """Record (or refresh) one DHS entry at ``node``."""
    write_entry_mask(node, metric_id, bit, 1 << vector_id, expiry)


def copy_entries(
    src: PackedSlot, dst: Node, metric_id: Hashable, bit: int, bits: int
) -> int:
    """Copy vectors ``bits`` of ``src`` onto ``dst``; returns how many.

    Each copy keeps its source expiry (immortal stays immortal, TTL'd
    vectors age out on schedule).  Every vector of ``bits`` must be
    stored in ``src``.
    """
    immortal = bits & src.mask
    if immortal:
        write_entry_mask(dst, metric_id, bit, immortal, None)
    expiring = src.expiring or {}
    for vector in bits_of(bits & ~immortal):
        write_entry_mask(dst, metric_id, bit, 1 << vector, expiring[vector])
    return bits.bit_count()


def packed_slots(node: Node) -> List[Tuple[Tuple[Hashable, int], PackedSlot]]:
    """The DHS slots of ``node`` as ``((metric, bit), slot)`` pairs.

    A snapshot list, so callers may write to other stores (or this one)
    while walking it; other applications' values are skipped.
    """
    return [
        (cast(Tuple[Hashable, int], key), slot)
        for key, slot in node.store.items()
        if isinstance(slot, PackedSlot)
    ]


def vectors_mask(node: Node, metric_id: Hashable, bit: int, now: int = 0) -> int:
    """Bitmap of vector ids with a live bit ``bit`` for ``metric_id``."""
    slot = node.store.get((metric_id, bit))
    if not isinstance(slot, PackedSlot):
        return 0
    return slot.live_mask(now)


def vectors_at(node: Node, metric_id: Hashable, bit: int, now: int = 0) -> List[int]:
    """Vector ids with a live bit ``bit`` for ``metric_id`` at ``node``."""
    return bits_of(vectors_mask(node, metric_id, bit, now))


def merge_store_values(
    existing: Optional[StoreValue], incoming: StoreValue
) -> StoreValue:
    """Merge two slots for the same key (used on graceful leave).

    ``existing``'s entries are folded into ``incoming`` in place, exactly
    as if they had been written there: union of immortal vectors,
    max-wins on TTL'd expiries, immortality dominating.
    """
    if isinstance(incoming, PackedSlot) and isinstance(existing, PackedSlot):
        _fold(incoming, existing.mask, None)
        for vector, expiry in (existing.expiring or {}).items():
            _fold(incoming, 1 << vector, expiry)
    return incoming


def purge_expired(node: Node, now: int) -> int:
    """Drop expired entries from ``node``; returns how many were removed.

    The sweep already visits every slot, so it also recomputes the
    incremental ``app_entries`` count from what actually survives
    (rather than decrementing a possibly-stale value): any divergence
    introduced outside :func:`write_entry_mask` — an amnesia rejoin
    wiping the store, a bulk merge — is resynchronized here for free.
    """
    removed = 0
    surviving = 0
    dead_slots = []
    for slot_key, slot in node.store.items():
        if not isinstance(slot, PackedSlot):
            continue
        expiring = slot.expiring
        if expiring and now > slot._ttl_min:
            stale = [
                vector for vector, expiry in expiring.items() if expiry < now
            ]
            for vector in stale:
                del expiring[vector]
            removed += len(stale)
            if not expiring:
                slot.expiring = None
            slot._recompute_ttl_cache()
        if slot.mask == 0 and not slot.expiring:
            dead_slots.append(slot_key)
        else:
            surviving += slot.entries()
    for slot_key in dead_slots:
        del node.store[slot_key]
    node.app_entries = surviving
    node.app_entries_stale = False
    return removed


def storage_entries(node: Node) -> int:
    """Number of live-or-stale DHS entries stored at ``node``.

    O(1): reads the count ``write_entry_mask``/``purge_expired`` maintain
    incrementally.  Bulk store merges (graceful leaves) set
    ``node.app_entries_stale``, and the next query rescans once to
    resynchronize.
    """
    if node.app_entries_stale:
        node.app_entries = sum(
            slot.entries()
            for slot in node.store.values()
            if isinstance(slot, PackedSlot)
        )
        node.app_entries_stale = False
    return node.app_entries
