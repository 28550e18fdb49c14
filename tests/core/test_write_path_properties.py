"""Property tests for the one write path into the node store.

* Insertion: ``insert_bulk`` over Python ints, int64 ndarrays and
  strings stores exactly the ``observation()`` pairs (less the positions
  below ``bit_shift``) and routes exactly one store per non-empty
  interval, immortal or TTL'd, with or without replication.
* Store writes: ``write_entry_mask`` and ``copy_entries`` match a plain
  ``{vector: expiry}`` dict model (max-wins, immortal dominates) in live
  state, expiries and the incremental ``app_entries`` count.
"""

import math

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.config import DHSConfig
from repro.core.dhs import DistributedHashSketch
from repro.core.tuples import (
    PackedSlot,
    bits_of,
    copy_entries,
    storage_entries,
    write_entry_mask,
)
from repro.overlay.chord import ChordRing
from repro.overlay.node import Node

# ----------------------------------------------------------------------
# Insertion.
# ----------------------------------------------------------------------
ITEMS = st.one_of(
    st.lists(st.integers(-(2**40), 2**40), max_size=300),
    st.lists(st.integers(0, 2**62), max_size=300).map(
        lambda xs: np.array(xs, dtype=np.int64)
    ),
    st.lists(st.text(max_size=6), max_size=200),
)


def _routed_keys(dht):
    """Wrap ``dht.store`` to record the key of every routed store."""
    keys = []
    store = dht.store

    def recording(key, *args, **kwargs):
        keys.append(key)
        return store(key, *args, **kwargs)

    dht.store = recording
    return keys


@given(
    items=ITEMS,
    ttl=st.sampled_from([None, 5]),
    bit_shift=st.sampled_from([0, 3]),
    replication=st.sampled_from([0, 2]),
    now=st.integers(0, 9),
)
@settings(max_examples=60, deadline=None)
def test_insert_bulk_stores_exactly_the_observations(
    items, ttl, bit_shift, replication, now
):
    ring = ChordRing.build(24, bits=32, seed=11)
    config = DHSConfig(
        key_bits=16, num_bitmaps=8, ttl=ttl, bit_shift=bit_shift,
        replication=replication,
    )
    dhs = DistributedHashSketch(ring, config, seed=4)
    keys = _routed_keys(ring)
    dhs.insert_bulk("m", items, now=now)

    expected = {
        (vector, position)
        for vector, position in map(dhs._inserter.observation, list(items))
        if position >= bit_shift
    }
    stored = set()
    for node_id in ring.node_ids():
        for (metric, position), slot in ring.node(node_id).store.items():
            assert metric == "m" and isinstance(slot, PackedSlot)
            if ttl is None:
                assert not slot.expiring
            else:
                assert slot.mask == 0
                assert set(slot.expiring.values()) == {float(now + ttl)}
            vectors = bits_of(slot.mask) + list(slot.expiring or {})
            stored.update((vector, position) for vector in vectors)
    assert stored == expected

    # Exactly one routed store per non-empty interval, each at a key
    # inside that interval.
    intervals = sorted({dhs.mapping.interval_index(p) for _, p in expected})
    assert len(keys) == len(intervals)
    for key, index in zip(keys, intervals):
        assert dhs.mapping.contains(index, key)


# ----------------------------------------------------------------------
# write_entry_mask / copy_entries against a dict model.
# ----------------------------------------------------------------------
VECTORS = 8
BITS = 3

write_op = st.tuples(
    st.just("write"),
    st.integers(0, 1),                      # node
    st.integers(0, BITS - 1),               # bit
    st.integers(0, 2**VECTORS - 1),         # vector mask
    st.one_of(st.none(), st.integers(0, 20)),  # expiry
)
copy_op = st.tuples(
    st.just("copy"),
    st.integers(0, 1),                      # source node (dest is the other)
    st.integers(0, BITS - 1),               # bit
    st.integers(0, 2**VECTORS - 1),         # candidate bits (masked to source)
)
OPS = st.lists(st.one_of(write_op, copy_op), max_size=25)


def _model_write(model, bit, vectors, expiry):
    """Max-wins write of ``vectors`` with ``expiry`` (inf = immortal)."""
    slot = model.setdefault(bit, {})
    for vector in vectors:
        slot[vector] = max(slot.get(vector, -math.inf), expiry)


def _assert_matches(node, model):
    entries = 0
    for bit in range(BITS):
        expected = model.get(bit, {})
        entries += len(expected)
        slot = node.store.get(("m", bit))
        if slot is None:
            assert not expected
            continue
        assert slot.mask == sum(1 << v for v, e in expected.items() if e == math.inf)
        assert (slot.expiring or {}) == {
            v: e for v, e in expected.items() if e != math.inf
        }
        for now in (0, 7, 14, 21):
            live = sum(1 << v for v, e in expected.items() if e >= now)
            assert slot.live_mask(now) == live
    assert node.app_entries == entries
    assert storage_entries(node) == entries


@given(ops=OPS)
@settings(max_examples=200, deadline=None)
def test_mask_writes_and_copies_match_dict_model(ops):
    nodes = [Node(0), Node(1)]
    models = [{}, {}]
    for op in ops:
        if op[0] == "write":
            _, which, bit, mask, expiry = op
            write_entry_mask(nodes[which], "m", bit, mask, expiry)
            value = math.inf if expiry is None else float(expiry)
            _model_write(models[which], bit, bits_of(mask), value)
        else:
            _, src, bit, candidates = op
            dst = 1 - src
            source = models[src].get(bit, {})
            bits = candidates & sum(1 << v for v in source)
            slot = nodes[src].store.get(("m", bit))
            if slot is None:
                continue
            assert copy_entries(slot, nodes[dst], "m", bit, bits) == len(bits_of(bits))
            for vector in bits_of(bits):
                _model_write(models[dst], bit, [vector], source[vector])
        for node, model in zip(nodes, models):
            _assert_matches(node, model)
