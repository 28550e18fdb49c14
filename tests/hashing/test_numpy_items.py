"""numpy integer items hash exactly like the equal Python ints.

Regression: ``_to_int``/``_to_bytes`` used to reject ``np.int64`` with
``TypeError: unhashable item type``, so ``insert_bulk`` over an ndarray
(or a list of numpy scalars) and ``local_sketch`` over an ndarray failed.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.config import DHSConfig
from repro.core.dhs import DistributedHashSketch
from repro.hashing.family import MD4Hash, MixerHash
from repro.overlay.chord import ChordRing

INT64 = st.integers(-(2**63), 2**63 - 1)


@pytest.mark.parametrize("family_cls", [MixerHash, MD4Hash])
@given(value=INT64)
@settings(max_examples=60, deadline=None)
def test_numpy_int64_hashes_like_int(family_cls, value):
    family = family_cls(bits=64, seed=3)
    assert family(np.int64(value)) == family(value)


@pytest.mark.parametrize("family_cls", [MixerHash, MD4Hash])
def test_bool_keeps_its_own_tag(family_cls):
    family = family_cls(bits=64, seed=3)
    assert family(True) != family(1)
    assert family(np.uint8(1)) == family(1)


def make_dhs(hash_family_name="mixer"):
    ring = ChordRing.build(32, bits=32, seed=5)
    config = DHSConfig(
        key_bits=16, num_bitmaps=8, hash_family_name=hash_family_name
    )
    return DistributedHashSketch(ring, config, seed=2)


def stored(dhs):
    return {
        node_id: dict(dhs.dht.node(node_id).store)
        for node_id in dhs.dht.node_ids()
        if dhs.dht.node(node_id).store
    }


@pytest.mark.parametrize("name", ["mixer", "md4"])
def test_local_sketch_of_ndarray_equals_list(name):
    dhs = make_dhs(name)
    items = np.arange(500, dtype=np.int64)
    assert (
        dhs.local_sketch(items).to_bytes()
        == dhs.local_sketch(items.tolist()).to_bytes()
    )


@pytest.mark.parametrize("name", ["mixer", "md4"])
@pytest.mark.parametrize(
    "as_items", [lambda xs: np.array(xs, dtype=np.int64), lambda xs: [np.int64(x) for x in xs]]
)
def test_insert_bulk_of_numpy_items_equals_list(name, as_items):
    items = list(range(300)) + [3, 3, 7]
    by_list, by_numpy = make_dhs(name), make_dhs(name)
    cost_list = by_list.insert_bulk("m", items)
    cost_numpy = by_numpy.insert_bulk("m", as_items(items))
    assert (cost_list.hops, cost_list.bytes) == (cost_numpy.hops, cost_numpy.bytes)
    assert stored(by_list) == stored(by_numpy)
