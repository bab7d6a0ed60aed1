"""Tests for the cuckoo hash table substrate."""

import random

import pytest

from repro.core.hasher import EntropyLearnedHasher
from repro.core.trainer import train_model
from repro.tables.cuckoo import BUCKET_SLOTS, CuckooTable


@pytest.fixture
def full_hasher():
    return EntropyLearnedHasher.full_key("wyhash")


class TestBasicOperations:
    def test_insert_get_delete(self, full_hasher):
        table = CuckooTable(full_hasher, capacity=16)
        table.insert(b"k", 7)
        assert table.get(b"k") == 7
        assert table.delete(b"k")
        assert table.get(b"k") is None
        assert not table.delete(b"k")

    def test_overwrite(self, full_hasher):
        table = CuckooTable(full_hasher, capacity=16)
        table.insert(b"k", 1)
        table.insert(b"k", 2)
        assert table.get(b"k") == 2
        assert len(table) == 1

    def test_contains(self, full_hasher):
        table = CuckooTable(full_hasher)
        table.insert(b"x")
        assert b"x" in table and b"y" not in table

    def test_many_inserts_with_growth(self, full_hasher):
        table = CuckooTable(full_hasher, capacity=8)
        keys = [f"key-{i}".encode() for i in range(3000)]
        for i, key in enumerate(keys):
            table.insert(key, i)
        assert len(table) == 3000
        assert all(table.get(k) == i for i, k in enumerate(keys))
        assert table.load_factor <= table.max_load + 1e-9

    def test_items_cover_everything(self, full_hasher):
        table = CuckooTable(full_hasher, capacity=64)
        data = {f"k{i}".encode(): i for i in range(100)}
        for k, v in data.items():
            table.insert(k, v)
        assert dict(table.items()) == data

    def test_validation(self, full_hasher):
        with pytest.raises(ValueError):
            CuckooTable(full_hasher, max_load=0.0)

    def test_fuzz_against_dict(self, full_hasher):
        rng = random.Random(77)
        table = CuckooTable(full_hasher, capacity=8)
        reference = {}
        universe = [f"key-{i}".encode() for i in range(150)]
        for _ in range(2500):
            key = rng.choice(universe)
            op = rng.random()
            if op < 0.5:
                value = rng.randrange(100)
                table.insert(key, value)
                reference[key] = value
            elif op < 0.8:
                assert table.get(key) == reference.get(key)
            else:
                assert table.delete(key) == (reference.pop(key, None) is not None)
        assert dict(table.items()) == reference


class TestCuckooProperties:
    def test_lookup_touches_at_most_two_buckets(self, full_hasher):
        """The defining worst-case guarantee: a key is only ever in one
        of its two candidate buckets."""
        table = CuckooTable(full_hasher, capacity=256)
        keys = [f"key-{i}".encode() for i in range(500)]
        for key in keys:
            table.insert(key, key)
        for key in keys:
            b1, b2 = table._bucket_pair(key)
            stored = [k for k, _ in table._buckets[b1]] + [
                k for k, _ in table._buckets[b2]
            ]
            assert key in stored

    def test_high_load_factor_supported(self, full_hasher):
        """4-slot buckets should sustain ~90% load without growth storms."""
        table = CuckooTable(full_hasher, capacity=4096, max_load=0.9)
        rng = random.Random(5)
        n = int(4096 * 0.85)
        for i in range(n):
            table.insert(rng.randbytes(16), i)
        assert table.rebuilds <= 2

    def test_relocation_accounting(self, full_hasher):
        table = CuckooTable(full_hasher, capacity=64, max_load=0.9)
        for i in range(50):
            table.insert(f"k{i}".encode(), i)
        assert table.relocations >= 0  # counter exists and is sane

    def test_grow_hashes_entries_in_one_pass(self, full_hasher):
        table = CuckooTable(full_hasher, capacity=256, max_load=0.9)
        keys = [f"grow-{i}".encode() for i in range(220)]
        for i, key in enumerate(keys):
            table.insert(key, i)
        counters = table.engine.counters
        scalar_calls, batches = counters.scalar_calls, counters.batches
        slots, rebuilds = table.num_slots, table.rebuilds
        table._grow()
        assert counters.scalar_calls == scalar_calls
        assert counters.batches == batches + 1
        assert table.num_slots >= 2 * slots
        assert table.rebuilds == rebuilds + 1
        assert len(table) == len(keys)
        assert table.probe_batch(keys) == list(range(len(keys)))


class TestWithEntropyLearnedHashing:
    def test_elh_cuckoo_correct(self, google_corpus):
        model = train_model(google_corpus, fixed_dataset=True)
        hasher = model.hasher_for_probing_table(len(google_corpus))
        table = CuckooTable(hasher, capacity=1024)
        for i, key in enumerate(google_corpus):
            table.insert(key, i)
        assert all(table.get(k) == i for i, k in enumerate(google_corpus))

    def test_partial_key_collisions_cost_evictions_not_correctness(self):
        """Keys equal on L's bytes share both candidate buckets; beyond
        2 * BUCKET_SLOTS of them the table must still stay correct by
        growing (more buckets = pairs eventually separate... they don't
        for identical hashes — growth makes b1 != b2 spread, but equal
        hashes keep equal buckets, so the table grows until the insert
        retry logic gives up gracefully or they fit)."""
        hasher = EntropyLearnedHasher.from_positions([0], word_size=8)
        # Exactly 2 * BUCKET_SLOTS colliding keys fit in the two buckets.
        colliders = [b"SAMEWORD" + f"-{i:02d}".encode()
                     for i in range(2 * BUCKET_SLOTS)]
        table = CuckooTable(hasher, capacity=256)
        for i, key in enumerate(colliders):
            table.insert(key, i)
        assert all(table.get(k) == i for i, k in enumerate(colliders))

    def test_too_many_identical_hashes_raise(self):
        """More L-colliding keys than two buckets can hold is the one
        configuration cuckoo hashing fundamentally cannot store; the
        table must fail loudly, not loop forever."""
        hasher = EntropyLearnedHasher.from_positions([0], word_size=8)
        colliders = [b"SAMEWORD" + f"-{i:02d}".encode()
                     for i in range(2 * BUCKET_SLOTS + 1)]
        table = CuckooTable(hasher, capacity=64)
        with pytest.raises(RuntimeError):
            for i, key in enumerate(colliders):
                table.insert(key, i)
