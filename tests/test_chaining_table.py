"""Tests for the separate-chaining table and the entropy-aware wrapper."""

import math
import random

import pytest

from repro.core.hasher import EntropyLearnedHasher
from repro.core.sizing import entropy_for_chaining_table
from repro.core.trainer import train_model
from repro.engine.monitor import CollisionMonitor
from repro.tables.chaining import EntropyAwareTable, SeparateChainingTable


@pytest.fixture
def full_hasher():
    return EntropyLearnedHasher.full_key("wyhash")


class TestBasicOperations:
    def test_insert_get_delete(self, full_hasher):
        table = SeparateChainingTable(full_hasher, capacity=8)
        table.insert(b"k", 7)
        assert table.get(b"k") == 7
        assert table.delete(b"k")
        assert table.get(b"k") is None

    def test_overwrite_keeps_size(self, full_hasher):
        table = SeparateChainingTable(full_hasher, capacity=8)
        table.insert(b"k", 1)
        table.insert(b"k", 2)
        assert len(table) == 1 and table.get(b"k") == 2

    def test_contains(self, full_hasher):
        table = SeparateChainingTable(full_hasher)
        table.insert(b"a")
        assert b"a" in table and b"b" not in table

    def test_grows(self, full_hasher):
        table = SeparateChainingTable(full_hasher, capacity=2, max_load=1.0)
        for i in range(500):
            table.insert(f"k{i}".encode(), i)
        assert len(table) == 500
        assert table.load_factor <= 1.0
        assert all(table.get(f"k{i}".encode()) == i for i in range(500))

    def test_rejects_bad_max_load(self, full_hasher):
        with pytest.raises(ValueError):
            SeparateChainingTable(full_hasher, max_load=0.0)

    def test_chain_histogram_sums_to_size(self, full_hasher):
        table = SeparateChainingTable(full_hasher, capacity=64)
        for i in range(40):
            table.insert(f"k{i}".encode())
        assert sum(table.chain_length_histogram()) == 40

    def test_fuzz_against_dict(self, full_hasher):
        rng = random.Random(7)
        table = SeparateChainingTable(full_hasher, capacity=4)
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


class TestComparisonCounts:
    def test_comparisons_match_equation_shape(self, full_hasher):
        """Eq (2): average comparisons for hits ~ 1 + alpha/2."""
        rng = random.Random(9)
        stored = [rng.randbytes(16) for _ in range(800)]
        table = SeparateChainingTable(full_hasher, capacity=1024, max_load=1.0)
        for k in stored:
            table.insert(k)
        table.stats.clear()
        for k in stored:
            table.get(k)
        measured = table.stats.comparisons_per_probe
        alpha = len(table) / table.num_buckets
        predicted = 1 + alpha / 2
        assert measured == pytest.approx(predicted, rel=0.15)

    def test_missing_comparisons_approx_alpha(self, full_hasher):
        rng = random.Random(10)
        stored = [rng.randbytes(16) for _ in range(800)]
        missing = [rng.randbytes(16) for _ in range(800)]
        table = SeparateChainingTable(full_hasher, capacity=1024)
        for k in stored:
            table.insert(k)
        table.stats.clear()
        for k in missing:
            table.get(k)
        alpha = len(table) / table.num_buckets
        assert table.stats.comparisons_per_probe == pytest.approx(alpha, rel=0.2)


class TestEntropyAwareTable:
    def test_upgrades_hash_as_it_grows(self, google_corpus):
        """Section 5 life cycle: growth re-consults the model, so the
        number of selected words is nondecreasing in capacity."""
        model = train_model(google_corpus, fixed_dataset=True)
        table = EntropyAwareTable(model, capacity=4)
        words_over_time = []
        for i, key in enumerate(google_corpus):
            table.insert(key, i)
            words_over_time.append(len(table.hasher.partial_key.positions))
        assert all(
            b >= a for a, b in zip(words_over_time, words_over_time[1:])
        ) or table.hasher.partial_key.is_full_key
        assert all(
            table.get(k) == i for i, k in enumerate(google_corpus)
        )

    def test_initial_hasher_sized_for_capacity(self, google_corpus):
        model = train_model(google_corpus, fixed_dataset=True)
        table = EntropyAwareTable(model, capacity=128)
        required = entropy_for_chaining_table(128)
        num_words = len(table.hasher.partial_key.positions)
        if num_words:
            assert model.result.entropy_at(num_words) >= required

    def test_monitor_triggers_fallback_on_adversarial_data(self, google_corpus):
        """Train on URLs, then insert keys that are constant on the
        selected bytes: the monitor must force a full-key rebuild and
        the table must stay correct."""
        model = train_model(google_corpus, fixed_dataset=True)
        probe = model.hasher_for_chaining_table(4096)
        if probe.partial_key.is_full_key:
            pytest.skip("model fell back already")
        monitor = CollisionMonitor(
            entropy=model.result.entropy_at(len(probe.partial_key.positions)),
            num_slots=4096,
            min_inserts=32,
        )
        table = EntropyAwareTable(model, capacity=4096, monitor=monitor)
        width = table.hasher.partial_key.last_byte_used
        adversarial = [
            b"C" * width + f"-suffix-{i}".encode() for i in range(600)
        ]
        for i, key in enumerate(adversarial):
            table.insert(key, i)
        assert table.fallen_back
        assert table.hasher.partial_key.is_full_key
        assert all(table.get(k) == i for i, k in enumerate(adversarial))

    def test_no_fallback_on_matching_data(self, google_corpus):
        model = train_model(google_corpus[:300], fixed_dataset=True)
        monitor = CollisionMonitor(
            entropy=model.entropy_available(), num_slots=1024, min_inserts=32
        )
        table = EntropyAwareTable(model, capacity=1024, monitor=monitor)
        for i, key in enumerate(google_corpus[300:]):
            table.insert(key, i)
        assert not table.fallen_back


class TestInsertBatch:
    def test_batch_equals_scalar_inserts(self, full_hasher):
        a = SeparateChainingTable(full_hasher, capacity=8)
        b = SeparateChainingTable(full_hasher, capacity=8)
        keys = [f"k{i}".encode() for i in range(300)]
        values = list(range(300))
        a.insert_batch(keys, values)
        for k, v in zip(keys, values):
            b.insert(k, v)
        assert dict(a.items()) == dict(b.items())
        assert len(a) == len(b) == 300

    def test_batch_overwrites(self, full_hasher):
        table = SeparateChainingTable(full_hasher, capacity=8)
        table.insert_batch([b"k", b"k"], [1, 2])
        assert table.get(b"k") == 2
        assert len(table) == 1

    def test_batch_length_mismatch(self, full_hasher):
        table = SeparateChainingTable(full_hasher)
        with pytest.raises(ValueError):
            table.insert_batch([b"a"], [1, 2])


class TestEntropyAwareBatchScalarParity:
    """Every grow of an :class:`EntropyAwareTable` swaps the hasher, so
    ``insert_batch`` re-hashes its unconsumed suffix mid-batch; it must
    still match the scalar loop and never hash key by key."""

    @pytest.fixture(scope="class")
    def model(self, layered_corpus):
        return train_model(layered_corpus, fixed_dataset=True)

    @staticmethod
    def _stream(layered_corpus):
        rng = random.Random(11)
        keys = layered_corpus[:300] + rng.sample(layered_corpus[:300], 60)
        rng.shuffle(keys)
        return keys

    def _pair(self, model, trip_at=None):
        tables = []
        for _ in range(2):
            monitor = None
            if trip_at is not None:
                monitor = CollisionMonitor(
                    entropy=math.inf, num_slots=16, min_inserts=1
                )
            table = EntropyAwareTable(model, capacity=16, monitor=monitor)
            if trip_at is not None:
                # Both tables feed the monitor the same insert sequence,
                # so a hook that counts signals trips both at one insert.
                signals = []

                def hook(displacement, signals=signals):
                    signals.append(displacement)
                    return 1e9 if len(signals) == trip_at else 0.0

                table.engine.fault_hook = hook
            tables.append(table)
        return tables

    def _check_parity(self, model, keys, trip_at=None):
        batch, scalar = self._pair(model, trip_at)
        counters = batch.engine.counters
        for start in range(0, len(keys), 128):
            chunk = keys[start:start + 128]
            buckets, calls, fallbacks = (
                batch.num_buckets, counters.batches, counters.fallback_events
            )
            batch.insert_batch(chunk, list(range(start, start + len(chunk))))
            grows = (batch.num_buckets // buckets).bit_length() - 1
            fallbacks = counters.fallback_events - fallbacks
            calls = counters.batches - calls
            # One pass for the batch; per grow or fallback, one for the
            # resident rehash and at most one for the suffix.
            assert 1 + grows + fallbacks <= calls <= 1 + 2 * (grows + fallbacks)
        for i, key in enumerate(keys):
            scalar.insert(key, i)
        assert batch.num_buckets == scalar.num_buckets
        assert batch.num_buckets >= 16 * 2 ** 3
        assert sorted(batch.items()) == sorted(scalar.items())
        assert batch.engine.generation == scalar.engine.generation
        assert batch.fallen_back == scalar.fallen_back
        probe_keys = keys[::3] + [f"miss-{i:04d}".encode() for i in range(60)]
        assert batch.probe_batch(probe_keys) == [scalar.get(k) for k in probe_keys]
        for field in ("probes", "key_comparisons", "chain_total"):
            assert getattr(batch.stats, field) == getattr(scalar.stats, field), field
        assert counters.scalar_calls == 0
        return batch

    def test_growth_parity(self, model, layered_corpus):
        first_words = len(self._pair(model)[0].hasher.partial_key.positions)
        batch = self._check_parity(model, self._stream(layered_corpus))
        assert not batch.fallen_back
        # Growth swapped in wider hashers, so the suffix re-hash ran.
        assert len(batch.hasher.partial_key.positions) > first_words

    def test_mid_batch_fallback_parity(self, model, layered_corpus):
        batch = self._check_parity(model, self._stream(layered_corpus), trip_at=150)
        assert batch.fallen_back
        assert batch.engine.counters.fallback_events == 1
