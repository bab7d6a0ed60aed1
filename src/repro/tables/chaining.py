"""Separate-chaining hash table and the entropy-aware growth wrapper.

The chaining table is the simpler of the paper's two prototypical designs
(Section 4.1.1): an array of buckets, collisions resolved by appending to
the bucket.  It counts key comparisons so experiments can check the
paper's equations (1)-(2) directly.

:class:`EntropyAwareTable` implements paper Section 5's "Creating Hash
Tables": the table knows its maximum capacity before the next rehash and
asks a trained :class:`~repro.core.trainer.EntropyModel` for a hasher
with ``log2(capacity) + 1`` bits; every growth re-consults the model, so
the hash gains words exactly when the data structure's entropy demand
crosses the next frontier step (the Figure 4 life cycle).

All hashing — scalar and batched — routes through one
:class:`~repro.engine.HashEngine`, which compiles the partial-key gather,
fuses the bucket-mask reduction, and owns the collision-monitor fallback.
"""

from __future__ import annotations

import math
from typing import Any, Iterator, List, Optional, Sequence, Tuple

from repro._util import Key, as_bytes, next_power_of_two
from repro.core.hasher import EntropyLearnedHasher
from repro.core.trainer import EntropyModel
from repro.engine import CollisionMonitor, HashEngine, MaskReducer
from repro.tables.probing import ProbeStats, insert_in_order

DEFAULT_MAX_LOAD = 1.0


class SeparateChainingTable:
    """Array of buckets; each bucket is a list of (key, value) pairs.

    >>> from repro.core.hasher import EntropyLearnedHasher
    >>> t = SeparateChainingTable(EntropyLearnedHasher.full_key(), capacity=4)
    >>> t.insert(b"k", 42)
    >>> t.get(b"k")
    42
    """

    def __init__(
        self,
        hasher: EntropyLearnedHasher,
        capacity: int = 16,
        max_load: float = DEFAULT_MAX_LOAD,
    ):
        if max_load <= 0.0:
            raise ValueError(f"max_load must be positive, got {max_load}")
        self.engine = HashEngine(hasher)
        self.max_load = max_load
        self._size = 0
        self._init_buckets(next_power_of_two(max(capacity, 2)))
        self.stats = ProbeStats()

    def _init_buckets(self, num_buckets: int) -> None:
        self._mask = num_buckets - 1
        self._reducer = MaskReducer(self._mask)
        self._buckets: List[List[Tuple[bytes, Any]]] = [[] for _ in range(num_buckets)]

    @property
    def hasher(self) -> EntropyLearnedHasher:
        return self.engine.hasher

    @hasher.setter
    def hasher(self, hasher: EntropyLearnedHasher) -> None:
        self.engine.set_hasher(hasher)

    @property
    def num_buckets(self) -> int:
        return self._mask + 1

    @property
    def load_factor(self) -> float:
        return self._size / self.num_buckets

    @property
    def capacity_before_rehash(self) -> int:
        """Maximum item count the current bucket array will hold."""
        return int(self.max_load * self.num_buckets)

    def __len__(self) -> int:
        return self._size

    def _bucket_index(self, key: bytes) -> int:
        return self.engine.hash_one(key, self._reducer)

    # ------------------------------------------------------------ operations

    def insert(self, key: Key, value: Any = None) -> None:
        """Insert or overwrite ``key``; grows ×2 past ``max_load``."""
        key = as_bytes(key)
        self._ensure_room()
        self._insert_at(key, value, self._bucket_index(key))

    def _ensure_room(self) -> None:
        """Grow until one more entry fits under ``max_load``."""
        while self._size + 1 > self.capacity_before_rehash:
            self._grow()

    def _insert_at(self, key: bytes, value: Any, index: int) -> None:
        bucket = self._buckets[index]
        for i, (existing, _) in enumerate(bucket):
            if existing == key:
                bucket[i] = (key, value)
                return
        bucket.append((key, value))
        self._size += 1
        self._after_insert(len(bucket) - 1)

    def _after_insert(self, displacement: int) -> None:
        """Post-insert hook; :class:`EntropyAwareTable` feeds the
        collision monitor here."""

    def get(self, key: Key, default: Any = None) -> Any:
        """Value stored under ``key``; counts comparisons in ``stats``."""
        key = as_bytes(key)
        bucket = self._buckets[self._bucket_index(key)]
        self.stats.probes += 1
        self.stats.chain_total += len(bucket)
        for existing, value in bucket:
            self.stats.key_comparisons += 1
            if existing == key:
                return value
        return default

    def contains(self, key: Key) -> bool:
        sentinel = object()
        return self.get(key, sentinel) is not sentinel

    def __contains__(self, key: Key) -> bool:
        return self.contains(key)

    def delete(self, key: Key) -> bool:
        """Remove ``key``; returns whether it was present."""
        key = as_bytes(key)
        bucket = self._buckets[self._bucket_index(key)]
        for i, (existing, _) in enumerate(bucket):
            if existing == key:
                bucket.pop(i)
                self._size -= 1
                return True
        return False

    def items(self) -> Iterator[Tuple[bytes, Any]]:
        for bucket in self._buckets:
            yield from bucket

    def insert_batch(self, keys: Sequence[Key], values=None) -> None:
        """Insert many keys as the scalar loop would, hashing them in one
        engine pass plus one per mid-batch hasher swap (see
        :func:`~repro.tables.probing.insert_in_order`)."""
        insert_in_order(self, keys, values)

    def probe_batch(self, keys: Sequence[Key]) -> List[Any]:
        """Look up many keys, hashing them in one engine pass."""
        keys = [as_bytes(k) for k in keys]
        indices = self.engine.hash_batch(keys, self._reducer)
        results = []
        buckets = self._buckets
        stats = self.stats
        for key, index in zip(keys, indices):
            bucket = buckets[index]
            stats.probes += 1
            stats.chain_total += len(bucket)
            found = None
            for existing, value in bucket:
                stats.key_comparisons += 1
                if existing == key:
                    found = value
                    break
            results.append(found)
        return results

    def probe_batch_hashed(
        self, keys: Sequence[bytes], hashes, generation: Optional[int] = None
    ) -> List[Any]:
        """Probe with precomputed hashes (see LinearProbingTable).

        Callers that precomputed ``hashes`` earlier should pass the
        engine ``generation`` they snapshotted at hash time; if the
        hasher was swapped since (monitor fallback, plan re-learn), the
        stale hashes are discarded and recomputed — the probe analogue
        of ``insert_batch``'s suffix re-hash.
        """
        if generation is not None and generation != self.engine.generation:
            hashes = self.engine.hash_batch(keys)
        results = []
        buckets = self._buckets
        mask = self._mask
        for key, h in zip(keys, hashes):
            found = None
            for existing, value in buckets[int(h) & mask]:
                if existing == key:
                    found = value
                    break
            results.append(found)
        return results

    # --------------------------------------------------------------- resizing

    def _grow(self) -> None:
        new_buckets = self.num_buckets * 2
        self._on_grow(new_buckets)
        self._rehash(new_buckets)

    def _on_grow(self, new_num_buckets: int) -> None:
        """Growth hook; :class:`EntropyAwareTable` upgrades the hash here."""

    def _rehash(self, num_buckets: int) -> None:
        """Re-place every entry from one hash pass (see
        :meth:`LinearProbingTable._rehash`); keys are distinct, so each
        is appended to its bucket."""
        entries = list(self.items())
        assert len(entries) <= self.max_load * num_buckets, "rehash past max_load"
        self._init_buckets(num_buckets)
        indices = self.engine.hash_batch([key for key, _ in entries], self._reducer)
        for entry, index in zip(entries, indices.tolist()):
            self._buckets[index].append(entry)

    def rebuild_with_hasher(self, hasher: EntropyLearnedHasher) -> None:
        """Rehash all entries under a new hash (robustness fallback)."""
        self.engine.set_hasher(hasher)
        self._rehash(self.num_buckets)

    # ------------------------------------------------------------ diagnostics

    def chain_length_histogram(self) -> List[int]:
        """Bucket sizes; the quantity chaining analysis reasons about."""
        return [len(b) for b in self._buckets]


class EntropyAwareTable(SeparateChainingTable):
    """Chaining table that re-chooses its hash as it grows (Section 5).

    On construction and at every growth, asks the trained model for the
    cheapest partial-key hasher with ``log2(capacity) + 1`` bits for the
    *new* capacity; if the frontier cannot provide it, falls back to
    full-key hashing.  The engine's collision monitor triggers the
    full-key rebuild when observed collisions exceed what the learned
    entropy predicts (the Section 5 robustness story).
    """

    def __init__(
        self,
        model: EntropyModel,
        capacity: int = 16,
        max_load: float = DEFAULT_MAX_LOAD,
        monitor: Optional[CollisionMonitor] = None,
        seed: int = 0,
    ):
        self.model = model
        self._seed = seed
        num_buckets = next_power_of_two(max(capacity, 2))
        # The geometry a fresh build of the spec'd capacity chooses;
        # relearn() resets to it so transient over-growth (e.g. one
        # shard absorbing a whole drifted stream before migration) does
        # not ratchet the entropy demand up forever.
        self._spec_buckets = num_buckets
        hasher = model.hasher_for_chaining_table(
            max(1, int(max_load * num_buckets)), seed=seed
        )
        super().__init__(hasher, capacity=capacity, max_load=max_load)
        self.engine.monitor = monitor

    @property
    def monitor(self) -> Optional[CollisionMonitor]:
        return self.engine.monitor

    @monitor.setter
    def monitor(self, monitor: Optional[CollisionMonitor]) -> None:
        self.engine.monitor = monitor

    @property
    def fallen_back(self) -> bool:
        """True once the monitor forced a full-key rebuild."""
        return self.engine.fell_back

    def _on_grow(self, new_num_buckets: int) -> None:
        if self.fallen_back:
            return
        new_capacity = max(1, int(self.max_load * new_num_buckets))
        self.engine.set_hasher(
            self.model.hasher_for_chaining_table(new_capacity, seed=self._seed)
        )

    def _after_insert(self, displacement: int) -> None:
        # Displacement for chaining = how many keys already shared the
        # bucket; the cheap signal the paper says to track.  The engine
        # compares it against the entropy budget and, past it, swaps
        # itself to full-key hashing before we rehash.  Batch inserts
        # route through here too, so the monitor sees every insert
        # regardless of code path.
        if self.engine.record_insert(
            displacement,
            expected=(self._size - 1) / self.num_buckets,
            n=self._size,
        ):
            self._rehash(self.num_buckets)

    def _fall_back_to_full_key(self) -> None:
        self.engine.fall_back_to_full_key()
        self._rehash(self.num_buckets)

    def relearn(self, model: EntropyModel) -> None:
        """Hot-swap to a freshly trained model (drift recovery).

        A drift swap is a whole-table rebuild, so the geometry also
        resets to what a fresh build would choose for the current
        occupancy (never below the spec'd initial sizing).  Re-picking
        the hasher for the *grown* geometry instead would let a shard
        that transiently ballooned — e.g. while absorbing a
        concentrated drifted stream before migration rebalanced it —
        keep demanding the ballooned capacity's entropy forever,
        locking it into full-key hashing no certified plan can lift.
        The engine rearms (fallback latch cleared, monitor re-based on
        the new entropy claim) and the generation bump makes any hash
        precomputed mid-swap recompute itself on use.
        """
        self.model = model
        fit = next_power_of_two(
            max(int(math.ceil(self._size / self.max_load)), 2)
        )
        num_buckets = max(self._spec_buckets, fit)
        target = max(1, int(self.max_load * num_buckets))
        hasher = model.hasher_for_chaining_table(target, seed=self._seed)
        entropy = None
        if not hasher.partial_key.is_full_key:
            words = len(hasher.partial_key.positions)
            entropy = model.result.entropy_at(words)
        self.engine.rearm(hasher, entropy=entropy)
        self._rehash(num_buckets)
