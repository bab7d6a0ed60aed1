"""Tests for the b-bit MinHash + LSH banding similarity stack."""

import os
import random
import signal

import numpy as np
import pytest

from repro.core.hasher import EntropyLearnedHasher
from repro.service import (
    FrontDoorThread,
    RemoteService,
    Service,
    ServiceClient,
)
from repro.similarity import (
    BBitMinHash,
    LSHIndex,
    SimilarityAdapter,
    collision_floor,
    shingle_bytes,
    standard_error,
)
from repro.sketches.minhash import MinHashSignature


@pytest.fixture
def full_hasher():
    return EntropyLearnedHasher.full_key("xxh3")


def _sets_with_jaccard(similarity: float, size: int = 400, seed: int = 0):
    rng = random.Random(seed)
    shared = int(size * 2 * similarity / (1 + similarity))
    common = [f"common-{i}-{rng.random()}".encode() for i in range(shared)]
    only_a = [f"a-{i}-{rng.random()}".encode() for i in range(size - shared)]
    only_b = [f"b-{i}-{rng.random()}".encode() for i in range(size - shared)]
    return common + only_a, common + only_b


def _exact_jaccard(set_a, set_b) -> float:
    a, b = set(set_a), set(set_b)
    return len(a & b) / len(a | b)


def _planted_corpus(n=40, dups=12, seed=0, words_per_doc=30):
    """Random word-salad docs plus near-duplicates (one word edited).

    Keys carry a random hex prefix so their bytes vary at the fuzz
    hashers' learned positions (0-1 and 4-5) — a constant prefix would
    partial-key-collide every key onto one shard.
    """
    rng = random.Random(seed)
    vocab = [f"word{i:03d}".encode() for i in range(400)]

    def make_key(tag: bytes, i: int) -> bytes:
        return b"%08x-%s%d" % (rng.getrandbits(32), tag, i)

    docs = {}
    for i in range(n):
        words = [vocab[rng.randrange(len(vocab))]
                 for _ in range(words_per_doc)]
        docs[make_key(b"doc", i)] = b" ".join(words)
    pairs = []
    base_keys = list(docs)
    for j in range(dups):
        src = base_keys[rng.randrange(n)]
        words = docs[src].split()
        words[rng.randrange(len(words))] = b"edited"
        dup = make_key(b"dup", j)
        docs[dup] = b" ".join(words)
        pairs.append((src, dup))
    return docs, pairs


# ------------------------------------------------------------ signatures


class TestBBitSignatures:
    def test_truncation_keeps_low_bits(self, full_hasher):
        full = MinHashSignature.from_items(full_hasher, [b"x", b"y"], k=32)
        sig = BBitMinHash.from_signature(full, b=4)
        assert sig.bits.dtype == np.uint16
        assert (sig.bits == (full.mins & np.uint64(0xF)).astype(np.uint16)).all()
        assert sig.fingerprint == full.fingerprint

    def test_packed_layout_is_msb_first_per_band(self):
        # k=4, bands=2, rows=2, b=4: band 0 holds rows (0x1, 0x2) which
        # pack MSB-first into the byte 0x12; band 1 -> 0x34.
        sig = BBitMinHash(np.array([1, 2, 3, 4], dtype=np.uint64),
                          b=4, bands=2)
        assert sig.block_bytes == 1
        assert sig.band_bytes(0) == b"\x12"
        assert sig.band_bytes(1) == b"\x34"
        assert sig.to_bytes() == b"\x12\x34"

    def test_packed_pads_partial_bytes_with_zero_bits(self):
        # rows * b = 3 bits: one block byte, bits 0b101 then 5 zero bits.
        sig = BBitMinHash(np.array([0b101], dtype=np.uint64), b=3, bands=1)
        assert sig.block_bytes == 1
        assert sig.band_bytes(0) == bytes([0b1010_0000])

    def test_bands_must_divide_k(self):
        with pytest.raises(ValueError, match="bands must divide"):
            BBitMinHash(np.zeros(10, dtype=np.uint64), b=8, bands=3)

    def test_b_range_validated(self):
        with pytest.raises(ValueError):
            BBitMinHash(np.zeros(4, dtype=np.uint64), b=0)
        with pytest.raises(ValueError):
            standard_error(17, 64)
        with pytest.raises(ValueError):
            standard_error(8, 0)

    def test_identical_sets_estimate_one(self, full_hasher):
        items = [f"item-{i}".encode() for i in range(100)]
        a = BBitMinHash.from_items(full_hasher, items, k=64, b=4)
        b = BBitMinHash.from_items(full_hasher, items, k=64, b=4)
        assert a.jaccard(b) == 1.0

    def test_collision_floor_corrected_on_disjoint_sets(self, full_hasher):
        # At b=1 half the rows of two unrelated sets agree by chance;
        # the corrected estimator must still say "not similar".
        a = BBitMinHash.from_items(
            full_hasher, [f"a{i}".encode() for i in range(300)], k=256, b=1
        )
        b = BBitMinHash.from_items(
            full_hasher, [f"b{i}".encode() for i in range(300)], k=256, b=1
        )
        raw_agreement = float((a.bits == b.bits).mean())
        assert abs(raw_agreement - collision_floor(1)) < 0.15
        assert a.jaccard(b) < 4 * standard_error(1, 256, 0.0) + 0.02

    @pytest.mark.parametrize("b", [1, 2, 4, 8])
    @pytest.mark.parametrize("target", [0.3, 0.7])
    def test_estimator_bias_within_theory(self, full_hasher, b, target):
        """Property (satellite): for every b the corrected estimate sits
        within ~4 standard errors of the *exact* Jaccard of the sets."""
        set_a, set_b = _sets_with_jaccard(target, seed=5)
        exact = _exact_jaccard(set_a, set_b)
        a = BBitMinHash.from_items(full_hasher, set_a, k=256, b=b)
        bb = BBitMinHash.from_items(full_hasher, set_b, k=256, b=b)
        assert abs(a.jaccard(bb) - exact) < 4 * standard_error(b, 256, exact)

    def test_standard_error_inflates_as_b_shrinks(self):
        errors = [standard_error(b, 128) for b in (1, 2, 4, 8)]
        assert errors == sorted(errors, reverse=True)
        # b=8's inflation over a full 64-bit signature is negligible.
        assert errors[-1] < 1.005 * (0.25 / 128) ** 0.5

    def test_mismatched_layout_rejected(self, full_hasher):
        a = BBitMinHash.from_items(full_hasher, [b"x"], k=32, b=4)
        b8 = BBitMinHash.from_items(full_hasher, [b"x"], k=32, b=8)
        banded = BBitMinHash.from_items(full_hasher, [b"x"], k=32, b=4,
                                        bands=4)
        with pytest.raises(ValueError, match="equal"):
            a.jaccard(b8)
        with pytest.raises(ValueError, match="equal"):
            a.jaccard(banded)

    def test_mismatched_hasher_rejected(self, full_hasher):
        a = BBitMinHash.from_items(full_hasher, [b"x"], k=16, b=8)
        other = EntropyLearnedHasher.full_key("wyhash")
        b = BBitMinHash.from_items(other, [b"x"], k=16, b=8)
        with pytest.raises(ValueError, match="different hashers"):
            a.jaccard(b)


# ----------------------------------------------------------------- index


class TestLSHIndex:
    def _signatures(self, docs, hasher, bands=16, rows=4, b=8, width=8):
        return {
            key: BBitMinHash.from_items(
                hasher, shingle_bytes(doc, width),
                k=bands * rows, b=b, bands=bands,
            )
            for key, doc in docs.items()
        }

    def test_threshold_formula(self):
        index = LSHIndex(bands=8, rows=4)
        assert index.threshold == pytest.approx((1 / 8) ** (1 / 4))

    def test_insert_query_remove_roundtrip(self, full_hasher):
        docs, _ = _planted_corpus(n=10, dups=2, seed=1)
        sigs = self._signatures(docs, full_hasher, bands=4, rows=2)
        index = LSHIndex(bands=4, rows=2, b=8)
        index.insert_batch(list(sigs), list(sigs.values()))
        assert len(index) == len(docs)
        some = next(iter(sigs))
        assert some in index
        assert index.remove(some) is True
        assert index.remove(some) is False
        assert some not in index
        # Removed keys never come back as neighbors.
        for result in index.query_batch(list(sigs.values()),
                                        [5] * len(sigs)):
            assert all(key != some for key, _ in result)

    def test_candidates_superset_of_exact_band_matches(self, full_hasher):
        """The banding guarantee: items sharing a bit-identical band
        block are always candidates (hashing can only add, never drop)."""
        docs, _ = _planted_corpus(n=24, dups=8, seed=2)
        sigs = self._signatures(docs, full_hasher, bands=8, rows=2)
        index = LSHIndex(bands=8, rows=2, b=8)
        index.insert_batch(list(sigs), list(sigs.values()))
        for key, sig in sigs.items():
            cands = index.candidates(sig)
            for other, other_sig in sigs.items():
                shares = any(
                    sig.band_bytes(band) == other_sig.band_bytes(band)
                    for band in range(sig.bands)
                )
                if shares:
                    assert other in cands, (key, other)

    def test_query_reranks_with_deterministic_tiebreak(self, full_hasher):
        sig = BBitMinHash.from_items(full_hasher, [b"x", b"y"], k=8, b=8,
                                     bands=4)
        index = LSHIndex(bands=4, rows=2, b=8)
        # Two identical items tie at score 1.0: key order must break it.
        index.insert(b"bbb", sig)
        index.insert(b"aaa", sig)
        result = index.query(sig, 2)
        assert [key for key, _ in result] == [b"aaa", b"bbb"]
        assert all(score == 1.0 for _, score in result)

    def test_layout_mismatch_rejected(self, full_hasher):
        index = LSHIndex(bands=4, rows=2, b=8)
        wrong = BBitMinHash.from_items(full_hasher, [b"x"], k=8, b=4,
                                       bands=4)
        with pytest.raises(ValueError, match="layout"):
            index.insert(b"k", wrong)

    def test_recall_at_10_on_planted_duplicates(self, full_hasher):
        """Property (satellite): recall@10 >= 0.9 for planted pairs."""
        docs, pairs = _planted_corpus(n=50, dups=15, seed=3)
        sigs = self._signatures(docs, full_hasher)
        index = LSHIndex(bands=16, rows=4, b=8)
        index.insert_batch(list(sigs), list(sigs.values()))
        hits = sum(
            1 for src, dup in pairs
            if dup in {key for key, _ in
                       index.query(sigs[src], 10, exclude=src)}
        )
        assert hits / len(pairs) >= 0.9

    def test_partial_key_band_hasher_same_candidate_guarantee(self):
        """An entropy-learned band hasher over the packed signature
        bytes keeps the superset guarantee: equal blocks, equal hash."""
        band_hasher = EntropyLearnedHasher.from_positions(
            (0, 2), word_size=2, base="xxh3"
        )
        element = EntropyLearnedHasher.full_key("xxh3")
        docs, pairs = _planted_corpus(n=30, dups=10, seed=4)
        sigs = self._signatures(docs, element)
        index = LSHIndex(bands=16, rows=4, b=8, hasher=band_hasher)
        index.insert_batch(list(sigs), list(sigs.values()))
        hits = sum(
            1 for src, dup in pairs
            if dup in {key for key, _ in
                       index.query(sigs[src], 10, exclude=src)}
        )
        assert hits / len(pairs) >= 0.9


# --------------------------------------------------------------- adapter


class TestSimilarityAdapter:
    def _adapter(self, **kwargs):
        hasher = EntropyLearnedHasher.full_key("xxh3", seed=1)
        defaults = dict(bands=8, rows=4, b=8, shingle_width=4)
        defaults.update(kwargs)
        return SimilarityAdapter(hasher, capacity=64, **defaults)

    def test_put_get_delete_contains(self):
        adapter = self._adapter()
        adapter.put_batch([b"a", b"b"], [b"doc a", b"doc b"])
        assert adapter.get_batch([b"a", b"b", b"c"]) == [
            b"doc a", b"doc b", None,
        ]
        assert adapter.contains_batch([b"a", b"c"]) == [True, False]
        assert adapter.delete_batch([b"a", b"a"]) == [True, False]
        assert len(adapter) == 1
        assert len(adapter.index) == 1

    def test_similar_excludes_self_and_marks_unknown(self):
        adapter = self._adapter()
        adapter.put_batch(
            [b"a", b"b"],
            [b"the quick brown fox", b"the quick brown cat"],
        )
        results = adapter.similar_batch([b"a", b"zz"], [b"5", b"5"])
        assert results[1] is None
        neighbors = results[0]
        assert [key for key, _ in neighbors] == [b"b"]
        assert 0.0 <= neighbors[0][1] <= 1.0

    def test_overwrite_reindexes_signature(self):
        adapter = self._adapter()
        adapter.put_batch([b"a", b"b"], [b"same words here", b"same words here"])
        (before,) = adapter.similar_batch([b"a"], [b"3"])
        assert [key for key, _ in before] == [b"b"]
        adapter.put_batch([b"b"], [b"completely different payload text"])
        (after,) = adapter.similar_batch([b"a"], [b"3"])
        assert all(score < 1.0 for _, score in after)
        assert len(adapter.index) == 2

    def test_newest_wins_within_batch(self):
        adapter = self._adapter()
        adapter.put_batch([b"a", b"a"], [b"first doc", b"second doc"])
        assert adapter.get_batch([b"a"]) == [b"second doc"]
        assert len(adapter.index) == 1

    def test_parse_k_defaults_and_clamps(self):
        parse = SimilarityAdapter._parse_k
        from repro.similarity import DEFAULT_NEIGHBORS

        assert parse(None) == DEFAULT_NEIGHBORS
        assert parse(b"") == DEFAULT_NEIGHBORS
        assert parse(b"not a number") == DEFAULT_NEIGHBORS
        assert parse(b"3") == 3
        assert parse(b"-2") == 0

    def test_fall_back_and_restore_preserve_answers(self):
        adapter = self._adapter()
        adapter.put_batch(
            [b"a", b"b", b"c"],
            [b"alpha bravo charlie", b"alpha bravo charlied",
             b"zulu yankee xray whiskey"],
        )
        (baseline,) = adapter.similar_batch([b"a"], [b"1"])
        assert [key for key, _ in baseline] == [b"b"]
        adapter.fall_back()
        assert adapter.tripped
        assert len(adapter.index) == 3
        (degraded,) = adapter.similar_batch([b"a"], [b"1"])
        assert [key for key, _ in degraded] == [b"b"]
        adapter.restore_partial_key()
        assert not adapter.tripped
        (restored,) = adapter.similar_batch([b"a"], [b"1"])
        assert restored == baseline

    def test_stats_shape(self):
        adapter = self._adapter()
        adapter.put_batch([b"a"], [b"doc"])
        stats = adapter.stats()
        assert stats["backend"] == "similarity"
        assert stats["size"] == 1
        assert stats["index"]["items"] == 1


# --------------------------------------------------------------- service


OPTIONS = {"bands": 8, "rows": 4, "b": 8, "shingle_width": 4}


def _service(execution="inline", num_shards=2, **kwargs):
    hasher = EntropyLearnedHasher.from_positions(
        (0, 4), word_size=2, base="xxh3", seed=1
    )
    return Service(
        num_shards=num_shards, backend="similarity", hasher=hasher,
        capacity=256, execution=execution, backend_options=dict(OPTIONS),
        **kwargs,
    )


def _put_corpus(client, docs):
    responses = client.put_many(list(docs.items()))
    assert all(response.ok for response in responses)


class TestSimilarityService:
    @pytest.mark.parametrize("execution", ["inline", "process"])
    def test_round_trip_both_executions(self, execution):
        docs, pairs = _planted_corpus(n=16, dups=4, seed=7)
        service = _service(execution)
        try:
            client = ServiceClient(service)
            _put_corpus(client, docs)
            route = service.router.table.route_one
            for src, dup in pairs:
                if route(src) != route(dup):
                    continue  # similarity is per-shard by design
                neighbors = client.similar(src, k=10)
                assert dup in {key for key, _ in neighbors}, (src, dup)
            assert client.similar(b"nope") == []
            assert client.contains(next(iter(docs)))
            many = client.similar_many(list(docs), k=3)
            assert len(many) == len(docs)
            assert client.lost_acks == 0
        finally:
            service.close()

    def test_similar_rides_default_k(self):
        service = _service(num_shards=1)
        try:
            from repro.service import Request

            client = ServiceClient(service)
            _put_corpus(client, {b"a": b"same doc", b"b": b"same doc"})
            ticket = service.submit(Request("similar", b"a"))
            service.drain()
            assert ticket.response.found is True
            assert [key for key, _ in ticket.response.neighbors] == [b"b"]
        finally:
            service.close()

    def test_sigkill_and_replay_loses_no_signatures(self):
        """A SIGKILLed shard child rebuilds its whole LSH index from
        the parent's journal: every doc and every neighbor list must
        come back bit-identical."""
        docs, _ = _planted_corpus(n=20, dups=6, seed=8)
        service = _service("process")
        try:
            client = ServiceClient(service)
            _put_corpus(client, docs)
            baseline = {key: client.similar(key, k=5) for key in docs}
            total = sum(
                shard["structure"]["size"]
                for shard in service.stats()["shards"]
            )
            assert total == len(docs)

            victim = service.workers[1]
            pid = victim.execution.process.pid
            os.kill(pid, signal.SIGKILL)

            after = {key: client.similar(key, k=5) for key in docs}
            assert after == baseline
            assert victim.restarts >= 1
            assert victim.execution.process.pid != pid
            total = sum(
                shard["structure"]["size"]
                for shard in service.stats()["shards"]
            )
            assert total == len(docs)
            assert client.lost_acks == 0
        finally:
            service.close()

    @pytest.mark.parametrize("execution", ["inline", "process"])
    def test_live_split_loses_no_signatures(self, execution):
        docs, _ = _planted_corpus(n=24, dups=6, seed=9)
        service = _service(execution)
        try:
            client = ServiceClient(service)
            _put_corpus(client, docs)
            donor = int(np.argmax(service.router.routed))
            new_shard = service.split_shard(donor)
            assert new_shard == 2
            service.drain()
            # Zero lost signatures: every doc still lives on exactly one
            # shard, readable and queryable.
            total = sum(
                shard["structure"]["size"]
                for shard in service.stats()["shards"]
            )
            assert total == len(docs)
            for key, doc in docs.items():
                assert client.get(key) == doc
            # Post-split answers match a fresh per-shard brute force:
            # neighbors all live, never the key itself.
            for key in docs:
                for neighbor, score in client.similar(key, k=5):
                    assert neighbor in docs and neighbor != key
                    assert 0.0 <= score <= 1.0
            assert client.lost_acks == 0
        finally:
            service.close()

    def test_socket_end_to_end_with_sigkill_and_split(self):
        """The acceptance drill: similar(key, k) over a real socket
        (ServiceClient over RemoteService -> front door -> process
        shards), surviving both a SIGKILL-and-replay and a forced live
        split."""
        docs, _ = _planted_corpus(n=18, dups=6, seed=10)
        service = _service("process")
        try:
            with FrontDoorThread(service) as door:
                with RemoteService("127.0.0.1", door.port) as remote:
                    client = ServiceClient(remote)
                    responses = client.put_many(list(docs.items()))
                    assert all(response.ok for response in responses)
                    baseline = {
                        key: client.similar(key, k=5) for key in docs
                    }
                    assert any(baseline.values())
                    assert client.similar(b"missing") == []

                    victim = service.workers[0]
                    pid = victim.execution.process.pid
                    os.kill(pid, signal.SIGKILL)
                    after_kill = {
                        key: client.similar(key, k=5) for key in docs
                    }
                    assert after_kill == baseline
                    assert victim.restarts >= 1

                    door.run_in_loop(service.split_shard, 0)
                    many = client.similar_many(list(docs), k=5)
                    for key, neighbors in zip(docs, many):
                        for neighbor, score in neighbors:
                            assert neighbor in docs and neighbor != key
                    total = door.run_in_loop(
                        lambda: sum(
                            shard["structure"]["size"]
                            for shard in service.stats()["shards"]
                        )
                    )
                    assert total == len(docs)
                    assert client.lost_acks == 0
        finally:
            service.close()

    def test_recall_through_service(self):
        """Satellite property: recall@10 >= 0.9 end to end (one shard,
        so the whole corpus is co-resident)."""
        docs, pairs = _planted_corpus(n=40, dups=12, seed=11)
        hasher = EntropyLearnedHasher.full_key("xxh3", seed=1)
        service = Service(
            num_shards=1, backend="similarity", hasher=hasher,
            capacity=256,
            backend_options={"bands": 16, "rows": 4, "b": 8,
                             "shingle_width": 8},
        )
        try:
            client = ServiceClient(service)
            _put_corpus(client, docs)
            hits = sum(
                1 for src, dup in pairs
                if dup in {key for key, _ in client.similar(src, k=10)}
            )
            assert hits / len(pairs) >= 0.9
        finally:
            service.close()
