"""Deterministic op-sequence generation and repro serialization.

An *op* is one JSON-serializable dict — ``{"op": "insert", "key":
"6b2d31", "v": 3}`` — carrying every piece of randomness inline (keys
are hex-encoded bytes), so a saved op list replays bit-identically with
no generator state.  The generators below draw ops from per-family
menus over an adversarial key pool:

* a small structured space (forces repeats, overwrites, deletes of
  live keys);
* keys *shorter* than the partial key's cutoff (the engine's short-key
  full-hash branch);
* groups of keys identical at the learned byte positions (partial-key
  collisions — the monitor/fallback trigger);
* random binary keys of varied length.

Fault-injection ops (``fall_back``, ``clear_plans``) ride in the same
stream: a forced full-key fallback or plan-cache invalidation
mid-sequence must never change any answer.
"""

from __future__ import annotations

import json
import random
from pathlib import Path
from typing import Callable, Dict, List, Sequence, Tuple


Op = Dict[str, object]


# --------------------------------------------------------------- keys


def encode_key(key: bytes) -> str:
    return key.hex()


def decode_key(text: str) -> bytes:
    return bytes.fromhex(text)


def make_key_pool(rng: random.Random, size: int = 96) -> List[bytes]:
    """An adversarial mix of keys (see module docstring)."""
    pool: List[bytes] = []
    # Small structured space: repeats and delete-then-reinsert churn.
    pool.extend(b"key-%04d" % i for i in range(size // 3))
    # Shorter than any realistic partial-key cutoff.
    pool.extend([b"", b"a", b"xy", b"abc", b"abcd"])
    # Identical at bytes [0:2] and [4:6] (the fuzz hashers' learned
    # positions) but distinct elsewhere: pure partial-key collisions.
    for i in range(size // 6):
        pool.append(b"ZZ" + (b"%02d" % (i % 100)) + b"QQ-tail%d" % i)
    # Random binary keys, varied length (including > 64 bytes).
    for _ in range(size // 3):
        n = rng.randrange(0, 72)
        pool.append(bytes(rng.randrange(256) for _ in range(n)))
    return pool


def pick_key(rng: random.Random, pool: Sequence[bytes]) -> bytes:
    return pool[rng.randrange(len(pool))]


def pick_keys(
    rng: random.Random, pool: Sequence[bytes], low: int = 1, high: int = 12
) -> List[bytes]:
    n = rng.randrange(low, high + 1)
    keys = [pick_key(rng, pool) for _ in range(n)]
    if n >= 3 and rng.random() < 0.5:
        # Duplicate-heavy batches: the historical over-growth trigger.
        keys.extend(keys[: rng.randrange(1, n)])
    return keys


# ---------------------------------------------------------- generators


def _keyed(op: str, key: bytes, **extra: object) -> Op:
    out: Op = {"op": op, "key": encode_key(key)}
    out.update(extra)
    return out


def _batch(op: str, keys: Sequence[bytes], **extra: object) -> Op:
    out: Op = {"op": op, "keys": [encode_key(k) for k in keys]}
    out.update(extra)
    return out


# Every generator below walks one *ladder*: per op, one ``rng.random()``
# roll picks the first rung whose cumulative bound exceeds it, and the
# rung draws the op's own randomness.  A rung is a function of the
# case's :class:`_Stream`; the menu after the class holds the rungs the
# families share.  The bounds are the literal cumulative thresholds, not
# summed weights, so float rounding can never move a rung boundary and
# every seed keeps its op stream.


class _Stream:
    """One case's generator state: the RNG, the key pool, and the
    counter that numbers written values (``v``)."""

    def __init__(self, rng: random.Random, pool: Sequence[bytes]):
        self.rng = rng
        self.pool = pool
        self.counter = 0

    def key(self) -> bytes:
        return pick_key(self.rng, self.pool)

    def keys(self, low: int = 1, high: int = 12) -> List[bytes]:
        return pick_keys(self.rng, self.pool, low, high)

    def ladder(self, n: int, rungs: Sequence[Tuple[float, Rung]]) -> List[Op]:
        ops: List[Op] = []
        for _ in range(n):
            roll = self.rng.random()
            ops.append(next(rung for bound, rung in rungs if roll < bound)(self))
        return ops


Rung = Callable[[_Stream], Op]


def _bare(name: str) -> Rung:
    return lambda s: {"op": name}


def _on_key(name: str) -> Rung:
    return lambda s: _keyed(name, s.key())


def _on_keys(name: str, low: int = 1, high: int = 12) -> Rung:
    return lambda s: _batch(name, s.keys(low, high))


def _on_shard(name: str) -> Rung:
    return lambda s: {"op": name, "shard": s.rng.randrange(8)}


def _put(name: str = "put") -> Rung:
    def rung(s: _Stream) -> Op:
        s.counter += 1
        return _keyed(name, s.key(), v=s.counter)
    return rung


def _burst(low: int, high: int, name: str = "burst") -> Rung:
    """A run of writes; key ``i`` writes value ``v + i``."""
    def rung(s: _Stream) -> Op:
        keys = s.keys(low, high)
        s.counter += len(keys)
        return _batch(name, keys, v=s.counter)
    return rung


def _inject(kinds: Sequence[str], max_count: int) -> Rung:
    """Arm one fault spec on the case's FaultPlane."""
    return lambda s: {
        "op": "inject",
        "kind": s.rng.choice(kinds),
        "shard": s.rng.randrange(8),
        "after": s.rng.randrange(4),
        "count": s.rng.randrange(1, max_count),
    }


_FAULT_KINDS = ("crash", "sigkill", "stall", "drop", "corrupt", "queue_loss")


def generate_table_ops(rng: random.Random, n: int) -> List[Op]:
    """insert/get/delete/batch interleavings with fault injections."""

    def insert_batch(s: _Stream) -> Op:
        keys = s.keys()
        s.counter += len(keys)
        values = list(range(s.counter, s.counter + len(keys)))
        return _batch("insert_batch", keys, values=values)

    s = _Stream(rng, make_key_pool(rng))
    ops = s.ladder(n, (
        (0.30, _put("insert")),
        (0.45, _on_key("get")),
        (0.60, _on_key("delete")),
        (0.72, insert_batch),
        (0.86, _on_keys("probe_batch", 1, 16)),
        (0.92, _bare("check_items")),
        (0.96, _bare("clear_plans")),
        (1.0, _bare("fall_back")),
    ))
    ops.append({"op": "check_items"})
    return ops


def generate_filter_ops(rng: random.Random, n: int, removes: bool) -> List[Op]:
    """add/contains/batch (and remove, for deletable filters)."""
    s = _Stream(rng, make_key_pool(rng, size=60))
    rungs = [
        (0.30, _on_key("add")),
        (0.45, _on_keys("add_batch")),
        (0.62, _on_key("contains")),
        (0.74, _on_keys("contains_batch", 1, 16)),
    ]
    if removes:
        rungs.append((0.92, _on_key("remove")))
    rungs += [(0.96, _bare("check_members")), (1.0, _bare("clear_plans"))]
    ops = s.ladder(n, rungs)
    ops.append({"op": "check_members"})
    return ops


def generate_sketch_ops(rng: random.Random, n: int) -> List[Op]:
    """add/add_batch/estimate checks for frequency/cardinality sketches."""
    s = _Stream(rng, make_key_pool(rng, size=120))
    ops = s.ladder(n, (
        (0.35, _on_key("add")),
        (0.70, _on_keys("add_batch", 1, 24)),
        (0.90, _on_key("estimate")),
        (1.0, _bare("check_state")),
    ))
    ops.append({"op": "check_state"})
    return ops


def generate_store_ops(rng: random.Random, n: int) -> List[Op]:
    """put/get/delete/multi_get/scan with flush/compact interleavings."""

    def scan(s: _Stream) -> Op:
        lo, hi = sorted((s.key(), s.key()))
        return {"op": "scan", "start": encode_key(lo), "end": encode_key(hi)}

    s = _Stream(rng, make_key_pool(rng, size=72))
    ops = s.ladder(n, (
        (0.32, _put()),
        (0.48, _on_key("get")),
        (0.60, _on_key("delete")),
        (0.72, _on_keys("multi_get", 1, 16)),
        (0.80, scan),
        (0.88, _bare("flush")),
        (0.94, _bare("compact")),
        (1.0, _bare("check_items")),
    ))
    ops.append({"op": "check_items"})
    return ops


def generate_service_ops(rng: random.Random, n: int) -> List[Op]:
    """Service protocol streams: keyed ops, bursts, pumps, forced trips.

    ``burst`` submits a run of puts *without* pumping in between, so
    tiny queues overflow and the explicit-backpressure path (reject, do
    not apply) gets exercised; ``force_trip`` drives one shard's monitor
    over budget mid-stream (the shard index is reduced modulo the
    case's shard count); ``pump``/``drain`` move the micro-batch
    machinery.  The expected answer for every accepted op is computed
    against the oracle at admission time — same key, same shard, FIFO
    queue, so per-key order is linearizable.
    """
    s = _Stream(rng, make_key_pool(rng, size=72))
    ops = s.ladder(n, (
        (0.24, _put()),
        (0.42, _on_key("get")),
        (0.52, _on_key("delete")),
        (0.64, _on_key("contains")),
        (0.76, _burst(2, 12)),
        (0.88, _bare("pump")),
        (0.92, _bare("drain")),
        (0.96, _bare("stats")),
        (1.0, _on_shard("force_trip")),
    ))
    ops.append({"op": "drain"})
    return ops


def generate_chaos_ops(rng: random.Random, n: int) -> List[Op]:
    """Service streams interleaved with declarative fault injection.

    ``inject`` arms one fault spec (crash / sigkill / stall / drop /
    corrupt / queue_loss) on the case's live FaultPlane — as an *op*, so ddmin
    can delete faults one at a time while shrinking a repro and tell a
    fault-dependent bug from a fault-independent one.  ``settle`` pumps
    through a healing window (supervisor restarts, breaker cooldown +
    probe) so a case exercises recovery, not just the crash itself.
    Counts are kept small: every armed fault must be able to exhaust
    within the case, otherwise termination assertions would be testing
    the fault schedule rather than the healing machinery.
    """
    s = _Stream(rng, make_key_pool(rng, size=48))
    ops = s.ladder(n, (
        (0.26, _put()),
        (0.40, _on_key("get")),
        (0.48, _on_key("delete")),
        (0.56, _on_key("contains")),
        (0.66, _burst(2, 10)),
        (0.78, _bare("pump")),
        (0.82, _bare("drain")),
        (0.86, _bare("stats")),
        (0.94, _inject(_FAULT_KINDS, 4)),
        (1.0, _bare("settle")),
    ))
    ops += [{"op": "settle"}, {"op": "drain"}]
    return ops


def generate_reshard_ops(rng: random.Random, n: int) -> List[Op]:
    """Chaos streams interleaved with forced live shard splits.

    Identical discipline to :func:`generate_chaos_ops` — faults are ops
    so ddmin can strip them individually — plus ``split`` ops that force
    a live split of a (modulo-reduced) donor shard mid-stream.  A split
    under an armed crash/drop/queue_loss schedule is exactly the window
    the routing-flip machinery has to survive: journal migration off a
    possibly-degraded donor, queue sweep across the flip, reconciled
    tickets re-routed through the new table — all without the oracle
    (admission-time, per-key FIFO) noticing anything at all.
    """
    s = _Stream(rng, make_key_pool(rng, size=48))
    split = _on_shard("split")
    ops = s.ladder(n, (
        (0.24, _put()),
        (0.38, _on_key("get")),
        (0.46, _on_key("delete")),
        (0.54, _on_key("contains")),
        (0.62, _burst(2, 10)),
        (0.72, _bare("pump")),
        (0.76, _bare("drain")),
        (0.80, _bare("stats")),
        (0.87, _inject(_FAULT_KINDS, 4)),
        (0.93, split),
        (1.0, _bare("settle")),
    ))
    # At least one split per case: the target exists to cross a flip.
    ops += [split(s), {"op": "settle"}, {"op": "drain"}]
    return ops


def make_drift_key_pool(size: int = 64) -> List[bytes]:
    """The drift target's key population: fixed-length, fixed-structure.

    Every key is ``user-`` + 16 deterministic hex chars + ``-suffix``:
    all the entropy lives in bytes [5, 21), so a trained model deploys
    a partial key over that span and a :func:`repro.drift.keys.drift_key`
    rewrite of those positions genuinely defeats the plan.  The pool is
    a pure function of ``size`` (no RNG): the target must be able to
    rebuild it from config alone to train its model, while the op
    stream only records which pool keys it picked.
    """
    import hashlib

    return [
        b"user-"
        + hashlib.sha256(b"drift-pool-%d" % i).hexdigest()[:16].encode()
        + b"-sfx"
        for i in range(size)
    ]


def generate_drift_ops(rng: random.Random, n: int) -> List[Op]:
    """Chaos streams plus workload drift that must force plan swaps.

    The service op menu of :func:`generate_chaos_ops` (every fault is
    an op, ddmin strips them individually) extended with ``drift``
    injections: when a ``drift`` spec fires, the *driver* starts
    rewriting every subsequent key so the bytes the deployed plan reads
    go constant — the admission-time oracle sees the same rewritten
    keys, so correctness stays exact while the detector, re-learner,
    and zero-downtime swap machinery race the fault schedule.  Each
    case ends with a guaranteed drift injection followed by a heavy
    keyed tail and ``relearn_settle`` windows, so the detector's window
    fills and the swap path runs in every case, not just lucky ones.
    """

    def drift(s: _Stream) -> Op:
        return {"op": "inject", "kind": "drift", "shard": s.rng.randrange(8),
                "after": s.rng.randrange(3), "count": 1}

    s = _Stream(rng, make_drift_key_pool())
    put = _put()
    ops = s.ladder(n, (
        (0.26, put),
        (0.40, _on_key("get")),
        (0.46, _on_key("delete")),
        (0.52, _on_key("contains")),
        (0.62, _burst(2, 10)),
        (0.74, _bare("pump")),
        (0.78, _bare("drain")),
        (0.82, _bare("stats")),
        (0.88, _inject(("crash", "stall", "drop", "corrupt", "queue_loss"), 3)),
        (0.92, drift),
        (1.0, _bare("settle")),
    ))
    # Every case crosses at least one drift + swap window: inject the
    # drift, then stream enough keyed traffic (with pump interleave) to
    # fill the detector window and trip it, then settle through the
    # re-learn decision and drain.
    ops.append({"op": "inject", "kind": "drift", "shard": 0, "count": 1})
    for i in range(48):
        ops.append(put(s))
        if i % 4 == 3:
            ops.append({"op": "pump"})
    ops += [{"op": "settle"}, {"op": "drain"}]
    return ops


def generate_frontdoor_ops(rng: random.Random, n: int) -> List[Op]:
    """Socket-client streams: blocking RPCs, pipelined batches, splits.

    The front-door target drives a real TCP connection, so every op is
    a settled round-trip and the oracle comparison happens at response
    time (which *is* admission time — the client blocks).  ``burst``
    and ``multi_get`` go through the client's pipelined window, handing
    the admission loop genuinely coalescible frame runs; ``split``
    carries its own key batch so the target can race a pipelined write
    burst against the routing flip — the exact window the server-side
    WRONG_GENERATION resubmit has to make invisible.
    """
    split_payload = _burst(3, 10, "split")

    def split(s: _Stream) -> Op:
        op = split_payload(s)
        op["shard"] = s.rng.randrange(8)
        return op

    s = _Stream(rng, make_key_pool(rng, size=48))
    ops = s.ladder(n, (
        (0.24, _put()),
        (0.42, _on_key("get")),
        (0.52, _on_key("delete")),
        (0.62, _on_key("contains")),
        (0.74, _burst(2, 12)),
        (0.86, _on_keys("multi_get", 2, 12)),
        (0.93, _bare("stats")),
        (1.0, split),
    ))
    # At least one racing split per case: crossing a generation flip
    # through the socket is the coverage this target exists for.
    ops += [split(s), _batch("multi_get", s.pool[:16])]
    return ops


def generate_similarity_ops(rng: random.Random, n: int) -> List[Op]:
    """Similarity-service streams: docs with planted overlap, queries.

    Documents are sentences drawn from a small shared vocabulary, so
    the stream naturally creates near-duplicate pairs (high shingle
    overlap) alongside unrelated docs — ``similar`` queries then have
    non-trivial answers for the brute-force oracle to check.  Every doc
    rides hex-encoded in its op, same as keys, so a saved repro replays
    bit-identically.  ``similar`` carries a small ``k``; ``put`` on a
    live key exercises the re-signature (overwrite) path and ``delete``
    the bucket-removal path.
    """
    vocab = [b"alpha", b"bravo", b"charlie", b"delta", b"echo", b"fox",
             b"golf", b"hotel", b"india", b"juliet", b"kilo", b"lima"]

    def put(s: _Stream) -> Op:
        key = s.key()
        words = [vocab[s.rng.randrange(len(vocab))]
                 for _ in range(s.rng.randrange(3, 9))]
        return _keyed("put", key, doc=b" ".join(words).hex())

    def similar(s: _Stream) -> Op:
        return _keyed("similar", s.key(), k=s.rng.randrange(0, 6))

    s = _Stream(rng, make_key_pool(rng, size=48))
    ops = s.ladder(n, (
        (0.30, put),
        (0.48, similar),
        (0.60, _on_key("get")),
        (0.70, _on_key("delete")),
        (0.80, _on_key("contains")),
        (0.90, _bare("pump")),
        (0.96, _bare("drain")),
        (1.0, _bare("stats")),
    ))
    ops.append({"op": "drain"})
    return ops


def generate_engine_ops(rng: random.Random, n: int) -> List[Op]:
    """hash_batch/hash_one parity under plan churn and forced fallback."""

    def hash_batch(s: _Stream) -> Op:
        seed = s.rng.randrange(4) if s.rng.random() < 0.3 else None
        return _batch("hash_batch", s.keys(1, 24), seed=seed)

    s = _Stream(rng, make_key_pool(rng))
    return s.ladder(n, (
        (0.45, hash_batch),
        (0.70, _on_key("hash_one")),
        (0.85, _bare("clear_plans")),
        (0.95, _bare("monitor_fall_back")),
        (1.0, _bare("check_stats")),
    ))


def generate_reducer_ops(rng: random.Random, n: int) -> List[Op]:
    """Batch-vs-scalar reducer parity over adversarial 64-bit values.

    Random uint64s almost never land on the boundary cases that break
    float-based reductions, so every op mixes in crafted values: all-ones
    suffixes (``2^k - 1``), exact powers of two, and the extremes.
    """
    kinds = ("index_rank", "slot_tag", "mask", "bloom_split",
             "block_mask", "fingerprint", "fast_range")
    ops: List[Op] = []
    for _ in range(n):
        kind = kinds[rng.randrange(len(kinds))]
        hashes = [rng.randrange(1 << 64) for _ in range(8)]
        for _ in range(6):
            k = rng.randrange(1, 64)
            top = rng.randrange(1 << 8) << 56
            hashes.append((top | ((1 << k) - 1)) & ((1 << 64) - 1))
            hashes.append(1 << k)
        hashes.extend([0, (1 << 64) - 1])
        op: Op = {"op": "reduce", "kind": kind, "hashes": hashes}
        if kind == "index_rank":
            op["precision"] = rng.choice((4, 6, 8, 10, 12, 14, 16))
        elif kind in ("mask", "slot_tag"):
            op["mask"] = (1 << rng.randrange(1, 16)) - 1
        elif kind == "fast_range":
            op["n"] = rng.randrange(1, 1 << 20)
        elif kind == "block_mask":
            op["num_blocks"] = rng.randrange(1, 4096)
            op["num_probe_bits"] = rng.randrange(1, 9)
        elif kind == "fingerprint":
            op["fp_bits"] = rng.choice((4, 8, 12, 16, 24, 32))
            op["bucket_bits"] = rng.randrange(1, 16)
        ops.append(op)
    return ops


def generate_minhash_ops(rng: random.Random, n: int) -> List[Op]:
    """Signature construction vs reference scalar minima."""
    pool = make_key_pool(rng, size=60)
    ops: List[Op] = []
    for _ in range(max(2, n // 12)):  # each op hashes k x items: keep few
        items = list(dict.fromkeys(
            pick_key(rng, pool) for _ in range(rng.randrange(2, 14))
        ))
        if not items:
            items = [b"solo"]
        ops.append(_batch("signature", items, k=rng.choice((4, 8, 16))))
    return ops


# ------------------------------------------------------------- repros


def save_repro(path, repro: Dict[str, object]) -> None:
    Path(path).write_text(json.dumps(repro, indent=2, sort_keys=True) + "\n")


def load_repro(path) -> Dict[str, object]:
    return json.loads(Path(path).read_text())


__all__ = [
    "Op",
    "encode_key",
    "decode_key",
    "make_key_pool",
    "generate_table_ops",
    "generate_filter_ops",
    "generate_sketch_ops",
    "generate_store_ops",
    "generate_service_ops",
    "generate_chaos_ops",
    "generate_reshard_ops",
    "generate_frontdoor_ops",
    "generate_similarity_ops",
    "generate_engine_ops",
    "generate_reducer_ops",
    "generate_minhash_ops",
    "save_repro",
    "load_repro",
]
