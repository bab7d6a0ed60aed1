"""Inputs, oracle, latency summaries and counters shared by the workloads.

Everything here is a function of the workload seed: the benchmark makes
keys, values and operation streams from it, and the program only ever
sees those generated inputs.  The network server (``server.py``) and
the load generator (``workloads.py``) import the same functions, so
both sides derive identical key sets, preload values and count-run
operations without talking to each other.
"""

from __future__ import annotations

import hashlib
import math
import resource
import statistics
import time
from typing import Dict, Iterable, List, Optional, Sequence

# The serving configuration kv-bulk-read and net-read-mostly share.
SHARDS = 4
BACKEND = "probing"
MAX_QUEUE = 256
BATCH_SIZE = 64
ZIPF_THETA = 0.99

# A tail percentile should have at least this many independent samples
# beyond it; the record says whether a run met that.
TAIL_MIN_BEYOND = 10


def seed_for(seed: int, stream: str) -> int:
    """A stable sub-seed per input stream, so streams never overlap."""
    digest = hashlib.blake2b(f"{seed}:{stream}".encode(), digest_size=8)
    return int.from_bytes(digest.digest(), "little")


def initial_value(key: bytes) -> bytes:
    """Preload value of a key: a digest of it, so both sides agree."""
    return b"v0:" + hashlib.blake2b(key, digest_size=12).digest()


def peak_rss_mb() -> float:
    """Peak resident set of this process (Linux reports KiB)."""
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


# ----------------------------------------------------------------- oracle


class Oracle:
    """Dict oracle updated at acknowledgement.

    Each key maps to the tuple of values a read may return: one value
    after an acknowledged put, more while a write's outcome is unknown
    (a call that raised after admitting some of its puts).  Tuples of
    bytes are not tracked by the garbage collector, so the oracle adds
    nothing to the collections the measured program pays for.
    """

    def __init__(self, pairs: Iterable) -> None:
        self.allowed: Dict[bytes, tuple] = {k: (v,) for k, v in pairs}
        self.reads_checked = 0
        self.wrong_reads = 0
        self.examples: List[str] = []

    def ack(self, key: bytes, value: bytes) -> None:
        self.allowed[key] = (value,)

    def unknown(self, key: bytes, value: bytes) -> None:
        self.allowed[key] = self.allowed.get(key, (None,)) + (value,)

    def check(self, key: bytes, value: Optional[bytes]) -> None:
        self.reads_checked += 1
        allowed = self.allowed.get(key, (None,))
        if value not in allowed:
            self.wrong_reads += 1
            if len(self.examples) < 5:
                self.examples.append(
                    f"read {key[:48]!r} -> {value!r}, expected one of "
                    f"{[repr(v) for v in allowed]}"
                )


# --------------------------------------------------------------- latency


class Latencies:
    """Per-op latency samples of one op kind.

    A closed-loop call of n ops contributes n samples of the call's
    duration; they are stored as one (seconds, n, factor) entry, where
    ``factor`` is the host-speed factor around the call
    (``hostspeed.py``).  The samples of one call are not independent,
    so the tail's support is counted in calls.
    """

    def __init__(self) -> None:
        self.samples: List[tuple] = []
        self.count = 0

    def add(self, seconds: float, ops: int = 1, factor: float = 1.0) -> None:
        self.samples.append((seconds, ops, factor))
        self.count += ops

    def extend(self, other: "Latencies", factor: float) -> None:
        """Add ``other``'s samples with the host-speed factor known
        only after they were taken."""
        for seconds, ops, _ in other.samples:
            self.add(seconds, ops, factor)

    def summary(self, tail_pct: float) -> Dict[str, float]:
        """Host-speed adjusted p50 and tail at ``tail_pct`` (ms), the
        raw p50 and tail, and the percentile, the sample count and the
        calls beyond the tail beside them.

        Each workload fixes its tail percentile, so the metric means the
        same thing on every run; it is set at the highest percentile
        that leaves at least TAIL_MIN_BEYOND calls beyond it in a run of
        the parent commit.
        """
        if not self.samples:
            return {"p50_ms": 0.0, "tail_ms": 0.0, "raw_p50_ms": 0.0,
                    "raw_tail_ms": 0.0, "tail_pct": tail_pct,
                    "samples": 0, "calls": 0, "calls_beyond_tail": 0,
                    "tail_supported": False}
        raw = sorted((seconds, ops) for seconds, ops, _ in self.samples)
        data = sorted((seconds / factor, ops)
                      for seconds, ops, factor in self.samples)
        tail = _nearest_rank(data, self.count, tail_pct)
        beyond = sum(1 for seconds, _ in data if seconds > tail)
        return {
            "p50_ms": 1e3 * _nearest_rank(data, self.count, 50.0),
            "tail_ms": 1e3 * tail,
            "raw_p50_ms": 1e3 * _nearest_rank(raw, self.count, 50.0),
            "raw_tail_ms": 1e3 * _nearest_rank(raw, self.count, tail_pct),
            "tail_pct": tail_pct,
            "samples": self.count,
            "calls": len(data),
            "calls_beyond_tail": beyond,
            "tail_supported": beyond >= TAIL_MIN_BEYOND,
        }


def slice_rates(marks, start: float, slice_s: float = 1.0) -> List[float]:
    """Ops/s over consecutive slices of at least ``slice_s``.

    ``marks`` are (time, ops completed so far) after each call; the
    trailing slice shorter than ``slice_s`` is left out (unless it is
    the only one).
    """
    rates = []
    slice_start, slice_ops = start, 0
    for when, ops in marks:
        if when - slice_start >= slice_s:
            rates.append((ops - slice_ops) / (when - slice_start))
            slice_start, slice_ops = when, ops
    if not rates and marks:
        when, ops = marks[-1]
        rates.append(ops / (when - start))
    return rates


def median_rate(marks, start: float, slice_s: float = 1.0) -> float:
    """Median of :func:`slice_rates`: a transient stall of the host then
    moves one slice, not the result."""
    rates = slice_rates(marks, start, slice_s)
    return statistics.median(rates) if rates else 0.0


def _nearest_rank(data: Sequence[tuple], n: int, pct: float) -> float:
    rank = max(1, math.ceil(pct / 100.0 * n))
    seen = 0
    for seconds, weight in data:
        seen += weight
        if seen >= rank:
            return seconds
    return data[-1][0]


# ---------------------------------------------------------------- serving


def build_service(model, num_keys: int):
    """The reference serving stack: inline execution, 4 probing shards."""
    from repro.service import Service, ServiceClient

    service = Service(
        num_shards=SHARDS, backend=BACKEND, model=model,
        capacity=num_keys, max_queue=MAX_QUEUE, batch_size=BATCH_SIZE,
        execution="inline",
    )
    return service, ServiceClient(service)


def warm_up(client, keys: Sequence[bytes], chunk: int = 512) -> None:
    """Read every key once in calls below the queue headroom: compiles
    every plan and pays first-call costs without changing any state."""
    for start in range(0, len(keys), chunk):
        client.multi_get(keys[start:start + chunk])


def service_counts(service, client) -> Dict[str, float]:
    """Exact counts from the public stats() and counters()."""
    stats = service.stats()
    engines = [service.router.engine.counters] + [
        worker.adapter.engine.counters for worker in service.workers
    ]
    tables = [worker.adapter.table for worker in service.workers]
    shards = stats["shards"]
    batches = sum(shard["batches"] for shard in shards)
    processed = sum(shard["processed"] for shard in shards)
    return {
        "submitted": stats["submitted"],
        "accepted": stats["accepted"],
        "rejected": stats["rejected"],
        "pumps": stats["pump_index"],
        "dispatches": batches,
        "processed": processed,
        "journal_appends": sum(
            j["appended"] for j in stats["journals"]["per_shard"]
        ),
        "journal_checkpoints": stats["journals"]["total_truncations"],
        "engine_calls": sum(c.batches for c in engines),
        "engine_keys": sum(c.keys_hashed for c in engines),
        "engine_bytes": sum(c.bytes_hashed for c in engines),
        "router_keys": int(service.router.routed.sum()),
        "probes": sum(table.stats.probes for table in tables),
        "key_comparisons": sum(
            table.stats.key_comparisons for table in tables
        ),
        # Each grow doubles a table, so the delta of this sum over a
        # run is the number of grows in it.
        "grows": sum(table.num_slots.bit_length() for table in tables),
        "client_retries": client.retries,
        "client_backoff_pumps": client.backoff_pumps,
        "lost_acks": client.lost_acks,
    }


def count_delta(after: Dict[str, float], before: Dict[str, float]):
    return {key: after[key] - before.get(key, 0) for key in after}


def timed(fn, *args, **kwargs):
    """(result, seconds) of one call."""
    start = time.perf_counter()
    result = fn(*args, **kwargs)
    return result, time.perf_counter() - start
