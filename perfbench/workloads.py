"""The three benchmark workloads.

Each workload function takes ``(seed, seconds, trace, out_dir)`` and
returns a plain dict that ``run.py`` turns into metrics:

* ``setup_s`` / ``train_s`` — one entry per set-up (median reported);
* ``counts`` — the exact counts of each set-up's untimed count run,
  which must repeat identically across set-ups (same seed);
* ``count_ops_s`` — (traced?, adjusted ops/s) of each count run, for the
  tracing overhead; ``layers`` — per-layer results of the traced one;
* ``setup_adjusted_s`` — each set-up host-speed adjusted, step by step
  (:class:`hostspeed.Steps`);
* ``reads`` / ``writes`` — :class:`Latencies` of the timed phase, each
  call with its host-speed factor, plus ``ops``, ``elapsed_s`` and
  ``ops_s`` (closed loops: median over 1-second slices of the
  host-speed adjusted time spent in the program's calls) and
  ``raw_ops_s`` (the same unadjusted);
* ``attempted``, ``failed``, ``wrong_reads``, ``lost_acks``,
  ``peak_rss_mb`` and workload-specific extras.

Every set-up is timed from key generation to the first timed op; the
untimed count run follows it.  In a traced invocation the second
set-up's count run runs under the :class:`Tracer`, the others do not,
so the same fixed op list gives both the per-layer self times and the
traced-versus-untraced overhead.
"""

from __future__ import annotations

import json
import os
import random
import select
import socket
import statistics
import subprocess
import sys
import time
import zlib
from pathlib import Path
from typing import Dict, List, Optional

import common
import hostspeed
from common import Latencies, Oracle, seed_for
from tracer import Tracer


class CheckedClient:
    """The caller the kv workloads drive: wraps a ServiceClient, times
    every call, checks every read against the oracle and applies every
    acknowledged write to it.  ``run_service_workload`` drives it the
    same way it would drive the ServiceClient itself.

    With a :class:`hostspeed.HostSpeed`, each multi_get is bracketed by
    reference measurements and its duration adjusted by their factor;
    the puts that follow it use the factor measured right after it.
    """

    def __init__(self, client, oracle: Oracle, speed=None) -> None:
        self.client = client
        self.oracle = oracle
        self.speed = speed
        self.reads = Latencies()
        self.writes = Latencies()
        self.ops = 0
        self.failed = 0
        # (busy time, ops completed) after each call, for median_rate:
        # time spent inside the program's calls, host-speed adjusted in
        # ``marks`` and raw in ``raw_marks``.
        self.marks: List[tuple] = []
        self.raw_marks: List[tuple] = []
        self.busy = self.raw_busy = 0.0
        from repro.service import (
            DeadlineExceededError,
            ServiceOverloadedError,
        )

        self._errors = (ServiceOverloadedError, DeadlineExceededError)

    def _timed(self, latencies: Latencies, seconds: float, ops: int,
               completed: int, measure: bool) -> None:
        factor = 1.0
        if self.speed is not None:
            factor = self.speed.around() if measure else self.speed.last
        latencies.add(seconds, ops, factor)
        self.ops += completed
        self.failed += ops - completed
        self.busy += seconds / factor
        self.raw_busy += seconds
        self.marks.append((self.busy, self.ops))
        self.raw_marks.append((self.raw_busy, self.ops))

    def multi_get(self, keys):
        start = time.perf_counter()
        try:
            values = self.client.multi_get(keys)
        except self._errors:
            self._timed(self.reads, time.perf_counter() - start, len(keys),
                        0, True)
            return [None] * len(keys)
        self._timed(self.reads, time.perf_counter() - start, len(keys),
                    len(keys), True)
        for key, value in zip(keys, values):
            self.oracle.check(key, value)
        return values

    def put(self, key, value):
        start = time.perf_counter()
        try:
            response = self.client.put(key, value)
        except self._errors:
            self._timed(self.writes, time.perf_counter() - start, 1, 0, False)
            self.oracle.unknown(key, value)
            return None
        self._timed(self.writes, time.perf_counter() - start, 1,
                    int(response.ok), False)
        if response.ok:
            self.oracle.ack(key, value)
        return response

    def put_many(self, pairs):
        pairs = list(pairs)
        start = time.perf_counter()
        try:
            responses = self.client.put_many(pairs)
        except self._errors:
            self._timed(self.writes, time.perf_counter() - start, len(pairs),
                        0, False)
            for key, value in pairs:
                self.oracle.unknown(key, value)
            return []
        self._timed(self.writes, time.perf_counter() - start, len(pairs),
                    sum(1 for response in responses if response.ok), False)
        for (key, value), response in zip(pairs, responses):
            if response.ok:
                self.oracle.ack(key, value)
        return responses


def _until(deadline: float, items):
    """Cycle through ``items`` until the clock passes ``deadline``."""
    clock = time.perf_counter
    while True:
        for item in items:
            if clock() >= deadline:
                return
            yield item


def _ycsb(keys, mix: str, seed: int, n: int) -> list:
    from repro.workloads.ycsb import WorkloadGenerator

    generator = WorkloadGenerator(
        keys, mix=mix, seed=seed, zipf_theta=common.ZIPF_THETA
    )
    return list(generator.operations(n))


class Result(dict):
    """The dict a workload returns, with the shared bookkeeping."""

    def __init__(self, **fixed) -> None:
        super().__init__(
            setup_s=[], setup_adjusted_s=[], train_s=[], counts=[],
            count_ops_s=[], layers={},
            wrong_examples=[],
            attempted=0, failed=0, wrong_reads=0, lost_acks=0, **fixed,
        )

    def retire(self, oracle: Oracle, lost_acks: int) -> None:
        """Fold one finished oracle and client ledger into the result."""
        self["wrong_reads"] += oracle.wrong_reads
        self["lost_acks"] += lost_acks
        self["wrong_examples"].extend(oracle.examples)

    def add_setup(self, raw: float, adjusted: float, train_s: float) -> None:
        """One set-up's time, raw and host-speed adjusted."""
        self["setup_s"].append(raw)
        self["setup_adjusted_s"].append(adjusted)
        self["train_s"].append(train_s)

    def add_timed(self, caller) -> None:
        """The timed phase of a closed loop: ops/s over slices of the
        time spent in the program's calls, host-speed adjusted (and
        raw), and the latencies."""
        self["ops"] = caller.ops
        self["ops_s"] = common.median_rate(caller.marks, 0.0)
        self["raw_ops_s"] = common.median_rate(caller.raw_marks, 0.0)
        self["slice_rates"] = common.slice_rates(caller.marks, 0.0)
        self["reads"], self["writes"] = caller.reads, caller.writes
        self["attempted"] = caller.ops + caller.failed
        self["failed"] = caller.failed

    def add_count_run(self, traced: bool, ops: int, seconds: float,
                      counts: Dict[str, float], factor: float) -> None:
        """One count run's counts, and its ops/s adjusted by the
        host-speed ``factor`` around it (for the tracing overhead)."""
        self["counts"].append(counts)
        self["count_ops_s"].append((traced, ops / seconds * factor))


def tracer_layers(tracer: Tracer) -> Dict[str, object]:
    return {
        "self_s": tracer.layer_self_s(),
        "name_self_s": dict(tracer.self_s),
        "calls": dict(tracer.calls),
        "items": dict(tracer.items),
    }


def dump_spans(tracer: Tracer, out_dir: Path, tag: str) -> str:
    path = out_dir / f"spans-{tag}.jsonl.gz"
    tracer.dump(path)
    return str(path)


# ----------------------------------------------------------- kv-bulk-read


def kv_setup(seed: int, num_keys: int, result: Result, speed=None):
    """Keys, training, construction, preload, warm-up: one set-up."""
    from repro.core import trainer
    from repro.datasets import google_urls

    steps = hostspeed.Steps(speed)
    keys = google_urls(num_keys, seed=seed_for(seed, "keys"))
    steps.step()
    model, train_s = common.timed(trainer.train_model, keys)
    steps.step()
    service, client = common.build_service(model, num_keys)
    steps.step()
    client.put_many([(key, common.initial_value(key)) for key in keys])
    steps.step()
    common.warm_up(client, keys)
    steps.step()
    result.add_setup(steps.raw, steps.adjusted, train_s)
    result["setup_measuring_s"] = steps.spent
    return keys, service, client


def count_run(service, client, oracle: Oracle, ops, drive, traced: bool):
    """The untimed count run on a fresh set-up: drive a fixed op list
    and read the exact counts it caused from stats() and counters().
    Returns (caller, tracer, counts, seconds)."""
    caller = CheckedClient(client, oracle)
    tracer = Tracer()
    before = common.service_counts(service, client)
    if traced:
        tracer.install()
    try:
        start = time.perf_counter()
        drive(caller, ops)
        seconds = time.perf_counter() - start
    finally:
        tracer.restore()
    counts = common.count_delta(
        common.service_counts(service, client), before
    )
    counts["ops"] = caller.ops
    counts["failed"] = caller.failed
    return caller, tracer, counts, seconds


# kv-bulk-read: closed loop of 2048-key calls, twice the service-wide
# queue headroom (4 shards x 256), so every call overflows admission.
# A trickle of single-key puts between calls gives the write metrics
# without changing what the calls stress.
BULK_KEYS = 5_000
BULK_CALL = 2_048
BULK_PUTS_PER_CALL = 16
BULK_CALLS = 32             # pre-generated calls, cycled in the timed loop
BULK_TAIL_PCT = {"read": 75.0, "write": 98.0}


def _bulk_calls(keys, seed: int, n: int) -> list:
    """n rounds: one multi_get of BULK_CALL YCSB-C Zipf reads, then
    BULK_PUTS_PER_CALL puts of uniform keys with fresh values."""
    rng = random.Random(seed_for(seed, "bulk-puts"))
    reads = _ycsb(keys, "C", seed_for(seed, "bulk-reads"), BULK_CALL * n)
    return [
        (
            [op.key for op in reads[i * BULK_CALL:(i + 1) * BULK_CALL]],
            [(rng.choice(keys), rng.getrandbits(256).to_bytes(32, "little"))
             for _ in range(BULK_PUTS_PER_CALL)],
        )
        for i in range(n)
    ]


def _drive_bulk(caller: CheckedClient, calls, deadline=None) -> None:
    stream = calls if deadline is None else _until(deadline, calls)
    for read_keys, puts in stream:
        caller.multi_get(read_keys)
        for key, value in puts:
            caller.put(key, value)


def kv_bulk_read(seed, seconds, trace, out_dir) -> Result:
    """Three set-ups, each followed by a one-round count run; the timed
    phase runs on the last set-up's service."""
    result = Result(num_keys=BULK_KEYS, tail_pct=BULK_TAIL_PCT)
    speed = hostspeed.HostSpeed()
    setups = 3
    service = None
    try:
        for index in range(setups):
            keys, service, client = kv_setup(seed, BULK_KEYS, result, speed)
            oracle = Oracle((k, common.initial_value(k)) for k in keys)
            traced = trace and index == 1
            timer = hostspeed.Steps(speed)
            caller, tracer, counts, count_s = count_run(
                service, client, oracle,
                _bulk_calls(keys, seed_for(seed, "count"), 1),
                _drive_bulk, traced,
            )
            timer.step()
            result.add_count_run(traced, caller.ops, count_s, counts,
                                 timer.factor())
            if traced:
                result["layers"] = tracer_layers(tracer)
                result["spans_file"] = dump_spans(
                    tracer, out_dir, f"kv-bulk-read-seed{seed}-count"
                )
            if index < setups - 1:
                result.retire(oracle, client.lost_acks)
                service.close()
                service = None
        calls = _bulk_calls(keys, seed_for(seed, "timed"), BULK_CALLS)
        caller = CheckedClient(client, oracle, speed)
        speed.measure()
        start = time.perf_counter()
        _drive_bulk(caller, calls, start + seconds)
        result["elapsed_s"] = time.perf_counter() - start
        result.add_timed(caller)
        result.retire(oracle, client.lost_acks)
        result["peak_rss_mb"] = common.peak_rss_mb()
        result["final_stats"] = common.service_counts(service, client)
        result["speed_factors"] = speed.factors
    finally:
        if service is not None:
            service.close()
    return result


def drive_ycsb(caller: CheckedClient, ops) -> None:
    """YCSB ops through ``run_service_workload``: reads go through
    ``multi_get`` and updates through ``put_many``, in the stream's
    natural same-kind runs."""
    from repro.service import run_service_workload

    run_service_workload(caller, ops)


# ------------------------------------------------------------ table-probe

TABLE_SAMPLE = 200_000
TABLE_BATCH = 4_096
TABLE_BATCHES = 16          # insert/probe pairs per fill cycle
TABLE_INITIAL_CAPACITY = 4_096
TABLE_TAIL_PCT = {"read": 90.0, "write": 90.0}


def _table_cycle_input(pool, seed: int):
    """One fill cycle: insert batches, and probe batches of half hits
    (sampled from keys inserted so far) and half misses."""
    rng = random.Random(seed_for(seed, "probes"))
    present = pool[:TABLE_BATCH * TABLE_BATCHES]
    absent = pool[len(present):]
    half = TABLE_BATCH // 2
    steps = []
    for index in range(TABLE_BATCHES):
        insert = present[index * TABLE_BATCH:(index + 1) * TABLE_BATCH]
        inserted = (index + 1) * TABLE_BATCH
        hits = [present[rng.randrange(inserted)] for _ in range(half)]
        misses = rng.sample(absent, half)
        steps.append((insert, hits, misses))
    return steps


class TableCycle:
    """Runs fill cycles on fresh tables and checks every probe.

    With a :class:`hostspeed.HostSpeed`, every insert_batch and probe_batch
    call is bracketed by reference measurements and its duration
    adjusted by their factor, as :class:`CheckedClient` does.
    """

    def __init__(self, model, steps, speed=None) -> None:
        self.model = model
        self.steps = steps
        self.speed = speed
        self.reads = Latencies()
        self.writes = Latencies()
        self.ops = 0
        self.failed = 0
        self.wrong = 0
        self.examples: List[str] = []
        self.grows = 0
        self.comparisons = 0
        self.probes = 0
        # (busy time, ops completed), as in CheckedClient.
        self.marks: List[tuple] = []
        self.raw_marks: List[tuple] = []
        self.busy = self.raw_busy = 0.0

    def _timed(self, latencies: Latencies, seconds: float, ops: int) -> None:
        factor = self.speed.around() if self.speed is not None else 1.0
        latencies.add(seconds, ops, factor)
        self.ops += ops
        self.busy += seconds / factor
        self.raw_busy += seconds
        self.marks.append((self.busy, self.ops))
        self.raw_marks.append((self.raw_busy, self.ops))

    def run(self):
        from repro.tables.probing import EntropyAwareProbingTable

        clock = time.perf_counter
        table = EntropyAwareProbingTable(
            self.model, capacity=TABLE_INITIAL_CAPACITY
        )
        for insert, hits, misses in self.steps:
            slots = table.num_slots
            start = clock()
            table.insert_batch(insert)
            self._timed(self.writes, clock() - start, len(insert))
            grown = table.num_slots
            while grown > slots:
                self.grows += 1
                grown //= 2
            batch = hits + misses
            start = clock()
            found = table.probe_batch(batch)
            self._timed(self.reads, clock() - start, len(batch))
            if found[:len(hits)] != hits or any(found[len(hits):]):
                expected = hits + [None] * len(misses)
                wrong = [
                    f"probe {key[:48]!r} -> {value!r}, expected {want!r}"
                    for key, value, want in zip(batch, found, expected)
                    if value != want
                ]
                self.wrong += len(wrong)
                self.examples.extend(wrong[:5 - len(self.examples)])
        self.comparisons += table.stats.key_comparisons
        self.probes += table.stats.probes
        return table


def table_probe(seed, seconds, trace, out_dir) -> Result:
    from repro.core import trainer
    from repro.datasets import google_urls

    result = Result(num_keys=TABLE_SAMPLE, tail_pct=TABLE_TAIL_PCT)
    speed = hostspeed.HostSpeed()
    for index in range(3):
        timer = hostspeed.Steps(speed)
        pool = google_urls(TABLE_SAMPLE, seed=seed_for(seed, "keys"))
        timer.step()
        model, train_s = common.timed(trainer.train_model, pool)
        timer.step()
        steps = _table_cycle_input(pool, seed)
        timer.step()
        # Warm-up on a throwaway table: imports, first plan compilations
        # and allocator growth are paid here; nothing measured changes.
        TableCycle(model, steps[:2]).run()
        timer.step()
        result.add_setup(timer.raw, timer.adjusted, train_s)

        traced = trace and index == 1
        cycle = TableCycle(model, steps)
        tracer = Tracer()
        timer = hostspeed.Steps(speed)
        if traced:
            tracer.install()
        try:
            begin = time.perf_counter()
            table = cycle.run()
            count_s = time.perf_counter() - begin
        finally:
            tracer.restore()
        timer.step()
        counters = table.engine.counters
        counts = {
            "ops": cycle.ops,
            "engine_calls": counters.batches,
            "engine_keys": counters.keys_hashed,
            "engine_bytes": counters.bytes_hashed,
            "grows": cycle.grows,
            "probes": cycle.probes,
            "key_comparisons": cycle.comparisons,
            "num_slots": table.num_slots,
            "fell_back": int(table.fallen_back),
        }
        result.add_count_run(traced, cycle.ops, count_s, counts,
                             timer.factor())
        result["wrong_reads"] += cycle.wrong
        result["wrong_examples"].extend(cycle.examples)
        if traced:
            result["layers"] = tracer_layers(tracer)
            result["spans_file"] = dump_spans(
                tracer, out_dir, f"table-probe-seed{seed}-count"
            )
    # Timed phase: whole fill cycles until the time is up, so every
    # run covers the same mix of growth and steady-state batches.
    cycle = TableCycle(model, steps, speed)
    speed.measure()
    start = time.perf_counter()
    while time.perf_counter() - start < seconds:
        cycle.run()
    result["elapsed_s"] = time.perf_counter() - start
    result.add_timed(cycle)
    result["wrong_reads"] += cycle.wrong
    result["wrong_examples"].extend(cycle.examples)
    result["peak_rss_mb"] = common.peak_rss_mb()
    result["speed_factors"] = speed.factors
    return result


# -------------------------------------------------------- net-read-mostly

NET_KEYS = 5_000
# Offered rate, in pipelined bursts of NET_BURST requests (one every
# 64 ms), as a client sending a 32-key multi_get frame by frame would.
# With single requests every 2 ms the server idled between them, and
# its median latency (about 0.5 ms) was set by how the shared host
# woke its core, which did not follow the host's measured speed: it
# moved by a factor of two between seconds while the speed did not.
# A burst keeps the server busy for about 3 ms of Python work, which
# does follow it.  Server CPU stays under 10% at this rate, so nothing
# queues across bursts.
NET_RATE = 500.0
NET_BURST = 32
NET_CONNECTIONS = 2
NET_COUNT_OPS = 2_000
NET_WARMUP_READS = 2_000
# Tails at p99 (about 47 reads beyond it per run) and p95 (about 12
# writes): above that the few slowest samples are host scheduling
# hiccups, not the server.
NET_TAIL_PCT = {"read": 99.0, "write": 95.0}
# A run whose generator sent its requests later than this (p99) did
# not offer the fixed rate; it is reported invalid, not scored.
NET_MAX_LATENESS_S = 0.025
NET_DRAIN_S = 30.0
# The timed window is cut into segments of this many requests (eight
# bursts, 0.5 s at NET_RATE); between two segments, with nothing in
# flight, the generator times reference bursts through the same path
# (hostspeed.NetSpeed), and the mean factor of the measurements around
# a segment adjusts its latencies.
NET_SEGMENT_OPS = 8 * NET_BURST
NET_MAX_RETRIES = 64


def net_keys(seed: int) -> list:
    from repro.datasets import google_urls

    return google_urls(NET_KEYS, seed=seed_for(seed, "keys"))


def net_count_ops(keys, seed: int) -> list:
    return _ycsb(keys, "B", seed_for(seed, "count"), NET_COUNT_OPS)


class _Conn:
    """One raw client connection speaking the length-prefixed protocol."""

    def __init__(self, port: int) -> None:
        from repro.service import netproto

        self.netproto = netproto
        self.sock = socket.create_connection(("127.0.0.1", port), timeout=30)
        self.sock.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
        self.decoder = netproto.FrameDecoder()

    def send(self, frame_id: int, request) -> None:
        self.sock.sendall(self.netproto.encode_request(frame_id, request))

    def receive(self):
        """Decoded (frame_id, response) pairs from one recv."""
        data = self.sock.recv(1 << 16)
        if not data:
            raise ConnectionError("server closed the connection")
        np_ = self.netproto
        return [
            (np_.frame_id_of(payload), np_.decode_response(payload))
            for payload in self.decoder.feed(data)
        ]

    def close(self) -> None:
        self.sock.close()


class OpenLoop:
    """Single-threaded open-loop generator over several connections.

    Request i is due at ``t0 + i / rate``; it is sent at the first
    chance at or after that time, on the connection its key hashes to
    (so all requests of one key keep their order), and timed from when
    it was due to when its answer arrived.
    """

    def __init__(self, conns: List[_Conn], oracle: Oracle) -> None:
        from repro.service import REJECTED, Request

        self.conns = conns
        self.oracle = oracle
        self.Request = Request
        self.REJECTED = REJECTED
        self.reads = Latencies()
        self.writes = Latencies()
        self.lateness: List[float] = []
        self.completed = 0
        self.failed = 0
        self.retries = 0
        self.puts_sent = 0
        self.puts_answered = 0
        self.backlog_at_end = 0
        self.unanswered = 0
        self.t0 = self.last_answer = 0.0
        self._next_id = 0
        self._pending: Dict[int, list] = {}
        self._retry: List[list] = []
        self._by_sock = {conn.sock: conn for conn in conns}

    def _conn_for(self, key: bytes) -> _Conn:
        return self.conns[zlib.crc32(key) % len(self.conns)]

    def _send(self, entry: list) -> None:
        # entry: [op, due, attempts]
        self._next_id += 1
        op = entry[0]
        if op.kind == "read":
            request = self.Request("get", op.key)
        else:
            request = self.Request("put", op.key, op.value)
        self._conn_for(op.key).send(self._next_id, request)
        self._pending[self._next_id] = entry

    def _answer(self, frame_id: int, response, now: float) -> None:
        entry = self._pending.pop(frame_id)
        op, due, attempts = entry
        if response.status == self.REJECTED and attempts < NET_MAX_RETRIES:
            self.retries += 1
            entry[2] += 1
            hint = response.retry_after or 1
            self._retry.append([now + min(0.02, 0.0005 * hint), entry])
            return
        self.last_answer = now
        if op.kind == "read":
            self.reads.add(now - due)
            if response.ok:
                self.oracle.check(op.key, response.value)
                self.completed += 1
            else:
                self.failed += 1
        else:
            self.writes.add(now - due)
            self.puts_answered += 1
            if response.ok:
                self.oracle.ack(op.key, op.value)
                self.completed += 1
            else:
                self.failed += 1

    def _poll(self, timeout: float) -> None:
        readable, _, _ = select.select(
            list(self._by_sock), [], [], max(0.0, timeout)
        )
        now = time.perf_counter()
        for sock in readable:
            for frame_id, response in self._by_sock[sock].receive():
                self._answer(frame_id, response, now)

    def _resend_due(self, now: float) -> None:
        if not self._retry:
            return
        keep = []
        for when, entry in self._retry:
            if when <= now:
                self._send(entry)
            else:
                keep.append([when, entry])
        self._retry = keep

    def run(self, ops, rate: float, spin: bool) -> float:
        """Offer ``ops`` at ``rate``, NET_BURST at a time, and wait for
        every answer.  With ``spin`` the generator polls its sockets
        without sleeping: it then owns a core, and waking a sleeping
        core added host-dependent delay to every request.  Returns the
        seconds from the first due time to the last answer, plus the
        last burst's own slot in the schedule."""
        clock = time.perf_counter
        interval = NET_BURST / rate
        total = len(ops)
        t0 = self.t0 = clock()
        sent = 0
        while sent < total:
            now = clock()
            while sent < total and t0 + sent // NET_BURST * interval <= now:
                op = ops[sent]
                due = t0 + sent // NET_BURST * interval
                if op.kind != "read":
                    self.puts_sent += 1
                self._send([op, due, 0])
                self.lateness.append(clock() - due)
                sent += 1
            self._resend_due(now)
            next_due = (t0 + sent // NET_BURST * interval
                        if sent < total else now)
            self._poll(0.0 if spin else next_due - clock())
        self.backlog_at_end = len(self._pending) + len(self._retry)
        give_up = clock() + NET_DRAIN_S
        while (self._pending or self._retry) and clock() < give_up:
            self._resend_due(clock())
            self._poll(0.002 if self._retry else 0.05)
        self.unanswered = len(self._pending) + len(self._retry)
        self.failed += self.unanswered
        return self.last_answer - t0 + interval

    def closed_reads(self, keys) -> None:
        """Untimed pipelined reads (network warm-up; changes no state)."""
        from repro.workloads.ycsb import Operation

        for key in keys:
            self._send([Operation("read", key), time.perf_counter(), 0])
        give_up = time.perf_counter() + NET_DRAIN_S
        while (self._pending or self._retry) and time.perf_counter() < give_up:
            self._resend_due(time.perf_counter())
            self._poll(0.01)
        if self._pending or self._retry:
            raise RuntimeError("network warm-up reads went unanswered")


class Server:
    """The serving process: ``server.py`` over a line-based control
    pipe (one JSON object per line on its stdout)."""

    def __init__(self, seed: int, trace_count: bool, trace_timed: bool,
                 out_dir: Path, cpu: int) -> None:
        here = Path(__file__).resolve().parent
        env = dict(os.environ)
        env["PYTHONPATH"] = os.pathsep.join(
            [str(here.parent / "src")]
            + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else [])
        )
        env["PYTHONDONTWRITEBYTECODE"] = "1"
        self.proc = subprocess.Popen(
            [sys.executable, str(here / "server.py"),
             "--seed", str(seed),
             "--trace-count", str(int(trace_count)),
             "--trace-timed", str(int(trace_timed)),
             "--out-dir", str(out_dir), "--cpu", str(cpu)],
            stdin=subprocess.PIPE, stdout=subprocess.PIPE, env=env,
            text=True,
        )

    def read(self, timeout: float = 120.0) -> dict:
        ready, _, _ = select.select([self.proc.stdout], [], [], timeout)
        if not ready:
            raise TimeoutError("server did not answer in time")
        line = self.proc.stdout.readline()
        if not line:
            raise RuntimeError(
                f"server exited with code {self.proc.wait(timeout=10)}"
            )
        return json.loads(line)

    def command(self, text: str) -> dict:
        self.proc.stdin.write(text + "\n")
        self.proc.stdin.flush()
        return self.read()

    def stop(self) -> dict:
        try:
            return self.command("stop")
        finally:
            self.close()

    def close(self) -> None:
        if self.proc.poll() is None:
            try:
                self.proc.stdin.close()
                self.proc.wait(timeout=30)
            except (OSError, subprocess.TimeoutExpired):
                self.proc.kill()
                self.proc.wait(timeout=30)
        self.proc.stdout.close()


def net_read_mostly(seed, seconds, trace, out_dir) -> Result:
    result = Result(num_keys=NET_KEYS, tail_pct=NET_TAIL_PCT)
    keys = net_keys(seed)
    count_ops = net_count_ops(keys, seed)
    segment_count = max(1, round(NET_RATE * seconds / NET_SEGMENT_OPS))
    timed_ops = _ycsb(keys, "B", seed_for(seed, "timed"),
                      segment_count * NET_SEGMENT_OPS)
    rng = random.Random(seed_for(seed, "warmup"))
    warm_keys = [rng.choice(keys) for _ in range(NET_WARMUP_READS)]
    speed = hostspeed.HostSpeed()
    setups = 3
    server: Optional[Server] = None
    net_speed: Optional[hostspeed.NetSpeed] = None
    conns: List[_Conn] = []
    # With two or more cores the generator and the server each get one
    # of their own, so they never queue behind each other and the
    # generator can poll without sleeping.
    cpus = os.sched_getaffinity(0)
    server_cpu = max(cpus) if len(cpus) > 1 else -1
    if len(cpus) > 1:
        os.sched_setaffinity(0, {min(cpus)})
    try:
        for index in range(setups):
            before = statistics.median(speed.measure() for _ in range(3))
            start = time.perf_counter()
            traced = trace and index == 1
            server = Server(seed, traced, trace and index == setups - 1,
                            out_dir, server_cpu)
            ready = server.read()
            if not ready.get("ok"):
                raise RuntimeError(f"server set-up failed: {ready}")
            conns = [_Conn(ready["port"]) for _ in range(NET_CONNECTIONS)]
            oracle = Oracle((k, common.initial_value(k)) for k in keys)
            for op in count_ops:
                if op.kind != "read":
                    oracle.ack(op.key, op.value)
            # Process start and imports, adjusted by the mean factor of
            # this core before and the server's core after them (units
            # run here meanwhile slowed the start itself); the server's
            # own set-up steps as it adjusted them; then the network
            # warm-up, measured on this core.
            spawn = (time.perf_counter() - start - ready["setup_s"]
                     - ready["count_s"] - ready["measuring_s"])
            spawn_factor = 0.5 * (before + ready["first_factor"])
            warm = hostspeed.Steps(speed)
            OpenLoop(conns, oracle).closed_reads(warm_keys)
            warm.step()
            result.setdefault("setup_parts", []).append({
                "spawn_s": spawn, "spawn_factor": spawn_factor,
                "server_s": ready["setup_s"],
                "server_adjusted_s": ready["setup_adjusted_s"],
                "warm_up_s": warm.raw, "warm_up_adjusted_s": warm.adjusted,
            })
            result.add_setup(
                spawn + ready["setup_s"] + warm.raw,
                spawn / spawn_factor + ready["setup_adjusted_s"]
                + warm.adjusted,
                ready["train_s"],
            )
            result.add_count_run(traced, ready["counts"]["ops"],
                                 ready["count_s"], ready["counts"],
                                 ready["count_factor"])
            result["wrong_reads"] += ready["wrong_reads"]
            result["lost_acks"] += ready["lost_acks"]
            result["wrong_examples"].extend(ready["wrong_examples"])
            if traced:
                result["layers"] = ready["layers"]
                result["spans_file"] = ready["spans_file"]
            if index < setups - 1:
                result.retire(oracle, 0)
                for conn in conns:
                    conn.close()
                conns = []
                server.stop()
                server = None
        marked = server.command("mark")
        net_speed = hostspeed.NetSpeed(marked["echo_port"])
        loop = OpenLoop(conns, oracle)
        reads, writes = Latencies(), Latencies()
        elapsed = 0.0
        backlog = 0
        segments = []
        after = net_speed.measure()
        for first in range(0, len(timed_ops), NET_SEGMENT_OPS):
            before = after
            elapsed += loop.run(timed_ops[first:first + NET_SEGMENT_OPS],
                                NET_RATE, spin=server_cpu >= 0)
            after = net_speed.measure()
            factor = 0.5 * (before + after)
            segments.append({
                "factor": factor,
                "raw_read_p50_ms": loop.reads.summary(50.0)["raw_p50_ms"],
            })
            reads.extend(loop.reads, factor)
            writes.extend(loop.writes, factor)
            loop.reads, loop.writes = Latencies(), Latencies()
            backlog = max(backlog, loop.backlog_at_end)
        for conn in conns:
            conn.close()
        conns = []
        final = server.stop()
        server = None
    finally:
        if net_speed is not None:
            net_speed.close()
        for conn in conns:
            conn.close()
        if server is not None:
            server.close()
        os.sched_setaffinity(0, cpus)
    # The offered rate is fixed, so ops_s is not host-speed adjusted.
    result["elapsed_s"] = elapsed
    result["ops"] = loop.completed
    result["ops_s"] = result["raw_ops_s"] = loop.completed / elapsed
    result["reads"], result["writes"] = reads, writes
    result["attempted"] = len(timed_ops)
    result["failed"] = loop.failed
    result.retire(oracle, loop.puts_sent - loop.puts_answered)
    result["peak_rss_mb"] = final["peak_rss_mb"]
    lateness = sorted(loop.lateness)
    result["open_loop"] = {
        "offered_rate": NET_RATE,
        "lateness_p99_s": lateness[int(0.99 * (len(lateness) - 1))],
        "lateness_max_s": lateness[-1],
        "max_lateness_allowed_s": NET_MAX_LATENESS_S,
        "segments": len(segments),
        "max_backlog_at_segment_end": backlog,
        "retries": loop.retries,
    }
    result["valid"] = (
        result["open_loop"]["lateness_p99_s"] <= NET_MAX_LATENESS_S
    )
    result["frontdoor"] = final["frontdoor"]
    result["speed_factors"] = speed.factors
    result["net_speed_factors"] = net_speed.factors
    result["segments"] = segments
    result["open_loop"]["server_cpu_per_s"] = final["server_cpu_per_s"]
    if trace:
        result["timed_layers"] = final["layers"]
        result["timed_spans_file"] = final["spans_file"]
    return result


WORKLOADS = {
    "kv-bulk-read": kv_bulk_read,
    "net-read-mostly": net_read_mostly,
    "table-probe": table_probe,
}
