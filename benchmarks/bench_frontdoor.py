"""Front-door benchmark — socket admission vs in-process submission.

Measures what the serving boundary costs: the same YCSB stream served
(a) by an in-process :class:`ServiceClient` calling ``submit_batch``
directly, and (b) through the asyncio front door over real TCP
connections — at more than one connection count, on both execution
backends.  Each record carries ops/s plus p50/p99 request latency
(scalar round trips on a settled service, so the numbers are what a
caller sees), and the ack ledger: a benchmark run that loses an
acknowledged write is a bug, not a slow run.  ``main()`` (and
``run_all.py``) writes ``BENCH_frontdoor.json`` at the repo root.
"""

import json
import os
import subprocess
import threading
import time

from repro.bench.harness import latency_summary_ns
from repro.bench.reporting import print_header
from repro.core.trainer import train_model
from repro.datasets import google_urls
from repro.service import (
    FrontDoorThread,
    RemoteService,
    Service,
    ServiceClient,
    fork_available,
    run_service_workload,
)
from repro.workloads.ycsb import WorkloadGenerator

NUM_KEYS = 1_500
NUM_OPS = 3_000
SHARDS = 3
BACKEND = "chaining"
MAX_QUEUE = 256
BATCH_SIZE = 64
MIX = "B"
THETA = 0.99
LATENCY_SAMPLE = 150       # scalar round trips behind each p50/p99 field
CONNECTIONS = (1, 4)       # >= 2 connection counts per acceptance criteria


def _executions():
    return ("inline", "process") if fork_available() else ("inline",)


def _build(model, keys, execution):
    service = Service(
        num_shards=SHARDS, backend=BACKEND, model=model,
        capacity=len(keys), max_queue=MAX_QUEUE, batch_size=BATCH_SIZE,
        execution=execution,
    )
    client = ServiceClient(service)
    client.put_many((key, b"v0") for key in keys)
    return service, client


def _operations(keys):
    generator = WorkloadGenerator(keys, mix=MIX, seed=3, zipf_theta=THETA)
    return list(generator.operations(NUM_OPS))


def _inproc_record(model, keys, execution):
    service, client = _build(model, keys, execution)
    try:
        operations = _operations(keys)
        start = time.perf_counter()
        run_service_workload(client, operations)
        service.drain()
        elapsed = time.perf_counter() - start
        samples = []
        for key in keys[:LATENCY_SAMPLE]:
            t0 = time.perf_counter()
            client.get(key)
            samples.append(time.perf_counter() - t0)
        record = {
            "benchmark": f"frontdoor_inproc_{execution}",
            "path": "inproc",
            "execution": execution,
            "connections": 0,
            "mix": MIX,
            "zipf_theta": THETA,
            "shards": SHARDS,
            "backend": BACKEND,
            "ops": NUM_OPS,
            "elapsed_s": elapsed,
            "ops_per_second": NUM_OPS / elapsed if elapsed else 0.0,
            "rejections": service.stats()["rejected"],
            "client_retries": client.retries,
            "lost_acks": client.lost_acks,
        }
        record.update(latency_summary_ns(samples))
        return record
    finally:
        service.close()


def _socket_record(model, keys, execution, connections, inproc_ops_s):
    service, preload = _build(model, keys, execution)
    try:
        operations = _operations(keys)
        with FrontDoorThread(service) as door:
            remotes = [
                RemoteService("127.0.0.1", door.port, jitter_seed=0xF00 + i)
                for i in range(connections)
            ]
            clients = [ServiceClient(remote) for remote in remotes]
            try:
                step = -(-len(operations) // connections)
                errors = []

                def drive(client, ops_slice):
                    try:
                        run_service_workload(client, ops_slice)
                    except Exception as exc:
                        errors.append(exc)

                threads = [
                    threading.Thread(
                        target=drive,
                        args=(c, operations[i * step:(i + 1) * step]),
                    )
                    for i, c in enumerate(clients)
                ]
                start = time.perf_counter()
                for t in threads:
                    t.start()
                for t in threads:
                    t.join()
                elapsed = time.perf_counter() - start
                if errors:
                    raise errors[0]
                samples = []
                for key in keys[:LATENCY_SAMPLE]:
                    t0 = time.perf_counter()
                    clients[0].get(key)
                    samples.append(time.perf_counter() - t0)
                frontdoor = door.run_in_loop(door.door.stats)
                record = {
                    "benchmark": f"frontdoor_socket_{execution}"
                                 f"_c{connections}",
                    "path": "socket",
                    "execution": execution,
                    "connections": connections,
                    "mix": MIX,
                    "zipf_theta": THETA,
                    "shards": SHARDS,
                    "backend": BACKEND,
                    "ops": NUM_OPS,
                    "elapsed_s": elapsed,
                    "ops_per_second": NUM_OPS / elapsed if elapsed else 0.0,
                    "ops_ratio_vs_inproc": (
                        (NUM_OPS / elapsed) / inproc_ops_s
                        if elapsed and inproc_ops_s else 0.0
                    ),
                    "rejections": service.stats()["rejected"],
                    "client_retries": sum(c.retries for c in clients),
                    "generation_retries": sum(
                        c.generation_retries for c in clients
                    ),
                    "lost_acks": sum(c.lost_acks for c in clients),
                    "frames_in": frontdoor["frames_in"],
                    "admission_batches": frontdoor["admission_batches"],
                    "mean_coalesced": frontdoor["mean_coalesced"],
                    "max_coalesced": frontdoor["max_coalesced"],
                    "server_resubmits": frontdoor["resubmits"],
                }
                record.update(latency_summary_ns(samples))
                return record
            finally:
                for remote in remotes:
                    remote.close()
    finally:
        service.close()


def frontdoor_records():
    keys = google_urls(NUM_KEYS, seed=17)
    model = train_model(keys, fixed_dataset=True)
    records = []
    for execution in _executions():
        inproc = _inproc_record(model, keys, execution)
        records.append(inproc)
        for connections in CONNECTIONS:
            records.append(
                _socket_record(model, keys, execution, connections,
                               inproc["ops_per_second"])
            )
    return records


def write_report(records, path=None):
    if path is None:
        repo_root = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
        path = os.path.join(repo_root, "BENCH_frontdoor.json")
    try:
        rev = subprocess.run(
            ["git", "rev-parse", "HEAD"], capture_output=True, text=True,
            timeout=10, cwd=os.path.dirname(os.path.abspath(__file__)),
        ).stdout.strip() or "unknown"
    except OSError:
        rev = "unknown"
    with open(path, "w") as f:
        json.dump({
            "git_rev": rev,
            "generated_at_unix": time.time(),
            "records": records,
        }, f, indent=2)
    print(f"\n[wrote {len(records)} frontdoor record(s) to {path}]")
    return path


def main():
    print_header(f"Front door: socket vs in-process admission "
                 f"({SHARDS} {BACKEND} shards, {NUM_OPS} ops, mix {MIX})")
    records = frontdoor_records()
    for r in records:
        tag = (f"{r['connections']} conn" if r["path"] == "socket"
               else "in-proc")
        ratio = (f"  {r['ops_ratio_vs_inproc']:.2f}x of in-proc"
                 if r["path"] == "socket" else "")
        print(f"{r['benchmark']:28s} [{tag:>7s}] "
              f"{r['ops_per_second']:8.0f} ops/s  "
              f"p50 {r['latency_p50_ns'] / 1e3:7.0f}us "
              f"p99 {r['latency_p99_ns'] / 1e3:7.0f}us  "
              f"lost {r['lost_acks']}{ratio}")
    write_report(records)


# ------------------------------------------------------------------ tests


def _tiny_setup():
    keys = google_urls(300, seed=17)
    model = train_model(keys, fixed_dataset=True)
    return keys, model


def test_socket_record_loses_no_acks():
    keys, model = _tiny_setup()
    record = _socket_record(model, keys, "inline", 2, 1.0)
    assert record["lost_acks"] == 0
    assert record["generation_retries"] == 0
    assert record["latency_p50_ns"] > 0
    assert record["admission_batches"] >= 1


def test_inproc_record_shape_matches_schema():
    keys, model = _tiny_setup()
    record = _inproc_record(model, keys, "inline")
    for field in ("benchmark", "ops_per_second", "lost_acks",
                  "latency_p50_ns", "latency_p99_ns", "latency_samples"):
        assert field in record
    assert record["lost_acks"] == 0


if __name__ == "__main__":
    main()
