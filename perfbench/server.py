"""Serving process of the net-read-mostly workload.

Started by ``workloads.Server``; it sets up the same 4-shard inline
service as kv-bulk-read (keys, training, preload, warm-up), runs
the untimed count run in-process, then serves a ``FrontDoor`` on an
ephemeral loopback port.  It talks to its parent over a line protocol:
every reply is one JSON object on stdout, and stdin takes

* ``mark`` — the timed phase starts: open the network reference
  (``hostspeed.ReferenceEcho``) on a second port, snapshot the front
  door counters and, with ``--trace-timed 1``, install the tracer
  between pumps;
* ``stop`` — drain, report the window's counters, per-layer results
  and this process's peak RSS, and exit.

Usage (normally only from the benchmark itself)::

    python3 perfbench/server.py --seed 1 --trace-count 0 --trace-timed 0 \
        --out-dir .perfbench
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import sys
import time
import traceback
from pathlib import Path

sys.dont_write_bytecode = True
sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

import common  # noqa: E402
import hostspeed  # noqa: E402
import workloads  # noqa: E402
from tracer import Tracer  # noqa: E402

FRONTDOOR_COUNTERS = ("frames_in", "admission_batches", "admitted", "pumps",
                      "rejections_propagated", "resubmits")


def emit(payload) -> None:
    print(json.dumps(payload), flush=True)


def set_up(seed: int, traced: bool, out_dir: Path):
    """Set-up plus the untimed count run, before the front door opens."""
    result = workloads.Result()
    start = time.perf_counter()
    speed = hostspeed.HostSpeed()
    first_factor = statistics.median(speed.measure() for _ in range(3))
    measuring_s = time.perf_counter() - start
    keys, service, client = workloads.kv_setup(
        seed, workloads.NET_KEYS, result, speed
    )
    oracle = common.Oracle((k, common.initial_value(k)) for k in keys)
    timer = hostspeed.Steps(speed)
    caller, tracer, counts, count_s = workloads.count_run(
        service, client, oracle, workloads.net_count_ops(keys, seed),
        workloads.drive_ycsb, traced,
    )
    timer.step()
    measuring_s += timer.spent
    ready = {
        "ok": True,
        "setup_s": result["setup_s"][0],
        "setup_adjusted_s": result["setup_adjusted_s"][0],
        "first_factor": first_factor,
        "measuring_s": measuring_s + result["setup_measuring_s"],
        "train_s": result["train_s"][0],
        "count_s": count_s,
        "count_factor": timer.factor(),
        "counts": counts,
        "lost_acks": client.lost_acks,
        "wrong_reads": oracle.wrong_reads,
        "wrong_examples": oracle.examples,
        "layers": workloads.tracer_layers(tracer) if traced else {},
        "spans_file": (
            workloads.dump_spans(tracer, out_dir,
                                  f"net-read-mostly-seed{seed}-count")
            if traced else None
        ),
    }
    return service, ready


def serve(args) -> int:
    from repro.service import FrontDoorThread

    out_dir = Path(args.out_dir)
    if args.cpu >= 0:
        os.sched_setaffinity(0, {args.cpu})
    service, ready = set_up(args.seed, bool(args.trace_count), out_dir)
    door = FrontDoorThread(service).start()
    echo = None
    tracer = Tracer()
    marked = {}
    cpu_start = wall_start = 0.0
    try:
        ready["port"] = door.port
        emit(ready)
        for line in sys.stdin:
            command = line.strip()
            if command == "mark":
                def mark():
                    if args.trace_timed:
                        tracer.install()
                    return door.door.stats()

                echo = hostspeed.ReferenceEcho()
                marked = door.run_in_loop(mark)
                cpu_start = time.process_time()
                wall_start = time.perf_counter()
                emit({"ok": True, "echo_port": echo.port})
            elif command == "stop":
                stats = door.run_in_loop(door.door.stats)
                busy = (time.process_time() - cpu_start) / (
                    time.perf_counter() - wall_start)
                door.run_in_loop(tracer.restore)
                door.stop()
                window = {
                    name: stats[name] - marked.get(name, 0)
                    for name in FRONTDOOR_COUNTERS
                }
                final = {
                    "ok": True,
                    "frontdoor": window,
                    "server_cpu_per_s": busy,
                    "peak_rss_mb": common.peak_rss_mb(),
                    "layers": workloads.tracer_layers(tracer),
                    "spans_file": (
                        workloads.dump_spans(
                            tracer, out_dir,
                            f"net-read-mostly-seed{args.seed}-timed",
                        ) if args.trace_timed else None
                    ),
                }
                emit(final)
                return 0
            else:
                emit({"ok": False, "error": f"unknown command {command!r}"})
        return 0
    finally:
        if echo is not None:
            echo.stop()
        door.stop()
        service.close()


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--trace-count", type=int, default=0)
    parser.add_argument("--trace-timed", type=int, default=0)
    parser.add_argument("--out-dir", required=True)
    parser.add_argument("--cpu", type=int, default=-1,
                        help="core to pin the server to (-1: no pinning)")
    args = parser.parse_args(argv)
    try:
        return serve(args)
    except Exception:
        emit({"ok": False, "error": traceback.format_exc()})
        return 1


if __name__ == "__main__":
    sys.exit(main())
