"""The repository benchmark: three workloads, from the ELH kernel to the socket.

Run from the repository root::

    python3 perfbench/run.py --workload kv-bulk-read --seed 1 --seconds 20 --trace 0

``--workload all`` runs the three workloads one after another.

``--trace 0`` prints every end-to-end metric (``setup_s``, ``ops_s``,
read and write p50 latency, ``peak_rss_mb``) by name with its unit,
then the read and write tail latencies, which are recorded but not
gated; ``--trace 1`` prints the per-layer metrics of a traced run
instead.

Times are host-speed adjusted: the host is shared and its speed swings
by up to 2.3 times, so every timed call and set-up is bracketed by
measurements of fixed reference work and divided by their factor
(``hostspeed.py``).  They read as on the nominal host; the raw values
are printed beside them (not gated) and kept in the record.

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``.  The full
record — environment, exact counts, tail percentiles and sample counts,
open-loop validity — is written to ``.perfbench/`` at the repository
root, next to the span dumps of traced runs.

The exit code is nonzero on any wrong answer, any lost acknowledgement,
exact counts that differ between two set-ups of the same seed, and an
open-loop run whose generator fell behind (reported invalid, not
scored).  Seeds 1-10 are the tuning seeds; seed 1001 is kept back for
held-out confirmation of a claimed gain.

Workloads (see ``BENCHMARK.json`` for why each exists):

* ``kv-bulk-read``    closed loop, ``ServiceClient.multi_get`` calls of
  2048 keys that overflow every shard queue;
* ``net-read-mostly`` open loop at a fixed rate, in bursts of 32
  requests, over TCP loopback to a ``FrontDoor`` in a server process;
* ``table-probe``     library use: ``EntropyAwareProbingTable``
  ``insert_batch`` / ``probe_batch`` with half the probes missing.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import statistics
import subprocess
import sys
import time
from pathlib import Path

sys.dont_write_bytecode = True
ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"


def _src_digest() -> str:
    digest = hashlib.sha256()
    for path in sorted((SRC / "repro").rglob("*.py")):
        digest.update(str(path.relative_to(SRC)).encode())
        digest.update(path.read_bytes())
    return digest.hexdigest()


def _git_rev():
    """The commit, when the checkout is a git repository."""
    if not (ROOT / ".git").exists():
        return None
    try:
        out = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
            text=True, timeout=10, check=True,
        )
    except (OSError, subprocess.SubprocessError):
        return None
    return out.stdout.strip() or None


def environment(args, result) -> dict:
    import numpy

    return {
        "git_rev": _git_rev(),
        "src_sha256": _src_digest(),
        "cpu_cores": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "num_keys": result["num_keys"],
        "unix_time": time.time(),
    }


def _ratio(numerator, denominator) -> float:
    return numerator / denominator if denominator else 0.0


def end_to_end(result):
    """The gated metrics, the same unadjusted, and the latency
    summaries with their tails.

    Every timed call's duration, and every set-up's, is divided by the
    host-speed factor measured around it (``hostspeed.py``), so
    times and closed-loop rates read as on the nominal host; the open
    loop's rate is fixed and left as measured.  The tails (a fixed
    percentile per workload, ``*_TAIL_PCT`` in ``workloads.py``) are
    recorded and printed but not gated: on a shared 2-core host their
    run-to-run spread is several times the largest allowed bound.
    """
    reads = result["reads"].summary(result["tail_pct"]["read"])
    writes = result["writes"].summary(result["tail_pct"]["write"])
    metrics = {
        "setup_s": (statistics.median(result["setup_adjusted_s"]), "s"),
        "ops_s": (result["ops_s"], "1/s"),
        "read_p50_ms": (reads["p50_ms"], "ms"),
        "write_p50_ms": (writes["p50_ms"], "ms"),
        "peak_rss_mb": (result["peak_rss_mb"], "MB"),
    }
    raw = {
        "setup_s": (statistics.median(result["setup_s"]), "s"),
        "ops_s": (result["raw_ops_s"], "1/s"),
        "read_p50_ms": (reads["raw_p50_ms"], "ms"),
        "write_p50_ms": (writes["raw_p50_ms"], "ms"),
    }
    return metrics, raw, {"read": reads, "write": writes}


def per_layer(result) -> dict:
    counts = result["counts"][0]
    layers = result.get("layers") or {}
    self_s = layers.get("self_s", {})
    by_name = layers.get("name_self_s", {})
    calls = layers.get("calls", {})
    items = layers.get("items", {})
    timed = result.get("timed_layers") or {}
    door = result.get("frontdoor") or {}
    ops = counts["ops"]
    get = counts.get
    segment_calls = calls.get("ShardCore.serve_segment", 0)
    traced = [v for t, v in result["count_ops_s"] if t]
    untraced = [v for t, v in result["count_ops_s"] if not t]
    traced_ops_s = statistics.median(traced) if traced else 0.0
    untraced_ops_s = statistics.median(untraced) if untraced else 0.0
    metrics = {
        "engine.calls": (get("engine_calls", 0), "count"),
        "engine.keys_per_call": (
            _ratio(get("engine_keys", 0), get("engine_calls", 0)), "keys"),
        "engine.bytes_per_key": (
            _ratio(get("engine_bytes", 0), get("engine_keys", 0)), "bytes"),
        "engine.self_s": (self_s.get("engine", 0.0), "s"),
        "tables.insert_self_s": (
            by_name.get("LinearProbingTable.insert_batch", 0.0), "s"),
        "tables.probe_self_s": (
            by_name.get("LinearProbingTable.probe_batch", 0.0), "s"),
        "tables.comparisons_per_probe": (
            _ratio(get("key_comparisons", 0), get("probes", 0)), "count"),
        "tables.grows": (get("grows", 0), "count"),
        "router.keys": (get("router_keys", 0), "count"),
        "router.self_s": (self_s.get("router", 0.0), "s"),
        "service.submitted": (get("submitted", 0), "count"),
        "service.rejected": (get("rejected", 0), "count"),
        "service.accept_ratio": (
            _ratio(get("accepted", 0), get("submitted", 0)), "ratio"),
        "service.pumps": (get("pumps", 0), "count"),
        "service.pumps_per_op": (_ratio(get("pumps", 0), ops), "count"),
        "service.submit_self_s": (
            by_name.get("Service.submit", 0.0)
            + by_name.get("Service.submit_batch", 0.0), "s"),
        "service.pump_self_s": (by_name.get("Service.pump", 0.0), "s"),
        "supervisor.self_s": (self_s.get("supervisor", 0.0), "s"),
        "worker.dispatches": (get("dispatches", 0), "count"),
        "worker.mean_batch": (
            _ratio(get("processed", 0), get("dispatches", 0)), "keys"),
        "worker.self_s": (self_s.get("worker", 0.0), "s"),
        "core.segments": (segment_calls, "count"),
        "core.keys_per_segment": (
            _ratio(items.get("ShardCore.serve_segment", 0), segment_calls),
            "keys"),
        "core.self_s": (self_s.get("core", 0.0), "s"),
        "journal.appends": (get("journal_appends", 0), "count"),
        "journal.checkpoints": (get("journal_checkpoints", 0), "count"),
        "journal.self_s": (self_s.get("journal", 0.0), "s"),
        "client.retries": (get("client_retries", 0), "count"),
        "client.backoff_pumps": (get("client_backoff_pumps", 0), "count"),
        "client.self_s": (self_s.get("client", 0.0), "s"),
        "frontdoor.admission_batches": (
            door.get("admission_batches", 0), "count"),
        "frontdoor.mean_coalesced": (
            _ratio(door.get("admitted", 0), door.get("admission_batches", 0)),
            "requests"),
        "frontdoor.pumps_per_request": (
            _ratio(door.get("pumps", 0), door.get("admitted", 0)), "count"),
        "netproto.codec_s": (
            timed.get("self_s", {}).get("netproto", 0.0), "s"),
        "trainer.train_s": (statistics.median(result["train_s"]), "s"),
        "trace.traced_ops_s": (traced_ops_s, "1/s"),
        "trace.untraced_ops_s": (untraced_ops_s, "1/s"),
        "trace.overhead_frac": (
            1.0 - _ratio(traced_ops_s, untraced_ops_s), "ratio"),
    }
    return metrics


def check(result) -> list:
    """Correctness failures: each one makes the run exit nonzero."""
    problems = []
    if result["wrong_reads"]:
        problems.append(
            f"{result['wrong_reads']} wrong answers, e.g. "
            f"{result['wrong_examples'][:3]}"
        )
    if result["lost_acks"]:
        problems.append(f"{result['lost_acks']} lost acknowledgements")
    first = result["counts"][0]
    for index, counts in enumerate(result["counts"][1:], start=1):
        differ = sorted(k for k in first if counts.get(k) != first[k])
        if differ:
            problems.append(
                f"exact counts of set-up {index} differ from set-up 0 "
                f"(same seed): {differ}"
            )
    return problems


def run_all(args, names) -> int:
    """``--workload all``: each workload in its own process, in turn;
    the last line sums them up, with metrics keyed ``workload/metric``."""
    summary = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    worst = 0
    for name in names:
        print(f"== {name}", flush=True)
        proc = subprocess.run(
            [sys.executable, __file__, "--workload", name,
             "--seed", str(args.seed), "--seconds", str(args.seconds),
             "--trace", str(args.trace)],
            stdout=subprocess.PIPE, text=True, timeout=900,
        )
        lines = proc.stdout.splitlines()
        print("\n".join(lines[:-1]), flush=True)
        worst = max(worst, proc.returncode)
        try:
            result = json.loads(lines[-1])
        except (IndexError, ValueError):
            summary["correct"] = False
            continue
        summary["correct"] = summary["correct"] and result["correct"]
        summary["attempted"] += result["attempted"]
        summary["failed"] += result["failed"]
        for metric, value in result["metrics"].items():
            summary["metrics"][f"{name}/{metric}"] = value
    print(json.dumps(summary))
    return worst


def main(argv=None) -> int:
    sys.path.insert(0, str(Path(__file__).resolve().parent))
    from workloads import WORKLOADS

    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True,
                        choices=sorted(WORKLOADS) + ["all"])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (SRC / "repro" / "__init__.py").is_file():
        print(f"perfbench: no program sources under {SRC}; run from the "
              "repository root of a full checkout", file=sys.stderr)
        return 2
    if args.seconds <= 0:
        parser.error("--seconds must be positive")
    if args.workload == "all":
        return run_all(args, sorted(WORKLOADS))
    sys.path.insert(0, str(SRC))
    out_dir = ROOT / ".perfbench"
    out_dir.mkdir(exist_ok=True)

    result = WORKLOADS[args.workload](
        args.seed, args.seconds, bool(args.trace), out_dir
    )
    e2e, raw, tails = end_to_end(result)
    factor = statistics.median(result["speed_factors"])
    chosen = per_layer(result) if args.trace else e2e
    problems = check(result)
    valid = result.get("valid", True)
    record = {
        "environment": environment(args, result),
        "end_to_end": {k: v for k, (v, _) in e2e.items()},
        "end_to_end_unadjusted": {k: v for k, (v, _) in raw.items()},
        "host_speed_factor_median": factor,
        "host_speed_factors": result["speed_factors"],
        "setup_adjusted_s": result["setup_adjusted_s"],
        "ops_s_whole_run": _ratio(result["ops"], result["elapsed_s"]),
        "per_layer": (
            {k: v for k, (v, _) in chosen.items()} if args.trace else None
        ),
        "tails": tails,
        "setup_s": result["setup_s"],
        "counts": result["counts"],
        "count_ops_s": result["count_ops_s"],
        "attempted": result["attempted"],
        "failed": result["failed"],
        "wrong_reads": result["wrong_reads"],
        "lost_acks": result["lost_acks"],
        "problems": problems,
        "valid": valid,
    }
    for extra in ("open_loop", "frontdoor", "spans_file", "timed_spans_file",
                  "final_stats", "slice_rates", "segments",
                  "setup_parts"):
        if extra in result:
            record[extra] = result[extra]
    trace_tag = f"trace{args.trace}"
    path = out_dir / f"{args.workload}-seed{args.seed}-{trace_tag}.json"
    path.write_text(json.dumps(record, indent=1, default=str))

    for name, (value, unit) in chosen.items():
        print(f"{name:32s} {value:14.6f} {unit}")
    if not args.trace:
        print(f"{'host_speed_factor':32s} {factor:14.6f} x nominal "
              "(median; each call adjusted by its own)")
        for name, (value, unit) in raw.items():
            print(f"{name + '_raw':32s} {value:14.6f} {unit} (not gated)")
        for kind, summary in tails.items():
            print(f"{kind + '_tail_ms':32s} {summary['tail_ms']:14.6f} ms "
                  f"(p{summary['tail_pct']:g}, "
                  f"{summary['calls_beyond_tail']} calls beyond; not gated)")
    print(f"record: {path.relative_to(ROOT)}")
    for problem in problems:
        print(f"perfbench: FAILED CHECK: {problem}", file=sys.stderr)
    if not valid:
        print("perfbench: INVALID RUN: the open-loop generator fell behind "
              f"({result['open_loop']})", file=sys.stderr)
        return 3
    print(json.dumps({
        "correct": not problems,
        "attempted": int(result["attempted"]),
        "failed": int(result["failed"]),
        "metrics": {
            name: {"value": value, "unit": unit}
            for name, (value, unit) in chosen.items()
        },
    }))
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
