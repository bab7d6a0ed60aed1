"""Tests for the sharded serving layer (repro.service)."""

import json
import math

import pytest

from repro.core.trainer import train_model
from repro.datasets import google_urls
from repro.service import (
    BACKENDS,
    FAILED,
    OK,
    REJECTED,
    Request,
    Service,
    ServiceClient,
    ShardRouter,
    Worker,
    make_adapter,
    run_service_workload,
)
from repro.workloads.ycsb import WorkloadGenerator


@pytest.fixture(scope="module")
def corpus():
    return google_urls(600, seed=21)


@pytest.fixture(scope="module")
def model(corpus):
    return train_model(corpus, fixed_dataset=True)


def _service(model, **kwargs):
    defaults = dict(num_shards=3, backend="chaining", model=model,
                    capacity=1024, max_queue=32, batch_size=8)
    defaults.update(kwargs)
    return Service(**defaults)


class TestProtocol:
    def test_rejects_unknown_op(self):
        with pytest.raises(ValueError):
            Request(op="scan", key=b"k")

    def test_response_ok_property(self):
        from repro.service import Response

        assert Response(status=OK).ok
        assert not Response(status=REJECTED).ok
        assert not Response(status=FAILED).ok


class TestRouter:
    def test_routing_deterministic(self, model, corpus):
        a = ShardRouter.from_model(model, 4, expected_items=600)
        b = ShardRouter.from_model(model, 4, expected_items=600)
        assert list(a.route_batch(corpus)) == list(b.route_batch(corpus))

    def test_route_one_matches_batch(self, model, corpus):
        router = ShardRouter.from_model(model, 4, expected_items=600)
        batch = list(router.route_batch(corpus[:50]))
        router2 = ShardRouter.from_model(model, 4, expected_items=600)
        singles = [router2.route_one(k) for k in corpus[:50]]
        assert batch == singles

    def test_balance_within_paper_bound(self, model, corpus):
        router = ShardRouter.from_model(model, 4, expected_items=600)
        report = router.balance_of(corpus)
        assert report["within_bound"]
        assert report["relative_std"] <= report["bound"]

    def test_balance_of_does_not_touch_counters(self, model, corpus):
        router = ShardRouter.from_model(model, 4, expected_items=600)
        router.balance_of(corpus)
        assert router.balance()["total_routed"] == 0

    def test_bound_formula(self):
        from repro.partitioning.stats import relative_balance_bound

        bound = relative_balance_bound(1000, 4, tolerance=0.05)
        assert bound == pytest.approx(0.05 + 3.0 * math.sqrt(3 / 1000))
        assert relative_balance_bound(0, 4) == math.inf
        with pytest.raises(ValueError):
            relative_balance_bound(1000, 0)


class TestWorker:
    def _worker(self, model, backend="chaining", max_queue=8, batch_size=4):
        adapter = make_adapter(backend, capacity=256, model=model)
        return Worker(0, adapter, max_queue=max_queue, batch_size=batch_size)

    def _ticket(self, op, key, value=b""):
        from repro.service import Ticket

        return Ticket(request=Request(op=op, key=key, value=value),
                      request_id=0)

    def test_micro_batching(self, model):
        worker = self._worker(model, batch_size=4)
        tickets = [self._ticket("put", b"k%d" % i, b"v%d" % i)
                   for i in range(8)]
        for t in tickets:
            assert worker.try_enqueue(t)
        processed = worker.drain()
        stats = worker.stats()
        assert stats["batches"] >= 2
        assert stats["mean_batch_size"] <= 4
        assert processed == stats["processed"]

    def test_queue_bound_and_rejection(self, model):
        worker = self._worker(model, max_queue=4)
        accepted = sum(
            worker.try_enqueue(self._ticket("put", b"k%d" % i, b"v"))
            for i in range(10)
        )
        assert accepted == 4
        assert worker.stats()["rejected"] == 6
        assert worker.stats()["queue_depth"] == 4

    def test_mixed_op_segments(self, model):
        worker = self._worker(model, max_queue=32, batch_size=32)
        ops = [("put", b"a", b"1"), ("put", b"b", b"2"), ("get", b"a", b""),
               ("contains", b"c", b""), ("delete", b"a", b""),
               ("get", b"a", b"")]
        tickets = [self._ticket(*op) for op in ops]
        for t in tickets:
            assert worker.try_enqueue(t)
        worker.drain()
        assert tickets[2].response.value == b"1"
        assert tickets[3].response.found is False
        assert tickets[4].response.found is True
        assert tickets[5].response.found is False

    @pytest.mark.parametrize("backend", ["bloom", "cuckoo_filter"])
    def test_filters_reject_unsupported_ops(self, model, backend):
        worker = self._worker(model, backend=backend)
        ticket = self._ticket("get", b"k")
        worker.try_enqueue(ticket)
        worker.drain()
        assert ticket.response.status == FAILED


class TestService:
    def test_end_to_end_kv(self, model):
        service = _service(model)
        client = ServiceClient(service)
        client.put_many((b"key%03d" % i, b"val%03d" % i) for i in range(200))
        assert client.get(b"key007") == b"val007"
        assert client.contains(b"key199")
        assert not client.contains(b"missing")
        assert client.delete(b"key007")
        assert client.get(b"key007") is None
        assert client.lost_acks == 0

    def test_backpressure_rejects_with_retry_after(self, model):
        service = _service(model, num_shards=1, max_queue=4, batch_size=2)
        tickets = [service.submit(Request(op="put", key=b"k%d" % i,
                                          value=b"v"))
                   for i in range(12)]
        rejected = [t for t in tickets if t.rejected]
        assert rejected
        for t in rejected:
            assert t.response.status == REJECTED
            assert t.response.retry_after >= 1
        service.drain()
        assert service.stats()["submitted"] == 12
        assert (service.stats()["accepted"] + service.stats()["rejected"]
                == 12)

    def test_stats_json_serializable(self, model):
        service = _service(model)
        client = ServiceClient(service)
        client.put(b"k", b"v")
        payload = client.stats()
        json.dumps(payload)
        assert payload["num_shards"] == 3
        assert len(payload["shards"]) == 3

    @pytest.mark.parametrize("backend", BACKENDS)
    def test_degraded_mode_keeps_acked_writes(self, model, backend):
        service = _service(model, backend=backend, capacity=4096)
        client = ServiceClient(service)
        keys = [b"stable%04d" % i for i in range(300)]
        acked = []
        for key in keys:
            ticket = client._admit([Request(op="put", key=key, value=b"v")])[0]
            client._complete(ticket)
            if ticket.response.status == OK:
                acked.append(key)
        assert acked  # at least some writes must land
        service.force_trip(0)
        assert service.degraded
        # PR 5: the quarantine is per-shard — only the tripped shard
        # falls back to full-key, its siblings keep partial-key serving.
        assert service.workers[0].adapter.tripped
        assert not service.breakers[1].opens and not service.breakers[2].opens
        missing = [k for k in acked if not client.contains(k)]
        assert missing == []

    def test_degraded_mode_routes_stay_pinned(self, model):
        """Degrading must not re-route keys: reads after the trip still
        find values written before it."""
        service = _service(model)
        client = ServiceClient(service)
        client.put_many((b"pin%03d" % i, b"v%03d" % i) for i in range(100))
        before = list(service.router.route_batch(
            [b"pin%03d" % i for i in range(100)]))
        service.force_trip(1)
        after = list(service.router.route_batch(
            [b"pin%03d" % i for i in range(100)]))
        assert before == after
        assert client.get(b"pin042") == b"v042"

    def test_natural_monitor_trip_degrades_shard(self, model):
        service = _service(model, num_shards=2)
        # Simulate a pathological insert stream by force-tripping the
        # worker adapter directly, then letting pump() notice it.
        service.workers[0].adapter.force_trip()
        service.pump()
        assert service.degraded
        assert service.stats()["degrade_events"] == 1
        assert not service.breakers[0].closed
        assert service.breakers[1].closed  # the sibling keeps serving fast

    def test_breaker_heals_after_cooldown(self, model):
        service = _service(model, num_shards=2, cooldown_pumps=4,
                           probe_pumps=2)
        client = ServiceClient(service)
        client.put_many((b"heal%03d" % i, b"v%03d" % i) for i in range(100))
        service.force_trip(0)
        assert service.degraded
        for _ in range(10):  # past cooldown + probe
            service.pump()
        assert not service.degraded
        assert service.breakers[0].closes == 1
        assert service.stats()["degrade_events"] == 1  # trips are remembered
        # healed shard serves partial-key again and kept every write
        assert not service.workers[0].adapter.tripped
        assert client.get(b"heal042") == b"v042"

    def test_invalid_construction(self, model):
        with pytest.raises(ValueError):
            Service(backend="btree", model=model)
        with pytest.raises(ValueError):
            Service(backend="chaining")  # neither model nor hasher


class TestClient:
    def test_put_many_fills_batches(self, model):
        service = _service(model, batch_size=16)
        client = ServiceClient(service)
        client.put_many((b"b%04d" % i, b"v") for i in range(256))
        mean = max(s["mean_batch_size"] for s in service.stats()["shards"])
        assert mean > 1.5  # queues actually filled before draining

    def test_retry_loop_survives_overload(self, model):
        service = _service(model, num_shards=1, max_queue=2, batch_size=1)
        client = ServiceClient(service)
        client.put_many((b"r%04d" % i, b"v") for i in range(64))
        assert client.lost_acks == 0
        assert client.retries > 0
        assert client.get(b"r0000") == b"v"

    def test_run_service_workload(self, model, corpus):
        service = _service(model, capacity=len(corpus))
        client = ServiceClient(service)
        client.put_many((k, b"v0") for k in corpus)
        gen = WorkloadGenerator(corpus, "A", seed=5)
        counts = run_service_workload(client, gen.operations(500))
        assert sum(counts.values()) == 500
        assert client.lost_acks == 0

    def test_scan_workload_raises(self, model, corpus):
        service = _service(model)
        client = ServiceClient(service)
        gen = WorkloadGenerator(corpus, "E", seed=5)
        with pytest.raises(ValueError):
            run_service_workload(client, gen.operations(200))


class TestOverload:
    """The rejection path: typed overload errors and honest ledgers."""

    def test_overload_raises_typed_error(self, model):
        from repro.service import ServiceOverloadedError

        service = _service(model, num_shards=1, max_queue=2, batch_size=1)
        # A stalled worker never drains, so every retry re-rejects and
        # the client must give up with the typed error, not spin.
        service.workers[0].crashed = True
        service.supervisor._restart = lambda *a, **k: None  # keep it down
        for i in range(2):
            service.submit(Request(op="put", key=b"fill%d" % i, value=b"v"))
        client = ServiceClient(service, max_retries=3, submit_pump_budget=16)
        # The message reports this walk's attempts and pumps: backoff
        # 2, 4 and 8 pumps between the four attempts (hint 2 doubled).
        with pytest.raises(
            ServiceOverloadedError,
            match=r"^1 request\(s\) still rejected after 4 attempt\(s\) "
                  r"without progress and 14 backoff pump\(s\) "
                  r"\(shards \[0\]\)$",
        ):
            client._admit([Request(op="put", key=b"late", value=b"v")])
        assert client.retries == 4  # max_retries + 1 attempts, all rejected
        # A rejected-then-abandoned put was never accepted: the ack
        # ledger must not count it as lost.
        assert client.puts_accepted == 0
        assert client.lost_acks == 0

    def test_submit_pump_spend_is_capped(self, model):
        from repro.service import ServiceOverloadedError

        service = _service(model, num_shards=1, max_queue=1, batch_size=1)
        service.workers[0].crashed = True
        service.supervisor._restart = lambda *a, **k: None
        service.submit(Request(op="put", key=b"fill", value=b"v"))
        client = ServiceClient(service, max_retries=1000,
                               submit_pump_budget=32)
        pumps_before = service.pump_index
        with pytest.raises(ServiceOverloadedError):
            client._admit([Request(op="put", key=b"late", value=b"v")])
        # The budget bounds the total pump spend regardless of retries.
        assert service.pump_index - pumps_before <= 32
        assert client.backoff_pumps <= 32

    def test_retries_and_lost_acks_under_sustained_backpressure(self, model):
        service = _service(model, num_shards=1, max_queue=2, batch_size=1)
        client = ServiceClient(service)
        client.put_many((b"bp%04d" % i, b"v") for i in range(64))
        stats = service.stats()
        assert stats["rejected"] > 0  # backpressure actually engaged
        assert client.retries >= stats["rejected"] > 0
        assert client.lost_acks == 0
        assert client.puts_acked == 64
        assert client.get(b"bp0000") == b"v"


class TestBackoffRegressions:
    """PR 8 bugfix sweep: falsy retry_after hints, per-attempt caps,
    and single-count accounting for batch-admission rejections."""

    def test_explicit_zero_hint_spends_no_pumps(self, model):
        # `retry_after=0` is an explicit "retry immediately" hint (the
        # front door's per-connection rejection can send it); it used
        # to be promoted to a 1-pump backoff by `retry_after or 1`.
        from repro.service import Response, Ticket

        service = _service(model, num_shards=1)
        client = ServiceClient(service, max_retries=4)
        real_submit_batch = service.submit_batch
        rejections = []

        def submit_batch(requests):
            if len(rejections) < 3:
                (request,) = requests
                ticket = Ticket(request=request, request_id=-1, shard=0)
                ticket.response = Response(REJECTED, shard=0, retry_after=0)
                rejections.append(ticket)
                return [ticket]
            return real_submit_batch(requests)

        service.submit_batch = submit_batch
        ticket = client._admit([Request(op="put", key=b"zh", value=b"v")])[0]
        assert not ticket.rejected
        assert client.retries == 3
        assert client.backoff_pumps == 0  # zero hint -> zero pumps
        assert client.puts_accepted == 1

    def test_per_attempt_backoff_is_capped(self, model):
        # However deep the rejecting queue claims to be, one attempt
        # never spends more than BACKOFF_CAP_PUMPS — the uncapped
        # exponential used to scale with the hint unboundedly.
        from repro.service import Response, ServiceOverloadedError, Ticket
        from repro.service.client import BACKOFF_CAP_PUMPS

        service = _service(model, num_shards=1)
        client = ServiceClient(service, max_retries=2,
                               submit_pump_budget=100_000)

        def submit_batch(requests):
            tickets = []
            for request in requests:
                ticket = Ticket(request=request, request_id=-1, shard=0)
                ticket.response = Response(REJECTED, shard=0,
                                           retry_after=10_000)
                tickets.append(ticket)
            return tickets

        service.submit_batch = submit_batch
        with pytest.raises(ServiceOverloadedError):
            client._admit([Request(op="put", key=b"cap", value=b"v")])
        assert 0 < client.backoff_pumps <= 3 * BACKOFF_CAP_PUMPS

    def test_mixed_batch_reject_counted_once(self, model):
        # Four distinct-key puts into a 2-deep queue: two admit, two
        # reject at batch admission.  Each rejection is ONE
        # backpressure event — the retry walk must back off on the
        # rejection it already holds instead of re-submitting
        # immediately into the same full queue, which re-rejected
        # deterministically and double-counted the event in both the
        # client's `retries` and the service's rejection ledger.
        service = _service(model, num_shards=1, max_queue=2, batch_size=1)
        client = ServiceClient(service)
        responses = client.put_many([(b"mix%d" % i, b"v") for i in range(4)])
        assert all(r.ok for r in responses)
        assert service.stats()["rejected"] == 2
        assert client.retries == 2
        assert client.backoff_pumps >= 2  # backed off before each retry
        assert client.puts_accepted == 4
        assert client.puts_acked == 4
        assert client.lost_acks == 0


class TestBatchAdmission:
    """One admission path: the client re-admits the rejected remainder
    as one batch, in order, instead of walking it key by key."""

    def test_duplicate_puts_keep_order_under_queue_loss(self, model):
        # Four fills leave the one-shard queue full.  The first write to
        # "dup" is rejected; the armed queue loss would fire on the
        # second write, admitting it ahead of the first.  A shard that
        # rejects stays closed for the rest of the batch, so the second
        # write is rejected too and both re-admit in order.
        from repro.faults import FaultPlan, FaultPlane

        plane = FaultPlane(FaultPlan.parse(["queue_loss:router:0:after=5"]))
        service = _service(model, num_shards=1, max_queue=4, batch_size=1,
                           fault_plane=plane)
        client = ServiceClient(service)
        pairs = [(b"fill%d" % i, b"v") for i in range(4)]
        pairs += [(b"dup", b"first"), (b"dup", b"second")]
        responses = client.put_many(pairs)
        assert all(r.ok for r in responses)
        assert plane.fired["queue_loss"] == {0: 1}
        assert client.get(b"dup") == b"second"
        assert client.lost_acks == 0

    def test_batch_far_beyond_retry_cap_completes(self, model):
        # 400 puts against 4 queue slots need ~100 attempts, far more
        # than max_retries + 1 = 65.  Every attempt admits something,
        # so the walk keeps going: the retry bound is for a stalled
        # service, not for a long batch.
        service = _service(model, num_shards=1, max_queue=4, batch_size=4)
        client = ServiceClient(service)
        pairs = [(b"long%04d" % i, b"v%04d" % i) for i in range(400)]
        responses = client.put_many(pairs)
        assert all(r.ok for r in responses)
        assert client.lost_acks == 0
        assert client.puts_acked == 400
        # Progress resets the backoff exponent: each remainder waits
        # one drain (retry_after = 1 pump), never a doubled one.
        assert client.backoff_pumps == 99
        assert client.multi_get([k for k, _ in pairs[::50]]) == [
            v for _, v in pairs[::50]
        ]

    def test_saturated_multi_get_keeps_batch_granularity(self, model):
        # Liveness: a multi_get twice the service-wide queue headroom
        # (4 shards x 256 slots) completes in a bounded number of pumps
        # and the shards keep serving near-full micro-batches instead
        # of collapsing to one key per batch.
        keys = google_urls(2048, seed=22)
        service = _service(model, num_shards=4, backend="probing",
                           capacity=len(keys), max_queue=256,
                           batch_size=64)
        client = ServiceClient(service)
        client.put_many((k, b"v:" + k) for k in keys)
        assert len(keys) == 2 * 4 * 256

        def served():
            return (sum(w.processed for w in service.workers),
                    sum(w.batches for w in service.workers))

        pumps_before = service.pump_index
        routed_before = int(service.router.routed.sum())
        keys_before, batches_before = served()
        values = client.multi_get(keys)
        keys_after, batches_after = served()
        assert values == [b"v:" + k for k in keys]
        # Re-admitted requests count once as routed traffic, so the
        # balance counters and hot-key tracker see traffic, not retries.
        assert int(service.router.routed.sum()) - routed_before == len(keys)
        assert service.pump_index - pumps_before <= 32
        mean_batch = ((keys_after - keys_before)
                      / (batches_after - batches_before))
        assert mean_batch >= 64 / 2
