"""The service front door: admission, routing, pumping, self-healing.

``Service.submit_batch`` routes each request to its shard and either
enqueues it (bounded queue) or answers synchronously with an explicit
backpressure rejection carrying ``retry_after`` — the queue never grows
without limit; ``submit`` is a one-request batch.  ``pump()`` is the
service's heartbeat and runs four steps in a fixed order:

1. **supervise** — restart crashed workers from their journals, detect
   stalls, and requeue tickets that fell out of the pipeline *before*
   anything is served, so recovered tickets keep per-key admission
   order;
2. **inject** — give an armed fault plane its service-level injection
   points (corruption on shards without an insert-signal path, i.e.
   filters and the LSM);
3. **serve** — drain one micro-batch per shard, catching injected
   crashes and handing them to the supervisor;
4. **react** — check every shard's monitor against its own
   :class:`~repro.service.breaker.CircuitBreaker` and advance breaker
   clocks (open shards cool down, half-open shards probe their way
   back to partial-key hashing).

Unlike PR 4's all-or-nothing degraded mode, a monitor trip now
quarantines *only* the shard that misbehaved: its breaker opens and it
serves full-key while its siblings keep the entropy-learned fast path.

Since PR 7 the key→shard map is a versioned
:class:`~repro.service.routing.RoutingTable` rather than the bare
hasher: the *base* hash is still deliberately pinned (re-hashing keys
would orphan acknowledged writes), but the supervisor's adapt pass can
layer generation-stamped refinements on top — pin detected hot keys to
least-loaded shards (``hot_k``), or split an overloaded shard live
(``auto_split`` / :meth:`Service.split_shard`), migrating acked state
through the journal before each flip.  Every ticket is stamped with
the routing generation at admission; a flip sweeps the queues so the
stamp almost never matters, and the dispatch-time guard answers
``WRONG_GENERATION`` for any straggler rather than serving it against
the wrong shard's state.
"""

from __future__ import annotations

import dataclasses
import math
from typing import Dict, List, Optional, Sequence

from repro.core.hasher import EntropyLearnedHasher
from repro.engine import CollisionMonitor
from repro.faults import InjectedCrash

from repro.service.adapters import BACKENDS, AdapterSpec
from repro.service.backends import EXECUTIONS, ProcessBackend
from repro.service.breaker import OPEN, CircuitBreaker
from repro.service.journal import Entry, ShardJournal
from repro.service.protocol import OK, REJECTED, Request, Response, Ticket
from repro.service.router import ShardRouter
from repro.service.state import ShardStateBlock
from repro.service.supervisor import Supervisor
from repro.service.worker import Worker


def _net_deletes(moved: List[Entry], multiset: bool) -> List[Entry]:
    """Delete entries that erase ``moved``'s net effect from a donor
    structure after migration.  Map-like backends need one delete per
    net-live key; a multiset (cuckoo filter) stores one fingerprint per
    add, so it needs exactly the net add count removed."""
    out: List[Entry] = []
    if multiset:
        counts: Dict[bytes, int] = {}
        order: List[bytes] = []
        for op, key, _ in moved:
            if key not in counts:
                counts[key] = 0
                order.append(key)
            counts[key] += 1 if op == "put" else -1
        for key in order:
            out.extend(("delete", key, None) for _ in range(counts[key])
                       if counts[key] > 0)
    else:
        live: Dict[bytes, bool] = {}
        order = []
        for op, key, _ in moved:
            if key not in live:
                order.append(key)
            live[key] = op == "put"
        out = [("delete", key, None) for key in order if live[key]]
    return out


class Service:
    """A sharded, batched, self-healing request-serving layer."""

    def __init__(
        self,
        num_shards: int = 4,
        backend: str = "chaining",
        model=None,
        hasher: Optional[EntropyLearnedHasher] = None,
        capacity: int = 1024,
        max_queue: int = 256,
        batch_size: int = 64,
        balance_tolerance: float = 0.05,
        seed: int = 0,
        fault_plane=None,
        cooldown_pumps: int = 32,
        probe_pumps: int = 16,
        stall_threshold: int = 3,
        journal_checkpoint: int = 4096,
        max_drain_pumps: int = 10_000,
        execution: str = "inline",
        collect_timeout: float = 30.0,
        hot_k: int = 0,
        hot_phi: float = 0.005,
        hot_sample: int = 1,
        adapt_every: int = 8,
        auto_split: bool = False,
        split_threshold: float = 2.0,
        max_splits: int = 4,
        backend_options: Optional[Dict[str, object]] = None,
        relearn: bool = False,
        drift_window: int = 256,
        drift_margin: float = 2.0,
        drift_patience: int = 2,
        drift_reservoir: int = 256,
        min_dwell: int = 64,
        min_sample: int = 64,
        drift_confidence: float = 20.0,
    ):
        if backend not in BACKENDS:
            raise ValueError(
                f"unknown backend {backend!r}; choose from {BACKENDS}"
            )
        if execution not in EXECUTIONS:
            raise ValueError(
                f"unknown execution {execution!r}; choose from {EXECUTIONS}"
            )
        if (model is None) == (hasher is None):
            raise ValueError("pass exactly one of model= or hasher=")
        if relearn:
            from repro.drift.relearner import RELEARN_BACKENDS

            if model is None:
                raise ValueError(
                    "relearn=True needs model= (a hasher-built service "
                    "has no entropy plan to re-learn)"
                )
            if backend not in RELEARN_BACKENDS:
                raise ValueError(
                    f"relearn=True supports backends {RELEARN_BACKENDS}, "
                    f"got {backend!r}"
                )
        self.num_shards = num_shards
        self.backend = backend
        self.execution = execution
        if model is not None:
            self.router = ShardRouter.from_model(
                model, num_shards, expected_items=capacity,
                tolerance=balance_tolerance, seed=seed,
                hot_k=hot_k, hot_phi=hot_phi, hot_sample=hot_sample,
            )
        else:
            from repro.service.router import ROUTER_SEED_OFFSET

            self.router = ShardRouter(
                hasher.with_seed(hasher.seed + ROUTER_SEED_OFFSET),
                num_shards, tolerance=balance_tolerance,
                hot_k=hot_k, hot_phi=hot_phi, hot_sample=hot_sample,
            )
        shard_capacity = max(4, capacity // num_shards)
        spec = AdapterSpec(
            backend, shard_capacity, model=model, hasher=hasher, seed=seed,
            options=dict(backend_options) if backend_options else None,
        )
        # Kept for live splits: a new shard is built from the same spec
        # and knobs as the originals, mid-flight.
        self._spec = spec
        self._max_queue = max_queue
        self._batch_size = batch_size
        self._journal_checkpoint = journal_checkpoint
        self._collect_timeout = collect_timeout
        self._cooldown_pumps = cooldown_pumps
        self._probe_pumps = probe_pumps
        self._extra_blocks: List[ShardStateBlock] = []
        self.adapt_every = max(1, adapt_every)
        self.auto_split = auto_split
        self.split_threshold = split_threshold
        self.max_splits = max_splits
        self.splits = 0
        self.swept_tickets = 0
        self.state_block: Optional[ShardStateBlock] = None
        if execution == "process":
            self.state_block = ShardStateBlock(num_shards)
            self.workers = [
                Worker(
                    shard,
                    max_queue=max_queue,
                    batch_size=batch_size,
                    journal_checkpoint=journal_checkpoint,
                    execution=ProcessBackend(
                        spec, self.state_block, shard,
                        collect_timeout=collect_timeout,
                    ),
                )
                for shard in range(num_shards)
            ]
        else:
            self.workers = [
                Worker(
                    shard,
                    spec.build(),
                    max_queue=max_queue,
                    batch_size=batch_size,
                    factory=spec.build,
                    journal_checkpoint=journal_checkpoint,
                )
                for shard in range(num_shards)
            ]
        self.breakers = [
            CircuitBreaker(
                shard, cooldown_pumps=cooldown_pumps, probe_pumps=probe_pumps
            )
            for shard in range(num_shards)
        ]
        for worker in self.workers:
            worker.router = self.router
        self.relearner = None
        self.plan_swaps = 0
        self.plan_moved_keys = 0
        if relearn:
            from repro.drift.relearner import Relearner

            self.relearner = Relearner(
                self,
                window=drift_window,
                margin=drift_margin,
                patience=drift_patience,
                reservoir=drift_reservoir,
                min_dwell=min_dwell,
                min_sample=min_sample,
                confidence_constant=drift_confidence,
                seed=seed,
            )
            for worker in self.workers:
                worker.drift_tap = self.relearner.observe
        self.supervisor = Supervisor(self, stall_threshold=stall_threshold)
        self.max_drain_pumps = max_drain_pumps
        self.pump_index = 0
        self._next_request_id = 0
        self.submitted = 0
        self.accepted = 0
        self.rejected = 0
        self.lost_slots = 0
        self.fault_plane = None
        if fault_plane is not None:
            self.arm_fault_plane(fault_plane)

    # ------------------------------------------------------- fault wiring

    def arm_fault_plane(self, plane) -> None:
        """Thread an armed fault plane through every injection point."""
        self.fault_plane = plane
        self.router.fault_plane = plane
        for worker in self.workers:
            self._arm_worker(worker)

    def _arm_worker(self, worker: Worker) -> None:
        """(Re)wire one worker's injection hooks — called at arm time
        and again after every restart, because restarts rebuild the
        structure (and with it the engine the hooks live on)."""
        plane = self.fault_plane
        if plane is None:
            return
        worker.fault_plane = plane
        if worker.adapter is None:
            # Process execution: the structure (and its engine) lives in
            # the shard child, out of reach of in-parent insert hooks.
            # Corruption reaches these shards through the service-level
            # injection point instead, same as filter/LSM shards.
            return
        engine = worker.adapter.engine
        if engine is None or not worker.adapter.monitorable:
            return
        if plane.plan.targets("corrupt"):
            # A corrupt spec is useless against a monitor-less engine:
            # the amplified signal would never be read.  Hasher-built
            # shards get a permissive monitor so the corruption has a
            # monitor to fool — and the breaker something to trip on.
            if (engine.monitor is None
                    and not engine.hasher.partial_key.is_full_key):
                engine.monitor = CollisionMonitor(
                    entropy=16.0,
                    num_slots=max(4, worker.max_queue),
                    min_inserts=4,
                )
            engine.fault_hook = plane.insert_signal_hook(worker.shard_id)

    # ------------------------------------------------------------- intake

    def submit(self, request: Request) -> Ticket:
        """Admit one request: a one-request :meth:`submit_batch`."""
        return self.submit_batch([request])[0]

    def submit_batch(self, requests: Sequence[Request]) -> List[Ticket]:
        """Admit requests in order; the service's one admission path.

        Always returns one ticket per request, with request ids in
        admission order.  A ticket is either queued at its shard, parked
        by an injected queue loss (admitted, requeued later by the
        supervisor), or answered synchronously: ``stats`` in place, a
        full queue with ``REJECTED`` and a ``retry_after`` hint.

        Routing is one vectorized ``route_batch`` pass over the batch's
        keys; a one-request batch takes ``route_one`` instead, whose
        fixed cost is an order of magnitude lower.  Only admitted
        requests are counted as routed traffic (balance counters,
        hot-key tracker, fault plane), so a request the client
        re-admits after a rejection is counted once.

        Once a shard rejects a request, it stays closed for the rest of
        the batch: every later request to it is rejected too, before
        the queue-loss fault is consulted.  A shard's accepted requests
        therefore always precede its rejected ones, so a caller that
        re-admits the rejected remainder in order can never land an
        earlier write to a key after a later one.  Without faults this
        is exactly what a loop of one-request batches would decide.
        """
        requests = list(requests)
        keys = [r.key for r in requests if r.op != "stats"]
        if len(requests) == 1:
            shards = iter([self.router.route_one(k) for k in keys])
        else:
            shards = iter(self.router.route_batch(keys).tolist())
        plane = self.fault_plane
        generation = self.router.generation
        closed = set()
        admitted_keys: List[bytes] = []
        admitted_shards: List[int] = []
        tickets: List[Ticket] = []
        for request in requests:
            ticket = Ticket(
                request, self._next_request_id, generation=generation
            )
            self._next_request_id += 1
            self.submitted += 1
            tickets.append(ticket)
            if request.op == "stats":
                self.accepted += 1
                ticket.response = Response(OK, stats=self.stats())
                continue
            shard = next(shards)
            ticket.shard = shard
            worker = self.workers[shard]
            if (shard not in closed and plane is not None
                    and plane.should_fire("queue_loss", shard)):
                # The slot is lost: the request was admitted (the client
                # holds an acked ticket) but never lands in the queue.
                # It parks in the inflight registry, where the
                # supervisor's reconciliation pass finds and requeues it
                # in request-id order, so nothing admitted later
                # overtakes it.
                self.lost_slots += 1
                worker.inflight[ticket.request_id] = ticket
            elif not worker.try_enqueue(ticket):
                # A closed shard's queue is still full (nothing drains
                # mid-batch), so try_enqueue refuses it here as well.
                closed.add(shard)
                self.rejected += 1
                # After this many pumps the queue has fully drained; a
                # retry then is guaranteed admission (absent new
                # competing load).
                retry_after = math.ceil(worker.queue_depth / worker.batch_size)
                ticket.response = Response(
                    REJECTED, shard=shard, retry_after=max(1, retry_after),
                    error="shard queue full",
                )
                continue
            self.accepted += 1
            admitted_keys.append(request.key)
            admitted_shards.append(shard)
        self.router.observe(admitted_keys, admitted_shards)
        return tickets

    # ------------------------------------------------------------ serving

    def pump(self) -> int:
        """One heartbeat: supervise, inject, serve, react.

        Serving is two sub-phases: every shard *dispatches* one
        micro-batch before any shard *collects*.  An inline core applies
        its batch inside dispatch, so engine fault hooks fire in shard
        order; process children chew on their batches at once.  Either
        way ``collect`` absorbs the results — acks, journal, inflight
        retirement — in shard order.  That barrier is also what
        keeps the client contract: when ``pump()`` returns, every
        dispatched ticket is either answered or a reconciled crash
        victim, never silently in flight across client code.
        """
        self.pump_index += 1
        self.supervisor.observe(self.pump_index)
        # Reconfiguration happens here, between pumps: the two-phase
        # barrier guarantees no batch is outstanding, so a promotion or
        # split sees a frozen pipeline — "freeze the donor and drain
        # in-flight work" holds by construction.
        self.supervisor.adapt(self.pump_index)
        self._inject_service_faults()
        for worker in self.workers:
            worker.dispatch()
        served = 0
        for worker in self.workers:
            try:
                served += worker.collect()
            except InjectedCrash:
                # The worker marked itself crashed before raising; the
                # supervisor rebuilds it from its journal at the start
                # of the next pump, before anything else is served.
                self.supervisor.note_crash(worker)
        self._check_monitors()
        self._tick_breakers()
        return served

    def drain(self, max_pumps: Optional[int] = None) -> int:
        """Pump until nothing is pending (bounded: a fault window can
        hold tickets hostage for a while, but never forever)."""
        budget = self.max_drain_pumps if max_pumps is None else max_pumps
        served = 0
        pumps = 0
        while self.pending and pumps < budget:
            served += self.pump()
            pumps += 1
        return served

    def cancel(self, ticket: Ticket) -> None:
        """Drop a ticket the client abandoned (deadline exceeded)."""
        if ticket.shard is not None:
            self.workers[ticket.shard].cancel(ticket)

    @property
    def pending(self) -> int:
        """Queued tickets plus unanswered inflight ones — everything
        that still owes the client a response."""
        return sum(
            worker.queue_depth + worker.inflight_unanswered
            for worker in self.workers
        )

    # ----------------------------------------------------- reconfiguration

    def _apply_promotions(self) -> int:
        """Pin planned hot keys, migrating their acked state first.

        For each key whose overlay target differs from its current
        route: extract its journal entries from the donor (so a donor
        restart cannot resurrect it), append them to the target's
        journal, replay them into the target's live structure, and
        erase the net effect from the donor's structure.  Then flip the
        routing generation and sweep queued tickets to their new homes.
        Returns the number of keys promoted.
        """
        assignments = self.router.plan_promotions()
        if not assignments:
            return 0
        candidate = self.router.table.with_overlay(assignments)
        multiset = self.backend == "cuckoo_filter"
        moves: Dict[int, List[bytes]] = {}
        for key, target in assignments.items():
            donor = self.router.table.route_one(key)
            if donor != target:
                moves.setdefault(donor, []).append(key)
        for donor, keys in moves.items():
            donor_worker = self.workers[donor]
            keyset = set(keys)
            moved = donor_worker.journal.split_by(lambda k: k in keyset)
            if not moved:
                continue
            cleanup = _net_deletes(moved, multiset)
            if cleanup and self.backend != "bloom":
                # A Bloom filter cannot delete; its stale donor entries
                # are unreachable after the flip and therefore harmless.
                donor_worker.control("apply", cleanup)
            by_target: Dict[int, List[Entry]] = {}
            for entry in moved:
                by_target.setdefault(
                    assignments[entry[1]], []
                ).append(entry)
            for target, entries in by_target.items():
                target_worker = self.workers[target]
                target_worker.journal.extend(entries)
                target_worker.control("apply", entries)
        self.router.install(candidate)
        self.router.promoted += len(assignments)
        self._sweep_misrouted()
        return len(assignments)

    def split_shard(self, donor: int) -> int:
        """Split ``donor``'s key range live; returns the new shard id.

        The migration is journal-driven: partition the donor's journal
        by the candidate routing (one vectorized pass over its distinct
        keys), seed a brand-new worker with the migrating half — under
        process execution the new shard child replays it at spawn, in
        its own process with its own single-row state block — erase the
        moved keys from the donor's live structure, flip the
        generation, and sweep queued tickets.  No acked write is lost:
        every entry is in exactly one journal at every step.
        """
        candidate = self.router.table.with_split(donor)
        new_shard = candidate.num_shards - 1
        donor_worker = self.workers[donor]
        keys = [entry[1] for entry in donor_worker.journal.entries]
        goes: Dict[bytes, bool] = {}
        if keys:
            distinct = list(dict.fromkeys(keys))
            routes = candidate.route_batch(distinct)
            goes = {
                key: int(route) == new_shard
                for key, route in zip(distinct, routes)
            }
        moved = donor_worker.journal.split_by(lambda k: goes.get(k, False))
        multiset = self.backend == "cuckoo_filter"
        new_journal = ShardJournal(
            checkpoint_every=self._journal_checkpoint, multiset=multiset
        )
        new_journal.extend(moved)
        if self.execution == "process":
            # State blocks are fixed-size at construction, so a shard
            # born mid-flight gets its own dedicated one-row block.
            block = ShardStateBlock(1)
            self._extra_blocks.append(block)
            worker = Worker(
                new_shard,
                max_queue=self._max_queue,
                batch_size=self._batch_size,
                journal_checkpoint=self._journal_checkpoint,
                execution=ProcessBackend(
                    self._spec, block, new_shard,
                    collect_timeout=self._collect_timeout, row=0,
                ),
                journal=new_journal,
            )
            # The child replayed the preset journal on its side of the
            # fork during spawn.
            new_journal.mark_replay()
        else:
            worker = Worker(
                new_shard,
                self._spec.build(),
                max_queue=self._max_queue,
                batch_size=self._batch_size,
                factory=self._spec.build,
                journal_checkpoint=self._journal_checkpoint,
                journal=new_journal,
            )
            if moved:
                new_journal.replay(worker.adapter)
        worker.router = self.router
        self._arm_worker(worker)
        if self.relearner is not None:
            worker.drift_tap = self.relearner.observe
        self.workers.append(worker)
        self.breakers.append(
            CircuitBreaker(
                new_shard,
                cooldown_pumps=self._cooldown_pumps,
                probe_pumps=self._probe_pumps,
            )
        )
        self.supervisor.grow()
        cleanup = _net_deletes(moved, multiset)
        if cleanup and self.backend != "bloom":
            donor_worker.control("apply", cleanup)
        self.router.install(candidate)
        self.num_shards = self.router.num_shards
        self.splits += 1
        self._sweep_misrouted()
        return new_shard

    def _sweep_misrouted(self) -> int:
        """Move queued tickets a generation flip re-routed.

        Runs at flip time, between pumps (no batch outstanding): each
        queue is re-routed in one pure vectorized pass, stay-put
        tickets are re-stamped with the live generation, and movers
        merge into their new shard's queue front by request id — which
        preserves per-key admission order, since ids are globally
        monotonic.  This is the primary mechanism; the dispatch-time
        WRONG_GENERATION guard only catches what a sweep cannot see.
        """
        generation = self.router.generation
        moved_total = 0
        arrivals: Dict[int, List[Ticket]] = {}
        for worker in self.workers:
            if not worker.queue:
                continue
            tickets = list(worker.queue)
            shards = self.router.table.route_batch(
                [t.request.key for t in tickets]
            )
            stay: List[Ticket] = []
            for ticket, shard in zip(tickets, shards):
                shard = int(shard)
                ticket.generation = generation
                if shard == worker.shard_id or ticket.response is not None:
                    stay.append(ticket)
                else:
                    ticket.shard = shard
                    arrivals.setdefault(shard, []).append(ticket)
                    moved_total += 1
            if len(stay) != len(tickets):
                worker.queue.clear()
                worker._queued_ids.clear()
                for ticket in stay:
                    worker.queue.append(ticket)
                    worker._queued_ids.add(ticket.request_id)
        for shard, tickets in arrivals.items():
            self.workers[shard].requeue_front(tickets)
        self.swept_tickets += moved_total
        return moved_total

    # --------------------------------------------------- fault injection

    def _inject_service_faults(self) -> None:
        """Service-level injection points for shards whose structures
        have no per-insert signal path (filters, LSM): a ``corrupt``
        fault there trips the shard directly instead of flowing through
        a CollisionMonitor."""
        plane = self.fault_plane
        if plane is None:
            return
        for worker in self.workers:
            hooked = worker.adapter is not None and worker.adapter.monitorable
            if hooked or worker.tripped:
                continue
            if worker.adapter is None and worker.crashed:
                # A dead shard child can't corrupt anything; don't burn
                # the fault opportunity on it.
                continue
            if plane.should_fire("corrupt", worker.shard_id):
                worker.control("force_trip")

    # -------------------------------------------- breakers / degradation

    def _check_monitors(self) -> None:
        for worker, breaker in zip(self.workers, self.breakers):
            if worker.tripped and breaker.state != OPEN:
                breaker.trip(self.pump_index)
                worker.control("fall_back")

    def _tick_breakers(self) -> None:
        for worker, breaker in zip(self.workers, self.breakers):
            if breaker.tick(self.pump_index) == "probe":
                worker.control("restore_partial_key")

    @property
    def degraded(self) -> bool:
        """True while any shard's breaker is not closed."""
        return any(not breaker.closed for breaker in self.breakers)

    @property
    def degrade_events(self) -> int:
        """Total breaker trips (opens + failed-probe reopens) so far."""
        return sum(b.opens + b.reopens for b in self.breakers)

    def force_trip(self, shard: int) -> None:
        """Trip one shard's monitor (drills/tests); only *that* shard's
        breaker opens — its siblings keep partial-key serving."""
        self.workers[shard].control("force_trip")
        self._check_monitors()

    # ------------------------------------------------------ drift relearn

    def relearn_swap(self, model) -> int:
        """Swap the whole fleet to a re-learned model; zero downtime.

        Called from the supervisor's adapt pass (between pumps, nothing
        in flight).  The routing plane swaps *first*: the router
        re-bases on the new model's partitioning plan and every
        resident key the re-based hash re-routes migrates journal-first
        while the old engines still serve (drift concentrates traffic —
        the dying positions hash every drifted key alike — so a swap
        that only rearmed the shard engines would leave one shard
        serving the whole stream).  Only then is each shard rearmed:
        inline, ``table.relearn`` + ``engine.rearm`` rebuild in place
        at the *post-migration* occupancy — rearming before migration
        would rebuild the drift-concentrated shard at peak occupancy, a
        geometry whose entropy demand no certified plan can meet —
        while under process execution the model ships to the live child
        over the ctl channel and rehashes there (a dead child instead
        re-forks later from the updated spec and replays its journal,
        the journal-assisted path).  After a successful rehash a
        non-closed breaker is reset — its open state guarded a plan
        that no longer exists.  Each shard's rebuild recipe (the inline
        factory, the process backend's spec) is re-pointed before its
        rearm and the service spec after, so restarts and future
        splits build the *new* plan; finally each journal is compacted
        (the rehash rewrote the structures anyway; superseded entries
        must not accumulate across drift cycles).  Returns the number
        of shards that rehashed live.
        """
        new_spec = dataclasses.replace(self._spec, model=model, hasher=None)
        self.plan_moved_keys += self._reroute_fleet(model)
        swapped = 0
        for worker, breaker in zip(self.workers, self.breakers):
            # Re-point the rebuild recipe first, so a core that dies
            # mid-rearm restarts on the new plan too.
            if isinstance(worker.execution, ProcessBackend):
                worker.execution.spec = new_spec
            elif worker.factory is not None:
                worker.factory = new_spec.build
            if worker.control("rearm", model):
                swapped += 1
                if not breaker.closed:
                    breaker.reset()
        self._spec = new_spec
        for worker in self.workers:
            worker.journal.checkpoint()
        self.plan_swaps += 1
        return swapped

    def _reroute_fleet(self, model) -> int:
        """Migrate resident keys under a re-based routing plane.

        The fleet-wide generalization of the split migration, same
        journal-first discipline: per donor shard, route its journal's
        distinct keys under the candidate table in one vectorized pass,
        extract the entries that leave (so a donor restart cannot
        resurrect them), erase their net effect from the donor's live
        structure, then append and replay them at their targets before
        the generation flip.  No acked write is lost: every entry is in
        exactly one journal at every step.  Returns the number of
        journal entries that changed shards.
        """
        candidate = self.router.rebase(model)
        if candidate is None:
            return 0
        multiset = self.backend == "cuckoo_filter"
        arrivals: Dict[int, List[Entry]] = {}
        moved_total = 0
        for worker in self.workers:
            keys = [entry[1] for entry in worker.journal.entries]
            if not keys:
                continue
            distinct = list(dict.fromkeys(keys))
            routes = candidate.route_batch(distinct)
            target_of = {
                key: int(route) for key, route in zip(distinct, routes)
            }
            moved = worker.journal.split_by(
                lambda k: target_of.get(k, worker.shard_id)
                != worker.shard_id
            )
            if not moved:
                continue
            moved_total += len(moved)
            cleanup = _net_deletes(moved, multiset)
            if cleanup and self.backend != "bloom":
                worker.control("apply", cleanup)
            for entry in moved:
                arrivals.setdefault(target_of[entry[1]], []).append(entry)
        for target, entries in arrivals.items():
            target_worker = self.workers[target]
            target_worker.journal.extend(entries)
            target_worker.control("apply", entries)
        self.router.install(candidate)
        self._sweep_misrouted()
        return moved_total

    # ---------------------------------------------------------- lifecycle

    def close(self) -> None:
        """Release execution resources: shard children, queues, and the
        shared-memory state block.  Idempotent; a no-op for inline
        execution.  Pending tickets are *not* drained — close is a
        teardown, not a flush."""
        for worker in self.workers:
            worker.close()
        if self.state_block is not None:
            self.state_block.close()
        for block in self._extra_blocks:
            block.close()

    def __enter__(self) -> "Service":
        return self

    def __exit__(self, exc_type, exc, tb) -> None:
        self.close()

    # -------------------------------------------------------------- stats

    def stats(self) -> Dict[str, object]:
        out = {
            "num_shards": self.num_shards,
            "backend": self.backend,
            "execution": self.execution,
            "degraded": self.degraded,
            "degrade_events": self.degrade_events,
            "pump_index": self.pump_index,
            "submitted": self.submitted,
            "accepted": self.accepted,
            "rejected": self.rejected,
            "lost_slots": self.lost_slots,
            "pending": self.pending,
            "supervisor": self.supervisor.stats(),
            "breakers": [breaker.stats() for breaker in self.breakers],
            "router": self.router.balance(),
            "routing": self.router.stats(),
            "splits": self.splits,
            "swept_tickets": self.swept_tickets,
            "plan_swaps": self.plan_swaps,
            "plan_moved_keys": self.plan_moved_keys,
            "journals": self._journal_summary(),
            "shards": [worker.stats() for worker in self.workers],
        }
        if self.relearner is not None:
            out["drift"] = self.relearner.stats()
        if self.fault_plane is not None:
            out["faults"] = self.fault_plane.stats()
        return out

    def _journal_summary(self) -> Dict[str, object]:
        """Fleet-wide journal health: per-shard length and the shape of
        each journal's most recent compaction, without having to dig
        through the full per-shard stats payloads."""
        per_shard = []
        total_entries = 0
        total_truncations = 0
        for worker in self.workers:
            journal = worker.journal
            total_entries += len(journal)
            total_truncations += journal.truncations
            per_shard.append({
                "shard": worker.shard_id,
                "length": len(journal),
                "appended": journal.appended,
                "truncations": journal.truncations,
                "last_compaction": (
                    dict(journal.last_compaction)
                    if journal.last_compaction else None
                ),
            })
        return {
            "total_entries": total_entries,
            "total_truncations": total_truncations,
            "per_shard": per_shard,
        }


__all__ = ["Service"]
