"""In-process client: blocking calls and batched multi-ops.

The client turns the ticket-based service protocol into plain method
calls, and is the layer where *bounded waiting* lives: every call,
scalar or batch, admits through one batch walk that re-admits the
rejected remainder after a deterministic exponential backoff (a
synchronous caller has nobody to de-synchronise from, so there is no
jitter) under a total pump budget before raising
:class:`ServiceOverloadedError`, and completing a ticket pumps at most
``deadline_pumps`` times before the client marks the ticket failed,
cancels it at its shard, and raises :class:`DeadlineExceededError` — no
call can spin forever, even when a fault plane is stalling workers
underneath.  The client also keeps the ack ledger the acceptance
criteria care about — ``puts_accepted`` vs ``puts_acked`` — so a load
generator can assert zero lost acknowledged writes after a run.
"""

from __future__ import annotations

import random
import socket
import time
from typing import Dict, Iterable, List, Optional, Sequence, Tuple

from repro._util import as_bytes

from repro.service import netproto
from repro.service.protocol import (
    FAILED,
    REJECTED,
    WRONG_GENERATION,
    Request,
    Response,
    Ticket,
)
from repro.service.service import Service

# Per-attempt backoff ceiling: however deep the rejecting queue's
# retry_after hint, a single backoff attempt never spends more than
# this many pumps (in-process) or the equivalent sleep (network)
# before re-checking admission.  The total spend across attempts is
# bounded separately by the submit pump budget / retry cap.
BACKOFF_CAP_PUMPS = 64


class ServiceOverloadedError(RuntimeError):
    """A submit was still rejected after every retry and backoff pump."""


class ServiceDrainingError(RuntimeError):
    """The front door is shutting down; the request was turned away.

    Only the network path raises this: in-flight requests still
    complete during a drain, so a ``draining`` answer means the
    request was never admitted — a negative acknowledgement."""


class NetworkRequestError(RuntimeError):
    """The server answered ``bad_request`` — a client-side frame bug."""


class DeadlineExceededError(RuntimeError):
    """A ticket's response did not arrive within the pump deadline.

    The client cancels the ticket at its shard before raising, so the
    operation is guaranteed *not* to be applied later: a deadline
    failure is a negative acknowledgement, not an open question.
    """


class ServiceClient:
    """Synchronous facade over an in-process :class:`Service`."""

    def __init__(
        self,
        service: Service,
        max_retries: int = 64,
        deadline_pumps: int = 1024,
        submit_pump_budget: int = 4096,
    ):
        self.service = service
        self.max_retries = max_retries
        self.deadline_pumps = deadline_pumps
        self.submit_pump_budget = submit_pump_budget
        self.retries = 0
        self.backoff_pumps = 0
        self.deadline_failures = 0
        self.generation_retries = 0
        self.puts_accepted = 0
        self.puts_responded = 0
        self.puts_acked = 0

    # ----------------------------------------------------------- plumbing

    def _admit(self, requests: Sequence[Request]) -> List[Ticket]:
        """Admit a batch under explicit backpressure: one batch walk.

        Each attempt submits the rejected remainder as one batch, in
        its original order, and keeps the tickets the service accepted.
        Between attempts the client backs off once for the whole
        remainder: ``min(largest retry_after << attempt,
        BACKOFF_CAP_PUMPS, budget left)`` pumps.  A missing hint counts
        as one pump; an explicit ``retry_after=0`` means "retry
        immediately" and spends nothing.

        The bound covers a stalled service, not a long batch: an
        attempt that admits anything starts the remainder on a fresh
        walk (``attempt`` and the pump budget reset, as if each request
        had its own walk).  After ``max_retries + 1`` attempts in a row
        without progress, or once ``submit_pump_budget`` is spent since
        the last progress, the walk raises
        :class:`ServiceOverloadedError`.

        Per-key admission order survives the walk because a shard that
        rejects a request stays closed for the rest of that batch (see
        :meth:`Service.submit_batch`): a later write to a key is never
        accepted ahead of an earlier one that is still waiting.
        """
        tickets: List[Optional[Ticket]] = [None] * len(requests)
        remainder: Sequence[int] = range(len(requests))
        batch = requests
        attempt = 0
        spent = 0
        while True:
            rejected: List[int] = []
            for i, ticket in zip(remainder, self.service.submit_batch(batch)):
                tickets[i] = ticket
                if ticket.rejected:
                    rejected.append(i)
                elif requests[i].op == "put":
                    self.puts_accepted += 1
            if not rejected:
                return tickets
            self.retries += len(rejected)
            if len(rejected) < len(remainder):
                attempt, spent = 0, 0
            remainder = rejected
            budget_left = self.submit_pump_budget - spent
            if attempt == self.max_retries or budget_left <= 0:
                break
            hints = [tickets[i].response.retry_after for i in remainder]
            hint = max(1 if h is None else max(0, int(h)) for h in hints)
            pumps = min(hint << attempt, BACKOFF_CAP_PUMPS, budget_left)
            for _ in range(pumps):
                self.service.pump()
            spent += pumps
            self.backoff_pumps += pumps
            batch = [requests[i] for i in remainder]
            attempt += 1
        shards = sorted({tickets[i].shard for i in remainder})
        raise ServiceOverloadedError(
            f"{len(remainder)} request(s) still rejected after "
            f"{attempt + 1} attempt(s) without progress and {spent} "
            f"backoff pump(s) (shards {shards})"
        )

    def _complete(self, ticket: Ticket) -> Response:
        pumps = 0
        resubmits = 0
        while True:
            while ticket.response is None:
                if pumps >= self.deadline_pumps:
                    # Mark the ticket failed *before* cancelling so the
                    # supervisor's reconciliation can never resurrect it.
                    ticket.response = Response(
                        FAILED, shard=ticket.shard, error="deadline exceeded"
                    )
                    self.service.cancel(ticket)
                    self.deadline_failures += 1
                    if ticket.request.op == "put":
                        self.puts_responded += 1  # negative ack, not lost
                    raise DeadlineExceededError(
                        f"request {ticket.request_id} ({ticket.request.op}) "
                        f"unanswered after {pumps} pumps "
                        f"(shard {ticket.shard})"
                    )
                self.service.pump()
                pumps += 1
            if (ticket.response.status == WRONG_GENERATION
                    and resubmits < self.max_retries):
                # A routing flip moved the key between admission and
                # dispatch; the answer is "ask again", not a failure.
                # The resubmit routes through the *current* table, so
                # this converges unless flips outpace the retry cap.
                # Ledger-wise the old ticket was answered (negatively)
                # and the resubmit is a fresh accepted put.
                if ticket.request.op == "put":
                    self.puts_responded += 1
                self.generation_retries += 1
                resubmits += 1
                ticket = self._admit([ticket.request])[0]
                continue
            break
        if ticket.request.op == "put":
            self.puts_responded += 1
            if ticket.response.ok:
                self.puts_acked += 1
        return ticket.response

    def _call(self, request: Request) -> Response:
        return self._complete(self._admit([request])[0])

    def _call_many(self, requests: Sequence[Request]) -> List[Response]:
        tickets = self._admit(requests)
        self.service.drain()
        return [self._complete(ticket) for ticket in tickets]

    # ------------------------------------------------------------ scalar

    def get(self, key) -> Optional[bytes]:
        return self._call(Request("get", as_bytes(key))).value

    def put(self, key, value) -> Response:
        return self._call(Request("put", as_bytes(key), as_bytes(value)))

    def delete(self, key) -> Response:
        return self._call(Request("delete", as_bytes(key)))

    def contains(self, key) -> bool:
        return bool(self._call(Request("contains", as_bytes(key))).found)

    def stats(self) -> Dict[str, object]:
        return self._call(Request("stats")).stats

    def similar(self, key, k: int = 10) -> List[Tuple[bytes, float]]:
        """Top-k neighbors of a stored item on the similarity backend.

        Returns ``(neighbor key, estimated Jaccard)`` pairs, best
        first; empty when the key is unknown to its shard.
        """
        response = self._call(
            Request("similar", as_bytes(key), str(int(k)).encode("ascii"))
        )
        return list(response.neighbors or ())

    # ------------------------------------------------------------- batch

    def put_many(self, pairs: Iterable[Tuple[object, object]]) -> List[Response]:
        """Submit many puts before pumping: fills the shard queues so the
        workers see real micro-batches instead of singletons.  Puts to
        the same key land in submission order (see :meth:`_admit`)."""
        return self._call_many(
            [Request("put", as_bytes(k), as_bytes(v)) for k, v in pairs]
        )

    def multi_get(self, keys: Sequence[object]) -> List[Optional[bytes]]:
        responses = self._call_many(
            [Request("get", as_bytes(k)) for k in keys]
        )
        return [r.value for r in responses]

    def contains_many(self, keys: Sequence[object]) -> List[bool]:
        responses = self._call_many(
            [Request("contains", as_bytes(k)) for k in keys]
        )
        return [bool(r.found) for r in responses]

    def similar_many(
        self, keys: Sequence[object], k: int = 10
    ) -> List[List[Tuple[bytes, float]]]:
        payload = str(int(k)).encode("ascii")
        responses = self._call_many(
            [Request("similar", as_bytes(key), payload) for key in keys]
        )
        return [list(r.neighbors or ()) for r in responses]

    @property
    def lost_acks(self) -> int:
        """Accepted puts whose response never arrived (must stay 0).

        An explicit FAILED response (e.g. a full cuckoo shard) is a
        *negative* ack, not a lost one; ``puts_acked`` counts the OKs.
        """
        return self.puts_accepted - self.puts_responded


class NetworkClient:
    """Blocking socket client for the front door — same surface as
    :class:`ServiceClient`, but over TCP.

    The wire protocol resolves responses out of submission order (a
    ticket answers when its *shard* serves it), so the client keys
    every frame by a client-assigned id and :meth:`_collect` stashes
    whatever else arrives while waiting.  Backpressure statuses back
    off exponentially like the in-process client — an explicit-zero
    hint means "retry immediately" — except the wait is a jittered
    wall-clock sleep instead of cooperative pumps: the server pumps for
    itself, and concurrent connections need de-synchronising.

    The ack ledger mirrors :class:`ServiceClient`: ``puts_sent`` counts
    logical puts once at first wire send, ``puts_responded`` counts
    terminal answers *including negative ones* (FAILED, draining,
    overload give-up), and ``puts_acked`` counts OKs — so
    :attr:`lost_acks` is still "puts the server owes an answer for".
    """

    def __init__(
        self,
        host: str,
        port: int,
        max_retries: int = 64,
        timeout_s: float = 30.0,
        pump_interval_s: float = 0.0002,
        backoff_cap_s: float = 0.05,
        pipeline_window: int = 512,
        jitter_seed: int = 0xBEEF,
        max_frame: int = netproto.MAX_FRAME_BYTES,
    ):
        self.max_retries = max_retries
        self.pump_interval_s = pump_interval_s
        self.backoff_cap_s = backoff_cap_s
        self.pipeline_window = pipeline_window
        self._rng = random.Random(jitter_seed)
        self._sock = socket.create_connection((host, port), timeout=timeout_s)
        self._sock.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
        self._decoder = netproto.FrameDecoder(max_frame)
        self._responses: Dict[int, Response] = {}
        self._next_id = 0
        self.retries = 0
        self.backoff_s = 0.0
        self.generation_retries = 0
        self.puts_sent = 0
        self.puts_responded = 0
        self.puts_acked = 0

    # ----------------------------------------------------------- plumbing

    def _send(self, request: Request) -> int:
        frame_id = self._next_id
        self._next_id += 1
        self._sock.sendall(netproto.encode_request(frame_id, request))
        return frame_id

    def _collect(self, frame_id: int) -> Response:
        while frame_id not in self._responses:
            data = self._sock.recv(1 << 16)
            if not data:
                raise ConnectionError(
                    "server closed the connection mid-request"
                )
            for payload in self._decoder.feed(data):
                self._responses[netproto.frame_id_of(payload)] = (
                    netproto.decode_response(payload)
                )
        return self._responses.pop(frame_id)

    def _backoff(self, attempt: int, hint: Optional[int]) -> None:
        # Same falsy-hint policy as ServiceClient._admit: a missing
        # hint defaults to one pump-interval, an explicit 0 sleeps not
        # at all, and the per-attempt ceiling is capped regardless of
        # how deep the rejecting queue claims to be.
        hint = 1 if hint is None else max(0, int(hint))
        ceiling = min(
            hint * self.pump_interval_s * (1 << min(attempt, 6)),
            self.backoff_cap_s,
        )
        if ceiling <= 0:
            return
        delay = self._rng.uniform(0, ceiling)
        self.backoff_s += delay
        time.sleep(delay)

    def _negative_ack(self, request: Request) -> None:
        if request.op == "put":
            self.puts_responded += 1

    def _settle(self, request: Request, response: Response) -> Response:
        """Walk one request to a terminal answer, retrying the two
        try-again statuses (``rejected`` with backoff, and
        ``wrong_generation`` as defense in depth — a well-behaved front
        door resubmits those server-side)."""
        attempt = 0
        flips = 0
        while True:
            status = response.status
            if status == REJECTED:
                if attempt >= self.max_retries:
                    self._negative_ack(request)
                    raise ServiceOverloadedError(
                        f"submit rejected {attempt + 1} times over the "
                        f"wire ({self.backoff_s:.3f}s backed off)"
                    )
                self.retries += 1
                self._backoff(attempt, response.retry_after)
                attempt += 1
            elif status == WRONG_GENERATION and flips < self.max_retries:
                self.generation_retries += 1
                flips += 1
            elif status == netproto.DRAINING:
                self._negative_ack(request)
                raise ServiceDrainingError(
                    response.error or "front door is draining"
                )
            elif status == netproto.BAD_REQUEST:
                self._negative_ack(request)
                raise NetworkRequestError(
                    response.error or "server rejected the frame"
                )
            else:
                # OK, FAILED, or a wrong-generation walk that ran out
                # of retries: terminal either way.
                if request.op == "put":
                    self.puts_responded += 1
                    if response.ok:
                        self.puts_acked += 1
                return response
            response = self._collect(self._send(request))

    def _terminal(self, request: Request) -> Response:
        if request.op == "put":
            self.puts_sent += 1
        return self._settle(request, self._collect(self._send(request)))

    def _terminal_many(self, requests: Sequence[Request]) -> List[Response]:
        """Pipelined round-trips: a whole window of frames goes out
        before the first response is read, so one connection still
        hands the front door real micro-batches to coalesce."""
        out: List[Response] = []
        for start in range(0, len(requests), self.pipeline_window):
            chunk = requests[start:start + self.pipeline_window]
            for request in chunk:
                if request.op == "put":
                    self.puts_sent += 1
            frame_ids = [self._send(request) for request in chunk]
            out.extend(
                self._settle(request, self._collect(frame_id))
                for request, frame_id in zip(chunk, frame_ids)
            )
        return out

    # ------------------------------------------------------------ scalar

    def get(self, key) -> Optional[bytes]:
        return self._terminal(Request("get", as_bytes(key))).value

    def put(self, key, value) -> Response:
        return self._terminal(
            Request("put", as_bytes(key), as_bytes(value))
        )

    def delete(self, key) -> Response:
        return self._terminal(Request("delete", as_bytes(key)))

    def contains(self, key) -> bool:
        return bool(self._terminal(Request("contains", as_bytes(key))).found)

    def stats(self) -> Dict[str, object]:
        """Scrape the /metrics verb: service stats + ``frontdoor``."""
        return self._terminal(Request("stats")).stats

    def similar(self, key, k: int = 10) -> List[Tuple[bytes, float]]:
        """Top-k neighbors over the wire (similarity backend only)."""
        response = self._terminal(
            Request("similar", as_bytes(key), str(int(k)).encode("ascii"))
        )
        return list(response.neighbors or ())

    # ------------------------------------------------------------- batch

    def put_many(self, pairs: Iterable[Tuple[object, object]]) -> List[Response]:
        items = [(as_bytes(k), as_bytes(v)) for k, v in pairs]
        keys = [k for k, _ in items]
        requests = [Request("put", k, v) for k, v in items]
        if len(set(keys)) == len(keys):
            return self._terminal_many(requests)
        # Same rule as the in-process client: duplicate keys must land
        # in submission order, and a rejected-then-retried first write
        # pipelined next to an accepted second write would not.
        return [self._terminal(request) for request in requests]

    def multi_get(self, keys: Sequence[object]) -> List[Optional[bytes]]:
        responses = self._terminal_many(
            [Request("get", as_bytes(k)) for k in keys]
        )
        return [r.value for r in responses]

    def contains_many(self, keys: Sequence[object]) -> List[bool]:
        responses = self._terminal_many(
            [Request("contains", as_bytes(k)) for k in keys]
        )
        return [bool(r.found) for r in responses]

    def similar_many(
        self, keys: Sequence[object], k: int = 10
    ) -> List[List[Tuple[bytes, float]]]:
        """Pipelined top-k queries: a whole window of ``similar``
        frames goes out before the first response is read."""
        payload = str(int(k)).encode("ascii")
        responses = self._terminal_many(
            [Request("similar", as_bytes(key), payload) for key in keys]
        )
        return [list(r.neighbors or ()) for r in responses]

    @property
    def lost_acks(self) -> int:
        """Puts sent whose terminal answer never arrived (must stay 0).

        Negative answers — FAILED, a drain turn-away, an overload
        give-up — count as responded: the server said *no*, it did not
        lose the write."""
        return self.puts_sent - self.puts_responded

    def close(self) -> None:
        try:
            self._sock.close()
        except OSError:
            pass

    def __enter__(self) -> "NetworkClient":
        return self

    def __exit__(self, exc_type, exc, tb) -> None:
        self.close()


def run_service_workload(client: ServiceClient, operations) -> Dict[str, int]:
    """Drive a service with a YCSB stream (see ``repro.workloads.ycsb``).

    Consecutive same-kind operations are dispatched through the client's
    batch entry points, mirroring how the workers themselves amortize
    hashing.  ``scan`` is not part of the service protocol (mix E).
    """
    counts: Dict[str, int] = {}
    kind_buffer: List = []
    buffered_kind = None

    def flush() -> None:
        nonlocal buffered_kind
        if not kind_buffer:
            return
        if buffered_kind == "read":
            client.multi_get([op.key for op in kind_buffer])
        else:
            client.put_many([(op.key, op.value) for op in kind_buffer])
        kind_buffer.clear()
        buffered_kind = None

    for op in operations:
        counts[op.kind] = counts.get(op.kind, 0) + 1
        if op.kind == "scan":
            raise ValueError(
                "the service protocol has no scan; use a mix without it"
            )
        if op.kind == "rmw":
            flush()
            current = client.get(op.key)
            client.put(op.key, (current or b"")[:8] + op.value)
            continue
        kind = "read" if op.kind == "read" else "write"
        if buffered_kind not in (None, kind):
            flush()
        buffered_kind = kind
        kind_buffer.append(op)
    flush()
    return counts


__all__ = [
    "BACKOFF_CAP_PUMPS",
    "DeadlineExceededError",
    "NetworkClient",
    "NetworkRequestError",
    "ServiceClient",
    "ServiceDrainingError",
    "ServiceOverloadedError",
    "run_service_workload",
]
