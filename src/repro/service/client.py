"""Blocking client calls and batched multi-ops, over two transports.

:class:`ServiceClient` turns the ticket-based service protocol into
plain method calls, and is the layer where *bounded waiting* lives:
every call, scalar or batch, admits through one batch walk that
re-admits the rejected remainder after a deterministic exponential
backoff under a total pump budget before raising
:class:`ServiceOverloadedError`, and completing a ticket pumps at most
``deadline_pumps`` times before the client marks the ticket failed,
cancels it at its shard, and raises :class:`DeadlineExceededError` — no
call can spin forever, even when a fault plane is stalling workers
underneath.  The client also keeps the ack ledger the acceptance
criteria care about — ``puts_accepted`` vs ``puts_responded`` — so a
load generator can assert zero lost acknowledged writes after a run.

The client makes four calls on the service under it: ``submit_batch``,
``pump``, ``drain`` and ``cancel``.  An in-process :class:`Service`
provides them, and so does :class:`RemoteService` over a front door's
socket, so one client, one walk and one ledger serve both transports.
"""

from __future__ import annotations

import random
import socket
import time
from typing import Dict, Iterable, Iterator, List, Optional, Sequence, Tuple

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
# this many pumps before re-checking admission.  The total spend
# across attempts is bounded separately by the submit pump budget /
# retry cap.
BACKOFF_CAP_PUMPS = 64

# RemoteService: the wall-clock stand-in for one service pump (the
# mean of its jittered backoff sleep), and the most frames sent before
# the first answer is read.
PUMP_INTERVAL_S = 0.0002
PIPELINE_WINDOW = 512

_WRITES = frozenset(("put", "delete"))


class ServiceOverloadedError(RuntimeError):
    """A submit was still rejected after every retry and backoff pump."""


class ServiceDrainingError(RuntimeError):
    """The front door is shutting down; the request was turned away.

    Only the socket transport answers ``draining``: in-flight requests
    still complete during a drain, so a ``draining`` answer means the
    request was never admitted — a negative acknowledgement."""


class NetworkRequestError(RuntimeError):
    """The server answered ``bad_request`` — a client-side frame bug."""


class DeadlineExceededError(RuntimeError):
    """A ticket's response did not arrive within the pump deadline.

    The client cancels the ticket at its shard before raising, so the
    operation is guaranteed *not* to be applied later: a deadline
    failure is a negative acknowledgement, not an open question.
    """


# Statuses that do not end a ticket's walk as they stand: a routing
# flip (None: resubmit), or a wire-only refusal, raised as its error.
_NOT_FINAL = {
    WRONG_GENERATION: None,
    netproto.DRAINING: ServiceDrainingError,
    netproto.BAD_REQUEST: NetworkRequestError,
}


class ServiceClient:
    """Synchronous facade over a :class:`Service`, in-process or a
    :class:`RemoteService` over a socket."""

    def __init__(
        self,
        service: Service | RemoteService,
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
        :meth:`Service.submit_batch`; :class:`RemoteService` keeps the
        same promise over the wire): a later write to a key is never
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
        # A connection-level rejection names no shard.
        shards = sorted({tickets[i].shard for i in remainder} - {None})
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
            status = ticket.response.status
            if status in _NOT_FINAL:
                refusal = _NOT_FINAL[status]
                if refusal is not None:
                    # The door turned the request away unadmitted.
                    if ticket.request.op == "put":
                        self.puts_responded += 1  # negative ack
                    raise refusal(ticket.response.error or status)
                if resubmits < self.max_retries:
                    # A routing flip moved the key between admission
                    # and dispatch; the answer is "ask again", not a
                    # failure.  The resubmit routes through the
                    # *current* table, so this converges unless flips
                    # outpace the retry cap.  Ledger-wise the old
                    # ticket was answered (negatively) and the
                    # resubmit is a fresh accepted put.
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

        An explicit FAILED response (e.g. a full cuckoo shard) or a
        door's refusal is a *negative* ack, not a lost one;
        ``puts_acked`` counts the OKs.  Over a socket, a put whose frame
        was sent when the connection dropped counts here.
        """
        return self.puts_accepted - self.puts_responded


class RemoteService:
    """The four :class:`Service` calls :class:`ServiceClient` makes,
    served by a front door over one TCP connection.

    :meth:`submit_batch` sends the batch in pipeline windows (so one
    connection still feeds the door's coalescer micro-batches) and
    reads every answer, matched by frame id in whatever order the
    shards serve them, before it returns: every ticket comes back
    resolved, and the client's walk re-admits the rejected remainder
    exactly as in-process.  The wire cannot keep the closed-shard rule
    across frames, so a window ends before a key it already writes,
    and once a window sees a rejection the rest of the batch is
    answered ``rejected`` here, unsent: a write is never sent while an
    earlier write to its key is unanswered or was rejected.

    The door pumps for itself, so :meth:`pump` is a backoff sleep of
    about one pump interval, jittered by the seeded rng so connections
    de-synchronise.  If the connection drops, frames sent but
    unanswered keep ``response=None`` (their puts count as the client's
    lost acks) and the next call raises :class:`ConnectionError`.
    """

    def __init__(self, host: str, port: int, jitter_seed: int = 0xBEEF,
                 timeout_s: float = 30.0):
        self._rng = random.Random(jitter_seed)
        self._sock: Optional[socket.socket] = socket.create_connection(
            (host, port), timeout=timeout_s
        )
        self._sock.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
        self._decoder = netproto.FrameDecoder()
        self._next_id = 0
        self._closed_reason = "the connection is closed"

    def _live(self) -> socket.socket:
        if self._sock is None:
            raise ConnectionError(self._closed_reason)
        return self._sock

    def submit_batch(self, requests: Sequence[Request]) -> List[Ticket]:
        sock = self._live()
        first = self._next_id
        self._next_id += len(requests)
        tickets = [Ticket(r, first + i) for i, r in enumerate(requests)]
        sent = 0
        for start, sent in _windows(requests):
            window = tickets[start:sent]
            try:
                sock.sendall(b"".join(
                    netproto.encode_request(t.request_id, t.request)
                    for t in window
                ))
                if self._collect({t.request_id: t for t in window}):
                    break
            except OSError as exc:
                self._closed_reason = f"connection lost: {exc}"
                self.close()
                break
        for ticket in tickets[sent:]:
            ticket.response = Response(
                REJECTED, error="held back behind an earlier rejection"
            )
        return tickets

    def _collect(self, waiting: Dict[int, Ticket]) -> bool:
        """Read answers until every ticket in ``waiting`` has one, in
        whatever order they arrive; True if any was ``rejected``."""
        rejected = False
        while waiting:
            data = self._sock.recv(1 << 16)
            if not data:
                raise ConnectionError(
                    "server closed the connection mid-request"
                )
            for payload in self._decoder.feed(data):
                ticket = waiting.pop(netproto.frame_id_of(payload), None)
                if ticket is not None:
                    response = netproto.decode_response(payload)
                    ticket.response, ticket.shard = response, response.shard
                    rejected = rejected or response.status == REJECTED
        return rejected

    def pump(self) -> None:
        self._live()
        time.sleep(self._rng.uniform(0.0, 2.0 * PUMP_INTERVAL_S))

    def drain(self) -> None:
        """Nothing to do: every ticket came back resolved."""

    def cancel(self, ticket: Ticket) -> None:
        """Nothing to do: every ticket came back resolved."""

    def close(self) -> None:
        sock, self._sock = self._sock, None
        if sock is not None:
            sock.close()

    def __enter__(self) -> "RemoteService":
        return self

    def __exit__(self, exc_type, exc, tb) -> None:
        self.close()


def _windows(requests: Sequence[Request]) -> Iterator[Tuple[int, int]]:
    """``(start, end)`` pipeline windows over a batch: at most
    :data:`PIPELINE_WINDOW` frames, each ending before a key it already
    writes."""
    start = 0
    written = set()
    for i, request in enumerate(requests):
        write = request.op in _WRITES
        if i - start == PIPELINE_WINDOW or (write and request.key in written):
            yield start, i
            start = i
            written.clear()
        if write:
            written.add(request.key)
    if start < len(requests):
        yield start, len(requests)


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
    "NetworkRequestError",
    "PIPELINE_WINDOW",
    "PUMP_INTERVAL_S",
    "RemoteService",
    "ServiceClient",
    "ServiceDrainingError",
    "ServiceOverloadedError",
    "run_service_workload",
]
