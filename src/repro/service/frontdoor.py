"""Asyncio network front door: real sockets in front of the shards.

Until PR 8 "millions of users" was simulated by a loop calling
``Service.submit_batch`` in the same interpreter.  The front door puts
an actual serving boundary in front of the service: clients connect
over TCP, speak the length-prefixed JSON protocol
(:mod:`repro.service.netproto`), and their requests are *coalesced
across connections* into the same vectorized admission path the
in-process client uses — one ``submit_batch`` per admission round, so
a hundred trickling connections still hash in compiled batches.

Design rules, in order of importance:

* **The service is single-threaded property of the event loop.**
  Every touch of :class:`~repro.service.service.Service` happens on
  the loop thread — connection readers, the admission loop, and
  anything an outside thread schedules via
  :meth:`FrontDoorThread.run_in_loop` (the CLI's ``--force-split``
  drill uses this).  No locks, no torn state.
* **Backpressure is propagated, never absorbed.**  A shard-queue
  rejection travels to the client verbatim as a ``rejected`` status
  carrying ``retry_after`` — the front door keeps no secret overflow
  queue that would turn explicit backpressure back into silent
  buffering.  A per-connection in-flight cap (``max_pending``) rejects
  the same way before admission when one connection tries to own the
  whole pipeline.
* **Routing flips are invisible to the network.**  A ticket answered
  ``WRONG_GENERATION`` (a split/promotion moved its key between
  admission and dispatch) is resubmitted server-side through the live
  routing table; the client just sees its answer arrive one round
  later.
* **Shutdown drains.**  ``stop()`` stops accepting connections,
  answers every in-flight ticket, turns frames that race the shutdown
  away with a ``draining`` status, and only then closes sockets — an
  acknowledged write can never be dropped by a restart of the front
  door itself.

The ``stats`` op doubles as the ``/metrics`` verb: the front door
answers it synchronously with the service's stats dict plus its own
``frontdoor`` counters (connections, coalesced batch sizes, propagated
rejections, server-side resubmits), so one request scrapes the whole
serving stack.
"""

from __future__ import annotations

import asyncio
import concurrent.futures
import threading
from typing import Dict, List, Optional, Set

from repro.service import netproto
from repro.service.protocol import (
    OK,
    REJECTED,
    WRONG_GENERATION,
    Request,
    Response,
)
from repro.service.service import Service

_READ_CHUNK = 1 << 16


class _Rpc:
    """One in-flight request frame: where the answer must go."""

    __slots__ = ("connection", "frame_id", "request")

    def __init__(self, connection: "_Connection", frame_id: int,
                 request: Request):
        self.connection = connection
        self.frame_id = frame_id
        self.request = request


class _Connection:
    """Server-side connection state: reader + serialized writer."""

    def __init__(self, door: "FrontDoor",
                 reader: asyncio.StreamReader,
                 writer: asyncio.StreamWriter):
        self.door = door
        self.reader = reader
        self.writer = writer
        self.outgoing: "asyncio.Queue[Optional[bytes]]" = asyncio.Queue()
        self.pending = 0          # frames admitted but not yet answered
        self.frames_in = 0
        self.closed = False

    def send(self, frame: bytes) -> None:
        if not self.closed:
            self.outgoing.put_nowait(frame)

    async def writer_loop(self) -> None:
        try:
            while True:
                frame = await self.outgoing.get()
                if frame is None:
                    break
                self.writer.write(frame)
                if self.outgoing.empty():
                    await self.writer.drain()
        except (ConnectionError, asyncio.CancelledError):
            pass
        finally:
            self.closed = True
            self.writer.close()


class FrontDoor:
    """A TCP front door over one :class:`Service` (owns its pumping).

    Construct, then ``await start()`` from a running event loop — or
    use :class:`FrontDoorThread` to run the whole thing on a dedicated
    thread from synchronous code.
    """

    def __init__(
        self,
        service: Service,
        host: str = "127.0.0.1",
        port: int = 0,
        max_pending: int = 1024,
        max_resubmits: int = 16,
        max_frame: int = netproto.MAX_FRAME_BYTES,
    ):
        self.service = service
        self.host = host
        self._requested_port = port
        self.max_pending = max_pending
        self.max_resubmits = max_resubmits
        self.max_frame = max_frame
        self._server: Optional[asyncio.base_events.Server] = None
        self._admission_task: Optional[asyncio.Task] = None
        self._connections: Set[_Connection] = set()
        self._intake: List[_Rpc] = []
        self._wake: Optional[asyncio.Event] = None
        self._draining = False
        self._stopped = asyncio.Event()
        # Observability counters (reported under stats()["frontdoor"]).
        self.connections_total = 0
        self.frames_in = 0
        self.responses_out = 0
        self.bad_frames = 0
        self.drained_frames = 0
        self.admission_batches = 0
        self.admitted = 0
        self.max_coalesced = 0
        self.pumps = 0
        self.rejections_propagated = 0
        self.resubmits = 0
        self.admission_error: Optional[str] = None

    # ----------------------------------------------------------- lifecycle

    async def start(self) -> None:
        self._wake = asyncio.Event()
        self._server = await asyncio.start_server(
            self._handle_connection, self.host, self._requested_port
        )
        self._admission_task = asyncio.ensure_future(self._admission_loop())

    @property
    def port(self) -> int:
        """The bound port (resolves ``port=0`` to the ephemeral pick)."""
        if self._server is None or not self._server.sockets:
            return self._requested_port
        return self._server.sockets[0].getsockname()[1]

    async def stop(self) -> None:
        """Graceful drain: answer everything in flight, then close."""
        if self._draining:
            await self._stopped.wait()
            return
        self._draining = True
        if self._server is not None:
            self._server.close()
        self._wake.set()
        if self._admission_task is not None:
            try:
                await self._admission_task
            except Exception as exc:  # keep teardown going; surface it
                self.admission_error = repr(exc)
        for connection in list(self._connections):
            connection.send(None)  # type: ignore[arg-type]
        # Closing each writer EOFs its reader, which retires the
        # handler; wait (bounded) so the loop shuts down quiet.  A
        # client that holds its socket open past the bound is simply
        # abandoned — every response it was owed has been written.
        for _ in range(200):
            if not self._connections:
                break
            await asyncio.sleep(0.005)
        self._stopped.set()

    async def wait_stopped(self) -> None:
        await self._stopped.wait()

    # ---------------------------------------------------------- connection

    async def _handle_connection(self, reader: asyncio.StreamReader,
                                 writer: asyncio.StreamWriter) -> None:
        connection = _Connection(self, reader, writer)
        self._connections.add(connection)
        self.connections_total += 1
        writer_task = asyncio.ensure_future(connection.writer_loop())
        decoder = netproto.FrameDecoder(self.max_frame)
        try:
            while True:
                data = await reader.read(_READ_CHUNK)
                if not data:
                    break
                for payload in decoder.feed(data):
                    self._on_frame(connection, payload)
        except netproto.ProtocolError:
            # The stream itself is corrupt (oversized length prefix,
            # non-JSON body): there is no frame id to answer, so the
            # only safe move is to drop the connection.
            self.bad_frames += 1
        except (ConnectionError, asyncio.CancelledError):
            pass
        finally:
            connection.send(None)  # type: ignore[arg-type]
            await writer_task
            self._connections.discard(connection)

    def _on_frame(self, connection: _Connection,
                  payload: Dict[str, object]) -> None:
        connection.frames_in += 1
        self.frames_in += 1
        try:
            frame_id = netproto.frame_id_of(payload)
        except netproto.ProtocolError:
            self.bad_frames += 1
            return  # unanswerable: no id to echo
        try:
            request = netproto.decode_request(payload)
        except netproto.ProtocolError as exc:
            self.bad_frames += 1
            connection.send(
                netproto.encode_status(
                    frame_id, netproto.BAD_REQUEST, error=str(exc)
                )
            )
            return
        if self._draining:
            self.drained_frames += 1
            connection.send(
                netproto.encode_status(
                    frame_id, netproto.DRAINING,
                    error="front door is draining for shutdown",
                )
            )
            return
        if request.op == "stats":
            # The /metrics verb: answered synchronously on the loop
            # thread (no admission round-trip), service + front door.
            self.responses_out += 1
            connection.send(
                netproto.encode_response(
                    frame_id, Response(OK, stats=self._metrics())
                )
            )
            return
        if connection.pending >= self.max_pending:
            # Per-connection backpressure: this connection already owns
            # max_pending unanswered frames; pushing more would let one
            # client buffer without bound inside the server.
            self.rejections_propagated += 1
            connection.send(
                netproto.encode_status(
                    frame_id, REJECTED,
                    error="connection pipeline full",
                    retry_after=1,
                )
            )
            return
        connection.pending += 1
        self._intake.append(_Rpc(connection, frame_id, request))
        self._wake.set()

    # ----------------------------------------------------------- admission

    def _respond(self, rpc: _Rpc, response: Response) -> None:
        rpc.connection.pending -= 1
        self.responses_out += 1
        rpc.connection.send(netproto.encode_response(rpc.frame_id, response))

    async def _admission_loop(self) -> None:
        """Coalesce frames across connections into submit_batch rounds.

        One iteration: drain the intake into a single vectorized
        admission pass, answer the synchronously-resolved tickets
        (rejections), pump once for the in-flight rest, absorb
        completions (resubmitting ``WRONG_GENERATION`` stragglers
        through the live routing table), then yield so connection
        readers can refill the intake — frames arriving during a pump
        join the *next* admission batch, which is exactly the
        micro-batching window.
        """
        service = self.service
        inflight: List[List] = []  # [ticket, rpc, resubmit_count]
        while True:
            if not self._intake and not inflight:
                if self._draining:
                    return
                self._wake.clear()
                # Re-check after clearing: a reader may have appended
                # between the test above and the clear.
                if not self._intake and not self._draining:
                    await self._wake.wait()
                continue
            if self._intake:
                batch, self._intake = self._intake, []
                self.admission_batches += 1
                self.admitted += len(batch)
                self.max_coalesced = max(self.max_coalesced, len(batch))
                tickets = service.submit_batch(
                    [rpc.request for rpc in batch]
                )
                for rpc, ticket in zip(batch, tickets):
                    if ticket.response is not None:
                        if ticket.rejected:
                            self.rejections_propagated += 1
                        self._respond(rpc, ticket.response)
                    else:
                        inflight.append([ticket, rpc, 0])
            if inflight:
                service.pump()
                self.pumps += 1
                still: List[List] = []
                for entry in inflight:
                    ticket, rpc, resubmits = entry
                    response = ticket.response
                    if response is None:
                        still.append(entry)
                    elif (response.status == WRONG_GENERATION
                            and resubmits < self.max_resubmits):
                        # A flip moved the key between admission and
                        # dispatch.  Resubmit through the now-live
                        # table; the network never sees the status.
                        self.resubmits += 1
                        ticket = service.submit(rpc.request)
                        if ticket.response is None:
                            still.append([ticket, rpc, resubmits + 1])
                        else:
                            if ticket.rejected:
                                self.rejections_propagated += 1
                            self._respond(rpc, ticket.response)
                    else:
                        self._respond(rpc, response)
                inflight = still
            # The coalescing window: let readers run before the next
            # admission round.
            await asyncio.sleep(0)

    # --------------------------------------------------------------- stats

    def stats(self) -> Dict[str, object]:
        return {
            "host": self.host,
            "port": self.port,
            "draining": self._draining,
            "connections_open": len(self._connections),
            "connections_total": self.connections_total,
            "frames_in": self.frames_in,
            "responses_out": self.responses_out,
            "bad_frames": self.bad_frames,
            "drained_frames": self.drained_frames,
            "admission_batches": self.admission_batches,
            "admitted": self.admitted,
            "max_coalesced": self.max_coalesced,
            "mean_coalesced": (
                self.admitted / self.admission_batches
                if self.admission_batches else 0.0
            ),
            "pumps": self.pumps,
            "rejections_propagated": self.rejections_propagated,
            "resubmits": self.resubmits,
            "admission_error": self.admission_error,
        }

    def _metrics(self) -> Dict[str, object]:
        metrics = self.service.stats()
        metrics["frontdoor"] = self.stats()
        return metrics


class FrontDoorThread:
    """Run a :class:`FrontDoor` (and its event loop) on its own thread.

    Synchronous code — the CLI, benchmarks, tests, the fuzz target —
    starts the thread, connects clients against ``.port`` (one
    ``ServiceClient(RemoteService(host, port))`` per connection), and
    schedules any direct service mutation (a forced split, a tripped
    monitor) through :meth:`run_in_loop` so the single-threaded-service
    rule holds.  ``stop()`` drains and joins.
    """

    def __init__(self, service: Service, host: str = "127.0.0.1",
                 port: int = 0, **door_kwargs):
        self.door = FrontDoor(service, host, port, **door_kwargs)
        self._loop: Optional[asyncio.AbstractEventLoop] = None
        self._thread = threading.Thread(
            target=self._run, name="frontdoor", daemon=True
        )
        self._started = threading.Event()
        self._start_error: Optional[BaseException] = None

    def start(self) -> "FrontDoorThread":
        self._thread.start()
        self._started.wait()
        if self._start_error is not None:
            self._thread.join()
            raise self._start_error
        return self

    def _run(self) -> None:
        loop = asyncio.new_event_loop()
        asyncio.set_event_loop(loop)
        self._loop = loop
        try:
            loop.run_until_complete(self._main())
        finally:
            loop.close()

    async def _main(self) -> None:
        try:
            await self.door.start()
        except BaseException as exc:  # surface bind errors to start()
            self._start_error = exc
            self._started.set()
            return
        self._started.set()
        await self.door.wait_stopped()

    @property
    def port(self) -> int:
        return self.door.port

    def run_in_loop(self, fn, *args, timeout: float = 30.0, **kwargs):
        """Run ``fn(*args, **kwargs)`` on the loop thread; return its
        result.  Callbacks interleave only at the admission loop's
        await points, i.e. *between* pumps — the same "no batch
        outstanding" barrier the supervisor's own reconfiguration
        relies on, which is what makes a mid-run ``split_shard`` safe
        here."""
        if self._loop is None:
            raise RuntimeError("front door thread is not running")
        future: "concurrent.futures.Future" = concurrent.futures.Future()

        def call() -> None:
            try:
                future.set_result(fn(*args, **kwargs))
            except BaseException as exc:
                future.set_exception(exc)

        self._loop.call_soon_threadsafe(call)
        return future.result(timeout=timeout)

    def stop(self, timeout: float = 30.0) -> None:
        """Drain the front door and join its thread.  Idempotent."""
        if self._loop is None or not self._thread.is_alive():
            return
        concurrent.futures.wait(
            [asyncio.run_coroutine_threadsafe(self.door.stop(), self._loop)],
            timeout=timeout,
        )
        self._thread.join(timeout=timeout)

    def __enter__(self) -> "FrontDoorThread":
        return self.start()

    def __exit__(self, exc_type, exc, tb) -> None:
        self.stop()


__all__ = ["FrontDoor", "FrontDoorThread"]
