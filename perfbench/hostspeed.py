"""How fast the shared host runs right now, from fixed reference work.

The benchmark runs on a few cores of a shared host whose speed swings
by up to 2.3 times: for seconds at a time, or for an hour.  A raw time
then says as much about the neighbours as about the program.  So each
timed step is bracketed by measurements of a fixed reference, and its
duration is divided by the mean factor (reference time over its
nominal time) of the two measurements around it.  Adjusted times read
as on the nominal host; a program change moves them as it moves the
raw ones, because the references run none of the program's code.

Two references, one per kind of path:

* :class:`HostSpeed` — per-key Python and numpy work on one core, for
  the in-process calls and the set-ups;
* :class:`NetSpeed` — a burst of framed JSON requests over TCP
  loopback to :class:`ReferenceEcho`, a stdlib asyncio server in the
  serving process.  A network request spends part of its time in the
  kernel and in waking the server's core, which follow the host's
  speed less than Python does (a segment's median latency moved with
  the CPU reference to the power 0.5), so the network workload is
  adjusted by a reference that takes the same path.
"""

from __future__ import annotations

import asyncio
import base64
import hashlib
import json
import select
import socket
import statistics
import threading
import time
from typing import Dict, List, Optional

# ------------------------------------------------------------------- CPU

# Reference work: per-key Python (bytes slicing, dict updates, list
# comprehensions) and a numpy multiply-xorshift and bincount, roughly
# the two halves of what the program does per key.
_REF_KEYS = [b"https://www.example.org/%06d/p?q=%d" % (i * 7919 % 1000003, i)
             for i in range(4000)]
_REF_MUL = 0x9E3779B97F4A7C15
_REF_ROUNDS = 6
# Time of one reference unit on the nominal host (one core of a
# 2.1 GHz Xeon with its neighbours quiet).
REFERENCE_UNIT_S = 0.0025


def _reference_unit(np, blob) -> int:
    seen: Dict[bytes, int] = {}
    for key in _REF_KEYS:
        seen[key[8:32]] = seen.get(key[8:32], 0) + len(key)
    total = sum(seen[key[8:32]] for key in _REF_KEYS)
    parts = [key[-8:] for key in _REF_KEYS if key[-1] & 1]
    x = blob
    mul, shift = np.uint64(_REF_MUL), np.uint64(29)
    for _ in range(_REF_ROUNDS):
        x = (x * mul) ^ (x >> shift)
    buckets = np.bincount((x & np.uint64(4095)).astype(np.intp),
                          minlength=4096)
    return total + len(parts) + int(buckets.max())


class HostSpeed:
    """How many times slower than nominal this core runs right now.

    ``measure`` times reference units; ``around`` gives the factor for
    a call that just ended (the mean of the measurement before it and a
    fresh one after it).  Every factor is kept in ``factors``.
    """

    def __init__(self) -> None:
        import numpy

        self._np = numpy
        blob = b"".join(key[:24] for key in _REF_KEYS[:1500]) * 16
        self._blob = numpy.frombuffer(blob, dtype=numpy.uint64)
        self.factors: List[float] = []
        # Untimed units first: first-call and allocator costs are not
        # the host's speed.
        for _ in range(16):
            _reference_unit(numpy, self._blob)
        self.last = self.measure()

    def measure(self) -> float:
        """Time one reference unit; returns its factor, which also
        becomes ``last``."""
        start = time.perf_counter()
        _reference_unit(self._np, self._blob)
        factor = (time.perf_counter() - start) / REFERENCE_UNIT_S
        self.factors.append(factor)
        self.last = factor
        return factor

    def around(self) -> float:
        """The factor for a call that just ended."""
        before = self.last
        return 0.5 * (before + self.measure())


class Steps:
    """Times a sequence of steps (a set-up's key generation, training,
    construction, ...) with the host's speed measured between them:
    each step is divided by the mean factor of the measurements on its
    two sides.  ``raw`` and ``adjusted`` are the totals; ``spent`` is
    the time the measurements took, which neither includes."""

    def __init__(self, speed: Optional[HostSpeed]) -> None:
        self.speed = speed
        self.raw = self.adjusted = self.spent = 0.0
        self._before = self._measure()
        self._start = time.perf_counter()

    def _measure(self) -> float:
        """Median of three units: one unit slowed by an interrupt would
        otherwise skew a whole step."""
        if self.speed is None:
            return 1.0
        start = time.perf_counter()
        factor = statistics.median(self.speed.measure() for _ in range(3))
        self.spent += time.perf_counter() - start
        return factor

    def step(self) -> None:
        seconds = time.perf_counter() - self._start
        after = self._measure()
        self.raw += seconds
        self.adjusted += seconds / (0.5 * (self._before + after))
        self._before = after
        self._start = time.perf_counter()

    def factor(self) -> float:
        """The steps' mean factor, weighted by their raw times."""
        return self.raw / self.adjusted if self.adjusted else 1.0


# --------------------------------------------------------------- network

# A reference burst: this many requests sent back to back, timed to the
# median answer, as the network workload times its own bursts.
NET_REF_BURST = 32
NET_REF_KEYS = 512
# Median answer time of a reference burst on the nominal host.
NET_REFERENCE_S = 0.0005
_LENGTH = 4


def _ref_key(index: int) -> bytes:
    return b"https://ref.example.org/item/%06d" % index


def _frame(payload: Dict[str, object]) -> bytes:
    body = json.dumps(payload, separators=(",", ":")).encode()
    return len(body).to_bytes(_LENGTH, "big") + body


class ReferenceEcho:
    """The network reference's server: framed JSON requests with a
    base64 key, a keyed digest and dict lookup per request, a framed
    JSON answer with a base64 value.  It runs its own asyncio loop on a
    thread of the serving process, idle while the workload runs."""

    def __init__(self) -> None:
        self._table = {
            hashlib.blake2b(_ref_key(i), digest_size=8).digest():
                b"value:%d" % i
            for i in range(NET_REF_KEYS)
        }
        self._loop = asyncio.new_event_loop()
        self._ready = threading.Event()
        self.port = 0
        self._thread = threading.Thread(target=self._run, daemon=True)
        self._thread.start()
        self._ready.wait(timeout=30)

    def _run(self) -> None:
        asyncio.set_event_loop(self._loop)
        server = self._loop.run_until_complete(asyncio.start_server(
            self._serve, "127.0.0.1", 0
        ))
        self.port = server.sockets[0].getsockname()[1]
        self._ready.set()
        try:
            self._loop.run_forever()
        finally:
            server.close()
            self._loop.run_until_complete(server.wait_closed())
            self._loop.close()

    async def _serve(self, reader, writer) -> None:
        try:
            while True:
                header = await reader.readexactly(_LENGTH)
                body = await reader.readexactly(int.from_bytes(header, "big"))
                request = json.loads(body)
                key = base64.b64decode(request["key"])
                value = self._table.get(
                    hashlib.blake2b(key, digest_size=8).digest(), b""
                )
                writer.write(_frame({
                    "id": request["id"], "status": "ok",
                    "value": base64.b64encode(value).decode(),
                }))
        except (asyncio.IncompleteReadError, ConnectionError):
            pass
        finally:
            writer.close()

    def stop(self) -> None:
        if self._loop.is_running():
            self._loop.call_soon_threadsafe(self._loop.stop)
        self._thread.join(timeout=30)


class NetSpeed:
    """The network reference's client: times bursts to a
    :class:`ReferenceEcho` from the load generator's core."""

    def __init__(self, port: int) -> None:
        self.sock = socket.create_connection(("127.0.0.1", port), timeout=30)
        self.sock.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
        self._buffer = b""
        self._next = 0
        self.factors: List[float] = []
        for _ in range(8):
            self.burst()

    def burst(self) -> float:
        """Median seconds from the burst's start to each answer."""
        start = time.perf_counter()
        for _ in range(NET_REF_BURST):
            self._next += 1
            key = _ref_key(self._next % NET_REF_KEYS)
            self.sock.sendall(_frame({
                "id": self._next, "op": "get",
                "key": base64.b64encode(key).decode(),
            }))
        answers: List[float] = []
        while len(answers) < NET_REF_BURST:
            ready, _, _ = select.select([self.sock], [], [], 30)
            if not ready:
                raise TimeoutError("reference echo did not answer")
            data = self.sock.recv(1 << 16)
            if not data:
                raise ConnectionError("reference echo closed")
            now = time.perf_counter()
            self._buffer += data
            while len(self._buffer) >= _LENGTH:
                size = int.from_bytes(self._buffer[:_LENGTH], "big")
                if len(self._buffer) < _LENGTH + size:
                    break
                body = self._buffer[_LENGTH:_LENGTH + size]
                self._buffer = self._buffer[_LENGTH + size:]
                answer = json.loads(body)
                if answer["status"] != "ok" or not answer["value"]:
                    raise RuntimeError(f"reference echo answered {answer}")
                answers.append(now - start)
        return statistics.median(answers)

    def measure(self, bursts: int = 3) -> float:
        """Factor from the median of ``bursts`` bursts."""
        factor = statistics.median(
            self.burst() for _ in range(bursts)
        ) / NET_REFERENCE_S
        self.factors.append(factor)
        return factor

    def close(self) -> None:
        self.sock.close()
