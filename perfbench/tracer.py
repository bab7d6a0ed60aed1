"""Span tracing from outside the program: wrap public methods, restore after.

A :class:`Tracer` replaces the methods named in :data:`TRACED` with thin
wrappers for as long as it is installed.  Each call records one span
``(name, start, end, parent_id, span_id, call_id)``: ``parent_id`` is
the span that was open on the same thread when the call began, and
``call_id`` is the id of the outermost span of that call stack, so all
spans of one client call share it.  Spans stay in memory; :meth:`dump`
writes them out once the run ends.

Self time is a span's duration minus the durations of its direct child
spans, accumulated per span name as the spans close.  No program code
is touched: the wrappers live here and :meth:`restore` puts every
original attribute back.
"""

from __future__ import annotations

import gzip
import importlib
import json
import threading
import time
from collections import Counter, defaultdict
from typing import Dict, List, Optional, Tuple

# (module, class or None for a module function, attribute, layer, index
# of the positional argument holding the call's keys or None).  The
# argument index counts ``self``.
TRACED: Tuple[Tuple[str, Optional[str], str, str, Optional[int]], ...] = (
    ("repro.engine.engine", "HashEngine", "hash_batch", "engine", 1),
    ("repro.tables.probing", "LinearProbingTable", "insert_batch", "tables", 1),
    ("repro.tables.probing", "LinearProbingTable", "probe_batch", "tables", 1),
    ("repro.service.router", "ShardRouter", "route_batch", "router", 1),
    ("repro.service.router", "ShardRouter", "route_one", "router", 1),
    ("repro.service.service", "Service", "submit", "service", None),
    ("repro.service.service", "Service", "submit_batch", "service", 1),
    ("repro.service.service", "Service", "pump", "service", None),
    ("repro.service.supervisor", "Supervisor", "observe", "supervisor", None),
    ("repro.service.supervisor", "Supervisor", "adapt", "supervisor", None),
    ("repro.service.worker", "Worker", "dispatch", "worker", None),
    ("repro.service.worker", "Worker", "collect", "worker", None),
    ("repro.service.core", "ShardCore", "serve_segment", "core", 2),
    ("repro.service.journal", "ShardJournal", "record_put", "journal", None),
    ("repro.service.journal", "ShardJournal", "checkpoint", "journal", None),
    ("repro.service.client", "ServiceClient", "multi_get", "client", 1),
    ("repro.service.client", "ServiceClient", "put_many", "client", 1),
    ("repro.service.client", "ServiceClient", "get", "client", 1),
    ("repro.service.client", "ServiceClient", "put", "client", 1),
    ("repro.service.netproto", None, "decode_request", "netproto", None),
    ("repro.service.netproto", None, "encode_response", "netproto", None),
)


def span_name(module: str, owner: Optional[str], attr: str) -> str:
    return f"{owner or module.rsplit('.', 1)[1]}.{attr}"


Span = Tuple[str, float, float, int, int, int]


class Tracer:
    """Installs span-recording wrappers and aggregates self time."""

    def __init__(self) -> None:
        self.spans: List[Span] = []
        self.self_s: Dict[str, float] = defaultdict(float)
        self.calls: Counter = Counter()
        # Keys handed to each call that takes keys (see TRACED).
        self.items: Counter = Counter()
        self._local = threading.local()
        self._next_id = 0
        self._saved: List[Tuple[object, str, object]] = []

    # ---------------------------------------------------------- lifecycle

    def install(self) -> None:
        if self._saved:
            return
        for module_name, owner_name, attr, _, keys_arg in TRACED:
            module = importlib.import_module(module_name)
            if owner_name is None:
                owner, original = module, getattr(module, attr)
            else:
                owner = getattr(module, owner_name)
                original = owner.__dict__[attr]
            self._saved.append((owner, attr, original))
            name = span_name(module_name, owner_name, attr)
            setattr(owner, attr, self._wrap(name, original, keys_arg))

    def restore(self) -> None:
        while self._saved:
            owner, attr, original = self._saved.pop()
            setattr(owner, attr, original)

    # ------------------------------------------------------------ spans

    def _wrap(self, name: str, original, keys_arg: Optional[int]):
        tracer = self
        clock = time.perf_counter

        def wrapper(*args, **kwargs):
            stack = getattr(tracer._local, "stack", None)
            if stack is None:
                stack = tracer._local.stack = []
            tracer._next_id += 1
            span_id = tracer._next_id
            if stack:
                parent_id, call_id = stack[-1][0], stack[-1][2]
            else:
                parent_id, call_id = 0, span_id
            frame = [span_id, 0.0, call_id]
            stack.append(frame)
            start = clock()
            try:
                return original(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                duration = end - start
                if stack:
                    stack[-1][1] += duration
                tracer.self_s[name] += duration - frame[1]
                tracer.calls[name] += 1
                if keys_arg is not None and len(args) > keys_arg:
                    keys = args[keys_arg]
                    tracer.items[name] += (
                        1 if isinstance(keys, bytes)
                        else len(keys) if hasattr(keys, "__len__") else 0
                    )
                tracer.spans.append(
                    (name, start, end, parent_id, span_id, call_id)
                )

        wrapper.__wrapped__ = original
        return wrapper

    # ---------------------------------------------------------- results

    def layer_self_s(self) -> Dict[str, float]:
        """Self seconds summed per layer (the layer column of TRACED)."""
        layer_of = {
            span_name(module, owner, attr): layer
            for module, owner, attr, layer, _ in TRACED
        }
        out: Dict[str, float] = defaultdict(float)
        for name, seconds in self.self_s.items():
            out[layer_of[name]] += seconds
        return dict(out)

    def dump(self, path) -> int:
        """Write every span as one JSON line (gzip); returns the count."""
        with gzip.open(path, "wt", encoding="ascii") as out:
            for span in self.spans:
                out.write(json.dumps(span))
                out.write("\n")
        return len(self.spans)
