"""The pure per-shard core: apply segments, answer in wire form.

:class:`ShardCore` is the half of the old monolithic worker that owns
the structure and nothing else — no queue, no tickets, no journal, no
fault plane.  It consumes *wire segments* (``(op, keys, values)``
tuples of plain bytes) and returns *wire results* (``(kind, payload)``
tuples of plain lists), so the exact same core runs embedded in the
parent under :class:`~repro.service.backends.InlineBackend` and inside
a forked child under
:class:`~repro.service.backends.ProcessBackend` — the transport shell
around it changes, the apply semantics cannot.

Everything else a shard does to its structure is a named *control op*
through one dispatcher, :meth:`ShardCore.control`: the full-key
fallback and partial-key restore of the collision monitor's degraded
mode, a forced trip, a rearm to a re-learned plan, a stats read, and
the live replay of migrated journal entries.  The inline backend calls
it directly; the process backend ships ``(name, arg)`` over the
child's command queue and the child calls it there.

Everything a core touches or returns is picklable by construction;
tickets and :class:`~repro.service.protocol.Response` objects never
cross a process boundary.  Acknowledgement, journaling, and client
visibility all live parent-side in the worker shell, which is what
makes a child's state disposable: a restart rebuilds the core from the
parent's acked-only journal, so work a dead child applied but never
reported simply evaporates instead of double-applying.
"""

from __future__ import annotations

from typing import Callable, List, Optional, Sequence, Tuple

from repro.service.adapters import AdapterSpec, StructureAdapter
from repro.service.journal import Entry, replay_entries

# One wire segment: consecutive same-op requests, reduced to plain data.
WireSegment = Tuple[str, List[bytes], Optional[List[Optional[bytes]]]]
# One wire result: ("unsupported", backend) or (op, per-key payload).
WireResult = Tuple[str, object]


class ShardCore:
    """One structure plus the segment-apply logic, nothing else."""

    def __init__(self, adapter: StructureAdapter):
        self.adapter = adapter

    @classmethod
    def from_spec(
        cls,
        spec: AdapterSpec,
        entries: Optional[Sequence[Entry]] = None,
        progress: Optional[Callable[[int], None]] = None,
    ) -> "ShardCore":
        """Build a fresh core from a spec and (re)play a journal into
        it — the child-side half of a worker restart."""
        core = cls(spec.build())
        if entries:
            replay_entries(core.adapter, entries, progress=progress)
        return core

    # ------------------------------------------------------------- serving

    def serve_segment(
        self,
        op: str,
        keys: Sequence[bytes],
        values: Optional[Sequence[Optional[bytes]]] = None,
    ) -> WireResult:
        """Apply one same-op segment; the payload shape mirrors the
        adapter batch entry points exactly."""
        adapter = self.adapter
        if op not in adapter.supported:
            return ("unsupported", adapter.backend)
        if op == "get":
            return ("get", adapter.get_batch(keys))
        if op == "put":
            return ("put", adapter.put_batch(keys, list(values or ())))
        if op == "delete":
            return ("delete", adapter.delete_batch(keys))
        if op == "similar":
            # The per-key value payload carries the neighbor count k.
            return ("similar", adapter.similar_batch(keys, list(values or ())))
        return ("contains", adapter.contains_batch(keys))

    # ------------------------------------------------------------ control

    @property
    def tripped(self) -> bool:
        return self.adapter.tripped

    def control(
        self,
        name: str,
        arg: object = None,
        progress: Optional[Callable[[int], None]] = None,
    ) -> object:
        """Run one named control op; the single dispatcher for both
        backends.  Returns the op's payload:

        * ``fall_back`` / ``restore_partial_key`` / ``force_trip`` —
          degraded-mode switches (None);
        * ``rearm`` — hot-swap to the re-learned model ``arg``; True
          when the structure rehashed, False if unsupported here;
        * ``stats`` — the adapter's stats dict;
        * ``apply`` — replay the migrated journal entries ``arg`` into
          the *live* structure (the migration half of a routing flip,
          no restart), calling ``progress`` like a spawn replay does;
          returns the number of ops applied.
        """
        adapter = self.adapter
        if name == "fall_back":
            adapter.fall_back()
        elif name == "restore_partial_key":
            adapter.restore_partial_key()
        elif name == "force_trip":
            adapter.force_trip()
        elif name == "rearm":
            if not adapter.rearmable:
                return False
            adapter.rearm_with(arg)
            return True
        elif name == "stats":
            return adapter.stats()
        elif name == "apply":
            return replay_entries(adapter, arg, progress=progress)
        else:
            raise ValueError(f"unknown control op {name!r}")
        return None


__all__ = ["ShardCore", "WireSegment", "WireResult"]
