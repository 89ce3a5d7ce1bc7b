"""Outside-in instrumentation of the program's layers.

Nothing in ``src/`` knows it is being measured: every hook here replaces
an attribute that the layer's *callers* resolve at call time -- a class
attribute, or a function imported by name into the calling module -- and
``Patches.restore`` puts the originals back.  Two levels exist:

* :class:`Probe` -- the light hooks every run installs, because the
  end-to-end metrics and the checks need them: the host time each
  replica's editor takes to integrate one arriving op, the host time of
  each edit draw, the ops a client held when it crashed, and the wire
  run's scheduler epochs and connection times.  A few thousand
  ``perf_counter`` calls per session, plus the paces of reference work
  that track the host's speed (below).
* :class:`SpanRecorder` + :func:`install_layers` -- the traced run.
  Spans (name, start, end, parent) wrap each layer boundary; hot
  predicates that run millions of times are counted, not spanned.
  Spans live in flat in-memory arrays and are written out when the run
  ends.  A span's self time is its duration minus the time its child
  spans cover, so the self times of all spans plus the unattributed
  remainder add up to the traced wall time.
"""

from __future__ import annotations

import asyncio
import functools
import gc
import json
import time
from array import array
from pathlib import Path
from typing import Any, Callable

clock = time.perf_counter


# -- host speed ---------------------------------------------------------------------
#
# A shared host's speed can drift by half or more within seconds (seen on
# a 2-vCPU virtual machine, with no steal time), and a pure-Python
# program slows with it.  So a session times a fixed piece of
# reference work before it starts, after it ends and, while it runs,
# every ``PACE_S`` between two arriving ops; each stretch of the session
# is then expressed at nominal speed: its host time divided by how many
# times slower than ``REF_NOMINAL_S`` the reference ran at its two ends.
# The reference never changes, so a change to the program moves these
# figures as it moves the raw ones.

#: Host seconds of one ``reference_s`` at nominal speed.
REF_NOMINAL_S = 0.0025
#: Host seconds between two paces within a session.
PACE_S = 0.05


class _Entry:
    __slots__ = ("key", "site", "seq")

    def __init__(self, key: str, site: int, seq: int) -> None:
        self.key, self.site, self.seq = key, site, seq


def _reference_work() -> int:
    """Fixed pure-Python work in the program's idiom: small objects,
    dicts, strings, list growth and tuple comparisons."""
    index: dict[str, _Entry] = {}
    log: list[_Entry] = []
    latest: dict[int, tuple[int, int]] = {}
    for i in range(2000):
        entry = _Entry(f"c{i % 8}_{i}", i % 8, i)
        index[entry.key] = entry
        log.append(entry)
        stamp = (entry.seq, entry.site)
        if stamp > latest.get(entry.site, (-1, -1)):
            latest[entry.site] = stamp
    return sum(index[e.key].seq & 7 for e in log[::3]) + len(latest)


def reference_s(repeats: int = 1) -> float:
    """Median host seconds of the reference work, collector off."""
    enabled = gc.isenabled()
    gc.disable()
    try:
        times = []
        for _ in range(repeats):
            start = clock()
            _reference_work()
            times.append(clock() - start)
    finally:
        if enabled:
            gc.enable()
    return sorted(times)[len(times) // 2]


_MISSING = object()


class Patches:
    """Attribute replacements that can be undone in reverse order.

    ``make`` receives the attribute as callers currently resolve it
    (for a class, possibly inherited) and returns its replacement.
    """

    def __init__(self) -> None:
        self._undo: list[tuple[Any, str, Any]] = []

    def replace(self, owner: Any, attr: str, make: Callable[[Any], Any]) -> None:
        self._undo.append((owner, attr, vars(owner).get(attr, _MISSING)))
        setattr(owner, attr, make(getattr(owner, attr)))

    def restore(self) -> None:
        while self._undo:
            owner, attr, original = self._undo.pop()
            if original is _MISSING:
                delattr(owner, attr)
            else:
                setattr(owner, attr, original)


class Probe:
    """The hooks behind the end-to-end metrics (installed in every run)."""

    def __init__(self) -> None:
        self.patches = Patches()
        #: host seconds a replica's editor spent integrating one arriving op,
        #: and how many paces came before it
        self.arrival_s: list[float] = []
        self.arrival_pace: list[int] = []
        #: paces so far: (start, end, reference seconds); ``pace_from``
        #: arms them, and the traced run never does
        self.paces: list[tuple[float, float, float]] = []
        self.next_pace = float("inf")
        #: ids of the ops each crashed client had generated before it crashed
        self.generated_before_crash: set[str] = set()
        #: perf_counter time of the most recent edit draw (the last due edit)
        self.last_edit = 0.0
        #: wire run: per client task, its scheduler's wall-clock epoch,
        #: its edit draw times (wall clock), and its connect time
        self.sched_epoch: dict[Any, float] = {}
        self.draws: dict[Any, list[float]] = {}
        self.connected: dict[Any, float] = {}
        #: the client task whose scheduled callback is running
        self.firing: Any = None

    def install(self) -> None:
        from repro.cluster import client as cluster_client
        from repro.editor.mesh import MeshOp
        from repro.editor.messages import OpMessage
        from repro.editor.star_client import StarClient
        from repro.net.scheduler import AsyncioScheduler
        from repro.session import endpoint as endpoint_mod
        from repro.workloads import random_session

        arrivals = self.arrival_s
        probe = self

        # Arrivals are timed at the editor's delivery callback, past the
        # transport, and only for ops: acks, probes, duplicates and
        # snapshots never reach an editor's integration path.
        def timed(deliver: Callable[[Any], None]) -> Callable[[Any], None]:
            def on_delivery(envelope: Any) -> None:
                if not isinstance(envelope.payload, (OpMessage, MeshOp)):
                    deliver(envelope)
                    return
                start = clock()
                deliver(envelope)
                end = clock()
                arrivals.append(end - start)
                probe.arrival_pace.append(len(probe.paces))
                if end >= probe.next_pace:
                    probe.pace()
            return on_delivery

        def build_transport(orig: Callable[..., Any]) -> Callable[..., Any]:
            @functools.wraps(orig)
            def build(*args: Any, deliver: Callable[..., Any], **kwargs: Any) -> Any:
                return orig(*args, deliver=timed(deliver), **kwargs)
            return build

        self.patches.replace(endpoint_mod, "build_transport", build_transport)

        def crash(fn: Callable[..., Any]) -> Callable[..., Any]:
            @functools.wraps(fn)
            def crash_client(self_: Any) -> None:
                own = f"c{self_.pid}_"
                probe.generated_before_crash.update(
                    i for i in self_.executed_op_ids if i.startswith(own) and "'" not in i)
                fn(self_)
            return crash_client

        self.patches.replace(StarClient, "crash", crash)

        def sim_draw(fn: Callable[..., Any]) -> Callable[..., Any]:
            @functools.wraps(fn)
            def draw(*args: Any, **kwargs: Any) -> Any:
                probe.last_edit = clock()
                return fn(*args, **kwargs)
            return draw

        self.patches.replace(random_session, "random_positional_op", sim_draw)

        def wire_draw(fn: Callable[..., Any]) -> Callable[..., Any]:
            @functools.wraps(fn)
            def draw(*args: Any, **kwargs: Any) -> Any:
                probe.draws.setdefault(probe.firing, []).append(time.time())
                return fn(*args, **kwargs)
            return draw

        self.patches.replace(cluster_client, "random_positional_op", wire_draw)

        class EpochScheduler(AsyncioScheduler):
            """Keys each client's scheduler by the task that built it."""

            def __init__(self, *args: Any, **kwargs: Any) -> None:
                super().__init__(*args, **kwargs)
                self.owner = asyncio.current_task()
                # ``now`` counts from construction: record that instant on
                # the wall clock the cluster's tracers stamp events with.
                probe.sched_epoch[self.owner] = time.time() - self.now

            def schedule(self, at: float, callback: Callable[[], None]) -> Any:
                owner = self.owner

                def tagged() -> None:
                    probe.firing = owner
                    callback()

                return super().schedule(at, tagged)

        self.patches.replace(cluster_client, "AsyncioScheduler", lambda _orig: EpochScheduler)

        def dial(fn: Callable[..., Any]) -> Callable[..., Any]:
            @functools.wraps(fn)
            async def connect(*args: Any, **kwargs: Any) -> Any:
                result = await fn(*args, **kwargs)
                probe.connected[asyncio.current_task()] = clock()
                return result
            return connect

        self.patches.replace(cluster_client, "connect_with_backoff", dial)

    def restore(self) -> None:
        self.patches.restore()

    def pace_from(self, start: float) -> None:
        self.next_pace = start + PACE_S

    def pace(self) -> None:
        start = clock()
        ref = reference_s()
        end = clock()
        self.paces.append((start, end, ref))
        self.next_pace = end + PACE_S

    def paced_s(self) -> float:
        """Host seconds spent in paces (not the program's time)."""
        return sum(end - start for start, end, _ in self.paces)

    def at_nominal_speed(self, start: float, end: float, before: float,
                         after: float) -> tuple[float, list[float]]:
        """Host seconds of ``start``..``end`` (paces excluded) and the
        arrival times, each divided by the slowdown of its stretch.

        ``before``/``after`` are the reference times measured just before
        ``start`` and just after ``end``.
        """
        bounds = [(start, start, before)] + self.paces + [(end, end, after)]
        slowdowns = [(a[2] + b[2]) / 2 / REF_NOMINAL_S for a, b in zip(bounds, bounds[1:])]
        wall = sum((b[0] - a[1]) / slow
                   for a, b, slow in zip(bounds, bounds[1:], slowdowns))
        arrivals = [t / slowdowns[k] for t, k in zip(self.arrival_s, self.arrival_pace)]
        return wall, arrivals


class SpanRecorder:
    """In-memory spans plus call counters, for one traced session."""

    def __init__(self) -> None:
        self.names: list[str] = []
        self._name_ids: dict[str, int] = {}
        self.name_id = array("i")
        self.parent = array("i")
        self.start = array("d")
        self.end = array("d")
        self._stack: list[int] = []
        self.counts: dict[str, list[int]] = {}
        self.gc_pause_s = 0.0
        self._gc_started = 0.0

    # -- recording -------------------------------------------------------------

    def span(self, name: str, fn: Callable[..., Any]) -> Callable[..., Any]:
        """Wrap ``fn`` so each call records one span called ``name``."""
        nid = self._name_ids.setdefault(name, len(self.names))
        if nid == len(self.names):
            self.names.append(name)
        stack, name_ids, parents = self._stack, self.name_id, self.parent
        starts, ends = self.start, self.end

        @functools.wraps(fn)
        def wrapper(*args: Any, **kwargs: Any) -> Any:
            index = len(starts)
            name_ids.append(nid)
            parents.append(stack[-1] if stack else -1)
            ends.append(0.0)
            stack.append(index)
            starts.append(clock())
            try:
                return fn(*args, **kwargs)
            finally:
                ends[index] = clock()
                stack.pop()

        return wrapper

    def counter(self, name: str) -> list[int]:
        return self.counts.setdefault(name, [0, 0])

    def count(self, name: str, fn: Callable[..., Any]) -> Callable[..., Any]:
        """Wrap ``fn`` so each call increments ``name`` (and its true
        results increment the second cell, for verdict hit ratios)."""
        cell = self.counter(name)

        @functools.wraps(fn)
        def wrapper(*args: Any, **kwargs: Any) -> Any:
            result = fn(*args, **kwargs)
            cell[0] += 1
            if result is True:
                cell[1] += 1
            return result

        return wrapper

    def _on_gc(self, phase: str, info: dict[str, Any]) -> None:
        if phase == "start":
            self._gc_started = clock()
        else:
            self.gc_pause_s += clock() - self._gc_started

    def start_gc_timing(self) -> None:
        gc.callbacks.append(self._on_gc)

    def stop_gc_timing(self) -> None:
        gc.callbacks.remove(self._on_gc)

    # -- analysis --------------------------------------------------------------

    def self_times(self) -> dict[str, float]:
        """Per span name: total duration minus time covered by children."""
        n = len(self.start)
        child = [0.0] * n
        for i in range(n):
            p = self.parent[i]
            if p >= 0:
                child[p] += self.end[i] - self.start[i]
        totals = {name: 0.0 for name in self.names}
        for i in range(n):
            totals[self.names[self.name_id[i]]] += self.end[i] - self.start[i] - child[i]
        return totals

    def span_count(self, name: str) -> int:
        nid = self._name_ids.get(name)
        return sum(1 for i in self.name_id if i == nid)

    def write(self, path: Path) -> None:
        """Dump every span: a JSON header line, then the four arrays."""
        path.parent.mkdir(parents=True, exist_ok=True)
        with path.open("wb") as fh:
            header = {"names": self.names, "spans": len(self.start),
                      "arrays": ["name_id:i", "parent:i", "start:d", "end:d"]}
            fh.write(json.dumps(header).encode() + b"\n")
            for arr in (self.name_id, self.parent, self.start, self.end):
                arr.tofile(fh)


#: Span names, in report order, and the metric each one's self time feeds.
SPAN_NAMES = {
    name: f"{name}.self_s" for name in (
        "star_client", "star_notifier", "mesh", "mesh.got_transform",
        "ot.transform", "event_log", "reliability", "transport.size",
        "channel.send", "simulator", "codec.encode", "codec.decode",
        "wire.send", "wire.decode", "tracer.emit", "tracer.write", "loop.idle",
    )
}
SPAN_NAMES["harness.write_artifacts"] = "harness.write_artifacts_s"


def percentile(values: list[float], pct: float) -> float:
    """Nearest-rank percentile of ``values`` (need not be sorted)."""
    ordered = sorted(values)
    rank = max(1, -(-len(ordered) * pct // 100))
    return ordered[int(rank) - 1]

#: Which editor layer owns the delivery callback of each endpoint class.
_DELIVER_LAYER = {"StarClient": "star_client", "StarNotifier": "star_notifier",
                  "MeshSite": "mesh"}


def install_layers(rec: SpanRecorder, patches: Patches,
                   endpoints: list[Any]) -> None:
    """Wrap every layer boundary the traced run measures.

    ``endpoints`` collects each editor endpoint as its transport is
    built, so the wire run can read history lengths at the end.
    """
    import selectors

    from repro.clocks.events import EventLog
    from repro.cluster import client as cluster_client
    from repro.cluster import failover as cluster_failover
    from repro.cluster import serve as cluster_serve
    from repro.editor import mesh as mesh_mod
    from repro.editor import star_client as client_mod
    from repro.editor import star_notifier as notifier_mod
    from repro.editor.mesh import MeshSite
    from repro.editor.star_client import StarClient
    from repro.editor.star_notifier import StarNotifier
    from repro.net import wire as wire_mod
    from repro.net.channel import FIFOChannel
    from repro.net.faults import FaultyChannel
    from repro.net.holdback import HoldbackQueue
    from repro.net.reliability import ReliableEndpoint
    from repro.net.simulator import Simulator
    from repro.net.transport import Envelope
    from repro.net.wire import WireChannel
    from repro.obs.tracer import JsonlWriter, Tracer
    from repro.ot.types import PositionalTextType
    from repro.session import endpoint as endpoint_mod

    def span(owner: Any, attr: str, name: str) -> None:
        patches.replace(owner, attr, lambda orig: rec.span(name, orig))

    def count(owner: Any, attr: str, name: str) -> None:
        patches.replace(owner, attr, lambda orig: rec.count(name, orig))

    # Editors: local generation and network arrival.  Arrival passes
    # through the transport (its own span) before the editor's delivery
    # callback, which is spanned again under the editor's name.
    for cls, name in ((StarClient, "star_client"), (StarNotifier, "star_notifier"),
                      (MeshSite, "mesh")):
        span(cls, "on_message", name)
    span(StarClient, "generate", "star_client")
    span(StarNotifier, "generate_local", "star_notifier")
    span(MeshSite, "generate", "mesh")

    def build_transport(orig: Callable[..., Any]) -> Callable[..., Any]:
        @functools.wraps(orig)
        def build(*args: Any, deliver: Callable[..., Any], **kwargs: Any) -> Any:
            owner = getattr(deliver, "__self__", None)
            layer = _DELIVER_LAYER.get(type(owner).__name__)
            if owner is not None:
                endpoints.append(owner)
            if layer is not None:
                deliver = rec.span(layer, deliver)
            return orig(*args, deliver=deliver, **kwargs)
        return build

    patches.replace(endpoint_mod, "build_transport", build_transport)

    # Concurrency verdicts (formulas 5 and 7) and vector comparisons run
    # millions of times: counted at the names the editors call.
    count(client_mod, "client_concurrent", "concurrency")
    count(notifier_mod, "notifier_concurrent", "concurrency")
    count(mesh_mod, "compare", "vector.compares")
    count(HoldbackQueue, "hold", "holdback.holds")

    span(mesh_mod, "got_transform", "mesh.got_transform")
    span(PositionalTextType, "transform", "ot.transform")
    span(mesh_mod, "inclusion_transform", "ot.transform")
    span(mesh_mod, "exclusion_transform", "ot.transform")
    span(EventLog, "generate", "event_log")
    span(EventLog, "execute", "event_log")
    for attr in ("send", "on_wire", "_on_timer"):
        span(ReliableEndpoint, attr, "reliability")
    span(Envelope, "total_bytes", "transport.size")
    span(FIFOChannel, "send", "channel.send")
    span(FaultyChannel, "send", "channel.send")
    span(Simulator, "run", "simulator")

    # Wire: codec, framing, the channel and the pump's frame decoder.
    span(wire_mod, "encode_op_message", "codec.encode")
    span(wire_mod, "decode_op_message", "codec.decode")
    span(WireChannel, "send", "wire.send")
    for module in (wire_mod, cluster_serve, cluster_failover):
        span(module, "decode_frame", "wire.decode")
    frames = rec.counter("wire.frames")

    def counted_frame(orig: Callable[[bytes], bytes]) -> Callable[[bytes], bytes]:
        @functools.wraps(orig)
        def framed(body: bytes) -> bytes:
            out = orig(body)
            frames[0] += 1
            frames[1] += len(out)
            return out
        return framed

    for module in (wire_mod, cluster_serve, cluster_client, cluster_failover):
        patches.replace(module, "frame", counted_frame)

    # Observability and artifacts, on by default in the cluster.
    span(Tracer, "emit", "tracer.emit")
    span(JsonlWriter, "write_line", "tracer.write")
    for module in (cluster_serve, cluster_client):
        span(module, "write_artifacts", "harness.write_artifacts")
    # The event loop's wait for I/O: idle time, not unattributed work.
    span(selectors.DefaultSelector, "select", "loop.idle")
