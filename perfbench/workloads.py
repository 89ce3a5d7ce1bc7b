"""The four workloads, and one measured session of each.

A session runs through the program's public entry points only:
``StarSession``/``MeshSession`` driven by ``repro.workloads.random_session``,
or the cluster's ``serve``/``run_client`` coroutines on one asyncio loop
over loopback TCP.  Everything the workload does not define is left at
the library's defaults.  Each session checks its own outputs: replica
documents equal, and every attempted edit either executed at every live
replica or accounted for.
"""

from __future__ import annotations

import asyncio
import hashlib
import os
import random
import resource
import shutil
import sys
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, Optional, Union

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
OUT = ROOT / ".perfbench"
if str(SRC) not in sys.path:
    sys.path.insert(0, str(SRC))

from layers import (  # noqa: E402
    REF_NOMINAL_S, Patches, Probe, SPAN_NAMES, SpanRecorder, clock, install_layers,
    percentile, reference_s,
)

#: Reference repetitions before and after a session (their median counts).
REF_REPEATS = 9


@dataclass(frozen=True)
class SimWorkload:
    """An in-process session on the discrete-event simulator."""

    name: str
    arch: str  # "star" or "mesh"
    sites: int
    ops_per_site: int
    drop_p: float = 0.0
    dup_p: float = 0.0
    #: (site, crash time, restart time), virtual seconds
    crash: Optional[tuple[int, float, float]] = None


@dataclass(frozen=True)
class WireWorkload:
    """A notifier and its clients on one asyncio loop over loopback TCP."""

    name: str
    sites: int  # clients; the notifier is site 0
    ops_per_site: int


Workload = Union[SimWorkload, WireWorkload]

# Sizes keep one session to a few seconds, so a run holds five or more of
# them and its medians ride out the host's short speed swings.
WORKLOADS: dict[str, Workload] = {
    w.name: w
    for w in (
        SimWorkload("star-sim", "star", sites=8, ops_per_site=50),
        SimWorkload("star-lossy", "star", sites=6, ops_per_site=60,
                    drop_p=0.05, dup_p=0.02, crash=(1, 5.0, 8.0)),
        SimWorkload("mesh-sim", "mesh", sites=4, ops_per_site=30),
        WireWorkload("star-wire", sites=2, ops_per_site=100),
    )
}


@dataclass
class Outcome:
    """What one session measured and checked."""

    setup_s: float = 0.0
    #: host seconds of the measured phase (sim: ``run()``; wire: from
    #: every client connected until every coroutine has returned)
    wall_s: float = 0.0
    attempted: int = 0
    #: edits a client crash destroyed: typed while it was down, or
    #: generated before it went down and never executed by the notifier
    lost_to_crash: int = 0
    failed: int = 0
    correct: bool = False
    problems: list[str] = field(default_factory=list)
    digest: str = ""
    messages: int = 0
    #: host ms a replica's editor took to integrate each arriving op
    integrate_ms: list[float] = field(default_factory=list)
    #: star-wire: ms from each op's due time to its execution at the other client
    due_to_exec_ms: list[float] = field(default_factory=list)
    drain_s: float = 0.0
    peak_rss_mb: float = 0.0
    #: the same figures at nominal host speed (``layers.at_nominal_speed``).
    #: The wire's measured phase is not scaled: it follows the edit
    #: schedule and socket waits, not the reference.
    setup_nominal_s: float = 0.0
    wall_nominal_s: float = 0.0
    integrate_nominal_ms: list[float] = field(default_factory=list)
    #: how many times slower than nominal the host ran the session
    slowdown: float = 0.0
    layers: dict[str, float] = field(default_factory=dict)


def digest(document: Any) -> str:
    return hashlib.sha256(str(document).encode()).hexdigest()[:16]


def latency_factory(seed: int) -> Any:
    """Jittered per-channel latency, seeded as ``repro bench`` seeds it."""
    from repro.net.channel import JitterLatency

    def factory(src: int, dst: int) -> Any:
        return JitterLatency(0.08, 0.6, random.Random(seed * 97 + src * 11 + dst))

    return factory


# -- simulated sessions -------------------------------------------------------------


def build_sim(spec: SimWorkload, seed: int) -> Any:
    """Construct the session and schedule its edits."""
    from repro.editor import MeshSession, StarSession
    from repro.workloads.random_session import (
        RandomSessionConfig,
        drive_mesh_session,
        drive_star_session,
    )

    config = RandomSessionConfig(n_sites=spec.sites, ops_per_site=spec.ops_per_site,
                                 seed=seed)
    if spec.arch == "mesh":
        session: Any = MeshSession(spec.sites, initial_document=config.initial_document,
                                   latency_factory=latency_factory(seed))
        drive_mesh_session(session, config)
        return session
    fault_plan = None
    if spec.drop_p or spec.dup_p or spec.crash:
        from repro.net.faults import ChannelFaults, ClientCrash, FaultPlan

        crashes = ()
        if spec.crash is not None:
            site, at, restart_at = spec.crash
            crashes = (ClientCrash(site=site, at=at, restart_at=restart_at),)
        fault_plan = FaultPlan(seed=seed, default=ChannelFaults(drop_p=spec.drop_p,
                                                                dup_p=spec.dup_p),
                               crashes=crashes)
    session = StarSession(spec.sites, initial_state=config.initial_document,
                          latency_factory=latency_factory(seed), fault_plan=fault_plan)
    drive_star_session(session, config)
    return session


def _base(op_id: str) -> str:
    return op_id.rstrip("'")


def check_sim(session: Any, spec: SimWorkload, probe: Probe, out: Outcome) -> None:
    """Account for every attempted edit and compare the replicas."""
    if not session.converged():
        out.problems.append("replica documents differ")
    if not session.quiescent():
        out.problems.append("session did not quiesce")
    if spec.arch == "mesh":
        executed = [set(site.delivered_ids) for site in session.sites]
        generated = {i for ids in executed for i in ids}
        typed_while_down = 0
        lost: set[str] = set()
    else:
        generated = set()
        typed_while_down = 0
        for client in session.clients:
            prefix = f"c{client.pid}_"
            generated.update(i for i in client.executed_op_ids
                             if "'" not in i and i.startswith(prefix))
            typed_while_down += client.rel_stats.lost_local_edits
        # A client that crashed resynchronised from a snapshot, so its
        # execution log has a gap the convergence check covers instead.
        executed = [{_base(i) for i in endpoint.executed_op_ids}
                    for endpoint in session.participants()
                    if getattr(endpoint, "crash_count", 0) == 0]
        # An edit whose only copy was in a client's volatile state when it
        # crashed dies with it: generated before the crash, never executed
        # by the notifier.  An edit generated after the restart is owed.
        centre = {_base(i) for i in session.notifier.executed_op_ids}
        lost = probe.generated_before_crash - centre
    everywhere = generated.intersection(*executed)
    out.lost_to_crash = typed_while_down + len(lost)
    if len(generated) + typed_while_down != out.attempted:
        out.problems.append(f"{out.attempted} edits attempted, {len(generated)} "
                            f"generated, {typed_while_down} typed while down")
    out.failed = len(generated) - len(lost) - len(everywhere)
    if out.problems:  # a session that went wrong fails every op it owed
        out.failed = out.attempted - out.lost_to_crash
    if out.failed:
        out.problems.append(f"{out.failed} ops not executed at every live replica")
    out.digest = digest(session.documents()[0])
    out.messages = session.wire_stats().messages


def run_sim(spec: SimWorkload, seed: int, probe: Probe,
            rec: Optional[SpanRecorder] = None) -> Outcome:
    out = Outcome(attempted=spec.sites * spec.ops_per_site)
    before = reference_s(REF_REPEATS)
    t0 = clock()
    session = build_sim(spec, seed)
    out.setup_s = clock() - t0
    start = clock()
    if rec is None:
        probe.pace_from(start)
    events = session.run()
    end = clock()
    after = reference_s(REF_REPEATS)
    out.wall_s = end - start - probe.paced_s()
    out.drain_s = end - probe.last_edit - sum(b - a for a, b, _ in probe.paces
                                              if a >= probe.last_edit)
    out.integrate_ms = [1000.0 * s for s in probe.arrival_s]
    out.setup_nominal_s = out.setup_s * REF_NOMINAL_S / before
    wall, arrivals = probe.at_nominal_speed(start, end, before, after)
    out.wall_nominal_s = wall
    out.integrate_nominal_ms = [1000.0 * s for s in arrivals]
    out.slowdown = out.wall_s / wall
    check_sim(session, spec, probe, out)
    if rec is not None:
        out.layers = sim_layers(session, rec, events, out)
    return out


def sim_layers(session: Any, rec: SpanRecorder, events: int, out: Outcome) -> dict[str, float]:
    stats = session.wire_stats()
    endpoints = session.participants()
    rel = [e.rel_stats for e in endpoints if hasattr(e, "rel_stats")]
    peak = 0
    for endpoint in endpoints:
        queue = getattr(endpoint, "hold_back", None)
        if queue is None:
            queue = getattr(getattr(endpoint, "transport", None), "_holdback", None)
        if queue is not None:
            peak = max(peak, int(queue.max_held))
    return {
        "checks.records": float(len(session.all_checks())),
        "history.len_max": float(max((len(e.hb) for e in endpoints if hasattr(e, "hb")),
                                     default=0)),
        "transport.bytes": float(stats.total_bytes),
        "channel.messages": float(stats.messages),
        "simulator.events": float(events),
        "reliability.retransmits": float(sum(r.retransmits for r in rel)),
        "reliability.goodput_ratio": _goodput(sum(r.sent for r in rel),
                                              sum(r.retransmits for r in rel)),
        "reliability.lost_edits": float(out.lost_to_crash),
        "holdback.high_water": float(peak),
    }


def _goodput(first: int, retransmits: int) -> float:
    """First transmissions over all data transmissions (1 if none)."""
    return first / (first + retransmits) if first + retransmits else 1.0


# -- the wire session ----------------------------------------------------------------


def run_wire(spec: WireWorkload, seed: int, probe: Probe,
             rec: Optional[SpanRecorder] = None,
             endpoints: Optional[list[Any]] = None) -> Outcome:
    from repro.cluster.client import run_client
    from repro.cluster.harness import ClusterConfig
    from repro.cluster.serve import serve
    from repro.workloads.random_session import generate_random_edits

    config = ClusterConfig(clients=spec.sites, ops_per_client=spec.ops_per_site,
                           seed=seed, timeout_s=60.0)
    out = Outcome(attempted=config.total_ops)
    out_dir = OUT / f"wire-{os.getpid()}"
    shutil.rmtree(out_dir, ignore_errors=True)
    out_dir.mkdir(parents=True)
    tasks: dict[Any, int] = {}
    marks: dict[str, float] = {}

    async def body() -> list[bool]:
        loop = asyncio.get_running_loop()
        port: asyncio.Future[int] = loop.create_future()
        server = asyncio.ensure_future(serve(config, out_dir, on_port=port))
        clients = []
        for site in range(1, spec.sites + 1):
            task = asyncio.ensure_future(run_client(config, site, await port, out_dir))
            tasks[task] = site
            clients.append(task)
        while len(probe.connected) < spec.sites:
            await asyncio.sleep(0.001)
        marks["connected"] = clock()
        return list(await asyncio.gather(server, *clients))

    try:
        before = reference_s(REF_REPEATS)
        start = clock()
        ok = asyncio.run(body())
        end, end_wall = clock(), time.time()
        after = reference_s(REF_REPEATS)
        out.setup_s = marks["connected"] - start
        out.wall_s = end - marks["connected"]
        out.slowdown = (before + after) / 2 / REF_NOMINAL_S
        out.setup_nominal_s = out.setup_s * REF_NOMINAL_S / before
        if not all(ok):
            out.problems.append("a cluster process timed out")
        intents = generate_random_edits(config.session_config())
        due = {site: [probe.sched_epoch[task] + i.time * config.time_scale
                      for i in intents if i.site == site]
               for task, site in tasks.items()}
        draws = {tasks[task]: times for task, times in probe.draws.items()}
        out.drain_s = end_wall - max(t for times in due.values() for t in times)
        check_wire(out_dir, config, due, out)
        out.wall_nominal_s = out.wall_s
        out.integrate_ms = [1000.0 * s for s in probe.arrival_s]
        out.integrate_nominal_ms = [x / out.slowdown for x in out.integrate_ms]
        if rec is not None:
            out.layers.update(wire_layers(endpoints or [], due, draws))
            out.layers["traced_wall_s"] = end - start
        return out
    finally:
        shutil.rmtree(out_dir, ignore_errors=True)


def check_wire(out_dir: Path, config: Any, due: dict[int, list[float]],
               out: Outcome) -> None:
    """Compare the replicas' artifacts and measure due -> execution."""
    from repro.cluster.harness import read_artifacts

    results = {}
    executed_at: dict[int, dict[str, float]] = {}
    for site in range(config.clients + 1):
        result, events = read_artifacts(out_dir, site)
        results[site] = result
        executed_at[site] = {e.op_id: e.time for e in events
                             if e.kind.value == "executed" and e.op_id}
    documents = {r.document for r in results.values()}
    if len(documents) != 1:
        out.problems.append("replica documents differ")
    if any(r.timed_out for r in results.values()):
        out.problems.append("a replica timed out")
    out.lost_to_crash = sum(r.lost_local_edits for r in results.values())
    executed_everywhere = min(r.executed_ops for r in results.values())
    out.failed = out.attempted - out.lost_to_crash - executed_everywhere
    if out.problems:  # a session that went wrong fails every op it owed
        out.failed = out.attempted - out.lost_to_crash
    if out.failed:
        out.problems.append(f"{out.failed} ops not executed at every replica")
    # Each op's latency: from its scheduled due time at the origin client
    # to its execution at every other client.
    for site, times in due.items():
        for k, due_at in enumerate(times, start=1):
            op_id = f"c{site}_{k}'"
            for other in range(1, config.clients + 1):
                if other == site:
                    continue
                at = executed_at[other].get(op_id)
                if at is None:
                    out.problems.append(f"{op_id} never executed at site {other}")
                else:
                    out.due_to_exec_ms.append(1000.0 * (at - due_at))
    out.digest = digest(next(iter(documents)))
    out.messages = sum(r.messages_sent for r in results.values())
    out.layers["transport.bytes"] = float(sum(r.wire_bytes for r in results.values()))
    out.layers["channel.messages"] = float(out.messages)
    out.layers["checks.records"] = float(sum(len(r.checks) for r in results.values()))
    out.layers["harness.artifact_mb"] = sum(p.stat().st_size
                                            for p in out_dir.iterdir()) / 1e6


def wire_layers(endpoints: list[Any], due: dict[int, list[float]],
                draws: dict[int, list[float]]) -> dict[str, float]:
    late = sorted(1000.0 * (d - t) for site, times in due.items()
                  for t, d in zip(times, draws.get(site, [])))
    return {
        "history.len_max": float(max((len(e.hb) for e in endpoints if hasattr(e, "hb")),
                                     default=0)),
        "reliability.retransmits": float(sum(e.rel_stats.retransmits for e in endpoints)),
        "reliability.goodput_ratio": _goodput(sum(e.rel_stats.sent for e in endpoints),
                                              sum(e.rel_stats.retransmits for e in endpoints)),
        "reliability.lost_edits": float(sum(e.rel_stats.lost_local_edits for e in endpoints)),
        "holdback.high_water": float(max((e.transport.holdback_high_water()
                                          for e in endpoints), default=0)),
        "scheduler.late_p95_ms": percentile(late, 95) if late else 0.0,
    }


# -- one session, as a fresh interpreter runs it --------------------------------------


def edit_schedule(spec: Workload, seed: int) -> list[Any]:
    """The seeded edit intents (site, due time, draw seed) of a session."""
    from repro.workloads.random_session import RandomSessionConfig, generate_random_edits

    return generate_random_edits(RandomSessionConfig(n_sites=spec.sites,
                                                     ops_per_site=spec.ops_per_site,
                                                     seed=seed))


def run_session(spec: Workload, seed: int, mode: str,
                spans_path: Optional[Path] = None) -> Outcome:
    """Run one session of workload ``spec``.

    ``mode`` is ``run`` (the untraced, measured session) or ``traced``
    (the same session with every layer wrapped; fills ``Outcome.layers``).
    Set-up is timed from after the program's imports, which the
    interpreter caches and which are no part of a session.
    """
    import repro.cluster.serve  # noqa: F401
    import repro.editor  # noqa: F401
    import repro.net.faults  # noqa: F401

    probe = Probe()
    probe.install()
    rec = SpanRecorder() if mode == "traced" else None
    patches = Patches()
    endpoints: list[Any] = []
    if rec is not None:
        install_layers(rec, patches, endpoints)
        rec.start_gc_timing()
    try:
        if isinstance(spec, SimWorkload):
            out = run_sim(spec, seed, probe, rec)
        else:
            out = run_wire(spec, seed, probe, rec, endpoints)
    except Exception as exc:  # the session itself failed: count every op
        attempted = spec.sites * spec.ops_per_site
        out = Outcome(attempted=attempted, failed=attempted)
        out.problems.append(f"{type(exc).__name__}: {exc}")
    finally:
        if rec is not None:
            rec.stop_gc_timing()
        patches.restore()
        probe.restore()
    out.correct = not out.problems
    out.peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    if rec is None or not out.correct:
        out.layers = {}
    else:
        finish_layers(rec, out)
        if spans_path is not None:
            rec.write(spans_path)
    return out


def finish_layers(rec: SpanRecorder, out: Outcome) -> None:
    """Add the span/counter-derived metrics and the closure terms."""
    layers = out.layers
    selfs = rec.self_times()
    for name, metric in SPAN_NAMES.items():
        layers[metric] = selfs.get(name, 0.0)
    evals, hits = rec.counter("concurrency")
    layers["concurrency.evals"] = float(evals)
    layers["concurrency.evals_per_op"] = evals / out.attempted
    layers["concurrency.hit_ratio"] = hits / evals if evals else 0.0
    layers["ot.transforms"] = float(rec.span_count("ot.transform"))
    layers["mesh.got_transform.calls"] = float(rec.span_count("mesh.got_transform"))
    layers["vector.compares"] = float(rec.counter("vector.compares")[0])
    layers["holdback.holds"] = float(rec.counter("holdback.holds")[0])
    frames, frame_bytes = rec.counter("wire.frames")
    layers["wire.frames"] = float(frames)
    layers["wire.bytes"] = float(frame_bytes)
    layers["tracer.events"] = float(rec.span_count("tracer.emit"))
    layers["gc.pause_s"] = rec.gc_pause_s
    # Sim spans all fall inside ``run()``; the wire's start with the loop.
    wall = layers.setdefault("traced_wall_s", out.wall_s)
    layers["unattributed_s"] = wall - sum(selfs.values())
