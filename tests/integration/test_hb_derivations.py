"""The repo's two happens-before derivations agree on recorded sessions.

Ground truth is derived exactly twice: by the vector clocks of an
:class:`~repro.clocks.events.EventLog` and by the bitset DAG of
:class:`~repro.obs.analysis.TraceCausality`.  The cluster has no live
log, so it replays its trace into one
(:func:`~repro.obs.analysis.replay_event_log`).  On a simulated session
both logs exist, so the replay can be held to the live log: for every
ordered pair of operations, the replayed generation clocks must order
the pair exactly as the live clocks do, and the trace's DAG must agree.
The scenarios cover every way causality crosses sites -- executions,
crash resync snapshots and notifier failover snapshots.
"""

from __future__ import annotations

import random

import pytest

from repro.clocks.vector import Ordering, compare
from repro.editor import StarSession
from repro.net.channel import UniformLatency
from repro.net.faults import ChannelFaults, ClientCrash, FaultPlan, NotifierCrash
from repro.net.reliability import ReliabilityConfig, RetransmitPolicy
from repro.obs.analysis import TraceCausality, replay_event_log
from repro.obs.tracer import Tracer, TraceEventKind
from repro.workloads.random_session import RandomSessionConfig, drive_star_session

N_SITES = 4


def traced_session(scenario: str, seed: int) -> tuple[StarSession, Tracer]:
    plan = None
    reliability = None
    if scenario == "lossy-crash":
        plan = FaultPlan(
            seed=seed,
            default=ChannelFaults(drop_p=0.2, dup_p=0.05),
            crashes=(ClientCrash(site=2, at=3.0, restart_at=5.0),),
        )
    elif scenario == "failover":
        plan = FaultPlan(seed=seed, notifier_crash=NotifierCrash(at=2.0))
        # A small retransmit budget so the crash is detected quickly.
        reliability = ReliabilityConfig(retransmit=RetransmitPolicy(max_retries=4))

    def latency_factory(src: int, dst: int) -> UniformLatency:
        return UniformLatency(0.02, 0.2, random.Random(seed * 1009 + src * 13 + dst))

    tracer = Tracer()
    session = StarSession(
        N_SITES,
        latency_factory=latency_factory,
        verify_with_oracle=True,
        fault_plan=plan,
        reliability=reliability,
        tracer=tracer,
    )
    drive_star_session(
        session, RandomSessionConfig(n_sites=N_SITES, ops_per_site=6, seed=seed)
    )
    session.run()
    assert session.converged(), session.documents()
    return session, tracer


@pytest.mark.parametrize("seed", range(1, 7))
@pytest.mark.parametrize("scenario", ["clean", "lossy-crash", "failover"])
def test_replayed_log_orders_every_pair_like_the_live_log_and_the_dag(
    scenario: str, seed: int
) -> None:
    session, tracer = traced_session(scenario, seed)
    recoveries = {e.via for e in tracer.by_kind(TraceEventKind.RECOVERED)}
    expected = {"clean": set(), "lossy-crash": {"resync"}, "failover": {"failover"}}
    assert recoveries == expected[scenario]

    live = session.event_log
    assert live is not None
    replayed = replay_event_log(tracer.events, live.n_sites)
    dag = TraceCausality(tracer.events)
    ops = live.op_ids()
    assert replayed.op_ids() == ops
    assert dag.ops() == ops
    for a in ops:
        for b in ops:
            if a == b:
                continue
            order = compare(live.generation_clock(a), live.generation_clock(b))
            assert (
                compare(replayed.generation_clock(a), replayed.generation_clock(b))
                is order
            ), (a, b)
            assert dag.happened_before(a, b) is (order is Ordering.BEFORE), (a, b)
