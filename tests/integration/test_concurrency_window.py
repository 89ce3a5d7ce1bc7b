"""The pending window is the star's concurrency check; the formula sweep
verifies it.

A default :class:`StarSession` decides concurrency from the receiver's
unacknowledged window alone (a client's ``pending``, the notifier's
``sent_to[source]``).  These tests pin that cost -- zero formula
evaluations and zero check records -- and show that the opt-in verifier
(``verify_with_oracle``) still runs the paper's formulas over the whole
history buffer and refuses a window that disagrees with them.
"""

import random

import pytest

import repro.editor.star_client as client_mod
import repro.editor.star_notifier as notifier_mod
from repro.editor.star import StarSession
from repro.net.channel import FixedLatency, UniformLatency
from repro.obs import PhaseProfiler, activated
from repro.ot.operations import Insert
from repro.session.base import ConsistencyError
from repro.workloads.random_session import RandomSessionConfig, drive_star_session

N_SITES = 8
OPS_PER_SITE = 50
SEED = 1


def seeded_session(**kwargs) -> StarSession:
    config = RandomSessionConfig(n_sites=N_SITES, ops_per_site=OPS_PER_SITE, seed=SEED)

    def latency_factory(src, dst):
        return UniformLatency(0.01, 1.5, random.Random(SEED * 31 + src * 7 + dst))

    session = StarSession(
        N_SITES,
        initial_state=config.initial_document,
        latency_factory=latency_factory,
        **kwargs,
    )
    drive_star_session(session, config)
    return session


@pytest.fixture
def formula_calls(monkeypatch):
    """Count formula (5)/(7) evaluations at the names the editors call."""
    calls = {"client": 0, "notifier": 0}

    def counting(name, fn):
        def wrapper(*args, **kwargs):
            calls[name] += 1
            return fn(*args, **kwargs)
        return wrapper

    monkeypatch.setattr(client_mod, "client_concurrent",
                        counting("client", client_mod.client_concurrent))
    monkeypatch.setattr(notifier_mod, "notifier_concurrent",
                        counting("notifier", notifier_mod.notifier_concurrent))
    return calls


def history_sizes_at_arrivals(session: StarSession) -> tuple[int, int]:
    """Sum of |HB| over every arrival, at the clients and at the notifier.

    Without garbage collection a site's history is every operation it
    executed before, so an arrival at execution index ``p`` scans ``p``
    entries; every notifier execution is an arrival.
    """
    client_total = 0
    for client in session.clients:
        local_prefix = f"c{client.pid}_"
        client_total += sum(
            index for index, op_id in enumerate(client.executed_op_ids)
            if not op_id.startswith(local_prefix)
        )
    n = len(session.notifier.executed_op_ids)
    return client_total, n * (n - 1) // 2


class TestPerOpWork:
    def test_default_session_evaluates_no_formula(self, formula_calls):
        session = seeded_session()
        profiler = PhaseProfiler()
        with activated(profiler):
            session.run()
        assert session.converged() and session.quiescent()
        assert formula_calls == {"client": 0, "notifier": 0}
        assert session.all_checks() == []
        ops = N_SITES * OPS_PER_SITE
        calls = profiler.phase_calls()
        assert calls["notifier.ingest"] == ops
        assert calls["notifier.concurrency"] == ops

    def test_verifier_sweeps_the_whole_history_per_arrival(self, formula_calls):
        session = seeded_session(verify_with_oracle=True)
        session.run()
        assert session.converged() and session.quiescent()
        assert session.all_checks() == []  # verifying records nothing
        client_total, notifier_total = history_sizes_at_arrivals(session)
        assert formula_calls == {"client": client_total, "notifier": notifier_total}


def two_client_session(**kwargs) -> StarSession:
    """Sites 1 and 2 edit concurrently; every hop takes 1.0.

    Site 1's op reaches the notifier at 1.0 and is broadcast to site 2,
    arriving at 2.0; site 2's op (generated at 0.5) reaches the notifier
    at 1.5, so each is concurrent with the other's broadcast.
    """
    session = StarSession(
        2,
        initial_state="ab",
        latency_factory=lambda src, dst: FixedLatency(1.0),
        verify_with_oracle=True,
        **kwargs,
    )
    session.generate_at(1, Insert("x", 0), 0.0)
    session.generate_at(2, Insert("y", 2), 0.5)
    return session


class TestVerifierCatchesATamperedWindow:
    def test_untampered_window_passes(self):
        session = two_client_session()
        session.run()
        assert session.converged()

    def test_client_pending_window(self):
        session = two_client_session()
        client = session.client(2)
        session.sim.schedule(1.8, client.pending.clear)
        with pytest.raises(ConsistencyError, match=r"formula \(5\) concurrent set"):
            session.run()

    def test_notifier_sent_to_window(self):
        session = two_client_session()
        session.sim.schedule(1.2, session.notifier.sent_to[2].clear)
        with pytest.raises(ConsistencyError, match=r"formula \(7\) concurrent set"):
            session.run()
