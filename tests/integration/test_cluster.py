"""End-to-end cluster runs: real processes, real sockets, full verdicts.

The acceptance bar of ISSUE 7: a localhost cluster of notifier + N
client *processes* converges on the same document, every concurrency
verdict agrees with the merged trace, and the trace passes the
vector-clock cross-check -- the same editor classes the simulator
tests drive, over TCP.
"""

from __future__ import annotations

import asyncio
from pathlib import Path
from typing import Any

import pytest

from repro.cluster import ClusterConfig, run_cluster
from repro.cluster.harness import read_artifacts
from repro.workloads.random_session import generate_random_edits


def test_three_client_cluster_converges(tmp_path: Path) -> None:
    config = ClusterConfig(clients=3, ops_per_client=3, seed=7,
                           timeout_s=20.0)
    report = run_cluster(config, tmp_path)
    assert report.ok, report.summary()
    assert len(report.documents) == 4  # notifier + 3 clients
    docs = set(report.documents.values())
    assert len(docs) == 1
    assert all(n == config.total_ops for n in report.executed_ops.values())
    assert report.cross_check.ok
    assert report.cross_check.pairs_checked > 0
    # Every process left its artifacts behind for post-mortems.
    for site in range(4):
        result, events = read_artifacts(tmp_path, site)
        assert result.site == site
        assert events, f"site {site} wrote an empty trace"


def test_cluster_over_reliability_protocol(tmp_path: Path) -> None:
    config = ClusterConfig(clients=2, ops_per_client=3, seed=3,
                           reliability=True, timeout_s=20.0)
    report = run_cluster(config, tmp_path)
    assert report.ok, report.summary()
    assert report.bad_releases == 0


def test_serve_and_client_in_one_loop(tmp_path: Path) -> None:
    """The process entry points also compose in-process (one event loop).

    Covers the asyncio plumbing without subprocess overhead: the serve
    coroutine announces its port on a future and the client coroutines
    dial it, all on the test's own loop.
    """
    from repro.cluster.client import run_client
    from repro.cluster.serve import serve

    config = ClusterConfig(clients=2, ops_per_client=2, seed=1,
                           timeout_s=15.0, settle_s=0.1)

    async def body() -> None:
        port_future: asyncio.Future[int] = asyncio.get_running_loop().create_future()
        server = asyncio.ensure_future(serve(config, tmp_path,
                                             on_port=port_future))
        port = await asyncio.wait_for(port_future, 10.0)
        clients = [
            asyncio.ensure_future(run_client(config, site, port, tmp_path))
            for site in (1, 2)
        ]
        results = await asyncio.wait_for(
            asyncio.gather(server, *clients), config.timeout_s + 10.0
        )
        assert all(results)

    asyncio.run(body())
    documents = {
        read_artifacts(tmp_path, site)[0].document for site in range(3)
    }
    assert len(documents) == 1


def test_a_slow_connect_fires_overdue_edits_at_once(
    tmp_path: Path, monkeypatch: pytest.MonkeyPatch,
) -> None:
    """A client's schedule clock starts before it connects.

    A connect slower than the first edit's due time (50 ms here) leaves
    edits overdue; they must fire at once rather than fail the run.
    """
    from repro.cluster import client as client_mod
    from repro.cluster.client import run_client
    from repro.cluster.serve import serve

    dial = client_mod.connect_with_backoff

    async def slow_dial(*args: Any, **kwargs: Any) -> Any:
        await asyncio.sleep(0.4)
        return await dial(*args, **kwargs)

    monkeypatch.setattr(client_mod, "connect_with_backoff", slow_dial)
    config = ClusterConfig(clients=2, ops_per_client=3, seed=1,
                           timeout_s=15.0, settle_s=0.1)
    assert max(i.time for i in generate_random_edits(config.session_config())) \
        * config.time_scale < 0.4  # every edit is overdue at connect

    async def body() -> list[bool]:
        port_future: asyncio.Future[int] = asyncio.get_running_loop().create_future()
        server = asyncio.ensure_future(serve(config, tmp_path,
                                             on_port=port_future))
        port = await asyncio.wait_for(port_future, 10.0)
        clients = [
            asyncio.ensure_future(run_client(config, site, port, tmp_path))
            for site in (1, 2)
        ]
        return list(await asyncio.wait_for(
            asyncio.gather(server, *clients), config.timeout_s + 10.0
        ))

    assert all(asyncio.run(body()))
    results = [read_artifacts(tmp_path, site)[0] for site in range(3)]
    assert len({r.document for r in results}) == 1
    assert all(r.executed_ops == config.total_ops for r in results)


def test_cluster_with_telemetry_streams_and_monitor_aggregation(
    tmp_path: Path,
) -> None:
    """ISSUE 8 acceptance, clean half: telemetry on, cross-check EXACT.

    TELEMETRY frames must actually travel the wire (the notifier's
    stream holds gossiped client frames), and the monitor's per-site
    aggregate must equal each process's final local stats.
    """
    from repro.cluster.driver import ClusterError
    from repro.cluster.harness import telemetry_path
    from repro.obs.monitor import aggregate, run_monitor, scan_dir

    config = ClusterConfig(clients=3, ops_per_client=3, seed=7,
                           timeout_s=20.0, telemetry_interval_s=0.2)
    try:
        report = run_cluster(config, tmp_path)
    except ClusterError as exc:  # pragma: no cover - loaded-host diagnostics
        pytest.fail(f"telemetry-enabled cluster failed: {exc}")
    # Telemetry on changes no verdict: the trace-vs-oracle cross-check
    # still passes EXACT on the merged trace.
    assert report.ok, report.summary()
    assert report.cross_check.ok

    # Every process wrote a telemetry stream...
    for site in range(4):
        assert telemetry_path(tmp_path, site).exists()
    by_site, health = scan_dir(tmp_path)
    assert sorted(by_site) == [0, 1, 2, 3]
    assert not any(e.verdict == "fail" for e in health)

    # ...the clients' frames were gossiped over the wire into the
    # notifier's stream (frames whose site != 0 in telemetry_0.jsonl)...
    from repro.obs.monitor import read_telemetry

    _header, notifier_stream, _events = read_telemetry(
        telemetry_path(tmp_path, 0)
    )
    assert {f.site for f in notifier_stream} > {0}

    # ...and the monitor's aggregate equals each process's final stats.
    snapshot = aggregate(by_site, health)
    assert snapshot.digests_agree
    for site in range(4):
        result, _ = read_artifacts(tmp_path, site)
        assert snapshot.ops_executed[site] == result.executed_ops
        assert snapshot.latest[site].retransmits == result.retransmits
    # The CI probe mode exits clean and leaves the artifact behind.
    assert run_monitor(tmp_path, once=True, expect_sites=4,
                       emit=lambda _: None) == 0
    assert (tmp_path / "monitor.jsonl").exists()


def test_injected_notifier_crash_without_failover_leaves_flight_recorders(
    tmp_path: Path,
) -> None:
    """The negative test: failover disabled, a crash is cleanly terminal.

    The notifier hard-exits mid-run with ``failover=False``; every
    process must dump a flight recorder, the clients must flag the dead
    peer *live* (a ``fail`` health event in their telemetry streams,
    written before the run ends), and the driver must salvage the
    artifacts by name instead of discarding the run -- the explained
    failure, not a hang or an unexplained one.
    """
    from repro.cluster.driver import ClusterError
    from repro.cluster.harness import flight_path, telemetry_path
    from repro.obs.monitor import scan_dir
    from repro.obs.tracer import read_jsonl

    config = ClusterConfig(clients=2, ops_per_client=20, seed=5,
                           time_scale=0.3, timeout_s=8.0,
                           telemetry_interval_s=0.2,
                           crash_notifier_after_s=1.5,
                           failover=False)
    with pytest.raises(ClusterError) as excinfo:
        run_cluster(config, tmp_path)
    # The failure report names the salvaged observability artifacts.
    assert "salvaged" in str(excinfo.value)
    assert "flight_0.jsonl" in str(excinfo.value)

    # A flight-recorder dump from every process, in trace format.
    for site in range(3):
        with flight_path(tmp_path, site).open() as fh:
            header, _events = read_jsonl(fh, lenient=True)
        assert header["flight_recorder"] is True
        assert header["site"] == site
    with flight_path(tmp_path, 0).open() as fh:
        header, _events = read_jsonl(fh, lenient=True)
    assert header["reason"] == "injected-crash"

    # The clients flagged the dead notifier live, before the run ended.
    _by_site, health = scan_dir(tmp_path)
    dead_flags = [e for e in health if e.kind == "peer_dead"
                  and e.verdict == "fail" and e.peer == 0]
    assert {e.site for e in dead_flags} == {1, 2}
    # The crashed notifier's own stream survived (crash-safe writes).
    assert telemetry_path(tmp_path, 0).exists()
