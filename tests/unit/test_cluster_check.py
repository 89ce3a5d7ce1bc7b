"""The cluster's trace merge and its vector-clock cross-check.

Per-process traces arrive with private indices and same-host wall-clock
stamps; :func:`merge_traces` must produce one stream that is a
topological order of the causal DAG even when clock skew stamps an
execution *before* the generation it depends on.  The merged trace is
then replayed into an event log, whose vector clocks are the
independent derivation the trace's DAG is checked against.
"""

from __future__ import annotations

from repro.clocks.vector import Ordering, compare
from repro.cluster.check import analyze_cluster, merge_traces
from repro.cluster.harness import ProcessResult
from repro.obs.analysis import (
    TraceCausality,
    cross_check_causality,
    replay_event_log,
)
from repro.obs.tracer import TraceEvent, TraceEventKind


def _event(index: int, kind: TraceEventKind, time: float, site: int,
           **kw) -> TraceEvent:
    return TraceEvent(index=index, kind=kind, time=time, site=site, **kw)


def test_merge_orders_by_time_and_reindexes() -> None:
    a = [
        _event(0, TraceEventKind.GENERATED, 1.0, 1, op_id="1-1"),
        _event(1, TraceEventKind.EXECUTED, 3.0, 1, op_id="1-1'"),
    ]
    b = [
        _event(0, TraceEventKind.GENERATED, 0.5, 2, op_id="2-1"),
        _event(1, TraceEventKind.TRANSFORMED, 2.0, 0, op_id="1-1'",
               source_op_id="1-1"),
    ]
    merged = merge_traces([a, b])
    assert [e.index for e in merged] == [0, 1, 2, 3]
    assert [e.op_id for e in merged] == ["2-1", "1-1", "1-1'", "1-1'"]
    assert [e.time for e in merged] == [0.5, 1.0, 2.0, 3.0]


def test_merge_repairs_clock_skew_on_execution() -> None:
    # Site 1's clock runs ahead: its EXECUTED is stamped *before* the
    # notifier's TRANSFORMED that generated the op.  The merge must
    # defer the execution anyway.
    executor = [_event(0, TraceEventKind.EXECUTED, 1.0, 1, op_id="2-1'")]
    notifier = [
        _event(0, TraceEventKind.GENERATED, 0.5, 2, op_id="2-1"),
        _event(1, TraceEventKind.TRANSFORMED, 2.0, 0, op_id="2-1'",
               source_op_id="2-1"),
    ]
    merged = merge_traces([executor, notifier])
    kinds = [e.kind for e in merged]
    assert kinds.index(TraceEventKind.TRANSFORMED) \
        < kinds.index(TraceEventKind.EXECUTED)
    # The repaired stream must satisfy the strict analysis layer.
    TraceCausality(merged)


def test_merge_preserves_per_stream_program_order() -> None:
    # Stream-internal order survives even when timestamps say otherwise
    # (a site's own trace IS its program order).
    stream = [
        _event(0, TraceEventKind.GENERATED, 2.0, 1, op_id="1-1"),
        _event(1, TraceEventKind.GENERATED, 1.0, 1, op_id="1-2"),
    ]
    merged = merge_traces([stream])
    assert [e.op_id for e in merged] == ["1-1", "1-2"]


def test_merge_emits_blocked_heads_rather_than_hanging() -> None:
    # A dead process never wrote the generation; the merge must still
    # terminate (the analysis layer then reports the dangling EXECUTED).
    orphan = [_event(0, TraceEventKind.EXECUTED, 1.0, 1, op_id="ghost'")]
    merged = merge_traces([orphan])
    assert len(merged) == 1


def test_replayed_event_log_agrees_with_dag_reachability() -> None:
    K = TraceEventKind
    events = [
        # 1-1 happens-before its transform 1-1'; 2-1 is concurrent with 1-1.
        _event(0, K.GENERATED, 1.0, 1, op_id="1-1"),
        _event(1, K.GENERATED, 1.1, 2, op_id="2-1"),
        _event(2, K.EXECUTED, 1.5, 0, op_id="1-1"),
        _event(3, K.TRANSFORMED, 1.5, 0, op_id="1-1'", source_op_id="1-1"),
        _event(4, K.EXECUTED, 1.6, 0, op_id="2-1"),
        _event(5, K.TRANSFORMED, 1.6, 0, op_id="2-1'", source_op_id="2-1"),
        _event(6, K.EXECUTED, 2.0, 2, op_id="1-1'"),
        _event(7, K.EXECUTED, 2.1, 1, op_id="2-1'"),
        # Site 3 crashes and resyncs (crash epoch 1): the snapshot hands
        # it the notifier's whole history.
        _event(8, K.CRASHED, 2.2, 3),
        _event(9, K.SNAPSHOT, 2.5, 0, peer=3, epoch=1, via="resync"),
        _event(10, K.RECOVERED, 2.6, 3, peer=0, epoch=1, via="resync"),
        _event(11, K.GENERATED, 2.7, 3, op_id="3-1"),
        _event(12, K.GENERATED, 2.8, 2, op_id="2-2"),
        # The notifier dies; site 1 is promoted and re-admits site 3
        # under notifier epoch 1 -- the same (site, epoch) as the crash
        # resync, told apart only by the transfer category.
        _event(13, K.PROMOTED, 3.0, 1, epoch=1),
        _event(14, K.GENERATED, 3.1, 1, op_id="1-2"),
        _event(15, K.SNAPSHOT, 3.2, 1, peer=3, epoch=1, via="failover"),
        _event(16, K.RECOVERED, 3.3, 3, peer=1, epoch=1, via="failover"),
        _event(17, K.GENERATED, 3.4, 3, op_id="3-2"),
    ]
    log = replay_event_log(events, n_sites=4)
    clock = log.generation_clock
    assert compare(clock("1-1"), clock("1-1'")) is Ordering.BEFORE
    assert compare(clock("1-1"), clock("2-1")) is Ordering.CONCURRENT
    assert compare(clock("2-1'"), clock("3-1")) is Ordering.BEFORE  # resync
    assert compare(clock("1-2"), clock("3-2")) is Ordering.BEFORE  # failover
    assert compare(clock("1-2"), clock("3-1")) is Ordering.CONCURRENT
    assert compare(clock("2-2"), clock("3-2")) is Ordering.CONCURRENT
    report = cross_check_causality(TraceCausality(events), log)
    assert report.mode == "vector-clock"  # recoveries: the VC relation
    assert report.ok, report.summary()
    assert report.n_ops == 8
    assert report.pairs_checked == 56


def test_analyze_cluster_full_verdict() -> None:
    streams = [
        [
            _event(0, TraceEventKind.GENERATED, 1.0, 1, op_id="1-1"),
            _event(1, TraceEventKind.EXECUTED, 1.8, 1, op_id="1-1'"),
        ],
        [
            _event(0, TraceEventKind.EXECUTED, 1.4, 0, op_id="1-1"),
            _event(1, TraceEventKind.TRANSFORMED, 1.4, 0, op_id="1-1'",
                   source_op_id="1-1"),
        ],
    ]
    results = [
        ProcessResult(role="client", site=1, document="abc", executed_ops=1),
        ProcessResult(role="notifier", site=0, document="abc", executed_ops=1),
    ]
    report = analyze_cluster(results, streams, expected_ops=1, n_sites=1)
    assert report.ok, report.summary()
    assert report.converged
    assert report.executed_ops == {0: 1, 1: 1}
    assert "OK" in report.summary()


def test_analyze_cluster_flags_divergence_and_timeout() -> None:
    results = [
        ProcessResult(role="client", site=1, document="abc", executed_ops=1),
        ProcessResult(role="notifier", site=0, document="abX", executed_ops=1,
                      timed_out=True),
    ]
    report = analyze_cluster(results, [[], []], expected_ops=1, n_sites=1)
    assert not report.converged
    assert report.timed_out
    assert not report.ok
    assert "FAILED" in report.summary()


def test_process_result_json_roundtrip() -> None:
    from repro.session.base import CheckRecord

    result = ProcessResult(
        role="client", site=2, document="doc", executed_ops=5,
        checks=[CheckRecord(site=2, new_op_id="2-1", buffered_op_id="1-1",
                            verdict=True, new_timestamp=[1, 0],
                            buffered_timestamp=[0, 1])],
        timed_out=False, lost_local_edits=0, retransmits=3,
        messages_sent=9, wire_bytes=412,
    )
    restored = ProcessResult.from_json(result.to_json())
    assert restored == result
