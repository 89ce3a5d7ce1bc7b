"""The diagnostic-free fast path must behave identically.

Sessions with ``record_checks=False`` / ``verify_with_oracle=False`` (the
defaults) skip the O(|HB|) formula sweep per arrival and take the
concurrent set from the FIFO-acknowledgement window directly (see
``StarClient._handle_app_message``).  These tests pin the equivalence: same
documents, same timestamps, same wire traffic as the fully instrumented
run, on identical workloads.
"""

import pytest

from repro.editor.star import StarSession
from repro.workloads.random_session import RandomSessionConfig, drive_star_session
from repro.workloads.scripted import (
    FIG2_INITIAL_DOCUMENT,
    fig3_script,
    fig_latency_factory,
)


def run_session(seed: int, diagnostics: bool) -> StarSession:
    config = RandomSessionConfig(n_sites=5, ops_per_site=8, seed=seed)
    session = StarSession(
        5,
        initial_state=config.initial_document,
        record_events=diagnostics,
        record_checks=diagnostics,
        verify_with_oracle=diagnostics,
    )
    drive_star_session(session, config)
    session.run()
    return session


class TestFastPathEquivalence:
    @pytest.mark.parametrize("seed", range(4))
    def test_identical_outcome_with_and_without_diagnostics(self, seed):
        fast = run_session(seed, diagnostics=False)
        slow = run_session(seed, diagnostics=True)
        assert fast.documents() == slow.documents()
        assert fast.converged() and slow.converged()
        # op ids come from a process-global counter; normalise by order
        # of first appearance before comparing the broadcast streams
        def normalised(session):
            rename: dict[str, int] = {}
            out = []
            for op_id, dest, ts in session.notifier.broadcast_log:
                index = rename.setdefault(op_id, len(rename))
                out.append((index, dest, ts.as_paper_list()))
            return out

        assert normalised(fast) == normalised(slow)
        fast_stats, slow_stats = fast.wire_stats(), slow.wire_stats()
        assert fast_stats.messages == slow_stats.messages
        # total_bytes differ only through op-id string lengths (global
        # counter); timestamp traffic is identical
        assert fast_stats.timestamp_bytes == slow_stats.timestamp_bytes

    def test_fast_path_records_no_checks(self):
        session = run_session(0, diagnostics=False)
        assert session.all_checks() == []

    def test_fig3_identical_under_fast_path(self):
        session = StarSession(
            3,
            initial_state=FIG2_INITIAL_DOCUMENT,
            latency_factory=fig_latency_factory,
            record_events=False,
        )
        for item in fig3_script():
            session.generate_at(item.site, item.op, item.time, op_id=item.op_id)
        session.run()
        assert session.converged()
        assert session.documents()[0] == "12Bxy"
        # broadcasts still match the paper exactly
        from repro.workloads.scripted import FIG3_EXPECTED

        got = {
            (op_id, dest): ts.as_paper_list()
            for op_id, dest, ts in session.notifier.broadcast_log
        }
        assert got == FIG3_EXPECTED["broadcast_timestamps"]
