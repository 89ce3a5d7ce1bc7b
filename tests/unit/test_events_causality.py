"""Unit tests for the event log and causality oracle."""

import pytest

from repro.analysis.causality import CausalityOracle, OracleInconsistency
from repro.clocks.events import EventKind, EventLog
from repro.clocks.vector import VectorClock


def fig2_log():
    """Rebuild the paper's Fig. 2 computation as an event log.

    Sites: 0 notifier, 1..3 clients.  Original operations only (the
    notifier relays without renaming here), with executions in the
    figure's orders.
    """
    log = EventLog(4)
    log.generate(2, "O2")
    log.generate(1, "O1")
    log.execute(0, "O2")
    log.execute(0, "O1")
    log.execute(3, "O2")
    log.generate(3, "O4")
    log.execute(0, "O4")
    log.execute(1, "O2")
    log.execute(2, "O1")
    log.generate(2, "O3")
    log.execute(0, "O3")
    log.execute(3, "O1")
    log.execute(2, "O4")
    log.execute(1, "O4")
    log.execute(3, "O3")
    log.execute(1, "O3")
    return log


class TestEventLog:
    def test_generation_assigns_ticked_clock(self):
        log = EventLog(2)
        log.generate(0, "a")
        assert log.generation_clock("a") == VectorClock.of([1, 0])

    def test_execute_merges_generation_clock(self):
        log = EventLog(2)
        log.generate(0, "a")
        event = log.execute(1, "a")
        assert log.clocks[event] == VectorClock.of([1, 1])

    def test_double_generation_rejected(self):
        log = EventLog(2)
        log.generate(0, "a")
        with pytest.raises(ValueError):
            log.generate(1, "a")

    def test_execute_before_generate_rejected(self):
        with pytest.raises(ValueError):
            EventLog(2).execute(0, "ghost")

    def test_site_out_of_range(self):
        with pytest.raises(ValueError):
            EventLog(2).generate(5, "a")

    def test_op_ids_in_generation_order(self):
        log = fig2_log()
        assert log.op_ids() == ["O2", "O1", "O4", "O3"]

    def test_event_kinds_recorded(self):
        log = fig2_log()
        kinds = {event.kind for event in log.events}
        assert kinds == {EventKind.GENERATE, EventKind.EXECUTE}


class TestCausalityOracle:
    def test_fig2_causal_pairs(self):
        """Paper Section 2.4: O1->O3, O2->O3, O2->O4 (and nothing else)."""
        oracle = CausalityOracle(fig2_log())
        assert oracle.causal_pairs() == {("O1", "O3"), ("O2", "O3"), ("O2", "O4")}

    def test_fig2_concurrent_pairs(self):
        """Paper Section 2.4: O1||O2, O1||O4, O3||O4."""
        oracle = CausalityOracle(fig2_log())
        assert oracle.concurrent_pairs() == {
            frozenset(("O1", "O2")),
            frozenset(("O1", "O4")),
            frozenset(("O3", "O4")),
        }

    def test_op_not_concurrent_with_itself(self):
        oracle = CausalityOracle(fig2_log())
        assert not oracle.concurrent("O1", "O1")

    def test_happened_before_is_irreflexive_and_antisymmetric(self):
        oracle = CausalityOracle(fig2_log())
        for a in ("O1", "O2", "O3", "O4"):
            assert not oracle.happened_before(a, a)
        assert oracle.happened_before("O2", "O3")
        assert not oracle.happened_before("O3", "O2")

    def test_same_site_program_order(self):
        log = EventLog(2)
        log.generate(0, "a")
        log.generate(0, "b")
        oracle = CausalityOracle(log)
        assert oracle.happened_before("a", "b")
        assert not oracle.concurrent("a", "b")

    def test_isolated_sites_concurrent(self):
        log = EventLog(2)
        log.generate(0, "a")
        log.generate(1, "b")
        oracle = CausalityOracle(log)
        assert oracle.concurrent("a", "b")

    def test_tampered_log_clock_raises_oracle_inconsistency(self):
        """The DAG and the vector clocks are checked against each other:
        a generation clock that forgets its causal past must be caught."""
        log = fig2_log()
        gen_o3 = next(
            e for e in log.events if e.kind is EventKind.GENERATE and e.op_id == "O3"
        )
        log.clocks[gen_o3] = VectorClock.zero(4).tick(2)  # forgets O1 and O2
        oracle = CausalityOracle(log)
        assert oracle.happened_before("O2", "O4")  # untouched pairs still agree
        with pytest.raises(OracleInconsistency, match="O1 -> O3"):
            oracle.happened_before("O1", "O3")
