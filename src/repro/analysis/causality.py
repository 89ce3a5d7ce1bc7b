"""Ground-truth causality oracle (paper Definitions 1 and 2).

Builds the happened-before relation over operations two independent
ways and cross-checks them:

* **vector clocks**: generation-event clocks from the
  :class:`repro.clocks.events.EventLog` compared with the standard
  partial order;
* **explicit DAG**: the log's generations and executions passed through
  the bitset DAG builder of :class:`repro.obs.analysis.TraceCausality`
  -- program-order edges within each site and an edge from every
  operation's generation to each of its executions, so Definition 1
  case 2 is reachability from ``generate(O_a)`` to ``generate(O_b)``.

These are the repo's only two happens-before derivations; the simulator
and the cluster both check recorded traces against them.  The compressed
scheme's verdicts are validated against this oracle in the integration
and property tests; disagreement between the two constructions
themselves fails loudly (:class:`OracleInconsistency`).
"""

from __future__ import annotations

from typing import Hashable

from repro.clocks.events import EventKind, EventLog
from repro.clocks.vector import Ordering, compare
from repro.obs.analysis import TraceCausality
from repro.obs.tracer import TraceEvent, TraceEventKind

_TRACE_KIND = {
    EventKind.GENERATE: TraceEventKind.GENERATED,
    EventKind.EXECUTE: TraceEventKind.EXECUTED,
}


class OracleInconsistency(AssertionError):
    """The two independent ground-truth constructions disagree."""


class CausalityOracle:
    """Answers happened-before / concurrency queries over an event log."""

    def __init__(self, log: EventLog) -> None:
        self.log = log
        self._generation = {
            event.op_id: event
            for event in log.events
            if event.kind is EventKind.GENERATE
        }
        # The DAG builder keys operations by string id; numbering them in
        # generation order lets any hashable op id through unchanged.
        self._name = {op: str(i) for i, op in enumerate(self._generation)}
        self._dag = TraceCausality(
            [
                TraceEvent(
                    index=i,
                    kind=_TRACE_KIND[event.kind],
                    time=0.0,
                    site=event.site,
                    op_id=self._name[event.op_id],
                )
                for i, event in enumerate(log.events)
            ]
        )

    # -- queries over operations ----------------------------------------------

    def happened_before(self, op_a: Hashable, op_b: Hashable) -> bool:
        """Definition 1: ``O_a -> O_b``.

        Computed by DAG reachability from ``generate(O_a)`` to
        ``generate(O_b)`` and cross-checked against vector clocks.
        """
        dag_answer = self._dag.happened_before(self._name[op_a], self._name[op_b])
        clocks = self.log.clocks
        vc_answer = (
            compare(clocks[self._generation[op_a]], clocks[self._generation[op_b]])
            is Ordering.BEFORE
        )
        if dag_answer != vc_answer:
            raise OracleInconsistency(
                f"DAG says {op_a} -> {op_b} is {dag_answer}, vector clocks say "
                f"{vc_answer}"
            )
        return dag_answer

    def concurrent(self, op_a: Hashable, op_b: Hashable) -> bool:
        """Definition 2: ``O_a || O_b``."""
        if op_a == op_b:
            return False
        return not self.happened_before(op_a, op_b) and not self.happened_before(
            op_b, op_a
        )

    def causal_pairs(self) -> set[tuple[Hashable, Hashable]]:
        """All ordered pairs ``(a, b)`` with ``a -> b``."""
        ops = list(self._name)
        return {
            (a, b)
            for a in ops
            for b in ops
            if a != b and self.happened_before(a, b)
        }

    def concurrent_pairs(self) -> set[frozenset]:
        """All unordered concurrent pairs."""
        ops = list(self._name)
        out = set()
        for i, a in enumerate(ops):
            for b in ops[i + 1 :]:
                if self.concurrent(a, b):
                    out.add(frozenset((a, b)))
        return out
