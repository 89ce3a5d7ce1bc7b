"""The in-order release audit must be falsifiable.

Regression for a review finding: ``delivered_in_order()`` used to
compare two counters (``link.delivered`` and ``link.recv_next``) that
were only ever incremented together and reset together, so it was a
tautology.  It now replays an independent trace of the ``(epoch, seq)``
pairs actually released to the editor; these tests feed it every
corruption it claims to detect.
"""

from repro.net.reliability import ReliabilityConfig, ReliableEndpoint
from repro.net.simulator import Simulator


def make_endpoint() -> ReliableEndpoint:
    return ReliableEndpoint(Simulator(), 0, ReliabilityConfig())


class TestDeliveredInOrderAudit:
    def test_empty_trace_passes(self):
        assert make_endpoint().delivered_in_order()

    def test_contiguous_per_epoch_trace_passes(self):
        ep = make_endpoint()
        ep._release_trace[1] = [(0, 0), (0, 1), (0, 2), (1, 0), (1, 1)]
        ep._release_trace[2] = [(0, 0)]
        assert ep.delivered_in_order()

    def test_gap_fails(self):
        ep = make_endpoint()
        ep._release_trace[1] = [(0, 0), (0, 2)]
        assert not ep.delivered_in_order()

    def test_swap_fails(self):
        ep = make_endpoint()
        ep._release_trace[1] = [(0, 1), (0, 0)]
        assert not ep.delivered_in_order()

    def test_duplicate_release_fails(self):
        ep = make_endpoint()
        ep._release_trace[1] = [(0, 0), (0, 0), (0, 1)]
        assert not ep.delivered_in_order()

    def test_epoch_regression_fails(self):
        ep = make_endpoint()
        ep._release_trace[1] = [(1, 0), (0, 0)]
        assert not ep.delivered_in_order()

    def test_new_epoch_must_restart_at_seq_zero(self):
        ep = make_endpoint()
        ep._release_trace[1] = [(0, 0), (1, 1)]
        assert not ep.delivered_in_order()

    def test_one_bad_source_taints_the_endpoint(self):
        ep = make_endpoint()
        ep._release_trace[1] = [(0, 0), (0, 1)]
        ep._release_trace[2] = [(0, 1)]  # source 2 never released seq 0
        assert not ep.delivered_in_order()
