"""Transport wiring errors and the consolidated retransmit policy.

Satellites of ISSUE 7: a transport used before its I/O hooks are
attached must fail with a :class:`TransportError` naming the miswired
endpoint (not a bare ``RuntimeError``), and every retransmit knob lives
in one frozen :class:`RetransmitPolicy`, set only through
``ReliabilityConfig(retransmit=...)``.
"""

from __future__ import annotations

import pytest

from repro.net.reliability import (
    RawTransport,
    ReliabilityConfig,
    ReliableEndpoint,
    RetransmitPolicy,
    TransportError,
)
from repro.net.simulator import Simulator
from repro.net.transport import Envelope


def test_unwired_raw_transport_send_names_the_endpoint() -> None:
    transport = RawTransport(pid=3)
    with pytest.raises(TransportError, match=r"pid=3.*wire_send"):
        transport.send(0, None, kind="op")


def test_unwired_raw_transport_delivery_names_the_endpoint() -> None:
    transport = RawTransport(pid=2)
    envelope = Envelope(source=0, dest=2, payload=None,
                        timestamp_bytes=0, kind="op")
    with pytest.raises(TransportError, match=r"pid=2.*deliver"):
        transport.on_wire(envelope)


def test_unwired_reliable_endpoint_raises_transport_error() -> None:
    endpoint = ReliableEndpoint(Simulator(), 1, ReliabilityConfig())
    with pytest.raises(TransportError, match=r"pid=1"):
        endpoint.send(0, None, kind="op")


def test_transport_error_is_a_runtime_error() -> None:
    # Callers that caught RuntimeError before the rename keep working.
    assert issubclass(TransportError, RuntimeError)


def test_wired_transport_does_not_raise() -> None:
    sent: list[tuple[int, str]] = []
    transport = RawTransport(
        wire_send=lambda dest, payload, ts, kind: sent.append((dest, kind)),
        deliver=lambda envelope: None,
        pid=1,
    )
    transport.send(0, None, kind="op")
    assert sent == [(0, "op")]


# -- RetransmitPolicy ----------------------------------------------------------


@pytest.mark.parametrize(
    "kwargs",
    [
        {"base_rto": 0.0},
        {"base_rto": -1.0},
        {"max_rto": 0.1, "base_rto": 0.5},  # max below base
        {"backoff": 0.5},
        {"max_retries": 0},
    ],
)
def test_malformed_policy_rejected(kwargs) -> None:
    with pytest.raises(ValueError):
        RetransmitPolicy(**kwargs)
