"""Unit tests for topologies and transport accounting (repro.net)."""

import pytest

from repro.net.process import SimProcess
from repro.net.simulator import Simulator
from repro.net.topology import MeshTopology, StarTopology
from repro.net.transport import Envelope, measure_payload_bytes
from repro.ot.component import TextOperation
from repro.ot.operations import Delete, Identity, Insert, OperationGroup


class Collector(SimProcess):
    def __init__(self, sim, pid):
        super().__init__(sim, pid)
        self.inbox = []

    def on_message(self, envelope):
        self.inbox.append(envelope)


class TestStarTopology:
    def test_wiring_is_star_shaped(self):
        sim = Simulator()
        procs = [Collector(sim, i) for i in range(4)]
        topo = StarTopology(sim, procs)
        # 3 clients * 2 directions
        assert topo.edge_count() == 6
        assert (1, 2) not in topo.channels
        assert (0, 3) in topo.channels and (3, 0) in topo.channels

    def test_clients_cannot_reach_each_other_directly(self):
        sim = Simulator()
        procs = [Collector(sim, i) for i in range(3)]
        StarTopology(sim, procs)
        with pytest.raises(KeyError):
            procs[1].send(2, "hi")

    def test_center_must_be_pid_zero(self):
        sim = Simulator()
        procs = [Collector(sim, 5), Collector(sim, 1)]
        with pytest.raises(ValueError):
            StarTopology(sim, procs)

    def test_needs_at_least_one_client(self):
        sim = Simulator()
        with pytest.raises(ValueError):
            StarTopology(sim, [Collector(sim, 0)])

    def test_message_roundtrip(self):
        sim = Simulator()
        procs = [Collector(sim, i) for i in range(3)]
        StarTopology(sim, procs)
        procs[1].send(0, "up")
        procs[0].send(2, "down")
        sim.run()
        assert [e.payload for e in procs[0].inbox] == ["up"]
        assert [e.payload for e in procs[2].inbox] == ["down"]

    def test_total_stats_aggregates(self):
        sim = Simulator()
        procs = [Collector(sim, i) for i in range(3)]
        topo = StarTopology(sim, procs)
        procs[1].send(0, "x", timestamp_bytes=8)
        procs[2].send(0, "y", timestamp_bytes=8)
        sim.run()
        stats = topo.total_stats()
        assert stats.messages == 2
        assert stats.timestamp_bytes == 16
        assert topo.fifo_respected()

    def test_duplicate_channel_rejected(self):
        sim = Simulator()
        proc = Collector(sim, 0)
        proc.attach_channel(1, object())
        with pytest.raises(ValueError):
            proc.attach_channel(1, object())


class TestMeshTopology:
    def test_fully_connected(self):
        sim = Simulator()
        procs = [Collector(sim, i) for i in range(4)]
        topo = MeshTopology(sim, procs)
        assert topo.edge_count() == 12  # 4*3 directed pairs
        procs[1].send(3, "direct")
        sim.run()
        assert [e.payload for e in procs[3].inbox] == ["direct"]

    def test_needs_two_sites(self):
        sim = Simulator()
        with pytest.raises(ValueError):
            MeshTopology(sim, [Collector(sim, 0)])


class TestPayloadMeasurement:
    def test_none_is_free(self):
        assert measure_payload_bytes(None) == 0

    def test_insert_size(self):
        assert measure_payload_bytes(Insert("ab", 3)) == 1 + 4 + 2

    def test_delete_size(self):
        assert measure_payload_bytes(Delete(3, 2)) == 9

    def test_identity_size(self):
        assert measure_payload_bytes(Identity()) == 1

    def test_group_sums_members(self):
        group = OperationGroup((Delete(1, 0), Delete(1, 2)))
        assert measure_payload_bytes(group) == 1 + 9 + 9

    def test_component_operation(self):
        op = TextOperation().retain(2).insert("xy").delete(1)
        assert measure_payload_bytes(op) == 1 + 4 + 3 + 4

    def test_envelope_total(self):
        env = Envelope(1, 0, Delete(3, 2), timestamp_bytes=8)
        assert env.total_bytes() == 8 + 9 + 8

    def test_envelope_ids_assigned_per_simulator(self):
        """Message ids come from the simulator at send time, so two
        sessions in one process draw identical id sequences (determinism)."""
        from repro.net.channel import FIFOChannel, FixedLatency
        from repro.net.simulator import Simulator

        sequences = []
        for _ in range(2):
            sim = Simulator()
            channel = FIFOChannel(sim, 0, 1, FixedLatency(0.01), lambda env: None)
            ids = []
            for _ in range(3):
                env = Envelope(0, 1, None)
                assert env.message_id is None
                channel.send(env)
                ids.append(env.message_id)
            sequences.append(ids)
        assert sequences[0] == sequences[1] == [0, 1, 2]

    def test_op_message_wrapper_not_pickled(self):
        """Editor wrappers are measured structurally (framing + inner op)."""
        from repro.core.timestamp import CompressedTimestamp
        from repro.editor.messages import OpMessage

        message = OpMessage(
            op=Insert("ab", 3),
            timestamp=CompressedTimestamp(1, 0),
            origin_site=2,
            op_id="O2'",
        )
        assert measure_payload_bytes(message) == 4 + 3 + 7

    def test_mesh_record_measured_structurally(self):
        from repro.clocks.vector import VectorClock
        from repro.editor.mesh import MeshOp

        record = MeshOp(op=Delete(3, 2), vc=VectorClock.of([1, 0]), site=0, seq=1)
        assert measure_payload_bytes(record) == 4 + 9

    def test_snapshot_measured_structurally(self):
        from repro.editor.messages import SnapshotMessage

        snap = SnapshotMessage(document="abcd", base_count=7)
        assert measure_payload_bytes(snap) == 4 + 5
