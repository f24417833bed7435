import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from syncmesh.netsim import (
    LATENCY_RANGE_MS,
    LINK_BANDWIDTH,
    Endpoint,
    EndpointKind,
    LinkClass,
    Network,
    NoRoute,
    TimeLimitExceeded,
    Topology,
    build_topology,
)
from syncmesh.wire import Envelope, MessageKind

# Frozen from seed 42; guards the latency PRNG and event ordering. The last
# delivery is the 64-byte heartbeat over node-01/node-02 (278.7146 ms):
# its latency plus 64 / LINK_BANDWIDTH.
GOLDEN_CLOCK = 278.76578347651025
GOLDEN_LEDGER_CSV = (
    "link_class,message_kind,bytes\n"
    "client_node,QUERY,74\n"
    "client_node,RESPONSE,164\n"
    "node_node,HEARTBEAT,64\n"
)


def two_nodes(latency=50.0):
    topo = Topology()
    topo.add_endpoint(Endpoint("node-00", EndpointKind.NODE))
    topo.add_endpoint(Endpoint("node-01", EndpointKind.NODE))
    topo.add_link("node-00", "node-01", latency)
    return topo


class TestBuildTopology:
    def test_three_nodes_without_server(self):
        topo = build_topology(3, seed=42, with_server=False)
        classes = [l.link_class for l in topo.links.values()]
        assert classes.count(LinkClass.NODE_NODE) == 3
        assert classes.count(LinkClass.CLIENT_NODE) == 3
        assert len(topo.links) == 6

    def test_three_nodes_with_server(self):
        topo = build_topology(3, seed=42, with_server=True)
        classes = [l.link_class for l in topo.links.values()]
        assert classes.count(LinkClass.NODE_NODE) == 3
        assert classes.count(LinkClass.CLIENT_NODE) == 3
        assert classes.count(LinkClass.NODE_SERVER) == 3
        assert classes.count(LinkClass.CLIENT_SERVER) == 1

    def test_same_seed_same_latencies(self):
        a = build_topology(6, seed=9, with_server=True)
        b = build_topology(6, seed=9, with_server=True)
        assert {k: l.latency_ms for k, l in a.links.items()} == \
               {k: l.latency_ms for k, l in b.links.items()}

    def test_different_seed_different_latencies(self):
        a = build_topology(3, seed=1)
        b = build_topology(3, seed=2)
        assert {k: l.latency_ms for k, l in a.links.items()} != \
               {k: l.latency_ms for k, l in b.links.items()}

    @given(st.integers(min_value=0, max_value=10_000))
    @settings(max_examples=80)
    def test_latency_range_property(self, seed):
        topo = build_topology(3, seed=seed, with_server=True)
        lo, hi = LATENCY_RANGE_MS
        for link in topo.links.values():
            assert lo <= link.latency_ms <= hi


class TestSend:
    def test_delivery_time_and_accounting(self):
        net = Network(two_nodes(50.0))
        ev = net.send(Envelope(kind=MessageKind.QUERY, sender="node-00",
                               receiver="node-01", body=b"x" * 100), 0.0)
        assert ev.deliver_at == 164 / LINK_BANDWIDTH + 50.0
        assert net.ledger.get(LinkClass.NODE_NODE, MessageKind.QUERY) == 164

    def test_unlinked_pair_is_no_route(self):
        topo = two_nodes()
        topo.add_endpoint(Endpoint("node-02", EndpointKind.NODE))
        net = Network(topo)
        with pytest.raises(NoRoute):
            net.send(Envelope(kind=MessageKind.QUERY, sender="node-00",
                              receiver="node-02"), 0.0)

    def test_two_sends_accumulate(self):
        net = Network(two_nodes())
        net.send(Envelope(kind=MessageKind.QUERY, sender="node-00",
                          receiver="node-01", body=b"a" * 10), 0.0)
        net.send(Envelope(kind=MessageKind.QUERY, sender="node-01",
                          receiver="node-00", body=b"b" * 30), 0.0)
        assert net.ledger.get(LinkClass.NODE_NODE, MessageKind.QUERY) == 74 + 94

    def test_conservation_across_kinds(self):
        net = Network(two_nodes())
        sizes = []
        for i, kind in enumerate([MessageKind.QUERY, MessageKind.RESPONSE,
                                  MessageKind.GOSSIP, MessageKind.QUERY]):
            env = Envelope(kind=kind, sender="node-00", receiver="node-01",
                           body=b"z" * (10 * i))
            sizes.append(env.wire_size)
            net.send(env, 0.0)
        assert net.ledger.total() == sum(sizes)

    def test_bandwidth_serializes_same_link(self):
        # 1,250 bytes on the wire: 1 ms at LINK_BANDWIDTH.
        net = Network(two_nodes(50.0))
        e1 = net.send(Envelope(kind=MessageKind.INGEST, sender="node-00",
                               receiver="node-01", body=b"x" * 1186), 0.0)
        e2 = net.send(Envelope(kind=MessageKind.INGEST, sender="node-00",
                               receiver="node-01", body=b"x" * 1186), 0.0)
        assert e1.envelope.wire_size == LINK_BANDWIDTH
        assert e1.deliver_at == pytest.approx(1.0 + 50.0)
        assert e2.deliver_at == pytest.approx(2.0 + 50.0)   # queued behind e1

    def test_serialization_is_per_direction(self):
        net = Network(two_nodes(50.0))
        out = net.send(Envelope(kind=MessageKind.INGEST, sender="node-00",
                                receiver="node-01", body=b"x" * 1186), 0.0)
        back = net.send(Envelope(kind=MessageKind.INGEST, sender="node-01",
                                 receiver="node-00", body=b"y" * 36), 0.0)
        # Opposite directions do not queue behind each other...
        assert out.deliver_at == out.envelope.wire_size / LINK_BANDWIDTH + 50.0
        assert back.deliver_at == back.envelope.wire_size / LINK_BANDWIDTH + 50.0
        # ...but a second send in one direction queues behind the first.
        again = net.send(Envelope(kind=MessageKind.INGEST, sender="node-01",
                                  receiver="node-00", body=b"z" * 36), 0.0)
        assert again.deliver_at == pytest.approx(
            2 * back.envelope.wire_size / LINK_BANDWIDTH + 50.0)


class TestRunUntilQuiescent:
    def test_empty_queue_keeps_clock(self):
        net = Network(two_nodes())
        assert net.run_until_quiescent() == 0.0

    def test_single_event_advances_clock(self):
        net = Network(two_nodes(50.0))
        net.send(Envelope(kind=MessageKind.QUERY, sender="node-00",
                          receiver="node-01"), 0.0)
        assert net.run_until_quiescent() == 64 / LINK_BANDWIDTH + 50.0

    def test_request_response_pair(self):
        net = Network(two_nodes(50.0))

        def answer(net_, env, now):
            if env.kind is MessageKind.QUERY:
                net_.send(Envelope(kind=MessageKind.RESPONSE, sender="node-01",
                                   receiver="node-00"), now)

        net.register("node-01", answer)
        net.send(Envelope(kind=MessageKind.QUERY, sender="node-00",
                          receiver="node-01"), 0.0)
        # 64 bytes each way: the query arrives, then the response is sent.
        arrived = 64 / LINK_BANDWIDTH + 50.0
        assert net.run_until_quiescent() == arrived + 64 / LINK_BANDWIDTH + 50.0

    def test_limit_exceeded(self):
        net = Network(two_nodes(50.0))
        net.send(Envelope(kind=MessageKind.QUERY, sender="node-00",
                          receiver="node-01"), 0.0)
        with pytest.raises(TimeLimitExceeded):
            net.run_until_quiescent(limit=10.0)

    def test_insertion_order_breaks_ties(self):
        net = Network(two_nodes(50.0))
        seen = []
        net.call_at(5.0, lambda n, t: seen.append("first"))
        net.call_at(5.0, lambda n, t: seen.append("second"))
        net.run_until_quiescent()
        assert seen == ["first", "second"]

    def test_cancelled_event_neither_runs_nor_moves_clock(self):
        net = Network(two_nodes(50.0))
        seen = []
        net.call_at(5.0, lambda n, t: seen.append("kept"))
        net.cancel(net.call_at(9.0, lambda n, t: seen.append("cancelled")))
        assert net.run_until_quiescent() == 5.0
        assert seen == ["kept"]

    def test_cancelled_event_beyond_limit_is_not_pending(self):
        net = Network(two_nodes(50.0))
        net.cancel(net.call_at(100.0, lambda n, t: None))
        assert net.run_until_quiescent(limit=10.0) == 0.0


class TestAvailability:
    def test_down_node_never_responds(self):
        net = Network(two_nodes(50.0))
        answered = []
        net.register("node-01", lambda n, e, t: answered.append(e))
        net.set_available("node-01", False)
        net.send(Envelope(kind=MessageKind.QUERY, sender="node-00",
                          receiver="node-01"), 0.0)
        net.run_until_quiescent()
        assert answered == []

    def test_down_then_up_answers_again(self):
        net = Network(two_nodes(50.0))
        answered = []
        net.register("node-01", lambda n, e, t: answered.append(e))
        net.set_available("node-01", False)
        net.send(Envelope(kind=MessageKind.QUERY, sender="node-00",
                          receiver="node-01"), 0.0)
        net.run_until_quiescent()
        net.set_available("node-01", True)
        net.send(Envelope(kind=MessageKind.QUERY, sender="node-00",
                          receiver="node-01"), net.clock)
        net.run_until_quiescent()
        assert len(answered) == 1

    def test_bytes_sent_to_a_down_receiver_are_counted(self):
        net = Network(two_nodes(50.0))
        net.set_available("node-01", False)
        entry = net.send(Envelope(kind=MessageKind.QUERY, sender="node-00",
                                  receiver="node-01", body=b"x" * 36), 0.0)
        net.run_until_quiescent()
        assert entry.delivered is False
        assert net.envelope_log == [entry]
        assert net.ledger.get(LinkClass.NODE_NODE, MessageKind.QUERY) == 100

    def test_down_sender_transmits_nothing(self):
        net = Network(two_nodes(50.0))
        net.set_available("node-00", False)
        ev = net.send(Envelope(kind=MessageKind.HEARTBEAT, sender="node-00",
                               receiver="node-01"), 0.0)
        assert ev is None
        assert net.ledger.total() == 0


class TestDeterminism:
    def _run(self):
        net = Network(build_topology(3, seed=42, with_server=False))
        net.send(Envelope(kind=MessageKind.QUERY, sender="client",
                          receiver="node-00", body=b"q" * 10), 0.0)
        net.send(Envelope(kind=MessageKind.HEARTBEAT, sender="node-01",
                          receiver="node-02"), 0.0)
        net.send(Envelope(kind=MessageKind.RESPONSE, sender="node-00",
                          receiver="client", body=b"r" * 100), 5.0)
        clock = net.run_until_quiescent()
        return clock, net.ledger.to_csv()

    def test_golden_run(self):
        clock, csv_text = self._run()
        assert clock == GOLDEN_CLOCK
        assert csv_text == GOLDEN_LEDGER_CSV

    def test_two_runs_identical(self):
        assert self._run() == self._run()


def test_ledger_csv_format():
    net = Network(build_topology(2, seed=0))
    net.send(Envelope(kind=MessageKind.HEARTBEAT, sender="node-00",
                      receiver="node-01"), 0.0)
    for node_id in ("node-00", "node-01"):
        net.send(Envelope(kind=MessageKind.QUERY, sender="client",
                          receiver=node_id), 0.0)
    assert net.ledger.to_csv() == (
        "link_class,message_kind,bytes\n"
        "client_node,QUERY,128\n"
        "node_node,HEARTBEAT,64\n"
    )


def test_client_client_link_has_no_class():
    topo = Topology()
    topo.add_endpoint(Endpoint("c1", EndpointKind.CLIENT))
    topo.add_endpoint(Endpoint("c2", EndpointKind.CLIENT))
    with pytest.raises(NoRoute):
        topo.add_link("c1", "c2", 10.0)
