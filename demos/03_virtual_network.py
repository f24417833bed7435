"""The deterministic virtual-time network: seeded latencies, an envelope
log with exact byte ledgers summed from it, availability, and reproducible
clocks.

Run: python demos/03_virtual_network.py
"""

from syncmesh.netsim import Network, build_topology
from syncmesh.wire import Envelope, MessageKind

# A full mesh of 3 nodes plus a client; latencies drawn from [20, 300] ms
# by a PRNG seeded per (seed, endpoint pair) - same seed, same network.
topo = build_topology(n_nodes=3, seed=42)
print("links:")
for (a, b), link in sorted(topo.links.items()):
    print(f"  {a:8s} <-> {b:8s} {link.latency_ms:6.1f} ms ({link.link_class.value})")

net = Network(topo)

# Register a responder and bounce one request off node-00.
def answer(net_, env, now):
    if env.kind is MessageKind.QUERY:
        net_.send(Envelope(kind=MessageKind.RESPONSE, sender=env.receiver,
                           receiver=env.sender, body=b"r" * 256,
                           request_id=env.request_id), now)

net.register("node-00", answer)
net.send(Envelope(kind=MessageKind.QUERY, sender="client", receiver="node-00",
                  body=b"q" * 64, request_id="demo"), 0.0)
clock = net.run_until_quiescent()
print(f"\nrequest/response quiescent at t={clock:.1f} ms "
      f"(two crossings of the same link)")

print("\ntraffic ledger (link class, message kind, bytes):")
print(net.ledger.to_csv())

# An unavailable node silently swallows deliveries - no reply, no error.
net.set_available("node-00", False)
net.send(Envelope(kind=MessageKind.QUERY, sender="client", receiver="node-00",
                  body=b"q", request_id="lost"), clock)
print(f"after sending to a down node, clock advances to "
      f"{net.run_until_quiescent():.1f} ms and no response ever arrives")
