"""The three comparison systems over identical data, and what each one pays
in bytes for the same collect query.

Run: python demos/05_baseline_systems.py
"""

from syncmesh.baselines import CentralBaseline, P2PBaseline, ShardedBaseline
from syncmesh.bench import (
    _scenario_gather_timeout, generate_synthetic, ingest_csv_text)
from syncmesh.model import QueryRequest, Scope, TimeRange
from syncmesh.netsim import Network, build_topology
from syncmesh.payloads import fingerprint
from syncmesh.store import LocalStore
from syncmesh.wire import encode_readings

text = generate_synthetic(n_sensors=3, days=7, readings_per_sensor_per_day=48, seed=5)
manifest, partitions = ingest_csv_text(text, 3)
full = TimeRange(1, manifest.time_end + 1)
req = QueryRequest(request_id="q", range=full, scope=Scope.MESH)
deadline = _scenario_gather_timeout(manifest)  # how long a gather waits


def fresh(with_server):
    return Network(build_topology(3, seed=5, with_server=with_server))


# central: everything moves to the cloud first, then the client pulls it back.
net = fresh(True)
central = CentralBaseline(net, partitions)
ingest_ms = central.ingest()
resp, rtt = central.query(req, net.clock + 100.0)
print(f"central: ingest {ingest_ms:.0f} ms, query {rtt:.0f} ms, "
      f"{net.ledger.total():,} total bytes")

# sharded: data stays put; a router unifies shard answers.
net = fresh(True)
sharded = ShardedBaseline(net, {
    nid: (lambda s: (s.load_many(rs), s)[1])(LocalStore(nid))
    for nid, rs in partitions.items()
}, gather_timeout_ms=deadline)
resp, rtt = sharded.query(req, 0.0)
print(f"sharded: no ingest, query {rtt:.0f} ms, "
      f"{net.ledger.total():,} total bytes")

# p2p: full replication, uncompressed, every data envelope echoed back.
net = fresh(False)
p2p = P2PBaseline(net, partitions, gather_timeout_ms=deadline)
sync_ms = p2p.sync()
resp, rtt = p2p.client_collect(req, net.clock + 100.0)
digests = {fingerprint(encode_readings(r.all_readings()))
           for r in p2p.replicas.values()}
print(f"p2p: sync {sync_ms:.0f} ms ({len(digests)} distinct replica digest), "
      f"query {rtt:.0f} ms, {net.ledger.total():,} total bytes")

print(f"\nall systems returned {len(resp.payload)} readings for the same query")
