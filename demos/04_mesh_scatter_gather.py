"""A working mesh: heartbeats, one coordinator fanning a query out to the
available neighbors, merged responses, churn yielding partial results, and
a query for a transformer that is not built in, dropped.

Run: python demos/04_mesh_scatter_gather.py
"""

from syncmesh.bench import generate_synthetic, ingest_csv_text
from syncmesh.model import QueryRequest, Scope, TimeRange, TransformerSpec
from syncmesh.netsim import Network, build_topology
from syncmesh.node import MeshClient, SyncMeshNode, run_query
from syncmesh.payloads import BUILTIN_TRANSFORMERS
from syncmesh.store import LocalStore

text = generate_synthetic(n_sensors=3, days=7, readings_per_sensor_per_day=48,
                          seed=3, balance_across=3)  # one sensor per node
manifest, partitions = ingest_csv_text(text, 3)

topo = build_topology(3, seed=3)
net = Network(topo)
nodes = []
for node_id, readings in sorted(partitions.items()):
    store = LocalStore(node_id)
    store.load_many(readings)
    node = SyncMeshNode(store)
    node.attach(net, topo)
    nodes.append(node)
client = MeshClient()
client.attach(net)

# Nodes announce themselves; the coordinator only contacts fresh neighbors.
for node in nodes:
    node.broadcast_heartbeat(0.0)

full = TimeRange(1, manifest.time_end + 1)
collect = QueryRequest(request_id="q-collect", range=full, scope=Scope.MESH)
resp, rtt = run_query(net, client, "node-00", collect, 500.0)
print(f"mesh collect: {len(resp.payload)} readings from "
      f"{sorted(resp.contributing_nodes)} in {rtt:.0f} virtual ms "
      f"(partial={resp.partial})")

# Transform queries ship per-node summaries instead of raw readings.
transform = QueryRequest(request_id="q-mean", range=full, scope=Scope.MESH,
                         transformer=TransformerSpec("aggregate_mean"))
resp, rtt = run_query(net, client, "node-00", transform, net.clock + 500.0)
temp = resp.payload.as_dict["temperature"]
print(f"mesh transform: mean temperature {temp.mean:.2f} over {temp.count} "
      f"readings in {rtt:.0f} ms")
tags = {e.envelope.payload_tag for e in net.envelope_log
        if e.envelope.payload_tag}
print(f"payloads that crossed links: {sorted(tags)} (never raw reading sets)")

# Churn: a node that stops mid-flight makes the answer partial, not absent.
net.set_available("node-02", False)
churned = QueryRequest(request_id="q-churn", range=full, scope=Scope.MESH)
resp, rtt = run_query(net, client, "node-00", churned, net.clock + 500.0)
print(f"after node-02 drops: {len(resp.payload)} readings, "
      f"partial={resp.partial}, contributors={sorted(resp.contributing_nodes)}")

# Every node runs the one built-in transformer, `aggregate_mean`; a query
# naming any other is dropped on arrival, so the client gets no answer.
unknown = QueryRequest(request_id="q-median", range=full, scope=Scope.MESH,
                       transformer=TransformerSpec("median"))
client.send_query(net, "node-00", unknown, net.clock + 500.0)
net.run_until_quiescent()
print(f"built-in transformers: {sorted(BUILTIN_TRANSFORMERS)}; a query for "
      f"'median' got {'an' if 'q-median' in client.received else 'no'} answer")
