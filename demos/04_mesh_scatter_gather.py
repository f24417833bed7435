"""A working mesh: heartbeats, one coordinator fanning a query out to the
available neighbors, merged responses, churn yielding partial results, and
a query for a transformer that is not built in, dropped.

Run: python demos/04_mesh_scatter_gather.py
"""

from syncmesh.bench import (
    _scenario_gather_timeout, generate_synthetic, ingest_csv_text)
from syncmesh.model import QueryRequest, Scope, TimeRange, TransformerSpec
from syncmesh.netsim import Network, build_topology
from syncmesh.node import MeshClient, SyncMeshNode, run_query
from syncmesh.payloads import BUILTIN_TRANSFORMERS
from syncmesh.store import LocalStore
from syncmesh.wire import MessageKind, read_payload

text = generate_synthetic(n_sensors=3, days=7, readings_per_sensor_per_day=48,
                          seed=3, balance_across=3)  # one sensor per node
manifest, partitions = ingest_csv_text(text, 3)

topo = build_topology(3, seed=3)
net = Network(topo)
# Every node is given its gather deadline, the one bench derives from the
# dataset's size.
deadline = _scenario_gather_timeout(manifest)
nodes = []
for node_id, readings in sorted(partitions.items()):
    store = LocalStore(node_id)
    store.load_many(readings)
    node = SyncMeshNode(store, gather_timeout_ms=deadline)
    node.attach(net)
    nodes.append(node)
client = MeshClient()
client.attach(net)


def mesh_query(req):
    """Nodes announce themselves, then the client asks node-00 500 ms later.
    The coordinator only contacts neighbors heard from in the last 3,000 ms;
    each query gets its own heartbeat round, as `SyncMeshSystem.query` sends
    one."""
    for node in nodes:
        node.broadcast_heartbeat(net.clock)
    return run_query(net, client, "node-00", req, net.clock + 500.0)


full = TimeRange(1, manifest.time_end + 1)
collect = QueryRequest(request_id="q-collect", range=full, scope=Scope.MESH)
resp, rtt = mesh_query(collect)
print(f"mesh collect: {len(resp.payload)} readings from "
      f"{sorted(resp.contributing_nodes)} in {rtt:.0f} virtual ms "
      f"(partial={resp.partial})")

# Transform queries ship per-node summaries instead of raw readings.
transform = QueryRequest(request_id="q-mean", range=full, scope=Scope.MESH,
                         transformer=TransformerSpec("aggregate_mean"))
resp, rtt = mesh_query(transform)
temp = resp.payload.as_dict["temperature"]
print(f"mesh transform: mean temperature {temp.mean:.2f} over {temp.count} "
      f"readings in {rtt:.0f} ms")
carried = {read_payload(e.envelope).payload_kind for e in net.envelope_log
           if e.envelope.kind is MessageKind.RESPONSE
           and e.envelope.request_id == transform.request_id}
print(f"transform responses carried: {sorted(carried)} (never raw reading sets)")

# Churn: a node that goes down sends no heartbeat, so the coordinator skips
# it once its last one is stale, and the answer is partial, not absent.
net.set_available("node-02", False)
churned = QueryRequest(request_id="q-churn", range=full, scope=Scope.MESH)
resp, rtt = mesh_query(churned)
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
