"""Deterministic desk-scale simulation of a data-local edge sensor mesh.

Subpackages:
  model     - shared value types (readings, queries, responses, summaries)
  wire      - envelope framing, canonical encodings, GZIP/FASTLZ codecs
  netsim    - virtual-time network with byte-exact traffic accounting
  store     - per-node time-indexed store with range queries
  node      - the mesh node: coordinator, scatter-gather, heartbeats
  baselines - central, sharded and p2p comparison systems
  bench     - dataset ingestion, scenario runner, experiment matrix, export
"""

from .model import (
    CodecId,
    FieldAggregate,
    QueryRequest,
    QueryResponse,
    Scope,
    SensorReading,
    Summary,
    TimeRange,
    TransformerSpec,
    ValidationError,
    validate_request,
)

__all__ = [
    "CodecId",
    "FieldAggregate",
    "QueryRequest",
    "QueryResponse",
    "Scope",
    "SensorReading",
    "Summary",
    "TimeRange",
    "TransformerSpec",
    "ValidationError",
    "validate_request",
]

__version__ = "0.1.0"
