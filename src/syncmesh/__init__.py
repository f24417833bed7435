"""Deterministic desk-scale simulation of a data-local edge sensor mesh.

Modules:
  model     - shared value types (readings, queries, responses, summaries)
  wire      - envelope framing, canonical encodings, GZIP/FASTLZ codecs
  fastlz    - the in-package LZ77 codec behind FASTLZ bodies
  cores     - the process's one helper process, its second core
  netsim    - virtual-time network with byte-exact traffic accounting
  store     - per-node time-indexed store with range queries
  node      - the mesh node: coordinator, scatter-gather, heartbeats
  payloads  - query evaluation and the memo layer every system shares
  baselines - central, sharded and p2p comparison systems
  synthetic - the synthetic dataset's row writer
  bench     - dataset ingestion, scenario runner, experiment matrix, export
  cli       - the `bench` command line
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
