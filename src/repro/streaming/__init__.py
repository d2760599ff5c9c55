"""Streaming convoy discovery.

Algorithm 1's snapshot loop, restructured as an online engine and, one
level down, as an explicit staged pipeline — ingest → cluster → track →
emit — whose track stage can fan out across resident shard workers.
Snapshots are pushed in one at a time, each tick costs one
snapshot-clustering pass plus one candidate-intersection step, and
convoys are emitted the moment their chains fail to extend.  The offline
:func:`repro.core.cmc.cmc` drives the same engine over a materialized
database, so both paths share one implementation of the chaining
semantics.

* :class:`~repro.streaming.engine.StreamingConvoyMiner` — the engine
  (a thin composition of the pipeline stages);
* :func:`~repro.streaming.engine.mine_stream` — drive a miner over a
  snapshot source and collect the answer;
* :mod:`~repro.streaming.pipeline` — the named stages
  (:class:`~repro.streaming.pipeline.IngestStage`,
  :class:`~repro.streaming.pipeline.ClusterStage`,
  :class:`~repro.streaming.pipeline.TrackStage`,
  :class:`~repro.streaming.pipeline.EmitStage`) and the
  :class:`~repro.streaming.pipeline.StreamingPipeline` composing them;
* :mod:`~repro.streaming.sharding` — the
  :class:`~repro.streaming.sharding.ShardedCandidateTracker`
  partitioning live candidates by support-cluster id
  (``StreamingConvoyMiner(shards=N, executor=...)``);
* :mod:`~repro.streaming.executor` — the two transports the shard
  workers run on (in-process serial twin, or one process per shard);
  the long-lived workers hold shard state between ticks so only
  per-tick deltas cross the boundary;
* :mod:`~repro.streaming.source` — snapshot sources: database replay, CSV
  replay, and seeded synthetic generators for scale runs (with optional
  bounded ``jitter=`` to emulate shuffled GPS feeds, and a ``hotspots=``
  skew knob on ``churn_stream`` for unbalanced shard load);
* :mod:`~repro.streaming.reorder` — the watermarked
  :class:`~repro.streaming.reorder.ReorderBuffer` that restores time
  order in front of ``feed`` (``StreamingConvoyMiner(reorder=...)``),
  and the :class:`~repro.streaming.reorder.WatermarkFrontier` merging
  per-shard buffers into one global in-order release.
"""

from repro.streaming.engine import StreamingConvoyMiner, mine_stream
from repro.streaming.executor import (
    BACKENDS,
    ResidentProcessExecutor,
    ResidentSerialExecutor,
    ResidentShardWorker,
    ShardWorkerCrashed,
    resolve_executor,
)
from repro.streaming.pipeline import (
    ClusterStage,
    EmitStage,
    IngestStage,
    StreamingPipeline,
    TrackStage,
)
from repro.streaming.reorder import (
    LATE_POLICIES,
    ReorderBuffer,
    WatermarkFrontier,
    reorder_ticks,
)
from repro.streaming.sharding import ShardedCandidateTracker, rendezvous_shard
from repro.streaming.source import (
    churn_stream,
    hotspot_drift_scenario,
    hotspot_drift_stream,
    jitter_ticks,
    replay_csv,
    replay_database,
    synthetic_stream,
)

__all__ = [
    "BACKENDS",
    "ClusterStage",
    "EmitStage",
    "IngestStage",
    "LATE_POLICIES",
    "ReorderBuffer",
    "ResidentProcessExecutor",
    "ResidentSerialExecutor",
    "ResidentShardWorker",
    "ShardWorkerCrashed",
    "ShardedCandidateTracker",
    "StreamingConvoyMiner",
    "StreamingPipeline",
    "TrackStage",
    "WatermarkFrontier",
    "churn_stream",
    "hotspot_drift_scenario",
    "hotspot_drift_stream",
    "jitter_ticks",
    "mine_stream",
    "rendezvous_shard",
    "reorder_ticks",
    "replay_csv",
    "replay_database",
    "resolve_executor",
    "synthetic_stream",
]
