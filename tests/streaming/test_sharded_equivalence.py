"""Differential suite: sharded candidate tracking == unsharded, bit for bit.

The sharding layer (:mod:`repro.streaming.sharding`) partitions each
tick's candidate-matching work by support-cluster id across resident
shard workers; its whole contract is that nothing observable moves.
This suite holds a sharded :class:`~repro.streaming.StreamingConvoyMiner`
equal to the unsharded one **tick for tick** — same convoys at every
single ``feed``, same flush, same live candidate sets, same shared
counters — across:

* all three clusterer pipelines (fresh DBSCAN, incremental clustering,
  incremental + cluster-diff candidate splicing);
* both ``paper_semantics`` modes;
* shard counts 1–4 on both transports (the in-process serial twin
  everywhere; the spawned process transport on representative
  configurations, since its per-test cost is pool startup, not
  coverage);
* time gaps, bounded windows, turnover, hotspot-skewed churn
  (``churn_stream(hotspots=)``), and jittered feeds through a reorder
  buffer;
* sharded *ingestion*: per-shard reorder buffers merged through a
  :class:`~repro.streaming.WatermarkFrontier` feeding a sharded miner;
* the ``bitset`` match kernel run straight off the rows each resident
  worker patches in place, with the rows decoded back against the
  worker's object sets after every tick;
* mid-run worker restarts (the generation re-seed path) and shard-state
  snapshots checked against the parent's authoritative view.

Counter note: keys shared with the unsharded run (``advance_steps``,
``delta_steps``, ``spliced_candidates``, ``reintersected_candidates``,
and the engine keys) must be equal; the shard keys
(``shard_steps``, ``sharded_candidates``, ``max_shard_batch``) are
extra and must actually engage, or the suite is vacuous.
"""

import pytest

from repro.streaming import WatermarkFrontier, churn_stream, jitter_ticks

SEMANTICS = (False, True)
PIPELINES = ("delta", "pr2", "full")

#: Counter keys that must agree bit-for-bit between sharded and
#: unsharded runs (everything except the shard-only bookkeeping).
SHARED_COUNTER_KEYS = (
    "snapshots",
    "clustering_calls",
    "clustered_points",
    "convoys_emitted",
    "peak_candidates",
    "advance_steps",
    "delta_steps",
    "spliced_candidates",
    "reintersected_candidates",
)


def run_lockstep_pair(ticks, base, sharded, *, require_sharding=True,
                      after_tick=None):
    """Feed both miners every tick; assert emissions and live state equal.

    ``after_tick(sharded)``, when given, runs after every tick's checks
    (before ``flush`` closes the sharded miner's workers).
    """
    for t, snapshot in ticks:
        expected = base.feed(t, dict(snapshot))
        got = sharded.feed(t, dict(snapshot))
        assert got == expected, f"tick {t}: sharded diverged"
        assert sharded.live_candidates == base.live_candidates, f"tick {t}"
        if after_tick is not None:
            after_tick(sharded)
    assert sharded.flush() == base.flush()
    for key in SHARED_COUNTER_KEYS:
        assert sharded.counters[key] == base.counters[key], key
    if require_sharding:
        assert sharded.counters["shard_steps"] > 0
        assert sharded.counters["sharded_candidates"] > 0
    return base, sharded


class TestSerialExecutorAllPipelines:
    @pytest.mark.parametrize("paper_semantics", SEMANTICS)
    @pytest.mark.parametrize("pipeline", PIPELINES)
    @pytest.mark.parametrize("shards", [1, 2, 4])
    def test_churn_stream(self, make_miner, pipeline, shards,
                          paper_semantics):
        ticks = list(churn_stream(80, 40, seed=61, eps=8.0, churn=0.1,
                                  turnover=0.03, area=96.0))
        _base, sharded = run_lockstep_pair(
            ticks,
            make_miner(pipeline, 3, 5, 8.0,
                       paper_semantics=paper_semantics),
            make_miner(pipeline, 3, 5, 8.0,
                       paper_semantics=paper_semantics,
                       shards=shards, executor="serial"),
        )
        # Every touched worker was seeded exactly once (no mid-run
        # re-seeds without a restart: deltas alone kept it current).
        inits = sharded.counters["resident_inits"]
        assert 1 <= inits <= shards

    @pytest.mark.parametrize("pipeline", PIPELINES)
    def test_gaps_and_window(self, make_miner, pipeline):
        """Gap severing and prune_longer_than interact with the shard
        routing (pruned chains re-seed, supports reset across gaps)."""
        ticks = [
            (t, snapshot)
            for t, snapshot in churn_stream(70, 45, seed=67, eps=8.0,
                                            churn=0.08, turnover=0.02,
                                            area=96.0)
            if t % 11 != 7
        ]
        run_lockstep_pair(
            ticks,
            make_miner(pipeline, 3, 5, 8.0, window=7),
            make_miner(pipeline, 3, 5, 8.0, window=7, shards=3,
                       executor="serial"),
        )

    @pytest.mark.parametrize("shards", [2, 3])
    def test_hotspot_skew(self, make_miner, shards):
        """Hotspot-concentrated churn piles the dirty candidates onto a
        few support clusters — the unbalanced-shard regime.  Emissions
        must not move, and the skew must be visible in the counters."""
        ticks = list(churn_stream(90, 40, seed=71, eps=8.0, churn=0.15,
                                  area=96.0, hotspots=2))
        base, sharded = run_lockstep_pair(
            ticks,
            make_miner("delta", 3, 5, 8.0),
            make_miner("delta", 3, 5, 8.0, shards=shards,
                       executor="serial"),
        )
        # With the churn confined to hotspots, the delta path must still
        # splice the cold clusters' chains straight through.
        assert sharded.counters["spliced_candidates"] > 0
        assert sharded.counters["max_shard_batch"] >= 1

    def test_empty_and_below_m_ticks(self, make_miner):
        """Clusterless ticks (no jobs) must not touch the executor."""
        ticks = [
            (0, {"a": (0.0, 0.0), "b": (1.0, 0.0), "c": (0.0, 1.0)}),
            (1, {"a": (0.0, 0.0), "b": (1.0, 0.0), "c": (0.0, 1.0)}),
            (2, {"a": (0.0, 0.0)}),            # below m: closes chains
            (3, {}),                           # empty: still no clusters
            (4, {"a": (0.0, 0.0), "b": (1.0, 0.0), "c": (0.0, 1.0)}),
            (5, {"a": (0.0, 0.0), "b": (1.0, 0.0), "c": (0.0, 1.0)}),
        ]
        run_lockstep_pair(
            ticks,
            make_miner("full", 2, 2, 2.0),
            make_miner("full", 2, 2, 2.0, shards=2, executor="serial"),
        )


class TestPooledExecutors:
    """The spawned process transport on every pipeline.

    Each shard's worker is its own one-process pool, so these runs pay
    pool startup per shard; the configurations are representative, not
    the full matrix the serial twin covers."""

    @pytest.mark.parametrize("pipeline", PIPELINES)
    def test_four_process_shards(self, make_miner, pipeline):
        ticks = list(churn_stream(70, 35, seed=73, eps=8.0, churn=0.12,
                                  turnover=0.02, area=96.0))
        _base, sharded = run_lockstep_pair(
            ticks,
            make_miner(pipeline, 3, 5, 8.0),
            make_miner(pipeline, 3, 5, 8.0, shards=4, executor="process"),
        )
        assert 1 <= sharded.counters["resident_inits"] <= 4

    def test_process_executor(self, make_miner):
        """The python-backend kernel resolved inside spawned workers:
        one full-pipeline run proves the delta round trip loses
        nothing."""
        ticks = list(churn_stream(60, 25, seed=79, eps=8.0, churn=0.12,
                                  area=96.0))
        run_lockstep_pair(
            ticks,
            make_miner("delta", 3, 5, 8.0),
            make_miner("delta", 3, 5, 8.0, shards=2, executor="process"),
        )

    def test_process_executor_with_window_and_gaps(self, make_miner):
        ticks = [
            (t, snapshot)
            for t, snapshot in churn_stream(50, 25, seed=83, eps=8.0,
                                            churn=0.1, area=96.0)
            if t % 9 != 5
        ]
        run_lockstep_pair(
            ticks,
            make_miner("full", 3, 5, 8.0, window=6),
            make_miner("full", 3, 5, 8.0, window=6, shards=2,
                       executor="process"),
        )


class BitsetRowCheck:
    """``after_tick`` hook: every serial-twin worker's maintained bitset
    rows decode to its authoritative object sets.  It reads the workers
    without sending them a message, so the tracker's delta flow is
    untouched; ``checked`` counts the worker states compared."""

    def __init__(self):
        self.checked = 0

    def __call__(self, miner):
        workers = miner.pipeline.track.tracker.executor._workers
        for shard, worker in workers.items():
            assert worker.bitset_rows() == worker.handle(("snapshot",)), (
                f"shard {shard}"
            )
            self.checked += 1


class TestResidentTransports:
    """The process transport, the bitset rows, worker restarts, and
    shard snapshots.

    Workers hold their shard's candidate sets between ticks and are fed
    only deltas; nothing observable may move across the pickle boundary
    or a worker's loss.  The ``bitset`` runs match every tick straight
    off the rows each worker patches in place from the put/drop deltas,
    so any drift between rows and state would change an emission."""

    @pytest.mark.parametrize("paper_semantics", SEMANTICS)
    @pytest.mark.parametrize("pipeline", PIPELINES)
    @pytest.mark.parametrize("shards", [1, 2, 4])
    def test_resident_serial_churn(self, make_miner, pipeline, shards,
                                   paper_semantics):
        ticks = list(churn_stream(80, 40, seed=61, eps=8.0, churn=0.1,
                                  turnover=0.03, area=96.0))
        rows = BitsetRowCheck()
        _base, sharded = run_lockstep_pair(
            ticks,
            make_miner(pipeline, 3, 5, 8.0,
                       paper_semantics=paper_semantics),
            make_miner(pipeline, 3, 5, 8.0,
                       paper_semantics=paper_semantics,
                       shards=shards, executor="serial",
                       match_kernel="bitset"),
            after_tick=rows,
        )
        assert 1 <= sharded.counters["resident_inits"] <= shards
        assert rows.checked > 0

    @pytest.mark.parametrize("pipeline", PIPELINES)
    def test_resident_gaps_and_window(self, make_miner, pipeline):
        """Gap severing, pruning re-seeds, and support resets all churn
        the resident chain ids; the bitset rows must track them."""
        ticks = [
            (t, snapshot)
            for t, snapshot in churn_stream(70, 45, seed=67, eps=8.0,
                                            churn=0.08, turnover=0.02,
                                            area=96.0)
            if t % 11 != 7
        ]
        rows = BitsetRowCheck()
        run_lockstep_pair(
            ticks,
            make_miner(pipeline, 3, 5, 8.0, window=7),
            make_miner(pipeline, 3, 5, 8.0, window=7, shards=3,
                       executor="serial", match_kernel="bitset"),
            after_tick=rows,
        )
        assert rows.checked > 0

    def test_resident_jittered_reorder(self, make_miner, fuzz_workload):
        base_ticks, feed, lateness = fuzz_workload(2)
        plain = make_miner("delta", 3, 5, 8.0)
        expected = []
        for t, snapshot in base_ticks:
            expected.extend(plain.feed(t, dict(snapshot)))
        expected.extend(plain.flush())
        sharded = make_miner(
            "delta", 3, 5, 8.0, reorder=dict(allowed_lateness=lateness),
            shards=3, executor="serial", match_kernel="bitset",
        )
        got = []
        for t, snapshot in feed:
            got.extend(sharded.feed(t, snapshot))
        got.extend(sharded.flush())
        assert got == expected

    def test_shard_counts_agree_directly(self, make_miner):
        """Two shard counts agree with each other directly, not just
        transitively through the unsharded engine: rendezvous routing
        moves chains between workers without moving any answer."""
        ticks = list(churn_stream(70, 35, seed=73, eps=8.0, churn=0.12,
                                  turnover=0.02, area=96.0))
        run_lockstep_pair(
            ticks,
            make_miner("delta", 3, 5, 8.0, shards=2, executor="serial"),
            make_miner("delta", 3, 5, 8.0, shards=5, executor="serial"),
        )

    def test_resident_process(self, make_miner):
        """Long-lived spawned workers fed deltas across the pickle
        boundary, with the vector kernel resolved from its name inside
        the workers: the round trip loses nothing."""
        ticks = list(churn_stream(60, 25, seed=79, eps=8.0, churn=0.12,
                                  area=96.0))
        run_lockstep_pair(
            ticks,
            make_miner("delta", 3, 5, 8.0, backend="vector"),
            make_miner("delta", 3, 5, 8.0, backend="vector", shards=2,
                       executor="process"),
        )

    @pytest.mark.parametrize("executor", ["serial", "process"])
    def test_mid_run_restart_recovers(self, make_miner, executor):
        """Killing a resident worker mid-run must only cost a re-seed:
        the generation bump triggers a full init from the parent's
        authoritative state and the run stays bit-for-bit equal."""
        ticks = list(churn_stream(60, 30, seed=91, eps=8.0, churn=0.12,
                                  turnover=0.02, area=96.0))
        base = make_miner("delta", 3, 5, 8.0)
        resident = make_miner("delta", 3, 5, 8.0, shards=2,
                              executor=executor)
        tracker = resident.pipeline.track.tracker
        with base, resident:
            for t, snapshot in ticks:
                if t in (10, 20):
                    tracker.executor.restart(t % tracker.shards)
                expected = base.feed(t, dict(snapshot))
                assert resident.feed(t, dict(snapshot)) == expected
            assert resident.flush() == base.flush()
        # Initial seeds plus one re-seed per restarted shard.
        assert resident.counters["resident_inits"] >= 3

    def test_shard_snapshot_matches_parent_view(self, make_miner):
        """Mid-run and at the end, draining a shard's resident state
        returns exactly the parent's authoritative {chain: objects}
        view — the rebalancer's read side."""
        ticks = list(churn_stream(60, 24, seed=95, eps=8.0, churn=0.12,
                                  area=96.0))
        resident = make_miner("delta", 3, 5, 8.0, shards=3,
                              executor="serial")
        tracker = resident.pipeline.track.tracker
        checked = 0
        with resident:
            for t, snapshot in ticks:
                resident.feed(t, dict(snapshot))
                if t % 6 == 5:
                    for shard in range(tracker.shards):
                        assert (tracker.snapshot_shard(shard)
                                == tracker.expected_shard_state(shard))
                        checked += 1
        assert checked > 0


class TestJitteredFeeds:
    @pytest.mark.parametrize("seed", range(4))
    @pytest.mark.parametrize("paper_semantics", SEMANTICS)
    def test_reorder_buffer_in_front_of_sharded_tracker(self, make_miner,
                                                        fuzz_workload,
                                                        seed,
                                                        paper_semantics):
        """Out-of-order arrivals through the watermark buffer, then the
        sharded tracker: still bit-for-bit the plain in-order run."""
        base_ticks, feed, lateness = fuzz_workload(seed)
        plain = make_miner("delta", 3, 5, 8.0,
                           paper_semantics=paper_semantics)
        expected = []
        for t, snapshot in base_ticks:
            expected.extend(plain.feed(t, dict(snapshot)))
        expected.extend(plain.flush())

        sharded = make_miner(
            "delta", 3, 5, 8.0, paper_semantics=paper_semantics,
            reorder=dict(allowed_lateness=lateness), shards=3,
            executor="serial",
        )
        got = []
        for t, snapshot in feed:
            got.extend(sharded.feed(t, snapshot))
        got.extend(sharded.flush())
        assert got == expected
        assert sharded.counters["sharded_candidates"] > 0


class TestShardedIngestionFrontier:
    @pytest.mark.parametrize("n_shards", [2, 3])
    def test_partitioned_jittered_ingestion_matches_in_order(self,
                                                             make_miner,
                                                             n_shards):
        """Sharded ingestion end to end: objects partitioned across
        per-shard reorder buffers, each shard's feed independently
        jittered, merged through the WatermarkFrontier into a sharded
        miner — still the exact in-order unsharded answer."""
        base_ticks = list(churn_stream(45, 30, seed=89, eps=8.0,
                                       churn=0.1, area=96.0))
        plain = make_miner("full", 3, 5, 8.0)
        expected = []
        for t, snapshot in base_ticks:
            expected.extend(plain.feed(t, dict(snapshot)))
        expected.extend(plain.flush())

        shard_of = {
            o: i % n_shards for i, o in enumerate(base_ticks[0][1])
        }
        jitter = 3
        shard_feeds = []
        for shard in range(n_shards):
            # Every shard reports every tick (its piece may be empty —
            # the heartbeat that keeps the merged frontier moving), and
            # each shard's arrival order is independently shuffled.
            part = [
                (t, {o: xy for o, xy in snapshot.items()
                     if shard_of.get(o, shard % n_shards) == shard})
                for t, snapshot in base_ticks
            ]
            shard_feeds.append(list(jitter_ticks(part, jitter,
                                                 seed=100 + shard)))

        frontier = WatermarkFrontier(n_shards, allowed_lateness=jitter)
        miner = make_miner("full", 3, 5, 8.0, shards=n_shards,
                           executor="serial")
        got = []
        # Interleave the shard feeds round-robin, as concurrent uplinks
        # would; the frontier restores one global in-order stream.
        for arrivals in zip(*shard_feeds):
            for shard, (t, snapshot) in enumerate(arrivals):
                for rt, rs in frontier.push(shard, t, snapshot):
                    got.extend(miner.feed(rt, rs))
        for rt, rs in frontier.drain():
            got.extend(miner.feed(rt, rs))
        got.extend(miner.flush())
        assert got == expected
