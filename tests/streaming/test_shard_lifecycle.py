"""Lifecycle tests for the sharded tracker and its transports.

Three regressions are pinned here:

* **Pool leaks** — a :class:`StreamingConvoyMiner` whose tracker holds
  shard worker processes must release them on *every* exit path: normal
  ``flush``, and — via the miner's context-manager protocol — a stream
  that dies mid-run (the original leak: an exception between ``feed``
  calls orphaned the worker processes until interpreter exit).
* **Resident worker crashes** — a resident shard worker killed mid-run
  must surface as the named :class:`ShardWorkerCrashed` (never a hang
  or a silent wrong answer), after which ``close()`` still succeeds and
  a fresh run computes the baseline answer.
* **Route-cache eviction** — the support-routing cache's overflow sweep
  must evict only routes no live candidate uses (the original bug
  cleared the whole cache, forcing a rendezvous recompute burst for the
  entire live set on the next tick) and count itself in
  ``route_cache_resets``.
"""

import os
import signal

import pytest

from repro.clustering.incremental import APPEARED, CHANGED, ClusterDelta
from repro.streaming import ShardWorkerCrashed, StreamingConvoyMiner
from repro.streaming.sharding import ShardedCandidateTracker, rendezvous_shard
from repro.streaming.source import churn_stream


def _ticks(n_objects=40, n_snapshots=10, seed=5):
    return list(churn_stream(n_objects, n_snapshots, seed=seed, eps=8.0,
                             churn=0.1, area=64.0))


def _mine(miner, ticks):
    out = []
    with miner:
        for t, snapshot in ticks:
            out.extend(miner.feed(t, dict(snapshot)))
        out.extend(miner.flush())
    return out


class TestMinerReleasesExecutors:
    def test_flush_closes_the_process_pool(self):
        miner = StreamingConvoyMiner(3, 5, 8.0, shards=2,
                                     executor="process")
        backend = miner.pipeline.track.tracker.executor
        for t, snapshot in _ticks():
            miner.feed(t, snapshot)
        assert backend.alive
        miner.flush()
        assert not backend.alive

    @pytest.mark.parametrize("executor", ["serial", "process"])
    def test_context_manager_closes_on_stream_error(self, executor):
        """The pool-leak regression: a stream dying between feeds must
        not orphan worker processes — ``with miner:`` reaches the
        tracker's ``close()`` on the error path."""
        miner = StreamingConvoyMiner(3, 5, 8.0, shards=2,
                                     executor=executor)
        backend = miner.pipeline.track.tracker.executor
        ticks = _ticks()
        with pytest.raises(RuntimeError, match="stream source died"):
            with miner:
                for t, snapshot in ticks:
                    miner.feed(t, snapshot)
                assert backend.alive
                raise RuntimeError("stream source died")
        assert not backend.alive

    def test_close_is_idempotent(self):
        miner = StreamingConvoyMiner(3, 5, 8.0, shards=2,
                                     executor="serial")
        for t, snapshot in _ticks(n_snapshots=4):
            miner.feed(t, snapshot)
        miner.close()
        miner.close()


class TestResidentWorkerCrash:
    def test_crash_is_named_close_succeeds_and_a_rerun_matches(self):
        ticks = _ticks(n_snapshots=12)
        expected = _mine(StreamingConvoyMiner(3, 5, 8.0), ticks)

        miner = StreamingConvoyMiner(3, 5, 8.0, shards=2,
                                     executor="process")
        backend = miner.pipeline.track.tracker.executor
        with pytest.raises(ShardWorkerCrashed,
                           match="resident worker for shard"):
            with miner:
                for t, snapshot in ticks:
                    if t == 6:
                        pid = backend.probe(0)[0]
                        os.kill(pid, signal.SIGKILL)
                    miner.feed(t, dict(snapshot))
        # The context manager already closed the miner on the way out;
        # closing again is still safe, and no pool survived.
        miner.close()
        assert not backend.alive
        # The crash poisoned nothing durable: a fresh sharded run
        # produces the baseline answer.
        fresh = StreamingConvoyMiner(3, 5, 8.0, shards=2,
                                     executor="process")
        assert _mine(fresh, ticks) == expected


class TestRouteCacheEviction:
    def _tracker_with_live_routes(self, shards=3):
        """A tracker whose four live candidates have cached routes."""
        tracker = ShardedCandidateTracker(2, 5, shards=shards)
        clusters = [{f"g{i}a", f"g{i}b"} for i in range(4)]
        ids = (100, 101, 102, 103)
        tracker.advance_delta(
            clusters, ClusterDelta(ids=ids, status=(APPEARED,) * 4,
                                   vanished=()), 0, 0)
        # A changed tick routes every candidate, caching its support.
        tracker.advance_delta(
            clusters, ClusterDelta(ids=ids, status=(CHANGED,) * 4,
                                   vanished=()), 1, 1)
        assert set(tracker._route_cache) == set(ids)
        return tracker, clusters, ids

    def test_sweep_spares_live_routes(self):
        tracker, clusters, ids = self._tracker_with_live_routes()
        # Dead routes accumulate (support ids are never reused); stuff
        # the cache past the sweep threshold with routes no live
        # candidate uses.
        tracker._route_cache.update(
            {cid: 0 for cid in range(10_000, 12_000)}
        )
        # A new support id forces a cache miss, triggering the sweep.
        grown = clusters + [{"newa", "newb"}]
        grown_ids = ids + (104,)
        tracker.advance_delta(
            grown, ClusterDelta(ids=grown_ids,
                                status=(CHANGED,) * 4 + (APPEARED,),
                                vanished=()), 2, 2)
        tracker.advance_delta(
            grown, ClusterDelta(ids=grown_ids, status=(CHANGED,) * 5,
                                vanished=()), 3, 3)
        assert tracker.counters["route_cache_resets"] == 1
        # Only dead entries were evicted; every live support kept its
        # (correct) route, so no rendezvous recompute burst follows.
        assert set(tracker._route_cache) == set(grown_ids)
        for cid in grown_ids:
            assert tracker._route_cache[cid] == rendezvous_shard(
                cid, tracker.shards)

    def test_no_sweep_below_threshold(self):
        tracker, clusters, ids = self._tracker_with_live_routes()
        grown = clusters + [{"newa", "newb"}]
        grown_ids = ids + (104,)
        tracker.advance_delta(
            grown, ClusterDelta(ids=grown_ids,
                                status=(CHANGED,) * 4 + (APPEARED,),
                                vanished=()), 2, 2)
        tracker.advance_delta(
            grown, ClusterDelta(ids=grown_ids, status=(CHANGED,) * 5,
                                vanished=()), 3, 3)
        assert tracker.counters["route_cache_resets"] == 0
        assert set(tracker._route_cache) == set(grown_ids)
