"""Shared pipeline-comparison helpers for the streaming differential suites.

Every differential suite in this directory compares the same three
clusterer pipelines — fresh DBSCAN (+ classic candidate advance),
incremental clustering with its delta withheld (PR 2's path), and
incremental clustering with the cluster diff propagated into the
candidate tracker (the delta path) — optionally behind a reorder buffer
and/or a sharded tracker.  The miner factories, the lockstep driver, and
the seeded fuzz-workload generator used to be copy-pasted per suite;
they live here once, exposed as fixtures:

* ``make_miner(pipeline, m, k, eps, **kwargs)`` — one miner for one
  pipeline name (``"delta"`` / ``"pr2"`` / ``"full"``); extra kwargs
  (``paper_semantics``, ``window``, ``reorder``, ``shards``,
  ``executor``, clusterer options) forward to the engine.
* ``make_pipeline_miners(m, k, eps, **kwargs)`` — the full dict of all
  three, for lockstep comparisons.
* ``assert_lockstep(ticks, miners, flush=True)`` — feed every miner the
  same ticks, assert identical emissions at every single ``feed`` (and
  at ``flush``); returns the miners for follow-up counter assertions.
* ``fuzz_workload(seed)`` — one complete seeded out-of-order workload:
  ``(in_order_ticks, shuffled_feed, lateness)`` with bounded jitter,
  optional whole-tick gaps, and duplicate-timestamp splits whose merged
  union equals the original snapshot.
"""

import random

import pytest

from repro.clustering.incremental import IncrementalSnapshotClusterer
from repro.streaming import StreamingConvoyMiner, churn_stream, jitter_ticks

#: The three clusterer pipelines every differential suite compares.
PIPELINE_NAMES = ("delta", "pr2", "full")


class PipelineClusterOnly:
    """Hide ``cluster_with_delta`` so the engine runs PR 2's classic path."""

    def __init__(self, inner):
        self.inner = inner

    def cluster(self, snapshot):
        return self.inner.cluster(snapshot)


def build_miner(pipeline, m, k, eps, *, paper_semantics=False, window=None,
                reorder=None, shards=None, executor=None, backend=None,
                store=None, match_kernel=None, **clusterer_kwargs):
    """One :class:`StreamingConvoyMiner` for one named pipeline.

    ``backend`` (the numeric backend, "python"/"vector") is forwarded to
    both the engine and the pipeline's own clusterer instance, so a
    backend-parameterized suite exercises every vectorized seam at once.
    ``store`` (a ConvoyStore or path) forwards to the engine's
    write-through persistence sink, and ``match_kernel`` to the
    engine's candidate tracker (sharded or not).
    """
    if pipeline not in PIPELINE_NAMES:
        raise ValueError(f"unknown pipeline {pipeline!r}")
    if backend is not None:
        clusterer_kwargs["backend"] = backend
    clusterer = None
    if pipeline != "full":
        clusterer = IncrementalSnapshotClusterer(eps, m, **clusterer_kwargs)
        if pipeline == "pr2":
            clusterer = PipelineClusterOnly(clusterer)
    return StreamingConvoyMiner(
        m, k, eps, paper_semantics=paper_semantics, window=window,
        clusterer=clusterer, reorder=reorder, shards=shards,
        executor=executor, backend=backend, store=store,
        match_kernel=match_kernel,
    )


def build_pipeline_miners(m, k, eps, **kwargs):
    """One miner per pipeline name, all built with the same kwargs."""
    return {
        name: build_miner(name, m, k, eps, **kwargs)
        for name in PIPELINE_NAMES
    }


def run_lockstep(ticks, miners, flush=True):
    """Feed every miner the same ticks; compare each feed's emissions."""
    names = list(miners)
    for t, snapshot in ticks:
        emitted = {
            name: miner.feed(t, dict(snapshot))
            for name, miner in miners.items()
        }
        first = emitted[names[0]]
        for name in names[1:]:
            assert emitted[name] == first, (
                f"tick {t}: {name} {emitted[name]} diverged from "
                f"{names[0]} {first}"
            )
    if flush:
        flushed = {name: miner.flush() for name, miner in miners.items()}
        first = flushed[names[0]]
        for name in names[1:]:
            assert flushed[name] == first, (
                f"flush: {name} {flushed[name]} diverged from "
                f"{names[0]} {first}"
            )
    return miners


def build_fuzz_workload(seed):
    """Draw one complete out-of-order workload from a seeded RNG.

    Returns ``(in_order_ticks, shuffled_feed, lateness)`` where the feed
    contains bounded jitter, optional whole-tick gaps, and adjacent
    duplicate-timestamp splits whose merged union equals the original
    snapshot — everything a reorder buffer promises to absorb losslessly.
    """
    rng = random.Random(seed)
    n_objects = rng.randint(25, 60)
    n_snapshots = rng.randint(25, 45)
    base = list(churn_stream(
        n_objects, n_snapshots,
        seed=rng.randrange(1 << 20),
        eps=8.0,
        churn=rng.choice([0.02, 0.05, 0.15]),
        turnover=rng.choice([0.0, 0.05]),
        area=12.0 * 8.0,
    ))
    if rng.random() < 0.5:
        # Whole-tick gaps: the engine must sever chains during the
        # buffered replay exactly as it does in order.
        kept = [tick for tick in base if rng.random() > 0.15]
        base = kept if len(kept) >= 5 else base
    jitter = rng.randint(2, 6)
    shuffled = list(jitter_ticks(
        base, jitter, seed=rng.randrange(1 << 20)
    ))
    feed = []
    for t, snapshot in shuffled:
        if len(snapshot) >= 2 and rng.random() < 0.35:
            # Split one report into two adjacent partial pushes for the
            # same timestamp; the buffer's merge must reassemble them.
            # The split keeps key order: snapshot key order is data (it
            # seeds cluster creation order), so an order-scrambling merge
            # can reorder same-tick emissions.
            items = list(snapshot.items())
            cut = rng.randint(1, len(items) - 1)
            feed.append((t, dict(items[:cut])))
            feed.append((t, dict(items[cut:])))
        else:
            feed.append((t, dict(snapshot)))
    # Jitter guarantees lateness strictly below `jitter`; max(jitter, 1)
    # also keeps adjacent duplicate pushes safe from instant release.
    return base, feed, max(jitter, 1)


@pytest.fixture
def make_miner():
    """Factory fixture: ``make_miner(pipeline, m, k, eps, **kwargs)``."""
    return build_miner


@pytest.fixture
def make_pipeline_miners():
    """Factory fixture: all three pipeline miners with shared kwargs."""
    return build_pipeline_miners


@pytest.fixture
def assert_lockstep():
    """Lockstep driver fixture (see :func:`run_lockstep`)."""
    return run_lockstep


@pytest.fixture
def cluster_only():
    """The delta-hiding clusterer wrapper (PR 2's pipeline)."""
    return PipelineClusterOnly


@pytest.fixture
def fuzz_workload():
    """Seeded out-of-order workload factory (see
    :func:`build_fuzz_workload`)."""
    return build_fuzz_workload
