"""Direct workloads: a miner driven in-process through its public API.

Each repetition builds a fresh :class:`StreamingConvoyMiner` with a
write-through SQLite store and feeds it one whole materialized stream,
one ``feed`` call per tick, then ``flush``.  The repetitions cycle
through the run's seeded streams until the measurement window is spent;
every repetition's answer is checked (untimed) against the classic
reference run of its stream.
"""

from __future__ import annotations

import gc
import os
from bisect import bisect_right
from statistics import fmean
from time import perf_counter

from repro.store import convoy_identity, open_store
from repro.streaming import StreamingConvoyMiner

import workloads as wl
from host import median, percentile, proc_status_kb, reset_peak_rss
from tracing import LAYER_SPANS, Tracer, instrument

#: Setup is timed on every repetition, plus this many setup-only
#: constructions after each one, topped up to at least
#: ``SETUP_SAMPLES`` at the end.
SETUP_PER_REPETITION = 6
SETUP_SAMPLES = 31
#: Passes over the query mix in a traced run.  An untraced run makes one
#: pass, to check the answers.
QUERY_PASSES = 5
#: Least number of repetitions of each stream per run, so that each
#: tick's feed time and emit latency is a median of at least three
#: samples.
MIN_REPETITIONS = 3


class Rep:
    """One repetition's raw observations."""

    def __init__(self):
        self.setup_s = None
        self.feeds = []  # (t, start, end, convoys) per feed call
        self.tail = []
        self.wall_s = None
        self.stored = []
        self.db_bytes = 0
        self.counters = {}
        self.clusterer_counters = {}
        self.error = None
        self.layers = None  # per-layer metrics of a traced repetition
        self.feed_s = None  # {tick: seconds} of each feed call
        self.emit_s = None  # {closing tick: seconds}, see emit_latencies

    def emitted(self):
        return [c for feed in self.feeds for c in feed[3]] + self.tail

    def settle(self, tick_times):
        """Keep the timings and drop the convoys, once checked.  Held
        for the whole run, the convoys of earlier repetitions would make
        each garbage collection of a later one walk them too."""
        self.feed_s = {t: end - start for t, start, end, _c in self.feeds}
        self.emit_s = emit_latencies(self, tick_times)
        self.feeds = self.tail = self.stored = None


def store_files(path):
    return [path, path + "-wal", path + "-shm"]


def remove_store(path):
    for name in store_files(path):
        if os.path.exists(name):
            os.remove(name)


def mine_once(spec, ticks, store_path, tracer=None):
    """Feed the ticks through a fresh miner with a store attached."""
    rep = Rep()
    start = perf_counter()
    miner = StreamingConvoyMiner(**wl.miner_kwargs(spec, store=store_path))
    rep.setup_s = perf_counter() - start
    if tracer is not None:
        instrument(miner, tracer)
    feeds = rep.feeds
    with miner:
        first = perf_counter()
        try:
            for t, snapshot in ticks:
                began = perf_counter()
                closed = miner.feed(t, snapshot)
                feeds.append((t, began, perf_counter(), closed))
            rep.tail = miner.flush()
        except Exception as exc:  # a failed operation is a result
            rep.error = repr(exc)
            return rep
        rep.wall_s = perf_counter() - first
        rep.stored = miner.store.all_convoys()
        rep.db_bytes = sum(os.path.getsize(name)
                           for name in store_files(store_path)[:2]
                           if os.path.exists(name))
        rep.counters = dict(miner.counters)
        rep.clusterer_counters = dict(
            getattr(miner.clusterer, "counters", None) or {})
    return rep


def check_rep(rep, ticks, reference, ops):
    """Count the repetition's feeds, flush and store read-back as
    operations, each failed when it raised or answered wrongly."""
    known = set(reference)
    for t, _start, _end, closed in rep.feeds:
        ops.check(all(convoy_identity(c) in known for c in closed),
                  f"feed t={t} returned a convoy the classic run lacks")
    missing = len(ticks) - len(rep.feeds)
    if missing:
        ops.check(False, f"{missing} feed(s) not completed: {rep.error}",
                  count=missing)
    emitted = wl.canonical(rep.emitted())
    ops.check(rep.error is None and emitted == reference,
              f"flush: answer differs from the classic run ({rep.error})")
    ops.check(rep.error is None
              and wl.canonical(rep.stored) == sorted(set(emitted)),
              "store read-back differs from the emitted convoys")


def emit_latencies(rep, tick_times):
    """``{closing tick: seconds}`` from the ``feed`` call that handed the
    tick in until the call that returned its convoys."""
    arrival = {t: start for t, start, _end, _closed in rep.feeds}
    latency = {}
    for _t, _start, end, closed in rep.feeds:
        for convoy in closed:
            i = bisect_right(tick_times, convoy.t_end)
            if i < len(tick_times):
                closing = tick_times[i]
                latency[closing] = max(latency.get(closing, 0.0),
                                       end - arrival[closing])
    return latency


def tick_medians(per_rep):
    """Each tick's median in milliseconds over repetitions of one stream,
    given each repetition's ``{tick: seconds}``.  Every repetition
    replays the same ticks, so a tick's median keeps the work that tick
    costs and drops a stall of the shared host that hit one repetition,
    which would otherwise fill the tail."""
    samples = {}
    for times in per_rep:
        for tick, seconds in times.items():
            samples.setdefault(tick, []).append(1e3 * seconds)
    return [median(values) for values in samples.values()]


class QueryMix:
    """The seeded store query mix, run in passes against a written store.

    Each query reports its fastest time over the passes: the work is the
    same in every pass, and a slow spell of a shared host only adds time.
    """

    def __init__(self, spec, ticks, reference_convoys):
        oracle = wl.QueryOracle(reference_convoys, ticks)
        self.mix = wl.query_mix(ticks, spec["seed"])
        self.expected = [oracle.answer(kind, args) for kind, args in self.mix]
        self.timings = [[] for _ in self.mix]
        self.rows = 0
        self.passes = 0

    def run_pass(self, store_path, ops):
        with open_store(store_path) as store:
            for i, (kind, args) in enumerate(self.mix):
                start = perf_counter()
                try:
                    got = wl.run_query(store, kind, args)
                except Exception as exc:  # a failed operation is a result
                    ops.check(False, f"query {kind}{args} raised {exc!r}")
                    continue
                self.timings[i].append(perf_counter() - start)
                self.rows += len(got)
                ops.check(got == self.expected[i],
                          f"query {kind}{args} differs from the oracle")
        self.passes += 1

    def times(self):
        """``{kind: [fastest seconds per query]}``."""
        times = {kind: [] for kind in wl.QUERY_KINDS}
        for (kind, _args), samples in zip(self.mix, self.timings):
            if samples:
                times[kind].append(min(samples))
        return times

    def all_ms(self):
        return [1e3 * s for times in self.times().values() for s in times]

    def layer_metrics(self):
        """The mix's p50 and p95 and each kind's p50, in milliseconds."""
        every = self.all_ms()
        metrics = {"store.query_p50_ms": percentile(every, 50),
                   "store.query_p95_ms": percentile(every, 95),
                   "store.rows_per_query": self.rows_per_query()}
        for kind, times in self.times().items():
            metrics[f"store.query_{kind}_p50_ms"] = 1e3 * percentile(times,
                                                                     50)
        return metrics

    def rows_per_query(self):
        return self.rows / max(1, self.passes * len(self.mix))

    def finish(self, store_path, ops, passes=QUERY_PASSES):
        """Top up to ``passes`` passes."""
        while self.passes < passes:
            self.run_pass(store_path, ops)


class Stream:
    """One materialized stream of a run and its classic answer."""

    def __init__(self, data):
        self.data = data
        self.ticks = wl.materialize(data)
        self.tick_times = sorted(t for t, _ in self.ticks)
        self.reference_convoys = None
        self.reference = None

    def run_reference(self, query):
        per_tick, tail = wl.classic_run(self.ticks, query)
        self.reference_convoys = [c for closed in per_tick.values()
                                  for c in closed] + tail
        self.reference = wl.canonical(self.reference_convoys)


class Workspace:
    """Store files for one run, numbered so none is reused."""

    def __init__(self, tmp):
        self.tmp = tmp
        self.count = 0

    def new_store(self):
        self.count += 1
        return os.path.join(self.tmp, f"store{self.count}.db")


def setup_only(spec, workspace, samples):
    """Time ``samples`` bare miner constructions (store open included)."""
    times = []
    for _ in range(samples):
        path = workspace.new_store()
        start = perf_counter()
        miner = StreamingConvoyMiner(**wl.miner_kwargs(spec, store=path))
        times.append(perf_counter() - start)
        miner.close()
        remove_store(path)
    return times


def prepare(spec, tmp):
    streams = [Stream(data) for data in wl.data_specs(spec)]
    workspace = Workspace(tmp)
    # Warm-up on a prefix: imports, SQLite and first-call costs are
    # paid before anything is measured.
    k = spec["query"]["k"]
    path = workspace.new_store()
    mine_once(spec, streams[0].ticks[: 2 * k + 5], path)
    remove_store(path)
    settle_heap()
    return streams, workspace


def settle_heap():
    """Collect, then move every object alive now out of the garbage
    collector's reach (``gc.freeze``).  Called once the benchmark's own
    inputs and reference answers are built, so a collection during
    mining walks the miner's objects, not the benchmark's."""
    gc.collect()
    gc.freeze()


def run_untraced(spec, seconds, tmp, ops):
    """End-to-end metrics; returns ``(metrics, samples, extra)``.

    Repetition ``i`` mines stream ``i % STREAMS``, and the run ends on a
    whole round of the streams.  The window counts only the repetitions'
    own time (setup and mining); the reference runs, the answer checks
    and the setup-only samples run between repetitions, outside it.  One
    pass of the query mix checks the last store's answers.
    """
    streams, workspace = prepare(spec, tmp)
    count = len(streams)

    # The first repetition of each stream also measures memory growth,
    # with the inputs already materialized and before the reference runs
    # allocate.  The high-water mark is reset first, so the peak is the
    # mining's own.  Where the kernel refuses the reset, the record flags
    # it and holds the headroom that the earlier peak leaves.
    reps, peaks, resets, headroom = [], [], [], []
    path = None
    for stream in streams:
        if path is not None:
            remove_store(path)
        gc.collect()
        rss0 = proc_status_kb("VmRSS")
        resets.append(reset_peak_rss())
        headroom.append((proc_status_kb("VmHWM") - rss0) / 1024.0)
        path = workspace.new_store()
        reps.append(mine_once(spec, stream.ticks, path))
        peaks.append((proc_status_kb("VmHWM") - rss0) / 1024.0)

    for stream in streams:
        stream.run_reference(spec["query"])
    settle_heap()
    setups = []
    i = 0
    while True:
        stream, rep = streams[i % count], reps[i]
        check_rep(rep, stream.ticks, stream.reference, ops)
        rep.settle(stream.tick_times)
        setups.append(rep.setup_s)
        setups += setup_only(spec, workspace, SETUP_PER_REPETITION)
        if rep.error is not None:
            break
        i += 1
        if (i % count == 0 and i >= MIN_REPETITIONS * count
                and sum(r.setup_s + r.wall_s for r in reps) >= seconds):
            break
        if i == len(reps):
            remove_store(path)
            path = workspace.new_store()
            reps.append(mine_once(spec, streams[i % count].ticks, path))
    last = streams[(len(reps) - 1) % count]
    queries = QueryMix(spec, last.ticks, last.reference_convoys)
    queries.finish(path, ops, passes=1)
    remove_store(path)
    runs = [(streams[j % count], rep) for j, rep in enumerate(reps)
            if rep.error is None]
    setups += setup_only(spec, workspace, max(0, SETUP_SAMPLES - len(setups)))

    feed_ms, emit_ms = [], []
    for stream in streams:
        own = [rep for s, rep in runs if s is stream]
        feed_ms += tick_medians(rep.feed_s for rep in own)
        emit_ms += tick_medians(rep.emit_s for rep in own)
    mining_s = sum(rep.wall_s for _stream, rep in runs)
    metrics = {
        "snapshots_per_s": (sum(len(s.ticks) for s, _rep in runs) / mining_s
                            if runs else 0.0),
        "tick_p50_ms": percentile(feed_ms, 50),
        "tick_p95_ms": percentile(feed_ms, 95),
        "emit_latency_p50_ms": percentile(emit_ms, 50),
        "emit_latency_p95_ms": percentile(emit_ms, 95),
        "setup_s": median(setups),
        "peak_rss_mb": fmean(peaks),
    }
    samples = {
        "streams": count,
        "repetitions": len(runs),
        "mining_s": round(mining_s, 3),
        "ticks_per_repetition": len(streams[0].ticks),
        "timed_ticks": sum(len(rep.feed_s) for _stream, rep in runs),
        "tick": len(feed_ms),
        "emit_latency": len(emit_ms),
        "query": len(queries.mix),
        "setup": len(setups),
        "peak_rss": len(peaks),
        "convoys": sum(len(stream.reference) for stream in streams),
    }
    extra = {"data": [stream.data for stream in streams],
             "peak_rss_reset": all(resets),
             "rss_headroom_mb": max(headroom),
             "classic_answer": [stream.reference_convoys
                                for stream in streams]}
    return metrics, samples, extra


def layer_metrics(tracer, rep):
    """Per-layer metrics of one traced repetition."""
    own = tracer.self_times()
    counts = tracer.counts
    counters = rep.counters
    clusterer = rep.clusterer_counters
    commit_s = tracer.inclusive("store.commit")
    insert_s = tracer.inclusive("store.insert")
    flush_commit_s = tracer.inclusive("store.commit", roots=("flush",))
    pairs = counts["track.pairs_scanned"]
    spliced = counters.get("spliced_candidates", 0)
    reintersected = counters.get("reintersected_candidates", 0)
    holds = [1e3 * (release - arrival)
             for _t, arrival, release in tracer.holds]
    stored = counters.get("stored_convoys", 0)
    cluster_s = own.get("cluster", 0.0)
    points = counters.get("clustered_points", 0)
    return {
        "ingest.self_s": own.get("ingest", 0.0),
        "ingest.hold_ms_p95": percentile(holds, 95) if holds else 0.0,
        "ingest.reordered_snapshots": counters.get("reordered_snapshots", 0),
        "ingest.peak_pending": counters.get("peak_pending", 0),
        "cluster.self_s": cluster_s,
        "cluster.points": points,
        "cluster.points_per_s": points / cluster_s if cluster_s else 0.0,
        "cluster.clusters": counts["cluster.clusters"],
        "cluster.full_passes": clusterer.get(
            "full_passes", counters.get("clustering_calls", 0)),
        "cluster.incremental_passes": clusterer.get("incremental_passes", 0),
        "track.match_s": own.get("track.match", 0.0),
        "track.pairs_scanned": pairs,
        "track.match_hits": counts["track.match_hits"],
        "track.hit_ratio": counts["track.match_hits"] / pairs if pairs else 0.0,
        "track.plan_apply_s": own.get("track", 0.0),
        "track.spliced": spliced,
        "track.reintersected": reintersected,
        "track.splice_ratio": (spliced / (spliced + reintersected)
                               if spliced + reintersected else 0.0),
        "track.peak_candidates": counters.get("peak_candidates", 0),
        "emit.self_s": own.get("emit", 0.0),
        "emit.convoys": counters.get("convoys_emitted", 0),
        "miner.self_s": own.get("feed", 0.0) + own.get("flush", 0.0),
        "store.observe_s": own.get("store.observe", 0.0),
        "store.commit_s": commit_s,
        "store.insert_s": insert_s,
        "store.bbox_prune_s": commit_s - insert_s,
        "store.flush_commit_s": flush_commit_s,
        "store.commits": counts["store.commits"],
        "store.convoys_written": stored,
        "store.member_ids_written": counts["store.member_ids_written"],
        "store.bytes_per_convoy": rep.db_bytes / stored if stored else 0.0,
        # The layers' share of the traced wall time, leaving out the
        # tracer's own bookkeeping: what is missing is miner glue.
        "trace.self_sum_ratio": (
            sum(own.get(name, 0.0) for name in LAYER_SPANS)
            / (rep.wall_s - own.get("trace", 0.0))),
    }


def run_traced(spec, seconds, tmp, ops):
    """Per-layer metrics from traced repetitions, each paired with an
    untraced one on the same stream for the tracing overhead; returns
    ``(metrics, samples, extra)``."""
    streams, workspace = prepare(spec, tmp)
    for stream in streams:
        stream.run_reference(spec["query"])
    settle_heap()
    plain, traced = [], []
    path = None
    while (not traced or not plain
           or sum(rep.wall_s for rep in plain + traced) < seconds):
        if path is not None:
            remove_store(path)
        path = workspace.new_store()
        stream = streams[len(traced) % len(streams)]
        tracer = Tracer() if len(plain) > len(traced) else None
        rep = mine_once(spec, stream.ticks, path, tracer)
        check_rep(rep, stream.ticks, stream.reference, ops)
        rep.settle(stream.tick_times)
        if rep.error is not None:
            break
        if tracer is None:
            plain.append(rep)
        else:
            rep.layers = layer_metrics(tracer, rep)
            traced.append(rep)
    queries = QueryMix(spec, stream.ticks, stream.reference_convoys)
    queries.finish(path, ops)
    remove_store(path)
    metrics = {name: median([rep.layers[name] for rep in traced])
               for name in traced[0].layers} if traced else {}
    metrics.update(queries.layer_metrics())
    if traced and plain:
        metrics["trace.overhead_ratio"] = median(
            [t.wall_s / p.wall_s for p, t in zip(plain, traced)])
    samples = {"streams": len(streams),
               "traced_repetitions": len(traced),
               "untraced_repetitions": len(plain),
               "query": len(queries.all_ms()),
               "query_passes": queries.passes}
    extra = {"data": [stream.data for stream in streams],
             "classic_answer": [stream.reference_convoys
                                for stream in streams]}
    return metrics, samples, extra
