"""Candidate-match join — pairwise vs owner join, and the selection rule.

Every CMC step joins each scanning candidate against the clusters its
scan names.  :func:`repro.core.candidates.match_candidates` runs that
join with one of two pure-Python kernels, picked per call from the
jobs' shape: the pairwise reference (one set intersection per scanned
pair) when the mean scan fan is below
:data:`~repro.core.candidates.OWNER_JOIN_MIN_FAN`, the owner join (at
most one hash probe per candidate object, exact because snapshot
clusters are disjoint) from it on.  This bench times three paths on the same ticks —
``pairwise`` and ``owner`` forced in-process through the module
constant, and ``selected`` (the rule as shipped) — over three regimes:

* ``dense`` — the hotspot-drift workload
  (:func:`repro.streaming.hotspot_drift_scenario`, 10^5 objects in the
  full run): large stable packs replayed as the per-tick clustering, so
  the cost is almost entirely the join over thousands of wide scans.
* ``small-delta`` — the incremental pipeline on a churn stream, where
  per-tick deltas are tiny, scans narrow, and pairwise wins.
* ``tracker-bound`` — the replay workload of
  ``bench_sharded_scaling.py``: hundreds of clusters joined against
  >1000 live candidates.  Acceptance: ``owner`` must clear
  ``VECTOR_BAR`` (3x) snapshots/sec over ``pairwise`` here.

In every regime ``selected`` must reach ``AUTO_BAR`` (0.95x) of the
best forced path — the rule is only accepted if it is never measurably
worse than knowing the answer in advance.  The paths are timed in
lockstep rounds (:func:`run_round`), and each regime's first ticks are
an untimed warmup.

Every run additionally asserts tick-for-tick equivalence of the three
paths on every regime, and across the shipping transports: unsharded,
and sharded on the serial and process shard transports (spawned
workers do not see the in-process forcing; they pick their own path).

Run ``python benchmarks/bench_match_kernel.py`` for the table,
``--smoke`` for a seconds-long CI-sized run (equivalence assertions
only), and ``--json PATH`` for the machine-readable record CI uploads
as a perf-trajectory artifact (``BENCH_match_kernel.json``).
"""

import argparse
import gc
import statistics
import time
from contextlib import ExitStack, contextmanager

import repro.core.candidates as candidates
from benchmarks.bench_sharded_scaling import (
    FULL_SCALE,
    SMOKE_SCALE,
    ReplayClusterer,
    make_workload,
)
from benchmarks.common import print_report, safe_rate, write_bench_json
from repro.bench import format_table
from repro.streaming import (
    StreamingConvoyMiner,
    churn_stream,
    hotspot_drift_scenario,
)

M, K, EPS = 3, 8, 10.0

#: Timed paths, in report order: ``OWNER_JOIN_MIN_FAN`` forced to
#: always-pairwise, to always-owner, and left as shipped.
PATHS = ("pairwise", "owner", "selected")
_FAN = {"pairwise": float("inf"), "owner": 0,
        "selected": candidates.OWNER_JOIN_MIN_FAN}

#: owner must clear this speedup over pairwise on the tracker-bound
#: regime (full mode).
VECTOR_BAR = 3.0
#: selected must reach this fraction of the best forced path's rate in
#: every measured regime.
AUTO_BAR = 0.95

#: 200 hotspots over an 8k hot population: every candidate scans 200
#: clusters per tick.
FULL_DENSE = dict(n_objects=100_000, n_snapshots=28, hotspots=200,
                  background=0.92, warmup=8)
SMOKE_DENSE = dict(n_objects=3_000, n_snapshots=10, hotspots=12,
                   background=0.9, warmup=3)
#: 2.5k objects put the small-delta pairwise tick at ~25ms, where the
#: scans stay narrow (3-11 clusters per candidate).
FULL_SMALL = dict(n_objects=2500, n_snapshots=36, churn=0.15, warmup=8)
SMOKE_SMALL = dict(n_objects=120, n_snapshots=12, churn=0.15, warmup=3)
#: The tracker-bound replay: ``bench_sharded_scaling``'s scales, with
#: a warmup that lets the live candidate set fill up.
FULL_TRACKER = dict(FULL_SCALE, warmup=8)
SMOKE_TRACKER = dict(SMOKE_SCALE, warmup=3)

#: (shards, executor) transports of the equivalence grid.
TRANSPORTS = (
    (None, None),
    (2, "serial"),
    (2, "process"),
)


@contextmanager
def forced(path):
    """Pin :func:`~repro.core.candidates.match_candidates` to one path."""
    saved = candidates.OWNER_JOIN_MIN_FAN
    candidates.OWNER_JOIN_MIN_FAN = _FAN[path]
    try:
        yield
    finally:
        candidates.OWNER_JOIN_MIN_FAN = saved


def make_dense_workload(scale, seed=42):
    """Materialize the hotspot-drift ticks and their planted clustering.

    The planted packs *are* the per-tick clusters (each pack is
    density-connected by construction), so a :class:`ReplayClusterer`
    feeds them directly and the measured per-tick cost is the candidate
    join, not DBSCAN.
    """
    scenario = list(hotspot_drift_scenario(
        scale["n_objects"], scale["n_snapshots"], seed=seed, eps=EPS,
        hotspots=scale["hotspots"], background=scale["background"],
    ))
    ticks = [(t, snapshot) for t, snapshot, _groups in scenario]
    packs = [set(group) for group in scenario[0][2]]
    clusters = [packs] * len(ticks)
    return ticks, clusters


def make_small_workload(scale, seed=42):
    """Materialize the churn ticks of the small-delta regime."""
    return list(churn_stream(
        scale["n_objects"], scale["n_snapshots"], seed=seed, eps=EPS,
        churn=scale["churn"], area=36.0 * EPS,
    ))


def make_tracker_workload(scale):
    """The sharding bench's tracker-bound ticks and their clustering."""
    snapshots, clusters = make_workload(scale)
    return list(enumerate(snapshots)), clusters


def run_round(make_miner, ticks, warmup, rep):
    """One timing round: a miner per path, fed the ticks in lockstep.

    Every path gets tick ``t`` before any path sees tick ``t + 1``, in
    an order rotated per tick and per round, so the paths' samples of a
    tick are taken moments apart and host-speed drift — which on a
    shared host moves whole runs by tens of percent, far more than a
    2 ms owner-join tick — lands on every path alike.  Returns
    ``{path: (per-tick emissions incl. flush, tick secs)}``, timing
    every tick past the first ``warmup``.  The flush is outside the
    timed window (its cost is per-candidate teardown, identical for
    every path), but inside the emissions so the equivalence assertions
    cover the whole answer.

    The cyclic collector is off for the duration of the round (after a
    full collect, so every round starts from the same heap state): with
    a 10^5-object workload resident, a collection pass costs more than
    a whole tick, and *when* it fires depends on incidental per-tick
    allocation counts — exactly the kind of artifact a kernel
    comparison must exclude.
    """
    if not warmup < len(ticks):
        raise ValueError(f"warmup {warmup} must be < ticks {len(ticks)}")
    gc.collect()
    gc.disable()
    try:
        out = {path: ([], []) for path in PATHS}
        with ExitStack() as stack:
            miners = {path: stack.enter_context(make_miner())
                      for path in PATHS}
            for i, (t, snapshot) in enumerate(ticks):
                offset = (rep + i) % len(PATHS)
                for path in PATHS[offset:] + PATHS[:offset]:
                    emitted, tick_seconds = out[path]
                    with forced(path):
                        started = time.perf_counter()
                        emitted.append(miners[path].feed(t, snapshot))
                        elapsed = time.perf_counter() - started
                    if i >= warmup:
                        tick_seconds.append(elapsed)
            for path in PATHS:
                out[path][0].append(miners[path].flush())
        return out
    finally:
        gc.enable()


def run_regime(regime, make_miner, ticks, warmup, reps):
    """Time every path on one regime; assert identical emissions.

    ``reps`` lockstep rounds (:func:`run_round`); each path is rated by
    the median across tick positions of the **minimum** per-tick time
    over the rounds — the standard noise-robust estimator: scheduling
    noise only ever *adds* time, so the best observation of a
    deterministic tick is the closest to its true cost.
    """
    times = {path: [] for path in PATHS}
    baseline = None
    for rep in range(reps):
        for path, (emitted, tick_seconds) in run_round(
            make_miner, ticks, warmup, rep
        ).items():
            if baseline is None:
                baseline = emitted
            else:
                assert emitted == baseline, (
                    f"{path} diverged on the {regime} regime"
                )
            times[path].append(tick_seconds)
    convoys = sum(len(batch) for batch in baseline)
    rows = []
    for path in PATHS:
        reps_seconds = times[path]
        best_per_tick = [min(col) for col in zip(*reps_seconds)]
        rows.append({
            "regime": regime,
            "path": path,
            "snapshots": sum(len(rep) for rep in reps_seconds),
            "seconds": sum(sum(rep) for rep in reps_seconds),
            "rate": safe_rate(1, statistics.median(best_per_tick)),
            "convoys": convoys,
        })
    return rows


def check_transports(ticks, clusters):
    """Assert tick-for-tick equivalence across paths x transports."""
    baseline = None
    for path in PATHS:
        for shards, executor in TRANSPORTS:
            miner = StreamingConvoyMiner(
                M, K, EPS, clusterer=ReplayClusterer(clusters),
                shards=shards, executor=executor,
            )
            emitted = []
            with forced(path), miner:
                for t, snapshot in ticks:
                    emitted.append(miner.feed(t, snapshot))
                emitted.append(miner.flush())
            if baseline is None:
                baseline = emitted
            else:
                assert emitted == baseline, (
                    f"path {path} diverged on transport "
                    f"(shards={shards}, executor={executor})"
                )
    return len(PATHS) * len(TRANSPORTS)


def run_all(smoke):
    dense_scale = SMOKE_DENSE if smoke else FULL_DENSE
    small_scale = SMOKE_SMALL if smoke else FULL_SMALL
    tracker_scale = SMOKE_TRACKER if smoke else FULL_TRACKER
    reps = 1 if smoke else 5
    dense_ticks, dense_clusters = make_dense_workload(dense_scale)
    small_ticks = make_small_workload(small_scale)
    tracker_ticks, tracker_clusters = make_tracker_workload(tracker_scale)

    def replay_miner(clusters):
        return lambda: StreamingConvoyMiner(
            M, K, EPS, clusterer=ReplayClusterer(clusters)
        )

    def small_miner():
        return StreamingConvoyMiner(M, K, EPS, clusterer="incremental")

    rows = run_regime(
        "dense", replay_miner(dense_clusters), dense_ticks,
        dense_scale["warmup"], reps,
    )
    rows.extend(run_regime(
        "small-delta", small_miner, small_ticks, small_scale["warmup"],
        reps,
    ))
    rows.extend(run_regime(
        "tracker-bound", replay_miner(tracker_clusters), tracker_ticks,
        tracker_scale["warmup"], reps,
    ))
    grid_ticks, grid_clusters = make_dense_workload(SMOKE_DENSE)
    grid_runs = check_transports(grid_ticks, grid_clusters)
    scales = {"dense": dense_scale, "small-delta": small_scale,
              "tracker-bound": tracker_scale}
    return scales, rows, grid_runs


def check_bars(rows):
    """The acceptance failures of a full run (empty when it passes)."""
    by_key = {(row["regime"], row["path"]): row["rate"] for row in rows}
    failures = []
    for regime in dict.fromkeys(row["regime"] for row in rows):
        best = max(by_key[(regime, "pairwise")] or 0,
                   by_key[(regime, "owner")] or 0)
        selected = by_key[(regime, "selected")] or 0
        if not best or selected < AUTO_BAR * best:
            failures.append(
                f"selected reached {selected / (best or 1):.2f}x the best "
                f"forced path on the {regime} regime, below the "
                f"{AUTO_BAR:.2f}x bar"
            )
    owner = by_key[("tracker-bound", "owner")] or 0
    pairwise = by_key[("tracker-bound", "pairwise")] or 0
    if not pairwise or owner < VECTOR_BAR * pairwise:
        failures.append(
            f"owner reached {owner / (pairwise or 1):.2f}x pairwise on the "
            f"tracker-bound regime, below the {VECTOR_BAR:.1f}x bar"
        )
    return failures


def fmt_rate(rate):
    return round(rate, 1) if rate is not None else "-"


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument(
        "--smoke", action="store_true",
        help="CI-sized run: tiny workloads, equivalence assertions only "
        "(timings are not meaningful)",
    )
    parser.add_argument(
        "--json", metavar="PATH", default=None,
        help="also write the results as machine-readable JSON "
        "(rates, bars, git SHA)",
    )
    args = parser.parse_args(argv)
    scales, rows, grid_runs = run_all(args.smoke)
    table_rows = []
    for row in rows:
        pairwise = next(
            other["rate"] for other in rows
            if other["regime"] == row["regime"]
            and other["path"] == "pairwise"
        )
        relative = (
            f"{row['rate'] / pairwise:.2f}x"
            if row["rate"] is not None and pairwise else "-"
        )
        table_rows.append([
            row["regime"], row["path"], row["snapshots"],
            fmt_rate(row["rate"]), relative,
        ])
    print_report(
        format_table(
            f"Candidate-match join by regime (m={M}, k={K}, e={EPS:g}, "
            f"owner join from a mean fan of "
            f"{candidates.OWNER_JOIN_MIN_FAN}; identical convoys asserted "
            f"across {grid_runs} path-x-transport runs)",
            ["regime", "path", "timed snaps", "snap/s", "vs pairwise"],
            table_rows,
        )
    )
    if args.json:
        write_bench_json(
            args.json, "match_kernel",
            dict(m=M, k=K, eps=EPS, smoke=args.smoke, scales=scales,
                 owner_join_min_fan=candidates.OWNER_JOIN_MIN_FAN,
                 vector_bar=VECTOR_BAR, auto_bar=AUTO_BAR,
                 transport_runs=grid_runs),
            rows,
        )
        print(f"json results written to {args.json}")
    if args.smoke:
        print("smoke ok: every path agrees on every regime and transport")
        return 0
    failures = check_bars(rows)
    if failures:
        raise SystemExit("acceptance failure: " + "; ".join(failures))
    print(
        f"acceptance ok: selected within {AUTO_BAR:.2f}x of the best "
        f"forced path in every regime; owner >= {VECTOR_BAR:.1f}x pairwise "
        "on tracker-bound"
    )
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
