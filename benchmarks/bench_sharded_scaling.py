"""Sharded candidate tracking — scaling curve at 1/2/4 shards per transport.

Sharding fans the per-tick candidate join across resident shard
workers: the in-process serial twin, or one spawned process per shard.
This bench answers the questions that decide whether the layer may
exist at all, and says where its time goes:

* **Zero-overhead layer** — the sharded tracker on the *serial* twin
  must hold within 10% of the unsharded engine's tick cost
  (``SERIAL_BAR``), at 1 shard (pure layer cost) and as shards grow
  (routing cost).
* **Real scaling** — the *process* transport must show a measurable
  speedup on a tracker-bound workload (``PROCESS_BAR``), asserted only
  when the host can run two CPU-bound processes in parallel: the
  in-run two-process ceiling (``perfbench.host.parallel_ceiling``) must
  reach ``CEILING_GATE``.  Below it the rows are still recorded, so the
  JSON trajectory shows the overhead honestly.
* **Payload win** — workers hold their shard's candidate sets, so only
  per-tick deltas cross the boundary.  The byte pass runs a
  delta-friendly *group-swap* workload with pickle-level byte
  accounting and asserts the per-tick payload (requests plus
  responses) is at least ``BYTES_BAR`` times smaller than what a
  stateless transport would have to ship: every cluster set plus each
  scanned candidate's object set, pickled in the same run.
* **Attribution** — every sharded cell splits its tick into the
  parent's ``reconcile`` (apply-pass provenance into chain ids and
  put/drop deltas), ``build`` (routing jobs and building the shard
  messages), the transport's ``run`` (the workers' kernels plus any
  IPC) and ``merge`` (re-deriving the winning intersections from match
  indexes), timed with :class:`repro.bench.PhaseTimer` around those
  seams from outside the tracker.  The unsharded baseline reports its
  ``match`` (the inline kernel) for comparison with ``run``.

The timing workload is deliberately tracker-bound: a
``synthetic_stream`` with many planted co-travelling groups is
clustered **once** up front, and a replaying clusterer feeds the
precomputed per-tick cluster lists to every engine, so the measured
per-tick cost is almost entirely the candidate step (hundreds of
clusters joined against >1000 live candidates).  ``--hotspots H`` swaps
in a ``churn_stream(hotspots=H)`` workload instead — movement confined
to H seeded spatial hotspots — to chart the unbalanced-shard regime
(``max_shard_batch`` exposes the skew).

Timing estimator: the unsharded baseline and every cell run in
*lockstep* — every engine gets tick ``t`` before any gets ``t + 1``, in
an order rotated per tick — over ``reps`` rounds, and a cell's tick
cost is the median over tick positions of the per-tick **minimum**
across rounds (the estimator ``bench_match_kernel.py`` documents:
scheduling noise only adds time).  Lockstep pairs every cell's sample
of a tick with the baseline's, taken moments apart: on a shared host
the speed of a fixed probe loop drifts by tens of percent between
whole runs, and interleaving whole runs left that drift in the
ratios.

Every configuration's per-tick emissions are asserted equal to the
unsharded engine's on every run — the scaling numbers carry no semantic
caveats (the exhaustive proof is ``tests/streaming/
test_sharded_equivalence.py``).

Run ``python benchmarks/bench_sharded_scaling.py`` for the table,
``--smoke`` for a seconds-long CI-sized run (equivalence and byte
assertions only), and ``--json PATH`` for the machine-readable record
CI uploads as a perf-trajectory artifact
(``BENCH_sharded_scaling.json``).
"""

import argparse
import os
import pickle
import random
import statistics
import time
from contextlib import ExitStack

from benchmarks.common import print_report, safe_rate, write_bench_json
from perfbench.host import parallel_ceiling
from repro.bench import PhaseTimer, format_table
from repro.clustering.dbscan import dbscan
from repro.clustering.incremental import (
    APPEARED,
    CHANGED,
    UNCHANGED,
    ClusterDelta,
)
from repro.streaming import (
    ShardedCandidateTracker,
    StreamingConvoyMiner,
    churn_stream,
    synthetic_stream,
)

M, K, EPS = 3, 8, 10.0

#: (shards, executor) cells of the scaling curve, in report order.
FULL_GRID = (
    (1, "serial"),
    (2, "serial"),
    (4, "serial"),
    (2, "process"),
    (4, "process"),
)
SMOKE_GRID = (
    (1, "serial"),
    (2, "serial"),
    (2, "process"),
)

#: Interleaved timing rounds per cell.
FULL_REPS = 5
SMOKE_REPS = 1

FULL_SCALE = dict(n_objects=1600, n_snapshots=60, group_count=200,
                  group_size=8)
SMOKE_SCALE = dict(n_objects=240, n_snapshots=15, group_count=40,
                   group_size=6)

#: Group-swap delta workload scales for the byte pass: ``dirty_groups``
#: swap pairs mutate per tick, every other cluster arrives UNCHANGED,
#: so the shipped deltas track the dirty slice while a stateless
#: transport would re-ship the scanned state every tick.
BYTES_FULL_SCALE = dict(n_groups=240, group_size=16, n_snapshots=80,
                        dirty_groups=4)
BYTES_SMOKE_SCALE = dict(n_groups=120, group_size=16, n_snapshots=50,
                         dirty_groups=2)

#: serial-twin tick cost must stay within this fraction of unsharded.
SERIAL_BAR = 0.90
#: best process-transport speedup must clear this ...
PROCESS_BAR = 1.10
#: ... when the measured two-process parallel ceiling reaches this.
CEILING_GATE = 1.5
#: payload bytes/tick must be at least this many times smaller than
#: the stateless batch (cluster sets + scanned candidates' object sets).
BYTES_BAR = 5.0

#: The sharded tick's attributed seams, in tick order.
PHASES = ("reconcile", "build", "run", "merge")

#: Fields every result row carries (pinned by the schema guard in
#: ``tests/test_bench_harness.py``).
ROW_KEYS = {
    "shards", "executor", "workload", "reps", "rate", "tick_ms",
    "speedup_vs_unsharded", "convoys", "peak_candidates",
    "sharded_candidates", "max_shard_batch", "seconds", "phase_ms",
    "shipped_bytes_per_tick", "result_bytes_per_tick",
    "payload_bytes_per_tick", "stateless_bytes_per_tick",
    "payload_reduction",
}


class ReplayClusterer:
    """Feed precomputed per-tick cluster lists: clustering cost ~ zero,
    so the engine's measured per-tick cost is the candidate tracker."""

    def __init__(self, per_tick):
        self._ticks = iter(per_tick)

    def cluster(self, snapshot):
        return next(self._ticks)


class ReplayDeltaClusterer:
    """Feed precomputed ``(clusters, delta)`` pairs, driving the
    tracker's diff-aware ``advance_delta`` path every tick."""

    def __init__(self, per_tick):
        self._ticks = iter(per_tick)

    def cluster_with_delta(self, snapshot):
        return next(self._ticks)

    def cluster(self, snapshot):
        return self.cluster_with_delta(snapshot)[0]


def make_workload(scale, hotspots=None, seed=42):
    """Materialize snapshots and their per-tick clusterings once."""
    if hotspots is None:
        ticks = synthetic_stream(
            scale["n_objects"], scale["n_snapshots"], seed=seed, eps=EPS,
            group_count=scale["group_count"],
            group_size=scale["group_size"],
            area=60.0 * EPS,
        )
    else:
        ticks = churn_stream(
            scale["n_objects"], scale["n_snapshots"], seed=seed, eps=EPS,
            churn=0.2, area=36.0 * EPS, hotspots=hotspots,
        )
    snapshots = [snapshot for _t, snapshot in ticks]
    clusters = [dbscan(snapshot, EPS, M) for snapshot in snapshots]
    return snapshots, clusters


def make_delta_workload(n_groups, group_size, n_snapshots, dirty_groups,
                        seed=42):
    """Synthesize the group-swap delta stream for the byte pass.

    ``n_groups`` stable clusters with stable ids; every tick after the
    first, ``dirty_groups`` disjoint *pairs* of groups swap one member
    each (marked CHANGED), every other cluster arrives UNCHANGED.  The
    geometry never matters — the delta clusterer replays these lists —
    so the snapshot is one constant position dict.

    Returns ``(snapshots, per_tick)`` where ``per_tick`` holds the
    ``(clusters, delta)`` pairs for a :class:`ReplayDeltaClusterer`.
    """
    rng = random.Random(seed)
    groups = [
        {f"o{g * group_size + j}" for j in range(group_size)}
        for g in range(n_groups)
    ]
    snapshot = {f"o{i}": (0.0, 0.0) for i in range(n_groups * group_size)}
    per_tick = []
    for tick in range(n_snapshots):
        if tick == 0:
            status = [APPEARED] * n_groups
        else:
            status = [UNCHANGED] * n_groups
            mutated = rng.sample(range(n_groups), 2 * dirty_groups)
            for a, b in zip(mutated[::2], mutated[1::2]):
                x = rng.choice(sorted(groups[a]))
                y = rng.choice(sorted(groups[b]))
                groups[a].discard(x)
                groups[a].add(y)
                groups[b].discard(y)
                groups[b].add(x)
                status[a] = status[b] = CHANGED
        delta = ClusterDelta(
            ids=tuple(range(n_groups)), status=tuple(status), vanished=()
        )
        per_tick.append(([set(group) for group in groups], delta))
    return [snapshot] * n_snapshots, per_tick


def _time_seam(obj, attr, timer, phase):
    """Replace ``obj.attr`` (an instance attribute only — no class is
    patched) with a wrapper accumulating its time under ``phase``."""
    inner = getattr(obj, attr)

    def timed(*args, **kwargs):
        with timer.phase(phase):
            return inner(*args, **kwargs)

    setattr(obj, attr, timed)


def attribute_phases(tracker, timer):
    """Time the tracker's per-tick seams into ``timer``: the sharded
    tick's :data:`PHASES`, or the unsharded tracker's inline ``match``."""
    if not isinstance(tracker, ShardedCandidateTracker):
        _time_seam(tracker, "_match_live", timer, "match")
        return
    _time_seam(tracker, "_reconcile", timer, "reconcile")
    _time_seam(tracker, "_build_batches", timer, "build")
    _time_seam(tracker.executor, "run", timer, "run")
    _time_seam(tracker, "_merge_responses", timer, "merge")


def count_stateless_bytes(tracker, counters):
    """Add ``stateless_bytes`` to ``counters``: per tick, the pickled
    size of what a stateless transport ships — every cluster set plus
    each scanned candidate's object set."""
    inner = tracker._match_live
    counters["stateless_bytes"] = 0

    def counted(members, jobs):
        counters["stateless_bytes"] += len(
            pickle.dumps((members, jobs), pickle.HIGHEST_PROTOCOL)
        )
        return inner(members, jobs)

    tracker._match_live = counted


def build_miner(make_clusterer, shards=None, executor=None, timer=None,
                byte_accounting=False):
    """One engine over a replaying clusterer, optionally instrumented."""
    miner = StreamingConvoyMiner(
        M, K, EPS, clusterer=make_clusterer(), shards=shards,
        executor=executor,
    )
    tracker = miner.pipeline.track.tracker
    if timer is not None:
        attribute_phases(tracker, timer)
    if byte_accounting:
        tracker.enable_byte_accounting()
        count_stateless_bytes(tracker, miner.counters)
    return miner


def run_engine(snapshots, make_clusterer, **kwargs):
    """One full engine run; returns (per-tick emissions, counters)."""
    miner = build_miner(make_clusterer, **kwargs)
    emitted = []
    with miner:
        for t, snapshot in enumerate(snapshots):
            emitted.append(miner.feed(t, snapshot))
        emitted.append(miner.flush())
    return emitted, miner.counters


def tick_cost(rounds):
    """Median over tick positions of the per-tick minimum across
    rounds (``rounds`` holds one per-feed list per round)."""
    return statistics.median(min(col) for col in zip(*rounds))


def _row(shards, executor, workload, reps, emitted, counters,
         tick_seconds=None, base_tick=None, phases=None):
    """One result row; ``tick_seconds`` holds one per-feed wall-time
    list per round."""
    tick = None if tick_seconds is None else tick_cost(tick_seconds)
    n_ticks = sum(len(rep) for rep in tick_seconds or ())
    return {
        "shards": shards,
        "executor": executor,
        "workload": workload,
        "reps": reps,
        "rate": None if tick is None else safe_rate(1, tick),
        "tick_ms": None if tick is None else tick * 1000.0,
        "speedup_vs_unsharded": (
            None if tick is None or base_tick is None
            else safe_rate(base_tick, tick)
        ),
        "convoys": sum(len(batch) for batch in emitted),
        "peak_candidates": counters["peak_candidates"],
        "sharded_candidates": counters.get("sharded_candidates", 0),
        "max_shard_batch": counters.get("max_shard_batch", 0),
        "seconds": sum(sum(rep) for rep in tick_seconds or ()),
        "phase_ms": None if phases is None else {
            name: 1000.0 * seconds / n_ticks
            for name, seconds in phases.durations.items()
        },
        "shipped_bytes_per_tick": None,
        "result_bytes_per_tick": None,
        "payload_bytes_per_tick": None,
        "stateless_bytes_per_tick": None,
        "payload_reduction": None,
    }


def run_grid(scale, grid, hotspots=None, reps=1):
    """Time the unsharded baseline and every grid cell in lockstep over
    ``reps`` rounds; assert per-tick equivalence on every round; return
    (baseline_row, rows).

    Within a round every engine is fed tick ``t`` before any engine sees
    tick ``t + 1``, in an order rotated per tick and per round, so each
    cell's sample of a tick is taken within a few hundred milliseconds
    of the baseline's: host-speed drift, which on a shared host moves
    whole runs by tens of percent, lands on every cell alike.
    """
    snapshots, clusters = make_workload(scale, hotspots=hotspots)
    workload = (
        "planted groups" if hotspots is None
        else f"hotspot churn (H={hotspots})"
    )
    make_clusterer = lambda: ReplayClusterer(clusters)  # noqa: E731
    cells = [(None, None)] + [tuple(cell) for cell in grid]
    times = {cell: [] for cell in cells}
    timers = {cell: PhaseTimer() for cell in cells}
    for rep in range(reps):
        emitted = {cell: [] for cell in cells}
        with ExitStack() as stack:
            miners = {
                cell: stack.enter_context(build_miner(
                    make_clusterer, *cell, timer=timers[cell]
                ))
                for cell in cells
            }
            for cell in cells:
                times[cell].append([])
            for t, snapshot in enumerate(snapshots):
                offset = (rep + t) % len(cells)
                for cell in cells[offset:] + cells[:offset]:
                    started = time.perf_counter()
                    emitted[cell].append(miners[cell].feed(t, snapshot))
                    times[cell][-1].append(time.perf_counter() - started)
            for cell in cells:
                emitted[cell].append(miners[cell].flush())
        for shards, executor in cells[1:]:
            assert emitted[(shards, executor)] == emitted[cells[0]], (
                f"sharded engine diverged from unsharded at "
                f"shards={shards}, executor={executor}"
            )
    base_tick = tick_cost(times[cells[0]])
    rows = [
        _row(shards or 0, executor or "unsharded", workload, reps,
             emitted[(shards, executor)], miners[(shards, executor)].counters,
             tick_seconds=times[(shards, executor)], base_tick=base_tick,
             phases=timers[(shards, executor)])
        for shards, executor in cells
    ]
    return rows[0], rows[1:]


def run_bytes(scale):
    """The byte pass: the group-swap workload through a 2-shard serial
    tracker with pickle-level accounting of what it ships *and* of the
    stateless batch for the same ticks.

    Returns ``(row, reduction)`` — the stateless/shipped payload ratio,
    which the caller asserts against ``BYTES_BAR``.  The serial twin
    pickles exactly what the process transport ships, so the ratio is
    transport-independent.
    """
    snapshots, per_tick = make_delta_workload(**scale)
    make_clusterer = lambda: ReplayDeltaClusterer(per_tick)  # noqa: E731
    base_emitted, _counters = run_engine(snapshots, make_clusterer)
    emitted, counters = run_engine(
        snapshots, make_clusterer, shards=2, executor="serial",
        byte_accounting=True,
    )
    assert emitted == base_emitted, (
        "byte-pass engine diverged from unsharded"
    )
    n = len(snapshots)
    row = _row(2, "serial", "group swap", 1, emitted, counters)
    row["shipped_bytes_per_tick"] = counters["shipped_bytes"] / n
    row["result_bytes_per_tick"] = counters["result_bytes"] / n
    row["payload_bytes_per_tick"] = (
        row["shipped_bytes_per_tick"] + row["result_bytes_per_tick"]
    )
    row["stateless_bytes_per_tick"] = counters["stateless_bytes"] / n
    reduction = (
        row["stateless_bytes_per_tick"] / row["payload_bytes_per_tick"]
    )
    row["payload_reduction"] = reduction
    return row, reduction


def _fmt(value, spec, suffix=""):
    return "-" if value is None else format(value, spec) + suffix


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument(
        "--smoke", action="store_true",
        help="CI-sized run: tiny stream, reduced grid, equivalence and "
        "payload-byte assertions only (timings are not meaningful)",
    )
    parser.add_argument(
        "--json", metavar="PATH", default=None,
        help="also write the results as machine-readable JSON "
        "(params, rates, speedups, phase split, payload bytes, git SHA)",
    )
    parser.add_argument(
        "--hotspots", type=int, default=None, metavar="H",
        help="swap in the skewed workload: churn confined to H seeded "
        "spatial hotspots (charts unbalanced shard load)",
    )
    args = parser.parse_args(argv)
    scale = SMOKE_SCALE if args.smoke else FULL_SCALE
    grid = SMOKE_GRID if args.smoke else FULL_GRID
    reps = SMOKE_REPS if args.smoke else FULL_REPS
    bytes_scale = BYTES_SMOKE_SCALE if args.smoke else BYTES_FULL_SCALE
    cores = os.cpu_count() or 1
    ceiling = parallel_ceiling()
    baseline, rows = run_grid(scale, grid, hotspots=args.hotspots,
                              reps=reps)
    bytes_row, reduction = run_bytes(bytes_scale)
    table_rows = []
    for row in [baseline] + rows:
        phases = row["phase_ms"] or {}
        table_rows.append([
            row["executor"] if row["shards"] else "(unsharded)",
            row["shards"] or "-",
            _fmt(row["rate"], ".1f"),
            _fmt(row["speedup_vs_unsharded"], ".2f", "x"),
            _fmt(row["tick_ms"], ".2f"),
            *(_fmt(phases.get(name), ".2f")
              for name in ("match",) + PHASES),
            row["peak_candidates"],
            row["max_shard_batch"] or "-",
        ])
    print_report(
        format_table(
            "Sharded candidate tracking — precomputed-cluster "
            f"{baseline['workload']} workload ({scale['n_objects']} "
            f"objects, m={M}, k={K}, e={EPS:g}; {cores} core(s), "
            f"parallel ceiling {ceiling:.2f}x; median per-tick min of "
            f"{reps} lockstep round(s); identical convoys asserted "
            "every tick; phase columns are mean ms/tick)",
            ["executor", "shards", "snap/s", "vs unsharded", "tick ms",
             "match", "reconcile", "build", "run", "merge",
             "peak cands", "max batch"],
            table_rows,
        )
    )
    print_report(
        format_table(
            "Per-tick payload bytes — group-swap delta workload "
            f"({bytes_scale['n_groups']} groups x "
            f"{bytes_scale['group_size']}, "
            f"{bytes_scale['dirty_groups']} swap pair(s)/tick, "
            "2 shards, pickled bytes)",
            ["shipped B/tick", "result B/tick", "payload B/tick",
             "stateless batch B/tick", "reduction"],
            [[
                round(bytes_row["shipped_bytes_per_tick"], 1),
                round(bytes_row["result_bytes_per_tick"], 1),
                round(bytes_row["payload_bytes_per_tick"], 1),
                round(bytes_row["stateless_bytes_per_tick"], 1),
                f"{reduction:.2f}x",
            ]],
        )
    )
    if args.json:
        write_bench_json(
            args.json, "sharded_scaling",
            dict(m=M, k=K, eps=EPS, smoke=args.smoke, cores=cores,
                 parallel_ceiling=ceiling, reps=reps,
                 hotspots=args.hotspots, serial_bar=SERIAL_BAR,
                 process_bar=PROCESS_BAR, ceiling_gate=CEILING_GATE,
                 bytes_bar=BYTES_BAR, bytes_scale=bytes_scale, **scale),
            [baseline] + rows + [bytes_row],
        )
        print(f"json results written to {args.json}")
    failures = []
    if reduction < BYTES_BAR:
        failures.append(
            f"the shipped payload is only {reduction:.2f}x smaller than "
            f"the stateless batch on the group-swap workload, below the "
            f"{BYTES_BAR:.1f}x bar (workers must be fed deltas, not state)"
        )
    if not args.smoke:
        worst_serial = min(
            row["speedup_vs_unsharded"] for row in rows
            if row["executor"] == "serial"
        )
        if worst_serial < SERIAL_BAR:
            failures.append(
                f"serial-twin tick cost fell to {worst_serial:.2f}x of "
                f"the unsharded engine, below the {SERIAL_BAR:.2f}x bar "
                f"(the layer must not tax the hot path; see the phase "
                f"columns for where the time goes)"
            )
        best_process = max(
            row["speedup_vs_unsharded"] for row in rows
            if row["executor"] == "process"
        )
        if ceiling >= CEILING_GATE:
            if best_process < PROCESS_BAR:
                failures.append(
                    f"best process-transport speedup is "
                    f"{best_process:.2f}x at a {ceiling:.2f}x parallel "
                    f"ceiling, below the {PROCESS_BAR:.2f}x bar"
                )
        else:
            print(
                f"note: parallel ceiling {ceiling:.2f}x is below "
                f"{CEILING_GATE:.1f}x — the process speedup bar is not "
                f"asserted (best observed {best_process:.2f}x)"
            )
    if failures:
        raise SystemExit("acceptance failure: " + "; ".join(failures))
    print(f"ok: every sharded configuration agrees with the unsharded "
          f"engine on every tick; payload {reduction:.2f}x below the "
          f"stateless batch (bar {BYTES_BAR:.1f}x)")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
