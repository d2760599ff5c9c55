"""Workload specs, input generation and the correctness oracles.

A workload is named data plus the miner options that define it.  Its
data is ``(generator, params, seed)`` — one of the seeded generators in
:mod:`repro.streaming.source` — so a result row names its input
exactly.  Inputs are materialized before any timed window, and the
system under test only ever receives the generated ticks.

Only the options that define a workload are set (``clusterer``,
``reorder``, ``store``); everything else runs at the miner's defaults,
so a later change of a default is measured as users will see it.
"""

from __future__ import annotations

import hashlib
import json
import random

from repro.geometry.bbox import BoundingBox
from repro.store import convoy_identity, rank_key
from repro.streaming import (
    StreamingConvoyMiner,
    churn_stream,
    hotspot_drift_stream,
    synthetic_stream,
)

GENERATORS = {
    "synthetic_stream": synthetic_stream,
    "churn_stream": churn_stream,
    "hotspot_drift_stream": hotspot_drift_stream,
}

#: The seed whose answers have recorded digests (``digests.json``).
DEFAULT_SEED = 0

#: Seeded streams per direct run.  A run's repetitions cycle through
#: them, so its metrics average over two draws of the workload's data
#: rather than one: with a single stream, the draw alone moved
#: ``parked_fleet``'s throughput by about 12% from seed to seed.  Each
#: stream adds one untimed classic run (about 6 s on ``parked_fleet``).
STREAMS = 2

#: Queries in the store query mix (>= 200 for a p95 with ten samples
#: beyond it).
QUERY_COUNT = 200
#: The query kinds, in equal shares of the mix.  Each kind's arguments
#: vary over its range (window widths, box sizes, ranking key, k, with
#: and without an alive window), so no single query dominates the mix.
QUERY_KINDS = ("alive_in", "containing", "intersecting", "top_k")
#: ``top_k`` arguments: every ``(by, k, windowed)`` combination in turn.
TOP_K_ARGS = [(by, k, windowed) for by in ("size", "duration")
              for k in (1, 10, 50) for windowed in (False, True)]
#: ``alive_in`` windows span 1 to this many ticks.
MAX_WINDOW = 10

# Why each workload exists, and which layer it stresses, is documented
# in README.md; the sizes below were chosen so one repetition of a
# direct workload takes a few seconds on a 2-vCPU host.  The streams of
# a gated workload hold at least 200 ticks between them, so a p95 over
# per-tick medians has ten beyond it.  BENCHMARK.json gates parked_fleet and
# dense_hotspot; convoy_groups runs by name but is too unsteady from
# seed to seed to gate (see README.md).
WORKLOADS = {
    "convoy_groups": {
        "why": "track-bound: thousands of live candidates against "
               "about fifty clusters per tick",
        "generator": "synthetic_stream",
        "params": {"n_objects": 700, "n_snapshots": 70, "eps": 10.0,
                   "group_count": 60, "group_size": 8, "area": 250.0},
        "query": {"m": 2, "k": 10, "eps": 10.0},
        "options": {},
    },
    "parked_fleet": {
        "why": "many convoys from small deltas: incremental clustering, "
               "candidate splicing, reorder buffer, store reads and writes",
        "generator": "churn_stream",
        "params": {"n_objects": 1000, "n_snapshots": 150, "eps": 10.0,
                   "churn": 0.05, "jitter": 2},
        "query": {"m": 3, "k": 5, "eps": 10.0},
        "options": {"clusterer": "incremental",
                    "reorder": {"allowed_lateness": 2}},
        "traced_service": True,
    },
    "dense_hotspot": {
        "why": "cluster-bound control: a few large packs, full DBSCAN, "
               "little matching or storing",
        "generator": "hotspot_drift_stream",
        "params": {"n_objects": 800, "n_snapshots": 100, "eps": 10.0,
                   "hotspots": 8, "background": 0.4},
        "query": {"m": 2, "k": 3, "eps": 10.0},
        "options": {},
    },
}

#: The wire run that rides along with the traced run of a workload
#: whose spec sets ``traced_service``: two tenants replaying
#: parked-fleet-style streams through a ``serve --workers 2``
#: subprocess.  It gives the service layer's per-layer metrics.  Its
#: end-to-end latencies are reported but not benchmark metrics: over ten
#: seeds their run-to-run spread reached 0.5-1.8 of the median on a
#: shared 2-vCPU host (see README.md).
SERVICE = {
    "generator": "churn_stream",
    "params": {"n_objects": 400, "eps": 10.0, "churn": 0.05},
    "query": {"m": 3, "k": 20, "eps": 10.0},
    "options": {"clusterer": "incremental"},
    "tenants": 2,
    "workers": 2,
    # Aggregate offered rate across both tenants: 35% of one tenant's
    # closed-loop capacity through the service (measured 255-259
    # ticks/s on a 2-vCPU host; both tenants' steps share the server's
    # interpreter lock).
    "offered_ticks_per_s": 90.0,
}

#: Smaller variants of every workload for the smoke tests.
TINY = {
    "convoy_groups": {"params": {"n_objects": 120, "n_snapshots": 30,
                                 "group_count": 12, "area": 100.0}},
    "parked_fleet": {"params": {"n_objects": 200, "n_snapshots": 30}},
    "dense_hotspot": {"params": {"n_objects": 150, "n_snapshots": 30}},
    "service": {"params": {"n_objects": 120}, "query": {"k": 5}},
}


def workload_spec(name, seed, tiny=False):
    """The full, JSON-serializable definition of one workload run
    (``name="service"`` gives the wire run's spec)."""
    base = SERVICE if name == "service" else WORKLOADS[name]
    spec = json.loads(json.dumps(base))  # deep copy
    spec["name"] = name
    spec["seed"] = seed
    if tiny:
        for key, override in TINY[name].items():
            spec[key].update(override)
    return spec


def data_specs(spec, seconds=None):
    """The ``(generator, params, seed)`` triples a run consumes.

    A direct run has ``STREAMS`` streams, seeded ``seed * STREAMS + i``.
    A wire run has one stream per tenant; its length is the offered
    per-tenant rate times the run length, so the open loop covers the
    whole measurement window.
    """
    if "tenants" not in spec:
        return [{"generator": spec["generator"],
                 "params": dict(spec["params"]),
                 "seed": spec["seed"] * STREAMS + i} for i in range(STREAMS)]
    tenants = spec["tenants"]
    per_tenant = spec["offered_ticks_per_s"] / tenants
    params = dict(spec["params"])
    params["n_snapshots"] = max(20, round(per_tenant * seconds))
    return [{"generator": spec["generator"], "params": params,
             "seed": spec["seed"] * tenants + i} for i in range(tenants)]


def materialize(data):
    """Generate one ``(generator, params, seed)`` stream into a list."""
    generator = GENERATORS[data["generator"]]
    return list(generator(seed=data["seed"], **data["params"]))


def miner_kwargs(spec, store=None):
    """Keyword arguments for the workload's miner."""
    kwargs = dict(spec["query"], **spec["options"])
    if store is not None:
        kwargs["store"] = store
    return kwargs


# -- canonical answers -------------------------------------------------


def canonical(convoys):
    """A convoy multiset as a sorted list of identity texts."""
    return sorted(convoy_identity(c) for c in convoys)


def digest(convoys):
    """SHA-256 over the canonical form of an answer."""
    text = "\n".join(canonical(convoys))
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


def classic_run(ticks, query):
    """The reference answer: a plain miner (no store, full DBSCAN,
    strict time order) over the time-sorted ticks.

    Returns ``(per_tick, tail)``: the convoys each tick's ``feed``
    returned, keyed by tick time, and the flush tail.
    """
    miner = StreamingConvoyMiner(query["m"], query["k"], query["eps"])
    per_tick = {}
    with miner:
        for t, snapshot in sorted(ticks, key=lambda tick: tick[0]):
            per_tick[t] = miner.feed(t, snapshot)
        tail = miner.flush()
    return per_tick, tail


# -- the store query mix -------------------------------------------------


def query_mix(ticks, seed, count=QUERY_COUNT):
    """A fixed seeded list of ``(kind, args)`` store queries over the
    workload's time range, object ids and extent: ``count`` queries in
    equal shares of the four kinds, shuffled.  Window starts are spread
    evenly over the stream and ``top_k`` arguments cycle through every
    combination, so each seed's mix covers the same ground."""
    rng = random.Random(f"query-mix:{seed}")
    times = sorted({t for t, _ in ticks})
    t_lo, t_hi = times[0], times[-1]
    ids = sorted({o for _, snapshot in ticks for o in snapshot}, key=str)
    xs = [x for _, snapshot in ticks for x, _ in snapshot.values()]
    ys = [y for _, snapshot in ticks for _, y in snapshot.values()]
    x_lo, x_hi, y_lo, y_hi = min(xs), max(xs), min(ys), max(ys)
    extent = max(x_hi - x_lo, y_hi - y_lo)
    share = count // len(QUERY_KINDS)

    def windows(n):
        """``n`` windows of 1 to ``MAX_WINDOW`` ticks, evenly spaced."""
        starts = [t_lo + (i * (t_hi - t_lo)) // n for i in range(n)]
        spans = [(t1, min(t_hi, t1 + i % MAX_WINDOW))
                 for i, t1 in enumerate(starts)]
        rng.shuffle(spans)
        return iter(spans)

    top_k = [TOP_K_ARGS[i % len(TOP_K_ARGS)] for i in range(share)]
    alive = windows(share)
    top_k_alive = windows(sum(windowed for _by, _k, windowed in top_k))
    top_k = iter(top_k)
    kinds = [kind for kind in QUERY_KINDS for _ in range(share)]
    rng.shuffle(kinds)
    mix = []
    for kind in kinds:
        if kind == "alive_in":
            mix.append((kind, next(alive)))
        elif kind == "containing":
            mix.append((kind, (rng.choice(ids),)))
        elif kind == "intersecting":
            side = extent * rng.uniform(0.02, 0.1)
            x = rng.uniform(x_lo, x_hi)
            y = rng.uniform(y_lo, y_hi)
            mix.append((kind, (BoundingBox(x, y, x + side, y + side),)))
        else:
            by, k, windowed = next(top_k)
            mix.append((kind, (by, k, next(top_k_alive) if windowed
                               else None)))
    return mix


def run_query(store, kind, args):
    """Run one query against a store; return the convoys it answered."""
    if kind == "alive_in":
        return store.alive_in(*args)
    if kind == "containing":
        return store.containing(*args)
    if kind == "intersecting":
        return store.intersecting(*args)
    by, k, alive = args
    return list(store.top_k(by=by, k=k, alive=alive))


class QueryOracle:
    """Brute-force answers over the emitted convoys, independent of the
    store: bounding boxes are recomputed from the input ticks."""

    def __init__(self, convoys, ticks):
        self.convoys = sorted(set(convoys), key=_canonical_order)
        positions = dict(ticks)
        self.boxes = []  # parallel to self.convoys; None without positions
        self.by_object = {}
        for convoy in self.convoys:
            xs, ys = [], []
            for t in range(convoy.t_start, convoy.t_end + 1):
                snapshot = positions.get(t, {})
                for o in convoy.objects:
                    if o in snapshot:
                        xs.append(snapshot[o][0])
                        ys.append(snapshot[o][1])
            self.boxes.append(BoundingBox(min(xs), min(ys), max(xs), max(ys))
                              if xs else None)
            for o in convoy.objects:
                self.by_object.setdefault(o, []).append(convoy)
        self.ranked = {by: sorted(self.convoys, key=lambda c: rank_key(c, by))
                       for by in ("size", "duration")}

    def answer(self, kind, args):
        if kind == "alive_in":
            t1, t2 = args
            return [c for c in self.convoys
                    if c.t_start <= t2 and c.t_end >= t1]
        if kind == "containing":
            return list(self.by_object.get(args[0], ()))
        if kind == "intersecting":
            (box,) = args
            return [c for c, b in zip(self.convoys, self.boxes)
                    if b is not None and b.intersects(box)]
        by, k, alive = args
        top = []
        for c in self.ranked[by]:
            if len(top) == k:
                break
            if alive is None or (c.t_start <= alive[1] and c.t_end >= alive[0]):
                top.append(c)
        return top


def _canonical_order(convoy):
    return (convoy.t_start, convoy.t_end, convoy_identity(convoy))


class Ops:
    """Attempted and failed operations: feeds, flushes, store
    read-backs, queries, protocol messages, digest checks.  A wrong
    answer counts as a failure."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        #: The first few failures, for the report.
        self.failures = []

    def check(self, ok, what, count=1):
        self.attempted += count
        if not ok:
            self.failed += count
            if len(self.failures) < 10:
                self.failures.append(what)
        return ok
