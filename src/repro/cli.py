"""Command-line interface for convoy discovery.

Seven subcommands mirror the workflows a practitioner needs:

* ``repro-convoy discover`` — run a convoy query over a CSV of
  ``object_id,t,x,y`` rows with any of the four algorithms;
* ``repro-convoy stream`` — run the same query online, snapshot by
  snapshot, printing each convoy the moment it closes (from a CSV replay
  or a seeded synthetic stream); ``--store convoys.db`` persists every
  convoy into a crash-safe SQLite store as it closes; a mid-stream
  Ctrl-C commits every completed tick and exits 130;
* ``repro-convoy serve`` — run the async multi-tenant ingestion service:
  many independent tenant streams multiplexed over a shared worker
  pool, NDJSON over TCP (see :mod:`repro.service`);
* ``repro-convoy query`` — answer time-window / membership / bbox /
  top-k questions over a persisted convoy store, from its indexes;
* ``repro-convoy stats`` — print a dataset's Table 3-style statistics;
* ``repro-convoy simplify`` — batch line-simplification of a CSV with DP,
  DP+, or DP*, reporting the vertex reduction;
* ``repro-convoy generate`` — write one of the paper-like synthetic
  datasets (truck / cattle / car / taxi) to CSV for experimentation.

All subcommands print human-readable text to stdout; ``discover`` and
``stream`` can also write the answer as CSV, and ``query --json``
prints machine-readable JSON for downstream tooling.
"""

from __future__ import annotations

import argparse
import asyncio
import json
import os
import signal
import sys
import time

from repro.clustering.incremental import IncrementalSnapshotClusterer
from repro.clustering.numeric import MATCH_KERNELS, NUMERIC_BACKENDS, have_numpy
from repro.core.cmc import cmc
from repro.core.cuts import VARIANTS, cuts
from repro.core.verification import normalize_convoys
from repro.datasets.paperlike import DATASETS
from repro.geometry.bbox import BoundingBox
from repro.io.csv_io import load_trajectories_csv, save_trajectories_csv
from repro.service import DEFAULT_MAX_QUEUE, IngestionServer
from repro.simplification import SIMPLIFIERS, simplification_report
from repro.store import TOP_K_KEYS, convoy_identity, open_store
from repro.streaming import (
    BACKENDS,
    LATE_POLICIES,
    StreamingConvoyMiner,
    replay_csv,
    synthetic_stream,
)


def build_parser():
    """Construct the argument parser (exposed for tests and docs)."""
    parser = argparse.ArgumentParser(
        prog="repro-convoy",
        description="Convoy discovery in trajectory databases "
        "(Jeung et al., VLDB 2008 reproduction)",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    discover = sub.add_parser(
        "discover", help="run a convoy query over a trajectory CSV"
    )
    discover.add_argument("csv", help="input file with object_id,t,x,y rows")
    discover.add_argument("-m", type=int, required=True,
                          help="minimum objects per convoy")
    discover.add_argument("-k", type=int, required=True,
                          help="minimum lifetime in consecutive time points")
    discover.add_argument("-e", "--eps", type=float, required=True,
                          help="density distance threshold e")
    discover.add_argument(
        "--algorithm", default="cuts*",
        choices=["cmc"] + sorted(VARIANTS),
        help="discovery algorithm (default: cuts*)",
    )
    discover.add_argument("--delta", type=float, default=None,
                          help="simplification tolerance (default: auto)")
    discover.add_argument("--lam", type=int, default=None,
                          help="time partition length (default: auto)")
    discover.add_argument("--output", default=None,
                          help="also write the answer as CSV to this path")

    stream = sub.add_parser(
        "stream",
        help="run an online convoy query, printing convoys as they close",
    )
    stream.add_argument(
        "csv", nargs="?", default=None,
        help="input file with object_id,t,x,y rows (omit with --synthetic)",
    )
    stream.add_argument("-m", type=int, required=True,
                        help="minimum objects per convoy")
    stream.add_argument("-k", type=int, required=True,
                        help="minimum lifetime in consecutive time points")
    stream.add_argument("-e", "--eps", type=float, required=True,
                        help="density distance threshold e")
    stream.add_argument(
        "--synthetic", metavar="NxT", default=None,
        help="mine a seeded synthetic stream of N objects over T snapshots "
        "instead of a CSV (e.g. 500x200)",
    )
    stream.add_argument("--seed", type=int, default=0,
                        help="synthetic stream seed (default: 0)")
    stream.add_argument(
        "--jitter", type=int, default=0, metavar="J",
        help="with --synthetic: emit the stream out of order, every tick "
        "displaced by < J time units (pair with --allowed-lateness >= J)",
    )
    stream.add_argument(
        "--allowed-lateness", type=int, default=None, metavar="L",
        help="tolerate out-of-order snapshots through a watermarked "
        "reorder buffer: a tick is ingested once the feed has advanced L "
        "time units past it (0 keeps strict order; omit to disable)",
    )
    stream.add_argument(
        "--max-pending", type=int, default=None, metavar="N",
        help="cap the reorder buffer at N pending snapshots (the oldest "
        "are force-released beyond it); usable with or without "
        "--allowed-lateness",
    )
    stream.add_argument(
        "--late-policy", default="raise", choices=sorted(LATE_POLICIES),
        help="what to do with a snapshot arriving after its timestamp was "
        "already released: fail loudly, drop it, or amend the stale fixes "
        "into the next pending snapshot (default: raise)",
    )
    stream.add_argument(
        "--window", type=int, default=None,
        help="bounded-memory cap: close candidate chains after this many "
        "time points (>= k; convoys outliving it are fragmented)",
    )
    stream.add_argument("--paper-semantics", action="store_true",
                        help="use Algorithm 1's published candidate rule")
    stream.add_argument(
        "--incremental", action="store_true",
        help="maintain the previous snapshot's clustering across ticks and "
        "propagate its cluster diff into the candidate tracker (identical "
        "convoys; faster when most objects stand still between snapshots)",
    )
    stream.add_argument(
        "--churn-threshold", default=None, metavar="FRACTION|adaptive",
        help="with --incremental: fall back to a full clustering pass when "
        "more than this fraction of the snapshot changed (default 0.35), "
        "or 'adaptive' to estimate the crossover from measured pass costs",
    )
    stream.add_argument(
        "--shards", type=int, default=None, metavar="N",
        help="fan the candidate tracker out across N shards (live "
        "candidates partitioned by support-cluster id; identical convoys)",
    )
    stream.add_argument(
        "--executor", default=None, choices=sorted(BACKENDS),
        help="where the resident shard workers run (with --shards): "
        "in-process, or one spawned process per shard (default: serial)",
    )
    stream.add_argument(
        "--backend", default="python", choices=list(NUMERIC_BACKENDS),
        help="numeric backend for the per-tick hot kernels: pure-Python "
        "dict/set loops, or batched contiguous-array kernels "
        "(numpy-accelerated when available; identical convoys either "
        "way; default: python)",
    )
    stream.add_argument(
        "--match-kernel", default=None, choices=list(MATCH_KERNELS),
        help="candidate-match kernel for the per-tick join: 'auto' learns "
        "per tick from measured costs, or pin 'scalar' (pairwise sets), "
        "'merge' (sorted merge-intersect), or 'bitset' (packed-word "
        "AND+popcount); identical convoys either way (default: follow "
        "--backend)",
    )
    stream.add_argument(
        "--pace", type=float, default=0.0, metavar="SECONDS",
        help="sleep SECONDS before each snapshot — replay a recorded "
        "stream at a live cadence (default: 0, as fast as possible)",
    )
    stream.add_argument("--quiet", action="store_true",
                        help="suppress per-convoy lines; print the summary only")
    stream.add_argument("--output", default=None,
                        help="also write the answer as CSV to this path")
    stream.add_argument(
        "--json", default=None, metavar="PATH",
        help="also write the answer as machine-readable JSON (normalized "
        "convoys plus the full counters dict, including reorder and shard "
        "counters) to this path",
    )
    stream.add_argument(
        "--store", default=None, metavar="DB",
        help="persist every convoy into this SQLite store as it closes "
        "(one transaction per tick, crash-safe, idempotent on convoy "
        "identity — re-running the same stream adds nothing); query it "
        "back with the 'query' subcommand",
    )

    serve = sub.add_parser(
        "serve",
        help="run the async multi-tenant ingestion service (NDJSON over "
        "TCP; see repro.service for the protocol)",
    )
    serve.add_argument("--host", default="127.0.0.1",
                       help="bind address (default: 127.0.0.1)")
    serve.add_argument("--port", type=int, default=0,
                       help="bind port (default: 0 — pick a free one and "
                       "print it)")
    serve.add_argument(
        "--workers", type=int, default=4, metavar="N",
        help="worker threads shared by every tenant's miner steps "
        "(default: 4)",
    )
    serve.add_argument(
        "--max-queue", type=int, default=DEFAULT_MAX_QUEUE, metavar="N",
        help="per-tenant ingestion high-water mark: past N queued "
        "snapshots the service stops reading that tenant's feed until "
        "the dispatcher catches up (credit-based, nothing is dropped; "
        f"default: {DEFAULT_MAX_QUEUE})",
    )

    query = sub.add_parser(
        "query",
        help="answer indexed queries over a persisted convoy store",
    )
    query.add_argument("db", help="SQLite convoy store written by "
                       "'stream --store' (or the ConvoyStore API)")
    query.add_argument(
        "--alive", default=None, metavar="T1:T2",
        help="convoys whose interval intersects the closed window "
        "[T1, T2] (also restricts --top-k)",
    )
    query.add_argument(
        "--containing", default=None, metavar="OBJECT",
        help="convoys the given object is a member of (matched as a "
        "string and, when the text parses, as an integer id too)",
    )
    query.add_argument(
        "--intersecting", default=None, metavar="X1:Y1:X2:Y2",
        help="convoys whose stored bounding box intersects the query box",
    )
    query.add_argument(
        "--top-k", type=int, default=None, metavar="K",
        help="enumerate only the K highest-ranked convoys (lazy "
        "ranked-enumeration heap merge over the store's rank indexes)",
    )
    query.add_argument(
        "--by", default="size", choices=sorted(TOP_K_KEYS),
        help="ranking dimension for --top-k (default: size)",
    )
    query.add_argument("--json", action="store_true",
                       help="print the answer as JSON instead of text")

    stats = sub.add_parser("stats", help="print dataset statistics")
    stats.add_argument("csv", help="input file with object_id,t,x,y rows")

    simplify = sub.add_parser(
        "simplify", help="line-simplify every trajectory in a CSV"
    )
    simplify.add_argument("csv", help="input file")
    simplify.add_argument("output", help="output CSV for the simplified data")
    simplify.add_argument("--method", default="dp", choices=sorted(SIMPLIFIERS),
                          help="simplifier (default: dp)")
    simplify.add_argument("--delta", type=float, required=True,
                          help="tolerance δ")

    generate = sub.add_parser(
        "generate", help="write a paper-like synthetic dataset to CSV"
    )
    generate.add_argument("dataset", choices=sorted(DATASETS),
                          help="which Table 3 dataset shape to emulate")
    generate.add_argument("output", help="output CSV path")
    generate.add_argument("--scale", type=float, default=0.05,
                          help="time-domain scale factor (default: 0.05)")
    generate.add_argument("--seed", type=int, default=None,
                          help="override the generator seed")
    return parser


def _cmd_discover(args, out):
    db = load_trajectories_csv(args.csv)
    if len(db) == 0:
        print("input contains no trajectories", file=out)
        return 1
    started = time.perf_counter()
    if args.algorithm == "cmc":
        convoys = normalize_convoys(cmc(db, args.m, args.k, args.eps))
    else:
        result = cuts(
            db, args.m, args.k, args.eps,
            delta=args.delta, lam=args.lam, variant=args.algorithm,
        )
        convoys = result.convoys
    elapsed = time.perf_counter() - started
    print(
        f"{len(convoys)} convoy(s) found in {elapsed:.2f}s "
        f"({args.algorithm}, m={args.m}, k={args.k}, e={args.eps:g})",
        file=out,
    )
    for convoy in convoys:
        members = ",".join(str(o) for o in sorted(convoy.objects, key=str))
        print(f"  t=[{convoy.t_start},{convoy.t_end}] objects={members}", file=out)
    if args.output:
        _write_answer_csv(convoys, args.output)
        print(f"answer written to {args.output}", file=out)
    return 0


def _write_answer_csv(convoys, path):
    with open(path, "w") as handle:
        handle.write("t_start,t_end,size,objects\n")
        for convoy in convoys:
            members = ";".join(str(o) for o in sorted(convoy.objects, key=str))
            handle.write(
                f"{convoy.t_start},{convoy.t_end},{convoy.size},{members}\n"
            )


def _parse_synthetic_shape(text):
    """Parse the ``--synthetic NxT`` shape; raises ValueError when malformed."""
    parts = text.lower().split("x")
    if len(parts) != 2:
        raise ValueError(f"expected NxT (e.g. 500x200), got {text!r}")
    n_objects, n_snapshots = int(parts[0]), int(parts[1])
    if n_objects < 1 or n_snapshots < 1:
        raise ValueError(f"synthetic shape must be positive, got {text!r}")
    return n_objects, n_snapshots


def _cmd_stream(args, out):
    if (args.csv is None) == (args.synthetic is None):
        print("stream needs exactly one input: a CSV path or --synthetic NxT",
              file=out)
        return 2
    if args.jitter and args.synthetic is None:
        print("--jitter only applies with --synthetic", file=out)
        return 2
    if args.jitter < 0:
        print(f"bad --jitter value: must be >= 0, got {args.jitter}", file=out)
        return 2
    if args.pace < 0:
        print(f"bad --pace value: must be >= 0, got {args.pace}", file=out)
        return 2
    if args.synthetic is not None:
        try:
            n_objects, n_snapshots = _parse_synthetic_shape(args.synthetic)
        except ValueError as exc:
            print(f"bad --synthetic value: {exc}", file=out)
            return 2
        source = synthetic_stream(
            n_objects, n_snapshots, seed=args.seed, eps=args.eps,
            jitter=args.jitter,
        )
        label = f"synthetic {n_objects}x{n_snapshots} (seed {args.seed}"
        label += f", jitter {args.jitter})" if args.jitter else ")"
    else:
        source = replay_csv(args.csv)
        label = args.csv
    if args.churn_threshold is not None and not args.incremental:
        print("--churn-threshold only applies with --incremental", file=out)
        return 2
    if args.executor is not None and args.shards is None:
        print("--executor only applies with --shards", file=out)
        return 2
    reorder = None
    if args.allowed_lateness is not None or args.max_pending is not None:
        reorder = dict(
            allowed_lateness=args.allowed_lateness,
            max_pending=args.max_pending,
            late_policy=args.late_policy,
        )
    elif args.late_policy != "raise":
        print("--late-policy only applies with --allowed-lateness or "
              "--max-pending", file=out)
        return 2
    elif args.jitter:
        print("--jitter needs a reorder buffer: pass --allowed-lateness "
              f">= {args.jitter} (or --max-pending)", file=out)
        return 2
    try:
        clusterer = None
        if args.incremental:
            if args.churn_threshold is None:
                clusterer = IncrementalSnapshotClusterer(
                    args.eps, args.m, backend=args.backend
                )
            else:
                threshold = args.churn_threshold
                if threshold != "adaptive":
                    try:
                        threshold = float(threshold)
                    except ValueError:
                        print(
                            f"bad --churn-threshold value: expected a "
                            f"fraction or 'adaptive', got {threshold!r}",
                            file=out,
                        )
                        return 2
                clusterer = IncrementalSnapshotClusterer(
                    args.eps, args.m, churn_threshold=threshold,
                    backend=args.backend,
                )
        miner = StreamingConvoyMiner(
            args.m, args.k, args.eps,
            paper_semantics=args.paper_semantics, window=args.window,
            clusterer=clusterer, reorder=reorder, shards=args.shards,
            executor=args.executor, backend=args.backend, match_kernel=args.match_kernel,
            store=args.store,
        )
    except ValueError as exc:
        print(f"bad query parameters: {exc}", file=out)
        return 2
    convoys = []
    interrupted = False
    started = time.perf_counter()
    # The context manager releases shard worker processes on every exit
    # path — including the stream-error return below, which used to leak
    # a live process pool.
    with miner:
        try:
            for t, snapshot in source:
                if args.pace:
                    time.sleep(args.pace)
                for convoy in miner.feed(t, snapshot):
                    convoys.append(convoy)
                    if not args.quiet:
                        members = ",".join(
                            str(o) for o in sorted(convoy.objects, key=str)
                        )
                        print(f"  closed at t={t}: t=[{convoy.t_start},"
                              f"{convoy.t_end}] objects={members}", file=out)
        except ValueError as exc:
            # A late snapshot under --late-policy raise (or a disordered
            # feed with no reorder buffer at all) is an input contract
            # violation.
            print(f"stream error: {exc}", file=out)
            return 1
        except KeyboardInterrupt:
            # Ctrl-C mid-stream: stop feeding and skip the flush (open
            # chains are not part of the committed prefix), but fall
            # through the context manager so the miner closes cleanly —
            # the store sink commits every completed tick and rolls any
            # half-open transaction back, instead of the interrupt
            # unwinding past both and losing the tail.
            interrupted = True
        if not interrupted:
            for convoy in miner.flush():
                convoys.append(convoy)
                if not args.quiet:
                    members = ",".join(
                        str(o) for o in sorted(convoy.objects, key=str)
                    )
                    print(f"  open at end of stream: t=[{convoy.t_start},"
                          f"{convoy.t_end}] objects={members}", file=out)
    if interrupted:
        print(
            f"interrupted after {miner.counters['snapshots']} snapshot(s)"
            + (f"; {miner.counters['stored_convoys']} convoy(s) committed "
               f"to {args.store}" if args.store is not None else ""),
            file=out,
        )
        return 130
    elapsed = time.perf_counter() - started
    counters = miner.counters
    snapshots = counters["snapshots"]
    if snapshots == 0:
        print("input contains no snapshots", file=out)
        return 1
    # Tiny runs can finish below the timer's resolution; a rate computed
    # from elapsed == 0 would print as "inf snapshots/s", so the rate is
    # simply omitted when the measurement carries no information.
    rate = snapshots / elapsed if elapsed > 0 else None
    rate_text = f"{rate:.0f} snapshots/s, " if rate is not None else ""
    print(
        f"{len(convoys)} convoy(s) from {snapshots} snapshot(s) in "
        f"{elapsed:.2f}s ({rate_text}peak "
        f"{counters['peak_candidates']} candidate(s); {label}, "
        f"m={args.m}, k={args.k}, e={args.eps:g})",
        file=out,
    )
    if miner.reorder is not None:
        ro = miner.reorder.counters
        print(
            f"reorder buffer: {ro['reordered_snapshots']} snapshot(s) "
            f"reordered, {ro['merged_snapshots']} merged, "
            f"{ro['late_dropped']} late dropped, "
            f"{ro['late_amended']} amended, peak "
            f"{ro['peak_pending']} pending",
            file=out,
        )
    if args.backend == "vector" and not have_numpy():
        print(
            "note: numpy unavailable — the vector backend ran on the "
            "array('d')/memoryview fallback kernels",
            file=out,
        )
    if args.match_kernel == "auto":
        ticks = {
            name: counters.get(f"dispatch_{name}", 0)
            for name in ("scalar", "merge", "bitset")
        }
        print(
            "match kernel dispatch: "
            + ", ".join(f"{n} x{c}" for n, c in ticks.items()),
            file=out,
        )
    if miner.shards is not None:
        print(
            f"sharding: {counters['sharded_candidates']} candidate scan(s) "
            f"across {miner.shards} shard(s) on the "
            f"{args.executor or 'serial'} executor in "
            f"{counters['shard_steps']} sharded step(s), largest batch "
            f"{counters['max_shard_batch']}",
            file=out,
        )
    if args.store is not None:
        print(
            f"store: {counters['stored_convoys']} convoy(s) stored, "
            f"{counters['replayed_convoys']} replayed (idempotent) into "
            f"{args.store}",
            file=out,
        )
    if miner.clusterer is not None:
        inc = miner.clusterer.counters
        print(
            f"incremental clustering: {inc['incremental_passes']} "
            f"incremental + {inc['full_passes']} full pass(es), "
            f"{inc['reclustered_points']}/{inc['clustered_points']} "
            f"points reclustered",
            file=out,
        )
        if counters.get("delta_steps"):
            spliced = counters["spliced_candidates"]
            reintersected = counters["reintersected_candidates"]
            print(
                f"candidate tracking: {spliced} candidate step(s) spliced "
                f"+ {reintersected} re-intersected across "
                f"{counters['delta_steps']} diff-aware step(s)",
                file=out,
            )
    if args.output or args.json:
        # Same normalization as ``discover`` so the artifacts of the two
        # subcommands (and of the CSV/JSON pair) are directly comparable.
        normalized = normalize_convoys(convoys)
        if args.output:
            _write_answer_csv(normalized, args.output)
            print(f"answer written to {args.output}", file=out)
        if args.json:
            _write_answer_json(args, normalized, miner, elapsed)
            print(f"json answer written to {args.json}", file=out)
    return 0


def _write_answer_json(args, convoys, miner, elapsed):
    """Write the stream answer as machine-readable JSON.

    ``convoys`` must already be normalized (the caller shares one pass
    with the CSV artifact); the counters are the miner's full shared
    dict (engine, tracker, reorder, and shard keys all report there),
    plus the clusterer's own dict when an incremental clusterer ran.
    """
    payload = {
        "params": {
            "m": args.m,
            "k": args.k,
            "eps": args.eps,
            "paper_semantics": args.paper_semantics,
            "window": args.window,
            "shards": args.shards,
            "executor": args.executor if args.shards is not None else None,
            "backend": args.backend,
            "match_kernel": args.match_kernel,
        },
        "elapsed_seconds": elapsed,
        "convoys": [
            {
                "objects": sorted(str(o) for o in convoy.objects),
                "t_start": convoy.t_start,
                "t_end": convoy.t_end,
            }
            for convoy in convoys
        ],
        "counters": dict(miner.counters),
    }
    if miner.clusterer is not None and hasattr(miner.clusterer, "counters"):
        payload["clusterer_counters"] = dict(miner.clusterer.counters)
    with open(args.json, "w") as handle:
        json.dump(payload, handle, indent=2, sort_keys=True)
        handle.write("\n")


def _parse_window(text):
    """Parse ``T1:T2`` into an integer closed time window."""
    parts = text.split(":")
    if len(parts) != 2:
        raise ValueError(f"expected T1:T2, got {text!r}")
    t1, t2 = int(parts[0]), int(parts[1])
    if t2 < t1:
        raise ValueError(f"window reversed: [{t1}, {t2}]")
    return t1, t2


def _parse_box(text):
    """Parse ``X1:Y1:X2:Y2`` into a :class:`BoundingBox` (corners may be
    given in any order)."""
    parts = text.split(":")
    if len(parts) != 4:
        raise ValueError(f"expected X1:Y1:X2:Y2, got {text!r}")
    x1, y1, x2, y2 = (float(p) for p in parts)
    return BoundingBox(min(x1, x2), min(y1, y2), max(x1, x2), max(y1, y2))


def _cmd_query(args, out):
    modes = [name for name, value in (
        ("--alive", args.alive),
        ("--containing", args.containing),
        ("--intersecting", args.intersecting),
    ) if value is not None]
    if args.top_k is not None:
        if args.top_k < 1:
            print(f"bad --top-k value: must be >= 1, got {args.top_k}",
                  file=out)
            return 2
        # --top-k ranks the whole store, optionally restricted to an
        # --alive window; the other filters don't compose with ranking.
        extra = [name for name in modes if name != "--alive"]
        if extra:
            print(f"--top-k only composes with --alive, not "
                  f"{' / '.join(extra)}", file=out)
            return 2
    elif not modes:
        print("query needs at least one of --alive / --containing / "
              "--intersecting / --top-k", file=out)
        return 2
    elif len(modes) > 1:
        print(f"pick one of {' / '.join(modes)} (filters do not compose)",
              file=out)
        return 2
    try:
        window = _parse_window(args.alive) if args.alive is not None else None
        box = (_parse_box(args.intersecting)
               if args.intersecting is not None else None)
    except ValueError as exc:
        print(f"bad query window/box: {exc}", file=out)
        return 2
    # Opening a SQLite path creates the file, so a typo'd path would turn
    # into an empty (zero-answer) store; insist the store already exists.
    if not os.path.exists(args.db):
        print(f"no such store: {args.db}", file=out)
        return 2
    with open_store(args.db) as store:
        if args.top_k is not None:
            convoys = list(store.top_k(by=args.by, k=args.top_k,
                                       alive=window))
        elif window is not None:
            convoys = store.alive_in(*window)
        elif box is not None:
            convoys = store.intersecting(box)
        else:
            # Member ids keep their type through the store, so a CLI
            # query (always text) matches both the string id and — when
            # the text parses — the integer id, merged in store order.
            convoys = store.containing(args.containing)
            try:
                as_int = int(args.containing)
            except ValueError:
                pass
            else:
                merged = {convoy_identity(c): c
                          for c in convoys + store.containing(as_int)}
                convoys = sorted(
                    merged.values(),
                    key=lambda c: (c.t_start, c.t_end, convoy_identity(c)),
                )
        bboxes = [store.bbox_of(c) for c in convoys]
        total = store.count()
    if args.json:
        payload = {
            "db": args.db,
            "query": {
                "alive": list(window) if window is not None else None,
                "containing": args.containing,
                "intersecting": ([box.min_x, box.min_y, box.max_x,
                                  box.max_y] if box is not None else None),
                "top_k": args.top_k,
                "by": args.by if args.top_k is not None else None,
            },
            "count": len(convoys),
            "store_count": total,
            "convoys": [
                {
                    "objects": sorted(str(o) for o in convoy.objects),
                    "t_start": convoy.t_start,
                    "t_end": convoy.t_end,
                    "bbox": ([bbox.min_x, bbox.min_y, bbox.max_x,
                              bbox.max_y] if bbox is not None else None),
                }
                for convoy, bbox in zip(convoys, bboxes)
            ],
        }
        json.dump(payload, out, indent=2, sort_keys=True)
        out.write("\n")
    else:
        for convoy, bbox in zip(convoys, bboxes):
            members = ",".join(str(o) for o in sorted(convoy.objects,
                                                      key=str))
            box_text = (f" bbox=({bbox.min_x:g},{bbox.min_y:g})..("
                        f"{bbox.max_x:g},{bbox.max_y:g})"
                        if bbox is not None else "")
            print(f"  t=[{convoy.t_start},{convoy.t_end}] "
                  f"objects={members}{box_text}", file=out)
        print(f"{len(convoys)} convoy(s) matched (store holds {total}; "
              f"{args.db})", file=out)
    return 0


def _cmd_stats(args, out):
    db = load_trajectories_csv(args.csv)
    if len(db) == 0:
        print("input contains no trajectories", file=out)
        return 1
    stats = db.statistics()
    print(f"objects (N):            {stats['num_objects']}", file=out)
    print(f"time domain length (T): {stats['time_domain_length']}", file=out)
    print(f"average traj length:    {stats['average_trajectory_length']:.1f}",
          file=out)
    print(f"data size (points):     {stats['total_points']}", file=out)
    return 0


def _cmd_simplify(args, out):
    db = load_trajectories_csv(args.csv)
    if len(db) == 0:
        print("input contains no trajectories", file=out)
        return 1
    simplifier = SIMPLIFIERS[args.method]
    simplified = [simplifier(tr, args.delta) for tr in db]
    report = simplification_report(simplified)
    from repro.trajectory.database import TrajectoryDatabase
    from repro.trajectory.trajectory import Trajectory

    reduced = TrajectoryDatabase(
        Trajectory(s.object_id, s.points) for s in simplified
    )
    save_trajectories_csv(reduced, args.output)
    print(
        f"{report['original_points']} -> {report['kept_points']} points "
        f"({report['vertex_reduction_pct']:.1f}% reduction, "
        f"max actual tolerance {report['max_actual_tolerance']:.3g})",
        file=out,
    )
    print(f"simplified data written to {args.output}", file=out)
    return 0


def _cmd_generate(args, out):
    generator = DATASETS[args.dataset]
    kwargs = {"scale": args.scale}
    if args.seed is not None:
        kwargs["seed"] = args.seed
    spec = generator(**kwargs)
    save_trajectories_csv(spec.database, args.output)
    stats = spec.statistics()
    print(
        f"wrote {args.dataset}-like dataset: {stats['num_objects']} objects, "
        f"T={stats['time_domain_length']}, {stats['total_points']} points",
        file=out,
    )
    print(
        f"suggested query: m={spec.m}, k={spec.k}, e={spec.eps:g} "
        f"({len(spec.planted)} convoys planted)",
        file=out,
    )
    return 0


def _cmd_serve(args, out):
    if args.workers < 1:
        print(f"bad --workers value: must be >= 1, got {args.workers}",
              file=out)
        return 2
    if args.max_queue < 1:
        print(f"bad --max-queue value: must be >= 1, got {args.max_queue}",
              file=out)
        return 2

    async def run():
        stop = asyncio.Event()
        loop = asyncio.get_running_loop()
        async with IngestionServer(
            args.host, args.port,
            max_workers=args.workers, max_queue=args.max_queue,
        ) as server:
            # The port line is the readiness signal: printed (and
            # flushed) only once the socket is bound, so a supervising
            # process can parse it and connect immediately.
            print(f"serving on {server.host}:{server.port} "
                  f"({args.workers} worker(s), high-water "
                  f"{args.max_queue})", file=out, flush=True)
            for signum in (signal.SIGINT, signal.SIGTERM):
                loop.add_signal_handler(signum, stop.set)
            try:
                await stop.wait()
            finally:
                for signum in (signal.SIGINT, signal.SIGTERM):
                    loop.remove_signal_handler(signum)
            totals = server.aggregate()
        # The server context closed every open session on the way out:
        # miners closed, store transactions committed or rolled back —
        # each tenant's store holds a clean prefix of completed ticks.
        print(
            f"interrupted: served {totals['tenants']} tenant(s), "
            f"{totals['ticks']} snapshot(s), {totals['convoys_closed']} "
            f"convoy(s) closed", file=out, flush=True,
        )
        return 130

    return asyncio.run(run())


COMMANDS = {
    "discover": _cmd_discover,
    "stream": _cmd_stream,
    "serve": _cmd_serve,
    "query": _cmd_query,
    "stats": _cmd_stats,
    "simplify": _cmd_simplify,
    "generate": _cmd_generate,
}


def main(argv=None, out=None):
    """CLI entry point; returns the process exit code."""
    args = build_parser().parse_args(argv)
    return COMMANDS[args.command](args, out if out is not None else sys.stdout)


if __name__ == "__main__":
    raise SystemExit(main())
