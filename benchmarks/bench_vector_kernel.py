"""Vector numeric backend — clustering speedup over the python backend.

The vector backend (``repro.clustering.numeric``) rewrites the
clustering index — neighbourhood search and incremental cluster
patching — over contiguous numeric arrays.  Its contract is bit-for-bit
equivalence (proven exhaustively by
``tests/streaming/test_vector_equivalence.py``); this bench answers the
only remaining question: **is it actually faster, and by how much?**
The backend does not touch the candidate-match join, which picks its
own kernel per tick (``bench_match_kernel.py`` times it).

Two workloads, each isolating a different clustering mix:

* ``dbscan`` — fresh density clustering of every snapshot of the
  sharding bench's planted-groups stream (batch neighborhood search
  dominating).
* ``incremental`` — the full incremental pipeline on a churn stream
  (delta patching plus matching).

Every workload's per-tick emissions are asserted equal between the two
backends on every run, so the speedups carry no semantic caveats.

Run ``python benchmarks/bench_vector_kernel.py`` for the table,
``--smoke`` for a seconds-long CI-sized run, and ``--json PATH`` for the
machine-readable record CI uploads as a perf-trajectory artifact
(``BENCH_vector_kernel.json``).
"""

import argparse
import time

from benchmarks.bench_sharded_scaling import (
    EPS,
    FULL_SCALE,
    K,
    M,
    SMOKE_SCALE,
    make_workload,
)
from benchmarks.common import print_report, safe_rate, write_bench_json
from repro.bench import format_table
from repro.clustering.numeric import have_numpy
from repro.streaming import StreamingConvoyMiner, churn_stream

FULL_CHURN = dict(n_objects=900, n_snapshots=50)
SMOKE_CHURN = dict(n_objects=120, n_snapshots=12)


def run_dbscan(snapshots, backend):
    """Clustering-bound run: fresh DBSCAN per tick, tiny candidate set."""
    miner = StreamingConvoyMiner(M, K, EPS, backend=backend)
    emitted = []
    started = time.perf_counter()
    for t, snapshot in enumerate(snapshots):
        emitted.append(miner.feed(t, snapshot))
    emitted.append(miner.flush())
    return emitted, time.perf_counter() - started


def run_incremental(ticks, backend):
    """Full incremental pipeline on a churn stream (delta + matching)."""
    miner = StreamingConvoyMiner(
        M, K, EPS, clusterer="incremental", backend=backend,
    )
    emitted = []
    started = time.perf_counter()
    for t, snapshot in ticks:
        emitted.append(miner.feed(t, snapshot))
    emitted.append(miner.flush())
    return emitted, time.perf_counter() - started


def compare_backends(workload, runner, n_snapshots):
    """Run python then vector; assert identical emissions; build one row."""
    python_emitted, python_seconds = runner("python")
    vector_emitted, vector_seconds = runner("vector")
    assert vector_emitted == python_emitted, (
        f"vector backend diverged from python on the {workload} workload"
    )
    speedup = (
        python_seconds / vector_seconds if vector_seconds > 0 else None
    )
    return {
        "workload": workload,
        "snapshots": n_snapshots,
        "python_rate": safe_rate(n_snapshots, python_seconds),
        "vector_rate": safe_rate(n_snapshots, vector_seconds),
        "speedup": speedup,
        "python_seconds": python_seconds,
        "vector_seconds": vector_seconds,
        "convoys": sum(len(batch) for batch in python_emitted),
    }


def run_all(smoke):
    scale = SMOKE_SCALE if smoke else FULL_SCALE
    churn_scale = SMOKE_CHURN if smoke else FULL_CHURN
    snapshots, _clusters = make_workload(scale)
    ticks = list(churn_stream(
        churn_scale["n_objects"], churn_scale["n_snapshots"], seed=42,
        eps=EPS, churn=0.15, area=36.0 * EPS,
    ))
    rows = [
        compare_backends(
            "dbscan",
            lambda backend: run_dbscan(snapshots, backend),
            len(snapshots),
        ),
        compare_backends(
            "incremental",
            lambda backend: run_incremental(ticks, backend),
            len(ticks),
        ),
    ]
    return scale, churn_scale, rows


def fmt_rate(rate):
    return round(rate, 1) if rate is not None else "-"


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument(
        "--smoke", action="store_true",
        help="CI-sized run: tiny workloads (timings are not meaningful)",
    )
    parser.add_argument(
        "--json", metavar="PATH", default=None,
        help="also write the results as machine-readable JSON "
        "(rates, speedups, git SHA)",
    )
    args = parser.parse_args(argv)
    numpy_available = have_numpy()
    scale, churn_scale, rows = run_all(args.smoke)
    table_rows = [[
        row["workload"],
        row["snapshots"],
        fmt_rate(row["python_rate"]),
        fmt_rate(row["vector_rate"]),
        f"{row['speedup']:.2f}x" if row["speedup"] is not None else "-",
    ] for row in rows]
    print_report(
        format_table(
            "Vector numeric backend vs python backend "
            f"(m={M}, k={K}, e={EPS:g}, numpy="
            f"{'yes' if numpy_available else 'no — fallback kernels'}; "
            "identical convoys asserted every run)",
            ["workload", "snapshots", "python snap/s", "vector snap/s",
             "speedup"],
            table_rows,
        )
    )
    if args.json:
        write_bench_json(
            args.json, "vector_kernel",
            dict(m=M, k=K, eps=EPS, smoke=args.smoke,
                 numpy=numpy_available, dbscan_scale=scale,
                 churn_scale=churn_scale),
            rows,
        )
        print(f"json results written to {args.json}")
    print("ok: vector backend agrees with the python backend on every "
          "workload")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
