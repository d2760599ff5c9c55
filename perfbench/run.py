"""Run one benchmark workload and print its metrics.

Usage (from the repository root)::

    python3 perfbench/run.py --workload parked_fleet --seed 0 \\
        --seconds 30 --trace 0

``--trace 0`` measures the end-to-end metrics; ``--trace 1`` runs the
traced repetitions and prints the per-layer metrics instead.  The
program under test is imported from ``src/`` of the checkout this file
sits in, never from an installed copy.  The report lists every metric
with its unit and sample count; the last line is one JSON object with
``correct``, ``attempted``, ``failed`` and ``metrics``.  See README.md
for the workloads and metric definitions.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
HERE = Path(__file__).resolve().parent


def use_checkout_source():
    """Put the checkout's ``src/`` first on the import path; exit with
    an error when the checkout has no program source."""
    src = ROOT / "src"
    if not (src / "repro" / "__init__.py").is_file():
        raise SystemExit(f"perfbench: no program source at {src / 'repro'}")
    sys.path.insert(0, str(src))
    import repro

    if Path(repro.__file__).resolve().parent != src / "repro":
        raise SystemExit(f"perfbench: imported repro from {repro.__file__}, "
                         f"not from {src}")


def parse_args(argv):
    from workloads import DEFAULT_SEED, WORKLOADS

    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=30.0,
                        help="length of the measurement window")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--tiny", action="store_true",
                        help="smoke-test scale (no recorded digest)")
    return parser.parse_args(argv)


def check_digest(spec, data, answers, ops, tiny):
    """At the default seed, compare the digests of the classic answers,
    one per stream, with the recorded ones for exactly these inputs."""
    import workloads as wl

    value = [wl.digest(answer) for answer in answers]
    recorded = json.loads((HERE / "digests.json").read_text()).get(spec["name"])
    applies = (not tiny and spec["seed"] == wl.DEFAULT_SEED
               and recorded is not None and recorded["data"] == data
               and recorded["query"] == spec["query"])
    if applies:
        ops.check(value == recorded["digest"],
                  f"answer digest {value} != recorded {recorded['digest']}")
    return {"value": value, "checked": applies}


def measure(args, tmp):
    import direct
    import service
    import workloads as wl

    spec = wl.workload_spec(args.workload, args.seed, tiny=args.tiny)
    ops = wl.Ops()
    runner = direct.run_traced if args.trace else direct.run_untraced
    metrics, samples, extra = runner(spec, args.seconds, str(tmp), ops)
    digest = check_digest(spec, extra["data"], extra["classic_answer"], ops,
                          args.tiny)
    wire = None
    if args.trace and spec.get("traced_service"):
        # The wire session lasts half the window, which keeps a traced
        # run within the benchmark's time budget.
        wire_metrics, wire = service.run(
            str(ROOT), wl.workload_spec("service", args.seed, args.tiny),
            args.seconds / 2, str(tmp), ops)
        metrics.update(wire_metrics)
    record = {
        "workload": spec["name"],
        "why": spec["why"],
        "data": extra["data"],
        "query": spec["query"],
        "options": spec["options"],
        "seed": spec["seed"],
        "trace": args.trace,
        "seconds": args.seconds,
        "samples": samples,
        "digest": digest,
        "attempted": ops.attempted,
        "failed": ops.failed,
        "error_rate": ops.failed / ops.attempted if ops.attempted else 1.0,
        "failures": ops.failures,
    }
    for key in ("peak_rss_reset", "rss_headroom_mb"):
        if key in extra:
            record[key] = extra[key]
    if wire is not None:
        record["service"] = wire
    return metrics, record


def metric_table(trace):
    """``[(name, unit)]`` of the metrics a run prints, as listed in
    ``BENCHMARK.json``: the per-layer ones for a traced run, else the
    end-to-end ones."""
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    return [(m["name"], m["unit"])
            for m in spec["per_layer" if trace else "end_to_end"]]


def main(argv=None):
    use_checkout_source()
    from host import host_facts, probe_seconds

    args = parse_args(argv)
    probe_before = probe_seconds()
    facts = host_facts()
    tmp = ROOT / ".perfbench_tmp" / str(os.getpid())
    tmp.mkdir(parents=True, exist_ok=True)
    try:
        metrics, record = measure(args, tmp)
    finally:
        shutil.rmtree(tmp, ignore_errors=True)
        try:
            tmp.parent.rmdir()  # only when no other run is using it
        except OSError:
            pass
    probe_after = probe_seconds()

    record["host"] = dict(facts, probe_before_s=probe_before,
                          probe_after_s=probe_after)
    attempted = max(record["attempted"], 1)
    table = metric_table(args.trace)
    if args.trace:
        metrics["host.probe_s"] = (probe_before + probe_after) / 2
        metrics["host.parallel_ceiling"] = facts["parallel_ceiling"]
        # Only a workload with a wire run measures the service layer.
        for name, _unit in table:
            if name.startswith(("service.", "loadgen.")):
                metrics.setdefault(name, 0.0)
    else:
        metrics["success_rate"] = 1.0 - record["failed"] / attempted
    absent = [name for name, _unit in table if name not in metrics]
    if absent:
        raise SystemExit(f"perfbench: no value measured for {absent}")
    out = {name: {"value": float(metrics[name]), "unit": unit}
           for name, unit in table}
    record["metrics"] = out

    print(f"workload {record['workload']} seed {record['seed']} "
          f"trace {args.trace}: {record['why']}")
    for name, unit in table:
        print(f"  {name:34s} {out[name]['value']:14.6g} {unit}")
    print("  samples: " + ", ".join(f"{k}={v}"
                                    for k, v in record["samples"].items()))
    print(f"  error_rate {record['error_rate']:.6g} "
          f"({record['failed']} of {record['attempted']} operations failed)")
    for failure in record["failures"]:
        print(f"  FAILED: {failure}")
    print("record " + json.dumps(record, sort_keys=True))
    print(json.dumps({
        "correct": record["failed"] == 0 and record["attempted"] > 0,
        "attempted": record["attempted"],
        "failed": record["failed"],
        "metrics": out,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
