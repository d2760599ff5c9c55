"""Smoke checks of the benchmark itself, at tiny scale.

Run from the repository root::

    python3 -m pytest -q perfbench/smoke_checks.py
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys

import pytest

import run

run.use_checkout_source()

import direct  # noqa: E402
import workloads as wl  # noqa: E402
from repro.streaming.pipeline import EmitStage  # noqa: E402
from tracing import Tracer  # noqa: E402

ROOT = run.ROOT
BENCHMARK = json.loads((ROOT / "BENCHMARK.json").read_text())


def bench(*args, cwd=ROOT):
    return subprocess.run(
        [sys.executable, "perfbench/run.py", *args], cwd=cwd,
        capture_output=True, text=True, timeout=300)


def result(proc):
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout.strip().splitlines()[-1])


@pytest.mark.parametrize("workload", sorted(wl.WORKLOADS))
def test_tiny_run_emits_every_end_to_end_metric(workload):
    out = result(bench("--workload", workload, "--seconds", "1", "--tiny"))
    assert out["correct"] and out["failed"] == 0 and out["attempted"] > 0
    assert {name: out["metrics"][name]["unit"] for name in out["metrics"]} \
        == {m["name"]: m["unit"] for m in BENCHMARK["end_to_end"]}
    # Memory growth of a tiny run can stay within pages already mapped.
    assert all(m["value"] > 0 for name, m in out["metrics"].items()
               if name != "peak_rss_mb")


def test_tiny_traced_run_emits_every_per_layer_metric():
    # parked_fleet's traced run includes the wire run of the service.
    out = result(bench("--workload", "parked_fleet", "--seconds", "1",
                       "--tiny", "--trace", "1"))
    assert out["correct"]
    assert {name: out["metrics"][name]["unit"] for name in out["metrics"]} \
        == {m["name"]: m["unit"] for m in BENCHMARK["per_layer"]}
    assert out["metrics"]["service.bytes_in_per_tick"]["value"] > 0


def test_corrupted_answer_is_counted(monkeypatch, tmp_path):
    emit_tick = EmitStage.emit_tick

    def corrupt(self, records, *args):
        convoys = emit_tick(self, records, *args)
        if self.sink is not None and convoys:
            first = convoys[0]
            convoys[0] = type(first)(first.objects, first.t_start,
                                     first.t_end + 1)
        return convoys

    monkeypatch.setattr(EmitStage, "emit_tick", corrupt)
    ops = wl.Ops()
    spec = wl.workload_spec("parked_fleet", 1, tiny=True)
    metrics, _samples, _extra = direct.run_untraced(spec, 0.2, str(tmp_path),
                                                    ops)
    assert ops.failed > 0 and ops.attempted > ops.failed
    assert any("feed" in failure for failure in ops.failures)


@pytest.mark.parametrize("workload",
                         ["convoy_groups", "parked_fleet", "dense_hotspot"])
def test_spans_nest_under_their_tick_and_self_times_sum(workload, tmp_path):
    spec = wl.workload_spec(workload, 1, tiny=True)
    ticks = wl.materialize(wl.data_specs(spec)[0])
    tracer = Tracer()
    rep = direct.mine_once(spec, ticks, str(tmp_path / "s.db"), tracer)
    assert rep.error is None
    spans = tracer.spans
    roots = [s for s in spans if s[3] is None]
    assert [s[0] for s in roots] == ["feed"] * len(ticks) + ["flush", "close"]
    assert [s[4] for s in roots[:-2]] == [t for t, _ in ticks]
    for name, start, end, parent, request in spans:
        if parent is None:
            continue
        parent_span = spans[parent]
        assert parent_span[1] <= start <= end <= parent_span[2], name
        assert request == parent_span[4], name
    layers = direct.layer_metrics(tracer, rep)
    assert layers["trace.self_sum_ratio"] == pytest.approx(1.0, abs=0.05)
    assert layers["store.commit_s"] >= layers["store.insert_s"] > 0
    assert layers["track.pairs_scanned"] >= layers["track.match_hits"] > 0


def test_benchmark_json_names_defined_workloads():
    assert {w["name"] for w in BENCHMARK["workloads"]} <= set(wl.WORKLOADS)


def test_refuses_to_run_without_program_source(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(ROOT / "perfbench", tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = bench("--workload", "parked_fleet", "--seconds", "1",
                 cwd=tmp_path)
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout
