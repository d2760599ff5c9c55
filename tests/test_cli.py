"""Tests for the command-line interface."""

import io
import json

import pytest

from repro.cli import build_parser, main
from repro.io.csv_io import load_trajectories_csv, save_trajectories_csv
from repro.trajectory.database import TrajectoryDatabase
from repro.trajectory.trajectory import Trajectory


@pytest.fixture
def convoy_csv(tmp_path):
    db = TrajectoryDatabase(
        [
            Trajectory("a", [(t, 0.0, t) for t in range(20)]),
            Trajectory("b", [(t, 1.0, t) for t in range(20)]),
            Trajectory("c", [(t, 90.0, t) for t in range(20)]),
        ]
    )
    path = tmp_path / "in.csv"
    save_trajectories_csv(db, path)
    return path


def run_cli(argv):
    out = io.StringIO()
    code = main(argv, out=out)
    return code, out.getvalue()


class TestParser:
    def test_requires_command(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args([])

    def test_discover_requires_query_params(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["discover", "x.csv"])

    def test_algorithm_choices(self):
        args = build_parser().parse_args(
            ["discover", "x.csv", "-m", "2", "-k", "3", "-e", "1.5",
             "--algorithm", "cuts+"]
        )
        assert args.algorithm == "cuts+"


class TestDiscover:
    @pytest.mark.parametrize("algorithm", ["cmc", "cuts", "cuts+", "cuts*"])
    def test_finds_convoy(self, convoy_csv, algorithm):
        code, text = run_cli(
            ["discover", str(convoy_csv), "-m", "2", "-k", "10", "-e", "2.0",
             "--algorithm", algorithm]
        )
        assert code == 0
        assert "1 convoy(s)" in text
        assert "objects=a,b" in text

    def test_writes_output_csv(self, convoy_csv, tmp_path):
        out_path = tmp_path / "answer.csv"
        code, text = run_cli(
            ["discover", str(convoy_csv), "-m", "2", "-k", "10", "-e", "2.0",
             "--output", str(out_path)]
        )
        assert code == 0
        lines = out_path.read_text().splitlines()
        assert lines[0] == "t_start,t_end,size,objects"
        assert lines[1] == "0,19,2,a;b"

    def test_no_convoys(self, convoy_csv):
        code, text = run_cli(
            ["discover", str(convoy_csv), "-m", "3", "-k", "10", "-e", "2.0"]
        )
        assert code == 0
        assert "0 convoy(s)" in text

    def test_empty_input(self, tmp_path):
        empty = tmp_path / "empty.csv"
        empty.write_text("")
        code, text = run_cli(
            ["discover", str(empty), "-m", "2", "-k", "3", "-e", "1.0"]
        )
        assert code == 1

    def test_explicit_internal_params(self, convoy_csv):
        code, text = run_cli(
            ["discover", str(convoy_csv), "-m", "2", "-k", "10", "-e", "2.0",
             "--delta", "0.5", "--lam", "4"]
        )
        assert code == 0
        assert "1 convoy(s)" in text


class TestStream:
    def test_finds_convoy_in_csv(self, convoy_csv):
        code, text = run_cli(
            ["stream", str(convoy_csv), "-m", "2", "-k", "10", "-e", "2.0"]
        )
        assert code == 0
        assert "objects=a,b" in text
        assert "open at end of stream" in text  # convoy runs to the last tick
        assert "20 snapshot(s)" in text

    def test_streamed_answer_matches_discover(self, convoy_csv, tmp_path):
        stream_out = tmp_path / "stream.csv"
        discover_out = tmp_path / "discover.csv"
        run_cli(["stream", str(convoy_csv), "-m", "2", "-k", "10",
                 "-e", "2.0", "--output", str(stream_out)])
        run_cli(["discover", str(convoy_csv), "-m", "2", "-k", "10",
                 "-e", "2.0", "--algorithm", "cmc",
                 "--output", str(discover_out)])
        assert stream_out.read_text() == discover_out.read_text()

    def test_multi_convoy_answer_matches_discover(self, tmp_path):
        """Output parity holds when one convoy closes mid-stream (emitted
        first by the engine) and another runs to the final snapshot
        (emitted last, by the flush) — discovery order differs from
        discover's normalized order."""
        db = TrajectoryDatabase(
            [
                Trajectory("a", [(t, 0.0, t) for t in range(20)]),
                Trajectory("b", [(t, 1.0, t) for t in range(20)]),
                Trajectory("d", [(t, 40.0 if t < 10 else 40.0 + 5 * (t - 9), t)
                                 for t in range(20)]),
                Trajectory("e", [(t, 41.0, t) for t in range(20)]),
            ]
        )
        path = tmp_path / "multi.csv"
        save_trajectories_csv(db, path)
        stream_out = tmp_path / "stream.csv"
        discover_out = tmp_path / "discover.csv"
        code, text = run_cli(["stream", str(path), "-m", "2", "-k", "5",
                              "-e", "2.0", "--output", str(stream_out)])
        assert code == 0
        assert "closed at t=" in text  # d/e convoy died mid-stream
        assert "open at end of stream" in text  # a/b ran to the last tick
        run_cli(["discover", str(path), "-m", "2", "-k", "5", "-e", "2.0",
                 "--algorithm", "cmc", "--output", str(discover_out)])
        assert stream_out.read_text() == discover_out.read_text()

    def test_synthetic_source(self):
        code, text = run_cli(
            ["stream", "--synthetic", "30x15", "--seed", "2",
             "-m", "3", "-k", "5", "-e", "10.0", "--quiet"]
        )
        assert code == 0
        assert "15 snapshot(s)" in text
        assert "synthetic 30x15 (seed 2)" in text

    def test_incremental_flag_same_answer_plus_pass_report(self, convoy_csv,
                                                           tmp_path):
        base_out = tmp_path / "base.csv"
        inc_out = tmp_path / "inc.csv"
        code, base_text = run_cli(
            ["stream", str(convoy_csv), "-m", "2", "-k", "10", "-e", "2.0",
             "--output", str(base_out)]
        )
        assert code == 0
        assert "incremental clustering:" not in base_text
        code, inc_text = run_cli(
            ["stream", str(convoy_csv), "-m", "2", "-k", "10", "-e", "2.0",
             "--incremental", "--output", str(inc_out)]
        )
        assert code == 0
        assert "incremental clustering:" in inc_text
        assert "objects=a,b" in inc_text
        assert inc_out.read_text() == base_out.read_text()

    def test_incremental_reports_candidate_splicing(self, convoy_csv,
                                                    tmp_path):
        code, text = run_cli(
            ["stream", str(convoy_csv), "-m", "2", "-k", "10", "-e", "2.0",
             "--incremental"]
        )
        assert code == 0
        assert "candidate tracking:" in text
        assert "spliced" in text

    def test_churn_threshold_flag(self, convoy_csv, tmp_path):
        base_out = tmp_path / "base.csv"
        tuned_out = tmp_path / "tuned.csv"
        code, _ = run_cli(
            ["stream", str(convoy_csv), "-m", "2", "-k", "10", "-e", "2.0",
             "--output", str(base_out)]
        )
        assert code == 0
        for value, out_path in (("0.9", tuned_out), ("adaptive", tuned_out)):
            code, text = run_cli(
                ["stream", str(convoy_csv), "-m", "2", "-k", "10",
                 "-e", "2.0", "--incremental", "--churn-threshold", value,
                 "--output", str(out_path)]
            )
            assert code == 0, text
            assert out_path.read_text() == base_out.read_text()

    def test_churn_threshold_requires_incremental(self, convoy_csv):
        code, text = run_cli(
            ["stream", str(convoy_csv), "-m", "2", "-k", "5", "-e", "2.0",
             "--churn-threshold", "0.5"]
        )
        assert code == 2
        assert "--incremental" in text

    def test_churn_threshold_rejects_bad_values(self, convoy_csv):
        code, text = run_cli(
            ["stream", str(convoy_csv), "-m", "2", "-k", "5", "-e", "2.0",
             "--incremental", "--churn-threshold", "banana"]
        )
        assert code == 2
        assert "bad --churn-threshold" in text
        code, text = run_cli(
            ["stream", str(convoy_csv), "-m", "2", "-k", "5", "-e", "2.0",
             "--incremental", "--churn-threshold", "1.5"]
        )
        assert code == 2
        assert "bad query parameters" in text

    def test_requires_exactly_one_input(self, convoy_csv):
        code, _ = run_cli(["stream", "-m", "2", "-k", "5", "-e", "1.0"])
        assert code == 2
        code, _ = run_cli(
            ["stream", str(convoy_csv), "--synthetic", "5x5",
             "-m", "2", "-k", "5", "-e", "1.0"]
        )
        assert code == 2

    def test_rejects_window_below_k(self, convoy_csv):
        code, text = run_cli(
            ["stream", str(convoy_csv), "-m", "2", "-k", "5", "-e", "2.0",
             "--window", "3"]
        )
        assert code == 2
        assert "bad query parameters" in text

    def test_rejects_malformed_synthetic_shape(self):
        code, text = run_cli(
            ["stream", "--synthetic", "banana", "-m", "2", "-k", "5",
             "-e", "1.0"]
        )
        assert code == 2
        assert "bad --synthetic" in text

    def test_window_flag(self, convoy_csv):
        code, text = run_cli(
            ["stream", str(convoy_csv), "-m", "2", "-k", "5", "-e", "2.0",
             "--window", "8"]
        )
        assert code == 0
        assert "closed at t=" in text  # fragments close mid-stream

    def test_jittered_synthetic_with_lateness_matches_in_order(self,
                                                               tmp_path):
        in_order = tmp_path / "in_order.csv"
        reordered = tmp_path / "reordered.csv"
        code, _ = run_cli(
            ["stream", "--synthetic", "40x25", "--seed", "3", "-m", "3",
             "-k", "5", "-e", "10.0", "--quiet", "--output", str(in_order)]
        )
        assert code == 0
        code, text = run_cli(
            ["stream", "--synthetic", "40x25", "--seed", "3", "-m", "3",
             "-k", "5", "-e", "10.0", "--quiet", "--jitter", "4",
             "--allowed-lateness", "4", "--output", str(reordered)]
        )
        assert code == 0, text
        assert "reorder buffer:" in text
        assert "jitter 4" in text
        assert reordered.read_text() == in_order.read_text()

    def test_allowed_lateness_reports_buffer_stats(self, convoy_csv):
        code, text = run_cli(
            ["stream", str(convoy_csv), "-m", "2", "-k", "10", "-e", "2.0",
             "--allowed-lateness", "2", "--quiet"]
        )
        assert code == 0
        assert "reorder buffer:" in text
        assert "late dropped" in text

    def test_max_pending_alone_enables_the_buffer(self, convoy_csv):
        code, text = run_cli(
            ["stream", str(convoy_csv), "-m", "2", "-k", "10", "-e", "2.0",
             "--max-pending", "4", "--quiet"]
        )
        assert code == 0
        assert "reorder buffer:" in text

    def test_jitter_requires_synthetic(self, convoy_csv):
        code, text = run_cli(
            ["stream", str(convoy_csv), "-m", "2", "-k", "5", "-e", "2.0",
             "--jitter", "3"]
        )
        assert code == 2
        assert "--synthetic" in text

    def test_jitter_requires_a_reorder_buffer(self):
        code, text = run_cli(
            ["stream", "--synthetic", "20x10", "-m", "3", "-k", "5",
             "-e", "10.0", "--jitter", "3"]
        )
        assert code == 2
        assert "--allowed-lateness" in text

    def test_late_policy_requires_a_reorder_buffer(self, convoy_csv):
        code, text = run_cli(
            ["stream", str(convoy_csv), "-m", "2", "-k", "5", "-e", "2.0",
             "--late-policy", "drop"]
        )
        assert code == 2
        assert "--allowed-lateness" in text

    def test_late_policy_drop_reports_dropped_count(self):
        # Jitter 5 against lateness 1 guarantees genuinely late arrivals.
        code, text = run_cli(
            ["stream", "--synthetic", "40x25", "--seed", "5", "-m", "3",
             "-k", "5", "-e", "10.0", "--quiet", "--jitter", "5",
             "--allowed-lateness", "1", "--late-policy", "drop"]
        )
        assert code == 0
        assert "reorder buffer:" in text
        assert " late dropped" in text
        dropped = int(text.split(" late dropped")[0].rsplit(", ", 1)[-1])
        assert dropped > 0

    def test_late_raise_is_reported_as_stream_error(self):
        code, text = run_cli(
            ["stream", "--synthetic", "40x25", "--seed", "5", "-m", "3",
             "-k", "5", "-e", "10.0", "--quiet", "--jitter", "5",
             "--allowed-lateness", "1"]
        )
        assert code == 1
        assert "stream error:" in text
        assert "late snapshot" in text

    def test_rejects_negative_jitter(self):
        code, text = run_cli(
            ["stream", "--synthetic", "20x10", "-m", "3", "-k", "5",
             "-e", "10.0", "--jitter", "-2", "--allowed-lateness", "2"]
        )
        assert code == 2
        assert "bad --jitter" in text

    def test_rejects_bad_reorder_parameters(self):
        code, text = run_cli(
            ["stream", "--synthetic", "20x10", "-m", "3", "-k", "5",
             "-e", "10.0", "--allowed-lateness", "-1"]
        )
        assert code == 2
        assert "bad query parameters" in text

    def test_rejects_amend_with_max_pending_only(self, convoy_csv):
        code, text = run_cli(
            ["stream", str(convoy_csv), "-m", "2", "-k", "5", "-e", "2.0",
             "--max-pending", "10", "--late-policy", "amend"]
        )
        assert code == 2
        assert "bad query parameters" in text
        assert "allowed_lateness" in text


class TestStreamSharding:
    @pytest.mark.parametrize("executor", [None, "process"])
    def test_sharded_answer_matches_unsharded(self, convoy_csv, tmp_path,
                                              executor):
        """Sharding through the CLI on both transports: identical
        convoys, the executor named in the sharding summary, and the
        resident workers' seeding recorded in the JSON counters."""
        base_out = tmp_path / "base.csv"
        sharded_out = tmp_path / "sharded.csv"
        json_out = tmp_path / "sharded.json"
        code, _ = run_cli(
            ["stream", str(convoy_csv), "-m", "2", "-k", "10", "-e", "2.0",
             "--output", str(base_out)]
        )
        assert code == 0
        argv = ["stream", str(convoy_csv), "-m", "2", "-k", "10",
                "-e", "2.0", "--shards", "3", "--output", str(sharded_out),
                "--json", str(json_out)]
        if executor is not None:
            argv += ["--executor", executor]
        code, text = run_cli(argv)
        assert code == 0, text
        assert "sharding:" in text
        assert "3 shard(s)" in text
        assert f"on the {executor or 'serial'} executor" in text
        assert sharded_out.read_text() == base_out.read_text()
        with open(json_out) as handle:
            payload = json.load(handle)
        assert "resident" not in payload["params"]
        assert payload["counters"]["resident_inits"] >= 1

    def test_executor_requires_shards(self, convoy_csv):
        code, text = run_cli(
            ["stream", str(convoy_csv), "-m", "2", "-k", "5", "-e", "2.0",
             "--executor", "process"]
        )
        assert code == 2
        assert "--shards" in text

    def test_rejects_bad_shard_count(self, convoy_csv):
        code, text = run_cli(
            ["stream", str(convoy_csv), "-m", "2", "-k", "5", "-e", "2.0",
             "--shards", "0"]
        )
        assert code == 2
        assert "bad query parameters" in text

    def test_unsharded_run_prints_no_sharding_line(self, convoy_csv):
        code, text = run_cli(
            ["stream", str(convoy_csv), "-m", "2", "-k", "10", "-e", "2.0"]
        )
        assert code == 0
        assert "sharding:" not in text

    @pytest.mark.parametrize("executor", ["serial", "process"])
    def test_sharded_bitset_kernel_matches_unsharded(self, convoy_csv,
                                                     tmp_path, executor):
        """A fixed kernel reaches the shard workers through the CLI: the
        bitset rows they maintain answer exactly like the unsharded
        default, and the JSON params record the whole transport."""
        base_out = tmp_path / "base.csv"
        sharded_out = tmp_path / "sharded.csv"
        json_out = tmp_path / "sharded.json"
        code, _ = run_cli(
            ["stream", str(convoy_csv), "-m", "2", "-k", "10", "-e", "2.0",
             "--output", str(base_out)]
        )
        assert code == 0
        code, text = run_cli(
            ["stream", str(convoy_csv), "-m", "2", "-k", "10", "-e", "2.0",
             "--shards", "2", "--executor", executor,
             "--match-kernel", "bitset", "--output", str(sharded_out),
             "--json", str(json_out)]
        )
        assert code == 0, text
        assert f"on the {executor} executor" in text
        assert "match kernel dispatch" not in text
        assert sharded_out.read_text() == base_out.read_text()
        with open(json_out) as handle:
            params = json.load(handle)["params"]
        assert (params["shards"], params["executor"],
                params["match_kernel"]) == (2, executor, "bitset")

    @pytest.mark.parametrize("flag", [["--resident"],
                                      ["--executor", "thread"]],
                             ids=["resident", "thread"])
    def test_removed_transport_options_rejected(self, convoy_csv, flag):
        """One transport design: the resident knob and the thread
        executor are gone from the parser."""
        with pytest.raises(SystemExit):
            build_parser().parse_args(
                ["stream", str(convoy_csv), "-m", "2", "-k", "5",
                 "-e", "2.0", "--shards", "2"] + flag
            )


class TestStreamJson:
    def test_round_trip_matches_csv_answer(self, convoy_csv, tmp_path):
        """The JSON artifact carries exactly the normalized CSV answer
        plus the full counters dict."""
        csv_out = tmp_path / "answer.csv"
        json_out = tmp_path / "answer.json"
        code, text = run_cli(
            ["stream", str(convoy_csv), "-m", "2", "-k", "10", "-e", "2.0",
             "--output", str(csv_out), "--json", str(json_out)]
        )
        assert code == 0
        assert f"json answer written to {json_out}" in text
        with open(json_out) as handle:
            payload = json.load(handle)
        assert set(payload) >= {"params", "convoys", "counters",
                                "elapsed_seconds"}
        assert payload["params"] == {
            "m": 2, "k": 10, "eps": 2.0, "paper_semantics": False,
            "window": None, "shards": None, "executor": None,
            "backend": "python", "match_kernel": None,
        }
        # Round trip: rebuild the CSV rows from the JSON convoys.
        rebuilt = ["t_start,t_end,size,objects"]
        for convoy in payload["convoys"]:
            members = ";".join(convoy["objects"])
            rebuilt.append(
                f"{convoy['t_start']},{convoy['t_end']},"
                f"{len(convoy['objects'])},{members}"
            )
        assert csv_out.read_text().splitlines() == rebuilt
        # The counters are the miner's full shared dict.
        assert payload["counters"]["snapshots"] == 20
        assert payload["counters"]["convoys_emitted"] == 1

    def test_json_includes_reorder_and_shard_counters(self, tmp_path):
        json_out = tmp_path / "sharded.json"
        code, _text = run_cli(
            ["stream", "--synthetic", "40x20", "--seed", "3", "-m", "3",
             "-k", "5", "-e", "10.0", "--quiet", "--jitter", "3",
             "--allowed-lateness", "3", "--shards", "2", "--executor",
             "serial", "--incremental", "--json", str(json_out)]
        )
        assert code == 0
        with open(json_out) as handle:
            payload = json.load(handle)
        counters = payload["counters"]
        # Reorder, shard, tracker, and engine keys all in one dict.
        for key in ("reordered_snapshots", "late_dropped", "peak_pending",
                    "shard_steps", "sharded_candidates", "max_shard_batch",
                    "spliced_candidates", "snapshots"):
            assert key in counters, key
        assert payload["params"]["shards"] == 2
        assert payload["params"]["executor"] == "serial"
        assert counters["sharded_candidates"] >= 0
        assert "clusterer_counters" in payload
        assert payload["clusterer_counters"]["incremental_passes"] >= 0

    def test_json_convoys_match_across_sharding(self, tmp_path):
        a = tmp_path / "a.json"
        b = tmp_path / "b.json"
        for path, extra in ((a, []), (b, ["--shards", "4"])):
            code, _ = run_cli(
                ["stream", "--synthetic", "50x20", "--seed", "1",
                 "-m", "3", "-k", "5", "-e", "10.0", "--quiet",
                 "--json", str(path)] + extra
            )
            assert code == 0
        with open(a) as handle:
            plain = json.load(handle)
        with open(b) as handle:
            sharded = json.load(handle)
        assert plain["convoys"] == sharded["convoys"]


class TestStats:
    def test_table3_style_output(self, convoy_csv):
        code, text = run_cli(["stats", str(convoy_csv)])
        assert code == 0
        assert "objects (N):            3" in text
        assert "time domain length (T): 20" in text
        assert "data size (points):     60" in text


class TestSimplify:
    def test_reduces_points(self, convoy_csv, tmp_path):
        out_path = tmp_path / "reduced.csv"
        code, text = run_cli(
            ["simplify", str(convoy_csv), str(out_path),
             "--method", "dp", "--delta", "0.5"]
        )
        assert code == 0
        assert "reduction" in text
        reduced = load_trajectories_csv(out_path)
        assert reduced.total_points < 60
        # Endpoints survive, so the time domain is intact.
        assert reduced.min_time == 0 and reduced.max_time == 19

    @pytest.mark.parametrize("method", ["dp", "dp+", "dp*"])
    def test_all_methods(self, convoy_csv, tmp_path, method):
        out_path = tmp_path / f"{method.replace('*', 'star')}.csv"
        code, _ = run_cli(
            ["simplify", str(convoy_csv), str(out_path),
             "--method", method, "--delta", "1.0"]
        )
        assert code == 0
        assert out_path.exists()


class TestGenerate:
    def test_generate_taxi(self, tmp_path):
        out_path = tmp_path / "taxi.csv"
        code, text = run_cli(
            ["generate", "taxi", str(out_path), "--scale", "0.1"]
        )
        assert code == 0
        assert "500 objects" in text
        db = load_trajectories_csv(out_path)
        assert len(db) == 500

    def test_generate_respects_seed(self, tmp_path):
        a = tmp_path / "a.csv"
        b = tmp_path / "b.csv"
        run_cli(["generate", "cattle", str(a), "--scale", "0.002", "--seed", "5"])
        run_cli(["generate", "cattle", str(b), "--scale", "0.002", "--seed", "5"])
        assert a.read_text() == b.read_text()


class TestStreamBackend:
    @pytest.mark.parametrize("backend", ["python", "vector"])
    def test_backends_print_identical_convoys(self, convoy_csv, backend):
        code, text = run_cli(
            ["stream", str(convoy_csv), "-m", "2", "-k", "10", "-e", "2.0",
             "--backend", backend]
        )
        assert code == 0
        assert "1 convoy(s) from 20 snapshot(s)" in text
        assert "objects=a,b" in text

    def test_backend_threads_into_incremental_and_shards(self, tmp_path):
        json_out = tmp_path / "vec.json"
        code, _text = run_cli(
            ["stream", "--synthetic", "40x20", "--seed", "3", "-m", "3",
             "-k", "5", "-e", "10.0", "--quiet", "--incremental",
             "--shards", "2", "--backend", "vector", "--json",
             str(json_out)]
        )
        assert code == 0
        with open(json_out) as handle:
            assert json.load(handle)["params"]["backend"] == "vector"

    def test_rejects_unknown_backend(self, convoy_csv):
        with pytest.raises(SystemExit):
            build_parser().parse_args(
                ["stream", str(convoy_csv), "-m", "2", "-k", "10",
                 "-e", "2.0", "--backend", "fortran"]
            )


class TestStreamRateReporting:
    def test_sub_resolution_elapsed_omits_rate(self, convoy_csv, monkeypatch):
        """A run finishing below the timer's resolution must not print
        'inf snapshots/s' — the rate is omitted, the count stays."""
        import repro.cli as cli_module

        monkeypatch.setattr(cli_module.time, "perf_counter", lambda: 42.0)
        code, text = run_cli(
            ["stream", str(convoy_csv), "-m", "2", "-k", "10", "-e", "2.0",
             "--quiet"]
        )
        assert code == 0
        assert "inf" not in text
        assert "snapshots/s" not in text
        assert "1 convoy(s) from 20 snapshot(s)" in text

    def test_measurable_elapsed_prints_rate(self, convoy_csv):
        code, text = run_cli(
            ["stream", str(convoy_csv), "-m", "2", "-k", "10", "-e", "2.0",
             "--quiet"]
        )
        assert code == 0
        assert "snapshots/s" in text
        assert "inf" not in text


class TestStreamStore:
    def test_store_round_trips_through_query(self, convoy_csv, tmp_path):
        db = tmp_path / "convoys.db"
        code, text = run_cli(
            ["stream", str(convoy_csv), "-m", "2", "-k", "10", "-e", "2.0",
             "--quiet", "--store", str(db)]
        )
        assert code == 0
        assert "store: 1 convoy(s) stored, 0 replayed" in text
        code, text = run_cli(["query", str(db), "--alive", "0:15", "--json"])
        assert code == 0
        payload = json.loads(text)
        assert payload["count"] == 1
        assert payload["store_count"] == 1
        (convoy,) = payload["convoys"]
        assert convoy["objects"] == ["a", "b"]
        assert convoy["t_start"] == 0
        assert convoy["t_end"] == 19
        assert convoy["bbox"] is not None

    def test_rerun_replays_idempotently(self, convoy_csv, tmp_path):
        db = tmp_path / "convoys.db"
        argv = ["stream", str(convoy_csv), "-m", "2", "-k", "10", "-e",
                "2.0", "--quiet", "--store", str(db)]
        assert run_cli(argv)[0] == 0
        code, text = run_cli(argv)
        assert code == 0
        assert "store: 0 convoy(s) stored, 1 replayed" in text

    def test_store_composes_with_sharding(self, tmp_path):
        db = tmp_path / "convoys.db"
        code, text = run_cli(
            ["stream", "--synthetic", "40x20", "--seed", "3", "-m", "3",
             "-k", "5", "-e", "10.0", "--quiet", "--shards", "2",
             "--store", str(db)]
        )
        assert code == 0
        assert "stored" in text
        code, text = run_cli([
            "query", str(db), "--top-k", "3", "--by", "duration"])
        assert code == 0
        assert "convoy(s) matched" in text


class TestStreamMatchKernel:
    def test_rejects_unknown_kernel(self, convoy_csv, capsys):
        with pytest.raises(SystemExit) as exc:
            run_cli(["stream", str(convoy_csv), "-m", "2", "-k", "10",
                     "-e", "2.0", "--match-kernel", "turbo"])
        assert exc.value.code == 2  # argparse choices reject it up front

    def test_every_kernel_matches_default_answer(self, convoy_csv, tmp_path):
        base = tmp_path / "base.csv"
        run_cli(["stream", str(convoy_csv), "-m", "2", "-k", "10",
                 "-e", "2.0", "--output", str(base)])
        for kernel in ("scalar", "merge", "bitset", "auto"):
            out = tmp_path / f"{kernel}.csv"
            code, text = run_cli(
                ["stream", str(convoy_csv), "-m", "2", "-k", "10",
                 "-e", "2.0", "--match-kernel", kernel,
                 "--output", str(out)]
            )
            assert code == 0, text
            assert out.read_text() == base.read_text()

    def test_auto_reports_dispatch_summary(self, convoy_csv):
        code, text = run_cli(
            ["stream", str(convoy_csv), "-m", "2", "-k", "10", "-e", "2.0",
             "--match-kernel", "auto"]
        )
        assert code == 0
        assert "match kernel dispatch:" in text

    def test_fixed_kernel_has_no_dispatch_summary(self, convoy_csv):
        code, text = run_cli(
            ["stream", str(convoy_csv), "-m", "2", "-k", "10", "-e", "2.0",
             "--match-kernel", "bitset"]
        )
        assert code == 0
        assert "match kernel dispatch:" not in text

    def test_vector_backend_notes_numpy_fallback(self, convoy_csv,
                                                 monkeypatch):
        import repro.cli as cli_module

        monkeypatch.setattr(cli_module, "have_numpy", lambda: False)
        code, text = run_cli(
            ["stream", str(convoy_csv), "-m", "2", "-k", "10", "-e", "2.0",
             "--backend", "vector"]
        )
        assert code == 0
        assert "memoryview fallback" in text

    def test_vector_backend_with_numpy_has_no_fallback_note(self, convoy_csv,
                                                            monkeypatch):
        import repro.cli as cli_module

        monkeypatch.setattr(cli_module, "have_numpy", lambda: True)
        code, text = run_cli(
            ["stream", str(convoy_csv), "-m", "2", "-k", "10", "-e", "2.0",
             "--backend", "vector"]
        )
        assert code == 0
        assert "fallback kernels" not in text

    def test_python_backend_never_notes_fallback(self, convoy_csv,
                                                 monkeypatch):
        import repro.cli as cli_module

        monkeypatch.setattr(cli_module, "have_numpy", lambda: False)
        code, text = run_cli(
            ["stream", str(convoy_csv), "-m", "2", "-k", "10", "-e", "2.0"]
        )
        assert code == 0
        assert "fallback kernels" not in text


class TestQuery:
    @pytest.fixture
    def store_db(self, convoy_csv, tmp_path):
        db = tmp_path / "convoys.db"
        code, _ = run_cli(
            ["stream", str(convoy_csv), "-m", "2", "-k", "10", "-e", "2.0",
             "--quiet", "--store", str(db)]
        )
        assert code == 0
        return db

    def test_text_output(self, store_db):
        code, text = run_cli(["query", str(store_db), "--alive", "0:5"])
        assert code == 0
        assert "t=[0,19] objects=a,b bbox=" in text
        assert "1 convoy(s) matched (store holds 1" in text

    def test_containing_matches_both_id_types(self, store_db, tmp_path):
        from repro.core.convoy import Convoy
        from repro.store import open_store

        with open_store(store_db) as store:
            store.add(Convoy({5, "x"}, 0, 4))
            store.add(Convoy({"5", "y"}, 1, 6))
        code, text = run_cli(["query", str(store_db), "--containing", "5",
                              "--json"])
        assert code == 0
        payload = json.loads(text)
        assert payload["count"] == 2
        code, text = run_cli(["query", str(store_db), "--containing", "x"])
        assert code == 0
        assert "1 convoy(s) matched" in text

    def test_containing_miss_is_empty_not_an_error(self, store_db):
        code, text = run_cli(["query", str(store_db), "--containing", "zz"])
        assert code == 0
        assert "0 convoy(s) matched" in text

    def test_intersecting(self, store_db):
        code, text = run_cli(
            ["query", str(store_db), "--intersecting", "0:0:5:25"])
        assert code == 0
        assert "1 convoy(s) matched" in text
        code, text = run_cli(
            ["query", str(store_db), "--intersecting", "50:50:60:60"])
        assert code == 0
        assert "0 convoy(s) matched" in text

    def test_top_k_composes_with_alive(self, store_db):
        code, text = run_cli(
            ["query", str(store_db), "--alive", "0:5", "--top-k", "1",
             "--by", "size", "--json"])
        assert code == 0
        payload = json.loads(text)
        assert payload["query"]["top_k"] == 1
        assert payload["query"]["by"] == "size"
        assert payload["count"] == 1

    def test_missing_store_is_an_error(self, tmp_path):
        missing = tmp_path / "nope.db"
        code, text = run_cli(["query", str(missing), "--alive", "0:5"])
        assert code == 2
        assert "no such store" in text
        assert not missing.exists()  # the query must not create it

    def test_mode_validation(self, store_db):
        code, text = run_cli(["query", str(store_db)])
        assert code == 2
        assert "at least one of" in text
        code, text = run_cli(["query", str(store_db), "--alive", "0:5",
                              "--containing", "a"])
        assert code == 2
        assert "pick one of" in text
        code, text = run_cli(["query", str(store_db), "--containing", "a",
                              "--top-k", "2"])
        assert code == 2
        assert "--top-k only composes with --alive" in text
        code, text = run_cli(["query", str(store_db), "--top-k", "0"])
        assert code == 2
        assert "bad --top-k" in text

    def test_window_and_box_validation(self, store_db):
        code, text = run_cli(["query", str(store_db), "--alive", "9:2"])
        assert code == 2
        assert "reversed" in text
        code, text = run_cli(["query", str(store_db), "--alive", "abc"])
        assert code == 2
        assert "bad query window/box" in text
        code, text = run_cli(
            ["query", str(store_db), "--intersecting", "1:2:3"])
        assert code == 2
        assert "bad query window/box" in text

    def test_box_corners_any_order(self, store_db):
        code_a, text_a = run_cli(
            ["query", str(store_db), "--intersecting", "5:25:0:0"])
        code_b, text_b = run_cli(
            ["query", str(store_db), "--intersecting", "0:0:5:25"])
        assert code_a == code_b == 0
        assert text_a == text_b


class TestServe:
    def test_rejects_bad_workers(self):
        code, text = run_cli(["serve", "--workers", "0"])
        assert code == 2
        assert "bad --workers value" in text

    def test_rejects_bad_max_queue(self):
        code, text = run_cli(["serve", "--max-queue", "0"])
        assert code == 2
        assert "bad --max-queue value" in text

    def test_stream_rejects_negative_pace(self, convoy_csv):
        code, text = run_cli(
            ["stream", str(convoy_csv), "-m", "2", "-k", "3", "-e", "2.0",
             "--pace", "-0.5"]
        )
        assert code == 2
        assert "bad --pace value" in text
