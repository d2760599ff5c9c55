"""Tests for the bitset match tier and the adaptive kernel dispatcher.

Four layers of proof:

* naming/validation — :data:`MATCH_KERNELS`, ``validate_match_kernel``
  and the two-argument ``resolve_match_kernel`` raise a
  :class:`ValueError` that names the offending value and lists the
  valid choices (never a bare :class:`KeyError`), at every entry layer
  (kernel registry, miner, ``cmc()``);
* kernel equivalence — hypothesis and seeded-random properties holding
  ``bitset == merge == scalar`` on overlapping/disjoint id families
  (int and str ids, empty candidate sets, full-population candidates
  that exercise the subset fast path), with numpy and on the pure
  ``int``-bitmask fallback, under forced block chunking, and across a
  per-bucket split in which each bucket packs its own rows (the
  sharded tracker's shape);
* resident rows — a worker's maintained bitset rows always decode to
  its authoritative object-set state after arbitrary put/drop delta
  sequences, and a bitset step answers exactly like a scalar step on a
  twin worker;
* dispatcher policy — exploration order, the explore floor, the
  decisive-gain bias, the staleness probe, and parameter validation of
  :class:`KernelDispatch`.
"""

import pickle
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import repro.clustering.numeric as numeric
from repro.clustering.numeric import (
    MATCH_KERNELS,
    KernelDispatch,
    match_candidates_bitset,
    match_candidates_merge,
    match_candidates_vector,
    validate_match_kernel,
)
from repro.core.candidates import (
    FIXED_MATCH_KERNELS,
    match_candidates,
    resolve_match_kernel,
)
from repro.core.cmc import cmc
from repro.streaming import StreamingConvoyMiner, churn_stream
from repro.streaming.executor import ResidentProtocolError, ResidentShardWorker
from repro.trajectory.database import TrajectoryDatabase
from repro.trajectory.trajectory import Trajectory


@pytest.fixture(params=["numpy", "fallback"])
def numeric_mode(request, monkeypatch):
    """Run a test against both kernel modes of the vector backend."""
    if request.param == "fallback":
        monkeypatch.setattr(numeric, "np", None)
    elif numeric.np is None:
        pytest.skip("numpy not installed")
    return request.param


class TestKernelNames:
    def test_names(self):
        assert MATCH_KERNELS == ("auto", "scalar", "merge", "bitset")

    def test_fixed_registry(self):
        assert FIXED_MATCH_KERNELS == {
            "scalar": match_candidates,
            "merge": match_candidates_merge,
            "bitset": match_candidates_bitset,
        }

    def test_validate_passes_none_and_known_names(self):
        assert validate_match_kernel(None) is None
        for name in MATCH_KERNELS:
            assert validate_match_kernel(name) == name

    def test_validate_rejects_unknown_naming_value_and_choices(self):
        with pytest.raises(ValueError) as exc:
            validate_match_kernel("turbo")
        message = str(exc.value)
        assert "'turbo'" in message
        for name in MATCH_KERNELS:
            assert name in message

    def test_kernels_are_picklable_by_reference(self):
        for fn in FIXED_MATCH_KERNELS.values():
            assert pickle.loads(pickle.dumps(fn)) is fn


class TestResolveMatchKernel:
    def test_backend_decides_without_kernel(self):
        assert resolve_match_kernel("python") is match_candidates
        assert resolve_match_kernel(None) is match_candidates
        assert resolve_match_kernel("vector") is match_candidates_vector

    def test_fixed_kernel_overrides_backend(self):
        assert resolve_match_kernel("python", "merge") is (
            match_candidates_merge
        )
        assert resolve_match_kernel("vector", "scalar") is match_candidates
        assert resolve_match_kernel("python", "bitset") is (
            match_candidates_bitset
        )

    def test_rejects_auto(self):
        with pytest.raises(ValueError, match="auto"):
            resolve_match_kernel("python", "auto")

    def test_rejects_unknown_kernel_with_choices(self):
        with pytest.raises(ValueError) as exc:
            resolve_match_kernel("python", "turbo")
        message = str(exc.value)
        assert "'turbo'" in message
        assert "bitset" in message


def random_match_case(rng, ids="int"):
    """One random matching instance over int or str object ids."""
    size = rng.randrange(1, 80)
    if ids == "str":
        universe = [f"obj{i}" for i in range(size)]
    else:
        universe = list(range(size))
    n_clusters = rng.randrange(0, 8)
    if rng.random() < 0.4:
        # Overlapping families exercise the merge-intersection path.
        members = [
            frozenset(rng.sample(universe, rng.randrange(1, min(12, size + 1))))
            for _ in range(n_clusters)
        ]
    else:
        pool = list(universe)
        rng.shuffle(pool)
        members, cursor = [], 0
        for _ in range(n_clusters):
            chunk = pool[cursor:cursor + rng.randrange(1, 9)]
            cursor += len(chunk)
            if chunk:
                members.append(frozenset(chunk))
    jobs = []
    for pos in range(rng.randrange(0, 10)):
        roll = rng.random()
        if roll < 0.1:
            objects = frozenset()  # empty candidate
        elif roll < 0.25:
            objects = frozenset(universe)  # full population: subset path
        else:
            objects = frozenset(
                rng.sample(universe, rng.randrange(0, min(15, size + 1)))
            )
        if members and rng.random() < 0.5:
            scan = tuple(sorted(rng.sample(
                range(len(members)), rng.randrange(0, len(members) + 1)
            )))
        else:
            scan = None
        jobs.append((pos, objects, scan))
    return members, jobs, rng.randrange(1, 5)


class TestKernelEquivalence:
    """bitset == merge == scalar, everywhere the kernels can diverge."""

    def assert_all_equal(self, members, jobs, m):
        expected = match_candidates(members, jobs, m)
        assert match_candidates_merge(members, jobs, m) == expected
        assert match_candidates_bitset(members, jobs, m) == expected

    @settings(max_examples=120, deadline=None)
    @given(st.randoms(use_true_random=False), st.sampled_from(["int", "str"]))
    def test_random_families(self, rng, ids):
        members, jobs, m = random_match_case(rng, ids)
        self.assert_all_equal(members, jobs, m)

    def test_random_families_both_modes(self, numeric_mode):
        rng = random.Random(7)
        for _ in range(120):
            members, jobs, m = random_match_case(
                rng, ids=rng.choice(["int", "str"])
            )
            self.assert_all_equal(members, jobs, m)

    def test_full_population_candidate_subset_path(self, numeric_mode):
        # The candidate holds the whole population, so every common
        # count equals len(objects) and the intersection must be the
        # candidate set itself (the steady-state convoy shortcut).
        universe = frozenset(range(40))
        members = [frozenset(range(40)), frozenset(range(5))]
        jobs = [(0, universe, None)]
        expected = [(0, [(0, universe), (1, frozenset(range(5)))])]
        assert match_candidates(members, jobs, 1) == expected
        self.assert_all_equal(members, jobs, 1)

    def test_forced_block_chunking(self, monkeypatch):
        if numeric.np is None:
            pytest.skip("numpy not installed")
        monkeypatch.setattr(numeric, "_BITSET_BLOCK_WORDS", 1)
        rng = random.Random(11)
        for _ in range(60):
            members, jobs, m = random_match_case(rng)
            self.assert_all_equal(members, jobs, m)

    def test_bucket_split(self, numeric_mode):
        # The sharded tracker splits one tick's jobs into shard buckets
        # and every shard packs its own rows over its own id remap; the
        # buckets' answers together must equal the unsharded join.
        rng = random.Random(23)
        for _ in range(60):
            members, jobs, m = random_match_case(rng)
            expected = match_candidates(members, jobs, m)
            buckets = ([], [], [])
            for job in jobs:
                buckets[rng.randrange(3)].append(job)
            out = []
            for bucket in buckets:
                out.extend(match_candidates_bitset(members, bucket, m))
            assert sorted(out) == sorted(expected)


def random_worker_ops(rng, steps=40):
    """A random resident delta sequence: (ops, reference state) pairs."""
    state = {}
    sequence = []
    next_chain = 0
    for _ in range(steps):
        ops = []
        for _ in range(rng.randrange(0, 4)):
            if state and rng.random() < 0.35:
                victim = rng.choice(sorted(state, key=str))
                del state[victim]
                ops.append(("drop", victim))
            else:
                chain = f"c{next_chain}" if rng.random() < 0.5 else next_chain
                next_chain += 1
                objects = frozenset(
                    rng.sample(range(60), rng.randrange(1, 12))
                )
                state[chain] = objects
                ops.append(("put", chain, objects))
        sequence.append((ops, dict(state)))
    return sequence


class TestResidentBitsetRows:
    M = 2

    def make_worker(self, entries=()):
        worker = ResidentShardWorker()
        assert worker.handle(("init", self.M, "python", list(entries)))[0] == (
            "ok"
        )
        return worker

    @settings(max_examples=30, deadline=None)
    @given(st.randoms(use_true_random=False))
    def test_rows_track_state_under_random_deltas(self, rng):
        worker = self.make_worker()
        for ops, expected in random_worker_ops(rng):
            worker.handle(("step", [], ops, []))
            assert worker._objects == expected
            assert worker.bitset_rows() == expected
            # A worker rebuilt from scratch over the current state must
            # decode to the same rows, despite a different remap.
            rebuilt = self.make_worker(worker.handle(("snapshot",)).items())
            assert rebuilt.bitset_rows() == expected

    @settings(max_examples=30, deadline=None)
    @given(st.randoms(use_true_random=False))
    def test_bitset_step_equals_scalar_step(self, rng):
        twins = (self.make_worker(), self.make_worker())
        for ops, state in random_worker_ops(rng, steps=20):
            members = [
                frozenset(rng.sample(range(60), rng.randrange(1, 12)))
                for _ in range(rng.randrange(0, 5))
            ]
            jobs = []
            for pos, chain in enumerate(sorted(state, key=str)):
                if members and rng.random() < 0.5:
                    scan = tuple(sorted(rng.sample(
                        range(len(members)),
                        rng.randrange(0, len(members) + 1),
                    )))
                else:
                    scan = None
                jobs.append((pos, chain, scan))
            answers = [
                worker.handle(("step", members, ops, jobs, kernel))
                for worker, kernel in zip(twins, ("bitset", "scalar"))
            ]
            assert answers[0] == answers[1]

    def test_bitset_step_unknown_chain_raises(self):
        worker = self.make_worker([("a", frozenset({1, 2}))])
        with pytest.raises(ResidentProtocolError, match="ghost"):
            worker.handle(
                ("step", [frozenset({1, 2})], [], [(0, "ghost", None)],
                 "bitset")
            )


def _stats(scan_ids, pairs, population):
    """Hand-built plan stats for driving the dispatcher directly."""
    from repro.clustering.numeric import MatchPlanStats

    return MatchPlanStats(
        jobs=10, clusters=5, pairs=pairs, job_ids=population,
        member_ids=population, scan_ids=scan_ids, population=population,
    )


class TestKernelDispatch:
    def run_tick(self, dispatch, stats, seconds_by_kernel):
        name = dispatch.choose(stats)
        dispatch.observe(name, stats, seconds_by_kernel[name])
        return name

    def test_parameter_validation(self):
        for kwargs in (
            dict(alpha=0.0), dict(alpha=1.5), dict(explore_rounds=0),
            dict(explore_floor=-1), dict(refresh_every=0),
            dict(refresh_margin=0.5), dict(batch_margin=0.9),
        ):
            with pytest.raises(ValueError):
                KernelDispatch(**kwargs)

    def test_exploration_order_is_fixed(self):
        dispatch = KernelDispatch(explore_rounds=2)
        stats = _stats(scan_ids=100_000, pairs=50, population=4_000)
        picks = [
            self.run_tick(
                dispatch, stats,
                {"scalar": 0.01, "merge": 0.01, "bitset": 0.01},
            )
            for _ in range(6)
        ]
        assert picks == ["scalar", "scalar", "merge", "merge",
                         "bitset", "bitset"]

    def test_exploration_runs_even_below_floor(self):
        dispatch = KernelDispatch(explore_rounds=1, explore_floor=4096)
        tiny = _stats(scan_ids=10, pairs=1, population=10)
        picks = [
            self.run_tick(
                dispatch, tiny,
                {"scalar": 0.001, "merge": 0.001, "bitset": 0.001},
            )
            for _ in range(4)
        ]
        # All three kernels are priced on tiny ticks too, then the
        # floor takes over.
        assert picks == ["scalar", "merge", "bitset", "scalar"]

    def test_floor_forces_scalar_after_exploration(self):
        dispatch = KernelDispatch(explore_rounds=1, explore_floor=4096)
        tiny = _stats(scan_ids=100, pairs=1, population=100)
        costs = {"scalar": 0.5, "merge": 0.0001, "bitset": 0.0001}
        for _ in range(3):
            self.run_tick(dispatch, tiny, costs)
        # Scalar is observed as by far the slowest, yet below the floor
        # it is still chosen unconditionally.
        assert all(
            self.run_tick(dispatch, tiny, costs) == "scalar"
            for _ in range(10)
        )

    def test_learns_decisively_cheaper_batch_kernel(self):
        dispatch = KernelDispatch(explore_rounds=1)
        stats = _stats(scan_ids=500_000, pairs=200, population=10_000)
        costs = {"scalar": 0.050, "merge": 0.080, "bitset": 0.004}
        for _ in range(3):
            self.run_tick(dispatch, stats, costs)
        picks = [self.run_tick(dispatch, stats, costs) for _ in range(20)]
        assert set(picks) == {"bitset"}

    def test_close_race_goes_to_scalar(self):
        # bitset measures a touch cheaper than scalar, but not by the
        # decisive batch margin — the simple kernel must win.
        dispatch = KernelDispatch(explore_rounds=1, refresh_every=1000)
        stats = _stats(scan_ids=500_000, pairs=200, population=10_000)
        costs = {"scalar": 0.010, "merge": 0.030, "bitset": 0.009}
        for _ in range(3):
            self.run_tick(dispatch, stats, costs)
        picks = [self.run_tick(dispatch, stats, costs) for _ in range(20)]
        assert set(picks) == {"scalar"}

    def test_staleness_probe_refreshes_near_miss_only(self):
        dispatch = KernelDispatch(explore_rounds=1, refresh_every=4,
                                  refresh_margin=2.0)
        stats = _stats(scan_ids=500_000, pairs=200, population=10_000)
        costs = {"scalar": 0.010, "merge": 0.100, "bitset": 0.016}
        for _ in range(3):
            self.run_tick(dispatch, stats, costs)
        picks = [self.run_tick(dispatch, stats, costs) for _ in range(24)]
        # The near-miss kernel keeps being re-priced; the hopeless one
        # (10x, outside the margin) is never paid for again.
        assert "bitset" in picks
        assert "merge" not in picks
        assert picks.count("scalar") > picks.count("bitset")

    def test_observe_rejects_unknown_kernel(self):
        dispatch = KernelDispatch()
        stats = _stats(scan_ids=100, pairs=1, population=100)
        with pytest.raises(ValueError, match="turbo"):
            dispatch.observe("turbo", stats, 0.01)


def tiny_snapshots(n_ticks=10, n_objects=40, seed=3):
    return list(churn_stream(
        n_objects, n_ticks, seed=seed, eps=10.0, churn=0.2, area=120.0,
    ))


def run_miner(ticks, **kwargs):
    miner = StreamingConvoyMiner(2, 3, 10.0, clusterer="incremental",
                                 **kwargs)
    emitted = []
    with miner:
        for t, snapshot in ticks:
            emitted.append(miner.feed(t, snapshot))
        emitted.append(miner.flush())
    return emitted, dict(miner.counters)


class TestMinerMatchKernel:
    def test_every_kernel_and_transport_agrees(self):
        ticks = tiny_snapshots()
        baseline, _counters = run_miner(ticks)
        for kernel in ("scalar", "merge", "bitset", "auto"):
            for transport in (
                dict(),
                dict(shards=2, executor="serial"),
                dict(shards=2, executor="process"),
            ):
                emitted, _counters = run_miner(
                    ticks, match_kernel=kernel, **transport
                )
                assert emitted == baseline, (kernel, transport)

    def test_auto_reports_dispatch_counters(self):
        ticks = tiny_snapshots()
        _emitted, counters = run_miner(ticks, match_kernel="auto")
        picks = sum(
            counters.get(f"dispatch_{name}", 0)
            for name in ("scalar", "merge", "bitset")
        )
        assert picks > 0

    def test_fixed_kernels_report_no_dispatch_counters(self):
        ticks = tiny_snapshots()
        _emitted, counters = run_miner(ticks, match_kernel="bitset")
        assert not any(key.startswith("dispatch_") for key in counters)

    def test_miner_rejects_unknown_kernel(self):
        with pytest.raises(ValueError) as exc:
            StreamingConvoyMiner(2, 3, 10.0, match_kernel="turbo")
        message = str(exc.value)
        assert "'turbo'" in message
        assert "bitset" in message


class TestCmcMatchKernel:
    def database(self):
        return TrajectoryDatabase([
            Trajectory("a", [(0.0, float(t), t) for t in range(6)]),
            Trajectory("b", [(1.0, float(t), t) for t in range(6)]),
        ])

    def test_rejects_unknown_kernel(self):
        with pytest.raises(ValueError) as exc:
            cmc(self.database(), 2, 3, 5.0, match_kernel="turbo")
        message = str(exc.value)
        assert "'turbo'" in message
        assert "bitset" in message

    def test_kernels_agree(self):
        expected = cmc(self.database(), 2, 3, 5.0)
        assert expected  # the pair a/b is a convoy
        for kernel in ("scalar", "merge", "bitset", "auto"):
            assert cmc(
                self.database(), 2, 3, 5.0, match_kernel=kernel
            ) == expected
