"""Tests for the candidate-match join (``repro.core.candidates``).

Four layers of proof:

* kernel equivalence — hypothesis and seeded-random properties holding
  the owner join equal to the pairwise reference on disjoint and
  overlapping cluster families, with int and str ids, empty inputs,
  full-population candidates (the whole-match shortcut), scan lists in
  any order, and the per-bucket split the sharded tracker makes;
* the owner table's scope — it covers the scanned clusters only, so an
  overlapping cluster no job scans must not force the pairwise
  fallback, while an overlapping scanned pair must;
* selection — ``match_candidates`` takes the owner join exactly when
  ``pairs >= OWNER_JOIN_MIN_FAN × jobs`` (fan 15 vs 16), and the module
  constant is the one seam that forces a path;
* the removed knob — ``match_kernel=`` is rejected by the miner,
  ``mine_stream``, ``cmc()`` and both trackers, and identical convoys
  come out of every forced path on every transport.
"""

import ast
import pickle
import random
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import repro.core.candidates as candidates
from repro.core.candidates import (
    OWNER_JOIN_MIN_FAN,
    CandidateTracker,
    match_candidates,
    match_owner_join,
    match_pairwise,
    match_plan_stats,
)
from repro.core.cmc import cmc
from repro.streaming import (
    ShardedCandidateTracker,
    StreamingConvoyMiner,
    churn_stream,
    mine_stream,
)
from repro.trajectory.database import TrajectoryDatabase
from repro.trajectory.trajectory import Trajectory

#: ``OWNER_JOIN_MIN_FAN`` values that force one path in-process.
FORCED = {"pairwise": float("inf"), "owner": 0}


def random_match_case(rng, ids="int", family=None):
    """One random matching instance over int or str object ids.

    ``family`` picks ``"disjoint"`` (the DBSCAN shape) or
    ``"overlapping"`` clusters; None draws one.
    """
    size = rng.randrange(1, 80)
    if ids == "str":
        universe = [f"obj{i}" for i in range(size)]
    else:
        universe = list(range(size))
    n_clusters = rng.randrange(0, 8)
    if family is None:
        family = "overlapping" if rng.random() < 0.4 else "disjoint"
    if family == "overlapping":
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
            objects = frozenset(universe)  # full population: whole matches
        else:
            objects = frozenset(
                rng.sample(universe, rng.randrange(0, min(15, size + 1)))
            )
        if members and rng.random() < 0.5:
            scan = tuple(rng.sample(
                range(len(members)), rng.randrange(0, len(members) + 1)
            ))
            if rng.random() < 0.5:
                scan = tuple(sorted(scan))
        else:
            scan = None
        jobs.append((pos, objects, scan))
    return members, jobs, rng.randrange(1, 5)


def assert_kernels_agree(members, jobs, m):
    expected = match_pairwise(members, jobs, m)
    assert match_owner_join(members, jobs, m) == expected
    assert match_candidates(members, jobs, m) == expected
    return expected


class TestOwnerJoinEqualsReference:
    @settings(max_examples=150, deadline=None)
    @given(st.randoms(use_true_random=False), st.sampled_from(["int", "str"]))
    def test_random_families(self, rng, ids):
        assert_kernels_agree(*random_match_case(rng, ids))

    @pytest.mark.parametrize("family", ["disjoint", "overlapping"])
    @pytest.mark.parametrize("ids", ["int", "str"])
    def test_seeded_families(self, ids, family):
        rng = random.Random(f"{ids}-{family}")
        for _ in range(200):
            assert_kernels_agree(*random_match_case(rng, ids, family))

    def test_no_jobs(self):
        assert assert_kernels_agree([frozenset({1, 2})], [], 1) == []

    def test_no_clusters(self):
        jobs = [(3, frozenset({"a"}), None), (7, frozenset(), ())]
        assert assert_kernels_agree([], jobs, 1) == [(3, []), (7, [])]

    def test_empty_candidate_matches_nothing(self):
        members = [frozenset({1, 2}), frozenset({3})]
        jobs = [(0, frozenset(), None), (1, frozenset(), (1, 0))]
        assert assert_kernels_agree(members, jobs, 1) == [(0, []), (1, [])]

    def test_empty_scan_matches_nothing(self):
        members = [frozenset({1, 2, 3})]
        jobs = [(0, frozenset({1, 2, 3}), ())]
        assert assert_kernels_agree(members, jobs, 1) == [(0, [])]

    def test_whole_match_is_the_candidates_own_set(self):
        # The candidate lies wholly inside cluster 0: its count equals
        # its size, so the match is the candidate's set itself.
        objects = frozenset({"a", "b"})
        members = [frozenset({"a", "b", "c"}), frozenset({"d"})]
        [(pos, [(index, common)])] = match_owner_join(
            members, [(0, objects, None)], 2
        )
        assert (pos, index, common) == (0, 0, objects)
        assert common is objects

    def test_partial_match_is_the_intersection(self):
        objects = frozenset({"a", "b", "z"})
        members = [frozenset({"a", "b", "c"})]
        assert match_owner_join(members, [(0, objects, None)], 2) == [
            (0, [(0, frozenset({"a", "b"}))])
        ]

    def test_full_population_candidate(self):
        universe = frozenset(range(40))
        members = [frozenset(range(5, 40)), frozenset(range(5))]
        expected = [(0, [(0, frozenset(range(5, 40))),
                         (1, frozenset(range(5)))])]
        assert assert_kernels_agree(members, [(0, universe, None)], 1) == (
            expected
        )

    @pytest.mark.parametrize("scan", [(0, 1, 2), (2, 0, 1), (1, 2)])
    def test_matches_follow_scan_order(self, scan):
        # One candidate split across three clusters: its matches list
        # the clusters in the order its scan names them.
        members = [frozenset({1, 2}), frozenset({3, 4}), frozenset({5, 6})]
        objects = frozenset(range(1, 7))
        [(_pos, matches)] = assert_kernels_agree(
            members, [(0, objects, scan)], 2
        )
        assert [index for index, _common in matches] == list(scan)

    def test_hits_outside_a_jobs_scan_are_dropped(self):
        # The owner table covers the union of every job's scan; a job
        # must still only match the clusters its own scan names.
        members = [frozenset({1, 2}), frozenset({3, 4})]
        jobs = [(0, frozenset({1, 2, 3, 4}), (0,)),
                (1, frozenset({1, 2, 3, 4}), (1,))]
        assert assert_kernels_agree(members, jobs, 2) == [
            (0, [(0, frozenset({1, 2}))]),
            (1, [(1, frozenset({3, 4}))]),
        ]

    def test_bucket_split(self):
        # The sharded tracker splits one tick's jobs into shard buckets
        # and each worker joins its own bucket; together the buckets
        # must answer exactly like the unsharded join.
        rng = random.Random(23)
        for _ in range(100):
            members, jobs, m = random_match_case(rng)
            expected = match_pairwise(members, jobs, m)
            buckets = ([], [], [])
            for job in jobs:
                buckets[rng.randrange(3)].append(job)
            out = []
            for bucket in buckets:
                out.extend(match_owner_join(members, bucket, m))
            assert sorted(out, key=lambda pair: pair[0]) == expected


def forbid_fallback(monkeypatch):
    """Make the pairwise fallback raise inside the owner join."""
    def refuse(*_args):
        raise AssertionError("owner join fell back to the pairwise kernel")

    monkeypatch.setattr(candidates, "match_pairwise", refuse)


class TestOwnerTableScope:
    def test_unscanned_overlap_keeps_the_owner_join(self, monkeypatch):
        # Clusters 1 and 2 overlap on object 5, but no job scans
        # cluster 2: the owner table never sees the overlap.
        members = [frozenset({1, 2, 3}), frozenset({4, 5}),
                   frozenset({5, 6})]
        jobs = [(0, frozenset({1, 2, 4, 5}), (0, 1)),
                (1, frozenset({4, 5}), (1,))]
        expected = match_pairwise(members, jobs, 2)
        forbid_fallback(monkeypatch)
        assert match_owner_join(members, jobs, 2) == expected

    @pytest.mark.parametrize("jobs", [
        [(0, frozenset({1, 2, 3, 4, 5}), (1, 2))],
        # The overlap sits outside the first job's scan, but the second
        # job scans every cluster, so the owner table covers it.
        [(0, frozenset({1, 2}), (0,)), (1, frozenset({3, 4, 5}), None)],
    ], ids=["scan-list", "full-scan"])
    def test_scanned_overlap_falls_back(self, monkeypatch, jobs):
        members = [frozenset({1, 2}), frozenset({3, 4}), frozenset({4, 5})]
        expected = match_pairwise(members, jobs, 2)
        calls = []

        def recording(*args):
            calls.append(args)
            return expected

        monkeypatch.setattr(candidates, "match_pairwise", recording)
        assert match_owner_join(members, jobs, 2) == expected
        assert len(calls) == 1

    def test_disjoint_family_never_falls_back(self, monkeypatch):
        rng = random.Random(5)
        cases = [random_match_case(rng, family="disjoint")
                 for _ in range(50)]
        expected = [match_pairwise(*case) for case in cases]
        forbid_fallback(monkeypatch)
        assert [match_owner_join(*case) for case in cases] == expected


def fan_jobs(fan, n_jobs=4, n_clusters=40):
    """Jobs that each scan exactly ``fan`` of ``n_clusters`` clusters."""
    members = [frozenset({2 * i, 2 * i + 1}) for i in range(n_clusters)]
    jobs = [(pos, frozenset({0, 1, 2}), tuple(range(fan)))
            for pos in range(n_jobs)]
    return members, jobs


def record_paths(monkeypatch):
    """Replace both kernels with recorders; return the call log."""
    ran = []
    for name in ("match_pairwise", "match_owner_join"):
        real = getattr(candidates, name)

        def recorder(*args, _name=name, _real=real):
            ran.append(_name)
            return _real(*args)

        monkeypatch.setattr(candidates, name, recorder)
    return ran


class TestSelection:
    def test_threshold_constant(self):
        assert OWNER_JOIN_MIN_FAN == 16

    @pytest.mark.parametrize("fan, path", [
        (15, "match_pairwise"), (16, "match_owner_join"),
    ])
    def test_fan_picks_the_path(self, monkeypatch, fan, path):
        ran = record_paths(monkeypatch)
        members, jobs = fan_jobs(fan)
        expected = match_pairwise(members, jobs, 2)
        ran.clear()
        assert match_candidates(members, jobs, 2) == expected
        assert ran == [path]

    def test_full_scan_counts_every_cluster(self, monkeypatch):
        ran = record_paths(monkeypatch)
        members, _jobs = fan_jobs(0, n_clusters=16)
        match_candidates(members, [(0, frozenset({0, 1}), None)], 2)
        assert ran == ["match_owner_join"]

    def test_mean_fan_over_mixed_jobs(self, monkeypatch):
        # Fans 30 + 1 = 31 pairs over 2 jobs: below 16 per job.
        ran = record_paths(monkeypatch)
        members, _jobs = fan_jobs(0)
        jobs = [(0, frozenset({0, 1}), tuple(range(30))),
                (1, frozenset({0, 1}), (0,))]
        match_candidates(members, jobs, 2)
        assert ran == ["match_pairwise"]

    @pytest.mark.parametrize("forced", sorted(FORCED))
    def test_module_constant_forces_a_path(self, monkeypatch, forced):
        monkeypatch.setattr(candidates, "OWNER_JOIN_MIN_FAN", FORCED[forced])
        ran = record_paths(monkeypatch)
        for fan in (1, 15, 16, 40):
            members, jobs = fan_jobs(fan)
            match_candidates(members, jobs, 2)
        path = {"pairwise": "match_pairwise", "owner": "match_owner_join"}
        assert set(ran) == {path[forced]}


class TestMatchPlanStats:
    def test_counts_jobs_and_pairs(self):
        members = [frozenset({1}), frozenset({2}), frozenset({3})]
        jobs = [(0, frozenset({1}), None), (1, frozenset({2}), (0, 2)),
                (2, frozenset(), ())]
        stats = match_plan_stats(members, jobs)
        assert (stats.jobs, stats.pairs) == (3, 5)

    def test_empty(self):
        assert match_plan_stats([], []).pairs == 0


@pytest.mark.parametrize("kernel", [
    match_candidates, match_pairwise, match_owner_join,
])
def test_kernels_are_picklable_by_reference(kernel):
    assert pickle.loads(pickle.dumps(kernel)) is kernel


def test_candidates_module_does_not_import_numpy():
    """The join is pure Python: no import in the module names numpy."""
    tree = ast.parse(Path(candidates.__file__).read_text())
    imported = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            imported.update(alias.name for alias in node.names)
        elif isinstance(node, ast.ImportFrom):
            imported.add(node.module or "")
    assert imported
    assert not any(name.split(".")[0] == "numpy" for name in imported)


def tiny_snapshots(n_ticks=12, n_objects=40, seed=3):
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
    return emitted


class TestForcedPathsAgree:
    @pytest.mark.parametrize("transport", [
        dict(), dict(shards=2, executor="serial"),
    ], ids=["unsharded", "serial"])
    @pytest.mark.parametrize("forced", sorted(FORCED))
    def test_miner(self, monkeypatch, forced, transport):
        ticks = tiny_snapshots()
        baseline = run_miner(ticks)
        monkeypatch.setattr(candidates, "OWNER_JOIN_MIN_FAN", FORCED[forced])
        assert run_miner(ticks, **transport) == baseline

    def test_process_transport(self):
        # Spawned workers pick their own path per batch.
        ticks = tiny_snapshots()
        assert run_miner(ticks, shards=2, executor="process") == (
            run_miner(ticks)
        )

    @pytest.mark.parametrize("forced", sorted(FORCED))
    def test_cmc(self, monkeypatch, forced):
        database = TrajectoryDatabase([
            Trajectory("a", [(0.0, float(t), t) for t in range(6)]),
            Trajectory("b", [(1.0, float(t), t) for t in range(6)]),
            Trajectory("c", [(40.0, float(t), t) for t in range(6)]),
        ])
        expected = cmc(database, 2, 3, 5.0)
        assert expected  # the pair a/b is a convoy
        monkeypatch.setattr(candidates, "OWNER_JOIN_MIN_FAN", FORCED[forced])
        assert cmc(database, 2, 3, 5.0) == expected


class TestMatchKernelKnobRemoved:
    def test_miner(self):
        with pytest.raises(TypeError, match="match_kernel"):
            StreamingConvoyMiner(2, 3, 10.0, match_kernel="bitset")

    def test_mine_stream(self):
        with pytest.raises(TypeError, match="match_kernel"):
            mine_stream([], 2, 3, 10.0, match_kernel="auto")

    def test_cmc(self):
        database = TrajectoryDatabase([
            Trajectory("a", [(0.0, float(t), t) for t in range(4)]),
        ])
        with pytest.raises(TypeError, match="match_kernel"):
            cmc(database, 2, 3, 5.0, match_kernel="scalar")

    @pytest.mark.parametrize("kwarg", ["match_kernel", "backend"])
    def test_trackers(self, kwarg):
        with pytest.raises(TypeError, match=kwarg):
            CandidateTracker(2, 3, **{kwarg: "vector"})
        with pytest.raises(TypeError, match=kwarg):
            ShardedCandidateTracker(2, 3, shards=2, **{kwarg: "vector"})
