"""Unit tests for the resident shard transports and the sharding primitives."""

import multiprocessing
import os
import signal
import time

import pytest

from repro.core.candidates import (
    FIXED_MATCH_KERNELS,
    match_candidates,
    resolve_match_kernel,
)
from repro.streaming.executor import (
    BACKENDS,
    ResidentProcessExecutor,
    ResidentProtocolError,
    ResidentSerialExecutor,
    ResidentShardWorker,
    ShardWorkerCrashed,
    resolve_executor,
)
from repro.streaming.sharding import rendezvous_shard

#: Spawned workers re-import this module and must see the import-time
#: value; a fork-started worker would inherit the parent's mutation.
_SPAWN_CANARY = "import-time"


def _worker_identity(_task):
    """Report the worker's process name and the module canary."""
    return multiprocessing.current_process().name, _SPAWN_CANARY


def _batches(shards=(0, 1)):
    """One init + one step per shard: the protocol's real message shapes."""
    members = [frozenset({"a", "b", "c"}), frozenset({"d", "e", "f"})]
    out = []
    for shard in shards:
        out.append((shard, [
            ("init", 2, "python",
             [(10 + shard, frozenset({"a", "b", "x"})),
              (20 + shard, frozenset({"d", "e"}))]),
            ("step", members,
             (("put", 30 + shard, frozenset({"a", "c"})),
              ("drop", 20 + shard)),
             ((0, 10 + shard, None), (1, 30 + shard, (0,)))),
        ]))
    return out


#: Expected step responses for :func:`_batches` (shard-independent).
_EXPECTED_STEP = ((0, (0,)), (1, (0,)))


def _population_batches(shards):
    """One ``init`` per shard whose population names the shard, so
    the response order shows which worker answered which batch."""
    return [
        (shard, [("init", 2, "python", [
            (100 * shard + i, frozenset({f"o{shard}-{i}", "x"}))
            for i in range(shard + 1)
        ])])
        for shard in shards
    ]


class TestBackendsBehaveIdentically:
    """Both transports honour the same ``run`` contract: responses in
    batch order, nothing for nothing, worker errors surfaced as the
    protocol's own exception, and ``close`` idempotent and reusable."""

    @pytest.mark.parametrize("name", BACKENDS)
    def test_run_preserves_batch_order(self, name):
        backend = resolve_executor(name)
        try:
            responses = backend.run(_population_batches((2, 0, 1)))
            assert responses == [[("ok", 3)], [("ok", 1)], [("ok", 2)]]
            # A second run on the same backend reaches the same workers.
            assert backend.run([(1, [("snapshot",)]),
                                (2, [("snapshot",)])]) == [
                [{100: frozenset({"o1-0", "x"}),
                  101: frozenset({"o1-1", "x"})}],
                [{200: frozenset({"o2-0", "x"}),
                  201: frozenset({"o2-1", "x"}),
                  202: frozenset({"o2-2", "x"})}],
            ]
        finally:
            backend.close()

    @pytest.mark.parametrize("name", BACKENDS)
    def test_empty_batch_list(self, name):
        backend = resolve_executor(name)
        try:
            assert backend.run([]) == []
            # Nothing to run starts no worker.
            assert not backend.alive
            # A shard with no messages answers with no responses.
            assert backend.run([(0, [])]) == [[]]
        finally:
            backend.close()

    @pytest.mark.parametrize("name", BACKENDS)
    def test_worker_exception_propagates(self, name):
        """A reconciliation bug surfaces as ResidentProtocolError on both
        transports (the process one pickles it back) — never as a crash
        — and the worker keeps its state and its generation."""
        backend = resolve_executor(name)
        try:
            backend.run(_population_batches((0,)))
            gen = backend.generation(0)
            with pytest.raises(ResidentProtocolError,
                               match="drop for unknown chain 7"):
                backend.run([(0, [("step", (), (("drop", 7),), ())])])
            assert backend.generation(0) == gen
            assert backend.run([(0, [("snapshot",)])]) == [
                [{0: frozenset({"o0-0", "x"})}]
            ]
        finally:
            backend.close()

    @pytest.mark.parametrize("name", BACKENDS)
    def test_close_is_idempotent_and_reusable(self, name):
        backend = resolve_executor(name)
        backend.run(_population_batches((0,)))
        gen = backend.generation(0)
        backend.close()
        backend.close()
        assert not backend.alive
        # A closed backend rebuilds its worker on reuse, stateless and
        # under a fresh generation, so the tracker re-seeds it.
        try:
            assert backend.generation(0) > gen
            with pytest.raises(ResidentProtocolError, match="before init"):
                backend.run([(0, [("step", [frozenset({"a", "b"})], (),
                                   ((0, 1, None),))])])
            assert backend.run(_batches(shards=(0,))) == [
                [("ok", 2), _EXPECTED_STEP]
            ]
        finally:
            backend.close()

    @pytest.mark.parametrize("kernel", sorted(FIXED_MATCH_KERNELS))
    def test_match_kernel_crosses_the_process_boundary(self, kernel):
        """A step naming a fixed kernel answers identically in a spawned
        worker, in the serial twin, and in the direct kernel call."""
        members = [frozenset({"a", "b", "c"}), frozenset({"d", "e"}),
                   frozenset({"a", "d", "e", "f"})]
        chains = [(1, frozenset({"a", "b"})), (2, frozenset({"d", "e"})),
                  (3, frozenset({"a", "f", "z"}))]
        jobs = ((0, 1, None), (1, 2, (1, 2)), (2, 3, None))
        objects = dict(chains)
        direct = tuple(
            (pos, tuple(index for index, _common in matches))
            for pos, matches in match_candidates(
                members, [(pos, objects[chain], scan)
                          for pos, chain, scan in jobs], 2,
            )
        )
        batches = [(0, [("init", 2, "python", chains),
                        ("step", members, (), jobs, kernel)])]
        answers = []
        for name in BACKENDS:
            backend = resolve_executor(name)
            try:
                [[_ok, step]] = backend.run(batches)
            finally:
                backend.close()
            answers.append(step)
        assert answers == [direct, direct]


class TestResidentShardWorker:
    def test_protocol_round_trip(self):
        worker = ResidentShardWorker()
        [(_, messages)] = _batches(shards=(0,))
        assert worker.handle(messages[0]) == ("ok", 2)
        assert worker.handle(messages[1]) == _EXPECTED_STEP
        assert worker.handle(("snapshot",)) == {
            10: frozenset({"a", "b", "x"}),
            30: frozenset({"a", "c"}),
        }
        pid, name, kernel, population = worker.handle(("probe",))
        assert pid == os.getpid()
        assert kernel == resolve_match_kernel("python").__name__
        assert population == 2

    def test_init_replaces_state_wholesale(self):
        worker = ResidentShardWorker()
        worker.handle(("init", 2, "python", [(1, frozenset({"a", "b"}))]))
        worker.handle(("init", 2, "python", [(2, frozenset({"c", "d"}))]))
        assert worker.handle(("snapshot",)) == {2: frozenset({"c", "d"})}

    def test_strict_validation(self):
        worker = ResidentShardWorker()
        with pytest.raises(ResidentProtocolError, match="before init"):
            worker.handle(("step", [frozenset({"a", "b"})], (),
                           ((0, 1, None),)))
        worker.handle(("init", 2, "python", []))
        with pytest.raises(ResidentProtocolError, match="unknown chain"):
            worker.handle(("step", (), (("drop", 7),), ()))
        with pytest.raises(ResidentProtocolError, match="unknown chain"):
            worker.handle(("step", [frozenset({"a", "b"})], (),
                           ((0, 99, None),)))
        with pytest.raises(ResidentProtocolError, match="unknown delta op"):
            worker.handle(("step", (), (("merge", 1, 2),), ()))
        with pytest.raises(ResidentProtocolError, match="unknown resident"):
            worker.handle(("rebalance",))


class TestResidentTransports:
    @pytest.mark.parametrize("name", BACKENDS)
    def test_transports_agree_on_the_protocol(self, name):
        backend = resolve_executor(name)
        try:
            responses = backend.run(_batches())
        finally:
            backend.close()
        assert responses == [
            [("ok", 2), _EXPECTED_STEP],
            [("ok", 2), _EXPECTED_STEP],
        ]

    @pytest.mark.parametrize("name", BACKENDS)
    def test_state_persists_across_runs(self, name):
        backend = resolve_executor(name)
        try:
            backend.run([(0, [("init", 2, "python",
                               [(1, frozenset({"a", "b"}))])])])
            [[snapshot]] = backend.run([(0, [("snapshot",)])])
            assert snapshot == {1: frozenset({"a", "b"})}
        finally:
            backend.close()

    @pytest.mark.parametrize("name", BACKENDS)
    def test_generation_bumps_on_restart_and_close(self, name):
        backend = resolve_executor(name)
        try:
            gen = backend.generation(3)
            assert backend.generation(3) == gen
            backend.restart(3)
            assert backend.generation(3) == gen + 1
            backend.close()
            assert backend.generation(3) == gen + 2
        finally:
            backend.close()

    @pytest.mark.parametrize("name", BACKENDS)
    def test_restart_discards_only_that_shard(self, name):
        backend = resolve_executor(name)
        try:
            backend.run(_population_batches((0, 1)))
            backend.restart(0)
            # Shard 1 keeps its state; shard 0 comes back empty.
            assert backend.run([(1, [("snapshot",)])]) == [
                [{100: frozenset({"o1-0", "x"}),
                  101: frozenset({"o1-1", "x"})}]
            ]
            assert backend.run([(0, [("snapshot",)])]) == [[{}]]
        finally:
            backend.close()


class TestResolveExecutor:
    def test_none_and_serial_resolve_to_serial(self):
        assert isinstance(resolve_executor(None), ResidentSerialExecutor)
        assert isinstance(resolve_executor("serial"), ResidentSerialExecutor)

    def test_names_resolve(self):
        assert BACKENDS == ("serial", "process")
        assert isinstance(resolve_executor("process"),
                          ResidentProcessExecutor)
        for name in BACKENDS:
            assert resolve_executor(name).name == name

    def test_each_resolve_is_a_fresh_transport(self):
        """Two miners naming the same transport never share workers."""
        for name in BACKENDS:
            assert resolve_executor(name) is not resolve_executor(name)

    def test_custom_backend_passes_through(self):
        class Custom:
            def run(self, batches):
                return []

            def generation(self, shard):
                return 0

            def close(self):
                pass

        custom = Custom()
        assert resolve_executor(custom) is custom

    def test_map_shaped_backend_rejected(self):
        """A map-shaped (stateless) backend is not a resident transport."""
        class MapShaped:
            def map(self, fn, tasks):
                return [fn(t) for t in tasks]

            def close(self):
                pass

        with pytest.raises(ValueError, match="executor"):
            resolve_executor(MapShaped())

    @pytest.mark.parametrize("spec", ["thread", "gpu", 42])
    def test_unknown_spec_rejected(self, spec):
        with pytest.raises(ValueError, match="executor"):
            resolve_executor(spec)


class TestProcessExecutorContext:
    def test_explicit_context_accepted(self):
        for context in ("spawn", multiprocessing.get_context("spawn")):
            backend = ResidentProcessExecutor(mp_context=context)
            try:
                assert repr(context) in repr(backend)
                assert backend.run(_population_batches((0,))) == [
                    [("ok", 1)]
                ]
            finally:
                backend.close()

    def test_alive_tracks_pool_lifetime(self):
        backend = ResidentProcessExecutor()
        assert not backend.alive
        backend.generation(0)
        assert backend.alive
        backend.restart(0)
        assert not backend.alive
        backend.run(_population_batches((0,)))
        assert backend.alive
        backend.close()
        assert not backend.alive

    def test_one_named_process_per_shard(self):
        """Shard affinity: each shard's messages reach its own process,
        named after the shard; restarting one shard replaces only its
        process."""
        backend = ResidentProcessExecutor()
        try:
            backend.run(_population_batches((0, 1)))
            pid0, name0, _kernel, population0 = backend.probe(0)
            pid1, name1, _kernel, population1 = backend.probe(1)
            assert len({pid0, pid1, os.getpid()}) == 3
            assert (name0, name1) == ("repro-resident-shard-0",
                                      "repro-resident-shard-1")
            assert (population0, population1) == (1, 2)
            backend.restart(0)
            assert backend.probe(0)[0] not in (pid0, pid1)
            assert backend.probe(1)[0] == pid1
        finally:
            backend.close()


class TestResidentProcessExecutor:
    """The spawned per-shard pools: state residency, kernel resolution
    from the backend *name*, crash semantics.  One class so the
    expensive pool startups stay few."""

    def test_state_resides_in_a_named_spawned_worker(self):
        global _SPAWN_CANARY
        backend = ResidentProcessExecutor()
        before = _SPAWN_CANARY
        _SPAWN_CANARY = "parent-mutated"
        try:
            backend.run([(0, [("init", 2, "vector",
                               [(1, frozenset({"a", "b"}))])])])
            # The pool pins an explicit spawn context (never the
            # platform default): the worker must report the module's
            # import-time canary — a fork child would inherit the
            # parent's mutation.
            name, canary = backend._pool(0).submit(
                _worker_identity, None
            ).result()
            assert (name, canary) == ("repro-resident-shard-0",
                                      "import-time")
            pid, name, kernel, population = backend.probe(0)
            # Real process residency, not an in-process fallback.
            assert pid != os.getpid()
            assert name == "repro-resident-shard-0"
            # The worker resolved its kernel from the backend name
            # shipped in init — the spawned process imported and chose
            # the vector kernel itself (nothing callable was pickled).
            assert kernel == resolve_match_kernel("vector").__name__
            assert population == 1
            # Same worker, same state, next round trip.
            [[snapshot]] = backend.run([(0, [("snapshot",)])])
            assert snapshot == {1: frozenset({"a", "b"})}
        finally:
            backend.close()
            _SPAWN_CANARY = before
        assert not backend.alive

    def test_worker_crash_is_named_and_recoverable(self):
        backend = ResidentProcessExecutor()
        try:
            gen = backend.generation(0)
            backend.run([(0, [("init", 2, "python",
                               [(1, frozenset({"a", "b"}))])])])
            pid, _name, _kernel, _population = backend.probe(0)
            os.kill(pid, signal.SIGKILL)
            deadline = time.monotonic() + 30.0
            with pytest.raises(ShardWorkerCrashed, match="shard 0") as info:
                backend.run([(0, [("snapshot",)])])
            # Promptly, not a hang (generous CI allowance).
            assert time.monotonic() < deadline
            assert info.value.shard == 0
            # The broken pool is gone; close still succeeds.
            backend.close()
            # A fresh use rebuilds the pool under a new generation, so
            # the tracker knows to re-seed the worker's state.
            assert backend.generation(0) > gen
            responses = backend.run(_batches(shards=(0,)))
            assert responses == [[("ok", 2), _EXPECTED_STEP]]
        finally:
            backend.close()


class TestRendezvousShard:
    def test_deterministic_and_in_range(self):
        for n in (1, 2, 3, 8):
            for key in range(50):
                shard = rendezvous_shard(key, n)
                assert 0 <= shard < n
                assert shard == rendezvous_shard(key, n)

    def test_spreads_keys(self):
        hit = {rendezvous_shard(key, 4) for key in range(100)}
        assert hit == {0, 1, 2, 3}

    def test_minimal_movement_on_resize(self):
        """Growing n -> n+1 only moves keys the new shard wins."""
        keys = list(range(300))
        before = {key: rendezvous_shard(key, 4) for key in keys}
        after = {key: rendezvous_shard(key, 5) for key in keys}
        moved = [key for key in keys if before[key] != after[key]]
        # Every moved key must have moved *to* the new shard.
        assert all(after[key] == 4 for key in moved)
        # And roughly 1/5 of keys move (loose bound against regressions).
        assert len(moved) < len(keys) // 2

    def test_rejects_bad_shard_count(self):
        with pytest.raises(ValueError, match="n_shards"):
            rendezvous_shard("key", 0)
