"""Unit and integration suite for the ingestion service.

Everything runs in-process: an :class:`~repro.service.IngestionServer`
on a loopback socket, driven by
:class:`~repro.service.client.ServiceClient` inside ``asyncio.run``
(the test extra has no async plugin, so every test is a sync function
owning its own event loop).

Covers the session/dispatcher mechanics (credit-based backpressure,
least-recently-served fairness, error isolation, the idle-drain seam)
and the service-level counter contract (aggregation across tenants;
no counter aliasing between sessions).
"""

import asyncio

import pytest

from repro.service import (
    IngestionServer,
    ProtocolError,
    ServiceClient,
    ServiceError,
    TenantSession,
    build_miner,
)
from repro.service.protocol import encode, encode_snapshot
from repro.streaming import synthetic_stream

CFG = {"m": 3, "k": 3, "eps": 2.5}


def feed_ticks(n_objects=12, n_snapshots=12, seed=3, eps=2.5):
    return list(synthetic_stream(n_objects, n_snapshots, seed=seed, eps=eps))


class TestBuildMiner:
    def test_unknown_key_rejected(self):
        with pytest.raises(ProtocolError, match="unknown config key"):
            build_miner(dict(CFG, bogus=1))
        # The resident knob is gone: every sharded miner is resident.
        with pytest.raises(ProtocolError, match="unknown config key"):
            build_miner(dict(CFG, shards=2, resident=True))

    def test_missing_required_key_rejected(self):
        with pytest.raises(ProtocolError, match="missing required key 'eps'"):
            build_miner({"m": 3, "k": 3})

    def test_bad_miner_parameters_rejected(self):
        with pytest.raises(ProtocolError, match="bad miner config"):
            build_miner(dict(CFG, eps=-1.0))
        with pytest.raises(ProtocolError, match="bad miner config"):
            build_miner(dict(CFG, executor="serial"))  # executor sans shards
        with pytest.raises(ProtocolError, match="bad miner config"):
            build_miner(dict(CFG, shards=2, executor="thread"))

    def test_bad_service_knobs_rejected(self):
        with pytest.raises(ProtocolError, match="tick_delay"):
            build_miner(dict(CFG, tick_delay=-0.5))
        with pytest.raises(ProtocolError, match="max_queue"):
            build_miner(dict(CFG, max_queue=0))

    def test_non_dict_config_rejected(self):
        with pytest.raises(ProtocolError, match="must be an object"):
            build_miner([1, 2])


class TestSessionBackpressure:
    def test_enqueue_waits_at_the_high_water_mark(self):
        async def run():
            miner, _, _ = build_miner(CFG)
            session = TenantSession("a", miner, max_queue=2)
            await session.enqueue(0, {})
            await session.enqueue(1, {})
            blocked = asyncio.ensure_future(session.enqueue(2, {}))
            await asyncio.sleep(0.02)
            assert not blocked.done(), "third enqueue should be throttled"
            assert session.service_counters["throttled_waits"] == 1
            # Draining below the mark grants credit and unblocks it.
            session.pop_step()
            session.grant_credit()
            await asyncio.wait_for(blocked, timeout=2)
            assert len(session) == 2
            assert session.service_counters["peak_queue"] == 2
            session.abort_sync()
        asyncio.run(run())

    def test_abort_releases_a_throttled_writer(self):
        async def run():
            miner, _, _ = build_miner(CFG)
            session = TenantSession("a", miner, max_queue=1)
            await session.enqueue(0, {})
            blocked = asyncio.ensure_future(session.enqueue(1, {}))
            await asyncio.sleep(0.02)
            session.abort_sync("gone")
            with pytest.raises(ProtocolError, match="failed: gone"):
                await asyncio.wait_for(blocked, timeout=2)
        asyncio.run(run())


class TestDispatcherFairness:
    def test_least_recently_served_alternates_under_one_worker(self):
        from repro.service.dispatcher import Dispatcher

        order = []

        class Spy(TenantSession):
            def step_sync(self, kind, t, snapshot):
                if kind == "tick":
                    order.append(self.tenant)
                return super().step_sync(kind, t, snapshot)

        async def run():
            dispatcher = Dispatcher(max_workers=1)
            dispatcher.start()
            sessions = []
            for name in ("a", "b", "c"):
                miner, _, _ = build_miner({"m": 2, "k": 2, "eps": 1.0})
                session = Spy(name, miner, max_queue=16)
                for t in range(4):
                    await session.enqueue(t, {"x": (0.0, 0.0)})
                sessions.append(session)
            for session in sessions:
                dispatcher.notify(session)
            while any(len(s) or s.in_flight for s in sessions):
                await asyncio.sleep(0.01)
            await dispatcher.stop()
            for session in sessions:
                session.abort_sync()
        asyncio.run(run())
        # With every queue pre-filled and one worker, LRS is exact
        # round-robin: each tenant appears once per consecutive triple.
        assert len(order) == 12
        for i in range(0, 12, 3):
            assert set(order[i:i + 3]) == {"a", "b", "c"}, order


class TestServiceEndToEnd:
    def test_two_tenants_one_connection(self):
        ticks = feed_ticks()

        async def run():
            async with IngestionServer(max_workers=2) as server:
                async with ServiceClient("127.0.0.1", server.port) as client:
                    await client.hello("a", CFG)
                    await client.hello("b", dict(CFG, backend="vector"))
                    for start in range(0, len(ticks), 5):
                        chunk = ticks[start:start + 5]
                        await client.feed("a", chunk)
                        await client.feed("b", chunk)
                    first = await client.flush("a")
                    second = await client.flush("b")
                return first, second, server.aggregate()

        first, second, totals = asyncio.run(run())
        assert first["convoys"] == second["convoys"]
        assert first["counters"]["snapshots"] == len(ticks)
        assert totals["tenants"] == 2
        assert totals["ticks"] == 2 * len(ticks)
        assert totals["failed_steps"] == 0

    def test_duplicate_tenant_rejected(self):
        async def run():
            async with IngestionServer() as server:
                async with ServiceClient("127.0.0.1", server.port) as client:
                    await client.hello("a", CFG)
                    with pytest.raises(ServiceError, match="already open"):
                        await client.hello("a", CFG)
        asyncio.run(run())

    def test_unknown_tenant_rejected(self):
        async def run():
            async with IngestionServer() as server:
                async with ServiceClient("127.0.0.1", server.port) as client:
                    with pytest.raises(ServiceError, match="unknown tenant"):
                        await client.flush("ghost")
        asyncio.run(run())

    def test_bad_config_fails_only_the_hello(self):
        async def run():
            async with IngestionServer() as server:
                async with ServiceClient("127.0.0.1", server.port) as client:
                    with pytest.raises(ServiceError, match="bad miner config"):
                        await client.hello("a", dict(CFG, eps=-2.0))
                    # The connection survives; the name is still free.
                    await client.hello("a", CFG)
                    answer = await client.flush("a")
                    assert answer["convoys"] == []
        asyncio.run(run())

    def test_failed_feed_kills_only_its_session(self):
        async def run():
            async with IngestionServer() as server:
                async with ServiceClient("127.0.0.1", server.port) as client:
                    await client.hello("bad", dict(CFG, m=2, k=2))
                    await client.hello("good", dict(CFG, m=2, k=2))
                    snapshot = {"x": (0.0, 0.0), "y": (0.5, 0.0)}
                    # Disordered feed without a reorder buffer: the
                    # second tick's step raises inside the miner.
                    await client.feed("bad", [(5, snapshot), (3, snapshot)])
                    with pytest.raises(
                        (ServiceError, ConnectionError)
                    ):
                        await client.flush("bad")
                    await client.feed("good", [(0, snapshot), (1, snapshot)])
                    answer = await client.flush("good")
                    assert len(answer["convoys"]) == 1
                    return server.aggregate()
            return None

        totals = asyncio.run(run())
        assert totals["failed_steps"] == 1

    def test_drain_releases_a_capacity_only_buffer(self):
        snapshot = {"x": (0.0, 0.0), "y": (0.5, 0.0)}

        async def run():
            async with IngestionServer() as server:
                async with ServiceClient("127.0.0.1", server.port) as client:
                    config = dict(
                        CFG, m=2, k=2, reorder={"max_pending": 100}
                    )
                    await client.hello("a", config)
                    await client.feed(
                        "a", [(t, snapshot) for t in range(6)]
                    )
                    await client.drain("a")
                    answer = await client.flush("a")
                return answer

        answer = asyncio.run(run())
        # The capacity-only buffer (far below max_pending) would have
        # held every tick; the drain pushed them through.
        assert answer["convoys"] == [
            {"objects": ["x", "y"], "t_start": 0, "t_end": 5}
        ]
        assert answer["service"]["drains"] == 1
        assert answer["counters"]["snapshots"] == 6

    def test_feed_frame_larger_than_asyncio_default_limit(self):
        """One NDJSON frame well past asyncio's 64 KiB readline default
        must survive both directions (regression: the default limit
        truncated large batches and killed the connection)."""
        ticks = feed_ticks(n_objects=60, n_snapshots=80, seed=9)
        frame = encode({
            "type": "feed",
            "tenant": "big",
            "ticks": [[t, encode_snapshot(s)] for t, s in ticks],
        })
        assert len(frame) > 64 * 1024

        async def run():
            async with IngestionServer(max_workers=2) as server:
                async with ServiceClient("127.0.0.1", server.port) as client:
                    await client.hello("big", CFG)
                    await client.feed("big", ticks)  # one frame
                    return await client.flush("big")

        answer = asyncio.run(run())
        assert answer["counters"]["snapshots"] == len(ticks)


class TestCounterContract:
    def test_sessions_never_alias_counter_state(self):
        """Two concurrent sessions: miner counters, service counters,
        and latency logs are all distinct objects (satellite: no
        shared-mutable-default leaks across sessions)."""
        async def run():
            async with IngestionServer() as server:
                async with ServiceClient("127.0.0.1", server.port) as client:
                    await client.hello("a", dict(CFG, m=2, k=2))
                    await client.hello("b", dict(CFG, m=2, k=2))
                    one = server.sessions["a"]
                    two = server.sessions["b"]
                    assert one.miner.counters is not two.miner.counters
                    assert (one.service_counters
                            is not two.service_counters)
                    assert one.latencies is not two.latencies
                    snapshot = {"x": (0.0, 0.0), "y": (0.5, 0.0)}
                    await client.feed("a", [(0, snapshot), (1, snapshot)])
                    first = await client.flush("a")
                    second = await client.flush("b")
                return first, second

        first, second = asyncio.run(run())
        assert first["counters"]["snapshots"] == 2
        assert second["counters"]["snapshots"] == 0
        assert first["service"]["ticks"] == 2
        assert second["service"]["ticks"] == 0

    def test_service_counters_never_leak_into_miner_counters(self):
        ticks = feed_ticks(n_objects=8, n_snapshots=8)

        async def run():
            async with IngestionServer() as server:
                async with ServiceClient("127.0.0.1", server.port) as client:
                    await client.hello("a", CFG)
                    await client.feed("a", ticks)
                    return await client.flush("a")

        answer = asyncio.run(run())
        for key in answer["service"]:
            assert key not in answer["counters"], (
                f"service bookkeeping key {key!r} leaked into the "
                "miner's counters"
            )

    def test_aggregate_sums_finished_and_live_sessions(self):
        ticks = feed_ticks(n_objects=8, n_snapshots=10)

        async def run():
            async with IngestionServer() as server:
                async with ServiceClient("127.0.0.1", server.port) as client:
                    await client.hello("a", CFG)
                    await client.hello("b", CFG)
                    await client.feed("a", ticks)
                    await client.feed("b", ticks[:4])
                    await client.flush("a")  # a finishes; b stays live
                    live = server.sessions["b"]
                    while len(live) or live.in_flight:
                        await asyncio.sleep(0.01)
                    totals = server.aggregate()
                    assert totals["tenants"] == 2
                    assert totals["ticks"] == len(ticks) + 4
                    assert totals["peak_queue"] >= 1
                    await client.flush("b")
                    after = server.aggregate()
                assert after["ticks"] == len(ticks) + 4
                assert after["connections"] == 1
        asyncio.run(run())
