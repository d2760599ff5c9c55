"""The service's differential proof.

For every tenant, the service's answer — convoys, the miner's counter
dict, and (when persistence is on) the store's contents — must be
**bit-for-bit** what driving the same miner configuration directly over
the same arrival sequence produces.  Concurrency may change the
schedule; it must never change the answer.

Eight tenants run concurrently over one connection with interleaved
feed batches, spanning ≥2 pipelines (full-pass and incremental
clustering, plus sharded and vector-backend variants), both candidate
semantics, jittered feeds through reorder buffers, and per-tenant
SQLite stores — each against its own distinct seeded workload.
"""

import asyncio

from repro.core.verification import normalize_convoys
from repro.service import IngestionServer, ServiceClient
from repro.service.protocol import encode_convoy
from repro.store import SQLiteConvoyStore
from repro.streaming import (
    StreamingConvoyMiner,
    churn_stream,
    jitter_ticks,
    synthetic_stream,
)

EPS = 2.5

#: tenant -> (miner config sans store, jitter).  Two pipelines (full +
#: incremental), both semantics, jittered feeds, shards, and the vector
#: backend; four tenants persist to per-tenant stores.
TENANTS = {
    "full": (dict(m=3, k=3, eps=EPS), 0),
    "paper": (dict(m=3, k=3, eps=EPS, paper_semantics=True), 0),
    "incremental": (dict(m=3, k=3, eps=EPS, clusterer="incremental"), 0),
    "incremental-paper": (
        dict(m=3, k=3, eps=EPS, clusterer="incremental",
             paper_semantics=True),
        0,
    ),
    "jittered": (
        dict(m=3, k=3, eps=EPS, reorder={"allowed_lateness": 3}), 3,
    ),
    "jittered-incremental": (
        dict(m=3, k=4, eps=EPS, clusterer="incremental",
             paper_semantics=True, reorder={"allowed_lateness": 2}),
        2,
    ),
    "sharded": (dict(m=3, k=3, eps=EPS, shards=2), 0),
    "vector": (dict(m=2, k=4, eps=EPS, backend="vector"), 0),
}

STORED_TENANTS = ("full", "paper", "jittered-incremental", "vector")

#: The separate-connection proof adds a tenant whose shard workers run
#: on the process transport (one spawned worker per shard).
PROCESS_TENANTS = dict(
    TENANTS,
    **{"sharded-process": (
        dict(m=3, k=3, eps=EPS, shards=2, executor="process"), 0,
    )},
)


def tenant_feed(index, name, jitter):
    """Each tenant's own deterministic arrival sequence."""
    if index % 2:
        ticks = list(churn_stream(
            n_objects=14, n_snapshots=24, seed=100 + index, eps=EPS,
            churn=0.2, turnover=0.08, area=30.0,
        ))
    else:
        ticks = list(synthetic_stream(
            14, 24, seed=100 + index, eps=EPS,
        ))
    if jitter:
        ticks = list(jitter_ticks(ticks, jitter, seed=index))
    return ticks


def direct_answer(config, ticks, store_path=None):
    """Drive the same miner directly; return the service-shaped answer."""
    counters = {}
    miner = StreamingConvoyMiner(
        counters=counters, store=store_path, **config
    )
    convoys = []
    with miner:
        for t, snapshot in ticks:
            convoys.extend(miner.feed(t, snapshot))
        convoys.extend(miner.flush())
    return {
        "convoys": [
            encode_convoy(c) for c in normalize_convoys(convoys)
        ],
        "counters": counters,
    }


class TestDifferential:
    def test_eight_concurrent_tenants_match_direct_runs(self, tmp_path):
        names = list(TENANTS)
        feeds = {
            name: tenant_feed(i, name, TENANTS[name][1])
            for i, name in enumerate(names)
        }
        configs = {}
        for name in names:
            config = dict(TENANTS[name][0])
            if name in STORED_TENANTS:
                config["store"] = str(tmp_path / f"{name}.service.db")
            configs[name] = config

        async def run():
            answers = {}
            async with IngestionServer(max_workers=4) as server:
                async with ServiceClient(
                    "127.0.0.1", server.port
                ) as client:
                    for name in names:
                        await client.hello(name, configs[name])
                    # Interleave small batches across all tenants so
                    # the dispatcher genuinely multiplexes them.
                    longest = max(len(f) for f in feeds.values())
                    for start in range(0, longest, 4):
                        for name in names:
                            chunk = feeds[name][start:start + 4]
                            if chunk:
                                await client.feed(name, chunk)
                    for name in names:
                        answers[name] = await client.flush(name)
            return answers

        answers = asyncio.run(run())

        for name in names:
            config = dict(TENANTS[name][0])
            store_path = None
            if name in STORED_TENANTS:
                store_path = str(tmp_path / f"{name}.direct.db")
            want = direct_answer(config, feeds[name], store_path)
            got = answers[name]
            assert got["convoys"] == want["convoys"], name
            assert got["counters"] == want["counters"], name
            assert got["counters"]["snapshots"] == len(feeds[name]), name
            if name in STORED_TENANTS:
                with SQLiteConvoyStore(
                    tmp_path / f"{name}.service.db"
                ) as via_service, SQLiteConvoyStore(
                    tmp_path / f"{name}.direct.db"
                ) as via_direct:
                    service_rows = via_service.all_convoys()
                    assert service_rows == via_direct.all_convoys(), name
                    for convoy in service_rows:
                        assert via_service.bbox_of(
                            convoy
                        ) == via_direct.bbox_of(convoy), name

    def test_differential_holds_across_separate_connections(self, tmp_path):
        """Same proof with each tenant on its own connection — the
        multi-client shape the CLI service actually serves."""
        names = ["full", "incremental", "jittered", "sharded",
                 "sharded-process"]
        feeds = {
            name: tenant_feed(i, name, PROCESS_TENANTS[name][1])
            for i, name in enumerate(names)
        }

        async def drive(server, name):
            async with ServiceClient("127.0.0.1", server.port) as client:
                await client.hello(name, dict(PROCESS_TENANTS[name][0]))
                for start in range(0, len(feeds[name]), 6):
                    await client.feed(
                        name, feeds[name][start:start + 6]
                    )
                    await asyncio.sleep(0)  # yield between batches
                return await client.flush(name)

        async def run():
            async with IngestionServer(max_workers=3) as server:
                results = await asyncio.gather(
                    *(drive(server, name) for name in names)
                )
            return dict(zip(names, results))

        answers = asyncio.run(run())
        for name in names:
            want = direct_answer(dict(PROCESS_TENANTS[name][0]), feeds[name])
            assert answers[name]["convoys"] == want["convoys"], name
            assert answers[name]["counters"] == want["counters"], name
