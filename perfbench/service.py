"""The wire run: two tenants on a ``serve`` subprocess over loopback.

It rides along with the traced run of a workload that names it and
gives the ``service.*`` and ``loadgen.*`` per-layer metrics.  One
client process (this one) holds one connection per tenant and runs an
open loop: tenant ``i`` sends its ``j``-th tick, one tick per ``feed``
message, at ``t0 + (j + i / tenants) / rate`` whether or not the server
kept up.  The wire lines are encoded before the loop starts, so the
generator stays on schedule; its own lateness is
``loadgen.lag_p95_ms``.

The server is only seen through the wire protocol
(:mod:`repro.service.protocol`); its answers are checked against a
direct classic run of each tenant's ticks.
"""

from __future__ import annotations

import asyncio
import os
import select
import signal
import subprocess
import sys
from time import perf_counter

from repro.core.verification import normalize_convoys
from repro.service.protocol import (
    STREAM_LIMIT,
    decode,
    decode_convoy,
    encode,
    encode_snapshot,
)
from repro.store import open_store

import workloads as wl
from host import percentile, proc_status_kb

#: Seconds to wait for the server's port line, a reply, or its exit.
TIMEOUT_S = 60.0


class Server:
    """A ``python -m repro.cli serve`` child process."""

    def __init__(self, root, workers, tmp):
        env = dict(os.environ)
        env["PYTHONPATH"] = os.path.join(root, "src")
        self.log = open(os.path.join(tmp, "serve.log"), "ab")
        self.proc = subprocess.Popen(
            [sys.executable, "-m", "repro.cli", "serve",
             "--workers", str(workers), "--port", "0"],
            cwd=root, env=env, stdout=subprocess.PIPE, stderr=self.log,
        )
        ready, _, _ = select.select([self.proc.stdout], [], [], TIMEOUT_S)
        line = self.proc.stdout.readline().decode() if ready else ""
        if not line.startswith("serving on "):
            self.stop()
            raise RuntimeError(f"serve did not start: {line!r}")
        self.port = int(line.split()[2].rsplit(":", 1)[1])

    def peak_rss_mb(self):
        return proc_status_kb("VmHWM", self.proc.pid) / 1024.0

    def stop(self):
        """SIGINT, then wait; returns the exit code (130 is clean)."""
        try:
            if self.proc.poll() is None:
                self.proc.send_signal(signal.SIGINT)
            try:
                self.proc.communicate(timeout=TIMEOUT_S)
            except subprocess.TimeoutExpired:
                self.proc.kill()
                self.proc.communicate()
        finally:
            self.log.close()
        return self.proc.returncode


class Tenant:
    """One tenant's connection, stream and observations."""

    def __init__(self, name, ticks, config):
        self.name = name
        self.ticks = ticks
        self.config = config
        self.reader = self.writer = None
        self.due = {}  # t -> scheduled send time
        self.lag_s = []  # actual - scheduled send start
        self.closed = {}  # t -> (receive time, convoys)
        self.flushed = None
        self.flushed_at = None
        self.error = None
        self.bytes_in = 0
        self.bytes_out = 0

    async def send(self, message):
        line = encode(message)
        self.writer.write(line)
        await self.writer.drain()
        self.bytes_in += len(line)

    async def next_event(self):
        line = await asyncio.wait_for(self.reader.readline(), TIMEOUT_S)
        if not line:
            raise ConnectionError("server closed the connection")
        self.bytes_out += len(line)
        return decode(line)

    async def open(self, port):
        self.reader, self.writer = await asyncio.open_connection(
            "127.0.0.1", port, limit=STREAM_LIMIT)
        await self.send({"type": "hello", "tenant": self.name,
                         "config": self.config})
        event = await self.next_event()
        return event.get("type") == "ready"

    async def close(self):
        try:
            await self.send({"type": "bye"})
        except (ConnectionError, BrokenPipeError):
            pass
        self.writer.close()
        try:
            await self.writer.wait_closed()
        except (ConnectionError, BrokenPipeError):
            pass

    def encode_feeds(self):
        """The wire form of every tick, built before the timed window so
        the load generator stays on schedule."""
        return [encode({"type": "feed", "tenant": self.name,
                        "ticks": [[t, encode_snapshot(snapshot)]]})
                for t, snapshot in self.ticks]

    async def produce(self, lines, t0, period, offset):
        for j, ((t, _snapshot), line) in enumerate(zip(self.ticks, lines)):
            due = t0 + (j + offset) * period
            delay = due - perf_counter()
            if delay > 0:
                await asyncio.sleep(delay)
            self.due[t] = due
            self.lag_s.append(perf_counter() - due)
            self.writer.write(line)
            await self.writer.drain()
            self.bytes_in += len(line)
        await self.send({"type": "flush", "tenant": self.name})

    async def consume(self):
        while True:
            event = await self.next_event()
            now = perf_counter()
            kind = event.get("type")
            if kind == "closed":
                self.closed[event["t"]] = (
                    now, [decode_convoy(c) for c in event["convoys"]])
            elif kind == "flushed":
                self.flushed, self.flushed_at = event, now
                return
            else:
                self.error = event
                return


def _tenants(spec, streams, tmp):
    tenants = []
    for i, ticks in enumerate(streams):
        config = wl.miner_kwargs(
            spec, store=os.path.join(tmp, f"tenant{i}.db"))
        tenants.append(Tenant(f"tenant{i}", ticks, config))
    return tenants


async def _run(root, spec, tenants, tmp, ops):
    server = Server(root, spec["workers"], tmp)
    try:
        for tenant in tenants:
            ops.check(await tenant.open(server.port),
                      f"hello {tenant.name}: no ready reply")
        lines = [tenant.encode_feeds() for tenant in tenants]
        period = len(tenants) / spec["offered_ticks_per_s"]
        t0 = perf_counter() + 0.05
        tasks = []
        for i, tenant in enumerate(tenants):
            tasks.append(asyncio.ensure_future(
                tenant.produce(lines[i], t0, period, i / len(tenants))))
            tasks.append(asyncio.ensure_future(tenant.consume()))
        await asyncio.gather(*tasks)
        rss_mb = server.peak_rss_mb()
        for tenant in tenants:
            await tenant.close()
    finally:
        code = server.stop()
    ops.check(code == 130, f"serve exited with {code}, expected 130")
    return t0, rss_mb


def check_tenant(tenant, ops):
    """Per-tick ``closed`` events, the ``flushed`` answer and the
    tenant's store against a classic run of the same ticks."""
    per_tick, tail = wl.classic_run(tenant.ticks, tenant.config)
    for t, want in per_tick.items():
        got = tenant.closed.get(t, (None, []))[1]
        ops.check(wl.canonical(got) == wl.canonical(want),
                  f"{tenant.name} feed t={t}: closed convoys differ")
    answer = [c for closed in per_tick.values() for c in closed] + tail
    flushed = [] if tenant.flushed is None else [
        decode_convoy(c) for c in tenant.flushed["convoys"]]
    ops.check(tenant.error is None
              and flushed == normalize_convoys(answer),
              f"{tenant.name} flush: answer differs ({tenant.error})")
    with open_store(tenant.config["store"]) as store:
        stored = store.all_convoys()
    ops.check(wl.canonical(stored) == sorted(set(wl.canonical(answer))),
              f"{tenant.name}: store read-back differs")


def run(root, spec, seconds, tmp, ops):
    """Run the wire session; returns ``(metrics, record)``: the
    per-layer metrics, and the session's end-to-end view for the
    report."""
    datas = wl.data_specs(spec, seconds)
    tenants = _tenants(spec, [wl.materialize(d) for d in datas], tmp)
    t0, rss_mb = asyncio.run(_run(root, spec, tenants, tmp, ops))
    for tenant in tenants:
        check_tenant(tenant, ops)
    ticks = sum(len(t.ticks) for t in tenants)
    emit_ms = [1e3 * (at - t.due[tick]) for t in tenants
               for tick, (at, _c) in t.closed.items()]
    services = [t.flushed["service"] for t in tenants if t.flushed]
    metrics = {
        "service.peak_queue": max((s["peak_queue"] for s in services),
                                  default=0),
        "service.throttled_waits": sum(s["throttled_waits"]
                                       for s in services),
        "service.bytes_in_per_tick": sum(t.bytes_in for t in tenants) / ticks,
        "service.bytes_out_per_tick": (sum(t.bytes_out for t in tenants)
                                       / ticks),
        "loadgen.lag_p95_ms": percentile(
            [1e3 * s for t in tenants for s in t.lag_s], 95),
    }
    finished = [t.flushed_at for t in tenants if t.flushed_at is not None]
    record = {
        "data": datas,
        "offered_ticks_per_s": spec["offered_ticks_per_s"],
        "snapshots_per_s": (ticks / (max(finished) - t0)
                            if len(finished) == len(tenants) else 0.0),
        "emit_latency_p50_ms": percentile(emit_ms, 50),
        "emit_latency_p95_ms": percentile(emit_ms, 95),
        "emit_latency_samples": len(emit_ms),
        "server_peak_rss_mb": rss_mb,
    }
    return metrics, record
