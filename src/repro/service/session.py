"""One tenant's miner behind an asyncio ingestion queue.

A :class:`TenantSession` pairs a
:class:`~repro.streaming.engine.StreamingConvoyMiner` (any pipeline /
backend / shards / store configuration) with the service-side state the
dispatcher schedules on:

* a FIFO **tick queue** with a credit-based high-water mark —
  :meth:`enqueue` *waits* (never drops) once ``max_queue`` ticks are
  pending, which is exactly how the server stops reading a flooded
  tenant's feed while other tenants keep flowing;
* the **fairness bookkeeping** (``last_served`` sequence number) the
  dispatcher's least-recently-served pick reads;
* a **service counter dict** (queue peaks, throttles, step totals, step
  latencies) kept strictly apart from the miner's own ``counters`` —
  the differential proof holds the miner's dict bit-for-bit equal to a
  direct run's, so service bookkeeping must never leak into it.

Miner steps are synchronous on purpose: the dispatcher runs
:meth:`step_sync` on a worker thread via ``run_in_executor``, and the
one-in-flight-step-per-session rule makes the service's per-tenant
ingestion order identical to a plain ``feed`` loop — which is the whole
equivalence argument.
"""

from __future__ import annotations

import asyncio
import collections
import time

from repro.core.verification import normalize_convoys
from repro.streaming.engine import StreamingConvoyMiner

from repro.service.protocol import ProtocolError, encode_convoy

#: Miner keyword arguments a ``hello`` config may carry.
MINER_CONFIG_KEYS = (
    "m", "k", "eps", "paper_semantics", "window", "clusterer", "reorder",
    "shards", "executor", "backend", "store",
)

#: Service-level knobs a ``hello`` config may carry.
SERVICE_CONFIG_KEYS = ("max_queue", "tick_delay")


def build_miner(config):
    """Construct the tenant's miner from a ``hello`` config dict.

    Returns ``(miner, tick_delay, max_queue)``; raises
    :class:`~repro.service.protocol.ProtocolError` on unknown keys or
    parameters the miner rejects, so a bad ``hello`` fails the session
    before any state exists.
    """
    if not isinstance(config, dict):
        raise ProtocolError(f"hello config must be an object, got {config!r}")
    unknown = sorted(
        key for key in config
        if key not in MINER_CONFIG_KEYS + SERVICE_CONFIG_KEYS
    )
    if unknown:
        raise ProtocolError(f"unknown config key(s): {', '.join(unknown)}")
    for key in ("m", "k", "eps"):
        if key not in config:
            raise ProtocolError(f"config is missing required key {key!r}")
    miner_kwargs = {
        key: config[key] for key in MINER_CONFIG_KEYS if key in config
    }
    tick_delay = config.get("tick_delay", 0.0)
    if not isinstance(tick_delay, (int, float)) or isinstance(
        tick_delay, bool
    ) or tick_delay < 0:
        raise ProtocolError(f"tick_delay must be >= 0, got {tick_delay!r}")
    max_queue = config.get("max_queue")
    if max_queue is not None and (
        not isinstance(max_queue, int) or isinstance(max_queue, bool)
        or max_queue < 1
    ):
        raise ProtocolError(f"max_queue must be >= 1, got {max_queue!r}")
    try:
        miner = StreamingConvoyMiner(**miner_kwargs)
    except (TypeError, ValueError) as exc:
        raise ProtocolError(f"bad miner config: {exc}") from None
    return miner, float(tick_delay), max_queue


async def _discard_event(event):
    """Default event sink for sessions not attached to a connection."""
    return None


class TenantSession:
    """One tenant's miner plus its ingestion queue and bookkeeping.

    Args:
        tenant: the tenant's wire name.
        miner: the tenant's (not yet started) miner; the session owns
            its lifecycle from here on.
        max_queue: ingestion high-water mark — :meth:`enqueue` waits
            once this many steps are pending.
        tick_delay: seconds slept inside each tick step (load-shaping
            knob for benchmarks; 0 disables).
        latency_window: how many recent per-tick step latencies to keep
            (a bounded deque, so long-lived tenants hold O(1) memory).
    """

    def __init__(self, tenant, miner, *, max_queue=64, tick_delay=0.0,
                 latency_window=4096):
        self.tenant = tenant
        self.miner = miner
        self.max_queue = int(max_queue)
        if self.max_queue < 1:
            raise ValueError(f"max_queue must be >= 1, got {max_queue}")
        self.tick_delay = float(tick_delay)
        #: Service-side bookkeeping — deliberately a *different* dict
        #: from ``miner.counters`` (see the module docstring).
        self.service_counters = {
            "ticks": 0,
            "convoys_closed": 0,
            "peak_queue": 0,
            "throttled_waits": 0,
            "drains": 0,
        }
        #: Recent per-tick step wall times, seconds (bounded).
        self.latencies = collections.deque(maxlen=latency_window)
        #: Dispatcher fairness stamp: sequence number of the last grant.
        self.last_served = -1
        #: True while a worker thread is inside :meth:`step_sync`.
        self.in_flight = False
        self.done = False
        self.failed = None  # the error text that killed the session
        self._queue = collections.deque()
        self._convoys = []
        self._space = asyncio.Event()
        self._space.set()
        #: Async callable receiving this session's wire events; the
        #: server points it at the owning connection's writer.
        self.deliver = _discard_event

    # ------------------------------------------------------------------
    # Ingestion side (server handler coroutines)

    def __len__(self):
        return len(self._queue)

    async def enqueue(self, t, snapshot):
        """Queue one tick, waiting for credit when the queue is full.

        The wait *is* the backpressure: the caller is the connection's
        read loop, so an over-watermark tenant stops being read until
        the dispatcher drains it below the mark again.  Nothing is ever
        dropped.
        """
        if len(self._queue) >= self.max_queue:
            self.service_counters["throttled_waits"] += 1
            while len(self._queue) >= self.max_queue:
                self._space.clear()
                await self._space.wait()
                self._ensure_alive()
        self._ensure_alive()
        self._push(("tick", t, snapshot))

    def enqueue_drain(self):
        """Queue an idle-drain step (reorder buffer ``release_all``)."""
        self._ensure_alive()
        self._push(("drain", None, None))

    def enqueue_flush(self):
        """Queue the final flush; the session is done once it runs."""
        self._ensure_alive()
        self._push(("flush", None, None))

    def _push(self, item):
        self._queue.append(item)
        if len(self._queue) > self.service_counters["peak_queue"]:
            self.service_counters["peak_queue"] = len(self._queue)

    def _ensure_alive(self):
        if self.done:
            raise ProtocolError(
                f"tenant {self.tenant!r} is already flushed"
                if self.failed is None
                else f"tenant {self.tenant!r} failed: {self.failed}"
            )

    @property
    def runnable(self):
        """True when the dispatcher may grant this session a worker."""
        return bool(self._queue) and not self.in_flight and not self.done

    def pop_step(self):
        """Take the next queued step (dispatcher, under the event loop)."""
        return self._queue.popleft()

    def discard_queued(self):
        """Drop queued steps and wake throttled writers (close path)."""
        self._queue.clear()
        self._space.set()

    def grant_credit(self):
        """Wake a throttled :meth:`enqueue` once below the high-water."""
        if len(self._queue) < self.max_queue:
            self._space.set()

    # ------------------------------------------------------------------
    # Mining side (worker threads)

    def step_sync(self, kind, t, snapshot):
        """Run one queued step against the miner; return the wire event
        to deliver (or None for a silent step).  Called from a worker
        thread — never concurrently for one session."""
        if kind == "tick":
            if self.tick_delay:
                time.sleep(self.tick_delay)
            closed = list(self.miner.feed(t, snapshot))
            self.service_counters["ticks"] += 1
            return self._closed_event(t, closed)
        if kind == "drain":
            closed = list(self.miner.release_pending())
            self.service_counters["drains"] += 1
            return self._closed_event(self.miner.last_time, closed)
        if kind == "flush":
            tail = list(self.miner.flush())
            self._convoys.extend(tail)
            self.service_counters["convoys_closed"] += len(tail)
            self.miner.close()
            return self._flushed_event()
        raise AssertionError(f"unknown step kind {kind!r}")

    def _closed_event(self, t, closed):
        if not closed:
            return None
        self._convoys.extend(closed)
        self.service_counters["convoys_closed"] += len(closed)
        return {
            "type": "closed",
            "tenant": self.tenant,
            "t": t,
            "convoys": [encode_convoy(convoy) for convoy in closed],
        }

    def _flushed_event(self):
        event = {
            "type": "flushed",
            "tenant": self.tenant,
            "convoys": [
                encode_convoy(convoy)
                for convoy in normalize_convoys(self._convoys)
            ],
            "counters": dict(self.miner.counters),
            "service": dict(self.service_counters),
        }
        clusterer = self.miner.clusterer
        if clusterer is not None and hasattr(clusterer, "counters"):
            event["clusterer_counters"] = dict(clusterer.counters)
        return event

    def abort_sync(self, error=None):
        """Close the miner without flushing (connection drop, shutdown,
        failed step).  Completed ticks stay committed — the store holds
        a clean tick-prefix, exactly the SIGINT contract.  Idempotent.
        """
        if self.done and error is None:
            return
        self.done = True
        if error is not None and self.failed is None:
            self.failed = str(error)
        self._queue.clear()
        self._space.set()  # never strand a throttled enqueue
        self.miner.close()

    def finish(self):
        """Mark the session cleanly done (after its flush delivered)."""
        self.done = True
        self._space.set()
