"""Spans around the miner's public stage methods, recorded from outside.

:func:`instrument` wraps the bound methods of one miner's stage objects
(instance attributes only — no class is patched, so untraced miners in
the same process are untouched).  Each wrapped call records a span:
name, start, end, parent span, and the request id of the ``feed`` call
it ran under (the arrival's tick time).  Spans stay in memory until the
run ends.  A layer's self time is its span durations minus the time its
child spans cover.

Span names and the layer each belongs to:

=================  =====================================================
``feed``/``flush``  root: one miner call (self time = pipeline glue)
``close``           root: the miner's release (outside the timed window)
``ingest``          ``IngestStage.ingest`` (reorder buffer, gap rule)
``cluster``         ``ClusterStage.cluster``
``track``           ``TrackStage.step`` / ``flush`` (plan + apply)
``track.match``     ``CandidateTracker._match_live`` (the join kernel)
``emit``            ``EmitStage.emit_tick`` / ``emit_flush``
``store.observe``   ``EmitStage.observe`` (the sink's position log)
``store.commit``    ``StoreSink.commit`` (bounding boxes + pruning)
``store.insert``    ``ConvoyStore.add_batch`` (SQLite transaction)
``trace``           the tracer's own bookkeeping (counters)
=================  =====================================================
"""

from __future__ import annotations

from time import perf_counter

from repro.core.candidates import match_plan_stats

#: Root spans inside a repetition's timed window (``close`` runs after
#: it).
TIMED_ROOTS = ("feed", "flush")
#: The spans of the pipeline's layers.  Under a timed root, every other
#: span's self time is either miner glue (``feed``/``flush``) or the
#: tracer's own bookkeeping (``trace``).
LAYER_SPANS = ("ingest", "cluster", "track", "track.match", "emit",
               "store.observe", "store.commit", "store.insert")


class Tracer:
    """An in-memory span recorder with a parent stack."""

    def __init__(self):
        #: ``[name, start, end, parent_index, request_id]`` per span.
        self.spans = []
        self.counts = {"cluster.clusters": 0, "track.pairs_scanned": 0,
                       "track.match_hits": 0, "store.commits": 0,
                       "store.member_ids_written": 0}
        #: Start of the ``feed`` call that handed in each tick.
        self.arrivals = {}
        #: ``(tick, arrival_start, release_time)`` per released tick.
        self.holds = []
        self._stack = []
        self._request = None

    def wrap(self, obj, attr, name, root=False, after=None):
        """Replace ``obj.attr`` with a span-recording wrapper.

        ``after(args, result, span)`` runs once the span has closed, as
        tracer bookkeeping, for counters that need the call's inputs or
        output.
        """
        inner = getattr(obj, attr)
        spans = self.spans
        stack = self._stack

        def traced(*args, **kwargs):
            if root:
                self._request = args[0] if args else name
            parent = stack[-1] if stack else None
            index = len(spans)
            span = [name, perf_counter(), None, parent, self._request]
            if root and args:
                self.arrivals.setdefault(args[0], span[1])
            spans.append(span)
            stack.append(index)
            try:
                result = inner(*args, **kwargs)
            finally:
                span[2] = perf_counter()
                stack.pop()
            if after is not None:
                self.bookkeeping(after, args, result, span)
            return result

        setattr(obj, attr, traced)

    def bookkeeping(self, fn, *args):
        """Run tracer-side work inside a ``trace`` span, so the layers'
        self times exclude it."""
        start = perf_counter()
        try:
            return fn(*args)
        finally:
            parent = self._stack[-1] if self._stack else None
            self.spans.append(["trace", start, perf_counter(), parent,
                               self._request])

    # -- derived metrics ---------------------------------------------

    def _roots(self):
        """Root span index of every span (parents precede children)."""
        root = []
        for i, span in enumerate(self.spans):
            root.append(i if span[3] is None else root[span[3]])
        return root

    def self_times(self, roots=TIMED_ROOTS):
        """Total self time per span name, in seconds, over the spans
        under a root span named in ``roots``."""
        child = [0.0] * len(self.spans)
        for name, start, end, parent, _rid in self.spans:
            if parent is not None:
                child[parent] += end - start
        totals = {}
        for i, root in enumerate(self._roots()):
            name, start, end, _parent, _rid = self.spans[i]
            if self.spans[root][0] in roots:
                totals[name] = (totals.get(name, 0.0)
                                + (end - start) - child[i])
        return totals

    def inclusive(self, name, roots=TIMED_ROOTS):
        """Total duration of the spans called ``name`` under a root span
        named in ``roots``."""
        return sum(
            self.spans[i][2] - self.spans[i][1]
            for i, root in enumerate(self._roots())
            if self.spans[i][0] == name and self.spans[root][0] in roots)


def instrument(miner, tracer):
    """Wrap ``miner``'s stage methods so every call records a span."""
    pipeline = miner.pipeline
    counts = tracer.counts

    def released(_args, result, span):
        for t, _snapshot, _gap in result:
            tracer.holds.append((t, tracer.arrivals[t], span[2]))

    def clustered(_args, result, _span):
        counts["cluster.clusters"] += len(result[0])

    def matched(args, result, _span):
        counts["track.match_hits"] += sum(len(m) for _pos, m in result)

    def count_pairs(members, jobs):
        counts["track.pairs_scanned"] += match_plan_stats(members, jobs).pairs

    def committed(_args, _result, _span):
        counts["store.commits"] += 1

    def inserted(args, _result, _span):
        counts["store.member_ids_written"] += sum(len(c.objects)
                                                  for c in args[0])

    tracker = pipeline.track.tracker
    match_live = tracker._match_live

    def match_with_pairs(members, jobs):
        tracer.bookkeeping(count_pairs, members, jobs)
        return match_live(members, jobs)

    tracer.wrap(miner, "feed", "feed", root=True)
    tracer.wrap(miner, "flush", "flush", root=True)
    tracer.wrap(miner, "close", "close", root=True)
    tracer.wrap(pipeline.ingest, "ingest", "ingest", after=released)
    tracer.wrap(pipeline.ingest, "drain", "ingest", after=released)
    tracer.wrap(pipeline.cluster, "cluster", "cluster", after=clustered)
    tracer.wrap(pipeline.track, "step", "track")
    tracer.wrap(pipeline.track, "flush", "track")
    tracker._match_live = match_with_pairs
    tracer.wrap(tracker, "_match_live", "track.match", after=matched)
    tracer.wrap(pipeline.emit, "emit_tick", "emit")
    tracer.wrap(pipeline.emit, "emit_flush", "emit")
    tracer.wrap(pipeline.emit, "observe", "store.observe")
    sink = pipeline.emit.sink
    if sink is not None:
        tracer.wrap(sink, "commit", "store.commit", after=committed)
        tracer.wrap(sink.store, "add_batch", "store.insert", after=inserted)
