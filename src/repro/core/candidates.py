"""Convoy-candidate bookkeeping shared by CMC and the CuTS filter.

Both Algorithm 1 (CMC, one step per time point) and Algorithm 2 (CuTS
filter, one step per λ-length time partition) run the same loop around
their clustering call:

* every live candidate ``v`` is joined with every new cluster ``c``; when
  ``|c ∩ v| >= m`` the candidate survives as ``c ∩ v`` with its end time
  advanced;
* candidates no cluster extends die — and are *reported* if they lasted at
  least ``k`` time points;
* clusters seed new candidates.

:class:`CandidateTracker` implements that loop once.  Lifetimes are tracked
as closed time intervals (``end - start + 1``), which coincides with
Algorithm 1's per-step counter and with Algorithm 2's ``+= λ`` counter
because extension steps are always temporally contiguous.

Three deliberate deviations from the published pseudocode, the first and
third governed by ``paper_semantics``:

1. **Complete seeding (default).**  Algorithm 1 line 20 seeds a cluster as
   a new candidate only when it extended *no* existing candidate.  That
   rule loses convoys: when a cluster ``c`` extends a candidate ``v`` the
   chain narrows to ``c ∩ v``, and a convoy formed by ``c``'s *full*
   membership starting at the current step is never tracked (later convoy
   literature documents this incompleteness of CMC, e.g. Aung & Tan's
   "valid convoy" line of work).  The default semantics seeds every
   cluster as a fresh candidate **unless some surviving candidate already
   has exactly the cluster's object set** — an equal-set survivor evolves
   identically ever after, so the suppressed seed could only ever report a
   time-dominated fragment of what the survivor reports.  This keeps the
   candidate count linear on stable groups while restoring completeness.
   ``paper_semantics=True`` reproduces the published rule verbatim (the
   semantics ablation bench compares the two).

2. **Gap handling.**  When a step has no clusters (fewer than ``m``
   objects alive, or none close together), Algorithm 1 lines 5-6 "skip
   the iteration" leaving ``V`` intact, which would let a candidate bridge
   a time point where its objects were provably not density-connected —
   contradicting Definition 3's "k consecutive time points".  The tracker
   instead closes every live candidate on such steps.  This deviation is
   unconditional: feeding an empty cluster list to :meth:`advance` always
   ends every chain.

3. **Report on narrowing (default).**  Under the published rule a chain
   that *narrows* (every extending cluster drops some of its members) just
   continues with the intersection; the pre-narrowing member set — which
   was density-connected at every step since the chain's start, a maximal
   run per Definition 3 — is silently forgotten.  The default semantics
   closes that run (reporting it when it lived >= k) whenever no extension
   preserves the full member set, while the narrowed children continue.
   Besides completeness, this is what makes the CuTS refinement's answer
   *equal* to CMC's: a refinement window necessarily cuts chains at the
   candidate boundary, and the window-end flush of a still-narrowing chain
   only matches a run the global algorithm actually reports if narrowing
   runs are reported globally too.

The tracker also records, per candidate, the **cluster the chain passed
through in every time window**.  The CuTS refinement step needs it: the
intersection alone can drop "bridge" objects that connected the convoy's
members at individual time points, and re-clustering without the bridges
would break density connections that exist in the full database.  (Any
snapshot cluster containing the chain's objects at a covered time is a
subset of the chain's window cluster there, because density clusters are
disjoint and the window cluster contains the chain's objects.)  Window
histories are kept as shared-prefix cons lists so a long chain costs O(1)
per step, and are only materialized when a chain closes.

Diff-aware stepping
-------------------

:meth:`CandidateTracker.advance` re-intersects every live candidate
against every cluster, even when the clustering barely changed since the
previous step.  :meth:`CandidateTracker.advance_delta` accepts the
:class:`~repro.clustering.incremental.ClusterDelta` the incremental
clusterer produces anyway and exploits two facts:

* snapshot clusters are disjoint, and every live candidate's object set is
  contained in the cluster that last extended (or seeded) it — its
  *support* cluster;
* therefore a candidate whose support cluster is ``unchanged`` this step
  (same member set) can only be extended by that same cluster, and the
  extension preserves its full member set.

Such candidates are *spliced* straight through — ``t_end`` advanced and
the window history extended in O(1), no set intersection — while
candidates whose support is dirty (changed, rebuilt under a fresh id, or
vanished) are re-intersected against the dirty clusters only (an
unchanged cluster is disjoint from every candidate it does not support).
Candidates carrying no support id (the previous step ran the classic
:meth:`advance`) are re-intersected against everything.  The survivor
*order*, the reports, and the window histories are bit-for-bit what
:meth:`advance` would produce; the differential suite in
``tests/streaming/test_delta_equivalence.py`` holds the two paths equal
tick for tick.

The shard seam
--------------

Both stepping methods are factored as *plan → match → apply*: a first
pass over the live list decides, per candidate, whether it splices
through (unchanged support) or needs a cluster scan; the scans are then
executed in bulk by the pure kernel :func:`match_candidates` behind the
:meth:`CandidateTracker._match_live` hook; finally one ordered apply
pass replays the classic survivor/seed/report logic from the match
results.  Because the kernel is a pure function of ``(clusters, object
sets, scan lists)`` and the apply pass runs strictly in live-list order,
the matching work can be executed anywhere — in particular fanned out
across resident shard workers by
:class:`repro.streaming.sharding.ShardedCandidateTracker`, which
overrides ``_match_live`` — without moving a single report or
survivor out of the classic deterministic order.  Splices and closes
never leave the owning tracker: they are O(1) bookkeeping, and keeping
them local is what makes the fan-out transparent.

The apply pass can additionally narrate itself: with
``_collect_provenance`` enabled the tracker records, per step, one event
per *surviving* chain in exactly the new live-list order —
``("splice", old_pos)`` for an O(1) splice-through,
``("extend", old_pos, preserved)`` for a survivor born from a cluster
scan (``preserved`` when the extension kept the parent's full member
set, i.e. the chain continued rather than narrowed), and ``("seed",)``
for a freshly seeded cluster.  The sharded tracker
(:class:`repro.streaming.sharding.ShardedCandidateTracker`) replays
that narration to assign stable chain ids
and derive the put/drop deltas it ships to long-lived shard workers.
The flag is off by default so the unsharded hot path records nothing.
"""

from __future__ import annotations

from dataclasses import dataclass
from time import perf_counter

from repro.clustering.incremental import UNCHANGED
from repro.clustering.numeric import (
    KernelDispatch,
    MatchPlanStats,
    match_candidates_bitset,
    match_candidates_merge,
    match_candidates_vector,
    validate_backend,
    validate_match_kernel,
)
from repro.core.convoy import Convoy

#: Counter keys a tracker maintains in its ``counters`` dict.
COUNTER_KEYS = (
    "advance_steps",
    "delta_steps",
    "spliced_candidates",
    "reintersected_candidates",
)


def match_candidates(members, jobs, min_objects):
    """Pure matching kernel shared by the serial path and shard workers.

    Stateless and picklable by construction: this is the kernel resident
    shard workers run over their share of a tick's jobs, and exactly
    what the unsharded tracker runs inline.

    Args:
        members: list of cluster member ``frozenset``s for this step.
        jobs: list of ``(pos, objects, scan)`` triples — a candidate's
            position in the live list, its object set, and the cluster
            indexes to scan (``None`` scans every cluster).
        min_objects: the convoy query's ``m``.

    Returns:
        List of ``(pos, matches)`` pairs in job order, where ``matches``
        lists the ``(cluster_index, intersection)`` pairs with
        ``len(intersection) >= min_objects``, in scan order.
    """
    out = []
    full_scan = range(len(members))
    for pos, objects, scan in jobs:
        matches = []
        for index in (full_scan if scan is None else scan):
            common = objects & members[index]
            if len(common) >= min_objects:
                matches.append((index, common))
        out.append((pos, matches))
    return out


#: The fixed (per-tick-stateless) match kernels by name; ``auto`` is
#: deliberately absent — it is a per-tick *policy* over these three,
#: resolved by the tracker's :class:`~repro.clustering.numeric.
#: KernelDispatch` before any kernel name ships to a shard.
FIXED_MATCH_KERNELS = {
    "scalar": match_candidates,
    "merge": match_candidates_merge,
    "bitset": match_candidates_bitset,
}


def resolve_match_kernel(backend, kernel=None):
    """Map a numeric backend (plus optional kernel name) to its kernel.

    Module-level (hence picklable by reference): shard workers resolve
    the kernel from the backend and kernel *names* shipped in their
    task, so the task payload stays a plain data tuple.  With ``kernel``
    None the backend decides (``"python"`` → the scalar kernel,
    ``"vector"`` → the owner-join batch kernel); a fixed kernel name
    (``"scalar"`` / ``"merge"`` / ``"bitset"``) overrides the backend.
    Unknown names raise a :class:`ValueError` listing the valid choices
    — never a bare :class:`KeyError` — and ``"auto"`` is rejected here
    because dispatch is stateful and resolves per tick in the tracker.
    """
    kernel = validate_match_kernel(kernel)
    if kernel == "auto":
        raise ValueError(
            "auto dispatch resolves per tick inside the tracker; "
            "resolve_match_kernel accepts only the fixed kernels "
            f"{tuple(FIXED_MATCH_KERNELS)} or None"
        )
    if kernel is not None:
        return FIXED_MATCH_KERNELS[kernel]
    if validate_backend(backend) == "vector":
        return match_candidates_vector
    return match_candidates


def match_plan_stats(members, jobs):
    """Measure one tick's match-join shape for the kernel dispatcher.

    Computed by the plan pass (over the very jobs list it just built)
    before any kernel runs: job/cluster/pair counts, total candidate and
    member id volume, per-scan candidate-id volume, and the candidate
    population bound.  Deliberately O(jobs + clusters) — only ``len()``
    arithmetic, no per-object work — so the measuring pass costs nothing
    next to even the cheapest kernel on a tiny tick.  ``population`` is
    therefore the *total* job id count, an upper bound on the bitset
    remap width that is exact when candidates are disjoint; the
    dispatcher's cost fit only needs the feature to scale consistently.
    See :class:`~repro.clustering.numeric.MatchPlanStats`.
    """
    n_clusters = len(members)
    member_ids = sum(len(cluster) for cluster in members)
    pairs = job_ids = scan_ids = 0
    for _pos, objects, scan in jobs:
        size = len(objects)
        fan = n_clusters if scan is None else len(scan)
        pairs += fan
        job_ids += size
        scan_ids += fan * size
    return MatchPlanStats(
        jobs=len(jobs), clusters=n_clusters, pairs=pairs, job_ids=job_ids,
        member_ids=member_ids, scan_ids=scan_ids, population=job_ids,
    )


@dataclass(frozen=True)
class ClosedCandidate:
    """A candidate chain that ended with lifetime >= k.

    Attributes:
        objects: the chain's running intersection — the convoy's member
            set under the intersection semantics of Algorithms 1/2.
        t_start, t_end: the closed time interval the chain covered.
        windows: tuple of ``(window_start, window_end, members)`` — the
            cluster the chain passed through in each step window, in time
            order.  Refinement re-clusters exactly these objects at the
            covered times.
    """

    objects: frozenset
    t_start: int
    t_end: int
    windows: tuple

    @property
    def lifetime(self):
        """Number of time points covered (``t_end - t_start + 1``)."""
        return self.t_end - self.t_start + 1

    @property
    def union(self):
        """Every object appearing in any window cluster along the chain."""
        merged = set()
        for _ws, _we, members in self.windows:
            merged |= members
        return frozenset(merged)

    def as_convoy(self):
        """The chain's answer as a :class:`~repro.core.convoy.Convoy`."""
        return Convoy(self.objects, self.t_start, self.t_end)

    def as_candidate_convoy(self):
        """The chain's *union* as a convoy-shaped summary of the candidate."""
        return Convoy(self.union, self.t_start, self.t_end)


class _Live:
    """One live candidate chain (mutable while tracked).

    ``history`` is a cons node ``(parent_node, ws, we, members)`` sharing
    its prefix with the parent chain's node.  ``support`` is the stable id
    (per :class:`~repro.clustering.incremental.ClusterDelta`) of the
    cluster that extended or seeded the chain at the last step — the
    chain's objects are a subset of that cluster — or None when the last
    step ran without cluster ids.
    """

    __slots__ = ("objects", "t_start", "t_end", "history", "support")

    def __init__(self, objects, t_start, t_end, history, support=None):
        self.objects = objects
        self.t_start = t_start
        self.t_end = t_end
        self.history = history
        self.support = support

    @property
    def lifetime(self):
        return self.t_end - self.t_start + 1

    def close(self):
        windows = []
        node = self.history
        while node is not None:
            parent, ws, we, members = node
            windows.append((ws, we, members))
            node = parent
        windows.reverse()
        return ClosedCandidate(
            self.objects, self.t_start, self.t_end, tuple(windows)
        )


class CandidateTracker:
    """Incremental candidate maintenance for CMC / the CuTS filter.

    Args:
        min_objects: the convoy query's ``m``.
        min_lifetime: the convoy query's ``k`` (in time points).
        paper_semantics: reproduce Algorithm 1's seeding rule verbatim
            (False by default — see the module docstring).
        counters: optional dict receiving bookkeeping totals (the
            ``COUNTER_KEYS``); a fresh dict is created when omitted and is
            always available as :attr:`counters`.
        backend: numeric backend for the matching kernel — ``"python"``
            (default) runs :func:`match_candidates`'s pairwise set
            intersections; ``"vector"`` runs the batch join of
            :func:`~repro.clustering.numeric.match_candidates_vector`.
            Both produce identical matches, so the tracker's output is
            bit-for-bit the same either way.
        match_kernel: optional match-kernel override — one of
            :data:`~repro.clustering.numeric.MATCH_KERNELS`.  A fixed
            name (``"scalar"`` / ``"merge"`` / ``"bitset"``) pins that
            kernel regardless of backend; ``"auto"`` lets a
            :class:`~repro.clustering.numeric.KernelDispatch` pick per
            tick from the plan pass's measured join shape (and counts
            its choices in ``dispatch_scalar`` / ``dispatch_merge`` /
            ``dispatch_bitset``).  Every kernel produces identical
            matches, so this knob only moves time, never output.

    Usage: call :meth:`advance` (or, with cluster diffs available,
    :meth:`advance_delta`) once per time step (or partition) with the
    clusters found there; collect the :class:`ClosedCandidate` records it
    reports; call :meth:`flush` after the last step.
    """

    def __init__(self, min_objects, min_lifetime, paper_semantics=False,
                 counters=None, backend="python", match_kernel=None):
        self._numeric_backend = validate_backend(backend)
        self._match_kernel = validate_match_kernel(match_kernel)
        if self._match_kernel == "auto":
            self._dispatch = KernelDispatch()
            self._kernel = None
        else:
            self._dispatch = None
            self._kernel = resolve_match_kernel(
                self._numeric_backend, self._match_kernel
            )
        if min_objects < 1:
            raise ValueError(f"m must be >= 1, got {min_objects}")
        if min_lifetime < 1:
            raise ValueError(f"k must be >= 1, got {min_lifetime}")
        self._m = min_objects
        self._k = min_lifetime
        self._paper_semantics = paper_semantics
        self._candidates = []
        self._last_end = None
        # Apply-pass narration (see module docstring): when enabled, every
        # advance leaves one event per survivor, in new-live-list order,
        # in `last_provenance`; the sharded tracker consumes it.
        self._collect_provenance = False
        self.last_provenance = None
        self.counters = counters if counters is not None else {}
        for key in COUNTER_KEYS:
            self.counters.setdefault(key, 0)
        if self._dispatch is not None:
            for name in KernelDispatch.KERNELS:
                self.counters.setdefault(f"dispatch_{name}", 0)

    def _begin_step(self, window_start, window_end):
        """Validate one step's window against the step-ordering contract."""
        if window_end < window_start:
            raise ValueError(
                f"window reversed: [{window_start}, {window_end}]"
            )
        if self._last_end is not None and window_start <= self._last_end:
            raise ValueError(
                f"steps must advance in time: window [{window_start}, "
                f"{window_end}] does not start after the previous end "
                f"{self._last_end}"
            )
        self._last_end = window_end
        self.counters["advance_steps"] += 1

    @property
    def live_candidates(self):
        """Snapshot of the live candidate set (for introspection/tests)."""
        return [
            Convoy(c.objects, c.t_start, c.t_end) for c in self._candidates
        ]

    @property
    def live_count(self):
        """Number of live candidate chains (O(1), for monitoring)."""
        return len(self._candidates)

    @property
    def oldest_live_start(self):
        """Earliest ``t_start`` among live chains (None when none live).

        Every convoy this tracker can still close starts at or after
        this time — the retention horizon for anything buffering
        per-tick context alongside the tracker (the persistence sink's
        position log prunes below it)."""
        if not self._candidates:
            return None
        return min(candidate.t_start for candidate in self._candidates)

    def _match_live(self, members, jobs):
        """Execute the step's cluster scans; the shard fan-out hook.

        The base tracker runs the kernel inline.
        :class:`repro.streaming.sharding.ShardedCandidateTracker`
        overrides this one method to partition ``jobs`` across resident
        shard workers; result order is irrelevant (the caller keys by
        position), so any merge of the per-shard outputs is legal.
        """
        if self._dispatch is None:
            return self._kernel(members, jobs, self._m)
        stats = match_plan_stats(members, jobs)
        name = self._dispatch.choose(stats)
        self.counters[f"dispatch_{name}"] += 1
        started = perf_counter()
        out = FIXED_MATCH_KERNELS[name](members, jobs, self._m)
        self._dispatch.observe(name, stats, perf_counter() - started)
        return out

    def advance(self, clusters, window_start, window_end):
        """Process one time step covering ``[window_start, window_end]``.

        Args:
            clusters: iterable of object-id sets found by this step's
                density clustering.  Clusters smaller than ``m`` are
                ignored (DBSCAN with ``min_pts = m`` never produces them,
                but the tracker does not rely on that).
            window_start, window_end: closed time interval the step covers.
                CMC passes ``t, t``; the CuTS filter passes the partition
                bounds.  Steps must be fed in ascending, non-overlapping
                time order.

        Returns:
            List of :class:`ClosedCandidate` — chains that died at this
            step after living at least ``k`` time points.
        """
        self._begin_step(window_start, window_end)
        usable = [frozenset(c) for c in clusters if len(c) >= self._m]
        if usable:
            # Clusterless steps (gaps, below-m snapshots) close every chain
            # without a single set intersection; counting them would
            # attribute classic-path work to steps that did none.
            self.counters["reintersected_candidates"] += len(self._candidates)
        matched = {}
        if usable and self._candidates:
            jobs = [(pos, candidate.objects, None)
                    for pos, candidate in enumerate(self._candidates)]
            matched = dict(self._match_live(usable, jobs))
        closed = []
        survivors = {}  # (objects, t_start) -> _Live
        extended = [False] * len(usable)
        prov = [] if self._collect_provenance else None
        for pos, candidate in enumerate(self._candidates):
            assigned = False
            preserved = False  # some extension kept the full member set
            for index, common in matched.get(pos, ()):
                assigned = True
                extended[index] = True
                if len(common) == len(candidate.objects):
                    preserved = True
                key = (common, candidate.t_start)
                if key not in survivors:
                    # A duplicate key means two parents were extended by
                    # the same cluster into identical chains; either
                    # parent's window history is sound (every historical
                    # window cluster contains the chain's objects), so
                    # the first one is kept.
                    survivors[key] = _Live(
                        common,
                        candidate.t_start,
                        window_end,
                        (candidate.history, window_start, window_end,
                         usable[index]),
                    )
                    if prov is not None:
                        prov.append(
                            ("extend", pos,
                             len(common) == len(candidate.objects))
                        )
            if self._paper_semantics:
                report_run = not assigned
            else:
                report_run = not preserved
            if report_run and candidate.lifetime >= self._k:
                closed.append(candidate.close())
        survivor_objects = {live.objects for live in survivors.values()}
        for index, cluster in enumerate(usable):
            if self._paper_semantics:
                seed = not extended[index]
            else:
                seed = cluster not in survivor_objects
            if seed:
                key = (cluster, window_start)
                if key not in survivors:
                    survivors[key] = _Live(
                        cluster,
                        window_start,
                        window_end,
                        (None, window_start, window_end, cluster),
                    )
                    if prov is not None:
                        prov.append(("seed",))
        self._candidates = list(survivors.values())
        if prov is not None:
            self.last_provenance = prov
        return closed

    def advance_delta(self, clusters, delta, window_start, window_end):
        """Process one time step using a cluster diff (see module docs).

        Produces exactly what ``advance(clusters, ...)`` would — the same
        reports in the same order, the same survivors in the same order,
        the same window histories — but pays per-candidate set
        intersections only around clusters the diff marks dirty.

        Args:
            clusters: this step's cluster list, parallel to ``delta.ids``.
            delta: the :class:`~repro.clustering.incremental.ClusterDelta`
                describing ``clusters`` against the *previous step's*
                clusters.  The diff must be stated against the cluster
                list of this tracker's immediately preceding non-empty
                step (the streaming engine guarantees that by feeding
                every clustering it runs straight to the tracker).  None
                falls back to the classic full re-intersection.
            window_start, window_end: as for :meth:`advance`.

        Returns:
            List of :class:`ClosedCandidate`, exactly as :meth:`advance`.
        """
        if delta is None:
            return self.advance(clusters, window_start, window_end)
        if len(delta.ids) != len(clusters):
            raise ValueError(
                f"delta describes {len(delta.ids)} clusters, got "
                f"{len(clusters)}"
            )
        self._begin_step(window_start, window_end)
        self.counters["delta_steps"] += 1
        usable = []  # (frozenset members, stable id, is_dirty)
        for members, cid, status in zip(clusters, delta.ids, delta.status):
            if len(members) >= self._m:
                usable.append((frozenset(members), cid, status != UNCHANGED))
        unchanged_at = {
            cid: index
            for index, (_members, cid, dirty) in enumerate(usable)
            if not dirty
        }
        dirty_indexes = tuple(
            index for index, (_m, _c, dirty) in enumerate(usable) if dirty
        )
        members = [entry[0] for entry in usable]
        # Plan pass: decide, per candidate, splice vs scan (candidate order
        # is preserved through the job positions, so the apply pass below
        # replays the classic ordering exactly).
        splice_at = {}  # pos -> unchanged cluster index
        jobs = []
        spliced = reintersected = 0
        for pos, candidate in enumerate(self._candidates):
            support = candidate.support
            if support is not None and support in unchanged_at:
                # Sole possible extension, full member-set preservation:
                # splice the chain through in O(1).
                splice_at[pos] = unchanged_at[support]
                spliced += 1
                continue
            # Dirty or unknown support: re-intersect.  A known support
            # confines the candidate inside a dirty (or vanished) previous
            # cluster, so only dirty clusters can reach m shared objects;
            # an unknown support (previous step ran the classic advance)
            # gets the full scan.
            if support is not None:
                scan, scan_size = dirty_indexes, len(dirty_indexes)
            else:
                scan, scan_size = None, len(usable)
            if scan_size:
                # Mirror advance()'s rule: only count candidates that
                # actually enter an intersection scan, so clusterless or
                # all-unchanged steps don't inflate the re-intersection
                # totals the CLI and benches report.
                reintersected += 1
                jobs.append((pos, candidate.objects, scan))
        matched = dict(self._match_live(members, jobs)) if jobs else {}
        closed = []
        survivors = {}  # (objects, t_start) -> _Live, in classic order
        extended = [False] * len(usable)
        prov = [] if self._collect_provenance else None
        for pos, candidate in enumerate(self._candidates):
            unchanged_index = splice_at.get(pos)
            if unchanged_index is not None:
                extended[unchanged_index] = True
                key = (candidate.objects, candidate.t_start)
                if key not in survivors:
                    survivors[key] = _Live(
                        candidate.objects,
                        candidate.t_start,
                        window_end,
                        (candidate.history, window_start, window_end,
                         members[unchanged_index]),
                        support=candidate.support,
                    )
                    if prov is not None:
                        prov.append(("splice", pos))
                continue
            assigned = False
            preserved = False
            for index, common in matched.get(pos, ()):
                assigned = True
                extended[index] = True
                if len(common) == len(candidate.objects):
                    preserved = True
                key = (common, candidate.t_start)
                if key not in survivors:
                    survivors[key] = _Live(
                        common,
                        candidate.t_start,
                        window_end,
                        (candidate.history, window_start, window_end,
                         members[index]),
                        support=usable[index][1],
                    )
                    if prov is not None:
                        prov.append(
                            ("extend", pos,
                             len(common) == len(candidate.objects))
                        )
            if self._paper_semantics:
                report_run = not assigned
            else:
                report_run = not preserved
            if report_run and candidate.lifetime >= self._k:
                closed.append(candidate.close())
        self.counters["spliced_candidates"] += spliced
        self.counters["reintersected_candidates"] += reintersected
        survivor_objects = {live.objects for live in survivors.values()}
        for index, (cluster, cid, _dirty) in enumerate(usable):
            if self._paper_semantics:
                seed = not extended[index]
            else:
                seed = cluster not in survivor_objects
            if seed:
                key = (cluster, window_start)
                if key not in survivors:
                    survivors[key] = _Live(
                        cluster,
                        window_start,
                        window_end,
                        (None, window_start, window_end, cluster),
                        support=cid,
                    )
                    if prov is not None:
                        prov.append(("seed",))
        self._candidates = list(survivors.values())
        if prov is not None:
            self.last_provenance = prov
        return closed

    def prune_longer_than(self, max_lifetime):
        """Force-close every live chain that has lived ``max_lifetime`` points.

        The streaming engine's bounded-memory window: a chain's per-step
        history grows with its age, so capping the age caps memory at
        O(live chains x max_lifetime).  Pruned chains are reported when they
        qualify (lifetime >= k); their objects may immediately re-seed a
        fresh chain from the next step's clusters, so a convoy outliving the
        window is reported as consecutive fragments rather than dropped.

        Args:
            max_lifetime: close chains whose lifetime reached this many time
                points.  Must be >= the tracker's ``k`` or no pruned chain
                could ever be reported.

        Returns:
            List of :class:`ClosedCandidate` for the pruned chains that
            lived at least ``k`` time points.
        """
        if max_lifetime < self._k:
            raise ValueError(
                f"max_lifetime must be >= k={self._k}, got {max_lifetime}"
            )
        kept = []
        closed = []
        for candidate in self._candidates:
            if candidate.lifetime >= max_lifetime:
                # max_lifetime >= k, so every pruned chain qualifies.
                closed.append(candidate.close())
            else:
                kept.append(candidate)
        self._candidates = kept
        return closed

    def flush(self):
        """Close every remaining candidate; return the qualifying records.

        Must be called once after the final :meth:`advance`; the tracker
        can then be discarded.
        """
        closed = [
            candidate.close()
            for candidate in self._candidates
            if candidate.lifetime >= self._k
        ]
        self._candidates = []
        return closed
