"""Sharded candidate tracking: fan one tick's matching work across shards.

Algorithm 1's per-tick candidate step is a join — every live candidate
against every cluster — and PR 3 already partitioned it implicitly: a
candidate records the stable id of its *support* cluster, and because
snapshot clusters are disjoint, candidates supported by different
clusters never compete for the same extension.  This module makes that
partition explicit:

* every live chain gets a stable *chain id* and a home shard: chains
  with a support id route by memoized rendezvous hashing on it (so a
  chain stays on one shard for as long as its support survives, and
  adding a shard moves only ``1/n`` of the keys); chains without one —
  the classic :meth:`~repro.core.candidates.CandidateTracker.advance`
  path, and chains seeded before their first delta step — route by
  ``chain_id % shards``, which is stable across ticks;
* each shard's candidate object-sets live inside a long-lived
  :class:`repro.streaming.executor.ResidentShardWorker`, reached over a
  transport from :mod:`repro.streaming.executor` (the in-process serial
  twin, or one spawned process per shard);
* the per-shard match results merge back through the tracker's ordered
  apply pass, which replays survivors, seeds, and reports strictly in
  live-list order — so the emissions are **bit for bit** the unsharded
  tracker's, proven tick-for-tick by
  ``tests/streaming/test_sharded_equivalence.py`` across both
  transports, pipelines, and mid-run worker restarts.

The tracker speaks a three-message protocol with its workers:

* ``init`` seeds (or wholesale replaces) one shard's state from the
  parent's authoritative live list — sent whenever the transport reports
  a new worker *generation* (first use, restart, crash recovery), and
  the seam a future rebalancer uses to move a shard;
* ``step`` ships only what changed: the tick's cluster member sets, the
  shard's job *ids* (``(pos, chain_id, scan)`` — no object sets), and
  the put/drop delta the previous apply pass produced.  Workers return
  match *indexes only*; the parent re-derives the winning intersections
  from its own authoritative sets;
* ``snapshot`` drains a shard's state back (rebalance/close, and the
  differential suite's state checks).

Chain ids come from the apply-pass provenance the base tracker records
(``_collect_provenance``): a splice or full-member-set extension
continues the chain under its id; narrowed extensions and seeds become
new chains (one ``put`` each); chains that die become ``drop``s; a
support change migrates the chain (``drop`` at the old home, ``put`` at
the new).  Splices, closes and window histories never leave the parent:
all state mutation happens in its deterministic apply pass.
"""

from __future__ import annotations

import hashlib
import pickle
from time import perf_counter

from repro.core.candidates import CandidateTracker, match_plan_stats
from repro.streaming.executor import resolve_executor

#: Counter keys a sharded tracker adds to its ``counters`` dict.
COUNTER_KEYS = (
    "shard_steps",
    "sharded_candidates",
    "max_shard_batch",
    "route_cache_resets",
    "resident_inits",
)


def _stable_hash(key):
    """A process-stable 64-bit hash (``hash()`` is salted per run)."""
    digest = hashlib.blake2b(
        repr(key).encode("utf-8"), digest_size=8
    ).digest()
    return int.from_bytes(digest, "big")


def rendezvous_shard(key, n_shards):
    """Deterministic highest-random-weight (rendezvous) shard choice.

    Every observer computes the same winner for a key with no shared
    routing table, and resizing from ``n`` to ``n + 1`` shards reassigns
    only the keys the new shard wins (~``1/(n+1)`` of them) — the
    property that will let a future rebalancer grow the shard set
    without reshuffling every live chain.

    Args:
        key: any ``repr``-stable routing key (support-cluster ids here).
        n_shards: number of shards (``>= 1``).

    Returns:
        The winning shard index in ``[0, n_shards)``.
    """
    if n_shards < 1:
        raise ValueError(f"n_shards must be >= 1, got {n_shards}")
    if n_shards == 1:
        return 0
    best_shard = 0
    best_weight = -1
    for shard in range(n_shards):
        weight = _stable_hash((shard, key))
        if weight > best_weight:
            best_shard = shard
            best_weight = weight
    return best_shard


class ShardedCandidateTracker(CandidateTracker):
    """A :class:`~repro.core.candidates.CandidateTracker` whose per-tick
    matching work is partitioned across resident shard workers.

    Everything observable — survivor order, reports, window histories,
    the shared counter keys (``advance_steps``, ``delta_steps``,
    ``spliced_candidates``, ``reintersected_candidates``) — is identical
    to the unsharded tracker; the subclass overrides the
    :meth:`~repro.core.candidates.CandidateTracker._match_live` seam,
    replays each apply pass into per-shard deltas, and adds the
    :data:`COUNTER_KEYS` bookkeeping.

    Args:
        min_objects, min_lifetime, paper_semantics, counters, backend,
        match_kernel:
            as for :class:`~repro.core.candidates.CandidateTracker`
            (``backend`` picks the numeric matching kernel the shard
            workers run; ``match_kernel`` pins a fixed kernel or, with
            ``"auto"``, lets the dispatcher pick per tick — the chosen
            kernel *name* ships in the step message; identical matches
            every way).
        shards: number of partitions (``>= 1``; 1 still routes every
            batch through the transport, which is how the scaling bench
            isolates pure layer overhead).
        executor: transport spec forwarded to
            :func:`~repro.streaming.executor.resolve_executor` —
            ``None``/``"serial"``, ``"process"``, or a ready-made
            transport object.

    Call :meth:`close` (the streaming engine does, on ``flush``) to
    release the transport's workers.
    """

    def __init__(self, min_objects, min_lifetime, shards,
                 executor="serial", paper_semantics=False, counters=None,
                 backend="python", match_kernel=None):
        super().__init__(
            min_objects, min_lifetime, paper_semantics=paper_semantics,
            counters=counters, backend=backend, match_kernel=match_kernel,
        )
        shards = int(shards)
        if shards < 1:
            raise ValueError(f"shards must be >= 1, got {shards}")
        self._n_shards = shards
        self._backend = resolve_executor(executor)
        # The apply-pass narration drives chain-id assignment.
        self._collect_provenance = True
        self._chains = []   # chain id per live position
        self._homes = []    # home shard per live position
        self._next_chain = 0
        self._pending_ops = {}  # shard -> [("put", id, objs)|("drop", id)]
        self._seen_gen = {}     # shard -> last worker generation seeded
        self._route_cache = {}  # support id -> shard (memoized rendezvous)
        self._byte_accounting = False
        for key in COUNTER_KEYS:
            self.counters.setdefault(key, 0)

    @property
    def shards(self):
        """Number of shards the tracker partitions candidates across."""
        return self._n_shards

    @property
    def executor(self):
        """The transport running the per-shard message batches."""
        return self._backend

    def enable_byte_accounting(self):
        """Count pickled payload bytes crossing the transport boundary.

        Adds ``shipped_bytes`` (requests) and ``result_bytes``
        (responses) to :attr:`counters`, measured as
        ``len(pickle.dumps(payload))`` per tick — the honest IPC metric
        whatever the transport.  Off by default: the extra pickling
        would double the process transport's serialization work.
        """
        self._byte_accounting = True
        self.counters.setdefault("shipped_bytes", 0)
        self.counters.setdefault("result_bytes", 0)

    def _home_for(self, chain_id, support):
        """A chain's home shard: memoized rendezvous on its support when
        it has one, else stable ``chain_id % shards``."""
        if support is None:
            return chain_id % self._n_shards
        shard = self._route_cache.get(support)
        if shard is None:
            if len(self._route_cache) > max(1024, 8 * self.live_count):
                # Support ids are never reused, so dead entries only
                # accumulate — but the sweep must spare the routes live
                # candidates still use: dropping those too would force a
                # rendezvous recompute burst for the whole live set on
                # the very next tick (high-churn thrash).
                live = {c.support for c in self._candidates}
                live.discard(None)
                self._route_cache = {
                    cid: home for cid, home in self._route_cache.items()
                    if cid in live
                }
                self.counters["route_cache_resets"] += 1
            shard = rendezvous_shard(support, self._n_shards)
            self._route_cache[support] = shard
        return shard

    def _choose_kernel(self, members, jobs):
        """Pick this tick's fixed kernel name to ship to the shards.

        Returns ``(kernel name or None, MatchPlanStats or None)`` —
        stats are only computed (and the choice only counted) under
        ``"auto"`` dispatch; the caller feeds the measured tick cost
        back via :meth:`KernelDispatch.observe` when stats are present.
        """
        if self._dispatch is None:
            return self._match_kernel, None
        stats = match_plan_stats(members, jobs)
        name = self._dispatch.choose(stats)
        self.counters[f"dispatch_{name}"] += 1
        return name, stats

    def _shard_entries(self, shard):
        """The authoritative ``(chain_id, objects)`` state of one shard."""
        return [
            (chain, candidate.objects)
            for chain, home, candidate in zip(
                self._chains, self._homes, self._candidates
            )
            if home == shard
        ]

    def _queue_op(self, shard, op):
        self._pending_ops.setdefault(shard, []).append(op)

    def _shard_messages(self, shard, members=None, jobs=(), kernel=None):
        """Build one shard's message batch, handling (re)seeding.

        When the transport reports a generation the tracker has not
        seeded (first use, restart, crash recovery), pending deltas are
        discarded and a full ``init`` is sent instead — the worker's
        state is gone, so the only sound move is wholesale replacement
        from the parent's authoritative live list.  A per-tick kernel
        name (fixed ``match_kernel`` or the dispatcher's choice) rides
        as a fifth ``step`` element; without one the message keeps its
        four-element shape and the worker falls back to the kernel its
        ``init`` backend implies.
        """
        messages = []
        generation = self._backend.generation(shard)
        if self._seen_gen.get(shard) != generation:
            self._pending_ops.pop(shard, None)
            messages.append(
                ("init", self._m, self._numeric_backend,
                 self._shard_entries(shard))
            )
            self._seen_gen[shard] = generation
            self.counters["resident_inits"] += 1
            ops = ()
        else:
            ops = tuple(self._pending_ops.pop(shard, ()))
        if ops or jobs:
            step = ("step", members or (), ops, tuple(jobs))
            if kernel is not None:
                step += (kernel,)
            messages.append(step)
        return messages

    def _build_batches(self, members, jobs, kernel):
        """Bucket the step's jobs by home shard into message batches.

        Returns ``(batches, unmap)``: the ``(shard, messages)`` pairs to
        hand the transport (shards with pending deltas but no jobs get
        an ops-only batch), and, per shard that was shipped a cluster
        subset, the shipped-index -> global-index list.
        """
        chains = self._chains
        homes = self._homes
        buckets = {}
        for pos, _objects, scan in jobs:
            buckets.setdefault(homes[pos], []).append(
                (pos, chains[pos], scan)
            )
        batches = []
        unmap = {}  # shard -> shipped-index -> global cluster index
        for shard in sorted(set(buckets) | set(self._pending_ops)):
            bucket = buckets.get(shard, ())
            # An ops-only batch (pending puts/drops, no jobs) needs no
            # cluster sets at all; jobs without scan lists need them all.
            shard_members = members if bucket else ()
            if bucket and all(job[2] is not None for job in bucket):
                # Every job names its scan list, so the shard only needs
                # those clusters: ship the subset under compact indexes
                # (the delta path's dirty set is usually a small slice of
                # the tick — this is most of the per-tick byte win).
                used = sorted({
                    index for _pos, _chain, scan in bucket for index in scan
                })
                if len(used) < len(members):
                    remap = {old: new for new, old in enumerate(used)}
                    shard_members = [members[index] for index in used]
                    bucket = [
                        (pos, chain, tuple(remap[i] for i in scan))
                        for pos, chain, scan in bucket
                    ]
                    unmap[shard] = used
            messages = self._shard_messages(
                shard, members=shard_members, jobs=bucket,
                kernel=kernel if bucket else None,
            )
            if messages:
                batches.append((shard, messages))
        self.counters["shard_steps"] += 1
        self.counters["sharded_candidates"] += len(jobs)
        biggest = max(
            (len(bucket) for bucket in buckets.values()), default=0
        )
        if biggest > self.counters["max_shard_batch"]:
            self.counters["max_shard_batch"] = biggest
        return batches, unmap

    def _merge_responses(self, members, batches, responses, unmap):
        """Turn the workers' match indexes back into ``(pos, matches)``.

        Workers return match *indexes*; the winning intersections are
        re-derived from the parent's own authoritative sets, so they
        never cross the boundary.  Candidates without a match are left
        out (the apply pass reads a missing position as no match), and
        a candidate wholly inside its matched cluster — a chain that
        kept every member, the steady state — is its own intersection,
        so the subset test spares building an equal set.
        """
        candidates = self._candidates
        results = []
        for (shard, messages), shard_responses in zip(batches, responses):
            if messages[-1][0] != "step" or not messages[-1][3]:
                continue  # init/flush-only batch: nothing to merge
            used = unmap.get(shard)
            for pos, indexes in shard_responses[-1]:
                if not indexes:
                    continue
                if used is not None:
                    indexes = [used[index] for index in indexes]
                objects = candidates[pos].objects
                results.append((pos, [
                    (index, objects if objects <= members[index]
                     else objects & members[index])
                    for index in indexes
                ]))
        return results

    def _match_live(self, members, jobs):
        """Ship per-shard step messages; reconstruct matches from indexes."""
        kernel, stats = self._choose_kernel(members, jobs)
        batches, unmap = self._build_batches(members, jobs, kernel)
        if not batches:
            return []
        if self._byte_accounting:
            self.counters["shipped_bytes"] += len(
                pickle.dumps(batches, pickle.HIGHEST_PROTOCOL)
            )
        started = perf_counter()
        responses = self._backend.run(batches)
        if stats is not None:
            self._dispatch.observe(kernel, stats, perf_counter() - started)
        if self._byte_accounting:
            self.counters["result_bytes"] += len(
                pickle.dumps(responses, pickle.HIGHEST_PROTOCOL)
            )
        return self._merge_responses(members, batches, responses, unmap)

    def _reconcile(self):
        """Replay the apply pass's provenance into chain ids and deltas.

        Consumes :attr:`last_provenance` (one event per survivor, in the
        new live-list order): splices and full-member-set extensions
        carry their chain id forward (a support change migrates the
        chain — ``drop`` at the old home, ``put`` at the new); narrowed
        extensions and seeds become new chains (``put``); parents with
        no carried survivor died (``drop``).  The resulting per-shard
        ops ship with the *next* step message — the step that ran this
        tick matched against the pre-apply state, which is exactly what
        the workers held.
        """
        provenance = self.last_provenance
        self.last_provenance = None
        old_chains = self._chains
        old_homes = self._homes
        candidates = self._candidates
        new_chains = []
        new_homes = []
        carried = set()
        for position, event in enumerate(provenance):
            candidate = candidates[position]
            kind = event[0]
            if kind == "splice":
                # Unchanged support, unchanged objects: same id, same home.
                parent = event[1]
                chain = old_chains[parent]
                home = old_homes[parent]
                carried.add(parent)
            elif kind == "extend" and event[2] and event[1] not in carried:
                # Full member set preserved: the chain continues under
                # its id (at most one such survivor per parent — the
                # survivor key (objects, t_start) is unique).  A support
                # change moves it to a new home.
                parent = event[1]
                chain = old_chains[parent]
                home = self._home_for(chain, candidate.support)
                carried.add(parent)
                if home != old_homes[parent]:
                    self._queue_op(old_homes[parent], ("drop", chain))
                    self._queue_op(
                        home, ("put", chain, candidate.objects)
                    )
            else:
                # Narrowed extension or fresh seed: a new chain.
                chain = self._next_chain
                self._next_chain += 1
                home = self._home_for(chain, candidate.support)
                self._queue_op(home, ("put", chain, candidate.objects))
            new_chains.append(chain)
            new_homes.append(home)
        for parent, (chain, home) in enumerate(zip(old_chains, old_homes)):
            if parent not in carried:
                self._queue_op(home, ("drop", chain))
        self._chains = new_chains
        self._homes = new_homes

    def _drop_positions(self, keep):
        """Queue drops for every live position not in ``keep`` and shrink
        the chain bookkeeping to the survivors (prune/flush paths)."""
        new_chains = []
        new_homes = []
        for position, (chain, home) in enumerate(
            zip(self._chains, self._homes)
        ):
            if position in keep:
                new_chains.append(chain)
                new_homes.append(home)
            else:
                self._queue_op(home, ("drop", chain))
        self._chains = new_chains
        self._homes = new_homes

    def advance(self, clusters, window_start, window_end):
        closed = super().advance(clusters, window_start, window_end)
        if self.last_provenance is not None:
            self._reconcile()
        return closed

    def advance_delta(self, clusters, delta, window_start, window_end):
        # delta=None delegates to self.advance, whose override already
        # reconciled (and consumed the provenance) — hence the guard.
        closed = super().advance_delta(
            clusters, delta, window_start, window_end
        )
        if self.last_provenance is not None:
            self._reconcile()
        return closed

    def prune_longer_than(self, max_lifetime):
        before = {
            id(candidate): position
            for position, candidate in enumerate(self._candidates)
        }
        closed = super().prune_longer_than(max_lifetime)
        self._drop_positions(
            {before[id(candidate)] for candidate in self._candidates}
        )
        return closed

    def flush(self):
        closed = super().flush()
        self._drop_positions(set())
        return closed

    def snapshot_shard(self, shard):
        """Drain one shard's worker state back to the parent.

        Flushes the shard's pending delta first (seeding the worker if
        its generation changed), then returns the worker's
        ``{chain_id: objects}`` dict — the rebalancer's read side, and
        what the differential suite checks against
        :meth:`expected_shard_state`.
        """
        messages = self._shard_messages(shard)
        messages.append(("snapshot",))
        return self._backend.run([(shard, messages)])[0][-1]

    def expected_shard_state(self, shard):
        """The parent's authoritative view of one shard's state — what
        :meth:`snapshot_shard` must return once pending deltas land."""
        return dict(self._shard_entries(shard))

    def close(self):
        """Release the transport's workers (idempotent)."""
        self._backend.close()
