"""Resident shard transports for the sharded candidate tracker.

The sharding layer (:mod:`repro.streaming.sharding`) partitions one
tick's candidate-matching work into per-shard batches; *where* those
batches run is this module's job.  Each shard has one long-lived
:class:`ResidentShardWorker` holding that shard's candidate object-sets
between ticks, and every message for a shard reaches *its* worker, so
the per-tick payload is only cluster member-sets, job ids, and the
put/drop deltas of the apply pass (see :mod:`repro.streaming.sharding`
for the protocol and the state reconciliation that produces those
deltas).  Two transports carry the messages:

* :class:`ResidentSerialExecutor` — workers held in-process, messages
  handled inline: the reference implementation the differential suite
  holds the process transport against.
* :class:`ResidentProcessExecutor` — one single-worker process pool per
  shard (the only way a ``concurrent.futures`` pool can guarantee shard
  affinity), built from an explicit multiprocessing context (``spawn``
  by default, so worker state never depends on fork-inherited
  interpreter state), each worker process named after its shard.

Both expose ``run(batches)``, ``generation(shard)`` — an incarnation
number that changes whenever the shard's worker may have lost its state
(first creation, ``restart``, a crash, ``close``), so the tracker knows
when to re-seed a worker over the ``init`` message instead of shipping
an incremental delta — ``restart(shard)`` and ``close()``.  A worker
process dying mid-run surfaces as :class:`ShardWorkerCrashed` (never a
hang): the broken pool is torn down, ``close()`` still succeeds, and the
next use rebuilds the pool under a fresh generation.
"""

from __future__ import annotations

from repro.core.candidates import FIXED_MATCH_KERNELS, resolve_match_kernel

#: Names accepted by :func:`resolve_executor`.
BACKENDS = ("serial", "process")


class ShardWorkerCrashed(RuntimeError):
    """A resident shard worker process died mid-run.

    Raised (promptly — the pool's futures fail the moment the process
    dies, so a crash can never hang the stream) in place of the raw
    ``BrokenProcessPool``, naming the shard whose worker was lost.  The
    broken pool is already torn down when this propagates: ``close()``
    on the backend still succeeds, and the next run on the same backend
    instance rebuilds the pool under a fresh generation, which makes the
    tracker re-seed the worker's state.
    """

    def __init__(self, shard, detail):
        super().__init__(
            f"resident worker for shard {shard} crashed ({detail}); the "
            f"shard's pool has been torn down — close the miner, or rerun "
            f"on this backend to restart the worker"
        )
        self.shard = shard


class ResidentProtocolError(RuntimeError):
    """A resident worker received a message inconsistent with its state
    (job or drop for an unknown chain, step before init) — always a bug
    in the parent's reconciliation, never recoverable data loss."""


def _name_worker_process(name):
    """Pool initializer: name the worker process for ps/log readability."""
    import multiprocessing

    multiprocessing.current_process().name = name


def _resolve_mp_context(spec):
    """Turn an mp-context spec (name, context object, or None) into a
    multiprocessing context; the default is the platform-independent
    ``spawn``, so worker behavior never depends on fork-inherited
    interpreter state (lazily imported modules, open handles, ...)."""
    import multiprocessing

    if spec is None:
        spec = "spawn"
    if isinstance(spec, str):
        return multiprocessing.get_context(spec)
    return spec


class ResidentShardWorker:
    """One shard's resident state plus its message interpreter.

    The worker holds ``chain id -> candidate object-set`` between ticks
    and answers the three protocol messages (plain picklable tuples):

    * ``("init", min_objects, backend, entries)`` — replace the state
      wholesale with ``entries`` (``(chain_id, objects)`` pairs) and
      resolve the matching kernel from the numeric backend *name*;
      returns ``("ok", population)``.
    * ``("step", members, ops, jobs[, kernel])`` — apply the put/drop
      ``ops`` (the parent's apply-pass delta), then run the match kernel
      over ``jobs`` (``(pos, chain_id, scan)`` triples resolved against
      the resident state) and return ``(pos, match_indexes)`` pairs —
      match *indexes only*; the parent re-derives the few winning
      intersections itself, so cluster-sized sets never travel back.
      The optional fifth element names a fixed kernel for this tick
      (the parent's ``match_kernel`` or its dispatcher's choice);
      without it the worker runs the kernel its ``init`` backend
      implies.
    * ``("snapshot",)`` — return a copy of the resident state, for
      rebalance/close and the differential suite's state checks.

    ``("probe",)`` additionally reports ``(pid, process name, kernel
    name, population)`` as a health check.

    Alongside the object sets the worker maintains one *bitset row* per
    chain — a Python ``int`` bitmask over a worker-local dense id remap
    that grows with first-seen candidate objects — kept patched by the
    very same put/drop deltas.  A ``bitset``-kernel tick then needs no
    per-tick remap shipping and no row rebuild: cluster member sets are
    encoded through the existing remap (ids no resident candidate holds
    cannot intersect anything and are skipped) and each scanned pair is
    one C-speed AND + ``int.bit_count``.
    """

    def __init__(self):
        self._objects = {}
        self._m = None
        self._kernel = None
        self._bit_of = {}  # object id -> bit index (first-seen order)
        self._bits = {}    # chain id -> int bitmask over _bit_of

    def handle(self, message):
        tag = message[0]
        if tag == "step":
            kernel = message[4] if len(message) > 4 else None
            return self._step(message[1], message[2], message[3], kernel)
        if tag == "init":
            return self._init(message[1], message[2], message[3])
        if tag == "snapshot":
            return dict(self._objects)
        if tag == "probe":
            import multiprocessing
            import os

            return (
                os.getpid(),
                multiprocessing.current_process().name,
                None if self._kernel is None else self._kernel.__name__,
                len(self._objects),
            )
        raise ResidentProtocolError(f"unknown resident message {tag!r}")

    def _mask(self, objects):
        """Pack one object set into a bitmask, growing the remap."""
        bit_of = self._bit_of
        mask = 0
        for obj in objects:
            bit = bit_of.get(obj)
            if bit is None:
                bit = bit_of[obj] = len(bit_of)
            mask |= 1 << bit
        return mask

    def bitset_rows(self):
        """Decode the maintained bitset rows back to object sets.

        Diagnostic/testing surface: the decoded rows must always equal
        the authoritative ``chain id -> objects`` state (the property
        suite rebuilds a fresh worker from the current state and holds
        the two decodings equal after arbitrary put/drop sequences).
        """
        name_of = {bit: obj for obj, bit in self._bit_of.items()}
        rows = {}
        for chain_id, mask in self._bits.items():
            objects = set()
            while mask:
                low = mask & -mask
                objects.add(name_of[low.bit_length() - 1])
                mask ^= low
            rows[chain_id] = frozenset(objects)
        return rows

    def _init(self, min_objects, backend, entries):
        self._m = min_objects
        self._kernel = resolve_match_kernel(backend)
        self._objects = {chain_id: objects for chain_id, objects in entries}
        self._bit_of = {}
        self._bits = {
            chain_id: self._mask(objects)
            for chain_id, objects in self._objects.items()
        }
        return ("ok", len(self._objects))

    def _step(self, members, ops, jobs, kernel=None):
        objects = self._objects
        bits = self._bits
        for op in ops:
            if op[0] == "put":
                objects[op[1]] = op[2]
                bits[op[1]] = self._mask(op[2])
            elif op[0] == "drop":
                if objects.pop(op[1], None) is None:
                    raise ResidentProtocolError(
                        f"drop for unknown chain {op[1]}"
                    )
                del bits[op[1]]
            else:
                raise ResidentProtocolError(f"unknown delta op {op[0]!r}")
        if not jobs:
            return ()
        if self._kernel is None:
            raise ResidentProtocolError("step before init: worker has no state")
        if kernel == "bitset":
            return self._step_bitset(members, jobs)
        fn = self._kernel if kernel is None else FIXED_MATCH_KERNELS[kernel]
        try:
            kernel_jobs = [
                (pos, objects[chain_id], scan) for pos, chain_id, scan in jobs
            ]
        except KeyError as exc:
            raise ResidentProtocolError(
                f"job references unknown chain {exc.args[0]}"
            ) from None
        # List comprehensions, not generators: this conversion runs once
        # per scanned candidate per tick, on the sharded hot path.
        return tuple([
            (pos, tuple([index for index, _common in matches]))
            for pos, matches in fn(members, kernel_jobs, self._m)
        ])

    def _step_bitset(self, members, jobs):
        """Run a bitset tick straight off the maintained rows."""
        bit_of = self._bit_of
        cluster_masks = []
        for cluster in members:
            mask = 0
            for obj in cluster:
                bit = bit_of.get(obj)
                if bit is not None:
                    mask |= 1 << bit
            cluster_masks.append(mask)
        full_scan = range(len(members))
        min_objects = self._m
        bits = self._bits
        out = []
        for pos, chain_id, scan in jobs:
            row = bits.get(chain_id)
            if row is None:
                raise ResidentProtocolError(
                    f"job references unknown chain {chain_id}"
                )
            out.append((pos, tuple(
                index for index in (full_scan if scan is None else scan)
                if (row & cluster_masks[index]).bit_count() >= min_objects
            )))
        return tuple(out)


def _run_resident_batch(shard, messages):
    """Handle one shard's messages inside a worker process.

    Module-level (picklable by reference) and backed by a module-global
    worker registry: each :class:`ResidentProcessExecutor` pool serves
    exactly one shard with exactly one process, so the registry in any
    worker process only ever holds that process's own shard — state
    persists across submissions because the process does.
    """
    worker = _PROCESS_RESIDENT_WORKERS.get(shard)
    if worker is None:
        worker = _PROCESS_RESIDENT_WORKERS.setdefault(
            shard, ResidentShardWorker()
        )
    return [worker.handle(message) for message in messages]


#: Per-process registry backing :func:`_run_resident_batch`.
_PROCESS_RESIDENT_WORKERS = {}


class ResidentSerialExecutor:
    """Resident workers held in-process, messages handled inline.

    The reference implementation of the resident transport surface:
    ``run(batches)`` takes ``(shard, messages)`` pairs and returns each
    shard's responses in batch order, ``generation(shard)`` reports the
    worker's incarnation (bumped whenever its state may have been
    lost), ``restart(shard)`` deliberately discards one worker (the
    rebalancer's building block, and the differential suite's
    worker-restart lever), and ``close()`` discards them all.  A closed
    backend rebuilds workers if used again — under fresh generations,
    so the tracker re-seeds them.
    """

    name = "serial"

    def __init__(self):
        self._workers = {}
        self._gens = {}

    @property
    def alive(self):
        """Whether any shard worker currently holds state."""
        return bool(self._workers)

    def _worker(self, shard):
        worker = self._workers.get(shard)
        if worker is None:
            worker = self._workers[shard] = ResidentShardWorker()
            self._gens[shard] = self._gens.get(shard, -1) + 1
        return worker

    def generation(self, shard):
        """The shard worker's incarnation number (creates it if absent)."""
        self._worker(shard)
        return self._gens[shard]

    def run(self, batches):
        """Handle each ``(shard, messages)`` batch; responses in order."""
        return [
            [self._worker(shard).handle(message) for message in messages]
            for shard, messages in batches
        ]

    def probe(self, shard):
        """Health check: ``(pid, name, kernel, population)`` for a shard."""
        return self._worker(shard).handle(("probe",))

    def restart(self, shard):
        """Discard one shard's worker; the next use re-creates it under a
        new generation (so the tracker re-seeds its state)."""
        self._workers.pop(shard, None)

    def close(self):
        """Discard every worker (idempotent)."""
        self._workers.clear()

    def __repr__(self):
        return f"{type(self).__name__}()"


class ResidentProcessExecutor:
    """One single-worker, lazily created process pool per shard.

    A shared ``ProcessPoolExecutor`` cannot route a task to a chosen
    worker, and resident state is only sound if every message for a
    shard reaches the *same* process — so each shard gets its own
    one-process pool, started from an explicit multiprocessing context
    (``spawn`` by default) with the worker process named
    ``repro-resident-shard-N``.

    A worker process dying mid-run raises :class:`ShardWorkerCrashed`
    (naming the shard) instead of the raw ``BrokenProcessPool``; the
    broken pool is torn down on the spot, so ``close()`` still succeeds
    and the next run rebuilds the shard's pool under a fresh generation.

    Args:
        mp_context: multiprocessing context or start-method name
            (default ``"spawn"``).
    """

    name = "process"

    def __init__(self, mp_context=None):
        self._mp_context = mp_context
        self._pools = {}
        self._gens = {}

    @property
    def alive(self):
        """Whether any shard pool is currently held."""
        return bool(self._pools)

    def _pool(self, shard):
        pool = self._pools.get(shard)
        if pool is None:
            from concurrent.futures import ProcessPoolExecutor

            pool = ProcessPoolExecutor(
                max_workers=1,
                mp_context=_resolve_mp_context(self._mp_context),
                initializer=_name_worker_process,
                initargs=(f"repro-resident-shard-{shard}",),
            )
            self._pools[shard] = pool
            self._gens[shard] = self._gens.get(shard, -1) + 1
        return pool

    def generation(self, shard):
        """The shard pool's incarnation number (creates it if absent)."""
        self._pool(shard)
        return self._gens[shard]

    def run(self, batches):
        """Submit each shard's messages to its own pool; gather in order."""
        from concurrent.futures.process import BrokenProcessPool

        futures = [
            (shard, self._pool(shard).submit(
                _run_resident_batch, shard, list(messages)
            ))
            for shard, messages in batches
        ]
        results = []
        for shard, future in futures:
            try:
                results.append(future.result())
            except BrokenProcessPool as exc:
                self._discard(shard)
                raise ShardWorkerCrashed(shard, exc) from exc
        return results

    def probe(self, shard):
        """Health check: ``(pid, name, kernel, population)`` for a shard."""
        return self.run([(shard, [("probe",)])])[0][0]

    def _discard(self, shard):
        pool = self._pools.pop(shard, None)
        if pool is not None:
            pool.shutdown(wait=False, cancel_futures=True)

    def restart(self, shard):
        """Gracefully retire one shard's worker process; the next use
        re-creates the pool under a new generation."""
        pool = self._pools.pop(shard, None)
        if pool is not None:
            pool.shutdown(wait=True)

    def close(self):
        """Shut every shard pool down (idempotent; survives crashes)."""
        for shard in list(self._pools):
            self._discard(shard)

    def __repr__(self):
        return f"ResidentProcessExecutor(mp_context={self._mp_context!r})"


def resolve_executor(spec):
    """Turn an executor spec into a resident transport instance.

    Args:
        spec: ``None`` (serial), one of the :data:`BACKENDS` names, or a
            ready-made resident transport — any object with
            ``run(batches)``, ``generation(shard)``, and ``close()`` is
            accepted as-is.

    Returns:
        The resident transport instance.

    Raises:
        ValueError: for unknown names or objects missing the surface.
    """
    if spec is None or spec == "serial":
        return ResidentSerialExecutor()
    if spec == "process":
        return ResidentProcessExecutor()
    if (
        callable(getattr(spec, "run", None))
        and callable(getattr(spec, "generation", None))
        and callable(getattr(spec, "close", None))
    ):
        return spec
    raise ValueError(
        f"executor must be None, one of {BACKENDS}, or an object with "
        f"run()/generation()/close() methods, got {spec!r}"
    )
