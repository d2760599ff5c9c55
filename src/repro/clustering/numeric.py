"""Vectorized numeric backend for the per-tick hot kernels.

Everything the streaming pipeline pays for per tick bottoms out in three
kernels: the eps-neighbourhood queries behind snapshot DBSCAN, the
dirty-region neighbourhood patching of the incremental clusterer, and
the candidate-cluster matching join of the tracker.  The classic
implementations walk Python dicts and sets point by point; this module
provides drop-in *batch* implementations over contiguous storage:

* :class:`PositionStore` — object positions as two parallel contiguous
  ``float64`` columns with an id↔row map (swap-remove keeps the columns
  dense under churn).  Storage is a stdlib ``array('d')`` pair; when
  numpy is importable the kernels take zero-copy ``frombuffer`` views
  over the very same buffers, and when it is not they fall back to
  ``memoryview`` scans — numpy is an optional accelerator, never a
  dependency.
* :class:`VectorGridIndex` — the same exact uniform-grid contract as
  :class:`repro.clustering.grid_index.GridIndex` (identical neighbour
  *sets* for every query), plus batch entry points: cell ids for the
  whole store computed by one vectorized floor-divide, and eps-disk
  queries grouped by grid cell so each 3×3 candidate block is gathered
  once and filtered by a single squared-distance broadcast per group.
* :func:`match_candidates_vector` — a drop-in for
  :func:`repro.core.candidates.match_candidates`: cluster members and
  candidate object sets are interned to dense int ids; because snapshot
  clusters are disjoint the whole batch reduces to one owner-table join
  (a gather plus one ``bincount`` over every candidate's id array when
  numpy is present, a hash-join otherwise) instead of ``jobs ×
  clusters`` pairwise set intersections; overlapping cluster families —
  legal under the kernel contract, never produced by DBSCAN — take the
  general sorted-array merge-intersection path.  The function is pure
  and picklable, so resident shard workers
  (:mod:`repro.streaming.executor`) resolve and run it exactly like the
  classic kernel.

Exactness: every kernel computes the same squared-distance expression,
the same floor-divide cell ids, and the same intersection sets as its
pure-Python counterpart, so outputs are bit-for-bit interchangeable —
the differential suites (``tests/clustering/test_numeric.py``,
``tests/streaming/test_vector_equivalence.py``) run both backends in
lockstep and hold them equal, with and without numpy installed.
"""

from __future__ import annotations

from array import array

from repro.clustering.grid_index import GridIndex

try:  # numpy is optional: kernels fall back to array('d')/memoryview.
    import numpy as np
except ImportError:  # pragma: no cover - exercised via the import shim
    np = None

#: Numeric backend names accepted wherever ``backend=`` is threaded
#: through (dbscan, the incremental clusterer, the candidate tracker,
#: the streaming engine, ``cmc()``, and ``stream --backend``).
NUMERIC_BACKENDS = ("python", "vector")

#: Match-kernel names accepted wherever ``match_kernel=`` is threaded
#: through (the candidate trackers, the streaming engine, ``cmc()``,
#: and ``stream --match-kernel``).  ``scalar`` is the pure-Python
#: pairwise kernel, ``merge`` the sorted-array merge-intersection
#: kernel, ``bitset`` the packed-word popcount kernel, and ``auto``
#: picks between the three per tick via :class:`KernelDispatch`.
MATCH_KERNELS = ("auto", "scalar", "merge", "bitset")

#: Queries broadcast against a 3×3 candidate block in slices of this
#: many rows, bounding the temporary distance matrix.
_QUERY_CHUNK = 1024

#: The bitset kernel broadcasts job rows against cluster rows in blocks
#: of at most this many ``uint64`` temporaries (16 MiB).
_BITSET_BLOCK_WORDS = 1 << 21


def have_numpy():
    """Whether the vector kernels are currently numpy-accelerated."""
    return np is not None


def validate_backend(backend):
    """Return a normalized backend name; reject unknown ones loudly."""
    if backend is None:
        return "python"
    if backend not in NUMERIC_BACKENDS:
        raise ValueError(
            f"backend must be one of {NUMERIC_BACKENDS}, got {backend!r}"
        )
    return backend


def validate_match_kernel(kernel):
    """Return a validated match-kernel name; reject unknown ones loudly.

    ``None`` is passed through and means "follow the numeric backend"
    (the pre-dispatch default).  Anything else must be one of
    :data:`MATCH_KERNELS` — unknown names raise a :class:`ValueError`
    that names the offending value and lists the valid choices, so a
    typo at the miner / ``cmc()`` / CLI layer never surfaces as a bare
    :class:`KeyError` from a registry lookup.
    """
    if kernel is None:
        return None
    if kernel not in MATCH_KERNELS:
        raise ValueError(
            f"match kernel must be one of {MATCH_KERNELS}, got {kernel!r}"
        )
    return kernel


class PositionStore:
    """Dense contiguous ``(x, y)`` columns with an id↔row map.

    Rows are kept dense under removal by swap-remove: the last row moves
    into the vacated slot, so the columns never fragment and batch
    kernels can view them as one contiguous ``float64`` block.
    """

    __slots__ = ("_xs", "_ys", "_ids", "_rows")

    def __init__(self):
        self._xs = array("d")
        self._ys = array("d")
        self._ids = []  # row -> item id
        self._rows = {}  # item id -> row

    def __len__(self):
        return len(self._ids)

    def __contains__(self, item_id):
        return item_id in self._rows

    def ids(self):
        """The stored ids in row order (a copy)."""
        return list(self._ids)

    def row_of(self, item_id):
        """Current row of an id (rows move under swap-remove)."""
        return self._rows[item_id]

    def add(self, item_id, x, y):
        """Append one position; duplicate ids are rejected."""
        if item_id in self._rows:
            raise ValueError(f"duplicate item id {item_id!r}")
        self._rows[item_id] = len(self._ids)
        self._ids.append(item_id)
        self._xs.append(x)
        self._ys.append(y)

    def remove(self, item_id):
        """Swap-remove one position; unknown ids raise KeyError."""
        row = self._rows.pop(item_id)
        last = len(self._ids) - 1
        if row != last:
            moved = self._ids[last]
            self._ids[row] = moved
            self._rows[moved] = row
            self._xs[row] = self._xs[last]
            self._ys[row] = self._ys[last]
        self._ids.pop()
        self._xs.pop()
        self._ys.pop()

    def set(self, item_id, x, y):
        """Overwrite an id's position in place."""
        row = self._rows[item_id]
        self._xs[row] = x
        self._ys[row] = y

    def get(self, item_id):
        """The stored ``(x, y)`` of an id."""
        row = self._rows[item_id]
        return (self._xs[row], self._ys[row])

    def columns(self):
        """Zero-copy views over the coordinate columns.

        Numpy ``float64`` views when numpy is available, ``memoryview``
        pairs otherwise — either way reads go straight to the
        ``array('d')`` buffers, no copies.  Views are only valid until
        the next mutation (appends may reallocate).
        """
        if np is not None and len(self._ids):
            return (
                np.frombuffer(self._xs, dtype=np.float64),
                np.frombuffer(self._ys, dtype=np.float64),
            )
        return memoryview(self._xs), memoryview(self._ys)


class VectorGridIndex:
    """Uniform grid over a :class:`PositionStore`, batch-query capable.

    The single-query surface (``insert`` / ``remove`` / ``move`` /
    ``neighbors_within`` / ``neighbors_of``) matches
    :class:`~repro.clustering.grid_index.GridIndex` exactly — same
    validation, same neighbour sets — so the incremental clusterer can
    swap one for the other.  The batch entry points are where the
    backend earns its keep: :meth:`neighbors_within_batch` groups
    queries by grid cell and filters each group's 3×3 candidate block
    with one squared-distance broadcast, and :meth:`all_neighbors`
    answers the full-pass "every point's eps-disk" question that way.
    """

    def __init__(self, cell_size, points=None):
        if cell_size <= 0:
            raise ValueError(f"cell_size must be positive, got {cell_size}")
        self._cell_size = float(cell_size)
        self._cells = {}  # (gx, gy) -> {item_id: None}
        self._store = PositionStore()
        if points:
            self._bulk_load(points)

    def __len__(self):
        return len(self._store)

    def __contains__(self, item_id):
        return item_id in self._store

    @property
    def cell_size(self):
        """The configured cell side length."""
        return self._cell_size

    def _cell_of(self, xy):
        return (int(xy[0] // self._cell_size), int(xy[1] // self._cell_size))

    def _bulk_load(self, points):
        """Load a whole snapshot: one vectorized cell-id pass when numpy
        is available, the scalar loop otherwise (identical cells)."""
        store = self._store
        for item_id, xy in points.items():
            GridIndex._check_finite(item_id, xy)
            store.add(item_id, xy[0], xy[1])
        ids = store._ids
        if np is not None and ids:
            xs, ys = store.columns()
            gx = np.floor_divide(xs, self._cell_size).astype(np.int64)
            gy = np.floor_divide(ys, self._cell_size).astype(np.int64)
            cells = self._cells
            for row, item_id in enumerate(ids):
                cell = (int(gx[row]), int(gy[row]))
                bucket = cells.get(cell)
                if bucket is None:
                    bucket = cells[cell] = {}
                bucket[item_id] = None
        else:
            for item_id in ids:
                cell = self._cell_of(store.get(item_id))
                bucket = self._cells.get(cell)
                if bucket is None:
                    bucket = self._cells[cell] = {}
                bucket[item_id] = None

    def insert(self, item_id, xy):
        """Insert one point; duplicate ids / non-finite coords rejected."""
        if item_id in self._store:
            raise ValueError(f"duplicate item id {item_id!r}")
        GridIndex._check_finite(item_id, xy)
        self._store.add(item_id, xy[0], xy[1])
        self._cells.setdefault(self._cell_of(xy), {})[item_id] = None

    def remove(self, item_id):
        """Remove a point; unknown ids raise :class:`KeyError`."""
        if item_id not in self._store:
            raise KeyError(f"unknown item id {item_id!r}")
        cell = self._cell_of(self._store.get(item_id))
        self._store.remove(item_id)
        bucket = self._cells[cell]
        del bucket[item_id]
        if not bucket:
            del self._cells[cell]

    def move(self, item_id, xy):
        """Update a position, re-bucketing only on a cell change."""
        if item_id not in self._store:
            raise KeyError(f"unknown item id {item_id!r}")
        GridIndex._check_finite(item_id, xy)
        old_cell = self._cell_of(self._store.get(item_id))
        new_cell = self._cell_of(xy)
        self._store.set(item_id, xy[0], xy[1])
        if old_cell != new_cell:
            bucket = self._cells[old_cell]
            del bucket[item_id]
            if not bucket:
                del self._cells[old_cell]
            self._cells.setdefault(new_cell, {})[item_id] = None

    def location_of(self, item_id):
        """Return the stored ``(x, y)`` of an item."""
        return self._store.get(item_id)

    def _block_ids(self, cell, reach):
        """Every stored id in the ``(2*reach+1)²`` block around a cell."""
        cx, cy = cell
        cells = self._cells
        out = []
        for gx in range(cx - reach, cx + reach + 1):
            for gy in range(cy - reach, cy + reach + 1):
                bucket = cells.get((gx, gy))
                if bucket:
                    out.extend(bucket)
        return out

    def neighbors_within(self, xy, radius):
        """Ids of all points with ``D(xy, point) <= radius`` (exact)."""
        return self.neighbors_within_batch((xy,), radius)[0]

    def neighbors_of(self, item_id, radius):
        """``NH_radius`` of a stored item (including the item itself)."""
        return self.neighbors_within(self._store.get(item_id), radius)

    def neighbors_within_batch(self, queries, radius):
        """Answer many eps-disk queries in one batched pass.

        Args:
            queries: sequence of ``(x, y)`` query points.
            radius: non-negative query radius.

        Returns:
            List parallel to ``queries``; entry ``i`` lists the ids of
            every stored point within ``radius`` of ``queries[i]`` —
            the same *set* per query that
            :meth:`GridIndex.neighbors_within` returns.
        """
        if radius < 0:
            raise ValueError(f"radius must be non-negative, got {radius}")
        results = [None] * len(queries)
        if not len(self._store):
            for qi in range(len(queries)):
                results[qi] = []
            return results
        reach = int(radius // self._cell_size) + 1
        by_cell = {}
        for qi, xy in enumerate(queries):
            by_cell.setdefault(self._cell_of(xy), []).append(qi)
        for cell, group in by_cell.items():
            block = self._block_ids(cell, reach)
            if not block:
                for qi in group:
                    results[qi] = []
                continue
            if np is not None:
                self._filter_block_numpy(queries, group, block, radius,
                                         results)
            else:
                self._filter_block_python(queries, group, block, radius,
                                          results)
        return results

    def _filter_block_numpy(self, queries, group, block, radius, results):
        """Broadcast one squared-distance filter per query chunk."""
        store = self._store
        rows = np.fromiter(
            (store._rows[i] for i in block), dtype=np.intp, count=len(block)
        )
        xs, ys = store.columns()
        bx = xs[rows]
        by = ys[rows]
        radius2 = radius * radius
        for start in range(0, len(group), _QUERY_CHUNK):
            chunk = group[start:start + _QUERY_CHUNK]
            qx = np.fromiter(
                (queries[qi][0] for qi in chunk), dtype=np.float64,
                count=len(chunk),
            )
            qy = np.fromiter(
                (queries[qi][1] for qi in chunk), dtype=np.float64,
                count=len(chunk),
            )
            dx = bx[None, :] - qx[:, None]
            dy = by[None, :] - qy[:, None]
            mask = dx * dx + dy * dy <= radius2
            for k, qi in enumerate(chunk):
                results[qi] = [
                    block[j] for j in np.nonzero(mask[k])[0].tolist()
                ]

    def _filter_block_python(self, queries, group, block, radius, results):
        """The same filter over memoryviews (no-numpy fallback)."""
        store = self._store
        xs, ys = store.columns()
        store_rows = store._rows
        rows = [store_rows[i] for i in block]
        radius2 = radius * radius
        for qi in group:
            x, y = queries[qi]
            hits = []
            for item_id, row in zip(block, rows):
                dx = xs[row] - x
                dy = ys[row] - y
                if dx * dx + dy * dy <= radius2:
                    hits.append(item_id)
            results[qi] = hits

    def all_neighbors(self, radius):
        """Every stored point's eps-disk in one batch.

        Returns:
            Dict ``{item_id: [neighbor ids]}`` covering every stored
            point (each point's own id included, at distance zero).
        """
        store = self._store
        ids = store.ids()
        queries = [store.get(item_id) for item_id in ids]
        return dict(zip(ids, self.neighbors_within_batch(queries, radius)))


# -- the matching kernel ----------------------------------------------------


def match_candidates_vector(members, jobs, min_objects):
    """Batch candidate–cluster matching; drop-in for ``match_candidates``.

    Same contract as :func:`repro.core.candidates.match_candidates` —
    same arguments, same ``(pos, [(cluster_index, intersection)])``
    output in job order with matches in scan order — but the
    ``jobs × clusters`` pairwise set intersections are replaced by a
    batch join: every cluster member is interned to a dense int id, and
    since snapshot clusters are disjoint each object names its *owner*
    cluster, so one pass over each candidate's id array yields its
    intersection size with **every** cluster at once (a gather plus one
    ``bincount`` under numpy, a hash-join without).  Cluster families
    with overlapping members — legal under the kernel contract, never
    produced by density clustering — fall back to sorted-array
    merge-intersection per scanned pair.

    Pure and picklable by construction, exactly like the classic
    kernel, so resident shard workers run it unchanged.
    """
    if not jobs:
        return []
    if not members:
        return [(pos, []) for pos, _objects, _scan in jobs]
    owner_of = {}
    disjoint = True
    for index, cluster in enumerate(members):
        for obj in cluster:
            if obj in owner_of:
                disjoint = False
                break
            owner_of[obj] = index
        if not disjoint:
            break
    if not disjoint:
        return _match_merge_intersect(members, jobs, min_objects)
    n_clusters = len(members)
    if np is not None:
        counts = _owner_join_counts_numpy(owner_of, jobs, n_clusters)
    else:
        counts = _owner_join_counts_python(owner_of, jobs, n_clusters)
    out = []
    for j, (pos, objects, scan) in enumerate(jobs):
        row = counts[j]
        if scan is None:
            indexes = [index for index in row if row[index] >= min_objects]
            indexes.sort()
        else:
            indexes = [
                index for index in scan if row.get(index, 0) >= min_objects
            ]
        matches = [
            (index,
             frozenset(obj for obj in objects if obj in members[index]))
            for index in indexes
        ]
        out.append((pos, matches))
    return out


def _owner_join_counts_numpy(owner_of, jobs, n_clusters):
    """Per-job intersection sizes with every cluster, via one gather +
    one ``bincount`` over the concatenated candidate id arrays."""
    segments = []
    codes = []
    for j, (_pos, objects, _scan) in enumerate(jobs):
        hits = [owner_of[obj] for obj in objects if obj in owner_of]
        codes.extend(hits)
        segments.extend([j] * len(hits))
    if not codes:
        return [{} for _ in jobs]
    owners = np.fromiter(codes, dtype=np.int64, count=len(codes))
    seg = np.fromiter(segments, dtype=np.int64, count=len(segments))
    flat = np.bincount(
        seg * n_clusters + owners, minlength=len(jobs) * n_clusters
    ).reshape(len(jobs), n_clusters)
    rows = []
    for j in range(len(jobs)):
        nz = np.nonzero(flat[j])[0]
        rows.append({
            int(index): int(flat[j][index]) for index in nz.tolist()
        })
    return rows


def _owner_join_counts_python(owner_of, jobs, n_clusters):
    """The same per-job owner counts as a pure hash-join (no numpy)."""
    rows = []
    for _pos, objects, _scan in jobs:
        row = {}
        for obj in objects:
            index = owner_of.get(obj)
            if index is not None:
                row[index] = row.get(index, 0) + 1
        rows.append(row)
    return rows


def _match_merge_intersect(members, jobs, min_objects):
    """General (overlapping-cluster) path: sorted int-id arrays, one
    merge-intersection per scanned pair."""
    code_of = {}
    for cluster in members:
        for obj in cluster:
            if obj not in code_of:
                code_of[obj] = len(code_of)
    encoded = [
        _sorted_codes(cluster, code_of, all_known=True)
        for cluster in members
    ]
    full_scan = range(len(members))
    out = []
    for pos, objects, scan in jobs:
        cand = _sorted_codes(objects, code_of, all_known=False)
        matches = []
        for index in (full_scan if scan is None else scan):
            common = _merge_intersect_size(cand, encoded[index])
            if common >= min_objects:
                matches.append((
                    index,
                    _intersection(objects, members[index], common),
                ))
        out.append((pos, matches))
    return out


def _sorted_codes(objects, code_of, all_known):
    """Encode a set of objects as a sorted int-id array."""
    if all_known:
        values = [code_of[obj] for obj in objects]
    else:
        values = [
            code_of[obj] for obj in objects if obj in code_of
        ]
    values.sort()
    if np is not None:
        return np.fromiter(values, dtype=np.int64, count=len(values))
    return values


def _merge_intersect_size(left, right):
    """|left ∩ right| for two sorted unique int-id arrays."""
    if np is not None:
        return int(
            np.intersect1d(left, right, assume_unique=True).size
        )
    i = j = size = 0
    nl, nr = len(left), len(right)
    while i < nl and j < nr:
        a, b = left[i], right[j]
        if a == b:
            size += 1
            i += 1
            j += 1
        elif a < b:
            i += 1
        else:
            j += 1
    return size


def match_candidates_merge(members, jobs, min_objects):
    """The ``merge`` match kernel: one sorted-array merge-intersection
    per scanned pair.

    Same contract as :func:`repro.core.candidates.match_candidates`.
    This is the general representation tier the vector kernel falls back
    to on overlapping cluster families, exposed as a named kernel so the
    dispatcher (and benchmarks) can select it unconditionally.  Pure and
    picklable, like every match kernel.
    """
    if not jobs:
        return []
    if not members:
        return [(pos, []) for pos, _objects, _scan in jobs]
    return _match_merge_intersect(members, jobs, min_objects)


# -- the bitset tier --------------------------------------------------------


def bitset_remap(jobs):
    """Dense id remap over the live population of a tick's jobs.

    Returns ``{object id: bit index}`` covering every candidate object
    in first-seen order.  Cluster ids outside the remap cannot appear in
    any candidate-cluster intersection, so clusters are encoded through
    the same remap with unknown ids simply skipped.
    """
    # dict.fromkeys + one enumerate comprehension keep the per-tick
    # remap build at C speed — a Python insert loop over 10^5 ids would
    # rival the packed intersection pass it exists to enable.
    seen = {}
    for _pos, objects, _scan in jobs:
        seen.update(dict.fromkeys(objects))
    return {obj: bit for bit, obj in enumerate(seen)}


def match_candidates_bitset(members, jobs, min_objects):
    """The ``bitset`` match kernel: word-AND + popcount over packed rows.

    Same contract as :func:`repro.core.candidates.match_candidates`.
    Candidate and cluster object sets are packed into ``np.uint64``
    bitset rows over a dense per-tick id remap built from the jobs, and
    every scanned intersection size is computed as
    ``popcount(candidate_row & cluster_row)`` over a 2-D block — one
    vectorized pass for the whole batch instead of a per-pair merge.  Without numpy the rows are Python ``int`` bitmasks
    and the popcount is :meth:`int.bit_count` — still one C-speed AND
    per pair.  Pure and picklable, like every match kernel.
    """
    if not jobs:
        return []
    if not members:
        return [(pos, []) for pos, _objects, _scan in jobs]
    remap = bitset_remap(jobs)
    if np is None:
        return _match_bitset_python(members, jobs, min_objects, remap)
    words = max(1, (len(remap) + 63) >> 6)
    job_rows = _pack_rows_numpy(
        [objects for _pos, objects, _scan in jobs], remap, words,
        all_known=True,
    )
    cluster_rows = _pack_rows_numpy(members, remap, words)
    counts = _bitset_counts_numpy(job_rows, cluster_rows)
    out = []
    for j, (pos, objects, scan) in enumerate(jobs):
        row = counts[j]
        if scan is None:
            indexes = np.nonzero(row >= min_objects)[0].tolist()
        else:
            indexes = [
                index for index in scan if row[index] >= min_objects
            ]
        out.append((pos, [
            (index, _intersection(objects, members[index], row[index]))
            for index in indexes
        ]))
    return out


def _intersection(objects, cluster, common):
    """The matched pair's intersection set, from its known size.

    When the count says every candidate object is inside the cluster —
    the steady state of a stable convoy — the intersection *is* the
    candidate's set, so the elementwise membership filter is skipped.
    """
    if common == len(objects):
        return (objects if isinstance(objects, frozenset)
                else frozenset(objects))
    return frozenset(obj for obj in objects if obj in cluster)


def _pack_rows_numpy(sets, remap, words, all_known=False):
    """Pack object-id sets into ``uint64`` bitset rows over a remap.

    Ids outside the remap are skipped unless ``all_known`` (job sets are
    covered by construction — the trusted path skips the membership
    test and a missing id is a caller bug raising KeyError).  The rows
    are built as one boolean matrix packed along the bit axis, so the
    per-object Python work is a single C-speed ``map`` per set.
    """
    bits = np.zeros((len(sets), words * 64), dtype=bool)
    lookup = remap.__getitem__ if all_known else remap.get
    for i, objects in enumerate(sets):
        if all_known:
            codes = np.fromiter(
                map(lookup, objects), dtype=np.int64, count=len(objects)
            )
        else:
            hits = [code for code in map(lookup, objects)
                    if code is not None]
            if not hits:
                continue
            codes = np.fromiter(hits, dtype=np.int64, count=len(hits))
        bits[i, codes] = True
    # Bit order within a byte is packbits' big-endian convention; both
    # sides of every AND use it, and popcount is order-blind.
    return np.packbits(bits, axis=1).view(np.uint64)


_POPCOUNT16 = None


def _popcount_table():
    """65536-entry popcount table for numpy builds without
    ``np.bitwise_count`` (added in numpy 2.0)."""
    global _POPCOUNT16
    if _POPCOUNT16 is None:
        _POPCOUNT16 = np.fromiter(
            (value.bit_count() for value in range(65536)),
            dtype=np.uint8, count=65536,
        )
    return _POPCOUNT16


def _bitset_counts_numpy(job_rows, cluster_rows):
    """``popcount(job_row & cluster_row)`` for every (job, cluster)
    pair, as an ``(n_jobs, n_clusters)`` int64 matrix, broadcast in
    blocks bounded by :data:`_BITSET_BLOCK_WORDS` temporaries."""
    n_jobs, words = job_rows.shape
    n_clusters = cluster_rows.shape[0]
    counts = np.empty((n_jobs, n_clusters), dtype=np.int64)
    chunk = max(1, _BITSET_BLOCK_WORDS // max(1, n_clusters * words))
    native = hasattr(np, "bitwise_count")
    for start in range(0, n_jobs, chunk):
        block = job_rows[start:start + chunk, None, :] & cluster_rows
        if native:
            counts[start:start + chunk] = np.bitwise_count(block).sum(
                axis=2, dtype=np.int64
            )
        else:
            table = _popcount_table()
            halves = block.view(np.uint16).reshape(
                block.shape[0], n_clusters, words * 4
            )
            counts[start:start + chunk] = table[halves].sum(
                axis=2, dtype=np.int64
            )
    return counts


def _match_bitset_python(members, jobs, min_objects, remap):
    """The bitset kernel over Python ``int`` bitmasks (no-numpy path)."""
    cluster_masks = []
    for cluster in members:
        mask = 0
        for obj in cluster:
            bit = remap.get(obj)
            if bit is not None:
                mask |= 1 << bit
        cluster_masks.append(mask)
    full_scan = range(len(members))
    out = []
    for pos, objects, scan in jobs:
        row = 0
        for obj in objects:
            row |= 1 << remap[obj]
        matches = []
        for index in (full_scan if scan is None else scan):
            common = (row & cluster_masks[index]).bit_count()
            if common >= min_objects:
                matches.append((
                    index,
                    _intersection(objects, members[index], common),
                ))
        out.append((pos, matches))
    return out


# -- adaptive kernel dispatch -----------------------------------------------


class MatchPlanStats:
    """Shape of one tick's match join, as seen by the plan pass.

    The candidate tracker's plan pass computes these counts from the
    tick's jobs before any kernel runs; :class:`KernelDispatch` turns
    them into per-kernel work-unit features.  ``population`` bounds the
    bitset remap width from above (the plan pass reports total job ids
    rather than paying for an exact distinct count — the cost fit only
    needs a consistently scaling feature).
    """

    __slots__ = (
        "jobs", "clusters", "pairs", "job_ids", "member_ids", "scan_ids",
        "population",
    )

    def __init__(self, jobs, clusters, pairs, job_ids, member_ids,
                 scan_ids, population):
        self.jobs = jobs
        self.clusters = clusters
        self.pairs = pairs
        self.job_ids = job_ids
        self.member_ids = member_ids
        self.scan_ids = scan_ids
        self.population = population

    @property
    def density(self):
        """Mean candidate-set size as a fraction of the population."""
        if not self.jobs or not self.population:
            return 0.0
        return (self.job_ids / self.jobs) / self.population


class KernelDispatch:
    """Adaptive per-tick choice between the fixed match kernels.

    Same estimator shape as
    :class:`repro.clustering.incremental.AdaptiveChurnThreshold`: for
    each kernel the dispatcher keeps an EWMA affine fit of observed
    per-tick seconds against a work-unit feature derived from the plan
    pass's :class:`MatchPlanStats` (scanned candidate ids for
    ``scalar``; encode volume plus per-pair overhead for ``merge``;
    encode volume plus ``pairs × words`` for ``bitset``).  ``choose``
    predicts each kernel's cost for the tick and picks the cheapest;
    ``observe`` feeds the measured cost of whichever kernel ran back
    into its fit.

    Cold start is guarded two ways: each kernel is run
    ``explore_rounds`` times before predictions are trusted (even on
    tiny ticks, where mispricing costs microseconds, so exploration
    always finishes within the first ``3 × explore_rounds`` ticks), and
    after exploration any tick whose scalar work-unit count falls below
    ``explore_floor`` runs the scalar kernel unconditionally — small
    deltas never pay batch overhead just to learn it is not worth it,
    which is the fix for the small-delta regime where batching loses.

    Predictions in the scalar/batch crossover zone sit well inside
    per-tick timing noise, so a raw argmin would flip on noise and
    could settle on the wrong side.  Two guards keep the choice robust
    there.  First, a *decisive-gain bias*: a batch kernel (``merge`` /
    ``bitset``) is picked only when predicted at least
    ``batch_margin`` times cheaper than ``scalar`` — close races go to
    the kernel with no batch setup and the lowest variance, and
    batching must earn its overhead decisively.

    Second, a fit is only updated when its kernel runs, so the
    runner-up's fit would otherwise freeze at whatever (possibly
    noise-inflated) state it had when the dispatcher last left it — a
    feedback loop that can pin a close race on the wrong side.  The
    *staleness probe* breaks it: a kernel unobserved for
    ``refresh_every`` predicted ticks whose
    predicted cost is within ``refresh_margin`` of the winner's gets
    one tick to refresh its fit.  Clear losers (outside the margin)
    are never probed, so a hopeless kernel costs nothing after its
    exploration rounds.  Correctness never depends on the choice:
    every fixed kernel is bit-for-bit equivalent, the estimate only
    moves time.
    """

    KERNELS = ("scalar", "merge", "bitset")

    def __init__(self, alpha=0.25, explore_rounds=2, explore_floor=4096,
                 refresh_every=16, refresh_margin=2.0, batch_margin=1.15):
        if not 0.0 < alpha <= 1.0:
            raise ValueError(f"alpha must be in (0, 1], got {alpha}")
        if explore_rounds < 1:
            raise ValueError(
                f"explore_rounds must be at least 1, got {explore_rounds}"
            )
        if explore_floor < 0:
            raise ValueError(
                f"explore_floor must be non-negative, got {explore_floor}"
            )
        if refresh_every < 1:
            raise ValueError(
                f"refresh_every must be at least 1, got {refresh_every}"
            )
        if refresh_margin < 1.0:
            raise ValueError(
                f"refresh_margin must be at least 1.0, got {refresh_margin}"
            )
        if batch_margin < 1.0:
            raise ValueError(
                f"batch_margin must be at least 1.0, got {batch_margin}"
            )
        self._batch_margin = float(batch_margin)
        self._alpha = float(alpha)
        self._rounds = int(explore_rounds)
        self._floor = float(explore_floor)
        self._refresh = int(refresh_every)
        self._margin = float(refresh_margin)
        self._ticks = 0  # predicted (post-exploration, above-floor) ticks
        self._last_run = dict.fromkeys(self.KERNELS, 0)
        # Per-kernel EWMA moments: observations, E[u], E[s], E[u²], E[u·s].
        self._seen = dict.fromkeys(self.KERNELS, 0)
        self._mu = dict.fromkeys(self.KERNELS, 0.0)
        self._ms = dict.fromkeys(self.KERNELS, 0.0)
        self._muu = dict.fromkeys(self.KERNELS, 0.0)
        self._mus = dict.fromkeys(self.KERNELS, 0.0)

    def units(self, stats):
        """Per-kernel work-unit features for one tick's plan stats."""
        words = max(1, (stats.population + 63) >> 6)
        encode = stats.job_ids + stats.member_ids
        return {
            "scalar": float(max(1, stats.scan_ids)),
            "merge": float(max(
                1, encode + stats.scan_ids + 32 * stats.pairs
            )),
            "bitset": float(max(1, 32 * encode + stats.pairs * words)),
        }

    def choose(self, stats):
        """Pick the kernel name predicted cheapest for this tick."""
        units = self.units(stats)
        for name in self.KERNELS:
            if self._seen[name] < self._rounds:
                return name
        if units["scalar"] < self._floor:
            return "scalar"
        predicted = {
            name: self._predict(name, units[name]) for name in self.KERNELS
        }
        best = min(self.KERNELS, key=predicted.__getitem__)
        if (best != "scalar"
                and predicted[best] * self._batch_margin
                > predicted["scalar"]):
            best = "scalar"
        self._ticks += 1
        stale = [
            name for name in self.KERNELS
            if name != best
            and self._ticks - self._last_run[name] >= self._refresh
            and predicted[name] <= self._margin * predicted[best]
        ]
        pick = min(stale, key=self._last_run.__getitem__) if stale else best
        self._last_run[pick] = self._ticks
        return pick

    def observe(self, name, stats, seconds):
        """Fold one measured tick into the chosen kernel's fit."""
        if name not in self._seen:
            raise ValueError(
                f"kernel must be one of {self.KERNELS}, got {name!r}"
            )
        u = self.units(stats)[name]
        s = max(0.0, float(seconds))
        self._seen[name] += 1
        self._mu[name] = self._ewma(self._mu[name], u, self._seen[name])
        self._ms[name] = self._ewma(self._ms[name], s, self._seen[name])
        self._muu[name] = self._ewma(self._muu[name], u * u,
                                     self._seen[name])
        self._mus[name] = self._ewma(self._mus[name], u * s,
                                     self._seen[name])

    def _ewma(self, current, observation, seen):
        if seen == 1:
            return float(observation)
        return current + self._alpha * (observation - current)

    def _predict(self, name, units):
        """Predicted seconds for a tick of ``units`` work on a kernel."""
        mu, ms = self._mu[name], self._ms[name]
        spread = self._muu[name] - mu * mu
        if spread > 1e-12:
            slope = (self._mus[name] - mu * ms) / spread
            if slope > 0.0:
                intercept = max(0.0, ms - slope * mu)
                return intercept + slope * units
        # Degenerate fit (constant units so far, or noise-dominated
        # negative slope): fall back to the mean per-unit rate.
        if mu > 0.0:
            return ms / mu * units
        return ms
