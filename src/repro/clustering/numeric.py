"""Vectorized numeric backend for the snapshot-clustering index.

Snapshot DBSCAN and the incremental clusterer's dirty-region patching
both bottom out in eps-neighbourhood queries.  The classic
:class:`~repro.clustering.grid_index.GridIndex` answers them point by
point over Python dicts; this module provides a drop-in *batch* index
over contiguous storage, selected with ``backend="vector"``:

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

The backend selects only this index.  The candidate-match join picks
its own kernel per tick (:func:`repro.core.candidates.match_candidates`).

Exactness: every query computes the same squared-distance expression
and the same floor-divide cell ids as its pure-Python counterpart, so
neighbour sets are bit-for-bit interchangeable — the differential
suites (``tests/clustering/test_numeric.py``,
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
#: through (dbscan, the incremental clusterer, the streaming engine,
#: ``cmc()``, and ``stream --backend``).
NUMERIC_BACKENDS = ("python", "vector")

#: Queries broadcast against a 3×3 candidate block in slices of this
#: many rows, bounding the temporary distance matrix.
_QUERY_CHUNK = 1024


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
