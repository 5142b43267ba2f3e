"""Sparse rows: the storage format of the model's ``E`` and ``A``.

:class:`RowSparse` keeps a real matrix as ELLPACK rows and takes its
products with dense blocks by gathers, so a model of ``n`` states with a
few entries a row costs its entries, not ``n^2``.  :mod:`daereach.linalg`
re-exports it beside :func:`~daereach.linalg.as_rows`, which checks a
matrix into this form.  The type is a file of its own because the package
is imported from source where no bytecode cache is written, and compiling
one module the size of both peaks at about 1 MB more than either alone.
"""

import operator

import numpy as np

__all__ = ["RowSparse"]

# A row-sparse matrix is kept dense, and takes its products by GEMM, below
# this many rows and columns or when its widest row fills more than
# 1/_ROWS_MAX_FILL of its columns.  Each slot of a product is a gather, a
# scaling and a sum over an n x c block, about 3.5 us of numpy calls at
# n = 6: a product with a 6 x 3 block takes 11 us as the three slots of the
# lifted rotating masses against 0.9 us by GEMM, and building those slots
# 14 us.  At n = 407 and c = 121 (Stokes k = 12, the frame's width) GEMM
# takes 0.71 ms and the slots 0.12 ms at width 1, 0.52 ms at 7 and 1.5 ms
# at 20; at n = 1000, 4.4 ms against 1.8 ms at 7 and 5.1 ms at 20 (one BLAS
# thread, best of 5, random columns), so a row of more than about n / 40
# entries is cheaper dense.
_ROWS_MIN_N = 20
_ROWS_MAX_FILL = 32


def _stored(M):
    """The entries of ``M`` that are not +0.0, the one value whose bits are
    all zero (-0.0 is stored, so a dense form given back is the same bit for
    bit)."""
    return M.view(np.uint64) != 0


def _kept_dense(shape, counts=None):
    """Whether a matrix of ``shape`` that stores ``counts[i]`` entries in
    row ``i`` is kept dense (see ``_ROWS_MIN_N``); without ``counts``, by
    its size alone."""
    if max(shape) < _ROWS_MIN_N:
        return True
    return counts is not None and counts.max(initial=0) * _ROWS_MAX_FILL > shape[1]


def _slots(counts, rows, cols, values):
    """ELLPACK ``(columns, values)``, each ``w x n``, of the triples of a
    matrix that stores ``counts[i]`` entries in row ``i``, sorted by row,
    then column, with no repeated index; a matrix with no stored entry has
    one slot of zeros."""
    n = counts.size
    width = int(counts.max(initial=1))
    slot = np.arange(rows.size) - np.repeat(np.cumsum(counts) - counts, counts)
    columns = np.zeros((width, n), dtype=np.intp)
    stored = np.zeros((width, n))
    columns[slot, rows] = cols
    stored[slot, rows] = values
    return columns, stored


class RowSparse:
    """A real matrix kept as sparse rows in ELLPACK storage (Saad,
    *Iterative Methods for Sparse Linear Systems*, 2nd ed., SIAM 2003, 3.4).

    Row ``i`` keeps its stored entries, in increasing column order, in the
    first of ``w`` slots: ``columns[s, i]`` and ``values[s, i]`` are slot
    ``s`` of row ``i``, and a shorter row's last slots hold 0.0 in column 0.
    The two arrays are the format's ``n x w`` arrays stored slot-major, ``w
    x n``, so that each slot's gather ``X[columns[s]]`` reads one contiguous
    row of indices.  Every entry but +0.0 is stored, so :meth:`dense` gives
    back the matrix it was built from bit for bit.

    ``S @ X`` for an ``n x c`` block (or a vector) is ``w`` gathers of rows
    of ``X``, each scaled by its slot's values and summed in slot order: an
    entry of the product sums its row's stored terms in column order, and a
    shorter row adds 0.0 times row 0 of ``X`` for each unused slot.  ``X @
    S`` is the transposed product ``(S^T X^T)^T``.  ``S[rows]`` gathers rows
    and ``S[:, cols]`` gathers columns, and ``S[i, j]`` reads one entry;
    :meth:`minus_columns` and :meth:`minus` subtract from the matrix, and
    :meth:`row_owners` reads the structure that :func:`rank_factors` decides
    by.

    A small matrix, and one whose rows are too full for gathers to pay, is
    kept dense (see ``_ROWS_MIN_N``): it takes its products by GEMM and has
    no slots (``columns`` and ``values`` are ``None``).  Which form is kept
    is decided here alone; callers see one type, which takes the same
    shapes and indices in either form.  Nothing held is writeable, and
    :meth:`dense` hands out the kept dense array itself.  numpy converts
    ``S`` only through ``np.asarray`` (``__array_ufunc__ = None``: no ufunc
    or operator densifies it on the way, and ``ndarray @ S`` comes to
    ``__rmatmul__``).
    """

    __slots__ = ("shape", "columns", "values", "_dense")
    __array_ufunc__ = None

    def __init__(self, shape, columns=None, values=None, dense=None):
        """The matrix of ELLPACK ``columns`` and ``values``, or of ``dense``;
        the arrays are frozen in place, not copied.  Build one with
        :meth:`from_triples` or :meth:`from_dense`."""
        if dense is None:
            columns.flags.writeable = values.flags.writeable = False
            self.shape = (columns.shape[1], int(shape[1]))
        else:
            dense.flags.writeable = False
            self.shape = dense.shape
        self.columns, self.values, self._dense = columns, values, dense

    @classmethod
    def _from_sorted(cls, shape, rows, cols, values):
        """From triples sorted by row, then column, with no repeated index
        and no +0.0 value."""
        counts = None if _kept_dense(shape) else np.bincount(rows, minlength=shape[0])
        if _kept_dense(shape, counts):
            dense = np.zeros(shape)
            dense[rows, cols] = values
            return cls(shape, dense=dense)
        return cls(shape, *_slots(counts, rows, cols, values))

    @classmethod
    def from_triples(cls, shape, rows, cols, values):
        """The ``shape`` matrix whose entry ``(rows[t], cols[t])`` is
        ``values[t]``, zero elsewhere; a repeated index keeps its last value.
        The indices are not checked."""
        rows = np.asarray(rows, dtype=np.intp).reshape(-1)
        cols = np.asarray(cols, dtype=np.intp).reshape(-1)
        values = np.asarray(values, dtype=float).reshape(-1)
        order = np.lexsort((cols, rows))  # stable: repeats keep their order
        rows, cols, values = rows[order], cols[order], values[order]
        last = np.ones(rows.size, dtype=bool)
        last[:-1] = (rows[1:] != rows[:-1]) | (cols[1:] != cols[:-1])
        last &= _stored(values)
        return cls._from_sorted(shape, rows[last], cols[last], values[last])

    @classmethod
    def from_dense(cls, M, copy=True):
        """The matrix of a dense 2-D ``M``: when it is kept dense, ``M``
        itself if it is read-only or not to be copied (it is then frozen),
        else a copy; otherwise its stored entries."""
        M = np.asarray(M, dtype=float)
        stored = counts = None
        if not _kept_dense(M.shape):
            stored = _stored(M)
            counts = np.count_nonzero(stored, axis=1)
        if _kept_dense(M.shape, counts):
            return cls(M.shape, dense=M.copy() if copy and M.flags.writeable else M)
        rows, cols = np.nonzero(stored)
        return cls(M.shape, *_slots(counts, rows, cols, M[rows, cols]))

    @classmethod
    def block_upper(cls, top, right, low):
        """``[[top, right], [0, low]]`` for ``n x n`` rows ``top`` and dense
        ``n x m`` ``right`` and ``m x m`` ``low``: the rows of ``top`` with
        ``right``'s entries merged in, then ``low``'s rows."""
        n, m = right.shape
        shape = (n + m, n + m)
        if max(shape) < _ROWS_MIN_N:
            dense = np.zeros(shape)
            dense[:n, :n], dense[:n, n:], dense[n:, n:] = top.dense(), right, low
            return cls(shape, dense=dense)
        blocks = [top.triples()]
        for block, row in ((right, 0), (low, n)):
            rows, cols = np.nonzero(_stored(block))
            blocks.append((rows + row, cols + n, block[rows, cols]))
        rows, cols, values = (np.concatenate(part) for part in zip(*blocks))
        return cls.from_triples(shape, rows, cols, values)

    @property
    def finite(self):
        """Whether every entry is finite."""
        return bool(np.isfinite(self._dense if self._dense is not None else self.values).all())

    def norm(self):
        """The Frobenius norm."""
        return float(np.linalg.norm(self._dense if self._dense is not None else self.values))

    def triples(self):
        """``(rows, cols, values)`` of the stored entries, sorted by row,
        then column."""
        if self._dense is not None:
            rows, cols = np.nonzero(_stored(self._dense))
            return rows, cols, self._dense[rows, cols]
        columns, values = self.columns, self.values
        rows, slots = np.nonzero(_stored(values).T)  # row by row, each in column order
        return rows, columns[slots, rows], values[slots, rows]

    def dense(self):
        """The matrix as a read-only dense array: the one kept, or a new one."""
        if self._dense is not None:
            return self._dense
        out = np.zeros(self.shape)
        rows, cols, values = self.triples()
        out[rows, cols] = values
        out.flags.writeable = False
        return out

    def __array__(self, dtype=None, copy=None):
        dense = self.dense()
        return np.array(dense, dtype=dtype) if copy else np.asarray(dense, dtype=dtype)

    def __matmul__(self, X):
        """``S X`` for an ``n x c`` block or a vector ``X``; raises
        :class:`ValueError` when ``X`` does not have ``n`` rows, as numpy
        does."""
        if self._dense is not None:
            return self._dense @ X
        X = np.ascontiguousarray(X, dtype=float)  # each gathered row one read
        if X.ndim not in (1, 2) or X.shape[0] != self.shape[1]:
            raise ValueError(f"matmul: {self.shape} matrix times a block of shape {X.shape}")
        columns, values = self.columns, self.values
        if X.ndim == 2:
            values = values[:, :, None]
        out = np.take(X, columns[0], axis=0)
        out *= values[0]
        gathered = np.empty_like(out)
        for cols, vals in zip(columns[1:], values[1:]):
            np.take(X, cols, axis=0, out=gathered, mode="clip")  # unbuffered: in range
            gathered *= vals
            out += gathered
        return out

    def __rmatmul__(self, X):
        """``X S`` for a ``q x n`` block ``X``: ``(S^T X^T)^T``."""
        if self._dense is not None:
            return X @ self._dense
        return (self.T @ np.asarray(X, dtype=float).T).T

    @property
    def T(self):
        """The transpose, as rows."""
        if self._dense is not None:
            return RowSparse(self.shape[::-1], dense=self._dense.T)
        rows, cols, values = self.triples()
        order = np.lexsort((rows, cols))
        return RowSparse._from_sorted(self.shape[::-1], cols[order], rows[order], values[order])

    def __getitem__(self, key):
        """``S[i, j]``, one entry; ``S[rows]``, the rows ``rows`` (a slice or
        an index array), or ``S[:, cols]``, the columns ``cols`` (distinct
        indices), each as a new :class:`RowSparse`; negative indices count
        from the end and others out of range raise :class:`IndexError`, as
        numpy's do."""
        if isinstance(key, tuple):
            i, j = key
            if isinstance(i, slice) and i == slice(None):
                return self._columns(np.asarray(j, dtype=np.intp))
            i, j = operator.index(i), operator.index(j)
            if self._dense is not None:
                return self._dense[i, j]
            if not -self.shape[1] <= j < self.shape[1]:
                raise IndexError(f"column {j} is out of bounds for {self.shape[1]} columns")
            hits = np.flatnonzero(self.columns[:, i] == j % self.shape[1])
            return self.values[hits[0], i] if hits.size else 0.0
        if self._dense is not None:
            rows = self._dense[key]
            return RowSparse(rows.shape, dense=rows)
        columns, values = self.columns[:, key], self.values[:, key]
        return RowSparse((columns.shape[1], self.shape[1]), columns, values)

    def _columns(self, cols):
        """``S[:, cols]``: the stored entries in ``cols``, renumbered."""
        shape = (self.shape[0], cols.size)
        if self._dense is not None:
            return RowSparse(shape, dense=np.take(self._dense, cols, axis=1))
        rows, taken, values = self.triples()
        at = np.full(self.shape[1], -1)
        at[cols] = np.arange(cols.size)
        hit = at[taken] >= 0
        rows, taken, values = rows[hit], at[taken[hit]], values[hit]
        order = np.lexsort((taken, rows))
        return RowSparse._from_sorted(shape, rows[order], taken[order], values[order])

    def row_owners(self):
        """``(count, owner, entry)``: each row's number of nonzero entries,
        the first column in which it holds the only nonzero (-1 where it
        owns none) and its entry there."""
        if self._dense is not None:
            mask = self._dense != 0.0
            single = mask & (np.count_nonzero(mask, axis=0) == 1)
            first = single.argmax(axis=1)
            entry = self._dense[np.arange(self.shape[0]), first]
            return mask.sum(axis=1), np.where(single.any(axis=1), first, -1), entry
        columns, values = self.columns, self.values
        mask = values != 0.0
        single = mask & (np.bincount(columns[mask], minlength=self.shape[1])[columns] == 1)
        slot, rows = single.argmax(axis=0), np.arange(self.shape[0])
        owner = np.where(single.any(axis=0), columns[slot, rows], -1)
        return mask.sum(axis=0), owner, values[slot, rows]

    def minus_columns(self, cols, block):
        """``S`` with ``S[:, cols] - block`` in the columns ``cols``, for
        ``n x len(cols)`` rows ``block``, as a new :class:`RowSparse`: bit for
        bit the dense ``S[:, cols] -= block``, merged entry by entry (``a +
        (-b)`` is ``a - b``, and an entry missing from either side is +0.0),
        so no dense block is formed."""
        if self._dense is not None:
            dense = self._dense.copy()
            dense[:, cols] -= np.asarray(block)
            return RowSparse.from_dense(dense, copy=False)
        ours, theirs = self.triples(), block.triples()
        rows = np.concatenate([ours[0], theirs[0]])
        taken = np.concatenate([ours[1], np.asarray(cols)[theirs[1]]])
        values = np.concatenate([ours[2], -theirs[2]])
        order = np.lexsort((taken, rows))  # stable: our entry before theirs
        rows, taken, values = rows[order], taken[order], values[order]
        first = np.ones(rows.size, dtype=bool)
        first[1:] = (rows[1:] != rows[:-1]) | (taken[1:] != taken[:-1])
        first = np.flatnonzero(first)
        values = np.add.reduceat(values, first)
        kept = _stored(values)
        first = first[kept]
        return RowSparse._from_sorted(self.shape, rows[first], taken[first], values[kept])

    def minus(self, P):
        """``S - P`` for a dense ``P`` of the same shape, written over ``P``
        and kept dense, as a new :class:`RowSparse`: bit for bit the dense
        ``S - P``."""
        if self._dense is not None:
            np.subtract(self._dense, P, out=P)
        else:
            rows, cols, values = self.triples()
            taken = P[rows, cols]
            np.subtract(0.0, P, out=P)
            P[rows, cols] = values - taken
        return RowSparse(self.shape, dense=P)

    def __repr__(self):
        form = "dense" if self._dense is not None else f"width={len(self.columns)}"
        return f"RowSparse(shape={self.shape}, {form})"
