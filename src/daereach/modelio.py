"""Reading model, initial-set, unsafe-set and directions files.

One JSON document per artifact.  Matrices are either dense nested arrays
or sparse ``{"shape": [rows, cols], "triples": [[row, col, value], ...]}``
objects with 0-based indices inside the shape; sizes and indices are
integers (integral floats pass) and reals use decimal or scientific
notation.  Booleans and strings are not numbers, wherever they appear.
Model files carry ``n``, ``m``, the matrices ``E``, ``A``, ``B`` and an
optional ``A_u`` (absent or null means no inputs).  Initial-set files
carry ``V``, ``C``, ``d`` and optionally ``U0``; unsafe files carry
``G``, ``f`` and optionally ``on_original_state``.

A file whose floats were written with ``repr`` (as ``json.dumps`` writes
them) loads bit-exactly.  The model's ``E`` and ``A`` are built as sparse
rows (:class:`~daereach.linalg.RowSparse`) straight from their triples, or
from a dense nested array, so a sparse model file costs its entries, not
``n^2``; every other matrix is dense.
"""

import json
import math
from itertools import chain

import numpy as np

from .benchmarks import build_rotating_masses, build_stokes
from .errors import DimensionMismatchError, EmptyPredicateError, ParseError
from .linalg import RowSparse
from .model import DaeSystem, InputModel
from .safety import UnsafeSpec
from .starset import StarSet

__all__ = ["load_model", "load_initial_star", "load_unsafe", "load_directions"]

BUILTIN_PREFIX = "builtin:"


def _load_document(path):
    try:
        with open(path, "r", encoding="utf-8") as handle:
            document = json.load(handle)
    except OSError as exc:
        raise ParseError(f"cannot read file: {exc}", path=path)
    except json.JSONDecodeError as exc:
        raise ParseError(f"invalid JSON at line {exc.lineno}: {exc.msg}", path=path)
    if not isinstance(document, dict):
        raise ParseError("top-level value must be an object", path=path)
    return document


def _size(value, low, path, field):
    """``value`` as an int of at least ``low``: JSON integers and integral
    floats pass; fractions, non-finite numbers, bools and strings do not."""
    if (
        isinstance(value, bool)
        or not isinstance(value, (int, float))
        or not (low <= value < math.inf and value == int(value))
    ):
        raise ParseError(f"must be an integer >= {low}, got {value!r}", path=path, field=field)
    return int(value)


def _reals(value, path, field, message):
    """``value`` as a float array, or a :class:`ParseError` with ``message``.

    numpy reads ``true`` and ``"1"`` as 1.0, so the entries of a flat or
    2-D array are checked for a bool or a string; an array of any other
    shape is refused by the caller."""
    try:
        array = np.array(value, dtype=float)
    except (TypeError, ValueError, OverflowError):
        raise ParseError(message, path=path, field=field)
    rows = [value] if array.ndim == 1 else value if array.ndim == 2 else []
    for row in rows:
        for entry in row:
            if isinstance(entry, (bool, str)):
                raise ParseError(f"entries must be numbers, got {entry!r}", path=path, field=field)
    return array


def _bad_triple(entry, rows, cols):
    """Whether ``entry`` is not three numbers ``[row, col, value]`` with
    integral 0-based indices inside the shape."""
    try:
        i, j, v = entry
        # compare before int(): it would truncate 0.7 to row 0, numpy would
        # wrap -2 to row 0, and nan, inf or a string fail here; float() and
        # the comparisons would take a bool as 0 or 1
        if isinstance(i, bool) or isinstance(j, bool) or isinstance(v, (bool, str)):
            return True
        float(v)
        return not (0 <= i < rows and 0 <= j < cols and i == int(i) and j == int(j))
    except (TypeError, ValueError, OverflowError):
        return True


def _sparse_matrix(rows, cols, triples, path, field):
    """The ``rows x cols`` :class:`~daereach.linalg.RowSparse` of
    ``triples``, each ``[row, col, value]``; a repeated index keeps the last
    triple's value.  The triples are checked a column at a time: JSON
    numbers are exactly ints and floats, and a column of them converts to
    floats in one call.  A column that holds anything else, and a list that
    is not of triples, is searched for its first triple that
    :func:`_bad_triple` refuses, which the error names."""

    def refused(entry):
        return ParseError(
            f"bad sparse triple {entry!r}: needs numbers [row, col, value] "
            f"with 0-based indices inside the shape [{rows}, {cols}]",
            path=path,
            field=field,
        )

    too_large = ParseError(f"shape [{rows}, {cols}] is too large", path=path, field=field)
    if max(rows, cols) > np.iinfo(np.intp).max:  # no index array could hold it
        raise too_large
    try:
        i, j, v = list(zip(*triples, strict=True)) if triples else [(), (), ()]
        if not set(map(type, chain(i, j, v))) <= {int, float}:
            raise TypeError("not a number")
        i, j, v = (np.array(column, dtype=float) for column in (i, j, v))
    except (TypeError, ValueError, OverflowError):
        raise refused(next(entry for entry in triples if _bad_triple(entry, rows, cols)))
    # nan fails every comparison, and inf the bound
    good = (0 <= i) & (i < rows) & (i == np.trunc(i)) & (0 <= j) & (j < cols) & (j == np.trunc(j))
    if not good.all():
        raise refused(triples[int(np.argmin(good))])
    try:
        return RowSparse.from_triples((rows, cols), i, j, v)
    except (ValueError, MemoryError):
        raise too_large


def _matrix_from_json(value, path, field, rows=False):
    """The matrix ``value`` holds, dense, or as a
    :class:`~daereach.linalg.RowSparse` when ``rows``: its triples then
    become one with no dense array formed, and only their stored values are
    checked for finiteness."""
    if isinstance(value, dict):
        shape, triples = value.get("shape"), value.get("triples")
        if not (isinstance(shape, list) and len(shape) == 2 and isinstance(triples, list)):
            raise ParseError(
                "sparse matrix needs 'shape': [rows, cols] and 'triples'",
                path=path,
                field=field,
            )
        size = _size(shape[0], 1, path, f"{field} shape")
        cols = _size(shape[1], 0, path, f"{field} shape")
        matrix = _sparse_matrix(size, cols, triples, path, field)
        finite = matrix.finite
        if not rows:
            try:
                matrix = matrix.dense()
            except (ValueError, MemoryError):
                raise ParseError(f"shape [{size}, {cols}] is too large", path=path, field=field)
    else:
        matrix = _reals(value, path, field, "matrix must be a nested array of reals")
        if matrix.ndim != 2:
            raise ParseError(
                f"matrix must be 2-D, got shape {matrix.shape}", path=path, field=field
            )
        finite = np.all(np.isfinite(matrix))
        if rows:
            matrix = RowSparse.from_dense(matrix, copy=False)
    if not finite:
        raise ParseError("matrix contains non-finite entries", path=path, field=field)
    return matrix


def _vector_from_json(value, path, field):
    vector = _reals(value, path, field, "expected an array of reals")
    if vector.ndim == 2 and vector.shape[1] == 1:
        vector = vector[:, 0]
    if vector.ndim != 1:
        raise ParseError(
            f"expected a flat array, got shape {vector.shape}", path=path, field=field
        )
    if not np.all(np.isfinite(vector)):
        raise ParseError("vector contains non-finite entries", path=path, field=field)
    return vector


def _require(document, key, path):
    if key not in document:
        raise ParseError("missing required field", path=path, field=key)
    return document[key]


def _parse_builtin(name):
    """The model named by a ``builtin:`` alias.  A grid size that is not an
    integer of at least 2 is a parse error, and so is a grid whose dense
    ``n x n`` float64 array numpy cannot allocate, too large for the
    pipeline's dense steps: one is reserved untouched and dropped before
    any triples are built, so that error comes at once."""
    spec = name[len(BUILTIN_PREFIX) :]
    if spec == "rotating-masses":
        return build_rotating_masses()
    if spec.startswith("stokes:"):
        try:
            grid_n = int(spec.split(":", 1)[1])
        except ValueError:
            raise ParseError(f"bad grid size in alias {name!r}", path=name)
        if grid_n < 2:
            raise ParseError(f"stokes grid size must be >= 2, got {grid_n}", path=name)
        try:
            np.empty((3 * grid_n**2 - 2 * grid_n - 1,) * 2)  # n x n, n as in build_stokes
            model = build_stokes(grid_n)
        except (ValueError, MemoryError) as exc:
            raise ParseError(f"stokes grid {grid_n} is too large: {exc}", path=name)
        return model, InputModel()
    raise ParseError(f"unknown builtin alias {name!r}", path=name)


def load_model(path):
    """Load a DAE model and its input model from a file or builtin alias.

    Aliases: ``builtin:rotating-masses`` and ``builtin:stokes:<k>``.  Only
    shapes and entries are checked; the matrix chain rejects a nonsingular
    ``E``.
    """
    path = str(path)
    if path.startswith(BUILTIN_PREFIX):
        return _parse_builtin(path)
    document = _load_document(path)
    n = _size(_require(document, "n", path), 1, path, "n")
    m = _size(_require(document, "m", path), 0, path, "m")

    E = _matrix_from_json(_require(document, "E", path), path, "E", rows=True)
    A = _matrix_from_json(_require(document, "A", path), path, "A", rows=True)
    if E.shape != (n, n):
        raise ParseError(f"E must be {n}x{n}, got {E.shape}", path=path, field="E")
    if A.shape != (n, n):
        raise ParseError(f"A must be {n}x{n}, got {A.shape}", path=path, field="A")

    if m == 0:
        B = np.zeros((n, 0))
        if "B" in document and document["B"] is not None:
            B = _matrix_from_json(document["B"], path, "B")
    else:
        B = _matrix_from_json(_require(document, "B", path), path, "B")
    if B.shape != (n, m):
        raise ParseError(f"B must be {n}x{m}, got {B.shape}", path=path, field="B")

    a_u = document.get("A_u")
    if a_u is None:
        inputs = InputModel()
    else:
        a_u = _matrix_from_json(a_u, path, "A_u")
        if a_u.shape != (m, m):
            raise ParseError(f"A_u must be {m}x{m}, got {a_u.shape}", path=path, field="A_u")
        a_u.flags.writeable = False
        inputs = InputModel(a_u)
    # frozen, so DaeSystem keeps B instead of copying it; E and A are rows
    B.flags.writeable = False
    return DaeSystem(E, A, B), inputs


def load_initial_star(path, n, m=0):
    """Load an initial star for a system with ``n`` states and ``m`` inputs.

    ``V`` may have ``n + m`` rows (already lifted), or ``n`` rows, in
    which case the input block is taken from ``U0`` when present and
    zero-filled otherwise.  A ``center`` vector (center-form set
    ``{c + V a}``) is folded into a leading basis column whose
    coefficient is pinned to 1 by an equality pair in the predicate.
    """
    document = _load_document(path)
    V = _matrix_from_json(_require(document, "V", path), path, "V")
    C = _matrix_from_json(_require(document, "C", path), path, "C")
    d = _vector_from_json(_require(document, "d", path), path, "d")
    if "center" in document and document["center"] is not None:
        center = _vector_from_json(document["center"], path, "center")
        if center.shape[0] != V.shape[0]:
            raise ParseError(
                f"center must have {V.shape[0]} entries, got {center.shape[0]}",
                path=path,
                field="center",
            )
        V = np.column_stack([center, V])
        k = C.shape[1]
        pin = np.zeros((2, k + 1))
        pin[0, 0] = 1.0
        pin[1, 0] = -1.0
        C = np.vstack([pin, np.hstack([np.zeros((C.shape[0], 1)), C])])
        d = np.concatenate([[1.0, -1.0], d])
    if V.shape[0] == n and m > 0:
        if "U0" in document and document["U0"] is not None:
            U0 = _matrix_from_json(document["U0"], path, "U0")
            if U0.shape != (m, V.shape[1]):
                raise ParseError(
                    f"U0 must be {m}x{V.shape[1]}, got {U0.shape}", path=path, field="U0"
                )
        else:
            U0 = np.zeros((m, V.shape[1]))
        V = np.vstack([V, U0])
    if V.shape[0] != n + m:
        raise ParseError(
            f"V must have {n} or {n + m} rows, got {V.shape[0]}", path=path, field="V"
        )
    try:
        return StarSet(V, C, d)
    except (DimensionMismatchError, EmptyPredicateError, ValueError) as exc:
        raise ParseError(f"invalid initial star: {exc}", path=path)


def load_unsafe(path):
    """Load an unsafe set ``G x <= f``."""
    document = _load_document(path)
    G = _matrix_from_json(_require(document, "G", path), path, "G")
    f = _vector_from_json(_require(document, "f", path), path, "f")
    on_original = document.get("on_original_state", True)
    if not isinstance(on_original, bool):
        raise ParseError(
            f"must be true or false, got {on_original!r}", path=path, field="on_original_state"
        )
    if G.shape[0] != f.shape[0]:
        raise ParseError(
            f"G has {G.shape[0]} rows but f has {f.shape[0]} entries",
            path=path,
            field="G/f",
        )
    try:
        return UnsafeSpec(G, f, on_original_state=on_original)
    except ValueError as exc:
        raise ParseError(f"invalid unsafe set: {exc}", path=path)


def load_directions(path):
    """Load a directions matrix ``D`` (one observation direction per row)."""
    document = _load_document(path)
    return _matrix_from_json(_require(document, "D", path), path, "D")
