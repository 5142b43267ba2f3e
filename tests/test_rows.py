import numpy as np
import pytest

from daereach.rows import RowSparse, _slots


def _both_storages(M):
    """``M`` as a :class:`RowSparse` kept dense and as one kept in slots,
    whatever the size rule would pick."""
    rows, cols = np.nonzero(M)
    slots = _slots(np.count_nonzero(M, axis=1), rows, cols, M[rows, cols])
    return {"dense": RowSparse(M.shape, dense=M.copy()), "slots": RowSparse(M.shape, *slots)}


def _matrix(n=100, seed=0):
    rng = np.random.default_rng(seed)
    M = np.where(rng.random((n, n)) < 0.03, rng.normal(size=(n, n)), 0.0)
    M[0, -1] = 7.0
    return M


@pytest.mark.parametrize("storage", ["dense", "slots"])
def test_both_storages_hold_the_same_matrix(storage):
    M = _matrix()
    S = _both_storages(M)[storage]
    assert (S.columns is None) == (storage == "dense")
    assert np.asarray(S).tobytes() == M.tobytes()
    X = np.random.default_rng(1).normal(size=(M.shape[1], 3))
    assert np.allclose(S @ X, np.asarray(S) @ X, rtol=1e-14, atol=1e-14)
    assert np.allclose(S @ X[:, 0], np.asarray(S) @ X[:, 0], rtol=1e-14, atol=1e-14)


@pytest.mark.parametrize("storage", ["dense", "slots"])
def test_entries_are_indexed_as_numpy_indexes_them(storage):
    """``S[i, j]`` reads what ``np.asarray(S)[i, j]`` reads, negative
    indices included (``S[0, -1]`` is the stored 7.0), and raises
    :class:`IndexError` where it does."""
    M = _matrix()
    S, n = _both_storages(M)[storage], M.shape[0]
    dense = np.asarray(S)
    for i, j in [(0, -1), (0, n - 1), (-1, -1), (-n, -n), (5, -3), (17, 42)]:
        assert S[i, j] == dense[i, j] == M[i, j], (i, j)
    assert S[0, -1] == 7.0
    for i, j in [(0, n), (n, 0), (0, -n - 1), (-n - 1, 0)]:
        with pytest.raises(IndexError):
            dense[i, j]
        with pytest.raises(IndexError):
            S[i, j]


@pytest.mark.parametrize("storage", ["dense", "slots"])
@pytest.mark.parametrize("shape", [(99, 3), (101, 3), (99,), (101,)])
def test_a_product_of_the_wrong_shape_raises(storage, shape):
    """``S @ X`` refuses an ``X`` whose rows do not match ``S``'s columns,
    as ``np.asarray(S) @ X`` does, rather than clip or truncate it."""
    S = _both_storages(_matrix())[storage]
    X = np.ones(shape)
    with pytest.raises(ValueError):
        np.asarray(S) @ X
    with pytest.raises(ValueError):
        S @ X
