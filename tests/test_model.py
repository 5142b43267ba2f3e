import numpy as np
import pytest

from daereach import (
    DaeSystem,
    DimensionMismatchError,
    NonsingularEError,
    build_rotating_masses,
    decouple_system,
    to_autonomous,
)
from daereach.model import AutonomousDae, InputModel, check_regularity

from oracles import exact_int_det


class TestDaeSystem:
    def test_nonsingular_e_rejected(self):
        # the system holds only shapes; the chain's first SVD rejects it
        sys = DaeSystem(np.eye(2), np.zeros((2, 2)))
        with pytest.raises(NonsingularEError):
            decouple_system(to_autonomous(sys))

    def test_shape_checks(self):
        E = np.diag([1.0, 0.0])
        with pytest.raises(DimensionMismatchError):
            DaeSystem(E, np.zeros((3, 3)))
        with pytest.raises(DimensionMismatchError):
            DaeSystem(E, np.eye(2), np.zeros((3, 1)))

    def test_default_b_is_empty(self):
        sys = DaeSystem(np.diag([1.0, 0.0]), np.eye(2))
        assert sys.m == 0
        assert sys.B.shape == (2, 0)


class TestToAutonomous:
    def test_rotating_masses_dimensions(self, rotating_masses_auto):
        assert rotating_masses_auto.n == 6
        assert rotating_masses_auto.n_orig == 4
        assert rotating_masses_auto.m_orig == 2

    def test_block_layout(self, rotating_masses_auto):
        system, inputs = build_rotating_masses()
        E, A = rotating_masses_auto.E.dense(), rotating_masses_auto.A.dense()
        assert np.array_equal(E[:4, :4], system.E)
        assert np.array_equal(E[4:, 4:], np.eye(2))
        assert np.array_equal(E[:4, 4:], np.zeros((4, 2)))
        assert np.array_equal(A[:4, :4], system.A)
        assert np.array_equal(A[:4, 4:], system.B)
        assert np.array_equal(A[4:, :4], np.zeros((2, 4)))
        assert np.array_equal(A[4:, 4:], inputs.a_u)

    def test_none_variant_returns_system_itself(self):
        sys = DaeSystem(np.diag([1.0, 0.0]), np.eye(2))
        auto = to_autonomous(sys, InputModel())
        assert np.array_equal(auto.E, sys.E)
        assert np.array_equal(auto.A, sys.A)
        assert auto.m_orig == 0

    def test_small_block_assembly(self):
        sys = DaeSystem(np.diag([1.0, 0.0]), np.eye(2), np.array([[1.0], [1.0]]))
        auto = to_autonomous(sys, InputModel(np.array([[0.0]])))
        assert np.array_equal(auto.E, np.diag([1.0, 0.0, 1.0]))
        assert np.array_equal(
            auto.A, np.array([[1.0, 0.0, 1.0], [0.0, 1.0, 1.0], [0.0, 0.0, 0.0]])
        )

    def test_input_dimension_mismatch(self):
        sys = DaeSystem(np.diag([1.0, 0.0]), np.eye(2), np.array([[1.0], [1.0]]))
        with pytest.raises(DimensionMismatchError):
            to_autonomous(sys, InputModel(np.eye(2)))

    def test_original_blocks_recovered_bit_exactly(self, rotating_masses_auto):
        system, _ = build_rotating_masses()
        E, A = rotating_masses_auto.E.dense(), rotating_masses_auto.A.dense()
        assert E[:4, :4].tobytes() == system.E.dense().tobytes()
        assert A[:4, :4].tobytes() == system.A.dense().tobytes()

    def test_large_blocks_stack_as_rows(self):
        # past the dense size rule the stacked matrices are merged rows; they
        # must equal the dense block assembly bit for bit, -0.0 included.
        # A stores the -0.0 of each negative draw times False, so its rows
        # fill more than 1/32 of the columns and it is kept dense
        auto = _stacked_bit_for_bit(np.random.default_rng(5), 30, 0.1)
        assert auto.E.columns is not None and auto.A.columns is None

    def test_sparse_blocks_stack_as_slots(self):
        # an A that stores only its drawn entries (-0.0 + 0.0 is +0.0, which
        # is not stored) has short rows and is kept as slots
        auto = _stacked_bit_for_bit(np.random.default_rng(5), 400, 0.005, signed_zeros=False)
        assert auto.E.columns is not None and auto.A.columns is not None


def _stacked_bit_for_bit(rng, n, fill, signed_zeros=True):
    """The autonomous pair of a random ``n``-state system with 3 inputs and
    an ``A`` of about ``fill`` of its entries drawn, checked bit for bit
    against the dense block assembly."""
    m = 3
    E = np.diag(rng.integers(0, 2, n).astype(float))
    A = rng.normal(size=(n, n)) * (rng.random((n, n)) < fill)
    if not signed_zeros:
        A += 0.0
    B = rng.normal(size=(n, m)) * (rng.random((n, m)) < 0.5)
    B[0, 0] = -0.0
    a_u = rng.normal(size=(m, m))
    auto = to_autonomous(DaeSystem(E, A, B), InputModel(a_u))
    e_bar, a_bar = np.zeros((n + m, n + m)), np.zeros((n + m, n + m))
    e_bar[:n, :n], e_bar[n:, n:] = E, np.eye(m)
    a_bar[:n, :n], a_bar[:n, n:], a_bar[n:, n:] = A, B, a_u
    assert auto.E.dense().tobytes() == e_bar.tobytes()
    assert auto.A.dense().tobytes() == a_bar.tobytes()
    return auto


class TestCheckRegularity:
    def test_identity_pencil_regular(self):
        assert check_regularity(AutonomousDae(np.eye(3), np.zeros((3, 3))))

    def test_zero_pencil_irregular(self):
        # det(s*0 - 0) is identically zero
        assert not check_regularity(AutonomousDae(np.zeros((2, 2)), np.zeros((2, 2))))

    def test_rotating_masses_regular(self, rotating_masses_auto):
        assert check_regularity(rotating_masses_auto)

    def test_rotating_masses_regular_exact_arithmetic(self, rotating_masses_auto):
        # the pencil entries are integers: evaluate det(1*E - A) exactly
        pencil = rotating_masses_auto.E.dense() - rotating_masses_auto.A.dense()
        assert exact_int_det(pencil) != 0

    @pytest.mark.filterwarnings("error")
    def test_entries_near_the_largest_double(self):
        # s E - A would overflow for |s| > 1.8: the probe scales by a power of
        # two first, and decides as it does on the scaled pencil
        E = np.diag([1e308, 0.0])
        assert not check_regularity(AutonomousDae(E, np.zeros((2, 2))))
        assert check_regularity(AutonomousDae(E, np.diag([0.0, 1e308])))
        assert check_regularity(AutonomousDae(E * 2.0**-1020, np.diag([0.0, 1.0])))

    def test_structurally_singular_pencil(self):
        # shared kernel column for every s
        E = np.diag([1.0, 0.0])
        A = np.array([[2.0, 0.0], [1.0, 0.0]])
        assert not check_regularity(AutonomousDae(E, A))
