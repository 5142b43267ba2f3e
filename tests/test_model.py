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
        E, A = rotating_masses_auto.E, rotating_masses_auto.A
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
        assert np.array_equal(rotating_masses_auto.E[:4, :4], system.E)
        assert np.array_equal(rotating_masses_auto.A[:4, :4], system.A)


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
        pencil = rotating_masses_auto.E - rotating_masses_auto.A
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
