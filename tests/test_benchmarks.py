import numpy as np
import pytest
from scipy.linalg import null_space

from daereach import (
    build_rotating_masses,
    build_stokes,
    compute_index_and_chain,
    rotating_masses_initial_star,
    stokes_center_velocity_rows,
    to_autonomous,
)
from daereach.linalg import numerical_rank
from daereach.model import check_regularity

from oracles import stokes_stencil


class TestRotatingMasses:
    def test_inertia_matrix(self):
        sys, _ = build_rotating_masses()
        assert sys.E[0, 0] == 1.0
        assert sys.E[1, 1] == 2.0
        assert np.array_equal(sys.E[2:], np.zeros((2, 4)))

    def test_torque_balance_row(self):
        sys, _ = build_rotating_masses()
        assert np.array_equal(sys.A[3], [-1.0, 1.0, 0.0, 0.0])

    def test_two_inputs(self):
        sys, inputs = build_rotating_masses()
        assert sys.B.shape == (4, 2)
        assert np.array_equal(inputs.a_u, [[0.0, 1.0], [-1.0, 0.0]])

    def test_lifted_index_is_2(self, rotating_masses_auto):
        assert compute_index_and_chain(rotating_masses_auto).mu == 2

    def test_initial_star_rounds_to_customary_display(self):
        # the exact unit-vector basis prints as the familiar 3-decimal table
        star = rotating_masses_initial_star()
        displayed = np.array(
            [
                [0.0, 0.0],
                [0.0, 0.0],
                [0.513, 0.0],
                [-0.513, 0.0],
                [-0.616, 0.447],
                [0.308, 0.894],
            ]
        )
        assert np.array_equal(np.round(star.V, 3), displayed)
        assert np.allclose(np.linalg.norm(star.V, axis=0), 1.0, atol=1e-12)

    def test_initial_star_predicate_box(self):
        star = rotating_masses_initial_star()
        assert np.array_equal(
            star.C, [[1.0, 0.0], [-1.0, 0.0], [0.0, 1.0], [0.0, -1.0]]
        )
        assert np.array_equal(star.d, [0.2, -0.1, 1.2, -1.0])


class TestStokes:
    @pytest.mark.parametrize("k", range(2, 17))
    def test_entries_match_the_per_face_stencil(self, k):
        # k = 5, 7, 10, 13 and 14 are among the sizes where a plain
        # Kronecker sum of the 1-D operators rounds a diagonal entry apart
        E, A, B, center_rows = stokes_stencil(k)
        sys = build_stokes(k)
        assert np.array_equal(sys.E, E)
        assert np.array_equal(sys.A, A)
        assert np.array_equal(sys.B, B)
        assert stokes_center_velocity_rows(k) == center_rows

    @pytest.mark.parametrize("k,n", [(2, 7), (3, 20), (4, 39), (5, 64)])
    def test_golden_dimensions(self, k, n):
        # 2k(k-1) interior velocities plus k^2 - 1 free pressures
        sys = build_stokes(k)
        assert sys.n == n
        assert sys.m == 1

    def test_velocity_block_is_identity(self):
        sys = build_stokes(3)
        n_v = 12
        assert np.array_equal(sys.E[:n_v, :n_v], np.eye(n_v))
        assert np.abs(sys.E[n_v:, :]).max() == 0.0
        assert np.abs(sys.E[:, n_v:]).max() == 0.0

    def test_divergence_is_exact_transpose_of_gradient(self):
        for k in (2, 3, 4):
            sys = build_stokes(k)
            n_v = 2 * k * (k - 1)
            assert np.array_equal(sys.A[n_v:, :n_v], sys.A[:n_v, n_v:].T)
            assert np.abs(sys.A[n_v:, n_v:]).max() == 0.0

    def test_laplacian_block_is_symmetric_negative_definite(self):
        sys = build_stokes(4)
        n_v = 24
        lap = sys.A[:n_v, :n_v]
        assert np.array_equal(lap, lap.T)
        assert np.linalg.eigvalsh(lap).max() < 0.0

    @pytest.mark.parametrize("k", [2, 3, 4])
    def test_regular_pencil(self, k):
        sys = build_stokes(k)
        assert check_regularity(to_autonomous(sys))

    @pytest.mark.parametrize("k", [2, 3, 4])
    def test_index_2(self, k):
        chain = compute_index_and_chain(to_autonomous(build_stokes(k)))
        assert chain.mu == 2

    def test_smallest_instance_against_hand_built_chain(self):
        # rebuild the chain for k = 2 with scipy's null_space as an
        # independent projector source and confirm the same index decision
        sys = build_stokes(2)
        E_j, A_j = sys.E, sys.A
        n = sys.n
        assert numerical_rank(E_j) < n
        steps = 0
        while numerical_rank(E_j) < n:
            kernel = null_space(E_j, rcond=1e-9)
            Q = kernel @ kernel.T
            E_j, A_j = E_j - A_j @ Q, A_j @ (np.eye(n) - Q)
            steps += 1
            assert steps <= 3
        assert steps == 2

    def test_force_selects_single_velocity_row(self):
        sys = build_stokes(3)
        column = sys.B[:, 0]
        assert np.count_nonzero(column) == 1
        assert np.nonzero(column)[0][0] < 12  # a velocity unknown, not a pressure

    def test_center_rows_are_velocity_rows(self):
        for k in (2, 3, 5):
            u_row, v_row = stokes_center_velocity_rows(k)
            n_v = 2 * k * (k - 1)
            assert 0 <= u_row < n_v
            assert 0 <= v_row < n_v
            assert u_row != v_row

    def test_rejects_tiny_grid(self):
        with pytest.raises(ValueError):
            build_stokes(1)
