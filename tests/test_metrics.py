"""MAC, frequency-error tables, trajectory MSE, smoothness."""

import numpy as np
import pytest

from dynsub import frequency_error_table, mac, smoothness, trajectory_mse
from dynsub.generators import chain_substructure
from dynsub.metrics import MetricsError
from dynsub.reduction import full_frequencies, reduce as cb_reduce, reduced_frequencies


class TestMac:
    def test_identical_sets_give_identity_diagonal(self):
        rng = np.random.default_rng(0)
        modes = rng.standard_normal((12, 5))
        result = mac(modes, modes)
        assert np.allclose(result.diagonal, 1.0, atol=1e-12)
        assert result.values.shape == (5, 5)
        assert np.all(result.values >= 0.0) and np.all(result.values <= 1.0 + 1e-12)

    def test_orthogonal_vectors_give_zero(self):
        a = np.array([[1.0], [0.0]])
        b = np.array([[0.0], [1.0]])
        assert mac(a, b).values[0, 0] == pytest.approx(0.0, abs=1e-15)

    def test_scale_invariance(self):
        rng = np.random.default_rng(1)
        a = rng.standard_normal((8, 3))
        b = rng.standard_normal((8, 3))
        base = mac(a, b).values
        scaled = mac(-3.7 * a, 0.002 * b).values
        assert np.allclose(base, scaled, atol=1e-12)

    def test_swap_symmetry(self):
        rng = np.random.default_rng(2)
        a = rng.standard_normal((6, 4))
        b = rng.standard_normal((6, 2))
        assert np.allclose(mac(a, b).values, mac(b, a).values.T, atol=1e-14)

    def test_zero_norm_mode_rejected(self):
        with pytest.raises(MetricsError, match="zero-norm"):
            mac(np.zeros((4, 1)), np.ones((4, 1)))

    def test_zero_norm_mode_named_by_set_and_column(self):
        full = np.ones((4, 3))
        full[:, 2] = 0.0
        with pytest.raises(MetricsError, match="^modes_b: column 2 "):
            mac(np.ones((4, 3)), full)
        with pytest.raises(MetricsError, match="^option '--full': column 2 "):
            mac(np.ones((4, 3)), full, names=("option '--reduced'", "option '--full'"))

    def test_dimension_mismatch_rejected(self):
        with pytest.raises(MetricsError, match="dimension"):
            mac(np.ones((4, 1)), np.ones((5, 1)))


class TestFrequencyErrorTable:
    def test_identical_inputs_all_zero(self):
        f = np.array([1.0, 2.0, 3.0])
        table = frequency_error_table(f, f, 3)
        assert np.all(table.relative_errors == 0.0)
        assert table.nmse == 0.0

    def test_single_mode_nmse_is_squared_relative_error(self):
        # NMSE = (f_r - f_f)^2 / f_f^2 for one mode
        table = frequency_error_table([2.0], [2.1], 1)
        assert table.nmse == pytest.approx((0.1 / 2.0) ** 2, rel=1e-12)
        assert table.relative_errors[0] == pytest.approx(0.05, rel=1e-12)

    def test_mode_count_checked(self):
        with pytest.raises(MetricsError):
            frequency_error_table([1.0], [1.0, 2.0], 2)

    def test_a_rigid_mode_at_round_off_compares_as_zero(self):
        # the free 6-DOF chain: full 1.53e-8 rad/s, reduced 0, which read as a relative error of 1
        chain = chain_substructure(n=6, grounded=False, boundary_dofs=(5,))
        full, red = full_frequencies(chain, 4), reduced_frequencies(cb_reduce(chain, 3), 4)
        assert 0.0 < full[0] <= 1e-6 * full[3] and red[0] == 0.0
        table = frequency_error_table(full, red, 4)
        assert table.relative_errors[0] == 0.0
        # the other modes and the NMSE are those of the unfloored formula, bit for bit
        assert table.relative_errors[1:].tobytes() == (np.abs(red[1:] - full[1:]) / np.abs(full[1:])).tobytes()
        assert table.nmse == float(np.mean((red - full) ** 2) / np.mean(full**2))
        assert table.full.tobytes() == full.tobytes() and table.reduced.tobytes() == red.tobytes()

    def test_a_zero_full_frequency_against_a_nonzero_one_is_their_difference(self):
        table = frequency_error_table([0.0, 2.0], [1e-3, 2.0], 2)
        assert table.relative_errors.tolist() == [1e-3, 0.0]


class TestTrajectoryMse:
    def test_identical_signals(self):
        x = np.sin(np.linspace(0, 10, 200))
        assert trajectory_mse(x, x) == (0.0, 0.0)

    def test_constant_offset(self):
        x = np.sin(np.linspace(0, 10, 200))
        eps = 1e-3
        mse, rel = trajectory_mse(x + eps, x)
        assert mse == pytest.approx(eps**2, rel=1e-9)
        assert rel == pytest.approx(eps**2 / np.mean(x**2), rel=1e-9)

    def test_mse_nonnegative(self):
        rng = np.random.default_rng(3)
        for _ in range(10):
            a, b = rng.standard_normal((2, 50))
            mse, rel = trajectory_mse(a, b)
            assert mse >= 0.0 and rel >= 0.0

    def test_length_mismatch_rejected(self):
        with pytest.raises(MetricsError, match="lengths differ"):
            trajectory_mse(np.zeros(3), np.zeros(4))


class TestSmoothness:
    def test_constant_signal(self):
        result = smoothness(np.full(50, 3.3), dt=1e-3)
        assert result.max_increment == 0.0
        assert result.rms_increment == 0.0

    def test_unit_step(self):
        x = np.zeros(20)
        x[10:] = 1.0
        assert smoothness(x, dt=0.1).max_increment == pytest.approx(1.0)

    def test_needs_two_samples(self):
        with pytest.raises(MetricsError):
            smoothness(np.array([1.0]), dt=0.1)
