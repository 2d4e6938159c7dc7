import numpy as np
import pytest

from dacqo.extrapolation import ExtrapolationFit, fit_extrapolation


def _synthetic(K, rate, ns):
    return [(n, 1.0 + (K - 1.0) * np.exp(-rate * n)) for n in ns]


class TestFit:
    def test_recovers_exact_constants(self):
        pts = _synthetic(0.8, 0.1, [4, 8, 12, 16, 24, 32])
        fit = fit_extrapolation(pts)
        assert fit.L == 1.0
        assert fit.K == pytest.approx(0.8, abs=1e-6)
        assert fit.decay_rate == pytest.approx(0.1, abs=1e-6)
        assert fit.residual < 1e-12

    def test_prediction_interpolates(self):
        fit = fit_extrapolation(_synthetic(0.6, 0.2, [4, 8, 12, 20]))
        assert fit(10) == pytest.approx(1.0 - 0.4 * np.exp(-2.0), abs=1e-6)

    def test_callable_vectorized(self):
        fit = ExtrapolationFit(L=1.0, K=0.5, decay_rate=0.1, residual=0.0)
        out = fit(np.array([0.0, 10.0]))
        assert out.shape == (2,)
        assert out[0] == pytest.approx(0.5)

    def test_tolerates_small_noise(self):
        rng = np.random.default_rng(1)
        pts = [
            (n, f + 1e-4 * rng.standard_normal())
            for n, f in _synthetic(0.85, 0.15, [4, 6, 8, 12, 16, 20, 28])
        ]
        fit = fit_extrapolation(pts)
        assert fit.K == pytest.approx(0.85, abs=0.01)
        assert fit.decay_rate == pytest.approx(0.15, abs=0.02)

    def test_constant_unity_shortcut(self):
        fit = fit_extrapolation([(4, 1.0), (8, 1.0), (12, 1.0)])
        assert fit.K == 1.0 and fit.decay_rate == 0.0


class TestValidation:
    def test_too_few_points(self):
        with pytest.raises(ValueError):
            fit_extrapolation([(4, 0.9), (8, 0.95)])

    def test_degenerate_sizes(self):
        with pytest.raises(ValueError):
            fit_extrapolation([(4, 0.9), (4, 0.95), (4, 0.99)])

    def test_fidelity_out_of_range(self):
        with pytest.raises(ValueError):
            fit_extrapolation([(4, 0.9), (8, 1.2), (12, 0.99)])
        with pytest.raises(ValueError):
            fit_extrapolation([(4, 0.9), (8, -0.1), (12, 0.99)])

    @pytest.mark.parametrize("bad", [float("nan"), float("inf"), -float("inf")])
    def test_non_finite_values(self, bad):
        with pytest.raises(ValueError, match="finite"):
            fit_extrapolation([(4, 0.9), (bad, 0.95), (12, 0.99)])
        with pytest.raises(ValueError, match="finite"):
            fit_extrapolation([(4, 0.9), (8, bad), (12, 0.99)])

    def test_all_equal_sizes_is_a_numerical_failure(self):
        # the data is valid but admits no fit; still a ValueError subclass
        with pytest.raises(np.linalg.LinAlgError):
            fit_extrapolation([(4, 0.9), (4, 0.95), (4, 0.99)])
