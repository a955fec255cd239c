import numpy as np
import pytest
from scipy.special import log_ndtr

from groupsfa import _kernels


def test_log_norm_cdf_matches_scipy_mixed_tolerance():
    z = np.linspace(-40, 40, 4001)
    mine = _kernels.log_norm_cdf(z)
    ref = log_ndtr(z)
    assert np.all(np.abs(mine - ref) <= 1e-12 * np.maximum(1.0, np.abs(ref)))


def test_log_norm_cdf_extreme_arguments_finite():
    z = np.array([-1e4, -500.0, -40.0, 40.0, 500.0])
    out = _kernels.log_norm_cdf(z)
    assert np.all(np.isfinite(out))
    assert out[-1] == pytest.approx(0.0, abs=1e-300)


def test_log_norm_cdf_scalar_shape_preserved():
    assert np.ndim(_kernels.log_norm_cdf(0.0)) == 0
    assert _kernels.log_norm_cdf(0.0) == pytest.approx(np.log(0.5))
