"""``bootstrap_ci`` must equal its ``np.percentile`` formulation exactly.

The interval is computed from ``np.partition`` at the fixed order
statistics of the 95 % linear-method percentiles, interpolated with
numpy's own formula.  The oracle below is the ``np.percentile``
implementation verbatim; every returned float must match bit for bit
(signed zeros included), for any sample count the stopping rule sees.
"""

import math
import struct

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.launcher.stopping import CONFIDENCE, bootstrap_ci, resample_indices


def _percentile_bootstrap_ci(samples, seed):
    """The ``np.percentile`` implementation of ``bootstrap_ci``, verbatim."""
    values = np.asarray(samples, dtype=np.float64)
    mean = float(values.mean())
    if len(values) < 2:
        return mean, mean, 0.0
    indices = resample_indices(seed, len(values))
    means = values[indices].mean(axis=1)
    alpha = 100.0 * (1.0 - CONFIDENCE) / 2.0
    lo, hi = np.percentile(means, (alpha, 100.0 - alpha))
    ci_low = min(float(lo), mean)
    ci_high = max(float(hi), mean)
    if mean > 0.0:
        rciw = (ci_high - ci_low) / mean
    else:
        rciw = 0.0 if ci_high == ci_low else float("inf")
    return ci_low, ci_high, rciw


def _bits(values):
    """Exact bit patterns: ``==`` with NaN == NaN and -0.0 != 0.0."""
    return [
        "nan" if math.isnan(v) else struct.pack("<d", v) for v in values
    ]


def _assert_exact(samples, seed):
    with np.errstate(all="ignore"):
        got = bootstrap_ci(samples, seed)
        want = _percentile_bootstrap_ci(samples, seed)
    assert _bits(got) == _bits(want), (samples, seed, got, want)


finite = st.floats(
    min_value=-1e12, max_value=1e12, allow_nan=False, allow_infinity=False
)


class TestBootstrapMatchesPercentile:
    @settings(max_examples=150, deadline=None)
    @given(
        samples=st.lists(finite, min_size=2, max_size=64),
        seed=st.integers(min_value=0, max_value=2**31 - 1),
    )
    def test_finite_samples(self, samples, seed):
        _assert_exact(samples, seed)

    @pytest.mark.parametrize("n", range(2, 65))
    def test_every_sample_count(self, n):
        rng = np.random.default_rng(n)
        _assert_exact(rng.normal(100.0, 5.0, n), seed=n)
        _assert_exact(rng.exponential(1e-3, n), seed=n + 1)

    @pytest.mark.parametrize("n", [2, 3, 11, 64])
    @pytest.mark.parametrize("value", [3.25, 0.0, -0.0, 1e-300])
    def test_constant_samples(self, n, value):
        _assert_exact([value] * n, seed=7)

    @pytest.mark.parametrize("n", [2, 5, 19, 64])
    def test_signed_zeros(self, n):
        rng = np.random.default_rng(n)
        _assert_exact(np.where(rng.random(n) < 0.5, 0.0, -0.0), seed=3)

    @pytest.mark.parametrize("n", [2, 4, 27, 64])
    @pytest.mark.parametrize(
        "special", [math.inf, -math.inf, math.nan, (math.inf, -math.inf)]
    )
    def test_non_finite_samples(self, n, special):
        samples = list(np.random.default_rng(n).normal(10.0, 1.0, n))
        for i, value in enumerate(np.atleast_1d(special)):
            samples[i] = float(value)
        for seed in range(5):
            _assert_exact(samples, seed)
