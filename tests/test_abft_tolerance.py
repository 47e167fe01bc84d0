"""Round-off tolerance theory: no false positives, no blind spots."""

import numpy as np
import pytest

from repro.abft.checksum import col_checksum, row_checksum
from repro.abft.tolerance import (
    EPS,
    ToleranceConfig,
    gamma,
    residual_tolerances,
)
from repro.util.errors import ConfigError


@pytest.fixture
def rng():
    return np.random.default_rng(7)


def residuals(a, b):
    """Actual round-off residuals of the two checksum identities."""
    c = a @ b
    row = row_checksum(a) @ b - row_checksum(c)
    col = a @ col_checksum(b) - col_checksum(c)
    return row, col


def test_gamma_basic():
    assert gamma(0) == 0.0
    assert gamma(100) == pytest.approx(100 * EPS)
    with pytest.raises(ConfigError):
        gamma(-1)


def test_config_validation():
    with pytest.raises(ConfigError):
        ToleranceConfig(safety=0.0)
    with pytest.raises(ConfigError):
        ToleranceConfig(floor=-1.0)


def test_envelope_bounds_roundoff_gaussian(rng):
    a = rng.standard_normal((60, 50))
    b = rng.standard_normal((50, 40))
    tol_r, tol_c = residual_tolerances(a, b)
    row, col = residuals(a, b)
    assert np.all(np.abs(row) < tol_r)
    assert np.all(np.abs(col) < tol_c)


def test_envelope_bounds_roundoff_ill_scaled(rng):
    """Rows spanning 12 orders of magnitude: a scalar norm bound would be
    hopeless; the per-entry envelope must still hold."""
    a = rng.standard_normal((40, 30)) * np.logspace(-6, 6, 40)[:, None]
    b = rng.standard_normal((30, 20)) * np.logspace(-3, 3, 20)[None, :]
    tol_r, tol_c = residual_tolerances(a, b)
    row, col = residuals(a, b)
    assert np.all(np.abs(row) < tol_r)
    assert np.all(np.abs(col) < tol_c)


def test_envelope_with_cancellation(rng):
    """Huge alternating-sign entries make sums cancel: the envelope is built
    from |A|,|B|, so it scales with the magnitudes, not the tiny sums."""
    mags = rng.uniform(1e5, 1e6, size=(30, 30))
    signs = np.where(np.arange(30) % 2 == 0, 1.0, -1.0)
    a = mags * signs[None, :]
    b = rng.uniform(1e5, 1e6, size=(30, 30)) * signs[:, None]
    tol_r, tol_c = residual_tolerances(a, b)
    row, col = residuals(a, b)
    assert np.all(np.abs(row) < tol_r)
    assert np.all(np.abs(col) < tol_c)


def test_envelope_beta_term(rng):
    a = rng.standard_normal((20, 15))
    b = rng.standard_normal((15, 25))
    c0 = 1e6 * rng.standard_normal((20, 25))
    beta = -2.5
    tol_r, tol_c = residual_tolerances(
        a, b, beta=beta,
        c0_abs_rowsum=np.abs(c0).sum(axis=0),
        c0_abs_colsum=np.abs(c0).sum(axis=1),
    )
    c = a @ b + beta * c0
    row = (row_checksum(a) @ b + beta * c0.sum(axis=0)) - row_checksum(c)
    col = (a @ col_checksum(b) + beta * c0.sum(axis=1)) - col_checksum(c)
    assert np.all(np.abs(row) < tol_r)
    assert np.all(np.abs(col) < tol_c)


def test_envelope_beta_requires_c0_sums(rng):
    a = rng.standard_normal((4, 4))
    with pytest.raises(ConfigError, match="beta"):
        residual_tolerances(a, a, beta=1.0)


def test_floor_covers_all_zero_inputs():
    a = np.zeros((5, 5))
    tol_r, tol_c = residual_tolerances(a, a)
    assert np.all(tol_r > 0) and np.all(tol_c > 0)


def test_tolerance_far_below_real_errors(rng):
    """The threshold must leave room for meaningful injected errors: a
    relative perturbation of 1e-6 on one element must exceed it."""
    a = rng.standard_normal((50, 50))
    b = rng.standard_normal((50, 50))
    tol_r, _ = residual_tolerances(a, b)
    c = a @ b
    typical = np.abs(c).mean()
    assert typical * 1e-6 > tol_r.max()
