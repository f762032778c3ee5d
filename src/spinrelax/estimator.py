"""Bias-reduced estimation of the normalized measurement M = A / Delta.

Dividing two noisy photon-count differences is the statistically delicate
step of the whole scheme: the naive reciprocal 1/Delta of a Poisson-noisy
denominator is strongly biased once Delta is within a few sigma of zero.
Instead of 1/Delta we use the mode of the posterior of Z = 1/Delta under a
Gaussian noise model,

    z_max = (sqrt(Delta^2 + 8 sigma^2) - Delta) / (4 sigma^2),

together with the local curvature width

    sigma_z = z_max^2 sigma / sqrt(2 - z_max Delta),

which stays finite and positive for every real Delta (z_max * Delta < 1
strictly).  The measurement value is then m = A * z_max with uncertainty
propagated in the absolute form sigma_m^2 = z_max^2 sigma_A^2 + A^2 sigma_z^2,
which is algebraically the relative-error form wherever A != 0 but remains
defined at A = 0.  Per-signal variances are the observed counts (the Poisson
maximum-likelihood estimate).

A measurement's four counts arrive as one length-4 array in the column order
of `signals.expected_signals`: first and second signal at tau, then at
tau = 0.  One private kernel, `_ratio`, turns (A, sigma_A^2, Delta,
sigma_Delta^2) into m and sigma_m, for sampled counts in _estimates and
bias_study and for expected counts in sigma_m_from_expectations.
_estimates takes a whole (..., 4) stack of count rows, as the runners
estimate them, and marks the rows that cannot be estimated;
measurement_estimate is its one-row case and raises EstimationError for
such a row.
"""

from __future__ import annotations

from dataclasses import astuple, dataclass, replace

import numpy as np

from .design import _is_int
from .signals import ROBUST_PROTOCOL, expected_signals

__all__ = [
    "EstimationError",
    "RatioEstimate",
    "reciprocal_mode",
    "measurement_estimate",
    "sigma_m_from_expectations",
    "BiasStudyRow",
    "BiasStudyResult",
    "bias_study",
]


class EstimationError(ValueError):
    """Raised when a set of raw signals cannot support an estimate at all."""


@dataclass(frozen=True)
class RatioEstimate:
    """Measurement value and uncertainty derived from four raw signals."""

    m_bar: float
    sigma_m: float
    z_max: float
    sigma_z: float
    numerator_a: float
    denominator_delta: float

    @property
    def delta_nonpositive(self):
        """True when the sampled denominator came out <= 0 (low-count event)."""
        return self.denominator_delta <= 0.0


def reciprocal_mode(delta_mean, delta_sigma):
    """Mode and width of the reciprocal of a Gaussian-noisy denominator.

    Uses the rationalized form z = 2 / (sqrt(Delta^2 + 8 sigma^2) + Delta),
    which avoids the cancellation the textbook numerator suffers when
    Delta >> sigma.  delta_sigma = 0 returns the exact limit (1/Delta, 0).
    Vectorizes over both arguments.
    """
    delta = np.asarray(delta_mean, dtype=float)
    sigma = np.asarray(delta_sigma, dtype=float)
    if np.any(sigma < 0.0):
        raise ValueError("delta_sigma must be nonnegative")
    exact = sigma == 0.0
    if np.any(exact & (delta == 0.0)):
        raise EstimationError("zero denominator with zero uncertainty")
    root = np.sqrt(delta * delta + 8.0 * sigma * sigma)
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        z = np.where(exact, 1.0 / np.where(delta == 0.0, 1.0, delta), 2.0 / (root + delta))
        # z * delta < 1 strictly, so the square root below is always real.
        sigma_z = np.where(exact, 0.0, z * z * sigma / np.sqrt(2.0 - z * delta))
    if z.ndim == 0:
        return float(z), float(sigma_z)
    return z, sigma_z


def _ratio(a, var_a, delta, var_delta):
    """M = a / delta through the reciprocal mode, with its propagated width.

    Returns (m, sigma_m, z, sigma_z); vectorizes over array arguments.
    """
    z, sigma_z = reciprocal_mode(delta, np.sqrt(var_delta))
    return a * z, np.sqrt(z * z * var_a + a * a * sigma_z * sigma_z), z, sigma_z


def _estimates(counts):
    """measurement_estimate over a (..., 4) count array, row by row.

    Returns RatioEstimate's six fields as arrays of the row shape and the
    rows' `usable` mask.  A row whose two tau = 0 counts are both zero (an
    all-zero row among them) is the row measurement_estimate rejects with
    EstimationError: it is not usable and its fields are NaN.
    """
    counts = np.asarray(counts, dtype=float)
    if counts.shape[-1:] != (4,) or not np.all(counts >= 0):
        raise ValueError("counts must be four nonnegative values per row")
    s1t, s2t, s10, s20 = np.moveaxis(counts, -1, 0)
    numerator = s1t - s2t
    delta = s10 - s20
    var_delta = s10 + s20
    # Both tau = 0 signals empty means delta = 0 with no width: the
    # reciprocal carries no information at any scale.
    usable = var_delta != 0.0
    # A tau pair that recorded no photons still carries shot-scale
    # uncertainty; floor the variance at one count so sigma_m stays positive.
    var_a = np.maximum(s1t + s2t, 1.0)
    ratio = _ratio(numerator, var_a, delta, np.where(usable, var_delta, 1.0))
    fields = (*ratio, numerator, delta)
    return tuple(np.where(usable, f, np.nan) for f in fields), usable


def measurement_estimate(counts):
    """RatioEstimate from the four photon counts of one measurement.

    `counts` is a length-4 array of nonnegative counts in expected_signals'
    column order: first and second signal at tau, then at tau = 0, as
    sample_signals returns them.  Expects the self-reverting signal first
    (Measurement.oriented), whose expected tau = 0 difference is positive; a
    sampled nonpositive denominator is still estimated, and flagged via
    RatioEstimate.delta_nonpositive.  The one-row case of _estimates.
    """
    counts = np.asarray(counts)
    if counts.shape != (4,):
        raise ValueError("counts must be four nonnegative values")
    fields, usable = _estimates(counts)
    if not usable:
        if not np.any(counts):
            raise EstimationError("all four signals recorded zero counts")
        raise EstimationError("denominator pair recorded zero counts")
    return RatioEstimate(*map(float, fields))


def sigma_m_from_expectations(e1_tau, e2_tau, e1_zero, e2_zero):
    """Value and shot-noise uncertainty of M from expected counts.

    The noiseless analog of measurement_estimate: variances are the Poisson
    expectations themselves.  Vectorizes over delay-shaped expectation
    arrays; the tau = 0 pair is typically scalar.  Returns (m, sigma_m).
    """
    e1_tau = np.asarray(e1_tau, dtype=float)
    e1_zero = np.asarray(e1_zero, dtype=float)
    m, sigma_m, _, _ = _ratio(
        e1_tau - e2_tau, e1_tau + e2_tau, e1_zero - e2_zero, e1_zero + e2_zero
    )
    if m.ndim == 0:
        return float(m), float(sigma_m)
    return m, sigma_m


@dataclass(frozen=True)
class BiasStudyRow:
    repetitions: int
    mean_ratio_nonlinear: float
    std_nonlinear: float
    mean_ratio_linear: float
    std_linear: float
    zero_denominator_count: int
    mean_ratio_m: float


@dataclass(frozen=True)
class BiasStudyResult:
    rows: list
    delta_per_repetition: float
    m_true: float

    COLUMNS = (
        "R",
        "mean_ratio_nonlinear",
        "std_nonlinear",
        "mean_ratio_linear",
        "std_linear",
        "zero_denominator_count",
    )

    @property
    def table(self):
        """One tuple per row, in COLUMNS order: each row's leading fields."""
        return tuple(astuple(row)[: len(self.COLUMNS)] for row in self.rows)


def bias_study(
    params,
    rates,
    tau,
    r_values,
    replicates=10**4,
    seed=0,
):
    """Monte Carlo of the reciprocal estimator bias across repetition counts.

    For each R, draws `replicates` four-signal measurements of
    ROBUST_PROTOCOL.plus, and reports the mean and spread of the
    reciprocal-mode estimate of Z = 1/Delta relative to the true
    1/E[Delta], next to the naive linear 1/Delta evaluated on the
    draws with a positive denominator; draws with Delta <= 0 are counted in
    zero_denominator_count.  sigma_Delta is estimated from the observed
    counts, as the estimator does in a run.  Arguments are checked before
    any draw.
    """
    if not (_is_int(replicates) and replicates >= 10**3):
        raise ValueError("replicates must be an integer of at least 1000 for stable tails")
    if len(r_values) == 0:
        raise ValueError("r_values must not be empty")
    rng = np.random.default_rng(seed)
    rows = []
    m_true = None
    delta_unit = None
    meas = ROBUST_PROTOCOL.plus.oriented()
    for r in r_values:
        # SignalParams rejects a non-whole r and keeps a whole one as an int.
        params_r = replace(params, repetitions_R=r)
        r = params_r.repetitions_R
        mean_1t, mean_2t, mean_10, mean_20 = expected_signals(meas, tau, rates, params_r)[0]
        delta_true = float(mean_10 - mean_20)
        z_true = 1.0 / delta_true
        m_true = float(mean_1t - mean_2t) / delta_true

        s1t = rng.poisson(mean_1t, size=replicates)
        s2t = rng.poisson(mean_2t, size=replicates)
        s10 = rng.poisson(mean_10, size=replicates)
        s20 = rng.poisson(mean_20, size=replicates)
        delta = (s10 - s20).astype(float)
        var_delta = (s10 + s20).astype(float)
        var_delta[var_delta == 0.0] = 1.0
        m_bar, _, z_nl, _ = _ratio(s1t - s2t, s1t + s2t, delta, var_delta)

        positive = delta > 0.0
        nonpositive = int(replicates - positive.sum())
        if positive.any():
            z_lin = 1.0 / delta[positive]
            mean_lin = float(z_lin.mean() / z_true)
            std_lin = float(z_lin.std() / z_true)
        else:
            mean_lin = float("nan")
            std_lin = float("nan")
        rows.append(
            BiasStudyRow(
                repetitions=r,
                mean_ratio_nonlinear=float(z_nl.mean() / z_true),
                std_nonlinear=float(z_nl.std() / z_true),
                mean_ratio_linear=mean_lin,
                std_linear=std_lin,
                zero_denominator_count=nonpositive,
                mean_ratio_m=float(m_bar.mean() / m_true) if m_true != 0.0 else float("nan"),
            )
        )
        delta_unit = delta_true / r  # per-repetition difference, R-independent
    return BiasStudyResult(rows=rows, delta_per_repetition=delta_unit, m_true=m_true)
