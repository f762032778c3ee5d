"""Independent reference implementations used as test oracles.

Everything here is deliberately written the slow, obvious way (dense matrix
exponentials, literal matrix chains, central finite differences) so that the
package's closed-form fast paths are checked against code that shares none
of their algebra.  `jacobian_sigma` and `expected_measurement` are the
matrix-route covariance and the four-count shot-noise prediction that the
closed-form design sigma is checked against.  `expected_difference` holds
the drift-insensitive pair's closed-form signal difference,
R C f0 (3 alpha - 1)/2 (1 - eta) model_m, that the package's generic
four-count path (`signals.expected_signals`) is compared against.
`looped_sample_signals` is the blocked Poisson sampler as first written,
one block at a time, kept so that the stacked sampler can be required to
reproduce it bit for bit.  `cost` is the scalar cost of one delay pair
through `design.gaussian_sigma`, and `exhaustive_argmin` the plain
np.argmin over a full surface that the bounded delay selection must match.
"""

import math
from dataclasses import replace

import numpy as np
from scipy.linalg import expm

from spinrelax.design import (
    ROBUST_CURVES,
    UninformativeDesign,
    _jacobian,
    _rate_values,
    gaussian_sigma,
)
from spinrelax.estimator import sigma_m_from_expectations
from spinrelax.rates import model_m
from spinrelax.signals import FourSignals, SignalSample, drift_schedule, expected_counts

# Basis order (-, 0, +) -> indices (0, 1, 2).


def rate_matrix(gamma_plus, gamma_minus):
    gp, gm = gamma_plus, gamma_minus
    return np.array(
        [
            [-gm, gm, 0.0],
            [gm, -(gm + gp), gp],
            [0.0, gp, -gp],
        ]
    )


def expm_propagator(tau, gamma_plus, gamma_minus):
    """Scaling-and-squaring matrix exponential of the explicit rate matrix."""
    return expm(rate_matrix(gamma_plus, gamma_minus) * tau)


def fd_model_gradient(tau, gamma_plus, gamma_minus, branch, h=1e-6):
    """Central finite differences of model_m with respect to both rates."""
    d_plus = (
        model_m(tau, (gamma_plus + h, gamma_minus), branch)
        - model_m(tau, (gamma_plus - h, gamma_minus), branch)
    ) / (2.0 * h)
    d_minus = (
        model_m(tau, (gamma_plus, gamma_minus + h), branch)
        - model_m(tau, (gamma_plus, gamma_minus - h), branch)
    ) / (2.0 * h)
    return float(d_plus), float(d_minus)


def _pulse_matrix(label, eta_plus, eta_minus):
    if label == "0":
        return np.eye(3)
    if label == "-":
        e = eta_minus
        return np.array([[e, 1.0 - e, 0.0], [1.0 - e, e, 0.0], [0.0, 0.0, 1.0]])
    if label == "+":
        e = eta_plus
        return np.array([[1.0, 0.0, 0.0], [0.0, e, 1.0 - e], [0.0, 1.0 - e, e]])
    raise ValueError(label)


def brute_expected_counts(
    prep,
    read,
    tau,
    gamma_plus,
    gamma_minus,
    f0,
    contrast,
    alpha,
    eta_plus,
    eta_minus,
    background,
    repetitions,
):
    """Literal five-factor matrix chain for the expected photon counts."""
    s = np.array([(1.0 - alpha) / 2.0, alpha, (1.0 - alpha) / 2.0])
    c = f0 * np.array([1.0 - contrast, 1.0, 1.0 - contrast])
    chain = np.dot(
        c,
        np.dot(
            _pulse_matrix(read, eta_plus, eta_minus),
            np.dot(
                expm_propagator(tau, gamma_plus, gamma_minus),
                np.dot(_pulse_matrix(prep, eta_plus, eta_minus), s),
            ),
        ),
    )
    return repetitions * (chain + background)


def jacobian_sigma(delays, rates, sigma_m, curves=ROBUST_CURVES):
    """Design covariance of the rates via the matrix route J^-1 diag(s^2) J^-T.

    An independent algebraic path; tests pin its agreement with
    design.gaussian_sigma to 1e-12.
    """
    jac = _jacobian(delays, rates, curves)
    det = jac[0, 0] * jac[1, 1] - jac[0, 1] * jac[1, 0]
    if det == 0.0 or not np.isfinite(det):
        raise UninformativeDesign("singular Jacobian")
    inv = np.array([[jac[1, 1], -jac[0, 1]], [-jac[1, 0], jac[0, 0]]]) / det
    cov = inv @ np.diag([sigma_m[0] ** 2, sigma_m[1] ** 2]) @ inv.T
    return cov


def cost(delays, rates, sigma_m, timing, curves=ROBUST_CURVES):
    """Time-normalized combined fractional sensitivity of one delay pair.

    An uninformative design costs infinity.
    """
    try:
        approx = gaussian_sigma(delays, rates, sigma_m, curves)
    except UninformativeDesign:
        return float("inf")
    gp, gm = _rate_values(rates)
    fractional = (approx.sigma_gamma_plus / gp) ** 2 + (approx.sigma_gamma_minus / gm) ** 2
    t = timing.duration_seconds(delays.tau_plus, delays.tau_minus)
    return float(np.sqrt(fractional) * np.sqrt(t))


def exhaustive_argmin(surface):
    """(i, j, value) of np.argmin over a whole surface: the first minimum in
    row-major order (smallest tau_plus, then tau_minus), or the first NaN."""
    i, j = np.unravel_index(np.argmin(surface), surface.shape)
    return int(i), int(j), float(surface[i, j])


def expected_measurement(measurement, tau, rates, params):
    """(m, sigma_m) for a measurement at the given delays, noise-free.

    Evaluates the four expected signals and propagates shot noise through
    the ratio; vectorized over tau.
    """
    meas = measurement.oriented(params)
    args = (rates, params)
    e1t = expected_counts(meas.first[0], meas.first[1], tau, *args)
    e2t = expected_counts(meas.second[0], meas.second[1], tau, *args)
    e10 = expected_counts(meas.first[0], meas.first[1], 0.0, *args)
    e20 = expected_counts(meas.second[0], meas.second[1], 0.0, *args)
    return sigma_m_from_expectations(e1t, e2t, e10, e20)


_ROBUST_MEASUREMENTS = {
    frozenset({("+", "0"), ("0", "0")}): "+",
    frozenset({("0", "+"), ("0", "0")}): "+",
    frozenset({("-", "0"), ("0", "0")}): "-",
    frozenset({("0", "-"), ("0", "0")}): "-",
}


def expected_difference(measurement, tau, rates, params):
    """Expected (first - second) signal difference; backgrounds cancel.

    For the drift-insensitive pairs this takes the closed form
    R * C * f0 * (3 alpha - 1)/2 * (1 - eta_b) * model_m(tau); every other
    pair is the difference of two expected_counts evaluations.
    """
    branch = _ROBUST_MEASUREMENTS.get(frozenset({measurement.first, measurement.second}))
    if branch is not None:
        eta = params.eta_plus if branch == "+" else params.eta_minus
        scale = (
            params.repetitions_R
            * params.contrast_C
            * params.f0
            * (3.0 * params.alpha - 1.0)
            / 2.0
            * (1.0 - eta)
        )
        value = scale * model_m(tau, rates, branch)
        # The closed form is for (self-reverting minus transfer); flip if the
        # caller stored the pair the other way around.
        if measurement.first[0] != measurement.first[1]:
            value = -value
        return value
    first = expected_counts(measurement.first[0], measurement.first[1], tau, rates, params)
    second = expected_counts(measurement.second[0], measurement.second[1], tau, rates, params)
    return first - second


def _signal_means(measurement, tau, rates, params):
    (p1, r1), (p2, r2) = measurement.first, measurement.second
    return (
        expected_counts(p1, r1, tau, rates, params),
        expected_counts(p2, r2, tau, rates, params),
        expected_counts(p1, r1, 0.0, rates, params),
        expected_counts(p2, r2, 0.0, rates, params),
    )


def looped_sample_signals(
    measurement,
    tau,
    rates,
    params,
    rng,
    drifts=None,
    t_start=0.0,
    duration_s=0.0,
    block_reps=1000,
):
    """Block-by-block sampler: four scalar expected_counts calls and four
    scalar Poisson draws per block, in block-major order."""
    total_r = params.repetitions_R
    if drifts is None:
        means = _signal_means(measurement, tau, rates, params)
        if any(mean < 0.0 for mean in means):
            raise ValueError("negative expected counts (check the background function)")
        counts = [int(rng.poisson(mean)) for mean in means]
        expectations = list(means)
    else:
        n_blocks = math.ceil(total_r / block_reps)
        counts = [0, 0, 0, 0]
        expectations = [0.0, 0.0, 0.0, 0.0]
        done = 0
        for b in range(n_blocks):
            reps = min(block_reps, total_r - done)
            done += reps
            t_block = t_start + (b + 0.5) / n_blocks * duration_s
            params_b = replace(drift_schedule(params, t_block, drifts), repetitions_R=reps)
            means = _signal_means(measurement, tau, rates, params_b)
            for k, mean in enumerate(means):
                if mean < 0.0:
                    raise ValueError("negative expected counts under drift")
                counts[k] += int(rng.poisson(mean))
                expectations[k] += mean

    (p1, r1), (p2, r2) = measurement.first, measurement.second
    labels = [(p1, r1), (p2, r2), (p1, r1), (p2, r2)]
    taus = [tau, tau, 0.0, 0.0]
    samples = [
        SignalSample(counts=c, expectation=float(e), tau=t, prep=lab[0], read=lab[1])
        for c, e, t, lab in zip(counts, expectations, taus, labels)
    ]
    return FourSignals(*samples)
