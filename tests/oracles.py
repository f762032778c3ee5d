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
one block at a time, each block a SignalParams from `drift_schedule`, kept
so that the stacked sampler and its one-pass domain check can be required
to reproduce it bit for bit and error for error.  `cost` is the scalar
cost of one delay pair through `jacobian_sigma`, and
`exhaustive_argmin` the plain np.argmin over a full surface that the
bounded delay selection must match.
`chi_squared_field` is the posterior's chi+^2 + chi-^2 as first written,
one branch-model call per branch, that the two-branch likelihood must equal
bit for bit (each residual scaled by the reciprocal of sqrt(2) sigma, as
the kernel scales it); `log_likelihood` is its scalar-or-array likelihood
of one rate hypothesis.
`scipy_regrid_weights` is scipy's linear RegularGridInterpolator over a
product grid; it and scipy's `logsumexp` are what the posterior's numpy
kernels must match to rounding.  `ROBUST_CURVES` spells out the robust
protocol's closed-form curves for kernel tests that need no protocol, and
`model_m_optimal` is the closed form of the highest-sensitivity pair that
the generic four-count path must reproduce.  `dense_model_m` is model_m in
the algebra it was first written in, ((g + x) e_fast + (g - x) e_slow) / 2g,
one fresh array per operation, which the model values must match within a
bound fixed from the rounding of both forms; `pq_model_m` is the kernel of
any class mix (a, b) in its own (p, q) form, (p + x q) / 2, on fresh
arrays, which model_m and both branches of the two-branch kernel must
equal bit for bit.  `dense_pf_select_delays` is the particle
selector with its variances summed over whole (particle, delay) arrays,
which the selector's variances must match to rounding.
`one_branch` reads one branch's model value out of a protocol's
two-branch kernel, the one curve entry point the program keeps.
`chain_bayes_update`, `chain_regrid` and `point_mass_moments` are the
posterior fold as first written, in two steps: each step builds a validated
`PosteriorGrid` from fresh arrays (its weights by a second `exp`), and the
moments are full 2-D point-mass sums; the fused fold kernel must pick the
same delays and match its moments to rounding.  `per_acquisition_four` is
the runners' acquisition as first written, computing an acquisition's
expected counts every time and drawing through `sample_signals`, which a
run's once-per-run expected counts must reproduce bit for bit.
`per_row_estimate_pairs` is the runners' estimation as first written, one
measurement_estimate call per branch, which the vectorized estimate of a
whole stack of acquisitions must reproduce bit for bit.
`choice_from_grid` is `ParticleCloud.from_grid` as first written, its
cell indices from `rng.choice`, which the sorted index search must
reproduce bit for bit, cloud and generator state.
`sequential_nap` is `experiments.run_nap` as first written, each
acquisition drawn at the run's clock and logged before the next, and each
sweep rebuilt before the next is drawn, which the paired rebuilds must
reproduce bit for bit, records, trace and posterior.
`chain_expected_signals` is `signals.expected_signals` as first written:
each delay's full (3, 3) propagator, clipped, pushed through the stacked
pulse and collection chain by batched matmul; the closed-form counts
(a constant plus two decays) must match it to rounding, and its tau = 0
columns bit for bit.
`zero_delay_oriented` is the orientation rule as first written: the pair
ordered by its rounded tau = 0 counts, the larger first and the pair as
given on a tie.  `Measurement.oriented` reads the same order off the
labels, and must agree with it at interior parameters.  Near the domain's
edges (alpha just above 1/3, eta just below 1/2, a tiny contrast) the two
counts can round to a tie or invert, and this rule can put a dark signal
first.
`entry_model_value` is a measurement's normalized model read the long way,
as the bright minus the dark entry of the full (..., 3, 3) propagator stack,
and `complex_step_gradient` its rate derivatives by complex-step
differentiation; the protocols' two-exponential kernel and its analytic
gradient are checked against them over all 36 measurements.
"""

import math
from dataclasses import replace

import numpy as np
from scipy.interpolate import RegularGridInterpolator
from scipy.linalg import expm

from spinrelax.design import (
    BranchCurves,
    DelayPair,
    ParticleCloud,
    UninformativeDesign,
    _check_positive_int,
    nob_select_delays,
)
from spinrelax import experiments
from spinrelax.estimator import EstimationError, measurement_estimate, sigma_m_from_expectations
from spinrelax.posterior import (
    GRID_SIZE,
    MeasurementPair,
    PosteriorGrid,
    PosteriorMoments,
    UpdateRejected,
    _axis_window,
    _bilinear,
    moments,
)
from spinrelax.rates import (
    BRANCHES,
    RatePair,
    _check_tau,
    _pair_values,
    _spectral_split,
    _unpack,
    model_gradient,
    model_m,
    propagator,
    propagator_entries,
)
from spinrelax.signals import (
    STATE_INDEX,
    Measurement,
    SignalParams,
    _block_means,
    _check_drift_fields,
    _stack_blocks,
    collection_vector,
    expected_counts,
    prep_vector,
    pulse_matrix,
    sample_signals,
)

# Basis order (-, 0, +) -> indices (0, 1, 2).

# The robust protocol's curves, the closed-form model_m and its gradient;
# both branches' values at once are model_m's two-branch kernel.
ROBUST_CURVES = BranchCurves(
    gradient=model_gradient,
    pair_value=lambda tp, tm, rates, out=None: _pair_values(tp, tm, rates, (1, 0), (0, 1), out),
)


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

    An independent algebraic path: J's rows are each branch's
    `curves.gradient` at its delay, unscaled.  Tests pin its agreement
    with design.gaussian_sigma.
    """
    jac = np.array(
        [
            curves.gradient(delays.tau_plus, rates, "+"),
            curves.gradient(delays.tau_minus, rates, "-"),
        ],
        dtype=float,
    )
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
        cov = jacobian_sigma(delays, rates, sigma_m, curves)
    except UninformativeDesign:
        return float("inf")
    gp, gm = map(float, _unpack(rates))
    fractional = cov[0, 0] / gp**2 + cov[1, 1] / gm**2
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
    meas = measurement.oriented()
    args = (rates, params)
    e1t = expected_counts(meas.first[0], meas.first[1], tau, *args)
    e2t = expected_counts(meas.second[0], meas.second[1], tau, *args)
    e10 = expected_counts(meas.first[0], meas.first[1], 0.0, *args)
    e20 = expected_counts(meas.second[0], meas.second[1], 0.0, *args)
    return sigma_m_from_expectations(e1t, e2t, e10, e20)


def zero_delay_oriented(measurement, params):
    """The pair with the larger expected tau = 0 count first, the pair itself on a tie."""
    first, second = (
        expected_counts(prep, read, 0.0, RatePair(1.0, 1.0), params)
        for prep, read in (measurement.first, measurement.second)
    )
    return measurement if first >= second else Measurement(measurement.second, measurement.first)


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


def drift_schedule(params, t, drifts, **fixed):
    """Instantaneous SignalParams at wall-clock time t (seconds).

    `drifts` maps field names (f0, contrast_C, alpha, eta_plus, eta_minus,
    background) to callables of t returning the drifted value; missing fields
    stay constant.  `fixed` sets further fields (such as a block's
    repetitions_R) in the same replace.  Values violating the parameter
    invariants raise a ValueError naming the time t and the violated field.
    """
    drifts = drifts or {}
    if not drifts and not fixed:
        return params
    _check_drift_fields(drifts)
    values = {name: fn(t) for name, fn in drifts.items()}
    try:
        return replace(params, **fixed, **values)
    except ValueError as exc:
        raise ValueError(f"drift schedule at t = {t:.6g} s: {exc}") from exc


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
    scalar Poisson draws per block, in block-major order.  Returns the four
    (counts, expectations) as lists of ints and floats, first and second
    signal at tau, then at tau = 0."""
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
    return counts, [float(e) for e in expectations]


def chi_squared_field(pair, gamma_plus, gamma_minus, model=model_m):
    """chi+^2 + chi-^2 with one branch-model call (tau, rates, branch) per branch."""
    total = 0.0
    for branch, m, sigma, tau in (
        ("+", pair.m_plus, pair.sigma_plus, pair.tau_plus),
        ("-", pair.m_minus, pair.sigma_minus, pair.tau_minus),
    ):
        predicted = model(tau, (gamma_plus, gamma_minus), branch)
        with np.errstate(over="ignore"):
            total = total + ((m - predicted) * (1.0 / (np.sqrt(2.0) * sigma))) ** 2
    return total


def log_likelihood(pair, rates, model=model_m):
    """-chi+^2 - chi-^2 for one rate hypothesis (scalar or arrays)."""
    gp, gm = (rates.gamma_plus, rates.gamma_minus) if hasattr(rates, "gamma_plus") else rates
    gp, gm = np.asarray(gp, dtype=float), np.asarray(gm, dtype=float)
    value = -chi_squared_field(pair, gp, gm, model)
    return float(value) if np.ndim(value) == 0 else value


def scipy_regrid_weights(gp, gm, values, new_gp, new_gm):
    """values on gp x gm at the nodes of new_gp x new_gm, 0 outside the support.

    The copy is writable: scipy takes its compiled 2-D path only for writable
    values, and its Python fallback rounds differently.
    """
    interp = RegularGridInterpolator(
        (gp, gm), np.array(values), method="linear", bounds_error=False, fill_value=0.0
    )
    return interp(np.stack(np.meshgrid(new_gp, new_gm, indexing="ij"), axis=-1))


def model_m_optimal(tau, rates, eta, branch):
    """Normalized expectation of the highest-sensitivity signal pair.

    Unlike model_m this depends on the pi-pulse error eta of the branch being
    measured, which is exactly why that pair is not drift-insensitive.  The
    closed form is

        exp(-(gp+gm) tau) * [cosh(g tau)
            + (own - other + eta (other - 2 own)) sinh(g tau) / ((2 eta - 1) g)]

    with own/other the branch's rate and its partner.
    """
    tau = _check_tau(tau)
    gp, gm = _unpack(rates)
    if branch not in BRANCHES:
        raise ValueError(f"branch must be one of {BRANCHES}, got {branch!r}")
    eta = np.asarray(eta, dtype=float)
    if np.any(eta < 0.0) or np.any(eta >= 0.5):
        raise ValueError("eta must lie in [0, 0.5); eta = 0.5 collapses the normalization")
    g = _spectral_split(gp, gm)
    own, other = (gp, gm) if branch == "+" else (gm, gp)
    coeff = (own - other + eta * (other - 2.0 * own)) / ((2.0 * eta - 1.0) * g)
    return np.exp(-(gp + gm) * tau) * (np.cosh(g * tau) + coeff * np.sinh(g * tau))


def dense_model_m(tau, rates, branch):
    """model_m as ((g + x) e_fast + (g - x) e_slow) / 2g, pinned to 1 at
    tau = 0, with every operation on a fresh array."""
    tau = _check_tau(tau)
    gp, gm = _unpack(rates)
    if branch not in BRANCHES:
        raise ValueError(f"branch must be one of {BRANCHES}, got {branch!r}")
    g = _spectral_split(gp, gm)
    own = gp if branch == "+" else gm
    e_fast = np.exp(-(gp + gm + g) * tau)
    e_slow = np.exp(-(gp + gm - g) * tau)
    value = ((g + own) * e_fast + (g - own) * e_slow) / (2.0 * g)
    return np.where(np.asarray(tau) == 0.0, 1.0, value)


def pq_model_m(tau, rates, mix):
    """The kernel as (p + x q) / 2, p = e_fast + e_slow, q = (e_fast - e_slow) / g,
    x = a gamma_plus + b gamma_minus, with every operation on a fresh array.
    `mix` is a class mix (a, b) or a model_m branch: "+" is (1, 0), "-" is (0, 1)."""
    tau = _check_tau(tau)
    gp, gm = _unpack(rates)
    a, b = {"+": (1, 0), "-": (0, 1)}.get(mix, mix)
    g = _spectral_split(gp, gm)
    own = a * gp + b * gm
    e_fast = np.exp((gp + gm + g) * -tau)
    e_slow = np.exp((gp + gm - g) * -tau)
    p = e_fast + e_slow
    q = (e_fast - e_slow) / g
    return np.asarray((p + own * q) / 2.0)


def dense_branch_variances(cloud, taus, curves):
    """(var_plus, var_minus) from whole (particle, delay) arrays."""
    gp = cloud.gammas[:, 0][:, None]
    gm = cloud.gammas[:, 1][:, None]
    w = cloud.weights[:, None]
    variances = []
    for branch in BRANCHES:
        values = one_branch(curves)(taus[None, :], (gp, gm), branch)
        mean = np.sum(w * values, axis=0)
        variances.append(np.sum(w * (values - mean) ** 2, axis=0))
    return variances


def dense_pf_select_delays(cloud, timing, curves, grid, subgrid):
    """The particle selector with the utility taken over whole arrays."""
    mean_rates = tuple(np.average(cloud.gammas, axis=0, weights=cloud.weights))
    if cloud.is_degenerate():
        return nob_select_delays(mean_rates, timing, curves, grid)
    step = max(1, grid.taus.size // int(subgrid))
    taus = grid.taus[::step]
    var_plus, var_minus = dense_branch_variances(cloud, taus, curves)
    t = timing.duration_seconds(taus[:, None], taus[None, :])
    utility = (var_plus[:, None] + var_minus[None, :]) / np.sqrt(t)
    if not np.any(utility > 0.0):
        return nob_select_delays(mean_rates, timing, curves, grid)
    flat = np.argmax(utility)
    i, j = np.unravel_index(flat, utility.shape)
    return DelayPair(tau_plus=float(taus[i]), tau_minus=float(taus[j]))


def chain_expected_signals(measurement, tau, rates, blocks):
    """expected_signals through the full propagator: shape tau.shape + (blocks, 4)."""
    if isinstance(blocks, SignalParams):
        blocks = _stack_blocks(blocks)
    pumped = prep_vector(blocks)[:, :, None]
    yields = collection_vector(blocks)[:, None, :]
    chains = [
        ((pulse_matrix(prep, blocks) @ pumped)[:, :, 0], yields @ pulse_matrix(read, blocks))
        for prep, read in (measurement.first, measurement.second)
    ]
    columns = []
    # exp(K * 0) is the identity exactly, as propagator() pins it.
    for t, entries in ((tau, propagator(tau, rates)), (0.0, np.eye(3))):
        background = [b(t) if callable(b) else b for b in blocks.background]
        background = np.moveaxis(np.array(background, dtype=float), 0, -1)
        for start, finish in chains:
            bare = finish @ np.einsum("...ij,bj->...bi", entries, start)[..., None]
            columns.append(blocks.repetitions_R * (bare[..., 0, 0] + background))
    return np.stack(np.broadcast_arrays(*columns), axis=-1)


def entry_model_value(measurement, tau, rates):
    """Bright-entry minus dark-entry propagator difference, 1 at tau = 0.

    The normalized measurement under ideal parameters, read from the full
    spectral propagator; takes complex rates for complex-step derivatives.
    """
    first, second = measurement.first, measurement.second
    bright, dark = (first, second) if first[0] == first[1] else (second, first)
    gp, gm = (rates.gamma_plus, rates.gamma_minus) if hasattr(rates, "gamma_plus") else rates
    entries = propagator_entries(tau, gp, gm)
    # A (prep, read) signal probes row read, column prep.
    return (
        entries[..., STATE_INDEX[bright[1]], STATE_INDEX[bright[0]]]
        - entries[..., STATE_INDEX[dark[1]], STATE_INDEX[dark[0]]]
    )


def complex_step_gradient(measurement, tau, rates):
    """(d/d gamma_plus, d/d gamma_minus) of entry_model_value by complex step."""
    gp, gm = (rates.gamma_plus, rates.gamma_minus) if hasattr(rates, "gamma_plus") else rates
    h = 1e-20
    d_plus = entry_model_value(measurement, tau, (gp + 1j * h, gm)).imag / h
    d_minus = entry_model_value(measurement, tau, (gp, gm + 1j * h)).imag / h
    return d_plus, d_minus


def one_branch(curves):
    """(tau, rates, branch) -> that branch's model value, from curves.pair_value
    with both branches at tau."""

    def value(tau, rates, branch):
        plus, minus = curves.pair_value(tau, tau, rates)
        return plus if branch == "+" else minus

    return value


def choice_from_grid(grid, n, rng):
    """ParticleCloud.from_grid as first written: its cell indices from
    rng.choice over the grid's weights, then the same jitter draws."""
    w = grid.weights.ravel()
    idx = rng.choice(w.size, size=n, p=w)
    i, j = np.unravel_index(idx, grid.weights.shape)
    cell_p = float(np.mean(np.diff(grid.gamma_plus_axis)))
    cell_m = float(np.mean(np.diff(grid.gamma_minus_axis)))
    lo, hi = grid.hard_bounds
    gp = grid.gamma_plus_axis[i] + rng.uniform(-0.5, 0.5, i.size) * cell_p
    gm = grid.gamma_minus_axis[j] + rng.uniform(-0.5, 0.5, j.size) * cell_m
    gammas = np.clip(np.column_stack([gp, gm]), lo, hi)
    return ParticleCloud(gammas=gammas, weights=np.full(n, 1.0 / n))


def chain_bayes_update(grid, pair, model, workspace=None):
    """bayes_update as first written: chi^2 in the model's fresh arrays (each
    residual scaled by the reciprocal of sqrt(2) sigma, as the kernel scales
    it), the prior minus it normalized by a validated PosteriorGrid.  `workspace` is
    accepted and ignored, so a runner can call it in place of the kernel."""
    chi = model(pair.tau_plus, pair.tau_minus, grid.meshes())
    with np.errstate(over="ignore"):
        for c, m, s in zip(chi, (pair.m_plus, pair.m_minus), (pair.sigma_plus, pair.sigma_minus)):
            np.subtract(m, c, out=c)
            np.multiply(c, 1.0 / (np.sqrt(2.0) * s), out=c)
            np.square(c, out=c)
        lw = grid.log_weights - (chi[0] + chi[1])
    if not np.isfinite(np.max(lw)):
        raise UpdateRejected(
            "measurement is inconsistent with every point of the posterior support"
        )
    return PosteriorGrid(grid.gamma_plus_axis, grid.gamma_minus_axis, lw, grid.hard_bounds)


def point_mass_moments(grid):
    """moments as first written: full 2-D sums over the node weights."""
    w = grid.weights
    gp, gm = grid.meshes()
    mean_p = float(np.sum(w * gp))
    mean_m = float(np.sum(w * gm))
    var_p = max(float(np.sum(w * (gp - mean_p) ** 2)), 0.0)
    var_m = max(float(np.sum(w * (gm - mean_m) ** 2)), 0.0)
    cov = float(np.sum(w * (gp - mean_p) * (gm - mean_m)))
    return PosteriorMoments(mean_p, mean_m, np.sqrt(var_p), np.sqrt(var_m), cov)


def chain_regrid(grid, size=GRID_SIZE, workspace=None):
    """regrid as first written: window from point_mass_moments, the weights
    interpolated, their log normalized again by a validated PosteriorGrid."""
    _check_positive_int(size, "size")
    mom = point_mass_moments(grid)
    new_gp, new_gm = (
        np.linspace(*_axis_window(mean, sigma, axis, grid.hard_bounds), size)
        for mean, sigma, axis in (
            (mom.mean_plus, mom.sigma_plus, grid.gamma_plus_axis),
            (mom.mean_minus, mom.sigma_minus, grid.gamma_minus_axis),
        )
    )
    w = _bilinear(grid.gamma_plus_axis, grid.gamma_minus_axis, grid.weights, new_gp, new_gm)
    total = w.sum()
    if not total > 0.0:
        raise UpdateRejected("regrid produced an empty posterior")
    with np.errstate(divide="ignore"):
        lw = np.log(w / total)
    return PosteriorGrid(new_gp, new_gm, lw, grid.hard_bounds)


def per_row_estimate_pairs(counts, delays):
    """experiments._estimate_pairs as first written: one measurement_estimate
    call per branch row, None where either branch raises EstimationError."""
    pairs = []
    for (plus, minus), d in zip(np.reshape(counts, (-1, 2, 4)), delays):
        try:
            est_plus, est_minus = measurement_estimate(plus), measurement_estimate(minus)
        except EstimationError:
            pairs.append(None)
            continue
        pairs.append(
            MeasurementPair(
                m_plus=est_plus.m_bar,
                m_minus=est_minus.m_bar,
                sigma_plus=est_plus.sigma_m,
                sigma_minus=est_minus.sigma_m,
                tau_plus=d.tau_plus,
                tau_minus=d.tau_minus,
            )
        )
    return pairs


def per_acquisition_four(run, measurement, tau, t_start, duration_s):
    """experiments._Run.four as first written: expected counts computed every
    time, noisy counts drawn by sample_signals."""
    config = run.config
    args = (measurement, tau, config.true_rates, config.params)
    if config.noiseless:
        return _block_means(*args, config.drifts, t_start, duration_s)[1]
    return sample_signals(*args, run.rng, config.drifts, t_start, duration_s)


def sequential_nap(config, stop_sigma=None, max_physical_s=None):
    """experiments.run_nap as first written: one acquisition at a time,
    drawn at the run's clock, estimated and logged, and each sweep rebuilt
    from the prior on the caller before the next is drawn."""
    run = experiments._Run(config)
    pairs = config.nap_delay_pairs()
    totals = np.zeros((len(pairs), 2, 4))
    posterior = run.prior
    state = moments(posterior)
    sweep = np.empty_like(totals)
    for _ in range(config.iterations):
        for counts, delays in zip(sweep, pairs):
            counts[:] = run.acquire(delays, run.t_physical)
            (probe,) = experiments._estimate_pairs(counts[None], [delays])
            run.log(delays, probe, probe is None, state)
        totals += sweep
        posterior = run.prior
        for pair in experiments._estimate_pairs(totals, pairs):
            folded = run.fold(posterior, pair, run.workspace)
            run.flagged_count += folded is posterior
            posterior = folded
        run.t_total += config.selector_overhead_s
        state = moments(posterior)
        run.mark(state)
        if stop_sigma is not None and (
            state.sigma_plus <= stop_sigma[0] and state.sigma_minus <= stop_sigma[1]
        ):
            break
        if max_physical_s is not None and run.t_physical >= max_physical_s:
            break
    return run.run_record(posterior, state)
