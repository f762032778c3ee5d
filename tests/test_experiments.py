"""Adaptive loop, fixed-sweep baseline, timing, and speedup study."""

import json

import numpy as np
import pytest

from oracles import ROBUST_CURVES
from spinrelax.design import DelayGrid, DelayPair, TimingModel, nob_select_delays
from spinrelax.experiments import (
    ExperimentConfig,
    NAP_DEFAULT_DELAYS,
    RunRecord,
    TracePoint,
    replicate_seeds,
    run_adaptive,
    run_nap,
    sigma_trace_slope,
    speedup_study,
    time_to_reach,
)
from spinrelax.posterior import DEFAULT_BOUNDS, PosteriorMoments, initial_grid
from spinrelax.protocols import IDEAL_RANKING_PARAMS, minimal_cost
from spinrelax.rates import RatePair
from spinrelax.signals import OPTIMAL_PROTOCOL, SignalParams

TRUTH = RatePair(1.0, 3.0)


def fig_defaults(**overrides):
    base = dict(true_rates=TRUTH, optimizer="nob", iterations=10, seed=0)
    base.update(overrides)
    return ExperimentConfig(**base)


class TestConfigValidation:
    def test_unknown_optimizer(self):
        with pytest.raises(ValueError):
            fig_defaults(optimizer="anneal")

    def test_nap_needs_delays(self):
        with pytest.raises(ValueError):
            fig_defaults(optimizer="nap")

    def test_scalar_nap_list_must_increase(self):
        with pytest.raises(ValueError):
            fig_defaults(optimizer="nap", nap_delays=(0.1, 0.1, 0.2))

    def test_unknown_drift_field(self):
        # Rejected when the config is built, before any run can drop it.
        with pytest.raises(ValueError, match=r"cannot drift unknown fields: \['alhpa'\]"):
            fig_defaults(noiseless=True, drifts={"alhpa": lambda t: 0.8})

    @pytest.mark.parametrize(
        "field, value",
        [
            ("iterations", 2.0),
            ("iterations", True),
            ("grid_size", 1),
            ("particle_count", 0),
            ("seed", True),
            ("seed", -1),
            ("seed", 1.5),
        ],
    )
    def test_integer_fields_checked(self, field, value):
        with pytest.raises(ValueError, match=field):
            fig_defaults(**{field: value})

    @pytest.mark.parametrize("bounds", [(0.1, np.inf), (0.0, 5.0), (2.0, 1.0)])
    def test_prior_bounds_must_be_finite_and_ordered(self, bounds):
        # An infinite bound made a NaN prior axis: every iteration flagged, NaN means.
        with pytest.raises(ValueError, match="prior_bounds must satisfy 0 < lo < hi < inf"):
            fig_defaults(prior_bounds=bounds)

    @pytest.mark.parametrize("value", [float("nan"), float("inf"), -1.0])
    def test_selector_overhead_must_be_finite_and_nonnegative(self, value):
        with pytest.raises(ValueError, match="selector_overhead_s"):
            fig_defaults(selector_overhead_s=value)

    def test_pair_nap_list_any_order(self):
        cfg = fig_defaults(
            optimizer="nap", nap_delays=((0.3, 0.1), (0.05, 0.4)), iterations=0
        )
        assert len(cfg.nap_delay_pairs()) == 2

    @pytest.mark.parametrize("optimizer", ["nap", "nob"])
    @pytest.mark.parametrize(
        "entry, message",
        [
            ((0.5, -1.0), "delays must be positive"),
            ((0.5, float("inf")), "delays must be positive and finite"),
            ((0.5, 1.0, 2.0), "entries must be a delay or"),
        ],
    )
    def test_every_nap_entry_checked_at_construction(self, optimizer, entry, message):
        # Rejected when the config is built, not midway through a run.
        with pytest.raises(ValueError, match=message):
            fig_defaults(optimizer=optimizer, nap_delays=((0.1, 0.2), entry))

    def test_wrong_runner(self):
        with pytest.raises(ValueError):
            run_adaptive(fig_defaults(optimizer="nap", nap_delays=(0.1, 0.2)))
        with pytest.raises(ValueError):
            run_nap(fig_defaults(optimizer="nob"))


class TestAdaptiveRun:
    def test_whole_float_repetitions_run(self):
        # SignalParams accepts a whole-valued float R; TimingModel takes only ints.
        params = SignalParams(repetitions_R=1e5)
        assert type(params.repetitions_R) is int and params.repetitions_R == 10**5
        whole = SignalParams(repetitions_R=10**5)
        rec, want = (run_adaptive(fig_defaults(params=p, iterations=2, seed=4)) for p in (params, whole))
        assert (rec.iterations, rec.final) == (want.iterations, want.final)
        cost = minimal_cost(OPTIMAL_PROTOCOL, TRUTH, params)
        assert cost == minimal_cost(OPTIMAL_PROTOCOL, TRUTH, whole)

    def test_noiseless_converges_fast(self):
        cfg = fig_defaults(iterations=5, noiseless=True, seed=1)
        rec = run_adaptive(cfg)
        # within the initial inference grid's cell size of the truth
        cell = (cfg.prior_bounds[1] - cfg.prior_bounds[0]) / (cfg.grid_size - 1)
        assert abs(rec.final.mean_plus - TRUTH.gamma_plus) < cell
        assert abs(rec.final.mean_minus - TRUTH.gamma_minus) < cell
        assert abs(rec.final.mean_plus - TRUTH.gamma_plus) < 0.5 * rec.final.sigma_plus
        assert rec.flagged_count == 0

    @pytest.mark.parametrize("optimizer", ["nob", "pf"])
    def test_noiseless_optimal_protocol_converges(self, optimizer):
        # A protocol outside the robust classes: selection and updates run
        # on its two-exponential kernel, exact under ideal parameters.
        cfg = fig_defaults(
            protocol=OPTIMAL_PROTOCOL,
            params=IDEAL_RANKING_PARAMS,
            iterations=5,
            noiseless=True,
            optimizer=optimizer,
        )
        rec = run_adaptive(cfg)
        cell = (cfg.prior_bounds[1] - cfg.prior_bounds[0]) / (cfg.grid_size - 1)
        assert abs(rec.final.mean_plus - TRUTH.gamma_plus) < cell
        assert abs(rec.final.mean_minus - TRUTH.gamma_minus) < cell
        assert abs(rec.final.mean_plus - TRUTH.gamma_plus) < 0.5 * rec.final.sigma_plus
        assert abs(rec.final.mean_minus - TRUTH.gamma_minus) < 0.5 * rec.final.sigma_minus
        assert rec.flagged_count == 0

    def test_noisy_run_near_truth(self):
        rec = run_adaptive(fig_defaults(iterations=12, seed=42))
        assert abs(rec.final.mean_plus - TRUTH.gamma_plus) < 4.0 * rec.final.sigma_plus
        assert abs(rec.final.mean_minus - TRUTH.gamma_minus) < 4.0 * rec.final.sigma_minus

    def test_delays_settle_near_true_rate_optimum(self):
        rec = run_adaptive(fig_defaults(iterations=12, seed=42))
        timing = TimingModel(repetitions_R=SignalParams().repetitions_R)
        fixed_point = nob_select_delays(TRUTH, timing, ROBUST_CURVES)
        last = rec.iterations[-1].delays
        assert fixed_point.tau_plus / 2 < last.tau_plus < fixed_point.tau_plus * 2
        assert fixed_point.tau_minus / 2 < last.tau_minus < fixed_point.tau_minus * 2

    def test_clocks_and_duty(self):
        rec = run_adaptive(fig_defaults(iterations=6, seed=3))
        clocks = [r.cumulative_time_s for r in rec.iterations]
        assert all(b > a for a, b in zip(clocks, clocks[1:]))
        assert 0.0 < rec.duty_cycle <= 1.0
        assert rec.total_physical_s <= rec.total_time_s

    def test_configured_overhead_is_deterministic(self):
        rec = run_adaptive(fig_defaults(iterations=4, seed=5, selector_overhead_s=0.3))
        assert all(r.cpu_overhead_s == 0.3 for r in rec.iterations)
        assert rec.total_time_s == pytest.approx(rec.total_physical_s + 4 * 0.3)

    def test_estimator_failure_flags_and_continues(self):
        dark = SignalParams(f0=1e-12, repetitions_R=10)
        cfg = fig_defaults(iterations=3, params=dark, seed=2)
        rec = run_adaptive(cfg)
        assert rec.flagged_count == 3
        assert len(rec.iterations) == 3
        prior = initial_grid(bounds=cfg.prior_bounds, size=cfg.grid_size)
        np.testing.assert_array_equal(rec.posterior.log_weights, prior.log_weights)

    def test_jsonl_and_summary(self):
        rec = run_adaptive(fig_defaults(iterations=3, seed=7))
        lines = rec.to_jsonl().strip().split("\n")
        assert len(lines) == 3
        row = json.loads(lines[0])
        for key in (
            "iteration",
            "tau_plus_ms",
            "gamma_plus_mean_per_ms",
            "sigma_m_minus",
            "cumulative_time_s",
        ):
            assert key in row
        summary = rec.summary_dict()
        assert summary["iterations"] == 3
        assert summary["duty_cycle"] == pytest.approx(rec.duty_cycle)

    def test_seed_reproducibility(self):
        a = run_adaptive(fig_defaults(iterations=5, seed=11))
        b = run_adaptive(fig_defaults(iterations=5, seed=11))
        c = run_adaptive(fig_defaults(iterations=5, seed=12))
        assert a.to_jsonl() == b.to_jsonl()
        assert a.to_jsonl() != c.to_jsonl()

    def test_pf_optimizer_runs(self):
        rec = run_adaptive(fig_defaults(optimizer="pf", iterations=8, seed=9))
        assert rec.flagged_count == 0
        assert abs(rec.final.mean_plus - TRUTH.gamma_plus) < 6.0 * rec.final.sigma_plus

    def test_drifting_alpha_stays_reasonable(self):
        drifts = {"alpha": lambda t: 0.8 - 0.2 * min(t / 5000.0, 1.0)}
        rec = run_adaptive(fig_defaults(iterations=10, seed=13, drifts=drifts))
        assert abs(rec.final.mean_plus - TRUTH.gamma_plus) < 4.0 * rec.final.sigma_plus
        assert abs(rec.final.mean_minus - TRUTH.gamma_minus) < 4.0 * rec.final.sigma_minus

    def test_drift_out_of_domain_aborts_naming_time_and_field(self):
        # alpha reaches 1/3 at t = 155.6 s, inside an acquisition block.
        drifts = {"alpha": lambda t: 0.8 - 0.6 * min(t / 200.0, 1.0)}
        with pytest.raises(
            ValueError, match=r"^drift schedule at t = 155\.\d+ s: alpha must lie in \(1/3, 1\]$"
        ):
            run_adaptive(fig_defaults(iterations=30, seed=0, drifts=drifts))

    def test_noiseless_run_applies_drift_blocks(self):
        # A constant f0 drift is the static run at that f0, block by block;
        # the records' sigma_M shows f0, since the robust m cancels it.
        drifted = run_adaptive(
            fig_defaults(iterations=4, noiseless=True, drifts={"f0": lambda t: 0.01})
        )
        static = run_adaptive(
            fig_defaults(iterations=4, noiseless=True, params=SignalParams(f0=0.01))
        )
        default = run_adaptive(fig_defaults(iterations=4, noiseless=True))
        first = (drifted.iterations[0].measurement, static.iterations[0].measurement)
        assert first[0].sigma_plus == pytest.approx(first[1].sigma_plus, rel=1e-12)
        assert first[0].sigma_plus > 1.3 * default.iterations[0].measurement.sigma_plus
        for a, b in zip(drifted.iterations, static.iterations):
            assert a.delays == b.delays
            assert a.mean_plus == pytest.approx(b.mean_plus, rel=1e-9)
            assert a.mean_minus == pytest.approx(b.mean_minus, rel=1e-9)


class TestNapRun:
    def test_zero_sweeps_returns_prior(self):
        cfg = fig_defaults(optimizer="nap", iterations=0, nap_delays=NAP_DEFAULT_DELAYS)
        rec = run_nap(cfg)
        prior = initial_grid(bounds=cfg.prior_bounds, size=cfg.grid_size)
        np.testing.assert_array_equal(rec.posterior.log_weights, prior.log_weights)
        assert len(rec.iterations) == 0
        assert rec.total_time_s == 0.0

    def test_nap_with_nob_sequence_matches_adaptive_exactly(self):
        adaptive = run_adaptive(fig_defaults(iterations=8, seed=42))
        sequence = tuple(
            (r.delays.tau_plus, r.delays.tau_minus) for r in adaptive.iterations
        )
        nap = run_nap(
            fig_defaults(optimizer="nap", iterations=1, nap_delays=sequence, seed=42)
        )
        np.testing.assert_array_equal(
            nap.posterior.log_weights, adaptive.posterior.log_weights
        )
        np.testing.assert_array_equal(
            nap.posterior.gamma_plus_axis, adaptive.posterior.gamma_plus_axis
        )
        np.testing.assert_array_equal(
            nap.posterior.gamma_minus_axis, adaptive.posterior.gamma_minus_axis
        )
        # Both runners keep their clocks through the same ledger.
        clocks = ("duration_s", "cumulative_time_s", "cumulative_physical_s", "cpu_overhead_s")
        for a, b in zip(adaptive.iterations, nap.iterations, strict=True):
            assert [getattr(b, c) for c in clocks] == [getattr(a, c) for c in clocks]
        assert nap.total_time_s == adaptive.total_time_s
        assert nap.total_physical_s == adaptive.total_physical_s
        assert nap.delay_time_s == adaptive.delay_time_s
        assert nap.trace_points[-1] == adaptive.trace_points[-1]

    def test_overhead_shifts_cumulative_times_exactly(self):
        base = fig_defaults(
            optimizer="nap", iterations=2, nap_delays=(0.05, 0.2, 0.8), seed=4
        )
        shifted = fig_defaults(
            optimizer="nap",
            iterations=2,
            nap_delays=(0.05, 0.2, 0.8),
            seed=4,
            timing=TimingModel(
                repetitions_R=SignalParams().repetitions_R, overhead_T0=2.5
            ),
        )
        a = run_nap(base)
        b = run_nap(shifted)
        for k, (ra, rb) in enumerate(zip(a.iterations, b.iterations), start=1):
            assert rb.cumulative_physical_s == pytest.approx(
                ra.cumulative_physical_s + 2.5 * k
            )

    def test_fixed_sweep_needs_longer_to_match_adaptive(self):
        # per-pairing speedup > 1 away from the slow-rate sweet spot
        params = SignalParams(repetitions_R=10**5)
        fast = RatePair(2.0, 2.0)
        ratios = []
        for seed in replicate_seeds(99, 3):
            adaptive = run_adaptive(
                fig_defaults(true_rates=fast, params=params, iterations=12, seed=seed)
            )
            nap = run_nap(
                fig_defaults(
                    true_rates=fast,
                    params=params,
                    optimizer="nap",
                    iterations=10**6,
                    nap_delays=NAP_DEFAULT_DELAYS,
                    seed=seed,
                ),
                max_physical_s=64.0 * adaptive.total_physical_s,
            )
            (tp, _), (tm, _) = time_to_reach(
                nap, adaptive.final.sigma_plus, adaptive.final.sigma_minus
            )
            ratios.append(
                (tp / adaptive.total_physical_s, tm / adaptive.total_physical_s)
            )
        med = np.median(ratios, axis=0)
        assert med[0] > 2.0
        assert med[1] > 2.0

    def test_single_optimal_delay_nap_within_2x(self):
        timing = TimingModel(repetitions_R=SignalParams().repetitions_R)
        best = nob_select_delays(TRUTH, timing, ROBUST_CURVES)
        ratios = []
        for seed in replicate_seeds(7, 5):
            adaptive = run_adaptive(fig_defaults(iterations=8, seed=seed))
            nap = run_nap(
                fig_defaults(
                    optimizer="nap",
                    iterations=10 ** 6,
                    nap_delays=((best.tau_plus, best.tau_minus),),
                    seed=seed,
                ),
                max_physical_s=adaptive.total_physical_s,
            )
            ratios.append(
                (
                    nap.final.sigma_plus / adaptive.final.sigma_plus,
                    nap.final.sigma_minus / adaptive.final.sigma_minus,
                )
            )
        med = np.median(ratios, axis=0)
        assert med[0] < 2.0
        assert med[1] < 2.0


class TestExchangeSymmetry:
    """A noiseless run at (b, a) mirrors the run at (a, b): the branches swap
    their delays, means and widths."""

    @pytest.mark.parametrize("optimizer", ["nob", "nap"])
    @pytest.mark.parametrize("truth", [(1.0, 3.0), (0.3, 7.0), (2.0, 2.5)])
    def test_whole_run_mirrors(self, optimizer, truth):
        if optimizer == "nap":
            runner, extra = run_nap, dict(iterations=2, nap_delays=NAP_DEFAULT_DELAYS)
        else:
            runner, extra = run_adaptive, dict(iterations=10)
        extra.update(optimizer=optimizer, noiseless=True)
        run, mirror = (
            runner(fig_defaults(true_rates=RatePair(*rates), **extra))
            for rates in (truth, truth[::-1])
        )
        assert run.flagged_count == mirror.flagged_count == 0
        assert [(r.delays.tau_plus, r.delays.tau_minus) for r in run.iterations] == [
            (r.delays.tau_minus, r.delays.tau_plus) for r in mirror.iterations
        ]
        pairs = zip(run.iterations, mirror.iterations, strict=True)
        for a, b in [(run.final, mirror.final), *pairs]:
            assert a.mean_plus == pytest.approx(b.mean_minus, rel=1e-12)
            assert a.mean_minus == pytest.approx(b.mean_plus, rel=1e-12)
            assert a.sigma_plus == pytest.approx(b.sigma_minus, rel=1e-12)
            assert a.sigma_minus == pytest.approx(b.sigma_plus, rel=1e-12)


class TestRateRescaling:
    """A noiseless run with the truth and prior scaled by k and the delays by
    1/k is the same run in other units: delays exactly / k, moments exactly
    * k, clock exactly / k.  k = 2 is exact in binary floating point."""

    @pytest.mark.parametrize("optimizer", ["nob", "nap"])
    @pytest.mark.parametrize("truth", [(1.0, 3.0), (0.3, 7.0)])
    def test_whole_run_is_covariant(self, optimizer, truth):
        k = 2.0
        taus = DelayGrid.default().taus

        def run(scale):
            if optimizer == "nap":
                runner = run_nap
                extra = dict(iterations=2, nap_delays=tuple(d / scale for d in NAP_DEFAULT_DELAYS))
            else:
                runner, extra = run_adaptive, dict(iterations=10)
            config = fig_defaults(
                true_rates=RatePair(truth[0] * scale, truth[1] * scale),
                prior_bounds=tuple(b * scale for b in DEFAULT_BOUNDS),
                delay_grid=DelayGrid(taus / scale),
                optimizer=optimizer,
                noiseless=True,
                **extra,
            )
            return runner(config)

        base, scaled = run(1.0), run(k)
        assert base.flagged_count == scaled.flagged_count == 0
        assert [(r.delays.tau_plus / k, r.delays.tau_minus / k) for r in base.iterations] == [
            (r.delays.tau_plus, r.delays.tau_minus) for r in scaled.iterations
        ]
        pairs = zip(base.iterations, scaled.iterations, strict=True)
        for a, b in [(base.final, scaled.final), *pairs]:
            assert (a.mean_plus * k, a.mean_minus * k, a.sigma_plus * k, a.sigma_minus * k) == (
                b.mean_plus,
                b.mean_minus,
                b.sigma_plus,
                b.sigma_minus,
            )
        assert scaled.total_time_s == base.total_time_s / k


class TestTraceAnalysis:
    @staticmethod
    def synthetic_record(times, sigmas):
        points = tuple(
            TracePoint(time_s=t, physical_s=t, sigma_plus=s, sigma_minus=s)
            for t, s in zip(times, sigmas)
        )
        final = PosteriorMoments(1.0, 3.0, sigmas[-1], sigmas[-1], 0.0)
        return RunRecord(
            optimizer="nap",
            iterations=(),
            trace_points=points,
            final=final,
            posterior=None,
            total_time_s=times[-1],
            total_physical_s=times[-1],
            delay_time_s=times[-1],
            flagged_count=0,
        )

    def test_time_to_reach_interpolates_log_log(self):
        rec = self.synthetic_record([1.0, 4.0, 16.0], [4.0, 2.0, 1.0])
        (t, ok), _ = time_to_reach(rec, 2.0, 2.0)
        assert ok and t == pytest.approx(4.0)
        (t, ok), _ = time_to_reach(rec, np.sqrt(2.0), np.sqrt(2.0))
        assert ok and t == pytest.approx(8.0, rel=1e-12)

    def test_time_to_reach_extrapolates_before_first_point(self):
        rec = self.synthetic_record([1.0, 4.0, 16.0], [4.0, 2.0, 1.0])
        (t, ok), _ = time_to_reach(rec, 5.0, 5.0)
        assert ok and t == pytest.approx((4.0 / 5.0) ** 2)

    def test_time_to_reach_flags_unreached(self):
        rec = self.synthetic_record([1.0, 4.0, 16.0], [4.0, 2.0, 1.0])
        (t, ok), _ = time_to_reach(rec, 0.5, 0.5)
        assert not ok and t == 16.0

    def test_envelope_handles_nonmonotone_traces(self):
        rec = self.synthetic_record([1.0, 4.0, 16.0, 64.0], [4.0, 2.0, 3.0, 1.0])
        (t, ok), _ = time_to_reach(rec, 1.5, 1.5)
        assert ok and 16.0 < t < 64.0

    def test_sigma_slope_rejects_unknown_branch(self):
        rec = self.synthetic_record([1.0, 4.0, 16.0], [4.0, 2.0, 1.0])
        assert sigma_trace_slope(rec, "-") == pytest.approx(-0.5)
        with pytest.raises(ValueError, match="branch must be one of"):
            sigma_trace_slope(rec, "x")

    def test_sigma_slope_near_square_root(self):
        rec = run_adaptive(fig_defaults(iterations=30, seed=17))
        slope = sigma_trace_slope(rec, "+")
        assert -0.6 <= slope <= -0.4


@pytest.fixture(scope="module")
def small_study():
    params = SignalParams(repetitions_R=10**5)
    return speedup_study(
        [(0.055, 0.055), (2.0, 2.0)],
        params=params,
        replicates=3,
        adaptive_iterations=10,
        seed=21,
    )


class TestSpeedupStudy:
    def test_pairings_and_structure(self, small_study):
        assert len(small_study.points) == 2
        for point in small_study.points:
            assert point.pairings == 9
            assert point.std_plus >= 0.0

    def test_sweet_spot_versus_fast_rates(self, small_study):
        sweet, fast = small_study.points
        assert sweet.mean_plus < 3.0
        assert fast.mean_plus > 3.0 * sweet.mean_plus

    def test_table_export(self, small_study):
        assert len(small_study.table) == 2
        assert all(len(row) == len(small_study.COLUMNS) for row in small_study.table)

    def test_replicate_seeds_are_distinct(self):
        seeds = replicate_seeds(0, 64)
        assert len(set(seeds)) == 64
        assert seeds == replicate_seeds(0, 64)
