"""Kinetics core: propagator and model functions against independent oracles."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from oracles import (
    dense_model_m,
    expm_propagator,
    fd_model_gradient,
    model_m_optimal,
    pq_model_m,
)
from spinrelax import rates as rates_module
from spinrelax.posterior import initial_grid
from spinrelax.protocols import _CLASS_MIX
from spinrelax.rates import (
    RatePair,
    _pair_values,
    _rate_terms,
    _spectral_split,
    model_gradient,
    model_m,
    propagator,
)

# Frozen via two independent oracles (scipy expm propagator ratio and a
# 40-digit direct evaluation of the two-exponential closed form).
M_PLUS_1_13 = 0.0811818423493034
M_MINUS_1_13 = -0.0158951705789451

rates_strategy = st.floats(min_value=0.05, max_value=50.0, allow_nan=False)


def random_rates(rng, lo=0.01, hi=100.0):
    gp, gm = np.exp(rng.uniform(np.log(lo), np.log(hi), 2))
    return RatePair(float(gp), float(gm))


class TestRatePair:
    def test_rejects_nonpositive_and_nonfinite(self):
        for gp, gm in [(0.0, 1.0), (1.0, -2.0), (np.nan, 1.0), (1.0, np.inf)]:
            with pytest.raises(ValueError):
                RatePair(gp, gm)

    def test_spectral_split_bounds(self):
        rng = np.random.default_rng(7)
        for _ in range(200):
            r = random_rates(rng)
            g = _spectral_split(r.gamma_plus, r.gamma_minus)
            slow = r.gamma_plus + r.gamma_minus - g
            assert g >= max(r.gamma_plus, r.gamma_minus) / 2.0 - 1e-12
            assert g <= r.gamma_plus + r.gamma_minus + 1e-12
            assert slow > 0.0


class TestPropagator:
    def test_identity_at_zero(self):
        p = propagator(0.0, RatePair(2.3, 0.4))
        assert np.array_equal(p, np.eye(3))

    def test_uniform_equilibrium_at_long_times(self):
        p = propagator(1e4, RatePair(1.0, 3.0))
        assert np.allclose(p, 1.0 / 3.0, atol=1e-12)

    def test_matches_matrix_exponential(self):
        rng = np.random.default_rng(11)
        for _ in range(300):
            r = random_rates(rng)
            tau = float(10 ** rng.uniform(-3, 1.5))
            got = propagator(tau, r)
            want = expm_propagator(tau, r.gamma_plus, r.gamma_minus)
            assert np.abs(got - want).max() < 1e-10

    def test_equal_rates_degenerate_basis(self):
        # The naive slow-branch eigenvector vanishes at gp = gm; the stable
        # construction must not care.
        for gp in (0.05, 1.0, 55.0):
            got = propagator(0.37, RatePair(gp, gp))
            want = expm_propagator(0.37, gp, gp)
            assert np.abs(got - want).max() < 1e-12

    def test_invariants(self):
        rng = np.random.default_rng(23)
        for _ in range(100):
            r = random_rates(rng)
            tau = float(10 ** rng.uniform(-3, 1))
            p = propagator(tau, r)
            assert np.allclose(p, p.T, atol=1e-13)
            assert np.allclose(p.sum(axis=0), 1.0, atol=1e-12)
            assert np.allclose(p.sum(axis=1), 1.0, atol=1e-12)
            assert p.min() >= 0.0 and p.max() <= 1.0

    @settings(max_examples=100, deadline=None)
    @given(
        gp=rates_strategy,
        gm=rates_strategy,
        tau1=st.floats(min_value=0.0, max_value=3.0),
        tau2=st.floats(min_value=0.0, max_value=3.0),
    )
    def test_composition(self, gp, gm, tau1, tau2):
        r = RatePair(gp, gm)
        combined = propagator(tau1 + tau2, r)
        chained = propagator(tau1, r) @ propagator(tau2, r)
        assert np.abs(combined - chained).max() < 1e-10

    def test_vectorized_tau(self):
        r = RatePair(1.0, 3.0)
        taus = np.array([0.0, 0.1, 1.0, 10.0])
        batch = propagator(taus, r)
        assert batch.shape == (4, 3, 3)
        for k, tau in enumerate(taus):
            assert np.array_equal(batch[k], propagator(float(tau), r))

    def test_rejects_bad_tau(self):
        with pytest.raises(ValueError):
            propagator(-0.1, RatePair(1.0, 1.0))
        with pytest.raises(ValueError):
            propagator(np.nan, RatePair(1.0, 1.0))


class TestModelM:
    def test_normalized_at_zero(self):
        rng = np.random.default_rng(3)
        for _ in range(20):
            r = random_rates(rng)
            for branch in "+-":
                assert model_m(0.0, r, branch) == 1.0

    def test_equal_rates_single_exponential(self):
        assert np.isclose(model_m(1.0, RatePair(1.0, 1.0), "+"), np.exp(-3.0), atol=1e-15)
        assert np.isclose(model_m(0.25, RatePair(2.0, 2.0), "-"), np.exp(-1.5), atol=1e-15)

    def test_frozen_values(self):
        r = RatePair(1.0, 3.0)
        assert abs(float(model_m(1.0, r, "+")) - M_PLUS_1_13) < 1e-14
        assert abs(float(model_m(1.0, r, "-")) - M_MINUS_1_13) < 1e-14

    def test_agrees_with_propagator_ratio(self):
        # model_m must equal (p00(tau) - p_b0(tau)) / (p00(0) - p_b0(0));
        # the tau = 0 denominator of the ideal normalized pair is exactly 1.
        rng = np.random.default_rng(5)
        for _ in range(200):
            r = random_rates(rng)
            tau = float(10 ** rng.uniform(-3, 1))
            p = propagator(tau, r)
            assert abs(model_m(tau, r, "+") - (p[1, 1] - p[2, 1])) < 1e-12
            assert abs(model_m(tau, r, "-") - (p[1, 1] - p[0, 1])) < 1e-12

    @settings(max_examples=100, deadline=None)
    @given(gp=rates_strategy, gm=rates_strategy, tau=st.floats(min_value=0.0, max_value=20.0))
    def test_exchange_symmetry_exact(self, gp, gm, tau):
        assert model_m(tau, (gp, gm), "+") == model_m(tau, (gm, gp), "-")

    def test_bounded_and_decaying(self):
        rng = np.random.default_rng(17)
        for _ in range(50):
            r = random_rates(rng, 0.05, 30.0)
            slowest = min(r.gamma_plus, r.gamma_minus)
            taus = np.geomspace(1e-4 / slowest, 1e3 / slowest, 60)
            for branch in "+-":
                vals = model_m(taus, r, branch)
                assert np.all(vals <= 1.0) and np.all(vals > -1.0)
                assert abs(vals[-1]) < 1e-8

    def test_grid_broadcasting(self):
        gp = np.linspace(0.5, 2.0, 7)[:, None]
        gm = np.linspace(1.0, 4.0, 5)[None, :]
        vals = model_m(0.3, (gp, gm), "+")
        assert vals.shape == (7, 5)
        assert np.isclose(vals[2, 3], model_m(0.3, RatePair(gp[2, 0], gm[0, 3]), "+"))


def assert_same_values(got, want):
    """Equal type, dtype, shape and bits."""
    assert type(got) is type(want)
    assert got.dtype == want.dtype and got.shape == want.shape
    assert got.tobytes() == want.tobytes()


class TestModelMInPlace:
    """model_m's in-place evaluation against the fresh-array mirror of its
    (p, q) algebra."""

    @settings(max_examples=200, deadline=None)
    @given(gp=rates_strategy, gm=rates_strategy, tau=st.floats(0.0, 1e3), pair=st.booleans())
    def test_scalar_inputs(self, gp, gm, tau, pair):
        rates = RatePair(gp, gm) if pair else (gp, gm)
        for branch in "+-":
            assert_same_values(model_m(tau, rates, branch), pq_model_m(tau, rates, branch))

    @settings(max_examples=50, deadline=None)
    @given(
        seed=st.integers(0, 2**32 - 1),
        n=st.integers(1, 300),
        k=st.integers(1, 120),
        scale=st.sampled_from([1e-2, 1.0, 1e3]),
    )
    def test_cloud_by_delays(self, seed, n, k, scale):
        rng = np.random.default_rng(seed)
        gp, gm = np.exp(rng.uniform(np.log(0.05), np.log(100.0), (2, n, 1)))
        taus = np.sort(rng.uniform(0.0, scale, (1, k)))
        taus[0, 0] = 0.0
        for branch in "+-":
            got = model_m(taus, (gp, gm), branch)
            assert_same_values(got, pq_model_m(taus, (gp, gm), branch))

    def test_posterior_mesh(self):
        gp, gm = initial_grid().meshes()
        assert np.broadcast(gp, gm).shape == (200, 200)
        for tau in (0.0, 3e-3, 0.37, 5.5):
            for branch in "+-":
                got = model_m(tau, (gp, gm), branch)
                assert_same_values(got, pq_model_m(tau, (gp, gm), branch))

    def test_tau_zero_pinned(self):
        gp = np.geomspace(0.01, 100.0, 50)[:, None]
        for rates in (RatePair(1.0, 3.0), (gp, gp.T), (0.3, 0.3)):
            for branch in "+-":
                got = model_m(0.0, rates, branch)
                assert_same_values(got, pq_model_m(0.0, rates, branch))
                assert np.all(got == 1.0)

    def test_underflowing_exponents(self):
        # Exponents from about -700 down past the subnormal range to -1e5.
        taus = np.geomspace(60.0, 1e3, 200)[None, :]
        gp = np.geomspace(1.0, 50.0, 30)[:, None]
        for branch in "+-":
            got = model_m(taus, (gp, 2.0 * gp), branch)
            assert_same_values(got, pq_model_m(taus, (gp, 2.0 * gp), branch))
            assert np.any(got == 0.0) and np.any((got != 0.0) & (np.abs(got) < 1e-300))


class TestAgainstFirstAlgebra:
    """The (p, q) kernel against ((g + x) e_fast + (g - x) e_slow) / 2g.

    Both forms take the same decays and g, so they differ only in the
    rounding of the few operations after them.  With |x| <= 2g for either
    branch, (p + x q) / 2 carries at most 5 units of roundoff u = 2^-53 and
    the first form at most 6; the bound is their sum plus one, fixed from
    that count before the comparison was first run.
    """

    BOUND = 12 * 2.0**-53

    @settings(max_examples=200, deadline=None)
    @given(
        seed=st.integers(0, 2**32 - 1),
        kind=st.sampled_from(["scalars", "mesh", "cloud"]),
        scale=st.sampled_from([1e-3, 1.0, 1e2]),
    )
    def test_within_rounding(self, seed, kind, scale):
        rng = np.random.default_rng(seed)
        if kind == "scalars":
            gp, gm = np.exp(rng.uniform(np.log(0.05), np.log(100.0), 2))
            tau = float(rng.uniform(0.0, scale))
        elif kind == "mesh":
            gp, gm = (np.sort(rng.uniform(0.05, 100.0, n)) for n in rng.integers(2, 60, 2))
            gp, gm = gp[:, None], gm[None, :]
            tau = float(rng.uniform(0.0, scale))
        else:
            gp, gm = np.exp(rng.uniform(np.log(0.05), np.log(100.0), (2, 300)))
            tau = np.append(0.0, rng.uniform(0.0, scale, 11))[:, None]
        for branch in "+-":
            got = model_m(tau, (gp, gm), branch)
            assert np.max(np.abs(got - dense_model_m(tau, (gp, gm), branch))) <= self.BOUND


def swap_mix(mix):
    return mix[::-1]


def symmetry_rates(kind, rng):
    """(tau, rates) on a posterior-style mesh or a particle cloud by delays."""
    if kind == "mesh":
        axes = (np.sort(rng.uniform(0.05, 50.0, 40)) for _ in range(2))
        gp, gm = next(axes)[:, None], next(axes)[None, :]
        return float(rng.uniform(0.0, 3.0)), (gp, gm)
    gp, gm = np.exp(rng.uniform(np.log(0.05), np.log(50.0), (2, 257)))
    return np.append(0.0, rng.uniform(0.0, 3.0, 7))[:, None], (gp, gm)


class TestKernelSymmetries:
    """Exchange symmetry and the tau = 0 value stay exact for every class mix,
    on posterior meshes and on particle clouds, fresh and in a workspace."""

    @pytest.mark.parametrize("kind", ["mesh", "cloud"])
    def test_exchange_symmetry_of_values(self, kind):
        rng = np.random.default_rng(31)
        for _ in range(5):
            tau, (gp, gm) = symmetry_rates(kind, rng)
            for mix in _CLASS_MIX.values():
                want = pq_model_m(tau, (gp, gm), mix)
                for rates, m in (((gp, gm), mix), ((gm, gp), swap_mix(mix))):
                    for got in _pair_values(tau, tau, rates, m, m):
                        assert got.tobytes() == want.tobytes()

    @pytest.mark.parametrize("kind", ["mesh", "cloud"])
    @pytest.mark.parametrize("shared", [True, False])
    def test_exchange_symmetry_of_pair_values(self, kind, shared):
        rng = np.random.default_rng(32)
        for _ in range(3):
            tau_plus, (gp, gm) = symmetry_rates(kind, rng)
            tau_minus = tau_plus if shared else tau_plus * 0.5
            shape = np.broadcast_shapes(np.shape(tau_plus), gp.shape, gm.shape)
            for mix_plus in _CLASS_MIX.values():
                for mix_minus in ((1, 0), (0, 1), (1, -1)):
                    for out in (None, np.full((5,) + shape, np.nan)):
                        got = [
                            a.copy()
                            for a in _pair_values(tau_plus, tau_minus, (gp, gm), mix_plus, mix_minus, out)
                        ]
                        plus, minus = _pair_values(
                            tau_minus, tau_plus, (gm, gp), swap_mix(mix_minus), swap_mix(mix_plus), out
                        )
                        assert got[0].tobytes() == minus.tobytes()
                        assert got[1].tobytes() == plus.tobytes()

    @pytest.mark.parametrize("kind", ["mesh", "cloud"])
    def test_one_at_tau_zero(self, kind):
        rng = np.random.default_rng(33)
        _, rates = symmetry_rates(kind, rng)
        tau = 0.0 if kind == "mesh" else np.zeros((3, 1))
        shape = np.broadcast_shapes(np.shape(tau), *(r.shape for r in rates))
        for mix in _CLASS_MIX.values():
            assert np.all(pq_model_m(tau, rates, mix) == 1.0)
            for out in (None, np.full((5,) + shape, np.nan)):
                for other in (tau, 0.2):
                    plus, minus = _pair_values(tau, other, rates, mix, (0, 1), out)
                    assert np.all(plus == 1.0)
                    plus, minus = _pair_values(other, tau, rates, (1, 0), mix, out)
                    assert np.all(minus == 1.0)


tau_values = st.one_of(st.just(0.0), st.floats(0.0, 50.0))
DELAY_KINDS = ["equal scalars", "scalars", "equal arrays", "arrays", "scalar and array"]


class TestPairValues:
    """The two-branch kernel against two one-branch oracle calls, bit for bit."""

    @settings(max_examples=150, deadline=None)
    @given(
        kind=st.sampled_from(DELAY_KINDS),
        taus=st.tuples(tau_values, tau_values, st.lists(tau_values, min_size=1, max_size=6)),
        rates_kind=st.sampled_from(["pair", "mesh"]),
        log_rates=st.tuples(*[st.floats(np.log(0.05), np.log(50.0))] * 2),
        minus_key=st.sampled_from(sorted(_CLASS_MIX)),
    )
    def test_equals_one_branch_values(self, kind, taus, rates_kind, log_rates, minus_key):
        first, second, row = taus
        row = np.array(row)[None, :]
        tau_plus, tau_minus = {
            "equal scalars": (first, first),
            "scalars": (first, second),
            "equal arrays": (row, row.copy()),
            "arrays": (row, np.append(row[:, 1:], first)[None, :]),
            "scalar and array": (first, row),
        }[kind]
        gp, gm = np.exp(log_rates)
        if rates_kind == "mesh":
            gp, gm = np.geomspace(0.05, gp, 7)[:, None, None], np.geomspace(gm, 50.0, 7)[:, None]
        for plus_key in _CLASS_MIX:
            mix_plus, mix_minus = _CLASS_MIX[plus_key], _CLASS_MIX[minus_key]
            got = _pair_values(tau_plus, tau_minus, (gp, gm), mix_plus, mix_minus)
            want = (
                pq_model_m(tau_plus, (gp, gm), mix_plus),
                pq_model_m(tau_minus, (gp, gm), mix_minus),
            )
            for g, w in zip(got, want, strict=True):
                assert np.array_equal(g, w)
                assert_same_values(g, w)

    @pytest.mark.parametrize("shared", [True, False])
    def test_out_equals_fresh_arrays(self, shared):
        # Delays (delay, 1) against rates (particle,), block after block
        # through one workspace that starts and stays dirty.
        rng = np.random.default_rng(8)
        gp, gm = np.exp(rng.uniform(np.log(0.05), np.log(50.0), (2, 300)))
        taus = np.append(0.0, np.geomspace(1e-3, 5.0, 39))[:, None]
        out = np.full((5, 8, 300), np.nan)
        for start in range(0, taus.size, 8):
            tau_plus = taus[start : start + 8]
            tau_minus = tau_plus if shared else tau_plus[::-1].copy()
            for mix_plus, mix_minus in [((1, 0), (0, 1)), ((1, -1), (0, 0))]:
                want = _pair_values(tau_plus, tau_minus, (gp, gm), mix_plus, mix_minus)
                got = _pair_values(tau_plus, tau_minus, (gp, gm), mix_plus, mix_minus, out)
                for g, w, slot in zip(got, want, out[:2], strict=True):
                    assert g.tobytes() == w.tobytes() and np.shares_memory(g, slot)

    @pytest.mark.parametrize("tau_minus, expected", [(0.3, 1), (np.float64(0.3), 1), (0.5, 2)])
    def test_decays_once_per_distinct_delay(self, monkeypatch, tau_minus, expected):
        calls = []
        decays = rates_module._decays
        monkeypatch.setattr(rates_module, "_decays", lambda *a: calls.append(a) or decays(*a))
        gp, gm = initial_grid(size=20).meshes()
        _pair_values(0.3, tau_minus, (gp, gm), (1, 0), (0, 1))
        assert len(calls) == expected


class TestRateTerms:
    """Terms built once by _rate_terms give the kernel the bits raw rates give
    it, for every class pair, on a fold's mesh and on particle clouds."""

    @pytest.mark.parametrize("kind", ["mesh", 1, 2, 1025, 20000])
    @pytest.mark.parametrize("shared", [True, False])
    def test_terms_equal_raw_rates(self, kind, shared):
        rng = np.random.default_rng(41)
        if kind == "mesh":
            # The fold's rates, delays and workspace: the grid's broadcast axes.
            rates, tau = initial_grid(size=200).meshes(), 0.7
        else:
            # A cloud's strided columns against a (delay, 1) block that starts at 0.
            rates = np.exp(rng.uniform(np.log(0.055), np.log(100.0), (kind, 2))).T
            tau = np.append(0.0, rng.uniform(0.0, 5.5, 3))[:, None]
        other = tau if shared else tau * 0.5
        shape = np.broadcast_shapes(np.shape(tau), *(np.shape(r) for r in rates))
        terms = _rate_terms(rates)
        for mix_plus in _CLASS_MIX.values():
            for mix_minus in _CLASS_MIX.values():
                want = _pair_values(tau, other, rates, mix_plus, mix_minus)
                for given in (rates, terms):
                    out = np.full((5,) + shape, np.nan)
                    got = _pair_values(tau, other, given, mix_plus, mix_minus, out)
                    for g, w in zip(got, want, strict=True):
                        assert g.tobytes() == w.tobytes()


class TestModelGradient:
    def test_zero_at_tau_zero(self):
        d_plus, d_minus = model_gradient(0.0, RatePair(1.7, 0.3), "+")
        assert d_plus == 0.0 and d_minus == 0.0

    def test_matches_finite_differences(self):
        rng = np.random.default_rng(29)
        worst = 0.0
        for _ in range(400):
            gp, gm = np.exp(rng.uniform(np.log(0.3), np.log(5.0), 2))
            tau = float(10 ** rng.uniform(np.log10(0.05), np.log10(1.5)))
            for branch in "+-":
                analytic = model_gradient(tau, (gp, gm), branch)
                fd = fd_model_gradient(tau, gp, gm, branch)
                for a, f in zip(analytic, fd):
                    rel = abs(a - f) / max(abs(a), abs(f), 1e-12)
                    worst = max(worst, rel)
        assert worst < 1e-5

    def test_exchange_symmetry(self):
        rng = np.random.default_rng(31)
        for _ in range(50):
            gp, gm = np.exp(rng.uniform(np.log(0.1), np.log(10.0), 2))
            tau = float(10 ** rng.uniform(-2, 0.5))
            _, d_other = model_gradient(tau, (gp, gm), "+")
            d_other_swapped, _ = model_gradient(tau, (gm, gp), "-")
            assert d_other == d_other_swapped


class TestModelMOptimal:
    def test_normalized_at_zero(self):
        assert model_m_optimal(0.0, RatePair(1.0, 3.0), 0.05, "+") == 1.0

    def test_symmetric_rates_zero_eta(self):
        tau, g = 0.7, 2.0
        want = np.exp(-2.0 * g * tau) * np.cosh(g * tau)
        assert np.isclose(model_m_optimal(tau, RatePair(g, g), 0.0, "+"), want, atol=1e-15)
        assert np.isclose(model_m_optimal(tau, RatePair(g, g), 0.0, "-"), want, atol=1e-15)

    def test_exchange_symmetry(self):
        r = RatePair(1.0, 3.0)
        assert model_m_optimal(0.5, r, 0.05, "+") == model_m_optimal(0.5, r.swapped(), 0.05, "-")

    def test_rejects_degenerate_eta(self):
        with pytest.raises(ValueError):
            model_m_optimal(0.5, RatePair(1.0, 3.0), 0.5, "+")
        with pytest.raises(ValueError):
            model_m_optimal(0.5, RatePair(1.0, 3.0), -0.01, "+")

    def test_rejects_bad_branch(self):
        with pytest.raises(ValueError):
            model_m(0.5, RatePair(1.0, 3.0), "x")
