"""Closed-form solutions of the three-level population rate equations.

A spin-1 ground state with sublevels |-1>, |0>, |+1> thermalizes through two
bidirectional rates: gamma_plus connects |0> and |+1>, gamma_minus connects
|0> and |-1> (direct |-1> <-> |+1> relaxation is neglected).  Populations
n = (n_minus, n_zero, n_plus) evolve as dn/dt = K n with the symmetric rate
matrix

    K = [[-gm,  gm,   0 ],
         [ gm, -(gm+gp), gp],
         [ 0 ,  gp, -gp ]]        (rates in 1/ms, times in ms)

K has eigenvalues 0, -beta_fast, -beta_slow with

    beta_fast/slow = gp + gm +/- g,    g = sqrt(gp^2 + gm^2 - gp*gm),

so every population observable is a mixture of two decaying exponentials on
top of the uniform equilibrium (1/3, 1/3, 1/3):

    exp(K tau) = J/3 + e_fast u u^T/|u|^2 + e_slow w w^T/|w|^2,

with J the all-ones matrix and u, w the eigenvectors of _eigenvectors.
This module evaluates the propagator and the normalized relaxation model
functions in closed form, together with their analytic derivatives with
respect to both rates, and it is the one source of tau-dependence: the
expected photon counts (signals) are a constant plus the same two decays,
their coefficients contracted with the same eigenvectors.  Every
normalized four-signal measurement is one kernel,

    ((g + x) e_fast + (g - x) e_slow) / 2g = (p + x q) / 2,
    p = e_fast + e_slow,   q = (e_fast - e_slow) / g,   x = a gp + b gm,

with e_fast/slow = exp(-beta_fast/slow tau) and a, b in {-1, 0, 1} fixed
by the measurement class; model_m is its (1, 0) and (0, 1) case.  The
kernel evaluates the right-hand, shared-sum form, which is exactly 1 at
tau = 0 (p = 2, q = 0), in one two-branch function that model_m reads one
branch of: it shares g and gp + gm and, at equal delays, p and q between
two measurements, so each branch then costs one multiply, one add and one
halving; given scratch arrays it allocates no array of the evaluation's
shape.  Its rate-only terms come from _rate_terms, once per call or, for
a caller passing them in place of the rates, once per particle cloud.  The
closed forms make grid-based inference and delay optimization cheap; a
matrix exponential is only a test oracle.

Conventions used throughout the package:

* basis order is (|-1>, |0>, |+1>) mapped to indices (0, 1, 2);
* rates are in 1/ms, delays in ms, so all exponents are dimensionless.
"""

from __future__ import annotations

from collections import namedtuple
from dataclasses import dataclass

import numpy as np

__all__ = [
    "RatePair",
    "propagator",
    "propagator_entries",
    "model_m",
    "model_gradient",
]

BRANCHES = ("+", "-")


@dataclass(frozen=True)
class RatePair:
    """The pair of thermalization rates, both in 1/ms and strictly positive."""

    gamma_plus: float
    gamma_minus: float

    def __post_init__(self):
        gp, gm = self.gamma_plus, self.gamma_minus
        if not (np.isfinite(gp) and np.isfinite(gm)):
            raise ValueError("rates must be finite")
        if gp <= 0.0 or gm <= 0.0:
            raise ValueError("rates must be strictly positive (zero-rate systems are out of scope)")

    def swapped(self):
        """Exchange the roles of the two rates."""
        return RatePair(self.gamma_minus, self.gamma_plus)


def _unpack(rates):
    """Accept a RatePair or a (gamma_plus, gamma_minus) pair of arrays."""
    if isinstance(rates, RatePair):
        return rates.gamma_plus, rates.gamma_minus
    gp, gm = rates
    return np.asarray(gp), np.asarray(gm)


def _spectral_split(gp, gm, out=(None, None)):
    """Half-splitting g between the two decaying eigenvalues of K.

    Satisfies max(gp, gm)/2 <= g <= gp + gm for positive rates, so the
    plain formula is well conditioned at double precision even for gp = gm.
    Works for complex inputs (the test oracles' complex-step derivatives),
    where np.sqrt stays on the principal branch near the positive real axis.
    g lands in the first array of `out`, the second is scratch (fresh for
    None).
    """
    g = np.add(gp * gp, gm * gm, out=out[0])
    g = np.subtract(g, np.multiply(gp, gm, out=out[1]), out=out[0])
    return np.sqrt(g, out=out[0])


def _check_tau(tau):
    tau = np.asarray(tau, dtype=float)
    if not np.all(np.isfinite(tau)):
        raise ValueError("tau must be finite")
    if np.any(tau < 0.0):
        raise ValueError("tau must be nonnegative")
    return tau


def _eigenvectors(gp, gm, g):
    """(u, |u|^2) and (w, |w|^2): K's eigenvectors for -beta_fast and -beta_slow.

        u = (-gm (gm+g), (gp+g)(gm+g), -gp (gp+g))   for -beta_fast,
        w = (-(gp+g), gp-gm, gm+g)                   for -beta_slow,

    shape broadcast(gp, gm) + (3,).  Both stay nonzero for all positive
    rates (the textbook eigenvector formula degenerates at gp = gm; w above
    is its stable replacement, obtained by crossing (1,1,1) with u).  Plain
    (non-conjugating) squared norms keep the expression analytic in gp and
    gm.
    """
    u = np.stack([-gm * (gm + g), (gp + g) * (gm + g), -gp * (gp + g)], axis=-1)
    w = np.stack([-(gp + g), gp - gm, gm + g], axis=-1)
    return (u, np.sum(u * u, axis=-1)), (w, np.sum(w * w, axis=-1))


def propagator_entries(tau, gp, gm):
    """Spectral closed form of exp(K tau), broadcasting over all arguments.

    Returns an array of shape broadcast(tau, gp, gm) + (3, 3), built from
    the eigenprojectors of _eigenvectors.  No clipping or conjugation is
    performed here so the expression remains analytic in gp and gm, which
    the test oracles' complex-step derivatives rely on.
    """
    tau, gp, gm = np.broadcast_arrays(np.asarray(tau), np.asarray(gp), np.asarray(gm))
    g = _spectral_split(gp, gm)
    e_fast = np.exp(-(gp + gm + g) * tau)
    e_slow = np.exp(-(gp + gm - g) * tau)

    (u, u_norm2), (w, w_norm2) = _eigenvectors(gp, gm, g)
    proj_u = u[..., :, None] * u[..., None, :] / u_norm2[..., None, None]
    proj_w = w[..., :, None] * w[..., None, :] / w_norm2[..., None, None]

    entries = (
        np.ones(tau.shape + (3, 3), dtype=proj_u.dtype) / 3.0
        + e_fast[..., None, None] * proj_u
        + e_slow[..., None, None] * proj_w
    )
    # The spectral sum reproduces the identity at tau = 0 only to roundoff;
    # the boundary value is contractual, so pin it exactly.
    if not np.iscomplexobj(entries):
        zero = np.asarray(tau == 0.0)
        if np.any(zero):
            entries[zero, :, :] = np.eye(3)
    return entries


def propagator(tau, rates):
    """Transition-probability matrix [i, j] = p_ij(tau) for a relaxation interval tau (ms).

    Basis (-, 0, +); shape tau.shape + (3, 3).  The result is symmetric,
    doubly stochastic, and has entries in [0, 1]; tiny negative roundoff
    from the spectral sum is clipped away.
    """
    gp, gm = _unpack(rates)
    return np.clip(propagator_entries(_check_tau(tau), gp, gm), 0.0, 1.0)


def _branch_mix(branch):
    """(a, b) of model_m's branch: x is gamma_plus for "+", gamma_minus for "-"."""
    if branch not in BRANCHES:
        raise ValueError(f"branch must be one of {BRANCHES}, got {branch!r}")
    return (1, 0) if branch == "+" else (0, 1)


def _mixing_rate(gp, gm, a, b):
    """x = a gp + b gm; model_m's lone rates are passed through as is."""
    return gp if (a, b) == (1, 0) else gm if (a, b) == (0, 1) else a * gp + b * gm


# C-ordered gp and gm, g, total = gp + gm, decay rates -(total +/- g) or None.
_RateTerms = namedtuple("_RateTerms", "gp gm g total fast slow")


def _rate_terms(rates, out=None):
    """A rate pair's _RateTerms.  Rates of the shape of `out`, _pair_values'
    scratch stack (a fold's mesh), put g and total in out[3] and out[2] and
    leave the decay rates to _decays; otherwise every term is fresh."""
    gp, gm = (np.asarray(r, order="C") for r in _unpack(rates))
    fits = out is not None and out[0].shape == np.broadcast(gp, gm).shape
    g = _spectral_split(gp, gm, (out[3], out[2]) if fits else (None, None))
    total = np.add(gp, gm, out=out[2] if fits else None)
    return _RateTerms(gp, gm, g, total, *((None,) * 2 if fits else (-(total + g), -(total - g))))


def _decays(tau, terms, out=(None, None)):
    """e_fast, e_slow = exp(-(gp + gm +/- g) tau) from _RateTerms, in the
    two arrays of `out` (fresh for None).  Terms without decay rates have
    the decays' shape: the rate sums are formed in those arrays and take
    the sign with tau, so each decay costs one multiply by -tau."""
    fast, slow = out
    if terms.fast is None:
        neg_tau = np.negative(tau)
        for e, rate_sum in ((fast, np.add), (slow, np.subtract)):
            np.multiply(rate_sum(terms.total, terms.g, out=e), neg_tau, out=e)
    else:
        fast = np.asarray(np.multiply(terms.fast, tau, out=fast))
        slow = np.asarray(np.multiply(terms.slow, tau, out=slow))
    return np.exp(fast, out=fast), np.exp(slow, out=slow)


def _sums(e_fast, e_slow, g, p=None, q=None):
    """p = e_fast + e_slow and q = (e_fast - e_slow) / g, in `p` and `q`
    (fresh for None); `p` may be a decay's own array."""
    q = np.asarray(np.subtract(e_fast, e_slow, out=q))
    np.divide(q, g, out=q)
    return np.add(e_fast, e_slow, out=p), q


def _mix(p, q, x, out=None):
    """(p + x q) / 2 in `out` (fresh for None), which may be q itself."""
    value = np.asarray(np.multiply(x, q, out=out))
    np.add(p, value, out=value)
    return np.multiply(value, 0.5, out=value)


def _pair_values(tau_plus, tau_minus, rates, mix_plus, mix_minus, out=None):
    """Both branches' (p + x q) / 2, p = e_fast + e_slow and
    q = (e_fast - e_slow) / g, with x = a gamma_plus + b gamma_minus for
    each branch's class mix (a, b) (protocols._CLASS_MIX), from one g and
    one gp + gm and, at equal delays, one p and q.  Each value is
    ((g + x) e_fast + (g - x) e_slow) / 2g, exactly 1 at tau = 0.

    `rates` is a rate pair or its _RateTerms.  `out` is a stack of scratch
    arrays of both branches' shape that holds every temporary, so a caller
    that evaluates block after block or fold after fold reuses it: the plus
    value lands in out[0], the minus value in out[1].  Rates of that shape
    put gp + gm and g in out[2] and out[3] (_rate_terms); only unequal
    delays use out[4].  So five arrays always suffice, and three for equal
    delays on rates of a smaller shape.  Without `out` every array is fresh.
    """
    tau_plus = _check_tau(tau_plus)
    shared = np.array_equal(tau_plus, tau_minus)
    tau_minus = tau_plus if shared else _check_tau(tau_minus)
    rates = rates if isinstance(rates, _RateTerms) else _rate_terms(rates, out)
    s = (None,) * 5 if out is None else out
    x_plus, x_minus = (_mixing_rate(rates.gp, rates.gm, *mix) for mix in (mix_plus, mix_minus))
    if shared:
        e_fast, e_slow = _decays(tau_minus, rates, (s[1], s[2]))
        p, q = _sums(e_fast, e_slow, rates.g, e_slow, s[0])
        minus = _mix(p, q, x_minus, s[1])
        return _mix(p, q, x_plus, s[0]), minus
    e_fast, e_slow = _decays(tau_minus, rates, (s[1], s[4]))
    p, q = _sums(e_fast, e_slow, rates.g, e_slow, s[0])
    minus = _mix(p, q, x_minus, s[1])
    e_fast, e_slow = _decays(tau_plus, rates, (s[0], s[4]))
    p, q = _sums(e_fast, e_slow, rates.g, e_slow, s[2])
    return _mix(p, q, x_plus, s[0]), minus


def _gradient(tau, rates, a, b):
    """Analytic (d/d gamma_plus, d/d gamma_minus) of a _pair_values branch by
    the product rule, with d x / d gamma_plus = a and d x / d gamma_minus = b."""
    tau = _check_tau(tau)
    terms = _rate_terms(rates)
    gp, gm, g = terms.gp, terms.gm, terms.g
    own = _mixing_rate(gp, gm, a, b)
    e_fast, e_slow = _decays(tau, terms)
    value = _mix(*_sums(e_fast, e_slow, g), own)

    dg_dgp = (2.0 * gp - gm) / (2.0 * g)
    dg_dgm = (2.0 * gm - gp) / (2.0 * g)

    def one_derivative(dg, d_own):
        # d/dx of the numerator of ((g + own) e_fast + (g - own) e_slow) / 2g,
        # with dg = dg/dx and d_own = d(own)/dx.
        d_numer = (
            (dg + d_own) * e_fast
            - (g + own) * tau * (1.0 + dg) * e_fast
            + (dg - d_own) * e_slow
            - (g - own) * tau * (1.0 - dg) * e_slow
        )
        d_value = d_numer / (2.0 * g) - value * dg / g
        # M(0) = 1 identically, so both partials vanish there exactly.
        return np.where(np.asarray(tau) == 0.0, 0.0, d_value)

    return one_derivative(dg_dgp, float(a)), one_derivative(dg_dgm, float(b))


def model_m(tau, rates, branch):
    """Normalized relaxation model function for one measurement branch.

    This is the expected value of the normalized difference measurement
    M_branch built from the drift-insensitive signal pair: it starts at 1 at
    tau = 0, decays to 0, and depends only on (tau, gamma_plus, gamma_minus).
    Equivalently (p00(tau) - p_b0(tau)) / (p00(0) - p_b0(0)) in propagator
    entries, with b the branch sign.

    `rates` may be a RatePair or a pair of broadcastable arrays, enabling
    vectorized evaluation over posterior grids.
    """
    mix = _branch_mix(branch)
    return _pair_values(tau, tau, rates, mix, mix)[0]


def model_gradient(tau, rates, branch):
    """Analytic (d/d gamma_plus, d/d gamma_minus) of model_m.

    Validated against central finite differences in the test suite.
    """
    return _gradient(tau, rates, *_branch_mix(branch))

