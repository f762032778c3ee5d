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

    ((g + x) e_fast + (g - x) e_slow) / 2g,   x = p gp + q gm,

with e_fast/slow = exp(-beta_fast/slow tau) and p, q in {-1, 0, 1} fixed
by the measurement class; model_m is its (1, 0) and (0, 1) case.  Its
two-branch form shares g and, at equal delays, e_fast and e_slow between
a protocol's two measurements.  The closed forms make grid-based inference
and delay optimization cheap; a matrix exponential is only a test oracle.

Conventions used throughout the package:

* basis order is (|-1>, |0>, |+1>) mapped to indices (0, 1, 2);
* rates are in 1/ms, delays in ms, so all exponents are dimensionless.
"""

from __future__ import annotations

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


def _spectral_split(gp, gm):
    """Half-splitting g between the two decaying eigenvalues of K.

    Satisfies max(gp, gm)/2 <= g <= gp + gm for positive rates, so the
    plain formula is well conditioned at double precision even for gp = gm.
    Works for complex inputs (the test oracles' complex-step derivatives),
    where np.sqrt stays on the principal branch near the positive real axis.
    """
    return np.sqrt(gp * gp + gm * gm - gp * gm)


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
    """(p, q) of model_m's branch: x is gamma_plus for "+", gamma_minus for "-"."""
    if branch not in BRANCHES:
        raise ValueError(f"branch must be one of {BRANCHES}, got {branch!r}")
    return (1, 0) if branch == "+" else (0, 1)


def _mixing_rate(gp, gm, p, q):
    """x = p gp + q gm; model_m's lone rates are passed through as is."""
    return gp if (p, q) == (1, 0) else gm if (p, q) == (0, 1) else p * gp + q * gm


def _decays(tau, total, g, out=(None, None)):
    """e_fast, e_slow = exp(-(gp + gm +/- g) tau), total = gp + gm, in fresh
    arrays or in the two arrays of `out`."""
    e_fast = np.asarray(np.multiply(-(total + g), tau, out=out[0]))
    e_slow = np.asarray(np.multiply(-(total - g), tau, out=out[1]))
    return np.exp(e_fast, out=e_fast), np.exp(e_slow, out=e_slow)


def _class_mix(e_fast, e_slow, tau, g, own, work=(None, None)):
    """((g + own) e_fast + (g - own) e_slow) / 2g, computed in the two arrays
    of `work` (the decays themselves for in place) or in fresh ones; the
    value lands in the first."""
    fast = np.asarray(np.multiply(g + own, e_fast, out=work[0]))
    slow = np.multiply(g - own, e_slow, out=work[1])
    np.add(fast, slow, out=fast)
    np.divide(fast, 2.0 * g, out=fast)
    # 1 at tau = 0 by construction: pin away the roundoff of (g+own) + (g-own) vs 2g.
    if np.any(tau == 0.0):
        np.copyto(fast, 1.0, where=tau == 0.0)
    return fast


def _values(tau, rates, p, q):
    """((g + x) e_fast + (g - x) e_slow) / 2g with x = p gamma_plus + q gamma_minus.

    Every measurement class's normalized model (protocols._CLASS_MIX).
    """
    tau = _check_tau(tau)
    gp, gm = _unpack(rates)
    g = _spectral_split(gp, gm)
    decays = _decays(tau, gp + gm, g)
    return _class_mix(*decays, tau, g, _mixing_rate(gp, gm, p, q), work=decays)


# _pair_values' default `out`: fresh arrays for both branches.
_FRESH = ((None, None), (None, None))


def _pair_values(tau_plus, tau_minus, rates, mix_plus, mix_minus, out=_FRESH):
    """_values of both branches bit for bit, from one spectral split and, at
    equal delays, one pair of decays.

    `out` holds, per branch, two arrays of the broadcast shape that the
    branch is computed in, its value landing in the first; a caller that
    evaluates block after block reuses them instead of fresh arrays.
    """
    tau_plus, tau_minus = _check_tau(tau_plus), _check_tau(tau_minus)
    gp, gm = _unpack(rates)
    g = _spectral_split(gp, gm)
    total = gp + gm
    out_plus, out_minus = out
    minus_decays = _decays(tau_minus, total, g, out_minus)
    shared = np.array_equal(tau_plus, tau_minus)
    plus_decays = minus_decays if shared else _decays(tau_plus, total, g, out_plus)
    own_plus, own_minus = _mixing_rate(gp, gm, *mix_plus), _mixing_rate(gp, gm, *mix_minus)
    plus = _class_mix(*plus_decays, tau_plus, g, own_plus, work=out_plus if shared else plus_decays)
    return plus, _class_mix(*minus_decays, tau_minus, g, own_minus, work=minus_decays)


def _gradient(tau, rates, p, q):
    """Analytic (d/d gamma_plus, d/d gamma_minus) of _values by the product
    rule, with d x / d gamma_plus = p and d x / d gamma_minus = q."""
    tau = _check_tau(tau)
    gp, gm = _unpack(rates)
    g = _spectral_split(gp, gm)
    own = _mixing_rate(gp, gm, p, q)
    e_fast, e_slow = _decays(tau, gp + gm, g)
    value = _class_mix(e_fast, e_slow, tau, g, own)

    dg_dgp = (2.0 * gp - gm) / (2.0 * g)
    dg_dgm = (2.0 * gm - gp) / (2.0 * g)

    def one_derivative(dg, d_own):
        # d/dx of the numerator, with dg = dg/dx and d_own = d(own)/dx.
        d_numer = (
            (dg + d_own) * e_fast
            - (g + own) * tau * (1.0 + dg) * e_fast
            + (dg - d_own) * e_slow
            - (g - own) * tau * (1.0 - dg) * e_slow
        )
        d_value = d_numer / (2.0 * g) - value * dg / g
        # M(0) = 1 identically, so both partials vanish there exactly.
        return np.where(np.asarray(tau) == 0.0, 0.0, d_value)

    return one_derivative(dg_dgp, float(p)), one_derivative(dg_dgm, float(q))


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
    return _values(tau, rates, *_branch_mix(branch))


def model_gradient(tau, rates, branch):
    """Analytic (d/d gamma_plus, d/d gamma_minus) of model_m.

    Validated against central finite differences in the test suite.
    """
    return _gradient(tau, rates, *_branch_mix(branch))

