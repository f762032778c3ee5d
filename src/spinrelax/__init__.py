"""spinrelax: adaptive Bayesian estimation of three-level spin relaxation rates.

The package simulates and analyzes pulsed photon-counting relaxometry:
closed-form three-level kinetics (`rates`), the photon-count measurement
model with drift support (`signals`), a bias-reduced ratio estimator
(`estimator`), grid-based Bayesian inference (`posterior`), sensitivity-cost
delay design (`design`), enumeration and ranking of measurement protocols
(`protocols`), and end-to-end simulated experiments with adaptive and fixed
delay scheduling (`experiments`).  A command-line front end lives in `cli`.
"""

from .rates import RatePair, model_gradient, model_m, propagator

__version__ = "0.1.0"

__all__ = [
    "__version__",
    "RatePair",
    "model_m",
    "model_gradient",
    "propagator",
]
