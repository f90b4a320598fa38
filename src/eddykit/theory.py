"""Closed-form eddy diffusivities and exact estimator expectations.

This module collects every formula that the rest of the package is tested
against: effective diffusivities of the shear family, the exact expectation
of the quadratic variation estimator for the steady shear flow, the bias
limit under the critical subsampling scaling, and an exact covariance
oracle for the box-averaged estimator applied to Brownian motion.

Conventions. The Lagrangian dynamics is

    dx = v(x, t) dt + sqrt(2 kappa) dW,

with v drawn from the catalog in :mod:`eddykit.fields`. For a shear flow
v = (0, eta(t) sin x) the first coordinate is Brownian and the effective
diffusivity along the shear direction admits closed forms:

    steady          K = kappa + 1 / (2 kappa)
    OU modulated    K = kappa + sigma / (2 (kappa + alpha) alpha)

For the periodically modulated shear two inconsistent closed forms are in
circulation; both are implemented behind an explicit ``variant`` flag and
neither is preferred by default. A Green-Kubo computation (integrate the
stationary velocity autocorrelation (1/4) cos(omega t) exp(-kappa t)) gives

    K = kappa + kappa / (4 (omega^2 + kappa^2)),

the "figure" variant, and the Monte Carlo adjudication in
:func:`eddykit.harness.adjudicate_periodic_shear` lands on the same value,
but the "printed" variant kappa + 1/(4 (omega + kappa^2)) is kept available
for comparison.
"""

from __future__ import annotations

import math

import numpy as np

from .errors import ParameterError, integer, nonnegative, positive

PERIODIC_SHEAR_VARIANTS = ("printed", "figure")


def k_shear(kappa: float) -> float:
    """Effective diffusivity kappa + 1/(2 kappa) of the steady shear flow."""
    kappa = positive("kappa", kappa)
    return kappa + 1.0 / (2.0 * kappa)


def k_periodic_shear(kappa: float, omega: float, variant: str) -> float:
    """Effective diffusivity of the periodically modulated shear flow.

    Two candidate closed forms exist and disagree; the caller must pick one
    explicitly.

    Parameters
    ----------
    kappa, omega : float
        Molecular diffusivity and modulation frequency, both positive.
    variant : {"printed", "figure"}
        "printed" evaluates kappa + 1/(4 (omega + kappa^2)).
        "figure" evaluates kappa + kappa/(4 (omega^2 + kappa^2)), the value
        consistent with an independent Green-Kubo derivation and with the
        Monte Carlo adjudication.
    """
    kappa = positive("kappa", kappa)
    omega = positive("omega", omega)
    if variant == "printed":
        return kappa + 1.0 / (4.0 * (omega + kappa * kappa))
    if variant == "figure":
        return kappa + kappa / (4.0 * (omega * omega + kappa * kappa))
    raise ParameterError(f"variant must be one of {PERIODIC_SHEAR_VARIANTS}, got {variant!r}")


def k_ou_shear(kappa: float, alpha: float, sigma: float) -> float:
    """Effective diffusivity kappa + sigma/(2 (kappa + alpha) alpha) of the OU shear."""
    kappa = positive("kappa", kappa)
    alpha = positive("alpha", alpha)
    sigma = nonnegative("sigma", sigma)
    return kappa + sigma / (2.0 * (kappa + alpha) * alpha)


def qv_expectation_shear(kappa: float, n: int, delta: float) -> float:
    """Exact expectation of the quadratic variation estimator, steady shear.

    For the steady shear flow started at the origin, the component of the
    estimator along the shear direction with N increments at spacing delta
    has expectation

        E K_{N,delta} = K + (e^{-u} - 1) / (2 kappa^2 delta)
                      + [ (2/3) e^{-u} - (1/6) e^{-4u} - 1/2 ]
                        * (1 - e^{-4 kappa T}) / (1 - e^{-4u})
                        / (4 kappa^2 T),

    with u = kappa delta, T = N delta and K = kappa + 1/(2 kappa). The
    expression follows from integrating the two point function
    E[sin x(s) sin x(u)] = (1/2) e^{-kappa |s-u|} (1 - e^{-4 kappa min(s,u)})
    of Brownian motion over each sampling window and summing the resulting
    geometric series over windows.

    The implementation is numerically stable across many orders of
    magnitude of kappa * delta: expm1 is used for the small differences, a
    series is substituted for the bracket when u < 1e-4 (it cancels to
    -u^2 + O(u^3)), and the ratio switches to a series in u once
    4 u < 1e-8. Exponentials of large negative arguments underflow to zero
    harmlessly.

    Limits: delta -> 0 gives kappa, delta -> infinity (N fixed) gives K.
    """
    kappa = positive("kappa", kappa)
    delta = positive("delta", delta)
    n = integer("n", n, 1)
    u = kappa * delta
    t_total = n * delta
    k_eff = kappa + 1.0 / (2.0 * kappa)
    term_a = math.expm1(-u) / (2.0 * kappa * kappa * delta)
    if u < 1e-4:
        # (2/3) e^{-u} - (1/6) e^{-4u} - 1/2 = -u^2 (1 - (5/3) u + (7/4) u^2 + O(u^3))
        bracket = -u * u * (1.0 - (5.0 / 3.0) * u + (7.0 / 4.0) * u * u)
    else:
        bracket = (2.0 / 3.0) * math.exp(-u) - (1.0 / 6.0) * math.exp(-4.0 * u) - 0.5
    if 4.0 * u < 1e-8:
        # 1 - e^{-4u} = 4u (1 - 2u + O(u^2))
        denom = 4.0 * u * (1.0 - 2.0 * u)
    else:
        denom = -math.expm1(-4.0 * u)
    ratio = -math.expm1(-4.0 * kappa * t_total) / denom
    term_b = bracket * ratio / (4.0 * kappa * kappa * t_total)
    return k_eff + term_a + term_b


def qv_expectation_ou_shear(kappa: float, alpha: float, sigma: float,
                            delta: float) -> float:
    """Stationary expectation of the qv estimator for the OU shear.

    With the modulation in its stationary law and the observation window
    far from the start of the path, the drift integrand eta(s) sin x(s)
    has covariance (sigma/(2 alpha)) e^{-gamma tau}, gamma = alpha + kappa
    (the two factors are independent, and E[sin x(s) sin x(u)] tends to
    (1/2) e^{-kappa |s-u|} for a Brownian x far from its start). Squaring
    the window integral gives

        E K(delta) = kappa + (sigma / (2 alpha gamma)) *
                     (1 - (1 - e^{-gamma delta}) / (gamma delta)),

    which increases monotonically from kappa at delta -> 0 to the
    effective value k_ou_shear as delta -> infinity. Unlike
    qv_expectation_shear this drops the finite-horizon boundary terms, so
    it describes the T >> delta, T >> 1/kappa regime.
    """
    kappa = positive("kappa", kappa)
    alpha = positive("alpha", alpha)
    delta = positive("delta", delta)
    sigma = nonnegative("sigma", sigma)
    gamma = alpha + kappa
    w = gamma * delta
    if w < 1e-6:
        # 1 - (1 - e^{-w})/w = w/2 - w^2/6 + O(w^3)
        frac = w / 2.0 - w * w / 6.0
    else:
        frac = 1.0 + math.expm1(-w) / w
    return kappa + sigma / (2.0 * alpha * gamma) * frac


def subsample_bias_limit_shear(n: int) -> float:
    """Limit of kappa^{-eps} (E K_{N,delta} - K) under delta = kappa^{-2-eps}.

    As kappa -> 0 with the subsampling interval at the critical scaling
    delta = kappa^{-2-eps}, eps > 0, the rescaled bias of the quadratic
    variation estimator tends to -1/2 - 1/(8 N), independently of eps.
    """
    n = integer("n", n, 1)
    return -0.5 - 1.0 / (8.0 * n)


def bm_box_expectation(kappa: float, delta: float, j: int) -> float:
    """Exact expectation of the box-averaged estimator on Brownian motion.

    The estimator bins J consecutive observations (spacing dt = delta / J)
    of a Brownian path with Var x(t) = 2 kappa t, replaces each bin by its
    mean, and applies the quadratic variation formula to consecutive bin
    means. The increment of consecutive bin means is the average over j of
    the windowed increments D_j = x(t_j + delta) - x(t_j), whose exact
    covariances are

        Cov(D_j, D_k) = 2 kappa (delta - |j - k| dt),

    always positive since |j - k| <= J - 1. Summing the covariances and
    dividing by 2 delta gives the expectation of one diagonal entry. It
    does not depend on the number of bins and reduces to kappa for J = 1;
    in closed form it equals kappa (2 J^2 + 1) / (3 J^2), which approaches
    (2/3) kappa for large J rather than decaying with J.

    By Brownian self-similarity the value is invariant under rescaling
    delta at fixed J.
    """
    kappa = positive("kappa", kappa)
    delta = positive("delta", delta)
    j = integer("j", j, 1)
    dt = delta / j
    lags = np.arange(j, dtype=float)
    counts = np.full(j, 2.0)
    counts[0] = 1.0
    cov_sum = float(np.sum(counts * (j - lags) * 2.0 * kappa * (delta - lags * dt)))
    return cov_sum / (j * j) / (2.0 * delta)
