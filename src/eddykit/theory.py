"""Closed-form eddy diffusivities and exact estimator expectations.

This module collects every formula that the rest of the package is tested
against: effective diffusivities of the shear family, the exact expectation
of the quadratic variation estimator for the steady and the OU shear, the
bias limit under the critical subsampling scaling, and an exact covariance
oracle for the box-averaged estimator applied to Brownian motion.

Both qv expectations come from one engine, :func:`_qv_mean`. It takes the
drift covariance along the shear direction as a sum of terms
c e^{a tau + b s} (s the earlier time, tau the lag) and sums each term's
window integrals in divided differences of exp, which :func:`_divided_exp`
evaluates as the corner entry of a small scaled-and-squared matrix
exponential. The steady shear has the two terms (1/2, -kappa, 0) and
(-1/2, -kappa, -4 kappa); the stationary OU shear has the one term
(sigma/(2 alpha), -(alpha + kappa), 0).

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


def _divided_exp(*nodes: float) -> float:
    """Divided difference exp[z_0, ..., z_k] of the exponential at real nodes.

    It is the top-right entry of exp(Z), where Z carries the nodes on its
    diagonal and ones on its superdiagonal (Opitz). exp(Z) is evaluated by
    scaling Z by 2^-s until its largest entry is below 1, summing 17 Taylor
    terms by Horner's rule and squaring s times, with no switch on where the
    nodes fall (McCurdy, Ng and Parlett, Math. Comp. 1984). Z has no
    negative off-diagonal entry, so the squarings never cancel, and the
    result is exact for nodes each moved by a few ulps of the largest |z_i|.
    That is accurate to rounding when the nodes share one scale, coincident
    or not, as they do in every call from :func:`_qv_mean`.
    """
    z = np.diag(np.asarray(nodes, dtype=float)) + np.eye(len(nodes), k=1)
    s = max(0, math.frexp(float(np.max(np.abs(z))))[1])
    z /= 2.0 ** s
    eye = total = np.eye(len(nodes))
    for m in range(17, 0, -1):
        total = eye + z @ total / m
    for _ in range(s):
        total = total @ total
    return float(total[0, -1])


def _qv_mean(kappa: float, delta: float, n: int, terms) -> float:
    """Mean of the qv estimator along a shear whose drift covariance is a sum.

    The drift integrand f along the shear direction has covariance
    E[f(s) f(s + tau)] = sum of c e^{a tau + b s} over the (c, a, b) terms,
    with s the earlier time. One window's double integral of a term is
    2 c delta^2 e^{b s_0} exp[a delta, b delta, 0], and the sum over the N
    windows is a geometric series in e^{b delta}, so

        E K_{N,delta} = kappa + delta * sum of c exp[a delta, b delta, 0]
                        * exp[N b delta, 0] / exp[b delta, 0].

    A term with b = 0 needs no branch, since exp[0, 0] = 1.
    """
    return kappa + delta * sum(c * _divided_exp(a * delta, b * delta, 0.0)
                               * _divided_exp(n * b * delta, 0.0) / _divided_exp(b * delta, 0.0)
                               for c, a, b in terms)


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
    E[sin x(s) sin x(s + tau)] = (1/2) e^{-kappa tau} (1 - e^{-4 kappa s})
    of Brownian motion over each sampling window and summing the resulting
    geometric series over windows. The value is computed by :func:`_qv_mean`
    from that covariance's two terms, (1/2, -kappa, 0) and
    (-1/2, -kappa, -4 kappa), not from the display above, whose bracket
    cancels to -u^2 for small u.

    Limits: delta -> 0 gives kappa, delta -> infinity (N fixed) gives K.
    """
    kappa = positive("kappa", kappa)
    delta = positive("delta", delta)
    n = integer("n", n, 1)
    return _qv_mean(kappa, delta, n, [(0.5, -kappa, 0.0), (-0.5, -kappa, -4.0 * kappa)])


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
    effective value k_ou_shear as delta -> infinity. The value is computed
    by :func:`_qv_mean` from the one covariance term (sigma/(2 alpha),
    -gamma, 0), not from the display above, whose bracket cancels to
    gamma delta / 2 for small delta. Unlike qv_expectation_shear this drops
    the finite-horizon boundary terms, so it describes the T >> delta,
    T >> 1/kappa regime.
    """
    kappa = positive("kappa", kappa)
    alpha = positive("alpha", alpha)
    delta = positive("delta", delta)
    sigma = nonnegative("sigma", sigma)
    return _qv_mean(kappa, delta, 1, [(sigma / (2.0 * alpha), -(alpha + kappa), 0.0)])


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
