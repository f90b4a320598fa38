"""Tests for the closed-form expectations and diffusivities.

Reference values were frozen from a 40-digit mpmath evaluation; the
quadratic variation expectation was additionally cross-checked there by
direct double quadrature of the Brownian two point function over each
sampling window (agreement to 40 digits on every case below).
"""

import math

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from eddykit import (
    ParameterError,
    bm_box_expectation,
    k_ou_shear,
    k_periodic_shear,
    k_shear,
    qv_expectation_ou_shear,
    qv_expectation_shear,
    subsample_bias_limit_shear,
)

kappas = st.floats(1e-3, 1e2)
deltas = st.floats(1e-6, 1e4)


# ---------------------------------------------------------------------------
# effective diffusivities
# ---------------------------------------------------------------------------


def test_k_shear_values():
    assert k_shear(0.1) == 5.1
    assert k_shear(1.0) == 1.5
    # global minimum sqrt(2) at kappa = 1/sqrt(2)
    k_min = 2.0 ** -0.5
    assert k_shear(k_min) == pytest.approx(2.0 ** 0.5, rel=1e-15, abs=0.0)
    assert k_shear(0.99 * k_min) > k_shear(k_min)
    assert k_shear(1.01 * k_min) > k_shear(k_min)


@given(kappas)
def test_k_shear_bounds(kappa):
    assert k_shear(kappa) >= max(kappa, 2.0 ** 0.5)


def test_k_ou_shear_values():
    assert k_ou_shear(0.1, 1.0, 0.1) == 0.1 + 0.1 / 2.2
    assert k_ou_shear(0.1, 1.0, 0.1) == pytest.approx(0.14545454545454545, rel=1e-15, abs=0.0)
    # sigma = 0 switches the modulation off
    assert k_ou_shear(0.3, 2.0, 0.0) == 0.3


def test_k_periodic_shear_variants():
    assert k_periodic_shear(0.1, 1.0, "printed") == pytest.approx(
        0.34752475247524752, rel=1e-15, abs=0.0)
    assert k_periodic_shear(0.1, 1.0, "figure") == pytest.approx(
        0.12475247524752475, rel=1e-15, abs=0.0)
    with pytest.raises(ParameterError):
        k_periodic_shear(0.1, 1.0, "both")


# ---------------------------------------------------------------------------
# quadratic variation expectation, steady shear
# ---------------------------------------------------------------------------

QV_CASES = [
    # (kappa, n, delta, expectation, rtol); the seventh and last rows sit
    # at u = kappa delta ~ 1e-4, where the closed form cancels to -u^2
    (0.5, 100, 1.0, 0.7116942911991107722424, 1e-12),
    (0.1, 100, 10.0, 1.932831968192412046661, 1e-12),
    (0.1, 10, 100.0, 4.587523456630377068648, 1e-12),
    (1.0, 3, 50.0, 1.489166666666666666667, 1e-12),
    (0.5, 10, 1000.0, 1.49795, 1e-12),
    (0.1, 100000, 0.01, 0.1024929147931883800292, 1e-12),
    (1e-4, 5, 0.999, 0.0003327099488727048067388, 1e-12),
    (0.1, 7, 1e-8, 0.1000000000000000388844, 1e-12),
    (1e-3, 1, 0.1, 0.001003332916701664326947, 1e-13),
]


@pytest.mark.parametrize("kappa, n, delta, expected, rtol", QV_CASES)
def test_qv_expectation_shear_frozen(kappa, n, delta, expected, rtol):
    assert qv_expectation_shear(kappa, n, delta) == pytest.approx(expected, rel=rtol, abs=0.0)


def test_qv_expectation_shear_limits():
    # delta -> 0 recovers the molecular value, delta -> infinity the
    # effective one (exponentials underflow harmlessly on the way)
    assert qv_expectation_shear(0.3, 50, 1e-10) == pytest.approx(0.3, rel=1e-9, abs=0.0)
    assert qv_expectation_shear(0.5, 1, 1e6) == pytest.approx(k_shear(0.5), rel=1e-5, abs=0.0)


@given(kappas, st.integers(1, 100000), deltas)
def test_qv_expectation_shear_bounds(kappa, n, delta):
    value = qv_expectation_shear(kappa, n, delta)
    assert kappa * (1.0 - 1e-9) <= value <= k_shear(kappa) * (1.0 + 1e-9)


def test_qv_expectation_shear_validation():
    with pytest.raises(ParameterError):
        qv_expectation_shear(0.0, 10, 1.0)
    with pytest.raises(ParameterError):
        qv_expectation_shear(0.1, 0, 1.0)
    with pytest.raises(ParameterError):
        qv_expectation_shear(0.1, 10, -1.0)


# ---------------------------------------------------------------------------
# quadratic variation expectation, OU shear
# ---------------------------------------------------------------------------

OU_QV_CASES = [
    # (kappa, alpha, sigma, delta, expectation, rtol); the last row sits at
    # w = gamma delta = 1.1e-6, where the closed form cancels to w/2
    (0.1, 1.0, 0.1, 1.0, 0.1178872348635570128508, 1e-12),
    (0.1, 1.0, 0.1, 10.0, 0.1413223830648793061931, 1e-12),
    (0.1, 1.0, 0.1, 50.0, 0.1446280991735537268157, 1e-12),
    (1e-3, 0.01, 0.1, 1e-4, 0.001249999908333358583132, 1e-13),
]


@pytest.mark.parametrize("kappa, alpha, sigma, delta, expected, rtol", OU_QV_CASES)
def test_qv_expectation_ou_shear_frozen(kappa, alpha, sigma, delta, expected, rtol):
    assert qv_expectation_ou_shear(kappa, alpha, sigma, delta) == pytest.approx(
        expected, rel=rtol, abs=0.0)


def test_qv_expectation_ou_shear_limits():
    assert qv_expectation_ou_shear(0.1, 1.0, 0.1, 1e-12) == pytest.approx(0.1, rel=1e-9, abs=0.0)
    assert qv_expectation_ou_shear(0.1, 1.0, 0.1, 1e12) == pytest.approx(
        k_ou_shear(0.1, 1.0, 0.1), rel=1e-9, abs=0.0
    )


def test_qv_expectation_ou_shear_series_branch_is_continuous():
    # no jump across gamma * delta = 1e-6, deep in the range where the closed form cancels
    boundary = 1e-6 / 1.1
    lo = qv_expectation_ou_shear(0.1, 1.0, 0.1, boundary * (1.0 - 1e-9))
    hi = qv_expectation_ou_shear(0.1, 1.0, 0.1, boundary * (1.0 + 1e-9))
    assert lo <= hi
    assert hi - lo < 1e-12 * 0.1


@given(st.floats(1e-3, 1e2), st.floats(1e-3, 1e2), st.floats(0.0, 1e2),
       st.floats(1e-8, 1e6), st.floats(1.0 + 1e-6, 10.0))
@settings(max_examples=200)
def test_qv_expectation_ou_shear_monotone_in_delta(kappa, alpha, sigma, delta, factor):
    lo = qv_expectation_ou_shear(kappa, alpha, sigma, delta)
    hi = qv_expectation_ou_shear(kappa, alpha, sigma, delta * factor)
    assert hi >= lo - 1e-12 * max(1.0, abs(hi))
    assert kappa <= lo <= k_ou_shear(kappa, alpha, sigma) * (1.0 + 1e-12)


# ---------------------------------------------------------------------------
# subsampling bias limit
# ---------------------------------------------------------------------------


def test_subsample_bias_limit_values():
    assert subsample_bias_limit_shear(100) == -0.50125
    assert subsample_bias_limit_shear(1) == -0.625
    assert subsample_bias_limit_shear(10 ** 9) == pytest.approx(-0.5, rel=1e-9, abs=0.0)
    with pytest.raises(ParameterError):
        subsample_bias_limit_shear(0)


@pytest.mark.parametrize("eps", [0.5, 1.0])
@pytest.mark.parametrize("n", [1, 10])
@pytest.mark.parametrize("kappa", [0.1, 0.03, 0.01, 0.003])
def test_subsample_bias_limit_is_the_limit_of_the_qv_bias(eps, n, kappa):
    # under delta = kappa^{-2-eps}, kappa^{-eps} (E K_{N,delta} - K) -> limit
    bias = qv_expectation_shear(kappa, n, kappa ** (-2.0 - eps)) - k_shear(kappa)
    assert kappa ** -eps * bias == pytest.approx(subsample_bias_limit_shear(n), rel=0.0, abs=1e-6)


@given(st.integers(1, 10 ** 6))
def test_subsample_bias_limit_bounds(n):
    value = subsample_bias_limit_shear(n)
    assert -0.625 <= value < -0.5
    if n > 1:
        assert value > subsample_bias_limit_shear(n - 1)


# ---------------------------------------------------------------------------
# box average expectation on Brownian motion
# ---------------------------------------------------------------------------


@pytest.mark.parametrize("j", [1, 2, 3, 7, 10, 100])
def test_bm_box_matches_closed_form(j):
    kappa, delta = 0.37, 2.9
    expected = kappa * (2 * j * j + 1) / (3 * j * j)
    assert bm_box_expectation(kappa, delta, j) == pytest.approx(expected, rel=1e-13, abs=0.0)


def test_bm_box_j_one_is_molecular():
    assert bm_box_expectation(0.25, 4.0, 1) == 0.25
    assert bm_box_expectation(0.1, 1.7, 1) == pytest.approx(0.1, rel=1e-14, abs=0.0)


@given(kappas, deltas, deltas, st.integers(1, 200))
def test_bm_box_scale_invariance_and_bounds(kappa, d1, d2, j):
    v1 = bm_box_expectation(kappa, d1, j)
    v2 = bm_box_expectation(kappa, d2, j)
    assert v1 == pytest.approx(v2, rel=1e-12, abs=0.0)
    # decays from kappa at J = 1 to (2/3) kappa, never below
    assert 2.0 * kappa / 3.0 < v1 <= kappa * (1.0 + 1e-12)
    if j > 1:
        assert v1 < bm_box_expectation(kappa, d1, j - 1) * (1.0 + 1e-12)


def test_bm_box_validation():
    with pytest.raises(ParameterError):
        bm_box_expectation(-0.1, 1.0, 2)
    with pytest.raises(ParameterError):
        bm_box_expectation(0.1, 0.0, 2)
    with pytest.raises(ParameterError):
        bm_box_expectation(0.1, 1.0, 0)


@pytest.mark.parametrize("call, name", [
    (lambda: qv_expectation_shear(0.1, 2.5, 1.0), "n"),
    (lambda: bm_box_expectation(0.1, 1.0, 2.5), "j"),
    (lambda: subsample_bias_limit_shear(1.9), "n"),
], ids=["shear-qv", "bm-box", "bias-limit"])
def test_fractional_counts_are_refused(call, name):
    with pytest.raises(ParameterError, match=f"^{name} must be an integer >= 1"):
        call()
