"""Oracle checks for the ordered-logistic response kernel."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from sdrkit.core import SdrkitError
from sdrkit.ordinal import (
    CategorySplit,
    category_probs,
    check_thresholds,
    log_prob_and_grads,
    sigmoid,
    softplus,
    survivor,
    survivor_from_cutpoints,
)


def random_kappa(rng, shape=()):
    raw = np.sort(rng.uniform(-3.0, 3.0, size=shape + (6,)), axis=-1)
    # enforce strict gaps
    raw += np.arange(6) * 1e-6
    return raw


def test_sigmoid_matches_closed_form():
    x = np.linspace(-30, 30, 1001)
    expected = 1.0 / (1.0 + np.exp(-np.clip(x, None, 0))) * np.exp(np.clip(x, None, 0)) ** 0
    # direct reference via stable formula
    ref = np.where(x >= 0, 1 / (1 + np.exp(-x)), np.exp(x) / (1 + np.exp(x)))
    assert np.allclose(sigmoid(x), ref, atol=0, rtol=1e-15)
    assert sigmoid(np.array([0.0]))[0] == 0.5


def test_softplus_is_log1p_exp():
    x = np.array([-700.0, -5.0, 0.0, 5.0, 700.0])
    assert np.allclose(softplus(x), np.logaddexp(0.0, x))
    assert softplus(np.array([700.0]))[0] == 700.0  # no overflow


def test_check_thresholds_rejects_bad_shapes_and_order():
    with pytest.raises(SdrkitError):
        check_thresholds(np.zeros(5))
    with pytest.raises(SdrkitError):
        check_thresholds(np.array([0.0, 1.0, 1.0, 2.0, 3.0, 4.0]))
    check_thresholds(np.arange(6.0))  # increasing is fine


def test_category_probs_sum_to_one_and_are_positive():
    rng = np.random.default_rng(0)
    eta = rng.normal(0, 3, size=5000)
    kappa = random_kappa(rng, (5000,))
    probs = category_probs(eta, kappa)
    assert probs.shape == (5000, 7)
    assert np.all(probs >= 0)
    assert np.max(np.abs(probs.sum(axis=-1) - 1.0)) < 1e-12


def test_category_probs_symmetric_example():
    # eta = 0 with symmetric thresholds gives a symmetric distribution
    kappa = np.array([-2.5, -1.5, -0.5, 0.5, 1.5, 2.5])
    p = category_probs(0.0, kappa)
    assert np.allclose(p, p[::-1], atol=1e-15)
    assert abs(p.sum() - 1.0) < 1e-15


def test_survivor_dual_route_equivalence():
    rng = np.random.default_rng(1)
    eta = rng.normal(0, 3, size=100_000)
    kap = rng.normal(0, 2, size=100_000)
    a = survivor(eta, kap)
    b = survivor_from_cutpoints(eta, kap)
    assert np.max(np.abs(a - b)) < 1e-12


def test_log_prob_matches_direct_probabilities():
    rng = np.random.default_rng(2)
    eta = rng.normal(0, 2, size=400)
    kappa = random_kappa(rng, (400,))
    probs = category_probs(eta, kappa)
    for k in range(1, 8):
        klo = np.where(k == 1, -np.inf, kappa[:, max(k - 2, 0)])
        khi = np.where(k == 7, np.inf, kappa[:, min(k - 1, 5)])
        logp, _, _ = log_prob_and_grads(eta, klo, khi)
        assert np.allclose(np.exp(logp), probs[:, k - 1], rtol=1e-10, atol=1e-12)


def test_log_prob_gradients_match_finite_differences():
    rng = np.random.default_rng(3)
    h = 1e-6
    for _ in range(200):
        eta = float(rng.normal(0, 2))
        kappa = np.sort(rng.uniform(-2, 2, 6))
        k = int(rng.integers(1, 8))
        klo = -np.inf if k == 1 else kappa[k - 2]
        khi = np.inf if k == 7 else kappa[k - 1]

        def lp(e):
            v, _, _ = log_prob_and_grads(np.array([e]), np.array([klo]), np.array([khi]))
            return v[0]

        _, g_lo, g_hi = log_prob_and_grads(np.array([eta]), np.array([klo]), np.array([khi]))
        num = (lp(eta + h) - lp(eta - h)) / (2 * h)
        assert abs((g_lo[0] + g_hi[0]) - num) < 1e-5 * max(1.0, abs(num))


def test_category_split_with_shared_gaps_matches_threshold_path():
    """Answers grouped k = 1 | k = 7 | interior, with each interior gap's
    terms computed once, give what the thresholds alone give."""
    rng = np.random.default_rng(4)
    kappa = random_kappa(rng, (3,))
    ext = np.concatenate([np.full((3, 1), -np.inf), kappa, np.full((3, 1), np.inf)], axis=1)
    k = np.concatenate([np.ones(5, int), np.full(4, 7), rng.integers(2, 7, size=40)])
    col = rng.integers(0, 3, size=k.size)
    eta = rng.normal(0, 2, size=k.size)
    klo, khi = ext[col, k - 1], ext[col, k]
    gap = (col * 5 + k - 2)[9:]
    _, rep, of = np.unique(gap, return_index=True, return_inverse=True)
    split = CategorySplit(
        first=slice(0, 5), last=slice(5, 9), interior=slice(9, None), gap_rep=rep, gap_of=of
    )
    for a, b in zip(log_prob_and_grads(eta, klo, khi, split), log_prob_and_grads(eta, klo, khi)):
        assert np.allclose(a, b, rtol=1e-15, atol=0)


@settings(max_examples=200, deadline=None)
@given(
    eta=st.floats(-20, 20),
    shift=st.floats(-2, 2),
)
def test_probability_mass_shifts_with_eta(eta, shift):
    """P(Y >= k) is nondecreasing in eta for every k."""
    kappa = np.array([-2.5, -1.5, -0.5, 0.5, 1.5, 2.5])
    lo = category_probs(min(eta, eta + shift), kappa)
    hi = category_probs(max(eta, eta + shift), kappa)
    # compare survivor functions
    s_lo = 1.0 - np.cumsum(lo)[:-1]
    s_hi = 1.0 - np.cumsum(hi)[:-1]
    assert np.all(s_hi >= s_lo - 1e-12)


def test_extreme_eta_stays_finite():
    kappa = np.array([-2.5, -1.5, -0.5, 0.5, 1.5, 2.5])
    for eta in (-500.0, 500.0):
        p = category_probs(eta, kappa)
        assert np.all(np.isfinite(p))
        assert abs(p.sum() - 1.0) < 1e-12
        # log prob of the favored extreme category is ~0
        k = 7 if eta > 0 else 1
        klo = np.array([kappa[5] if k == 7 else -np.inf])
        khi = np.array([np.inf if k == 7 else kappa[0]])
        logp, _, _ = log_prob_and_grads(np.array([eta]), klo, khi)
        assert logp[0] > -1e-6
