"""Ordered-logistic response kernel shared by the simulator and the IRT engine.

``sigmoid``, ``category_probs`` and the survivor functions are vectorized
over arbitrary leading shapes; ``log_prob_and_grads`` takes flat arrays
grouped by a :class:`CategorySplit`. Category indices are 1-based (1..K
with K = 7). Thresholds are strictly increasing with the implicit
conventions kappa_0 = -inf and kappa_K = +inf, so that

    P(Y = k) = sigmoid(eta - kappa_{k-1}) - sigmoid(eta - kappa_k).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .core import N_CATEGORIES, SdrkitError

_EXP_CAP = 30.0  # beyond this, log(expm1(d)) == d to double precision


def _sigmoid_softplus(x: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """sigmoid(x) and softplus(x), both from one exp(-|x|); the sigmoid
    overwrites ``x``.

    The steps work in place, in three buffers: once arrays outgrow the C
    allocator's reuse threshold (128 KiB under glibc), every fresh temporary
    costs page faults.
    """
    pos = np.maximum(x, 0.0)
    above = x >= 0
    e = np.abs(x, out=x)
    np.negative(e, out=e)
    np.exp(e, out=e)
    sp = np.log1p(e)
    sp += pos
    np.add(e, 1.0, out=pos)
    # where(x >= 0, 1, e) as max(e, x >= 0), since 0 <= e <= 1: the same
    # bits, without a branch per element that random signs mispredict
    np.maximum(e, above, out=e)
    e /= pos
    return e, sp


def sigmoid(x: np.ndarray) -> np.ndarray:
    x = np.asarray(x, dtype=float)
    e = np.exp(-np.abs(x))
    return np.where(x >= 0, 1.0, e) / (1.0 + e)


def check_thresholds(kappa: np.ndarray) -> None:
    kappa = np.asarray(kappa, dtype=float)
    if kappa.shape[-1] != N_CATEGORIES - 1:
        raise SdrkitError(f"expected {N_CATEGORIES - 1} thresholds, got {kappa.shape[-1]}")
    if not np.all(np.diff(kappa, axis=-1) > 0):
        raise SdrkitError("thresholds must be strictly increasing")


def category_probs(eta: float | np.ndarray, kappa: np.ndarray) -> np.ndarray:
    """Probabilities of the 7 response categories at linear predictor ``eta``.

    ``eta`` may be scalar or shape (...,); ``kappa`` shape (..., 6) broadcasts
    against it. Returns shape (..., 7) summing to 1 along the last axis.
    """
    check_thresholds(kappa)
    eta = np.asarray(eta, dtype=float)
    surv = sigmoid(eta[..., None] - kappa)  # P(Y >= k) for k = 2..7
    ones = np.ones(surv.shape[:-1] + (1,))
    zeros = np.zeros_like(ones)
    upper = np.concatenate([ones, surv], axis=-1)
    lower = np.concatenate([surv, zeros], axis=-1)
    return upper - lower


def survivor(eta: np.ndarray, kappa_km1: np.ndarray) -> np.ndarray:
    """P(Y >= k) in the survivor form sigmoid(eta - kappa_{k-1})."""
    return sigmoid(np.asarray(eta, dtype=float) - np.asarray(kappa_km1, dtype=float))


def survivor_from_cutpoints(eta: np.ndarray, kappa_km1: np.ndarray) -> np.ndarray:
    """P(Y >= k) via the cumulative-cutpoint convention 1 - sigmoid(kappa_{k-1} - eta).

    Algebraically identical to :func:`survivor`; kept as the explicit dual
    route so the equivalence of the two conventions stays testable.
    """
    return 1.0 - sigmoid(np.asarray(kappa_km1, dtype=float) - np.asarray(eta, dtype=float))


@dataclass(frozen=True)
class CategorySplit:
    """Where the three kinds of answers sit in the kernel's flat inputs.

    The inputs hold the k = 1 answers, then the k = 7 ones, then the interior
    ones (k = 2..6); the slices ``first``, ``last`` and ``interior`` select
    each group. An interior answer spans one threshold gap d = kappa_k -
    kappa_{k-1}: the index array ``gap_rep`` selects one interior entry per
    distinct gap and the index array ``gap_of`` maps each interior entry to
    its gap in that selection, so the gap terms are computed once per gap
    rather than once per answer.
    """

    first: slice
    last: slice
    interior: slice
    gap_rep: np.ndarray
    gap_of: np.ndarray


def _gap_terms(d: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """log(expm1(d)), 1 / -expm1(-d) and -1 / expm1(d) for gaps d >= 0.

    d can underflow to 0 for extreme sampler proposals; the -inf log
    probability (and unbounded gradients) are legitimate there and the
    caller treats non-finite values as a rejected state.
    """
    capped = d > _EXP_CAP
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        em1 = np.expm1(np.minimum(d, _EXP_CAP))
        log_em1 = np.where(capped, d, np.log(em1))
        inv_lo = 1.0 / (-np.expm1(-d))
        inv_hi = np.where(capped, 0.0, -1.0 / em1)
    return log_em1, inv_lo, inv_hi


def log_prob_and_grads(
    eta: np.ndarray, kappa_lo: np.ndarray, kappa_hi: np.ndarray, split: CategorySplit
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Log P(Y = k) with derivatives, for responses with bracketing thresholds.

    The three inputs are flat float64 arrays of one length, grouped as
    ``split`` says. ``kappa_lo`` is kappa_{k-1} (-inf when k = 1) and
    ``kappa_hi`` is kappa_k (+inf when k = 7). Returns ``(logp, g_lo, g_hi)``
    where ``g_lo`` is d logp / d(eta - kappa_lo) and ``g_hi`` is d logp /
    d(eta - kappa_hi), so that d logp / d eta = g_lo + g_hi, d logp / d
    kappa_lo = -g_lo, and d logp / d kappa_hi = -g_hi.
    """
    # One sigmoid/softplus pass over z = [v of every answer | u of the
    # interior ones], v = eta - kappa_hi and u = eta - kappa_lo, except that
    # a k = 7 entry of v is replaced by kappa_lo - eta, computed as such;
    # logp, g_lo and g_hi are then read off slices of the result:
    #   k = 1:    P = 1 - sigmoid(v)
    #   k = 7:    P = 1 - sigmoid(kappa_lo - eta)
    #   interior: P = (e^u - e^v) / ((1 + e^u)(1 + e^v)), with d = u - v > 0.
    n = eta.size
    ei, klo, khi = eta[split.interior], kappa_lo[split.interior], kappa_hi[split.interior]
    log_em1, inv_lo, inv_hi = _gap_terms(khi[split.gap_rep] - klo[split.gap_rep])
    z = np.empty(n + ei.size)
    v = np.subtract(eta, kappa_hi, out=z[:n])
    v[split.last] = kappa_lo[split.last] - eta[split.last]
    np.subtract(ei, klo, out=z[n:])
    logp_in = v[split.interior] + log_em1[split.gap_of]  # read v before the pass overwrites it
    sig, sp = _sigmoid_softplus(z)
    sig_v, sig_u, sp_v, sp_u = sig[:n], sig[n:], sp[:n], sp[n:]

    logp_in -= sp_u
    logp_in -= sp_v[split.interior]
    g_hi_in = inv_hi[split.gap_of] - sig_v[split.interior]
    g_lo = np.zeros(n)
    g_lo[split.last] = sig_v[split.last]
    g_lo[split.interior] = inv_lo[split.gap_of] - sig_u
    logp = np.negative(sp_v, out=sp_v)  # -softplus at k = 1 and 7
    logp[split.interior] = logp_in
    g_hi = np.negative(sig_v, out=sig_v)
    g_hi[split.last] = 0.0
    g_hi[split.interior] = g_hi_in
    return logp, g_lo, g_hi
