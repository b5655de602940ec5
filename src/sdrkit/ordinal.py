"""Ordered-logistic response kernel shared by the simulator and the IRT engine.

All functions are vectorized over arbitrary leading shapes. Category indices
are 1-based (1..K with K = 7). Thresholds are strictly increasing with the
implicit conventions kappa_0 = -inf and kappa_K = +inf, so that

    P(Y = k) = sigmoid(eta - kappa_{k-1}) - sigmoid(eta - kappa_k).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .core import N_CATEGORIES, SdrkitError

_EXP_CAP = 30.0  # beyond this, log(expm1(d)) == d to double precision


def _sigmoid_softplus(x: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """sigmoid(x) and softplus(x), both from one exp(-|x|)."""
    e = np.exp(-np.abs(x))
    sig = np.where(x >= 0, 1.0, e) / (1.0 + e)
    return sig, np.maximum(x, 0.0) + np.log1p(e)


def sigmoid(x: np.ndarray) -> np.ndarray:
    x = np.asarray(x, dtype=float)
    e = np.exp(-np.abs(x))
    return np.where(x >= 0, 1.0, e) / (1.0 + e)


def softplus(x: np.ndarray) -> np.ndarray:
    return np.logaddexp(0.0, x)


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
    return _category_probs(eta, kappa)


def _category_probs(eta: float | np.ndarray, kappa: np.ndarray) -> np.ndarray:
    """:func:`category_probs` for thresholds the caller has already checked."""
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

    ``first`` (k = 1), ``last`` (k = 7) and ``interior`` (k = 2..6) select
    entries, as slices when the inputs are grouped that way, else as index
    arrays. An interior answer spans one threshold gap d = kappa_k -
    kappa_{k-1}: ``gap_rep`` selects one interior entry per distinct gap and
    ``gap_of`` maps each interior entry to its gap in that selection, so the
    gap terms are computed once per gap rather than once per answer.
    """

    first: slice | np.ndarray
    last: slice | np.ndarray
    interior: slice | np.ndarray
    gap_rep: slice | np.ndarray
    gap_of: slice | np.ndarray

    @classmethod
    def from_thresholds(cls, kappa_lo: np.ndarray, kappa_hi: np.ndarray) -> "CategorySplit":
        """Read the categories off the thresholds: -inf below marks k = 1,
        +inf above marks k = 7; every interior answer is its own gap."""
        lo_open = np.isinf(kappa_lo)
        hi_open = np.isinf(kappa_hi)
        return cls(
            first=np.flatnonzero(lo_open),
            last=np.flatnonzero(hi_open),
            interior=np.flatnonzero(~(lo_open | hi_open)),
            gap_rep=slice(None),
            gap_of=slice(None),
        )


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
    eta: np.ndarray,
    kappa_lo: np.ndarray,
    kappa_hi: np.ndarray,
    split: CategorySplit | None = None,
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Log P(Y = k) with derivatives, for responses with bracketing thresholds.

    ``kappa_lo`` is kappa_{k-1} (-inf when k = 1) and ``kappa_hi`` is kappa_k
    (+inf when k = 7); the three arrays share one shape. Returns ``(logp,
    g_lo, g_hi)`` where ``g_lo`` is d logp / d(eta - kappa_lo) and ``g_hi`` is
    d logp / d(eta - kappa_hi), so that d logp / d eta = g_lo + g_hi,
    d logp / d kappa_lo = -g_lo, and d logp / d kappa_hi = -g_hi.

    ``split`` says which flat entries hold which categories; without it the
    categories are read off the infinite thresholds.
    """
    eta = np.asarray(eta, dtype=float)
    shape = eta.shape
    eta = eta.ravel()
    kappa_lo = np.asarray(kappa_lo, dtype=float).ravel()
    kappa_hi = np.asarray(kappa_hi, dtype=float).ravel()
    s = split if split is not None else CategorySplit.from_thresholds(kappa_lo, kappa_hi)

    logp = np.empty_like(eta)
    g_lo = np.empty_like(eta)
    g_hi = np.empty_like(eta)

    # k = 1: P = 1 - sigmoid(v)
    sig, sp = _sigmoid_softplus(eta[s.first] - kappa_hi[s.first])
    logp[s.first] = -sp
    g_lo[s.first] = 0.0
    g_hi[s.first] = -sig

    # k = 7: P = sigmoid(u)
    sig, sp = _sigmoid_softplus(kappa_lo[s.last] - eta[s.last])
    logp[s.last] = -sp
    g_lo[s.last] = sig
    g_hi[s.last] = 0.0

    # interior: P = (e^u - e^v) / ((1 + e^u)(1 + e^v)), with d = u - v > 0.
    ei, klo, khi = eta[s.interior], kappa_lo[s.interior], kappa_hi[s.interior]
    log_em1, inv_lo, inv_hi = _gap_terms(khi[s.gap_rep] - klo[s.gap_rep])
    u = ei - klo
    v = ei - khi
    sig_u, sp_u = _sigmoid_softplus(u)
    sig_v, sp_v = _sigmoid_softplus(v)
    logp[s.interior] = v + log_em1[s.gap_of] - sp_u - sp_v
    g_lo[s.interior] = inv_lo[s.gap_of] - sig_u
    g_hi[s.interior] = inv_hi[s.gap_of] - sig_v

    return logp.reshape(shape), g_lo.reshape(shape), g_hi.reshape(shape)
