"""Bayesian estimation of the pooled multidimensional graded response model
(Likert) and the ordinal Thurstonian model (GFC).

Both models share the ordered-logistic kernel from :mod:`sdrkit.ordinal` and
the same weakly informative priors: theta ~ N(0, I5) per response unit,
half-normal(0, 0.5) discrimination strengths, and N(0, 1.5) thresholds. The
unconstrained parameterization uses log strengths and (first cutpoint,
log-gaps) thresholds, with the corresponding Jacobian terms included in the
log posterior. Two backends expose the same point-estimate interface:
quasi-Newton MAP (fast) and Hamiltonian Monte Carlo with dual-averaging step
size and diagonal metric adaptation (posterior means).
"""

from __future__ import annotations

import json
import math
import os
import threading
from collections import deque
from contextlib import contextmanager
from dataclasses import dataclass, field
from functools import cache, partial
from pathlib import Path
from typing import Sequence

import numpy as np

from .core import (
    InstructionCondition,
    Inventory,
    ItemPool,
    N_CATEGORIES,
    ResponseFormat,
    ResponseSet,
    SdrkitError,
    TRAIT_LABELS,
    read_count,
    read_json,
    read_list,
    read_member,
    read_number,
    read_text,
)
from .ordinal import CategorySplit, KernelBuffers, log_prob_and_grads

INV_SQRT2 = 1.0 / math.sqrt(2.0)

N_TRAITS = 5
THETA_PRIOR_SD = 1.0
A_PLUS_PRIOR_SD = 0.5
KAPPA_PRIOR_SD = 1.5


class DiagnosticsError(SdrkitError):
    pass


# ---------------------------------------------------------------------------
# Model data
# ---------------------------------------------------------------------------

UnitKey = tuple[str, str, str]  # (respondent_id, persona_id, condition)


@dataclass(frozen=True)
class Design:
    """Item design shared by both models.

    ``item_ids``/``trait_idx``/``keying`` describe the statements in unit
    order; for the GFC model that is block order (left, right, left, ...).
    ``columns`` are the ids of the units answered, one per response column
    and threshold row: items (Likert) or blocks (GFC).
    """

    model: str  # "grm" or "gfc"
    item_ids: tuple[str, ...]
    trait_idx: np.ndarray  # (J,) int
    keying: np.ndarray  # (J,) +-1
    columns: tuple[str, ...]

    @property
    def n_items(self) -> int:
        return len(self.item_ids)

    @property
    def paired(self) -> bool:
        return self.model == "gfc"

    @property
    def n_threshold_groups(self) -> int:
        return len(self.columns)


@dataclass(frozen=True)
class ResponseLayout:
    """Index data for the posterior, built once from the answers.

    The flat (N, C) answers are taken in category-split order: k = 1, then
    k = 7, then the interior categories. ``order`` lists flat answer
    positions in that order and ``restore`` is its inverse. ``lo``/``hi``
    index kappa_{k-1}/kappa_k of each answer, in that order, in the
    thresholds extended to (G, 8) by a -inf and a +inf column.
    """

    order: np.ndarray
    restore: np.ndarray
    lo: np.ndarray
    hi: np.ndarray
    split: CategorySplit


def _response_layout(y: np.ndarray) -> ResponseLayout:
    c = y.shape[1]
    flat = y.ravel()
    first = np.flatnonzero(flat == 1)
    last = np.flatnonzero(flat == N_CATEGORIES)
    interior = np.flatnonzero((flat > 1) & (flat < N_CATEGORIES))
    order = np.concatenate([first, last, interior])
    col = order % c
    k = flat[order]
    n_open = len(first) + len(last)
    gap = col[n_open:] * (N_CATEGORIES - 2) + k[n_open:] - 2
    _, gap_rep, gap_of = np.unique(gap, return_index=True, return_inverse=True)
    return ResponseLayout(
        order=order,
        restore=np.argsort(order),
        lo=col * (N_CATEGORIES + 1) + k - 1,
        hi=col * (N_CATEGORIES + 1) + k,
        split=CategorySplit(
            first=slice(0, len(first)),
            last=slice(len(first), n_open),
            interior=slice(n_open, None),
            gap_rep=gap_rep,
            gap_of=gap_of,
        ),
    )


class _PerThread(threading.local):
    """Attributes seen only by the thread that set them; pickled empty."""

    def __reduce__(self):
        return type(self), ()


@dataclass(frozen=True)
class ModelData:
    """Answers of one format with their design.

    ``y`` is stored as a read-only copy, so the response layout built from
    it at construction always describes the answers the posterior sees.
    """

    design: Design
    y: np.ndarray  # (N, J) or (N, P), values 1..7, complete
    units: tuple[UnitKey, ...]
    layout: ResponseLayout = field(init=False, repr=False, compare=False)
    #: the posterior's buffers, one set per thread (see ``_workspace``)
    per_thread: _PerThread = field(init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        y = np.array(self.y)
        if y.ndim != 2 or len(self.units) != y.shape[0]:
            raise SdrkitError("response matrix and unit metadata disagree")
        if y.shape[1] != self.design.n_threshold_groups:
            raise SdrkitError("response matrix and design disagree")
        if not np.issubdtype(y.dtype, np.integer):
            raise SdrkitError("responses must be integer categories")
        if y.size and (y.min() < 1 or y.max() > N_CATEGORIES):
            raise SdrkitError("responses must lie in 1..7")
        y = y.astype(int, copy=False)
        y.setflags(write=False)
        object.__setattr__(self, "y", y)
        object.__setattr__(self, "layout", _response_layout(y))
        object.__setattr__(self, "per_thread", _PerThread())

    @property
    def n_units(self) -> int:
        return self.y.shape[0]


def design_for(inventory: Inventory, pool: ItemPool, fmt: ResponseFormat) -> Design:
    """The scoring design of an inventory in one response format."""
    units = inventory.units(fmt)
    ids = tuple(i for u in units for i in u.statements)
    return Design(
        model="gfc" if fmt is ResponseFormat.GFC else "grm",
        item_ids=ids,
        trait_idx=np.array([pool.get(i).domain.index for i in ids]),
        keying=np.array([pool.get(i).keying for i in ids]),
        columns=tuple(u.id for u in units),
    )


def build_model_data(
    response_sets: Sequence[ResponseSet],
    inventory: Inventory,
    pool: ItemPool,
    fmt: ResponseFormat,
) -> ModelData:
    """Pool complete response sets of one format into a response matrix.

    Each (respondent, persona, condition) row is an independent response unit.
    GFC answers are mapped back to the blocks' canonical left/right
    orientation using the recorded side assignment.
    """
    sets = [rs for rs in response_sets if rs.format is fmt]
    if not sets:
        raise SdrkitError(f"no response sets with format {fmt.value}")
    sets.sort(key=lambda rs: (rs.respondent_id, rs.persona_id, rs.condition.value))
    design = design_for(inventory, pool, fmt)
    cols = design.columns
    rows = []
    for rs in sets:
        row = rs.answers_to(cols)
        if design.paired:
            row = [8 - a if rs.side_assignment.get(c, False) else a for c, a in zip(cols, row)]
        rows.append(row)
    units = tuple(
        (rs.respondent_id, rs.persona_id, rs.condition.value) for rs in sets
    )
    return ModelData(design=design, y=np.asarray(rows, dtype=int), units=units)


# ---------------------------------------------------------------------------
# Parameter packing
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class ParamVector:
    """Constrained view of one point in the unconstrained parameter space."""

    theta: np.ndarray  # (N, 5)
    a_plus: np.ndarray  # (J,)
    kappa: np.ndarray  # (G, 6), strictly increasing rows
    x: np.ndarray  # the underlying unconstrained vector


def param_dim(data: ModelData) -> int:
    n, j = data.n_units, data.design.n_items
    g = data.design.n_threshold_groups
    return N_TRAITS * n + j + 6 * g


def _split(data: ModelData, x: np.ndarray):
    n, j = data.n_units, data.design.n_items
    g = data.design.n_threshold_groups
    off = N_TRAITS * n
    theta = x[:off].reshape(n, N_TRAITS)
    alpha = x[off : off + j]
    c1 = x[off + j : off + j + g]
    gamma = x[off + j + g :].reshape(g, 5)
    return theta, alpha, c1, gamma


def _thresholds(c1: np.ndarray, gaps: np.ndarray) -> np.ndarray:
    """Thresholds (G, 8) from first cutpoints and gaps, extended by
    kappa_0 = -inf and kappa_7 = +inf; columns 1..6 are kappa_1..kappa_6."""
    kappa_ext = np.empty((len(c1), N_CATEGORIES + 1))
    kappa_ext[:, 0] = -np.inf
    kappa_ext[:, 1] = c1
    np.cumsum(gaps, axis=1, out=kappa_ext[:, 2:N_CATEGORIES])
    kappa_ext[:, 2:N_CATEGORIES] += c1[:, None]
    kappa_ext[:, N_CATEGORIES] = np.inf
    return kappa_ext


def unpack(data: ModelData, x: np.ndarray) -> ParamVector:
    theta, alpha, c1, gamma = _split(data, np.asarray(x, dtype=float))
    kappa = _thresholds(c1, np.exp(gamma))[:, 1:N_CATEGORIES]
    return ParamVector(theta=theta.copy(), a_plus=np.exp(alpha), kappa=kappa, x=np.asarray(x))


# ---------------------------------------------------------------------------
# Log posterior and gradient
# ---------------------------------------------------------------------------


@cache
def _slots(n_statements: int, paired: bool) -> tuple[np.ndarray, np.ndarray]:
    """Each statement's column and scale in the loading matrix: statement j
    is column j with scale 1, or (``paired``, statements in block order) the
    block's column with -1/sqrt(2) (left) or +1/sqrt(2) (right)."""
    if not paired:
        return np.arange(n_statements), np.ones(n_statements)
    return np.arange(n_statements) // 2, np.tile([-INV_SQRT2, INV_SQRT2], n_statements // 2)


def loading_matrix(trait_idx: np.ndarray, strength: np.ndarray, paired: bool) -> np.ndarray:
    """The (C, 5) loading matrix of the item model eta = theta @ Lambda.T.

    Statement j adds scale_j * strength_j at (column_j, trait_idx_j): Likert
    columns are the statements; GFC (``paired``) columns are the blocks, each
    its scaled right-minus-left difference. ``strength`` is the signed
    discrimination (keying times a+).
    """
    column, scale = _slots(len(trait_idx), paired)
    n_columns = len(trait_idx) // 2 if paired else len(trait_idx)
    flat = np.bincount(column * N_TRAITS + trait_idx, scale * strength, n_columns * N_TRAITS)
    return flat.reshape(n_columns, N_TRAITS)


class _Workspace:
    """The posterior's large per-call arrays for one ``ModelData``: eta
    (N, C), which later holds d logp / d eta, and the kernel's three flat
    inputs, the first of which later holds g_lo + g_hi, and its buffers."""

    __slots__ = ("eta", "eta_o", "kappa_lo", "kappa_hi", "kernel")

    def __init__(self, data: ModelData):
        self.eta = np.empty(data.y.shape)
        self.eta_o, self.kappa_lo, self.kappa_hi = (np.empty(data.y.size) for _ in range(3))
        self.kernel = KernelBuffers(data.y.size, data.layout.split)


def _workspace(data: ModelData) -> _Workspace:
    """The calling thread's workspace for ``data``, made on its first call.

    The arrays are kept between calls because, once freed, arrays above
    glibc's mmap threshold go back to the OS and are faulted in again on
    the next call.
    Made lazily and per thread, so that a forked worker makes its own, a
    parent that only forks makes none, and two threads never share one.
    """
    try:
        return data.per_thread.work
    except AttributeError:
        data.per_thread.work = _Workspace(data)
        return data.per_thread.work


def log_posterior_and_grad(data: ModelData, x: np.ndarray) -> tuple[float, np.ndarray]:
    if not np.isfinite(x).all():
        raise SdrkitError("non-finite parameter value")
    design = data.design
    layout = data.layout
    work = _workspace(data)
    theta, alpha, c1, gamma = _split(data, x)
    a_plus = np.exp(alpha)
    a_signed = design.keying * a_plus
    gaps = np.exp(gamma)
    kappa_ext = _thresholds(c1, gaps)
    kappa = kappa_ext[:, 1:N_CATEGORIES]
    loadings = loading_matrix(design.trait_idx, a_signed, design.paired)
    eta = np.matmul(theta, loadings.T, out=work.eta)

    k_flat = kappa_ext.ravel()
    # mode "clip": under "raise", take writes out= through a temporary copy;
    # every index is in range
    logp, g_lo, g_hi = log_prob_and_grads(
        np.take(eta.ravel(), layout.order, out=work.eta_o, mode="clip"),
        np.take(k_flat, layout.lo, out=work.kappa_lo, mode="clip"),
        np.take(k_flat, layout.hi, out=work.kappa_hi, mode="clip"),
        layout.split,
        work.kernel,
    )
    lp = float(logp.sum())
    if not math.isfinite(lp):
        # zero-probability state (threshold gaps underflowed); signal to the
        # optimizer/sampler as an infinitely bad point with a null gradient
        return -np.inf, np.zeros_like(x)

    # priors (log densities up to constants) + reparameterization Jacobians
    lp += -0.5 * float((theta**2).sum()) / THETA_PRIOR_SD**2
    lp += float((-(a_plus**2) / (2 * A_PLUS_PRIOR_SD**2) + alpha).sum())
    lp += -float((kappa**2).sum()) / (2 * KAPPA_PRIOR_SD**2)
    lp += float(gamma.sum())

    grad = np.empty_like(x)
    gtheta, galpha, gc1, ggamma = _split(data, grad)
    geta = eta  # spent, as are the kernel's inputs
    np.take(np.add(g_lo, g_hi, out=work.eta_o), layout.restore, out=geta.ravel(), mode="clip")
    np.matmul(geta, loadings, out=gtheta)
    column, scale = _slots(design.n_items, design.paired)
    # d eta / d alpha_j is the statement's own entry of the loading matrix
    galpha[:] = (geta.T @ theta)[column, design.trait_idx] * scale * a_signed

    size = k_flat.size
    gkappa_ext = np.bincount(layout.lo, g_lo, size) + np.bincount(layout.hi, g_hi, size)
    gkappa = -gkappa_ext.reshape(kappa_ext.shape)[:, 1:N_CATEGORIES]

    gtheta += -theta / THETA_PRIOR_SD**2
    galpha += 1.0 - a_plus**2 / A_PLUS_PRIOR_SD**2
    gkappa += -kappa / KAPPA_PRIOR_SD**2

    gkappa.sum(axis=1, out=gc1)
    tail = np.cumsum(gkappa[:, ::-1], axis=1)[:, ::-1]  # tail[:, m] = sum_{k>=m}
    np.multiply(tail[:, 1:], gaps, out=ggamma)
    ggamma += 1.0  # from the log-gap Jacobian
    return lp, grad


def log_posterior(data: ModelData, x: np.ndarray) -> float:
    return log_posterior_and_grad(data, x)[0]


def grad_log_posterior(data: ModelData, x: np.ndarray) -> np.ndarray:
    return log_posterior_and_grad(data, x)[1]


# ---------------------------------------------------------------------------
# MAP estimation
# ---------------------------------------------------------------------------


#: Upper bound on discrimination strengths during optimization, at five prior
#: standard deviations (prior mass above it is ~1e-5). The joint posterior has
#: degenerate spikes where a single item's strength runs away while the latent
#: traits overfit that item's responses; the spikes carry negligible posterior
#: mass but can dominate the mode, so the ascent is restricted to the credible
#: region.
STRENGTH_CAP = 2.5


@dataclass(frozen=True)
class MapOptions:
    backend = "map"  # the fit artifact's label; a class constant, not a field
    n_starts: int = 4
    seed: int = 0

    def __post_init__(self) -> None:
        read_count(self.n_starts, "n_starts", 1)


@dataclass(frozen=True)
class StartStats:
    """Optimizer statistics of one MAP start.

    ``grad_evals`` counts the start's posterior gradient evaluations, its
    initial point's included; ``iterations`` counts its accepted steps.
    """

    log_posterior: float
    iterations: int
    grad_evals: int
    converged: bool


@dataclass(frozen=True)
class MapFit:
    params: ParamVector
    grad_inf_norm: float
    #: one entry per start, in start order; not written to fit artifacts
    start_stats: tuple[StartStats, ...]
    #: index of the start the fit comes from
    best_start: int

    @property
    def log_posterior(self) -> float:
        return self.start_stats[self.best_start].log_posterior

    @property
    def converged(self) -> bool:
        return self.start_stats[self.best_start].converged

    @property
    def theta_hat(self) -> np.ndarray:
        return self.params.theta


def _initial_point(data: ModelData, rng: np.random.Generator) -> np.ndarray:
    x = 0.1 * rng.standard_normal(param_dim(data))
    _, _, c1, gamma = _split(data, x)
    c1 += -1.5
    gamma += math.log(0.6)
    return x


def fit_map(data: ModelData, opts: MapOptions = MapOptions()) -> MapFit:
    """Quasi-Newton posterior-mode fit with multiple random starts.

    Every start point is drawn first, in start order, from the one seeded
    generator; the starts then run side by side in forked worker processes
    (see ``_fan_out``) and the best log posterior wins, the earlier start
    on a tie, so the fit is the same as with the starts one after another.

    The reported ``grad_inf_norm`` is the projected gradient norm: components
    pointing outward at an active strength bound are zeroed, so a clean
    stationary point reports near-zero norm whether or not the cap is active.
    """
    if data.n_units == 0:
        raise SdrkitError("empty model data")
    rng = np.random.default_rng(opts.seed)
    alpha_hi = math.log(STRENGTH_CAP)
    upper = np.full(param_dim(data), np.inf)
    _split(data, upper)[1][:] = alpha_hi
    x0s = [_initial_point(data, rng) for _ in range(opts.n_starts)]
    fg = partial(log_posterior_and_grad, data)
    starts = _fan_out(partial(_ascend, fg, upper=upper), x0s)
    start_stats = tuple(s for _, _, s in starts)
    best, best_lp = None, -np.inf
    for k, s in enumerate(start_stats):
        if s.log_posterior > best_lp:  # strictly: a tie goes to the earlier start
            best, best_lp = k, s.log_posterior
    best_x, projected, _ = starts[best]  # the gradient is the one at best_x
    alpha, g_alpha = _split(data, best_x)[1], _split(data, projected)[1]
    g_alpha[(alpha >= alpha_hi - 1e-12) & (g_alpha > 0)] = 0.0
    return MapFit(
        params=unpack(data, best_x),
        grad_inf_norm=float(np.abs(projected).max()),
        start_stats=start_stats,
        best_start=best,
    )


def _ascend(fg, x0: np.ndarray, upper: np.ndarray):
    """Maximize ``fg(x) -> (f, grad)`` subject to ``x <= upper`` by projected
    limited-memory BFGS (Byrd, Lu, Nocedal & Zhu 1995; Nocedal & Wright 2006,
    Alg. 7.4) with an Armijo backtracking search along ``min(x + t d, upper)``.

    The settings are L-BFGS-B's as sdrkit used them: 10 pairs of memory, at
    most 3000 steps, and convergence when the projected gradient's inf-norm
    is at most 1e-9 or an accepted step raised f by at most 1e-14 relative.
    A coordinate is active when it sits at its bound and the gradient pushes
    it outward; the projected gradient and the direction are zero there. A
    step is accepted only where f is finite and not below f(x), so a step
    into a zero-probability state (f = -inf) backtracks. The search fails,
    and the start has not converged, when the step rounds back to x or t
    falls below 1e-20. Returns (x, the gradient at x, ``StartStats``).
    """
    x = np.minimum(x0, upper)
    f, g = fg(x)
    evals, iterations = 1, 0
    pairs = deque(maxlen=10)  # (s, y, 1 / s.y) of the last accepted steps, oldest first

    def stop(converged: bool):
        return x, g, StartStats(f, iterations, evals, converged)

    while True:
        active = (x >= upper) & (g > 0)
        pg = np.where(active, 0.0, g)
        pg_norm = np.abs(pg).max()
        if pg_norm <= 1e-9:
            return stop(True)
        if iterations >= 3000:
            return stop(False)
        d = pg.copy()  # two-loop recursion: d = H pg, H the inverse-Hessian estimate of -f
        coefs = []
        for s, y, rho in reversed(pairs):
            a = rho * (s @ d)
            d -= a * y
            coefs.append(a)
        if pairs:
            s, y, _ = pairs[-1]
            d *= (s @ y) / (y @ y)
        for (s, y, rho), a in zip(pairs, reversed(coefs)):
            d += (a - rho * (y @ d)) * s
        d[active] = 0.0
        if not d @ pg > 0:  # not an ascent direction: restart from the gradient
            pairs.clear()
            d = pg
        t = 1.0 if pairs else min(1.0, 1.0 / pg_norm)
        while True:
            x_new = np.minimum(x + t * d, upper)
            if t < 1e-20 or np.array_equal(x_new, x):
                return stop(False)
            f_new, g_new = fg(x_new)
            evals += 1
            # f_new >= f as well: clipping can make g.(x_new - x) negative
            if math.isfinite(f_new) and f_new >= max(f, f + 1e-4 * (g @ (x_new - x))):
                break
            t *= 0.5
        iterations += 1
        s, y = x_new - x, g - g_new
        if s @ y > 1e-10 * (y @ y):
            pairs.append((s, y, 1.0 / (s @ y)))
        rel = (f_new - f) / max(abs(f), abs(f_new), 1.0)
        x, f, g = x_new, f_new, g_new
        if rel <= 1e-14:
            return stop(True)


# ---------------------------------------------------------------------------
# HMC estimation
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class HmcOptions:
    backend = "hmc"
    chains: int = 4
    warmup: int = 200
    samples: int = 500
    seed: int = 0
    max_leapfrog: int = 72

    def __post_init__(self) -> None:
        for name, low in (("chains", 1), ("warmup", 0), ("samples", 1), ("max_leapfrog", 1)):
            read_count(getattr(self, name), name, low)


@dataclass(frozen=True)
class ChainStats:
    """Sampler statistics of one HMC chain.

    ``grad_evals`` counts every posterior gradient evaluation, warmup
    included. The others describe the sampling iterations: the step size
    they used, their mean number of leapfrog steps, their mean acceptance
    probability and how many of them diverged.
    """

    grad_evals: int
    step_size: float
    mean_leapfrog: float
    accept_rate: float
    divergences: int


@dataclass(frozen=True)
class Posterior:
    draws: np.ndarray  # (chains, samples, dim)
    units: tuple[UnitKey, ...]
    #: one entry per chain, in chain order; not written to fit artifacts
    chain_stats: tuple[ChainStats, ...] = ()

    @property
    def n_units(self) -> int:
        return len(self.units)

    @property
    def divergences(self) -> int:
        return sum(s.divergences for s in self.chain_stats)

    @property
    def accept_rate(self) -> float:
        return sum(s.accept_rate for s in self.chain_stats) / len(self.chain_stats)

    @property
    def n_draws(self) -> int:
        return self.draws.shape[0] * self.draws.shape[1]

    @property
    def theta_hat(self) -> np.ndarray:
        """Posterior-mean latent traits, (N, 5)."""
        flat = self.draws.reshape(-1, self.draws.shape[-1])
        return flat[:, : N_TRAITS * self.n_units].mean(axis=0).reshape(
            self.n_units, N_TRAITS
        )

    @property
    def divergence_rate(self) -> float:
        return self.divergences / self.n_draws


def fit_hmc(data: ModelData, opts: HmcOptions = HmcOptions()) -> Posterior:
    """Gradient-based MCMC with step size adapted to the target acceptance and
    a diagonal metric estimated during warmup. Deterministic under the seed.

    Each chain draws from its own ``SeedSequence([seed, chain])``, so the
    chains run side by side in forked worker processes (see ``_fan_out``)
    and give the same draws as one after another."""
    if data.n_units == 0:
        raise SdrkitError("empty model data")
    dim = param_dim(data)
    chains = _fan_out(partial(_chain, data, dim, opts), range(opts.chains))
    all_draws = np.empty((opts.chains, opts.samples, dim))
    for chain, (draws, _) in enumerate(chains):
        all_draws[chain] = draws
    post = Posterior(
        draws=all_draws, units=data.units, chain_stats=tuple(s for _, s in chains)
    )
    if post.divergence_rate > 0.10:
        raise DiagnosticsError(
            f"pervasive divergences: {post.divergences} of {post.n_draws} draws"
        )
    return post


#: the task function of a ``_fan_out`` worker process, set by its initializer
_worker_fn = None


def _set_worker_fn(fn) -> None:
    global _worker_fn
    _worker_fn = fn


def _call_worker_fn(task):
    return _worker_fn(task)


def _fan_out(fn, tasks) -> list:
    """``[fn(t) for t in tasks]``, in forked worker processes when it can.

    With more than one task, more than one CPU in this process's affinity
    mask and the ``fork`` start method, up to min(tasks, CPUs) workers run
    the tasks; otherwise they run here, one after another. ``fn`` reaches
    the workers through fork, so only the tasks and results are pickled. A
    task's exception is raised here with its type and message.

    Fork, not spawn: a spawned worker imports sdrkit and numpy afresh and
    would need ``fn``'s data pickled. sdrkit starts no threads of its own.

    While the pool lives, every OpenBLAS loaded here runs on one thread, and
    the saved counts come back afterwards, also when a task raises. The
    workers already fill the CPUs, and each forked child would otherwise
    start an OpenBLAS thread pool of the inherited size. With ``_ascend``
    this no longer shows at study size: on a 2-vCPU host, four starts of a
    200-unit Likert fit took 0.24 s (0.15-0.28) fanned out on one thread,
    0.21 s (0.15-0.27) fanned out under the default count and 0.23 s
    (0.22-0.36) one after another, medians of 7 alternated fresh-process
    runs (ROADMAP item 19). The count is set here, before the fork, not in
    each worker: the workers inherit one thread and start no pool, and the
    counts are restored in the process that saved them. Restoring them
    re-creates this process's pool, whose threads spin before they sleep,
    but pinning in each worker's initializer instead costs wall time: under
    default OpenBLAS threads on 2 vCPUs, a fan-out of 4 tasks of 20
    300 x 300 matrix products took 8-10 ms of this process's CPU time
    against 135-137 ms, and 1.5-1.9x the wall time (112-181 against
    66-118 ms, medians of 7, three alternated runs), because each forked
    worker then starts its own thread pool.
    """
    tasks = list(tasks)
    affinity = getattr(os, "sched_getaffinity", None)
    workers = min(len(tasks), len(affinity(0))) if affinity else 1
    if workers > 1:
        import multiprocessing

        if "fork" in multiprocessing.get_all_start_methods():
            from concurrent.futures import ProcessPoolExecutor

            with _one_blas_thread(), ProcessPoolExecutor(
                workers,
                mp_context=multiprocessing.get_context("fork"),
                initializer=_set_worker_fn,
                initargs=(fn,),
            ) as pool:
                return list(pool.map(_call_worker_fn, tasks))
    return [fn(t) for t in tasks]


def _openblas_libraries() -> list:
    """(path, library, symbol template) of every OpenBLAS mapped into this
    process, such as numpy's ``"scipy_openblas_{}64_"`` and scipy's
    ``"scipy_openblas_{}"``; empty without ``/proc/self/maps``. Scanned on
    every call (about 1 ms), since importing scipy maps a second OpenBLAS."""
    import ctypes

    try:
        with open("/proc/self/maps", encoding="utf-8") as fh:
            paths = sorted({ln.split()[-1] for ln in fh if "openblas" in ln.lower()})
    except OSError:
        return []
    found = []
    for path in paths:
        try:
            lib = ctypes.CDLL(path)
        except OSError:
            continue
        for template in ("scipy_openblas_{}64_", "scipy_openblas_{}",
                         "openblas_{}64_", "openblas_{}"):
            if hasattr(lib, template.format("get_num_threads")):
                found.append((path, lib, template))
                break
    return found


def _openblas_threads() -> list:
    """(get, set) thread-count functions of every OpenBLAS mapped into this process."""
    import ctypes

    found = []
    for _, lib, template in _openblas_libraries():
        get = getattr(lib, template.format("get_num_threads"))
        set_ = getattr(lib, template.format("set_num_threads"))
        get.argtypes, get.restype = [], ctypes.c_int
        set_.argtypes, set_.restype = [ctypes.c_int], None
        found.append((get, set_))
    return found


@contextmanager
def _one_blas_thread():
    """Hold every OpenBLAS of this process to one thread, then restore the
    saved counts."""
    saved = [(set_, get()) for get, set_ in _openblas_threads()]
    try:
        for set_, count in saved:
            if count != 1:
                set_(1)
        yield
    finally:
        for set_, count in saved:
            if count != 1:
                set_(count)


def _chain(data: ModelData, dim: int, opts: HmcOptions, chain: int):
    rng = np.random.default_rng(np.random.SeedSequence([opts.seed, chain]))
    x = _initial_point(data, rng)
    lp, grad = log_posterior_and_grad(data, x)
    grad_evals = 1
    inv_mass = np.ones(dim)
    step = 0.1  # initial step size, adapted during warmup

    # dual averaging state (reset when the metric changes)
    def fresh_da(eps: float):
        return {"mu": math.log(10 * eps), "log_eps_bar": 0.0, "h_bar": 0.0, "count": 0}

    da = fresh_da(step)
    gamma_da, t0, kappa_da = 0.05, 10.0, 0.75
    target_accept, path_length = 0.95, 3.0

    warmup = opts.warmup
    metric_at = warmup // 2
    window: list[np.ndarray] = []
    draws = np.empty((opts.samples, dim))
    divergences = 0
    accept_acc = 0.0
    leapfrog_steps = 0

    total = warmup + opts.samples
    for it in range(total):
        adapting = it < warmup
        sqrt_mass = 1.0 / np.sqrt(inv_mass)
        p0 = rng.standard_normal(dim) * sqrt_mass
        h0 = -lp + 0.5 * float((p0**2 * inv_mass).sum())

        n_steps = max(1, min(opts.max_leapfrog, int(round(path_length / step))))
        # jitter the trajectory length to break periodic orbits
        lo = max(1, int(0.75 * n_steps))
        n_steps = int(rng.integers(lo, n_steps + 1))

        x_new, p_new = x.copy(), p0.copy()
        lp_new, grad_new = lp, grad
        diverged = False
        for taken in range(1, n_steps + 1):
            p_new = p_new + 0.5 * step * grad_new
            x_new = x_new + step * inv_mass * p_new
            try:
                lp_new, grad_new = log_posterior_and_grad(data, x_new)
            except (SdrkitError, FloatingPointError):
                diverged = True
                break
            if not np.isfinite(lp_new):
                diverged = True
                break
            p_new = p_new + 0.5 * step * grad_new
        grad_evals += taken

        if diverged:
            accept_prob = 0.0
        else:
            h1 = -lp_new + 0.5 * float((p_new**2 * inv_mass).sum())
            delta_h = h0 - h1
            if not np.isfinite(delta_h) or delta_h < -1000.0:
                diverged = True
                accept_prob = 0.0
            else:
                accept_prob = min(1.0, math.exp(min(0.0, delta_h)))
                if rng.random() < accept_prob:
                    x, lp, grad = x_new, lp_new, grad_new

        if adapting:
            da["count"] += 1
            m = da["count"]
            da["h_bar"] += (target_accept - accept_prob - da["h_bar"]) / (m + t0)
            log_eps = da["mu"] - math.sqrt(m) / gamma_da * da["h_bar"]
            eta = m ** (-kappa_da)
            da["log_eps_bar"] = eta * log_eps + (1 - eta) * da["log_eps_bar"]
            step = math.exp(log_eps)
            if metric_at // 2 <= it < metric_at:
                window.append(x.copy())
            if it == metric_at - 1 and len(window) >= 10:
                var = np.var(np.asarray(window), axis=0, ddof=1)
                k = len(window)
                inv_mass = (k / (k + 5.0)) * var + (5.0 / (k + 5.0)) * 1e-3
                step = math.exp(da["log_eps_bar"])
                da = fresh_da(step)
            if it == warmup - 1:
                step = math.exp(da["log_eps_bar"])
        else:
            if diverged:
                divergences += 1
            accept_acc += accept_prob
            leapfrog_steps += taken
            draws[it - warmup] = x

    return draws, ChainStats(
        grad_evals=grad_evals,
        step_size=step,
        mean_leapfrog=leapfrog_steps / opts.samples,
        accept_rate=accept_acc / opts.samples,
        divergences=divergences,
    )


# ---------------------------------------------------------------------------
# Convergence diagnostics
# ---------------------------------------------------------------------------


def _average_ranks(a: np.ndarray) -> np.ndarray:
    """1-based ranks along the last axis of a 2-D array, ties given the mean
    of the ranks they span, as ``scipy.stats.rankdata(a, "average", axis=-1)``
    returns them: a row that holds a NaN is all NaN.

    A tie group of ``count`` values from 0-based sorted position ``first``
    gets ``first + (count + 1) / 2``, an exact integer or half, so the ranks
    equal scipy's bit for bit without loading ``scipy.stats`` (about 0.6 s
    on top of ``scipy.optimize``).
    The order within a tie group does not change its rank, so the sort need
    not be stable; numpy's default sort is about 5x faster here.
    """
    n = a.shape[-1]
    order = np.argsort(a, axis=-1)
    ordered = np.take_along_axis(a, order, axis=-1)
    starts = np.ones(a.shape, dtype=bool)  # a tie group begins here
    starts[:, 1:] = ordered[:, 1:] != ordered[:, :-1]
    first = np.flatnonzero(starts)
    count = np.diff(first, append=a.size)
    ranks = np.empty(a.shape)
    np.put_along_axis(
        ranks, order, np.repeat(first % n + (count + 1) / 2, count).reshape(a.shape), axis=-1
    )
    ranks[np.isnan(a).any(axis=-1)] = np.nan
    return ranks


def _normal_scores(m: int) -> np.ndarray:
    """The standard normal quantile of (r - 0.375) / (m + 0.25) for every
    average rank r = 1, 1.5, ..., m of m values, at index 2r - 2, and NaN at
    index 2m - 1, the entry of a row that holds a NaN."""
    from statistics import NormalDist

    p = (np.arange(2, 2 * m + 1) / 2 - 0.375) / (m + 0.25)
    return np.array(list(map(NormalDist().inv_cdf, p.tolist())) + [math.nan])


def _split_ranked(draws: np.ndarray, scores: np.ndarray) -> np.ndarray:
    """Rank-normalized split chains of (chains, samples, dim) draws, with
    ``scores`` the ``_normal_scores`` of 2 * chains * (samples // 2) values.

    Returns z shaped (dim, 2 * chains, samples // 2), C-contiguous with the
    draws of one split chain along the last axis, so every reduction below
    runs along that axis and one parameter's result does not depend on how
    many parameters are computed with it.
    """
    chains, n, dim = draws.shape
    half = n // 2
    split = np.concatenate([draws[:, :half], draws[:, half : 2 * half]], axis=0)
    flat = np.ascontiguousarray(split.transpose(2, 0, 1)).reshape(dim, -1)
    index = 2.0 * _average_ranks(flat) - 2.0
    index[np.isnan(index)] = scores.size - 1
    return scores[index.astype(np.intp)].reshape(dim, 2 * chains, half)


def _split_rhat(z: np.ndarray) -> np.ndarray:
    n = z.shape[-1]
    within = z.var(axis=-1, ddof=1).mean(axis=-1)
    between = n * z.mean(axis=-1).var(axis=-1, ddof=1)
    var_plus = (n - 1) / n * within + between / n
    with np.errstate(divide="ignore", invalid="ignore"):
        rhat = np.sqrt(var_plus / within)
    return np.where(within == 0.0, np.where(between == 0.0, 1.0, np.inf), rhat)


def _ess_bulk(z: np.ndarray) -> np.ndarray:
    dim, m, n = z.shape
    zc = z - z.mean(axis=-1, keepdims=True)
    size = 2 ** math.ceil(math.log2(2 * n))
    f = np.fft.rfft(zc, size, axis=-1)
    acov = np.fft.irfft(f * np.conj(f), size, axis=-1)[..., :n] / n
    chain_var = acov[..., 0] * n / (n - 1)
    within = chain_var.mean(axis=-1)
    var_plus = within * (n - 1) / n + z.mean(axis=-1).var(axis=-1, ddof=1)
    with np.errstate(divide="ignore", invalid="ignore"):
        rho = 1.0 - (within[:, None] - acov.mean(axis=1)) / var_plus[:, None]
    # Geyer initial monotone positive sequence over the lag pairs (1, 2),
    # (3, 4), ...: sum the running minimum of the pairs up to the first
    # negative pair
    k = (n - 1) // 2
    pairs = rho[:, 1 : 2 * k : 2] + rho[:, 2 : 2 * k + 1 : 2]
    kept = ~np.logical_or.accumulate(pairs < 0, axis=-1)
    monotone = np.minimum.accumulate(pairs, axis=-1)
    tau = 1.0 + 2.0 * np.where(kept, monotone, 0.0).sum(axis=-1)
    constant = z.reshape(dim, -1).std(axis=-1) == 0.0
    return np.where(constant, float(m * n), m * n / tau)


#: Parameters per diagnostics batch. The ranking and FFT temporaries grow with
#: the batch: all 1020 parameters of 4 x 500 draws at once held 140 MB more,
#: batches of 64 hold 11 MB and run as fast.
_DIAG_BATCH = 64


def diagnostics(post: Posterior) -> dict[str, np.ndarray]:
    """Per-parameter split R-hat and bulk ESS, computed in batches of
    parameters that read their normal scores from one table."""
    chains, n, dim = post.draws.shape
    if chains < 2:
        raise DiagnosticsError("R-hat needs at least 2 chains")
    if n < 4:
        raise DiagnosticsError(f"R-hat and ESS need at least 4 draws per chain, got {n}")
    scores = _normal_scores(2 * chains * (n // 2))
    rhat = np.empty(dim)
    ess = np.empty(dim)
    for lo in range(0, dim, _DIAG_BATCH):
        batch = slice(lo, lo + _DIAG_BATCH)
        z = _split_ranked(post.draws[:, :, batch], scores)
        rhat[batch] = _split_rhat(z)
        ess[batch] = _ess_bulk(z)
    return {"rhat": rhat, "ess": ess}


# ---------------------------------------------------------------------------
# Fit artifact
# ---------------------------------------------------------------------------


def theta_table(units: Sequence[UnitKey], theta_hat: np.ndarray) -> list[dict]:
    rows = []
    for (resp, persona, cond), row in zip(units, theta_hat):
        rows.append(
            {
                "respondent_id": resp,
                "persona_id": persona,
                "condition": cond,
                **{t: float(v) for t, v in zip(TRAIT_LABELS, row)},
            }
        )
    return rows


def write_fit_artifact(
    path: str | Path, data: ModelData, params: ParamVector, backend: str, diag: dict
) -> None:
    """Write one format's fit: its trait estimates, item parameters and ``diag``."""
    design = data.design
    payload = {
        "model": design.model,
        "backend": backend,
        "theta": theta_table(data.units, params.theta),
        "item_params": {
            "a_plus": {iid: float(a) for iid, a in zip(design.item_ids, params.a_plus)},
            "thresholds": {
                key: [float(v) for v in row] for key, row in zip(design.columns, params.kappa)
            },
        },
        "diagnostics": diag,
    }
    Path(path).write_text(json.dumps(payload, indent=2), encoding="utf-8")


def _checked_fit_artifact(raw: dict) -> dict:
    fit_theta_frame(raw)  # a theta row missing a field, or one of the wrong type, raises here
    return raw


def load_fit_artifact(path: str | Path) -> dict:
    return read_json(path, _checked_fit_artifact, "fit artifact")


def fit_theta_frame(fit_artifact: dict) -> dict[tuple[str, str, str], np.ndarray]:
    """Index a fit artifact's theta table by (respondent, persona, condition)."""
    out = {}
    for i, row in enumerate(read_list(fit_artifact["theta"], "theta")):
        at = f"theta[{i}]."
        key = (read_text(row["respondent_id"], at + "respondent_id"),
               read_text(row["persona_id"], at + "persona_id"),
               read_member(row["condition"], at + "condition", InstructionCondition).value)
        out[key] = np.array([read_number(row[t], at + t) for t in TRAIT_LABELS], dtype=float)
    return out
