"""Posterior correctness, MAP/HMC behavior, and convergence diagnostics."""

import math

import numpy as np
import pytest
from scipy import special, stats

from sdrkit.core import (
    InstructionCondition,
    ResponseFormat,
    ResponseSet,
    SdrkitError,
)
from sdrkit.irt import (
    DiagnosticsError,
    HmcOptions,
    MapOptions,
    ModelData,
    Posterior,
    build_model_data,
    diagnostics,
    ess_bulk,
    fit_hmc,
    fit_map,
    fit_theta_frame,
    gfc_design,
    grad_log_posterior,
    likert_design,
    load_fit_artifact,
    log_posterior,
    log_posterior_and_grad,
    param_dim,
    split_rhat,
    unpack,
    write_fit_artifact,
)
from sdrkit.personas import sample_personas
from sdrkit.simulate import SimSpec, default_sim_params, simulate_response_set


def make_data(small_pool_inventory, fmt, n_personas=6, seed=0, conditions=None):
    pool, inv = small_pool_inventory
    conditions = conditions or [InstructionCondition.HONEST]
    personas = sample_personas(n_personas, seed=seed)
    params = default_sim_params(inv, pool, seed=seed + 1)
    spec = SimSpec(fake_good_delta=1.0, seed=seed + 2)
    sets = [
        simulate_response_set(p, inv, params, fmt, cond, spec)
        for p in personas
        for cond in conditions
    ]
    return build_model_data(sets, inv, pool, fmt)


# ---------------------------------------------------------------------------
# Model data assembly
# ---------------------------------------------------------------------------


def test_build_model_data_shapes(small_pool_inventory):
    likert = make_data(small_pool_inventory, ResponseFormat.LIKERT, n_personas=4)
    assert likert.y.shape == (4, 10)
    gfc = make_data(small_pool_inventory, ResponseFormat.GFC, n_personas=4)
    assert gfc.y.shape == (4, 5)
    assert gfc.design.model == "gfc"
    assert likert.design.model == "grm"
    assert param_dim(likert) == 5 * 4 + 10 + 6 * 10
    assert param_dim(gfc) == 5 * 4 + 10 + 6 * 5


def test_build_model_data_canonicalizes_flipped_sides(small_pool_inventory):
    pool, inv = small_pool_inventory
    bids = [f"{b.left}~{b.right}" for b in inv.blocks]
    answers = {bid: 2 for bid in bids}
    base = dict(
        respondent_id="m", persona_id="p", format=ResponseFormat.GFC,
        condition=InstructionCondition.HONEST, answers=answers,
        presentation_order=tuple(bids),
    )
    plain = ResponseSet(**base, side_assignment={bid: False for bid in bids})
    flipped = ResponseSet(**{**base, "persona_id": "q"},
                          side_assignment={bid: True for bid in bids})
    data = build_model_data([plain, flipped], inv, pool, ResponseFormat.GFC)
    by_unit = {u[1]: row for u, row in zip(data.units, data.y)}
    assert list(by_unit["p"]) == [2] * 5
    assert list(by_unit["q"]) == [6] * 5  # 8 - 2 after canonicalization


def test_build_model_data_requires_format(small_pool_inventory):
    pool, inv = small_pool_inventory
    with pytest.raises(SdrkitError):
        build_model_data([], inv, pool, ResponseFormat.LIKERT)


# ---------------------------------------------------------------------------
# Log posterior and gradient
# ---------------------------------------------------------------------------


def test_single_response_closed_form(small_pool_inventory):
    """One Likert answer y=2 with eta=0: likelihood sigma(-k1) - sigma(-k2)."""
    pool, inv = small_pool_inventory
    iids = inv.statements
    rs = ResponseSet(
        respondent_id="m", persona_id="p", format=ResponseFormat.LIKERT,
        condition=InstructionCondition.HONEST,
        answers={iid: 2 for iid in iids}, presentation_order=iids,
    )
    data = build_model_data([rs], inv, pool, ResponseFormat.LIKERT)
    x = np.zeros(param_dim(data))
    # theta = 0, alpha = 0 -> a+ = 1, c1 = 0, gamma = 0 -> kappa = (0,1,2,3,4,5)
    pv = unpack(data, x)
    assert np.allclose(pv.kappa[0], np.arange(6.0))
    lp = log_posterior(data, x)
    sig = lambda v: 1.0 / (1.0 + math.exp(-v))
    per_item = math.log(sig(0.0 - 0.0) - sig(0.0 - 1.0))
    n_items = len(iids)
    prior_a = n_items * (-1.0 / (2 * 0.5**2))  # a+ = 1 under half-normal(0.5), + log-Jacobian 0
    prior_kappa = -n_items * float((np.arange(6.0) ** 2).sum()) / (2 * 1.5**2)
    assert lp == pytest.approx(n_items * per_item + prior_a + prior_kappa, rel=1e-12)


@pytest.mark.parametrize("fmt", [ResponseFormat.LIKERT, ResponseFormat.GFC])
def test_gradient_matches_finite_differences(small_pool_inventory, fmt):
    data = make_data(small_pool_inventory, fmt, n_personas=3, seed=20)
    rng = np.random.default_rng(21)
    dim = param_dim(data)
    h = 1e-6
    for _ in range(5):
        x = 0.5 * rng.standard_normal(dim)
        lp, grad = log_posterior_and_grad(data, x)
        idx = rng.choice(dim, size=12, replace=False)
        for i in idx:
            xp, xm = x.copy(), x.copy()
            xp[i] += h
            xm[i] -= h
            num = (log_posterior(data, xp) - log_posterior(data, xm)) / (2 * h)
            assert grad[i] == pytest.approx(num, rel=2e-5, abs=2e-5)


def test_posterior_invariant_to_unit_order(small_pool_inventory):
    data = make_data(small_pool_inventory, ResponseFormat.LIKERT, n_personas=4, seed=22)
    perm = np.array([2, 0, 3, 1])
    shuffled = ModelData(
        design=data.design, y=data.y[perm], units=tuple(data.units[i] for i in perm)
    )
    rng = np.random.default_rng(23)
    x = 0.3 * rng.standard_normal(param_dim(data))
    n = data.n_units
    theta = x[: 5 * n].reshape(n, 5)
    x_perm = np.concatenate([theta[perm].ravel(), x[5 * n :]])
    assert log_posterior(shuffled, x_perm) == pytest.approx(
        log_posterior(data, x), rel=1e-12
    )


def test_model_data_keeps_a_read_only_copy_of_y(small_pool_inventory):
    data = make_data(small_pool_inventory, ResponseFormat.LIKERT, n_personas=4, seed=22)
    with pytest.raises(ValueError):
        data.y[0, 0] = 7
    source = np.array(data.y)
    copy = ModelData(design=data.design, y=source, units=data.units)
    source[:, 0] = np.where(source[:, 0] == 1, 7, 1)  # the caller's array, not the data's
    x = 0.3 * np.random.default_rng(23).standard_normal(param_dim(data))
    assert log_posterior(copy, x) == log_posterior(data, x)


def test_shuffled_units_give_the_permuted_gradient(small_pool_inventory):
    data = make_data(small_pool_inventory, ResponseFormat.GFC, n_personas=4, seed=22)
    perm = np.array([2, 0, 3, 1])
    shuffled = ModelData(
        design=data.design, y=data.y[perm], units=tuple(data.units[i] for i in perm)
    )
    x = 0.3 * np.random.default_rng(23).standard_normal(param_dim(data))
    n = data.n_units
    x_perm = np.concatenate([x[: 5 * n].reshape(n, 5)[perm].ravel(), x[5 * n :]])
    lp, grad = log_posterior_and_grad(data, x)
    lp_perm, grad_perm = log_posterior_and_grad(shuffled, x_perm)
    assert lp_perm == pytest.approx(lp, rel=1e-12)
    assert np.allclose(grad_perm[: 5 * n].reshape(n, 5), grad[: 5 * n].reshape(n, 5)[perm],
                       rtol=1e-12, atol=1e-12)
    assert np.allclose(grad_perm[5 * n :], grad[5 * n :], rtol=1e-12, atol=1e-12)


@pytest.mark.parametrize("fmt", [ResponseFormat.LIKERT, ResponseFormat.GFC])
def test_gradient_matches_finite_differences_on_open_and_interior_columns(
    small_pool_inventory, fmt
):
    """Column 0 holds only category 1, column 1 only category 7, column 2
    every category; the rest are random. Every coordinate is checked."""
    pool, inv = small_pool_inventory
    design = likert_design(inv, pool) if fmt is ResponseFormat.LIKERT else gfc_design(inv, pool)
    n = 7
    rng = np.random.default_rng(50)
    y = rng.integers(1, 8, size=(n, design.n_threshold_groups))
    y[:, 0] = 1
    y[:, 1] = 7
    y[:, 2] = np.arange(1, 8)
    data = ModelData(design=design, y=y, units=tuple(("m", f"p{i}", "honest") for i in range(n)))
    h = 1e-6
    for _ in range(3):
        x = 0.5 * rng.standard_normal(param_dim(data))
        _, grad = log_posterior_and_grad(data, x)
        for i in range(len(x)):
            xp, xm = x.copy(), x.copy()
            xp[i] += h
            xm[i] -= h
            num = (log_posterior(data, xp) - log_posterior(data, xm)) / (2 * h)
            assert grad[i] == pytest.approx(num, rel=2e-5, abs=2e-5)


def test_keying_flip_with_theta_negation_is_invariant(small_pool_inventory):
    """Flipping every keying and negating the matching theta column leaves the
    likelihood unchanged: the model is identified only jointly."""
    pool, inv = small_pool_inventory
    data = make_data(small_pool_inventory, ResponseFormat.LIKERT, n_personas=3, seed=24)
    design = data.design
    flipped_design = type(design)(
        model=design.model, item_ids=design.item_ids, trait_idx=design.trait_idx,
        keying=-design.keying,
    )
    flipped = ModelData(design=flipped_design, y=data.y, units=data.units)
    rng = np.random.default_rng(25)
    x = 0.3 * rng.standard_normal(param_dim(data))
    n = data.n_units
    x2 = x.copy()
    x2[: 5 * n] = -x[: 5 * n]  # negate all theta
    assert log_posterior(flipped, x2) == pytest.approx(log_posterior(data, x), rel=1e-12)


def test_zero_probability_point_reports_neg_inf(small_pool_inventory):
    data = make_data(small_pool_inventory, ResponseFormat.LIKERT, n_personas=2, seed=26)
    x = np.zeros(param_dim(data))
    n, j = data.n_units, data.design.n_items
    x[5 * n + j + j :] = -800.0  # log-gaps underflow: thresholds coincide
    lp, grad = log_posterior_and_grad(data, x)
    assert lp == -np.inf
    assert np.all(grad == 0.0)


def test_non_finite_input_rejected(small_pool_inventory):
    data = make_data(small_pool_inventory, ResponseFormat.LIKERT, n_personas=2, seed=27)
    x = np.zeros(param_dim(data))
    x[0] = np.nan
    with pytest.raises(SdrkitError):
        log_posterior(data, x)


# ---------------------------------------------------------------------------
# MAP
# ---------------------------------------------------------------------------


def test_map_reaches_stationary_point(small_pool_inventory):
    data = make_data(small_pool_inventory, ResponseFormat.LIKERT, n_personas=6, seed=28)
    fit = fit_map(data, MapOptions(n_starts=2, seed=0))
    assert fit.converged
    assert fit.grad_inf_norm < 1e-3
    assert fit.theta_hat.shape == (6, 5)
    assert np.all(fit.params.a_plus <= MapOptions().strength_cap + 1e-9)
    # rerun is deterministic
    fit2 = fit_map(data, MapOptions(n_starts=2, seed=0))
    assert fit2.log_posterior == fit.log_posterior
    assert np.array_equal(fit2.params.x, fit.params.x)


def test_map_midpoint_responses_give_near_zero_theta(small_pool_inventory):
    pool, inv = small_pool_inventory
    iids = inv.statements
    sets = [
        ResponseSet(
            respondent_id="m", persona_id=f"p{k}", format=ResponseFormat.LIKERT,
            condition=InstructionCondition.HONEST,
            answers={iid: 4 for iid in iids}, presentation_order=iids,
        )
        for k in range(3)
    ]
    data = build_model_data(sets, inv, pool, ResponseFormat.LIKERT)
    fit = fit_map(data, MapOptions(n_starts=1, seed=0))
    assert np.max(np.abs(fit.theta_hat)) < 0.25


def test_map_rejects_empty_data(small_pool_inventory):
    pool, inv = small_pool_inventory
    design = likert_design(inv, pool)
    data = ModelData(design=design, y=np.empty((0, 10), dtype=int), units=())
    with pytest.raises(SdrkitError):
        fit_map(data)


# ---------------------------------------------------------------------------
# Diagnostics oracles
# ---------------------------------------------------------------------------


def test_split_rhat_identical_chains_is_one():
    rng = np.random.default_rng(30)
    chain = rng.standard_normal(400)
    x = np.tile(chain, (4, 1))
    # identical chains still split; stationary iid noise gives rhat ~ 1
    assert split_rhat(x) < 1.01


def test_split_rhat_flags_offset_chain():
    rng = np.random.default_rng(31)
    x = rng.standard_normal((4, 400))
    x[0] += 5.0
    assert split_rhat(x) > 1.5


def test_split_rhat_flags_within_chain_trend():
    rng = np.random.default_rng(32)
    x = rng.standard_normal((4, 400)) + np.linspace(0, 4, 400)
    assert split_rhat(x) > 1.2  # split halves disagree


def test_split_rhat_constant_draws():
    x = np.full((4, 100), 2.5)
    assert split_rhat(x) == 1.0


def test_split_rhat_needs_two_chains():
    with pytest.raises(DiagnosticsError):
        split_rhat(np.zeros((1, 100)))


def test_ess_iid_draws_near_nominal():
    rng = np.random.default_rng(33)
    x = rng.standard_normal((4, 500))
    ess = ess_bulk(x)
    assert 1200 < ess < 3000  # nominal 2000 for iid draws


def test_ess_correlated_draws_much_smaller():
    rng = np.random.default_rng(34)
    x = np.empty((4, 500))
    for c in range(4):
        e = rng.standard_normal(500)
        for t in range(500):
            x[c, t] = 0.95 * x[c, t - 1] + e[t] if t else e[t]
    assert ess_bulk(x) < 300


def test_ess_constant_draws():
    x = np.full((4, 100), 1.0)
    assert ess_bulk(x) == 400.0


def _reference_rhat_ess(x):
    """Rank-normalized split R-hat and bulk ESS of one (chains, samples)
    parameter, written out as a loop over chains and lag pairs."""
    half = x.shape[1] // 2
    z = np.concatenate([x[:, :half], x[:, half : 2 * half]], axis=0)
    ranks = stats.rankdata(z.ravel(), method="average")
    z = special.ndtri((ranks - 0.375) / (z.size + 0.25)).reshape(z.shape)
    m, n = z.shape
    within = z.var(axis=1, ddof=1).mean()
    between = n * z.mean(axis=1).var(ddof=1)
    if within == 0.0:
        rhat = 1.0 if between == 0.0 else math.inf
    else:
        rhat = math.sqrt(((n - 1) / n * within + between / n) / within)
    if z.std() == 0.0:
        return rhat, float(m * n)
    size = 2 ** math.ceil(math.log2(2 * n))
    acov = np.empty((m, n))
    for c in range(m):
        f = np.fft.rfft(z[c] - z[c].mean(), size)
        acov[c] = np.fft.irfft(f * np.conj(f), size)[:n] / n
    within_acov = (acov[:, 0] * n / (n - 1)).mean()
    var_plus = within_acov * (n - 1) / n + z.mean(axis=1).var(ddof=1)
    rho = 1.0 - (within_acov - acov.mean(axis=0)) / var_plus
    tau, prev, t = 1.0, math.inf, 1
    while t + 1 < n:
        pair = rho[t] + rho[t + 1]
        if pair < 0:
            break
        prev = min(pair, prev)
        tau += 2.0 * prev
        t += 2
    return rhat, m * n / tau


@pytest.mark.parametrize("shape", [(4, 20, 150), (4, 301, 12), (2, 9, 6)])
def test_diagnostics_match_per_parameter_formulas(shape):
    rng = np.random.default_rng(35)
    draws = rng.standard_normal(shape)
    draws[:, :, 0] = 2.5  # constant
    draws[0, :, 1] += 5.0  # offset chain
    draws[:, :, 2] += np.linspace(0.0, 4.0, shape[1])  # within-chain trend
    draws[:, :, 3] = np.round(draws[:, :, 3])  # ties
    for t in range(1, shape[1]):
        draws[:, t, 4] += 0.95 * draws[:, t - 1, 4]  # autocorrelated
    post = Posterior(draws=draws, units=(), n_units=0, divergences=0, accept_rate=1.0)
    diag = diagnostics(post)
    for d in range(shape[2]):
        rhat, ess = _reference_rhat_ess(draws[:, :, d])
        assert diag["rhat"][d] == rhat
        assert diag["ess"][d] == pytest.approx(ess, rel=1e-12)
        assert split_rhat(draws[:, :, d]) == rhat
        assert ess_bulk(draws[:, :, d]) == pytest.approx(ess, rel=1e-12)


# ---------------------------------------------------------------------------
# HMC smoke (small data; full-scale behavior is covered by the acceptance suite)
# ---------------------------------------------------------------------------


@pytest.fixture(scope="module")
def hmc_posterior(small_pool_inventory):
    data = make_data(small_pool_inventory, ResponseFormat.LIKERT, n_personas=3, seed=40)
    opts = HmcOptions(chains=2, warmup=100, samples=100, seed=1)
    return data, opts, fit_hmc(data, opts)


def test_hmc_deterministic_under_seed(hmc_posterior):
    data, opts, post = hmc_posterior
    again = fit_hmc(data, opts)
    assert np.array_equal(post.draws, again.draws)


def test_hmc_posterior_shape_and_rates(hmc_posterior):
    data, opts, post = hmc_posterior
    assert post.draws.shape == (2, 100, param_dim(data))
    assert post.theta_hat.shape == (3, 5)
    assert 0.0 <= post.divergence_rate <= 0.10
    assert post.accept_rate > 0.6


def test_hmc_diagnostics_vector_lengths(hmc_posterior):
    data, opts, post = hmc_posterior
    diag = diagnostics(post)
    assert diag["rhat"].shape == (param_dim(data),)
    assert diag["ess"].shape == (param_dim(data),)
    assert np.all(np.isfinite(diag["rhat"]))
    assert np.all(diag["ess"] > 0)


def test_hmc_agrees_with_map_direction(hmc_posterior, small_pool_inventory):
    data, opts, post = hmc_posterior
    fit = fit_map(data, MapOptions(n_starts=2, seed=0))
    a = post.theta_hat.ravel()
    b = fit.theta_hat.ravel()
    assert np.corrcoef(a, b)[0, 1] > 0.8


# ---------------------------------------------------------------------------
# Fit artifacts
# ---------------------------------------------------------------------------


def test_fit_artifact_round_trip(tmp_path, small_pool_inventory):
    data = make_data(
        small_pool_inventory, ResponseFormat.LIKERT, n_personas=2,
        conditions=[InstructionCondition.HONEST, InstructionCondition.FAKE_GOOD],
        seed=41,
    )
    fit = fit_map(data, MapOptions(n_starts=1, seed=0))
    path = tmp_path / "fit.json"
    write_fit_artifact(path, data, fit.theta_hat, backend="map",
                       diag={"log_posterior": fit.log_posterior})
    art = load_fit_artifact(path)
    assert art["backend"] == "map"
    frame = fit_theta_frame(art)
    assert set(k[2] for k in frame) == {"honest", "fake_good"}
    for (resp, pid, cond), vec in frame.items():
        i = data.units.index((resp, pid, cond))
        assert np.allclose(vec, fit.theta_hat[i])
