"""Acceptance gate: one test per acceptance criterion, each printing a single
PASS/FAIL line (run with ``pytest -v -rA`` to see every line)."""

import time

import numpy as np
import pytest

from sdrkit.administer import (
    make_session_plans,
    render_gfc_prompt,
    render_likert_prompt,
    render_rating_prompt,
    run_session,
)
from sdrkit.assemble import (
    InfeasibleError,
    brute_force_assemble,
    enumerate_candidates,
    solve_stage1,
    solve_stage2,
)
from sdrkit.core import (
    AssemblyConfig,
    InstructionCondition,
    ResponseFormat,
    validate_inventory,
)
from sdrkit.irt import (
    HmcOptions,
    MapOptions,
    build_model_data,
    diagnostics,
    fit_hmc,
    fit_map,
    grad_log_posterior,
    log_posterior,
    param_dim,
)
from sdrkit.metrics import (
    UndefinedStatisticError,
    cohens_dz,
    directed_dz,
    faking_zone,
    recovery_zone,
    ShiftTable,
)
from sdrkit.ordinal import category_probs, survivor, survivor_from_cutpoints
from sdrkit.personas import sample_personas
from sdrkit.ratings import icc_absolute_agreement
from sdrkit.simulate import (
    SimSpec,
    SimulatorProvider,
    default_sim_params,
    naive_gfc_count_scores,
    simulate_response_set,
)

from conftest import small_instrument
from test_administer import DESC, GOLDEN, ScriptedProvider, make_persona
from test_simulate import mirrored
from test_assemble import random_instance


def _line(num: int, desc: str, ok: bool, detail: str = "") -> None:
    status = "PASS" if ok else "FAIL"
    suffix = f" ({detail})" if detail else ""
    print(f"[acceptance] criterion {num:02d} {status} - {desc}{suffix}")


def _simulate_format(personas, inventory, pool, params, spec, fmt, conditions):
    return [
        simulate_response_set(p, inventory, params, fmt, cond, spec)
        for p in personas
        for cond in conditions
    ]


# ---------------------------------------------------------------------------


def test_criterion_01_inventory_validation(marker_pool, marker_inventory):
    start = time.perf_counter()
    report = validate_inventory(
        marker_inventory, marker_pool, AssemblyConfig.standard(30), gap_tol=0.015
    )
    elapsed = time.perf_counter() - start
    ok = (
        report.ok
        and abs(report.max_gap - 0.18) <= 0.005
        and abs(report.mean_gap - 0.03) <= 0.005
        and all(v == 12 for v in report.trait_counts.values())
        and all(v == 3 for v in report.trait_pair_counts.values())
        and elapsed < 1.0
    )
    detail = (
        f"max_gap={report.max_gap:.3f} mean_gap={report.mean_gap:.4f} "
        f"failed={report.failed()} {elapsed:.2f}s"
    )
    _line(1, "inventory validation", ok, detail)
    assert ok, detail


def test_criterion_02_optimizer_matches_oracle():
    rng = np.random.default_rng(1234)
    start = time.perf_counter()
    compared = mismatches = 0
    while compared < 200:
        pool, cfg = random_instance(rng)
        cands = enumerate_candidates(pool)
        if len(cands) > 40:
            continue
        try:
            oracle = brute_force_assemble(pool, cfg)
        except InfeasibleError:
            try:
                m_star, _ = solve_stage1(cands, cfg)
                solve_stage2(cands, cfg, m_star)
                mismatches += 1  # solver claimed feasible where oracle did not
            except InfeasibleError:
                pass
            compared += 1
            continue
        try:
            m_star, _ = solve_stage1(cands, cfg)
            sol = solve_stage2(cands, cfg, m_star)
        except InfeasibleError:
            mismatches += 1
            compared += 1
            continue
        if sol.m_star != oracle.m_star or abs(sol.sse - oracle.sse) > 1e-9:
            mismatches += 1
        compared += 1
    elapsed = time.perf_counter() - start
    ok = mismatches == 0 and elapsed < 120
    detail = f"{compared} instances, {mismatches} mismatches, {elapsed:.1f}s"
    _line(2, "optimizer-oracle equivalence", ok, detail)
    assert ok, detail


def test_criterion_03_gradient_correctness():
    pool, inv = small_instrument()
    personas = sample_personas(3, seed=50)
    params = default_sim_params(inv, pool, seed=51)
    spec = SimSpec(1.0, 52)
    rng = np.random.default_rng(53)
    start = time.perf_counter()
    worst = 0.0
    h = 1e-5
    for fmt in (ResponseFormat.LIKERT, ResponseFormat.GFC):
        sets = _simulate_format(
            personas, inv, pool, params, spec, fmt, [InstructionCondition.HONEST]
        )
        data = build_model_data(sets, inv, pool, fmt)
        dim = param_dim(data)
        for _ in range(25):  # 25 per model = 50 points total
            x = 0.5 * rng.standard_normal(dim)
            grad = grad_log_posterior(data, x)
            for i in range(dim):
                xp, xm = x.copy(), x.copy()
                xp[i] += h
                xm[i] -= h
                num = (log_posterior(data, xp) - log_posterior(data, xm)) / (2 * h)
                rel = abs(grad[i] - num) / max(1.0, abs(num))
                worst = max(worst, rel)
    elapsed = time.perf_counter() - start
    ok = worst < 1e-5 and elapsed < 30
    detail = f"max rel err {worst:.2e}, {elapsed:.1f}s"
    _line(3, "gradient correctness", ok, detail)
    assert ok, detail


def test_criterion_04_kernel_identities():
    rng = np.random.default_rng(60)
    n = 100_000
    eta = rng.normal(0, 3, n)
    kappa = np.sort(rng.uniform(-3, 3, (n, 6)), axis=1) + np.arange(6) * 1e-6
    probs = category_probs(eta, kappa)
    sum_err = float(np.max(np.abs(probs.sum(axis=1) - 1.0)))
    surv_err = float(
        np.max(np.abs(survivor(eta, kappa[:, 0]) - survivor_from_cutpoints(eta, kappa[:, 0])))
    )
    # left/right antisymmetry: flipping the displayed pair maps answers to 8 - a
    pool, inv = small_instrument()
    personas = sample_personas(5, seed=61)
    provider = SimulatorProvider(default_sim_params(inv, pool, seed=62), SimSpec(1.0, 63))
    plans = make_session_plans(
        list(personas), inv, pool, [ResponseFormat.GFC], [InstructionCondition.HONEST],
        seed=64, respondent_id="sim",
    )
    flips_exact = True
    for plan in plans:
        for unit in plan.units:
            a = int(provider.complete(plan, unit).text)
            f = int(provider.complete(plan, mirrored(unit)).text)
            flips_exact &= f == 8 - a
    ok = sum_err < 1e-12 and surv_err < 1e-12 and flips_exact
    detail = f"sum err {sum_err:.1e}, survivor err {surv_err:.1e}, flip exact {flips_exact}"
    _line(4, "distribution kernel identities", ok, detail)
    assert ok, detail


def test_criterion_05_parameter_recovery(marker_pool, marker_inventory):
    start = time.perf_counter()
    corr = {fmt: np.zeros(5) for fmt in ResponseFormat}
    n_seeds = 5
    for s in range(n_seeds):
        personas = sample_personas(400, seed=100 + s)
        z = personas.z_matrix()
        params = default_sim_params(marker_inventory, marker_pool, seed=200 + s)
        spec = SimSpec(1.0, 300 + s)
        for fmt in ResponseFormat:
            sets = _simulate_format(
                personas, marker_inventory, marker_pool, params, spec, fmt,
                [InstructionCondition.HONEST],
            )
            data = build_model_data(sets, marker_inventory, marker_pool, fmt)
            fit = fit_map(data, MapOptions(n_starts=1, seed=s))
            order = {u[1]: i for i, u in enumerate(data.units)}
            theta = np.array([fit.theta_hat[order[p.id]] for p in personas])
            for t in range(5):
                corr[fmt][t] += np.corrcoef(theta[:, t], z[:, t])[0, 1] / n_seeds
    elapsed = time.perf_counter() - start
    lik, gfc = corr[ResponseFormat.LIKERT], corr[ResponseFormat.GFC]
    ok = bool(np.all(lik >= 0.8) and np.all(gfc >= 0.6) and elapsed < 600)
    detail = (
        f"likert {np.round(lik, 3).tolist()}, gfc {np.round(gfc, 3).tolist()}, "
        f"{elapsed:.0f}s"
    )
    _line(5, "parameter recovery at desk scale", ok, detail)
    assert ok, detail


def test_criterion_06_sdr_pipeline_contrast(marker_pool, marker_inventory):
    start = time.perf_counter()
    conditions = [InstructionCondition.HONEST, InstructionCondition.FAKE_GOOD]
    likert_all_positive = True
    gfc_smaller = 0
    n_seeds = 10
    for s in range(n_seeds):
        personas = sample_personas(50, seed=1000 + s)
        params = default_sim_params(
            marker_inventory, marker_pool, seed=2000 + s, matched_discrimination=True
        )
        spec = SimSpec(1.0, 3000 + s)
        agg = {}
        for fmt in ResponseFormat:
            sets = _simulate_format(
                personas, marker_inventory, marker_pool, params, spec, fmt, conditions
            )
            data = build_model_data(sets, marker_inventory, marker_pool, fmt)
            fit = fit_map(data, MapOptions(n_starts=1, seed=s))
            frame = {u: th for u, th in zip(data.units, fit.theta_hat)}
            honest = {k[1]: v for k, v in frame.items() if k[2] == "honest"}
            fake = {k[1]: v for k, v in frame.items() if k[2] == "fake_good"}
            ids = tuple(sorted(honest))
            table = ShiftTable(
                persona_ids=ids,
                honest=np.array([honest[p] for p in ids]),
                fake=np.array([fake[p] for p in ids]),
            )
            tilde = directed_dz(table)
            if fmt is ResponseFormat.LIKERT and not np.all(tilde > 0):
                likert_all_positive = False
            agg[fmt] = abs(float(tilde.mean()))
        if agg[ResponseFormat.GFC] < agg[ResponseFormat.LIKERT]:
            gfc_smaller += 1
    elapsed = time.perf_counter() - start
    ok = likert_all_positive and gfc_smaller >= 9
    detail = (
        f"likert d-tilde all positive: {likert_all_positive}, "
        f"gfc aggregate smaller in {gfc_smaller}/{n_seeds} seeds, {elapsed:.0f}s"
    )
    _line(6, "end-to-end SDR contrast", ok, detail)
    assert ok, detail


def test_criterion_07_hmc_diagnostics_gate(marker_pool, marker_inventory):
    start = time.perf_counter()
    personas = sample_personas(60, seed=42)
    params = default_sim_params(marker_inventory, marker_pool, seed=43)
    spec = SimSpec(1.0, 44)
    sets = _simulate_format(
        personas, marker_inventory, marker_pool, params, spec, ResponseFormat.LIKERT,
        [InstructionCondition.HONEST, InstructionCondition.FAKE_GOOD],
    )
    data = build_model_data(sets, marker_inventory, marker_pool, ResponseFormat.LIKERT)
    post = fit_hmc(data, HmcOptions(seed=7))
    diag = diagnostics(post)
    share = float(np.mean(diag["rhat"] < 1.01))
    map_fit = fit_map(data, MapOptions(n_starts=1, seed=0))
    corr = float(
        np.corrcoef(post.theta_hat.ravel(), map_fit.theta_hat.ravel())[0, 1]
    )
    elapsed = time.perf_counter() - start
    ok = share >= 0.99 and corr > 0.95 and elapsed < 1800
    detail = (
        f"rhat<1.01 share {share:.4f} (max {diag['rhat'].max():.4f}), "
        f"MAP-HMC corr {corr:.4f}, {elapsed:.0f}s"
    )
    _line(7, "HMC diagnostics gate", ok, detail)
    assert ok, detail


def test_criterion_08_metric_unit_truths():
    rng = np.random.default_rng(70)
    honest = rng.standard_normal((20, 5))
    fake = honest + np.array([1.0, 1.0, 1.0, 1.0, 1.0]) + 0.1 * rng.standard_normal((20, 5))
    table = ShiftTable(tuple(f"p{i}" for i in range(20)), honest, fake)
    raw = np.array([cohens_dz(table.deltas[:, t]) for t in range(5)])
    tilde = directed_dz(table)
    n_flip = np.allclose(tilde[[0, 1, 2, 4]], raw[[0, 1, 2, 4]]) and tilde[3] == -raw[3]
    zones = (
        faking_zone(0.2) == "recommended"
        and faking_zone(0.21) == "caution"
        and faking_zone(0.5) == "caution"
        and faking_zone(0.51) == "avoid"
        and recovery_zone(0.70) == "strong"
        and recovery_zone(0.69) == "acceptable"
        and recovery_zone(0.50) == "acceptable"
        and recovery_zone(0.49) == "insufficient"
    )
    try:
        cohens_dz(np.zeros(10))
        signaled = False
    except UndefinedStatisticError:
        signaled = True
    ok = n_flip and zones and signaled
    detail = f"N flip {n_flip}, zone boundaries {zones}, zero-variance signaled {signaled}"
    _line(8, "metric unit truths", ok, detail)
    assert ok, detail


def test_criterion_09_agreement_statistics():
    rng = np.random.default_rng(14)
    item = rng.normal(0.0, 2.0, size=(100, 1))  # item sd 2, residual sd 1: 4:1
    x = item + rng.normal(0.0, 1.0, size=(100, 30))
    a1, _ = icc_absolute_agreement(x)
    identical = np.tile(rng.normal(0, 2, (50, 1)), (1, 30))
    a1_id, ak_id = icc_absolute_agreement(identical)
    ok = abs(a1 - 0.8) <= 0.05 and a1_id == pytest.approx(1.0, abs=1e-12)
    detail = f"ICC(A,1)={a1:.4f} (target 0.8 +/- 0.05), identical reps -> {a1_id:.12f}"
    _line(9, "agreement statistics", ok, detail)
    assert ok, detail


def test_criterion_10_ipsativity_demonstration(marker_pool, marker_inventory):
    personas = sample_personas(30, seed=80)
    params = default_sim_params(marker_inventory, marker_pool, seed=81)
    spec = SimSpec(1.0, 82)
    sets = _simulate_format(
        personas, marker_inventory, marker_pool, params, spec, ResponseFormat.GFC,
        [InstructionCondition.HONEST],
    )
    counts = naive_gfc_count_scores(sets, marker_inventory, marker_pool)
    sums = np.array([v.sum() for v in counts.values()])
    constant = bool(np.all(sums == marker_inventory.block_count))
    data = build_model_data(sets, marker_inventory, marker_pool, ResponseFormat.GFC)
    fit = fit_map(data, MapOptions(n_starts=1, seed=0))
    theta_sum_var = float(fit.theta_hat.sum(axis=1).var(ddof=1))
    ok = constant and theta_sum_var > 0.01
    detail = f"count sums constant: {constant}, theta-sum variance {theta_sum_var:.3f}"
    _line(10, "ipsativity demonstration", ok, detail)
    assert ok, detail


def test_criterion_11_protocol_fidelity(small_pool_inventory):
    likert_ok = render_likert_prompt(
        DESC, InstructionCondition.HONEST, "Am the life of the party."
    ) == (GOLDEN / "likert_honest.txt").read_text(encoding="utf-8")
    gfc_ok = render_gfc_prompt(
        DESC, InstructionCondition.FAKE_GOOD,
        "Am the life of the party.", "Worry about things.",
    ) == (GOLDEN / "gfc_fake_good.txt").read_text(encoding="utf-8")
    rating_ok = render_rating_prompt(
        ["Am the life of the party.", "Worry about things."]
    ) == (GOLDEN / "rating_two_statements.txt").read_text(encoding="utf-8")

    pool, inv = small_pool_inventory
    (plan,) = make_session_plans(
        [make_persona()], inv, pool, [ResponseFormat.LIKERT],
        [InstructionCondition.HONEST], seed=0, respondent_id="m",
    )
    provider = ScriptedProvider(["bad"] * (4 * len(plan.units)))
    result = run_session(plan, provider)
    retry_ok = (
        not result.complete and len(provider.calls) == 4 and len(set(provider.calls)) == 1
    )

    plans = make_session_plans(
        [make_persona()], inv, pool, [ResponseFormat.LIKERT, ResponseFormat.GFC],
        [InstructionCondition.HONEST, InstructionCondition.FAKE_GOOD],
        seed=3, respondent_id="m",
    )
    by_key = {(p.format, p.condition): p.units for p in plans}
    order_ok = all(
        by_key[(fmt, InstructionCondition.HONEST)]
        == by_key[(fmt, InstructionCondition.FAKE_GOOD)]
        for fmt in ResponseFormat
    )
    ok = likert_ok and gfc_ok and rating_ok and retry_ok and order_ok
    detail = (
        f"golden likert {likert_ok}, gfc {gfc_ok}, rating {rating_ok}, "
        f"retry ceiling {retry_ok}, order fixed {order_ok}"
    )
    _line(11, "protocol fidelity", ok, detail)
    assert ok, detail
