"""Generative simulator: determinism, shift semantics, and provider parity."""

import gc
import math
import sys
import threading
import weakref
from dataclasses import replace
from functools import cache
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from sdrkit import irt, simulate
from sdrkit.administer import (
    keyed_rng,
    make_session_plans,
    run_session,
)
from sdrkit.core import (
    DESIRABLE_SIGNS,
    InstructionCondition,
    ResponseFormat,
    ResponseSet,
    SdrkitError,
    Unit,
    block_id,
)
from sdrkit.ordinal import category_probs
from sdrkit.personas import Persona, sample_personas
from sdrkit.simulate import (
    TABLE_PERSONAS,
    ItemParams,
    SimSpec,
    SimulatorProvider,
    default_sim_params,
    effective_theta,
    load_sim_params,
    naive_gfc_count_scores,
    simulate_response_set,
    simulate_table,
    write_sim_params,
)

KAPPA = (-2.5, -1.5, -0.5, 0.5, 1.5, 2.5)


def test_item_params_validation():
    with pytest.raises(SdrkitError):
        ItemParams(a_plus=0.0, keying=1, trait=0, kappa=KAPPA)
    with pytest.raises(SdrkitError):
        ItemParams(a_plus=1.0, keying=1, trait=0, kappa=(0, 0, 1, 2, 3, 4))
    ip = ItemParams(a_plus=1.5, keying=-1, trait=2, kappa=KAPPA)
    assert ip.a_signed == -1.5


def test_likert_utilities_use_keyed_loadings():
    theta = np.array([[0.0, 0.0, 2.0, 0.0, 0.0], [0.0, 0.0, -1.0, 0.0, 0.0]])
    loadings = irt.loading_matrix(np.array([2, 2]), np.array([1.2, -1.2]), paired=False)
    assert np.array_equal(loadings, [[0.0, 0.0, 1.2, 0.0, 0.0], [0.0, 0.0, -1.2, 0.0, 0.0]])
    eta = theta @ loadings.T
    assert np.allclose(eta, [[2.4, -2.4], [-1.2, 1.2]])


def test_gfc_utilities_are_scaled_right_minus_left_differences():
    theta = np.array([[1.0, -1.0, 0.0, 0.0, 0.0]])
    # blocks (left A, right C) and (left E keyed -, right A)
    loadings = irt.loading_matrix(np.array([0, 1, 2, 0]), np.array([1.0, 2.0, -1.5, 0.5]),
                                  paired=True)
    assert loadings.shape == (2, 5)
    eta = theta @ loadings.T
    assert np.allclose(eta, [[(-2.0 - 1.0) / np.sqrt(2), (0.5 - 0.0) / np.sqrt(2)]])


def test_effective_theta_shift_direction():
    z = np.zeros(5)
    honest = effective_theta(z, InstructionCondition.HONEST, 1.0)
    fake = effective_theta(z, InstructionCondition.FAKE_GOOD, 1.0)
    assert np.array_equal(honest, z)
    assert np.array_equal(fake, DESIRABLE_SIGNS)
    assert fake[3] == -1.0  # neuroticism moves down under fake-good


def test_default_params_cover_instrument(small_pool_inventory):
    pool, inv = small_pool_inventory
    params = default_sim_params(inv, pool, seed=1)
    assert set(params.items) == {it.id for it in pool}
    assert set(params.block_kappa) == {block_id(b.left, b.right) for b in inv.blocks}
    for it in pool:
        assert params.items[it.id].keying == it.keying
        assert params.items[it.id].trait == it.domain.index


def test_matched_discrimination_shares_strengths(small_pool_inventory):
    pool, inv = small_pool_inventory
    params = default_sim_params(inv, pool, seed=1, matched_discrimination=True)
    for b in inv.blocks:
        assert params.items[b.left].a_plus == params.items[b.right].a_plus


def test_simulation_deterministic_and_condition_free_noise(small_pool_inventory):
    pool, inv = small_pool_inventory
    persona = sample_personas(1, seed=0).personas[0]
    params = default_sim_params(inv, pool, seed=2)
    spec = SimSpec(fake_good_delta=1.0, seed=3)
    a = simulate_response_set(persona, inv, params, ResponseFormat.LIKERT,
                              InstructionCondition.HONEST, spec)
    b = simulate_response_set(persona, inv, params, ResponseFormat.LIKERT,
                              InstructionCondition.HONEST, spec)
    assert a == b
    # delta = 0: fake-good reproduces honest answers bit for bit
    spec0 = SimSpec(fake_good_delta=0.0, seed=3)
    honest = simulate_response_set(persona, inv, params, ResponseFormat.GFC,
                                   InstructionCondition.HONEST, spec0)
    fake0 = simulate_response_set(persona, inv, params, ResponseFormat.GFC,
                                  InstructionCondition.FAKE_GOOD, spec0)
    assert honest.answers == fake0.answers


def test_fake_good_shift_raises_likert_answers(small_pool_inventory):
    pool, inv = small_pool_inventory
    params = default_sim_params(inv, pool, seed=4)
    spec = SimSpec(fake_good_delta=2.0, seed=5)
    keyed_diffs = []
    for persona in sample_personas(40, seed=6):
        h = simulate_response_set(persona, inv, params, ResponseFormat.LIKERT,
                                  InstructionCondition.HONEST, spec)
        f = simulate_response_set(persona, inv, params, ResponseFormat.LIKERT,
                                  InstructionCondition.FAKE_GOOD, spec)
        for iid in h.answers:
            it = pool.get(iid)
            sign = it.keying * DESIRABLE_SIGNS[it.domain.index]
            keyed_diffs.append(sign * (f.answers[iid] - h.answers[iid]))
    assert np.mean(keyed_diffs) > 0.5  # shared noise, so the shift dominates


def test_provider_agrees_with_direct_simulation(small_pool_inventory):
    pool, inv = small_pool_inventory
    params = default_sim_params(inv, pool, seed=9)
    spec = SimSpec(fake_good_delta=1.0, seed=10)
    provider = SimulatorProvider(params, spec)
    # the second set has personas whose descriptions repeat an earlier one's
    for personas, repeats_description in (
        (sample_personas(4, seed=8), False),
        (sample_personas(400, seed=1), True),
    ):
        if repeats_description:
            assert len({p.description for p in personas}) < len(personas)
        plans = make_session_plans(
            list(personas), inv, pool, [ResponseFormat.LIKERT, ResponseFormat.GFC],
            [InstructionCondition.HONEST, InstructionCondition.FAKE_GOOD],
            seed=11, respondent_id=provider.model_id,
        )
        for plan in plans:
            result = run_session(plan, provider)
            assert result.complete
            direct = simulate_response_set(
                plan.persona, inv, params, plan.format, plan.condition, spec
            )
            got = dict(result.response_set.answers)
            if plan.format is ResponseFormat.GFC:
                # undo the display-side flips to compare canonical responses
                got = {
                    bid: 8 - a if result.response_set.side_assignment[bid] else a
                    for bid, a in got.items()
                }
            assert got == dict(direct.answers)


def test_gfc_flip_antisymmetry_is_exact(small_pool_inventory):
    pool, inv = small_pool_inventory
    personas = sample_personas(6, seed=12)
    params = default_sim_params(inv, pool, seed=13)
    spec = SimSpec(fake_good_delta=1.0, seed=14)
    provider = SimulatorProvider(params, spec)
    plans = make_session_plans(
        list(personas), inv, pool, [ResponseFormat.GFC], [InstructionCondition.HONEST],
        seed=15, respondent_id=provider.model_id,
    )
    for plan in plans:
        for unit in plan.units:
            a = int(provider.complete(plan, unit).text)
            flipped = int(provider.complete(plan, mirrored(unit)).text)
            assert flipped == 8 - a


def mirrored(unit):
    """The same GFC unit with its displayed sides swapped."""
    return replace(unit, texts=unit.texts[::-1], flipped=not unit.flipped)


def statement(item):
    """The Likert unit of one item."""
    return Unit(item, (item,))


def block(left, right):
    """The GFC unit of one block."""
    return Unit(block_id(left, right), (left, right))


def reference_answer(persona, fmt, condition, unit_id, params, spec):
    """One unit drawn on its own, with the public kernel and a sorted search."""
    theta = effective_theta(persona.z, condition, spec.fake_good_delta)
    if fmt is ResponseFormat.LIKERT:
        item = params.items[unit_id]
        eta, kappa = item.a_signed * theta[item.trait], item.kappa
    else:
        left, right = (params.items[i] for i in unit_id.split("~"))
        mu_left, mu_right = (it.a_signed * theta[it.trait] for it in (left, right))
        eta = (mu_right - mu_left) / math.sqrt(2.0)
        kappa = params.block_kappa[unit_id]
    cdf = np.cumsum(category_probs(eta, np.asarray(kappa)))
    u = keyed_rng(spec.seed, persona.id, fmt.value, unit_id).random()
    return int(np.searchsorted(cdf, u, side="right")) + 1


def test_vectorized_draw_matches_per_unit_reference(small_pool_inventory):
    pool, inv = small_pool_inventory
    params = default_sim_params(inv, pool, seed=19)
    personas = sample_personas(400, seed=1)
    assert len({p.description for p in personas}) < len(personas)
    for delta in (0.0, 1.0):
        spec = SimSpec(fake_good_delta=delta, seed=20)
        for persona in personas:
            for fmt in ResponseFormat:
                for cond in InstructionCondition:
                    got = simulate_response_set(persona, inv, params, fmt, cond, spec).answers
                    assert got == {
                        uid: reference_answer(persona, fmt, cond, uid, params, spec)
                        for uid in got
                    }


def test_answers_do_not_depend_on_unit_order_or_company(small_pool_inventory):
    pool, inv = small_pool_inventory
    params = default_sim_params(inv, pool, seed=25)
    spec = SimSpec(fake_good_delta=1.0, seed=26)
    persona = sample_personas(1, seed=27).personas[0]
    for fmt in ResponseFormat:
        units = inv.units(fmt)
        cond = InstructionCondition.FAKE_GOOD
        (full,) = simulate_table([persona], fmt, cond, units, params, spec)
        assert full.shape == (len(units),)
        (reverse,) = simulate_table([persona], fmt, cond, units[::-1], params, spec)
        assert reverse.tolist() == full[::-1].tolist()
        (one,) = simulate_table([persona], fmt, cond, units[2:3], params, spec)
        assert one.tolist() == [full[2]]
        assert simulate_table([persona], fmt, cond, [], params, spec).shape == (1, 0)


def test_simulate_table_rejects_unknown_or_same_trait_units(small_pool_inventory):
    pool, inv = small_pool_inventory
    params = default_sim_params(inv, pool, seed=28)
    spec = SimSpec()
    persona = sample_personas(1, seed=29).personas[0]
    honest = InstructionCondition.HONEST
    likert, gfc = ResponseFormat.LIKERT, ResponseFormat.GFC
    no_a1 = replace(params, items={k: v for k, v in params.items.items() if k != "a1"})
    with pytest.raises(SdrkitError, match="item parameters"):
        simulate_table([persona], likert, honest, [statement("c1"), statement("a1")], no_a1, spec)
    with pytest.raises(SdrkitError, match="item parameters"):
        simulate_table([persona], gfc, honest, [block("a1", "c1")], no_a1, spec)
    with pytest.raises(SdrkitError, match="block thresholds"):
        simulate_table([persona], gfc, honest, [block("a1", "e1")], params, spec)
    same_trait = replace(params, block_kappa={**params.block_kappa, "a1~a2": KAPPA})
    with pytest.raises(SdrkitError, match="two different traits"):
        simulate_table([persona], gfc, honest, [block("a1", "a2")], same_trait, spec)
    provider = SimulatorProvider(no_a1, spec)
    (plan,) = make_session_plans(
        [persona], inv, pool, [ResponseFormat.LIKERT], [honest], seed=0, respondent_id="sim"
    )
    with pytest.raises(SdrkitError, match="item parameters"):
        provider.complete(plan, plan.units[0])


def test_provider_draws_each_plan_once_and_matches_plans_by_identity(
    small_pool_inventory, monkeypatch
):
    pool, inv = small_pool_inventory
    params = default_sim_params(inv, pool, seed=21)
    spec = SimSpec(fake_good_delta=2.0, seed=22)
    persona = sample_personas(1, seed=23).personas[0]
    honest, fake = make_session_plans(
        [persona], inv, pool, [ResponseFormat.GFC],
        [InstructionCondition.HONEST, InstructionCondition.FAKE_GOOD],
        seed=24, respondent_id="sim",
    )
    expected = {
        plan.condition: simulate_response_set(
            persona, inv, params, plan.format, plan.condition, spec
        ).answers
        for plan in (honest, fake)
    }
    # the same persona's two sessions must answer differently for this test to
    # tell them apart
    assert expected[honest.condition] != expected[fake.condition]
    # a value-equal copy is another session: it gets its own draw
    honest_copy = replace(honest)
    assert honest_copy == honest and honest_copy is not honest

    draws = []
    real = simulate.simulate_table

    def counting(personas, *args):
        draws.append([p.id for p in personas])
        return real(personas, *args)

    monkeypatch.setattr(simulate, "simulate_table", counting)
    provider = SimulatorProvider(params, spec)
    sequence = []
    for unit in honest.units:
        sequence += [(honest, unit), (fake, unit), (honest, mirrored(unit))]
    sequence += [(honest_copy, honest.units[0]), (honest_copy, honest.units[1])]

    def answer_sequence():
        for plan, unit in sequence:
            answer = int(provider.complete(plan, unit).text)
            canonical = 8 - answer if unit.flipped else answer
            assert canonical == expected[plan.condition][unit.id]

    # unprepared plans: each switch to another plan object draws that plan alone
    answer_sequence()
    switches = 1 + sum(p is not q for (p, _), (q, _) in zip(sequence, sequence[1:]))
    assert draws == [[persona.id]] * switches

    # prepared plans draw once, in prepare (one table per condition); the
    # value-equal copy was not prepared, so it still draws alone
    draws.clear()
    provider.prepare([honest, fake])
    assert draws == [[persona.id]] * 2
    answer_sequence()
    assert draws == [[persona.id]] * 3
    # the provider holds one stage: the copy drawn alone replaced the prepared
    # plans, so the honest plan now draws alone again
    sequence[:] = [(honest, honest.units[0]), (honest, honest.units[1])]
    answer_sequence()
    assert draws == [[persona.id]] * 4

    short = replace(honest, units=honest.units[:1])
    with pytest.raises(SdrkitError, match="not in its session plan"):
        provider.complete(short, honest.units[1])
    provider.prepare([short])
    with pytest.raises(SdrkitError, match="not in its session plan"):
        provider.complete(short, honest.units[1])
    (likert,) = make_session_plans(
        [persona], inv, pool, [ResponseFormat.LIKERT], [InstructionCondition.HONEST],
        seed=24, respondent_id="sim",
    )
    with pytest.raises(SdrkitError, match="not in its session plan"):
        provider.complete(likert, honest.units[0])


@cache
def eighty_personas(seed):
    return list(sample_personas(80, seed=seed))


@settings(max_examples=20, derandomize=True, database=None, deadline=None)
@given(
    n=st.integers(0, 80),
    persona_seed=st.integers(0, 2),
    plan_seed=st.integers(0, 2**32),
    sim_seed=st.integers(0, 2**32),
    delta=st.sampled_from([0.0, 1.0, 2.5]),
)
@example(n=0, persona_seed=0, plan_seed=0, sim_seed=0, delta=1.0)
@example(n=TABLE_PERSONAS + 1, persona_seed=1, plan_seed=1, sim_seed=1, delta=1.0)
@example(n=80, persona_seed=2, plan_seed=2, sim_seed=2, delta=2.5)
def test_prepared_stage_answers_as_each_plan_drawn_alone(
    small_pool_inventory, n, persona_seed, plan_seed, sim_seed, delta
):
    pool, inv = small_pool_inventory
    params = default_sim_params(inv, pool, seed=40)
    spec = SimSpec(fake_good_delta=delta, seed=sim_seed)
    # both formats and conditions, GFC sides flipped and orders shuffled per persona
    plans = make_session_plans(
        eighty_personas(persona_seed)[:n], inv, pool, list(ResponseFormat),
        list(InstructionCondition), seed=plan_seed, respondent_id="sim",
    )
    expected = [
        simulate_response_set(plan.persona, inv, params, plan.format, plan.condition, spec).answers
        for plan in plans
    ]
    provider = SimulatorProvider(params, spec)
    with mock.patch.object(simulate, "simulate_table", wraps=simulate.simulate_table) as table:
        provider.prepare(plans)
        # one table per format and condition and each TABLE_PERSONAS personas
        batches = sorted(len(call.args[0]) for call in table.call_args_list)
        full, rest = divmod(n, TABLE_PERSONAS)
        assert batches == sorted(([rest] if rest else []) * 4 + [TABLE_PERSONAS] * full * 4)
        table.reset_mock()
        for plan, want in zip(plans, expected):
            got = {}
            for unit in plan.units:
                answer = int(provider.complete(plan, unit).text)
                got[unit.id] = 8 - answer if unit.flipped else answer
            assert got == want
        table.assert_not_called()


def test_prepare_releases_the_previous_stage(small_pool_inventory):
    pool, inv = small_pool_inventory
    provider = SimulatorProvider(default_sim_params(inv, pool, seed=42), SimSpec(seed=43))
    personas = list(sample_personas(3, seed=44))

    def stage(cond):
        return make_session_plans(
            personas, inv, pool, [ResponseFormat.GFC], [cond], seed=45, respondent_id="sim"
        )

    first, alone = stage(InstructionCondition.HONEST), stage(InstructionCondition.HONEST)[0]
    provider.prepare(first)
    provider.complete(first[0], first[0].units[0])
    prepared, drawn_alone = weakref.ref(first[0]), weakref.ref(alone)
    del first
    gc.collect()
    assert prepared() is not None
    # a plan drawn alone is the new stage: the prepared plans are let go
    provider.complete(alone, alone.units[0])
    del alone
    gc.collect()
    assert prepared() is None and drawn_alone() is not None
    provider.prepare(stage(InstructionCondition.FAKE_GOOD))
    gc.collect()
    assert drawn_alone() is None


def test_provider_shared_by_concurrent_sessions_answers_each_correctly(small_pool_inventory):
    pool, inv = small_pool_inventory
    params = default_sim_params(inv, pool, seed=30)
    spec = SimSpec(fake_good_delta=2.0, seed=31)
    provider = SimulatorProvider(params, spec)
    plans = make_session_plans(
        list(sample_personas(3, seed=32)), inv, pool, list(ResponseFormat),
        list(InstructionCondition), seed=33, respondent_id="sim",
    )
    wrong = []

    def worker(plans_of_worker):
        for _ in range(30):
            for plan in plans_of_worker:
                for unit in plan.units:
                    try:
                        answer = int(provider.complete(plan, unit).text)
                    except SdrkitError as exc:  # a unit looked up in another plan's table
                        wrong.append((plan.persona.id, unit.id, str(exc)))
                        continue
                    expected = simulate_response_set(
                        plan.persona, inv, params, plan.format, plan.condition, spec
                    ).answers[unit.id]
                    if (8 - answer if unit.flipped else answer) != expected:
                        wrong.append((plan.persona.id, unit.id))

    switch = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        threads = [threading.Thread(target=worker, args=(plans[k::4],)) for k in range(4)]
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=60)
    finally:
        sys.setswitchinterval(switch)
    assert not any(t.is_alive() for t in threads)
    assert wrong == []


def test_naive_count_scores_are_ipsative(small_pool_inventory):
    pool, inv = small_pool_inventory
    personas = sample_personas(10, seed=15)
    params = default_sim_params(inv, pool, seed=16)
    spec = SimSpec(fake_good_delta=1.0, seed=17)
    sets = [
        simulate_response_set(p, inv, params, ResponseFormat.GFC,
                              InstructionCondition.HONEST, spec)
        for p in personas
    ]
    scores = naive_gfc_count_scores(sets, inv, pool)
    for s in scores.values():
        assert s.sum() == inv.block_count  # exact constant sum
    with pytest.raises(SdrkitError):
        likert_sets = [
            simulate_response_set(personas.personas[0], inv, params,
                                  ResponseFormat.LIKERT, InstructionCondition.HONEST, spec)
        ]
        naive_gfc_count_scores(likert_sets, inv, pool)


def test_naive_count_scores_credit_the_chosen_side_as_displayed(small_pool_inventory):
    pool, inv = small_pool_inventory
    # blocks (a1, c1), (c2, e2), (e1, n2), (n1, o2), (o1, a2)
    bids = [block_id(b.left, b.right) for b in inv.blocks]
    rs = ResponseSet(
        respondent_id="m", persona_id="p", format=ResponseFormat.GFC,
        condition=InstructionCondition.HONEST, answers=dict(zip(bids, [7, 1, 4, 5, 3])),
        presentation_order=tuple(bids), side_assignment={bids[0]: True},
    )
    scores = naive_gfc_count_scores([rs], inv, pool)
    # a1 chosen (shown on the right), c2, a tie of e1 and n2, o2, o1
    assert scores[("m", "p", "honest")].tolist() == [1.0, 1.0, 0.5, 0.5, 2.0]


def test_naive_count_scores_keep_every_response_set(small_pool_inventory):
    pool, inv = small_pool_inventory
    params = default_sim_params(inv, pool, seed=34)
    spec = SimSpec(fake_good_delta=1.0, seed=35)
    sets = [
        simulate_response_set(p, inv, params, ResponseFormat.GFC, cond, spec)
        for p in sample_personas(4, seed=36)
        for cond in InstructionCondition
    ]
    scores = naive_gfc_count_scores(sets, inv, pool)
    assert set(scores) == {(rs.respondent_id, rs.persona_id, rs.condition.value) for rs in sets}
    assert len(scores) == 8
    assert all(s.sum() == inv.block_count for s in scores.values())


def test_sim_params_round_trip(tmp_path, small_pool_inventory):
    pool, inv = small_pool_inventory
    params = default_sim_params(inv, pool, seed=18)
    f = tmp_path / "params.json"
    write_sim_params(params, f)
    back = load_sim_params(f)
    assert back == params


def test_sim_spec_validation():
    with pytest.raises(SdrkitError):
        SimSpec(fake_good_delta=-0.5)
    with pytest.raises(SdrkitError):
        SimSpec(fake_good_delta=float("inf"))


def test_answer_stays_on_the_scale_when_the_last_cumulative_probability_is_below_one(
    monkeypatch,
):
    rng = np.random.default_rng(0)
    while True:  # about one random unit in eight sums its seven probabilities below 1.0
        eta, kappa = rng.normal(), np.sort(rng.uniform(-2.0, 2.0, size=6))
        cdf = np.cumsum(category_probs(np.array([eta]), kappa[None, :]), axis=-1)
        if cdf[0, -1] < 1.0 and np.all(np.diff(kappa) > 1e-3):
            break
    params = simulate.SimParams(
        items={"i1": ItemParams(a_plus=1.0, keying=1, trait=0, kappa=tuple(kappa))},
        block_kappa={},
    )
    persona = Persona("p1", (eta, 0.0, 0.0, 0.0, 0.0), (5,) * 5, "")
    u = np.nextafter(1.0, 0.0)  # the largest uniform a stream can return
    monkeypatch.setattr(simulate, "keyed_uniform_table", lambda *key: np.array([[u]]))
    answers = simulate_table(
        [persona], ResponseFormat.LIKERT, InstructionCondition.HONEST, [statement("i1")], params,
        SimSpec(),
    )
    assert answers.tolist() == [[7]]
