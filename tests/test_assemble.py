"""Exact two-stage assembly solver against hand oracles and brute force."""

import dataclasses

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from sdrkit import assemble as asm
from sdrkit.assemble import (
    BudgetExhaustedError,
    InfeasibleError,
    InstanceTooLargeError,
    assemble,
    brute_force_assemble,
    enumerate_candidates,
    solve_stage1,
    solve_stage2,
)
from sdrkit.core import (
    AssemblyConfig,
    GfcBlock,
    Inventory,
    Item,
    ItemPool,
    TraitDomain,
    validate_inventory,
)

TRAITS = list(TraitDomain)


def make_pool(rows):
    """rows: (id, trait, keying, desirability)"""
    return ItemPool(
        tuple(Item(i, f"s-{i}", t, k, d) for i, t, k, d in rows)
    )


def random_instance(rng):
    n = int(rng.integers(6, 11))
    rows = [
        (
            f"i{i:02d}",
            TRAITS[int(rng.integers(5))],
            int(rng.choice([-1, 1])),
            float(np.round(rng.uniform(1, 9), 2)),
        )
        for i in range(n)
    ]
    p = int(rng.integers(1, 4))
    mixed = None
    if rng.random() < 0.4:
        lo = int(rng.integers(0, p + 1))
        hi = int(rng.integers(lo, p + 1))
        mixed = (lo, hi)
    sign_floor = 0.30 if rng.random() < 0.3 else None
    cfg = AssemblyConfig(
        block_count=p,
        per_trait=None,
        per_trait_pair=None,
        mixed_key_range=mixed,
        sign_floor=sign_floor,
    )
    return make_pool(rows), cfg


def random_per_trait_instance(rng):
    """Ten items, two per trait, for five blocks with each trait used twice.

    Ten items is the most the brute-force oracle accepts under this config
    (eleven give at least 48 candidates), so every item is used. Most traits
    get one item of each keying, so the sign floor often leaves a feasible
    instance.
    """
    traits = rng.permutation(np.repeat(np.arange(5), 2))
    keys = {
        t: [1, -1] if rng.random() < 0.8 else [int(rng.choice([-1, 1]))] * 2
        for t in range(5)
    }
    rows = [
        (f"i{i:02d}", TRAITS[t], keys[t].pop(), float(np.round(rng.uniform(1, 9), 2)))
        for i, t in enumerate(traits)
    ]
    lo = int(rng.integers(0, 6))
    hi = int(rng.integers(lo, 6))
    cfg = AssemblyConfig(
        block_count=5,
        per_trait=2,
        per_trait_pair=None,
        mixed_key_range=(lo, hi),
        sign_floor=0.30 if rng.random() < 0.5 else None,
    )
    return make_pool(rows), cfg


def test_enumerate_candidates_cross_domain_lexicographic():
    pool = make_pool(
        [
            ("b", TraitDomain.A, 1, 5.0),
            ("a", TraitDomain.C, 1, 6.0),
            ("c", TraitDomain.A, -1, 4.0),
        ]
    )
    cands = enumerate_candidates(pool)
    # (b, c) share a domain and are excluded; ids sorted before pairing
    assert [(c.left, c.right) for c in cands] == [("a", "b"), ("a", "c")]
    assert cands[0].gap == 1.0 and cands[1].gap == 2.0
    assert cands[1].mixed_key is True


def test_known_optimum_prefers_matched_pairing():
    pool = make_pool(
        [
            ("a1", TraitDomain.A, 1, 5.0),
            ("a2", TraitDomain.A, 1, 7.0),
            ("c1", TraitDomain.C, 1, 5.1),
            ("c2", TraitDomain.C, 1, 7.2),
        ]
    )
    cfg = AssemblyConfig(block_count=2, mixed_key_range=None, sign_floor=None)
    sol = assemble(pool, cfg)
    chosen = {(b.left, b.right) for b in sol.inventory.blocks}
    # matched pairing has max gap 0.2; the crossed one would cost 2.1/2.0
    assert chosen == {("a1", "c1"), ("a2", "c2")}
    assert sol.m_star == pytest.approx(0.2)
    assert sol.sse == pytest.approx(0.1**2 + 0.2**2)
    assert sol.proof == "optimal"


def test_stage2_breaks_gap_ties_by_total_mismatch():
    # both pairings reach the same max gap, but one has smaller total sse
    pool = make_pool(
        [
            ("a1", TraitDomain.A, 1, 5.0),
            ("a2", TraitDomain.A, 1, 6.0),
            ("c1", TraitDomain.C, 1, 5.5),
            ("c2", TraitDomain.C, 1, 6.5),
        ]
    )
    cfg = AssemblyConfig(block_count=2, mixed_key_range=None, sign_floor=None)
    sol = assemble(pool, cfg)
    assert sol.m_star == pytest.approx(0.5)
    assert {(b.left, b.right) for b in sol.inventory.blocks} == {
        ("a1", "c1"),
        ("a2", "c2"),
    }


def test_exact_ties_resolved_by_id_order():
    pool = make_pool(
        [
            ("a1", TraitDomain.A, 1, 5.0),
            ("a2", TraitDomain.A, 1, 5.0),
            ("c1", TraitDomain.C, 1, 5.0),
            ("c2", TraitDomain.C, 1, 5.0),
        ]
    )
    cfg = AssemblyConfig(block_count=1, mixed_key_range=None, sign_floor=None)
    sol = assemble(pool, cfg)
    assert [(b.left, b.right) for b in sol.inventory.blocks] == [("a1", "c1")]


def test_item_beyond_its_traits_count_is_left_out():
    # five exactly matched pairs use every trait twice; a3 is a third A item
    pool = make_pool(
        [
            ("a1", TraitDomain.A, 1, 1.0), ("c1", TraitDomain.C, 1, 1.25),
            ("a2", TraitDomain.A, 1, 2.5), ("e1", TraitDomain.E, 1, 2.75),
            ("c2", TraitDomain.C, 1, 4.0), ("n1", TraitDomain.N, 1, 4.25),
            ("e2", TraitDomain.E, 1, 5.5), ("o1", TraitDomain.O, 1, 5.75),
            ("n2", TraitDomain.N, 1, 7.0), ("o2", TraitDomain.O, 1, 7.25),
            ("a3", TraitDomain.A, 1, 9.0),
        ]
    )
    cfg = AssemblyConfig(block_count=5, per_trait=2, mixed_key_range=None, sign_floor=None)
    sol = assemble(pool, cfg)
    assert sol.m_star == 0.25
    assert [(b.left, b.right) for b in sol.inventory.blocks] == [
        ("a1", "c1"), ("a2", "e1"), ("c2", "n1"), ("e2", "o1"), ("n2", "o2"),
    ]


def test_infeasible_families():
    # too few candidates at all
    pool = make_pool([("a1", TraitDomain.A, 1, 5.0), ("c1", TraitDomain.C, 1, 5.0)])
    with pytest.raises(InfeasibleError) as exc:
        assemble(pool, AssemblyConfig(block_count=2, mixed_key_range=None, sign_floor=None))
    assert exc.value.family in ("count", "uniqueness")

    # mixed-key floor cannot be met: every candidate shares the same keying
    pool = make_pool(
        [
            ("a1", TraitDomain.A, 1, 5.0),
            ("c1", TraitDomain.C, 1, 5.0),
            ("e1", TraitDomain.E, 1, 5.0),
            ("n1", TraitDomain.N, 1, 5.0),
        ]
    )
    with pytest.raises(InfeasibleError) as exc:
        assemble(
            pool,
            AssemblyConfig(block_count=2, mixed_key_range=(1, 2), sign_floor=None),
        )
    assert exc.value.family == "mixed-key"


def test_node_budget_signals_exhaustion():
    rng = np.random.default_rng(5)
    pool, _ = random_instance(rng)
    cfg = AssemblyConfig(block_count=2, mixed_key_range=None, sign_floor=None, node_budget=0)
    with pytest.raises(BudgetExhaustedError):
        solve_stage1(enumerate_candidates(pool), cfg)


# Recorded standard(10) instance: a 20-item subset of the packaged pool, its
# optimum and its blocks, copied from instance 2 of
# perfbench/assemble_instances.json so that this test stands on its own.
STANDARD_10_ITEMS = (
    "A06n", "A08p", "A10p", "A11n", "C01p", "C04p", "C07n", "C11n", "E02n", "E04p",
    "E07p", "E11n", "N03n", "N06p", "N09p", "N11n", "O03n", "O05p", "O06p", "O10n",
)
STANDARD_10_M_STAR = 1.5300000000000002
STANDARD_10_SSE = 3.2332000000000023
STANDARD_10_BLOCKS = [
    ("A06n", "C07n"), ("A08p", "E04p"), ("A10p", "N03n"), ("A11n", "O10n"),
    ("C01p", "E07p"), ("C04p", "O05p"), ("C11n", "N09p"), ("E02n", "N06p"),
    ("E11n", "O03n"), ("N11n", "O06p"),
]


def standard_10_subset(marker_pool):
    return ItemPool(tuple(it for it in marker_pool if it.id in STANDARD_10_ITEMS))


def test_standard_config_solves_recorded_instance_exactly(marker_pool):
    subset = standard_10_subset(marker_pool)
    assert len(subset) == 20
    cfg = AssemblyConfig.standard(10)
    sol = assemble(subset, cfg)
    assert (sol.m_star, sol.sse) == (STANDARD_10_M_STAR, STANDARD_10_SSE)
    assert [(b.left, b.right) for b in sol.inventory.blocks] == STANDARD_10_BLOCKS
    assert sol.proof == "optimal"
    report = validate_inventory(sol.inventory, subset, cfg)
    assert report.ok, report.failed()


def test_stage1_never_searches_a_cap_its_witness_already_answers(marker_pool, monkeypatch):
    searches = []  # (cap, largest gap of the witness found or None), in order
    real = asm._ItemSearch.search

    def recording(self, cap=np.inf):
        witness = real(self, cap)
        found = None if witness is None else max(c.gap for c in witness)
        searches.append((cap, found))
        return witness

    monkeypatch.setattr(asm._ItemSearch, "search", recording)
    cands = enumerate_candidates(standard_10_subset(marker_pool))
    m_star, witness = solve_stage1(cands, AssemblyConfig.standard(10))
    assert m_star == STANDARD_10_M_STAR == max(c.gap for c in witness)
    caps, found = zip(*searches)
    assert caps[0] == np.inf
    assert found[-1] is None and None not in found[:-1]
    # each later search asks only for gaps strictly below the last witness's
    # largest gap, which no witness found so far meets
    assert caps[1:] == found[:-1]
    assert all(gap < cap for cap, gap in searches[:-1])
    assert found[-2] == m_star


def test_stage1_proves_recorded_instance_within_a_small_budget(marker_pool):
    # searching by candidate id order needed tens of thousands of nodes at
    # each of the infeasible caps just below m* on this instance
    cands = enumerate_candidates(standard_10_subset(marker_pool))
    cfg = dataclasses.replace(AssemblyConfig.standard(10), node_budget=1_000)
    m_star, _ = solve_stage1(cands, cfg)
    assert m_star == STANDARD_10_M_STAR


def test_stage1_solves_the_paper_instance(marker_pool, marker_inventory):
    # standard(30) over the whole 60-item pool: every item is used
    cfg = AssemblyConfig.standard(30)
    cands = enumerate_candidates(marker_pool)
    m_star, witness = solve_stage1(cands, dataclasses.replace(cfg, node_budget=2_000))
    shipped = max(
        abs(marker_pool.get(b.left).desirability - marker_pool.get(b.right).desirability)
        for b in marker_inventory.blocks
    )
    assert m_star == shipped == max(c.gap for c in witness)
    inventory = Inventory(tuple(GfcBlock(c.left, c.right, c.gap) for c in witness))
    report = validate_inventory(inventory, marker_pool, cfg)
    assert report.ok, report.failed()


# the oracle walks only selections that use no item twice, so a draw of either
# generator takes milliseconds and these counts keep the test near a second
@pytest.mark.parametrize(
    "make, examples", [(random_instance, 30), (random_per_trait_instance, 30)]
)
def test_stage1_gap_is_the_least_feasible_one(make, examples):
    @settings(max_examples=examples, derandomize=True, database=None, deadline=None)
    @given(seed=st.integers(0, 2**32 - 1))
    def check(seed):
        pool, cfg = make(np.random.default_rng(seed))
        cands = enumerate_candidates(pool)
        assume(len(cands) <= 40)
        try:
            oracle = brute_force_assemble(pool, cfg)
        except InfeasibleError:
            with pytest.raises(InfeasibleError):
                solve_stage1(cands, cfg)
            return
        m_star, _ = solve_stage1(cands, cfg)
        assert m_star == oracle.m_star
        below = [c.gap for c in cands if c.gap < m_star]
        if below:
            eligible = [c for c in cands if c.gap <= max(below)]
            assert asm._ItemSearch(eligible, cfg).search() is None

    check()


# each draw searches twice at every distinct gap; these counts keep it under
# a second
@pytest.mark.parametrize(
    "make, examples", [(random_instance, 50), (random_per_trait_instance, 30)]
)
def test_capped_search_matches_a_search_over_the_gaps_below_the_cap(make, examples):
    @settings(max_examples=examples, derandomize=True, database=None, deadline=None)
    @given(seed=st.integers(0, 2**32 - 1))
    def check(seed):
        pool, cfg = make(np.random.default_rng(seed))
        cands = enumerate_candidates(pool)
        for cap in sorted({c.gap for c in cands}):
            capped = asm._ItemSearch(cands, cfg).search(cap)
            below = asm._ItemSearch([c for c in cands if c.gap < cap], cfg).search()
            assert (capped is None) == (below is None)
            if capped is not None:
                assert all(c.gap < cap for c in capped)

    check()


def test_stage2_node_budget_signals_exhaustion(marker_pool):
    subset = standard_10_subset(marker_pool)
    cands = enumerate_candidates(subset)
    cfg = AssemblyConfig.standard(10)
    # stage 1 has shown that a selection exists, so running out of nodes
    # before reaching one is exhaustion, not infeasibility
    with pytest.raises(BudgetExhaustedError):
        solve_stage2(cands, dataclasses.replace(cfg, node_budget=50), STANDARD_10_M_STAR)
    sol = solve_stage2(cands, dataclasses.replace(cfg, node_budget=500), STANDARD_10_M_STAR)
    assert sol.proof == "budget-exhausted-best-known"
    assert validate_inventory(sol.inventory, subset, cfg).ok


def test_brute_force_refuses_large_instances():
    rows = [
        (f"x{i:02d}", TRAITS[i % 5], 1, 5.0 + 0.01 * i) for i in range(20)
    ]
    with pytest.raises(InstanceTooLargeError):
        brute_force_assemble(make_pool(rows), AssemblyConfig(block_count=3, mixed_key_range=None, sign_floor=None))


def test_solver_matches_brute_force_on_random_instances():
    rng = np.random.default_rng(99)
    compared = 0
    while compared < 40:
        pool, cfg = random_instance(rng)
        cands = enumerate_candidates(pool)
        if len(cands) > 40:
            continue
        try:
            oracle = brute_force_assemble(pool, cfg)
        except InfeasibleError:
            with pytest.raises(InfeasibleError):
                m_star, _ = solve_stage1(cands, cfg)
                solve_stage2(cands, cfg, m_star)
            compared += 1
            continue
        m_star, _ = solve_stage1(cands, cfg)
        sol = solve_stage2(cands, cfg, m_star)
        assert sol.m_star == oracle.m_star
        assert sol.sse == pytest.approx(oracle.sse, abs=1e-9)
        compared += 1


def test_solver_matches_brute_force_with_per_trait_counts():
    # per_trait turns on the per-trait and sign-floor prunes of the search
    rng = np.random.default_rng(2024)
    feasible = 0
    for _ in range(40):
        pool, cfg = random_per_trait_instance(rng)
        cands = enumerate_candidates(pool)
        try:
            oracle = brute_force_assemble(pool, cfg)
        except InfeasibleError:
            with pytest.raises(InfeasibleError):
                solve_stage1(cands, cfg)
            continue
        m_star, _ = solve_stage1(cands, cfg)
        sol = solve_stage2(cands, cfg, m_star)
        assert sol.m_star == oracle.m_star
        assert sol.sse == pytest.approx(oracle.sse, abs=1e-9)
        feasible += 1
    assert feasible >= 19


def test_solution_passes_its_own_validation(marker_pool):
    # small subset of the packaged pool keeps this fast
    subset = ItemPool(tuple(marker_pool.items[:20]))
    cfg = AssemblyConfig(block_count=5, mixed_key_range=None, sign_floor=None)
    sol = assemble(subset, cfg)
    report = validate_inventory(sol.inventory, subset, cfg, gap_tol=1e-12)
    assert report.ok, report.failed()


def test_validation_accepts_a_sign_floor_met_up_to_rounding():
    # 0.28 * 25 rounds to 7.000000000000001: seven items of a sign meet the
    # floor for the solver, so they must for the validator too
    rows = [(f"a{i:02d}", TraitDomain.A, 1 if i < 7 else -1, 1 + 0.1 * i) for i in range(25)]
    rows += [(f"c{i:02d}", TraitDomain.C, 1 if i % 2 else -1, 1 + 0.1 * i) for i in range(25)]
    pool = make_pool(rows)
    cfg = AssemblyConfig(block_count=25, sign_floor=0.28)
    sol = assemble(pool, cfg)
    assert sol.proof == "optimal"
    report = validate_inventory(sol.inventory, pool, cfg)
    assert report.sign_counts["A"] == (7, 18)
    assert report.ok, report.failed()
