"""Two-stage lexicographic assembly of desirability-matched GFC inventories.

Stage 1 minimizes the worst within-pair desirability gap by one search
asked again under a falling cap: each selection it finds lowers the cap to
strictly below that selection's largest gap, until no selection remains under
the cap, so the last one found holds the optimum (the threshold method for
bottleneck problems). The search is depth first and branches on items, taking
the free item with the fewest partners left, so a cap below the optimum is
proven infeasible as soon as some item can neither be paired nor left out.
Its node count carries over between calls, so ``node_budget`` bounds stage 1
as a whole. Stage 2 minimizes total squared desirability mismatch
among selections whose maximum gap stays within ``m* + epsilon``, via branch
and bound over candidates in id order. Both stages are exact; stage 2 breaks
ties by lexicographic candidate id order so results are reproducible without
an external MIP solver.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from .core import (
    AssemblyConfig,
    GfcBlock,
    Inventory,
    ItemPool,
    SdrkitError,
    validate_inventory,
)


class InfeasibleError(SdrkitError):
    def __init__(self, message: str, family: str):
        super().__init__(f"{message} (constraint family: {family})")
        self.family = family


class BudgetExhaustedError(SdrkitError):
    pass


class InstanceTooLargeError(SdrkitError):
    pass


TRAIT_PAIRS: tuple[tuple[int, int], ...] = tuple(
    (a, b) for a in range(5) for b in range(a + 1, 5)
)
_PAIR_INDEX = {p: i for i, p in enumerate(TRAIT_PAIRS)}

#: slack on the stage-1 optimum that bounds stage 2's candidate gaps
STAGE2_EPSILON = 1e-9


@dataclass(frozen=True)
class CandidatePair:
    left: str
    right: str
    gap: float
    sq: float  # (s_left - s_right)^2, kept at full precision
    mixed_key: bool
    left_trait: int
    right_trait: int
    left_key: int
    right_key: int
    pair_group: int  # index of the unordered trait pair in TRAIT_PAIRS


@dataclass(frozen=True)
class AssemblySolution:
    inventory: Inventory
    m_star: float
    sse: float
    proof: str  # "optimal" or "budget-exhausted-best-known"


def enumerate_candidates(pool: ItemPool) -> list[CandidatePair]:
    """All cross-domain unordered pairs, in lexicographic id order."""
    unrated = [it.id for it in pool if it.desirability is None]
    if unrated:
        raise SdrkitError(f"unrated items in pool: {unrated[:5]}")
    items = sorted(pool.items, key=lambda it: it.id)
    out: list[CandidatePair] = []
    for i, a in enumerate(items):
        for b in items[i + 1 :]:
            if a.domain == b.domain:
                continue
            ta, tb = a.domain.index, b.domain.index
            out.append(
                CandidatePair(
                    left=a.id,
                    right=b.id,
                    gap=abs(a.desirability - b.desirability),
                    sq=(a.desirability - b.desirability) ** 2,
                    mixed_key=a.keying != b.keying,
                    left_trait=ta,
                    right_trait=tb,
                    left_key=a.keying,
                    right_key=b.keying,
                    pair_group=_PAIR_INDEX[(min(ta, tb), max(ta, tb))],
                )
            )
    return out


def _sign_range(cfg: AssemblyConfig) -> tuple[int, int] | None:
    """The positively keyed items a trait may hold under the sign floor when
    it holds exactly ``per_trait`` items, as (fewest, most); None when the
    floor or ``per_trait`` is unset and the floor is tested only at a leaf."""
    if cfg.sign_floor is None or cfg.per_trait is None:
        return None
    lo = math.ceil(cfg.sign_floor * cfg.per_trait - 1e-12)
    return lo, cfg.per_trait - lo


def _complete(
    cfg: AssemblyConfig, trait_counts: list[int], pair_counts: list[int], plus: list[int],
    mixed: int,
) -> bool:
    """Whether a selection of ``block_count`` blocks meets every constraint.

    The exact test at a leaf of both searches; ``plus`` counts the positively
    keyed items of each trait.
    """
    if cfg.per_trait is not None and trait_counts.count(cfg.per_trait) != 5:
        return False
    if cfg.per_trait_pair is not None and pair_counts.count(cfg.per_trait_pair) != 10:
        return False
    if cfg.mixed_key_range is not None:
        lo, hi = cfg.mixed_key_range
        if not lo <= mixed <= hi:
            return False
    floor = cfg.sign_floor
    if floor is not None:
        for total, n_plus in zip(trait_counts, plus):
            n_minus = total - n_plus
            if total and (
                n_plus < floor * total - 1e-12 or n_minus < floor * total - 1e-12
            ):
                return False
    return True


class _ItemSearch:
    """Stage 1's feasibility search: depth first, branching on items.

    A node takes the free item with the fewest options. Its options are its
    free partners below the gap cap that the trait-pair and trait caps still
    allow, tried in increasing squared gap and then candidate index, and,
    last, leaving it out while its trait has items to spare. A free item with
    no option ends the node, which is what proves a cap below m* infeasible
    within a few nodes. So do per-trait counts that can no longer be reached,
    a sign floor the free items of a trait can no longer meet and a mixed-key
    count outside what the remaining blocks can reach.
    """

    def __init__(self, cands: list[CandidatePair], cfg: AssemblyConfig):
        self.cands = cands
        self.cfg = cfg
        items = sorted({i for c in cands for i in (c.left, c.right)})
        index = {item: i for i, item in enumerate(items)}
        self.trait = [0] * len(items)
        self.positive = [0] * len(items)
        # per item: (squared gap, candidate index, partner, pair group,
        # mixed-key flag, gap), in the order the item's partners are tried
        self.options: list[list[tuple]] = [[] for _ in items]
        for k, c in enumerate(cands):
            a, b = index[c.left], index[c.right]
            self.trait[a], self.positive[a] = c.left_trait, int(c.left_key > 0)
            self.trait[b], self.positive[b] = c.right_trait, int(c.right_key > 0)
            self.options[a].append((c.sq, k, b, c.pair_group, int(c.mixed_key), c.gap))
            self.options[b].append((c.sq, k, a, c.pair_group, int(c.mixed_key), c.gap))
        for opts in self.options:
            opts.sort()
        self.nodes = 0
        self.budget_hit = False

    def search(self, cap: float = math.inf) -> list[CandidatePair] | None:
        """The first selection found that meets every constraint with every
        gap strictly below ``cap``, or None."""
        cfg = self.cfg
        trait, positive = self.trait, self.positive
        options = [[o for o in opts if o[5] < cap] for opts in self.options]
        n_items = len(trait)
        p = cfg.block_count
        per_trait = cfg.per_trait
        # a trait appears at most once per block, so p never binds
        trait_cap = p if per_trait is None else per_trait
        pair_cap = p if cfg.per_trait_pair is None else cfg.per_trait_pair
        mixed_lo, mixed_hi = cfg.mixed_key_range or (0, p)
        sign = _sign_range(cfg)
        limit = math.inf if cfg.node_budget is None else cfg.node_budget
        free = [True] * n_items
        free_n = [0] * 5  # free items per trait
        free_plus = [0] * 5  # free positively keyed items per trait
        for t, pos in zip(trait, positive):
            free_n[t] += 1
            free_plus[t] += pos
        trait_counts = [0] * 5
        pair_counts = [0] * 10
        plus = [0] * 5
        chosen: list[int] = []
        found: list[int] | None = None
        nodes = self.nodes

        def dfs(depth: int, mixed: int) -> bool:
            nonlocal nodes, found
            nodes += 1
            if nodes > limit:
                self.budget_hit = True
                return True  # unwind
            need = p - depth
            if need == 0:
                if _complete(cfg, trait_counts, pair_counts, plus, mixed):
                    found = sorted(chosen)
                    return True
                return False
            if mixed > mixed_hi or mixed + need < mixed_lo:
                return False
            n_free = sum(free_n)
            if n_free < 2 * need:
                return False
            if per_trait is not None:
                for t in range(5):
                    if trait_counts[t] + free_n[t] < per_trait:
                        return False
                    if sign is not None:
                        n_plus, n_minus = plus[t], trait_counts[t] - plus[t]
                        if (
                            n_plus > sign[1]
                            or n_minus > sign[1]
                            or n_plus + free_plus[t] < sign[0]
                            or n_minus + free_n[t] - free_plus[t] < sign[0]
                        ):
                            return False
            # whether a trait's free items outnumber what it still needs
            if per_trait is None:
                spare = [n_free > 2 * need] * 5
            else:
                spare = [free_n[t] > per_trait - trait_counts[t] for t in range(5)]

            # the free item with the fewest options, the first in id order on ties
            pick, fewest, partners = -1, n_items + 1, []
            for i in range(n_items):
                if not free[i]:
                    continue
                t = trait[i]
                allowed = []
                if trait_counts[t] < trait_cap:
                    allowed = [
                        o for o in options[i]
                        if free[o[2]]
                        and pair_counts[o[3]] < pair_cap
                        and trait_counts[trait[o[2]]] < trait_cap
                    ]
                count = len(allowed) + spare[t]
                if count == 0:
                    return False
                if count < fewest:
                    pick, fewest, partners = i, count, allowed

            i = pick
            t, pos_i = trait[i], positive[i]
            free[i] = False
            free_n[t] -= 1
            free_plus[t] -= pos_i
            stop = False
            for _, k, j, g, mk, _ in partners:
                u, pos_j = trait[j], positive[j]
                free[j] = False
                free_n[u] -= 1
                free_plus[u] -= pos_j
                trait_counts[t] += 1
                trait_counts[u] += 1
                pair_counts[g] += 1
                plus[t] += pos_i
                plus[u] += pos_j
                chosen.append(k)
                stop = dfs(depth + 1, mixed + mk)
                chosen.pop()
                free[j] = True
                free_n[u] += 1
                free_plus[u] += pos_j
                trait_counts[t] -= 1
                trait_counts[u] -= 1
                pair_counts[g] -= 1
                plus[t] -= pos_i
                plus[u] -= pos_j
                if stop:
                    break
            if not stop and spare[t]:
                stop = dfs(depth, mixed)
            free[i] = True
            free_n[t] += 1
            free_plus[t] += pos_i
            return stop

        dfs(0, 0)
        del dfs  # break the closure's reference cycle, as in _Search.search
        self.nodes = nodes
        return None if found is None else [self.cands[k] for k in found]


class _Search:
    """Stage 2's branch and bound on total squared mismatch, over candidates
    in id order with constraint pruning.

    ``__init__`` turns each candidate into one row of plain ints and a float,
    and the set of used items into an int bitmask, so that a node of the DFS
    does no attribute or dict lookups.
    """

    def __init__(self, cands: list[CandidatePair], cfg: AssemblyConfig):
        self.cands = cands
        self.cfg = cfg
        self.n = len(cands)
        self.p = cfg.block_count
        bit: dict[str, int] = {}
        for c in cands:
            for item in (c.left, c.right):
                bit.setdefault(item, 1 << len(bit))
        # (item mask, pair group, left trait, right trait,
        #  traits keyed positive, mixed-key flag, squared gap)
        self.rows = [
            (
                bit[c.left] | bit[c.right],
                c.pair_group,
                c.left_trait,
                c.right_trait,
                tuple(
                    t
                    for t, k in ((c.left_trait, c.left_key), (c.right_trait, c.right_key))
                    if k > 0
                ),
                int(c.mixed_key),
                c.sq,
            )
            for c in cands
        ]
        # suffix availability counts, index i covers candidates i..n-1
        self.suf_pair = [[0] * 10 for _ in range(self.n + 1)]
        self.suf_mixed = [0] * (self.n + 1)
        self.suf_plus = [[0] * 5 for _ in range(self.n + 1)]
        self.suf_min_sq_pair = [[math.inf] * 10 for _ in range(self.n + 1)]
        self.suf_min_sq = [math.inf] * (self.n + 1)
        for i in range(self.n - 1, -1, -1):
            c = cands[i]
            self.suf_pair[i] = list(self.suf_pair[i + 1])
            self.suf_pair[i][c.pair_group] += 1
            self.suf_mixed[i] = self.suf_mixed[i + 1] + c.mixed_key
            self.suf_plus[i] = list(self.suf_plus[i + 1])
            for t in self.rows[i][4]:
                self.suf_plus[i][t] += 1
            self.suf_min_sq_pair[i] = list(self.suf_min_sq_pair[i + 1])
            self.suf_min_sq_pair[i][c.pair_group] = min(
                self.suf_min_sq_pair[i][c.pair_group], c.sq
            )
            self.suf_min_sq[i] = min(self.suf_min_sq[i + 1], c.sq)
        self.nodes = 0
        self.budget = cfg.node_budget
        self.budget_hit = False

    def search(self) -> tuple[list[CandidatePair] | None, float]:
        """The selection of least total squared mismatch and that total; the
        first such selection in candidate order wins a tie."""
        cfg = self.cfg
        rows, n, p = self.rows, self.n, self.p
        suf_pair, suf_mixed, suf_plus = self.suf_pair, self.suf_mixed, self.suf_plus
        suf_min_sq_pair, suf_min_sq = self.suf_min_sq_pair, self.suf_min_sq
        per_pair = cfg.per_trait_pair
        per_trait = cfg.per_trait
        check_mixed = cfg.mixed_key_range is not None
        mixed_lo, mixed_hi = cfg.mixed_key_range if check_mixed else (0, 0)
        sign = _sign_range(cfg)
        if sign is not None:
            plo, phi = sign
        limit = math.inf if self.budget is None else self.budget
        best: list[int] | None = None
        best_val = math.inf
        sel: list[int] = []
        trait_counts = [0] * 5
        pair_counts = [0] * 10
        plus = [0] * 5
        nodes = self.nodes
        # running total, updated in place: the reported optimum is this sum
        sse = 0.0

        def dfs(i: int, depth: int, mixed: int, used: int) -> bool:
            nonlocal nodes, sse, best, best_val
            nodes += 1
            if nodes > limit:
                self.budget_hit = True
                return True  # unwind
            need = p - depth
            if need == 0:
                # leaf: the selection must meet every constraint exactly
                if sse < best_val - 1e-15 and _complete(
                    cfg, trait_counts, pair_counts, plus, mixed
                ):
                    best = list(sel)
                    best_val = sse
                return False
            # can candidates i..n-1 still complete the selection?
            if n - i < need:
                return False
            if check_mixed:
                if mixed > mixed_hi:
                    return False
                if mixed + min(need, suf_mixed[i]) < mixed_lo:
                    return False
            if sign is not None:
                for have, left in zip(plus, suf_plus[i]):
                    if have > phi or have + left < plo:
                        return False
            # the candidate loop below never fills a trait or trait pair past
            # its cap, so a pair group fails only when too few candidates are
            # left for it
            bound = sse
            if per_pair is not None:
                for have, left, min_sq in zip(pair_counts, suf_pair[i], suf_min_sq_pair[i]):
                    need_g = per_pair - have
                    if need_g > 0:
                        if left < need_g:
                            return False
                        bound += need_g * min_sq
            else:
                bound += need * suf_min_sq[i]
            if bound >= best_val - 1e-15:
                return False
            # past n - need too few candidates are left to fill the selection
            for j in range(i, n - need + 1):
                mask, g, lt, rt, pos, mk, sq = rows[j]
                if used & mask:
                    continue
                if per_pair is not None and pair_counts[g] >= per_pair:
                    continue
                if per_trait is not None and (
                    trait_counts[lt] >= per_trait or trait_counts[rt] >= per_trait
                ):
                    continue
                sel.append(j)
                trait_counts[lt] += 1
                trait_counts[rt] += 1
                pair_counts[g] += 1
                sse += sq
                for t in pos:
                    plus[t] += 1
                stop = dfs(j + 1, depth + 1, mixed + mk, used | mask)
                sel.pop()
                trait_counts[lt] -= 1
                trait_counts[rt] -= 1
                pair_counts[g] -= 1
                sse -= sq
                for t in pos:
                    plus[t] -= 1
                if stop:
                    return True
            return False

        dfs(0, 0, 0, 0)
        # dfs holds itself through its closure, and with it every list above:
        # break that cycle so the search state is freed now, not at the next
        # garbage collection
        del dfs
        self.nodes = nodes
        chosen = None if best is None else [self.cands[j] for j in best]
        return chosen, best_val


def _diagnose_root(cands: list[CandidatePair], cfg: AssemblyConfig) -> str:
    """Name the first constraint family that is violated at the root relaxation."""
    if len(cands) < cfg.block_count:
        return "count"
    if len({i for c in cands for i in (c.left, c.right)}) < 2 * cfg.block_count:
        return "uniqueness"
    if cfg.per_trait_pair is not None:
        per_group = [0] * 10
        for c in cands:
            per_group[c.pair_group] += 1
        if any(n < cfg.per_trait_pair for n in per_group):
            return "domain-pair"
    if cfg.mixed_key_range is not None:
        n_mixed = sum(c.mixed_key for c in cands)
        if n_mixed < cfg.mixed_key_range[0]:
            return "mixed-key"
    return "combined"


def solve_stage1(
    cands: list[CandidatePair], cfg: AssemblyConfig
) -> tuple[float, list[CandidatePair]]:
    """Minimal feasible maximum desirability gap, with a feasible witness."""
    if not cands:
        raise InfeasibleError("no candidate pairs", "count")
    search = _ItemSearch(cands, cfg)
    best, witness = None, search.search()
    while witness is not None:
        best = witness
        # the next selection must beat this one's largest gap
        witness = search.search(max(c.gap for c in best))
    if search.budget_hit:
        raise BudgetExhaustedError("node budget exhausted during stage-1 feasibility")
    if best is None:
        raise InfeasibleError(
            "no selection satisfies the constraint set", _diagnose_root(cands, cfg)
        )
    return max(c.gap for c in best), best


def solve_stage2(
    cands: list[CandidatePair], cfg: AssemblyConfig, m_star: float
) -> AssemblySolution:
    """Minimize total squared mismatch subject to max gap <= m* + epsilon."""
    eligible = [c for c in cands if c.gap <= m_star + STAGE2_EPSILON]
    search = _Search(eligible, cfg)
    best, best_sse = search.search()
    if best is None:
        if search.budget_hit:
            raise BudgetExhaustedError(
                "node budget exhausted before stage 2 found a selection"
            )
        raise InfeasibleError("stage 2 infeasible under the stage-1 cap", "combined")
    proof = "budget-exhausted-best-known" if search.budget_hit else "optimal"
    blocks = tuple(GfcBlock(c.left, c.right, c.gap) for c in best)
    return AssemblySolution(
        inventory=Inventory(blocks), m_star=m_star, sse=best_sse, proof=proof
    )


def assemble(pool: ItemPool, cfg: AssemblyConfig) -> AssemblySolution:
    cands = enumerate_candidates(pool)
    m_star, _ = solve_stage1(cands, cfg)
    return solve_stage2(cands, cfg, m_star)


def brute_force_assemble(pool: ItemPool, cfg: AssemblyConfig) -> AssemblySolution:
    """Exact lexicographic optimum by exhaustive enumeration (test oracle).

    Walks every selection of ``block_count`` candidates that uses no item
    twice, in ``itertools.combinations`` order, and accepts a selection through
    ``validate_inventory`` only when its (max gap, total squared gap) beats the
    best so far: the first feasible optimum in that order wins a tie. Refuses
    instances beyond a hard cap rather than running unboundedly.
    """
    cands = enumerate_candidates(pool)
    n_items = len({i for c in cands for i in (c.left, c.right)})
    n_nodes = math.comb(len(cands), cfg.block_count) if cands else 0
    if len(cands) > 40 or n_items > 14 or n_nodes > 5_000_000:
        raise InstanceTooLargeError(
            f"instance too large for brute force: {len(cands)} candidates, {n_items} items"
        )
    def better(key: tuple[float, float], ref: tuple[float, float] | None) -> bool:
        if ref is None:
            return True
        if key[0] < ref[0] - 1e-15:
            return True
        if key[0] > ref[0] + 1e-15:
            return False
        return key[1] < ref[1] - 1e-15

    def disjoint(start: int, used: frozenset[str], sel: tuple[CandidatePair, ...]):
        if len(sel) == cfg.block_count:
            yield sel
            return
        for k in range(start, len(cands)):
            c = cands[k]
            if c.left not in used and c.right not in used:
                yield from disjoint(k + 1, used | {c.left, c.right}, sel + (c,))

    best: tuple[GfcBlock, ...] | None = None
    best_key: tuple[float, float] | None = None
    for sel in disjoint(0, frozenset(), ()):
        key = (max(c.gap for c in sel), sum(c.sq for c in sel))
        if not better(key, best_key):
            continue
        blocks = tuple(GfcBlock(c.left, c.right, c.gap) for c in sel)
        if validate_inventory(Inventory(blocks), pool, cfg).ok:
            best, best_key = blocks, key
    if best is None:
        raise InfeasibleError(
            "no feasible selection exists", _diagnose_root(cands, cfg)
        )
    return AssemblySolution(
        inventory=Inventory(best), m_star=best_key[0], sse=best_key[1], proof="optimal"
    )
