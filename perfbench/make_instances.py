"""Regenerate ``assemble_instances.json``, the fixed assembly instances.

Each instance is a subset of the packaged marker pool (``per_trait`` items per
trait, at least two of each keying sign, so the standard sign floor can be
met) solved under ``AssemblyConfig.standard(10)``.  Exact solve time varies
by orders of magnitude between subsets, and some run for minutes, so the
benchmark does not draw instances at run time: this script screens random
subsets with a node budget, keeps those that solve to proven optimality
within the time window, and records their optimum ``(m_star, sse)``.

Instances are kept or dropped by wall time (``WINDOW_S``), so a rerun on
another machine, or on the same one under another load, can record other
instances: the file is not exactly reproducible, and the recorded JSON is
the reference.

    python3 perfbench/make_instances.py
"""

from __future__ import annotations

import dataclasses
import json
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))

import numpy as np  # noqa: E402

from sdrkit.assemble import BudgetExhaustedError, InfeasibleError, assemble  # noqa: E402
from sdrkit.core import AssemblyConfig, ItemPool, TRAIT_LABELS, load_item_pool  # noqa: E402

POOL = HERE.parent / "src" / "sdrkit" / "data" / "marker_inventory_pool.csv"
OUT = HERE / "assemble_instances.json"
BLOCKS = 10
NODE_BUDGET = 300_000
WINDOW_S = (0.2, 2.5)
COUNT = 4
SEED = 0


def draw_subset(pool: ItemPool, per_trait: int, rng: np.random.Generator) -> list[str]:
    ids: list[str] = []
    for trait in TRAIT_LABELS:
        items = [it for it in pool if it.domain.name == trait]
        while True:
            pick = rng.choice(len(items), size=per_trait, replace=False)
            signs = [items[i].keying for i in pick]
            if signs.count(1) >= 2 and signs.count(-1) >= 2:
                break
        ids.extend(items[i].id for i in sorted(pick))
    return sorted(ids)


def main() -> int:
    pool = load_item_pool(POOL)
    rng = np.random.default_rng(SEED)
    screen = dataclasses.replace(AssemblyConfig.standard(BLOCKS), node_budget=NODE_BUDGET)
    found: list[dict] = []
    seen: set[tuple[str, ...]] = set()
    while len(found) < COUNT:
        per_trait = int(rng.choice([4, 5]))
        ids = draw_subset(pool, per_trait, rng)
        if tuple(ids) in seen:
            continue
        seen.add(tuple(ids))
        subset = ItemPool(tuple(it for it in pool if it.id in set(ids)))
        start = time.perf_counter()
        try:
            sol = assemble(subset, screen)
        except (InfeasibleError, BudgetExhaustedError):
            continue
        elapsed = time.perf_counter() - start
        if sol.proof != "optimal" or not WINDOW_S[0] <= elapsed <= WINDOW_S[1]:
            continue
        found.append({"items": ids, "m_star": sol.m_star, "sse": sol.sse})
        print(f"instance {len(found)}: {len(ids)} items, {elapsed:.2f} s", file=sys.stderr)
    payload = {"block_count": BLOCKS, "pool": "marker_inventory_pool.csv", "instances": found}
    OUT.write_text(json.dumps(payload, indent=1) + "\n", encoding="utf-8")
    return 0


if __name__ == "__main__":
    sys.exit(main())
