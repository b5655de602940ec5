"""Generative IRT simulator: offline respondent provider and scoring oracle.

The simulator draws responses from the same ordered-logistic kernel the
estimator fits, so simulated data and the scoring model are exactly
conjugate. The fake-good condition is modeled as a uniform latent shift of
``delta`` per trait toward the socially desirable pole.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass
from pathlib import Path
from typing import Mapping

import numpy as np

from .administer import ProviderReply, ProviderRequest, block_id, keyed_rng
from .core import (
    DESIRABLE_DIRECTION,
    InstructionCondition,
    Inventory,
    ItemPool,
    ResponseFormat,
    ResponseSet,
    SdrkitError,
    TRAIT_ORDER,
)
from .ordinal import _category_probs, check_thresholds
from .personas import Persona

INV_SQRT2 = 1.0 / math.sqrt(2.0)

#: Per-trait sign of the socially desirable direction, (A, C, E, N, O) order.
DESIRABLE_SIGNS = np.array([DESIRABLE_DIRECTION[t] for t in TRAIT_ORDER], dtype=float)


@dataclass(frozen=True)
class ItemParams:
    a_plus: float
    keying: int
    trait: int  # index into (A, C, E, N, O)
    kappa: tuple[float, ...]  # 6 strictly increasing Likert thresholds

    def __post_init__(self) -> None:
        if self.a_plus <= 0:
            raise SdrkitError("discrimination strength must be positive")
        check_thresholds(np.asarray(self.kappa))

    @property
    def a_signed(self) -> float:
        return self.keying * self.a_plus


@dataclass(frozen=True)
class SimParams:
    items: Mapping[str, ItemParams]
    block_kappa: Mapping[str, tuple[float, ...]]  # block id -> 6 thresholds

    def __post_init__(self) -> None:
        for kappa in self.block_kappa.values():
            check_thresholds(np.asarray(kappa))


@dataclass(frozen=True)
class SimSpec:
    fake_good_delta: float = 1.0
    seed: int = 0

    def __post_init__(self) -> None:
        if not math.isfinite(self.fake_good_delta) or self.fake_good_delta < 0:
            raise SdrkitError("fake-good shift must be finite and nonnegative")


def likert_eta(theta: np.ndarray, item: ItemParams) -> float:
    """Linear predictor for a single-stimulus response: keyed discrimination
    times the trait score the item loads on."""
    return float(item.a_signed * theta[item.trait])


def gfc_eta(theta: np.ndarray, left: ItemParams, right: ItemParams) -> float:
    """Scaled right-minus-left latent utility difference for a block."""
    if left.trait == right.trait:
        raise SdrkitError("GFC pair must span two different traits")
    mu_left = left.a_signed * theta[left.trait]
    mu_right = right.a_signed * theta[right.trait]
    return float((mu_right - mu_left) * INV_SQRT2)


def effective_theta(
    z: np.ndarray, condition: InstructionCondition, delta: float
) -> np.ndarray:
    """Ground-truth traits, shifted toward desirability under fake-good."""
    z = np.asarray(z, dtype=float)
    if condition is InstructionCondition.FAKE_GOOD:
        return z + delta * DESIRABLE_SIGNS
    return z.copy()


def _draw_category(eta: float, kappa, rng: np.random.Generator) -> int:
    # ItemParams and SimParams checked the thresholds at construction
    probs = _category_probs(eta, np.asarray(kappa, dtype=float))
    return int(np.searchsorted(np.cumsum(probs), rng.random(), side="right")) + 1


def default_sim_params(
    inventory: Inventory,
    pool: ItemPool,
    seed: int = 0,
    matched_discrimination: bool = False,
) -> SimParams:
    """Informative default item parameters for simulation studies.

    Discrimination strengths are log-normal (mu 0, sigma 0.25); thresholds are
    sorted uniform draws on [-2, 2]. With ``matched_discrimination`` the two
    statements of each block share one strength draw, which makes the blocks'
    comparative signal insensitive to a uniform desirability shift.
    """
    rng = np.random.default_rng(seed)
    items: dict[str, ItemParams] = {}
    block_kappa: dict[str, tuple[float, ...]] = {}

    def draw_kappa() -> tuple[float, ...]:
        while True:
            k = np.sort(rng.uniform(-2.0, 2.0, size=6))
            if np.all(np.diff(k) > 1e-3):
                return tuple(float(v) for v in k)

    for b in inventory.blocks:
        a_left = float(rng.lognormal(mean=0.0, sigma=0.25))
        a_right = a_left if matched_discrimination else float(rng.lognormal(0.0, 0.25))
        for iid, a in ((b.left, a_left), (b.right, a_right)):
            it = pool.get(iid)
            items[iid] = ItemParams(
                a_plus=a, keying=it.keying, trait=it.domain.index, kappa=draw_kappa()
            )
        block_kappa[block_id(b.left, b.right)] = draw_kappa()
    return SimParams(items=items, block_kappa=block_kappa)


def simulate_answer(
    persona: Persona,
    fmt: ResponseFormat,
    condition: InstructionCondition,
    unit_id: str,
    params: SimParams,
    spec: SimSpec,
) -> int:
    """Draw one canonical answer (GFC: as if the pair were shown unflipped).

    The noise is keyed per unit, not per condition, so delta = 0 reproduces
    honest answers bit for bit and paired draws share their noise.
    """
    theta = effective_theta(persona.z, condition, spec.fake_good_delta)
    if fmt is ResponseFormat.LIKERT:
        item = _item_params(params, unit_id)
        eta, kappa = likert_eta(theta, item), item.kappa
    else:
        kappa = params.block_kappa.get(unit_id)
        if kappa is None:
            raise SdrkitError(f"missing block thresholds for {unit_id}")
        left, _, right = unit_id.partition("~")  # the inverse of block_id
        eta = gfc_eta(theta, _item_params(params, left), _item_params(params, right))
    rng = keyed_rng(spec.seed, persona.id, fmt.value, unit_id)
    return _draw_category(eta, kappa, rng)


def simulate_response_set(
    persona: Persona,
    inventory: Inventory,
    params: SimParams,
    fmt: ResponseFormat,
    condition: InstructionCondition,
    spec: SimSpec,
) -> ResponseSet:
    """Draw a complete response set in canonical unit order.

    Deterministic under ``spec.seed``; per-unit RNG streams make parallel
    simulation identical to serial simulation.
    """
    if fmt is ResponseFormat.LIKERT:
        order = inventory.statements
    else:
        order = tuple(block_id(b.left, b.right) for b in inventory.blocks)
    return ResponseSet(
        respondent_id="sim",
        persona_id=persona.id,
        format=fmt,
        condition=condition,
        answers={
            uid: simulate_answer(persona, fmt, condition, uid, params, spec) for uid in order
        },
        presentation_order=order,
        side_assignment={},
    )


def _item_params(params: SimParams, item_id: str) -> ItemParams:
    ip = params.items.get(item_id)
    if ip is None:
        raise SdrkitError(f"missing item parameters for {item_id!r}")
    return ip


class SimulatorProvider:
    """In-process respondent provider (provider id ``sim``).

    Answers from the session plan a request carries: the persona's ground
    truth, the condition, the unit and the displayed side. The prompt text is
    not read. Stateless per call and safe to use from concurrent sessions.
    """

    model_id = "sim"

    def __init__(self, params: SimParams, spec: SimSpec):
        self.params = params
        self.spec = spec

    def complete(self, request: ProviderRequest) -> ProviderReply:
        plan, unit = request.plan, request.unit
        if plan is None or unit is None:
            raise SdrkitError("simulator requests must carry their session plan and unit")
        answer = simulate_answer(
            plan.persona, plan.format, plan.condition, unit.id, self.params, self.spec
        )
        return ProviderReply(text=str(8 - answer if unit.flipped else answer))


def naive_gfc_count_scores(
    response_sets: list[ResponseSet], inventory: Inventory, pool: ItemPool
) -> dict[str, np.ndarray]:
    """Naive per-trait 'chosen side' counts for GFC responses.

    Each block awards one point to the chosen statement's trait (half a point
    to each side at the scale midpoint), so every respondent's five counts sum
    to the block count: the ipsativity pathology this toolkit's model-based
    scoring exists to avoid.
    """
    blocks = {block_id(b.left, b.right): b for b in inventory.blocks}
    out: dict[str, np.ndarray] = {}
    for rs in response_sets:
        if rs.format is not ResponseFormat.GFC:
            raise SdrkitError("count scoring applies to GFC response sets")
        scores = np.zeros(5)
        for bid, answer in rs.answers.items():
            b = blocks[bid]
            y = 8 - answer if rs.side_assignment.get(bid, False) else answer
            lt = pool.get(b.left).domain.index
            rt = pool.get(b.right).domain.index
            if y > 4:
                scores[rt] += 1.0
            elif y < 4:
                scores[lt] += 1.0
            else:
                scores[lt] += 0.5
                scores[rt] += 0.5
        out[rs.persona_id] = scores
    return out


# ---------------------------------------------------------------------------
# Parameter file I/O
# ---------------------------------------------------------------------------


def write_sim_params(params: SimParams, path: str | Path) -> None:
    payload = {
        "items": {
            iid: {
                "a_plus": ip.a_plus,
                "keying": ip.keying,
                "trait": ip.trait,
                "kappa": list(ip.kappa),
            }
            for iid, ip in params.items.items()
        },
        "blocks": {bid: list(k) for bid, k in params.block_kappa.items()},
    }
    Path(path).write_text(json.dumps(payload, indent=2), encoding="utf-8")


def load_sim_params(path: str | Path) -> SimParams:
    raw = json.loads(Path(path).read_text(encoding="utf-8"))
    items = {
        iid: ItemParams(
            a_plus=d["a_plus"], keying=d["keying"], trait=d["trait"], kappa=tuple(d["kappa"])
        )
        for iid, d in raw["items"].items()
    }
    blocks = {bid: tuple(k) for bid, k in raw["blocks"].items()}
    return SimParams(items=items, block_kappa=blocks)
