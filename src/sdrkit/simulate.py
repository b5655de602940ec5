"""Generative IRT simulator: offline respondent provider and scoring oracle.

The simulator is conjugate to the scorer by construction: it computes its
linear predictors eta = theta @ Lambda.T with the scorer's own loading matrix
(:func:`sdrkit.irt.loading_matrix`) and draws answers from the same
ordered-logistic kernel the estimator fits.
It answers the units of ``Inventory.units(fmt)``, the ones the scorer fits.
The fake-good condition is modeled as a uniform latent shift of ``delta``
per trait toward the socially desirable pole.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from pathlib import Path
from typing import Mapping, NamedTuple, Sequence

import numpy as np

from .administer import ProviderReply, SessionPlan, SessionUnit, keyed_uniform_table
from .core import (
    DESIRABLE_SIGNS,
    InstructionCondition,
    Inventory,
    ItemPool,
    N_CATEGORIES,
    ResponseFormat,
    ResponseSet,
    SdrkitError,
    Unit,
    naming,
    read_count,
    read_json,
    read_list,
    read_member,
    read_number,
)
from .irt import N_TRAITS, UnitKey, build_model_data, loading_matrix
from .ordinal import sigmoid
from .personas import Persona


def _thresholds(value, name: str) -> tuple:
    """``value`` as a tuple, if it is six finite, strictly increasing thresholds."""
    kappa = read_list(value, name, read_number, N_CATEGORIES - 1)
    for k in range(1, len(kappa)):
        read_number(kappa[k], f"{name}[{k}]", kappa[k - 1], above=True)
    return tuple(kappa)


@dataclass(frozen=True)
class ItemParams:
    a_plus: float
    keying: int
    trait: int  # index into (A, C, E, N, O)
    kappa: tuple[float, ...]  # 6 strictly increasing Likert thresholds

    def __post_init__(self) -> None:
        read_number(self.a_plus, "a_plus", 0, above=True)
        read_member(self.keying, "keying", (1, -1))
        read_count(self.trait, "trait", 0, N_TRAITS - 1)
        object.__setattr__(self, "kappa", _thresholds(self.kappa, "kappa"))

    @property
    def a_signed(self) -> float:
        return self.keying * self.a_plus


@dataclass(frozen=True)
class SimParams:
    items: Mapping[str, ItemParams]
    block_kappa: Mapping[str, tuple[float, ...]]  # block id -> 6 thresholds

    def __post_init__(self) -> None:
        object.__setattr__(self, "block_kappa", {
            bid: _thresholds(kappa, f"blocks.{bid}") for bid, kappa in self.block_kappa.items()
        })


@dataclass(frozen=True)
class SimSpec:
    fake_good_delta: float = 1.0
    seed: int = 0

    def __post_init__(self) -> None:
        read_number(self.fake_good_delta, "fake_good_delta", 0)


def effective_theta(
    z: np.ndarray, condition: InstructionCondition, delta: float
) -> np.ndarray:
    """Ground-truth traits, shifted toward desirability under fake-good."""
    z = np.asarray(z, dtype=float)
    if condition is InstructionCondition.FAKE_GOOD:
        return z + delta * DESIRABLE_SIGNS
    return z.copy()


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

    for block in inventory.units(ResponseFormat.GFC):
        a_left = float(rng.lognormal(mean=0.0, sigma=0.25))
        a_right = a_left if matched_discrimination else float(rng.lognormal(0.0, 0.25))
        for iid, a in zip(block.statements, (a_left, a_right)):
            it = pool.get(iid)
            items[iid] = ItemParams(
                a_plus=a, keying=it.keying, trait=it.domain.index, kappa=draw_kappa()
            )
        block_kappa[block.id] = draw_kappa()
    return SimParams(items=items, block_kappa=block_kappa)


def simulate_table(
    personas: Sequence[Persona],
    fmt: ResponseFormat,
    condition: InstructionCondition,
    units: Sequence[Unit],
    params: SimParams,
    spec: SimSpec,
) -> np.ndarray:
    """Draw every persona's (rows) canonical answers to ``units`` (columns;
    anything with a Unit's ``id`` and ``statements``) in one vectorized pass
    (GFC: as if each pair were shown unflipped).

    Each answer's uniform is the first draw of its own keyed stream,
    ``keyed_rng(seed, persona, format, unit)``, drawn for the whole table at
    once by ``keyed_uniform_table``, and every step after it is elementwise;
    so an answer does not depend on which other personas or units are drawn
    with it or in what order, down to the bit. The noise is keyed per unit,
    not per condition, so delta = 0 reproduces honest answers bit for bit
    and paired draws share their noise.
    """
    z = np.array([p.z for p in personas], dtype=float).reshape(-1, N_TRAITS)
    theta = effective_theta(z, condition, spec.fake_good_delta)
    paired = fmt is ResponseFormat.GFC
    # GFC: statements in block order (left, right, left, ...)
    items = [_param(params.items, i, "item parameters") for u in units for i in u.statements]
    if paired:
        kappa = [_param(params.block_kappa, u.id, "block thresholds") for u in units]
        if any(left.trait == right.trait for left, right in zip(items[::2], items[1::2])):
            raise SdrkitError("GFC pair must span two different traits")
    else:
        kappa = [item.kappa for item in items]
    eta = theta @ loading_matrix(np.array([it.trait for it in items], dtype=int),
                                 np.array([it.a_signed for it in items]), paired).T
    u = keyed_uniform_table(
        spec.seed, [(p.id, fmt.value) for p in personas], [unit.id for unit in units]
    )
    # P(Y <= k) for k = 1..6; ItemParams and SimParams checked the thresholds
    # at construction
    cdf = sigmoid(np.array(kappa).reshape(-1, 6) - eta[..., None])
    return (cdf <= u[..., None]).sum(axis=-1) + 1


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
    units = inventory.units(fmt)
    order = tuple(u.id for u in units)
    answers = simulate_table([persona], fmt, condition, units, params, spec)[0]
    return ResponseSet(
        respondent_id="sim",
        persona_id=persona.id,
        format=fmt,
        condition=condition,
        answers=dict(zip(order, answers.tolist())),
        presentation_order=order,
        side_assignment={},
    )


def check_sim_params(
    params: SimParams, inventory: Inventory, pool: ItemPool, fmt: ResponseFormat
) -> None:
    """Raise unless ``params`` answers every unit of ``inventory`` in ``fmt``
    from the pool's item model: each unit needs its item parameters (and, for
    GFC, its block thresholds), and each item the pool's keying and trait."""
    for unit in inventory.units(fmt):
        if fmt is ResponseFormat.GFC:
            _param(params.block_kappa, unit.id, "block thresholds")
        for iid in unit.statements:
            got, item = _param(params.items, iid, "item parameters"), pool.get(iid)
            if (got.keying, got.trait) != (item.keying, item.domain.index):
                raise SdrkitError(
                    f"simulator params disagree with the pool on item {iid!r}: keying "
                    f"{got.keying} and trait {got.trait}, but the pool has keying "
                    f"{item.keying} and trait {item.domain.index} ({item.domain.name})"
                )


def _param(table: Mapping, key: str, what: str):
    value = table.get(key)
    if value is None:
        raise SdrkitError(f"missing {what} for {key!r}")
    return value


class _Drawn(NamedTuple):
    """A plan's canonical answers: ``row[columns[unit id]]``."""

    plan: SessionPlan
    columns: dict[str, int]
    row: list[int]


#: personas per answer table that :meth:`SimulatorProvider.prepare` draws.
#: The 600 sessions of 150 personas on the packaged instrument drew in 150 ms
#: one plan at a time, 32 ms in tables of 16, 27 ms of 32 and 26 ms of 150,
#: with traced peaks of 0.3, 0.6 and 2.6 MB for 16, 32 and 150 (2-vCPU host)
TABLE_PERSONAS = 32


#: the reply to answer k (1..7) is ``_REPLIES[k]``, shared by every unit: replies are frozen
_REPLIES = [ProviderReply(text=str(k)) for k in range(8)]


class SimulatorProvider:
    """In-process respondent provider (provider id ``sim``).

    Answers from the plan (the persona's ground truth and the condition) and
    the unit (its id and displayed side), never from prompt text. It holds the
    latest stage: the plans :meth:`prepare` drew, or one plan drawn alone when
    asked for a plan it did not hold. Plans are matched by identity.
    """

    model_id = "sim"

    def __init__(self, params: SimParams, spec: SimSpec):
        self.params = params
        self.spec = spec
        self._stage: dict[int, _Drawn] = {}  # id(plan) -> the plan's answers

    def prepare(self, plans: Sequence[SessionPlan]) -> None:
        """Draw every plan's answers, a table per format, condition and unit
        set, and hold them as the stage."""
        self._stage = {}  # let the last stage go before drawing
        groups: dict[tuple, list[SessionPlan]] = {}
        for plan in plans:
            units = frozenset((u.id, u.statements) for u in plan.units)
            groups.setdefault((plan.format, plan.condition, units), []).append(plan)
        # each entry holds its plan, so no other live plan can share its id
        self._stage = {id(d.plan): d for group in groups.values() for d in self._draw(group)}

    def _draw(self, plans: Sequence[SessionPlan]) -> list[_Drawn]:
        """The answers of ``plans``, which share a format, a condition and a
        unit set, in one :func:`simulate_table` per ``TABLE_PERSONAS`` plans."""
        first = plans[0]
        columns = {u.id: k for k, u in enumerate(first.units)}
        drawn = []
        for start in range(0, len(plans), TABLE_PERSONAS):
            chunk = plans[start : start + TABLE_PERSONAS]
            rows = simulate_table(
                [plan.persona for plan in chunk], first.format, first.condition, first.units,
                self.params, self.spec,
            ).tolist()
            drawn += [_Drawn(plan, columns, row) for plan, row in zip(chunk, rows)]
        return drawn

    def complete(self, plan: SessionPlan, unit: SessionUnit) -> ProviderReply:
        drawn = self._stage.get(id(plan))
        if drawn is None:  # answer from the local: a concurrent session may replace the stage
            drawn = self._draw([plan])[0]
            self._stage = {id(plan): drawn}
        column = drawn.columns.get(unit.id)
        if column is None:
            raise SdrkitError(f"unit {unit.id!r} is not in its session plan")
        answer = drawn.row[column]
        return _REPLIES[8 - answer if unit.flipped else answer]


def naive_gfc_count_scores(
    response_sets: list[ResponseSet], inventory: Inventory, pool: ItemPool
) -> dict[UnitKey, np.ndarray]:
    """Naive per-trait 'chosen side' counts for GFC responses, keyed by
    (respondent, persona, condition) as the scorer's response units are.

    Each block awards one point to the chosen statement's trait (half a point
    to each side at the scale midpoint), so every response set's five counts
    sum to the block count: the ipsativity pathology this toolkit's
    model-based scoring exists to avoid.
    """
    if any(rs.format is not ResponseFormat.GFC for rs in response_sets):
        raise SdrkitError("count scoring applies to GFC response sets")
    data = build_model_data(response_sets, inventory, pool, ResponseFormat.GFC)
    y, trait_idx = data.y, data.design.trait_idx  # statements in block order
    ones = np.ones(y.shape[1])
    left, right = (loading_matrix(trait_idx[side::2], ones, paired=False) for side in (0, 1))
    tie = 0.5 * (y == 4)
    scores = ((y < 4) + tie) @ left + ((y > 4) + tie) @ right
    return dict(zip(data.units, scores))


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


def _sim_params(raw: dict) -> SimParams:
    items = {}
    for iid, d in raw["items"].items():
        with naming(f"items.{iid}."):
            items[iid] = ItemParams(d["a_plus"], d["keying"], d["trait"], d["kappa"])
    return SimParams(items=items, block_kappa=raw["blocks"])


def load_sim_params(path: str | Path) -> SimParams:
    return read_json(path, _sim_params, "simulator params")
