"""Domain types for statements, blocks, inventories, and response data.

Everything here is immutable after construction and safe to share across
threads. File formats are line-oriented CSV with fixed headers (see the
``read_*`` / ``write_*`` helpers).
"""

from __future__ import annotations

import csv
import enum
import json
import numbers
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable, Iterable, Iterator, Mapping, Sequence

import numpy as np


class SdrkitError(Exception):
    """Base class for all package errors."""


class PoolError(SdrkitError):
    """Malformed or inconsistent item pool data."""


class InventoryError(SdrkitError):
    """Inventory references items that cannot be resolved."""


class UndefinedStatisticError(SdrkitError):
    """A statistic has no defined value for the given data (e.g. zero variance)."""


class TraitDomain(enum.Enum):
    """Big Five trait domains, in fixed (A, C, E, N, O) index order."""

    A = 0  # agreeableness
    C = 1  # conscientiousness
    E = 2  # extraversion
    N = 3  # neuroticism
    O = 4  # openness

    @property
    def index(self) -> int:
        return self.value

    @classmethod
    def from_label(cls, label: str) -> "TraitDomain":
        try:
            return cls[label.strip().upper()]
        except KeyError:
            raise PoolError(f"unknown domain label: {label!r}") from None


TRAIT_ORDER: tuple[TraitDomain, ...] = tuple(TraitDomain)
TRAIT_LABELS: tuple[str, ...] = tuple(t.name for t in TRAIT_ORDER)

#: Desirability-direction multiplier: endorsing high A/C/E/O is socially
#: desirable, low N is. Used by the effect-size direction correction.
DESIRABLE_DIRECTION: dict[TraitDomain, int] = {
    TraitDomain.A: +1,
    TraitDomain.C: +1,
    TraitDomain.E: +1,
    TraitDomain.N: -1,
    TraitDomain.O: +1,
}

#: Per-trait sign of the socially desirable direction, (A, C, E, N, O) order.
DESIRABLE_SIGNS = np.array([DESIRABLE_DIRECTION[t] for t in TRAIT_ORDER], dtype=float)
DESIRABLE_SIGNS.setflags(write=False)

N_CATEGORIES = 7  # both response formats use a 7-point scale


@dataclass(frozen=True)
class Item:
    id: str
    text: str
    domain: TraitDomain
    keying: int  # +1 positively keyed, -1 negatively keyed
    desirability: float | None = None  # 1..9 scale, None until rated

    def __post_init__(self) -> None:
        if self.keying not in (+1, -1):
            raise PoolError(f"item {self.id!r}: keying must be +1 or -1, got {self.keying}")
        if not self.text:
            raise PoolError(f"item {self.id!r}: empty statement text")
        if self.desirability is not None and not (1.0 <= self.desirability <= 9.0):
            raise PoolError(
                f"item {self.id!r}: desirability {self.desirability} outside [1, 9]"
            )


@dataclass(frozen=True)
class ItemPool:
    items: tuple[Item, ...]

    def __post_init__(self) -> None:
        seen: set[str] = set()
        for it in self.items:
            if it.id in seen:
                raise PoolError(f"duplicate item id: {it.id!r}")
            seen.add(it.id)

    def __len__(self) -> int:
        return len(self.items)

    def __iter__(self):
        return iter(self.items)

    def get(self, item_id: str) -> Item:
        item = self.by_id().get(item_id)
        if item is None:
            raise InventoryError(f"unresolved item id: {item_id!r}")
        return item

    def by_id(self) -> dict[str, Item]:
        # dataclass is frozen; cache on first use
        cache = self.__dict__.get("_by_id")
        if cache is None:
            cache = {it.id: it for it in self.items}
            self.__dict__["_by_id"] = cache
        return cache

    def with_desirability(self, scores: Mapping[str, float]) -> "ItemPool":
        """Return a copy with desirability scores attached from ``scores``."""
        missing = [it.id for it in self.items if it.id not in scores]
        if missing:
            raise PoolError(f"no desirability score for items: {missing[:5]}")
        items = tuple(
            Item(it.id, it.text, it.domain, it.keying, float(scores[it.id]))
            for it in self.items
        )
        return ItemPool(items)


@dataclass(frozen=True)
class GfcBlock:
    left: str
    right: str
    desirability_gap: float

    def __post_init__(self) -> None:
        if self.left == self.right:
            raise InventoryError(f"block pairs item {self.left!r} with itself")
        if self.desirability_gap < 0:
            raise InventoryError("desirability gap must be nonnegative")


class ResponseFormat(enum.Enum):
    LIKERT = "likert"
    GFC = "gfc"


def block_id(left: str, right: str) -> str:
    """The unit id of the GFC block that pairs ``left`` with ``right``."""
    return f"{left}~{right}"


@dataclass(frozen=True)
class Unit:
    """One answered question: a statement (Likert) or a block (GFC)."""

    id: str  # item id (Likert) or block id (GFC)
    statements: tuple[str, ...]  # its item ids: (item,) or (left, right)


@dataclass(frozen=True)
class Inventory:
    blocks: tuple[GfcBlock, ...]

    @property
    def block_count(self) -> int:
        return len(self.blocks)

    @property
    def statements(self) -> tuple[str, ...]:
        """Item ids in block order (left, right, left, ...)."""
        return tuple(i for b in self.blocks for i in (b.left, b.right))

    def units(self, fmt: ResponseFormat) -> tuple[Unit, ...]:
        """The units answered in ``fmt``, in block order: one per statement
        (Likert) or one per block (GFC). An item used twice raises
        :class:`InventoryError`."""
        ids = self.statements
        if len(set(ids)) != len(ids):
            reused = sorted({i for i in ids if ids.count(i) > 1})
            raise InventoryError(f"inventory uses items in more than one block: {reused}")
        if fmt is ResponseFormat.GFC:
            return tuple(Unit(block_id(b.left, b.right), (b.left, b.right)) for b in self.blocks)
        return tuple(Unit(i, (i,)) for i in ids)


class InstructionCondition(enum.Enum):
    HONEST = "honest"
    FAKE_GOOD = "fake_good"


@dataclass(frozen=True)
class ResponseSet:
    respondent_id: str
    persona_id: str
    format: ResponseFormat
    condition: InstructionCondition
    answers: Mapping[str, int]  # unit id (item or block) -> 1..7
    presentation_order: tuple[str, ...]
    side_assignment: Mapping[str, bool] = field(default_factory=dict)  # block id -> flipped

    def __post_init__(self) -> None:
        for unit, ans in self.answers.items():
            if not (1 <= ans <= N_CATEGORIES):
                raise SdrkitError(f"answer for {unit!r} out of range: {ans}")
        if set(self.presentation_order) != set(self.answers):
            raise SdrkitError("presentation order does not cover exactly the answered units")


# ---------------------------------------------------------------------------
# Assembly configuration and validation
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class AssemblyConfig:
    """Constraint set for inventory assembly and validation.

    Defaults reproduce the published constraint set for a given block count
    ``P`` (divisible by 10): each trait appears 2P/5 times, each unordered
    trait pair P/10 times, mixed-key blocks within [0.4P, 0.6P], and each
    keying sign covers at least 30% of the selected items within each trait.
    Any of the balance targets may be disabled by passing ``None``.
    """

    block_count: int
    per_trait: int | None = None
    per_trait_pair: int | None = None
    mixed_key_range: tuple[int, int] | None = None
    sign_floor: float | None = 0.30
    node_budget: int | None = None

    def __post_init__(self) -> None:
        for name, low in (("block_count", 1), ("per_trait", 0), ("per_trait_pair", 0),
                          ("node_budget", 0)):
            value = getattr(self, name)
            if (value is not None or name == "block_count") and not _whole(value, low):
                raise SdrkitError(f"{name} must be an integer of at least {low}, got {value!r}")
        mixed = self.mixed_key_range
        if mixed is not None and not (
            isinstance(mixed, tuple) and len(mixed) == 2
            and all(_whole(v, 0) for v in mixed) and mixed[0] <= mixed[1]
        ):
            raise SdrkitError(f"mixed_key_range must be two integers 0 <= lo <= hi, got {mixed!r}")
        floor = self.sign_floor
        real = isinstance(floor, numbers.Real) and not isinstance(floor, bool)
        if floor is not None and not (real and 0.0 <= floor <= 1.0):
            raise SdrkitError(f"sign_floor must be a number in [0, 1], got {floor!r}")

    @classmethod
    def standard(cls, block_count: int = 30) -> "AssemblyConfig":
        if block_count % 10 != 0:
            raise SdrkitError("block count must be divisible by 10 for the standard config")
        p = block_count
        return cls(
            block_count=p,
            per_trait=2 * p // 5,
            per_trait_pair=p // 10,
            mixed_key_range=(int(0.4 * p + 0.5), int(0.6 * p + 0.5)),
        )


def _whole(value, low: int) -> bool:
    """Whether ``value`` is an integer of at least ``low`` (booleans are not)."""
    return isinstance(value, numbers.Integral) and not isinstance(value, bool) and value >= low


@dataclass(frozen=True)
class ConstraintCheck:
    name: str
    passed: bool
    detail: str = ""


@dataclass(frozen=True)
class ConstraintReport:
    checks: tuple[ConstraintCheck, ...]
    trait_counts: dict[str, int]
    trait_pair_counts: dict[tuple[str, str], int]
    mixed_key_count: int
    sign_counts: dict[str, tuple[int, int]]  # trait -> (n_plus, n_minus)
    max_gap: float
    mean_gap: float

    @property
    def ok(self) -> bool:
        return all(c.passed for c in self.checks)

    def failed(self) -> list[str]:
        return [c.name for c in self.checks if not c.passed]


def validate_inventory(
    inv: Inventory,
    pool: ItemPool,
    cfg: AssemblyConfig,
    gap_tol: float = 1e-12,
) -> ConstraintReport:
    """Check an inventory against the assembly constraint set.

    ``gap_tol`` bounds the allowed discrepancy between each block's stored
    desirability gap and the gap recomputed from the pool; solver output must
    agree to 1e-12, while inventories transcribed from 2-decimal published
    tables need roughly 0.015. Reported max/mean gaps use the stored values.
    """
    checks: list[ConstraintCheck] = []
    trait_counts = {t: 0 for t in TRAIT_LABELS}
    pair_counts: dict[tuple[str, str], int] = {}
    sign_counts = {t: [0, 0] for t in TRAIT_LABELS}
    mixed = 0
    seen_items: set[str] = set()
    dup: list[str] = []
    same_domain: list[int] = []
    gap_errs: list[int] = []

    for idx, b in enumerate(inv.blocks, start=1):
        li, ri = pool.get(b.left), pool.get(b.right)
        if li.desirability is None or ri.desirability is None:
            raise InventoryError(f"block {idx}: item without desirability score")
        for it in (li, ri):
            if it.id in seen_items:
                dup.append(it.id)
            seen_items.add(it.id)
            trait_counts[it.domain.name] += 1
            sign_counts[it.domain.name][0 if it.keying > 0 else 1] += 1
        if li.domain == ri.domain:
            same_domain.append(idx)
        key = tuple(sorted((li.domain.name, ri.domain.name)))
        pair_counts[key] = pair_counts.get(key, 0) + 1
        if li.keying != ri.keying:
            mixed += 1
        if abs(abs(li.desirability - ri.desirability) - b.desirability_gap) > gap_tol:
            gap_errs.append(idx)

    gaps = [b.desirability_gap for b in inv.blocks]
    max_gap = max(gaps) if gaps else 0.0
    mean_gap = sum(gaps) / len(gaps) if gaps else 0.0

    checks.append(
        ConstraintCheck(
            "block-count",
            len(inv.blocks) == cfg.block_count,
            f"{len(inv.blocks)} blocks, expected {cfg.block_count}",
        )
    )
    checks.append(ConstraintCheck("item-uniqueness", not dup, f"reused items: {dup}"))
    checks.append(ConstraintCheck("cross-domain", not same_domain, f"same-domain blocks: {same_domain}"))
    checks.append(
        ConstraintCheck("gap-consistency", not gap_errs, f"blocks with inconsistent gaps: {gap_errs}")
    )
    if cfg.per_trait is not None:
        bad = {t: n for t, n in trait_counts.items() if n != cfg.per_trait}
        checks.append(ConstraintCheck("trait-counts", not bad, f"off-target traits: {bad}"))
    if cfg.per_trait_pair is not None:
        all_pairs = [
            (a, b) for i, a in enumerate(TRAIT_LABELS) for b in TRAIT_LABELS[i + 1 :]
        ]
        bad_pairs = {
            p: pair_counts.get(p, 0)
            for p in all_pairs
            if pair_counts.get(p, 0) != cfg.per_trait_pair
        }
        checks.append(ConstraintCheck("trait-pair-counts", not bad_pairs, f"off-target pairs: {bad_pairs}"))
    if cfg.mixed_key_range is not None:
        lo, hi = cfg.mixed_key_range
        checks.append(
            ConstraintCheck("mixed-key", lo <= mixed <= hi, f"{mixed} mixed-key blocks, want [{lo}, {hi}]")
        )
    if cfg.sign_floor is not None:
        bad_signs = {}
        for t, (np_, nm) in sign_counts.items():
            total = np_ + nm
            if total and (np_ < cfg.sign_floor * total or nm < cfg.sign_floor * total):
                bad_signs[t] = (np_, nm)
        checks.append(ConstraintCheck("sign-balance", not bad_signs, f"imbalanced traits: {bad_signs}"))

    return ConstraintReport(
        checks=tuple(checks),
        trait_counts=trait_counts,
        trait_pair_counts=pair_counts,
        mixed_key_count=mixed,
        sign_counts={t: (v[0], v[1]) for t, v in sign_counts.items()},
        max_gap=max_gap,
        mean_gap=mean_gap,
    )


# ---------------------------------------------------------------------------
# File I/O
# ---------------------------------------------------------------------------

POOL_HEADER = ["id", "text", "domain", "keying", "desirability"]
INVENTORY_HEADER = ["block", "left_id", "right_id", "desirability_gap"]
RESPONSE_HEADER = [
    "respondent_id",
    "persona_id",
    "format",
    "condition",
    "unit_id",
    "answer",
    "position",
    "side_flipped",
]


def read_json(
    path: str | Path,
    parse: Callable[[object], object],
    what: str,
    error: type[SdrkitError] = SdrkitError,
):
    """Return ``parse(content)`` of a JSON file.

    A file that cannot be read or is not JSON, as when it is cut short, raises
    ``error`` naming the file. So does a field that ``parse`` finds missing or
    of the wrong JSON type, naming the file and the ``what`` it holds.
    """
    try:
        raw = json.loads(Path(path).read_text("utf-8"))
    except (OSError, ValueError) as exc:  # unreadable, not UTF-8, or not JSON
        raise error(f"{path} is not valid JSON: {exc}") from None
    try:
        return parse(raw)
    except KeyError as exc:
        raise error(f"{path}: malformed {what}: missing field {exc}") from None
    except (AttributeError, TypeError, ValueError) as exc:  # a field of the wrong type
        raise error(f"{path}: malformed {what}: {exc}") from None


def write_csv_rows(path: str | Path, header: Sequence[str], rows: Iterable[Sequence]) -> None:
    """Write ``header`` and then ``rows`` to a CSV file."""
    with Path(path).open("w", newline="", encoding="utf-8") as fh:
        w = csv.writer(fh)
        w.writerow(header)
        w.writerows(rows)


def read_csv_rows(
    path: str | Path,
    parse: Callable[[dict], object],
    what: str,
    error: type[SdrkitError] = SdrkitError,
    header: Sequence[str] = (),
) -> Iterator:
    """Yield ``parse(row)`` for each row of a CSV file.

    A file without the ``header`` columns raises ``error``, and so does a row
    with a missing or malformed field, as in a file cut mid-row, naming the
    file and the line.
    """
    with Path(path).open(newline="", encoding="utf-8") as fh:
        reader = csv.DictReader(fh)
        if not set(header) <= set(reader.fieldnames or ()):
            raise error(f"{path}: expected header columns {list(header)}")
        for row in reader:
            try:
                if None in row.values():
                    raise ValueError("too few fields")
                yield parse(row)
            except (KeyError, ValueError) as exc:
                raise error(
                    f"{path}: malformed {what} at line {reader.line_num}: {exc}"
                ) from None


def _pool_item(row: dict) -> Item:
    des = row.get("desirability")
    return Item(
        id=row["id"],
        text=row["text"],
        domain=TraitDomain.from_label(row["domain"]),
        keying=int(row["keying"]),
        desirability=float(des) if des else None,
    )


def load_item_pool(path: str | Path) -> ItemPool:
    """Load an item pool from CSV.

    Item order is the file order. Raises :class:`PoolError` on duplicate ids,
    unknown domain labels, keying outside {+1, -1}, desirability outside
    [1, 9], a malformed row or an empty pool.
    """
    items = tuple(read_csv_rows(path, _pool_item, "pool row", PoolError, POOL_HEADER[:4]))
    if not items:
        raise PoolError(f"{path}: empty pool")
    return ItemPool(items)


def write_item_pool(pool: ItemPool, path: str | Path) -> None:
    write_csv_rows(path, POOL_HEADER, (
        [it.id, it.text, it.domain.name, it.keying,
         "" if it.desirability is None else repr(it.desirability)]
        for it in pool.items
    ))


def load_inventory(path: str | Path) -> Inventory:
    """Load an inventory from CSV; a malformed row, an empty file or an item
    used in two blocks raises :class:`InventoryError`."""
    blocks = tuple(read_csv_rows(
        path,
        lambda row: GfcBlock(row["left_id"], row["right_id"], float(row["desirability_gap"])),
        "block row",
        InventoryError,
    ))
    if not blocks:
        raise InventoryError(f"{path}: empty inventory")
    first: dict[str, int] = {}
    for number, b in enumerate(blocks, start=1):
        for item in (b.left, b.right):
            if item in first:
                raise InventoryError(
                    f"{path}: item {item!r} is used in block {first[item]} and block {number}"
                )
            first[item] = number
    return Inventory(blocks)


def write_inventory(inv: Inventory, path: str | Path) -> None:
    write_csv_rows(path, INVENTORY_HEADER, (
        [i, b.left, b.right, repr(b.desirability_gap)] for i, b in enumerate(inv.blocks, start=1)
    ))


def write_response_sets(sets: Sequence[ResponseSet], path: str | Path) -> None:
    write_csv_rows(path, RESPONSE_HEADER, (
        [rs.respondent_id, rs.persona_id, rs.format.value, rs.condition.value, unit,
         rs.answers[unit], pos, int(bool(rs.side_assignment.get(unit, False)))]
        for rs in sets
        for pos, unit in enumerate(rs.presentation_order)
    ))


def _response_row(row: dict) -> tuple[tuple, tuple[int, str, int, bool]]:
    key = (
        row["respondent_id"],
        row["persona_id"],
        ResponseFormat(row["format"]),
        InstructionCondition(row["condition"]),
    )
    answer = (
        int(row["position"]),
        row["unit_id"],
        int(row["answer"]),
        bool(int(row["side_flipped"])),
    )
    return key, answer


def load_response_sets(path: str | Path) -> list[ResponseSet]:
    """Read response sets; a row with a missing or non-integer field, as in a
    file cut mid-row, an unknown format or condition, or a second answer to a
    unit of the same response set raises ``SdrkitError`` naming the file and
    the line."""
    groups: dict[tuple, dict[str, tuple[int, str, int, bool]]] = {}

    def row(raw: dict) -> None:  # checks while parsing, so an error names the line
        key, answer = _response_row(raw)
        answers = groups.setdefault(key, {})
        if answer[1] in answers:
            raise ValueError(f"a second answer to unit {answer[1]!r} of {key[0]!r}, "
                             f"{key[1]!r}, {key[2].value}, {key[3].value}")
        answers[answer[1]] = answer

    for _ in read_csv_rows(path, row, "response row"):
        pass
    out: list[ResponseSet] = []
    for (resp, persona, fmt, cond), by_unit in groups.items():
        answers = sorted(by_unit.values(), key=lambda a: a[0])
        out.append(
            ResponseSet(
                respondent_id=resp,
                persona_id=persona,
                format=fmt,
                condition=cond,
                answers={unit: answer for _, unit, answer, _ in answers},
                presentation_order=tuple(unit for _, unit, _, _ in answers),
                side_assignment={unit: flipped for _, unit, _, flipped in answers},
            )
        )
    return out
