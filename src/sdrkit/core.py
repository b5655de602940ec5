"""Domain types for statements, blocks, inventories, and response data.

Everything here is immutable after construction and safe to share across
threads. File formats are line-oriented CSV with fixed headers (see the
``read_*`` / ``write_*`` helpers).
"""

from __future__ import annotations

import csv
import enum
import io
import json
import math
import numbers
import sys
from contextlib import contextmanager
from dataclasses import dataclass, field
from functools import cache
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


# ---------------------------------------------------------------------------
# Field readers: every input file and options object checks its fields here
# ---------------------------------------------------------------------------


class FieldError(SdrkitError, ValueError):
    """A field not of its type or not in its range. The readers below raise it
    naming the field; ``read_json`` and ``read_csv_rows`` add the file and line."""


def _refuse(name: str, want: str, value, lo=-math.inf, hi=math.inf, above=False) -> FieldError:
    if hi != math.inf:
        want += f" in {'(' if above else '['}{lo}, {hi}]"
    elif lo != -math.inf:
        want += f" above {lo}" if above else f" of at least {lo}"
    return FieldError(f"{name} must be {want}, got {value!r}")


def read_count(value, name: str, low: int = 0, high: float = math.inf):
    """``value`` if it is an integer in [low, high]; a boolean is not one."""
    if (type(value) is int or isinstance(value, numbers.Integral)
            and not isinstance(value, bool)) and low <= value <= high:
        return value
    raise _refuse(name, "an integer", value, low, high)


def read_number(value, name: str, lo=-math.inf, hi=math.inf, above: bool = False):
    """``value`` if it is a finite number in [lo, hi], or in (lo, hi] when
    ``above``; a boolean, NaN or an integer beyond float range is not one."""
    real = type(value) in (float, int) or (
        isinstance(value, numbers.Real) and not isinstance(value, bool))
    # exact comparisons: NaN fails every one, an integer beyond float range the first
    if real and abs(value) <= sys.float_info.max and (
            lo < value <= hi if above else lo <= value <= hi):
        return value
    raise _refuse(name, "a finite number", value, lo, hi, above)


@cache
def _by_value(choices) -> dict:
    """Each of ``choices`` by its value, with the value's type."""
    return {getattr(c, "value", c): (type(getattr(c, "value", c)), c) for c in choices}


def read_member(value, name: str, choices):
    """The member of ``choices`` (an enum, or a tuple of values) whose value
    is ``value`` and of its type: JSON true is not 1."""
    try:
        kind, choice = _by_value(choices)[value]
    except (KeyError, TypeError):  # not a member, or not hashable
        kind = None
    if kind is type(value):
        return choice
    raise _refuse(name, "one of " + ", ".join(map(repr, _by_value(choices))), value)


def read_text(value, name: str, empty: bool = False) -> str:
    """``value`` if it is a string, and not the empty one unless ``empty``."""
    if type(value) is str and (value or empty):
        return value
    raise _refuse(name, "a string" if empty else "a non-empty string", value)


def read_flag(value, name: str) -> bool:
    """``value`` if it is a boolean."""
    if type(value) is bool:
        return value
    raise _refuse(name, "true or false", value)


def read_list(value, name: str, read=None, length: int = 0, **bounds) -> list:
    """``value`` as a list, if it is a list or tuple of ``length`` items (of at
    least one without ``length``), each read by ``read(item, f"{name}[i]", **bounds)``."""
    if isinstance(value, (list, tuple)) and (len(value) == length if length else value):
        return [v if read is None else read(v, f"{name}[{i}]", **bounds)
                for i, v in enumerate(value)]
    raise _refuse(name, f"a list of {length} values" if length else "a non-empty list", value)


def cell(text: str):
    """A CSV field as the JSON value it spells: an int, a float, or the text."""
    for kind in (int, float):
        try:
            return kind(text)
        except ValueError:
            pass
    return text


@contextmanager
def naming(what: str, error: type[SdrkitError] = FieldError):
    """Raise a ``FieldError`` from inside as ``error``, its message after ``what``."""
    try:
        yield
    except FieldError as exc:
        raise error(f"{what}{exc}") from None


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
        with naming(f"item {self.id!r}: ", PoolError):
            read_text(self.id, "id")
            read_text(self.text, "text")
            read_member(self.keying, "keying", (1, -1))
            if self.desirability is not None:
                read_number(self.desirability, "desirability", 1, 9)


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
        with naming(f"block {block_id(self.left, self.right)!r}: ", InventoryError):
            read_text(self.left, "left_id")
            read_text(self.right, "right_id")
            read_number(self.desirability_gap, "desirability_gap", 0)
        if self.left == self.right:
            raise InventoryError(f"block pairs item {self.left!r} with itself")


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
        # dataclass is frozen; cache each format's units on first use
        cache = self.__dict__.setdefault("_units", {})
        if fmt not in cache:
            ids = self.statements
            if len(set(ids)) != len(ids):
                reused = sorted({i for i in ids if ids.count(i) > 1})
                raise InventoryError(f"inventory uses items in more than one block: {reused}")
            if fmt is ResponseFormat.GFC:
                cache[fmt] = tuple(
                    Unit(block_id(b.left, b.right), (b.left, b.right)) for b in self.blocks
                )
            else:
                cache[fmt] = tuple(Unit(i, (i,)) for i in ids)
        return cache[fmt]


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
            if type(ans) is not int or not 1 <= ans <= N_CATEGORIES:  # else read_count passes it
                read_count(ans, f"answer to {unit!r}", 1, N_CATEGORIES)
        if set(self.presentation_order) != set(self.answers):
            raise SdrkitError("presentation order does not cover exactly the answered units")

    def answers_to(self, units: Sequence[str]) -> list[int]:
        """The answers to ``units``, in their order; a unit not answered raises."""
        try:
            return [self.answers[u] for u in units]
        except KeyError as exc:
            raise SdrkitError(
                f"response set {self.respondent_id}/{self.persona_id}/{self.condition.value} "
                f"({self.format.value}) has no answer for unit {exc.args[0]!r}"
            ) from None


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
        read_count(self.block_count, "block_count", 1)
        for name in ("per_trait", "per_trait_pair", "node_budget"):
            if getattr(self, name) is not None:
                read_count(getattr(self, name), name)
        if self.mixed_key_range is not None:
            lo, hi = read_list(self.mixed_key_range, "mixed_key_range", read_count, 2)
            read_count(hi, "mixed_key_range[1]", lo)
            object.__setattr__(self, "mixed_key_range", (lo, hi))
        if self.sign_floor is not None:
            read_number(self.sign_floor, "sign_floor", 0, 1)

    @classmethod
    def standard(cls, block_count: int = 30) -> "AssemblyConfig":
        if block_count % 10 != 0:
            raise FieldError("block count must be divisible by 10 for the standard config")
        p = block_count
        return cls(
            block_count=p,
            per_trait=2 * p // 5,
            per_trait_pair=p // 10,
            mixed_key_range=(int(0.4 * p + 0.5), int(0.6 * p + 0.5)),
        )


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
            floor = cfg.sign_floor * (np_ + nm) - 1e-12  # the solver's rounding tolerance
            if min(np_, nm) < floor:
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


def _csv_line(fields: Sequence) -> str:
    """``fields`` joined as ``csv.writer`` writes them, without the line end."""
    line = io.StringIO()
    csv.writer(line).writerow(fields)
    return line.getvalue()[:-2]


def read_csv_rows(
    path: str | Path,
    parse: Callable[[list[str], dict[str, int]], object],
    what: str,
    error: type[SdrkitError] = SdrkitError,
    header: Sequence[str] = (),
) -> Iterator:
    """Yield ``parse(fields, column)`` for each row of a CSV file: ``fields``
    is the row's list of fields, and ``column`` maps each header name to its
    field's index (the last, for a name the header repeats).

    Blank lines are skipped. A file without the ``header`` columns raises
    ``error``, and so does a row with a missing or malformed field, as in a
    file cut mid-row, or one that ``parse`` refuses with ``error``, naming the
    file and the line: the physical line the row ends on, as a field may
    hold a line break.
    """
    with Path(path).open(newline="", encoding="utf-8") as fh:
        rows = csv.reader(fh)
        names = next(rows, None) or ()
        if not set(header) <= set(names):
            raise error(f"{path}: expected header columns {list(header)}")
        column = {name: i for i, name in enumerate(names)}
        width = len(names)
        for fields in rows:
            if not fields:  # a blank line
                continue
            try:
                if len(fields) != width:  # extra fields, or missing ones
                    raise ValueError("a row must have one field per header column")
                yield parse(fields, column)
            except (KeyError, ValueError, error) as exc:
                raise error(
                    f"{path}: malformed {what} at line {rows.line_num}: {exc}"
                ) from None


def _pool_item(fields: list[str], column: dict[str, int]) -> Item:
    des = fields[column["desirability"]] if "desirability" in column else None
    return Item(
        id=fields[column["id"]],
        text=fields[column["text"]],
        domain=TraitDomain[read_member(
            fields[column["domain"]].strip().upper(), "domain", TRAIT_LABELS)],
        keying=cell(fields[column["keying"]]),
        desirability=cell(des) if des else None,
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


def load_inventory(path: str | Path, pool: ItemPool | None = None) -> Inventory:
    """Load an inventory from CSV; a malformed row, an empty file, an item
    used in two blocks or, given ``pool``, an item id that is not in it raises
    :class:`InventoryError`."""
    blocks = tuple(read_csv_rows(
        path,
        lambda fields, column: GfcBlock(fields[column["left_id"]], fields[column["right_id"]],
                                        cell(fields[column["desirability_gap"]])),
        "block row",
        InventoryError,
    ))
    if not blocks:
        raise InventoryError(f"{path}: empty inventory")
    first: dict[str, int] = {}
    for number, b in enumerate(blocks, start=1):
        for field, item in (("left_id", b.left), ("right_id", b.right)):
            if pool is not None and item not in pool.by_id():
                raise InventoryError(
                    f"{path}: block {number}: {field} {item!r} is not in the item pool"
                )
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


class _QuotedIds(dict):
    """Each unit id as ``csv.writer`` writes it in a row, quoted on first use."""

    def __missing__(self, unit) -> str:
        self[unit] = quoted = _csv_line((unit, ""))[:-1]  # a lone empty field would be quoted
        return quoted


def write_response_sets(sets: Sequence[ResponseSet], path: str | Path) -> None:
    """Write one row per answered unit, in each set's presentation order.

    The file is what ``write_csv_rows`` would write, byte for byte: csv's
    "excel" dialect, fields quoted only where they must be and CRLF line
    ends. ``csv`` quotes each set's four shared fields and each unit id
    once, and each set's lines are written in one call.
    """
    quoted = _QuotedIds()
    with Path(path).open("w", newline="", encoding="utf-8") as fh:
        csv.writer(fh).writerow(RESPONSE_HEADER)
        for rs in sets:
            head = _csv_line((rs.respondent_id, rs.persona_id, rs.format.value, rs.condition.value))
            answers, flipped = rs.answers, rs.side_assignment.get
            fh.write("".join([
                f"{head},{quoted[unit]},{answers[unit]!s},{pos},{1 if flipped(unit) else 0}\r\n"
                for pos, unit in enumerate(rs.presentation_order)
            ]))


def load_response_sets(path: str | Path, inventory: Inventory | None = None) -> list[ResponseSet]:
    """Read response sets; a row with a missing or malformed field, as in a
    file cut mid-row, or a second answer to a unit of the same response set
    raises ``SdrkitError`` naming the file and the line. Given ``inventory``,
    so does a set that leaves a unit of its format unanswered, as when a
    row's persona or respondent id is changed, naming the file."""
    # each set's four shared fields as spelt -> (the set's key, its unit -> fields)
    sets: dict[tuple[str, ...], tuple[tuple, dict[str, tuple[int, int, bool]]]] = {}
    # the spellings of each count field accepted so far -> their values
    positions: dict[str, int] = {}
    answer_of: dict[str, int] = {}
    flipped_of: dict[str, bool] = {}
    head = key = answers = ()  # the previous row's set

    def row(fields: list[str], column: dict[str, int]) -> None:
        # checks each field as it reads it, in a fixed order, so that an error
        # names the line and the first bad field; a set's shared fields are
        # checked once, and a count spelt as an earlier row spelt it is looked up
        nonlocal head, key, answers
        try:
            spelt = (fields[column["respondent_id"]], fields[column["persona_id"]],
                     fields[column["format"]], fields[column["condition"]])
        except KeyError:  # a column is missing: the checks below refuse the row
            spelt = None
        if spelt != head:
            found = sets.get(spelt)
            if found is None:
                key = (
                    read_text(fields[column["respondent_id"]], "respondent_id"),
                    read_text(fields[column["persona_id"]], "persona_id"),
                    read_member(fields[column["format"]], "format", ResponseFormat),
                    read_member(fields[column["condition"]], "condition", InstructionCondition),
                )
                found = sets[spelt] = (key, {})
            head, (key, answers) = spelt, found
        unit = fields[column["unit_id"]]
        if not unit:
            read_text(unit, "unit_id")  # refuses the empty id
        if unit in answers:
            raise ValueError(f"a second answer to unit {unit!r} of {key[0]!r}, "
                             f"{key[1]!r}, {key[2].value}, {key[3].value}")
        text = fields[column["position"]]
        position = positions.get(text)
        if position is None:
            position = positions[text] = read_count(cell(text), "position")
        text = fields[column["answer"]]
        answer = answer_of.get(text)
        if answer is None:
            answer = answer_of[text] = read_count(cell(text), "answer", 1, N_CATEGORIES)
        text = fields[column["side_flipped"]]
        flipped = flipped_of.get(text)
        if flipped is None:
            flipped = flipped_of[text] = read_count(cell(text), "side_flipped", 0, 1) == 1
        answers[unit] = (position, answer, flipped)

    for _ in read_csv_rows(path, row, "response row"):
        pass
    out: list[ResponseSet] = []
    for (resp, persona, fmt, cond), by_unit in sets.values():
        order = sorted(by_unit, key=lambda unit: by_unit[unit][0])  # by position
        out.append(
            ResponseSet(
                respondent_id=resp,
                persona_id=persona,
                format=fmt,
                condition=cond,
                answers={unit: by_unit[unit][1] for unit in order},
                presentation_order=tuple(order),
                side_assignment={unit: by_unit[unit][2] for unit in order},
            )
        )
    if inventory is not None:
        units = {fmt: [u.id for u in inventory.units(fmt)] for fmt in ResponseFormat}
        for rs in out:
            try:
                rs.answers_to(units[rs.format])
            except SdrkitError as exc:
                raise SdrkitError(f"{path}: {exc}") from None
    return out
