"""Questionnaire prompt rendering, session execution, and provider plumbing.

A session presents the units of ``Inventory.units(fmt)`` (statements or
blocks) in a per-persona order, each with its statement texts as displayed.
Prompt renderers are pure and byte-stable; the templates are pinned by golden
tests. Sessions retry non-conforming replies with the identical prompt up to
``MAX_RETRIES`` additional times (transport failures are retried separately,
up to ``MAX_TRANSPORT_RETRIES`` times after waits of 1, 2 and 4 s, and do not
count as refits).
"""

from __future__ import annotations

import hashlib
import json
import os
import time
from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Callable, Protocol, Sequence

import numpy as np

from .core import (
    InstructionCondition,
    Inventory,
    ItemPool,
    ResponseFormat,
    ResponseSet,
    SdrkitError,
    Unit,
)
from .personas import Persona

if TYPE_CHECKING:
    import requests

MAX_RETRIES = 3
MAX_TRANSPORT_RETRIES = 3
# a unit's format attempts and each attempt's transport tries, built once
_ATTEMPTS = range(1 + MAX_RETRIES)
_TRANSPORT_TRIES = range(1 + MAX_TRANSPORT_RETRIES)

HONEST_INSTRUCTION = (
    "You will complete a personality questionnaire. When completing this questionnaire,\n"
    "we would like you to be as honest as possible, that is, to present yourself as you really are."
)

FAKE_GOOD_INSTRUCTION = (
    "You will complete a personality questionnaire. When completing this questionnaire,\n"
    "we would like you to answer the questions in order to give a really good impression of yourself,\n"
    "that is, to present yourself in the best possible light."
)

INSTRUCTION_TEXT: dict[InstructionCondition, str] = {
    InstructionCondition.HONEST: HONEST_INSTRUCTION,
    InstructionCondition.FAKE_GOOD: FAKE_GOOD_INSTRUCTION,
}

_LIKERT_BODY = (
    "Indicate how accurately the following statement describes you\n"
    "using a 7-point scale:\n"
    "1: Very Inaccurate\n"
    "2: Moderately Inaccurate\n"
    "3: Slightly Inaccurate\n"
    "4: Neither Accurate nor Inaccurate\n"
    "5: Slightly Accurate\n"
    "6: Moderately Accurate\n"
    "7: Very Accurate\n"
    "Return ONLY one integer (1-7).\n"
    "Do not include any other text.\n"
    "++++\n"
    "Statement: {statement}\n"
    "++++"
)

_GFC_BODY = (
    "For the following pair of statements, indicate which one describes you\n"
    "more accurately and by how much\n"
    "using a 7-point bipolar scale:\n"
    "1: LEFT statement describes me much more accurately\n"
    "2: LEFT statement describes me moderately more accurately\n"
    "3: LEFT statement describes me slightly more accurately\n"
    "4: About the same\n"
    "5: RIGHT statement describes me slightly more accurately\n"
    "6: RIGHT statement describes me moderately more accurately\n"
    "7: RIGHT statement describes me much more accurately\n"
    "Return ONLY one integer (1-7).\n"
    "Do not include any other text.\n"
    "++++\n"
    "LEFT: {left}  ||  RIGHT: {right}\n"
    "++++"
)

_RATING_INSTRUCTION = (
    "The following statements are characteristics of people. Indicate on a scale from 1 to 9 "
    "how desirable you think each trait or characteristic is for an adult person: "
    "1 = Very undesirable, 3 = Undesirable, 5 = Neutral, 7 = Desirable, 9 = Very desirable. "
    "Use any number from 1 through 9 (i.e., 1, 2, 3, 4, 5, 6, 7, 8, or 9) that best indicates "
    "your opinion regarding how desirable that trait is.\n"
    "\n"
    "Please return EXACTLY {count} integers separated by single spaces, in the SAME ORDER as the statements.\n"
    "\n"
    "Do not include any other text.\n"
    "++++\n"
    "{statements}\n"
    "++++"
)


def render_likert_prompt(persona_desc: str, condition: InstructionCondition, statement: str) -> str:
    if not statement:
        raise SdrkitError("empty statement")
    return f"{persona_desc}\n\n{INSTRUCTION_TEXT[condition]}\n\n" + _LIKERT_BODY.format(
        statement=statement
    )


def render_gfc_prompt(
    persona_desc: str, condition: InstructionCondition, left_text: str, right_text: str
) -> str:
    if not left_text or not right_text:
        raise SdrkitError("empty statement in pair")
    return f"{persona_desc}\n\n{INSTRUCTION_TEXT[condition]}\n\n" + _GFC_BODY.format(
        left=left_text, right=right_text
    )


def render_rating_prompt(statements: Sequence[str]) -> str:
    lines = "\n".join(f"Statement: {s}" for s in statements)
    return _RATING_INSTRUCTION.format(count=len(statements), statements=lines)


class ResponseParseError(SdrkitError):
    """Non-conforming answer. ``kind``: 'empty', 'extra-text', 'out-of-range'."""

    def __init__(self, kind: str, message: str):
        super().__init__(message)
        self.kind = kind


#: the seven bare answers, which a reply almost always is
_BARE_ANSWERS = {str(k): k for k in range(1, 8)}


def parse_single_int(text: str) -> int:
    """Accept iff, after trimming whitespace, the reply is one integer in 1..7."""
    value = _BARE_ANSWERS.get(text)
    if value is not None:
        return value
    stripped = text.strip()
    if not stripped:
        raise ResponseParseError("empty", "empty reply")
    if not stripped.isdecimal():  # int() reads every decimal digit, but not "²"
        raise ResponseParseError("extra-text", f"reply is not a bare integer: {text!r}")
    value = int(stripped)
    if not (1 <= value <= 7):
        raise ResponseParseError("out-of-range", f"integer {value} outside 1..7")
    return value


# ---------------------------------------------------------------------------
# Providers
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class ProviderReply:
    text: str
    latency: float = 0.0


class Provider(Protocol):
    """A respondent: :meth:`complete` answers one unit of a planned session.
    :meth:`prepare` gets a stage's plans before its first unit and none after
    its last, so a provider may answer ahead; unprepared plans are answered too."""

    model_id: str

    def prepare(self, plans: Sequence[SessionPlan]) -> None: ...

    def complete(self, plan: SessionPlan, unit: SessionUnit) -> ProviderReply: ...


class TransportError(SdrkitError):
    """A request that got no usable reply. ``retry_after`` is the wait in
    seconds that a 429 or 503 reply asked for, if it gave one."""

    def __init__(self, message: str, retry_after: float | None = None):
        super().__init__(message)
        self.retry_after = retry_after


#: seconds an ``HttpProvider`` request may take before it is a transport error
HTTP_TIMEOUT_S = 120.0
#: the longest wait between transport tries, whatever ``Retry-After`` asks
MAX_RETRY_WAIT_S = 60.0


def _retry_after(resp) -> float | None:
    """The seconds a 429 or 503 reply's ``Retry-After`` asks to wait, if it
    is given in delta-seconds; an HTTP-date is not read."""
    if resp.status_code in (429, 503):
        value = resp.headers.get("Retry-After", "").strip()
        if value.isascii() and value.isdigit():
            return float(value)  # inf for an absurd count of digits, so the cap applies
    return None


class HttpProvider:
    """Single-turn chat-completions client for an OpenAI-compatible endpoint.

    Each request sends only the model id and the unit's prompt as one user
    message, so the endpoint's own decode defaults apply. The auth token is
    read from the environment variable named by ``token_env``; ``session`` is the
    ``requests`` session to post through (a fresh one by default).
    ``requests`` is imported here, not with the module: no other provider
    needs it, and it costs an HTTP-free command about 0.1 s to load.
    """

    def __init__(
        self,
        base_url: str,
        model_id: str,
        token_env: str = "SDRKIT_API_TOKEN",
        session: requests.Session | None = None,
    ):
        self.base_url = base_url
        self.model_id = model_id
        self.token_env = token_env
        if session is None:
            import requests

            session = requests.Session()
        self._session = session

    def prepare(self, plans: Sequence[SessionPlan]) -> None:
        """Nothing to do: an endpoint answers one prompt at a time."""

    def complete(self, plan: SessionPlan, unit: SessionUnit) -> ProviderReply:
        import requests

        token = os.environ.get(self.token_env, "")
        payload = {
            "model": self.model_id,
            "messages": [{"role": "user", "content": render_unit_prompt(plan, unit)}],
        }
        headers = {"Content-Type": "application/json"}
        if token:
            headers["Authorization"] = f"Bearer {token}"
        start = time.monotonic()
        try:
            resp = self._session.post(
                self.base_url, json=payload, headers=headers, timeout=HTTP_TIMEOUT_S
            )
        except requests.RequestException as exc:
            raise TransportError(str(exc)) from exc
        if resp.status_code != 200:
            raise TransportError(f"HTTP {resp.status_code}: {resp.text[:200]}", _retry_after(resp))
        try:
            text = resp.json()["choices"][0]["message"]["content"]
        except (KeyError, IndexError, TypeError, json.JSONDecodeError, ValueError) as exc:
            raise TransportError(f"malformed provider response: {exc}") from exc
        if text is None:  # a refusal or a tool call: no answer, so a refit
            text = ""
        elif not isinstance(text, str):
            raise TransportError(f"malformed provider response: content is {text!r}")
        return ProviderReply(text=text, latency=time.monotonic() - start)


# ---------------------------------------------------------------------------
# Session planning and execution
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class SessionUnit(Unit):
    texts: tuple[str, ...]  # statement texts as displayed, left before right
    flipped: bool = False  # GFC: displayed left/right swapped vs. canonical


@dataclass(frozen=True)
class SessionPlan:
    respondent_id: str
    persona: Persona
    format: ResponseFormat
    condition: InstructionCondition
    units: tuple[SessionUnit, ...]  # in presentation order


@dataclass(frozen=True)
class SessionResult:
    plan: SessionPlan
    response_set: ResponseSet | None
    refit_count: int
    transport_retries: int
    failed_unit: str | None = None

    @property
    def complete(self) -> bool:
        return self.response_set is not None


def make_session_plans(
    personas: Sequence[Persona],
    inventory: Inventory,
    pool: ItemPool,
    formats: Sequence[ResponseFormat],
    conditions: Sequence[InstructionCondition],
    seed: int,
    respondent_id: str,
) -> list[SessionPlan]:
    """Build the fully crossed persona x format x condition session plans.

    Each format's units are ``inventory.units(fmt)``. Presentation order is
    randomized once per (persona, format) and reused across instruction
    conditions; GFC left/right assignment is likewise drawn once per persona
    and held fixed.
    """
    # each format's units as displayed, unflipped and flipped, in inventory order
    tables = {fmt: [_displayed(u, pool) for u in inventory.units(fmt)] for fmt in formats}
    plans: list[SessionPlan] = []
    for persona in personas:
        per_format_units: dict[ResponseFormat, tuple[SessionUnit, ...]] = {}
        for fmt, table in tables.items():
            order = keyed_rng(seed, persona.id, fmt.value).permutation(len(table)).tolist()
            flips = [False] * len(table)
            if fmt is ResponseFormat.GFC:
                flips = (keyed_rng(seed, persona.id, "sides").random(len(table)) < 0.5).tolist()
            per_format_units[fmt] = tuple(table[i][flips[i]] for i in order)
        for fmt in formats:
            for cond in conditions:
                plans.append(
                    SessionPlan(
                        respondent_id=respondent_id,
                        persona=persona,
                        format=fmt,
                        condition=cond,
                        units=per_format_units[fmt],
                    )
                )
    return plans


def _displayed(unit: Unit, pool: ItemPool) -> tuple[SessionUnit, SessionUnit]:
    """``unit`` as shown: with its sides as in the inventory, and swapped."""
    texts = tuple(pool.get(i).text for i in unit.statements)
    return (SessionUnit(unit.id, unit.statements, texts),
            SessionUnit(unit.id, unit.statements, texts[::-1], flipped=True))


def keyed_rng(seed: int, *key: str) -> np.random.Generator:
    """Generator seeded by SHA-256 of the seed and key parts, joined by U+001F."""
    digest = hashlib.sha256(("\x1f".join([str(seed), *key])).encode()).digest()
    return np.random.default_rng(int.from_bytes(digest[:8], "little"))


def keyed_uniform_table(
    seed: int, keys: Sequence[Sequence[str]], unit_ids: Sequence[str]
) -> np.ndarray:
    """``keyed_rng(seed, *key, uid).random()`` for every key (rows) and unit
    (columns), bit for bit, in one vectorized pass: one hash prefix per key,
    one SHA-256 per key and unit, then every stream's seeding and first draw
    at once (:func:`_first_uniforms`). The numpy passes cost about 0.2 ms
    however few streams they draw, and 0.2 us more per stream (2-vCPU host),
    so draw many keys together."""
    encoded = [uid.encode() for uid in unit_ids]
    digests = []
    for key in keys:
        prefix = hashlib.sha256("\x1f".join([str(seed), *key, ""]).encode())
        for uid in encoded:
            h = prefix.copy()
            h.update(uid)
            digests.append(h.digest()[:8])
    seeds = np.frombuffer(b"".join(digests), dtype="<u8")
    return _first_uniforms(seeds).reshape(len(keys), len(encoded))


def _hash_constants(init: int, mult: int, count: int) -> tuple[np.ndarray, np.ndarray]:
    """SeedSequence's hash constants for its first ``count`` hashes, as
    columns: hash k xors with h_k and multiplies by h_{k+1} = h_k * mult."""
    h = [init]
    for _ in range(count):
        h.append(h[-1] * mult & 0xFFFFFFFF)
    column = np.array(h, dtype=np.uint32)[:, None]
    return column[:-1], column[1:]


def _limbs(value: int) -> np.ndarray:
    """A 128-bit constant as four 32-bit limbs, least significant first, in a
    uint64 column so that a limb times a limb cannot overflow."""
    return np.array([value >> 32 * k & 0xFFFFFFFF for k in range(4)], dtype=np.uint64)[:, None]


# numpy's SeedSequence with its pool of four uint32 words, and PCG64; NEP 19
# keeps both bit streams stable across numpy versions
_MIX_XOR, _MIX_MUL = _hash_constants(0x43B0D7E5, 0x931E8875, 16)  # 4 to fill, 12 to mix
_STATE_XOR, _STATE_MUL = _hash_constants(0x8B51F9DD, 0x58F38DED, 8)  # 8 state words
# for each pool word, the other three and the constants that mix it into them
_MIXES = [(np.array([d for d in range(4) if d != s]), _MIX_XOR[4 + 3 * s : 7 + 3 * s],
           _MIX_MUL[4 + 3 * s : 7 + 3 * s]) for s in range(4)]
_PCG_MULT, _MASK128 = 0x2360ED051FC65DA44385DF649FCCF645, (1 << 128) - 1
# seeding steps once and the first draw once more, from state 0 with seed s
# and increment inc = 2t + 1: ((inc + s) * M + inc) * M + inc is
# s * M^2 + t * 2(M^2 + M + 1) + (M^2 + M + 1), all mod 2^128
_SEED_MULT = _limbs(_PCG_MULT * _PCG_MULT & _MASK128)
_STATE_ADD = _limbs((_PCG_MULT * _PCG_MULT + _PCG_MULT + 1) & _MASK128)
_STREAM_MULT = _limbs(2 * (_PCG_MULT * _PCG_MULT + _PCG_MULT + 1) & _MASK128)


def _hashmix(words: np.ndarray, xor: np.ndarray, mul: np.ndarray) -> np.ndarray:
    words = (words ^ xor) * mul
    return words ^ (words >> 16)


def _mul_add_128(addend: np.ndarray, *terms: tuple[np.ndarray, np.ndarray]) -> np.ndarray:
    """``addend`` plus the sum of ``a * c`` over ``terms``, mod 2^128: each
    ``a`` a (4, n) array of 32-bit limbs, ``c`` and ``addend`` constants'
    limbs (:func:`_limbs`).

    Each limb product splits into its low and high 32 bits, added into their
    columns; a column then holds at most 15 values below 2^32, so the carries
    can wait until the end.
    """
    acc = np.repeat(addend, terms[0][0].shape[1], axis=1)
    for a, c in terms:
        for i in range(4):  # limbs i.. of a[i] * c; the rest lie above 2^128
            product = a[i] * c[: 4 - i]
            acc[i:] += product & 0xFFFFFFFF
            acc[i + 1 :] += product[:-1] >> 32
    for k in range(3):
        acc[k + 1] += acc[k] >> 32
    return acc & 0xFFFFFFFF


def _first_uniforms(keys: np.ndarray) -> np.ndarray:
    """``np.random.default_rng(k).random()`` for every uint64 key ``k`` at once.

    SeedSequence reads a key as one or two uint32 entropy words and pads its
    pool with zero words, so a key's zero high word mixes like the padding.
    The pool is mixed for all keys together; its eight state words make each
    key's 128-bit PCG64 seed s and stream t, and the first draw is the top 53
    bits of one XSL-RR output. The 128-bit arithmetic runs on 32-bit limbs,
    for all keys at once.
    """
    pool = np.zeros((4, keys.size), dtype=np.uint32)
    pool[0], pool[1] = keys & 0xFFFFFFFF, keys >> 32
    pool = _hashmix(pool, _MIX_XOR[:4], _MIX_MUL[:4])
    for src, (dst, xor, mul) in enumerate(_MIXES):
        mixed = 0xCA01F9DD * pool[dst] - 0x4973F715 * _hashmix(pool[src], xor, mul)
        pool[dst] = mixed ^ (mixed >> 16)
    words = _hashmix(np.concatenate([pool, pool]), _STATE_XOR, _STATE_MUL)
    # generate_state(4, uint64) gives s_hi, s_lo, t_hi, t_lo, each low word first
    limbs = words[[2, 3, 0, 1, 6, 7, 4, 5]].astype(np.uint64)  # s, then t
    state = _mul_add_128(_STATE_ADD, (limbs[:4], _SEED_MULT), (limbs[4:], _STREAM_MULT))
    x = (state[3] ^ state[1]) << 32 | (state[2] ^ state[0])  # high ^ low 64 bits
    rot = state[3] >> 26  # the top 6 bits; (64 - rot) & 63 keeps rot = 0 defined
    out = (x >> rot | x << ((64 - rot) & 63)) >> 11
    return out.astype(float) * 2.0**-53


def render_unit_prompt(plan: SessionPlan, unit: SessionUnit) -> str:
    render = render_gfc_prompt if plan.format is ResponseFormat.GFC else render_likert_prompt
    return render(plan.persona.description, plan.condition, *unit.texts)


def run_session(
    plan: SessionPlan,
    provider: Provider,
    sleep: Callable[[float], None] = time.sleep,
) -> SessionResult:
    """Administer one questionnaire session.

    A unit that still fails the format check after 1 + ``MAX_RETRIES``
    attempts aborts the session; the result is marked incomplete and carries
    no :class:`ResponseSet` (incomplete sessions are excluded from fitting).
    A transport error is tried again up to ``MAX_TRANSPORT_RETRIES`` times,
    after ``sleep``-ing 1, 2 and 4 s, or the reply's ``retry_after`` if that
    is longer, but never more than ``MAX_RETRY_WAIT_S``.
    """
    answers: dict[str, int] = {}
    refits = 0
    transport_retries = 0
    complete = provider.complete
    for unit in plan.units:
        value: int | None = None
        for attempt in _ATTEMPTS:
            reply = None
            for t_try in _TRANSPORT_TRIES:
                try:
                    reply = complete(plan, unit)
                    break
                except TransportError as exc:
                    transport_retries += 1
                    if t_try == MAX_TRANSPORT_RETRIES:
                        raise
                    sleep(min(max(2.0**t_try, exc.retry_after or 0.0), MAX_RETRY_WAIT_S))
            try:
                value = parse_single_int(reply.text)
                break
            except ResponseParseError:
                if attempt < MAX_RETRIES:
                    refits += 1
        if value is None:
            return SessionResult(
                plan=plan,
                response_set=None,
                refit_count=refits,
                transport_retries=transport_retries,
                failed_unit=unit.id,
            )
        answers[unit.id] = value
    rs = ResponseSet(
        respondent_id=plan.respondent_id,
        persona_id=plan.persona.id,
        format=plan.format,
        condition=plan.condition,
        answers=answers,
        presentation_order=tuple(u.id for u in plan.units),
        side_assignment={u.id: u.flipped for u in plan.units if plan.format is ResponseFormat.GFC},
    )
    return SessionResult(
        plan=plan, response_set=rs, refit_count=refits, transport_retries=transport_retries
    )


# ---------------------------------------------------------------------------
# Desirability rating plan (blocks of statements per replication)
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class RatingPrompt:
    rater: str
    replication: int
    block_index: int
    item_ids: tuple[str, ...]
    text: str


def build_rating_plan(
    pool: ItemPool,
    raters: Sequence[str],
    replications: int = 30,
    block_size: int = 25,
    seed: int = 0,
) -> list[RatingPrompt]:
    """Per (rater, replication): a fresh permutation of the pool partitioned
    into consecutive blocks of ``block_size`` (final short block allowed)."""
    items = list(pool.items)
    prompts: list[RatingPrompt] = []
    for rater in raters:
        for rep in range(1, replications + 1):
            rng = keyed_rng(seed, "rating", rater, str(rep))
            perm = rng.permutation(len(items))
            for b, start in enumerate(range(0, len(items), block_size), start=1):
                chunk = [items[i] for i in perm[start : start + block_size]]
                prompts.append(
                    RatingPrompt(
                        rater=rater,
                        replication=rep,
                        block_index=b,
                        item_ids=tuple(it.id for it in chunk),
                        text=render_rating_prompt([it.text for it in chunk]),
                    )
                )
    return prompts


# ---------------------------------------------------------------------------
# Run manifest
# ---------------------------------------------------------------------------


@dataclass
class RunManifest:
    run_id: str
    model_id: str
    seeds: dict[str, int]
    created_at: str
    sessions: list[dict] = field(default_factory=list)
    artifacts: dict[str, str] = field(default_factory=dict)  # path -> sha256
    inputs: dict[str, str] = field(default_factory=dict)  # path -> key of its inputs
    code_digest: str = ""  # of the code that built the artifacts its inputs key

    def record_session(self, result: SessionResult) -> None:
        self.sessions.append(
            {
                "persona": result.plan.persona.id,
                "format": result.plan.format.value,
                "condition": result.plan.condition.value,
                "outcome": "ok" if result.complete else "failed",
                "refits": result.refit_count,
                "transport_retries": result.transport_retries,
                "failed_unit": result.failed_unit,
            }
        )

    def to_json(self) -> str:
        # only pipeline runs key their artifacts on inputs and code
        fields = {k: v for k, v in self.__dict__.items()
                  if v or k not in ("inputs", "code_digest")}
        return json.dumps(fields, indent=2, sort_keys=True)
