"""Prompt templates (golden files), session retry semantics, and planning."""

import math
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from sdrkit.administer import (
    MAX_RETRY_WAIT_S,
    HttpProvider,
    ProviderReply,
    ResponseParseError,
    TransportError,
    _first_uniforms,
    build_rating_plan,
    keyed_rng,
    keyed_uniform_table,
    make_session_plans,
    parse_single_int,
    render_gfc_prompt,
    render_likert_prompt,
    render_rating_prompt,
    render_unit_prompt,
    run_session,
)
from sdrkit.core import InstructionCondition, ResponseFormat
from sdrkit.personas import Persona

GOLDEN = Path(__file__).parent / "golden"

DESC = (
    "YOU ARE THE RESPONDENT.\n\nYou are very organized.\n\n"
    "Answer all questions AS THIS PERSON would."
)


def make_persona(pid="p001"):
    return Persona(id=pid, z=(0.0,) * 5, stanines=(5,) * 5, description=DESC)


# ---------------------------------------------------------------------------
# Golden prompt files
# ---------------------------------------------------------------------------


def test_likert_prompt_matches_golden():
    got = render_likert_prompt(DESC, InstructionCondition.HONEST, "Am the life of the party.")
    assert got == (GOLDEN / "likert_honest.txt").read_text(encoding="utf-8")


def test_gfc_prompt_matches_golden():
    got = render_gfc_prompt(
        DESC,
        InstructionCondition.FAKE_GOOD,
        "Am the life of the party.",
        "Worry about things.",
    )
    assert got == (GOLDEN / "gfc_fake_good.txt").read_text(encoding="utf-8")


def test_rating_prompt_matches_golden():
    got = render_rating_prompt(["Am the life of the party.", "Worry about things."])
    assert got == (GOLDEN / "rating_two_statements.txt").read_text(encoding="utf-8")


def test_empty_statements_rejected():
    from sdrkit.core import SdrkitError

    with pytest.raises(SdrkitError):
        render_likert_prompt(DESC, InstructionCondition.HONEST, "")
    with pytest.raises(SdrkitError):
        render_gfc_prompt(DESC, InstructionCondition.HONEST, "left", "")


# ---------------------------------------------------------------------------
# Reply parsing
# ---------------------------------------------------------------------------


@pytest.mark.parametrize(
    "text,value",
    [("4", 4), (" 7 \n", 7), ("1", 1), ("2", 2), ("3", 3), ("5", 5), ("6", 6), ("7", 7)],
)
def test_parse_single_int_accepts(text, value):
    assert parse_single_int(text) == value


@pytest.mark.parametrize(
    "text,kind",
    [("", "empty"), ("  ", "empty"), ("4.", "extra-text"), ("answer: 4", "extra-text"),
     ("8", "out-of-range"), ("0", "out-of-range"), ("-3", "extra-text")],
)
def test_parse_single_int_rejects(text, kind):
    with pytest.raises(ResponseParseError) as exc:
        parse_single_int(text)
    assert exc.value.kind == kind


@pytest.mark.parametrize("text", ["\u00b2", "\u00b9", " \u00b3\n", "1\u00b2"])
def test_parse_single_int_refits_a_digit_int_cannot_read(text):
    # superscripts are digits to str.isdigit, but int() refuses them
    with pytest.raises(ResponseParseError) as exc:
        parse_single_int(text)
    assert exc.value.kind == "extra-text"


def _reference_parse(text: str) -> int:
    """The general check that ``parse_single_int`` applies to any reply."""
    stripped = text.strip()
    if not stripped:
        raise ResponseParseError("empty", "empty reply")
    if not stripped.isdigit():
        raise ResponseParseError("extra-text", f"reply is not a bare integer: {text!r}")
    if not stripped.isdecimal():  # a digit that int() cannot read, such as "²", is text too
        raise ResponseParseError("extra-text", f"reply is not a bare integer: {text!r}")
    value = int(stripped)
    if not (1 <= value <= 7):
        raise ResponseParseError("out-of-range", f"integer {value} outside 1..7")
    return value


def _outcome(parse, text):
    """The value ``parse`` returns for ``text``, or the error it raises."""
    try:
        return parse(text)
    except Exception as exc:  # any error, so that one of the wrong type shows
        return type(exc), getattr(exc, "kind", None), str(exc)


@settings(max_examples=300, derandomize=True, database=None, deadline=None)
@given(text=st.text())
@example(text=" 7")
@example(text="7\n")
@example(text="07")
@example(text="\u0663")  # ARABIC-INDIC DIGIT THREE: a decimal digit int() reads as 3
@example(text="\uff17")  # FULLWIDTH DIGIT SEVEN
@example(text="\u00b2")  # SUPERSCRIPT TWO: a digit, but not a decimal one
@example(text=" \u00b9 ")  # SUPERSCRIPT ONE
@example(text="8")
@example(text="0")
@example(text="")
def test_parse_single_int_matches_the_general_check(text):
    assert _outcome(parse_single_int, text) == _outcome(_reference_parse, text)


# ---------------------------------------------------------------------------
# Session planning
# ---------------------------------------------------------------------------


def make_plans(small_pool_inventory, conditions, formats=None, seed=11):
    pool, inv = small_pool_inventory
    formats = formats or [ResponseFormat.LIKERT, ResponseFormat.GFC]
    return make_session_plans(
        [make_persona("p001"), make_persona("p002")], inv, pool,
        formats, conditions, seed=seed, respondent_id="m",
    )


def test_presentation_order_fixed_across_conditions(small_pool_inventory):
    plans = make_plans(
        small_pool_inventory,
        [InstructionCondition.HONEST, InstructionCondition.FAKE_GOOD],
    )
    by_key = {(p.persona.id, p.format, p.condition): p for p in plans}
    for pid in ("p001", "p002"):
        for fmt in ResponseFormat:
            honest = by_key[(pid, fmt, InstructionCondition.HONEST)]
            fake = by_key[(pid, fmt, InstructionCondition.FAKE_GOOD)]
            assert honest.units == fake.units  # same order AND side assignment


def test_orders_differ_across_personas_and_formats(small_pool_inventory):
    plans = make_plans(small_pool_inventory, [InstructionCondition.HONEST])
    by_key = {(p.persona.id, p.format): [u.id for u in p.units] for p in plans}
    assert by_key[("p001", ResponseFormat.LIKERT)] != by_key[("p002", ResponseFormat.LIKERT)]
    assert set(by_key[("p001", ResponseFormat.LIKERT)]) == {
        i for k in by_key[("p001", ResponseFormat.GFC)] for i in k.split("~")
    }


def test_plans_deterministic_under_seed(small_pool_inventory):
    a = make_plans(small_pool_inventory, [InstructionCondition.HONEST], seed=5)
    b = make_plans(small_pool_inventory, [InstructionCondition.HONEST], seed=5)
    c = make_plans(small_pool_inventory, [InstructionCondition.HONEST], seed=6)
    assert a == b
    assert a != c


def test_gfc_flips_display_statement_sides(small_pool_inventory):
    pool, inv = small_pool_inventory
    plans = make_session_plans(
        [make_persona(f"p{i:03d}") for i in range(12)], inv, pool,
        [ResponseFormat.GFC], [InstructionCondition.HONEST], seed=0, respondent_id="m",
    )
    flips = [u.flipped for p in plans for u in p.units]
    assert any(flips) and not all(flips)
    for p in plans:
        for u in p.units:
            canonical = tuple(pool.get(i).text for i in u.statements)
            assert u.texts == (canonical[::-1] if u.flipped else canonical)


# ---------------------------------------------------------------------------
# Keyed uniforms
# ---------------------------------------------------------------------------


@settings(max_examples=200, derandomize=True, database=None, deadline=None)
@given(
    seed=st.integers(0, 2**63 - 1),
    key=st.lists(st.text(max_size=8), max_size=3),
    unit_ids=st.lists(st.text(max_size=12), max_size=40),
)
@example(seed=0, key=["p001", "likert"], unit_ids=[])
@example(seed=2**63 - 1, key=["p001", "gfc"], unit_ids=["n\u00e4\u65e5~\U0001f600"])
def test_keyed_uniforms_are_each_units_first_keyed_draw(seed, key, unit_ids):
    (got,) = keyed_uniform_table(seed, [key], unit_ids)
    assert got.dtype == np.float64 and got.shape == (len(unit_ids),)
    assert got.tolist() == [keyed_rng(seed, *key, uid).random() for uid in unit_ids]


@settings(max_examples=50, derandomize=True, database=None, deadline=None)
@given(
    seed=st.integers(0, 2**63 - 1),
    keys=st.lists(st.lists(st.text(max_size=6), max_size=2), max_size=4),
    unit_ids=st.lists(st.text(max_size=8), max_size=10),
)
def test_keyed_uniform_table_rows_are_each_keys_uniforms(seed, keys, unit_ids):
    got = keyed_uniform_table(seed, keys, unit_ids)
    assert got.dtype == np.float64 and got.shape == (len(keys), len(unit_ids))
    for key, row in zip(keys, got):
        assert row.tolist() == [keyed_rng(seed, *key, uid).random() for uid in unit_ids]


def first_rotation(key: int) -> int:
    """The XSL-RR rotation of ``default_rng(key)``'s first output: the top six
    bits of its PCG64 state after one step."""
    bit_generator = np.random.PCG64(key)
    bit_generator.random_raw()
    return bit_generator.state["state"]["state"] >> 122


def test_first_uniforms_match_default_rng_on_one_and_two_word_keys():
    # a rotation of 0 would shift by 64 if taken as 64 - rot
    unrotated = [k for k in range(1000) if first_rotation(k) == 0]
    assert len(unrotated) >= 3
    keys = [0, 1, 2**32 - 1, 2**32, 2**63, 2**64 - 1, *unrotated]
    want = [np.random.default_rng(k).random() for k in keys]
    assert _first_uniforms(np.array(keys, dtype=np.uint64)).tolist() == want
    for k, u in zip(keys, want):
        assert _first_uniforms(np.array([k], dtype=np.uint64)).tolist() == [u]


# ---------------------------------------------------------------------------
# Session execution and retries
# ---------------------------------------------------------------------------


class ScriptedProvider:
    model_id = "scripted"

    def __init__(self, replies):
        self.replies = list(replies)
        self.calls = []

    def complete(self, plan, unit) -> ProviderReply:
        self.calls.append(render_unit_prompt(plan, unit))
        reply = self.replies.pop(0)
        if isinstance(reply, Exception):
            raise reply
        return ProviderReply(text=reply)


def single_unit_plan(small_pool_inventory):
    pool, inv = small_pool_inventory
    (plan,) = make_session_plans(
        [make_persona()], inv, pool, [ResponseFormat.LIKERT],
        [InstructionCondition.HONEST], seed=0, respondent_id="m",
    )
    return plan


def test_retry_ceiling_is_one_plus_three(small_pool_inventory):
    plan = single_unit_plan(small_pool_inventory)
    provider = ScriptedProvider(["garbage"] * 4 * len(plan.units))
    result = run_session(plan, provider)
    assert not result.complete
    assert result.failed_unit == plan.units[0].id
    # exactly 4 attempts on the failing unit, all with the identical prompt
    assert len(provider.calls) == 4
    assert len(set(provider.calls)) == 1
    assert result.refit_count == 3


def test_retry_recovers_after_nonconforming_replies(small_pool_inventory):
    plan = single_unit_plan(small_pool_inventory)
    n = len(plan.units)
    replies = ["not a number", "9", "4"] + ["4"] * (n - 1)
    provider = ScriptedProvider(replies)
    result = run_session(plan, provider)
    assert result.complete
    assert result.refit_count == 2
    assert result.response_set.answers[plan.units[0].id] == 4


def test_transport_retries_with_backoff_do_not_count_as_refits(small_pool_inventory):
    plan = single_unit_plan(small_pool_inventory)
    n = len(plan.units)
    replies = [TransportError("boom"), TransportError("boom"), "5"] + ["5"] * (n - 1)
    provider = ScriptedProvider(replies)
    sleeps = []
    result = run_session(plan, provider, sleep=sleeps.append)
    assert result.complete
    assert result.refit_count == 0
    assert result.transport_retries == 2
    assert sleeps == [1.0, 2.0]  # exponential backoff


def test_transport_backoff_restarts_with_each_format_attempt(small_pool_inventory):
    plan = single_unit_plan(small_pool_inventory)
    n = len(plan.units)
    replies = [TransportError("boom"), "x", TransportError("boom"), TransportError("boom"), "3"]
    provider = ScriptedProvider(replies + ["3"] * (n - 1))
    sleeps = []
    result = run_session(plan, provider, sleep=sleeps.append)
    assert result.complete
    assert result.refit_count == 1
    assert result.transport_retries == 3
    assert sleeps == [1.0, 1.0, 2.0]
    assert result.response_set.answers[plan.units[0].id] == 3


def test_superscript_reply_is_refitted_not_fatal(small_pool_inventory):
    plan = single_unit_plan(small_pool_inventory)
    provider = ScriptedProvider(["\u00b2", "2"] + ["2"] * (len(plan.units) - 1))
    result = run_session(plan, provider)
    assert result.complete
    assert result.refit_count == 1
    assert result.response_set.answers[plan.units[0].id] == 2


@pytest.mark.parametrize("retry_after, sleeps", [
    (None, [1.0, 2.0]),
    (0.5, [1.0, 2.0]),  # never shorter than the back-off
    (3.0, [3.0, 3.0]),
    (1e9, [MAX_RETRY_WAIT_S] * 2),
    (math.inf, [MAX_RETRY_WAIT_S] * 2),
])
def test_transport_wait_honours_retry_after_up_to_the_cap(small_pool_inventory, retry_after, sleeps):
    plan = single_unit_plan(small_pool_inventory)
    busy = TransportError("HTTP 429: slow down", retry_after)
    provider = ScriptedProvider([busy, busy, "5"] + ["5"] * (len(plan.units) - 1))
    waited = []
    result = run_session(plan, provider, sleep=waited.append)
    assert result.complete
    assert result.transport_retries == 2
    assert waited == sleeps


def test_transport_failure_exhausts_and_raises(small_pool_inventory):
    plan = single_unit_plan(small_pool_inventory)
    provider = ScriptedProvider([TransportError("down")] * 4)
    with pytest.raises(TransportError):
        run_session(plan, provider, sleep=lambda s: None)


def test_session_prompts_are_rendered_units(small_pool_inventory):
    plan = single_unit_plan(small_pool_inventory)
    n = len(plan.units)
    provider = ScriptedProvider(["3"] * n)
    run_session(plan, provider)
    assert provider.calls == [render_unit_prompt(plan, u) for u in plan.units]


# ---------------------------------------------------------------------------
# Rating plan
# ---------------------------------------------------------------------------


def test_rating_plan_partitions_pool(small_pool_inventory):
    pool, _ = small_pool_inventory
    prompts = build_rating_plan(pool, ["r1"], replications=3, block_size=4, seed=0)
    by_rep = {}
    for p in prompts:
        by_rep.setdefault(p.replication, []).extend(p.item_ids)
    assert set(by_rep) == {1, 2, 3}
    for rep, ids in by_rep.items():
        assert sorted(ids) == sorted(it.id for it in pool)  # full pool, no repeats
    # permutations differ across replications
    assert by_rep[1] != by_rep[2] or by_rep[2] != by_rep[3]
    # block sizes: 4 + 4 + 2
    sizes = [len(p.item_ids) for p in prompts if p.replication == 1]
    assert sizes == [4, 4, 2]
    assert "EXACTLY 4 integers" in prompts[0].text


# ---------------------------------------------------------------------------
# HTTP provider
# ---------------------------------------------------------------------------


class FakeResponse:
    def __init__(self, status_code=200, payload=None, text="", headers=None):
        self.status_code = status_code
        self._payload = payload
        self.text = text
        self.headers = headers or {}

    def json(self):
        return self._payload


class FakeSession:
    def __init__(self, response):
        self.response = response
        self.posts = []

    def post(self, url, json=None, headers=None, timeout=None):
        self.posts.append({"url": url, "json": json, "headers": headers})
        return self.response


def test_http_provider_round_trip(monkeypatch, small_pool_inventory):
    session = FakeSession(
        FakeResponse(payload={"choices": [{"message": {"content": " 6 "}}]})
    )
    monkeypatch.setenv("SDRKIT_API_TOKEN", "secret")
    provider = HttpProvider("https://api.example/v1/chat", "model-x", session=session)
    plan = single_unit_plan(small_pool_inventory)
    reply = provider.complete(plan, plan.units[0])
    assert reply.text == " 6 "
    post = session.posts[0]
    # the planned session and unit stay in process: only the rendered message is sent
    assert post["json"] == {
        "model": "model-x",
        "messages": [{"role": "user", "content": render_unit_prompt(plan, plan.units[0])}],
    }
    assert post["headers"]["Authorization"] == "Bearer secret"


def test_http_provider_error_paths(monkeypatch, small_pool_inventory):
    monkeypatch.delenv("SDRKIT_API_TOKEN", raising=False)
    plan = single_unit_plan(small_pool_inventory)
    provider = HttpProvider(
        "https://api.example/v1/chat", "m", session=FakeSession(FakeResponse(status_code=500, text="oops"))
    )
    with pytest.raises(TransportError):
        provider.complete(plan, plan.units[0])
    provider = HttpProvider(
        "https://api.example/v1/chat", "m", session=FakeSession(FakeResponse(payload={"nope": 1}))
    )
    with pytest.raises(TransportError):
        provider.complete(plan, plan.units[0])


def test_http_provider_null_content_is_an_empty_reply(monkeypatch, small_pool_inventory):
    monkeypatch.delenv("SDRKIT_API_TOKEN", raising=False)
    plan = single_unit_plan(small_pool_inventory)
    session = FakeSession(FakeResponse(payload={"choices": [{"message": {"content": None}}]}))
    provider = HttpProvider("https://api.example/v1/chat", "m", session=session)
    assert provider.complete(plan, plan.units[0]).text == ""
    # the empty reply is refitted like any other, then fails the session
    result = run_session(plan, provider, sleep=lambda s: None)
    assert not result.complete
    assert result.failed_unit == plan.units[0].id
    assert result.refit_count == 3
    assert result.transport_retries == 0
    assert len(session.posts) == 1 + 4


@pytest.mark.parametrize("content", [[{"type": "text", "text": "4"}], 4, 4.0, True])
def test_http_provider_non_string_content_is_malformed(monkeypatch, small_pool_inventory, content):
    monkeypatch.delenv("SDRKIT_API_TOKEN", raising=False)
    plan = single_unit_plan(small_pool_inventory)
    session = FakeSession(FakeResponse(payload={"choices": [{"message": {"content": content}}]}))
    provider = HttpProvider("https://api.example/v1/chat", "m", session=session)
    with pytest.raises(TransportError, match="malformed provider response"):
        provider.complete(plan, plan.units[0])


@pytest.mark.parametrize(
    "body", [[], None, "x", {"choices": [None]}, {"choices": [{"message": "4"}]}],
    ids=["list", "null", "string", "null-choice", "string-message"],
)
def test_http_provider_body_of_the_wrong_shape_is_malformed(
    monkeypatch, small_pool_inventory, body
):
    monkeypatch.delenv("SDRKIT_API_TOKEN", raising=False)
    plan = single_unit_plan(small_pool_inventory)
    session = FakeSession(FakeResponse(payload=body))
    provider = HttpProvider("https://api.example/v1/chat", "m", session=session)
    with pytest.raises(TransportError, match="malformed provider response"):
        provider.complete(plan, plan.units[0])


@pytest.mark.parametrize("status, header, retry_after", [
    (429, "7", 7.0),
    (503, " 120 ", 120.0),
    (429, "0", 0.0),
    (429, "9" * 400, math.inf),  # capped where it is used
    (429, "Wed, 21 Oct 2026 07:28:00 GMT", None),  # an HTTP-date keeps the back-off
    (429, "-3", None),
    (429, "1.5", None),
    (429, "\u0663", None),  # delta-seconds are ASCII digits
    (429, None, None),
    (500, "7", None),  # only 429 and 503 ask for a wait
], ids=["429", "503-spaced", "zero", "huge", "http-date", "negative", "fraction", "non-ascii",
        "absent", "500"])
def test_http_provider_reads_a_delta_seconds_retry_after(
    monkeypatch, small_pool_inventory, status, header, retry_after
):
    monkeypatch.delenv("SDRKIT_API_TOKEN", raising=False)
    plan = single_unit_plan(small_pool_inventory)
    headers = {} if header is None else {"Retry-After": header}
    session = FakeSession(FakeResponse(status_code=status, text="busy", headers=headers))
    provider = HttpProvider("https://api.example/v1/chat", "m", session=session)
    with pytest.raises(TransportError, match=f"^HTTP {status}: busy$") as exc:
        provider.complete(plan, plan.units[0])
    assert exc.value.retry_after == retry_after


def test_http_retry_after_sets_the_session_wait(monkeypatch, small_pool_inventory):
    monkeypatch.delenv("SDRKIT_API_TOKEN", raising=False)
    plan = single_unit_plan(small_pool_inventory)
    busy = FakeResponse(status_code=503, text="busy", headers={"Retry-After": "10"})
    ok = FakeResponse(payload={"choices": [{"message": {"content": "4"}}]})

    class Session:  # 503 twice, then answers
        posts = 0

        def post(self, url, json=None, headers=None, timeout=None):
            self.posts += 1
            return busy if self.posts <= 2 else ok

    provider = HttpProvider("https://api.example/v1/chat", "m", session=Session())
    waited = []
    result = run_session(plan, provider, sleep=waited.append)
    assert result.complete
    assert result.transport_retries == 2
    assert waited == [10.0, 10.0]
