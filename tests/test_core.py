"""Domain types, constraint validation, and CSV round-trips."""

import csv
import io
import json
import re

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from sdrkit.core import (
    AssemblyConfig,
    GfcBlock,
    InstructionCondition,
    Inventory,
    InventoryError,
    Item,
    ItemPool,
    PoolError,
    ResponseFormat,
    ResponseSet,
    SdrkitError,
    TraitDomain,
    Unit,
    block_id,
    cell,
    load_inventory,
    load_item_pool,
    load_response_sets,
    read_count,
    read_member,
    read_text,
    validate_inventory,
    write_csv_rows,
    write_inventory,
    write_item_pool,
    write_response_sets,
)
from sdrkit.irt import load_fit_artifact, theta_table
from sdrkit.personas import load_persona_set, sample_personas, write_persona_set
from sdrkit.ratings import RatingError, load_rating_dataset
from sdrkit.simulate import default_sim_params, load_sim_params, write_sim_params


def test_trait_domain_order_and_labels(tmp_path):
    assert [t.name for t in TraitDomain] == ["A", "C", "E", "N", "O"]
    f = tmp_path / "pool.csv"
    f.write_text("id,text,domain,keying\nx,hello, o ,1\n")
    assert load_item_pool(f).get("x").domain is TraitDomain.O
    f.write_text("id,text,domain,keying\nx,hello,X,1\n")
    message = f"{f}: malformed pool row at line 2: domain must be one of 'A', 'C', 'E', 'N', 'O', got 'X'"
    with pytest.raises(PoolError, match=f"^{re.escape(message)}$"):
        load_item_pool(f)


def test_item_validation():
    with pytest.raises(PoolError):
        Item("i", "text", TraitDomain.A, keying=0)
    with pytest.raises(PoolError):
        Item("i", "", TraitDomain.A, keying=1)
    with pytest.raises(PoolError):
        Item("i", "text", TraitDomain.A, keying=1, desirability=9.5)


def test_pool_rejects_duplicates_and_resolves_ids():
    a = Item("x", "t", TraitDomain.A, 1)
    with pytest.raises(PoolError):
        ItemPool((a, a))
    pool = ItemPool((a,))
    assert pool.get("x") is a
    with pytest.raises(InventoryError):
        pool.get("missing")


def test_with_desirability_requires_full_coverage():
    pool = ItemPool((Item("x", "t", TraitDomain.A, 1), Item("y", "u", TraitDomain.C, -1)))
    with pytest.raises(PoolError):
        pool.with_desirability({"x": 5.0})
    rated = pool.with_desirability({"x": 5.0, "y": 6.0})
    assert rated.get("y").desirability == 6.0


def test_block_validation():
    with pytest.raises(InventoryError):
        GfcBlock("a", "a", 0.1)
    with pytest.raises(InventoryError):
        GfcBlock("a", "b", -0.1)


def test_block_id_format():
    assert block_id("A01p", "C07n") == "A01p~C07n"


def test_units_of_each_format_follow_block_order(small_pool_inventory):
    _, inv = small_pool_inventory
    assert inv.units(ResponseFormat.LIKERT) == tuple(Unit(i, (i,)) for i in inv.statements)
    assert inv.units(ResponseFormat.GFC) == tuple(
        Unit(f"{b.left}~{b.right}", (b.left, b.right)) for b in inv.blocks
    )
    reused = Inventory(inv.blocks + (GfcBlock("a1", "e2", 0.1),))
    for fmt in ResponseFormat:
        with pytest.raises(InventoryError, match=re.escape("['a1', 'e2']")):
            reused.units(fmt)


def test_response_set_validation():
    with pytest.raises(SdrkitError):
        ResponseSet("r", "p", ResponseFormat.LIKERT, InstructionCondition.HONEST,
                    answers={"i": 8}, presentation_order=("i",))
    with pytest.raises(SdrkitError):
        ResponseSet("r", "p", ResponseFormat.LIKERT, InstructionCondition.HONEST,
                    answers={"i": 3}, presentation_order=("i", "j"))


def test_standard_config_scales_with_block_count():
    cfg = AssemblyConfig.standard(30)
    assert cfg.per_trait == 12
    assert cfg.per_trait_pair == 3
    assert cfg.mixed_key_range == (12, 18)
    cfg10 = AssemblyConfig.standard(10)
    assert (cfg10.per_trait, cfg10.per_trait_pair, cfg10.mixed_key_range) == (4, 1, (4, 6))
    with pytest.raises(SdrkitError):
        AssemblyConfig.standard(25)


def test_validate_inventory_flags_reuse_and_gap_mismatch(small_pool_inventory):
    pool, inv = small_pool_inventory
    cfg = AssemblyConfig(block_count=5, per_trait=2, per_trait_pair=None,
                         mixed_key_range=None, sign_floor=None)
    report = validate_inventory(inv, pool, cfg, gap_tol=1e-12)
    assert report.ok, report.failed()
    assert report.trait_counts == {t: 2 for t in "ACENO"}

    # stored gap inconsistent with the pool
    bad = Inventory((GfcBlock("a1", "c1", 0.5),) + inv.blocks[1:])
    rep = validate_inventory(bad, pool, cfg, gap_tol=1e-12)
    assert "gap-consistency" in rep.failed()

    # item reuse across blocks
    reused = Inventory((inv.blocks[0], GfcBlock("a1", "e2", 2.0)) + inv.blocks[2:])
    rep = validate_inventory(reused, pool, AssemblyConfig(block_count=5))
    assert "item-uniqueness" in rep.failed()


def test_pool_and_inventory_round_trip(tmp_path, small_pool_inventory):
    pool, inv = small_pool_inventory
    p = tmp_path / "pool.csv"
    write_item_pool(pool, p)
    back = load_item_pool(p)
    assert [it.id for it in back] == [it.id for it in pool]
    assert all(back.get(it.id).desirability == it.desirability for it in pool)

    f = tmp_path / "inv.csv"
    write_inventory(inv, f)
    assert load_inventory(f) == inv


def test_load_item_pool_errors(tmp_path):
    p = tmp_path / "bad.csv"
    p.write_text("id,text\nx,hello\n")
    with pytest.raises(PoolError):
        load_item_pool(p)
    p.write_text("id,text,domain,keying\n")
    with pytest.raises(PoolError):
        load_item_pool(p)


def test_response_set_round_trip(tmp_path):
    rs = ResponseSet(
        respondent_id="m", persona_id="p001", format=ResponseFormat.GFC,
        condition=InstructionCondition.FAKE_GOOD,
        answers={"a~b": 3, "c~d": 7},
        presentation_order=("c~d", "a~b"),
        side_assignment={"a~b": True, "c~d": False},
    )
    f = tmp_path / "resp.csv"
    write_response_sets([rs], f)
    (back,) = load_response_sets(f)
    assert back == rs


def test_response_file_cut_mid_row_names_the_file_and_line(tmp_path):
    rs = ResponseSet(
        respondent_id="m", persona_id="p001", format=ResponseFormat.LIKERT,
        condition=InstructionCondition.HONEST,
        answers={"a": 3, "b": 7, "c": 1},
        presentation_order=("a", "b", "c"),
    )
    f = tmp_path / "resp.csv"
    write_response_sets([rs], f)
    whole = load_response_sets(f)
    lines = f.read_text().splitlines(keepends=True)
    head, last = "".join(lines[:-1]), lines[-1].rstrip("\r\n")
    assert len(lines) == 4  # header and three rows; line 4 is cut
    for cut in range(1, len(last)):  # every cut short of the row's last character
        f.write_text(head + last[:cut])
        with pytest.raises(SdrkitError, match=f"^{f}: malformed response row at line 4"):
            load_response_sets(f)
    f.write_text(head + last)  # only the line end is lost: the row is whole
    assert load_response_sets(f) == whole


def test_response_sets_checked_against_an_inventory_name_the_file(tmp_path):
    inv = Inventory((GfcBlock("a", "b", 0.1),))
    whole = ResponseSet(
        respondent_id="m", persona_id="p001", format=ResponseFormat.LIKERT,
        condition=InstructionCondition.HONEST, answers={"a": 3, "b": 5},
        presentation_order=("a", "b"),
    )
    short = ResponseSet(
        respondent_id="m", persona_id="p002", format=ResponseFormat.GFC,
        condition=InstructionCondition.HONEST, answers={"b~a": 2},
        presentation_order=("b~a",),
    )
    f = tmp_path / "resp.csv"
    write_response_sets([whole], f)
    assert load_response_sets(f, inv) == load_response_sets(f)
    write_response_sets([whole, short], f)
    assert len(load_response_sets(f)) == 2  # without the inventory, unchecked
    message = f"{f}: response set m/p002/honest (gfc) has no answer for unit 'a~b'"
    with pytest.raises(SdrkitError, match=f"^{re.escape(message)}$"):
        load_response_sets(f, inv)


def _likert_set_rows(tmp_path):
    rs = ResponseSet(
        respondent_id="m", persona_id="p001", format=ResponseFormat.LIKERT,
        condition=InstructionCondition.HONEST,
        answers={"a": 3, "b": 7, "c": 1},
        presentation_order=("a", "b", "c"),
    )
    f = tmp_path / "resp.csv"
    write_response_sets([rs], f)
    return f, f.read_text().splitlines(keepends=True)


def test_response_file_answering_a_unit_twice_names_the_file_and_line(tmp_path):
    f, lines = _likert_set_rows(tmp_path)
    fields = lines[2].split(",")  # unit b, answered 7
    fields[5], fields[6] = "2", "3"  # answered 2 at a new position
    f.write_text("".join(lines) + ",".join(fields))
    message = (f"{f}: malformed response row at line 5: a second answer to unit 'b' of "
               "'m', 'p001', likert, honest")
    with pytest.raises(SdrkitError) as exc:
        load_response_sets(f)
    assert str(exc.value) == message


@pytest.mark.parametrize("column, value, message", [
    (2, "99", "format must be one of 'likert', 'gfc', got '99'"),
    (3, "honestly", "condition must be one of 'honest', 'fake_good', got 'honestly'"),
], ids=["format", "condition"])
def test_response_file_with_an_unknown_format_or_condition_names_the_file_and_line(
    tmp_path, column, value, message
):
    f, lines = _likert_set_rows(tmp_path)
    fields = lines[2].split(",")
    fields[column] = value
    lines[2] = ",".join(fields)
    f.write_text("".join(lines))
    with pytest.raises(SdrkitError) as exc:
        load_response_sets(f)
    assert str(exc.value) == f"{f}: malformed response row at line 3: {message}"


@pytest.mark.parametrize("column, value, message", [
    (7, "2", "side_flipped must be an integer in [0, 1], got 2"),
    (6, "-1", "position must be an integer of at least 0, got -1"),
], ids=["side_flipped-2", "position-negative"])
def test_response_file_with_a_count_out_of_range_names_the_file_line_and_field(
    tmp_path, column, value, message
):
    f, lines = _likert_set_rows(tmp_path)
    fields = lines[2].rstrip("\r\n").split(",")
    fields[column] = value
    lines[2] = ",".join(fields) + "\n"
    f.write_text("".join(lines))
    with pytest.raises(SdrkitError) as exc:
        load_response_sets(f)
    assert str(exc.value) == f"{f}: malformed response row at line 3: {message}"


def test_response_file_row_with_an_extra_field_names_the_file_and_line(tmp_path):
    f, lines = _likert_set_rows(tmp_path)
    lines[2] = lines[2].rstrip("\r\n") + ",5\n"
    f.write_text("".join(lines))
    message = f"{f}: malformed response row at line 3: a row must have one field per header column"
    with pytest.raises(SdrkitError, match=f"^{re.escape(message)}$"):
        load_response_sets(f)


# ---------------------------------------------------------------------------
# The response file's writer and reader against plain csv references
# ---------------------------------------------------------------------------

_ID_TEXT = st.text(st.sampled_from(["a", "7", " ", ",", '"', "\r", "\n", "é", "☃", "~"]),
                   max_size=6)


@st.composite
def _response_sets(draw):
    """Sets with ids that csv must quote, or not, each set's key its own."""
    personas = draw(st.lists(_ID_TEXT, max_size=4, unique=True))
    sets = []
    for persona in personas:
        units = draw(st.lists(_ID_TEXT, max_size=5, unique=True))
        fmt = draw(st.sampled_from(ResponseFormat))
        sets.append(ResponseSet(
            respondent_id=draw(_ID_TEXT), persona_id=persona, format=fmt,
            condition=draw(st.sampled_from(InstructionCondition)),
            answers={u: draw(st.integers(1, 7)) for u in units},
            presentation_order=tuple(draw(st.permutations(units))),
            side_assignment=({u: draw(st.booleans()) for u in units}
                             if fmt is ResponseFormat.GFC else {}),  # only GFC has sides
        ))
    return sets


def _csv_writer_bytes(sets) -> bytes:
    """The response file as one ``csv.writer`` writes it row by row."""
    out = io.StringIO(newline="")
    w = csv.writer(out)
    w.writerow(["respondent_id", "persona_id", "format", "condition",
                "unit_id", "answer", "position", "side_flipped"])
    for rs in sets:
        for pos, unit in enumerate(rs.presentation_order):
            w.writerow([rs.respondent_id, rs.persona_id, rs.format.value, rs.condition.value,
                        unit, rs.answers[unit], pos, int(bool(rs.side_assignment.get(unit)))])
    return out.getvalue().encode("utf-8")


@settings(max_examples=200, derandomize=True, database=None, deadline=None)
@given(sets=_response_sets())
@example(sets=[ResponseSet(" r ", "p,1", ResponseFormat.GFC, InstructionCondition.HONEST,
                           {'a"b\r\nc': 4, "é ": 1, "x\ry": 7}, ("é ", 'a"b\r\nc', "x\ry"),
                           {'a"b\r\nc': True, "é ": False, "x\ry": True})])
@example(sets=[ResponseSet("", "", ResponseFormat.LIKERT, InstructionCondition.FAKE_GOOD,
                           {"": 2}, ("",))])  # empty fields, which csv leaves bare
def test_response_writer_matches_csv_writer_and_round_trips(tmp_path_factory, sets):
    f = tmp_path_factory.mktemp("resp") / "resp.csv"
    write_response_sets(sets, f)
    assert f.read_bytes() == _csv_writer_bytes(sets)
    ids = [i for rs in sets for i in (rs.respondent_id, rs.persona_id, *rs.answers)]
    if all(ids):  # the reader refuses an empty id
        assert load_response_sets(f) == [rs for rs in sets if rs.answers]


def _reference_read_csv_rows(path, parse, what, error=SdrkitError, header=()):
    """The reader as it was with ``csv.DictReader``, one dict per row."""
    with open(path, newline="", encoding="utf-8") as fh:
        reader = csv.DictReader(fh)
        if not set(header) <= set(reader.fieldnames or ()):
            raise error(f"{path}: expected header columns {list(header)}")
        for row in reader:
            try:
                if None in row or None in row.values():
                    raise ValueError("a row must have one field per header column")
                yield parse(row)
            except (KeyError, ValueError, error) as exc:
                raise error(f"{path}: malformed {what} at line {reader.line_num}: {exc}") from None


def _reference_load(path):
    """``load_response_sets`` as it was: every field of every row read alone."""
    groups = {}

    def row(raw):
        key = (
            read_text(raw["respondent_id"], "respondent_id"),
            read_text(raw["persona_id"], "persona_id"),
            read_member(raw["format"], "format", ResponseFormat),
            read_member(raw["condition"], "condition", InstructionCondition),
        )
        unit = read_text(raw["unit_id"], "unit_id")
        answers = groups.setdefault(key, {})
        if unit in answers:
            raise ValueError(f"a second answer to unit {unit!r} of {key[0]!r}, "
                             f"{key[1]!r}, {key[2].value}, {key[3].value}")
        answers[unit] = (
            read_count(cell(raw["position"]), "position"),
            read_count(cell(raw["answer"]), "answer", 1, 7),
            read_count(cell(raw["side_flipped"]), "side_flipped", 0, 1) == 1,
        )

    for _ in _reference_read_csv_rows(path, row, "response row"):
        pass
    out = []
    for (resp, persona, fmt, cond), by_unit in groups.items():
        order = sorted(by_unit, key=lambda unit: by_unit[unit][0])
        sides = {u: by_unit[u][2] for u in order} if fmt is ResponseFormat.GFC else {}
        out.append(ResponseSet(resp, persona, fmt, cond, {u: by_unit[u][1] for u in order},
                               tuple(order), sides))
    return out


def _loaded(load, path):
    """The sets ``load`` reads from ``path``, or the error it raises."""
    try:
        return load(path)
    except Exception as exc:  # any error, so that one of the wrong type shows
        return type(exc), str(exc)


_HEAD = "respondent_id,persona_id,format,condition,unit_id,answer,position,side_flipped\r\n"
_ROWS = ["m,p1,gfc,honest,a~b,3,0,1\r\n", "m,p1,gfc,honest,c~d,5,1,0\r\n",
         "m,p2,likert,fake_good,a,7,0,0\r\n"]
_SPELLINGS = ["07", " 3", "3.0", "+3", "3_0", "٣", "8", "", "1", "0", "-0", "1e0", "true"]


def _spelt(column, text):
    """The whole file with ``text`` in ``column`` of every row."""
    at = _HEAD.rstrip("\r\n").split(",").index(column)
    rows = [row.rstrip("\r\n").split(",") for row in _ROWS]
    return _HEAD + "".join(",".join([*r[:at], text, *r[at + 1:]]) + "\r\n" for r in rows)


_FILES = {
    "whole": _HEAD + "".join(_ROWS),
    "no line end": _HEAD + "".join(_ROWS).rstrip("\r\n"),
    "header only": _HEAD,
    "empty": "",
    "blank lines": _HEAD + "\r\n" + _ROWS[0] + "\r\n\n" + "".join(_ROWS[1:]) + "\r\n\r\n",
    "a blank first line": "\r\n" + _HEAD + "".join(_ROWS),
    "blank lines before a bad row": _HEAD + _ROWS[0] + "\n\r\n\n" + "m,p1,gfc,honest,e~f,9,2,0\n",
    "a missing field": _HEAD + _ROWS[0] + "m,p1,gfc,honest,c~d,5,1\r\n",
    "an extra field": _HEAD + _ROWS[0] + "m,p1,gfc,honest,c~d,5,1,0,\r\n",
    "one field": _HEAD + _ROWS[0] + "m\r\n",
    "a field over two lines, then a bad row":
        _HEAD + 'm,p1,gfc,honest,"a~\r\nb",3,0,1\r\n' + "m,p1,gfc,honest,c~d,5,x,0\r\n",
    "a field over two lines, then a second answer":
        _HEAD + 'm,"p\n1",gfc,honest,a~b,3,0,1\r\n' + 'm,"p\n1",gfc,honest,a~b,4,1,0\r\n',
    "a second answer after another set":
        _HEAD + "".join(_ROWS) + "m,p1,gfc,honest,a~b,3,9,1\r\n",
    "sets interleaved": _HEAD + _ROWS[0] + _ROWS[2] + _ROWS[1],
    "positions out of order": _HEAD + _ROWS[1] + _ROWS[0],
    "an empty respondent": _HEAD + _ROWS[0] + ",p1,gfc,honest,c~d,5,1,0\r\n",
    "an empty unit": _HEAD + _ROWS[0] + "m,p1,gfc,honest,,5,1,0\r\n",
    "an unknown format": _HEAD + _ROWS[0] + "m,p1,GFC,honest,c~d,5,1,0\r\n",
    "columns reordered": "answer,unit_id,side_flipped,position,condition,format,persona_id,"
                         "respondent_id\r\n3,a~b,1,0,honest,gfc,p1,m\r\n",
    "a repeated column, the last wins": _HEAD.replace("\r\n", ",answer\r\n")
                                        + _ROWS[0].replace("\r\n", ",6\r\n"),
    "a missing column": _HEAD.replace(",answer", "") + "m,p1,gfc,honest,a~b,0,1\r\n",
    "a missing column after a bad field": _HEAD.replace(",answer", "")
                                          + "m,p1,gfc,honest,a~b,x,1\r\n",
    "a missing shared column": _HEAD.replace(",condition", "") + "m,p1,gfc,a~b,3,0,1\r\n",
    "a missing shared column after a bad one": _HEAD.replace(",condition", "")
                                               + ",p1,gfc,a~b,3,0,1\r\n",
    "a missing column, no rows": _HEAD.replace(",answer", ""),
    **{f"{column} {text!r}": _spelt(column, text)
       for column in ("answer", "position", "side_flipped") for text in _SPELLINGS},
}


@pytest.mark.parametrize("text", _FILES.values(), ids=_FILES.keys())
def test_response_reader_matches_the_dict_reader(tmp_path, text):
    f = tmp_path / "resp.csv"
    f.write_bytes(text.encode("utf-8"))
    assert _loaded(load_response_sets, f) == _loaded(_reference_load, f)


def test_inventory_file_with_a_nan_gap_names_the_file_line_and_field(tmp_path, small_pool_inventory):
    _, inv = small_pool_inventory
    f = tmp_path / "inv.csv"
    write_inventory(inv, f)
    lines = f.read_text().splitlines(keepends=True)
    lines[2] = lines[2][: lines[2].rindex(",") + 1] + "nan\n"
    f.write_text("".join(lines))
    message = (f"{f}: malformed block row at line 3: block 'c2~e2': desirability_gap must be a "
               "finite number of at least 0, got nan")
    with pytest.raises(InventoryError, match=f"^{re.escape(message)}$"):
        load_inventory(f)


def test_inventory_file_using_an_item_twice_is_rejected(tmp_path, small_pool_inventory):
    _, inv = small_pool_inventory
    f = tmp_path / "inv.csv"
    # block 2's right item is block 1's left
    write_inventory(Inventory((inv.blocks[0], GfcBlock("c2", "a1", 2.0)) + inv.blocks[2:]), f)
    message = f"{f}: item 'a1' is used in block 1 and block 2"
    with pytest.raises(InventoryError, match=f"^{re.escape(message)}$"):
        load_inventory(f)


def _cut_row(text):  # the last row loses its last field
    return text[: text.rindex(",")]


def _bad_last_field(text, value="abc"):
    return text[: text.rstrip().rindex(",") + 1] + value + "\n"


def _cut_json(text):
    return text[: len(text) // 2]


def _drop(field, pick):  # valid JSON that lacks ``field`` of the object ``pick`` selects
    def damage(text):
        raw = json.loads(text)
        del pick(raw)[field]
        return json.dumps(raw)

    return damage


def _write_fit(path, pool, inv):
    theta = theta_table([("r1", "p1", "honest")], np.zeros((1, 5)))
    path.write_text(json.dumps({"model": "grm", "theta": theta}))


def _write_inventory(path, pool, inv):
    write_inventory(inv, path)


def _write_ratings(path, pool, inv):
    write_csv_rows(path, ["item_id", "rater", "replication", "value"],
                   [("a1", "r1", 1, 5), ("a2", "r1", 1, 6)])


# case: (write a valid file, damage its text, loader, error, message after the path)
_MALFORMED = {
    "inventory cut mid-row": (
        _write_inventory, _cut_row, load_inventory, InventoryError,
        ": malformed block row at line 6"),
    "inventory gap abc": (
        _write_inventory, _bad_last_field, load_inventory, InventoryError,
        ": malformed block row at line 6"),
    "pool desirability abc": (
        lambda f, pool, inv: write_item_pool(pool, f), _bad_last_field, load_item_pool,
        PoolError, ": malformed pool row at line 11"),
    "persona JSON cut": (
        lambda f, pool, inv: write_persona_set(sample_personas(2, seed=0), f), _cut_json,
        load_persona_set, SdrkitError, " is not valid JSON"),
    "sim-params JSON cut": (
        lambda f, pool, inv: write_sim_params(default_sim_params(inv, pool, seed=0), f),
        _cut_json, load_sim_params, SdrkitError, " is not valid JSON"),
    "fit artifact cut": (
        _write_fit, _cut_json, load_fit_artifact, SdrkitError, " is not valid JSON"),
    "persona without z": (
        lambda f, pool, inv: write_persona_set(sample_personas(2, seed=0), f),
        _drop("z", lambda raw: raw["personas"][1]), load_persona_set, SdrkitError,
        ": malformed persona set: missing field 'z'"),
    "sim-params item without keying": (
        lambda f, pool, inv: write_sim_params(default_sim_params(inv, pool, seed=0), f),
        _drop("keying", lambda raw: raw["items"]["c1"]), load_sim_params, SdrkitError,
        ": malformed simulator params: missing field 'keying'"),
    "fit theta row without persona_id": (
        _write_fit, _drop("persona_id", lambda raw: raw["theta"][0]), load_fit_artifact,
        SdrkitError, ": malformed fit artifact: missing field 'persona_id'"),
    "rating value x": (
        _write_ratings, lambda t: _bad_last_field(t, "x"), load_rating_dataset,
        RatingError, ": malformed rating row at line 3"),
    "rating row cut": (
        _write_ratings, _cut_row, load_rating_dataset, RatingError,
        ": malformed rating row at line 3"),
}


@pytest.mark.parametrize("case", list(_MALFORMED))
def test_malformed_input_file_is_a_package_error(tmp_path, small_pool_inventory, case):
    write, damage, load, error, message = _MALFORMED[case]
    pool, inv = small_pool_inventory
    f = tmp_path / "input"
    write(f, pool, inv)
    load(f)  # the undamaged file loads
    f.write_text(damage(f.read_text()))
    with pytest.raises(error, match="^" + re.escape(f"{f}{message}")):
        load(f)


def test_packaged_marker_files_are_consistent(marker_pool, marker_inventory):
    assert len(marker_pool) == 60
    assert marker_inventory.block_count == 30
    ids = marker_inventory.statements
    assert len(set(ids)) == 60
    scores = np.array([marker_pool.get(i).desirability for i in ids])
    assert np.all((scores >= 1.0) & (scores <= 9.0))
