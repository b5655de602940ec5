"""Domain types, constraint validation, and CSV round-trips."""

import json
import re

import numpy as np
import pytest

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
    load_inventory,
    load_item_pool,
    load_response_sets,
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
