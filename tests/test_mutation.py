"""Seeded mutation test over the input files of administer, fit, report,
aggregate and pipeline.

Each trial deletes a field, retypes it, nulls it or sets it to NaN in one
input file, then runs the command that reads the file. No trial may end in a
traceback. A trial whose mutated value is no longer valid must exit 2 or 3
with a message naming the file; one whose value is still valid, or is not
read, may also exit 0.
"""

from __future__ import annotations

import copy
import json
import math
import random

import pytest

from sdrkit import cli
from sdrkit.cli import EXIT_OK, main
from sdrkit.core import write_csv_rows, write_inventory, write_item_pool
from sdrkit.simulate import default_sim_params, write_sim_params

from conftest import small_instrument

KINDS = ("delete", "retype", "null", "nan")


@pytest.fixture(scope="module")
def study(tmp_path_factory):
    """A 4-persona study on the small instrument: every command's inputs."""
    d = tmp_path_factory.mktemp("study")
    pool, inv = small_instrument()
    write_item_pool(pool, d / "pool.csv")
    write_inventory(inv, d / "inventory.csv")
    write_sim_params(default_sim_params(inv, pool, seed=0), d / "params.json")
    assert main(["personas", "--n", "4", "--seed", "1", "--out", str(d / "personas.json")]) == 0
    for cond in ("honest", "fake_good"):
        assert main(["administer", *_instrument(d), "--personas", str(d / "personas.json"),
                     "--format", "likert", "--condition", cond, "--out", str(d / "runs")]) == 0
    assert main(["fit", *_instrument(d), "--format", "likert", "--responses", str(d / "runs"),
                 "--starts", "1", "--out", str(d / "fit.json")]) == 0
    rng = random.Random(0)
    write_csv_rows(d / "ratings.csv", ["item_id", "rater", "replication", "value"], [
        (it.id, rater, rep, rng.randint(1, 9))
        for it in pool for rater in ("r1", "r2") for rep in (1, 2)
    ])
    (d / "pipeline.json").write_text(json.dumps({
        "pool": str(d / "pool.csv"), "inventory": str(d / "inventory.csv"), "n_personas": 4,
        "backend": "map", "formats": ["likert", "gfc"], "conditions": ["honest", "fake_good"],
        "out_dir": str(d / "run"), "seeds": {"personas": 1, "plan": 2, "fit": 5},
        "provider": {"type": "sim", "fake_good_delta": 1.0, "matched_discrimination": False},
    }))
    return d


def _instrument(d):
    return ["--inventory", str(d / "inventory.csv"), "--pool", str(d / "pool.csv")]


def _paths(node, path=()):
    """The path to every field below ``node``, parents first."""
    if isinstance(node, dict):
        fields = node.items()
    elif isinstance(node, list):
        fields = enumerate(node)
    else:
        return
    for key, child in fields:
        yield (*path, key)
        yield from _paths(child, (*path, key))


def _retyped(value):
    if isinstance(value, bool):
        return int(value)
    if isinstance(value, (int, float)):
        return str(value)  # "0.5" where 0.5 belongs
    if isinstance(value, str):
        return 7
    return {} if isinstance(value, list) else []


def _mutate_json(doc, path, kind):
    doc = copy.deepcopy(doc)
    *head, last = path
    parent = doc
    for key in head:
        parent = parent[key]
    if kind == "delete":
        del parent[last]
    else:
        parent[last] = {"retype": _retyped(parent[last]), "null": None, "nan": math.nan}[kind]
    return doc


# which mutations leave a JSON input valid or unread: (path, kind) -> bool
def _persona_set_ok(path, kind):
    return path[0] == "trait_order" or kind == "delete" and (
        path == ("seed",) or len(path) == 2 and path[0] == "personas")


def _sim_params_ok(path, kind):  # a dropped entry fails the check against the pool
    return kind == "delete" and len(path) == 2


def _fit_ok(path, kind):  # report reads the theta table alone
    return path[0] != "theta" or kind == "delete" and len(path) == 2


def _pipeline_ok(path, kind):  # every key has a default; both conditions must stay
    return kind == "delete" and (path[0] != "conditions" or len(path) == 1)


# CSV columns: "count", "number" and "member" refuse every mutation (an inventory's
# item ids are members of the pool); any text is a valid "text" field but the
# empty one; an "unread" field is never read
RESPONSE_COLUMNS = ("text", "text", "member", "member", "text", "count", "count", "count")
INVENTORY_COLUMNS = ("unread", "member", "member", "number")
RATING_COLUMNS = ("text", "text", "count", "count")


def _mutate_csv(text, row, column, kind):
    lines = text.splitlines(keepends=True)
    fields = lines[row].rstrip("\r\n").split(",")
    numeric = fields[column].lstrip("-").replace(".", "", 1).isdigit()
    if kind == "delete":
        del fields[column]
    else:
        fields[column] = {"retype": "x" if numeric else "7", "null": "", "nan": "nan"}[kind]
    lines[row] = ",".join(fields) + "\n"
    return "".join(lines)


def _csv_ok(columns, column, kind):
    if kind == "delete":  # the row comes up a field short
        return False
    return columns[column] == "unread" or columns[column] == "text" and kind != "null"


class _Accepted(Exception):
    """Raised where a pipeline goes on past its config."""


def _json_trials(rng, doc, n, ok):
    paths = list(_paths(doc))
    for _ in range(n):
        path, kind = rng.choice(paths), rng.choice(KINDS)
        yield f"{kind} {'.'.join(map(str, path))}", _mutate_json(doc, path, kind), ok(path, kind)


def _csv_trials(rng, text, n, columns):
    rows = len(text.splitlines())
    for _ in range(n):
        row, column, kind = rng.randrange(1, rows), rng.randrange(len(columns)), rng.choice(KINDS)
        yield (f"{kind} line {row + 1} column {column}", _mutate_csv(text, row, column, kind),
               _csv_ok(columns, column, kind))


# case -> (input file, number of trials, command line reading the mutated file)
CASES = {
    "persona set, administer": ("personas.json", 20, lambda d, f: [
        "administer", *_instrument(d), "--personas", f, "--format", "gfc",
        "--condition", "honest", "--params", str(d / "params.json")]),
    "persona set, report": ("personas.json", 20, lambda d, f: [
        "report", "--fit-likert", str(d / "fit.json"), "--personas", f]),
    "simulator params, administer": ("params.json", 25, lambda d, f: [
        "administer", *_instrument(d), "--personas", str(d / "personas.json"),
        "--format", "gfc", "--condition", "fake", "--params", f]),
    "fit artifact, report": ("fit.json", 30, lambda d, f: [
        "report", "--fit-likert", f, "--personas", str(d / "personas.json")]),
    "response CSV, fit": ("runs/responses_likert_honest.csv", 25, lambda d, f: [
        "fit", *_instrument(d), "--format", "likert", "--responses", f, "--starts", "1"]),
    "inventory CSV, administer": ("inventory.csv", 15, lambda d, f: [
        "administer", "--inventory", f, "--pool", str(d / "pool.csv"),
        "--personas", str(d / "personas.json"), "--format", "gfc", "--condition", "honest"]),
    "rating CSV, aggregate": ("ratings.csv", 15, lambda d, f: [
        "aggregate", "--ratings", f, "--pool", str(d / "pool.csv")]),
    "pipeline config, pipeline": ("pipeline.json", 25, lambda d, f: [
        "pipeline", "--config", f]),
}
JSON_OK = {"personas.json": _persona_set_ok, "params.json": _sim_params_ok,
           "fit.json": _fit_ok, "pipeline.json": _pipeline_ok}
CSV_COLUMNS = {"runs/responses_likert_honest.csv": RESPONSE_COLUMNS,
               "inventory.csv": INVENTORY_COLUMNS, "ratings.csv": RATING_COLUMNS}


@pytest.mark.parametrize("case", list(CASES))
def test_a_mutated_input_is_refused_by_name_and_never_with_a_traceback(
    study, tmp_path, capsys, monkeypatch, case
):
    name, n, argv = CASES[case]
    rng = random.Random(case)
    text = (study / name).read_text()
    if name in JSON_OK:
        trials = _json_trials(rng, json.loads(text), n, JSON_OK[name])
    else:
        trials = _csv_trials(rng, text, n, CSV_COLUMNS[name])

    def accepted(*args, **kwargs):
        raise _Accepted

    monkeypatch.setattr(cli, "_Stages", accepted)  # a pipeline stops past its config
    monkeypatch.chdir(tmp_path)  # where a pipeline without out_dir writes
    for i, (trial, mutated, ok) in enumerate(trials):
        f = tmp_path / f"{i}-{name.replace('/', '-')}"
        f.write_text(json.dumps(mutated) if name in JSON_OK else mutated)
        args = argv(study, str(f))
        if args[0] != "pipeline":
            args += ["--out", str(tmp_path / f"out{i}")]
        capsys.readouterr()
        try:
            rc = main(args)
        except _Accepted:
            rc = EXIT_OK
        except Exception as exc:  # a traceback
            pytest.fail(f"{case}, {trial}: {type(exc).__name__}: {exc}")
        err = capsys.readouterr().err
        if ok:
            assert rc in (0, 2, 3), f"{case}, {trial}: exit {rc}: {err}"
        else:
            assert rc in (2, 3) and str(f) in err, f"{case}, {trial}: exit {rc}: {err!r}"
