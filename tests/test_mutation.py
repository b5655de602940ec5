"""Seeded mutation test over the input files of administer, fit, report,
aggregate, assemble and pipeline.

Each trial deletes a field, retypes it, nulls it or sets it to NaN in one
input file, or misspells a key of a config file, then runs the command that
reads the file. No trial may end in a traceback. A trial whose mutated value
is no longer valid must exit 2 or 3 with a message naming the file, and a
misspelt key must exit 2; one whose value is still valid, or is not read, may
also exit 0.
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
CONFIG_KINDS = (*KINDS, "rename")  # a config's keys are names a user types


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
        "backend": "map", "formats": ["likert", "gfc"], "out_dir": str(d / "run"),
        "seeds": {"personas": 1, "plan": 2, "fit": 5},
        "provider": {"fake_good_delta": 1.0, "matched_discrimination": False},
    }))
    (d / "assembly.json").write_text(json.dumps({
        "block_count": 10, "per_trait": 4, "per_trait_pair": 1, "mixed_key_range": [4, 6],
        "sign_floor": 0.3, "node_budget": 1000,
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
    elif kind == "rename":  # a typo: the key loses its last letter
        parent[last[:-1]] = parent.pop(last)
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


def _pipeline_ok(path, kind):  # every key has a default
    return kind == "delete"


def _assembly_ok(path, kind):  # every key but block_count has a default; null disables it
    return kind in ("delete", "null") and path[0] != "block_count" and len(path) == 1


# CSV columns: "count", "number" and "member" refuse every mutation (an inventory's
# item ids are members of the pool; a response row's ids must keep its set
# answering every unit of the inventory); any text is a valid "text" field but
# the empty one; an "unread" field is never read
RESPONSE_COLUMNS = ("member",) * 5 + ("count",) * 3
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
    """Raised where a pipeline or an assembly goes on past its config."""


def _json_trials(rng, doc, n, ok, kinds):
    paths = list(_paths(doc))
    for _ in range(n):
        path = rng.choice(paths)
        kind = rng.choice(kinds if isinstance(path[-1], str) else KINDS)  # list items have no key
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
    "assembly config, assemble": ("assembly.json", 20, lambda d, f: [
        "assemble", "--pool", str(d / "pool.csv"), "--config", f]),
}
JSON_OK = {"personas.json": _persona_set_ok, "params.json": _sim_params_ok,
           "fit.json": _fit_ok, "pipeline.json": _pipeline_ok, "assembly.json": _assembly_ok}
CONFIGS = ("pipeline.json", "assembly.json")
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
        kinds = CONFIG_KINDS if name in CONFIGS else KINDS
        trials = _json_trials(rng, json.loads(text), n, JSON_OK[name], kinds)
    else:
        trials = _csv_trials(rng, text, n, CSV_COLUMNS[name])

    def accepted(*args, **kwargs):
        raise _Accepted

    monkeypatch.setattr(cli, "_Stages", accepted)  # a pipeline stops past its config,
    monkeypatch.setattr(cli, "solve_assembly", accepted)  # and so does an assembly
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
            codes = (2,) if trial.startswith("rename") else (2, 3)
            assert rc in codes and str(f) in err, f"{case}, {trial}: exit {rc}: {err!r}"
