"""Command-line interface: exit codes, artifacts, pipeline resumability."""

import hashlib
import importlib
import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from sdrkit import cli, irt
from sdrkit.administer import ProviderReply
from sdrkit.cli import (
    EXIT_CONFIG,
    EXIT_DIAGNOSTICS,
    EXIT_OK,
    EXIT_STAGE,
    main,
)
from sdrkit.core import ResponseFormat, load_response_sets, write_inventory, write_item_pool
from sdrkit.irt import DiagnosticsError, HmcOptions, build_model_data, fit_hmc, fit_theta_frame
from sdrkit.simulate import SimulatorProvider, default_sim_params, write_sim_params

from conftest import small_instrument


@pytest.fixture(scope="module")
def instrument_files(tmp_path_factory):
    d = tmp_path_factory.mktemp("instrument")
    pool, inv = small_instrument()
    write_item_pool(pool, d / "pool.csv")
    write_inventory(inv, d / "inventory.csv")
    return d


def test_unknown_condition_is_config_error(instrument_files, tmp_path):
    rc = main([
        "administer", "--inventory", str(instrument_files / "inventory.csv"),
        "--pool", str(instrument_files / "pool.csv"),
        "--personas", str(tmp_path / "missing.json"),
        "--format", "likert", "--condition", "honest",
        "--out", str(tmp_path / "out"),
    ])
    assert rc == EXIT_CONFIG  # personas file missing


def test_personas_then_administer_then_fit_then_report(instrument_files, tmp_path):
    personas = tmp_path / "personas.json"
    assert main(["personas", "--n", "6", "--seed", "1", "--out", str(personas)]) == EXIT_OK
    assert json.loads(personas.read_text())["seed"] == 1

    runs = tmp_path / "runs"
    for cond in ("honest", "fake"):
        rc = main([
            "administer", "--inventory", str(instrument_files / "inventory.csv"),
            "--pool", str(instrument_files / "pool.csv"),
            "--personas", str(personas), "--format", "likert",
            "--condition", cond, "--provider", "sim", "--seed", "2",
            "--out", str(runs),
        ])
        assert rc == EXIT_OK
    assert (runs / "responses_likert_honest.csv").exists()
    assert (runs / "responses_likert_fake_good.csv").exists()
    assert (runs / "manifest_likert_honest.json").exists()

    fit_path = tmp_path / "fit_likert.json"
    rc = main([
        "fit", "--format", "likert", "--responses", str(runs),
        "--inventory", str(instrument_files / "inventory.csv"),
        "--pool", str(instrument_files / "pool.csv"),
        "--backend", "map", "--starts", "1", "--out", str(fit_path),
    ])
    assert rc == EXIT_OK
    art = json.loads(fit_path.read_text())
    assert art["backend"] == "map"
    assert len(art["theta"]) == 12  # 6 personas x 2 conditions

    report_dir = tmp_path / "report"
    rc = main([
        "report", "--fit-likert", str(fit_path),
        "--personas", str(personas), "--out", str(report_dir),
    ])
    assert rc == EXIT_OK
    for name in ("effects.csv", "tradeoff.csv", "report.json",
                 "shift_heatmap.svg", "tradeoff_scatter.svg"):
        assert (report_dir / name).exists()


def test_rate_plan_and_aggregate(instrument_files, tmp_path):
    plan = tmp_path / "plan.json"
    rc = main([
        "rate-plan", "--pool", str(instrument_files / "pool.csv"),
        "--raters", "r1", "--replications", "2", "--block-size", "5",
        "--out", str(plan),
    ])
    assert rc == EXIT_OK
    prompts = json.loads(plan.read_text())
    assert len(prompts) == 4  # 2 replications x 2 blocks of 5

    ratings = tmp_path / "ratings.csv"
    lines = ["item_id,rater,replication,value"]
    pool_ids = [p["item_ids"] for p in prompts if p["replication"] == 1]
    for ids in pool_ids:
        for i, iid in enumerate(ids):
            lines.append(f"{iid},r1,1,{(i % 9) + 1}")
            lines.append(f"{iid},r1,2,{(i % 9) + 1}")
    ratings.write_text("\n".join(lines) + "\n")

    out_pool = tmp_path / "rated_pool.csv"
    stats = tmp_path / "stats.json"
    rc = main([
        "aggregate", "--ratings", str(ratings),
        "--pool", str(instrument_files / "pool.csv"),
        "--out", str(out_pool), "--stats", str(stats),
    ])
    assert rc == EXIT_OK
    agg = json.loads(stats.read_text())
    assert agg["r1"]["icc_a1"] == pytest.approx(1.0)  # identical replications


def test_assemble_cli(instrument_files, tmp_path):
    out = tmp_path / "inventory.csv"
    cfg = tmp_path / "assembly.json"
    cfg.write_text(json.dumps({
        "block_count": 5, "per_trait": 2, "per_trait_pair": None,
        "mixed_key_range": None, "sign_floor": None,
    }))
    rc = main([
        "assemble", "--pool", str(instrument_files / "pool.csv"),
        "--config", str(cfg), "--out", str(out),
    ])
    assert rc == EXIT_OK
    report = json.loads(out.with_suffix(".report.json").read_text())
    assert all(c["passed"] for c in report["checks"])

    # infeasible: more blocks than item pairs -> stage failure
    cfg.write_text(json.dumps({
        "block_count": 50, "per_trait": None, "per_trait_pair": None,
        "mixed_key_range": None, "sign_floor": None,
    }))
    rc = main([
        "assemble", "--pool", str(instrument_files / "pool.csv"),
        "--config", str(cfg), "--out", str(out),
    ])
    assert rc == EXIT_STAGE


def test_pipeline_end_to_end_resumable_and_lintable(instrument_files, tmp_path):
    out_dir = tmp_path / "run"
    cfg = tmp_path / "pipeline.json"
    cfg.write_text(json.dumps({
        "pool": str(instrument_files / "pool.csv"),
        "inventory": str(instrument_files / "inventory.csv"),
        "n_personas": 6,
        "backend": "map",
        "out_dir": str(out_dir),
    }))
    assert main(["pipeline", "--config", str(cfg)]) == EXIT_OK
    manifest = json.loads((out_dir / "manifest.json").read_text())
    assert set(manifest["artifacts"]) >= {
        "personas.json", "sim_params.json",
        "runs/responses_likert_honest.csv", "runs/responses_gfc_fake_good.csv",
        "fits/fit_likert.json", "fits/fit_gfc.json",
        "reports/report.json", "reports/shift_heatmap.svg",
    }
    assert main(["lint", "--run-dir", str(out_dir)]) == EXIT_OK

    # resumable: a rerun reuses artifacts and reports stay byte-identical
    before = (out_dir / "reports" / "report.json").read_bytes()
    assert main(["pipeline", "--config", str(cfg)]) == EXIT_OK
    assert (out_dir / "reports" / "report.json").read_bytes() == before

    # tampering is caught by lint
    (out_dir / "personas.json").write_text("{}")
    assert main(["lint", "--run-dir", str(out_dir)]) == EXIT_STAGE


def test_pipeline_missing_config_is_config_error(tmp_path):
    assert main(["pipeline", "--config", str(tmp_path / "nope.json")]) == EXIT_CONFIG


def test_pipeline_rejects_external_provider(tmp_path, instrument_files, capsys):
    # the pipeline runs the built-in simulator only, so it has no provider type
    cfg = tmp_path / "pipeline.json"
    cfg.write_text(json.dumps({
        "pool": str(instrument_files / "pool.csv"),
        "inventory": str(instrument_files / "inventory.csv"),
        "provider": {"type": "http"},
    }))
    assert main(["pipeline", "--config", str(cfg)]) == EXIT_CONFIG
    assert capsys.readouterr().err == (
        f"config error: {cfg}: malformed pipeline config: unknown key 'provider.type', "
        "not one of 'fake_good_delta', 'matched_discrimination'\n")


PIPELINE_KEYS = ("'pool', 'inventory', 'n_personas', 'backend', 'formats', 'out_dir', "
                 "'seeds', 'provider'")


@pytest.mark.parametrize("study, message", [
    ({"n_personas": "abc"}, "n_personas must be an integer of at least 3, got 'abc'"),
    ({"seeds": {"plan": "x"}}, "seeds.plan must be an integer of at least 0, got 'x'"),
    ({"formats": ["likert", "essay"]}, "formats[1] must be one of 'likert', 'gfc', got 'essay'"),
    ({"formats": ["likert", "likert"]},
     "formats must name each format once, got ['likert', 'likert']"),
    ({"n_persona": 3}, "unknown key 'n_persona', not one of " + PIPELINE_KEYS),
    ({"provider": {"fake_good_delta": "x"}},
     "provider.fake_good_delta must be a finite number of at least 0, got 'x'"),
    ({"provider": {"fake_good_delta": -1}},
     "provider.fake_good_delta must be a finite number of at least 0, got -1"),
    ({"provider": {"fake_good_delta": float("inf")}},
     "provider.fake_good_delta must be a finite number of at least 0, got inf"),
    ({"provider": {"matched_discrimination": "false"}},
     "provider.matched_discrimination must be true or false, got 'false'"),
    ({"conditions": ["honest"]}, "unknown key 'conditions', not one of " + PIPELINE_KEYS),
    ({"ratings": "ratings.csv"}, "unknown key 'ratings', not one of " + PIPELINE_KEYS),
    ({"seeds": {"fitt": 9}},
     "unknown key 'seeds.fitt', not one of 'personas', 'plan', 'sim', 'params', 'fit'"),
    ({"provider": {"fake_good_delt": 2.0}}, "unknown key 'provider.fake_good_delt', not one of "
     "'fake_good_delta', 'matched_discrimination'"),
    ({"n_personas": 2}, "n_personas must be an integer of at least 3, got 2"),
])
def test_pipeline_config_value_of_the_wrong_kind_is_a_config_error(tmp_path, capsys, study,
                                                                   message):
    out_dir = tmp_path / "run"
    assert _run_pipeline(tmp_path, out_dir, **study) == EXIT_CONFIG
    cfg = tmp_path / "run.json"
    err = capsys.readouterr().err
    assert err == f"config error: {cfg}: malformed pipeline config: {message}\n"
    assert not out_dir.exists()  # no stage wrote anything


def test_pipeline_out_dir_must_be_a_string(tmp_path, capsys):
    cfg = tmp_path / "pipeline.json"
    cfg.write_text(json.dumps({"backend": "map", "out_dir": 5}))
    assert main(["pipeline", "--config", str(cfg)]) == EXIT_CONFIG
    assert capsys.readouterr().err == (f"config error: {cfg}: malformed pipeline config: "
                                       "out_dir must be a non-empty string, got 5\n")


def test_version_flag(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["--version"])
    assert exc.value.code == 0
    assert capsys.readouterr().out.startswith("sdrkit ")


def test_python_m_sdrkit_runs_the_command_line(tmp_path):
    src = str(Path(__file__).resolve().parents[1] / "src")
    path = [src, *filter(None, [os.environ.get("PYTHONPATH")])]
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(path)}
    done = subprocess.run([sys.executable, "-m", "sdrkit", "--help"], cwd=tmp_path, env=env,
                          capture_output=True, text=True, timeout=60)
    assert done.returncode == 0, done.stderr
    assert done.stdout.startswith("usage: sdrkit ")


GOLDEN = Path(__file__).parent / "golden"
DATA = Path(__file__).resolve().parents[1] / "src" / "sdrkit" / "data"

# SHA-256 of each file `sdrkit administer --provider sim --seed 7` writes for
# the recorded 12-persona set on the packaged marker instrument. A change here
# changes the data of every simulated study, so update it only on purpose.
SIM_ADMINISTER_DIGESTS = {
    "manifest_gfc_fake_good.json": "aadc8683a6ca49421a200de60acd561efc2f7ba64d96698bd2b58a09b34dd608",
    "manifest_gfc_honest.json": "782cd3ec30c7d7bbb56d9099b29621662802cfb4f2a2a4ed962a95087cac3562",
    "manifest_likert_fake_good.json": "8c7cb4ca67d62d34b2abc25885dfbde50ec1ace83c3a5810a12d756a0c884862",
    "manifest_likert_honest.json": "a3889ba7db1d71e523769c3cd941525f193657814f2e52bdd97ed79ecb96a71a",
    "responses_gfc_fake_good.csv": "90ae5bf09361c2b1a1e895f61d623950a1317328ced279067fe673dd66b3e911",
    "responses_gfc_honest.csv": "8f02bce7869babef9c1bab273cb8af2b7ec74878502d58d5ca995a3b2d3790f8",
    "responses_likert_fake_good.csv": "9b648415bb796c8df781356fab278ff9a85a7167ff02059f0043d20b352cd2e9",
    "responses_likert_honest.csv": "dcb0807dd47f56ccfa767dd674f523e9ac5dc91c7963f917f150498ccab1f50c",
}


def test_sim_administer_output_is_byte_stable(tmp_path):
    """The simulator's answers, and so every written response and manifest,
    are a fixed function of the persona set, instrument and seed."""
    for fmt in ("likert", "gfc"):
        for cond in ("honest", "fake_good"):
            rc = main([
                "administer", "--inventory", str(DATA / "marker_inventory_blocks.csv"),
                "--pool", str(DATA / "marker_inventory_pool.csv"),
                "--personas", str(GOLDEN / "sim_personas_12.json"),
                "--format", fmt, "--condition", cond, "--provider", "sim",
                "--seed", "7", "--out", str(tmp_path),
            ])
            assert rc == EXIT_OK
    digests = {
        f.name: hashlib.sha256(f.read_bytes()).hexdigest() for f in tmp_path.iterdir()
    }
    assert digests == SIM_ADMINISTER_DIGESTS


def test_administer_prepares_the_provider_with_its_stage_then_with_none(
    instrument_files, tmp_path, monkeypatch
):
    personas = tmp_path / "personas.json"
    assert main(["personas", "--n", "3", "--seed", "1", "--out", str(personas)]) == EXIT_OK
    stages = []
    real = SimulatorProvider.prepare

    def recording(self, plans):
        stages.append([(p.persona.id, p.format.value, p.condition.value) for p in plans])
        real(self, plans)

    monkeypatch.setattr(SimulatorProvider, "prepare", recording)
    rc = main([
        "administer", "--inventory", str(instrument_files / "inventory.csv"),
        "--pool", str(instrument_files / "pool.csv"), "--personas", str(personas),
        "--format", "gfc", "--condition", "fake", "--provider", "sim", "--seed", "2",
        "--out", str(tmp_path / "runs"),
    ])
    assert rc == EXIT_OK
    ids = [p["id"] for p in json.loads(personas.read_text())["personas"]]
    assert stages == [[(i, "gfc", "fake_good") for i in ids], []]


# SHA-256 of every hashed artifact of a fresh 12-persona MAP `sdrkit pipeline`
# on the packaged marker instrument with the default seeds. They pin the
# study's data, fits and report; update them only on purpose. The fit and
# report entries were re-recorded when the posterior moved to one loading
# matrix: its gradient's last bits moved each fit by at most 1e-8, and every
# verdict stayed.
PIPELINE_DIGESTS = {
    "personas.json": "1a2cb817f0f02e5c0eb4aef464f593954bb9f68893c34c4a21f400a5a9053876",
    "sim_params.json": "48d143e6e2448579c22d826ea62e4169dfbf1241c424083181d51320d0620d0b",
    "runs/responses_likert_honest.csv": "2a2c90e8cba5f108c885e8f11cbf66acfb599b9c97ac025ac403cc23287eaeb3",
    "runs/responses_likert_fake_good.csv": "6fcac9854c721542a820bd36b5caa0c0e40198509bc79e3eef071f7f74e76f24",
    "runs/responses_gfc_honest.csv": "ec21021b11d32ed663ff77e6f437472107af2c753f1c7ff741df01f54618e780",
    "runs/responses_gfc_fake_good.csv": "dec235abd6e36bd4a750b7a39ce601b35d1673f3fbcd86c8cf9360f837448551",
    "fits/fit_likert.json": "8fd83cc75bbfbc1354225b4116bd75684a87926f7c833f0fa732311901a52f62",
    "fits/fit_gfc.json": "cf10a44cfb3a60aba148eed86fa9f28e36451013f18c8ffecc4f0619cbf4f9f0",
    "reports/effects.csv": "8d8cbd8e0ca84aeaf5c718d26619c8e24e88be8a4679d1191575fdd068e2b325",
    "reports/tradeoff.csv": "a4af3b2a0ce9983306a1c078fb59862077e197ac5722912030a63d0cb5b9de2a",
    "reports/report.json": "4dbdae4efec0494b58ecfadb8eea59cac002761f2b7927565b1958f56506796f",
    "reports/shift_heatmap.svg": "6562eb677fdbdd4a29cb5354859582b20eaeb1ddde083676ba33d685f00510f9",
    "reports/tradeoff_scatter.svg": "e21dc694c732243ce275a7fdb239005ec24c76b1ae0eaa83de2a1a86d9e9a3b4",
}


def test_fresh_pipeline_artifacts_are_byte_stable(tmp_path):
    out_dir = tmp_path / "run"
    cfg = tmp_path / "pipeline.json"
    cfg.write_text(json.dumps({"n_personas": 12, "backend": "map", "out_dir": str(out_dir)}))
    assert main(["pipeline", "--config", str(cfg)]) == EXIT_OK
    digests = {
        rel: hashlib.sha256((out_dir / rel).read_bytes()).hexdigest()
        for rel in PIPELINE_DIGESTS
    }
    assert digests == PIPELINE_DIGESTS
    manifest = json.loads((out_dir / "manifest.json").read_text())
    assert manifest["artifacts"] == PIPELINE_DIGESTS


# ---------------------------------------------------------------------------
# Pipeline resume: artifacts are reused only for the same inputs
# ---------------------------------------------------------------------------


def _run_pipeline(tmp_path, out_dir, **cfg):
    path = tmp_path / f"{out_dir.name}.json"
    path.write_text(json.dumps({"backend": "map", "out_dir": str(out_dir), **cfg}))
    return main(["pipeline", "--config", str(path)])


def _small_study(instrument_files, n_personas=4):
    return {
        "pool": str(instrument_files / "pool.csv"),
        "inventory": str(instrument_files / "inventory.csv"),
        "n_personas": n_personas,
    }


def _contents(out_dir):
    return {
        str(p.relative_to(out_dir)): p.read_bytes()
        for p in sorted(out_dir.rglob("*")) if p.is_file()
    }


def _count_calls(monkeypatch, *names):
    calls = dict.fromkeys(names, 0)
    for name in names:
        original = getattr(cli, name)

        def counted(*args, _name=name, _original=original, **kwargs):
            calls[_name] += 1
            return _original(*args, **kwargs)

        monkeypatch.setattr(cli, name, counted)
    return calls


def test_pipeline_rerun_with_more_personas_recomputes_everything(instrument_files, tmp_path):
    out_dir = tmp_path / "run"
    assert _run_pipeline(tmp_path, out_dir, **_small_study(instrument_files, 4)) == EXIT_OK
    assert _run_pipeline(tmp_path, out_dir, **_small_study(instrument_files, 6)) == EXIT_OK
    assert len(json.loads((out_dir / "personas.json").read_text())["personas"]) == 6
    manifest = json.loads((out_dir / "manifest.json").read_text())
    assert len(manifest["sessions"]) == 6 * 4
    for fmt in ("likert", "gfc"):
        fit = json.loads((out_dir / "fits" / f"fit_{fmt}.json").read_text())
        assert len(fit["theta"]) == 6 * 2

    fresh = tmp_path / "fresh"
    assert _run_pipeline(tmp_path, fresh, **_small_study(instrument_files, 6)) == EXIT_OK
    assert _contents(out_dir) == _contents(fresh)


@pytest.mark.parametrize(
    "rel", ["runs/responses_likert_honest.csv", "fits/fit_gfc.json", "manifest.json"]
)
def test_pipeline_rebuilds_a_truncated_artifact(instrument_files, tmp_path, rel):
    out_dir = tmp_path / "run"
    assert _run_pipeline(tmp_path, out_dir, **_small_study(instrument_files)) == EXIT_OK
    before = _contents(out_dir)
    damaged = out_dir / rel
    damaged.write_bytes(before[rel][: len(before[rel]) // 2])
    assert _run_pipeline(tmp_path, out_dir, **_small_study(instrument_files)) == EXIT_OK
    assert _contents(out_dir) == before


def test_pipeline_rerun_leaves_manifest_byte_identical(instrument_files, tmp_path, monkeypatch):
    out_dir = tmp_path / "run"
    assert _run_pipeline(tmp_path, out_dir, **_small_study(instrument_files)) == EXIT_OK
    before = _contents(out_dir)
    assert len(json.loads(before["manifest.json"])["sessions"]) == 4 * 4
    calls = _count_calls(monkeypatch, "sample_personas", "run_session", "_fit_format")
    assert _run_pipeline(tmp_path, out_dir, **_small_study(instrument_files)) == EXIT_OK
    assert _contents(out_dir) == before
    assert calls == {"sample_personas": 0, "run_session": 0, "_fit_format": 0}


def test_pipeline_rebuilds_every_stage_built_by_other_code(
    instrument_files, tmp_path, monkeypatch
):
    out_dir = tmp_path / "run"
    calls = _count_calls(monkeypatch, "sample_personas", "_fit_format")
    assert _run_pipeline(tmp_path, out_dir, **_small_study(instrument_files)) == EXIT_OK
    assert calls == {"sample_personas": 1, "_fit_format": 2}
    assert _run_pipeline(tmp_path, out_dir, **_small_study(instrument_files)) == EXIT_OK
    assert calls == {"sample_personas": 1, "_fit_format": 2}
    before = json.loads((out_dir / "manifest.json").read_text())
    assert before["code_digest"] == cli._code_digest()

    monkeypatch.setattr(cli, "_code_digest", lambda: "other code")
    assert _run_pipeline(tmp_path, out_dir, **_small_study(instrument_files)) == EXIT_OK
    assert calls == {"sample_personas": 2, "_fit_format": 4}
    after = json.loads((out_dir / "manifest.json").read_text())
    assert after["code_digest"] == "other code"
    assert after["run_id"] == before["run_id"] and after["artifacts"] == before["artifacts"]


def test_pipeline_run_id_depends_on_the_study_not_its_paths(tmp_path):
    study = {"n_personas": 4}
    assert _run_pipeline(tmp_path, tmp_path / "a", **study) == EXIT_OK
    assert _run_pipeline(tmp_path, tmp_path / "b", **study) == EXIT_OK
    data = tmp_path / "data"
    data.mkdir()
    for name in ("marker_inventory_pool.csv", "marker_inventory_blocks.csv"):
        (data / name).write_bytes((DATA / name).read_bytes())
    assert _run_pipeline(
        tmp_path, tmp_path / "c", **study,
        pool=str(data / "marker_inventory_pool.csv"),
        inventory=str(data / "marker_inventory_blocks.csv"),
    ) == EXIT_OK
    manifests = {
        d: json.loads((tmp_path / d / "manifest.json").read_text()) for d in "abc"
    }
    assert manifests["a"]["run_id"] == manifests["b"]["run_id"] == manifests["c"]["run_id"]
    assert manifests["a"] == manifests["b"] == manifests["c"]

    assert _run_pipeline(tmp_path, tmp_path / "d", n_personas=5) == EXIT_OK
    other = json.loads((tmp_path / "d" / "manifest.json").read_text())
    assert other["run_id"] != manifests["a"]["run_id"]


def test_pipeline_formats_in_either_order_are_one_study(tmp_path):
    likert_first, gfc_first = tmp_path / "likert_first", tmp_path / "gfc_first"
    assert _run_pipeline(tmp_path, likert_first, n_personas=3, formats=["likert", "gfc"]) == EXIT_OK
    assert _run_pipeline(tmp_path, gfc_first, n_personas=3, formats=["gfc", "likert"]) == EXIT_OK
    assert _contents(likert_first) == _contents(gfc_first)  # manifest.json and its run_id too


class Interrupted(Exception):
    pass


@pytest.mark.parametrize(
    "writer,target,resumed_calls",
    [
        # likert is administered and fitted first; the gfc runs and fit remain
        ("write_response_sets", "responses_gfc_honest.csv",
         {"sample_personas": 0, "run_session": 4 * 2, "_fit_format": 1}),
        ("write_fit_artifact", "fit_gfc.json",
         {"sample_personas": 0, "run_session": 0, "_fit_format": 1}),
    ],
)
def test_interrupted_pipeline_resumes_only_unfinished_stages(
    instrument_files, tmp_path, monkeypatch, writer, target, resumed_calls
):
    fresh = tmp_path / "fresh"
    assert _run_pipeline(tmp_path, fresh, **_small_study(instrument_files)) == EXIT_OK

    original = getattr(cli, writer)

    def interrupted(*args, **kwargs):
        path = Path(args[1] if writer == "write_response_sets" else args[0])
        original(*args, **kwargs)
        if path.name == target:
            path.write_bytes(path.read_bytes()[:100])  # a partial write
            raise Interrupted

    out_dir = tmp_path / "run"
    with monkeypatch.context() as patch:
        patch.setattr(cli, writer, interrupted)
        with pytest.raises(Interrupted):
            _run_pipeline(tmp_path, out_dir, **_small_study(instrument_files))
    assert not list(out_dir.rglob(target))

    calls = _count_calls(monkeypatch, "sample_personas", "run_session", "_fit_format")
    assert _run_pipeline(tmp_path, out_dir, **_small_study(instrument_files)) == EXIT_OK
    assert calls == resumed_calls
    assert _contents(out_dir) == _contents(fresh)


def test_pipeline_refits_a_fit_that_failed_the_gate(instrument_files, tmp_path, monkeypatch):
    fresh = tmp_path / "fresh"
    assert _run_pipeline(tmp_path, fresh, **_small_study(instrument_files)) == EXIT_OK

    original = cli._fit_format

    def unconverged(data, *args, **kwargs):
        params, diag = original(data, *args, **kwargs)
        if data.design.model == "gfc":
            diag = {**diag, "rhat_share_below_gate": 0.5}
        return params, diag

    out_dir = tmp_path / "run"
    with monkeypatch.context() as patch:
        patch.setattr(cli, "_fit_format", unconverged)
        assert _run_pipeline(tmp_path, out_dir, **_small_study(instrument_files)) == 4
    assert not (out_dir / "fits" / "fit_gfc.json").exists()

    calls = _count_calls(monkeypatch, "_fit_format")
    assert _run_pipeline(tmp_path, out_dir, **_small_study(instrument_files)) == EXIT_OK
    assert calls == {"_fit_format": 1}
    assert _contents(out_dir) == _contents(fresh)


def test_fit_on_a_set_missing_answers_is_a_stage_failure(instrument_files, tmp_path, capsys):
    out_dir = tmp_path / "run"
    assert _run_pipeline(tmp_path, out_dir, **_small_study(instrument_files)) == EXIT_OK
    responses = out_dir / "runs" / "responses_likert_honest.csv"
    lines = responses.read_text().splitlines(keepends=True)
    responses.write_text("".join(lines[:-3]))  # the last set loses three items
    rc = main([
        "fit", "--format", "likert", "--responses", str(responses),
        "--inventory", str(instrument_files / "inventory.csv"),
        "--pool", str(instrument_files / "pool.csv"),
        "--backend", "map", "--starts", "1", "--out", str(tmp_path / "fit.json"),
    ])
    assert rc == EXIT_STAGE
    err = capsys.readouterr().err
    assert "stage failure" in err and "no answer for unit" in err


def test_fit_on_a_file_cut_mid_row_is_a_stage_failure(instrument_files, tmp_path, capsys):
    out_dir = tmp_path / "run"
    assert _run_pipeline(tmp_path, out_dir, **_small_study(instrument_files)) == EXIT_OK
    responses = out_dir / "runs" / "responses_likert_honest.csv"
    text = responses.read_text()
    responses.write_text(text[: len(text) - 8])  # the last row loses its last fields
    rc = main([
        "fit", "--format", "likert", "--responses", str(responses),
        "--inventory", str(instrument_files / "inventory.csv"),
        "--pool", str(instrument_files / "pool.csv"),
        "--backend", "map", "--starts", "1", "--out", str(tmp_path / "fit.json"),
    ])
    assert rc == EXIT_STAGE
    err = capsys.readouterr().err
    line = text.count("\n")
    assert f"stage failure: {responses}: malformed response row at line {line}" in err


@pytest.mark.parametrize("damage, message", [
    ("second-answer", "a second answer to unit"),
    ("format", "format must be one of 'likert', 'gfc', got '99'"),
    ("condition", "condition must be one of 'honest', 'fake_good', got 'honestly'"),
], ids=["second-answer", "format", "condition"])
def test_fit_on_a_bad_response_row_is_a_stage_failure(
    instrument_files, tmp_path, capsys, damage, message
):
    personas, runs = tmp_path / "personas.json", tmp_path / "runs"
    assert main(["personas", "--n", "2", "--seed", "1", "--out", str(personas)]) == EXIT_OK
    assert main([
        "administer", "--inventory", str(instrument_files / "inventory.csv"),
        "--pool", str(instrument_files / "pool.csv"), "--personas", str(personas),
        "--format", "likert", "--condition", "honest", "--out", str(runs),
    ]) == EXIT_OK
    responses = runs / "responses_likert_honest.csv"
    lines = responses.read_text().splitlines(keepends=True)
    fields = lines[-1].split(",")
    if damage == "second-answer":
        fields[5] = str(8 - int(fields[5]))
        lines.append(",".join(fields))
    else:
        fields[2 if damage == "format" else 3] = "99" if damage == "format" else "honestly"
        lines[-1] = ",".join(fields)
    responses.write_text("".join(lines))
    capsys.readouterr()
    rc = main([
        "fit", "--format", "likert", "--responses", str(responses),
        "--inventory", str(instrument_files / "inventory.csv"),
        "--pool", str(instrument_files / "pool.csv"),
        "--backend", "map", "--starts", "1", "--out", str(tmp_path / "fit.json"),
    ])
    assert rc == EXIT_STAGE
    err = capsys.readouterr().err
    line = len(lines)
    assert err.startswith(f"stage failure: {responses}: malformed response row at line {line}: "
                          f"{message}")
    assert not (tmp_path / "fit.json").exists()


@pytest.mark.parametrize("rel, field", [
    pytest.param("manifest.json", None, id="manifest.json"),
    pytest.param("reports/report.json", None, id="reports/report.json"),
    pytest.param("manifest.json", "artifacts", id="manifest.json without artifacts"),
    pytest.param("reports/report.json", "metadata", id="reports/report.json without metadata"),
])
def test_lint_reports_a_truncated_json_file(instrument_files, tmp_path, capsys, rel, field):
    out_dir = tmp_path / "run"
    assert _run_pipeline(tmp_path, out_dir, **_small_study(instrument_files)) == EXIT_OK
    damaged = out_dir / rel
    if field is None:
        damaged.write_bytes(damaged.read_bytes()[:40])
        message = f"stage failure: {damaged} is not valid JSON"
    else:  # valid JSON without the field lint reads
        raw = json.loads(damaged.read_text())
        del raw[field]
        damaged.write_text(json.dumps(raw))
        message = f"stage failure: {damaged}: malformed "
    capsys.readouterr()
    assert main(["lint", "--run-dir", str(out_dir)]) == EXIT_STAGE
    err = capsys.readouterr().err
    assert err.startswith(message)
    assert field is None or f"missing field '{field}'" in err


@pytest.mark.parametrize(
    "flag, value, low",
    [("--chains", "0", 1), ("--samples", "0", 1), ("--starts", "0", 1),
     ("--starts", "-2", 1), ("--chains", "-1", 1), ("--warmup", "-1", 0)],
)
def test_fit_rejects_a_count_below_its_floor(instrument_files, tmp_path, capsys, flag, value, low):
    with pytest.raises(SystemExit) as exc:
        main([
            "fit", "--format", "likert", "--responses", str(tmp_path / "responses.csv"),
            "--inventory", str(instrument_files / "inventory.csv"),
            "--pool", str(instrument_files / "pool.csv"),
            "--backend", "hmc", flag, value, "--out", str(tmp_path / "fit.json"),
        ])
    assert exc.value.code == EXIT_CONFIG
    err = capsys.readouterr().err
    assert f"argument {flag}: must be an integer of at least {low}, got {value}" in err
    assert not (tmp_path / "fit.json").exists()


@pytest.mark.parametrize("flag, value, low", [("--chains", "1", 2), ("--samples", "3", 4)])
def test_fit_rejects_hmc_settings_rhat_cannot_use_before_reading(
    instrument_files, tmp_path, capsys, monkeypatch, flag, value, low
):
    def never(*args, **kwargs):
        raise AssertionError("read or fitted before the HMC settings were checked")

    for name in ("load_inventory", "load_item_pool", "load_response_sets", "fit_hmc"):
        monkeypatch.setattr(cli, name, never)
    argv = [
        "fit", "--format", "likert", "--responses", str(tmp_path / "responses.csv"),
        "--inventory", str(instrument_files / "inventory.csv"),
        "--pool", str(instrument_files / "pool.csv"),
        flag, value, "--out", str(tmp_path / "fit.json"),
    ]
    assert main([*argv, "--backend", "hmc"]) == EXIT_CONFIG
    err = capsys.readouterr().err
    assert (f"config error: {flag} with --backend hmc must be an integer of at least {low}, "
            f"got {value}") in err
    with pytest.raises(AssertionError, match="^read or fitted"):  # MAP ignores the flag
        main([*argv, "--backend", "map"])


@pytest.mark.parametrize("damage", [
    "persona JSON cut", "inventory reuses an item", "persona without z",
    "sim-params item without keying",
])
def test_administer_on_a_malformed_input_is_a_stage_failure(
    instrument_files, tmp_path, capsys, damage
):
    personas, inventory = tmp_path / "personas.json", tmp_path / "inventory.csv"
    params = tmp_path / "params.json"
    assert main(["personas", "--n", "2", "--seed", "1", "--out", str(personas)]) == EXIT_OK
    rows = (instrument_files / "inventory.csv").read_text().splitlines(keepends=True)
    pool, inv = small_instrument()
    write_sim_params(default_sim_params(inv, pool, seed=0), params)
    if damage == "persona JSON cut":
        text = personas.read_text()
        personas.write_text(text[: len(text) // 2])
        message = f"stage failure: {personas} is not valid JSON"
    elif damage == "inventory reuses an item":  # block 2's left item becomes block 1's left item
        rows[2] = ",".join([rows[2].split(",")[0], rows[1].split(",")[1], *rows[2].split(",")[2:]])
        item = rows[1].split(",")[1]
        message = f"stage failure: {inventory}: item {item!r} is used in block 1 and block 2"
    elif damage == "persona without z":
        raw = json.loads(personas.read_text())
        del raw["personas"][0]["z"]
        personas.write_text(json.dumps(raw))
        message = f"stage failure: {personas}: malformed persona set: missing field 'z'"
    else:
        raw = json.loads(params.read_text())
        del raw["items"]["a1"]["keying"]
        params.write_text(json.dumps(raw))
        message = f"stage failure: {params}: malformed simulator params: missing field 'keying'"
    inventory.write_text("".join(rows))
    capsys.readouterr()
    rc = main([
        "administer", "--inventory", str(inventory),
        "--pool", str(instrument_files / "pool.csv"),
        "--personas", str(personas), "--format", "gfc", "--condition", "honest",
        "--params", str(params), "--out", str(tmp_path / "runs"),
    ])
    assert rc == EXIT_STAGE
    assert capsys.readouterr().err.startswith(message)


@pytest.mark.parametrize("command", ["administer", "fit"])
def test_an_inventory_id_not_in_the_pool_is_refused_by_file_block_and_field(
    instrument_files, tmp_path, capsys, command
):
    inventory = tmp_path / "inventory.csv"
    rows = (instrument_files / "inventory.csv").read_text().splitlines(keepends=True)
    fields = rows[2].split(",")
    rows[2] = ",".join([*fields[:2], "nan", *fields[3:]])  # block 2's right_id
    inventory.write_text("".join(rows))
    capsys.readouterr()
    rc = main(_argv(instrument_files, tmp_path, command, "--inventory", str(inventory)))
    assert rc == EXIT_STAGE
    assert capsys.readouterr().err == (
        f"stage failure: {inventory}: block 2: right_id 'nan' is not in the item pool\n")
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("path, value, message", [
    (("traits", "O", "high"), "curious", "traits.O.high must be a non-empty list, got 'curious'"),
    (("traits", "N", "low"), ["calm", 3], "traits.N.low[1] must be a non-empty string, got 3"),
    (("intensity", "3"), None, "intensity.3 must be a string, got None"),
    (("intensity", "9"), 9, "intensity.9 must be a string, got 9"),
], ids=["words-as-a-string", "word-as-a-number", "null-intensity", "numeric-intensity"])
def test_personas_refuses_a_malformed_lexicon_by_file_and_field(
    instrument_files, tmp_path, capsys, path, value, message
):
    raw = json.loads((DATA / "lexicon.json").read_text())
    *parents, last = path
    node = raw
    for key in parents:
        node = node[key]
    node[last] = value
    lexicon = tmp_path / "lexicon.json"
    lexicon.write_text(json.dumps(raw))
    capsys.readouterr()
    rc = main(_argv(instrument_files, tmp_path, "personas", "--lexicon", str(lexicon)))
    assert rc == EXIT_CONFIG
    assert capsys.readouterr().err == f"config error: {lexicon}: malformed lexicon: {message}\n"
    assert not (tmp_path / "out").exists()


def _identity_with(*cells):
    sigma = np.eye(5).tolist()
    for i, j, value in cells:
        sigma[i][j] = value
    return sigma


@pytest.mark.parametrize("sigma, message", [
    ("abc", "covariance must be a list of 5 values, got 'abc'"),
    (_identity_with((1, 2, "x")), "covariance[1][2] must be a finite number, got 'x'"),
    ([*np.eye(5).tolist()[:4], [0.0] * 4],
     "covariance[4] must be a list of 5 values, got [0.0, 0.0, 0.0, 0.0]"),
    (_identity_with((0, 1, 0.5)), "covariance must be symmetric"),
    (_identity_with((3, 3, 2.0)), "covariance must have unit diagonal"),
    (_identity_with((0, 1, 1.5), (1, 0, 1.5)), "covariance is not positive definite"),
], ids=["a-string", "a-non-numeric-entry", "a-row-short", "asymmetric", "non-unit-diagonal",
        "not-positive-definite"])
def test_personas_refuses_a_malformed_covariance_by_file_and_field(
    instrument_files, tmp_path, capsys, sigma, message
):
    covariance = tmp_path / "covariance.json"
    covariance.write_text(json.dumps(sigma))
    capsys.readouterr()
    rc = main(_argv(instrument_files, tmp_path, "personas", "--covariance", str(covariance)))
    assert rc == EXIT_CONFIG
    assert capsys.readouterr().err == (
        f"config error: {covariance}: malformed covariance: {message}\n")
    assert not (tmp_path / "out").exists()


def _renamed_first_persona(responses: Path) -> None:
    """Change the first row's persona id to ``7``: a set of one answer, and
    one that lacks it."""
    lines = responses.read_text().splitlines(keepends=True)
    fields = lines[1].split(",")
    fields[1] = "7"
    lines[1] = ",".join(fields)
    responses.write_text("".join(lines))


INCOMPLETE = "response set sim/7/honest (likert) has no answer for unit"


@pytest.mark.parametrize("given", ["file", "directory"])
def test_fit_names_the_file_holding_an_incomplete_set(instrument_files, tmp_path, capsys, given):
    personas, runs = tmp_path / "personas.json", tmp_path / "runs"
    assert main(["personas", "--n", "3", "--seed", "1", "--out", str(personas)]) == EXIT_OK
    for cond in ("honest", "fake_good"):
        assert main(_argv(instrument_files, tmp_path, "administer", "--condition", cond,
                          "--out", str(runs))) == EXIT_OK
    responses = runs / "responses_likert_honest.csv"
    _renamed_first_persona(responses)
    capsys.readouterr()
    rc = main(_argv(instrument_files, tmp_path, "fit", "--starts", "1",
                    "--responses", str(responses if given == "file" else runs)))
    assert rc == EXIT_STAGE
    assert capsys.readouterr().err.startswith(f"stage failure: {responses}: {INCOMPLETE} ")
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("given", ["file", "directory"])
def test_fit_refuses_a_file_cut_between_two_sets(instrument_files, tmp_path, capsys, given):
    personas, runs = tmp_path / "personas.json", tmp_path / "runs"
    assert main(["personas", "--n", "4", "--seed", "1", "--out", str(personas)]) == EXIT_OK
    assert main(_argv(instrument_files, tmp_path, "administer", "--out", str(runs))) == EXIT_OK
    responses = runs / "responses_likert_honest.csv"
    lines = responses.read_text().splitlines(keepends=True)
    per_set = (len(lines) - 1) // 4
    responses.write_text("".join(lines[: 1 + 3 * per_set]))  # cut after the third set
    capsys.readouterr()
    rc = main(_argv(instrument_files, tmp_path, "fit", "--starts", "1",
                    "--responses", str(responses if given == "file" else runs)))
    assert rc == EXIT_STAGE
    assert capsys.readouterr().err == (
        f"stage failure: {responses}: its SHA-256 is not the one "
        "manifest_likert_honest.json records\n")
    assert not (tmp_path / "out").exists()


def test_fit_refuses_responses_newer_than_the_manifest_beside_them(
    instrument_files, tmp_path, capsys, monkeypatch
):
    # a rerun that dies between renaming the responses and renaming the
    # manifest: the new file holds as many whole sets as the old manifest records
    personas, runs = tmp_path / "personas.json", tmp_path / "runs"
    assert main(["personas", "--n", "3", "--seed", "1", "--out", str(personas)]) == EXIT_OK
    administer = _argv(instrument_files, tmp_path, "administer", "--out", str(runs))
    assert main(administer) == EXIT_OK
    responses = runs / "responses_likert_honest.csv"
    before = responses.read_bytes()
    replace = os.replace

    def fail_manifest(src, dst):
        if Path(dst).name.startswith("manifest_"):
            raise OSError("killed")
        return replace(src, dst)

    monkeypatch.setattr(os, "replace", fail_manifest)
    capsys.readouterr()
    assert main(administer + ["--seed", "5"]) == EXIT_STAGE
    monkeypatch.undo()
    assert capsys.readouterr().err == "stage failure: killed\n"
    assert responses.read_bytes() != before
    rc = main(_argv(instrument_files, tmp_path, "fit", "--starts", "1",
                    "--responses", str(runs)))
    assert rc == EXIT_STAGE
    err = capsys.readouterr().err
    assert str(responses) in err and "manifest_likert_honest.json" in err
    assert not (tmp_path / "out").exists()


def test_administer_whose_manifest_fails_to_write_keeps_both_earlier_files(
    instrument_files, tmp_path, capsys, monkeypatch
):
    # the responses and the manifest are staged together: neither is renamed
    # into place until both are written
    personas, runs = tmp_path / "personas.json", tmp_path / "runs"
    assert main(["personas", "--n", "3", "--seed", "1", "--out", str(personas)]) == EXIT_OK
    administer = _argv(instrument_files, tmp_path, "administer", "--out", str(runs))
    assert main(administer) == EXIT_OK
    before = _contents(runs)
    write_text = Path.write_text

    def fail_manifest(path, data, **kwargs):
        if path.name.startswith("manifest_"):
            raise OSError("no space left on device")
        return write_text(path, data, **kwargs)

    monkeypatch.setattr(Path, "write_text", fail_manifest)
    capsys.readouterr()
    assert main(administer + ["--seed", "5"]) == EXIT_STAGE
    assert capsys.readouterr().err == "stage failure: no space left on device\n"
    assert _contents(runs) == before and not list(runs.glob(".*"))


def test_fit_refuses_a_manifest_that_records_no_digest(instrument_files, tmp_path, capsys):
    personas, runs = tmp_path / "personas.json", tmp_path / "runs"
    assert main(["personas", "--n", "3", "--seed", "1", "--out", str(personas)]) == EXIT_OK
    assert main(_argv(instrument_files, tmp_path, "administer", "--out", str(runs))) == EXIT_OK
    manifest = runs / "manifest_likert_honest.json"
    raw = json.loads(manifest.read_text())
    raw["artifacts"] = {}  # as an sdrkit that recorded only the sessions wrote it
    manifest.write_text(json.dumps(raw))
    capsys.readouterr()
    rc = main(_argv(instrument_files, tmp_path, "fit", "--starts", "1",
                    "--responses", str(runs)))
    assert rc == EXIT_STAGE
    assert capsys.readouterr().err == (
        f"stage failure: {manifest}: malformed manifest: missing field "
        "'responses_likert_honest.csv'\n")


@pytest.mark.parametrize("fails", ["responses", "manifest"])
def test_administer_that_fails_writing_leaves_the_previous_files(
    instrument_files, tmp_path, capsys, monkeypatch, fails
):
    personas = tmp_path / "personas.json"
    assert main(["personas", "--n", "3", "--seed", "1", "--out", str(personas)]) == EXIT_OK
    argv = _argv(instrument_files, tmp_path, "administer")
    assert main(argv) == EXIT_OK
    out = tmp_path / "out"
    before = {p.name: p.read_bytes() for p in out.iterdir()}
    if fails == "responses":
        original = cli.write_response_sets

        def cut(sets, path):  # the first set reaches the disk, then the disk is full
            original(sets[:1], path)
            raise OSError("no space left on device")

        monkeypatch.setattr(cli, "write_response_sets", cut)
    else:
        write_text = Path.write_text

        def cut(path, data, **kwargs):  # half the manifest reaches the disk
            if not path.name.startswith("manifest_"):
                return write_text(path, data, **kwargs)
            write_text(path, data[: len(data) // 2], **kwargs)
            raise OSError("no space left on device")

        monkeypatch.setattr(Path, "write_text", cut)
    capsys.readouterr()
    assert main(argv) == EXIT_STAGE
    assert capsys.readouterr().err == "stage failure: no space left on device\n"
    # the rewritten responses are byte-identical; no temporary file is left
    assert {p.name: p.read_bytes() for p in out.iterdir()} == before


def test_pipeline_fit_stage_names_the_file_holding_an_incomplete_set(
    instrument_files, tmp_path, capsys, monkeypatch
):
    original = cli.write_response_sets

    def damaged(sets, path):
        original(sets, path)
        if Path(path).name == "responses_likert_honest.csv":
            _renamed_first_persona(Path(path))

    monkeypatch.setattr(cli, "write_response_sets", damaged)
    out_dir = tmp_path / "run"
    capsys.readouterr()
    assert _run_pipeline(tmp_path, out_dir, **_small_study(instrument_files, 3)) == EXIT_STAGE
    responses = out_dir / "runs" / "responses_likert_honest.csv"
    assert f"{responses}: {INCOMPLETE} " in capsys.readouterr().err
    assert not list(out_dir.rglob("fit_*.json"))


@pytest.mark.parametrize("fmt, damage, message", [
    ("likert", "keying-and-trait",
     "simulator params disagree with the pool on item 'a1': keying -1 and trait 1, "
     "but the pool has keying 1 and trait 0 (A)"),
    ("gfc", "keying-and-trait", "simulator params disagree with the pool on item 'a1'"),
    ("likert", "no-item", "missing item parameters for 'c2'"),
    ("gfc", "no-block", "missing block thresholds for 'c2~e2'"),
], ids=["likert-keying-and-trait", "gfc-keying-and-trait", "likert-no-item", "gfc-no-block"])
def test_administer_rejects_sim_params_that_disagree_with_the_pool(
    instrument_files, tmp_path, capsys, monkeypatch, fmt, damage, message
):
    personas, params = tmp_path / "personas.json", tmp_path / "params.json"
    assert main(["personas", "--n", "2", "--seed", "1", "--out", str(personas)]) == EXIT_OK
    pool, inv = small_instrument()
    write_sim_params(default_sim_params(inv, pool, seed=0), params)
    raw = json.loads(params.read_text())
    if damage == "keying-and-trait":  # every item's keying flipped and trait shifted
        for item in raw["items"].values():
            item["keying"], item["trait"] = -item["keying"], (item["trait"] + 1) % 5
    elif damage == "no-item":
        del raw["items"]["c2"]
    else:
        del raw["blocks"]["c2~e2"]
    params.write_text(json.dumps(raw))

    def never(*args, **kwargs):
        raise AssertionError("a session ran before the simulator params were checked")

    monkeypatch.setattr(cli, "run_session", never)
    capsys.readouterr()
    rc = main([
        "administer", "--inventory", str(instrument_files / "inventory.csv"),
        "--pool", str(instrument_files / "pool.csv"),
        "--personas", str(personas), "--format", fmt, "--condition", "honest",
        "--params", str(params), "--out", str(tmp_path / "runs"),
    ])
    assert rc == EXIT_STAGE
    assert capsys.readouterr().err.startswith(f"stage failure: {message}")
    assert not (tmp_path / "runs").exists()


def test_report_on_a_fit_missing_a_field_is_a_stage_failure(tmp_path, capsys):
    personas, fit = tmp_path / "personas.json", tmp_path / "fit_likert.json"
    assert main(["personas", "--n", "3", "--seed", "1", "--out", str(personas)]) == EXIT_OK
    row = {"respondent_id": "sim", "condition": "honest", "A": 0.0, "C": 0.0, "E": 0.0,
           "N": 0.0, "O": 0.0}
    fit.write_text(json.dumps({"model": "grm", "backend": "map", "theta": [row]}))
    capsys.readouterr()
    rc = main(["report", "--fit-likert", str(fit), "--personas", str(personas),
               "--out", str(tmp_path / "report")])
    assert rc == EXIT_STAGE
    message = f"stage failure: {fit}: malformed fit artifact: missing field 'persona_id'"
    assert capsys.readouterr().err.startswith(message)


@pytest.mark.parametrize("z", ["high", [0.5]])
def test_report_on_a_persona_z_that_is_not_five_numbers_is_a_stage_failure(tmp_path, capsys, z):
    personas = tmp_path / "personas.json"
    assert main(["personas", "--n", "3", "--seed", "1", "--out", str(personas)]) == EXIT_OK
    raw = json.loads(personas.read_text())
    raw["personas"][0]["z"] = z
    personas.write_text(json.dumps(raw))
    capsys.readouterr()
    rc = main(["report", "--personas", str(personas), "--out", str(tmp_path / "report")])
    assert rc == EXIT_STAGE
    message = (f"stage failure: {personas}: malformed persona set: persona 'p001': "
               f"z must be a list of 5 values, got {z!r}")
    assert capsys.readouterr().err.startswith(message)


def test_administer_refuses_a_persona_whose_trait_is_not_finite(instrument_files, tmp_path, capsys):
    personas, params = tmp_path / "personas.json", tmp_path / "params.json"
    assert main(["personas", "--n", "2", "--seed", "1", "--out", str(personas)]) == EXIT_OK
    pool, inv = small_instrument()
    write_sim_params(default_sim_params(inv, pool, seed=0), params)
    raw = json.loads(personas.read_text())
    raw["personas"][0]["z"][1] = float("nan")  # C
    personas.write_text(json.dumps(raw))
    capsys.readouterr()
    rc = main([
        "administer", "--inventory", str(instrument_files / "inventory.csv"),
        "--pool", str(instrument_files / "pool.csv"),
        "--personas", str(personas), "--format", "likert", "--condition", "honest",
        "--params", str(params), "--out", str(tmp_path / "runs"),
    ])
    assert rc == EXIT_STAGE
    message = (f"stage failure: {personas}: malformed persona set: persona 'p001': "
               "z[1] must be a finite number, got nan")
    assert capsys.readouterr().err.startswith(message)
    assert not (tmp_path / "runs").exists()


def test_administer_refuses_a_persona_set_that_repeats_an_id(instrument_files, tmp_path, capsys):
    # two sets under one id would be answered from two personas' traits
    personas, runs = tmp_path / "personas.json", tmp_path / "runs"
    assert main(["personas", "--n", "3", "--seed", "1", "--out", str(personas)]) == EXIT_OK
    raw = json.loads(personas.read_text())
    raw["personas"][2]["id"] = raw["personas"][0]["id"]
    personas.write_text(json.dumps(raw))
    capsys.readouterr()
    rc = main(_argv(instrument_files, tmp_path, "administer", "--out", str(runs)))
    assert rc == EXIT_STAGE
    assert capsys.readouterr().err == (
        f"stage failure: {personas}: malformed persona set: persona id 'p001' is given twice\n")
    assert not runs.exists()


def test_administer_refuses_a_persona_whose_z_disagrees_with_its_stanines(
    instrument_files, tmp_path, capsys
):
    # the simulator answers from z, an HTTP respondent reads the stanines' description
    personas, runs = tmp_path / "personas.json", tmp_path / "runs"
    assert main(["personas", "--n", "3", "--seed", "1", "--out", str(personas)]) == EXIT_OK
    raw = json.loads(personas.read_text())
    raw["personas"][1]["z"][0] -= 1.0  # 2.49 to 1.49: stanine 9 to 8
    personas.write_text(json.dumps(raw))
    capsys.readouterr()
    rc = main(_argv(instrument_files, tmp_path, "administer", "--out", str(runs)))
    assert rc == EXIT_STAGE
    err = capsys.readouterr().err
    assert err.startswith(f"stage failure: {personas}: malformed persona set: persona 'p002': "
                          "stanines [9, ")
    assert not runs.exists()


@pytest.mark.parametrize("field, value", [
    ("respondent_id", None), ("A", None), ("condition", None), ("A", "0.5"), ("A", True),
], ids=["respondent-null", "trait-null", "condition-null", "trait-string", "trait-true"])
def test_report_refuses_a_fit_whose_theta_field_is_null_or_of_the_wrong_type(
    tmp_path, capsys, field, value
):
    personas, fit = tmp_path / "personas.json", tmp_path / "fit_likert.json"
    assert main(["personas", "--n", "4", "--seed", "1", "--out", str(personas)]) == EXIT_OK
    ids = [p["id"] for p in json.loads(personas.read_text())["personas"]]
    rng = np.random.default_rng(0)
    rows = [
        {"respondent_id": "sim", "persona_id": pid, "condition": cond,
         **dict(zip("ACENO", map(float, rng.standard_normal(5))))}
        for pid in ids for cond in ("honest", "fake_good")
    ]
    rows[1][field] = value
    fit.write_text(json.dumps({"model": "grm", "backend": "map", "theta": rows}))
    capsys.readouterr()
    rc = main(["report", "--fit-likert", str(fit), "--personas", str(personas),
               "--out", str(tmp_path / "report")])
    assert rc == EXIT_STAGE
    err = capsys.readouterr().err
    assert err.startswith(f"stage failure: {fit}: malformed fit artifact: theta[1].{field} must be ")
    assert err.endswith(f", got {value!r}\n")
    assert not (tmp_path / "report").exists()


@pytest.mark.parametrize("fmt, item, field, value", [
    ("likert", "a1", "a_plus", float("nan")),
    ("gfc", "c1", "trait", True),  # c1's pool trait index is 1
], ids=["a_plus-nan", "trait-true"])
def test_administer_refuses_sim_params_with_a_nan_or_boolean_field(
    instrument_files, tmp_path, capsys, fmt, item, field, value
):
    personas, params = tmp_path / "personas.json", tmp_path / "params.json"
    assert main(["personas", "--n", "2", "--seed", "1", "--out", str(personas)]) == EXIT_OK
    pool, inv = small_instrument()
    write_sim_params(default_sim_params(inv, pool, seed=0), params)
    raw = json.loads(params.read_text())
    raw["items"][item][field] = value
    params.write_text(json.dumps(raw))
    capsys.readouterr()
    rc = main([
        "administer", "--inventory", str(instrument_files / "inventory.csv"),
        "--pool", str(instrument_files / "pool.csv"),
        "--personas", str(personas), "--format", fmt, "--condition", "honest",
        "--params", str(params), "--out", str(tmp_path / "runs"),
    ])
    assert rc == EXIT_STAGE
    message = (f"stage failure: {params}: malformed simulator params: items.{item}.{field} "
               f"must be ")
    err = capsys.readouterr().err
    assert err.startswith(message) and err.endswith(f", got {value!r}\n")
    assert not (tmp_path / "runs").exists()


def test_assembly_config_missing_a_field_is_a_config_error(instrument_files, tmp_path, capsys):
    cfg = tmp_path / "assembly.json"
    cfg.write_text(json.dumps({"per_trait": 2, "sign_floor": None}))
    rc = main([
        "assemble", "--pool", str(instrument_files / "pool.csv"),
        "--config", str(cfg), "--out", str(tmp_path / "inventory.csv"),
    ])
    assert rc == EXIT_CONFIG
    message = f"config error: {cfg}: malformed assembly config: missing field 'block_count'"
    assert capsys.readouterr().err.startswith(message)


@pytest.mark.parametrize("args, config, message", [
    (["--blocks", "0"], None, "block_count must be an integer of at least 1, got 0"),
    (["--blocks", "7"], None, "block count must be divisible by 10"),
    ([], {"block_count": "10"}, "block_count must be an integer of at least 1, got '10'"),
    ([], {"block_count": True}, "block_count must be an integer of at least 1, got True"),
    ([], {"block_count": 10, "mixed_key_range": [4]},
     "mixed_key_range must be a list of 2 values, got [4]"),
    ([], {"block_count": 10, "mixed_key_range": [5, 4]},
     "mixed_key_range[1] must be an integer of at least 5, got 4"),
    ([], {"block_count": 10, "sign_floor": "0.3"},
     "sign_floor must be a finite number in [0, 1], got '0.3'"),
    ([], {"block_count": 10, "sign_floor": 1.5},
     "sign_floor must be a finite number in [0, 1], got 1.5"),
    ([], {"block_count": 10, "per_trait": 4, "node_budget": "x"},
     "node_budget must be an integer of at least 0, got 'x'"),
    ([], {"block_count": 10, "per_trait_pair": -1},
     "per_trait_pair must be an integer of at least 0, got -1"),
    ([], {"block_count": 10, "per_trait": 4, "per_trait_pairs": 1},
     "unknown key 'per_trait_pairs', not one of 'block_count', 'per_trait', 'per_trait_pair', "
     "'mixed_key_range', 'sign_floor', 'node_budget'"),
])
def test_assembly_config_value_out_of_range_is_a_config_error(
    instrument_files, tmp_path, capsys, monkeypatch, args, config, message
):
    def never(*args, **kwargs):
        raise AssertionError("searched before the assembly config was checked")

    monkeypatch.setattr(cli, "solve_assembly", never)
    if config is not None:
        cfg = tmp_path / "assembly.json"
        cfg.write_text(json.dumps(config))
        args = ["--config", str(cfg)]
        message = f"{cfg}: malformed assembly config: {message}"
    rc = main([
        "assemble", "--pool", str(instrument_files / "pool.csv"), *args,
        "--out", str(tmp_path / "inventory.csv"),
    ])
    assert rc == EXIT_CONFIG
    assert capsys.readouterr().err.startswith(f"config error: {message}")


def test_assemble_refuses_blocks_given_with_a_config(instrument_files, tmp_path, capsys,
                                                     monkeypatch):
    def never(*args, **kwargs):
        raise AssertionError("searched with both --blocks and --config")

    monkeypatch.setattr(cli, "solve_assembly", never)
    cfg = tmp_path / "assembly.json"
    cfg.write_text(json.dumps({"block_count": 10}))
    out = tmp_path / "inventory.csv"
    for order in (["--config", str(cfg), "--blocks", "30"],
                  ["--blocks", "30", "--config", str(cfg)]):
        with pytest.raises(SystemExit) as exc:
            main(["assemble", "--pool", str(instrument_files / "pool.csv"), *order,
                  "--out", str(out)])
        assert exc.value.code == EXIT_CONFIG
        assert "not allowed with argument" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("flag", ["--block-size", "--replications"])
def test_rate_plan_rejects_a_count_below_one(instrument_files, tmp_path, capsys, flag):
    out = tmp_path / "prompts.json"
    with pytest.raises(SystemExit) as exc:
        main(["rate-plan", "--pool", str(instrument_files / "pool.csv"), "--raters", "r1",
              flag, "0", "--out", str(out)])
    assert exc.value.code == EXIT_CONFIG
    assert f"argument {flag}: must be an integer of at least 1, got 0" in capsys.readouterr().err
    assert not out.exists()


def _argv(instrument_files, tmp_path, command, *flags):
    """A full command line for ``command`` writing to ``tmp_path / "out"``;
    ``flags`` come last, so they override.  Input files need not exist."""
    inputs = {"--inventory": instrument_files / "inventory.csv",
              "--pool": instrument_files / "pool.csv",
              "--personas": tmp_path / "personas.json", "--responses": tmp_path / "runs",
              "--ratings": tmp_path / "ratings.csv"}
    required = {
        "personas": ["--n", "3"],
        "aggregate": ["--ratings", "--pool"],
        "administer": ["--inventory", "--pool", "--personas", "--format", "likert",
                       "--condition", "honest"],
        "fit": ["--format", "likert", "--responses", "--inventory", "--pool"],
    }[command]
    argv = [command]
    for word in required:
        argv += [word, str(inputs[word])] if word in inputs else [word]
    return [*argv, "--out", str(tmp_path / "out"), *flags]


_SEED = ("--seed", "-1", "must be an integer of at least 0, got -1")


@pytest.mark.parametrize("command, flag, value, message", [
    (["personas"], *_SEED), (["aggregate"], *_SEED), (["administer"], *_SEED),
    (["fit", "--backend", "map"], *_SEED), (["fit", "--backend", "hmc"], *_SEED),
    (["personas"], "--n", "0", "must be an integer of at least 1, got 0"),
    (["personas"], "--n", "-3", "must be an integer of at least 1, got -3"),
    (["administer"], "--delta", "-1", "must be a finite number of at least 0, got -1"),
    (["administer"], "--delta", "nan", "must be a finite number of at least 0, got nan"),
    (["administer"], "--delta", "inf", "must be a finite number of at least 0, got inf"),
], ids=["personas-seed", "aggregate-seed", "administer-seed", "fit-map-seed", "fit-hmc-seed",
        "personas-n-0", "personas-n-negative", "delta-negative", "delta-nan", "delta-inf"])
def test_a_flag_value_out_of_range_is_a_config_error(
    instrument_files, tmp_path, capsys, command, flag, value, message
):
    with pytest.raises(SystemExit) as exc:
        main(_argv(instrument_files, tmp_path, *command, flag, value))
    assert exc.value.code == EXIT_CONFIG
    assert f"argument {flag}: {message}" in capsys.readouterr().err
    assert not (tmp_path / "out").exists()


def test_report_refuses_a_fit_of_more_than_one_respondent(tmp_path, capsys):
    personas, fit = tmp_path / "personas.json", tmp_path / "fit_likert.json"
    assert main(["personas", "--n", "4", "--seed", "1", "--out", str(personas)]) == EXIT_OK
    ids = [p["id"] for p in json.loads(personas.read_text())["personas"]]
    rng = np.random.default_rng(0)
    rows = [
        {"respondent_id": resp, "persona_id": pid, "condition": cond,
         **dict(zip("ACENO", map(float, rng.standard_normal(5))))}
        for resp in ("sim", "other") for pid in ids for cond in ("honest", "fake_good")
    ]
    fit.write_text(json.dumps({"model": "grm", "backend": "map", "theta": rows}))
    capsys.readouterr()
    rc = main(["report", "--fit-likert", str(fit), "--personas", str(personas),
               "--out", str(tmp_path / "report")])
    assert rc == EXIT_STAGE
    assert capsys.readouterr().err.startswith(
        "stage failure: a shift table pairs one respondent's estimates, got 2: 'other', 'sim'"
    )


def _likert_runs(instrument_files, tmp_path):
    """Administer 4 simulated personas' Likert sessions under both conditions."""
    personas, runs = tmp_path / "personas.json", tmp_path / "runs"
    assert main(["personas", "--n", "4", "--seed", "1", "--out", str(personas)]) == EXIT_OK
    for cond in ("honest", "fake_good"):
        assert main(_argv(instrument_files, tmp_path, "administer", "--seed", "2",
                          "--condition", cond, "--out", str(runs))) == EXIT_OK
    return runs


def test_a_diagnostics_error_from_the_sampler_exits_4(
    instrument_files, tmp_path, capsys, monkeypatch
):
    def divergent(data, opts):
        raise DiagnosticsError("pervasive divergences: 5 of 8 draws")

    runs = _likert_runs(instrument_files, tmp_path)
    monkeypatch.setattr(cli, "fit_hmc", divergent)
    capsys.readouterr()
    argv = _argv(instrument_files, tmp_path, "fit", "--backend", "hmc")
    assert main(argv) == EXIT_DIAGNOSTICS
    assert capsys.readouterr().err == (
        "diagnostics failure: pervasive divergences: 5 of 8 draws\n"
    )
    assert not (tmp_path / "out").exists()

    out_dir = tmp_path / "run"
    study = _small_study(instrument_files)
    assert _run_pipeline(tmp_path, out_dir, **study, backend="hmc") == EXIT_DIAGNOSTICS
    assert (out_dir / "runs" / "responses_likert_fake_good.csv").is_file()
    assert not list(out_dir.rglob("fit_*.json"))


def test_hmc_fit_artifact_holds_the_posterior_mean_traits(instrument_files, tmp_path):
    runs = _likert_runs(instrument_files, tmp_path)
    settings = {"chains": 2, "warmup": 30, "samples": 8, "seed": 3}
    argv = _argv(instrument_files, tmp_path, "fit", "--backend", "hmc",
                 *[w for k, v in settings.items() for w in (f"--{k}", str(v))])
    assert main(argv) == EXIT_DIAGNOSTICS  # 8 draws fail the R-hat gate; the fit is kept
    art = json.loads((tmp_path / "out").read_text())
    assert art["backend"] == "hmc"
    pool, inv = small_instrument()
    sets = [rs for f in sorted(runs.glob("responses_*.csv")) for rs in load_response_sets(f)]
    data = build_model_data(sets, inv, pool, ResponseFormat.LIKERT)
    expected = fit_hmc(data, HmcOptions(**settings)).theta_hat
    frame = fit_theta_frame(art)
    assert np.array_equal(np.array([frame[u] for u in data.units]), expected)


#: SHA-256 of the fit artifact below. Re-recorded when the posterior moved to
#: one loading matrix, whose gradient's last bits moved HMC's draws, and when
#: the diagnostics' normal scores moved from a port of scipy's ndtri to the
#: standard library's ``NormalDist().inv_cdf``, which moved the last bits of
#: ``rhat_max`` and ``ess_min`` but no draw.
HMC_FIT_SHA256 = "f29bbcc23f94fe1e63041fa24621908846acd6437ab20efc9d3e73f9f7c7e878"


def test_hmc_fit_artifact_matches_the_recorded_digest(instrument_files, tmp_path):
    _likert_runs(instrument_files, tmp_path)
    argv = _argv(instrument_files, tmp_path, "fit", "--backend", "hmc", "--chains", "2",
                 "--warmup", "20", "--samples", "20", "--seed", "3")
    assert main(argv) == EXIT_DIAGNOSTICS  # 20 draws fail the R-hat gate; the fit is kept
    assert hashlib.sha256((tmp_path / "out").read_bytes()).hexdigest() == HMC_FIT_SHA256


def test_pipeline_rerun_over_a_manifest_without_artifacts_rebuilds(
    instrument_files, tmp_path, monkeypatch
):
    out_dir = tmp_path / "run"
    assert _run_pipeline(tmp_path, out_dir, **_small_study(instrument_files)) == EXIT_OK
    fresh = _contents(out_dir)
    manifest = json.loads(fresh["manifest.json"])
    del manifest["artifacts"]
    (out_dir / "manifest.json").write_text(json.dumps(manifest))
    calls = _count_calls(monkeypatch, "sample_personas", "_fit_format")
    assert _run_pipeline(tmp_path, out_dir, **_small_study(instrument_files)) == EXIT_OK
    assert calls == {"sample_personas": 1, "_fit_format": 2}  # counted as absent: all rebuilt
    assert _contents(out_dir) == fresh


def test_every_name_the_benchmark_tracer_wraps_resolves(monkeypatch):
    perfbench = Path(__file__).resolve().parents[1] / "perfbench"
    monkeypatch.syspath_prepend(str(perfbench))
    monkeypatch.setattr(sys, "dont_write_bytecode", True)  # leave perfbench/ untouched
    for name in ("layers", "spans"):
        monkeypatch.delitem(sys.modules, name, raising=False)
    layers = importlib.import_module("layers")

    class Probe:  # a tracer that only looks each name up
        def wrap(self, owner, attr, *rest):
            getattr(owner, attr)

    layers.install(Probe())


def test_the_benchmark_tracer_reads_one_posterior_gradient(monkeypatch):
    perfbench = Path(__file__).resolve().parents[1] / "perfbench"
    monkeypatch.syspath_prepend(str(perfbench))
    monkeypatch.setattr(sys, "dont_write_bytecode", True)  # leave perfbench/ untouched
    for name in ("layers", "spans"):
        monkeypatch.delitem(sys.modules, name, raising=False)
    layers, spans = importlib.import_module("layers"), importlib.import_module("spans")
    pool, inv = small_instrument()
    y = np.random.default_rng(0).integers(1, 8, (3, 10))
    units = tuple(("r", f"p{i}", "honest") for i in range(3))
    data = irt.ModelData(irt.design_for(inv, pool, ResponseFormat.LIKERT), y, units)
    x = np.random.default_rng(1).standard_normal(irt.param_dim(data))
    tracer = spans.Tracer()
    try:
        layers.install(tracer)
        irt.log_posterior_and_grad(data, x)
    finally:
        tracer.restore()
    metrics, _ = layers.iteration_metrics(tracer)
    assert metrics["irt.grad_evals"] == 1 and metrics["ordinal.calls"] == 1
    assert metrics["ordinal.bytes_per_call"] == 6 * y.size * 8  # three inputs, three outputs


# ---------------------------------------------------------------------------
# Exit codes of the paths a study does not take
# ---------------------------------------------------------------------------


def _pool_is_a_directory(instrument_files, tmp_path):
    pool = tmp_path / "pool"
    pool.mkdir()
    return pool, ["assemble", "--pool", str(pool), "--blocks", "10",
                  "--out", str(tmp_path / "inventory.csv")]


def _out_in_a_missing_directory(instrument_files, tmp_path):
    out = tmp_path / "missing" / "p.json"
    return out, ["personas", "--n", "3", "--out", str(out)]


def _out_dir_is_a_file(instrument_files, tmp_path):
    out_dir = tmp_path / "afile"
    out_dir.write_text("")
    cfg = tmp_path / "pipeline.json"
    cfg.write_text(json.dumps({"backend": "map", "out_dir": str(out_dir),
                               **_small_study(instrument_files)}))
    return out_dir, ["pipeline", "--config", str(cfg)]


@pytest.mark.parametrize("case", [_pool_is_a_directory, _out_in_a_missing_directory,
                                  _out_dir_is_a_file],
                         ids=["assemble-pool-dir", "personas-out-missing-dir",
                              "pipeline-out-dir-file"])
def test_a_path_that_cannot_be_read_or_written_is_a_stage_failure(
    instrument_files, tmp_path, capsys, case
):
    path, argv = case(instrument_files, tmp_path)
    assert main(argv) == EXIT_STAGE  # returned, not raised: no traceback
    err = capsys.readouterr().err
    assert err.startswith("stage failure: ") and str(path) in err


@pytest.mark.parametrize("flags", [["--model", "m"], ["--base-url", "http://localhost:9"]],
                         ids=["no-base-url", "no-model"])
def test_http_administer_without_a_base_url_or_model_is_a_config_error(
    instrument_files, tmp_path, capsys, flags
):
    personas = tmp_path / "personas.json"
    assert main(["personas", "--n", "2", "--seed", "1", "--out", str(personas)]) == EXIT_OK
    capsys.readouterr()
    argv = _argv(instrument_files, tmp_path, "administer", "--provider", "http", *flags)
    assert main(argv) == EXIT_CONFIG
    assert capsys.readouterr().err == "config error: http provider needs --base-url and --model\n"
    assert not (tmp_path / "out").exists()


class _Refusing:
    """A provider that answers the personas in ``refuse`` with no number."""

    model_id = "refusing"

    def __init__(self, refuse):
        self.refuse = set(refuse)

    def prepare(self, plans):
        pass

    def complete(self, plan, unit):
        return ProviderReply("no" if plan.persona.id in self.refuse else "4")


@pytest.mark.parametrize("refused, written, rc", [(1, 2, EXIT_OK), (3, 0, EXIT_STAGE)])
def test_administer_counts_failed_sessions_and_fails_when_none_is_written(
    instrument_files, tmp_path, capsys, monkeypatch, refused, written, rc
):
    personas = tmp_path / "personas.json"
    assert main(["personas", "--n", "3", "--seed", "1", "--out", str(personas)]) == EXIT_OK
    ids = [p["id"] for p in json.loads(personas.read_text())["personas"]]
    monkeypatch.setattr(cli, "_build_provider", lambda *args: _Refusing(ids[:refused]))
    capsys.readouterr()
    runs = tmp_path / "out"
    assert main(_argv(instrument_files, tmp_path, "administer")) == rc
    responses = runs / "responses_likert_honest.csv"
    out, err = capsys.readouterr()
    if not written:  # no set is complete: neither file is written
        assert err == "stage failure: all 3 sessions failed; no response sets written\n"
        assert list(runs.iterdir()) == []
        return
    assert out == f"wrote {written} response sets ({refused} failed sessions) -> {responses}\n"
    assert len(load_response_sets(responses)) == written
    manifest = json.loads((runs / "manifest_likert_honest.json").read_text())
    assert len(manifest["sessions"]) == 3


def test_administer_keeps_an_earlier_run_when_every_session_fails(
    instrument_files, tmp_path, capsys, monkeypatch
):
    personas = tmp_path / "personas.json"
    assert main(["personas", "--n", "3", "--seed", "1", "--out", str(personas)]) == EXIT_OK
    ids = [p["id"] for p in json.loads(personas.read_text())["personas"]]
    runs = tmp_path / "out"
    assert main(_argv(instrument_files, tmp_path, "administer")) == EXIT_OK
    files = sorted(runs.iterdir())
    assert [f.name for f in files] == ["manifest_likert_honest.json", "responses_likert_honest.csv"]
    before = [f.read_bytes() for f in files]
    monkeypatch.setattr(cli, "_build_provider", lambda *args: _Refusing(ids))
    capsys.readouterr()
    assert main(_argv(instrument_files, tmp_path, "administer")) == EXIT_STAGE
    assert "all 3 sessions failed" in capsys.readouterr().err
    assert sorted(runs.iterdir()) == files
    assert [f.read_bytes() for f in files] == before


def test_pipeline_fails_the_stage_of_a_failed_session(instrument_files, tmp_path, capsys,
                                                      monkeypatch):
    monkeypatch.setattr(SimulatorProvider, "complete", lambda self, plan, unit: ProviderReply("no"))
    out_dir = tmp_path / "run"
    assert _run_pipeline(tmp_path, out_dir, **_small_study(instrument_files)) == EXIT_STAGE
    err = capsys.readouterr().err
    assert err.startswith("stage failure: administration failed at unit ")
    assert err.endswith(" (likert/honest)\n")
    assert not list(out_dir.rglob("responses_*.csv"))


def test_lint_exit_codes(instrument_files, tmp_path, capsys):
    out_dir = tmp_path / "run"
    out_dir.mkdir()
    assert main(["lint", "--run-dir", str(out_dir)]) == EXIT_CONFIG
    assert capsys.readouterr().err == f"config error: no manifest.json under {out_dir}\n"

    assert _run_pipeline(tmp_path, out_dir, **_small_study(instrument_files)) == EXIT_OK
    (out_dir / "personas.json").unlink()
    capsys.readouterr()
    assert main(["lint", "--run-dir", str(out_dir)]) == EXIT_STAGE
    assert capsys.readouterr().err == "missing artifact: personas.json\n"

    (out_dir / "fits" / "fit_gfc.json").unlink()
    assert main(["lint", "--run-dir", str(out_dir)]) == EXIT_STAGE
    assert capsys.readouterr().err == (
        "missing artifact: fits/fit_gfc.json\n"
        "missing artifact: personas.json\n"
        "report gfc cites missing fit artifact: fits/fit_gfc.json\n"
    )


def test_fit_on_a_directory_without_response_files_is_a_config_error(
    instrument_files, tmp_path, capsys
):
    (tmp_path / "runs").mkdir()
    assert main(_argv(instrument_files, tmp_path, "fit")) == EXIT_CONFIG
    assert capsys.readouterr().err == f"config error: no response files under {tmp_path / 'runs'}\n"
    assert not (tmp_path / "out").exists()


def test_fit_reads_a_response_file_without_a_manifest_beside_it(instrument_files, tmp_path):
    runs = _likert_runs(instrument_files, tmp_path)
    alone = tmp_path / "alone" / "responses_likert_honest.csv"
    alone.parent.mkdir()
    alone.write_bytes((runs / alone.name).read_bytes())
    argv = _argv(instrument_files, tmp_path, "fit", "--responses", str(alone), "--starts", "1")
    assert main(argv) == EXIT_OK
    assert len(json.loads((tmp_path / "out").read_text())["theta"]) == 4


def test_report_on_a_gfc_fit_alone_and_on_no_fit(instrument_files, tmp_path, capsys):
    out_dir = tmp_path / "run"
    study = _small_study(instrument_files)
    assert _run_pipeline(tmp_path, out_dir, **study, formats=["gfc"]) == EXIT_OK
    personas = str(out_dir / "personas.json")
    report = tmp_path / "report"
    assert main(["report", "--fit-gfc", str(out_dir / "fits" / "fit_gfc.json"),
                 "--personas", personas, "--out", str(report)]) == EXIT_OK
    bundle = json.loads((report / "report.json").read_text())
    assert list(bundle["metadata"]["sources"]) == ["gfc"]
    capsys.readouterr()
    assert main(["report", "--personas", personas, "--out", str(tmp_path / "none")]) == EXIT_CONFIG
    assert capsys.readouterr().err == "config error: no fit artifacts given\n"
    assert not (tmp_path / "none").exists()


def test_assemble_scores_the_pool_from_ratings(instrument_files, tmp_path, capsys):
    # one rating per item: five cross-domain pairs of equal scores, each trait twice
    scores = {"a1": 3, "c1": 3, "c2": 5, "e2": 5, "e1": 7, "n1": 7, "n2": 4, "o1": 4,
              "o2": 6, "a2": 6}
    ratings = tmp_path / "ratings.csv"
    ratings.write_text("item_id,rater,replication,value\n"
                       + "".join(f"{i},r1,1,{v}\n" for i, v in scores.items()))
    cfg = tmp_path / "assembly.json"
    cfg.write_text(json.dumps({"block_count": 5, "per_trait": 2, "per_trait_pair": None,
                               "mixed_key_range": None, "sign_floor": None}))
    out = tmp_path / "inventory.csv"
    assert main(["assemble", "--pool", str(instrument_files / "pool.csv"),
                 "--ratings", str(ratings), "--config", str(cfg), "--out", str(out)]) == EXIT_OK
    assert capsys.readouterr().out == f"assembled 5 blocks (max gap 0, sse 0) -> {out}\n"
    rows = out.read_text().splitlines()[1:]
    assert sorted(tuple(sorted(r.split(",")[1:3])) for r in rows) == [
        ("a1", "c1"), ("a2", "o2"), ("c2", "e2"), ("e1", "n1"), ("n2", "o1")]


def test_pervasive_divergences_fail_an_hmc_fit_with_exit_4(
    instrument_files, tmp_path, capsys, monkeypatch
):
    _likert_runs(instrument_files, tmp_path)
    # every transition meets a log posterior of -inf; the forked chains inherit the patch
    monkeypatch.setattr(irt, "log_posterior_and_grad",
                        lambda data, x: (-np.inf, np.zeros_like(x)))
    capsys.readouterr()
    argv = _argv(instrument_files, tmp_path, "fit", "--backend", "hmc", "--chains", "2",
                 "--warmup", "20", "--samples", "8")
    assert main(argv) == EXIT_DIAGNOSTICS
    assert capsys.readouterr().err == "diagnostics failure: pervasive divergences: 16 of 16 draws\n"
    assert not (tmp_path / "out").exists()
