"""Command-line interface: exit codes, artifacts, pipeline resumability."""

import hashlib
import json
from pathlib import Path

import pytest

from sdrkit.cli import (
    EXIT_CONFIG,
    EXIT_OK,
    EXIT_STAGE,
    main,
)
from sdrkit.core import write_inventory, write_item_pool

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


def test_pipeline_rejects_external_provider(tmp_path, instrument_files):
    cfg = tmp_path / "pipeline.json"
    cfg.write_text(json.dumps({
        "pool": str(instrument_files / "pool.csv"),
        "inventory": str(instrument_files / "inventory.csv"),
        "provider": {"type": "http"},
    }))
    assert main(["pipeline", "--config", str(cfg)]) == EXIT_CONFIG


def test_version_flag(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["--version"])
    assert exc.value.code == 0
    assert capsys.readouterr().out.startswith("sdrkit ")


GOLDEN = Path(__file__).parent / "golden"
DATA = Path(__file__).resolve().parents[1] / "src" / "sdrkit" / "data"

# SHA-256 of each file `sdrkit administer --provider sim --seed 7` writes for
# the recorded 12-persona set on the packaged marker instrument. A change here
# changes the data of every simulated study, so update it only on purpose.
SIM_ADMINISTER_DIGESTS = {
    "manifest_gfc_fake_good.json": "087ec36dbe4bb62f4330b3106f14360544263649eaa3b1193c10418851003418",
    "manifest_gfc_honest.json": "83c31673701d7fb5707c79f100a893b76013d8432f5d452b39c3a4c4a3fd1ddc",
    "manifest_likert_fake_good.json": "e37ab9c931c9dcb7836a4d2f0713ea385848b0999ced24eb0942e2b4b647f012",
    "manifest_likert_honest.json": "418d4c6105b0ac5a17ecd7b6c8778d7765d269e9dc3d4b02db549bc4fd0a9657",
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
