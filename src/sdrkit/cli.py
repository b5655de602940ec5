"""Command-line entry point: one tool with subcommands for every pipeline
stage plus an end-to-end ``pipeline`` orchestrator.

Exit codes: 0 success, 2 configuration error, 3 stage failure, 4 convergence
diagnostics failure.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import shutil
import sys
from dataclasses import asdict, fields
from functools import cache, partial
from importlib import resources
from pathlib import Path

import numpy as np

from . import __version__
from .administer import (
    RunManifest,
    build_rating_plan,
    make_session_plans,
    run_session,
    HttpProvider,
)
from .assemble import InfeasibleError, assemble as solve_assembly
from .core import (
    AssemblyConfig,
    FieldError,
    InstructionCondition,
    ResponseFormat,
    SdrkitError,
    cell,
    load_inventory,
    load_item_pool,
    load_response_sets,
    read_count,
    read_flag,
    read_json,
    read_list,
    read_member,
    read_number,
    read_text,
    write_inventory,
    write_item_pool,
    write_response_sets,
    validate_inventory,
)
from .irt import (
    DiagnosticsError,
    HmcOptions,
    MapOptions,
    build_model_data,
    diagnostics as hmc_diagnostics,
    fit_hmc,
    fit_map,
    fit_theta_frame,
    load_fit_artifact,
    unpack,
    write_fit_artifact,
)
from .metrics import build_shift_table, summarize_effects
from .personas import (
    Lexicon,
    PersonaError,
    TraitCovariance,
    load_persona_set,
    sample_personas,
    write_persona_set,
)
from .ratings import agreement_stats, aggregate_ratings, load_rating_dataset
from .report import (
    emit_plots,
    write_effect_table,
    write_report_bundle,
    write_tradeoff_table,
)
from .simulate import (
    SimSpec,
    SimulatorProvider,
    check_sim_params,
    default_sim_params,
    load_sim_params,
    write_sim_params,
)

EXIT_OK = 0
EXIT_CONFIG = 2
EXIT_STAGE = 3
EXIT_DIAGNOSTICS = 4

RHAT_GATE = 1.01
RHAT_SHARE = 0.99


class ConfigError(SdrkitError):
    pass


def _packaged(name: str) -> Path:
    return Path(str(resources.files("sdrkit.data").joinpath(name)))


def _require(path: str | Path, what: str) -> Path:
    p = Path(path)
    if not p.exists():
        raise ConfigError(f"{what} not found: {p}")
    return p


def _sha256(path: Path) -> str:
    return hashlib.sha256(path.read_bytes()).hexdigest()


def _digest(value) -> str:
    return hashlib.sha256(json.dumps(value, sort_keys=True).encode()).hexdigest()


@cache
def _code_digest() -> str:
    """SHA-256 of sdrkit's modules and packaged data and of the numpy and scipy
    versions: what a pipeline stage's key holds of the code that builds it."""
    from importlib import metadata  # here: importing sdrkit.cli needs none of it

    package = Path(__file__).parent
    h = hashlib.sha256(json.dumps([metadata.version(d) for d in ("numpy", "scipy")]).encode())
    for path in sorted([*package.glob("*.py"), *package.glob("data/*")]):
        h.update(f"{path.relative_to(package).as_posix()}\0".encode() + path.read_bytes())
    return h.hexdigest()


def _write_atomically(paths: list[Path], write):
    """``write(*staged)``, one staged file per path under the path's own name in
    a staging directory beside the first, then rename each into place: a write
    that fails leaves every previous file as it was.  The staging directory is
    named after the first path, so the next write of the same files also clears
    what a killed run left there."""
    staging = paths[0].with_name(f".{paths[0].name}.tmp")
    staging.mkdir(parents=True, exist_ok=True)
    try:
        staged = [staging / p.name for p in paths]
        result = write(*staged)
        for s, p in zip(staged, paths):
            os.replace(s, p)
        return result
    finally:
        shutil.rmtree(staging, ignore_errors=True)


#: condition names on the command line
CONDITIONS = {"honest": InstructionCondition.HONEST, "fake": InstructionCondition.FAKE_GOOD,
              "fake_good": InstructionCondition.FAKE_GOOD}


# ---------------------------------------------------------------------------
# Subcommands
# ---------------------------------------------------------------------------


def cmd_rate_plan(args) -> int:
    pool = load_item_pool(_require(args.pool, "item pool"))
    raters = [r for r in args.raters.split(",") if r]
    if not raters:
        raise ConfigError("need at least one rater id")
    prompts = build_rating_plan(
        pool, raters, replications=args.replications, block_size=args.block_size, seed=args.seed
    )
    payload = [
        {
            "rater": p.rater,
            "replication": p.replication,
            "block_index": p.block_index,
            "item_ids": list(p.item_ids),
            "prompt": p.text,
        }
        for p in prompts
    ]
    Path(args.out).write_text(json.dumps(payload, indent=2), encoding="utf-8")
    print(f"wrote {len(prompts)} rating prompts to {args.out}")
    return EXIT_OK


def cmd_aggregate(args) -> int:
    ds = load_rating_dataset(_require(args.ratings, "rating dataset"))
    table = aggregate_ratings(ds)
    pool = load_item_pool(_require(args.pool, "item pool"))
    rated = pool.with_desirability(table.scores)
    write_item_pool(rated, args.out)
    if args.stats:
        stats_out = {
            rater: asdict(agreement_stats(ds, rater, rng_seed=args.seed))
            for rater in ds.raters
        }
        Path(args.stats).write_text(json.dumps(stats_out, indent=2), encoding="utf-8")
    print(f"aggregated {len(table.scores)} item scores into {args.out}")
    return EXIT_OK


def _settings(raw, defaults: dict, name: str = "") -> dict:
    """``defaults`` with ``raw``'s values in their place, and their mappings
    filled the same way; a key ``defaults`` lacks is refused, not ignored."""
    if type(raw) is not dict:
        raise FieldError(f"{name or 'the config'} must be a mapping, got {raw!r}")
    dotted = f"{name}." if name else ""
    for key in raw:
        if key not in defaults:
            raise FieldError(f"unknown key {dotted + key!r}, not one of "
                             + ", ".join(map(repr, defaults)))
    return {key: _settings(raw[key], value, dotted + key) if key in raw and type(value) is dict
            else raw.get(key, value) for key, value in defaults.items()}


def _assembly_config(args) -> AssemblyConfig:
    if not args.config:
        return AssemblyConfig.standard(30 if args.blocks is None else args.blocks)
    return read_json(_require(args.config, "assembly config"), lambda raw: AssemblyConfig(
        **_settings(raw, {f.name: f.default for f in fields(AssemblyConfig)}
                    | {"block_count": raw["block_count"]})  # the one required key
    ), "assembly config", ConfigError)


def cmd_assemble(args) -> int:
    pool = load_item_pool(_require(args.pool, "item pool"))
    if args.ratings:
        table = aggregate_ratings(load_rating_dataset(_require(args.ratings, "ratings")))
        pool = pool.with_desirability(table.scores)
    cfg = _assembly_config(args)
    try:
        sol = solve_assembly(pool, cfg)
    except InfeasibleError as exc:
        print(f"assembly infeasible ({exc.family}): {exc}", file=sys.stderr)
        return EXIT_STAGE
    write_inventory(sol.inventory, args.out)
    check = validate_inventory(sol.inventory, pool, cfg)
    report_path = Path(args.out).with_suffix(".report.json")
    report_path.write_text(
        json.dumps(
            {
                "max_gap": check.max_gap,
                "mean_gap": check.mean_gap,
                "trait_counts": check.trait_counts,
                "mixed_key_count": check.mixed_key_count,
                "checks": [
                    {"name": c.name, "passed": c.passed, "detail": c.detail}
                    for c in check.checks
                ],
            },
            indent=2,
        ),
        encoding="utf-8",
    )
    print(
        f"assembled {sol.inventory.block_count} blocks "
        f"(max gap {sol.m_star:.6g}, sse {sol.sse:.6g}) -> {args.out}"
    )
    return EXIT_OK


def _trait_covariance(raw) -> TraitCovariance:
    """A covariance file's matrix, read as five rows of five numbers; a matrix
    ``TraitCovariance`` refuses is a field error, so ``read_json`` names the file."""
    sigma = read_list(raw, "covariance", partial(read_list, read=read_number, length=5), 5)
    try:
        return TraitCovariance(np.array(sigma, dtype=float))
    except PersonaError as exc:
        raise FieldError(str(exc)) from None


def cmd_personas(args) -> int:
    cov = None
    if args.covariance:
        cov = read_json(_require(args.covariance, "covariance file"), _trait_covariance,
                        "covariance", ConfigError)
    lex = None
    if args.lexicon:
        lex = Lexicon.from_file(_require(args.lexicon, "lexicon"), ConfigError)
    ps = sample_personas(args.n, cov=cov, seed=args.seed, lexicon=lex)
    write_persona_set(ps, args.out)
    print(f"sampled {len(ps)} personas -> {args.out}")
    return EXIT_OK


def _build_provider(args, inventory, pool, fmt):
    if args.provider == "sim":
        if args.params:
            params = load_sim_params(_require(args.params, "simulator params"))
            check_sim_params(params, inventory, pool, fmt)
        else:
            params = default_sim_params(inventory, pool, seed=args.seed)
        spec = SimSpec(fake_good_delta=args.delta, seed=args.seed)
        return SimulatorProvider(params, spec)
    # argparse's choices leave only "http"
    if not args.base_url or not args.model:
        raise ConfigError("http provider needs --base-url and --model")
    return HttpProvider(args.base_url, args.model, token_env=args.token_env)


def cmd_administer(args) -> int:
    pool = load_item_pool(_require(args.pool, "item pool"))
    inventory = load_inventory(_require(args.inventory, "inventory"), pool)
    personas = load_persona_set(_require(args.personas, "persona set"))
    fmt = ResponseFormat(args.format)
    cond = CONDITIONS[args.condition]
    provider = _build_provider(args, inventory, pool, fmt)
    manifest = RunManifest(
        run_id=f"{fmt.value}-{cond.value}", model_id=provider.model_id,
        seeds={"plan": args.seed}, created_at="",
    )
    out_file = Path(args.out) / f"responses_{fmt.value}_{cond.value}.csv"

    def administer(path, manifest_path):  # unless both are written, both earlier files stay
        n_written, failed = _administer(
            personas, inventory, pool, fmt, cond, args.seed, provider, manifest, path
        )
        if failed and not n_written:
            raise SdrkitError(f"all {len(failed)} sessions failed; no response sets written")
        manifest.artifacts[path.name] = _sha256(path)
        manifest_path.write_text(manifest.to_json(), encoding="utf-8")
        return n_written, failed

    n_written, failed = _write_atomically(
        [out_file, out_file.with_name(f"manifest_{fmt.value}_{cond.value}.json")], administer)
    print(f"wrote {n_written} response sets ({len(failed)} failed sessions) -> {out_file}")
    return EXIT_OK


def _administer(personas, inventory, pool, fmt, cond, seed, provider, manifest, path):
    """Plan and run one format x condition's sessions, record each in
    ``manifest`` and write the complete ones' response sets to ``path``.

    Returns the number of response sets written and the failed results.
    """
    plans = make_session_plans(
        list(personas), inventory, pool, [fmt], [cond], seed=seed,
        respondent_id=provider.model_id,
    )
    provider.prepare(plans)
    sets, failed = [], []
    for plan in plans:
        result = run_session(plan, provider)
        manifest.record_session(result)
        if result.complete:
            sets.append(result.response_set)
        else:
            failed.append(result)
    provider.prepare([])  # the stage is over: nothing it drew is needed again
    write_response_sets(sets, path)
    return len(sets), failed


def _load_response_files(path: Path, inventory):
    if path.is_dir():
        files = sorted(path.glob("responses_*.csv"))
        if not files:
            raise ConfigError(f"no response files under {path}")
    else:
        files = [path]
    sets = []
    for f in files:
        loaded = load_response_sets(f, inventory)
        _check_digest(f)
        sets.extend(loaded)
    return sets


def _check_digest(path: Path) -> None:
    """Raise unless ``path`` is the file that the ``sdrkit administer``
    manifest beside it, if there is one, records by SHA-256: a file cut
    between two sets, or one written by a run whose manifest was not, has
    only whole sets, which ``load_response_sets`` accepts."""
    manifest = path.with_name(f"manifest_{path.stem.removeprefix('responses_')}.json")
    if not path.name.startswith("responses_") or not manifest.is_file():
        return
    digest = read_json(manifest, lambda raw: raw["artifacts"][path.name], "manifest")
    if _sha256(path) != digest:
        raise SdrkitError(f"{path}: its SHA-256 is not the one {manifest.name} records")


def cmd_fit(args) -> int:
    if args.backend == "map":
        opts = MapOptions(seed=args.seed, n_starts=args.starts)
    else:  # R-hat splits each of 2+ chains into halves of 2+ draws
        read_count(args.chains, "--chains with --backend hmc", 2)
        read_count(args.samples, "--samples with --backend hmc", 4)
        opts = HmcOptions(seed=args.seed, chains=args.chains, warmup=args.warmup,
                          samples=args.samples)
    pool = load_item_pool(_require(args.pool, "item pool"))
    inventory = load_inventory(_require(args.inventory, "inventory"), pool)
    sets = _load_response_files(_require(args.responses, "response data"), inventory)
    n_units = _fit_write_gate(sets, inventory, pool, ResponseFormat(args.format), opts, args.out)
    print(f"fitted {n_units} response units ({opts.backend}) -> {args.out}")
    return EXIT_OK


def _fit_write_gate(sets, inventory, pool, fmt, opts, out) -> int:
    """Fit one format, write its artifact to ``out``, then apply the R-hat gate;
    returns the number of units fitted.  ``sdrkit fit`` keeps a fit that fails
    the gate for inspection; the pipeline discards it unstamped, to be refitted."""
    data = build_model_data(sets, inventory, pool, fmt)
    params, diag = _fit_format(data, opts)
    write_fit_artifact(out, data, params, opts.backend, diag)
    share = diag.get("rhat_share_below_gate", 1.0)  # MAP fits have no R-hat
    if share < RHAT_SHARE:
        raise DiagnosticsError(
            f"{fmt.value} fit: only {share:.1%} of parameters have R-hat < {RHAT_GATE}"
        )
    return data.n_units


def _fit_format(data, opts: MapOptions | HmcOptions):
    """Fit one format with the backend ``opts`` configures.

    Returns the fitted parameters (for HMC, at the posterior mean) and the fit
    artifact's diagnostics dict.
    """
    if isinstance(opts, MapOptions):
        fit = fit_map(data, opts)
        diag = {
            "log_posterior": fit.log_posterior,
            "grad_inf_norm": fit.grad_inf_norm,
            "converged": fit.converged,
        }
        return fit.params, diag
    post = fit_hmc(data, opts)
    rhat_ess = hmc_diagnostics(post)
    diag = {
        "rhat_max": float(rhat_ess["rhat"].max()),
        "rhat_share_below_gate": float(np.mean(rhat_ess["rhat"] < RHAT_GATE)),
        "ess_min": float(rhat_ess["ess"].min()),
        "divergences": post.divergences,
        "accept_rate": post.accept_rate,
    }
    return unpack(data, post.draws.reshape(-1, post.draws.shape[-1]).mean(axis=0)), diag


def _summaries_from_fits(fit_paths: dict[str, Path], personas):
    by_id = personas.by_id()
    summaries = []
    for fmt in ("likert", "gfc"):
        if fmt not in fit_paths:
            continue
        frame = fit_theta_frame(load_fit_artifact(fit_paths[fmt]))
        table = build_shift_table(frame)
        honest = {k[1]: v for k, v in frame.items() if k[2] == "honest"}
        ids = sorted(set(honest) & set(by_id))
        if len(ids) < 3:
            raise ConfigError("need at least 3 personas with honest fits for recovery")
        honest_theta = np.array([honest[p] for p in ids])
        z_true = np.array([by_id[p].z for p in ids])
        summaries.append(summarize_effects(fmt, table, honest_theta, z_true))
    if not summaries:
        raise ConfigError("no fit artifacts given")
    return summaries


def cmd_report(args) -> int:
    personas = load_persona_set(_require(args.personas, "persona set"))
    fit_paths = {}
    if args.fit_likert:
        fit_paths["likert"] = _require(args.fit_likert, "likert fit")
    if args.fit_gfc:
        fit_paths["gfc"] = _require(args.fit_gfc, "gfc fit")
    _write_report(fit_paths, {f: str(p) for f, p in fit_paths.items()}, personas, Path(args.out))
    print(f"wrote report tables and plots -> {args.out}")
    return EXIT_OK


REPORT_FILES = ("effects.csv", "tradeoff.csv", "report.json",
                "shift_heatmap.svg", "tradeoff_scatter.svg")


def _write_report(fit_paths: dict[str, Path], sources: dict[str, str], personas, out: Path):
    """Write the ``REPORT_FILES`` into ``out``; ``sources`` cites each fit."""
    summaries = _summaries_from_fits(fit_paths, personas)
    out.mkdir(parents=True, exist_ok=True)
    write_effect_table(summaries, out / "effects.csv")
    write_tradeoff_table(summaries, out / "tradeoff.csv")
    write_report_bundle(summaries, out / "report.json", sources=sources)
    emit_plots(summaries, out)


# ---------------------------------------------------------------------------
# Pipeline
# ---------------------------------------------------------------------------

#: the pipeline config's data files, which its stages key by content
_DATA_FILES = ("pool", "inventory")


def _pipeline_config(raw: dict) -> dict:
    """A pipeline config with its defaults filled in, once its keys and values check out."""
    cfg = _settings(raw, {
        "pool": str(_packaged("marker_inventory_pool.csv")),
        "inventory": str(_packaged("marker_inventory_blocks.csv")),
        "n_personas": 50, "backend": "map", "formats": ["likert", "gfc"], "out_dir": "run",
        "seeds": {"personas": 1, "plan": 2, "sim": 3, "params": 4, "fit": 5},
        "provider": {"fake_good_delta": 1.0, "matched_discrimination": False},
    })
    seeds, provider = cfg["seeds"], cfg["provider"]
    for key in _DATA_FILES:
        _require(read_text(cfg[key], key), f"pipeline {key}")
    read_member(cfg["backend"], "backend", ("map", "hmc"))
    read_count(cfg["n_personas"], "n_personas", 3)  # the report's recovery needs 3
    for name, seed in seeds.items():
        read_count(seed, f"seeds.{name}")
    formats = read_list(cfg["formats"], "formats", read_member, choices=ResponseFormat)
    if len(set(formats)) < len(formats):  # a fit would hold each unit twice
        raise FieldError(f"formats must name each format once, got {cfg['formats']!r}")
    # in ResponseFormat order, so that listing them in another one is the same study
    cfg["formats"] = [f.value for f in ResponseFormat if f in formats]
    read_text(cfg["out_dir"], "out_dir")
    read_number(provider["fake_good_delta"], "provider.fake_good_delta", 0)
    read_flag(provider["matched_discrimination"], "provider.matched_discrimination")
    return cfg


def _reusable(raw: dict) -> tuple[dict, dict, dict]:
    """A previous manifest's input keys, artifact digests and sessions by
    (format, condition): what ``_Stages`` reads to reuse an artifact."""
    sessions: dict[tuple, list] = {}
    for s in raw["sessions"]:
        sessions.setdefault((s["format"], s["condition"]), []).append(s)
    return dict(raw.get("inputs", {})), dict(raw["artifacts"]), sessions


class _Stages:
    """One reuse rule for every pipeline artifact.

    A stage's input key hashes the manifest's code digest, its config slice and
    its upstream digests (data files by content).  Its files are reused only if
    the previous manifest holds that key and their current digests; otherwise
    they are built through ``_write_atomically``, as is the manifest after every
    stage, so a rerun resumes after the last finished one.
    """

    def __init__(self, out_dir: Path, manifest: RunManifest, digests: dict[str, str]):
        self.out_dir, self.manifest, self.digests = out_dir, manifest, dict(digests)
        try:
            self.previous = read_json(out_dir / "manifest.json", _reusable, "manifest")
        except SdrkitError:  # no earlier run, or its manifest is cut or malformed
            self.previous = {}, {}, {}

    def run(self, names, config: dict, upstream, build, sessions=None) -> None:
        """Reuse or build ``names`` (``build`` gets one path per name); reused
        runs keep the previous entries for their ``sessions`` (format, condition)."""
        key = _digest([self.manifest.code_digest, config,
                       {n: self.digests[n] for n in upstream}])
        paths = [self.out_dir / n for n in names]
        inputs, artifacts, old_sessions = self.previous
        if all(
            inputs.get(n) == key and p.is_file() and artifacts.get(n) == _sha256(p)
            for n, p in zip(names, paths)
        ):
            self.manifest.sessions += old_sessions.get(sessions, [])
        else:
            _write_atomically(paths, build)
        for n, p in zip(names, paths):
            self.digests[n] = self.manifest.artifacts[n] = _sha256(p)
            self.manifest.inputs[n] = key
        _write_atomically([self.out_dir / "manifest.json"],
                          lambda tmp: tmp.write_text(self.manifest.to_json(), encoding="utf-8"))


def cmd_pipeline(args) -> int:
    cfg = read_json(_require(args.config, "pipeline config"), _pipeline_config,
                    "pipeline config", ConfigError)
    out_dir = Path(cfg["out_dir"])
    seeds, sim, backend = cfg["seeds"], cfg["provider"], cfg["backend"]
    digests = {k: _sha256(Path(cfg[k])) for k in _DATA_FILES}
    # the study is its config and its data's contents, wherever they are stored
    study = {k: v for k, v in cfg.items() if k not in ("out_dir", *_DATA_FILES)}
    manifest = RunManifest(
        run_id=_digest([__version__, study, digests])[:16],
        model_id=SimulatorProvider.model_id, seeds=seeds, created_at="",
        code_digest=_code_digest(),
    )
    stages = _Stages(out_dir, manifest, digests)
    fit_opts = (MapOptions if backend == "map" else HmcOptions)(seed=seeds["fit"])

    pool = load_item_pool(cfg["pool"])
    inventory = load_inventory(cfg["inventory"], pool)

    n, seed = cfg["n_personas"], seeds["personas"]
    stages.run(["personas.json"], {"n_personas": n, "seed": seed}, [],
               lambda p: write_persona_set(sample_personas(n, seed=seed), p))
    personas = load_persona_set(out_dir / "personas.json")

    seed, matched = seeds["params"], sim["matched_discrimination"]
    stages.run(["sim_params.json"], {"seed": seed, "matched": matched}, _DATA_FILES,
               lambda p: write_sim_params(default_sim_params(
                   inventory, pool, seed=seed, matched_discrimination=matched), p))
    spec = SimSpec(fake_good_delta=sim["fake_good_delta"], seed=seeds["sim"])
    provider = SimulatorProvider(load_sim_params(out_dir / "sim_params.json"), spec)

    def administer(fmt, cond, path):  # a failed session fails the stage: nothing is kept
        _, failed = _administer(
            personas, inventory, pool, fmt, cond, seeds["plan"], provider, manifest, path
        )
        if failed:
            unit = failed[0].failed_unit
            raise SdrkitError(f"administration failed at unit {unit} ({fmt.value}/{cond.value})")

    conditions = list(InstructionCondition)  # the report pairs honest and fake-good fits
    run_config = {"plan": seeds["plan"], "sim": seeds["sim"], "delta": spec.fake_good_delta}
    fits = {}
    for fmt in [ResponseFormat(f) for f in cfg["formats"]]:
        runs = [f"runs/responses_{fmt.value}_{cond.value}.csv" for cond in conditions]
        for rel, cond in zip(runs, conditions):
            stages.run([rel], run_config, ["personas.json", "sim_params.json", *_DATA_FILES],
                       lambda p: administer(fmt, cond, p), sessions=(fmt.value, cond.value))
        fits[fmt.value] = f"fits/fit_{fmt.value}.json"
        stages.run([fits[fmt.value]], {"backend": backend, "seed": seeds["fit"]},
                   [*runs, *_DATA_FILES], lambda p: _fit_write_gate(
                       [rs for r in runs for rs in load_response_sets(out_dir / r, inventory)],
                       inventory, pool, fmt, fit_opts, p))

    stages.run([f"reports/{name}" for name in REPORT_FILES], {}, ["personas.json", *fits.values()],
               lambda *paths: _write_report(
                   {fmt: out_dir / rel for fmt, rel in fits.items()}, fits, personas,
                   paths[0].parent))
    print(f"pipeline complete -> {out_dir}")
    return EXIT_OK


def cmd_lint(args) -> int:
    run_dir = _require(args.run_dir, "run directory")
    manifest_path = run_dir / "manifest.json"
    if not manifest_path.exists():
        raise ConfigError(f"no manifest.json under {run_dir}")
    artifacts = read_json(manifest_path, lambda raw: dict(raw["artifacts"]), "manifest")
    problems = []
    for rel, digest in artifacts.items():
        p = run_dir / rel
        if not p.exists():
            problems.append(f"missing artifact: {rel}")
        elif _sha256(p) != digest:
            problems.append(f"hash mismatch: {rel}")
    report_json = run_dir / "reports" / "report.json"
    if report_json.exists():
        sources = read_json(report_json, lambda raw: dict(raw["metadata"].get("sources", {})),
                            "report bundle")
        for fmt, src in sources.items():
            if not (run_dir / src).exists() and not Path(src).exists():
                problems.append(f"report {fmt} cites missing fit artifact: {src}")
    if problems:
        for p in problems:
            print(p, file=sys.stderr)
        return EXIT_STAGE
    print("manifest consistent: every artifact present with matching hash")
    return EXIT_OK


# ---------------------------------------------------------------------------
# Parser
# ---------------------------------------------------------------------------


def _at_least(low: int, kind=int):
    """An argparse type: a finite ``kind`` value no smaller than ``low``."""
    read = read_count if kind is int else read_number

    def count(text: str):
        try:
            return kind(read(cell(text), "", low))
        except FieldError as exc:  # argparse's message names the flag
            raise argparse.ArgumentTypeError(str(exc).lstrip()) from None

    return count


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="sdrkit",
        description="Desirability-matched forced-choice inventory toolkit",
    )
    parser.add_argument("--version", action="version", version=f"sdrkit {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("rate-plan", help="emit desirability rating prompts")
    p.add_argument("--pool", required=True)
    p.add_argument("--raters", required=True, help="comma-separated rater ids")
    p.add_argument("--replications", type=_at_least(1), default=30)
    p.add_argument("--block-size", type=_at_least(1), default=25)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--out", required=True)
    p.set_defaults(func=cmd_rate_plan)

    p = sub.add_parser("aggregate", help="aggregate ratings into item desirability")
    p.add_argument("--ratings", required=True)
    p.add_argument("--pool", required=True)
    p.add_argument("--out", required=True)
    p.add_argument("--stats", help="optional agreement statistics JSON output")
    p.add_argument("--seed", type=_at_least(0), default=0)
    p.set_defaults(func=cmd_aggregate)

    p = sub.add_parser("assemble", help="assemble a desirability-matched inventory")
    p.add_argument("--pool", required=True)
    p.add_argument("--ratings")
    size = p.add_mutually_exclusive_group()
    size.add_argument("--config", help="assembly constraint JSON")
    # no default: argparse would take "--blocks 30" given with --config for the default
    size.add_argument("--blocks", type=int, help="standard constraints for this many blocks "
                      "(default 30)")
    p.add_argument("--out", required=True)
    p.set_defaults(func=cmd_assemble)

    p = sub.add_parser("personas", help="sample ground-truth personas")
    p.add_argument("--n", type=_at_least(1), required=True)
    p.add_argument("--seed", type=_at_least(0), default=0)
    p.add_argument("--covariance", help="5x5 covariance JSON override")
    p.add_argument("--lexicon", help="lexicon JSON override")
    p.add_argument("--out", required=True)
    p.set_defaults(func=cmd_personas)

    p = sub.add_parser("administer", help="run questionnaire sessions")
    p.add_argument("--inventory", required=True)
    p.add_argument("--pool", required=True)
    p.add_argument("--personas", required=True)
    p.add_argument("--format", required=True, choices=["likert", "gfc"])
    p.add_argument("--condition", required=True, choices=list(CONDITIONS))
    p.add_argument("--provider", default="sim", choices=["sim", "http"])
    p.add_argument("--seed", type=_at_least(0), default=0)
    p.add_argument("--delta", type=_at_least(0, float), default=1.0,
                   help="simulator fake-good shift")
    p.add_argument("--params", help="simulator parameter JSON")
    p.add_argument("--base-url")
    p.add_argument("--model")
    p.add_argument("--token-env", default="SDRKIT_API_TOKEN")
    p.add_argument("--out", required=True, help="output directory")
    p.set_defaults(func=cmd_administer)

    p = sub.add_parser("fit", help="fit the scoring model")
    p.add_argument("--format", required=True, choices=["likert", "gfc"])
    p.add_argument("--responses", required=True, help="response CSV file or directory")
    p.add_argument("--inventory", required=True)
    p.add_argument("--pool", required=True)
    p.add_argument("--backend", default="map", choices=["map", "hmc"])
    p.add_argument("--seed", type=_at_least(0), default=0)
    p.add_argument("--starts", type=_at_least(1), default=4)
    p.add_argument("--chains", type=_at_least(1), default=4)
    p.add_argument("--warmup", type=_at_least(0), default=200)
    p.add_argument("--samples", type=_at_least(1), default=500)
    p.add_argument("--out", required=True)
    p.set_defaults(func=cmd_fit)

    p = sub.add_parser("report", help="effect tables, zones, and SVG plots")
    p.add_argument("--fit-likert")
    p.add_argument("--fit-gfc")
    p.add_argument("--personas", required=True)
    p.add_argument("--out", required=True, help="output directory")
    p.set_defaults(func=cmd_report)

    p = sub.add_parser("pipeline", help="run the end-to-end pipeline")
    p.add_argument("--config", required=True, help="pipeline JSON config")
    p.set_defaults(func=cmd_pipeline)

    p = sub.add_parser("lint", help="check manifest/artifact consistency")
    p.add_argument("--run-dir", required=True, type=Path)
    p.set_defaults(func=cmd_lint)

    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except (ConfigError, FieldError) as exc:  # file readers wrap theirs: this is a flag's
        print(f"config error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except DiagnosticsError as exc:
        print(f"diagnostics failure: {exc}", file=sys.stderr)
        return EXIT_DIAGNOSTICS
    except (SdrkitError, OSError) as exc:  # an OSError names the path it could not use
        print(f"stage failure: {exc}", file=sys.stderr)
        return EXIT_STAGE


if __name__ == "__main__":
    sys.exit(main())
