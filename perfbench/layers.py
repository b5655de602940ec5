"""Per-layer metrics from traced iterations.

``install`` wraps the names each layer is entered through; ``iteration_metrics``
turns the spans of one iteration into scalar metrics plus per-call samples
for the percentile metrics.  A layer that an iteration does not enter reads 0.
"""

from __future__ import annotations

from collections import defaultdict

import numpy as np

from sdrkit import assemble as asm
from sdrkit import cli, irt, simulate

from spans import Tracer

# names looked up by sdrkit.cli; the span takes the same name
CLI_IO = (
    "load_item_pool", "load_inventory", "load_response_sets", "write_response_sets",
    "load_persona_set", "write_persona_set", "load_sim_params", "write_sim_params",
    "write_fit_artifact", "load_fit_artifact", "_sha256",
)
CLI_REPORT = (
    "_summaries_from_fits", "fit_theta_frame", "build_shift_table", "summarize_effects",
    "write_effect_table", "write_tradeoff_table", "write_report_bundle", "emit_plots",
)
CLI_OTHER = (
    "run_session", "make_session_plans", "fit_map", "fit_hmc", "build_model_data",
    "sample_personas", "default_sim_params",
)
# pipeline stages, by the calls cmd_pipeline makes directly
STAGES = {
    "personas": ("sample_personas", "write_persona_set", "load_persona_set"),
    "administer": (
        "default_sim_params", "write_sim_params", "load_sim_params",
        "make_session_plans", "run_session", "write_response_sets",
    ),
    "fit": (
        "load_response_sets", "build_model_data", "fit_map", "fit_hmc",
        "diagnostics", "write_fit_artifact",
    ),
    "report": (
        "_summaries_from_fits", "write_effect_table", "write_tradeoff_table",
        "write_report_bundle", "emit_plots",
    ),
}
GRAD = "log_posterior_and_grad"
KERNEL = "log_prob_and_grads"
PERCENTILE_SAMPLES = (
    "irt.grad_us.likert", "irt.grad_us.gfc", "simulate.unit_us", "administer.session_ms",
)


def _nbytes(args, kwargs, result) -> int:
    # computed from array shapes: three (N, J) inputs and three outputs
    return sum(a.nbytes for a in args[:3]) + sum(r.nbytes for r in result)


# what each wrapped name keeps from its call: observe(args, kwargs, result)
OBSERVE = {
    "run_session": lambda a, k, r: (
        len(r.plan.units) if r.complete else 0, r.refit_count, r.transport_retries, r.complete
    ),
    "fit_map": lambda a, k, r: (a[0].design.model, r.converged),
    "fit_hmc": lambda a, k, r: (r.accept_rate, r.divergences),
    "diagnostics": lambda a, k, r: (
        float(r["ess"].min()), float(np.mean(r["rhat"] < cli.RHAT_GATE))
    ),
    GRAD: lambda a, k, r: a[0].design.model,
    KERNEL: _nbytes,
    "solve_stage1": lambda a, k, r: len(a[0]),
    "solve_stage2": lambda a, k, r: r.proof == "optimal",
    "search": lambda a, k, r: a[0].nodes,  # the _Search instance's node count
}


def install(tracer: Tracer) -> None:
    for name in CLI_IO + CLI_REPORT + CLI_OTHER:
        tracer.wrap(cli, name, name, OBSERVE.get(name))
    for name in ("cmd_pipeline", "cmd_administer"):
        tracer.wrap(cli, name, "cli")
    tracer.wrap(cli, "hmc_diagnostics", "diagnostics", OBSERVE["diagnostics"])
    for name in ("diagnostics", "fit_hmc", GRAD, KERNEL):
        tracer.wrap(irt, name, name, OBSERVE[name])
    tracer.wrap(simulate.SimulatorProvider, "complete", "simulate.complete")
    for name in ("solve_stage1", "solve_stage2"):
        tracer.wrap(asm, name, name, OBSERVE[name])
    tracer.wrap(asm._Search, "search", "search", OBSERVE["search"])


def iteration_metrics(tracer: Tracer) -> tuple[dict[str, float], dict[str, list[float]]]:
    spans = tracer.spans
    by: dict[str, list] = defaultdict(list)
    for s in spans:
        by[s.name].append(s)

    def total(*names: str) -> float:
        return sum(s.duration for n in names for s in by[n])

    def self_time(*names: str) -> float:
        return sum(s.self_s for n in names for s in by[n])

    m: dict[str, float] = {}
    samples: dict[str, list[float]] = {k: [] for k in PERCENTILE_SAMPLES}

    # ordinal kernel and posterior
    grads, kernels = by[GRAD], by[KERNEL]
    grad_s = total(GRAD)
    in_grad = sum(s.duration for s in kernels if s.parent >= 0 and spans[s.parent].name == GRAD)
    m["ordinal.calls"] = len(kernels)
    m["ordinal.self_s"] = self_time(KERNEL)
    m["ordinal.share_of_grad"] = in_grad / grad_s if grad_s else 0.0
    m["ordinal.bytes_per_call"] = float(np.median([s.info for s in kernels])) if kernels else 0.0
    m["irt.grad_evals"] = len(grads)
    m["irt.grad_s"] = grad_s
    for s in grads:
        fmt = "likert" if s.info == "grm" else "gfc"
        samples[f"irt.grad_us.{fmt}"].append(s.duration * 1e6)
    m["irt.build_model_data_s"] = total("build_model_data")

    # MAP
    fits = frozenset({"fit_map", "fit_hmc"})
    map_evals = {"likert": 0, "gfc": 0}
    hmc_evals = 0
    for s in grads:
        owner = tracer.ancestor(s, fits)
        if owner is None:
            continue
        if owner.name == "fit_map":
            map_evals["likert" if owner.info[0] == "grm" else "gfc"] += 1
        else:
            hmc_evals += 1
    for fmt, model in (("likert", "grm"), ("gfc", "gfc")):
        m[f"irt.map_s.{fmt}"] = sum(s.duration for s in by["fit_map"] if s.info[0] == model)
        m[f"irt.map_grad_evals.{fmt}"] = map_evals[fmt]
    m["irt.map_converged"] = (
        float(np.mean([s.info[1] for s in by["fit_map"]])) if by["fit_map"] else 0.0
    )

    # HMC
    hmc_s = total("fit_hmc")
    diag_s = total("diagnostics")
    diags = by["diagnostics"]
    m["irt.hmc_grad_evals"] = hmc_evals
    m["irt.hmc_grad_evals_per_s"] = hmc_evals / hmc_s if hmc_s else 0.0
    m["irt.hmc_min_ess"] = min(s.info[0] for s in diags) if diags else 0.0
    m["irt.hmc_ess_per_s"] = m["irt.hmc_min_ess"] / (hmc_s + diag_s) if hmc_s else 0.0
    m["irt.hmc_rhat_share"] = min(s.info[1] for s in diags) if diags else 0.0
    m["irt.hmc_accept_rate"] = (
        float(np.mean([s.info[0] for s in by["fit_hmc"]])) if by["fit_hmc"] else 0.0
    )
    m["irt.hmc_divergences"] = sum(s.info[1] for s in by["fit_hmc"])
    m["irt.hmc_sampler_self_s"] = self_time("fit_hmc")
    m["irt.diagnostics_s"] = diag_s

    # simulator provider
    sims = by["simulate.complete"]
    m["simulate.calls"] = len(sims)
    m["simulate.self_s"] = self_time("simulate.complete")
    samples["simulate.unit_us"] = [s.duration * 1e6 for s in sims]

    # session loop
    sessions = by["run_session"]
    m["administer.sessions"] = len(sessions)
    m["administer.units"] = sum(s.info[0] for s in sessions)
    samples["administer.session_ms"] = [s.duration * 1e3 for s in sessions]
    m["administer.loop_self_s"] = self_time("run_session")
    m["administer.plan_s"] = total("make_session_plans")
    m["administer.refits"] = sum(s.info[1] for s in sessions)
    m["administer.transport_retries"] = sum(s.info[2] for s in sessions)
    m["administer.failed_sessions"] = sum(not s.info[3] for s in sessions)

    # personas, I/O and hashing, report
    m["personas.sample_s"] = total("sample_personas")
    m["core.io_s"] = self_time(*CLI_IO)
    m["report.s"] = self_time(*CLI_REPORT)

    # cli stages: the calls the command makes directly
    commands = {i for i, s in enumerate(spans) if s.name == "cli"}
    stage_of = {n: stage for stage, names in STAGES.items() for n in names}
    stage_s = dict.fromkeys(STAGES, 0.0)
    for s in spans:
        if s.parent in commands and s.name in stage_of:
            stage_s[stage_of[s.name]] += s.duration
    for stage, v in stage_s.items():
        m[f"cli.stage_s.{stage}"] = v
    m["cli.self_s"] = self_time("cli")

    # assembly
    m["assemble.candidates"] = sum(s.info for s in by["solve_stage1"])
    m["assemble.nodes"] = sum(s.info for s in by["search"])
    m["assemble.stage1_s"] = total("solve_stage1")
    m["assemble.stage2_s"] = total("solve_stage2")
    m["assemble.optimal_instances"] = sum(bool(s.info) for s in by["solve_stage2"])
    return m, samples
