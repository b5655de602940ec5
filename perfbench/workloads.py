"""The benchmark's workloads.

Each workload generates its inputs from the benchmark seed in ``setup`` (the
timed set-up), runs one closed-loop operation in ``run`` (the timed
iteration, always into an empty output directory), and checks what the
operation produced in ``check`` (untimed).  ``fingerprint`` is a cheap
digest of an iteration's output; every iteration uses the same inputs, so it
must repeat exactly.

The workloads call sdrkit through module attributes (``cli.main``,
``irt.fit_hmc``, ``asm.assemble``) so that the tracer's patches are seen.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
from dataclasses import dataclass, field
from importlib import resources
from pathlib import Path

import numpy as np

from sdrkit import assemble as asm
from sdrkit import cli, irt
from sdrkit.core import (
    AssemblyConfig,
    InstructionCondition,
    ItemPool,
    ResponseFormat,
    load_inventory,
    load_item_pool,
    load_response_sets,
    validate_inventory,
)
from sdrkit.personas import load_persona_set, sample_personas, write_persona_set
from sdrkit.simulate import SimSpec, default_sim_params, load_sim_params, simulate_response_set

HERE = Path(__file__).resolve().parent
DATA = resources.files("sdrkit.data")
POOL = Path(str(DATA.joinpath("marker_inventory_pool.csv")))
INVENTORY = Path(str(DATA.joinpath("marker_inventory_blocks.csv")))
FORMATS = ("likert", "gfc")
CONDITIONS = ("honest", "fake_good")


@dataclass
class Outcome:
    """What the full check of one iteration found."""

    attempted: int
    failed: int
    errors: list[str] = field(default_factory=list)  # failed hard checks
    values: dict[str, float] = field(default_factory=dict)  # deterministic results


def _seeds(seed: int, n: int) -> list[int]:
    return [int(v) for v in np.random.SeedSequence(seed).generate_state(n)]


def _quiet_main(argv: list[str]) -> int:
    with contextlib.redirect_stdout(io.StringIO()):
        return cli.main(argv)


def _digest_files(paths) -> str:
    h = hashlib.sha256()
    for p in sorted(paths):
        h.update(p.name.encode())
        h.update(p.read_bytes())
    return h.hexdigest()


def _session_outcome(run_dir: Path, personas, inventory, params, spec, errors) -> Outcome:
    """Compare every session's answers with ``simulate_response_set`` for the
    same persona.  A session with any mismatched unit counts as failed."""
    sets = [
        rs for f in sorted(run_dir.glob("responses_*.csv")) for rs in load_response_sets(f)
    ]
    expected_sessions = len(personas) * len(FORMATS) * len(CONDITIONS)
    if len(sets) != expected_sessions:
        errors.append(f"{len(sets)} response sets, expected {expected_sessions}")
    by_id = personas.by_id()
    bad_units = bad_sessions = 0
    for rs in sets:
        expected = simulate_response_set(
            by_id[rs.persona_id], inventory, params, rs.format, rs.condition, spec
        ).answers
        wrong = 0
        for unit, answer in rs.answers.items():
            canonical = 8 - answer if rs.side_assignment.get(unit, False) else answer
            wrong += canonical != expected[unit]
        bad_units += wrong
        bad_sessions += wrong > 0
    return Outcome(len(sets), bad_sessions, errors, {"simulate.answer_mismatches": bad_units})


class StudyMap:
    """``sdrkit pipeline`` with the MAP backend and the simulator provider.

    The study's data are recorded: its persona, plan, simulator and parameter
    seeds come from ``STUDY_SEED``, and the benchmark seed sets the seed of
    MAP's random starts.  The number of gradient evaluations MAP needs varies
    by up to 40% between studies of this size, against 2% between fit seeds,
    and a run is too short to average over studies.
    """

    N_PERSONAS = 100
    STUDY_SEED = 0

    def __init__(self, seed: int, work: Path):
        self.seed = seed
        self.config = work / "pipeline.json"
        self.out = work / "run"

    def setup(self) -> None:
        load_item_pool(POOL)
        load_inventory(INVENTORY)
        data_seeds = _seeds(self.STUDY_SEED, 4)
        cfg = {
            "n_personas": self.N_PERSONAS,
            "backend": "map",
            "out_dir": str(self.out),
            "seeds": dict(zip(("personas", "plan", "sim", "params", "fit"),
                              data_seeds + [self.seed])),
        }
        self.config.write_text(json.dumps(cfg), encoding="utf-8")

    def run(self):
        return _quiet_main(["pipeline", "--config", str(self.config)])

    def fingerprint(self, rc):
        manifest = self.out / "manifest.json"
        if rc != 0 or not manifest.exists():
            return ("exit", rc)
        return json.loads(manifest.read_text("utf-8"))["artifacts"]

    def check(self, rc) -> Outcome:
        if rc != 0:
            return Outcome(1, 1, [f"pipeline exited {rc}"])
        errors = []
        lint = _quiet_main(["lint", "--run-dir", str(self.out)])
        if lint != 0:
            errors.append(f"lint exited {lint}")
        cfg = json.loads(self.config.read_text("utf-8"))
        outcome = _session_outcome(
            self.out / "runs",
            load_persona_set(self.out / "personas.json"),
            load_inventory(INVENTORY),
            load_sim_params(self.out / "sim_params.json"),
            SimSpec(fake_good_delta=1.0, seed=cfg["seeds"]["sim"]),
            errors,
        )
        report = json.loads((self.out / "reports" / "report.json").read_text("utf-8"))
        outcome.values["report.recovery_min"] = min(
            v for f in report["formats"] for v in f["recovery_r"].values()
        )
        return outcome


class AdministerSim:
    """``sdrkit administer --provider sim`` for every format x condition.

    The persona set is recorded: it is sampled from ``PERSONA_SEED``, and the
    benchmark seed sets the plan and simulator seed.  Which sessions the
    wrong-persona defect breaks depends only on the personas (24 of 600
    sessions for this set, whatever the plan seed), so the share of failed
    operations is the same in every run; with personas drawn from the
    benchmark seed it ranged from 0 to 32 of 600 sessions.
    """

    N_PERSONAS = 150
    PERSONA_SEED = 0

    def __init__(self, seed: int, work: Path):
        self.seed = seed
        self.personas = work / "personas.json"
        self.out = work / "run"

    def setup(self) -> None:
        load_item_pool(POOL)
        load_inventory(INVENTORY)
        persona_seed = _seeds(self.PERSONA_SEED, 1)[0]
        self.plan_seed = _seeds(self.seed, 2)[1]
        write_persona_set(sample_personas(self.N_PERSONAS, seed=persona_seed), self.personas)

    def run(self):
        return [
            _quiet_main([
                "administer", "--inventory", str(INVENTORY), "--pool", str(POOL),
                "--personas", str(self.personas), "--format", fmt, "--condition", cond,
                "--provider", "sim", "--seed", str(self.plan_seed), "--out", str(self.out),
            ])
            for fmt in FORMATS
            for cond in CONDITIONS
        ]

    def fingerprint(self, rcs):
        if any(rcs):
            return ("exit", tuple(rcs))
        return _digest_files(self.out.iterdir())

    def check(self, rcs) -> Outcome:
        if any(rcs):
            return Outcome(len(rcs), len(rcs), [f"administer exited {rcs}"])
        inventory = load_inventory(INVENTORY)
        params = default_sim_params(inventory, load_item_pool(POOL), seed=self.plan_seed)
        return _session_outcome(
            self.out,
            load_persona_set(self.personas),
            inventory,
            params,
            SimSpec(fake_good_delta=1.0, seed=self.plan_seed),
            [],
        )


class HmcLikert:
    """``fit_hmc`` + ``diagnostics`` on criterion-07-shaped Likert data
    (honest and fake-good units, 60 items), with shortened chains."""

    N_PERSONAS = 30
    CHAINS, WARMUP, SAMPLES, MAX_LEAPFROG = 4, 40, 20, 12

    def __init__(self, seed: int, work: Path):
        self.seed = seed

    def setup(self) -> None:
        pool = load_item_pool(POOL)
        inventory = load_inventory(INVENTORY)
        persona_seed, params_seed, sim_seed, fit_seed = _seeds(self.seed, 4)
        personas = sample_personas(self.N_PERSONAS, seed=persona_seed)
        params = default_sim_params(inventory, pool, seed=params_seed)
        spec = SimSpec(fake_good_delta=1.0, seed=sim_seed)
        sets = [
            simulate_response_set(p, inventory, params, ResponseFormat.LIKERT, cond, spec)
            for p in personas
            for cond in InstructionCondition
        ]
        self.data = irt.build_model_data(sets, inventory, pool, ResponseFormat.LIKERT)
        self.opts = irt.HmcOptions(
            chains=self.CHAINS, warmup=self.WARMUP, samples=self.SAMPLES,
            max_leapfrog=self.MAX_LEAPFROG, seed=fit_seed,
        )

    def run(self):
        try:
            post = irt.fit_hmc(self.data, self.opts)
            return post, irt.diagnostics(post)
        except irt.DiagnosticsError as exc:
            return exc

    def fingerprint(self, result):
        if isinstance(result, Exception):
            return ("error", str(result))
        post, diag = result
        h = hashlib.sha256(post.draws.tobytes())
        h.update(diag["rhat"].tobytes())
        h.update(diag["ess"].tobytes())
        return h.hexdigest()

    def check(self, result) -> Outcome:
        if isinstance(result, Exception):
            return Outcome(1, 1, [f"DiagnosticsError: {result}"])
        return Outcome(attempted=1, failed=0)


class AssembleExact:
    """Exact two-stage assembly over the recorded ``standard(10)`` instances
    in ``assemble_instances.json`` (see ``make_instances.py``)."""


    def __init__(self, seed: int, work: Path):
        self.seed = seed

    def setup(self) -> None:
        pool = load_item_pool(POOL)
        raw = json.loads((HERE / "assemble_instances.json").read_text("utf-8"))
        self.cfg = AssemblyConfig.standard(raw["block_count"])
        self.order = np.random.default_rng(self.seed).permutation(len(raw["instances"]))
        self.instances = [raw["instances"][i] for i in self.order]
        self.pools = [
            ItemPool(tuple(it for it in pool if it.id in set(inst["items"])))
            for inst in self.instances
        ]

    def run(self):
        return [asm.assemble(p, self.cfg) for p in self.pools]

    def fingerprint(self, sols):
        return [
            (s.m_star, s.sse, s.proof, [(b.left, b.right) for b in s.inventory.blocks])
            for s in sols
        ]

    def check(self, sols) -> Outcome:
        errors: list[str] = []
        failed = 0
        for k, (sol, inst, pool) in enumerate(zip(sols, self.instances, self.pools)):
            problems = []
            if sol.proof != "optimal":
                problems.append(f"proof {sol.proof}")
            report = validate_inventory(sol.inventory, pool, self.cfg)
            if not report.ok:
                problems.append(f"constraints failed {report.failed()}")
            if (sol.m_star, sol.sse) != (inst["m_star"], inst["sse"]):
                problems.append(
                    f"(m*, sse) = ({sol.m_star!r}, {sol.sse!r}), "
                    f"recorded ({inst['m_star']!r}, {inst['sse']!r})"
                )
            failed += bool(problems)
            errors += [f"recorded instance {self.order[k]}: {p}" for p in problems]
        return Outcome(attempted=len(sols), failed=failed, errors=errors)


WORKLOADS = {
    "study-map": StudyMap,
    "administer-sim": AdministerSim,
    "hmc-likert": HmcLikert,
    "assemble-exact": AssembleExact,
}
