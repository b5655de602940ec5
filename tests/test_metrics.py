"""Effect sizes, recovery correlations, and usage-zone classification."""

import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from sdrkit.core import SdrkitError, TRAIT_LABELS
from sdrkit.metrics import (
    ShiftTable,
    UndefinedStatisticError,
    build_shift_table,
    cohens_dz,
    directed_dz,
    faking_zone,
    pearson_r,
    recovery_correlations,
    recovery_zone,
    summarize_effects,
)


HEAVY = ("scipy", "requests", "urllib3")  # loaded only by the code that calls them


def _run_python(*args) -> str:
    """Standard output of a fresh interpreter that finds sdrkit in ``src``."""
    src = str(Path(__file__).resolve().parents[1] / "src")
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    env = {**os.environ, "PYTHONPATH": path}
    return subprocess.run([sys.executable, *args], env=env, capture_output=True, text=True,
                          check=True).stdout


def _loaded(names) -> str:
    """Python code that prints the loaded modules among ``names`` and their submodules."""
    return (f"print(sorted(m for m in sys.modules for n in {tuple(names)!r}"
            " if m == n or m.startswith(n + '.')))")


@pytest.mark.parametrize("modules, absent", [
    ("sdrkit.metrics, sdrkit.report", ("sdrkit.simulate",)),
    ("sdrkit.irt", ("sdrkit.administer", *HEAVY)),  # the scorer needs no HTTP client
    # each command loads scipy or requests only where it calls them, and
    # importlib.metadata nowhere
    ("sdrkit.cli", (*HEAVY, "importlib.metadata")),
], ids=["metrics-report", "irt", "cli"])
def test_importing_a_layer_leaves_out_what_it_does_not_use(modules, absent):
    assert _run_python("-c", f"import sys, {modules}; {_loaded(absent)}").strip() == "[]"


def test_the_code_digest_loads_no_importlib_metadata():
    """Every stage key hashes ``cli._code_digest()``, which reads numpy's
    version from ``numpy.__version__``: reading the installed package's
    metadata instead would load ``importlib.metadata`` and the ``email`` and
    ``calendar`` modules it pulls in on every pipeline run."""
    code = f"import sys, sdrkit.cli; sdrkit.cli._code_digest(); {_loaded(('importlib.metadata',))}"
    assert _run_python("-c", code).strip() == "[]"


def test_sdrkit_help_loads_neither_scipy_nor_requests():
    code = ("import runpy, sys\n"
            "sys.argv = ['sdrkit', '--help']\n"
            "try:\n    runpy.run_module('sdrkit', run_name='__main__')\n"
            "except SystemExit:\n    pass\n" + _loaded(HEAVY))
    out = _run_python("-c", code).splitlines()
    assert out[0].startswith("usage: sdrkit ") and out[-1] == "[]"


def test_hmc_fit_and_diagnostics_load_no_scipy():
    """Neither backend's fit loads scipy; a MAP fit is checked beside HMC's."""
    code = """
import sys
import numpy as np
sys.path.insert(0, {tests!r})
from conftest import small_instrument
from sdrkit import irt
from sdrkit.core import ResponseFormat

pool, inv = small_instrument()
y = np.random.default_rng(0).integers(1, 8, (3, 10))
units = tuple(("r", f"p{{i}}", "honest") for i in range(3))
data = irt.ModelData(irt.design_for(inv, pool, ResponseFormat.LIKERT), y, units)
{fit}
{loaded}
"""
    for fit in (
        "irt.diagnostics(irt.fit_hmc(data, irt.HmcOptions(chains=2, warmup=10, samples=8, seed=0)))",
        "irt.fit_map(data, irt.MapOptions(n_starts=2, seed=0))",
    ):
        run = code.format(tests=str(Path(__file__).resolve().parent), fit=fit,
                          loaded=_loaded(("scipy",)))
        assert _run_python("-c", run).strip() == "[]", fit


def test_a_fan_out_after_an_hmc_fit_pins_scipys_openblas_too():
    """sdrkit's fits load no scipy, so only numpy's OpenBLAS is mapped while
    their starts or chains fan out. A later fan-out, after the caller has
    loaded scipy's OpenBLAS, must still hold every OpenBLAS mapped by then to
    one thread, and give each its count back afterwards."""
    code = """
import sys
import numpy as np
sys.path.insert(0, {tests!r})
from conftest import small_instrument
from sdrkit import irt
from sdrkit.core import ResponseFormat

pool, inv = small_instrument()
y = np.random.default_rng(0).integers(1, 8, (3, 10))
units = tuple(("r", f"p{{i}}", "honest") for i in range(3))
data = irt.ModelData(irt.design_for(inv, pool, ResponseFormat.LIKERT), y, units)
irt.fit_hmc(data, irt.HmcOptions(chains=2, warmup=10, samples=8, seed=0))
with irt._one_blas_thread():  # what the chains' fan-out does on more than one CPU
    pass
import scipy.optimize
with open("/proc/self/maps", encoding="utf-8") as fh:
    print(len({{ln.split()[-1] for ln in fh if "openblas" in ln.lower()}}))
threads = [(get, set_) for _, _, get, set_ in irt._openblas_libraries()]
for _, set_ in threads:
    set_(2)  # more than one, whatever this host's CPU count
print([get() for get, _ in threads])
with irt._one_blas_thread():
    print([get() for get, _ in threads])
print([get() for get, _ in threads])
""".format(tests=str(Path(__file__).resolve().parent))
    mapped, before, inside, after = _run_python("-c", code).splitlines()
    assert int(mapped) >= 1
    assert inside == str([1] * int(mapped))
    assert after == before


def test_sdrkit_fit_with_hmc_loads_no_scipy(tmp_path):
    """``sdrkit fit`` loads no scipy, with ``--backend map`` as with ``hmc``."""
    from conftest import small_instrument
    from sdrkit.cli import main
    from sdrkit.core import write_inventory, write_item_pool

    pool, inv = small_instrument()
    write_item_pool(pool, tmp_path / "pool.csv")
    write_inventory(inv, tmp_path / "inventory.csv")
    files = ["--inventory", str(tmp_path / "inventory.csv"), "--pool", str(tmp_path / "pool.csv")]
    assert main(["personas", "--n", "3", "--seed", "1", "--out", str(tmp_path / "p.json")]) == 0
    assert main(["administer", *files, "--personas", str(tmp_path / "p.json"),
                 "--format", "likert", "--condition", "honest", "--out", str(tmp_path)]) == 0
    for backend in (["--backend", "hmc", "--chains", "2", "--warmup", "10", "--samples", "8"],
                    ["--backend", "map"]):
        out = tmp_path / f"fit_{backend[1]}.json"
        argv = ["sdrkit", "fit", "--format", "likert", "--responses", str(tmp_path), *files,
                *backend, "--out", str(out)]
        code = ("import runpy, sys\n"
                f"sys.argv = {argv!r}\n"
                "try:\n    runpy.run_module('sdrkit', run_name='__main__')\n"
                "except SystemExit:\n    pass\n" + _loaded(("scipy",)))
        assert _run_python("-c", code).splitlines()[-1] == "[]", backend
        assert out.is_file()


def test_cohens_dz_hand_example():
    # diffs (1, 2, 3): mean 2, sd 1 -> d_z = 2
    assert cohens_dz(np.array([1.0, 2.0, 3.0])) == pytest.approx(2.0)
    assert cohens_dz(np.array([-1.0, -2.0, -3.0])) == pytest.approx(-2.0)


def test_cohens_dz_scale_invariant():
    rng = np.random.default_rng(0)
    d = rng.normal(0.4, 1.0, 50)
    assert cohens_dz(3.7 * d) == pytest.approx(cohens_dz(d))


def test_cohens_dz_undefined_cases():
    with pytest.raises(UndefinedStatisticError):
        cohens_dz(np.array([1.0]))
    with pytest.raises(UndefinedStatisticError):
        cohens_dz(np.array([2.0, 2.0, 2.0]))  # zero variance


def make_table(honest, fake, n=None):
    honest, fake = np.asarray(honest, float), np.asarray(fake, float)
    ids = tuple(f"p{i}" for i in range(honest.shape[0]))
    return ShiftTable(persona_ids=ids, honest=honest, fake=fake)


def test_directed_dz_flips_neuroticism_only():
    rng = np.random.default_rng(1)
    honest = rng.standard_normal((30, 5))
    fake = honest + 1.0 + 0.1 * rng.standard_normal((30, 5))  # uniform +1 shift
    table = make_table(honest, fake)
    raw = np.array([cohens_dz(table.deltas[:, t]) for t in range(5)])
    tilde = directed_dz(table)
    assert np.allclose(tilde[[0, 1, 2, 4]], raw[[0, 1, 2, 4]])
    assert tilde[3] == pytest.approx(-raw[3])  # N flipped
    assert np.all(raw > 0) and tilde[3] < 0


def test_shift_table_validation_and_pairing():
    with pytest.raises(SdrkitError):
        ShiftTable(("p1",), np.zeros((2, 5)), np.zeros((2, 5)))
    frame = {
        ("m", "p1", "honest"): np.arange(5.0),
        ("m", "p1", "fake_good"): np.arange(5.0) + 1,
        ("m", "p2", "honest"): np.zeros(5),  # no fake twin -> dropped
    }
    table = build_shift_table(frame)
    assert table.persona_ids == ("p1",)
    assert np.allclose(table.deltas, 1.0)
    with pytest.raises(SdrkitError):
        build_shift_table({("m", "p1", "honest"): np.zeros(5)})


def test_recovery_correlations_identity_and_noise():
    rng = np.random.default_rng(2)
    z = rng.standard_normal((60, 5))
    assert np.allclose(recovery_correlations(z, z), 1.0)
    assert np.allclose(recovery_correlations(-z, z), -1.0)
    noisy = z + rng.standard_normal((60, 5))
    r = recovery_correlations(noisy, z)
    assert np.all(r > 0.4) and np.all(r < 0.95)  # attenuated but positive
    with pytest.raises(SdrkitError):
        recovery_correlations(z[:, :4], z[:, :4])


def test_pearson_oracle():
    x = np.array([1.0, 2.0, 3.0, 4.0])
    assert pearson_r(x, 2 * x + 1) == pytest.approx(1.0)
    assert pearson_r(x, -x) == pytest.approx(-1.0)
    with pytest.raises(UndefinedStatisticError):
        pearson_r(np.array([1.0, 2.0]), np.array([1.0, 2.0]))
    with pytest.raises(UndefinedStatisticError):
        pearson_r(x, np.full(4, 2.0))


@pytest.mark.parametrize(
    "d,zone",
    [(0.0, "recommended"), (0.2, "recommended"), (-0.2, "recommended"),
     (0.2001, "caution"), (0.5, "caution"), (-0.5, "caution"),
     (0.5001, "avoid"), (-3.0, "avoid")],
)
def test_faking_zone_boundaries(d, zone):
    assert faking_zone(d) == zone


@pytest.mark.parametrize(
    "r,zone",
    [(0.70, "strong"), (0.95, "strong"), (0.6999, "acceptable"),
     (0.50, "acceptable"), (0.4999, "insufficient"), (-0.2, "insufficient")],
)
def test_recovery_zone_boundaries(r, zone):
    assert recovery_zone(r) == zone


def test_summarize_effects_aggregation():
    rng = np.random.default_rng(3)
    z = rng.standard_normal((40, 5))
    honest = z + 0.3 * rng.standard_normal((40, 5))
    fake = honest + np.array([1.0, 1.0, 1.0, -1.0, 1.0]) * 0.8 \
        + 0.1 * rng.standard_normal((40, 5))
    table = make_table(honest, fake)
    summary = summarize_effects("likert", table, honest, z)
    assert set(summary.d_tilde) == set(TRAIT_LABELS)
    # the report's effects are the gated ones, exactly
    assert list(summary.d_tilde.values()) == directed_dz(table).tolist()
    assert list(summary.d_z.values()) == [cohens_dz(table.deltas[:, t]) for t in range(5)]
    assert summary.aggregate_d_tilde == pytest.approx(
        np.mean(list(summary.d_tilde.values()))
    )
    assert summary.aggregate_recovery == pytest.approx(
        np.mean(list(summary.recovery_r.values()))
    )
    # desirable-direction shift on every trait -> all direction-corrected
    # effects positive, overall zone 'avoid' at this magnitude
    assert all(v > 0 for v in summary.d_tilde.values())
    assert summary.overall_faking_zone == "avoid"
    assert summary.overall_recovery_zone == "strong"
    assert summary.faking_zones == {
        t: faking_zone(v) for t, v in summary.d_tilde.items()
    }
