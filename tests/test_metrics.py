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


@pytest.mark.parametrize("modules, absent", [
    ("sdrkit.metrics, sdrkit.report", ("sdrkit.simulate",)),
    ("sdrkit.irt", ("requests", "sdrkit.administer")),  # the scorer needs no HTTP client
], ids=["metrics-report", "irt"])
def test_importing_a_layer_leaves_out_what_it_does_not_use(modules, absent):
    src = str(Path(__file__).resolve().parents[1] / "src")
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    env = {**os.environ, "PYTHONPATH": path}
    code = f"import sys, {modules}; print([m for m in {absent!r} if m in sys.modules])"
    out = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True,
                         text=True, check=True)
    assert out.stdout.strip() == "[]"


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
