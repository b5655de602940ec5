"""Persona sampling, stanine mapping, and description rendering."""

import json

import numpy as np
import pytest

from sdrkit.personas import (
    Lexicon,
    PersonaError,
    TraitCovariance,
    default_covariance,
    load_persona_set,
    render_persona,
    sample_personas,
    write_persona_set,
    z_to_stanine,
)


@pytest.mark.parametrize(
    "z,stanine",
    [
        (-5.0, 1),
        (-1.76, 1),
        (-1.74, 2),
        (-0.26, 4),
        (0.0, 5),
        (0.24, 5),
        (0.26, 6),
        (1.74, 8),
        (1.76, 9),
        (5.0, 9),
    ],
)
def test_stanine_cut_points(z, stanine):
    assert z_to_stanine(z) == stanine


def test_stanine_rejects_non_finite():
    with pytest.raises(PersonaError):
        z_to_stanine(float("nan"))


def test_stanine_monotone():
    zs = np.linspace(-4, 4, 2001)
    stanines = [z_to_stanine(z) for z in zs]
    assert stanines == sorted(stanines)
    assert set(stanines) == set(range(1, 10))


def test_covariance_validation():
    with pytest.raises(PersonaError):
        TraitCovariance(np.eye(4))
    bad = np.eye(5)
    bad[0, 1] = 0.5  # asymmetric
    with pytest.raises(PersonaError):
        TraitCovariance(bad)
    bad2 = np.eye(5) * 2.0  # non-unit diagonal
    with pytest.raises(PersonaError):
        TraitCovariance(bad2)
    sigma = default_covariance()
    chol = sigma.cholesky()
    assert np.allclose(chol @ chol.T, sigma.sigma)


def test_default_covariance_neuroticism_negative():
    s = default_covariance().sigma
    # N (index 3) correlates negatively with every other trait
    for t in (0, 1, 2, 4):
        assert s[3, t] < 0


def test_sampling_deterministic_and_stable_under_extension():
    a = sample_personas(5, seed=42)
    b = sample_personas(5, seed=42)
    assert a == b
    # spawned per-persona streams: the first 5 of a longer run are identical
    c = sample_personas(8, seed=42)
    assert c.personas[:5] == a.personas


def test_sample_moments_match_covariance():
    ps = sample_personas(4000, seed=0)
    z = ps.z_matrix()
    emp = np.corrcoef(z.T)
    assert np.max(np.abs(emp - default_covariance().sigma)) < 0.06
    assert np.max(np.abs(z.mean(axis=0))) < 0.06
    assert np.max(np.abs(z.std(axis=0) - 1.0)) < 0.06


def test_render_persona_structure():
    lex = Lexicon.default()
    desc = render_persona([0.0, 0.0, 0.0, 0.0, 0.0], lex)
    lines = desc.split("\n")
    assert lines[0] == "YOU ARE THE RESPONDENT."
    assert lines[1] == "" and lines[-2] == ""
    assert lines[-1] == "Answer all questions AS THIS PERSON would."
    body = lines[2:-2]
    assert len(body) == 5  # one sentence per trait, O C E A N order
    assert all(s.startswith("You are ") and s.endswith(".") for s in body)


def test_render_uses_polarity_and_intensity():
    lex = Lexicon.default()
    high_o = render_persona([0.0, 0.0, 0.0, 0.0, 2.0], lex).split("\n")[2]
    low_o = render_persona([0.0, 0.0, 0.0, 0.0, -2.0], lex).split("\n")[2]
    assert high_o != low_o
    mild = render_persona([0.0, 0.0, 0.0, 0.0, 0.3], lex).split("\n")[2]
    extreme = render_persona([0.0, 0.0, 0.0, 0.0, 3.0], lex).split("\n")[2]
    assert mild != extreme  # stanine 6 vs 9 pick different intensity phrasing


def test_lexicon_validation():
    with pytest.raises(PersonaError):
        Lexicon(adjectives={}, intensity={s: "" for s in range(1, 10)})
    good = Lexicon.default()
    assert set(good.intensity) >= set(range(1, 10))


def test_persona_set_round_trip(tmp_path):
    ps = sample_personas(3, seed=7)
    f = tmp_path / "personas.json"
    write_persona_set(ps, f)
    back = load_persona_set(f)
    assert back == ps


@pytest.mark.parametrize("field, value", [("z", "high"), ("z", [0.5]), ("stanines", [5, 5])])
def test_persona_set_rejects_a_field_that_is_not_five_numbers(tmp_path, field, value):
    f = tmp_path / "personas.json"
    write_persona_set(sample_personas(2, seed=7), f)
    raw = json.loads(f.read_text())
    raw["personas"][1][field] = value
    f.write_text(json.dumps(raw))
    with pytest.raises(PersonaError) as exc:
        load_persona_set(f)
    assert str(exc.value) == (
        f"{f}: malformed persona set: persona 'p002': {field} must be a list of 5 values, "
        f"got {value!r}"
    )


@pytest.mark.parametrize("field, value, message", [
    ("z", [0.1, float("nan"), 0.3, 0.4, 0.5], "z[1] must be a finite number, got nan"),
    ("z", [0.1, 0.2, float("-inf"), 0.4, 0.5], "z[2] must be a finite number, got -inf"),
    ("z", [0.1, 10**400, 0.3, 0.4, 0.5], f"z[1] must be a finite number, got {10**400}"),
    ("stanines", [5, 5, 2**70, 5, 5], f"stanines[2] must be an integer in [1, 9], got {2**70}"),
    ("stanines", [5, 0, 5, 5, 5], "stanines[1] must be an integer in [1, 9], got 0"),
    ("stanines", [5, 5.0, 5, 5, 5], "stanines[1] must be an integer in [1, 9], got 5.0"),
], ids=["z-nan", "z-inf", "z-huge-int", "stanine-huge", "stanine-zero", "stanine-float"])
def test_persona_set_rejects_a_trait_value_out_of_range(tmp_path, field, value, message):
    f = tmp_path / "personas.json"
    write_persona_set(sample_personas(2, seed=7), f)
    raw = json.loads(f.read_text())
    raw["personas"][0][field] = value
    f.write_text(json.dumps(raw))
    with pytest.raises(PersonaError) as exc:
        load_persona_set(f)
    assert str(exc.value).startswith(f"{f}: malformed persona set: persona 'p001': {message}")


@pytest.mark.parametrize("seed", [True, -1, 1.5, "7", None])
def test_persona_set_rejects_a_seed_that_is_not_a_non_negative_integer(tmp_path, seed):
    f = tmp_path / "personas.json"
    write_persona_set(sample_personas(2, seed=7), f)
    raw = json.loads(f.read_text())
    raw["seed"] = seed
    f.write_text(json.dumps(raw))
    with pytest.raises(PersonaError) as exc:
        load_persona_set(f)
    assert str(exc.value) == (
        f"{f}: malformed persona set: seed must be an integer of at least 0, got {seed!r}"
    )


def test_descriptions_match_stanines():
    lex = Lexicon.default()
    for p in sample_personas(20, seed=3):
        assert p.description == render_persona(p.z, lex)
        assert p.stanines == tuple(z_to_stanine(v) for v in p.z)
