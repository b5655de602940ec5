"""Ground-truth persona sampling and natural-language persona rendering."""

from __future__ import annotations

import bisect
import json
import math
from dataclasses import dataclass
from importlib import resources
from pathlib import Path
from typing import Mapping, Sequence

import numpy as np

from .core import (
    FieldError, SdrkitError, TRAIT_LABELS, read_count, read_json, read_list, read_number,
    read_text,
)

#: Meta-analytic Big Five intercorrelations in (A, C, E, N, O) order.
_DEFAULT_SIGMA = (
    (1.00, 0.43, 0.26, -0.36, 0.21),
    (0.43, 1.00, 0.29, -0.43, 0.20),
    (0.26, 0.29, 1.00, -0.36, 0.43),
    (-0.36, -0.43, -0.36, 1.00, -0.17),
    (0.21, 0.20, 0.43, -0.17, 1.00),
)

#: Stanine cut points: every 0.5 SD from -1.75 to +1.75.
STANINE_CUTS = (-1.75, -1.25, -0.75, -0.25, 0.25, 0.75, 1.25, 1.75)

#: Trait order used in the rendered description block.
RENDER_ORDER = ("O", "C", "E", "A", "N")

PERSONA_HEADER = "YOU ARE THE RESPONDENT."
PERSONA_FOOTER = "Answer all questions AS THIS PERSON would."


class PersonaError(SdrkitError):
    pass


@dataclass(frozen=True)
class TraitCovariance:
    sigma: np.ndarray  # 5x5, trait order (A, C, E, N, O)

    def __post_init__(self) -> None:
        s = np.asarray(self.sigma, dtype=float)
        if s.shape != (5, 5):
            raise PersonaError("covariance must be 5x5")
        if not np.allclose(s, s.T, atol=1e-12):
            raise PersonaError("covariance must be symmetric")
        if not np.allclose(np.diag(s), 1.0, atol=1e-12):
            raise PersonaError("covariance must have unit diagonal")
        object.__setattr__(self, "sigma", s)
        self.cholesky()  # refuses a matrix that is not positive definite

    def cholesky(self) -> np.ndarray:
        try:
            return np.linalg.cholesky(self.sigma)
        except np.linalg.LinAlgError:
            raise PersonaError("covariance is not positive definite") from None


def default_covariance() -> TraitCovariance:
    return TraitCovariance(np.array(_DEFAULT_SIGMA))


@dataclass(frozen=True)
class Lexicon:
    """Per-(trait, polarity) adjective lists and per-stanine intensity terms."""

    adjectives: Mapping[str, Mapping[str, tuple[str, ...]]]  # trait -> high/low
    intensity: Mapping[int, str]  # stanine -> modifier ("" allowed)

    def __post_init__(self) -> None:
        for trait in TRAIT_LABELS:
            for side in ("high", "low"):
                if not self.adjectives.get(trait, {}).get(side):
                    raise PersonaError(f"lexicon missing entries for ({trait}, {side})")
        for s in range(1, 10):
            if s not in self.intensity:
                raise PersonaError(f"lexicon missing intensity term for stanine {s}")

    @classmethod
    def from_file(cls, path: str | Path, error: type[SdrkitError] = PersonaError) -> "Lexicon":
        return read_json(path, cls._from_raw, "lexicon", error)

    @classmethod
    def default(cls) -> "Lexicon":
        return cls.from_file(Path(str(resources.files("sdrkit.data").joinpath("lexicon.json"))))

    @classmethod
    def _from_raw(cls, raw: dict) -> "Lexicon":
        traits, terms = raw["traits"], raw["intensity"]
        adjectives = {
            t: {side: tuple(read_list(traits[t][side], f"traits.{t}.{side}", read_text))
                for side in ("high", "low")}
            for t in TRAIT_LABELS
        }
        intensity = {s: read_text(terms[str(s)], f"intensity.{s}", empty=True)
                     for s in range(1, 10)}
        return cls(adjectives=adjectives, intensity=intensity)


@dataclass(frozen=True)
class Persona:
    id: str
    z: tuple[float, ...]  # ground-truth trait vector, (A, C, E, N, O)
    stanines: tuple[int, ...]
    description: str


@dataclass(frozen=True)
class PersonaSet:
    personas: tuple[Persona, ...]
    seed: int

    def __iter__(self):
        return iter(self.personas)

    def __len__(self) -> int:
        return len(self.personas)

    def z_matrix(self) -> np.ndarray:
        return np.array([p.z for p in self.personas])

    def by_id(self) -> dict[str, Persona]:
        return {p.id: p for p in self.personas}


def z_to_stanine(z: float) -> int:
    """Map a standard score to its stanine (1..9) with cuts every 0.5 SD."""
    if not math.isfinite(z):
        raise PersonaError(f"non-finite trait score: {z}")
    return 1 + bisect.bisect_left(STANINE_CUTS, z)  # one more than the cuts below z


def render_persona(z: Sequence[float], lexicon: Lexicon) -> str:
    """Render the persona description block for a trait vector in (A,C,E,N,O) order."""
    by_trait = dict(zip(TRAIT_LABELS, z))
    sentences = []
    for trait in RENDER_ORDER:
        stanine = z_to_stanine(by_trait[trait])
        side = "high" if stanine >= 5 else "low"
        words = ", ".join(lexicon.adjectives[trait][side])
        modifier = lexicon.intensity[stanine]
        lead = f"You are {modifier} " if modifier else "You are "
        sentences.append(f"{lead}{words}.")
    body = "\n".join(sentences)
    return f"{PERSONA_HEADER}\n\n{body}\n\n{PERSONA_FOOTER}"


def sample_personas(
    n: int,
    cov: TraitCovariance | None = None,
    seed: int = 0,
    lexicon: Lexicon | None = None,
) -> PersonaSet:
    """Draw ``n`` i.i.d. trait vectors from N(0, Sigma) and render descriptions.

    Each persona gets its own RNG stream spawned from ``(seed, index)`` so
    parallel generation would match serial generation bit for bit.
    """
    if n < 1:
        raise PersonaError("need at least one persona")
    cov = cov or default_covariance()
    lexicon = lexicon or Lexicon.default()
    chol = cov.cholesky()
    root = np.random.SeedSequence(seed)
    streams = root.spawn(n)
    personas = []
    for i, ss in enumerate(streams):
        rng = np.random.default_rng(ss)
        z = chol @ rng.standard_normal(5)
        stanines = tuple(z_to_stanine(v) for v in z)
        personas.append(
            Persona(
                id=f"p{i + 1:03d}",
                z=tuple(float(v) for v in z),
                stanines=stanines,
                description=render_persona(z, lexicon),
            )
        )
    return PersonaSet(tuple(personas), seed=seed)


def write_persona_set(ps: PersonaSet, path: str | Path) -> None:
    payload = {
        "seed": ps.seed,
        "trait_order": list(TRAIT_LABELS),
        "personas": [
            {
                "id": p.id,
                "z": list(p.z),
                "stanines": list(p.stanines),
                "description": p.description,
            }
            for p in ps.personas
        ],
    }
    Path(path).write_text(json.dumps(payload, indent=2), encoding="utf-8")


def _persona(p: dict) -> Persona:
    pid = read_text(p["id"], "persona id")
    where = f"persona {pid!r}: "
    z = tuple(read_list(p["z"], where + "z", read_number, 5))
    stanines = tuple(read_list(p["stanines"], where + "stanines", read_count, 5, low=1, high=9))
    expected = tuple(z_to_stanine(v) for v in z)
    if stanines != expected:  # the description, rendered from the stanines, would not be z's
        raise FieldError(f"{where}stanines {list(stanines)} do not match z's {list(expected)}")
    description = read_text(p["description"], where + "description")
    return Persona(id=pid, z=z, stanines=stanines, description=description)


def _persona_set(raw: dict) -> PersonaSet:
    personas = tuple(_persona(p) for p in read_list(raw["personas"], "personas"))
    seen = set()
    for p in personas:  # a repeated id's sessions would be answered from two trait vectors
        if p.id in seen:
            raise FieldError(f"persona id {p.id!r} is given twice")
        seen.add(p.id)
    return PersonaSet(personas, seed=read_count(raw.get("seed", 0), "seed"))


def load_persona_set(path: str | Path) -> PersonaSet:
    return read_json(path, _persona_set, "persona set", PersonaError)
