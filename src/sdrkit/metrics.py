"""Socially desirable responding metrics: paired effect sizes, ground-truth
recovery, and usage-zone classification."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .core import DESIRABLE_SIGNS, SdrkitError, TRAIT_LABELS, UndefinedStatisticError


@dataclass(frozen=True)
class ShiftTable:
    """Paired honest/fake trait estimates for one format.

    Rows are personas (in ``persona_ids`` order); columns are traits in
    (A, C, E, N, O) order.
    """

    persona_ids: tuple[str, ...]
    honest: np.ndarray  # (n, 5)
    fake: np.ndarray  # (n, 5)

    def __post_init__(self) -> None:
        if self.honest.shape != self.fake.shape or self.honest.shape != (
            len(self.persona_ids),
            5,
        ):
            raise SdrkitError("shift table shapes disagree")

    @property
    def deltas(self) -> np.ndarray:
        """Fake minus honest per persona and trait."""
        return self.fake - self.honest


def build_shift_table(
    theta_by_key: dict[tuple[str, str, str], np.ndarray],
) -> ShiftTable:
    """Pair one fit's per-unit estimates into honest/fake rows per persona.

    ``theta_by_key`` maps (respondent, persona, condition) to a trait vector
    of one respondent; a persona is included only when both conditions are
    present.
    """
    respondents = sorted({k[0] for k in theta_by_key})
    if len(respondents) > 1:  # rows are keyed by persona alone
        raise SdrkitError(f"a shift table pairs one respondent's estimates, got "
                          f"{len(respondents)}: {', '.join(map(repr, respondents))}")
    honest = {k[1]: v for k, v in theta_by_key.items() if k[2] == "honest"}
    fake = {k[1]: v for k, v in theta_by_key.items() if k[2] == "fake_good"}
    ids = tuple(sorted(set(honest) & set(fake)))
    if not ids:
        raise SdrkitError("no persona has both honest and fake-good estimates")
    return ShiftTable(
        persona_ids=ids,
        honest=np.array([honest[p] for p in ids]),
        fake=np.array([fake[p] for p in ids]),
    )


def cohens_dz(diffs: np.ndarray) -> float:
    """Paired-samples effect size: mean difference over its SD (n-1 df)."""
    diffs = np.asarray(diffs, dtype=float)
    if diffs.size < 2:
        raise UndefinedStatisticError("paired effect size needs at least 2 pairs")
    sd = diffs.std(ddof=1)
    if sd == 0.0:
        raise UndefinedStatisticError("zero variance in paired differences")
    return float(diffs.mean() / sd)


def directed_dz(table: ShiftTable) -> np.ndarray:
    """Direction-corrected d_z per trait: positive means movement toward the
    socially desirable pole (so the neuroticism sign is flipped)."""
    return np.array(
        [DESIRABLE_SIGNS[t] * cohens_dz(table.deltas[:, t]) for t in range(5)]
    )


def recovery_correlations(theta_hat: np.ndarray, z_true: np.ndarray) -> np.ndarray:
    """Per-trait Pearson correlation between estimates and ground truth."""
    theta_hat = np.asarray(theta_hat, dtype=float)
    z_true = np.asarray(z_true, dtype=float)
    if theta_hat.shape != z_true.shape:
        raise SdrkitError("estimate and ground-truth shapes disagree")
    if theta_hat.ndim != 2 or theta_hat.shape[1] != 5:
        raise SdrkitError("expected (n, 5) trait matrices")
    out = np.empty(5)
    for t in range(5):
        out[t] = pearson_r(theta_hat[:, t], z_true[:, t])
    return out


def pearson_r(x: np.ndarray, y: np.ndarray) -> float:
    x = np.asarray(x, dtype=float)
    y = np.asarray(y, dtype=float)
    if x.size < 3:
        raise UndefinedStatisticError("correlation needs at least 3 observations")
    if x.std() == 0.0 or y.std() == 0.0:
        raise UndefinedStatisticError("zero variance in correlation input")
    return float(np.corrcoef(x, y)[0, 1])


# ---------------------------------------------------------------------------
# Zone classification
# ---------------------------------------------------------------------------


def faking_zone(d_tilde: float) -> str:
    """Zone by magnitude of the direction-corrected effect: at most 0.2 is
    recommended, at most 0.5 is caution, larger is avoid."""
    mag = abs(d_tilde)
    if mag <= 0.2:
        return "recommended"
    if mag <= 0.5:
        return "caution"
    return "avoid"


def recovery_zone(r: float) -> str:
    """Zone by recovery correlation: at least 0.70 is strong, at least 0.50 is
    acceptable, smaller is insufficient."""
    if r >= 0.70:
        return "strong"
    if r >= 0.50:
        return "acceptable"
    return "insufficient"


@dataclass(frozen=True)
class EffectSummary:
    """Per-format faking and recovery summary."""

    format: str
    d_z: dict[str, float]  # raw paired effect per trait
    d_tilde: dict[str, float]  # direction-corrected effect per trait
    recovery_r: dict[str, float]  # honest-condition recovery per trait
    faking_zones: dict[str, str]
    recovery_zones: dict[str, str]
    aggregate_d_tilde: float  # unweighted mean over traits
    aggregate_recovery: float

    @property
    def overall_faking_zone(self) -> str:
        return faking_zone(self.aggregate_d_tilde)

    @property
    def overall_recovery_zone(self) -> str:
        return recovery_zone(self.aggregate_recovery)


def summarize_effects(
    fmt: str,
    table: ShiftTable,
    honest_theta: np.ndarray,
    z_true: np.ndarray,
) -> EffectSummary:
    tilde = directed_dz(table)
    raw = DESIRABLE_SIGNS * tilde  # the signs are +-1, so this undoes the flip exactly
    rec = recovery_correlations(honest_theta, z_true)
    return EffectSummary(
        format=fmt,
        d_z={t: float(v) for t, v in zip(TRAIT_LABELS, raw)},
        d_tilde={t: float(v) for t, v in zip(TRAIT_LABELS, tilde)},
        recovery_r={t: float(v) for t, v in zip(TRAIT_LABELS, rec)},
        faking_zones={t: faking_zone(v) for t, v in zip(TRAIT_LABELS, tilde)},
        recovery_zones={t: recovery_zone(v) for t, v in zip(TRAIT_LABELS, rec)},
        aggregate_d_tilde=float(tilde.mean()),
        aggregate_recovery=float(rec.mean()),
    )
