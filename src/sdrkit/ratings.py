"""Aggregation of rater desirability judgments and agreement statistics."""

from __future__ import annotations

from dataclasses import dataclass
from pathlib import Path
from typing import Mapping

import numpy as np

from .core import (
    SdrkitError,
    UndefinedStatisticError,
    cell,
    naming,
    read_count,
    read_csv_rows,
    read_text,
)
from .metrics import pearson_r


class RatingError(SdrkitError):
    pass


@dataclass(frozen=True)
class RatingDataset:
    """Ragged (item, rater, replication) -> rating in {1..9}."""

    values: Mapping[tuple[str, str, int], int]

    def __post_init__(self) -> None:
        if not self.values:
            raise RatingError("empty rating dataset")
        with naming("", RatingError):
            for key, v in self.values.items():
                read_count(v, f"rating {key}", 1, 9)

    @property
    def items(self) -> list[str]:
        return sorted({k[0] for k in self.values})

    @property
    def raters(self) -> list[str]:
        return sorted({k[1] for k in self.values})

    def replications(self, rater: str) -> list[int]:
        return sorted({k[2] for k in self.values if k[1] == rater})

    def matrix(self, rater: str) -> tuple[np.ndarray, list[str], int]:
        """Complete items x replications matrix for one rater.

        Items with any missing replication are dropped (ANOVA needs a complete
        matrix). Returns (matrix, item_ids_used, n_items_dropped).
        """
        reps = self.replications(rater)
        used, rows = [], []
        dropped = 0
        for item in self.items:
            row = [self.values.get((item, rater, r)) for r in reps]
            if any(v is None for v in row):
                if any(v is not None for v in row):
                    dropped += 1
                continue
            used.append(item)
            rows.append(row)
        if not rows:
            raise RatingError(f"no complete items for rater {rater!r}")
        return np.asarray(rows, dtype=float), used, dropped


@dataclass(frozen=True)
class DesirabilityTable:
    scores: Mapping[str, float]  # item id -> mean rating
    counts: Mapping[str, int]  # item id -> number of contributing ratings


@dataclass(frozen=True)
class AgreementStats:
    icc_a1: float
    icc_ak: float
    mean_pairwise_r: float
    split_half_r: float
    split_half_interval: tuple[float, float]
    k: int  # replications used
    n_items: int
    n_items_dropped: int


def aggregate_ratings(ds: RatingDataset) -> DesirabilityTable:
    """Per-item mean over all raters and replications; missing cells skipped."""
    sums: dict[str, float] = {}
    counts: dict[str, int] = {}
    for (item, _rater, _rep), v in ds.values.items():
        sums[item] = sums.get(item, 0.0) + v
        counts[item] = counts.get(item, 0) + 1
    return DesirabilityTable(
        scores={it: sums[it] / counts[it] for it in sums}, counts=counts
    )


def _anova_mean_squares(x: np.ndarray) -> tuple[float, float, float]:
    """Two-way (rows x columns) ANOVA mean squares for a complete matrix."""
    n, k = x.shape
    if n < 2 or k < 2:
        raise RatingError("need at least 2 rows and 2 columns for two-way ANOVA")
    grand = x.mean()
    row_means = x.mean(axis=1)
    col_means = x.mean(axis=0)
    msr = k * np.sum((row_means - grand) ** 2) / (n - 1)
    msc = n * np.sum((col_means - grand) ** 2) / (k - 1)
    resid = x - row_means[:, None] - col_means[None, :] + grand
    mse = np.sum(resid**2) / ((n - 1) * (k - 1))
    return msr, msc, mse


def icc_absolute_agreement(x: np.ndarray) -> tuple[float, float]:
    """ICC(A,1) and ICC(A,k) under the two-way random-effects model.

    Rows are targets (items), columns are raters/replications. Raises
    :class:`UndefinedStatisticError` when there is no between-item variance.
    """
    n, k = x.shape
    msr, msc, mse = _anova_mean_squares(x)
    if np.var(x.mean(axis=1)) <= 0:
        raise UndefinedStatisticError("ICC undefined: zero variance across items")
    icc_a1 = (msr - mse) / (msr + (k - 1) * mse + (k / n) * (msc - mse))
    icc_ak = (msr - mse) / (msr + (msc - mse) / n)
    return float(icc_a1), float(icc_ak)


def agreement_stats(
    ds: RatingDataset, rater: str, splits: int = 2000, rng_seed: int = 0
) -> AgreementStats:
    """Within-rater consistency across replications, treating items as targets.

    ICC(A,1)/ICC(A,k) come from the two-way ANOVA mean squares; the pairwise
    statistic is the mean off-diagonal Pearson r among replication columns;
    split-half reliability averages ``splits`` random half-splits of the
    replications, correlating the two half-mean vectors across items
    (2.5/97.5 percentile interval reported). Deterministic under ``rng_seed``.
    """
    x, used, dropped = ds.matrix(rater)
    n, k = x.shape
    if k < 2:
        raise RatingError(f"rater {rater!r} has fewer than 2 replications")
    icc_a1, icc_ak = icc_absolute_agreement(x)

    pair_rs = []
    for a in range(k):
        for b in range(a + 1, k):
            pair_rs.append(pearson_r(x[:, a], x[:, b]))
    mean_pairwise = float(np.mean(pair_rs))

    rng = np.random.default_rng(rng_seed)
    half = k // 2
    split_rs = np.empty(splits)
    for s in range(splits):
        perm = rng.permutation(k)
        left = x[:, perm[:half]].mean(axis=1)
        right = x[:, perm[half:]].mean(axis=1)
        split_rs[s] = pearson_r(left, right)
    lo, hi = np.percentile(split_rs, [2.5, 97.5])

    return AgreementStats(
        icc_a1=icc_a1,
        icc_ak=icc_ak,
        mean_pairwise_r=mean_pairwise,
        split_half_r=float(split_rs.mean()),
        split_half_interval=(float(lo), float(hi)),
        k=k,
        n_items=n,
        n_items_dropped=dropped,
    )


# ---------------------------------------------------------------------------
# File I/O: one row per (item, rater, replication, value)
# ---------------------------------------------------------------------------

def _rating_row(fields: list[str], column: dict[str, int]) -> tuple[tuple[str, str, int], int]:
    key = (read_text(fields[column["item_id"]], "item_id"),
           read_text(fields[column["rater"]], "rater"),
           read_count(cell(fields[column["replication"]]), "replication"))
    return key, read_count(cell(fields[column["value"]]), "value", 1, 9)


def load_rating_dataset(path: str | Path) -> RatingDataset:
    values: dict[tuple[str, str, int], int] = {}
    for key, value in read_csv_rows(path, _rating_row, "rating row", RatingError):
        if key in values:
            raise RatingError(f"duplicate rating row: {key}")
        values[key] = value
    return RatingDataset(values)
