"""Rating aggregation, intraclass correlations, and the ratings file."""

import numpy as np
import pytest

from sdrkit import metrics
from sdrkit.core import write_csv_rows
from sdrkit.ratings import (
    AgreementStats,
    RatingDataset,
    RatingError,
    UndefinedStatisticError,
    agreement_stats,
    aggregate_ratings,
    icc_absolute_agreement,
    load_rating_dataset,
)


def rating_rows(rows):
    """A dataset from (item_id, rater, replication, value) tuples."""
    return RatingDataset({(i, r, rep): v for i, r, rep, v in rows})


def _independent_icc_a1(x: np.ndarray) -> float:
    """Reference ICC(A,1) from variance components estimated by a hand-rolled
    two-way ANOVA, written independently of the implementation under test."""
    n, k = x.shape
    grand = x.mean()
    ss_rows = k * ((x.mean(axis=1) - grand) ** 2).sum()
    ss_cols = n * ((x.mean(axis=0) - grand) ** 2).sum()
    ss_total = ((x - grand) ** 2).sum()
    ss_err = ss_total - ss_rows - ss_cols
    msr = ss_rows / (n - 1)
    msc = ss_cols / (k - 1)
    mse = ss_err / ((n - 1) * (k - 1))
    return (msr - mse) / (msr + (k - 1) * mse + k * (msc - mse) / n)


def test_icc_matches_independent_anova():
    rng = np.random.default_rng(7)
    x = rng.normal(0, 2, (20, 1)) + rng.normal(0, 1, (20, 4)) + rng.normal(0, 0.3, (1, 4))
    a1, ak = icc_absolute_agreement(x)
    assert a1 == pytest.approx(_independent_icc_a1(x), abs=1e-12)
    assert ak > a1  # averaging k ratings is more reliable than one


def test_icc_known_small_matrix():
    # Perfect agreement across columns: ICC(A,1) = ICC(A,k) = 1
    x = np.tile(np.array([[1.0], [5.0], [9.0]]), (1, 4))
    a1, ak = icc_absolute_agreement(x)
    assert a1 == pytest.approx(1.0, abs=1e-12)
    assert ak == pytest.approx(1.0, abs=1e-12)


def test_icc_penalizes_column_offsets():
    base = np.array([[1.0], [5.0], [9.0], [3.0]])
    shifted = np.hstack([base, base + 2.0])  # same ranking, constant offset
    a1, _ = icc_absolute_agreement(shifted)
    assert a1 < 1.0  # absolute agreement is sensitive to the offset


def test_icc_undefined_without_item_variance():
    x = np.full((5, 3), 4.0)
    with pytest.raises(UndefinedStatisticError):
        icc_absolute_agreement(x)
    # one class, so a caller catching the metrics error also catches this one
    assert UndefinedStatisticError is metrics.UndefinedStatisticError
    # two complete items have item variance but no defined correlation
    two_items = rating_rows([("i1", "r1", 1, 2), ("i1", "r1", 2, 3),
                             ("i2", "r1", 1, 7), ("i2", "r1", 2, 8)])
    with pytest.raises(UndefinedStatisticError, match="at least 3 observations"):
        agreement_stats(two_items, "r1", splits=10)


def test_dataset_validation_and_matrix():
    with pytest.raises(RatingError):
        RatingDataset({})
    with pytest.raises(RatingError):
        rating_rows([("i1", "r1", 1, 0)])
    ds = rating_rows(
        [("i1", "r1", 1, 5), ("i1", "r1", 2, 6), ("i2", "r1", 1, 2), ("i2", "r1", 2, 3),
         ("i3", "r1", 1, 7)]  # i3 incomplete -> dropped
    )
    x, used, dropped = ds.matrix("r1")
    assert used == ["i1", "i2"]
    assert dropped == 1
    assert x.tolist() == [[5.0, 6.0], [2.0, 3.0]]


def test_aggregate_means_over_all_cells():
    ds = rating_rows([("i1", "r1", 1, 4), ("i1", "r2", 1, 6), ("i2", "r1", 1, 9)])
    table = aggregate_ratings(ds)
    assert table.scores == {"i1": 5.0, "i2": 9.0}
    assert table.counts == {"i1": 2, "i2": 1}


def test_agreement_stats_identical_replications():
    rows = []
    rng = np.random.default_rng(0)
    vals = rng.integers(1, 10, size=20)
    for i, v in enumerate(vals):
        for rep in (1, 2, 3, 4):
            rows.append((f"i{i:02d}", "r1", rep, int(v)))
    stats = agreement_stats(rating_rows(rows), "r1", splits=50)
    assert isinstance(stats, AgreementStats)
    assert stats.icc_a1 == pytest.approx(1.0, abs=1e-12)
    assert stats.icc_ak == pytest.approx(1.0, abs=1e-12)
    assert stats.mean_pairwise_r == pytest.approx(1.0, abs=1e-12)
    assert stats.split_half_r == pytest.approx(1.0, abs=1e-12)


def test_agreement_stats_deterministic_under_seed():
    rng = np.random.default_rng(3)
    rows = [
        (f"i{i:02d}", "r1", rep, int(np.clip(round(5 + 2 * rng.standard_normal()), 1, 9)))
        for i in range(15)
        for rep in range(1, 7)
    ]
    ds = rating_rows(rows)
    s1 = agreement_stats(ds, "r1", splits=200, rng_seed=11)
    s2 = agreement_stats(ds, "r1", splits=200, rng_seed=11)
    assert s1 == s2


def test_rating_dataset_round_trip(tmp_path):
    ds = rating_rows([("i1", "r1", 1, 4), ("i1", "r1", 2, 5), ("i2", "r2", 1, 9)])
    f = tmp_path / "ratings.csv"
    write_csv_rows(f, ["item_id", "rater", "replication", "value"],
                   ([*key, v] for key, v in ds.values.items()))
    assert load_rating_dataset(f) == ds
