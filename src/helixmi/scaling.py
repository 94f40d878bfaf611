"""Rank-frequency and vocabulary-growth power-law fits.

Descriptor usage follows a Zipf-type rank-frequency law
C(r) = C(1) * r^-xi, and yearly vocabulary size follows a Heaps-type
allometry V = b * M^beta.  Both exponents are estimated by ordinary
least squares on log-log coordinates; the Zipf fit restricts to ranks
whose count clears a floor, since the far tail is truncated by finite
corpus size.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable

import numpy as np

from .corpus import Corpus, column_counts
from .errors import DataError


@dataclass(frozen=True)
class RankEntry:
    rank: int
    descriptor_id: str
    count: float  # integer for real corpora; float admits synthetic laws


@dataclass
class RankTable:
    """Descriptors sorted by descending usage; ties broken by id."""

    scope: str
    entries: list[RankEntry]


@dataclass(frozen=True)
class ScalingFit:
    exponent: float
    prefactor: float
    stderr_exponent: float
    r_squared: float
    fit_range: tuple[float, float]
    n_points: int


def _scope_counts(corpus: Corpus, scope: str | int) -> np.ndarray:
    """Publications per descriptor column, over all years or one year,
    from that scope's entries alone."""
    if scope == "all":
        return column_counts(corpus)
    year = int(scope)
    if year not in corpus.by_year:
        return np.zeros(len(corpus.vocabulary), dtype=np.int64)
    return column_counts(corpus, corpus.by_year[year])


def ranked_columns(counts: np.ndarray) -> np.ndarray:
    """Columns with a positive count, by count descending, ties by column.

    Columns follow sorted descriptor id, so ties are broken by id.
    """
    used = np.flatnonzero(counts)
    return used[np.lexsort((used, -counts[used]))]


def descriptor_counts(corpus: Corpus, scope: str | int = "all") -> dict[str, int]:
    """Publications per descriptor, over all years or one year."""
    counts = _scope_counts(corpus, scope)
    used = np.flatnonzero(counts)
    return dict(zip(corpus.vocabulary.ids_at(used), counts[used].tolist()))


def ranked_counts(corpus: Corpus, scope: str | int = "all") -> tuple[np.ndarray, np.ndarray]:
    """The used descriptor columns by rank (``ranked_columns``), over all
    years or one year, and their publication counts."""
    counts = _scope_counts(corpus, scope)
    columns = ranked_columns(counts)
    return columns, counts[columns]


def rank_table(corpus: Corpus, scope: str | int = "all") -> RankTable:
    columns, counts = ranked_counts(corpus, scope)
    ids = corpus.vocabulary.ids_at(columns)
    entries = [
        RankEntry(rank=i, descriptor_id=uid, count=c)
        for i, (uid, c) in enumerate(zip(ids, counts.tolist()), start=1)
    ]
    return RankTable(scope=str(scope), entries=entries)


def _ols_loglog(x: np.ndarray, y: np.ndarray) -> tuple[float, float, float, float]:
    """Slope, intercept, slope standard error and r^2 of the OLS line of
    log10 y on log10 x, for at least 3 points.

    The arithmetic follows the reference OLS routine in
    ``tests/oracles.py`` step by step, so the values agree to the bit
    whenever log10 y varies.  A constant log10 y has no correlation to
    fit: it gives slope 0, intercept log10 y and NaN for the standard
    error and r^2 (the reference returns rounding noise near 0 for some
    such inputs).
    """
    lx, ly = np.log10(x), np.log10(y)
    if lx.max() == lx.min():
        raise DataError("cannot fit a line through points that all share one x value")
    if ly.max() == ly.min():
        return np.float64(0.0), ly[0], np.float64(np.nan), np.float64(np.nan)
    # population (co)variances: mean squared deviations and their cross term
    ssxm, ssxym, _, ssym = np.cov(lx, ly, bias=1).flat
    if ssxm == 0.0 or ssym == 0.0:
        r = np.float64(np.nan if ssxym == 0 else 0.0)
    else:
        r = np.clip(ssxym / np.sqrt(ssxm * ssym), -1.0, 1.0)
    slope = ssxym / ssxm
    intercept = ly.mean() - slope * lx.mean()
    stderr = np.sqrt((1 - r**2) * ssym / ssxm / (len(lx) - 2))
    return slope, intercept, stderr, r**2


def zipf_fit(table: RankTable, min_count: int = 5) -> ScalingFit:
    """OLS fit of log10 C(r) on log10 r over ranks with count >= min_count."""
    ranks = np.array([e.rank for e in table.entries], dtype=float)
    counts = np.array([e.count for e in table.entries], dtype=float)
    return zipf_fit_points(ranks, counts, min_count)


def zipf_fit_points(ranks: np.ndarray, counts: np.ndarray, min_count: int = 5) -> ScalingFit:
    """``zipf_fit`` of the points (ranks[i], counts[i]), as float arrays."""
    kept = counts >= min_count
    ranks, counts = ranks[kept], counts[kept]
    if len(ranks) < 3:
        raise DataError(f"need at least 3 ranks with count >= {min_count}, found {len(ranks)}")
    slope, intercept, stderr, r2 = _ols_loglog(ranks, counts)
    return ScalingFit(
        exponent=-slope,
        prefactor=10.0**intercept,
        stderr_exponent=stderr,
        r_squared=r2,
        fit_range=(float(ranks.min()), float(ranks.max())),
        n_points=len(ranks),
    )


def heaps_fit(pairs: Iterable[tuple[float, float]]) -> ScalingFit:
    """OLS fit of log10 V on log10 M over yearly (M, V) pairs."""
    pts = [(m, v) for m, v in pairs if m > 0 and v > 0]
    if len(pts) < 3:
        raise DataError(f"need at least 3 years with positive (M, V), found {len(pts)}")
    m = np.array([p[0] for p in pts], dtype=float)
    v = np.array([p[1] for p in pts], dtype=float)
    slope, intercept, stderr, r2 = _ols_loglog(m, v)
    return ScalingFit(
        exponent=slope,
        prefactor=10.0**intercept,
        stderr_exponent=stderr,
        r_squared=r2,
        fit_range=(float(m.min()), float(m.max())),
        n_points=len(pts),
    )


def marginal_returns(fit: ScalingFit, v: float) -> float:
    """dM/dV = b^(-1/beta) * V^((1/beta) - 1); increasing in V iff beta < 1."""
    beta = fit.exponent
    if beta <= 0:
        raise ValueError("marginal returns need a positive exponent")
    if v <= 0:
        raise ValueError("V must be positive")
    b = fit.prefactor
    return b ** (-1.0 / beta) * v ** ((1.0 / beta) - 1.0)
