"""Doubly-constrained shuffling null model with empirical confidence bands.

Within each year the branch labels of all publications' C/D/E
descriptors are pooled, uniformly permuted, and dealt back in runs
matching each publication's original number of labels.  This preserves
exactly (i) the yearly total of descriptors from each branch and
(ii) each publication's total label count — and therefore the yearly
mean of every branch count — while destroying the publication-level
coupling between branches.  Because the information measures depend
only on per-publication branch counts, permuting anonymous labels is
statistically equivalent to permuting descriptor identities and much
cheaper.

Replicate r draws its generator from (seed, r) alone, so results are
independent of execution order and thread count, and extending the
replicate count never changes earlier replicates.
"""

from __future__ import annotations

import math
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, field
from typing import Mapping

import numpy as np

from .corpus import Corpus
from .counts import BranchStats, branch_stats_from_triples, triples_by_year
from .infotheory import MiSeries, mi_from_triples

TARGETS = ("T_CD", "T_CE", "T_DE", "T_CDE")


@dataclass(frozen=True)
class ShuffleConfig:
    replicates: int = 100
    ci_level: float = 0.90
    seed: int = 0
    map_kind: str = "full"
    counting: str = "membership"
    include_empty: bool = True
    threads: int = 1

    def __post_init__(self) -> None:
        if self.replicates < 2:
            raise ValueError("need at least 2 replicates")
        if not 0.0 < self.ci_level < 1.0:
            raise ValueError("ci_level must be in (0, 1)")


@dataclass(frozen=True)
class YearBand:
    year: int
    observed: float
    mean_rand: float
    lo: float
    hi: float
    flag: str  # inside | above | below | undefined


@dataclass
class NullBand:
    target: str
    map_kind: str
    replicates: int
    ci_level: float
    seed: int
    rows: list[YearBand] = field(default_factory=list)


def replicate_rng(seed: int, replicate: int) -> np.random.Generator:
    """Generator for one replicate, a pure function of (seed, replicate)."""
    return np.random.default_rng(np.random.SeedSequence([seed, replicate]))


def shuffle_year(triples: np.ndarray, rng: np.random.Generator) -> np.ndarray:
    """Randomize one year's (n, 3) branch counts under both constraints."""
    n = len(triples)
    pool = np.repeat(np.arange(3), triples.sum(axis=0))
    rng.shuffle(pool)
    owner = np.repeat(np.arange(n), triples.sum(axis=1))
    out = np.bincount(owner * 3 + pool, minlength=3 * n).reshape(n, 3)
    return out.astype(triples.dtype, copy=False)


def percentile(sorted_values, p: float) -> float:
    """Nearest-rank percentile: the value at 1-based index ceil(p*n)."""
    n = len(sorted_values)
    if n == 0:
        raise ValueError("empty input")
    k = min(max(math.ceil(p * n), 1), n)
    return sorted_values[k - 1]


def _replicate_series(
    triples_per_year: Mapping[int, np.ndarray],
    config: ShuffleConfig,
    medians: BranchStats | None,
    replicate: int,
) -> MiSeries:
    rng = replicate_rng(config.seed, replicate)
    shuffled = {
        year: shuffle_year(triples_per_year[year], rng)
        for year in sorted(triples_per_year)
    }
    return mi_from_triples(
        shuffled,
        map_kind=config.map_kind,
        medians=medians,
        include_empty=config.include_empty,
    )


def null_band_from_triples(
    triples_per_year: Mapping[int, np.ndarray],
    config: ShuffleConfig,
    target: str,
) -> NullBand:
    if target not in TARGETS:
        raise ValueError(f"target must be one of {TARGETS}")
    # Median thresholds are part of the fixed measurement map: they come
    # from the observed corpus and are reused for every replicate.
    medians: BranchStats | None = None
    if config.map_kind == "median":
        pooled = np.concatenate(
            [triples_per_year[y] for y in sorted(triples_per_year)]
        )
        medians = branch_stats_from_triples(pooled)

    observed = mi_from_triples(
        triples_per_year,
        map_kind=config.map_kind,
        medians=medians,
        include_empty=config.include_empty,
    )
    years = observed.years()
    year_pos = {y: i for i, y in enumerate(years)}
    # NaN-filled: a year missing from any replicate is flagged undefined
    values = np.full((config.replicates, len(years)), np.nan)

    def run(replicate: int) -> MiSeries:
        return _replicate_series(triples_per_year, config, medians, replicate)

    if config.threads > 1:
        with ThreadPoolExecutor(max_workers=config.threads) as pool:
            series = list(pool.map(run, range(config.replicates)))
    else:
        series = [run(r) for r in range(config.replicates)]
    for r, s in enumerate(series):
        for record in s.records:
            if record.year in year_pos:
                values[r, year_pos[record.year]] = record.target(target)

    p_lo = (1.0 - config.ci_level) / 2.0
    p_hi = 1.0 - p_lo
    band = NullBand(
        target=target,
        map_kind=config.map_kind,
        replicates=config.replicates,
        ci_level=config.ci_level,
        seed=config.seed,
    )
    for record in observed.records:
        column = np.sort(values[:, year_pos[record.year]])
        obs = record.target(target)
        if np.isnan(column).any():
            # some replicate left this year with no vector to evaluate
            lo = hi = math.nan
            flag = "undefined"
        else:
            lo = float(percentile(column, p_lo))
            hi = float(percentile(column, p_hi))
            if obs > hi:
                flag = "above"
            elif obs < lo:
                flag = "below"
            else:
                flag = "inside"
        band.rows.append(
            YearBand(
                year=record.year,
                observed=obs,
                mean_rand=float(values[:, year_pos[record.year]].mean()),
                lo=lo,
                hi=hi,
                flag=flag,
            )
        )
    return band


def null_band(corpus: Corpus, config: ShuffleConfig, target: str) -> NullBand:
    """Observed target series with the randomized percentile envelope."""
    per_year = triples_by_year(corpus, config.counting)
    return null_band_from_triples(per_year, config, target)
