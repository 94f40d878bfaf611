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
independent of execution order, and extending the replicate count never
changes earlier replicates.  The replicates run year by year in one
process: every generator shuffles the years in ascending order, and the
shuffles of one year are evaluated together, in blocks of replicates,
by one stacked histogram and one entropy pass.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Mapping

import numpy as np

from .corpus import Corpus
from .counts import BranchStats, apply_count_map, pooled_branch_stats, triples_by_year
from .errors import DataError
from .infotheory import TARGETS, mi_from_triples, stacked_targets

# A block of one year's replicates holds at most this many labels (or
# publications, if the year has more), which bounds its stacked counts.
BLOCK_LABELS = 1 << 19


@dataclass(frozen=True)
class ShuffleConfig:
    replicates: int = 100
    ci_level: float = 0.90
    seed: int = 0
    map_kind: str = "full"
    counting: str = "membership"
    include_empty: bool = True

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
    undefined_replicates: int = 0  # replicates that left the year no vector


@dataclass
class NullBand:
    target: str
    map_kind: str
    replicates: int
    ci_level: float
    seed: int
    rows: list[YearBand] = field(default_factory=list)
    # input years with no vector to evaluate in the observed series
    dropped_years: list[int] = field(default_factory=list)


def replicate_rng(seed: int, replicate: int) -> np.random.Generator:
    """Generator for one replicate, a pure function of (seed, replicate)."""
    return np.random.default_rng(np.random.SeedSequence([seed, replicate]))


def shuffle_year(triples: np.ndarray, rng: np.random.Generator) -> np.ndarray:
    """Randomize one year's (n, 3) branch counts under both constraints."""
    n = len(triples)
    # column by column: numpy's sums along an axis of length 3 are slow
    c, d, e = triples.T
    pool = np.repeat(np.arange(3), [c.sum(), d.sum(), e.sum()])
    rng.shuffle(pool)
    owner = np.repeat(np.arange(n), c + d + e)
    out = np.bincount(owner * 3 + pool, minlength=3 * n).reshape(n, 3)
    return out.astype(triples.dtype, copy=False)


def percentile(sorted_values, p: float) -> float:
    """Nearest-rank percentile: the value at 1-based index ceil(p*n)."""
    n = len(sorted_values)
    if n == 0:
        raise ValueError("empty input")
    k = min(max(math.ceil(p * n), 1), n)
    return sorted_values[k - 1]


def replicate_values(
    triples_per_year: Mapping[int, np.ndarray],
    config: ShuffleConfig,
    medians: BranchStats | None,
    years: list[int],
) -> np.ndarray:
    """Every target of every replicate in each of ``years``, as a NaN-filled
    (4, replicates, len(years)) array in :data:`TARGETS` order; NaN where
    a replicate leaves the year with no vector to evaluate."""
    rngs = [replicate_rng(config.seed, r) for r in range(config.replicates)]
    column = {year: i for i, year in enumerate(years)}
    values = np.full((len(TARGETS), config.replicates, len(years)), np.nan)
    steps = {
        year: min(config.replicates,
                  max(1, BLOCK_LABELS // max(int(triples.sum()), len(triples), 1)))
        for year, triples in triples_per_year.items()
    }
    # Every block is a view of one buffer, sized for the largest.  Blocks of
    # varying sizes, freed and allocated again year after year, leave the
    # allocator keeping heap in a pattern that depends on the process's
    # memory layout, and peak RSS then differs from one run to the next.
    buffer = np.empty(
        max((steps[year] * t.size for year, t in triples_per_year.items()), default=0),
        dtype=np.int64,
    )
    for year in sorted(triples_per_year):
        triples = triples_per_year[year]
        step = steps[year]
        for lo in range(0, config.replicates, step):
            batch = rngs[lo:lo + step]
            block = buffer[:len(batch) * triples.size].reshape(len(batch), *triples.shape)
            # every year is shuffled, evaluated or not, to keep each stream
            for i, rng in enumerate(batch):
                block[i] = shuffle_year(triples, rng)
            if year in column:
                vectors = apply_count_map(block.reshape(-1, 3), config.map_kind, medians)
                values[:, lo:lo + len(block), column[year]] = stacked_targets(
                    vectors.reshape(block.shape), config.include_empty
                )
    return values


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
        medians = pooled_branch_stats(triples_per_year)

    observed = mi_from_triples(
        triples_per_year,
        map_kind=config.map_kind,
        medians=medians,
        include_empty=config.include_empty,
    )
    years = observed.years()
    values = replicate_values(triples_per_year, config, medians, years)[TARGETS.index(target)]

    p_lo = (1.0 - config.ci_level) / 2.0
    p_hi = 1.0 - p_lo
    band = NullBand(
        target=target,
        map_kind=config.map_kind,
        replicates=config.replicates,
        ci_level=config.ci_level,
        seed=config.seed,
        dropped_years=sorted(set(triples_per_year) - set(years)),
    )
    for i, record in enumerate(observed.records):
        column = np.sort(values[:, i])
        obs = record.target(target)
        undefined = int(np.isnan(column).sum())
        if undefined:
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
                mean_rand=float(values[:, i].mean()),
                lo=lo,
                hi=hi,
                flag=flag,
                undefined_replicates=undefined,
            )
        )
    return band


def null_band(corpus: Corpus, config: ShuffleConfig, target: str) -> NullBand:
    """Observed target series with the randomized percentile envelope."""
    if len(corpus) == 0:
        raise DataError("empty corpus")
    per_year = triples_by_year(corpus, config.counting)
    return null_band_from_triples(per_year, config, target)
