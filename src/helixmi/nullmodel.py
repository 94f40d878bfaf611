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
changes earlier replicates.  The replicates are therefore split into one
contiguous range per usable core (the affinity set, which ``taskset``
limits, capped by the cgroup's CPU quota), with at least
:data:`MIN_SLICE_LABELS` shuffled labels per range: the calling process
evaluates the first range and a forked worker each of the others, and
the ranges are joined in replicate order, so the values do not depend on
the number of processes.  Only a single-threaded process on Linux forks;
each worker is killed with it.  Within a range every
generator shuffles the years in ascending order.  Each year's label pool
is built once; the shuffles of one year are dealt together, in blocks of
replicates, by one ``np.add.at`` and evaluated by one stacked histogram
and one entropy pass.
"""

from __future__ import annotations

import math
import os
import sys
import threading
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Mapping

import numpy as np

from .corpus import Corpus
from .counts import BranchStats, apply_count_map, pooled_branch_stats, triples_by_year
from .errors import DataError
from .infotheory import TARGETS, mi_from_triples, stacked_targets

# A block of one year's replicates holds at most this many labels (or
# publications, if the year has more), which bounds its label and count
# buffers.  Blocks of 1 << 19 ran no faster, and with the label buffer
# they raised the null command's peak RSS by about 5 MB.
BLOCK_LABELS = 1 << 18

# Each process shuffles at least this many labels (replicates times the
# labels of all years).  On 2 cores, splitting runs of 0.2-0.6M labels in
# two took 0.8-1.9x their time in one process, as forking and the fixed
# per-year cost of a range outweighed the work moved; runs of 1.2-12M
# labels took 0.6-0.8x.
MIN_SLICE_LABELS = 1 << 19

# Where the cgroup hierarchy is mounted; inside a container, the
# container's own cgroup.
CGROUP_ROOT = "/sys/fs/cgroup"


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
        if self.seed < 0:
            raise ValueError("seed must be non-negative")


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
    workers: int = 1  # processes that evaluated the replicates
    replicate_s: float = 0.0  # wall seconds of the replicate evaluation


def replicate_rng(seed: int, replicate: int) -> np.random.Generator:
    """Generator for one replicate, a pure function of (seed, replicate)."""
    return np.random.default_rng(np.random.SeedSequence([seed, replicate]))


def _label_pool(triples: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """One year's branch labels in branch order, and the first cell (3 x
    row) of the publication each position of the pool is dealt to."""
    # column by column: numpy's sums along an axis of length 3 are slow
    c, d, e = triples.T
    pool = np.repeat(np.arange(3), [c.sum(), d.sum(), e.sum()])
    cells = np.repeat(np.arange(0, 3 * len(triples), 3), c + d + e)
    return pool, cells


def _deal(labels: np.ndarray, cells: np.ndarray, counts: np.ndarray) -> None:
    """Deal B shuffled pools, the rows of ``labels``, in runs to the
    publications: ``counts`` (B, n, 3) receives each pool's branch counts.
    ``labels`` is overwritten with the cell codes."""
    labels += cells
    labels += counts[0].size * np.arange(len(labels))[:, None]
    counts.fill(0)
    # counted in place: a bincount would allocate its result anew for every
    # block (see the buffers in replicate_slice)
    np.add.at(counts.reshape(-1), labels.reshape(-1), 1)


def shuffle_year(triples: np.ndarray, rng: np.random.Generator) -> np.ndarray:
    """Randomize one year's (n, 3) branch counts under both constraints."""
    pool, cells = _label_pool(triples)
    rng.shuffle(pool)
    counts = np.empty((1, *triples.shape), dtype=triples.dtype)
    _deal(pool[None], cells, counts)
    return counts[0]


def percentile(sorted_values, p: float) -> float:
    """Nearest-rank percentile: the value at 1-based index ceil(p*n)."""
    n = len(sorted_values)
    if n == 0:
        raise ValueError("empty input")
    k = min(max(math.ceil(p * n), 1), n)
    return sorted_values[k - 1]


def usable_cores() -> int:
    """The number of cores this process may run on: its affinity set,
    capped by the CPU quota of the cgroup at :data:`CGROUP_ROOT`."""
    try:
        cores = len(os.sched_getaffinity(0))
    except AttributeError:  # no affinity call on this platform
        cores = os.cpu_count() or 1
    quota = cgroup_cpu_quota()
    return cores if quota is None else max(1, min(cores, quota))


def cgroup_cpu_quota() -> int | None:
    """Cores the CPU quota of the cgroup at :data:`CGROUP_ROOT` pays for,
    rounded up; None where there is no quota."""
    root = Path(CGROUP_ROOT)
    try:
        try:
            quota, period = (root / "cpu.max").read_text().split()  # cgroup v2
        except FileNotFoundError:  # cgroup v1
            quota = (root / "cpu" / "cpu.cfs_quota_us").read_text().strip()
            period = (root / "cpu" / "cpu.cfs_period_us").read_text().strip()
        if quota in ("max", "-1") or int(period) <= 0:
            return None
        return math.ceil(int(quota) / int(period))
    except (OSError, ValueError):
        return None


def worker_count(triples_per_year: Mapping[int, np.ndarray], replicates: int) -> int:
    """Processes that evaluate ``replicates`` of ``triples_per_year``: one
    per usable core, at most one per replicate and one per
    :data:`MIN_SLICE_LABELS` shuffled labels.  Only a single-threaded
    process on Linux forks, so elsewhere the count is 1.

    Single-threaded counts Python threads only: numpy's bundled OpenBLAS
    keeps a native thread pool, but the library registers its own fork
    handler (numpy 2.4.6's ``libscipy_openblas64_`` defines
    ``openblas_fork_handler`` and imports ``__register_atfork``), which
    shuts the pool down around a fork."""
    if sys.platform != "linux" or threading.active_count() > 1:
        return 1
    labels = replicates * sum(int(triples.sum()) for triples in triples_per_year.values())
    return max(1, min(usable_cores(), replicates, labels // MIN_SLICE_LABELS))


def replicate_values(
    triples_per_year: Mapping[int, np.ndarray],
    config: ShuffleConfig,
    medians: BranchStats | None,
    years: list[int],
) -> tuple[np.ndarray, int]:
    """Every target of every replicate in each of ``years``, as a NaN-filled
    (4, replicates, len(years)) array in :data:`TARGETS` order; NaN where
    a replicate leaves the year with no vector to evaluate.  Also the
    number of processes that evaluated them.

    The replicates are split into :func:`worker_count` contiguous ranges;
    this process evaluates the first and a forked worker each other one.
    The values do not depend on the number of ranges.
    """
    workers = worker_count(triples_per_year, config.replicates)
    inputs = (triples_per_year, config, medians, years)
    if workers == 1:
        return replicate_slice(*inputs, 0, config.replicates), workers
    bounds = [config.replicates * k // workers for k in range(workers + 1)]
    import multiprocessing
    from concurrent.futures import ProcessPoolExecutor

    # Forked workers inherit the inputs instead of unpickling a copy: the
    # pickled inputs raised the synth-null null commands' peak RSS from
    # 56.0-56.7 to 62.2-62.8 MB.  The executor forks all its workers at the
    # first submit, before it starts any thread of its own.
    with ProcessPoolExecutor(workers - 1, mp_context=multiprocessing.get_context("fork"),
                             initializer=_start_worker, initargs=(os.getpid(), *inputs)) as pool:
        slices = [pool.submit(_worker_slice, start, stop)
                  for start, stop in zip(bounds[1:-1], bounds[2:])]
        first = replicate_slice(*inputs, 0, bounds[1])
        return np.concatenate([first] + [s.result() for s in slices], axis=1), workers


# a worker's copy of the arguments of replicate_values; set only in workers
_worker_inputs: tuple = ()


def _start_worker(parent: int, *inputs) -> None:
    """Worker initializer: keep the inherited ``inputs``, and have the
    kernel kill this worker when ``parent`` dies.  A worker waiting on the
    executor's queue would not notice, as every worker holds the queue's
    write end."""
    import ctypes
    import signal

    global _worker_inputs
    _worker_inputs = inputs
    pr_set_pdeathsig = 1
    libc = ctypes.CDLL(None, use_errno=True)
    if libc.prctl(pr_set_pdeathsig, signal.SIGKILL) != 0:
        raise OSError(ctypes.get_errno(), "prctl(PR_SET_PDEATHSIG) failed")
    if os.getppid() != parent:  # the parent died before the call
        os._exit(1)


def _worker_slice(start: int, stop: int) -> np.ndarray:
    return replicate_slice(*_worker_inputs, start, stop)


def replicate_slice(
    triples_per_year: Mapping[int, np.ndarray],
    config: ShuffleConfig,
    medians: BranchStats | None,
    years: list[int],
    start: int,
    stop: int,
) -> np.ndarray:
    """Replicates [start, stop) of :func:`replicate_values`, as a
    (4, stop - start, len(years)) array, all in this process."""
    rngs = [replicate_rng(config.seed, r) for r in range(start, stop)]
    column = {year: i for i, year in enumerate(years)}
    values = np.full((len(TARGETS), len(rngs), len(years)), np.nan)
    sizes = {year: int(triples.sum()) for year, triples in triples_per_year.items()}
    steps = {
        year: max(1, min(len(rngs), BLOCK_LABELS // max(sizes[year], len(triples), 1)))
        for year, triples in triples_per_year.items()
    }
    # Every block's labels and counts are views of two buffers, sized for
    # the largest block.  Blocks of varying sizes, freed and allocated again
    # year after year, leave the allocator keeping heap in a pattern that
    # depends on the process's memory layout, and peak RSS then differs
    # from run to run.
    label_buffer = np.empty(max((steps[y] * sizes[y] for y in sizes), default=0),
                            dtype=np.int64)
    count_buffer = np.empty(
        max((steps[y] * t.size for y, t in triples_per_year.items()), default=0),
        dtype=np.int64,
    )
    for year in sorted(triples_per_year):
        triples = triples_per_year[year]
        pool, cells = _label_pool(triples)
        step = steps[year]
        for lo in range(0, len(rngs), step):
            batch = rngs[lo:lo + step]
            labels = label_buffer[:len(batch) * pool.size].reshape(len(batch), pool.size)
            labels[:] = pool
            # every year is shuffled, evaluated or not, to keep each stream;
            # a permutation depends only on the pool's length
            for row, rng in zip(labels, batch):
                rng.shuffle(row)
            if year in column:
                counts = count_buffer[:len(batch) * triples.size].reshape(
                    len(batch), *triples.shape)
                _deal(labels, cells, counts)
                vectors = apply_count_map(counts.reshape(-1, 3), config.map_kind, medians)
                values[:, lo:lo + len(batch), column[year]] = stacked_targets(
                    vectors.reshape(counts.shape), config.include_empty
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
    start = time.perf_counter()
    values, workers = replicate_values(triples_per_year, config, medians, years)
    values = values[TARGETS.index(target)]
    replicate_s = time.perf_counter() - start

    p_lo = (1.0 - config.ci_level) / 2.0
    p_hi = 1.0 - p_lo
    band = NullBand(
        target=target,
        map_kind=config.map_kind,
        replicates=config.replicates,
        ci_level=config.ci_level,
        seed=config.seed,
        dropped_years=sorted(set(triples_per_year) - set(years)),
        workers=workers,
        replicate_s=replicate_s,
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
