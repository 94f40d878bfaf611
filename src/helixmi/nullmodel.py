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

The replicate engine (:func:`replicate_values`) takes only the yearly
triples and the config.  It evaluates every year; the median map's
thresholds are those of the pooled observed triples, as in the observed
series, and a band keeps the observed series' years.

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
is built once.  Each replicate shuffles a copy of it in one reused row
and deals the row into its own row of a block's counts; a block of
replicates, as many as :data:`BLOCK_BYTES` pays for, is evaluated by one
stacked histogram and one entropy pass.
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
from .infotheory import TARGETS, joint_histograms, mi_from_triples, table_targets

# A block of one year's replicates holds about this many bytes (see
# _replicate_bytes).  With 1 << 20 the null ran up to a fifth slower, and
# with 1 << 22 its peak RSS rose by 2.5-3.7 MB.
BLOCK_BYTES = 1 << 21

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
    """One year's branch labels in branch order, each as the first count
    cell of its branch (branch x n), and the publication each position of
    the pool is dealt to."""
    # column by column: numpy's sums along an axis of length 3 are slow
    c, d, e = triples.T
    pool = np.repeat(np.arange(3) * len(triples), [c.sum(), d.sum(), e.sum()])
    pubs = np.repeat(np.arange(len(triples)), c + d + e)
    return pool, pubs


def _shuffle(pool: np.ndarray, rng: np.random.Generator, row: np.ndarray) -> None:
    """Shuffle a copy of ``pool`` into ``row``.  The row is int64, which
    numpy shuffles fastest, and the permutation depends only on its length."""
    row[:] = pool
    rng.shuffle(row)


def _deal(row: np.ndarray, pubs: np.ndarray, counts: np.ndarray) -> None:
    """Deal the shuffled pool ``row`` in runs to the publications:
    ``counts`` (3, n) receives the branch counts.  ``row`` is overwritten
    with the count cells."""
    row += pubs
    counts[:] = np.bincount(row, minlength=counts.size).reshape(counts.shape)


def shuffle_year(triples: np.ndarray, rng: np.random.Generator) -> np.ndarray:
    """Randomize one year's (n, 3) branch counts under both constraints."""
    pool, pubs = _label_pool(triples)
    rng.shuffle(pool)
    counts = np.empty((3, len(triples)), dtype=np.int64)
    _deal(pool, pubs, counts)
    return np.ascontiguousarray(counts.T, dtype=triples.dtype)


def percentile(sorted_values, p: float) -> float:
    """Nearest-rank percentile: the value at 1-based index ceil(p*n).

    p*n is rounded to 9 places first, so that a level computed in floats
    lands on its decimal rank: (1 - 0.95) / 2 is 0.025000000000000022,
    whose 200 replicates are rank 5, not 6."""
    n = len(sorted_values)
    if n == 0:
        raise ValueError("empty input")
    k = min(max(math.ceil(round(p * n, 9)), 1), n)
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
    triples_per_year: Mapping[int, np.ndarray], config: ShuffleConfig
) -> tuple[np.ndarray, int]:
    """Every target of every replicate in each year of ``triples_per_year``,
    ascending, as a (4, replicates, years) array in :data:`TARGETS` order;
    NaN for a year with no publications or a replicate that leaves the year
    no vector.  Also the number of processes that evaluated them.

    The median map's thresholds are those of the pooled observed triples.
    The replicates are split into :func:`worker_count` contiguous ranges;
    this process evaluates the first and a forked worker each other one.
    The values do not depend on the number of ranges.
    """
    workers = worker_count(triples_per_year, config.replicates)
    inputs = (triples_per_year, config)
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
    triples_per_year: Mapping[int, np.ndarray], config: ShuffleConfig, start: int, stop: int
) -> np.ndarray:
    """Replicates [start, stop) of :func:`replicate_values`, as a
    (4, stop - start, years) array, all in this process.

    Each replicate's pool is shuffled in one reused row and dealt into its
    row of a block's counts; a block holds as many replicates as
    :data:`BLOCK_BYTES` pays for (:func:`_replicate_bytes`).  A year with
    no publications has an empty pool, so it moves no generator."""
    medians = pooled_branch_stats(triples_per_year) if config.map_kind == "median" else None
    rngs = [replicate_rng(config.seed, r) for r in range(start, stop)]
    values = np.full((len(TARGETS), len(rngs), len(triples_per_year)), np.nan)
    # Every block's counts and cell codes are views of one buffer, which
    # grows to the largest block.  Blocks of varying sizes, freed and
    # allocated again year after year, leave the allocator keeping heap in a
    # pattern that depends on the process's memory layout, and peak RSS then
    # differs from run to run.
    buffer = np.empty(0, dtype=np.intp)
    for column, year in enumerate(sorted(triples_per_year)):
        triples = triples_per_year[year]
        n = len(triples)
        if n == 0:
            continue
        pool, pubs = _label_pool(triples)
        row = np.empty_like(pool)
        # a table spans at most 4n + 64 cells unless it is compacted; after
        # the first block, the block before gives its cells
        table = 4 * n + 64
        lo = 0
        while lo < len(rngs):
            step = max(1, BLOCK_BYTES // _replicate_bytes(n, table, config.map_kind))
            batch = rngs[lo:lo + step]
            if buffer.size < 4 * len(batch) * n:
                buffer = None  # the old buffer goes before the new one comes
                buffer = np.empty(4 * len(batch) * n, dtype=np.intp)
            targets, table = _block_targets(pool, pubs, n, batch, row, buffer, config, medians)
            values[:, lo:lo + len(batch), column] = targets
            lo += len(batch)
    return values


def _block_targets(
    pool: np.ndarray,
    pubs: np.ndarray,
    n: int,
    batch: list[np.random.Generator],
    row: np.ndarray,
    buffer: np.ndarray,
    config: ShuffleConfig,
    medians: BranchStats | None,
) -> tuple[np.ndarray, int]:
    """The (4, B) targets of one block of a year of ``n`` publications, and
    the cells of each of its tables.  Each of the B generators of ``batch``
    shuffles the ``pool`` in ``row`` and deals it into its own row of the
    counts; the counts and the cell codes are views of ``buffer``."""
    size = len(batch) * n
    counts = buffer[:3 * size].reshape(len(batch), 3, n)
    for rng, replicate in zip(batch, counts):
        _shuffle(pool, rng, row)
        _deal(row, pubs, replicate)
    # (B, n, 3) views of the (B, 3, n) counts: each branch's column is
    # contiguous
    vectors = apply_count_map(counts.transpose(0, 2, 1), config.map_kind, medians)
    hists = joint_histograms(vectors, code=buffer[3 * size:4 * size].reshape(len(batch), n))
    empty = None
    if not config.include_empty:
        empty = np.count_nonzero(~vectors.any(axis=2), axis=1)
    return table_targets(hists, empty), hists[0].size


def _replicate_bytes(n: int, table: int, map_kind: str) -> int:
    """Bytes one replicate of a year of ``n`` publications holds in a block
    whose tables have ``table`` cells: its counts, the vectors a count map
    other than the full one makes of them, its cell codes, and its table
    twice, as the entropy pass holds at most about one copy of it."""
    vectors = 0 if map_kind == "full" else 3 * n
    return 8 * (3 * n + vectors + n + 2 * table)


def null_band_from_triples(
    triples_per_year: Mapping[int, np.ndarray],
    config: ShuffleConfig,
    target: str,
) -> NullBand:
    if target not in TARGETS:
        raise ValueError(f"target must be one of {TARGETS}")
    observed = mi_from_triples(
        triples_per_year, map_kind=config.map_kind, include_empty=config.include_empty
    )
    years = observed.years()
    start = time.perf_counter()
    values, workers = replicate_values(triples_per_year, config)
    values = values[TARGETS.index(target)][:, np.isin(sorted(triples_per_year), years)]
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
