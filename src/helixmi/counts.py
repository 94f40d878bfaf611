"""Branch count vectors, descriptive statistics and the signed-rank test.

Each publication is projected onto a triple of non-negative counts
(diseases, drugs, techniques).  By default a descriptor contributes to
every branch it belongs to (membership counting); primary-branch-only
counting is available behind the ``counting`` switch for sensitivity
analysis of the ~7% multi-branch descriptors.

Three count maps turn a triple into the vector actually fed to the
information measures: ``binary`` (1 iff count > 0), ``median`` (1 iff
count strictly exceeds the corpus median for that branch) and ``full``
(identity).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Mapping, NamedTuple, Sequence

import numpy as np

from .corpus import Corpus, row_chunks
from .errors import DataError
from .mesh import BRANCHES

MAP_KINDS = ("binary", "median", "full")
COUNTINGS = ("membership", "primary")

EXACT_WILCOXON_LIMIT = 25


class BranchTriple(NamedTuple):
    n_c: int
    n_d: int
    n_e: int


class CountVector(NamedTuple):
    z_c: int
    z_d: int
    z_e: int
    map_kind: str


@dataclass(frozen=True)
class BranchStats:
    """Per-branch mean, population standard deviation and median."""

    mean: dict[str, float]
    std: dict[str, float]
    median: dict[str, float]


def branch_triple(publication, vocabulary, counting: str = "membership") -> BranchTriple:
    """Count the publication's descriptors per branch.

    Raises ``KeyError`` for unresolved ids: ingestion is expected to
    have cleaned those.
    """
    if counting not in COUNTINGS:
        raise ValueError(f"unknown counting mode {counting!r}")
    n = {"C": 0, "D": 0, "E": 0}
    for mesh_id in publication.mesh_ids:
        d = vocabulary.descriptors[mesh_id]
        if counting == "membership":
            for alpha in BRANCHES:
                if alpha in d.branches:
                    n[alpha] += 1
        else:
            alpha = d.primary_branch
            if alpha in n:
                n[alpha] += 1
    return BranchTriple(n["C"], n["D"], n["E"])


def branch_matrix(vocabulary, counting: str = "membership") -> np.ndarray:
    """(V, 3) read-only 0/1 matrix: which of C, D, E each descriptor column
    counts toward.

    Rows follow ``vocabulary.column_ids``.  Membership counting credits
    every branch the descriptor sits in; primary counting credits its
    primary branch only, which may lie outside C/D/E.  Both matrices are
    built once per vocabulary.
    """
    if counting not in COUNTINGS:
        raise ValueError(f"unknown counting mode {counting!r}")
    if counting == "membership":
        return vocabulary.membership_matrix
    return vocabulary.primary_matrix


def corpus_triples(corpus: Corpus, counting: str = "membership") -> np.ndarray:
    """(n_pubs, 3) int array of branch counts, aligned with corpus order.

    The entries are summed a chunk of rows at a time, so beyond the result
    this holds one chunk's running sums."""
    weights = branch_matrix(corpus.vocabulary, counting)
    indptr, indices = corpus.incidence
    triples = np.empty((len(indptr) - 1, len(BRANCHES)), dtype=np.int64)
    for lo, hi in row_chunks(indptr):
        start = indptr[lo]
        cols = indices[start:indptr[hi]]
        bounds = indptr[lo:hi + 1] - start
        running = np.zeros(len(cols) + 1, dtype=np.int64)
        for i in range(len(BRANCHES)):
            # a row's count is a difference of running sums over the chunk's
            # entries, so a publication without descriptors gets 0
            np.cumsum(weights[:, i][cols], out=running[1:])
            np.subtract(running[bounds[1:]], running[bounds[:-1]], out=triples[lo:hi, i])
    return triples


def triples_by_year(corpus: Corpus, counting: str = "membership") -> dict[int, np.ndarray]:
    """Yearly partitions of :func:`corpus_triples`, as views of its rows."""
    all_triples = corpus_triples(corpus, counting)
    return {year: all_triples[rows.start:rows.stop] for year, rows in corpus.by_year.items()}


def count_map(
    triple: BranchTriple | tuple[int, int, int],
    kind: str,
    medians: BranchStats | None = None,
) -> CountVector:
    """Apply one of the three count maps to a single triple."""
    z = apply_count_map(np.asarray([tuple(triple)], dtype=np.int64), kind, medians)[0]
    return CountVector(int(z[0]), int(z[1]), int(z[2]), kind)


def apply_count_map(
    triples: np.ndarray, kind: str, medians: BranchStats | None = None
) -> np.ndarray:
    """Vectorized count map over an (n, 3) array of triples."""
    if kind == "full":
        return triples
    if kind == "binary":
        return (triples > 0).astype(np.int64)
    if kind == "median":
        if medians is None:
            raise ValueError("median map requires corpus medians")
        thresholds = np.array([medians.median[a] for a in BRANCHES])
        # strictly greater than the median, so median-equal counts map to 0
        return (triples > thresholds).astype(np.int64)
    raise ValueError(f"unknown count map {kind!r}")


def branch_stats_from_triples(triples: np.ndarray) -> BranchStats:
    if len(triples) == 0:
        raise DataError("empty corpus")
    mean = {a: float(triples[:, i].mean()) for i, a in enumerate(BRANCHES)}
    # population standard deviation, matching descriptive use
    std = {a: float(triples[:, i].std(ddof=0)) for i, a in enumerate(BRANCHES)}
    median = {a: float(np.median(triples[:, i])) for i, a in enumerate(BRANCHES)}
    return BranchStats(mean=mean, std=std, median=median)


def pooled_branch_stats(triples_per_year: Mapping[int, np.ndarray]) -> BranchStats:
    """Statistics of all years' triples pooled; the median map's thresholds."""
    if not triples_per_year:
        raise DataError("empty corpus")
    return branch_stats_from_triples(
        np.concatenate([triples_per_year[y] for y in sorted(triples_per_year)])
    )


def branch_stats(corpus: Corpus, counting: str = "membership") -> BranchStats:
    """Table-1-style per-branch mean / population sd / median."""
    return branch_stats_from_triples(corpus_triples(corpus, counting))


def distribution_of_counts(
    corpus: Corpus, alpha: str, counting: str = "membership"
) -> dict[int, float]:
    """Empirical probability of observing n branch-``alpha`` descriptors."""
    if alpha not in BRANCHES:
        raise ValueError(f"branch must be one of {BRANCHES}")
    column = corpus_triples(corpus, counting)[:, BRANCHES.index(alpha)]
    if len(column) == 0:
        raise DataError("empty corpus")
    counts = np.bincount(column)
    total = counts.sum()
    return {int(n): c / total for n, c in enumerate(counts) if c > 0}


class WilcoxonResult(NamedTuple):
    statistic: float
    p_value: float
    n_effective: int


def wilcoxon_signed_rank(x: Sequence[float], y: Sequence[float]) -> WilcoxonResult:
    """Two-sided paired signed-rank test.

    Zero differences are discarded before ranking; ties get midranks.
    The statistic is |W+ - W-|, the absolute difference of the positive
    and negative rank sums.  For up to 25 effective pairs the p-value is
    exact (full enumeration of the 2^n sign assignments, computed by
    dynamic programming); beyond that a normal approximation with the
    tie-exact rank variance is used.
    """
    xa = np.asarray(x)
    ya = np.asarray(y)
    if xa.shape != ya.shape or xa.ndim != 1 or len(xa) == 0:
        raise ValueError("x and y must be equal-length non-empty 1-d samples")
    # one float array: the samples are cast as they are subtracted, as
    # ``np.asarray(x, dtype=float)`` would cast them
    with np.errstate(invalid="ignore", over="ignore"):
        d = np.subtract(xa, ya, dtype=float, casting="unsafe")
    if not np.isfinite(d).all():
        raise ValueError("x - y must be finite: a NaN or infinite difference has no rank")
    d = d[d != 0]
    n = len(d)
    if n == 0:
        return WilcoxonResult(0.0, 1.0, 0)
    ranks = _midranks(np.abs(d))
    w_plus = float(ranks[d > 0].sum())
    w_minus = float(ranks[d < 0].sum())
    statistic = abs(w_plus - w_minus)
    if n <= EXACT_WILCOXON_LIMIT:
        p = _exact_signed_rank_p(ranks, w_plus)
    else:
        total = float(ranks.sum())
        var = float((ranks**2).sum()) / 4.0
        z = (w_plus - total / 2.0) / math.sqrt(var)
        p = min(1.0, math.erfc(abs(z) / math.sqrt(2.0)))
    return WilcoxonResult(statistic, p, n)


def _midranks(values: np.ndarray) -> np.ndarray:
    """1-based ranks of a 1-d array; tied values share the mean of their ranks."""
    ordered = np.sort(values)
    # a value's tie group sits at sorted positions start..end-1, and holds
    # ranks start+1..end
    start = np.searchsorted(ordered, values, side="left")
    end = np.searchsorted(ordered, values, side="right")
    end += start
    end += 1
    return 0.5 * end


def _exact_signed_rank_p(ranks: np.ndarray, w_plus: float) -> float:
    # Midranks are multiples of 1/2; doubling makes every sum an integer.
    doubled = np.rint(2 * ranks).astype(np.int64)
    total = int(doubled.sum())
    counts = np.zeros(total + 1)
    counts[0] = 1.0
    for r in doubled:
        shifted = np.zeros_like(counts)
        shifted[r:] = counts[: len(counts) - r]
        counts += shifted
    observed_dev = abs(2 * int(round(2 * w_plus)) - total)
    sums = np.arange(total + 1)
    extreme = np.abs(2 * sums - total) >= observed_dev
    return float(counts[extreme].sum() / counts.sum())
