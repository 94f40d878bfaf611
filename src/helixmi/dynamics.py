"""Descriptor-level temporal analytics.

Covers the rank-trajectory view of the top-K descriptors (yearly rank
folded into six percentile bands), the detection of descriptors
entering a corpus after its first year with a net-impact score, the
most frequent cross-branch descriptor pairs, and the yearly branch
occupancy shares.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .corpus import Corpus, row_chunks
from .counts import BRANCHES, branch_matrix
from .errors import DataError
from .scaling import ranked_columns

ABSENT = -2
OUT_OF_TOPK = -1


def sextile_sizes(k: int) -> list[int]:
    """Partition sizes of ranks 1..k into six contiguous bands.

    A nominal "six groups of 33" covers only 198 of the top 200, so the
    remainder is spread over the leading bands: k = 200 gives
    (34, 34, 33, 33, 33, 33).
    """
    q, rem = divmod(k, 6)
    return [q + 1] * rem + [q] * (6 - rem)


@dataclass
class RankTrajectoryMatrix:
    """Rows: top-K descriptors by all-years usage; columns: years.

    Cell codes: -2 absent that year, -1 present but ranked beyond K,
    1..6 the yearly-rank sextile.
    """

    descriptor_ids: list[str]
    years: list[int]
    cells: np.ndarray
    k: int


def rank_trajectories(corpus: Corpus, k: int = 200) -> RankTrajectoryMatrix:
    years = corpus.years()
    if len(years) < 2:
        raise DataError("rank trajectories need a corpus spanning at least 2 years")
    if k < 0:
        raise ValueError(f"k must be non-negative, got {k}")
    counts = corpus.year_counts
    top = ranked_columns(counts.sum(axis=0))[:k]
    k = len(top)
    band_ends = np.cumsum(sextile_sizes(k))

    cells = np.full((k, len(years)), ABSENT, dtype=np.int64)
    for j, year_counts in enumerate(counts):
        ranks = np.zeros(len(year_counts), dtype=np.int64)
        order = ranked_columns(year_counts)
        ranks[order] = np.arange(1, len(order) + 1)
        r = ranks[top]
        # the 1-based band of the rank: the first band whose end reaches it
        sextile = np.searchsorted(band_ends, r) + 1
        cells[:, j] = np.where(r == 0, ABSENT, np.where(r > k, OUT_OF_TOPK, sextile))
    ids = corpus.vocabulary.column_ids
    return RankTrajectoryMatrix(
        descriptor_ids=[ids[j] for j in top.tolist()], years=years, cells=cells, k=k
    )


@dataclass(frozen=True)
class EntryRecord:
    descriptor_id: str
    birth_year: int
    impact: float
    primary_branch: str


def detect_entries(corpus: Corpus, k: int = 200) -> list[EntryRecord]:
    """Top-K descriptors whose first appearance postdates the corpus start.

    Descriptors already present in the first year are left-censored
    (entry cannot be distinguished from pre-existing use) and skipped.
    The impact of an entrant is its appearance count from birth year to
    the end, normalized by the appearances of the whole top-K set over
    that same window.
    """
    if k < 0:
        raise ValueError(f"k must be non-negative, got {k}")
    years = corpus.years()
    if not years:
        return []
    counts = corpus.year_counts
    top = ranked_columns(counts.sum(axis=0))[:k]
    top_counts = counts[:, top]
    # every top-K descriptor is used in some year, so argmax finds its first
    births = np.argmax(top_counts > 0, axis=0)
    # appearances from each year through the end: per descriptor and for
    # the whole top-K set, so each entrant's normalizer is a single lookup
    own_from = np.cumsum(top_counts[::-1], axis=0)[::-1]
    topk_mass_from = own_from.sum(axis=1).tolist()
    own = own_from[births, np.arange(len(top))].tolist()

    ids = corpus.vocabulary.column_ids
    primary = corpus.vocabulary.primary_branches
    entries = []
    for col, birth, own_count in zip(top.tolist(), births.tolist(), own):
        if birth == 0:
            continue
        normalizer = topk_mass_from[birth]
        impact = own_count / normalizer if normalizer else 0.0
        entries.append(
            EntryRecord(
                descriptor_id=ids[col],
                birth_year=years[birth],
                impact=impact,
                primary_branch=primary[col],
            )
        )
    entries.sort(key=lambda e: (e.birth_year, -e.impact, e.descriptor_id))
    return entries


@dataclass(frozen=True)
class PairRecord:
    descriptor_a: str
    descriptor_b: str
    co_count: int
    window: tuple[int, int]


def top_pairs(
    corpus: Corpus,
    branch_a: str,
    branch_b: str,
    window: tuple[int, int] | None = None,
    limit: int = 10,
) -> list[PairRecord]:
    """Most frequent cross-branch descriptor pairs by publication presence.

    A publication counts once toward a pair if it carries both
    descriptors, regardless of multiplicity.  Branch membership is used,
    so a descriptor affiliated with both branches can appear on either
    side, but never paired with itself.

    The window's rows are paired a chunk at a time, and the chunks' pair
    counts are merged once, so beyond the result this holds one chunk's
    pairs and the distinct pairs of every chunk.
    """
    if branch_a == branch_b or branch_a not in BRANCHES or branch_b not in BRANCHES:
        raise ValueError("branches must be two distinct letters among C, D, E")
    if limit < 0:
        raise ValueError(f"limit must be non-negative, got {limit}")
    years = corpus.years()
    if window is None:
        if not years:
            return []
        window = (years[0], years[-1])
    lo, hi = window
    # the window's years are one contiguous run of rows
    in_window = [rows for y, rows in corpus.by_year.items() if lo <= y <= hi]
    if not in_window or limit == 0:
        return []
    indptr, indices = corpus.incidence
    member = branch_matrix(corpus.vocabulary, "membership")
    is_a = member[:, BRANCHES.index(branch_a)].astype(bool)
    is_b = member[:, BRANCHES.index(branch_b)].astype(bool)
    ids = corpus.vocabulary.column_ids
    width = len(ids)
    code_runs, count_runs = [], []
    for start, stop in row_chunks(indptr, in_window[0].start, in_window[-1].stop):
        cols = indices[indptr[start]:indptr[stop]]
        row = np.repeat(np.arange(stop - start), np.diff(indptr[start:stop + 1]))
        in_a, in_b = is_a[cols], is_b[cols]
        a_rows, b_cols = row[in_a], cols[in_b]
        # the B entries keep row order, so row r's run of them starts at b_start[r]
        b_per_row = np.bincount(row[in_b], minlength=stop - start)
        b_start = np.cumsum(b_per_row) - b_per_row
        # pair each A entry with every B entry of its row: the k-th copy of an
        # A entry in row r takes the B entry at b_start[r] + k
        fan = b_per_row[a_rows]
        first_copy = np.cumsum(fan) - fan
        a = np.repeat(cols[in_a], fan)
        b = b_cols[np.arange(len(a)) + np.repeat(b_start[a_rows] - first_copy, fan)]
        distinct = a != b
        codes, counts = np.unique(a[distinct].astype(np.int64) * width + b[distinct],
                                  return_counts=True)
        code_runs.append(codes)
        count_runs.append(counts)
    # merge the chunks' ascending (code, count) runs, summing the counts of
    # equal codes; each run list is dropped once joined, to hold fewer copies
    codes = np.concatenate(code_runs)
    del code_runs
    if len(codes) == 0:
        return []
    counts = np.concatenate(count_runs)
    del count_runs
    order = np.argsort(codes)
    codes = codes[order]
    counts = counts[order]
    del order
    # codes are non-negative, so the first one starts a run too
    starts = np.flatnonzero(np.diff(codes, prepend=-1))
    codes = codes[starts]
    counts = np.add.reduceat(counts, starts)
    if limit < len(counts):
        # only counts at or above the limit-th largest can make the cut
        kth = np.partition(counts, len(counts) - limit)[len(counts) - limit]
        codes, counts = codes[counts >= kth], counts[counts >= kth]
    # codes ascend by (column a, column b) and columns follow sorted id, so
    # a stable sort by descending count gives the (-count, id_a, id_b) order
    order = np.argsort(-counts, kind="stable")[:limit]
    a, b = np.divmod(codes[order], width)
    return [
        PairRecord(descriptor_a=ids[i], descriptor_b=ids[j], co_count=n, window=window)
        for i, j, n in zip(a.tolist(), b.tolist(), counts[order].tolist())
    ]


@dataclass(frozen=True)
class BranchShare:
    year: int
    share_c: float | None
    share_d: float | None
    share_e: float | None


def branch_share_series(corpus: Corpus, counting: str = "membership") -> list[BranchShare]:
    """Yearly fraction of C/D/E descriptor occurrences held by each branch."""
    totals = corpus.year_counts @ branch_matrix(corpus.vocabulary, counting)
    rows = []
    for year, year_totals in zip(corpus.years(), totals.tolist()):
        denom = sum(year_totals)
        if denom == 0:
            rows.append(BranchShare(year, None, None, None))
        else:
            c, d, e = (float(t) / denom for t in year_totals)
            rows.append(BranchShare(year, c, d, e))
    return rows
