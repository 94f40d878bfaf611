"""Entropy and mutual-information kernel over discrete joint tables.

All quantities are plug-in maximum-likelihood estimates in bits
(base-2 logarithm, with 0*log 0 = 0).  For two variables

    T_xy = H_x + H_y - H_xy >= 0,

and for three

    T_xyz = H_x + H_y + H_z - H_xy - H_xz - H_yz + H_xyz,

which can take either sign; negative values read as synergetic
integration among the three channels.  The identity

    T_xyz = (T_xy + T_xz + T_yz) + (H_xyz - H_x - H_y - H_z)

splits it into a non-negative pairwise part and a non-positive
subadditivity gap, and is used as a diagnostic throughout the tests.

Probabilities are accumulated in descending order so that summation
error stays well inside the 1e-9 bit end-to-end budget.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from itertools import combinations
from typing import Iterable, Mapping, Sequence

import numpy as np

from .corpus import Corpus
from .counts import (
    BRANCHES,
    MAP_KINDS,
    BranchStats,
    apply_count_map,
    pooled_branch_stats,
    triples_by_year,
)
from .errors import DataError

PROB_TOLERANCE = 1e-12
LOW_SUPPORT_THRESHOLD = 30


def _axis_ranks(shifted: np.ndarray) -> tuple[np.ndarray, int]:
    """Rank of each value among the distinct values of its row of the
    (B, n) non-negative ``shifted``, and the most distinct values of a row."""
    b, n = shifted.shape
    span = int(shifted.max()) + 1
    key = np.arange(b)[:, None] * span + shifted
    if span <= 4 * n + 64:
        seen = np.bincount(key.ravel(), minlength=b * span).reshape(b, span) > 0
        ranks = np.cumsum(seen, axis=1) - 1
        return ranks.ravel()[key], int(ranks[:, -1].max()) + 1
    # sparse values (a table keyed by large integers): no span-long array
    distinct, inverse = np.unique(key.ravel(), return_inverse=True)
    starts = np.searchsorted(distinct, np.arange(b + 1) * span)
    return inverse.reshape(b, n) - starts[:-1, None], int(np.diff(starts).max())


def joint_histograms(
    rows: np.ndarray, weights: np.ndarray | None = None, code: np.ndarray | None = None
) -> np.ndarray:
    """Counts (or summed ``weights``) of each of B stacked blocks of (n, d)
    integer rows, as a (B, k_1, ..., k_d) array with one axis per column.
    ``code``, a (B, n) intp array, is overwritten with each row's cell;
    without it one is allocated.

    Each column is shifted to start at 0.  Where the shifted columns span
    more than 4n + 64 cells together, or ``weights`` are summed, every
    axis is compacted to the values that occur, ``k_i`` being the most
    distinct values any block has in column i.  Small counts are left as
    they are: integer sums are exact whatever empty cells the table holds,
    while float sums depend on the cells they run over."""
    b, n, d = rows.shape
    if n == 0:
        raise DataError("no observations")
    columns = np.moveaxis(rows, 2, 0)
    lows = [int(column.min()) for column in columns]
    shape = [int(column.max()) - low + 1 for column, low in zip(columns, lows)]
    code = np.empty((b, n), dtype=np.intp) if code is None else code
    code[:] = np.arange(b)[:, None]
    if weights is None and math.prod(shape) <= 4 * n + 64:
        # Horner's rule on the unshifted columns; the shift of every
        # column is one constant, taken off once
        shift = 0
        for column, low, k in zip(columns, lows, shape):
            code *= k
            code += column
            shift = shift * k + low
        code -= shift
    else:
        shape = []
        for column, low in zip(columns, lows):
            ranks, k = _axis_ranks(column - low)
            code *= k
            code += ranks
            shape.append(k)
        weights = None if weights is None else weights.ravel()
    cells = b * math.prod(shape)
    return np.bincount(code.ravel(), weights=weights, minlength=cells).reshape(b, *shape)


def joint_histogram(rows: np.ndarray, weights: np.ndarray | None = None) -> np.ndarray:
    """:func:`joint_histograms` of one block of (n, d) rows."""
    return joint_histograms(rows[None], None if weights is None else weights[None])[0]


def _subsets(axes: Sequence[int]) -> list[tuple[int, ...]]:
    """Non-empty subsets of ``axes``, by size, then in order."""
    return [s for size in range(1, len(axes) + 1) for s in combinations(axes, size)]


def _row_entropies(marginal: np.ndarray, totals: np.ndarray) -> np.ndarray:
    """Entropy, in bits, of each row of (B, K) ``marginal`` over its total."""
    # only the columns some row has positive, and rows in order of support
    # size, so that rows of one size form a slice
    marginal = marginal[:, marginal.any(axis=0)]
    support = np.count_nonzero(marginal, axis=1)
    order = np.argsort(support, kind="stable")
    support = support[order]
    # dividing by a row's total keeps the row's order, so sort the counts;
    # zeros sort first
    ascending = np.sort(marginal[order], axis=1)[:, marginal.shape[1] - support[-1]:]
    ascending = ascending / totals[order, None]
    # log2 runs on a reversed one-dimensional view: numpy's vector loop for
    # contiguous input can differ in the last bit
    descending = ascending.ravel()[::-1]
    with np.errstate(divide="ignore", invalid="ignore"):
        terms = np.log2(descending)
        terms *= descending
    terms = terms.reshape(ascending.shape)[::-1]
    # each row's positive terms lead in descending order; rows of one
    # support size are summed together, which keeps numpy's pairwise
    # summation order of a single row
    sums = np.empty(len(order))
    edges = [0, *(np.flatnonzero(np.diff(support)) + 1), len(order)]
    for lo, hi in zip(edges[:-1], edges[1:]):
        terms[lo:hi, :support[lo]].sum(axis=1, out=sums[lo:hi])
    h = np.empty(len(order))
    # subtracted from 0.0, not negated: a single-cell table's sum, 0.0,
    # gives 0.0 and not -0.0
    h[order] = 0.0 - sums
    return h


def stacked_subset_entropies(hists: np.ndarray) -> dict[tuple[int, ...], np.ndarray]:
    """Entropy, in bits, of the marginal on every non-empty axis subset of
    each of the B non-empty tables stacked along axis 0 of ``hists``."""
    b = len(hists)
    axes = tuple(range(hists.ndim - 1))
    totals = hists.reshape(b, -1).sum(axis=1)
    marginals = {axes: hists}
    out = {}
    for size in range(len(axes), 0, -1):
        subsets = list(combinations(axes, size))
        if size == len(axes):
            rows = hists.reshape(b, -1)
        else:
            # each marginal is summed from one with an axis more, into its
            # part of one zero-padded array: the marginals of one size go
            # through one entropy pass
            width = max(math.prod(hists.shape[a + 1] for a in s) for s in subsets)
            padded = np.zeros((len(subsets), b, width), dtype=hists.dtype)
            for part, subset in zip(padded, subsets):
                extra = min(set(axes) - set(subset))
                parent = tuple(sorted((*subset, extra)))
                shape = [hists.shape[a + 1] for a in subset]
                marginals[subset] = marginals[parent].sum(
                    axis=1 + parent.index(extra), out=part[:, :math.prod(shape)].reshape(b, *shape)
                )
            rows = padded.reshape(-1, width)
        h = _row_entropies(rows, np.tile(totals, len(subsets)))
        out.update(zip(subsets, h.reshape(len(subsets), b)))
    return {subset: out[subset] for subset in _subsets(axes)}


def subset_entropies(hist: np.ndarray) -> dict[tuple[int, ...], float]:
    """Entropy, in bits, of the marginal on every non-empty axis subset."""
    return {s: float(h[0]) for s, h in stacked_subset_entropies(hist[None]).items()}


def _information(h: Mapping[tuple[int, ...], float], axes: Sequence[int]) -> float:
    """T over ``axes`` by inclusion-exclusion: T_xy = H_x + H_y - H_xy, and
    T_xyz = H_x + H_y + H_z - H_xy - H_xz - H_yz + H_xyz.  Entropies given
    as arrays give T elementwise."""
    t = 0.0
    for subset in _subsets(axes):
        t += h[subset] if len(subset) % 2 else -h[subset]
    return t


@dataclass
class JointTable:
    """Empirical joint distribution over 1-3 integer-valued axes.

    ``cells`` maps value tuples to probabilities; zero-probability cells
    are never stored.  ``n_obs`` records how many observations back the
    estimate, when known.
    """

    dims: tuple[str, ...]
    cells: dict[tuple[int, ...], float]
    n_obs: int | None = None

    def __post_init__(self) -> None:
        self.dims = tuple(self.dims)
        if not 1 <= len(self.dims) <= 3:
            raise ValueError("JointTable supports 1 to 3 dimensions")
        if not self.cells:
            raise ValueError("JointTable must have at least one cell")
        total = 0.0
        for key, p in self.cells.items():
            if len(key) != len(self.dims):
                raise ValueError(f"cell {key!r} does not match dims {self.dims!r}")
            if not 0.0 < p <= 1.0 + PROB_TOLERANCE:
                raise ValueError(f"cell {key!r} probability {p!r} outside (0, 1]")
            total += p
        if abs(total - 1.0) > PROB_TOLERANCE:
            raise ValueError(f"probabilities sum to {total!r}, not 1")

    @classmethod
    def from_observations(
        cls, dims: Sequence[str], rows: Iterable[tuple[int, ...]]
    ) -> "JointTable":
        counts: dict[tuple[int, ...], int] = {}
        n = 0
        for row in rows:
            key = tuple(int(v) for v in row)
            counts[key] = counts.get(key, 0) + 1
            n += 1
        if n == 0:
            raise DataError("no observations")
        cells = {k: c / n for k, c in counts.items()}
        return cls(dims=tuple(dims), cells=cells, n_obs=n)

    def marginal(self, dims: Sequence[str]) -> "JointTable":
        """Marginalize onto a subset of this table's axes."""
        axes = tuple(self.dims.index(d) for d in dims)
        cells: dict[tuple[int, ...], float] = {}
        for key, p in self.cells.items():
            sub = tuple(key[a] for a in axes)
            cells[sub] = cells.get(sub, 0.0) + p
        return JointTable(dims=tuple(dims), cells=cells, n_obs=self.n_obs)


def _table_entropies(table: JointTable) -> dict[tuple[int, ...], float]:
    rows = np.array(list(table.cells), dtype=np.int64)
    probs = np.fromiter(table.cells.values(), dtype=float, count=len(table.cells))
    return subset_entropies(joint_histogram(rows, probs))


def entropy(table: JointTable) -> float:
    """Shannon entropy of the table, in bits."""
    return _table_entropies(table)[tuple(range(len(table.dims)))]


def mutual_info_2(table: JointTable, clamp: bool = True) -> float:
    """Pairwise mutual information of a 2-d table, in bits.

    The plug-in value is non-negative up to floating-point error; tiny
    negatives are clamped to zero unless ``clamp=False`` asks for the
    raw value.
    """
    if len(table.dims) != 2:
        raise ValueError("mutual_info_2 requires a 2-dimensional table")
    t = _information(_table_entropies(table), (0, 1))
    return max(t, 0.0) if clamp else t


def mutual_info_3(table: JointTable) -> float:
    """Three-way mutual (interaction) information of a 3-d table, signed."""
    if len(table.dims) != 3:
        raise ValueError("mutual_info_3 requires a 3-dimensional table")
    return _information(_table_entropies(table), (0, 1, 2))


@dataclass(frozen=True)
class Decomposition:
    pairwise_sum: float
    subadditivity_gap: float
    t3: float


def decomposition(table: JointTable) -> Decomposition:
    """Split the three-way information into its two contributions."""
    if len(table.dims) != 3:
        raise ValueError("decomposition requires a 3-dimensional table")
    h = _table_entropies(table)
    pairwise = sum(max(_information(h, pair), 0.0) for pair in combinations((0, 1, 2), 2))
    gap = h[(0, 1, 2)] - h[(0,)] - h[(1,)] - h[(2,)]
    return Decomposition(pairwise_sum=pairwise, subadditivity_gap=gap, t3=pairwise + gap)


def efficiency(counts: Iterable[float]) -> float:
    """Normalized usage entropy in [0, 1].

    ``counts`` are per-descriptor usage counts within one branch; zero
    counts are ignored.  A single-descriptor vocabulary carries zero
    diversity by convention (the 0/0 case of the formula).
    """
    arr = np.asarray(list(counts), dtype=float)
    if arr.size == 0 or (arr < 0).any():
        raise ValueError("counts must be non-negative with at least one entry")
    arr = arr[arr > 0]
    if arr.size == 0:
        raise ValueError("all counts are zero")
    v = arr.size
    if v == 1:
        return 0.0
    return subset_entropies(arr)[(0,)] / float(np.log2(v))


# ---------------------------------------------------------------------------
# Yearly series
# ---------------------------------------------------------------------------

TARGETS = ("T_CD", "T_CE", "T_DE", "T_CDE")


@dataclass(frozen=True)
class YearMi:
    year: int
    h_c: float
    h_d: float
    h_e: float
    h_cd: float
    h_ce: float
    h_de: float
    h_cde: float
    t_cd: float
    t_ce: float
    t_de: float
    t_cde: float
    n_obs: int
    low_support: bool

    def target(self, name: str) -> float:
        return {
            "T_CD": self.t_cd,
            "T_CE": self.t_ce,
            "T_DE": self.t_de,
            "T_CDE": self.t_cde,
        }[name]


@dataclass
class MiSeries:
    map_kind: str
    records: list[YearMi]

    def years(self) -> list[int]:
        return [r.year for r in self.records]


# C/D/E axis subset -> the YearMi field holding its entropy
_ENTROPY_FIELDS = {
    subset: "h_" + "".join(BRANCHES[a] for a in subset).lower()
    for subset in _subsets((0, 1, 2))
}


def year_entropies(vectors: np.ndarray) -> dict[str, float]:
    """All seven entropies (``h_c`` ... ``h_cde``) for one year's (n, 3) block."""
    h = subset_entropies(joint_histogram(vectors))
    return {name: h[subset] for subset, name in _ENTROPY_FIELDS.items()}


def _year_record(year: int, vectors: np.ndarray) -> YearMi:
    named = year_entropies(vectors)
    h = {subset: named[name] for subset, name in _ENTROPY_FIELDS.items()}
    t_cd, t_ce, t_de = (max(_information(h, pair), 0.0) for pair in combinations((0, 1, 2), 2))
    n = len(vectors)
    return YearMi(
        year=year,
        **named,
        t_cd=t_cd,
        t_ce=t_ce,
        t_de=t_de,
        t_cde=_information(h, (0, 1, 2)),
        n_obs=n,
        low_support=n < LOW_SUPPORT_THRESHOLD,
    )


def stacked_targets(
    vectors: np.ndarray, include_empty: bool = True, code: np.ndarray | None = None
) -> np.ndarray:
    """The :data:`TARGETS` of B stacked (n, 3) blocks of non-negative count
    vectors, as a (4, B) array: for each block the values
    :func:`mi_from_triples` gives for that block alone, or NaN where it
    has no vector left to evaluate.  ``code`` is the (B, n) scratch array
    :func:`joint_histograms` takes."""
    empty = None if include_empty else np.count_nonzero(~vectors.any(axis=2), axis=1)
    return table_targets(joint_histograms(vectors, code=code), empty)


def table_targets(hists: np.ndarray, empty: np.ndarray | None = None) -> np.ndarray:
    """The :data:`TARGETS` of B stacked (B, k_C, k_D, k_E) tables of
    non-negative count vectors from :func:`joint_histograms`, as a (4, B)
    array, NaN for a table that counts nothing.  ``empty`` gives each
    table's number of all-zero vectors, which are taken out first."""
    b = len(hists)
    if empty is not None:
        # zero is the smallest count on every axis, so a block's all-zero
        # vectors, if it has any, are exactly its cell (0, 0, 0)
        hists[:, 0, 0, 0] -= empty
    out = np.full((len(TARGETS), b), np.nan)
    valid = hists.reshape(b, -1).any(axis=1)
    if valid.any():
        h = stacked_subset_entropies(hists if valid.all() else hists[valid])
        for i, pair in enumerate(combinations((0, 1, 2), 2)):
            out[i, valid] = np.maximum(_information(h, pair), 0.0)
        out[3, valid] = _information(h, (0, 1, 2))
    return out


def mi_from_triples(
    triples_per_year: Mapping[int, np.ndarray],
    map_kind: str = "full",
    medians: BranchStats | None = None,
    include_empty: bool = True,
) -> MiSeries:
    """Yearly entropy/MI series from per-year branch-count arrays.

    ``include_empty`` keeps publications whose count vector is (0,0,0);
    they carry probability mass in the joint tables.  Disabling it is a
    sensitivity switch, not the default analysis.
    """
    if map_kind not in MAP_KINDS:
        raise ValueError(f"unknown count map {map_kind!r}")
    if map_kind == "median" and medians is None:
        medians = pooled_branch_stats(triples_per_year)
    records = []
    for year in sorted(triples_per_year):
        triples = triples_per_year[year]
        if len(triples) == 0:
            continue
        vectors = apply_count_map(triples, map_kind, medians)
        if not include_empty:
            vectors = vectors[vectors.any(axis=1)]
            if len(vectors) == 0:
                continue
        records.append(_year_record(year, vectors))
    return MiSeries(map_kind=map_kind, records=records)


def yearly_mi(
    corpus: Corpus,
    map_kind: str = "full",
    counting: str = "membership",
    include_empty: bool = True,
) -> MiSeries:
    """Per-year entropies and mutual information for a corpus.

    For the median map the thresholds are the medians of the pooled
    corpus (all years), matching how the per-query medians are reported.
    """
    if len(corpus) == 0:
        raise DataError("empty corpus")
    per_year = triples_by_year(corpus, counting)
    return mi_from_triples(per_year, map_kind=map_kind, include_empty=include_empty)
