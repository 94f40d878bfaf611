"""The publication corpus: one query's publications as arrays, by year.

Rows hold packed ids (``PackedStrings``), years and the publications x
descriptors incidence in CSR form, in (year, id) order.  The canonical
lines are defined here, so that hashing a corpus reads no file format;
the parsers and the writers are in ``formats``, their names are still
found here, and ``formats`` is imported when one is first asked for.
"""

from __future__ import annotations

import json
from collections import Counter
from dataclasses import dataclass, field
from functools import cached_property
from typing import Iterator, NamedTuple

import numpy as np

from .errors import DataError
from .mesh import Vocabulary
from .packed import PackedStrings, _take_rows, pack_strings, string_ranks, unpack_strings


class CorpusFormatError(DataError):
    """Raised when a corpus file cannot be parsed."""


@dataclass(frozen=True)
class Publication:
    """One record: identifier, publication year, deduplicated descriptor ids."""

    id: str
    year: int
    mesh_ids: tuple[str, ...]


@dataclass
class IngestReport:
    excluded_no_mesh: int = 0
    excluded_year: int = 0
    excluded_duplicate: int = 0
    skipped_malformed: int = 0
    unresolved_terms: Counter = field(default_factory=Counter)
    # JSONL lines parsed as canonical lines and with ``json.loads``; not
    # part of the summary or the JSON form
    template_lines: int = 0
    json_lines: int = 0

    def _counts(self) -> dict:
        return {
            "excluded_no_mesh": self.excluded_no_mesh,
            "excluded_year": self.excluded_year,
            "excluded_duplicate": self.excluded_duplicate,
            "skipped_malformed": self.skipped_malformed,
        }

    def summary(self) -> dict:
        """The excluded and skipped counts, the number of distinct
        unresolved terms and their total."""
        return {
            **self._counts(),
            "unresolved_distinct": len(self.unresolved_terms),
            "unresolved_total": sum(self.unresolved_terms.values()),
        }

    def to_json_dict(self) -> dict:
        terms = sorted(self.unresolved_terms.items(), key=lambda kv: (-kv[1], kv[0]))
        return {
            **self._counts(),
            "unresolved_terms": [{"name": n, "count": c} for n, c in terms],
        }


class Incidence(NamedTuple):
    """The (publications x descriptors) 0/1 matrix in CSR form: the
    descriptor columns of row i are ``indices[indptr[i]:indptr[i + 1]]``,
    ascending in every corpus that ingest and synth build
    (``Corpus.from_arrays`` keeps the order it is given)."""

    indptr: np.ndarray  # int64, one more entry than there are rows
    indices: np.ndarray  # int32 column positions


# Passes over a corpus's descriptor entries (year counts, branch triples,
# pairs, canonical lines) read the rows in chunks of at most this many
# entries, so their temporaries scale with one chunk instead of the corpus.
# On a 62k-publication corpus (680k entries) each pass is then as fast as
# over the whole corpus at once, and no chunk needs more than a few MB;
# smaller chunks made the pairs pass slower, larger ones the others bigger.
CHUNK_ENTRIES = 1 << 17


def row_chunks(
    indptr: np.ndarray, first: int = 0, stop: int | None = None, entries: int | None = None
) -> Iterator[tuple[int, int]]:
    """Consecutive ``(lo, hi)`` row ranges that tile rows ``first`` to
    ``stop`` of a CSR ``indptr``: each holds at most ``entries`` entries
    (``CHUNK_ENTRIES`` when None), or is one row that alone holds more."""
    stop = len(indptr) - 1 if stop is None else stop
    entries = CHUNK_ENTRIES if entries is None else entries
    lo = first
    while lo < stop:
        # the last row boundary within that many entries of row lo's start
        hi = int(np.searchsorted(indptr, indptr[lo] + entries, side="right")) - 1
        hi = min(max(hi, lo + 1), stop)
        yield lo, hi
        lo = hi


def _year_cuts(years: np.ndarray) -> list[int]:
    """0, each row whose year differs from the row before's, and the row
    count: the bounds of the runs of equal years.  The years are compared,
    not subtracted, as a difference of int64 years can overflow."""
    return [0, *(np.flatnonzero(years[1:] != years[:-1]) + 1).tolist(), len(years)]


def _row_order(ranks: np.ndarray, years: np.ndarray) -> np.ndarray | None:
    """The (year, id) order of rows whose ids have ``ranks``, rows with
    equal keys in their own order; None when the rows are in it already."""
    later = years[1:] > years[:-1]
    later |= (years[1:] == years[:-1]) & (ranks[1:] >= ranks[:-1])
    return None if later.all() else np.lexsort((ranks, years))


@dataclass(eq=False)
class Corpus:
    """Immutable per-query corpus with yearly partitions, held as arrays.

    Row i is one publication: its id, string i of the packed column
    ``ids``, ``pub_years[i]`` and the descriptor columns of row i in
    ``incidence``, positions in ``vocabulary.column_ids``.  Rows are in
    canonical (year, id) order so that serialization and all downstream
    derivations are deterministic; each year is then one contiguous run
    of rows, and ``by_year`` maps it to that ``range``.

    The ids stay packed: ``decode_ids`` decodes a range of rows, which
    the canonical writer does a chunk of rows at a time, and ``pub_ids``
    decodes them all on first read, which no command does.

    A corpus is built by :meth:`from_sorted_arrays` from arrays already
    in that order: those the parsers' record sink (``formats``) has put in
    order, a cache entry's or the synthetic generator's.
    :meth:`from_arrays` sorts flat arrays first.
    Count-based analyses read ``incidence`` and its per-year sums
    ``year_counts`` (built on first use and cached).  ``publications``
    gives the rows as :class:`Publication` objects, built on first read;
    no command reads it.
    """

    query_label: str
    vocabulary: Vocabulary
    ids: PackedStrings
    pub_years: np.ndarray  # int64
    incidence: Incidence
    by_year: dict[int, range]

    @classmethod
    def from_arrays(
        cls,
        query_label: str,
        vocabulary: Vocabulary,
        pub_ids: list[str],
        pub_years,
        indptr,
        indices,
    ) -> "Corpus":
        """Rows given as flat arrays, sorted by (year, id) unless they are
        in that order already, with their ids packed; rows with equal keys
        keep their order."""
        ids = pack_strings(pub_ids)
        years = np.asarray(pub_years, dtype=np.int64)
        indptr = np.asarray(indptr, dtype=np.int64)
        indices = np.asarray(indices, dtype=np.int32)
        # rows already in order (the canonical JSONL that ``ingest`` writes)
        # keep their arrays, as the gather holds one more index per entry
        order = _row_order(string_ranks(ids), years)
        if order is not None:
            ids = PackedStrings(*_take_rows(*ids, order))
            years = years[order]
            indptr, indices = _take_rows(indptr, indices, order)
        return cls.from_sorted_arrays(query_label, vocabulary, ids, years, indptr, indices)

    @classmethod
    def from_sorted_arrays(
        cls,
        query_label: str,
        vocabulary: Vocabulary,
        ids: PackedStrings,
        pub_years: np.ndarray,
        indptr: np.ndarray,
        indices: np.ndarray,
    ) -> "Corpus":
        """A corpus of rows already in (year, id) order, such as another
        corpus's arrays: packed ids, int64 years and indptr, int32
        indices."""
        cuts = _year_cuts(pub_years) if len(pub_years) else []
        firsts = pub_years[cuts[:-1]].tolist()
        return cls(
            query_label=query_label,
            vocabulary=vocabulary,
            ids=ids,
            pub_years=pub_years,
            incidence=Incidence(indptr, indices),
            by_year={y: range(a, b) for y, a, b in zip(firsts, cuts, cuts[1:])},
        )

    def __len__(self) -> int:
        return len(self.pub_years)

    def years(self) -> list[int]:
        return sorted(self.by_year)

    def decode_ids(self, lo: int = 0, hi: int | None = None) -> list[str]:
        """The ids of rows ``lo`` to ``hi`` (the last when None)."""
        return unpack_strings(self.ids, lo, hi)

    @cached_property
    def pub_ids(self) -> tuple[str, ...]:
        """Every row's id, decoded on first read."""
        return tuple(self.decode_ids())

    @cached_property
    def publications(self) -> tuple[Publication, ...]:
        """The rows as ``Publication`` objects, built on first read."""
        indptr, indices = self.incidence
        names = np.array(self.vocabulary.column_ids, dtype=object)[indices].tolist()
        bounds = indptr.tolist()
        rows = zip(self.pub_ids, self.pub_years.tolist(), bounds, bounds[1:])
        return tuple(Publication(i, y, tuple(names[lo:hi])) for i, y, lo, hi in rows)

    @cached_property
    def year_counts(self) -> np.ndarray:
        """(years x descriptors) publication counts, rows in ``years()`` order.

        Each year's row is ``column_counts`` of its rows, so beyond the
        result this holds one chunk's counts."""
        counts = np.zeros((len(self.by_year), len(self.vocabulary)), dtype=np.int64)
        for row, year in zip(counts, self.years()):
            row[:] = column_counts(self, self.by_year[year])
        return counts


def column_counts(corpus: Corpus, rows: range | None = None) -> np.ndarray:
    """Publications per descriptor column over a range of rows (all of
    them when None), summed from ``np.bincount`` of the entries a chunk of
    rows at a time."""
    indptr, indices = corpus.incidence
    rows = range(len(corpus)) if rows is None else rows
    width = len(corpus.vocabulary)
    counts = np.zeros(width, dtype=np.int64)
    for lo, hi in row_chunks(indptr, rows.start, rows.stop):
        counts += np.bincount(indices[indptr[lo]:indptr[hi]], minlength=width)
    return counts


# The canonical writer's chunks of rows hold fewer entries than those of
# ``CHUNK_ENTRIES``: its temporaries are Python objects, a reference per
# entry and a line per row.  A 62k-publication ``ingest`` held 5.3 MB
# more than its load while writing with chunks of 2^17 entries, 0.8 MB
# with chunks of 2^15 and 0.3 MB with chunks of 2^13, which write as
# fast; with 2^15, the writes of a cold MEDLINE ``ingest`` peaked above
# its parse.
LINE_CHUNK_ENTRIES = 1 << 13

# what ``json.JSONEncoder`` (``ensure_ascii`` by default) applies to a str
_encode_str = json.encoder.encode_basestring_ascii


def corpus_canonical_lines(corpus: Corpus) -> Iterator[bytes]:
    """The canonical serialization one UTF-8 line at a time, LF included.

    Each line holds the bytes ``json.JSONEncoder(sort_keys=True,
    separators=(",", ":"))`` gives for ``{"id", "year", "mesh"}``; every
    descriptor id is encoded once, not once per row that carries it, and
    the encoded names and the ids are gathered a chunk of rows at a time.
    """
    indptr, indices = corpus.incidence
    # decoded for this pass only, and dropped once encoded: the vocabulary
    # keeps its ids packed
    ids = unpack_strings(corpus.vocabulary.packed_ids)
    names = np.array([_encode_str(uid) for uid in ids], dtype=object)
    del ids
    join = ",".join
    for lo, hi in row_chunks(indptr, entries=LINE_CHUNK_ENTRIES):
        start = indptr[lo]
        mesh = names[indices[start:indptr[hi]]].tolist()
        bounds = (indptr[lo:hi + 1] - start).tolist()
        rows = zip(corpus.decode_ids(lo, hi), corpus.pub_years[lo:hi].tolist(), bounds, bounds[1:])
        for pub_id, year, a, b in rows:
            line = f'{{"id":{_encode_str(pub_id)},"mesh":[{join(mesh[a:b])}],"year":{year}}}\n'
            yield line.encode("ascii")


@dataclass(frozen=True)
class YearlySizes:
    year: int
    publications: int
    total_descriptors: int
    distinct_descriptors: int
    mean_per_publication: float


def year_volumes(corpus: Corpus) -> tuple[np.ndarray, np.ndarray]:
    """Each year's descriptor assignments M and distinct descriptors V, in
    ``years()`` order, as int64 arrays: M from the year's row bounds, V
    from its ``column_counts``, one year's counts at a time."""
    indptr = corpus.incidence.indptr
    years = [corpus.by_year[year] for year in corpus.years()]
    total = np.array([indptr[rows.stop] - indptr[rows.start] for rows in years], dtype=np.int64)
    distinct = np.array([np.count_nonzero(column_counts(corpus, rows)) for rows in years],
                        dtype=np.int64)
    return total, distinct


def yearly_sizes(corpus: Corpus) -> list[YearlySizes]:
    """Per-year publication and descriptor volume/vocabulary table, from
    ``year_volumes``."""
    total, distinct = year_volumes(corpus)
    rows = []
    for year, m, v in zip(corpus.years(), total.tolist(), distinct.tolist()):
        pubs = len(corpus.by_year[year])
        rows.append(YearlySizes(year=year, publications=pubs, total_descriptors=m,
                                distinct_descriptors=v, mean_per_publication=m / pubs))
    return rows


# the names of ``formats`` that this module defined before, still found here
_FORMATS_NAMES = frozenset({"corpus_canonical_bytes", "ingest_jsonl", "ingest_medline_text",
                            "write_corpus_jsonl"})


def __getattr__(name: str):
    if name not in _FORMATS_NAMES:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    from . import formats

    return getattr(formats, name)
