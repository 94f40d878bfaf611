"""Publication corpus ingestion from MEDLINE text or canonical JSONL.

A corpus is an immutable snapshot of one query's publications,
partitioned by year.  Ingestion applies the exclusion rules used
throughout the pipeline: records with no resolvable MeSH descriptors
are dropped (and counted), records outside the configured year window
are dropped (and counted), duplicate ids keep their first occurrence,
and descriptor names that do not resolve against the vocabulary are
dropped per-term rather than per-record so that yearly publication
counts stay unbiased.

Both parsers hand each record to one sink, which resolves every
distinct term once and appends the kept records to flat arrays: ids,
years and the descriptor columns of each.  The corpus is those arrays,
sorted once; ``Publication`` objects are built only when asked for.
"""

from __future__ import annotations

import json
import re
from array import array
from collections import Counter
from dataclasses import dataclass, field
from functools import cached_property
from itertools import chain
from typing import Iterator, NamedTuple

import numpy as np

from .errors import DataError
from .mesh import Vocabulary


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
    ascending (``Corpus.build`` keeps each publication's own order)."""

    indptr: np.ndarray  # int64, one more entry than there are rows
    indices: np.ndarray  # int32 column positions


def _row_runs(starts: np.ndarray, lengths: np.ndarray, offsets: np.ndarray) -> np.ndarray:
    """The concatenated ranges ``starts[i]:starts[i] + lengths[i]``, whose
    runs begin at ``offsets[:-1]``: unit steps with a jump at the start of
    each run, summed in place, in int32 when the indices fit."""
    total = int(offsets[-1])
    dtype = np.int32 if total <= np.iinfo(np.int32).max else np.int64
    runs = np.ones(total, dtype=dtype)
    filled = lengths > 0
    starts, lengths = starts[filled], lengths[filled]
    if len(starts):
        last = starts + lengths - 1
        runs[offsets[:-1][filled]] = starts - np.concatenate(([0], last[:-1]))
    np.cumsum(runs, dtype=dtype, out=runs)
    return runs


@dataclass(eq=False)
class Corpus:
    """Immutable per-query corpus with yearly partitions, held as arrays.

    Row i is one publication: ``pub_ids[i]``, ``pub_years[i]`` and the
    descriptor columns of row i in ``incidence``, positions in
    ``vocabulary.column_ids``.  Rows are in canonical
    (year, id) order so that serialization and all downstream
    derivations are deterministic; each year is then one contiguous run
    of rows, and ``by_year`` maps it to that ``range``.

    Count-based analyses read ``incidence`` and its per-year sums
    ``year_counts`` (built on first use and cached).  ``publications``
    gives the rows as :class:`Publication` objects, built on first read.
    """

    query_label: str
    vocabulary: Vocabulary
    pub_ids: tuple[str, ...]
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
        """Sort rows given as flat arrays once by (year, id); rows with equal
        keys keep their order."""
        n = len(pub_ids)
        years = np.asarray(pub_years, dtype=np.int64)
        indptr = np.asarray(indptr, dtype=np.int64)
        indices = np.asarray(indices, dtype=np.int32)
        id_rank = np.empty(n, dtype=np.int64)
        id_rank[sorted(range(n), key=pub_ids.__getitem__)] = np.arange(n)
        order = np.lexsort((id_rank, years))
        # gather each row's run of entries in the new row order; rows already
        # in order (the canonical JSONL that ``ingest`` writes) keep their
        # arrays, as the gather holds one more index per entry
        if (np.diff(order) != 1).any():
            lengths = np.diff(indptr)[order]
            sorted_ptr = np.zeros(n + 1, dtype=np.int64)
            np.cumsum(lengths, out=sorted_ptr[1:])
            gather = _row_runs(indptr[:-1][order], lengths, sorted_ptr)
            pub_ids = [pub_ids[i] for i in order.tolist()]
            years, indptr, indices = years[order], sorted_ptr, indices[gather]
        cuts = [0, *(np.flatnonzero(np.diff(years)) + 1).tolist(), n] if n else []
        firsts = years[cuts[:-1]].tolist()
        return cls(
            query_label=query_label,
            vocabulary=vocabulary,
            pub_ids=tuple(pub_ids),
            pub_years=years,
            incidence=Incidence(indptr, indices),
            by_year={y: range(a, b) for y, a, b in zip(firsts, cuts, cuts[1:])},
        )

    @classmethod
    def build(
        cls, query_label: str, publications: list[Publication], vocabulary: Vocabulary
    ) -> "Corpus":
        """The corpus of ``Publication`` objects; each keeps its descriptor
        ids in the order given.

        Raises ``KeyError`` for an id missing from the vocabulary:
        ingestion is expected to have cleaned those.
        """
        column_of = vocabulary.column_of
        n = len(publications)
        indptr = np.zeros(n + 1, dtype=np.int64)
        np.cumsum(
            np.fromiter((len(p.mesh_ids) for p in publications), dtype=np.int64, count=n),
            out=indptr[1:],
        )
        indices = np.fromiter(
            (column_of[uid] for p in publications for uid in p.mesh_ids),
            dtype=np.int32,
            count=int(indptr[-1]),
        )
        years = np.fromiter((p.year for p in publications), dtype=np.int64, count=n)
        ids = [p.id for p in publications]
        return cls.from_arrays(query_label, vocabulary, ids, years, indptr, indices)

    def __len__(self) -> int:
        return len(self.pub_ids)

    def years(self) -> list[int]:
        return sorted(self.by_year)

    def rows(self) -> Iterator[tuple[str, int, list[str]]]:
        """Each row's id, year and descriptor ids, in corpus order."""
        indptr, indices = self.incidence
        names = np.array(self.vocabulary.column_ids, dtype=object)[indices].tolist()
        bounds = indptr.tolist()
        for pub_id, year, lo, hi in zip(self.pub_ids, self.pub_years.tolist(), bounds, bounds[1:]):
            yield pub_id, year, names[lo:hi]

    @cached_property
    def publications(self) -> tuple[Publication, ...]:
        """The rows as ``Publication`` objects, built on first read."""
        return tuple(Publication(i, y, tuple(mesh)) for i, y, mesh in self.rows())

    def publications_in(self, year: int) -> list[Publication]:
        rows = self.by_year.get(year, range(0))
        return list(self.publications[rows.start:rows.stop])

    @cached_property
    def year_counts(self) -> np.ndarray:
        """(years x descriptors) publication counts, rows in ``years()`` order."""
        indptr, indices = self.incidence
        width = len(self.vocabulary.column_ids)
        # the year ranges tile the rows in ``years()`` order, so the entries
        # of year j are one run, bounded by the indptr of its first and last row
        bounds = indptr[[0] + [self.by_year[y].stop for y in self.years()]]
        n_years = len(bounds) - 1
        year_row = np.repeat(np.arange(n_years), np.diff(bounds))
        counts = np.bincount(year_row * width + indices, minlength=n_years * width)
        return counts.reshape(n_years, width)


class _TermColumns(dict):
    """Memo of term -> descriptor column, -1 for a term the vocabulary
    cannot resolve; each distinct term is resolved once."""

    def __init__(self, vocabulary: Vocabulary) -> None:
        super().__init__()
        self.vocabulary = vocabulary

    def __missing__(self, term: str) -> int:
        uid = self.vocabulary.resolve(term)
        column = -1 if uid is None else self.vocabulary.column_of[uid]
        self[term] = column
        return column


class _RecordSink:
    """Admits parsed records into flat arrays, the rows of a corpus.

    The rules apply in order: a duplicate of an admitted id, then a year
    outside the window, then no resolvable descriptor.  Unresolved terms
    are counted in the report whatever becomes of their record.  Only
    strings and ints outlive a record, so the kept rows add no objects
    for the garbage collector to walk.
    """

    def __init__(
        self, vocabulary: Vocabulary, year_range: tuple[int, int] | None, report: IngestReport
    ) -> None:
        self.vocabulary = vocabulary
        self.year_range = year_range
        self.report = report
        self.columns = _TermColumns(vocabulary)
        self.seen: set[str] = set()
        self.ids: list[str] = []
        self.years = array("q")
        self.indptr = array("q", [0])
        self.indices = array("i")

    def add(self, pub_id: str, year: int, terms: list[str]) -> None:
        columns = self.columns
        cols = [columns[t] for t in terms]
        report = self.report
        if -1 in cols:
            for term, col in zip(terms, cols):
                if col < 0:
                    report.unresolved_terms[term] += 1
        if pub_id in self.seen:
            report.excluded_duplicate += 1
            return
        year_range = self.year_range
        if year_range is not None and not (year_range[0] <= year <= year_range[1]):
            report.excluded_year += 1
            return
        kept = sorted(set(cols))
        if kept and kept[0] < 0:
            del kept[0]
        if not kept:
            report.excluded_no_mesh += 1
            return
        self.seen.add(pub_id)
        self.ids.append(pub_id)
        self.years.append(year)
        self.indices.extend(kept)
        self.indptr.append(len(self.indices))

    def corpus(self, query_label: str) -> Corpus:
        return Corpus.from_arrays(
            query_label, self.vocabulary, self.ids, self.years, self.indptr, self.indices
        )


# years are kept as int64
_YEAR_LIMIT = 2**63


def ingest_jsonl(
    path: str,
    vocabulary: Vocabulary,
    year_range: tuple[int, int] | None = None,
    query_label: str = "",
) -> tuple[Corpus, IngestReport]:
    """Ingest canonical JSONL: one ``{"id","year","mesh"}`` object per line."""
    report = IngestReport()
    sink = _RecordSink(vocabulary, year_range, report)
    add = sink.add
    with open(path, encoding="utf-8") as fh:
        for lineno, line in enumerate(fh, start=1):
            if line.isspace():
                continue
            try:
                obj = json.loads(line)
            except json.JSONDecodeError as exc:
                raise CorpusFormatError(f"{path}: line {lineno}: {exc}") from None
            try:
                pub_id = str(obj["id"])
                year = int(obj["year"])
                if not -_YEAR_LIMIT <= year < _YEAR_LIMIT:
                    raise ValueError(f"year {year} out of range")
                mesh_field = obj["mesh"]
                if not isinstance(mesh_field, list):
                    raise TypeError("mesh must be a list")
                terms = [str(t) for t in mesh_field]
            except (KeyError, TypeError, ValueError, OverflowError) as exc:
                raise CorpusFormatError(
                    f"{path}: line {lineno}: bad record ({exc})"
                ) from None
            add(pub_id, year, terms)
    return sink.corpus(query_label or path), report


_YEAR_RE = re.compile(r"\d{4}")

# the fields a record is read from; every other field is skipped
_READ_FIELDS = frozenset({"PMID", "DP", "MH"})


def ingest_medline_text(
    path: str,
    vocabulary: Vocabulary,
    year_range: tuple[int, int] | None = None,
    query_label: str = "",
) -> tuple[Corpus, IngestReport]:
    """Ingest MEDLINE/PubMed text format (``PMID- ``, ``DP  - ``, ``MH  - ``).

    Records are separated by blank lines; long field values wrap onto
    continuation lines indented with six spaces, and any other line is
    ignored.  The first ``PMID`` field and the first ``DP`` field with a
    four-digit year give the record's id and year; records missing either
    are skipped and counted.
    """
    report = IngestReport()
    sink = _RecordSink(vocabulary, year_range, report)
    add = sink.add
    search_year = _YEAR_RE.search

    # the record read so far, and its last field: ``tag`` is None before the
    # first field, "" for a field that is skipped; ``value`` is kept for the
    # three fields that are read, continuation lines included
    pub_id: str | None = None
    year: int | None = None
    terms: list[str] = []
    tag: str | None = None
    value = ""

    with open(path, encoding="utf-8", errors="replace") as fh:
        # a blank line after the last one ends the last record
        for line in chain(fh, ("\n",)):
            if line[4:6] == "- ":
                # a field line: it holds "-", so it is neither blank nor a
                # continuation
                field = line[:4].strip()
                if field not in _READ_FIELDS:
                    field = ""
                blank = False
            elif line.isspace():
                if tag is None:
                    continue
                blank = True
            else:
                if tag and line.startswith("      "):
                    value = value.rstrip("\n") + " " + line.strip()
                continue
            # a new field or the end of the record: the last field is complete
            if tag:
                if tag == "MH":
                    # "*DNA, Viral/analysis" -> "DNA, Viral": drop the major-topic
                    # marker and everything after the first qualifier slash
                    cleaned = value.lstrip("*").split("/", 1)[0].strip()
                    if cleaned:
                        terms.append(cleaned)
                elif tag == "PMID":
                    if pub_id is None:
                        pub_id = value.strip()
                elif year is None:  # a DP field
                    m = search_year(value)
                    if m:
                        year = int(m.group())
            if blank:
                if not pub_id or year is None:
                    report.skipped_malformed += 1
                else:
                    add(pub_id, year, terms)
                pub_id, year, terms, tag = None, None, [], None
            else:
                tag = field
                if field:
                    value = line[6:]  # its newline goes when it is read

    return sink.corpus(query_label or path), report


# what ``json.JSONEncoder`` (``ensure_ascii`` by default) applies to a str
_encode_str = json.encoder.encode_basestring_ascii


def corpus_canonical_lines(corpus: Corpus) -> Iterator[bytes]:
    """The canonical serialization one UTF-8 line at a time, LF included.

    Each line holds the bytes ``json.JSONEncoder(sort_keys=True,
    separators=(",", ":"))`` gives for ``{"id", "year", "mesh"}``; every
    descriptor id is encoded once, not once per row that carries it.
    """
    indptr, indices = corpus.incidence
    names = [_encode_str(uid) for uid in corpus.vocabulary.column_ids]
    mesh = np.array(names, dtype=object)[indices].tolist()
    bounds = indptr.tolist()
    join = ",".join
    for pub_id, year, lo, hi in zip(corpus.pub_ids, corpus.pub_years.tolist(), bounds, bounds[1:]):
        line = f'{{"id":{_encode_str(pub_id)},"mesh":[{join(mesh[lo:hi])}],"year":{year}}}\n'
        yield line.encode("ascii")


def corpus_canonical_bytes(corpus: Corpus) -> bytes:
    """Canonical serialization: sorted JSONL with descriptor ids resolved."""
    return b"".join(corpus_canonical_lines(corpus))


def write_corpus_jsonl(corpus: Corpus, path: str) -> None:
    """Write the canonical cache format (UTF-8, LF endings)."""
    with open(path, "wb") as fh:
        fh.writelines(corpus_canonical_lines(corpus))


@dataclass(frozen=True)
class YearlySizes:
    year: int
    publications: int
    total_descriptors: int
    distinct_descriptors: int
    mean_per_publication: float


def yearly_sizes(corpus: Corpus) -> list[YearlySizes]:
    """Per-year publication and descriptor volume/vocabulary table."""
    rows = []
    for year, counts in zip(corpus.years(), corpus.year_counts):
        pubs = len(corpus.by_year[year])
        total = int(counts.sum())
        rows.append(
            YearlySizes(
                year=year,
                publications=pubs,
                total_descriptors=total,
                distinct_descriptors=int(np.count_nonzero(counts)),
                mean_per_publication=total / pubs,
            )
        )
    return rows
