"""Publication corpus ingestion from MEDLINE text or canonical JSONL.

A corpus is an immutable snapshot of one query's publications,
partitioned by year.  Ingestion applies the exclusion rules used
throughout the pipeline: records with no resolvable MeSH descriptors
are dropped (and counted), records outside the configured year window
are dropped (and counted), duplicate ids keep their first occurrence,
and descriptor names that do not resolve against the vocabulary are
dropped per-term rather than per-record so that yearly publication
counts stay unbiased.
"""

from __future__ import annotations

import json
import re
from collections import Counter
from dataclasses import dataclass, field
from functools import cached_property
from itertools import groupby
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

    def to_json_dict(self) -> dict:
        terms = sorted(self.unresolved_terms.items(), key=lambda kv: (-kv[1], kv[0]))
        return {
            "excluded_no_mesh": self.excluded_no_mesh,
            "excluded_year": self.excluded_year,
            "excluded_duplicate": self.excluded_duplicate,
            "skipped_malformed": self.skipped_malformed,
            "unresolved_terms": [{"name": n, "count": c} for n, c in terms],
        }


class Incidence(NamedTuple):
    """The (publications x descriptors) 0/1 matrix in CSR form: the
    descriptor columns of row i are ``indices[indptr[i]:indptr[i + 1]]``,
    ascending."""

    indptr: np.ndarray  # int64, one more entry than there are rows
    indices: np.ndarray  # int32 column positions


@dataclass
class Corpus:
    """Immutable per-query corpus with yearly partitions.

    Publications are stored in canonical (year, id) order so that
    serialization and all downstream derivations are deterministic; each
    year is then one contiguous run of rows, and ``by_year`` maps it to
    that ``range`` of indices into ``publications``.

    Count-based analyses read the columnar view instead of the
    publications: ``incidence`` marks which descriptors each publication
    carries and ``year_counts`` sums it per year.  Both are built on
    first use and cached.
    """

    query_label: str
    publications: tuple[Publication, ...]
    vocabulary: Vocabulary
    by_year: dict[int, range] = field(default_factory=dict)

    @classmethod
    def build(
        cls, query_label: str, publications: list[Publication], vocabulary: Vocabulary
    ) -> "Corpus":
        pubs = tuple(sorted(publications, key=lambda p: (p.year, p.id)))
        by_year: dict[int, range] = {}
        start = 0
        for year, run in groupby(p.year for p in pubs):
            stop = start + sum(1 for _ in run)
            by_year[year] = range(start, stop)
            start = stop
        return cls(
            query_label=query_label, publications=pubs, vocabulary=vocabulary, by_year=by_year
        )

    def __len__(self) -> int:
        return len(self.publications)

    def years(self) -> list[int]:
        return sorted(self.by_year)

    def publications_in(self, year: int) -> list[Publication]:
        return [self.publications[i] for i in self.by_year.get(year, ())]

    @cached_property
    def incidence(self) -> Incidence:
        """Which descriptors each publication carries, rows in corpus order
        and columns in ``vocabulary.column_ids`` order.

        Raises ``KeyError`` for an id missing from the vocabulary:
        ingestion is expected to have cleaned those.
        """
        column_of = self.vocabulary.column_of
        lengths = np.fromiter(
            (len(p.mesh_ids) for p in self.publications), dtype=np.int64, count=len(self)
        )
        indptr = np.concatenate([[0], np.cumsum(lengths)])
        indices = np.fromiter(
            (column_of[uid] for p in self.publications for uid in p.mesh_ids),
            dtype=np.int32,
            count=int(indptr[-1]),
        )
        return Incidence(indptr, indices)

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


def _resolve_terms(
    tokens: list[str], vocabulary: Vocabulary, report: IngestReport
) -> tuple[str, ...]:
    ids: set[str] = set()
    for token in tokens:
        rid = vocabulary.resolve(token)
        if rid is None:
            report.unresolved_terms[token] += 1
        else:
            ids.add(rid)
    return tuple(sorted(ids))


def _admit(
    pub_id: str,
    year: int,
    mesh_ids: tuple[str, ...],
    year_range: tuple[int, int] | None,
    seen: set[str],
    out: list[Publication],
    report: IngestReport,
) -> None:
    if pub_id in seen:
        report.excluded_duplicate += 1
        return
    if year_range is not None and not (year_range[0] <= year <= year_range[1]):
        report.excluded_year += 1
        return
    if not mesh_ids:
        report.excluded_no_mesh += 1
        return
    seen.add(pub_id)
    out.append(Publication(id=pub_id, year=year, mesh_ids=mesh_ids))


def ingest_jsonl(
    path: str,
    vocabulary: Vocabulary,
    year_range: tuple[int, int] | None = None,
    query_label: str = "",
) -> tuple[Corpus, IngestReport]:
    """Ingest canonical JSONL: one ``{"id","year","mesh"}`` object per line."""
    report = IngestReport()
    out: list[Publication] = []
    seen: set[str] = set()
    with open(path, encoding="utf-8") as fh:
        for lineno, line in enumerate(fh, start=1):
            if not line.strip():
                continue
            try:
                obj = json.loads(line)
            except json.JSONDecodeError as exc:
                raise CorpusFormatError(f"{path}: line {lineno}: {exc}") from None
            try:
                pub_id = str(obj["id"])
                year = int(obj["year"])
                mesh_field = obj["mesh"]
                if not isinstance(mesh_field, list):
                    raise TypeError("mesh must be a list")
                tokens = [str(t) for t in mesh_field]
            except (KeyError, TypeError, ValueError) as exc:
                raise CorpusFormatError(
                    f"{path}: line {lineno}: bad record ({exc})"
                ) from None
            mesh_ids = _resolve_terms(tokens, vocabulary, report)
            _admit(pub_id, year, mesh_ids, year_range, seen, out, report)
    label = query_label or path
    return Corpus.build(label, out, vocabulary), report


_YEAR_RE = re.compile(r"\d{4}")


def _clean_mesh_value(value: str) -> str:
    # "*DNA, Viral/analysis" -> "DNA, Viral": drop the major-topic marker
    # and everything after the first qualifier slash.
    value = value.lstrip("*")
    return value.split("/", 1)[0].strip()


def ingest_medline_text(
    path: str,
    vocabulary: Vocabulary,
    year_range: tuple[int, int] | None = None,
    query_label: str = "",
) -> tuple[Corpus, IngestReport]:
    """Ingest MEDLINE/PubMed text format (``PMID- ``, ``DP  - ``, ``MH  - ``).

    Records are separated by blank lines; long field values wrap onto
    continuation lines indented with six spaces.  Records missing a PMID
    or a parsable year are skipped and counted.
    """
    report = IngestReport()
    out: list[Publication] = []
    seen: set[str] = set()

    def finish(fields: list[tuple[str, str]]) -> None:
        if not fields:
            return
        pub_id: str | None = None
        year: int | None = None
        tokens: list[str] = []
        for tag, value in fields:
            if tag == "PMID" and pub_id is None:
                pub_id = value.strip()
            elif tag == "DP" and year is None:
                m = _YEAR_RE.search(value)
                if m:
                    year = int(m.group())
            elif tag == "MH":
                cleaned = _clean_mesh_value(value)
                if cleaned:
                    tokens.append(cleaned)
        if not pub_id or year is None:
            report.skipped_malformed += 1
            return
        mesh_ids = _resolve_terms(tokens, vocabulary, report)
        _admit(pub_id, year, mesh_ids, year_range, seen, out, report)

    fields: list[tuple[str, str]] = []
    with open(path, encoding="utf-8", errors="replace") as fh:
        for line in fh:
            line = line.rstrip("\r\n")
            if not line.strip():
                finish(fields)
                fields = []
            elif line.startswith("      ") and fields:
                tag, value = fields[-1]
                fields[-1] = (tag, value + " " + line.strip())
            elif len(line) >= 6 and line[4:6] == "- ":
                fields.append((line[:4].strip(), line[6:]))
    finish(fields)

    label = query_label or path
    return Corpus.build(label, out, vocabulary), report


# one encoder for every line: ``json.dumps`` with options builds a new one per call
_CANONICAL_JSON = json.JSONEncoder(sort_keys=True, separators=(",", ":"))


def corpus_canonical_lines(corpus: Corpus) -> Iterator[bytes]:
    """The canonical serialization one UTF-8 line at a time, LF included."""
    encode = _CANONICAL_JSON.encode
    for p in corpus.publications:
        record = {"id": p.id, "year": p.year, "mesh": list(p.mesh_ids)}
        yield (encode(record) + "\n").encode("utf-8")


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
