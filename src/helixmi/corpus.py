"""Publication corpus ingestion from MEDLINE text or canonical JSONL.

A corpus is an immutable snapshot of one query's publications,
partitioned by year.  Ingestion applies the exclusion rules used
throughout the pipeline: records with no resolvable MeSH descriptors
are dropped (and counted), records outside the configured year window
are dropped (and counted), duplicate ids keep their first occurrence,
and descriptor names that do not resolve against the vocabulary are
dropped per-term rather than per-record so that yearly publication
counts stay unbiased.

Both parsers hand records to one sink a block at a time: the JSONL
parser in batches of parsed lines, the MEDLINE parser in blocks of the
file cut after empty lines and parsed with array operations.  The sink
resolves every distinct term once and appends the kept records to flat
arrays: ids, years and the descriptor columns of each.  The corpus is
those arrays, sorted once; ``Publication`` objects are built only when
asked for.
"""

from __future__ import annotations

import codecs
import json
import re
from array import array
from collections import Counter
from dataclasses import dataclass, field
from functools import cached_property
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


def _firsts(x: np.ndarray) -> np.ndarray:
    """Whether each entry differs from the one before it; the first does."""
    first = np.empty(len(x), dtype=bool)
    first[:1] = True
    np.not_equal(x[1:], x[:-1], out=first[1:])
    return first


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
    """Memo of term -> code: the term's descriptor column, or ``-1 - k`` for
    the k-th distinct term the vocabulary cannot resolve, whose name is
    ``unresolved[k]``; each distinct term is resolved once."""

    def __init__(self, vocabulary: Vocabulary) -> None:
        super().__init__()
        self.vocabulary = vocabulary
        self.unresolved: list[str] = []

    def __missing__(self, term: str) -> int:
        uid = self.vocabulary.resolve(term)
        if uid is None:
            code = -1 - len(self.unresolved)
            self.unresolved.append(term)
        else:
            code = self.vocabulary.column_of[uid]
        self[term] = code
        return code


# what a record's own year and terms make of it; a duplicate id decides first
_ADMISSIBLE, _OUT_OF_WINDOW, _NO_MESH = range(3)


class _RecordSink:
    """Admits blocks of parsed records into flat arrays, the rows of a corpus.

    A block is the records' ids and years, the term codes of all of them
    in record order (``_TermColumns``) and each record's number of codes.
    The rules apply record by record, in order: a duplicate of an admitted
    id, then a year outside the window, then no resolvable descriptor.
    Unresolved terms are counted in the report whatever becomes of their
    record.

    Each block's year and mesh rules are array operations, and one sort
    deduplicates and orders the columns of every row that passes them.
    The duplicate rule runs once, over the ids of all records in order,
    when the corpus is built; a row it turns away is dropped then.  Only
    strings and ints outlive a block, so the kept rows add no objects for
    the garbage collector to walk.
    """

    def __init__(
        self, columns: _TermColumns, year_range: tuple[int, int] | None, report: IngestReport
    ) -> None:
        self.vocabulary = columns.vocabulary
        self.year_range = year_range
        self.report = report
        self.columns = columns
        # every record's id and verdict; years and columns of the admissible
        self.ids: list[str] = []
        self.verdicts = array("b")
        self.years = array("q")
        self.indptr = array("q", [0])
        self.indices = array("i")

    def add_block(self, ids: list[str], years: np.ndarray, codes, lengths) -> None:
        codes = np.asarray(codes, dtype=np.int64)
        rows = np.repeat(np.arange(len(ids)), lengths)
        unresolved = codes < 0
        if unresolved.any():
            names = self.columns.unresolved
            counts = np.bincount(-1 - codes[unresolved])
            for k in counts.nonzero()[0].tolist():
                self.report.unresolved_terms[names[k]] += int(counts[k])
        verdicts = np.full(len(ids), _NO_MESH, dtype=np.int8)
        verdicts[rows[~unresolved]] = _ADMISSIBLE
        if self.year_range is not None:
            lo, hi = self.year_range
            verdicts[(years < lo) | (years > hi)] = _OUT_OF_WINDOW
        kept = verdicts == _ADMISSIBLE
        entries = kept[rows] & ~unresolved
        # (kept row, column) keys: sorted, then each repeat dropped
        width = len(self.vocabulary.column_ids)
        keys = (np.cumsum(kept) - 1)[rows[entries]] * width + codes[entries]
        keys.sort()
        keys = keys[_firsts(keys)]
        self.ids += ids
        self.verdicts.frombytes(verdicts.tobytes())
        self.years.frombytes(years[kept].tobytes())
        ends = np.cumsum(np.bincount(keys // width, minlength=int(kept.sum())))
        self.indptr.frombytes((ends + self.indptr[-1]).tobytes())
        self.indices.frombytes((keys % width).astype(np.int32).tobytes())

    def corpus(self, query_label: str) -> Corpus:
        report = self.report
        seen: set[str] = set()
        admitted: list[str] = []
        dropped: list[int] = []
        row = 0
        for pub_id, verdict in zip(self.ids, self.verdicts):
            if pub_id in seen:
                report.excluded_duplicate += 1
                if verdict == _ADMISSIBLE:
                    dropped.append(row)
            elif verdict == _OUT_OF_WINDOW:
                report.excluded_year += 1
            elif verdict == _NO_MESH:
                report.excluded_no_mesh += 1
            else:
                seen.add(pub_id)
                admitted.append(pub_id)
            row += verdict == _ADMISSIBLE
        # the ids and the set go before the rows are sorted
        del seen, self.ids
        years = np.asarray(self.years, dtype=np.int64)
        indptr = np.asarray(self.indptr, dtype=np.int64)
        indices = np.asarray(self.indices, dtype=np.int32)
        if dropped:
            keep = np.ones(len(years), dtype=bool)
            keep[dropped] = False
            lengths = np.diff(indptr)[keep]
            kept_ptr = np.zeros(len(lengths) + 1, dtype=np.int64)
            np.cumsum(lengths, out=kept_ptr[1:])
            indices = indices[_row_runs(indptr[:-1][keep], lengths, kept_ptr)]
            years, indptr = years[keep], kept_ptr
        return Corpus.from_arrays(query_label, self.vocabulary, admitted, years, indptr, indices)


# years are kept as int64
_YEAR_LIMIT = 2**63

# records per batch that ``ingest_jsonl`` hands the sink
_JSONL_BATCH = 1 << 10


def ingest_jsonl(
    path: str,
    vocabulary: Vocabulary,
    year_range: tuple[int, int] | None = None,
    query_label: str = "",
) -> tuple[Corpus, IngestReport]:
    """Ingest canonical JSONL: one ``{"id","year","mesh"}`` object per line.

    One UTF-8 byte order mark at the start of the file is skipped.
    """
    report = IngestReport()
    sink = _RecordSink(_TermColumns(vocabulary), year_range, report)
    code_of = sink.columns.__getitem__
    ids: list[str] = []
    years: list[int] = []
    codes: list[int] = []
    lengths: list[int] = []

    def flush() -> None:
        sink.add_block(ids, np.array(years, dtype=np.int64), codes, lengths)
        for column in (ids, years, codes, lengths):
            column.clear()

    with open(path, encoding="utf-8-sig") as fh:
        for lineno, line in enumerate(fh, start=1):
            if line.isspace():
                continue
            try:
                obj = json.loads(line)
            except ValueError as exc:  # JSONDecodeError, or an integer too long to convert
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
            ids.append(pub_id)
            years.append(year)
            codes += map(code_of, terms)
            lengths.append(len(terms))
            if len(ids) == _JSONL_BATCH:
                flush()
    flush()
    return sink.corpus(query_label or path), report


# bytes per read of the MEDLINE reader; a block that holds no empty line
# grows until it does.  Larger blocks parse a little faster, but their
# arrays leave more of the heap resident once the ingest is done.
_BLOCK_BYTES = 1 << 18

# line classes, in this order: a class from _SKIP up is a field line
_JUNK, _BLANK, _CONT, _SKIP, _PMID, _DP, _MH = range(7)

# the fields a record is read from; every other field is skipped
_READ_FIELDS = {"PMID": _PMID, "DP": _DP, "MH": _MH}

# ``str.isspace`` of each byte below 0x80; a byte from 0x80 up is no
# character on its own
_SPACE = np.zeros(256, dtype=bool)
_SPACE[[9, 10, 11, 12, 13, 28, 29, 30, 31, 32]] = True

# a byte below 0x80 that is not whitespace
_PLAIN = ~_SPACE & (np.arange(256) < 128)

_YEAR_RE = re.compile(r"\d{4}")

# the code of an MH value that cleans to no term
_NO_TERM = np.iinfo(np.int64).min


def _classify_text(line: str) -> tuple[int, str]:
    """The class of one decoded line, by ``str`` rules, and what it adds to
    its field: a field's value or a continuation's stripped text."""
    if line[4:6] == "- ":
        return _READ_FIELDS.get(line[:4].strip(), _SKIP), line[6:]
    if line.isspace() or not line:
        return _BLANK, ""
    if line.startswith("      "):
        return _CONT, line.strip()
    return _JUNK, ""


class _MeshColumns(_TermColumns):
    """``_TermColumns`` that also takes MH values cut before their first
    ``/``: "*DNA, Viral" has the code of "DNA, Viral", the value without
    its major-topic marker and outer spaces, or ``_NO_TERM`` when nothing
    is left.  A value that is its own term is one entry."""

    def __missing__(self, value: str) -> int:
        term = value.lstrip("*").strip()
        if term and term == value:
            return super().__missing__(term)
        code = self[term] if term else _NO_TERM
        self[value] = code
        return code


def _medline_blocks(fh) -> Iterator[tuple[np.ndarray, ...]]:
    """The lines of a binary file, a block at a time: ``(data, starts, ends,
    heads, marks)``, line i being the bytes ``data[starts[i]:ends[i]]`` (its
    LF, CRLF or CR left out) and ``heads[i]`` the eight bytes from its start
    as a little-endian uint64, bytes past its end included; ``marks`` is
    scratch space of one bool per byte of ``data``.  Every block but the
    last ends with an empty line, so each starts a record afresh.  ``data``
    and ``marks`` view buffers that are reused, valid until the next block
    is asked for.
    """
    if fh.peek(3)[:3] == codecs.BOM_UTF8:
        fh.read(3)
    size = 0
    filled = 0
    while True:
        if filled == size:
            # a full buffer with no empty line (or none yet): read on into
            # one twice the size, with eight bytes to spare for the heads
            size = max(2 * size, _BLOCK_BYTES)
            buf = bytearray(buf[:filled] if filled else b"") + bytes(size + 8 - filled)
            windows = np.ndarray((size + 1,), dtype="<u8", buffer=buf, strides=(1,))
            marks = np.empty(size, dtype=bool)
        got = fh.readinto(memoryview(buf)[filled:size])
        filled += got
        final = not got
        data = np.frombuffer(buf, dtype=np.uint8, count=filled)
        if buf.find(b"\r", 0, filled) < 0:
            ends = np.flatnonzero(np.equal(data, 10, out=marks[:filled]))
            nexts = ends + 1
        else:
            found = np.equal(data, 10, out=marks[:filled])
            found |= data == 13
            found = np.flatnonzero(found)
            crlf = (data[found] == 13) & (data[np.minimum(found + 1, filled - 1)] == 10)
            crlf &= found + 1 < filled
            # the LF of a CRLF ends no line of its own; a CRLF split by the
            # end of the buffer reads as a CR and an empty line, which
            # changes nothing, as a block ends with an empty line anyway
            lone = np.ones(len(found), dtype=bool)
            lone[1:] = ~crlf[:-1]
            ends = found[lone]
            nexts = ends + 1 + crlf[lone]
        starts = np.zeros(len(ends), dtype=np.int64)
        starts[1:] = nexts[:-1]
        if final:
            tail = int(nexts[-1]) if len(nexts) else 0
            if tail < filled:
                starts = np.append(starts, tail)
                ends = np.append(ends, filled)
            yield data, starts, ends, windows[starts], marks[:filled]
            return
        empty = np.flatnonzero(starts == ends)
        if not len(empty):
            continue
        last = int(empty[-1]) + 1
        yield data, starts[:last], ends[:last], windows[starts[:last]], marks[:filled]
        cut = int(nexts[last - 1])
        buf[: filled - cut] = buf[cut:filled]
        filled -= cut


def _medline_block(data, starts, ends, heads, marks, sink: _RecordSink) -> None:
    """Hand the records of one block of lines to the sink.

    Field lines, six-space continuations and empty lines are told apart
    by their first eight bytes; the other lines by each of their first
    seven bytes, and the few whose class depends on ``str`` rules (a byte
    from 0x80 up among the first six, or seven whitespace bytes and more to
    come) are decoded and classified by ``_classify_text``.  Records, their
    first ``PMID``, their ``DP`` fields and continuation joins then follow
    from line positions, and only the values of read fields are decoded.
    """
    n = ends - starts
    # bytes 0-3 and bytes 4-7 of each line
    quads = heads.view("<u4")
    low, high = quads[0::2], quads[1::2]
    field = (n >= 6) & ((low & 0x80808080) == 0) & ((high & 0xFFFF) == 0x202D)
    cont = (n >= 7) & (low == 0x20202020) & ((high & 0xFFFF) == 0x2020)
    cont &= _PLAIN[(high >> 16) & 0xFF]
    classes = np.zeros(len(n), dtype=np.int8)
    classes[n == 0] = _BLANK
    classes[cont] = _CONT

    by_text = np.zeros(len(n), dtype=bool)
    other = (~(field | cont) & (n > 0)).nonzero()[0]
    if len(other):
        head = heads[other]
        size = n[other]
        byte = [(head >> (8 * k)) & 0xFF for k in range(7)]
        ascii6 = np.ones(len(other), dtype=bool)
        space6 = ascii6.copy()
        for k in range(6):
            absent = size <= k
            ascii6 &= (byte[k] < 128) | absent
            space6 &= _SPACE[byte[k]] | absent
        # whitespace up to the seventh byte, or to the end of a shorter line
        space6 &= ascii6
        b6 = byte[6]
        classes[other[space6 & ((size <= 6) | ((size == 7) & _SPACE[b6]))]] = _BLANK
        by_text[other[~ascii6 | (space6 & (size >= 7) & ((b6 >= 128) | (_SPACE[b6] & (size > 7))))]] = True

    field_lines = field.nonzero()[0]
    if len(field_lines):
        tags = low[field_lines]
        distinct = np.sort(tags)
        distinct = distinct[_firsts(distinct)]
        kinds = np.array(
            [_READ_FIELDS.get(tag.to_bytes(4, "little").decode("ascii").strip(), _SKIP)
             for tag in distinct.tolist()],
            dtype=np.int8,
        )
        classes[field_lines] = kinds[np.searchsorted(distinct, tags)]

    def decoded(lo: int, hi: int) -> str:
        return data[lo:hi].tobytes().decode("utf-8", "replace")

    texts = {}
    for i in by_text.nonzero()[0].tolist():
        classes[i], texts[i] = _classify_text(decoded(int(starts[i]), int(ends[i])))

    fields = (classes >= _SKIP).nonzero()[0]
    if not len(fields):
        return
    # a record is the field lines between two blank lines
    blanks = (classes == _BLANK).nonzero()[0]
    field_segment = np.searchsorted(blanks, fields)
    record = np.cumsum(_firsts(field_segment)) - 1
    n_records = int(record[-1]) + 1
    field_class = classes[fields]

    # a continuation line adds to the last field before it in its record,
    # when that field is read
    conts = (classes == _CONT).nonzero()[0]
    owner = np.searchsorted(fields, conts) - 1
    known = np.maximum(owner, 0)
    joined = (owner >= 0) & (field_segment[known] == np.searchsorted(blanks, conts))
    joined &= field_class[known] >= _PMID
    conts, owner = conts[joined], owner[joined]
    continued = np.zeros(len(fields), dtype=bool)
    continued[owner] = True

    # the values read: each record's first PMID, then every DP, then every
    # MH up to its first "/" and without its leading "*"s
    pmids = (field_class == _PMID).nonzero()[0]
    pmids = pmids[_firsts(record[pmids])]
    dps = (field_class == _DP).nonzero()[0]
    mesh = (field_class == _MH).nonzero()[0]
    read = np.concatenate((pmids, dps, mesh))
    first_mesh = len(pmids) + len(dps)
    lines = fields[read]
    lo = starts[lines] + 6
    hi = ends[lines]
    mesh_lo, mesh_hi = lo[first_mesh:], hi[first_mesh:]
    slashes = np.equal(data, 47, out=marks).nonzero()[0]
    slash = np.append(slashes, len(data))[np.searchsorted(slashes, mesh_lo)]
    np.minimum(mesh_hi, slash, out=mesh_hi)
    while True:
        star = (mesh_lo < mesh_hi) & (data[np.minimum(mesh_lo, len(data) - 1)] == 42)
        if not star.any():
            break
        mesh_lo += star
    # values on one line of their own are gathered with an LF after each
    # and decoded at once
    slow = by_text[lines] | continued[read]
    lo, hi = lo[~slow], hi[~slow]
    spans = hi - lo + 1
    offsets = np.zeros(len(spans) + 1, dtype=np.int64)
    np.cumsum(spans, out=offsets[1:])
    gather = _row_runs(lo, spans, offsets)
    np.minimum(gather, len(data) - 1, out=gather)
    text = data[gather]
    text[offsets[1:] - 1] = 10
    values = text.tobytes().decode("utf-8", "replace").split("\n")
    del values[-1]
    if slow.any():
        pieces: dict[int, list[str]] = {}
        for line, field_pos in zip(conts.tolist(), owner.tolist()):
            piece = texts[line] if line in texts else decoded(
                int(starts[line]), int(ends[line])).strip()
            pieces.setdefault(field_pos, []).append(piece)
        fast_values, values = values, [""] * len(read)
        for pos, value in zip((~slow).nonzero()[0].tolist(), fast_values):
            values[pos] = value
        for pos in slow.nonzero()[0].tolist():
            line = int(lines[pos])
            value = texts[line] if line in texts else decoded(int(starts[line]) + 6,
                                                              int(ends[line]))
            value = " ".join([value, *pieces.get(int(read[pos]), ())])
            values[pos] = value.split("/", 1)[0].lstrip("*") if pos >= first_mesh else value

    # a record's id is its first PMID, its year the first DP that holds one
    ids: list[str | None] = [None] * n_records
    for r, value in zip(record[pmids].tolist(), values[: len(pmids)]):
        ids[r] = value.strip()
    years: list[int | None] = [None] * n_records
    search_year = _YEAR_RE.search
    for r, value in zip(record[dps].tolist(), values[len(pmids):first_mesh]):
        if years[r] is None:
            m = search_year(value)
            if m:
                years[r] = int(m.group())
    valid = [r for r in range(n_records) if ids[r] and years[r] is not None]
    sink.report.skipped_malformed += n_records - len(valid)

    codes = np.fromiter(map(sink.columns.__getitem__, values[first_mesh:]), dtype=np.int64,
                        count=len(mesh))
    row = np.full(n_records, -1)
    row[valid] = np.arange(len(valid))
    mesh_row = row[record[mesh]]
    kept = (mesh_row >= 0) & (codes != _NO_TERM)
    sink.add_block(
        [ids[r] for r in valid],
        np.array([years[r] for r in valid], dtype=np.int64),
        codes[kept],
        np.bincount(mesh_row[kept], minlength=len(valid)),
    )


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
    are skipped and counted.  Lines end with LF, CRLF or CR; bytes that
    are not UTF-8 read as U+FFFD, and one byte order mark at the start of
    the file is skipped.

    The file is read in blocks of about ``_BLOCK_BYTES``, each cut just
    after an empty line, and each block is parsed with array operations.
    """
    report = IngestReport()
    sink = _RecordSink(_MeshColumns(vocabulary), year_range, report)
    with open(path, "rb") as fh:
        for data, starts, ends, heads, marks in _medline_blocks(fh):
            if len(starts):
                _medline_block(data, starts, ends, heads, marks, sink)
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
