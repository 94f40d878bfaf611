"""Publication corpus ingestion from MEDLINE text or canonical JSONL.

A corpus is an immutable snapshot of one query's publications,
partitioned by year.  Ingestion applies the exclusion rules used
throughout the pipeline: records with no resolvable MeSH descriptors
are dropped (and counted), records outside the configured year window
are dropped (and counted), duplicate ids keep their first occurrence,
and descriptor names that do not resolve against the vocabulary are
dropped per-term rather than per-record so that yearly publication
counts stay unbiased.

Both parsers read the file in blocks, of about 128 KiB cut after a line
end (JSONL) or of about 256 KiB cut after an empty line (MEDLINE), and
hand the records of each block to one sink.  A JSONL block's canonical lines, the bytes the
writer gives, are parsed with array operations; every other line goes to
``json.loads``, and the first line in file order that is not UTF-8, not
JSON or not a record is reported by its number.  MEDLINE lines are
classified from their first bytes with array operations.  The sink
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
from itertools import compress
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


# Passes over a corpus's descriptor entries (year counts, branch triples,
# pairs, canonical lines) read the rows in chunks of at most this many
# entries, so their temporaries scale with one chunk instead of the corpus.
# On a 62k-publication corpus (680k entries) each pass is then as fast as
# over the whole corpus at once, and no chunk needs more than a few MB;
# smaller chunks made the pairs pass slower, larger ones the others bigger.
CHUNK_ENTRIES = 1 << 17


def row_chunks(
    indptr: np.ndarray, first: int = 0, stop: int | None = None
) -> Iterator[tuple[int, int]]:
    """Consecutive ``(lo, hi)`` row ranges that tile rows ``first`` to
    ``stop`` of a CSR ``indptr``: each holds at most ``CHUNK_ENTRIES``
    entries, or is one row that alone holds more."""
    stop = len(indptr) - 1 if stop is None else stop
    lo = first
    while lo < stop:
        # the last row boundary within CHUNK_ENTRIES entries of row lo's start
        hi = int(np.searchsorted(indptr, indptr[lo] + CHUNK_ENTRIES, side="right")) - 1
        hi = min(max(hi, lo + 1), stop)
        yield lo, hi
        lo = hi


def _take_rows(indptr: np.ndarray, values: np.ndarray, rows: np.ndarray) -> tuple[np.ndarray, ...]:
    """The CSR rows ``rows`` of ``(indptr, values)``, in that order: their
    int64 indptr and their values, each row's run gathered at once."""
    lengths = np.diff(indptr)[rows]
    taken = np.zeros(len(lengths) + 1, dtype=np.int64)
    np.cumsum(lengths, out=taken[1:])
    return taken, values[_row_runs(indptr[:-1][rows], lengths, taken)]


@dataclass(eq=False)
class Corpus:
    """Immutable per-query corpus with yearly partitions, held as arrays.

    Row i is one publication: ``pub_ids[i]``, ``pub_years[i]`` and the
    descriptor columns of row i in ``incidence``, positions in
    ``vocabulary.column_ids``.  Rows are in canonical
    (year, id) order so that serialization and all downstream
    derivations are deterministic; each year is then one contiguous run
    of rows, and ``by_year`` maps it to that ``range``.

    A corpus is built from flat arrays by :meth:`from_arrays`, which the
    parsers and the synthetic generator call, or from arrays already in
    that order, such as a cache entry's, by :meth:`from_sorted_arrays`.  Count-based analyses read
    ``incidence`` and its per-year sums ``year_counts`` (built on first
    use and cached).  ``publications`` gives the rows as
    :class:`Publication` objects, built on first read; no command reads
    it.
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
            pub_ids = [pub_ids[i] for i in order.tolist()]
            years = years[order]
            indptr, indices = _take_rows(indptr, indices, order)
        return cls.from_sorted_arrays(query_label, vocabulary, pub_ids, years, indptr, indices)

    @classmethod
    def from_sorted_arrays(
        cls,
        query_label: str,
        vocabulary: Vocabulary,
        pub_ids,
        pub_years: np.ndarray,
        indptr: np.ndarray,
        indices: np.ndarray,
    ) -> "Corpus":
        """A corpus of rows already in (year, id) order, such as another
        corpus's arrays: int64 years and indptr, int32 indices."""
        n = len(pub_ids)
        cuts = [0, *(np.flatnonzero(np.diff(pub_years)) + 1).tolist(), n] if n else []
        firsts = pub_years[cuts[:-1]].tolist()
        return cls(
            query_label=query_label,
            vocabulary=vocabulary,
            pub_ids=tuple(pub_ids),
            pub_years=pub_years,
            incidence=Incidence(indptr, indices),
            by_year={y: range(a, b) for y, a, b in zip(firsts, cuts, cuts[1:])},
        )

    def __len__(self) -> int:
        return len(self.pub_ids)

    def years(self) -> list[int]:
        return sorted(self.by_year)

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

        Each year's row is summed from ``np.bincount`` of its entries, a
        chunk of rows at a time, so beyond the result this holds one
        chunk's counts."""
        indptr, indices = self.incidence
        width = len(self.vocabulary.column_ids)
        counts = np.zeros((len(self.by_year), width), dtype=np.int64)
        for row, year in zip(counts, self.years()):
            rows = self.by_year[year]
            for lo, hi in row_chunks(indptr, rows.start, rows.stop):
                row += np.bincount(indices[indptr[lo]:indptr[hi]], minlength=width)
        return counts


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
        seen = set(self.ids)
        dropped: list[int] = []
        if len(seen) == len(self.ids):
            # no id repeats, so no record is a duplicate
            verdicts = np.frombuffer(self.verdicts, dtype=np.int8)
            report.excluded_year += int(np.count_nonzero(verdicts == _OUT_OF_WINDOW))
            report.excluded_no_mesh += int(np.count_nonzero(verdicts == _NO_MESH))
            admitted = list(compress(self.ids, (verdicts == _ADMISSIBLE).tolist()))
        else:
            seen.clear()
            admitted = []
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
            keep = np.delete(np.arange(len(years)), dropped)
            years = years[keep]
            indptr, indices = _take_rows(indptr, indices, keep)
        return Corpus.from_arrays(query_label, self.vocabulary, admitted, years, indptr, indices)


# bytes per read of the block reader, for MEDLINE text and for JSONL; a
# block that holds no place to cut grows until it does.  Larger blocks
# parse a little faster, but their arrays leave more of the heap resident
# once the ingest is done: the later commands of a 62k-publication JSONL
# run peaked 1 MB higher with 256 KiB blocks than with 128 KiB ones, which
# parse as fast.
_BLOCK_BYTES = 1 << 18
_JSONL_BLOCK_BYTES = 1 << 17


def _line_blocks(fh, block_bytes: int, after_empty_line: bool) -> Iterator[tuple[np.ndarray, ...]]:
    """The lines of a binary file, a block of about ``block_bytes`` at a
    time: ``(data, starts, ends, windows, marks)``, line i being the bytes
    ``data[starts[i]:ends[i]]`` (its LF, CRLF or CR left out) and
    ``windows[p]`` the eight bytes from
    ``data[p]`` as a little-endian uint64, bytes past the end of ``data``
    included; ``marks`` is scratch space of one bool per byte of ``data``.
    Every block but the last ends with a line end, or with an empty line
    when ``after_empty_line``, so that each block starts a record afresh.
    Only the last line of the last block can lack its line end, which
    then is ``len(data)``.  ``data``, ``windows`` and ``marks`` view
    buffers that are reused, valid until the next block is asked for.
    One UTF-8 byte order mark at the start of the file is skipped.
    """
    if fh.peek(3)[:3] == codecs.BOM_UTF8:
        fh.read(3)
    size = 0
    filled = 0
    while True:
        if filled == size:
            # a full buffer with no place to cut (or none yet): read on into
            # one twice the size, with eight bytes to spare for the windows
            size = max(2 * size, block_bytes)
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
            if not final and buf[filled - 1] == 13:
                # a CR that ends the buffer may open a CRLF: the line it
                # ends waits for the next read
                found = found[:-1]
            crlf = (data[found] == 13) & (data[np.minimum(found + 1, filled - 1)] == 10)
            # the LF of a CRLF ends no line of its own
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
            yield data, starts, ends, windows, marks[:filled]
            return
        if after_empty_line:
            empty = np.flatnonzero(starts == ends)
            last = int(empty[-1]) + 1 if len(empty) else 0
        else:
            last = len(ends)
        if not last:
            continue
        yield data, starts[:last], ends[:last], windows, marks[:filled]
        cut = int(nexts[last - 1])
        buf[: filled - cut] = buf[cut:filled]
        filled -= cut


def _spans_text(data: np.ndarray, lo: np.ndarray, hi: np.ndarray) -> list[str]:
    """The bytes ``data[lo[i]:hi[i]]`` of each span, decoded as UTF-8 with
    U+FFFD for what is not: gathered with an LF after each and decoded at
    once.  No span may hold an LF."""
    spans = hi - lo + 1
    offsets = np.zeros(len(spans) + 1, dtype=np.int64)
    np.cumsum(spans, out=offsets[1:])
    gather = _row_runs(lo, spans, offsets)
    np.minimum(gather, len(data) - 1, out=gather)
    text = data[gather]
    text[offsets[1:] - 1] = 10
    values = text.tobytes().decode("utf-8", "replace").split("\n")
    del values[-1]
    return values


# years are kept as int64
_YEAR_LIMIT = 2**63

# the fixed bytes of a canonical line, '{"id":"…","mesh":["…",…],"year":N}',
# as little-endian uint64 words: its first seven bytes, the eight after the
# id and the eight from the "]" that closes the mesh list
_ID_OPEN = int.from_bytes(b'{"id":"', "little")
_MESH_KEY = int.from_bytes(b',"mesh":', "little")
_YEAR_KEY = int.from_bytes(b'],"year"', "little")

# the shortest canonical line: '{"id":"","mesh":[],"year":0}'
_TEMPLATE_MIN = 28

# the most digits of a year read without json: 10**18 - 1 < 2**63
_YEAR_DIGITS = 18

# the low i bytes of a uint64, for i = 0..8
_LOW_BYTES = np.array([(1 << 8 * i) - 1 for i in range(9)], dtype=np.uint64)

# a key no term has, as a term's bytes are below 0x7F; it marks a free slot
_FREE = np.uint64(2**64 - 1)

# 2**64 over the golden ratio: multiplied by it, the high bits of a key
# scatter neighbouring keys across the table
_SCATTER = np.uint64(0x9E3779B97F4A7C15)


class _TermKeys:
    """Codes of terms of at most eight bytes, looked up by key: the term's
    bytes as a little-endian uint64, zero bytes after them (a term of a
    canonical line holds no zero byte).  A key met for the first time is
    decoded and resolved through ``columns`` once.

    The keys live in a hash table of arrays, open addressing with linear
    probing, at most half full: a batch of keys is looked up a probe step
    at a time for all of them.
    """

    def __init__(self, columns: _TermColumns) -> None:
        self.columns = columns
        self.count = 0
        # room for every descriptor id, so that a corpus of ids never grows it
        self._allocate(1 << (2 * len(columns.vocabulary) + 1).bit_length())

    def _allocate(self, capacity: int) -> None:
        self.slot_keys = np.full(capacity, _FREE, dtype=np.uint64)
        self.slot_codes = np.zeros(capacity, dtype=np.int32)
        self.shift = np.uint64(65 - capacity.bit_length())

    def _probe(self, keys: np.ndarray) -> np.ndarray:
        """The slot of each key, or the free slot its probe ends at."""
        slots = keys * _SCATTER
        slots >>= self.shift
        slots = slots.view(np.int64)
        mask = len(self.slot_keys) - 1
        held = self.slot_keys[slots]
        pending = np.flatnonzero((held != keys) & (held != _FREE))
        while len(pending):
            slots[pending] = (slots[pending] + 1) & mask
            held = self.slot_keys[slots[pending]]
            pending = pending[(held != keys[pending]) & (held != _FREE)]
        return slots

    def _insert(self, keys: np.ndarray, codes: np.ndarray) -> None:
        """Add distinct keys that are absent, growing the table first when
        they would fill more than half of it."""
        self.count += len(keys)
        if 2 * self.count > len(self.slot_keys):
            held = self.slot_keys != _FREE
            keys = np.concatenate((self.slot_keys[held], keys))
            codes = np.concatenate((self.slot_codes[held], codes))
            self._allocate(1 << (2 * self.count).bit_length())
        while len(keys):
            # keys whose probes end at one free slot each write their index
            # there, and the one whose index stays takes the slot
            slots = self._probe(keys)
            index = np.arange(len(keys))
            self.slot_codes[slots] = index
            won = self.slot_codes[slots] == index
            self.slot_keys[slots[won]] = keys[won]
            self.slot_codes[slots[won]] = codes[won]
            keys, codes = keys[~won], codes[~won]

    def __getitem__(self, keys: np.ndarray) -> np.ndarray:
        slots = self._probe(keys)
        codes = self.slot_codes[slots]
        new = self.slot_keys[slots] != keys
        if new.any():
            # sorted, then each repeat dropped (np.unique would hash them,
            # which leaves more memory resident)
            added = np.sort(keys[new])
            added = added[_firsts(added)]
            names = [term.decode("ascii") for term in added.astype("<u8").view("S8").tolist()]
            self._insert(added, np.fromiter(map(self.columns.__getitem__, names),
                                            dtype=np.int64, count=len(names)))
            codes[new] = self.slot_codes[self._probe(keys[new])]
        return codes


def _template_records(data, starts, ends, windows, marks, terms: _TermKeys):
    """The lines of a block that are canonical lines, and their records:
    ``(lines, ids, years, codes, lengths)`` as ``_RecordSink.add_block``
    takes them, ``lines`` ascending.

    A canonical line is the bytes ``{"id":"…","mesh":["…",…],"year":N}``
    the writer gives: printable ASCII without a backslash, so every quote
    opens or closes a string, and a year matching ``-?(0|[1-9][0-9]*)`` of
    at most ``_YEAR_DIGITS`` digits.  ``json.loads`` reads such a line as
    the id, terms and year sliced here from the quote positions.
    """
    none = (np.empty(0, dtype=np.int64), [], np.empty(0, dtype=np.int64),
            np.empty(0, dtype=np.int64), np.empty(0, dtype=np.int64))
    last = len(data) - 1
    ok = ends - starts >= _TEMPLATE_MIN
    ok &= (windows[starts] & _LOW_BYTES[7]) == _ID_OPEN
    ok &= data[ends - 1] == ord("}")
    # bytes outside printable ASCII, and backslashes; a line end is one of
    # the former but lies outside every line
    u8 = marks.view(np.uint8)
    np.subtract(data, 0x20, out=u8)
    np.greater(u8, 0x7E - 0x20, out=marks)
    flagged = np.flatnonzero(marks)
    np.equal(data, ord("\\"), out=marks)
    for pos in (flagged, np.flatnonzero(marks)):
        line = np.searchsorted(starts, pos, side="right") - 1
        ok[line[pos < ends[line]]] = False
    lines = np.flatnonzero(ok)
    if not len(lines):
        return none
    np.equal(data, ord('"'), out=marks)
    # block positions fit in int32, which halves the arrays of the terms
    quotes = np.flatnonzero(marks).astype(np.int32)
    lo = np.searchsorted(quotes, starts[lines])
    hi = np.searchsorted(quotes, ends[lines])
    end = ends[lines]
    # the id closes at the line's fourth quote, and ',"mesh":[' follows;
    # a line with quotes to spare fails a later check
    ok = hi - lo >= 8
    close = quotes[np.minimum(lo + 3, len(quotes) - 1)]
    ok &= close + 10 < end
    ok &= windows[close + 1] == _MESH_KEY
    ok &= data[np.minimum(close + 9, last)] == ord("[")
    lines, lo, hi, end, close = lines[ok], lo[ok], hi[ok], end[ok], close[ok]

    # the terms: the quotes between those of the mesh key and the year key,
    # in pairs; the first opens just after the "[", each next one just
    # after a "," that follows the one before
    k = (hi - lo - 8) // 2
    bounds = np.zeros(len(k) + 1, dtype=np.int64)
    np.cumsum(k, out=bounds[1:])
    pairs = quotes[_row_runs(lo + 6, 2 * k, 2 * bounds)]
    del quotes
    opens, shuts = pairs[0::2], pairs[1::2]
    has = k > 0
    first, final = bounds[:-1][has], bounds[1:][has] - 1
    wrong = np.empty(len(opens), dtype=bool)
    np.not_equal(opens[1:], shuts[:-1] + 2, out=wrong[1:])
    wrong[first] = opens[first] != close[has] + 10
    comma = data[shuts + 1] != ord(",")
    comma[final] = False
    wrong |= comma
    ok = np.ones(len(k), dtype=bool)
    ok[np.searchsorted(bounds, np.flatnonzero(wrong), side="right") - 1] = False
    # '],"year":' after the list, then the year, then the closing "}"
    after = close + 10
    after[has] = shuts[final] + 1
    ok &= windows[after] == _YEAR_KEY
    ok &= data[np.minimum(after + 8, last)] == ord(":")
    year_lo = np.minimum(after + 9, last)
    negative = data[year_lo] == ord("-")
    digit_lo = year_lo + negative
    digits = end - 1 - digit_lo
    ok &= (digits >= 1) & (digits <= _YEAR_DIGITS)
    ok &= (digits == 1) | (data[np.minimum(digit_lo, last)] != ord("0"))
    value = np.zeros(len(k), dtype=np.int64)
    for j in range(int(digits[ok].max()) if ok.any() else 0):
        live = j < digits
        digit = data[np.minimum(digit_lo + j, last)].astype(np.int64) - ord("0")
        ok &= ~live | ((digit >= 0) & (digit <= 9))
        value = np.where(live, value * 10 + digit, value)
    if not ok.any():
        return none
    years = np.where(negative, -value, value)[ok]

    lines, close = lines[ok], close[ok]
    ids = _spans_text(data, starts[lines] + 7, close)
    kept = np.repeat(ok, k)
    term_lo, term_hi = opens[kept], shuts[kept]
    del pairs, opens, shuts
    term_lo += 1
    size = term_hi - term_lo
    codes = np.empty(len(size), dtype=np.int64)
    short = size <= 8
    keys = windows[term_lo[short]]
    keys &= _LOW_BYTES[size[short]]
    codes[short] = terms[keys]
    if not short.all():
        long = ~short
        names = _spans_text(data, term_lo[long], term_hi[long])
        codes[long] = np.fromiter(map(terms.columns.__getitem__, names), dtype=np.int64,
                                  count=len(names))
    return lines, ids, years, codes, k[ok]


def _json_records(path: str, data, starts, ends, lines, line_base: int, code_of):
    """The records of the given lines of a block, each parsed with
    ``json.loads`` as ``(lines, ids, years, codes, lengths)``; lines of
    whitespace are skipped.  A line reads as text mode read it: decoded as
    UTF-8, with one LF for its line end."""
    size = len(data)
    raw = data.tobytes()
    read: list[int] = []
    ids: list[str] = []
    years: list[int] = []
    codes: list[int] = []
    lengths: list[int] = []

    def error(i: int, what) -> CorpusFormatError:
        return CorpusFormatError(f"{path}: line {line_base + i + 1}: {what}")

    for i, lo, hi in zip(lines.tolist(), starts[lines].tolist(), ends[lines].tolist()):
        try:
            line = raw[lo:hi].decode("utf-8")
        except UnicodeDecodeError as exc:
            raise error(i, f"not UTF-8 text ({exc})") from None
        if line.isspace():
            continue
        if hi < size:
            line += "\n"
        try:
            obj = json.loads(line)
        except (ValueError, RecursionError) as exc:
            # a JSONDecodeError, an integer too long to convert, or nesting
            # too deep to decode
            raise error(i, exc) from None
        try:
            pub_id = str(obj["id"])
            year = int(obj["year"])
            if not -_YEAR_LIMIT <= year < _YEAR_LIMIT:
                raise ValueError(f"year {year} out of range")
            mesh_field = obj["mesh"]
            if not isinstance(mesh_field, list):
                raise TypeError("mesh must be a list")
            terms = [str(t) for t in mesh_field]
        except (KeyError, TypeError, ValueError, OverflowError, RecursionError) as exc:
            raise error(i, f"bad record ({exc})") from None
        read.append(i)
        ids.append(pub_id)
        years.append(year)
        codes += map(code_of, terms)
        lengths.append(len(terms))
    return (np.array(read, dtype=np.int64), ids, np.array(years, dtype=np.int64),
            np.array(codes, dtype=np.int64), np.array(lengths, dtype=np.int64))


def _in_line_order(lines, records, more_lines, more):
    """The records ``(ids, years, codes, lengths)`` of two sets of lines
    as one set, in line order."""
    order = np.argsort(np.concatenate((lines, more_lines)))
    ids = np.array(records[0] + more[0], dtype=object)[order].tolist()
    years = np.concatenate((records[1], more[1]))[order]
    bounds = np.zeros(len(order) + 1, dtype=np.int64)
    np.cumsum(np.concatenate((records[3], more[3])), out=bounds[1:])
    bounds, codes = _take_rows(bounds, np.concatenate((records[2], more[2])), order)
    return ids, years, codes, np.diff(bounds)


def ingest_jsonl(
    path: str,
    vocabulary: Vocabulary,
    year_range: tuple[int, int] | None = None,
    query_label: str = "",
) -> tuple[Corpus, IngestReport]:
    """Ingest JSONL: one ``{"id","year","mesh"}`` object per line.

    The file is read in blocks of about ``_JSONL_BLOCK_BYTES``, each cut
    just after a line end.  The canonical lines of a block, the bytes the
    writer gives, are parsed with array operations and each distinct term
    of eight bytes or fewer is decoded once per ingest
    (``_template_records``).  Every other line is decoded as UTF-8 and
    parsed with ``json.loads``: whitespace, other key orders, escapes,
    non-ASCII text, numeric ids, float or string years.  Lines end with
    LF, CRLF or CR; lines of whitespace are skipped, and one UTF-8 byte
    order mark at the start of the file is skipped.

    The first line in file order that is not UTF-8, not JSON or not a
    record with an ``id``, an integral ``year`` that fits in 64 bits and
    a ``mesh`` list raises ``CorpusFormatError`` naming that line.  The
    report counts the lines each path took (``template_lines``,
    ``json_lines``).
    """
    report = IngestReport()
    columns = _TermColumns(vocabulary)
    sink = _RecordSink(columns, year_range, report)
    terms = _TermKeys(columns)
    line_base = 0
    with open(path, "rb") as fh:
        blocks = _line_blocks(fh, _JSONL_BLOCK_BYTES, after_empty_line=False)
        for data, starts, ends, windows, marks in blocks:
            lines, *records = _template_records(data, starts, ends, windows, marks, terms)
            report.template_lines += len(lines)
            # every other line but the empty ones, which hold no record
            rest = np.ones(len(starts), dtype=bool)
            rest[lines] = False
            rest &= ends > starts
            rest = np.flatnonzero(rest)
            if len(rest):
                parsed, *more = _json_records(path, data, starts, ends, rest, line_base,
                                              columns.__getitem__)
                report.json_lines += len(parsed)
                records = _in_line_order(lines, records, parsed, more) if len(lines) else more
            if len(records[0]):
                sink.add_block(*records)
            line_base += len(starts)
    return sink.corpus(query_label or path), report


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
    values = _spans_text(data, lo[~slow], hi[~slow])
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
        blocks = _line_blocks(fh, _BLOCK_BYTES, after_empty_line=True)
        for data, starts, ends, windows, marks in blocks:
            if len(starts):
                _medline_block(data, starts, ends, windows[starts], marks, sink)
    return sink.corpus(query_label or path), report


# what ``json.JSONEncoder`` (``ensure_ascii`` by default) applies to a str
_encode_str = json.encoder.encode_basestring_ascii


def corpus_canonical_lines(corpus: Corpus) -> Iterator[bytes]:
    """The canonical serialization one UTF-8 line at a time, LF included.

    Each line holds the bytes ``json.JSONEncoder(sort_keys=True,
    separators=(",", ":"))`` gives for ``{"id", "year", "mesh"}``; every
    descriptor id is encoded once, not once per row that carries it, and
    the encoded names are gathered a chunk of rows at a time.
    """
    indptr, indices = corpus.incidence
    names = np.array([_encode_str(uid) for uid in corpus.vocabulary.column_ids], dtype=object)
    join = ",".join
    for lo, hi in row_chunks(indptr):
        start = indptr[lo]
        mesh = names[indices[start:indptr[hi]]].tolist()
        bounds = (indptr[lo:hi + 1] - start).tolist()
        rows = zip(corpus.pub_ids[lo:hi], corpus.pub_years[lo:hi].tolist(), bounds, bounds[1:])
        for pub_id, year, a, b in rows:
            line = f'{{"id":{_encode_str(pub_id)},"mesh":[{join(mesh[a:b])}],"year":{year}}}\n'
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
