"""Every file format helixmi reads or writes.

A corpus is MEDLINE/PubMed text or JSONL and a vocabulary the NLM ASCII
descriptor file or a three-column TSV; ``load_corpus`` and
``load_vocabulary`` tell them apart by their first bytes.  The canonical
writers are here too, as the JSONL parser's fast path reads exactly the
lines ``corpus_canonical_lines`` gives.

Files are read in blocks (``_line_blocks``).  Both corpus parsers hand
each block's records to one sink (``_RecordSink``), which applies the
exclusion rules used throughout the pipeline: records with no
resolvable descriptor and records outside the year window are dropped
and counted, duplicate ids keep their first occurrence, and descriptor
names that do not resolve are dropped per term rather than per record,
so that yearly publication counts stay unbiased.  No string per record
outlives its block.
"""

from __future__ import annotations

import codecs
import json
import re
from array import array
from typing import Iterator

import numpy as np

from .corpus import Corpus, CorpusFormatError, IngestReport, _row_order, row_chunks
from .errors import DataError
from .mesh import MeshFormatError, Vocabulary, _check_tree_numbers, _DescriptorColumns
from .packed import (PackedStrings, _encoded, _firsts, _row_runs, _take_rows, string_ranks,
                     unpack_strings)

# bytes per read of the block reader: MEDLINE text, whose blocks set the
# peak of a cold MEDLINE ingest, and the line formats (JSONL, NLM ASCII);
# a block that holds no place to cut grows until it does.  Larger blocks
# parse a little faster, but their arrays leave more of the heap resident
# once the ingest is done: the later commands of a 62k-publication JSONL
# run peaked 1 MB higher with 256 KiB blocks than with 128 KiB ones, which
# parse as fast.
_MEDLINE_BLOCK_BYTES = 1 << 18
_LINE_BLOCK_BYTES = 1 << 17


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


TSV_HEADER = "id\tname\ttree_numbers"

# descriptors a vocabulary loader holds as strings before it packs them
_DESCRIPTOR_BATCH = 1 << 11


def _decode(raw: bytes) -> str:
    try:
        return raw.decode("utf-8")
    except UnicodeDecodeError:
        return raw.decode("latin-1")


# the lines the NLM ASCII loader reads, by their first bytes as a
# little-endian integer: a record's first line, ``*NEWRECORD``, its eight
# bytes from the first and from the third, and the three fields, ``MH = ``
# and the like
_NEWRECORD_HEADS = (int.from_bytes(b"*NEWRECO", "little"), int.from_bytes(b"EWRECORD", "little"))
_NEWRECORD, _NAME, _TREE, _UID = range(1, 5)
_FIELD_HEADS = {int.from_bytes(key + b" = ", "little"): kind
                for key, kind in ((b"MH", _NAME), (b"MN", _TREE), (b"UI", _UID))}


def _ascii_lines(path: str) -> Iterator[tuple[int, int, str]]:
    """The lines of an NLM ASCII file the loader reads, in file order:
    ``(kind, offset, value)`` with the byte offset where the line starts
    and, for a field line, its value decoded and stripped.

    Lines end with LF, CRLF or CR and are read a block at a time; a line is
    told apart by its first bytes, so only the field values are decoded,
    each as UTF-8 or else as latin-1.
    """
    with open(path, "rb") as fh:
        blocks = _line_blocks(fh, _LINE_BLOCK_BYTES, after_empty_line=False)
        for data, starts, ends, windows, _ in blocks:
            base = fh.tell() - len(data)
            sizes = ends - starts
            heads = windows[starts]
            kinds = np.zeros(len(starts), dtype=np.int8)
            fields = np.flatnonzero(sizes >= 5)
            prefixes = heads[fields] & 0xFF_FFFF_FFFF
            for head, kind in _FIELD_HEADS.items():
                kinds[fields[prefixes == head]] = kind
            first, third = _NEWRECORD_HEADS
            opens = np.flatnonzero((sizes == 10) & (heads == first))
            kinds[opens[windows[starts[opens] + 2] == third]] = _NEWRECORD
            lines = np.flatnonzero(kinds)
            raw = data.tobytes()
            for kind, lo, hi in zip(kinds[lines].tolist(), starts[lines].tolist(),
                                    ends[lines].tolist()):
                yield kind, base + lo, "" if kind == _NEWRECORD else _decode(raw[lo + 5:hi]).strip()


def load_mesh_ascii(path: str) -> Vocabulary:
    """Load an NLM ASCII descriptor file.

    Records carrying at least one ``MN =`` line become descriptors;
    records without tree numbers (qualifier records and the like) are
    skipped and counted in the load report.  A record that has tree
    numbers but is missing its ``MH =`` or ``UI =`` field is malformed
    and reported with the byte offset where the record starts.  Within a
    record the last ``MH =`` and ``UI =`` line count.  Lines end with LF,
    CRLF or CR, a line that is not UTF-8 reads as latin-1, and one UTF-8
    byte order mark at the start of the file is skipped.
    """
    columns = _DescriptorColumns()
    ids: list[str] = []
    names: list[str] = []
    counts: list[int] = []
    codes: list[str] = []
    skipped = 0

    record_offset = 0
    name: str | None = None
    uid: str | None = None
    trees: list[str] = []
    in_record = False

    def finish(offset: int) -> None:
        nonlocal skipped, name, uid, trees
        if not trees:
            if in_record:
                skipped += 1
        elif name is None or uid is None:
            # an invalid tree number of an earlier record is reported first
            _check_tree_numbers(codes)
            missing = "MH" if name is None else "UI"
            raise MeshFormatError(
                f"{path}: malformed record at byte {offset}: missing '{missing} =' field"
            )
        else:
            ids.append(uid)
            names.append(name)
            counts.append(len(trees))
            codes.extend(trees)
            if len(ids) == _DESCRIPTOR_BATCH:
                columns.add(ids, names, counts, codes)
                del ids[:], names[:], counts[:], codes[:]
        name, uid, trees = None, None, []

    for kind, offset, value in _ascii_lines(path):
        if kind == _NEWRECORD:
            finish(record_offset)
            in_record = True
            record_offset = offset
        elif kind == _NAME:
            name = value
        elif kind == _TREE:
            trees.append(value)
        else:
            uid = value
    finish(record_offset)
    columns.add(ids, names, counts, codes)
    return columns.vocabulary(skipped)


def load_mesh_tsv(path: str) -> Vocabulary:
    """Load the canonical ``id<TAB>name<TAB>tree_numbers`` TSV; one UTF-8
    byte order mark at the start of the file is skipped."""
    columns = _DescriptorColumns()
    ids: list[str] = []
    names: list[str] = []
    counts: list[int] = []
    codes: list[str] = []
    skipped = 0
    with open(path, encoding="utf-8-sig") as fh:
        header = fh.readline().rstrip("\n")
        if header != TSV_HEADER:
            raise MeshFormatError(f"{path}: expected header {TSV_HEADER!r}")
        try:
            for lineno, line in enumerate(fh, start=2):
                line = line.rstrip("\n")
                if not line:
                    continue
                cols = line.split("\t")
                if len(cols) != 3:
                    raise MeshFormatError(
                        f"{path}: line {lineno}: expected 3 columns, found {len(cols)}"
                    )
                uid, name, tree_field = cols
                raws = [t for t in tree_field.split(";") if t]
                if not raws:
                    skipped += 1
                    continue
                ids.append(uid)
                names.append(name)
                counts.append(len(raws))
                codes += raws
                if len(ids) == _DESCRIPTOR_BATCH:
                    columns.add(ids, names, counts, codes)
                    del ids[:], names[:], counts[:], codes[:]
        except (MeshFormatError, UnicodeDecodeError):
            # an invalid tree number of an earlier line is reported first
            _check_tree_numbers(codes)
            raise
    columns.add(ids, names, counts, codes)
    return columns.vocabulary(skipped)


def write_mesh_tsv(vocabulary: Vocabulary, path: str) -> None:
    """Write the canonical TSV (UTF-8, LF endings, no BOM), sorted by id."""
    bounds = vocabulary.tree_ptr.tolist()
    trees = vocabulary.tree_numbers
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write(TSV_HEADER + "\n")
        for uid, name, a, b in zip(vocabulary.column_ids, vocabulary.names, bounds, bounds[1:]):
            fh.write(f"{uid}\t{name}\t{';'.join(trees[a:b])}\n")


def load_vocabulary(path: str) -> Vocabulary:
    """The vocabulary of a TSV, whose first line holds a tab, or else of an
    NLM ASCII file; a TSV that is not UTF-8 text is a data error."""
    with open(path, "rb") as fh:
        head = fh.read(4096)
    if b"\t" not in head.split(b"\n", 1)[0]:
        return load_mesh_ascii(path)
    try:
        return load_mesh_tsv(path)
    except UnicodeDecodeError as exc:
        raise DataError(f"{path}: not UTF-8 text ({exc})") from None


# the code a term is first given, plus k for the k-th term met since the
# last resolve, until ``_TermColumns.codes`` resolves it
_PENDING = 1 << 62


class _TermColumns(dict):
    """Memo of term -> code: the term's descriptor column, or ``-1 - k`` for
    the k-th distinct term the vocabulary cannot resolve, whose name is
    ``unresolved[k]``.  Each distinct term is resolved once: a term met
    for the first time is held as pending, and ``codes`` resolves the
    pending terms of a block in one ``Vocabulary.term_columns`` call."""

    def __init__(self, vocabulary: Vocabulary) -> None:
        super().__init__()
        self.vocabulary = vocabulary
        self.unresolved: list[str] = []
        self.pending: list[str] = []  # the terms met since the last resolve
        self.placed: list[str] = []  # the keys that hold a pending code

    def __missing__(self, term: str) -> int:
        code = _PENDING + len(self.pending)
        self.pending.append(term)
        self.placed.append(term)
        self[term] = code
        return code

    def codes(self, terms: list[str]) -> np.ndarray:
        """The int64 code of each term, the new ones resolved at once."""
        codes = np.fromiter(map(self.__getitem__, terms), dtype=np.int64, count=len(terms))
        if self.pending:
            resolved = self.vocabulary.term_columns(self.pending)
            for k in np.flatnonzero(resolved < 0).tolist():
                resolved[k] = -1 - len(self.unresolved)
                self.unresolved.append(self.pending[k])
            late = codes >= _PENDING
            codes[late] = resolved[codes[late] - _PENDING]
            resolved = resolved.tolist()
            for key in self.placed:
                self[key] = resolved[self[key] - _PENDING]
            self.pending, self.placed = [], []
        return codes


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
    Every record's id is packed into one growing UTF-8 column as its block
    comes in.  The duplicate rule runs once, over the ranks of all those
    ids (``string_ranks``), when the corpus is built; a row it turns away
    is dropped then, and the same ranks give the rows' (year, id) order.
    Only bytes and ints outlive a block, so the kept records hold no
    objects.
    """

    def __init__(
        self, columns: _TermColumns, year_range: tuple[int, int] | None, report: IngestReport
    ) -> None:
        self.vocabulary = columns.vocabulary
        self.year_range = year_range
        self.report = report
        self.columns = columns
        # every record's id, packed, and verdict; years and columns of the
        # admissible
        self.id_offsets = array("q", [0])
        self.id_data = bytearray()
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
        width = len(self.vocabulary)
        keys = (np.cumsum(kept) - 1)[rows[entries]] * width + codes[entries]
        keys.sort()
        keys = keys[_firsts(keys)]
        data, sizes = _encoded(ids)
        self.id_offsets.frombytes((np.cumsum(sizes) + len(self.id_data)).tobytes())
        self.id_data += data
        self.verdicts.frombytes(verdicts.tobytes())
        self.years.frombytes(years[kept].tobytes())
        ends = np.cumsum(np.bincount(keys // width, minlength=int(kept.sum())))
        self.indptr.frombytes((ends + self.indptr[-1]).tobytes())
        self.indices.frombytes((keys % width).astype(np.int32).tobytes())

    def corpus(self, query_label: str) -> Corpus:
        # the arrays view the buffers they were appended to
        verdicts = np.frombuffer(self.verdicts, dtype=np.int8)
        ids = PackedStrings(np.frombuffer(self.id_offsets, dtype=np.int64),
                            np.frombuffer(self.id_data, dtype=np.uint8))
        years = np.frombuffer(self.years, dtype=np.int64)
        indptr = np.frombuffer(self.indptr, dtype=np.int64)
        indices = np.frombuffer(self.indices, dtype=np.int32)
        report = self.report
        # every block is in: the memo of terms goes before the sorts, and each
        # buffer lives on only as its array, which goes once a gather has
        # replaced it
        self.columns = None
        self.id_offsets = self.id_data = self.verdicts = None
        self.years = self.indptr = self.indices = None

        ranks = string_ranks(ids)
        records = len(verdicts)
        # the admissible records, less the duplicates below: the corpus rows
        admitted = np.flatnonzero(verdicts == _ADMISSIBLE)
        own = verdicts  # the verdicts of the records that are no duplicate
        rows = None  # the sink's rows kept, when not all of them
        # a rank is at most its string's place in the sorted order, and every
        # rank is its place only when no two ids are equal: the ranks then sum
        # to 0 + 1 + ... + (records - 1)
        if int(ranks.sum(dtype=np.int64)) < records * (records - 1) // 2:
            # an id's first admissible record is admitted, and its every
            # later record is a duplicate, whatever that record's own verdict
            first = np.full(records, records, dtype=np.int64)
            np.minimum.at(first, ranks[admitted], admitted)
            first = first[ranks]
            duplicate = first < np.arange(records)
            report.excluded_duplicate += int(np.count_nonzero(duplicate))
            own = verdicts[~duplicate]
            kept = first[admitted] == admitted
            del first, duplicate
            if not kept.all():
                rows = np.flatnonzero(kept)
                admitted, years = admitted[rows], years[rows]
        report.excluded_year += int(np.count_nonzero(own == _OUT_OF_WINDOW))
        report.excluded_no_mesh += int(np.count_nonzero(own == _NO_MESH))

        # the kept rows in (year, id) order; the arrays are gathered only
        # when rows go or move
        order = _row_order(ranks[admitted], years)
        del ranks
        if order is not None:
            rows = order if rows is None else rows[order]
            admitted, years = admitted[order], years[order]
        if order is not None or len(admitted) < records:
            ids = PackedStrings(*_take_rows(*ids, admitted))
        del admitted, own, verdicts
        if rows is not None:
            indptr, indices = _take_rows(indptr, indices, rows)
        return Corpus.from_sorted_arrays(query_label, self.vocabulary, ids, years, indptr, indices)


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
            self._insert(added, self.columns.codes(names))
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
        codes[long] = terms.columns.codes(_spans_text(data, term_lo[long], term_hi[long]))
    return lines, ids, years, codes, k[ok]


def _json_records(path: str, data, starts, ends, lines, line_base: int, columns: _TermColumns):
    """The records of the given lines of a block, each parsed with
    ``json.loads`` as ``(lines, ids, years, codes, lengths)``; lines of
    whitespace are skipped.  A line reads as text mode read it: decoded as
    UTF-8, with one LF for its line end.  The terms are coded once every
    line is read."""
    size = len(data)
    raw = data.tobytes()
    read: list[int] = []
    ids: list[str] = []
    years: list[int] = []
    terms: list[str] = []
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
            mesh = [str(t) for t in mesh_field]
        except (KeyError, TypeError, ValueError, OverflowError, RecursionError) as exc:
            raise error(i, f"bad record ({exc})") from None
        read.append(i)
        ids.append(pub_id)
        years.append(year)
        terms += mesh
        lengths.append(len(mesh))
    return (np.array(read, dtype=np.int64), ids, np.array(years, dtype=np.int64),
            columns.codes(terms), np.array(lengths, dtype=np.int64))


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


def ingest_jsonl(path: str, vocabulary: Vocabulary, year_range: tuple[int, int] | None = None,
                 query_label: str = "") -> tuple[Corpus, IngestReport]:
    """Ingest JSONL: one ``{"id","year","mesh"}`` object per line.

    The file is read in blocks of about ``_LINE_BLOCK_BYTES``, each cut
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
    sink = _RecordSink(_TermColumns(vocabulary), year_range, report)
    # the block buffers and the term table go once the file is read
    _read_jsonl(path, sink)
    return sink.corpus(query_label or path), report


def _read_jsonl(path: str, sink: _RecordSink) -> None:
    """Hand the records of a JSONL file to the sink, a block at a time."""
    report = sink.report
    columns = sink.columns
    terms = _TermKeys(columns)
    line_base = 0
    with open(path, "rb") as fh:
        blocks = _line_blocks(fh, _LINE_BLOCK_BYTES, after_empty_line=False)
        for data, starts, ends, windows, marks in blocks:
            lines, *records = _template_records(data, starts, ends, windows, marks, terms)
            report.template_lines += len(lines)
            # every other line but the empty ones, which hold no record
            rest = np.ones(len(starts), dtype=bool)
            rest[lines] = False
            rest &= ends > starts
            rest = np.flatnonzero(rest)
            if len(rest):
                parsed, *more = _json_records(path, data, starts, ends, rest, line_base, columns)
                report.json_lines += len(parsed)
                records = _in_line_order(lines, records, parsed, more) if len(lines) else more
            if len(records[0]):
                sink.add_block(*records)
            line_base += len(starts)


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
        if code >= _PENDING:
            self.placed.append(value)
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

    codes = sink.columns.codes(values[first_mesh:])
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


def ingest_medline_text(path: str, vocabulary: Vocabulary,
                        year_range: tuple[int, int] | None = None,
                        query_label: str = "") -> tuple[Corpus, IngestReport]:
    """Ingest MEDLINE/PubMed text format (``PMID- ``, ``DP  - ``, ``MH  - ``).

    Records are separated by blank lines; long field values wrap onto
    continuation lines indented with six spaces, and any other line is
    ignored.  The first ``PMID`` field and the first ``DP`` field with a
    four-digit year give the record's id and year; records missing either
    are skipped and counted.  Lines end with LF, CRLF or CR; bytes that
    are not UTF-8 read as U+FFFD, and one byte order mark at the start of
    the file is skipped.

    The file is read in blocks of about ``_MEDLINE_BLOCK_BYTES``, each cut just
    after an empty line, and each block is parsed with array operations.
    """
    report = IngestReport()
    sink = _RecordSink(_MeshColumns(vocabulary), year_range, report)
    # the block buffers go once the file is read
    _read_medline(path, sink)
    return sink.corpus(query_label or path), report


def _read_medline(path: str, sink: _RecordSink) -> None:
    """Hand the records of a MEDLINE text file to the sink, a block at a time."""
    with open(path, "rb") as fh:
        blocks = _line_blocks(fh, _MEDLINE_BLOCK_BYTES, after_empty_line=True)
        for data, starts, ends, windows, marks in blocks:
            if len(starts):
                _medline_block(data, starts, ends, windows[starts], marks, sink)


def load_corpus(path: str, vocabulary: Vocabulary, year_range: tuple[int, int] | None = None,
                query_label: str = "") -> tuple[Corpus, IngestReport]:
    """Ingest JSONL when the file's first byte other than whitespace, after
    a UTF-8 byte order mark, is ``{``, else MEDLINE text."""
    with open(path, "rb") as fh:
        head = fh.read(4096).removeprefix(codecs.BOM_UTF8).lstrip()
        while not head and (block := fh.read(4096)):
            head = block.lstrip()
    ingest = ingest_jsonl if head.startswith(b"{") else ingest_medline_text
    return ingest(path, vocabulary, year_range, query_label)


# The canonical writer's chunks of rows hold fewer entries than those of
# ``corpus.CHUNK_ENTRIES``: its temporaries are Python objects, a
# reference per entry and a line per row.  A 62k-publication ``ingest``
# held 5.3 MB more than its load while writing with chunks of 2^17
# entries, 0.8 MB with chunks of 2^15 and 0.3 MB with chunks of 2^13,
# which write as fast; with 2^15, the writes of a cold MEDLINE ``ingest``
# peaked above its parse.
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


def corpus_canonical_bytes(corpus: Corpus) -> bytes:
    """Canonical serialization: sorted JSONL with descriptor ids resolved."""
    return b"".join(corpus_canonical_lines(corpus))


def write_corpus_jsonl(corpus: Corpus, path: str) -> None:
    """Write the canonical cache format (UTF-8, LF endings)."""
    with open(path, "wb") as fh:
        fh.writelines(corpus_canonical_lines(corpus))
