"""A content-keyed cache of parsed inputs, so that each input is parsed once.

A command that reads a corpus makes one call, ``load_or_parse``: it
rebuilds the parsed inputs from the entry of the input files' bytes, or
parses them and stores an entry, one ``.npz`` file in
``${XDG_CACHE_HOME:-~/.cache}/helixmi`` that holds the corpus arrays,
the vocabulary columns and the whole ingest report.
The key is the sha256 of the two input digests, the year window, the
Python and numpy versions and a digest of this package's own sources,
so that changed input bytes, parser code or Unicode tables (name
normalization uses ``str.casefold``) never read an old entry.  A
later command with the same key rebuilds the ``Vocabulary`` and the
``Corpus`` from the entry and calls no parser.

Strings are held as packed columns (``packed.PackedStrings``): their
UTF-8 bytes, lone surrogates passed through, and the byte offset of
each, so that no entry needs pickled objects.  A hit checks the packed
columns and keeps them as read: the vocabulary's ids, names and tree
numbers and the publication ids are decoded only where a command asks
for them, and only the unresolved terms of the ingest report are
decoded here.
The directory keeps the ``CAPACITY`` entries used last.  An entry that
cannot be read, or whose arrays have the wrong shape, is a miss, and a
directory that cannot be written just stores nothing: no output depends
on the cache.

So that a command does not read its inputs whole to find their key, the
directory also keeps a digest index, ``digests.txt``: one row per input
file, ``device inode size mtime_ns ctime_ns sha256``.  A file whose stat
matches its row takes the row's digest; any other is hashed, and its row
is written once the file has gone ``_RECENT_NS`` unchanged, as any later
write then changes its ctime.  The index keeps the ``INDEX_ROWS`` rows
used last; one that cannot be read or written is an empty one.
"""

from __future__ import annotations

import hashlib
import os
import re
import sys
import time
import zipfile
import zlib
from collections import Counter
from dataclasses import fields
from pathlib import Path

import numpy as np

from .corpus import Corpus, IngestReport
from .mesh import LoadReport, Vocabulary
from .packed import PackedStrings, pack_strings, unpack_strings

# entries kept; storing one more removes the one read or written longest ago
CAPACITY = 8

# a temporary file this old belongs to a writer that died before its rename
_STALE_TEMP_S = 3600.0

# a file changed this shortly before its stat may change again within the
# same timestamp tick, which leaves its stat as it was; such a file is
# hashed again after the parse, and its digest is not indexed
_RECENT_NS = 2_000_000_000

# rows of the digest index kept; recording one more removes the one used
# longest ago
INDEX_ROWS = 2 * CAPACITY
_INDEX_NAME = "digests.txt"
_INDEX_ROW = re.compile(r"(\d+) (\d+) (\d+) (-?\d+) (-?\d+) ([0-9a-f]{64})")

# the errors np.load raises for a file that is missing, truncated or not
# an archive of arrays it can read without pickle; zipfile raises the last
# three for a member marked encrypted, one in a format it does not support
# and one it cannot inflate
_UNREADABLE = (OSError, EOFError, KeyError, ValueError, zipfile.BadZipFile,
               RuntimeError, NotImplementedError, zlib.error)

# every field of the report but the unresolved terms is a count
_REPORT_COUNTS = [f.name for f in fields(IngestReport) if f.name != "unresolved_terms"]


def cache_dir() -> Path:
    """``$XDG_CACHE_HOME/helixmi``, or ``~/.cache/helixmi`` when the
    variable is unset, empty or not an absolute path."""
    base = os.environ.get("XDG_CACHE_HOME", "")
    if not os.path.isabs(base):
        base = os.path.join(os.path.expanduser("~"), ".cache")
    return Path(base) / "helixmi"


def file_sha256(path) -> str:
    digest = hashlib.sha256()
    with open(path, "rb") as fh:
        for chunk in iter(lambda: fh.read(1 << 20), b""):
            digest.update(chunk)
    return digest.hexdigest()


def input_stats(paths) -> list[tuple] | None:
    """(device, inode, size, mtime_ns, ctime_ns) of each file; None when
    one cannot be read."""
    try:
        stats = [os.stat(path) for path in paths]
    except OSError:
        return None
    return [(s.st_dev, s.st_ino, s.st_size, s.st_mtime_ns, s.st_ctime_ns) for s in stats]


def _settled(stat: tuple, checked_ns: int) -> bool:
    """Whether a file with ``stat``, taken at ``checked_ns``, was last
    changed long enough before that any later write changes its stat."""
    return stat[4] < checked_ns - _RECENT_NS


def unchanged(paths, stats, checked_ns: int, digests) -> bool:
    """Whether the files still hold the bytes that had ``digests`` when
    ``stats`` were taken, at ``checked_ns``: any write since changes a
    file's ctime, unless it came in the tick of a write before the stat."""
    if stats is None or input_stats(paths) != stats:
        return False
    if all(_settled(stat, checked_ns) for stat in stats):
        return True
    try:
        return [file_sha256(path) for path in paths] == list(digests)
    except OSError:
        return False


def _read_index() -> dict:
    """(device, inode) -> (size, mtime_ns, ctime_ns, sha256), in the order
    used; empty when the index is missing or damaged."""
    try:
        text = (cache_dir() / _INDEX_NAME).read_text(encoding="ascii")
    except (OSError, ValueError):  # ValueError: bytes that are not ASCII
        return {}
    rows = {}
    for line in text.splitlines():
        match = _INDEX_ROW.fullmatch(line)
        if match is None:
            return {}
        dev, ino, size, mtime, ctime = map(int, match.groups()[:5])
        rows[dev, ino] = (size, mtime, ctime, match[6])
    return rows


def input_digests(paths, stats, checked_ns: int) -> tuple[list[str] | None, bool]:
    """The sha256 of each file, and whether all of them came from the
    digest index; (None, False) when a file cannot be read.

    ``stats`` are the files' stats taken at ``checked_ns``.  A file whose
    stat matches its row is not read; any other is hashed, and its row is
    written when the file is settled."""
    if stats is None:
        return None, False
    index = _read_index()
    before = list(index.items())
    digests, hashed = [], False
    for path, stat in zip(paths, stats):
        row = index.pop(stat[:2], None)
        if row is None or row[:3] != stat[2:]:
            try:
                row = (*stat[2:], file_sha256(path))
            except OSError:
                return None, False
            hashed = True
        digests.append(row[3])
        if _settled(stat, checked_ns):
            index[stat[:2]] = row  # the row used last comes last
    rows = list(index.items())[-INDEX_ROWS:]
    if rows != before:
        text = "".join(f"{dev} {ino} {size} {mtime} {ctime} {digest}\n"
                       for (dev, ino), (size, mtime, ctime, digest) in rows)
        _write(_INDEX_NAME, lambda fh: fh.write(text.encode("ascii")))
    return digests, not hashed


def _source_digest() -> str:
    digest = hashlib.sha256()
    for path in sorted(Path(__file__).parent.glob("*.py")):
        digest.update(path.name.encode() + b"\0" + path.read_bytes() + b"\0")
    return digest.hexdigest()


def entry_key(mesh_sha256: str, corpus_sha256: str, years) -> str | None:
    """The key of the entry for these inputs and this code, or None when
    the package's sources cannot be read."""
    try:
        source = _source_digest()
    except OSError:
        return None
    parts = (mesh_sha256, corpus_sha256, repr(years), sys.version, np.__version__, source)
    return hashlib.sha256("\0".join(parts).encode()).hexdigest()


def _packed(entry: dict, name: str, count: int | None) -> PackedStrings:
    """The column of ``count`` strings (any number for None) packed as
    ``name``, not decoded: its offsets must tile its bytes, and each string
    must start at a character."""
    data, offsets = entry[name], entry[name + "_offsets"]
    _expect(data, np.uint8, None)
    _expect_offsets(offsets, count, len(data), 0)
    # UTF-8 continuation bytes are 0b10xxxxxx
    if ((data[offsets[:-1][np.diff(offsets) > 0]] & 0xC0) == 0x80).any():
        raise ValueError(f"{name}: a string starts within a character")
    return PackedStrings(offsets, data)


def _unpack(entry: dict, name: str, count: int | None) -> list[str]:
    """The ``count`` strings (any number for None) packed as ``name``."""
    return unpack_strings(_packed(entry, name, count))


def _expect(array: np.ndarray, dtype, length: int | None) -> None:
    if array.dtype != dtype or array.ndim != 1 or length not in (None, len(array)):
        raise ValueError(f"an array of {array.dtype} and shape {array.shape}")


def _expect_offsets(ptr: np.ndarray, rows: int | None, total: int, least: int) -> None:
    """``ptr`` is the int64 offsets of ``rows`` runs (any number for None)
    of at least ``least`` items each, ``total`` in all."""
    _expect(ptr, np.int64, None if rows is None else rows + 1)
    if not len(ptr) or ptr[0] != 0 or ptr[-1] != total or (np.diff(ptr) < least).any():
        raise ValueError("offsets out of range")


def _arrays(corpus: Corpus, report: IngestReport) -> dict:
    vocabulary = corpus.vocabulary
    arrays = {}
    for name, packed in (("ids", vocabulary.packed_ids), ("names", vocabulary.packed_names),
                         ("trees", vocabulary.packed_trees),
                         ("unresolved", pack_strings(list(report.unresolved_terms))),
                         ("pub_ids", corpus.ids)):
        arrays[name + "_offsets"], arrays[name] = packed
    loaded = vocabulary.load_report
    arrays["tree_ptr"] = vocabulary.tree_ptr
    arrays["load_report"] = np.array([loaded.loaded, loaded.skipped_no_tree], dtype=np.int64)
    arrays["pub_years"] = corpus.pub_years
    arrays["indptr"], arrays["indices"] = corpus.incidence
    arrays["unresolved_counts"] = np.fromiter(
        report.unresolved_terms.values(), dtype=np.int64, count=len(report.unresolved_terms))
    arrays["report"] = np.array([getattr(report, k) for k in _REPORT_COUNTS], dtype=np.int64)
    return arrays


def _vocabulary(entry: dict) -> Vocabulary:
    loaded = entry["load_report"]
    _expect(loaded, np.int64, 2)
    ids = _packed(entry, "ids", None)
    size = len(ids.offsets) - 1
    trees = _packed(entry, "trees", None)
    tree_ptr = entry["tree_ptr"]
    _expect_offsets(tree_ptr, size, len(trees.offsets) - 1, 1)
    return Vocabulary(
        packed_ids=ids,
        packed_names=_packed(entry, "names", size),
        tree_ptr=tree_ptr,
        packed_trees=trees,
        load_report=LoadReport(*loaded.tolist()),
    )


def _corpus(entry: dict, vocabulary: Vocabulary, query_label: str) -> tuple[Corpus, IngestReport]:
    years, indptr, indices = entry["pub_years"], entry["indptr"], entry["indices"]
    _expect(years, np.int64, None)
    _expect(indices, np.int32, None)
    _expect_offsets(indptr, len(years), len(indices), 0)
    if len(indices) and (indices.min() < 0 or indices.max() >= len(vocabulary)):
        raise ValueError("descriptor columns out of range")
    ids = _packed(entry, "pub_ids", len(years))
    counts, values = entry["report"], entry["unresolved_counts"]
    _expect(counts, np.int64, len(_REPORT_COUNTS))
    _expect(values, np.int64, None)
    report = IngestReport(
        **dict(zip(_REPORT_COUNTS, counts.tolist())),
        unresolved_terms=Counter(dict(zip(_unpack(entry, "unresolved", len(values)),
                                          values.tolist()))),
    )
    corpus = Corpus.from_sorted_arrays(query_label, vocabulary, ids, years, indptr, indices)
    return corpus, report


def load(key: str, query_label: str, stages: dict):
    """The corpus and ingest report of entry ``key``, with ``stages`` given
    the seconds the vocabulary and the rest took to rebuild; None when
    there is no usable entry."""
    path = cache_dir() / f"{key}.npz"
    start = time.perf_counter()
    try:
        npz = np.load(path, allow_pickle=False)
        if not isinstance(npz, np.lib.npyio.NpzFile):
            return None
        with npz:
            entry = {name: npz[name] for name in npz.files}
    except _UNREADABLE:
        return None
    read = time.perf_counter()
    try:
        vocabulary = _vocabulary(entry)
        built = time.perf_counter()
        corpus, report = _corpus(entry, vocabulary, query_label)
    except (KeyError, ValueError):  # a missing array, or one out of shape
        return None
    # reading the entry counts as ingest
    stages["vocabulary_s"] = built - read
    stages["ingest_s"] = time.perf_counter() - built + read - start
    try:
        os.utime(path)  # the entry was used last
    except OSError:
        pass
    return corpus, report


def _write(name: str, write) -> bool:
    """Write the file ``name`` of the cache directory by ``write(fh)`` on a
    temporary file and a rename, so that a reader sees the old file or the
    new one whole; False when nothing could be written."""
    directory = cache_dir()
    temp = directory / f"{name}.{os.getpid()}.tmp"
    try:
        directory.mkdir(parents=True, exist_ok=True)
        with open(temp, "wb") as fh:
            write(fh)
        os.replace(temp, directory / name)
    except OSError:
        try:
            temp.unlink(missing_ok=True)
        except OSError:
            pass
        return False
    return True


def _savez(fh, arrays: dict) -> None:
    """``np.savez(fh, **arrays)``, each array written from its own buffer:
    numpy's writer first copies an array of up to 16 MB into one bytes
    object, which set the peak of a cold 62k-publication ``ingest``."""
    with zipfile.ZipFile(fh, "w", allowZip64=True) as archive:
        for name, array in arrays.items():
            array = np.ascontiguousarray(array)
            with archive.open(f"{name}.npy", "w", force_zip64=True) as member:
                header = np.lib.format.header_data_from_array_1_0(array)
                np.lib.format.write_array_header_1_0(member, header)
                member.write(array.data)


def store(key: str, corpus: Corpus, report: IngestReport) -> bool:
    """Write the entry ``key`` through a temporary file and a rename, then
    keep the ``CAPACITY`` entries used last; False when nothing could be
    written."""
    arrays = _arrays(corpus, report)
    if not _write(f"{key}.npz", lambda fh: _savez(fh, arrays)):
        return False
    _evict(cache_dir())
    return True


def load_or_parse(paths, years, query_label: str, parse, stages: dict):
    """The corpus, ingest report and sha256 digests of the vocabulary and
    corpus files ``paths`` in the year window ``years``: from their entry,
    else from ``parse()``, stored if the files did not change meanwhile.
    ``stages`` records ``digests``, ``digest_s``, ``cache`` and, on a hit,
    the seconds of the rebuild."""
    # an unreadable input leaves ``parse`` to report it, as without a cache
    stats, checked_ns = input_stats(paths), time.time_ns()
    start = time.perf_counter()
    digests, indexed = input_digests(paths, stats, checked_ns)
    stages["digests"] = "index" if indexed else "hashed"
    stages["digest_s"] = time.perf_counter() - start
    key = entry_key(*digests, years) if digests else None
    loaded = load(key, query_label, stages) if key else None
    if loaded:
        stages["cache"] = "hit"
        return *loaded, digests
    corpus, report = parse()
    # an entry holds only what the bytes of its key parse to
    stored = (bool(key) and unchanged(paths, stats, checked_ns, digests)
              and store(key, corpus, report))
    stages["cache"] = "stored" if stored else "off"
    return corpus, report, digests or [file_sha256(path) for path in paths]


def _evict(directory: Path) -> None:
    """Remove all but the ``CAPACITY`` entries used last, and temporary
    files left by writers that died."""
    entries = []
    now = time.time()
    try:
        for path in directory.iterdir():
            try:
                used = path.stat().st_mtime
                if path.suffix == ".npz":
                    entries.append((used, path.name, path))
                elif path.suffix == ".tmp" and now - used > _STALE_TEMP_S:
                    path.unlink()
            except OSError:  # removed by another process meanwhile
                pass
        entries.sort()
        for _, _, path in entries[:-CAPACITY]:
            path.unlink(missing_ok=True)
    except OSError:
        pass
