"""A content-keyed cache of parsed inputs, so that each input is parsed once.

The commands that read a corpus store what parsing the vocabulary and
the corpus gave, the corpus arrays, the vocabulary columns and the whole
ingest report, as one ``.npz`` entry in ``${XDG_CACHE_HOME:-~/.cache}/helixmi``.
The key is the sha256 of the two input digests, the year window, the
Python and numpy versions and a digest of this package's own sources,
so that changed input bytes, parser code or Unicode tables (name
normalization uses ``str.casefold``) never read an old entry.  A
later command with the same key rebuilds the ``Vocabulary`` and the
``Corpus`` from the entry and calls no parser.

Strings are held as their UTF-8 bytes (lone surrogates passed through)
and the length of each string in code points, so that no entry needs
pickled objects.  The directory keeps the ``CAPACITY`` entries used last.
An entry that cannot be read, or whose arrays have the wrong shape, is a
miss, and a directory that cannot be written just stores nothing: no
output depends on the cache.

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


def _pack(strings) -> tuple[np.ndarray, np.ndarray]:
    lengths = np.fromiter(map(len, strings), dtype=np.int64, count=len(strings))
    data = "".join(strings).encode("utf-8", "surrogatepass")
    return np.frombuffer(data, dtype=np.uint8), lengths


def _unpack(entry: dict, name: str, count: int | None) -> list[str]:
    """The ``count`` strings (any number for None) packed as ``name``."""
    data, lengths = entry[name], entry[name + "_lengths"]
    _expect(data, np.uint8, None)
    _expect(lengths, np.int64, count)
    text = data.tobytes().decode("utf-8", "surrogatepass")
    ends = np.cumsum(lengths).tolist()
    if (lengths < 0).any() or (ends[-1] if ends else 0) != len(text):
        raise ValueError(f"{name}: lengths do not add up to the text")
    return [text[a:b] for a, b in zip([0, *ends], ends)]


def _expect(array: np.ndarray, dtype, length: int | None) -> None:
    if array.dtype != dtype or array.ndim != 1 or length not in (None, len(array)):
        raise ValueError(f"an array of {array.dtype} and shape {array.shape}")


def _expect_offsets(ptr: np.ndarray, rows: int, total: int, least: int) -> None:
    """``ptr`` is the int64 offsets of ``rows`` runs of at least ``least``
    items each, ``total`` in all."""
    _expect(ptr, np.int64, rows + 1)
    if ptr[0] != 0 or ptr[-1] != total or (np.diff(ptr) < least).any():
        raise ValueError("offsets out of range")


def _arrays(vocabulary: Vocabulary, corpus: Corpus, report: IngestReport) -> dict:
    arrays = {}
    for name, strings in (("ids", vocabulary.column_ids), ("names", vocabulary.names),
                          ("trees", vocabulary.tree_numbers), ("pub_ids", corpus.pub_ids),
                          ("unresolved", list(report.unresolved_terms))):
        arrays[name], arrays[name + "_lengths"] = _pack(strings)
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
    size = len(entry["ids_lengths"])
    ids = _unpack(entry, "ids", size)
    trees = _unpack(entry, "trees", None)
    tree_ptr = entry["tree_ptr"]
    _expect_offsets(tree_ptr, size, len(trees), 1)
    return Vocabulary(
        column_ids=tuple(ids),
        names=tuple(_unpack(entry, "names", size)),
        tree_ptr=tree_ptr,
        tree_numbers=tuple(trees),
        load_report=LoadReport(*loaded.tolist()),
    )


def _corpus(entry: dict, vocabulary: Vocabulary, query_label: str) -> tuple[Corpus, IngestReport]:
    years, indptr, indices = entry["pub_years"], entry["indptr"], entry["indices"]
    _expect(years, np.int64, None)
    _expect(indices, np.int32, None)
    _expect_offsets(indptr, len(years), len(indices), 0)
    if len(indices) and (indices.min() < 0 or indices.max() >= len(vocabulary)):
        raise ValueError("descriptor columns out of range")
    pub_ids = _unpack(entry, "pub_ids", len(years))
    counts, values = entry["report"], entry["unresolved_counts"]
    _expect(counts, np.int64, len(_REPORT_COUNTS))
    _expect(values, np.int64, None)
    report = IngestReport(
        **dict(zip(_REPORT_COUNTS, counts.tolist())),
        unresolved_terms=Counter(dict(zip(_unpack(entry, "unresolved", len(values)),
                                          values.tolist()))),
    )
    corpus = Corpus.from_sorted_arrays(query_label, vocabulary, pub_ids, years, indptr, indices)
    return corpus, report


def _read(path: Path) -> dict | None:
    """Every array of the archive at ``path``; None when it cannot be read."""
    try:
        npz = np.load(path, allow_pickle=False)
        if not isinstance(npz, np.lib.npyio.NpzFile):
            return None
        with npz:
            return {name: npz[name] for name in npz.files}
    except _UNREADABLE:
        return None


def load(key: str, query_label: str, stages: dict):
    """The vocabulary, corpus and ingest report of entry ``key``, with
    ``stages`` given the seconds each took to rebuild; None when there is
    no usable entry."""
    path = cache_dir() / f"{key}.npz"
    start = time.perf_counter()
    entry = _read(path)
    if entry is None:
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
    return vocabulary, corpus, report


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


def store(key: str, vocabulary: Vocabulary, corpus: Corpus, report: IngestReport) -> bool:
    """Write the entry ``key`` through a temporary file and a rename, then
    keep the ``CAPACITY`` entries used last; False when nothing could be
    written."""
    arrays = _arrays(vocabulary, corpus, report)
    if not _write(f"{key}.npz", lambda fh: np.savez(fh, **arrays)):
        return False
    _evict(cache_dir())
    return True


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
