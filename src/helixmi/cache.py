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
"""

from __future__ import annotations

import hashlib
import os
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


def store(key: str, vocabulary: Vocabulary, corpus: Corpus, report: IngestReport) -> bool:
    """Write the entry ``key`` through a temporary file and a rename, then
    keep the ``CAPACITY`` entries used last; False when nothing could be
    written."""
    directory = cache_dir()
    temp = directory / f"{key}.{os.getpid()}.tmp"
    try:
        directory.mkdir(parents=True, exist_ok=True)
        with open(temp, "wb") as fh:
            np.savez(fh, **_arrays(vocabulary, corpus, report))
        os.replace(temp, directory / f"{key}.npz")
    except OSError:
        try:
            temp.unlink(missing_ok=True)
        except OSError:
            pass
        return False
    _evict(directory)
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
