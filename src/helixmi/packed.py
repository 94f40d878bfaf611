"""Columns of variable-length runs: packed strings and CSR rows.

A ``PackedStrings`` column holds many strings as one UTF-8 buffer and the
byte offset of each, so that a column of tens of thousands of strings is
two arrays and no Python objects until a string is decoded.  The
helpers here pack, decode, gather and rank such columns; ``_take_rows``
gathers rows of any CSR pair, packed strings or a corpus's incidence.
"""

from __future__ import annotations

from typing import NamedTuple

import numpy as np


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


def _take_rows(indptr: np.ndarray, values: np.ndarray, rows: np.ndarray) -> tuple[np.ndarray, ...]:
    """The CSR rows ``rows`` of ``(indptr, values)``, in that order: their
    int64 indptr and their values, each row's run gathered at once."""
    lengths = np.diff(indptr)[rows]
    taken = np.zeros(len(lengths) + 1, dtype=np.int64)
    np.cumsum(lengths, out=taken[1:])
    return taken, values[_row_runs(indptr[:-1][rows], lengths, taken)]


class PackedStrings(NamedTuple):
    """Strings as one UTF-8 buffer, lone surrogates passed through: string i
    is the bytes ``data[offsets[i]:offsets[i + 1]]``."""

    offsets: np.ndarray  # int64, one more entry than there are strings
    data: np.ndarray  # uint8


def _encoded(strings) -> tuple[bytes, np.ndarray]:
    """The UTF-8 bytes of a sequence of strings, lone surrogates passed
    through, and the int64 byte length of each string."""
    text = "".join(strings)
    data = text.encode("utf-8", "surrogatepass")
    if len(data) == len(text):
        # ASCII: a byte per code point
        lengths = map(len, strings)
    else:
        lengths = (len(s.encode("utf-8", "surrogatepass")) for s in strings)
    return data, np.fromiter(lengths, dtype=np.int64, count=len(strings))


def pack_strings(strings) -> PackedStrings:
    """A sequence of strings as one packed column."""
    data, lengths = _encoded(strings)
    offsets = np.zeros(len(strings) + 1, dtype=np.int64)
    np.cumsum(lengths, out=offsets[1:])
    return PackedStrings(offsets, np.frombuffer(data, dtype=np.uint8))


def unpack_strings(packed: PackedStrings, lo: int = 0, hi: int | None = None) -> list[str]:
    """Strings ``lo`` to ``hi`` (the last when None) of a packed column,
    decoded."""
    bounds = packed.offsets[lo:] if hi is None else packed.offsets[lo:hi + 1]
    raw = packed.data[bounds[0]:bounds[-1]].tobytes()
    text = raw.decode("utf-8", "surrogatepass")
    bounds = (bounds - bounds[0]).tolist()
    if len(text) == len(raw):
        # ASCII: the byte offsets are code point offsets
        return [text[a:b] for a, b in zip(bounds, bounds[1:])]
    return [raw[a:b].decode("utf-8", "surrogatepass") for a, b in zip(bounds, bounds[1:])]


def take_strings(packed: PackedStrings, rows) -> list[str]:
    """Strings ``rows`` of a packed column, in that order, gathered and
    decoded at once."""
    return unpack_strings(PackedStrings(*_take_rows(*packed, np.asarray(rows, dtype=np.int64))))


# the high i bytes of a uint64, for i = 0..8
_HIGH_BYTES = np.array([~((1 << 8 * (8 - i)) - 1) & (2**64 - 1) for i in range(9)],
                       dtype=np.uint64)


def _chunk_words(data: np.ndarray, starts: np.ndarray, sizes: np.ndarray) -> np.ndarray:
    """The ``sizes[i]`` (at most eight) bytes from ``data[starts[i]]`` as a
    big-endian uint64, zero-padded: the eight bytes from each start are
    read, or the last eight of ``data``, shifted, for a start within them."""
    if len(data) < 8:
        data = np.concatenate((data, np.zeros(8, dtype=np.uint8)))
    last = len(data) - 8
    windows = np.ndarray((last + 1,), dtype="<u8", buffer=data, strides=(1,))
    read = np.minimum(starts, last)
    words = windows[read]
    words.byteswap(inplace=True)
    # each word's left shift in bits, in place: the bytes it was read
    # before its start, times eight
    np.subtract(starts, read, out=read)
    if read.any():
        read <<= 3
        words <<= read.view(np.uint64)
    del read
    words &= _HIGH_BYTES[sizes]
    return words


def string_ranks(packed: PackedStrings) -> np.ndarray:
    """The rank of each string of a packed column: how many of its strings
    are smaller, in code point order, so that equal strings share a rank;
    int32 when the strings are fewer than 2**31, else int64.

    UTF-8 bytes, lone surrogates included, compare as their code points
    do, so the strings are sorted by their bytes, eight at a time: a chunk
    of up to eight bytes is its big-endian word, zero-padded, then its
    length.  All first chunks are sorted at once; after that only strings
    that tie with another so far and hold a full chunk read their next
    one, all of them at once, each sorted within its ties.  The strings'
    arrays are gathered into each new order one at a time.
    """
    offsets, data = packed
    index = np.int32 if len(offsets) <= 2**31 else np.int64
    ranks = None  # set by the first chunks
    todo = None  # every string
    pos = 0
    while todo is None or len(todo) > 1:
        if todo is None:
            starts, lengths = offsets[:-1], np.diff(offsets)
        else:
            starts = offsets[todo]
            starts += pos
            lengths = offsets[1:][todo]
            lengths -= starts
        sizes = np.minimum(lengths, 8, out=lengths).astype(np.uint8)
        del lengths
        words = _chunk_words(data, starts, sizes)
        del starts
        # each string's rank so far, which the strings it ties with share
        tied = None if todo is None else ranks[todo]
        if tied is None:
            order = np.lexsort((sizes, words))
            words.sort()  # as the order has them, without a gather
            todo = order.astype(index)
        else:
            order = np.lexsort((sizes, words, tied))
            todo = todo[order]
            words = words[order]
            tied = tied[order]
        sizes = sizes[order]
        del order
        runs = _firsts(words)
        runs[1:] |= sizes[1:] != sizes[:-1]
        del words
        # a run of strings that tie on this chunk as well ranks after the
        # strings before it in its group: from the group's rank, plus the
        # run's start less the group's
        run_ranks = np.arange(len(todo), dtype=index)
        if tied is not None:
            groups = _firsts(tied)
            runs |= groups
            group_starts = np.where(groups, run_ranks, 0)
            tied -= np.maximum.accumulate(group_starts, out=group_starts)
            del groups, group_starts
        run_ranks[~runs] = 0
        np.maximum.accumulate(run_ranks, out=run_ranks)
        if tied is not None:
            run_ranks += tied
            del tied
        if ranks is None:
            ranks = np.empty_like(run_ranks)
        ranks[todo] = run_ranks
        del run_ranks
        # the strings of a run that hold a full chunk may differ later on
        alone = runs.copy()
        alone[:-1] &= runs[1:]
        todo = todo[~alone & (sizes == 8)]
        pos += 8
    return ranks
