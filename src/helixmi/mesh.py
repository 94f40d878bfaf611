"""The MeSH controlled vocabulary and its branch metadata.

A :class:`Vocabulary` holds the ids, names and tree-number codes as
packed UTF-8 columns sorted by id, with no per-descriptor objects and no
decoded strings until asked for.  Terms are looked up through two small
hash tables over the packed ids and the normalized names, whose
candidates are checked against the packed columns, and the loaders pack
their descriptors a batch at a time, so that no decoded copy of the
whole vocabulary is ever held.
It is immutable after loading and safe to share across workers: a
pickled one leaves its hash tables out, since another process salts
string hashes differently, and rebuilds them on its first lookup.  Its
loaders and writer are in ``formats``; their names are still found
here, and ``formats`` is imported when one is first asked for.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from typing import NamedTuple

import numpy as np

from .errors import DataError
from .packed import (PackedStrings, _encoded, _firsts, _row_runs, _take_rows, string_ranks,
                     take_strings, unpack_strings)

VALID_BRANCHES = frozenset("ABCDEFGHIJKLMNVZ")

# the branches every count is taken over: diseases, drugs, techniques
BRANCHES = ("C", "D", "E")


class MeshFormatError(DataError):
    """Raised when a descriptor file cannot be parsed."""


def normalize_name(name: str) -> str:
    """Canonical lookup key for a descriptor name: case-fold + trim."""
    return name.strip().casefold()


@dataclass(frozen=True)
class TreeNumber:
    """One dot-separated position code, e.g. ``A08.186.211``."""

    raw: str

    def __post_init__(self) -> None:
        if not self.raw or self.raw[0] not in VALID_BRANCHES:
            raise MeshFormatError(f"invalid tree number {self.raw!r}")

    @property
    def branch(self) -> str:
        return self.raw[0]

    @property
    def depth(self) -> int:
        return 1 + self.raw.count(".")


@dataclass(frozen=True)
class MeshDescriptor:
    """One vocabulary term with its tree positions.

    A descriptor may sit in several branches at once; ``primary_branch``
    picks the branch of its shallowest tree number (ties broken
    alphabetically by branch letter, then by the raw code), on the view
    that the shallowest placement is the term's most general home.
    """

    id: str
    name: str
    tree_numbers: tuple[TreeNumber, ...]

    def __post_init__(self) -> None:
        if not self.tree_numbers:
            raise MeshFormatError(f"descriptor {self.id!r} has no tree numbers")

    @property
    def branches(self) -> frozenset[str]:
        return frozenset(t.branch for t in self.tree_numbers)

    @property
    def primary_branch(self) -> str:
        best = min(self.tree_numbers, key=lambda t: (t.depth, t.branch, t.raw))
        return best.branch


@dataclass(frozen=True)
class LoadReport:
    loaded: int = 0
    skipped_no_tree: int = 0


# the hash of a lookup key, a module name so that a test can force collisions
_hash = hash


class _HashTable(NamedTuple):
    """The Python ``hash`` of every string of a column with its low ``bits``
    replaced by the string's column, ascending: a key whose hash agrees on
    the other bits names candidates only, which a lookup checks against the
    packed strings."""

    keys: np.ndarray  # int64
    bits: int


def _hashes(keys, count: int) -> np.ndarray:
    """The ``hash`` of each of ``count`` strings, as int64."""
    return np.fromiter(map(_hash, keys), dtype=np.int64, count=count)


def _hash_table(hashes: np.ndarray, columns: np.ndarray) -> _HashTable:
    """The table of distinct strings with ``hashes``, string i in column
    ``columns[i]``."""
    bits = max(len(hashes) - 1, 0).bit_length()  # the bits a column takes
    keys = hashes & ~((1 << bits) - 1)
    keys |= columns
    keys.sort()
    return _HashTable(keys, bits)


def _candidates(table: _HashTable, keys) -> tuple[np.ndarray, np.ndarray]:
    """Every (key, column) pair whose string's hash agrees with the key's
    beyond the table's column bits, as two arrays: the index of the key,
    ascending, and the column."""
    table_keys, bits = table
    low = (1 << bits) - 1
    wanted = _hashes(keys, len(keys))
    wanted &= ~low
    lo = table_keys.searchsorted(wanted)
    wanted |= low
    counts = table_keys.searchsorted(wanted, side="right")
    counts -= lo
    if not (counts > 1).any():
        # no two strings of the table agree with a key, as is usual
        found = np.flatnonzero(counts)
        return found, table_keys[lo[found]] & low
    bounds = np.zeros(len(keys) + 1, dtype=np.int64)
    np.cumsum(counts, out=bounds[1:])
    return (np.repeat(np.arange(len(keys)), counts),
            table_keys[_row_runs(lo, counts, bounds)] & low)


def _bytes_at(packed: PackedStrings, columns: np.ndarray) -> list[bytes]:
    """The UTF-8 bytes of strings ``columns`` of a packed column, each
    sliced from it on its own: for the few candidates of a lookup, cheaper
    than a gather."""
    data = memoryview(packed.data)
    return [data[a:b].tobytes() for a, b in zip(packed.offsets[columns].tolist(),
                                                  packed.offsets[columns + 1].tolist())]


def _check_unique(ids: PackedStrings, names: PackedStrings, ranks: np.ndarray,
                  name_hashes: np.ndarray) -> None:
    """Raise for the first descriptor, in input order, whose id an earlier
    one has (equal ids share a rank), or else whose normalized name an
    earlier one has: names whose hashes agree beyond a table's column bits
    are decoded and compared normalized."""
    count = len(ranks)
    # a stable sort keeps equal ids in input order
    order = np.lexsort((ranks,))
    bad = np.empty(count, dtype=bool)
    bad[order] = ~_firsts(ranks[order])
    id_duplicate = bad.copy()
    holder = {}  # descriptor -> the earlier one of its normalized name
    # the descriptors by hash, as a table of their names holds them: those
    # whose hashes agree beyond the column bits come together, in input order
    names_by_hash, bits = _hash_table(name_hashes, np.arange(count))
    low = (1 << bits) - 1
    cuts = np.flatnonzero(_firsts(names_by_hash & ~low)).tolist() + [count]
    for lo, hi in zip(cuts, cuts[1:]):
        if hi - lo > 1:
            group = (names_by_hash[lo:hi] & low).tolist()
            earliest: dict[str, int] = {}
            for i, name in zip(group, take_strings(names, group)):
                j = earliest.setdefault(normalize_name(name), i)
                if j != i:
                    holder[i] = j
    bad[list(holder)] = True
    if bad.any():
        i = int(np.argmax(bad))
        if id_duplicate[i]:
            raise MeshFormatError(f"duplicate descriptor id {take_strings(ids, [i])[0]!r}")
        name, = take_strings(names, [i])
        first, uid = take_strings(ids, [holder[i], i])
        raise MeshFormatError(f"duplicate descriptor name {name!r} (ids {first!r} and {uid!r})")


def _check_tree_numbers(raws) -> None:
    """Raise for the first code that is empty or starts outside the
    valid branch letters, as ``TreeNumber`` does."""
    for raw in raws:
        if raw[:1] not in VALID_BRANCHES:
            TreeNumber(raw)


def _packed(data: list[bytes], lengths: list[np.ndarray]) -> PackedStrings:
    """One packed column of batches of UTF-8 bytes and string lengths."""
    lengths = np.concatenate(lengths)
    offsets = np.zeros(len(lengths) + 1, dtype=np.int64)
    np.cumsum(lengths, out=offsets[1:])
    return PackedStrings(offsets, np.frombuffer(b"".join(data), dtype=np.uint8))


class _DescriptorColumns:
    """Descriptors packed as they come, a batch at a time, so that no
    string of a batch outlives it: ids, names and tree numbers as UTF-8
    bytes and lengths, each descriptor's number of tree numbers, and the
    ``hash`` of its id and of its normalized name, which the lookups'
    tables hold.  :meth:`vocabulary` checks and sorts them."""

    def __init__(self) -> None:
        self.batches: list[tuple] = []

    def add(self, ids, names, tree_counts, tree_numbers) -> None:
        """Descriptor i of the batch is ``ids[i]``, named ``names[i]``,
        with the next ``tree_counts[i]`` codes of ``tree_numbers``.
        Raises for the first invalid tree number, then for a descriptor
        without one."""
        _check_tree_numbers(tree_numbers)
        counts = np.asarray(tree_counts, dtype=np.int64).reshape(len(ids))
        if len(counts) and counts.min() < 1:
            uid = ids[int(np.argmax(counts < 1))]
            raise MeshFormatError(f"descriptor {uid!r} has no tree numbers")
        self.batches.append((*_encoded(ids), *_encoded(names), *_encoded(tree_numbers), counts,
                             _hashes(ids, len(ids)),
                             _hashes(map(normalize_name, names), len(names))))

    def vocabulary(self, skipped_no_tree: int) -> "Vocabulary":
        """The descriptors added, at least one batch, sorted by id.  Raises
        for the first descriptor, in the order added, whose id or
        normalized name an earlier one has."""
        (id_data, id_lengths, name_data, name_lengths, tree_data, tree_lengths, counts,
         id_hashes, name_hashes) = zip(*self.batches)
        self.batches = []
        packed_ids = _packed(id_data, id_lengths)
        packed_names = _packed(name_data, name_lengths)
        packed_trees = _packed(tree_data, tree_lengths)
        counts = np.concatenate(counts)
        count = len(counts)
        # each descriptor's column once sorted, which equal ids share
        columns = string_ranks(packed_ids)
        name_hashes = np.concatenate(name_hashes)
        _check_unique(packed_ids, packed_names, columns, name_hashes)
        tree_ptr = np.zeros(count + 1, dtype=np.int64)
        np.cumsum(counts, out=tree_ptr[1:])
        if (columns != np.arange(count)).any():
            order = np.empty_like(columns)
            order[columns] = np.arange(count)
            packed_ids = PackedStrings(*_take_rows(*packed_ids, order))
            packed_names = PackedStrings(*_take_rows(*packed_names, order))
            tree_ptr, trees = _take_rows(tree_ptr, np.arange(tree_ptr[-1]), order)
            packed_trees = PackedStrings(*_take_rows(*packed_trees, trees))
        vocabulary = Vocabulary(
            packed_ids=packed_ids,
            packed_names=packed_names,
            tree_ptr=tree_ptr,
            packed_trees=packed_trees,
            load_report=LoadReport(loaded=count, skipped_no_tree=skipped_no_tree),
        )
        vocabulary.__dict__["_id_table"] = _hash_table(np.concatenate(id_hashes), columns)
        vocabulary.__dict__["_name_table"] = _hash_table(name_hashes, columns)
        return vocabulary


@dataclass(eq=False)
class Vocabulary:
    """Descriptors as packed columns (``packed.PackedStrings``), sorted by id.

    Column j is the descriptor whose id is string j of ``packed_ids``,
    named by string j of ``packed_names``, with the tree numbers
    ``tree_ptr[j]`` to ``tree_ptr[j + 1]`` of ``packed_trees`` (at least
    one, in the order its file gave them).  Every array view uses this
    column order, so ties broken by id are ties broken by column index.

    The columns stay packed.  The branch matrices and primary branches
    are built from the codes' bytes on first read, and ``ids_at`` and
    ``names_at`` decode the few columns a caller writes.  ``column_ids``,
    ``names`` and ``tree_numbers`` decode a whole column on first read,
    and the ``MeshDescriptor`` view is built from them.  Terms are looked
    up (:meth:`term_columns`) through two hash tables, one over the ids
    and one over the normalized names: each holds every string's
    ``hash`` with its column in the low bits, 8 bytes per descriptor, and
    a candidate whose hash agrees is checked against the packed column,
    so no decoded id or name is kept.  :meth:`from_columns` and the
    loaders build both tables as they pack the strings, a batch at a time
    (``_DescriptorColumns``); a vocabulary read from the cache (``cache``)
    builds them on its first lookup, and decodes nothing until a command
    asks.  Build one with :meth:`from_columns`, which checks and sorts
    its input.
    """

    packed_ids: PackedStrings
    packed_names: PackedStrings
    tree_ptr: np.ndarray  # int64, one more entry than there are descriptors
    packed_trees: PackedStrings
    load_report: LoadReport

    def __len__(self) -> int:
        return len(self.packed_ids.offsets) - 1

    @cached_property
    def column_ids(self) -> tuple[str, ...]:
        """Every descriptor's id, in column order, decoded on first read."""
        return tuple(unpack_strings(self.packed_ids))

    @cached_property
    def names(self) -> tuple[str, ...]:
        """Every descriptor's name, in column order, decoded on first read."""
        return tuple(unpack_strings(self.packed_names))

    @cached_property
    def tree_numbers(self) -> tuple[str, ...]:
        """Every tree number, in column order, decoded on first read."""
        return tuple(unpack_strings(self.packed_trees))

    def ids_at(self, columns) -> list[str]:
        """The ids of descriptor columns ``columns``, in that order."""
        return take_strings(self.packed_ids, columns)

    def names_at(self, columns) -> list[str]:
        """The names of descriptor columns ``columns``, in that order."""
        return take_strings(self.packed_names, columns)

    @cached_property
    def descriptors(self) -> dict[str, MeshDescriptor]:
        """The descriptors as objects keyed by id, in column order."""
        bounds = self.tree_ptr.tolist()
        return {
            uid: MeshDescriptor(uid, name, tuple(map(TreeNumber, self.tree_numbers[a:b])))
            for uid, name, a, b in zip(self.column_ids, self.names, bounds, bounds[1:])
        }

    def __getstate__(self) -> dict:
        # the tables hold this process's string hashes, which another process
        # salts differently: an unpickled vocabulary rebuilds them
        state = dict(self.__dict__)
        state.pop("_id_table", None)
        state.pop("_name_table", None)
        return state

    @cached_property
    def _id_table(self) -> _HashTable:
        return _hash_table(_hashes(unpack_strings(self.packed_ids), len(self)),
                           np.arange(len(self)))

    @cached_property
    def _name_table(self) -> _HashTable:
        keys = map(normalize_name, unpack_strings(self.packed_names))
        return _hash_table(_hashes(keys, len(self)), np.arange(len(self)))

    def _id_columns(self, tokens) -> np.ndarray:
        """The int64 column of each token that is a descriptor id, else -1:
        each candidate's packed bytes are compared with the token's."""
        found = np.full(len(tokens), -1, dtype=np.int64)
        keys, columns = _candidates(self._id_table, tokens)
        if len(columns):
            same = np.array([tokens[k].encode("utf-8", "surrogatepass") == raw for k, raw
                             in zip(keys.tolist(), _bytes_at(self.packed_ids, columns))],
                            dtype=bool)
            found[keys[same]] = columns[same]
        return found

    def term_columns(self, tokens) -> np.ndarray:
        """The int64 column of each of a sequence of tokens: the descriptor
        whose id it is, else the one whose name it has once both are
        normalized (``normalize_name``), else -1.  Each candidate name is
        decoded and normalized to be checked."""
        found = self._id_columns(tokens)
        rest = np.flatnonzero(found < 0)
        if len(rest):
            keys = [normalize_name(tokens[i]) for i in rest.tolist()]
            owners, columns = _candidates(self._name_table, keys)
            if len(columns):
                same = np.array([keys[k] == normalize_name(raw.decode("utf-8", "surrogatepass"))
                                 for k, raw in zip(owners.tolist(),
                                                   _bytes_at(self.packed_names, columns))],
                                dtype=bool)
                found[rest[owners[same]]] = columns[same]
        return found

    def column(self, uid: str) -> int | None:
        """Column position of descriptor id ``uid``, or None."""
        j = int(self._id_columns([uid])[0])
        return None if j < 0 else j

    @cached_property
    def primary_branches(self) -> tuple[str, ...]:
        """Primary-branch letter of each descriptor, in column order, as
        ``MeshDescriptor.primary_branch`` picks it: the branch of its code
        of fewest dots, ties broken by the code, which starts with its
        branch letter."""
        offsets, data = self.packed_trees
        if not len(self):
            return ()
        # every code holds at least its branch letter
        depths = np.add.reduceat(data == ord("."), offsets[:-1], dtype=np.int64)
        # by depth, then by the code's rank in code point order
        keys = depths * len(depths) + string_ranks(self.packed_trees)
        owners = np.repeat(np.arange(len(self)), np.diff(self.tree_ptr))
        best = np.lexsort((keys, owners))[self.tree_ptr[:-1]]
        return tuple(data[offsets[best]].tobytes().decode("ascii"))

    @cached_property
    def membership_matrix(self) -> np.ndarray:
        """(V, 3) read-only 0/1 matrix in column order: which of C, D, E
        each descriptor has a tree number in."""
        offsets, data = self.packed_trees
        letters = data[offsets[:-1]]  # each code's first byte, its branch letter
        rows = np.repeat(np.arange(len(self)), np.diff(self.tree_ptr))
        matrix = np.zeros((len(self), len(BRANCHES)), dtype=np.int64)
        for i, alpha in enumerate(BRANCHES):
            matrix[rows[letters == ord(alpha)], i] = 1
        matrix.flags.writeable = False
        return matrix

    @cached_property
    def primary_matrix(self) -> np.ndarray:
        """(V, 3) read-only 0/1 matrix in column order: which of C, D, E is
        each descriptor's primary branch (none for a primary outside them)."""
        outside = len(BRANCHES)  # the padded identity's last row is all zeros
        slots = [BRANCHES.index(b) if b in BRANCHES else outside for b in self.primary_branches]
        matrix = np.eye(outside + 1, outside, dtype=np.int64)[slots]
        matrix.flags.writeable = False
        return matrix

    def resolve(self, token: str) -> str | None:
        """Map a descriptor id or display name to a descriptor id, as
        :meth:`term_columns` does."""
        j = int(self.term_columns([token])[0])
        return None if j < 0 else self.ids_at([j])[0]

    @classmethod
    def from_columns(
        cls,
        ids: list[str],
        names: list[str],
        tree_counts: list[int],
        tree_numbers: list[str],
        skipped_no_tree: int = 0,
    ) -> "Vocabulary":
        """Descriptor i is ``ids[i]``, named ``names[i]``, with the next
        ``tree_counts[i]`` codes of ``tree_numbers``.  Raises for the first
        invalid tree number, for a descriptor without one, and for the
        first descriptor, in input order, whose id or normalized name an
        earlier one has; the columns are then sorted by id, as packed
        columns, with the lookups' tables built from the strings given."""
        columns = _DescriptorColumns()
        columns.add(ids, names, tree_counts, tree_numbers)
        return columns.vocabulary(skipped_no_tree)

    @classmethod
    def from_descriptors(
        cls, descriptors: list[MeshDescriptor], skipped_no_tree: int = 0
    ) -> "Vocabulary":
        descriptors = list(descriptors)
        return cls.from_columns(
            [d.id for d in descriptors],
            [d.name for d in descriptors],
            [len(d.tree_numbers) for d in descriptors],
            [t.raw for d in descriptors for t in d.tree_numbers],
            skipped_no_tree,
        )


# the names of ``formats`` that this module defined before, still found here
_FORMATS_NAMES = frozenset({"TSV_HEADER", "load_mesh_ascii", "load_mesh_tsv", "write_mesh_tsv"})


def __getattr__(name: str):
    if name not in _FORMATS_NAMES:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    from . import formats

    return getattr(formats, name)
