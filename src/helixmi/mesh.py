"""The MeSH controlled vocabulary and its branch metadata.

A :class:`Vocabulary` holds the ids, names and tree-number codes as
columns sorted by id, with no per-descriptor objects until asked for.
It is immutable after loading and safe to share across workers.  Its
loaders and writer are in ``formats``; their names are still found
here, and ``formats`` is imported when one is first asked for.
"""

from __future__ import annotations

from bisect import bisect_left
from dataclasses import dataclass, field
from functools import cached_property

import numpy as np

from .errors import DataError

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


def _check_tree_numbers(raws) -> None:
    """Raise for the first code that is empty or starts outside the
    valid branch letters, as ``TreeNumber`` does."""
    for raw in raws:
        if raw[:1] not in VALID_BRANCHES:
            TreeNumber(raw)


def _depth_then_code(raw: str) -> tuple[int, str]:
    # the code starts with its branch letter, so ordering by the code
    # after the depth orders by branch and then by code
    return raw.count("."), raw


@dataclass(eq=False)
class Vocabulary:
    """Descriptors as columns, sorted by id.

    Column j is the descriptor ``column_ids[j]``, named ``names[j]``, with
    the tree numbers ``tree_numbers[tree_ptr[j]:tree_ptr[j + 1]]`` (at
    least one, in the order its file gave them).  Every array view uses
    this column order, so ties broken by id are ties broken by column
    index.  The lookups, the branch matrices and the ``MeshDescriptor``
    view are built from the columns on first read.  Build one with
    :meth:`from_columns`, which checks and sorts its input.
    """

    column_ids: tuple[str, ...] = ()
    names: tuple[str, ...] = ()
    tree_ptr: np.ndarray = field(default_factory=lambda: np.zeros(1, dtype=np.int64))
    tree_numbers: tuple[str, ...] = ()
    load_report: LoadReport = LoadReport()

    def __len__(self) -> int:
        return len(self.column_ids)

    @cached_property
    def descriptors(self) -> dict[str, MeshDescriptor]:
        """The descriptors as objects keyed by id, in column order."""
        bounds = self.tree_ptr.tolist()
        return {
            uid: MeshDescriptor(uid, name, tuple(map(TreeNumber, self.tree_numbers[a:b])))
            for uid, name, a, b in zip(self.column_ids, self.names, bounds, bounds[1:])
        }

    @cached_property
    def name_index(self) -> dict[str, str]:
        """Descriptor id of each normalized name."""
        return {normalize_name(name): uid for uid, name in zip(self.column_ids, self.names)}

    def column(self, uid: str) -> int | None:
        """Column position of descriptor id ``uid``, or None: a bisection
        of the sorted ids, so no id-to-column dict is built."""
        j = bisect_left(self.column_ids, uid)
        return j if j < len(self.column_ids) and self.column_ids[j] == uid else None

    @cached_property
    def primary_branches(self) -> tuple[str, ...]:
        """Primary-branch letter of each descriptor, in column order, as
        ``MeshDescriptor.primary_branch`` picks it."""
        bounds = self.tree_ptr.tolist()
        trees = self.tree_numbers
        return tuple(
            trees[a][0] if b - a == 1 else min(trees[a:b], key=_depth_then_code)[0]
            for a, b in zip(bounds, bounds[1:])
        )

    @cached_property
    def membership_matrix(self) -> np.ndarray:
        """(V, 3) read-only 0/1 matrix in column order: which of C, D, E
        each descriptor has a tree number in."""
        letters = np.frombuffer("".join(t[0] for t in self.tree_numbers).encode(), np.uint8)
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
        """Map a descriptor id or display name to a descriptor id."""
        if self.column(token) is not None:
            return token
        return self.name_index.get(normalize_name(token))

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
        earlier one has; the columns are then sorted by id."""
        _check_tree_numbers(tree_numbers)
        counts = np.asarray(tree_counts, dtype=np.int64).reshape(len(ids))
        if len(counts) and counts.min() < 1:
            uid = ids[int(np.argmax(counts < 1))]
            raise MeshFormatError(f"descriptor {uid!r} has no tree numbers")
        seen: set[str] = set()
        index: dict[str, str] = {}
        for uid, name in zip(ids, names):
            if uid in seen:
                raise MeshFormatError(f"duplicate descriptor id {uid!r}")
            key = normalize_name(name)
            if key in index:
                raise MeshFormatError(
                    f"duplicate descriptor name {name!r} (ids {index[key]!r} and {uid!r})"
                )
            seen.add(uid)
            index[key] = uid
        tree_ptr = np.zeros(len(ids) + 1, dtype=np.int64)
        np.cumsum(counts, out=tree_ptr[1:])
        order = sorted(range(len(ids)), key=ids.__getitem__)
        if order != list(range(len(ids))):
            bounds = tree_ptr.tolist()
            ids = [ids[i] for i in order]
            names = [names[i] for i in order]
            tree_numbers = [t for i in order for t in tree_numbers[bounds[i]:bounds[i + 1]]]
            tree_ptr[1:] = np.cumsum(counts[order])
        vocabulary = cls(
            column_ids=tuple(ids),
            names=tuple(names),
            tree_ptr=tree_ptr,
            tree_numbers=tuple(tree_numbers),
            load_report=LoadReport(loaded=len(ids), skipped_no_tree=skipped_no_tree),
        )
        vocabulary.__dict__["name_index"] = index  # already built for the check
        return vocabulary

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
