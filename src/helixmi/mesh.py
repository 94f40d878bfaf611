"""MeSH controlled-vocabulary loading and branch metadata.

Two on-disk formats are supported: the NLM ASCII descriptor file
(records delimited by ``*NEWRECORD`` with ``MH =`` / ``MN =`` / ``UI =``
fields) and a canonical three-column TSV.  Both produce the same
in-memory :class:`Vocabulary`, which is immutable after loading and
safe to share across workers.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import cached_property

import numpy as np

from .errors import DataError

VALID_BRANCHES = frozenset("ABCDEFGHIJKLMNVZ")

# the branches every count is taken over: diseases, drugs, techniques
BRANCHES = ("C", "D", "E")

TSV_HEADER = "id\tname\ttree_numbers"


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


@dataclass
class Vocabulary:
    """Descriptors keyed by id, with a normalized-name lookup index."""

    descriptors: dict[str, MeshDescriptor] = field(default_factory=dict)
    name_index: dict[str, str] = field(default_factory=dict)
    load_report: LoadReport = LoadReport()

    def __len__(self) -> int:
        return len(self.descriptors)

    @cached_property
    def column_ids(self) -> tuple[str, ...]:
        """Descriptor ids in column order of every array view: sorted by id,
        so ties broken by id are ties broken by column index."""
        return tuple(sorted(self.descriptors))

    @cached_property
    def column_of(self) -> dict[str, int]:
        """Column position of each descriptor id."""
        return {uid: j for j, uid in enumerate(self.column_ids)}

    @cached_property
    def primary_branches(self) -> tuple[str, ...]:
        """Primary-branch letter of each descriptor, in column order."""
        return tuple(self.descriptors[uid].primary_branch for uid in self.column_ids)

    @cached_property
    def membership_matrix(self) -> np.ndarray:
        """(V, 3) read-only 0/1 matrix in column order: which of C, D, E
        each descriptor has a tree number in."""
        slot = {alpha: i for i, alpha in enumerate(BRANCHES)}
        cells = [
            (j, slot[t.raw[0]])
            for j, uid in enumerate(self.column_ids)
            for t in self.descriptors[uid].tree_numbers
            if t.raw[0] in slot
        ]
        matrix = np.zeros((len(self.column_ids), len(BRANCHES)), dtype=np.int64)
        if cells:
            matrix[tuple(np.array(cells).T)] = 1
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
        if token in self.descriptors:
            return token
        return self.name_index.get(normalize_name(token))

    @classmethod
    def from_descriptors(
        cls, descriptors: list[MeshDescriptor], skipped_no_tree: int = 0
    ) -> "Vocabulary":
        by_id: dict[str, MeshDescriptor] = {}
        index: dict[str, str] = {}
        for d in descriptors:
            if d.id in by_id:
                raise MeshFormatError(f"duplicate descriptor id {d.id!r}")
            key = normalize_name(d.name)
            if key in index:
                raise MeshFormatError(
                    f"duplicate descriptor name {d.name!r} "
                    f"(ids {index[key]!r} and {d.id!r})"
                )
            by_id[d.id] = d
            index[key] = d.id
        report = LoadReport(loaded=len(by_id), skipped_no_tree=skipped_no_tree)
        return cls(descriptors=by_id, name_index=index, load_report=report)


def _decode(raw: bytes) -> str:
    try:
        return raw.decode("utf-8")
    except UnicodeDecodeError:
        return raw.decode("latin-1")


def load_mesh_ascii(path: str) -> Vocabulary:
    """Load an NLM ASCII descriptor file.

    Records carrying at least one ``MN =`` line become descriptors;
    records without tree numbers (qualifier records and the like) are
    skipped and counted in the load report.  A record that has tree
    numbers but is missing its ``MH =`` or ``UI =`` field is malformed
    and reported with the byte offset where the record starts.
    """
    with open(path, "rb") as fh:
        data = fh.read()

    descriptors: list[MeshDescriptor] = []
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
        elif name is None:
            raise MeshFormatError(
                f"{path}: malformed record at byte {offset}: missing 'MH =' field"
            )
        elif uid is None:
            raise MeshFormatError(
                f"{path}: malformed record at byte {offset}: missing 'UI =' field"
            )
        else:
            descriptors.append(
                MeshDescriptor(
                    id=uid,
                    name=name,
                    tree_numbers=tuple(TreeNumber(t) for t in trees),
                )
            )
        name, uid, trees = None, None, []

    offset = 0
    for raw_line in data.splitlines(keepends=True):
        line = _decode(raw_line).rstrip("\r\n")
        if line == "*NEWRECORD":
            finish(record_offset)
            in_record = True
            record_offset = offset
        else:
            key, sep, value = line.partition(" = ")
            if sep:
                if key == "MH":
                    name = value.strip()
                elif key == "MN":
                    trees.append(value.strip())
                elif key == "UI":
                    uid = value.strip()
        offset += len(raw_line)
    finish(record_offset)

    return Vocabulary.from_descriptors(descriptors, skipped_no_tree=skipped)


def load_mesh_tsv(path: str) -> Vocabulary:
    """Load the canonical ``id<TAB>name<TAB>tree_numbers`` TSV."""
    descriptors: list[MeshDescriptor] = []
    skipped = 0
    with open(path, encoding="utf-8") as fh:
        header = fh.readline().rstrip("\n")
        if header != TSV_HEADER:
            raise MeshFormatError(f"{path}: expected header {TSV_HEADER!r}")
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
            descriptors.append(
                MeshDescriptor(
                    id=uid,
                    name=name,
                    tree_numbers=tuple(TreeNumber(t) for t in raws),
                )
            )
    return Vocabulary.from_descriptors(descriptors, skipped_no_tree=skipped)


def write_mesh_tsv(vocabulary: Vocabulary, path: str) -> None:
    """Write the canonical TSV (UTF-8, LF endings, no BOM), sorted by id."""
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write(TSV_HEADER + "\n")
        for uid in sorted(vocabulary.descriptors):
            d = vocabulary.descriptors[uid]
            trees = ";".join(t.raw for t in d.tree_numbers)
            fh.write(f"{d.id}\t{d.name}\t{trees}\n")
