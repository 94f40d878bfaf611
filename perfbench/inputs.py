"""Seeded input generator for the benchmark workloads.

Builds a MeSH-like vocabulary and a corpus shaped like one large query
result: Zipf descriptor popularity, Poisson fingerprints, exponential
growth in yearly volume.  The same seed always gives the same records,
and the records can be written either as canonical JSONL with a TSV
vocabulary or as MEDLINE text with an NLM ASCII vocabulary.

Fingerprints are drawn without replacement in proportion to popularity
by rejecting duplicate draws: every publication draws its whole
fingerprint at once with replacement, and only the draws that repeat a
descriptor already held are drawn again.  The descriptors a publication
keeps are the first distinct values of an independent weighted stream,
which is successive sampling without replacement.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import sys
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from checks import shape_problems

BRANCH_INDEX = {"C": 0, "D": 1, "E": 2}
OTHER_BRANCHES = "ABFGHN"
YEARS = (1978, 2013)
PUBS_62K = 62_000  # nominal size; the yearly split rounds down to 61,983
VOCAB_SIZE = 16_000
GROWTH_PER_YEAR = 0.08
FINGERPRINT_MEAN = 11
FINGERPRINT_MAX = 40
MULTI_BRANCH_SHARE = 0.07  # descriptors placed in two of C/D/E
ZIPF_MIN_COUNT = 5  # the CLI's default --min-count

_SYLLABLES = [a + b for a in "bcdfghklmnprstvz" for b in "aeiou"]
_MODIFIERS = ["Viral", "Bacterial", "Human", "Chemically Induced", "Congenital"]
_QUALIFIERS = ["analysis", "drug therapy", "methods", "metabolism", "genetics",
               "therapeutic use", "pathology", "diagnosis"]
_MONTHS = ["Jan", "Feb", "Mar", "Apr", "May", "Jun",
           "Jul", "Aug", "Sep", "Oct", "Nov", "Dec"]


@dataclass
class Records:
    """A vocabulary and the publications tagged with it.

    ``terms[offsets[i]:offsets[i + 1]]`` are the vocabulary indices of
    publication ``i`` in ascending order; descriptor ids are numbered in
    index order, so that is also canonical id order.
    """

    ids: list[str]
    names: list[str]
    trees: list[list[str]]
    member: np.ndarray  # (n_vocab, 3) bool: C/D/E membership
    pub_ids: list[str]
    years: np.ndarray
    offsets: np.ndarray
    terms: np.ndarray

    @property
    def n_pubs(self) -> int:
        return len(self.pub_ids)

    def triples(self) -> np.ndarray:
        """(n_pubs, 3) C/D/E counts under membership counting."""
        return np.add.reduceat(self.member[self.terms].astype(np.int64),
                               self.offsets[:-1], axis=0)


def _name(i: int, size: int) -> str:
    """A unique word for descriptor ``i`` of ``size``."""
    width = 3
    while len(_SYLLABLES) ** width < size:
        width += 1
    # multiplying by a unit of the ring spreads consecutive indices
    # over the syllables while keeping the map one-to-one
    n = (i * 7919) % len(_SYLLABLES) ** width
    digits = []
    for _ in range(width):
        n, r = divmod(n, len(_SYLLABLES))
        digits.append(_SYLLABLES[r])
    word = "".join(digits).capitalize()
    if i % 5 == 0:
        return f"{word}, {_MODIFIERS[(i // 5) % len(_MODIFIERS)]}"
    return word


def _tree(rng: np.random.Generator, branch: str, depth: int) -> str:
    groups = rng.integers(1, 1000, size=depth - 1)
    return f"{branch}{int(rng.integers(1, 30)):02d}" + "".join(f".{g:03d}" for g in groups)


def make_vocabulary(rng: np.random.Generator, size: int):
    """Descriptor ids, names, tree numbers and C/D/E membership.

    Half the vocabulary sits in C/D/E; 7 % of descriptors are placed in
    two of those branches, at independent depths, so membership counting
    differs from primary counting and ``primary_branch`` sometimes ties.
    """
    letters = np.array(list("CDE" + OTHER_BRANCHES))
    probs = np.array([1 / 6] * 3 + [0.5 / len(OTHER_BRANCHES)] * len(OTHER_BRANCHES))
    primary = rng.choice(letters, size=size, p=probs / probs.sum())
    depths = rng.integers(1, 7, size=(size, 2))
    multi = rng.random(size) < MULTI_BRANCH_SHARE
    extra_same = rng.random(size) < 0.2
    ids, names, trees = [], [], []
    member = np.zeros((size, 3), dtype=bool)
    for i in range(size):
        ids.append(f"D{i + 1:06d}")
        names.append(_name(i, size))
        if multi[i]:
            pair = rng.choice(3, size=2, replace=False)
            branches = ["CDE"[j] for j in pair]
        else:
            branches = [str(primary[i])]
            if extra_same[i]:
                branches.append(branches[0])
        trees.append([_tree(rng, b, int(depths[i, k])) for k, b in enumerate(branches)])
        for b in branches:
            if b in BRANCH_INDEX:
                member[i, BRANCH_INDEX[b]] = True
    return ids, names, trees, member


def yearly_counts(n_pubs: int) -> tuple[np.ndarray, np.ndarray]:
    years = np.arange(YEARS[0], YEARS[1] + 1)
    growth = np.exp(GROWTH_PER_YEAR * np.arange(len(years)))
    per_year = np.maximum(1, (n_pubs * growth / growth.sum()).astype(int))
    return years, per_year


def draw_fingerprints(
    rng: np.random.Generator, weights: np.ndarray, sizes: np.ndarray
) -> np.ndarray:
    """Per-row draws without replacement, in proportion to ``weights``.

    Returns the concatenated rows, each sorted ascending.
    """
    n_vocab = len(weights)
    cdf = np.cumsum(weights / weights.sum())
    cdf[-1] = 1.0
    rows = np.repeat(np.arange(len(sizes), dtype=np.int64), sizes)
    terms = np.searchsorted(cdf, rng.random(len(rows)), side="right")
    draw_round = np.zeros(len(rows), dtype=np.int64)
    for round_no in range(1, 1000):
        keys = rows * n_vocab + terms
        order = np.lexsort((draw_round, keys))
        repeat = np.zeros(len(rows), dtype=bool)
        repeat[order[1:]] = keys[order[1:]] == keys[order[:-1]]
        if not repeat.any():
            return np.sort(keys) - rows * n_vocab
        # a repeat is always the later draw: earlier draws stay kept
        redo = np.flatnonzero(repeat)
        terms[redo] = np.searchsorted(cdf, rng.random(len(redo)), side="right")
        draw_round[redo] = round_no
    raise RuntimeError("fingerprint sampling did not converge")


def make_records(seed: int, scale: float = 1.0) -> Records:
    """The zipf62k records at ``scale`` times 62k publications."""
    vocab_rng, record_rng = (np.random.default_rng(s)
                             for s in np.random.SeedSequence(seed).spawn(2))
    ids, names, trees, member = make_vocabulary(vocab_rng, VOCAB_SIZE)

    popularity = np.empty(VOCAB_SIZE)
    popularity[record_rng.permutation(VOCAB_SIZE)] = 1.0 / np.arange(1, VOCAB_SIZE + 1)
    years, per_year = yearly_counts(int(round(PUBS_62K * scale)))
    pub_years = np.repeat(years, per_year)
    sizes = record_rng.poisson(FINGERPRINT_MEAN, size=len(pub_years)).clip(1, FINGERPRINT_MAX)
    terms = draw_fingerprints(record_rng, popularity, sizes)
    offsets = np.zeros(len(sizes) + 1, dtype=np.int64)
    np.cumsum(sizes, out=offsets[1:])
    # equal-width ids, so string order is numeric order and the
    # generation order is already the canonical (year, id) order
    pub_ids = [str(10_000_001 + i) for i in range(len(sizes))]
    return Records(ids, names, trees, member, pub_ids, pub_years, offsets, terms)


# ---------------------------------------------------------------------------
# Shape
# ---------------------------------------------------------------------------

def _loglog_slope(x: np.ndarray, y: np.ndarray) -> float:
    return float(np.polyfit(np.log10(x), np.log10(y), 1)[0])


def shape(records: Records) -> dict[str, float]:
    """Zipf exponent xi and Heaps exponent beta, fitted as the CLI does."""
    counts = np.sort(np.bincount(records.terms, minlength=len(records.ids)))[::-1]
    keep = counts >= ZIPF_MIN_COUNT
    ranks = np.arange(1, len(counts) + 1)[keep]
    xi = -_loglog_slope(ranks, counts[keep])
    m, v = [], []
    for year in np.unique(records.years):
        rows = np.flatnonzero(records.years == year)
        block = records.terms[records.offsets[rows[0]]:records.offsets[rows[-1] + 1]]
        m.append(len(block))
        v.append(len(np.unique(block)))
    beta = _loglog_slope(np.array(m, dtype=float), np.array(v, dtype=float))
    return {"xi": xi, "beta": beta}


# ---------------------------------------------------------------------------
# Rendering
# ---------------------------------------------------------------------------

def canonical_jsonl(records: Records) -> bytes:
    """The bytes ``helixmi ingest`` writes for these records."""
    quoted = [f'"{uid}"' for uid in records.ids]
    terms = records.terms.tolist()
    offsets = records.offsets.tolist()
    years = records.years.tolist()
    lines = [
        f'{{"id":"{pid}","mesh":[{",".join(quoted[t] for t in terms[a:b])}],"year":{y}}}\n'
        for pid, y, a, b in zip(records.pub_ids, years, offsets[:-1], offsets[1:])
    ]
    return "".join(lines).encode("utf-8")


def mesh_tsv(records: Records) -> bytes:
    lines = ["id\tname\ttree_numbers\n"]
    lines += [f"{uid}\t{name}\t{';'.join(tree)}\n"
              for uid, name, tree in zip(records.ids, records.names, records.trees)]
    return "".join(lines).encode("utf-8")


def mesh_ascii(records: Records) -> bytes:
    """The vocabulary as an NLM ASCII descriptor file."""
    parts = []
    for uid, name, tree in zip(records.ids, records.names, records.trees):
        parts.append(f"*NEWRECORD\nRECTYPE = D\nMH = {name}\nAQ = AD AE DI DT GE ME\n")
        parts.append(f"ENTRY = {name} Syndrome|T047|NON|EQV|NLM (1996)|950123|abcdef\n")
        parts += [f"MN = {t}\n" for t in tree]
        parts.append(f"MS = A synthetic descriptor standing for {name}.\nUI = {uid}\n\n")
    return "".join(parts).encode("utf-8")


def _text_lines(rng: np.random.Generator, count: int) -> list[str]:
    lines = []
    for _ in range(count):
        words = []
        while sum(len(w) + 1 for w in words) < 66:
            k = int(rng.integers(1, 4))
            words.append("".join(_SYLLABLES[j] for j in rng.integers(0, len(_SYLLABLES), k)))
        lines.append(" ".join(words))
    return lines


def medline_text(records: Records, seed: int) -> bytes:
    """The records as MEDLINE text, with descriptor names in MH fields.

    Titles and abstracts wrap onto six-space continuation lines; MH
    values carry ``*`` major-topic markers and ``/qualifier`` suffixes.
    """
    rng = np.random.default_rng(np.random.SeedSequence([seed, 2]))
    pool = _text_lines(rng, 1024)
    authors = [f"{_name(i, 512).split(',')[0]} {chr(65 + i % 26)}{chr(65 + i // 26 % 26)}"
               for i in range(512)]
    n = records.n_pubs
    total_terms = len(records.terms)
    major = (rng.random(total_terms) < 0.3).tolist()
    qualifier = rng.integers(-len(_QUALIFIERS), len(_QUALIFIERS), total_terms).tolist()
    months = rng.integers(0, 12, n).tolist()
    ab_len = rng.integers(10, 19, n).tolist()
    au_len = rng.integers(1, 7, n).tolist()
    line_pick = rng.integers(0, len(pool), (n, 20)).tolist()
    author_pick = rng.integers(0, len(authors), (n, 6)).tolist()
    terms = records.terms.tolist()
    offsets = records.offsets.tolist()
    years = records.years.tolist()
    names = records.names
    out = []
    for i in range(n):
        picks = line_pick[i]
        out.append(f"PMID- {records.pub_ids[i]}\nOWN - NLM\nSTAT- MEDLINE\n"
                   f"DP  - {years[i]} {_MONTHS[months[i]]}\n"
                   f"TI  - {pool[picks[0]]}\n      {pool[picks[1]]}.\n"
                   f"AB  - {pool[picks[2]]}\n")
        out += [f"      {pool[j]}\n" for j in picks[3:2 + ab_len[i]]]
        out += [f"AU  - {authors[j]}\n" for j in author_pick[i][:au_len[i]]]
        out.append("PT  - Journal Article\n")
        for k in range(offsets[i], offsets[i + 1]):
            q = qualifier[k]
            out.append(f"MH  - {'*' if major[k] else ''}{names[terms[k]]}"
                       f"{'/' + _QUALIFIERS[q] if q >= 0 else ''}\n")
        out.append("\n")
    return "".join(out).encode("utf-8")


# ---------------------------------------------------------------------------
# Entry point
# ---------------------------------------------------------------------------

def expectations(records: Records) -> dict:
    """What the CLI must report for these records, recomputed here."""
    triples = records.triples()
    stats = {"A_q": float(records.n_pubs)}
    for i, alpha in enumerate("CDE"):
        stats[f"mean_{alpha}"] = float(triples[:, i].mean())
        stats[f"med_{alpha}"] = float(np.median(triples[:, i]))
    return {
        "pubs": records.n_pubs,
        "descriptors": len(records.ids),
        "years": [int(records.years.min()), int(records.years.max())],
        "stats": stats,
    }


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description="Write one workload's inputs.")
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--scale", type=float, default=1.0,
                        help="corpus size as a multiple of 62k publications")
    parser.add_argument("--format", choices=["jsonl", "medline"], required=True)
    parser.add_argument("--out", type=Path, required=True)
    args = parser.parse_args(argv)

    records = make_records(args.seed, args.scale)
    fit = shape(records)
    problems = shape_problems(fit["xi"], fit["beta"])
    if problems:
        print("generated corpus out of shape: " + "; ".join(problems), file=sys.stderr)
        return 3
    canonical = canonical_jsonl(records)
    if args.format == "jsonl":
        files = {"corpus.jsonl": canonical, "mesh.tsv": mesh_tsv(records)}
    else:
        files = {"corpus.medline": medline_text(records, args.seed),
                 "mesh.bin": mesh_ascii(records)}
    args.out.mkdir(parents=True, exist_ok=True)
    for name, data in files.items():
        (args.out / name).write_bytes(data)
    expect = expectations(records)
    expect.update(
        shape=fit,
        canonical_sha256=hashlib.sha256(canonical).hexdigest(),
    )
    (args.out / "expect.json").write_text(json.dumps(expect, indent=1), encoding="utf-8")
    return 0


if __name__ == "__main__":
    sys.exit(main())
