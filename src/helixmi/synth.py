"""Synthetic corpora with analytically known coupling structure.

Four generators: independent branch counts (all mutual information
vanishes in the large-sample limit), pairwise copy coupling (the second
branch copies the first with probability rho), xor coupling (binary
counts with the third branch set to the parity of the first two with
probability rho, driving the three-way information to -1 bit at
rho = 1), and size-mixture coupling (all three rates scale with a
shared lognormal per-publication intensity).

The size-mixture corpus matters for null-model work: a Poisson vector
conditioned on its total is multinomial with intensity-free shares, so
its branch composition is exchangeable with the label-shuffling null,
giving pairwise dependence with no publication-level structure beyond
what the shuffle preserves.  The copy generator, by contrast, has iid
margins that no allocation respecting per-publication totals can
reproduce.  Every publication also carries one out-of-scope filler
descriptor so that zero-C/D/E fingerprints remain valid records.

The corpus is built as arrays: a publication with count k in a branch
carries a uniform k-subset of that branch's descriptor pool, drawn for
a whole (year, branch) block at once from a random stream of its own.
The counts come from another stream, so they, and every statistic of
them, do not depend on how the descriptors are picked.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Iterator

import numpy as np

from .corpus import Corpus
from .counts import BRANCHES
from .mesh import Vocabulary
from .packed import PackedStrings

MODES = ("independent", "pairwise", "xor", "sizemix")

# the largest Poisson rate accepted per branch: a branch's descriptor pool
# is as large as its largest count, and each year draws a (publications x
# pool) array of keys, so rates far below numpy's own limit (about 9.2e18)
# already exhaust memory; MEDLINE records carry a few dozen descriptors
MAX_RATE = 1000.0

FILLER_ID = "Z000000"

# publication ids are "S" and a serial of this many digits, so that they
# sort in serial order
_ID_DIGITS = 8
MAX_PUBLICATIONS = 10**_ID_DIGITS
_DIGIT_PLACES = 10 ** np.arange(_ID_DIGITS - 1, -1, -1)


@dataclass(frozen=True)
class SynthConfig:
    mode: str
    pubs_per_year: int
    years: int
    seed: int
    rho: float = 1.0
    lam: tuple[float, float, float] = (2.0, 1.0, 2.0)
    sigma: float = 0.5  # lognormal spread of the sizemix intensity
    start_year: int = 2000

    def __post_init__(self) -> None:
        if self.mode not in MODES:
            raise ValueError(f"mode must be one of {MODES}")
        if self.pubs_per_year < 1 or self.years < 1:
            raise ValueError("need at least one publication and one year")
        if self.pubs_per_year * self.years > MAX_PUBLICATIONS:
            raise ValueError(f"at most {MAX_PUBLICATIONS} publications in all")
        if self.seed < 0:
            raise ValueError("seed must be non-negative")
        if not 0.0 <= self.rho <= 1.0:
            raise ValueError("rho must be in [0, 1]")
        # NaN fails every comparison, so these reject it too
        if not all(0.0 <= rate < math.inf for rate in self.lam):
            raise ValueError("rates must be finite and non-negative")
        if max(self.lam) > MAX_RATE:
            raise ValueError(f"rates must be at most {MAX_RATE:g}")
        if not 0.0 <= self.sigma < math.inf:
            raise ValueError("sigma must be finite and non-negative")


def _draw_triples(config: SynthConfig, n: int, rng: np.random.Generator) -> np.ndarray:
    lam = np.asarray(config.lam)
    if config.mode == "xor":
        zc = rng.integers(0, 2, size=n)
        zd = rng.integers(0, 2, size=n)
        ze = np.where(
            rng.random(n) < config.rho, zc ^ zd, rng.integers(0, 2, size=n)
        )
        return np.column_stack([zc, zd, ze]).astype(np.int64)
    if config.mode == "sizemix":
        # mean-one intensity shared by all three branches of a publication
        s = np.exp(rng.normal(-config.sigma**2 / 2.0, config.sigma, size=n))
        return rng.poisson(np.outer(s, lam)).astype(np.int64)
    nc = rng.poisson(lam[0], size=n)
    ne = rng.poisson(lam[2], size=n)
    nd = rng.poisson(lam[1], size=n)
    if config.mode == "pairwise":
        nd = np.where(rng.random(n) < config.rho, nc, nd)
    return np.column_stack([nc, nd, ne]).astype(np.int64)


def _yearly_triples(config: SynthConfig) -> Iterator[np.ndarray]:
    """Each year's (n, 3) branch counts in turn, from one random stream."""
    rng = np.random.default_rng(np.random.SeedSequence([config.seed]))
    for _ in range(config.years):
        yield _draw_triples(config, config.pubs_per_year, rng)


def synth_triples(config: SynthConfig) -> dict[int, np.ndarray]:
    """Per-year (n, 3) branch-count arrays, without corpus overhead."""
    return dict(enumerate(_yearly_triples(config), start=config.start_year))


def synth_vocabulary(pool_sizes: dict[str, int]) -> Vocabulary:
    """Vocabulary with numbered descriptors per branch plus one filler."""
    ids, names, trees = [], [], []
    for alpha in BRANCHES:
        serials = range(pool_sizes.get(alpha, 0))
        ids += [f"{alpha}{i:06d}" for i in serials]
        names += [f"Synthetic {alpha} {i}" for i in serials]
        trees += [f"{alpha}01.{i:06d}" for i in serials]
    # the filler's id sorts after every branch's, so the columns are in order
    ids.append(FILLER_ID)
    names.append("Synthetic Filler")
    trees.append("Z01")
    return Vocabulary.from_columns(ids, names, [1] * len(ids), trees)


def synth_corpus(config: SynthConfig) -> Corpus:
    """Materialize a synthetic corpus with descriptor-level fingerprints.

    A publication with count k in a branch carries a uniform k-subset of
    that branch's pool: for each (year, branch) block one ``(n, pool)``
    array of uniform keys is drawn, and a row picks the columns whose key
    ranks below its count.

    The corpus is built a year at a time, in two passes over the counts,
    which draw the same counts from their stream.  The first finds the
    pool sizes and lays out ``indptr`` (each row carries its picks and the
    filler); the second fills each year's run of ``indices`` with its
    picks and writes its ids ``S%08d`` into their bytes of the packed
    column.  Beyond the result this holds one year's counts, keys and
    picks.
    """
    n = config.pubs_per_year
    rows = n * config.years
    indptr = np.zeros(rows + 1, dtype=np.int64)
    pool_sizes = np.ones(len(BRANCHES), dtype=np.int64)
    for y, counts in enumerate(_yearly_triples(config)):
        np.maximum(pool_sizes, counts.max(axis=0), out=pool_sizes)
        indptr[y * n + 1:(y + 1) * n + 1] = counts.sum(axis=1) + 1
    np.cumsum(indptr, out=indptr)
    pool_sizes = pool_sizes.tolist()
    vocabulary = synth_vocabulary(dict(zip(BRANCHES, pool_sizes)))
    rng = np.random.default_rng(np.random.SeedSequence([config.seed, 1]))
    indices = np.empty(indptr[-1], dtype=np.int32)
    ids = np.empty((rows, 1 + _ID_DIGITS), dtype=np.uint8)
    ids[:, 0] = ord("S")
    # columns in vocabulary order: ids sort as C... < D... < E... < the filler
    edges = np.cumsum([0, *pool_sizes])
    picked = np.empty((n, edges[-1] + 1), dtype=bool)
    for y, counts in enumerate(_yearly_triples(config)):
        picked[:, -1] = True
        for i, pool in enumerate(pool_sizes):
            ranks = rng.random((n, pool)).argsort(axis=1).argsort(axis=1)
            picked[:, edges[i]:edges[i + 1]] = ranks < counts[:, i, None]
        lo, hi = y * n, (y + 1) * n
        indices[indptr[lo]:indptr[hi]] = np.nonzero(picked)[1]
        ids[lo:hi, 1:] = np.arange(lo, hi)[:, None] // _DIGIT_PLACES % 10 + ord("0")
    packed = PackedStrings(np.arange(0, ids.size + 1, ids.shape[1], dtype=np.int64), ids.ravel())
    first = config.start_year
    pub_years = np.repeat(np.arange(first, first + config.years, dtype=np.int64), n)
    label = f"synthetic-{config.mode}-seed{config.seed}"
    return Corpus.from_sorted_arrays(label, vocabulary, packed, pub_years, indptr, indices)
