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

from dataclasses import dataclass

import numpy as np

from .corpus import Corpus
from .counts import BRANCHES
from .mesh import MeshDescriptor, TreeNumber, Vocabulary

MODES = ("independent", "pairwise", "xor", "sizemix")

FILLER_ID = "Z000000"


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
        if not 0.0 <= self.rho <= 1.0:
            raise ValueError("rho must be in [0, 1]")
        if self.sigma < 0.0:
            raise ValueError("sigma must be non-negative")


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


def synth_triples(config: SynthConfig) -> dict[int, np.ndarray]:
    """Per-year (n, 3) branch-count arrays, without corpus overhead."""
    rng = np.random.default_rng(np.random.SeedSequence([config.seed]))
    return {
        config.start_year + i: _draw_triples(config, config.pubs_per_year, rng)
        for i in range(config.years)
    }


def synth_vocabulary(pool_sizes: dict[str, int]) -> Vocabulary:
    """Vocabulary with numbered descriptors per branch plus one filler."""
    descriptors = [
        MeshDescriptor(
            id=FILLER_ID,
            name="Synthetic Filler",
            tree_numbers=(TreeNumber("Z01"),),
        )
    ]
    for alpha in BRANCHES:
        for i in range(pool_sizes.get(alpha, 0)):
            descriptors.append(
                MeshDescriptor(
                    id=f"{alpha}{i:06d}",
                    name=f"Synthetic {alpha} {i}",
                    tree_numbers=(TreeNumber(f"{alpha}01.{i:06d}"),),
                )
            )
    return Vocabulary.from_descriptors(descriptors)


def synth_corpus(config: SynthConfig) -> Corpus:
    """Materialize a synthetic corpus with descriptor-level fingerprints.

    A publication with count k in a branch carries a uniform k-subset of
    that branch's pool: for each (year, branch) block one ``(n, pool)``
    array of uniform keys is drawn, and a row picks the columns whose key
    ranks below its count.
    """
    per_year = synth_triples(config)
    years = sorted(per_year)
    triples = np.concatenate([per_year[year] for year in years])
    pool_sizes = np.maximum(triples.max(axis=0), 1).tolist()
    vocabulary = synth_vocabulary(dict(zip(BRANCHES, pool_sizes)))
    rng = np.random.default_rng(np.random.SeedSequence([config.seed, 1]))
    n = config.pubs_per_year
    # columns in vocabulary order: ids sort as C... < D... < E... < the filler
    edges = np.cumsum([0, *pool_sizes])
    picked = np.zeros((len(triples), edges[-1] + 1), dtype=bool)
    picked[:, -1] = True
    for y in range(len(years)):
        rows = slice(y * n, (y + 1) * n)
        for i, pool in enumerate(pool_sizes):
            ranks = rng.random((n, pool)).argsort(axis=1).argsort(axis=1)
            picked[rows, edges[i]:edges[i + 1]] = ranks < triples[rows, i, None]
    indptr = np.zeros(len(triples) + 1, dtype=np.int64)
    np.cumsum(picked.sum(axis=1), out=indptr[1:])
    indices = np.nonzero(picked)[1]
    ids = [f"S{serial:08d}" for serial in range(len(triples))]
    pub_years = np.repeat(years, n)
    label = f"synthetic-{config.mode}-seed{config.seed}"
    return Corpus.from_arrays(label, vocabulary, ids, pub_years, indptr, indices)
