import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.stats import poisson

from helixmi.counts import (
    BranchStats,
    BranchTriple,
    apply_count_map,
    branch_stats,
    branch_stats_from_triples,
    branch_triple,
    corpus_triples,
    count_map,
    distribution_of_counts,
    wilcoxon_signed_rank,
    _midranks,
)

from conftest import make_corpus
from oracles import midranks_scipy, wilcoxon_enumerate


@pytest.fixture
def corpus(tiny_vocab):
    return make_corpus(
        tiny_vocab,
        [
            ("1", 2000, ["C1", "C2", "D1"]),
            ("2", 2000, ["CE1"]),
            ("3", 2001, ["Z1"]),
        ],
    )


def test_branch_triple_membership(corpus, tiny_vocab):
    p = next(p for p in corpus.publications if p.id == "1")
    assert branch_triple(p, tiny_vocab) == BranchTriple(2, 1, 0)


def test_branch_triple_multi_branch_counts_both(corpus, tiny_vocab):
    p = next(p for p in corpus.publications if p.id == "2")
    # membership counting: the C+E descriptor increments both branches
    assert branch_triple(p, tiny_vocab) == BranchTriple(1, 0, 1)
    # primary-branch-only counting credits only the shallowest home
    assert branch_triple(p, tiny_vocab, counting="primary") == BranchTriple(1, 0, 0)


def test_branch_triple_no_cde_descriptors(corpus, tiny_vocab):
    p = next(p for p in corpus.publications if p.id == "3")
    assert branch_triple(p, tiny_vocab) == BranchTriple(0, 0, 0)
    assert len(corpus) == 3  # the publication stays in the corpus


def test_corpus_triples_matches_scalar_path(corpus, tiny_vocab):
    rows = corpus_triples(corpus)
    for row, p in zip(rows, corpus.publications):
        assert tuple(row) == branch_triple(p, tiny_vocab)


@pytest.mark.parametrize(
    "triple,kind,expected",
    [
        ((2, 0, 3), "binary", (1, 0, 1)),
        ((0, 0, 0), "binary", (0, 0, 0)),
        ((2, 0, 3), "full", (2, 0, 3)),
    ],
)
def test_count_map_simple(triple, kind, expected):
    z = count_map(triple, kind)
    assert (z.z_c, z.z_d, z.z_e) == expected


def test_count_map_median_is_strict():
    medians = BranchStats(
        mean={"C": 0, "D": 0, "E": 0},
        std={"C": 0, "D": 0, "E": 0},
        median={"C": 2.0, "D": 1.0, "E": 2.0},
    )
    z = count_map((2, 2, 1), "median", medians)
    assert (z.z_c, z.z_d, z.z_e) == (0, 1, 0)


def test_count_map_binary_idempotent():
    rng = np.random.default_rng(5)
    triples = rng.integers(0, 6, size=(40, 3))
    once = apply_count_map(triples, "binary")
    twice = apply_count_map(once, "binary")
    assert (once == twice).all()


def test_branch_stats_population_sd(tiny_vocab):
    corpus = make_corpus(
        tiny_vocab,
        [("1", 2000, ["C1"]), ("2", 2000, ["C1", "C2", "CE1"])],
    )
    stats = branch_stats(corpus)
    assert stats.mean["C"] == 2.0
    assert stats.std["C"] == 1.0  # population sd of {1, 3}
    assert stats.median["C"] == 2.0
    assert stats.mean["D"] == stats.std["D"] == stats.median["D"] == 0.0


def test_full_map_mean_equals_branch_mean(tiny_vocab):
    rng = np.random.default_rng(11)
    rows = []
    pool = ["C1", "C2", "D1", "D2", "E1", "E2", "CE1", "Z1"]
    for i in range(60):
        k = rng.integers(1, len(pool) + 1)
        picks = rng.choice(pool, size=k, replace=False)
        rows.append((str(i), 2000 + int(rng.integers(0, 3)), list(picks)))
    corpus = make_corpus(tiny_vocab, rows)
    stats = branch_stats(corpus)
    full = apply_count_map(corpus_triples(corpus), "full")
    for i, alpha in enumerate("CDE"):
        assert full[:, i].mean() == pytest.approx(stats.mean[alpha], abs=1e-12)


def test_distribution_of_counts_basic(tiny_vocab):
    corpus = make_corpus(
        tiny_vocab,
        [("1", 2000, ["C1"]), ("2", 2000, ["C2"]), ("3", 2000, ["C1", "C2", "CE1"])],
    )
    dist = distribution_of_counts(corpus, "C")
    assert dist == {1: pytest.approx(2 / 3), 3: pytest.approx(1 / 3)}
    assert abs(sum(dist.values()) - 1.0) < 1e-12


def test_distribution_single_publication(tiny_vocab):
    corpus = make_corpus(tiny_vocab, [("1", 2000, ["C1", "C2"])])
    assert distribution_of_counts(corpus, "C") == {2: 1.0}


def test_distribution_matches_poisson_pmf():
    rng = np.random.default_rng(123)
    lam, n = 2.0, 100_000
    sample = rng.poisson(lam, size=n)
    counts = np.bincount(sample)
    # multinomial 3-sigma band per observed bin
    for k, c in enumerate(counts):
        if c == 0:
            continue
        p = poisson.pmf(k, lam)
        sigma = np.sqrt(n * p * (1 - p))
        assert abs(c - n * p) <= 3 * sigma + 1e-9


class TestWilcoxon:
    def test_identical_samples(self):
        res = wilcoxon_signed_rank([1, 2, 3], [1, 2, 3])
        assert res.p_value == 1.0
        assert res.statistic == 0.0
        assert res.n_effective == 0

    def test_ten_pair_fixture(self):
        x = [125, 115, 130, 140, 140, 115, 140, 125, 140, 135]
        y = [110, 122, 125, 120, 140, 124, 123, 137, 135, 145]
        res = wilcoxon_signed_rank(x, y)
        # frozen from the enumeration oracle: one zero pair is dropped,
        # W = |W+ - W-| over the remaining nine midranked differences
        assert res.n_effective == 9
        assert res.statistic == pytest.approx(9.0, abs=1e-12)
        assert res.p_value == pytest.approx(0.6328125, abs=1e-9)
        w_oracle, p_oracle, n_oracle = wilcoxon_enumerate(x, y)
        assert res.statistic == pytest.approx(w_oracle, abs=1e-9)
        assert res.p_value == pytest.approx(p_oracle, abs=1e-9)
        assert res.n_effective == n_oracle

    @pytest.mark.parametrize("seed", range(6))
    def test_matches_enumeration_on_random_pairs(self, seed):
        rng = np.random.default_rng(seed)
        n = int(rng.integers(2, 13))
        x = rng.integers(0, 6, size=n).tolist()
        y = rng.integers(0, 6, size=n).tolist()
        res = wilcoxon_signed_rank(x, y)
        w_oracle, p_oracle, n_oracle = wilcoxon_enumerate(x, y)
        assert res.statistic == pytest.approx(w_oracle, abs=1e-9)
        assert res.p_value == pytest.approx(p_oracle, abs=1e-9)
        assert res.n_effective == n_oracle

    def test_normal_approximation_tracks_exact(self):
        # n just above the exact cutoff: the approximation should sit
        # close to the enumerated value computed by the same DP
        rng = np.random.default_rng(7)
        x = rng.normal(0, 1, size=40)
        y = x + rng.normal(0.2, 1, size=40)
        res = wilcoxon_signed_rank(x, y)
        assert 0.0 <= res.p_value <= 1.0
        assert res.n_effective == 40

    def test_strong_difference_small_p(self):
        x = list(range(1, 30))
        y = [v + 5 for v in x]
        res = wilcoxon_signed_rank(x, y)
        assert res.p_value < 0.001

    def test_length_mismatch_rejected(self):
        with pytest.raises(ValueError):
            wilcoxon_signed_rank([1, 2], [1])

    @pytest.mark.parametrize("n", [3, 30])
    def test_non_finite_difference_rejected(self, n):
        # n = 3 takes the exact path, n = 30 the normal approximation
        x = np.arange(1.0, n + 1)
        x[1] = np.nan
        with pytest.raises(ValueError, match="finite"):
            wilcoxon_signed_rank(x, np.zeros(n))
        x[1] = np.inf
        with pytest.raises(ValueError, match="finite"):
            wilcoxon_signed_rank(x, np.where(np.arange(n) == 1, np.inf, 0.0))


@settings(max_examples=200, deadline=None)
@given(
    st.one_of(
        st.lists(st.integers(0, 3), min_size=1, max_size=60),
        st.lists(st.floats(0, 1e6, allow_nan=False), min_size=1, max_size=60),
    )
)
def test_midranks_match_rankdata_bit_for_bit(values):
    values = np.array(values, dtype=float)
    ranks = _midranks(values)
    assert ranks.dtype == np.float64
    np.testing.assert_array_equal(ranks, midranks_scipy(values))


def test_branch_stats_empty_triples_rejected():
    with pytest.raises(ValueError):
        branch_stats_from_triples(np.zeros((0, 3), dtype=np.int64))
