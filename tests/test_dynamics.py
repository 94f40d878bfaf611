import numpy as np
import pytest

from helixmi.dynamics import (
    ABSENT,
    OUT_OF_TOPK,
    branch_share_series,
    detect_entries,
    rank_trajectories,
    sextile_sizes,
    top_pairs,
)

from conftest import make_corpus, make_vocab
from oracles import pair_counts_brute, sextile_brute


def big_vocab(n_per_branch=30):
    specs = {"Z1": ["Z01.1"]}
    for alpha in "CDE":
        for i in range(n_per_branch):
            specs[f"{alpha}{i:03d}"] = [f"{alpha}01.{i:03d}"]
    return make_vocab(specs)


class TestSextiles:
    def test_k200_sizes(self):
        assert sextile_sizes(200) == [34, 34, 33, 33, 33, 33]

    @pytest.mark.parametrize("k", [6, 7, 33, 100, 198, 200, 201])
    def test_partition_covers_each_rank_once(self, k):
        sizes = sextile_sizes(k)
        assert sum(sizes) == k
        boundaries = np.cumsum(sizes)
        for rank in range(1, k + 1):
            s = sextile_brute(rank, k)
            lo = 0 if s == 1 else boundaries[s - 2]
            assert lo < rank <= boundaries[s - 1]

    def test_rank_150_of_200_is_fifth_sextile(self):
        assert sextile_brute(150, 200) == 5

    def test_rank_10_is_first_sextile(self):
        assert sextile_brute(10, 200) == 1


class TestTrajectories:
    def test_entry_shows_absent_then_sextile(self, tiny_vocab):
        rows = [("a", 1995, ["C1"]), ("b", 1995, ["C1"]), ("c", 1996, ["C1", "E1"])]
        corpus = make_corpus(tiny_vocab, rows)
        matrix = rank_trajectories(corpus, k=10)
        i = matrix.descriptor_ids.index("E1")
        assert matrix.cells[i, 0] == ABSENT
        assert matrix.cells[i, 1] == sextile_brute(2, matrix.k)

    def test_constant_corpus_constant_rows(self, tiny_vocab):
        rows = []
        for year in (2000, 2001, 2002):
            rows += [
                (f"a{year}", year, ["C1", "D1"]),
                (f"b{year}", year, ["C1", "E1"]),
            ]
        corpus = make_corpus(tiny_vocab, rows)
        matrix = rank_trajectories(corpus, k=5)
        for row in matrix.cells:
            assert len(set(row.tolist())) == 1

    def test_k_clamped_to_vocabulary(self, tiny_vocab):
        corpus = make_corpus(
            tiny_vocab, [("1", 2000, ["C1"]), ("2", 2001, ["C1", "D1"])]
        )
        matrix = rank_trajectories(corpus, k=200)
        assert matrix.k == 2

    def test_single_year_rejected(self, tiny_vocab):
        corpus = make_corpus(tiny_vocab, [("1", 2000, ["C1"])])
        with pytest.raises(ValueError):
            rank_trajectories(corpus)

    def test_out_of_topk_code(self):
        vocab = big_vocab()
        rows = []
        # year 2000: ten strong descriptors; 2001: one weak extra appears
        for i in range(10):
            for j in range(5):
                rows.append((f"p{i}-{j}", 2000, [f"C{i:03d}"]))
                rows.append((f"q{i}-{j}", 2001, [f"C{i:03d}"]))
        rows.append(("weak", 2001, ["D000"]))
        corpus = make_corpus(vocab, rows)
        matrix = rank_trajectories(corpus, k=10)
        assert "D000" not in matrix.descriptor_ids  # not in the all-years top-10
        # within-year rank 11 for D000 would be OUT_OF_TOPK had it been a row;
        # instead check codes are restricted to the documented set
        valid = {ABSENT, OUT_OF_TOPK, 1, 2, 3, 4, 5, 6}
        assert set(np.unique(matrix.cells)).issubset(valid)


class TestEntries:
    def test_planted_entrant_impact(self, tiny_vocab):
        rows = []
        serial = 0
        for year in range(2001, 2005):
            for _ in range(10):
                rows.append((str(serial), year, ["C1"]))
                serial += 1
        for year in range(2005, 2011):
            for i in range(10):
                ids = ["E1"] if i == 0 else ["C1"]
                rows.append((str(serial), year, ids))
                serial += 1
        corpus = make_corpus(tiny_vocab, rows)
        entries = detect_entries(corpus, k=2)
        (entry,) = entries
        assert entry.descriptor_id == "E1"
        assert entry.birth_year == 2005
        # 6 entrant appearances vs 54 + 6 top-2 appearances from 2005 on
        assert entry.impact == pytest.approx(6 / 60, abs=1e-9)
        assert entry.primary_branch == "E"

    def test_first_year_descriptors_left_censored(self, tiny_vocab):
        corpus = make_corpus(
            tiny_vocab, [("1", 2000, ["C1"]), ("2", 2001, ["C1", "D1"])]
        )
        entries = detect_entries(corpus, k=5)
        assert [e.descriptor_id for e in entries] == ["D1"]

    def test_impact_bounded_by_one(self, tiny_vocab):
        rows = [("1", 2000, ["C1"])] + [
            (str(i), 2001, ["E1"]) for i in range(2, 12)
        ]
        corpus = make_corpus(tiny_vocab, rows)
        for entry in detect_entries(corpus, k=2):
            assert 0.0 <= entry.impact <= 1.0

    def test_birth_years_stable_under_truncation(self, tiny_vocab):
        rng = np.random.default_rng(31)
        pool = ["C1", "C2", "D1", "D2", "E1", "E2"]
        rows = []
        for i in range(120):
            year = 2000 + int(rng.integers(0, 8))
            k = int(rng.integers(1, 4))
            rows.append((str(i), year, list(rng.choice(pool, size=k, replace=False))))
        full = make_corpus(tiny_vocab, rows)
        truncated = make_corpus(tiny_vocab, [r for r in rows if r[1] <= 2004])
        births_full = {e.descriptor_id: e.birth_year for e in detect_entries(full, k=6)}
        births_trunc = {
            e.descriptor_id: e.birth_year for e in detect_entries(truncated, k=6)
        }
        for uid, birth in births_trunc.items():
            if uid in births_full:
                assert births_full[uid] == birth


class TestPairs:
    def test_single_publication_pair(self, tiny_vocab):
        corpus = make_corpus(tiny_vocab, [("1", 2000, ["D1", "E1"])])
        (pair,) = top_pairs(corpus, "D", "E")
        assert (pair.descriptor_a, pair.descriptor_b) == ("D1", "E1")
        assert pair.co_count == 1

    def test_same_branch_rejected(self, tiny_vocab):
        corpus = make_corpus(tiny_vocab, [("1", 2000, ["D1", "E1"])])
        with pytest.raises(ValueError):
            top_pairs(corpus, "D", "D")

    def test_three_publication_fixture(self, tiny_vocab):
        corpus = make_corpus(
            tiny_vocab,
            [
                ("1", 2000, ["D1", "E1", "E2"]),
                ("2", 2000, ["D1", "D2", "E1"]),
                ("3", 2001, ["D2", "E2"]),
            ],
        )
        pairs = top_pairs(corpus, "D", "E", limit=100)
        brute = pair_counts_brute(corpus, "D", "E", (2000, 2001))
        assert {(p.descriptor_a, p.descriptor_b): p.co_count for p in pairs} == brute
        assert pairs[0].co_count == 2
        assert (pairs[0].descriptor_a, pairs[0].descriptor_b) == ("D1", "E1")
        # a limit cuts the same ordered list, down to nothing
        assert top_pairs(corpus, "D", "E", limit=2) == pairs[:2]
        assert top_pairs(corpus, "D", "E", limit=0) == []

    def test_window_filters_years(self, tiny_vocab):
        corpus = make_corpus(
            tiny_vocab,
            [("1", 2000, ["D1", "E1"]), ("2", 2005, ["D1", "E1"])],
        )
        (pair,) = top_pairs(corpus, "D", "E", window=(2004, 2006))
        assert pair.co_count == 1

    def test_multi_branch_descriptor_can_sit_on_either_side(self, tiny_vocab):
        # CE1 belongs to C and E: pairs with D1 on both orientations,
        # but never with itself
        corpus = make_corpus(tiny_vocab, [("1", 2000, ["CE1", "D1"])])
        ce_pairs = top_pairs(corpus, "C", "E")
        assert all(p.descriptor_a != p.descriptor_b for p in ce_pairs)
        de = top_pairs(corpus, "D", "E")
        assert [(p.descriptor_a, p.descriptor_b) for p in de] == [("D1", "CE1")]

    def test_matches_brute_force_on_random_corpus(self):
        vocab = big_vocab(12)
        rng = np.random.default_rng(8)
        pool = [uid for uid in vocab.descriptors if uid != "Z1"]
        rows = []
        for i in range(600):
            year = 1998 + int(rng.integers(0, 6))
            k = int(rng.integers(1, 7))
            rows.append((str(i), year, list(rng.choice(pool, size=k, replace=False))))
        corpus = make_corpus(vocab, rows)
        window = (1999, 2002)
        pairs = top_pairs(corpus, "C", "E", window=window, limit=10**6)
        brute = pair_counts_brute(corpus, "C", "E", window)
        assert {(p.descriptor_a, p.descriptor_b): p.co_count for p in pairs} == brute
        counts = [p.co_count for p in pairs]
        assert counts == sorted(counts, reverse=True)


class TestBranchShares:
    def test_share_fixture(self, tiny_vocab):
        corpus = make_corpus(
            tiny_vocab,
            [("1", 2000, ["C1", "C2", "D1"]), ("2", 2000, ["E1"])],
        )
        (row,) = branch_share_series(corpus)
        assert (row.share_c, row.share_d, row.share_e) == (0.5, 0.25, 0.25)

    def test_year_without_cde_gets_null_shares(self, tiny_vocab):
        corpus = make_corpus(
            tiny_vocab, [("1", 2000, ["Z1"]), ("2", 2001, ["C1"])]
        )
        rows = {r.year: r for r in branch_share_series(corpus)}
        assert rows[2000].share_c is None
        assert rows[2001].share_c == 1.0

    def test_shares_sum_to_one(self, tiny_vocab):
        rng = np.random.default_rng(5)
        pool = ["C1", "C2", "D1", "D2", "E1", "E2", "CE1"]
        rows = []
        for i in range(80):
            year = 2000 + int(rng.integers(0, 4))
            k = int(rng.integers(1, 5))
            rows.append((str(i), year, list(rng.choice(pool, size=k, replace=False))))
        corpus = make_corpus(tiny_vocab, rows)
        for row in branch_share_series(corpus):
            total = row.share_c + row.share_d + row.share_e
            assert total == pytest.approx(1.0, abs=1e-12)

    def test_planted_dominance(self, tiny_vocab):
        rows = []
        for i in range(40):
            year = 2000 + i % 4
            rows.append((f"e{i}", year, ["E1", "E2"]))
            if i % 3 == 0:
                rows.append((f"c{i}", year, ["C1"]))
        corpus = make_corpus(tiny_vocab, rows)
        for row in branch_share_series(corpus):
            assert row.share_e > row.share_c
            assert row.share_e > row.share_d
