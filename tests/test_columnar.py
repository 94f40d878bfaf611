"""The columnar corpus view against per-publication references.

Every count-based result is computed from ``Corpus.incidence`` and
``Corpus.year_counts``; each is checked here against the per-publication
``branch_triple`` or a plain-Python reference from ``oracles`` on
generated corpora.  The generator covers descriptors in several
branches, primary-branch depth ties, descriptors outside C/D/E, unused
descriptors, publications without descriptors and single-year corpora.
"""

import csv
import os
import tempfile

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from helixmi.cli import main
from helixmi.corpus import Corpus, Publication, write_corpus_jsonl, yearly_sizes
from helixmi.counts import BRANCHES, COUNTINGS, branch_matrix, branch_triple, corpus_triples
from helixmi.dynamics import branch_share_series, detect_entries, rank_trajectories, top_pairs
from helixmi.infotheory import efficiency
from helixmi.mesh import write_mesh_tsv
from helixmi.scaling import descriptor_counts, rank_table

from conftest import make_corpus, make_vocab
from oracles import (
    branch_shares_brute,
    csr_of,
    descriptor_counts_brute,
    entries_brute,
    pair_counts_brute,
    rank_table_brute,
    trajectory_cells_brute,
)

FIRST_YEAR = 2000


@st.composite
def corpora(draw):
    # ids drawn in random order, so sorted-id columns differ from insertion order
    ids = draw(
        st.lists(st.text("abcdXY0189", min_size=1, max_size=3), min_size=1, max_size=10,
                 unique=True)
    )
    specs = {}
    for uid in ids:
        # letters outside C/D/E and equal depths in different branches
        homes = draw(
            st.lists(st.tuples(st.sampled_from("ACDEZ"), st.integers(1, 3)),
                     min_size=1, max_size=3)
        )
        specs[uid] = [f"{letter}{i:02d}" + ".001" * (depth - 1)
                      for i, (letter, depth) in enumerate(homes)]
    span = draw(st.integers(0, 3))
    pubs = draw(
        st.lists(
            st.tuples(st.integers(FIRST_YEAR, FIRST_YEAR + span),
                      st.lists(st.sampled_from(ids), max_size=5, unique=True)),
            min_size=1, max_size=25,
        )
    )
    rows = [(f"p{i:02d}", year, mesh) for i, (year, mesh) in enumerate(pubs)]
    return make_corpus(make_vocab(specs), rows)


examples = settings(max_examples=60, deadline=None)


@examples
@given(corpora(), st.sampled_from(COUNTINGS))
def test_corpus_triples_match_branch_triple(corpus, counting):
    triples = corpus_triples(corpus, counting)
    assert triples.shape == (len(corpus), 3)
    assert triples.dtype == np.int64
    for row, pub in zip(triples.tolist(), corpus.publications):
        assert tuple(row) == branch_triple(pub, corpus.vocabulary, counting)


@examples
@given(corpora())
def test_yearly_sizes_match_publications(corpus):
    # each year is one row range, and the ranges tile the corpus in year order
    ranges = [corpus.by_year[y] for y in corpus.years()]
    assert all(type(rows) is range for rows in ranges)
    assert [i for rows in ranges for i in rows] == list(range(len(corpus)))
    for year, rows in corpus.by_year.items():
        assert {corpus.publications[i].year for i in rows} == {year}
    rows = yearly_sizes(corpus)
    assert [r.year for r in rows] == corpus.years()
    for r in rows:
        pubs = [p for p in corpus.publications if p.year == r.year]
        total = sum(len(p.mesh_ids) for p in pubs)
        assert r.publications == len(pubs)
        assert r.total_descriptors == total
        assert r.distinct_descriptors == len({m for p in pubs for m in p.mesh_ids})
        assert r.mean_per_publication == total / len(pubs)


@examples
@given(corpora())
def test_rank_tables_match_reference(corpus):
    absent = FIRST_YEAR - 1
    scopes = [("all", None)] + [(y, y) for y in corpus.years()] + [(absent, absent)]
    for scope, year in scopes:
        entries = rank_table(corpus, scope).entries
        assert [(e.rank, e.descriptor_id, e.count) for e in entries] == rank_table_brute(
            corpus, year
        )
        assert all(type(e.count) is int for e in entries)
        assert descriptor_counts(corpus, scope) == descriptor_counts_brute(corpus, year)


@examples
@given(corpora(), st.integers(1, 12))
def test_rank_trajectories_match_reference(corpus, k):
    if len(corpus.years()) < 2:
        with pytest.raises(ValueError):
            rank_trajectories(corpus, k)
        return
    matrix = rank_trajectories(corpus, k)
    top, cells = trajectory_cells_brute(corpus, k)
    assert matrix.descriptor_ids == top
    assert matrix.k == len(top)
    assert matrix.years == corpus.years()
    assert {
        (uid, year): int(matrix.cells[i, j])
        for i, uid in enumerate(matrix.descriptor_ids)
        for j, year in enumerate(matrix.years)
    } == cells


@examples
@given(corpora(), st.integers(1, 12))
def test_detect_entries_match_reference(corpus, k):
    entries = [
        (e.descriptor_id, e.birth_year, e.impact, e.primary_branch)
        for e in detect_entries(corpus, k)
    ]
    assert entries == entries_brute(corpus, k)


@examples
@given(
    corpora(),
    st.sampled_from([("C", "D"), ("D", "E"), ("E", "C")]),
    st.one_of(st.none(), st.tuples(st.integers(1996, 2006), st.integers(1996, 2006))),
    st.integers(0, 60),
)
def test_top_pairs_match_brute_force(corpus, branches, window, limit):
    pairs = top_pairs(corpus, *branches, window=window, limit=limit)
    full_window = window or (corpus.years()[0], corpus.years()[-1])
    brute = pair_counts_brute(corpus, *branches, full_window)
    expected = sorted(brute.items(), key=lambda kv: (-kv[1], kv[0]))[:limit]
    assert [((p.descriptor_a, p.descriptor_b), p.co_count) for p in pairs] == expected
    assert all(p.window == full_window and type(p.co_count) is int for p in pairs)


@examples
@given(corpora(), st.sampled_from(COUNTINGS))
def test_branch_matrix_is_built_once_and_read_only(corpus, counting):
    vocab = corpus.vocabulary
    matrix = branch_matrix(vocab, counting)
    assert branch_matrix(vocab, counting) is matrix
    assert not matrix.flags.writeable
    with pytest.raises(ValueError):
        matrix[0, 0] = 1
    # a fresh build from the descriptors, row by row in column order
    descriptors = [vocab.descriptors[uid] for uid in vocab.column_ids]
    if counting == "membership":
        homes = [{t.raw[0] for t in d.tree_numbers} for d in descriptors]
    else:
        homes = [{d.primary_branch} for d in descriptors]
    expected = [[int(alpha in h) for alpha in BRANCHES] for h in homes]
    assert matrix.dtype == np.int64
    assert matrix.tolist() == expected


@examples
@given(corpora(), st.sampled_from(COUNTINGS))
def test_branch_shares_match_reference(corpus, counting):
    shares = [
        (s.year, s.share_c, s.share_d, s.share_e)
        for s in branch_share_series(corpus, counting)
    ]
    assert shares == branch_shares_brute(corpus, counting)


def _cell(value):
    return "" if value is None else repr(value)


@settings(max_examples=15, deadline=None)
@given(corpora())
def test_stats_vocabulary_and_efficiency_match_reference(corpus):
    # ingestion drops publications without descriptors, so the reference
    # is computed on the corpus the command actually reads
    publications = [p for p in corpus.publications if p.mesh_ids]
    corpus = Corpus.from_arrays(
        corpus.query_label, corpus.vocabulary, *csr_of(publications, corpus.vocabulary)
    )
    if not len(corpus):
        return
    with tempfile.TemporaryDirectory() as tmp:
        write_corpus_jsonl(corpus, os.path.join(tmp, "corpus.jsonl"))
        write_mesh_tsv(corpus.vocabulary, os.path.join(tmp, "mesh.tsv"))
        out = os.path.join(tmp, "out")
        assert main(["stats", "--corpus", os.path.join(tmp, "corpus.jsonl"),
                     "--mesh", os.path.join(tmp, "mesh.tsv"), "--counting", "primary",
                     "--out", out]) == 0
        with open(os.path.join(out, "stats.csv"), encoding="utf-8") as fh:
            (stats,) = list(csv.DictReader(fh))
        with open(os.path.join(out, "yearly.csv"), encoding="utf-8") as fh:
            yearly = list(csv.DictReader(fh))
    assert int(stats["V_q"]) == len(descriptor_counts_brute(corpus))
    assert [int(r["year"]) for r in yearly] == corpus.years()
    for r in yearly:
        counts = descriptor_counts_brute(corpus, int(r["year"]))
        assert int(r["V_q"]) == len(counts)
        # diversity counts by membership even under --counting primary
        for alpha in "CDE":
            usage = [c for uid, c in counts.items()
                     if alpha in corpus.vocabulary.descriptors[uid].branches]
            assert r[f"eff_{alpha}"] == _cell(efficiency(usage) if usage else None)


def test_unknown_descriptor_id_named_in_key_error(tiny_vocab):
    with pytest.raises(KeyError, match="Q9"):
        branch_triple(Publication("1", 2000, ("C1", "Q9")), tiny_vocab)


def test_negative_k_rejected(tiny_vocab):
    corpus = make_corpus(tiny_vocab, [("1", 2000, ["C1"]), ("2", 2001, ["D1"])])
    with pytest.raises(ValueError):
        rank_trajectories(corpus, k=-5)
    with pytest.raises(ValueError):
        detect_entries(corpus, k=-1)
    with pytest.raises(ValueError):
        top_pairs(corpus, "C", "D", limit=-1)


def test_counts_beyond_int8_range():
    # counts past the int8 range must not wrap, whatever width the incidence arrays use
    n = 130
    vocab = make_vocab({"E1": ["E01"], **{f"C{i:03d}": [f"C01.{i:03d}"] for i in range(n)}})
    corpus = make_corpus(vocab, [(str(j), 2000, list(vocab.descriptors)) for j in range(n)])
    assert corpus_triples(corpus)[0].tolist() == [n, 0, 1]
    assert rank_table(corpus).entries[0].count == n
    assert top_pairs(corpus, "C", "E")[0].co_count == n
