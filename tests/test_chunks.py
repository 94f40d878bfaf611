"""The corpus passes that read the descriptor entries in row chunks.

``Corpus.year_counts``, ``counts.corpus_triples``, ``dynamics.top_pairs``
and ``corpus.corpus_canonical_lines`` read the rows in chunks of at most
``corpus.CHUNK_ENTRIES`` entries (``LINE_CHUNK_ENTRIES`` for the lines).
Their results must not depend on that size: each is checked against a
per-publication reference with the constant set to 1 (every row with
entries a chunk of its own), 3 (rows longer than a chunk next to rows
that share one) and 2^30 (the whole corpus one chunk).  A second test
checks that the temporaries of each pass stay within a bound set by one
chunk, not by the corpus.
"""

import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import helixmi.corpus as corpus_module
from helixmi.corpus import Corpus, PackedStrings, corpus_canonical_lines, pack_strings, row_chunks
from helixmi.counts import COUNTINGS, branch_triple, corpus_triples
from helixmi.dynamics import top_pairs

from conftest import make_corpus, make_vocab
from oracles import canonical_lines_encoder, descriptor_counts_brute, top_pairs_brute

CHUNKS = [1, 3, 2**30]
BRANCH_PAIRS = [("C", "D"), ("D", "E"), ("E", "C"), ("C", "E")]
FIRST_YEAR = 2000

VOCAB = make_vocab({
    "C1": ["C04.100"], "C2": ["C08.200"], "C3": ["C10.300"],
    "D1": ["D02.300"], "D2": ["D03.400"], "D3": ["D04.500"],
    "E1": ["E05.500"], "E2": ["E07.600"],
    "CE1": ["C04.700", "E05.800"], "DE1": ["D06.100", "E01.200"],
    "Z1": ["Z01.900"],
})


@st.composite
def corpora(draw):
    # a drawn subset of the vocabulary, so that a branch may go unused and
    # a branch pair then has no fan-out
    used = draw(st.lists(st.sampled_from(sorted(VOCAB.column_ids)), min_size=1, unique=True))
    span = draw(st.integers(0, 3))
    pubs = draw(st.lists(
        st.tuples(st.integers(FIRST_YEAR, FIRST_YEAR + span),
                  # rows without entries, and rows longer than a chunk of 3
                  st.lists(st.sampled_from(used), max_size=8, unique=True)),
        min_size=1, max_size=20,
    ))
    return make_corpus(VOCAB, [(f"p{i:02d}", year, ids) for i, (year, ids) in enumerate(pubs)])


def _limits(ranked):
    """Cuts of a ranked pair list: none, each tie at the cut, and the ends."""
    counts = [count for _, count in ranked]
    ties = [i + 1 for i in range(len(counts) - 1) if counts[i] == counts[i + 1]]
    return sorted({0, 1, *ties, len(counts) - 1, len(counts), len(counts) + 1} - {-1})


def check_passes(corpus, chunk, branches, window):
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(corpus_module, "CHUNK_ENTRIES", chunk)
        patch.setattr(corpus_module, "LINE_CHUNK_ENTRIES", chunk)
        indptr = corpus.incidence.indptr
        for first, stop in [(0, len(corpus)), (len(corpus) // 2, len(corpus))]:
            chunks = list(row_chunks(indptr, first, stop))
            # the chunks tile the rows first..stop in order
            assert [lo for lo, _ in chunks] + [stop] == [first] + [hi for _, hi in chunks]
            assert all(indptr[hi] - indptr[lo] <= chunk or hi == lo + 1 for lo, hi in chunks)

        ids = corpus.vocabulary.column_ids
        year_counts = corpus.year_counts
        assert year_counts.dtype == np.int64
        assert year_counts.shape == (len(corpus.years()), len(ids))
        for row, year in zip(year_counts.tolist(), corpus.years()):
            brute = descriptor_counts_brute(corpus, year)
            assert row == [brute.get(uid, 0) for uid in ids]

        for counting in COUNTINGS:
            triples = corpus_triples(corpus, counting)
            assert triples.dtype == np.int64 and triples.shape == (len(corpus), 3)
            assert [tuple(t) for t in triples.tolist()] == [
                branch_triple(pub, corpus.vocabulary, counting) for pub in corpus.publications
            ]

        full_window = window or (corpus.years()[0], corpus.years()[-1])
        ranked = top_pairs_brute(corpus, *branches, full_window, len(ids) ** 2)
        for limit in _limits(ranked):
            pairs = top_pairs(corpus, *branches, window=window, limit=limit)
            assert [((p.descriptor_a, p.descriptor_b), p.co_count) for p in pairs] == ranked[:limit]
            assert all(p.window == full_window and type(p.co_count) is int for p in pairs)

        assert list(corpus_canonical_lines(corpus)) == list(canonical_lines_encoder(corpus))


@pytest.mark.parametrize("chunk", CHUNKS)
@settings(max_examples=60, deadline=None)
@given(
    corpus=corpora(),
    branches=st.sampled_from(BRANCH_PAIRS),
    # windows that cut years, hold none of them or reach past the corpus
    window=st.one_of(st.none(), st.tuples(st.integers(FIRST_YEAR - 1, FIRST_YEAR + 4),
                                          st.integers(FIRST_YEAR - 1, FIRST_YEAR + 4))),
)
def test_passes_do_not_depend_on_the_chunk_size(chunk, corpus, branches, window):
    check_passes(corpus, chunk, branches, window)


@pytest.mark.parametrize("chunk", CHUNKS)
def test_passes_on_the_chunk_edge_cases(chunk):
    rows = [
        ("a", 2000, []),  # no entries
        ("b", 2000, ["C1", "C2", "C3", "D1", "D2", "CE1", "Z1"]),  # longer than a chunk
        ("c", 2001, []),
        ("d", 2001, ["CE1", "D3"]),
        ("e", 2002, ["C1", "D1", "D2"]),
        ("f", 2002, []),
    ]
    corpus = make_corpus(VOCAB, rows)
    for branches in BRANCH_PAIRS:
        # in 2001 CE1 is the only C and E descriptor, and never pairs with
        # itself; 2002 has no E descriptor, so no D x E or C x E fan-out
        for window in [None, (2001, 2001), (2002, 2002), (2001, 2002), (1990, 1999)]:
            check_passes(corpus, chunk, branches, window)
    assert top_pairs(corpus, "C", "E", window=(2001, 2001)) == []
    assert top_pairs(corpus, "D", "E", window=(2002, 2002)) == []
    assert top_pairs(corpus, "D", "E", window=(2001, 2001))[0].co_count == 1


# How far each pass's traced peak may rise above its result, in bytes: on the
# corpus below, the chunked passes take 1-5 MB, and the same passes over the
# whole corpus at once took 36-75 MB.
TRANSIENT_BOUND = 8 * 2**20


def test_passes_hold_one_chunk_of_temporaries():
    """2.4M entries and 1.2M D x E pairs in 300,000 rows over 10 years.

    Each row holds 4 C, 2 D and 2 E descriptors, drawn from 64 C, 4 D and
    4 E, so a chunk has at most 16 distinct D-E pairs and the merge of the
    chunks' pair counts stays small; what is measured is the fan-out."""
    n_rows, n_years = 300_000, 10
    vocab = make_vocab({**{f"C{i:02d}": [f"C{i:02d}.1"] for i in range(64)},
                        **{f"D{i}": [f"D0{i}.1"] for i in range(4)},
                        **{f"E{i}": [f"E0{i}.1"] for i in range(4)}})
    c_of, d_of, e_of = (np.array([vocab.column(uid) for uid in vocab.column_ids
                                  if uid[0] == letter])
                        for letter in "CDE")
    r = np.arange(n_rows)
    c_cols = c_of[(4 * (r % 16))[:, None] + np.arange(4)]
    d_cols = d_of[np.sort(np.stack([r % 4, (r + 1) % 4], 1), 1)]
    e_cols = e_of[np.sort(np.stack([r // 4 % 4, (r // 4 + 2) % 4], 1), 1)]
    indices = np.concatenate([c_cols, d_cols, e_cols], axis=1).astype(np.int32).ravel()
    corpus = Corpus.from_sorted_arrays(
        "bounded", vocab, pack_strings([f"p{i:07d}" for i in range(n_rows)]),
        np.repeat(np.arange(2000, 2000 + n_years, dtype=np.int64), n_rows // n_years),
        np.arange(0, len(indices) + 1, 8, dtype=np.int64), indices,
    )
    assert len(indices) >= 2_000_000
    vocab.membership_matrix  # built once per vocabulary, outside the passes

    def traced(run):
        tracemalloc.start()
        try:
            result = run()
            return tracemalloc.get_traced_memory()[1], result
        finally:
            tracemalloc.stop()

    def lines():
        for _ in corpus_canonical_lines(corpus):
            pass
        return None

    passes = {
        "year_counts": lambda: corpus.year_counts,
        "corpus_triples": lambda: corpus_triples(corpus),
        "top_pairs": lambda: top_pairs(corpus, "D", "E", limit=20),
        "corpus_canonical_lines": lines,
    }
    for name, run in passes.items():
        peak, result = traced(run)
        kept = result.nbytes if isinstance(result, np.ndarray) else 0
        assert peak - kept < TRANSIENT_BOUND, f"{name}: {(peak - kept) / 2**20:.1f} MB"
    pairs = top_pairs(corpus, "D", "E", limit=100)
    assert len(pairs) == 16 and {p.co_count for p in pairs} == {n_rows // 4}
    assert sum(p.co_count for p in pairs) >= 1_000_000


def test_pairs_hold_repeated_pairs_once():
    """Pairs that every chunk repeats are held once, not once per chunk.

    819,200 rows of one D and one E descriptor each, among 64 of each,
    repeat all 4,096 D x E pairs every 4,096 rows, which with chunks of
    8,192 entries is every chunk.  Kept per chunk until one merge, the
    200 chunks' pair counts peaked at 25.3 MB; merged as they come, 0.7 MB."""
    n_rows, period = 200 * 4096, 4096
    vocab = make_vocab({**{f"D{i:02d}": [f"D{i:02d}.1"] for i in range(64)},
                        **{f"E{i:02d}": [f"E{i:02d}.1"] for i in range(64)}})
    r = np.arange(n_rows)
    # D columns come before E columns, so each row's columns ascend
    indices = np.stack([r % 64, 64 + r // 64 % 64], axis=1).astype(np.int32).ravel()
    corpus = Corpus.from_sorted_arrays(
        # the ids play no part in the pass
        "repeated", vocab, PackedStrings(np.zeros(n_rows + 1, dtype=np.int64),
                                         np.empty(0, dtype=np.uint8)),
        np.full(n_rows, 2000, dtype=np.int64),
        np.arange(0, len(indices) + 1, 2, dtype=np.int64), indices,
    )
    vocab.membership_matrix  # built once per vocabulary, outside the pass
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(corpus_module, "CHUNK_ENTRIES", 2 * period)
        tracemalloc.start()
        try:
            pairs = top_pairs(corpus, "D", "E", limit=10)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 4 * 2**20, f"{peak / 2**20:.1f} MB"
        assert [p.co_count for p in pairs] == [n_rows // period] * 10
        pairs = top_pairs(corpus, "D", "E", limit=period + 1)
    assert len(pairs) == period and {p.co_count for p in pairs} == {n_rows // period}
