import json

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from helixmi.corpus import (
    Corpus,
    CorpusFormatError,
    corpus_canonical_bytes,
    ingest_jsonl,
    ingest_medline_text,
    pack_strings,
    unpack_strings,
    write_corpus_jsonl,
    yearly_sizes,
)

from conftest import make_corpus, make_vocab


def write_jsonl(path, records):
    with open(path, "w", encoding="utf-8") as fh:
        for r in records:
            fh.write(json.dumps(r) + "\n")


def test_ingest_jsonl_excludes_empty_mesh(tmp_path, tiny_vocab):
    path = tmp_path / "c.jsonl"
    write_jsonl(
        path,
        [
            {"id": "1", "year": 2000, "mesh": ["C1"]},
            {"id": "2", "year": 2000, "mesh": []},
            {"id": "3", "year": 2001, "mesh": ["D1", "E1"]},
        ],
    )
    corpus, report = ingest_jsonl(str(path), tiny_vocab)
    assert len(corpus) == 2
    assert report.excluded_no_mesh == 1


def test_ingest_jsonl_year_filter(tmp_path, tiny_vocab):
    path = tmp_path / "c.jsonl"
    write_jsonl(
        path,
        [
            {"id": "1", "year": 2013, "mesh": ["C1"]},
            {"id": "2", "year": 2014, "mesh": ["C1"]},
        ],
    )
    corpus, report = ingest_jsonl(str(path), tiny_vocab, year_range=(1963, 2013))
    assert len(corpus) == 1
    assert report.excluded_year == 1


def test_ingest_jsonl_malformed_line(tmp_path, tiny_vocab):
    path = tmp_path / "c.jsonl"
    path.write_text('{"id": "1", "year": 2000, "mesh": ["C1"]}\n{oops\n', encoding="utf-8")
    with pytest.raises(CorpusFormatError, match="line 2"):
        ingest_jsonl(str(path), tiny_vocab)


@pytest.mark.parametrize(
    "record",
    [
        '{"id": "1", "year": 2000}',
        '{"id": "1", "year": 2000, "mesh": "C1"}',
        '{"id": "1", "year": "about 2000", "mesh": ["C1"]}',
    ],
)
def test_ingest_jsonl_bad_record_shapes(tmp_path, tiny_vocab, record):
    path = tmp_path / "c.jsonl"
    path.write_text(record + "\n", encoding="utf-8")
    with pytest.raises(CorpusFormatError, match="line 1"):
        ingest_jsonl(str(path), tiny_vocab)


def test_ingest_jsonl_unknown_term_dropped_per_term(tmp_path, tiny_vocab):
    path = tmp_path / "c.jsonl"
    write_jsonl(path, [{"id": "1", "year": 2000, "mesh": ["C1", "No Such Term"]}])
    corpus, report = ingest_jsonl(str(path), tiny_vocab)
    assert len(corpus) == 1
    assert corpus.publications[0].mesh_ids == ("C1",)
    assert report.unresolved_terms == {"No Such Term": 1}


def test_ingest_jsonl_duplicate_ids_first_wins(tmp_path, tiny_vocab):
    path = tmp_path / "c.jsonl"
    write_jsonl(
        path,
        [
            {"id": "1", "year": 2000, "mesh": ["C1"]},
            {"id": "1", "year": 2001, "mesh": ["D1"]},
        ],
    )
    corpus, report = ingest_jsonl(str(path), tiny_vocab)
    assert len(corpus) == 1
    assert corpus.publications[0].year == 2000
    assert report.excluded_duplicate == 1


def test_ingest_jsonl_resolves_names(tmp_path, tiny_vocab):
    path = tmp_path / "c.jsonl"
    write_jsonl(path, [{"id": "1", "year": 2000, "mesh": ["Term C1", "E1"]}])
    corpus, _ = ingest_jsonl(str(path), tiny_vocab)
    assert corpus.publications[0].mesh_ids == ("C1", "E1")


MEDLINE_SAMPLE = """\
PMID- 100
DP  - 1999 Jan
MH  - *Term C1/analysis
MH  - Term D1
MH  - Term E1/blood/immunology

PMID- 101
DP  - 2000 Dec 23-30
MH  - Term C2

PMID- 102
DP  - 2001

PMID- 103
DP  - Winter
MH  - Term C1
"""


def test_ingest_medline_text(tmp_path, tiny_vocab):
    path = tmp_path / "m.txt"
    path.write_text(MEDLINE_SAMPLE, encoding="utf-8")
    corpus, report = ingest_medline_text(str(path), tiny_vocab)
    by_id = {p.id: p for p in corpus.publications}
    assert by_id["100"].year == 1999
    assert by_id["100"].mesh_ids == ("C1", "D1", "E1")
    assert by_id["101"].mesh_ids == ("C2",)
    # 102 has no MH lines, 103 has no parsable year
    assert "102" not in by_id
    assert "103" not in by_id
    assert report.excluded_no_mesh == 1
    assert report.skipped_malformed == 1


def test_ingest_medline_continuation_lines(tmp_path, tiny_vocab):
    text = (
        "PMID- 200\n"
        "DP  - 2002\n"
        "MH  - Term\n"
        "      C1\n"
        "\n"
    )
    path = tmp_path / "m.txt"
    path.write_text(text, encoding="utf-8")
    corpus, _ = ingest_medline_text(str(path), tiny_vocab)
    assert corpus.publications[0].mesh_ids == ("C1",)


def test_yearly_sizes(tiny_vocab):
    corpus = make_corpus(
        tiny_vocab,
        [
            ("1", 2000, ["C1", "C2", "D1"]),
            ("2", 2000, ["C1", "D1", "D2", "E1", "E2"]),
            ("3", 2002, ["Z1"]),
        ],
    )
    rows = {r.year: r for r in yearly_sizes(corpus)}
    assert rows[2000].publications == 2
    assert rows[2000].total_descriptors == 8
    assert rows[2000].distinct_descriptors == 6
    assert rows[2000].mean_per_publication == 4.0
    assert 2001 not in rows  # absent years are omitted, not zero-filled


def test_size_identities(tiny_vocab):
    corpus = make_corpus(
        tiny_vocab,
        [
            ("1", 2000, ["C1", "D1"]),
            ("2", 2000, ["C1"]),
            ("3", 2001, ["E1", "E2", "Z1"]),
        ],
    )
    rows = yearly_sizes(corpus)
    assert sum(r.publications for r in rows) == len(corpus)
    assert sum(r.total_descriptors for r in rows) == sum(
        len(p.mesh_ids) for p in corpus.publications
    )
    for r in rows:
        assert r.distinct_descriptors <= r.total_descriptors
    all_years_vocab = {m for p in corpus.publications for m in p.mesh_ids}
    assert len(all_years_vocab) <= sum(r.distinct_descriptors for r in rows)


def test_ingest_idempotent(tmp_path, tiny_vocab):
    path = tmp_path / "c.jsonl"
    write_jsonl(
        path,
        [
            {"id": "2", "year": 2001, "mesh": ["D1", "C1"]},
            {"id": "1", "year": 2000, "mesh": ["E1"]},
        ],
    )
    corpus1, _ = ingest_jsonl(str(path), tiny_vocab)
    out = tmp_path / "canonical.jsonl"
    write_corpus_jsonl(corpus1, str(out))
    corpus2, _ = ingest_jsonl(str(out), tiny_vocab)
    assert corpus_canonical_bytes(corpus1) == corpus_canonical_bytes(corpus2)
    assert corpus1.by_year == corpus2.by_year


# ids from a few characters, so that keys repeat, among them non-ASCII
# text, a lone surrogate, NUL, a quote and a backslash
ids = st.lists(st.sampled_from(["a", "b", "é", "\ud800", "\x00", '"', "\\", "\U0010ffff"]),
               max_size=3).map("".join)


@settings(max_examples=200, deadline=None)
@given(st.lists(st.tuples(st.integers(1999, 2001), ids), max_size=12), st.data())
def test_rows_sorted_once_and_ids_packed(rows, data):
    years = [year for year, _ in rows]
    pub_ids = [pub_id for _, pub_id in rows]
    packed = pack_strings(pub_ids)
    assert packed.offsets.dtype == np.int64 and packed.data.dtype == np.uint8
    assert unpack_strings(packed) == pub_ids
    # each row's one column is its place in the input, to follow the rows
    corpus = Corpus.from_arrays("t", make_vocab({"C1": ["C01"]}), pub_ids, years,
                                range(len(rows) + 1), range(len(rows)))
    order = sorted(range(len(rows)), key=lambda i: rows[i])
    assert corpus.incidence.indices.tolist() == order
    assert corpus.pub_years.tolist() == sorted(years)
    assert corpus.pub_ids == tuple(pub_ids[i] for i in order)
    assert len(corpus) == len(rows)
    lo = data.draw(st.integers(0, len(rows)))
    hi = data.draw(st.integers(lo, len(rows)))
    assert corpus.decode_ids(lo, hi) == list(corpus.pub_ids[lo:hi])
