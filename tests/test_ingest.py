"""The array parsers against the object parsers they replaced.

``ingest_jsonl`` and ``ingest_medline_text`` stream records into flat
arrays; ``oracles.ingest_jsonl_objects`` and
``oracles.ingest_medline_objects`` build one ``Publication`` per record
and apply the rules to those.  Generated inputs must give equal rows,
equal reports and equal canonical bytes, with and without a year
window.  Named MEDLINE fixtures pin the parser's edge cases.
"""

import gc
import json

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from helixmi.corpus import (
    CorpusFormatError,
    Publication,
    corpus_canonical_bytes,
    ingest_jsonl,
    ingest_medline_text,
)

from conftest import make_vocab
from oracles import (
    canonical_bytes_of,
    csr_of,
    ingest_jsonl_objects,
    ingest_medline_objects,
)

VOCAB = make_vocab(
    {
        "C1": ["C04.100"],
        "C2": ["C08.200"],
        "D1": ["D02.300"],
        "E1": ["E05.500"],
        "CE1": ["C04.700", "E05.800"],
        "Z1": ["Z01.900"],
    }
)

examples = settings(max_examples=150, deadline=None)

year_windows = st.none() | st.tuples(st.integers(1998, 2001), st.integers(1999, 2002))


def assert_same_ingest(corpus, report, publications, expected_report):
    ids, years, indptr, indices = csr_of(publications, VOCAB)
    assert list(corpus.pub_ids) == ids
    assert corpus.pub_years.tolist() == years
    assert corpus.incidence.indptr.tolist() == indptr
    assert corpus.incidence.indices.tolist() == indices
    assert report.to_json_dict() == expected_report.to_json_dict()
    assert corpus_canonical_bytes(corpus) == canonical_bytes_of(publications)
    assert corpus.publications == publications


# ---------------------------------------------------------------------------
# JSONL
# ---------------------------------------------------------------------------

# ids, names in any case and spacing, unknown terms and non-string values
jsonl_terms = st.sampled_from(
    ["C1", "C2", "D1", "E1", "CE1", "Z1", "Term C1", "term d1", "  TERM E1 ", "Term CE1",
     "c1", "No Such Term", "", "C9", 7, None, 2.5]
)

jsonl_records = st.fixed_dictionaries(
    {
        # a small id pool, so duplicates whose first copy is excluded occur
        "id": st.sampled_from(["1", "2", "3", "10", "a", 4]),
        "year": st.integers(1997, 2003) | st.sampled_from(["2000", 2001.0]),
        "mesh": st.lists(jsonl_terms, max_size=5),
    }
)

blank_lines = st.sampled_from(["", " ", "\t", "  \t ", "\u00a0", "\x0c"])

malformed_lines = st.sampled_from(
    ["{oops", "[1, 2]", '"text"', '{"id": "1", "year": 2000}',
     '{"id": "1", "year": 2000, "mesh": "C1"}', '{"id": "1", "year": "about", "mesh": []}',
     '{"id": "1", "year": null, "mesh": []}']
)


@st.composite
def jsonl_files(draw):
    lines = draw(
        st.lists(jsonl_records.map(json.dumps) | blank_lines, min_size=0, max_size=25)
    )
    if draw(st.integers(0, 5)) == 0:
        lines.insert(draw(st.integers(0, len(lines))), draw(malformed_lines))
    ending = draw(st.sampled_from(["\n", "\r\n"]))
    return "".join(line + ending for line in lines)


@examples
@given(jsonl_files(), year_windows)
def test_jsonl_matches_object_parser(tmp_path_factory, text, year_range):
    path = tmp_path_factory.mktemp("jsonl") / "c.jsonl"
    path.write_bytes(text.encode("utf-8"))
    try:
        expected = ingest_jsonl_objects(str(path), VOCAB, year_range)
    except CorpusFormatError as exc:
        with pytest.raises(CorpusFormatError) as raised:
            ingest_jsonl(str(path), VOCAB, year_range)
        assert str(raised.value) == str(exc)
        return
    corpus, report = ingest_jsonl(str(path), VOCAB, year_range)
    assert_same_ingest(corpus, report, *expected)


def test_jsonl_year_beyond_int64_is_a_format_error(tmp_path):
    path = tmp_path / "c.jsonl"
    # 1e400 reads as an infinite float
    path.write_text('{"id": "1", "year": 1e400, "mesh": ["C1"]}\n', encoding="utf-8")
    with pytest.raises(CorpusFormatError, match="line 1"):
        ingest_jsonl(str(path), VOCAB)
    path.write_text('{"id": "2", "year": 99999999999999999999, "mesh": ["C1"]}\n',
                    encoding="utf-8")
    with pytest.raises(CorpusFormatError, match="line 1: bad record.*out of range"):
        ingest_jsonl(str(path), VOCAB)


# ---------------------------------------------------------------------------
# MEDLINE text
# ---------------------------------------------------------------------------

mesh_values = st.sampled_from(
    ["Term C1", "*Term C1/analysis", "term d1/blood/immunology", "  TERM E1 ", "C2",
     "*CE1", "Term Z1", "No Such Term", "*", "/qualifier", "", "Term"]
)

# a small id pool, so duplicates whose first copy is excluded occur
pmid_lines = st.builds("PMID- {}".format, st.sampled_from(["1", "2", " 2 ", "", "10"]))
dp_lines = st.builds("DP  - {}".format, st.sampled_from(
    ["1998 Jan", "1999", "2000 Dec 23-30", "2001", "2002-2003", "Winter", "", "98"]))

field_lines = st.one_of(
    pmid_lines,
    dp_lines,
    st.builds("MH  - {}".format, mesh_values),
    st.sampled_from(["AB  - An abstract.", "TI  - A title", "OWN - NLM", " MH - Term D1",
                     "MH  -", "PMID-7"]),
)

other_lines = st.sampled_from(
    ["      C1", "      continued text", "      ", "junk", "MH-Term C1", "   indented",
     "\t", "\u00a0", " \t\u00a0", "", "\x1c", "Term \udcff"]
)


@st.composite
def medline_records(draw):
    # most records open with a PMID and a DP; any line may follow
    head = [draw(lines) for lines in (pmid_lines, dp_lines) if draw(st.integers(0, 5))]
    return head + draw(st.lists(field_lines | other_lines, max_size=8))


@st.composite
def medline_files(draw):
    records = draw(st.lists(medline_records(), max_size=6))
    separator = st.sampled_from(["", " ", "\t", "\u00a0", "      "])
    lines = []
    for record in records:
        lines += record + [draw(separator)]
    ending = draw(st.sampled_from(["\n", "\r\n", "\r"]))
    # lone surrogates stand in for bytes that are not UTF-8
    text = ending.join(lines) + draw(st.sampled_from(["", ending]))
    return text.encode("utf-8", errors="surrogateescape")


@examples
@given(medline_files(), year_windows)
def test_medline_matches_object_parser(tmp_path_factory, data, year_range):
    path = tmp_path_factory.mktemp("medline") / "m.txt"
    path.write_bytes(data)
    expected = ingest_medline_objects(str(path), VOCAB, year_range)
    corpus, report = ingest_medline_text(str(path), VOCAB, year_range)
    assert_same_ingest(corpus, report, *expected)


MEDLINE_FIXTURES = {
    "crlf_line_endings": (
        b"PMID- 1\r\nDP  - 2000\r\nMH  - Term C1\r\n\r\n"
        b"PMID- 2\r\nDP  - 2001\r\nMH  - Term D1\r\n",
        [("1", 2000, ("C1",)), ("2", 2001, ("D1",))], {},
    ),
    "lone_cr_line_endings": (
        b"PMID- 1\rDP  - 2000\rMH  - Term C1\r\rPMID- 2\rDP  - 2001\rMH  - Term D1\r",
        [("1", 2000, ("C1",)), ("2", 2001, ("D1",))], {},
    ),
    "tab_separator_line": (
        b"PMID- 1\nDP  - 2000\nMH  - Term C1\n\t \t\nPMID- 2\nDP  - 2001\nMH  - Term D1\n",
        [("1", 2000, ("C1",)), ("2", 2001, ("D1",))], {},
    ),
    "nbsp_separator_line": (
        "PMID- 1\nDP  - 2000\nMH  - Term C1\n\u00a0\nPMID- 2\nDP  - 2001\nMH  - Term D1\n"
        .encode("utf-8"),
        [("1", 2000, ("C1",)), ("2", 2001, ("D1",))], {},
    ),
    "continuation_before_any_field": (
        b"PMID- 1\nDP  - 2000\nMH  - Term C1\n\n      Term D1\nPMID- 2\nDP  - 2001\n"
        b"MH  - Term E1\n",
        [("1", 2000, ("C1",)), ("2", 2001, ("E1",))], {},
    ),
    "junk_between_field_and_continuation": (
        b"PMID- 1\nDP  - 2000\nMH  - Term\nnot a field line\n      C1\n"
        b"MH  - *Term\n      D1/blood\n",
        [("1", 2000, ("C1", "D1"))], {},
    ),
    "first_pmid_wins_even_empty": (
        b"PMID- \nPMID- 5\nDP  - 2000\nMH  - Term C1\n\n"
        b"PMID- 6\nPMID- 7\nDP  - 2000\nMH  - Term C1\n",
        [("6", 2000, ("C1",))], {"skipped_malformed": 1},
    ),
    "first_dp_with_a_year_wins": (
        b"PMID- 1\nDP  - Winter\nDP  - 1999 Spring\nDP  - 2005\nMH  - Term C1\n",
        [("1", 1999, ("C1",))], {},
    ),
    "mesh_values_cleaned": (
        b"PMID- 1\nDP  - 2000\nMH  - *Term C1/analysis/blood\nMH  - term d1\n"
        b"MH  - *\nMH  - /qualifier\nMH  -  E1 \n",
        [("1", 2000, ("C1", "D1", "E1"))], {},
    ),
    "undecodable_bytes_replaced": (
        b"PMID- 1\nDP  - 2000\nMH  - Term C1\nMH  - Term \xff\n",
        [("1", 2000, ("C1",))],
        {"unresolved_terms": [{"name": "Term \ufffd", "count": 1}]},
    ),
    "fields_without_pmid": (
        b"DP  - 2000\nMH  - Term C1\n\nPMID- 2\nDP  - 2001\nMH  - Term D1\n",
        [("2", 2001, ("D1",))], {"skipped_malformed": 1},
    ),
}


@pytest.mark.parametrize("name", sorted(MEDLINE_FIXTURES))
def test_medline_fixture(tmp_path, name):
    data, rows, report_fields = MEDLINE_FIXTURES[name]
    path = tmp_path / "m.txt"
    path.write_bytes(data)
    corpus, report = ingest_medline_text(str(path), VOCAB)
    assert [(p.id, p.year, p.mesh_ids) for p in corpus.publications] == rows
    expected = {"excluded_no_mesh": 0, "excluded_year": 0, "excluded_duplicate": 0,
                "skipped_malformed": 0, "unresolved_terms": []}
    expected.update(report_fields)
    assert report.to_json_dict() == expected


# ---------------------------------------------------------------------------
# Publications are views
# ---------------------------------------------------------------------------

def _publication_count():
    gc.collect()
    return sum(isinstance(o, Publication) for o in gc.get_objects())


def test_no_publication_objects_until_read(tmp_path):
    path = tmp_path / "c.jsonl"
    path.write_text("".join(
        f'{{"id": "{i}", "year": {2000 + i % 3}, "mesh": ["C1", "Term D1"]}}\n'
        for i in range(50)
    ), encoding="utf-8")
    before = _publication_count()
    corpus, _ = ingest_jsonl(str(path), VOCAB)
    assert len(corpus) == 50
    assert _publication_count() == before
    publications = corpus.publications
    assert _publication_count() == before + 50
    assert corpus.publications is publications
    assert [p.year for p in publications] == corpus.pub_years.tolist()
    assert np.array_equal(corpus.pub_years, np.sort(corpus.pub_years))
