"""The array parsers against the object parsers they replaced.

``ingest_jsonl`` hands records to the sink in batches and
``ingest_medline_text`` parses the file in blocks cut after empty
lines; ``oracles.ingest_jsonl_objects`` and
``oracles.ingest_medline_objects`` build one ``Publication`` per record
and apply the rules to those.  Generated inputs must give equal rows,
equal reports and equal canonical bytes, with and without a year
window, at any batch or block size.  Named MEDLINE fixtures pin the
parser's edge cases.  The canonical writer must give the bytes of
``json.JSONEncoder`` (``oracles.canonical_lines_encoder``) for any id
text and year, and its output must ingest back to the same corpus.
"""

import gc
import json
from contextlib import contextmanager

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from helixmi import corpus as corpus_module
from helixmi.corpus import (
    Corpus,
    CorpusFormatError,
    IngestReport,
    Publication,
    corpus_canonical_bytes,
    ingest_jsonl,
    ingest_medline_text,
    write_corpus_jsonl,
)
from helixmi.mesh import MeshDescriptor, TreeNumber, Vocabulary

from conftest import make_vocab
from oracles import (
    canonical_bytes_of,
    canonical_lines_encoder,
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

BOM = "\ufeff".encode("utf-8")


@contextmanager
def with_size(name, size):
    """``helixmi.corpus.<name>`` (a batch or block size) set to ``size``
    inside the block; None keeps the default."""
    with pytest.MonkeyPatch.context() as mp:
        if size is not None:
            mp.setattr(corpus_module, name, size)
        yield


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
@given(jsonl_files(), year_windows, st.sampled_from([1, 3, None]))
def test_jsonl_matches_object_parser(tmp_path_factory, text, year_range, batch):
    path = tmp_path_factory.mktemp("jsonl") / "c.jsonl"
    path.write_bytes(text.encode("utf-8"))
    with with_size("_JSONL_BATCH", batch):
        try:
            expected = ingest_jsonl_objects(str(path), VOCAB, year_range)
        except CorpusFormatError as exc:
            with pytest.raises(CorpusFormatError) as raised:
                ingest_jsonl(str(path), VOCAB, year_range)
            assert str(raised.value) == str(exc)
            return
        corpus, report = ingest_jsonl(str(path), VOCAB, year_range)
    assert_same_ingest(corpus, report, *expected)


@pytest.mark.parametrize("batch", [1, 3])
def test_jsonl_rules_span_batches(tmp_path, batch):
    # "1" is first excluded for its year, then admitted, then a duplicate;
    # the unresolved terms of excluded records land in other batches
    records = [
        {"id": "1", "year": 1990, "mesh": ["C1", "Nowhere"]},
        {"id": "2", "year": 2000, "mesh": ["Nowhere"]},
        {"id": "1", "year": 2000, "mesh": ["D1"]},
        {"id": "3", "year": 2001, "mesh": ["E1", "Nowhere"]},
        {"id": "1", "year": 2001, "mesh": ["E1", "Elsewhere"]},
    ]
    path = tmp_path / "c.jsonl"
    path.write_text("".join(json.dumps(r) + "\n" for r in records), encoding="utf-8")
    with with_size("_JSONL_BATCH", batch):
        corpus, report = ingest_jsonl(str(path), VOCAB, (1995, 2005))
    assert [(p.id, p.year, p.mesh_ids) for p in corpus.publications] == [
        ("1", 2000, ("D1",)), ("3", 2001, ("E1",))]
    assert report.to_json_dict() == {
        "excluded_no_mesh": 1, "excluded_year": 1, "excluded_duplicate": 1,
        "skipped_malformed": 0,
        "unresolved_terms": [{"name": "Nowhere", "count": 3},
                             {"name": "Elsewhere", "count": 1}],
    }


def test_jsonl_byte_order_mark_is_skipped(tmp_path):
    path = tmp_path / "c.jsonl"
    path.write_bytes(BOM + b'{"id": "1", "year": 2000, "mesh": ["C1"]}\n'
                     b'{"id": "2", "year": 2001, "mesh": ["D1"]}\n')
    corpus, report = ingest_jsonl(str(path), VOCAB)
    assert [(p.id, p.year, p.mesh_ids) for p in corpus.publications] == [
        ("1", 2000, ("C1",)), ("2", 2001, ("D1",))]
    assert report.summary() == IngestReport().summary()


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


def test_jsonl_integer_too_long_to_convert_is_a_format_error(tmp_path):
    # json.loads refuses an integer of more than 4,300 digits with a plain
    # ValueError, not a JSONDecodeError
    path = tmp_path / "c.jsonl"
    path.write_text('{"id": "1", "year": 2000, "mesh": ["C1"]}\n'
                    '{"id": "2", "year": 1' + "0" * 5000 + ', "mesh": ["C1"]}\n',
                    encoding="utf-8")
    with pytest.raises(CorpusFormatError, match="line 2") as raised:
        ingest_jsonl(str(path), VOCAB)
    with pytest.raises(CorpusFormatError) as expected:
        ingest_jsonl_objects(str(path), VOCAB)
    assert str(raised.value) == str(expected.value)


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
    # classes that only str rules decide: a read field whose value starts
    # at byte 7, a skipped field with a non-ASCII tag, a tab-indented tag
    st.sampled_from(["MH\u00a0 - Term C1", "\u00e9H  - Term C1", "\tMH - Term D1"]),
)

other_lines = st.sampled_from(
    ["      C1", "      continued text", "      ", "junk", "MH-Term C1", "   indented",
     "\t", "\u00a0", " \t\u00a0", "", "\x1c", "Term \udcff",
     # whitespace to the seventh byte and past it, and six spaces before a
     # byte that is whitespace or not ASCII
     "       ", "      \t  ", "      \u00a0", "      \tC1", "      \u00e9t\u00e9"]
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


BLOCK_SIZES = [1, 2, 3, 7, 64, None]


@examples
@given(medline_files(), year_windows, st.sampled_from(BLOCK_SIZES))
def test_medline_matches_object_parser(tmp_path_factory, data, year_range, block):
    path = tmp_path_factory.mktemp("medline") / "m.txt"
    path.write_bytes(data)
    expected = ingest_medline_objects(str(path), VOCAB, year_range)
    with with_size("_BLOCK_BYTES", block):
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
    "crlf_last_line_unterminated": (
        b"PMID- 1\r\nDP  - 2000\r\nMH  - Term C1\r\n\r\n"
        b"PMID- 2\r\nDP  - 2001\r\nMH  - *Term D1/blood",
        [("1", 2000, ("C1",)), ("2", 2001, ("D1",))], {},
    ),
    "no_empty_line": (
        b"PMID- 1\nDP  - 2000\nMH  - Term C1\n \nPMID- 2\nDP  - 2001\nMH  - Term D1\n"
        b"\t\nPMID- 3\nDP  - 2002\nMH  - Term E1\n",
        [("1", 2000, ("C1",)), ("2", 2001, ("D1",)), ("3", 2002, ("E1",))], {},
    ),
    # the first four lines take 9 + 12 + 15 + 27 bytes, so the empty line's
    # CR is byte 63 and a 64-byte block ends between it and its LF
    "block_cut_between_cr_and_lf": (
        b"PMID- 1\r\nDP  - 2000\r\nMH  - Term C1\r\nAB  - nineteen bytes long\r\n\r\n"
        b"PMID- 2\r\nDP  - 2001\r\nMH  - Term D1\r\n",
        [("1", 2000, ("C1",)), ("2", 2001, ("D1",))], {},
    ),
    "utf8_byte_order_mark": (
        BOM + b"PMID- 1\nDP  - 2000\nMH  - Term C1\n\nPMID- 2\nDP  - 2001\nMH  - Term D1\n",
        [("1", 2000, ("C1",)), ("2", 2001, ("D1",))], {},
    ),
}


def check_fixture(path, name, block=None):
    data, rows, report_fields = MEDLINE_FIXTURES[name]
    path.write_bytes(data)
    with with_size("_BLOCK_BYTES", block):
        corpus, report = ingest_medline_text(str(path), VOCAB)
    assert [(p.id, p.year, p.mesh_ids) for p in corpus.publications] == rows
    expected = {"excluded_no_mesh": 0, "excluded_year": 0, "excluded_duplicate": 0,
                "skipped_malformed": 0, "unresolved_terms": []}
    expected.update(report_fields)
    assert report.to_json_dict() == expected


@pytest.mark.parametrize("name", sorted(MEDLINE_FIXTURES))
def test_medline_fixture(tmp_path, name):
    check_fixture(tmp_path / "m.txt", name)


@pytest.mark.parametrize("block", [1, 64])
@pytest.mark.parametrize("name", sorted(MEDLINE_FIXTURES))
def test_medline_fixture_in_small_blocks(tmp_path, name, block):
    check_fixture(tmp_path / "m.txt", name, block)


# ---------------------------------------------------------------------------
# Canonical writer
# ---------------------------------------------------------------------------

# text JSON must escape or that stresses the escaping: quotes, backslashes,
# control characters, DEL, line separators, non-ASCII and non-BMP characters
awkward_text = st.lists(
    st.sampled_from(['"', "\\", "/", "\x00", "\n", "\r", "\x1f", "\x7f", "\u2028",
                     "\u00e9", "\u00a0", "\U0001f600", "\U0010ffff"])
    | st.characters(),
    max_size=6,
).map("".join)


@st.composite
def awkward_corpora(draw):
    uids = draw(st.lists(awkward_text, min_size=1, max_size=8, unique=True))
    vocabulary = Vocabulary.from_descriptors([
        MeshDescriptor(id=uid, name=f"term {i}", tree_numbers=(TreeNumber("C01"),))
        for i, uid in enumerate(uids)
    ])
    columns = vocabulary.column_ids
    publications = [
        Publication(
            pub_id,
            draw(st.integers(-(2**63), 2**63 - 1)),
            tuple(sorted(draw(st.sets(st.sampled_from(columns), min_size=1)))),
        )
        for pub_id in draw(st.lists(awkward_text, max_size=12, unique=True))
    ]
    return Corpus.build("awkward", publications, vocabulary)


@examples
@given(awkward_corpora())
def test_writer_matches_encoder_and_round_trips(tmp_path_factory, corpus):
    data = corpus_canonical_bytes(corpus)
    assert data == b"".join(canonical_lines_encoder(corpus))
    path = tmp_path_factory.mktemp("writer") / "c.jsonl"
    write_corpus_jsonl(corpus, str(path))
    assert path.read_bytes() == data
    again, report = ingest_jsonl(str(path), corpus.vocabulary)
    assert again.pub_ids == corpus.pub_ids
    assert again.pub_years.tolist() == corpus.pub_years.tolist()
    assert again.incidence.indptr.tolist() == corpus.incidence.indptr.tolist()
    assert again.incidence.indices.tolist() == corpus.incidence.indices.tolist()
    assert report.summary() == IngestReport().summary()
    assert corpus_canonical_bytes(again) == data


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
