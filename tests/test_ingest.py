"""The array parsers against the object parsers they replaced.

``ingest_jsonl`` parses the file in blocks cut after line ends, its
canonical lines with array operations and the rest with ``json.loads``,
and ``ingest_medline_text`` parses the file in blocks cut after empty
lines; ``oracles.ingest_jsonl_objects`` and
``oracles.ingest_medline_objects`` build one ``Publication`` per record
and apply the rules to those.  Generated inputs must give equal rows,
equal reports and equal canonical bytes, or the same error message,
with and without a year window, at any block size.  Named JSONL lines
and MEDLINE fixtures pin the parsers' edge cases.  The canonical writer
must give the bytes of ``json.JSONEncoder``
(``oracles.canonical_lines_encoder``) for any id text and year, and its
output must ingest back to the same corpus.
"""

import gc
import json
import tracemalloc
from contextlib import contextmanager

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from helixmi import corpus as corpus_module
from helixmi import formats as formats_module
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
        "D000076222": ["D27.100"],
        "LONGDESCRIPTOR0001": ["E01.100"],
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
    """``helixmi.formats.<name>`` (a block size) set to ``size`` inside the
    block; None keeps the default."""
    with pytest.MonkeyPatch.context() as mp:
        if size is not None:
            mp.setattr(formats_module, name, size)
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

# ids, names in any case and spacing, terms of more than 8 and more than
# 16 bytes, unknown terms, text JSON escapes or that is not ASCII, and
# non-string values
jsonl_terms = st.sampled_from(
    ["C1", "C2", "D1", "E1", "CE1", "Z1", "Term C1", "term d1", "  TERM E1 ", "Term CE1",
     "c1", "No Such Term", "", "C9", "D000076222", "term d000076222", "LONGDESCRIPTOR0001",
     "Term LONGDESCRIPTOR0001", "An Unknown Term Of Many Bytes", "Caf\u00e9", 'Quote " C1',
     "Back\\slash", "Tab\tC1", 7, None, 2.5]
)

jsonl_records = st.fixed_dictionaries(
    {
        # a small id pool, so duplicates whose first copy is excluded occur,
        # in the same block or another one
        "id": st.sampled_from(["1", "2", "3", "10", "a", "D000076222", 4]),
        "year": st.integers(1997, 2003) | st.sampled_from(["2000", 2001.0]),
        "mesh": st.lists(jsonl_terms, max_size=5),
    }
)

# the year of a canonical line: ints the template path reads, and tokens it
# leaves to json.loads (a leading zero, 19 digits, a lone "-", a fraction)
ODD_YEARS = (
    ["0", "-0", "-7", "01", "-01", "-", "2000.0", "2e3", "999999999999999999",
     "-999999999999999999", "1000000000000000000", "9223372036854775807",
     "9999999999999999999", "-9223372036854775808"])
odd_years = st.sampled_from(ODD_YEARS)


@st.composite
def canonical_lines(draw):
    """A record as the canonical writer lays it out, with or without
    non-ASCII text left unescaped, sometimes with an odd year token."""
    record = draw(jsonl_records)
    line = json.dumps(record, sort_keys=True, separators=(",", ":"),
                      ensure_ascii=draw(st.booleans()))
    if isinstance(record["year"], int) and not draw(st.integers(0, 5)):
        line = line.rpartition('"year":')[0] + '"year":' + draw(odd_years) + "}"
    return line


blank_lines = st.sampled_from(["", " ", "\t", "  \t ", "\u00a0", "\x0c"])

# lines that are not canonical: most are a canonical line with a byte
# changed, which json.loads or the record rules refuse, some only add
# whitespace, and one is not UTF-8
OFF_TEMPLATE_LINES = [line.encode("utf-8") for line in [
    "{oops", "[1, 2]", '"text"', '{"id": "1", "year": 2000}',
    '{"id": "1", "year": 2000, "mesh": "C1"}', '{"id": "1", "year": "about", "mesh": []}',
    '{"id": "1", "year": null, "mesh": []}', '{"id":"1","mesh":["C1"],"year":2000',
    '{"id":"1","mesh":["C1"],"year":2000}}', '{"id":"1","mesh":["C1"]"year":2000}',
    '{"id":"1","mesh":["C1",],"year":2000}', '{"id":"1","mesh":["C1""D1"],"year":2000}',
    '{"id":"1","mesh":["C1";"D1"],"year":2000}', '{"id":"1","mesh":["C1"] ,"year":2000}',
    '{"id":"1" ,"mesh":[],"year":2000}', '{"id":"1","mesh":[],"year":2000 }',
    '{"id":"1","mesh":[],"year";2000}', '{"id":"1","mesh":[],"yeaR":2000}',
    '{"id":"1","mesh":[,"C1"],"year":2000}', '{"id":"1","mesh":["C1"],"year":2000]',
    '{"id":"1","mash":["C1"],"year":2000}', '{"id":"1","mesh":{"C1"],"year":2000}',
    '{"ID":"1","mesh":["C1"],"year":2000}', ' {"id":"1","mesh":["C1"],"year":2000}',
]] + [b'{"id":"1","mesh":["Caf\xe9"],"year":2000}']
off_template_lines = st.sampled_from(OFF_TEMPLATE_LINES)


@st.composite
def jsonl_files(draw):
    lines = draw(st.lists(
        jsonl_records.map(json.dumps) | canonical_lines() | blank_lines, max_size=25))
    lines = [line.encode("utf-8") for line in lines]
    if draw(st.integers(0, 5)) == 0:
        lines.insert(draw(st.integers(0, len(lines))), draw(off_template_lines))
    endings = st.sampled_from([b"\n", b"\r\n", b"\r"])
    data = b"".join(line + draw(endings) for line in lines)
    if lines and draw(st.booleans()):
        data = data.rstrip(b"\r\n")
    return BOM + data if draw(st.booleans()) else data


# bytes per block: smaller than one line (so a block grows), a few lines,
# and the default
BLOCK_SIZES = [1, 2, 3, 7, 64, None]


def assert_same_outcome(path, year_range=None):
    """``ingest_jsonl`` gives the object parser's corpus and report, or
    raises its error with the same message."""
    try:
        expected = ingest_jsonl_objects(str(path), VOCAB, year_range)
    except CorpusFormatError as exc:
        with pytest.raises(CorpusFormatError) as raised:
            ingest_jsonl(str(path), VOCAB, year_range)
        assert str(raised.value) == str(exc)
        return
    assert_same_ingest(*ingest_jsonl(str(path), VOCAB, year_range), *expected)


@examples
@given(jsonl_files(), year_windows, st.sampled_from(BLOCK_SIZES))
def test_jsonl_matches_object_parser(tmp_path_factory, data, year_range, block):
    path = tmp_path_factory.mktemp("jsonl") / "c.jsonl"
    path.write_bytes(data)
    with with_size("_LINE_BLOCK_BYTES", block):
        assert_same_outcome(path, year_range)


@pytest.mark.parametrize("block", [1, 3])
def test_jsonl_rules_span_batches(tmp_path, block):
    # "1" is first excluded for its year, then admitted, then a duplicate;
    # the unresolved terms of excluded records land in other blocks
    records = [
        {"id": "1", "year": 1990, "mesh": ["C1", "Nowhere"]},
        {"id": "2", "year": 2000, "mesh": ["Nowhere"]},
        {"id": "1", "year": 2000, "mesh": ["D1"]},
        {"id": "3", "year": 2001, "mesh": ["E1", "Nowhere"]},
        {"id": "1", "year": 2001, "mesh": ["E1", "Elsewhere"]},
    ]
    path = tmp_path / "c.jsonl"
    path.write_text("".join(json.dumps(r) + "\n" for r in records), encoding="utf-8")
    with with_size("_LINE_BLOCK_BYTES", block):
        corpus, report = ingest_jsonl(str(path), VOCAB, (1995, 2005))
    assert [(p.id, p.year, p.mesh_ids) for p in corpus.publications] == [
        ("1", 2000, ("D1",)), ("3", 2001, ("E1",))]
    assert report.to_json_dict() == {
        "excluded_no_mesh": 1, "excluded_year": 1, "excluded_duplicate": 1,
        "skipped_malformed": 0,
        "unresolved_terms": [{"name": "Nowhere", "count": 3},
                             {"name": "Elsewhere", "count": 1}],
    }


def test_jsonl_lines_take_the_template_path_or_json(tmp_path):
    records = [
        {"id": "1", "year": 2000, "mesh": ["C1", "Term D000076222"]},
        {"id": "2", "year": -0, "mesh": []},
        {"id": "3", "year": 2001, "mesh": ["Term LONGDESCRIPTOR0001", "Nowhere"]},
    ]
    canonical = [json.dumps(r, sort_keys=True, separators=(",", ":")) for r in records]
    path = tmp_path / "c.jsonl"
    path.write_text("\n".join(canonical) + "\n", encoding="utf-8")
    corpus, report = ingest_jsonl(str(path), VOCAB)
    assert (report.template_lines, report.json_lines) == (3, 0)
    assert [(p.id, p.year, p.mesh_ids) for p in corpus.publications] == [
        ("1", 2000, ("C1", "D000076222")), ("3", 2001, ("LONGDESCRIPTOR0001",))]
    # other separators, an escape, a CRLF and a year with a leading zero
    # all go to json.loads, which must give the same records
    path.write_text(
        "\n".join(json.dumps(r) for r in records[:2]) + "\r\n"
        + canonical[2].replace("Nowhere", "Nowh\\u0065re") + "\n  \n", encoding="utf-8")
    again, report = ingest_jsonl(str(path), VOCAB)
    assert (report.template_lines, report.json_lines) == (0, 3)
    assert corpus_canonical_bytes(again) == corpus_canonical_bytes(corpus)
    path.write_text(canonical[0] + "\n" + canonical[2].replace("2001", "02001") + "\n",
                    encoding="utf-8")
    with pytest.raises(CorpusFormatError, match="line 2: Expecting ',' delimiter"):
        ingest_jsonl(str(path), VOCAB)


@pytest.mark.parametrize("year", ODD_YEARS)
def test_jsonl_canonical_line_years_match_object_parser(tmp_path, year):
    path = tmp_path / "c.jsonl"
    path.write_text('{"id":"1","mesh":["C1"],"year":2000}\n'
                    f'{{"id":"2","mesh":["D1"],"year":{year}}}\n', encoding="utf-8")
    assert_same_outcome(path)


@pytest.mark.parametrize("ending", [b"", b"\n", b"\r", b"\r\n"])
def test_jsonl_error_message_sees_the_line_end(tmp_path, ending):
    # json.loads reports the position after trailing whitespace, so a line
    # keeps its line end, as one LF, when it has one
    path = tmp_path / "c.jsonl"
    path.write_bytes(b'{"id":"1","mesh":["C1"],"year":2000}\n{"id":"2","mesh":["C1"]' + ending)
    with pytest.raises(CorpusFormatError) as raised:
        ingest_jsonl(str(path), VOCAB)
    with pytest.raises(CorpusFormatError) as expected:
        ingest_jsonl_objects(str(path), VOCAB)
    assert str(raised.value) == str(expected.value)
    assert ("line 2 column 1" in str(raised.value)) == bool(ending)


@pytest.mark.parametrize("line", OFF_TEMPLATE_LINES)
def test_jsonl_off_template_line_matches_object_parser(tmp_path, line):
    path = tmp_path / "c.jsonl"
    path.write_bytes(b'{"id":"1","mesh":["C1"],"year":2000}\n' + line + b"\n")
    assert_same_outcome(path)


def test_jsonl_line_numbers_with_crlf_cut_by_any_block(tmp_path):
    # some block size ends a buffer between the CR and the LF of a line end,
    # which must not count as two line ends
    path = tmp_path / "c.jsonl"
    path.write_bytes(b'{"id":"1","mesh":["C1"],"year":2000}\r\n' * 3 + b"\r\n{oops\r\n")
    for block in range(1, 48):
        with with_size("_LINE_BLOCK_BYTES", block):
            with pytest.raises(CorpusFormatError, match="line 5: Expecting"):
                ingest_jsonl(str(path), VOCAB)


def test_jsonl_many_distinct_terms_match_object_parser(tmp_path):
    # hundreds of new terms in one block collide in the term table and make
    # it grow; ids of seven bytes, names of more than eight and unknowns
    vocab = make_vocab({f"D{i:06d}": ["D01.100"] for i in range(400)})
    rng = np.random.default_rng(5)
    terms = ([f"D{i:06d}" for i in range(400)] + [f"term d{i:06d}" for i in range(400)]
             + [f"U{i:06d}" for i in range(100)])
    records = [{"id": str(i), "year": 2000 + i % 3,
                "mesh": [terms[j] for j in rng.choice(len(terms), 12, replace=False)]}
               for i in range(300)]
    path = tmp_path / "c.jsonl"
    path.write_text("".join(json.dumps(r, sort_keys=True, separators=(",", ":")) + "\n"
                            for r in records), encoding="utf-8")
    corpus, report = ingest_jsonl(str(path), vocab)
    assert report.template_lines == 300
    publications, expected = ingest_jsonl_objects(str(path), vocab)
    assert [(p.id, p.year, p.mesh_ids) for p in corpus.publications] == [
        (p.id, p.year, p.mesh_ids) for p in publications]
    assert report.to_json_dict() == expected.to_json_dict()


def test_jsonl_first_bad_line_wins_whatever_its_error(tmp_path):
    path = tmp_path / "c.jsonl"
    good = b'{"id":"1","mesh":["C1"],"year":2000}\n'
    path.write_bytes(good * 3 + b"{oops\n" + good + b'{"id":"2","mesh":["Caf\xe9"],"year":1}\n')
    with pytest.raises(CorpusFormatError, match=r"line 4: Expecting"):
        ingest_jsonl(str(path), VOCAB)
    path.write_bytes(good + b'{"id":"2","mesh":["Caf\xe9"],"year":1}\n' + b"{oops\n")
    with pytest.raises(CorpusFormatError, match=r"line 2: not UTF-8 text \(.*position 22"):
        ingest_jsonl(str(path), VOCAB)


def test_jsonl_nesting_too_deep_is_a_format_error(tmp_path):
    path = tmp_path / "c.jsonl"
    path.write_text('{"id": "1", "year": 2000, "mesh": ["C1"]}\n'
                    '{"id": "2", "year": 2000, "mesh": ' + "[" * 100_000 + "\n",
                    encoding="utf-8")
    with pytest.raises(CorpusFormatError, match="line 2: maximum recursion depth") as raised:
        ingest_jsonl(str(path), VOCAB)
    with pytest.raises(CorpusFormatError) as expected:
        ingest_jsonl_objects(str(path), VOCAB)
    assert str(raised.value) == str(expected.value)


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


@examples
@given(medline_files(), year_windows, st.sampled_from(BLOCK_SIZES))
def test_medline_matches_object_parser(tmp_path_factory, data, year_range, block):
    path = tmp_path_factory.mktemp("medline") / "m.txt"
    path.write_bytes(data)
    expected = ingest_medline_objects(str(path), VOCAB, year_range)
    with with_size("_MEDLINE_BLOCK_BYTES", block):
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
    with with_size("_MEDLINE_BLOCK_BYTES", block):
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
# Packed ids: the duplicate rule and the row order on the packed column
# ---------------------------------------------------------------------------

# ids that differ in their first eight bytes, in a later chunk or only in
# their length, ids with NUL bytes after a prefix, and ids that are not
# ASCII; a small pool, so that most ids repeat
PACKED_IDS = ["1", "10", "2", "9", "a", "a\x00", "a\x00\x00", "\x00", "12345678",
              "123456789", "12345678\x00", "1234567", "PMID00000001", "PMID00000001x",
              "PMID000000010", "\u00e9", "e\u0301", "\u00e9\u00e9\u00e9\u00e9\u00e9",
              "\U0001f600", "\uffff"]

# the terms of a record: none (no mesh), unresolved only, or some that resolve
packed_terms = st.lists(st.sampled_from(["C1", "D1", "Term E1", "No Such Term"]), max_size=3)

packed_records = st.lists(
    # years in no order, so that rows come out of (year, id) order
    st.tuples(st.sampled_from(PACKED_IDS), st.integers(1998, 2002), packed_terms),
    max_size=30,
)


@examples
@given(packed_records, st.sampled_from(PACKED_IDS + ["\ud800", "\udfff", "\ud800\udc00"]),
       year_windows, st.sampled_from(BLOCK_SIZES), st.booleans())
def test_jsonl_packed_ids_match_object_parser(tmp_path_factory, records, surrogate,
                                              year_range, block, canonical):
    """JSONL ids of every kind, lone surrogates (``\\ud800``) among them,
    repeated with their first record excluded for its year or for having
    no descriptor and a later one admitted, in rows out of order."""
    records = [(surrogate if i % 5 == 4 else pub_id, year, terms)
               for i, (pub_id, year, terms) in enumerate(records)]
    dump = (lambda r: json.dumps(r, sort_keys=True, separators=(",", ":"))) if canonical \
        else json.dumps
    data = "".join(dump({"id": pub_id, "year": year, "mesh": terms}) + "\n"
                   for pub_id, year, terms in records)
    path = tmp_path_factory.mktemp("packed") / "c.jsonl"
    path.write_bytes(data.encode("ascii"))
    with with_size("_LINE_BLOCK_BYTES", block):
        assert_same_outcome(path, year_range)


@examples
@given(packed_records, year_windows, st.sampled_from(BLOCK_SIZES),
       st.sampled_from(["\n", "\r\n", "\r"]))
def test_medline_packed_ids_match_object_parser(tmp_path_factory, records, year_range, block,
                                                ending):
    """MEDLINE ids of every kind, repeated with their first record excluded
    for its year or for having no descriptor and a later one admitted, in
    rows out of order."""
    text = ending.join(
        ending.join([f"PMID- {pub_id}", f"DP  - {year} Jan", *(f"MH  - {t}" for t in terms)])
        + ending
        for pub_id, year, terms in records
    )
    path = tmp_path_factory.mktemp("packed") / "m.txt"
    path.write_bytes(text.encode("utf-8"))
    expected = ingest_medline_objects(str(path), VOCAB, year_range)
    with with_size("_MEDLINE_BLOCK_BYTES", block):
        corpus, report = ingest_medline_text(str(path), VOCAB, year_range)
    assert_same_ingest(corpus, report, *expected)


def test_packed_ids_first_admitted_record_wins(tmp_path):
    # "7" is out of the window, then has no descriptor, then is admitted in
    # 2001, then repeats in 1999; "10" sorts before "7" and "7\x00" after
    path = tmp_path / "c.jsonl"
    path.write_text("".join(json.dumps(r) + "\n" for r in [
        {"id": "7", "year": 1990, "mesh": ["C1"]},
        {"id": "7", "year": 2000, "mesh": ["No Such Term"]},
        {"id": "7", "year": 2001, "mesh": ["D1"]},
        {"id": "7\u0000", "year": 2001, "mesh": ["C1"]},
        {"id": "10", "year": 2001, "mesh": ["E1"]},
        {"id": "7", "year": 1999, "mesh": ["C1"]},
    ]), encoding="ascii")
    corpus, report = ingest_jsonl(str(path), VOCAB, (1995, 2005))
    assert corpus.pub_ids == ("10", "7", "7\x00")
    assert corpus.pub_years.tolist() == [2001, 2001, 2001]
    assert [p.mesh_ids for p in corpus.publications] == [("E1",), ("D1",), ("C1",)]
    assert (report.excluded_year, report.excluded_no_mesh, report.excluded_duplicate) == (1, 1, 1)
    assert_same_outcome(path, (1995, 2005))


@examples
@given(st.lists(st.text(st.sampled_from("ab\x00\u00e9\ud800"), max_size=20), max_size=40))
def test_string_ranks_order_code_points(strings):
    # ties over eight bytes and more, in several groups at once, and one
    # group's last next chunk equal to the next group's first
    strings = strings + PACKED_IDS + ["\udfff", "\ud800\udc00", "", "", "\x00" * 9, "\x00" * 8,
                                      "b" * 17, "b" * 16 + "a", "b" * 16,
                                      "AAAAAAAAw", "AAAAAAAAx", "BBBBBBBBx", "BBBBBBBBz"]
    ranks = corpus_module.string_ranks(corpus_module.pack_strings(strings))
    assert ranks.tolist() == [sum(t < s for t in strings) for s in strings]


def test_string_ranks_of_tied_ids_hold_few_arrays():
    """72,000 ids ``S%08d``, which tie in groups of ten on their first
    eight bytes, rank at 2.7 MB of traced memory, about 4.9 int64 arrays
    of the ids, when each array is gathered into the tie order one at a
    time and the indices and ranks are int32.  Gathering three at once,
    in int64, peaked at 4.6 MB."""
    ids = [f"S{i:08d}" for i in np.random.default_rng(1).permutation(72_000)]
    packed = corpus_module.pack_strings(ids)
    corpus_module.string_ranks(corpus_module.pack_strings(ids[:100]))  # numpy's first-call setup
    tracemalloc.start()
    try:
        ranks = corpus_module.string_ranks(packed)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 3.5 * 2**20, f"{peak / 2**20:.2f} MB"
    assert (np.asarray(ids)[np.argsort(ranks)] == sorted(ids)).all()


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
    return Corpus.from_arrays("awkward", vocabulary, *csr_of(publications, vocabulary))


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
