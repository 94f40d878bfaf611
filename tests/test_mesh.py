import codecs
import os
import pickle
import subprocess
import sys
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from helixmi import formats as formats_module
from helixmi import mesh as mesh_module
from helixmi.mesh import (
    LoadReport,
    MeshDescriptor,
    MeshFormatError,
    TreeNumber,
    Vocabulary,
    load_mesh_ascii,
    load_mesh_tsv,
    normalize_name,
    write_mesh_tsv,
)

from oracles import TermLookups, load_mesh_ascii_lines


def test_tree_number_fields():
    t = TreeNumber("A08.186.211")
    assert t.branch == "A"
    assert t.depth == 3


def test_tree_number_single_segment():
    t = TreeNumber("A08")
    assert t.branch == "A"
    assert t.depth == 1


@pytest.mark.parametrize("raw", ["", "O05.1", "808.1", "u01"])
def test_tree_number_rejects_bad_branch(raw):
    with pytest.raises(MeshFormatError):
        TreeNumber(raw)


@given(
    st.sampled_from(sorted("ABCDEFGHIJKLMNVZ")),
    st.lists(st.integers(0, 999), min_size=0, max_size=6),
)
def test_branch_is_first_letter_and_depth_counts_segments(branch, tail):
    raw = branch + "01" + "".join(f".{seg:03d}" for seg in tail)
    t = TreeNumber(raw)
    assert t.branch == raw[0]
    assert t.depth == 1 + raw.count(".")


class TestPrimaryBranch:
    def test_single_branch(self):
        d = MeshDescriptor("X", "x", (TreeNumber("C04.1"),))
        assert d.primary_branch == "C"

    def test_shallowest_wins(self):
        # E tree is deeper than the C tree, so C is the primary home
        d = MeshDescriptor("X", "x", (TreeNumber("E05.1.2"), TreeNumber("C04.9")))
        assert d.primary_branch == "C"

    def test_equal_depth_breaks_alphabetically(self):
        d = MeshDescriptor("X", "x", (TreeNumber("E05.1"), TreeNumber("D02.9")))
        assert d.primary_branch == "D"

    def test_stable_under_tree_order(self):
        trees = [TreeNumber("E05.1"), TreeNumber("C04.9.8"), TreeNumber("D02.2")]
        a = MeshDescriptor("X", "x", tuple(trees))
        b = MeshDescriptor("X", "x", tuple(reversed(trees)))
        assert a.primary_branch == b.primary_branch


# codes with ties in depth, repeats, more than eight bytes and characters
# outside ASCII, whose UTF-8 bytes must order as their code points do
packed_codes = st.builds(
    "{}{}".format,
    st.sampled_from(sorted("ABCDEFGHIJKLMNVZ")),
    st.text(alphabet="019.éࠀ\U0001f600", max_size=12),
)


@st.composite
def descriptor_specs(draw):
    """(id, name, codes) of descriptors in no order, with names outside ASCII."""
    ids = draw(st.lists(st.text(min_size=1, max_size=6), min_size=1, max_size=12, unique=True))
    return [(uid, f"{i}:{draw(st.text(max_size=6))}",
             draw(st.lists(packed_codes, min_size=1, max_size=5)))
            for i, uid in enumerate(ids)]


@settings(max_examples=300, deadline=None)
@given(descriptor_specs())
def test_packed_branches_match_the_descriptors(specs):
    built = Vocabulary.from_columns([uid for uid, _, _ in specs], [name for _, name, _ in specs],
                                    [len(codes) for _, _, codes in specs],
                                    [c for _, _, codes in specs for c in codes])
    # the packed columns alone, as a cache hit holds them
    vocab = Vocabulary(built.packed_ids, built.packed_names, built.tree_ptr, built.packed_trees,
                       built.load_report)
    expected = sorted((MeshDescriptor(uid, name, tuple(map(TreeNumber, codes)))
                       for uid, name, codes in specs), key=lambda d: d.id)
    assert vocab.primary_branches == tuple(d.primary_branch for d in expected)
    assert vocab.membership_matrix.tolist() == [[int(alpha in d.branches) for alpha in "CDE"]
                                                for d in expected]
    # the columns decode to what they were given
    assert vocab.column_ids == tuple(d.id for d in expected)
    assert vocab.names == tuple(d.name for d in expected)
    assert vocab.tree_numbers == tuple(t.raw for d in expected for t in d.tree_numbers)
    columns = list(range(len(expected)))[::-1]
    assert vocab.ids_at(columns) == [expected[j].id for j in columns]
    assert vocab.names_at(columns) == [expected[j].name for j in columns]


def test_same_branch_duplicate_collapses():
    d = MeshDescriptor("X", "x", (TreeNumber("C04.557"), TreeNumber("C20.683")))
    assert d.branches == {"C"}
    assert len(d.tree_numbers) == 2


ASCII_SAMPLE = """\
*NEWRECORD
RECTYPE = D
MH = Brain
MN = A08.186.211
UI = D001921

*NEWRECORD
RECTYPE = Q
MH = analysis
UI = Q000032

*NEWRECORD
MH = Dual Homed
MN = C04.557
MN = E05.200
UI = D999999
"""


def test_load_mesh_ascii(tmp_path):
    path = tmp_path / "d2014.bin"
    path.write_text(ASCII_SAMPLE, encoding="utf-8")
    vocab = load_mesh_ascii(str(path))
    assert len(vocab) == 2
    brain = vocab.descriptors["D001921"]
    assert brain.name == "Brain"
    assert brain.branches == {"A"}
    assert brain.tree_numbers[0].depth == 3
    dual = vocab.descriptors["D999999"]
    assert dual.branches == {"C", "E"}
    assert vocab.load_report.loaded == 2
    assert vocab.load_report.skipped_no_tree == 1


def test_load_mesh_ascii_empty_file(tmp_path):
    path = tmp_path / "empty.bin"
    path.write_text("", encoding="utf-8")
    vocab = load_mesh_ascii(str(path))
    assert len(vocab) == 0
    assert vocab.load_report.loaded == 0


def test_load_mesh_ascii_missing_mh_reports_offset(tmp_path):
    good = "*NEWRECORD\nMH = Brain\nMN = A08.186.211\nUI = D001921\n"
    bad = "*NEWRECORD\nMN = C04.1\nUI = D000001\n"
    path = tmp_path / "bad.bin"
    path.write_text(good + bad, encoding="utf-8")
    with pytest.raises(MeshFormatError) as err:
        load_mesh_ascii(str(path))
    assert f"byte {len(good)}" in str(err.value)
    assert "MH" in str(err.value)


def test_load_mesh_tsv(tmp_path):
    path = tmp_path / "mesh.tsv"
    path.write_text(
        "id\tname\ttree_numbers\n"
        "D009333\tNervous System\tA08\n"
        "T1\tDual\tC04.1;E05.2\n",
        encoding="utf-8",
    )
    vocab = load_mesh_tsv(str(path))
    ns = vocab.descriptors["D009333"]
    assert ns.branches == {"A"}
    assert ns.tree_numbers[0].depth == 1
    assert vocab.descriptors["T1"].branches == {"C", "E"}


def test_load_mesh_tsv_wrong_column_count(tmp_path):
    path = tmp_path / "mesh.tsv"
    path.write_text("id\tname\ttree_numbers\nx\ty\n", encoding="utf-8")
    with pytest.raises(MeshFormatError) as err:
        load_mesh_tsv(str(path))
    assert "line 2" in str(err.value)


@pytest.mark.parametrize("later", [b"x\ty\n", b"X2\tCaf\xe9\tC01\n"])
def test_load_mesh_tsv_reports_an_invalid_tree_number_first(tmp_path, later):
    # the byte that is not UTF-8 lies in a later decode chunk than line 2
    path = tmp_path / "mesh.tsv"
    path.write_bytes(b"id\tname\ttree_numbers\nX1\tBad\tX01\n"
                     + b"".join(b"F%05d\tFill %05d\tA01\n" % (i, i) for i in range(500))
                     + later)
    with pytest.raises(MeshFormatError, match="X01"):
        load_mesh_tsv(str(path))


TSV_BODIES = {
    "unsorted": b"C3\tGamma\tC01;D02\nA1\talpha\tA01\nB2\tBeta \tE03\nD4\tD\xc3\xa9\tC02\n",
    "duplicate id": b"A1\tOne\tC01\nB2\tTwo\tC02\nC3\tThree\tC03\nA1\tFour\tC04\n",
    "duplicate name": b"A1\tSame\tC01\nB2\tTwo\tC02\nC3\tsame \tC03\n",
    # the later invalid tree number is reported, not the earlier duplicate
    "later tree number": b"A1\tOne\tC01\nA1\tTwo\tC02\nC3\tThree\tC03\nD4\tFour\tX04\n",
    "later column count": b"A1\tOne\tC01\nB2\tTwo\tC02\nC3\tThree\n",
}


@pytest.mark.parametrize("body", sorted(TSV_BODIES))
def test_tsv_loader_packs_descriptors_in_batches(tmp_path, body, monkeypatch):
    path = tmp_path / "mesh.tsv"
    path.write_bytes(b"id\tname\ttree_numbers\n" + TSV_BODIES[body])
    results = []
    for batch in (1, 2, 3, formats_module._DESCRIPTOR_BATCH):
        monkeypatch.setattr(formats_module, "_DESCRIPTOR_BATCH", batch)
        try:
            vocab = load_mesh_tsv(str(path))
        except MeshFormatError as exc:
            results.append(str(exc))
        else:
            results.append((vocab.column_ids, vocab.names, vocab.tree_numbers,
                            vocab.tree_ptr.tolist(), vocab.term_columns(["beta", "A1"]).tolist()))
    assert results[1:] == results[:-1], results
    if body == "unsorted":
        assert results[0][0] == ("A1", "B2", "C3", "D4")
        assert results[0][2] == ("A01", "E03", "C01", "D02", "C02")
        assert results[0][4] == [1, 0]
    elif body == "later tree number":
        assert "X04" in results[0]


def test_duplicate_names_rejected():
    descriptors = [
        MeshDescriptor("A1", "Same Name", (TreeNumber("C04.1"),)),
        MeshDescriptor("A2", "same name ", (TreeNumber("D02.1"),)),
    ]
    with pytest.raises(MeshFormatError, match="duplicate"):
        Vocabulary.from_descriptors(descriptors)


def test_resolve_by_id_and_name(tiny_vocab):
    assert tiny_vocab.resolve("C1") == "C1"
    assert tiny_vocab.resolve("term c1") == "C1"
    assert tiny_vocab.resolve("  TERM C1 ") == "C1"
    assert tiny_vocab.resolve("unknown") is None


# text whose normalized forms collide: casefold expansions (ß and SS),
# outer whitespace, and lone surrogates, which UTF-8 passes through
lookup_text = st.text(alphabet=st.sampled_from(["a", "A", "ß", "S", "s", " ", "\t", "é", "É",
                                                "\ud800", "\udfff", "1"]),
                      min_size=1, max_size=4)


@st.composite
def lookup_cases(draw):
    """(ids, names, tokens): distinct ids, names distinct once normalized,
    and tokens among them, their variants and strings of neither."""
    ids = draw(st.lists(lookup_text, max_size=8, unique=True))
    names = draw(st.lists(lookup_text, min_size=len(ids), max_size=len(ids),
                          unique_by=normalize_name))
    variants = [f(t) for t in ids + names
                for f in (str.upper, str.lower, str.strip, " {} ".format, str.casefold)]
    known = ids + names + variants
    tokens = draw(st.lists((st.sampled_from(known) | lookup_text) if known else lookup_text,
                           max_size=12))
    return ids, names, tokens


@pytest.mark.parametrize("hash_function", [hash, lambda text: hash(text) % 3],
                         ids=["hash", "three-valued"])
@settings(max_examples=300, deadline=None)
@given(lookup_cases())
def test_lookups_match_dicts(hash_function, case):
    ids, names, tokens = case
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(mesh_module, "_hash", hash_function)
        built = Vocabulary.from_columns(ids, names, [1] * len(ids), ["C01"] * len(ids))
        # the packed columns alone, as a cache hit holds them, build their
        # tables on the first lookup
        read = Vocabulary(built.packed_ids, built.packed_names, built.tree_ptr,
                          built.packed_trees, built.load_report)
        for vocab in (built, read):
            reference = TermLookups(vocab)
            expected = [reference.term_column(t) for t in tokens]
            assert vocab.term_columns(tokens).tolist() == [-1 if j is None else j
                                                           for j in expected]
            assert [vocab.column(t) for t in tokens] == [reference.column(t) for t in tokens]
            assert [vocab.resolve(t) for t in tokens] == [reference.resolve(t) for t in tokens]
            assert not {"column_ids", "names"} & set(vocab.__dict__)


def test_an_id_wins_over_another_descriptors_name():
    vocab = Vocabulary.from_columns(["X1", "Y2"], ["y2", "x1 "], [1, 1], ["C01", "D01"])
    assert vocab.term_columns(["X1", "x1", "Y2", " Y2", "y2", "Z"]).tolist() == [0, 1, 1, 0, 0, -1]
    assert [vocab.resolve(t) for t in ("X1", "x1", "Y2", " Y2")] == ["X1", "Y2", "Y2", "X1"]


@pytest.mark.parametrize("hash_function", [hash, lambda text: 0], ids=["hash", "one-valued"])
def test_duplicates_are_found_whatever_the_hash(hash_function, monkeypatch):
    monkeypatch.setattr(mesh_module, "_hash", hash_function)
    cases = {
        "duplicate descriptor name 'SS ' (ids 'B' and 'A')": (["B", "C", "A"], ["ß", "x", "SS "]),
        "duplicate descriptor id 'A'": (["A", "B", "A"], ["x", "y", "x"]),
        "duplicate descriptor name 'x' (ids 'A' and 'B')": (["A", "B", "B"], ["x", "x", "y"]),
    }
    for message, (ids, names) in cases.items():
        with pytest.raises(MeshFormatError) as raised:
            Vocabulary.from_columns(ids, names, [1] * len(ids), ["C01"] * len(ids))
        assert str(raised.value) == message
    vocab = Vocabulary.from_columns(["B", "A", "C"], ["ß", "s", "t"], [1, 1, 1],
                                    ["C01", "D01", "E01"])
    assert vocab.term_columns(["SS", "s", "ss ", "B"]).tolist() == [1, 0, 1, 1]


def test_a_pickled_vocabulary_looks_terms_up_under_another_hash_seed(tmp_path, tiny_vocab):
    # the hash tables hold this process's salted string hashes, so a pickle
    # leaves them out and the vocabulary that reads it rebuilds them
    tokens = ["C1", "term c1", "  TERM D2 ", "Z1", "unknown"]
    expected = tiny_vocab.term_columns(tokens).tolist()
    assert {"_id_table", "_name_table"} <= set(tiny_vocab.__dict__)
    path = tmp_path / "vocab.pickle"
    path.write_bytes(pickle.dumps(tiny_vocab))
    assert not {"_id_table", "_name_table"} & set(pickle.loads(path.read_bytes()).__dict__)
    src = str(Path(mesh_module.__file__).parent.parent)
    script = ("import pickle, sys; vocab = pickle.load(open(sys.argv[1], 'rb')); "
              f"print(vocab.term_columns({tokens!r}).tolist())")
    # at most one of the seeds is this process's
    for seed in ("1", "2"):
        done = subprocess.run([sys.executable, "-c", script, str(path)], capture_output=True,
                              text=True, timeout=60,
                              env=dict(os.environ, PYTHONPATH=src, PYTHONHASHSEED=seed))
        assert done.returncode == 0, done.stderr
        assert done.stdout.strip() == str(expected)


def test_tsv_round_trip(tmp_path, tiny_vocab):
    first = tmp_path / "first.tsv"
    second = tmp_path / "second.tsv"
    write_mesh_tsv(tiny_vocab, str(first))
    reloaded = load_mesh_tsv(str(first))
    write_mesh_tsv(reloaded, str(second))
    assert first.read_bytes() == second.read_bytes()
    assert set(reloaded.descriptors) == set(tiny_vocab.descriptors)
    for uid, d in tiny_vocab.descriptors.items():
        other = reloaded.descriptors[uid]
        assert other.name == d.name
        assert [t.raw for t in other.tree_numbers] == [t.raw for t in d.tree_numbers]


def test_tsv_loader_skips_a_byte_order_mark(tmp_path, tiny_vocab):
    plain = tmp_path / "plain.tsv"
    write_mesh_tsv(tiny_vocab, str(plain))
    marked = tmp_path / "marked.tsv"
    marked.write_bytes(codecs.BOM_UTF8 + plain.read_bytes())
    vocab = load_mesh_tsv(str(marked))
    assert vocab.column_ids == tiny_vocab.column_ids
    assert vocab.names == tiny_vocab.names
    assert vocab.tree_numbers == tiny_vocab.tree_numbers
    # one mark only, as for the other formats
    marked.write_bytes(2 * codecs.BOM_UTF8 + plain.read_bytes())
    with pytest.raises(MeshFormatError, match="expected header"):
        load_mesh_tsv(str(marked))


def test_ascii_and_tsv_agree(tmp_path):
    ascii_path = tmp_path / "d.bin"
    ascii_path.write_text(ASCII_SAMPLE, encoding="utf-8")
    from_ascii = load_mesh_ascii(str(ascii_path))
    tsv_path = tmp_path / "d.tsv"
    write_mesh_tsv(from_ascii, str(tsv_path))
    from_tsv = load_mesh_tsv(str(tsv_path))
    assert set(from_tsv.descriptors) == set(from_ascii.descriptors)
    assert TermLookups(from_tsv).name_index() == TermLookups(from_ascii).name_index()


# ---------------------------------------------------------------------------
# The NLM ASCII loader reads a block of lines at a time
# ---------------------------------------------------------------------------

# field lines and others: values with outer spaces, non-ASCII and latin-1
# text, keys that are not quite a field's, invalid and empty tree numbers
ascii_lines = st.sampled_from([
    "*NEWRECORD", "*NEWRECORD ", " *NEWRECORD", "*NEWRECORDS",
    "MH = Brain", "MH =  Heart  ", "MH = Café", "MH = ", "MH =", "MH  = Lung",
    "MN = A08.186", "MN = C04.557", "MN =  E05.200 ", "MN = X01", "MN = ",
    "UI = D001", "UI = D002", "UI =  D003 ", "UI = Dé", "UI = ",
    "RECTYPE = D", "ENTRY = Brain|T023", "MS = A note = with equals", "", "   ",
    "xMH = Brain", "M", "MH = N\u00a0B\u00a0", "MH = \u00a0Liver\u2003",
]).map(lambda line: line.encode("utf-8")) | st.sampled_from([
    # latin-1 text, whose 0x85 and 0xA0 are whitespace that strip() drops
    b"MH = Caf\xe9", b"UI = D\xe9", b"MN = C\xff", b"ENTRY = \xff\xfe", b"MH = \xa0Lung\x85",
])

ENDINGS = {"LF": b"\n", "CRLF": b"\r\n", "CR": b"\r"}


@st.composite
def ascii_files(draw):
    """NLM ASCII text: records of drawn lines, each opening with a
    ``*NEWRECORD`` line but perhaps the first, one line ending throughout
    or a mix, and the last line with or without its line end."""
    lines = []
    for _ in range(draw(st.integers(0, 6))):
        if lines or draw(st.booleans()):
            lines.append(b"*NEWRECORD")
        lines += draw(st.lists(ascii_lines, max_size=7))
    ending = draw(st.sampled_from(sorted(ENDINGS) + ["mixed"]))
    ends = [ENDINGS[ending] if ending != "mixed" else draw(st.sampled_from(list(ENDINGS.values())))
            for _ in lines]
    if lines and draw(st.booleans()):
        ends[-1] = b""
    return b"".join(line + end for line, end in zip(lines, ends))


def assert_same_vocabulary(path):
    """``load_mesh_ascii`` gives the line-by-line loader's vocabulary, or
    raises its error with the same message (and so the same byte offset)."""
    try:
        expected = load_mesh_ascii_lines(str(path))
    except MeshFormatError as exc:
        with pytest.raises(MeshFormatError) as raised:
            load_mesh_ascii(str(path))
        assert str(raised.value) == str(exc)
        return
    vocab = load_mesh_ascii(str(path))
    assert vocab.column_ids == expected.column_ids
    assert vocab.names == expected.names
    assert vocab.tree_numbers == expected.tree_numbers
    assert vocab.tree_ptr.tolist() == expected.tree_ptr.tolist()
    assert vocab.load_report == expected.load_report
    assert TermLookups(vocab).name_index() == TermLookups(expected).name_index()


@settings(max_examples=200, deadline=None)
@given(ascii_files(), st.sampled_from([1, 5, 16, None]), st.sampled_from([1, 2, None]))
def test_ascii_loader_matches_the_line_loader(tmp_path_factory, data, block, batch):
    path = tmp_path_factory.mktemp("ascii") / "d.bin"
    path.write_bytes(data)
    with pytest.MonkeyPatch.context() as patch:
        if block is not None:
            # blocks smaller than a line grow until they hold one
            patch.setattr(formats_module, "_LINE_BLOCK_BYTES", block)
        if batch is not None:
            # descriptors packed a few at a time, errors of later ones after
            # earlier ones are packed
            patch.setattr(formats_module, "_DESCRIPTOR_BATCH", batch)
        assert_same_vocabulary(path)


ASCII_RECORDS = (b"*NEWRECORD", b"MH = Brain", b"MN = A08.186.211", b"UI = D001921", b"",
                 b"*NEWRECORD", b"RECTYPE = Q", b"MH = analysis", b"UI = Q000032", b"",
                 b"*NEWRECORD", b"MH = Dual Homed", b"MN = C04.557", b"MN = E05.200",
                 b"UI = D999999")


@pytest.mark.parametrize("ending", sorted(ENDINGS))
@pytest.mark.parametrize("last_end", [True, False])
def test_ascii_loader_line_ends(tmp_path, ending, last_end):
    data = ENDINGS[ending].join(ASCII_RECORDS) + (ENDINGS[ending] if last_end else b"")
    path = tmp_path / "d.bin"
    path.write_bytes(data)
    assert_same_vocabulary(path)
    vocab = load_mesh_ascii(str(path))
    assert vocab.column_ids == ("D001921", "D999999")
    assert vocab.tree_numbers == ("A08.186.211", "C04.557", "E05.200")
    assert vocab.load_report == LoadReport(loaded=2, skipped_no_tree=1)


def test_ascii_loader_reads_a_latin1_line(tmp_path):
    path = tmp_path / "d.bin"
    path.write_bytes(b"*NEWRECORD\nMH = Caf\xe9 Au Lait\nMN = C01\nUI = D1\n"
                     b"*NEWRECORD\nMH = Caf\xc3\xa9\nMN = C02\nUI = D2\n")
    assert_same_vocabulary(path)
    assert load_mesh_ascii(str(path)).names == ("Café Au Lait", "Café")


@pytest.mark.parametrize("ending", sorted(ENDINGS))
@pytest.mark.parametrize("missing", [b"MH = Heart", b"UI = D000002"])
def test_ascii_loader_malformed_record_offset(tmp_path, ending, missing):
    end = ENDINGS[ending]
    good = end.join([b"*NEWRECORD", b"MH = Brain", b"MN = A08.186.211", b"UI = D001921", b""])
    bad = end.join(line for line in [b"*NEWRECORD", b"MH = Heart", b"MN = C14.280",
                                     b"UI = D000002"] if line != missing)
    path = tmp_path / "bad.bin"
    path.write_bytes(good + end + bad)
    assert_same_vocabulary(path)
    with pytest.raises(MeshFormatError) as err:
        load_mesh_ascii(str(path))
    field = missing[:2].decode()
    assert str(err.value) == (f"{path}: malformed record at byte {len(good + end)}: "
                              f"missing '{field} =' field")


def test_ascii_loader_skips_a_byte_order_mark(tmp_path):
    first = b"*NEWRECORD\nMH = Brain\nMN = A08\nUI = D1\n"
    body = first + b"*NEWRECORD\nMN = C04\nUI = D2\n"
    plain = tmp_path / "plain.bin"
    plain.write_bytes(body)
    marked = tmp_path / "marked.bin"
    marked.write_bytes(codecs.BOM_UTF8 + body)
    # the offsets stay those of the file's bytes, the mark's included
    for path, start in ((plain, 0), (marked, 3)):
        with pytest.raises(MeshFormatError, match=f"at byte {start + len(first)}: missing 'MH ='"):
            load_mesh_ascii(str(path))
    body = body.replace(b"MN = C04\n", b"MH = Heart\nMN = C04\n")
    plain.write_bytes(body)
    marked.write_bytes(codecs.BOM_UTF8 + body)
    assert load_mesh_ascii(str(marked)).column_ids == load_mesh_ascii(str(plain)).column_ids
