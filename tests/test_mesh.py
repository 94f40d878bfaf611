import pytest
from hypothesis import given
from hypothesis import strategies as st

from helixmi.mesh import (
    MeshDescriptor,
    MeshFormatError,
    TreeNumber,
    Vocabulary,
    load_mesh_ascii,
    load_mesh_tsv,
    write_mesh_tsv,
)


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


def test_ascii_and_tsv_agree(tmp_path):
    ascii_path = tmp_path / "d.bin"
    ascii_path.write_text(ASCII_SAMPLE, encoding="utf-8")
    from_ascii = load_mesh_ascii(str(ascii_path))
    tsv_path = tmp_path / "d.tsv"
    write_mesh_tsv(from_ascii, str(tsv_path))
    from_tsv = load_mesh_tsv(str(tsv_path))
    assert set(from_tsv.descriptors) == set(from_ascii.descriptors)
    assert from_tsv.name_index == from_ascii.name_index
