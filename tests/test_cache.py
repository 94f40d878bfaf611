"""The parsed-input cache: a hit writes the bytes of a miss, and any change
to the inputs, a damaged entry or an unusable directory means parsing.

Each command that reads a corpus looks for an entry keyed by the inputs'
digests, the year window, the Python and numpy versions and the package's
sources.
A miss parses and stores an entry; a hit rebuilds the vocabulary, the
corpus and the ingest report from it and calls no parser.  The outputs,
and every part of ``manifest.json`` but its stage times and timestamp,
must not depend on which of the two happened.
"""

import csv
import hashlib
import io as io_module
import json
import os
import subprocess
import sys
import time
from collections import Counter

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from helixmi import cache, cli
from helixmi import formats as formats_module
from helixmi import mesh as mesh_module
from helixmi.corpus import Corpus, IngestReport, corpus_canonical_bytes
from helixmi.mesh import Vocabulary
from helixmi.packed import take_strings
from helixmi.synth import MODES

from oracles import canonical_bytes_of, canonical_lines_encoder, ingest_jsonl_objects


def run(args):
    return cli.main([str(a) for a in args])


def battery(io):
    return {
        "ingest": ["ingest", *io],
        "stats": ["stats", *io],
        **{f"mi-{m}": ["mi", *io, "--map", m] for m in ("binary", "median", "full")},
        "null": ["null", *io, "--replicates", "20"],
        "scaling": ["scaling", *io, "--min-count", "1"],
        "dynamics": ["dynamics", *io, "--topk", "5"],
        "pairs": ["pairs", *io],
    }


def outputs(out):
    """Every output file's bytes, and the manifest without its times."""
    files = {p.name: p.read_bytes() for p in out.iterdir() if p.name != "manifest.json"}
    manifest = json.loads((out / "manifest.json").read_text())
    stages = manifest.pop("stages")
    manifest.pop("timestamp")
    return files, manifest, stages


def run_one(args, out):
    assert run([*args, "--out", out]) == 0, args
    return outputs(out)


def write_medline(corpus, path, mesh_path):
    """The corpus as MEDLINE text naming each descriptor, with one name no
    vocabulary holds, and its vocabulary as NLM ASCII with one record
    without tree numbers."""
    vocabulary = corpus.vocabulary
    indptr, indices = corpus.incidence
    lines = []
    for row, (pub_id, year) in enumerate(zip(corpus.pub_ids, corpus.pub_years.tolist())):
        lines += [f"PMID- {pub_id}", f"DP  - {year} Jan"]
        lines += [f"MH  - *{vocabulary.names[j]}/analysis"
                  for j in indices[indptr[row]:indptr[row + 1]].tolist()]
        if row % 7 == 0:
            lines.append("MH  - Not A Descriptor")
        lines.append("")
    path.write_text("\n".join(lines) + "\n", encoding="utf-8")
    records = ["*NEWRECORD\nRECTYPE = Q\nMH = analysis\nUI = Q000032\n"]
    bounds = vocabulary.tree_ptr.tolist()
    for j, (uid, name) in enumerate(zip(vocabulary.column_ids, vocabulary.names)):
        trees = "".join(f"MN = {t}\n" for t in vocabulary.tree_numbers[bounds[j]:bounds[j + 1]])
        records.append(f"*NEWRECORD\nMH = {name}\n{trees}UI = {uid}\n")
    mesh_path.write_text("\n".join(records), encoding="utf-8")


def write_mixed_jsonl(source, path):
    """The records of a canonical file, every other one written by
    ``json.dumps`` with its descriptors by name, and unresolved terms."""
    names = {}
    for line in (source / "mesh.tsv").read_text(encoding="utf-8").splitlines()[1:]:
        uid, name, _ = line.split("\t")
        names[uid] = name
    lines = []
    for i, line in enumerate((source / "corpus.jsonl").read_text(encoding="utf-8").splitlines()):
        if i % 2:
            record = json.loads(line)
            record["mesh"] = [names[t] for t in record["mesh"]] + ["no such term"]
            line = json.dumps(record)
        lines.append(line)
    path.write_text("\n".join(lines) + "\n", encoding="utf-8")


# ids that the packed column must keep: non-ASCII text, a lone surrogate,
# a quote, a backslash and control characters
AWKWARD_IDS = ["é", "\ud800", '"', "\\", "\x00\x1f", "\n", "日本", "\U0010ffff", "a b"]


def write_awkward_ids(source, path):
    """The records of a canonical file, last first, with awkward ids: each
    of ``AWKWARD_IDS``, then each again with the record's number."""
    lines = []
    for i, line in enumerate((source / "corpus.jsonl").read_text(encoding="utf-8").splitlines()):
        record = json.loads(line)
        k = len(AWKWARD_IDS)
        record["id"] = AWKWARD_IDS[i] if i < k else f"{AWKWARD_IDS[i % k]}{i}"
        lines.append(json.dumps(record))
    path.write_text("\n".join(lines[::-1]) + "\n", encoding="utf-8")


@pytest.fixture(scope="module")
def inputs(tmp_path_factory):
    """(corpus, mesh) paths: the four synth modes, a MEDLINE file, a JSONL
    file mixing canonical and other lines and one of awkward ids."""
    root = tmp_path_factory.mktemp("inputs")
    made = {}
    for mode in MODES:
        out = root / mode
        assert run(["synth", "--mode", mode, "--pubs", "60", "--years", "5",
                    "--seed", "11", "--out", out]) == 0
        made[mode] = (out / "corpus.jsonl", out / "mesh.tsv")
    source = root / "sizemix"
    vocabulary = formats_module.load_mesh_tsv(str(source / "mesh.tsv"))
    corpus, _ = formats_module.ingest_jsonl(str(source / "corpus.jsonl"), vocabulary)
    write_medline(corpus, root / "corpus.medline", root / "mesh.bin")
    made["medline"] = (root / "corpus.medline", root / "mesh.bin")
    write_mixed_jsonl(source, root / "mixed.jsonl")
    made["mixed-jsonl"] = (root / "mixed.jsonl", source / "mesh.tsv")
    write_awkward_ids(source, root / "awkward.jsonl")
    made["awkward-ids"] = (root / "awkward.jsonl", source / "mesh.tsv")
    return made


@pytest.mark.parametrize("kind", [*MODES, "medline", "mixed-jsonl", "awkward-ids"])
def test_hit_writes_the_bytes_of_a_miss(inputs, kind, tmp_path, monkeypatch):
    corpus, mesh = inputs[kind]
    commands = battery(["--corpus", corpus, "--mesh", mesh])
    misses = {}
    for name, args in commands.items():
        # an empty cache for each command: every one parses and stores
        monkeypatch.setenv("XDG_CACHE_HOME", str(tmp_path / "cold" / name))
        misses[name] = run_one(args, tmp_path / "miss" / name)
    monkeypatch.setenv("XDG_CACHE_HOME", str(tmp_path / "warm"))
    run_one(commands["ingest"], tmp_path / "first")
    for name, args in commands.items():
        files, manifest, stages = run_one(args, tmp_path / "hit" / name)
        assert (files, manifest) == misses[name][:2], name
        assert stages["cache"] == "hit"
        assert misses[name][2]["cache"] == "stored"
        # only a run that parses records its peak after the vocabulary load
        assert set(stages) == set(misses[name][2]) - {"vocabulary_peak_rss_mb"}, name
    if kind == "mixed-jsonl":
        report = json.loads((tmp_path / "hit" / "ingest" / "ingest_report.json").read_text())
        assert report["unresolved_terms"] and stages["ingest_json_lines"] > 0
    if kind == "medline":
        assert manifest["diagnostics"]["ingest"]["unresolved_total"] > 0


def test_hit_calls_no_parser(inputs, tmp_path, monkeypatch):
    commands = {kind: ["mi", "--corpus", inputs[kind][0], "--mesh", inputs[kind][1]]
                for kind in ("xor", "medline")}
    expected = {kind: run_one(args, tmp_path / kind / "miss")[0]
                for kind, args in commands.items()}

    def refuse(*args, **kwargs):
        raise AssertionError("a parser ran on a cache hit")

    # the names where the command looks them up when it runs
    for name in ("load_mesh_tsv", "load_mesh_ascii", "ingest_jsonl", "ingest_medline_text"):
        monkeypatch.setattr(formats_module, name, refuse)
    for kind, args in commands.items():
        files, _, stages = run_one(args, tmp_path / kind / "hit")
        assert stages["cache"] == "hit"
        assert files == expected[kind]


def test_hit_decodes_no_id(inputs, tmp_path, monkeypatch):
    # only ``ingest`` and ``null`` write anything of the ids
    io = ["--corpus", inputs["awkward-ids"][0], "--mesh", inputs["awkward-ids"][1]]
    commands = {name: args for name, args in battery(io).items()
                if name not in ("ingest", "null")}
    expected = {name: run_one(args, tmp_path / "miss" / name)[:2]
                for name, args in commands.items()}

    def refuse(*args, **kwargs):
        raise AssertionError("a command decoded the ids")

    monkeypatch.setattr(Corpus, "decode_ids", refuse)
    for name, args in commands.items():
        files, manifest, stages = run_one(args, tmp_path / "hit" / name)
        assert stages["cache"] == "hit"
        assert (files, manifest) == expected[name], name


def test_commands_decode_only_the_vocabulary_strings_they_write(inputs, tmp_path, monkeypatch):
    # a hit holds the vocabulary packed, and so does a parse once it is done
    # with the term lookups
    io = ["--corpus", inputs["sizemix"][0], "--mesh", inputs["sizemix"][1]]
    commands = battery(io)
    vocabularies = {}
    decoded = []

    def decode(packed, rows):
        strings = take_strings(packed, rows)
        decoded.extend(strings)
        return strings

    monkeypatch.setattr(mesh_module, "take_strings", decode)
    for name in ("stats", "mi-full", "dynamics"):
        command = commands[name][0]

        def spy(inputs, *rest, handler=cli._COMMANDS[command], name=name):
            vocabularies[name] = inputs[0].vocabulary
            handler(inputs, *rest)

        monkeypatch.setitem(cli._COMMANDS, command, spy)
    for cache_state in ("stored", "hit"):
        for name in ("stats", "mi-full", "dynamics"):
            if cache_state == "stored":
                # an empty cache for each command: every one parses and stores
                monkeypatch.setenv("XDG_CACHE_HOME", str(tmp_path / "cold" / name))
            decoded.clear()
            files, _, stages = run_one(commands[name], tmp_path / cache_state / name)
            assert stages["cache"] == cache_state
            held = vocabularies[name].__dict__
            assert not {"column_ids", "names", "tree_numbers"} & set(held), (cache_state, name)
            if name == "dynamics":
                written = {cell for file in ("trajectories.csv", "entries.csv", "pairs.csv")
                           for row in csv.reader(io_module.StringIO(files[file].decode()))
                           for cell in row}
                assert decoded and set(decoded) <= written
            else:
                assert decoded == [], (cache_state, name)


def test_awkward_ids_round_trip(inputs, cache_home):
    corpus_path, mesh_path = map(str, inputs["awkward-ids"])
    vocabulary = formats_module.load_mesh_tsv(mesh_path)
    corpus, report = formats_module.ingest_jsonl(corpus_path, vocabulary)
    publications, _ = ingest_jsonl_objects(corpus_path, vocabulary)
    expected = tuple(p.id for p in publications)
    assert set(AWKWARD_IDS) <= set(expected)
    assert corpus.pub_ids == expected
    assert cache.store("e" * 64, corpus, report)
    loaded, _ = cache.load("e" * 64, "awkward", {})
    assert loaded.pub_ids == expected
    assert (corpus_canonical_bytes(loaded) == b"".join(canonical_lines_encoder(loaded))
            == canonical_bytes_of(publications))


def stored_entries(home):
    return sorted((home / "helixmi").glob("*.npz"))


def test_changed_inputs_and_years_are_misses(inputs, tmp_path, cache_home):
    corpus, mesh = inputs["pairwise"]
    copied = tmp_path / "corpus.jsonl"
    copied.write_bytes(corpus.read_bytes())
    io = ["--corpus", copied, "--mesh", mesh]
    assert run_one(["mi", *io], tmp_path / "a")[2]["cache"] == "stored"
    assert run_one(["mi", *io], tmp_path / "b")[2]["cache"] == "hit"
    # another year window
    years = ["--years", "2001:2003"]
    assert run_one(["mi", *io, *years], tmp_path / "c")[2]["cache"] == "stored"
    assert run_one(["mi", *io, *years], tmp_path / "d")[2]["cache"] == "hit"
    # new bytes at the same path: the first record dropped
    copied.write_bytes(corpus.read_bytes().split(b"\n", 1)[1])
    files, _, stages = run_one(["ingest", *io], tmp_path / "e")
    assert stages["cache"] == "stored"
    assert files["corpus.jsonl"] == copied.read_bytes()
    # another vocabulary: the same descriptors with one more
    other = tmp_path / "mesh.tsv"
    other.write_text(mesh.read_text(encoding="utf-8") + "Z999999\tExtra\tZ01.999\n",
                     encoding="utf-8")
    io = ["--corpus", copied, "--mesh", other]
    assert run_one(["ingest", *io], tmp_path / "f")[2]["cache"] == "stored"
    assert len(stored_entries(cache_home)) == 4


@pytest.mark.parametrize("recent_ns", [cache._RECENT_NS, -cache._RECENT_NS])
def test_input_changed_during_the_parse_is_not_stored(inputs, tmp_path, cache_home,
                                                      monkeypatch, recent_ns):
    # the default treats the fresh copy as just written and hashes it again;
    # the negative bound trusts the stat alone, so the change keeps the size
    # only in the first case
    corpus, mesh = inputs["pairwise"]
    copied = tmp_path / "corpus.jsonl"
    copied.write_bytes(corpus.read_bytes())
    monkeypatch.setattr(cache, "_RECENT_NS", recent_ns)
    io = ["--corpus", copied, "--mesh", mesh]
    parse = formats_module.ingest_jsonl

    def parse_then_change(*args, **kwargs):
        parsed = parse(*args, **kwargs)
        data = copied.read_bytes()
        copied.write_bytes(data.replace(b"1", b"2") if recent_ns > 0 else data + b"\n")
        return parsed

    monkeypatch.setattr(formats_module, "ingest_jsonl", parse_then_change)
    assert run_one(["mi", *io], tmp_path / "a")[2]["cache"] == "off"
    assert not stored_entries(cache_home)
    monkeypatch.setattr(formats_module, "ingest_jsonl", parse)
    assert run_one(["mi", *io], tmp_path / "b")[2]["cache"] == "stored"


def test_another_interpreter_is_a_miss(inputs, tmp_path, cache_home, monkeypatch):
    # name normalization follows the interpreter's Unicode tables
    io = ["--corpus", inputs["xor"][0], "--mesh", inputs["xor"][1]]
    assert run_one(["mi", *io], tmp_path / "a")[2]["cache"] == "stored"
    monkeypatch.setattr(cache.sys, "version", sys.version + " (another build)")
    assert run_one(["mi", *io], tmp_path / "b")[2]["cache"] == "stored"


def damage_truncate(path):
    path.write_bytes(path.read_bytes()[: path.stat().st_size // 2])


def damage_arrays(path, damage):
    with np.load(path) as npz:
        arrays = {name: npz[name] for name in npz.files}
    damage(arrays)
    with open(path, "wb") as fh:
        np.savez(fh, **arrays)


def damage_indptr(path):
    damage_arrays(path, lambda arrays: arrays.update(indptr=arrays["indptr"][:-1]))


def damage_id_offsets(path):
    # two ids' offsets swapped, so that one id ends before it starts
    def swap(arrays):
        arrays["pub_ids_offsets"][[1, 2]] = arrays["pub_ids_offsets"][[2, 1]]

    damage_arrays(path, swap)


def damage_id_within_a_character(path):
    # the id that starts with a character of several bytes starts a byte later
    def shift(arrays):
        offsets, data = arrays["pub_ids_offsets"], arrays["pub_ids"]
        row = int(np.flatnonzero(data[offsets[:-1]] >= 0xC0)[0])
        offsets[row] += 1

    damage_arrays(path, shift)


@pytest.mark.parametrize("damage", [damage_truncate, damage_indptr, damage_id_offsets,
                                    damage_id_within_a_character])
def test_damaged_entry_is_a_miss_and_rewritten(inputs, tmp_path, cache_home, damage):
    corpus, mesh = inputs["awkward-ids"]
    args = ["stats", "--corpus", corpus, "--mesh", mesh]
    expected = run_one(args, tmp_path / "first")
    (entry,) = stored_entries(cache_home)
    damage(entry)
    files, manifest, stages = run_one(args, tmp_path / "damaged")
    assert stages["cache"] == "stored"
    assert (files, manifest) == expected[:2]
    assert run_one(args, tmp_path / "again")[2]["cache"] == "hit"


def test_unusable_cache_directory_changes_nothing(inputs, tmp_path, monkeypatch):
    corpus, mesh = inputs["xor"]
    args = ["dynamics", "--corpus", corpus, "--mesh", mesh, "--topk", "5"]
    expected = run_one(args, tmp_path / "usable")
    blocker = tmp_path / "not-a-directory"
    blocker.write_text("")
    monkeypatch.setenv("XDG_CACHE_HOME", str(blocker))
    for attempt in ("once", "twice"):
        files, manifest, stages = run_one(args, tmp_path / attempt)
        assert stages["cache"] == "off"
        assert (files, manifest) == expected[:2]


def test_unreadable_input_is_reported_as_without_a_cache(tmp_path, capsys, cache_home):
    # the vocabulary is parsed, and rejected, before the missing corpus is read
    mesh = tmp_path / "mesh.tsv"
    mesh.write_text("id\tname\n", encoding="utf-8")
    assert run(["mi", "--corpus", tmp_path / "missing.jsonl", "--mesh", mesh,
                "--out", tmp_path / "out"]) == 2
    assert "expected header" in capsys.readouterr().err
    assert not (cache_home / "helixmi").exists()


def test_relative_cache_home_falls_back_to_the_home_cache(monkeypatch, tmp_path):
    monkeypatch.setenv("HOME", str(tmp_path))
    for value in ("", "relative/dir"):
        monkeypatch.setenv("XDG_CACHE_HOME", value)
        assert cache.cache_dir() == tmp_path / ".cache" / "helixmi"
    monkeypatch.setenv("XDG_CACHE_HOME", str(tmp_path / "x"))
    assert cache.cache_dir() == tmp_path / "x" / "helixmi"


def test_least_recently_used_entries_go_first(tiny_vocab, cache_home):
    corpus = Corpus.from_arrays("t", tiny_vocab, ["1"], [2000], [0, 1], [0])
    report = IngestReport()
    keys = [f"{i:064x}" for i in range(cache.CAPACITY + 2)]
    for age, key in enumerate(keys[:cache.CAPACITY]):
        assert cache.store(key, corpus, report)
        path = cache_home / "helixmi" / f"{key}.npz"
        os.utime(path, (1000 + age, 1000 + age))
    # reading the oldest entry makes it the newest
    assert cache.load(keys[0], "t", {}) is not None
    stale = cache_home / "helixmi" / "dead.123.tmp"
    stale.write_bytes(b"partial")
    os.utime(stale, (1000, 1000))
    assert cache.store(keys[-2], corpus, report)
    assert cache.store(keys[-1], corpus, report)
    kept = {p.stem for p in stored_entries(cache_home)}
    assert kept == {keys[0], *keys[3:]}
    assert not stale.exists()


def test_no_damage_to_an_entry_raises(tiny_vocab, cache_home):
    corpus = Corpus.from_arrays("t", tiny_vocab, ["2", "1"], [2001, 2000],
                                [0, 2, 3], [0, 4, 1])
    report = IngestReport(excluded_year=3, unresolved_terms=Counter({"x": 2}))
    key = "0" * 64
    assert cache.store(key, corpus, report)
    path = cache_home / "helixmi" / f"{key}.npz"
    data = path.read_bytes()
    rng = np.random.default_rng(5)
    damaged = [data[:size] for size in range(0, len(data), 97)]
    for at in rng.integers(0, len(data), size=300).tolist():
        flipped = bytearray(data)
        flipped[at] ^= 1 + int(rng.integers(0, 255))
        damaged.append(bytes(flipped))
    for blob in damaged:
        path.write_bytes(blob)
        loaded = cache.load(key, "t", {})
        if loaded is not None:
            assert loaded[0].pub_ids == corpus.pub_ids
            assert loaded[1] == report


# text that stresses the string packing: NUL, lone surrogates, line
# separators and characters outside the BMP
text = st.lists(
    st.sampled_from(["\x00", "\ud800", "\udfff", "\n", " ", "é", "\U0010ffff", ""])
    | st.characters(),
    max_size=5,
).map("".join)
tree_numbers = st.lists(
    st.builds("{}{:02d}{}".format, st.sampled_from("CDEZA"), st.integers(0, 99),
              st.sampled_from(["", ".1", ".2.3", ".10"])),
    min_size=1, max_size=3,
)


@st.composite
def parsed_inputs(draw):
    ids = draw(st.lists(text, min_size=1, max_size=8, unique=True))
    trees = [draw(tree_numbers) for _ in ids]
    vocabulary = Vocabulary.from_columns(
        ids, [f"{i}:{draw(text)}" for i in range(len(ids))],
        [len(t) for t in trees], [c for t in trees for c in t],
        skipped_no_tree=draw(st.integers(0, 5)),
    )
    pub_ids = draw(st.lists(text, max_size=10, unique=True))
    rows = [sorted(draw(st.sets(st.integers(0, len(ids) - 1), min_size=1))) for _ in pub_ids]
    indptr = np.cumsum([0, *map(len, rows)])
    corpus = Corpus.from_arrays(
        draw(text), vocabulary, pub_ids,
        [draw(st.integers(-(2**63), 2**63 - 1)) for _ in pub_ids],
        indptr, [c for row in rows for c in row],
    )
    counts = draw(st.lists(st.integers(0, 2**62), min_size=6, max_size=6))
    report = IngestReport(*counts[:4], Counter(draw(st.dictionaries(text, st.integers(1, 99)))),
                          *counts[4:])
    return vocabulary, corpus, report


# every example overwrites the one entry, so the directory may be shared
@settings(max_examples=60, deadline=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(parsed_inputs())
def test_hit_rebuilds_the_parsed_arrays(cache_home, parsed):
    vocabulary, corpus, report = parsed
    key = "f" * 64
    assert cache.store(key, corpus, report)
    rebuilt, report_again = cache.load(key, corpus.query_label, {})
    again = rebuilt.vocabulary
    for name in ("column_ids", "names", "tree_numbers", "load_report"):
        assert getattr(again, name) == getattr(vocabulary, name), name
    assert again.tree_ptr.tolist() == vocabulary.tree_ptr.tolist()
    assert again.primary_branches == vocabulary.primary_branches
    assert again.membership_matrix.tolist() == vocabulary.membership_matrix.tolist()
    assert again.name_index == vocabulary.name_index
    assert rebuilt.pub_ids == corpus.pub_ids
    assert rebuilt.pub_years.tolist() == corpus.pub_years.tolist()
    assert rebuilt.incidence.indptr.tolist() == corpus.incidence.indptr.tolist()
    assert rebuilt.incidence.indices.tolist() == corpus.incidence.indices.tolist()
    assert rebuilt.by_year == corpus.by_year
    assert rebuilt.query_label == corpus.query_label
    assert report_again == report
    assert list(report_again.unresolved_terms) == list(report.unresolved_terms)


def test_entry_arrays_keep_their_layout(cache_home):
    # an entry's arrays, in order, with their dtypes and bytes: the vocabulary
    # columns are stored packed as they are held, in the layout of the
    # entries written when a vocabulary held them decoded
    vocabulary = Vocabulary.from_columns(["D2", "C1"], ["Café", "Heart"], [1, 2],
                                         ["D02.300", "C04.1", "E05.22"], skipped_no_tree=3)
    corpus = Corpus.from_arrays("q", vocabulary, ["p2", "é"], [2001, 2000], [0, 1, 3],
                                [1, 0, 1])
    report = IngestReport(1, 2, 3, 4, Counter({"Kidney": 2}), 5, 6)
    assert cache.store("a" * 64, corpus, report)
    i64, i32, u8 = np.int64, np.int32, np.uint8
    expected = [
        ("ids_offsets", i64, [0, 2, 4]), ("ids", u8, b"C1D2"),
        ("names_offsets", i64, [0, 5, 10]), ("names", u8, "HeartCafé".encode()),
        ("trees_offsets", i64, [0, 5, 11, 18]), ("trees", u8, b"C04.1E05.22D02.300"),
        ("unresolved_offsets", i64, [0, 6]), ("unresolved", u8, b"Kidney"),
        ("pub_ids_offsets", i64, [0, 2, 4]), ("pub_ids", u8, "ép2".encode()),
        ("tree_ptr", i64, [0, 2, 3]), ("load_report", i64, [2, 3]),
        ("pub_years", i64, [2000, 2001]), ("indptr", i64, [0, 2, 3]),
        ("indices", i32, [0, 1, 1]), ("unresolved_counts", i64, [2]),
        ("report", i64, [1, 2, 3, 4, 5, 6]),
    ]
    (entry,) = stored_entries(cache_home)
    with np.load(entry) as npz:
        assert npz.files == [name for name, _, _ in expected]
        for name, dtype, values in expected:
            array = npz[name]
            assert (array.dtype, array.ndim) == (dtype, 1), name
            assert array.tobytes() == np.array(bytearray(values) if dtype == u8 else values,
                                               dtype=dtype).tobytes(), name


# The digest index: a row (device, inode, size, mtime_ns, ctime_ns, sha256)
# per input, read instead of the file when its stat matches.  Most tests
# trust the stat alone (a negative recent bound), so that files the test
# has just written are indexed.

def index_rows(home):
    path = home / "helixmi" / "digests.txt"
    return path.read_text(encoding="ascii").splitlines() if path.exists() else []


@pytest.fixture
def trust_the_stat(monkeypatch):
    monkeypatch.setattr(cache, "_RECENT_NS", -cache._RECENT_NS)


@pytest.mark.parametrize("kind", ["xor", "medline"])
def test_indexed_digests_are_the_hashed_ones(inputs, kind, tmp_path, trust_the_stat):
    corpus, mesh = inputs[kind]
    args = ["mi", "--corpus", corpus, "--mesh", mesh]
    hashed = run_one(args, tmp_path / "hashed")
    indexed = run_one(args, tmp_path / "indexed")
    assert (hashed[2]["digests"], indexed[2]["digests"]) == ("hashed", "index")
    assert indexed[:2] == hashed[:2]
    assert [i["sha256"] for i in indexed[1]["inputs"]] == [
        hashlib.sha256(path.read_bytes()).hexdigest() for path in (mesh, corpus)]


def test_rewrite_with_the_old_mtime_is_hashed_again(inputs, tmp_path, cache_home,
                                                    trust_the_stat):
    corpus, mesh = inputs["pairwise"]
    copied = tmp_path / "corpus.jsonl"
    copied.write_bytes(corpus.read_bytes())
    io = ["--corpus", copied, "--mesh", mesh]
    old = run_one(["ingest", *io], tmp_path / "a")[0]
    assert run_one(["ingest", *io], tmp_path / "b")[2]["digests"] == "index"
    # the same size and mtime, other bytes: only the ctime tells
    before = copied.stat()
    data = copied.read_bytes().replace(b'"year":2001', b'"year":2002')
    copied.write_bytes(data)
    os.utime(copied, ns=(before.st_atime_ns, before.st_mtime_ns))
    after = copied.stat()
    assert (after.st_size, after.st_mtime_ns) == (before.st_size, before.st_mtime_ns)
    files, manifest, stages = run_one(["ingest", *io], tmp_path / "c")
    assert (stages["digests"], stages["cache"]) == ("hashed", "stored")
    assert manifest["inputs"][1]["sha256"] == hashlib.sha256(data).hexdigest()
    assert files["corpus.jsonl"] != old["corpus.jsonl"]


def test_recent_file_is_never_served_from_the_index(inputs, tmp_path, cache_home,
                                                    monkeypatch):
    # every input of the test was changed within the hour
    monkeypatch.setattr(cache, "_RECENT_NS", 3600 * 10**9)
    io = ["--corpus", inputs["xor"][0], "--mesh", inputs["xor"][1]]
    for attempt in ("once", "twice"):
        assert run_one(["mi", *io], tmp_path / attempt)[2]["digests"] == "hashed"
    assert index_rows(cache_home) == []


@pytest.mark.parametrize("damage", ["not-ascii", "truncated-row", "directory"])
def test_damaged_or_unwritable_index_is_an_empty_one(inputs, tmp_path, cache_home,
                                                     trust_the_stat, damage):
    io = ["--corpus", inputs["sizemix"][0], "--mesh", inputs["sizemix"][1]]
    expected = run_one(["stats", *io], tmp_path / "first")
    index = cache_home / "helixmi" / "digests.txt"
    if damage == "not-ascii":
        index.write_bytes(b"\xff" + index.read_bytes())
    elif damage == "truncated-row":
        index.write_bytes(index.read_bytes()[:-9])
    else:
        index.unlink()
        index.mkdir()
    files, manifest, stages = run_one(["stats", *io], tmp_path / "damaged")
    assert (files, manifest) == expected[:2]
    assert (stages["digests"], stages["cache"]) == ("hashed", "hit")
    # a damaged index is rewritten whole; an unwritable one stays unused
    again = run_one(["stats", *io], tmp_path / "again")[2]["digests"]
    assert again == ("hashed" if damage == "directory" else "index")
    assert not list((cache_home / "helixmi").glob("*.tmp"))


def test_index_is_replaced_whole_and_keeps_the_rows_used_last(tmp_path, cache_home,
                                                              trust_the_stat):
    files = [tmp_path / f"input-{i}" for i in range(cache.INDEX_ROWS + 3)]
    for i, path in enumerate(files):
        path.write_bytes(b"bytes %d" % i)

    def digests(path):
        return cache.input_digests([path], cache.input_stats([path]), time.time_ns())

    index = cache_home / "helixmi" / "digests.txt"
    for path in files[:cache.INDEX_ROWS]:
        assert digests(path) == ([hashlib.sha256(path.read_bytes()).hexdigest()], False)
    with open(index, encoding="ascii") as reader:
        # the first input, used again, becomes the row used last
        assert digests(files[0])[1]
        for path in files[cache.INDEX_ROWS:]:
            digests(path)
        # an open reader still reads the index it opened, whole
        assert len(reader.read().splitlines()) == cache.INDEX_ROWS
    # the three rows used longest ago went, in the order used
    kept = [*files[4:cache.INDEX_ROWS], files[0], *files[cache.INDEX_ROWS:]]
    assert [int(row.split()[1]) for row in index_rows(cache_home)] == [
        path.stat().st_ino for path in kept]


def test_concurrent_writers_never_leave_a_torn_index(tmp_path, cache_home):
    # more writers than cores, each cycling through inputs of its own, so
    # that every call rewrites the index; a reader must only ever see whole
    # rows, at most INDEX_ROWS of them
    writers = max(3, (os.cpu_count() or 1) + 1)
    files = [tmp_path / f"input-{i}" for i in range(writers * 8)]
    for i, path in enumerate(files):
        path.write_bytes(b"bytes %d" % i)
    src = os.path.dirname(os.path.dirname(os.path.abspath(cache.__file__)))
    code = ("import sys, time; from helixmi import cache; "
            "cache._RECENT_NS = -cache._RECENT_NS\n"
            "for _ in range(25):\n"
            "    for path in sys.argv[1:]:\n"
            "        cache.input_digests([path], cache.input_stats([path]), time.time_ns())\n")
    procs = [subprocess.Popen([sys.executable, "-c", code, *map(str, files[w::writers])],
                              env=dict(os.environ, PYTHONPATH=src), stderr=subprocess.PIPE)
             for w in range(writers)]
    index = cache_home / "helixmi" / "digests.txt"
    reads = 0
    try:
        deadline = time.monotonic() + 120
        while any(p.poll() is None for p in procs) and time.monotonic() < deadline:
            try:
                text = index.read_text(encoding="ascii")
            except FileNotFoundError:
                continue
            rows = text.splitlines()
            assert text.endswith("\n") and 0 < len(rows) <= cache.INDEX_ROWS
            assert all(cache._INDEX_ROW.fullmatch(row) for row in rows), text
            reads += 1
    finally:
        for p in procs:
            if p.poll() is None:  # past the deadline
                p.kill()
            _, err = p.communicate(timeout=30)
            assert p.returncode == 0, err
    assert reads > 0
    assert not list((cache_home / "helixmi").glob("*.tmp"))
