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

import json
import os
import sys
from collections import Counter

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from helixmi import cache, cli
from helixmi.corpus import Corpus, IngestReport
from helixmi.mesh import Vocabulary
from helixmi.synth import MODES


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


@pytest.fixture(scope="module")
def inputs(tmp_path_factory):
    """(corpus, mesh) paths: the four synth modes, a MEDLINE file and a
    JSONL file mixing canonical and other lines."""
    root = tmp_path_factory.mktemp("inputs")
    made = {}
    for mode in MODES:
        out = root / mode
        assert run(["synth", "--mode", mode, "--pubs", "60", "--years", "5",
                    "--seed", "11", "--out", out]) == 0
        made[mode] = (out / "corpus.jsonl", out / "mesh.tsv")
    source = root / "sizemix"
    vocabulary = cli.load_mesh_tsv(str(source / "mesh.tsv"))
    corpus, _ = cli.ingest_jsonl(str(source / "corpus.jsonl"), vocabulary)
    write_medline(corpus, root / "corpus.medline", root / "mesh.bin")
    made["medline"] = (root / "corpus.medline", root / "mesh.bin")
    write_mixed_jsonl(source, root / "mixed.jsonl")
    made["mixed-jsonl"] = (root / "mixed.jsonl", source / "mesh.tsv")
    return made


@pytest.mark.parametrize("kind", [*MODES, "medline", "mixed-jsonl"])
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
        assert set(stages) == set(misses[name][2]), name
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

    for name in ("load_mesh_tsv", "load_mesh_ascii", "ingest_jsonl", "ingest_medline_text"):
        monkeypatch.setattr(cli, name, refuse)
    for kind, args in commands.items():
        files, _, stages = run_one(args, tmp_path / kind / "hit")
        assert stages["cache"] == "hit"
        assert files == expected[kind]


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


@pytest.mark.parametrize("recent_ns", [cli._RECENT_NS, -cli._RECENT_NS])
def test_input_changed_during_the_parse_is_not_stored(inputs, tmp_path, cache_home,
                                                      monkeypatch, recent_ns):
    # the default treats the fresh copy as just written and hashes it again;
    # the negative bound trusts the stat alone, so the change keeps the size
    # only in the first case
    corpus, mesh = inputs["pairwise"]
    copied = tmp_path / "corpus.jsonl"
    copied.write_bytes(corpus.read_bytes())
    monkeypatch.setattr(cli, "_RECENT_NS", recent_ns)
    io = ["--corpus", copied, "--mesh", mesh]
    parse = cli.ingest_jsonl

    def parse_then_change(*args, **kwargs):
        parsed = parse(*args, **kwargs)
        data = copied.read_bytes()
        copied.write_bytes(data.replace(b"1", b"2") if recent_ns > 0 else data + b"\n")
        return parsed

    monkeypatch.setattr(cli, "ingest_jsonl", parse_then_change)
    assert run_one(["mi", *io], tmp_path / "a")[2]["cache"] == "off"
    assert not stored_entries(cache_home)
    monkeypatch.setattr(cli, "ingest_jsonl", parse)
    assert run_one(["mi", *io], tmp_path / "b")[2]["cache"] == "stored"


def test_another_interpreter_is_a_miss(inputs, tmp_path, cache_home, monkeypatch):
    # name normalization follows the interpreter's Unicode tables
    io = ["--corpus", inputs["xor"][0], "--mesh", inputs["xor"][1]]
    assert run_one(["mi", *io], tmp_path / "a")[2]["cache"] == "stored"
    monkeypatch.setattr(cache.sys, "version", sys.version + " (another build)")
    assert run_one(["mi", *io], tmp_path / "b")[2]["cache"] == "stored"


def damage_truncate(path):
    path.write_bytes(path.read_bytes()[: path.stat().st_size // 2])


def damage_indptr(path):
    with np.load(path) as npz:
        arrays = {name: npz[name] for name in npz.files}
    arrays["indptr"] = arrays["indptr"][:-1]
    with open(path, "wb") as fh:
        np.savez(fh, **arrays)


@pytest.mark.parametrize("damage", [damage_truncate, damage_indptr])
def test_damaged_entry_is_a_miss_and_rewritten(inputs, tmp_path, cache_home, damage):
    corpus, mesh = inputs["independent"]
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
        assert cache.store(key, tiny_vocab, corpus, report)
        path = cache_home / "helixmi" / f"{key}.npz"
        os.utime(path, (1000 + age, 1000 + age))
    # reading the oldest entry makes it the newest
    assert cache.load(keys[0], "t", {}) is not None
    stale = cache_home / "helixmi" / "dead.123.tmp"
    stale.write_bytes(b"partial")
    os.utime(stale, (1000, 1000))
    assert cache.store(keys[-2], tiny_vocab, corpus, report)
    assert cache.store(keys[-1], tiny_vocab, corpus, report)
    kept = {p.stem for p in stored_entries(cache_home)}
    assert kept == {keys[0], *keys[3:]}
    assert not stale.exists()


def test_no_damage_to_an_entry_raises(tiny_vocab, cache_home):
    corpus = Corpus.from_arrays("t", tiny_vocab, ["2", "1"], [2001, 2000],
                                [0, 2, 3], [0, 4, 1])
    report = IngestReport(excluded_year=3, unresolved_terms=Counter({"x": 2}))
    key = "0" * 64
    assert cache.store(key, tiny_vocab, corpus, report)
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
            assert loaded[1].pub_ids == corpus.pub_ids
            assert loaded[2] == report


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
    assert cache.store(key, vocabulary, corpus, report)
    again, rebuilt, report_again = cache.load(key, corpus.query_label, {})
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
