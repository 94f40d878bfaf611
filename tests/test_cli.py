import codecs
import csv
import json
import os
import signal
import subprocess
import sys
import time
import weakref
from pathlib import Path
from types import SimpleNamespace

import pytest

import helixmi
from helixmi import cache, cli, infotheory, nullmodel
from helixmi import corpus as corpus_module
from helixmi import mesh as mesh_module
from helixmi.cli import main


def run(args):
    return main([str(a) for a in args])


@pytest.fixture(scope="module")
def synth_dir(tmp_path_factory):
    out = tmp_path_factory.mktemp("synth")
    code = run(
        ["synth", "--mode", "xor", "--pubs", "80", "--years", "4",
         "--seed", "7", "--out", out]
    )
    assert code == 0
    return out


def read_csv(path):
    with open(path, encoding="utf-8") as fh:
        return list(csv.DictReader(fh))


def test_usage_errors_exit_one(capsys):
    assert run([]) == 1
    assert run(["mi", "--bogus"]) == 1
    err = capsys.readouterr().err
    assert "usage" in err


def test_unknown_command_exits_one():
    assert run(["frobnicate", "--out", "/tmp/x"]) == 1


def test_data_errors_exit_two(tmp_path, capsys):
    code = run(
        ["mi", "--corpus", tmp_path / "missing.jsonl", "--mesh",
         tmp_path / "missing.tsv", "--out", tmp_path / "out"]
    )
    assert code == 2
    assert "error" in capsys.readouterr().err


def test_jsonl_integer_too_long_to_convert_exits_two(synth_dir, tmp_path, capsys):
    corpus = tmp_path / "long.jsonl"
    corpus.write_text('{"id": "1", "year": ' + "9" * 5000 + ', "mesh": []}\n',
                      encoding="utf-8")
    assert run(["ingest", "--corpus", corpus, "--mesh", synth_dir / "mesh.tsv",
                "--out", tmp_path / "out"]) == 2
    assert "line 1" in capsys.readouterr().err


def test_jsonl_nesting_too_deep_exits_two(synth_dir, tmp_path, capsys):
    corpus = tmp_path / "deep.jsonl"
    corpus.write_text('{"id": "1", "year": 2000, "mesh": ["C000000"]}\n'
                      '{"id": "2", "year": 2000, "mesh": ' + "[" * 100_000 + "\n",
                      encoding="utf-8")
    assert run(["ingest", "--corpus", corpus, "--mesh", synth_dir / "mesh.tsv",
                "--out", tmp_path / "out"]) == 2
    assert "line 2: maximum recursion depth" in capsys.readouterr().err


def test_unusable_data_exits_two(synth_dir, tmp_path, capsys):
    io = ["--corpus", synth_dir / "corpus.jsonl", "--mesh", synth_dir / "mesh.tsv"]
    # a year window without publications leaves no branch statistics
    assert run(["stats", *io, "--years", "1900:1901", "--out", tmp_path / "a"]) == 2
    assert "empty corpus" in capsys.readouterr().err
    assert run(["dynamics", *io, "--years", "2000:2000", "--out", tmp_path / "b"]) == 2
    assert "at least 2 years" in capsys.readouterr().err
    assert run(["scaling", *io, "--years", "2000:2001", "--out", tmp_path / "c"]) == 2
    assert "at least 3 years" in capsys.readouterr().err
    for command in ("mi", "null"):
        assert run([command, *io, "--years", "1900:1901", "--out", tmp_path / command]) == 2
        assert "empty corpus" in capsys.readouterr().err
        assert not (tmp_path / command).exists()
    # every year tags the same three descriptors, so every (M, V) point is one
    same = tmp_path / "same.jsonl"
    same.write_text("".join(
        json.dumps({"id": f"{year}-{i}", "year": year,
                    "mesh": ["C000000", "D000000", "E000000"]}) + "\n"
        for year in (2000, 2001, 2002) for i in range(3)
    ), encoding="utf-8")
    assert run(["scaling", "--corpus", same, "--mesh", synth_dir / "mesh.tsv",
                "--min-count", "1", "--out", tmp_path / "e"]) == 2
    assert "one x value" in capsys.readouterr().err
    latin = tmp_path / "latin.jsonl"
    latin.write_bytes(b'{"id": "1", "year": 2000, "mesh": ["Caf\xe9"]}\n')
    assert run(["mi", "--corpus", latin, "--mesh", synth_dir / "mesh.tsv",
                "--out", tmp_path / "d"]) == 2
    assert "line 1: not UTF-8" in capsys.readouterr().err
    latin_mesh = tmp_path / "latin.tsv"
    latin_mesh.write_bytes((synth_dir / "mesh.tsv").read_bytes() + b"X1\tCaf\xe9\tC01\n")
    assert run(["mi", "--corpus", synth_dir / "corpus.jsonl", "--mesh", latin_mesh,
                "--out", tmp_path / "f"]) == 2
    assert "latin.tsv: not UTF-8" in capsys.readouterr().err


def test_internal_value_error_is_a_traceback(synth_dir, tmp_path, monkeypatch):
    def broken(*args, **kwargs):
        raise ValueError("an internal fault")

    monkeypatch.setattr(infotheory, "yearly_mi", broken)
    with pytest.raises(ValueError, match="an internal fault"):
        run(["mi", "--corpus", synth_dir / "corpus.jsonl", "--mesh",
             synth_dir / "mesh.tsv", "--out", tmp_path])


def test_malformed_flag_values_exit_one(tmp_path):
    # every value is rejected before --out is made or c.jsonl opened
    out = tmp_path / "out"
    base = ["mi", "--corpus", "c.jsonl", "--mesh", "m.tsv", "--out", out]
    assert run(base + ["--years", "2000"]) == 1
    assert run(["synth", "--mode", "xor", "--pubs", "5", "--years", "two",
                "--out", out]) == 1
    io = ["--corpus", "c.jsonl", "--mesh", "m.tsv", "--out", out]
    assert run(["pairs", *io, "--limit", "-3"]) == 1
    assert run(["pairs", *io, "--limit", "0"]) == 1
    assert run(["dynamics", *io, "--topk", "-5"]) == 1
    assert run(["dynamics", *io, "--limit", "0"]) == 1
    assert run(["null", *io, "--ci", "1.5"]) == 1
    assert run(["null", *io, "--replicates", "1"]) == 1
    assert run(["synth", "--mode", "xor", "--pubs", "5", "--years", "2",
                "--rho", "2", "--out", out]) == 1
    assert run(["pairs", *io, "--branches", "D,D"]) == 1
    assert run(["pairs", *io, "--branches", "D,X"]) == 1
    assert run(["dynamics", *io, "--pair-branches", "E,E"]) == 1
    assert run(["null", *io, "--threads", "0"]) == 1
    assert run(["null", *io, "--threads", "-3"]) == 1
    # values numpy's generators would reject mid-run
    assert run(["null", *io, "--seed", "-1"]) == 1
    synth = ["synth", "--mode", "sizemix", "--pubs", "5", "--years", "2", "--out", out]
    for flag in (["--seed", "-1"], ["--lam=-1,1,1"], ["--lam=nan,1,1"], ["--lam=1,inf,1"],
                 ["--sigma", "nan"], ["--sigma", "inf"]):
        assert run(synth + flag) == 1, flag
    # an inverted LO:HI
    assert run(base + ["--years", "2005:2000"]) == 1
    assert run(["synth", "--mode", "xor", "--pubs", "5", "--years", "2005:2000",
                "--out", out]) == 1
    assert run(["dynamics", *io, "--window", "2004:2001"]) == 1
    assert run(["pairs", *io, "--window", "2004:2001"]) == 1
    assert not out.exists()


def test_synth_rate_too_large_is_a_usage_error(tmp_path, capsys):
    # numpy's Poisson sampler would raise on this rate mid-run
    assert run(["synth", "--mode", "independent", "--pubs", "5", "--years", "2",
                "--lam=1e30,1,1", "--out", tmp_path / "out"]) == 1
    assert "helixmi synth: error: rates must be at most 1000" in capsys.readouterr().err
    assert not (tmp_path / "out").exists()


def test_uncreatable_out_is_reported(synth_dir, tmp_path, capsys, cache_home):
    blocker = tmp_path / "file"
    blocker.write_text("")
    io = ["--corpus", synth_dir / "corpus.jsonl", "--mesh", synth_dir / "mesh.tsv"]
    for out in (blocker, blocker / "x"):
        for argv in (["mi", *io], ["synth", "--mode", "xor", "--pubs", "5", "--years", "2"]):
            assert run([*argv, "--out", out]) == 2, (argv[0], out)
            assert capsys.readouterr().err.startswith(f"helixmi {argv[0]}: error: ")
    # the inputs were not read
    assert not (cache_home / "helixmi").exists()


def test_a_data_error_removes_only_an_out_it_made(tmp_path, capsys):
    io = ["--corpus", tmp_path / "missing.jsonl", "--mesh", tmp_path / "missing.tsv"]
    made = tmp_path / "out"
    assert run(["mi", *io, "--out", made]) == 2
    assert "helixmi mi: error: " in capsys.readouterr().err
    assert not made.exists()
    existing = tmp_path / "existing"
    existing.mkdir()
    assert run(["mi", *io, "--out", existing]) == 2
    assert existing.is_dir()


def test_synth_outputs(synth_dir):
    assert (synth_dir / "corpus.jsonl").exists()
    assert (synth_dir / "mesh.tsv").exists()
    manifest = json.loads((synth_dir / "manifest.json").read_text())
    assert manifest["command"] == "synth"
    assert manifest["tool_version"]
    assert manifest["config"]["mode"] == "xor"


def test_ingest_command(synth_dir, tmp_path):
    out = tmp_path / "ingest"
    code = run(
        ["ingest", "--corpus", synth_dir / "corpus.jsonl", "--mesh",
         synth_dir / "mesh.tsv", "--out", out]
    )
    assert code == 0
    report = json.loads((out / "ingest_report.json").read_text())
    assert report["excluded_no_mesh"] == 0
    assert report["unresolved_terms"] == []
    assert (out / "corpus.jsonl").read_bytes() == (synth_dir / "corpus.jsonl").read_bytes()
    manifest = json.loads((out / "manifest.json").read_text())
    assert len(manifest["inputs"]) == 2
    assert all(len(i["sha256"]) == 64 for i in manifest["inputs"])


def test_every_command_records_ingest_diagnostics(synth_dir, tmp_path):
    corpus = tmp_path / "corpus.jsonl"
    records = [
        {"id": "1", "year": 2000, "mesh": ["C000000", "No Such Term"]},
        {"id": "1", "year": 2000, "mesh": ["D000000", "No Such Term"]},
        {"id": "2", "year": 1990, "mesh": ["C000000"]},
        {"id": "3", "year": 2001, "mesh": ["Other Term"]},
        {"id": "4", "year": 2001, "mesh": ["D000000", "E000000"]},
        {"id": "5", "year": 2002, "mesh": ["E000000"]},
    ]
    corpus.write_text("".join(json.dumps(r) + "\n" for r in records), encoding="utf-8")
    common = ["--corpus", corpus, "--mesh", synth_dir / "mesh.tsv", "--years", "1999:2005"]
    assert run(["ingest", *common, "--out", tmp_path / "ingest"]) == 0
    report = json.loads((tmp_path / "ingest" / "ingest_report.json").read_text())
    expected = {
        "excluded_no_mesh": 1, "excluded_year": 1, "excluded_duplicate": 1,
        "skipped_malformed": 0, "unresolved_distinct": 2, "unresolved_total": 3,
    }
    assert {k: report[k] for k in expected if k in report} == {
        k: v for k, v in expected.items() if not k.startswith("unresolved")}
    assert len(report["unresolved_terms"]) == expected["unresolved_distinct"]
    assert sum(t["count"] for t in report["unresolved_terms"]) == expected["unresolved_total"]
    for command in ("ingest", "stats", "mi"):
        if command != "ingest":
            assert run([command, *common, "--out", tmp_path / command]) == 0
        manifest = json.loads((tmp_path / command / "manifest.json").read_text())
        assert manifest["diagnostics"]["ingest"] == expected
        assert manifest["vocabulary_sha256"] == manifest["inputs"][0]["sha256"]


def test_manifest_records_stage_times(synth_dir, tmp_path):
    io = ["--corpus", synth_dir / "corpus.jsonl", "--mesh", synth_dir / "mesh.tsv"]
    assert run(["stats", *io, "--out", tmp_path / "stats"]) == 0
    manifest = json.loads((tmp_path / "stats" / "manifest.json").read_text())
    stages = manifest["stages"]
    assert set(stages) == {"vocabulary_s", "ingest_s", "command_s", "peak_rss_mb", "cache",
                           "ingest_template_lines", "ingest_json_lines", "load_peak_rss_mb",
                           "vocabulary_peak_rss_mb", "digests", "digest_s"}
    assert stages["cache"] == "stored"
    # the cache home is the test's own, so its digest index is empty
    assert stages["digests"] == "hashed"
    assert 0 < stages["digest_s"] < stages["command_s"]
    # synth writes canonical lines, which all take the template path
    lines = len((synth_dir / "corpus.jsonl").read_bytes().splitlines())
    assert (stages["ingest_template_lines"], stages["ingest_json_lines"]) == (lines, 0)
    assert 0 < stages["vocabulary_s"] + stages["ingest_s"] < stages["command_s"]
    assert 1 < stages["load_peak_rss_mb"] <= stages["peak_rss_mb"]
    # a run that parses records its peak once the vocabulary is loaded
    assert 1 < stages["vocabulary_peak_rss_mb"] <= stages["load_peak_rss_mb"]
    assert "stages" not in manifest["diagnostics"]
    synth = json.loads((synth_dir / "manifest.json").read_text())["stages"]
    assert set(synth) == {"command_s", "peak_rss_mb", "synth_s", "synth_peak_rss_mb", "write_s"}
    assert 0 < synth["synth_s"] + synth["write_s"] < synth["command_s"]
    assert 1 < synth["synth_peak_rss_mb"] <= synth["peak_rss_mb"]
    assert run(["ingest", *io, "--out", tmp_path / "ingest"]) == 0
    ingest = json.loads((tmp_path / "ingest" / "manifest.json").read_text())["stages"]
    # a hit loads no vocabulary file
    assert set(ingest) == set(stages) - {"vocabulary_peak_rss_mb"} | {"write_s"}
    assert ingest["cache"] == "hit"
    assert 0 < ingest["ingest_s"] + ingest["write_s"] < ingest["command_s"]


def test_ingest_detects_jsonl_after_a_byte_order_mark(synth_dir, tmp_path):
    corpus = tmp_path / "bom.jsonl"
    corpus.write_bytes(codecs.BOM_UTF8 + (synth_dir / "corpus.jsonl").read_bytes())
    out = tmp_path / "out"
    assert run(["ingest", "--corpus", corpus, "--mesh", synth_dir / "mesh.tsv",
                "--out", out]) == 0
    assert (out / "corpus.jsonl").read_bytes() == (synth_dir / "corpus.jsonl").read_bytes()


def test_ingest_detects_jsonl_after_whitespace_longer_than_a_read(synth_dir, tmp_path):
    corpus = tmp_path / "padded.jsonl"
    corpus.write_bytes(b"\n" * 5000 + (synth_dir / "corpus.jsonl").read_bytes())
    out = tmp_path / "out"
    assert run(["ingest", "--corpus", corpus, "--mesh", synth_dir / "mesh.tsv",
                "--out", out]) == 0
    assert (out / "corpus.jsonl").read_bytes() == (synth_dir / "corpus.jsonl").read_bytes()


def test_ingest_reads_a_tsv_after_a_byte_order_mark(synth_dir, tmp_path):
    mesh = tmp_path / "bom.tsv"
    mesh.write_bytes(codecs.BOM_UTF8 + (synth_dir / "mesh.tsv").read_bytes())
    out = tmp_path / "out"
    assert run(["ingest", "--corpus", synth_dir / "corpus.jsonl", "--mesh", mesh,
                "--out", out]) == 0
    assert (out / "corpus.jsonl").read_bytes() == (synth_dir / "corpus.jsonl").read_bytes()


def test_stats_command(synth_dir, tmp_path):
    out = tmp_path / "stats"
    assert run(
        ["stats", "--corpus", synth_dir / "corpus.jsonl", "--mesh",
         synth_dir / "mesh.tsv", "--out", out]
    ) == 0
    (row,) = read_csv(out / "stats.csv")
    assert row["A_q"] == "320"
    assert float(row["mean_C"]) <= 1.0
    wilcoxon = read_csv(out / "wilcoxon.csv")
    assert [
        (r["branch_a"], r["branch_b"]) for r in wilcoxon
    ] == [("C", "D"), ("C", "E"), ("D", "E")]
    yearly = read_csv(out / "yearly.csv")
    assert len(yearly) == 4
    assert {r["year"] for r in yearly} == {"2000", "2001", "2002", "2003"}


def test_mi_command_year_restriction(synth_dir, tmp_path):
    out = tmp_path / "mi"
    assert run(
        ["mi", "--corpus", synth_dir / "corpus.jsonl", "--mesh",
         synth_dir / "mesh.tsv", "--map", "binary", "--years", "2001:2002",
         "--out", out]
    ) == 0
    rows = read_csv(out / "mi.csv")
    assert [r["year"] for r in rows] == ["2001", "2002"]
    assert all(r["map"] == "binary" for r in rows)
    assert all(r["low_support"] == "false" for r in rows)


def test_mi_deterministic_output(synth_dir, tmp_path):
    outs = []
    for name in ("a", "b"):
        out = tmp_path / name
        assert run(
            ["mi", "--corpus", synth_dir / "corpus.jsonl", "--mesh",
             synth_dir / "mesh.tsv", "--map", "full", "--out", out]
        ) == 0
        outs.append((out / "mi.csv").read_bytes())
    assert outs[0] == outs[1]
    # numeric cells carry the shortest round-trip representation
    for row in read_csv(tmp_path / "a" / "mi.csv"):
        assert repr(float(row["T_CDE"])) == row["T_CDE"]


def test_null_command_and_thread_invariance(synth_dir, tmp_path, monkeypatch):
    outputs = []
    for threads, cores in (("1", 1), ("4", 1), ("1", 2), ("4", 2)):
        # the replicates are split across this many processes
        monkeypatch.setattr(nullmodel, "usable_cores", lambda: cores)
        monkeypatch.setattr(nullmodel, "MIN_SLICE_LABELS", 1)
        out = tmp_path / f"t{threads}c{cores}"
        assert run(
            ["null", "--corpus", synth_dir / "corpus.jsonl", "--mesh",
             synth_dir / "mesh.tsv", "--map", "full", "--target", "T_CDE",
             "--replicates", "40", "--ci", "0.9", "--seed", "42",
             "--threads", threads, "--out", out]
        ) == 0
        outputs.append(((out / "null_band.csv").read_bytes(),
                        (out / "null_manifest.json").read_bytes()))
        null_manifest = json.loads((out / "null_manifest.json").read_text())
        assert null_manifest["seed"] == 42
        assert null_manifest["replicates"] == 40
        assert null_manifest["ci_level"] == 0.9
        # the synth corpus file is already in canonical form
        assert null_manifest["corpus_hash"] == cache.file_sha256(synth_dir / "corpus.jsonl")
        stages = json.loads((out / "manifest.json").read_text())["stages"]
        parsed = {"vocabulary_peak_rss_mb"} if stages["cache"] != "hit" else set()
        assert set(stages) == {"vocabulary_s", "ingest_s", "triples_s", "hash_s", "null_s",
                               "null_workers", "command_s", "peak_rss_mb", "cache",
                               "ingest_template_lines", "ingest_json_lines",
                               "load_peak_rss_mb", "digests", "digest_s",
                               "null_peak_rss_mb"} | parsed
        assert stages["load_peak_rss_mb"] <= stages["null_peak_rss_mb"] <= stages["peak_rss_mb"]
        if parsed:
            assert stages["vocabulary_peak_rss_mb"] <= stages["load_peak_rss_mb"]
        assert stages["null_workers"] == (cores if sys.platform == "linux" else 1)
        assert 0 < stages["null_s"] < stages["command_s"]
        assert stages["triples_s"] > 0 and stages["hash_s"] > 0
        assert stages["triples_s"] + stages["hash_s"] + stages["null_s"] < stages["command_s"]
    assert all(o == outputs[0] for o in outputs)


def _children(pid):
    """Processes whose parent is ``pid``."""
    found = []
    for stat in Path("/proc").glob("[0-9]*/stat"):
        try:
            fields = stat.read_text().rsplit(")", 1)[1].split()
        except OSError:  # the process has ended
            continue
        if int(fields[1]) == pid:
            found.append(int(stat.parent.name))
    return found


def _running(pid):
    try:
        state = Path(f"/proc/{pid}/stat").read_text().rsplit(")", 1)[1].split()[0]
    except OSError:
        return False
    return state != "Z"


@pytest.mark.skipif(sys.platform != "linux", reason="workers are forked on Linux only")
def test_null_workers_die_with_a_killed_command(synth_dir, tmp_path):
    # two processes whatever the host's cores, and replicates enough to
    # keep the worker busy when the command is killed
    code = ("import sys; from helixmi import cli, nullmodel; "
            "nullmodel.usable_cores = lambda: 2; nullmodel.MIN_SLICE_LABELS = 1; "
            "sys.exit(cli.main(sys.argv[1:]))")
    src = os.path.dirname(os.path.dirname(os.path.abspath(cli.__file__)))
    proc = subprocess.Popen(
        [sys.executable, "-c", code, "null", "--corpus", str(synth_dir / "corpus.jsonl"),
         "--mesh", str(synth_dir / "mesh.tsv"), "--replicates", "20000",
         "--out", str(tmp_path / "out")],
        env=dict(os.environ, PYTHONPATH=src), stderr=subprocess.PIPE)
    workers = []
    try:
        deadline = time.monotonic() + 60
        while not workers and proc.poll() is None and time.monotonic() < deadline:
            time.sleep(0.05)
            workers = _children(proc.pid)
        assert workers, proc.stderr.read() if proc.poll() is not None else "no worker"
        proc.kill()
        proc.wait()
        deadline = time.monotonic() + 10
        while any(map(_running, workers)) and time.monotonic() < deadline:
            time.sleep(0.05)
        assert not any(map(_running, workers))
    finally:
        proc.kill()
        proc.wait()
        proc.stderr.close()
        for pid in workers:
            if _running(pid):
                os.kill(pid, signal.SIGKILL)


def test_peak_rss_counts_finished_workers(monkeypatch):
    mb = 2**20 if sys.platform == "darwin" else 2**10  # ru_maxrss units
    usage = {cli.resource.RUSAGE_SELF: 100 * mb, cli.resource.RUSAGE_CHILDREN: 300 * mb}
    monkeypatch.setattr(cli.resource, "getrusage",
                        lambda who: SimpleNamespace(ru_maxrss=usage[who]))
    assert cli._peak_rss_mb() == 300
    usage[cli.resource.RUSAGE_CHILDREN] = 0
    assert cli._peak_rss_mb() == 100


@pytest.mark.parametrize("map_kind", ["binary", "median", "full"])
def test_null_observed_column_is_the_mi_series(synth_dir, tmp_path, map_kind):
    # the band is comparable with the series only if it reports the
    # series' own years and values
    io = ["--corpus", synth_dir / "corpus.jsonl", "--mesh", synth_dir / "mesh.tsv",
          "--map", map_kind]
    assert run(["mi", *io, "--out", tmp_path / "mi"]) == 0
    series = read_csv(tmp_path / "mi" / "mi.csv")
    for target in infotheory.TARGETS:
        out = tmp_path / target
        assert run(["null", *io, "--target", target, "--replicates", "10", "--out", out]) == 0
        band = read_csv(out / "null_band.csv")
        assert [(row["year"], row["observed"]) for row in band] == [
            (row["year"], row[target]) for row in series
        ]


def test_null_manifest_reports_undefined_replicates(synth_dir, tmp_path):
    out = tmp_path / "null"
    assert run(
        ["null", "--corpus", synth_dir / "corpus.jsonl", "--mesh",
         synth_dir / "mesh.tsv", "--map", "median", "--replicates", "10",
         "--seed", "5", "--out", out]
    ) == 0
    years = [row["year"] for row in read_csv(out / "null_band.csv")]
    assert len(years) == 4
    manifest = json.loads((out / "manifest.json").read_text())
    assert manifest["diagnostics"] == {
        "ingest": {"excluded_no_mesh": 0, "excluded_year": 0, "excluded_duplicate": 0,
                   "skipped_malformed": 0, "unresolved_distinct": 0, "unresolved_total": 0},
        "null": {"undefined_replicates": {y: 0 for y in years}, "dropped_years": []},
    }
    assert sorted(json.loads((out / "null_manifest.json").read_text())) == [
        "ci_level", "corpus_hash", "replicates", "seed"]


def test_null_replicates_run_with_no_corpus_alive(synth_dir, tmp_path, monkeypatch):
    # the replicates need only the yearly triples: the command lets the
    # corpus go before they start, with no garbage collection
    loaded = []

    def load_inputs(*args, load=cli._load_inputs):
        inputs = load(*args)
        loaded.append(weakref.ref(inputs[0]))
        return inputs

    def replicate_values(*args, run=nullmodel.replicate_values):
        assert loaded and loaded[0]() is None, "the corpus is alive"
        return run(*args)

    monkeypatch.setattr(cli, "_load_inputs", load_inputs)
    monkeypatch.setattr(nullmodel, "replicate_values", replicate_values)
    assert run(["null", "--corpus", synth_dir / "corpus.jsonl", "--mesh",
                synth_dir / "mesh.tsv", "--replicates", "10", "--out", tmp_path]) == 0


def test_scaling_command(synth_dir, tmp_path):
    out = tmp_path / "scaling"
    assert run(
        ["scaling", "--corpus", synth_dir / "corpus.jsonl", "--mesh",
         synth_dir / "mesh.tsv", "--min-count", "1", "--out", out]
    ) == 0
    fits = json.loads((out / "scaling.json").read_text())
    assert set(fits) == {"zipf", "heaps"}
    assert fits["zipf"]["n_points"] >= 3
    assert (out / "zipf_points.csv").exists()
    assert (out / "heaps_points.csv").exists()


def test_dynamics_command(synth_dir, tmp_path):
    out = tmp_path / "dynamics"
    assert run(
        ["dynamics", "--corpus", synth_dir / "corpus.jsonl", "--mesh",
         synth_dir / "mesh.tsv", "--topk", "5", "--pair-branches", "C,D",
         "--out", out]
    ) == 0
    rows = read_csv(out / "trajectories.csv")
    # the xor corpus has one descriptor per branch plus the filler,
    # so --topk 5 clamps to the vocabulary size
    assert len(rows) == 4
    codes = {
        int(v) for r in rows for k, v in r.items()
        if k not in ("descriptor", "primary_branch")
    }
    assert codes.issubset({-2, -1, 1, 2, 3, 4, 5, 6})
    assert (out / "entries.csv").exists()
    assert (out / "pairs.csv").exists()
    shares = read_csv(out / "shares.csv")
    assert len(shares) == 4


def test_pairs_command(synth_dir, tmp_path):
    out = tmp_path / "pairs"
    assert run(
        ["pairs", "--corpus", synth_dir / "corpus.jsonl", "--mesh",
         synth_dir / "mesh.tsv", "--branches", "C,E", "--limit", "3",
         "--out", out]
    ) == 0
    rows = read_csv(out / "pairs.csv")
    assert len(rows) <= 3
    for r in rows:
        assert r["branch_a"] == "C"
        assert r["branch_b"] == "E"
        assert int(r["co_count"]) >= 1
    # a window of one year
    assert run(
        ["pairs", "--corpus", synth_dir / "corpus.jsonl", "--mesh",
         synth_dir / "mesh.tsv", "--window", "2001:2001", "--out", tmp_path / "one"]
    ) == 0
    rows = read_csv(tmp_path / "one" / "pairs.csv")
    assert rows and {(r["year_lo"], r["year_hi"]) for r in rows} == {("2001", "2001")}


# each command that reads a corpus, with options other than its defaults
HANDLER_OPTIONS = {
    "ingest": [],
    "stats": ["--counting", "primary"],
    "mi": ["--map", "median"],
    "null": ["--replicates", "20", "--seed", "3", "--target", "T_CE"],
    "scaling": ["--min-count", "1"],
    "dynamics": ["--topk", "5", "--pair-branches", "C,D", "--window", "2001:2002"],
    "pairs": ["--branches", "C,E", "--limit", "2"],
}


@pytest.mark.parametrize("command", sorted(cli._COMMANDS))
def test_handler_on_a_loaded_corpus_writes_the_command_bytes(synth_dir, tmp_path, command):
    io = ["--corpus", str(synth_dir / "corpus.jsonl"), "--mesh", str(synth_dir / "mesh.tsv")]
    argv = [command, *io, *HANDLER_OPTIONS[command]]
    assert run([*argv, "--out", tmp_path / "command"]) == 0
    expected = {path.name: path.read_bytes() for path in (tmp_path / "command").iterdir()
                if path.name != "manifest.json"}
    # the corpus parsed in this process, labelled as the command labels it
    vocabulary = mesh_module.load_mesh_tsv(str(synth_dir / "mesh.tsv"))
    corpus, report = corpus_module.ingest_jsonl(str(synth_dir / "corpus.jsonl"), vocabulary,
                                                None, "corpus")
    out = tmp_path / "handler"
    out.mkdir()
    args = cli.build_parser().parse_args([*argv, "--out", str(out)])
    cli._COMMANDS[command]([corpus, report], args, out, cli.RunManifest(command))
    assert {path.name: path.read_bytes() for path in out.iterdir()} == expected


def test_dynamics_makes_one_cache_call(synth_dir, tmp_path, monkeypatch):
    # the cache module as the command imports it, recording each name read
    names = []

    class Recording:
        def __getattr__(self, name):
            names.append(name)
            return getattr(cache, name)

    monkeypatch.setattr(helixmi, "cache", Recording())
    io = ["--corpus", synth_dir / "corpus.jsonl", "--mesh", synth_dir / "mesh.tsv"]
    for expected in ("stored", "hit"):
        names.clear()
        assert run(["dynamics", *io, "--topk", "5", "--out", tmp_path / expected]) == 0
        stages = json.loads((tmp_path / expected / "manifest.json").read_text())["stages"]
        assert stages["cache"] == expected
        assert names == ["load_or_parse"]


def test_outputs_stable_across_fresh_processes(synth_dir, tmp_path):
    """Same configuration, separate interpreters, different hash seeds:
    every emitted CSV must be byte-identical."""
    outputs = []
    for name, hashseed in (("h1", "0"), ("h2", "42")):
        out = tmp_path / name
        env = dict(os.environ, PYTHONHASHSEED=hashseed)
        argv = [
            sys.executable, "-m", "helixmi.cli", "null",
            "--corpus", str(synth_dir / "corpus.jsonl"),
            "--mesh", str(synth_dir / "mesh.tsv"),
            "--map", "median", "--target", "T_CDE", "--replicates", "30",
            "--seed", "5", "--out", str(out),
        ]
        proc = subprocess.run(argv, env=env, capture_output=True, text=True)
        assert proc.returncode == 0, proc.stderr
        outputs.append((out / "null_band.csv").read_bytes())
    assert outputs[0] == outputs[1]


class _NoPublication:
    def __init__(self, *args, **kwargs):
        raise AssertionError("a command built a Publication")


def test_commands_build_no_publication(synth_dir, tmp_path, monkeypatch):
    # the commands read the corpus arrays only, and write the same bytes
    # when building a Publication fails
    io = ["--corpus", synth_dir / "corpus.jsonl", "--mesh", synth_dir / "mesh.tsv"]
    commands = {
        "ingest": ["ingest", *io],
        "stats": ["stats", *io],
        **{f"mi-{m}": ["mi", *io, "--map", m] for m in ("binary", "median", "full")},
        "null": ["null", *io, "--replicates", "20"],
        "scaling": ["scaling", *io, "--min-count", "1"],
        "dynamics": ["dynamics", *io, "--topk", "5"],
        "pairs": ["pairs", *io],
    }

    def outputs(root):
        for name, args in commands.items():
            assert run([*args, "--out", root / name]) == 0, name
        # every file but the manifests, which hold times
        return {path.relative_to(root): path.read_bytes() for path in root.rglob("*")
                if path.is_file() and path.name != "manifest.json"}

    expected = outputs(tmp_path / "plain")
    assert len(expected) > len(commands)
    monkeypatch.setattr(corpus_module, "Publication", _NoPublication)
    # an empty cache, so that the patched run parses the inputs again
    monkeypatch.setenv("XDG_CACHE_HOME", str(tmp_path / "patched-cache"))
    assert outputs(tmp_path / "patched") == expected


def test_cli_import_loads_no_scipy():
    # scipy is a test dependency only: the library runs on numpy alone
    src = os.path.dirname(os.path.dirname(os.path.abspath(cli.__file__)))
    code = "import sys, helixmi.cli; print([m for m in sys.modules if m.split('.')[0] == 'scipy'])"
    proc = subprocess.run([sys.executable, "-c", code], env=dict(os.environ, PYTHONPATH=src),
                          capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "[]"


def test_synth_year_range_notation(tmp_path):
    out = tmp_path / "ranged"
    assert run(
        ["synth", "--mode", "independent", "--pubs", "10",
         "--years", "1990:1994", "--seed", "1", "--out", out]
    ) == 0
    years = {
        json.loads(line)["year"]
        for line in (out / "corpus.jsonl").read_text().splitlines()
    }
    assert years == {1990, 1991, 1992, 1993, 1994}


def test_medline_ingest_through_cli(tmp_path, synth_dir):
    medline = tmp_path / "records.txt"
    medline.write_text(
        "PMID- 1\nDP  - 2000 Jan\nMH  - *Synthetic C 0/blood\nMH  - Synthetic Filler\n\n"
        "PMID- 2\nDP  - 2001\nMH  - Synthetic D 0\n\n",
        encoding="utf-8",
    )
    out = tmp_path / "out"
    assert run(
        ["ingest", "--corpus", medline, "--mesh", synth_dir / "mesh.tsv",
         "--label", "medline-smoke", "--out", out]
    ) == 0
    lines = [json.loads(l) for l in (out / "corpus.jsonl").read_text().splitlines()]
    assert lines[0]["id"] == "1"
    assert lines[0]["mesh"] == ["C000000", "Z000000"]
    assert lines[1]["mesh"] == ["D000000"]
    # the JSONL parser's line counts are recorded only for a JSONL corpus
    stages = json.loads((out / "manifest.json").read_text())["stages"]
    assert "ingest_template_lines" not in stages
