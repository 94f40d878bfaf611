"""Tests of the benchmark's own code: ``python -m pytest perfbench``."""

from __future__ import annotations

import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import checks
import inputs
import run
import tracer

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))

from helixmi.corpus import corpus_canonical_bytes, ingest_medline_text  # noqa: E402
from helixmi.mesh import load_mesh_ascii  # noqa: E402

SMALL = 0.02  # about 1,240 publications


def test_generator_is_deterministic_for_a_seed():
    a, b, c = (inputs.make_records(seed, SMALL) for seed in (3, 3, 4))
    assert inputs.canonical_jsonl(a) == inputs.canonical_jsonl(b)
    assert inputs.mesh_tsv(a) == inputs.mesh_tsv(b)
    assert inputs.medline_text(a, 3) == inputs.medline_text(b, 3)
    assert inputs.canonical_jsonl(a) != inputs.canonical_jsonl(c)


def test_fingerprints_are_distinct_sorted_and_sized():
    rng = np.random.default_rng(0)
    weights = 1.0 / np.arange(1, 51)
    sizes = rng.integers(1, 30, size=500)
    terms = inputs.draw_fingerprints(rng, weights, sizes)
    assert len(terms) == sizes.sum()
    start = 0
    for size in sizes:
        row = terms[start:start + size]
        assert np.all(np.diff(row) > 0)
        start += size
    # the most popular descriptor is held far more often than the least
    counts = np.bincount(terms, minlength=50)
    assert counts[0] > 3 * counts[-1]


def test_vocabulary_shape():
    records = inputs.make_records(1, SMALL)
    assert len(set(records.ids)) == len(records.names) == inputs.VOCAB_SIZE
    assert len({n.casefold() for n in records.names}) == inputs.VOCAB_SIZE
    multi = (records.member.sum(axis=1) >= 2).mean()
    assert 0.05 < multi < 0.09
    depths = {t.count(".") for trees in records.trees for t in trees}
    assert len(depths) > 3


def test_full_size_corpus_is_in_shape():
    records = inputs.make_records(7)
    assert records.n_pubs == 61_983
    fit = inputs.shape(records)
    assert checks.shape_problems(fit["xi"], fit["beta"]) == []


def test_shape_check_rejects_a_flat_corpus():
    records = inputs.make_records(1, SMALL)
    rng = np.random.default_rng(1)
    sizes = np.diff(records.offsets)
    records.terms = inputs.draw_fingerprints(rng, np.ones(len(records.ids)), sizes)
    fit = inputs.shape(records)
    problems = checks.shape_problems(fit["xi"], fit["beta"])
    assert any(p.startswith("xi") for p in problems)
    assert checks.shape_problems(1.0, 0.9) == ["beta = 0.9000 outside [0.6, 0.72]"]


def test_medline_rendering_ingests_to_the_canonical_records(tmp_path):
    records = inputs.make_records(2, SMALL)
    (tmp_path / "mesh.bin").write_bytes(inputs.mesh_ascii(records))
    (tmp_path / "corpus.medline").write_bytes(inputs.medline_text(records, 2))
    vocabulary = load_mesh_ascii(str(tmp_path / "mesh.bin"))
    corpus, report = ingest_medline_text(str(tmp_path / "corpus.medline"), vocabulary)
    assert not report.unresolved_terms
    assert corpus_canonical_bytes(corpus) == inputs.canonical_jsonl(records)


def test_self_time_subtracts_the_union_of_overlapping_children():
    spans = [
        ["p", 0.0, 10.0, None, 1, None],
        ["w", 1.0, 5.0, 0, 2, None],  # two worker threads overlap on [3, 5]
        ["w", 3.0, 8.0, 0, 3, None],
        ["g", 2.0, 4.0, 1, 2, None],
        ["late", 9.0, 12.0, 0, 1, None],  # clipped to the parent's end
    ]
    own = tracer.self_times(spans)
    assert own == pytest.approx([10.0 - 7.0 - 1.0, 4.0 - 2.0, 5.0, 2.0, 3.0])
    assert tracer.covered((0.0, 10.0), []) == 0.0


def test_tracer_reaches_every_binding(tmp_path):
    records = inputs.make_records(4, SMALL)
    (tmp_path / "corpus.jsonl").write_bytes(inputs.canonical_jsonl(records))
    (tmp_path / "mesh.tsv").write_bytes(inputs.mesh_tsv(records))
    spans_file = tmp_path / "spans.json"
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    subprocess.run(
        [sys.executable, str(ROOT / "perfbench" / "tracer.py"), str(spans_file), "--",
         "stats", "--corpus", str(tmp_path / "corpus.jsonl"),
         "--mesh", str(tmp_path / "mesh.tsv"), "--out", str(tmp_path / "out")],
        env=env, check=True, timeout=120,
    )
    summary = tracer.summarize([json.loads(spans_file.read_text())])
    # once through branch_stats inside counts, once bound in cli
    assert summary["counts.corpus_triples"]["calls"] == 2
    assert summary["cli.main"]["calls"] == 1
    years = len(np.unique(records.years))
    assert summary["scaling.descriptor_counts"]["calls"] == years
    assert summary["infotheory.efficiency"]["calls"] == 3 * years
    expect = inputs.expectations(records)
    assert checks.stats(tmp_path / "out", expect) == []


def test_checks_flag_bad_outputs(tmp_path):
    (tmp_path / "shares.csv").write_text("year,share_C,share_D,share_E\n2000,0.5,0.5,0.5\n")
    (tmp_path / "pairs.csv").write_text("co_count\n3\n5\n")
    problems = checks.dynamics(tmp_path, {})
    assert len(problems) == 2
    (tmp_path / "null_band.csv").write_text(
        "year,observed,mean_rand,lo,hi,flag\n2000,-0.5,0,0.1,nan,inside\n")
    assert checks.null_xor(tmp_path, {"years": [2000, 2000]}) == [
        "null_band.csv 2000: NaN",
        "xor 2000: T_CDE = -0.5",
        "xor 2000: flagged inside",
    ]


def test_benchmark_json_lists_what_the_runs_report():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == run.END_TO_END
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == run.per_layer_units()
    assert [w["name"] for w in spec["workloads"]] == list(run.WORKLOADS)
