"""Output checks for the benchmark's CLI runs.

Each check takes a command's output directory and returns a list of
problems; an empty list means the outputs are correct.  The checks read
files with the standard library only, so the benchmark process stays
small and does not inflate the peak RSS its children inherit.
"""

from __future__ import annotations

import csv
import hashlib
import json
import math
from pathlib import Path

# Shape bounds for the generated corpus and for the CLI's own fits.
XI_BOUNDS = (0.95, 1.05)
BETA_BOUNDS = (0.60, 0.72)
FLAGS = {"above", "inside", "below"}
XOR_T_CDE = -1.0
XOR_TOLERANCE = 0.01


def file_sha256(path: Path) -> str:
    digest = hashlib.sha256()
    with open(path, "rb") as fh:
        for chunk in iter(lambda: fh.read(1 << 20), b""):
            digest.update(chunk)
    return digest.hexdigest()


def output_hashes(out: Path) -> dict[str, str]:
    """sha256 of every output file except the timestamped manifest."""
    return {p.name: file_sha256(p) for p in sorted(out.iterdir())
            if p.is_file() and p.name != "manifest.json"}


def _rows(path: Path) -> list[dict]:
    with open(path, encoding="utf-8", newline="") as fh:
        return list(csv.DictReader(fh))


def _line_count(path: Path) -> int:
    with open(path, "rb") as fh:
        return sum(1 for _ in fh)


def _within(name: str, value: float, bounds: tuple[float, float]) -> list[str]:
    lo, hi = bounds
    return [] if lo <= value <= hi else [f"{name} = {value:.4f} outside [{lo}, {hi}]"]


def shape_problems(xi: float, beta: float) -> list[str]:
    return _within("xi", xi, XI_BOUNDS) + _within("beta", beta, BETA_BOUNDS)


def version(log: Path) -> list[str]:
    text = log.read_text(encoding="utf-8", errors="replace").strip()
    return [] if text else ["--version printed nothing"]


def ingest(out: Path, expect: dict) -> list[str]:
    """No exclusions, no unresolved terms, one line per generated record.

    With ``canonical_sha256`` in ``expect`` the canonical JSONL must
    also be byte-identical to the generator's canonical rendering.
    """
    problems = []
    report = json.loads((out / "ingest_report.json").read_text(encoding="utf-8"))
    for key in ("excluded_no_mesh", "excluded_year", "excluded_duplicate", "skipped_malformed"):
        if report[key]:
            problems.append(f"ingest report: {key} = {report[key]}")
    if report["unresolved_terms"]:
        problems.append(f"ingest report: {len(report['unresolved_terms'])} unresolved terms")
    lines = _line_count(out / "corpus.jsonl")
    if lines != expect["pubs"]:
        problems.append(f"corpus.jsonl has {lines} lines, expected {expect['pubs']}")
    want = expect.get("canonical_sha256")
    if want and file_sha256(out / "corpus.jsonl") != want:
        problems.append("corpus.jsonl differs from the canonical JSONL of the records")
    return problems


def stats(out: Path, expect: dict) -> list[str]:
    """A_q and branch means/medians equal the generator's recomputation."""
    row = _rows(out / "stats.csv")[0]
    problems = []
    for key, want in expect["stats"].items():
        got = float(row[key])
        if not math.isclose(got, want, rel_tol=1e-12, abs_tol=1e-12):
            problems.append(f"stats.csv {key} = {got!r}, expected {want!r}")
    return problems


def mi(out: Path, expect: dict) -> list[str]:
    """Bilateral terms are non-negative; n_obs sums to the publications."""
    rows = _rows(out / "mi.csv")
    problems = []
    for row in rows:
        for key in ("T_CD", "T_CE", "T_DE"):
            if not float(row[key]) >= 0.0:
                problems.append(f"mi.csv {row['year']} {key} = {row[key]}")
    n_obs = sum(int(row["n_obs"]) for row in rows)
    if n_obs != expect["pubs"]:
        problems.append(f"mi.csv n_obs sums to {n_obs}, expected {expect['pubs']}")
    return problems


def null_band(out: Path, expect: dict) -> list[str]:
    """One row per year, no NaN, lo <= hi, every flag known."""
    rows = _rows(out / "null_band.csv")
    problems = []
    years = [int(row["year"]) for row in rows]
    if years != list(range(expect["years"][0], expect["years"][1] + 1)):
        problems.append(f"null_band.csv years {years[:3]}... do not cover {expect['years']}")
    for row in rows:
        values = [float(row[k]) for k in ("observed", "mean_rand", "lo", "hi")]
        if any(math.isnan(v) for v in values):
            problems.append(f"null_band.csv {row['year']}: NaN")
        elif values[2] > values[3]:
            problems.append(f"null_band.csv {row['year']}: lo > hi")
        if row["flag"] not in FLAGS:
            problems.append(f"null_band.csv {row['year']}: flag {row['flag']!r}")
    return problems


def null_xor(out: Path, expect: dict) -> list[str]:
    """xor at rho = 1: T_CDE is -1 bit and every year lies below the band."""
    problems = null_band(out, expect)
    for row in _rows(out / "null_band.csv"):
        observed = float(row["observed"])
        if abs(observed - XOR_T_CDE) > XOR_TOLERANCE:
            problems.append(f"xor {row['year']}: T_CDE = {observed}")
        if row["flag"] != "below":
            problems.append(f"xor {row['year']}: flagged {row['flag']}")
    return problems


def null_sizemix(out: Path, expect: dict) -> list[str]:
    """sizemix is exchangeable with the shuffle: most years lie inside."""
    problems = null_band(out, expect)
    rows = _rows(out / "null_band.csv")
    inside = sum(row["flag"] == "inside" for row in rows)
    if inside * 2 <= len(rows):
        problems.append(f"sizemix: only {inside}/{len(rows)} years inside the band")
    return problems


def scaling(out: Path, expect: dict) -> list[str]:
    fits = json.loads((out / "scaling.json").read_text(encoding="utf-8"))
    return shape_problems(fits["zipf"]["exponent"], fits["heaps"]["exponent"])


def dynamics(out: Path, expect: dict) -> list[str]:
    """Each year's shares sum to 1; pairs come in descending co_count."""
    problems = []
    for row in _rows(out / "shares.csv"):
        total = sum(float(row[k]) for k in ("share_C", "share_D", "share_E"))
        if abs(total - 1.0) > 1e-9:
            problems.append(f"shares.csv {row['year']}: shares sum to {total!r}")
    counts = [int(row["co_count"]) for row in _rows(out / "pairs.csv")]
    if not counts:
        problems.append("pairs.csv is empty")
    if counts != sorted(counts, reverse=True):
        problems.append("pairs.csv is not sorted by co_count, descending")
    return problems


def synth(out: Path, expect: dict) -> list[str]:
    lines = _line_count(out / "corpus.jsonl")
    if lines != expect["pubs"]:
        return [f"synthetic corpus has {lines} lines, expected {expect['pubs']}"]
    return [] if (out / "mesh.tsv").is_file() else ["synth wrote no mesh.tsv"]
