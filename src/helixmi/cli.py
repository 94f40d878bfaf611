"""Command-line front end with reproducible run manifests.

Every subcommand writes its outputs plus a ``manifest.json`` recording
input hashes and the full configuration; two runs with equal manifests
(timestamp aside) produce byte-identical outputs.  Exit codes: 0 on
success, 1 on usage errors, 2 on data errors (a ``DataError``, or a
file that cannot be read or written); any other exception is a bug and
surfaces as a traceback.
"""

from __future__ import annotations

import argparse
import csv
import json
import os
import resource
import sys
import time
from dataclasses import asdict, dataclass, field
from datetime import datetime, timezone
from pathlib import Path
from typing import TYPE_CHECKING, Iterable

from . import __version__
from .errors import DataError

if TYPE_CHECKING:
    from .corpus import Corpus, IngestReport

# Each command imports the modules it runs when it runs, so that a command
# loads no analysis module it does not use, and numpy only after ``entry``
# has chosen its thread count.  The flag choices below are those of
# ``mesh.BRANCHES``, ``infotheory.TARGETS`` and ``synth.MODES`` (a test
# checks), named here so that parsing the arguments imports none of them.
BRANCHES = ("C", "D", "E")
TARGETS = ("T_CD", "T_CE", "T_DE", "T_CDE")
MODES = ("independent", "pairwise", "xor", "sizemix")

# numpy's OpenBLAS starts a thread per core at import unless one of these
# says otherwise; no helixmi computation is a BLAS call that threads speed up
_BLAS_THREAD_VARIABLES = ("OPENBLAS_NUM_THREADS", "GOTO_NUM_THREADS", "OMP_NUM_THREADS")

# glibc's mallopt parameter M_MMAP_THRESHOLD, and the value the CLI fixes
# it at: glibc's starting value
_M_MMAP_THRESHOLD = -3
_MMAP_THRESHOLD_BYTES = 128 * 1024


def _fmt(value) -> str:
    """Shortest round-trip cell formatting for CSV output."""
    if value is None:
        return ""
    if isinstance(value, bool):
        return "true" if value else "false"
    if isinstance(value, float):
        return repr(value)
    return str(value)


def _write_csv(path: Path, header: list[str], rows: Iterable) -> None:
    with open(path, "w", encoding="utf-8", newline="") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(header)
        for row in rows:
            writer.writerow([_fmt(v) for v in row])


def _write_json(path: Path, obj) -> None:
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        json.dump(obj, fh, indent=2, sort_keys=True)
        fh.write("\n")


@dataclass
class RunManifest:
    command: str
    inputs: list[dict] = field(default_factory=list)
    vocabulary_sha256: str | None = None
    config: dict = field(default_factory=dict)
    diagnostics: dict = field(default_factory=dict)
    # wall seconds of the vocabulary load, the ingest and the whole command,
    # the process's peak resident set size (and, for a run that parses, its
    # peak once the vocabulary is loaded), whether the inputs' digests came
    # from the digest index and how long finding them took, whether the
    # parsed inputs came from the cache and, for a JSONL corpus, how many
    # lines took each of its parser's paths; for ``synth``, the seconds and
    # the peak of the generation, and for ``ingest`` and ``synth`` the
    # seconds of the output writes
    stages: dict = field(default_factory=dict)
    tool_version: str = __version__
    timestamp: str = ""

    def write(self, out_dir: Path) -> None:
        self.timestamp = datetime.now(timezone.utc).isoformat()
        _write_json(out_dir / "manifest.json", asdict(self))


def _positive_int_arg(text: str) -> int:
    try:
        value = int(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"expected an integer, got {text!r}") from None
    if value < 1:
        raise argparse.ArgumentTypeError(f"expected an integer >= 1, got {text!r}")
    return value


def _year_range_arg(text: str) -> tuple[int, int]:
    try:
        lo, hi = map(int, text.split(":"))
    except ValueError:
        raise argparse.ArgumentTypeError(f"expected LO:HI, got {text!r}") from None
    if lo > hi:
        raise argparse.ArgumentTypeError(f"expected LO <= HI, got {text!r}")
    return lo, hi


def _branch_pair_arg(text: str) -> tuple[str, str]:
    parts = [p.strip().upper() for p in text.split(",")]
    if len(parts) != 2 or len(set(parts) & set(BRANCHES)) != 2:
        raise argparse.ArgumentTypeError(f"expected two of C, D, E like D,E, got {text!r}")
    return parts[0], parts[1]


def _synth_years_arg(text: str) -> int | tuple[int, int]:
    if ":" in text:
        return _year_range_arg(text)
    try:
        return int(text)
    except ValueError:
        raise argparse.ArgumentTypeError(
            f"expected a year count or LO:HI, got {text!r}"
        ) from None


def _lam_arg(text: str) -> tuple[float, float, float]:
    parts = text.split(",")
    try:
        if len(parts) != 3:
            raise ValueError
        c, d, e = (float(p) for p in parts)
        return c, d, e
    except ValueError:
        raise argparse.ArgumentTypeError(
            f"expected three comma-separated rates, got {text!r}"
        ) from None


def _load_inputs(args, manifest: RunManifest) -> list[Corpus | IngestReport]:
    """The corpus and ingest report of ``--corpus`` and ``--mesh``, in a
    list that the command handed it owns: from the cache entry of the
    inputs' bytes when there is one, else parsed and then stored."""
    from . import cache

    label = args.label or Path(args.corpus).stem
    stages = manifest.stages

    def parse():
        from . import formats

        start = time.perf_counter()
        vocabulary = formats.load_vocabulary(args.mesh)
        stages["vocabulary_s"] = time.perf_counter() - start
        stages["vocabulary_peak_rss_mb"] = _peak_rss_mb()
        start = time.perf_counter()
        parsed = formats.load_corpus(args.corpus, vocabulary, args.years, label)
        stages["ingest_s"] = time.perf_counter() - start
        return parsed

    paths = (args.mesh, args.corpus)
    corpus, report, digests = cache.load_or_parse(paths, args.years, label, parse, stages)
    # a JSONL corpus parses at least one line, a MEDLINE one none
    if report.template_lines + report.json_lines:
        stages["ingest_template_lines"] = report.template_lines
        stages["ingest_json_lines"] = report.json_lines
    manifest.vocabulary_sha256 = digests[0]
    manifest.inputs = [{"path": str(path), "sha256": digest}
                       for path, digest in zip(paths, digests)]
    manifest.diagnostics["ingest"] = report.summary()
    # so that a run shows whether the load or the analysis set its peak
    stages["load_peak_rss_mb"] = _peak_rss_mb()
    return [corpus, report]


# ---------------------------------------------------------------------------
# Subcommands
# ---------------------------------------------------------------------------

def _cmd_ingest(inputs: list, args, out_dir: Path, manifest: RunManifest) -> None:
    from .formats import write_corpus_jsonl

    corpus, report = inputs
    start = time.perf_counter()
    write_corpus_jsonl(corpus, str(out_dir / "corpus.jsonl"))
    _write_json(out_dir / "ingest_report.json", report.to_json_dict())
    manifest.stages["write_s"] = time.perf_counter() - start


def _cmd_stats(inputs: list, args, out_dir: Path, manifest: RunManifest) -> None:
    import numpy as np

    from .corpus import yearly_sizes
    from .counts import (
        branch_matrix,
        branch_stats_from_triples,
        corpus_triples,
        wilcoxon_signed_rank,
    )
    from .infotheory import efficiency

    corpus = inputs[0]
    # the triples and the tests' temporaries go before the yearly counts come
    triples = corpus_triples(corpus, args.counting)
    stats = branch_stats_from_triples(triples)
    wilcoxon_rows = []
    for i, a in enumerate(BRANCHES):
        for j, b in enumerate(BRANCHES):
            if i < j:
                res = wilcoxon_signed_rank(triples[:, i], triples[:, j])
                wilcoxon_rows.append([a, b, res.statistic, res.p_value, res.n_effective])
    del triples
    _write_csv(
        out_dir / "wilcoxon.csv",
        ["branch_a", "branch_b", "statistic", "p_value", "n_effective"],
        wilcoxon_rows,
    )

    sizes = yearly_sizes(corpus)
    total_assignments = sum(r.total_descriptors for r in sizes)
    year_counts = corpus.year_counts
    distinct = int(np.count_nonzero(year_counts.any(axis=0)))

    header = ["query", "A_q", "V_q", "mean_mesh"]
    row: list = [corpus.query_label, len(corpus), distinct,
                 total_assignments / len(corpus) if len(corpus) else 0.0]
    for alpha in BRANCHES:
        header += [f"mean_{alpha}", f"sd_{alpha}", f"med_{alpha}"]
        row += [stats.mean[alpha], stats.std[alpha], stats.median[alpha]]
    _write_csv(out_dir / "stats.csv", header, [row])

    # usage diversity always counts by membership, whatever --counting says
    member = branch_matrix(corpus.vocabulary, "membership").astype(bool)
    yearly_rows = []
    for r, counts in zip(sizes, year_counts):
        eff = {}
        for i, alpha in enumerate(BRANCHES):
            usage = counts[member[:, i] & (counts > 0)]
            eff[alpha] = efficiency(usage) if usage.size else None
        yearly_rows.append(
            [r.year, r.publications, r.total_descriptors, r.distinct_descriptors,
             r.mean_per_publication, eff["C"], eff["D"], eff["E"]]
        )
    _write_csv(
        out_dir / "yearly.csv",
        ["year", "A_q", "M_q", "V_q", "mean_mesh", "eff_C", "eff_D", "eff_E"],
        yearly_rows,
    )


MI_HEADER = [
    "year", "map", "H_C", "H_D", "H_E", "H_CD", "H_CE", "H_DE", "H_CDE",
    "T_CD", "T_CE", "T_DE", "T_CDE", "n_obs", "low_support",
]


def _cmd_mi(inputs: list, args, out_dir: Path, manifest: RunManifest) -> None:
    from .infotheory import yearly_mi

    corpus = inputs[0]
    series = yearly_mi(corpus, map_kind=args.map, counting=args.counting)
    rows = [
        [r.year, series.map_kind, r.h_c, r.h_d, r.h_e, r.h_cd, r.h_ce, r.h_de,
         r.h_cde, r.t_cd, r.t_ce, r.t_de, r.t_cde, r.n_obs, r.low_support]
        for r in series.records
    ]
    _write_csv(out_dir / "mi.csv", MI_HEADER, rows)


def _shuffle_config(args):
    from .nullmodel import ShuffleConfig

    return ShuffleConfig(
        replicates=args.replicates,
        ci_level=args.ci,
        seed=args.seed,
        map_kind=args.map,
        counting=args.counting,
    )


def _cmd_null(inputs: list, args, out_dir: Path, manifest: RunManifest) -> None:
    import hashlib

    from .counts import triples_by_year
    from .formats import corpus_canonical_lines
    from .nullmodel import null_band_from_triples

    config = _shuffle_config(args)
    corpus = inputs[0]
    if len(corpus) == 0:
        raise DataError("empty corpus")
    # the triples before the hash: the other way round, a seed-1 zipf62k
    # null on a cache hit peaked 0.8-1.6 MB higher
    start = time.perf_counter()
    per_year = triples_by_year(corpus, config.counting)
    manifest.stages["triples_s"] = time.perf_counter() - start
    start = time.perf_counter()
    digest = hashlib.sha256()
    for line in corpus_canonical_lines(corpus):
        digest.update(line)
    corpus_hash = digest.hexdigest()
    manifest.stages["hash_s"] = time.perf_counter() - start
    # the replicates need the triples alone: the corpus and the ingest
    # report go first
    del corpus
    inputs.clear()
    band = null_band_from_triples(per_year, config, args.target)
    # this process's and its reaped workers' peak, before the writes
    manifest.stages["null_peak_rss_mb"] = _peak_rss_mb()
    rows = [
        [r.year, band.target, band.map_kind, r.observed, r.mean_rand, r.lo, r.hi, r.flag]
        for r in band.rows
    ]
    _write_csv(
        out_dir / "null_band.csv",
        ["year", "target", "map", "observed", "mean_rand", "lo", "hi", "flag"],
        rows,
    )
    _write_json(
        out_dir / "null_manifest.json",
        {
            "seed": config.seed,
            "replicates": config.replicates,
            "ci_level": config.ci_level,
            "corpus_hash": corpus_hash,
        },
    )
    manifest.stages["null_s"] = band.replicate_s
    manifest.stages["null_workers"] = band.workers
    manifest.diagnostics["null"] = {
        "undefined_replicates": {str(r.year): r.undefined_replicates for r in band.rows},
        "dropped_years": band.dropped_years,
    }


def _cmd_scaling(inputs: list, args, out_dir: Path, manifest: RunManifest) -> None:
    import numpy as np

    from .corpus import year_volumes
    from .scaling import heaps_fit, ranked_counts, zipf_fit_points

    corpus = inputs[0]
    columns, counts = ranked_counts(corpus, "all")
    ranks = np.arange(1, len(columns) + 1)
    zipf = zipf_fit_points(ranks.astype(float), counts.astype(float), args.min_count)
    volumes, vocabularies = year_volumes(corpus)
    heaps = heaps_fit(zip(volumes.tolist(), vocabularies.tolist()))
    _write_json(
        out_dir / "scaling.json",
        {"zipf": asdict(zipf), "heaps": asdict(heaps)},
    )
    _write_csv(
        out_dir / "zipf_points.csv",
        ["rank", "descriptor", "count"],
        zip(ranks.tolist(), corpus.vocabulary.ids_at(columns), counts.tolist()),
    )
    _write_csv(
        out_dir / "heaps_points.csv",
        ["year", "M_q", "V_q"],
        zip(corpus.years(), volumes.tolist(), vocabularies.tolist()),
    )


def _cmd_dynamics(inputs: list, args, out_dir: Path, manifest: RunManifest) -> None:
    from .dynamics import branch_share_series, detect_entries, rank_trajectories

    corpus = inputs[0]
    # the pairs' temporaries go before the yearly counts come
    pair_rows = _pair_rows(corpus, args.pair_branches, args)

    matrix = rank_trajectories(corpus, k=args.topk)
    header = ["descriptor", "primary_branch"] + [str(y) for y in matrix.years]
    rows = [[uid, branch, *cells] for uid, branch, cells in
            zip(matrix.descriptor_ids, matrix.primary_branches, matrix.cells.tolist())]
    _write_csv(out_dir / "trajectories.csv", header, rows)

    entries = detect_entries(corpus, k=args.topk)
    _write_csv(
        out_dir / "entries.csv",
        ["descriptor", "birth_year", "impact", "primary_branch"],
        [[e.descriptor_id, e.birth_year, e.impact, e.primary_branch] for e in entries],
    )
    _write_csv(out_dir / "pairs.csv", PAIRS_HEADER, pair_rows)

    shares = branch_share_series(corpus, args.counting)
    _write_csv(
        out_dir / "shares.csv",
        ["year", "share_C", "share_D", "share_E"],
        [[s.year, s.share_c, s.share_d, s.share_e] for s in shares],
    )


PAIRS_HEADER = ["branch_a", "descriptor_a", "name_a", "branch_b", "descriptor_b", "name_b",
                "co_count", "year_lo", "year_hi"]


def _pair_rows(corpus: Corpus, branches: tuple[str, str], args) -> list[list]:
    """The rows of ``pairs.csv``: the most frequent descriptor pairs of two
    branches."""
    from .dynamics import top_pairs

    branch_a, branch_b = branches
    pairs = top_pairs(corpus, branch_a, branch_b, window=args.window, limit=args.limit)
    return [
        [branch_a, p.descriptor_a, p.name_a, branch_b, p.descriptor_b, p.name_b,
         p.co_count, p.window[0], p.window[1]]
        for p in pairs
    ]


def _cmd_pairs(inputs: list, args, out_dir: Path, manifest: RunManifest) -> None:
    _write_csv(out_dir / "pairs.csv", PAIRS_HEADER, _pair_rows(inputs[0], args.branches, args))


def _synth_config(args):
    from .synth import SynthConfig

    if isinstance(args.years, tuple):
        start_year, n_years = args.years[0], args.years[1] - args.years[0] + 1
    else:
        start_year, n_years = args.start_year, args.years
    return SynthConfig(
        mode=args.mode,
        pubs_per_year=args.pubs,
        years=n_years,
        seed=args.seed,
        rho=args.rho,
        lam=args.lam,
        sigma=args.sigma,
        start_year=start_year,
    )


def _cmd_synth(args, out_dir: Path, manifest: RunManifest) -> None:
    from .formats import write_corpus_jsonl, write_mesh_tsv
    from .synth import synth_corpus

    config = _synth_config(args)
    start = time.perf_counter()
    corpus = synth_corpus(config)
    manifest.stages["synth_s"] = time.perf_counter() - start
    manifest.stages["synth_peak_rss_mb"] = _peak_rss_mb()
    start = time.perf_counter()
    write_corpus_jsonl(corpus, str(out_dir / "corpus.jsonl"))
    write_mesh_tsv(corpus.vocabulary, str(out_dir / "mesh.tsv"))
    manifest.stages["write_s"] = time.perf_counter() - start


# ---------------------------------------------------------------------------
# Parser
# ---------------------------------------------------------------------------

class _Parser(argparse.ArgumentParser):
    """argparse with usage errors mapped to exit code 1."""

    def error(self, message: str) -> None:  # type: ignore[override]
        self.print_usage(sys.stderr)
        self.exit(1, f"{self.prog}: error: {message}\n")


def _add_corpus_command(commands, name: str, summary: str) -> _Parser:
    """The parser of a command that reads ``--corpus`` and ``--mesh``."""
    sub = commands.add_parser(name, help=summary)
    sub.add_argument("--corpus", required=True, help="corpus file (JSONL or MEDLINE text)")
    sub.add_argument("--mesh", required=True, help="descriptor file (NLM ASCII or TSV)")
    sub.add_argument("--years", type=_year_range_arg, default=None,
                     help="restrict to years LO:HI")
    sub.add_argument("--label", default=None, help="query label for outputs")
    sub.add_argument(
        "--counting",
        choices=["membership", "primary"],
        default="membership",
        help="how multi-branch descriptors are counted",
    )
    return sub


def build_parser() -> _Parser:
    parser = _Parser(prog="helixmi", description=__doc__)
    parser.add_argument("--version", action="version", version=__version__)
    commands = parser.add_subparsers(dest="command", required=True, parser_class=_Parser)

    _add_corpus_command(commands, "ingest", "parse a corpus into canonical JSONL")
    _add_corpus_command(commands, "stats", "descriptive branch statistics")

    sub = _add_corpus_command(commands, "mi", "yearly entropy and mutual information")
    sub.add_argument("--map", choices=["binary", "median", "full"], default="full")

    sub = _add_corpus_command(commands, "null", "shuffling null model confidence bands")
    sub.add_argument("--map", choices=["binary", "median", "full"], default="full")
    sub.add_argument("--target", choices=list(TARGETS), default="T_CDE")
    sub.add_argument("--replicates", type=int, default=100)
    sub.add_argument("--ci", type=float, default=0.90)
    sub.add_argument("--seed", type=int, default=0)
    sub.add_argument("--threads", type=_positive_int_arg, default=None,
                     help="accepted and ignored; the replicates run in one process "
                          "per usable core")

    sub = _add_corpus_command(commands, "scaling", "rank-frequency and vocabulary-growth fits")
    sub.add_argument("--min-count", type=int, default=5)

    sub = _add_corpus_command(commands, "dynamics", "rank trajectories, entries, pairs, shares")
    sub.add_argument("--topk", type=_positive_int_arg, default=200)
    sub.add_argument("--pair-branches", type=_branch_pair_arg, default=("D", "E"))
    sub.add_argument("--window", type=_year_range_arg, default=None, help="pair window LO:HI")
    sub.add_argument("--limit", type=_positive_int_arg, default=10)

    sub = _add_corpus_command(commands, "pairs", "most frequent cross-branch descriptor pairs")
    sub.add_argument("--branches", type=_branch_pair_arg, default=("D", "E"))
    sub.add_argument("--window", type=_year_range_arg, default=None, help="pair window LO:HI")
    sub.add_argument("--limit", type=_positive_int_arg, default=10)

    sub = commands.add_parser("synth", help="generate a synthetic corpus")
    sub.add_argument("--mode", choices=list(MODES), required=True)
    sub.add_argument("--pubs", type=int, required=True, help="publications per year")
    sub.add_argument("--years", type=_synth_years_arg, required=True,
                     help="number of years, or LO:HI")
    sub.add_argument("--seed", type=int, default=0)
    sub.add_argument("--rho", type=float, default=1.0)
    sub.add_argument("--lam", type=_lam_arg, default=(2.0, 1.0, 2.0),
                     help="Poisson rates for C,D,E")
    sub.add_argument("--sigma", type=float, default=0.5,
                     help="intensity spread for sizemix mode")
    sub.add_argument("--start-year", type=int, default=2000)

    for name, sub in commands.choices.items():
        sub.add_argument("--out", required=True, help="output directory")

    return parser


# the commands that read a corpus: each writes its files from the list of the
# loaded corpus and ingest report, which it owns and may empty to free them,
# the options, the output directory and the manifest
_COMMANDS = {
    "ingest": _cmd_ingest,
    "stats": _cmd_stats,
    "mi": _cmd_mi,
    "null": _cmd_null,
    "scaling": _cmd_scaling,
    "dynamics": _cmd_dynamics,
    "pairs": _cmd_pairs,
}

# the config of each command that has one, built first so that a value it
# rejects is a usage error before ``--out`` is made or an input read
_CONFIGS = {"null": _shuffle_config, "synth": _synth_config}


def _peak_rss_mb() -> float:
    """The largest resident set of this process and of its finished workers."""
    peak = max(resource.getrusage(who).ru_maxrss
               for who in (resource.RUSAGE_SELF, resource.RUSAGE_CHILDREN))
    # kilobytes on Linux, bytes on macOS
    return peak / 2**20 if sys.platform == "darwin" else peak / 2**10


def main(argv: list[str] | None = None) -> int:
    start = time.perf_counter()
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
        if args.command in _CONFIGS:
            _CONFIGS[args.command](args)
    except SystemExit as exc:
        return int(exc.code or 0)
    except ValueError as exc:
        print(f"helixmi {args.command}: error: {exc}", file=sys.stderr)
        return 1

    out_dir = Path(args.out)
    manifest = RunManifest(command=args.command)
    manifest.config = {
        k: v for k, v in vars(args).items() if k not in {"command", "out"}
    }
    made = not out_dir.exists()
    try:
        out_dir.mkdir(parents=True, exist_ok=True)
        if args.command == "synth":
            _cmd_synth(args, out_dir, manifest)
        else:
            _COMMANDS[args.command](_load_inputs(args, manifest), args, out_dir, manifest)
    except (DataError, OSError) as exc:
        print(f"helixmi {args.command}: error: {exc}", file=sys.stderr)
        if made and out_dir.is_dir() and not any(out_dir.iterdir()):
            # a failed run leaves no empty --out of its own behind
            out_dir.rmdir()
        return 2
    manifest.stages["command_s"] = time.perf_counter() - start
    manifest.stages["peak_rss_mb"] = _peak_rss_mb()
    manifest.write(out_dir)
    return 0


def _fix_mmap_threshold() -> None:
    """Keep glibc's mmap threshold at 128 KB, so that every allocation that
    large has pages of its own, which go back to the system when it is
    freed.  glibc otherwise raises the threshold to each mapped block freed,
    up to 32 MB; numpy's large temporaries then come from the heap, and how
    much heap a command keeps depends on where its small, long-lived
    allocations fall: edits to code a command never ran moved its peak RSS
    by up to 3 MB."""
    import ctypes

    mallopt = getattr(ctypes.CDLL(None), "mallopt", None)
    if mallopt is not None:
        mallopt.argtypes = [ctypes.c_int, ctypes.c_int]
        mallopt.restype = ctypes.c_int
        mallopt(_M_MMAP_THRESHOLD, _MMAP_THRESHOLD_BYTES)


def entry() -> None:
    """Run the command of ``sys.argv``, with one OpenBLAS thread unless
    the environment already sets a thread count, and on Linux with a fixed
    mmap threshold."""
    if not any(name in os.environ for name in _BLAS_THREAD_VARIABLES):
        os.environ["OPENBLAS_NUM_THREADS"] = "1"
    if sys.platform == "linux":
        _fix_mmap_threshold()
    raise SystemExit(main())


if __name__ == "__main__":
    entry()
