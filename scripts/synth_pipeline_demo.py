#!/usr/bin/env python3
"""End-to-end demo on synthetic corpora with known coupling.

Generates two corpora: an xor-coupled one (planted three-way synergy)
and a size-mixture one (pairwise dependence only), then runs the
mutual-information series, the shuffling null model, the scaling fits
and the descriptor dynamics on them.  The xor corpus must come out
flagged 'below' the confidence band in every year under both the
full-count and the binary map, or the script exits 1; the size-mixture
corpus should mostly stay inside.
"""

import argparse
import csv
from pathlib import Path

from helixmi.cli import main as helixmi


def run(args):
    argv = [str(a) for a in args]
    code = helixmi(argv)
    if code != 0:
        raise SystemExit(f"step failed ({code}): {' '.join(argv)}")


def flag_summary(path):
    with open(path, encoding="utf-8") as fh:
        rows = list(csv.DictReader(fh))
    flags = [r["flag"] for r in rows]
    return {f: flags.count(f) for f in ("below", "inside", "above") if f in flags}


def main():
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--out", default="runs/demo", help="output directory tree")
    parser.add_argument("--pubs", type=int, default=2000)
    parser.add_argument("--years", type=int, default=8)
    parser.add_argument("--seed", type=int, default=7)
    parser.add_argument("--replicates", type=int, default=100)
    args = parser.parse_args()

    out = Path(args.out)
    corpora = {
        "xor": ["synth", "--mode", "xor", "--rho", "1.0"],
        "background": ["synth", "--mode", "sizemix", "--sigma", "0.5"],
    }
    for name, cmd in corpora.items():
        run(cmd + ["--pubs", args.pubs, "--years", args.years,
                   "--seed", args.seed, "--out", out / name])

    for name in corpora:
        base = out / name
        source = ["--corpus", base / "corpus.jsonl", "--mesh", base / "mesh.tsv"]
        run(["stats"] + source + ["--out", base / "stats"])
        for map_kind in ("full", "binary"):
            run(["mi"] + source + ["--map", map_kind, "--out", base / f"mi-{map_kind}"])
            run(["null"] + source + ["--map", map_kind, "--target", "T_CDE",
                 "--replicates", args.replicates, "--seed", args.seed,
                 "--out", base / f"null-{map_kind}"])
        run(["scaling"] + source + ["--min-count", "1", "--out", base / "scaling"])
        run(["dynamics"] + source + ["--topk", "50", "--out", base / "dynamics"])

    print(f"outputs under {out}/")
    missed = []
    for name in corpora:
        for map_kind in ("full", "binary"):
            summary = flag_summary(out / name / f"null-{map_kind}" / "null_band.csv")
            print(f"  {name:10s} T_CDE vs band ({map_kind:6s}): {summary}")
            if name == "xor" and summary != {"below": args.years}:
                missed.append(map_kind)
    if missed:
        raise SystemExit(f"xor synergy not below the band in every year: {', '.join(missed)}")


if __name__ == "__main__":
    main()
