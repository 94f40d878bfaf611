"""Branch-level entropy, mutual-information and scaling analytics for
MeSH-annotated publication corpora.

Each public name is imported from its module on first access (PEP 562),
so that ``import helixmi`` and the CLI's start load no numpy and only the
modules a command uses.
"""

import importlib

__version__ = "0.1.0"

# public name -> the module that defines it
_MODULE_OF = {
    **dict.fromkeys(["Corpus", "IngestReport", "Publication"], "corpus"),
    **dict.fromkeys(["BranchStats", "BranchTriple", "CountVector", "branch_stats",
                     "branch_triple", "count_map", "distribution_of_counts",
                     "wilcoxon_signed_rank"], "counts"),
    **dict.fromkeys(["branch_share_series", "detect_entries", "rank_trajectories",
                     "top_pairs"], "dynamics"),
    "DataError": "errors",
    **dict.fromkeys(["ingest_jsonl", "ingest_medline_text", "load_mesh_ascii",
                     "load_mesh_tsv"], "formats"),
    **dict.fromkeys(["JointTable", "MiSeries", "decomposition", "efficiency", "entropy",
                     "mutual_info_2", "mutual_info_3", "yearly_mi"], "infotheory"),
    **dict.fromkeys(["MeshDescriptor", "TreeNumber", "Vocabulary"], "mesh"),
    **dict.fromkeys(["NullBand", "ShuffleConfig", "null_band", "percentile",
                     "shuffle_year"], "nullmodel"),
    **dict.fromkeys(["RankTable", "ScalingFit", "heaps_fit", "marginal_returns",
                     "rank_table", "zipf_fit"], "scaling"),
    **dict.fromkeys(["SynthConfig", "synth_corpus", "synth_triples"], "synth"),
}

__all__ = sorted(_MODULE_OF)


def __getattr__(name: str):
    module = _MODULE_OF.get(name)
    if module is None:
        # also how ``from helixmi import cli`` falls through to the submodule
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(importlib.import_module(f".{module}", __name__), name)
    globals()[name] = value
    return value


def __dir__() -> list[str]:
    return sorted({*globals(), *__all__})
