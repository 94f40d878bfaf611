"""Branch-level entropy, mutual-information and scaling analytics for
MeSH-annotated publication corpora."""

__version__ = "0.1.0"

from .corpus import Corpus, IngestReport, Publication, ingest_jsonl, ingest_medline_text
from .counts import (
    BranchStats,
    BranchTriple,
    CountVector,
    branch_stats,
    branch_triple,
    count_map,
    distribution_of_counts,
    wilcoxon_signed_rank,
)
from .dynamics import branch_share_series, detect_entries, rank_trajectories, top_pairs
from .errors import DataError
from .infotheory import (
    JointTable,
    MiSeries,
    decomposition,
    efficiency,
    entropy,
    mutual_info_2,
    mutual_info_3,
    yearly_mi,
)
from .mesh import MeshDescriptor, TreeNumber, Vocabulary, load_mesh_ascii, load_mesh_tsv
from .nullmodel import NullBand, ShuffleConfig, null_band, percentile, shuffle_year
from .scaling import RankTable, ScalingFit, heaps_fit, marginal_returns, rank_table, zipf_fit
from .synth import SynthConfig, synth_corpus, synth_triples

__all__ = [
    "BranchStats",
    "BranchTriple",
    "Corpus",
    "CountVector",
    "DataError",
    "IngestReport",
    "JointTable",
    "MeshDescriptor",
    "MiSeries",
    "NullBand",
    "Publication",
    "RankTable",
    "ScalingFit",
    "ShuffleConfig",
    "SynthConfig",
    "TreeNumber",
    "Vocabulary",
    "branch_share_series",
    "branch_stats",
    "branch_triple",
    "count_map",
    "decomposition",
    "detect_entries",
    "distribution_of_counts",
    "efficiency",
    "entropy",
    "heaps_fit",
    "ingest_jsonl",
    "ingest_medline_text",
    "load_mesh_ascii",
    "load_mesh_tsv",
    "marginal_returns",
    "mutual_info_2",
    "mutual_info_3",
    "null_band",
    "percentile",
    "rank_table",
    "rank_trajectories",
    "shuffle_year",
    "synth_corpus",
    "synth_triples",
    "top_pairs",
    "wilcoxon_signed_rank",
    "yearly_mi",
    "zipf_fit",
]
