import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from helixmi.corpus import corpus_canonical_bytes
from helixmi.counts import BRANCHES, corpus_triples
from helixmi.infotheory import mi_from_triples, yearly_mi
from helixmi.synth import FILLER_ID, MODES, SynthConfig, synth_corpus, synth_triples

from oracles import synth_corpus_objects


def test_corpus_matches_requested_triples():
    config = SynthConfig(mode="pairwise", pubs_per_year=60, years=3, seed=5, rho=0.5)
    per_year = synth_triples(config)
    corpus = synth_corpus(config)
    derived = corpus_triples(corpus)
    stacked = np.concatenate([per_year[y] for y in sorted(per_year)])
    # corpus publications are sorted by (year, id); ids are serial per year
    assert (derived == stacked).all()


def test_same_seed_same_corpus():
    config = SynthConfig(mode="xor", pubs_per_year=40, years=2, seed=9)
    a = synth_corpus(config)
    b = synth_corpus(config)
    assert corpus_canonical_bytes(a) == corpus_canonical_bytes(b)


def test_different_seeds_differ():
    base = dict(mode="independent", pubs_per_year=40, years=2)
    a = synth_corpus(SynthConfig(seed=1, **base))
    b = synth_corpus(SynthConfig(seed=2, **base))
    assert corpus_canonical_bytes(a) != corpus_canonical_bytes(b)


def test_every_publication_has_descriptors():
    corpus = synth_corpus(SynthConfig(mode="independent", pubs_per_year=50, years=2, seed=3))
    assert all(p.mesh_ids for p in corpus.publications)


def test_independent_mode_mi_shrinks_with_size():
    small = mi_from_triples(
        synth_triples(SynthConfig(mode="independent", pubs_per_year=200, years=1, seed=4))
    )
    large = mi_from_triples(
        synth_triples(SynthConfig(mode="independent", pubs_per_year=50_000, years=1, seed=4))
    )
    assert abs(large.records[0].t_cde) < abs(small.records[0].t_cde)
    assert large.records[0].t_cd < 0.01
    assert abs(large.records[0].t_cde) < 0.01


def test_xor_mode_full_count_approaches_minus_one():
    per_year = synth_triples(SynthConfig(mode="xor", pubs_per_year=50_000, years=1, seed=6))
    series = mi_from_triples(per_year, map_kind="full")
    assert series.records[0].t_cde == pytest.approx(-1.0, abs=0.01)


def test_xor_synergy_scales_with_coupling():
    values = []
    for rho in (0.0, 0.5, 1.0):
        per_year = synth_triples(
            SynthConfig(mode="xor", pubs_per_year=30_000, years=1, seed=14, rho=rho)
        )
        values.append(mi_from_triples(per_year).records[0].t_cde)
    assert values[0] > values[1] > values[2]
    assert abs(values[0]) < 0.01
    assert values[2] == pytest.approx(-1.0, abs=0.02)


def test_pairwise_mode_couples_only_cd():
    per_year = synth_triples(
        SynthConfig(mode="pairwise", pubs_per_year=50_000, years=1, seed=7, rho=1.0)
    )
    series = mi_from_triples(per_year, map_kind="full")
    r = series.records[0]
    assert r.t_cd == pytest.approx(r.h_c, rel=0.02)  # D copies C exactly
    assert r.t_ce < 0.01
    assert r.t_de < 0.01
    assert abs(r.t_cde) < 0.01


def test_xor_corpus_round_trip_through_yearly_mi():
    corpus = synth_corpus(SynthConfig(mode="xor", pubs_per_year=2_000, years=2, seed=8))
    series = yearly_mi(corpus, map_kind="full")
    for r in series.records:
        assert r.t_cde < -0.8


def test_sizemix_mode_couples_all_pairs_without_synergy():
    per_year = synth_triples(
        SynthConfig(mode="sizemix", pubs_per_year=50_000, years=1, seed=12, sigma=0.6)
    )
    triples = per_year[2000]
    corr = np.corrcoef(triples.T)
    assert corr[0, 1] > 0.2 and corr[0, 2] > 0.2 and corr[1, 2] > 0.2
    series = mi_from_triples(per_year, map_kind="full")
    r = series.records[0]
    assert r.t_cd > 0.05  # genuine pairwise dependence
    # but no engineered three-way structure beyond the pairwise channels
    assert r.t_cde > -0.1


def test_config_validation():
    with pytest.raises(ValueError):
        SynthConfig(mode="nope", pubs_per_year=10, years=1, seed=0)
    with pytest.raises(ValueError):
        SynthConfig(mode="xor", pubs_per_year=0, years=1, seed=0)
    with pytest.raises(ValueError):
        SynthConfig(mode="xor", pubs_per_year=10, years=1, seed=0, rho=1.5)
    with pytest.raises(ValueError):
        SynthConfig(mode="sizemix", pubs_per_year=10, years=1, seed=0, sigma=-0.1)


configs = st.builds(
    SynthConfig,
    mode=st.sampled_from(MODES),
    pubs_per_year=st.integers(1, 30),
    years=st.integers(1, 4),
    seed=st.integers(0, 2**32 - 1),
    rho=st.floats(0.0, 1.0),
    # small rates often leave every pool at size 1
    lam=st.tuples(*[st.sampled_from([0.05, 0.3, 1.0, 2.5])] * 3),
    sigma=st.floats(0.0, 1.0),
    start_year=st.integers(1950, 2020),
)


@settings(max_examples=200, deadline=None)
@given(configs)
def test_corpus_matches_object_reference(config):
    corpus = synth_corpus(config)
    reference = synth_corpus_objects(config)
    assert corpus.query_label == reference.query_label
    assert corpus.pub_ids == reference.pub_ids
    assert corpus.pub_years.tolist() == reference.pub_years.tolist()
    column_ids = corpus.vocabulary.column_ids
    assert column_ids == reference.vocabulary.column_ids
    triples = corpus_triples(corpus)
    assert (triples == corpus_triples(reference)).all()
    pool = {alpha: sum(uid[0] == alpha for uid in column_ids) for alpha in BRANCHES}
    if set(pool.values()) == {1}:
        # every pick is forced, so the random streams cannot differ
        assert corpus_canonical_bytes(corpus) == corpus_canonical_bytes(reference)
    indptr, indices = corpus.incidence
    for row, (lo, hi) in enumerate(zip(indptr[:-1], indptr[1:])):
        cols = indices[lo:hi]
        assert (np.diff(cols) > 0).all()
        uids = [column_ids[j] for j in cols]
        assert uids[-1] == FILLER_ID
        for i, alpha in enumerate(BRANCHES):
            picks = [int(uid[1:]) for uid in uids[:-1] if uid[0] == alpha]
            assert len(picks) == triples[row, i]
            assert all(0 <= j < pool[alpha] for j in picks)


def test_picks_are_uniform_within_each_count():
    """Each pool column of a branch is picked by a row with count k with
    probability k/m: a per-(branch, k, column) binomial bound at 5 sigma."""
    config = SynthConfig(mode="sizemix", pubs_per_year=3000, years=4, seed=31)
    corpus = synth_corpus(config)
    triples = corpus_triples(corpus)
    indptr, indices = corpus.incidence
    picked = np.zeros((len(corpus), len(corpus.vocabulary.column_ids)), dtype=bool)
    picked[np.repeat(np.arange(len(corpus)), np.diff(indptr)), indices] = True
    branch_of = np.array([uid[0] for uid in corpus.vocabulary.column_ids])
    checked = 0
    for i, alpha in enumerate(BRANCHES):
        columns = picked[:, branch_of == alpha]
        m = columns.shape[1]
        assert m > 4
        for k in range(m + 1):
            rows = triples[:, i] == k
            n = int(rows.sum())
            if n == 0:
                continue
            hits = columns[rows].sum(axis=0)
            p = k / m
            bound = 5.0 * np.sqrt(n * p * (1.0 - p))
            assert (np.abs(hits - n * p) <= bound).all(), (alpha, k, n, hits.tolist())
            checked += 0 < k < m and n >= 100
    assert checked >= 12
