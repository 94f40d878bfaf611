import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from helixmi.counts import BRANCHES
from helixmi.infotheory import (
    JointTable,
    decomposition,
    efficiency,
    entropy,
    joint_histograms,
    mi_from_triples,
    mutual_info_2,
    mutual_info_3,
    stacked_subset_entropies,
    stacked_targets,
    subset_entropies,
    year_entropies,
    yearly_mi,
)

from conftest import make_corpus
from oracles import entropy_direct, marginal_direct, mi2_direct, mi3_direct

XOR_CELLS = {(0, 0, 0): 0.25, (0, 1, 1): 0.25, (1, 0, 1): 0.25, (1, 1, 0): 0.25}
TRIPLICATE_CELLS = {(0, 0, 0): 0.5, (1, 1, 1): 0.5}


def table3(cells):
    return JointTable(dims=("C", "D", "E"), cells=cells)


# --- strategies -------------------------------------------------------------

@st.composite
def random_table(draw, ndim=3, side=4):
    """Random joint table over a subset of an up-to side^ndim grid."""
    axes = [draw(st.integers(1, side)) for _ in range(ndim)]
    cells_all = [tuple(int(v) for v in idx) for idx in np.ndindex(*axes)]
    weights = draw(
        st.lists(st.integers(0, 20), min_size=len(cells_all), max_size=len(cells_all))
    )
    if not any(weights):
        weights[0] = 1
    total = sum(weights)
    cells = {k: w / total for k, w in zip(cells_all, weights) if w}
    dims = ("C", "D", "E")[:ndim]
    return JointTable(dims=dims, cells=cells)


@st.composite
def year_block(draw, max_rows=60):
    """One year's (n, 3) vectors: small values, negatives included, and
    optionally one outlier row with counts in the thousands."""
    small = st.integers(-3, 6)
    rows = draw(st.lists(st.tuples(small, small, small), min_size=1, max_size=max_rows))
    if draw(st.booleans()):
        big = st.integers(1000, 5000)
        rows.insert(draw(st.integers(0, len(rows))), draw(st.tuples(big, big, big)))
    return np.array(rows, dtype=np.int64)


def observed_cells(vectors):
    counts = {}
    for row in vectors.tolist():
        counts[tuple(row)] = counts.get(tuple(row), 0) + 1
    return {k: c / len(vectors) for k, c in counts.items()}


# --- fixtures from direct evaluation ---------------------------------------

def test_entropy_uniform_four_cells():
    t = JointTable(dims=("C",), cells={(i,): 0.25 for i in range(4)})
    assert entropy(t) == pytest.approx(2.0, abs=1e-12)


def test_entropy_single_cell():
    t = JointTable(dims=("C",), cells={(0,): 1.0})
    assert entropy(t) == 0.0


def test_entropy_quarter_three_quarters():
    t = JointTable(dims=("C",), cells={(0,): 0.25, (1,): 0.75})
    # frozen from the direct-summation oracle
    assert entropy(t) == pytest.approx(0.8112781244591328, abs=1e-12)


def test_mutual_info_2_product_table():
    px = {0: 0.3, 1: 0.7}
    py = {0: 0.6, 1: 0.4}
    cells = {(i, j): px[i] * py[j] for i in px for j in py}
    t = JointTable(dims=("C", "D"), cells=cells)
    assert mutual_info_2(t) == pytest.approx(0.0, abs=1e-12)


def test_mutual_info_2_perfect_copy():
    t = JointTable(dims=("C", "D"), cells={(0, 0): 0.5, (1, 1): 0.5})
    assert mutual_info_2(t) == pytest.approx(1.0, abs=1e-12)


def test_mutual_info_2_four_cell_fixture():
    cells = {(0, 0): 0.4, (0, 1): 0.1, (1, 0): 0.1, (1, 1): 0.4}
    t = JointTable(dims=("C", "D"), cells=cells)
    # frozen from the direct-summation oracle
    assert mutual_info_2(t) == pytest.approx(0.2780719051126379, abs=1e-12)


def test_mutual_info_3_independent_product():
    p = {0: 0.5, 1: 0.5}
    cells = {(i, j, k): p[i] * p[j] * p[k] for i in p for j in p for k in p}
    assert mutual_info_3(table3(cells)) == pytest.approx(0.0, abs=1e-12)


def test_mutual_info_3_xor():
    assert mutual_info_3(table3(XOR_CELLS)) == pytest.approx(-1.0, abs=1e-12)


def test_mutual_info_3_triplicate():
    assert mutual_info_3(table3(TRIPLICATE_CELLS)) == pytest.approx(1.0, abs=1e-12)


def test_decomposition_xor():
    d = decomposition(table3(XOR_CELLS))
    assert d.pairwise_sum == pytest.approx(0.0, abs=1e-12)
    assert d.subadditivity_gap == pytest.approx(-1.0, abs=1e-12)
    assert d.t3 == pytest.approx(-1.0, abs=1e-12)


def test_decomposition_independent():
    p = {0: 0.25, 1: 0.75}
    cells = {(i, j, k): p[i] * p[j] * p[k] for i in p for j in p for k in p}
    d = decomposition(table3(cells))
    assert d.subadditivity_gap == pytest.approx(-d.pairwise_sum, abs=1e-12)
    assert d.pairwise_sum == pytest.approx(0.0, abs=1e-12)


# --- properties -------------------------------------------------------------

@settings(max_examples=80, deadline=None)
@given(random_table())
def test_oracle_equivalence_3d(t):
    assert entropy(t) == pytest.approx(entropy_direct(t.cells), abs=1e-12)
    assert mutual_info_3(t) == pytest.approx(mi3_direct(t.cells), abs=1e-12)


@settings(max_examples=80, deadline=None)
@given(random_table(ndim=2))
def test_oracle_equivalence_2d(t):
    raw = mutual_info_2(t, clamp=False)
    assert raw == pytest.approx(mi2_direct(t.cells), abs=1e-12)
    assert mutual_info_2(t) >= 0.0


@settings(max_examples=80, deadline=None)
@given(random_table())
def test_subadditivity(t):
    h_joint = entropy(t)
    h_sum = sum(entropy(t.marginal((d,))) for d in t.dims)
    assert h_joint <= h_sum + 1e-12
    for pair in (("C", "D"), ("C", "E"), ("D", "E")):
        h_pair = entropy(t.marginal(pair))
        assert h_pair <= sum(entropy(t.marginal((d,))) for d in pair) + 1e-12


@settings(max_examples=80, deadline=None)
@given(random_table())
def test_decomposition_identity(t):
    d = decomposition(t)
    assert d.subadditivity_gap <= 1e-12
    assert abs(d.t3 - mutual_info_3(t)) < 1e-9
    assert d.pairwise_sum >= 0.0


@settings(max_examples=100, deadline=None)
@given(random_table(), st.randoms(use_true_random=False))
def test_permutation_invariance(t, rnd):
    before = (
        entropy(t),
        mutual_info_3(t),
        tuple(entropy(t.marginal((d,))) for d in t.dims),
    )
    mapping = []
    for axis in range(3):
        values = sorted({k[axis] for k in t.cells})
        shuffled = values[:]
        rnd.shuffle(shuffled)
        mapping.append(dict(zip(values, shuffled)))
    recoded = {
        tuple(mapping[a][k[a]] for a in range(3)): p for k, p in t.cells.items()
    }
    t2 = JointTable(dims=t.dims, cells=recoded)
    after = (
        entropy(t2),
        mutual_info_3(t2),
        tuple(entropy(t2.marginal((d,))) for d in t2.dims),
    )
    assert before[0] == pytest.approx(after[0], abs=1e-12)
    assert before[1] == pytest.approx(after[1], abs=1e-12)
    for hb, ha in zip(before[2], after[2]):
        assert hb == pytest.approx(ha, abs=1e-12)


@settings(max_examples=100, deadline=None)
@given(random_table())
def test_marginals_are_valid_tables(t):
    for dims in (("C",), ("D",), ("E",), ("C", "D"), ("C", "E"), ("D", "E")):
        m = t.marginal(dims)
        assert abs(sum(m.cells.values()) - 1.0) <= 1e-12
        assert all(0 < p <= 1.0 + 1e-15 for p in m.cells.values())


def test_table_keyed_by_large_integers():
    cells = {(-(10**12), 7): 0.25, (10**12, 7): 0.25, (10**12, 10**15): 0.5}
    t = JointTable(dims=("C", "D"), cells=cells)
    assert entropy(t) == pytest.approx(1.5, abs=1e-12)
    assert mutual_info_2(t) == pytest.approx(mi2_direct(cells), abs=1e-12)


def test_table_validation_rejects_bad_sum():
    with pytest.raises(ValueError):
        JointTable(dims=("C",), cells={(0,): 0.5, (1,): 0.4})


def test_table_validation_rejects_zero_prob():
    with pytest.raises(ValueError):
        JointTable(dims=("C",), cells={(0,): 0.0, (1,): 1.0})


# --- efficiency -------------------------------------------------------------

def test_efficiency_uniform_is_one():
    assert efficiency([7] * 10) == pytest.approx(1.0, abs=1e-12)


def test_efficiency_single_descriptor_is_zero():
    assert efficiency([42]) == 0.0


def test_efficiency_three_one_split():
    assert efficiency([3, 1]) == pytest.approx(0.8112781244591328, abs=1e-12)


def test_efficiency_rejects_all_zero():
    with pytest.raises(ValueError):
        efficiency([0, 0, 0])


# --- yearly series ----------------------------------------------------------

def test_fast_path_matches_joint_table_route():
    rng = np.random.default_rng(42)
    for _ in range(25):
        vectors = rng.integers(0, 4, size=(rng.integers(1, 80), 3))
        h = year_entropies(vectors)
        t = JointTable.from_observations(BRANCHES, map(tuple, vectors))
        assert h["h_cde"] == pytest.approx(entropy(t), abs=1e-12)
        assert h["h_c"] == pytest.approx(entropy(t.marginal(("C",))), abs=1e-12)
        assert h["h_cd"] == pytest.approx(entropy(t.marginal(("C", "D"))), abs=1e-12)
        assert h["h_de"] == pytest.approx(entropy(t.marginal(("D", "E"))), abs=1e-12)
        t3 = (
            h["h_c"] + h["h_d"] + h["h_e"]
            - h["h_cd"] - h["h_ce"] - h["h_de"]
            + h["h_cde"]
        )
        assert t3 == pytest.approx(mutual_info_3(t), abs=1e-12)


def test_yearly_mi_single_publication_year(tiny_vocab):
    corpus = make_corpus(tiny_vocab, [("1", 2000, ["C1", "D1"])])
    series = yearly_mi(corpus)
    (record,) = series.records
    assert record.low_support
    assert record.n_obs == 1
    for value in (record.h_c, record.h_cde, record.t_cd, record.t_cde):
        assert value == 0.0


def test_yearly_mi_symmetric_three_cell():
    k = 10
    vectors = np.array([(1, 0, 0)] * k + [(0, 1, 0)] * k + [(0, 0, 1)] * k)
    series = mi_from_triples({2000: vectors})
    (record,) = series.records
    t = JointTable.from_observations(BRANCHES, map(tuple, vectors))
    assert record.t_cde == pytest.approx(mi3_direct(t.cells), abs=1e-12)
    assert record.t_cd == pytest.approx(max(mi2_direct(t.marginal(("C", "D")).cells), 0.0), abs=1e-12)


def test_yearly_mi_decomposition_identity_per_record():
    rng = np.random.default_rng(3)
    per_year = {
        2000 + y: rng.integers(0, 5, size=(200, 3)) for y in range(4)
    }
    for kind in ("binary", "median", "full"):
        series = mi_from_triples(per_year, map_kind=kind)
        for r in series.records:
            pairwise = r.t_cd + r.t_ce + r.t_de
            gap = r.h_cde - r.h_c - r.h_d - r.h_e
            assert abs(r.t_cde - (pairwise + gap)) < 1e-9


def test_yearly_mi_empty_vector_switch(tiny_vocab):
    corpus = make_corpus(
        tiny_vocab,
        [("1", 2000, ["C1"]), ("2", 2000, ["Z1"]), ("3", 2000, ["C1", "E1"])],
    )
    with_empty = yearly_mi(corpus, include_empty=True)
    without = yearly_mi(corpus, include_empty=False)
    assert with_empty.records[0].n_obs == 3
    assert without.records[0].n_obs == 2


def test_yearly_mi_median_uses_pooled_medians(tiny_vocab):
    # years with different C profiles: pooled median decides the threshold
    rows = []
    for i in range(6):
        rows.append((f"a{i}", 2000, ["C1", "C2"]))
        rows.append((f"b{i}", 2001, ["C1"]))
    corpus = make_corpus(tiny_vocab, rows)
    series = yearly_mi(corpus, map_kind="median")
    assert [r.year for r in series.records] == [2000, 2001]


# A (5000, 5000, 5000) row among 1300 small ones: axis values span more
# than the rows, yet the histogram holds only the distinct values.
OUTLIER_BLOCK = np.vstack([np.tile(np.arange(4), (3, 325)).T, [[5000, 5000, 5000]]])


@settings(max_examples=150, deadline=None)
@given(year_block())
@example(OUTLIER_BLOCK)
def test_year_entropies_match_oracle(vectors):
    h = year_entropies(vectors)
    cells = observed_cells(vectors)
    names = {"h_c": (0,), "h_d": (1,), "h_e": (2,), "h_cd": (0, 1), "h_ce": (0, 2),
             "h_de": (1, 2), "h_cde": (0, 1, 2)}
    assert list(h) == list(names)
    for name, axes in names.items():
        assert h[name] == pytest.approx(
            entropy_direct(marginal_direct(cells, axes)), abs=1e-12
        )


@settings(max_examples=100, deadline=None)
@given(st.lists(year_block(max_rows=30), min_size=1, max_size=3), st.booleans())
@example([np.array([[1, 0, 2], [0, 0, 0]]), np.zeros((2, 3), dtype=np.int64)], False)
def test_mi_from_triples_matches_oracle(blocks, include_empty):
    series = mi_from_triples({2000 + i: b for i, b in enumerate(blocks)},
                             include_empty=include_empty)
    # without the empty vectors, a year whose vectors are all empty is absent
    kept = {2000 + i: b if include_empty else b[b.any(axis=1)] for i, b in enumerate(blocks)}
    kept = {year: vectors for year, vectors in kept.items() if len(vectors)}
    assert [record.year for record in series.records] == list(kept)
    for record, vectors in zip(series.records, kept.values()):
        cells = observed_cells(vectors)
        assert record.n_obs == len(vectors)
        for value, axes in ((record.t_cd, (0, 1)), (record.t_ce, (0, 2)),
                            (record.t_de, (1, 2))):
            pair = marginal_direct(cells, axes)
            assert value == pytest.approx(max(mi2_direct(pair), 0.0), abs=1e-12)
        assert record.t_cde == pytest.approx(mi3_direct(cells), abs=1e-12)


def test_negative_counts_do_not_collide():
    vectors = np.array([[-1, 2, 0], [0, -1, 0], [1, 1, 1], [0, 0, 0]])
    h = year_entropies(vectors)
    table = JointTable.from_observations(BRANCHES, map(tuple, vectors))
    assert h["h_cd"] == pytest.approx(entropy(table.marginal(("C", "D"))), abs=1e-12)
    assert h["h_cd"] == pytest.approx(2.0, abs=1e-12)


def test_stacked_entropies_keep_the_single_table_bits():
    # a D marginal (zipf62k seed 1, year 2010, replicate 66) whose entropy
    # comes out one bit off when log2 runs on a contiguous copy
    d = np.array([341, 856, 1003, 809, 522, 261, 114, 46, 13, 4, 3])
    stack = np.zeros((3, 12), dtype=np.int64)
    stack[0, :2] = [5, 1]
    stack[1, :11] = d
    stack[2] = np.arange(1, 13)
    h = stacked_subset_entropies(stack)[(0,)]
    p = np.sort(d / d.sum())[::-1]
    assert h[1] == subset_entropies(d)[(0,)] == -(p * np.log2(p)).sum()
    assert list(h) == [subset_entropies(row)[(0,)] for row in stack]


@settings(max_examples=80, deadline=None)
@given(st.lists(year_block(max_rows=40), min_size=1, max_size=6), st.data())
def test_stacked_tables_equal_single_tables(blocks, data):
    n = min(len(b) for b in blocks)
    stack = np.stack([b[:n] for b in blocks])
    if data.draw(st.booleans()):
        stack = np.abs(stack)
    hists = stack[:, :, :data.draw(st.integers(1, 3))]
    stacked = stacked_subset_entropies(joint_histograms(hists))
    for i, rows in enumerate(hists):
        single = subset_entropies(joint_histograms(rows[None])[0])
        assert {s: h[i] for s, h in stacked.items()} == single


@settings(max_examples=40, deadline=None)
@given(st.lists(year_block(max_rows=40), min_size=1, max_size=4), st.booleans())
def test_joint_histograms_overwrite_a_given_code_array(blocks, include_empty):
    # a view of a larger buffer that holds an earlier, larger block's codes
    n = min(len(b) for b in blocks)
    stack = np.abs(np.stack([b[:n] for b in blocks]))
    buffer = np.full(len(stack) * n + 7, 12345, dtype=np.intp)
    code = buffer[:len(stack) * n].reshape(len(stack), n)
    assert np.array_equal(joint_histograms(stack, code=code), joint_histograms(stack))
    code[:] = -1
    assert np.array_equal(stacked_targets(stack, include_empty, code),
                          stacked_targets(stack, include_empty), equal_nan=True)


def test_stacked_targets_of_an_emptied_block_are_nan():
    block = np.array([[[0, 0, 0], [0, 0, 0]], [[1, 0, 2], [0, 0, 0]]])
    values = stacked_targets(block, include_empty=False)
    assert np.isnan(values[:, 0]).all()
    (record,) = mi_from_triples({2000: block[1]}, include_empty=False).records
    assert list(values[:, 1]) == [record.t_cd, record.t_ce, record.t_de, record.t_cde]
