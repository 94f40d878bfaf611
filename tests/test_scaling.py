import csv
import io
import json
from dataclasses import asdict
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from helixmi import cli
from helixmi.corpus import year_volumes, yearly_sizes
from helixmi.errors import DataError
from helixmi.scaling import (
    RankEntry,
    RankTable,
    _ols_loglog,
    heaps_fit,
    marginal_returns,
    rank_table,
    zipf_fit,
)

from conftest import make_corpus, make_vocab
from oracles import ols_loglog_scipy


def synthetic_table(counts):
    entries = [
        RankEntry(rank=i, descriptor_id=f"d{i:04d}", count=float(c))
        for i, c in enumerate(counts, start=1)
    ]
    return RankTable(scope="all", entries=entries)


def test_rank_table_tie_break(tiny_vocab):
    corpus = make_corpus(
        tiny_vocab,
        [
            ("1", 2000, ["C1", "C2"]),
            ("2", 2000, ["C1", "C2"]),
            ("3", 2000, ["C1", "C2"]),
            ("4", 2000, ["C1", "C2"]),
            ("5", 2000, ["C1", "C2", "D1"]),
        ],
    )
    table = rank_table(corpus)
    assert [(e.rank, e.descriptor_id, e.count) for e in table.entries] == [
        (1, "C1", 5),
        (2, "C2", 5),
        (3, "D1", 1),
    ]


def test_rank_table_single_descriptor(tiny_vocab):
    corpus = make_corpus(tiny_vocab, [("1", 2000, ["C1"])])
    table = rank_table(corpus)
    assert table.entries == [RankEntry(rank=1, descriptor_id="C1", count=1)]


def test_rank_table_is_permutation(tiny_vocab):
    rng = np.random.default_rng(17)
    pool = ["C1", "C2", "D1", "D2", "E1", "E2", "CE1", "Z1"]
    rows = []
    for i in range(50):
        k = int(rng.integers(1, 5))
        rows.append((str(i), 2000, list(rng.choice(pool, size=k, replace=False))))
    corpus = make_corpus(tiny_vocab, rows)
    table = rank_table(corpus)
    ids = [e.descriptor_id for e in table.entries]
    assert len(ids) == len(set(ids))
    assert [e.rank for e in table.entries] == list(range(1, len(ids) + 1))
    counts = [e.count for e in table.entries]
    assert counts == sorted(counts, reverse=True)


def test_zipf_exact_unit_exponent():
    counts = [1000 * r**-1.0 for r in range(1, 101)]
    fit = zipf_fit(synthetic_table(counts), min_count=0)
    assert fit.exponent == pytest.approx(1.0, abs=1e-9)
    assert fit.prefactor == pytest.approx(1000.0, rel=1e-9)
    assert fit.stderr_exponent == pytest.approx(0.0, abs=1e-9)
    assert fit.r_squared == pytest.approx(1.0, abs=1e-9)


def test_zipf_exact_other_exponent():
    counts = [500 * r**-0.8 for r in range(1, 61)]
    fit = zipf_fit(synthetic_table(counts), min_count=0)
    assert fit.exponent == pytest.approx(0.8, abs=1e-9)
    assert fit.prefactor == pytest.approx(500.0, rel=1e-9)


def test_zipf_min_count_restricts_range():
    counts = [1000 * r**-1.0 for r in range(1, 501)]
    fit = zipf_fit(synthetic_table(counts), min_count=5)
    assert fit.fit_range[1] == 200.0  # 1000/r >= 5 up to r = 200
    assert fit.n_points == 200


def test_zipf_too_few_points():
    with pytest.raises(ValueError):
        zipf_fit(synthetic_table([10, 1]), min_count=5)


def test_heaps_exact():
    m = np.logspace(2, 5, num=10)
    pairs = [(mi, 2.0 * mi**0.7) for mi in m]
    fit = heaps_fit(pairs)
    assert fit.exponent == pytest.approx(0.7, abs=1e-9)
    assert fit.prefactor == pytest.approx(2.0, rel=1e-9)


def test_heaps_every_token_new():
    pairs = [(m, m) for m in (10, 100, 1000, 10000)]
    fit = heaps_fit(pairs)
    assert fit.exponent == pytest.approx(1.0, abs=1e-9)
    assert fit.prefactor == pytest.approx(1.0, rel=1e-9)


def test_heaps_too_few_points():
    with pytest.raises(ValueError):
        heaps_fit([(10, 5), (100, 20)])


def test_heaps_identical_sizes_are_a_data_error():
    # every year the same M: no line through the points has a slope
    with pytest.raises(DataError, match="one x value"):
        heaps_fit([(9, 3), (9, 3), (9, 3)])


positive = st.floats(1e-3, 1e9, allow_nan=False, allow_infinity=False)


@st.composite
def loglog_points(draw):
    n = draw(st.integers(3, 40))
    x = draw(st.lists(positive, min_size=n, max_size=n))
    y = draw(st.lists(positive, min_size=n, max_size=n))
    return np.array(x), np.array(y)


@settings(max_examples=300, deadline=None)
@given(loglog_points())
# exact collinear points whose unclipped r rounds to just above 1
@example((np.array([35.0, 145.0, 512.0, 755.0, 950.0]),
          np.array([35.0, 145.0, 512.0, 755.0, 950.0]) ** 3))
def test_ols_matches_linregress_bit_for_bit(points):
    x, y = points
    assume(np.log10(x).max() != np.log10(x).min())
    # a constant y is not fitted (test_ols_constant_y_is_undefined)
    assume(np.log10(y).max() != np.log10(y).min())
    np.testing.assert_array_equal(np.array(_ols_loglog(x, y)), np.array(ols_loglog_scipy(x, y)))


@settings(max_examples=300, deadline=None)
@given(st.lists(positive, min_size=3, max_size=40, unique=True), positive)
def test_ols_constant_y_is_undefined(xs, y):
    x = np.array(xs)
    assume(np.log10(x).max() != np.log10(x).min())
    slope, intercept, stderr, r2 = _ols_loglog(x, np.full(len(x), y))
    assert slope == 0.0 and not np.signbit(slope)
    assert intercept == np.log10(y)
    assert np.isnan(stderr) and np.isnan(r2)


def test_ols_constant_y_has_no_correlation():
    slope, intercept, stderr, r2 = _ols_loglog(np.array([10.0, 100.0, 1000.0]), np.full(3, 4.0))
    assert slope == 0.0
    assert intercept == np.log10(4.0)
    assert np.isnan(stderr) and np.isnan(r2)


def test_noisy_recovery_within_tolerance():
    rng = np.random.default_rng(2024)
    m = np.logspace(2, 5, num=60)
    noise = rng.normal(0.0, 0.1, size=len(m))
    pairs = [(mi, 2.0 * mi**0.7 * np.exp(e)) for mi, e in zip(m, noise)]
    fit = heaps_fit(pairs)
    assert abs(fit.exponent - 0.7) < 0.05

    counts = 1000.0 * np.arange(1, 101) ** -1.0 * np.exp(
        rng.normal(0.0, 0.1, size=100)
    )
    fit = zipf_fit(synthetic_table(counts), min_count=0)
    assert abs(fit.exponent - 1.0) < 0.05


def test_scale_invariance():
    counts = [800 * r**-0.9 for r in range(1, 81)]
    base = zipf_fit(synthetic_table(counts), min_count=0)
    scaled = zipf_fit(synthetic_table([c * 37.0 for c in counts]), min_count=0)
    assert scaled.exponent == pytest.approx(base.exponent, abs=1e-9)
    assert scaled.prefactor == pytest.approx(base.prefactor * 37.0, rel=1e-9)

    pairs = [(m, 2.0 * m**0.7) for m in np.logspace(2, 4, num=12)]
    base = heaps_fit(pairs)
    scaled = heaps_fit([(m * 10.0, v) for m, v in pairs])
    assert scaled.exponent == pytest.approx(base.exponent, abs=1e-9)


class TestMarginalReturns:
    def test_linear_regime(self):
        fit = heaps_fit([(m, m) for m in (10, 100, 1000)])
        assert marginal_returns(fit, 5.0) == pytest.approx(1.0, abs=1e-9)
        assert marginal_returns(fit, 500.0) == pytest.approx(1.0, abs=1e-9)

    def test_closed_form_value(self):
        fit = heaps_fit([(m, m**0.5) for m in (10.0, 100.0, 1000.0, 10000.0)])
        # b = 1, beta = 1/2: dM/dV = V^(1/beta - 1) = V
        assert marginal_returns(fit, 4.0) == pytest.approx(4.0, rel=1e-9)

    def test_increasing_for_sublinear(self):
        fit = heaps_fit([(m, 2.0 * m**0.7) for m in np.logspace(1, 5, num=9)])
        values = [marginal_returns(fit, v) for v in (10.0, 100.0, 1000.0)]
        assert values[0] < values[1] < values[2]

    def test_rejects_nonpositive_exponent(self):
        fit = heaps_fit([(m, 2.0 * m**0.7) for m in (10, 100, 1000)])
        bad = type(fit)(
            exponent=0.0,
            prefactor=fit.prefactor,
            stderr_exponent=0.0,
            r_squared=1.0,
            fit_range=fit.fit_range,
            n_points=fit.n_points,
        )
        with pytest.raises(ValueError):
            marginal_returns(bad, 10.0)


# ---------------------------------------------------------------------------
# The scaling command writes, from arrays, what the tables give
# ---------------------------------------------------------------------------

# ids that CSV quotes, or not
SCALING_VOCAB = make_vocab({
    "C1": ["C04.100"], "C,2": ["C08.200"], 'D"3': ["D02.300"], "D 4": ["D03.400"],
    "E\n5": ["E05.500"], "E6": ["E07.600"], "CE7": ["C04.700", "E05.800"], "Z8": ["Z01.900"],
})


@st.composite
def scaling_corpora(draw):
    pubs = draw(st.lists(
        st.tuples(st.integers(2000, 2005),
                  st.lists(st.sampled_from(sorted(SCALING_VOCAB.column_ids)), min_size=1,
                           unique=True)),
        min_size=1, max_size=60,
    ))
    return make_corpus(SCALING_VOCAB, [(f"p{i:03d}", y, ids) for i, (y, ids) in enumerate(pubs)])


def csv_bytes(header, rows):
    text = io.StringIO()
    writer = csv.writer(text, lineterminator="\n")
    writer.writerow(header)
    writer.writerows([[str(v) for v in row] for row in rows])
    return text.getvalue().encode("utf-8")


@settings(max_examples=150, deadline=None)
@given(scaling_corpora(), st.integers(1, 6))
def test_scaling_command_writes_the_table_bytes(tmp_path_factory, corpus, min_count):
    """``zipf_points.csv``, ``heaps_points.csv`` and ``scaling.json`` hold
    the bytes built from ``rank_table`` and ``yearly_sizes``, or the
    command raises the error the fits raise on those tables."""
    out = tmp_path_factory.mktemp("scaling")
    args = SimpleNamespace(min_count=min_count)
    table = rank_table(corpus)
    sizes = yearly_sizes(corpus)
    try:
        fits = {"zipf": asdict(zipf_fit(table, min_count=min_count)),
                "heaps": asdict(heaps_fit([(r.total_descriptors, r.distinct_descriptors)
                                           for r in sizes]))}
    except DataError as exc:
        with pytest.raises(DataError) as raised:
            cli._cmd_scaling([corpus, None], args, out, cli.RunManifest("scaling"))
        assert str(raised.value) == str(exc)
        return
    cli._cmd_scaling([corpus, None], args, out, cli.RunManifest("scaling"))
    assert (out / "scaling.json").read_text(encoding="utf-8") == (
        json.dumps(fits, indent=2, sort_keys=True) + "\n")
    assert (out / "zipf_points.csv").read_bytes() == csv_bytes(
        ["rank", "descriptor", "count"],
        [[e.rank, e.descriptor_id, e.count] for e in table.entries])
    assert (out / "heaps_points.csv").read_bytes() == csv_bytes(
        ["year", "M_q", "V_q"],
        [[r.year, r.total_descriptors, r.distinct_descriptors] for r in sizes])


def test_scope_counts_read_only_their_year(tiny_vocab):
    corpus = make_corpus(tiny_vocab, [("1", 2000, ["C1", "D1"]), ("2", 2001, ["C1"]),
                                      ("3", 2001, ["E1", "C1"])])
    assert rank_table(corpus, 2001).entries == [RankEntry(1, "C1", 2), RankEntry(2, "E1", 1)]
    assert rank_table(corpus, 1999).entries == []
    total, distinct = year_volumes(corpus)
    assert (total.tolist(), distinct.tolist()) == ([2, 3], [2, 2])
    # neither one scope's counts nor the yearly volumes build every year's counts
    assert "year_counts" not in corpus.__dict__
