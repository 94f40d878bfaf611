import math
import multiprocessing
import sys
import threading
import tracemalloc
from collections import Counter
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from helixmi import nullmodel
from helixmi.counts import pooled_branch_stats
from helixmi.infotheory import mi_from_triples
from helixmi.nullmodel import (
    ShuffleConfig,
    null_band,
    null_band_from_triples,
    percentile,
    replicate_rng,
    replicate_slice,
    replicate_values,
    shuffle_year,
)
from helixmi.synth import SynthConfig, synth_corpus, synth_triples

from oracles import null_values_loop


def random_triples(rng, n, max_count=5):
    return rng.integers(0, max_count + 1, size=(n, 3)).astype(np.int64)


class TestShuffleYear:
    def test_single_publication_is_fixed_point(self):
        triples = np.array([[3, 1, 2]], dtype=np.int64)
        rng = replicate_rng(0, 0)
        assert (shuffle_year(triples, rng) == triples).all()

    @pytest.mark.parametrize("seed", range(5))
    def test_constraints_exact(self, seed):
        rng = np.random.default_rng(seed)
        triples = random_triples(rng, 200)
        shuffled = shuffle_year(triples, replicate_rng(seed, 0))
        assert (shuffled.sum(axis=0) == triples.sum(axis=0)).all()
        assert (shuffled.sum(axis=1) == triples.sum(axis=1)).all()
        assert (shuffled >= 0).all()

    def test_mean_preserved_median_can_move(self):
        # two-publication pool: totals C=2, D=2; per-pub totals 2, 2
        triples = np.array([[2, 0, 0], [0, 2, 0]], dtype=np.int64)
        seen = set()
        for r in range(200):
            out = shuffle_year(triples, replicate_rng(1, r))
            assert out[:, 0].mean() == triples[:, 0].mean()
            seen.add(tuple(map(tuple, out)))
        # the mixed outcome (1,1,0)/(1,1,0) must be reachable
        assert ((1, 1, 0), (1, 1, 0)) in seen

    def test_outcomes_follow_hypergeometric_law(self):
        # first publication draws 2 labels from a pool of 2 C's and 2 D's:
        # P(k C's) = C(2,k) * C(2,2-k) / C(4,2) = (1, 4, 1) / 6
        triples = np.array([[2, 0, 0], [0, 2, 0]], dtype=np.int64)
        n = 6000
        counts = Counter()
        for r in range(n):
            out = shuffle_year(triples, replicate_rng(2, r))
            counts[int(out[0, 0])] += 1
        for k, p in {0: 1 / 6, 1: 4 / 6, 2: 1 / 6}.items():
            sigma = math.sqrt(n * p * (1 - p))
            assert abs(counts[k] - n * p) <= 4 * sigma

    def test_zero_size_publications_stay_zero(self):
        triples = np.array([[0, 0, 0], [1, 2, 0], [0, 0, 0]], dtype=np.int64)
        out = shuffle_year(triples, replicate_rng(3, 0))
        assert (out[0] == 0).all()
        assert (out[2] == 0).all()
        assert out[1].sum() == 3

    @settings(max_examples=60, deadline=None)
    @given(
        st.lists(
            st.tuples(st.integers(0, 8), st.integers(0, 8), st.integers(0, 8)),
            min_size=1,
            max_size=40,
        ),
        st.integers(0, 2**32 - 1),
    )
    def test_constraints_hold_for_any_year(self, rows, seed):
        triples = np.array(rows, dtype=np.int64)
        shuffled = shuffle_year(triples, np.random.default_rng(seed))
        assert (shuffled.sum(axis=0) == triples.sum(axis=0)).all()
        assert (shuffled.sum(axis=1) == triples.sum(axis=1)).all()
        assert (shuffled >= 0).all()

    @settings(max_examples=60, deadline=None)
    @given(
        st.lists(
            st.tuples(st.integers(0, 8), st.integers(0, 8), st.integers(0, 8)),
            max_size=40,
        ),
        st.integers(0, 2**32 - 1),
    )
    def test_deals_one_shuffled_pool_in_publication_order(self, rows, seed):
        # the per-(seed, replicate) stream: one rng.shuffle of the
        # branch-sorted label pool, dealt out in consecutive runs
        pool = np.array([b for b in range(3) for row in rows for _ in range(row[b])],
                        dtype=np.int64)
        np.random.default_rng(seed).shuffle(pool)
        expected, pos = [], 0
        for row in rows:
            labels = pool[pos:pos + sum(row)].tolist()
            pos += sum(row)
            expected.append([labels.count(b) for b in range(3)])
        triples = np.array(rows, dtype=np.int64).reshape(-1, 3)
        shuffled = shuffle_year(triples, np.random.default_rng(seed))
        assert shuffled.dtype == triples.dtype
        assert shuffled.tolist() == expected


class TestPercentile:
    def test_five_of_one_hundred(self):
        values = list(range(1, 101))
        assert percentile(values, 0.05) == 5

    def test_single_value(self):
        for p in (0.01, 0.5, 0.99):
            assert percentile([7.5], p) == 7.5

    def test_ninety_five_of_ten(self):
        assert percentile(list(range(1, 11)), 0.95) == 10

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            percentile([], 0.5)


class TestNullBand:
    def test_requires_known_target(self):
        per_year = {2000: np.array([[1, 0, 0], [0, 1, 1]], dtype=np.int64)}
        with pytest.raises(ValueError):
            null_band_from_triples(per_year, ShuffleConfig(seed=1), "T_XY")

    def test_replicate_count_validated(self):
        with pytest.raises(ValueError):
            ShuffleConfig(replicates=1)

    def test_band_orders_and_flags(self):
        per_year = synth_triples(
            SynthConfig(mode="independent", pubs_per_year=120, years=3, seed=9)
        )
        band = null_band_from_triples(
            per_year, ShuffleConfig(replicates=50, seed=4), "T_CD"
        )
        assert [r.year for r in band.rows] == [2000, 2001, 2002]
        for row in band.rows:
            assert row.lo <= row.mean_rand <= row.hi
            expected = (
                "above" if row.observed > row.hi
                else "below" if row.observed < row.lo
                else "inside"
            )
            assert row.flag == expected

    def test_adding_replicates_keeps_early_ones(self):
        per_year = {2000: random_triples(np.random.default_rng(0), 80)}
        results = {}
        for reps in (10, 20):
            values = []
            for r in range(reps):
                rng = replicate_rng(5, r)
                values.append(shuffle_year(per_year[2000], rng).tobytes())
            results[reps] = values
        assert results[20][:10] == results[10]

    def test_year_missing_from_a_replicate_is_undefined(self):
        # under the median map some shuffles leave every vector of 2000
        # empty, so include_empty=False drops the year from that replicate
        per_year = {
            2000: np.array([[2, 0, 0], [0, 2, 0]], dtype=np.int64),
            2001: np.array([[1, 1, 1]] * 9, dtype=np.int64),
        }
        config = ShuffleConfig(
            replicates=20, seed=1, map_kind="median", include_empty=False
        )
        (row,) = null_band_from_triples(per_year, config, "T_CD").rows
        assert row.year == 2000
        assert row.flag == "undefined"
        assert math.isnan(row.mean_rand) and math.isnan(row.lo) and math.isnan(row.hi)

    def test_band_reports_undefined_replicates_and_dropped_years(self):
        per_year = {
            2000: np.array([[2, 0, 0], [0, 2, 0]], dtype=np.int64),
            2001: np.array([[1, 1, 1]] * 9, dtype=np.int64),
        }
        config = ShuffleConfig(
            replicates=20, seed=1, map_kind="median", include_empty=False
        )
        band = null_band_from_triples(per_year, config, "T_CD")
        assert band.dropped_years == [2001]
        values = null_values_loop(per_year, config, pooled_branch_stats(per_year), [2000])
        missing = int(np.isnan(values[0, :, 0]).sum())
        assert 0 < missing < 20
        assert band.rows[0].undefined_replicates == missing

    def test_every_target_comes_from_one_run(self):
        per_year = synth_triples(
            SynthConfig(mode="pairwise", pubs_per_year=60, years=3, seed=5)
        )
        config = ShuffleConfig(replicates=12, seed=8)
        years = sorted(per_year)
        values, _ = replicate_values(per_year, config, None, years)
        for t, target in enumerate(nullmodel.TARGETS):
            band = null_band_from_triples(per_year, config, target)
            assert [r.mean_rand for r in band.rows] == [
                float(values[t, :, i].mean()) for i in range(len(years))
            ]

    def test_xor_coupling_flagged_below(self):
        corpus = synth_corpus(
            SynthConfig(mode="xor", pubs_per_year=400, years=4, seed=21, rho=1.0)
        )
        band = null_band(
            corpus, ShuffleConfig(replicates=60, seed=3, map_kind="full"), "T_CDE"
        )
        flags = [r.flag for r in band.rows]
        assert flags.count("below") >= 3


@st.composite
def null_corpus(draw):
    """Per-year (n, 3) counts: empty years, one-row years, all-empty rows
    and, now and then, an outlier row that makes the histogram compact."""
    small = st.integers(0, 4)
    per_year = {}
    for year in range(2000, 2000 + draw(st.integers(1, 4))):
        rows = draw(st.lists(st.tuples(small, small, small), max_size=25))
        if rows and draw(st.integers(0, 4)) == 0:
            big = st.integers(30, 90)
            rows.insert(draw(st.integers(0, len(rows))), draw(st.tuples(big, big, big)))
        per_year[year] = np.array(rows, dtype=np.int64).reshape(-1, 3)
    return per_year


class TestReplicateValues:
    @settings(max_examples=80, deadline=None)
    @given(
        null_corpus(),
        st.sampled_from(["binary", "median", "full"]),
        st.booleans(),
        st.integers(2, 7),
        st.integers(0, 2**32 - 1),
        st.sampled_from([1, 1 << 14, nullmodel.BLOCK_BYTES]),
        st.sampled_from([1, 2, 3]),
    )
    def test_matches_replicate_by_replicate_loop(
        self, per_year, map_kind, include_empty, replicates, seed, block_bytes, cores
    ):
        medians = None
        if map_kind == "median":
            if not any(len(t) for t in per_year.values()):
                return
            medians = pooled_branch_stats(per_year)
        config = ShuffleConfig(replicates=replicates, seed=seed, map_kind=map_kind,
                               include_empty=include_empty)
        years = mi_from_triples(per_year, map_kind, medians, include_empty).years()
        with mock.patch.object(nullmodel, "BLOCK_BYTES", block_bytes), \
                mock.patch.object(nullmodel, "usable_cores", lambda: cores), \
                mock.patch.object(nullmodel, "MIN_SLICE_LABELS", 1):
            values, _ = replicate_values(per_year, config, medians, years)
        expected = null_values_loop(per_year, config, medians, years)
        assert values.shape == (4, replicates, len(years))
        # exact equality, NaN where a replicate left the year no vector
        assert np.array_equal(values, expected, equal_nan=True)

    @pytest.mark.parametrize("mode", ["xor", "sizemix"])
    def test_a_slice_holds_the_budget_not_the_labels(self, mode):
        """100 replicates of 3 years of 2,000 publications peak at 2.2 MB
        (xor, 3,000 labels a year) and 2.6 MB (sizemix, 10,000 labels and
        tables of about 2,000 cells) of traced memory, with the default
        BLOCK_BYTES of 2 MB.  Blocks of up to 2^18 labels copied into one
        (B, L) array peaked at 7.5 and 6.1 MB."""
        per_year = synth_triples(SynthConfig(mode=mode, pubs_per_year=2000, years=3, seed=2))
        config = ShuffleConfig(replicates=100, seed=1)
        years = sorted(per_year)
        replicate_slice(per_year, config, None, years, 0, 2)  # numpy's first-call setup
        tracemalloc.start()
        try:
            replicate_slice(per_year, config, None, years, 0, 100)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 3 * 2**20, f"{peak / 2**20:.2f} MB"


class TestWorkers:
    PER_YEAR = synth_triples(SynthConfig(mode="sizemix", pubs_per_year=50, years=3, seed=2))
    LABELS = sum(int(t.sum()) for t in PER_YEAR.values())

    @pytest.fixture
    def three_cores(self, monkeypatch):
        monkeypatch.setattr(nullmodel, "usable_cores", lambda: 3)
        monkeypatch.setattr(nullmodel, "MIN_SLICE_LABELS", 1)

    def test_one_per_core_replicate_and_slice_of_labels(self, three_cores, monkeypatch):
        monkeypatch.setattr(nullmodel.sys, "platform", "linux")
        count = nullmodel.worker_count
        assert count(self.PER_YEAR, 2) == 2
        assert count(self.PER_YEAR, 100) == 3
        monkeypatch.setattr(nullmodel, "MIN_SLICE_LABELS", 10 * self.LABELS)
        assert count(self.PER_YEAR, 9) == 1
        assert count(self.PER_YEAR, 25) == 2
        assert count(self.PER_YEAR, 100) == 3

    def test_only_a_single_threaded_linux_process_forks(self, three_cores, monkeypatch):
        monkeypatch.setattr(nullmodel.sys, "platform", "linux")
        release = threading.Event()
        thread = threading.Thread(target=release.wait)
        thread.start()
        try:
            assert nullmodel.worker_count(self.PER_YEAR, 100) == 1
        finally:
            release.set()
            thread.join()
        assert nullmodel.worker_count(self.PER_YEAR, 100) == 3
        monkeypatch.setattr(nullmodel.sys, "platform", "darwin")
        assert nullmodel.worker_count(self.PER_YEAR, 100) == 1

    def test_cgroup_cpu_quota_caps_the_cores(self, tmp_path, monkeypatch):
        monkeypatch.setattr(nullmodel, "CGROUP_ROOT", str(tmp_path))
        monkeypatch.setattr(nullmodel.os, "sched_getaffinity", lambda pid: set(range(8)),
                            raising=False)
        assert nullmodel.cgroup_cpu_quota() is None
        assert nullmodel.usable_cores() == 8
        v1 = tmp_path / "cpu"
        v1.mkdir()
        (v1 / "cpu.cfs_period_us").write_text("100000\n")
        (v1 / "cpu.cfs_quota_us").write_text("-1\n")
        assert nullmodel.cgroup_cpu_quota() is None
        (v1 / "cpu.cfs_quota_us").write_text("250000\n")
        assert nullmodel.cgroup_cpu_quota() == 3
        # cgroup v2 comes first
        for limit, cores in (("max 100000", None), ("50000 100000", 1), ("150000 100000", 2)):
            (tmp_path / "cpu.max").write_text(limit + "\n")
            assert nullmodel.cgroup_cpu_quota() == cores
        assert nullmodel.usable_cores() == 2
        (tmp_path / "cpu.max").write_text("garbled\n")
        assert nullmodel.cgroup_cpu_quota() is None

    @pytest.mark.skipif(sys.platform != "linux", reason="workers are forked on Linux only")
    def test_no_worker_outlives_the_band(self, three_cores):
        band = null_band_from_triples(self.PER_YEAR, ShuffleConfig(replicates=10), "T_CDE")
        assert band.workers == 3
        assert multiprocessing.active_children() == []
        # nor a thread of the executor, so the next band forks again
        assert threading.active_count() == 1

    def test_band_reports_the_count_that_ran(self, three_cores, monkeypatch):
        # the band's count is the one the replicates ran with, asked for once
        counted = []
        count = nullmodel.worker_count

        def counting(*args):
            counted.append(count(*args))
            return counted[-1]

        monkeypatch.setattr(nullmodel, "worker_count", counting)
        band = null_band_from_triples(self.PER_YEAR, ShuffleConfig(replicates=10), "T_CDE")
        assert len(counted) == 1
        assert band.workers == counted[0]

    @pytest.mark.skipif(sys.platform != "linux", reason="workers are forked on Linux only")
    def test_a_worker_error_reaches_the_caller(self, three_cores, monkeypatch):
        generator = nullmodel.replicate_rng

        def fail_in_workers(seed, replicate):
            # the calling process evaluates replicates 0-2 of 10
            if replicate >= 3:
                raise RuntimeError(f"replicate {replicate}")
            return generator(seed, replicate)

        monkeypatch.setattr(nullmodel, "replicate_rng", fail_in_workers)
        with pytest.raises(RuntimeError, match="replicate 3"):
            null_band_from_triples(self.PER_YEAR, ShuffleConfig(replicates=10), "T_CDE")
        assert multiprocessing.active_children() == []


def test_null_band_coverage_smoke():
    """Observed series drawn from the null itself should sit inside the
    band at roughly the nominal rate (full experiment in acceptance)."""
    base = synth_triples(
        SynthConfig(mode="independent", pubs_per_year=100, years=4, seed=13)
    )
    inside = total = 0
    for trial in range(12):
        rng = np.random.default_rng((99, trial))
        observed = {y: shuffle_year(t, rng) for y, t in sorted(base.items())}
        band = null_band_from_triples(
            observed, ShuffleConfig(replicates=60, seed=1000 + trial), "T_CDE"
        )
        for row in band.rows:
            total += 1
            inside += row.flag == "inside"
    assert inside / total > 0.6
