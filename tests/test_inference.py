"""Decision rules, Monte Carlo p-values, and the cache file round trip."""

import hashlib
import math
import re
import threading
import time
import tracemalloc

import numpy as np
import pytest
from scipy import stats

import unicube.inference
from unicube import (NullReference, RandomStream, Sample, asymptotic_norm_draws,
                     asymptotic_test, build_asymptotic_tables, build_null_reference,
                     enumerate_subsets, load_reference, render_report, report_json, run_tests,
                     save_reference, uniform_sample)
from unicube.brownian import TABLE_SCHEME
from unicube.inference import _decide, load_table, phat, save_table, table_filename
from unicube.special import chisq_quantile
from unicube.tents import all_tent_norms


@pytest.fixture(scope="module")
def small_reference():
    return build_null_reference(RandomStream(42), n=25, p=2, h=2, R=499)


@pytest.fixture(scope="module")
def tables():
    return build_asymptotic_tables(RandomStream(99), p=2, draws=20_000)


def synthetic_reference(null_values, n=10, p=1):
    """Reference with one subset and prescribed null statistics."""
    vec = np.sort(np.asarray(null_values, dtype=float))
    return NullReference(n=n, p=p, h=1, R=len(vec), seed=0, norms={1: vec})


class TestBuildNullReference:
    def test_deterministic(self, small_reference):
        again = build_null_reference(RandomStream(42), n=25, p=2, h=2, R=499)
        assert again == small_reference

    def test_thread_count_invariance(self):
        serial = build_null_reference(RandomStream(7), n=20, p=2, h=2, R=600)
        threaded = build_null_reference(RandomStream(7), n=20, p=2, h=2, R=600,
                                        threads=4)
        assert serial == threaded

    def test_vectors_sorted_with_length_R(self, small_reference):
        for mask in enumerate_subsets(2, 2):
            vec = small_reference.norms[mask]
            assert vec.shape == (499,)
            assert np.all(np.diff(vec) >= 0)
            assert np.all(vec >= 0)

    def test_null_means_near_six_powers(self):
        ref = build_null_reference(RandomStream(3), n=10, p=2, h=2, R=20_000)
        for mask in enumerate_subsets(2, 2):
            vec = ref.norms[mask]
            target = 6.0 ** (-mask.bit_count())
            se = vec.std(ddof=1) / np.sqrt(len(vec))
            assert abs(vec.mean() - target) < 3.0 * se

    def test_single_replicate(self):
        ref = build_null_reference(RandomStream(1), n=5, p=1, h=1, R=1)
        assert ref.norms[1].shape == (1,)
        sample = uniform_sample(RandomStream(2), 5, 1)
        assert run_tests(sample, ref, 0.5, modes=("m",))["m"].p_values[1] in (0.5, 1.0)

    def test_peak_memory_two_copies(self):
        # The statistics matrix (8,000 x 63, 3.8 MiB) is sorted in place and
        # its columns are copied into the reference's block: two copies at the
        # peak, where per-subset sorted copies would make a third.
        R = 8000
        tracemalloc.start()
        try:
            build_null_reference(RandomStream(3), 10, 6, 6, R)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 2.5 * R * 63 * 8


class TestNullReference:
    @pytest.mark.parametrize("norms", [
        {1: np.arange(4.0)},
        {1: np.arange(6.0)},
        {1: np.arange(5.0), 2: np.arange(4.0), 3: np.arange(5.0)},
    ])
    def test_vector_of_another_length_refused(self, norms):
        with pytest.raises(ValueError, match="must hold R=5 values"):
            NullReference(n=4, p=2, h=2, R=5, seed=0, norms=norms)

    def test_vectors_are_rows_of_one_read_only_block(self, small_reference):
        rows = list(small_reference.norms.values())
        block = rows[0].base
        assert block is not None and block.shape == (3, 499)
        assert not block.flags.writeable and block.flags.c_contiguous
        assert all(row.base is block and not row.flags.writeable for row in rows)
        with pytest.raises(ValueError):
            rows[1][0] = 0.0


class TestGroupingInvariance:
    """A null row's bits depend on its replicate's stream alone: not on the
    replicate batch it is scored in, nor on the thread count."""

    @pytest.mark.parametrize("n,p,h", [(50, 6, 6), (200, 3, 3), (50, 10, 3)])
    def test_null_matrix_bit_identical(self, monkeypatch, n, p, h):
        stream = RandomStream(21)
        masks = enumerate_subsets(p, h)
        results = []
        for batch in (256, 37, 1):
            monkeypatch.setattr(unicube.inference, "_REPLICATE_BATCH", batch)
            for threads in (1, 2):
                results.append(unicube.inference.null_statistic_matrix(
                    stream, n, p, masks, 300, threads=threads))
        first = results[0].view(np.int64)
        for other in results[1:]:
            assert np.array_equal(other.view(np.int64), first)

    @pytest.mark.parametrize("n,p,h", [(50, 6, 6), (200, 3, 3), (50, 10, 3)])
    def test_single_sample_equals_its_row(self, n, p, h):
        stream = RandomStream(22)
        masks = enumerate_subsets(p, h)
        matrix = unicube.inference.null_statistic_matrix(stream, n, p, masks, 40)
        for r in (0, 17, 39):
            sample = Sample(stream.child(r).generator().random((n, p)))
            row = np.array([all_tent_norms(sample, h)[m] for m in masks])
            assert np.array_equal(row.view(np.int64), matrix[r].view(np.int64))


@pytest.fixture
def recording_pool(monkeypatch):
    """Replace the helper thread pool by one that records its size and runs
    each submitted call at once, so that no thread is started whatever the
    thread count asked for. Returns the list of recorded sizes."""
    sizes = []

    class RecordingPool:
        def __init__(self, max_workers):
            sizes.append(max_workers)

        def __enter__(self):
            return self

        def __exit__(self, *exc):
            return False

        def submit(self, fn, *args):
            fn(*args)

    monkeypatch.setattr(unicube.inference, "ThreadPoolExecutor", RecordingPool)
    return sizes


def _recording_kernel(monkeypatch, fail_first=False, pause=0.0):
    """Replace the kernel seen by ``_statistic_matrix`` by one that records
    the thread of each call, sleeps ``pause`` seconds (the interpreter lock
    is free meanwhile) and then scores, or raises on the first call if
    ``fail_first``. Returns the list of calling threads."""
    kernel = unicube.inference._norms_for_masks
    calls = []
    lock = threading.Lock()

    def recording(*args, **kwargs):
        with lock:
            calls.append(threading.current_thread())
            first = len(calls) == 1
        if fail_first and first:
            raise RuntimeError("unit failed")
        time.sleep(pause)
        return kernel(*args, **kwargs)

    monkeypatch.setattr(unicube.inference, "_norms_for_masks", recording)
    return calls


class TestWorkerCap:
    """``_statistic_matrix`` runs at most one worker per unit and per CPU:
    the calling thread and a pool of the others."""

    # ``workers`` counts the calling thread: the pool holds the others, and
    # one worker (None) makes no pool.
    @pytest.mark.parametrize("threads,replicates,workers", [
        (10**9, 9, 4), (3, 9, 3), (10**9, 2, 2), (2, 1, None), (1, 9, None)])
    def test_pool_size(self, monkeypatch, recording_pool, threads, replicates, workers):
        monkeypatch.setattr(unicube.inference.os, "cpu_count", lambda: 4)
        monkeypatch.setattr(unicube.inference, "_REPLICATE_BATCH", 1)
        stream = RandomStream(23)
        masks = enumerate_subsets(2, 2)
        out = unicube.inference.null_statistic_matrix(stream, 10, 2, masks, replicates,
                                                      threads=threads)
        assert recording_pool == ([] if workers is None else [workers - 1])
        serial = unicube.inference.null_statistic_matrix(stream, 10, 2, masks, replicates)
        assert np.array_equal(out.view(np.int64), serial.view(np.int64))

    def test_calling_thread_scores(self, monkeypatch):
        # Two units, two workers: each kernel call sleeps, so the calling
        # thread is free to take the unit the helper has not taken.
        monkeypatch.setattr(unicube.inference.os, "cpu_count", lambda: 2)
        monkeypatch.setattr(unicube.inference, "_REPLICATE_BATCH", 2)
        calls = _recording_kernel(monkeypatch, pause=0.05)
        unicube.inference.null_statistic_matrix(RandomStream(24), 10, 2,
                                                enumerate_subsets(2, 2), 4, threads=2)
        assert len(calls) == 2
        assert threading.current_thread() in calls

    def test_failed_unit_stops_every_thread(self, monkeypatch):
        # Twelve one-sample units on two workers: the failing unit and the
        # one the other worker is scoring meanwhile are the only kernel calls.
        monkeypatch.setattr(unicube.inference.os, "cpu_count", lambda: 2)
        monkeypatch.setattr(unicube.inference, "_REPLICATE_BATCH", 1)
        calls = _recording_kernel(monkeypatch, fail_first=True, pause=0.02)
        with pytest.raises(RuntimeError, match="unit failed"):
            unicube.inference.null_statistic_matrix(RandomStream(25), 10, 2,
                                                    enumerate_subsets(2, 2), 12, threads=2)
        assert 1 <= len(calls) <= 2

    def test_helper_error_reraised(self, monkeypatch, recording_pool):
        # The recording pool runs the helper's loop first, so the helper
        # makes the failing call and the calling thread takes no unit.
        monkeypatch.setattr(unicube.inference.os, "cpu_count", lambda: 2)
        monkeypatch.setattr(unicube.inference, "_REPLICATE_BATCH", 1)
        calls = _recording_kernel(monkeypatch, fail_first=True)
        with pytest.raises(RuntimeError, match="unit failed"):
            unicube.inference.null_statistic_matrix(RandomStream(25), 10, 2,
                                                    enumerate_subsets(2, 2), 12, threads=2)
        assert recording_pool == [1] and len(calls) == 1

    def test_wide_family_peak(self):
        # The statistics matrix (256 x 4,095, 8 MiB) is the kernel's result:
        # each unit's norms are summed straight into its rows, so the peak is
        # the matrix plus one unit's work arrays (3.65x when each unit's
        # result was a separate array copied in).
        masks = enumerate_subsets(12, 12)
        tracemalloc.start()
        try:
            unicube.inference.null_statistic_matrix(RandomStream(1), 20, 12, masks, 256)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 3.0 * 256 * len(masks) * 8

    def test_unit_holds_its_samples_once(self):
        # One 256-sample unit at (n, p, h) = (50, 10, 3): the samples, drawn
        # coordinate-major and sorted where they lie; p factor slabs of one
        # 64-row block by one 512-pair tile; max(h, 2) work rows of 256 KiB,
        # the first two of which are the pair factors' scratch; and the
        # 256 x 175 matrix. The slack covers the per-step sums (88 KiB), the
        # pair indices, one draw and the Python objects. With a second copy
        # of the samples and two scratch rows of their own the peak was
        # 6.31 MiB.
        n, p, h, unit = 50, 10, 3, 256
        masks = enumerate_subsets(p, h)
        held = 8 * (p * unit * n + p * 64 * 512 + max(h, 2) * 64 * 512 + unit * len(masks))
        tracemalloc.start()
        try:
            unicube.inference.null_statistic_matrix(RandomStream(1), n, p, masks, unit)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= held + 2**19


class TestPhat:
    def test_observed_below_all(self):
        ref = synthetic_reference([1.0, 2.0, 3.0])
        block = np.array([[0.5]])
        assert phat(ref, [1], block) is block
        assert block.tolist() == [[1.0]]

    def test_observed_above_all(self):
        ref = synthetic_reference([1.0, 2.0, 3.0])
        assert phat(ref, [1], np.array([[9.0]])).tolist() == [[1.0 / 4.0]]

    def test_tie_excluded_single_draw(self):
        ref = synthetic_reference([2.0])
        assert phat(ref, [1], np.array([[2.0]])).tolist() == [[0.5]]

    def test_monotone_in_observed(self):
        ref = synthetic_reference(np.linspace(0.01, 1.0, 99))
        values = phat(ref, [1], np.linspace(0.0, 1.1, 50)[:, None])[:, 0].tolist()
        assert all(b <= a for a, b in zip(values, values[1:]))

    def test_unknown_mask(self):
        ref = synthetic_reference([1.0])
        with pytest.raises(ValueError, match="subset 0x2 not present in the reference"):
            phat(ref, [2], np.array([[0.5]]))

    @pytest.mark.parametrize("block", [np.zeros((1, 2)), np.zeros((3, 1), dtype=np.int64),
                                       np.zeros(1), np.zeros((1, 1, 1)), [[0.5]]])
    def test_block_of_other_shape_or_dtype_refused(self, block):
        ref = synthetic_reference([1.0, 2.0])
        with pytest.raises(ValueError, match="2-d float64 block of 1 columns"):
            phat(ref, [1], block)


class TestMTest:
    def test_threshold_value(self, small_reference):
        sample = uniform_sample(RandomStream(5), 25, 2)
        report = run_tests(sample, small_reference, 0.05, modes=("m",))["m"]
        assert report.threshold == pytest.approx(1.0 - 0.95 ** (1.0 / 3.0), abs=1e-12)
        assert report.threshold == pytest.approx(0.016952, abs=5e-7)

    def test_null_sample_with_large_pvalues_accepts(self, small_reference):
        sample = uniform_sample(RandomStream(5), 25, 2)
        report = run_tests(sample, small_reference, 0.05, modes=("m",))["m"]
        if all(pv >= report.threshold for pv in report.p_values.values()):
            assert not report.reject

    def test_point_mass_rejects(self):
        ref = build_null_reference(RandomStream(11), n=50, p=2, h=2, R=999)
        sample = Sample(np.full((50, 2), 0.5))
        report = run_tests(sample, ref, 0.05, modes=("m",))["m"]
        assert report.reject
        assert report.decision == "reject"

    def test_config_mismatch(self, small_reference):
        with pytest.raises(ValueError):
            run_tests(uniform_sample(RandomStream(1), 30, 2), small_reference, 0.05,
                      modes=("m",))["m"]
        with pytest.raises(ValueError):
            run_tests(uniform_sample(RandomStream(1), 25, 3), small_reference, 0.05,
                      modes=("m",))["m"]


class TestSTest:
    def test_threshold_is_chisq_quantile(self, small_reference):
        sample = uniform_sample(RandomStream(6), 25, 2)
        report = run_tests(sample, small_reference, 0.05, modes=("s",))["s"]
        assert report.threshold == pytest.approx(chisq_quantile(0.95, 3), abs=1e-12)

    def test_all_pvalues_one_keeps_null(self):
        # Observed statistic below every null draw in each subset.
        vec = np.linspace(1.0, 2.0, 99)
        ref = NullReference(n=4, p=1, h=1, R=99, seed=0, norms={1: vec})
        sample = Sample(np.full((4, 1), 0.5))  # small statistic
        report = run_tests(sample, ref, 0.5, modes=("s",))["s"]
        if report.p_values[1] == 1.0:
            assert report.aggregate == 0.0
            assert not report.reject

    def test_point_mass_rejects(self):
        ref = build_null_reference(RandomStream(12), n=50, p=2, h=2, R=999)
        report = run_tests(Sample(np.full((50, 2), 0.2)), ref, 0.05, modes=("s",))["s"]
        assert report.reject

    def test_agrees_with_the_m_rule_for_single_subset(self):
        # With one subset both rules threshold the same p-value; exhaustive
        # over the whole p-hat grid, including alphas that sit exactly on it.
        R = 19
        sample = uniform_sample(RandomStream(33), 6, 1)
        observed = all_tent_norms(sample, 1)[1]
        alphas = [k / (R + 1.0) for k in range(1, R + 1)] + [0.04, 0.3, 0.77]
        for count_above in range(R + 1):
            below = np.full(R - count_above, observed / 2.0)
            above = np.full(count_above, 2.0 * observed + 1.0)
            ref = NullReference(n=6, p=1, h=1, R=R, seed=0,
                                norms={1: np.sort(np.concatenate([below, above]))})
            expected_pv = (count_above + 1) / (R + 1)
            for alpha in alphas:
                m_report = run_tests(sample, ref, alpha, modes=("m",))["m"]
                s_report = run_tests(sample, ref, alpha, modes=("s",))["s"]
                assert m_report.p_values[1] == expected_pv
                assert m_report.reject == s_report.reject, (alpha, expected_pv)


class TestDecisionPins:
    """The s transform and threshold against scipy's upper-tail chi-square
    inverse ``chi2.isf``, which takes the p-value directly instead of 1 - p."""

    @pytest.mark.parametrize("f", [1, 3, 63])
    @pytest.mark.parametrize("pv", [1 / 1000, 0.05, 0.5, 1.0])
    def test_sum_transform(self, f, pv):
        aggregate, _, _ = _decide("s", np.full((1, f), pv), 0.05)
        assert aggregate[0] == pytest.approx(f * stats.chi2.isf(pv, 1), rel=1e-12, abs=0.0)

    @pytest.mark.parametrize("f", [1, 3, 63])
    @pytest.mark.parametrize("alpha", [1 / 1000, 0.05, 0.5])
    def test_threshold(self, f, alpha):
        _, threshold, _ = _decide("s", np.full((1, f), 0.5), alpha)
        assert threshold == pytest.approx(stats.chi2.isf(alpha, f), rel=1e-12, abs=0.0)


class TestRunTests:
    def test_shares_statistics_between_modes(self, small_reference):
        sample = uniform_sample(RandomStream(8), 25, 2)
        reports = run_tests(sample, small_reference, 0.05)
        assert reports["m"].statistics == reports["s"].statistics
        assert reports["m"].p_values == reports["s"].p_values

    def test_rejects_unknown_mode(self, small_reference):
        with pytest.raises(ValueError):
            run_tests(uniform_sample(RandomStream(8), 25, 2), small_reference,
                      0.05, modes=("m-as",))

    def test_report_holds_python_scalars(self, small_reference, tables):
        # Each rule decides a one-row block; the report holds its aggregate
        # and threshold as Python floats and its decision as a bool, for
        # either calibration.
        sample = uniform_sample(RandomStream(8), 25, 2)
        reports = [*run_tests(sample, small_reference, 0.05).values(),
                   *(asymptotic_test(sample, tables, 0.05, mode=m) for m in ("m-as", "s-as"))]
        for report in reports:
            assert type(report.aggregate) is float and type(report.reject) is bool
            assert type(report.threshold) is float

    @pytest.mark.parametrize("modes,message", [
        (("m", "m"), "mode 'm' is given more than once"),
        (("s", "m", "s"), "mode 's' is given more than once"),
        (("m", "x"), "unsupported mode 'x'; use 'm' or 's'"),
        (("m-as",), "unsupported mode 'm-as'; use 'm' or 's'"),
    ])
    def test_mode_list_refused(self, small_reference, modes, message):
        sample = uniform_sample(RandomStream(8), 25, 2)
        with pytest.raises(ValueError, match=re.escape(message)):
            run_tests(sample, small_reference, 0.05, modes=modes)

    def test_empty_modes_refused(self, small_reference):
        sample = uniform_sample(RandomStream(8), 25, 2)
        with pytest.raises(ValueError, match="modes is empty"):
            run_tests(sample, small_reference, 0.05, modes=())

    def test_reports_deterministic(self, small_reference):
        sample = uniform_sample(RandomStream(8), 25, 2)
        first = run_tests(sample, small_reference, 0.05)
        second = run_tests(sample, small_reference, 0.05)
        for mode in ("m", "s"):
            assert render_report(first[mode]) == render_report(second[mode])
            assert report_json(first[mode]) == report_json(second[mode])


class TestAsymptoticTest:
    @pytest.mark.parametrize("mode", ["m", "s", "both", ""])
    def test_other_mode_refused(self, tables, mode):
        sample = uniform_sample(RandomStream(10), 40, 2)
        with pytest.raises(ValueError, match=re.escape(
                f"unsupported mode {mode!r}; use 'm-as' or 's-as'")):
            asymptotic_test(sample, tables, 0.05, mode=mode)

    def test_thresholds_match_finite_formulas(self, tables):
        sample = uniform_sample(RandomStream(10), 40, 2)
        m_report = asymptotic_test(sample, tables, 0.05, mode="m-as")
        s_report = asymptotic_test(sample, tables, 0.05, mode="s-as")
        assert m_report.threshold == pytest.approx(1.0 - 0.95 ** (1.0 / 3.0))
        assert s_report.threshold == pytest.approx(chisq_quantile(0.95, 3))
        assert m_report.h == 2  # always the full family

    def test_point_mass_rejects(self, tables):
        sample = Sample(np.full((200, 2), 0.5))
        assert asymptotic_test(sample, tables, 0.05, mode="m-as").reject
        assert asymptotic_test(sample, tables, 0.05, mode="s-as").reject

    def test_missing_table_rejected(self, tables):
        sample = uniform_sample(RandomStream(10), 40, 2)
        with pytest.raises(ValueError):
            asymptotic_test(sample, {1: tables[1]}, 0.05)

    @pytest.mark.parametrize("keys", [{1: 2, 2: 1}, {1: 1, 2: 1}])
    def test_table_under_another_cardinality_rejected(self, tables, keys):
        # A table filed under the wrong key would give wrong p-values silently.
        sample = uniform_sample(RandomStream(10), 40, 2)
        bad = sorted(key for key, k in keys.items() if key != k)
        with pytest.raises(ValueError, match=re.escape(f"at keys {bad}")):
            asymptotic_test(sample, {key: tables[k] for key, k in keys.items()}, 0.05)

    def test_statistic_beyond_table_gets_floor_pvalue(self, tables):
        # A statistic above every one of the M draws gets p = 1/(M+1), as a
        # Monte Carlo p-value never falls below 1/(R+1), so the s-as sum stays
        # finite and the sample is still rejected.
        sample = Sample(np.full((500, 2), 0.5))
        report = asymptotic_test(sample, tables, 0.05, mode="s-as")
        assert list(report.p_values.values()) == [1.0 / (20_000 + 1)] * 3
        assert math.isfinite(report.aggregate)
        assert report.reject


class TestCacheRoundTrip:
    def test_reference_round_trip_equal(self, tmp_path, small_reference):
        path = tmp_path / "ref.txt"
        save_reference(small_reference, path)
        assert load_reference(path) == small_reference

    def test_byte_identical_rewrites(self, tmp_path, small_reference):
        a = tmp_path / "a.txt"
        b = tmp_path / "b.txt"
        save_reference(small_reference, a)
        save_reference(small_reference, b)
        assert a.read_bytes() == b.read_bytes()

    def test_file_structure(self, tmp_path, small_reference):
        path = tmp_path / "ref.txt"
        save_reference(small_reference, path)
        lines = path.read_text(encoding="utf-8").split("\n")
        assert lines[:3] == ["unicube-null v2", "n=25 p=2 h=2 R=499 seed=42", "masks=1,2,3"]
        assert lines[4:] == [""]
        values = np.frombuffer(bytes.fromhex(lines[3]), "<f8").reshape(3, 499)
        for row, vec in zip(values, small_reference.norms.values()):
            assert row.view(np.uint64).tolist() == vec.view(np.uint64).tolist()

    def test_rejects_corrupted_magic(self, tmp_path, small_reference):
        path = tmp_path / "ref.txt"
        save_reference(small_reference, path)
        body = path.read_text().replace("unicube-null v2", "something-else")
        path.write_text(body)
        with pytest.raises(ValueError):
            load_reference(path)

    # Pins of the reference for (n, p, h, R) at seed 17. The builds span
    # several row blocks of the kernel, and (50, 6, 6) at R=299 two work units.
    # `digest` is the sha256 of the loaded values in the decimal text layout of
    # the earlier cache format (`_v1_text`), as pinned before the format
    # changed; V2_PINS holds the sha256 of the float64 values, little-endian
    # and concatenated in mask order, and of the cache file.
    V2_PINS = {
        (50, 6, 6, 299): ("29df2714ee397fc4c548b209101666258f2b17683873f1544a5626dd3e4cf096",
                          "df28d9e3c77c06485a4ceee3b14fe76ed3ad9d62eb2055cd28bd226e2da7ea0f"),
        (200, 3, 3, 99): ("29642f736cb39858f2b1dc7dcdd60769697e77420f0fb163995b13700c904085",
                          "2c28ad8f3f4af527ce7e775306768caa9f4c0ea708fbb9ce1b4c3c74f1f06d5c"),
        (50, 10, 3, 99): ("09bb7d6f14bedcd5df2f11c3891ec91c25a4ea3f4b90444bf03f418cce47f737",
                          "1056186d52e50e69a611ecaeef19eeddd83498c3b381b15662c0983ae2a7b2b6"),
    }

    @pytest.mark.parametrize("shape,threads,digest", [
        ((50, 6, 6, 299), 1, "c50af69b4378576edd8947d7ce31073a3a3be9012a9b63cbc2d6b771a18ee82a"),
        ((50, 6, 6, 299), 2, "c50af69b4378576edd8947d7ce31073a3a3be9012a9b63cbc2d6b771a18ee82a"),
        ((200, 3, 3, 99), 1, "a1d4ac7a07a74fa7e75ad6c9aacfdd97c1fe3f142b4c16fa0495f1e01a5dbeec"),
        ((50, 10, 3, 99), 1, "ed1a4a93d886619218bca886f42fae45971e42aebe01d6d39cc60d63276002da"),
    ])
    def test_reference_bytes_pinned(self, tmp_path, shape, threads, digest):
        values_digest, file_digest = self.V2_PINS[shape]
        path = tmp_path / "ref.txt"
        save_reference(build_null_reference(RandomStream(17), *shape, threads=threads), path)
        loaded = load_reference(path)
        assert hashlib.sha256(_v1_text(loaded)).hexdigest() == digest
        values = np.array(list(loaded.norms.values()), dtype="<f8")
        assert hashlib.sha256(values.tobytes()).hexdigest() == values_digest
        assert hashlib.sha256(path.read_bytes()).hexdigest() == file_digest

    def test_table_round_trip_equal(self, tmp_path):
        table = asymptotic_norm_draws(RandomStream(55), 2, nu_max=32, draws=500)
        path = tmp_path / "table.txt"
        save_table(table, path)
        assert load_table(path) == table

    def test_table_records_its_scheme(self, tmp_path):
        table = asymptotic_norm_draws(RandomStream(55), 2, nu_max=8, draws=50)
        name = table_filename(2, 8, 50, 55)
        assert name == f"asym_k2_nu8_M50_s55_scheme{TABLE_SCHEME}.v2.txt"
        save_table(table, tmp_path / name)
        lines = (tmp_path / name).read_text().splitlines()
        assert lines[1:3] == [f"n=8 p=2 h=2 R=50 seed=55 scheme={TABLE_SCHEME}", "masks=3"]

    @pytest.mark.parametrize("token", ["", " scheme=1", f" scheme={TABLE_SCHEME - 1}"])
    def test_table_of_other_scheme_refused(self, tmp_path, token):
        table = asymptotic_norm_draws(RandomStream(55), 2, nu_max=8, draws=50)
        path = tmp_path / "table.txt"
        save_table(table, path)
        text = path.read_text().replace(f" scheme={TABLE_SCHEME}", token)
        path.write_text(text)
        with pytest.raises(ValueError, match="scheme"):
            load_table(path)


def _hex(value):
    return np.array([value], dtype="<f8").tobytes().hex()


def _v1_text(reference):
    """``reference`` in the decimal text layout of the earlier cache format."""
    lines = ["unicube-null v1", f"n={reference.n} p={reference.p} h={reference.h} "
             f"R={reference.R} seed={reference.seed}"]
    lines += [f"H={mask:x} : {' '.join(map('%.17g'.__mod__, vec.tolist()))}"
              for mask, vec in reference.norms.items()]
    return ("\n".join(lines) + "\n").encode()


def _edit_first_subset(path, edit):
    """Rewrite the 16-digit hex tokens of a cache file's first subset."""
    lines = path.read_text().split("\n")
    R = int(lines[1].split("R=")[1].split()[0])
    tokens = [lines[3][i:i + 16] for i in range(0, 16 * R, 16)]
    edit(tokens)
    lines[3] = "".join(tokens) + lines[3][16 * R:]
    path.write_text("\n".join(lines))


def _put_nan(tokens):
    tokens[3] = _hex(np.nan)


def _put_inf(tokens):
    tokens[-1] = _hex(np.inf)


def _swap(tokens):
    tokens[3], tokens[4] = tokens[4], tokens[3]


CORRUPTIONS = [(_put_nan, "non-finite"), (_put_inf, "non-finite"), (_swap, "not sorted")]

# Edits of a saved small_reference file (R=499, masks 1, 2, 3), as a function
# of its lines, and the message that each must be refused with.
LINE_EDITS = {
    "v1-magic": (lambda lines: lines.__setitem__(0, "unicube-null v1"),
                 "earlier unicube .* rebuild it with `unicube null` or a cold `unicube test`"),
    "truncated": (lambda lines: lines.__setitem__(3, lines[3][:-16]),
                  "value line has 23937 bytes, expected 16 hex digits x 3 subsets x R=499"),
    "odd-length": (lambda lines: lines.__setitem__(3, lines[3][:-1]),
                   "value line has 23952 bytes"),
    "no-newline": (lambda lines: lines.pop(), "value line has 23952 bytes"),
    "digit-for-newline": (lambda lines: lines.__setitem__(slice(3, 5), [lines[3] + "0"]),
                          "value line has 23953 bytes"),
    "non-hex": (lambda lines: lines.__setitem__(3, lines[3][:16 * 998 + 5] + "g"
                                                + lines[3][16 * 998 + 6:]),
                "subset 0x3: value 0 is not 16 hex digits"),
    "spaced": (lambda lines: lines.__setitem__(3, lines[3][:16 * 7] + " "
                                               + lines[3][16 * 7 + 1:]),
               "subset 0x1: value 7 is not 16 hex digits"),
    "config-token": (lambda lines: lines.__setitem__(1, lines[1].replace("n=25", "n=2x5")),
                     "malformed configuration token 'n=2x5'"),
    "masks-order": (lambda lines: lines.__setitem__(2, "masks=2,1,3"),
                    "masks line does not match the \\(p, h\\) enumeration"),
    "masks-malformed": (lambda lines: lines.__setitem__(2, "masks=1,z,3"),
                        "malformed masks line"),
    "masks-missing": (lambda lines: lines.__setitem__(2, "H=1,2,3"), "malformed masks line"),
    "R-zero": (lambda lines: lines.__setitem__(1, lines[1].replace("R=499", "R=0")),
               "R=0; R must be >= 1"),
    "n-zero": (lambda lines: lines.__setitem__(1, lines[1].replace("n=25", "n=0")),
               "n=0; n must be >= 1"),
    "p-25": (lambda lines: lines.__setitem__(1, lines[1].replace("p=2", "p=25")),
             "dimension must be in \\[1, 20\\], got 25"),
}


class TestCacheValidation:
    @pytest.mark.parametrize("edit, message", CORRUPTIONS)
    def test_reference_refused(self, tmp_path, small_reference, edit, message):
        path = tmp_path / "ref.txt"
        save_reference(small_reference, path)
        _edit_first_subset(path, edit)
        with pytest.raises(ValueError, match=message) as info:
            load_reference(path)
        assert str(path) in str(info.value) and "subset 0x1 " in str(info.value)

    @pytest.mark.parametrize("edit, message", CORRUPTIONS)
    def test_table_refused(self, tmp_path, edit, message):
        table = asymptotic_norm_draws(RandomStream(55), 2, nu_max=8, draws=50)
        path = tmp_path / "table.txt"
        save_table(table, path)
        _edit_first_subset(path, edit)
        with pytest.raises(ValueError, match=message) as info:
            load_table(path)
        assert str(path) in str(info.value) and "subset 0x3 " in str(info.value)

    def test_malformed_token_refused(self, tmp_path, small_reference):
        path = tmp_path / "ref.txt"
        save_reference(small_reference, path)
        _edit_first_subset(path, lambda tokens: tokens.__setitem__(3, "0.5x" + "0" * 12))
        with pytest.raises(ValueError, match="0.5x") as info:
            load_reference(path)
        assert str(path) in str(info.value) and "subset 0x1:" in str(info.value)

    @pytest.mark.parametrize("case", list(LINE_EDITS))
    def test_damaged_file_refused(self, tmp_path, small_reference, case):
        edit, message = LINE_EDITS[case]
        path = tmp_path / "ref.txt"
        save_reference(small_reference, path)
        lines = path.read_text().split("\n")
        edit(lines)
        path.write_text("\n".join(lines))
        with pytest.raises(ValueError, match=message) as info:
            load_reference(path)
        assert str(info.value).startswith(f"{path}: ")

    @pytest.mark.parametrize("k", [0, -1])
    def test_table_below_cardinality_one_refused(self, tmp_path, k):
        path = tmp_path / "table.txt"
        path.write_text(f"unicube-null v2\nn=8 p={k} h={k} R=3 seed=1 scheme={TABLE_SCHEME}\n"
                        f"masks=0\n{'0' * 48}\n")
        with pytest.raises(ValueError) as info:
            load_table(path)
        assert str(info.value) == f"{path}: p={k}; p must be >= 1"

    @pytest.mark.parametrize("load", [load_reference, load_table])
    def test_earlier_format_refused(self, tmp_path, load):
        # The text layout written before the hex value line.
        path = tmp_path / "null_n5_p1_h1_R3_s2.txt"
        path.write_text("unicube-null v1\nn=5 p=1 h=1 R=3 seed=2\n"
                        "H=1 : 0.01 0.02 0.029999999999999999\n")
        with pytest.raises(ValueError, match="rebuild it with `unicube null`") as info:
            load(path)
        assert str(info.value).startswith(f"{path}: ")


def _leftover_sidecar(path, corrupt=None):
    """Write beside the cache file ``path`` the binary copy of its values that
    an earlier unicube kept as ``.<name>.bin`` (a sha256 of the text and the
    rest, S and R, the masks, the values as little-endian float64), damaged
    as ``corrupt`` says."""
    lines = path.read_text().split("\n")
    masks = [int(mask, 16) for mask in lines[2].removeprefix("masks=").split(",")]
    values = np.frombuffer(bytes.fromhex(lines[3]), "<f8").reshape(len(masks), -1).copy()
    if corrupt == "nan":
        values[0, 3] = np.nan
    elif corrupt == "unsorted":
        values[0] = values[0, ::-1].copy()
    elif corrupt == "masks":
        masks[:2] = masks[1::-1]
    payload = (np.array([len(masks), values.shape[1]] + masks, "<u8").tobytes()
               + values.tobytes())
    blob = hashlib.sha256(path.read_bytes() + payload).digest() + payload
    (path.parent / f".{path.name}.bin").write_bytes(blob[:-8] if corrupt == "truncated"
                                                    else blob)


def _damage(path, corrupt):
    """Apply ``corrupt`` to the cache file ``path`` itself; return the message
    that a load must refuse it with."""
    if corrupt in ("nan", "unsorted"):
        _edit_first_subset(path, _put_nan if corrupt == "nan" else _swap)
        return "non-finite" if corrupt == "nan" else "not sorted"
    lines = path.read_text().split("\n")
    if corrupt == "truncated":
        lines[3] = lines[3][:-16]
        message = "value line has .* bytes"
    else:
        masks = lines[2].removeprefix("masks=").split(",")
        lines[2] = "masks=" + ",".join(masks[1::-1] + masks[2:])
        message = "masks line does not match the \\(p, h\\) enumeration"
    path.write_text("\n".join(lines))
    return message


class TestSidecar:
    """An earlier unicube kept a binary copy of each cache file beside it as
    ``.<name>.bin``. A leftover copy is never read: damage in it is ignored,
    and the same damage in the cache file itself is refused."""

    @pytest.mark.parametrize("corrupt", ["truncated", "nan", "unsorted", "masks"])
    def test_failing_sidecar_is_ignored(self, tmp_path, small_reference, corrupt):
        path = tmp_path / "ref.txt"
        save_reference(small_reference, path)
        _leftover_sidecar(path, corrupt)
        assert load_reference(path) == small_reference
        message = _damage(path, corrupt)
        with pytest.raises(ValueError, match=message) as info:
            load_reference(path)
        assert str(info.value).startswith(f"{path}: ")

    @pytest.mark.parametrize("corrupt", ["truncated", "nan", "unsorted"])
    def test_failing_table_sidecar_is_ignored(self, tmp_path, corrupt):
        table = asymptotic_norm_draws(RandomStream(55), 2, nu_max=8, draws=50)
        path = tmp_path / "table.txt"
        save_table(table, path)
        _leftover_sidecar(path, corrupt)
        assert load_table(path) == table
        message = _damage(path, corrupt)
        with pytest.raises(ValueError, match=message) as info:
            load_table(path)
        assert str(info.value).startswith(f"{path}: ")

    def test_text_edits_bypass_a_stale_sidecar(self, tmp_path, small_reference):
        # The leftover copy still holds the saved values; the edited file is what loads.
        path = tmp_path / "ref.txt"
        save_reference(small_reference, path)
        _leftover_sidecar(path)
        _edit_first_subset(path, lambda tokens: tokens.__setitem__(0, _hex(-1.0)))
        assert load_reference(path).norms[1][0] == -1.0


class TestAtomicWrites:
    @staticmethod
    def fail_replace(src, dst):
        raise OSError("simulated failure")

    def test_failed_write_leaves_no_files(self, tmp_path, monkeypatch, small_reference):
        table = asymptotic_norm_draws(RandomStream(55), 1, nu_max=8, draws=50)
        monkeypatch.setattr(unicube.inference.os, "replace", self.fail_replace)
        with pytest.raises(OSError, match="simulated"):
            save_reference(small_reference, tmp_path / "ref.txt")
        with pytest.raises(OSError, match="simulated"):
            save_table(table, tmp_path / "table.txt")
        assert list(tmp_path.iterdir()) == []

    def test_failed_write_keeps_previous_file(self, tmp_path, monkeypatch,
                                              small_reference):
        path = tmp_path / "ref.txt"
        save_reference(small_reference, path)
        before = path.read_bytes()
        other = build_null_reference(RandomStream(43), n=25, p=2, h=2, R=499)
        monkeypatch.setattr(unicube.inference.os, "replace", self.fail_replace)
        with pytest.raises(OSError):
            save_reference(other, path)
        assert sorted(p.name for p in tmp_path.iterdir()) == ["ref.txt"]
        assert path.read_bytes() == before
