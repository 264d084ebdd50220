"""Decision rules, Monte Carlo p-values, and the cache file round trip."""

import hashlib
import math

import numpy as np
import pytest
from scipy import stats

import unicube.inference
from unicube import (NullReference, RandomStream, Sample, all_tent_norms,
                     asymptotic_norm_draws, asymptotic_test, build_asymptotic_tables,
                     build_null_reference, chisq_quantile, enumerate_subsets,
                     load_reference, load_table, m_test, phat, render_report,
                     report_json, run_tests, s_test, save_reference, save_table,
                     uniform_sample)
from unicube.brownian import TABLE_SCHEME
from unicube.inference import _decide, table_filename


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
        assert m_test(sample, ref, 0.5).p_values[1] in (0.5, 1.0)


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
    """Replace the work-unit thread pool by one that records its size and runs
    the units serially, so that no thread is started whatever the thread
    count asked for. Returns the list of recorded sizes."""
    sizes = []

    class RecordingPool:
        def __init__(self, max_workers):
            sizes.append(max_workers)

        def __enter__(self):
            return self

        def __exit__(self, *exc):
            return False

        def map(self, fn, items):
            return map(fn, items)

    monkeypatch.setattr(unicube.inference, "ThreadPoolExecutor", RecordingPool)
    return sizes


class TestWorkerCap:
    """``_run_units`` starts at most one worker per unit and per CPU."""

    @pytest.mark.parametrize("threads,replicates,workers", [
        (10**9, 9, 4), (3, 9, 3), (10**9, 2, 2), (2, 1, None), (1, 9, None)])
    def test_pool_size(self, monkeypatch, recording_pool, threads, replicates, workers):
        monkeypatch.setattr(unicube.inference.os, "cpu_count", lambda: 4)
        monkeypatch.setattr(unicube.inference, "_REPLICATE_BATCH", 1)
        stream = RandomStream(23)
        masks = enumerate_subsets(2, 2)
        out = unicube.inference.null_statistic_matrix(stream, 10, 2, masks, replicates,
                                                      threads=threads)
        assert recording_pool == ([] if workers is None else [workers])
        serial = unicube.inference.null_statistic_matrix(stream, 10, 2, masks, replicates)
        assert np.array_equal(out.view(np.int64), serial.view(np.int64))


class TestPhat:
    def test_observed_below_all(self):
        ref = synthetic_reference([1.0, 2.0, 3.0])
        assert phat(ref, 1, 0.5) == 1.0

    def test_observed_above_all(self):
        ref = synthetic_reference([1.0, 2.0, 3.0])
        assert phat(ref, 1, 9.0) == 1.0 / 4.0

    def test_tie_excluded_single_draw(self):
        ref = synthetic_reference([2.0])
        assert phat(ref, 1, 2.0) == 0.5

    def test_monotone_in_observed(self):
        ref = synthetic_reference(np.linspace(0.01, 1.0, 99))
        values = [phat(ref, 1, x) for x in np.linspace(0.0, 1.1, 50)]
        assert all(b <= a for a, b in zip(values, values[1:]))

    def test_unknown_mask(self):
        ref = synthetic_reference([1.0])
        with pytest.raises(ValueError):
            phat(ref, 2, 0.5)


class TestMTest:
    def test_threshold_value(self, small_reference):
        sample = uniform_sample(RandomStream(5), 25, 2)
        report = m_test(sample, small_reference, 0.05)
        assert report.threshold == pytest.approx(1.0 - 0.95 ** (1.0 / 3.0), abs=1e-12)
        assert report.threshold == pytest.approx(0.016952, abs=5e-7)

    def test_null_sample_with_large_pvalues_accepts(self, small_reference):
        sample = uniform_sample(RandomStream(5), 25, 2)
        report = m_test(sample, small_reference, 0.05)
        if all(pv >= report.threshold for pv in report.p_values.values()):
            assert not report.reject

    def test_point_mass_rejects(self):
        ref = build_null_reference(RandomStream(11), n=50, p=2, h=2, R=999)
        sample = Sample(np.full((50, 2), 0.5))
        report = m_test(sample, ref, 0.05)
        assert report.reject
        assert report.decision == "reject"

    def test_config_mismatch(self, small_reference):
        with pytest.raises(ValueError):
            m_test(uniform_sample(RandomStream(1), 30, 2), small_reference, 0.05)
        with pytest.raises(ValueError):
            m_test(uniform_sample(RandomStream(1), 25, 3), small_reference, 0.05)


class TestSTest:
    def test_threshold_is_chisq_quantile(self, small_reference):
        sample = uniform_sample(RandomStream(6), 25, 2)
        report = s_test(sample, small_reference, 0.05)
        assert report.threshold == pytest.approx(chisq_quantile(0.95, 3), abs=1e-12)

    def test_all_pvalues_one_keeps_null(self):
        # Observed statistic below every null draw in each subset.
        vec = np.linspace(1.0, 2.0, 99)
        ref = NullReference(n=4, p=1, h=1, R=99, seed=0, norms={1: vec})
        sample = Sample(np.full((4, 1), 0.5))  # small statistic
        report = s_test(sample, ref, 0.5)
        if report.p_values[1] == 1.0:
            assert report.aggregate == 0.0
            assert not report.reject

    def test_point_mass_rejects(self):
        ref = build_null_reference(RandomStream(12), n=50, p=2, h=2, R=999)
        report = s_test(Sample(np.full((50, 2), 0.2)), ref, 0.05)
        assert report.reject

    def test_agrees_with_m_test_for_single_subset(self):
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
                m_report = m_test(sample, ref, alpha)
                s_report = s_test(sample, ref, alpha)
                assert m_report.p_values[1] == expected_pv
                assert m_report.reject == s_report.reject, (alpha, expected_pv)


class TestDecisionPins:
    """The s transform and threshold against scipy's upper-tail chi-square
    inverse ``chi2.isf``, which takes the p-value directly instead of 1 - p."""

    @pytest.mark.parametrize("f", [1, 3, 63])
    @pytest.mark.parametrize("pv", [1 / 1000, 0.05, 0.5, 1.0])
    def test_sum_transform(self, f, pv):
        aggregate, _, _ = _decide("s", np.full(f, pv), 0.05)
        assert aggregate == pytest.approx(f * stats.chi2.isf(pv, 1), rel=1e-12, abs=0.0)

    @pytest.mark.parametrize("f", [1, 3, 63])
    @pytest.mark.parametrize("alpha", [1 / 1000, 0.05, 0.5])
    def test_threshold(self, f, alpha):
        _, threshold, _ = _decide("s", np.full(f, 0.5), alpha)
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

    def test_reports_deterministic(self, small_reference):
        sample = uniform_sample(RandomStream(8), 25, 2)
        first = run_tests(sample, small_reference, 0.05)
        second = run_tests(sample, small_reference, 0.05)
        for mode in ("m", "s"):
            assert render_report(first[mode]) == render_report(second[mode])
            assert report_json(first[mode]) == report_json(second[mode])


class TestAsymptoticTest:
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

    def test_statistic_beyond_table_gives_zero_pvalue(self, tables):
        sample = Sample(np.full((500, 2), 0.5))
        report = asymptotic_test(sample, tables, 0.05, mode="s-as")
        assert math.isinf(report.aggregate)
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
        lines = path.read_text().splitlines()
        assert lines[0] == "unicube-null v1"
        assert lines[1] == "n=25 p=2 h=2 R=499 seed=42"
        assert len(lines) == 2 + 3
        assert lines[2].startswith("H=1 :")
        assert lines[3].startswith("H=2 :")
        assert lines[4].startswith("H=3 :")
        assert len(lines[2].split(":")[1].split()) == 499

    def test_rejects_corrupted_magic(self, tmp_path, small_reference):
        path = tmp_path / "ref.txt"
        save_reference(small_reference, path)
        body = path.read_text().replace("unicube-null v1", "something-else")
        path.write_text(body)
        with pytest.raises(ValueError):
            load_reference(path)

    # sha256 of the reference text for (n, p, h, R) at seed 17. The builds span
    # several row blocks of the kernel, and (50, 6, 6) at R=299 two work units.
    @pytest.mark.parametrize("shape,threads,digest", [
        ((50, 6, 6, 299), 1, "c50af69b4378576edd8947d7ce31073a3a3be9012a9b63cbc2d6b771a18ee82a"),
        ((50, 6, 6, 299), 2, "c50af69b4378576edd8947d7ce31073a3a3be9012a9b63cbc2d6b771a18ee82a"),
        ((200, 3, 3, 99), 1, "a1d4ac7a07a74fa7e75ad6c9aacfdd97c1fe3f142b4c16fa0495f1e01a5dbeec"),
        ((50, 10, 3, 99), 1, "ed1a4a93d886619218bca886f42fae45971e42aebe01d6d39cc60d63276002da"),
    ])
    def test_reference_bytes_pinned(self, tmp_path, shape, threads, digest):
        path = tmp_path / "ref.txt"
        save_reference(build_null_reference(RandomStream(17), *shape, threads=threads), path)
        assert hashlib.sha256(path.read_bytes()).hexdigest() == digest

    def test_table_round_trip_equal(self, tmp_path):
        table = asymptotic_norm_draws(RandomStream(55), 2, nu_max=32, draws=500)
        path = tmp_path / "table.txt"
        save_table(table, path)
        assert load_table(path) == table

    def test_table_records_its_scheme(self, tmp_path):
        table = asymptotic_norm_draws(RandomStream(55), 2, nu_max=8, draws=50)
        name = table_filename(2, 8, 50, 55)
        assert name == f"asym_k2_nu8_M50_s55_scheme{TABLE_SCHEME}.txt"
        save_table(table, tmp_path / name)
        lines = (tmp_path / name).read_text().splitlines()
        assert lines[1] == f"n=8 p=2 h=2 R=50 seed=55 scheme={TABLE_SCHEME}"

    @pytest.mark.parametrize("token", ["", f" scheme={TABLE_SCHEME - 1}"])
    def test_table_of_other_scheme_refused(self, tmp_path, token):
        table = asymptotic_norm_draws(RandomStream(55), 2, nu_max=8, draws=50)
        path = tmp_path / "table.txt"
        save_table(table, path)
        text = path.read_text().replace(f" scheme={TABLE_SCHEME}", token)
        path.write_text(text)
        with pytest.raises(ValueError, match="scheme"):
            load_table(path)


def _sidecar_of(path):
    return path.parent / f".{path.name}.bin"


def _resealed(path, edit):
    """The sidecar of ``path`` with ``edit`` applied to its (S, R) values and
    the digest, sha256(text bytes + sidecar bytes after the digest), made
    valid again."""
    blob = bytearray(_sidecar_of(path).read_bytes())
    S, R = np.frombuffer(bytes(blob), "<u8", 2, 32)
    values = np.frombuffer(bytes(blob), "<f8", S * R, 48 + 8 * int(S)).reshape(S, R).copy()
    edit(values)
    blob[48 + 8 * int(S):] = values.astype("<f8").tobytes()
    blob[:32] = hashlib.sha256(path.read_bytes() + bytes(blob[32:])).digest()
    return bytes(blob)


def _put_value_nan(values):
    values[0, 3] = np.nan


def _reverse_first_row(values):
    values[0] = values[0, ::-1].copy()


class TestSidecar:
    """The binary copy next to a cache file is used only when it matches."""

    def test_writers_add_a_sidecar(self, tmp_path, small_reference):
        table = asymptotic_norm_draws(RandomStream(55), 2, nu_max=8, draws=50)
        save_reference(small_reference, tmp_path / "ref.txt")
        save_table(table, tmp_path / "table.txt")
        names = sorted(p.name for p in tmp_path.iterdir())
        assert names == [".ref.txt.bin", ".table.txt.bin", "ref.txt", "table.txt"]

    def test_matching_sidecar_supplies_the_values(self, tmp_path, small_reference):
        # Shifted but still sorted and finite values behind the valid digest are
        # what a load returns, so the sidecar path is the one that runs.
        path = tmp_path / "ref.txt"
        save_reference(small_reference, path)
        _sidecar_of(path).write_bytes(_resealed(path, lambda v: v.__iadd__(1.0)))
        loaded = load_reference(path)
        for mask, vec in small_reference.norms.items():
            assert np.array_equal(loaded.norms[mask], vec + 1.0)

    @pytest.mark.parametrize("corrupt", ["truncated", "digest", "other-file", "nan",
                                         "unsorted", "masks", "missing"])
    def test_failing_sidecar_is_ignored(self, tmp_path, small_reference, corrupt):
        path = tmp_path / "ref.txt"
        save_reference(small_reference, path)
        sidecar = _sidecar_of(path)
        blob = sidecar.read_bytes()
        if corrupt == "truncated":
            sidecar.write_bytes(blob[:-8])
        elif corrupt == "digest":
            shifted = _resealed(path, lambda v: v.__iadd__(1.0))
            sidecar.write_bytes(bytes([shifted[0] ^ 1]) + shifted[1:])
        elif corrupt == "other-file":
            other = tmp_path / "other.txt"
            save_reference(build_null_reference(RandomStream(43), n=25, p=2, h=2, R=499),
                           other)
            sidecar.write_bytes(_sidecar_of(other).read_bytes())
        elif corrupt == "nan":
            sidecar.write_bytes(_resealed(path, _put_value_nan))
        elif corrupt == "unsorted":
            sidecar.write_bytes(_resealed(path, _reverse_first_row))
        elif corrupt == "masks":
            # Masks 0x1 and 0x2 swapped: the order no longer matches the text.
            index = np.frombuffer(blob, "<u8", 5, 32).copy()
            index[[2, 3]] = index[[3, 2]]
            sidecar.write_bytes(blob[:32] + index.tobytes() + blob[72:])
        else:
            sidecar.unlink()
        loaded = load_reference(path)
        assert loaded == small_reference
        sidecar.unlink(missing_ok=True)
        assert loaded == load_reference(path)

    @pytest.mark.parametrize("corrupt", ["truncated", "nan", "unsorted"])
    def test_failing_table_sidecar_is_ignored(self, tmp_path, corrupt):
        table = asymptotic_norm_draws(RandomStream(55), 2, nu_max=8, draws=50)
        path = tmp_path / "table.txt"
        save_table(table, path)
        sidecar = _sidecar_of(path)
        if corrupt == "truncated":
            sidecar.write_bytes(sidecar.read_bytes()[:40])
        else:
            sidecar.write_bytes(_resealed(path, {"nan": _put_value_nan,
                                                 "unsorted": _reverse_first_row}[corrupt]))
        assert load_table(path) == table

    @pytest.mark.parametrize("kind", ["reference", "table"])
    def test_flipped_value_bit_is_not_served(self, tmp_path, small_reference, kind):
        # The lowest mantissa bit of one value flipped, digest left as written:
        # the values stay finite and sorted, so only the digest can catch it.
        if kind == "reference":
            cache, save, load = small_reference, save_reference, load_reference
        else:
            cache = asymptotic_norm_draws(RandomStream(55), 2, nu_max=8, draws=50)
            save, load = save_table, load_table
        path = tmp_path / "cache.txt"
        save(cache, path)
        sidecar = _sidecar_of(path)
        blob = bytearray(sidecar.read_bytes())
        S, R = np.frombuffer(bytes(blob), "<u8", 2, 32).tolist()
        at = 48 + 8 * S + 8 * (R // 2)
        blob[at] ^= 1
        flipped = np.frombuffer(bytes(blob), "<f8", S * R, 48 + 8 * S).reshape(S, R)
        assert np.all(np.isfinite(flipped)) and np.all(flipped[:, 1:] >= flipped[:, :-1])
        sidecar.write_bytes(bytes(blob))
        loaded = load(path)
        sidecar.unlink()
        assert loaded == load(path) == cache

    def test_resealed_swapped_masks_are_ignored(self, tmp_path, small_reference):
        # Masks 0x1 and 0x2 swapped behind a valid digest: the mask check
        # alone sends the load to the text.
        path = tmp_path / "ref.txt"
        save_reference(small_reference, path)
        sidecar = _sidecar_of(path)
        blob = sidecar.read_bytes()
        index = np.frombuffer(blob, "<u8", 5, 32).copy()
        index[[2, 3]] = index[[3, 2]]
        payload = index.tobytes() + blob[72:]
        sidecar.write_bytes(hashlib.sha256(path.read_bytes() + payload).digest() + payload)
        assert load_reference(path) == small_reference

    def test_text_edits_bypass_a_stale_sidecar(self, tmp_path, small_reference):
        # The sidecar still holds the saved values; the edited text is what loads.
        path = tmp_path / "ref.txt"
        save_reference(small_reference, path)
        _edit_first_subset(path, lambda tokens: tokens.__setitem__(0, "-1"))
        assert load_reference(path).norms[1][0] == -1.0


def _edit_first_subset(path, edit):
    """Rewrite the value tokens of a cache file's first subset line."""
    lines = path.read_text().splitlines()
    head, _, body = lines[2].partition(":")
    tokens = body.split()
    edit(tokens)
    lines[2] = f"{head}: {' '.join(tokens)}"
    path.write_text("\n".join(lines) + "\n")


def _put_nan(tokens):
    tokens[3] = "nan"


def _put_inf(tokens):
    tokens[-1] = "inf"


def _swap(tokens):
    tokens[3], tokens[4] = tokens[4], tokens[3]


CORRUPTIONS = [(_put_nan, "non-finite"), (_put_inf, "non-finite"), (_swap, "not sorted")]


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
        _edit_first_subset(path, lambda tokens: tokens.__setitem__(3, "0.5x"))
        with pytest.raises(ValueError, match="0.5x") as info:
            load_reference(path)
        assert str(path) in str(info.value) and "subset 0x1:" in str(info.value)


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
        assert sorted(p.name for p in tmp_path.iterdir()) == [".ref.txt.bin", "ref.txt"]
        assert path.read_bytes() == before
