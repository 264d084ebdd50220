"""Power estimation harness: level at the null, monotonicity, table plumbing."""

import csv
import hashlib
import io
import tracemalloc
from dataclasses import replace

import numpy as np
import pytest

import unicube.inference
import unicube.power
import unicube.special
from unicube import (AlternativeSpec, PowerExperiment, RandomStream, build_null_reference,
                     estimate_power, run_tests, uniform_sample)
from unicube.alternatives import sample_alternative
from unicube.power import CSV_HEADER, rows_to_csv, run_single, run_table


def experiment(spec, n=25, trials=300, h=None, R=199, seed=5, alpha=0.05):
    return PowerExperiment(alternative=spec, n=n, trials=trials, alpha=alpha,
                           h=h, R=R, seed=seed)


class TestEstimatePower:
    def test_level_at_null(self):
        # Power against the uniform alternative is the significance level.
        exp = experiment(AlternativeSpec("uniform", p=2), trials=400, R=299)
        out = estimate_power(exp)
        for mode in ("m", "s"):
            est = out[mode]
            band = 3.0 * max(est.se, np.sqrt(0.05 * 0.95 / est.trials))
            assert abs(est.power - 0.05) < band

    def test_monotone_in_effect_size(self):
        strong = estimate_power(experiment(AlternativeSpec("clayton", theta=2.0)))
        weak = estimate_power(experiment(AlternativeSpec("clayton", theta=0.5)))
        for mode in ("m", "s"):
            slack = 2.0 * np.hypot(strong[mode].se, weak[mode].se)
            assert strong[mode].power >= weak[mode].power - slack

    def test_deterministic_and_thread_invariant(self, monkeypatch):
        exp = experiment(AlternativeSpec("fgm", theta=1.0), trials=60, R=99)
        a = estimate_power(exp)
        b = estimate_power(exp)
        c = estimate_power(exp, threads=3)
        assert a == b == c
        for batch in (1, 7):
            monkeypatch.setattr(unicube.inference, "_REPLICATE_BATCH", batch)
            for threads in (1, 2, 3):
                assert estimate_power(exp, threads=threads) == a

    @pytest.mark.parametrize("spec,n,h,R", [
        (AlternativeSpec("clayton", theta=2.0), 25, None, 199),
        (AlternativeSpec("normal-copula", p=6, rho=0.3), 50, 2, 499),
    ])
    def test_each_decision_matches_run_tests(self, monkeypatch, spec, n, h, R):
        # Oracle: trial t scored on its own by run_tests. The cell only
        # reports counts, so trial t's decision is read as the change in the
        # count when the cell grows from t to t + 1 trials. Work units of 7
        # trials put unit boundaries inside the cell.
        trials = 24
        exp = experiment(spec, n=n, trials=trials, h=h, R=R)
        root = RandomStream(exp.seed)
        reference = build_null_reference(root.child(0), n, spec.p, exp.h, R)
        expected = [run_tests(sample_alternative(root.child(1 + t), spec, n), reference,
                              exp.alpha) for t in range(trials)]
        for batch in (256, 7):
            monkeypatch.setattr(unicube.inference, "_REPLICATE_BATCH", batch)
            counts = [{"m": 0, "s": 0}]
            for t in range(1, trials + 1):
                out = estimate_power(replace(exp, trials=t), reference=reference)
                counts.append({mode: est.rejections for mode, est in out.items()})
            for t, reports in enumerate(expected):
                for mode in ("m", "s"):
                    assert counts[t + 1][mode] - counts[t][mode] == reports[mode].reject
        for mode in ("m", "s"):
            assert {reports[mode].reject for reports in expected} == {False, True}

    @pytest.mark.parametrize("modes", [("m-as",), ("x",), ("m", "s-as")])
    def test_unknown_mode_rejected_at_construction(self, modes):
        with pytest.raises(ValueError, match=repr(modes[-1])):
            PowerExperiment(AlternativeSpec("uniform", p=2), n=10, trials=5, modes=modes)

    def test_empty_modes_rejected_at_construction(self):
        with pytest.raises(ValueError, match="modes is empty"):
            PowerExperiment(AlternativeSpec("uniform", p=2), n=10, trials=5, modes=())

    @pytest.mark.parametrize("modes", [("m", "m"), ("m", "s", "s"), ("s", "m", "s")])
    def test_repeated_mode_rejected_at_construction(self, modes):
        with pytest.raises(ValueError, match="given more than once"):
            PowerExperiment(AlternativeSpec("uniform", p=2), n=10, trials=5, modes=modes)

    @pytest.mark.parametrize("modes", [(), ("m", "m"), ("s", "x"), ("m", "s", "m")])
    def test_modes_refused_as_run_tests_refuses_them(self, modes):
        # A power cell and a single test refuse the same mode lists with the
        # same message, apart from the hint after an unsupported mode.
        reference = build_null_reference(RandomStream(1), 10, 2, 2, 9)
        sample = uniform_sample(RandomStream(2), 10, 2)
        messages = []
        for call in (lambda: PowerExperiment(AlternativeSpec("uniform", p=2), n=10, trials=5,
                                             modes=modes),
                     lambda: run_tests(sample, reference, 0.05, modes=modes)):
            with pytest.raises(ValueError) as caught:
                call()
            messages.append(str(caught.value).split(";")[0])
        assert messages[0] == messages[1]

    def test_rejection_counts_pinned(self):
        # One small cell of the published grid, pinned end to end: sampling,
        # tent statistics, p-values and both decision rules. R=199 cannot
        # reach the min-p cutoff for 63 subsets, so m never rejects.
        exp = PowerExperiment(AlternativeSpec("normal-copula", p=6, rho=0.3), n=50,
                              trials=40, R=199, seed=5)
        out = estimate_power(exp)
        assert {mode: est.rejections for mode, est in out.items()} == {"m": 0, "s": 31}

    @pytest.mark.parametrize("batch", [256, 16])
    def test_one_quantile_pass_per_cell(self, monkeypatch, batch):
        # The cell is decided once, however many work units score it: one
        # transform call on at most R + 1 distinct values 1 - (k + 1)/(R + 1),
        # k = 0..R, and one threshold call per estimate_power call.
        exp = PowerExperiment(AlternativeSpec("normal-copula", p=6, rho=0.3), n=50,
                              trials=40, R=199, seed=5)
        reference = build_null_reference(RandomStream(5).child(0), 50, 6, 6, 199)
        calls = []

        def counted(u, f):
            calls.append((np.ndim(u), np.size(u)))
            return unicube.special.chisq_quantile(u, f)

        monkeypatch.setattr(unicube.inference, "_REPLICATE_BATCH", batch)
        monkeypatch.setattr(unicube.inference, "chisq_quantile", counted)
        out = estimate_power(exp, reference=reference)
        assert sorted(ndim for ndim, _ in calls) == [0, 1]
        assert max(size for ndim, size in calls if ndim == 1) <= exp.R + 1
        assert {mode: est.rejections for mode, est in out.items()} == {"m": 0, "s": 31}

    def test_cell_peak_memory_bounded(self):
        # A cell holds one matrix (8,000 trials x 63 subsets, 3.8 MiB), whose
        # p-values overwrite its statistics, and the kernel's work arrays at
        # n=20; the s rule's work arrays are of one slice's size, so the peak
        # stays within three such matrices.
        exp = PowerExperiment(AlternativeSpec("normal-copula", p=6, rho=0.3), n=20,
                              trials=8000, R=99, seed=3)
        tracemalloc.start()
        try:
            out = estimate_power(exp)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 3 * exp.trials * 63 * 8
        assert {mode: est.rejections for mode, est in out.items()} == {"m": 0, "s": 3935}

    def test_cell_holds_one_matrix(self):
        # At n=5 the kernel's work arrays are small, so the peak is the cell's
        # one (8,000 x 63) matrix, which its p-values overwrite, plus the
        # reference and the s rule's slice-sized work arrays; a second matrix
        # of p-values would make it about 2.2 matrices.
        exp = PowerExperiment(AlternativeSpec("normal-copula", p=6, rho=0.3), n=5,
                              trials=8000, R=99, seed=3)
        tracemalloc.start()
        try:
            out = estimate_power(exp)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 1.6 * exp.trials * 63 * 8
        assert {mode: est.rejections for mode, est in out.items()} == {"m": 0, "s": 2200}

    def test_oversized_cell_refused_at_construction(self):
        # 200 trials x 2^20 - 1 subsets would need about 1.6 GB.
        with pytest.raises(ValueError, match="MiB budget; lower --trials or h"):
            PowerExperiment(AlternativeSpec("normal-copula", p=20, rho=0.3), n=50,
                            trials=200, h=20)

    def test_mismatched_reference_rejected(self):
        exp = experiment(AlternativeSpec("uniform", p=2), trials=10, R=49)
        wrong = build_null_reference(RandomStream(5), n=11, p=2, h=2, R=49)
        with pytest.raises(ValueError):
            estimate_power(exp, reference=wrong)


class TestRunTable:
    def test_copulas_dry_run_structure(self):
        rows = run_table("copulas", trials=0)
        computed = [r for r in rows if not r.mode.startswith("paper:")]
        referenced = [r for r in rows if r.mode.startswith("paper:")]
        assert len(computed) == 4 * 3 * 2  # alternatives x sizes x modes
        assert len(referenced) == 4 * 3 * 9  # competitor columns
        assert all(r.power == "" for r in rows)
        clayton_50_m = [r for r in computed
                       if r.alternative == "clayton" and r.n == 50 and r.mode == "m"]
        assert clayton_50_m[0].paper_ref_value == "0.998"

    def test_single_mode_gives_one_row_per_cell(self):
        rows = run_table("copulas", trials=0, modes=("m",))
        computed = [r for r in rows if not r.mode.startswith("paper:")]
        assert len(computed) == 12

    def test_beta_dry_run_flags_incomparable(self):
        rows = run_table("beta", trials=0)
        computed = [r for r in rows if not r.mode.startswith("paper:")]
        assert len(computed) == 10 * 2
        assert all(r.paper_ref_value == "NA-comparability" for r in computed)
        ref_ms = [r for r in rows if r.mode == "paper:m-test"]
        assert len(ref_ms) == 10

    def test_partial_dry_run_rows(self):
        rows = run_table("partial", trials=0, rho=0.30)
        computed = [r for r in rows if not r.mode.startswith("paper:")]
        assert len(computed) == 6 * 2  # h = 1..6, two modes
        s_h2 = [r for r in computed if r.h == 2 and r.mode == "s"]
        assert s_h2[0].paper_ref_value == "0.965"
        assert all(r.alternative == "normal-copula" for r in computed)

    def test_partial_unknown_rho(self):
        with pytest.raises(ValueError):
            run_table("partial", trials=0, rho=0.33)

    def test_unknown_table(self):
        with pytest.raises(ValueError):
            run_table("everything")

    def test_beta_11_level_small_run(self):
        rows = run_table("beta", trials=200, R=99, seed=3)
        lvl = [r for r in rows
               if r.param == "alpha=1;beta=1" and not r.mode.startswith("paper:")]
        assert len(lvl) == 2
        for r in lvl:
            assert abs(float(r.power) - 0.05) < 3.0 * np.sqrt(0.05 * 0.95 / 200)

    def test_rows_echo_configuration(self):
        rows = run_table("copulas", trials=0, R=77, seed=13)
        assert all(r.R == 77 and r.seed == 13 for r in rows)

    def test_partial_sum_rule_beats_minp_at_h2(self):
        # The characteristic shape of the six-dimensional study: at h=2 the
        # sum rule dominates the min-p rule (2 se slack), already at rho=0.10.
        spec = AlternativeSpec("normal-copula", rho=0.10, p=6)
        exp = PowerExperiment(alternative=spec, n=50, trials=300, h=2, R=199,
                              seed=21)
        out = estimate_power(exp)
        slack = 2.0 * np.hypot(out["s"].se, out["m"].se)
        assert out["s"].power > out["m"].power - slack
        assert out["s"].power > out["m"].power  # observed strictly, in fact


_NORMAL6 = AlternativeSpec("normal-copula", p=6, rho=0.3)


class TestOneCellLoop:
    """Every grid and the ad-hoc cell go through one loop that shares one
    null reference per (n, p, h) across cells."""

    # sha256 of the CSV: row order, fields, number formats and reference
    # streams are all pinned.
    @pytest.mark.parametrize("run,digest", [
        (lambda: run_table("copulas", trials=6, R=19, seed=3),
         "d1780fa002ae27678282698135ce194123ea12622a7e11ce6c10d51a16405f5f"),
        (lambda: run_table("beta", trials=6, R=19, seed=3),
         "a635784b8ed5731c4bbf55ecd44a0494e149aa1e1dfd6ef8a551a1af030ca4a8"),
        (lambda: run_table("partial", rho=0.3, trials=6, R=19, seed=4),
         "7f481d2bd51f73e370fe998ad931d4f80819d4f5cb3140b14e88c409a16a42dd"),
        (lambda: run_single(_NORMAL6, n=30, h=2, trials=10, R=49, seed=1),
         "713ffb5c2defaf74c55b16bef9fcdecb15181827a166677da92ff20d020dc16e"),
    ], ids=["copulas", "beta", "partial", "single"])
    def test_rows_pinned(self, run, digest):
        assert hashlib.sha256(rows_to_csv(run()).encode()).hexdigest() == digest

    @pytest.mark.parametrize("run,builds", [
        (lambda t: run_table("copulas", trials=t, R=19, seed=3), 3),
        (lambda t: run_table("beta", trials=t, R=19, seed=3), 1),
        (lambda t: run_table("partial", rho=0.3, trials=t, R=19, seed=4), 6),
        (lambda t: run_single(_NORMAL6, n=30, h=2, trials=t, R=19), 1),
    ], ids=["copulas", "beta", "partial", "single"])
    def test_one_reference_per_configuration(self, monkeypatch, run, builds):
        calls = []

        def counted(*args, **kwargs):
            calls.append(args[1:4])
            return build_null_reference(*args, **kwargs)

        monkeypatch.setattr(unicube.power, "build_null_reference", counted)
        run(0)
        assert calls == []  # a dry run builds no reference
        run(2)
        assert len(calls) == len(set(calls)) == builds

    @pytest.mark.parametrize("run,bad", [
        (lambda: run_table("copulas", trials=0, modes=("m", "x")), "x"),
        (lambda: run_single(_NORMAL6, n=50, trials=0, modes=("s-as",)), "s-as"),
    ], ids=["table", "single"])
    def test_dry_run_checks_modes(self, run, bad):
        with pytest.raises(ValueError, match=f"unsupported mode {bad!r}"):
            run()


class TestCsv:
    def test_header_and_parse(self):
        text = rows_to_csv(run_table("copulas", trials=0))
        parsed = list(csv.reader(io.StringIO(text)))
        assert tuple(parsed[0]) == CSV_HEADER
        assert all(len(line) == len(CSV_HEADER) for line in parsed[1:])

    def test_deterministic(self):
        a = rows_to_csv(run_table("copulas", trials=0))
        b = rows_to_csv(run_table("copulas", trials=0))
        assert a == b
