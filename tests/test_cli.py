"""Command-line surface: exit codes, cache files, CSV output, diagnostics."""

import collections
import contextlib
import hashlib
import io
import json
import math
import os
import re
import tempfile
import time
import tracemalloc
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from unicube import RandomStream, uniform_sample
from unicube.brownian import default_nu_max
from unicube.cli import main
from unicube.inference import table_filename
import unicube.cli
from unicube.inference import build_asymptotic_tables, load_table


def write_csv(path, data, header=None):
    lines = [] if header is None else [header]
    lines += [",".join(f"{v:.12g}" for v in row) for row in data]
    path.write_text("\n".join(lines) + "\n")


@pytest.fixture
def uniform_csv(tmp_path):
    data = uniform_sample(RandomStream(7), 50, 2).data
    path = tmp_path / "uniform.csv"
    write_csv(path, data)
    return path


@pytest.fixture
def pointmass_csv(tmp_path):
    path = tmp_path / "same.csv"
    write_csv(path, np.full((50, 2), 0.5))
    return path


class TestCmdTest:
    def test_uniform_data_accepts(self, uniform_csv, capsys):
        code = main(["test", str(uniform_csv), "--R", "199", "--seed", "3"])
        out = capsys.readouterr().out
        assert code == 0
        assert "decision: not-reject" in out
        assert "mode=m" in out and "mode=s" in out

    def test_identical_rows_reject(self, pointmass_csv):
        code = main(["test", str(pointmass_csv), "--R", "199", "--seed", "3"])
        assert code == 1

    def test_out_of_range_cites_row(self, tmp_path, capsys):
        path = tmp_path / "bad.csv"
        path.write_text("0.5,0.5\n0.1,0.9\n0.2,1.5\n")
        code = main(["test", str(path)])
        err = capsys.readouterr().err
        assert code == 2
        assert "row 3" in err

    def test_header_flag(self, tmp_path):
        path = tmp_path / "hdr.csv"
        data = uniform_sample(RandomStream(8), 30, 2).data
        write_csv(path, data, header="x,y")
        assert main(["test", str(path), "--header", "--R", "99", "--seed", "2"]) in (0, 1)
        assert main(["test", str(path)]) == 2  # header parsed as data

    def test_cache_created_and_reused(self, uniform_csv, tmp_path, capsys):
        cache = tmp_path / "cache"
        args = ["test", str(uniform_csv), "--R", "99", "--seed", "5",
                "--null-cache", str(cache)]
        code_a = main(args)
        out_a = capsys.readouterr().out
        files = sorted(os.listdir(cache))
        assert files == ["null_n50_p2_h2_R99_s5.v2.txt"]
        stamps = [(cache / name).read_bytes() for name in files]
        code_b = main(args)
        out_b = capsys.readouterr().out
        assert (code_a, out_a) == (code_b, out_b)
        assert [(cache / name).read_bytes() for name in files] == stamps

    def test_env_var_cache(self, uniform_csv, tmp_path, monkeypatch):
        cache = tmp_path / "envcache"
        monkeypatch.setenv("UNICUBE_CACHE", str(cache))
        main(["test", str(uniform_csv), "--R", "49", "--seed", "5"])
        assert sorted(os.listdir(cache)) == ["null_n50_p2_h2_R49_s5.v2.txt"]

    def test_json_lines_output(self, uniform_csv, tmp_path):
        out = tmp_path / "reports.jsonl"
        main(["test", str(uniform_csv), "--R", "99", "--seed", "5",
              "--json", str(out)])
        import json
        lines = out.read_text().splitlines()
        assert len(lines) == 2
        payloads = [json.loads(line) for line in lines]
        assert {p["mode"] for p in payloads} == {"m", "s"}
        assert all(len(p["subsets"]) == 3 for p in payloads)

    def test_asymptotic_mode(self, tmp_path, capsys):
        data = uniform_sample(RandomStream(21), 200, 1).data
        path = tmp_path / "u1.csv"
        write_csv(path, data)
        code = main(["test", str(path), "--mode", "m-as", "--seed", "4",
                     "--asym-draws", "5000"])
        out = capsys.readouterr().out
        assert code in (0, 1)
        assert "mode=m-as" in out

    def test_s_as_beyond_every_draw_is_finite_and_strict_json(self, tmp_path, capsys):
        # Every statistic of an all-0.5 sample exceeds every table draw: each
        # p-value is 1/(M+1), the sum is finite and the JSON has no Infinity.
        path = tmp_path / "half.csv"
        write_csv(path, np.full((50, 3), 0.5))
        out = tmp_path / "reports.jsonl"
        assert main(["test", str(path), "--mode", "s-as", "--asym-draws", "500",
                     "--json", str(out)]) == 1
        total = re.search(r"^sum=(\S+) ", capsys.readouterr().out, re.M).group(1)
        assert math.isfinite(float(total))

        def refuse(constant):
            raise ValueError(f"not strict JSON: {constant}")

        [payload] = [json.loads(line, parse_constant=refuse)
                     for line in out.read_text().splitlines()]
        assert payload["decision"] == "reject"
        assert {s["p_value"] for s in payload["subsets"]} == {1.0 / 501}

    def test_missing_file(self, capsys):
        assert main(["test", "no-such-file.csv"]) == 2

    def test_cache_config_mismatch(self, uniform_csv, tmp_path, capsys):
        cache = tmp_path / "cache"
        main(["test", str(uniform_csv), "--R", "49", "--seed", "5",
              "--null-cache", str(cache)])
        capsys.readouterr()
        good = cache / "null_n50_p2_h2_R49_s5.v2.txt"
        # A file whose name promises a different seed than its content.
        (cache / "null_n50_p2_h2_R49_s6.v2.txt").write_bytes(good.read_bytes())
        code = main(["test", str(uniform_csv), "--R", "49", "--seed", "6",
                     "--null-cache", str(cache)])
        err = capsys.readouterr().err
        assert code == 2
        assert "does not match" in err

    def test_unsorted_cached_reference_fails(self, uniform_csv, tmp_path, capsys):
        cache = tmp_path / "cache"
        args = ["test", str(uniform_csv), "--R", "49", "--seed", "5",
                "--null-cache", str(cache)]
        main(args)
        capsys.readouterr()
        path = cache / "null_n50_p2_h2_R49_s5.v2.txt"
        lines = path.read_text().split("\n")
        first = [lines[3][i:i + 16] for i in range(0, 16 * 49, 16)]
        lines[3] = "".join(reversed(first)) + lines[3][16 * 49:]
        path.write_text("\n".join(lines))
        code = main(args)
        err = capsys.readouterr().err
        assert code == 2
        assert "subset 0x1 is not sorted ascending" in err

    def test_cached_reference_without_replicates_refused(self, pointmass_csv, tmp_path,
                                                         capsys):
        # A well-formed file of R=0 values would give every subset p-value 1.
        cache = tmp_path / "cache"
        cache.mkdir()
        path = cache / "null_n50_p2_h2_R0_s1.v2.txt"
        path.write_text("unicube-null v2\nn=50 p=2 h=2 R=0 seed=1\nmasks=1,2,3\n\n")
        assert main(["test", str(pointmass_csv), "--R", "0", "--seed", "1",
                     "--null-cache", str(cache)]) == 2
        assert capsys.readouterr() == ("", f"error: {path}: R=0; R must be >= 1\n")

    def test_table_config_mismatch(self, tmp_path, capsys):
        data = uniform_sample(RandomStream(21), 40, 1).data
        path = tmp_path / "u1.csv"
        write_csv(path, data)
        cache = tmp_path / "cache"
        args = ["test", str(path), "--mode", "m-as", "--asym-draws", "500",
                "--null-cache", str(cache)]
        assert main(args + ["--seed", "5"]) in (0, 1)
        capsys.readouterr()
        [good] = os.listdir(cache)
        assert good.startswith("asym_k1_") and good.endswith(".v2.txt")
        # A table file whose name promises a different seed than its content.
        (cache / good.replace("_s5_", "_s6_")).write_bytes((cache / good).read_bytes())
        code = main(args + ["--seed", "6"])
        err = capsys.readouterr().err
        assert code == 2
        assert "does not match" in err and "_s5_" in err and "_s6_" in err

    def test_asymptotic_mode_p6_writes_six_tables(self, tmp_path, capsys):
        data = uniform_sample(RandomStream(23), 50, 6).data
        path = tmp_path / "u6.csv"
        write_csv(path, data)
        cache = tmp_path / "cache"
        code = main(["test", str(path), "--mode", "m-as", "--asym-draws", "2000",
                     "--seed", "4", "--null-cache", str(cache)])
        assert code in (0, 1)
        assert "mode=m-as n=50 p=6" in capsys.readouterr().out
        names = sorted(os.listdir(cache))
        tables = [table_filename(k, default_nu_max(k), 2000, 4) for k in range(1, 7)]
        assert names == sorted(tables)

    @pytest.mark.parametrize("mode,alpha,options", [
        ("both", "1.5", ["--R", "99"]),
        ("s-as", "0", ["--asym-draws", "500"]),
    ])
    def test_alpha_checked_before_cache_work(self, uniform_csv, tmp_path, capsys, mode,
                                             alpha, options):
        cache = tmp_path / "cache"
        assert main(["test", str(uniform_csv), "--mode", mode, "--alpha", alpha,
                     "--null-cache", str(cache)] + options) == 2
        assert capsys.readouterr() == ("", "error: alpha must be in (0, 1)\n")
        assert not cache.exists()


def _listing(cache):
    """Name, modification time and inode of every file in the cache (a
    rename into place changes the inode even within one clock tick)."""
    stats = {name: os.stat(cache / name) for name in os.listdir(cache)}
    return {name: (st.st_mtime_ns, st.st_ino) for name, st in stats.items()}


class TestWarmCache:
    """Warm calls read the cache files, give the cold call's results and never
    write."""

    MODES = [["--mode", "both", "--R", "49"], ["--mode", "s-as", "--asym-draws", "300"]]

    def run(self, argv, capsys, tmp_path):
        out = tmp_path / "reports.jsonl"
        code = main(argv + ["--json", str(out)])
        return code, capsys.readouterr().out, out.read_bytes()

    @pytest.mark.parametrize("mode", MODES)
    def test_cold_warm_and_warm_without_sidecars_agree(self, pointmass_csv, tmp_path,
                                                       capsys, mode):
        cache = tmp_path / "cache"
        argv = ["test", str(pointmass_csv), "--seed", "5", "--null-cache", str(cache)] + mode
        cold = self.run(argv, capsys, tmp_path)
        # The cold call writes no binary copy beside its cache files; the warm
        # call reads the cache files alone.
        assert not [name for name in os.listdir(cache) if name.startswith(".")]
        warm = self.run(argv, capsys, tmp_path)
        assert cold[0] == 1 and "decision: reject" in cold[1]
        assert cold == warm

    @pytest.mark.parametrize("mode", MODES)
    def test_warm_calls_write_nothing(self, uniform_csv, tmp_path, capsys, mode):
        cache = tmp_path / "cache"
        argv = ["test", str(uniform_csv), "--seed", "5", "--null-cache", str(cache)] + mode
        main(argv)
        before = _listing(cache)
        assert before and all(name.endswith(".v2.txt") for name in before)
        main(argv)
        assert _listing(cache) == before
        capsys.readouterr()


class TestCmdNull:
    def test_idempotent_and_structured(self, tmp_path, capsys):
        out = tmp_path / "ref.txt"
        args = ["null", "--n", "25", "--p", "2", "--h", "2", "--R", "999",
                "--seed", "11", "--out", str(out)]
        assert main(args) == 0
        first = out.read_bytes()
        assert main(args) == 0
        assert out.read_bytes() == first
        lines = first.decode().splitlines()
        assert lines[1:3] == ["n=25 p=2 h=2 R=999 seed=11", "masks=1,2,3"]
        assert len(lines) == 4
        for values in np.frombuffer(bytes.fromhex(lines[3]), "<f8").reshape(3, 999):
            assert values.tolist() == sorted(values)

    def test_h_exceeding_p_fails(self, capsys):
        assert main(["null", "--n", "10", "--p", "2", "--h", "3", "--R", "9"]) == 2

    @pytest.mark.parametrize("n", ["0", "-3"])
    def test_n_below_one_refused(self, tmp_path, capsys, n):
        out = tmp_path / "ref.txt"
        assert main(["null", "--n", n, "--p", "2", "--h", "2", "--R", "5",
                     "--out", str(out)]) == 2
        assert capsys.readouterr() == ("", "error: n must be >= 1\n")
        assert not out.exists()

    def test_cache_dir_naming(self, tmp_path):
        assert main(["null", "--n", "5", "--p", "1", "--h", "1", "--R", "9",
                     "--seed", "2", "--cache-dir", str(tmp_path)]) == 0
        assert sorted(os.listdir(tmp_path)) == ["null_n5_p1_h1_R9_s2.v2.txt"]

    def test_unwritable_path(self, capsys):
        assert main(["null", "--n", "5", "--p", "1", "--h", "1", "--R", "9",
                     "--out", "/no-such-dir/ref.txt"]) == 2

    def test_oversized_reference_fails_before_allocating(self, tmp_path, capsys):
        # R=999 x 2^20 - 1 subsets would need about 8 GB.
        tracemalloc.start()
        try:
            code = main(["null", "--n", "10", "--p", "20", "--h", "20", "--R", "999",
                         "--out", str(tmp_path / "ref.txt")])
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert code == 2
        assert peak < 16 * 2**20
        assert "MiB budget" in capsys.readouterr().err
        assert not (tmp_path / "ref.txt").exists()


class TestExitCodes:
    """Exit 1 means a rejected sample and nothing else."""

    def test_memory_error_exits_2(self, uniform_csv, monkeypatch, capsys):
        def exhausted(*args, **kwargs):
            raise MemoryError("Unable to allocate 8.00 GiB for an array\nwith shape (999, 1048575)")

        monkeypatch.setattr("unicube.cli.build_null_reference", exhausted)
        code = main(["test", str(uniform_csv), "--R", "49"])
        captured = capsys.readouterr()
        assert code == 2
        assert "decision:" not in captured.out
        assert captured.err.count("\n") == 1
        assert captured.err.startswith("error: out of memory: Unable to allocate 8.00 GiB")

    def test_internal_error_exits_2(self, uniform_csv, monkeypatch, capsys):
        def broken(*args, **kwargs):
            raise RuntimeError("scoring failed\nhalfway")

        monkeypatch.setattr("unicube.cli.run_tests", broken)
        code = main(["test", str(uniform_csv), "--R", "49"])
        captured = capsys.readouterr()
        assert code == 2
        assert "decision:" not in captured.out
        assert captured.err == "error: RuntimeError: scoring failed halfway\n"

    @pytest.mark.parametrize("threads", ["0", "-3"])
    @pytest.mark.parametrize("command", [
        ["test", "{csv}", "--R", "49"],
        ["null", "--n", "5", "--p", "1", "--h", "1", "--R", "9", "--out", "{out}"],
        ["power", "--alternative", "clayton:theta=2", "--n", "10", "--trials", "4",
         "--R", "19"],
    ])
    def test_threads_below_one_refused(self, uniform_csv, tmp_path, capsys, command,
                                       threads):
        argv = [arg.format(csv=uniform_csv, out=tmp_path / "ref.txt") for arg in command]
        assert main(argv + ["--threads", threads]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert f"--threads must be >= 1, got {threads}" in captured.err
        assert not (tmp_path / "ref.txt").exists()


class TestCmdPower:
    def test_copulas_dry_run_row_count(self, capsys):
        assert main(["power", "--table", "copulas", "--trials", "0"]) == 0
        out = capsys.readouterr().out
        lines = out.strip().splitlines()
        assert lines[0] == "table,alternative,param,n,h,mode,power,se,trials,R,seed,paper_ref_value"
        computed = [l for l in lines[1:] if ",m," in l or ",s," in l]
        assert len(computed) == 24

    def test_single_alternative_row_per_mode(self, capsys):
        code = main(["power", "--alternative", "clayton:theta=2", "--n", "20",
                     "--trials", "20", "--R", "49", "--seed", "2"])
        out = capsys.readouterr().out
        assert code == 0
        lines = out.strip().splitlines()
        assert len(lines) == 3  # header + one row per mode
        assert all(",custom," not in lines[0] for _ in [0])

    def test_unknown_alternative_lists_families(self, capsys):
        code = main(["power", "--alternative", "cauchy:theta=1"])
        err = capsys.readouterr().err
        assert code == 2
        assert "supported" in err and "clayton" in err

    def test_partial_rho_slice(self, capsys):
        assert main(["power", "--table", "partial", "--rho", "0.3",
                     "--trials", "0"]) == 0
        out = capsys.readouterr().out
        data_rows = [l for l in out.strip().splitlines()[1:]
                     if not ",paper:" in l]
        assert len(data_rows) == 12
        hs = sorted({int(l.split(",")[4]) for l in data_rows})
        assert hs == [1, 2, 3, 4, 5, 6]

    def test_unknown_mode_refused_on_dry_run(self, capsys):
        assert main(["power", "--table", "copulas", "--trials", "0", "--modes", "m,x"]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == "error: unsupported mode 'x'; power studies use m and s\n"

    @pytest.mark.parametrize("run", [
        ["--alternative", "clayton:theta=2", "--n", "10", "--trials", "20", "--R", "19"],
        ["--table", "copulas", "--trials", "0"],
    ], ids=["alternative", "dry-run"])
    def test_repeated_mode_refused(self, capsys, run):
        assert main(["power", *run, "--modes", "m,m,s"]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == "error: mode 'm' is given more than once\n"

    def test_output_file_deterministic(self, tmp_path):
        a = tmp_path / "a.csv"
        b = tmp_path / "b.csv"
        for target in (a, b):
            main(["power", "--alternative", "fgm:theta=1", "--n", "15",
                  "--trials", "10", "--R", "29", "--seed", "9",
                  "--out", str(target)])
        assert a.read_bytes() == b.read_bytes()


class TestCmdDiagnose:
    def test_default_small_run_passes(self, capsys):
        code = main(["diagnose", "--p", "2", "--grid-m", "7", "--functions", "5",
                     "--sheets", "500", "--pairs", "3", "--draws", "3000",
                     "--seed", "6"])
        out = capsys.readouterr().out
        assert code == 0
        assert out.count("[pass]") == 3

    def test_dimension_cap(self, capsys):
        assert main(["diagnose", "--p", "5"]) == 2

    @pytest.mark.parametrize("flag,value,least", [
        ("--sheets", 0, 2), ("--sheets", 1, 2), ("--draws", 1, 2),
        ("--pairs", 0, 1), ("--functions", 0, 1),
    ])
    def test_counts_that_check_nothing_refused(self, capsys, flag, value, least):
        assert main(["diagnose", flag, str(value)]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == f"error: {flag} must be >= {least}, got {value}\n"

    def test_truncation_note(self, capsys):
        code = main(["diagnose", "--p", "1", "--grid-m", "5", "--functions", "3",
                     "--sheets", "400", "--pairs", "2", "--draws", "2000",
                     "--truncation", "5", "--seed", "6"])
        out = capsys.readouterr().out
        assert "truncation at 5" in out
        assert code in (0, 1)


class TestHelp:
    @pytest.mark.parametrize("cmd", ["test", "null", "power", "diagnose"])
    def test_help_lists_flags(self, cmd, capsys):
        with pytest.raises(SystemExit) as exc:
            main([cmd, "--help"])
        assert exc.value.code == 0
        out = capsys.readouterr().out
        assert "--seed" in out


def _sha(data):
    return hashlib.sha256(data if isinstance(data, bytes) else data.encode()).hexdigest()


@pytest.fixture
def cube_csv(tmp_path):
    path = tmp_path / "u3.csv"
    write_csv(path, uniform_sample(RandomStream(41), 50, 3).data)
    return path


def _counting(monkeypatch):
    """Count the builds and loads that ``cmd_test`` makes through ``unicube.cli``."""
    calls = collections.Counter()
    for name in ("build_null_reference", "asymptotic_norm_draws", "load_reference",
                 "load_table"):
        def counted(*args, _name=name, _original=getattr(unicube.cli, name), **kwargs):
            calls[_name] += 1
            return _original(*args, **kwargs)
        monkeypatch.setattr(unicube.cli, name, counted)
    return calls


class TestCacheStep:
    """Both calibrations of ``unicube test`` go through one load-or-build step."""

    MODES = {"both": ["--R", "49"], "m": ["--R", "49"], "s": ["--R", "49"],
             "m-as": ["--asym-draws", "500"], "s-as": ["--asym-draws", "500"]}
    # Exit code and sha256 of stdout and of the --json file.
    PINS = {
        "both": (0, "dd331d723573de10d2ab68e4ec708a3141667c03ee4622340e59f9dde9b454f3",
                  "82bfe5eb4b7447f8d41c2737077a054a3cafaf91e3e5a5c05f2db402e729573c"),
        "m": (0, "838b54110a5577bd96530eb11ac5548fae44e0099bd0f356d247522d34b949c4",
               "8b4d81d4953ad455da1d22dfe84c00dc3203557621e39c068819bc7ed57a572d"),
        "s": (0, "e0633612d73ba3cc20b5327784944290eefb2b4088dadad6a7563667603b84bc",
               "9b66725f69670236201f1a8ce165157ab6c2045d3b7f5ec3a51f0d31fc9f3f7d"),
        "m-as": (0, "f17f08f7eb2d3127b95a6425d96e808be33d794d78fc2abb246b5ae039df82bd",
                  "cb220a387f84a0c3c2fd197fe517dbd68b7e87ea47e5aed5857f186ca97fd3d0"),
        "s-as": (0, "2b576f338f92583cc818bde3eea7d5f9c211997bdde4bdd61e150b181ed198fa",
                  "cf85fe6688871d30479dac9036725f6ff3a54830c4ce91b2591dc577d771d5ec"),
    }

    def run(self, csv, mode, tmp_path, capsys, *extra):
        out = tmp_path / "reports.jsonl"
        code = main(["test", str(csv), "--mode", mode, "--seed", "5", "--json", str(out)]
                    + self.MODES[mode] + list(extra))
        return code, _sha(capsys.readouterr().out), _sha(out.read_bytes())

    @pytest.mark.parametrize("mode", list(MODES))
    def test_reports_pinned_cold_and_warm(self, cube_csv, tmp_path, capsys, mode):
        cache = ["--null-cache", str(tmp_path / "cache")]
        cold = self.run(cube_csv, mode, tmp_path, capsys, *cache)
        warm = self.run(cube_csv, mode, tmp_path, capsys, *cache)
        assert cold == warm == self.PINS[mode]

    @pytest.mark.parametrize("mode,builder,loader,count", [
        ("both", "build_null_reference", "load_reference", 1),
        ("m", "build_null_reference", "load_reference", 1),
        ("s", "build_null_reference", "load_reference", 1),
        ("m-as", "asymptotic_norm_draws", "load_table", 3),
    ])
    def test_cold_builds_and_warm_loads(self, cube_csv, tmp_path, capsys, monkeypatch,
                                        mode, builder, loader, count):
        calls = _counting(monkeypatch)
        cache = ["--null-cache", str(tmp_path / "cache")]
        self.run(cube_csv, mode, tmp_path, capsys, *cache)
        assert calls == {builder: count}
        calls.clear()
        self.run(cube_csv, mode, tmp_path, capsys, *cache)
        assert calls == {loader: count}

    @pytest.mark.parametrize("mode", ["both", "m-as"])
    def test_no_cache_builds_and_writes_nothing(self, cube_csv, tmp_path, capsys,
                                                monkeypatch, mode):
        monkeypatch.delenv("UNICUBE_CACHE", raising=False)
        monkeypatch.chdir(tmp_path)
        calls = _counting(monkeypatch)
        before = sorted(os.listdir(tmp_path))
        code = main(["test", str(cube_csv), "--mode", mode, "--seed", "5"]
                    + self.MODES[mode])
        capsys.readouterr()
        assert code in (0, 1)
        assert sorted(calls) == (["build_null_reference"] if mode == "both"
                                 else ["asymptotic_norm_draws"])
        assert sorted(os.listdir(tmp_path)) == before

    def test_cached_tables_equal_the_library_tables(self, cube_csv, tmp_path, capsys):
        cache = tmp_path / "cache"
        self.run(cube_csv, "m-as", tmp_path, capsys, "--null-cache", str(cache))
        for k, table in build_asymptotic_tables(RandomStream(5), 3, draws=500).items():
            cached = load_table(cache / table_filename(k, default_nu_max(k), 500, 5))
            assert (cached.k, cached.nu_max, cached.seed) == (k, table.nu_max, table.seed)
            assert cached.draws.view(np.uint64).tolist() == table.draws.view(np.uint64).tolist()

    def test_null_cache_flag_wins_over_env(self, cube_csv, tmp_path, capsys, monkeypatch):
        monkeypatch.setenv("UNICUBE_CACHE", str(tmp_path / "env"))
        self.run(cube_csv, "m", tmp_path, capsys, "--null-cache", str(tmp_path / "flag"))
        assert not (tmp_path / "env").exists()
        assert "null_n50_p3_h3_R49_s5.v2.txt" in os.listdir(tmp_path / "flag")

    def test_null_writes_into_env_cache(self, tmp_path, capsys, monkeypatch):
        monkeypatch.setenv("UNICUBE_CACHE", str(tmp_path / "env"))
        monkeypatch.chdir(tmp_path)
        assert main(["null", "--n", "5", "--p", "1", "--h", "1", "--R", "9",
                     "--seed", "2"]) == 0
        path = os.path.join(str(tmp_path / "env"), "null_n5_p1_h1_R9_s2.v2.txt")
        assert capsys.readouterr().out == path + "\n"
        assert sorted(os.listdir(tmp_path)) == ["env"]
        assert os.path.exists(path)


class TestPowerOptionScope:
    """``unicube power`` refuses the options that the chosen run would ignore,
    and a dry run refuses the values that a real run refuses. An out-of-range
    dimension or max cardinality reads the same from ``null``, ``test`` and
    ``power``, and writes nothing."""

    @pytest.mark.parametrize("argv,message", [
        (["power", "--table", "beta", "--trials", "0", "--rho", "0.3", "--n", "7",
          "--h", "9"],
         "--n does not apply to --table beta"),
        (["power", "--table", "partial", "--trials", "0", "--n", "20"],
         "--n does not apply to --table partial"),
        (["power", "--table", "copulas", "--trials", "0", "--h", "2"],
         "--h does not apply to --table copulas"),
        (["power", "--table", "beta", "--trials", "0", "--rho", "0.3"],
         "--rho does not apply to --table beta"),
        (["power", "--alternative", "clayton:theta=2", "--trials", "0", "--rho", "0.3"],
         "--rho does not apply to --alternative"),
        (["power", "--table", "beta", "--trials", "0", "--R", "0"], "R must be >= 1"),
        (["power", "--alternative", "clayton:theta=2", "--trials", "0", "--R", "-5"],
         "R must be >= 1"),
        (["power", "--alternative", "clayton:theta=2", "--trials", "0", "--h", "5"],
         "max cardinality must be in [1, 2], got 5"),
        (["power", "--alternative", "clayton:theta=2", "--trials", "0", "--h", "0"],
         "max cardinality must be in [1, 2], got 0"),
        (["power", "--alternative", "normal-copula:rho=0.3,p=21", "--trials", "0"],
         "dimension must be in [1, 20], got 21"),
        (["null", "--n", "10", "--p", "0", "--h", "1", "--R", "9", "--out", "{written}"],
         "dimension must be in [1, 20], got 0"),
        (["null", "--n", "10", "--p", "21", "--h", "2", "--R", "9", "--out", "{written}"],
         "dimension must be in [1, 20], got 21"),
        (["null", "--n", "10", "--p", "2", "--h", "3", "--R", "9", "--out", "{written}"],
         "max cardinality must be in [1, 2], got 3"),
        (["null", "--n", "10", "--p", "2", "--h", "0", "--R", "9", "--out", "{written}"],
         "max cardinality must be in [1, 2], got 0"),
        (["test", "{csv}", "--h", "3", "--null-cache", "{written}"],
         "max cardinality must be in [1, 2], got 3"),
        (["test", "{csv}", "--h", "0", "--null-cache", "{written}"],
         "max cardinality must be in [1, 2], got 0"),
    ])
    def test_refused(self, uniform_csv, tmp_path, capsys, argv, message):
        written = tmp_path / "written"
        assert main([arg.format(csv=uniform_csv, written=written) for arg in argv]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == f"error: {message}\n"
        assert not written.exists()

    @pytest.mark.parametrize("argv,digest", [
        (["--table", "partial", "--rho", "0.3", "--trials", "0"],
         "9ccc4eeafde406a87e5dc21efbec88374680c85ce709916d7d5811ea40bd1c95"),
        (["--alternative", "normal-copula:rho=0.3,p=6", "--n", "50", "--trials", "10",
          "--R", "49", "--seed", "11"],
         "fad5f025a258a4453dbd7f9a3cd6410f4cd1c71d2e7cf2df1b8fe70d529b53a5"),
        (["--alternative", "normal-copula:rho=0.3,p=6", "--trials", "10",
          "--R", "49", "--seed", "11"],
         "fad5f025a258a4453dbd7f9a3cd6410f4cd1c71d2e7cf2df1b8fe70d529b53a5"),
    ], ids=["partial-rho", "alternative-n50", "alternative-default-n"])
    def test_accepted_forms_pinned(self, capsys, argv, digest):
        assert main(["power"] + argv) == 0
        assert _sha(capsys.readouterr().out) == digest

    def test_oversized_cell_fails_before_allocating(self, capsys):
        # 200 trials x 2^20 - 1 subsets would need about 1.6 GB.
        tracemalloc.start()
        start = time.perf_counter()
        try:
            code = main(["power", "--alternative", "normal-copula:rho=0.3,p=20", "--h", "20",
                         "--trials", "200"])
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert code == 2
        assert time.perf_counter() - start < 1.0
        assert peak < 16 * 2**20
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.endswith("MiB budget; lower --trials or h\n")


class TestMRuleWarning:
    """A finite run whose m rule cannot reject, because 1/(R+1) is not below
    its per-subset cutoff, says so in one stderr line after its output."""

    WARNING = ("warning: the m rule cannot reject: 1/(R+1)=0.001 is not below its "
               "per-subset cutoff 0.000814 for 63 subsets; use --R >= 1228\n")

    @pytest.mark.parametrize("p,argv,warned", [
        (6, [], True),
        (6, ["--mode", "s"], False),
        (6, ["--mode", "m", "--R", "1228"], False),
        (2, [], False),
    ])
    def test_test(self, tmp_path, capsys, p, argv, warned):
        path = tmp_path / "u.csv"
        write_csv(path, uniform_sample(RandomStream(9), 50, p).data)
        assert main(["test", str(path), "--seed", "3"] + argv) == 0
        captured = capsys.readouterr()
        assert "decision: not-reject" in captured.out
        assert captured.err == (self.WARNING if warned else "")

    @pytest.mark.parametrize("argv,warned", [
        (["--mode", "m-as", "--asym-draws", "500"], True),
        (["--mode", "m-as", "--asym-draws", "1228"], False),
        (["--mode", "s-as", "--asym-draws", "500"], False),
    ])
    def test_asymptotic(self, tmp_path, capsys, argv, warned):
        # The m-as rule's smallest p-value is 1/(M+1), for M table draws.
        path = tmp_path / "u.csv"
        write_csv(path, uniform_sample(RandomStream(9), 50, 6).data)
        assert main(["test", str(path), "--seed", "3"] + argv) == 0
        captured = capsys.readouterr()
        assert "decision: not-reject" in captured.out
        assert captured.err == (
            "warning: the m-as rule cannot reject: 1/(M+1)=0.002 is not below its "
            "per-subset cutoff 0.000814 for 63 subsets; use --asym-draws >= 1228\n"
            if warned else "")

    @pytest.mark.parametrize("argv,warned", [
        (["--alternative", "normal-copula:rho=0.3,p=6", "--n", "20", "--R", "999"], True),
        (["--alternative", "normal-copula:rho=0.3,p=6", "--n", "20", "--h", "1"], False),
        (["--table", "partial", "--rho", "0.3", "--trials", "2", "--R", "999"], True),
        (["--table", "partial", "--rho", "0.3", "--trials", "0"], False),
    ])
    def test_power(self, capsys, argv, warned):
        assert main(["power", "--trials", "5"] + argv) == 0
        captured = capsys.readouterr()
        assert captured.out.startswith("table,")
        assert captured.err == (self.WARNING if warned else "")


class TestTestOptionScope:
    """``unicube test`` refuses the options that its mode would ignore."""

    @pytest.mark.parametrize("mode,option", [
        (mode, option) for mode in ("m-as", "s-as")
        for option in (["--h", "2"], ["--R", "49"], ["--threads", "2"])
    ] + [
        (mode, option) for mode in ("both", "m", "s")
        for option in (["--asym-draws", "500"], ["--nu-max", "8"])
    ])
    def test_refused(self, uniform_csv, tmp_path, capsys, mode, option):
        cache = tmp_path / "cache"
        argv = ["test", str(uniform_csv), "--mode", mode, "--null-cache", str(cache)]
        assert main(argv + option) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == f"error: {option[0]} does not apply to --mode {mode}\n"
        assert not cache.exists()


def test_earlier_cache_files_are_not_read(uniform_csv, tmp_path, capsys):
    # A cache file of the earlier text layout, under its earlier name, is never
    # looked up: the call builds and writes the current file beside it.
    cache = tmp_path / "cache"
    cache.mkdir()
    old = cache / "null_n50_p2_h2_R49_s5.txt"
    old.write_text("unicube-null v1\nn=50 p=2 h=2 R=49 seed=5\nH=1 : nan\n")
    argv = ["test", str(uniform_csv), "--R", "49", "--seed", "5", "--null-cache", str(cache)]
    assert main(argv) == 0
    assert sorted(os.listdir(cache)) == ["null_n50_p2_h2_R49_s5.txt",
                                         "null_n50_p2_h2_R49_s5.v2.txt"]
    assert old.read_text().startswith("unicube-null v1")
    assert "decision: not-reject" in capsys.readouterr().out


@settings(max_examples=40, deadline=None)
@given(data=st.data(), n=st.integers(1, 12), p=st.integers(1, 3),
       mode=st.sampled_from(["both", "m", "s", "m-as", "s-as"]),
       alpha=st.sampled_from(["0.05", "0.5"]), cached=st.booleans())
def test_cmd_test_argument_space(data, n, p, mode, alpha, cached):
    """Small values of every ``unicube test`` option that the mode uses: exit 1
    means a reject, exit 2 a single error line and no report, and a warm call
    equals the cold one."""
    values = data.draw(hnp.arrays(np.float64, (n, p), elements=st.floats(0.0, 1.0)))
    if mode in ("m-as", "s-as"):
        options = ["--asym-draws", str(data.draw(st.integers(1, 200)))]
    else:
        h = data.draw(st.one_of(st.none(), st.integers(0, p + 1)))
        options = ["--R", str(data.draw(st.integers(1, 19)))]
        options += [] if h is None else ["--h", str(h)]
    with tempfile.TemporaryDirectory() as tmp:
        csv = os.path.join(tmp, "x.csv")
        with open(csv, "w") as fh:
            fh.write("".join(",".join(f"{v:.12g}" for v in row) + "\n" for row in values))
        cache = os.path.join(tmp, "cache")
        argv = ["test", csv, "--mode", mode, "--alpha", alpha, "--seed", "3"] + options
        argv += ["--null-cache", cache] if cached else []

        def call():
            out, err = io.StringIO(), io.StringIO()
            with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
                code = main(argv)
            return code, out.getvalue(), err.getvalue()

        with mock.patch.dict(os.environ):
            os.environ.pop("UNICUBE_CACHE", None)
            cold = call()
        code, out, err = cold
        assert code in (0, 1, 2)
        assert (code == 1) == ("decision: reject" in out)
        if code == 2:
            assert out == "" and err.startswith("error: ") and err.count("\n") == 1
        if cached and os.path.isdir(cache):
            assert call() == cold
