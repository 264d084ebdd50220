"""Command-line surface: exit codes, cache files, CSV output, diagnostics."""

import os
import tracemalloc

import numpy as np
import pytest

from unicube import RandomStream, uniform_sample
from unicube.brownian import default_nu_max
from unicube.cli import main
from unicube.inference import table_filename


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
        assert files == [".null_n50_p2_h2_R99_s5.txt.bin", "null_n50_p2_h2_R99_s5.txt"]
        stamps = [(cache / name).read_bytes() for name in files]
        code_b = main(args)
        out_b = capsys.readouterr().out
        assert (code_a, out_a) == (code_b, out_b)
        assert [(cache / name).read_bytes() for name in files] == stamps

    def test_env_var_cache(self, uniform_csv, tmp_path, monkeypatch):
        cache = tmp_path / "envcache"
        monkeypatch.setenv("UNICUBE_CACHE", str(cache))
        main(["test", str(uniform_csv), "--R", "49", "--seed", "5"])
        assert sorted(os.listdir(cache)) == [".null_n50_p2_h2_R49_s5.txt.bin",
                                             "null_n50_p2_h2_R49_s5.txt"]

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

    def test_missing_file(self, capsys):
        assert main(["test", "no-such-file.csv"]) == 2

    def test_cache_config_mismatch(self, uniform_csv, tmp_path, capsys):
        cache = tmp_path / "cache"
        main(["test", str(uniform_csv), "--R", "49", "--seed", "5",
              "--null-cache", str(cache)])
        capsys.readouterr()
        good = cache / "null_n50_p2_h2_R49_s5.txt"
        # A file whose name promises a different seed than its content.
        (cache / "null_n50_p2_h2_R49_s6.txt").write_bytes(good.read_bytes())
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
        path = cache / "null_n50_p2_h2_R49_s5.txt"
        lines = path.read_text().splitlines()
        head, _, body = lines[2].partition(":")
        lines[2] = f"{head}: {' '.join(reversed(body.split()))}"
        path.write_text("\n".join(lines) + "\n")
        code = main(args)
        err = capsys.readouterr().err
        assert code == 2
        assert "subset 0x1 is not sorted ascending" in err

    def test_table_config_mismatch(self, tmp_path, capsys):
        data = uniform_sample(RandomStream(21), 40, 1).data
        path = tmp_path / "u1.csv"
        write_csv(path, data)
        cache = tmp_path / "cache"
        args = ["test", str(path), "--mode", "m-as", "--asym-draws", "500",
                "--null-cache", str(cache)]
        assert main(args + ["--seed", "5"]) in (0, 1)
        capsys.readouterr()
        sidecar, good = sorted(os.listdir(cache))
        assert sidecar == f".{good}.bin" and good.startswith("asym_k1_")
        # A table file whose name promises a different seed than its content.
        (cache / good.replace("_s5_", "_s6_")).write_bytes((cache / good).read_bytes())
        code = main(args + ["--seed", "6"])
        err = capsys.readouterr().err
        assert code == 2
        assert "does not match" in err and "seed=5" in err and "seed=6" in err

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
        assert names == sorted(tables + [f".{name}.bin" for name in tables])


def _listing(cache):
    """Name, modification time and inode of every file in the cache (a
    rename into place changes the inode even within one clock tick)."""
    stats = {name: os.stat(cache / name) for name in os.listdir(cache)}
    return {name: (st.st_mtime_ns, st.st_ino) for name, st in stats.items()}


class TestWarmCache:
    """Warm calls read the sidecars and never write; the text stays the source
    of the results."""

    MODES = [["--mode", "both"], ["--mode", "s-as", "--asym-draws", "300"]]

    def run(self, argv, capsys, tmp_path):
        out = tmp_path / "reports.jsonl"
        code = main(argv + ["--json", str(out)])
        return code, capsys.readouterr().out, out.read_bytes()

    @pytest.mark.parametrize("mode", MODES)
    def test_cold_warm_and_warm_without_sidecars_agree(self, pointmass_csv, tmp_path,
                                                       capsys, mode):
        cache = tmp_path / "cache"
        argv = ["test", str(pointmass_csv), "--R", "49", "--seed", "5",
                "--null-cache", str(cache)] + mode
        cold = self.run(argv, capsys, tmp_path)
        warm = self.run(argv, capsys, tmp_path)
        for name in os.listdir(cache):
            if name.startswith("."):
                os.remove(cache / name)
        bare = self.run(argv, capsys, tmp_path)
        assert cold[0] == 1 and "decision: reject" in cold[1]
        assert cold == warm == bare

    @pytest.mark.parametrize("mode", MODES)
    def test_warm_calls_write_nothing(self, uniform_csv, tmp_path, capsys, mode):
        cache = tmp_path / "cache"
        argv = ["test", str(uniform_csv), "--R", "49", "--seed", "5",
                "--null-cache", str(cache)] + mode
        main(argv)
        before = _listing(cache)
        assert len(before) >= 2 and all(f".{name}.bin" in before
                                        for name in before if not name.startswith("."))
        main(argv)
        assert _listing(cache) == before
        for name in list(before):
            if name.startswith("."):
                os.remove(cache / name)
                del before[name]
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
        assert lines[1] == "n=25 p=2 h=2 R=999 seed=11"
        assert len(lines) == 5
        for line in lines[2:]:
            values = [float(tok) for tok in line.split(":")[1].split()]
            assert len(values) == 999
            assert values == sorted(values)

    def test_h_exceeding_p_fails(self, capsys):
        assert main(["null", "--n", "10", "--p", "2", "--h", "3", "--R", "9"]) == 2

    def test_cache_dir_naming(self, tmp_path):
        assert main(["null", "--n", "5", "--p", "1", "--h", "1", "--R", "9",
                     "--seed", "2", "--cache-dir", str(tmp_path)]) == 0
        assert sorted(os.listdir(tmp_path)) == [".null_n5_p1_h1_R9_s2.txt.bin",
                                                "null_n5_p1_h1_R9_s2.txt"]

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
