"""Command line surface: verbs, exit codes, byte-stable reports."""

import argparse
import hashlib
import json
import multiprocessing
import os
import subprocess
import sys
import time

import pytest

from hypergrowth import cli
from hypergrowth.core import (Coloring, coloring_from_text, coloring_to_text,
                              injection_witnesses, restrict_normalize)
from hypergrowth.ideals import IdealSpec, load_cache
from hypergrowth.rng import Lcg


def run_cli(*argv, env_extra=None, stdin_text=None, timeout=None):
    env = os.environ.copy()
    env.pop("HYPERGROWTH_CACHE", None)
    if env_extra:
        env.update(env_extra)
    return subprocess.run([sys.executable, "-m", "hypergrowth.cli", *argv],
                          capture_output=True, text=True, env=env,
                          input=stdin_text, timeout=timeout)


def write_coloring(path, c):
    path.write_text(coloring_to_text(c))
    return str(path)


@pytest.fixture
def parity_file(tmp_path):
    c = Coloring.from_function(3, 2, 10, lambda e: e[0] % 2)
    return write_coloring(tmp_path / "parity.col", c)


@pytest.fixture
def str_digits():
    """Sets the interpreter's int-to-string digit limit for one test."""
    old = sys.get_int_max_str_digits()
    yield sys.set_int_max_str_digits
    sys.set_int_max_str_digits(old)


class TestSequenceVerb:
    def test_g_example(self):
        res = run_cli("sequence", "--name", "G", "--n", "11")
        assert res.returncode == 0
        assert res.stdout == "G(11)=41\n"

    def test_f_value(self):
        res = run_cli("sequence", "--name", "F", "--n", "8")
        assert res.stdout == "F(8)=21\n"

    def test_gk_with_flag_and_inline_form(self):
        flag = run_cli("sequence", "--name", "Gk", "--k", "4", "--n", "9")
        inline = run_cli("sequence", "--name", "Gk(4)", "--n", "9")
        assert flag.stdout == inline.stdout == "Gk(4)(9)=10\n"

    def test_huge_part_builds_no_ring(self, capsys):
        huge = "100000000000000000000"
        rc, out = main_in_process(["sequence", "--name", "Gk", "--k", huge,
                                   "--n", "5"], capsys)
        assert (rc, out) == (0, f"Gk({huge})(5)=1\n")
        rc, out = main_in_process(["growth", "--spec", f"builtin:S,k={huge}",
                                   "--n-max", "5"], capsys)
        assert (rc, out) == (0, "".join(f"n={n} count=1\n"
                                        for n in range(1, 6)))

    def test_unknown_name_is_usage_error(self):
        res = run_cli("sequence", "--name", "Z", "--n", "3")
        assert res.returncode == 2
        assert res.stdout == ""
        assert "unknown sequence" in res.stderr

    def test_negative_g_names_g(self):
        res = run_cli("sequence", "--name", "G", "--n", "-5")
        assert res.returncode == 2
        assert res.stdout == ""
        assert res.stderr == "error: G is defined for n >= 0\n"

    def test_k_flag_rejected_off_gk(self):
        res = run_cli("sequence", "--name", "G", "--k", "3", "--n", "5")
        assert res.returncode == 2

    def test_unprintable_value_refused_before_computing(self):
        start = time.monotonic()
        res = run_cli("sequence", "--name", "G", "--n", "100000000000",
                      env_extra={"PYTHONINTMAXSTRDIGITS": "4300"},
                      timeout=10)
        assert time.monotonic() - start < 1.0
        assert res.returncode == 2
        assert res.stdout == ""
        assert res.stderr == ("error: G(100000000000) exceeds the limit "
                              "(4300 digits) for integer string "
                              "conversion\n")

    def test_limit_near_and_off(self, capsys, str_digits):
        str_digits(4300)
        # F(20500) has 4284 digits and is printed; F(20700) has 4326
        assert main_in_process(["sequence", "--name", "F", "--n", "20500"],
                               capsys)[0] == 0
        rc, out = main_in_process(["sequence", "--name", "F", "--n",
                                   "20700"], capsys)
        assert (rc, out) == (2, "")
        # a limit of 0 is no limit, and nothing is refused
        str_digits(0)
        rc, out = main_in_process(["sequence", "--name", "F", "--n",
                                   "20700"], capsys)
        assert rc == 0 and len(out) == len("F(20700)=\n") + 4326

    def test_benchmark_digests_unchanged(self, capsys):
        path = os.path.join(os.path.dirname(__file__), os.pardir, "bench",
                            "expected_cli.json")
        with open(path, encoding="utf-8") as fh:
            pinned = {key: want for key, want in json.load(fh).items()
                      if key.startswith("sequence ")}
        assert len(pinned) == 8
        for key, want in pinned.items():
            _, name, k, n = key.split()
            argv = ["sequence", "--name", name, "--n", n]
            if k != "None":
                argv += ["--k", k]
            rc, out = main_in_process(argv, capsys)
            digest = hashlib.sha256(out.encode()).hexdigest()[:16]
            assert f"{rc}:{digest}" == want, key


class TestGrowthVerb:
    def test_builtin_example_lines(self):
        res = run_cli("growth", "--spec", "builtin:S,k=3", "--n-max", "11")
        assert res.returncode == 0
        want = [1, 1, 2, 3, 4, 6, 9, 13, 19, 28, 41]
        lines = res.stdout.splitlines()
        assert lines == [f"n={i} count={g}" for i, g in enumerate(want, 1)]

    def test_avoid_spec_jobs_do_not_change_bytes(self, tmp_path):
        spec = IdealSpec.avoid([Coloring(3, 2, 4, (0, 0, 0, 0))])
        path = tmp_path / "base.is"
        path.write_text(spec.canonical_text())
        one = run_cli("growth", "--spec", f"avoid:{path}", "--n-max", "5",
                      "--jobs", "1")
        four = run_cli("growth", "--spec", f"avoid:{path}", "--n-max", "5",
                       "--jobs", "4")
        assert one.returncode == four.returncode == 0
        assert one.stdout == four.stdout
        assert one.stdout.splitlines()[-1] == "n=5 count=768"

    def test_budget_drop_prints_unknown(self, tmp_path):
        spec = IdealSpec.avoid([Coloring(3, 2, 4, (0, 0, 0, 0))])
        path = tmp_path / "base.is"
        path.write_text(spec.canonical_text())
        res = run_cli("growth", "--spec", f"avoid:{path}", "--n-max", "6",
                      "--budget", "50")
        assert res.returncode == 0
        lines = res.stdout.splitlines()
        assert "n=4 count=15" in lines
        assert "n=5 count=unknown" in lines
        assert "n=6 count=unknown" in lines

    def test_verdict_lines_appended(self):
        res = run_cli("growth", "--spec", "builtin:S,k=3", "--n-max", "8",
                      "--verdict", "quasi_fibonacci")
        assert res.returncode == 0
        lines = res.stdout.splitlines()
        assert "classification=quasi-fibonacci floor met with equality" \
            in lines
        assert "window=1,8" in lines
        assert "eq_G=true" in lines

    def test_unprintable_count_prints_nothing(self, capsys, str_digits):
        # F(20577) is the first count of S(2) past 4300 digits, and the
        # 20,576 printable lines ahead of it must not be printed either
        str_digits(4300)
        rc = cli.main(["growth", "--spec", "builtin:S,k=2", "--n-max",
                       "21000"])
        got = capsys.readouterr()
        assert rc == 2
        assert got.out == ""
        assert len(got.err.splitlines()) == 1
        assert got.err.startswith("error: Exceeds the limit (4300 digits)")

    @pytest.mark.parametrize("spec", ["builtin:S,k=3", "builtin:w1tight,k=3"])
    def test_far_past_limit_refused_before_counting(self, spec):
        start = time.monotonic()
        res = run_cli("growth", "--spec", spec, "--n-max", "10000000",
                      env_extra={"PYTHONINTMAXSTRDIGITS": "4300"},
                      timeout=10)
        assert time.monotonic() - start < 1.0
        assert res.returncode == 2
        assert res.stdout == ""
        assert res.stderr == ("error: Exceeds the limit (4300 digits) for "
                              "integer string conversion: the count at "
                              "n=10000000\n")

    def test_failed_verdict_prints_nothing(self, tmp_path, capsys):
        spec = IdealSpec.avoid([Coloring(3, 2, 4, (0, 0, 0, 0))])
        path = tmp_path / "base.is"
        path.write_text(spec.canonical_text())
        # no level finishes under a zero budget, so no verdict can be read,
        # and the four count=unknown lines must not be printed either
        rc = cli.main(["growth", "--spec", f"avoid:{path}", "--n-max", "4",
                       "--budget", "0", "--verdict", "constant"])
        got = capsys.readouterr()
        assert (rc, got.out) == (2, "")
        assert got.err == "error: record has no exact counts\n"

    def test_bad_spec_forms(self):
        assert run_cli("growth", "--spec", "builtin:S", "--n-max",
                       "3").returncode == 2
        assert run_cli("growth", "--spec", "magic:x", "--n-max",
                       "3").returncode == 2
        assert run_cli("growth", "--spec", "avoid:", "--n-max",
                       "3").returncode == 2

    def test_missing_avoid_file(self, tmp_path):
        res = run_cli("growth", "--spec", f"avoid:{tmp_path}/gone.is",
                      "--n-max", "3")
        assert res.returncode == 2


class TestGrowthCacheFlag:
    def test_env_var_is_default_path(self, tmp_path):
        cache = tmp_path / "counts.tsv"
        res = run_cli("growth", "--spec", "builtin:S,k=3", "--n-max", "5",
                      env_extra={"HYPERGROWTH_CACHE": str(cache)})
        assert res.returncode == 0
        got = load_cache(str(cache))
        digest = IdealSpec.builtin("S", 3).digest()
        assert got[(digest, 5)] == (4, True)

    def test_flag_wins_over_env(self, tmp_path):
        flagged = tmp_path / "flag.tsv"
        ignored = tmp_path / "env.tsv"
        run_cli("growth", "--spec", "builtin:S,k=3", "--n-max", "4",
                "--cache", str(flagged),
                env_extra={"HYPERGROWTH_CACHE": str(ignored)})
        assert flagged.exists()
        assert not ignored.exists()

    def test_cached_rerun_prints_same_bytes(self, tmp_path):
        cache = str(tmp_path / "counts.tsv")
        first = run_cli("growth", "--spec", "builtin:lineartight,k=3",
                        "--n-max", "7", "--cache", cache)
        second = run_cli("growth", "--spec", "builtin:lineartight,k=3",
                         "--n-max", "7", "--cache", cache)
        assert first.stdout == second.stdout
        assert first.returncode == second.returncode == 0

    def test_garbage_rows_skipped_and_kept(self, tmp_path):
        spec = IdealSpec.avoid([Coloring(3, 2, 4, (0, 0, 0, 0))])
        path = tmp_path / "base.is"
        path.write_text(spec.canonical_text())
        cache = tmp_path / "counts.tsv"
        dg = spec.digest()
        other = "f" * 16 + "\t1\t1\t1"
        garbage = ["not a cache row", other, dg + "\tfive\t768\t1"]
        cache.write_text("\n".join(garbage) + "\n")
        res = run_cli("growth", "--spec", f"avoid:{path}", "--n-max", "5",
                      "--cache", str(cache))
        assert res.returncode == 0
        assert res.stdout == ("n=1 count=1\nn=2 count=1\nn=3 count=2\n"
                              "n=4 count=15\nn=5 count=768\n")
        counts = ((1, 1), (2, 1), (3, 2), (4, 15), (5, 768))
        # the update appends its rows; the malformed ones stay, unread
        assert cache.read_text().splitlines() == garbage + [
            f"{dg}\t{n}\t{c}\t1" for n, c in counts]
        assert load_cache(str(cache)) == {
            ("f" * 16, 1): (1, True),
            **{(dg, n): (c, True) for n, c in counts}}
        assert sorted(p.name for p in tmp_path.iterdir()) == \
            ["base.is", "counts.tsv"]

    def test_non_exact_row_is_recounted(self, tmp_path):
        spec = IdealSpec.avoid([Coloring(3, 2, 4, (0, 0, 0, 0))])
        path = tmp_path / "base.is"
        path.write_text(spec.canonical_text())
        cache = tmp_path / "counts.tsv"
        dg = spec.digest()
        cache.write_text("".join(f"{dg}\t{n}\t{c}\t1\n" for n, c in
                                 ((1, 1), (2, 1), (3, 2), (4, 15)))
                         + f"{dg}\t5\t999\t0\n")
        res = run_cli("growth", "--spec", f"avoid:{path}", "--n-max", "5",
                      "--cache", str(cache))
        assert res.returncode == 0
        assert res.stdout.endswith("n=4 count=15\nn=5 count=768\n")
        assert f"{dg}\t5\t768\t1" in cache.read_text().splitlines()


class TestErrorExits:
    @pytest.mark.parametrize("exc", [RuntimeError, RecursionError])
    def test_engine_errors_exit_two(self, monkeypatch, capsys, exc):
        def fail(*args, **kwargs):
            raise exc("maximum depth exceeded")

        monkeypatch.setattr(cli, "growth", fail)
        rc = cli.main(["growth", "--spec", "builtin:S,k=3", "--n-max", "3"])
        got = capsys.readouterr()
        assert rc == 2
        assert got.out == ""
        assert got.err == "error: maximum depth exceeded\n"

    def test_index_overflow_exits_two(self, capsys):
        rc = cli.main(["make", "chain-matrix",
                       "--m", "100000000000000000000"])
        got = capsys.readouterr()
        assert rc == 2
        assert got.out == ""
        assert got.err.startswith("error: ")
        assert got.err.count("\n") == 1

    def test_out_of_memory_exits_two(self, monkeypatch, capsys):
        def fail(*args, **kwargs):
            raise MemoryError

        monkeypatch.setattr(cli, "make_wealthy", fail)
        rc = cli.main(["make", "wealthy", "--family", "W3.2", "--r", "1000"])
        got = capsys.readouterr()
        assert rc == 2
        assert got.out == ""
        assert got.err == "error: out of memory\n"


def main_in_process(argv, capsys):
    try:
        rc = cli.main(argv)
    except SystemExit as exc:  # argparse usage errors
        rc = exc.code
    return rc, capsys.readouterr().out


class TestSharedParser:
    def test_calls_keep_no_state(self, tmp_path, monkeypatch, capsys):
        flag_cache, env_cache = tmp_path / "flag.tsv", tmp_path / "env.tsv"
        growth = ["growth", "--spec", "builtin:S,k=3", "--n-max", "7"]
        wealthy = ["make", "wealthy", "--family", "W1'", "--r", "3"]
        calls = [
            (growth + ["--verdict", "constant"], None),
            (growth, None),
            (wealthy + ["--variant", "colors:10,rev:1"], None),
            (["sequence", "--name", "G"], None),
            (wealthy, None),
            (growth + ["--cache", str(flag_cache)], None),
            (growth, str(env_cache)),
        ]
        monkeypatch.delenv("HYPERGROWTH_CACHE", raising=False)
        cli._build_parser.cache_clear()  # built by the first call below
        got = []
        for argv, env_cache_path in calls:
            if env_cache_path is not None:
                monkeypatch.setenv("HYPERGROWTH_CACHE", env_cache_path)
            got.append(main_in_process(argv, capsys))
        sub_dir = tmp_path / "sub"
        sub_dir.mkdir()
        want = []
        for argv, env_cache_path in calls:
            argv = [str(sub_dir / "flag.tsv") if a == str(flag_cache) else a
                    for a in argv]
            env = None
            if env_cache_path is not None:
                env = {"HYPERGROWTH_CACHE": str(sub_dir / "env.tsv")}
            res = run_cli(*argv, env_extra=env)
            want.append((res.returncode, res.stdout))
        assert got == want
        assert "classification=" in got[0][1]
        assert "classification=" not in got[1][1]
        assert got[2][1] != got[4][1]
        assert got[3] == (2, "")
        assert flag_cache.exists() and env_cache.exists()

    def test_parser_built_once(self, monkeypatch, capsys):
        progs = []
        init = argparse.ArgumentParser.__init__

        def counting_init(self, *args, **kwargs):
            progs.append(kwargs.get("prog"))
            init(self, *args, **kwargs)

        cli._build_parser.cache_clear()
        monkeypatch.setattr(argparse.ArgumentParser, "__init__", counting_init)
        built = []
        for _ in range(3):
            assert cli.main(["sequence", "--name", "G", "--n", "5"]) == 0
            built.append(len(progs))
        assert capsys.readouterr().out == "G(5)=4\n" * 3
        assert progs.count("hypergrowth") == 1
        assert built[0] > 1 and built == [built[0]] * 3


class TestJobsFlag:
    def test_jobs_is_inert_and_starts_no_process(self, tmp_path, monkeypatch,
                                                 capsys):
        def no_process(*args, **kwargs):
            raise AssertionError("a process was started")

        monkeypatch.setattr(os, "fork", no_process)
        monkeypatch.setattr(multiprocessing.Process, "start", no_process)
        spec = IdealSpec.avoid([Coloring(3, 2, 4, (0, 1, 1, 0))])
        path = tmp_path / "base.is"
        path.write_text(spec.canonical_text())
        for verb, last in (
                (["growth", "--spec", f"avoid:{path}", "--n-max", "5"],
                 "n=5 count=750"),
                (["verify", "--suite", "11"], "criterion 11 [pass] ")):
            want = main_in_process(verb + ["--jobs", "1"], capsys)
            assert want[0] == 0
            assert want[1].splitlines()[-1].startswith(last)
            for jobs in ("0", "-3", "4", "100000"):
                assert main_in_process(verb + ["--jobs", jobs],
                                       capsys) == want, (verb, jobs)
            assert main_in_process(verb + ["--jobs", "x"], capsys) == (2, "")


class TestHeaderFields:
    @pytest.mark.parametrize("verb, text", [
        ("contains", "coloring k=3 l=2 n=4 n=5\nbits 0001\n"),
        ("contains", "coloring k=3 l=2 n4\nbits 0001\n"),
        ("growth", "ideal avoid k=3 l=2 l=2\n"),
        ("growth", "ideal avoid k=3 l2\n"),
        ("growth", "ideal builtin name=S k=3 k=4\n"),
        ("growth", "ideal builtin name=S k\n"),
    ])
    def test_bad_header_exits_two(self, tmp_path, capsys, verb, text):
        path = tmp_path / "bad.txt"
        path.write_text(text)
        if verb == "contains":
            good = write_coloring(tmp_path / "g.col",
                                  Coloring.constant(3, 2, 5, 0))
            argv = ["contains", str(path), good]
        else:
            argv = ["growth", "--spec", f"avoid:{path}", "--n-max", "3"]
        rc = cli.main(argv)
        got = capsys.readouterr()
        assert rc == 2
        assert got.out == ""
        assert got.err.startswith("error: ")
        assert got.err.count("\n") == 1
        assert "repeated field" in got.err or "malformed field" in got.err


class TestMalformedInputs:
    @pytest.mark.parametrize("text", [
        "coloring k=3 l=2 n=4\nbits\n",
        "coloring k=3 l=2 n=4\nbitsy 0000\n",
        "coloring k=3 l=3 n=1000000\n1 2 3 0\n",
    ], ids=["bare-bits", "bitsy", "oversized"])
    def test_bad_block_exits_two(self, tmp_path, capsys, text):
        path = tmp_path / "bad.col"
        path.write_text(text)
        rc = cli.main(["contains", str(path), str(path)])
        got = capsys.readouterr()
        assert rc == 2
        assert got.out == ""
        assert got.err.startswith("error: ")
        assert got.err.count("\n") == 1

    @pytest.mark.parametrize("text", [
        "coloring k=500000 l=2 n=1000000\n1 2 3 0\n",
        "coloring k=100000 l=2 n=200000\nbits 0101\n",
    ], ids=["huge-edge-lines", "huge-bits"])
    def test_huge_header_fails_fast(self, tmp_path, capsys, text):
        # C(n, k) has hundreds of thousands of digits here
        path = tmp_path / "huge.col"
        path.write_text(text)
        start = time.perf_counter()
        rc = cli.main(["contains", str(path), str(path)])
        elapsed = time.perf_counter() - start
        got = capsys.readouterr()
        assert rc == 2
        assert got.out == ""
        assert got.err.startswith("error: ")
        assert got.err.count("\n") == 1
        assert len(got.err) < 80 and "limit" not in got.err
        # the exact C(n, k) of the first header alone takes seconds
        assert elapsed < 3

    @pytest.mark.parametrize("spec", [
        "avoid:k1.is", "avoid:l0.is", "builtin:lineartight,k=1"])
    def test_small_k_or_l_spec_exits_two(self, tmp_path, capsys, spec):
        (tmp_path / "k1.is").write_text("ideal avoid k=1 l=2\n")
        (tmp_path / "l0.is").write_text("ideal avoid k=3 l=0\n")
        spec = spec.replace("avoid:", f"avoid:{tmp_path}/")
        cache = tmp_path / "counts.tsv"
        rc = cli.main(["growth", "--spec", spec, "--n-max", "3",
                       "--cache", str(cache)])
        got = capsys.readouterr()
        assert rc == 2
        assert got.out == ""
        assert got.err.startswith("error: ")
        assert got.err.count("\n") == 1
        assert not cache.exists()


class TestContainsVerb:
    def test_found_with_checkable_injection(self, tmp_path):
        small = Coloring(3, 2, 4, (0, 0, 0, 1))
        big = Coloring.from_function(3, 2, 6,
                                     lambda e: 1 if e == (3, 4, 5) else 0)
        sp = write_coloring(tmp_path / "small.col", small)
        bp = write_coloring(tmp_path / "big.col", big)
        res = run_cli("contains", sp, bp)
        assert res.returncode == 0
        line = res.stdout.strip()
        assert line.startswith("contained=true injection=")
        images = tuple(int(x) for x in line.split("=")[-1].split(","))
        assert injection_witnesses(small, big, images)

    def test_not_found_exits_one(self, tmp_path):
        small = write_coloring(tmp_path / "s.col", Coloring.constant(3, 2, 3, 1))
        big = write_coloring(tmp_path / "b.col", Coloring.constant(3, 2, 6, 0))
        res = run_cli("contains", small, big)
        assert res.returncode == 1
        assert res.stdout == "contained=false\n"

    def test_mismatched_arity_is_usage_error(self, tmp_path):
        big = write_coloring(tmp_path / "b.col", Coloring.constant(3, 2, 5, 0))
        # k differs, then l differs: one error line each, no traceback
        for k, l in ((2, 2), (3, 300)):
            small = write_coloring(tmp_path / "s.col",
                                   Coloring.constant(k, l, 3, 0))
            res = run_cli("contains", small, big)
            assert res.returncode == 2
            assert res.stdout == ""
            assert res.stderr.startswith("error: ")
            assert res.stderr.count("\n") == 1

    def test_malformed_file_is_usage_error(self, tmp_path):
        bad = tmp_path / "bad.col"
        bad.write_text("coloring k=3 l=2 n=4\nbits 01\n")
        good = write_coloring(tmp_path / "g.col", Coloring.constant(3, 2, 4, 0))
        assert run_cli("contains", str(bad), str(good)).returncode == 2

    def test_colours_above_a_byte(self, tmp_path, capsys):
        """l = 300 edge-line files: the first witness, then a miss."""
        big = Coloring.from_function(
            3, 300, 7, lambda e: (e[0] * 97 + e[1] * 31 + e[2] * 7) % 300)
        assert max(big.colors) >= 256
        hp = write_coloring(tmp_path / "host.col", big)
        assert "bits" not in (tmp_path / "host.col").read_text()
        small = restrict_normalize(big, (2, 4, 5, 7))
        sp = write_coloring(tmp_path / "small.col", small)
        rc, out = main_in_process(["contains", sp, hp], capsys)
        assert (rc, out) == (0, "contained=true injection=2,4,5,7\n")
        miss = Coloring(3, 300, 4, (299,) * 4)
        mp = write_coloring(tmp_path / "miss.col", miss)
        rc, out = main_in_process(["contains", mp, hp], capsys)
        assert (rc, out) == (1, "contained=false\n")


class TestMakeAndClassifyRoundTrips:
    def test_rich_round_trip(self, tmp_path):
        made = run_cli("make", "rich", "--r", "4", "--shape", "0,3,0")
        assert made.returncode == 0
        path = tmp_path / "rich.col"
        path.write_text(made.stdout)
        res = run_cli("classify", "rich", "--r", "4", str(path))
        assert res.returncode == 0
        assert res.stdout == "rich=true f=0 g=3 h=0 colors=0,1\n"

    def test_rich_rejected_coloring_exits_one(self, tmp_path):
        path = write_coloring(tmp_path / "flat.col",
                              Coloring.constant(3, 2, 6, 0))
        res = run_cli("classify", "rich", "--r", "4", str(path))
        assert res.returncode == 1
        assert res.stdout == "rich=false\n"

    def test_wealthy_round_trip_with_variant(self, tmp_path):
        made = run_cli("make", "wealthy", "--family", "W2.1", "--r", "2",
                       "--variant", "swap:1,rev:00,perm:213")
        assert made.returncode == 0
        path = tmp_path / "w.col"
        path.write_text(made.stdout)
        scan = run_cli("classify", "wealthy", "--family", "W2.1", "--r", "2",
                       str(path))
        assert scan.returncode == 0
        assert scan.stdout.splitlines()[0] == "wealthy=true"
        targeted = run_cli("classify", "wealthy", "--family", "W2.1", "--r",
                           "2", "--variant", "swap:1,rev:00,perm:213",
                           str(path))
        assert targeted.returncode == 0
        assert "variant=swap:1,rev:00,perm:213" in targeted.stdout

    def test_wealthy_witness_line_format(self, tmp_path):
        made = run_cli("make", "wealthy", "--family", "W2.1", "--r", "2")
        path = tmp_path / "w.col"
        path.write_text(made.stdout)
        res = run_cli("classify", "wealthy", "--family", "W2.1", "--r", "2",
                      str(path))
        assert res.stdout == ("wealthy=true\n"
                              "wealthy family=W2.1 r=2 "
                              "variant=swap:0,rev:00,perm:123 "
                              "base=[1,2]|[3,4]|[5]\n")

    def test_wealthy_wrong_size_is_usage_error(self, tmp_path):
        path = write_coloring(tmp_path / "c.col", Coloring.constant(3, 2, 4, 0))
        assert run_cli("classify", "wealthy", "--family", "W2.1", "--r", "2",
                       str(path)).returncode == 2

    def test_wealthy_nonmember_exits_one(self, tmp_path):
        path = write_coloring(tmp_path / "c.col", Coloring.constant(3, 2, 5, 1))
        res = run_cli("classify", "wealthy", "--family", "W2.1", "--r", "2",
                      str(path))
        assert res.returncode == 1
        assert res.stdout == "wealthy=false\n"

    def test_bad_variant_text_is_usage_error(self):
        res = run_cli("make", "wealthy", "--family", "W2.1", "--r", "2",
                      "--variant", "plain")
        assert res.returncode == 2

    @pytest.mark.parametrize("verb", ["make", "classify"])
    def test_repeated_variant_field_exits_two(self, tmp_path, capsys, verb):
        argv = [verb, "wealthy", "--family", "W1'", "--r", "3",
                "--variant", "colors:01,rev:0,rev:1"]
        if verb == "classify":
            argv.append(write_coloring(tmp_path / "c.col",
                                       Coloring.constant(3, 2, 3, 0)))
        rc = cli.main(argv)
        got = capsys.readouterr()
        assert rc == 2
        assert got.out == ""
        assert got.err == "error: repeated field 'rev'\n"

    def test_make_rich_equal_colors_rejected(self):
        res = run_cli("make", "rich", "--r", "4", "--shape", "0,3,0",
                      "--colors", "1,1")
        assert res.returncode == 2

    def test_make_rich_bad_shape_arity(self):
        res = run_cli("make", "rich", "--r", "4", "--shape", "1,2")
        assert res.returncode == 2


class TestMakeMatrixKinds:
    def test_string_matrix_identity_frozen(self):
        res = run_cli("make", "string-matrix", "--w", "01010", "--mode",
                      "identity")
        assert res.returncode == 0
        assert res.stdout == ("w=01010 mode=identity host_order=6\n"
                              "rows=2,4,6\n"
                              "cols=1,2,4\n"
                              "matrix2 r=3 s=3\n010\n001\n000\n")

    def test_string_matrix_identity_rejects_11(self):
        res = run_cli("make", "string-matrix", "--w", "110", "--mode",
                      "identity")
        assert res.returncode == 2

    def test_chain_matrix_frozen(self):
        res = run_cli("make", "chain-matrix", "--m", "2", "--points", "1,2")
        assert res.returncode == 0
        assert res.stdout == ("m=2 host_order=4\n"
                              "aug_rows=2,3,4\naug_cols=1,2,4\n"
                              "rows=2,3\ncols=1,2\n"
                              "matrix2 r=3 s=3\n010\n000\n001\n")

    def test_chain_matrix_empty_chain(self):
        res = run_cli("make", "chain-matrix", "--m", "3")
        assert res.returncode == 0
        assert "aug_rows=" in res.stdout

    def test_chain_matrix_bad_points(self):
        res = run_cli("make", "chain-matrix", "--m", "2", "--points", "2,1;1,2")
        assert res.returncode == 2


class TestMakeRestrictionKinds:
    def test_string_coloring_fields_and_readback(self, tmp_path):
        res = run_cli("make", "string-coloring", "--w", "101", "--t", "1",
                      "--r", "5")
        assert res.returncode == 0
        head, _, block = res.stdout.partition("coloring")
        assert head == ("w=101 t=1 r=5\n"
                        "c_set=15\nd_set=10,16\n"
                        "vertex_set=1,9,10,15,16\n")
        member = coloring_from_text("coloring" + block)
        got = [member.color((1, i, i + 1)) for i in range(2, 5)]
        assert got == [1, 0, 1]

    def test_disobedient_fields(self):
        res = run_cli("make", "disobedient", "--n", "12", "--a", "1,4",
                      "--b", "2,3")
        assert res.returncode == 0
        lines = res.stdout.splitlines()
        assert lines[0] == "m=2 eps=2"
        assert lines[1] == "t_positions=2,5"
        assert lines[4] == "f_triples=1,8,9;4,10,11"

    def test_disobedient_bad_sets(self):
        res = run_cli("make", "disobedient", "--n", "12", "--a", "1", "--b",
                      "2,3")
        assert res.returncode == 2


class TestClassifyStructure:
    def test_nuclear_report(self, parity_file):
        res = run_cli("classify", "nuclear", parity_file)
        assert res.returncode == 0
        assert res.stdout == ("intervals=1-3,4-6,7-9,10-10\n"
                              "colors=1,0,1,-\n")

    def test_tame_failure_report(self, parity_file):
        res = run_cli("classify", "tame", "--p", "3", parity_file)
        assert res.returncode == 1
        assert res.stdout == ("tame=false\nconditions=0,1,1,1,1\n"
                              "condition=1\nintervals=\n"
                              "metric=length value=4\n")

    def test_tame_pass(self, tmp_path):
        path = write_coloring(tmp_path / "c.col", Coloring.constant(3, 2, 8, 1))
        res = run_cli("classify", "tame", "--p", "3", str(path))
        assert res.returncode == 0
        assert res.stdout == "tame=true\nconditions=1,1,1,1,1\n"

    def test_simple_c1_report(self, parity_file):
        res = run_cli("classify", "simple", "--cpar", "3", parity_file)
        assert res.returncode == 1
        assert res.stdout.splitlines()[0] == "simple=false condition=C1"

    def test_simple_pass_vacuous(self, parity_file):
        res = run_cli("classify", "simple", "--cpar", "4", parity_file)
        assert res.returncode == 0
        assert res.stdout == "simple=true\n"

    def test_simple_narrow_boundary_is_usage_error(self, parity_file):
        assert run_cli("classify", "simple", "--cpar", "1",
                       parity_file).returncode == 2

    def test_stdin_input(self):
        text = coloring_to_text(Coloring.constant(3, 2, 5, 0))
        res = run_cli("classify", "nuclear", "-", stdin_text=text)
        assert res.returncode == 0
        assert res.stdout == "intervals=1-5\ncolors=0\n"


class TestVerifyVerb:
    def test_single_fast_suite(self):
        res = run_cli("verify", "--suite", "1")
        assert res.returncode == 0
        assert res.stdout == ("criterion  1 [pass] sequence tables: "
                              "G(1..11) and F(1..8) match their fixed "
                              "tables\n")

    def test_row_example_suite(self):
        res = run_cli("verify", "--suite", "10")
        assert res.returncode == 0
        assert "[pass]" in res.stdout

    def test_out_of_range_suite(self):
        res = run_cli("verify", "--suite", "99")
        assert res.returncode == 2

    def test_non_numeric_suite(self):
        res = run_cli("verify", "--suite", "everything")
        assert res.returncode == 2


class TestImportContract:
    """A CLI start loads the layers, but not the acceptance suites."""

    SRC = os.path.join(os.path.dirname(os.path.dirname(
        os.path.abspath(__file__))), "src")
    SUITE_1 = ("criterion  1 [pass] sequence tables: G(1..11) and F(1..8) "
               "match their fixed tables\n")

    def run_python(self, *args):
        env = os.environ.copy()
        env["PYTHONPATH"] = self.SRC
        return subprocess.run([sys.executable, *args], capture_output=True,
                              text=True, env=env)

    def test_import_loads_layers_but_not_verify(self):
        res = self.run_python("-c", "import sys, hypergrowth, hypergrowth.cli; "
                                    "print(*sys.modules)")
        assert res.returncode == 0, res.stderr
        loaded = set(res.stdout.split())
        assert not loaded & {"hypergrowth.verify", "fractions", "decimal"}
        # the layers the benchmark's tracer looks up after this import
        assert {f"hypergrowth.{m}" for m in ("ideals", "core", "matrices",
                                             "structure", "constructions",
                                             "cli")} <= loaded

    def test_verify_verb_loads_suites_on_first_use(self, capsys):
        res = self.run_python("-m", "hypergrowth.cli", "verify", "--suite",
                              "1")
        assert (res.returncode, res.stdout) == (0, self.SUITE_1)
        assert cli.main(["verify", "--suite", "1"]) == 0
        assert capsys.readouterr().out == self.SUITE_1


class TestUsageErrors:
    def test_unknown_verb(self):
        assert run_cli("nonsense").returncode == 2

    def test_missing_required_flag(self):
        assert run_cli("sequence", "--name", "G").returncode == 2

    def test_missing_file(self, tmp_path):
        res = run_cli("classify", "nuclear", f"{tmp_path}/gone.col")
        assert res.returncode == 2
        assert "error:" in res.stderr


PLANTED = "5e7de6a46db207f87732fab2c940a8ccbe2a1d6001432b5916d19998606b6622"
ABSENT = "73dd12808c9e407468c0da5c79d1118b7413bd3c45a359c267bb44e57314e389"


def seeded_coloring(rng, n):
    return Coloring.from_function(3, 2, n, lambda e: rng.bit())


class TestPinnedBytes:
    """In-process stdout digests and exit codes of the l=2 make and
    contains paths, pinned so that a change to the bits writer, the
    parser or the containment search shows in the tier-1 suite."""

    @pytest.mark.parametrize("argv,rc,digest", [
        (["make", "wealthy", "--family", "W3.2", "--r", "9"], 0,
         "8bde7d7545e89020b6db4e9f2f51d3d6"
         "8b77912230cdfb473c13a404b4522570"),
        (["make", "rich", "--r", "8", "--shape", "1,1,1"], 0,
         "4d974ac7a7f9c647ff3cbe0deec73418"
         "02055262d7befb32730dbae706adf861"),
    ])
    def test_make(self, capsys, argv, rc, digest):
        got_rc, out = main_in_process(argv, capsys)
        assert (got_rc, hashlib.sha256(out.encode()).hexdigest()) == (rc, digest)

    def test_contains_random_host(self, tmp_path, capsys):
        rng = Lcg(40)
        host = seeded_coloring(rng, 40)
        planted = restrict_normalize(
            host, sorted(rng.randint(1, 40) for _ in range(8)))
        absent = seeded_coloring(rng, 8)
        assert planted.n == 8
        hp = write_coloring(tmp_path / "host.col", host)
        got = []
        for name, small in (("planted", planted), ("absent", absent)):
            sp = write_coloring(tmp_path / f"{name}.col", small)
            rc, out = main_in_process(["contains", sp, hp], capsys)
            got.append((rc, hashlib.sha256(out.encode()).hexdigest()))
        assert got == [(0, PLANTED), (1, ABSENT)]
