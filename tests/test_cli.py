"""Command line surface: verbs, exit codes, byte-stable reports."""

import argparse
import contextlib
import hashlib
import io
import json
import multiprocessing
import os
import random
import subprocess
import sys
import time

import pytest

from hypergrowth import cli, constructions, ideals
from hypergrowth.core import (Coloring, coloring_from_text, coloring_to_text,
                              injection_witnesses, restrict_normalize)
from hypergrowth.ideals import IdealSpec, load_cache
from hypergrowth.rng import Lcg


# stdout of every help screen at 80 columns, pinned before the parser was
# built from the grammar table
HELP_SHA256 = {
    "--help":
        "4f47e9983a10a89032df97266890d7fa4dd1f3f7ac6f149d620382cabe9453dd",
    "make --help":
        "20f0ba97f559e6516715c69321b58c2145df5dc68c7f9fb4eab03fcc58079d10",
    "classify --help":
        "1824e1dd139af2f0f19314ee96b321589215ae85c164b9bd9f3ff4547c532917",
    "make rich --help":
        "998d798ef5aee22d0d1c4adc90c1dfbefc422cf58c18fcd64e62d9ca3972255b",
    "make wealthy --help":
        "eb9196113cc462155cb828a3bd4af41e6d9c3ed70278061b2b638a8cbce727b4",
    "make string-matrix --help":
        "25138d0b0f018885e5802207c075eb67e414374f1a8f8b0e126037af52c060b5",
    "make chain-matrix --help":
        "50522abb729adcaf38c2dff797909ea903c1906ddbdd4000b1f5020385f9f40f",
    "make string-coloring --help":
        "ba27d81d8cd0370abcf10be2c9b2dc00523a13ac1ee5de9134845c0686a6b41e",
    "make disobedient --help":
        "2d0544f512b9ecbf1ae4225165e26291f5f9462d312c4e09d359aa8382620e4b",
    "classify nuclear --help":
        "b0dfa958082edbe99acd269ed2cf9df796ab4ad8f1f2f1d3affd0383ba0eccf0",
    "classify tame --help":
        "6ae88928346fb89a68f6108290cd82ce8883055e036921ef36f67b068eec4261",
    "classify rich --help":
        "159baa1b8d90b05e87d79747c1f832915c14ef6c7a2c1becd0f81bac251ac111",
    "classify simple --help":
        "d925b01ff402febf85c7c33d25f2fe893f5aaad5c0a417ef53b759deffafc391",
    "classify wealthy --help":
        "13980cdd33808441fb61c322d585eebb805bbdf44944aef7452019e15d4aad11",
    "contains --help":
        "3814923b8c8501c186258b53e2a38a4f3b984456b35b84996d95b2c325b6c185",
    "growth --help":
        "608aeecb7416f07c4272657e81385af00f40dab25ec78636b2fb7eeae9006152",
    "sequence --help":
        "420b38dfaa316cf45092640dd99e92115fdbbc5a6a4cd650ca254d887cfc3144",
    "verify --help":
        "a4723b3aab4ba9a803dce74e41df438c102a003ff1c128ef6a9205eff9864e5f",
}
# argparse 3.13 keeps `make --help`'s usage on one line, its sub-verb choices
# and the "..." after them
HELP_SHA256_313 = {
    "make --help":
        "141774735b4851f30b887021792af2ef485178f5cd6327397cfd7c282c716c39",
}


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

    def test_spent_budget_still_counts_free_levels(self, tmp_path, capsys):
        # levels 1 and 2 cost no nodes (n < k), so they fit in a zero
        # budget; level 3 does not, and is dropped with level 4
        spec = IdealSpec.avoid([Coloring(3, 2, 4, (0, 0, 0, 0))])
        path = tmp_path / "base.is"
        path.write_text(spec.canonical_text())
        rc = cli.main(["growth", "--spec", f"avoid:{path}", "--n-max", "4",
                       "--budget", "0"])
        got = capsys.readouterr()
        assert (rc, got.err) == (0, "")
        assert got.out == ("n=1 count=1\nn=2 count=1\n"
                           "n=3 count=unknown\nn=4 count=unknown\n")

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
        # level 1 costs no nodes, so only a negative budget leaves no exact
        # level; then no verdict can be read, and the four count=unknown
        # lines must not be printed either
        rc = cli.main(["growth", "--spec", f"avoid:{path}", "--n-max", "4",
                       "--budget", "-1", "--verdict", "constant"])
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

        monkeypatch.setattr(ideals, "growth", fail)
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

        monkeypatch.setattr(constructions, "make_wealthy", fail)
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
        # only --help and usage errors build it, and once per process
        progs = []
        init = argparse.ArgumentParser.__init__

        def counting_init(self, *args, **kwargs):
            progs.append(kwargs.get("prog"))
            init(self, *args, **kwargs)

        cli._build_parser.cache_clear()
        monkeypatch.setattr(argparse.ArgumentParser, "__init__", counting_init)
        for _ in range(3):
            assert cli.main(["sequence", "--name", "G", "--n", "5"]) == 0
        assert capsys.readouterr().out == "G(5)=4\n" * 3
        assert progs == []  # well-formed calls parse from the table
        built = []
        for argv in (["--help"], ["sequence", "--name", "G"], ["growth"],
                     ["sequence", "--help"]):
            with pytest.raises(SystemExit):
                cli.main(argv)
            built.append(len(progs))
        capsys.readouterr()
        # the first built the whole parser, one per group and verb and the
        # top level; the rest reused it
        assert progs.count("hypergrowth") == 1
        assert built == [18] * 4
        assert cli.main(["sequence", "--name", "G", "--n", "5"]) == 0
        assert len(progs) == 18


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

    @pytest.mark.parametrize("family, variant, base", [
        # W2.x lists its blocks in role order, W3.x in position order
        ("W2.1", "swap:0,rev:00,perm:213", "[3,4]|[1,2]|[5]"),
        ("W3.1", "swap:0,rev:000,perm:213", "[1,2]|[3,4]|[5,6]")])
    def test_witness_block_order(self, tmp_path, capsys, family, variant,
                                 base):
        path = tmp_path / "w.col"
        assert cli.main(["make", "wealthy", "--family", family, "--r", "2",
                         "--variant", variant]) == 0
        path.write_text(capsys.readouterr().out)
        assert cli.main(["classify", "wealthy", "--family", family, "--r",
                         "2", "--variant", variant, str(path)]) == 0
        assert capsys.readouterr().out == (
            f"wealthy=true\nwealthy family={family} r=2 variant={variant} "
            f"base={base}\n")

    @pytest.mark.parametrize("family, variant, tail", [
        ("W3.3", "rev:0", "triples=1,2,3|4,5,6"),
        ("W3.3", "rev:1", "triples=7,6,5|4,3,2"),
        ("W4.1", "plain", ""),
        ("W4.2", "rev:0,blockswap:0", "base=[1,2]|[3,8] triples=3,4,5|6,7,8"),
        ("W4.2", "rev:0,blockswap:1", "base=[7,8]|[1,6] triples=1,2,3|4,5,6"),
        ("W4.2", "rev:1,blockswap:0", "base=[1,2]|[3,8] triples=3,4,5|6,7,8"),
        ("W4.2", "rev:1,blockswap:1", "base=[7,8]|[1,6] triples=1,2,3|4,5,6")])
    def test_existential_witness_lines(self, tmp_path, capsys, family,
                                       variant, tail):
        """The existential families report triples (W4.1 none), and the
        scan finds the made variant first."""
        path = tmp_path / "w.col"
        assert cli.main(["make", "wealthy", "--family", family, "--r", "2",
                         "--variant", variant]) == 0
        path.write_text(capsys.readouterr().out)
        want = (f"wealthy=true\nwealthy family={family} r=2 "
                f"variant={variant} {tail}").rstrip() + "\n"
        for fixed in ([], ["--variant", variant]):
            assert cli.main(["classify", "wealthy", "--family", family,
                             "--r", "2", *fixed, str(path)]) == 0
            assert capsys.readouterr().out == want

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
    """A CLI start registers the layers, but not the acceptance suites."""

    SRC = os.path.join(os.path.dirname(os.path.dirname(
        os.path.abspath(__file__))), "src")
    SUITE_1 = ("criterion  1 [pass] sequence tables: G(1..11) and F(1..8) "
               "match their fixed tables\n")

    def run_python(self, *args):
        env = os.environ.copy()
        env["PYTHONPATH"] = self.SRC
        env["COLUMNS"] = "80"
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

    # Runs the CLI as `python -m hypergrowth.cli` does, then prints, per
    # layer, the names its body defined (None when the layer is not in
    # sys.modules), and which of dataclasses, inspect, argparse and gettext
    # the start loaded (those an interpreter's site set-up loads before it
    # do not count).
    # The namespace is read past the module's class, so the check itself
    # loads no layer.
    LAYERS = ("core", "ideals", "sequences", "matrices", "structure",
              "constructions")
    COLD_START = (
        "import json, runpy, sys\n"
        "before = set(sys.modules)\n"
        "try:\n"
        "    runpy.run_module('hypergrowth.cli', run_name='__main__',\n"
        "                     alter_sys=True)\n"
        "except SystemExit as exc:\n"
        "    assert exc.code == 0, exc.code\n"
        "report = {'loaded': sorted({'dataclasses', 'inspect', 'argparse',\n"
        "                            'gettext'}\n"
        "                           & (set(sys.modules) - before))}\n"
        f"for layer in {LAYERS + ('verify',)!r}:\n"
        "    mod = sys.modules.get('hypergrowth.' + layer)\n"
        "    report[layer] = None if mod is None else sorted(\n"
        "        k for k in object.__getattribute__(mod, '__dict__')\n"
        "        if not k.startswith('__'))\n"
        "print(json.dumps(report))\n")

    # the layers each start runs, by its first argument
    RUNS = {"sequence": {"sequences"}, "--help": set(), "contains": {"core"},
            "growth": {"core", "ideals"}}

    @pytest.mark.parametrize("argv,out", [
        (["sequence", "--name", "G", "--n", "11"], "G(11)=41\n"),
        (["growth", "--spec", "builtin:S,k=3", "--n-max", "5"],
         "n=1 count=1\nn=2 count=1\nn=3 count=2\nn=4 count=3\nn=5 count=4\n"),
        (["growth", "--spec", "avoid:{spec}", "--n-max", "5", "--cache",
          "{cache}"], "".join(f"n={n} count={c}\n" for n, c in
                              enumerate((1, 1, 2, 15, 768), 1))),
        (["--help"], HELP_SHA256["--help"]),
        (["contains", "{small}", "{big}"],
         "contained=true injection=1,3,4,5\n"),
    ])
    def test_sequence_and_growth_starts_skip_layers(self, tmp_path, argv,
                                                     out):
        spec = tmp_path / "base.is"
        spec.write_text(IdealSpec.avoid(
            [Coloring(3, 2, 4, (0, 0, 0, 0))]).canonical_text())
        small = write_coloring(tmp_path / "small.col",
                               Coloring.constant(3, 2, 4, 0))
        big = write_coloring(tmp_path / "big.col", Coloring.from_function(
            3, 2, 5, lambda e: 1 if e[0] == 2 else 0))
        argv = [a.format(spec=spec, cache=tmp_path / "counts.tsv",
                         small=small, big=big) for a in argv]
        res = self.run_python("-c", self.COLD_START, *argv)
        assert res.returncode == 0, res.stderr
        printed, report = res.stdout.rsplit("\n", 2)[:2]
        if argv == ["--help"]:
            printed = hashlib.sha256(f"{printed}\n".encode()).hexdigest()
            assert printed == out
        else:
            assert printed + "\n" == out
        report = json.loads(report)
        assert report["verify"] is None
        ran = self.RUNS[argv[0]]
        if any(a.startswith("builtin:") for a in argv):
            ran = ran | {"sequences"}  # a builtin counts by its closed form
        assert {layer for layer in self.LAYERS if report[layer]} == ran
        if "core" in ran:
            assert "contains" in report["core"]
        if "ideals" in ran:
            assert "growth" in report["ideals"]
        # no layer a start runs builds a dataclass, and only --help builds
        # the argparse parser
        if argv == ["--help"]:
            assert "argparse" in report["loaded"]
            report["loaded"] = []
        assert report["loaded"] == []

    def test_make_and_classify_starts_print_pinned_bytes(self, tmp_path):
        path = tmp_path / "w41.col"
        got = []
        for argv in (["make", "wealthy", "--family", "W4.1", "--r", "9"],
                     ["classify", "tame", "--p", "3", str(path)]):
            res = self.run_python("-m", "hypergrowth.cli", *argv)
            if argv[0] == "make":
                path.write_text(res.stdout)
            digest = hashlib.sha256(res.stdout.encode()).hexdigest()[:16]
            got.append(f"{res.returncode}:{digest}")
        # the cli-mix pins of `make wealthy W4.1 9` and `classify tame W4.1 9`
        assert got == ["0:27fda5c4ba9588ef", "1:47d253d451c2eefa"]

    # Imports the package twice and puts the first import's modules back,
    # as the benchmark's set-up does, then runs verbs through the second
    # import's cli.main.  A layer that the second import bound to a name
    # at import time would be swapped out of sys.modules before its first
    # access, and touching it would raise ValueError (exit 2).
    SWAP = (
        "import contextlib, hashlib, importlib, io, sys\n"
        "def ours():\n"
        "    return {n: m for n, m in sys.modules.items()\n"
        "            if n == 'hypergrowth' or n.startswith('hypergrowth.')}\n"
        "import hypergrowth.cli\n"
        "first = ours()\n"
        "for name in first:\n"
        "    del sys.modules[name]\n"
        "cli = importlib.import_module('hypergrowth.cli')\n"
        "package = sys.modules['hypergrowth']\n"
        "for name in ours():\n"
        "    del sys.modules[name]\n"
        "sys.modules.update(first)\n"
        "path = sys.argv[1]\n"
        "for argv in (['make', 'rich', '--r', '8', '--shape', '1,1,1'],\n"
        "             ['classify', 'tame', '--p', '3', path]):\n"
        "    out = io.StringIO()\n"
        "    with contextlib.redirect_stdout(out):\n"
        "        rc = cli.main(argv)\n"
        "    if argv[0] == 'make':\n"
        "        with open(path, 'w') as fh:\n"
        "            fh.write(out.getvalue())\n"
        "    digest = hashlib.sha256(out.getvalue().encode()).hexdigest()\n"
        "    print(f'{rc}:{digest[:16]}')\n"
        "for name in package.__all__:\n"
        "    getattr(package, name)\n"
        "print(package.structure.is_p_tame.__module__)\n")

    # The same swap with the library instead of the verbs: the second
    # import's core and ideals are reached as package attributes before
    # the first import's modules are put back, and used after.  A layer
    # that ran only after the swap would bind the first import's core
    # (or find its own sys.modules entry replaced).
    GENERATIONS = (
        "import importlib, sys\n"
        "def ours():\n"
        "    return {n: m for n, m in sys.modules.items()\n"
        "            if n == 'hypergrowth' or n.startswith('hypergrowth.')}\n"
        "import hypergrowth, hypergrowth.cli\n"
        "first = ours()\n"
        "for name in first:\n"
        "    del sys.modules[name]\n"
        "package = importlib.import_module('hypergrowth')\n"
        "importlib.import_module('hypergrowth.cli')\n"
        "core, ideals = package.core, package.ideals\n"
        "for name in ours():\n"
        "    del sys.modules[name]\n"
        "sys.modules.update(first)\n"
        "base = core.Coloring(3, 2, 4, (0, 0, 0, 0))\n"
        "spec = ideals.IdealSpec.avoid([base])\n"
        "counts, exact, nodes = ideals.avoid_growth(spec.basis, 3, 2, 5)\n"
        "print(counts[5], exact[5], core is not first['hypergrowth.core'])\n")

    def test_layers_reached_before_a_swap_keep_their_generation(self):
        res = self.run_python("-c", self.GENERATIONS)
        assert (res.returncode, res.stderr) == (0, "")
        assert res.stdout == "768 True True\n"

    def test_swapped_modules_keep_the_verbs_working(self, tmp_path):
        res = self.run_python("-c", self.SWAP, str(tmp_path / "rich.col"))
        assert res.returncode == 0, res.stderr
        assert res.stderr == ""
        # the cli-mix pins of `make rich 1,1,1 8` and `classify tame rich
        # 1,1,1 8`
        assert res.stdout == ("0:4d974ac7a7f9c647\n0:14c1899d42906214\n"
                              "hypergrowth.structure\n")


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


class TestParserBytes:
    """The bytes that moving growth --budget's default out of the parser
    could change, pinned from before the move."""

    @pytest.mark.parametrize("argv", [["--help"], ["growth", "--help"]])
    def test_help(self, argv):
        res = run_cli(*argv, env_extra={"COLUMNS": "80"})
        assert res.returncode == 0
        digest = hashlib.sha256(res.stdout.encode()).hexdigest()
        assert digest == HELP_SHA256[" ".join(argv)]

    def test_default_budget_is_ten_to_the_eight(self, tmp_path, monkeypatch,
                                                capsys):
        spec = IdealSpec.avoid([Coloring(3, 2, 4, (0, 0, 0, 0))])
        path = tmp_path / "base.is"
        path.write_text(spec.canonical_text())
        argv = ["growth", "--spec", f"avoid:{path}", "--n-max", "5"]
        got = []
        for extra, cache in (([], "default.tsv"),
                             (["--budget", "100000000"], "given.tsv")):
            res = run_cli(*argv, "--cache", str(tmp_path / cache), *extra)
            got.append((res.returncode, res.stdout,
                        (tmp_path / cache).read_bytes()))
        assert got[0] == got[1]
        assert got[0][1].endswith("n=5 count=768\n")
        budgets = []
        real = ideals.growth
        monkeypatch.setattr(ideals, "growth", lambda *args, budget, cache:
                            budgets.append(budget) or real(*args,
                                                           budget=budget,
                                                           cache=cache))
        assert cli.main(argv) == 0
        assert capsys.readouterr().out == got[0][1]
        assert budgets == [ideals.DEFAULT_BUDGET] == [10 ** 8]


# stderr of each usage error at 80 columns (exit status 2), pinned before
# the parser was built from the grammar table
USAGE = ("usage: hypergrowth [-h] "
         "{make,classify,contains,growth,sequence,verify} ...\n")
GROWTH_USAGE = (
    "usage: hypergrowth growth [-h] --spec SPEC --n-max N_MAX [--jobs JOBS]\n"
    "                          [--budget BUDGET] [--cache CACHE]\n"
    "                          [--verdict {constant,quasi_fibonacci}]\n")
GROWTH = ["growth", "--spec", "builtin:S,k=3"]
USAGE_ERRORS = {
    "no verb": ([], USAGE + "hypergrowth: error: the following arguments "
                            "are required: verb\n"),
    "unknown verb": (["nonsense"], USAGE + (
        "hypergrowth: error: argument verb: invalid choice: 'nonsense' "
        "(choose from 'make', 'classify', 'contains', 'growth', 'sequence', "
        "'verify')\n")),
    "missing --n-max": (GROWTH, GROWTH_USAGE + (
        "hypergrowth growth: error: the following arguments are required: "
        "--n-max\n")),
    "bad --verdict": (GROWTH + ["--n-max", "5", "--verdict", "linear"],
                      GROWTH_USAGE + (
        "hypergrowth growth: error: argument --verdict: invalid choice: "
        "'linear' (choose from 'constant', 'quasi_fibonacci')\n")),
    "--n-max x": (GROWTH + ["--n-max", "x"], GROWTH_USAGE + (
        "hypergrowth growth: error: argument --n-max: invalid int value: "
        "'x'\n")),
    "unknown option": (["sequence", "--name", "G", "--n", "5", "--width",
                        "3"],
                       USAGE + "hypergrowth: error: unrecognized arguments: "
                               "--width 3\n"),
    "extra positional": (["contains", "a.col", "b.col", "c.col"],
                         USAGE + "hypergrowth: error: unrecognized "
                                 "arguments: c.col\n"),
}


def choices_unquoted(text):
    """text as later argparse releases print it: an invalid choice's
    alternatives without quotes."""
    head, sep, tail = text.partition("(choose from ")
    return head + sep + tail.replace("'", "")


def argparse_namespace(argv):
    """vars() of argparse's namespace for argv, or None where it exits."""
    try:
        with contextlib.redirect_stdout(io.StringIO()), \
                contextlib.redirect_stderr(io.StringIO()):
            return vars(cli._build_parser().parse_args(argv))
    except SystemExit:
        return None


class TestGrammarTable:
    """One table feeds both parsers: main's own, for well-formed calls,
    and argparse, for --help, usage errors and the forms the table leaves
    to it."""

    @pytest.mark.parametrize("screen", sorted(HELP_SHA256))
    def test_help_screen_bytes(self, screen, monkeypatch, capsys):
        monkeypatch.setenv("COLUMNS", "80")
        with pytest.raises(SystemExit) as exc:
            cli.main(screen.split())
        got = capsys.readouterr()
        assert (exc.value.code, got.err) == (0, "")
        digest = hashlib.sha256(got.out.encode()).hexdigest()
        assert digest in {HELP_SHA256[screen], HELP_SHA256_313.get(screen)}

    @pytest.mark.parametrize("name", sorted(USAGE_ERRORS))
    def test_usage_error_bytes(self, name, monkeypatch, capsys):
        argv, err = USAGE_ERRORS[name]
        monkeypatch.setenv("COLUMNS", "80")
        with pytest.raises(SystemExit) as exc:
            cli.main(argv)
        got = capsys.readouterr()
        assert (exc.value.code, got.out) == (2, "")
        assert got.err in {err, choices_unquoted(err)}

    # values an option or positional may take; none starts with "-"
    WORDS = ("a", "0,1", "W1'", "x y", "builtin:S,k=3", "é", "make",
             "growth", "0", "3")

    def well_formed(self, rng, path, row):
        """A seeded argv the table must accept: every required option and
        some of the others, in shuffled order, with the positionals
        spread among them."""
        _, _, positionals, options = row
        pairs = []
        for flag, kw in options.items():
            if kw.get("required") or rng.random() < 0.5:
                if "choices" in kw:
                    value = rng.choice(kw["choices"])
                elif kw.get("type") is int:
                    value = str(rng.randrange(100))
                else:
                    value = rng.choice(self.WORDS)
                pairs.append([flag, value])
        rng.shuffle(pairs)
        for name in positionals:
            pairs.insert(rng.randrange(len(pairs) + 1),
                         [rng.choice(self.WORDS)])
        return [list(path), *pairs]

    def mutants(self, rng, path, parts, row):
        """argv derived from a well-formed one, most of them wrong."""
        kws = row[3]
        options = [i for i, p in enumerate(parts) if p[0] in kws]
        ints = [i for i in options if kws[parts[i][0]].get("type") is int]
        choices = [i for i in options if "choices" in kws[parts[i][0]]]

        def edit(i, new):
            copy = [list(p) for p in parts]
            copy[i] = new
            return copy

        def insert(word):
            copy = [list(p) for p in parts]
            copy.insert(rng.randrange(1, len(copy) + 1), [word])
            return copy

        out = [insert(w) for w in ("-5", "-", "--", "-h", "", "extra")]
        out.append(parts + [["--nope", "1"]])
        words = sum(parts, [])
        out.append([rng.sample(words, len(words))])  # shuffled words
        for i in options:
            flag, value = parts[i]
            out.append(edit(i, [flag[:-1], value]))  # abbreviated
            out.append(edit(i, [f"{flag}={value}"]))
            out.append(edit(i, [flag]))  # value missing
            out.append(edit(i, [flag, ""]))
            out.append(edit(i, [flag, "-"]))
            out.append(parts + [[flag, value]])  # repeated
            if kws[flag].get("required"):
                out.append(edit(i, []))
        for i in ints:
            for bad in ("x", "1.5", "-5", " 7", "+2", "1_0"):
                out.append(edit(i, [parts[i][0], bad]))
        for i in choices:
            out.append(edit(i, [parts[i][0], "bogus"]))
        if len(path) == 2:
            out.append([[path[0]], *parts[1:]])  # sub-verb missing
            out.append([[" ".join(path)], *parts[1:]])
        return out

    def test_table_agrees_with_argparse(self):
        rng = random.Random(20240606)
        verbs = {path: row for path, row in cli._grammar().items()
                 if len(row) == 4}
        assert len(verbs) == 15
        accepted = declined = refused = 0
        for path, row in verbs.items():
            for _ in range(12):
                parts = self.well_formed(rng, path, row)
                argv = sum(parts, [])
                ns = cli._parse(argv)
                assert ns is not None, argv
                assert vars(ns) == argparse_namespace(argv), argv
                for mutant in self.mutants(rng, path, parts, row):
                    argv = sum(mutant, [])
                    ns, want = cli._parse(argv), argparse_namespace(argv)
                    if ns is not None:
                        assert vars(ns) == want, argv
                        accepted += 1
                    elif want is not None:
                        declined += 1  # argparse parses it instead
                    else:
                        refused += 1
        # every kind of outcome happened
        assert min(accepted, declined, refused) > 100

    @pytest.mark.parametrize("argv,table", [
        (["sequence", "--name", "G", "--n", "11"], True),
        (["sequence", "--name", "G", "--n=11"], False),
    ])
    def test_main_reads_sys_argv(self, argv, table, monkeypatch, capsys):
        monkeypatch.setattr(sys, "argv", ["hypergrowth", *argv])
        cli._build_parser.cache_clear()
        assert cli.main() == 0
        assert capsys.readouterr().out == "G(11)=41\n"
        assert cli._build_parser.cache_info().misses == (0 if table else 1)


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
