"""The benchmark's workloads: inputs, passes and oracles.

Each workload is built from the run seed by the benchmark's own generator
(``SplitMix64`` below, not ``hypergrowth.rng``), so a library change can
never change the inputs.  A workload yields one *pass* at a time: a list of
ops run back to back by a single caller (closed loop).  An op is one spec
counted or one CLI call.  Every op result is checked by an oracle that
does not trust the engine: pinned counts, symmetry of the ideal, or
pinned CLI output digests.

Library functions are always looked up through their module at call time
(``self.ideals.avoid_growth``), so wrappers installed by the tracer see
every call the benchmark makes.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import os
from dataclasses import dataclass
from itertools import combinations
from math import comb
from typing import Any, Callable, Optional

_MASK = (1 << 64) - 1


class SplitMix64:
    """SplitMix64 stream: the benchmark's only source of randomness."""

    def __init__(self, seed: int):
        self.state = seed & _MASK

    def next(self) -> int:
        self.state = (self.state + 0x9E3779B97F4A7C15) & _MASK
        z = self.state
        z = ((z ^ (z >> 30)) * 0xBF58476D1CE4E5B9) & _MASK
        z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & _MASK
        return z ^ (z >> 31)

    def below(self, n: int) -> int:
        return self.next() % n

    def bits(self, count: int) -> tuple[int, ...]:
        return tuple(self.next() >> 63 for _ in range(count))

    def shuffled(self, items: list) -> list:
        out = list(items)
        for i in range(len(out) - 1, 0, -1):
            j = self.below(i + 1)
            out[i], out[j] = out[j], out[i]
        return out


@dataclass
class Op:
    """One unit of timed work; ``call`` returns what the oracle checks."""

    key: str
    call: Callable[[], Any]


def _import_library():
    import hypergrowth
    import hypergrowth.cli
    return hypergrowth


# --- window-scan ------------------------------------------------------------

# |Avoid(b)_n| for the 16 single four-vertex bases b (k=3, l=2), keyed by
# the base's colours in lexicographic edge order.  Levels 1..4 are
# 1, 1, 2, 15 for every base.  Reversal and colour swap act on the key as
# string reversal and complement; the six orbits have six distinct counts.
WINDOW_COUNTS = {
    "0000": (768, 477965), "1111": (768, 477965),
    "1000": (753, 434468), "0001": (753, 434468),
    "0111": (753, 434468), "1110": (753, 434468),
    "0100": (756, 443693), "0010": (756, 443693),
    "1011": (756, 443693), "1101": (756, 443693),
    "1100": (748, 419326), "0011": (748, 419326),
    "1010": (752, 431490), "0101": (752, 431490),
    "1001": (750, 425770), "0110": (750, 425770),
}


def window_count(key: str, n: int) -> int:
    if n > 6:
        raise ValueError("window counts are pinned up to n = 6")
    return (1, 1, 2, 15, *WINDOW_COUNTS[key])[n - 1]


def mirror_key(key: str) -> str:
    """Colours of the reversed base, recomputed from vertex reversal."""
    edges = list(combinations(range(1, 5), 3))
    pos = {e: i for i, e in enumerate(edges)}
    return "".join(key[pos[tuple(sorted(5 - v for v in e))]] for e in edges)


def swap_key(key: str) -> str:
    return "".join("1" if ch == "0" else "0" for ch in key)


def window_orbits() -> list[frozenset[str]]:
    """Orbits of the 16 bases under reversal and colour swap."""
    seen: set[str] = set()
    orbits = []
    for bits in range(16):
        key = format(bits, "04b")
        if key in seen:
            continue
        orbit = {key, mirror_key(key), swap_key(key),
                 swap_key(mirror_key(key))}
        seen |= orbit
        orbits.append(frozenset(orbit))
    return orbits


def symmetry_failures(counts_by_key: dict[str, tuple[int, ...]]) -> list[str]:
    """Keys whose counts break the symmetry of the ideal.

    Bases in one orbit must give one sequence, and the 16 bases must give
    exactly six distinct sequences.
    """
    orbits = window_orbits()
    bad = []
    for orbit in orbits:
        if len({counts_by_key[key] for key in orbit}) != 1:
            bad.extend(sorted(orbit))
    if len(orbits) != 6 or len(set(counts_by_key.values())) != 6:
        bad.extend(sorted(set(counts_by_key) - set(bad)))
    return bad


def sequence_failure(counts: dict, exact: dict, want: Callable[[int], int],
                     n_max: int) -> Optional[str]:
    for n in range(1, n_max + 1):
        if not exact.get(n):
            return f"n={n} not exact"
        if counts.get(n) != want(n):
            return f"n={n}: got {counts.get(n)}, want {want(n)}"
    return None


# --- workloads --------------------------------------------------------------


class Workload:
    """Inputs plus passes; the constructor is the benchmark's set-up."""

    name = ""
    # op seconds between two runs of the reference kernel (see run.py)
    calibrate_every_s = 0.4

    def __init__(self, seed: int, workdir: str, smoke: bool = False):
        self.rng = SplitMix64(seed)
        self.workdir = workdir
        self.smoke = smoke
        self.hg = _import_library()
        self.ideals = self.hg.ideals
        self.core = self.hg.core

    def pass_ops(self) -> list[Op]:
        raise NotImplementedError

    def begin_pass(self):
        pass

    def check(self, key: str, result) -> Optional[str]:
        """Error text when the op's output is wrong, else None."""
        raise NotImplementedError

    def check_pass(self, results: dict[str, Any]) -> list[str]:
        """Keys of ops that a whole-pass oracle rejects."""
        return []

    def members(self, key: str, result) -> int:
        """Exact members the op counted."""
        raise NotImplementedError


class WindowScan(Workload):
    """Criterion 11: the 16 four-vertex bases counted to n=6, jobs=1."""

    name = "window-scan"
    # ops of over half a second: calibrate, and collect the cycles one op
    # leaves, before each op
    calibrate_every_s = 0.0

    def __init__(self, seed, workdir, smoke=False):
        super().__init__(seed, workdir, smoke)
        self.n_max = 5 if smoke else 6
        self.bases = {}
        for bits in range(16):
            key = format(bits, "04b")
            self.bases[key] = self.core.Coloring(
                3, 2, 4, tuple(int(ch) for ch in key))

    def _count(self, key: str):
        base = self.bases[key]
        counts, exact, nodes = self.ideals.avoid_growth(
            [base], 3, 2, self.n_max)
        spec = self.ideals.IdealSpec.avoid([base])
        rec = self.ideals.GrowthRecord(spec.digest(), 3, counts, exact, 0)
        verdict = self.ideals.dichotomy_verdict(rec, "constant")
        return counts, exact, verdict.classification

    def pass_ops(self):
        return [Op(key, lambda key=key: self._count(key))
                for key in self.rng.shuffled(sorted(self.bases))]

    def check(self, key, result):
        counts, exact, verdict = result
        bad = sequence_failure(counts, exact,
                               lambda n: window_count(key, n), self.n_max)
        if bad:
            return f"base {key}: {bad}"
        # counts grow past n - 1 and never settle within the window
        if verdict != "linear-floor satisfied":
            return f"base {key}: verdict {verdict!r}"
        return None

    def members(self, key, result):
        counts, exact = result[0], result[1]
        return sum(c for n, c in counts.items() if exact.get(n))

    def check_pass(self, results):
        if len(results) != 16:
            return []
        return symmetry_failures(
            {key: tuple(res[0][n] for n in sorted(res[0]))
             for key, res in results.items()})


# --- cli-mix ----------------------------------------------------------------

CLI_CATALOGUE_SEED = 20200522
EXPECTED_CLI = os.path.join(os.path.dirname(os.path.abspath(__file__)),
                            "expected_cli.json")
WEALTHY = ("W1'", "W1''", "W2.1", "W2.2", "W3.1", "W3.2", "W3.3",
           "W4.1", "W4.2")
RICH_SHAPES = ("0,1,2", "1,1,1", "2,1,0", "0,2,1", "1,2,0")
SEQUENCES = (("G", None, 60), ("F", None, 90), ("Gk", 4, 120),
             ("Gk", 5, 200), ("G", None, 11), ("F", None, 30),
             ("Gk", 3, 75), ("Gk", 6, 150))


def coloring_text(k: int, n: int, bits: tuple[int, ...]) -> str:
    """Two-colour coloring block, colours in lexicographic edge order."""
    head = f"coloring k={k} l=2 n={n}\n"
    return head + ("bits " + "".join(map(str, bits)) + "\n" if bits else "")


def avoid_spec_text(basis: list[tuple[int, tuple[int, ...]]]) -> str:
    return "ideal avoid k=3 l=2\n" + "".join(
        coloring_text(3, m, bits) for m, bits in basis)


def output_digest(rc: int, out: str) -> str:
    return f"{rc}:{hashlib.sha256(out.encode()).hexdigest()[:16]}"


class CliMix(Workload):
    """In-process ``hypergrowth.cli.main`` calls over a pinned catalogue.

    The catalogue is drawn once from ``CLI_CATALOGUE_SEED`` so that every
    call's stdout digest and exit code can be pinned in
    ``expected_cli.json``; the run seed orders the calls.  A group is a
    short sequence whose order matters (``make`` before the ``classify``
    calls that read its file; a growth miss before its cache hit).
    """

    name = "cli-mix"
    N_SPECS = 200
    N_CONTAINS = 8

    def __init__(self, seed, workdir, smoke=False):
        super().__init__(seed, workdir, smoke)
        self.cli = self.hg.cli
        self.cache = os.path.join(workdir, "cache.tsv")
        self.groups = self._catalogue()
        self.expected = self._load_expected()

    def _path(self, name: str) -> str:
        return os.path.join(self.workdir, name)

    def _catalogue(self) -> list[list[tuple[str, list[str], Optional[str]]]]:
        """Groups of (key, argv, file receiving stdout)."""
        gen = SplitMix64(CLI_CATALOGUE_SEED)
        n_specs = 10 if self.smoke else self.N_SPECS
        n_contains = 1 if self.smoke else self.N_CONTAINS
        families = WEALTHY[:3] if self.smoke else WEALTHY
        groups = []
        for fam in families:
            group = []
            for r in (3, 6, 9):
                f = self._path(f"{fam}-{r}.col")
                group.append((f"make wealthy {fam} {r}",
                              ["make", "wealthy", "--family", fam,
                               "--r", str(r)], f))
                for check in (["nuclear"], ["tame", "--p", "3"],
                              ["rich", "--r", str(r)],
                              ["simple", "--cpar", "3"],
                              ["wealthy", "--family", fam, "--r", str(r)]):
                    group.append((f"classify {check[0]} {fam} {r}",
                                  ["classify", *check, f], None))
            group.append((f"contains {fam} 3 9",
                          ["contains", self._path(f"{fam}-3.col"),
                           self._path(f"{fam}-9.col")], None))
            groups.append(group)
        for shape in RICH_SHAPES[:1] if self.smoke else RICH_SHAPES:
            group = []
            for r in (4, 8):
                f = self._path(f"rich-{shape}-{r}.col")
                group.append((f"make rich {shape} {r}",
                              ["make", "rich", "--r", str(r),
                               "--shape", shape], f))
                for check in (["nuclear"], ["tame", "--p", "3"],
                              ["rich", "--r", str(r)],
                              ["simple", "--cpar", "3"]):
                    group.append((f"classify {check[0]} rich {shape} {r}",
                                  ["classify", *check, f], None))
            groups.append(group)
        # random colourings of 7-8 vertices in random hosts of 30-40
        files: dict[str, str] = {}
        for i in range(self.N_CONTAINS):
            m, n = 7 + gen.below(2), 30 + gen.below(11)
            small = self._path(f"small{i}.col")
            big = self._path(f"host{i}.col")
            files[small] = coloring_text(3, m, gen.bits(comb(m, 3)))
            files[big] = coloring_text(3, n, gen.bits(comb(n, 3)))
            if i < n_contains:
                groups.append([(f"contains random {i}",
                                ["contains", small, big], None)])
        # small avoid specs, each counted twice with the cache
        seen = set()
        specs = []
        while len(specs) < self.N_SPECS:
            basis = []
            for _ in range(1 + gen.below(2)):
                m = 4 + (gen.below(3) == 0)
                basis.append((m, gen.bits(comb(m, 3))))
            ident = frozenset(basis)
            if ident not in seen:
                seen.add(ident)
                specs.append(sorted(basis))
        for i, basis in enumerate(specs):
            path = self._path(f"spec{i}.ideal")
            files[path] = avoid_spec_text(basis)
            if i < n_specs:
                argv = ["growth", "--spec", f"avoid:{path}", "--n-max", "5",
                        "--cache", self.cache]
                groups.append([(f"growth spec{i} miss", argv, None),
                               (f"growth spec{i} hit", argv, None)])
        for name, k, n in SEQUENCES[:2] if self.smoke else SEQUENCES:
            argv = ["sequence", "--name", name, "--n", str(n)]
            if k is not None:
                argv += ["--k", str(k)]
            groups.append([(f"sequence {name} {k} {n}", argv, None)])
        for path, text in files.items():
            with open(path, "w", encoding="utf-8") as fh:
                fh.write(text)
        return groups

    def _load_expected(self) -> dict[str, str]:
        # missing pins make every call fail its check
        if not os.path.exists(EXPECTED_CLI):
            return {}
        with open(EXPECTED_CLI, encoding="utf-8") as fh:
            return json.load(fh)

    def begin_pass(self):
        if os.path.exists(self.cache):
            os.remove(self.cache)

    def _call(self, argv: list[str], out_path: Optional[str]):
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            rc = self.cli.main(argv)
        text = out.getvalue()
        if out_path is not None:
            with open(out_path, "w", encoding="utf-8") as fh:
                fh.write(text)
        return rc, text

    def pass_ops(self):
        ops = []
        for group in self.rng.shuffled(self.groups):
            for key, argv, out_path in group:
                ops.append(Op(key, lambda a=argv, p=out_path:
                              self._call(a, p)))
        return ops

    def check(self, key, result):
        got = output_digest(*result)
        want = self.expected.get(key)
        if got != want:
            return f"{key}: output {got}, pinned {want}"
        return None

    def members(self, key, result):
        if not key.endswith(" miss"):
            return 0
        return sum(int(line.rsplit("=", 1)[1])
                   for line in result[1].splitlines()
                   if line.startswith("n=") and not line.endswith("unknown"))


WORKLOADS = {cls.name: cls for cls in (WindowScan, CliMix)}
