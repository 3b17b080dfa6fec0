"""Command line front end.

Six verbs: make builds a coloring or an embedding and prints it, classify
runs a structure test on a coloring file, contains looks for an order
embedding of one coloring in another, growth counts ideal members level by
level, sequence evaluates the closed-form counting sequences, and verify
runs the acceptance suites.

Reports are line oriented and machine parseable: data lines carry
space-separated key=value fields, followed where applicable by one
serialized object block (coloring or matrix text).  Exit status is 0 when
the command succeeds and any tested property holds, 1 when a tested
property fails or nothing is found, and 2 on usage or I/O errors, when
the engine raises a RuntimeError (RecursionError included), when a size
overflows an index (OverflowError) and when a verb runs out of memory.
argparse reports usage errors itself; the others print one "error:"
line on stderr.  A growth level that the node budget cannot finish
prints count=unknown and keeps exit status 0.  A value too long to
print (the interpreter's integer string limit) exits 2 with nothing on
stdout: sequence, and growth of a builtin, refuse from a lower bound on
the value's digits before computing it, and growth formats every line
before printing any.
Identical invocations print identical bytes.  --jobs is accepted for
compatibility and has no effect: every count is computed in this
process.  growth --cache appends the exact counts it computed to an
append-only count file, which concurrent runs may share.

main builds its argument parser once per process, on its first call, and
reuses it: parsing keeps no state between calls, so main is safe to call
repeatedly in-process.  The verify verb imports hypergrowth.verify on its
first call, as only it needs the acceptance suites; every other start
skips compiling them.  The layers the other verbs call (constructions,
core, ideals, structure) stay imported at module level, and matrices
comes in through them: the package __init__ imports them all anyway, so
that `python -m hypergrowth.cli` loads them whatever this module does,
and the benchmark's tracer looks each of them up in sys.modules right
after `import hypergrowth.cli`.
"""

from __future__ import annotations

import argparse
import functools
import os
import sys
from typing import Optional, Sequence, TextIO

from .constructions import (Chain, embed_chain, embed_string,
                            make_disobedient, make_rich,
                            make_string_coloring, make_wealthy)
from .core import Coloring, coloring_from_text, coloring_to_text, contains
from .ideals import (DEFAULT_BUDGET, IdealSpec, builtin_exceeds_digits,
                     dichotomy_verdict, growth, ideal_spec_from_text,
                     sequence_exceeds_digits, sequence_value)
from .structure import (is_c_simple, is_p_tame, is_r_rich, is_wealthy,
                        nuclear_decomposition, variant_from_text)


# --- small formatting helpers ------------------------------------------------------


def _read_text(path: str) -> str:
    if path == "-":
        return sys.stdin.read()
    with open(path, "r", encoding="utf-8") as fh:
        return fh.read()


def _load_coloring(path: str) -> Coloring:
    return coloring_from_text(_read_text(path))


def _csv(values) -> str:
    return ",".join(str(v) for v in values)


def _fixed_ints(text: str, count: int, what: str) -> tuple[int, ...]:
    parts = tuple(int(x) for x in text.split(","))
    if len(parts) != count:
        raise ValueError(f"{what} needs {count} comma-separated integers")
    return parts


def _int_list(text: str) -> tuple[int, ...]:
    return tuple(int(x) for x in text.split(",") if x != "")


def _parse_spec(text: str) -> IdealSpec:
    kind, _, rest = text.partition(":")
    if kind == "builtin":
        name, _, tail = rest.partition(",")
        if not name or not tail.startswith("k="):
            raise ValueError("builtin spec has the form builtin:<name>,k=<k>")
        return IdealSpec.builtin(name, int(tail[2:]))
    if kind == "avoid":
        if not rest:
            raise ValueError("avoid spec has the form avoid:<file>")
        return ideal_spec_from_text(_read_text(rest))
    raise ValueError(f"unknown ideal spec kind {kind!r}")


# --- make -------------------------------------------------------------------------


def _make_rich(args, out: TextIO) -> int:
    f, g, h = _fixed_ints(args.shape, 3, "--shape")
    a, b = _fixed_ints(args.colors, 2, "--colors")
    c = make_rich(args.k, args.r, f, g, h, a, b, args.filler)
    out.write(coloring_to_text(c))
    return 0


def _make_wealthy(args, out: TextIO) -> int:
    variant = None
    if args.variant is not None:
        variant = variant_from_text(args.family, args.variant)
    c = make_wealthy(args.family, args.r, variant, args.filler)
    out.write(coloring_to_text(c))
    return 0


def _make_string_matrix(args, out: TextIO) -> int:
    emb = embed_string(args.w, args.mode)
    print(f"w={emb.w} mode={emb.mode} host_order={emb.host_order}", file=out)
    print(f"rows={_csv(emb.rows)}", file=out)
    print(f"cols={_csv(emb.cols)}", file=out)
    out.write(emb.matrix.to_text())
    return 0


def _make_chain_matrix(args, out: TextIO) -> int:
    points = tuple(_fixed_ints(p, 2, "point")
                   for p in args.points.split(";") if p)
    chain = Chain(args.m, points)
    emb = embed_chain(chain)
    print(f"m={chain.m} host_order={emb.host_order}", file=out)
    print(f"aug_rows={_csv(emb.aug_rows)}", file=out)
    print(f"aug_cols={_csv(emb.aug_cols)}", file=out)
    print(f"rows={_csv(emb.rows)}", file=out)
    print(f"cols={_csv(emb.cols)}", file=out)
    out.write(chain.padded().to_text())
    return 0


def _make_string_coloring(args, out: TextIO) -> int:
    res = make_string_coloring(args.w, args.t, args.r, args.filler)
    print(f"w={res.w} t={res.t} r={res.r}", file=out)
    print(f"c_set={_csv(res.c_set)}", file=out)
    print(f"d_set={_csv(res.d_set)}", file=out)
    print(f"vertex_set={_csv(res.vertex_set)}", file=out)
    out.write(coloring_to_text(res.member))
    return 0


def _make_disobedient(args, out: TextIO) -> int:
    res = make_disobedient(args.n, _int_list(args.a), _int_list(args.b),
                           args.host_r, args.filler)
    spec = res.spec
    print(f"m={spec.m} eps={spec.eps}", file=out)
    print(f"t_positions={_csv(spec.t_positions)}", file=out)
    print(f"vertex_set={_csv(spec.vertex_set)}", file=out)
    print(f"embedding={_csv(res.embedding)}", file=out)
    print("f_triples=" + ";".join(_csv(t) for t in spec.f_triples), file=out)
    out.write(coloring_to_text(res.member))
    return 0


# --- classify ---------------------------------------------------------------------


def _classify_nuclear(args, out: TextIO) -> int:
    dec = nuclear_decomposition(_load_coloring(args.file))
    print("intervals=" + ",".join(f"{a}-{b}" for a, b in dec.intervals),
          file=out)
    print("colors=" + ",".join("-" if x is None else str(x)
                               for x in dec.colors), file=out)
    return 0


def _classify_tame(args, out: TextIO) -> int:
    rep = is_p_tame(_load_coloring(args.file), args.p)
    print(f"tame={'true' if rep.tame else 'false'}", file=out)
    print("conditions=" + _csv(int(b) for b in rep.conditions), file=out)
    if rep.tame:
        return 0
    w = rep.witness
    print(f"condition={w.condition}", file=out)
    print(f"intervals={_csv(w.intervals)}", file=out)
    print(f"metric={w.metric} value={w.value}", file=out)
    return 1


def _classify_rich(args, out: TextIO) -> int:
    wit = is_r_rich(_load_coloring(args.file), args.r)
    if wit is None:
        print("rich=false", file=out)
        return 1
    print(f"rich=true f={wit.f} g={wit.g} h={wit.h} "
          f"colors={_csv(wit.colors)}", file=out)
    return 0


def _classify_simple(args, out: TextIO) -> int:
    v = is_c_simple(_load_coloring(args.file), args.cpar)
    if v is None:
        print("simple=true", file=out)
        return 0
    print(f"simple=false condition={v.condition}", file=out)
    if v.edges is not None:
        print("edges=" + ";".join(_csv(e) for e in v.edges), file=out)
    if v.vertices is not None:
        print(f"vertices={_csv(v.vertices)}", file=out)
    if v.pivots is not None:
        print(f"pivots={_csv(v.pivots)}", file=out)
    if v.colors is not None:
        print(f"colors={_csv(v.colors)}", file=out)
    return 1


def _classify_wealthy(args, out: TextIO) -> int:
    variant = None
    if args.variant is not None:
        variant = variant_from_text(args.family, args.variant)
    wit = is_wealthy(_load_coloring(args.file), args.family, args.r, variant)
    if wit is None:
        print("wealthy=false", file=out)
        return 1
    print("wealthy=true", file=out)
    print(wit.to_text(), file=out)
    return 0


# --- remaining verbs ---------------------------------------------------------------


def _cmd_contains(args, out: TextIO) -> int:
    small = _load_coloring(args.small)
    big = _load_coloring(args.big)
    wit = contains(small, big)
    if wit is None:
        print("contained=false", file=out)
        return 1
    print(f"contained=true injection={_csv(wit)}", file=out)
    return 0


def _str_digits_limit() -> int:
    """The interpreter's int-to-string digit limit; 0 (or a Python
    without the limit) means no limit."""
    return getattr(sys, "get_int_max_str_digits", lambda: 0)()


def _cmd_growth(args, out: TextIO) -> int:
    spec = _parse_spec(args.spec)
    # refuse a builtin count too long to print before counting; builtin
    # counts never fall, so the last level decides
    limit = _str_digits_limit()
    if (limit and spec.kind == "builtin"
            and builtin_exceeds_digits(spec, args.n_max, limit)):
        raise ValueError(f"Exceeds the limit ({limit} digits) for integer "
                         f"string conversion: the count at n={args.n_max}")
    cache = args.cache
    if cache is None:
        cache = os.environ.get("HYPERGROWTH_CACHE") or None
    rec = growth(spec, args.n_max, budget=args.budget, cache=cache)
    # every line is formatted before the first is printed, so a count too
    # long to print leaves stdout empty; the last levels, which hold the
    # longest counts of a growing ideal, are formatted first
    lines = [f"n={n} count={rec.counts[n]}" if rec.exact.get(n)
             else f"n={n} count=unknown"
             for n in range(args.n_max, 0, -1)][::-1]
    status = 0
    if args.verdict is not None:
        v = dichotomy_verdict(rec, args.verdict)
        lines.append(f"classification={v.classification}")
        lines.append(f"window={v.window[0]},{v.window[1]}")
        lines.extend(f"{key}={val}" for key, val in v.details)
        status = 1 if v.classification == "violation" else 0
    out.write("".join(line + "\n" for line in lines))
    return status


def _cmd_sequence(args, out: TextIO) -> int:
    name = args.name
    if args.k is not None:
        if name != "Gk":
            raise ValueError("--k only applies to the Gk family")
        name = f"Gk({args.k})"
    # refuse a value too long to print before spending time on it
    limit = _str_digits_limit()
    if limit and sequence_exceeds_digits(name, args.n, limit):
        raise ValueError(f"{name}({args.n}) exceeds the limit ({limit} "
                         "digits) for integer string conversion")
    print(f"{name}({args.n})={sequence_value(name, args.n)}", file=out)
    return 0


def _cmd_verify(args, out: TextIO) -> int:
    from .verify import run_all, run_one  # loaded on first use, see module doc
    if args.suite == "all":
        results = run_all(seed=args.seed)
    else:
        results = [run_one(int(args.suite), seed=args.seed)]
    for res in results:
        print(res.line(), file=out)
    return 0 if all(r.passed for r in results) else 1


# --- parser -----------------------------------------------------------------------


@functools.cache
def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="hypergrowth",
        description="build, test and count edge-colored ordered hypergraphs")
    sub = parser.add_subparsers(dest="verb", required=True)

    mk = sub.add_parser("make", help="build an object and print it")
    kinds = mk.add_subparsers(dest="kind", required=True)

    q = kinds.add_parser("rich", help="sliding-window coloring")
    q.add_argument("--k", type=int, default=3)
    q.add_argument("--r", type=int, required=True)
    q.add_argument("--shape", required=True,
                   help="f,g,h split of the window (f + g + h = k)")
    q.add_argument("--colors", default="0,1", help="a,b window colors")
    q.add_argument("--filler", type=int, default=0)
    q.set_defaults(func=_make_rich)

    q = kinds.add_parser("wealthy", help="canonical wealthy family member")
    q.add_argument("--family", required=True)
    q.add_argument("--r", type=int, required=True)
    q.add_argument("--variant", help="variant text, first variant if absent")
    q.add_argument("--filler", type=int, default=0)
    q.set_defaults(func=_make_wealthy)

    q = kinds.add_parser("string-matrix",
                         help="staircase matrix of a string plus host picks")
    q.add_argument("--w", required=True, help="binary string of odd length")
    q.add_argument("--mode", choices=("identity", "upper"), required=True)
    q.set_defaults(func=_make_string_matrix)

    q = kinds.add_parser("chain-matrix",
                         help="identity-host picks for a grid chain")
    q.add_argument("--m", type=int, required=True, help="ambient grid size")
    q.add_argument("--points", default="",
                   help="semicolon-separated r,c pairs, increasing")
    q.set_defaults(func=_make_chain_matrix)

    q = kinds.add_parser("string-coloring",
                         help="restriction coloring reading back a string")
    q.add_argument("--w", required=True, help="binary string")
    q.add_argument("--t", type=int, required=True, help="marked color")
    q.add_argument("--r", type=int, required=True, help="host scale")
    q.add_argument("--filler", type=int, default=0)
    q.set_defaults(func=_make_string_coloring)

    q = kinds.add_parser("disobedient",
                         help="coloring whose zero triples encode two sets")
    q.add_argument("--n", type=int, required=True)
    q.add_argument("--a", required=True, help="low picks, comma-separated")
    q.add_argument("--b", required=True, help="high picks, comma-separated")
    q.add_argument("--host-r", type=int, dest="host_r")
    q.add_argument("--filler", type=int, default=0)
    q.set_defaults(func=_make_disobedient)

    cl = sub.add_parser("classify", help="test a coloring file")
    checks = cl.add_subparsers(dest="check", required=True)

    q = checks.add_parser("nuclear", help="maximal homogeneous intervals")
    q.add_argument("file")
    q.set_defaults(func=_classify_nuclear)

    q = checks.add_parser("tame", help="bounded-complexity conditions")
    q.add_argument("file")
    q.add_argument("--p", type=int, default=3)
    q.set_defaults(func=_classify_tame)

    q = checks.add_parser("rich", help="sliding-window recognition")
    q.add_argument("file")
    q.add_argument("--r", type=int, required=True)
    q.set_defaults(func=_classify_rich)

    q = checks.add_parser("simple", help="boundary-controlled test")
    q.add_argument("file")
    q.add_argument("--cpar", type=int, required=True,
                   help="boundary width on each side")
    q.set_defaults(func=_classify_simple)

    q = checks.add_parser("wealthy", help="wealthy family recognition")
    q.add_argument("file")
    q.add_argument("--family", required=True)
    q.add_argument("--r", type=int, required=True)
    q.add_argument("--variant", help="check exactly this variant")
    q.set_defaults(func=_classify_wealthy)

    p = sub.add_parser("contains", help="order embedding between colorings")
    p.add_argument("small")
    p.add_argument("big")
    p.set_defaults(func=_cmd_contains)

    p = sub.add_parser("growth", help="levelwise ideal counts")
    p.add_argument("--spec", required=True,
                   help="avoid:<file> or builtin:<name>,k=<k>")
    p.add_argument("--n-max", type=int, required=True, dest="n_max")
    p.add_argument("--jobs", type=int, default=1)
    p.add_argument("--budget", type=int, default=DEFAULT_BUDGET,
                   help="search node budget, spent level by level")
    p.add_argument("--cache", help="count cache path, HYPERGROWTH_CACHE "
                                   "if unset")
    p.add_argument("--verdict", choices=("constant", "quasi_fibonacci"),
                   help="append a window-relative classification")
    p.set_defaults(func=_cmd_growth)

    p = sub.add_parser("sequence", help="closed-form sequence values")
    p.add_argument("--name", required=True, help="G, F, Gk or Gk(<k>)")
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--k", type=int, help="interval length for Gk")
    p.set_defaults(func=_cmd_sequence)

    p = sub.add_parser("verify", help="acceptance suites")
    p.add_argument("--suite", default="all",
                   help="all, or a single criterion number")
    p.add_argument("--seed", type=int, default=0,
                   help="seed offset for the sampled-matrix suite")
    p.add_argument("--jobs", type=int, default=1)
    p.set_defaults(func=_cmd_verify)

    return parser


def main(argv: Optional[Sequence[str]] = None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        return args.func(args, sys.stdout)
    except (OSError, ValueError, KeyError, RuntimeError,
            OverflowError) as exc:
        # RuntimeError includes RecursionError; OverflowError is a size
        # past what a list or range can index
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except MemoryError:
        print("error: out of memory", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
