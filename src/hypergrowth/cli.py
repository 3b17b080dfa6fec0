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
line on stderr.  A growth level whose nodes do not fit in what is left
of the node budget prints count=unknown and keeps exit status 0, and so
does every later level; a level that costs no nodes (n < k, or one after
an empty level) always fits.  A value too long to print (the interpreter's integer
string limit) exits 2 with nothing on stdout: sequence, and growth of a
builtin, refuse from a lower bound on the value's digits before
computing it, and growth formats every line before printing any.
Identical invocations print identical bytes.  --jobs is accepted for
compatibility and has no effect: every count is computed in this
process.  growth --cache appends the exact counts it computed to an
append-only count file, which concurrent runs may share.

The grammar is written once, as the _GRAMMAR table.  main parses a
well-formed call straight from it, into the namespace argparse would
build, and never imports argparse.  Anything else (--help, an
abbreviated or repeated flag, --opt=value, "--", "-", a negative
number, a usage error) goes to an argparse parser built from the same
table, once per process, which prints the help or the usage error.
Parsing keeps no state between calls, so main is safe to call
repeatedly in-process, and neither path touches a package layer.
Each verb imports the layers it calls in its own body: contains imports
core, growth imports ideals (and through it core), sequence imports
sequences, make and classify import constructions and structure (and
through them matrices and core), and verify imports hypergrowth.verify.
So a sequence start runs sequences and no other layer, and a growth
start runs core and ideals (and sequences for a builtin, which counts
by its closed form).  The package __init__ registers every layer in
sys.modules without running it, so each layer is still found there
right after `import hypergrowth.cli`.  No layer is bound here at import
time: a registered layer whose sys.modules entry has been replaced by
the time it is first touched raises ValueError, and the in-body imports
read sys.modules on each call.
"""

from __future__ import annotations

import functools
import os
import sys
from types import SimpleNamespace
from typing import Optional, Sequence, TextIO


# --- small formatting helpers ------------------------------------------------------


def _read_text(path: str) -> str:
    if path == "-":
        return sys.stdin.read()
    with open(path, "r", encoding="utf-8") as fh:
        return fh.read()


def _load_coloring(path: str):
    from .core import coloring_from_text
    return coloring_from_text(_read_text(path))


def _write_coloring(c, out: TextIO) -> None:
    from .core import coloring_to_text
    out.write(coloring_to_text(c))


def _csv(values) -> str:
    return ",".join(str(v) for v in values)


def _fixed_ints(text: str, count: int, what: str) -> tuple[int, ...]:
    parts = tuple(int(x) for x in text.split(","))
    if len(parts) != count:
        raise ValueError(f"{what} needs {count} comma-separated integers")
    return parts


def _int_list(text: str) -> tuple[int, ...]:
    return tuple(int(x) for x in text.split(",") if x != "")


# --- make -------------------------------------------------------------------------


def _make_rich(args, out: TextIO) -> int:
    from .constructions import make_rich
    f, g, h = _fixed_ints(args.shape, 3, "--shape")
    a, b = _fixed_ints(args.colors, 2, "--colors")
    c = make_rich(args.k, args.r, f, g, h, a, b, args.filler)
    _write_coloring(c, out)
    return 0


def _make_wealthy(args, out: TextIO) -> int:
    from .constructions import make_wealthy
    from .structure import variant_from_text
    variant = None
    if args.variant is not None:
        variant = variant_from_text(args.family, args.variant)
    c = make_wealthy(args.family, args.r, variant, args.filler)
    _write_coloring(c, out)
    return 0


def _make_string_matrix(args, out: TextIO) -> int:
    from .constructions import embed_string
    emb = embed_string(args.w, args.mode)
    print(f"w={emb.w} mode={emb.mode} host_order={emb.host_order}", file=out)
    print(f"rows={_csv(emb.rows)}", file=out)
    print(f"cols={_csv(emb.cols)}", file=out)
    out.write(emb.matrix.to_text())
    return 0


def _make_chain_matrix(args, out: TextIO) -> int:
    from .constructions import Chain, embed_chain
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
    from .constructions import make_string_coloring
    res = make_string_coloring(args.w, args.t, args.r, args.filler)
    print(f"w={res.w} t={res.t} r={res.r}", file=out)
    print(f"c_set={_csv(res.c_set)}", file=out)
    print(f"d_set={_csv(res.d_set)}", file=out)
    print(f"vertex_set={_csv(res.vertex_set)}", file=out)
    _write_coloring(res.member, out)
    return 0


def _make_disobedient(args, out: TextIO) -> int:
    from .constructions import make_disobedient
    res = make_disobedient(args.n, _int_list(args.a), _int_list(args.b),
                           args.host_r, args.filler)
    spec = res.spec
    print(f"m={spec.m} eps={spec.eps}", file=out)
    print(f"t_positions={_csv(spec.t_positions)}", file=out)
    print(f"vertex_set={_csv(spec.vertex_set)}", file=out)
    print(f"embedding={_csv(res.embedding)}", file=out)
    print("f_triples=" + ";".join(_csv(t) for t in spec.f_triples), file=out)
    _write_coloring(res.member, out)
    return 0


# --- classify ---------------------------------------------------------------------


def _classify_nuclear(args, out: TextIO) -> int:
    from .structure import nuclear_decomposition
    dec = nuclear_decomposition(_load_coloring(args.file))
    print("intervals=" + ",".join(f"{a}-{b}" for a, b in dec.intervals),
          file=out)
    print("colors=" + ",".join("-" if x is None else str(x)
                               for x in dec.colors), file=out)
    return 0


def _classify_tame(args, out: TextIO) -> int:
    from .structure import is_p_tame
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
    from .structure import is_r_rich
    wit = is_r_rich(_load_coloring(args.file), args.r)
    if wit is None:
        print("rich=false", file=out)
        return 1
    print(f"rich=true f={wit.f} g={wit.g} h={wit.h} "
          f"colors={_csv(wit.colors)}", file=out)
    return 0


def _classify_simple(args, out: TextIO) -> int:
    from .structure import is_c_simple
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
    from .structure import is_wealthy, variant_from_text
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


def _contains(args, out: TextIO) -> int:
    from .core import coloring_from_text, contains
    small = coloring_from_text(_read_text(args.small))
    big = coloring_from_text(_read_text(args.big))
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


def _growth(args, out: TextIO) -> int:
    from .ideals import (DEFAULT_BUDGET, IdealSpec, builtin_exceeds_digits,
                         dichotomy_verdict, growth, ideal_spec_from_text)
    kind, _, rest = args.spec.partition(":")
    if kind == "builtin":
        name, _, tail = rest.partition(",")
        if not name or not tail.startswith("k="):
            raise ValueError("builtin spec has the form builtin:<name>,k=<k>")
        spec = IdealSpec.builtin(name, int(tail[2:]))
    elif kind == "avoid":
        if not rest:
            raise ValueError("avoid spec has the form avoid:<file>")
        spec = ideal_spec_from_text(_read_text(rest))
    else:
        raise ValueError(f"unknown ideal spec kind {kind!r}")
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
    budget = DEFAULT_BUDGET if args.budget is None else args.budget
    rec = growth(spec, args.n_max, budget=budget, cache=cache)
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


def _sequence(args, out: TextIO) -> int:
    from .sequences import sequence_exceeds_digits, sequence_value
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


def _verify(args, out: TextIO) -> int:
    from .verify import run_all, run_one
    if args.suite == "all":
        results = run_all(seed=args.seed)
    else:
        results = [run_one(int(args.suite), seed=args.seed)]
    for res in results:
        print(res.line(), file=out)
    return 0 if all(r.passed for r in results) else 1


# --- grammar ----------------------------------------------------------------------


# The command line grammar: one line per group, verb and option, in the
# order _build_parser adds them.  A line's words come before its first
# double space and its help after it.  A group line is the group's name
# and the {dest} of its sub-verbs.  A verb line is its path and its
# <positionals>; its handler is named after the path (make rich runs
# _make_rich).  An option line, indented under its verb, is its flag, then
# in this order "int" for an int type, "required", "=<default>" and
# "{<choice>,...}" where the option has them.  An option's dest is its
# flag as argparse derives it: --n-max stores n_max.
_GRAMMAR = """
make {kind}             build an object and print it
make rich               sliding-window coloring
  --k int =3
  --r int required
  --shape required      f,g,h split of the window (f + g + h = k)
  --colors =0,1         a,b window colors
  --filler int =0
make wealthy            canonical wealthy family member
  --family required
  --r int required
  --variant             variant text, first variant if absent
  --filler int =0
make string-matrix      staircase matrix of a string plus host picks
  --w required          binary string of odd length
  --mode required {identity,upper}
make chain-matrix       identity-host picks for a grid chain
  --m int required      ambient grid size
  --points =            semicolon-separated r,c pairs, increasing
make string-coloring    restriction coloring reading back a string
  --w required          binary string
  --t int required      marked color
  --r int required      host scale
  --filler int =0
make disobedient        coloring whose zero triples encode two sets
  --n int required
  --a required          low picks, comma-separated
  --b required          high picks, comma-separated
  --host-r int
  --filler int =0
classify {check}        test a coloring file
classify nuclear <file>  maximal homogeneous intervals
classify tame <file>    bounded-complexity conditions
  --p int =3
classify rich <file>    sliding-window recognition
  --r int required
classify simple <file>  boundary-controlled test
  --cpar int required   boundary width on each side
classify wealthy <file>  wealthy family recognition
  --family required
  --r int required
  --variant             check exactly this variant
contains <small> <big>  order embedding between colorings
growth                  levelwise ideal counts
  --spec required       avoid:<file> or builtin:<name>,k=<k>
  --n-max int required
  --jobs int =1
  --budget int          search node budget, spent level by level
  --cache               count cache path, HYPERGROWTH_CACHE if unset
  --verdict {constant,quasi_fibonacci}  append a window-relative classification
sequence                closed-form sequence values
  --name required       G, F, Gk or Gk(<k>)
  --n int required
  --k int               interval length for Gk
verify                  acceptance suites
  --suite =all          all, or a single criterion number
  --seed int =0         seed offset for the sampled-matrix suite
  --jobs int =1
"""


@functools.cache
def _grammar() -> dict:
    """_GRAMMAR read in order, keyed by path as a tuple of words: a group
    maps to (help, dest of its sub-verbs) and a verb to (help, the
    namespace its options and positionals fill in, positionals, {flag:
    add_argument keywords, dest included})."""
    rows = {}
    for line in _GRAMMAR.strip().split("\n"):
        words, _, help_ = line.strip().partition("  ")
        name, *words = words.split(" ")
        kw = {"help": help_.strip() or None}
        if line[0] == " ":  # an option of the verb above
            kw["dest"] = name[2:].replace("-", "_")
            for word in words:
                if word == "int":
                    kw["type"] = int
                elif word == "required":
                    kw["required"] = True
                elif word[0] == "=":
                    kw["default"] = kw.get("type", str)(word[1:])
                else:
                    kw["choices"] = tuple(word[1:-1].split(","))
            options[name] = kw
            ns[kw["dest"]] = kw.get("default")
        elif words and words[0][0] == "{":  # a group
            rows[(name,)] = (kw["help"], words[0][1:-1])
        else:
            path, ns, positionals, options = (name,), {"verb": name}, [], {}
            for word in words:
                if word[0] == "<":
                    positionals.append(word[1:-1])
                else:  # a sub-verb
                    ns[rows[path][1]] = word
                    path += (word,)
            ns["func"] = globals()["_" + "_".join(path).replace("-", "_")]
            rows[path] = (kw["help"], ns, positionals, options)
    return rows


def _parse(argv: Sequence[str]) -> Optional[SimpleNamespace]:
    """argparse's namespace for argv, read from _GRAMMAR, or None unless
    each option is an exact flag of the verb, given once with a value that
    does not start with "-" and that its type and choices accept, the
    positional count is exact and every required option is given."""
    rows, path = _grammar(), tuple(argv[:1])
    if len(rows.get(path, ())) == 2:  # a group: its sub-verb follows
        path = tuple(argv[:2])
    if len(rows.get(path, ())) != 4:
        return None
    _, ns, positionals, options = rows[path]
    ns, options, free = dict(ns), dict(options), []
    rest = iter(argv[len(path):])
    for word in rest:
        if word[:1] != "-":
            free.append(word)
            continue
        # popped, so a flag given twice is unknown the second time
        value, kw = next(rest, "-"), options.pop(word, None)
        if kw is None or value[:1] == "-":
            return None
        try:
            ns[kw["dest"]] = value = kw.get("type", str)(value)
        except ValueError:
            return None
        if value not in kw.get("choices", (value,)):
            return None
    for kw in options.values():  # the options not given
        if kw.get("required"):
            return None
    if len(free) != len(positionals):
        return None
    ns.update(zip(positionals, free))
    return SimpleNamespace(**ns)


@functools.cache
def _build_parser() -> argparse.ArgumentParser:
    import argparse
    parser = argparse.ArgumentParser(
        prog="hypergrowth",
        description="build, test and count edge-colored ordered hypergraphs")
    subs = {(): parser.add_subparsers(dest="verb", required=True)}
    for path, (help_, *row) in _grammar().items():
        p = subs[path[:-1]].add_parser(path[-1], help=help_)
        if len(row) == 1:  # a group, and the dest of its sub-verbs
            subs[path] = p.add_subparsers(dest=row[0], required=True)
            continue
        ns, positionals, options = row
        for dest in positionals:
            p.add_argument(dest)
        for flag, kw in options.items():
            p.add_argument(flag, **kw)
        p.set_defaults(func=ns["func"])
    return parser


def main(argv: Optional[Sequence[str]] = None) -> int:
    args = _parse(sys.argv[1:] if argv is None else argv)
    if args is None:  # --help, usage errors and what the table leaves out
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
