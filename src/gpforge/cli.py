"""Command-line entry point.

Exit codes: 0 success (also when the reader closes stdout early), 1 usage
error, 2 input error, 3 internal invariant violation.  `-` means
stdin/stdout for every FILE position.  Randomised corpus commands are
fully determined by --seed.
"""

from __future__ import annotations

import argparse
import os
import random
import re
import sys
from functools import lru_cache
from typing import List, Optional

from . import combinators as cb
from . import meier as meier_mod
from . import reductions as red
from .errors import GpforgeError, InternalError, InvalidComplexError, ParseError, SearchBudgetError
from .homology import abelianization
from .inference import MAX_DEGREE, check_consistency, derive, query
from .presentations import Presentation, parse, presentation, read_text, serialize, tietze_simplify
from .rewriting import britton_normal_form, finite_quotient_search, parse_bs, permutation_cycles
from .sexpr import parse_expr, parse_query, serialize_expr
from .topology import serialize_simplicial, triangulate
from .words import EXPONENT_DIGIT_LIMIT, format_word, parse_word

EXIT_OK = 0
EXIT_USAGE = 1
EXIT_INPUT = 2
EXIT_INTERNAL = 3

# The least integer abelianize will not print: str() refuses more than
# 4,300 digits.
_UNPRINTABLE = 10 ** EXPONENT_DIGIT_LIMIT


class UsageError(Exception):
    pass


def _flag(flag: str, error: type, fn, *args, **kwargs):
    """fn(*args, **kwargs), where an `error` it raises is the library
    refusing the value of `flag`: a usage error that names the flag."""
    try:
        return fn(*args, **kwargs)
    except error as exc:
        raise UsageError(f"{flag}: {exc}")


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        raise UsageError(message)


def _read_text(path: str) -> str:
    """A file's UTF-8 text, or standard input's for `-`."""
    if path != "-":
        return read_text(path)
    try:
        return sys.stdin.read()
    except UnicodeDecodeError:
        raise ParseError("cannot read -: not UTF-8 text")


def _write_text(path: Optional[str], text: str) -> None:
    if path is None or path == "-":
        sys.stdout.write(text)
        if not text.endswith("\n"):
            sys.stdout.write("\n")
    else:
        with open(path, "w", encoding="utf-8", newline="\n") as fh:
            fh.write(text)
            if not text.endswith("\n"):
                fh.write("\n")


def _load_presentation(path: str) -> Presentation:
    return parse(_read_text(path), name=os.path.basename(path) if path != "-" else None)


def _load_expr(path: str):
    base_dir = None if path == "-" else os.path.dirname(os.path.abspath(path))
    return parse_expr(_read_text(path), base_dir=base_dir)


def _cmd_abelianize(args) -> int:
    group = abelianization(_load_presentation(args.file))
    for t in group.torsion:
        if t >= _UNPRINTABLE:
            raise SearchBudgetError(
                f"a torsion coefficient has more than {EXPONENT_DIGIT_LIMIT} digits, the most abelianize prints"
            )
    torsion = ",".join(str(t) for t in group.torsion)
    print(f"rank={group.rank} torsion=[{torsion}]")
    return EXIT_OK


def _cmd_normalize(args) -> int:
    system = _flag("--bs", ParseError, parse_bs, args.bs)
    w = parse_word(args.word)
    print(format_word(britton_normal_form(system, w)))
    return EXIT_OK


def _cmd_certify_nontrivial(args) -> int:
    p = _load_presentation(args.file)
    target = parse_word(args.word, p.alphabet)
    cert = _flag("--degree", ValueError, finite_quotient_search, p, args.degree, target=target)
    if cert is None:
        print("not found within bound")
        return EXIT_OK
    if not cert.revalidate():
        raise InternalError("finite-quotient certificate failed re-validation")
    parts = [
        f"{sym.name}: {permutation_cycles(perm)}"
        for sym, perm in sorted(cert.hom.images.items(), key=lambda kv: p.alphabet.index(kv[0]))
    ]
    print("hom " + " ".join(parts))
    return EXIT_OK


def _cmd_triangulate(args) -> int:
    p = _load_presentation(args.file)
    _write_text(args.output, serialize_simplicial(triangulate(p)))
    return EXIT_OK


def _cmd_build(args) -> int:
    expr = _load_expr(args.file)
    _write_text(args.output, serialize(expr.realized))
    return EXIT_OK


def _cmd_infer(args) -> int:
    predicate, degree = _flag("--query", ParseError, parse_query, args.query)
    expr = _load_expr(args.file)
    derivation = _flag("--query", ValueError, derive, expr, max_degree=max(MAX_DEGREE, degree or 0))
    cert = query(derivation, expr, predicate, degree)
    if cert is None:
        print("NOT DERIVABLE")
        return EXIT_OK
    print(f"DERIVED via {cert.rule}")
    if args.cert:
        print(cert.render())
    contradictions = check_consistency(derivation)
    for node, message in contradictions:
        print(f"CONTRADICTION at n{node}: {message}", file=sys.stderr)
    return EXIT_OK


def _cmd_reduce(args) -> int:
    lam = _load_presentation(args.lam)
    src = _flag("--oracle", ParseError, red.parse_oracle, args.oracle, lam, (("TorsionFree", None),))
    w = parse_word(args.word, lam.alphabet)
    construction = args.construction
    if construction == "lambda":
        out = red.lambda_w(src, w)
    elif construction == "gamma":
        out = red.gamma_w(src, w)
    elif construction == "witness-w":
        gamma = red.f2_atom() if args.gamma is None else cb.atom(
            _load_presentation(args.gamma),
            facts=(("TorsionFree", None),),
        )
        out = red.witness_w(gamma, src, w)
    else:
        build = {"pi": red.pi_w, "delta": red.delta_w}[construction]
        out = _flag("--dim", ValueError, build, src, w, args.dim)
    _write_text(args.output, serialize(out.presentation))
    if args.expr_output:
        _write_text(args.expr_output, serialize_expr(out.expr))
    return EXIT_OK


def _cmd_meier_probe(args) -> int:
    results = _flag("--max-len/--budget", ValueError, meier_mod.double_coset_probe, args.max_len, args.budget)
    for w, status in results:
        print(f"{format_word(w)}\t{status}")
    return EXIT_OK


def _corpus_emit(label: str, body: str) -> None:
    print(f"## {label}")
    print(body)
    print()


def _cmd_corpus(args) -> int:
    rng = random.Random(args.seed)
    family = args.family
    if family == "mu":
        base = presentation(["g"], name="F1")
        # Deepest first, so a depth past the bound is named at once.
        stages = _flag("--depth", ValueError, lambda: [cb.mu_stage(base, k) for k in range(args.depth, 0, -1)])
        for k, stage in enumerate(reversed(stages), start=1):
            _corpus_emit(f"mu stage {k}", serialize(stage.realized))
            _corpus_emit(
                f"mu stage {k} simplified", serialize(tietze_simplify(stage.realized))
            )
    elif family == "witness":
        witnesses = _flag("--count", ValueError, red.witness_corpus, args.count, rng)
        for i, (w, out) in enumerate(witnesses):
            label = "trivial" if out.trivial_branch else "nontrivial"
            _corpus_emit(
                f"witness {i} word={format_word(w) if w else '1'} branch={label}",
                serialize(out.presentation),
            )
    elif family == "meier":
        data = meier_mod.build_meier()
        _corpus_emit("BS(2,3)", serialize(data.B))
        _corpus_emit("Meier amalgam T", serialize(data.T))
        _corpus_emit("Meier amalgam T simplified", serialize(tietze_simplify(data.T)))
    elif family == "large":
        gamma = meier_mod.meier_gamma_expr()
        _corpus_emit("meier-gamma expression", serialize_expr(gamma))
        thompson = cb.atom(
            parse("gens p q", name="thompson-t-stand-in"),
            facts=(("ThompsonT", None),),
            name="thompson-t-stand-in",
        )
        hyp = red.hyperbolic_manifold_atom(3)
        product = cb.direct_product(thompson, hyp)
        _corpus_emit("thompson-times-hyperbolic expression", serialize_expr(product))
    return EXIT_OK


def _integer(text: str) -> int:
    """The type of the integer flags: ASCII `-?[0-9]+`, the `.gx` integer
    token, so `+2`, ` 2`, `1_0` and other scripts' digits are refused; a
    literal past int()'s digit limit raises ValueError, which argparse
    reports as a usage error too."""
    if not re.fullmatch(r"-?[0-9]+", text):
        raise argparse.ArgumentTypeError(f"expected an integer, got {text!r}")
    return int(text)


def _nonnegative(text: str) -> int:
    """The type of --depth and --count; their upper bounds are the library's."""
    value = _integer(text)
    if value < 0:
        raise argparse.ArgumentTypeError(f"expected a nonnegative integer, got {text!r}")
    return value


@lru_cache(maxsize=1)
def build_parser() -> _Parser:
    """The command-line parser, built on the first call and shared by every
    later one: each `parse_args` fills a fresh namespace, so no call sees
    another's arguments."""
    parser = _Parser(prog="gpforge", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("abelianize", help="rank and torsion of a presentation's abelianization")
    p.add_argument("file")
    p.set_defaults(func=_cmd_abelianize)

    p = sub.add_parser("normalize", help="pinch-free Britton form in BS(m,n)")
    p.add_argument("--bs", required=True, metavar="m,n")
    p.add_argument("word")
    p.set_defaults(func=_cmd_normalize)

    p = sub.add_parser("certify-nontrivial", help="finite-quotient nontriviality certificate")
    p.add_argument("file")
    p.add_argument("--word", required=True)
    p.add_argument("--degree", type=_integer, default=5)
    p.set_defaults(func=_cmd_certify_nontrivial)

    p = sub.add_parser("triangulate", help="double barycentric subdivision of the presentation complex")
    p.add_argument("file")
    p.add_argument("-o", "--output", default=None)
    p.set_defaults(func=_cmd_triangulate)

    p = sub.add_parser("build", help="evaluate a GroupExpr file to a presentation")
    p.add_argument("file")
    p.add_argument("-o", "--output", default=None)
    p.set_defaults(func=_cmd_build)

    p = sub.add_parser("infer", help="derive a property certificate for an expression")
    p.add_argument("file")
    p.add_argument("--query", required=True, help='e.g. "large-hb 4" or "boundedly-acyclic"')
    p.add_argument("--cert", action="store_true")
    p.set_defaults(func=_cmd_infer)

    p = sub.add_parser("reduce", help="witness constructions from a word-problem instance")
    p.add_argument("--construction", required=True, choices=["lambda", "gamma", "witness-w", "pi", "delta"])
    p.add_argument("--lambda", dest="lam", required=True, metavar="FILE")
    p.add_argument("--oracle", default="free", metavar="{free|bs:m,n}")
    p.add_argument("--word", required=True)
    p.add_argument("--dim", type=_integer, default=4)
    p.add_argument("--gamma", default=None, metavar="FILE")
    p.add_argument("-o", "--output", default=None)
    p.add_argument("--expr", dest="expr_output", default=None)
    p.set_defaults(func=_cmd_reduce)

    p = sub.add_parser("meier-probe", help="double-coset witness probe for Meier's amalgam")
    p.add_argument("--max-len", type=_integer, required=True)
    p.add_argument("--budget", type=_integer, required=True)
    p.set_defaults(func=_cmd_meier_probe)

    p = sub.add_parser("corpus", help="emit labeled example families")
    p.add_argument("--family", required=True, choices=["mu", "witness", "meier", "large"])
    p.add_argument("--depth", type=_nonnegative, default=3)
    p.add_argument("--count", type=_nonnegative, default=10)
    p.add_argument("--seed", type=_integer, default=0)
    p.set_defaults(func=_cmd_corpus)

    return parser


def main(argv: Optional[List[str]] = None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
        code = args.func(args)
        sys.stdout.flush()
        return code
    except BrokenPipeError:
        # The reader closed stdout, and nothing failed here.  Point stdout
        # at devnull so the interpreter's last flush stays quiet, as the
        # `signal` module's documentation recommends.
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return EXIT_OK
    except UsageError as exc:
        print(f"usage error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except (InternalError, InvalidComplexError) as exc:
        print(f"internal invariant violation: {exc}", file=sys.stderr)
        return EXIT_INTERNAL
    except (GpforgeError, OSError) as exc:
        print(f"input error: {exc}", file=sys.stderr)
        return EXIT_INPUT


if __name__ == "__main__":
    sys.exit(main())
