"""The three workloads: their jobs, the set-up that writes their inputs,
and the check of every job's output.

A job is one README CLI command run in-process through
`gpforge.cli.main(argv)` with stdout captured, or a library call for
what the CLI does not expose.  `run` is the timed part.  `check` is not
timed: it renders the result to the text whose digest is committed for
the default seed, and raises `CheckFailed` when independent evidence
disagrees with the output.

Program functions are always reached through their module
(`gpforge.topology.triangulate`, not a name imported here), so the traced
run sees every call the jobs make.
"""

from __future__ import annotations

import contextlib
import io
import json
import os
import re
from dataclasses import dataclass
from typing import Any, Callable, Dict, List, Optional

import algebra
import gen

import gpforge.cli
import gpforge.combinators
import gpforge.homology
import gpforge.inference
import gpforge.presentations
import gpforge.rewriting
import gpforge.sexpr
import gpforge.topology
import gpforge.words

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
PROBE_GOLDEN = os.path.join("tests", "data", "meier_probe_len8.txt")


class CheckFailed(Exception):
    pass


@dataclass
class Job:
    id: str
    run: Callable[[], Any]
    check: Callable[[Any], str]


def expected_path(workload: str) -> str:
    return os.path.join(BENCH_DIR, "expected", f"{workload}.json")


def load_digests(workload: str) -> Dict[str, str]:
    with open(expected_path(workload), encoding="utf-8") as fh:
        return json.load(fh)["digests"]


def cli(*argv: str) -> str:
    """`gpforge ARGV` in-process: stdout then stderr, or CheckFailed on a
    nonzero exit code."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = gpforge.cli.main(list(argv))
    if code != 0:
        raise CheckFailed(f"gpforge {' '.join(argv[:2])} exited {code}: {err.getvalue().strip()}")
    return out.getvalue() + err.getvalue()


def read(path: str) -> str:
    with open(path, encoding="utf-8") as fh:
        return fh.read()


def write(path: str, text: str) -> None:
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write(text)


def require(condition: bool, message: str) -> None:
    if not condition:
        raise CheckFailed(message)


def interleave(big: List[Job], small: List[Job]) -> List[Job]:
    """The big jobs spread evenly among the small ones.  The machine's
    speed drifts over seconds, so small jobs run in one stretch would
    sample a single speed; spread out, their percentiles average over
    the pass."""
    out: List[Job] = []
    step = len(small) // (len(big) + 1)
    for i, job in enumerate(big):
        out.extend(small[i * step : (i + 1) * step])
        out.append(job)
    out.extend(small[len(big) * step :])
    return out


# ---------------------------------------------------------------------------
# wordproblem: Britton rewriting, the Meier probe, finite quotients.
# ---------------------------------------------------------------------------

_HOM_RE = re.compile(r"([A-Za-z_][A-Za-z0-9_]*): ((?:\([^)]*\))+)")


def _check_probe(golden: str) -> Callable[[str], str]:
    def check(text: str) -> str:
        require(text == golden, f"probe output differs from {PROBE_GOLDEN}")
        return text

    return check


def _run_mitosis_quotients():
    m = gpforge.combinators.standard_mitosis(gpforge.presentations.presentation(["g"], ["g^3"]))
    return m.realized, gpforge.rewriting.finite_quotient_search(m.realized, 5)


def _check_mitosis_quotients(result) -> str:
    p, homs = result
    gens, relators = algebra.parse_presentation(gpforge.presentations.serialize(p))
    lines, seen, last_degree = [], set(), 0
    for hom in homs:
        images = {sym.name: perm for sym, perm in hom.images.items()}
        require(sorted(images) == sorted(gens), "homomorphism does not map every generator")
        require(hom.degree >= last_degree, "degrees out of enumeration order")
        ident = tuple(range(hom.degree))
        for rel in relators:
            require(algebra.perm_eval(rel, images, hom.degree) == ident, "relator not killed")
        key = (hom.degree, tuple(images[g] for g in gens))
        require(key not in seen, "homomorphism listed twice")
        seen.add(key)
        last_degree = hom.degree
        lines.append(f"{hom.degree} " + " ".join(f"{g}:{images[g]}" for g in gens))
    require(len(homs) > 0, "no quotient found")
    return "\n".join(lines)


def _check_certify(spec: dict, text: str) -> str:
    body = text.strip()
    require(body.startswith("hom "), f"no certificate: {body!r}")
    degree = spec["degree"]
    images = {g: algebra.parse_cycles(c, degree) for g, c in _HOM_RE.findall(body[4:])}
    require(sorted(images) == sorted(spec["gens"]), "certificate does not map every generator")
    ident = tuple(range(degree))
    for rel in spec["relators"]:
        require(algebra.perm_eval(rel, images, degree) == ident, "certificate does not kill a relator")
    require(algebra.perm_eval(spec["target"], images, degree) != ident, "certificate kills the target")
    p = gpforge.presentations.parse(spec["text"])
    cert = gpforge.rewriting.TrivialityCertificate(
        kind="FiniteQuotient",
        presentation=p,
        target=gpforge.words.parse_word(gen.fmt(spec["target"]), p.alphabet),
        hom=gpforge.rewriting.Homomorphism(
            degree, {p.alphabet.symbol(g): perm for g, perm in images.items()}
        ),
    )
    require(cert.revalidate(), "certificate fails revalidate()")
    return text


def _check_normalize(spec: dict, text: str) -> str:
    m, n = spec["m"], spec["n"]
    nf = algebra.parse_letters(text)
    require(algebra.free_reduce(nf) == nf, "normal form is not freely reduced")
    require(algebra.bs_pinch_free(nf, m, n), "normal form has a pinch")
    require(
        algebra.bs_affine(nf, m, n) == algebra.bs_affine(spec["word"], m, n),
        "affine images of word and normal form differ",
    )
    w = gpforge.words.parse_word(gen.fmt(spec["word"]))
    rest = gpforge.rewriting.bs_reduce(m, n, w * ~gpforge.words.parse_word(text))
    require(not rest, "bs_reduce(w * nf^-1) is not empty")
    return text


def wordproblem_jobs(seed: int, workdir: str) -> List[Job]:
    inputs = gen.wordproblem_inputs(seed)
    golden = read(PROBE_GOLDEN)
    big = [
        Job(
            "meier-probe",
            lambda: cli("meier-probe", "--max-len", "8", "--budget", "100000"),
            _check_probe(golden),
        ),
        Job("quotients-m-g3", _run_mitosis_quotients, _check_mitosis_quotients),
    ]
    small = []
    for j, (cert, norm) in enumerate(zip(inputs["certify"], inputs["normalize"])):
        path = os.path.join(workdir, f"certify-{j:03d}.grp")
        write(path, cert["text"])
        argv = ("certify-nontrivial", path, "--word", gen.fmt(cert["target"]), "--degree", str(cert["degree"]))
        small.append(
            Job(f"certify-{j:03d}", lambda a=argv: cli(*a), lambda t, s=cert: _check_certify(s, t))
        )
        argv = ("normalize", "--bs", f"{norm['m']},{norm['n']}", gen.fmt(norm["word"]))
        small.append(
            Job(f"normalize-{j:03d}", lambda a=argv: cli(*a), lambda t, s=norm: _check_normalize(s, t))
        )
    return interleave(big, small)


# ---------------------------------------------------------------------------
# homology: triangulation and simplicial homology.
# ---------------------------------------------------------------------------


def _euler_from_sc(text: str) -> int:
    """vertices - edges + triangles of a `.sc` file, faces implied."""
    vertices, edges, triangles = 0, set(), set()
    for line in text.splitlines():
        parts = line.split()
        if parts[0] == "vertices":
            vertices = int(parts[1])
        elif len(parts) == 4:
            i, j, k = (int(x) for x in parts[1:])
            triangles.add((i, j, k))
            edges.update(((i, j), (j, k), (i, k)))
        else:
            edges.add((int(parts[1]), int(parts[2])))
    return vertices - len(edges) + len(triangles)


def _check_homology(pres_text: str, sc_text: str, groups) -> str:
    h0, h1, h2 = groups
    AbelianGroup = gpforge.homology.AbelianGroup
    gens, relators = algebra.parse_presentation(pres_text)
    chi = 1 - len(gens) + len(relators)
    require(h0 == AbelianGroup(1), f"H0 = {h0}, not Z")
    p = gpforge.presentations.parse(pres_text)
    require(h1 == gpforge.homology.abelianization(p), "H1 differs from the abelianization")
    require(h1.rank == algebra.abelian_rank(gens, relators), "rank of H1 differs from the rational rank")
    require(h0.rank - h1.rank + h2.rank == chi, "ranks do not sum to 1 - |S| + |R|")
    require(_euler_from_sc(sc_text) == chi, "triangulation Euler characteristic is not 1 - |S| + |R|")
    return sc_text + f"H0={h0} H1={h1} H2={h2}\n"


def _run_mu2_homology():
    p = gpforge.combinators.mu_stage(gpforge.presentations.presentation(["g"]), 2).realized
    sc = gpforge.topology.triangulate(p)
    return p, sc, gpforge.topology.simplicial_homology(sc)


def _check_mu2_homology(result) -> str:
    p, sc, groups = result
    pres_text = gpforge.presentations.serialize(p)
    return _check_homology(pres_text, gpforge.topology.serialize_simplicial(sc) + "\n", groups)


def _run_small_homology(grp: str, sc_path: str):
    cli("triangulate", grp, "-o", sc_path)
    sc_text = read(sc_path)
    return sc_text, gpforge.topology.simplicial_homology(gpforge.topology.parse_simplicial(sc_text))


def homology_jobs(seed: int, workdir: str) -> List[Job]:
    small = []
    for j, spec in enumerate(gen.homology_inputs(seed)):
        grp = os.path.join(workdir, f"complex-{j:03d}.grp")
        write(grp, spec["text"])
        sc_path = os.path.join(workdir, f"complex-{j:03d}.sc")
        small.append(
            Job(
                f"complex-{j:03d}",
                lambda g=grp, s=sc_path: _run_small_homology(g, s),
                lambda r, t=spec["text"]: _check_homology(t, r[0], r[1]),
            )
        )
    return interleave([Job("mu2-homology", _run_mu2_homology, _check_mu2_homology)], small)


# ---------------------------------------------------------------------------
# constructions: witness pipeline, mu stages, build / infer / corpus.
# ---------------------------------------------------------------------------

# The query asked of each construction's root, as (predicate, degree).
WITNESS_QUERY = {
    "lambda": ("LargeHb", 2),
    "gamma": ("AcylHyp", None),
    "witness-w": ("LargeHb", 3),
    "pi": ("LargeHb", 4),
    "delta": ("LargeHb", 8),
}
# Constructions whose trivial branch is the trivial group.
COLLAPSING = ("lambda", "witness-w", "pi")

LAMBDA_FILES = {"free": "gens a b\n", "bs:2,3": "gens a t\nrel t^-1 a^2 t = a^3\n"}


def _facts_text(derivation) -> List[str]:
    return sorted(f.render() for f in derivation.facts)


def _run_witness(construction: str, lam: str, oracle: str, word: str, grp: str, gx: str):
    inf = gpforge.inference
    stdout = cli(
        "reduce", "--construction", construction, "--lambda", lam, "--oracle", oracle,
        "--word", word, "-o", grp, "--expr", gx,
    )
    grp_text, gx_text = read(grp), read(gx)
    simplified = gpforge.presentations.tietze_simplify(gpforge.presentations.parse(grp_text))
    expr = gpforge.sexpr.parse_expr(gx_text)
    derivation = inf.derive(expr)
    predicate, degree = WITNESS_QUERY[construction]
    cert = inf.query(derivation, expr, predicate, degree)
    contradictions = inf.check_consistency(derivation)
    replayed = inf.replay_certificate(derivation, cert) if cert is not None else None
    again = inf.derive(gpforge.sexpr.parse_expr(gpforge.sexpr.serialize_expr(expr)))
    return stdout, grp_text, gx_text, simplified, derivation, cert, contradictions, replayed, again


def _check_witness(construction: str, trivial: bool, result) -> str:
    stdout, grp_text, gx_text, simplified, derivation, cert, contradictions, replayed, again = result
    collapsed = len(simplified.alphabet) == 0 and not simplified.relators
    if construction in COLLAPSING:
        require(collapsed == trivial, "Tietze collapse disagrees with the word's triviality")
    elif construction == "gamma":
        z = len(simplified.alphabet) == 1 and not simplified.relators
        require(z == trivial, "Gamma_w is Z exactly on trivial words")
    else:
        require(not collapsed, "Delta_w collapsed")
    if construction != "lambda" and not (construction == "delta" and trivial):
        require((cert is not None) != trivial, "query result disagrees with the branch")
    require(cert is None or replayed, "certificate does not replay")
    require(not contradictions, f"contradictions: {contradictions}")
    facts = _facts_text(derivation)
    require(_facts_text(again) == facts, "sexpr round trip changed the derived facts")
    rule = cert.rule if cert is not None else "none"
    simplified_text = gpforge.presentations.serialize(simplified)
    return "\n".join([stdout, grp_text, gx_text, simplified_text, rule] + facts)


def _run_mu(k: int):
    expr = gpforge.combinators.mu_stage(gpforge.presentations.presentation(["g"]), k)
    simplified = gpforge.presentations.tietze_simplify(expr.realized)
    return expr, simplified, gpforge.homology.abelianization(expr.realized), gpforge.inference.derive(expr)


def _check_mu(result) -> str:
    expr, simplified, ab, derivation = result
    serialize = gpforge.presentations.serialize
    full_text, simplified_text = serialize(expr.realized), serialize(simplified)
    rank = algebra.abelian_rank(*algebra.parse_presentation(full_text))
    require(ab.rank == rank, "abelianization rank differs from the rational rank")
    require(
        algebra.abelian_rank(*algebra.parse_presentation(simplified_text)) == rank,
        "Tietze simplification changed the abelianization rank",
    )
    require(gpforge.homology.abelianization(simplified) == ab, "Tietze simplification changed H1")
    for predicate in ("BoundedlyAcyclic", "ContainsF2", "NotFinPres"):
        require(derivation.has(expr, predicate), f"mu stage lacks {predicate}")
    require(not gpforge.inference.check_consistency(derivation), "contradictions in mu stage")
    return "\n".join([full_text, simplified_text, str(ab)] + _facts_text(derivation))


def _check_build(built_path: str, text: str) -> str:
    built = read(built_path)
    match = re.fullmatch(r"rank=(\d+) torsion=\[([0-9,]*)\]\n", text)
    require(match is not None, f"unexpected abelianize output {text!r}")
    rank = algebra.abelian_rank(*algebra.parse_presentation(built))
    require(int(match.group(1)) == rank, "abelianize rank is wrong")
    return built + text


def _check_infer(rule: Optional[str], text: str) -> str:
    first = text.splitlines()[0]
    require(first.startswith("DERIVED via "), f"not derived: {first!r}")
    require(rule is None or first == f"DERIVED via {rule}", f"unexpected rule: {first!r}")
    require("CONTRADICTION" not in text, "contradiction reported")
    return text


def _check_corpus(family: str, sections: int, text: str) -> str:
    headers = [line[3:] for line in text.splitlines() if line.startswith("## ")]
    require(len(headers) == sections, f"{len(headers)} sections, expected {sections}")
    if family == "witness":
        for header in headers:
            match = re.fullmatch(r"witness \d+ word=(.*) branch=(trivial|nontrivial)", header)
            require(match is not None, f"bad witness header {header!r}")
            trivial = not algebra.free_reduce(algebra.parse_letters(match.group(1)))
            require(trivial == (match.group(2) == "trivial"), "witness branch label is wrong")
    return text


def constructions_jobs(seed: int, workdir: str) -> List[Job]:
    inputs = gen.constructions_inputs(seed)
    small: List[Job] = []
    lam_paths = {}
    for oracle, text in LAMBDA_FILES.items():
        lam_paths[oracle] = os.path.join(workdir, f"lambda-{oracle.replace(':', '').replace(',', '')}.grp")
        write(lam_paths[oracle], text)
    for i, spec in enumerate(inputs["witness"]):
        for construction in gen.CONSTRUCTIONS:
            jid = f"witness-{i:02d}-{construction}"
            grp, gx = os.path.join(workdir, jid + ".grp"), os.path.join(workdir, jid + ".gx")
            args = (construction, lam_paths[spec["oracle"]], spec["oracle"], gen.fmt(spec["word"]), grp, gx)
            small.append(
                Job(
                    jid,
                    lambda a=args: _run_witness(*a),
                    lambda r, c=construction, t=spec["trivial"]: _check_witness(c, t, r),
                )
            )
    big = [Job(f"mu-{k}", lambda k=k: _run_mu(k), _check_mu) for k in range(1, 9)]

    gx_files = {}
    for i, k in enumerate(inputs["build_k"]):
        gx_files[f"build-mu-{i}"] = f'(mu (atom "F1" :pres "gens g") :k {k})'
    for i, (p, q) in enumerate(inputs["hnn_exps"]):
        gx_files[f"build-hnn-{i}"] = f'(hnn (atom "Z" :pres "gens a") :stable "t" :assoc (("a^{p}" "a^{q}")))'
    for name, text in gx_files.items():
        gx, built = os.path.join(workdir, name + ".gx"), os.path.join(workdir, name + ".grp")
        write(gx, text)
        small.append(
            Job(
                name,
                lambda g=gx, b=built: (cli("build", g, "-o", b), cli("abelianize", b))[1],
                lambda t, b=built: _check_build(b, t),
            )
        )
    infer = {
        "infer-thompson": (
            '(direct (atom "T" :pres "gens p q" :facts (thompson-t))\n'
            '        (atom "L" :pres "gens x y" :facts ((hyp-manifold 3))))',
            "large-hb 6",
            "R17",
        ),
        "infer-meier": ("(meier-gamma)", "large-hb 8", "R12"),
        "infer-mu": ('(mu (atom "F1" :pres "gens g") :k 2)', "boundedly-acyclic", None),
    }
    for name, (text, query, rule) in infer.items():
        gx = os.path.join(workdir, name + ".gx")
        write(gx, text)
        small.append(
            Job(
                name,
                lambda g=gx, q=query: cli("infer", g, "--query", q, "--cert"),
                lambda t, r=rule: _check_infer(r, t),
            )
        )
    corpus = {
        "witness": (("--count", "10", "--seed", str(inputs["corpus_seed"])), 10),
        "mu": (("--depth", "3"), 6),
        "meier": ((), 3),
        "large": ((), 2),
    }
    for family, (flags, sections) in corpus.items():
        small.append(
            Job(
                f"corpus-{family}",
                lambda f=family, fl=flags: cli("corpus", "--family", f, *fl),
                lambda t, f=family, n=sections: _check_corpus(f, n, t),
            )
        )
    return interleave(big, small)


JOB_BUILDERS = {
    "wordproblem": wordproblem_jobs,
    "homology": homology_jobs,
    "constructions": constructions_jobs,
}
