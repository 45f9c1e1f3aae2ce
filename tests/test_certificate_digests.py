"""Golden certificate digests over a fixed corpus of construction trees.

Each line of data/certificate_digests.txt is a tree label, a derivation
degree and the sha256 of that derivation: the sorted rendered
certificates of every derived fact, then the check_consistency report.
A change to the inference engine that keeps every certificate keeps
every digest.

Regenerate (only when certificates are meant to change):
    PYTHONPATH=src python tests/test_certificate_digests.py > tests/data/certificate_digests.txt
"""

import hashlib
import os

from gpforge.cli import main
from gpforge.combinators import amalgamated_product, atom, bac_hnn, direct_product, mu_stage
from gpforge.inference import check_consistency, derive, replay_certificate
from gpforge.meier import meier_gamma_expr, meier_t_expr
from gpforge.presentations import PresentationMorphism, presentation, serialize
from gpforge.reductions import (
    delta_w,
    free_source,
    gamma_w,
    hyperbolic_manifold_atom,
    lambda_w,
    pi_w,
    witness_w,
)
from gpforge.sexpr import parse_expr, serialize_expr
from gpforge.words import parse_word, word
from tests_util import bs_source

DIGESTS = os.path.join(os.path.dirname(__file__), "data", "certificate_digests.txt")

# (oracle, source, trivial word, nontrivial word)
SOURCES = (
    ("free", free_source, "a b b^-1 a^-1", "a b"),
    ("bs:2,3", lambda: bs_source(2, 3), "t^-1 a^2 t a^-3", "a"),
)
DEGREES = (12, 20)  # the default max_degree and one above it
AMALGAM_TAGS = ("edge_amenable", "doublecoset_at_least_3", "proper_edge", "edges_legitimate")


def _gamma():
    return atom(
        presentation(["x", "y"], name="gamma"),
        facts=(("TorsionFree", None), ("AcylHyp", None), ("ContainsF2", None)),
    )


def _thompson():
    return atom(presentation(["p", "q"], name="thompson-t-stand-in"), facts=(("ThompsonT", None),))


def _bac_hnn():
    u = atom(presentation(["x", "y"], name="universal"), facts=(("MuEmbedsBack", None),))
    x, y = u.realized.alphabet.symbols
    embed = PresentationMorphism(u.realized, u.realized, {x: word(x), y: word(y)})
    return bac_hnn(u, embed.verify(lambda w: not w))


def _amalgam(tags):
    p = atom(presentation(["a", "b"], name="p"), facts=(("AcylHyp", None), ("ContainsF2", None)))
    q = atom(presentation(["c"], name="q"), facts=(("Amenable", None),))
    pairs = ((parse_word("a", p.realized.alphabet), parse_word("c", q.realized.alphabet)),)
    return amalgamated_product(p, q, pairs, **{tag: True for tag in tags})


def corpus():
    """(label, expr) for every tree of the corpus, in a fixed order."""
    trees = []
    for oracle, make_source, trivial, nontrivial in SOURCES:
        src = make_source()
        for branch, text in (("trivial", trivial), ("nontrivial", nontrivial)):
            w = parse_word(text, src.presentation.alphabet)
            tag = f"{oracle}/{branch}"
            trees += [
                (f"lambda-w {tag}", lambda_w(src, w).expr),
                (f"gamma-w {tag}", gamma_w(src, w).expr),
                (f"witness-w {tag}", witness_w(_gamma(), src, w).expr),
                (f"pi-w:4 {tag}", pi_w(src, w, 4).expr),
                (f"delta-w:3 {tag}", delta_w(src, w, 3).expr),
            ]
    base = atom(presentation(["g", "h"], name="base"), facts=(("TorsionFree", None),))
    trees += [(f"mu:{k}", mu_stage(base, k)) for k in (1, 2, 3)]
    trees.append(("mu:1:2:3", mu_stage(mu_stage(mu_stage(base, 1), 2), 3)))
    trees += [("meier-T", meier_t_expr()), ("meier-gamma", meier_gamma_expr())]
    trees += [
        ("thompson x hyp3", direct_product(_thompson(), hyperbolic_manifold_atom(3))),
        ("hyp3 x thompson", direct_product(hyperbolic_manifold_atom(3), _thompson())),
        ("bac-hnn", _bac_hnn()),
    ]
    trees += [(f"amalgam:{tag}", _amalgam((tag,))) for tag in AMALGAM_TAGS]
    trees.append(("amalgam:all", _amalgam(AMALGAM_TAGS)))
    x = atom(presentation(["x"], name="x"))
    trees.append(("x times x", direct_product(x, x)))
    return trees


def digest(expr, max_degree) -> str:
    derivation = derive(expr, max_degree=max_degree)
    text = "\n".join(sorted(cert.render() for cert in derivation.certificates.values()))
    text += "\n--\n" + repr(check_consistency(derivation))
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


def _lines():
    return [
        f"{label}\t{degree}\t{digest(expr, degree)}" for label, expr in corpus() for degree in DEGREES
    ]


def test_certificate_digests_match_the_recorded_ones():
    with open(DIGESTS, encoding="utf-8") as fh:
        recorded = fh.read().splitlines()
    assert _lines() == recorded


def test_every_corpus_certificate_replays():
    for label, expr in corpus():
        for degree in DEGREES:
            derivation = derive(expr, max_degree=degree)
            for cert in derivation.certificates.values():
                assert replay_certificate(derivation, cert), (label, degree, cert.fact.render())


def test_every_corpus_tree_realizes_alike_from_its_gx_text(capsys):
    # Products and HNN nodes build their relators on first read: read back
    # from `.gx` text, each tree realizes to what its constructors give.
    trees = dict(corpus())
    for label, expr in trees.items():
        again = parse_expr(serialize_expr(expr))
        assert serialize(again.realized) == serialize(expr.realized), label
    # `corpus --family large` writes two of these trees.
    assert main(["corpus", "--family", "large"]) == 0
    sections = [s.split("\n", 1)[1].strip() for s in capsys.readouterr().out.split("## ") if s]
    assert sections == [serialize_expr(trees["meier-gamma"]), serialize_expr(trees["thompson x hyp3"])]


if __name__ == "__main__":
    print("\n".join(_lines()))
