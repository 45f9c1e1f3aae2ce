import random

import pytest

from gpforge.errors import InvalidInputError
from gpforge.homology import AbelianGroup, abelianization
from gpforge.presentations import parse, serialize, tietze_simplify
from gpforge.reductions import (
    MAX_CORPUS_COUNT,
    MAX_DELTA_DIM,
    WordProblemSource,
    delta_w,
    f2_atom,
    free_source,
    gamma_w,
    hyperbolic_manifold_atom,
    lambda_w,
    pi_w,
    witness_corpus,
    witness_w,
)
from gpforge.rewriting import bs_system, finite_quotient_search
from gpforge.words import Word, commutator, parse_word, word
from tests_util import bs_source


def is_empty_presentation(p):
    return len(p.alphabet) == 0 and not p.relators


def test_lambda_w_trivial_branch():
    src = free_source()
    out = lambda_w(src, parse_word("a a^-1"))
    assert is_empty_presentation(out.presentation)
    assert out.wbar is None and out.trivial_branch
    assert out.expr.kind == "atom"


def test_lambda_w_nontrivial_branch():
    src = free_source()
    out = lambda_w(src, parse_word("a^-1 b^-1 a b"))
    assert out.presentation.alphabet.names == ("a", "b", "z")
    assert out.wbar == parse_word("z")
    assert out.expr.kind == "lambda-w"


def test_lambda_w_bs_oracle_branches_on_britton():
    src = bs_source(2, 3)
    c = parse_word("a^-1 t^-1 a^-1 t a t^-1 a t")
    out = lambda_w(src, c)
    assert not out.trivial_branch  # Britton certifies c != 1
    relator_word = parse_word("t^-1 a^2 t a^-3")
    assert lambda_w(src, relator_word).trivial_branch


def test_gamma_w_branches():
    src = free_source()
    trivial = gamma_w(src, Word())
    assert serialize(trivial.presentation) == "gens t"
    assert trivial.expr.kind == "atom"
    nontrivial = gamma_w(src, parse_word("a"))
    assert len(nontrivial.presentation.alphabet) == 3 + 1  # |S_w| + 1
    assert nontrivial.expr.kind == "gamma-w"
    assert nontrivial.expr.payload["nonelementary"]


def test_source_refuses_a_presentation_its_oracle_does_not_decide():
    bs23 = bs_system(2, 3)
    relator = parse_word("t^-1 a^2 t a^-3")
    assert WordProblemSource(parse("gens a t\nrel t^-1 a^2 t = a^3"), bs23, ()).is_trivial(relator)
    mismatched = [
        (bs23.presentation, None),  # the free oracle on a relator
        (parse("gens a t"), bs23),  # BS(2,3) decides only itself
        (bs_system(3, 2).presentation, bs23),
        (parse("gens t a\nrel t^-1 a^2 t = a^3"), bs23),
    ]
    for p, system in mismatched:
        with pytest.raises(InvalidInputError):
            WordProblemSource(p, system, ())


def test_witness_w_trivial_collapses_to_empty():
    src = free_source()
    out = witness_w(f2_atom(), src, parse_word("b b^-1"))
    simplified = tietze_simplify(out.presentation)
    assert is_empty_presentation(simplified)
    # Relator count: relators(gamma) + k * relators(Lambda_w) + k.
    assert len(out.presentation.relators) == 0 + 0 + 2


def test_witness_w_nontrivial_counts():
    src = free_source()
    gamma = f2_atom()
    out = witness_w(gamma, src, parse_word("a b"))
    k = 2
    assert len(out.presentation.relators) == 0 + k * 0 + k
    assert len(out.presentation.alphabet) == 2 + k * 3
    assert out.wbar is not None
    simplified = tietze_simplify(out.presentation)
    assert not is_empty_presentation(simplified)
    assert out.expr.kind == "witness-w"
    assert out.expr.payload["edge_amenable"]


def test_witness_w_with_genus2_gamma():
    src = free_source()
    gamma = hyperbolic_manifold_atom(2)
    out = witness_w(gamma, src, parse_word("a^2 b"))
    k = 4
    assert len(out.presentation.relators) == 1 + k * 0 + k
    trivial = witness_w(gamma, src, Word())
    assert is_empty_presentation(tietze_simplify(trivial.presentation))


def test_pi_w_shapes_and_errors():
    src = free_source()
    with pytest.raises(ValueError):
        pi_w(src, parse_word("a"), 3)
    trivial = pi_w(src, Word(), 4)
    assert is_empty_presentation(trivial.presentation)
    out = pi_w(src, parse_word("a"), 4)
    assert out.expr.kind == "pi-w"
    assert out.expr.payload["dim"] == 4


def test_delta_w_shapes():
    src = free_source()
    assert delta_w(src, parse_word("a"), 1).expr.kind == "gamma-w"
    trivial2 = delta_w(src, Word(), 2)
    # Z x F2: 3 generators, 2 commutator relators.
    assert len(trivial2.presentation.alphabet) == 3
    assert len(trivial2.presentation.relators) == 2
    assert all(
        rel == commutator(word(x), word(y))
        for rel, (x, y) in zip(
            trivial2.presentation.relators,
            [(trivial2.presentation.alphabet.symbols[0], s) for s in trivial2.presentation.alphabet.symbols[1:]],
        )
    )
    with pytest.raises(ValueError):
        delta_w(src, parse_word("b"), MAX_DELTA_DIM + 1)
    non3 = delta_w(src, parse_word("b"), 3)
    assert non3.expr.kind == "delta-w"
    assert len(non3.expr.children) == 2  # folded binary product chain


def test_witness_corpus_count_bound():
    rng = random.Random(3)
    state = rng.getstate()
    with pytest.raises(ValueError, match=f"at most {MAX_CORPUS_COUNT}"):
        witness_corpus(MAX_CORPUS_COUNT + 1, rng)
    assert rng.getstate() == state  # refused before any word is drawn
    corpus = list(witness_corpus(20, rng))
    assert len(corpus) == 20
    for w, out in corpus:
        assert len(w.letters) <= 12 and out.trivial_branch == (not w)


def test_hyperbolic_manifold_atom_dimensions():
    genus2 = hyperbolic_manifold_atom(2)
    assert abelianization(genus2.realized) == AbelianGroup(4)
    standin = hyperbolic_manifold_atom(4)
    assert ("HypManifoldGroup", 4) in standin.payload["facts"]
    with pytest.raises(ValueError):
        hyperbolic_manifold_atom(1)


def test_pipeline_branch_agrees_with_free_triviality():
    rng = random.Random(1234)
    src = free_source()
    from tests_util import random_word

    for _ in range(100):
        w = random_word(rng, src.presentation.alphabet, max_len=12)
        expected_trivial = not w
        lw = lambda_w(src, w)
        assert lw.trivial_branch == expected_trivial
        assert is_empty_presentation(tietze_simplify(lw.presentation)) == expected_trivial
        ww = witness_w(f2_atom(), src, w)
        assert is_empty_presentation(tietze_simplify(ww.presentation)) == expected_trivial


def test_wbar_has_order_at_least_two_in_a_finite_quotient():
    src = free_source()
    out = lambda_w(src, parse_word("a b a^-1"))
    cert = finite_quotient_search(out.presentation, 3, target=out.wbar)
    assert cert is not None and cert.revalidate()


def test_determinism_bit_identical_outputs():
    src = free_source()
    w = parse_word("a b^-1 a")
    first = witness_w(f2_atom(), src, w)
    second = witness_w(f2_atom(), src, w)
    assert serialize(first.presentation) == serialize(second.presentation)
    from gpforge.sexpr import serialize_expr

    assert serialize_expr(first.expr) == serialize_expr(second.expr)


@pytest.mark.parametrize("text", ["a a^-1", "a b"])
@pytest.mark.parametrize(
    "construct",
    [
        lambda src, w: lambda_w(src, w),
        lambda src, w: gamma_w(src, w),
        lambda src, w: witness_w(f2_atom(), src, w),
        lambda src, w: pi_w(src, w, 4),
        lambda src, w: delta_w(src, w, 3),
    ],
    ids=["lambda_w", "gamma_w", "witness_w", "pi_w", "delta_w"],
)
def test_each_construction_asks_the_oracle_once(monkeypatch, construct, text):
    calls = []
    decide = WordProblemSource.is_trivial

    def counted(self, w):
        calls.append(w)
        return decide(self, w)

    monkeypatch.setattr(WordProblemSource, "is_trivial", counted)
    construct(free_source(), parse_word(text))
    assert len(calls) == 1
