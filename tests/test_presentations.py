import random

import pytest
from hypothesis import given, settings, strategies as st

from gpforge import presentations
from gpforge.combinators import mu_stage
from gpforge.errors import AlphabetMismatchError, GpforgeError, ParseError
from gpforge.homology import abelianization
from gpforge.presentations import (
    EMPTY_PRESENTATION,
    Presentation,
    PresentationMorphism,
    is_stage_embedding,
    parse,
    presentation,
    serialize,
    tietze_simplify,
    validate,
)
from gpforge.reductions import delta_w, f2_atom, free_source, gamma_w, lambda_w, pi_w, witness_w
from gpforge.words import Alphabet, Word, parse_word, word
from tests_util import bs_source, near_grammar_texts, rescan_tietze_simplify


def test_parse_bs23_with_equals_sugar():
    p = parse("gens a t\nrel t^-1 a^2 t = a^3")
    assert p.alphabet.names == ("a", "t")
    assert p.relators == (parse_word("t^-1 a^2 t a^-3", p.alphabet),)


def test_parse_free_group_and_z2():
    f1 = parse("gens a\n")
    assert f1.alphabet.names == ("a",) and f1.relators == ()
    z2 = parse("gens a b\nrel a b a^-1 b^-1")
    assert z2.relators == (parse_word("a b a^-1 b^-1", z2.alphabet),)


def test_parse_comments_and_blank_lines():
    p = parse("# header\n\ngens a b\n# middle\nrel a b\n")
    assert len(p.relators) == 1


def test_serialize_canonical_forms():
    bs = parse("gens a t\nrel t^-1 a^2 t = a^3")
    assert serialize(bs) == "gens a t\nrel t^-1 a^2 t a^-3"
    assert serialize(EMPTY_PRESENTATION) == "gens"
    assert serialize(presentation(["a", "b"])) == "gens a b"


def test_round_trips():
    texts = [
        "gens a t\nrel t^-1 a^2 t a^-3",
        "gens a b c d\nrel a^-1 b^-1 a b c^-1 d^-1 c d",
        "gens",
        "gens x_1 x_2",
    ]
    for text in texts:
        p = parse(text)
        assert serialize(p) == text
        assert parse(serialize(p)) == p
    # One round trip canonicalises sugar and reduction.
    messy = "gens a b\nrel a = b\nrel a a^-1 b"
    once = serialize(parse(messy))
    assert once == "gens a b\nrel a b^-1\nrel b"
    assert serialize(parse(once)) == once


def test_parse_errors_carry_line_numbers():
    with pytest.raises(ParseError) as err:
        parse("gens a\ngens b")
    assert "line 2" in str(err.value)
    with pytest.raises(ParseError):
        parse("gens a a")
    with pytest.raises(ParseError) as err:
        parse("gens a\nrel b")
    assert "b" in str(err.value)
    with pytest.raises(ParseError):
        parse("generators a")
    with pytest.raises(ParseError):
        parse("gens a\nrel")


def test_parse_error_columns_count_from_line_start():
    # The column of a bad atom counts from the start of its line, on both
    # sides of `rel u = v`.
    cases = [
        ("gens a b\nrel a  b^0", 2, 8),
        ("gens a b\n  rel a b = a  b^x", 2, 16),
        ("gens a b\n\nrel  b^-1 =  a 1", 3, 16),
    ]
    for text, line, column in cases:
        with pytest.raises(ParseError, match=f"\\(line {line}, column {column}\\)"):
            parse(text)


def test_directives_and_equals_split_on_any_whitespace():
    # The grammar's WS is any run of spaces and tabs, as between the atoms
    # of a word.
    for tabbed, spaced in [
        ("gens\ta b\nrel a b\n", "gens a b\nrel a b\n"),
        ("gens a b\nrel\ta^2 b\n", "gens a b\nrel a^2 b\n"),
        ("gens a b\nrel a^2\t=\tb\n", "gens a b\nrel a^2 = b\n"),
    ]:
        assert parse(tabbed) == parse(spaced)
    with pytest.raises(ParseError, match=r"bad word atom '=b' \(line 2, column 9\)"):
        parse("gens a b\nrel a^2 =b")
    with pytest.raises(ParseError, match=r"bad exponent in atom 'b\^x' \(line 2, column 11\)"):
        parse("gens a b\nrel a^2\t=\tb^x")


@pytest.mark.parametrize(
    "text, line, column",
    [
        pytest.param("gens a\x1crel b", 1, 7, id="file-separator"),  # splitlines ended line 1 here
        pytest.param("gens a\u2003b", 1, 7, id="em-space"),  # str.split() read two generators
        pytest.param("gens a b\nrel a\xa0b\n", 2, 6, id="no-break-space"),
        pytest.param("gens a\r\n\x0crel a", 2, 1, id="form-feed"),
        pytest.param("gens a\rrel a\u2028\n", 2, 6, id="line-separator"),
        pytest.param("gens a\nrel a = a\x85", 2, 10, id="next-line"),
    ],
)
def test_grp_reader_refuses_separators_outside_its_grammar(text, line, column):
    with pytest.raises(ParseError, match="is not a space, a tab or a line end") as info:
        parse(text)
    assert (info.value.line, info.value.column) == (line, column)


def test_grp_line_ends_and_comments():
    # LF, CRLF and CR end lines; a comment may hold any character.
    expected = parse("gens a b\nrel a b\n")
    for text in ("gens a b\r\nrel a b\r\n", "gens a b\rrel a b", "# a\u2003b\x1c\ngens a b\n \t# \xa0\nrel a b"):
        assert parse(text) == expected


_ATOM = st.sampled_from(["a", "b", "t", "a^2", "b^-3", "t^-1", "a^-0", "1", "="])
_WORD_TOKEN = st.one_of(
    _ATOM,
    st.sampled_from(["=b", "a=", "^", "a^", "^2", "a^x", "a^-", "a^+2", "a^1_0", "a^\u0662", "c", "#"]),
    st.sampled_from(["a^" + "7" * 4000, "b^-" + "7" * 4001, "a^" + "7" * 4301]),
    st.text(max_size=3),
)
_WORD_TOKENS = st.lists(_WORD_TOKEN, min_size=1, max_size=6)
# Directives, words, `=`, comments, exponents around the digit limits;
# well-formed lines are listed twice, so that many texts are read.
_GRP_LINES = [
    (st.just("gens"), st.lists(st.sampled_from(["a", "b", "t"]), unique=True)),
    (st.just("gens"), st.lists(st.sampled_from(["a", "b", "t", "x", "1a", "\xe9"]), max_size=4)),
    (st.just("rel"), st.lists(_ATOM, min_size=1, max_size=6)),
    (st.just("rel"), st.lists(_ATOM, min_size=1, max_size=6)),
    (st.just("rel"), st.lists(_WORD_TOKEN, max_size=6)),
    (st.sampled_from(["#", "#x", ""]), _WORD_TOKENS),
    (st.sampled_from(["generators", "rel=", "Rel"]) | st.text(max_size=3), _WORD_TOKENS),
]


@settings(max_examples=400, deadline=None, database=None, derandomize=True)
@given(near_grammar_texts(_GRP_LINES))
def test_any_grp_text_is_read_or_refused(text):
    try:
        p = parse(text)
    except GpforgeError:
        return
    assert parse(serialize(p)) == p


def test_validate_diagnostics():
    assert validate(parse("gens a t\nrel t^-1 a^2 t = a^3")) == []
    foreign = Presentation(Alphabet(["a"]), (word("b"),))
    assert len(validate(foreign)) == 1
    trivial_rel = Presentation(Alphabet(["a"]), (Word(),))
    assert any("normalization" in d for d in validate(trivial_rel))


def test_tietze_kills_both_generators():
    p = parse("gens a b\nrel a\nrel b")
    simplified = tietze_simplify(p)
    assert simplified.alphabet.names == ()
    assert simplified.relators == ()


def test_tietze_eliminates_later_generator():
    p = parse("gens a b\nrel a b^-1")
    simplified = tietze_simplify(p)
    assert simplified.alphabet.names == ("a",)
    assert simplified.relators == ()


def test_tietze_budget_zero_is_identity_up_to_cyclic_reduction(monkeypatch):
    monkeypatch.setattr(presentations, "TIETZE_BUDGET", 0)
    p = parse("gens a b\nrel a\nrel b")
    assert tietze_simplify(p).alphabet.names == ("a", "b")


def random_presentation(rng, max_gens=4, max_rels=4, max_len=6):
    n = rng.randint(1, max_gens)
    names = [f"g{i}" for i in range(1, n + 1)]
    alphabet = Alphabet(names)
    syms = list(alphabet.symbols)
    rels = []
    for _ in range(rng.randint(0, max_rels)):
        letters = [
            (rng.choice(syms), rng.choice([-2, -1, 1, 2]))
            for _ in range(rng.randint(1, max_len))
        ]
        w = Word(letters)
        if w:
            rels.append(w)
    return Presentation(alphabet, tuple(rels))


def test_tietze_preserves_abelianization_on_random_presentations():
    rng = random.Random(2024)
    for _ in range(500):
        p = random_presentation(rng)
        q = tietze_simplify(p)
        assert abelianization(p) == abelianization(q)
        assert len(q.alphabet) <= len(p.alphabet)


def test_morphism_requires_total_map_and_verifies():
    p = parse("gens a t\nrel t^-1 a^2 t a^-3")
    a, t = p.alphabet.symbol("a"), p.alphabet.symbol("t")
    with pytest.raises(ParseError):
        PresentationMorphism(p, p, {a: word(a)})
    phi = PresentationMorphism(p, p, {a: word((a, 2)), t: word(t)})
    assert not phi.verified
    from gpforge.rewriting import bs_reduce

    verified = phi.verify(lambda img: not bs_reduce(2, 3, img))
    assert verified.verified and not phi.verified
    bad = PresentationMorphism(p, p, {a: word(a), t: Word()})
    with pytest.raises(ParseError):
        bad.verify(lambda img: not bs_reduce(2, 3, img))


def test_stage_embedding_check():
    small = presentation(["a"], ["a^2"])
    big = presentation(["a", "b"], ["a^2", "b^3"])
    assert is_stage_embedding(small, big)
    assert not is_stage_embedding(big, small)


def test_tietze_refuses_a_relator_outside_the_alphabet():
    p = Presentation(Alphabet(["a"]), (word("a", "b"),))
    with pytest.raises(AlphabetMismatchError, match="'b'"):
        tietze_simplify(p)


def test_tietze_elimination_with_wraparound_seam():
    # Relator a^2 b a isolates b as (a * a^2)^-1 = a^-3; the rotation seam
    # merges the two a-runs.
    p = parse("gens a b\nrel a^2 b a")
    simplified = tietze_simplify(p)
    assert simplified.alphabet.names == ("a",)
    assert simplified.relators == ()


def _assert_tietze_matches_oracle(p):
    assert serialize(tietze_simplify(p)) == serialize(rescan_tietze_simplify(p))


# A 30-digit exponent.  Only the generator z carries it, so every z run
# is a multiple of it, z is never isolated, and no image of z is ever
# raised to a huge power; the other generators' images carry z's runs.
HUGE = 123_456_789_012_345_678_901_234_567_890


@st.composite
def _presentations(draw):
    n = draw(st.integers(1, 8))
    alphabet = Alphabet([f"g{i}" for i in range(1, n + 1)] + ["z"])
    gens = alphabet.symbols[:-1]
    z = alphabet.symbols[-1]
    small = st.tuples(st.sampled_from(gens), st.sampled_from([-7, -3, -2, -1, 1, 2, 3, 7]))
    letters = st.one_of(small, st.tuples(st.just(z), st.sampled_from([-HUGE, HUGE])))
    rels = []
    for _ in range(draw(st.integers(0, 10))):
        body = draw(st.lists(letters, min_size=1, max_size=6))
        x = draw(st.sampled_from(gens))
        shape = draw(
            st.sampled_from(["word", "freely trivial", "conjugate", "one letter", "isolator", "seams"])
        )
        if shape == "freely trivial":
            body = body + [(s, -e) for s, e in reversed(body)]
        elif shape == "conjugate":
            y, e = draw(letters)
            body = [(y, e)] + body + [(y, -e)]
        elif shape == "one letter":
            # Isolates x, whose image is the empty word.
            body = [(x, draw(st.sampled_from([-1, 1])))]
        elif shape == "isolator":
            # Isolates x through an exponent -1.
            body = [(s, e) for s, e in body if s != x]
            body.insert(draw(st.integers(0, len(body))), (x, -1))
        elif shape == "seams":
            # x^-1 u isolates x with image u, so x u^-1 m u x^-1 becomes m
            # once x is eliminated: the image cancels at both seams.
            u = [(s, e) for s, e in body if s != x] or [(z, HUGE)]
            m = draw(st.lists(letters, min_size=1, max_size=4))
            inv_u = [(s, -e) for s, e in reversed(u)]
            rels.append(Word([(x, -1)] + u))
            body = [(x, 1)] + inv_u + m + u + [(x, -1)]
        rels.append(Word(body))
    return Presentation(alphabet, tuple(rels))


@settings(max_examples=400, deadline=None, database=None, derandomize=True)
@given(_presentations())
def test_tietze_matches_rescan_oracle(p):
    _assert_tietze_matches_oracle(p)


def _budget_sweep_cases():
    # Deletion, elimination (c = b), deletion of the b b^-1 it leaves.
    cases = [parse("gens a b c\nrel 1\nrel c b^-1\nrel b c^-1\nrel a b a^-1 b^-1\nrel a^2")]
    rng = random.Random(12)
    while len(cases) < 12:
        p = random_presentation(rng, max_gens=5, max_rels=7)
        q = rescan_tietze_simplify(p)
        eliminations = len(p.alphabet) - len(q.alphabet)
        if len(p.relators) - len(q.relators) > eliminations > 0:
            cases.append(p)
    return cases


@pytest.mark.parametrize("p", _budget_sweep_cases())
def test_tietze_matches_oracle_at_every_budget(p, monkeypatch):
    # Each move removes one relator, so the relators removed count the moves.
    moves = len(p.relators) - len(rescan_tietze_simplify(p).relators)
    for budget in range(moves + 2):
        monkeypatch.setattr(presentations, "TIETZE_BUDGET", budget)
        _assert_tietze_matches_oracle(p)


def test_tietze_matches_oracle_on_mu_stages():
    # Stage 8 would add about 2 s; stage 7 has 16 generators and 517 relators.
    for k in range(1, 8):
        _assert_tietze_matches_oracle(mu_stage(presentation(["g"]), k).realized)


@pytest.mark.parametrize(
    "source, words",
    [
        (free_source, ("b a a^-1 b^-1", "a b")),
        (lambda: bs_source(2, 3), ("t^-1 a^2 t a^-3", "a^-1 t^-1 a^-1 t a t^-1 a t")),
    ],
    ids=["free", "bs:2,3"],
)
def test_tietze_matches_oracle_on_witness_constructions(source, words):
    src = source()
    trivial, nontrivial = (parse_word(t, src.presentation.alphabet) for t in words)
    assert lambda_w(src, trivial).trivial_branch and not lambda_w(src, nontrivial).trivial_branch
    for w in (trivial, nontrivial):
        for out in (
            lambda_w(src, w),
            gamma_w(src, w),
            witness_w(f2_atom(), src, w),
            pi_w(src, w, 4),
            delta_w(src, w, 3),
        ):
            _assert_tietze_matches_oracle(out.presentation)


def _spy_on_rewrites(monkeypatch):
    # The relator run tuples tietze_simplify hands to its rewrite step.
    calls = []
    real = presentations._rewrite
    monkeypatch.setattr(presentations, "_rewrite", lambda runs, *rest: calls.append(runs) or real(runs, *rest))
    return calls


def test_tietze_rewrites_only_relators_holding_the_eliminated_symbol(monkeypatch):
    # c = a; c occurs in three more relators, and fifty relators lack it
    # and isolate nothing.
    texts = ["c a^-1", "c^2 b^2", "b^2 c^-2 a^2", "a^2 c^3"]
    texts += [f"a^2 b^{k} a^-2 b^-{k}" for k in range(2, 52)]
    p = presentation(["a", "b", "c"], texts)
    calls = _spy_on_rewrites(monkeypatch)
    q = tietze_simplify(p)
    assert q.alphabet.names == ("a", "b")
    assert calls == [
        tuple((p.alphabet.index(s), e) for s, e in parse_word(t, p.alphabet).letters) for t in texts[1:4]
    ]
    assert serialize(q) == serialize(rescan_tietze_simplify(p))


def test_tietze_rewrite_count_on_mu_stage_8(monkeypatch):
    # One rewrite per (eliminated generator, relator holding it) pair.
    p = mu_stage(presentation(["g"]), 8).realized
    calls = _spy_on_rewrites(monkeypatch)
    tietze_simplify(p)
    assert len(calls) == 5_544
