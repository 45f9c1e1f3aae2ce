import pytest

from gpforge import combinators
from gpforge.combinators import (
    MAX_MU_STAGE,
    amalgamated_product,
    bac_hnn,
    direct_product,
    free_product,
    hnn_extension,
    mu_stage,
    standard_mitosis,
)
from gpforge.errors import InvalidInputError, SearchBudgetError
from gpforge.homology import AbelianGroup, abelianization
from gpforge.presentations import (
    PresentationMorphism,
    is_stage_embedding,
    parse,
    presentation,
    serialize,
    tietze_simplify,
    validate,
)
from gpforge.words import Word, parse_word, word
from gpforge.reductions import MAX_DELTA_DIM, delta_w, free_source, pi_w
from tests_util import bs_source, canonical_form, canonical_rename, word_commutators, word_mitosis_relators


def roundtrips(expr):
    text = serialize(expr.realized)
    assert parse(text) == expr.realized
    assert validate(expr.realized) == []


def test_free_product_of_torsion_factors():
    p = presentation(["a"], ["a^2"])
    q = presentation(["b"], ["b^3"])
    e = free_product(p, q)
    assert serialize(e.realized) == "gens a b\nrel a^2\nrel b^3"
    roundtrips(e)


def test_free_product_with_trivial_factor():
    p = presentation([], [])
    q = presentation(["a"], ["a^2"])
    assert serialize(free_product(p, q).realized) == "gens a\nrel a^2"


def test_free_product_renames_clashes_deterministically():
    p = presentation(["a", "a_2"])
    q = presentation(["a", "b"])
    e = free_product(p, q)
    assert e.realized.alphabet.names == ("a", "a_2", "a_3", "b")


def test_free_product_associative_up_to_canonical_renaming():
    p = presentation(["a"], ["a^2"])
    q = presentation(["a"], ["a^3"])
    r = presentation(["a"], ["a^5"])
    left = free_product(free_product(p, q), r).realized
    right = free_product(p, free_product(q, r)).realized
    assert serialize(canonical_rename(left)) == serialize(canonical_rename(right))
    left_d = direct_product(direct_product(p, q), r).realized
    right_d = direct_product(p, direct_product(q, r)).realized
    assert serialize(canonical_form(left_d)) == serialize(canonical_form(right_d))


def test_direct_product_z_squared_and_counts():
    e = direct_product(presentation(["a"]), presentation(["b"]))
    assert serialize(e.realized) == "gens a b\nrel a^-1 b^-1 a b"
    assert abelianization(e.realized) == AbelianGroup(2)
    p = presentation(["x", "y"], ["x^2"])
    q = presentation(["u", "v", "w"], ["u v"])
    prod = direct_product(p, q).realized
    assert len(prod.alphabet) == 5
    assert len(prod.relators) == 1 + 1 + 2 * 3
    roundtrips(direct_product(p, q))


def test_amalgam_identifications_and_degenerate_error():
    p = presentation(["a"], ["a^4"])
    q = presentation(["b"], ["b^6"])
    e = amalgamated_product(p, q, [(parse_word("a^2"), parse_word("b^3"))])
    assert serialize(e.realized) == "gens a b\nrel a^4\nrel b^6\nrel a^2 b^-3"
    with pytest.raises(InvalidInputError):
        amalgamated_product(p, q, [(Word(), parse_word("b"))])


def test_amalgam_with_no_pairs_realizes_free_product():
    p = presentation(["a"], ["a^2"])
    q = presentation(["b"])
    amalgam = amalgamated_product(p, q, [])
    assert amalgam.realized == free_product(p, q).realized


def test_hnn_bs23_and_degenerate_free_product_with_z():
    base = presentation(["a"])
    a = word(base.alphabet.symbol("a"))
    e = hnn_extension(base, "t", [(a ** 2, a ** 3)])
    assert serialize(e.realized) == "gens a t\nrel t^-1 a^2 t a^-3"
    empty = hnn_extension(base, "t", [])
    assert serialize(empty.realized) == "gens a t"
    with pytest.raises(InvalidInputError):
        hnn_extension(base, "a", [])


def test_hnn_ascending_from_pairs():
    base = presentation(["a"])
    a = base.alphabet.symbol("a")
    e = hnn_extension(base, "t", [(word(a), word((a, 2)))], ascending=True)
    assert e.payload["ascending"]
    assert set(e.payload) == {"stable", "assoc", "ascending", "bac_hnn_chain"}
    assert serialize(e.realized) == "gens a t\nrel t^-1 a t a^-2"


def test_standard_mitosis_of_f1():
    e = standard_mitosis(presentation(["g"]))
    assert serialize(e.realized) == (
        "gens g s d\n"
        "rel d^-1 g d s^-1 g^-1 s g^-1\n"
        "rel g^-1 s^-1 g^-1 s g s^-1 g s"
    )
    assert len(e.realized.alphabet) == 1 + 2
    assert len(e.realized.relators) == 1 ** 2 + 1
    assert abelianization(e.realized) == AbelianGroup(2)
    roundtrips(e)


def test_mitosis_relator_count_scales_quadratically():
    for n in (1, 2, 3):
        p = presentation([f"g{i}" for i in range(1, n + 1)])
        e = standard_mitosis(p)
        assert len(e.realized.relators) == n * n + n
        assert len(e.realized.alphabet) == n + 2


def test_mitosis_quotient_to_f2_kills_all_relators():
    e = standard_mitosis(presentation(["g", "h"], ["g^3"]))
    quotient = e.payload["quotient_to_f2"]
    for rel in e.realized.relators[1:]:  # mitosis relators, not the base one
        assert quotient.apply(rel) == Word()


def test_mitosis_fresh_letter_renaming():
    p = presentation(["s", "d"])
    e = standard_mitosis(p)
    assert e.realized.alphabet.names == ("s", "d", "s_2", "d_2")


def test_mu_stage_bounds():
    base = presentation(["g"])
    assert len(mu_stage(base, MAX_MU_STAGE).realized.alphabet) == 2 * MAX_MU_STAGE + 2
    for k in (0, MAX_MU_STAGE + 1, 10**11):
        with pytest.raises(ValueError, match=f"1..{MAX_MU_STAGE}, got {k}"):
            mu_stage(base, k)


def test_mu_stage_counts_and_abelianization():
    for base_gens, k in [(1, 1), (1, 2), (2, 3), (1, 4)]:
        p = presentation([f"g{i}" for i in range(1, base_gens + 1)])
        e = mu_stage(p, k)
        assert len(e.realized.alphabet) == base_gens + 2 * k + 1
    assert abelianization(mu_stage(presentation(["g"]), 2).realized) == AbelianGroup(1)
    assert abelianization(mu_stage(presentation(["g"]), 3).realized) == AbelianGroup(1)
    with pytest.raises(ValueError):
        mu_stage(presentation(["g"]), 0)


def test_mu_stage_monotone():
    p = presentation(["g"])
    stages = {k: mu_stage(p, k).realized for k in (1, 2, 3, 4)}
    for k in (1, 2, 3):
        assert is_stage_embedding(stages[k], stages[k + 1])


def test_mu_stage_tietze_generator_count():
    for gens in (["g"], ["a", "b"]):
        for k in (1, 2, 3):
            e = mu_stage(presentation(gens), k)
            simplified = tietze_simplify(e.realized)
            assert len(simplified.alphabet) == len(gens) + 3


def test_mitosis_tower_stages():
    stage0 = presentation(["g"])
    stage1 = standard_mitosis(stage0).realized
    stage2 = standard_mitosis(standard_mitosis(stage0)).realized
    assert len(stage1.alphabet) == 3
    assert len(stage2.alphabet) == 5
    assert is_stage_embedding(stage1, stage2)


def test_bac_hnn_identity_embedding_gives_product_with_z():
    p = presentation(["x", "y"])
    x, y = p.alphabet.symbols
    ident = PresentationMorphism(p, p, {x: word(x), y: word(y)}).verify(lambda w: not w)
    e = bac_hnn(p, ident)
    assert e.payload["ascending"] and e.payload["bac_hnn_chain"]
    assert serialize(e.realized) == "gens x y t\nrel t^-1 x t x^-1\nrel t^-1 y t y^-1"
    unverified = PresentationMorphism(p, p, {x: word(x), y: word(y)})
    assert bac_hnn(p, unverified).payload == e.payload


def test_every_combinator_realization_validates():
    p = presentation(["a"], ["a^2"])
    q = presentation(["b"])
    exprs = [
        free_product(p, q),
        direct_product(p, q),
        amalgamated_product(p, q, [(parse_word("a"), parse_word("b"))]),
        hnn_extension(q, "t", [(parse_word("b"), parse_word("b^2"))]),
        standard_mitosis(p),
        mu_stage(q, 2),
    ]
    for e in exprs:
        roundtrips(e)


def _assert_same_relators(build, monkeypatch):
    # The run-built relators, then the Word-arithmetic oracle's, one by one.
    new = build().relators
    with monkeypatch.context() as m:
        m.setattr(combinators, "_commutators", word_commutators)
        m.setattr(combinators, "_mitosis_relators", word_mitosis_relators)
        old = build().relators
    assert len(new) == len(old)
    for i, (r, o) in enumerate(zip(new, old)):
        assert r == o, f"relator {i}: {r} != {o}"


@pytest.mark.parametrize("k", range(1, 9))
def test_mu_stage_relators_match_the_word_builders(k, monkeypatch):
    _assert_same_relators(lambda: mu_stage(presentation(["g"]), k).realized, monkeypatch)


def test_mitosis_and_witness_product_relators_match_the_word_builders(monkeypatch):
    base = presentation(["a", "b", "s"], ["a b a^-1 b^-1", "s^3"])
    _assert_same_relators(lambda: standard_mitosis(base).realized, monkeypatch)
    for src, text in ((free_source(), "a b"), (bs_source(2, 3), "a^-1 t^-1 a^-1 t a t^-1 a t")):
        w = parse_word(text, src.presentation.alphabet)
        _assert_same_relators(lambda: pi_w(src, w, 4).presentation, monkeypatch)
        _assert_same_relators(lambda: delta_w(src, w, 3).presentation, monkeypatch)


@pytest.mark.parametrize(
    "build, count",
    [
        # The children's relators count too, so nesting cannot get past the budget.
        (lambda: direct_product(presentation(["a"], ["a^2"]), presentation(["b", "c"], ["b c b"])), 1 + 1 + 2),
        (lambda: standard_mitosis(presentation(["a", "b"], ["a^3"])), 1 + 2 + 4),
        # Levels over 1 and 3 generators, then t^-1 g t g^-1 and the two shifts.
        (lambda: mu_stage(presentation(["g"], ["g^5"]), 2), 1 + 2 + 12 + 3),
    ],
)
def test_relator_budget_is_checked_before_the_relators_are_built(build, count, monkeypatch):
    monkeypatch.setattr(combinators, "RELATOR_BUDGET", count)
    assert len(build().realized.relators) == count
    monkeypatch.setattr(combinators, "RELATOR_BUDGET", count - 1)
    message = f"^a presentation of {count} relators is more than the {count - 1} allowed$"
    with pytest.raises(SearchBudgetError, match=message):
        build()


def test_built_in_constructions_stay_a_tenth_below_the_relator_budget():
    largest = [
        delta_w(free_source(), parse_word("a^2"), MAX_DELTA_DIM).presentation,
        mu_stage(presentation(["g"]), combinators.MAX_MU_STAGE).realized,
    ]
    assert [len(p.relators) for p in largest] == [8316, 3877]
    assert 10 * 8316 <= combinators.RELATOR_BUDGET
