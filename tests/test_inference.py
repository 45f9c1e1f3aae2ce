import functools
import random
import time
from dataclasses import replace

import pytest

from gpforge import inference
from gpforge.combinators import (
    amalgamated_product,
    atom,
    bac_hnn,
    direct_product,
    free_product,
    hnn_extension,
    mu_stage,
    standard_mitosis,
)
from gpforge.errors import InvalidInputError, ParseError
from gpforge.inference import (
    A0_CITATION,
    DEGREE,
    MAX_DEGREE,
    MAX_QUERY_DEGREE,
    NODE,
    PREDICATES,
    Certificate,
    Derivation,
    Fact,
    check_consistency,
    derive,
    parse_fact,
    query,
    replay_certificate,
)
from gpforge.meier import meier_gamma_expr
from gpforge.presentations import PresentationMorphism, presentation
from gpforge.reductions import (
    WordProblemSource,
    delta_w,
    free_source,
    gamma_w,
    hyperbolic_manifold_atom,
    pi_w,
    witness_w,
)
from gpforge.sexpr import parse_expr, serialize_expr
from gpforge.words import parse_word, word
from tests_util import NaiveDerivation, scan_rules


def thompson_atom():
    return atom(presentation(["p", "q"], name="thompson-t-stand-in"), facts=(("ThompsonT", None),))


def test_amenable_atom_derives_bac_and_hdb0():
    expr = atom(presentation(["a"]), facts=(("Amenable", None),))
    d = derive(expr)
    assert d.has(expr, "BoundedlyAcyclic")
    assert d.has(expr, "HdbEquals0")
    assert query(d, expr, "BoundedlyAcyclic").rule == "R1"
    assert query(d, expr, "HdbEquals0").rule == "R20"


def test_mu_over_two_generated_atom():
    base = atom(presentation(["x", "y"]), facts=(("FinGen", 2),))
    expr = mu_stage(base, 2)
    d = derive(expr)
    assert d.has(expr, "BoundedlyAcyclic")
    assert d.has(expr, "ContainsF2")
    assert d.has(expr, "FinGen", 5)
    assert d.has(expr, "NotFinPres")
    assert d.has(expr, "RecPres")
    assert query(d, expr, "BoundedlyAcyclic").rule == "R6"


def test_mu_over_a_generator_free_atom():
    expr = mu_stage(atom(presentation([])), 1)
    d = derive(expr)
    cert = query(d, expr, "FinGen", 3)
    assert cert is not None and cert.rule == "R6"
    assert [p.fact for p in cert.premises] == [Fact(1, "FinGen", 0)]
    assert not d.has(expr, "FinGen", 0)
    assert query(d, expr, "RecPres").rule == "R6"


def test_mitosis_node_gets_f2_but_not_bac():
    expr = standard_mitosis(presentation(["g"]))
    d = derive(expr)
    assert d.has(expr, "ContainsF2")
    assert not d.has(expr, "BoundedlyAcyclic")
    assert d.has(expr, "CdbAtLeast", 3)  # via R21


def test_thompson_times_hyperbolic_three_manifold():
    expr = direct_product(thompson_atom(), hyperbolic_manifold_atom(3))
    d = derive(expr, max_degree=8)
    for n in range(2, 9):
        cert = query(d, expr, "LargeHb", n)
        assert cert is not None, n
        assert cert.rule == "R17"
    assert check_consistency(d) == []


def test_meier_gamma_large_even_degrees_via_r12():
    expr = meier_gamma_expr()
    d = derive(expr, max_degree=10)
    t_node = expr.children[0]
    assert query(d, t_node, "LargeHb", 2).rule == "R8"
    assert query(d, expr, "LargeHb", 2).rule == "R9"
    for deg in (4, 6, 8, 10):
        cert = query(d, expr, "LargeHb", deg)
        assert cert is not None and cert.rule == "R12"
    assert check_consistency(d) == []


def test_gamma_w_uses_r19_and_r11():
    out = gamma_w(free_source(), parse_word("a b"))
    d = derive(out.expr)
    assert query(d, out.expr, "AcylHyp").rule == "R19"
    assert d.has(out.expr, "LargeHb", 2) and d.has(out.expr, "LargeHb", 3)


def test_pi_w_large_in_requested_degrees():
    src = free_source()
    for dim in (4, 5, 6):
        out = pi_w(src, parse_word("a^2 b^-1"), dim)
        d = derive(out.expr, max_degree=dim)
        cert = query(d, out.expr, "LargeHb", dim)
        assert cert is not None
        assert cert.rule == "R14"  # loneb-large(dim) -> large H^dim_b
        assert replay_certificate(d, cert)


def test_bac_hnn_chain_route_via_r3():
    u = atom(presentation(["x", "y"], name="universal"), facts=(("MuEmbedsBack", None),))
    x, y = u.realized.alphabet.symbols
    embed = PresentationMorphism(u.realized, u.realized, {x: word(x), y: word(y)})
    expr = bac_hnn(u, embed.verify(lambda w: not w))
    d = derive(expr)
    cert = query(d, expr, "BoundedlyAcyclic")
    assert cert is not None and cert.rule == "R3"
    assert {p.fact.predicate for p in cert.premises} == {"SelfEmbeddingHnn", "MuEmbedsBack"}


def test_r3_plain_ascending_hnn_of_bac_base():
    base = atom(presentation(["a"]), facts=(("Amenable", None),))
    a = base.realized.alphabet.symbols[0]
    expr = hnn_extension(base, "t", [(word(a), word((a, 2)))], ascending=True)
    d = derive(expr)
    cert = query(d, expr, "BoundedlyAcyclic")
    assert cert is not None and cert.rule == "R3"
    assert d.has(base, "CoAmenableIn", d.node_id(expr))


def test_r4_coamenable_lift():
    base = atom(presentation(["a"]), facts=(("Mitotic", None),))
    a = base.realized.alphabet.symbols[0]
    expr = hnn_extension(base, "t", [(word(a), word((a, 2)))], ascending=True)
    d = derive(expr)
    # R3 fires first in catalog order; R4 would give the same conclusion.
    assert d.has(expr, "BoundedlyAcyclic")
    assert query(d, base, "BoundedlyAcyclic").rule == "R2"


def test_r5_extension_rule_on_products():
    p = atom(presentation(["a"]), facts=(("Amenable", None),))
    q = atom(presentation(["b"]), facts=(("Mitotic", None),))
    expr = direct_product(p, q)
    d = derive(expr)
    cert = query(d, expr, "BoundedlyAcyclic")
    assert cert is not None and cert.rule == "R5"


def test_r10_retract_lift_on_products():
    large = atom(presentation(["a"]), facts=(("AcylHyp", None),))
    other = atom(presentation(["b"]))
    expr = direct_product(other, large)
    d = derive(expr)
    cert = query(d, expr, "LargeHb", 3)
    assert cert is not None and cert.rule == "R10"


def test_r16_even_degrees_materialize_lazily():
    expr = thompson_atom()
    d = derive(expr, max_degree=6)
    assert d.has(expr, "NonvanishingHb", 6)
    assert not d.has(expr, "NonvanishingHb", 8)
    cert = query(d, expr, "NonvanishingHb", 8)  # re-derives at degree 8
    assert cert is not None and cert.rule == "R16"


def test_r20_r21_dimension_rules():
    fin = atom(presentation(["g"], ["g"]), facts=(("Finite", None),))
    d = derive(fin)
    assert d.has(fin, "CdbEquals0")
    assert d.has(fin, "HdbEquals0")
    assert d.has(fin, "Amenable")  # via CdbEquals0 <-> Finite, hd chain
    f2 = atom(presentation(["x", "y"]), facts=(("ContainsF2", None),))
    mu = mu_stage(f2, 2)
    d2 = derive(mu)
    assert d2.has(f2, "CdbAtLeast", 3)
    assert d2.has(mu, "CdbAtLeast", 3)  # subgroup monotonicity


def test_query_absent_is_none():
    trivial = atom(presentation([]), facts=(("Finite", None),))
    d = derive(trivial)
    assert query(d, trivial, "LargeHb", 2) is None


def test_monotonicity_of_assertions():
    expr = mu_stage(atom(presentation(["x", "y"])), 2)
    asserted = mu_stage(atom(presentation(["x", "y"]), facts=(("TorsionFree", None),)), 2)
    d_before = derive(expr)
    d_after = derive(asserted)
    assert d_before.facts < d_after.facts


def test_contradiction_detection():
    bad = atom(presentation(["a"]), facts=(("Amenable", None), ("ContainsF2", None)))
    d = derive(bad)
    flagged = check_consistency(d)
    assert any("Amenable vs ContainsF2" in msg for _, msg in flagged)
    # The derived facts also clash: BAc from R1 meets LargeHb from R11.
    worse = atom(
        presentation(["a"]),
        facts=(("Amenable", None), ("AcylHyp", None)),
    )
    flagged2 = check_consistency(derive(worse))
    assert any("BoundedlyAcyclic vs LargeHb" in msg for _, msg in flagged2)


def test_consistency_clean_on_healthy_fixtures():
    fixtures = [
        mu_stage(atom(presentation(["g"])), 2),
        direct_product(thompson_atom(), hyperbolic_manifold_atom(3)),
        meier_gamma_expr(),
        gamma_w(free_source(), parse_word("a")).expr,
    ]
    for expr in fixtures:
        assert check_consistency(derive(expr)) == []


def test_certificates_replay():
    expr = direct_product(thompson_atom(), hyperbolic_manifold_atom(3))
    d = derive(expr, max_degree=6)
    for fact, cert in sorted(d.certificates.items(), key=lambda kv: kv[0].render()):
        assert replay_certificate(d, cert), fact.render()


def test_forged_leaf_does_not_replay():
    expr = direct_product(thompson_atom(), hyperbolic_manifold_atom(3))
    d = derive(expr, max_degree=6)
    fact = Fact(0, "LargeHb", 6)
    assert d.certificates[fact].rule == "R17"
    for rule in ("A0", "S1"):
        assert not replay_certificate(d, Certificate(fact, rule, A0_CITATION))
    # A leaf replays only as the derivation's own certificate of its fact.
    seed = d.certificates[Fact(1, "ThompsonT")]
    assert replay_certificate(d, seed)
    assert not replay_certificate(d, Certificate(seed.fact, "S1", seed.citation))


def test_forged_citation_does_not_replay():
    expr = _nested_free_products(3)
    d = derive(expr)
    cert = query(d, expr, "CdbAtLeast", 3)
    assert cert.rule == "R20" and replay_certificate(d, cert)
    forged = Certificate(cert.fact, cert.rule, "Gromov 1982: a theorem nobody proved", cert.premises)
    assert not replay_certificate(d, forged)


def test_forged_premise_beside_a_valid_one_does_not_replay():
    # Two certificates for one fact in one tree are both checked.
    expr = direct_product(thompson_atom(), hyperbolic_manifold_atom(3))
    d = derive(expr, max_degree=6)
    root = d.certificates[Fact(0, "LargeHb", 6)]
    valid = root.premises[0]
    assert valid.rule == "R16" and replay_certificate(d, root)
    forged = Certificate(valid.fact, "A0", A0_CITATION)
    for premises in (root.premises + (forged,), (forged,) + root.premises):
        assert not replay_certificate(d, Certificate(root.fact, root.rule, root.citation, premises))


def _nested_free_products(depth):
    expr = atom(presentation(["x", "y"], name="G"), facts=(("ContainsF2", None),))
    for _ in range(depth):
        expr = free_product(expr, atom(presentation(["z"], name="Z")))
    return expr


def test_replay_deeper_than_the_stack():
    expr = _nested_free_products(400)
    d = derive(expr)
    cert = query(d, expr, "CdbAtLeast", 3)
    assert cert.render().count("\n") > 400  # one premise per level
    assert replay_certificate(d, cert)


def test_replay_of_a_deep_chain_costs_its_premises_not_the_tree():
    # R20 reads its premises, so one certificate's replay does not walk the tree.
    expr = _nested_free_products(1100)
    d = derive(expr)
    cert = query(d, expr, "CdbAtLeast", 3)
    started = time.perf_counter()
    assert replay_certificate(d, cert)
    assert time.perf_counter() - started < 1.0


def test_render_deeper_than_the_stack():
    cert = Certificate(Fact(0, "FinPres"), "A0", A0_CITATION)
    for i in range(1, 5001):
        cert = Certificate(Fact(i, "FinPres"), "R1", "c", (cert,))
    lines = cert.render().split("\n")
    assert len(lines) == 5001
    assert lines[0] == "R1 FinPres@n5000 -- c"
    assert lines[-1] == "  " * 5000 + f"A0 FinPres@n0 -- {A0_CITATION}"


def test_degree_bound():
    expr = direct_product(thompson_atom(), hyperbolic_manifold_atom(3))
    d = derive(expr, max_degree=6)
    with pytest.raises(ValueError):
        query(d, expr, "LargeHb", MAX_QUERY_DEGREE + 1)
    with pytest.raises(ValueError):
        derive(expr, max_degree=MAX_QUERY_DEGREE + 1)
    with pytest.raises(ValueError):
        Derivation(expr, MAX_QUERY_DEGREE + 1)


def test_certificate_render_mentions_rule_and_node():
    expr = meier_gamma_expr()
    d = derive(expr, max_degree=4)
    cert = query(d, expr, "LargeHb", 4)
    text = cert.render()
    assert "R12" in text and "R9" in text and "R8" in text


def test_kebab_round_trip():
    named = {spec.name: predicate for predicate, spec in PREDICATES.items() if spec.name}
    assert len(named) == 24
    for name, predicate in named.items():
        arg = 2 if PREDICATES[predicate].arg else None
        assert parse_fact(name, arg) == (predicate, arg)
        assert PREDICATES[parse_fact(name, arg)[0]].name == name
    # Structural predicates have no name and are never read from text.
    for text in ("no-such-predicate", "CoAmenableIn", "edge-amenable", "LargeHb"):
        with pytest.raises(ParseError):
            parse_fact(text)
    for facts in ((("EdgeAmenable", None),), (("Amenable", 3),), (("Bogus", None),)):
        with pytest.raises(ParseError):
            serialize_expr(atom(presentation(["g"]), facts=facts))


def test_argument_kinds():
    accepted = {None: [None], DEGREE: [0, 7], NODE: [0, 3]}
    rejected = {None: [0, "x"], DEGREE: [None, -1, "3", 2.0, True], NODE: [None, -2, "n1"]}
    for predicate, spec in PREDICATES.items():
        for arg in accepted[spec.arg]:
            assert Fact(0, predicate, arg).arg == arg
            if spec.name:
                assert parse_fact(spec.name, arg) == (predicate, arg)
        for arg in rejected[spec.arg]:
            with pytest.raises(InvalidInputError):
                Fact(0, predicate, arg)
            if spec.name:
                with pytest.raises(ParseError):
                    parse_fact(spec.name, arg)


def test_unknown_predicate_rejected():
    with pytest.raises(InvalidInputError):
        Fact(0, "Bogus")
    with pytest.raises(InvalidInputError):
        Fact(0, "LargeHb")  # missing degree


@pytest.mark.parametrize("build", ["witness_w", "pi_w"])
def test_shared_subtrees_certify_the_tree_as_written(build):
    # Both constructions reuse one Lambda_w node object for every push-out
    # copy; each copy is its own position, as in the written tree.
    src = WordProblemSource(presentation(["a", "b"], name="free-source"), None, (("ContainsF2", None),))
    w = parse_word("a")
    if build == "witness_w":
        out = witness_w(atom(presentation(["x", "y"])), src, w)
    else:
        out = pi_w(src, w, 5)
    in_memory = derive(out.expr)
    written = derive(parse_expr(serialize_expr(out.expr)))
    assert len(in_memory.ctx.nodes) == len(written.ctx.nodes)
    assert [c.render() for c in in_memory.certificates.values()] == [
        c.render() for c in written.certificates.values()
    ]
    assert all(replay_certificate(written, c) for c in in_memory.certificates.values())


def test_repeated_factor_is_a_retract_at_each_position():
    x = atom(presentation(["x"]))
    d = derive(direct_product(x, x))
    assert d.ctx.kids[0] == [1, 2]
    assert Fact(1, "RetractOf", 0) in d.facts and Fact(2, "RetractOf", 0) in d.facts
    assert d.node_id(x) == 1


def test_unknown_nodes_are_refused():
    expr = mu_stage(atom(presentation(["x", "y"])), 1)
    d = derive(expr)
    assert len(d.ctx.nodes) == 2 and d.has(expr, "BoundedlyAcyclic")
    with pytest.raises(InvalidInputError, match=r"^unknown node id -1$"):
        query(d, -1, "BoundedlyAcyclic")
    with pytest.raises(InvalidInputError, match=r"^unknown node id 5$"):
        d.has(5, "ContainsF2")
    foreign = atom(presentation(["x", "y"]))
    with pytest.raises(InvalidInputError, match=r"^unknown node <GroupExpr atom gens=2 children=0>$"):
        d.has(foreign, "ContainsF2")
    with pytest.raises(InvalidInputError, match=r"^unknown node <GroupExpr atom "):
        query(d, foreign, "ContainsF2")


def test_derive_is_fast_on_a_wide_witness_tree():
    # One push-out per generator: 800 amalgams, each with an edge fact.
    src = free_source()
    gamma = atom(presentation([f"g{i}" for i in range(800)]))
    out = witness_w(gamma, src, parse_word("a", src.presentation.alphabet))
    started = time.perf_counter()
    d = derive(out.expr)
    assert time.perf_counter() - started < 1.5
    assert sum(f.predicate == "EdgeAmenable" for f in d.certificates) == 800


_ASSERTABLE = [(predicate, spec.arg) for predicate, spec in PREDICATES.items() if spec.name]


def _random_tree(rng, depth, leaf=0.0, extra=()):
    """A small tree over atoms with random assertable facts, the three
    products with random tags, HNN extensions, mitosis and mu stages.
    Below the root, a node is a leaf with probability 0.3; with `extra`,
    half the leaves are drawn from it."""
    if depth == 0 or rng.random() < leaf:
        if extra and rng.random() < 0.5:
            return rng.choice(extra)
        facts = [
            (predicate, rng.randint(0, 5) if arg else None)
            for predicate, arg in rng.sample(_ASSERTABLE, rng.randint(0, 4))
        ]
        return atom(presentation(rng.sample(["x", "y", "z"], rng.randint(1, 2))), facts=facts)
    kind = rng.choice(["free", "direct", "amalgam", "hnn", "mitosis", "mu"])
    p = _random_tree(rng, depth - 1, 0.3, extra)
    if kind == "mitosis":
        return standard_mitosis(p)
    if kind == "mu":
        return mu_stage(p, rng.randint(1, 2))
    if kind == "hnn":
        # Fresh: a generator t<k> comes from a base of k generators, and
        # alphabets only grow up the tree.
        stable = f"t{len(p.realized.alphabet)}"
        return hnn_extension(p, stable, ascending=rng.random() < 0.7, bac_hnn_chain=rng.random() < 0.5)
    q = _random_tree(rng, depth - 1, 0.3, extra)
    if kind == "free":
        return free_product(p, q, nonelementary=rng.random() < 0.5)
    if kind == "direct":
        return direct_product(p, q)
    pairs = ((word(p.realized.alphabet.symbols[0]), word(q.realized.alphabet.symbols[0])),)
    tags = ("edge_amenable", "doublecoset_at_least_3", "proper_edge", "edges_legitimate")
    return amalgamated_product(p, q, pairs, **{tag: rng.random() < 0.6 for tag in tags})


def _differential_trees():
    z = presentation(["x", "y"])
    # Derivation order puts the atom's asserted ContainsF2 (n3) before the
    # mitosis node's derived one (n1); a scan of n0's children cites n1.
    tie = free_product(standard_mitosis(atom(presentation(["g"]))), atom(z, facts=(("ContainsF2", None),)))
    # Two edge-amenable amalgams, each lifting only its own factors' facts
    # though the other's factors carry facts R18 reads.
    pairs = ((word(z.alphabet.symbols[0]), word(z.alphabet.symbols[0])),)
    tags = {"edge_amenable": True, "doublecoset_at_least_3": True, "proper_edge": True}
    left = amalgamated_product(atom(z, facts=(("LargeHb", 2),)), atom(z, facts=(("LonebLarge", 1),)), pairs, **tags)
    right = amalgamated_product(atom(z, facts=(("LonebPositive", 3),)), atom(z), pairs, edge_amenable=True)
    rng = random.Random(19)
    return [tie, free_product(left, right)] + [_random_tree(rng, 4) for _ in range(120)]


@pytest.mark.parametrize("max_degree", [4, 12])
def test_premise_driven_rules_match_the_node_scans(monkeypatch, max_degree):
    for expr in _differential_trees():
        d = derive(expr, max_degree)
        with monkeypatch.context() as m:
            m.setattr(inference, "RULES", scan_rules())
            scanned = derive(expr, max_degree)
        assert [c.render() for c in d.certificates.values()] == [c.render() for c in scanned.certificates.values()]
        assert check_consistency(d) == check_consistency(scanned)
        assert all(replay_certificate(d, c) for c in d.certificates.values())


def _witness_leaves():
    """Subtrees on which R9, R12, R16 and R17 fire: Meier's Gamma, the
    witness constructions of a nontrivial word, and hyperbolic-manifold and
    Thompson atoms."""
    src = free_source()
    w = parse_word("a", src.presentation.alphabet)
    return (
        meier_gamma_expr(),
        witness_w(atom(presentation(["x", "y"])), src, w).expr,
        pi_w(src, w, 4).expr,
        pi_w(src, w, 5).expr,
        delta_w(src, w, 3).expr,
        hyperbolic_manifold_atom(2),
        hyperbolic_manifold_atom(3),
        thompson_atom(),
    )


@functools.lru_cache(maxsize=None)
def _oracle_trees():
    extra = _witness_leaves()
    rng = random.Random(28)
    return _differential_trees() + list(extra) + [_random_tree(rng, 4, extra=extra) for _ in range(200)]


@pytest.mark.parametrize("max_degree", [4, 12])
def test_semi_naive_fixpoint_matches_the_naive_one(max_degree):
    fired = set()
    for expr in _oracle_trees():
        d = derive(expr, max_degree)
        naive = NaiveDerivation(expr, max_degree)
        assert [c.render() for c in d.certificates.values()] == [c.render() for c in naive.certificates.values()]
        assert check_consistency(d) == check_consistency(naive)
        fired.update(c.rule for c in d.certificates.values())
    assert {"R9", "R12", "R16", "R17"} <= fired


def test_rules_declare_the_predicates_of_their_premises(monkeypatch):
    # A rule is skipped while its declared predicates gain no fact, so an
    # undeclared premise predicate would silently lose conclusions.
    def guarded(rule):
        def step(ctx, facts, since):
            for fact, premises in rule.step(ctx, facts, since):
                assert {p.predicate for p in premises} <= set(rule.premises), (rule.id, premises)
                yield fact, premises

        return replace(rule, step=step)

    monkeypatch.setattr(inference, "RULES", tuple(guarded(r) for r in inference.RULES))
    for expr in _oracle_trees():
        NaiveDerivation(expr, MAX_DEGREE)


def test_derive_on_a_deep_chain_yields_linearly_many_conclusions(monkeypatch):
    yields = 0

    def counted(rule):
        def step(ctx, facts, since):
            nonlocal yields
            for pair in rule.step(ctx, facts, since):
                yields += 1
                yield pair

        return replace(rule, step=step)

    counts = []
    with monkeypatch.context() as m:
        m.setattr(inference, "RULES", tuple(counted(r) for r in inference.RULES))
        for depth in (400, 800):
            yields = 0
            derive(_nested_free_products(depth))
            counts.append(yields)
    assert counts[1] <= 2.1 * counts[0], counts
    expr = _nested_free_products(1600)
    assert query(derive(expr), expr, "CdbAtLeast", 3) is not None


def test_an_atom_cannot_assert_a_structural_predicate():
    x, y = presentation(["x"]), presentation(["y"])
    for facts in ((("EdgeAmenable", None),), (("EdgeDoubleCosetsAtLeast3", None),), (("CoAmenableIn", 5),)):
        with pytest.raises(InvalidInputError, match="structural"):
            derive(free_product(atom(x, facts=facts), atom(y, facts=(("LargeHb", 2), ("Amenable", None)))))
