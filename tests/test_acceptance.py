"""Acceptance suite: one test per criterion, each printing a PASS line
with its runtime.  Expected values are exact; time bounds are part of the
contract."""

import random
import time

from gpforge.combinators import atom, direct_product, mu_stage, standard_mitosis
from gpforge.homology import (
    AbelianGroup,
    IntegerMatrix,
    abelianization,
    smith_normal_form,
)
from gpforge.inference import check_consistency, derive, query
from gpforge.meier import meier_gamma_expr, phi_apply
from gpforge.presentations import parse, presentation, tietze_simplify
from gpforge.reductions import (
    f2_atom,
    free_source,
    gamma_w,
    hyperbolic_manifold_atom,
    lambda_w,
    pi_w,
    witness_w,
)
from gpforge.rewriting import (
    bs_reduce,
    bs_system,
    finite_quotient_search,
    is_pinch_free,
)
from gpforge.topology import serialize_simplicial, simplicial_homology, triangulate
from gpforge.words import Word, commutator, parse_word, word
from tests_util import gcd_of_minors_factors


def _report(number, description, started):
    print(f"PASS criterion {number}: {description} ({time.time() - started:.2f}s)")


BS23 = parse("gens a t\nrel t^-1 a^2 t = a^3")
TORUS = parse("gens a b\nrel a^-1 b^-1 a b")
GENUS2 = parse("gens a b c d\nrel a^-1 b^-1 a b c^-1 d^-1 c d")
RP2 = parse("gens a\nrel a^2")
M_F1 = standard_mitosis(presentation(["g"])).realized
MU2_F1 = mu_stage(presentation(["g"]), 2).realized
MU3_F1 = mu_stage(presentation(["g"]), 3).realized


def test_criterion_1_abelianization_fixtures():
    started = time.time()
    fixtures = [
        (BS23, AbelianGroup(1)),
        (TORUS, AbelianGroup(2)),
        (M_F1, AbelianGroup(2)),
        (MU2_F1, AbelianGroup(1)),
        (MU3_F1, AbelianGroup(1)),
        (GENUS2, AbelianGroup(4)),
    ]
    for p, expected in fixtures:
        t0 = time.time()
        assert abelianization(p) == expected
        assert time.time() - t0 < 1.0
    _report(1, "abelianization fixtures exact, < 1 s each", started)


def test_criterion_2_britton_suite():
    started = time.time()
    c = commutator(word("a"), ~word("t") * word("a") * word("t"))
    nf = bs_reduce(2, 3, c)
    assert nf == c and nf and is_pinch_free(bs_system(2, 3), nf)
    assert phi_apply(c) == Word()
    assert phi_apply(commutator(word("t"), ~word("a"))) == parse_word("a")
    assert bs_reduce(2, 3, parse_word("t^-1 a^4 t a^-6")) == Word()
    _report(2, "Britton suite: c != 1 pinch-free, phi(c) = 1, phi([t,a^-1]) = a, "
               "phi relator obligation rewrites to 1", started)


def _subgroup_closure(generators, degree):
    ident = tuple(range(degree))
    elements = {ident}
    frontier = [ident]
    while frontier:
        g = frontier.pop()
        for h in generators:
            prod = tuple(g[h[i]] for i in range(degree))
            if prod not in elements:
                elements.add(prod)
                frontier.append(prod)
    return elements


def test_criterion_3_mitosis_element_level():
    started = time.time()
    for relator in ("g^2", "g^3"):
        base = presentation(["g"], [relator])
        m = standard_mitosis(base)
        p = m.realized
        g_sym = p.alphabet.symbol("g")
        s_sym = p.alphabet.symbol("s")
        d_sym = p.alphabet.symbol("d")
        homs = finite_quotient_search(p, 5)
        assert homs, relator
        for hom in homs:
            degree = hom.degree
            ident = tuple(range(degree))
            img_s, img_d = hom.images[s_sym], hom.images[d_sym]
            H = _subgroup_closure([hom.images[g_sym]], degree)

            def conj(x, by):
                # by^-1 * x * by under the same apply-rightmost-first
                # convention the quotient search uses.
                inv = [0] * degree
                for i, v in enumerate(by):
                    inv[v] = i
                return tuple(inv[x[by[i]]] for i in range(degree))

            def mul(x, y):
                return tuple(x[y[i]] for i in range(degree))

            for h in H:
                s_h_s = conj(h, img_s)
                # d^-1 h d = h * s^-1 h s for every element, not only g.
                assert conj(h, img_d) == mul(h, s_h_s)
                for h2 in H:
                    assert mul(h2, s_h_s) == mul(s_h_s, h2)
        # The quotient-to-F2 map kills every relator freely.
        quotient = m.payload["quotient_to_f2"]
        for rel in p.relators:
            assert quotient.apply(rel) == Word()
    elapsed = time.time() - started
    assert elapsed < 60.0
    _report(3, "mitosis conditions hold element-level in all finite quotients "
               "up to degree 5; quotient to F2 kills all relators", started)


def test_criterion_4_mu_stage_generator_count():
    started = time.time()
    bases = [presentation(["g"]), presentation(["a", "b"]), presentation(["g"], ["g^2"])]
    for base in bases:
        for k in (2, 3, 4):
            simplified = tietze_simplify(mu_stage(base, k).realized)
            assert len(simplified.alphabet) == len(base.alphabet) + 3, (base, k)
    elapsed = time.time() - started
    assert elapsed < 10.0
    _report(4, "tietze_simplify(mu_stage(p,k)) has |gens(p)|+3 generators "
               "for k in {2,3,4} and three base groups", started)


def test_criterion_5_witness_pipeline():
    started = time.time()
    rng = random.Random(20240)
    src = free_source()
    syms = list(src.presentation.alphabet.symbols)

    def is_empty(p):
        return len(p.alphabet) == 0 and not p.relators

    checked_nontrivial = 0
    for _ in range(100):
        letters = [(rng.choice(syms), rng.choice([-1, 1])) for _ in range(rng.randint(0, 12))]
        w = Word(letters)
        trivial = not w
        lam = lambda_w(src, w)
        assert is_empty(tietze_simplify(lam.presentation)) == trivial
        gam = gamma_w(src, w)
        gam_simplified = tietze_simplify(gam.presentation)
        if trivial:
            # Gamma_w is Z on this branch: one generator, no relators.
            assert len(gam_simplified.alphabet) == 1 and not gam_simplified.relators
        else:
            assert len(gam_simplified.alphabet) > 1
        wit = witness_w(f2_atom(), src, w)
        assert is_empty(tietze_simplify(wit.presentation)) == trivial
        if not trivial:
            d = derive(gam.expr)
            acyl = query(d, gam.expr, "AcylHyp")
            assert acyl is not None
            assert d.has(gam.expr, "LargeHb", 2) and d.has(gam.expr, "LargeHb", 3)
            for dim in (4, 5, 6):
                out = pi_w(src, w, dim)
                dd = derive(out.expr, max_degree=dim)
                assert query(dd, out.expr, "LargeHb", dim) is not None, dim
            checked_nontrivial += 1
    assert checked_nontrivial > 50
    elapsed = time.time() - started
    assert elapsed < 60.0
    _report(5, "witness pipeline collapses exactly on trivial words; "
               "AcylHyp => LargeHb(2,3) on Gamma_w and LargeHb(d) on Pi_w, d in {4,5,6}", started)


def test_criterion_6_triangulation():
    started = time.time()
    fixtures = [
        (BS23, AbelianGroup(1)),
        (TORUS, AbelianGroup(2)),
        (M_F1, AbelianGroup(2)),
        (MU2_F1, AbelianGroup(1)),
        (GENUS2, AbelianGroup(4)),
        (RP2, AbelianGroup(0, (2,))),
    ]
    from gpforge.topology import barycentric_subdivide, presentation_complex

    for p, expected_h1 in fixtures:
        sc = triangulate(p)
        assert sc.euler_characteristic() == 1 - len(p.alphabet) + len(p.relators)
        h0, h1, _ = simplicial_homology(sc)
        assert h0 == AbelianGroup(1)
        assert h1 == expected_h1
        assert h1 == abelianization(p)
        dc = presentation_complex(p)
        sub1 = barycentric_subdivide(dc)
        sub2 = barycentric_subdivide(sub1)
        assert len(sub1.triangles) == 6 * len(dc.triangles)
        assert len(sub2.triangles) == 6 * len(sub1.triangles)
        assert serialize_simplicial(triangulate(p)) == serialize_simplicial(sc)
    elapsed = time.time() - started
    assert elapsed < 120.0
    _report(6, "triangulation: chi = 1 - |S| + |R|, H1 matches abelianization, "
               "6x triangles per subdivision, bit-identical output", started)


def test_criterion_7_inference_regression():
    started = time.time()
    # (i) mu hull: boundedly acyclic, contains F2, not finitely presented.
    mu = mu_stage(atom(presentation(["g"])), 2)
    d_mu = derive(mu)
    assert d_mu.has(mu, "BoundedlyAcyclic")
    assert d_mu.has(mu, "ContainsF2")
    assert d_mu.has(mu, "NotFinPres")
    # (ii) Meier expression: large even degrees via R12.
    gamma = meier_gamma_expr()
    d_gamma = derive(gamma, max_degree=10)
    for deg in (2, 4, 6, 8, 10):
        cert = query(d_gamma, gamma, "LargeHb", deg)
        assert cert is not None
        if deg >= 4:
            assert cert.rule == "R12"
    # (iii) Thompson product: large in 2..8 via R16/R17.
    tl = direct_product(
        atom(presentation(["p", "q"]), facts=(("ThompsonT", None),)),
        hyperbolic_manifold_atom(3),
    )
    d_tl = derive(tl, max_degree=8)
    for n in range(2, 9):
        cert = query(d_tl, tl, "LargeHb", n)
        assert cert is not None and cert.rule == "R17"
        assert any(prem.rule == "R16" for prem in cert.premises)
    # (iv) zero contradictions across the fixture corpus.
    src = free_source()
    corpus = [
        mu,
        gamma,
        tl,
        gamma_w(src, parse_word("a b")).expr,
        gamma_w(src, Word()).expr,
        pi_w(src, parse_word("a"), 5).expr,
        witness_w(f2_atom(), src, parse_word("b")).expr,
    ]
    for expr in corpus:
        assert check_consistency(derive(expr)) == []
    # (v) adversarial atom flagged.
    bad = atom(presentation(["a"]), facts=(("Amenable", None), ("ContainsF2", None)))
    flagged = check_consistency(derive(bad))
    assert any("Amenable vs ContainsF2" in msg for _, msg in flagged)
    elapsed = time.time() - started
    assert elapsed < 10.0
    _report(7, "inference regression: mu facts, Meier even degrees via R12, "
               "Thompson product via R16/R17, zero corpus contradictions, "
               "adversarial atom flagged", started)


def test_criterion_8_snf_oracle_equivalence():
    started = time.time()
    rng = random.Random(888)
    for _ in range(500):
        rows = rng.randint(1, 4)
        cols = rng.randint(1, 4)
        m = IntegerMatrix(
            rows, cols, [[rng.randint(-5, 5) for _ in range(cols)] for _ in range(rows)]
        )
        res = smith_normal_form(m)
        assert res.U @ m @ res.V == res.D
        assert res.invariant_factors == gcd_of_minors_factors(m)
    elapsed = time.time() - started
    assert elapsed < 30.0
    _report(8, "SNF invariant factors match the gcd-of-minors oracle on 500 "
               "random matrices; U*A*V = D exactly", started)
