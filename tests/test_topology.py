import json
import os
import random
import subprocess
import sys
from itertools import combinations

import pytest
from hypothesis import assume, given, settings, strategies as st

from gpforge.combinators import mu_stage, standard_mitosis
from gpforge import topology
from gpforge.errors import GpforgeError, InvalidComplexError, InvalidInputError, ParseError, SearchBudgetError
from gpforge.homology import (
    AbelianGroup,
    ChainComplexData,
    IntegerMatrix,
    abelianization,
    invariant_factors,
    smith_normal_form,
)
from gpforge.presentations import Presentation, parse, presentation
from gpforge.topology import (
    DeltaComplex,
    SimplicialComplex,
    _bfs_tree,
    barycentric_subdivide,
    delta_to_simplicial,
    edge_path_presentation,
    parse_simplicial,
    presentation_complex,
    serialize_simplicial,
    simplicial_chain_complex,
    simplicial_homology,
    triangulate,
)
from gpforge.words import Alphabet, Word
from tests_util import (
    complex_homology,
    cw_chain_complex,
    grammatical_texts,
    near_grammar_texts,
    sorted_simplicial_chain_complex,
    sparse_matrix,
)


TORUS = parse("gens a b\nrel a^-1 b^-1 a b")
BS23 = parse("gens a t\nrel t^-1 a^2 t = a^3")
RP2 = parse("gens a\nrel a^2")
GENUS2 = parse("gens a b c d\nrel a^-1 b^-1 a b c^-1 d^-1 c d")
KLEIN = parse("gens a b\nrel a b a^-1 b")


def test_circle_complex():
    dc = presentation_complex(presentation(["a"]))
    assert (dc.n_vertices, len(dc.edges), len(dc.triangles)) == (1, 1, 0)
    assert dc.euler_characteristic() == 0


def test_torus_complex_counts():
    dc = presentation_complex(TORUS)
    # 1 basepoint + 1 polygon center; 2 loops + 4 spokes; 4 triangles.
    assert (dc.n_vertices, len(dc.edges), len(dc.triangles)) == (2, 6, 4)
    assert dc.euler_characteristic() == 1 - 2 + 1


def test_rp2_complex():
    dc = presentation_complex(RP2)
    assert dc.euler_characteristic() == 1 - 1 + 1


def test_empty_relator_rejected():
    bad = Presentation(Alphabet(["a"]), (Word(),))
    with pytest.raises(InvalidInputError):
        presentation_complex(bad)


def test_subdivision_of_one_triangle():
    # A triangle with three distinct vertices: a disk.
    from gpforge.topology import DeltaComplex

    disk = DeltaComplex(
        3,
        ((0, 1), (1, 2), (0, 2)),
        (((0, 1, 2), ((0, 1), (1, 1), (2, 1))),),
    )
    sub = barycentric_subdivide(disk)
    assert (sub.n_vertices, len(sub.edges), len(sub.triangles)) == (7, 12, 6)
    assert sub.euler_characteristic() == 1


def test_subdivision_preserves_chi_and_multiplies_triangles_by_six():
    for p in (TORUS, BS23, RP2, GENUS2):
        dc = presentation_complex(p)
        sub1 = barycentric_subdivide(dc)
        sub2 = barycentric_subdivide(sub1)
        assert sub1.euler_characteristic() == dc.euler_characteristic()
        assert sub2.euler_characteristic() == dc.euler_characteristic()
        assert len(sub1.triangles) == 6 * len(dc.triangles)
        assert len(sub2.triangles) == 36 * len(dc.triangles)


def test_triangulate_point_and_circle():
    point = triangulate(presentation([]))
    assert point.n_vertices == 1 and point.facets == ()
    circle = triangulate(presentation(["a"]))
    assert circle.n_vertices == 4
    assert len(circle.edges()) == 4
    assert simplicial_homology(circle)[1] == AbelianGroup(1)


def test_first_subdivision_is_not_yet_simplicial_for_loops():
    dc = presentation_complex(presentation(["a"]))
    sub1 = barycentric_subdivide(dc)
    with pytest.raises(InvalidComplexError):
        delta_to_simplicial(sub1)  # parallel edges remain after one step


def test_triangulate_chi_formula_and_h1():
    fixtures = [
        (BS23, AbelianGroup(1)),
        (TORUS, AbelianGroup(2)),
        (standard_mitosis(presentation(["g"])).realized, AbelianGroup(2)),
        (GENUS2, AbelianGroup(4)),
        (RP2, AbelianGroup(0, (2,))),
    ]
    for p, expected in fixtures:
        sc = triangulate(p)
        assert sc.euler_characteristic() == 1 - len(p.alphabet) + len(p.relators)
        h0, h1, h2 = simplicial_homology(sc)
        assert h0 == AbelianGroup(1)
        assert h1 == expected
        assert h1 == abelianization(p)


def test_triangulate_refuses_a_subdivision_that_loses_a_triangle(monkeypatch):
    # Converting a complex keeps its cells, so only the presentation
    # complex's Euler characteristic can catch a lossy subdivision.
    subdivide = topology.barycentric_subdivide

    def lossy(c):
        out = subdivide(c)
        return DeltaComplex(out.n_vertices, out.edges, out.triangles[:-1])

    monkeypatch.setattr(topology, "barycentric_subdivide", lossy)
    with pytest.raises(InvalidComplexError, match="^subdivision changed the Euler characteristic$"):
        triangulate(TORUS)


def test_triangulate_refuses_a_disconnected_subdivision(monkeypatch):
    # A disjoint 3-cycle (three vertices, three edges) keeps the Euler
    # characteristic, so only the connectivity check can catch it.
    subdivide = topology.barycentric_subdivide
    calls = []

    def with_a_stray_cycle(c):
        out = subdivide(c)
        calls.append(c)
        if len(calls) == 1:
            return out
        n = out.n_vertices
        cycle = ((n, n + 1), (n + 1, n + 2), (n, n + 2))
        return DeltaComplex(n + 3, out.edges + cycle, out.triangles)

    monkeypatch.setattr(topology, "barycentric_subdivide", with_a_stray_cycle)
    with pytest.raises(InvalidComplexError, match="^triangulation is not connected$"):
        triangulate(TORUS)


def test_homology_workload_reproduces_the_committed_digests():
    # The benchmark's homology pass triangulates 101 presentations and
    # checks each output digest against bench/expected/homology.json.
    root = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
    argv = [sys.executable, "bench/one_pass.py", "--workload", "homology", "--seed", "1", "--trace", "0"]
    proc = subprocess.run(argv, cwd=root, capture_output=True, text=True, timeout=300)
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.splitlines()[-1])
    assert result["attempted"] > 0 and result["failures"] == []


def test_torus_h2_is_z():
    assert simplicial_homology(triangulate(TORUS))[2] == AbelianGroup(1)


@pytest.mark.parametrize("p, h1", [(RP2, AbelianGroup(0, (2,))), (KLEIN, AbelianGroup(1, (2,)))])
def test_nonorientable_surfaces(p, h1):
    # The Z/2 comes from d2 rows whose pair closes a cycle as +-2.
    assert simplicial_homology(triangulate(p)) == (AbelianGroup(1), h1, AbelianGroup(0))


@settings(max_examples=60, deadline=None, database=None, derandomize=True)
@given(st.randoms(use_true_random=False))
def test_triangulated_homology_matches_cellular(rng):
    from tests_util import random_presentation

    p = random_presentation(rng, max_gens=3, max_rels=3, max_len=5)
    assert simplicial_homology(triangulate(p)) == complex_homology(cw_chain_complex(p))


def test_cell_budget_is_checked_before_building(monkeypatch):
    monkeypatch.setattr(topology, "CELL_BUDGET", 6)
    assert len(presentation_complex(parse("gens a b\nrel a^2 b^-1\nrel a^-1 b^-2")).triangles) == 6
    # Cyclic reduction comes first: b a^5 b^-1 bounds five triangles.
    assert len(presentation_complex(parse("gens a b\nrel b a^5 b^-1\nrel a")).triangles) == 6
    with pytest.raises(SearchBudgetError, match="7 triangles, more than 6"):
        presentation_complex(parse("gens a\nrel a^7"))
    with pytest.raises(SearchBudgetError):
        triangulate(parse("gens a b\nrel a^3 b^-4"))


def test_facets_sorted_and_bit_identical_across_runs():
    first = serialize_simplicial(triangulate(BS23))
    second = serialize_simplicial(triangulate(BS23))
    assert first == second
    lines = first.splitlines()
    assert lines[0].startswith("vertices ")
    simplex_lines = lines[1:]
    keys = [tuple(int(x) for x in ln.split()[1:]) for ln in simplex_lines]
    assert keys == sorted(keys)


def test_serialize_parse_round_trip():
    sc = triangulate(TORUS)
    again = parse_simplicial(serialize_simplicial(sc))
    assert again == sc


@pytest.mark.parametrize(
    "text, line",
    [
        ("vertices x\n", 1),
        ("vertices 3\nsimplex 0 z\n", 2),
        ("# header\nvertices\n", 2),
        # Past int()'s 4,300-digit limit.
        pytest.param("vertices 1" + "0" * 5000 + "\n", 1, id="5001-digit-count"),
        pytest.param("vertices 3\nsimplex 0 1 " + "2" * 5000 + "\n", 2, id="5000-digit-vertex"),
        ("vertices 3\nsimplex 0\n", 2),
        # Vertex counts and numbers are ASCII digits only.
        ("vertices \u0663\n", 1),
        ("vertices 3\nsimplex 0 \u0662\n", 2),
        ("vertices 4\n# four\nsimplex 0 1 2 3\n", 3),
    ],
)
def test_parse_simplicial_malformed_lines_raise_parse_error(text, line):
    with pytest.raises(ParseError) as info:
        parse_simplicial(text)
    assert info.value.line == line


@pytest.mark.parametrize(
    "text, line",
    [
        pytest.param("vertices 3\nsimplex 0\u20031 2\n", 2, id="em-space"),  # str.split() read a triangle
        pytest.param("vertices 3\x1esimplex 0 1\n", 1, id="record-separator"),
        pytest.param("vertices 3\r\nsimplex 0 1\x0b\n", 2, id="vertical-tab"),
    ],
)
def test_sc_reader_refuses_separators_outside_its_grammar(text, line):
    with pytest.raises(ParseError, match="is not a space, a tab or a line end") as info:
        parse_simplicial(text)
    assert info.value.line == line
    assert parse_simplicial("# \u2003\rvertices 3\r\nsimplex 0\t1 2\r") == SimplicialComplex(3, ((0, 1, 2),))


def test_parse_simplicial_names_a_vertex_past_a_lowered_digit_limit():
    if not hasattr(sys, "set_int_max_str_digits"):
        pytest.skip("int() has no digit limit on this Python")
    limit = sys.get_int_max_str_digits()
    sys.set_int_max_str_digits(640)
    try:
        with pytest.raises(ParseError, match="integer of 1000 digits is too long") as info:
            parse_simplicial("vertices 3\nsimplex 0 1 " + "2" * 1000 + "\n")
    finally:
        sys.set_int_max_str_digits(limit)
    assert info.value.line == 2


_VERTEX = st.one_of(
    st.sampled_from(["0", "1", "2", "3", "4", "10"]),
    st.sampled_from(["-1", "+2", "1_0", "\u0663", "2.0", "x", "#"]),
    st.sampled_from(["9" * 4300, "9" * 4301, "1" + "0" * 5000]),
    st.text(max_size=3),
)
# Directives; small, negative, signed, non-ASCII and huge vertex numbers;
# well-formed lines are listed twice, so that some texts are read.
_SC_LINES = [
    (st.just("vertices"), st.lists(st.sampled_from(["5", "11"]), min_size=1, max_size=1)),
    (st.just("vertices"), st.lists(_VERTEX, min_size=1, max_size=2)),
    (st.just("simplex"), st.lists(st.integers(0, 10).map(str), min_size=2, max_size=3)),
    (st.just("simplex"), st.lists(st.integers(0, 10).map(str), min_size=2, max_size=3)),
    (st.just("simplex"), st.lists(_VERTEX, min_size=2, max_size=3)),
    (st.just("simplex"), st.lists(_VERTEX, max_size=4)),
    (st.sampled_from(["#", "#x", ""]), st.lists(_VERTEX, max_size=3)),
    (st.sampled_from(["simplices", "vertex"]) | st.text(max_size=3), st.lists(_VERTEX, max_size=3)),
]


@st.composite
def _sc_lines(draw):
    """The lines of a readable `.sc` text: one vertices line, distinct
    simplices of ascending vertices below its count, and comments."""
    n = draw(st.integers(2, 11))
    facet = st.lists(st.integers(0, n - 1), min_size=2, max_size=3, unique=True).map(sorted)
    lines = [("simplex", list(map(str, f))) for f in draw(st.lists(facet, unique_by=tuple, max_size=5))]
    lines += draw(st.lists(st.sampled_from([("#", []), ("#x", ["simplex", "9"]), ("", [])]), max_size=2))
    return lines + [("vertices", [str(n)])]


@settings(max_examples=400, deadline=None, database=None, derandomize=True)
@given(near_grammar_texts(_SC_LINES) | grammatical_texts(_sc_lines()))
def test_any_sc_text_is_read_or_refused(text):
    try:
        sc = parse_simplicial(text)
    except GpforgeError:
        return
    assert parse_simplicial(serialize_simplicial(sc)) == sc


def test_edge_path_circle():
    circle = triangulate(presentation(["a"]))
    ep = edge_path_presentation(circle)
    assert len(ep.alphabet) == 1
    assert ep.relators == ()


def test_edge_path_tetrahedron_boundary_is_simply_connected():
    sphere = SimplicialComplex(4, ((0, 1, 2), (0, 1, 3), (0, 2, 3), (1, 2, 3)))
    ep = edge_path_presentation(sphere)
    assert abelianization(ep) == AbelianGroup(0)


def test_an_edge_facet_on_a_triangle_is_refused():
    with pytest.raises(InvalidComplexError, match="^an edge facet is a side of a triangle facet$"):
        parse_simplicial("vertices 3\nsimplex 0 1\nsimplex 0 1 2")
    with pytest.raises(InvalidComplexError, match="^an edge facet is a side of a triangle facet$"):
        SimplicialComplex(4, ((1, 2, 3), (0, 1), (2, 3)))
    assert SimplicialComplex(4, ((1, 2, 3), (0, 1))).edges() == [(0, 1), (1, 2), (1, 3), (2, 3)]


def test_edge_path_disconnected_rejected():
    two_points = SimplicialComplex(3, ((0, 1),))
    with pytest.raises(InvalidComplexError):
        edge_path_presentation(two_points)


def test_edge_path_recovers_abelianization_on_random_presentations():
    rng = random.Random(404)
    from tests_util import random_presentation

    for _ in range(100):
        p = random_presentation(rng, max_gens=3, max_rels=3, max_len=6)
        if any(not r for r in p.relators):
            continue
        sc = triangulate(p)
        ep = edge_path_presentation(sc)
        assert abelianization(ep) == abelianization(p)


def test_cw_chain_complex_matches_presentation_homology():
    h0, h1, h2 = complex_homology(cw_chain_complex(TORUS))
    assert (h0, h1, h2) == (AbelianGroup(1), AbelianGroup(2), AbelianGroup(1))
    h = complex_homology(cw_chain_complex(presentation(["a"])))
    assert h == (AbelianGroup(1), AbelianGroup(1), AbelianGroup(0))
    hp = complex_homology(cw_chain_complex(presentation([])))
    assert hp == (AbelianGroup(1), AbelianGroup(0), AbelianGroup(0))


def test_simplicial_complex_invariants():
    arity, order = "facets must be edges or triangles", "facet indices must be ascending and distinct"
    out_of_range, duplicate = "facet vertex out of range", "duplicate facet"
    cases = [
        (3, ((0,),), arity),
        (4, ((0, 1, 2, 3),), arity),
        (3, ((0, 1), (0, 1, 2, 3)), arity),
        (3, ((2, 0, 1),), order),
        (3, ((1, 0),), order),
        (3, ((0, 0, 1),), order),
        (3, ((1, 1),), order),
        (2, ((9, 5),), order),  # order is judged before range
        (2, ((-1, 0),), out_of_range),
        (2, ((0, 1, 5),), out_of_range),
        (2, ((0, 2),), out_of_range),
        (2, ((0, 1), (0, 1)), duplicate),
        (3, ((0, 1, 2), (1, 2), (0, 1, 2)), duplicate),
    ]
    for n_vertices, facets, message in cases:
        with pytest.raises(InvalidComplexError, match=f"^{message}$"):
            SimplicialComplex(n_vertices, facets)


def test_delta_complex_refuses_inconsistent_cells():
    edges = ((0, 1), (1, 2), (0, 2))
    cases = [
        (((0, 3),), (), "edge endpoint out of range"),
        (edges, (((0, 1, 2), ((0, 1), (1, 1), (3, 1))),), "triangle side out of range"),
        (edges, (((0, 1, 2), ((0, 1), (1, 0), (2, 1))),), "orientation must be \\+1 or -1"),
        (edges, (((0, 1, 2), ((0, -1), (1, 1), (2, 1))),), "triangle face maps are inconsistent"),
    ]
    for edge_list, triangles, message in cases:
        with pytest.raises(InvalidComplexError, match=f"^{message}$"):
            DeltaComplex(3, edge_list, triangles)


def test_delta_to_simplicial_rejects_non_simplicial_complexes():
    with pytest.raises(InvalidComplexError, match="^loop edge: complex is not simplicial$"):
        delta_to_simplicial(DeltaComplex(1, ((0, 0),), ()))
    with pytest.raises(InvalidComplexError, match="^parallel edges: complex is not simplicial$"):
        delta_to_simplicial(DeltaComplex(2, ((0, 1), (1, 0)), ()))
    triangle = ((0, 1, 2), ((0, 1), (1, 1), (2, 1)))
    turned = ((1, 0, 2), ((0, -1), (2, 1), (1, 1)))  # the same vertex set, corners unsorted
    for second in (triangle, turned):
        with pytest.raises(InvalidComplexError, match="^repeated 2-simplex vertex set$"):
            delta_to_simplicial(DeltaComplex(3, ((0, 1), (1, 2), (0, 2)), (triangle, second)))


@st.composite
def signed_presentations(draw):
    """Presentations with inverse letters (sides of orientation -1), proper
    powers and up to three relators, none of them freely trivial."""
    alphabet = Alphabet([f"g{i}" for i in range(draw(st.integers(1, 3)))])
    letter = st.tuples(st.sampled_from(alphabet.symbols), st.sampled_from((-2, -1, 1, 2)))
    relators = []
    for _ in range(draw(st.integers(1, 3))):
        rel = Word(draw(st.lists(letter, min_size=1, max_size=3))) ** draw(st.integers(1, 3))
        assume(rel)
        relators.append(rel)
    return Presentation(alphabet, tuple(relators))


def _outcome(f, *args):
    try:
        return f(*args)
    except InvalidComplexError as exc:
        return str(exc)


@settings(max_examples=60, deadline=None, database=None, derandomize=True)
@given(signed_presentations())
def test_triangulation_matches_the_per_flag_oracle(p):
    from tests_util import (
        per_flag_barycentric_subdivide,
        rebuilding_edge_path_presentation,
        resorting_delta_to_simplicial,
        resorting_spanning_tree,
        update_edges,
    )

    dc = presentation_complex(p)
    for _ in range(2):
        sub = barycentric_subdivide(dc)
        assert sub == per_flag_barycentric_subdivide(dc)
        # Once not simplicial (parallel halves of the loops), twice simplicial.
        assert _outcome(delta_to_simplicial, sub) == _outcome(resorting_delta_to_simplicial, sub)
        dc = sub
    sc = triangulate(p)
    assert serialize_simplicial(sc) == serialize_simplicial(resorting_delta_to_simplicial(dc))
    assert sc.edges() == update_edges(sc)
    assert _bfs_tree(sc.n_vertices, sc.edges()) == resorting_spanning_tree(sc)
    assert edge_path_presentation(sc) == rebuilding_edge_path_presentation(sc)


def test_cw_hurewicz_h1_on_all_fixtures():
    fixtures = [BS23, TORUS, RP2, GENUS2,
                standard_mitosis(presentation(["g"])).realized,
                mu_stage(presentation(["g"]), 2).realized]
    for p in fixtures:
        h1 = complex_homology(cw_chain_complex(p))[1]
        assert h1 == abelianization(p)


def _densify(m):
    dense = IntegerMatrix(m.rows, m.cols)
    for i, row in enumerate(m.entries):
        for j, v in row.items():
            dense.entries[i][j] = v
    return dense


def test_sparse_boundary_invariant_factors_match_dense_snf():
    rng = random.Random(2003)
    from tests_util import random_presentation

    for _ in range(6):
        p = random_presentation(rng, max_gens=2, max_rels=2, max_len=2)
        c = simplicial_chain_complex(triangulate(p))
        for boundary in (c.d1, c.d2):
            expected = smith_normal_form(_densify(boundary)).invariant_factors
            assert tuple(f for f in invariant_factors(boundary.entries) if f) == expected


def test_check_composition_sums_terms_before_judging():
    d1 = sparse_matrix(1, 2, [{0: 1, 1: 1}])
    two_terms = ChainComplexData(d1, sparse_matrix(2, 1, [{0: 1}, {0: 1}]))
    with pytest.raises(InvalidComplexError):
        two_terms.check_composition()
    cancelling = ChainComplexData(d1, sparse_matrix(2, 1, [{0: 1}, {0: -1}]))
    cancelling.check_composition()
    assert complex_homology(cancelling) == (AbelianGroup(0), AbelianGroup(0), AbelianGroup(0))


@st.composite
def simplicial_complexes(draw):
    """Complexes built directly, facets in any order: up to 9 vertices, so
    isolated vertices and several components are common; bare edge
    facets, each dropped if it is a side of a drawn triangle, as facets are
    maximal; and edges in three or more triangles."""
    n = draw(st.integers(1, 9))
    triangles = list(combinations(range(n), 3))
    edges = list(combinations(range(n), 2))
    facets = draw(st.lists(st.sampled_from(triangles), unique=True, max_size=14)) if triangles else []
    sides = {side for facet in facets for side in combinations(facet, 2)}
    bare = draw(st.lists(st.sampled_from(edges), unique=True, max_size=6)) if edges else []
    facets += [edge for edge in bare if edge not in sides]
    return SimplicialComplex(n, tuple(draw(st.permutations(facets))))


def _homology_oracle(x):
    return complex_homology(sorted_simplicial_chain_complex(x))


@settings(max_examples=300, deadline=None, database=None, derandomize=True)
@given(simplicial_complexes())
def test_simplicial_homology_matches_the_sorted_oracle(x):
    assert simplicial_homology(x) == _homology_oracle(x)


# The six-vertex RP^2 (the hemi-icosahedron).
RP2_6 = SimplicialComplex(
    6,
    ((0, 1, 2), (0, 2, 3), (0, 3, 4), (0, 4, 5), (0, 1, 5), (1, 2, 4), (2, 3, 5), (1, 3, 5), (1, 3, 4), (2, 4, 5)),
)


Z = AbelianGroup(1)


@pytest.mark.parametrize(
    "x, expected",
    [
        pytest.param(
            SimplicialComplex(7, ((0, 1, 2), (0, 1, 3), (0, 1, 4), (1, 2, 3), (5, 6))),
            (AbelianGroup(2), AbelianGroup(0), AbelianGroup(0)),
            id="book-and-edge",
        ),
        pytest.param(
            SimplicialComplex(8, ((0, 1), (1, 2), (0, 2), (3, 4, 5), (3, 4, 6), (3, 5, 6), (4, 5, 6))),
            (AbelianGroup(3), Z, Z),
            id="circle-sphere-point",
        ),
        pytest.param(SimplicialComplex(4, ()), (AbelianGroup(4), AbelianGroup(0), AbelianGroup(0)), id="four-points"),
        pytest.param(RP2_6, (Z, AbelianGroup(0, (2,)), AbelianGroup(0)), id="rp2-6"),
        pytest.param(triangulate(RP2), (Z, AbelianGroup(0, (2,)), AbelianGroup(0)), id="rp2"),
        pytest.param(triangulate(KLEIN), (Z, AbelianGroup(1, (2,)), AbelianGroup(0)), id="klein"),
        pytest.param(triangulate(mu_stage(presentation(["g"]), 2).realized), (Z, Z, AbelianGroup(12)), id="mu2"),
    ],
)
def test_simplicial_homology_of_built_complexes(x, expected):
    assert simplicial_homology(x) == _homology_oracle(x) == expected


def test_check_composition_runs_on_the_matrices_read(monkeypatch):
    calls = []
    check, columns, factors = ChainComplexData.check_composition, topology._incidence_columns, topology.invariant_factors

    def spy_check(self):
        calls.append(("check", self))
        return check(self)

    def spy_columns(d1):
        calls.append(("d1", d1))
        return columns(d1)

    def spy_factors(rows):
        calls.append(("factors", rows))
        return factors(rows)

    monkeypatch.setattr(ChainComplexData, "check_composition", spy_check)
    monkeypatch.setattr(topology, "_incidence_columns", spy_columns)
    monkeypatch.setattr(topology, "invariant_factors", spy_factors)
    for x in (triangulate(TORUS), triangulate(RP2), RP2_6, SimplicialComplex(3, ((0, 1),))):
        del calls[:]
        simplicial_homology(x)
        assert [kind for kind, _ in calls] == ["check", "d1", "factors"]
        c = calls[0][1]
        assert calls[1][1] is c.d1 and calls[2][1] is c.d2.entries
        assert (c.n0, c.n1, c.n2) == (x.n_vertices, len(x.edges()), len(x.two_simplices()))


def test_mu3_triangulated_homology():
    p = mu_stage(presentation(["g"]), 3).realized
    h0, h1, h2 = simplicial_homology(triangulate(p))
    assert h0 == AbelianGroup(1)
    assert h1 == abelianization(p)
    assert h0.rank - h1.rank + h2.rank == 1 - len(p.alphabet) + len(p.relators)
