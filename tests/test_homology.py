import random
import time
import tracemalloc

import pytest
from hypothesis import given, settings, strategies as st

from gpforge import homology
from gpforge.combinators import direct_product, mu_stage
from gpforge.errors import InvalidComplexError
from gpforge.homology import (
    AbelianGroup,
    ChainComplexData,
    IntegerMatrix,
    SparseMatrix,
    _merge_unit_pairs,
    abelianization,
    invariant_factors,
    relation_matrix,
    smith_normal_form,
)
from gpforge.presentations import parse, presentation
from gpforge.words import Alphabet
from tests_util import (
    complex_homology,
    cw_chain_complex,
    det,
    dict_merge_unit_pairs,
    gcd_of_minors_factors,
    separate_uv_smith_normal_form,
    sparse_matrix,
    transpose,
)


def check_snf(matrix):
    res = smith_normal_form(matrix)
    assert res.U @ matrix @ res.V == res.D
    assert det(res.U) in (1, -1)
    assert det(res.V) in (1, -1)
    d = res.invariant_factors
    for x, y in zip(d, d[1:]):
        assert y % x == 0
    return res


def test_snf_diag_2_3():
    res = check_snf(IntegerMatrix(2, 2, [[2, 0], [0, 3]]))
    assert res.invariant_factors == (1, 6)
    # gcd-of-minors oracle: d1 = gcd of entries = 1, d1*d2 = |det| = 6.
    assert gcd_of_minors_factors(IntegerMatrix(2, 2, [[2, 0], [0, 3]])) == (1, 6)


def test_snf_zero_matrix():
    res = check_snf(IntegerMatrix(2, 3))
    assert res.invariant_factors == ()
    assert res.D.entries == [[0, 0, 0], [0, 0, 0]]


def test_snf_negative_column():
    m = IntegerMatrix(2, 1, [[-1], [0]])
    res = check_snf(m)
    assert res.invariant_factors == (1,)
    assert gcd_of_minors_factors(m) == (1,)


def random_matrix(rng, max_dim=4, bound=5):
    rows = rng.randint(1, max_dim)
    cols = rng.randint(1, max_dim)
    return IntegerMatrix(
        rows, cols, [[rng.randint(-bound, bound) for _ in range(cols)] for _ in range(rows)]
    )


def test_snf_matches_gcd_of_minors_oracle():
    rng = random.Random(13)
    for _ in range(120):
        m = random_matrix(rng)
        res = check_snf(m)
        assert res.invariant_factors == gcd_of_minors_factors(m)


def test_sparse_invariant_factors_match_dense():
    rng = random.Random(31)
    for _ in range(120):
        m = random_matrix(rng)
        sparse = tuple(invariant_factors([{j: v for j, v in enumerate(row) if v} for row in m.entries]))
        dense = smith_normal_form(m).invariant_factors
        assert sparse == dense


@st.composite
def pair_rich_matrices(draw):
    """(columns, sparse rows), two thirds of the rows +-1 pairs.  With few
    columns many pairs close a cycle of earlier ones, so the pair merge
    sees rows that turn into 0 or +-2 as well as rows it merges."""
    n_cols = draw(st.integers(1, 6))
    col = st.integers(0, n_cols - 1)
    unit = st.sampled_from((1, -1))
    pair = st.tuples(col, col, unit, unit).filter(lambda t: t[0] != t[1]).map(lambda t: {t[0]: t[2], t[1]: t[3]})
    other = st.dictionaries(col, st.integers(-3, 3).filter(bool), max_size=n_cols)
    return n_cols, draw(st.lists(st.one_of(pair, pair, other), min_size=1, max_size=9))


@settings(max_examples=200, deadline=None, database=None, derandomize=True)
@given(pair_rich_matrices())
def test_pair_merge_matches_dense_snf_on_matrix_and_transpose(matrix):
    n_cols, rows = matrix
    dense = IntegerMatrix(len(rows), n_cols)
    for i, row in enumerate(rows):
        for j, v in row.items():
            dense.entries[i][j] = v
    expected = list(smith_normal_form(dense).invariant_factors)
    assert invariant_factors(rows) == expected
    columns = transpose(sparse_matrix(len(rows), n_cols, rows)).entries
    assert invariant_factors(columns) == expected


@st.composite
def pair_heavy_rows(draw):
    """Up to 80 rows over up to 40 columns, mostly +-1 pairs, so that
    classes grow deep and many pairs close a cycle, reading 0 or +-2;
    the columns carry arbitrary labels up to 10**15."""
    n_cols = draw(st.integers(2, 40))
    labels = draw(st.lists(st.integers(0, 10**15), min_size=n_cols, max_size=n_cols, unique=True))
    col = st.sampled_from(labels)
    unit = st.sampled_from((1, -1))
    pair = st.tuples(col, col, unit, unit).filter(lambda t: t[0] != t[1]).map(lambda t: {t[0]: t[2], t[1]: t[3]})
    other = st.dictionaries(col, st.integers(-3, 3).filter(bool), max_size=4)
    return draw(st.lists(st.one_of(pair, pair, pair, pair, other), max_size=80))


@settings(max_examples=150, deadline=None, database=None, derandomize=True)
@given(pair_heavy_rows())
def test_list_pair_merge_matches_the_dict_oracle(rows):
    assert _merge_unit_pairs(rows) == dict_merge_unit_pairs(rows)


def test_pair_merge_allocates_nothing_sized_by_a_column_key():
    big = 10**12
    rows = [{big: 1, 3: -1}, {big: 1, 7: 1}, {3: 2, 7: 3, big: 5}, {big + 1: 1, big: -1}, {3: 1, 7: 1}]
    columns = {big: 0, 3: 1, 7: 2, big + 1: 3}
    dense = IntegerMatrix(len(rows), len(columns))
    for i, row in enumerate(rows):
        for j, v in row.items():
            dense.entries[i][columns[j]] = v
    expected = list(smith_normal_form(dense).invariant_factors)
    tracemalloc.start()
    try:
        start = time.perf_counter()
        got = invariant_factors(rows)
        elapsed = time.perf_counter() - start
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert got == expected
    assert peak < 64 * 1024 and elapsed < 0.5


def test_pair_merge_cycles():
    # A pair that closes a cycle reads a + b on one class: 0 or +-2.
    assert invariant_factors([{0: 1, 1: 1}, {0: 1, 1: -1}]) == [1, 2]
    assert invariant_factors([{0: 1, 1: -1}, {1: -1, 0: 1}]) == [1]
    triangle = [{0: -1, 1: 1}, {1: -1, 2: 1}, {0: -1, 2: 1}]
    assert invariant_factors(triangle) == [1, 1]
    merges, residual = _merge_unit_pairs(triangle)
    assert merges == 2 and residual == []
    # A kept row is read through the merges made after it.
    merges, residual = _merge_unit_pairs([{0: 2, 1: 3}, {0: 1, 1: 1}])
    assert merges == 1 and residual in ([{1: 1}], [{0: -1}])


@pytest.mark.parametrize(
    "closing, kept",
    [
        ({0: 1, 1: 1}, 0),  # reads 0 on the class of column 1: dropped
        ({0: 1, 1: -1}, 2),  # reads +-2 (RP^2's Z/2): kept
    ],
)
def test_pair_merge_in_class_pair_before_its_root_moves(closing, kept):
    # Row 0 links column 0 under 1, row 1 column 2 under 3; row 2 closes
    # a cycle in {0, 1}, and row 3 then links root 1 under root 3.
    rows = [{0: 1, 1: 1}, {2: 1, 3: 1}, closing, {0: 1, 2: 1}]
    merges, residual = _merge_unit_pairs(rows)
    assert merges == 3
    assert [sorted(map(abs, row.values())) for row in residual] == ([[kept]] if kept else [])
    dense = IntegerMatrix(len(rows), 4)
    for i, row in enumerate(rows):
        for j, v in row.items():
            dense.entries[i][j] = v
    assert invariant_factors(rows) == list(smith_normal_form(dense).invariant_factors)
    assert invariant_factors(rows) == [1, 1, 1] + ([kept] if kept else [])


def test_abelianization_bs23_relation_matrix():
    bs = parse("gens a t\nrel t^-1 a^2 t = a^3")
    assert relation_matrix(bs).entries == [{0: -1}]
    assert abelianization(bs) == AbelianGroup(1)


def test_abelianization_fixtures():
    assert abelianization(parse("gens a b\nrel a b a^-1 b^-1")) == AbelianGroup(2)
    assert abelianization(parse("gens a\nrel a^2")) == AbelianGroup(0, (2,))
    assert abelianization(presentation([])) == AbelianGroup(0)
    mu2 = mu_stage(presentation(["g"]), 2)
    assert abelianization(mu2.realized) == AbelianGroup(1)


def test_abelianization_invariant_under_generator_permutation():
    rng = random.Random(5)
    from tests_util import random_presentation  # local helper below

    for _ in range(100):
        p = random_presentation(rng)
        perm = list(p.alphabet.symbols)
        rng.shuffle(perm)
        q = type(p)(Alphabet(perm), p.relators)
        assert abelianization(p) == abelianization(q)


def test_abelianization_additive_over_direct_products():
    rng = random.Random(17)
    from tests_util import random_presentation

    for _ in range(200):
        p = random_presentation(rng, max_gens=3, max_rels=3)
        q = random_presentation(rng, max_gens=3, max_rels=3)
        prod = direct_product(p, q).realized
        gp, gq, gprod = abelianization(p), abelianization(q), abelianization(prod)
        assert gprod.rank == gp.rank + gq.rank
        # Torsion subgroup orders multiply (invariant-factor chains may merge).
        import math

        assert math.prod(gprod.torsion) == math.prod(gp.torsion) * math.prod(gq.torsion)


def test_complex_homology_torus_cw():
    d1 = SparseMatrix(1, 2)
    d2 = SparseMatrix(2, 1)
    h0, h1, h2 = complex_homology(ChainComplexData(d1, d2))
    assert (h0, h1, h2) == (AbelianGroup(1), AbelianGroup(2), AbelianGroup(1))


def test_complex_homology_circle_and_point():
    circle = ChainComplexData(SparseMatrix(1, 1), SparseMatrix(1, 0))
    assert complex_homology(circle) == (AbelianGroup(1), AbelianGroup(1), AbelianGroup(0))
    point = ChainComplexData(SparseMatrix(1, 0), SparseMatrix(0, 0))
    assert complex_homology(point) == (AbelianGroup(1), AbelianGroup(0), AbelianGroup(0))


def test_complex_homology_rejects_bad_composition():
    d1 = sparse_matrix(1, 2, [{0: 1}])
    d2 = sparse_matrix(2, 1, [{0: 1}, {}])
    with pytest.raises(InvalidComplexError):
        complex_homology(ChainComplexData(d1, d2))


def test_divisibility_chain_validation():
    with pytest.raises(ValueError):
        AbelianGroup(0, (4, 2))


def test_snf_stress_larger_matrices():
    rng = random.Random(271828)
    for _ in range(20):
        rows = rng.randint(3, 6)
        cols = rng.randint(3, 6)
        m = IntegerMatrix(
            rows, cols, [[rng.randint(-50, 50) for _ in range(cols)] for _ in range(rows)]
        )
        res = check_snf(m)
        assert res.invariant_factors == gcd_of_minors_factors(m)
        rows = [{j: v for j, v in enumerate(row) if v} for row in m.entries]
        assert list(res.invariant_factors) == invariant_factors(rows)


@st.composite
def snf_matrices(draw):
    """(m, n, entries) up to 7x7 with entries up to +-50, 0xn and mx0
    included: plain, rank-deficient (rows from at most two basis rows),
    with zero rows, or with a common factor of all entries."""
    m, n = draw(st.integers(0, 7)), draw(st.integers(0, 7))
    kind = draw(st.sampled_from(("plain", "rank_deficient", "zero_rows", "common_factor")))

    def rows_of(entry, count):
        return draw(st.lists(st.lists(entry, min_size=n, max_size=n), min_size=count, max_size=count))

    if kind == "rank_deficient":
        basis = rows_of(st.integers(-7, 7), draw(st.integers(1, 2)))
        coeffs = st.lists(st.integers(-3, 3), min_size=len(basis), max_size=len(basis))
        entries = [
            [sum(c * b[j] for c, b in zip(cs, basis)) for j in range(n)]
            for cs in draw(st.lists(coeffs, min_size=m, max_size=m))
        ]
    elif kind == "common_factor":
        g = draw(st.integers(2, 7))
        entries = [[g * x for x in row] for row in rows_of(st.integers(-7, 7), m)]
    else:
        entries = rows_of(st.integers(-50, 50), m)
        if kind == "zero_rows" and m:
            for i in draw(st.sets(st.integers(0, m - 1), min_size=1)):
                entries[i] = [0] * n
    return m, n, entries


@settings(max_examples=400, deadline=None, database=None, derandomize=True)
@given(snf_matrices())
def test_snf_and_invariant_factors_match_the_separate_uv_oracle(matrix):
    m, n, entries = matrix
    a = IntegerMatrix(m, n, entries)
    got, want = smith_normal_form(a), separate_uv_smith_normal_form(a)
    assert a.entries == entries
    assert (got.D, got.U, got.V) == (want.D, want.U, want.V)
    rows = [{j: v for j, v in enumerate(row) if v} for row in entries]
    assert invariant_factors(rows) == list(want.invariant_factors)


def test_invariant_factors_never_call_smith_normal_form(monkeypatch):
    # Both inputs leave a block without unit entries for the dense phase.
    def refuse(a):
        raise AssertionError("the invariant-factor path called smith_normal_form")

    monkeypatch.setattr(homology, "smith_normal_form", refuse)
    assert abelianization(parse("gens a b\nrel a^2 b^4\nrel a^4 b^2")) == AbelianGroup(0, (2, 6))
    _, h1, _ = complex_homology(cw_chain_complex(presentation(["a"], ["a^2"])))
    assert h1 == AbelianGroup(0, (2,))
