import itertools
import random
import time
from collections import deque

import pytest
from hypothesis import example, given, settings, strategies as st

from gpforge.combinators import standard_mitosis
from gpforge.errors import AlphabetMismatchError, InvalidInputError, ParseError, SearchBudgetError
from gpforge.presentations import EMPTY_PRESENTATION, parse, presentation, serialize
from gpforge.rewriting import (
    SEGMENT_BIT_BUDGET,
    HnnRewriteSystem,
    Homomorphism,
    TrivialityCertificate,
    _homomorphisms,
    _vanish,
    britton_is_stable_power,
    britton_normal_form,
    britton_push,
    britton_word,
    bs_canonical,
    bs_canonical_pass,
    bs_equal,
    bs_reduce,
    bs_system,
    finite_quotient_search,
    is_pinch_free,
    parse_bs,
    permutation_cycles,
)
from gpforge.words import GeneratorSymbol, Word, commutator, format_word, parse_word, word
from tests_util import (
    cyclic_vanish,
    normalising_bs_canonical_pass,
    parse_cycles,
    random_presentation,
    random_word,
    rewriting_is_pinch_free,
    scan_certificate,
    scan_homomorphisms,
    stack_britton_normal_form,
    whole_permutation_homomorphisms,
)

A = GeneratorSymbol("a")
T = GeneratorSymbol("t")


def test_britton_rewrites_defining_relation():
    assert bs_reduce(2, 3, parse_word("t^-1 a^2 t")) == parse_word("a^3")
    assert bs_reduce(2, 3, parse_word("t a^3 t^-1")) == parse_word("a^2")


def test_britton_commutator_is_pinch_free_hence_nontrivial():
    c = commutator(word("a"), ~word("t") * word("a") * word("t"))
    nf = bs_reduce(2, 3, c)
    assert nf == c  # no pinch applies: a is in neither <a^2> nor <a^3>
    assert nf  # nonempty pinch-free => nontrivial
    assert is_pinch_free(bs_system(2, 3), nf)


def test_britton_empty_word():
    assert bs_reduce(2, 3, Word()) == Word()


def oracle_bfs_rewrite_to_identity(start: str, max_depth: int) -> bool:
    """Independent string rewriting: apply t^-1 a^2 t = a^3 (both signs,
    both directions) anywhere plus free cancellation; BFS to the empty
    string."""
    rules = [("Taat", "aaa"), ("aaa", "Taat"), ("TAAt", "AAA"), ("AAA", "TAAt")]
    inverse = {"a": "A", "A": "a", "t": "T", "T": "t"}

    def cancel(s: str) -> str:
        out = []
        for ch in s:
            if out and out[-1] == inverse[ch]:
                out.pop()
            else:
                out.append(ch)
        return "".join(out)

    seen = {cancel(start)}
    frontier = deque([(cancel(start), 0)])
    while frontier:
        s, depth = frontier.popleft()
        if s == "":
            return True
        if depth == max_depth or len(s) > 24:
            continue
        for lhs, rhs in rules:
            i = s.find(lhs)
            while i != -1:
                nxt = cancel(s[:i] + rhs + s[i + len(lhs):])
                if nxt not in seen:
                    seen.add(nxt)
                    frontier.append((nxt, depth + 1))
                i = s.find(lhs, i + 1)
    return False


def test_phi_relator_obligation_matches_bfs_oracle():
    w = parse_word("t^-1 a^4 t a^-6")
    assert bs_reduce(2, 3, w) == Word()
    assert oracle_bfs_rewrite_to_identity("TaaaatAAAAAA", max_depth=4)


def test_pinch_free_words_stay_put():
    assert bs_reduce(2, 3, parse_word("t^-1 a t")) == parse_word("t^-1 a t")
    assert bs_reduce(2, 3, parse_word("a^2 a^-2")) == Word()


def test_britton_rejects_foreign_symbols_and_bad_edges():
    with pytest.raises(AlphabetMismatchError):
        bs_reduce(2, 3, parse_word("b"))
    with pytest.raises(InvalidInputError):
        bs_system(0, 3)
    with pytest.raises(InvalidInputError):
        HnnRewriteSystem(2, 0)


def test_bs_system_owns_its_presentation_and_text():
    sys23 = bs_system(2, 3)
    assert sys23 is bs_system(2, 3)
    assert sys23.presentation == parse("gens a t\nrel t^-1 a^2 t = a^3")
    assert sys23.presentation.name == "BS(2,3)"
    assert parse_bs("2,3") is sys23 and parse_bs("-1,4") is bs_system(-1, 4)
    # The relator is built from the integers, signs included.
    assert serialize(bs_system(-2, 3).presentation) == "gens a t\nrel t^-1 a^-2 t a^-3"
    assert serialize(bs_system(3, -2).presentation) == "gens a t\nrel t^-1 a^3 t a^2"
    assert bs_system(-2, 3).presentation.name == "BS(-2,3)" == bs_system(-2, 3).name
    assert parse_bs("1,-1") is bs_system(1, -1)
    # Only the grammar's integers: no other digits, separators, signs or blanks.
    for text in ("0,3", "2,0", "2", "x,3", "2,3,4", "", "2.5,3", "\u0662,3", "1_0,3", "+2,3", " 2 , 3 ", "02,3"):
        with pytest.raises(ParseError):
            parse_bs(text)


def test_nested_pinches_resolve():
    # t^-2 a^4 t^2 = t^-1 a^6 t = a^9.
    assert bs_reduce(2, 3, parse_word("t^-2 a^4 t^2")) == parse_word("a^9")


def random_bs_word(rng, max_len=8):
    letters = [
        (rng.choice([A, T]), rng.choice([-1, 1])) for _ in range(rng.randint(0, max_len))
    ]
    return Word(letters)


def test_bs_equality_is_an_equivalence_on_random_words():
    rng = random.Random(515)
    words = [random_bs_word(rng) for _ in range(60)]
    for w in words:
        assert bs_equal(2, 3, w, w)
    pairs = [(rng.choice(words), rng.choice(words)) for _ in range(1000)]
    for u, v in pairs:
        assert bs_equal(2, 3, u, v) == bs_equal(2, 3, v, u)
    # Transitivity on sampled triples where the first two relations hold.
    for u in words[:20]:
        for v in words[:20]:
            if not bs_equal(2, 3, u, v):
                continue
            for x in words[:20]:
                if bs_equal(2, 3, v, x):
                    assert bs_equal(2, 3, u, x)


def test_britton_output_is_always_pinch_free():
    rng = random.Random(77)
    sys23 = bs_system(2, 3)
    for _ in range(300):
        nf = britton_normal_form(sys23, random_bs_word(rng, max_len=10))
        assert is_pinch_free(sys23, nf)


def test_stable_letter_runs_rewrite_whole():
    huge = 10**11
    sys23 = bs_system(2, 3)
    assert bs_reduce(2, 3, parse_word(f"t^{huge}")) == parse_word(f"t^{huge}")
    # A pinch consumes one letter of each run; runs that meet across an
    # emptied segment cancel in bulk.
    assert bs_reduce(2, 3, parse_word(f"t^{huge} a^3 t^-1 a^-2 t^-{huge}")) == parse_word("t^-1")
    assert bs_reduce(2, 3, parse_word(f"t^{huge} a^3 t^-1 a^-2 t^-{huge - 3} a")) == parse_word("t^2 a")
    assert bs_reduce(2, 3, parse_word(f"t^{huge} a^3 t^-1 a t^-{huge}")) == parse_word(f"t^{huge - 2} a^2 t^-{huge - 1}")
    assert bs_reduce(2, 3, parse_word(f"t^-{huge} a^4 t^2 a")) == parse_word(f"t^-{huge - 2} a^10")
    assert bs_canonical(2, 3, parse_word(f"t^{huge}")) == parse_word(f"t^{huge}")
    assert bs_canonical(2, 3, parse_word(f"a t^{huge}")) == parse_word(f"a t^{huge}")
    assert is_pinch_free(sys23, parse_word(f"t^{huge} a t^-{huge}"))
    # With |m| = |n| a run pinches whole; one longer than t^k keeps the rest.
    assert bs_reduce(3, -3, parse_word(f"t^-{huge + 1} a^3 t^{huge - 1}")) == parse_word("t^-2 a^-3")
    assert bs_reduce(2, 2, parse_word(f"t^{huge} a^2 t^-{huge - 1}")) == parse_word("t a^2")


@pytest.mark.parametrize("m, n, segment, expected", [
    (2, 2, "a^4", "a^4"),
    (2, -2, "a^2", "a^-2"),
])
def test_run_pinches_whole_when_edges_agree(m, n, segment, expected):
    # n = +-m: the segment left by each pinch pinches again, so the whole
    # run goes at once (an odd run inverts the segment when n = -m).
    k = 10**11 + 1
    system = bs_system(m, n)
    assert britton_normal_form(system, parse_word(f"t^-{k} {segment} t^{k}")) == parse_word(expected)
    assert britton_normal_form(system, parse_word(f"t^{k} {segment} t^-{k}")) == parse_word(expected)


def test_segment_budget_boundary():
    # In BS(1, 2), t^-k a t^k = a^(2^k), and 2^k has k + 1 bits.
    k = SEGMENT_BIT_BUDGET - 1
    assert bs_reduce(1, 2, Word(((T, -k), (A, 1), (T, k)))) == Word(((A, 2**k),))
    with pytest.raises(SearchBudgetError, match=f"past {SEGMENT_BIT_BUDGET} bits"):
        bs_reduce(1, 2, Word(((T, -(k + 1)), (A, 1), (T, k + 1))))
    with pytest.raises(SearchBudgetError):
        bs_reduce(2, 4, Word(((T, -10**11), (A, 2), (T, 10**11))))
    # Only growth is refused: a segment past the budget may still shrink.
    huge = 2 ** (SEGMENT_BIT_BUDGET + 2)
    assert bs_reduce(2, 1, Word(((T, -2), (A, huge), (T, 2)))) == Word(((A, huge // 4),))
    with pytest.raises(SearchBudgetError):
        bs_reduce(1, 2, Word(((T, -1), (A, huge), (T, 1))))


def test_canonical_pass_segment_budget():
    # In BS(1, 2), a t^k = t^k a^(2^k): each carry doubles the segment.
    k = SEGMENT_BIT_BUDGET - 1
    form = bs_canonical(1, 2, Word(((A, 1), (T, k))))
    assert form == Word(((T, k), (A, 2**k)))
    assert format_word(form).endswith(f"a^{2**k}")
    with pytest.raises(SearchBudgetError, match=f"past {SEGMENT_BIT_BUDGET} bits"):
        bs_canonical(1, 2, parse_word("a t^40000"))
    with pytest.raises(SearchBudgetError):
        bs_canonical_pass(1, 2, Word(((A, 1), (T, k + 1))))
    # Only growth is refused: a carry past the budget may still shrink.
    huge = 2 ** (SEGMENT_BIT_BUDGET + 2)
    assert bs_canonical_pass(4, 1, Word(((A, huge), (T, 1)))) == Word(((T, 1), (A, huge // 4)))


CANONICAL_PAIRS = [(2, 3), (3, 2), (1, -1), (-2, 3), (1, 2), (2, -4)]


def equal_by_relator_insertion(rng, m, n, w, times=3):
    """w with conjugates g r^+-1 g^-1 of the relator r = t^-1 a^m t a^-n
    inserted at random run boundaries: the same element of BS(m, n)."""
    relator = parse_word(f"t^-1 a^{m} t a^{-n}")
    for _ in range(times):
        cut = rng.randint(0, len(w.letters))
        g = random_bs_word(rng, 4)
        w = Word(w.letters[:cut]) * g * relator ** rng.choice([-1, 1]) * ~g * Word(w.letters[cut:])
    return w


@pytest.mark.parametrize("m,n", CANONICAL_PAIRS)
def test_bs_canonical_decides_equality(m, n):
    rng = random.Random(100 * m + n)
    words = [random_bs_word(rng, 8) for _ in range(40)]
    for u in words:
        cu = bs_canonical(m, n, u)
        assert bs_equal(m, n, cu, u) and bs_canonical(m, n, cu) == cu
        v = equal_by_relator_insertion(rng, m, n, u)
        assert bs_equal(m, n, u, v) and bs_canonical(m, n, v) == cu
        for x in words[:15]:
            assert (bs_canonical(m, n, x) == cu) == bs_equal(m, n, x, u)


def test_bs_canonical_is_unique_where_britton_is_not():
    u, v = parse_word("a^2 t"), parse_word("t a^3")
    assert bs_reduce(2, 3, u) != bs_reduce(2, 3, v) and bs_equal(2, 3, u, v)
    assert bs_canonical(2, 3, u) == bs_canonical(2, 3, v) == v
    # Coset representatives: 0 <= r < |m| before t, 0 <= r < |n| before t^-1.
    assert bs_canonical(2, 3, parse_word("a^-1 t")) == parse_word("a t a^-3")
    assert bs_canonical(2, 3, parse_word("a^4 t^-1 a")) == parse_word("a t^-1 a^3")
    assert bs_canonical(2, 3, parse_word("a^3 t^2")) == parse_word("a t a t a^3")
    assert bs_canonical(-2, 3, parse_word("a^-1 t")) == parse_word("a t a^3")


# BS(m, n) with m = +-n (whole-run pinches) and the usual ones.
DIFFERENTIAL_SYSTEMS = [
    bs_system(2, 3),
    bs_system(1, 1),
    bs_system(1, -1),
    bs_system(2, 2),
    bs_system(3, -3),
    bs_system(3, 2),
    bs_system(2, -4),
]


def _pinchy_word(system, pieces):
    """A word from (kind, k) pieces: a stable run t^k, a letter a^k, a
    power of either edge word a^m or a^n, or the defining relator r^+-1
    conjugated by the piece before it, so that pinches are common and
    segments left by a pinch often cancel."""
    t = word(T)
    relator = system.presentation.relators[0]
    out = prev = Word()
    for kind, k in pieces:
        if kind == 4:
            out = out * prev * relator ** (1 if k > 0 else -1) * ~prev
            continue
        if kind == 0:
            prev = t ** k
        else:
            prev = word((A, k * (1, system.m, system.n)[kind - 1]))
        out = out * prev
    return out


_PIECES = st.lists(
    st.tuples(st.integers(0, 4), st.integers(-3, 3).filter(bool)), max_size=14
)


@settings(max_examples=600, deadline=None, database=None, derandomize=True)
@given(st.sampled_from(range(len(DIFFERENTIAL_SYSTEMS))), _PIECES)
def test_britton_fold_matches_stack_rewriter(index, pieces):
    system = DIFFERENTIAL_SYSTEMS[index]
    w = _pinchy_word(system, pieces)
    nf = stack_britton_normal_form(system, w)
    assert britton_normal_form(system, w) == nf
    state = None
    for sym, exp in w.letters:
        state = britton_push(system, state, sym, exp)
    stable_power = len(nf.letters) <= 1 and all(sym == T for sym, _ in nf.letters)
    assert britton_is_stable_power(state) == stable_power


def _outcome(f, *args):
    try:
        return f(*args)
    except (AlphabetMismatchError, SearchBudgetError) as exc:
        return type(exc), str(exc)


# DIFFERENTIAL_SYSTEMS and three more, with negative parameters.
_PINCH_SYSTEMS = DIFFERENTIAL_SYSTEMS + [bs_system(-2, 3), bs_system(1, 2), bs_system(-3, -5)]


@settings(max_examples=600, deadline=None, database=None, derandomize=True)
@given(st.sampled_from(range(len(_PINCH_SYSTEMS))), _PIECES, st.sampled_from(["word", "britton", "foreign"]))
def test_pinch_scan_matches_rewriting_oracle(index, pieces, form):
    system = _PINCH_SYSTEMS[index]
    w = _pinchy_word(system, pieces)
    if form == "britton":
        w = britton_normal_form(system, w)
    elif form == "foreign":
        w = w * word("b") * w
    assert _outcome(is_pinch_free, system, w) == _outcome(rewriting_is_pinch_free, system, w)


def test_pinch_scan_answers_past_the_segment_budget():
    w = parse_word("t^-20000 a t^20000")
    with pytest.raises(SearchBudgetError):
        rewriting_is_pinch_free(bs_system(1, 2), w)
    assert not is_pinch_free(bs_system(1, 2), w)
    assert is_pinch_free(bs_system(2, 3), w)


def test_pushes_leave_the_shared_state_unchanged():
    for system in DIFFERENTIAL_SYSTEMS:
        t = T
        u = word((A, system.m))
        # t^-2 u: pushing t pinches through the top two nodes of the parent.
        prefix = ~word(t) * ~word(t) * u
        parent = None
        for sym, exp in prefix.letters:
            parent = britton_push(system, parent, sym, exp)
        before = britton_word(parent)
        snapshot = parent
        letters = [(t, 1), (t, -1), (t, 3), (A, 1), (A, -2)]
        for sym, exp in letters:
            child = britton_push(system, parent, sym, exp)
            assert britton_word(child) == britton_normal_form(system, prefix * word((sym, exp)))
            assert parent is snapshot and britton_word(parent) == before
        assert before == britton_normal_form(system, prefix)


@pytest.mark.parametrize("m,n", CANONICAL_PAIRS)
def test_canonical_pass_accepts_any_pinch_free_form(m, n):
    # Pushing letters that cancel only after a pinch (t^-1 a^m, then t,
    # then t^-1) leaves another pinch-free form than the reduced word's;
    # the canonical pass maps both to one normal form.
    system = bs_system(m, n)
    rng = random.Random(31 * m + n)
    for _ in range(60):
        letters = [(rng.choice([A, T]), rng.choice([-1, 1])) for _ in range(rng.randint(0, 10))]
        letters[rng.randint(0, len(letters)):0] = [(T, -1), (A, m), (T, 1), (T, -1)]
        state = None
        for sym, exp in letters:
            state = britton_push(system, state, sym, exp)
        nf = britton_word(state)
        assert is_pinch_free(system, nf)
        assert bs_canonical_pass(m, n, nf) == bs_canonical(m, n, Word(letters))


# The (m, n) of the benchmark's normalize jobs; the strategy flips signs.
_BENCH_PAIRS = [(1, 2), (2, 3), (3, 2), (2, 4), (3, 5), (1, -1)]


@st.composite
def _canonical_pass_inputs(draw):
    m, n = draw(st.sampled_from(_BENCH_PAIRS))
    sm, sn = draw(st.sampled_from([(1, 1), (-1, 1), (1, -1), (-1, -1)]))
    runs = st.tuples(st.sampled_from([A, T]), st.integers(-4, 4).filter(bool))
    return m * sm, n * sn, Word(draw(st.lists(runs, max_size=10)))


# A carry doubles per t in BS(1, 2) and BS(2, 4), so the first two t-runs
# reach the carry budget; in BS(-3, 5) a^5 is carried unchanged through a
# run of the same length.  Drawn words stay short: a t-run that long costs
# about 0.1 s a pass.
@settings(max_examples=400, deadline=None, database=None, derandomize=True)
@given(_canonical_pass_inputs())
@example((1, 2, Word(((A, 1), (T, SEGMENT_BIT_BUDGET)))))
@example((2, -4, Word(((A, 3), (T, SEGMENT_BIT_BUDGET + 1)))))
@example((-3, 5, Word(((A, 5), (T, SEGMENT_BIT_BUDGET)))))
def test_canonical_pass_matches_normalising_oracle(case):
    # Any word, pinch-free or not, and its Britton form.
    m, n, w = case
    for nf in (w, bs_reduce(m, n, w)):
        try:
            expected = normalising_bs_canonical_pass(m, n, nf)
        except SearchBudgetError as exc:
            with pytest.raises(SearchBudgetError) as err:
                bs_canonical_pass(m, n, nf)
            assert str(err.value) == str(exc)
            continue
        assert bs_canonical_pass(m, n, nf).letters == expected.letters


def test_free_triviality():
    assert not parse_word("a b b^-1 a^-1")
    assert commutator(word("a"), word("b"))
    rng = random.Random(1)
    for _ in range(200):
        w = random_bs_word(rng)
        assert not w * ~w


def test_finite_quotient_search_cyclic_group():
    p = presentation(["g"], ["g^3"])
    cert = finite_quotient_search(p, 5, target=parse_word("g", p.alphabet))
    assert cert is not None and cert.hom.degree == 3
    g = p.alphabet.symbol("g")
    assert permutation_cycles(cert.hom.images[g]) == "(1 2 3)"
    assert cert.revalidate()


def test_finite_quotient_search_bs23_needs_degree_5():
    bs = parse("gens a t\nrel t^-1 a^2 t = a^3")
    target = parse_word("a", bs.alphabet)
    assert finite_quotient_search(bs, 4, target=target) is None
    cert = finite_quotient_search(bs, 5, target=target)
    assert cert is not None and cert.hom.degree == 5
    a, t = bs.alphabet.symbol("a"), bs.alphabet.symbol("t")
    assert permutation_cycles(cert.hom.images[a]) == "(1 2 3 4 5)"
    assert permutation_cycles(cert.hom.images[t]) == "(2 5)(3 4)"
    assert cert.revalidate()


def test_finite_quotient_search_trivial_presentation():
    p = presentation(["g"], ["g"])
    assert finite_quotient_search(p, 5, target=parse_word("g", p.alphabet)) is None


def test_finite_quotient_search_collects_all_homs():
    p = presentation(["g"], ["g^2"])
    homs = finite_quotient_search(p, 3)
    # Degree 1: identity; degree 2: id and the transposition; degree 3:
    # id plus the three transpositions.
    assert [h.degree for h in homs] == [1, 2, 2, 3, 3, 3, 3]
    ident3 = tuple(range(3))
    for h in homs:
        rel = p.relators[0]
        assert h.evaluate(rel) == tuple(range(h.degree))
    # No generators: the empty homomorphism, once per degree.
    assert [(h.degree, h.images) for h in finite_quotient_search(EMPTY_PRESENTATION, 3)] == [(1, {}), (2, {}), (3, {})]
    assert finite_quotient_search(EMPTY_PRESENTATION, 3, target=Word()) is None


def test_freely_trivial_target_has_no_certificate():
    abc = parse("gens a b c")
    assert finite_quotient_search(abc, 6, target=parse_word("a a^-1", abc.alphabet)) is None


def test_target_outside_the_alphabet_is_refused():
    with pytest.raises(AlphabetMismatchError, match="'b' not in alphabet"):
        finite_quotient_search(presentation(["a"], ["a^2"]), 3, target=parse_word("b"))


def test_finite_quotient_degree_cap():
    for degree in (7, 0, -1):
        with pytest.raises(ValueError):
            finite_quotient_search(presentation(["g"]), degree)


def _assert_search_matches_oracle(p, degree, target):
    oracle = list(whole_permutation_homomorphisms(p, degree))
    homs = finite_quotient_search(p, degree)
    assert [(h.degree, h.images) for h in homs] == [(h.degree, h.images) for h in oracle]
    assert [list(h.images) for h in homs] == [list(p.alphabet.symbols)] * len(homs)
    first = next((h for h in oracle if h.evaluate(target) != tuple(range(h.degree))), None)
    cert = finite_quotient_search(p, degree, target=target)
    if first is None:
        assert cert is None
    else:
        assert (cert.hom.degree, cert.hom.images) == (first.degree, first.images)
        assert cert.revalidate()


@settings(max_examples=40, deadline=None, database=None, derandomize=True)
@given(st.integers(0, 2**32))
def test_quotient_search_matches_whole_permutation_oracle(seed):
    rng = random.Random(seed)
    p = random_presentation(rng, max_gens=3)
    _assert_search_matches_oracle(p, 4, random_word(rng, p.alphabet, max_len=6))


@pytest.mark.parametrize(
    "p, target",
    [
        (EMPTY_PRESENTATION, "1"),
        # b occurs in no relator.
        (presentation(["a", "b", "c"], ["a^2 c^-1 a c"]), "b a b^-1 a^-1"),
        # Exponents far past and at multiples of lcm(1..degree) <= 60.
        (presentation(["g", "h"], ["g^100000000000 h^-100000000000", "g^60 h g^-120 h^-1"]), "g h"),
        (presentation(["g", "h"], ["g h^-7 g^-1 h^-1", "h^-100000000001"]), "h"),
        # The relators use only the later generators.
        (presentation(["a", "b", "c"], ["c^3", "b c b^-1 c"]), "a c"),
        # Scanned left to right, these relators give other homomorphisms.
        (presentation(["a", "b", "c"], ["a b^2 c"]), "a"),
        (standard_mitosis(presentation(["g"], ["g^2"])).realized, "s d"),
    ],
)
def test_quotient_search_matches_oracle_on_fixed_cases(p, target):
    _assert_search_matches_oracle(p, 4, parse_word(target, p.alphabet))


def test_quotient_search_is_fast_on_mitosis():
    # The whole-permutation search takes several seconds here.
    p = standard_mitosis(presentation(["g"], ["g^2"])).realized
    started = time.perf_counter()
    homs = finite_quotient_search(p, 5)
    assert time.perf_counter() - started < 1.5
    assert len(homs) == 17321


def test_quotient_search_budget(monkeypatch):
    p = parse("gens a b c\nrel a b a^-1 b^-1")
    target = parse_word("b a b^-1 a^-1", p.alphabet)
    monkeypatch.setattr("gpforge.rewriting.QUOTIENT_SEARCH_BUDGET", 1_000)
    assert finite_quotient_search(p, 3, target=target) is None
    with pytest.raises(SearchBudgetError, match="budget of 1000 image assignments at degree 4"):
        finite_quotient_search(p, 4, target=target)


def _run_to_budget(homs):
    """The (degree, images) pairs a search yields, and the message of the
    budget error it ends in, if any."""
    out = []
    try:
        for h in homs:
            out.append((h.degree, h.images))
    except SearchBudgetError as exc:
        return out, str(exc)
    return out, None


def _assert_kernel_matches_scan_oracle(p, target):
    listed, error = _run_to_budget(_homomorphisms(p, 5))
    assert (listed, error) == _run_to_budget(scan_homomorphisms(p, 5))
    moving, moving_error = _run_to_budget(_homomorphisms(p, 5, target))
    assert moving_error == error
    assert moving == [(d, images) for d, images in listed if Homomorphism(d, images).evaluate(target) != tuple(range(d))]
    if not target:
        assert finite_quotient_search(p, 5, target=target) is None
        return
    try:
        expected = scan_certificate(p, 5, target)
    except SearchBudgetError as exc:
        with pytest.raises(SearchBudgetError, match=str(exc)):
            finite_quotient_search(p, 5, target=target)
        return
    cert = finite_quotient_search(p, 5, target=target)
    if expected is None:
        assert cert is None
    else:
        assert (cert.hom.degree, cert.hom.images) == (expected.degree, expected.images)
        assert cert.revalidate()


# Exponents far past lcm(1..5) = 60, and multiples of it, which every
# permutation of degree <= 5 kills.
_KERNEL_EXPONENTS = (1, -1, 2, -3, 60, -120, 10**11, -(10**11), 10**11 + 1)


@settings(max_examples=40, deadline=None, database=None, derandomize=True)
@given(st.integers(0, 2**32))
def test_quotient_kernel_matches_scan_oracle_at_degree_5(seed):
    rng = random.Random(seed)
    n = rng.randint(1, 3)
    gens = [f"g{i}" for i in range(1, n + 1)]
    # Sometimes the last generator occurs in no relator.
    used = gens[:-1] if n > 1 and rng.random() < 0.5 else gens
    relators = [f"{g}^{rng.choice((2, 3, 4, 5))}" for g in used if rng.random() < 0.7]
    for _ in range(rng.randint(0, 2)):
        relators.append(" ".join(f"{rng.choice(used)}^{rng.choice((-2, -1, 1, 2))}" for _ in range(rng.randint(2, 6))))
    # Relators that vanish once a prefix of the generators is complete,
    # such as [x, y] once x is the identity: the kernel emits the free
    # generators after such a prefix whole.
    for _ in range(rng.randint(0, 2)):
        x, y = rng.choice(used), rng.choice(gens)
        relators.append(rng.choice((f"{x} {y} {x}^-1 {y}^-1", f"{x}^-1 {y} {x} {y}^-{rng.randint(1, 3)}")))
    p = presentation(gens, relators)
    target = parse_word(
        " ".join(f"{rng.choice(gens)}^{rng.choice(_KERNEL_EXPONENTS)}" for _ in range(rng.randint(0, 4))) or "1",
        p.alphabet,
    )
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr("gpforge.rewriting.QUOTIENT_SEARCH_BUDGET", 5_000)
        _assert_kernel_matches_scan_oracle(p, target)


@pytest.mark.parametrize("budget", [40_000, 52_000, 52_732, 52_733, 52_734])
def test_quotient_budget_counts_assignments_inside_a_free_tail(budget, monkeypatch):
    # In m(<g|g^3>) both relators that mention s and d vanish once g is the
    # identity, so s and d are free there: at degree 5 the kernel emits
    # those 120 x 120 homomorphisms whole.  The search makes 52,733 image
    # assignments in all, and the 40,000th falls inside that tail.
    p = standard_mitosis(presentation(["g"], ["g^3"])).realized
    monkeypatch.setattr("gpforge.rewriting.QUOTIENT_SEARCH_BUDGET", budget)
    _assert_kernel_matches_scan_oracle(p, parse_word("s", p.alphabet))


def _free_tail_case(rng):
    """A random input of `_vanish`: generators below k complete (each an
    identity half the time), generators from k on open, and 1-3 relators
    in acting order, each random, a conjugate u v u^-1, a palindrome
    u v reversed(u) or a u u^-1, and rotated half the time."""
    degree, n = rng.randint(1, 3), rng.randint(1, 4)
    k = rng.randint(0, n)
    ident = list(range(degree)) + [-1]
    perms = list(itertools.permutations(range(degree)))
    image, preimage = [], []
    for g in range(n):
        if g < k:
            perm = tuple(range(degree)) if rng.random() < 0.5 else rng.choice(perms)
            inverse = sorted(range(degree), key=perm.__getitem__)
            image.append(list(perm) + [-1])
            preimage.append(inverse + [-1])
        else:
            image.append([-1] * (degree + 1))
            preimage.append([-1] * (degree + 1))

    def letters(most):
        return [(rng.randrange(n), rng.choice((1, -1))) for _ in range(rng.randint(0, most))]

    relators = []
    for _ in range(rng.randint(1, 3)):
        u, v = letters(4), letters(3)
        acts = rng.choice(
            (
                letters(8),
                u + v + [(g, -sign) for g, sign in reversed(u)],
                u + v + u[::-1],
                u + [(g, -sign) for g, sign in reversed(u)],
            )
        )
        if rng.random() < 0.5:
            j = rng.randint(0, len(acts))
            acts = acts[j:] + acts[:j]
        relators.append(acts)
    return relators, k, image, preimage, ident


@settings(max_examples=200, deadline=None, database=None, derandomize=True)
@given(st.integers(0, 2**32))
def test_free_tail_test_matches_the_cyclic_reference(seed):
    # The stack pass leaves a reduced word of S_degree * F(open generators),
    # and a nonempty one is not cyclically trivial, so the cyclic pass the
    # reference adds never changes the answer.
    rng = random.Random(seed)
    answers = set()
    for _ in range(50):
        relators, k, image, preimage, ident = _free_tail_case(rng)
        expected = cyclic_vanish(relators, k, image, preimage, ident)
        assert _vanish(relators, k, image, preimage, ident) == expected
        answers.add(expected)
    assert answers == {True, False}


# In A5 = <a, b | a^2, b^3, (a b)^5>, which acts on no fewer than 5
# points, the first certificate for `a` sends it to (2 3)(4 5): it fixes
# point 0 and moves point 1.  c occurs in no relator.
_A5 = presentation(["a", "b", "c"], ["a^2", "b^3", "a b a b a b a b a b"])


@pytest.mark.parametrize("target", ["a", "b c^60", "c^-100000000000 a c^100000000000", "b^3 c^120"])
def test_quotient_kernel_matches_scan_oracle_on_a5(target):
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr("gpforge.rewriting.QUOTIENT_SEARCH_BUDGET", 20_000)
        _assert_kernel_matches_scan_oracle(_A5, parse_word(target, _A5.alphabet))


def test_first_a5_certificate_fixes_point_0():
    target = parse_word("a", _A5.alphabet)
    cert = finite_quotient_search(_A5, 5, target=target)
    assert cert.hom.degree == 5 and cert.hom.evaluate(target) == (0, 2, 1, 4, 3)


def test_target_mode_composes_no_permutations(monkeypatch):
    # The target is traced through the image arrays at each leaf; only the
    # independent check, revalidate, evaluates words.
    calls = []
    real = Homomorphism.evaluate
    monkeypatch.setattr(Homomorphism, "evaluate", lambda *args: calls.append(args) or real(*args))
    bs = parse("gens a t\nrel t^-1 a^2 t = a^3")
    cert = finite_quotient_search(bs, 5, target=parse_word("a", bs.alphabet))
    assert cert is not None and calls == []
    assert cert.revalidate() and calls


def test_quotient_separation_is_consistent_with_britton():
    bs = parse("gens a t\nrel t^-1 a^2 t = a^3")
    rng = random.Random(23)
    homs = finite_quotient_search(bs, 4)
    for _ in range(60):
        u, v = random_bs_word(rng, 6), random_bs_word(rng, 6)
        separated = any(h.evaluate(u) != h.evaluate(v) for h in homs)
        if separated:
            assert not bs_equal(2, 3, u, v)


def test_cycle_notation_round_trip():
    perm = (1, 0, 3, 2, 4)
    text = permutation_cycles(perm)
    assert text == "(1 2)(3 4)"
    assert parse_cycles(text, 5) == perm
    assert permutation_cycles(tuple(range(4))) == "()"
    assert parse_cycles("()", 4) == tuple(range(4))


def test_only_finite_quotient_certificates_revalidate():
    p = presentation(["g"], ["g^3"])
    cert = finite_quotient_search(p, 3, target=parse_word("g", p.alphabet))
    assert cert.kind == "FiniteQuotient" and cert.revalidate()
    for kind in ("BrittonNormalForm", "FreeReduction", "TietzeCollapse", "Unknown"):
        assert not TrivialityCertificate(kind, cert.presentation, cert.target, cert.hom).revalidate()
    # In <a, x | x> the target a x a^-1 is 1.  A map that is no
    # homomorphism into S_2 (a -> (0, 0)), that leaves a generator of the
    # presentation or a symbol of the target unmapped, or whose valid
    # permutations leave the relator nontrivial (x -> (1 2)), certifies
    # nothing and must not raise.
    q = presentation(["a", "x"], ["x"])
    a, x = q.alphabet.symbols
    target = parse_word("a x a^-1", q.alphabet)
    for images in (
        {a: (0, 0), x: (0, 1)},
        {a: (1, 0, 2), x: (0, 1)},
        {a: (1, 2), x: (0, 1)},
        {a: [1, 0], x: (0, 1)},
        {x: (0, 1)},
        {a: (1, 0)},
        {a: (0, 1), x: (1, 0)},
    ):
        forged = TrivialityCertificate("FiniteQuotient", q, target, Homomorphism(2, images))
        assert forged.revalidate() is False
    foreign = parse_word("b")
    forged = TrivialityCertificate("FiniteQuotient", q, foreign, Homomorphism(2, {a: (0, 1), x: (0, 1)}))
    assert forged.revalidate() is False
    # Genuine certificates still revalidate, with images built elsewhere.
    honest = Homomorphism(2, {a: parse_cycles("(1 2)", 2), x: parse_cycles("()", 2)})
    assert TrivialityCertificate("FiniteQuotient", q, parse_word("a", q.alphabet), honest).revalidate()
    # The relator is 1 in BS(2,3): no kind may certify it nontrivial.
    bs = bs_system(2, 3).presentation
    assert finite_quotient_search(bs, 5, target=parse_word("t^-1 a^2 t a^-3", bs.alphabet)) is None


def test_homomorphism_semantics():
    a, b = GeneratorSymbol("a"), GeneratorSymbol("b")
    hom = Homomorphism(degree=2, images={a: (1, 0), b: (0, 1)})
    assert hom == Homomorphism(2, {a: (1, 0), b: (0, 1)}) and hom != Homomorphism(2, {a: (0, 1), b: (0, 1)})
    assert (hom.degree, hom.images) == (2, {a: (1, 0), b: (0, 1)})
    assert repr(hom) == "Homomorphism(degree=2, images={GeneratorSymbol('a'): (1, 0), GeneratorSymbol('b'): (0, 1)})"
    assert hom.evaluate(parse_word("a b a")) == (0, 1)
    # A homomorphism is the 2-tuple (degree, images), so it equals that
    # plain tuple; no container in the package holds both.
    assert hom == (2, {a: (1, 0), b: (0, 1)})
    with pytest.raises(AttributeError):
        hom.degree = 3
    with pytest.raises(AttributeError):
        hom.other = 1


def test_britton_equality_agrees_with_affine_representation():
    """Independent one-sided oracle: BS(2,3) maps onto a subgroup of the
    affine group of the rationals by a -> x+1 and t -> (2/3)x (the defining
    relation holds there).  The representation is not faithful, but
    whenever two affine images differ the group elements differ, so any
    Britton-certified equality must agree."""
    from fractions import Fraction

    def affine(w):
        # Compose left-to-right with the rightmost letter applied first,
        # matching the permutation-evaluation convention.
        slope, offset = Fraction(1), Fraction(0)
        for sym, exp in w.letters:
            if sym.name == "a":
                s2, o2 = Fraction(1), Fraction(exp)
            else:
                s2, o2 = Fraction(2, 3) ** exp, Fraction(0)
            # current := current  after  (s2, o2): x -> current(s2 x + o2)
            slope, offset = slope * s2, slope * o2 + offset
        return slope, offset

    relator = parse_word("t^-1 a^2 t a^-3")
    assert affine(relator) == (Fraction(1), Fraction(0))

    rng = random.Random(2718)
    words = [random_bs_word(rng, 8) for _ in range(80)]
    for u in words:
        for v in words[:20]:
            if bs_equal(2, 3, u, v):
                assert affine(u) == affine(v)
            elif affine(u) == affine(v):
                # The representation may collapse distinct elements (it
                # kills the commutator witness); no assertion either way.
                pass
