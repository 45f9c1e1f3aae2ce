import copy
import pickle
import random

import pytest
from hypothesis import given, settings, strategies as st

from gpforge import combinators, meier, words
from gpforge.errors import AlphabetMismatchError, InvalidInputError, ParseError
from gpforge.presentations import presentation, tietze_simplify
from gpforge.rewriting import britton_push, britton_word, bs_system
from gpforge.words import (
    Alphabet,
    GeneratorSymbol,
    Word,
    commutator,
    cyclically_reduce,
    format_word,
    parse_word,
    substitute,
    word,
)
from tests_util import normalising_parse_word

A = GeneratorSymbol("a")
B = GeneratorSymbol("b")
T = GeneratorSymbol("t")


def oracle_stack_reduce(letters):
    """Independent +-1-letter stack reduction, then run-length regrouping."""
    flat = []
    for sym, exp in letters:
        step = 1 if exp > 0 else -1
        flat.extend([(sym, step)] * abs(exp))
    stack = []
    for sym, eps in flat:
        if stack and stack[-1][0] == sym and stack[-1][1] == -eps:
            stack.pop()
        else:
            stack.append((sym, eps))
    grouped = []
    for sym, eps in stack:
        if grouped and grouped[-1][0] == sym:
            grouped[-1][1] += eps
        else:
            grouped.append([sym, eps])
    return tuple((s, e) for s, e in grouped)


def random_letters(rng, symbols, max_len=12, max_exp=3):
    n = rng.randint(0, max_len)
    return [
        (rng.choice(symbols), rng.choice([e for e in range(-max_exp, max_exp + 1) if e]))
        for _ in range(n)
    ]


def test_free_reduce_cancellation_pair():
    assert word("a", (A, -1), "b") == word("b")


def test_free_reduce_empty():
    assert Word(Word().letters) == Word()


def test_free_reduce_cascade_to_empty():
    assert word((A, 2), (A, -3), (A, 1)) == Word()


def test_free_reduce_matches_stack_oracle_on_random_words():
    rng = random.Random(42)
    symbols = [A, B, T]
    for _ in range(10_000):
        letters = random_letters(rng, symbols)
        assert Word(letters).letters == oracle_stack_reduce(letters)


def test_free_reduce_idempotent_and_kills_inverses():
    rng = random.Random(7)
    symbols = [A, B]
    for _ in range(500):
        w = Word(random_letters(rng, symbols))
        assert Word(w.letters) == w
        assert w * ~w == Word()


def test_inverse_is_reversed_negated_runs_without_renormalising():
    rng = random.Random(11)
    symbols = [A, B]
    seen_not_cyclically_reduced = 0
    for _ in range(500):
        w = Word(random_letters(rng, symbols))
        if cyclically_reduce(w)[1]:
            seen_not_cyclically_reduced += 1
        inverse = ~w
        assert inverse == Word([(s, -e) for s, e in reversed(w.letters)])
        assert inverse.letters == Word(inverse.letters).letters
        assert ~inverse == w and hash(inverse) == hash(Word(inverse.letters))
    assert seen_not_cyclically_reduced > 50
    # a b a^-1: the inverse keeps the conjugating runs at both ends.
    assert ~word("a", "b", (A, -1)) == word("a", (B, -1), (A, -1))


def test_alphabet_mismatch():
    alphabet = Alphabet(["a", "b"])
    with pytest.raises(AlphabetMismatchError):
        alphabet.check_word(word("t"))


def test_cyclic_reduce_single_conjugation():
    core, conj = cyclically_reduce(word("a", "b", (A, -1)))
    assert core == word("b")
    assert conj == word("a")


def test_cyclic_reduce_commutator_already_reduced():
    w = commutator(word("a"), word("b"))
    core, conj = cyclically_reduce(w)
    assert core == w
    assert conj == Word()


def test_cyclic_reduce_partial_run():
    core, conj = cyclically_reduce(word("a", "b", "b", (A, -1)))
    assert core == word((B, 2))
    assert conj == word("a")


def oracle_min_rotation_length(w):
    flat = list(w.single_letters())
    best = len(flat)
    for r in range(max(1, len(flat))):
        rotated = flat[r:] + flat[:r]
        best = min(best, len(Word(rotated)))
    return best


def test_cyclic_reduce_properties_random():
    rng = random.Random(99)
    symbols = [A, B, T]
    for _ in range(400):
        w = Word(random_letters(rng, symbols, max_len=8, max_exp=2))
        core, conj = cyclically_reduce(w)
        assert conj * core * ~conj == w
        # Core is as short as the shortest rotation of the flattened word.
        assert len(core) == oracle_min_rotation_length(w)
        # The core is cyclically reduced: its own core is itself.
        core2, conj2 = cyclically_reduce(core)
        assert core2 == core and conj2 == Word()


def test_substitute_phi_image_before_rewriting():
    # [a, t^-1 a t] under a -> a^2, t -> t.
    c = commutator(word("a"), ~word("t") * word("a") * word("t"))
    image = substitute(c, {A: word((A, 2)), T: word("t")})
    assert image == parse_word("a^-2 t^-1 a^-2 t a^2 t^-1 a^2 t")


def test_substitute_second_phi_image():
    w = commutator(word("t"), ~word("a"))
    image = substitute(w, {A: word((A, 2)), T: word("t")})
    assert image == parse_word("t^-1 a^2 t a^-2")


def test_substitute_identity_map_is_free_reduce():
    rng = random.Random(3)
    identity = {s: word(s) for s in (A, B)}
    for _ in range(200):
        w = Word(random_letters(rng, [A, B]))
        assert substitute(w, identity) == Word(w.letters)


def test_substitute_distributes_over_concatenation():
    rng = random.Random(11)
    mapping = {A: word("b", "a"), B: word((A, -2)), T: Word()}
    for _ in range(300):
        u = Word(random_letters(rng, [A, B, T], max_len=6))
        v = Word(random_letters(rng, [A, B, T], max_len=6))
        assert substitute(u * v, mapping) == substitute(u, mapping) * substitute(v, mapping)


def test_substitute_missing_symbol():
    with pytest.raises(InvalidInputError):
        substitute(word("a", "t"), {A: word("a")})


def test_parse_format_round_trip():
    for text in ["1", "a", "t^-1 a^2 t a^-3", "x_1 y2^5 x_1^-1"]:
        w = parse_word(text)
        assert format_word(w) == text
        assert parse_word(format_word(w)) == w


def test_parse_word_rejects_bad_atoms():
    for bad in ["a^0", "a^+2", "2a", "a^", "a^1x", "_x"]:
        with pytest.raises(ParseError):
            parse_word(bad)


def test_parse_word_exponent_digit_limit():
    limit = words.EXPONENT_DIGIT_LIMIT
    for sign in ("", "-"):
        widest = f"b a^{sign}{'9' * limit}"
        assert format_word(parse_word(widest)) == widest
        with pytest.raises(ParseError, match=f"has {limit + 1} digits, more than {limit} .line 3, column 3"):
            parse_word(f"b a^{sign}1{'0' * limit}", line=3)
    # Sums of the widest literals still print.
    twice = parse_word(f"a^{'9' * limit} a^{'9' * limit}")
    assert format_word(twice) == f"a^{2 * int('9' * limit)}"


def test_parse_word_against_alphabet():
    alphabet = Alphabet(["a", "t"])
    w = parse_word("t^-1 a^2 t a^-3", alphabet)
    assert sum(e for s, e in w.letters if s == alphabet.symbol("a")) == -1
    with pytest.raises(AlphabetMismatchError):
        parse_word("b", alphabet)


def test_parse_word_makes_one_symbol_per_name():
    # Without an alphabet, repeated names share one symbol within a call,
    # and separate calls make separate (equal) symbols.
    w = parse_word("a b a^-2 b a")
    (a1, _), (b1, _), (a2, _), (b2, _), (a3, _) = w.letters
    assert a1 is a2 is a3 and b1 is b2 and a1 != b1
    assert parse_word("a").letters[0][0] is not a1 and parse_word("a").letters[0][0] == a1


def test_parse_word_error_columns_count_from_text_start():
    # Columns are 1-based offsets into the text as given, whitespace and
    # repeated atoms included; the first bad atom is reported.
    cases = [("a  b^0", 4), ("  a b 1x", 7), ("a a a\tb^-", 7), ("b^x a b^x", 1)]
    for text, column in cases:
        with pytest.raises(ParseError, match=f"line 5, column {column}\\)"):
            parse_word(text, line=5)


@pytest.mark.parametrize(
    "text, column",
    [("t^-1\x0ca^2\x1ft", 5), ("a\u2003b", 2), ("  a b\x0b", 6), ("\x1c", 1), ("a\x85", 2), ("1\u2028", 2)],
)
def test_parse_word_refuses_whitespace_outside_the_grammar(text, column):
    # Checked before the text is stripped, so a lone or trailing separator
    # is refused too, at its column in the text as given.
    with pytest.raises(ParseError) as err:
        parse_word(text, line=3)
    separator = text[column - 1]
    assert str(err.value) == f"separator {separator!r} is not a space, a tab or a line end (line 3, column {column})"


def test_parse_word_reads_lf_and_cr_as_blanks():
    assert parse_word("a\nb \r\n a^2\r") == parse_word("a b a^2")


_PARSE_ALPHABET = Alphabet(["a", "b", "t"])
_PARSE_ATOMS = ["a", "a^-1", "a^2", "a^-2", "b", "b^-1", "b^3", "t", "t^-1", "a^-" + "9" * words.EXPONENT_DIGIT_LIMIT]
_BAD_ATOMS = [
    "c", "x_1^-2",                       # names outside the alphabet
    "1", "a^0", "a^01", "a^", "a^+2", "2a", "_x", "a^b", "$",
    "b^1" + "0" * words.EXPONENT_DIGIT_LIMIT,
]


def _inverse_atom(atom):
    ident, _, exp = atom.partition("^")
    return f"{ident}^{exp[1:]}" if exp.startswith("-") else f"{ident}^-{exp or 1}"


@st.composite
def _word_texts(draw):
    atoms = draw(st.lists(st.sampled_from(_PARSE_ATOMS), max_size=12))
    # Put a drawn prefix and its inverse in front, so neighbours cancel.
    if atoms and draw(st.booleans()):
        i = draw(st.integers(1, len(atoms)))
        atoms = atoms[:i] + [_inverse_atom(t) for t in reversed(atoms[:i])] + atoms
    # Up to two bad atoms, each possibly repeated, anywhere in the text.
    for bad in draw(st.lists(st.sampled_from(_BAD_ATOMS), max_size=2)):
        for _ in range(draw(st.integers(1, 2))):
            atoms.insert(draw(st.integers(0, len(atoms))), bad)
    if not atoms:
        return draw(st.sampled_from(["", " ", "1", " 1 "]))
    seps = draw(st.lists(st.sampled_from([" ", "  ", "\t", " \n "]), min_size=len(atoms) + 1, max_size=len(atoms) + 1))
    return seps[0] + "".join(atom + sep for atom, sep in zip(atoms, seps[1:]))


@settings(max_examples=400, deadline=None, database=None, derandomize=True)
@given(_word_texts(), st.booleans())
def test_parse_word_matches_normalising_oracle(text, with_alphabet):
    alphabet = _PARSE_ALPHABET if with_alphabet else None
    try:
        expected = normalising_parse_word(text, alphabet, line=2)
    except (ParseError, AlphabetMismatchError) as exc:
        with pytest.raises(type(exc)) as err:
            parse_word(text, alphabet, line=2)
        assert str(err.value) == str(exc)
        return
    assert parse_word(text, alphabet, line=2).letters == expected.letters


def test_word_power_and_exponent_sums():
    w = word("a", "b")
    assert w ** 3 == parse_word("a b a b a b")
    assert w ** -1 == parse_word("b^-1 a^-1")
    assert (word((A, 2)) ** (10 ** 9)).letters == (((A, 2 * 10 ** 9)),)
    for text in ("a b a^-1", "a^2 b^-1 a^3", "b^-1 a b^2"):
        v = parse_word(text)
        assert v ** 1 == v
        assert v ** -1 == ~v
    assert sum(e for s, e in word((A, 5), "b", (A, -2)).letters if s == A) == 3


def test_generator_symbol_name_pattern():
    with pytest.raises(ParseError):
        GeneratorSymbol("1abc")
    with pytest.raises(ParseError):
        GeneratorSymbol("a-b")
    GeneratorSymbol("A_9z")


def test_alphabet_duplicate_names_rejected():
    with pytest.raises(ParseError):
        Alphabet(["a", "a"])


def test_generator_symbol_semantics():
    a1, a2, b = GeneratorSymbol("a"), GeneratorSymbol("a"), GeneratorSymbol("b")
    assert a1 is not a2 and a1 == a2 and not a1 != a2
    assert hash(a1) == hash(a2) == hash(("a",))
    assert a1 != b and {a1: 1}[a2] == 1
    assert GeneratorSymbol("a") != "a" and "a" != GeneratorSymbol("a")
    assert a1.__eq__("a") is NotImplemented
    # A symbol is the 1-tuple (name,), so it equals that plain tuple; no
    # container in the package holds both.
    assert GeneratorSymbol("a") == ("a",) and hash(GeneratorSymbol("a")) == hash(("a",))
    assert a1.name == "a"
    with pytest.raises(AttributeError):
        a1.name = "b"
    with pytest.raises(AttributeError):
        a1.other = 1
    names = ["b", "A_9z", "a", "B", "a1"]
    assert [s.name for s in sorted(GeneratorSymbol(n) for n in names)] == sorted(names)
    assert a1 < b and not b < a1 and a1 <= a2
    with pytest.raises(TypeError):
        a1 < "b"
    assert repr(GeneratorSymbol("x_1")) == "GeneratorSymbol('x_1')"
    for bad in ("", "1a", "a b", "a^2"):
        with pytest.raises(ParseError):
            GeneratorSymbol(bad)


def test_copy_and_pickle_round_trip():
    p = presentation(["a", "b"], ["a b^2 a^-1 b^-3", "a^5"])
    for value in (GeneratorSymbol("a"), parse_word("a b^2"), Word(), p):
        for twin in (copy.copy(value), copy.deepcopy(value), pickle.loads(pickle.dumps(value))):
            assert twin == value and type(twin) is type(value) and hash(twin) == hash(value)


def test_public_constructors_reject_non_int_exponents():
    with pytest.raises(TypeError):
        Word([(A, 1.0)])
    with pytest.raises(TypeError):
        word(("a", 2.0))
    with pytest.raises(TypeError):
        word("a") ** 2.0
    with pytest.raises(TypeError):
        word("a", "b") ** 2.0


# Differential tests of the seam-merging operations against the
# independent +-1-letter stack reduction.


def assert_reduced(w):
    """Run-length invariant: int nonzero exponents, distinct adjacent symbols."""
    runs = w.letters
    assert isinstance(runs, tuple)
    for sym, exp in runs:
        assert isinstance(sym, GeneratorSymbol) and type(exp) is int and exp != 0
    for (s0, _), (s1, _) in zip(runs, runs[1:]):
        assert s0 != s1


def inverse_letters(letters):
    return [(s, -e) for s, e in reversed(letters)]


_WORDS = st.lists(
    st.tuples(st.sampled_from([A, B, T]), st.integers(-3, 3).filter(bool)), max_size=10
).map(Word)
_SETTINGS = settings(max_examples=200, deadline=None, database=None, derandomize=True)


@_SETTINGS
@given(_WORDS, _WORDS)
def test_product_matches_stack_oracle(u, v):
    for w in (u * v, u * ~u, u * v * ~v):
        assert_reduced(w)
    assert (u * v).letters == oracle_stack_reduce(u.letters + v.letters)
    assert not u * ~u
    assert u * v * ~v == u


def check_power(u, k):
    letters = list(u.letters) * k if k >= 0 else inverse_letters(u.letters) * -k
    assert_reduced(u ** k)
    assert (u ** k).letters == oracle_stack_reduce(letters)


@pytest.mark.parametrize("text", ["a b a^-1", "a^2 b a^-1 b^-1 a^-2", "a b a", "a^3", "b a^-2 t a^2 b^-1"])
@pytest.mark.parametrize("k", range(-4, 5))
def test_power_of_conjugates_matches_stack_oracle(text, k):
    check_power(parse_word(text), k)


@_SETTINGS
@given(_WORDS, st.integers(-4, 4))
def test_power_matches_stack_oracle(u, k):
    check_power(u, k)


# Images: empty, single-run and multi-run words.
_IMAGES = st.one_of(
    st.just(Word()),
    st.tuples(st.sampled_from([A, B, T]), st.integers(-3, 3).filter(bool)).map(lambda run: Word([run])),
    _WORDS,
)


@_SETTINGS
@given(_WORDS, st.fixed_dictionaries({A: _IMAGES, B: _IMAGES, T: _IMAGES}))
def test_substitute_matches_stack_oracle(w, mapping):
    letters = []
    for sym, exp in w.letters:
        image = list(mapping[sym].letters)
        letters += image * exp if exp > 0 else inverse_letters(image) * -exp
    image = substitute(w, mapping)
    assert_reduced(image)
    assert image.letters == oracle_stack_reduce(letters)


@_SETTINGS
@given(_WORDS)
def test_cyclically_reduce_is_a_conjugation_onto_a_cyclic_core(w):
    core, conj = cyclically_reduce(w)
    assert_reduced(core)
    assert_reduced(conj)
    assert conj * core * ~conj == w
    spelled = list(conj.letters) + list(core.letters) + inverse_letters(conj.letters)
    assert w.letters == oracle_stack_reduce(spelled)
    if len(core.letters) >= 2:
        (s0, e0), (s1, e1) = core.letters[0], core.letters[-1]
        assert s0 != s1 or (e0 > 0) == (e1 > 0)


_BRITTON_SYSTEMS = [
    bs_system(2, 3),
    bs_system(1, -1),
    bs_system(2, 2),
]


@_SETTINGS
@given(
    st.sampled_from(range(len(_BRITTON_SYSTEMS))),
    st.lists(st.tuples(st.integers(0, 3), st.integers(-3, 3).filter(bool)), max_size=12),
)
def test_britton_word_after_pushes_is_reduced(index, pieces):
    # Pieces: a stable run t^k, or a base segment a^k or an edge power
    # a^(km) or a^(kn), so that pinches are common.
    system = _BRITTON_SYSTEMS[index]
    a, t = system.presentation.alphabet.symbols
    state = None
    for kind, k in pieces:
        if kind == 0:
            letters = [(t, k)]
        else:
            letters = [(a, k * (1, system.m, system.n)[kind - 1])]
        for sym, exp in letters:
            state = britton_push(system, state, sym, exp)
            spelled = britton_word(state)
            assert_reduced(spelled)
            assert spelled.letters == Word(spelled.letters).letters


def test_seam_merging_keeps_whole_word_normalisation_out_of_tietze_and_the_probe(monkeypatch):
    # Products, powers, substitution and Britton pushes join reduced runs
    # at the seam; a regression to renormalising whole words shows here as
    # tens of thousands of calls (41,604 and 17,393 before seam merging).
    stage = combinators.mu_stage(presentation(["g"]), 8).realized
    calls = [0]
    normalize = words._normalize

    def counted(letters):
        calls[0] += 1
        return normalize(letters)

    monkeypatch.setattr(words, "_normalize", counted)
    tietze_simplify(stage)
    assert calls[0] <= 100
    calls[0] = 0
    meier.double_coset_probe(8, 100000)
    assert calls[0] <= 2000
