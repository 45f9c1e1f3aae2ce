import random

import pytest

from gpforge.errors import AlphabetMismatchError, ParseError, PartialMapError
from gpforge.words import (
    Alphabet,
    GeneratorSymbol,
    Word,
    commutator,
    cyclically_reduce,
    format_word,
    identity_map,
    parse_word,
    substitute,
    word,
)

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
    alphabet = Alphabet([A, B])
    for _ in range(200):
        w = Word(random_letters(rng, [A, B]))
        assert substitute(w, identity_map(alphabet)) == Word(w.letters)


def test_substitute_distributes_over_concatenation():
    rng = random.Random(11)
    mapping = {A: word("b", "a"), B: word((A, -2)), T: Word()}
    for _ in range(300):
        u = Word(random_letters(rng, [A, B, T], max_len=6))
        v = Word(random_letters(rng, [A, B, T], max_len=6))
        assert substitute(u * v, mapping) == substitute(u, mapping) * substitute(v, mapping)


def test_substitute_missing_symbol():
    with pytest.raises(PartialMapError):
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


def test_parse_word_against_alphabet():
    alphabet = Alphabet(["a", "t"])
    assert parse_word("t^-1 a^2 t a^-3", alphabet).exponent_sum(alphabet.symbol("a")) == -1
    with pytest.raises(AlphabetMismatchError):
        parse_word("b", alphabet)


def test_word_power_and_exponent_sums():
    w = word("a", "b")
    assert w ** 3 == parse_word("a b a b a b")
    assert w ** -1 == parse_word("b^-1 a^-1")
    assert (word((A, 2)) ** (10 ** 9)).letters == (((A, 2 * 10 ** 9)),)
    for text in ("a b a^-1", "a^2 b^-1 a^3", "b^-1 a b^2"):
        v = parse_word(text)
        assert v ** 1 == v
        assert v ** -1 == ~v
    assert word((A, 5), "b", (A, -2)).exponent_sum(A) == 3


def test_generator_symbol_name_pattern():
    with pytest.raises(ParseError):
        GeneratorSymbol("1abc")
    with pytest.raises(ParseError):
        GeneratorSymbol("a-b")
    GeneratorSymbol("A_9z")


def test_alphabet_duplicate_names_rejected():
    with pytest.raises(ParseError):
        Alphabet(["a", "a"])
