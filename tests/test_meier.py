import os
import random

import pytest
from hypothesis import given, settings, strategies as st

from gpforge import meier
from gpforge.errors import AlphabetMismatchError, SearchBudgetError
from gpforge.meier import (
    STATUS_EXHAUSTED,
    STATUS_IN_F,
    STATUS_UNKNOWN,
    build_meier,
    double_coset_probe,
    f_generators,
    meier_element,
    meier_eval,
    meier_gamma_expr,
    phi_apply,
    verified_phi_facts,
)
from gpforge.presentations import tietze_simplify
from gpforge.rewriting import britton_push, britton_stable_key, bs_equal, bs_reduce, bs_system
from gpforge.words import Word, commutator, format_word, parse_word
from tests_util import linear_scan_probe, random_word, whole_word_probe

DATA = os.path.join(os.path.dirname(__file__), "data")


def test_build_meier_shape():
    data = build_meier()
    assert len(data.T.alphabet) == 4
    assert len(data.T.relators) == 4
    assert data.T.alphabet.names == ("a", "t", "a_2", "t_2")
    t_w, c_w = f_generators(data.B)
    assert t_w == parse_word("t")
    assert c_w == parse_word("a^-1 t^-1 a^-1 t a t^-1 a t")


def test_identification_relators():
    data = build_meier()
    # t = [abar, tbar^-1 abar tbar] and c = tbar, with the copy suffixed _2.
    abar, tbar = parse_word("a_2"), parse_word("t_2")
    first = parse_word("t") * ~commutator(abar, ~tbar * abar * tbar)
    t_w, c_w = f_generators(data.B)
    second = c_w * ~tbar
    assert data.T.relators[2] == first
    assert data.T.relators[3] == second


def test_tietze_eliminates_tbar():
    data = build_meier()
    simplified = tietze_simplify(data.T)
    assert simplified.alphabet.names == ("a", "t", "a_2")


def test_phi_identities():
    c = parse_word("a^-1 t^-1 a^-1 t a t^-1 a t")
    assert phi_apply(c) == Word()
    assert phi_apply(parse_word("t^-1 a t a^-1")) == parse_word("a")
    assert phi_apply(parse_word("a")) == parse_word("a^2")
    assert phi_apply(parse_word("t")) == parse_word("t")
    assert all(verified_phi_facts().values())


def test_phi_rejects_foreign_symbols():
    with pytest.raises(AlphabetMismatchError):
        phi_apply(parse_word("b"))


def test_phi_is_homomorphic_modulo_bs_equality():
    rng = random.Random(8)
    from tests_util import random_word

    data = build_meier()
    for _ in range(150):
        u = random_word(rng, data.B.alphabet, max_len=6)
        v = random_word(rng, data.B.alphabet, max_len=6)
        assert bs_equal(2, 3, phi_apply(u * v), phi_apply(u) * phi_apply(v))


def test_c_is_nontrivial_in_bs23():
    c = parse_word("a^-1 t^-1 a^-1 t a t^-1 a t")
    assert bs_reduce(2, 3, c)


def test_meier_eval_examples():
    d = meier_element("D")
    assert meier_eval(d, 0) == Word()
    assert meier_eval(d, 3) == parse_word("a^3")
    assert meier_eval(meier_element("A"), 7) == parse_word("a")
    assert meier_eval(meier_element("Abar"), 2) == parse_word("a_2")
    assert meier_eval(meier_element("Tt"), 1) == parse_word("t")
    assert meier_eval(meier_element("D A^-1"), 1) == Word()
    with pytest.raises(ValueError):
        meier_eval(d, -1)


def test_meier_eval_respects_diagonal_relations_where_decidable():
    data = build_meier()
    # The two BS relators hold coordinatewise on the diagonals, decidably
    # via Britton rewriting in each copy.
    rel = meier_element("Tt^-1 A^2 Tt A^-3")
    for index in (0, 1, 4):
        image = meier_eval(rel, index)
        assert not bs_reduce(2, 3, image)


def test_meier_gamma_expr_payload():
    expr = meier_gamma_expr()
    assert expr.kind == "meier-gamma"
    assert expr.payload["iso_to_self_times_self"]
    assert len(expr.realized.alphabet) == 4
    assert expr.children[0].kind == "meier-T"


def test_probe_rejects_bad_bounds():
    with pytest.raises(ValueError):
        double_coset_probe(0, 10)
    with pytest.raises(ValueError):
        double_coset_probe(3, 0)


def test_probe_small_run_statuses():
    results = double_coset_probe(4, 200)
    as_dict = {format_word(w): s for w, s in results}
    # Only t-powers have phi-image in <t> at this length; all are in F.
    assert as_dict == {f"t^{k}" if abs(k) > 1 else ("t" if k == 1 else "t^-1"): STATUS_IN_F
                       for k in [1, -1, 2, -2, 3, -3, 4, -4]}


@pytest.fixture(scope="module")
def probe_len8():
    return double_coset_probe(8, 100_000)


def test_probe_finds_f_generators_and_kernel_rotations(probe_len8):
    results = probe_len8
    as_dict = {format_word(w): s for w, s in results}
    c_text = "a^-1 t^-1 a^-1 t a t^-1 a t"
    assert as_dict[c_text] == STATUS_IN_F  # c is an F-generator
    assert as_dict["t"] == STATUS_IN_F
    # The defining relator word is trivial, hence in F.
    assert as_dict["t^-1 a^2 t a^-3"] == STATUS_IN_F
    # Nontrivial rotations of c land in the preimage with membership open;
    # the probe never claims a witness without a certificate.
    unknown = [w for w, s in results if s == STATUS_UNKNOWN]
    assert len(unknown) == 8
    assert all(s in (STATUS_IN_F, STATUS_UNKNOWN) for _, s in results)


def test_probe_golden_file_len8(probe_len8):
    lines = [f"{format_word(w)}\t{s}" for w, s in probe_len8]
    with open(os.path.join(DATA, "meier_probe_len8.txt"), "r", encoding="utf-8") as fh:
        golden = fh.read().splitlines()
    assert lines == golden


@pytest.mark.parametrize("budget", [1, 7, 1456, 1457])
def test_probe_matches_linear_scan_oracle(budget):
    # 1456 elements of F are looked up: budget 1456 spends them all,
    # 1457 is the first budget with none left over.
    assert double_coset_probe(6, budget) == linear_scan_probe(6, budget)


def test_probe_budget_boundary_len8(probe_len8):
    # Length 8 is the first length whose candidates need the F lookup.
    small = double_coset_probe(8, 7)
    assert small == linear_scan_probe(8, 7)
    assert {s for _, s in small} == {STATUS_IN_F, STATUS_EXHAUSTED}
    assert double_coset_probe(8, 1456) == probe_len8


def test_probe_matches_whole_word_probe_len9():
    # The enumeration the trie walk replaced: phi(x) and x rewritten whole
    # for each of the 39,364 words of length <= 9.
    assert double_coset_probe(9, 100_000) == whole_word_probe(9, 100_000)


@pytest.mark.parametrize("budget", [1, 1455])
def test_probe_matches_whole_word_probe_at_budgets(budget):
    # Budgets only show from length 8, the first that needs the F lookup;
    # 1455 drops the last of the 1,456 elements of F.
    assert double_coset_probe(8, budget) == whole_word_probe(8, budget)


def test_probe_node_budget(monkeypatch):
    # The walk visits 2 (3^L - 1) nodes: 160 at L = 4, 484 at L = 5.
    monkeypatch.setattr(meier, "PROBE_NODE_BUDGET", 160)
    assert double_coset_probe(4, 10) == whole_word_probe(4, 10)
    with pytest.raises(SearchBudgetError, match="more than 160 trie nodes"):
        double_coset_probe(5, 10)
    monkeypatch.undo()
    for max_len in (13, 1000, 10**12):
        with pytest.raises(SearchBudgetError):
            double_coset_probe(max_len, 10)


def _key(letters):
    state = None
    for sym, exp in letters:
        state = britton_push(bs_system(2, 3), state, sym, exp)
    return britton_stable_key(state)


@settings(max_examples=150, deadline=None, database=None, derandomize=True)
@given(st.randoms(use_true_random=False))
def test_stable_key_is_an_invariant_of_the_element(rng):
    # Inserting a conjugate of the relator or a cancelling pair keeps the
    # element, so it keeps the key the F lookup is filtered by.
    alphabet = build_meier().B.alphabet
    relator = parse_word("t^-1 a^2 t a^-3").letters
    letters = list(random_word(rng, alphabet, max_len=10).letters)
    key = _key(letters)
    for _ in range(rng.randint(1, 4)):
        if rng.random() < 0.5:
            u = list(random_word(rng, alphabet, max_len=4).letters)
            r = relator if rng.random() < 0.5 else [(sym, -exp) for sym, exp in reversed(relator)]
            piece = u + list(r) + [(sym, -exp) for sym, exp in reversed(u)]
        else:
            sym, exp = rng.choice(alphabet.symbols), rng.choice([-1, 1])
            piece = [(sym, exp), (sym, -exp)]
        at = rng.randint(0, len(letters))
        letters[at:at] = piece
    assert _key(letters) == key


@pytest.mark.parametrize("budget", [1, 1455, 1457])
def test_probe_matches_whole_word_probe_len10(budget):
    # Length 10 looks up 222 candidates under 6 keys (length 8: 16 under
    # one key), so the key filter is exercised on several keys at once.
    assert double_coset_probe(10, budget) == whole_word_probe(10, budget)


def test_probe_canonicalises_only_the_keys_it_looks_up(monkeypatch):
    calls = []
    canonical_pass = meier.bs_canonical_pass

    def counted(*args):
        calls.append(args)
        return canonical_pass(*args)

    monkeypatch.setattr(meier, "bs_canonical_pass", counted)
    double_coset_probe(7, 100_000)
    # Up to length 7 every candidate is a t-power: F is not walked.
    assert calls == []
    double_coset_probe(8, 100_000)
    # 16 candidates and the 4 elements of F under their key, not all 1,456.
    assert 0 < len(calls) <= 100
