"""Meier's self-square group machinery.

B = BS(2,3), its rank-2 free subgroup F = <t, [a, t^-1 a t]>, the amalgam
T of two copies of B identified over F by switching the generator pairs,
the non-Hopfian endomorphism phi (a -> a^2, t -> t), coordinate evaluation
for the subgroup of the infinite power T^N generated by the diagonals and
the staircase element (1, a, a^2, ...), and a budgeted probe for the
double-coset witnesses behind |F \\ B / F| = infinity.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from typing import Dict, Iterator, List, Tuple

from .combinators import GroupExpr, MEIER_GAMMA, MEIER_T, amalgamated_product, atom
from .errors import AlphabetMismatchError, ConstructionIntegrityError
from .presentations import Presentation, PresentationMorphism
from .rewriting import bs_canonical, bs_reduce, bs_system
from .words import Alphabet, GeneratorSymbol, Word, commutator, parse_word, substitute, word

_B = bs_system(2, 3).presentation
_A_SYM, _T_SYM = _B.alphabet.symbols
# phi on the generators of B: a -> a^2, t -> t.
_PHI = {_A_SYM: word((_A_SYM, 2)), _T_SYM: word(_T_SYM)}

# Statuses reported by the double-coset probe.
STATUS_IN_F = "in-F"
STATUS_UNKNOWN = "confirmed-in-preimage-unknown-membership"
STATUS_WITNESS = "confirmed-witness"
STATUS_EXHAUSTED = "exhausted"
# The probe compares candidates with the elements of F of free length <= this.
F_WORD_MAX_LEN = 6


@dataclass(frozen=True)
class MeierData:
    """The verified ingredients of the construction."""

    B: Presentation
    F_generators: Tuple[Word, Word]  # (t, c) with c = [a, t^-1 a t]
    T: Presentation
    T_expr: GroupExpr
    phi: PresentationMorphism  # a -> a^2, t -> t, relator obligation verified


def f_generators(p: Presentation) -> Tuple[Word, Word]:
    a = word(p.alphabet.symbol("a"))
    t = word(p.alphabet.symbol("t"))
    return t, commutator(a, (~t) * a * t)


@lru_cache(maxsize=1)
def build_meier() -> MeierData:
    """Construct and verify everything; failure here is a build bug.

    Verified at build time:
      * phi kills the defining relator (its image rewrites to 1),
      * phi is non-injective on F: phi(c) = 1 while c has a nonempty
        pinch-free Britton form,
      * phi(F) = <t>: phi(t) = t and phi(c) = 1,
    which justifies tagging the amalgam node with the many-double-cosets
    assertion consumed by the inference engine.
    """
    t_w, c_w = f_generators(_B)
    phi = PresentationMorphism(_B, _B, dict(_PHI))
    try:
        phi = phi.verify(lambda img: not bs_reduce(2, 3, img))
    except Exception as exc:  # pragma: no cover - should be impossible
        raise ConstructionIntegrityError(f"phi relator obligation failed: {exc}") from exc
    for identity, holds in verified_phi_facts().items():
        if not holds:
            raise ConstructionIntegrityError(f"phi identity fails: {identity}")

    # Identifications switching the pairs: t = cbar, c = tbar, where the
    # right-hand words are read in the copy.
    t_node = amalgamated_product(
        atom(_B, facts=(("TorsionFree", None),), name="B"),
        atom(_B, facts=(("TorsionFree", None),), name="B-copy"),
        pairs=((t_w, c_w), (c_w, t_w)),
        edge_amenable=False,
        doublecoset_at_least_3=True,
        proper_edge=True,
        edges_legitimate=True,
        _kind=MEIER_T,
    )
    return MeierData(B=_B, F_generators=(t_w, c_w), T=t_node.realized, T_expr=t_node, phi=phi)


def meier_t_expr() -> GroupExpr:
    return build_meier().T_expr


def meier_gamma_expr() -> GroupExpr:
    """The four-generated subgroup of T^N as a construction node.

    Element equality in the infinite power is not decided; the node exists
    for coordinate evaluation and for the inference engine, which consumes
    the self-square and first-coordinate-projection tags.
    """
    data = build_meier()
    gamma_p = Presentation(MeierElement.ALPHABET, (), name="meier-gamma")
    return GroupExpr(
        MEIER_GAMMA,
        (data.T_expr,),
        {
            "iso_to_self_times_self": True,
            "surjects_onto_child": True,
            "torsion_free": True,
        },
        gamma_p,
    )


def phi_apply(w: Word) -> Word:
    """BS(2,3)-normal form of phi(w) for w over {a, t}."""
    for sym, _ in w.letters:
        if sym not in _PHI:
            raise AlphabetMismatchError(f"phi is defined on {{a, t}}, got {sym.name!r}")
    return bs_reduce(2, 3, substitute(w, _PHI))


@dataclass(frozen=True)
class MeierElement:
    """A word over the four generators A, Abar, Tt (diagonals) and D, the
    staircase element whose i-th coordinate is a^i."""

    word: Word

    ALPHABET = Alphabet(("A", "Abar", "Tt", "D"))

    def __post_init__(self):
        self.ALPHABET.check_word(self.word)


def meier_element(text: str) -> MeierElement:
    return MeierElement(parse_word(text, MeierElement.ALPHABET))


def meier_eval(e: MeierElement, index: int) -> Word:
    """Coordinate evaluation into T's alphabet, freely reduced.

    A, Abar, Tt evaluate to a, a_2, t at every index; D evaluates to a^index.
    Full T-equality is not decided, only free reduction is applied.
    """
    if index < 0:
        raise ValueError("coordinate index must be >= 0")
    t_alpha = build_meier().T.alphabet
    a = t_alpha.symbol("a")
    abar = t_alpha.symbol("a_2")
    t = t_alpha.symbol("t")
    mapping = {
        MeierElement.ALPHABET.symbol("A"): word(a),
        MeierElement.ALPHABET.symbol("Abar"): word(abar),
        MeierElement.ALPHABET.symbol("Tt"): word(t),
        MeierElement.ALPHABET.symbol("D"): word((a, index)) if index else Word(),
    }
    return substitute(e.word, mapping)


# ---------------------------------------------------------------------------
# Double-coset probe.
# ---------------------------------------------------------------------------


def _reduced_words(symbols: List[Tuple[GeneratorSymbol, int]], max_len: int) -> Iterator[Word]:
    """Freely reduced words over +-1 letters, lazily, in length-lex order."""

    def of_length(length: int, prefix: List[Tuple[GeneratorSymbol, int]]) -> Iterator[Word]:
        if len(prefix) == length:
            yield Word(prefix)
            return
        for sym, eps in symbols:
            if prefix and prefix[-1][0] == sym and prefix[-1][1] == -eps:
                continue
            prefix.append((sym, eps))
            yield from of_length(length, prefix)
            prefix.pop()

    for length in range(1, max_len + 1):
        yield from of_length(length, [])


def _is_t_power(nf: Word, t_sym: GeneratorSymbol) -> bool:
    if not nf:
        return True
    return len(nf.letters) == 1 and nf.letters[0][0] == t_sym


def double_coset_probe(max_len: int, budget: int) -> List[Tuple[Word, str]]:
    """Budgeted search for elements of phi^-1(F) and their F-membership.

    Enumerates freely reduced words x over {a, t} with |x| <= max_len in
    length-lexicographic order and keeps those whose image phi(x) has
    Britton normal form t^k (certainly in <t> <= F).  A kept x whose own
    Britton form is a t-power is in F.  Every other kept x is looked up
    among the first `budget` elements of F, the images of the freely
    reduced words in F's free generators {t, c} with length <=
    F_WORD_MAX_LEN in length-lexicographic order, each held by its
    BS(2,3) normal form (`bs_canonical`):

      * found                                 -> status "in-F"
      * not found, all of them looked up      -> "confirmed-in-preimage-unknown-membership"
      * not found, more than `budget` of them -> "exhausted"

    "confirmed-witness" is reserved for a certified non-membership
    backend; no such certificate is available here, so the status is never
    emitted by this probe.
    """
    if max_len <= 0 or budget <= 0:
        raise ValueError("bounds must be positive")
    t_w, c_w = f_generators(_B)

    results: List[Tuple[Word, str]] = []
    letter_order = [(_A_SYM, 1), (_A_SYM, -1), (_T_SYM, 1), (_T_SYM, -1)]

    f_syms = (GeneratorSymbol("ft"), GeneratorSymbol("fc"))
    f_images = {f_syms[0]: t_w, f_syms[1]: c_w}
    f_letters = [(f_syms[0], 1), (f_syms[0], -1), (f_syms[1], 1), (f_syms[1], -1)]
    f_words = list(_reduced_words(f_letters, F_WORD_MAX_LEN))
    f_known = {bs_canonical(2, 3, substitute(f_word, f_images)) for f_word in f_words[:budget]}
    miss = STATUS_EXHAUSTED if len(f_words) > budget else STATUS_UNKNOWN

    for x in _reduced_words(letter_order, max_len):
        if not _is_t_power(phi_apply(x), _T_SYM):
            continue
        # Elements equal to a t-power (k = 0 included) lie in <t> <= F.
        if _is_t_power(bs_reduce(2, 3, x), _T_SYM) or bs_canonical(2, 3, x) in f_known:
            results.append((x, STATUS_IN_F))
        else:
            results.append((x, miss))
    return results


def verified_phi_facts() -> Dict[str, bool]:
    """The concrete identities backing the infinite-double-coset assertion."""
    t_w, c_w = f_generators(_B)
    return {
        "phi(t) = t": phi_apply(t_w) == t_w,
        "phi(c) = 1": not phi_apply(c_w),
        "c != 1 (pinch-free Britton form)": bool(bs_reduce(2, 3, c_w)),
    }
