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
from typing import Dict, List, Tuple

from .combinators import GroupExpr, MEIER_GAMMA, MEIER_T, amalgamated_product, atom
from .errors import AlphabetMismatchError, InternalError, SearchBudgetError
from .presentations import Presentation, PresentationMorphism
from .rewriting import (
    britton_is_stable_power,
    britton_push,
    britton_stable_key,
    britton_word,
    bs_canonical_pass,
    bs_reduce,
    bs_system,
)
from .words import Alphabet, GeneratorSymbol, Word, commutator, parse_word, substitute, word

_B = bs_system(2, 3).presentation
_A_SYM, _T_SYM = _B.alphabet.symbols
# phi on the generators of B: a -> a^2, t -> t.
_PHI = {_A_SYM: word((_A_SYM, 2)), _T_SYM: word(_T_SYM)}

# Statuses reported by the double-coset probe.
STATUS_IN_F = "in-F"
STATUS_UNKNOWN = "confirmed-in-preimage-unknown-membership"
STATUS_EXHAUSTED = "exhausted"
# The probe compares candidates with the elements of F of free length <= this.
F_WORD_MAX_LEN = 6
PROBE_NODE_BUDGET = 2_000_000
"""Prefix-trie nodes one double_coset_probe call may visit; a longer
max_len raises SearchBudgetError before the walk starts."""


@dataclass(frozen=True)
class MeierData:
    """The verified ingredients of the construction."""

    B: Presentation
    T: Presentation
    T_expr: GroupExpr


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
    try:
        PresentationMorphism(_B, _B, dict(_PHI)).verify(lambda img: not bs_reduce(2, 3, img))
    except Exception as exc:  # pragma: no cover - should be impossible
        raise InternalError(f"phi relator obligation failed: {exc}") from exc
    for identity, holds in verified_phi_facts().items():
        if not holds:
            raise InternalError(f"phi identity fails: {identity}")

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
    return MeierData(B=_B, T=t_node.realized, T_expr=t_node)


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


def _trie(images, max_len: int):
    """Depth first, so in lexicographic order, over the prefix trie of the
    freely reduced words of length 1..max_len in the +-1 letters that key
    `images`, in their order: yields each node as (prefix, state), the
    prefix a tuple of letters and the state the Britton state of its
    image, which is its parent's state with images[letter] pushed (the
    root's is None)."""
    sys = bs_system(2, 3)
    letters = list(images)
    # The letters that may follow each last letter, pushed last first so
    # that they pop in order.
    follow = {last: [x for x in reversed(letters) if x != (last[0], -last[1])] for last in letters}
    stack = [((), None)]
    while stack:
        prefix, state = stack.pop()
        if prefix:
            yield prefix, state
        if len(prefix) == max_len:
            continue
        for letter in follow[prefix[-1]] if prefix else reversed(letters):
            child = state
            for sym, exp in images[letter]:
                child = britton_push(sys, child, sym, exp)
            stack.append((prefix + (letter,), child))


def _f_table(budget: int, wanted: set) -> Tuple[set, bool]:
    """The BS(2,3) normal forms of those of the first `budget` elements of
    F whose key (`britton_stable_key`) is in `wanted`, and whether any
    element of F was left out.  The elements are the images of the freely
    reduced words in F's free generators {t, c} of length <=
    F_WORD_MAX_LEN in length-lexicographic order.  The key is an invariant
    of the element, so an element under another key equals no candidate
    whose key is wanted and is not canonicalised."""
    generators = zip((GeneratorSymbol("ft"), GeneratorSymbol("fc")), f_generators(_B))
    images = {(sym, eps): (w ** eps).letters for sym, w in generators for eps in (1, -1)}
    nodes = sorted(_trie(images, F_WORD_MAX_LEN), key=lambda node: len(node[0]))
    known = {
        bs_canonical_pass(2, 3, britton_word(state))
        for _, state in nodes[:budget]
        if britton_stable_key(state) in wanted
    }
    return known, len(nodes) > budget


def double_coset_probe(max_len: int, budget: int) -> List[Tuple[Word, str]]:
    """Budgeted search for elements of phi^-1(F) and their F-membership.

    Walks the freely reduced words x over {a, t} with |x| <= max_len
    depth-first in the prefix trie (`_trie`), carrying the Britton state
    (`britton_push`) of phi(x): a child pushes the image of its last
    letter (a^+-1 -> a^+-2, t^+-1 -> t^+-1) onto its parent's state, so
    each trie node costs one letter, not a rewrite of the whole word.
    Only the few kept words fold their own Britton form.  The walk is
    lexicographic, and a stable sort by length puts the results in
    length-lexicographic order.  The walk visits 2 (3^max_len - 1) nodes;
    above PROBE_NODE_BUDGET it raises SearchBudgetError before it starts.

    A word x is kept when the Britton form of phi(x) is t^k (certainly in
    <t> <= F).  A kept x whose own Britton form is a t-power is in F.
    Every other kept x is looked up among the first `budget` elements of
    F, the images of the freely reduced words in F's free generators
    {t, c} with length <= F_WORD_MAX_LEN in length-lexicographic order,
    each held by its BS(2,3) normal form (`bs_canonical`), built by the
    same walk:

      * found                                 -> status "in-F"
      * not found, all of them looked up      -> "confirmed-in-preimage-unknown-membership"
      * not found, more than `budget` of them -> "exhausted"

    The lookup runs after the walk.  Two pinch-free forms of one element
    have the same number of t-letters (Lyndon-Schupp, Combinatorial Group
    Theory, IV.2) and the same t-exponent sum, so an element of F can
    equal x only if its key (`britton_stable_key`) is x's: only the
    elements of F under some kept x's key are canonicalised, and none
    when every kept x is a t-power, as up to length 7.

    No status says "not in F": that answer needs a certificate of
    non-membership, which this probe cannot give.
    """
    if max_len <= 0 or budget <= 0:
        raise ValueError("bounds must be positive")
    # 3^40 nodes exceed any budget; the cap keeps huge max_len cheap.
    nodes = 2 * (3 ** min(max_len, 40) - 1)
    if nodes > PROBE_NODE_BUDGET:
        raise SearchBudgetError(
            f"a probe to length {max_len} visits more than {PROBE_NODE_BUDGET} trie nodes"
        )
    sys = bs_system(2, 3)
    images = {(sym, eps): (_PHI[sym] ** eps).letters for sym in (_A_SYM, _T_SYM) for eps in (1, -1)}
    kept = []
    for x, phi_state in _trie(images, max_len):
        if not britton_is_stable_power(phi_state):
            continue
        state = None
        for sym, exp in x:
            state = britton_push(sys, state, sym, exp)
        kept.append((x, state))
    # Elements equal to a t-power (k = 0 included) lie in <t> <= F.
    wanted = {britton_stable_key(state) for _, state in kept if not britton_is_stable_power(state)}
    f_known, truncated = _f_table(budget, wanted) if wanted else (set(), False)
    miss = STATUS_EXHAUSTED if truncated else STATUS_UNKNOWN
    results = []
    for x, state in kept:
        in_f = britton_is_stable_power(state) or bs_canonical_pass(2, 3, britton_word(state)) in f_known
        results.append((Word(x), STATUS_IN_F if in_f else miss))
    return sorted(results, key=lambda result: len(result[0]))


def verified_phi_facts() -> Dict[str, bool]:
    """The concrete identities backing the infinite-double-coset assertion."""
    t_w, c_w = f_generators(_B)
    return {
        "phi(t) = t": phi_apply(t_w) == t_w,
        "phi(c) = 1": not phi_apply(c_w),
        "c != 1 (pinch-free Britton form)": bool(bs_reduce(2, 3, c_w)),
    }
