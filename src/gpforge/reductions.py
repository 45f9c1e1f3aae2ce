"""Witness constructions reducing triviality-style questions to a word
problem: w -> Lambda_w, Gamma_w, W(Gamma, Lambda, w), Pi_w, Delta_w.

Each construction emits both a Presentation and a GroupExpr for the
inference engine.  The backend is oracle-gated: the word-problem source
pairs a presentation with the rewrite system that decides its word
problem (None: free reduction), and refuses a presentation its oracle
does not decide.  The published contract is satisfied branch by branch:

  * w trivial     -> the witness presentation is (Tietze-)trivial and the
                     expression collapses to an atom carrying the facts the
                     collapsed group actually has;
  * w nontrivial  -> a fresh free-product letter wbar of infinite order is
                     returned and the expression records the structural
                     tags the inference rules consume.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from typing import Iterator, Optional, Tuple

from .combinators import (
    DELTA_W,
    DIRECT_PRODUCT,
    GAMMA_W,
    GroupExpr,
    LAMBDA_W,
    PI_W,
    WITNESS_W,
    amalgamated_product,
    atom,
    direct_product,
    free_product,
)
from .errors import InvalidInputError, ParseError
from .presentations import EMPTY_PRESENTATION, Presentation, presentation, serialize
from .rewriting import HnnRewriteSystem, britton_normal_form, parse_bs
from .words import Word, word

# Delta_w's largest dimension: its d - 1 nested direct products carry
# commutator relators whose count grows quadratically in d.
MAX_DELTA_DIM = 64

# witness_corpus's largest count: about 0.1 ms and 60 bytes of output per
# word, so the largest corpus takes about 1.5 s.
MAX_CORPUS_COUNT = 10_000


@dataclass(frozen=True)
class WordProblemSource:
    """A presentation together with the rewrite system deciding its word
    problem; `system` None is the free oracle (free reduction)."""

    presentation: Presentation
    system: Optional[HnnRewriteSystem]
    asserted_facts: Tuple

    def __post_init__(self):
        if self.system is None:
            if any(self.presentation.relators):
                raise InvalidInputError("the free oracle decides presentations without relators only")
        elif self.presentation != self.system.presentation:
            own = serialize(self.system.presentation).replace("\n", "; ")
            raise InvalidInputError(f"this oracle decides only the presentation {own}")

    def is_trivial(self, w: Word) -> bool:
        self.presentation.alphabet.check_word(w)
        if self.system is None:
            return not w
        return not britton_normal_form(self.system, w)


def parse_oracle(spec: str, p: Presentation, asserted_facts: Tuple) -> WordProblemSource:
    """The word-problem source for an oracle spec: `free` or `bs:m,n`.

    ParseError for a malformed spec; InvalidInputError when the oracle
    does not decide `p`.
    """
    if spec == "free":
        return WordProblemSource(p, None, asserted_facts)
    if spec.startswith("bs:"):
        return WordProblemSource(p, parse_bs(spec[3:]), asserted_facts)
    raise ParseError(f"unknown oracle {spec!r}")


def free_source() -> WordProblemSource:
    p = presentation(["a", "b"], (), name="free-source")
    return WordProblemSource(p, None, (("TorsionFree", None),))


@dataclass(frozen=True)
class WitnessOutput:
    """The witness expression and the infinite-order witness word, present
    exactly when the oracle decided w != 1."""

    expr: GroupExpr
    wbar: Optional[Word] = None

    @property
    def presentation(self) -> Presentation:
        return self.expr.realized

    @property
    def trivial_branch(self) -> bool:
        return self.wbar is None


def _trivial_atom(name: str) -> GroupExpr:
    return atom(
        EMPTY_PRESENTATION,
        facts=(("Finite", None), ("Amenable", None)),
        name=name,
    )


def _z_atom(gen: str = "z") -> GroupExpr:
    return atom(
        presentation([gen], (), name="Z"),
        facts=(("Amenable", None), ("TorsionFree", None)),
        name="Z",
    )


def lambda_w(src: WordProblemSource, w: Word) -> WitnessOutput:
    """Triviality witness: trivial group iff w = 1 in the source, else the
    free product with Z whose fresh letter has infinite order."""
    if src.is_trivial(w):
        return WitnessOutput(_trivial_atom("lambda-w-collapsed"))
    base = atom(src.presentation, facts=src.asserted_facts, name=src.presentation.name)
    expr = free_product(base, _z_atom(), _kind=LAMBDA_W)
    z_sym = expr.alphabet.symbols[-1]
    return WitnessOutput(expr, wbar=word(z_sym))


def gamma_w(src: WordProblemSource, w: Word) -> WitnessOutput:
    """Free product of the triviality witness with Z.

    Trivial branch: the whole expression collapses to a Z atom (amenable).
    Nontrivial branch: a nonelementary free product, tagged so the engine
    derives acylindrical hyperbolicity.
    """
    lw = lambda_w(src, w)
    if lw.trivial_branch:
        return WitnessOutput(_z_atom("t"))
    expr = free_product(lw.expr, _z_atom("t"), nonelementary=True, _kind=GAMMA_W)
    return WitnessOutput(expr, wbar=lw.wbar)


def witness_corpus(count: int, rng: random.Random) -> Iterator[Tuple[Word, WitnessOutput]]:
    """`count` random words of length 1..12 over the free source, each with
    its gamma_w witness, drawn from `rng`.  The count is checked before
    any word is drawn."""
    if count > MAX_CORPUS_COUNT:
        raise ValueError(f"corpus count must be at most {MAX_CORPUS_COUNT}, got {count}")
    src = free_source()
    alphabet = src.presentation.alphabet
    letters = [(s, 1) for s in alphabet.symbols] + [(s, -1) for s in alphabet.symbols]

    def draw(length: int) -> Tuple[Word, WitnessOutput]:
        w = Word([letters[rng.randrange(len(letters))] for _ in range(length)])
        return w, gamma_w(src, w)

    return (draw(rng.randint(1, 12)) for _ in range(count))


def witness_w(gamma: GroupExpr, src: WordProblemSource, w: Word) -> WitnessOutput:
    """The k-fold push-out killing gamma's generators against wbar copies.

    gamma's distinguished generators S' are all of its generators; the
    caller asserts their nontriviality and gamma's torsion-freeness on the
    atom.  k = |S'| copies of the triviality witness are adjoined with one
    identification s'_j = wbar_j each.  When w = 1 the result is
    Tietze-trivial because every generator of gamma is killed.
    """
    return _push_out(gamma, lambda_w(src, w))


def _push_out(gamma: GroupExpr, lw: WitnessOutput) -> WitnessOutput:
    """witness_w over an already decided triviality witness lw."""
    if lw.trivial_branch:
        # Lambda_w is the empty presentation and wbar is empty, so the
        # identifications kill the distinguished generators outright.
        relators = list(gamma.realized.relators)
        relators.extend(word(s) for s in gamma.alphabet)
        pres = Presentation(gamma.alphabet, tuple(relators), name="witness-w")
        return WitnessOutput(atom(pres, facts=(("Finite", None), ("Amenable", None)), name="witness-w-collapsed"))

    expr: GroupExpr = gamma
    first_wbar: Optional[Word] = None
    for s in gamma.alphabet.symbols:
        expr = amalgamated_product(
            expr,
            lw.expr,
            pairs=((word(s), lw.wbar),),
            edge_amenable=True,
            proper_edge=True,
            edges_legitimate=True,
            _kind=WITNESS_W,
        )
        if first_wbar is None:
            # wbar is lw's last generator, so renamed it is the amalgam's.
            first_wbar = word(expr.alphabet.symbols[-1])
    return WitnessOutput(expr, wbar=first_wbar)


def genus2_presentation() -> Presentation:
    return presentation(
        ["a", "b", "c", "d"],
        ["a^-1 b^-1 a b c^-1 d^-1 c d"],
        name="genus-2-surface",
    )


def hyperbolic_manifold_atom(n: int) -> GroupExpr:
    """An atom asserting the closed-hyperbolic-n-manifold-group fact.

    For n = 2 the presentation is the honest genus-2 surface group.  For
    n >= 3 closed hyperbolic manifolds exist but no small presentation is
    bundled, so a named two-generator stand-in presentation carries the
    assertion; the fact, as always for atoms, is the caller's
    responsibility and the inference engine treats it as an assumption.
    """
    if n < 2:
        raise ValueError("hyperbolic manifold dimension must be >= 2")
    facts = (("HypManifoldGroup", n), ("TorsionFree", None), ("FinPres", None))
    if n == 2:
        return atom(genus2_presentation(), facts=facts, name="genus-2-surface-group")
    p = presentation(["x", "y"], (), name=f"hyp{n}-manifold-stand-in")
    return atom(p, facts=facts, name=f"hyp{n}-manifold-stand-in")


def f2_atom() -> GroupExpr:
    return atom(
        presentation(["x_1", "x_2"], (), name="F2"),
        facts=(("TorsionFree", None), ("AcylHyp", None)),
        name="F2",
    )


def pi_w(src: WordProblemSource, w: Word, d: int) -> WitnessOutput:
    """Product of two push-out witnesses whose l1-Betti numbers multiply
    into degree d: one over F2 (degree 2), one over a hyperbolic
    (d-2)-manifold group (degree d-2)."""
    if d < 4:
        raise ValueError("pi_w needs degree d >= 4")
    lw = lambda_w(src, w)
    if lw.trivial_branch:
        return WitnessOutput(_trivial_atom("pi-w-collapsed"))
    w1 = _push_out(f2_atom(), lw)
    w2 = _push_out(hyperbolic_manifold_atom(d - 2), lw)
    expr = direct_product(w1.expr, w2.expr, dim=d, _kind=PI_W)
    return WitnessOutput(expr, wbar=w1.wbar)


def delta_w(src: WordProblemSource, w: Word, d: int) -> WitnessOutput:
    """Gamma_w times d-1 copies of F2; facts only, no numeric invariants.

    d = 1 returns Gamma_w itself.
    """
    if not 1 <= d <= MAX_DELTA_DIM:
        raise ValueError(f"delta_w needs degree 1 <= d <= {MAX_DELTA_DIM}, got {d}")
    gw = gamma_w(src, w)
    if d == 1:
        return gw
    expr = gw.expr
    for i in range(d - 1):
        last = i == d - 2
        expr = direct_product(
            expr, f2_atom(), dim=d if last else None, _kind=DELTA_W if last else DIRECT_PRODUCT
        )
    return WitnessOutput(expr, wbar=gw.wbar)
