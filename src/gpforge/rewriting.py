"""Word-problem engines: every word-problem decision and certificate of the
toolkit comes from this module.

* Britton pinch elimination in the Baumslag-Solitar groups BS(m, n) =
  <a, t | t^-1 a^m t = a^n>, the only HNN extensions the toolkit rewrites
  in.  A rewrite system is also the oracle of a word-problem source: it
  owns the one presentation it decides, and BS(m, n) is spelled only by
  `bs_system` and its text form `m,n` only by `parse_bs`.
* Free-group triviality.
* Exhaustive search for finite symmetric-group quotients, producing
  re-checkable nontriviality certificates (`FiniteQuotient`, the one
  certificate kind the toolkit issues).  It fills the permutations one
  point at a time and scans the relators through the partial permutations
  after each new image, like a coset-table scan in low-index subgroup
  search (Sims, Computation with Finitely Presented Groups, Ch. 5), with
  relator exponents reduced modulo lcm(1..degree) and a fixed budget of
  image assignments per call (QUOTIENT_SEARCH_BUDGET).  Where the
  complete images make every relator that mentions the remaining
  generators vanish, those generators are free: their permutations are
  emitted whole, in lex order, and the budget still counts every
  assignment the point search would have made there.

The edge subgroups are <a^m> and <a^n>, so Britton rewriting is integer
arithmetic: a segment a^e lies in <a^m> iff m divides e.  Pinch
replacement is leftmost-innermost (a stack pass), so each replacement
removes one stable-letter pair and the procedure terminates.  The stack is
persistent (`britton_push`), so words that share a prefix share the
rewriting of it.  Amalgam normal forms are deliberately absent: nothing
downstream consumes them (amalgam facts are handled at the inference-rule
level).
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from functools import cached_property, lru_cache
from typing import Dict, Generator, Iterator, List, NamedTuple, Optional, Tuple

from .errors import AlphabetMismatchError, InvalidInputError, ParseError, SearchBudgetError
from .presentations import Presentation
from .words import _INTEGER_RE, Alphabet, GeneratorSymbol, Word, _push_runs, _reduced

_A = GeneratorSymbol("a")
_T = GeneratorSymbol("t")


@dataclass(frozen=True)
class HnnRewriteSystem:
    """BS(m, n) as HNN data over the base <a>: t^-1 a^m t = a^n."""

    m: int
    n: int

    def __post_init__(self):
        if self.m == 0 or self.n == 0:
            raise InvalidInputError("BS parameters must be nonzero")

    @property
    def name(self) -> str:
        return f"BS({self.m},{self.n})"

    @cached_property
    def presentation(self) -> Presentation:
        """The group this system decides: gens a t and the one relator
        t^-1 a^m t a^-n."""
        relator = _reduced(((_T, -1), (_A, self.m), (_T, 1), (_A, -self.n)))
        return Presentation(Alphabet((_A, _T)), (relator,), self.name)


@lru_cache(maxsize=64)
def bs_system(m: int, n: int) -> HnnRewriteSystem:
    """The Baumslag-Solitar group BS(m, n) = <a, t | t^-1 a^m t = a^n>."""
    return HnnRewriteSystem(m, n)


def parse_bs(text: str) -> HnnRewriteSystem:
    """The BS(m, n) system for the text `m,n`; ParseError unless m and n
    are nonzero integers written as in `.grp` exponents (ASCII
    `-?[1-9][0-9]*`, no blanks)."""
    try:
        m, n = text.split(",")
        if _INTEGER_RE.match(m) and _INTEGER_RE.match(n):
            return bs_system(int(m), int(n))
    except ValueError:  # not two fields, or past int()'s digit limit
        pass
    raise ParseError(f"expected m,n with nonzero integers m and n, got {text!r}")


BrittonState = Optional[Tuple["BrittonState", GeneratorSymbol, int]]
"""A Britton stack as an immutable linked list (below, letter, exponent),
None when empty: a t-run t^k or a base segment a^e, k and e nonzero.
Adjacent nodes have different letters.  Pushing never changes a state, so
words that share a prefix can share the state reached on it."""


def _push_base(state: BrittonState, e: int) -> BrittonState:
    if state is not None and state[1] is _A:
        e += state[2]
        return (state[0], _A, e) if e else state[0]
    return (state, _A, e)


SEGMENT_BIT_BUDGET = 14_000
"""Bits a base segment may grow to by pinching or carrying.  A pinch with
|m| != |n| scales a segment by n/m, so the form of t^-k a t^k in BS(1, 2)
holds a^(2^k), and so does a carry of the canonical pass (a t^k); a pinch
or carry that would grow a segment past the budget raises
SearchBudgetError instead.  The budget is below the 4,300-digit
(14,284-bit) limit of str(int), so every form returned can be printed."""


def _push_stable(sys: HnnRewriteSystem, state: BrittonState, k: int) -> BrittonState:
    # Against t^-eps on top, the empty segment pinches, so letters cancel a
    # run at a time.  A segment a^e below t^-eps pinches with t^eps when
    # `into` divides e and becomes a^(e / into * across); each pinch
    # consumes one letter of the run below and one of t^k.  When n = +-m
    # the segment it leaves pinches again, so the pinches down the run
    # happen at once; otherwise each pinch is checked against the segment
    # budget.  What is left is pushed as one run.
    eps = 1 if k > 0 else -1
    into, across = (sys.m, sys.n) if eps == 1 else (sys.n, sys.m)
    left = abs(k)
    while left:
        if state is not None and state[1] is _T:
            below, _, run = state
            if run * eps > 0:
                return (below, _T, run + eps * left)
            step = min(left, abs(run))
            left -= step
            state = (below, _T, run + eps * step) if run + eps * step else below
            continue
        if state is not None and state[0] is not None and state[0][2] * eps < 0 and state[2] % into == 0:
            e = state[2]
            below, _, run = state[0]
            if abs(across) == abs(into):
                steps = min(left, abs(run))
                e = -e if across != into and steps % 2 else e
            else:
                steps, e = 1, e // into * across
                if e.bit_length() > SEGMENT_BIT_BUDGET and abs(across) > abs(into):
                    raise SearchBudgetError(f"a pinch would grow a base segment past {SEGMENT_BIT_BUDGET} bits")
            if run + eps * steps:
                below = (below, _T, run + eps * steps)
            state = _push_base(below, e)
            left -= steps
            continue
        return (state, _T, eps * left)
    return state


def britton_push(sys: HnnRewriteSystem, state: BrittonState, sym: GeneratorSymbol, exp: int) -> BrittonState:
    """The state reached by pushing the letter sym^exp (exp a nonzero int)
    onto `state`, eliminating the pinches it closes; `state` itself is
    unchanged.  sym must be t or a (`britton_normal_form` checks a whole
    word)."""
    if sym == _T:
        return _push_stable(sys, state, exp)
    return _push_base(state, exp)


def britton_word(state: BrittonState) -> Word:
    """The pinch-free word a state spells, bottom of the stack first: its
    nodes are the word's runs (a, e) and (t, k), reduced as they stand."""
    runs = []
    while state is not None:
        state, sym, exp = state
        runs.append((sym, exp))
    return _reduced(tuple(reversed(runs)))


def britton_is_stable_power(state: BrittonState) -> bool:
    """Whether a state spells t^k (k = 0 included), read without building
    the word: adjacent nodes have different letters, so only a lone t-run
    does."""
    return state is None or (state[0] is None and state[1] is _T)


def britton_stable_key(state: BrittonState) -> Tuple[int, int]:
    """(number of t-letters, t-exponent sum) of the word a state spells.

    Both are invariants of the element: every pinch-free form of it has
    the same number of t-letters (Lyndon-Schupp, Combinatorial Group
    Theory, IV.2), and the exponent sum is its image under a -> 0, t -> 1.
    So two states with different keys spell different elements."""
    letters = total = 0
    while state is not None:
        state, sym, exp = state
        if sym is _T:
            letters += abs(exp)
            total += exp
    return letters, total


def britton_normal_form(sys: HnnRewriteSystem, w: Word) -> Word:
    """Eliminate every pinch t^-1 a^(qm) t -> a^(qn) and t a^(qn) t^-1 ->
    a^(qm), leftmost-innermost: a fold of `britton_push` over the letters
    of w from the empty state, read back by `britton_word`.

    The result is pinch-free; it is the identity iff it is the empty word,
    and a nonempty pinch-free word containing the stable letter is
    certified nontrivial (Britton's lemma).
    """
    for sym, _ in w.letters:
        if sym != _T and sym != _A:
            raise AlphabetMismatchError(f"symbol {sym.name!r} is neither base nor stable letter")
    state: BrittonState = None
    for sym, exp in w.letters:
        state = britton_push(sys, state, sym, exp)
    return britton_word(state)


def is_pinch_free(sys: HnnRewriteSystem, w: Word) -> bool:
    """Whether w holds no pinch, checked without the Britton rewriter: one
    scan of the runs for t^e1 a^k t^e2 with e1 < 0 < e2 and m | k
    (t^-1 a^m t -> a^n) or e1 > 0 > e2 and n | k (t a^n t^-1 -> a^m)."""
    free = True
    # Runs of a reduced word alternate a and t, so at a t-run `inner` is the
    # a-run since the t-run `before` (0 before the first t-run).
    before = inner = 0
    for sym, exp in w.letters:
        if sym == _A:
            inner = exp
        elif sym == _T:
            if before < 0 < exp and inner % sys.m == 0 or before > 0 > exp and inner % sys.n == 0:
                free = False
            before = exp
        else:
            raise AlphabetMismatchError(f"symbol {sym.name!r} is neither base nor stable letter")
    return free


def bs_reduce(m: int, n: int, w: Word) -> Word:
    """Pinch-free Britton form in BS(m, n); base segments are a-powers.

    Not unique (a^2 t = t a^3 in BS(2, 3)); `bs_canonical` is the unique
    form.  Equality test: u = v in BS(m, n) iff bs_reduce(m, n, u * ~v) is
    empty.
    """
    return britton_normal_form(bs_system(m, n), w)


def bs_equal(m: int, n: int, u: Word, v: Word) -> bool:
    return not bs_reduce(m, n, u * ~v)


def bs_canonical(m: int, n: int, w: Word) -> Word:
    """The unique normal form of w in BS(m, n): bs_canonical(m, n, u) ==
    bs_canonical(m, n, v) iff u = v.  `bs_canonical_pass` over
    `bs_reduce`."""
    return bs_canonical_pass(m, n, bs_reduce(m, n, w))


def bs_canonical_pass(m: int, n: int, nf: Word) -> Word:
    """The unique normal form of a pinch-free word nf in BS(m, n), such as
    a Britton form a caller already holds.

    One left-to-right pass.  Before each t the base segment a^e is
    written a^(qm + r) with 0 <= r < |m| and a^(qm) t = t a^(qn) carries
    a^(qn) to the right; before each t^-1 the same is done mod |n|,
    carrying a^(qm).  A carry changes a segment by a multiple of the edge
    exponent it meets, so no pinch appears, and the segments before stable
    letters are coset representatives: this is the HNN normal form
    (Lyndon-Schupp, Combinatorial Group Theory, IV.2).  A t-run passes
    through whole once the carry is zero; until then it is rewritten
    letter by letter, and the form can be as long as the run (a^-2 t^N is
    (a t)^N a^-2 in BS(3, 2)).  The runs are pushed with `_push_runs`,
    which merges a t-run's letters and drops zero segments, so the form is
    reduced as it is built.  A carry that would grow past
    SEGMENT_BIT_BUDGET raises SearchBudgetError.
    """
    out: List[Tuple[GeneratorSymbol, int]] = []
    e = 0  # exponent of the pending base segment, carry included
    for sym, k in nf.letters:
        if sym == _A:
            e += k
            continue
        eps = 1 if k > 0 else -1
        into, across = (m, n) if eps == 1 else (n, m)
        left = abs(k)
        while left and e:
            r = e % abs(into)
            _push_runs(out, ((_A, r), (sym, eps)) if r else ((sym, eps),))
            e = (e - r) // into * across
            if e.bit_length() > SEGMENT_BIT_BUDGET and abs(across) > abs(into):
                raise SearchBudgetError(f"a carry would grow a base segment past {SEGMENT_BIT_BUDGET} bits")
            left -= 1
        if left:
            _push_runs(out, ((sym, eps * left),))
    if e:
        _push_runs(out, ((_A, e),))
    return _reduced(tuple(out))


# ---------------------------------------------------------------------------
# Finite symmetric-group quotients.
# ---------------------------------------------------------------------------

Perm = Tuple[int, ...]


def _identity(n: int) -> Perm:
    return tuple(range(n))


def _compose(p: Perm, q: Perm) -> Perm:
    """(p * q)(x) = p(q(x)): apply q first."""
    return tuple(p[q[i]] for i in range(len(p)))


def _inverse(p: Perm) -> Perm:
    inv = [0] * len(p)
    for i, v in enumerate(p):
        inv[v] = i
    return tuple(inv)


def _power(p: Perm, k: int) -> Perm:
    n = len(p)
    if k < 0:
        p, k = _inverse(p), -k
    result = _identity(n)
    while k:
        if k & 1:
            result = _compose(result, p)
        p = _compose(p, p)
        k >>= 1
    return result


def permutation_cycles(p: Perm) -> str:
    """One-line cycle notation, 1-based, fixed points omitted; identity '()'."""
    seen = [False] * len(p)
    parts = []
    for i in range(len(p)):
        if seen[i] or p[i] == i:
            seen[i] = True
            continue
        cyc = [i]
        seen[i] = True
        j = p[i]
        while j != i:
            cyc.append(j)
            seen[j] = True
            j = p[j]
        parts.append("(" + " ".join(str(x + 1) for x in cyc) + ")")
    return "".join(parts) if parts else "()"


def _is_permutation(p, degree: int) -> bool:
    """Whether p is a tuple of ints listing each of 0..degree-1 once."""
    return isinstance(p, tuple) and all(type(x) is int for x in p) and sorted(p) == list(range(degree))


class Homomorphism(NamedTuple):
    """Generator -> permutation table defining a quotient in S_degree."""

    degree: int
    images: Dict[GeneratorSymbol, Perm]

    def evaluate(self, w: Word) -> Perm:
        out = _identity(self.degree)
        for sym, exp in w.letters:
            out = _compose(out, _power(self.images[sym], exp))
        return out


@dataclass(frozen=True)
class TrivialityCertificate:
    """Independently re-checkable evidence that a word is nontrivial in a
    presentation: a homomorphism into a finite symmetric group that kills
    every relator and moves the target.

    `FiniteQuotient` is the one kind the toolkit issues; a certificate of
    any other kind never revalidates, nor does one whose map sends some
    generator of the presentation to anything but a permutation tuple of
    range(degree), or whose target is not a word in those generators.
    """

    kind: str
    presentation: Presentation
    target: Word
    hom: Homomorphism

    def revalidate(self) -> bool:
        if self.kind != "FiniteQuotient":
            return False
        gens = self.presentation.alphabet
        if not all(_is_permutation(self.hom.images.get(g), self.hom.degree) for g in gens):
            return False
        if any(sym not in gens for sym, _ in self.target.letters):
            return False
        ident = _identity(self.hom.degree)
        for rel in self.presentation.relators:
            if self.hom.evaluate(rel) != ident:
                return False
        return self.hom.evaluate(self.target) != ident


QUOTIENT_SEARCH_BUDGET = 1_000_000
"""Image assignments one finite_quotient_search call may try, over all its
degrees, before it raises SearchBudgetError."""


def _actions(rel: Word, index: Dict[GeneratorSymbol, int], period: int) -> List[Tuple[int, int]]:
    """The letters of a relator as (generator index, sign), one per unit of
    exponent, in the order they act: right to left, since
    (p * q)(x) = p(q(x)).  Each exponent is first reduced modulo `period`
    = lcm(1..degree), to the residue nearest zero, which no permutation of
    that degree can tell from the exponent itself."""
    acts: List[Tuple[int, int]] = []
    for sym, exp in reversed(rel.letters):
        r = exp % period
        if 2 * r > period:
            r -= period
        acts.extend([(index[sym], 1 if r > 0 else -1)] * abs(r))
    return acts


def _vanish(
    relators: List[List[Tuple[int, int]]], k: int, image: List[List[int]], preimage: List[List[int]], ident: List[int]
) -> bool:
    """Whether each relator, given by its letters in acting order, is the
    empty cyclic word once each generator below k is replaced by its
    complete image array: adjacent replaced letters compose to one
    permutation, identities drop, and letters x^e x^-e of the other
    generators cancel, also cyclically.  Such relators hold whatever the
    generators from k on are sent to."""
    for acts in relators:
        out: list = []  # composed arrays (lists) and open letters (tuples)
        for g, sign in acts:
            if g < k:
                step = image[g] if sign > 0 else preimage[g]
                if out and type(out[-1]) is list:
                    step = [step[y] for y in out.pop()]
                if step != ident:
                    out.append(step)
            elif out and out[-1] == (g, -sign):
                out.pop()
            else:
                out.append((g, sign))
        i, j = 0, len(out) - 1
        while i < j:
            first, last = out[i], out[j]
            if type(first) is list and type(last) is list:
                if [first[y] for y in last] != ident:
                    return False
            elif type(first) is list or type(last) is list or first != (last[0], -last[1]):
                return False
            i, j = i + 1, j - 1
        if i == j:
            return False
    return True


@lru_cache(maxsize=None)
def _lex_permutations(degree: int) -> Tuple[Tuple[Perm, ...], Tuple[Perm, ...], Tuple[int, ...]]:
    """S_degree in lex order, the inverse of each, and for each the image
    assignments the point search makes to reach it from the one before:
    one per point from the first whose image changes, and `degree` for the
    first permutation."""
    perms = tuple(itertools.permutations(range(degree)))
    costs = [degree] + [degree - next(i for i in range(degree) if p[i] != q[i]) for p, q in zip(perms, perms[1:])]
    return perms, tuple(map(_inverse, perms)), tuple(costs)


def _budget_error(budget: int, degree: int) -> SearchBudgetError:
    return SearchBudgetError(
        f"finite-quotient search passed its budget of {budget} image assignments at degree {degree}"
    )


def _free_tail(
    gens: Tuple[GeneratorSymbol, ...],
    k: int,
    degree: int,
    image: List[List[int]],
    preimage: List[List[int]],
    perms: Dict[Perm, Perm],
    trace: Optional[List[List[int]]],
    nodes: int,
    budget: int,
) -> Generator[Homomorphism, None, int]:
    """The leaves below a node where generators 0..k-1 are complete and
    gens[k:] are free: every homomorphism sending them anywhere, the tail
    images in lex order, as the point search would yield them; it cuts
    nothing there, since its pruning is exact.  Each leaf adds to `nodes`
    the assignments the point search makes to reach it, and the budget is
    checked at every leaf, moving the target or not.  In target mode the
    tail images are written into the arrays the target's trace reads, and
    cleared at the end.  Returns the new node count."""
    lex, inverses, costs = _lex_permutations(degree)
    last, r = len(lex) - 1, len(gens) - k
    images: Dict[GeneratorSymbol, Perm] = {}
    for g in range(k):
        perm = tuple(image[g][:degree])
        images[gens[g]] = perms.setdefault(perm, perm)
    at = [0] * r  # lex index of each tail generator's image
    moved = 0  # the first tail generator whose image changed
    nodes += degree * r
    while True:
        if nodes > budget:
            raise _budget_error(budget, degree)
        for j in range(moved, r):
            images[gens[k + j]] = lex[at[j]]
            if trace is not None:
                image[k + j][:degree], preimage[k + j][:degree] = lex[at[j]], inverses[at[j]]
        if trace is None or _moves(trace, degree):
            yield Homomorphism(degree, dict(images))
        moved = r - 1
        while at[moved] == last:
            at[moved] = 0
            moved -= 1
            if moved < 0:
                if trace is not None:
                    for g in range(k, len(gens)):
                        image[g][:degree] = preimage[g][:degree] = [-1] * degree
                return nodes
        at[moved] += 1
        nodes += costs[at[moved]] + degree * (r - 1 - moved)


def _moves(trace: List[List[int]], degree: int) -> bool:
    """Whether the word whose letters, as complete arrays in acting order,
    are `trace` moves some point: points 0, 1, ... are traced until one
    does."""
    for pt in range(degree):
        y = pt
        for step in trace:
            y = step[y]
        if y != pt:
            return True
    return False


def _homomorphisms(p: Presentation, degree_max: int, target: Optional[Word] = None) -> Iterator[Homomorphism]:
    """Every homomorphism into S_degree, degree <= degree_max, in
    enumeration order (see finite_quotient_search); with `target`, only
    those that move it."""
    gens = p.alphabet.symbols
    index = {g: k for k, g in enumerate(gens)}
    budget, nodes = QUOTIENT_SEARCH_BUDGET, 0
    # A relator cannot vanish (see _vanish) while a generator with a
    # nonzero exponent sum in it is open, so only the generators from
    # free_from on can ever be free.
    free_from = 0
    for rel in p.relators:
        sums: Dict[GeneratorSymbol, int] = {}
        for sym, exp in rel.letters:
            sums[sym] = sums.get(sym, 0) + exp
        for sym, e in sums.items():
            if e and index[sym] >= free_from:
                free_from = index[sym] + 1
    for degree in range(1, degree_max + 1):
        # Partial permutations, -1 where undefined.  Each array has one
        # more slot, -1 for ever, so a trace that meets a gap stays at -1.
        image = [[-1] * (degree + 1) for _ in gens]
        preimage = [[-1] * (degree + 1) for _ in gens]
        arrays = {1: (image, preimage), -1: (preimage, image)}
        # scans[k]: the rotations of every relator that start with
        # gens[k]^+-1, as (steps, backs, from_v): the arrays of the
        # rotation's letters after the first, in acting order, and their
        # inverses.  The trace of a rotation starting with gens[k] runs
        # from the new point x, whose first letter takes it to v; one
        # starting with gens[k]^-1 runs from v to x.  A relator that is a
        # proper power is scanned from each start in its root only.
        scans: List[List[tuple]] = [[] for _ in gens]
        period = math.lcm(*range(1, degree + 1))
        relator_acts = []
        for rel in p.relators:
            acts = _actions(rel, index, period)
            relator_acts.append(acts)
            m = len(acts)
            root = next((d for d in range(1, m + 1) if m % d == 0 and acts[d:] + acts[:d] == acts), 0)
            steps = [arrays[sign][0][k] for k, sign in acts] * 2
            backs = [arrays[sign][1][k] for k, sign in acts] * 2
            for j in range(root):
                k, sign = acts[j]
                scans[k].append((tuple(steps[j + 1 : j + m]), tuple(backs[j + 1 : j + m]), sign < 0))
        # The target's letters in acting order, traced at each leaf, where
        # every image is defined.
        trace = None if target is None else [arrays[sign][0][k] for k, sign in _actions(target, index, period)]
        # tails[k]: the relators that mention a generator from k on, which
        # decide whether the generators from k on are free when the search
        # enters generator k moving forward; None where they never are.
        tails: List[Optional[list]] = [None] * (len(gens) + 1)
        for k in range(free_from, len(gens)):
            tails[k] = [acts for acts in relator_acts if acts and max(acts)[0] >= k]
        ident = list(range(degree)) + [-1]
        perms: Dict[Perm, Perm] = {}  # one tuple per image, shared by all homomorphisms
        slots, last = len(gens) * degree, degree - 1
        slot, v = 0, 0
        # The degree's start is its first forward crossing, into generator 0.
        if tails[0] is not None and _vanish(tails[0], 0, image, preimage, ident):
            nodes = yield from _free_tail(gens, 0, degree, image, preimage, perms, trace, nodes, budget)
            slot = -1
        while slot >= 0:
            if slot < slots:
                k, x = divmod(slot, degree)
                fwd, back, tries = image[k], preimage[k], scans[k]
                for v in range(v, degree):
                    if back[v] >= 0:
                        continue
                    nodes += 1
                    if nodes > budget:
                        raise _budget_error(budget, degree)
                    fwd[x], back[v] = v, x
                    # A scan cuts the branch when its trace is complete and
                    # ends off its start, or when it stops at a gap that the
                    # trace back from its start also crosses: the letter at
                    # the gap would have to send two points to one.
                    for steps, backs, from_v in tries:
                        if from_v:
                            y, start = x, v
                        else:
                            y, start = v, x
                        for step in steps:
                            y = step[y]
                        if y == start:
                            continue
                        if y >= 0:
                            break
                        y = x if from_v else v
                        for gap, step in enumerate(steps):
                            y = step[y]
                            if y < 0:
                                break
                        for inv in reversed(backs[gap:]):
                            start = inv[start]
                        if start >= 0:
                            break
                    else:
                        break
                    fwd[x] = back[v] = -1
                else:
                    v = degree
                if v < degree:
                    slot, v = slot + 1, 0
                    # Entering generator k + 1 with 0..k complete: emit its
                    # subtree whole if the generators from k + 1 are free.
                    if x < last or tails[k + 1] is None or not _vanish(tails[k + 1], k + 1, image, preimage, ident):
                        continue
                    nodes = yield from _free_tail(gens, k + 1, degree, image, preimage, perms, trace, nodes, budget)
            elif trace is None or _moves(trace, degree):
                images: Dict[GeneratorSymbol, Perm] = {}
                for k, g in enumerate(gens):
                    perm = tuple(image[k][:degree])
                    images[g] = perms.setdefault(perm, perm)
                yield Homomorphism(degree, images)
            slot -= 1
            if slot >= 0:
                k, x = divmod(slot, degree)
                v = image[k][x]
                image[k][x] = preimage[k][v] = -1
                v += 1


def finite_quotient_search(
    p: Presentation,
    degree_max: int,
    target: Optional[Word] = None,
):
    """Exhaustive search for homomorphisms into S_degree, degree <= degree_max.

    Homomorphisms are enumerated in a fixed order: degrees ascending, then
    the generators' permutations lexicographically, generators in alphabet
    order.  The search defines images one point at a time in that order
    (generator-major, point-minor, each unused image in ascending order),
    so a partial assignment is a prefix of the concatenated image arrays,
    whose lex order is the order above.  After each new image g(x) = v it
    scans, as a coset-table scan does, every cyclic rotation of every
    relator that starts with g (from x) or with g^-1 (from v), forward and
    backward through the images defined so far, and cuts the branch when a
    trace is defined all the way round and does not end where it started,
    or when the backward trace crosses the gap that stopped the forward one
    (the letter at the gap would have to send two points to one).
    A cut drops only assignments no completion satisfies, and every full
    trace is scanned when its last image is set, so the surviving set and
    its order are those of a search over whole permutations.  Relator
    exponents are reduced modulo lcm(1..degree) first: at degree 5,
    `g^100000000000` is scanned as `g^-20`.

    Free tails.  When the search enters generator k moving forward, with
    generators 0..k-1 complete, it asks whether every relator that
    mentions a generator from k on becomes the empty cyclic word once each
    complete generator is replaced by its image (adjacent images composed,
    identities dropped, x^e x^-e of the other generators cancelled, also
    cyclically).  Then those relators hold however the generators from k
    on are sent, no scan can cut below, and the subtree's homomorphisms
    are exactly S_degree^(n-k) on those generators in lex order, which
    are emitted directly.  In m(<g|g^3>), s and d are free wherever g is
    the identity.  A relator with a nonzero exponent sum in a generator
    never vanishes while that generator is open, so the test is made only
    past the last such generator, once per forward crossing.

    The search tries at most QUOTIENT_SEARCH_BUDGET image assignments over
    all degrees of one call and then raises SearchBudgetError (exit 2 on
    the command line).  A free tail counts the assignments the point
    search would make to reach each of its leaves and raises before
    yielding the first leaf past the budget, so what is yielded, the
    message and the inputs that exit 2 are those of the point search.
    `m(<g|g^2>)` at degree 5 counts about 79,000.

    Without `target`: the list of all satisfying Homomorphisms, in
    enumeration order.  With `target`: a FiniteQuotient certificate for the
    first homomorphism sending the target word to a non-identity
    permutation, or None if none exists within the bound.  The target is
    compiled once per degree, its exponents reduced like the relators', and
    at each complete assignment points 0, 1, ... are traced through the
    image arrays until one moves; no permutation is composed and only the
    homomorphism returned is built.  The certificate is checked apart from
    the search by `TrivialityCertificate.revalidate`, which evaluates each
    relator and the target with whole permutations (`Homomorphism.evaluate`);
    `certify-nontrivial` runs it on every certificate it prints.
    A freely trivial target is None at once: every homomorphism fixes it.
    A target with a letter outside p's alphabet raises AlphabetMismatchError.
    """
    if not 1 <= degree_max <= 6:
        raise ValueError(f"degree_max must be in 1..6, got {degree_max}")
    if target is None:
        return list(_homomorphisms(p, degree_max))
    p.alphabet.check_word(target)
    if not target:
        return None
    hom = next(_homomorphisms(p, degree_max, target), None)
    if hom is None:
        return None
    return TrivialityCertificate(kind="FiniteQuotient", presentation=p, target=target, hom=hom)
