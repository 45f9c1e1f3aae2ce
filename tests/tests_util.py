"""Shared helpers for the test suite."""

import math
from collections import deque
from itertools import combinations, permutations
from math import gcd
from typing import Dict, Iterator, List, Mapping, Optional, Sequence, Set, Tuple

from hypothesis import strategies as st

from gpforge import inference
from gpforge.combinators import AMALGAM, DIRECT_PRODUCT, FREE_PRODUCT, HNN, MITOSIS, MU_STAGE
from gpforge.homology import (
    AbelianGroup,
    ChainComplexData,
    IntegerMatrix,
    SnfResult,
    SparseMatrix,
    invariant_factors,
    relation_matrix,
)
from gpforge.errors import AlphabetMismatchError, InvalidComplexError, ParseError, SearchBudgetError
from gpforge.inference import Fact, Rule
from gpforge.meier import (
    _B,
    _A_SYM,
    _T_SYM,
    F_WORD_MAX_LEN,
    STATUS_EXHAUSTED,
    STATUS_IN_F,
    STATUS_UNKNOWN,
    f_generators,
    phi_apply,
)
from gpforge import presentations
from gpforge.presentations import Presentation
from gpforge.reductions import WordProblemSource
from gpforge.topology import DeltaComplex, Side, SimplicialComplex, Triangle
from gpforge import rewriting
from gpforge.rewriting import (
    _actions,
    SEGMENT_BIT_BUDGET,
    HnnRewriteSystem,
    Homomorphism,
    Perm,
    britton_normal_form,
    bs_canonical,
    bs_equal,
    bs_reduce,
    bs_system,
    evaluate_word,
)
from gpforge.words import (
    _IDENT_RE,
    _INTEGER_RE,
    EXPONENT_DIGIT_LIMIT,
    Alphabet,
    GeneratorSymbol,
    Word,
    _reduced,
    commutator,
    cyclically_reduce,
    substitute,
    word,
)


def random_presentation(rng, max_gens=4, max_rels=4, max_len=6):
    n = rng.randint(1, max_gens)
    alphabet = Alphabet([f"g{i}" for i in range(1, n + 1)])
    syms = list(alphabet.symbols)
    rels = []
    for _ in range(rng.randint(0, max_rels)):
        letters = [
            (rng.choice(syms), rng.choice([-2, -1, 1, 2]))
            for _ in range(rng.randint(1, max_len))
        ]
        w = Word(letters)
        if w:
            rels.append(w)
    return Presentation(alphabet, tuple(rels))


def random_word(rng, alphabet, max_len=12):
    syms = list(alphabet.symbols)
    letters = [
        (rng.choice(syms), rng.choice([-1, 1])) for _ in range(rng.randint(0, max_len))
    ]
    return Word(letters)


def _det(entries: List[List[int]]) -> int:
    """Exact determinant by cofactor expansion (small matrices only)."""
    n = len(entries)
    if n == 0:
        return 1
    if n == 1:
        return entries[0][0]
    if n == 2:
        return entries[0][0] * entries[1][1] - entries[0][1] * entries[1][0]
    total = 0
    rest = entries[1:]
    for j, a in enumerate(entries[0]):
        if not a:
            continue
        minor = [row[:j] + row[j + 1 :] for row in rest]
        total += (-1) ** j * a * _det(minor)
    return total


def det(m: IntegerMatrix) -> int:
    if m.rows != m.cols:
        raise ValueError("determinant of non-square matrix")
    return _det(m.entries)


def gcd_of_minors_factors(a: IntegerMatrix) -> Tuple[int, ...]:
    """Independent oracle: d_k = gcd(k-minors) / gcd((k-1)-minors).

    Exponential in matrix size; meant for matrices up to ~5x5.
    """
    m, n = a.rows, a.cols
    factors = []
    prev = 1
    for k in range(1, min(m, n) + 1):
        g = 0
        for rows_sel in combinations(range(m), k):
            for cols_sel in combinations(range(n), k):
                sub = [[a.entries[i][j] for j in cols_sel] for i in rows_sel]
                g = gcd(g, _det(sub))
                if g == 1:
                    break
            if g == 1:
                break
        if g == 0:
            break
        factors.append(g // prev)
        prev = g
    return tuple(factors)


def _identity(n: int) -> IntegerMatrix:
    m = IntegerMatrix(n, n)
    for i in range(n):
        m.entries[i][i] = 1
    return m


def separate_uv_smith_normal_form(a: IntegerMatrix) -> SnfResult:
    """Oracle for homology.smith_normal_form: the dense SNF it replaced,
    which carries U and V as separate matrices; kept verbatim but for the
    copy of A and the identities, built here (IntegerMatrix no longer has
    `copy` and `identity`).

    Diagonalise by unimodular row/column operations.

    Pivot policy: smallest nonzero absolute value in the remaining block,
    ties broken row-major.  The returned D has nonnegative diagonal with
    d1 | d2 | ...; U*A*V = D holds exactly.
    """
    d = IntegerMatrix(a.rows, a.cols, a.entries)
    u = _identity(a.rows)
    v = _identity(a.cols)
    m, n = a.rows, a.cols

    def row_swap(i, j):
        d.entries[i], d.entries[j] = d.entries[j], d.entries[i]
        u.entries[i], u.entries[j] = u.entries[j], u.entries[i]

    def col_swap(i, j):
        for row in d.entries:
            row[i], row[j] = row[j], row[i]
        for row in v.entries:
            row[i], row[j] = row[j], row[i]

    def row_add(src, dst, c):
        # dst += c * src
        ds, dd = d.entries[src], d.entries[dst]
        for k in range(n):
            dd[k] += c * ds[k]
        us, ud = u.entries[src], u.entries[dst]
        for k in range(m):
            ud[k] += c * us[k]

    def col_add(src, dst, c):
        for row in d.entries:
            row[dst] += c * row[src]
        for row in v.entries:
            row[dst] += c * row[src]

    def negate_row(i):
        d.entries[i] = [-x for x in d.entries[i]]
        u.entries[i] = [-x for x in u.entries[i]]

    def find_pivot(t):
        best = None
        for i in range(t, m):
            for j in range(t, n):
                val = abs(d.entries[i][j])
                if val and (best is None or val < best[0]):
                    best = (val, i, j)
        return best

    t = 0
    while True:
        found = find_pivot(t)
        if found is None:
            break
        _, pi, pj = found
        if pi != t:
            row_swap(t, pi)
        if pj != t:
            col_swap(t, pj)

        while True:
            # Clear column t below/above the pivot.
            dirty = False
            piv = d.entries[t][t]
            for i in range(t, m):
                if i == t or d.entries[i][t] == 0:
                    continue
                q = d.entries[i][t] // piv
                if q:
                    row_add(t, i, -q)
                if d.entries[i][t]:
                    # Remainder smaller than the pivot: promote it.
                    row_swap(t, i)
                    dirty = True
                    break
            if dirty:
                continue
            piv = d.entries[t][t]
            for j in range(t, n):
                if j == t or d.entries[t][j] == 0:
                    continue
                q = d.entries[t][j] // piv
                if q:
                    col_add(t, j, -q)
                if d.entries[t][j]:
                    col_swap(t, j)
                    dirty = True
                    break
            if dirty:
                continue
            # Row and column are clear; force divisibility of the rest.
            piv = d.entries[t][t]
            offender = None
            for i in range(t + 1, m):
                for j in range(t + 1, n):
                    if d.entries[i][j] % piv != 0:
                        offender = i
                        break
                if offender is not None:
                    break
            if offender is None:
                break
            row_add(offender, t, 1)
        if d.entries[t][t] < 0:
            negate_row(t)
        t += 1
        if t == min(m, n):
            break

    return SnfResult(D=d, U=u, V=v)


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


def whole_word_probe(max_len: int, budget: int) -> List[Tuple[Word, str]]:
    """Oracle for meier.double_coset_probe: the enumeration it replaced,
    kept verbatim, which rewrites phi(x) and x whole for every word x.

    Budgeted search for elements of phi^-1(F) and their F-membership.

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


def linear_scan_probe(max_len: int, budget: int) -> List[Tuple[Word, str]]:
    """Oracle for meier.double_coset_probe: each candidate is compared
    with the elements of F one `bs_equal` rewrite at a time, spending at
    most `budget` comparisons."""
    a_sym, t_sym = bs_system(2, 3).base.symbols[0], bs_system(2, 3).stable
    t_w, c_w = f_generators(bs_system(2, 3).presentation)
    f_syms = (GeneratorSymbol("ft"), GeneratorSymbol("fc"))
    f_images = {f_syms[0]: t_w, f_syms[1]: c_w}
    f_letters = [(f_syms[0], 1), (f_syms[0], -1), (f_syms[1], 1), (f_syms[1], -1)]
    f_elements = [substitute(f, f_images) for f in _reduced_words(f_letters, F_WORD_MAX_LEN)]
    results = []
    for x in _reduced_words([(a_sym, 1), (a_sym, -1), (t_sym, 1), (t_sym, -1)], max_len):
        if not _is_t_power(phi_apply(x), t_sym):
            continue
        if _is_t_power(bs_reduce(2, 3, x), t_sym):
            results.append((x, STATUS_IN_F))
            continue
        status = STATUS_UNKNOWN
        spent = 0
        for candidate in f_elements:
            if spent >= budget:
                status = STATUS_EXHAUSTED
                break
            spent += 1
            if bs_equal(2, 3, candidate, x):
                status = STATUS_IN_F
                break
        results.append((x, status))
    return results


def _edge_power(edge: Word, w: Word) -> Optional[int]:
    """The integer k with w = edge^k in the free base, or None."""
    if not w:
        return 0
    if len(edge.letters) == 1:
        # A generator power a^e (every BS edge): w must be a^(ke).
        (sym, e), = edge.letters
        if len(w.letters) != 1 or w.letters[0][0] != sym or w.letters[0][1] % e:
            return None
        return w.letters[0][1] // e
    core, conj = cyclically_reduce(edge)
    inner = (~conj) * w * conj
    if not inner:
        return 0
    total = len(inner)
    unit = len(core)
    if unit == 0 or total % unit:
        return None
    k = total // unit
    if core ** k == inner:
        return k
    if core ** (-k) == inner:
        return -k
    return None


def rewriting_is_pinch_free(sys: HnnRewriteSystem, w: Word) -> bool:
    """Oracle for rewriting.is_pinch_free: the version that rewrites w to
    its Britton form and compares, kept verbatim."""
    return britton_normal_form(sys, w) == w


def stack_britton_normal_form(sys: HnnRewriteSystem, w: Word) -> Word:
    """Oracle for rewriting.britton_normal_form: the list-stack rewriter
    over Word segments that the persistent integer state replaced, kept
    verbatim but for its edge words, u = a^m and v = a^n.

    Eliminate every pinch t^-1 u^k t -> v^k and t v^k t^-1 -> u^k,
    leftmost-innermost.

    The result is pinch-free; it is the identity iff it is the empty word,
    and a nonempty pinch-free word containing the stable letter is
    certified nontrivial (Britton's lemma).
    """
    t = sys.stable
    for sym, _ in w.letters:
        if sym != t and sym not in sys.base:
            raise AlphabetMismatchError(f"symbol {sym.name!r} is neither base nor stable letter")
    a = sys.base.symbols[0]
    left_edge, right_edge = word((a, sys.m)), word((a, sys.n))
    edge_ratio = _edge_power(left_edge, right_edge)

    # Stack of tokens: ('t', k), a run t^k with k != 0 (adjacent runs have
    # opposite signs), or ('w', Word over the base).
    stack: List[Tuple[str, object]] = []

    def push_base(u: Word) -> None:
        if not u:
            return
        if stack and stack[-1][0] == "w":
            stack[-1] = ("w", stack[-1][1] * u)
            if not stack[-1][1]:
                stack.pop()
        else:
            stack.append(("w", u))

    def push_stable(k: int) -> None:
        # Against t^-eps on top, the empty segment pinches, so letters
        # cancel a run at a time; across a base segment in the matching
        # edge subgroup each pinch consumes one letter of the run below and
        # one of t^k, and when v = u^+-1 the segment it leaves pinches
        # again, so the pinches down the run happen at once.  What is left
        # is pushed as one run.
        eps = 1 if k > 0 else -1
        edge_in = left_edge if eps == 1 else right_edge
        edge_out = right_edge if eps == 1 else left_edge
        left = abs(k)
        while left:
            if stack and stack[-1][0] == "t":
                run = stack[-1][1]
                if run * eps > 0:
                    stack[-1] = ("t", run + eps * left)
                    return
                step = min(left, abs(run))
                left -= step
                if run + eps * step:
                    stack[-1] = ("t", run + eps * step)
                else:
                    stack.pop()
                continue
            if len(stack) >= 2 and stack[-2][1] * eps < 0:
                p = _edge_power(edge_in, stack[-1][1])
                if p is not None:
                    stack.pop()
                    run = stack.pop()[1]
                    steps = 1
                    if edge_ratio in (1, -1):
                        steps = min(left, abs(run))
                        p *= edge_ratio ** (steps - 1)
                    if run + eps * steps:
                        stack.append(("t", run + eps * steps))
                    push_base(edge_out ** p)
                    left -= steps
                    continue
            stack.append(("t", eps * left))
            return

    for sym, exp in w.letters:
        if sym == t:
            push_stable(exp)
        else:
            push_base(word((sym, exp)))

    out: List[Tuple[GeneratorSymbol, int]] = []
    for tag, val in stack:
        if tag == "t":
            out.append((t, val))
        else:
            out.extend(val.letters)
    return Word(out)


def whole_permutation_homomorphisms(p: Presentation, degree_max: int) -> Iterator[Homomorphism]:
    """Oracle for rewriting.finite_quotient_search: each generator is given
    a whole permutation, in lexicographic order, and a relator is checked
    once every symbol in it has an image."""
    gens = list(p.alphabet.symbols)
    # Relator checkable at depth k once its symbols lie in gens[:k].
    checkable_at: List[List[Word]] = [[] for _ in range(len(gens) + 1)]
    for rel in p.relators:
        syms = {s for s, _ in rel.letters}
        depth = 0
        for k, g in enumerate(gens, start=1):
            if g in syms:
                depth = k
        checkable_at[depth].append(rel)

    for degree in range(1, degree_max + 1):
        perms = list(permutations(range(degree)))
        ident = tuple(range(degree))
        images: Dict[GeneratorSymbol, Tuple[int, ...]] = {}

        def assign(k: int) -> Iterator[Homomorphism]:
            if k == len(gens):
                yield Homomorphism(degree, dict(images))
                return
            for perm in perms:
                images[gens[k]] = perm
                if all(evaluate_word(rel, images, degree) == ident for rel in checkable_at[k + 1]):
                    yield from assign(k + 1)
            images.pop(gens[k], None)

        yield from assign(0)


def closes(steps: Tuple[List[int], ...], backs: Tuple[List[int], ...], first: int, end: int, start: int) -> bool:
    """Whether the trace of the letters steps[first:end] from `start` can
    still close on the partial permutations.  It runs forward while images
    are defined and back from the end while preimages are; it fails only
    when it is complete and ends off `start`, or when the two runs meet at
    different points."""
    x = start
    for i in range(first, end):
        y = steps[i][x]
        if y < 0:
            break
        x = y
    else:
        return x == start
    y = start
    for j in range(end - 1, i - 1, -1):
        z = backs[j][y]
        if z < 0:
            return True
        y = z
    return x == y


def scan_homomorphisms(p: Presentation, degree_max: int) -> Iterator[Homomorphism]:
    """Oracle for rewriting._homomorphisms: the same search over unpadded
    arrays, with one `closes` call per relator rotation and try."""
    gens = p.alphabet.symbols
    index = {g: k for k, g in enumerate(gens)}
    budget, nodes = rewriting.QUOTIENT_SEARCH_BUDGET, 0
    for degree in range(1, degree_max + 1):
        image = [[-1] * degree for _ in gens]
        preimage = [[-1] * degree for _ in gens]
        arrays = {1: (image, preimage), -1: (preimage, image)}
        # scans[k][sign]: the rotations of every relator that start with
        # gens[k]^sign, as (steps, backs, first, end) over the relator's
        # letters written twice; their traces start at the new point x, or
        # at its image v.  A relator that is a proper power is scanned
        # from each start in its root only.
        scans = [{1: [], -1: []} for _ in gens]
        period = math.lcm(*range(1, degree + 1))
        for rel in p.relators:
            acts = _actions(rel, index, period)
            m = len(acts)
            root = next((d for d in range(1, m + 1) if m % d == 0 and acts[d:] + acts[:d] == acts), 0)
            steps = tuple(arrays[sign][0][k] for k, sign in acts) * 2
            backs = tuple(arrays[sign][1][k] for k, sign in acts) * 2
            for j in range(root):
                k, sign = acts[j]
                scans[k][sign].append((steps, backs, j, j + m))
        perms: Dict[Perm, Perm] = {}  # one tuple per image, shared by all homomorphisms
        slots = len(gens) * degree
        slot, v = 0, 0
        while slot >= 0:
            if slot < slots:
                k, x = divmod(slot, degree)
                fwd, back = image[k], preimage[k]
                for v in range(v, degree):
                    if back[v] >= 0:
                        continue
                    nodes += 1
                    if nodes > budget:
                        raise SearchBudgetError(
                            f"finite-quotient search passed its budget of {budget} "
                            f"image assignments at degree {degree}"
                        )
                    fwd[x], back[v] = v, x
                    if all(closes(*scan, x) for scan in scans[k][1]) and all(
                        closes(*scan, v) for scan in scans[k][-1]
                    ):
                        break
                    fwd[x] = back[v] = -1
                else:
                    v = degree
                if v < degree:
                    slot, v = slot + 1, 0
                    continue
            else:
                images: Dict[GeneratorSymbol, Perm] = {}
                for k, g in enumerate(gens):
                    perm = tuple(image[k])
                    images[g] = perms.setdefault(perm, perm)
                yield Homomorphism(degree, images)
            slot -= 1
            if slot >= 0:
                k, x = divmod(slot, degree)
                v = image[k][x]
                image[k][x] = preimage[k][v] = -1
                v += 1


def scan_certificate(p: Presentation, degree_max: int, target: Word) -> Optional[Homomorphism]:
    """Oracle for finite_quotient_search's target mode: the first
    homomorphism of `scan_homomorphisms` whose `evaluate` moves the target."""
    for hom in scan_homomorphisms(p, degree_max):
        if hom.evaluate(target) != tuple(range(hom.degree)):
            return hom
    return None


def _isolated_symbol(rel: Word, sym: GeneratorSymbol) -> Optional[Word]:
    """If `rel` isolates `sym` (one occurrence, exponent +-1), return the
    word u with sym = u implied by rel; otherwise None."""
    occ = [e for s, e in rel.letters if s == sym]
    if len(occ) != 1 or abs(occ[0]) != 1:
        return None
    r = rel if occ[0] == 1 else ~rel
    j = next(k for k, (s, _) in enumerate(r.letters) if s == sym)
    # r rotated at j reads sym * tail, so sym = tail^-1; the two slices are
    # reduced and can merge only at their seam.
    tail = _reduced(r.letters[j + 1 :]) * _reduced(r.letters[:j])
    return ~tail


def rescan_tietze_simplify(p: Presentation) -> Presentation:
    """Oracle for presentations.tietze_simplify: each move rescans every
    relator for an empty one, then every (symbol, relator) pair for an
    isolated symbol, and substitutes into every remaining relator."""
    symbols = list(p.alphabet.symbols)
    relators = [cyclically_reduce(r)[0] for r in p.relators]
    steps = 0
    while steps < presentations.TIETZE_BUDGET:
        idx = next((i for i, r in enumerate(relators) if not r), None)
        if idx is not None:
            del relators[idx]
            steps += 1
            continue
        chosen = None
        for sym in reversed(symbols):
            for i, rel in enumerate(relators):
                value = _isolated_symbol(rel, sym)
                if value is not None:
                    chosen = (sym, i, value)
                    break
            if chosen is not None:
                break
        if chosen is None:
            break
        sym, i, value = chosen
        mapping = {s: Word(((s, 1),)) for s in symbols if s != sym}
        mapping[sym] = value
        relators = [
            cyclically_reduce(substitute(r, mapping))[0]
            for j, r in enumerate(relators)
            if j != i
        ]
        symbols.remove(sym)
        steps += 1
    return Presentation(Alphabet(symbols), tuple(relators), p.name)


def word_commutators(pp: Presentation, renaming: Dict[GeneratorSymbol, Word]) -> List[Word]:
    """Oracle for combinators._commutators, built by Word arithmetic."""
    return [commutator(word(x), y) for x in pp.alphabet for y in renaming.values()]


def word_mitosis_relators(gens, s: GeneratorSymbol, d: GeneratorSymbol) -> List[Word]:
    """Oracle for combinators._mitosis_relators, built by Word arithmetic."""
    sw, dw = word(s), word(d)
    rels: List[Word] = []
    for g in gens:
        gw = word(g)
        rels.append((~dw) * gw * dw * ~(gw * (~sw) * gw * sw))
    for g in gens:
        gw = word(g)
        for h in gens:
            hw = word(h)
            rels.append(commutator(gw, (~sw) * hw * sw))
    return rels


def canonical_rename(p: Presentation) -> Presentation:
    """Rename generators to g1, g2, ... preserving order."""
    mapping: Dict[GeneratorSymbol, Word] = {}
    new_syms = []
    for i, sym in enumerate(p.alphabet, start=1):
        new_sym = GeneratorSymbol(f"g{i}")
        new_syms.append(new_sym)
        mapping[sym] = Word(((new_sym, 1),))
    return Presentation(
        Alphabet(new_syms), tuple(substitute(r, mapping) for r in p.relators), p.name
    )


def canonical_form(p: Presentation) -> Presentation:
    """Canonical renaming plus a deterministic relator order, for comparing
    presentations that agree up to bookkeeping (e.g. associativity of the
    product combinators)."""
    renamed = canonical_rename(p)

    def key(rel: Word):
        return tuple((renamed.alphabet.index(s), e) for s, e in rel.letters)

    return Presentation(renamed.alphabet, tuple(sorted(renamed.relators, key=key)), p.name)


def parse_cycles(text: str, degree: int) -> Perm:
    """Inverse of `permutation_cycles`."""
    perm = list(range(degree))
    text = text.strip()
    if text == "()":
        return tuple(perm)
    for chunk in text.replace(")", ")|").split("|"):
        chunk = chunk.strip()
        if not chunk:
            continue
        pts = [int(x) - 1 for x in chunk.strip("()").split()]
        for a, b in zip(pts, pts[1:] + pts[:1]):
            perm[a] = b
    return tuple(perm)


def bs_source(m: int, n: int) -> WordProblemSource:
    """The BS(m, n) word-problem source, as `--oracle bs:m,n` builds it
    with a TorsionFree fact asserted."""
    system = bs_system(m, n)
    return WordProblemSource(system.presentation, system, (("TorsionFree", None),))


def _embedding_children(ctx, i: int) -> List[int]:
    """Children known to embed into node i (factor/base inclusions)."""
    family = ctx.family[i]
    if family in (FREE_PRODUCT, DIRECT_PRODUCT, MITOSIS, MU_STAGE, HNN):
        return ctx.kids[i]
    if family == AMALGAM and ctx.nodes[i].payload.get("edges_legitimate"):
        return ctx.kids[i]
    return []


def scan_r8(ctx, facts):
    """Oracle for inference R8: every amalgam node in turn."""
    for i in ctx.of(AMALGAM):
        dc = Fact(i, "EdgeDoubleCosetsAtLeast3")
        proper = Fact(i, "EdgeProperContainment")
        if dc in facts and proper in facts:
            yield Fact(i, "LargeHb", 2), (dc, proper)


def scan_r18(ctx, facts):
    """Oracle for inference R18: every amalgam node in turn."""
    for i in ctx.of(AMALGAM):
        edge = Fact(i, "EdgeAmenable")
        if edge in facts:
            for f in facts.of("LargeHb", "LonebPositive", "LonebLarge", nodes=ctx.kids[i]):
                yield Fact(i, f.predicate, f.arg), (edge, f)


def scan_r20(ctx, facts):
    """Oracle for inference R20: subgroup monotonicity scans every node and
    its embedding children."""
    for f in facts.of("Finite", "CdbEquals0", "Amenable", "HdbEquals0", "NonvanishingHb"):
        if f.predicate == "Finite":
            yield Fact(f.node, "CdbEquals0"), (f,)
        elif f.predicate == "CdbEquals0":
            yield Fact(f.node, "Finite"), (f,)
            yield Fact(f.node, "HdbEquals0"), (f,)
        elif f.predicate == "Amenable":
            yield Fact(f.node, "HdbEquals0"), (f,)
        elif f.predicate == "HdbEquals0":
            yield Fact(f.node, "Amenable"), (f,)
        elif f.predicate == "NonvanishingHb":
            yield Fact(f.node, "CdbAtLeast", f.arg), (f,)
    for i in range(len(ctx.nodes)):
        for child in _embedding_children(ctx, i):
            for f in facts.of("CdbAtLeast", nodes=(child,)):
                yield Fact(i, "CdbAtLeast", f.arg), (f,)


def scan_rules() -> Tuple[Rule, ...]:
    """inference.RULES with R8, R18 and R20 scanning the tree's nodes
    instead of reading their premises from the fact index."""
    scans = {"R8": scan_r8, "R18": scan_r18, "R20": scan_r20}
    return tuple(Rule(r.id, r.citation, scans.get(r.id, r.step)) for r in inference.RULES)


def per_flag_barycentric_subdivide(c: DeltaComplex) -> DeltaComplex:
    """Oracle for topology.barycentric_subdivide: the version that builds
    two dicts per triangle and recomputes each flag's midpoint, kept
    verbatim.

    Vertices of the output are the cells of the input; triangles are the
    flags vertex-slot < side-slot < triangle.  Each triangle yields six,
    each edge two; the Euler characteristic is preserved exactly."""
    nv = c.n_vertices
    ne = len(c.edges)
    edge_bary = lambda e: nv + e
    tri_bary = lambda f: nv + ne + f
    new_vertices = nv + ne + len(c.triangles)

    new_edges: List[Tuple[int, int]] = []
    # Halves of old edges: ids 2e (tail half) and 2e+1 (head half).
    for e, (tail, head) in enumerate(c.edges):
        new_edges.append((tail, edge_bary(e)))
        new_edges.append((head, edge_bary(e)))
    # Per-triangle spokes: corner slots then side slots, 6 per triangle.
    tri_edge_base = 2 * ne
    for f, (corners, sides) in enumerate(c.triangles):
        for v in corners:
            new_edges.append((v, tri_bary(f)))
        for eidx, _ in sides:
            new_edges.append((edge_bary(eidx), tri_bary(f)))

    def half_at_start(side: Side) -> int:
        eidx, orient = side
        return 2 * eidx if orient == 1 else 2 * eidx + 1

    def half_at_end(side: Side) -> int:
        eidx, orient = side
        return 2 * eidx + 1 if orient == 1 else 2 * eidx

    new_triangles: List[Triangle] = []
    for f, (corners, sides) in enumerate(c.triangles):
        base = tri_edge_base + 6 * f
        corner_spoke = {k: base + k for k in range(3)}
        side_spoke = {s: base + 3 + s for s in range(3)}
        side01, side12, side02 = sides
        b = tri_bary(f)
        # (corner slot, side slot, the half edge touching that corner).
        flags = (
            (0, 0, half_at_start(side01)),
            (0, 2, half_at_start(side02)),
            (1, 0, half_at_end(side01)),
            (1, 1, half_at_start(side12)),
            (2, 2, half_at_end(side02)),
            (2, 1, half_at_end(side12)),
        )
        for corner_slot, side_slot, half in flags:
            v = corners[corner_slot]
            m = edge_bary(sides[side_slot][0])
            new_triangles.append(
                (
                    (v, m, b),
                    ((half, 1), (side_spoke[side_slot], 1), (corner_spoke[corner_slot], 1)),
                )
            )
    return DeltaComplex(new_vertices, tuple(new_edges), tuple(new_triangles))


def resorting_delta_to_simplicial(c: DeltaComplex) -> SimplicialComplex:
    """Oracle for topology.delta_to_simplicial: the version that sorts
    every triangle's corners and the facets twice, kept verbatim.

    Convert, asserting simpliciality (no loops, no parallel edges,
    distinct triangle vertex sets)."""
    edge_sets: Dict[Tuple[int, int], int] = {}
    for tail, head in c.edges:
        if tail == head:
            raise InvalidComplexError("loop edge: complex is not simplicial")
        key = (min(tail, head), max(tail, head))
        if key in edge_sets:
            raise InvalidComplexError("parallel edges: complex is not simplicial")
        edge_sets[key] = 1
    tri_sets: Set[Tuple[int, ...]] = set()
    covered_edges: Set[Tuple[int, int]] = set()
    for corners, _ in c.triangles:
        key = tuple(sorted(corners))
        if len(set(corners)) != 3:
            raise InvalidComplexError("degenerate triangle: complex is not simplicial")
        if key in tri_sets:
            raise InvalidComplexError("repeated 2-simplex vertex set")
        tri_sets.add(key)
        i, j, k = key
        covered_edges.update(((i, j), (j, k), (i, k)))
    facets: List[Tuple[int, ...]] = sorted(tri_sets)
    for key in sorted(edge_sets):
        if key not in covered_edges:
            facets.append(key)
    return SimplicialComplex(c.n_vertices, tuple(sorted(facets, key=lambda t: (t, len(t)))))


def update_edges(x: SimplicialComplex) -> List[Tuple[int, int]]:
    """Oracle for SimplicialComplex.edges, kept verbatim."""
    out: Set[Tuple[int, int]] = set()
    for facet in x.facets:
        if len(facet) == 2:
            out.add(facet)
        else:
            i, j, k = facet
            out.update(((i, j), (j, k), (i, k)))
    return sorted(out)


def resorting_spanning_tree(x: SimplicialComplex) -> List[Tuple[int, int]]:
    """Oracle for topology._bfs_tree over `x.edges()`: the version that
    sorts each vertex's neighbours, kept verbatim.

    Edges (i < j) of the BFS tree from vertex 0, neighbours taken in
    ascending order; it spans exactly when the complex is connected."""
    adjacency: Dict[int, List[int]] = {i: [] for i in range(x.n_vertices)}
    for i, j in update_edges(x):
        adjacency[i].append(j)
        adjacency[j].append(i)
    tree: List[Tuple[int, int]] = []
    seen = {0}
    queue = deque([0] if x.n_vertices else [])
    while queue:
        u = queue.popleft()
        for v in sorted(adjacency[u]):
            if v not in seen:
                seen.add(v)
                tree.append((min(u, v), max(u, v)))
                queue.append(v)
    return tree


def transpose(m: SparseMatrix) -> SparseMatrix:
    """The transpose of a sparse matrix (formerly SparseMatrix.transpose,
    kept verbatim)."""
    t = SparseMatrix(m.cols, m.rows)
    for i, row in enumerate(m.entries):
        for j, v in row.items():
            t.entries[j][i] = v
    return t


def cw_chain_complex(p: Presentation) -> ChainComplexData:
    """Cellular chain complex of the one-vertex presentation 2-complex:
    d1 = 0 (loops), d2 = transposed exponent-sum matrix.  The CW-homology
    reference the triangulation is compared against."""
    d2 = transpose(relation_matrix(p))
    return ChainComplexData(SparseMatrix(1, d2.rows), d2)


def complex_homology(c: ChainComplexData) -> Tuple[AbelianGroup, AbelianGroup, AbelianGroup]:
    """Oracle for topology.simplicial_homology, and the homology of any
    2-dimensional chain complex: the former homology.complex_homology,
    kept verbatim but for the transpose.

    (H0, H1, H2) of a 2-dimensional chain complex over Z.

    H_i = ker d_i / im d_{i+1}; ranks from matrix ranks, torsion of H_i
    from the invariant factors of d_{i+1}.  d1 goes in by columns (the
    transpose has the same invariant factors): each column of a simplicial
    d1 is a +-1 pair, so its pair merge is a connectivity pass.
    """
    c.check_composition()
    f1 = [f for f in invariant_factors(transpose(c.d1).entries) if f]
    f2 = [f for f in invariant_factors(c.d2.entries) if f]
    r1, r2 = len(f1), len(f2)
    h0 = AbelianGroup(c.n0 - r1, tuple(f for f in f1 if f > 1))
    h1 = AbelianGroup(c.n1 - r1 - r2, tuple(f for f in f2 if f > 1))
    h2 = AbelianGroup(c.n2 - r2, tuple())
    return h0, h1, h2


def sorted_simplicial_chain_complex(x: SimplicialComplex) -> ChainComplexData:
    """Oracle for topology.simplicial_chain_complex: the version that
    numbers the edges and triangles in sorted order, kept verbatim.

    Sparse boundary matrices with ascending-orientation conventions."""
    edges = x.edges()
    tris = x.two_simplices()
    edge_index = {e: i for i, e in enumerate(edges)}
    d1 = SparseMatrix(x.n_vertices, len(edges))
    for col, (i, j) in enumerate(edges):
        d1.entries[i][col] = -1
        d1.entries[j][col] = 1
    d2 = SparseMatrix(len(edges), len(tris))
    for col, (i, j, k) in enumerate(tris):
        d2.entries[edge_index[(j, k)]][col] = 1
        d2.entries[edge_index[(i, k)]][col] = -1
        d2.entries[edge_index[(i, j)]][col] = 1
    return ChainComplexData(d1, d2)


def dict_merge_unit_pairs(rows: Sequence[Mapping[int, int]]) -> Tuple[int, List[Dict[int, int]]]:
    """Oracle for homology._merge_unit_pairs: the version whose signed
    union-find is a dict of (parent, sign) tuples with a recursive find,
    kept verbatim."""
    link: Dict[int, Tuple[int, int]] = {}  # column -> (parent, sign)
    size: Dict[int, int] = {}

    def find(j: int) -> Tuple[int, int]:  # j in link; depth <= log2(size)
        up = link[j]
        if up[0] not in link:
            return up
        root, sign = find(up[0])
        link[j] = found = (root, sign * up[1])
        return found

    kept = []
    for row in rows:
        if len(row) == 2:
            (j, a), (k, b) = row.items()
            if a in (1, -1) and b in (1, -1):
                if j in link:
                    j, sign = find(j)
                    a *= sign
                if k in link:
                    k, sign = find(k)
                    b *= sign
                if j != k:
                    if size.get(j, 1) > size.get(k, 1):
                        j, k = k, j
                    link[j] = (k, -a * b)
                    size[k] = size.get(k, 1) + size.pop(j, 1)
                    continue
                if a + b == 0:
                    continue
        kept.append(row)
    residual = []
    for row in kept:
        mapped: Dict[int, int] = {}
        for j, v in row.items():
            if j in link:
                j, sign = find(j)
                v *= sign
            mapped[j] = mapped.get(j, 0) + v
        residual.append({j: v for j, v in mapped.items() if v})
    return len(link), residual


def rebuilding_edge_path_presentation(x: SimplicialComplex) -> Presentation:
    """Oracle for topology.edge_path_presentation: the version that builds
    the edge list twice, kept verbatim but for the oracle edge list and
    spanning tree."""
    tree = set(resorting_spanning_tree(x))
    if x.n_vertices > 1 and len(tree) != x.n_vertices - 1:
        raise InvalidComplexError("edge-path presentation needs a connected complex")
    edges = update_edges(x)
    non_tree = [e for e in edges if e not in tree]
    names = [f"e{i+1}" for i in range(len(non_tree))]
    alphabet = Alphabet(names)
    gen_of = {edge: alphabet.symbol(names[i]) for i, edge in enumerate(non_tree)}

    def edge_word(u: int, v: int) -> Word:
        key = (min(u, v), max(u, v))
        if key in tree:
            return Word()
        sym = gen_of[key]
        return word(sym) if (u, v) == key else ~word(sym)

    relators = []
    for i, j, k in x.two_simplices():
        rel = edge_word(i, j) * edge_word(j, k) * edge_word(k, i)
        if rel:
            relators.append(rel)
    return Presentation(alphabet, tuple(relators), name="edge-path")


def normalising_parse_word(text: str, alphabet: Optional[Alphabet] = None, *, line: Optional[int] = None) -> Word:
    """Oracle for words.parse_word: the version that checks every token,
    collects the letters and normalises them with Word(...), kept verbatim
    but for the column, which counts from the start of `text`."""
    stripped = text.strip()
    if stripped == "1":
        return Word()
    if not stripped:
        raise ParseError("empty word text (use '1' for the identity)", line=line)
    letters = []
    made: Dict[str, GeneratorSymbol] = {}
    pos = 0
    for token in stripped.split():
        pos = text.index(token, pos)
        col = pos + 1
        pos += len(token)
        ident, caret, expstr = token.partition("^")
        if not _IDENT_RE.match(ident):
            raise ParseError(f"bad word atom {token!r}", line=line, column=col)
        if caret:
            if not _INTEGER_RE.match(expstr):
                raise ParseError(f"bad exponent in atom {token!r}", line=line, column=col)
            digits = len(expstr.lstrip("-"))
            if digits > EXPONENT_DIGIT_LIMIT:
                raise ParseError(
                    f"exponent in atom {token[:len(ident) + 12]!r}... has {digits} digits,"
                    f" more than {EXPONENT_DIGIT_LIMIT}",
                    line=line,
                    column=col,
                )
            exp = int(expstr)
        else:
            exp = 1
        if alphabet is not None:
            sym = alphabet.symbol(ident)
        elif ident in made:
            sym = made[ident]
        else:
            sym = made[ident] = GeneratorSymbol(ident)
        letters.append((sym, exp))
    return Word(letters)


def normalising_bs_canonical_pass(m: int, n: int, nf: Word) -> Word:
    """Oracle for rewriting.bs_canonical_pass: the version that appends
    every run, zero segments included, and normalises them with
    Word(...), kept verbatim."""
    a = bs_system(m, n).base.symbols[0]
    out: List[Tuple[GeneratorSymbol, int]] = []
    e = 0
    for sym, k in nf.letters:
        if sym == a:
            e += k
            continue
        eps = 1 if k > 0 else -1
        into, across = (m, n) if eps == 1 else (n, m)
        left = abs(k)
        while left and e:
            r = e % abs(into)
            out += ((a, r), (sym, eps))
            e = (e - r) // into * across
            if e.bit_length() > SEGMENT_BIT_BUDGET and abs(across) > abs(into):
                raise SearchBudgetError(f"a carry would grow a base segment past {SEGMENT_BIT_BUDGET} bits")
            left -= 1
        out.append((sym, eps * left))
    out.append((a, e))
    return Word(out)


@st.composite
def near_grammar_texts(draw, lines):
    """Texts of up to six lines, each from one of `lines`, pairs of a
    directive strategy and a token-list strategy: the directive, then its
    tokens, each after any blank (spaces, tab; form feed and no-break
    space, which the grammars refuse).  A line may be indented; lines end in LF, CRLF or CR."""
    out = []
    for directive, tokens in draw(st.lists(st.sampled_from(lines), max_size=6)):
        parts = [draw(directive)]
        for token in draw(tokens):
            parts += [draw(st.sampled_from([" ", "  ", "\t", " \t", "\f", "\xa0"])), token]
        out.append(draw(st.sampled_from(["", " ", "\t"])) + "".join(parts))
    eol = draw(st.sampled_from(["\n", "\r\n", "\r"]))
    return eol.join(out) + draw(st.sampled_from(["", eol]))
