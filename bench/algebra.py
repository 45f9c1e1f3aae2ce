"""Independent arithmetic the benchmark checks the program's outputs with.

None of this imports `gpforge`: words are lists of (name, exponent)
pairs, permutations are tuples, and the Baumslag-Solitar image is an
affine map of the rationals.  Each function is the textbook version, kept
short so it can be read against its claim.
"""

from __future__ import annotations

from fractions import Fraction
from typing import Dict, List, Optional, Sequence, Tuple

Letter = Tuple[str, int]
Perm = Tuple[int, ...]


def parse_letters(text: str) -> List[Letter]:
    """The word text syntax: `ident('^'int)?` atoms, `1` for the empty word."""
    text = text.strip()
    if text == "1":
        return []
    out = []
    for atom in text.split():
        name, _, exp = atom.partition("^")
        out.append((name, int(exp) if exp else 1))
    return out


def free_reduce(letters: Sequence[Letter]) -> List[Letter]:
    """Run-length free reduction with a stack."""
    stack: List[List] = []
    for g, e in letters:
        if stack and stack[-1][0] == g:
            stack[-1][1] += e
            if stack[-1][1] == 0:
                stack.pop()
        elif e:
            stack.append([g, e])
    return [(g, e) for g, e in stack]


def parse_presentation(text: str) -> Tuple[List[str], List[List[Letter]]]:
    """`gens` and `rel` lines; `rel u = v` stores u v^-1."""
    gens: List[str] = []
    rels: List[List[Letter]] = []
    for line in text.splitlines():
        line = line.strip()
        if line.startswith("gens"):
            gens = line.split()[1:]
        elif line.startswith("rel "):
            body = line[4:]
            if " = " in body:
                left, right = body.split(" = ", 1)
                rels.append(parse_letters(left) + inverse(parse_letters(right)))
            else:
                rels.append(parse_letters(body))
    return gens, rels


def inverse(letters: Sequence[Letter]) -> List[Letter]:
    return [(g, -e) for g, e in reversed(letters)]


# ---------------------------------------------------------------------------
# Permutations of {0..d-1}, composed as (p * q)(x) = p(q(x)).
# ---------------------------------------------------------------------------


def perm_mul(p: Perm, q: Perm) -> Perm:
    return tuple(p[i] for i in q)


def perm_inv(p: Perm) -> Perm:
    out = [0] * len(p)
    for i, v in enumerate(p):
        out[v] = i
    return tuple(out)


def perm_eval(letters: Sequence[Letter], images: Dict[str, Perm], degree: int) -> Perm:
    out = tuple(range(degree))
    for g, e in letters:
        step = images[g] if e > 0 else perm_inv(images[g])
        for _ in range(abs(e)):
            out = perm_mul(out, step)
    return out


def perm_order(p: Perm) -> int:
    ident = tuple(range(len(p)))
    q, k = p, 1
    while q != ident:
        q, k = perm_mul(q, p), k + 1
    return k


def parse_cycles(text: str, degree: int) -> Perm:
    """1-based cycle notation such as `(1 2 3)(4 5)`; `()` is the identity."""
    perm = list(range(degree))
    for chunk in text.replace("(", " ").split(")"):
        points = [int(x) - 1 for x in chunk.split()]
        for a, b in zip(points, points[1:] + points[:1]):
            perm[a] = b
    return tuple(perm)


# ---------------------------------------------------------------------------
# BS(m, n) = <a, t | t^-1 a^m t = a^n>.
# ---------------------------------------------------------------------------


def bs_affine(letters: Sequence[Letter], m: int, n: int) -> Tuple[Fraction, Fraction]:
    """Image of a word under a -> (x -> x + 1), t -> (x -> (m/n) x), as
    (slope, offset).  The map is a homomorphism, so equal elements have
    equal images; it is not injective, so the check is one-sided."""
    slope, offset = Fraction(1), Fraction(0)
    ratio = Fraction(m, n)
    for g, e in letters:
        if g == "a":
            offset += slope * e  # f o (x -> x + e)
        else:
            slope *= ratio ** e  # f o (x -> ratio^e x)
    return slope, offset


def bs_pinch_free(letters: Sequence[Letter], m: int, n: int) -> bool:
    """No t^-1 a^k t with m | k and no t a^k t^-1 with n | k (k = 0
    included), reading stable-letter runs one letter at a time."""
    tokens: List[Tuple[str, int]] = []
    for g, e in letters:
        if g == "t":
            tokens.extend(("t", 1 if e > 0 else -1) for _ in range(abs(e)))
        elif g == "a":
            tokens.append(("a", e))
        else:
            return False
    for i, (kind, eps) in enumerate(tokens):
        if kind != "t":
            continue
        j, k = i + 1, 0
        if j < len(tokens) and tokens[j][0] == "a":
            k = tokens[j][1]
            j += 1
        if j < len(tokens) and tokens[j] == ("t", -eps):
            if k % (m if eps == -1 else n) == 0:
                return False
    return True


def bs_nontrivial_evidence(letters: Sequence[Letter], m: int, n: int) -> bool:
    """True when a homomorphic image certifies the word is not 1: a
    nonzero t-exponent sum, or an affine image other than the identity."""
    if sum(e for g, e in letters if g == "t"):
        return True
    return bs_affine(letters, m, n) != (Fraction(1), Fraction(0))


# ---------------------------------------------------------------------------
# Linear algebra over Q.
# ---------------------------------------------------------------------------


def rational_rank(rows: Sequence[Sequence[int]]) -> int:
    """Rank by Gaussian elimination over the rationals."""
    work = [[Fraction(x) for x in row] for row in rows if any(row)]
    rank = 0
    cols = len(work[0]) if work else 0
    for c in range(cols):
        pivot: Optional[int] = next((r for r in range(rank, len(work)) if work[r][c]), None)
        if pivot is None:
            continue
        work[rank], work[pivot] = work[pivot], work[rank]
        for r in range(len(work)):
            if r != rank and work[r][c]:
                f = work[r][c] / work[rank][c]
                work[r] = [x - f * y for x, y in zip(work[r], work[rank])]
        rank += 1
    return rank


def abelian_rank(gens: Sequence[str], relators: Sequence[Sequence[Letter]]) -> int:
    """Torsion-free rank of the abelianization: |S| minus the rank of the
    exponent-sum matrix."""
    index = {g: i for i, g in enumerate(gens)}
    rows = []
    for rel in relators:
        row = [0] * len(gens)
        for g, e in rel:
            row[index[g]] += e
        rows.append(row)
    return len(gens) - rational_rank(rows)
