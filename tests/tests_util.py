"""Shared helpers for the test suite."""

from itertools import combinations
from math import gcd
from typing import List, Tuple

from gpforge.homology import IntegerMatrix
from gpforge.presentations import Presentation
from gpforge.words import Alphabet, Word


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
