"""Exact integer linear algebra: Smith normal form, invariant factors,
abelianizations, and the boundary matrices of two-dimensional chain
complexes.

All entries are Python ints (arbitrary precision); SNF intermediate growth
is real even for small relator matrices, so fixed-width arithmetic is never
used.  Boundary matrices are `SparseMatrix` (one {column: entry} dict per
row) from construction on; `IntegerMatrix` is the dense type of the SNF.

`smith_normal_form` is the dense SNF, with unimodular transforms U, V such
that U*A*V = D and a deterministic pivot policy.  `invariant_factors` is
the transform-free path over sparse rows, in three phases:

  1. pair merge: a row of two +-1 entries is a unit pivot whose whole
     elimination is one column operation, so its two columns are merged in
     a signed union-find kept in slot-indexed lists (Kaczynski-Mischaikow-
     Mrozek, Computational Homology, Ch. 4); most rows of a simplicial d2
     are such pairs.  A pair inside one class that sums to 0 is dropped;
     one that sums to +-2 is kept (RP^2's Z/2).  A simplicial d1 never
     comes here: it is a graph's incidence matrix, whose nonzero invariant
     factors are n0 - c ones for c connected components, so
     `topology.simplicial_homology` reads H0 off a component count;
  2. unit pivots: the remaining +-1 pivots are eliminated by sparse row
     operations, shortest rows first (Dumas-Saunders-Villard, JSC 2001);
  3. the small leftover block is diagonalised in place by `_diagonalize`,
     the one elimination behind `smith_normal_form` too, here with no
     transforms carried.
"""

from __future__ import annotations

import heapq
from dataclasses import dataclass
from typing import Dict, List, Mapping, Optional, Sequence, Tuple

from .errors import InvalidComplexError
from .presentations import Presentation


class IntegerMatrix:
    """A rows x cols integer matrix, row-major, mutable entries."""

    __slots__ = ("rows", "cols", "entries")

    def __init__(self, rows: int, cols: int, entries: Optional[Sequence[Sequence[int]]] = None):
        self.rows = rows
        self.cols = cols
        if entries is None:
            self.entries = [[0] * cols for _ in range(rows)]
        else:
            if len(entries) != rows or any(len(r) != cols for r in entries):
                raise ValueError("entry grid does not match declared dimensions")
            self.entries = [list(r) for r in entries]

    def __eq__(self, other):
        return (
            isinstance(other, IntegerMatrix)
            and self.rows == other.rows
            and self.cols == other.cols
            and self.entries == other.entries
        )

    def __matmul__(self, other: "IntegerMatrix") -> "IntegerMatrix":
        if self.cols != other.rows:
            raise ValueError("dimension mismatch in matrix product")
        out = IntegerMatrix(self.rows, other.cols)
        for i in range(self.rows):
            row = self.entries[i]
            orow = out.entries[i]
            for k, aik in enumerate(row):
                if aik:
                    brow = other.entries[k]
                    for j in range(other.cols):
                        if brow[j]:
                            orow[j] += aik * brow[j]
        return out

    def __repr__(self):
        return f"IntegerMatrix({self.rows}x{self.cols})"


class SparseMatrix:
    """A rows x cols integer matrix kept as one {column: nonzero entry}
    dict per row; the type of every boundary matrix."""

    __slots__ = ("rows", "cols", "entries")

    def __init__(self, rows: int, cols: int):
        self.rows = rows
        self.cols = cols
        self.entries: List[Dict[int, int]] = [{} for _ in range(rows)]

    def __repr__(self):
        return f"SparseMatrix({self.rows}x{self.cols})"


@dataclass(frozen=True)
class SnfResult:
    """D = U*A*V diagonal with d1 | d2 | ...; U, V unimodular."""

    D: IntegerMatrix
    U: IntegerMatrix
    V: IntegerMatrix

    @property
    def invariant_factors(self) -> Tuple[int, ...]:
        d = []
        for i in range(min(self.D.rows, self.D.cols)):
            v = self.D.entries[i][i]
            if v:
                d.append(abs(v))
        return tuple(d)


@dataclass(frozen=True)
class AbelianGroup:
    """Z^rank plus cyclic torsion factors forming a divisibility chain."""

    rank: int
    torsion: Tuple[int, ...] = ()

    def __post_init__(self):
        for a, b in zip(self.torsion, self.torsion[1:]):
            if b % a != 0:
                raise ValueError("torsion coefficients must form a divisibility chain")

    def __str__(self):
        parts = ["Z"] * self.rank + [f"Z/{t}" for t in self.torsion]
        return " + ".join(parts) if parts else "0"


def _diagonalize(rows: List[List[int]], m: int, n: int) -> int:
    """Bring the leading m x n block of `rows` to Smith form in place and
    return its rank r: the block's diagonal then reads d1 | d2 | ... | dr,
    all positive, and is zero elsewhere.

    Pivot policy: smallest nonzero absolute value in the remaining block,
    ties broken row-major; pivots are read from the block only.  A row
    operation acts on the whole of one of the first m rows, a column
    operation on columns < n of every row, so columns past n and rows past
    m carry along whatever transforms the caller seeded them with.
    """

    def row_swap(i, j):
        rows[i], rows[j] = rows[j], rows[i]

    def col_swap(i, j):
        for row in rows:
            row[i], row[j] = row[j], row[i]

    def row_add(src, dst, c):
        # dst += c * src
        rows[dst] = [x + c * y for x, y in zip(rows[dst], rows[src])]

    def col_add(src, dst, c):
        for row in rows:
            row[dst] += c * row[src]

    def negate_row(i):
        rows[i] = [-x for x in rows[i]]

    def find_pivot(t):
        best = None
        for i in range(t, m):
            for j in range(t, n):
                val = abs(rows[i][j])
                if val and (best is None or val < best[0]):
                    best = (val, i, j)
        return best

    t = 0
    while t < min(m, n):
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
            piv = rows[t][t]
            for i in range(t, m):
                if i == t or rows[i][t] == 0:
                    continue
                q = rows[i][t] // piv
                if q:
                    row_add(t, i, -q)
                if rows[i][t]:
                    # Remainder smaller than the pivot: promote it.
                    row_swap(t, i)
                    dirty = True
                    break
            if dirty:
                continue
            piv = rows[t][t]
            for j in range(t, n):
                if j == t or rows[t][j] == 0:
                    continue
                q = rows[t][j] // piv
                if q:
                    col_add(t, j, -q)
                if rows[t][j]:
                    col_swap(t, j)
                    dirty = True
                    break
            if dirty:
                continue
            # Row and column are clear; force divisibility of the rest.
            piv = rows[t][t]
            offender = None
            for i in range(t + 1, m):
                for j in range(t + 1, n):
                    if rows[i][j] % piv != 0:
                        offender = i
                        break
                if offender is not None:
                    break
            if offender is None:
                break
            row_add(offender, t, 1)
        if rows[t][t] < 0:
            negate_row(t)
        t += 1
    return t


def smith_normal_form(a: IntegerMatrix) -> SnfResult:
    """Diagonalise by unimodular row/column operations: U*A*V = D exactly,
    with D's nonnegative diagonal d1 | d2 | ....

    One elimination, `_diagonalize`, serves this and `invariant_factors`:
    here it runs on A with I_m appended to each row and the n rows of I_n
    below, so its row operations build U beside D and its column
    operations build V under it; `invariant_factors` passes its leftover
    block bare and carries no transforms.
    """
    m, n = a.rows, a.cols
    rows = [row + [int(i == k) for k in range(m)] for i, row in enumerate(a.entries)]
    rows += [[int(i == k) for k in range(n)] for i in range(n)]
    _diagonalize(rows, m, n)
    return SnfResult(
        D=IntegerMatrix(m, n, [row[:n] for row in rows[:m]]),
        U=IntegerMatrix(m, m, [row[n:] for row in rows[:m]]),
        V=IntegerMatrix(n, n, rows[m:]),
    )


def _merge_unit_pairs(rows: Sequence[Mapping[int, int]]) -> Tuple[int, List[Dict[int, int]]]:
    """Phase 1 of `invariant_factors`: (merges, residual rows).

    A row a*e_j + b*e_k with a, b = +-1 in the current columns is a unit
    pivot: the column operation col_k -= a*b*col_j empties it but for
    a*e_j, and dropping row and column j leaves every other row with its
    column-j entry v moved to column k as -a*b*v.  So column classes merge
    in a signed union-find (union by size, path halving) and each merge is
    one invariant factor 1.  A pair inside one class reads a+b, 0 or +-2.
    A 0 is dropped: a later merge multiplies both entries by the same root
    sign, so the row stays zero.  A +-2 is kept like every other row.  Kept
    rows are mapped through the final find only: later merges move the
    class roots.

    The union-find is kept in lists indexed by slot, one slot per column in
    the order the pair rows first name them (at most two per row), so
    nothing is sized by a column key.  A slot's sign is that of its column
    relative to its parent's column; a root's sign is 1.  A pair's entries
    are tracked by their product a*b only, which is all the merge sign and
    the in-class test read.
    """
    slot: Dict[int, int] = {}  # column -> slot
    claim = slot.setdefault
    n = 2 * len(rows)
    parent = list(range(n))
    sign = [1] * n
    size = [1] * n

    def find(s: int) -> Tuple[int, int]:
        """(root slot, sign of slot s relative to the root)."""
        acc = 1
        p = parent[s]
        while p != s:
            g = parent[p]
            up = sign[s] * sign[p]  # s relative to its grandparent
            parent[s] = g
            sign[s] = up
            acc *= up
            s = g
            p = parent[s]
        return s, acc

    merges = 0
    kept = []
    for row in rows:
        if len(row) == 2:
            (j, a), (k, b) = row.items()
            ab = a * b
            if ab == 1 or ab == -1:
                # A slot one step below its root, the common case, is
                # read inline, as a call costs more than the read; deeper
                # ones go through find.
                sj = claim(j, len(slot))
                p = parent[sj]
                if p != sj:
                    if parent[p] == p:
                        ab *= sign[sj]
                        sj = p
                    else:
                        sj, up = find(sj)
                        ab *= up
                sk = claim(k, len(slot))
                p = parent[sk]
                if p != sk:
                    if parent[p] == p:
                        ab *= sign[sk]
                        sk = p
                    else:
                        sk, up = find(sk)
                        ab *= up
                if sj != sk:
                    if size[sj] > size[sk]:
                        sj, sk = sk, sj
                    parent[sj] = sk
                    sign[sj] = -ab
                    size[sk] += size[sj]
                    merges += 1
                    continue
                if ab == -1:  # a + b == 0
                    continue
        kept.append(row)
    column = list(slot)  # slot -> column
    residual = []
    for row in kept:
        mapped: Dict[int, int] = {}
        for j, v in row.items():
            s = slot.get(j)
            if s is not None:
                s, up = find(s)
                j = column[s]
                v *= up
            mapped[j] = mapped.get(j, 0) + v
        residual.append({j: v for j, v in mapped.items() if v})
    return merges, residual


def invariant_factors(rows: Sequence[Mapping[int, int]]) -> List[int]:
    """Invariant factors of the matrix given as sparse rows ({column:
    entry} dicts, e.g. `SparseMatrix.entries`); the rows are not modified.

    Phase 1 merges the +-1 pairs (`_merge_unit_pairs`).  Phase 2
    eliminates the remaining +-1 pivots (shortest rows first, then least
    column fill) with exact integer row operations.  Each merge and each
    unit pivot contributes a leading invariant factor 1.  Rows without
    unit entries are parked and revisited when touched; whatever survives
    is diagonalised densely by `_diagonalize`, with no transforms.  All
    operations are unimodular, so the concatenation is the true
    invariant-factor chain.
    """
    units, residual = _merge_unit_pairs(rows)
    rowmap: dict = {}
    columns: dict = {}  # col -> set of row indices with a nonzero entry
    for i, entries in enumerate(residual):
        if entries:
            rowmap[i] = entries
            for j in entries:
                columns.setdefault(j, set()).add(i)
    version = {i: 0 for i in rowmap}
    heap = [(len(r), i, 0) for i, r in rowmap.items()]
    heapq.heapify(heap)

    while heap:
        _, pi, ver = heapq.heappop(heap)
        if pi not in rowmap or version[pi] != ver:
            continue
        prow = rowmap[pi]
        unit_cols = [j for j, v in prow.items() if v in (1, -1)]
        if not unit_cols:
            continue  # parked; re-pushed if a later elimination touches it
        pj = min(unit_cols, key=lambda j: (len(columns[j]), j))
        pval = prow[pj]
        del rowmap[pi]
        for j in prow:
            columns[j].discard(pi)
        # Each row is updated on its own, so the order of `targets` does
        # not matter; every one of them loses its entry in column pj.
        targets, columns[pj] = columns[pj], set()
        for i in targets:
            row = rowmap[i]
            factor = -row[pj] * pval  # row -= (row[pj] / pval) * prow, pval = +-1
            for j, v in prow.items():
                old = row.get(j, 0)
                new = old + factor * v
                if new:
                    if not old:
                        columns[j].add(i)
                    row[j] = new
                else:
                    del row[j]
                    columns[j].discard(i)
            if row:
                version[i] += 1
                heapq.heappush(heap, (len(row), i, version[i]))
            else:
                del rowmap[i]
        units += 1

    leftover_cols = sorted({j for row in rowmap.values() for j in row})
    colidx = {j: k for k, j in enumerate(leftover_cols)}
    dense = []
    for i in sorted(rowmap):
        row = [0] * len(leftover_cols)
        for j, v in rowmap[i].items():
            row[colidx[j]] = v
        dense.append(row)
    rank = _diagonalize(dense, len(dense), len(leftover_cols))
    return [1] * units + [dense[k][k] for k in range(rank)]


def relation_matrix(p: Presentation) -> SparseMatrix:
    """Exponent-sum matrix: one row per relator, one column per generator
    in alphabet order; zero sums are left out."""
    m = SparseMatrix(len(p.relators), len(p.alphabet))
    for row, rel in zip(m.entries, p.relators):
        for sym, exp in rel.letters:
            j = p.alphabet.index(sym)
            total = row.get(j, 0) + exp
            if total:
                row[j] = total
            else:
                del row[j]
    return m


def abelianization(p: Presentation) -> AbelianGroup:
    """H_1 of the presented group: cokernel of the exponent-sum matrix."""
    factors = [f for f in invariant_factors(relation_matrix(p).entries) if f]
    rank = len(p.alphabet) - len(factors)
    torsion = tuple(f for f in factors if f > 1)
    return AbelianGroup(rank, torsion)


@dataclass(frozen=True)
class ChainComplexData:
    """Boundary matrices d1: C1 -> C0 and d2: C2 -> C1 (rows index the
    target basis, columns the source basis)."""

    d1: SparseMatrix
    d2: SparseMatrix

    @property
    def n0(self) -> int:
        return self.d1.rows

    @property
    def n1(self) -> int:
        return self.d1.cols

    @property
    def n2(self) -> int:
        return self.d2.cols

    def check_composition(self) -> None:
        if self.d2.rows != self.d1.cols:
            raise InvalidComplexError("boundary matrix dimensions do not compose")
        d2_rows = self.d2.entries
        for row in self.d1.entries:
            acc: Dict[int, int] = {}
            for k, a in row.items():
                for j, b in d2_rows[k].items():
                    acc[j] = acc.get(j, 0) + a * b
            if any(acc.values()):
                raise InvalidComplexError("d1 * d2 != 0")
