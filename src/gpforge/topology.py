"""Presentation complexes, barycentric subdivision, and triangulation.

The pipeline regularises the one-vertex presentation 2-complex by coning
each relator polygon from a fresh center vertex (one triangle per boundary
letter), which changes neither the Euler characteristic nor the
fundamental group, and then applies barycentric subdivision twice.  After
one subdivision every edge points from the barycenter of a lower
dimensional cell to that of a higher one; after two no loops, parallel
edges, or repeated triangles remain, so the result is a genuine abstract
simplicial complex (asserted, not assumed).

Simplicial file format (bit-exact): first line ``vertices N``, then one
``simplex i j [k]`` line per maximal simplex with ascending indices, lines
sorted lexicographically by index tuple; the reader takes them in any
order and returns the facets sorted, so a text reads equal to its
serialization.  As in ``.grp`` files, tokens are separated by spaces and
tabs and lines end in LF, CRLF or CR; any other whitespace character
outside a ``#`` comment is a ParseError.  All cell numbering is assigned
before fan-out, so outputs are bit-identical across runs.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass
from itertools import combinations
from typing import Dict, Iterable, Iterator, List, Set, Tuple

from .errors import InvalidComplexError, InvalidInputError, ParseError, SearchBudgetError
from .homology import AbelianGroup, ChainComplexData, SparseMatrix, invariant_factors
from .presentations import Presentation, _text_lines, validate
from .words import Alphabet, Word, cyclically_reduce, word

Side = Tuple[int, int]  # (edge index, orientation +1/-1)
Triangle = Tuple[Tuple[int, int, int], Tuple[Side, Side, Side]]

CELL_BUDGET = 5_000
"""Triangles `presentation_complex` may build, one per letter of a
cyclically reduced relator; `triangulate` makes 36 of each, at about
0.2-0.3 ms per letter (1.0-1.6 s of CPU time for 5,000 letters, Python
3.11 on one Xeon core)."""


@dataclass(frozen=True)
class DeltaComplex:
    """Triangles with identifications: dimension <= 2, ordered cells.

    Each triangle records corner vertices (v0, v1, v2) and sides
    (e01, e12, e02) with orientations; side e01 runs v0 -> v1 when its
    orientation is +1, v1 -> v0 when -1, and so on.
    """

    n_vertices: int
    edges: Tuple[Tuple[int, int], ...]
    triangles: Tuple[Triangle, ...]

    def __post_init__(self):
        n, edges = self.n_vertices, self.edges
        for tail, head in edges:
            if not (0 <= tail < n and 0 <= head < n):
                raise InvalidComplexError("edge endpoint out of range")
        n_edges = len(edges)
        for (v0, v1, v2), sides in self.triangles:
            for (eidx, orient), a, b in zip(sides, (v0, v1, v0), (v1, v2, v2)):
                if not 0 <= eidx < n_edges:
                    raise InvalidComplexError("triangle side out of range")
                if orient == 1:
                    tail, head = edges[eidx]
                elif orient == -1:
                    head, tail = edges[eidx]
                else:
                    raise InvalidComplexError("orientation must be +1 or -1")
                if tail != a or head != b:
                    raise InvalidComplexError("triangle face maps are inconsistent")

    def euler_characteristic(self) -> int:
        return self.n_vertices - len(self.edges) + len(self.triangles)


def presentation_complex(p: Presentation) -> DeltaComplex:
    """One basepoint, a loop per generator, a coned polygon per relator.

    Relators are cyclically reduced first (conjugators discarded; the
    fundamental group is unchanged).  Empty relators are rejected, and so
    is a complex of more than CELL_BUDGET triangles (SearchBudgetError),
    before anything is built.
    """
    diagnostics = validate(p)
    if diagnostics:
        raise InvalidInputError("; ".join(diagnostics))
    cores = [cyclically_reduce(rel)[0] for rel in p.relators]
    cells = sum(abs(e) for core in cores for _, e in core.letters)
    if cells > CELL_BUDGET:
        raise SearchBudgetError(f"the presentation complex would have {cells} triangles, more than {CELL_BUDGET}")
    loops = {sym: i for i, sym in enumerate(p.alphabet.symbols)}
    edges: List[Tuple[int, int]] = [(0, 0) for _ in p.alphabet.symbols]
    triangles: List[Triangle] = []
    n_vertices = 1
    for core in cores:
        boundary = list(core.single_letters())
        center = n_vertices
        n_vertices += 1
        length = len(boundary)
        spoke_base = len(edges)
        edges.extend((center, 0) for _ in range(length))
        for i, (sym, eps) in enumerate(boundary):
            s_i = spoke_base + i
            s_next = spoke_base + (i + 1) % length
            triangles.append(
                (
                    (center, 0, 0),
                    ((s_i, 1), (loops[sym], eps), (s_next, 1)),
                )
            )
    return DeltaComplex(n_vertices, tuple(edges), tuple(triangles))


def barycentric_subdivide(c: DeltaComplex) -> DeltaComplex:
    """Vertices of the output are the cells of the input; triangles are the
    flags vertex-slot < side-slot < triangle.  Each triangle yields six,
    each edge two; the Euler characteristic is preserved exactly.

    Numbering: vertex v stays v, edge e's barycenter is nv + e and
    triangle f's is nv + ne + f.  Edge e splits into halves 2e (at its
    tail) and 2e + 1 (at its head); triangle f then adds six spokes from
    its barycenter, to its corners and to its sides' barycenters."""
    nv = c.n_vertices
    ne = len(c.edges)
    new_edges: List[Tuple[int, int]] = []
    for m, (tail, head) in enumerate(c.edges, nv):
        new_edges += ((tail, m), (head, m))
    new_triangles: List[Triangle] = []
    base = 2 * ne
    for b, ((v0, v1, v2), ((e01, o01), (e12, o12), (e02, o02))) in enumerate(c.triangles, nv + ne):
        m01, m12, m02 = nv + e01, nv + e12, nv + e02
        new_edges += ((v0, b), (v1, b), (v2, b), (m01, b), (m12, b), (m02, b))
        c0, c1, c2 = (base, 1), (base + 1, 1), (base + 2, 1)
        s01, s12, s02 = (base + 3, 1), (base + 4, 1), (base + 5, 1)
        base += 6
        # The half of each side at its start corner; the other half is h ^ 1.
        h01 = 2 * e01 if o01 == 1 else 2 * e01 + 1
        h12 = 2 * e12 if o12 == 1 else 2 * e12 + 1
        h02 = 2 * e02 if o02 == 1 else 2 * e02 + 1
        new_triangles += (
            ((v0, m01, b), ((h01, 1), s01, c0)),
            ((v0, m02, b), ((h02, 1), s02, c0)),
            ((v1, m01, b), ((h01 ^ 1, 1), s01, c1)),
            ((v1, m12, b), ((h12, 1), s12, c1)),
            ((v2, m02, b), ((h02 ^ 1, 1), s02, c2)),
            ((v2, m12, b), ((h12 ^ 1, 1), s12, c2)),
        )
    return DeltaComplex(nv + ne + len(c.triangles), tuple(new_edges), tuple(new_triangles))


@dataclass(frozen=True)
class SimplicialComplex:
    """Abstract simplicial complex given by vertex count and maximal
    simplices (ascending index tuples of length 2 or 3; faces implied): an
    edge facet that is a side of a triangle facet is refused."""

    n_vertices: int
    facets: Tuple[Tuple[int, ...], ...]

    def __post_init__(self):
        seen: Set[Tuple[int, ...]] = set()
        for facet in self.facets:
            if len(facet) == 3:
                i, j, k = facet
                ascending = i < j < k
            elif len(facet) == 2:
                i, k = facet
                ascending = i < k
            else:
                raise InvalidComplexError("facets must be edges or triangles")
            if not ascending:
                raise InvalidComplexError("facet indices must be ascending and distinct")
            if i < 0 or k >= self.n_vertices:
                raise InvalidComplexError("facet vertex out of range")
            if facet in seen:
                raise InvalidComplexError("duplicate facet")
            seen.add(facet)
        if 2 in map(len, self.facets):
            sides = {side for facet in self.facets if len(facet) == 3 for side in combinations(facet, 2)}
            if not sides.isdisjoint(self.facets):
                raise InvalidComplexError("an edge facet is a side of a triangle facet")

    def edges(self) -> List[Tuple[int, int]]:
        return sorted({e for facet in self.facets for e in combinations(facet, 2)})

    def two_simplices(self) -> List[Tuple[int, int, int]]:
        return sorted(f for f in self.facets if len(f) == 3)

    def euler_characteristic(self) -> int:
        n_edges = len({e for facet in self.facets for e in combinations(facet, 2)})
        return self.n_vertices - n_edges + list(map(len, self.facets)).count(3)


def _component_count(n_vertices: int, edges: Iterable[Tuple[int, int]]) -> int:
    """Connected components of the graph on vertices 0..n-1 with these
    edges: one union-find over a parent list, with path halving."""
    parent = list(range(n_vertices))
    count = n_vertices
    for i, j in edges:
        while parent[i] != i:
            parent[i] = parent[parent[i]]
            i = parent[i]
        while parent[j] != j:
            parent[j] = parent[parent[j]]
            j = parent[j]
        if i != j:
            parent[i] = j
            count -= 1
    return count


def _bfs_tree(n_vertices: int, edges: List[Tuple[int, int]]) -> List[Tuple[int, int]]:
    """Edges (i < j) of the BFS tree from vertex 0 over a sorted edge list,
    which lists each vertex's neighbours in ascending order; it spans
    exactly when the complex is connected."""
    adjacency: List[List[int]] = [[] for _ in range(n_vertices)]
    for i, j in edges:
        adjacency[i].append(j)
        adjacency[j].append(i)
    tree: List[Tuple[int, int]] = []
    seen = {0}
    queue = deque([0] if n_vertices else [])
    while queue:
        u = queue.popleft()
        for v in adjacency[u]:
            if v not in seen:
                seen.add(v)
                tree.append((u, v) if u < v else (v, u))
                queue.append(v)
    return tree


def delta_to_simplicial(c: DeltaComplex) -> SimplicialComplex:
    """Convert, asserting simpliciality (no loops, no parallel edges,
    distinct triangle vertex sets).  A triangle's sides join its corners,
    so with loops refused its corners are distinct, and an edge is a face
    of a triangle exactly when one of the triangle's sides names it."""
    keys: Dict[Tuple[int, int], None] = {}  # in edge order
    for tail, head in c.edges:
        if tail == head:
            raise InvalidComplexError("loop edge: complex is not simplicial")
        key = (tail, head) if tail < head else (head, tail)
        if key in keys:
            raise InvalidComplexError("parallel edges: complex is not simplicial")
        keys[key] = None
    tri_sets: Set[Tuple[int, int, int]] = set()
    covered = bytearray(len(keys))
    for (i, j, k), ((e01, _), (e12, _), (e02, _)) in c.triangles:
        key = (i, j, k) if i < j < k else tuple(sorted((i, j, k)))  # subdivision's are ascending
        if key in tri_sets:
            raise InvalidComplexError("repeated 2-simplex vertex set")
        tri_sets.add(key)
        covered[e01] = covered[e12] = covered[e02] = 1
    facets: List[Tuple[int, ...]] = list(tri_sets)
    facets += (key for key, side in zip(keys, covered) if not side)
    facets.sort()
    return SimplicialComplex(c.n_vertices, tuple(facets))


def triangulate(p: Presentation) -> SimplicialComplex:
    """presentation_complex, two barycentric subdivisions, then
    `delta_to_simplicial`.  Each invariant is checked on the complex that
    establishes it: subdivision keeps the presentation complex's Euler
    characteristic 1 - |S| + |R|, and the subdivided complex is connected.
    The conversion refuses loops, parallel edges and repeated triangles, so
    the result has the subdivided complex's cells; its facets are sorted."""
    pc = presentation_complex(p)
    dc = barycentric_subdivide(barycentric_subdivide(pc))
    sc = delta_to_simplicial(dc)
    if dc.euler_characteristic() != pc.euler_characteristic():
        raise InvalidComplexError("subdivision changed the Euler characteristic")
    if _component_count(dc.n_vertices, dc.edges) > 1:
        raise InvalidComplexError("triangulation is not connected")
    return sc


def simplicial_chain_complex(x: SimplicialComplex) -> ChainComplexData:
    """Sparse boundary matrices with ascending-orientation conventions,
    built in one pass over the facets: an edge's index is the order in
    which the facets first name it, a triangle's its order among them.
    d2 has one row per edge, so a new edge appends its row; the three
    sides of a triangle are written out, as a loop over them is slower."""
    d1 = SparseMatrix(x.n_vertices, 0)
    d2 = SparseMatrix(0, 0)
    d1_rows, d2_rows = d1.entries, d2.entries
    index: Dict[Tuple[int, int], int] = {}
    get = index.get
    t = 0
    for facet in x.facets:
        if len(facet) == 2:
            i, j = facet
            e = index[facet] = len(d2_rows)
            d2_rows.append({})
            d1_rows[i][e] = -1
            d1_rows[j][e] = 1
            continue
        i, j, k = facet
        e = get((j, k))
        if e is None:
            e = index[(j, k)] = len(d2_rows)
            d2_rows.append({t: 1})
            d1_rows[j][e] = -1
            d1_rows[k][e] = 1
        else:
            d2_rows[e][t] = 1
        e = get((i, k))
        if e is None:
            e = index[(i, k)] = len(d2_rows)
            d2_rows.append({t: -1})
            d1_rows[i][e] = -1
            d1_rows[k][e] = 1
        else:
            d2_rows[e][t] = -1
        e = get((i, j))
        if e is None:
            e = index[(i, j)] = len(d2_rows)
            d2_rows.append({t: 1})
            d1_rows[i][e] = -1
            d1_rows[j][e] = 1
        else:
            d2_rows[e][t] = 1
        t += 1
    d1.cols = d2.rows = len(d2_rows)
    d2.cols = t
    return ChainComplexData(d1, d2)


def _incidence_columns(d1: SparseMatrix) -> Iterator[Tuple[int, int]]:
    """The two rows of each column of a simplicial d1, that is its edges,
    read off the rows."""
    first = [-1] * d1.cols
    for i, row in enumerate(d1.entries):
        for e in row:
            j = first[e]
            if j < 0:
                first[e] = i
            else:
                yield j, i


def simplicial_homology(x: SimplicialComplex) -> Tuple[AbelianGroup, AbelianGroup, AbelianGroup]:
    """(H0, H1, H2) over Z, ranks from matrix ranks and torsion of H_i
    from the invariant factors of d_{i+1}.

    d1 is the incidence matrix of the 1-skeleton, so its nonzero invariant
    factors are n0 - c ones, c the number of connected components: H0 is
    Z^c, and c comes from one union-find over d1's columns.  Only d2 goes
    through `invariant_factors`.  `check_composition` runs first, on the
    matrices read.
    """
    c = simplicial_chain_complex(x)
    c.check_composition()
    components = _component_count(c.n0, _incidence_columns(c.d1))
    f2 = invariant_factors(c.d2.entries)
    r1, r2 = c.n0 - components, len(f2)
    h0 = AbelianGroup(components)
    h1 = AbelianGroup(c.n1 - r1 - r2, tuple(f for f in f2 if f > 1))
    h2 = AbelianGroup(c.n2 - r2)
    return h0, h1, h2


def serialize_simplicial(x: SimplicialComplex) -> str:
    lines = [f"vertices {x.n_vertices}"]
    for facet in sorted(x.facets):
        lines.append("simplex " + " ".join(str(i) for i in facet))
    return "\n".join(lines)


def _parse_nonnegative(token: str, lineno: int) -> int:
    if not (token.isdecimal() and token.isascii()):
        raise ParseError(f"expected a nonnegative integer, got {token!r}", line=lineno)
    try:
        return int(token)
    except ValueError:  # past int()'s 4,300-digit limit
        raise ParseError(f"integer of {len(token)} digits is too long", line=lineno) from None


def parse_simplicial(text: str) -> SimplicialComplex:
    n_vertices = None
    facets: List[Tuple[int, ...]] = []
    for lineno, raw in enumerate(_text_lines(text), start=1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        directive, *args = line.split()
        if directive == "vertices":
            if n_vertices is not None:
                raise ParseError("duplicate vertices line", line=lineno)
            if len(args) != 1:
                raise ParseError("vertices line needs exactly one count", line=lineno)
            n_vertices = _parse_nonnegative(args[0], lineno)
        elif directive == "simplex":
            if len(args) not in (2, 3):
                raise ParseError("a simplex line needs 2 or 3 vertices", line=lineno)
            if line.isascii() and all(map(str.isdecimal, args)):
                try:
                    facets.append(tuple(map(int, args)))
                    continue
                except ValueError:  # past int()'s digit limit; the token is named below
                    pass
            facets.append(tuple(_parse_nonnegative(t, lineno) for t in args))
        else:
            raise ParseError(f"unknown directive {directive!r}", line=lineno)
    if n_vertices is None:
        raise ParseError("missing vertices line")
    return SimplicialComplex(n_vertices, tuple(sorted(facets)))


def edge_path_presentation(x: SimplicialComplex) -> Presentation:
    """Fundamental-group presentation from a deterministic BFS spanning
    tree rooted at vertex 0: generators are the non-tree edges, relators
    read off the 2-simplex boundaries."""
    edges = x.edges()
    tree = set(_bfs_tree(x.n_vertices, edges))
    if x.n_vertices > 1 and len(tree) != x.n_vertices - 1:
        raise InvalidComplexError("edge-path presentation needs a connected complex")
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
