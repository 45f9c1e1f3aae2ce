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
sorted lexicographically by index tuple.  All cell numbering is assigned
before fan-out, so outputs are bit-identical across runs.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass
from typing import Dict, List, Set, Tuple

from .errors import InvalidComplexError, InvalidInputError, ParseError, SearchBudgetError
from .homology import AbelianGroup, ChainComplexData, SparseMatrix, complex_homology, relation_matrix
from .presentations import Presentation, validate
from .words import Alphabet, Word, cyclically_reduce, word

Side = Tuple[int, int]  # (edge index, orientation +1/-1)
Triangle = Tuple[Tuple[int, int, int], Tuple[Side, Side, Side]]

CELL_BUDGET = 5_000
"""Triangles `presentation_complex` may build, one per letter of a
cyclically reduced relator; `triangulate` makes 36 of each, at about a
millisecond per letter."""


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
        for tail, head in self.edges:
            if not (0 <= tail < self.n_vertices and 0 <= head < self.n_vertices):
                raise InvalidComplexError("edge endpoint out of range")
        for corners, sides in self.triangles:
            v0, v1, v2 = corners
            expected = ((v0, v1), (v1, v2), (v0, v2))
            for (eidx, orient), (a, b) in zip(sides, expected):
                if not 0 <= eidx < len(self.edges):
                    raise InvalidComplexError("triangle side out of range")
                tail, head = self.edges[eidx]
                if orient == -1:
                    tail, head = head, tail
                elif orient != 1:
                    raise InvalidComplexError("orientation must be +1 or -1")
                if (tail, head) != (a, b):
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


@dataclass(frozen=True)
class SimplicialComplex:
    """Abstract simplicial complex given by vertex count and maximal
    simplices (ascending index tuples of length 2 or 3; faces implied)."""

    n_vertices: int
    facets: Tuple[Tuple[int, ...], ...]

    def __post_init__(self):
        seen: Set[Tuple[int, ...]] = set()
        for facet in self.facets:
            if len(facet) not in (2, 3):
                raise InvalidComplexError("facets must be edges or triangles")
            if list(facet) != sorted(set(facet)):
                raise InvalidComplexError("facet indices must be ascending and distinct")
            if facet[-1] >= self.n_vertices or facet[0] < 0:
                raise InvalidComplexError("facet vertex out of range")
            if facet in seen:
                raise InvalidComplexError("duplicate facet")
            seen.add(facet)

    def edges(self) -> List[Tuple[int, int]]:
        out: Set[Tuple[int, int]] = set()
        for facet in self.facets:
            if len(facet) == 2:
                out.add(facet)
            else:
                i, j, k = facet
                out.update(((i, j), (j, k), (i, k)))
        return sorted(out)

    def two_simplices(self) -> List[Tuple[int, int, int]]:
        return sorted(f for f in self.facets if len(f) == 3)

    def euler_characteristic(self) -> int:
        return self.n_vertices - len(self.edges()) + len(self.two_simplices())

    def spanning_tree(self) -> List[Tuple[int, int]]:
        """Edges (i < j) of the BFS tree from vertex 0, neighbours taken in
        ascending order; it spans exactly when the complex is connected."""
        adjacency: Dict[int, List[int]] = {i: [] for i in range(self.n_vertices)}
        for i, j in self.edges():
            adjacency[i].append(j)
            adjacency[j].append(i)
        tree: List[Tuple[int, int]] = []
        seen = {0}
        queue = deque([0] if self.n_vertices else [])
        while queue:
            u = queue.popleft()
            for v in sorted(adjacency[u]):
                if v not in seen:
                    seen.add(v)
                    tree.append((min(u, v), max(u, v)))
                    queue.append(v)
        return tree

    def is_connected(self) -> bool:
        return self.n_vertices <= 1 or len(self.spanning_tree()) == self.n_vertices - 1


def delta_to_simplicial(c: DeltaComplex) -> SimplicialComplex:
    """Convert, asserting simpliciality (no loops, no parallel edges,
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


def triangulate(p: Presentation) -> SimplicialComplex:
    """presentation_complex, two barycentric subdivisions, then the
    simplicial invariants are asserted; output facets sorted, connected."""
    dc = barycentric_subdivide(barycentric_subdivide(presentation_complex(p)))
    sc = delta_to_simplicial(dc)
    if sc.euler_characteristic() != dc.euler_characteristic():
        raise InvalidComplexError("subdivision changed the Euler characteristic")
    if not sc.is_connected():
        raise InvalidComplexError("triangulation is not connected")
    return sc


def simplicial_chain_complex(x: SimplicialComplex) -> ChainComplexData:
    """Sparse boundary matrices with ascending-orientation conventions."""
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


def simplicial_homology(x: SimplicialComplex) -> Tuple[AbelianGroup, AbelianGroup, AbelianGroup]:
    return complex_homology(simplicial_chain_complex(x))


def cw_chain_complex(p: Presentation) -> ChainComplexData:
    """Cellular chain complex of the one-vertex presentation 2-complex:
    d1 = 0 (loops), d2 = transposed exponent-sum matrix."""
    d2 = relation_matrix(p).transpose()
    return ChainComplexData(SparseMatrix(1, d2.rows), d2)


def serialize_simplicial(x: SimplicialComplex) -> str:
    lines = [f"vertices {x.n_vertices}"]
    for facet in sorted(x.facets):
        lines.append("simplex " + " ".join(str(i) for i in facet))
    return "\n".join(lines)


def _parse_nonnegative(token: str, lineno: int) -> int:
    if not token.isdecimal():
        raise ParseError(f"expected a nonnegative integer, got {token!r}", line=lineno)
    try:
        return int(token)
    except ValueError:  # past int()'s 4,300-digit limit
        raise ParseError(f"integer of {len(token)} digits is too long", line=lineno) from None


def parse_simplicial(text: str) -> SimplicialComplex:
    n_vertices = None
    facets: List[Tuple[int, ...]] = []
    for lineno, raw in enumerate(text.splitlines(), start=1):
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
            facets.append(tuple(_parse_nonnegative(t, lineno) for t in args))
        else:
            raise ParseError(f"unknown directive {directive!r}", line=lineno)
    if n_vertices is None:
        raise ParseError("missing vertices line")
    return SimplicialComplex(n_vertices, tuple(facets))


def edge_path_presentation(x: SimplicialComplex) -> Presentation:
    """Fundamental-group presentation from a deterministic BFS spanning
    tree rooted at vertex 0: generators are the non-tree edges, relators
    read off the 2-simplex boundaries."""
    tree = set(x.spanning_tree())
    if x.n_vertices > 1 and len(tree) != x.n_vertices - 1:
        raise InvalidComplexError("edge-path presentation needs a connected complex")
    edges = x.edges()
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
