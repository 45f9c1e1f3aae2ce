"""Forward-chaining rule engine over GroupExpr trees.

Derives dimension-level bounded-cohomology properties (bounded acyclicity,
large or nonvanishing H^n_b, l1-Betti positivity, dimension bounds) with
citation-bearing certificates.  Analytic objects are never represented;
every rule works on predicates attached to construction-tree nodes.

Facts attach to node occurrences by pre-order position: a subtree object
that occurs twice in the tree has two positions.  Externally asserted
facts live in Atom payloads only (`combinators.atom(facts=...)`);
everything else is either structural (read off node kinds and
construction-certified payload tags) or derived by the catalogued rules
R1..R21 (R7 intentionally unused).
Rules read facts through one index, `_Facts`, always in derivation order,
so the certificate kept for a fact does not depend on how facts are stored.
Negative facts are never derived: absence means "not derivable", never
"false".

Deliberately absent rules: no quotient-closure rule for bounded
acyclicity (whether the class is quotient-closed is an open problem) and
no left-exactness reasoning; contradictions arise only from definitional
clashes, reported by check_consistency.
"""

from __future__ import annotations

from bisect import bisect_left
from collections import defaultdict
from dataclasses import dataclass
from typing import Dict, List, NamedTuple, Optional, Sequence, Set, Tuple, Union

from .combinators import (
    AMALGAM,
    ATOM,
    DIRECT_PRODUCT,
    FAMILY,
    FORMS,
    FREE_PRODUCT,
    GroupExpr,
    HNN,
    MITOSIS,
    MU_STAGE,
)
from .errors import InvalidInputError, ParseError

# Argument kinds of a predicate (None: it takes no argument).
DEGREE = "degree"  # an integer >= 0: a degree, a dimension or a count
NODE = "node id"  # the pre-order id of another node


class Predicate(NamedTuple):
    """A `.gx`/`--query` name (None: never asserted or queried) and an argument kind."""

    name: Optional[str]
    arg: Optional[str] = None


# The predicate registry: Fact, `.gx` `:facts` and `infer --query` all check against it.
PREDICATES: Dict[str, Predicate] = {
    "Amenable": Predicate("amenable"),
    "Finite": Predicate("finite"),
    "Mitotic": Predicate("mitotic"),
    "BoundedlyAcyclic": Predicate("boundedly-acyclic"),
    "NonvanishingHb": Predicate("nonvanishing-hb", DEGREE),
    "LargeHb": Predicate("large-hb", DEGREE),
    "LonebPositive": Predicate("loneb-positive", DEGREE),
    "LonebLarge": Predicate("loneb-large", DEGREE),
    "ContainsF2": Predicate("contains-f2"),
    "AcylHyp": Predicate("acyl-hyp"),
    "NonelemFreeProduct": Predicate("nonelem-free-product"),
    "TorsionFree": Predicate("torsion-free"),
    "FinGen": Predicate("fin-gen", DEGREE),
    "FinPres": Predicate("fin-pres"),
    "NotFinPres": Predicate("not-fin-pres"),
    "RecPres": Predicate("rec-pres"),
    "HypManifoldGroup": Predicate("hyp-manifold", DEGREE),
    "ThompsonT": Predicate("thompson-t"),
    "IsoToSelfTimesSelf": Predicate("iso-to-self-times-self"),
    "AscendingHnn": Predicate("ascending-hnn"),
    "CdbAtLeast": Predicate("cdb-at-least", DEGREE),
    "CdbEquals0": Predicate("cdb-equals-0"),
    "HdbEquals0": Predicate("hdb-equals-0"),
    "MuEmbedsBack": Predicate("mu-embeds-back"),
    "CoAmenableIn": Predicate(None, NODE),
    "SurjectsOnto": Predicate(None, NODE),
    "RetractOf": Predicate(None, NODE),
    "SelfEmbeddingHnn": Predicate(None),
    "EdgeDoubleCosetsAtLeast3": Predicate(None),
    "EdgeProperContainment": Predicate(None),
    "EdgeAmenable": Predicate(None),
}
_BY_NAME = {p.name: predicate for predicate, p in PREDICATES.items() if p.name}

MAX_DEGREE = 12  # derive's default depth
# derive's largest depth: the degree rules (R17 above all) cost time
# quadratic in it.
MAX_QUERY_DEGREE = 256


def _arg_problem(kind: Optional[str], arg) -> Optional[str]:
    """What is wrong with `arg` as an argument of this kind, or None."""
    if kind is None:
        return None if arg is None else f"takes no argument, got {arg!r}"
    if type(arg) is not int or arg < 0:
        return f"needs a {kind} argument >= 0, got {arg!r}"
    return None


def parse_fact(name: str, arg: object = None) -> Tuple[str, Optional[int]]:
    """(predicate, argument) of an assertable fact read from text, else ParseError."""
    predicate = _BY_NAME.get(name)
    if predicate is None:
        raise ParseError(f"unknown predicate {name!r}")
    problem = _arg_problem(PREDICATES[predicate].arg, arg)
    if problem:
        raise ParseError(f"{name} {problem}")
    return predicate, arg


@dataclass(frozen=True)
class Fact:
    """subject node id, predicate name, optional argument."""

    node: int
    predicate: str
    arg: Optional[int] = None

    def __post_init__(self):
        spec = PREDICATES.get(self.predicate)
        if spec is None:
            raise InvalidInputError(f"unknown predicate {self.predicate!r}")
        problem = _arg_problem(spec.arg, self.arg)
        if problem:
            raise InvalidInputError(f"{self.predicate} {problem}")

    def render(self) -> str:
        if self.arg is None:
            return f"{self.predicate}@n{self.node}"
        return f"{self.predicate}({self.arg})@n{self.node}"


@dataclass(frozen=True)
class Certificate:
    """A derivation-tree node: conclusion, rule id, citation, premises.

    Leaves carry rule A0 (asserted base fact) or a structural S-rule; the
    tree is acyclic and re-checkable by replaying each rule on its
    premises.
    """

    fact: Fact
    rule: str
    citation: str
    premises: Tuple["Certificate", ...] = ()

    def render(self) -> str:
        """One line per certificate in pre-order, each premise indented two
        spaces under its conclusion.  Iterative, so depth is bounded by
        memory, not by the Python stack."""
        lines, stack = [], [(self, 0)]
        while stack:
            cert, depth = stack.pop()
            lines.append(f"{'  ' * depth}{cert.rule} {cert.fact.render()} -- {cert.citation}")
            stack.extend((prem, depth + 1) for prem in reversed(cert.premises))
        return "\n".join(lines)


class _Context:
    """Indexed view of a GroupExpr tree, built in one pre-order walk: one
    position per node occurrence, so a subtree object that occurs twice
    gets two positions and every position's children are its own.
    `embeds_into[i]` is the parent that position i embeds into by a factor
    or base inclusion, or None."""

    def __init__(self, expr: GroupExpr, max_degree: int):
        self.max_degree = max_degree
        self.nodes: List[GroupExpr] = []
        self.kids: List[List[int]] = []
        self.family: List[str] = []
        self.embeds_into: List[Optional[int]] = []
        self.by_family: Dict[str, List[int]] = {family: [] for family in FAMILY.values()}
        stack = [(expr, None, None)]
        while stack:
            node, parent, host = stack.pop()
            i = len(self.nodes)
            if parent is not None:
                self.kids[parent].append(i)
            family = FAMILY[node.kind]
            self.nodes.append(node)
            self.kids.append([])
            self.family.append(family)
            self.embeds_into.append(host)
            self.by_family[family].append(i)
            embeds = family in (FREE_PRODUCT, DIRECT_PRODUCT, MITOSIS, MU_STAGE, HNN) or (
                family == AMALGAM and node.payload.get("edges_legitimate")
            )
            stack.extend((child, i, i if embeds else None) for child in reversed(node.children))

    def of(self, *families: str) -> List[int]:
        """Ascending positions of the nodes in these families (each family's
        list is built ascending, so only several families need a merge)."""
        if len(families) == 1:
            return list(self.by_family[families[0]])
        return sorted(i for family in families for i in self.by_family[family])


class _Facts:
    """The facts of one derivation with their certificates, in derivation
    order, indexed by predicate and by (node, predicate)."""

    def __init__(self, certificates: Dict[Fact, Certificate]):
        self.certificates = certificates
        self.position: Dict[Fact, int] = {}
        self.by_predicate: Dict[str, List[Fact]] = defaultdict(list)
        self.by_node: Dict[Tuple[int, str], List[Fact]] = defaultdict(list)

    def __contains__(self, fact: Fact) -> bool:
        return fact in self.certificates

    def add(self, fact: Fact, cert: Certificate) -> None:
        """Keep a fact's first certificate only."""
        self.certificates.setdefault(fact, cert)
        if len(self.position) < len(self.certificates):  # it was new
            self.position[fact] = len(self.position)
            self.by_predicate[fact.predicate].append(fact)
            self.by_node[fact.node, fact.predicate].append(fact)

    def of(self, *predicates: str, nodes: Sequence[int] = (), since: int = 0) -> List[Fact]:
        """A new list of the facts with these predicates (about these nodes,
        if given) at positions `since` and later: those a scan of all
        facts, in order, would find now."""
        index = self.by_node if nodes else self.by_predicate
        keys = [(n, p) for n in nodes for p in predicates] if nodes else predicates
        if len(keys) == 1:
            return self._tail(index.get(keys[0], ()), since)
        found = (f for key in keys for f in self._tail(index.get(key, ()), since))
        return sorted(found, key=self.position.__getitem__)

    def _tail(self, facts: Sequence[Fact], since: int) -> List[Fact]:
        """A new list of a position-ordered list's facts from position `since` on."""
        if not since or not facts:
            return list(facts)
        if self.position[facts[-1]] < since:
            return []
        return facts[bisect_left(facts, since, key=self.position.__getitem__) :]

    def new(self, since: int, *premises: Fact) -> bool:
        """Whether one of these known facts sits at position `since` or later."""
        return not since or any(self.position[p] >= since for p in premises)


# ---------------------------------------------------------------------------
# Rules.  Each step function yields (fact, premise_facts) pairs derivable in
# one application from the current facts, in the order of a scan of them
# all, but skips every pair whose premises all sit before position `since`:
# the rule's previous run met those pairs already.  The fixpoint loop adds
# the new conclusions.
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class Rule:
    id: str
    citation: str
    premises: Tuple[str, ...]  # the predicates of the premise facts its step yields
    step: object  # callable(ctx, facts: _Facts, since: int) -> iterable[(Fact, tuple[Fact, ...])]
    premise_free: bool = False  # whether its step also yields conclusions without premises


def _r1(ctx, facts, since):
    for f in facts.of("Amenable", since=since):
        yield Fact(f.node, "BoundedlyAcyclic"), (f,)


def _r2(ctx, facts, since):
    for f in facts.of("Mitotic", since=since):
        yield Fact(f.node, "BoundedlyAcyclic"), (f,)


def _r3(ctx, facts, since):
    for i in ctx.of(HNN):
        if not ctx.nodes[i].payload.get("ascending"):
            continue
        (base,) = ctx.kids[i]
        bac = Fact(base, "BoundedlyAcyclic")
        if bac in facts and facts.new(since, bac):
            yield Fact(i, "BoundedlyAcyclic"), (bac,)
        chain_tag = Fact(i, "SelfEmbeddingHnn")
        back = Fact(base, "MuEmbedsBack")
        if chain_tag in facts and back in facts and facts.new(since, chain_tag, back):
            yield Fact(i, "BoundedlyAcyclic"), (chain_tag, back)


def _r4(ctx, facts, since):
    for f in facts.of("CoAmenableIn"):
        bac = Fact(f.node, "BoundedlyAcyclic")
        if bac in facts and facts.new(since, f, bac):
            yield Fact(f.arg, "BoundedlyAcyclic"), (f, bac)


def _r5(ctx, facts, since):
    for i in ctx.of(DIRECT_PRODUCT):
        p, q = ctx.kids[i]
        for kernel, quotient in ((p, q), (q, p)):
            kb = Fact(kernel, "BoundedlyAcyclic")
            qb = Fact(quotient, "BoundedlyAcyclic")
            tb = Fact(i, "BoundedlyAcyclic")
            if kb in facts and qb in facts and facts.new(since, kb, qb):
                yield tb, (kb, qb)
            if kb in facts and tb in facts and facts.new(since, kb, tb):
                yield Fact(quotient, "BoundedlyAcyclic"), (kb, tb)


def _r6(ctx, facts, since):
    for i in ctx.of(MITOSIS, MU_STAGE):
        # Premise-free conclusions: `since` is 0 on the rule's first run
        # (every tree's atoms seed facts before it) and in replay.
        if not since:
            yield Fact(i, "ContainsF2"), ()
        if ctx.family[i] == MU_STAGE:
            if not since:
                yield Fact(i, "BoundedlyAcyclic"), ()
                yield Fact(i, "NotFinPres"), ()
            (base,) = ctx.kids[i]
            for f in facts.of("FinGen", "RecPres", nodes=(base,), since=since):
                if f.predicate == "FinGen":
                    yield Fact(i, "FinGen", f.arg + 3), (f,)
                else:
                    yield Fact(i, "RecPres"), (f,)


def _r8(ctx, facts, since):
    for dc in facts.of("EdgeDoubleCosetsAtLeast3"):
        proper = Fact(dc.node, "EdgeProperContainment")
        if proper in facts and facts.new(since, dc, proper):
            yield Fact(dc.node, "LargeHb", 2), (dc, proper)


def _r9(ctx, facts, since):
    for f in facts.of("SurjectsOnto"):
        large = Fact(f.arg, "LargeHb", 2)
        if large in facts and facts.new(since, f, large):
            yield Fact(f.node, "LargeHb", 2), (f, large)


def _r10(ctx, facts, since):
    for f in facts.of("RetractOf"):
        for g in facts.of("LargeHb", nodes=(f.node,), since=0 if facts.new(since, f) else since):
            yield Fact(f.arg, "LargeHb", g.arg), (f, g)


def _r11(ctx, facts, since):
    for f in facts.of("AcylHyp", since=since):
        yield Fact(f.node, "LargeHb", 2), (f,)
        yield Fact(f.node, "LargeHb", 3), (f,)


def _r12(ctx, facts, since):
    for f in facts.of("IsoToSelfTimesSelf"):
        large2 = Fact(f.node, "LargeHb", 2)
        if large2 in facts and facts.new(since, f, large2):
            for n in range(2, ctx.max_degree + 1, 2):
                yield Fact(f.node, "LargeHb", n), (f, large2)


def _r13(ctx, facts, since):
    for i in ctx.of(DIRECT_PRODUCT):
        kids = ctx.kids[i]
        pos = [facts.of("LonebPositive", nodes=(k,)) for k in kids]
        large = [facts.of("LonebLarge", nodes=(k,)) for k in kids]
        for lefts, rights, predicate in (
            (large[0], pos[1] + large[1], "LonebLarge"),
            (large[1], pos[0] + large[0], "LonebLarge"),
            (pos[0], pos[1], "LonebPositive"),
        ):
            for fk in lefts:
                old = not facts.new(since, fk)
                for fm in rights:
                    if old and not facts.new(since, fm):
                        continue
                    if fk.arg >= 1 and fm.arg >= 1 and fk.arg + fm.arg <= ctx.max_degree:
                        yield Fact(i, predicate, fk.arg + fm.arg), (fk, fm)


def _r14(ctx, facts, since):
    for f in facts.of("LonebLarge", "LonebPositive", "LargeHb", "NonvanishingHb", since=since):
        if f.predicate == "LonebLarge" and f.arg >= 2:
            yield Fact(f.node, "LargeHb", f.arg), (f,)
        elif f.predicate == "LonebPositive" and f.arg >= 1:
            yield Fact(f.node, "NonvanishingHb", f.arg), (f,)
        elif f.predicate == "LargeHb" and f.arg == 2:
            yield Fact(f.node, "LonebLarge", 2), (f,)
        elif f.predicate == "NonvanishingHb" and f.arg == 2:
            yield Fact(f.node, "LonebPositive", 2), (f,)


def _r15(ctx, facts, since):
    for f in facts.of("HypManifoldGroup", since=since):
        yield Fact(f.node, "LonebPositive", f.arg), (f,)
        if f.arg >= 2:
            yield Fact(f.node, "AcylHyp"), (f,)


def _r16(ctx, facts, since):
    for f in facts.of("ThompsonT", since=since):
        for n in range(2, ctx.max_degree + 1, 2):
            yield Fact(f.node, "NonvanishingHb", n), (f,)


def _r17(ctx, facts, since):
    for i in ctx.of(DIRECT_PRODUCT):
        kids = ctx.kids[i]
        for g_side, l_side in (kids, kids[::-1]):
            hyp3 = Fact(l_side, "HypManifoldGroup", 3)
            if hyp3 not in facts:
                continue
            for n in range(2, ctx.max_degree + 1):
                evens = [Fact(g_side, "NonvanishingHb", k) for k in range(2, max(2, n) + 1, 2)]
                if all(e in facts for e in evens) and facts.new(since, hyp3, *evens):
                    yield Fact(i, "LargeHb", n), tuple(evens) + (hyp3,)


def _r18(ctx, facts, since):
    # Edge facts are structural seeds, so a combination is new when its
    # lifted fact is.  Seeds are laid down in pre-order, so a parent's
    # edge precedes its children's: this run's conclusions, about an
    # edge's node, are read only by its parent's edge, already passed, and
    # the lifted facts listed here are all that the edges can read.
    edges = facts.of("EdgeAmenable")
    owner = {kid: edge.node for edge in edges for kid in ctx.kids[edge.node]}
    lifted = defaultdict(list)
    for f in facts.of("LargeHb", "LonebPositive", "LonebLarge", since=since):
        if f.node in owner:
            lifted[owner[f.node]].append(f)
    for edge in edges:
        for f in lifted[edge.node]:
            yield Fact(edge.node, f.predicate, f.arg), (edge, f)


def _r19(ctx, facts, since):
    for f in facts.of("NonelemFreeProduct", since=since):
        yield Fact(f.node, "AcylHyp"), (f,)


def _r20(ctx, facts, since):
    for f in facts.of("Finite", "CdbEquals0", "Amenable", "HdbEquals0", "NonvanishingHb", since=since):
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
    # Subgroup monotonicity along embedding edges, in the order of a scan
    # over parents ascending, then their children.  The facts yielded here
    # are about parents, which precede their children in pre-order, so that
    # scan would not meet them: the list taken here is all it would read.
    up = [f for f in facts.of("CdbAtLeast", since=since) if ctx.embeds_into[f.node] is not None]
    for f in sorted(up, key=lambda f: (ctx.embeds_into[f.node], f.node)):
        yield Fact(ctx.embeds_into[f.node], "CdbAtLeast", f.arg), (f,)


def _r21(ctx, facts, since):
    for f in facts.of("ContainsF2", since=since):
        yield Fact(f.node, "CdbAtLeast", 3), (f,)


RULES: Tuple[Rule, ...] = (
    Rule("R1", "Johnson: amenable groups are boundedly acyclic", ("Amenable",), _r1),
    Rule("R2", "Loeh: mitotic groups are boundedly acyclic", ("Mitotic",), _r2),
    Rule(
        "R3",
        "Monod-Popa co-amenability: ascending HNN-extensions of boundedly "
        "acyclic groups are boundedly acyclic; a base containing its own "
        "boundedly acyclic hull certifies the same for the tagged extension",
        ("BoundedlyAcyclic", "SelfEmbeddingHnn", "MuEmbedsBack"),
        _r3,
    ),
    Rule("R4", "co-amenable subgroups inject in bounded cohomology (Monod-Popa)", ("CoAmenableIn", "BoundedlyAcyclic"), _r4),
    Rule("R5", "extensions with boundedly acyclic kernel: total is boundedly acyclic iff the quotient is", ("BoundedlyAcyclic",), _r5),
    Rule(
        "R6",
        "the two fresh mitosis letters generate a free group of rank 2; the "
        "mu hull of an n-generated group is a boundedly acyclic, "
        "(n+3)-generated, never finitely presented ascending HNN-extension "
        "of a mitotic group, recursively presented when the input is",
        ("FinGen", "RecPres"),
        _r6,
        premise_free=True,
    ),
    Rule("R8", "amalgams with >= 3 double cosets of a proper edge subgroup have large second bounded cohomology (Grigorchuk, Fujiwara)", ("EdgeDoubleCosetsAtLeast3", "EdgeProperContainment"), _r8),
    Rule("R9", "epimorphisms induce injections on second bounded cohomology (Bouarich)", ("SurjectsOnto", "LargeHb"), _r9),
    Rule("R10", "a retraction induces an injection of the retract's bounded cohomology", ("RetractOf", "LargeHb"), _r10),
    Rule("R11", "acylindrically hyperbolic groups have large second (Hull-Osin) and third (Frigerio-Pozzetti-Sisto) bounded cohomology", ("AcylHyp",), _r11),
    Rule("R12", "a group isomorphic to its direct square with large second bounded cohomology is large in all even degrees", ("IsoToSelfTimesSelf", "LargeHb"), _r12),
    Rule("R13", "l1-Betti numbers are supermultiplicative under direct products", ("LonebPositive", "LonebLarge"), _r13),
    Rule(
        "R14",
        "duality: dim H^k_b >= b_k (all k), with the degree-2 converse "
        "b_2 >= dim H^2_b (Matsumoto-Morita)",
        ("LonebLarge", "LonebPositive", "LargeHb", "NonvanishingHb"),
        _r14,
    ),
    Rule("R15", "closed hyperbolic n-manifolds have nonzero simplicial volume (Gromov, Thurston), hence b_n > 0; their groups are acylindrically hyperbolic for n >= 2", ("HypManifoldGroup",), _r15),
    Rule("R16", "cup powers of the bounded Euler class of the circle-homeomorphism Thompson group are nonzero in all even degrees (Ghys-Sergiescu, Burger-Monod)", ("ThompsonT",), _r16),
    Rule("R17", "even-degree nonvanishing times a hyperbolic 3-manifold group has large bounded cohomology in every degree >= 2", ("NonvanishingHb", "HypManifoldGroup"), _r17),
    Rule("R18", "amalgams over amenable edges admit isometric embeddings from their factors in bounded cohomology and injections in reduced l1-homology", ("EdgeAmenable", "LargeHb", "LonebPositive", "LonebLarge"), _r18),
    Rule("R19", "nonelementary free products are acylindrically hyperbolic (Minasyan-Osin)", ("NonelemFreeProduct",), _r19),
    Rule(
        "R20",
        "cd_b = 0 iff finite; hd_b = 0 iff amenable; hd_b <= cd_b; both "
        "dimensions are monotone under subgroups",
        ("Finite", "CdbEquals0", "Amenable", "HdbEquals0", "NonvanishingHb", "CdbAtLeast"),
        _r20,
    ),
    Rule("R21", "groups containing F_2 are non-amenable and have cd_b >= 3 (random F_2 subgroups, Monod)", ("ContainsF2",), _r21),
)

A0_CITATION = "asserted base fact"

_STRUCTURAL_CITATIONS = {
    "S1": "a finite presentation is finitely presented, finitely generated by its listed generators, and recursively presented",
    "S2": "the base of an ascending HNN-extension is co-amenable in it (Monod-Popa)",
    "S3": "direct factors are retracts",
    "S4": "construction-certified tag recorded by the combinator",
}


def _structural_facts(ctx: _Context):
    """Yield (rule_id, fact) for structure-derived seed facts."""
    for i, node in enumerate(ctx.nodes):
        family = ctx.family[i]
        payload = node.payload
        if family == ATOM:
            pres = node.realized
            yield "S1", Fact(i, "FinPres")
            yield "S1", Fact(i, "FinGen", len(pres.alphabet))
            yield "S1", Fact(i, "RecPres")
        if family == HNN and payload.get("ascending"):
            (base,) = ctx.kids[i]
            yield "S2", Fact(base, "CoAmenableIn", i)
        if family == DIRECT_PRODUCT:
            for child in ctx.kids[i]:
                yield "S3", Fact(child, "RetractOf", i)
        for tag in FORMS[family].tags:
            if tag.predicate and payload.get(tag.key) and (tag.needs is None or payload.get(tag.needs)):
                arg = ctx.kids[i][0] if PREDICATES[tag.predicate].arg == NODE else None
                yield tag.rule, Fact(i, tag.predicate, arg)


class Derivation:
    """The least fixpoint of the rule set over one expression tree, with
    degree-parameterised facts up to `max_degree` <= MAX_QUERY_DEGREE."""

    def __init__(self, expr: GroupExpr, max_degree: int):
        if max_degree > MAX_QUERY_DEGREE:
            raise ValueError(f"degree must be <= {MAX_QUERY_DEGREE}, got {max_degree}")
        self.expr = expr
        self.max_degree = max_degree
        self.ctx = _Context(expr, max_degree)
        self.certificates: Dict[Fact, Certificate] = {}
        self._run()

    # -- derivation -------------------------------------------------------

    def _seed(self, facts: _Facts):
        for i in self.ctx.of(ATOM):
            for pred, arg in self.ctx.nodes[i].payload.get("facts", ()):
                fact = Fact(i, pred, arg)
                # Structural predicates, node-argument ones among them, are S-rule seeds only.
                if PREDICATES[pred].name is None:
                    raise InvalidInputError(f"{pred} is structural and cannot be asserted")
                facts.add(fact, Certificate(fact, "A0", A0_CITATION))
        for rule_id, fact in _structural_facts(self.ctx):
            facts.add(fact, Certificate(fact, rule_id, _STRUCTURAL_CITATIONS[rule_id]))

    def _run(self):
        """Semi-naive evaluation.  Each rule keeps a watermark, the fact
        count when its previous run started.  It runs only when one of its
        premise predicates gained a fact since then (its bit in `pending`),
        and reads only the premise combinations that hold such a fact; a
        rule with premise-free conclusions also runs in the first round.
        Each skipped combination was met by an earlier run, so every fact
        keeps the first certificate, and `certificates` the order, that
        rerunning every rule on every fact until a round derives nothing
        would give."""
        # The index lives only as long as the fixpoint; the certificates stay.
        facts = _Facts(self.certificates)
        self._seed(facts)
        readers: Dict[str, int] = defaultdict(int)  # predicate -> bitmask of the rules reading it
        pending = 0
        for k, rule in enumerate(RULES):
            for predicate in rule.premises:
                readers[predicate] |= 1 << k
            if rule.premise_free:
                pending |= 1 << k
        for predicate in facts.by_predicate:
            pending |= readers[predicate]
        marks = [0] * len(RULES)
        certificates = self.certificates
        while pending:
            for k, rule in enumerate(RULES):
                if not pending >> k & 1:
                    continue
                pending ^= 1 << k
                since, marks[k] = marks[k], len(facts.position)
                for fact, premises in rule.step(self.ctx, facts, since):
                    if fact not in certificates:
                        premise_certs = tuple(map(certificates.__getitem__, premises))
                        facts.add(fact, Certificate(fact, rule.id, rule.citation, premise_certs))
                        pending |= readers[fact.predicate]

    # -- queries ----------------------------------------------------------

    @property
    def facts(self) -> Set[Fact]:
        return set(self.certificates)

    def node_id(self, node: Union[int, GroupExpr]) -> int:
        """A position, or the first occurrence of a node object; a position
        past either end or a node outside the tree raises InvalidInputError."""
        nodes = self.ctx.nodes
        if isinstance(node, int):
            if 0 <= node < len(nodes):
                return node
            raise InvalidInputError(f"unknown node id {node}")
        try:
            return nodes.index(node)
        except ValueError:
            raise InvalidInputError(f"unknown node {node!r}") from None

    def has(self, node, predicate: str, arg: Optional[int] = None) -> bool:
        return Fact(self.node_id(node), predicate, arg) in self.certificates


def derive(expr: GroupExpr, max_degree: int = MAX_DEGREE) -> Derivation:
    """Run the engine to its least fixpoint.

    Degree-parameterised rules (R12, R16, R17 and the product rule R13)
    materialise facts up to `max_degree`; query() re-derives on demand for
    higher degrees, up to MAX_QUERY_DEGREE.
    """
    return Derivation(expr, max_degree)


def query(
    derivation: Derivation,
    node: Union[int, GroupExpr],
    predicate: str,
    degree: Optional[int] = None,
) -> Optional[Certificate]:
    """The certificate for a fact, or None meaning "not derivable".

    The certificate choice is deterministic: rules are applied in catalog
    order and the first derivation of a fact is kept.
    """
    if degree is not None and degree > derivation.max_degree:
        derivation = derive(derivation.expr, max_degree=degree)
    return derivation.certificates.get(Fact(derivation.node_id(node), predicate, degree))


def check_consistency(derivation: Derivation) -> List[Tuple[int, str]]:
    """Definitional clashes in the derived fact set.

    Flags: a node both boundedly acyclic and with (non)vanishing or large
    H^n_b for n >= 1; amenable or finite together with a free subgroup of
    rank 2; cd_b = 0 against cd_b >= n >= 1; finitely presented against
    never-finitely-presented.
    """
    out: List[Tuple[int, str]] = []
    facts = derivation.certificates
    by_node: Dict[int, List[Fact]] = {}
    for f in facts:
        by_node.setdefault(f.node, []).append(f)
    for node, fs in sorted(by_node.items()):
        plain = {f.predicate for f in fs}
        if "BoundedlyAcyclic" in plain:
            for f in fs:
                if f.predicate in ("LargeHb", "NonvanishingHb") and f.arg >= 1:
                    out.append((node, f"BoundedlyAcyclic vs {f.predicate}({f.arg})"))
        if "Amenable" in plain and "ContainsF2" in plain:
            out.append((node, "Amenable vs ContainsF2"))
        if "Finite" in plain and "ContainsF2" in plain:
            out.append((node, "Finite vs ContainsF2"))
        if "CdbEquals0" in plain:
            for f in fs:
                if f.predicate == "CdbAtLeast" and f.arg >= 1:
                    out.append((node, f"CdbEquals0 vs CdbAtLeast({f.arg})"))
        if "FinPres" in plain and "NotFinPres" in plain:
            out.append((node, "FinPres vs NotFinPres"))
    return out


def replay_certificate(derivation: Derivation, cert: Certificate) -> bool:
    """Re-check every certificate in a tree.

    Leaves must be seed facts (assertions or structural); internal nodes
    re-run their rule on exactly the premise facts and must reproduce the
    conclusion in one step.  Iterative, and each distinct certificate
    object is checked once: a shared premise is not checked again, while
    two certificates for the same fact are both checked.
    """
    checked, stack = set(), [cert]
    while stack:
        c = stack.pop()
        if id(c) in checked:
            continue
        checked.add(id(c))
        if not _replays(derivation, c):
            return False
        stack.extend(c.premises)
    return True


def _replays(derivation: Derivation, cert: Certificate) -> bool:
    """One certificate's own step, its premises taken as given; a rule
    certificate must carry its rule's citation."""
    if cert.rule == "A0" or cert.rule.startswith("S"):
        return derivation.certificates.get(cert.fact) == cert
    rule = next((r for r in RULES if r.id == cert.rule and r.citation == cert.citation), None)
    if rule is None:
        return False
    premises = _Facts({})
    for p in cert.premises:
        premises.add(p.fact, p)
    return cert.fact in {f for f, _ in rule.step(derivation.ctx, premises, 0)}
