"""Presentation-level constructors for the group operations the toolkit
supports, each recording a GroupExpr construction-tree node.

Node kinds: Atom, FreeProduct, DirectProduct, Amalgam, Hnn, Mitosis,
MuStage, MeierT, MeierGamma, LambdaW, GammaW, WitnessW, PiW, DeltaW; the
registry FAMILY / FORMS below says how each is read, written and reasoned
about.
The realized presentation of a node always equals re-running its
constructor on the children's realizations, and every build is
deterministic (fresh-name policy: suffix `_2`, `_3`, ... on clashes), so
repeated builds are bit-identical.
"""

from __future__ import annotations

from typing import Callable, Dict, Iterable, List, NamedTuple, Optional, Sequence, Tuple, Union

from .errors import InvalidInputError, SearchBudgetError
from .presentations import Presentation, PresentationMorphism
from .words import Alphabet, GeneratorSymbol, Word, _reduced, substitute, word

ATOM = "atom"
FREE_PRODUCT = "free-product"
DIRECT_PRODUCT = "direct"
AMALGAM = "amalgam"
HNN = "hnn"
MITOSIS = "mitosis"
MU_STAGE = "mu"
MEIER_T = "meier-T"
MEIER_GAMMA = "meier-gamma"
LAMBDA_W = "lambda-w"
GAMMA_W = "gamma-w"
WITNESS_W = "witness-w"
PI_W = "pi-w"
DELTA_W = "delta-w"


# The node-kind registry.  Each kind belongs to a family, named by its
# principal kind: the writer emits the family's form (`:kind` restores the
# other kinds), and inference reads the family and its tags.  A kind whose
# own form takes no arguments is written as that form.
FAMILY: Dict[str, str] = {
    ATOM: ATOM, HNN: HNN, MITOSIS: MITOSIS, MU_STAGE: MU_STAGE, MEIER_GAMMA: MEIER_GAMMA,
    FREE_PRODUCT: FREE_PRODUCT, LAMBDA_W: FREE_PRODUCT, GAMMA_W: FREE_PRODUCT,
    DIRECT_PRODUCT: DIRECT_PRODUCT, PI_W: DIRECT_PRODUCT, DELTA_W: DIRECT_PRODUCT,
    AMALGAM: AMALGAM, MEIER_T: AMALGAM, WITNESS_W: AMALGAM,
}

REQUIRED = "required"


class Arg(NamedTuple):
    """One argument of a `.gx` form; `keyword` is None for a positional one.

    Its `type` names a reader and a writer in `sexpr`.  An argument with a
    `key` reaches the constructor as the keyword parameter of that name and
    is written back from that payload entry; one without is passed
    positionally.  An absent keyword argument is an error if
    `default` is REQUIRED and no earlier argument gave its key, passes
    `default` if that is not None, and is left out otherwise.
    """

    keyword: Optional[str]
    type: str
    key: Optional[str] = None
    default: object = None


class Tag(NamedTuple):
    """A construction-certified payload tag: payload key, `.gx` flag (None
    when no form writes it) and the structural predicate it seeds under
    `rule` (about the only child if relational) when `needs` is set too.
    A flagged tag's key is also the constructor's keyword parameter that
    sets it."""

    key: str
    flag: Optional[str]
    predicate: Optional[str]
    rule: str = "S4"
    needs: Optional[str] = None


class Form(NamedTuple):
    """A `.gx` form: its constructor as "module.function", looked up when
    the form is read; its arguments in written order; and its tags.  Every
    keyed argument and flagged tag names a keyword parameter of the
    constructor, which stores each tag in the payload, False when unset."""

    constructor: str
    args: Tuple[Arg, ...] = ()
    tags: Tuple[Tag, ...] = ()


_E = Arg(None, "expr")
_KIND = Arg("kind", "kind", "_kind")
_WITNESS = (Arg(None, "source"), Arg(None, "word", "w"))

FORMS: Dict[str, Form] = {
    ATOM: Form("combinators.atom", args=(
        Arg(None, "name", "name"),
        Arg("file", "file", "p"),
        Arg("pres", "pres", "p", REQUIRED),
        Arg("facts", "facts", "facts"),
    )),
    FREE_PRODUCT: Form(
        "combinators.free_product",
        args=(_E, _E, _KIND),
        tags=(Tag("nonelementary", "nonelementary", "NonelemFreeProduct"),),
    ),
    DIRECT_PRODUCT: Form("combinators.direct_product", args=(_E, _E, _KIND, Arg("dim", "int", "dim"))),
    AMALGAM: Form(
        "combinators.amalgamated_product",
        args=(_E, _E, Arg("pairs", "pairs", "pairs", ()), _KIND),
        tags=(
            Tag("edge_amenable", "edge-amenable", "EdgeAmenable"),
            Tag("doublecoset_at_least_3", "doublecoset-3", "EdgeDoubleCosetsAtLeast3"),
            Tag("proper_edge", "proper-edge", "EdgeProperContainment"),
            Tag("edges_legitimate", "legit-edges", None),
        ),
    ),
    HNN: Form(
        "combinators.hnn_extension",
        args=(_E, Arg("stable", "letter", "stable", REQUIRED), Arg("assoc", "pairs", "assoc")),
        tags=(
            Tag("ascending", "ascending", "AscendingHnn", rule="S2"),
            Tag("bac_hnn_chain", "bac-chain", "SelfEmbeddingHnn", needs="ascending"),
        ),
    ),
    MITOSIS: Form("combinators.standard_mitosis", args=(_E,)),
    MU_STAGE: Form("combinators.mu_stage", args=(_E, Arg("k", "int", "k", REQUIRED))),
    MEIER_T: Form("meier.meier_t_expr"),
    MEIER_GAMMA: Form("meier.meier_gamma_expr", tags=(
        Tag("iso_to_self_times_self", None, "IsoToSelfTimesSelf"),
        Tag("surjects_onto_child", None, "SurjectsOnto"),
        Tag("torsion_free", None, "TorsionFree"),
    )),
    LAMBDA_W: Form("reductions.lambda_w", args=_WITNESS),
    GAMMA_W: Form("reductions.gamma_w", args=_WITNESS),
    WITNESS_W: Form("reductions.witness_w", args=(_E,) + _WITNESS),
    PI_W: Form("reductions.pi_w", args=_WITNESS + (Arg("dim", "int", "d", 4),)),
    DELTA_W: Form("reductions.delta_w", args=_WITNESS + (Arg("dim", "int", "d", 1),)),
}


class GroupExpr:
    """A construction-tree node: kind, children, payload, realized form.

    `payload` carries kind-specific data (identification pairs, stage
    index, asserted base facts for atoms, construction-certified tags such
    as `nonelementary` or `edge_amenable`) and is treated as immutable
    after construction.
    """

    __slots__ = ("kind", "children", "payload", "realized")

    def __init__(self, kind: str, children: Sequence["GroupExpr"], payload: dict, realized: Presentation):
        self.kind = kind
        self.children = tuple(children)
        self.payload = payload
        self.realized = realized

    def __repr__(self):
        return f"<GroupExpr {self.kind} gens={len(self.realized.alphabet)} children={len(self.children)}>"


ExprLike = Union[GroupExpr, Presentation]


def atom(p: Presentation, facts: Iterable = (), name: Optional[str] = None) -> GroupExpr:
    """Leaf node: a presentation plus externally asserted base facts.

    Facts are (predicate, arg) pairs, arg None for a predicate without
    one, each predicate one with a `.gx` name (derive refuses the rest);
    they are the only place deep external theorems enter the inference
    engine.
    """
    facts = tuple((pred, arg) for pred, arg in facts)
    return GroupExpr(ATOM, (), {"facts": facts, "name": name or p.name}, p)


def _as_expr(x: ExprLike) -> GroupExpr:
    return x if isinstance(x, GroupExpr) else atom(x)


def _fresh_name(base: str, taken: set) -> str:
    if base not in taken:
        return base
    k = 2
    while f"{base}_{k}" in taken:
        k += 1
    return f"{base}_{k}"


def _product(
    kind: str,
    p: ExprLike,
    q: ExprLike,
    cross_relators: Callable[[Presentation, Dict[GeneratorSymbol, Word]], Iterable[Word]],
    payload: dict,
) -> GroupExpr:
    """The two-factor node all three products share: p's generators and
    relators, then q's renamed apart, then `cross_relators(p, renaming)`
    over p's realization and q's renaming.  The renaming is recorded in
    the payload as `right_renaming`."""
    pe, qe = _as_expr(p), _as_expr(q)
    taken = set(pe.realized.alphabet.names)
    names: List[str] = []
    for sym in qe.realized.alphabet:
        names.append(_fresh_name(sym.name, taken))
        taken.add(names[-1])
    renaming = {sym: word(name) for sym, name in zip(qe.realized.alphabet, names)}
    alphabet = Alphabet(pe.realized.alphabet.symbols + tuple(names))
    q_rels = tuple(substitute(r, renaming) for r in qe.realized.relators)
    relators = pe.realized.relators + q_rels + tuple(cross_relators(pe.realized, renaming))
    payload = {"right_renaming": renaming, **payload}
    return GroupExpr(kind, (pe, qe), payload, Presentation(alphabet, relators))


RELATOR_BUDGET = 100_000
"""Relators a direct product, standard mitosis or mu stage may hold.  The
count is checked before the commutator or mitosis relators are built, so
no nesting of these forms gets past it: it raises SearchBudgetError.
About twelve times the 8,316 of `reduce --construction delta --dim 64`,
the largest built-in construction.  `build` of a direct product, nested
mitoses or nested mu stages at the budget takes 0.3-0.5 s and 41-54 MB
max RSS (Python 3.11.7, 2-vCPU Xeon VM)."""


def _check_relators(count: int) -> None:
    if count > RELATOR_BUDGET:
        raise SearchBudgetError(f"a presentation of {count} relators is more than the {RELATOR_BUDGET} allowed")


def free_product(p: ExprLike, q: ExprLike, *, nonelementary: bool = False, _kind: str = FREE_PRODUCT) -> GroupExpr:
    """Disjoint union of alphabets, concatenated relators, no cross relators.

    Name clashes in the right factor get deterministic `_2`, `_3`, ...
    suffixes.  `nonelementary` is the caller's assertion that the product
    is not virtually cyclic (no trivial factor, not Z/2 * Z/2), which the
    inference engine reads as acylindrical hyperbolicity.
    """
    return _product(_kind, p, q, lambda pp, renaming: (), {"nonelementary": nonelementary})


def direct_product(p: ExprLike, q: ExprLike, *, dim: Optional[int] = None, _kind: str = DIRECT_PRODUCT) -> GroupExpr:
    """Free-product presentation plus commutator relators [x, y] for every
    generator x of p and y of q.  `dim`, recorded only, is the degree a
    witness product (Pi_w, Delta_w) is built for."""
    pe, qe = _as_expr(p), _as_expr(q)
    left, right = pe.realized, qe.realized
    _check_relators(len(left.relators) + len(right.relators) + len(left.alphabet) * len(right.alphabet))
    return _product(_kind, pe, qe, _commutators, {"dim": dim})


def _commutators(pp: Presentation, renaming: Dict[GeneratorSymbol, Word]) -> List[Word]:
    """[x, y] = x^-1 y^-1 x y for every generator x of pp and every renamed
    generator y, x outermost; each generator's two runs are shared by all
    of its relators."""
    xs = [((x, -1), (x, 1)) for x in pp.alphabet]
    ys = [((y, -1), (y, 1)) for w in renaming.values() for y, _ in w.letters]
    return [_reduced((xn, yn, xp, yp)) for xn, xp in xs for yn, yp in ys]


def amalgamated_product(
    p: ExprLike,
    q: ExprLike,
    pairs: Sequence[Tuple[Word, Word]],
    *,
    edge_amenable: bool = False,
    doublecoset_at_least_3: bool = False,
    proper_edge: bool = False,
    edges_legitimate: bool = False,
    _kind: str = AMALGAM,
) -> GroupExpr:
    """Free product with identification relators u_i * v_i^-1.

    Edge-subgroup legitimacy (that the pairs generate isomorphic
    subgroups) is NOT checked; the caller certifies it with
    `edges_legitimate`.  The keyword tags are caller assertions consumed
    by the inference engine.
    """
    for u, v in pairs:
        if not u or not v:
            raise InvalidInputError("amalgam identification words must be nonempty")
    payload = {
        "pairs": tuple(pairs),
        "edge_amenable": edge_amenable,
        "doublecoset_at_least_3": doublecoset_at_least_3,
        "proper_edge": proper_edge,
        "edges_legitimate": edges_legitimate,
    }
    return _product(_kind, p, q, lambda pp, renaming: [u * ~substitute(v, renaming) for u, v in pairs], payload)


def hnn_extension(
    p: ExprLike,
    stable: str,
    assoc: Sequence[Tuple[Word, Word]] = (),
    *,
    ascending: bool = False,
    bac_hnn_chain: bool = False,
) -> GroupExpr:
    """Adjoin a stable letter t with relators t^-1 * u_i * t * v_i^-1.

    The keywords are caller assertions consumed by the inference engine:
    `ascending` tags the node ascending, and `bac_hnn_chain` says the base
    embeds in itself along a chain that makes the extension boundedly
    acyclic (read only on ascending nodes).
    """
    pe = _as_expr(p)
    base = pe.realized
    if stable in base.alphabet:
        raise InvalidInputError(f"stable letter {stable!r} clashes with a base generator")
    t = GeneratorSymbol(stable)
    for u, v in assoc:
        base.alphabet.check_word(u)
        base.alphabet.check_word(v)
    alphabet = Alphabet(tuple(base.alphabet.symbols) + (t,))
    tw = Word(((t, 1),))
    rels = tuple((~tw) * u * tw * ~v for u, v in assoc)
    realized = Presentation(alphabet, base.relators + rels)
    payload = {
        "stable": t,
        "assoc": tuple(assoc),
        "ascending": ascending,
        "bac_hnn_chain": bac_hnn_chain,
    }
    return GroupExpr(HNN, (pe,), payload, realized)


def _mitosis_relators(gens: Sequence[GeneratorSymbol], s: GeneratorSymbol, d: GeneratorSymbol) -> List[Word]:
    """Relators d^-1 g d = g s^-1 g s and [g, s^-1 h s] over generator pairs,
    as d^-1 g d s^-1 g^-1 s g^-1 and g^-1 s^-1 h^-1 s g s^-1 h s.

    The element-level conditions for the whole subgroup follow from this
    generator schema: the commutation relators make the d-conjugation
    relation multiplicative, so products and inverses inherit both
    conditions (tested against finite quotients in the suite).
    """
    sn, sp, dn, dp = (s, -1), (s, 1), (d, -1), (d, 1)
    # Every relator is a reduced run tuple: g and h are never s or d.
    runs = [((g, -1), (g, 1)) for g in gens]
    rels = [_reduced((dn, gp, dp, sn, gn, sp, gn)) for gn, gp in runs]
    rels += [_reduced((gn, sn, hn, sp, gp, sn, hp, sp)) for gn, gp in runs for hn, hp in runs]
    return rels


def standard_mitosis(p: ExprLike) -> GroupExpr:
    """Adjoin s, d with the two-step HNN relators of the standard mitosis.

    The node records the quotient morphism onto the free group on the two
    fresh letters (kill the base, fix s and d).
    """
    pe = _as_expr(p)
    base = pe.realized
    n = len(base.alphabet)
    _check_relators(len(base.relators) + n + n * n)
    taken = set(base.alphabet.names)
    s = GeneratorSymbol(_fresh_name("s", taken))
    taken.add(s.name)
    d = GeneratorSymbol(_fresh_name("d", taken))
    alphabet = Alphabet(tuple(base.alphabet.symbols) + (s, d))
    rels = base.relators + tuple(_mitosis_relators(base.alphabet.symbols, s, d))
    realized = Presentation(alphabet, rels)
    f2 = Presentation(Alphabet((s, d)), ())
    images = {g: Word() for g in base.alphabet}
    images[s] = word(s)
    images[d] = word(d)
    quotient = PresentationMorphism(realized, f2, images)
    return GroupExpr(MITOSIS, (pe,), {"quotient_to_f2": quotient}, realized)


# mu_stage's largest stage.  Stage k has 2k + 2 generators and O(k^2)
# mitosis relators; `corpus --family mu --depth 14`, which builds and
# simplifies stages 1..14, takes about 3 s (depth 15: 4.5 s, 16: 5.5 s).
MAX_MU_STAGE = 14


def mu_stage(p: ExprLike, k: int) -> GroupExpr:
    """Stage-k truncation of the boundedly acyclic ascending-HNN hull.

    Generators are S plus s_1, d_1, ..., s_k, d_k, t; relators are the
    mitosis relators of levels 1..k (level i+1 quantified over the whole
    level-i alphabet) plus the HNN relators t^-1 g t = g for g in S and
    t^-1 s_i t = s_{i+1}, t^-1 d_i t = d_{i+1} for i < k.  Stage-monotone
    in k.  The relators of all levels are counted against RELATOR_BUDGET
    before the first level is built.
    """
    if not 1 <= k <= MAX_MU_STAGE:
        raise ValueError(f"mu stage index must be in 1..{MAX_MU_STAGE}, got {k}")
    pe = _as_expr(p)
    base = pe.realized
    n = len(base.alphabet)
    _check_relators(len(base.relators) + sum(g + g * g for g in range(n, n + 2 * k, 2)) + n + 2 * (k - 1))
    taken = set(base.alphabet.names)
    s_syms: List[GeneratorSymbol] = []
    d_syms: List[GeneratorSymbol] = []
    for i in range(1, k + 1):
        s = GeneratorSymbol(_fresh_name(f"s_{i}", taken))
        taken.add(s.name)
        d = GeneratorSymbol(_fresh_name(f"d_{i}", taken))
        taken.add(d.name)
        s_syms.append(s)
        d_syms.append(d)
    t = GeneratorSymbol(_fresh_name("t", taken))
    ordered: List[GeneratorSymbol] = list(base.alphabet.symbols)
    for s, d in zip(s_syms, d_syms):
        ordered.extend((s, d))
    ordered.append(t)
    alphabet = Alphabet(ordered)

    rels: List[Word] = list(base.relators)
    level_gens: List[GeneratorSymbol] = list(base.alphabet.symbols)
    for i in range(k):
        rels.extend(_mitosis_relators(level_gens, s_syms[i], d_syms[i]))
        level_gens = level_gens + [s_syms[i], d_syms[i]]
    tw = word(t)
    for g in base.alphabet:
        rels.append((~tw) * word(g) * tw * ~word(g))
    for i in range(k - 1):
        rels.append((~tw) * word(s_syms[i]) * tw * ~word(s_syms[i + 1]))
        rels.append((~tw) * word(d_syms[i]) * tw * ~word(d_syms[i + 1]))
    return GroupExpr(MU_STAGE, (pe,), {"k": k}, Presentation(alphabet, tuple(rels)))


def bac_hnn(p: ExprLike, embed: PresentationMorphism) -> GroupExpr:
    """Ascending HNN over a self-embedding, with associated pairs
    (x, embed(x)) over the base generators, tagged for the inference rule
    that certifies bounded acyclicity from the base's embedding chain."""
    pe = _as_expr(p)
    base = pe.realized.alphabet
    if embed.source.alphabet != base or embed.target.alphabet != base:
        raise InvalidInputError("ascending domain must be a self-map of the base presentation")
    assoc = tuple((word(x), embed.apply(word(x))) for x in base)
    return hnn_extension(pe, _fresh_name("t", set(base.names)), assoc, ascending=True, bac_hnn_chain=True)
