import importlib
import inspect
import os

import pytest
from hypothesis import given, settings, strategies as st

from gpforge import combinators, sexpr
from gpforge.cli import main
from gpforge.combinators import (
    FAMILY,
    FORMS,
    RELATOR_BUDGET,
    GroupExpr,
    amalgamated_product,
    atom,
    direct_product,
    free_product,
    hnn_extension,
    mu_stage,
    standard_mitosis,
)
from gpforge.errors import GpforgeError, InvalidInputError, ParseError, SearchBudgetError
from gpforge.homology import AbelianGroup, abelianization
from gpforge.inference import PREDICATES, check_consistency, derive, query, replay_certificate
from gpforge.meier import meier_gamma_expr, meier_t_expr
from gpforge.presentations import presentation, serialize
from gpforge.reductions import free_source, gamma_w, pi_w
from gpforge.sexpr import _tokenize, parse_expr, serialize_expr
from gpforge.words import parse_word

from tests_util import loop_tokenize


def test_atom_inline_presentation():
    expr = parse_expr('(atom "G" :pres "gens a b\\nrel a^2" :facts (amenable (fin-gen 2)))')
    assert expr.kind == "atom"
    assert serialize(expr.realized) == "gens a b\nrel a^2"
    assert expr.payload["facts"] == (("Amenable", None), ("FinGen", 2))


def test_atom_file_reference(tmp_path):
    path = tmp_path / "p.grp"
    path.write_text("gens a\nrel a^3\n", encoding="utf-8")
    expr = parse_expr(f'(atom "C3" :file "p.grp")', base_dir=str(tmp_path))
    assert abelianization(expr.realized) == AbelianGroup(0, (3,))
    with pytest.raises(ParseError):
        parse_expr('(atom "C3" :file "missing.grp")', base_dir=str(tmp_path))


def test_structural_forms():
    free = parse_expr('(free-product (atom "A" :pres "gens a") (atom "B" :pres "gens b"))')
    assert serialize(free.realized) == "gens a b"
    direct = parse_expr('(direct (atom "A" :pres "gens a") (atom "B" :pres "gens b"))')
    assert serialize(direct.realized) == "gens a b\nrel a^-1 b^-1 a b"
    amalgam = parse_expr(
        '(amalgam (atom "A" :pres "gens a\\nrel a^4") (atom "B" :pres "gens b\\nrel b^6")'
        ' :pairs (("a^2" "b^3")))'
    )
    assert serialize(amalgam.realized) == "gens a b\nrel a^4\nrel b^6\nrel a^2 b^-3"
    hnn = parse_expr('(hnn (atom "Z" :pres "gens a") :stable "t" :assoc (("a^2" "a^3")))')
    assert serialize(hnn.realized) == "gens a t\nrel t^-1 a^2 t a^-3"
    mit = parse_expr('(mitosis (atom "F1" :pres "gens g"))')
    assert len(mit.realized.alphabet) == 3
    mu = parse_expr('(mu (atom "F1" :pres "gens g") :k 2)')
    assert abelianization(mu.realized) == AbelianGroup(1)


def test_meier_builtin_forms():
    t = parse_expr("(meier-T)")
    assert len(t.realized.alphabet) == 4
    gamma = parse_expr("(meier-gamma)")
    assert gamma.kind == "meier-gamma"


def test_witness_forms_with_oracles():
    lam = parse_expr('(lambda-w (atom "F2" :pres "gens a b") "a a^-1")')
    assert lam.kind == "atom"  # trivial branch collapses
    gam = parse_expr('(gamma-w (atom "F2" :pres "gens a b") "a^-1 b^-1 a b")')
    assert gam.kind == "gamma-w"
    wit = parse_expr(
        '(witness-w (atom "F2" :pres "gens x_1 x_2" :facts (torsion-free))'
        ' (atom "L" :pres "gens a b") "a b")'
    )
    assert wit.kind == "witness-w"
    pi = parse_expr('(pi-w (atom "L" :pres "gens a b") "a" :dim 4)')
    assert pi.kind == "pi-w"
    delta = parse_expr('(delta-w (atom "L" :pres "gens a b") "a" :dim 2)')
    assert delta.kind == "delta-w"
    bs = parse_expr(
        '(lambda-w (atom "B" :pres "gens a t\\nrel t^-1 a^2 t a^-3") "t^-1 a^2 t a^-3"'
        ' :oracle "bs:2,3")'
    )
    assert bs.kind == "atom"  # the relator word is trivial in BS(2,3)


def test_round_trip_preserves_derivations():
    exprs = [
        mu_stage(atom(presentation(["g"]), facts=(("FinGen", 1),)), 2),
        gamma_w(free_source(), parse_word("a b")).expr,
        pi_w(free_source(), parse_word("a"), 4).expr,
        direct_product(
            atom(presentation(["p", "q"]), facts=(("ThompsonT", None),)),
            atom(presentation(["x", "y"]), facts=(("HypManifoldGroup", 3),)),
        ),
        parse_expr("(meier-gamma)"),
        # Every assertable fact, written by its registry name.
        atom(presentation(["g"]), facts=[(p, 2 if spec.arg else None) for p, spec in PREDICATES.items() if spec.name]),
    ]
    for expr in exprs:
        text = serialize_expr(expr)
        again = parse_expr(text)
        assert serialize(again.realized) == serialize(expr.realized)
        assert serialize_expr(again) == text
        d1 = derive(expr, max_degree=6)
        d2 = derive(again, max_degree=6)
        assert d1.facts == d2.facts


def test_parse_errors():
    src = '(atom "L" :pres "gens a b")'
    bad = [
        "(",
        '(atom "x")',
        '(unknown-form (atom "x" :pres "gens a"))',
        '(mu (atom "x" :pres "gens a"))',
        '(atom "x" :pres "gens a") (atom "y" :pres "gens b")',
        f"(free-product {src} {src} :kind hnn)",
        f'(lambda-w {src} "a" :oracle "bs:2")',
        f'(lambda-w {src} "a" :oracle "bs:0,3")',
        f"(mu {src} :k 0)",
        f"(mu {src} :k 15)",
        f'(mu {src} :k "x")',
        f"(mu {src} :k 1_0)",
        f"(mu {src} :k +2)",
        f"(mu {src} :k \u0662)",
        '(atom "G" :pres "gens a" :facts ((fin-gen x)))',
        # Fact arity: every name and argument is checked at read time.
        '(atom "x" :pres "gens a" :facts ((amenable 3)))',
        '(atom "x" :pres "gens a" :facts (fin-gen))',
        '(atom "x" :pres "gens a" :facts ((large-hb -2)))',
        '(atom "x" :pres "gens a" :facts ((large-hb 2 3)))',
        '(atom "x" :pres "gens a" :facts ((amenable)))',
        '(atom "x" :pres "gens a" :facts ("amenable"))',
        '(atom "x" :pres "gens a" :facts (edge-amenable))',
        f"(amalgam {src} {src} :pairs ((1 2)))",
        f"(free-product {src})",
        f'(pi-w {src} "a" :dim 2)',
        f'(delta-w {src} "a" :dim 100000)',
        '(atom "G" :pres 5)',
        # A kind with its own form is not restored through :kind.
        f"(amalgam {src} {src} :kind meier-T)",
        # Surplus or unknown arguments, and values after flags.
        f"(mitosis {src} {src})",
        f"(mu {src} :k 2 :kind mu)",
        f"(free-product {src} {src} :nonelementary 3)",
        # A data list deeper than the stack, where a string belongs.
        '(atom "x" :pres ' + "(" * 5000 + ")" * 5000 + ")",
    ]
    for text in bad:
        with pytest.raises(ParseError):
            parse_expr(text)


def test_oracle_must_decide_its_source():
    bs = '(atom "B" :pres "gens a t\\nrel t^-1 a^2 t a^-3")'
    f_at = '(atom "F" :pres "gens a t")'
    bad = [
        f'(lambda-w {bs} "t^-1 a^2 t a^-3" :oracle "free")',
        f'(lambda-w {bs} "t^-1 a^2 t a^-3")',
        f'(lambda-w {f_at} "t^-1 a^2 t a^-3" :oracle "bs:2,3")',
        f'(gamma-w {bs} "a" :oracle "bs:3,2")',
    ]
    for text in bad:
        with pytest.raises(InvalidInputError):
            parse_expr(text)


def test_comments_and_strings():
    expr = parse_expr('; a comment line\n(atom "G" :pres "gens a") ; trailing')
    assert expr.kind == "atom"


def test_bac_hnn_round_trip_keeps_chain_tag():
    from gpforge.combinators import bac_hnn
    from gpforge.presentations import PresentationMorphism
    from gpforge.words import word

    base = atom(presentation(["x", "y"]), facts=(("MuEmbedsBack", None),), name="U")
    x, y = base.realized.alphabet.symbols
    ident = PresentationMorphism(base.realized, base.realized, {x: word(x), y: word(y)})
    expr = bac_hnn(base, ident.verify(lambda w: not w))
    text = serialize_expr(expr)
    assert ":ascending" in text and ":bac-chain" in text
    again = parse_expr(text)
    d1, d2 = derive(expr), derive(again)
    assert d1.facts == d2.facts
    assert d2.has(again, "BoundedlyAcyclic")


def _atom(name, gens, rels=(), facts=()):
    return atom(presentation(gens, rels, name=name), facts=facts, name=name)


def _sample(kind, tags):
    """A node of `kind` built by its family's constructor, with `tags` set."""
    if not FORMS[kind].args:
        return {"meier-T": meier_t_expr, "meier-gamma": meier_gamma_expr}[kind]()
    family = FAMILY[kind]
    left = _atom("A", ["a"], ["a^4"], facts=(("Finite", None),))
    right = _atom("B", ["b", "c"], ["b^6"], facts=(("AcylHyp", None),))
    if family == "atom":
        return _atom("G", ["x", "y"], ["x^2"], facts=(("Amenable", None), ("FinGen", 2)))
    if family == "free-product":
        return free_product(left, right, _kind=kind, **tags)
    if family == "direct":
        return direct_product(left, right, dim=None if kind == "direct" else 5, _kind=kind)
    if family == "amalgam":
        pairs = [(parse_word("a^2"), parse_word("b^3"))]
        return amalgamated_product(left, right, pairs, _kind=kind, **tags)
    if family == "hnn":
        base = _atom("Z", ["a"], facts=(("Amenable", None),))
        return hnn_extension(base, "t", [(parse_word("a^2"), parse_word("a^3"))], **tags)
    if family == "mitosis":
        return standard_mitosis(left)
    assert family == "mu"
    return mu_stage(right, 2)


def _samples():
    """(kind, tags) pairs: every kind without tags, each tag of its family
    alone, and all of them together.  Kinds written as their own nullary
    form carry fixed tags."""
    for kind, family in FAMILY.items():
        keys = [tag.key for tag in FORMS[family].tags] if FORMS[kind].args else []
        tag_sets = [{}] + [{key: True} for key in keys]
        if len(keys) > 1:
            tag_sets.append({key: True for key in keys})
        yield from ((kind, tags) for tags in tag_sets)


def _assert_round_trip(expr, text):
    again = parse_expr(text)
    assert again.kind == expr.kind
    assert serialize_expr(again) == text
    assert again.realized == expr.realized
    d1, d2 = derive(expr, max_degree=6), derive(again, max_degree=6)
    assert d1.facts == d2.facts
    assert [c.render() for c in d1.certificates.values()] == [c.render() for c in d2.certificates.values()]


def test_registry_round_trip_every_kind_and_tag():
    seen = set()
    for kind, tags in _samples():
        expr = _sample(kind, tags)
        assert expr.kind == kind
        for key in tags:
            assert expr.payload[key] is True
        text = serialize_expr(expr)
        _assert_round_trip(expr, text)
        seen.add(kind)
    assert seen == set(FAMILY)


def test_registry_keys_name_constructor_parameters():
    # The reader passes every keyed argument and set tag as a keyword; a
    # name the constructor lacks would escape as a TypeError.
    for head, form in FORMS.items():
        module, _, name = form.constructor.partition(".")
        params = inspect.signature(getattr(importlib.import_module(f"gpforge.{module}"), name)).parameters
        keys = [arg.key for arg in form.args if arg.key] + [tag.key for tag in form.tags if tag.flag]
        for key in keys:
            assert key in params, (head, key)


def test_every_registry_kind_has_a_writer():
    for kind, family in FAMILY.items():
        text = serialize_expr(_sample(kind, {}))
        head = kind if not FORMS[kind].args else family
        assert text.startswith(f"({head}")
        assert (f":kind {kind}" in text) == (head != kind)


def test_round_trip_corpus_large(capsys):
    assert main(["corpus", "--family", "large"]) == 0
    sections = [s for s in capsys.readouterr().out.split("## ") if s]
    assert len(sections) == 2
    for section in sections:
        text = section.split("\n", 1)[1].strip()
        _assert_round_trip(parse_expr(text), text)


def test_ascending_restored_by_the_constructor():
    text = '(hnn (atom "Z" :pres "gens a") :stable "t" :assoc (("a" "a^2")) :ascending)'
    expr = parse_expr(text)
    assert expr.payload["ascending"] is True
    assert derive(expr).has(expr, "AscendingHnn")
    assert serialize_expr(expr) == text


def test_round_trip_deeper_than_the_stack():
    # 600 nested forms: the reader builds each one when its `)` is read.
    text = '(atom "G" :pres "gens g")'
    for _ in range(600):
        text = f'(free-product {text} (atom "Z" :pres "gens z"))'
    assert serialize_expr(parse_expr(text)) == text


ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def _count_calls(monkeypatch, module, name):
    """A list that gets the arguments of each call to `module.name`."""
    calls = []
    function = getattr(module, name)

    def spy(*args):
        calls.append(args)
        return function(*args)

    monkeypatch.setattr(module, name, spy)
    return calls


def _count_realizations(monkeypatch):
    """A list that gets one entry per call into the builder of deferred
    relators (every node with children builds its relators on first read)."""
    return _count_calls(monkeypatch, combinators, "_realize")


def _reads_without_building(text, predicate, degree=None):
    """Parse, derive, query, check and replay: the reads of `infer`."""
    expr = parse_expr(text)
    d = derive(expr)
    cert = query(d, expr, predicate, degree)
    assert not check_consistency(d)
    assert cert is None or replay_certificate(d, cert)
    assert repr(expr).startswith(f"<GroupExpr {expr.kind} ")
    return expr


def test_witness_trees_parse_and_derive_without_building_a_relator(tmp_path, monkeypatch, capsys):
    # The Pi_w trees of the seed-1 constructions bench, as `reduce` writes them.
    monkeypatch.syspath_prepend(os.path.join(ROOT, "bench"))
    gen, workloads = importlib.import_module("gen"), importlib.import_module("workloads")
    trees = []
    for i, spec in enumerate(gen.constructions_inputs(1)["witness"]):
        lam, grp, gx = (tmp_path / f"{i}.{ext}" for ext in ("lam", "grp", "gx"))
        lam.write_text(workloads.LAMBDA_FILES[spec["oracle"]], encoding="utf-8")
        argv = ["reduce", "--construction", "pi", "--lambda", str(lam), "--oracle", spec["oracle"]]
        assert main(argv + ["--word", gen.fmt(spec["word"]), "-o", str(grp), "--expr", str(gx)]) == 0
        trees.append((gx.read_text(encoding="utf-8"), grp.read_text(encoding="utf-8")))
    capsys.readouterr()
    assert len(trees) == 20
    calls = _count_realizations(monkeypatch)
    for text, built in trees:
        expr = _reads_without_building(text, "LargeHb", 4)
        assert calls == []
        assert serialize(expr.realized) + "\n" == built
        assert expr.realized is expr.realized
        calls.clear()


def test_a_deep_free_product_chain_derives_without_building_a_relator(monkeypatch):
    text = '(atom "G" :pres "gens x y" :facts (contains-f2))'
    for _ in range(300):
        text = f'(free-product {text} (atom "Z" :pres "gens z\\nrel z^3"))'
    calls = _count_realizations(monkeypatch)
    expr = _reads_without_building(text, "CdbAtLeast", 3)
    assert calls == []
    names = ["z"] + [f"z_{k}" for k in range(2, 301)]
    assert serialize(expr.realized) == "\n".join([f"gens x y {' '.join(names)}"] + [f"rel {n}^3" for n in names])
    assert len(calls) == 1


def test_a_mu_stage_over_a_mitosis_derives_without_building_a_relator(monkeypatch):
    text = '(mu (mitosis (free-product (atom "A" :pres "gens a\\nrel a^2") (atom "B" :pres "gens b"))) :k 3)'
    calls = _count_realizations(monkeypatch)
    expr = _reads_without_building(text, "BoundedlyAcyclic")
    assert calls == []
    with open(os.path.join(ROOT, "tests", "data", "mu_of_mitosis.grp"), encoding="utf-8") as f:
        assert serialize(expr.realized) + "\n" == f.read()
    assert len(calls) == 1


def test_each_distinct_inline_presentation_is_parsed_once(monkeypatch):
    calls = _count_calls(monkeypatch, sexpr, "parse_presentation")
    text = '(atom "G" :pres "gens x y")'
    for name in ["Z", "Y"] * 50:
        text = f'(free-product {text} (atom "{name}" :pres "gens z\\nrel z^3"))'
    expr = parse_expr(text)
    assert sorted(calls) == [("gens x y", "G"), ("gens z\nrel z^3", "Y"), ("gens z\nrel z^3", "Z")]
    assert serialize_expr(expr) == text
    names = ["z"] + [f"z_{k}" for k in range(2, 101)]
    assert serialize(expr.realized) == "\n".join([f"gens x y {' '.join(names)}"] + [f"rel {n}^3" for n in names])


@pytest.mark.parametrize("form, count", [
    ("(mitosis (mitosis {x}))", 90_300 + 91_506),
    ("(mu (mu {y} :k 14) :k 14)", 27_454 + 74_579),
    ("(mu (mitosis {x}) :k 1)", 90_300 + 91_808),
])
def test_nested_mitoses_and_mu_stages_past_the_relator_budget_build_no_relator(monkeypatch, form, count):
    # The inner node fits the budget; the two together do not.
    x, y = (f'(atom "{n}" :pres "gens {" ".join(f"{n}{i}" for i in range(size))}")' for n, size in (("x", 300), ("y", 30)))
    calls = _count_realizations(monkeypatch)
    levels = _count_calls(monkeypatch, combinators, "_mitosis_relators")
    message = f"^a presentation of {count} relators is more than the {RELATOR_BUDGET} allowed$"
    with pytest.raises(SearchBudgetError, match=message):
        parse_expr(form.format(x=x, y=y))
    assert calls == levels == []


def test_a_nested_direct_product_past_the_relator_budget_builds_no_relator(monkeypatch):
    # 200 x 200 commutators inside, 400 x 200 more outside: 120,000 in all.
    x, y, z = (f'(atom "{n}" :pres "gens {" ".join(f"{n}{i}" for i in range(200))}")' for n in "xyz")
    calls = _count_realizations(monkeypatch)
    message = f"^a presentation of 120000 relators is more than the {RELATOR_BUDGET} allowed$"
    with pytest.raises(SearchBudgetError, match=message):
        parse_expr(f"(direct (direct {x} {y}) {z})")
    assert calls == []


# Values per argument type, each one token of the fuzz vocabulary (an
# inline atom counts as one).  Integers stay small: unbounded :k and :dim
# are out of scope here.
_GX_WORDS = ['""', '"a"', '"b"', '"t"', '"a b"', '"a^-1"', '"a^2"', "1"]
_GX_ATOMS = ['(atom "L" :pres "gens a b")', '(atom "F" :pres "gens a" :facts (amenable))']
_GX_VALUES = {
    "expr": _GX_ATOMS + ["(meier-T)"],
    "source": _GX_ATOMS,
    "word": _GX_WORDS,
    "name": _GX_WORDS,
    "letter": _GX_WORDS,
    "file": _GX_WORDS,
    "pres": ['"gens a b"', '"gens a\\nrel a^2"', '"a"', '""'],
    "facts": ["(amenable)", "((fin-gen 2))", "((amenable 3))", "()"],
    "pairs": ['(("a" "a"))', '(("a" "b^2"))', '(("" "a"))', "()"],
    "kind": sorted(FAMILY),
    "int": ["0", "1", "2", "3"],
}
_GX_ORACLES = ['"free"', '"bs:2,3"', '"bs:2"']
_GX_TOKENS = st.sampled_from(
    ["(", ")", ":oracle"]
    + sorted(FORMS)
    + sorted({f":{arg.keyword}" for form in FORMS.values() for arg in form.args if arg.keyword})
    + sorted({f":{tag.flag}" for form in FORMS.values() for tag in form.tags if tag.flag})
    + sorted({value for values in _GX_VALUES.values() for value in values} | set(_GX_ORACLES))
)


@st.composite
def _gx_texts(draw):
    """One form, its head's own arguments drawn from the vocabulary (each
    keyword argument and flag present or not), then up to two tokens
    inserted or deleted inside it: about 12 tokens at most.  Brackets and
    heads come mostly from insertions, so most texts reach a form's
    schema and many its constructor."""
    head = draw(st.sampled_from(sorted(FORMS)))
    tokens = ["(", head]
    for arg in FORMS[head].args:
        if arg.keyword is not None:
            if not draw(st.booleans()):
                continue
            tokens.append(f":{arg.keyword}")
        tokens.append(draw(st.sampled_from(_GX_VALUES[arg.type])))
        if arg.type == "source" and draw(st.booleans()):
            tokens += [":oracle", draw(st.sampled_from(_GX_ORACLES))]
    tokens += [f":{tag.flag}" for tag in FORMS[head].tags if tag.flag and draw(st.booleans())]
    tokens.append(")")
    for _ in range(draw(st.integers(0, 2))):
        i = draw(st.integers(2, len(tokens) - 1))  # after the head, up to the `)`
        if draw(st.booleans()) or tokens[i] == ")":
            tokens.insert(i, draw(_GX_TOKENS))
        else:
            del tokens[i]
    return " ".join(tokens)


@settings(max_examples=200, deadline=None, database=None, derandomize=True)
@given(_gx_texts())
def test_any_gx_text_is_read_or_refused(text):
    try:
        expr = parse_expr(text)
    except GpforgeError:
        return
    assert isinstance(expr, GroupExpr)


def _lexed(text):
    return [(type(tok).__name__, tok) for tok in _tokenize(text)]


@pytest.mark.parametrize(
    "text, tokens",
    [
        # The four escapes; any other escaped character stands for itself.
        (r'"a\nb\tc\"d\\e"', [("str", 'a\nb\tc"d\\e')]),
        (r'"\q"', [("str", "q")]),
        ('"a\\\nb"', [("str", "a\nb")]),
        # `;` starts a comment outside a string only.
        ('"a;b" c; d "e\n f', [("str", "a;b"), ("Symbol", "c"), ("Symbol", "f")]),
        # Tab, CR and LF are blanks.
        ("(\tatom\r\nx)", [("Symbol", "("), ("Symbol", "atom"), ("Symbol", "x"), ("Symbol", ")")]),
        ('x"y"(z', [("Symbol", "x"), ("str", "y"), ("Symbol", "("), ("Symbol", "z")]),
        ("7 -2 :k", [("int", 7), ("int", -2), ("Symbol", ":k")]),
        # Integers are ASCII -?[0-9]+ only.
        ("1_0 +2 \u0662 - --2", [("Symbol", "1_0"), ("Symbol", "+2"), ("Symbol", "\u0662"), ("Symbol", "-"), ("Symbol", "--2")]),
    ],
)
def test_gx_lexer(text, tokens):
    assert _lexed(text) == tokens


@pytest.mark.parametrize("text", ['"abc', '(atom "G', r'"ends in an escaped quote\"', '"ends in a backslash\\'])
def test_gx_lexer_refuses_an_unterminated_string(text):
    with pytest.raises(ParseError, match=r"^unterminated string in expression file$"):
        _tokenize(text)


def _lexed_or_refused(tokenize, text):
    try:
        return [(type(tok).__name__, tok) for tok in tokenize(text)]
    except ParseError as exc:
        return str(exc)


# Delimiters, escapes, digits and signs, and characters that are none of
# these: form feed, em space, an Arabic-Indic digit, `_` and `+`.
_LEXER_CHARACTERS = list('\t\r\n ();"\\-0123456789abx:') + ["\x0c", "\u2003", "\u0662", "_", "+"]


@settings(max_examples=3000, deadline=None, database=None, derandomize=True)
@given(st.text(st.sampled_from(_LEXER_CHARACTERS), max_size=24))
def test_gx_lexer_matches_the_character_loop(text):
    assert _lexed_or_refused(_tokenize, text) == _lexed_or_refused(loop_tokenize, text)


@pytest.mark.parametrize(
    "text",
    ["9" * 5000, "-" + "9" * 5000, "(k " + "9" * 5000 + ")", "9" * 5000 + "x", '"abc\\', "; a\r b\n c", '"a\\\nb"'],
    ids=["digits", "negative-digits", "digits-in-a-form", "digits-then-a-letter", "end-backslash", "cr-in-comment", "escaped-lf"],
)
def test_gx_lexer_matches_the_character_loop_at_the_edges(text):
    assert _lexed_or_refused(_tokenize, text) == _lexed_or_refused(loop_tokenize, text)


def test_gx_word_strings_take_only_the_grammars_blanks():
    for separator in ("\x0c", "\u2003"):
        with pytest.raises(ParseError, match="is not a space, a tab or a line end"):
            parse_expr(f'(lambda-w (atom "F2" :pres "gens a b") "a{separator}b")')


def test_gx_string_escapes_reach_the_presentation():
    expr = parse_expr('(atom "G" :pres "gens\\ta b\\n# x ; y\\nrel\\ta^2 = b")')
    assert serialize(expr.realized) == "gens a b\nrel a^2 b^-1"

