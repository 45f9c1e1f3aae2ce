"""S-expression file format for GroupExpr construction trees.

Construction forms:

    (atom "name" :file "p.grp" :facts (amenable (fin-gen 2)))
    (atom "name" :pres "gens a b\\nrel ..." :facts (...))
    (free-product E E)        (direct E E)
    (amalgam E E :pairs (("u" "v") ...))
    (hnn E :stable "t" :assoc (("u" "v") ...) :ascending)
    (mitosis E)               (mu E :k 3)
    (meier-T)                 (meier-gamma)
    (lambda-w E "w")          (gamma-w E "w")
    (witness-w E E "w")       (pi-w E "w" :dim d)    (delta-w E "w" :dim d)

`combinators.FORMS` holds each form's argument schema; a missing,
surplus, unknown or mistyped argument is a ParseError.  Reader and writer
are iterative, so nesting depth is bounded by memory, not by the Python
stack.  Witness forms take
the word-problem source as an atom E and accept an optional
`:oracle "free"` or `:oracle "bs:2,3"` (default free); the atom's
presentation must be the oracle's group (`reductions.WordProblemSource`).
An atom's `:facts` list holds bare names and `(name arg)` pairs;
`inference.PREDICATES` says which names are assertable and which take a degree >= 0, and
`inference.parse_fact` rejects anything else as a ParseError;
`parse_query` reads one such fact without its parentheses (`infer
--query "large-hb 6"`).  Writers emit
inline `:pres` atoms, `(meier-T)` and `(meier-gamma)` as themselves, and
every other node as its family's form, with `:kind lambda-w|gamma-w` on
free-product, `:kind pi-w|delta-w` on direct and `:kind witness-w` on
amalgam, plus `:dim` and the tag flags (`:nonelementary`,
`:edge-amenable`, `:doublecoset-3`, `:proper-edge`, `:legit-edges`,
`:ascending`, `:bac-chain`), which readers restore, so written trees
re-derive identically.  Words are quoted in the word text syntax.
"""

from __future__ import annotations

import os
import re
import reprlib
from typing import Callable, List, Optional, Tuple

from . import combinators as cb
from . import meier as meier_mod
from . import reductions as red
from .errors import ParseError
from .inference import PREDICATES, parse_fact
from .presentations import Presentation, parse as parse_presentation, read_text, serialize
from .words import Word, format_word, parse_word


class Symbol(str):
    """A bare token, distinct from a quoted string."""


# Blanks, then one alternative per token kind: a `;` comment (to LF
# only), a paren, a string, an ASCII integer that ends at a delimiter
# (int() alone would also read 1_0, +2 and other scripts' digits), a bare
# token, a `"` that no closing quote follows, or the end of the text.
_TOKEN_RE = re.compile(
    r'[ \t\r\n]*(?:;[^\n]*|([()])|"((?:[^"\\]|\\.)*)"|(-?[0-9]+)(?![^ \t\r\n();"])|([^ \t\r\n();"]+)|(")|\Z)',
    re.DOTALL,
)


def _tokenize(text: str) -> List[object]:
    tokens: List[object] = []
    for match in _TOKEN_RE.finditer(text):
        kind = match.lastindex
        if kind == 1 or kind == 4:
            tokens.append(Symbol(match[kind]))
        elif kind == 2:
            # \n and \t are LF and tab; any other escaped character stands
            # for itself.
            body = match[2]
            if "\\" in body:
                body = re.sub(r"\\(.)", lambda m: {"n": "\n", "t": "\t"}.get(m[1], m[1]), body, flags=re.DOTALL)
            tokens.append(body)
        elif kind == 3:
            try:
                tokens.append(int(match[3]))
            except ValueError:  # past int()'s digit limit
                tokens.append(Symbol(match[3]))
        elif kind == 5:
            raise ParseError("unterminated string in expression file")
    return tokens


def _is_keyword(item) -> bool:
    return isinstance(item, Symbol) and item.startswith(":")


def _split_args(items: List[object]):
    """Separate positional arguments from :keyword arguments (a keyword
    followed by a non-keyword takes it as value, else acts as a flag)."""
    positional, keywords = [], {}
    for i, item in enumerate(items):
        if _is_keyword(item):
            has_value = i + 1 < len(items) and not _is_keyword(items[i + 1])
            keywords[item[1:]] = items[i + 1] if has_value else True
        elif not (i and _is_keyword(items[i - 1])):
            positional.append(item)
    return positional, keywords


def _show(raw) -> str:
    """A read item for an error message; a data list however deep shows
    only its first levels."""
    return reprlib.repr(raw) if isinstance(raw, list) else repr(raw)


def _expect(ok: bool, what: str, raw) -> None:
    if not ok:
        raise ParseError(f"expected {what}, got {_show(raw)}")


def _expr(raw) -> cb.GroupExpr:
    """A form that parse_expr has built; a list it left as data names no
    construction."""
    if isinstance(raw, list) and raw and isinstance(raw[0], Symbol):
        raise ParseError(f"unknown construction form {str(raw[0])!r}")
    _expect(isinstance(raw, cb.GroupExpr), "a construction form", raw)
    return raw


def _string(raw) -> str:
    _expect(isinstance(raw, str), "a string", raw)
    return raw


def _fact(item) -> Tuple[str, Optional[int]]:
    """A fact: a bare name, or a list of a name and its argument."""
    name, *arg = item if isinstance(item, list) and len(item) == 2 else (item,)
    _expect(isinstance(name, Symbol), "a fact", item)
    return parse_fact(name, *arg)


def parse_query(text: str) -> Tuple[str, Optional[int]]:
    """A fact as written in `:facts`, without parentheses: `name` or `name arg`."""
    tokens = _tokenize(text)
    return _fact(tokens[0] if len(tokens) == 1 else tokens)


class _FormReader:
    """One form's arguments, read against its schema in `cb.FORMS`."""

    def __init__(self, head: str, items: List[object], loader):
        self.head, self.loader = head, loader
        self.positional, self.keywords = _split_args(items)
        self.exprs: List[cb.GroupExpr] = []  # sub-expressions read so far
        self.values = {}  # keyed arguments read so far

    def expr(self, raw) -> cb.GroupExpr:
        self.exprs.append(_expr(raw))
        return self.exprs[-1]

    def source(self, raw) -> red.WordProblemSource:
        node = self.expr(raw)
        if node.kind != cb.ATOM:
            raise ParseError("witness constructions need an atom as word-problem source")
        spec = _string(self.keywords.pop("oracle", "free"))
        return red.parse_oracle(spec, node.realized, node.payload["facts"])

    def file(self, raw) -> Presentation:
        if self.loader is None:
            raise ParseError("atom :file reference but no loader available")
        return self.loader(_string(raw))

    def pres(self, raw) -> Presentation:
        return parse_presentation(_string(raw), name=self.values["name"])

    def facts(self, raw) -> Tuple:
        _expect(isinstance(raw, list), "a fact list", raw)
        return tuple(_fact(item) for item in raw)

    def kind(self, raw) -> str:
        kinds = [k for k, family in cb.FAMILY.items() if family == self.head and cb.FORMS[k].args]
        _expect(raw in kinds, f"a kind of {self.head} ({' '.join(kinds)})", raw)
        return str(raw)

    def integer(self, raw) -> int:
        _expect(type(raw) is int, "an integer", raw)
        return raw

    def word(self, raw) -> Word:
        return parse_word(_string(raw), self.exprs[-1].realized.alphabet)

    def pairs(self, raw) -> List[Tuple[Word, Word]]:
        _expect(isinstance(raw, list), "a list of word pairs", raw)
        left, right = self.exprs[0].realized.alphabet, self.exprs[-1].realized.alphabet
        out = []
        for item in raw:
            _expect(isinstance(item, list) and len(item) == 2, "a word pair", item)
            out.append((parse_word(_string(item[0]), left), parse_word(_string(item[1]), right)))
        return out


_READ = {
    "expr": _FormReader.expr, "source": _FormReader.source, "file": _FormReader.file,
    "pres": _FormReader.pres, "facts": _FormReader.facts, "kind": _FormReader.kind,
    "int": _FormReader.integer, "word": _FormReader.word, "pairs": _FormReader.pairs,
    "name": lambda reader, raw: _string(raw), "letter": lambda reader, raw: _string(raw),
}
_MODULES = {"combinators": cb, "meier": meier_mod, "reductions": red}


def _build(head: str, items: List[object], loader: Callable[[str], Presentation]) -> cb.GroupExpr:
    """Evaluate one form, its sub-forms already built, to a GroupExpr.

    `loader` resolves `:file` references in atom forms.
    """
    spec = cb.FORMS[head]
    reader = _FormReader(head, items, loader)
    args, values = [], reader.values
    for arg in spec.args:
        if arg.keyword is None:
            if not reader.positional:
                raise ParseError(f"{head} is missing a positional argument")
            raw = reader.positional.pop(0)
        else:
            raw = reader.keywords.pop(arg.keyword, None)
        if raw is not None:
            value = _READ[arg.type](reader, raw)
        elif arg.default == cb.REQUIRED and arg.key not in values:
            options = " or ".join(f":{a.keyword}" for a in spec.args if a.key == arg.key)
            raise ParseError(f"{head} needs {options}")
        elif arg.default in (None, cb.REQUIRED):
            continue
        else:
            value = arg.default
        if arg.key is None:
            args.append(value)
        else:
            values[arg.key] = value
    for tag in spec.tags:
        if tag.flag in reader.keywords:
            flag = reader.keywords.pop(tag.flag)
            _expect(flag is True, f"no value after :{tag.flag}", flag)
            values[tag.key] = True
    if reader.positional or reader.keywords:
        surplus = reader.positional + [f":{k}" for k in reader.keywords]
        raise ParseError(f"{head} got a surplus argument {_show(surplus[0])}")
    module, _, name = spec.constructor.partition(".")
    try:
        built = getattr(_MODULES[module], name)(*args, **values)
    except ValueError as exc:
        raise ParseError(f"{head}: {exc}") from None
    return built if isinstance(built, cb.GroupExpr) else built.expr


def parse_expr(text: str, *, base_dir: Optional[str] = None) -> cb.GroupExpr:
    """Read one construction form.  Iterative, so nesting depth is bounded
    by memory only: one loop over the tokens keeps a stack of open lists,
    and each list is finished when its `)` is read.  A list whose head is
    a `cb.FORMS` key is built into a GroupExpr then, its sub-forms already
    built; any other list stays data (`:pairs`, `:facts`)."""

    def loader(path: str) -> Presentation:
        full = path if base_dir is None else os.path.join(base_dir, path)
        return parse_presentation(read_text(full), name=os.path.basename(path))

    stack: List[List[object]] = [[]]
    for tok in _tokenize(text):
        if isinstance(tok, Symbol) and tok == "(":
            stack.append([])
        elif isinstance(tok, Symbol) and tok == ")":
            if len(stack) == 1:
                raise ParseError("unbalanced closing parenthesis")
            items = stack.pop()
            head = items[0] if items else None
            if isinstance(head, Symbol) and head in cb.FORMS:
                stack[-1].append(_build(str(head), items[1:], loader))
            else:
                stack[-1].append(items)
        else:
            stack[-1].append(tok)
    if len(stack) > 1:
        raise ParseError("missing closing parenthesis")
    forms = stack[0]
    if not forms:
        raise ParseError("unexpected end of expression file")
    if len(forms) > 1:
        raise ParseError("trailing tokens after the construction form")
    return _expr(forms[0])


def _quote(s: str) -> str:
    return '"' + s.replace("\\", "\\\\").replace('"', '\\"').replace("\n", "\\n") + '"'


def _facts_form(facts) -> str:
    parts = []
    for pred, arg in facts:
        name = PREDICATES[pred].name if pred in PREDICATES else None
        if name is None:
            raise ParseError(f"cannot serialize the fact {pred!r}")
        parse_fact(name, arg)  # write only what the reader accepts
        parts.append(name if arg is None else f"({name} {arg})")
    return "(" + " ".join(parts) + ")"


def _pairs_form(pairs) -> str:
    return "(" + " ".join(f"({_quote(format_word(u))} {_quote(format_word(v))})" for u, v in pairs) + ")"


# Writers per argument type: (node, payload key, children's texts, the next
# one last) -> text, or None to leave it out.  Sources and words are only read.
_WRITE = {
    "expr": lambda node, key, children: children.pop(),
    "name": lambda node, key, children: _quote(node.payload[key] or node.kind),
    "file": lambda node, key, children: None,
    "pres": lambda node, key, children: _quote(serialize(node.realized)),
    "facts": lambda node, key, children: _facts_form(node.payload[key]) if node.payload[key] else None,
    "kind": lambda node, key, children: None if cb.FAMILY[node.kind] == node.kind else node.kind,
    "int": lambda node, key, children: None if node.payload[key] is None else str(node.payload[key]),
    "letter": lambda node, key, children: _quote(node.payload[key].name),
    "pairs": lambda node, key, children: _pairs_form(node.payload[key]),
}


def serialize_expr(expr: cb.GroupExpr) -> str:
    """Self-contained form (inline presentations) that re-derives
    identically when parsed back.  Iterative: nodes are written in reverse
    pre-order, each taking its children's texts off one stack."""
    order, stack = [], [expr]
    while stack:
        node = stack.pop()
        if node.kind not in cb.FAMILY:
            raise ParseError(f"cannot serialize node kind {node.kind!r}")
        order.append(node)
        if cb.FORMS[node.kind].args:
            stack.extend(reversed(node.children))
    texts: List[str] = []
    for node in reversed(order):
        texts.append(_form(node, texts))
    return texts[0]


def _form(node: cb.GroupExpr, texts: List[str]) -> str:
    """One node's form, taking its children's texts off the end of `texts`."""
    if not cb.FORMS[node.kind].args:
        return f"({node.kind})"
    head = cb.FAMILY[node.kind]
    spec = cb.FORMS[head]
    parts = [head]
    for arg in spec.args:
        text = _WRITE[arg.type](node, arg.key, texts)
        if text is not None:
            parts.append(text if arg.keyword is None else f":{arg.keyword} {text}")
    parts.extend(f":{tag.flag}" for tag in spec.tags if tag.flag and node.payload.get(tag.key))
    return "(" + " ".join(parts) + ")"
