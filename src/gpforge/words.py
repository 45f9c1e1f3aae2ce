"""Free-group word algebra over named generator alphabets.

Words are stored in run-length form: a sequence of (symbol, exponent) pairs
with nonzero arbitrary-precision exponents and distinct adjacent symbols.
A word in this form is automatically freely reduced, so the public
constructors `Word(letters)` and `word` normalise every run, `parse_word`
reduces the runs as it reads them, and every operation returns reduced
words.  A symbol is the 1-tuple ``(name,)``, so run comparisons and word
hashes run in C.

The operations trust that their operands are reduced already: products,
powers, inverses, `substitute` and `cyclically_reduce` build their
results from the operands' runs, and two reduced run lists can cancel
only where they meet (Lyndon-Schupp, Combinatorial Group Theory, I.1).
They join them with `_push_runs`, which merges or cancels at that seam,
cascades included, and wrap the result with `_reduced`, which normalises
nothing.  `_push_runs` and `_peel` only compare and add the runs' two
entries, so they serve any run tuple, the integer-coded relators of
`presentations.tietze_simplify` too.

Text syntax (used by every file format and by the CLI):

    word    := '1' | atom (WS atom)*
    atom    := ident ('^' integer)?
    ident   := [A-Za-z][A-Za-z0-9_]*
    integer := '-'? [1-9][0-9]*

`1` denotes the empty word, e.g. ``t^-1 a^2 t a^-3``.  `parse_word`
refuses whitespace other than WS (spaces, tabs, LFs and CRs), then reads
with `_read_word`; `.grp` relators go to `_read_word` directly, as
`presentations._text_lines` has refused it on their lines.
"""

from __future__ import annotations

import re
from operator import itemgetter
from typing import Dict, Iterable, Iterator, Optional, Tuple

from .errors import AlphabetMismatchError, InvalidInputError, ParseError

_IDENT_RE = re.compile(r"[A-Za-z][A-Za-z0-9_]*\Z")
_INTEGER_RE = re.compile(r"-?[1-9][0-9]*\Z")

EXPONENT_DIGIT_LIMIT = 4_000
"""Digits an exponent literal may have: below the 4,300-digit limit of
int(str) and str(int), so every parsed word, and a sum of its exponents,
can be printed again."""


class GeneratorSymbol(tuple):
    """A named generator: the 1-tuple ``(name,)``.

    Being a tuple, a symbol compares, orders and hashes by name in C: two
    symbols with one name are equal and hash to ``hash((name,))``, and a
    symbol never equals its name string.  It does equal the plain tuple
    ``(name,)``; no container of the package mixes the two.
    """

    __slots__ = ()

    def __new__(cls, name: str):
        if not _IDENT_RE.match(name):
            raise ParseError(f"invalid generator name {name!r}")
        return tuple.__new__(cls, (name,))

    name = property(itemgetter(0), doc="The generator's name.")

    def __getnewargs__(self):
        return (self[0],)

    def __repr__(self):
        return f"GeneratorSymbol({self[0]!r})"


class Alphabet:
    """An ordered list of distinct generator symbols.

    Order is significant: it fixes matrix column order in homology and
    the canonical `gens` line in serialized presentations.
    """

    def __init__(self, symbols: Iterable[GeneratorSymbol | str]):
        syms = tuple(
            s if isinstance(s, GeneratorSymbol) else GeneratorSymbol(s) for s in symbols
        )
        names = [s.name for s in syms]
        if len(set(names)) != len(names):
            dup = sorted({n for n in names if names.count(n) > 1})
            raise ParseError(f"duplicate generator name(s): {', '.join(dup)}")
        self._symbols = syms
        self._by_name = {s.name: s for s in syms}
        self._index = {s: i for i, s in enumerate(syms)}

    @property
    def symbols(self) -> Tuple[GeneratorSymbol, ...]:
        return self._symbols

    @property
    def names(self) -> Tuple[str, ...]:
        return tuple(s.name for s in self._symbols)

    def __len__(self):
        return len(self._symbols)

    def __iter__(self) -> Iterator[GeneratorSymbol]:
        return iter(self._symbols)

    def __contains__(self, symbol) -> bool:
        if isinstance(symbol, str):
            return symbol in self._by_name
        return symbol in self._index

    def __eq__(self, other):
        return isinstance(other, Alphabet) and self._symbols == other._symbols

    def __hash__(self):
        return hash(self._symbols)

    def __repr__(self):
        return f"Alphabet({list(self.names)!r})"

    def symbol(self, name: str) -> GeneratorSymbol:
        try:
            return self._by_name[name]
        except KeyError:
            raise AlphabetMismatchError(f"no generator named {name!r} in alphabet") from None

    def index(self, symbol: GeneratorSymbol) -> int:
        try:
            return self._index[symbol]
        except KeyError:
            raise AlphabetMismatchError(f"{symbol.name!r} not in alphabet") from None

    def check_word(self, word: "Word") -> None:
        for sym, _ in word.letters:
            if sym not in self._index:
                raise AlphabetMismatchError(f"symbol {sym.name!r} not in alphabet")


def _normalize(letters: Iterable[Tuple[GeneratorSymbol, int]]) -> Tuple[Tuple[GeneratorSymbol, int], ...]:
    # Stack pass: merge adjacent runs of the same symbol, drop zero exponents.
    # In run-length form this is exactly free reduction (cascades included).
    stack: list[list] = []
    for sym, exp in letters:
        if not isinstance(exp, int):
            raise TypeError(f"exponent must be int, got {type(exp).__name__}")
        if exp == 0:
            continue
        if stack and stack[-1][0] == sym:
            stack[-1][1] += exp
            if stack[-1][1] == 0:
                stack.pop()
        else:
            stack.append([sym, exp])
    return tuple((s, e) for s, e in stack)


def _push_runs(out: list, runs: Tuple[Tuple[GeneratorSymbol, int], ...]) -> None:
    """Append the reduced runs `runs` to the reduced run list `out`.

    Only the seam can merge: a run of the top symbol adds to it, and when
    the sum is zero the run below is exposed to the next one.  Past the
    first run that does not cancel, the runs are appended as they are.
    """
    i = 0
    for sym, exp in runs:
        if not out or out[-1][0] != sym:
            break
        i += 1
        exp += out[-1][1]
        if exp:
            out[-1] = (sym, exp)
            break
        out.pop()
    out.extend(runs[i:])


def _reduced(runs: Tuple[Tuple[GeneratorSymbol, int], ...]) -> "Word":
    """The Word of a run tuple that is reduced already, not normalised."""
    w = object.__new__(Word)
    object.__setattr__(w, "_letters", runs)
    return w


class Word:
    """A freely reduced word; immutable and hashable.

    Exponents are plain Python ints, so iterated constructions can grow
    them without overflow.
    """

    __slots__ = ("_letters",)

    def __init__(self, letters: Iterable[Tuple[GeneratorSymbol, int]] = ()):
        object.__setattr__(self, "_letters", _normalize(letters))

    @property
    def letters(self) -> Tuple[Tuple[GeneratorSymbol, int], ...]:
        return self._letters

    def __setattr__(self, name, value):
        raise AttributeError("Word is immutable")

    def __reduce__(self):
        # copy and pickle rebuild the word from its runs, which are reduced.
        return _reduced, (self._letters,)

    def __len__(self):
        """Word length: sum of |exponent| over all runs."""
        return sum(abs(e) for _, e in self._letters)

    def __bool__(self):
        return bool(self._letters)

    def __eq__(self, other):
        return isinstance(other, Word) and self._letters == other._letters

    def __hash__(self):
        return hash(self._letters)

    def __mul__(self, other: "Word") -> "Word":
        out = list(self._letters)
        _push_runs(out, other._letters)
        return _reduced(tuple(out))

    def __invert__(self) -> "Word":
        # The inverse of a freely reduced run-length word is freely reduced.
        return _reduced(tuple((s, -e) for s, e in reversed(self._letters)))

    def __pow__(self, k: int) -> "Word":
        # Words are immutable, so w ** 1 may be w itself.
        if not isinstance(k, int):
            return NotImplemented
        if k == 1:
            return self
        if k == -1:
            return ~self
        if k == 0 or not self._letters:
            return _reduced(())
        if k < 0:
            return (~self) ** (-k)
        if len(self._letters) == 1:
            (sym, exp), = self._letters
            return _reduced(((sym, exp * k),))
        out: list = []
        for _ in range(k):
            _push_runs(out, self._letters)
        return _reduced(tuple(out))

    def single_letters(self) -> Iterator[Tuple[GeneratorSymbol, int]]:
        """Flatten to +-1 letters (avoid on words with huge exponents)."""
        for sym, exp in self._letters:
            step = 1 if exp > 0 else -1
            for _ in range(abs(exp)):
                yield sym, step

    def __repr__(self):
        return f"Word({format_word(self)!r})"

    def __str__(self):
        return format_word(self)


def word(*letters) -> Word:
    """Convenience constructor: word(("a", 2), "t", ("a", -3)) etc."""
    out = []
    for item in letters:
        if isinstance(item, str):
            out.append((GeneratorSymbol(item), 1))
        elif isinstance(item, GeneratorSymbol):
            out.append((item, 1))
        else:
            sym, exp = item
            if isinstance(sym, str):
                sym = GeneratorSymbol(sym)
            out.append((sym, exp))
    return Word(out)


def _peel(runs: tuple) -> Tuple[tuple, tuple]:
    """Split the reduced run tuple `runs` as (core, conjugator), the
    run tuples of `cyclically_reduce`."""
    lo, hi = 0, len(runs)
    while hi - lo >= 2:
        (s0, e0), (s1, e1) = runs[lo], runs[hi - 1]
        if s0 != s1 or (e0 > 0) == (e1 > 0):
            break
        if e0 + e1 == 0:
            # A fully peeled pair may expose another cancellable pair.
            lo, hi = lo + 1, hi - 1
            continue
        # The shorter run of the pair is peeled whole and the longer keeps
        # the rest; the runs next to it have other symbols, so peeling stops.
        if abs(e0) > abs(e1):
            return ((s0, e0 + e1),) + runs[lo + 1 : hi - 1], runs[:lo] + ((s0, -e1),)
        return runs[lo + 1 : hi - 1] + ((s1, e0 + e1),), runs[: lo + 1]
    return runs[lo:hi], runs[:lo]


def cyclically_reduce(w: Word) -> Tuple[Word, Word]:
    """Return (core, conjugator) with w = conjugator * core * conjugator^-1.

    The core is cyclically reduced; peeling works on run-length entries so
    huge exponents never get flattened.  Core and conjugator are slices of
    w's runs, with at most one end run shortened, so both are reduced.
    """
    core, conjugator = _peel(w.letters)
    return _reduced(core), _reduced(conjugator)


def substitute(w: Word, mapping: Dict[GeneratorSymbol, Word]) -> Word:
    """Homomorphic image of `w` under symbol -> word, freely reduced.

    Each letter's image power is pushed onto the result with a seam merge;
    a single-run image s^e is pushed as the one run s^(e * exp).
    """
    out: list = []
    for sym, exp in w.letters:
        try:
            runs = mapping[sym]._letters
        except KeyError:
            raise InvalidInputError(f"substitution map has no image for {sym.name!r}") from None
        if len(runs) == 1:
            (s, e), = runs
            e *= exp
            if out and out[-1][0] == s:
                e += out[-1][1]
                if e:
                    out[-1] = (s, e)
                else:
                    out.pop()
            else:
                out.append((s, e))
        elif runs:
            if exp < 0:
                runs, exp = tuple((s, -e) for s, e in reversed(runs)), -exp
            for _ in range(exp):
                _push_runs(out, runs)
    return _reduced(tuple(out))


def commutator(u: Word, v: Word) -> Word:
    """[u, v] = u^-1 v^-1 u v."""
    return (~u) * (~v) * u * v


def _foreign_blank(text: str) -> Optional[re.Match]:
    """The first whitespace character of `text` other than a space, a tab,
    LF or CR, as a match, or None if there is none.  ASCII text (a flag
    CPython keeps) is checked for the six C0 separators only, and
    printable ASCII, whose one whitespace character is the space, not at
    all."""
    if text.isascii() and (text.isprintable() or not any(c in text for c in "\x0b\x0c\x1c\x1d\x1e\x1f")):
        return None
    return re.search(r"[^\S \t\n\r]", text)


def parse_word(text: str, alphabet: Optional[Alphabet] = None, *, line: Optional[int] = None) -> Word:
    """Parse the word text syntax; `1` is the empty word.

    When an alphabet is supplied, identifiers must name its generators;
    without one, each distinct name makes one new symbol per call.  An
    error's column counts from the start of `text`; a whitespace
    character other than WS is an error at its column.
    """
    found = _foreign_blank(text)
    if found:
        raise ParseError(
            f"separator {found.group()!r} is not a space, a tab or a line end", line=line, column=found.start() + 1
        )
    return _read_word(text, alphabet, line, 1)


def _read_word(text: str, alphabet: Optional[Alphabet], line: Optional[int], column: int) -> Word:
    """`parse_word` on text without foreign whitespace that starts at
    `column` of `line`.  Each distinct atom text is checked and resolved
    once per call, and the runs are reduced as they are read: within a
    call a name is one symbol object, so runs merge by identity."""
    stripped = text.strip()
    if stripped == "1":
        return _reduced(())
    if not stripped:
        raise ParseError("empty word text (use '1' for the identity)", line=line)
    out: list = []
    atoms: Dict[str, Tuple[GeneratorSymbol, int]] = {}
    made: Dict[str, GeneratorSymbol] = {}
    for token in stripped.split():
        atom = atoms.get(token)
        if atom is None:
            try:
                atom = atoms[token] = _parse_atom(token, alphabet, made)
            except ParseError as exc:
                raise ParseError(exc.message, line=line, column=_column(text, token) + column - 1) from None
        sym, exp = atom
        if out and out[-1][0] is sym:
            exp += out[-1][1]
            if exp:
                out[-1] = (sym, exp)
            else:
                out.pop()
        else:
            # Exponent literals are nonzero, so the atom is a run.
            out.append(atom)
    return _reduced(tuple(out))


def _parse_atom(token: str, alphabet: Optional[Alphabet], made: Dict[str, GeneratorSymbol]):
    """The (symbol, exponent) run of one word atom."""
    ident, caret, expstr = token.partition("^")
    if not _IDENT_RE.match(ident):
        raise ParseError(f"bad word atom {token!r}")
    if caret:
        if not _INTEGER_RE.match(expstr):
            raise ParseError(f"bad exponent in atom {token!r}")
        digits = len(expstr.lstrip("-"))
        if digits > EXPONENT_DIGIT_LIMIT:
            raise ParseError(
                f"exponent in atom {token[:len(ident) + 12]!r}... has {digits} digits,"
                f" more than {EXPONENT_DIGIT_LIMIT}"
            )
        exp = int(expstr)
    else:
        exp = 1
    if alphabet is not None:
        sym = alphabet.symbol(ident)
    else:
        sym = made.get(ident)
        if sym is None:
            sym = made[ident] = GeneratorSymbol(ident)
    return sym, exp


def _column(text: str, token: str) -> int:
    """1-based column of the first atom `token` in `text`: atoms are checked
    at their first occurrence, so that is where the error is."""
    pos = 0
    for atom in text.split():
        pos = text.index(atom, pos)
        if atom == token:
            return pos + 1
        pos += len(atom)


def format_word(w: Word) -> str:
    """Serialize to the word text syntax; inverse of parse_word."""
    if not w.letters:
        return "1"
    atoms = []
    for sym, exp in w.letters:
        atoms.append(sym.name if exp == 1 else f"{sym.name}^{exp}")
    return " ".join(atoms)
