"""Finite group presentations.

File grammar (UTF-8, LF on output):

    file      := line*
    line      := comment | gens | rel | blank
    comment   := '#' <any chars> EOL
    gens      := 'gens' (WS ident)* EOL        # at most one per file
    rel       := 'rel' WS word (WS '=' WS word)? EOL

`rel u = v` is sugar for the relator u * v^-1.  Words use the syntax from
gpforge.words.
"""

from __future__ import annotations

from collections import defaultdict
from dataclasses import dataclass, field
from typing import Callable, Dict, List, Optional, Sequence, Tuple

from .errors import AlphabetMismatchError, ParseError
from .words import (
    Alphabet,
    GeneratorSymbol,
    Word,
    _reduced,
    cyclically_reduce,
    format_word,
    identity_map,
    parse_word,
    substitute,
)


@dataclass(frozen=True)
class Presentation:
    """An alphabet plus an ordered list of relators."""

    alphabet: Alphabet
    relators: Tuple[Word, ...]
    name: Optional[str] = field(default=None, compare=False)

    def __post_init__(self):
        object.__setattr__(self, "relators", tuple(self.relators))

    def __repr__(self):
        nm = f" name={self.name!r}" if self.name else ""
        return f"<Presentation{nm} gens={list(self.alphabet.names)} rels={len(self.relators)}>"


def presentation(gens: Sequence[str], relator_texts: Sequence[str] = (), name: Optional[str] = None) -> Presentation:
    """Build a presentation from generator names and relator word texts."""
    alphabet = Alphabet(gens)
    rels = tuple(parse_word(t, alphabet) for t in relator_texts)
    return Presentation(alphabet, rels, name)


EMPTY_PRESENTATION = Presentation(Alphabet(()), ())


def read_text(path: str) -> str:
    """The text of a UTF-8 file; a ParseError naming `path` if it cannot be
    read or decoded."""
    try:
        with open(path, "r", encoding="utf-8") as fh:
            return fh.read()
    except OSError as exc:
        raise ParseError(f"cannot read {path}: {exc.strerror}")
    except UnicodeDecodeError:
        raise ParseError(f"cannot read {path}: not UTF-8 text")


def parse(text: str, name: Optional[str] = None) -> Presentation:
    """Parse the presentation file grammar; errors carry line numbers."""
    alphabet: Optional[Alphabet] = None
    pending_rels: List[Tuple[int, str]] = []
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        keyword, _, rest = line.partition(" ")
        if keyword == "gens":
            if alphabet is not None:
                raise ParseError("more than one 'gens' line", line=lineno)
            try:
                alphabet = Alphabet(rest.split())
            except ParseError as exc:
                raise ParseError(str(exc), line=lineno) from None
        elif keyword == "rel":
            if not rest.strip():
                raise ParseError("empty 'rel' line", line=lineno)
            pending_rels.append((lineno, rest.strip()))
        else:
            raise ParseError(f"unknown directive {keyword!r}", line=lineno)
    if alphabet is None:
        alphabet = Alphabet(())
    relators = []
    for lineno, rel_text in pending_rels:
        try:
            if " = " in rel_text:
                left_text, right_text = rel_text.split(" = ", 1)
                left = parse_word(left_text, alphabet, line=lineno)
                right = parse_word(right_text, alphabet, line=lineno)
                relators.append(left * ~right)
            else:
                relators.append(parse_word(rel_text, alphabet, line=lineno))
        except AlphabetMismatchError as exc:
            raise ParseError(f"relator uses undeclared generator: {exc}", line=lineno) from None
    return Presentation(alphabet, tuple(relators), name)


def serialize(p: Presentation) -> str:
    """Canonical text: one `gens` line, one `rel` line per stored relator."""
    lines = ["gens" + "".join(" " + n for n in p.alphabet.names)]
    for rel in p.relators:
        lines.append("rel " + format_word(rel))
    return "\n".join(lines)


def validate(p: Presentation) -> List[str]:
    """Diagnostics for violations of the Presentation invariants.

    Words are freely reduced by construction, so the reduction invariant
    shows up here as trivial (empty) relators; symbol scope is checked
    against the ambient alphabet.
    """
    out: List[str] = []
    for i, rel in enumerate(p.relators):
        for sym, _ in rel.letters:
            if sym not in p.alphabet:
                out.append(f"relator {i} uses undeclared generator {sym.name!r}")
        if not rel:
            out.append(f"relator {i} freely reduces to 1 (normalization)")
    return out


def _isolated_symbol(rel: Word, sym: GeneratorSymbol) -> Optional[Word]:
    """If `rel` isolates `sym` (one occurrence, exponent +-1), return the
    word u with sym = u implied by rel; otherwise None."""
    occ = [e for s, e in rel.letters if s == sym]
    if len(occ) != 1 or abs(occ[0]) != 1:
        return None
    r = rel if occ[0] == 1 else ~rel
    j = next(k for k, (s, _) in enumerate(r.letters) if s == sym)
    # r rotated at j reads sym * tail, so sym = tail^-1; the two slices are
    # reduced and can merge only at their seam.
    tail = _reduced(r.letters[j + 1 :]) * _reduced(r.letters[:j])
    return ~tail


TIETZE_BUDGET = 10_000
"""Moves one tietze_simplify call may make before it stops."""


def tietze_simplify(p: Presentation) -> Presentation:
    """Greedy deterministic Tietze simplification.

    Moves, each costing one step of TIETZE_BUDGET:
      * deletion of a relator that freely/cyclically reduces to 1,
      * elimination of a generator isolated by some relator (single
        occurrence with exponent +-1), substituting its solved value
        everywhere and dropping the defining relator.

    Relator-by-relator free and cyclic reduction is applied as free
    normalisation throughout.  Empty relators are deleted first, in
    stored order.  Otherwise generators are scanned in reverse alphabet
    order, so eliminations keep the earliest-declared generators alive;
    within one generator, relators are scanned in stored order.  Stops at
    a fixpoint or after TIETZE_BUDGET moves, whichever comes first.

    Relators keep their input positions; a deleted one becomes None.  An
    occurrence index (Havas, Kenne, Richardson and Robertson, "A Tietze
    transformation program", 1984) holds, for each symbol, two bitsets
    over those positions: the live relators that contain it, and those
    that isolate it; a third bitset holds the empty ones.  The lowest set
    bit is the first relator in stored order, so the index picks the same
    move as a rescan of every relator would.  A move rewrites and
    re-indexes only the relators that contain the eliminated symbol: the
    others are cyclically reduced already and would come out unchanged.
    """
    symbols = list(p.alphabet.symbols)
    relators: List[Optional[Word]] = [cyclically_reduce(r)[0] for r in p.relators]
    letter = identity_map(p.alphabet)
    # Keyed by name: a str hashes in C, a GeneratorSymbol through a method.
    contains: Dict[str, int] = defaultdict(int)
    isolates: Dict[str, int] = defaultdict(int)
    empty = 0

    def toggle(i: int) -> None:
        # Adds relator i's entries to the index, or removes them again.
        runs: Dict[str, int] = {}
        for s, e in relators[i].letters:
            runs[s.name] = 0 if s.name in runs else e
        bit = 1 << i
        for s, e in runs.items():
            contains[s] ^= bit
            if e == 1 or e == -1:
                isolates[s] ^= bit

    for i, rel in enumerate(relators):
        toggle(i)
        if not rel:
            empty |= 1 << i
    for _ in range(TIETZE_BUDGET):
        if empty:
            low = empty & -empty
            relators[low.bit_length() - 1] = None
            empty ^= low
            continue
        sym = next((s for s in reversed(symbols) if isolates[s.name]), None)
        if sym is None:
            break
        bits = isolates[sym.name]
        i = (bits & -bits).bit_length() - 1
        mapping = dict(letter)
        mapping[sym] = _isolated_symbol(relators[i], sym)
        toggle(i)
        relators[i] = None
        rest = contains[sym.name]
        while rest:
            low = rest & -rest
            j = low.bit_length() - 1
            toggle(j)
            relators[j] = cyclically_reduce(substitute(relators[j], mapping))[0]
            toggle(j)
            if not relators[j]:
                empty |= low
            rest ^= low
        symbols.remove(sym)
        del letter[sym]
    return Presentation(
        Alphabet(symbols), tuple(r for r in relators if r is not None), p.name
    )


@dataclass(frozen=True)
class PresentationMorphism:
    """A map of presentations given by images of the source generators.

    A morphism starts out pending; `verify` certifies it by checking that
    every source relator's image is trivial in the target, using a caller
    supplied triviality decision (free reduction, Britton rewriting, ...).
    """

    source: Presentation
    target: Presentation
    images: Dict[GeneratorSymbol, Word]
    verified: bool = field(default=False, compare=False)

    def __post_init__(self):
        for sym in self.source.alphabet:
            if sym not in self.images:
                raise ParseError(f"morphism missing image for generator {sym.name!r}")
        for img in self.images.values():
            self.target.alphabet.check_word(img)

    @property
    def pending(self) -> bool:
        return not self.verified

    def apply(self, w: Word) -> Word:
        self.source.alphabet.check_word(w)
        return substitute(w, self.images)

    def verify(self, is_trivial_in_target: Callable[[Word], bool]) -> "PresentationMorphism":
        """Return a verified copy if every relator image is certified trivial."""
        for rel in self.source.relators:
            if not is_trivial_in_target(self.apply(rel)):
                raise ParseError(
                    f"morphism does not kill relator {format_word(rel)!r}"
                )
        return PresentationMorphism(self.source, self.target, self.images, verified=True)


def is_stage_embedding(p: Presentation, q: Presentation) -> bool:
    """True when p's alphabet and relator list embed order-preservingly in q's."""

    def subsequence(small, big):
        it = iter(big)
        return all(any(x == y for y in it) for x in small)

    return subsequence(p.alphabet.symbols, q.alphabet.symbols) and subsequence(
        p.relators, q.relators
    )
