"""Finite group presentations.

File grammar (UTF-8, LF on output):

    file      := line*
    line      := comment | gens | rel | blank
    comment   := '#' <any chars> EOL
    gens      := 'gens' (WS ident)* EOL        # at most one per file
    rel       := 'rel' WS word (WS '=' WS word)? EOL

WS is a run of spaces and tabs, and EOL is LF, CRLF or CR; any other
whitespace character outside a comment is a ParseError at its line.
`rel u = v` is sugar for the relator u * v^-1.  Words use the syntax from
gpforge.words.
"""

from __future__ import annotations

import re
from dataclasses import dataclass, field
from typing import Callable, Dict, List, Optional, Sequence, Tuple

from .errors import AlphabetMismatchError, ParseError, SearchBudgetError
from .words import (
    Alphabet,
    GeneratorSymbol,
    Word,
    _foreign_blank,
    _peel,
    _push_runs,
    _read_word,
    _reduced,
    format_word,
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

_EQUALS = re.compile(r"\s=\s")


def _text_lines(text: str) -> List[str]:
    """The lines of a `.grp` or `.sc` text.  Lines end in LF, CRLF or CR,
    and a blank is a space or a tab: any other whitespace character
    outside a comment is a ParseError at its line and column.

    Text without such a character (`words._foreign_blank`) is split by
    `str.splitlines`, and its tokens by `str.split()`, which then read the
    same line ends and blanks."""
    if _foreign_blank(text) is None:
        return text.splitlines()
    lines = re.split(r"\r\n|\r|\n", text)
    for lineno, line in enumerate(lines, start=1):
        found = _foreign_blank(line)
        if found and not line.lstrip(" \t").startswith("#"):
            raise ParseError(
                f"separator {found.group()!r} is not a space, a tab or a line end",
                line=lineno,
                column=found.start() + 1,
            )
    return lines


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
    pending_rels: List[Tuple[int, str, int]] = []
    for lineno, raw in enumerate(_text_lines(text), start=1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        parts = line.split(None, 1)
        keyword, rest = parts if len(parts) == 2 else (line, "")
        if keyword == "gens":
            if alphabet is not None:
                raise ParseError("more than one 'gens' line", line=lineno)
            try:
                alphabet = Alphabet(rest.split())
            except ParseError as exc:
                raise ParseError(str(exc), line=lineno) from None
        elif keyword == "rel":
            if not rest:
                raise ParseError("empty 'rel' line", line=lineno)
            pending_rels.append((lineno, rest, len(raw.rstrip()) - len(rest) + 1))
        else:
            raise ParseError(f"unknown directive {keyword!r}", line=lineno)
    if alphabet is None:
        alphabet = Alphabet(())
    relators = []
    for lineno, rel_text, col in pending_rels:
        try:
            equals = "=" in rel_text and _EQUALS.search(rel_text)
            if equals:
                left = _read_word(rel_text[: equals.start()], alphabet, lineno, col)
                right = _read_word(rel_text[equals.end() :], alphabet, lineno, col + equals.end())
                relators.append(left * ~right)
            else:
                relators.append(_read_word(rel_text, alphabet, lineno, col))
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


TIETZE_BUDGET = 10_000
"""Moves one tietze_simplify call may make before it stops."""

TIETZE_RUN_BUDGET = 4_000_000
"""Runs one tietze_simplify call may write into rewritten relators, about
five times the 847,938 that mu stage 14, the largest built-in input,
writes in 0.7 s; past it the call raises SearchBudgetError."""


def _rewrite(runs: tuple, x: int, image: tuple, inverse: tuple, budget: int) -> tuple:
    """The reduced run tuple of `runs` with each run (x, e) replaced by
    image^e, where `inverse` is image^-1; the other runs are kept.

    A one-run image t^f gives the one run t^(f * e), so a huge exponent
    is never expanded; any other image is pushed |e| times, after a check
    that those |e| * len(image) runs stay within `budget`.
    """
    out: list = []
    one_run = len(image) == 1
    for run in runs:
        s, e = run
        if s == x:
            if not one_run:
                piece = image if e > 0 else inverse
                if e == 1 or e == -1:  # the common case, without a range()
                    _push_runs(out, piece)
                elif piece:  # an empty image adds nothing, whatever e is
                    if abs(e) * len(piece) > budget - len(out):
                        raise SearchBudgetError(f"a Tietze move would write more than {TIETZE_RUN_BUDGET} runs")
                    for _ in range(abs(e)):
                        _push_runs(out, piece)
                continue
            (s, f), = image
            run = (s, f * e)
        if out and out[-1][0] == s:
            e = out[-1][1] + run[1]
            if e:
                out[-1] = (s, e)
            else:
                out.pop()
        else:
            out.append(run)
    return tuple(out)


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
    a fixpoint or after TIETZE_BUDGET moves, whichever comes first.  A
    relator that uses a generator outside p's alphabet raises
    AlphabetMismatchError; moves that would write more than
    TIETZE_RUN_BUDGET runs into rewritten relators raise
    SearchBudgetError, before an |e|-fold push that would pass it.

    The moves run on integer-coded relators.  Each relator is encoded
    once as a tuple of (alphabet position, exponent) runs, equal runs
    shared through one dict, so runs compare and hash in C rather than
    through GeneratorSymbol methods.  The word kernel's `_push_runs` and
    `_peel` reduce these tuples as they reduce a Word's runs, and
    `_rewrite` replaces the eliminated generator's runs by its image.  At
    the end each surviving relator is decoded to a Word in place, decoded
    runs shared too, so no second list of relators is built.

    Relators keep their input positions; a deleted one becomes None.  An
    occurrence index (Havas, Kenne, Richardson and Robertson, "A Tietze
    transformation program", 1984) holds, for each generator, two bitsets
    over those positions: the live relators that contain it, and those
    that isolate it; a third bitset holds the empty ones.  The lowest set
    bit is the first relator in stored order, so the index picks the same
    move as a rescan of every relator would.  A move rewrites and
    re-indexes only the relators that contain the eliminated generator:
    the others are cyclically reduced already and would come out
    unchanged.
    """
    symbols = p.alphabet.symbols
    n = len(symbols)
    position = {s.name: k for k, s in enumerate(symbols)}
    shared: Dict[Tuple[int, int], Tuple[int, int]] = {}
    relators: List[Optional[tuple]] = []
    for rel in p.relators:
        runs = []
        for s, e in rel.letters:
            k = position.get(s.name)
            if k is None:
                raise AlphabetMismatchError(f"relator uses {s.name!r}, which is not in the alphabet")
            runs.append(shared.setdefault((k, e), (k, e)))
        relators.append(_peel(tuple(runs))[0])
    contains = [0] * n
    isolates = [0] * n
    empty = 0
    # The (contained, isolated) generators of each indexed relator, so
    # that removing it from the index reads no runs.
    entries: List[Optional[Tuple[tuple, tuple]]] = [None] * len(relators)

    def toggle(i: int) -> None:
        # Adds relator i to the index, or removes it again.
        entry = entries[i]
        if entry is None:
            exps: Dict[int, int] = {}
            for s, e in relators[i]:
                exps[s] = 0 if s in exps else e
            entry = entries[i] = (tuple(exps), tuple([s for s, e in exps.items() if e == 1 or e == -1]))
        else:
            entries[i] = None
        bit = 1 << i
        for s in entry[0]:
            contains[s] ^= bit
        for s in entry[1]:
            isolates[s] ^= bit

    for i, rel in enumerate(relators):
        toggle(i)
        if not rel:
            empty |= 1 << i
    eliminated = set()
    runs_left = TIETZE_RUN_BUDGET
    for _ in range(TIETZE_BUDGET):
        if empty:
            low = empty & -empty
            relators[low.bit_length() - 1] = None
            empty ^= low
            continue
        x = next((k for k in range(n - 1, -1, -1) if isolates[k]), None)
        if x is None:
            break
        bits = isolates[x]
        i = (bits & -bits).bit_length() - 1
        rel = relators[i]
        j = next(k for k, (s, _) in enumerate(rel) if s == x)
        # rel rotated at j reads x^e * tail, so x = tail^-e; the two
        # slices are reduced and can merge only at their seam.
        tail = list(rel[j + 1 :])
        _push_runs(tail, rel[:j])
        tail = tuple(tail)
        inverse = tuple((s, -e) for s, e in reversed(tail))
        image, inverse = (tail, inverse) if rel[j][1] == -1 else (inverse, tail)
        toggle(i)
        relators[i] = None
        rest = contains[x]
        while rest:
            low = rest & -rest
            j = low.bit_length() - 1
            toggle(j)
            runs = _rewrite(relators[j], x, image, inverse, runs_left)
            runs_left -= len(runs)
            if runs_left < 0:
                raise SearchBudgetError(f"Tietze moves would write more than {TIETZE_RUN_BUDGET} runs")
            relators[j] = _peel(runs)[0]
            toggle(j)
            if not relators[j]:
                empty |= low
            rest ^= low
        eliminated.add(x)
    decoded: Dict[Tuple[int, int], Tuple[GeneratorSymbol, int]] = {}
    for i, runs in enumerate(relators):
        if runs is not None:
            relators[i] = _reduced(
                tuple([decoded.get(r) or decoded.setdefault(r, (symbols[r[0]], r[1])) for r in runs])
            )
    return Presentation(
        Alphabet(s for k, s in enumerate(symbols) if k not in eliminated),
        tuple(r for r in relators if r is not None),
        p.name,
    )


@dataclass(frozen=True)
class PresentationMorphism:
    """A map of presentations given by images of the source generators.

    `verify` checks that every source relator's image is certified
    trivial in the target by a caller supplied triviality decision (free
    reduction, Britton rewriting, ...).
    """

    source: Presentation
    target: Presentation
    images: Dict[GeneratorSymbol, Word]

    def __post_init__(self):
        for sym in self.source.alphabet:
            if sym not in self.images:
                raise ParseError(f"morphism missing image for generator {sym.name!r}")
        for img in self.images.values():
            self.target.alphabet.check_word(img)

    def apply(self, w: Word) -> Word:
        self.source.alphabet.check_word(w)
        return substitute(w, self.images)

    def verify(self, is_trivial_in_target: Callable[[Word], bool]) -> "PresentationMorphism":
        """Return the morphism if every relator image is certified trivial."""
        for rel in self.source.relators:
            if not is_trivial_in_target(self.apply(rel)):
                raise ParseError(
                    f"morphism does not kill relator {format_word(rel)!r}"
                )
        return self


def is_stage_embedding(p: Presentation, q: Presentation) -> bool:
    """True when p's alphabet and relator list embed order-preservingly in q's."""

    def subsequence(small, big):
        it = iter(big)
        return all(any(x == y for y in it) for x in small)

    return subsequence(p.alphabet.symbols, q.alphabet.symbols) and subsequence(
        p.relators, q.relators
    )
