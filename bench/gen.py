"""Seeded inputs for the benchmark workloads.

Everything here is plain data (word and presentation texts, flags) built
from `random.Random` seeded with a string, so one seed gives the same
inputs on every machine and Python hash seed.  The module imports nothing
from `gpforge` or `tests`: the program only ever sees the texts and argv
made here.

Sizes are fixed per job slot (generator count, relator lengths, degree)
and the seed only picks letters and permutations.  That keeps the work of
one pass nearly the same across seeds, so a run-to-run difference reads
as a change of the program rather than of the draw.
"""

from __future__ import annotations

import itertools
import random
from typing import List, Sequence, Tuple

from algebra import Letter, bs_nontrivial_evidence, inverse, perm_eval, perm_order

DEFAULT_SEED = 1
WORKLOADS = ("wordproblem", "homology", "constructions")

# (m, n) pairs for the normalize jobs; a negative n covers BS(1,-1).
BS_PARAMS = ((1, 2), (2, 3), (3, 2), (2, 4), (3, 5), (1, -1))
CONSTRUCTIONS = ("lambda", "gamma", "witness-w", "pi", "delta")
BS23_RELATOR: Tuple[Letter, ...] = (("t", -1), ("a", 2), ("t", 1), ("a", -3))


def rng_for(workload: str, seed: int) -> random.Random:
    return random.Random(f"gpforge-bench:{workload}:{seed}")


def fmt(letters: Sequence[Letter]) -> str:
    """Word text syntax; letters are written as given, unreduced."""
    if not letters:
        return "1"
    return " ".join(g if e == 1 else f"{g}^{e}" for g, e in letters)


def pres_text(gens: Sequence[str], relators: Sequence[Sequence[Letter]]) -> str:
    lines = ["gens " + " ".join(gens)]
    lines.extend("rel " + fmt(r) for r in relators)
    return "\n".join(lines) + "\n"


def free_word(rng: random.Random, gens: Sequence[str], length: int, cyclic: bool = False) -> List[Letter]:
    """A freely reduced word of exactly `length` letters +-1; with
    `cyclic`, also cyclically reduced."""
    out: List[Letter] = []
    for i in range(length):
        options = [
            (g, e)
            for g in gens
            for e in (1, -1)
            if not (out and out[-1] == (g, -e))
            and not (cyclic and 0 < i == length - 1 and out[0] == (g, -e))
        ]
        out.append(rng.choice(options))
    return out


# ---------------------------------------------------------------------------
# Workload inputs.
# ---------------------------------------------------------------------------


def _planted_certify(rng: random.Random, slot: int) -> dict:
    """A presentation with a quotient onto a subgroup of S_degree planted
    by construction, and a target word that quotient does not kill."""
    gens = ("a", "b")[: 1 + slot % 2]
    degree = 3 + (slot // 2) % 3
    perms = list(itertools.permutations(range(degree)))
    ident = tuple(range(degree))
    images = {g: ident for g in gens}
    while all(p == ident for p in images.values()):
        images = {g: rng.choice(perms) for g in gens}
    relators: List[List[Letter]] = []
    for g in gens:
        order = perm_order(images[g])
        if order > 1:
            relators.append([(g, order)])
    if len(gens) == 2:
        u = free_word(rng, gens, 2 + slot % 2)
        relators.append(u * perm_order(perm_eval(u, images, degree)))
    # A commutator target: abelian quotients (degree 2 and cyclic images)
    # never separate it, so the search has to reach a non-abelian one.
    target: List[Letter] = []
    for _ in range(50):
        u = free_word(rng, gens, 1 + slot % 2)
        v = free_word(rng, gens, 1 + slot % 3)
        target = inverse(u) + inverse(v) + u + v
        if perm_eval(target, images, degree) != ident:
            break
    else:
        moved = next(g for g in gens if images[g] != ident)
        target = [(moved, 1)]
    return {
        "gens": list(gens),
        "relators": relators,
        "target": target,
        "degree": degree,
        "text": pres_text(gens, relators),
    }


def wordproblem_inputs(seed: int) -> dict:
    """100 certify-nontrivial inputs and 100 normalize inputs: words of
    40-400 letters, 30 of them 400 letters long, with `a`-exponents
    cycling through 1..4.  The 400-letter words are the slowest normalize
    jobs; as a block of 30 they hold `job_p90` on every seed, where a
    uniform spread of lengths would let it move with the number of slow
    certify jobs the seed happens to draw."""
    rng = rng_for("wordproblem", seed)
    cert = [_planted_certify(rng, j) for j in range(100)]
    norm = []
    for j in range(100):
        m, n = BS_PARAMS[j % len(BS_PARAMS)]
        length = 400 if j % 10 < 3 else 40 + (37 * j) % 361
        letters = []
        for i, (g, e) in enumerate(free_word(rng, ("a", "t"), length)):
            letters.append((g, e * (1 + i % 4)) if g == "a" else (g, e))
        norm.append({"m": m, "n": n, "word": letters})
    return {"certify": cert, "normalize": norm}


def homology_inputs(seed: int) -> List[dict]:
    """100 presentations with 1-4 generators and 1-3 cyclically reduced
    relators of length 2-5; the sizes cycle through a fixed schedule."""
    rng = rng_for("homology", seed)
    out = []
    for j in range(100):
        gens = [f"g{i}" for i in range(1, 2 + j % 4)]
        lengths = [2 + (j + 3 * i) % 4 for i in range(1 + (j // 4) % 3)]
        relators = [free_word(rng, gens, n, cyclic=True) for n in lengths]
        out.append({"gens": gens, "relators": relators, "text": pres_text(gens, relators)})
    return out


def _trivial_bs_word(rng: random.Random, slot: int) -> List[Letter]:
    """A product of conjugates of the BS(2,3) relator: trivial there by
    construction."""
    out: List[Letter] = []
    for _ in range(1 + slot % 2):
        u = free_word(rng, ("a", "t"), 1 + slot % 3)
        r = list(BS23_RELATOR) if rng.randrange(2) else inverse(BS23_RELATOR)
        out.extend(u + r + inverse(u))
    return out


def _trivial_free_word(rng: random.Random, slot: int) -> List[Letter]:
    """u v v^-1 u^-1 written out: freely trivial by construction."""
    u = free_word(rng, ("a", "b"), 1 + slot % 4)
    v = free_word(rng, ("a", "b"), 1 + slot % 3)
    return u + v + inverse(v) + inverse(u)


def constructions_inputs(seed: int) -> dict:
    """Ten witness-pipeline words per oracle, 3 in 10 trivial by
    construction and the rest nontrivial with evidence (freely reduced
    and nonempty; for BS(2,3) a nonzero t-exponent sum or a non-identity
    affine image), plus the parameters of the build and corpus jobs.
    Word lengths and the mu depths of the build jobs are fixed per slot,
    as everywhere in this module."""
    rng = rng_for("constructions", seed)
    witness = []
    for oracle, gens in (("free", ("a", "b")), ("bs:2,3", ("a", "t"))):
        for j in range(10):
            trivial = j % 10 < 3
            if trivial:
                letters = _trivial_free_word(rng, j) if oracle == "free" else _trivial_bs_word(rng, j)
            else:
                letters = free_word(rng, gens, 3 + j % 6)
                while oracle != "free" and not bs_nontrivial_evidence(letters, 2, 3):
                    letters = free_word(rng, gens, 3 + j % 6)
            witness.append({"oracle": oracle, "word": letters, "trivial": trivial})
    return {
        "witness": witness,
        "corpus_seed": rng.randrange(1 << 30),
        "build_k": [2, 3],
        "hnn_exps": [(1, 2), (2, 3)],
    }
