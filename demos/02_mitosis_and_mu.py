"""The standard mitosis and its finitely generated ascending-HNN hull.

Starting from any presentation, adjoining two letters s, d with the
relators d^-1 g d = g s^-1 g s and [g, s^-1 h s] produces an overgroup
containing two commuting conjugate copies of the original group.  Iterating
and twisting by the shift endomorphism gives, at every finite stage, the
truncations of a boundedly acyclic group that keeps the original group
inside and gains only three generators.

Run with: python demos/02_mitosis_and_mu.py
"""

from gpforge import (
    abelianization,
    mu_stage,
    presentation,
    serialize,
    standard_mitosis,
    tietze_simplify,
)
from gpforge.presentations import is_stage_embedding

base = presentation(["g"], name="F1")
m = standard_mitosis(base)
print("== standard mitosis of the infinite cyclic group ==")
print(serialize(m.realized))
print("abelianization:", abelianization(m.realized), " (g = 2g kills g, leaving s and d)")

quotient = m.payload["quotient_to_f2"]
print("\nkilling g and keeping s, d is a well-defined quotient map onto F2:")
for rel in m.realized.relators:
    print(f"  relator -> {quotient.apply(rel)!s:>2}")

print("\n== stage truncations of the hull ==")
stages = {k: mu_stage(base, k).realized for k in (1, 2, 3)}
for k, stage in stages.items():
    simplified = tietze_simplify(stage)
    print(
        f"stage {k}: {len(stage.alphabet)} generators,"
        f" {len(stage.relators)} relators;"
        f" Tietze leaves {len(simplified.alphabet)} generators"
        f" {simplified.alphabet.names}; abelianization {abelianization(stage)}"
    )

print("\nstages embed monotonically:",
      all(is_stage_embedding(stages[k], stages[k + 1]) for k in (1, 2)))
print("(the abelianization stabilises at Z from stage 2 on: everything but the")
print(" stable letter dies, which is the homological fingerprint of the hull)")
