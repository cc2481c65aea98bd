"""The intermittent map: a sharp threshold between Gaussian and stable limits.

For the map with neutral fixed point at 0 (parameter gamma) and observable
x**-a, the statistic sqrt(n) * W1(F_n, F) stabilizes when a < 1/2 - gamma and
blows up past that line.  The checker decides by exponent comparison; the
probe watches medians grow (or not) across octaves of n.
"""
from w1clt import (
    AlphaPolynomial,
    IntermittentMap,
    ParetoTail,
    check_alpha_condition,
    check_intermittent_threshold,
    divergence_probe,
    generate,
)

GAMMA = 0.25

print("== threshold checker, gamma = 0.25 (boundary at a = 0.25) ==")
for a in (0.1, 0.2, 0.25, 0.3, 0.4):
    rep = check_intermittent_threshold(GAMMA, a)
    print(f"  a = {a:<5}: {rep.verdict:<13} (margin {rep.partial_sum:+.3f})")

print("\n== the same verdicts from the alpha-mixing series ==")
for a in (0.1, 0.2, 0.4):
    marginal = ParetoTail(1.0, (1.0 - GAMMA) / a)  # induced tail exponent (1-gamma)/a
    rep = check_alpha_condition(AlphaPolynomial(1.0, GAMMA), marginal)
    print(f"  a = {a:<5}: {rep.verdict}")

print("\n== a taste of the orbit ==")
path = generate(IntermittentMap(GAMMA, 0.4, burn_in=1000), 8, seed=3)
print("  observable values:", [round(float(v), 3) for v in path.values])

print("\n== median growth probe (reduced scale; the acceptance suite runs 2000"
      " replicates at n up to 2^16) ==")
for a, side in [(0.1, "convergent"), (0.4, "divergent")]:
    rep = divergence_probe(GAMMA, a, [1024, 4096, 16384], replications=200,
                           seed=9, burn_in=5000)
    meds = {n: round(v, 3) for n, v in rep.medians.items()}
    print(f"  a = {a} ({side:>10}): medians {meds} -> {rep.verdict}")
