"""Scaled configurations converge to a partition of the window.

A two-phase arrangement at shrinking scale epsilon is classified square
by square: full or empty 12-epsilon squares receive the unique phase of
their center, everything else is a bad square.  Bad area vanishes like
epsilon, and the labeled regions converge to the half-plane partition.
"""

from fractions import Fraction as F

from chiralattice.decomposition import (
    ScaledConfiguration,
    bad_area_bound,
    convergence_report,
    decompose,
)
from chiralattice.molecules import Window, phase_pattern, validate
from chiralattice.rectregions import rect


def seam(eps):
    side = F(4) / eps
    wlat = Window.square(side + 16)
    left = [m for m in phase_pattern(1, wlat) if all(c[0] + 1 <= 0 for c in m.cells())]
    right = [m for m in phase_pattern(2, wlat) if all(c[0] >= 1 for c in m.cells())]
    return ScaledConfiguration(eps, validate(left + right))


window = Window.square(4)
target = {1: [rect(-2, -2, 0, 2)], 2: [rect(0, -2, 2, 2)]}
approxes = [decompose(seam(F(1, d)), window) for d in (8, 16, 32)]

for approx in approxes:
    print(
        f"eps = {approx.epsilon}: boundary length C = {approx.boundary_length}, "
        f"bad squares = {approx.bad_count}, bad area = {approx.bad_area()} "
        f"<= bound {float(bad_area_bound(approx)):.1f}"
    )

print()
print("symmetric differences against the half-plane target:")
for row in convergence_report(approxes, target=target):
    print(
        f"  eps = {row['epsilon']}: phase 1: {row['symdiff_1']}, "
        f"phase 2: {row['symdiff_2']}"
    )
