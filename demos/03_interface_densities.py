"""Finite interface problems and the homogenized surface densities.

The minimal boundary length between two prescribed half-plane phases,
normalized per unit of interface, converges to the crystalline density.
The frame of width 4 is pinned to the striped boundary families; the
interior is minimized exactly by branch and bound.
"""

from chiralattice.interfaces import (
    InterfaceProblem,
    direction,
    normalized_density,
    pattern_upper_bound,
    solve_interface,
)

print("phase 1 against empty, four directions, growing window:")
for pq, limit in (((1, 1), "2"), ((0, 1), "2"), ((1, 0), "3/2"), ((3, -1), "4")):
    nu = direction(*pq)
    row = []
    for T in (8, 12, 16):
        prob = InterfaceProblem(1, 0, nu, T)
        res = solve_interface(prob)
        row.append(f"T={T}: {normalized_density(prob, res)} ({res.certificate})")
    print(f"  nu={pq} (l1 bound {nu.norm_l1}, limit {limit}):  " + "; ".join(row))

print()
print("mixed phases: R phase 1 against S phase 7 along the anti-diagonal")
for T in (8, 12, 16):
    prob = InterfaceProblem(1, 7, direction(1, -1), T)
    res = solve_interface(prob)
    print(f"  T={T}: phi_hat = {normalized_density(prob, res)}  (subadditive bound 4, meshing limit 2)")

print()
print("library constructions bound the solver from above:")
for i, j, pq in ((1, 0, (1, 1)), (1, 7, (1, -1)), (1, 2, (1, 1))):
    nu = direction(*pq)
    value, config = pattern_upper_bound(i, j, nu, T=16)
    res = solve_interface(InterfaceProblem(i, j, nu, 16))
    print(f"  ({i},{j},{pq}): pattern {value} >= optimal {res.value}")

print()
print("weighted energies produce wetting: a thin layer of the cheap")
print("species coats the interface once 3 c_S < c_R")
for weights in ((1, 1), (4, 1)):
    prob = InterfaceProblem(1, 0, direction(-1, 1), 16, weights)
    res = solve_interface(prob)
    kinds = sorted({m.shape.name for m in res.config.molecules})
    print(f"  weights {weights}: optimal value {res.value}, species used: {kinds}")
