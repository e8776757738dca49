"""Solving the trigonometric systems behind the hardest vertex types.

Every face at a vertex shares one edge length, so a vertex type is one
equation in that edge: the angle sum 2*pi.  The solver brackets and
bisects it on each convex/reflex branch and finds every root; the embedded
exact data for the {3,4,4,5} system, a polynomial system in the cosines
and sines of the angles, provides an independent cross-check.
"""

import math

from sphtile import algsolve as alg
from sphtile import sphkernel as sk

PI = math.pi

print("== the {3,4,4,5} system ==")
sols = alg.solve_vertex_system((3, 4, 4, 5))
for s in sols:
    for m, a in sorted(s.angles.items()):
        print(f"  alpha_{m} = {a / PI:.9f} pi")
    print(f"  edge = {s.edge:.9f}  size-ordered: {s.monotone_convex()}")

print()
print("== cross-check against the exact eliminated system ==")
rep = alg.verify_groebner_candidates()
print(f"  univariate roots in (0,1): {[round(r, 9) for r in rep.y4_roots]}")
for i, c in enumerate(rep.candidates):
    mark = "  <- survives both filters" if i in rep.surviving else ""
    print(f"  candidate {i + 1}: cos = ({c.x3:+.6f}, {c.x4:+.6f}, {c.x5:+.6f})"
          f" ordered={c.ordered_ok} sum={c.sum_ok}{mark}")

print()
print("== deriving companion sizes from the solved angles ==")
s = sols[0]
a3, a4, a5 = s.angles[3], s.angles[4], s.angles[5]
for label, partner_size, partner, target in [
    ("size for angle a4+a5 next to a triangle", 3, a3, a4 + a5),
    ("size for angle a3+a4 next to a square", 4, a4, a3 + a4),
    ("size for angle a4+a5-a3", 3, a3, a4 + a5 - a3),
    ("size for angle 2*a4", 3, a3, 2 * a4),
]:
    n = sk.solve_companion_size(partner_size, partner, target)
    print(f"  {label}: n = {n:.9f}")

print()
print("== snub systems: four triangles and one larger face ==")
for m in (4, 5):
    s = alg.solve_snub(m)
    print(f"  m={m}: alpha_3 = {s.angles[3] / PI:.12f} pi, edge = {s.edge:.12f}")
xi = alg.snub_dodecahedron_cos()
print(f"  sextic root: cos(alpha_3) = {xi:.15f}")

print()
print("== a system with solutions but no tiling ==")
# {3,3,5,7} solves cleanly, yet the derivation pipeline then forces a
# non-integral face size, so no tiling carries this vertex.
s = alg.solve_vertex_system((3, 3, 5, 7))[0]
a3 = s.angles[3]
a4 = sk.solve_companion_angle(3, a3, 4)[0]
an = 2 * PI - 2 * a3 - a4
print(f"  alpha_3 = {a3 / PI:.9f} pi -> alpha_4 = {a4 / PI:.9f} pi")
print(f"  forced next size: {sk.solve_companion_size(3, a3, an):.9f} (not an integer)")
