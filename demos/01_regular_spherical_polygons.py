"""Regular spherical polygons: angles, edges and the companion relation.

A regular m-gon on the unit sphere is pinned down by its face size m plus
any one of interior angle, edge length or circumradius.  This script walks
through the conversions and the relation tying together polygons that
share an edge length.
"""

import math

from sphtile import sphkernel as sk

PI = math.pi

print("== angle <-> edge conversions ==")
# A spherical triangle with the tetrahedron's edge has angle 2*pi/3:
x = math.acos(-1.0 / 3.0)
print(f"triangle with edge {x:.6f}: angle = {sk.angle_from_edge(3, x) / PI:.6f} pi")
# Going the other way recovers the edge:
print(f"round trip edge: {sk.edge_from_angle(3, 2 * PI / 3):.15f} vs {x:.15f}")

# As the edge shrinks, the angle approaches the planar value (1 - 2/m)pi:
for x in (1.0, 0.1, 0.01):
    a = sk.angle_from_edge(6, x)
    print(f"hexagon edge {x:5.2f}: angle/pi = {a / PI:.9f}  (planar limit {2 / 3:.9f})")

print()
print("== the hemisphere boundary ==")
# angle pi, circumradius pi/2 and edge 2*pi/m are all the same polygon:
edge, radius = sk.edge_from_angle(4, PI), sk.circumradius(4, PI)
print(f"square with angle pi: edge = {edge / PI:.6f} pi, radius = {radius / PI:.6f} pi")

print()
print("== companion polygons (same edge length) ==")
# Given the triangle angle of the cuboctahedron family, which squares fit?
a3 = math.acos(1.0 / 3.0)
for alpha4 in sk.solve_companion_angle(3, a3, 4):
    r = sk.companion_residual(3, a3, 4, alpha4)
    print(f"square companion angle {alpha4 / PI:.6f} pi (residual {r:.2e})")

# With a right-angled triangle, only the hemisphere square coexists, and
# nothing larger does:
print("right triangle + square:", [f"{a/PI:.4f} pi" for a in sk.solve_companion_angle(3, PI / 2, 4)])
print("right triangle + pentagon:", sk.solve_companion_angle(3, PI / 2, 5))

print()
print("== solving for the companion's face size ==")
# The square-cupola family: three squares at a vertex leave an angle that
# only an octagon can carry.
a4 = 2.0 * math.atan(math.sqrt(7.0 - 4.0 * math.sqrt(2.0)))
n = sk.solve_companion_size(4, a4, 2 * PI - 2 * a4)
print(f"size forced by the leftover angle: n = {n:.9f}")
