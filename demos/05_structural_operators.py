"""The structural operators relating catalog members to each other.

Pyramid, cupola and prism subdivisions refine a face into regular pieces;
shrinking collapses a face to a vertex (truncation undoes it); cupola caps
can be rotated by one boundary step or removed wholesale.  Chains of these
operations generate the Johnson tilings from a handful of seeds.
"""

from sphtile import catalog as cat
from sphtile import tilemap as tm


def iso_name(t):
    for name in cat.all_entries():
        if tm.isomorphic(t, cat.make(name).map):
            return name
    return "(not in catalog)"


print("== subdivisions ==")
j19 = cat.make("J19")
octagon = cat.faces_of_size(j19.map, 8)[0]
for phase in (0, 1):
    r = cat.cupola_subdivide(j19, octagon, phase=phase)
    print(f"  cupola cap on J19's octagon (phase {phase}) -> {iso_name(r.map)}")

j4 = cat.make("J4")
r = cat.prism_subdivide(j4, cat.faces_of_size(j4.map, 8)[0])
print(f"  prism band in J4's octagon -> {iso_name(r.map)}")

j11 = cat.make("J11")
r = cat.pyramid_subdivide(j11, cat.faces_of_size(j11.map, 5)[0])
print(f"  pyramid cone on J11's pentagon -> {iso_name(r.map)}")

print()
print("== shrinking and truncation ==")
tt = cat.make("tT")
print(f"  shrink every triangle of tT -> {iso_name(cat.shrink_all(tt.map, 3))}")
print(f"  truncate every vertex of C -> {iso_name(cat.truncate_all(cat.make('C').map))}")

print()
print("== hemisphere rotations ==")
ac = cat.make("aC")
cycle = cat.equatorial_cycles(ac)[0]
print(f"  aC cut along a {len(cycle)}-cycle, one side rotated -> "
      f"{iso_name(cat.rotate_hemisphere(ac, cycle).map)}")
ad = cat.make("aD")
cycle = cat.equatorial_cycles(ad)[0]
print(f"  aD rotated the same way -> {iso_name(cat.rotate_hemisphere(ad, cycle).map)}")
print(f"  aD with one hemisphere sealed off -> {iso_name(cat.cut_hemisphere(ad, cycle).map)}")

print()
print("== the twelve cupola recipes on eD ==")
for name, recipe in cat._ED_RECIPES.items():
    t = cat.derive_from_ed(
        dim=recipe.get("dim", 0), rot=recipe.get("rot", 0),
        dim_rel=recipe.get("dim_rel"), rot_rel=recipe.get("rot_rel"),
    )
    spec = ", ".join(f"{k}={v}" for k, v in recipe.items())
    print(f"  {spec:28s} -> {iso_name(t.map)} (expected {name})")
