"""A tour of the complete catalog with validation.

Every edge-to-edge spherical tiling by regular polygons is one of: the
five Platonic tilings, the thirteen Archimedean tilings, twenty-five
Johnson tilings, or a prism / antiprism / hosohedron / dihedron.  This
script builds each one, runs the full validation battery and prints the
census.
"""

from sphtile import catalog, tilemap

header = f"{'name':14s} {'family':12s} {'v':>4s} {'e':>4s} {'f':>4s}  faces"
print(header)
print("-" * len(header))
for name in catalog.all_entries():
    t = catalog.make(name)
    rep = tilemap.validate(
        t.map, t.angles, expected=catalog.expected_census(name), name=name
    )
    c = tilemap.census(t.map)
    faces = " ".join(f"{m}^{k}" for m, k in sorted(c.face_counts.items()))
    status = "ok" if rep.overall_pass else "FAIL " + str(rep.failures())
    print(f"{name:14s} {catalog.family_of(name):12s} {c.v:4d} {c.e:4d} {c.f:4d}  {faces:22s} [{status}]")

print()
print("== vertex censuses distinguish most, but not all, entries ==")
for name in ("J73", "J74"):
    c = tilemap.census(catalog.make(name).map)
    print(f"  {name}: {c.vertex_types}")
print("  J73 and J74 share a census; the map isomorphism test separates them:")
print("  isomorphic(J73, J74) =", tilemap.isomorphic(
    catalog.make("J73").map, catalog.make("J74").map))

print()
print("== homogeneity ==")
for name in ("eD", "J37", "J27", "J34", "J72", "J5"):
    print(f"  {name}: {tilemap.homogeneity(catalog.make(name).map)}")
