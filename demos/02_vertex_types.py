"""Enumerating the vertex types a spherical tiling can contain.

Each interior angle of a regular m-gon exceeds the planar value
(1 - 2/m)*pi, so the multiset of face sizes at a vertex must satisfy
sum (1 - 2/m) < 2.  That single exact inequality caps vertex degrees at 5
and leaves a finite candidate list.
"""

from collections import Counter

from sphtile import vertexcomb as vc

types = vc.enumerate_candidate_types(19)
by_degree = Counter(len(t) for t in types)
print(f"candidate vertex types up to face size 19: {len(types)}")
print(f"by degree: {dict(sorted(by_degree.items()))}")

print()
print("degree-5 types containing a triangle:")
for t in types:
    if len(t) == 5 and 3 in t:
        print("  ", t)

print()
print("types with no face smaller than a pentagon:")
for t in types:
    if min(t) >= 5:
        print("  ", t)

print()
print("every candidate contains a triangle, square or pentagon:",
      all(any(m in (3, 4, 5) for m in t) for t in types))

print()
print("== arrangements: cyclic orders up to rotation/reflection ==")
for t in [(3, 4, 4, 5), (3, 3, 4, 4), (3, 3, 3, 3, 5)]:
    print(f"  {t}: {vc.arrangements(t)}")
