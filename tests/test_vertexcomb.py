import itertools
import math
import random
from fractions import Fraction

import pytest

from sphtile import vertexcomb as vc
from sphtile.algsolve import AngleAssignment

PI = math.pi
SQ5 = math.sqrt(5.0)


def brute_force_types(max_size):
    # independent re-derivation of the admissibility bound over exact
    # rationals: sum of (1 - 2/m) over the multiset must be < 2, degree 3-5
    found = []
    for degree in (3, 4, 5):
        for combo in itertools.combinations_with_replacement(range(3, max_size + 1), degree):
            if sum(Fraction(1) - Fraction(2, m) for m in combo) < 2:
                found.append(combo)
    return sorted(found)


def test_enumeration_matches_brute_force_oracle():
    assert vc.enumerate_candidate_types(19) == brute_force_types(19)
    assert vc.enumerate_candidate_types(8) == brute_force_types(8)


def test_enumeration_large_max_size():
    # the pruned walk visits only the output, so a large bound returns
    # at once; the smaller bound's types are exactly its restriction
    types = vc.enumerate_candidate_types(200)
    assert types == sorted(types)
    assert all(vc.admissible(t) for t in types)
    assert [t for t in types if max(t) <= 19] == vc.enumerate_candidate_types(19)


def test_enumeration_bound_is_inclusive():
    # past the small sizes each size m adds six types, (3, 3, m), (3, 4, m),
    # (3, 5, m), (3, 6, m), (4, 4, m) and (3, 3, 3, m), so the output at the
    # bound holds 6 * bound + 96 types; one size more is refused
    bound = vc.MAX_ENUMERATE_SIZE
    assert len(vc.enumerate_candidate_types(bound)) == 6 * bound + 96
    with pytest.raises(ValueError, match="between 3 and"):
        vc.enumerate_candidate_types(bound + 1)


def test_degree_five_types_with_triangle():
    got = [t for t in vc.enumerate_candidate_types(19) if len(t) == 5 and 3 in t]
    assert got == [(3, 3, 3, 3, 3), (3, 3, 3, 3, 4), (3, 3, 3, 3, 5)]


def test_types_with_min_entry_five():
    got = [t for t in vc.enumerate_candidate_types(19) if min(t) >= 5]
    assert got == [
        (5, 5, 5), (5, 5, 6), (5, 5, 7), (5, 5, 8), (5, 5, 9),
        (5, 6, 6), (5, 6, 7),
    ]


def test_triangle_free_degree3_with_square_pattern():
    # pattern (4, m, n), m < n: the bound caps m at 7 and n at 19
    types = vc.enumerate_candidate_types(19)
    pats = [t for t in types if len(t) == 3 and t[0] == 4 and 4 < t[1] < t[2]]
    assert max(t[1] for t in pats) == 7
    assert max(t[2] for t in pats) == 19
    assert (4, 7, 10) not in types  # 1/7 + 1/10 < 1/4 fails the bound
    assert (4, 7, 9) in types


def test_every_type_contains_small_face():
    for t in vc.enumerate_candidate_types(19):
        assert any(m in (3, 4, 5) for m in t)


def test_boundary_cases_are_exact():
    # planar squares and hexagon-triple sums hit the bound exactly
    assert (4, 4, 4, 4) not in vc.enumerate_candidate_types(19)
    assert (6, 6, 6) not in vc.enumerate_candidate_types(19)
    assert (3, 12, 12) not in vc.enumerate_candidate_types(19)
    assert (3, 11, 11) in vc.enumerate_candidate_types(19)


def _rational_bound(entries):
    # the former exact test: the Fraction sum of (1 - 2/m) below 2
    return sum(Fraction(m - 2, m) for m in entries) < 2


def test_integer_bound_equals_the_rational_bound():
    sizes = [m for m in range(-4, 31) if m != 0]
    cases = [c for d in range(1, 5) for c in itertools.combinations_with_replacement(sizes, d)]
    cases += [c for d in (5, 6) for c in itertools.combinations_with_replacement(range(3, 13), d)]
    cases += list(itertools.combinations_with_replacement(range(3, 61), 3))
    for combo in cases:
        assert vc.angle_deficit_ok(combo) == _rational_bound(combo), combo
    # the lcm's sign: (3, -6) passes, while a negative scale would fail it
    assert vc.angle_deficit_ok((3, -6)) and _rational_bound((3, -6))


EQUALITY_TYPES = [
    (4, 4, 4, 4), (6, 6, 6), (3, 3, 3, 3, 3, 3), (3, 6, 3, 6), (3, 12, 12), (4, 6, 12),
    (4, 8, 8), (3, 7, 42), (3, 8, 24), (3, 9, 18), (3, 10, 15), (4, 5, 20), (5, 5, 10),
    (3, 3, 4, 12), (3, 4, 4, 6), (3, 3, 6, 6), (3, 3, 3, 3, 6), (3, 3, 3, 4, 4),
]


@pytest.mark.parametrize("t", EQUALITY_TYPES, ids=lambda t: ".".join(map(str, t)))
def test_equality_cases_are_rejected(t):
    # the sum (1 - 2/m) is exactly 2: the plane's vertex types, not the sphere's
    assert sum(Fraction(m - 2, m) for m in t) == 2
    assert not vc.angle_deficit_ok(t)
    assert not vc.admissible(tuple(sorted(t)))


@pytest.mark.parametrize(
    "entries, error",
    [((3, 0, 4), ZeroDivisionError), ((0,), ZeroDivisionError), ((3, 4.0, 5), TypeError)],
)
def test_angle_deficit_ok_error_types(entries, error):
    with pytest.raises(error):
        vc.angle_deficit_ok(entries)
    with pytest.raises(error):
        _rational_bound(entries)


def test_admissible_matches_candidate_set_membership():
    # equivalence oracle: validation used to test membership in this set
    cands = set(vc.enumerate_candidate_types(19))
    for degree in range(1, 7):
        for combo in itertools.combinations_with_replacement(range(3, 20), degree):
            assert vc.admissible(combo) == (combo in cands), combo
    assert not vc.admissible((2, 3, 3))
    assert not vc.admissible((2, 2, 2, 2))


def test_arrangements():
    assert vc.arrangements((3, 4, 4, 5)) == [(3, 4, 4, 5), (3, 4, 5, 4)]
    assert vc.arrangements((3, 3, 4, 4)) == [(3, 3, 4, 4), (3, 4, 3, 4)]
    assert vc.arrangements((3, 3, 3)) == [(3, 3, 3)]
    assert vc.arrangements((3, 3, 3, 3, 5)) == [(3, 3, 3, 3, 5)]
    # degree 3 and near-constant multisets have a single arrangement
    for t in [(3, 5, 7), (4, 4, 4, 4), (3, 4, 4, 4)]:
        assert len(vc.arrangements(t)) == 1


def test_canonical_arrangement_idempotent_and_symmetric():
    rng = random.Random(3)
    for _ in range(200):
        cyc = tuple(rng.randint(3, 9) for _ in range(rng.randint(3, 5)))
        can = vc.canonical_arrangement(cyc)
        assert vc.canonical_arrangement(can) == can
        i = rng.randrange(len(cyc))
        assert vc.canonical_arrangement(cyc[i:] + cyc[:i]) == can
        assert vc.canonical_arrangement(cyc[::-1]) == can


def test_canonical_arrangement_matches_brute_force_oracle():
    def oracle(cyc):
        return min(c[i:] + c[:i] for c in (cyc, cyc[::-1]) for i in range(len(cyc)))

    rng = random.Random(5)
    cases = [(4,) * n for n in (1, 2, 3, 7, 40)] + [(2,) * 1600, (3, 3, 3, 5)]
    for _ in range(300):
        n = rng.randint(1, 12)
        cases.append(tuple(rng.randint(3, 5) for _ in range(n)))
        cases.append((rng.randint(2, 9),) * n)
    for cyc in cases:
        assert vc.canonical_arrangement(cyc) == oracle(cyc), cyc
    assert vc.canonical_arrangement(()) == ()


def test_remainder():
    assert vc.remainder((), {}) == pytest.approx(2 * PI)
    # triangular-prism relation: two squares leave exactly the triangle angle
    a3 = 4 * math.atan(1 / math.sqrt(7))
    assign = {3: a3, 4: PI - a3 / 2}
    assert vc.remainder((4, 4), assign) == pytest.approx(a3, abs=1e-12)
    # square-cupola relation: three squares leave the triangle angle
    a4 = 2 * math.atan(math.sqrt(7 - 4 * math.sqrt(2)))
    assign = {3: 2 * PI - 3 * a4, 4: a4}
    assert vc.remainder((4, 4, 4), assign) == pytest.approx(assign[3], abs=1e-12)
    with pytest.raises(vc.MissingAngle):
        vc.remainder((3, 7), assign)


def _ed_angles():
    a3 = math.acos((5 + 2 * SQ5) / 20)
    a4 = math.acos((2 * SQ5 - 5) / 10)
    a5 = math.acos((5 - 9 * SQ5) / 40)
    return a3, a4, a5


def test_feasible_types_decagon_families():
    a3, a4, a5 = _ed_angles()
    # the convex decagon of the diminished family and the concave decagon
    # of the cupola are reflex complements; together they realize the
    # full set of possible decagon vertex types
    convex = AngleAssignment.from_angles({3: a3, 4: a4, 5: a5, 10: a3 + a4})
    concave = AngleAssignment.from_angles({3: a3, 4: a4, 5: a5, 10: 2 * PI - a3 - a4})
    union = set(vc.feasible_types(convex)) | set(vc.feasible_types(concave))
    assert union == {(3, 4, 4, 5), (3, 4, 10), (4, 5, 10)}
    assert vc.feasible_types(convex) == [(3, 4, 4, 5), (4, 5, 10)]
    assert vc.feasible_types(concave) == [(3, 4, 4, 5), (3, 4, 10)]


def test_feasible_types_simple_cases():
    assert vc.feasible_types({3: 2 * PI / 3}) == [(3, 3, 3)]
    got = vc.feasible_types({3: 2 * PI / 5, 5: 4 * PI / 5})
    for expected in [(3, 3, 3, 3, 3), (3, 3, 3, 5), (3, 5, 5)]:
        assert expected in got
