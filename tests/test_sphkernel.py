import math
import random

import numpy as np
import pytest

from sphtile import sphkernel as sk

PI = math.pi
TWO_PI = 2 * math.pi
SQ5 = math.sqrt(5.0)


def test_angle_from_edge_reference_values():
    # unit-edge tetrahedron and the hemisphere square
    assert sk.angle_from_edge(3, math.acos(-1.0 / 3.0)) == pytest.approx(2 * PI / 3, abs=1e-12)
    assert sk.angle_from_edge(4, PI / 2) == pytest.approx(PI, abs=1e-12)


def test_angle_from_edge_planar_limit():
    for m in range(3, 10):
        planar = (1 - 2 / m) * PI
        small = sk.angle_from_edge(m, 1e-4)
        smaller = sk.angle_from_edge(m, 1e-5)
        assert abs(small - planar) < 1e-6
        # quadratic approach: shrinking x tenfold shrinks the gap ~100x
        assert abs(smaller - planar) < 0.02 * abs(small - planar)


@pytest.mark.parametrize("t", [(4, 4, 50), (4, 4, 400), (3, 3, 3, 50), (3, 3, 3, 400)])
def test_angle_from_edge_against_mpmath_at_family_edges(t):
    # oracle: the first identity in 50 digits; the vertex's shared edge is
    # bisected in it and rounded to a float, and each angle at that float
    # edge is taken from it again
    mp = pytest.importorskip("mpmath")
    with mp.workdps(50):

        def angle(m, x):
            cx = mp.cos(x)
            return mp.acos(2 * (cx - mp.cos(2 * mp.pi / m)) / (1 + cx) - 1)

        # the angle sum falls short of 2*pi at x = 0 and exceeds it at 2*pi/max(t)
        lo, hi = mp.mpf(0), 2 * mp.pi / max(t)
        for _ in range(200):
            mid = (lo + hi) / 2
            if sum(angle(m, mid) for m in t) < 2 * mp.pi:
                lo = mid
            else:
                hi = mid
        x = float(lo)
        for m in set(t):
            assert abs(sk.angle_from_edge(m, x) - angle(m, mp.mpf(x))) < 1e-14, m


def test_edge_from_angle_reference_values():
    assert sk.edge_from_angle(3, 2 * PI / 3) == pytest.approx(math.acos(-1.0 / 3.0), abs=1e-12)
    assert sk.edge_from_angle(5, 4 * PI / 5) == pytest.approx(math.acos(1.0 / SQ5), abs=1e-12)
    assert sk.edge_from_angle(4, PI) == pytest.approx(PI / 2, abs=1e-12)


def test_round_trip_across_admissible_range():
    for m in range(3, 13):
        top = TWO_PI / m
        for i in range(1, 40):
            x = top * i / 40.0
            if x <= 1e-3:
                continue
            back = sk.edge_from_angle(m, sk.angle_from_edge(m, x))
            assert back == pytest.approx(x, abs=1e-12)


def test_circumradius_reference_values():
    assert sk.circumradius(4, PI) == pytest.approx(PI / 2, abs=1e-12)
    # concave polygons contain a hemisphere
    assert sk.circumradius(5, 6 * PI / 5) > PI / 2


def test_circumradius_against_coordinate_oracle():
    # independent oracle: regular tetrahedron with vertices at the
    # alternating cube corners; centre-to-vertex angle of one face
    verts = np.array([[1, 1, 1], [1, -1, -1], [-1, 1, -1], [-1, -1, 1]]) / math.sqrt(3)
    face = verts[1:]
    centre = face.sum(axis=0)
    centre = centre / np.linalg.norm(centre)
    oracle = math.acos(float(np.dot(face[0], centre)))
    assert oracle == pytest.approx(math.acos(1.0 / 3.0), abs=1e-12)
    assert sk.circumradius(3, 2 * PI / 3) == pytest.approx(oracle, abs=1e-12)


def test_polygon_area():
    assert sk.polygon_area(2, 1.23) == pytest.approx(2 * 1.23)
    assert sk.polygon_area(3, 2 * PI / 3) == pytest.approx(PI, abs=1e-12)
    assert sk.polygon_area(4, PI) == pytest.approx(2 * PI, abs=1e-12)


def test_companion_residual_zero_cases():
    a3 = math.acos(1.0 / 3.0)
    assert sk.companion_residual(3, a3, 4, PI - a3) == pytest.approx(0.0, abs=1e-12)
    assert sk.companion_residual(7, 2.5, 7, 2.5) == 0.0


def test_companion_residual_nonzero_case():
    # tetrahedron and cube angles are both 2*pi/3 but their edges differ;
    # oracle: the relation evaluated longhand
    a = 2 * PI / 3
    ca = math.cos(a)
    lhs = (1 - ca) * (1 + ca + 2 * math.cos(2 * PI / 3))
    rhs = (1 - ca) * (1 + ca + 2 * math.cos(2 * PI / 4))
    oracle = lhs - rhs
    got = sk.companion_residual(3, a, 4, a)
    assert got == pytest.approx(oracle, abs=1e-15)
    assert abs(got) > 0.5


def test_solve_companion_angle():
    assert sk.solve_companion_angle(3, PI / 2, 4) == pytest.approx([PI], abs=1e-12)
    got = sk.solve_companion_angle(3, 2 * PI / 5, 5)
    assert got == pytest.approx([4 * PI / 5, 6 * PI / 5], abs=1e-12)
    assert sk.solve_companion_angle(3, PI / 2, 5) == []
    # angles whose cosine rounds to 1 leave the m-gon with no edge
    assert sk.solve_companion_angle(3, 1e-9, 4) == []
    assert sk.solve_companion_angle(3, 2 * PI - 1e-9, 4) == []


def test_companion_symmetry_and_concave_mirror():
    rng = random.Random(7)
    for _ in range(200):
        m = rng.randint(3, 12)
        n = rng.randint(3, 12)
        alpha_m = rng.uniform((1 - 2 / m) * PI + 0.05, PI - 0.05)
        for alpha_n in sk.solve_companion_angle(m, alpha_m, n):
            assert sk.companion_residual(m, alpha_m, n, alpha_n) == pytest.approx(0, abs=1e-9)
            # symmetry
            assert sk.companion_residual(n, alpha_n, m, alpha_m) == pytest.approx(0, abs=1e-9)
            # concave mirror
            assert sk.companion_residual(
                m, TWO_PI - alpha_m, n, TWO_PI - alpha_n
            ) == pytest.approx(0, abs=1e-9)


def test_angle_monotone_in_size_for_fixed_edge():
    rng = random.Random(11)
    for _ in range(300):
        m = rng.randint(3, 11)
        n = rng.randint(m + 1, 12)
        # edge admissible for the smaller polygon, hence for both
        x = rng.uniform(0.05, TWO_PI / n - 0.05)
        am = sk.angle_from_edge(m, x)
        an = sk.angle_from_edge(n, x)
        if am < PI - 1e-9 and an < PI - 1e-9:
            assert am < an


def test_hemisphere_triple_equivalence():
    for m in range(3, 11):
        assert sk.edge_from_angle(m, PI) == pytest.approx(TWO_PI / m, abs=1e-12)
        assert sk.circumradius(m, PI) == pytest.approx(PI / 2, abs=1e-12)
        assert sk.angle_from_edge(m, TWO_PI / m - 1e-13) == pytest.approx(PI, abs=1e-5)


def test_solve_companion_size_reference_values():
    # square-cupola family: three squares at a vertex force an octagon
    a4 = 2.0 * math.atan(math.sqrt(7.0 - 4.0 * math.sqrt(2.0)))
    assert sk.solve_companion_size(4, a4, TWO_PI - 2 * a4) == pytest.approx(8.0, abs=1e-9)


def test_solve_companion_size_against_linear_oracle():
    # the relation is linear in cos(2*pi/n); invert it directly
    a3 = math.acos((5 + 2 * SQ5) / 20)
    a4 = math.acos((2 * SQ5 - 5) / 10)
    a5 = math.acos((5 - 9 * SQ5) / 40)
    target = a4 + a5 - a3
    c3, ct = math.cos(a3), math.cos(target)
    cn = ((1 - ct) * (1 + c3 + 2 * math.cos(2 * PI / 3)) / (1 - c3) - 1 - ct) / 2
    oracle = TWO_PI / math.acos(cn)
    got = sk.solve_companion_size(3, a3, target)
    assert got == pytest.approx(oracle, abs=1e-9)
    assert got == pytest.approx(8.093977, abs=1e-5)


def test_solve_companion_size_no_bracket():
    with pytest.raises(sk.NoSolution):
        # a tiny target angle admits no companion in the scanned range
        sk.solve_companion_size(3, 2 * PI / 3, 0.05)


def test_solve_companion_size_round_trip():
    # an m-gon and an n-gon of the same edge x: the size comes back
    for m in range(3, 13):
        for n in range(3, 13):
            top = TWO_PI / max(m, n)
            for i in range(1, 20):
                x = top * i / 20.0
                got = sk.solve_companion_size(m, sk.angle_from_edge(m, x), sk.angle_from_edge(n, x))
                assert got == pytest.approx(n, abs=1e-9), (m, n, x)


def test_solve_companion_size_interval_end():
    # a triangle companion lands on the end of [3, 64] and is clamped to it
    n = sk.solve_companion_size(5, sk.angle_from_edge(5, 0.3), sk.angle_from_edge(3, 0.3))
    assert 3.0 <= n <= 3.0 + 1e-9
    with pytest.raises(sk.NoSolution):
        # a zero m-gon angle fixes no edge
        sk.solve_companion_size(3, 0.0, 1.0)


def test_domain_errors():
    with pytest.raises(sk.DomainError):
        sk.angle_from_edge(3, 2 * PI / 3 + 0.2)  # beyond the triangle bound
    with pytest.raises(sk.DomainError):
        sk.angle_from_edge(2, 1.0)
    with pytest.raises(sk.DomainError):
        sk.edge_from_angle(4, PI / 2 - 0.1)  # below the planar limit
    with pytest.raises(sk.DomainError):
        sk.circumradius(5, 0.2)

