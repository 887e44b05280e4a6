import cmath
import hashlib
import math
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from hypothesis import assume, given, settings, strategies as st

from domekit import mobius
from domekit.errors import DegenerateMobius
from domekit.mobius import (
    INF,
    CircleOrLine,
    MobiusMap,
    chordal_distance,
    random_disk_mobius,
    random_mobius,
)

from _oracles import circles_close, is_identity


def test_identity_fixes_point():
    m = MobiusMap.identity()
    assert m(3 + 4j) == 3 + 4j


def test_inversion():
    m = MobiusMap(0, 1, 1, 0)
    assert abs(m(2) - 0.5) < 1e-15
    assert m(0) == INF
    assert m(INF) == 0


def test_composition_matches_pointwise(rng):
    for _ in range(200):
        m1, m2 = random_mobius(rng), random_mobius(rng)
        z = complex(rng.normal(), rng.normal())
        direct = m1.compose(m2)(z)
        stepwise = m1(m2(z))
        assert abs(direct - stepwise) <= 1e-12 * max(1.0, abs(stepwise))


def test_inverse_composes_to_identity(rng):
    for _ in range(100):
        m = random_mobius(rng)
        assert is_identity(m.compose(m.inverse()), tol=1e-12)


def test_determinant_normalized(rng):
    m = random_mobius(rng)
    assert abs(m.a * m.d - m.b * m.c - 1.0) < 1e-12


def test_degenerate_rejected():
    with pytest.raises(DegenerateMobius):
        MobiusMap(1, 2, 2, 4)


def test_three_point_map():
    m = MobiusMap.to_zero_one_inf(2.0, 3.0, 5.0)
    assert abs(m(2.0)) < 1e-14
    assert abs(m(3.0) - 1.0) < 1e-14
    assert m(5.0) == INF


def test_three_point_map_with_infinity():
    m = MobiusMap.to_zero_one_inf(INF, 1j, 0.0)
    assert abs(m(INF)) < 1e-14
    assert abs(m(1j) - 1.0) < 1e-14
    assert m(0.0) == INF


def test_from_three_points_roundtrip(rng):
    src = (0.3 + 0.1j, -2.0, 5j)
    dst = (1.0, INF, -1j)
    m = MobiusMap.from_three_points(src, dst)
    for s, d in zip(src, dst):
        if d == INF:
            assert abs(m.c * s + m.d) < 1e-12
        else:
            assert abs(m(s) - d) < 1e-12


def test_disk_mobius_preserves_unit_circle(rng):
    for _ in range(1000):
        m = random_disk_mobius(rng)
        z = cmath.exp(1j * rng.uniform(0, 2 * math.pi))
        assert abs(abs(m(z)) - 1.0) < 1e-12


def test_translation_along_translates_by_dist():
    t = MobiusMap.translation_along(-1.0, 1.0, 0.7)
    # fixed points preserved
    assert abs(t(-1.0) + 1.0) < 1e-12
    assert abs(t(1.0) - 1.0) < 1e-12
    # trace encodes the translation length
    assert abs(abs(t.trace()) - 2 * math.cosh(0.35)) < 1e-12


def test_rotation_about_trace():
    r = MobiusMap.rotation_about(0.0, INF, 1.3)
    assert abs(abs(r.trace()) - 2 * math.cos(0.65)) < 1e-12


def test_chordal_distance():
    assert chordal_distance(0, 0) == 0
    assert abs(chordal_distance(0, INF) - 2.0) < 1e-15
    assert abs(chordal_distance(1.0, -1.0) - 2.0) < 1e-15


@pytest.mark.parametrize("z, w", [
    (1e160 + 0j, 0j), (1e160 + 0j, INF), (INF, -3e200 + 1j),
    (1e160 + 0j, 1e160 * (1 + 1e-10) + 0j), (-1e155 + 2e155j, 3.0 + 0j),
    (1e160 + 0j, -1e160 + 0j),
])
def test_chordal_distance_beyond_float_squares(z, w):
    # |z|^2 overflows a float beyond ~1.3e154; mpmath evaluates the formula
    mpmath = pytest.importorskip("mpmath")
    mpmath.mp.dps = 40

    def sq(x):
        return 1 + mpmath.mpf(abs(x)) ** 2

    if z == INF or w == INF:
        want = 2 / mpmath.sqrt(sq(w if z == INF else z))
    else:
        want = 2 * mpmath.mpf(abs(z - w)) / mpmath.sqrt(sq(z) * sq(w))
    assert chordal_distance(z, w) == pytest.approx(float(want), rel=1e-14)


def test_coefficients_beyond_float_squares():
    assert is_identity(MobiusMap(1e160, 0, 0, 1e160), tol=1e-15)
    assert MobiusMap(1e160, 2e160, 0, 1e160)(1.0) == 3.0
    with pytest.raises(DegenerateMobius):
        MobiusMap(0, 1, 1, -1e160)


class TestCircleOrLine:
    def test_through_three_points_unit_circle(self):
        c = CircleOrLine.through_points(1.0, 1j, -1.0)
        assert circles_close(c, CircleOrLine.unit_circle())

    def test_line_detection(self):
        c = CircleOrLine.through_points(0.0, 1.0, INF)
        assert c.is_line
        assert circles_close(c, CircleOrLine.real_line())

    def test_center_radius(self):
        c = CircleOrLine.circle(2 + 1j, 3.0)
        ctr, r = c.center_radius()
        assert abs(ctr - (2 + 1j)) < 1e-12 and abs(r - 3.0) < 1e-12

    def test_mobius_image(self, rng):
        c = CircleOrLine.circle(1 + 1j, 2.0)
        m = random_mobius(rng)
        img = c.mobius_image(m)
        for ang in np.linspace(0, 2 * math.pi, 17):
            z = (1 + 1j) + 2.0 * cmath.exp(1j * ang)
            assert img.contains(m(z), tol=1e-8)

    def test_intersection_circle_circle(self):
        c1 = CircleOrLine.unit_circle()
        c2 = CircleOrLine.circle(1.0, 1.0)
        pts = c1.intersect(c2)
        assert len(pts) == 2
        for p in pts:
            assert abs(abs(p) - 1) < 1e-12 and abs(abs(p - 1) - 1) < 1e-12

    def test_intersection_line_circle(self):
        pts = CircleOrLine.real_line().intersect(CircleOrLine.unit_circle())
        assert sorted(p.real for p in pts) == pytest.approx([-1.0, 1.0])

    def test_tangent_circles_no_transversal_points(self):
        c1 = CircleOrLine.unit_circle()
        c2 = CircleOrLine.circle(2.0, 1.0)
        pts = c1.intersect(c2)
        assert len(pts) <= 2  # tangency collapses to a double point
        if len(pts) == 2:
            assert abs(pts[0] - pts[1]) < 1e-6


def _form_gap(c1, c2) -> float:
    """Largest coefficient difference of two canonical forms, up to sign."""
    return min(max(abs(c1.A - s * c2.A), abs(c1.B - s * c2.B), abs(c1.C - s * c2.C))
               for s in (1.0, -1.0))


_COEF = st.complex_numbers(max_magnitude=10.0, allow_nan=False, allow_infinity=False)
_PROPS = settings(max_examples=200, deadline=None, derandomize=True, database=None)


def _map(a, b, c, d) -> MobiusMap:
    """The map, provided its determinant is not small against its size
    (at least 1, as in MobiusMap)."""
    assume(abs(a * d - b * c) > 1e-2 * max(abs(a), abs(b), abs(c), abs(d), 1.0) ** 2)
    return MobiusMap(a, b, c, d)


class TestClosedForms:
    @_PROPS
    @given(a=_COEF, b=_COEF, c=_COEF, d=_COEF, center=_COEF,
           radius=st.floats(1e-3, 10.0), line=st.booleans())
    def test_mobius_image_against_mpmath(self, a, b, c, d, center, radius, line):
        mpmath = pytest.importorskip("mpmath")
        m = _map(a, b, c, d)
        if line:
            circ = CircleOrLine.line_through(center, center + cmath.exp(1j * radius))
        else:
            circ = CircleOrLine.circle(center, radius)
        got = circ.mobius_image(m)
        with mpmath.workdps(50):
            H = mpmath.matrix([[circ.A, circ.B], [circ.B.conjugate(), circ.C]])
            N = mpmath.matrix([[m.d, -m.b], [-m.c, m.a]])  # the inverse map
            Hp = N.H * H * N
            A, B, C = mpmath.re(Hp[0, 0]), Hp[0, 1], mpmath.re(Hp[1, 1])
            norm = mpmath.sqrt(A * A + 2 * abs(B) ** 2 + C * C)
            want = CircleOrLine(float(A / norm), complex(B / norm), float(C / norm))
            # rounding of each coefficient is a few ulps of its terms' sizes
            size = (abs(circ.A) + 2 * abs(circ.B) + abs(circ.C)) * sum(
                abs(x) for x in (m.a, m.b, m.c, m.d)) ** 2
            tol = 8 * 2.0 ** -52 * float(size / norm)
        assert _form_gap(got, want) <= tol

    @_PROPS
    @given(seed=st.integers(0, 2**32 - 1), center=_COEF, radius=st.floats(0.1, 10.0))
    def test_mobius_image_group_law(self, seed, center, radius):
        rng = np.random.default_rng(seed)
        m1, m2 = random_mobius(rng), random_mobius(rng)
        circ = CircleOrLine.circle(center, radius)
        once = circ.mobius_image(m1.compose(m2))
        twice = circ.mobius_image(m2).mobius_image(m1)
        assert _form_gap(once, twice) <= 1e-9
        assert _form_gap(circ.mobius_image(m1).mobius_image(m1.inverse()), circ) <= 1e-9

    @_PROPS
    @given(center=_COEF, radius=st.floats(0.1, 10.0),
           angles=st.lists(st.floats(0.0, 2 * math.pi), min_size=3, max_size=3))
    def test_through_points_round_trip(self, center, radius, angles):
        ts = sorted(angles)
        assume(min(ts[1] - ts[0], ts[2] - ts[1], ts[0] + 2 * math.pi - ts[2]) > 0.1)
        pts = [center + radius * cmath.exp(1j * t) for t in ts]
        circ = CircleOrLine.through_points(*pts)
        assert _form_gap(circ, CircleOrLine.circle(center, radius)) <= 1e-9
        # a line: two finite points and infinity
        line = CircleOrLine.through_points(pts[0], INF, pts[1])
        assert line.is_line
        assert _form_gap(line, CircleOrLine.line_through(pts[0], pts[1])) <= 1e-9

    @_PROPS
    @given(p=_COEF, t1=st.floats(0.0, math.pi), t2=st.floats(0.0, math.pi))
    def test_line_line_intersect_round_trip(self, p, t1, t2):
        assume(0.1 < abs(t1 - t2) < math.pi - 0.1)
        l1 = CircleOrLine.line_through(p, p + cmath.exp(1j * t1))
        l2 = CircleOrLine.line_through(p, p + cmath.exp(1j * t2))
        pts = l1.intersect(l2)
        assert len(pts) == 2 and pts[0] == INF
        assert abs(pts[1] - p) <= 1e-12 * max(1.0, abs(p))

    def test_parallel_lines_meet_only_at_infinity(self):
        l1 = CircleOrLine.line_through(0j, 1 + 1j)
        l2 = CircleOrLine.line_through(1j, 1 + 2j)
        assert l1.intersect(l2) == [INF]


_REAL = st.floats(-1e6, 1e6)
_REAL_MAP = st.tuples(_REAL, _REAL, _REAL, _REAL)


def _bits(x) -> str:
    """x's bits, the sign of a zero aside: complex division drops it."""
    return float.hex(x + 0.0)


class TestTupleKernel:
    """`mobius.compose`, `inverse`, `apply` and `to_zero_inf` act on (a, b, c, d)
    tuples of floats (the dome's development) or complex numbers (MobiusMap)."""

    @_PROPS
    @given(m=_REAL_MAP, n=_REAL_MAP, x=_REAL)
    def test_float_and_complex_tuples_agree_bit_for_bit(self, m, n, x):
        def cx(t):
            return tuple(complex(v) for v in t)

        for real, cplx in zip(mobius.compose(m, n), mobius.compose(cx(m), cx(n))):
            assert cplx.imag == 0 and _bits(cplx.real) == _bits(real)
        real, cplx = mobius.apply(m, x), mobius.apply(cx(m), complex(x))
        if real == INF:
            assert cplx == INF
        else:
            assert cplx.imag == 0 and _bits(cplx.real) == _bits(real)

    @_PROPS
    @given(m=_REAL_MAP)
    def test_inverse_is_the_adjugate(self, m):
        a, b, c, d = m
        det = a * d - b * c
        assert mobius.compose(m, mobius.inverse(m)) == (det, 0.0, 0.0, det)

    @_PROPS
    @given(a=_COEF, b=_COEF, c=_COEF, z=_COEF)
    def test_apply_is_inf_at_a_pole_and_at_inf(self, a, b, c, z):
        # d = -(c z) makes c z + d exactly 0
        for m, w in (((a, b, c, -(c * z)), z),
                     ((a.real, b.real, c.real, -(c.real * z.real)), z.real)):
            assert mobius.apply(m, w) == INF
            for inf in (INF, math.inf):
                assert mobius.apply((m[0], m[1], 0.0, m[3]), inf) == INF
                if m[2] != 0:
                    assert mobius.apply(m, inf) == m[0] / m[2]

    @_PROPS
    @given(a=_COEF, b=_COEF, c=_COEF, d=_COEF, z=st.one_of(_COEF, st.just(INF)))
    def test_mobius_map_wraps_the_kernel(self, a, b, c, d, z):
        def coef(m):
            return (m.a, m.b, m.c, m.d)

        m = _map(a, b, c, d)
        n = _map(d, c, b, a)
        assert m(z) == mobius.apply(coef(m), z)
        assert coef(m.inverse()) == coef(MobiusMap(*mobius.inverse(coef(m))))
        assert coef(m.compose(n)) == coef(MobiusMap(*mobius.compose(coef(m), coef(n))))

    @pytest.mark.parametrize("z, want", [
        (0.3, False), (5, False), (1 + 2j, False), (INF, True), (math.inf, True),
        (complex(-math.inf, 1.0), True), (complex(1.0, math.nan), True),
        (np.float64(np.inf), True), (np.complex128(1j), False),
        # a real -inf or NaN is not the point at infinity
        (-math.inf, False), (math.nan, False),
    ])
    def test_is_inf(self, z, want):
        assert mobius.is_inf(z) == want

    @pytest.mark.parametrize("p, q", [(2.0, -1.0), (INF, 3.0), (0.5, INF), (1j, 2 + 1j)])
    def test_to_zero_inf(self, p, q):
        m = mobius.to_zero_inf(p, q)
        assert mobius.apply(m, p) == 0 and mobius.apply(m, q) == INF


_DIGEST = """
import hashlib, struct
import numpy as np
from domekit.mobius import CircleOrLine, random_mobius
rng = np.random.default_rng(0)
h = hashlib.sha256()
for _ in range(5000):
    m = random_mobius(rng)
    c = CircleOrLine.circle(complex(*rng.normal(size=2)), float(rng.uniform(0.1, 3.0)))
    img = c.mobius_image(m)
    h.update(struct.pack("<4d", img.A, img.B.real, img.B.imag, img.C))
print(h.hexdigest())
"""


def test_circle_images_independent_of_blas_kernel():
    # OpenBLAS picks its kernel by CPU unless OPENBLAS_CORETYPE names one;
    # circle images are scalar Python arithmetic, so their bits must not move
    src = str(Path(__file__).resolve().parents[1] / "src")
    digests = set()
    for coretype in (None, "Prescott", "Haswell"):
        env = {k: v for k, v in os.environ.items() if k != "OPENBLAS_CORETYPE"}
        env["PYTHONPATH"] = src + os.pathsep + env.get("PYTHONPATH", "")
        env["OPENBLAS_NUM_THREADS"] = "1"
        if coretype is not None:
            env["OPENBLAS_CORETYPE"] = coretype
        out = subprocess.run([sys.executable, "-c", _DIGEST], env=env, check=True,
                             capture_output=True, text=True, timeout=120).stdout
        digests.add(out.strip())
    assert len(digests) == 1
