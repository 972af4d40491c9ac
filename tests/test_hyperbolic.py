import cmath
import math
import random

import mpmath
import pytest

from sepstab.gallery import build
from sepstab.groups import GroupSpec
from sepstab.hyperbolic import (H3Point, HyperbolicError, IdentityMap,
                                MoebiusMap, Representation, apply, classify,
                                dist, fixed_points, loxodromic_with_axis,
                                translation_length)

F2 = GroupSpec((), 2)


def random_map(rng):
    while True:
        vals = [complex(rng.uniform(-2, 2), rng.uniform(-2, 2))
                for _ in range(4)]
        if abs(vals[0] * vals[3] - vals[1] * vals[2]) > 1e-3:
            return MoebiusMap(*vals)


def random_point(rng):
    return H3Point(complex(rng.uniform(-5, 5), rng.uniform(-5, 5)),
                   rng.uniform(0.1, 5.0))


class TestClassify:
    def test_diagonal_loxodromic(self):
        assert classify(MoebiusMap(2, 0, 0, 0.5)) == "loxodromic"

    def test_parabolic(self):
        assert classify(MoebiusMap(1, 1, 0, 1)) == "parabolic"

    def test_identity(self):
        assert classify(MoebiusMap(-1, 0, 0, -1)) == "identity"

    def test_elliptic(self):
        th = 0.7
        m = MoebiusMap(cmath.exp(1j * th), 0, 0, cmath.exp(-1j * th))
        assert classify(m) == "elliptic"

    def test_conjugation_invariance(self):
        rng = random.Random(2)
        kinds = ["loxodromic", "parabolic", "elliptic"]
        reps = [MoebiusMap(3, 0, 0, 1 / 3), MoebiusMap(1, 1, 0, 1),
                MoebiusMap(cmath.exp(0.5j), 0, 0, cmath.exp(-0.5j))]
        for _ in range(1000):
            i = rng.randrange(3)
            h = random_map(rng)
            assert classify(h * reps[i] * h.inverse()) == kinds[i]


class TestTranslationLength:
    def test_diagonal(self):
        got = translation_length(MoebiusMap(2, 0, 0, 0.5))
        assert abs(got - 2 * math.log(2)) < 1e-12

    def test_parabolic_zero(self):
        assert translation_length(MoebiusMap(1, 1, 0, 1)) == 0.0

    def test_matches_axis_infimum(self):
        # independent oracle: infimum of d(p, m p) over points on the axis
        rng = random.Random(4)
        for _ in range(20):
            p = complex(rng.uniform(-4, -1), rng.uniform(-1, 1))
            q = complex(rng.uniform(1, 4), rng.uniform(-1, 1))
            lam = rng.uniform(1.2, 4.0)
            m = loxodromic_with_axis(p, q, lam)
            # the axis is the half-circle over segment [p, q]
            c = (p + q) / 2
            r = abs(q - p) / 2
            best = float("inf")
            for k in range(1, 200):
                th = math.pi * k / 200
                pt = H3Point(c + r * math.cos(th) * (q - p) / abs(q - p),
                             r * math.sin(th))
                best = min(best, dist(pt, apply(m, pt)))
            assert abs(best - translation_length(m)) < 1e-6

    def test_homogeneity(self):
        m = loxodromic_with_axis(-3 + 0.5j, 4 - 1j, 2.7)
        l1 = translation_length(m)
        mk = m
        for k in range(2, 9):
            mk = (mk * m).renormalized()
            assert abs(translation_length(mk) - k * l1) < 1e-6


class TestFixedPoints:
    def test_diagonal(self):
        rep_fix, att_fix = fixed_points(MoebiusMap(2, 0, 0, 0.5))
        assert rep_fix == 0 and att_fix is None  # attracting infinity

    def test_parabolic_single(self):
        assert fixed_points(MoebiusMap(1, 1, 0, 1)) == (None,)

    def test_equivariance(self):
        h = MoebiusMap(3, 2, 1, 1)
        m = MoebiusMap(2, 0, 0, 0.5)
        rep_fix, att_fix = fixed_points(h * m * h.inverse())
        assert abs(rep_fix - h.moebius(0)) < 1e-9
        assert abs(att_fix - h.moebius(None)) < 1e-9

    def test_identity_raises(self):
        with pytest.raises(IdentityMap):
            fixed_points(MoebiusMap.identity())

    def test_root_where_cz_plus_d_rounds_to_zero(self):
        # h g h^-1 on schottky2 with h = a b a, g = a B a B: entries ~1e8,
        # and at the float root z2 the float c z2 + d is exactly 0
        rep, _ = build("schottky2")
        grp = rep.group
        h = rep.evaluate(grp.parse_word("a b a"))
        m = h * rep.evaluate(grp.parse_word("a B a B")) * h.inverse()
        roots = fixed_points(m)
        # the reference: the roots of m at 50 digits, ordered by
        # |m'(z)| = |ad - bc| |cz + d|^-2 (the float determinant rounds to 0)
        with mpmath.workdps(50):
            a, b, c, d = (mpmath.mpc(x) for x in (m.a, m.b, m.c, m.d))
            disc = mpmath.sqrt((d - a) ** 2 + 4 * b * c)
            derivs = sorted(((abs(a * d - b * c) / abs(c * z + d) ** 2, z)
                             for z in ((a - d + s * disc) / (2 * c)
                                       for s in (1, -1))),
                            key=lambda t: t[0], reverse=True)
        assert 8.6e7 < derivs[0][0] < 8.8e7
        for got, (_, want) in zip(roots, derivs):
            assert abs(got - complex(want)) < 1e-9
        assert abs(roots[0] - (-1.84226577272)) < 1e-10
        assert abs(roots[1] - (-1.84236223264)) < 1e-10


class TestBoundaryAction:
    """None encodes infinity on both sides of the boundary action."""

    def test_infinity_goes_to_a_over_c(self):
        m = MoebiusMap(3, 2, 1, 1)
        assert m.moebius(None) == m.a / m.c

    def test_affine_map_fixes_infinity(self):
        assert MoebiusMap(2, 1, 0, 0.5).moebius(None) is None

    def test_pole_goes_to_infinity(self):
        m = MoebiusMap(2, 1, 1, -1)  # pole at z = 1
        assert m.moebius(1) is None
        assert abs(m.inverse().moebius(None) - 1) < 1e-12
        assert m.moebius(2) is not None


class TestDist:
    def test_vertical_geodesic(self):
        assert abs(dist(H3Point(0, 1), H3Point(0, math.e)) - 1.0) < 1e-12

    def test_self_distance(self):
        p = H3Point(1 + 2j, 3)
        assert dist(p, p) == 0.0

    def test_isometry_invariance(self):
        rng = random.Random(0)
        for _ in range(1000):
            m = random_map(rng)
            p, q = random_point(rng), random_point(rng)
            assert abs(dist(p, q) - dist(apply(m, p), apply(m, q))) < 1e-9

    def test_metric_axioms(self):
        rng = random.Random(1)
        for _ in range(1000):
            p, q, r = (random_point(rng) for _ in range(3))
            dpq, dqp = dist(p, q), dist(q, p)
            assert abs(dpq - dqp) < 1e-9
            assert dpq >= 0
            assert dist(p, q) <= dist(p, r) + dist(r, q) + 1e-9
        p = random_point(rng)
        assert dist(p, p) < 1e-12

    def test_height_positive(self):
        with pytest.raises(HyperbolicError):
            H3Point(0, 0.0)


class TestApply:
    def test_identity(self):
        p = H3Point(1 + 1j, 2)
        q = apply(MoebiusMap.identity(), p)
        assert q.z == p.z and q.t == p.t

    def test_horizontal_translation(self):
        q = apply(MoebiusMap(1, 1, 0, 1), H3Point(0, 1))
        assert abs(q.z - 1) < 1e-15 and abs(q.t - 1) < 1e-15

    def test_scaling(self):
        q = apply(MoebiusMap(2, 0, 0, 0.5), H3Point(0, 1))
        assert abs(q.z) < 1e-15 and abs(q.t - 4) < 1e-12

    def test_composition(self):
        rng = random.Random(9)
        for _ in range(100):
            m, n = random_map(rng), random_map(rng)
            p = random_point(rng)
            lhs = apply((m * n).renormalized(), p)
            rhs = apply(m, apply(n, p))
            assert abs(lhs.z - rhs.z) < 1e-9 and abs(lhs.t - rhs.t) < 1e-9


class TestEvaluate:
    def rep(self):
        return Representation(F2, [loxodromic_with_axis(-8, -2, 5),
                                   loxodromic_with_axis(2, 8, 5)])

    def test_empty_word(self):
        assert self.rep().evaluate(()).is_identity()

    def test_word_times_inverse(self):
        from sepstab.groups import word_inverse
        rep = self.rep()
        w = F2.parse_word("a b a a B a b")
        assert rep.evaluate(w + word_inverse(w)).is_identity()

    def test_regrouping_stable(self):
        # reduced words: splitting a cancelling word multiplies two huge
        # half-products whose collapse is information-theoretically lost
        rep = self.rep()
        rng = random.Random(12)
        for _ in range(30):
            w = []
            for _ in range(64):
                x = rng.randrange(4)
                while w and x == (w[-1] ^ 1):
                    x = rng.randrange(4)
                w.append(x)
            w = tuple(w)
            k = rng.randrange(1, 63)
            whole = rep.evaluate(w)
            split = (rep.evaluate(w[:k]) * rep.evaluate(w[k:])).renormalized()
            assert whole.eq_up_to_sign(split)

    def test_fuchsian_relator_residual(self):
        from sepstab.gallery import build
        rep, _ = build("fuchsian-genus2")
        residuals = rep.relator_residuals()
        assert residuals[0] < 1e-8

    def test_respects_normal_form(self):
        from sepstab.groups import GroupSpec, normal_form
        from sepstab.gallery import build
        rep, _ = build("s2-times-z")
        grp = rep.group
        rng = random.Random(21)
        for _ in range(50):
            w = tuple(rng.randrange(grp.n_letters)
                      for _ in range(rng.randrange(12)))
            nf = normal_form(w, grp)
            flat = tuple(x for _, syl in nf for x in syl)
            assert rep.evaluate(w).eq_up_to_sign(rep.evaluate(flat))
