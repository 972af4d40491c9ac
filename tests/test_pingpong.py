import cmath
import math
import random
from fractions import Fraction

import mpmath
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st
from mpmath import iv

from sepstab.disks import (SQRT_BITS, Disk, DiskError, _circle, _congruence,
                           _exact, _sqrt_bracket, isometric_disk)
from sepstab.gallery import _surface_with_t, build, octagon_generators
from sepstab.groups import GroupSpec
from sepstab.hyperbolic import MoebiusMap, Representation, loxodromic_with_axis
from sepstab.pingpong import (DiskCountMismatch, PingPongDisks,
                              UnverifiedDisks, ping_pong_verify)

F2 = GroupSpec((), 2)


class TestDisks:
    def test_interior_membership(self):
        d = Disk.interior(1 + 1j, 2.0)
        assert d.value(1 + 1j) <= 0
        assert d.value(2.5 + 1j) <= 0
        assert not d.value(4 + 1j) <= 0
        assert not d.value(None) <= 0

    def test_exterior_membership(self):
        d = Disk.interior(0, 1.0).complement()
        assert not d.value(0.5) <= 0
        assert d.value(3) <= 0
        assert d.value(None) <= 0

    def test_image_matches_pointwise(self):
        rng = random.Random(2)
        for _ in range(200):
            c = complex(rng.uniform(-3, 3), rng.uniform(-3, 3))
            r = rng.uniform(0.2, 2.0)
            D = Disk.interior(c, r)
            if rng.random() >= 0.5:
                D = D.complement()
            m = MoebiusMap(*(complex(rng.uniform(-2, 2), rng.uniform(-2, 2))
                             for _ in range(4)))
            Dm = D.image(m)
            for _ in range(10):
                z = complex(rng.uniform(-4, 4), rng.uniform(-4, 4))
                if abs(D.value(z)) < 1e-6:
                    continue
                w = m.moebius(z)
                if w is None:
                    continue
                assert (Dm.value(w) <= 1e-9) == (D.value(z) <= 0)

    def test_containment_cases(self):
        assert Disk.interior(0, 3).contains_disk(Disk.interior(1, 1), 0.5)
        assert not Disk.interior(0, 3).contains_disk(Disk.interior(2.5, 1))
        out1 = Disk.interior(0, 1).complement()
        assert out1.contains_disk(Disk.interior(5, 2), 0.5)
        assert not out1.contains_disk(Disk.interior(0.5, 0.2))
        assert out1.contains_disk(Disk.interior(0.5, 2).complement(), 0.2)
        assert not out1.contains_disk(Disk.interior(0.5, 1.2).complement())
        assert not Disk.interior(0, 100).contains_disk(out1)
        # z -> -1/z carries |z| >= 2 onto |z| <= 1/2
        assert Disk.interior(0, 1).contains_disk(
            Disk.interior(0, 2).complement(), 0.4, MoebiusMap(0, 1, -1, 0))
        assert not Disk.interior(0, 1).contains_disk(
            Disk.interior(0, 2).complement(), 0.6, MoebiusMap(0, 1, -1, 0))

    def test_disjointness(self):
        # b is disjoint from a when a's complement contains b; the
        # complement of an exterior region (interior(...).complement())
        # is the interior itself, form for form
        out1 = Disk.interior(0, 1).complement()
        assert out1.contains_disk(Disk.interior(3, 1), 0.5)
        assert not out1.contains_disk(Disk.interior(1.5, 1))
        assert not Disk.interior(0, 1).contains_disk(
            Disk.interior(9, 1).complement())
        assert out1.contains_disk(Disk.interior(0.5, 3).complement(), 0.5)
        assert not out1.contains_disk(Disk.interior(0, 0.9).complement())
        assert Disk.interior(0, 3).contains_disk(Disk.interior(0.5, 1), 0.5)
        assert not Disk.interior(0, 3).contains_disk(Disk.interior(2, 1.5))

    def test_complement_negates_form_exactly(self):
        d = Disk.interior(0.3 + 0.1j, 0.7)
        e = d.complement()
        assert (e.A, e.B, e.C) == (-d.A, -d.B, -d.C)
        assert not e.bounded and e.value(None) <= 0

    def test_unproved_sign_of_A_raises(self):
        # z -> 1/(z - 1) sends the unit circle onto the line Re w = -1/2
        with pytest.raises(DiskError):
            Disk.interior(0, 5).contains_disk(
                Disk.interior(0, 1), 0.0, MoebiusMap(0, 1, 1, -1))

    @pytest.mark.parametrize("make,reason", [
        (lambda: Disk.interior(0, 0.0), "radius must be positive"),
        (lambda: Disk.interior(0, -1.0).complement(),
         "radius must be positive"),
        # |B|^2 - AC = -1: no real circle
        (lambda: Disk(0.0, 0j, 1.0), "does not define a real circle")],
        ids=["interior", "exterior", "form"])
    def test_no_circle_raises(self, make, reason):
        with pytest.raises(DiskError, match=reason):
            make()

    def test_isometric_disk_requires_c(self):
        with pytest.raises(DiskError):
            isometric_disk(MoebiusMap(2, 0, 0, 0.5))

    @pytest.mark.parametrize("make", [
        lambda: Disk.interior(0, 1e200),      # r^2 overflows
        lambda: Disk.interior(0, 1e200).complement(),
        lambda: Disk.interior(1e160, 1),      # |c|^2 overflows
        lambda: Disk.interior(1e160, 1).complement(),
        lambda: isometric_disk(MoebiusMap(2, 0, 1e-201, 0.5)),
        lambda: Disk(1.0, complex(1e308, 1e308), 0.0)],
        ids=["radius", "exterior-radius", "center", "exterior-center",
             "isometric", "form"])
    def test_too_large_for_floats_raises(self, make):
        # no silent form with A = 0 and C = nan, and no OverflowError
        with pytest.raises(DiskError, match="^disk too large for its "
                           "circle form in floats$"):
            make()


# -- the predicates against a float boundary sample -------------------------

_coord = st.floats(-3.0, 3.0)
_disks = st.builds(
    lambda x, y, r, ext: (lambda d: d.complement() if ext else d)(
        Disk.interior(complex(x, y), r)),
    _coord, _coord, st.floats(0.2, 2.0), st.booleans())
_entries = st.builds(complex, st.floats(-2.0, 2.0), st.floats(-2.0, 2.0))


@st.composite
def _maps(draw):
    a, b, c, d = (draw(_entries) for _ in range(4))
    assume(abs(a * d - b * c) >= 0.5)
    return MoebiusMap(a, b, c, d)


# (x, y, exterior, scale): a disk relative to a reference disk
_placements = st.tuples(st.floats(-3.0, 3.0), st.floats(-3.0, 3.0),
                        st.booleans(), st.floats(0.2, 3.0))


def _place(ref: Disk, placement) -> Disk:
    """A disk placed and sized in units of ref's radius, either kind."""
    x, y, exterior, scale = placement
    d = Disk.interior(ref.center + ref.radius * complex(x, y),
                      ref.radius * scale)
    return d.complement() if exterior else d


def _float_slack(outer: Disk, inner: Disk, margin: float) -> float:
    """How far inner, widened by margin, sits inside outer, from float
    centres and radii (negative: it does not)."""
    d = abs(outer.center - inner.center)
    ro, ri = outer.radius, inner.radius
    if outer.bounded:
        return ro - margin - d - ri if inner.bounded else -math.inf
    if inner.bounded:
        return d - ro - ri - margin
    return ri - margin - d - ro


def _sample_inside(outer: Disk, region: Disk, m: MoebiusMap) -> bool:
    """256 boundary points of region and one point inside it, mapped by m,
    have outer's form value <= 0 (up to float rounding)."""
    c, r = region.center, region.radius
    pts = [c + r * cmath.exp(2j * math.pi * k / 256) for k in range(256)]
    pts.append(c if region.bounded else None)
    for z in pts:
        w = m.moebius(z)
        try:
            tol = 0.0 if w is None else 1e-9 * (1.0 + abs(w) ** 2)
        except OverflowError:
            # |w|^2 is past float range: test w as infinity, where the
            # sign of A decides
            w, tol = None, 0.0
        if outer.value(w) > tol:
            return False
    return True


# the interval predicate that the exact one replaced, kept as an oracle:
# whatever it proved, the exact predicate must prove too, ties aside


def _iv_circle(form):
    """(bounded, cx, cy, r) of an interval form, once the sign of A and the
    reality of the circle are proved."""
    A, Bx, By, C = form
    if A > 0:
        bounded = True
    elif A < 0:
        bounded = False
    else:
        raise DiskError("sign of A not proved (half-plane or near it)")
    disc = Bx ** 2 + By ** 2 - A * C
    if not disc > 0:
        raise DiskError("form does not define a real circle")
    return bounded, -Bx / A, -By / A, iv.sqrt(disc) / abs(A)


def _iv_contains(outer: Disk, inner: Disk, margin: float,
                 m: MoebiusMap) -> bool:
    """``outer.contains_disk(inner, margin, m)`` as mpmath interval
    arithmetic decided it before the exact predicate: the oracle of
    ``_check``."""
    form = _congruence(inner._form(iv.mpf), m, iv.mpf)
    bs, xs, ys, rs = _iv_circle(outer._form(iv.mpf))
    bo, xo, yo, ro = _iv_circle(form)
    if bs and not bo:
        return False
    dist = iv.sqrt((xs - xo) ** 2 + (ys - yo) ** 2)
    if bs:
        holds = dist + ro <= rs - margin
    elif bo:
        holds = dist >= rs + ro + margin
    else:
        holds = dist + rs <= ro - margin
    return holds is True


def _exact_slack(outer: Disk, inner: Disk, margin: float,
                 m: MoebiusMap) -> mpmath.mpf:
    """Right side minus left side of the exact inequality that
    ``contains_disk`` decides, to 300 bits; 0 up to that precision at a
    tie."""
    form = _congruence(inner._form(_exact), m, _exact)
    bs, xs, ys, rs = _circle(outer._form(_exact))
    bo, xo, yo, ro = _circle(form)
    dist = (xs - xo) ** 2 + (ys - yo) ** 2
    small, big = (((dist, ro), (rs,)) if bs else
                  ((rs, ro), (dist,)) if bo else ((dist, rs), (ro,)))
    with mpmath.workprec(300):
        def root(q):
            return mpmath.sqrt(mpmath.mpf(q.numerator) / q.denominator)
        return (sum(root(q) for q in big) - sum(root(q) for q in small)
                - mpmath.mpf(margin))


def _check(outer: Disk, inner: Disk, m: MoebiusMap, margin: float,
           proved: bool):
    try:
        old = _iv_contains(outer, inner, margin, m)
    except DiskError:
        old = False
    if old and not proved:
        # intervals of exact point values prove ties; exact never does
        assert abs(_exact_slack(outer, inner, margin, m)) < 2.0 ** -250
    image = inner.image(m)
    if proved:
        assert _sample_inside(outer, inner, m)
    scale = max(1.0, abs(image.center) + image.radius)
    if _float_slack(outer, image, margin) >= 1e-3 * scale:
        assert proved


class TestDiskPredicateProperties:
    @settings(max_examples=300, deadline=None)
    @given(_disks, _maps(), _placements, st.floats(0.0, 0.1))
    # infinity maps to 1e218, whose squared modulus overflows a float
    @example(inner=Disk.interior(0, 1).complement(),
             m=MoebiusMap(1, 0, 1.00099e-218, 1),
             placement=(0.0, 0.0, True, 0.5), margin_units=0.0)
    # an exact internal tangency, which intervals of point values proved
    @example(inner=Disk.interior(0, 1), m=MoebiusMap.identity(),
             placement=(1.0, 0.0, False, 2.0), margin_units=0.0)
    def test_contains_disk_under_map(self, inner, m, placement, margin_units):
        image = inner.image(m)
        assume(image.A != 0 and 1e-2 <= image.radius
               and abs(image.center) + image.radius <= 100.0)
        outer = _place(image, placement)
        margin = margin_units * image.radius
        _check(outer, inner, m, margin,
               outer.contains_disk(inner, margin, m))

    @settings(max_examples=300, deadline=None)
    @given(_disks, _placements, st.floats(0.0, 0.1))
    def test_disjoint_from(self, disk, placement, margin_units):
        other = _place(disk, placement)
        margin = margin_units * disk.radius
        _check(disk.complement(), other, MoebiusMap.identity(), margin,
               disk.complement().contains_disk(other, margin))


# exact dyadic disks: centres on an axis, so |c|^2 and the normalization
# by the radius (a power of 2) are exact in floats
_axes = st.sampled_from([1, -1, 1j, -1j])
_eighths = st.integers(-64, 64).map(lambda k: k / 8)
_powers = st.integers(-3, 3).map(lambda k: 2.0 ** k)


class TestExactPredicate:
    @given(_axes, _eighths, _powers, _powers)
    def test_tangencies_are_not_proved(self, axis, t, r, s):
        assume(r > s)
        c = axis * t
        inner = Disk.interior(c + axis * (r - s), s)   # touches from inside
        outside = Disk.interior(c + axis * (r + s), s)  # touches outside
        ties = [(Disk.interior(c, r), inner),
                (Disk.interior(c, r).complement(), outside),
                (Disk.interior(c + axis * (r - s), s).complement(),
                 Disk.interior(c, r).complement())]
        for outer, other in ties:
            assert not outer.contains_disk(other)
            # the tie is decided by exactness, not by a coarse bracket
            assert outer.contains_disk(other, -2.0 ** -40)
        assert not Disk.interior(c, r).complement().contains_disk(outside)
        assert Disk.interior(c, r).complement().contains_disk(
            outside, -2.0 ** -40)

    @settings(max_examples=300, deadline=None)
    @given(_disks, _maps(), st.floats(0.0, 0.8), st.floats(-4.0, 4.0),
           st.integers(-15, -6), st.booleans())
    def test_near_ties(self, inner, m, shift, angle, log_gap, nested):
        # outer is placed so that the inequality holds with slack
        # 10^log_gap times the image's radius, up to float rounding
        image = inner.image(m)
        assume(image.A != 0 and 1e-2 <= image.radius
               and abs(image.center) + image.radius <= 100.0)
        c, r, u = image.center, image.radius, cmath.exp(1j * angle)
        gap = 10.0 ** log_gap
        if not image.bounded:
            outer = Disk.interior(c + shift * r * u,
                                  (1 - shift - gap) * r).complement()
        elif nested:
            outer = Disk.interior(c + shift * r * u, (1 + shift + gap) * r)
        else:
            outer = Disk.interior(c + (1.1 + shift + gap) * r * u,
                                  (0.1 + shift) * r).complement()
        proved = outer.contains_disk(inner, 0.0, m)
        _check(outer, inner, m, 0.0, proved)
        if gap >= 1e-9:
            assert proved

    @settings(max_examples=300)
    @given(st.floats(2.0 ** -1074, 1e308), st.integers(1, 2 ** 80),
           st.integers(1, 2 ** 80))
    @example(x=4.0, n=1, d=1)
    @example(x=2.0 ** -1074, n=1, d=1)
    @example(x=1e308, n=1, d=1)
    def test_sqrt_bracket(self, x, n, d):
        for q in (Fraction(x), Fraction(x) * n / d):
            lo, hi = _sqrt_bracket(q)
            assert 0 < lo and lo * lo <= q < hi * hi
            assert hi - lo <= lo / 2 ** (SQRT_BITS - 1)
        assert _sqrt_bracket(Fraction(0)) == (0, 0)

    @pytest.mark.parametrize("value", [math.inf, -math.inf, math.nan])
    @pytest.mark.parametrize("entry", ["A", "B", "C"])
    @pytest.mark.parametrize("name", ["schottky2", "s2-times-z"])
    def test_non_finite_entry_is_a_failure(self, name, entry, value):
        rep, disks = build(name)
        disk = (disks.factor or disks.free)[0]
        setattr(disk, entry, complex(value) if entry == "B" else value)
        with pytest.raises(DiskError):
            Disk.interior(0, 1).contains_disk(disk)
        cert = ping_pong_verify(rep, disks)
        assert not cert.ok and cert.failures

    def test_non_finite_map_entry_raises(self):
        m = MoebiusMap(math.inf, 0, 0, 1, normalize=False)
        with pytest.raises(DiskError):
            Disk.interior(0, 3).contains_disk(Disk.interior(0, 1), 0.0, m)


class TestPingPong:
    def test_schottky_verifies(self):
        rep, disks = build("schottky2")
        cert = ping_pong_verify(rep, disks)
        assert cert.ok and not cert.failures

    def test_mixed_gallery_verifies(self):
        rep, disks = build("s2-times-z")
        cert = ping_pong_verify(rep, disks)
        assert cert.ok
        assert 0 in cert.surface_circles
        center, radius = cert.surface_circles[0]
        assert abs(center) < 1e-6 and abs(radius - 1.0) < 1e-9

    def test_parabolic_generator_fails(self):
        rep, disks = build("pinched-a")
        cert = ping_pong_verify(rep, disks)
        assert not cert.ok
        assert any("mapping inequality" in f for f in cert.failures)

    def test_overlapping_disks_fail(self):
        rep, _ = build("schottky2")
        disks = PingPongDisks(free={
            0: Disk.interior(-2, 3.0), 1: Disk.interior(-8, 3.0),
            2: Disk.interior(8, 3.0), 3: Disk.interior(2, 3.0)},
            factor={})
        cert = ping_pong_verify(rep, disks)
        assert not cert.ok
        assert any("not disjoint" in f for f in cert.failures)

    @pytest.mark.parametrize("name", ["schottky2", "s2-times-z"])
    def test_small_scale_conjugate_verifies(self, name):
        # a similarity changes no inequality, so the scale must not matter
        s = 1e-3
        h = MoebiusMap(s ** .5, 0, 0, s ** -.5)
        rep, disks = build(name)
        cert = ping_pong_verify(rep.conjugated(h), PingPongDisks(
            free={k: d.image(h) for k, d in disks.free.items()},
            factor={k: d.image(h) for k, d in disks.factor.items()}))
        assert cert.ok, cert.failures

    @pytest.mark.parametrize("lam,ok", [(5.0, True), (3.9, False)])
    def test_exterior_source_disk(self, lam, ok):
        # a: z -> lam z with D(a) = {|z| > 2}, D(A) = {|z| < 1/2}, so the
        # inequality for A maps the complement of an exterior region
        a = MoebiusMap(lam ** .5, 0, 0, lam ** -.5)
        hb = MoebiusMap(1, -1, 1, 1)    # 0 -> -1, inf -> 1
        b = hb * MoebiusMap(10.0, 0, 0, 0.1) * hb.inverse()
        disks = PingPongDisks(free={
            0: Disk.interior(0, 2).complement(), 1: Disk.interior(0, 0.5),
            2: Disk.interior(1, 0.3), 3: Disk.interior(-1, 0.3)}, factor={})
        cert = ping_pong_verify(Representation(F2, [a, b]), disks)
        assert cert.ok == ok
        if not ok:
            assert cert.failures == ["mapping inequality fails for a",
                                     "mapping inequality fails for A"]

    def test_overflowing_disks_are_failures(self):
        # b1 = diag(2, 0.5) with c = 1e-201: its isometric disks overflow
        rep, disks = build("s2-times-z")
        images = list(rep.generator_images())
        images[1] = MoebiusMap(2, 0, 1e-201, 0.5)
        cert = ping_pong_verify(Representation(rep.group, images), disks)
        assert not cert.ok
        assert {"b1 has no isometric disk",
                "B1 has no isometric disk"} <= set(cert.failures)

    def test_elliptic_surface_generator_is_a_failure(self):
        # a1 replaced by a rotation about 0: the circle is fitted through
        # the other generators' fixed points and the checks go on to a1's
        # (absent) isometric disks
        rep, disks = build("s2-times-z")
        images = list(rep.generator_images())
        images[0] = MoebiusMap(cmath.exp(0.1j * math.pi), 0, 0,
                               cmath.exp(-0.1j * math.pi))
        cert = ping_pong_verify(Representation(rep.group, images), disks)
        assert not cert.ok
        assert "surface generator a1 is not loxodromic" in cert.failures
        assert {"a1 has no isometric disk",
                "A1 has no isometric disk"} <= set(cert.failures)
        center, radius = cert.surface_circles[0]
        assert abs(center) < 1e-6 and abs(radius - 1.0) < 1e-9

    @pytest.mark.parametrize("circle", [(1e160 + 0j, 1.0),
                                        (complex(math.nan, 0), math.nan)])
    def test_fitted_circle_not_finite_is_no_circle(self, monkeypatch, circle):
        import sepstab.pingpong as pingpong
        monkeypatch.setattr(pingpong, "_fit_circle", lambda *pts: circle)
        rep, disks = build("s2-times-z")
        cert = ping_pong_verify(rep, disks)
        assert cert.failures == ["no invariant circle for factor 1"]
        assert cert.surface_circles == {}

    def test_disk_count_mismatch(self):
        rep, _ = build("schottky2")
        with pytest.raises(DiskCountMismatch):
            ping_pong_verify(rep, PingPongDisks(
                free={0: Disk.interior(-2, 1)}, factor={}))

    def test_diagnostics_name_disks_as_rep_files_do(self):
        # s2-times-z with t's axis moved to (2, 6): the factor disk meets
        # the disk of T1; a .rep file names them `factor 1` and `T1`
        rep, disks = _surface_with_t((2.0, 6.0))
        assert ping_pong_verify(rep, disks).failures == [
            "disks factor 1 and T1 are not disjoint"]
        with pytest.raises(DiskCountMismatch, match="^no disk for factor 1$"):
            ping_pong_verify(rep, PingPongDisks(free=disks.free, factor={}))

    def test_certificate_attached(self):
        rep, disks = build("schottky2")
        assert disks.certificate is None or disks.certificate.ok
        cert = ping_pong_verify(rep, disks)
        assert disks.certificate is cert

    def test_certificate_is_bound_to_its_representation(self):
        # the disks are certified for the representation object verified
        # with them, and for no other, even one with equal images
        rep, disks = build("schottky2")
        assert ping_pong_verify(rep, disks).rep is rep
        disks.require_verified(rep)
        for other in (build("schottky2")[0], build("s2-times-z")[0]):
            with pytest.raises(UnverifiedDisks,
                               match="another representation"):
                disks.require_verified(other)


class TestOctagon:
    def test_relator_residual(self):
        a1, b1, a2, b2 = octagon_generators()

        def comm(x, y):
            return x * y * x.inverse() * y.inverse()

        rel = comm(a1, b1) * comm(a2, b2)
        assert rel.dist_to_pm_identity() < 1e-10

    def test_generators_preserve_unit_circle(self):
        import cmath
        for m in octagon_generators():
            for k in range(16):
                z = cmath.exp(2j * cmath.pi * k / 16)
                assert abs(abs(m.moebius(z)) - 1) < 1e-12
