"""Round disks on the Riemann sphere as hermitian forms.

A region is {z : A|z|^2 + 2 Re(conj(B) z) + C <= 0} with A, C real.  For
A > 0 this is a bounded euclidean disk, for A < 0 the exterior of a circle
(a disk containing infinity), for A = 0 a half-plane.  An exterior region
is built as the complement of a bounded one,
``Disk.interior(c, r).complement()``, and "other is disjoint from d" is
``d.complement().contains_disk(other, margin)``.  Möbius maps act on
forms by one congruence, written over real coordinates so that it runs in
floats (``Disk.image``) or in exact rationals (``Disk.contains_disk``).
Every finite float is a rational, so the containment predicate lifts the
float forms and maps to ``fractions.Fraction`` and decides the sign of A,
the reality of the circle and the disk inequality exactly; it returns
True only when the inequality is proved.  A disk whose normalised float
form overflows is refused with ``DiskError``.
"""

from __future__ import annotations

import cmath
import math
from fractions import Fraction
from typing import Optional

from sepstab.hyperbolic import MoebiusMap


class DiskError(Exception):
    pass


def _congruence(form, m: MoebiusMap, num):
    """Form (A, Bx, By, C) of m(region) for the region with that form.

    The form matrix H = [[A, B], [conj(B), C]] becomes N^H H N with
    N = m^-1, whose float entries are exact; ``num`` (float or ``_exact``)
    lifts them, and the form's entries must already be of that kind.
    """
    A, Bx, By, C = form
    inv = m.inverse()
    ax, ay, bx, by, cx, cy, dx, dy = (
        num(t) for z in (inv.a, inv.b, inv.c, inv.d) for t in (z.real, z.imag))

    def h(p1x, p1y, p2x, p2y, q1x, q1y, q2x, q2y):
        # conj(p1) (A q1 + B q2) + conj(p2) (conj(B) q1 + C q2)
        ux = A * q1x + Bx * q2x - By * q2y
        uy = A * q1y + Bx * q2y + By * q2x
        vx = Bx * q1x + By * q1y + C * q2x
        vy = Bx * q1y - By * q1x + C * q2y
        return (p1x * ux + p1y * uy + p2x * vx + p2y * vy,
                p1x * uy - p1y * ux + p2x * vy - p2y * vx)

    A2 = h(ax, ay, cx, cy, ax, ay, cx, cy)[0]
    B2x, B2y = h(ax, ay, cx, cy, bx, by, dx, dy)
    C2 = h(bx, by, dx, dy, bx, by, dx, dy)[0]
    return A2, B2x, B2y, C2


def _exact(x: float) -> Fraction:
    """The rational value of a finite float."""
    if not math.isfinite(x):
        raise DiskError(f"form entry {x} is not finite")
    return Fraction(x)


def _circle(form):
    """(bounded, cx, cy, r^2) of an exact form: the sign of A, the centre
    and the squared radius, all exact."""
    A, Bx, By, C = form
    if A == 0:
        raise DiskError("form is a half-plane")
    disc = Bx * Bx + By * By - A * C
    if disc <= 0:
        raise DiskError("form does not define a real circle")
    return A > 0, -Bx / A, -By / A, disc / (A * A)


SQRT_BITS = 64   # relative precision of the square-root brackets


def _sqrt_bracket(q: Fraction):
    """(lo, hi) with lo <= sqrt(q) < hi and hi - lo <= 2^(1 - SQRT_BITS) lo
    for a rational q > 0, and (0, 0) for q = 0.

    Write q = n/d in lowest terms, so sqrt(q) = sqrt(N)/d with N = n d.
    With e the bit length of N and j = floor((e - 2P) / 2) (P = SQRT_BITS;
    j may be negative), let M = floor(N / 4^j) and s = isqrt(M).  Then
    s^2 <= M <= N / 4^j gives s 2^j <= sqrt(N), and (s + 1)^2 >= M + 1 >
    N / 4^j gives (s + 1) 2^j > sqrt(N): the bracket is s 2^j / d and
    (s + 1) 2^j / d.  Since 2j <= e - 2P and N >= 2^(e-1), M >= 2^(2P-1)
    and s >= 2^(P-1), so hi / lo - 1 = 1 / s <= 2^(1-P).
    """
    n, d = q.numerator, q.denominator
    if n == 0:
        return q, q
    N = n * d
    j = (N.bit_length() - 2 * SQRT_BITS) // 2
    if j >= 0:
        s = math.isqrt(N >> 2 * j)
        return Fraction(s << j, d), Fraction((s + 1) << j, d)
    s = math.isqrt(N << -2 * j)
    return Fraction(s, d << -j), Fraction(s + 1, d << -j)


def _proved(small, margin: Fraction, big) -> bool:
    """Whether sum(sqrt(small)) + margin <= sum(sqrt(big)) is proved from
    the brackets: the upper ends on the left against the lower ends on the
    right.  Some term on the left is a positive squared radius, whose upper
    end is strictly above its root, so a tie is never proved."""
    left = sum(_sqrt_bracket(q)[1] for q in small) + margin
    return left <= sum(_sqrt_bracket(q)[0] for q in big)


_TOO_LARGE = "disk too large for its circle form in floats"


def _abs_squared(z: complex) -> float:
    """|z|^2, raising DiskError where it overflows."""
    try:
        return abs(z) ** 2
    except OverflowError:
        raise DiskError(_TOO_LARGE) from None


class Disk:
    __slots__ = ("A", "B", "C")

    def __init__(self, A: float, B: complex, C: float):
        """The region of the form (A, B, C), normalised; DiskError when it
        has no real circle or when the normalised form is not finite in
        floats."""
        # normalize so the circle data is scale-free: |B|^2 - AC = r^2 A^2 > 0
        disc = _abs_squared(B) - A * C
        if disc <= 0:
            raise DiskError("form does not define a real circle")
        s = math.sqrt(disc)
        self.A = A / s
        self.B = complex(B) / s
        self.C = C / s
        if not (math.isfinite(self.A) and cmath.isfinite(self.B)
                and math.isfinite(self.C)):
            raise DiskError(_TOO_LARGE)

    # -- constructors ---------------------------------------------------

    @staticmethod
    def interior(center: complex, radius: float) -> "Disk":
        if radius <= 0:
            raise DiskError("radius must be positive")
        c = complex(center)
        return Disk(1.0, -c, _abs_squared(c) - radius * radius)

    def complement(self) -> "Disk":
        """The closure of the complementary region: the negated form,
        exactly (no renormalization)."""
        out = object.__new__(Disk)
        out.A, out.B, out.C = -self.A, -self.B, -self.C
        return out

    # -- geometry -------------------------------------------------------

    @property
    def bounded(self) -> bool:
        return self.A > 0

    @property
    def center(self) -> complex:
        if self.A == 0:
            raise DiskError("half-plane has no center")
        return -self.B / self.A

    @property
    def radius(self) -> float:
        if self.A == 0:
            raise DiskError("half-plane has no radius")
        return math.sqrt(abs(self.B) ** 2 - self.A * self.C) / abs(self.A)

    def value(self, z: Optional[complex]) -> float:
        """Signed form value; negative inside.  None encodes infinity, where
        the sign of A decides membership."""
        if z is None:
            return self.A
        return (self.A * (z.real * z.real + z.imag * z.imag)
                + 2.0 * (self.B.conjugate() * z).real + self.C)

    def _form(self, num):
        return num(self.A), num(self.B.real), num(self.B.imag), num(self.C)

    def image(self, m: MoebiusMap) -> "Disk":
        """The region m(disk), in floats."""
        A2, B2x, B2y, C2 = _congruence(self._form(float), m, float)
        return Disk(A2, complex(B2x, B2y), C2)

    def contains_disk(self, other: "Disk", margin: float = 0.0,
                      m: Optional[MoebiusMap] = None) -> bool:
        """True when exact rational arithmetic proves that m(other), widened
        by margin, lies inside self (m defaults to the identity).

        The inequality is decided on the rational values of the float
        forms and of m^-1; a tie or an unproved comparison counts as False.
        An exact half-plane, a form without a real circle or a non-finite
        entry raises DiskError.
        """
        inner = other._form(_exact)
        if m is not None:
            inner = _congruence(inner, m, _exact)
        bs, xs, ys, rs = _circle(self._form(_exact))
        bo, xo, yo, ro = _circle(inner)
        if bs and not bo:
            return False
        dist = (xs - xo) ** 2 + (ys - yo) ** 2
        margin = _exact(margin)
        if bs:
            return _proved((dist, ro), margin, (rs,))
        if bo:
            # an exterior region holds a bounded disk that avoids its circle
            return _proved((rs, ro), margin, (dist,))
        # exterior holds exterior iff the complementary disks nest
        return _proved((dist, rs), margin, (ro,))

    def __repr__(self):
        if self.A == 0:
            return f"Disk(half-plane B={self.B:.4g}, C={self.C:.4g})"
        kind = "interior" if self.bounded else "exterior"
        return f"Disk({kind} center={self.center:.6g}, radius={self.radius:.6g})"


def isometric_disk(m: MoebiusMap) -> Disk:
    """Interior of the isometric circle |cz + d| = 1 (requires c != 0)."""
    if abs(m.c) == 0:
        raise DiskError("isometric circle undefined for c = 0")
    return Disk.interior(-m.d / m.c, 1.0 / abs(m.c))
