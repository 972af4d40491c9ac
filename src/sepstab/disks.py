"""Round disks on the Riemann sphere as hermitian forms.

A region is {z : A|z|^2 + 2 Re(conj(B) z) + C <= 0} with A, C real.  For
A > 0 this is a bounded euclidean disk, for A < 0 the exterior of a circle
(a disk containing infinity), for A = 0 a half-plane.  Möbius maps act on
forms by one congruence, written over real coordinates so that it runs in
floats (``Disk.image``) or in ``mpmath.iv`` intervals (the containment and
disjointness predicates).  The predicates are interval-only: they return
True only when interval arithmetic proves the inequality.
"""

from __future__ import annotations

import math
from typing import Optional

from mpmath import iv

from sepstab.hyperbolic import MoebiusMap


class DiskError(Exception):
    pass


def _congruence(form, m: MoebiusMap, num):
    """Form (A, Bx, By, C) of m(region) for the region with that form.

    The form matrix H = [[A, B], [conj(B), C]] becomes N^H H N with
    N = m^-1, whose float entries are exact; ``num`` (float or iv.mpf)
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


class Disk:
    __slots__ = ("A", "B", "C")

    def __init__(self, A: float, B: complex, C: float):
        # normalize so the circle data is scale-free: |B|^2 - AC = r^2 A^2 > 0
        disc = abs(B) ** 2 - A * C
        if disc <= 0:
            raise DiskError("form does not define a real circle")
        s = math.sqrt(disc)
        self.A = A / s
        self.B = complex(B) / s
        self.C = C / s

    # -- constructors ---------------------------------------------------

    @staticmethod
    def interior(center: complex, radius: float) -> "Disk":
        if radius <= 0:
            raise DiskError("radius must be positive")
        c = complex(center)
        return Disk(1.0, -c, abs(c) ** 2 - radius * radius)

    @staticmethod
    def exterior(center: complex, radius: float) -> "Disk":
        if radius <= 0:
            raise DiskError("radius must be positive")
        c = complex(center)
        return Disk(-1.0, c, radius * radius - abs(c) ** 2)

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
        """True when interval arithmetic proves that m(other), widened by
        margin, lies inside self (m defaults to the identity).

        An uncertain comparison counts as False; a sign of A that cannot be
        proved (a half-plane, or a near one) raises DiskError.
        """
        inner = other._form(iv.mpf)
        if m is not None:
            inner = _congruence(inner, m, iv.mpf)
        bs, xs, ys, rs = _iv_circle(self._form(iv.mpf))
        bo, xo, yo, ro = _iv_circle(inner)
        if bs and not bo:
            return False
        dist = iv.sqrt((xs - xo) ** 2 + (ys - yo) ** 2)
        if bs:
            holds = dist + ro <= rs - margin
        elif bo:
            # an exterior region holds a bounded disk that avoids its circle
            holds = dist >= rs + ro + margin
        else:
            # exterior holds exterior iff the complementary disks nest
            holds = dist + rs <= ro - margin
        return holds is True

    def disjoint_from(self, other: "Disk", margin: float = 0.0) -> bool:
        """other lies in the complement of self, proved as for
        ``contains_disk``."""
        return self.complement().contains_disk(other, margin)

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
