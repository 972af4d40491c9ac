"""PSL(2,C) elements, upper-half-space geometry and representation
evaluation.

Double precision with explicit tolerances: matrix equality up to sign at
1e-9, determinant normalization drift bounded at 1e-12.  Long products
renormalize the determinant every 16 multiplications so depth sweeps stay
within budget.  A surface relator whose image lies RELATOR_RESIDUAL_MAX or
farther from +-I makes the matrices no representation of the group.
"""

from __future__ import annotations

import cmath
import math
from typing import Iterable, Optional

from sepstab import groups
from sepstab.groups import GroupSpec, LetterOutOfRange, Word

EQ_TOL = 1e-9
DET_TOL = 1e-12
RENORM_EVERY = 16
RELATOR_RESIDUAL_MAX = 1e-8  # a larger relator residual is no representation


class HyperbolicError(Exception):
    pass


class IdentityMap(HyperbolicError):
    pass


class MoebiusMap:
    """An element (a, b; c, d) of PSL(2,C), normalized to determinant 1.

    Equality is only meaningful up to global sign.
    """

    __slots__ = ("a", "b", "c", "d")

    def __init__(self, a, b, c, d, normalize: bool = True):
        if normalize:
            det = a * d - b * c
            if det == 0:
                raise HyperbolicError("singular matrix")
            if not cmath.isfinite(det):
                raise HyperbolicError("determinant is not finite")
            s = cmath.sqrt(det)
            a, b, c, d = a / s, b / s, c / s, d / s
        self.a = complex(a)
        self.b = complex(b)
        self.c = complex(c)
        self.d = complex(d)

    @staticmethod
    def identity() -> "MoebiusMap":
        return MoebiusMap(1, 0, 0, 1, normalize=False)

    def det(self) -> complex:
        return self.a * self.d - self.b * self.c

    def __mul__(self, other: "MoebiusMap") -> "MoebiusMap":
        return MoebiusMap(
            self.a * other.a + self.b * other.c,
            self.a * other.b + self.b * other.d,
            self.c * other.a + self.d * other.c,
            self.c * other.b + self.d * other.d,
            normalize=False,
        )

    def inverse(self) -> "MoebiusMap":
        return MoebiusMap(self.d, -self.b, -self.c, self.a, normalize=False)

    def det_noise(self) -> float:
        """Noise floor of the computed determinant: for entries of
        magnitude M it carries a cancellation error ~M^2 * eps."""
        s2 = (abs(self.a) ** 2 + abs(self.b) ** 2 + abs(self.c) ** 2
              + abs(self.d) ** 2)
        return 16.0 * s2 * 2.3e-16

    def renormalized(self) -> "MoebiusMap":
        """Rescale to determinant 1 when that is numerically meaningful.

        A deviation below ``det_noise`` must not be "corrected" (dividing
        by its square root would scale the entries by noise).  Deviations
        within the 1e-12 budget are also left untouched to keep entries
        bit-stable.  The true determinant of a product of unit-determinant
        factors only drifts multiplicatively by ~eps per factor, so
        skipping is always safe.
        """
        deviation = abs(self.det() - 1.0)
        if deviation <= DET_TOL or deviation <= self.det_noise():
            return self
        return MoebiusMap(self.a, self.b, self.c, self.d, normalize=True)

    def trace(self) -> complex:
        return self.a + self.d

    def eq_up_to_sign(self, other: "MoebiusMap") -> bool:
        """Entrywise equality up to global sign, relative to entry size."""
        plus = max(abs(self.a - other.a), abs(self.b - other.b),
                   abs(self.c - other.c), abs(self.d - other.d))
        minus = max(abs(self.a + other.a), abs(self.b + other.b),
                    abs(self.c + other.c), abs(self.d + other.d))
        scale = max(1.0, abs(self.a), abs(self.b), abs(self.c), abs(self.d))
        return min(plus, minus) <= EQ_TOL * scale

    def is_identity(self) -> bool:
        return self.eq_up_to_sign(MoebiusMap.identity())

    def moebius(self, z: Optional[complex]) -> Optional[complex]:
        """Boundary action on C u {inf}; None encodes inf."""
        if z is None:
            if abs(self.c) == 0:
                return None
            return self.a / self.c
        denom = self.c * z + self.d
        if abs(denom) == 0:
            return None
        return (self.a * z + self.b) / denom

    def dist_to_pm_identity(self) -> float:
        """Operator-norm distance to the closer of +-identity."""
        one = MoebiusMap.identity()
        dplus = _op_norm_diff(self, one, +1)
        dminus = _op_norm_diff(self, one, -1)
        return min(dplus, dminus)

    def __repr__(self):
        return (f"MoebiusMap({self.a:.6g}, {self.b:.6g}; "
                f"{self.c:.6g}, {self.d:.6g})")


def _op_norm_diff(m: MoebiusMap, n: MoebiusMap, sign: int) -> float:
    a = m.a - sign * n.a
    b = m.b - sign * n.b
    c = m.c - sign * n.c
    d = m.d - sign * n.d
    t = abs(a) ** 2 + abs(b) ** 2 + abs(c) ** 2 + abs(d) ** 2
    det = a * d - b * c
    disc = max(t * t - 4.0 * abs(det) ** 2, 0.0)
    return math.sqrt(max((t + math.sqrt(disc)) / 2.0, 0.0))


# ---------------------------------------------------------------------------
# classification and translation length

PARABOLIC_TOL = 1e-9


def classify(m: MoebiusMap) -> str:
    """'identity' | 'elliptic' | 'parabolic' | 'loxodromic' by tr^2."""
    if m.is_identity():
        return "identity"
    tr2 = m.trace() ** 2
    if abs(tr2 - 4.0) <= PARABOLIC_TOL:
        return "parabolic"
    if abs(tr2.imag) <= PARABOLIC_TOL and 0.0 <= tr2.real < 4.0:
        return "elliptic"
    return "loxodromic"


def translation_length(m: MoebiusMap, kind: Optional[str] = None) -> float:
    """Real translation length; 0 for identity/parabolic/elliptic.

    ``kind`` is ``classify(m)`` when the caller already has it.
    """
    if (classify(m) if kind is None else kind) != "loxodromic":
        return 0.0
    return 2.0 * abs(cmath.acosh(m.trace() / 2.0).real)


def fixed_points(m: MoebiusMap):
    """Fixed points on C u {inf} (None = inf).

    Loxodromic: returns (repelling, attracting); parabolic: a 1-tuple.
    """
    if m.is_identity():
        raise IdentityMap("every point is fixed")
    if abs(m.c) <= 1e-15:
        if abs(m.d - m.a) <= 1e-15:
            return (None,)
        other = m.b / (m.d - m.a)
        return _order_fixed(m, (None, other))
    # c z^2 + (d - a) z - b = 0
    disc = cmath.sqrt((m.d - m.a) ** 2 + 4.0 * m.b * m.c)
    z1 = (-(m.d - m.a) + disc) / (2.0 * m.c)
    z2 = (-(m.d - m.a) - disc) / (2.0 * m.c)
    if abs(z1 - z2) <= 1e-14:
        return (z1,)
    return _order_fixed(m, (z1, z2))


def _order_fixed(m: MoebiusMap, pts):
    """Order a fixed pair as (repelling, attracting).

    |m'(z)| = |cz + d|^-2, so the repelling point has the smaller |cz + d|.
    Infinity is returned only when |c| is negligible, and there the
    stand-in is |a| (m' = a^-2 in the chart 1/z when c == 0).  Nothing is
    divided, so a float root at which cz + d rounds to 0 is ordered as
    well.
    """
    def size(z: Optional[complex]) -> float:
        if z is None:
            return abs(m.a)
        return abs(m.c * z + m.d)

    return pts if size(pts[0]) < size(pts[1]) else (pts[1], pts[0])


# ---------------------------------------------------------------------------
# upper half-space


class H3Point:
    """Point (z, t) of upper half-space, t > 0."""

    __slots__ = ("z", "t")

    def __init__(self, z: complex, t: float):
        if not t > 0:
            raise HyperbolicError("height must be positive")
        self.z = complex(z)
        self.t = float(t)

    def __repr__(self):
        return f"H3Point({self.z:.6g}, {self.t:.6g})"


def dist(p: H3Point, q: H3Point) -> float:
    dz = abs(p.z - q.z)
    dt = p.t - q.t
    arg = 1.0 + (dz * dz + dt * dt) / (2.0 * p.t * q.t)
    return math.acosh(max(arg, 1.0))


def apply(m: MoebiusMap, p: H3Point) -> H3Point:
    """Poincare extension of the boundary action, closed form.

    The formula assumes determinant 1; products built from normalized
    generators satisfy that to within the drift budget even when their
    entries are too large for the determinant to be recomputed.
    """
    cz_d = m.c * p.z + m.d
    denom = abs(cz_d) ** 2 + abs(m.c) ** 2 * p.t * p.t
    z = ((m.a * p.z + m.b) * cz_d.conjugate()
         + m.a * m.c.conjugate() * p.t * p.t) / denom
    t = p.t / denom
    return H3Point(z, t)


# ---------------------------------------------------------------------------
# representations


class Representation:
    """Generator -> MoebiusMap assignment for a GroupSpec.

    Faithfulness and discreteness are never assumed; they are what the
    ping-pong certificate and stability checks probe.
    """

    def __init__(self, group: GroupSpec, images: Iterable[MoebiusMap]):
        images = list(images)
        n_gens = group.n_letters // 2
        if len(images) != n_gens:
            raise HyperbolicError(
                f"expected {n_gens} generator images, got {len(images)}")
        self.group = group
        self._pos = [m.renormalized() for m in images]
        self._neg = [m.inverse() for m in self._pos]
        self._conj = None  # (h, h^-1, base rep) when built by conjugated()

    def image(self, letter: int) -> MoebiusMap:
        if not 0 <= letter < self.group.n_letters:
            raise LetterOutOfRange(f"letter {letter}")
        base, sign = divmod(letter, 2)
        return self._neg[base] if sign else self._pos[base]

    def generator_images(self):
        return list(self._pos)

    def evaluate(self, word: Word) -> MoebiusMap:
        """Ordered product of generator images of the freely reduced word.

        Free reduction first keeps trivial excursions (w * w^-1) exact;
        genuinely long products renormalize periodically while the
        determinant is still well-conditioned.  A conjugated representation
        evaluates through its base and conjugates once at the end, which
        preserves the interior cancellations h^-1 h = 1 exactly.
        """
        if self._conj is not None:
            h, hinv, base_rep = self._conj
            return (h * base_rep.evaluate(word) * hinv).renormalized()
        out = MoebiusMap.identity()
        for i, x in enumerate(groups.free_reduce(word)):
            out = out * self.image(x)
            if (i + 1) % RENORM_EVERY == 0:
                out = out.renormalized()
        return out.renormalized()

    def relator_residuals(self) -> dict:
        """Operator-norm distance of each surface relator image from +-I;
        at or above RELATOR_RESIDUAL_MAX the images break the relator.  A
        relator whose product overflows floats has residual inf."""
        out = {}
        for fid in range(self.group.n_surface):
            try:
                m = self.evaluate(self.group.relator(fid))
                out[fid] = m.dist_to_pm_identity()
            except (HyperbolicError, OverflowError):
                out[fid] = math.inf
        return out

    def conjugated(self, h: MoebiusMap) -> "Representation":
        h = MoebiusMap(h.a, h.b, h.c, h.d)  # unit determinant keeps the
        hinv = h.inverse()                  # conjugation well-conditioned
        out = Representation(self.group,
                             [h * m * hinv for m in self._pos])
        out._conj = (h, hinv, self)
        return out


def loxodromic_with_axis(p: complex, q: complex, lam: float) -> MoebiusMap:
    """Translation with repelling fixed point p, attracting q and
    multiplier lam**2 (translation length 2*log(lam))."""
    if not 1.0 < lam < math.inf:
        raise HyperbolicError(f"need 1 < lam < inf, got lam = {lam!r}")
    # conjugate diag(lam, 1/lam) by h: 0 -> p, inf -> q
    # h = (q z + p) / (z + 1), det = q - p
    s = q - p
    if abs(s) == 0:
        raise HyperbolicError("axis endpoints coincide")
    ilam = 1.0 / lam
    a = (q * lam - p * ilam) / s
    b = p * q * (ilam - lam) / s
    c = (lam - ilam) / s
    d = (q * ilam - p * lam) / s
    return MoebiusMap(a, b, c, d)
