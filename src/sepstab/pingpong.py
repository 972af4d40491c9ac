"""Klein-combination (ping-pong) certificates for reference representations.

Free letters carry a Schottky disk pair; all letters of one surface factor
share a single factor disk.  The verified inequalities:

  * distinct disks are pairwise disjoint, with the slack DISK_MARGIN that
    every disk inequality carries;
  * each letter maps the complement of its inverse's disk strictly into its
    own disk, for bounded and exterior disks alike;
  * surface factors additionally preserve a fitted round circle inside the
    factor disk and have all generator isometric disks inside it, and their
    relator residual must be below 1e-8.

Every disk inequality is proved in interval arithmetic by the one path in
``sepstab.disks``: a mapped region's form is the congruence of the float
matrix, evaluated in intervals, and nothing is sampled.  Only the relator
residual and circle preservation are float tolerances.

A passing certificate witnesses discreteness, faithfulness and the
free-product structure for the letters checked; for surface factors this is
modulo the factor being Fuchsian by construction, which is what the circle
and relator conditions pin down numerically.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Tuple

from sepstab.disks import Disk, DiskError, isometric_disk
from sepstab.groups import GroupSpec, inv
from sepstab.hyperbolic import Representation, classify, fixed_points

DISK_MARGIN = 1e-6        # every disk inequality holds with this slack
RELATOR_RESIDUAL_MAX = 1e-8


class PingPongError(Exception):
    pass


class DiskCountMismatch(PingPongError):
    pass


class UnverifiedDisks(PingPongError):
    pass


@dataclass
class PingPongCertificate:
    ok: bool
    failures: List[str] = field(default_factory=list)
    surface_circles: Dict[int, Tuple[complex, float]] = field(default_factory=dict)


@dataclass
class PingPongDisks:
    """Round disk per generator letter; surface letters share their factor's
    disk, free letters have one disk per sign."""

    free: Dict[int, Disk]          # free letter id -> disk
    factor: Dict[int, Disk]        # surface factor id -> shared disk
    certificate: Optional[PingPongCertificate] = None

    def disk_for_letter(self, group: GroupSpec, letter: int) -> Disk:
        fid = group.letter_factor(letter)
        if group.factors[fid].kind == "surface":
            return self.factor[fid]
        return self.free[letter]

    def distinct_disks(self) -> List[Tuple[str, Disk]]:
        out = [(f"factor{fid}", d) for fid, d in sorted(self.factor.items())]
        out += [(f"letter{lid}", d) for lid, d in sorted(self.free.items())]
        return out

    def require_verified(self):
        if self.certificate is None or not self.certificate.ok:
            raise UnverifiedDisks("ping-pong certificate absent or failing")


# ---------------------------------------------------------------------------
# verification


def _fit_circle(p: complex, q: complex, r: complex):
    """Circle through three points; returns (center, radius) or None."""
    ax, ay, bx, by, cx, cy = p.real, p.imag, q.real, q.imag, r.real, r.imag
    d = 2.0 * (ax * (by - cy) + bx * (cy - ay) + cx * (ay - by))
    if abs(d) < 1e-12:
        return None
    ux = ((ax * ax + ay * ay) * (by - cy) + (bx * bx + by * by) * (cy - ay)
          + (cx * cx + cy * cy) * (ay - by)) / d
    uy = ((ax * ax + ay * ay) * (cx - bx) + (bx * bx + by * by) * (ax - cx)
          + (cx * cx + cy * cy) * (bx - ax)) / d
    center = complex(ux, uy)
    return center, abs(p - center)


def ping_pong_verify(rep: Representation,
                     disks: PingPongDisks) -> PingPongCertificate:
    """Check the Klein-combination inequalities; attaches and returns the
    certificate."""
    group = rep.group
    failures: List[str] = []

    # disk bookkeeping matches the group
    for f in group.factors:
        if f.kind == "surface":
            if f.index not in disks.factor:
                raise DiskCountMismatch(f"no disk for surface factor {f.index}")
        else:
            base = group.gen_base(f.index)
            for lid in (base, base + 1):
                if lid not in disks.free:
                    raise DiskCountMismatch(
                        f"no disk for free letter {group.letter_name(lid)}")
    extra = set(disks.free) - {
        lid for f in group.factors if f.kind == "free"
        for lid in (group.gen_base(f.index), group.gen_base(f.index) + 1)}
    if extra or set(disks.factor) - {
            f.index for f in group.factors if f.kind == "surface"}:
        raise DiskCountMismatch("disks for letters outside the group")

    named = disks.distinct_disks()
    for i, (ni, di) in enumerate(named):
        for nj, dj in named[i + 1:]:
            try:
                if not di.disjoint_from(dj, DISK_MARGIN):
                    failures.append(f"disks {ni} and {nj} are not disjoint")
            except DiskError:
                failures.append(f"disjointness of {ni}, {nj} undecidable")

    # per-letter mapping inequality
    for letter in range(group.n_letters):
        m = rep.image(letter)
        src = disks.disk_for_letter(group, inv(letter))
        tgt = disks.disk_for_letter(group, letter)
        name = group.letter_name(letter)
        try:
            if not tgt.contains_disk(src.complement(), DISK_MARGIN, m):
                failures.append(f"mapping inequality fails for {name}")
        except DiskError:
            failures.append(f"mapping inequality degenerate for {name}")

    # surface-factor conditions
    circles: Dict[int, Tuple[complex, float]] = {}
    residuals = rep.relator_residuals()
    for f in group.factors:
        if f.kind != "surface":
            continue
        fid = f.index
        if residuals[fid] >= RELATOR_RESIDUAL_MAX:
            failures.append(
                f"relator residual {residuals[fid]:.3g} too large for "
                f"factor {fid}")
        letters = list(group.factor_letters(fid))
        # fit the invariant circle through attracting fixed points
        pts = []
        for lid in letters[::2]:
            mm = rep.image(lid)
            if classify(mm) != "loxodromic":
                failures.append(
                    f"surface generator {group.letter_name(lid)} is not "
                    f"loxodromic")
                continue
            fp = fixed_points(mm)[-1]
            if fp is not None:
                pts.append(fp)
        circle = _fit_circle(*pts[:3]) if len(pts) >= 3 else None
        if circle is None:
            failures.append(f"no invariant circle for factor {fid}")
            continue
        center, radius = circle
        circles[fid] = (center, radius)
        fdisk = disks.factor[fid]
        if not fdisk.bounded:
            failures.append(f"factor {fid} disk must be bounded")
            continue
        circle_disk = Disk.interior(center, radius)
        if not fdisk.contains_disk(circle_disk, DISK_MARGIN):
            failures.append(f"invariant circle not inside factor {fid} disk")
        # generators preserve the circle and their isometric disks fit
        for lid in letters:
            mm = rep.image(lid)
            try:
                moved = circle_disk.image(mm)
                worst = abs(moved.center - center) + abs(moved.radius - radius)
            except DiskError:  # the image is a line
                worst = float("inf")
            if worst > 1e-9 * max(1.0, radius):
                failures.append(
                    f"{group.letter_name(lid)} moves the invariant circle "
                    f"by {worst:.3g}")
            try:
                idisk = isometric_disk(mm)
            except DiskError:
                failures.append(
                    f"{group.letter_name(lid)} has no isometric disk")
                continue
            if not fdisk.contains_disk(idisk, DISK_MARGIN):
                failures.append(
                    f"isometric disk of {group.letter_name(lid)} leaves "
                    f"factor {fid} disk")

    cert = PingPongCertificate(ok=not failures, failures=failures,
                               surface_circles=circles)
    disks.certificate = cert
    return cert
