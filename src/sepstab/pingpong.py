"""Klein-combination (ping-pong) certificates for reference representations.

Free letters carry a Schottky disk pair; all letters of one surface factor
share a single factor disk.  The verified inequalities:

  * distinct disks are pairwise disjoint, with the slack DISK_MARGIN that
    every disk inequality carries;
  * each letter maps the complement of its inverse's disk strictly into its
    own disk, for bounded and exterior disks alike;
  * surface factors additionally preserve a fitted round circle inside the
    factor disk and have all generator isometric disks inside it, and their
    relator residual must be below ``hyperbolic.RELATOR_RESIDUAL_MAX``
    (1e-8), the bound that also makes the stability sweep's verdict
    inconclusive.

Every disk inequality is proved in exact rational arithmetic by the one
path in ``sepstab.disks``: a mapped region's form is the congruence of the
float matrix, evaluated on the floats' rational values, and nothing is
sampled.  Every disk is built and compared inside ``DiskError`` handling:
a disk or inequality that raises it (a half-plane, an imaginary circle, a
non-finite entry, a form too large for floats) is recorded as a failure.
Only the relator residual and circle preservation are float tolerances.

A passing certificate witnesses discreteness, faithfulness and the
free-product structure for the letters checked; for surface factors this is
modulo the factor being Fuchsian by construction, which is what the circle
and relator conditions pin down numerically.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Tuple

from sepstab.disks import Disk, DiskError, isometric_disk
from sepstab.groups import GroupSpec, inv
from sepstab.hyperbolic import (RELATOR_RESIDUAL_MAX, Representation,
                                classify, fixed_points)

DISK_MARGIN = 1e-6        # every disk inequality holds with this slack


class PingPongError(Exception):
    pass


class DiskCountMismatch(PingPongError):
    pass


class UnverifiedDisks(PingPongError):
    pass


class PingPongCertificate:
    """The outcome of ``ping_pong_verify`` for one representation, which it
    records: the disks are certified for that object alone."""

    def __init__(self, rep: Representation, ok: bool,
                 failures: Optional[List[str]] = None,
                 surface_circles: Optional[
                     Dict[int, Tuple[complex, float]]] = None):
        self.rep = rep
        self.ok = ok
        self.failures = [] if failures is None else failures
        self.surface_circles = ({} if surface_circles is None
                                else surface_circles)


def disk_name(group: GroupSpec, letter: int) -> str:
    """The name a .rep file gives the disk of ``letter``: ``factor k`` for
    a letter of the k-th surface factor, the letter's own name otherwise."""
    fid = group.letter_factor(letter)
    if fid < group.n_surface:
        return f"factor {fid + 1}"
    return group.letter_name(letter)


class PingPongDisks:
    """Round disk per generator letter; surface letters share their factor's
    disk, free letters have one disk per sign."""

    def __init__(self, free: Dict[int, Disk], factor: Dict[int, Disk]):
        self.free = free          # free letter id -> disk
        self.factor = factor      # surface factor id -> shared disk
        # set by ping_pong_verify
        self.certificate: Optional[PingPongCertificate] = None

    def disk_for_letter(self, group: GroupSpec, letter: int) -> Disk:
        fid = group.letter_factor(letter)
        if fid < group.n_surface:
            return self.factor[fid]
        return self.free[letter]

    def distinct_disks(self, group: GroupSpec) -> List[Tuple[str, Disk]]:
        """(name, disk) per disk, factor disks first, in .rep file order."""
        out = [(disk_name(group, group.gen_base(fid)), d)
               for fid, d in sorted(self.factor.items())]
        out += [(disk_name(group, lid), d)
                for lid, d in sorted(self.free.items())]
        return out

    def require_verified(self, rep: Representation):
        """Raise ``UnverifiedDisks`` unless a passing certificate was made
        for these disks and this representation object."""
        cert = self.certificate
        if cert is None or not cert.ok:
            raise UnverifiedDisks("ping-pong certificate absent or failing")
        if cert.rep is not rep:
            raise UnverifiedDisks(
                "ping-pong certificate made for another representation")


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


def check_disk_layout(group: GroupSpec, disks: PingPongDisks):
    """Raise ``DiskCountMismatch`` unless there is exactly one disk per
    surface factor and one per free letter and per inverse."""
    surface_fids = range(group.n_surface)
    free_letters = range(group.gen_base(group.n_surface), group.n_letters)
    for fid in surface_fids:
        if fid not in disks.factor:
            raise DiskCountMismatch(
                f"no disk for {disk_name(group, group.gen_base(fid))}")
    for lid in free_letters:
        if lid not in disks.free:
            raise DiskCountMismatch(
                f"no disk for free letter {disk_name(group, lid)}")
    if set(disks.free) - set(free_letters) or \
            set(disks.factor) - set(surface_fids):
        raise DiskCountMismatch("disks for letters outside the group")


def _require(failures: List[str], outer: Disk, inner: Disk, fails: str,
             undecided: str, m=None):
    """Record ``fails`` unless outer proves it contains m(inner) with the
    slack DISK_MARGIN, and ``undecided`` when the forms raise DiskError."""
    try:
        if not outer.contains_disk(inner, DISK_MARGIN, m):
            failures.append(fails)
    except DiskError:
        failures.append(undecided)


def ping_pong_verify(rep: Representation,
                     disks: PingPongDisks) -> PingPongCertificate:
    """Check the Klein-combination inequalities; attaches and returns the
    certificate."""
    group = rep.group
    failures: List[str] = []
    check_disk_layout(group, disks)

    named = disks.distinct_disks(group)
    for i, (ni, di) in enumerate(named):
        for nj, dj in named[i + 1:]:
            _require(failures, di.complement(), dj,
                     f"disks {ni} and {nj} are not disjoint",
                     f"disjointness of {ni}, {nj} undecidable")

    # per-letter mapping inequality
    for letter in range(group.n_letters):
        src = disks.disk_for_letter(group, inv(letter))
        tgt = disks.disk_for_letter(group, letter)
        name = group.letter_name(letter)
        _require(failures, tgt, src.complement(),
                 f"mapping inequality fails for {name}",
                 f"mapping inequality degenerate for {name}",
                 rep.image(letter))

    # surface-factor conditions
    circles: Dict[int, Tuple[complex, float]] = {}
    residuals = rep.relator_residuals()
    for fid in range(group.n_surface):
        letters = list(group.factor_letters(fid))
        fname = disk_name(group, letters[0])
        if not residuals[fid] < RELATOR_RESIDUAL_MAX:
            failures.append(
                f"relator residual {residuals[fid]:.3g} too large for "
                f"{fname}")
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
        try:
            circle_disk = Disk.interior(*circle) if circle else None
        except DiskError:  # a fitted circle that is not finite in floats
            circle_disk = None
        if circle_disk is None:
            failures.append(f"no invariant circle for {fname}")
            continue
        center, radius = circle
        circles[fid] = (center, radius)
        fdisk = disks.factor[fid]
        if not fdisk.bounded:
            failures.append(f"{fname} disk must be bounded")
            continue
        _require(failures, fdisk, circle_disk,
                 f"invariant circle not inside {fname} disk",
                 f"invariant circle in {fname} disk undecidable")
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
            _require(failures, fdisk, idisk,
                     f"isometric disk of {group.letter_name(lid)} leaves "
                     f"{fname} disk",
                     f"isometric disk of {group.letter_name(lid)} in "
                     f"{fname} disk undecidable")

    cert = PingPongCertificate(rep, ok=not failures, failures=failures,
                               surface_circles=circles)
    disks.certificate = cert
    return cert
