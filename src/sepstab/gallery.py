"""Built-in reference representations.

schottky2        rank-2 Schottky group with verified ping-pong disks
fuchsian-genus2  regular-octagon genus-2 surface group, Klein-combined with
                 one distant free letter (a lone surface group is not a
                 valid group spec here)
s2-times-z       pi_1(S_2) * Z Klein combination used by the sampled
                 Whitehead-graph construction
pinched-a        schottky2 with the first generator replaced by a parabolic
"""

from __future__ import annotations

import cmath
import math
from typing import Dict, Tuple

from sepstab.disks import Disk, isometric_disk
from sepstab.groups import GroupSpec
from sepstab.hyperbolic import MoebiusMap, Representation, loxodromic_with_axis
from sepstab.pingpong import PingPongDisks

DISK_GROW = 1.1


def _three_point(p, q) -> MoebiusMap:
    """Unique Möbius map sending p = (p1,p2,p3) to q = (q1,q2,q3)."""
    def std(t):
        t1, t2, t3 = t
        return MoebiusMap(t2 - t3, -t1 * (t2 - t3), t2 - t1, -t3 * (t2 - t1))
    return std(q).inverse() * std(p)


def octagon_generators() -> Tuple[MoebiusMap, MoebiusMap, MoebiusMap, MoebiusMap]:
    """Side pairings of the regular hyperbolic octagon with angle sum 2*pi,
    acting on the unit disk, satisfying [a1,b1][a2,b2] = +-I to ~1e-13.

    The octagon has vertices at hyperbolic radius arccosh(cot^2(pi/8)); the
    pairing identifies side k+2 with side k reversing boundary orientation,
    and (a1, b1, a2, b2) = (g0, g1^-1, g4, g5^-1) spells the standard
    relator (checked numerically at construction time and in the tests).
    """
    cosh_r = 1.0 / math.tan(math.pi / 8) ** 2
    r_e = math.tanh(math.acosh(cosh_r) / 2.0)
    verts = [r_e * cmath.exp(1j * math.pi * (2 * k + 1) / 8) for k in range(8)]

    def midpoint(k: int) -> complex:
        p, q = verts[(k - 1) % 8], verts[k % 8]
        a1, b1, r1 = 2 * p.real, 2 * p.imag, abs(p) ** 2 + 1
        a2, b2, r2 = 2 * q.real, 2 * q.imag, abs(q) ** 2 + 1
        det = a1 * b2 - a2 * b1
        c = complex((r1 * b2 - r2 * b1) / det, (a1 * r2 - a2 * r1) / det)
        rad = math.sqrt(abs(c) ** 2 - 1)
        return c - rad * c / abs(c)

    mids = [midpoint(k) for k in range(8)]

    def pairing(k: int) -> MoebiusMap:
        src = (verts[(k + 1) % 8], mids[(k + 2) % 8], verts[(k + 2) % 8])
        dst = (verts[k % 8], mids[k % 8], verts[(k - 1) % 8])
        return _three_point(src, dst)

    return (pairing(0), pairing(1).inverse(),
            pairing(4), pairing(5).inverse())


def _schottky_pair():
    a = loxodromic_with_axis(-8.0, -2.0, 5.0)
    b = loxodromic_with_axis(2.0, 8.0, 5.0)
    return a, b


def _schottky_disks(rep: Representation) -> PingPongDisks:
    free: Dict[int, Disk] = {}
    for letter in range(rep.group.n_letters):
        m = rep.image(letter)
        idisk = isometric_disk(m.inverse())
        free[letter] = Disk.interior(idisk.center, idisk.radius * DISK_GROW)
    return PingPongDisks(free=free, factor={})


def schottky2() -> Tuple[Representation, PingPongDisks]:
    group = GroupSpec((), 2)
    rep = Representation(group, list(_schottky_pair()))
    return rep, _schottky_disks(rep)


def pinched_a() -> Tuple[Representation, PingPongDisks]:
    group = GroupSpec((), 2)
    _, b = _schottky_pair()
    rep = Representation(group, [MoebiusMap(1, 1, 0, 1), b])
    # same disk layout as schottky2; verification fails on the parabolic
    good, _ = schottky2()
    return rep, _schottky_disks(good)


def _surface_with_t(t_axis: Tuple[float, float]):
    group = GroupSpec((2,), 1)
    a1, b1, a2, b2 = octagon_generators()
    t = loxodromic_with_axis(t_axis[0], t_axis[1], 4.0)
    rep = Representation(group, [a1, b1, a2, b2, t])
    t_letter = group.gen_base(1)
    it, iti = isometric_disk(t), isometric_disk(t.inverse())
    disks = PingPongDisks(
        free={t_letter: Disk.interior(iti.center, iti.radius * DISK_GROW),
              t_letter + 1: Disk.interior(it.center, it.radius * DISK_GROW)},
        factor={0: Disk.interior(0.0, 1.9)},
    )
    return rep, disks


def s2_times_z() -> Tuple[Representation, PingPongDisks]:
    return _surface_with_t((6.0, 10.0))


def fuchsian_genus2() -> Tuple[Representation, PingPongDisks]:
    return _surface_with_t((20.0, 24.0))


BUILDERS = {
    "schottky2": schottky2,
    "fuchsian-genus2": fuchsian_genus2,
    "s2-times-z": s2_times_z,
    "pinched-a": pinched_a,
}


def build(name: str):
    try:
        builder = BUILDERS[name]
    except KeyError:
        raise KeyError(f"unknown example {name!r}; "
                       f"choices: {', '.join(sorted(BUILDERS))}")
    return builder()
