"""Plain-text representation files.

Structured text, hand-editable, with three blocks:

    group
      surface 2          # one line per surface factor: its genus
      free 1             # number of infinite-cyclic factors
    generators
      a1 = (a_re, a_im) (b_re, b_im) (c_re, c_im) (d_re, d_im)
      ...
    disks                # optional ping-pong data
      factor 1 center (x, y) radius r   # one per surface factor
      t1 center (x, y) radius r         # one per free letter
      T1 center (x, y) radius r         # and one per inverse
    meta                 # optional free-form key value lines
      name example

Numbers are emitted with repr(float), which round-trips exactly, so
parse -> emit -> parse is the identity.  Unknown or repeated sections
and keys, non-finite numbers, non-positive radii, non-integer genera or
ranks, groups that GroupSpec refuses and a disk block that misses a disk
or has one for a letter it does not cover are rejected with a
line/column diagnostic.  Only bounded disks can be written.  A generator
matrix is rejected when its determinant is off one by more than 1e-6
plus the rounding noise of its entries (``MoebiusMap.det_noise``), or
when its entries are too large for that check to be computed in floats;
otherwise its entries are kept as written and ``Representation``
renormalizes them under its own rule, so the round trip is exact.
"""

from __future__ import annotations

import math
import re
from typing import Dict, List, Optional, Tuple

from sepstab.disks import Disk, DiskError
from sepstab.groups import GroupError, GroupSpec, LetterOutOfRange
from sepstab.hyperbolic import MoebiusMap, Representation
from sepstab.pingpong import (DiskCountMismatch, PingPongDisks,
                              check_disk_layout, disk_name)

DET_REJECT = 1e-6


class RepFileError(Exception):
    def __init__(self, message: str, line: int):
        super().__init__(f"line {line}, column 1: {message}")


class RepFile:
    def __init__(self, rep: Representation,
                 disks: Optional[PingPongDisks] = None,
                 meta: Optional[Dict[str, str]] = None,
                 disk_params: Optional[
                     Dict[str, Tuple[float, float, float]]] = None):
        self.rep = rep
        self.disks = disks
        self.meta = {} if meta is None else meta
        # raw disk parameters keyed as emitted ("factor N" or letter name),
        # kept so emit reproduces parsed files byte for byte
        self.disk_params = {} if disk_params is None else disk_params


_COMPLEX = r"\(\s*([^\s,()]+)\s*,\s*([^\s,()]+)\s*\)"


def _parse_float(tok: str, line_no: int) -> float:
    try:
        x = float(tok)
    except ValueError:
        raise RepFileError(f"bad number {tok!r}", line_no)
    if not math.isfinite(x):
        raise RepFileError(f"non-finite number {tok!r}", line_no)
    return x


def _parse_count(tok: str, line_no: int) -> int:
    if not tok.isdecimal():
        raise RepFileError(f"expected a non-negative integer, got {tok!r}",
                           line_no)
    return int(tok)


def parse_rep(text: str) -> RepFile:
    lines = text.splitlines()
    section = None
    genera: List[int] = []
    free_rank = 0
    gen_lines: List[Tuple[int, str]] = []
    disk_lines: List[Tuple[int, str]] = []
    meta: Dict[str, str] = {}
    headers: Dict[str, int] = {}   # section name -> its header's line
    free_line = 0

    for idx, raw in enumerate(lines, start=1):
        line = raw.split("#", 1)[0].rstrip()
        if not line.strip():
            continue
        if not raw[:1].isspace():
            name = line.strip()
            if name not in ("group", "generators", "disks", "meta"):
                raise RepFileError(f"unknown section {name!r}", idx)
            if name in headers:
                raise RepFileError(f"repeated section {name!r}", idx)
            section = name
            headers[name] = idx
            continue
        body = line.strip()
        if section == "group":
            parts = body.split()
            if parts[0] == "surface" and len(parts) == 2:
                genera.append(_parse_count(parts[1], idx))
            elif parts[0] == "free" and len(parts) == 2:
                if free_line:
                    raise RepFileError("repeated key 'free'", idx)
                free_line = idx
                free_rank = _parse_count(parts[1], idx)
            else:
                raise RepFileError(f"unknown group key {parts[0]!r}", idx)
        elif section == "generators":
            gen_lines.append((idx, body))
        elif section == "disks":
            disk_lines.append((idx, body))
        elif section == "meta":
            parts = body.split(None, 1)
            if parts[0] in meta:
                raise RepFileError(f"repeated key {parts[0]!r}", idx)
            meta[parts[0]] = parts[1] if len(parts) > 1 else ""
        else:
            raise RepFileError("content before any section header", idx)

    if not genera and not free_rank:
        raise RepFileError("missing group section", max(1, len(lines)))
    try:
        group = GroupSpec(tuple(genera), free_rank)
    except GroupError as exc:
        raise RepFileError(str(exc), headers["group"])

    expected = [group.letter_name(2 * k) for k in range(group.n_letters // 2)]
    images: Dict[str, MoebiusMap] = {}
    for idx, body in gen_lines:
        m = re.match(rf"(\S+)\s*=\s*{_COMPLEX}\s*{_COMPLEX}\s*{_COMPLEX}\s*{_COMPLEX}\s*$",
                     body)
        if not m:
            raise RepFileError("expected `name = (re,im) x4`", idx)
        name = m.group(1)
        if name not in expected:
            raise RepFileError(f"unknown generator {name!r}", idx)
        if name in images:
            raise RepFileError(f"repeated generator {name!r}", idx)
        vals = [_parse_float(m.group(k), idx) for k in range(2, 10)]
        mm = MoebiusMap(*(complex(vals[k], vals[k + 1]) for k in (0, 2, 4, 6)),
                        normalize=False)
        try:
            det = mm.det()
            bound = DET_REJECT + mm.det_noise()
        except OverflowError:
            bound = math.inf
        if not math.isfinite(bound):
            raise RepFileError(
                "entries too large to check the determinant in floats", idx)
        if not abs(det - 1.0) <= bound:  # a NaN fails too
            raise RepFileError(
                f"determinant {det:.6g} off by more than {DET_REJECT}", idx)
        images[name] = mm

    missing = [n for n in expected if n not in images]
    if missing:
        raise RepFileError(f"missing generators: {', '.join(missing)}",
                           max(1, len(lines)))
    rep = Representation(group, [images[n] for n in expected])

    disks = None
    disk_params: Dict[str, Tuple[float, float, float]] = {}
    if disk_lines:
        free: Dict[int, Disk] = {}
        factor: Dict[int, Disk] = {}
        for idx, body in disk_lines:
            m = re.match(rf"(factor\s+(\d+)|\S+)\s+center\s*{_COMPLEX}\s*radius\s+(\S+)\s*$",
                         body)
            if not m:
                raise RepFileError(
                    "expected `factor N|letter center (x,y) radius r`", idx)
            cx = _parse_float(m.group(3), idx)
            cy = _parse_float(m.group(4), idx)
            r = _parse_float(m.group(5), idx)
            try:
                disk = Disk.interior(complex(cx, cy), r)
            except DiskError as exc:  # a bad radius, or too large
                raise RepFileError(str(exc), idx)
            if m.group(2) is not None:
                surf_index = int(m.group(2))  # surface factor k has fid k - 1
                if not 1 <= surf_index <= group.n_surface:
                    raise RepFileError(f"no surface factor {m.group(2)}", idx)
                table, key = factor, surf_index - 1
                name = disk_name(group, group.gen_base(key))
            else:
                name = m.group(1)
                try:
                    key = group.parse_word(name)[0]
                except LetterOutOfRange:
                    raise RepFileError(f"unknown letter {name!r}", idx)
                if group.letter_factor(key) < group.n_surface:
                    raise RepFileError(
                        f"{name!r} is a surface letter; a surface factor "
                        f"takes `factor N`", idx)
                table = free
            if key in table:
                raise RepFileError(f"repeated disk {name!r}", idx)
            table[key] = disk
            disk_params[name if table is factor
                        else disk_name(group, key)] = (cx, cy, r)
        disks = PingPongDisks(free=free, factor=factor)
        try:
            check_disk_layout(group, disks)
        except DiskCountMismatch as exc:
            raise RepFileError(str(exc), headers["disks"])

    return RepFile(rep=rep, disks=disks, meta=meta, disk_params=disk_params)


def _fmt_complex(z: complex) -> str:
    return f"({z.real!r}, {z.imag!r})"


def emit_rep(repfile: RepFile) -> str:
    rep = repfile.rep
    group = rep.group
    out: List[str] = ["group"]
    for genus in group.surface_genera:
        out.append(f"  surface {genus}")
    if group.free_rank:
        out.append(f"  free {group.free_rank}")
    out.append("generators")
    for k, m in enumerate(rep.generator_images()):
        name = group.letter_name(2 * k)
        out.append(f"  {name} = {_fmt_complex(m.a)} {_fmt_complex(m.b)} "
                   f"{_fmt_complex(m.c)} {_fmt_complex(m.d)}")
    if repfile.disks is not None:
        out.append("disks")
        for key, d in repfile.disks.distinct_disks(group):
            if not d.bounded:
                raise ValueError(f"disk {key} is not bounded; a .rep file "
                                 f"holds bounded disks only")
            if key in repfile.disk_params:
                cx, cy, r = repfile.disk_params[key]
            else:
                cx, cy, r = d.center.real, d.center.imag, d.radius
            out.append(f"  {key} center ({cx!r}, {cy!r}) radius {r!r}")
    if repfile.meta:
        out.append("meta")
        for k in sorted(repfile.meta):
            out.append(f"  {k} {repfile.meta[k]}".rstrip())
    return "\n".join(out) + "\n"
