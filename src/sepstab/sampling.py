"""Whitehead graphs sampled from limit sets of verified reference
representations.

Endpoint pairs are axis endpoints of conjugates h g h^-1 over all reduced
words h up to a depth bound.  Each endpoint is located in the first-level
ping-pong region it falls in (a free-letter disk or a surface factor disk);
pairs straddling two distinct regions contribute ball edges, and pairs
whose endpoints sit behind distinct surface-group translates of a factor's
complementary region contribute labeled loops on that factor's component.
Surface prefixes are recovered by inverse iteration through the generator
isometric disks, so the construction consumes only numeric data plus the
disk certificate.
"""

from __future__ import annotations

from collections import Counter
from typing import Dict, List, Optional, Tuple

from sepstab import groups as G
from sepstab import whitehead as W
from sepstab.disks import isometric_disk
from sepstab.groups import CyclicNormalForm, Word, inv
from sepstab.hyperbolic import MoebiusMap, Representation, classify, fixed_points
from sepstab.pingpong import PingPongDisks
from sepstab.whitehead import MuSpec, WhiteheadGraph

MEMBERSHIP_TOL = 1e-12
DEFAULT_MAX_PREFIX = 16


def sample_mu(rep: Representation, cnf: CyclicNormalForm,
              depth: int) -> MuSpec:
    """Axis endpoint pairs of h g h^-1 for reduced h with |h| <= depth.

    Pairs are ordered (repelling, attracting); the swapped pair is included
    as well, matching invariance under switching the factors.
    """
    g_mat = rep.evaluate(cnf.letters())
    pairs: List[Tuple[complex, complex]] = []
    seen = set()

    for h_mat, h_inv in _conjugators(rep, depth):
        m = h_mat * g_mat * h_inv
        if classify(m) != "loxodromic":
            continue
        fps = fixed_points(m)
        if len(fps) != 2 or fps[0] is None or fps[1] is None:
            continue
        rep_fix, att_fix = fps
        key = (round(rep_fix.real, 9), round(rep_fix.imag, 9),
               round(att_fix.real, 9), round(att_fix.imag, 9))
        if key in seen:
            continue
        seen.add(key)
        pairs.append((rep_fix, att_fix))
        pairs.append((att_fix, rep_fix))
    return MuSpec(sampled_pairs=tuple(pairs))


def _conjugators(rep: Representation, depth: int):
    """Matrices (and inverses) of all reduced words up to the depth bound,
    cached on the representation."""
    cache = getattr(rep, "_conjugator_cache", None)
    if cache is None:
        cache = rep._conjugator_cache = {}
    mats = cache.get(depth)
    if mats is not None:
        return mats
    group = rep.group
    mats = []

    def dfs(h_word: Word, h_mat: MoebiusMap):
        mats.append((h_mat, h_mat.inverse()))
        if len(h_word) == depth:
            return
        for x in range(group.n_letters):
            if h_word and h_word[-1] == inv(x):
                continue
            dfs(h_word + (x,), h_mat * rep.image(x))

    dfs((), MoebiusMap.identity())
    cache[depth] = mats
    return mats


class _Navigator:
    """First-level region classification and surface-prefix recovery.

    Disk forms and inverse generator matrices are flattened to plain float
    and complex tuples; prefixes and regions are memoized per point, which
    matters because every endpoint is looked at several times per graph.
    """

    def __init__(self, rep: Representation, disks: PingPongDisks):
        self.rep = rep
        self.group = rep.group
        self.disks = disks
        self._factor_forms = []       # (fid, A, Bre, Bim, C)
        for fid, disk in sorted(disks.factor.items()):
            self._factor_forms.append(
                (fid, disk.A, disk.B.real, disk.B.imag, disk.C))
        self._free_forms = []         # (letter, A, Bre, Bim, C)
        for letter, disk in sorted(disks.free.items()):
            self._free_forms.append(
                (letter, disk.A, disk.B.real, disk.B.imag, disk.C))
        self._nav: Dict[int, list] = {}   # fid -> [(letter, form, inv matrix)]
        for f in self.group.factors:
            if f.kind != "surface":
                continue
            entries = []
            for letter in self.group.factor_letters(f.index):
                idisk = isometric_disk(rep.image(letter).inverse())
                minv = rep.image(letter).inverse()
                entries.append((letter,
                                (idisk.A, idisk.B.real, idisk.B.imag, idisk.C),
                                (minv.a, minv.b, minv.c, minv.d)))
            self._nav[f.index] = entries
        self._region_cache: Dict[tuple, object] = {}
        self._prefix_cache: Dict[tuple, Optional[Word]] = {}

    @staticmethod
    def _key(p: complex):
        return (round(p.real, 12), round(p.imag, 12))

    @staticmethod
    def _form_value(form, x: float, y: float) -> float:
        A, bre, bim, C = form
        return A * (x * x + y * y) + 2.0 * (bre * x + bim * y) + C

    def first_level(self, p: complex):
        """('free', letter) | ('surface', fid) | None."""
        key = self._key(p)
        try:
            return self._region_cache[key]
        except KeyError:
            pass
        x, y = p.real, p.imag
        out = None
        for fid, A, bre, bim, C in self._factor_forms:
            if A * (x * x + y * y) + 2.0 * (bre * x + bim * y) + C <= MEMBERSHIP_TOL:
                out = ("surface", fid)
                break
        if out is None:
            for letter, A, bre, bim, C in self._free_forms:
                if A * (x * x + y * y) + 2.0 * (bre * x + bim * y) + C <= MEMBERSHIP_TOL:
                    out = ("free", letter)
                    break
        self._region_cache[key] = out
        return out

    def surface_prefix(self, fid: int, p: complex,
                       cap: int = DEFAULT_MAX_PREFIX) -> Optional[Word]:
        """Maximal factor-fid prefix of the point's infinite word.

        () when the point already lies outside the factor disk; None when
        stripping does not leave the disk within the cap (a limit point of
        the factor itself).  The cap must stay small: inverse iteration
        expands numerical error, so a genuine circle point drifts off the
        invariant circle after a few dozen strips, while legitimate
        prefixes are never longer than the conjugating depth plus one
        syllable.
        """
        key = (fid, self._key(p))
        try:
            return self._prefix_cache[key]
        except KeyError:
            pass
        fdisk = next(f for f in self._factor_forms if f[0] == fid)
        _, fA, fbre, fbim, fC = fdisk
        entries = self._nav[fid]
        prefix: List[int] = []
        q = p
        result: Optional[Word]
        while True:
            x, y = q.real, q.imag
            if fA * (x * x + y * y) + 2.0 * (fbre * x + fbim * y) + fC > MEMBERSHIP_TOL:
                result = tuple(prefix)
                break
            if len(prefix) > cap:
                result = None
                break
            best, best_mat, best_val = None, None, MEMBERSHIP_TOL
            for letter, form, mat in entries:
                val = self._form_value(form, x, y)
                if val < best_val:
                    best, best_mat, best_val = letter, mat, val
            if best is None:
                result = None  # inside the disk but outside the dynamics
                break
            prefix.append(best)
            a, b, c, d = best_mat
            denom = c * q + d
            if denom == 0:
                result = None
                break
            q = (a * q + b) / denom
        self._prefix_cache[key] = result
        return result


def whitehead_graph_sampled(rep: Representation, disks: PingPongDisks,
                            mu: MuSpec,
                            max_prefix: int = DEFAULT_MAX_PREFIX) -> WhiteheadGraph:
    """Whitehead graph of sampled endpoint pairs for the standard system.

    Requires a passing ping-pong certificate on the disks.
    """
    disks.require_verified()
    group = rep.group
    nav = _Navigator(rep, disks)
    surface_fids = [f.index for f in group.factors if f.kind == "surface"]
    ball: Counter = Counter()
    loops: Counter = Counter()

    for p, q in mu.sampled_pairs:
        rp = nav.first_level(p)
        rq = nav.first_level(q)
        if rp is None or rq is None:
            continue
        if rp != rq:
            up = _ball_vertex(nav, rp, p, max_prefix)
            uq = _ball_vertex(nav, rq, q, max_prefix)
            if up is not None and uq is not None:
                ball[min(up, uq), max(up, uq)] += 1
        for fid in surface_fids:
            sp = nav.surface_prefix(fid, p, max_prefix)
            sq = nav.surface_prefix(fid, q, max_prefix)
            if sp is None or sq is None:
                continue
            label_word = G.word_mul(G.word_inverse(sp), sq)
            reduced = G.dehn_reduce(label_word, group, fid)
            if not reduced:
                continue  # both endpoints behind the same translate
            loops[fid, W._canonical_label(reduced, group, fid)] += 1
    return W.graph_from_counts(group, ball, loops)


def _ball_vertex(nav: _Navigator, region, p: complex,
                 max_prefix: int) -> Optional[int]:
    kind, ident = region
    if kind == "free":
        return W.free_letter_vertex(nav.group, ident)
    fid = ident
    prefix = nav.surface_prefix(fid, p, max_prefix)
    if not prefix:
        return None  # a limit point of the factor itself never straddles
    return W.ball_vertex(
        fid, W.syllable_orientation(prefix, nav.group, fid))


def whitehead_graph_sampled_for(rep: Representation, disks: PingPongDisks,
                                cnf: CyclicNormalForm,
                                depth: int) -> WhiteheadGraph:
    cap = depth + cnf.cyclic_length + 2
    return whitehead_graph_sampled(rep, disks, sample_mu(rep, cnf, depth),
                                   max_prefix=cap)


def graphs_agree(a: WhiteheadGraph, b: WhiteheadGraph) -> bool:
    """Identical vertex sets and identical edge multisets (labels already
    canonicalized by construction)."""
    if len(a.components) != len(b.components):
        return False
    for ca, cb in zip(a.components, b.components):
        if ca.cid != cb.cid or ca.vertices != cb.vertices:
            return False
    return a.edge_multiset() == b.edge_multiset()
