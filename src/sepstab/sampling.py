"""Whitehead graphs sampled from limit sets of verified reference
representations.

Endpoint pairs are the axis endpoints h(fix g) of the conjugates h g h^-1,
h reduced with |h| up to a depth bound: g is classified and solved once,
and h = x h' moves h'(fix g) by one Moebius point action per endpoint.
Each endpoint is located in the first-level ping-pong region it falls in
(a free-letter disk or a surface factor disk); pairs straddling two
distinct regions contribute ball edges, and pairs whose endpoints sit
behind distinct surface-group translates of a factor's complementary
region contribute labeled loops on that factor's component.  Surface
prefixes are recovered by inverse iteration through the generator
isometric disks, so the construction consumes only numeric data plus the
disk certificate.

Each distinct point (at 1e-12 granularity) is navigated once per graph,
and inverse iteration looks up every point it strips to: k strips onto a
known point with prefix r give the k letters then r if k + |r| <= cap + 1,
and none otherwise, as the uncached loop under the same cap.  A stripped
point is stored only when its outcome does not depend on the budget left.
"""

from __future__ import annotations

from collections import Counter
from typing import Dict, List, Optional, Tuple

from sepstab import groups as G
from sepstab import whitehead as W
from sepstab.disks import isometric_disk
from sepstab.groups import CyclicNormalForm, Word, inv
from sepstab.hyperbolic import Representation, classify, fixed_points
from sepstab.pingpong import PingPongDisks
from sepstab.whitehead import MuSpec, WhiteheadGraph

MEMBERSHIP_TOL = 1e-12


def sample_mu(rep: Representation, cnf: CyclicNormalForm,
              depth: int) -> MuSpec:
    """Axis endpoint pairs h(fix g) for reduced h with |h| <= depth.

    Pairs are ordered (repelling, attracting); the swapped pair is included
    as well, matching invariance under switching the factors.  A pair with
    an endpoint at infinity is skipped.  With g = w^k, w primitive, no
    h = h' w^{+-1} is walked: it repeats h'(fix g) up to amplified rounding.
    """
    word = cnf.letters()
    g_mat = rep.evaluate(word)
    if classify(g_mat) != "loxodromic":
        return MuSpec()
    fps = fixed_points(g_mat)
    if len(fps) != 2:
        return MuSpec()
    period = next(p for p in range(1, len(word) + 1)
                  if word == word[:p] * (len(word) // p))
    roots = {word[:period], G.word_inverse(word[:period])}
    images = [rep.image(x) for x in range(rep.group.n_letters)]
    pairs: List[Tuple[complex, complex]] = []
    seen = set()

    def visit(h: Word, r, a):
        # (r, a) = h(fix g); h grows by prepending, so h = x h'
        if r is not None and a is not None:
            key = _key(r, 1e9) + _key(a, 1e9)
            if key not in seen:
                seen.add(key)
                pairs.extend(((r, a), (a, r)))
        if len(h) < depth:
            for x, m in enumerate(images):
                xh = (x,) + h
                if (not h or x != inv(h[0])) and xh not in roots:
                    visit(xh, m.moebius(r), m.moebius(a))

    visit((), fps[0], fps[1])
    return MuSpec(sampled_pairs=tuple(pairs))


def _key(p: complex, scale: float = 1e12):
    """A point's cell on the 1/scale grid; a point off the grid (infinite,
    nan or too large) keys as itself, which no cell equals."""
    try:
        return (round(p.real * scale), round(p.imag * scale))
    except (OverflowError, ValueError):
        return (p, None)


class _Navigator:
    """First-level regions and surface prefixes of the points of one graph.

    Disk forms and inverse generator matrices are flattened to float and
    complex tuples.  The cap is fixed: a memoized cap miss needs its cap.
    """

    def __init__(self, rep: Representation, disks: PingPongDisks, cap: int):
        self.group = rep.group
        self.cap = cap
        self.surface_fids = range(self.group.n_surface)  # surface factors first
        self._free_forms = [(letter, d.A, d.B.real, d.B.imag, d.C)
                            for letter, d in sorted(disks.free.items())]
        self._factor_forms = {fid: (d.A, d.B.real, d.B.imag, d.C)
                              for fid, d in sorted(disks.factor.items())}
        self._nav: List[list] = []   # by fid: [(letter, form, inv matrix)]
        for fid in self.surface_fids:
            entries = []
            for letter in self.group.factor_letters(fid):
                minv = rep.image(letter).inverse()
                idisk = isometric_disk(minv)
                entries.append((letter,
                                (idisk.A, idisk.B.real, idisk.B.imag, idisk.C),
                                (minv.a, minv.b, minv.c, minv.d)))
            self._nav.append(entries)
        self._prefix_cache = [{} for _ in self._nav]
        self._records: Dict[tuple, tuple] = {}

    def record(self, p: complex):
        """(first-level region, prefixes by surface factor id), navigated
        once per distinct point; (None, None) outside every region."""
        key = _key(p)
        rec = self._records.get(key)
        if rec is None:
            region = self.first_level(p)
            prefixes = None if region is None else tuple(
                self.surface_prefix(fid, p, key) for fid in self.surface_fids)
            rec = self._records[key] = (region, prefixes)
        return rec

    def first_level(self, p: complex):
        """('free', letter) | ('surface', fid) | None."""
        x, y = p.real, p.imag
        for fid, (A, bre, bim, C) in self._factor_forms.items():
            if A * (x * x + y * y) + 2.0 * (bre * x + bim * y) + C <= MEMBERSHIP_TOL:
                return ("surface", fid)
        for letter, A, bre, bim, C in self._free_forms:
            if A * (x * x + y * y) + 2.0 * (bre * x + bim * y) + C <= MEMBERSHIP_TOL:
                return ("free", letter)
        return None

    def surface_prefix(self, fid: int, p: complex,
                       key: Optional[tuple] = None) -> Optional[Word]:
        """Maximal factor-fid prefix of the point's infinite word.

        () when the point already lies outside the factor disk; None when
        stripping does not leave the disk within the cap (a limit point of
        the factor itself).  The cap must stay small: inverse iteration
        expands numerical error, so a genuine circle point drifts off the
        invariant circle after a few dozen strips, while legitimate
        prefixes are never longer than the conjugating depth plus one
        syllable.
        """
        cache = self._prefix_cache[fid]
        key = _key(p) if key is None else key
        if key in cache:
            return cache[key]
        fA, fbre, fbim, fC = self._factor_forms[fid]
        prefix: List[int] = []
        stripped = []           # keys of the points after 1, 2, ... strips
        q = p
        budget_free = True      # False when the outcome is a cap miss
        while True:
            x, y = q.real, q.imag
            if fA * (x * x + y * y) + 2.0 * (fbre * x + fbim * y) + fC > MEMBERSHIP_TOL:
                result = tuple(prefix)
                break
            if len(prefix) > self.cap:
                result, budget_free = None, False
                break
            best, best_mat, best_val = None, None, MEMBERSHIP_TOL
            for letter, (A, bre, bim, C), mat in self._nav[fid]:
                val = A * (x * x + y * y) + 2.0 * (bre * x + bim * y) + C
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
            qkey = _key(q)
            if qkey in cache:
                rest = cache[qkey]
                if rest is None:
                    result = None
                elif len(prefix) + len(rest) <= self.cap + 1:
                    result = tuple(prefix) + rest
                else:
                    result, budget_free = None, False
                break
            stripped.append(qkey)
        if budget_free:
            for k, qkey in enumerate(stripped, 1):
                cache[qkey] = None if result is None else result[k:]
        cache[key] = result
        return result


def whitehead_graph_sampled(rep: Representation, disks: PingPongDisks,
                            mu: MuSpec, max_prefix: int) -> WhiteheadGraph:
    """Whitehead graph of sampled endpoint pairs for the standard system.

    Requires a passing ping-pong certificate on the disks.
    """
    disks.require_verified()
    group = rep.group
    nav = _Navigator(rep, disks, max_prefix)
    ball, loops = Counter(), Counter()
    vertices: Dict[tuple, int] = {}   # (fid, prefix) -> ball vertex id
    labels: Dict[tuple, Word] = {}    # (fid, Dehn-reduced word) -> label

    def vertex_of(region, prefixes) -> Optional[int]:
        kind, ident = region
        if kind == "free":
            return W.free_letter_vertex(group, ident)
        prefix = prefixes[ident]
        if not prefix:
            return None  # a limit point of the factor itself never straddles
        if (ident, prefix) not in vertices:
            vertices[ident, prefix] = W.ball_vertex(
                ident, W.syllable_orientation(prefix, group, ident))
        return vertices[ident, prefix]

    for p, q in mu.sampled_pairs:
        rp, sps = nav.record(p)
        rq, sqs = nav.record(q)
        if rp is None or rq is None:
            continue
        if rp != rq:
            up = vertex_of(rp, sps)
            uq = vertex_of(rq, sqs)
            if up is not None and uq is not None:
                ball[min(up, uq), max(up, uq)] += 1
        for fid, sp, sq in zip(nav.surface_fids, sps, sqs):
            if sp is None or sq is None or sp == sq:
                continue  # sp == sq: both endpoints behind the same translate
            reduced = G.dehn_reduce(G.word_mul(G.word_inverse(sp), sq),
                                    group, fid)
            if not reduced:
                continue
            if (fid, reduced) not in labels:
                labels[fid, reduced] = W._canonical_label(reduced, group, fid)
            loops[fid, labels[fid, reduced]] += 1
    return W.graph_from_counts(group, ball, loops)


def whitehead_graph_sampled_for(rep: Representation, disks: PingPongDisks,
                                cnf: CyclicNormalForm,
                                depth: int) -> WhiteheadGraph:
    return whitehead_graph_sampled(rep, disks, sample_mu(rep, cnf, depth),
                                   depth + cnf.cyclic_length + 2)


def graphs_agree(a: WhiteheadGraph, b: WhiteheadGraph) -> bool:
    """Identical vertex sets and identical edge multisets (labels already
    canonicalized by construction)."""
    if len(a.components) != len(b.components):
        return False
    for ca, cb in zip(a.components, b.components):
        if ca.cid != cb.cid or ca.vertices != cb.vertices:
            return False
    return a.edge_multiset() == b.edge_multiset()
