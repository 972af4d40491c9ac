"""Whitehead graphs sampled from limit sets of verified reference
representations.

Endpoint pairs are the axis endpoints h(fix g) of the conjugates h g h^-1,
h reduced with |h| up to a depth bound: g is classified and solved once,
and h = x h' moves h'(fix g) by one Moebius point action per endpoint.
Each endpoint is located once, by the factor id of the first-level
ping-pong disk it falls in and its first syllable there (a free letter, or
the surface prefix in a factor disk); pairs straddling two distinct disks
contribute ball edges, and pairs whose endpoints sit behind distinct
surface-group translates of a factor's complementary region contribute
labeled loops on that factor's component.  The construction consumes only
numeric data plus the disk certificate.

Each sampled pair carries a parent link: the letter x and the index of
the pair of h' it was moved from (-1 when h' emitted no pair), so an
endpoint P = x(Q) is located from Q's location.  Membership in the factor
disks and the first navigation step are still tested numerically on P.
When that step strips x, P's surface prefix is x followed by Q's prefix in
the factor (() when Q lies outside the factor disk), or none when that
exceeds the cap.  Otherwise, and for pairs without a parent, the prefix
comes from inverse iteration through the generator isometric disks of the
factor holding the point.  Either way each endpoint is located once, and
no point is looked up by its coordinates.
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

Location = Optional[Tuple[int, Optional[Word]]]


def sample_mu(rep: Representation, cnf: CyclicNormalForm,
              depth: int) -> MuSpec:
    """Axis endpoint pairs h(fix g) for reduced h with |h| <= depth.

    Each axis gives one pair, ordered (repelling, attracting); the graph
    builder treats a pair as unordered.  A pair with an endpoint at
    infinity is skipped, and so is a pair within 1e-9 of an earlier one.
    With g = w^k, w primitive, no h = h' w^{+-1} is walked: it repeats
    h'(fix g) up to amplified rounding.  The walk is depth-first, letters
    ascending; each pair's parent link is (x, index of the pair of h'),
    with index -1 when h' emitted no pair.
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
    # pushed in descending order, so popped ascending
    descending = [(x, rep.image(x))
                  for x in reversed(range(rep.group.n_letters))]
    pairs: List[Tuple[complex, complex]] = []
    links: List[Tuple[int, int]] = []
    seen = set()
    # (h, h(fix g), x, parent pair index); h grows by prepending, h = x h'
    stack = [((), fps[0], fps[1], -1, -1)]
    while stack:
        h, r, a, x, parent = stack.pop()
        index = -1
        if r is not None and a is not None:
            key = _key(r) + _key(a)
            if key not in seen:
                seen.add(key)
                index = len(pairs)
                pairs.append((r, a))
                links.append((x, parent))
        if len(h) < depth:
            back = inv(h[0]) if h else -1
            for y, m in descending:
                yh = (y,) + h
                if y != back and yh not in roots:
                    stack.append((yh, m.moebius(r), m.moebius(a), y, index))
    return MuSpec(sampled_pairs=tuple(pairs), parent_links=tuple(links))


def _key(p: complex):
    """A point's cell on the 1e-9 grid; a point off the grid (infinite,
    nan or too large) keys as itself, which no cell equals."""
    try:
        return (round(p.real * 1e9), round(p.imag * 1e9))
    except (OverflowError, ValueError):
        return (p, None)


class _Navigator:
    """Locations of the points of one graph; a point is navigated only in
    the factor disk that holds it, from its parent's location when the
    first strip undoes the link's letter.

    Disk forms and inverse generator matrices are flattened to float and
    complex tuples.
    """

    def __init__(self, rep: Representation, disks: PingPongDisks, cap: int):
        group = rep.group
        self.cap = cap
        self._free_forms = [(group.letter_factor(letter), letter,
                             d.A, d.B.real, d.B.imag, d.C)
                            for letter, d in sorted(disks.free.items())]
        self._factor_forms = {fid: (d.A, d.B.real, d.B.imag, d.C)
                              for fid, d in sorted(disks.factor.items())}
        self._nav: List[list] = []   # by fid: [(letter, form, inv matrix)]
        for fid in range(group.n_surface):  # surface factors first
            entries = []
            for letter in group.factor_letters(fid):
                minv = rep.image(letter).inverse()
                idisk = isometric_disk(minv)
                entries.append((letter,
                                (idisk.A, idisk.B.real, idisk.B.imag, idisk.C),
                                (minv.a, minv.b, minv.c, minv.d)))
            self._nav.append(entries)

    def locate(self, p: complex, x: int = -1,
               lq: Location = None) -> Location:
        """(fid, first syllable) of the first-level disk holding the point:
        (letter,) in a free letter's disk, the surface prefix in a factor
        disk; None outside every disk.  Factor disks are tested first.

        With a parent link, p = x(q) and lq is q's location.  Verified
        factor disks are disjoint with a margin, so q lies in p's factor
        disk exactly when lq says so.
        """
        px, py = p.real, p.imag
        for fid, (A, bre, bim, C) in self._factor_forms.items():
            if A * (px * px + py * py) + 2.0 * (bre * px + bim * py) + C <= MEMBERSHIP_TOL:
                if x < 0 or self._step(fid, p)[0] != x:
                    return fid, self.strip(fid, p)
                rest = lq[1] if lq is not None and lq[0] == fid else ()
                if rest is None or len(rest) > self.cap:
                    return fid, None
                return fid, (x,) + rest
        for fid, letter, A, bre, bim, C in self._free_forms:
            if A * (px * px + py * py) + 2.0 * (bre * px + bim * py) + C <= MEMBERSHIP_TOL:
                return fid, (letter,)
        return None

    def locations(self, mu: MuSpec) -> List[Tuple[Location, Location]]:
        """Locations of both endpoints of every sampled pair, in order, each
        linked pair located from the locations of its parent pair."""
        located: List[Tuple[Location, Location]] = []
        for (x, j), (p, q) in zip(
                mu.parent_links or [(-1, -1)] * len(mu.sampled_pairs),
                mu.sampled_pairs):
            if j < 0:
                located.append((self.locate(p), self.locate(q)))
            else:
                lp, lq = located[j]
                located.append((self.locate(p, x, lp), self.locate(q, x, lq)))
        return located

    def _inside(self, fid: int, p: complex) -> bool:
        A, bre, bim, C = self._factor_forms[fid]
        x, y = p.real, p.imag
        return A * (x * x + y * y) + 2.0 * (bre * x + bim * y) + C <= MEMBERSHIP_TOL

    def _step(self, fid: int, p: complex):
        """(letter, inverse matrix) of the generator isometric disk of
        factor fid that holds the point deepest; (None, None) in none."""
        x, y = p.real, p.imag
        r2 = x * x + y * y
        best, best_mat, best_val = None, None, MEMBERSHIP_TOL
        for letter, (A, bre, bim, C), mat in self._nav[fid]:
            val = A * r2 + 2.0 * (bre * x + bim * y) + C
            if val < best_val:
                best, best_mat, best_val = letter, mat, val
        return best, best_mat

    def strip(self, fid: int, p: complex) -> Optional[Word]:
        """Maximal factor-fid prefix of the point's infinite word, by
        inverse iteration.

        () when the point already lies outside the factor disk; None when
        stripping does not leave the disk within the cap (a limit point of
        the factor itself).  The cap must stay small: inverse iteration
        expands numerical error, so a genuine circle point drifts off the
        invariant circle after a few dozen strips, while legitimate
        prefixes are never longer than the conjugating depth plus one
        syllable.
        """
        prefix: List[int] = []
        q = p
        while self._inside(fid, q):
            if len(prefix) > self.cap:
                return None
            best, best_mat = self._step(fid, q)
            if best is None:
                return None  # inside the disk but outside the dynamics
            prefix.append(best)
            a, b, c, d = best_mat
            denom = c * q + d
            if denom == 0:
                return None
            q = (a * q + b) / denom
        return tuple(prefix)


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
    labels: Dict[tuple, Optional[Word]] = {}  # (fid, tails) -> label

    def vertex_of(fid: int, syllable: Optional[Word]) -> Optional[int]:
        if fid >= group.n_surface:
            return W.free_letter_vertex(group, syllable[0])
        if not syllable:
            return None  # a limit point of the factor itself never straddles
        if (fid, syllable) not in vertices:
            wc, wi = W.canonical_pair(syllable, group, fid)
            vertices[fid, syllable] = W.ball_vertex(fid, 1 if wc <= wi else -1)
        return vertices[fid, syllable]

    def loop(fid: int, sp: Optional[Word], sq: Optional[Word]):
        # sp == sq: both endpoints behind the same translate
        if fid >= group.n_surface or sp is None or sq is None or sp == sq:
            return
        # sp^-1 sq reduces to the same word as its tails after the common
        # prefix (free reduction is confluent), so the tails key the label
        k = 0
        while k < len(sp) and k < len(sq) and sp[k] == sq[k]:
            k += 1
        key = (fid, sp[k:], sq[k:])
        if key not in labels:
            reduced = G.dehn_reduce(
                G.word_mul(G.word_inverse(sp[k:]), sq[k:]), group, fid)
            labels[key] = (min(W.canonical_pair(reduced, group, fid))
                           if reduced else None)
        if labels[key] is not None:
            loops[fid, labels[key]] += 1

    for lp, lq in nav.locations(mu):
        if lp is None or lq is None or lp == lq:
            continue
        (fp, sp), (fq, sq) = lp, lq
        if fp == fq and fp < group.n_surface:
            loop(fp, sp, sq)  # one factor disk
            continue
        up, uq = vertex_of(fp, sp), vertex_of(fq, sq)
        if up is not None and uq is not None:
            ball[min(up, uq), max(up, uq)] += 1
        # distinct disks: a point outside a factor disk has prefix () there
        loop(fp, sp, ())
        loop(fq, (), sq)
    return W.graph_from_counts(group, ball, loops)


def whitehead_graph_sampled_for(rep: Representation, disks: PingPongDisks,
                                cnf: CyclicNormalForm,
                                depth: int) -> WhiteheadGraph:
    return whitehead_graph_sampled(rep, disks, sample_mu(rep, cnf, depth),
                                   depth + cnf.cyclic_length + 2)


def graphs_agree(a: WhiteheadGraph, b: WhiteheadGraph) -> bool:
    """Identical vertex sets and identical edge sets (labels already
    canonicalized by construction).  ``edge_multiset`` is a set without
    supports, so neither multiplicities nor ``Edge.support`` are compared:
    the combinatorial support counts word occurrences, the sampled one
    counts axis pairs."""
    if len(a.components) != len(b.components):
        return False
    for ca, cb in zip(a.components, b.components):
        if ca.cid != cb.cid or ca.vertices != cb.vertices:
            return False
    return a.edge_multiset() == b.edge_multiset()
