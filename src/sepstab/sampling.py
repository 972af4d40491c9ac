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

An endpoint whose word starts with syllable s sits at ball vertex
``whitehead.crossing(s) ^ 1``.  The axis of g = x_1 ... x_n runs from
x_n^-1 ... to x_1 ..., so its pair joins x_n to x_1^-1, the edge that
``whitehead.cyclic_links`` gives the adjacent crossings (x_n, x_1).

Every walked conjugator h whose pair h(fix g) has two finite endpoints
stores that pair, with a parent link (x, j) for h = x h': pair j is the
pair of h', and each endpoint of the pair is x applied to the matching
endpoint of pair j, bit for bit.  Only the root and the children of a
pair with an endpoint at infinity have no parent (j = -1).  An endpoint
P = x(Q) is located from the location of the endpoint Q of pair j.
Membership in the factor disks and the first navigation step are still
tested numerically on P, the step on x's isometric disk and the disks
that may tie with it (its tie set: on the shipped s2-times-z, x's two
octagon neighbours), which decides "the first step is x" exactly as the
argmin over all of the factor's disks does.  When that step strips x, P's
surface prefix is x followed by Q's prefix in the factor (() when Q lies
outside the factor disk), or none when that exceeds the cap.  Otherwise,
and for pairs without a parent, the prefix comes from inverse iteration
through the generator isometric disks of the factor holding the point.
Either way each endpoint is located once, and no point is looked up by
its coordinates.
"""

from __future__ import annotations

import math
from collections import Counter
from typing import Dict, List, Optional, Sequence, Tuple

from sepstab import groups as G
from sepstab import whitehead as W
from sepstab.disks import isometric_disk
from sepstab.groups import CyclicNormalForm, Word, inv
from sepstab.hyperbolic import Representation, classify, fixed_points
from sepstab.pingpong import PingPongDisks
from sepstab.whitehead import WhiteheadGraph

MEMBERSHIP_TOL = 1e-12

Location = Optional[Tuple[int, Optional[Word]]]


class MuSpec:
    """Endpoint data: sampled axis endpoint pairs, read as unordered, and
    optionally one parent link (x, j) per pair: pair i is the image under
    letter x of pair j, an earlier one; j = -1 for none."""

    def __init__(self,
                 sampled_pairs: Tuple[Tuple[complex, complex], ...] = (),
                 parent_links: Tuple[Tuple[int, int], ...] = ()):
        if parent_links and (
                len(parent_links) != len(sampled_pairs)
                or any(j >= i for i, (_, j) in enumerate(parent_links))):
            raise ValueError(
                "parent_links needs one link per sampled pair, each to an "
                "earlier pair")
        self.sampled_pairs = sampled_pairs
        self.parent_links = parent_links


def sample_mu(rep: Representation, cnf: CyclicNormalForm,
              depth: int) -> MuSpec:
    """Axis endpoint pairs h(fix g) for reduced h with |h| <= depth.

    Each walked h gives one pair, ordered (repelling, attracting); the
    graph builder treats a pair as unordered.  A pair with an endpoint at
    infinity is skipped; every other pair is kept, also when another h
    gives the same axis.  With g = w^k, w primitive, no h = h' w^{+-1} is
    walked: it repeats h'(fix g) up to amplified rounding.  The walk is
    depth-first, letters ascending, and moves each endpoint by the
    boundary action of ``MoebiusMap.moebius``, inlined.  Each pair's
    parent link is (x, j): h = x h', and j indexes the pair of h', whose
    image under x the pair is, bit for bit; j = -1 when h' has no pair.
    """
    word = cnf.letters()
    g_mat = rep.evaluate(word)
    if classify(g_mat) != "loxodromic":
        return MuSpec()
    fps = fixed_points(g_mat)
    if len(fps) != 2:
        return MuSpec()
    period = G.least_period(word)
    roots = {word[:period], G.word_inverse(word[:period])}
    # (letter, a, b, c, d), pushed in descending order, so popped ascending
    descending = []
    for y in reversed(range(rep.group.n_letters)):
        m = rep.image(y)
        descending.append((y, m.a, m.b, m.c, m.d))
    pairs: List[Tuple[complex, complex]] = []
    links: List[Tuple[int, int]] = []
    # (h, h(fix g), x, parent pair index); h grows by prepending, h = x h'
    stack = [((), fps[0], fps[1], -1, -1)]
    while stack:
        h, r, a, x, parent = stack.pop()
        index = -1
        if r is not None and a is not None:
            index = len(pairs)
            pairs.append((r, a))
            links.append((x, parent))
        if len(h) < depth:
            back = inv(h[0]) if h else -1
            for y, ma, mb, mc, md in descending:
                yh = (y,) + h
                if y == back or yh in roots:
                    continue
                if r is None or a is None:
                    m = rep.image(y)
                    stack.append((yh, m.moebius(r), m.moebius(a), y, index))
                    continue
                dr, da = mc * r + md, mc * a + md
                stack.append((yh, (ma * r + mb) / dr if abs(dr) else None,
                              (ma * a + mb) / da if abs(da) else None,
                              y, index))
    return MuSpec(sampled_pairs=tuple(pairs), parent_links=tuple(links))


def _tie_sets(forms: Sequence[Tuple[float, float, float, float]]
               ) -> List[Tuple[int, ...]]:
    """Per (A, Re B, Im B, C) form, the indices of the forms that may read
    under MEMBERSHIP_TOL at the same point, itself included, ascending.

    Form j is left out of form i's set only when no point can read under
    t = MEMBERSHIP_TOL on both as evaluated by ``_Navigator._step``, in the
    factor disk or anywhere else.  A form with A <= 0 (not an interior
    disk), or whose bound below is not finite, ties with every form.

    For A > 0, F(z) = A|z|^2 + 2 Re(conj(B) z) + C = A(|z - c|^2 - R^2)
    with c = -B/A and R^2 = (|B|^2 - AC)/A^2 (possibly negative).  Every
    term of ``A * r2 + 2.0 * (bre * x + bim * y) + C`` passes at most five
    roundings, so |fl F(z) - F(z)| <= gamma (A|z|^2 + 2|B||z| + |C|) with
    gamma = 5u/(1 - 5u), u = 2^-53 (a point where the evaluation overflows
    reads inf or nan, never under t; underflow adds at most 2^-1072 to
    fl F, far below the slack g t below).  With |B| = A|c|,
    |C| <= A(|c|^2 + |R^2|) and |z| <= d + |c| for d = |z - c|, the
    bracket is at most A((d + 2|c|)^2 + |R^2|) <= A(2d^2 + 8|c|^2 + |R^2|).
    So fl F(z) < t forces

        d^2 < rho^2 = (R^2 + t/A + gamma (|R^2| + 8|c|^2)) / (1 - 2 gamma):

    every point reading under t lies in the disk D(c, rho), which covers
    both the widening by the tolerance (t/A) and the rounding of the form
    at the point's own scale.  Two forms whose disks are disjoint,
    |c_i - c_j| >= rho_i + rho_j, never both read under t at one point.

    The bound is evaluated in doubles with g = 1e-13 in place of gamma and
    of 1/(1 - 2 gamma) - 1, and form j is left out only when
    |c_i - c_j| > (1 + g)(rho_i + rho_j) + g(|c_i| + |c_j|).  Each double
    operation adds a relative error of at most u to a quantity bounded by
    |c|^2 + |R^2| + t/A (for rho^2; the cancellation in |B|^2 - AC costs at
    most 5u(2|c|^2 + |R^2|)), or by rho or |c| (for the comparison); the
    excess of g over gamma, more than 100 gamma, covers every one of them.
    """
    reach = []   # (c, rho, |c|) per form; None ties with every form
    for A, bre, bim, C in forms:
        disk = None
        if A > 0:
            c = complex(-bre / A, -bim / A)
            c2 = c.real * c.real + c.imag * c.imag
            r2 = (bre * bre + bim * bim - A * C) / (A * A)
            rho2 = (r2 + MEMBERSHIP_TOL / A
                    + 1e-13 * (abs(r2) + 8.0 * c2)) * (1.0 + 1e-13)
            if math.isfinite(rho2):
                disk = (c, math.sqrt(max(rho2, 0.0)), math.sqrt(c2))
        reach.append(disk)

    def apart(f, g) -> bool:
        return (f is not None and g is not None and abs(f[0] - g[0])
                > (1.0 + 1e-13) * (f[1] + g[1]) + 1e-13 * (f[2] + g[2]))

    return [tuple(j for j, g in enumerate(reach) if not apart(f, g))
            for f in reach]


class _Navigator:
    """Locations of the points of one graph; a point is navigated only in
    the factor disk that holds it, from its parent's location when the
    first strip undoes the link's letter.

    Disk forms and inverse generator matrices are flattened to float and
    complex tuples.  Per surface factor and letter, the navigation entries
    of the letter's tie set (``_tie_sets``) are kept in navigation order.
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
        self._ties: List[dict] = []  # by fid: {letter: its tie entries}
        for fid in range(group.n_surface):  # surface factors first
            entries = []
            for letter in group.factor_letters(fid):
                minv = rep.image(letter).inverse()
                idisk = isometric_disk(minv)
                entries.append((letter,
                                (idisk.A, idisk.B.real, idisk.B.imag, idisk.C),
                                (minv.a, minv.b, minv.c, minv.d)))
            self._nav.append(entries)
            self._ties.append({
                entry[0]: [entries[k] for k in ties]
                for entry, ties in zip(entries,
                                       _tie_sets([e[1] for e in entries]))})

    def locate(self, p: complex, x: int = -1,
               lq: Location = None) -> Location:
        """(fid, first syllable) of the first-level disk holding the point:
        (letter,) in a free letter's disk, the surface prefix in a factor
        disk; None outside every disk.  Factor disks are tested first.

        With a parent link, p = x(q) and lq is the location of q, the
        matching endpoint of the linked pair.  When p lies in a factor
        disk and its first navigation step, decided on x's tie set alone,
        strips x, p's prefix is x followed by q's prefix in that factor,
        () when lq puts q outside it.  The step leaves x^-1(p), which is q
        up to rounding; verified factor disks are disjoint with a margin,
        so lq stands for that point's location unless it lies within
        rounding of a disk boundary.  The differential tests against
        memo-free inverse iteration check the prefixes.
        """
        px, py = p.real, p.imag
        r2 = px * px + py * py
        for fid, (A, bre, bim, C) in self._factor_forms.items():
            if A * r2 + 2.0 * (bre * px + bim * py) + C <= MEMBERSHIP_TOL:
                ties = self._ties[fid].get(x)
                if ties is None or self._step(ties, px, py, r2)[0] != x:
                    return fid, self.strip(fid, p)
                rest = lq[1] if lq is not None and lq[0] == fid else ()
                if rest is None or len(rest) > self.cap:
                    return fid, None
                return fid, (x,) + rest
        for fid, letter, A, bre, bim, C in self._free_forms:
            if A * r2 + 2.0 * (bre * px + bim * py) + C <= MEMBERSHIP_TOL:
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

    @staticmethod
    def _step(entries: list, x: float, y: float, r2: float):
        """(letter, inverse matrix) of the entry whose isometric disk holds
        the point x + iy (r2 = x*x + y*y) deepest: the least form value
        under MEMBERSHIP_TOL, the earlier entry on equal values; (None,
        None) in none.

        Over all of a factor's entries this is the letter one inverse
        iteration step strips.  Over a letter's tie set it is the same
        letter whenever that letter's form reads under the tolerance,
        because every form that does so too is in the set; so the step over
        x's tie set is x exactly when the step over the factor is.
        """
        best, best_mat, best_val = None, None, MEMBERSHIP_TOL
        for letter, (A, bre, bim, C), mat in entries:
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
        A, bre, bim, C = self._factor_forms[fid]
        entries = self._nav[fid]
        prefix: List[int] = []
        q = p
        while True:
            x, y = q.real, q.imag
            r2 = x * x + y * y
            if not A * r2 + 2.0 * (bre * x + bim * y) + C <= MEMBERSHIP_TOL:
                return tuple(prefix)
            if len(prefix) > self.cap:
                return None
            best, best_mat = self._step(entries, x, y, r2)
            if best is None:
                return None  # inside the disk but outside the dynamics
            prefix.append(best)
            a, b, c, d = best_mat
            denom = c * q + d
            if denom == 0:
                return None
            q = (a * q + b) / denom


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
        if not syllable:
            return None  # a limit point of the factor itself never straddles
        if (fid, syllable) not in vertices:
            vertices[fid, syllable] = W.crossing(group, fid, syllable)[0] ^ 1
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
            labels[key] = (W.crossing(group, fid, reduced)[1]
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
    return W.WhiteheadGraph(group, ball, loops)


def whitehead_graph_sampled_for(rep: Representation, disks: PingPongDisks,
                                cnf: CyclicNormalForm,
                                depth: int) -> WhiteheadGraph:
    return whitehead_graph_sampled(rep, disks, sample_mu(rep, cnf, depth),
                                   depth + cnf.cyclic_length + 2)


def graphs_agree(a: WhiteheadGraph, b: WhiteheadGraph) -> bool:
    """The same group and the same edges: equal ball and loop key sets
    (labels are canonical by construction).  Supports are not compared:
    the combinatorial support counts word occurrences, the sampled one
    counts walked conjugators, so an axis that several conjugators share
    counts once for each."""
    return ((a.group.surface_genera, a.group.free_rank)
            == (b.group.surface_genera, b.group.free_rank)
            and a.ball.keys() == b.ball.keys()
            and a.loops.keys() == b.loops.keys())
