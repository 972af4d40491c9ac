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

Each link letter x has a core unless a premise fails (``_core``): a
threshold tau_x <= 0 on x's own form (its isometric-disk entry for a
surface letter, its ping-pong disk for a free one), proved with the
rounding bound of ``_reach``.  A point reading at most tau_x there reads
above MEMBERSHIP_TOL on every disk ``locate`` tests before x's, a prefix
of the navigator's one ordered disk list; for a surface letter it also
reads within the tolerance on x's factor disk and above it on the
factor's other entries, so the first inverse-iteration step strips x.
One form evaluation thus locates P as ``locate`` does: (fid, (x,)) for a
free letter, and for a surface letter x followed by Q's prefix in the
factor (() when Q lies outside the factor disk), or none when that
exceeds the cap.  Endpoints off the core and pairs without a parent go
through ``locate``, which tests the disks in that order, factor disks
first, and hands a point in a factor disk to ``strip``: the one
inverse-iteration loop, through the generator isometric disks of that
factor, which reads x followed by Q's prefix when its first step strips
x.  Either way each endpoint is located once, and no point is looked up
by its coordinates.
"""

from __future__ import annotations

import math
from collections import Counter
from typing import Dict, List, Optional, Tuple

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


def _reach(form: Tuple[float, float, float, float], t: float):
    """(c, |c|, rho, sigma, R^2) for an (A, Re B, Im B, C) form read at
    level t: a point z where the form, evaluated as ``_Navigator._step`` does,
    reads at most t lies in the disk D(c, rho), and every point of
    D(c, sigma) reads at most t.  None unless A > 0 and the form's scale
    S = |R^2| + 8|c|^2 + |t|/A has 1e-280 < A S and S max(A, 1) < 1e300.

    For A > 0, F(z) = A|z|^2 + 2 Re(conj(B) z) + C = A(|z - c|^2 - R^2)
    with c = -B/A and R^2 = (|B|^2 - AC)/A^2 (possibly negative).  Every
    term of ``A * r2 + 2.0 * (bre * x + bim * y) + C`` passes at most five
    roundings, so |fl F(z) - F(z)| <= gamma (A|z|^2 + 2|B||z| + |C|) with
    gamma = 5u/(1 - 5u), u = 2^-53.  With |B| = A|c|,
    |C| <= A(|c|^2 + |R^2|) and |z| <= d + |c| for d = |z - c|, the
    bracket is at most A((d + 2|c|)^2 + |R^2|) <= A(2d^2 + 8|c|^2 + |R^2|).
    So fl F(z) <= t forces d^2 <= R^2 + t/A + 3 gamma' S, and
    d^2 <= R^2 + t/A - 3 gamma S forces fl F(z) <= t
    (gamma' = gamma/(1 - 2 gamma)).  In doubles, R^2, t/A and S carry
    errors of a few u times S (the cancellation in |B|^2 - AC included),
    so rho^2 = R^2 + t/A + 1e-13 S and sigma^2 = R^2 + t/A - 1e-13 S, as
    computed, keep both implications with room.

    The premise keeps the model exact enough.  Where A r2 evaluates
    finite, |z|^2 < 2^1025/A, so the middle term stays below
    2 sqrt(A|c|^2) 2^513 < 2^1013: fl F is never -inf, and an overflowing
    evaluation reads +inf or nan, which no "at most" test passes.  On
    D(c, sigma) every operand stays below 1e302, so nothing overflows.
    Subnormal results add at most 2^-1071 in all, far below the room
    1e-14 A S.
    """
    A, bre, bim, C = form
    if not A > 0:
        return None
    c = complex(-bre / A, -bim / A)
    c2 = c.real * c.real + c.imag * c.imag
    r2 = (bre * bre + bim * bim - A * C) / (A * A)
    level = r2 + t / A
    scale = abs(r2) + 8.0 * c2 + abs(t / A)
    if not (1e-280 < A * scale and scale * max(A, 1.0) < 1e300):
        return None
    return (c, math.sqrt(c2), math.sqrt(max(level + 1e-13 * scale, 0.0)),
            math.sqrt(max(level - 1e-13 * scale, 0.0)), r2)


def _core(form: Tuple[float, float, float, float], own: tuple,
          avoid: list, inside: Optional[tuple] = None) -> Optional[float]:
    """The threshold tau <= 0 on a letter's form that proves the letter's
    core; None when a premise fails.

    ``own`` is the form's ``_reach`` at MEMBERSHIP_TOL, ``avoid`` holds
    that of every form the core must read above the tolerance on (the
    disks before the letter's own in ``_Navigator._disks``, a prefix of
    that list, and for a surface letter the factor's other isometric
    entries), and ``inside``, for a surface letter, that of the factor
    form it must read within the tolerance on.  Let r be the least of,
    computed in doubles with g = 1e-13,

        (|c - c_y| - g(|c| + |c_y|))/(1 + g) - rho_y     per avoided y,
        (sigma_f - g(|c| + |c_f|))/(1 + g) - |c - c_f|   for ``inside``,

    and tau = min(A(r^2 - R^2 - 3g Y), 0) with Y = |R^2| + 8|c|^2 + r^2
    (tau = 0 when r^2 is not finite).  A core needs every reach defined (a
    form with A <= 0 or outside the scale premise has none), r > 0, and
    the form inside ``_reach``'s premise at tau.

    Lemma: every P with fl F(P) <= tau lies within r of c, reads above
    the tolerance on every avoided form and at most the tolerance on
    ``inside``.  By ``_reach`` at t = tau, d^2 = |P - c|^2 <= R^2 + tau/A
    + 3 gamma' S_tau with S_tau <= 2Y, which the 3g Y taken off tau
    exceeds even after the roundings of tau (a few u Y): d < r (when r^2
    overflows, d^2 <= R^2 + 3 gamma' S_0 < 1e300 < r^2).  Each double
    operation in r adds a relative error of at most u to a quantity
    bounded by |c| + |c_y| + |c - c_y| (or |c| + |c_f| + sigma_f), as do
    the centres' own roundings; the excess of g over them covers every
    one.  So |c - c_y| > r + rho_y exactly, and |P - c_y| > rho_y: P reads
    above the tolerance on y.  Likewise |P - c_f| < |c - c_f| + r <=
    sigma_f: P reads at most the tolerance on f.
    """
    if own is None or None in avoid:
        return None
    c, abs_c, _, _, r2 = own
    r = math.inf
    for cy, abs_cy, rho, _, _ in avoid:
        r = min(r, (abs(c - cy) - 1e-13 * (abs_c + abs_cy)) / (1.0 + 1e-13)
                - rho)
    if inside is not None:
        cf, abs_cf, _, sigma, _ = inside
        r = min(r, (sigma - 1e-13 * (abs_c + abs_cf)) / (1.0 + 1e-13)
                - abs(c - cf))
    if not r > 0:
        return None
    tau = form[0] * (r * r - r2
                     - 3e-13 * (abs(r2) + 8.0 * abs_c * abs_c + r * r))
    tau = tau if tau < 0.0 else 0.0  # also when r * r overflows (nan)
    return None if _reach(form, tau) is None else tau


class _Navigator:
    """Locations of the points of one graph; a point is navigated only in
    the factor disk that holds it, from its parent's location when the
    first strip undoes the link's letter.

    ``_disks`` lists the first-level disks in the order ``locate`` tests
    them, as (fid, letter, form): the factor disks by fid (letter None;
    a checked layout has one per surface factor, so factor fid's is
    ``_disks[fid]``), then the free letters' disks by letter.  The disks
    ``locate`` tests before a letter's own are thus a prefix of the list.
    Disk forms and inverse generator matrices are flattened to float and
    complex tuples.  Per letter with a core (``_core``): its form, tau,
    its factor id and, for a free letter, its location.
    """

    def __init__(self, rep: Representation, disks: PingPongDisks, cap: int):
        group = rep.group
        self.cap = cap
        self._disks = [(fid, None, (d.A, d.B.real, d.B.imag, d.C))
                       for fid, d in sorted(disks.factor.items())]
        self._disks += [(group.letter_factor(letter), letter,
                         (d.A, d.B.real, d.B.imag, d.C))
                        for letter, d in sorted(disks.free.items())]
        self._nav: List[list] = []   # by fid: [(letter, form, inv matrix)]
        for fid in range(group.n_surface):
            entries = []
            for letter in group.factor_letters(fid):
                minv = rep.image(letter).inverse()
                idisk = isometric_disk(minv)
                entries.append((letter,
                                (idisk.A, idisk.B.real, idisk.B.imag, idisk.C),
                                (minv.a, minv.b, minv.c, minv.d)))
            self._nav.append(entries)
        self._cores: List[Optional[tuple]] = [None] * group.n_letters

        def add_core(letter, form, fid, own, avoid, inside=None):
            tau = _core(form, own, avoid, inside)
            if tau is not None:
                self._cores[letter] = (*form, tau, fid,
                                       None if inside else (fid, (letter,)))

        reach = [_reach(form, MEMBERSHIP_TOL) for _, _, form in self._disks]
        for i, (fid, letter, form) in enumerate(self._disks):
            if letter is not None:
                add_core(letter, form, fid, reach[i], reach[:i])
            elif reach[i] is not None:
                own = [_reach(f, MEMBERSHIP_TOL) for _, f, _ in self._nav[fid]]
                for k, (x, f, _) in enumerate(self._nav[fid]):
                    add_core(x, f, fid, own[k],
                             reach[:i] + own[:k] + own[k + 1:], reach[i])

    def locate(self, p: complex, x: int = -1,
               lq: Location = None) -> Location:
        """(fid, first syllable) of the first disk of ``_disks`` holding the
        point: the surface prefix (``strip``) in a factor disk, (letter,) in
        a free letter's disk; None outside every disk.

        With a parent link, p = x(q) and lq is the location of q, the
        matching endpoint of the linked pair; ``strip`` reads p's prefix
        off lq when its first step strips x.
        """
        px, py = p.real, p.imag
        r2 = px * px + py * py
        for fid, letter, (A, bre, bim, C) in self._disks:
            if A * r2 + 2.0 * (bre * px + bim * py) + C <= MEMBERSHIP_TOL:
                if letter is None:
                    return fid, self.strip(fid, p, x, lq)
                return fid, (letter,)
        return None

    def _after(self, fid: int, x: int, lq: Location) -> Location:
        """Location in factor fid of x(q) whose first strip is x: x followed
        by q's prefix there, () when lq puts q outside it; a None prefix
        when that exceeds the cap."""
        rest = lq[1] if lq is not None and lq[0] == fid else ()
        if rest is None or len(rest) > self.cap:
            return fid, None
        return fid, (x,) + rest

    def locations(self, mu: MuSpec) -> List[Tuple[Location, Location]]:
        """Locations of both endpoints of every sampled pair, in order, each
        linked pair located from the locations of its parent pair: by one
        evaluation of the link letter's form on its core, by ``locate``
        off it."""
        located: List[Tuple[Location, Location]] = []
        cores, locate, after = self._cores, self.locate, self._after
        for (x, j), (p, q) in zip(
                mu.parent_links or [(-1, -1)] * len(mu.sampled_pairs),
                mu.sampled_pairs):
            if j < 0:
                located.append((locate(p), locate(q)))
                continue
            lp, lq = located[j]
            core = cores[x]
            if core is None:
                located.append((locate(p, x, lp), locate(q, x, lq)))
                continue
            # both endpoints written out: a call per endpoint costs ~25%
            A, bre, bim, C, tau, fid, free = core
            px, py = p.real, p.imag
            if A * (px * px + py * py) + 2.0 * (bre * px + bim * py) + C > tau:
                lp = locate(p, x, lp)
            else:
                lp = free or after(fid, x, lp)
            px, py = q.real, q.imag
            if A * (px * px + py * py) + 2.0 * (bre * px + bim * py) + C > tau:
                lq = locate(q, x, lq)
            else:
                lq = free or after(fid, x, lq)
            located.append((lp, lq))
        return located

    def strip(self, fid: int, p: complex, x: int = -1,
              lq: Location = None) -> Optional[Word]:
        """Maximal factor-fid prefix of the infinite word of a point in the
        factor disk, by inverse iteration.

        Each step strips the letter whose generator isometric disk holds
        the point deepest: the least form value under MEMBERSHIP_TOL, the
        earlier entry on equal values.  When the first step strips the
        link letter x, the prefix is x followed by q's prefix (``_after``,
        p = x(q), lq the location of q): the step leaves x^-1(p), which is
        q up to rounding, and verified factor disks are disjoint with a
        margin, so lq stands for that point's location unless it lies
        within rounding of a disk boundary.  The differential tests
        against memo-free inverse iteration check the prefixes.

        The caller has found p in the factor disk; only the points a step
        moves are tested again, and the prefix ends at the first that
        leaves the disk.  None when no isometric disk holds a point, or
        when stripping does not leave the disk within the cap (a limit
        point of the factor itself).  The cap must stay small: inverse
        iteration expands numerical error, so a genuine circle point
        drifts off the invariant circle after a few dozen strips, while
        legitimate prefixes are never longer than the conjugating depth
        plus one syllable.
        """
        A, bre, bim, C = self._disks[fid][2]
        prefix: List[int] = []
        q = p
        while True:
            qx, qy = q.real, q.imag
            r2 = qx * qx + qy * qy
            if prefix and not (A * r2 + 2.0 * (bre * qx + bim * qy) + C
                               <= MEMBERSHIP_TOL):
                return tuple(prefix)
            if len(prefix) > self.cap:
                return None
            best, best_mat, best_val = None, None, MEMBERSHIP_TOL
            for letter, (eA, ebre, ebim, eC), mat in self._nav[fid]:
                val = eA * r2 + 2.0 * (ebre * qx + ebim * qy) + eC
                if val < best_val:
                    best, best_mat, best_val = letter, mat, val
            if best is None:
                return None  # inside the disk but outside the dynamics
            if best == x and not prefix:
                return self._after(fid, x, lq)[1]
            prefix.append(best)
            a, b, c, d = best_mat
            denom = c * q + d
            if denom == 0:
                return None
            q = (a * q + b) / denom


def whitehead_graph_sampled(rep: Representation, disks: PingPongDisks,
                            mu: MuSpec, max_prefix: int) -> WhiteheadGraph:
    """Whitehead graph of sampled endpoint pairs for the standard system.

    Requires a passing ping-pong certificate made for these disks and
    this representation.
    """
    disks.require_verified(rep)
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
