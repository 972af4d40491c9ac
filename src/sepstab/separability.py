"""Separability of elements: complete decision in free groups via Whitehead
peak reduction, one-sided certificates in mixed free products via the
Whitehead-graph dichotomy.

The free-group decision reads its moves off the Whitehead graph Wh(w) of a
cyclically reduced word: the letters are its vertices, and
``whitehead.cyclic_links`` gives one edge per cyclic position.  The
Whitehead move (A, a), with a in A and a^-1 not in A, changes the cyclic
length by cap(A) - deg(a), cap(A) counting the edges that leave A
(Lyndon-Schupp, Combinatorial Group Theory, I.4).  So a move shortens w
exactly when it comes from an a / a^-1 edge cut smaller than deg(a), found
by augmenting paths.  Peak reduction applies such moves until none is
left; by Whitehead's theorem the result has minimal length in its
Aut(F_r) orbit.

At minimal length a word using every generator has a connected graph
without a cut vertex: a component not closed under inversion, or a cut
vertex v with a component of Wh(w) - v avoiding v^-1, would be a
shortening A.  By Whitehead's cut-vertex lemma (Whitehead 1936; Stallings,
"Whitehead graphs on handlebodies", 1999) such a word lies in no proper
free factor.  So the element is separable exactly when its minimal form
omits a generator, and no search of the minimal level set remains.

Both certificates read one predicate, ``_graph_certificate``: the
``whitehead.cyclic_links`` of a crossing sequence form one piece without
a cut vertex.  A free word's letters are their own crossings; a
mixed-product class has the sequence of ``whitehead.crossings``.

In mixed products the certificate runs only in S_g * Z, on a class of two
or more syllables using both factors.  Lemma: its ball has the four
vertices D+-, Dt+-, and each surface syllable is flanked by free ones, so
no edge joins D+ to D-.  So the ball is one piece without a cut vertex
exactly when all four cross edges D+- -- Dt+- occur.  That needs two
t-syllables in the class's primitive root, whose links are the class's.
A separable class is not such: the proper free factor holding it is
infinite cyclic or a conjugate of S_g (Grushko, Kurosh), so with two or
more syllables it is a power of h, where t -> h, S_g -> w S_g w^-1 is an
automorphism.  The Fouxe-Rabinovitch generators (factor automorphisms,
t -> t^-1, t -> u t, t -> t u and partial conjugations) keep the set of
classes u t^+-1, u in S_g, so h is one and its root has one t-letter.
On S_g * Z the certificate is the ``whitehead`` module's "every component
strongly connected without strong cutpoints", the surface loops always
passing.  With three or more factors neither rule is sound: both accept
A1 B1 t1 A1 t2 b1 T2 a1 T1 b1 t2 B1 t1 in S2 * F2, an automorphic image of
the separable t1 t2.  So with three or more factors a class using all of
them is unknown.
"""

from __future__ import annotations

from math import gcd
from typing import (Dict, Iterator, List, NamedTuple, Optional, Sequence, Set,
                    Tuple)

from sepstab import groups as G
from sepstab import whitehead as W
from sepstab.groups import GroupSpec, TrivialElement, Word, inv


class SeparabilityError(Exception):
    pass


class WhiteheadMove(NamedTuple):
    """A Whitehead automorphism as its action table: images[x] is the
    image word of letter x."""
    images: Tuple[Word, ...]

    def apply(self, word: Word) -> Word:
        out: List[int] = []
        for x in word:
            out += self.images[x]
        return G.free_reduce(out)


def _cyclic_word(word: Word) -> Word:
    """Cyclically reduce a plain free word."""
    w = G.free_reduce(word)
    while len(w) >= 2 and w[0] == inv(w[-1]):
        w = w[1:-1]
    return w


def _shortening_side(graph: List[Dict[int, int]],
                     a: int) -> Optional[Set[int]]:
    """Source side of a minimum a / a^-1 edge cut of the Whitehead graph
    (edge multiplicities graph[x][y]) when the cut is smaller than deg(a),
    else None.  Edmonds-Karp on the undirected multigraph."""
    residual = [dict(links) for links in graph]
    target, deg, flow = inv(a), sum(graph[a].values()), 0
    while flow < deg:
        parent = {a: a}
        queue = [a]
        for u in queue:
            for v, c in residual[u].items():
                if c and v not in parent:
                    parent[v] = u
                    queue.append(v)
        if target not in parent:
            return set(parent)
        path, v = [], target
        while v != a:
            path.append((parent[v], v))
            v = parent[v]
        push = min(residual[u][v] for u, v in path)
        for u, v in path:
            residual[u][v] -= push
            residual[v][u] += push
        flow += push
    return None


def _shortening_move(word: Word, rank: int) -> Optional[WhiteheadMove]:
    """A Whitehead move that shortens the cyclically reduced word, if any.
    One letter per generator suffices: deg(a) = deg(a^-1), and the
    complement of an a / a^-1 cut is an a^-1 / a cut of the same size."""
    graph: List[Dict[int, int]] = [{} for _ in range(2 * rank)]
    for x, y in W.cyclic_links(word):
        graph[x][y] = graph[x].get(y, 0) + 1
        graph[y][x] = graph[y].get(x, 0) + 1
    for a in range(0, 2 * rank, 2):
        side = _shortening_side(graph, a)
        if side is not None:
            # the move (side, a): x goes to a^-1 x if x^-1 is on the side,
            # then to x a if x is; a and a^-1 are fixed
            return WhiteheadMove(tuple(
                (x,) if x >> 1 == a >> 1
                else ((inv(a),) if inv(x) in side else ()) + (x,)
                + ((a,) if x in side else ())
                for x in range(2 * rank)))
    return None


def peak_reduce(word: Word, rank: int):
    """Descent to a cyclic word of minimal length in the Aut(F_rank) orbit.

    Returns (minimal cyclic word, move sequence).  Each step applies the
    move of the first generator whose minimum cut in the Whitehead graph
    is smaller than its degree; when no generator has one, no Whitehead
    move shortens the word, and peak reduction makes it globally minimal.
    """
    current = _cyclic_word(word)
    applied: List[WhiteheadMove] = []
    while (move := _shortening_move(current, rank)) is not None:
        current = _cyclic_word(move.apply(current))
        applied.append(move)
    return current, applied


def _omitted_generators(word: Word, rank: int) -> List[int]:
    used = {x >> 1 for x in word}
    return [g for g in range(rank) if g not in used]


class SeparabilityVerdict:
    def __init__(self, status: str,
                 witness_moves: Optional[List[WhiteheadMove]] = None,
                 witness_word: Optional[Word] = None,
                 omitted_generator: Optional[int] = None,
                 omitted_factor: Optional[int] = None,
                 single_factor: Optional[int] = None, reason: str = ""):
        self.status = status    # "separable" | "not_separable" | "unknown"
        self.witness_moves = [] if witness_moves is None else witness_moves
        self.witness_word = witness_word  # orbit element omitting a generator
        self.omitted_generator = omitted_generator
        self.omitted_factor = omitted_factor
        self.single_factor = single_factor
        self.reason = reason

    @property
    def separable(self) -> bool:
        return self.status == "separable"

    def exit_code(self) -> int:
        return {"separable": 0, "not_separable": 1, "unknown": 2}[self.status]


def is_separable_free(word: Word, group: GroupSpec) -> SeparabilityVerdict:
    """Complete decision in a purely free group (never Unknown).

    Peak-reduce; the element is separable exactly when the minimal form
    omits a generator, with the moves as a replayable witness.  A minimal
    form that uses every generator has a connected, cutpoint-free graph
    (module docstring), which certifies non-separability; the certificate
    is checked rather than assumed, and no search follows it.  A letter
    outside the group raises LetterOutOfRange.
    """
    rank = group.free_rank
    if group.n_surface:
        raise SeparabilityError("is_separable_free needs a free group spec")
    group.check_letters(word)
    w0 = _cyclic_word(word)
    if not w0:
        raise TrivialElement("the identity is not classified")
    reduced, applied = peak_reduce(w0, rank)
    omitted = _omitted_generators(reduced, rank)
    if omitted:
        return _checked_separable(w0, applied, reduced, omitted[0])
    if _graph_certificate(reduced, rank):
        return SeparabilityVerdict(
            "not_separable", witness_word=reduced,
            reason="connected, cutpoint-free graph at minimal length")
    raise SeparabilityError(
        "internal error: a minimal word using every generator has a "
        "disconnected graph or a cut vertex")


def _checked_separable(original: Word, moves, witness_word,
                       omitted) -> SeparabilityVerdict:
    """Replay the witness on the input; the omission must come out exactly."""
    w = _cyclic_word(original)
    for mv in moves:
        w = _cyclic_word(mv.apply(w))
    used = {x >> 1 for x in w}
    if omitted in used:
        raise SeparabilityError(
            "internal error: separability witness fails to replay")
    return SeparabilityVerdict(
        "separable", witness_moves=list(moves), witness_word=witness_word,
        omitted_generator=omitted,
        reason="peak-reduced form omits a generator")


def _graph_certificate(crossings: Sequence[int], n_factors: int) -> bool:
    """Cut-vertex lemma on a crossing sequence: the ball graph on the
    2 n_factors vertices, with the ``whitehead.cyclic_links`` of the
    sequence as edges, is connected and has no cut vertex."""
    blocks = W.block_structure(2 * n_factors, W.cyclic_links(crossings))
    return len(blocks.pieces) == 1 and not blocks.cut_vertices


def is_separable(word: Word, group: GroupSpec) -> SeparabilityVerdict:
    """Separability in a general free product: is_separable_free in a
    free group, else is_separable_mixed on the cyclic normal form."""
    if not group.n_surface:
        return is_separable_free(word, group)
    cnf = G.cyclic_reduce(word, group)  # raises TrivialElement
    return is_separable_mixed(cnf, group)


def is_separable_mixed(cnf: G.CyclicNormalForm,
                       group: GroupSpec) -> SeparabilityVerdict:
    """is_separable's decision for a class in cyclic normal form, in a
    group with a surface factor (module docstring)."""
    fids_used = {fid for fid, _ in cnf.syllables}
    if len(fids_used) == 1:
        return SeparabilityVerdict(
            "separable", single_factor=next(iter(fids_used)),
            reason="single-syllable class lies in one factor")
    missing = [fid for fid in range(group.n_factors) if fid not in fids_used]
    if missing:
        return SeparabilityVerdict(
            "separable", omitted_factor=missing[0],
            reason="class omits a factor, so it lies in the factor "
                   "generated by the others")
    if group.n_factors > 2:
        return SeparabilityVerdict(
            "unknown", reason="no graph certificate with three or more "
                              "factors")
    if _graph_certificate(W.crossings(cnf, group)[0], 2):
        return SeparabilityVerdict(
            "not_separable",
            reason="every component strongly connected without strong "
                   "cutpoints")
    return SeparabilityVerdict(
        "unknown",
        reason="graph certificate inconclusive for a mixed free product")


def swept_classes(group: GroupSpec, max_len: int
                  ) -> Iterator[Tuple[G.CyclicNormalForm, str]]:
    """(class, separability status) for every class of cyclic length
    <= max_len not proven non-separable, in enumerate_elements order.

    In general this filters enumerate_elements through is_separable's
    decision.  An enumerated class is already in cyclic normal form, so
    it skips is_separable's reduction, and with three or more factors it
    keeps every class, as a class using all factors is unknown.  In a
    rank-2 free group it generates the separable classes instead, the
    powers r^k of the primitive classes r, with the same output:

    1. In F2 a proper free factor is trivial or <p> with p primitive, so g
       is separable iff g ~ p^k with p primitive and k >= 1 (p^-1 is
       primitive too).
    2. Primitive classes correspond one to one to primitive vectors
       (p, q) in Z^2 under abelianisation (Osborne-Zieschang, Invent.
       Math. 63, 1981; Cohen-Metzler-Zimmermann 1981): the lower
       Christoffel word with |p| a's and |q| b's, a flipped to A when
       p < 0 and b to B when q < 0.  So there are 4 primitive classes of
       length 1 and 4 phi(n) of length n >= 2.
    3. Each such word uses each letter with one sign only, so it is
       cyclically reduced.  Its least rotation r is aperiodic, so r^k is
       a necklace, which is exactly what the surface-free branch of
       enumerate_elements yields.
    4. That walk yields free classes by length, then lexicographically,
       and is_separable_free is complete, so F2 has no unknowns to lose.
    """
    if group.n_surface or group.free_rank != 2:
        for cnf in G.enumerate_elements(group, max_len):
            status = (is_separable_mixed(cnf, group) if group.n_surface else
                      is_separable_free(cnf.letters(), group)).status
            if status != "not_separable":
                yield cnf, status
        return
    words = []
    for n in range(1, max_len + 1):
        for p in range(-n, n + 1):
            for q in {n - abs(p), abs(p) - n}:  # |p| + |q| = n
                if gcd(p, q) != 1:
                    continue
                a, b, m = 0 if p > 0 else 1, 2 if q > 0 else 3, abs(q)
                word = tuple(a if i * m // n == (i - 1) * m // n else b
                             for i in range(1, n + 1))
                r = min(word[j:] + word[:j] for j in range(n))
                words += [r * k for k in range(1, max_len // n + 1)]
    for w in sorted(words, key=lambda w: (len(w), w)):
        yield G.CyclicNormalForm(tuple(G._factor_runs(w, group))), "separable"
