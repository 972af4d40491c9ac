"""Separability of elements: complete decision in free groups via Whitehead
peak reduction, one-sided certificates in mixed free products via the
Whitehead-graph dichotomy.

The free-group decision: peak-reduce (any length-decreasing move, repeat;
a local minimum is globally minimal), then breadth-first search of the
minimal level set under length-preserving moves.  The element is separable
exactly when some minimal form omits a generator.  Two sound shortcuts skip
the search: an omitting reduced form settles Separable, and Whitehead's
cut-vertex lemma settles NotSeparable.  The lemma says that the Whitehead
graph of a cyclically reduced word in a proper free factor is disconnected
or has a cut vertex (Whitehead 1936; Stallings, "Whitehead graphs on
handlebodies", 1999), so a connected graph without a cut vertex certifies
non-separability.
"""

from __future__ import annotations

import functools
import itertools
from dataclasses import dataclass, field
from typing import List, Optional, Sequence, Set, Tuple

from sepstab import groups as G
from sepstab import whitehead as W
from sepstab.groups import GroupSpec, TrivialElement, Word, inv


class SeparabilityError(Exception):
    pass


@dataclass(frozen=True)
class WhiteheadMove:
    """A letter permutation or a Type II move (multiplier, cut set)."""
    kind: str                      # "permutation" | "type2"
    perm: Tuple[int, ...] = ()     # letter -> letter table (permutation)
    multiplier: int = -1           # type2 multiplier letter a
    cut: frozenset = frozenset()   # type2 set Z with a in Z, a^-1 not in Z

    def apply_letter(self, x: int) -> Word:
        if self.kind == "permutation":
            return (self.perm[x],)
        a = self.multiplier
        if x == a or x == inv(a):
            return (x,)
        out = []
        if inv(x) in self.cut:
            out.append(inv(a))
        out.append(x)
        if x in self.cut:
            out.append(a)
        return tuple(out)

    def apply(self, word: Word) -> Word:
        out = []
        for x in word:
            out.extend(self.apply_letter(x))
        return G.free_reduce(tuple(out))


def _cyclic_word(word: Word) -> Word:
    """Cyclically reduce a plain free word."""
    w = G.free_reduce(word)
    while len(w) >= 2 and w[0] == inv(w[-1]):
        w = w[1:-1]
    return w


def _min_rotation(word: Word) -> Word:
    if not word:
        return word
    return min(word[k:] + word[:k] for k in range(len(word)))


def whitehead_moves(rank: int) -> List[WhiteheadMove]:
    """Complete move set for F_rank: signed letter permutations and all
    Type II moves, deduplicated by their action on the letters."""
    if rank < 2:
        raise SeparabilityError("rank must be at least 2")
    letters = list(range(2 * rank))
    moves: List[WhiteheadMove] = []
    seen_actions: Set[tuple] = set()

    def add(move: WhiteheadMove):
        action = tuple(move.apply_letter(x) for x in letters)
        if action not in seen_actions:
            seen_actions.add(action)
            moves.append(move)

    # signed permutations: permute generator indices, flip any signs
    for perm in itertools.permutations(range(rank)):
        for flips in itertools.product((0, 1), repeat=rank):
            table = [0] * (2 * rank)
            for i in range(rank):
                j, f = perm[i], flips[i]
                table[2 * i] = 2 * j + f
                table[2 * i + 1] = 2 * j + (1 - f)
            add(WhiteheadMove("permutation", perm=tuple(table)))

    # Type II moves: multiplier a, cut Z with a in Z, a^-1 not in Z
    for a in letters:
        others = [x for x in letters if x not in (a, inv(a))]
        for mask in range(1 << len(others)):
            cut = {a}
            for i, x in enumerate(others):
                if mask >> i & 1:
                    cut.add(x)
            add(WhiteheadMove("type2", multiplier=a, cut=frozenset(cut)))
    return moves


@functools.lru_cache(maxsize=None)
def _moves_for(rank: int):
    """(Type II moves, permutation moves) of F_rank, in move order."""
    moves = whitehead_moves(rank)
    return (tuple(m for m in moves if m.kind == "type2"),
            tuple(m for m in moves if m.kind == "permutation"))


def _perm_canonical_with_move(word: Word, perms: Sequence[WhiteheadMove]):
    """Canonical form plus the permutation move realizing it, so witness
    move sequences stay replayable across canonicalization."""
    best = None
    best_move = None
    for p in perms:
        img = _min_rotation(_cyclic_word(p.apply(word)))
        if best is None or img < best:
            best, best_move = img, p
    return best, best_move


def peak_reduce(word: Word, rank: int):
    """Greedy descent to a cyclic word of minimal length in the orbit.

    Returns (minimal cyclic word, move sequence).  First-improvement over
    the deterministic move order; peak reduction makes the local minimum
    global.
    """
    moves, _ = _moves_for(rank)
    current = _cyclic_word(word)
    applied: List[WhiteheadMove] = []
    improved = True
    while improved and current:
        improved = False
        for mv in moves:
            cand = _cyclic_word(mv.apply(current))
            if len(cand) < len(current):
                current = cand
                applied.append(mv)
                improved = True
                break
    return current, applied


def _omitted_generators(word: Word, rank: int) -> List[int]:
    used = {x >> 1 for x in word}
    return [g for g in range(rank) if g not in used]


@dataclass
class SeparabilityVerdict:
    status: str                             # "separable" | "not_separable" | "unknown"
    witness_moves: List[WhiteheadMove] = field(default_factory=list)
    witness_word: Optional[Word] = None     # orbit element omitting a generator
    omitted_generator: Optional[int] = None
    omitted_factor: Optional[int] = None
    single_factor: Optional[int] = None
    witness_graph: Optional[W.WhiteheadGraph] = None
    reason: str = ""

    @property
    def separable(self) -> bool:
        return self.status == "separable"

    def exit_code(self) -> int:
        return {"separable": 0, "not_separable": 1, "unknown": 2}[self.status]


def is_separable_free(word: Word, group: GroupSpec) -> SeparabilityVerdict:
    """Complete decision in a purely free group (never Unknown)."""
    rank = group.free_rank
    if group.n_surface:
        raise SeparabilityError("is_separable_free needs a free group spec")
    w0 = _cyclic_word(word)
    if not w0:
        raise TrivialElement("the identity is not classified")
    type2, perms = _moves_for(rank)
    reduced, applied = peak_reduce(w0, rank)

    omitted = _omitted_generators(reduced, rank)
    if omitted:
        return _checked_separable(
            w0, applied, reduced, omitted[0],
            "peak-reduced form omits a generator")

    # sound quick rejection from the graph of the reduced form
    if _free_graph_certificate(reduced, rank):
        return SeparabilityVerdict(
            "not_separable", witness_word=reduced,
            witness_graph=_graph_of(reduced, group),
            reason="connected, cutpoint-free graph at minimal length")

    # exhaustive level-set search under length-preserving moves,
    # canonicalizing modulo signed permutations and rotation; the
    # canonicalizing permutation joins the move path so witnesses replay
    start, p0 = _perm_canonical_with_move(reduced, perms)
    seen = {start}
    frontier = [(start, applied + [p0])]
    while frontier:
        node, path = frontier.pop()
        for mv in type2:
            img = _cyclic_word(mv.apply(node))
            if len(img) != len(node):
                continue
            omitted = _omitted_generators(img, rank)
            if omitted:
                return _checked_separable(
                    w0, path + [mv], img, omitted[0],
                    "minimal-length orbit element omits a generator")
            canon, p = _perm_canonical_with_move(img, perms)
            if canon not in seen:
                seen.add(canon)
                frontier.append((canon, path + [mv, p]))
    return SeparabilityVerdict(
        "not_separable", witness_word=reduced,
        witness_graph=_graph_of(reduced, group),
        reason="no minimal-length orbit element omits a generator")


def _checked_separable(original: Word, moves, witness_word, omitted,
                       reason) -> SeparabilityVerdict:
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
        omitted_generator=omitted, reason=reason)


def _graph_of(word: Word, group: GroupSpec) -> W.WhiteheadGraph:
    cnf, _ = G.cyclic_reduce(word, group)
    return W.whitehead_graph_combinatorial(cnf, group)


def _free_graph_certificate(word: Word, rank: int) -> bool:
    """Cut-vertex lemma on a cyclically reduced word: its Whitehead graph,
    on the letter ids with an edge (x_i, x_{i+1}^-1) per cyclic position,
    is connected and has no cut vertex."""
    n = len(word)
    return W.is_biconnected(
        2 * rank, [(word[i], inv(word[(i + 1) % n])) for i in range(n)])


def is_separable(word: Word, group: GroupSpec) -> SeparabilityVerdict:
    """Separability in a general free product.

    Separable with witness when the cyclic form sits in a visible proper
    factor; NotSeparable when every Whitehead-graph component is strongly
    connected without strong cutpoints; Unknown otherwise.
    """
    if not group.n_surface:
        return is_separable_free(word, group)
    cnf, _ = G.cyclic_reduce(word, group)  # raises TrivialElement
    fids_used = {fid for fid, _ in cnf.syllables}
    single = cnf.single_factor()
    if single is not None:
        return SeparabilityVerdict(
            "separable", single_factor=single,
            reason="single-syllable class lies in one factor")
    missing = [f.index for f in group.factors if f.index not in fids_used]
    if missing:
        return SeparabilityVerdict(
            "separable", omitted_factor=missing[0],
            reason="class omits a factor, so it lies in the factor "
                   "generated by the others")
    wh = W.whitehead_graph_combinatorial(cnf, group)
    strong = W.is_strongly_connected(wh)
    cuts = W.strong_cutpoints(wh)
    if all(flag for flag, _ in strong.values()) and not any(cuts.values()):
        return SeparabilityVerdict(
            "not_separable", witness_graph=wh,
            reason="every component strongly connected without strong "
                   "cutpoints")
    return SeparabilityVerdict(
        "unknown", witness_graph=wh,
        reason="graph certificate inconclusive for a mixed free product")
