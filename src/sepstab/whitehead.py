"""Whitehead graphs of conjugacy classes and their analysis.

The meridian model is the canonical boundary-connect-sum system: one disc
per surface factor and one per free letter.  Cutting produces one ball
component and one surface component per surface factor.  The ball keeps a
vertex pair per disc; for surface factors the pair is combinatorial
bookkeeping (the crossing orientation of a factor syllable).  A
component's ``cid`` derives from its ``fid``: "ball" or "surface<fid>".

Ball vertex 2 f is the + side of factor f's disc and 2 f + 1 its - side,
so v ^ 1 is the other side; in a free group these are the letter ids.
``crossing`` puts a free letter on the side of its sign and a surface
syllable w on the + side when dehn_canonical(w) <= dehn_canonical(w^-1);
``cyclic_links`` joins each crossing u to the reverse v^-1 of the
cyclically next crossing v.  Every builder of ball edges reads both rules
from these two functions; ``crossings`` gives a class's crossing sequence
to the combinatorial graph and to the separability certificate.

A ``WhiteheadGraph`` is its edge counts: ``ball`` maps a ball edge (a, b),
a <= b, to its support and ``loops`` maps a surface loop (factor id,
label) to its support.  The support records how many syllable transitions
or sampled pairs, one per walked conjugator, back the edge and only
surfaces in DOT output.  Both builders count into these two maps and
nothing else; the analysis runs on the ids and keys.  ``components`` is
a view built on each read, the one place that turns the counts into
``Edge`` and ``Component`` objects, for DOT output, the CLI report and
inspection.

Strong connectedness follows the cycle-with-nontrivial-label definition on
surface components.  Ball components have trivial label group, where the
notion degenerates: a ball component is strongly connected when it is
connected with min degree >= 2, loops counting twice.  That is the degree
form of "every vertex lies on a cycle"; the two differ only at a vertex of
degree >= 2 whose edges are all bridges.  This degeneration recovers the
classical Whitehead-graph criteria and is an interpretation, not a
quotation.  The analysis is a graph report: the ``separability``
certificate agrees with it on S_g * Z, and with three or more factors it
certifies nothing.  It reports every component strongly connected
without strong cutpoints for A1 B1 t1 A1 t2 b1 T2 a1 T1 b1 t2 B1 t1 in
S2 * F2, an automorphic image of the separable t1 t2.

The ball analysis is one lowpoint DFS (``block_structure``) over the ball
edge keys, which yields the connected pieces, bridges and cut vertices.
In a strongly connected ball piece a split at v can only fail on a side
where v keeps a single edge, so its strong cutpoints are exactly the
endpoints of its bridges.  Each surface component has exactly one vertex,
so its cycles are its loops: it is read from its loop keys alone, and it
is strongly connected when some loop label is nontrivial.
"""

from __future__ import annotations

from collections import Counter
from typing import (Dict, FrozenSet, List, Mapping, NamedTuple, Optional,
                    Sequence, Set, Tuple)

from sepstab import groups as G
from sepstab.groups import CyclicNormalForm, GroupSpec, Word


class WhiteheadError(Exception):
    pass


class NotCyclicallyReduced(WhiteheadError):
    pass


class DiscVertex(NamedTuple):
    disc: str          # disc name, e.g. "D1", "Dt1"
    side: int          # +1 / -1 on the ball, 0 for the interior copy

    def label(self) -> str:
        if self.side == 0:
            return self.disc
        return self.disc + ("+" if self.side > 0 else "-")


class Edge(NamedTuple):
    """Undirected edge; label is the canonical spelling of {g, g^-1} for
    surface components and () on the ball."""
    u: DiscVertex
    v: DiscVertex
    label: Word = ()
    support: int = 1

    def key(self):
        uu, vv = sorted((self.u, self.v))
        return (uu, vv, self.label)


class Component:
    def __init__(self, fid: Optional[int], vertices: Tuple[DiscVertex, ...],
                 edges: Tuple[Edge, ...] = ()):
        self.fid = fid            # surface factor id; None on the ball
        self.vertices = vertices
        self.edges = edges

    @property
    def cid(self) -> str:
        return "ball" if self.fid is None else f"surface{self.fid}"


class WhiteheadGraph:
    """The edge counts of a Whitehead graph: ``ball`` maps ball vertex ids
    (a, b), a <= b, to supports; ``loops`` maps (factor id, canonical
    label) to supports."""

    def __init__(self, group: GroupSpec, ball: Mapping[Tuple[int, int], int],
                 loops: Mapping[Tuple[int, Word], int]):
        self.group = group
        self.ball = ball
        self.loops = loops

    @property
    def components(self) -> Tuple[Component, ...]:
        """The meridian model carrying the counted edges, each component's
        edges sorted by ``Edge.key``; built anew on each read."""
        model = standard_meridian_model(self.group)
        ball_vertices = model[0].vertices
        edges: Dict[Optional[int], List[Edge]] = {c.fid: [] for c in model}
        for (a, b), support in self.ball.items():
            u, v = sorted((ball_vertices[a], ball_vertices[b]))
            edges[None].append(Edge(u, v, (), support))
        for (fid, label), support in self.loops.items():
            v = model[fid + 1].vertices[0]
            edges[fid].append(Edge(v, v, label, support))
        return tuple(Component(c.fid, c.vertices,
                               tuple(sorted(edges[c.fid], key=Edge.key)))
                     for c in model)

    def component(self, cid: str) -> Component:
        for c in self.components:
            if c.cid == cid:
                return c
        raise KeyError(cid)

    def edge_multiset(self) -> FrozenSet:
        """The set of (cid, u, v, label) over all edges.  Despite the name
        it is a set: supports are left out, because the combinatorial
        support counts word occurrences while the sampled one counts
        walked conjugators, so only the presence of an edge is
        comparable."""
        return frozenset((c.cid,) + e.key()
                         for c in self.components for e in c.edges)


# ---------------------------------------------------------------------------
# meridian model


def _disc_name(group: GroupSpec, fid: int) -> str:
    if fid < group.n_surface:
        return f"D{fid + 1}"
    return f"Dt{fid - group.n_surface + 1}"


def _ball_vertex(group: GroupSpec, v: int) -> DiscVertex:
    return DiscVertex(_disc_name(group, v >> 1), -1 if v & 1 else +1)


def standard_meridian_model(group: GroupSpec) -> List[Component]:
    """Vertex layout of the canonical boundary-connect-sum disc system."""
    ball = tuple(_ball_vertex(group, v) for v in range(2 * group.n_factors))
    return [Component(None, ball)] + [
        Component(fid, (DiscVertex(_disc_name(group, fid), 0),))
        for fid in range(group.n_surface)]


# ---------------------------------------------------------------------------
# combinatorial construction


def crossing(group: GroupSpec, fid: int,
             syllable: Word) -> Tuple[int, Optional[Word]]:
    """(ball vertex, loop label) of a syllable crossing factor fid's disc.
    A free syllable x^k crosses k times at one vertex and has no label; a
    surface syllable w has the least canonical spelling of w and w^-1."""
    if fid >= group.n_surface:
        return 2 * fid + (syllable[0] & 1), None
    wc = G.dehn_canonical(syllable, group, fid)
    wi = G.dehn_canonical(G.word_inverse(syllable), group, fid)
    return 2 * fid + (wi < wc), min(wc, wi)


def cyclic_links(crossings: Sequence[int]) -> List[Tuple[int, int]]:
    """Ball edges (u, v^-1) of each cyclically adjacent pair (u, v) of
    crossing vertices; a free word's letters are their own vertices."""
    return [(u, v ^ 1)
            for u, v in zip(crossings, crossings[1:] + crossings[:1])]


def crossings(cnf: CyclicNormalForm,
              group: GroupSpec) -> Tuple[List[int], Counter]:
    """Crossing sequence of a class and its surface loop counts by
    (factor id, label): a free syllable w crosses its vertex |w| times, a
    surface syllable once, with a loop."""
    sequence: List[int] = []
    loops: Counter = Counter()
    for fid, w in cnf.syllables:
        vertex, label = crossing(group, fid, w)
        if label is None:
            sequence += [vertex] * len(w)
        else:
            sequence.append(vertex)
            loops[fid, label] += 1
    return sequence, loops


def whitehead_graph_combinatorial(cnf: CyclicNormalForm,
                                  group: GroupSpec) -> WhiteheadGraph:
    """Whitehead graph of a conjugacy class for the standard disc system:
    the ``cyclic_links`` of its ``crossings`` on the ball, and its loops.
    A pure single-syllable surface class never leaves its I-bundle and
    produces no edges.
    """
    _check_cyclically_reduced(cnf, group)
    sylls = cnf.syllables
    if len(sylls) == 1 and sylls[0][0] < group.n_surface:
        return WhiteheadGraph(group, {}, {})
    sequence, loops = crossings(cnf, group)
    ball = Counter((min(a, b), max(a, b)) for a, b in cyclic_links(sequence))
    return WhiteheadGraph(group, ball, loops)


def _check_cyclically_reduced(cnf: CyclicNormalForm, group: GroupSpec):
    sylls = cnf.syllables
    if not sylls:
        raise NotCyclicallyReduced("empty class")
    if len(sylls) >= 2 and sylls[0][0] == sylls[-1][0]:
        raise NotCyclicallyReduced("first and last syllables share a factor")
    for fid, w in sylls:
        if fid < group.n_surface:
            if not w or G.dehn_reduce(w, group, fid) != w:
                raise NotCyclicallyReduced("surface syllable not Dehn-reduced")
        elif not w or len(set(w)) != 1:
            raise NotCyclicallyReduced(
                "free syllable must be a nonzero power of one letter")


# ---------------------------------------------------------------------------
# analysis


class Blocks(NamedTuple):
    pieces: List[List[int]]         # connected pieces, in visiting order
    bridges: List[Tuple[int, int]]  # links whose removal splits a piece
    cut_vertices: Set[int]          # vertices whose removal splits a piece


def block_structure(n: int, links: Sequence[Tuple[int, int]]) -> Blocks:
    """One lowpoint DFS (Hopcroft-Tarjan) over vertices 0..n-1 joined by
    undirected ``links``, linear in n plus the number of links.

    Links are told apart by index, so a doubled link is never a bridge and
    a loop changes nothing.  Neighbours are visited in link order, which
    fixes the order of pieces and bridges.
    """
    adj: List[List[Tuple[int, int]]] = [[] for _ in range(n)]
    for i, (a, b) in enumerate(links):
        adj[a].append((b, i))
        adj[b].append((a, i))
    order = [0] * n                 # DFS entry number; 0 while unvisited
    low = [0] * n
    out = Blocks([], [], set())
    clock = 0
    for root in range(n):
        if order[root]:
            continue
        clock += 1
        order[root] = low[root] = clock
        piece = [root]
        stack = [(root, -1, iter(adj[root]))]
        root_children = 0
        while stack:
            x, via, neighbours = stack[-1]
            for y, i in neighbours:
                if i == via:
                    continue
                if not order[y]:
                    clock += 1
                    order[y] = low[y] = clock
                    piece.append(y)
                    stack.append((y, i, iter(adj[y])))
                    break
                low[x] = min(low[x], order[y])
            else:
                stack.pop()
                if not stack:
                    continue
                parent = stack[-1][0]
                low[parent] = min(low[parent], low[x])
                if low[x] > order[parent]:
                    out.bridges.append(links[via])
                if parent == root:
                    root_children += 1
                elif low[x] >= order[parent]:
                    out.cut_vertices.add(parent)
        if root_children > 1:
            out.cut_vertices.add(root)
        out.pieces.append(piece)
    return out


def _analysis(
        wh: WhiteheadGraph) -> Dict[str, Tuple[bool, List[DiscVertex]]]:
    """Per component: whether it is strongly connected, and its strong
    cutpoints.  The ball is one ``block_structure`` over its edge keys,
    with vertex degrees (a loop counts twice); a surface component is read
    from its loop keys."""
    group = wh.group
    degree = [0] * (2 * group.n_factors)
    for a, b in wh.ball:
        degree[a] += 1
        degree[b] += 1
    blocks = block_structure(len(degree), list(wh.ball))
    cuts = {i for link in blocks.bridges for i in link}
    for piece in blocks.pieces:
        ends = [degree[i] for i in piece]
        if max(ends) and min(ends) < 2:  # not a bare vertex, not strong
            cuts.update(piece)
    out = {"ball": (len(blocks.pieces) == 1 and min(degree) >= 2,
                    sorted(_ball_vertex(group, i) for i in cuts))}
    strong: Dict[int, bool] = {}  # factors with loops: a nontrivial label?
    for fid, label in wh.loops:
        strong[fid] = strong.get(fid, False) or bool(
            G.dehn_reduce(label, group, fid))
    for fid in range(group.n_surface):
        s = strong.get(fid)  # None without loops: a bare vertex
        vertex = DiscVertex(_disc_name(group, fid), 0)
        out[f"surface{fid}"] = (s is True, [vertex] if s is False else [])
    return out


def is_strongly_connected(wh: WhiteheadGraph) -> Dict[str, bool]:
    """Per-component verdict: the component is one connected piece and
    that piece is strongly connected."""
    return {cid: strong for cid, (strong, _) in _analysis(wh).items()}


def strong_cutpoints(wh: WhiteheadGraph) -> Dict[str, List[DiscVertex]]:
    """Per-component strong cutpoints.

    A vertex v is a strong cutpoint when the component splits as a union of
    two subgraphs meeting only at v with one side not strongly connected.
    A bare one-vertex side counts as trivially strongly connected, so in a
    piece that itself fails strong connectedness every vertex splits
    against the whole piece and is reported; in a strongly connected piece
    the strong cutpoints are the bridge endpoints.
    """
    return {cid: cuts for cid, (_, cuts) in _analysis(wh).items()}


# ---------------------------------------------------------------------------
# DOT emission


def emit_dot_component(comp: Component, group: GroupSpec) -> str:
    """Deterministic Graphviz text for one component; the support count is
    kept as an edge attribute so multiplicities stay inspectable."""
    lines = [f'graph "{comp.cid}" {{']
    for v in sorted(comp.vertices):
        lines.append(f'  "{v.label()}";')
    for e in sorted(comp.edges, key=lambda e: e.key()):
        attrs = []
        if e.label:
            attrs.append(f'label="{group.format_word(e.label)}"')
        if e.support != 1:
            attrs.append(f'support={e.support}')
        attr_txt = f" [{', '.join(attrs)}]" if attrs else ""
        lines.append(f'  "{e.u.label()}" -- "{e.v.label()}"{attr_txt};')
    lines.append("}")
    return "\n".join(lines) + "\n"


def emit_dot(wh: WhiteheadGraph) -> str:
    """All components, one graph block per component, byte-stable."""
    return "".join(emit_dot_component(c, wh.group) for c in wh.components)
