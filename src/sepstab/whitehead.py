"""Whitehead graphs of conjugacy classes and their analysis.

The meridian model is the canonical boundary-connect-sum system: one disc
per surface factor and one per free letter.  Cutting produces one ball
component and one surface component per surface factor.  The ball keeps a
vertex pair per disc; for surface factors the pair is combinatorial
bookkeeping (the crossing orientation of a factor syllable), chosen so that
the limit-set-sampled construction reproduces the same graphs.

Edges are stored one per distinct (vertex, label, vertex) triple with a
support count; the count records how many syllable transitions or sampled
axis pairs back the edge and only surfaces in DOT output.

Both builders count edges on integer ball vertex ids and (factor, label)
loop keys and hand the counts to ``graph_from_counts``, the one place that
makes ``Edge`` and ``Component`` objects.  Ball vertex 2 f is the + side of
factor f's disc and 2 f + 1 its - side; in a free group these are the
letter ids.

Strong connectedness follows the cycle-with-nontrivial-label definition on
surface components.  Ball components have trivial label group, where the
notion degenerates: a ball component is strongly connected when it is
connected with min degree >= 2, loops counting twice.  That is the degree
form of "every vertex lies on a cycle"; the two differ only at a vertex of
degree >= 2 whose edges are all bridges.  This degeneration recovers the
classical Whitehead-graph criteria and is an interpretation, not a
quotation.

All analysis runs on one lowpoint DFS (``block_structure``), which yields
the connected pieces, bridges and cut vertices.  In a strongly connected
ball piece a split at v can only fail on a side where v keeps a single
edge, so its strong cutpoints are exactly the endpoints of its bridges.
Each surface component has exactly one vertex, so its cycles are its loops
and it is strongly connected when some loop label is nontrivial.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass
from typing import (Dict, FrozenSet, List, Mapping, NamedTuple, Optional,
                    Sequence, Set, Tuple)

from sepstab import groups as G
from sepstab.groups import CyclicNormalForm, GroupSpec, Word, inv


class WhiteheadError(Exception):
    pass


class NotCyclicallyReduced(WhiteheadError):
    pass


@dataclass(frozen=True, order=True)
class DiscVertex:
    component: str     # "ball" or "surface<fid>"
    disc: str          # disc name, e.g. "D1", "Dt1"
    side: int          # +1 / -1 on the ball, 0 for the interior copy

    def label(self) -> str:
        if self.side == 0:
            return self.disc
        return self.disc + ("+" if self.side > 0 else "-")


@dataclass(frozen=True)
class Edge:
    """Undirected edge; label is the canonical spelling of {g, g^-1} for
    surface components and () on the ball."""
    u: DiscVertex
    v: DiscVertex
    label: Word = ()
    support: int = 1

    def key(self):
        uu, vv = sorted((self.u, self.v))
        return (uu, vv, self.label)


@dataclass
class Component:
    cid: str                       # "ball" | "surface<fid>"
    kind: str                      # "ball" | "surface"
    fid: Optional[int]             # surface factor id for surface components
    vertices: Tuple[DiscVertex, ...]
    edges: Tuple[Edge, ...] = ()


@dataclass
class WhiteheadGraph:
    group: GroupSpec
    components: Tuple[Component, ...]

    def component(self, cid: str) -> Component:
        for c in self.components:
            if c.cid == cid:
                return c
        raise KeyError(cid)

    def edge_multiset(self) -> FrozenSet:
        out = []
        for c in self.components:
            for e in c.edges:
                out.append((c.cid,) + e.key())
        return frozenset(out)


@dataclass(frozen=True)
class MuSpec:
    """Endpoint data: sampled axis endpoint pairs."""
    sampled_pairs: Tuple[Tuple[complex, complex], ...] = ()


# ---------------------------------------------------------------------------
# meridian model


def _disc_name(group: GroupSpec, fid: int) -> str:
    f = group.factors[fid]
    if f.kind == "surface":
        surf_index = sum(1 for ff in group.factors[:fid]
                         if ff.kind == "surface") + 1
        return f"D{surf_index}"
    free_index = sum(1 for ff in group.factors[:fid]
                     if ff.kind == "free") + 1
    return f"Dt{free_index}"


def standard_meridian_model(group: GroupSpec) -> List[Component]:
    """Vertex layout of the canonical boundary-connect-sum disc system."""
    ball_vertices = []
    comps: List[Component] = []
    for f in group.factors:
        name = _disc_name(group, f.index)
        ball_vertices.append(DiscVertex("ball", name, +1))
        ball_vertices.append(DiscVertex("ball", name, -1))
    comps.append(Component("ball", "ball", None, tuple(ball_vertices)))
    for f in group.factors:
        if f.kind == "surface":
            name = _disc_name(group, f.index)
            cid = f"surface{f.index}"
            comps.append(Component(
                cid, "surface", f.index,
                (DiscVertex(cid, name, 0),)))
    return comps


# ---------------------------------------------------------------------------
# combinatorial construction


def syllable_orientation(word: Word, group: GroupSpec, fid: int) -> int:
    """Canonical crossing sign of a surface syllable: +1 when the syllable's
    canonical spelling is lexicographically no larger than its inverse's."""
    w = G.dehn_canonical(word, group, fid)
    wi = G.dehn_canonical(G.word_inverse(word), group, fid)
    return 1 if w <= wi else -1


def _hybrid_sequence(cnf: CyclicNormalForm, group: GroupSpec):
    """Cyclic crossing sequence: free syllables at letter level, each
    surface syllable as one oriented crossing of its factor disc."""
    seq = []
    for fid, w in cnf.syllables:
        if group.factors[fid].kind == "free":
            for x in w:
                seq.append(("free", fid, x))
        else:
            seq.append(("surface", fid, w))
    return seq


def ball_vertex(fid: int, sign: int) -> int:
    """Ball vertex id of the ``sign`` side of factor fid's disc."""
    return 2 * fid + (sign < 0)


def free_letter_vertex(group: GroupSpec, letter: int) -> int:
    """Ball vertex id of a free letter: odd letters are inverses."""
    return 2 * group.letter_factor(letter) + (letter & 1)


def _crossing_vertex(group: GroupSpec, item, inverse: bool) -> int:
    kind, fid, payload = item
    if kind == "free":
        return free_letter_vertex(group, inv(payload) if inverse else payload)
    word = G.word_inverse(payload) if inverse else payload
    return ball_vertex(fid, syllable_orientation(word, group, fid))


def _canonical_label(word: Word, group: GroupSpec, fid: int) -> Word:
    """Canonical representative among the spellings of {g, g^-1}."""
    w = G.dehn_canonical(word, group, fid)
    wi = G.dehn_canonical(G.word_inverse(word), group, fid)
    return min(w, wi)


def graph_from_counts(group: GroupSpec,
                      ball: Mapping[Tuple[int, int], int],
                      loops: Mapping[Tuple[int, Word], int]) -> WhiteheadGraph:
    """Components of the meridian model carrying the counted edges.

    ``ball`` counts edges by ball vertex ids (a, b) with a <= b; ``loops``
    counts surface loops by (factor id, canonical label).  Edges come out
    sorted by ``Edge.key``, so both builders emit identical graphs.
    """
    model = standard_meridian_model(group)
    ball_vertices = model[0].vertices
    edges: Dict[Optional[int], List[Edge]] = {c.fid: [] for c in model}
    for (a, b), support in ball.items():
        u, v = sorted((ball_vertices[a], ball_vertices[b]))
        edges[None].append(Edge(u, v, (), support))
    loop_vertex = {c.fid: c.vertices[0] for c in model[1:]}
    for (fid, label), support in loops.items():
        v = loop_vertex[fid]
        edges[fid].append(Edge(v, v, label, support))
    return WhiteheadGraph(group, tuple(
        Component(c.cid, c.kind, c.fid, c.vertices,
                  tuple(sorted(edges[c.fid], key=Edge.key)))
        for c in model))


def whitehead_graph_combinatorial(cnf: CyclicNormalForm,
                                  group: GroupSpec) -> WhiteheadGraph:
    """Whitehead graph of a conjugacy class for the standard disc system.

    Ball edges come from cyclically adjacent crossings (u, v): an edge
    between u's disc side and v^-1's disc side.  A pure single-syllable
    surface class never leaves its I-bundle and produces no edges.  Surface
    components get a loop labeled by each syllable flanked by crossings of
    other factors.
    """
    _check_cyclically_reduced(cnf, group)
    ball: Counter = Counter()
    loops: Counter = Counter()
    seq = _hybrid_sequence(cnf, group)
    n = len(seq)
    single_surface = (n == 1 and seq[0][0] == "surface")
    if not single_surface:
        for i, item in enumerate(seq):
            a = _crossing_vertex(group, item, inverse=False)
            b = _crossing_vertex(group, seq[(i + 1) % n], inverse=True)
            ball[min(a, b), max(a, b)] += 1
            kind, fid, payload = item
            if kind == "surface":
                loops[fid, _canonical_label(payload, group, fid)] += 1
    return graph_from_counts(group, ball, loops)


def _check_cyclically_reduced(cnf: CyclicNormalForm, group: GroupSpec):
    sylls = cnf.syllables
    if not sylls:
        raise NotCyclicallyReduced("empty class")
    if len(sylls) >= 2 and sylls[0][0] == sylls[-1][0]:
        raise NotCyclicallyReduced("first and last syllables share a factor")
    for fid, w in sylls:
        if group.factors[fid].kind == "free":
            if not w or len(set(w)) != 1:
                raise NotCyclicallyReduced(
                    "free syllable must be a nonzero power of one letter")
        else:
            if not w or G.dehn_reduce(w, group, fid) != w:
                raise NotCyclicallyReduced("surface syllable not Dehn-reduced")


# ---------------------------------------------------------------------------
# analysis


class Blocks(NamedTuple):
    pieces: List[List[int]]         # connected pieces, in visiting order
    bridges: List[Tuple[int, int]]  # links whose removal splits a piece
    cut_vertices: Set[int]          # vertices whose removal splits a piece
    tour: List[int]                 # closed walk around each DFS tree


def block_structure(n: int, links: Sequence[Tuple[int, int]]) -> Blocks:
    """One lowpoint DFS (Hopcroft-Tarjan) over vertices 0..n-1 joined by
    undirected ``links``, linear in n plus the number of links.

    Links are told apart by index, so a doubled link is never a bridge and
    a loop changes nothing.  Neighbours are visited in link order; the tour
    enters each vertex and comes back to its parent after each child.
    """
    adj: List[List[Tuple[int, int]]] = [[] for _ in range(n)]
    for i, (a, b) in enumerate(links):
        adj[a].append((b, i))
        adj[b].append((a, i))
    order = [0] * n                 # DFS entry number; 0 while unvisited
    low = [0] * n
    out = Blocks([], [], set(), [])
    clock = 0
    for root in range(n):
        if order[root]:
            continue
        clock += 1
        order[root] = low[root] = clock
        piece = [root]
        out.tour.append(root)
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
                    out.tour.append(y)
                    stack.append((y, i, iter(adj[y])))
                    break
                low[x] = min(low[x], order[y])
            else:
                stack.pop()
                if not stack:
                    continue
                parent = stack[-1][0]
                out.tour.append(parent)
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


def is_biconnected(n: int, links: Sequence[Tuple[int, int]]) -> bool:
    """Connected, and removing any one vertex leaves it connected."""
    blocks = block_structure(n, links)
    return len(blocks.pieces) == 1 and not blocks.cut_vertices


def _analyse(comp: Component) -> Tuple[List[int], Blocks]:
    """Vertex degrees (a loop counts twice) and block structure, with the
    component's vertices numbered by position."""
    index = {v: i for i, v in enumerate(comp.vertices)}
    degree = [0] * len(comp.vertices)
    links = []
    for e in comp.edges:
        a, b = index[e.u], index[e.v]
        degree[a] += 1
        degree[b] += 1
        links.append((a, b))
    return degree, block_structure(len(degree), links)


def _strong_witness(comp: Component, group: GroupSpec, degree: List[int],
                    blocks: Blocks, piece: List[int]) -> Optional[list]:
    """Witness that a connected piece is strongly connected, or None: the
    DFS tour on the ball when no vertex has degree < 2, the first loop with
    a nontrivial label on a (one-vertex) surface component."""
    if comp.kind == "ball":
        if min(degree[i] for i in piece) < 2:
            return None
        return [comp.vertices[i] for i in blocks.tour]
    for e in comp.edges:
        if G.dehn_reduce(e.label, group, comp.fid):
            return [e]
    return None


def is_strongly_connected(wh: WhiteheadGraph) -> Dict[str, Tuple[bool, Optional[list]]]:
    """Per-component verdict with a witness cycle when true."""
    out = {}
    for comp in wh.components:
        degree, blocks = _analyse(comp)
        witness = None
        if len(blocks.pieces) == 1:
            witness = _strong_witness(comp, wh.group, degree, blocks,
                                      blocks.pieces[0])
        out[comp.cid] = (witness is not None, witness)
    return out


def strong_cutpoints(wh: WhiteheadGraph) -> Dict[str, List[DiscVertex]]:
    """Per-component strong cutpoints.

    A vertex v is a strong cutpoint when the component splits as a union of
    two subgraphs meeting only at v with one side not strongly connected.
    A bare one-vertex side counts as trivially strongly connected, so in a
    piece that itself fails strong connectedness every vertex splits
    against the whole piece and is reported; in a strongly connected piece
    the strong cutpoints are the bridge endpoints.
    """
    out = {}
    for comp in wh.components:
        degree, blocks = _analyse(comp)
        cuts = {i for link in blocks.bridges for i in link}
        for piece in blocks.pieces:
            if len(piece) == 1 and not degree[piece[0]]:
                continue  # isolated vertex: nothing to split
            if _strong_witness(comp, wh.group, degree, blocks, piece) is None:
                cuts.update(piece)
        out[comp.cid] = sorted(comp.vertices[i] for i in cuts)
    return out


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
