import itertools

import pytest

from sepstab import groups as G
from sepstab.groups import (CyclicNormalForm, GroupSpec, cyclic_reduce,
                            enumerate_elements)
from sepstab.sampling import graphs_agree
from sepstab.separability import WhiteheadMove
from sepstab.whitehead import (DiscVertex, Edge, NotCyclicallyReduced,
                               WhiteheadGraph, emit_dot, is_strongly_connected,
                               standard_meridian_model, strong_cutpoints,
                               whitehead_graph_combinatorial)

F2 = GroupSpec((), 2)
S2Z = GroupSpec((2,), 1)
TWO_SURF = GroupSpec((2, 3), 1)


def graph_of(text, group=F2):
    cnf = cyclic_reduce(group.parse_word(text), group)
    return whitehead_graph_combinatorial(cnf, group)


def edge_pairs(wh, cid="ball"):
    return sorted((e.u.label(), e.v.label()) for e in wh.component(cid).edges)


class TestMeridianModel:
    def test_f2_single_ball(self):
        comps = standard_meridian_model(F2)
        assert [c.cid for c in comps] == ["ball"]
        assert [v.label() for v in comps[0].vertices] == [
            "Dt1+", "Dt1-", "Dt2+", "Dt2-"]

    def test_s2z_layout(self):
        comps = standard_meridian_model(S2Z)
        assert [c.cid for c in comps] == ["ball", "surface0"]
        assert [v.label() for v in comps[0].vertices] == [
            "D1+", "D1-", "Dt1+", "Dt1-"]
        assert [v.label() for v in comps[1].vertices] == ["D1"]

    def test_two_surfaces_layout(self):
        comps = standard_meridian_model(TWO_SURF)
        assert [v.label() for v in comps[0].vertices] == [
            "D1+", "D1-", "D2+", "D2-", "Dt1+", "Dt1-"]
        assert [c.cid for c in comps] == ["ball", "surface0", "surface1"]
        assert [v.label() for c in comps[1:] for v in c.vertices] == [
            "D1", "D2"]
        comps = standard_meridian_model(GroupSpec((2, 3), 2))
        assert [v.label() for v in comps[0].vertices][4:] == [
            "Dt1+", "Dt1-", "Dt2+", "Dt2-"]


class TestCombinatorial:
    def test_single_letter(self):
        wh = graph_of("a")
        assert edge_pairs(wh) == [("Dt1-", "Dt1+")]
        strong = is_strongly_connected(wh)
        assert strong["ball"] is False  # isolated b vertices

    def test_commutator_four_cycle(self):
        wh = graph_of("a b A B")
        assert len(wh.component("ball").edges) == 4
        strong = is_strongly_connected(wh)
        assert strong["ball"] is True
        assert strong_cutpoints(wh)["ball"] == []

    def test_mixed_word_edges(self):
        wh = graph_of("a1 t1", S2Z)
        assert edge_pairs(wh) == [("D1+", "Dt1-"), ("D1-", "Dt1+")]
        loops = wh.component("surface0").edges
        assert [(e.u.label(), S2Z.format_word(e.label)) for e in loops] == [
            ("D1", "a1")]

    def test_surface_loop_strongly_connected(self):
        wh = graph_of("a1 t1", S2Z)
        strong = is_strongly_connected(wh)
        assert strong["surface0"] is True   # nontrivial label
        assert strong["ball"] is False      # two disjoint edges

    def test_pure_surface_word_has_no_edges(self):
        wh = graph_of("a1 b1", S2Z)
        assert all(not c.edges for c in wh.components)

    def test_squares_word_is_four_cycle(self):
        # the articulation-point oracle on the 4-vertex graph of a a b b:
        # each vertex has degree two on one cycle, so no cut vertex exists
        wh = graph_of("a a b b")
        degs = {}
        for e in wh.component("ball").edges:
            degs[e.u.label()] = degs.get(e.u.label(), 0) + 1
            degs[e.v.label()] = degs.get(e.v.label(), 0) + 1
        assert set(degs.values()) == {2}
        assert is_strongly_connected(wh)["ball"] is True
        assert strong_cutpoints(wh)["ball"] == []

    def test_requires_cyclically_reduced(self):
        from sepstab.groups import CyclicNormalForm
        bad = CyclicNormalForm(((1, (8,)), (0, (0,)), (1, (9,))))
        with pytest.raises(NotCyclicallyReduced):
            whitehead_graph_combinatorial(bad, S2Z)

    @pytest.mark.parametrize("syllables,reason", [
        ((), "empty class"),
        # five letters of the genus-2 relator Dehn-reduce to three
        (((0, S2Z.parse_word("a1 b1 A1 B1 a2")),),
         "surface syllable not Dehn-reduced"),
        (((1, S2Z.parse_word("t1 T1")),),
         "free syllable must be a nonzero power"),
    ], ids=["empty", "surface", "free"])
    def test_not_cyclically_reduced_reasons(self, syllables, reason):
        with pytest.raises(NotCyclicallyReduced, match=reason):
            whitehead_graph_combinatorial(CyclicNormalForm(syllables), S2Z)

    def test_rotation_invariance(self):
        base = graph_of("a b A B b")
        word = F2.parse_word("a b A B b")
        for k in range(1, len(word)):
            rot = word[k:] + word[:k]
            cnf = cyclic_reduce(rot, F2)
            assert graphs_agree(whitehead_graph_combinatorial(cnf, F2), base)

    def test_reversal_symmetry_is_structural(self):
        # undirected edges with {g, g^-1}-canonical labels: the reverse of
        # every edge is the edge itself, checked via inverse-class equality
        from sepstab.groups import word_inverse, canonical_class
        for text, grp in (("a b A B b", F2), ("a1 t1 b1 T1", S2Z)):
            wh = graph_of(text, grp)
            inv_word = word_inverse(grp.parse_word(text))
            cnf = cyclic_reduce(inv_word, grp)
            wh_inv = whitehead_graph_combinatorial(cnf, grp)
            assert graphs_agree(wh, wh_inv)


def test_two_canonical_spellings_per_surface_syllable(monkeypatch):
    """Each surface syllable of a class with more than one syllable costs
    one dehn_canonical call for w and one for w^-1."""
    calls = []
    canonical = G.dehn_canonical

    def counting(word, group, fid):
        calls.append(word)
        return canonical(word, group, fid)
    monkeypatch.setattr(G, "dehn_canonical", counting)
    syllables = 0
    for group, max_len in ((S2Z, 4), (TWO_SURF, 3)):
        for cnf in enumerate_elements(group, max_len):
            if len(cnf.syllables) > 1:
                syllables += sum(1 for fid, _ in cnf.syllables
                                 if fid < group.n_surface)
            whitehead_graph_combinatorial(cnf, group)
    assert syllables > 1000
    assert len(calls) == 2 * syllables


class TestStrongCutpoints:
    def test_two_vertex_single_edge(self):
        wh = graph_of("a")
        cuts = strong_cutpoints(wh)["ball"]
        assert sorted(v.label() for v in cuts) == ["Dt1+", "Dt1-"]

    def test_four_cycle_empty(self):
        assert strong_cutpoints(graph_of("a b A B"))["ball"] == []

    def test_connected_with_articulation(self):
        # a b b: the path Dt1+ - Dt2- - Dt2+ - Dt1- has leaves, so it is not
        # strongly connected and every vertex splits against the whole path
        wh = graph_of("a b b")
        cuts = {v.label() for v in strong_cutpoints(wh)["ball"]}
        assert cuts == {"Dt1+", "Dt1-", "Dt2+", "Dt2-"}

    def test_bridge_endpoints_of_strong_piece(self):
        # two triangles joined by one edge: min degree 2, so strongly
        # connected, and only the bridge endpoints are strong cutpoints
        links = [(0, 1), (1, 2), (0, 2), (2, 3), (3, 4), (4, 5), (3, 5)]
        wh = WhiteheadGraph(TWO_SURF, dict.fromkeys(links, 1), {})
        ball = wh.component("ball")
        v = ball.vertices
        assert [x.label() for x in v] == [
            "D1+", "D1-", "D2+", "D2-", "Dt1+", "Dt1-"]
        assert is_strongly_connected(wh)["ball"] is True
        assert strong_cutpoints(wh)["ball"] == sorted((v[2], v[3]))
        assert _split_cutpoints(ball, TWO_SURF) == sorted((v[2], v[3]))

    def test_leaf_makes_every_vertex_a_cutpoint(self):
        # a triangle with a pendant edge is not strongly connected, so the
        # triangle corners off the bridge are strong cutpoints as well
        links = [(0, 1), (1, 2), (0, 2), (2, 3)]
        wh = WhiteheadGraph(F2, dict.fromkeys(links, 1), {})
        ball = wh.component("ball")
        v = ball.vertices
        assert [x.label() for x in v] == ["Dt1+", "Dt1-", "Dt2+", "Dt2-"]
        assert is_strongly_connected(wh)["ball"] is False
        assert strong_cutpoints(wh)["ball"] == sorted(v)
        assert _split_cutpoints(ball, F2) == sorted(v)


def _pieces(vertices, edges):
    """Connected pieces by breadth-first search."""
    pieces, seen = [], set()
    for root in vertices:
        if root in seen:
            continue
        piece, todo = {root}, [root]
        while todo:
            x = todo.pop()
            for e in edges:
                for a, b in ((e.u, e.v), (e.v, e.u)):
                    if a == x and b not in piece:
                        piece.add(b)
                        todo.append(b)
        seen |= piece
        pieces.append(piece)
    return pieces


def _side_strong(comp, vertices, edges, group):
    """Strong connectedness of one side of a split, from the definition."""
    if len(vertices) == 1 and not edges:
        return True  # a bare vertex
    if len(_pieces(vertices, edges)) != 1:
        return False
    if comp.fid is not None:
        # one vertex: the cycles are the loops
        return any(G.dehn_reduce(e.label, group, comp.fid) for e in edges)
    ends = [x for e in edges for x in (e.u, e.v)]
    return all(ends.count(x) >= 2 for x in vertices)


def _split_cutpoints(comp, group):
    """Strong cutpoints by trying every split of every piece with edges at
    every vertex v: two subgraphs covering the piece, sharing only v."""
    cuts = set()
    for piece in _pieces(comp.vertices, comp.edges):
        edges = [e for e in comp.edges if e.u in piece]
        if not edges:
            continue
        for v in piece:
            rest = sorted(piece - {v})
            loops = [e for e in edges if e.u == v and e.v == v]
            others = [e for e in edges if e not in loops]
            for sides in itertools.product((0, 1), repeat=len(rest)):
                side_of = dict(zip(rest, sides))
                side_of[v] = None
                if any(None not in (side_of[e.u], side_of[e.v])
                       and side_of[e.u] != side_of[e.v] for e in others):
                    continue  # an edge would join the two sides
                for loop_sides in itertools.product((0, 1),
                                                    repeat=len(loops)):
                    for s in (0, 1):
                        verts = {v} | {x for x in rest if side_of[x] == s}
                        side_edges = [e for e in others
                                      if e.u in verts and e.v in verts]
                        side_edges += [e for e, ls in zip(loops, loop_sides)
                                       if ls == s]
                        if not _side_strong(comp, verts, side_edges, group):
                            cuts.add(v)
    return sorted(cuts)


@pytest.mark.parametrize("group, max_len", [(F2, 6), (S2Z, 3)])
def test_strong_cutpoints_match_split_definition(group, max_len):
    n = 0
    for cnf in enumerate_elements(group, max_len):
        wh = whitehead_graph_combinatorial(cnf, group)
        cuts = strong_cutpoints(wh)
        for comp in wh.components:
            assert cuts[comp.cid] == _split_cutpoints(comp, group), \
                (group.format_word(cnf.letters()), comp.cid)
            n += 1
    assert n > 200


class TestDot:
    def test_single_letter_layout(self):
        text = emit_dot(graph_of("a"))
        assert text.count('--') == 1
        assert text.count(';') == 5  # 4 vertices + 1 edge

    def test_commutator_cycle(self):
        text = emit_dot(graph_of("a b A B"))
        assert text.count('--') == 4

    def test_empty_graph_header_only(self):
        text = emit_dot(graph_of("a1 b1", S2Z))
        assert text.count('--') == 0
        assert 'graph "ball"' in text and 'graph "surface0"' in text

    def test_support_shows_multiplicity(self):
        # a a crosses Dt1 twice: its one edge is backed by two transitions
        text = emit_dot(graph_of("a a"))
        assert '  "Dt1-" -- "Dt1+" [support=2];\n' in text
        assert 'support' not in emit_dot(graph_of("a b A B"))

    def test_deterministic(self):
        a = emit_dot(graph_of("a1 t1 b1 T1", S2Z))
        b = emit_dot(graph_of("a1 t1 b1 T1", S2Z))
        assert a == b

    def test_labels_dehn_reduced(self):
        grp = S2Z
        rel = grp.relator(0)
        word = rel[:7] + grp.parse_word("t1")  # syllable equal to b2
        cnf = cyclic_reduce(word, grp)
        wh = whitehead_graph_combinatorial(cnf, grp)
        text = emit_dot(wh)
        assert 'label="b2"' in text


class TestFrozenRecords:
    # each frozen record with its fields: it hashes as the tuple of their
    # values, so set and dict orders are those of the field tuples
    RECORDS = [
        (CyclicNormalForm(((0, (0, 2)), (1, (4,)))),
         {"syllables": ((0, (0, 2)), (1, (4,)))}),
        (DiscVertex("D1", 1), {"disc": "D1", "side": 1}),
        (Edge(DiscVertex("D1", 1), DiscVertex("Dt1", -1), (), 3),
         {"u": DiscVertex("D1", 1), "v": DiscVertex("Dt1", -1), "label": (),
          "support": 3}),
        (WhiteheadMove(((0,), (1, 2), (2,), (3,))),
         {"images": ((0,), (1, 2), (2,), (3,))}),
    ]

    @pytest.mark.parametrize("record, fields", RECORDS,
                             ids=[type(r).__name__ for r, _ in RECORDS])
    def test_hash_is_field_tuple_hash(self, record, fields):
        assert hash(record) == hash(tuple(fields.values()))

    @pytest.mark.parametrize("record, fields", RECORDS,
                             ids=[type(r).__name__ for r, _ in RECORDS])
    def test_assignment_raises(self, record, fields):
        for name in fields:
            with pytest.raises(AttributeError):
                setattr(record, name, None)
        assert {name: getattr(record, name) for name in fields} == fields
