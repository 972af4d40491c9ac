import functools
import itertools
import math
import random
import time
from collections import Counter

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from sepstab import whitehead as W
from sepstab.groups import (GroupSpec, LetterOutOfRange, TrivialElement,
                            canonical_class, cyclic_free_reduce,
                            cyclic_reduce, enumerate_elements, free_reduce,
                            inv, word_inverse, word_mul)
from sepstab.separability import (SeparabilityError, WhiteheadMove,
                                  _graph_certificate, is_separable,
                                  is_separable_free, is_separable_mixed,
                                  peak_reduce, swept_classes)
from sepstab.whitehead import (is_strongly_connected, strong_cutpoints,
                               whitehead_graph_combinatorial)

F2 = GroupSpec((), 2)
F3 = GroupSpec((), 3)
S2Z = GroupSpec((2,), 1)


def _type2_letter(a, cut, x):
    """Image of letter x under the Type II move (a, cut), by the textbook
    rule: x goes to a^-1 x if x^-1 is in the cut, then to x a if x is."""
    if x == a or x == inv(a):
        return (x,)
    out = []
    if inv(x) in cut:
        out.append(inv(a))
    out.append(x)
    if x in cut:
        out.append(a)
    return tuple(out)


def _type2_cuts(rank):
    """Every Type II pair (a, cut) of F_rank: a in the cut, a^-1 not."""
    letters = range(2 * rank)
    for a in letters:
        others = [x for x in letters if x not in (a, inv(a))]
        for mask in range(1 << len(others)):
            yield a, {a} | {x for i, x in enumerate(others) if mask >> i & 1}


def _reference_moves(rank):
    """(kind, action) of every Whitehead move of F_rank, deduplicated by
    action in enumeration order: signed permutations as letter tables,
    then Type II moves (a, Z) by multiplier and mask, each applied letter
    by letter with the textbook rule."""
    letters = range(2 * rank)
    candidates = []
    for perm in itertools.permutations(range(rank)):
        for flips in itertools.product((0, 1), repeat=rank):
            table = {}
            for i, (j, f) in enumerate(zip(perm, flips)):
                table[2 * i], table[2 * i + 1] = 2 * j + f, 2 * j + 1 - f
            candidates.append(("permutation",
                               tuple((table[x],) for x in letters)))
    for a, cut in _type2_cuts(rank):
        candidates.append(("type2", tuple(_type2_letter(a, cut, x)
                                          for x in letters)))
    out, seen = [], set()
    for kind, action in candidates:
        if action not in seen:
            seen.add(action)
            out.append((kind, action))
    return out


@functools.lru_cache(maxsize=None)
def _reference_move_table(rank):
    """(Type II moves, signed permutations) of F_rank as WhiteheadMoves,
    in reference order."""
    moves = _reference_moves(rank)
    return tuple(tuple(WhiteheadMove(action) for k, action in moves
                       if k == kind) for kind in ("type2", "permutation"))


def _reference_peak_reduce(word, rank):
    """Table-scan peak reduction: first improvement over the Type II moves
    in reference order, until no move shortens the cyclic word."""
    type2, _ = _reference_move_table(rank)
    current = cyclic_free_reduce(word)
    improved = True
    while improved:
        improved = False
        for mv in type2:
            cand = cyclic_free_reduce(mv.apply(current))
            if len(cand) < len(current):
                current, improved = cand, True
                break
    return current


def _reference_decision(word, rank):
    """(minimal form, status) by the table scan, then an exhaustive search
    of the minimal level set under length-preserving Type II moves, modulo
    signed permutations and rotation: separable exactly when some element
    of the level set omits a generator."""
    type2, perms = _reference_move_table(rank)

    def omits(w):
        return len({x >> 1 for x in w}) < rank

    def canonical(w):
        return min(img[k:] + img[:k] for p in perms
                   for img in [cyclic_free_reduce(p.apply(w))]
                   for k in range(len(img)))

    reduced = _reference_peak_reduce(word, rank)
    if omits(reduced):
        return reduced, "separable"
    start = canonical(reduced)
    seen, frontier = {start}, [start]
    while frontier:
        node = frontier.pop()
        for mv in type2:
            img = cyclic_free_reduce(mv.apply(node))
            if len(img) != len(node):
                continue
            if omits(img):
                return reduced, "separable"
            canon = canonical(img)
            if canon not in seen:
                seen.add(canon)
                frontier.append(canon)
    return reduced, "not_separable"


@pytest.mark.parametrize("rank, max_len", [(2, 7), (3, 5), (4, 4)])
def test_decision_matches_reference_search(rank, max_len):
    # the cut-based descent reaches the table scan's minimal length, and
    # the level-set search never decides differently from the omission
    # test plus the cut-vertex certificate
    group = GroupSpec((), rank)
    for cnf in enumerate_elements(group, max_len):
        word = cnf.letters()
        reduced, _ = peak_reduce(word, rank)
        assert len({x >> 1 for x in reduced}) < rank \
            or _graph_certificate(reduced, rank), cnf
        ref_reduced, ref_status = _reference_decision(word, rank)
        assert len(reduced) == len(ref_reduced), cnf
        assert is_separable_free(word, group).status == ref_status, cnf


@pytest.mark.parametrize("rank, max_len", [(2, 6), (3, 4)])
def test_length_change_is_cut_minus_degree(rank, max_len):
    # |phi(w)| - |w| = cap(Z) - deg(a) on the Whitehead graph, with one
    # edge (x_i, x_{i+1}^-1) per cyclic position
    group = GroupSpec((), rank)
    moves = [(a, cut, WhiteheadMove(tuple(_type2_letter(a, cut, x)
                                          for x in range(2 * rank))))
             for a, cut in _type2_cuts(rank)]
    for cnf in enumerate_elements(group, max_len):
        w = cnf.letters()
        edges = [(w[i], inv(w[(i + 1) % len(w)])) for i in range(len(w))]
        for a, cut, mv in moves:
            cap = sum((x in cut) != (y in cut) for x, y in edges)
            deg = sum(a in edge for edge in edges)
            assert len(cyclic_free_reduce(mv.apply(w))) - len(w) == cap - deg


@st.composite
def _pushed_word(draw, omit_generator):
    """(group, w, phi(w)): a random cyclic word w of F2-F4, optionally in
    the factor generated by all but the last generator, and phi a random
    product of at most six Whitehead moves."""
    rank = draw(st.integers(2, 4))
    n_letters = 2 * (rank - 1 if omit_generator else rank)
    word = cyclic_free_reduce(tuple(draw(st.lists(
        st.integers(0, n_letters - 1), min_size=1, max_size=8))))
    assume(word)
    type2, perms = _reference_move_table(rank)
    image = word
    for mv in draw(st.lists(st.sampled_from(type2 + perms), max_size=6)):
        image = mv.apply(image)
    return GroupSpec((), rank), word, image


@settings(max_examples=200, deadline=None)
@given(_pushed_word(omit_generator=False))
def test_status_is_out_invariant(case):
    group, word, image = case
    assert is_separable_free(image, group).status == \
        is_separable_free(word, group).status


@settings(max_examples=200, deadline=None)
@given(_pushed_word(omit_generator=True))
def test_free_factor_image_is_separable_with_replayable_witness(case):
    group, _, image = case
    verdict = is_separable_free(image, group)
    assert verdict.status == "separable"
    w = cyclic_free_reduce(image)
    for mv in verdict.witness_moves:
        w = cyclic_free_reduce(mv.apply(w))
    assert verdict.omitted_generator not in {x >> 1 for x in w}
    assert verdict.omitted_generator not in {
        x >> 1 for x in verdict.witness_word}


class TestMoves:
    def test_moves_are_invertible(self):
        rng = random.Random(0)
        moves = [WhiteheadMove(action) for _, action in _reference_moves(2)]
        for m in moves:
            inverse_found = False
            for m2 in moves:
                ok = True
                for _ in range(100):
                    w = tuple(rng.randrange(4) for _ in range(10))
                    if free_reduce(m2.apply(m.apply(w))) != free_reduce(w):
                        ok = False
                        break
                if ok:
                    inverse_found = True
                    break
            assert inverse_found

    def test_moves_are_automorphisms(self):
        rng = random.Random(1)
        for _, action in _reference_moves(2):
            m = WhiteheadMove(action)
            for _ in range(30):
                u = tuple(rng.randrange(4) for _ in range(6))
                v = tuple(rng.randrange(4) for _ in range(6))
                assert m.apply(word_mul(u, v)) == \
                    free_reduce(m.apply(u) + m.apply(v))


class TestPeakReduce:
    def test_primitive_drops_to_length_one(self):
        w, moves = peak_reduce(F2.parse_word("a b"), 2)
        assert len(w) == 1
        assert len(moves) == 1

    def test_commutator_already_minimal(self):
        w, moves = peak_reduce(F2.parse_word("a b A B"), 2)
        assert len(w) == 4
        assert moves == []

    def test_single_letter(self):
        w, moves = peak_reduce(F2.parse_word("a"), 2)
        assert w == (0,) and moves == []

    def test_minimality_against_orbit_brute_force(self):
        # brute force: explore the whole orbit of short words by applying
        # moves up to length growth, tracking the least length seen
        moves = [WhiteheadMove(action) for _, action in _reference_moves(2)]
        rng = random.Random(6)
        for _ in range(20):
            w = tuple(rng.randrange(4) for _ in range(5))
            w = free_reduce(w)
            if not w:
                continue
            reduced, _ = peak_reduce(w, 2)
            frontier = {canonical_class(w, F2)} if free_reduce(w) else set()
            seen = set(frontier)
            best = min((len(x) for x in frontier), default=0)
            for _ in range(3):
                new = set()
                for x in frontier:
                    for m in moves:
                        y = m.apply(x)
                        try:
                            y = canonical_class(y, F2)
                        except TrivialElement:
                            continue
                        if len(y) <= len(x) + 2 and y not in seen:
                            new.add(y)
                seen |= new
                frontier = new
                if frontier:
                    best = min(best, min(len(x) for x in frontier))
            assert len(reduced) <= best


class TestFreeDecision:
    def test_generator_is_separable(self):
        assert is_separable_free(F2.parse_word("a"), F2).separable

    def test_commutator_not_separable(self):
        v = is_separable_free(F2.parse_word("a b A B"), F2)
        assert v.status == "not_separable"

    def test_squares_not_separable(self):
        v = is_separable_free(F2.parse_word("a a b b"), F2)
        assert v.status == "not_separable"

    def test_trivial_raises(self):
        with pytest.raises(TrivialElement):
            is_separable_free(F2.parse_word("a A"), F2)

    def test_short_word_decides_at_once_at_high_rank(self):
        # only the generators a word uses are tried for a shortening cut
        group = GroupSpec((), 8192)
        start = time.perf_counter()
        assert is_separable_free((0,), group).omitted_generator == 1
        # a b A B lies in the proper free factor <a, b>
        assert is_separable_free((0, 2, 1, 3), group).separable
        with pytest.raises(TrivialElement):
            is_separable_free((0, 1), group)
        assert time.perf_counter() - start < 1

    def test_surface_factor_raises(self):
        with pytest.raises(SeparabilityError, match="needs a free group"):
            is_separable_free(S2Z.parse_word("a1"), S2Z)

    @pytest.mark.parametrize("letter", [-1, 4, 7])
    def test_letters_outside_the_group_are_refused(self, letter):
        with pytest.raises(LetterOutOfRange, match=f"letter {letter}"):
            is_separable_free((letter,), F2)
        with pytest.raises(LetterOutOfRange, match=f"letter {letter}"):
            is_separable((0, letter), F2)
        with pytest.raises(LetterOutOfRange):
            is_separable((0, letter % 4 + S2Z.n_letters), S2Z)
        with pytest.raises(LetterOutOfRange):
            is_separable((0, -1 - letter % 4), S2Z)

    def test_separable_witness_omits_generator(self):
        for text in ("a b", "a a b", "a b a b", "b b"):
            v = is_separable_free(F2.parse_word(text), F2)
            if v.status != "separable":
                continue
            # replaying the witness moves on the input reaches a word
            # omitting the generator
            w = free_reduce(F2.parse_word(text))
            for m in v.witness_moves:
                w = m.apply(w)
            cnf = cyclic_reduce(w, F2)
            used = {x >> 1 for x in cnf.letters()}
            assert v.omitted_generator not in used

    def test_conjugation_invariance(self):
        rng = random.Random(3)
        for _ in range(100):
            w = free_reduce(tuple(rng.randrange(4) for _ in range(6)))
            if not w:
                continue
            h = tuple(rng.randrange(4) for _ in range(4))
            conj = word_mul(h, w, word_inverse(h))
            try:
                a = is_separable_free(w, F2).status
                b = is_separable_free(conj, F2).status
            except TrivialElement:
                continue
            assert a == b


def test_free_verdicts_build_no_graph(monkeypatch):
    # a free verdict reads only the letter-level certificate graph; the
    # Whitehead graph of its minimal form is built on demand by callers
    calls = []
    build = W.whitehead_graph_combinatorial

    def counting(cnf, group):
        calls.append(cnf)
        return build(cnf, group)
    monkeypatch.setattr(W, "whitehead_graph_combinatorial", counting)
    not_separable = 0
    for group, max_len in ((F2, 6), (F3, 4)):
        for cnf in enumerate_elements(group, max_len):
            verdict = is_separable(cnf.letters(), group)
            not_separable += verdict.status == "not_separable"
    assert not_separable > 100
    assert calls == []


def test_free_decision_applies_each_move_once(monkeypatch):
    # the separable witness is the peak-reduction walk itself: a decision
    # applies each move of the walk once and replays none of them
    calls = []
    apply = WhiteheadMove.apply

    def counting(move, word):
        calls.append(move)
        return apply(move, word)
    witness_moves = 0
    for group, max_len in ((F2, 6), (F3, 4)):
        for cnf in enumerate_elements(group, max_len):
            word = cnf.letters()
            _, walk = peak_reduce(word, group.free_rank)
            calls.clear()
            with monkeypatch.context() as patch:
                patch.setattr(WhiteheadMove, "apply", counting)
                verdict = is_separable_free(word, group)
            assert calls == walk, group.format_word(word)
            if verdict.separable:
                assert verdict.witness_moves == walk
                witness_moves += len(walk)
    assert witness_moves > 100


def _connected(vertices, edges):
    vertices = set(vertices)
    if not vertices:
        return True
    reached, todo = set(), [min(vertices)]
    while todo:
        x = todo.pop()
        if x in reached:
            continue
        reached.add(x)
        todo.extend(b for e in edges for a, b in ((e.u, e.v), (e.v, e.u))
                    if a == x)
    return reached == vertices


@pytest.mark.parametrize("group, max_len", [(F2, 7), (F3, 4)])
def test_free_certificate_is_cut_vertex_test(group, max_len):
    # the certificate holds exactly when the ball graph is connected and
    # stays connected after removing any single vertex
    for cnf in enumerate_elements(group, max_len):
        ball = whitehead_graph_combinatorial(cnf, group).component("ball")
        expected = _connected(ball.vertices, ball.edges) and all(
            _connected(set(ball.vertices) - {v},
                       [e for e in ball.edges if v not in (e.u, e.v)])
            for v in ball.vertices)
        word = cnf.letters()
        assert _graph_certificate(word, group.free_rank) == expected, \
            group.format_word(word)


class TestChristoffelOracle:
    """Independent factor-membership oracle: separable elements of a rank-2
    free group are exactly powers of primitives, and primitive conjugacy
    classes correspond to coprime integer pairs via standard staircase
    words."""

    @staticmethod
    def christoffel(p, q):
        n = p + q
        word = []
        for i in range(1, n + 1):
            if (i * p) // n > ((i - 1) * p) // n:
                word.append(0)
            else:
                word.append(2)
        return tuple(word)

    @classmethod
    def signed_primitive(cls, p, q):
        w = cls.christoffel(abs(p), abs(q))
        out = []
        for x in w:
            if x == 0:
                out.append(0 if p >= 0 else 1)
            else:
                out.append(2 if q >= 0 else 3)
        return tuple(out)

    @classmethod
    def separable_classes(cls, max_len):
        out = set()
        for p in range(-max_len, max_len + 1):
            for q in range(-max_len, max_len + 1):
                if (p, q) == (0, 0) or abs(p) + abs(q) > max_len:
                    continue
                if math.gcd(abs(p), abs(q)) != 1:
                    continue
                u = cls.signed_primitive(p, q)
                k = 1
                while k * len(u) <= max_len:
                    out.add(canonical_class(u * k, F2))
                    k += 1
        return out

    def test_oracle_agreement_length_four(self):
        from sepstab.groups import enumerate_elements
        oracle = self.separable_classes(4)
        for cnf in enumerate_elements(F2, 4):
            key = cnf.letters()
            assert is_separable_free(key, F2).separable == (key in oracle)


class TestSweptClasses:
    @staticmethod
    def filtered(group, max_len):
        """The reference sweep: every class not proven non-separable."""
        out = []
        for cnf in enumerate_elements(group, max_len):
            status = is_separable(cnf.letters(), group).status
            if status != "not_separable":
                out.append((cnf, status))
        return out

    def test_f2_generation_equals_the_filter(self):
        reference = self.filtered(F2, 10)
        for max_len in range(11):
            assert list(swept_classes(F2, max_len)) == [
                (cnf, status) for cnf, status in reference
                if cnf.cyclic_length <= max_len]

    @pytest.mark.parametrize("group, max_len", [(F3, 4), (S2Z, 3)])
    def test_other_groups_filter(self, group, max_len):
        assert list(swept_classes(group, max_len)) == self.filtered(
            group, max_len)

    def test_f2_count_is_the_closed_form(self):
        # classes p^k, p primitive: 4 primitive classes of length 1 and
        # 4 phi(n) of length n >= 2
        def primitive(n):
            return 4 if n == 1 else 4 * sum(
                math.gcd(n, k) == 1 for k in range(1, n + 1))

        counts = {}
        for max_len in range(21):
            classes = list(swept_classes(F2, max_len))
            counts[max_len] = len(set(classes))
            assert len(classes) == counts[max_len]
        for max_len, count in counts.items():
            assert count == sum(primitive(d) for n in range(1, max_len + 1)
                                for d in range(1, n + 1) if n % d == 0)
        assert (counts[8], counts[16]) == (144, 544)


class TestMixed:
    def test_single_factor_word(self):
        v = is_separable(S2Z.parse_word("a1 b1"), S2Z)
        assert v.separable and v.single_factor == 0

    def test_free_letter_word(self):
        v = is_separable(S2Z.parse_word("t1"), S2Z)
        assert v.separable

    def test_mixed_unknown(self):
        # a1 t1 is separable in truth, but the graph certificate cannot
        # show it; the decision stays honestly unknown
        v = is_separable(S2Z.parse_word("a1 t1"), S2Z)
        assert v.status == "unknown"

    def test_mixed_commutator_certified(self):
        # the t-exponent of any rank-one complement generator is nonzero,
        # so the commutator of a1 and t1 lies in no proper factor; the
        # graph certificate confirms it
        v = is_separable(S2Z.parse_word("a1 t1 A1 T1"), S2Z)
        assert v.status == "not_separable"
        cnf = cyclic_reduce(S2Z.parse_word("a1 t1 A1 T1"), S2Z)
        wh = whitehead_graph_combinatorial(cnf, S2Z)
        assert all(is_strongly_connected(wh).values())
        assert not any(strong_cutpoints(wh).values())

    def test_free_subcase_delegates(self):
        v = is_separable(F2.parse_word("a b"), F2)
        assert v.separable and v.omitted_generator is not None

    def test_consistency_no_double_witness(self):
        # no element gets both a separability witness and a strongly
        # connected cutpoint-free graph
        from sepstab.groups import enumerate_elements
        from sepstab.whitehead import whitehead_graph_combinatorial
        for cnf in enumerate_elements(S2Z, 3):
            v = is_separable(cnf.letters(), S2Z)
            if not v.separable:
                continue
            wh = whitehead_graph_combinatorial(cnf, S2Z)
            strong = is_strongly_connected(wh)
            cuts = strong_cutpoints(wh)
            good = all(strong.values()) \
                and not any(cuts.values())
            assert not good

    def test_conjugation_invariance_mixed(self):
        rng = random.Random(8)
        for _ in range(100):
            w = tuple(rng.randrange(S2Z.n_letters)
                      for _ in range(rng.randrange(1, 7)))
            h = tuple(rng.randrange(S2Z.n_letters) for _ in range(3))
            conj = word_mul(h, w, word_inverse(h))
            try:
                a = is_separable(w, S2Z).status
                b = is_separable(conj, S2Z).status
            except TrivialElement:
                continue
            assert a == b


class TestMixedCertificate:
    """In S_g * Z the mixed certificate reads the block structure of the
    ball links; the oracle is the full analysis of the Whitehead graph.
    With three or more factors there is no certificate."""

    REASONS = {
        "not_separable": "every component strongly connected without "
                         "strong cutpoints",
        "unknown": "graph certificate inconclusive for a mixed free product"}
    THREE_FACTORS = "no graph certificate with three or more factors"

    @staticmethod
    def graph_status(cnf, group):
        wh = whitehead_graph_combinatorial(cnf, group)
        if (all(is_strongly_connected(wh).values())
                and not any(strong_cutpoints(wh).values())):
            return "not_separable"
        return "unknown"

    def check(self, cnf, group):
        v = is_separable_mixed(cnf, group)
        if v.status == "separable":
            assert v.single_factor is not None or v.omitted_factor is not None
        elif group.n_factors > 2:
            assert (v.status, v.reason) == ("unknown", self.THREE_FACTORS)
        else:
            status = self.graph_status(cnf, group)
            assert (v.status, v.reason) == (status, self.REASONS[status]), \
                group.format_word(cnf.letters())
        return v.status

    @pytest.mark.parametrize("group, max_len, counts", [
        (S2Z, 5, {"separable": 4126, "not_separable": 1632,
                  "unknown": 8002}),
        (GroupSpec((2, 2), 1), 3, None),
        (GroupSpec((3,), 2), 3, None)], ids=["S2*Z", "S2*S2*Z", "S3*F2"])
    def test_every_class_matches_the_graph_analysis(self, group, max_len,
                                                    counts):
        seen = Counter(self.check(cnf, group)
                       for cnf in enumerate_elements(group, max_len))
        if counts is not None:
            assert seen == counts

    @pytest.mark.parametrize("group", [GroupSpec((2, 2), 1),
                                       GroupSpec((2,), 2)],
                             ids=["S2*S2*Z", "S2*F2"])
    def test_long_three_factor_classes_match(self, group):
        # random classes using all three factors come out unknown, never
        # not separable: the graph analysis accepts automorphic images of
        # separable elements there (module docstring of separability)
        rng = random.Random(24)
        seen = Counter()
        while sum(seen.values()) < 3000:
            word = tuple(rng.randrange(group.n_letters)
                         for _ in range(rng.randrange(6, 10)))
            try:
                cnf = cyclic_reduce(word, group)
            except TrivialElement:
                continue
            if 6 <= cnf.cyclic_length <= 9:
                seen[self.check(cnf, group)] += 1
        assert not seen["not_separable"] and seen["unknown"] >= 50

    @pytest.mark.parametrize("group, word", [
        (GroupSpec((2,), 2), w) for w in (
            "A1 B1 t1 A1 t2 b1 T2 a1 T1 b1 t2 B1 t1",
            "t1 t1 t1 A2 t2 a2 t2 A2 T2 a2",
            "t1 t1 t1 B2 B2 t2 a1 t2 A1 T2 b2 b2",
            "A2 a1 t2 A2 t2 A2 B2 t1 B2 t1 a2 T2 a2 T2 A1 t2",
            "B1 T2 A1 B1 T2 A1 t1 a1 T1 a1 t2 b1 a1 t2 T1",
            "B1 T2 A1 B1 T2 A1 t1 a1 b1 T1 a1 t2 b1 a1 t2 T1",
            "a1 t2 t2 A1 t1 t1 a1 T2 T2 A1 t2",
            "t1 t1 A2 A1 t2 t2 a1 t2 A1 T2 T2 a1 a2",
            "t2 t2 T1 T1 B1 t1 a1 t1 A1 T1 b1 t1 t1")] + [
        (GroupSpec((2, 2), 1), "A1.2 A2.1 t1 t1 a2.1 a1.2 B2.2 a1.1 b2.2 "
                               "A1.2 A2.1 T1 T1 a2.1 a1.2 a2.1")],
        ids=lambda v: v if isinstance(v, str) else
        "S2*F2" if v.free_rank == 2 else "S2*S2*Z")
    def test_automorphic_images_of_separable_elements(self, group, word):
        # each class is the image of a separable element under a product
        # of Fouxe-Rabinovitch generators; the graph analysis accepts all
        # ten, and a cut-vertex test on the ball still accepts four
        v = is_separable(group.parse_word(word), group)
        assert (v.status, v.reason) == ("unknown", self.THREE_FACTORS)

    def test_sweep_builds_no_graph(self, monkeypatch):
        def refuse(*args):
            raise AssertionError("the separability sweep built a graph")
        monkeypatch.setattr(W, "WhiteheadGraph", refuse)
        statuses = Counter(s for _, s in swept_classes(S2Z, 4))
        assert statuses["unknown"] > 0


def _factor_element(group, fid, rng):
    """A random nontrivial element of factor fid: t^k for a free factor,
    a reduced word of length 1-3 for a surface factor."""
    letters = group.factor_letters(fid)
    if fid >= group.n_surface:
        return (rng.choice(letters),) * rng.randrange(1, 3)
    while True:
        u = free_reduce(tuple(rng.choice(letters)
                              for _ in range(rng.randrange(1, 4))))
        if u:
            return u


def _fouxe_rabinovitch(group, rng):
    """A random Fouxe-Rabinovitch generator of Aut(group) as a letter
    table: a transvection t -> u t or t -> t u, a factor conjugated by an
    element u of another factor, or an inversion t -> t^-1, for a free
    letter t and u in another factor than t's."""
    images = [(x,) for x in range(group.n_letters)]
    kind = rng.randrange(3)
    fid = rng.randrange(0 if kind == 1 else group.n_surface, group.n_factors)
    t = group.factor_letters(fid)[0]
    other = rng.choice([f for f in range(group.n_factors) if f != fid])
    u = _factor_element(group, other, rng)
    if kind == 0 and rng.randrange(2):
        images[t], images[inv(t)] = u + (t,), (inv(t),) + word_inverse(u)
    elif kind == 0:
        images[t], images[inv(t)] = (t,) + u, word_inverse(u) + (inv(t),)
    elif kind == 1:
        for x in group.factor_letters(fid):
            images[x] = u + (x,) + word_inverse(u)
    else:
        images[t], images[inv(t)] = (inv(t),), (t,)
    return WhiteheadMove(tuple(images))


class TestFouxeRabinovitch:
    """One-sided oracle: automorphisms keep separability, so an image of
    a separable class is never refuted and an image of a certified class
    is never called separable."""

    GROUPS = [S2Z, GroupSpec((2,), 2), GroupSpec((2, 2), 1)]
    SEEDS = ["t1", "a1 t1", "a1 b1 t1", "a1", "t1 t2", "a1.1 a2.1"]

    @staticmethod
    def images(group, words, rng, count):
        for _ in range(count):
            word = rng.choice(words)
            for _ in range(rng.randrange(1, 9)):
                word = _fouxe_rabinovitch(group, rng).apply(word)
            yield word

    @pytest.mark.parametrize("group", GROUPS, ids=["S2*Z", "S2*F2",
                                                   "S2*S2*Z"])
    def test_images_of_separable_seeds_are_never_refuted(self, group):
        seeds = []
        for text in self.SEEDS:
            try:
                seeds.append(group.parse_word(text))
            except LetterOutOfRange:
                continue
        for word in self.images(group, seeds, random.Random(25), 2000):
            assert is_separable(word, group).status != "not_separable", \
                group.format_word(word)

    def test_images_of_certified_classes_are_never_separable(self):
        certified = [cnf.letters() for cnf in enumerate_elements(S2Z, 4)
                     if is_separable_mixed(cnf, S2Z).status
                     == "not_separable"]
        assert certified
        for word in self.images(S2Z, certified, random.Random(26), 2000):
            assert not is_separable(word, S2Z).separable, \
                S2Z.format_word(word)

    def test_three_factor_sweep_keeps_every_class(self):
        group = GroupSpec((2,), 2)
        assert [cnf for cnf, _ in swept_classes(group, 3)] == \
            list(enumerate_elements(group, 3))
