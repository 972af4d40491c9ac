import itertools
import random

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from sepstab.groups import (GroupSpec, TrivialElement, UniquelyFreelyDecomposable,
                            GroupError, MixedFactors, canonical_class,
                            canonical_spelling, cyclic_reduce, dehn_reduce,
                            enumerate_elements, free_reduce, inv, normal_form,
                            word_inverse, word_mul)

F2 = GroupSpec((), 2)
S2Z = GroupSpec((2,), 1)
MIXED = {"F3": GroupSpec((), 3), "S2*Z": S2Z,
         "S2*S2*Z": GroupSpec((2, 2), 1), "S3*F2": GroupSpec((3,), 2)}
SURFACE_FREE = {"F2": F2, "F3": MIXED["F3"], "S3*F2": MIXED["S3*F2"]}


def letter_words(group, max_size):
    return st.lists(st.integers(0, group.n_letters - 1), max_size=max_size)


def words(group, *texts):
    return [group.parse_word(t) for t in texts]


class TestGroupSpec:
    def test_rejects_uniquely_freely_decomposable(self):
        with pytest.raises(UniquelyFreelyDecomposable):
            GroupSpec((2, 2), 0)

    def test_rejects_trivial_products(self):
        with pytest.raises(GroupError):
            GroupSpec((), 1)
        with pytest.raises(GroupError):
            GroupSpec((2,), 0)
        with pytest.raises(GroupError):
            GroupSpec((1,), 1)  # genus below two

    @pytest.mark.parametrize("rank", [-1, -3, 1.0, 1.5, "1", None])
    def test_rejects_bad_free_rank(self, rank):
        with pytest.raises(GroupError, match="free rank"):
            GroupSpec((2, 2), rank)
        with pytest.raises(GroupError, match="free rank"):
            GroupSpec((), rank)

    @pytest.mark.parametrize("genus", [2.7, 2.0, "2"])
    def test_rejects_non_integer_genus(self, genus):
        with pytest.raises(GroupError, match="surface genus"):
            GroupSpec((genus,), 1)
        with pytest.raises(GroupError, match="surface genus"):
            GroupSpec((2, genus), 1)

    def test_allows_two_surfaces_with_free_part(self):
        g = GroupSpec((2, 3), 1)
        assert g.n_letters == 2 * (4 + 6 + 1)

    def test_genera_from_an_iterator(self):
        g = GroupSpec(iter([2]), 2)
        assert (g.surface_genera, g.n_surface, g.n_letters) == ((2,), 1, 12)

    def test_letter_naming_round_trip(self):
        for grp in (F2, S2Z, GroupSpec((2, 2), 1)):
            for x in range(grp.n_letters):
                assert grp.parse_word(grp.letter_name(x)) == (x,)


class TestFreeReduce:
    def test_cancellation(self):
        w, = words(F2, "a a A b")
        assert F2.format_word(free_reduce(w)) == "a b"

    def test_identity(self):
        assert free_reduce(()) == ()

    def test_single_cancellation(self):
        w, = words(F2, "a b B a")
        assert F2.format_word(free_reduce(w)) == "a a"

    @settings(max_examples=300, deadline=None)
    @given(st.sampled_from(sorted(MIXED)), st.data())
    def test_idempotent_and_nonincreasing(self, name, data):
        w = tuple(data.draw(letter_words(MIXED[name], 14)))
        r = free_reduce(w)
        assert free_reduce(r) == r
        assert len(r) <= len(w)
        assert all(y != inv(x) for x, y in zip(r, r[1:]))


class TestDehnReduce:
    def test_full_relator_vanishes(self):
        rel = S2Z.relator(0)
        assert dehn_reduce(rel, S2Z, 0) == ()

    def test_seven_of_eight_relator_letters(self):
        rel = S2Z.relator(0)
        out = dehn_reduce(rel[:7], S2Z, 0)
        assert S2Z.format_word(out) == "b2"

    def test_already_reduced(self):
        w, = words(S2Z, "a1")
        assert dehn_reduce(w, S2Z, 0) == w

    def test_mixed_factors_rejected(self):
        with pytest.raises(MixedFactors):
            dehn_reduce(S2Z.parse_word("a1 t1"), S2Z, 0)

    def test_trivial_iff_empty_on_relator_products(self):
        # random products of conjugated relators must reduce to empty,
        # and inserting one extra generator must not
        rng = random.Random(3)
        rel = S2Z.relator(0)
        letters = list(S2Z.factor_letters(0))
        for _ in range(60):
            w = ()
            n_ins = rng.randrange(1, 6)
            for _ in range(n_ins):
                conj = tuple(rng.choice(letters)
                             for _ in range(rng.randrange(0, 13)))
                r = rel if rng.random() < 0.5 else word_inverse(rel)
                k = rng.randrange(len(r))
                w = word_mul(w, conj, r[k:] + r[:k], word_inverse(conj))
            assert dehn_reduce(w, S2Z, 0) == ()
            extra = rng.choice(letters)
            assert dehn_reduce(word_mul(w, (extra,)), S2Z, 0) != ()

    def test_idempotent(self):
        rng = random.Random(11)
        letters = list(S2Z.factor_letters(0))
        for _ in range(100):
            w = tuple(rng.choice(letters) for _ in range(rng.randrange(14)))
            r = dehn_reduce(w, S2Z, 0)
            assert dehn_reduce(r, S2Z, 0) == r
            assert len(r) <= len(w)


class TestNormalForm:
    def test_already_alternating(self):
        w, = words(S2Z, "a1 t1 b1")
        nf = normal_form(w, S2Z)
        assert [(fid, S2Z.format_word(x)) for fid, x in nf] == [
            (0, "a1"), (1, "t1"), (0, "b1")]

    def test_merges_same_factor_letters(self):
        w, = words(S2Z, "a1 a2 t1")
        nf = normal_form(w, S2Z)
        assert [(fid, S2Z.format_word(x)) for fid, x in nf] == [
            (0, "a1 a2"), (1, "t1")]

    def test_cancellation_then_one_syllable(self):
        w, = words(S2Z, "t1 T1 a1")
        nf = normal_form(w, S2Z)
        assert [(fid, S2Z.format_word(x)) for fid, x in nf] == [(0, "a1")]

    def test_idempotent_on_spelling(self):
        rng = random.Random(5)
        for _ in range(100):
            w = tuple(rng.randrange(S2Z.n_letters)
                      for _ in range(rng.randrange(10)))
            nf = normal_form(w, S2Z)
            flat = tuple(x for _, syl in nf for x in syl)
            assert normal_form(flat, S2Z) == nf


class TestCyclicReduce:
    def test_conjugate(self):
        cnf, conj = cyclic_reduce(S2Z.parse_word("t1 a1 T1"), S2Z)
        assert [(fid, S2Z.format_word(w)) for fid, w in cnf.syllables] == [(0, "a1")]
        assert S2Z.format_word(conj) == "T1"

    def test_already_reduced(self):
        cnf, conj = cyclic_reduce(S2Z.parse_word("a1 t1"), S2Z)
        assert cnf.cyclic_length == 2
        assert conj == ()

    def test_trivial_raises(self):
        with pytest.raises(TrivialElement):
            cyclic_reduce(S2Z.parse_word("t1 T1"), S2Z)

    def test_cyclic_dehn_rotation(self):
        # no linear Dehn step applies; the rotation B2 a1 b1 A1 B1 holds
        # five letters of the relator and shortens to a2 B2 A2
        w = S2Z.parse_word("a1 b1 A1 B1 B2")
        cnf, conj = cyclic_reduce(w, S2Z)
        assert [(fid, S2Z.format_word(x)) for fid, x in cnf.syllables] == [
            (0, "B2")]
        assert S2Z.format_word(conj) == "A2 b1 a1 B1 A1"
        with pytest.raises(TrivialElement):
            cyclic_reduce(word_mul(word_inverse(conj), cnf.letters(), conj,
                                   word_inverse(w)), S2Z)

    def test_conjugation_identity_under_matrices(self):
        # conj^-1 * cyclic * conj == word under a verified representation
        from sepstab.gallery import build
        rep, _ = build("s2-times-z")
        rng = random.Random(17)
        for _ in range(40):
            w = tuple(rng.randrange(S2Z.n_letters)
                      for _ in range(rng.randrange(1, 10)))
            if not free_reduce(w):
                continue
            try:
                cnf, conj = cyclic_reduce(w, S2Z)
            except TrivialElement:
                continue
            lhs = rep.evaluate(word_mul(word_inverse(conj), cnf.letters(), conj))
            rhs = rep.evaluate(w)
            assert lhs.eq_up_to_sign(rhs)


class TestRotationInvariance:
    """A reduced word w of cyclic length |w| spells its own cyclic normal
    form up to rotation, and all rotations of w share its cyclic length and
    its canonical spelling.  This is what lets enumerate_elements walk
    necklaces only."""

    @settings(max_examples=200, deadline=None)
    @given(st.sampled_from(sorted(MIXED)), st.data())
    def test_rotations_share_the_key(self, name, data):
        group = MIXED[name]
        w = free_reduce(tuple(data.draw(letter_words(group, 9))))
        assume(w)
        try:
            cnf, _ = cyclic_reduce(w, group)
        except TrivialElement:
            assume(False)
        assume(cnf.cyclic_length == len(w))
        rotations = [w[k:] + w[:k] for k in range(len(w))]
        assert cnf.letters() in rotations
        key = canonical_spelling(cnf, group)
        for rot in rotations:
            rcnf, _ = cyclic_reduce(rot, group)
            assert rcnf.cyclic_length == len(w)
            assert canonical_spelling(rcnf, group) == key

    @settings(max_examples=200, deadline=None)
    @given(st.sampled_from(sorted(MIXED)), st.data())
    def test_inverse_shares_the_cyclic_length(self, name, data):
        group = MIXED[name]
        w = tuple(data.draw(letter_words(group, 12)))
        try:
            cnf, _ = cyclic_reduce(w, group)
        except TrivialElement:
            with pytest.raises(TrivialElement):
                cyclic_reduce(word_inverse(w), group)
            return
        inverse, _ = cyclic_reduce(word_inverse(w), group)
        assert inverse.cyclic_length == cnf.cyclic_length

    @settings(max_examples=200, deadline=None)
    @given(st.sampled_from(sorted(SURFACE_FREE)), st.data())
    def test_surface_free_key_is_least_rotation(self, name, data):
        # why enumerate_elements may yield surface-free necklaces as they are
        group = SURFACE_FREE[name]
        low = group.gen_base(group.n_surface)
        w = tuple(data.draw(st.lists(st.integers(low, group.n_letters - 1),
                                     max_size=12)))
        try:
            cnf, _ = cyclic_reduce(w, group)
        except TrivialElement:
            assume(False)
        letters = cnf.letters()
        least = min(letters[k:] + letters[:k] for k in range(len(letters)))
        for k in range(len(w)):
            assert canonical_class(w[k:] + w[:k], group) == least


def unpruned_walk(group, max_len):
    """enumerate_elements as it was before the necklace pruning: every
    reduced word of each length, in lexicographic order."""
    seen = set()
    n = group.n_letters
    for length in range(1, max_len + 1):
        stack = [()]
        while stack:
            prefix = stack.pop()
            if len(prefix) == length:
                try:
                    cnf, _ = cyclic_reduce(prefix, group)
                except TrivialElement:
                    continue
                if cnf.cyclic_length != length:
                    continue
                key = canonical_spelling(cnf, group)
                if key in seen:
                    continue
                seen.add(key)
                kcnf, _ = cyclic_reduce(key, group)
                yield kcnf
                continue
            for x in range(n - 1, -1, -1):
                if prefix and inv(prefix[-1]) == x:
                    continue
                stack.append(prefix + (x,))


def reduced_necklaces(group, max_len):
    """Leaves of the necklace walk: linearly reduced least rotations."""
    return [w for n in range(1, max_len + 1)
            for w in itertools.product(range(group.n_letters), repeat=n)
            if all(y != inv(x) for x, y in zip(w, w[1:]))
            and all(w <= w[k:] + w[:k] for k in range(n))]


class TestEnumeration:
    @pytest.mark.parametrize("group, max_len", [
        (F2, 8), (MIXED["F3"], 5), (GroupSpec((), 4), 4), (S2Z, 4),
        (MIXED["S2*S2*Z"], 3), (MIXED["S3*F2"], 3)],
        ids=["F2", "F3", "F4", "S2*Z", "S2*S2*Z", "S3*F2"])
    def test_necklace_walk_matches_unpruned_walk(self, group, max_len):
        got = [c.syllables for c in enumerate_elements(group, max_len)]
        assert got == [c.syllables for c in unpruned_walk(group, max_len)]

    def test_only_necklaces_are_canonicalised(self, monkeypatch):
        # only necklace leaves with a surface letter are canonicalised;
        # surface-free necklaces are yielded as their own keys
        import sepstab.groups as groups
        tested, keys = [], []

        def reducing(word, group):
            tested.append(word)
            return cyclic_reduce(word, group)

        def spelling(cnf, group):
            keys.append(canonical_spelling(cnf, group))
            return keys[-1]
        monkeypatch.setattr(groups, "cyclic_reduce", reducing)
        monkeypatch.setattr(groups, "canonical_spelling", spelling)

        assert len(list(enumerate_elements(F2, 6))) > 0
        assert tested == [] and keys == []

        low = S2Z.gen_base(S2Z.n_surface)
        yielded = [c.letters() for c in enumerate_elements(S2Z, 3)]
        leaves = [w for w in reduced_necklaces(S2Z, 3) if w[0] < low]
        keys = set(keys)
        # one cyclic_reduce per surface leaf, one more per yielded key
        assert sorted(tested) == sorted(leaves + list(keys))
        assert len(keys) == sum(1 for w in yielded if w[0] < low)
        t, T = low, inv(low)
        assert [w for w in yielded if w[0] >= low] == [
            (t,), (T,), (t, t), (T, T), (t, t, t), (T, T, T)]

    def test_f2_length_one(self):
        got = {F2.format_word(c.letters()) for c in enumerate_elements(F2, 1)}
        assert got == {"a", "A", "b", "B"}

    def test_f2_length_two_additions(self):
        got = {F2.format_word(c.letters()) for c in enumerate_elements(F2, 2)}
        expected = {"a", "A", "b", "B",
                    "a a", "A A", "b b", "B B", "a b", "A B", "a B", "A b"}
        assert got == expected

    def test_f2_length_three_matches_brute_force(self):
        def brute(maxlen):
            seen = set()
            for L in range(1, maxlen + 1):
                for w in itertools.product(range(4), repeat=L):
                    out = []
                    for x in w:
                        if out and out[-1] == inv(x):
                            out.pop()
                        else:
                            out.append(x)
                    while len(out) >= 2 and out[0] == inv(out[-1]):
                        out = out[1:-1]
                    if not out:
                        continue
                    seen.add(min(tuple(out[k:] + out[:k])
                                 for k in range(len(out))))
            return seen
        enum = {c.letters() for c in enumerate_elements(F2, 3)}
        assert enum == brute(3)

    def test_no_rotation_equivalent_duplicates(self):
        for group, maxlen in ((F2, 4), (S2Z, 3)):
            keys = [c.letters() for c in enumerate_elements(group, maxlen)]
            rotated = [min(k[i:] + k[:i] for i in range(len(k))) for k in keys]
            assert len(rotated) == len(set(rotated))

    def test_inverse_pairs_both_produced(self):
        keys = {c.letters() for c in enumerate_elements(F2, 3)}
        for k in keys:
            assert canonical_class(word_inverse(k), F2) in keys


# Conjugate pairs that enumerate_elements(S2Z, 4) yields both of, each with
# a conjugator x such that x v x^-1 = u in the surface factor.
# canonical_spelling respells each linear run of a rotation on its own, so
# it is not a class invariant.
DUPLICATE_CLASSES = (("a1 B1 A1 b1", "b1 a1 B1 A1", "B1"),
                     ("a1 b1 A1 B2", "b1 a2 B2 A2", "b2 B1"),
                     ("a1 b1 A2 B2", "a1 B2 A2 b1", "a1 b1 A1"),
                     ("a1 B1 A2 b1", "a1 b2 A2 B2", "a1 B1 A1"),
                     ("A1 B1 a2 b1", "A1 b2 a2 B2", "B1"))


class TestDuplicateClasses:
    @pytest.mark.parametrize("u, v, x", DUPLICATE_CLASSES)
    def test_pairs_are_conjugate(self, u, v, x):
        u, v, x = words(S2Z, u, v, x)
        assert not dehn_reduce(word_mul(x, v, word_inverse(x),
                                        word_inverse(u)), S2Z, 0)

    @pytest.mark.xfail(strict=True, reason="enumerate_elements yields these "
                       "conjugacy classes twice (see ROADMAP item 4)")
    def test_one_representative_per_class(self):
        got = {S2Z.format_word(c.letters())
               for c in enumerate_elements(S2Z, 4)}
        assert [(u, v) for u, v, _ in DUPLICATE_CLASSES
                if u in got and v in got] == []
