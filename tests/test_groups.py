import itertools
import random
import subprocess
import sys

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from sepstab.groups import (_SPELL_CAP, MAX_LETTERS, CyclicNormalForm,
                            GroupSpec, TrivialElement,
                            UniquelyFreelyDecomposable,
                            GroupError, LetterOutOfRange, MixedFactors,
                            _DehnTable,
                            _cyclic_dehn_reduce, _factor_runs,
                            canonical_class, canonical_spelling,
                            cyclic_reduce, dehn_reduce, dehn_spellings,
                            enumerate_elements, free_reduce, inv,
                            normal_form, word_inverse, word_mul)

F2 = GroupSpec((), 2)
S2Z = GroupSpec((2,), 1)
MIXED = {"F3": GroupSpec((), 3), "S2*Z": S2Z,
         "S2*S2*Z": GroupSpec((2, 2), 1), "S3*F2": GroupSpec((3,), 2)}
SURFACE_FREE = {"F2": F2, "F3": MIXED["F3"], "S3*F2": MIXED["S3*F2"]}
WITH_SURFACE = sorted(name for name, g in MIXED.items() if g.n_surface)


def letter_words(group, max_size):
    return st.lists(st.integers(0, group.n_letters - 1), max_size=max_size)


@st.composite
def spliced_words(draw, group):
    """Letter words with up to two pieces of relator rotations spliced in,
    so that Dehn reduction has work to do."""
    word = tuple(draw(letter_words(group, 10)))
    for _ in range(draw(st.integers(0, 2)) if group.n_surface else 0):
        rel = group.relator(draw(st.integers(0, group.n_surface - 1)))
        if draw(st.booleans()):
            rel = word_inverse(rel)
        k = draw(st.integers(0, len(rel) - 1))
        piece = (rel[k:] + rel[:k])[:draw(st.integers(1, len(rel)))]
        i = draw(st.integers(0, len(word)))
        word = word[:i] + piece + word[i:]
    return word


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

    @pytest.mark.parametrize("genera, rank", [
        ((), MAX_LETTERS // 2 + 1), ((), 10 ** 9), ((10 ** 9,), 1),
        ((2,) * (MAX_LETTERS // 8), 1)])
    def test_refuses_more_than_max_letters(self, genera, rank):
        # refused before any per-letter table is built
        with pytest.raises(GroupError, match=f"at most {MAX_LETTERS}"):
            GroupSpec(genera, rank)

    def test_allows_max_letters(self):
        assert GroupSpec((), MAX_LETTERS // 2).n_letters == MAX_LETTERS

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
        # the free factor of S2*Z has no relator to reduce by
        with pytest.raises(MixedFactors, match="factor 1 is not a surface"):
            dehn_reduce(S2Z.parse_word("t1"), S2Z, 1)

    def test_letters_are_checked_against_the_factor(self):
        # a negative letter must not index the letter table from its end
        group = GroupSpec((2, 2, 2), 0)
        for x in (-1, group.n_letters):
            with pytest.raises(LetterOutOfRange):
                dehn_reduce((x,), group, 2)
        for x in (group.gen_base(1), group.gen_base(2) - 1):
            with pytest.raises(MixedFactors):
                dehn_reduce((group.gen_base(2), x), group, 2)

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


SURFACE_ONE = {"S2*Z": S2Z, "S3*Z": GroupSpec((3,), 1)}


@st.composite
def relator_rotations(draw, group):
    """A cyclic rotation of the relator of surface factor 0, or of its
    inverse."""
    rel = group.relator(0)
    if draw(st.booleans()):
        rel = word_inverse(rel)
    k = draw(st.integers(0, len(rel) - 1))
    return rel[k:] + rel[:k]


@st.composite
def surface_words(draw, group):
    """Words in surface factor 0 with up to two pieces of relator rotations
    spliced in, so that Dehn reduction has work to do."""
    letters = st.sampled_from(list(group.factor_letters(0)))
    word = tuple(draw(st.lists(letters, max_size=12)))
    for _ in range(draw(st.integers(0, 2))):
        rot = draw(relator_rotations(group))
        piece = rot[:draw(st.integers(1, len(rot)))]
        i = draw(st.integers(0, len(word)))
        word = word[:i] + piece + word[i:]
    return word


def long_relator_pieces(group):
    """Every subword longer than half the relator of a cyclic rotation of
    R or R^-1, listed by brute force."""
    rel = group.relator(0)
    n = len(rel)
    pieces = set()
    for r in (rel, word_inverse(rel)):
        for k in range(n):
            rot = r[k:] + r[:k]
            for i in range(n):
                for j in range(i + n // 2 + 1, n + 1):
                    pieces.add(rot[i:j])
    return pieces


class TestDehnReduceProperties:
    """Dehn reduction in the surface factor of S2*Z and S3*Z."""

    @settings(max_examples=300, deadline=None)
    @given(st.sampled_from(sorted(SURFACE_ONE)), st.data())
    def test_conjugated_relator_vanishes(self, name, data):
        group = SURFACE_ONE[name]
        w = data.draw(surface_words(group))
        rho = data.draw(relator_rotations(group))
        assert dehn_reduce(word_mul(w, rho, word_inverse(w)), group, 0) == ()

    @settings(max_examples=300, deadline=None)
    @given(st.sampled_from(sorted(SURFACE_ONE)), st.data())
    def test_reduced_idempotent_and_no_long_relator_piece(self, name, data):
        group = SURFACE_ONE[name]
        r = dehn_reduce(data.draw(surface_words(group)), group, 0)
        assert all(y != inv(x) for x, y in zip(r, r[1:]))
        assert dehn_reduce(r, group, 0) == r
        pieces = long_relator_pieces(group)
        half = len(group.relator(0)) // 2
        assert not any(r[i:j] in pieces for i in range(len(r))
                       for j in range(i + half + 1, len(r) + 1))


class _PrefixTables:
    """Reference: Dehn's algorithm on prefix tables of every rotation of
    R^{+-1}, the layout that the pair index replaced.  ``long_prefix`` holds
    every rotation prefix longer than half the relator, ``half_swap`` every
    exactly-half prefix with the inverse of its complement."""

    def __init__(self, group, fid):
        rel = group.relator(fid)
        self.length, self.half = len(rel), len(rel) // 2
        rotations = {r[k:] + r[:k] for r in (rel, word_inverse(rel))
                     for k in range(self.length)}
        self.long_prefix = {rot[:m]: rot for rot in rotations
                            for m in range(self.half + 1, self.length + 1)}
        self.half_swap = {rot[:self.half]: word_inverse(rot[self.half:])
                          for rot in rotations}

    def reduce(self, word):
        w = free_reduce(word)
        m = self.half + 1
        while True:
            for i in range(len(w) - m + 1):
                if w[i:i + m] in self.long_prefix:
                    k = m
                    while (i + k < len(w)
                           and w[i:i + k + 1] in self.long_prefix):
                        k += 1
                    rot = self.long_prefix[w[i:i + k]]
                    w = free_reduce(w[:i] + word_inverse(rot[k:]) + w[i + k:])
                    break
            else:
                return w

    def spellings(self, word):
        start = self.reduce(word)
        seen, frontier = {start}, [start]
        while frontier and len(seen) < _SPELL_CAP:
            w = frontier.pop()
            for i in range(len(w) - self.half + 1):
                swap = self.half_swap.get(w[i:i + self.half])
                if swap is None:
                    continue
                cand = free_reduce(w[:i] + swap + w[i + self.half:])
                if len(cand) == len(w) and cand not in seen:
                    seen.add(cand)
                    frontier.append(cand)
        return seen

    def cyclic(self, word):
        """Dehn-reduce every rotation until one shortens."""
        w, changed = self.reduce(word), True
        while changed and w:
            changed = False
            while len(w) >= 2 and w[0] == inv(w[-1]):
                w = w[1:-1]
            n = len(w)
            if n > self.half:
                for k in range(1, n):
                    red = self.reduce(w[k:] + w[:k])
                    if len(red) < n:
                        w, changed = red, True
                        break
        return w


class TestDehnIndex:
    """The pair index against the prefix tables it replaced."""

    @pytest.mark.parametrize("genus", [2, 3, 4, 5, 6])
    def test_matches_prefix_tables(self, genus):
        # 10,000 seeded words per genus, each with up to two relator
        # pieces spliced in (a piece may be a whole rotation)
        group = GroupSpec((genus,), 1)
        ref = _PrefixTables(group, 0)
        rel = group.relator(0)
        rotations = [r[k:] + r[:k] for r in (rel, word_inverse(rel))
                     for k in range(len(rel))]
        letters = list(group.factor_letters(0))
        rng = random.Random(genus)
        for _ in range(10_000):
            w = tuple(rng.choice(letters) for _ in range(rng.randrange(13)))
            for _ in range(rng.randrange(3)):
                piece = rng.choice(rotations)[:rng.randrange(1, len(rel) + 1)]
                i = rng.randrange(len(w) + 1)
                w = w[:i] + piece + w[i:]
            assert dehn_reduce(w, group, 0) == ref.reduce(w)
            assert dehn_spellings(w, group, 0) == ref.spellings(w)
            assert _cyclic_dehn_reduce(w, group, 0) == ref.cyclic(w)

    def test_repeated_letter_pair_is_refused(self):
        # [a, b][a, b]: every letter pair occurs twice, so pieces are longer
        # than one letter and a pair no longer fixes its rotation
        with pytest.raises(GroupError, match="repeated letter pair"):
            _DehnTable((0, 2, 1, 3, 0, 2, 1, 3))

    def test_largest_genus_builds_small_and_fast(self):
        # every per-group table is linear in the letters, so the largest
        # surface factor MAX_LETTERS admits builds in a fresh process
        script = (
            "import resource, time\n"
            "from sepstab.groups import GroupSpec, dehn_reduce\n"
            "t = time.perf_counter()\n"
            "g = GroupSpec((16383,), 1)\n"
            "t = time.perf_counter() - t\n"
            "assert dehn_reduce(g.relator(0), g, 0) == ()\n"
            "print(t, resource.getrusage(resource.RUSAGE_SELF).ru_maxrss)\n")
        r = subprocess.run([sys.executable, "-c", script],
                           capture_output=True, text=True)
        assert r.returncode == 0, r.stderr
        seconds, rss_kib = r.stdout.split()
        assert float(seconds) < 1.0
        assert int(rss_kib) < 100 * 1024


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


@pytest.fixture(scope="module")
def s2z_rep():
    from sepstab.gallery import build
    return build("s2-times-z")[0]


def assert_conjugate_traces(rep, word, cnf):
    """Conjugate elements have equal |tr| under a representation."""
    assert abs(rep.evaluate(cnf.letters()).trace()) == pytest.approx(
        abs(rep.evaluate(word).trace()), rel=1e-9, abs=1e-12)


class TestCyclicReduce:
    def test_conjugate(self, s2z_rep):
        w = S2Z.parse_word("t1 a1 T1")
        cnf = cyclic_reduce(w, S2Z)
        assert [(fid, S2Z.format_word(w)) for fid, w in cnf.syllables] == [(0, "a1")]
        assert_conjugate_traces(s2z_rep, w, cnf)

    def test_already_reduced(self):
        w = S2Z.parse_word("a1 t1")
        cnf = cyclic_reduce(w, S2Z)
        assert cnf.cyclic_length == 2
        assert cnf.letters() == w

    def test_trivial_raises(self):
        with pytest.raises(TrivialElement):
            cyclic_reduce(S2Z.parse_word("t1 T1"), S2Z)

    def test_cyclic_dehn_rotation(self, s2z_rep):
        # no linear Dehn step applies; the rotation B2 a1 b1 A1 B1 holds
        # five letters of the relator and shortens to a2 B2 A2
        w = S2Z.parse_word("a1 b1 A1 B1 B2")
        cnf = cyclic_reduce(w, S2Z)
        assert [(fid, S2Z.format_word(x)) for fid, x in cnf.syllables] == [
            (0, "B2")]
        assert_conjugate_traces(s2z_rep, w, cnf)

    def test_conjugate_under_matrices(self, s2z_rep):
        # the class keeps |tr| under a verified representation
        rng = random.Random(17)
        for _ in range(40):
            w = tuple(rng.randrange(S2Z.n_letters)
                      for _ in range(rng.randrange(1, 10)))
            if not free_reduce(w):
                continue
            try:
                cnf = cyclic_reduce(w, S2Z)
            except TrivialElement:
                continue
            assert_conjugate_traces(s2z_rep, w, cnf)

    def test_wrapped_syllable_vanishes(self):
        # the wrap merges A1 into a1; the middle syllable t1 remains
        cnf = cyclic_reduce(S2Z.parse_word("a1 t1 A1"), S2Z)
        assert [(fid, S2Z.format_word(x)) for fid, x in cnf.syllables] == [
            (1, "t1")]

    @pytest.mark.parametrize("group, letter", [
        (S2Z, -1), (S2Z, S2Z.n_letters), (F2, 7)])
    def test_letters_outside_the_group_are_refused(self, group, letter):
        with pytest.raises(LetterOutOfRange, match=f"letter {letter}"):
            cyclic_reduce((0, letter), group)
        with pytest.raises(LetterOutOfRange):
            normal_form((letter,), group)


def _multipass_merge(sylls, group, drop_rounds):
    """Reference: _merge_syllables as it was, re-running every pass that
    merged.  Appends to ``drop_rounds`` how many passes dropped a
    syllable."""
    changed, drops = True, 0
    while changed:
        changed = False
        out = []
        for fid, w in sylls:
            if out and out[-1][0] == fid:
                out[-1] = (fid, out[-1][1] + w)
                changed = True
            else:
                out.append((fid, w))
        sylls = []
        for fid, w in out:
            if fid < group.n_surface:
                w = dehn_reduce(w, group, fid)
            else:
                w = free_reduce(w)
            if w:
                sylls.append((fid, w))
            else:
                changed = True
        drops += len(sylls) < len(out)
    drop_rounds.append(drops)
    return sylls


def _multipass_normal_form(word, group, drop_rounds):
    sylls = [(group.letter_factor(x), (x,)) for x in free_reduce(word)]
    return _multipass_merge(sylls, group, drop_rounds)


def _multipass_cyclic_reduce(word, group, drop_rounds):
    """Reference: cyclic_reduce as it was, re-merging the whole list at
    each wrap step; its conjugator, which nothing read, is left out."""
    sylls = _multipass_normal_form(word, group, drop_rounds)
    if not sylls:
        raise TrivialElement("cannot cyclically reduce the identity")
    while len(sylls) >= 2 and sylls[0][0] == sylls[-1][0]:
        fid, last = sylls[-1]
        sylls = _multipass_merge([(fid, last)] + sylls[:-1], group,
                                 drop_rounds)
        if not sylls:
            raise TrivialElement("word is trivial in the group")
    if len(sylls) == 1 and sylls[0][0] < group.n_surface:
        fid, w = sylls[0]
        w = _multipass_cyclic_dehn_reduce(w, group, fid)
        if not w:
            raise TrivialElement("word is trivial in the group")
        sylls = [(fid, w)]
    return CyclicNormalForm(tuple(sylls))


def _multipass_cyclic_dehn_reduce(word, group, fid):
    """Reference: _cyclic_dehn_reduce as it was, less its conjugator."""
    table = group._dehn_tables[fid]
    m = table.half + 1
    w = dehn_reduce(word, group, fid)
    while w:
        while len(w) >= 2 and w[0] == inv(w[-1]):
            w = w[1:-1]
        n = len(w)
        if n < m:
            break
        hit = next(table.matches(w + w, m, n - m + 1, n), None)
        if hit is None:
            break
        k = hit[0] + m - n
        w = dehn_reduce(w[k:] + w[:k], group, fid)
    return w


MULTIPASS_GROUPS = {"S2*Z": S2Z, "S2*S2*Z": MIXED["S2*S2*Z"],
                    "S3*F2": MIXED["S3*F2"], "S2*F2": GroupSpec((2,), 2),
                    "F3": MIXED["F3"], "S2*S2*S2": GroupSpec((2, 2, 2), 0)}


def seeded_spliced_words(group, rng, count):
    """Random letter words with up to three pieces of relator rotations
    spliced in; half the pieces are whole rotations, which vanish."""
    rotations = [r[k:] + r[:k] for fid in range(group.n_surface)
                 for r in (group.relator(fid),
                           word_inverse(group.relator(fid)))
                 for k in range(len(r))]
    for _ in range(count):
        w = tuple(rng.randrange(group.n_letters)
                  for _ in range(rng.randrange(13)))
        for _ in range(rng.randrange(4) if rotations else 0):
            rot = rng.choice(rotations)
            i = rng.randrange(len(w) + 1)
            n = rng.choice((len(rot), rng.randrange(1, len(rot) + 1)))
            w = w[:i] + rot[:n] + w[i:]
        yield w


class TestMultiPassReference:
    """The one-pass normal forms against the passes they replaced."""

    def test_one_pass_matches(self):
        # 5,000 seeded words in each of six groups
        drop_rounds, trivial = [], 0
        for name, group in MULTIPASS_GROUPS.items():
            rng = random.Random(name)
            for w in seeded_spliced_words(group, rng, 5_000):
                assert normal_form(w, group) == _multipass_normal_form(
                    w, group, [])
                try:
                    ref = _multipass_cyclic_reduce(w, group, drop_rounds)
                except TrivialElement as exc:
                    trivial += 1
                    with pytest.raises(TrivialElement) as err:
                        cyclic_reduce(w, group)
                    assert str(err.value) == str(exc)
                    continue
                assert cyclic_reduce(w, group) == ref
        # the words reach the reference's repeated passes: some drop a
        # syllable, and on some the drops run over two or more passes
        assert trivial > 0
        assert sum(r > 0 for r in drop_rounds) > 1000
        assert sum(r >= 2 for r in drop_rounds) > 100


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
            cnf = cyclic_reduce(w, group)
        except TrivialElement:
            assume(False)
        assume(cnf.cyclic_length == len(w))
        rotations = [w[k:] + w[:k] for k in range(len(w))]
        assert cnf.letters() in rotations
        key = canonical_spelling(cnf, group)
        for rot in rotations:
            rcnf = cyclic_reduce(rot, group)
            assert rcnf.cyclic_length == len(w)
            assert canonical_spelling(rcnf, group) == key

    @settings(max_examples=200, deadline=None)
    @given(st.sampled_from(sorted(MIXED)), st.data())
    def test_inverse_shares_the_cyclic_length(self, name, data):
        group = MIXED[name]
        w = tuple(data.draw(letter_words(group, 12)))
        try:
            cnf = cyclic_reduce(w, group)
        except TrivialElement:
            with pytest.raises(TrivialElement):
                cyclic_reduce(word_inverse(w), group)
            return
        inverse = cyclic_reduce(word_inverse(w), group)
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
            cnf = cyclic_reduce(w, group)
        except TrivialElement:
            assume(False)
        letters = cnf.letters()
        least = min(letters[k:] + letters[:k] for k in range(len(letters)))
        for k in range(len(w)):
            assert canonical_class(w[k:] + w[:k], group) == least


def respelling_reference(cnf, group):
    """canonical_spelling as it was: the least spelling over the product of
    the same-length respellings of the surface runs of every rotation,
    falling back to the rotation itself past _SPELL_CAP combinations."""
    letters = cnf.letters()
    spellings = (spelled for k in range(len(letters))
                 for spelled in _respell(letters[k:] + letters[:k], group))
    return min(spellings, default=())


def _respell(letters, group):
    runs = _factor_runs(letters, group)
    options = []
    total = 1
    for fid, w in runs:
        if fid < group.n_surface and total <= _SPELL_CAP:
            opts = sorted(s for s in dehn_spellings(w, group, fid)
                          if len(s) == len(w))
            if not opts:
                opts = [w]
        else:
            opts = [w]
        total *= len(opts)
        options.append(opts)
    if total > _SPELL_CAP:
        yield tuple(itertools.chain.from_iterable(w for _, w in runs))
        return
    for combo in itertools.product(*options):
        yield tuple(itertools.chain.from_iterable(combo))


def cyclic_class(group, word):
    try:
        return cyclic_reduce(word, group)
    except TrivialElement:
        assume(False)


class TestCanonicalSpelling:
    """canonical_spelling writes each surface run of a rotation in its own
    least spelling.  That is the least spelling of the product of the
    runs' respellings, because every run of every rotation of a cyclic
    normal form is Dehn-reduced, so its respellings keep its length."""

    @settings(max_examples=300, deadline=None)
    @given(st.sampled_from(WITH_SURFACE), st.data())
    def test_every_run_of_every_rotation_is_dehn_reduced(self, name, data):
        group = MIXED[name]
        letters = cyclic_class(group, data.draw(spliced_words(group))).letters()
        for k in range(len(letters)):
            for fid, run in _factor_runs(letters[k:] + letters[:k], group):
                if fid < group.n_surface:
                    assert dehn_reduce(run, group, fid) == run
                    assert {len(s) for s in dehn_spellings(run, group, fid)
                            } == {len(run)}

    @settings(max_examples=300, deadline=None)
    @given(st.sampled_from(sorted(MIXED)), st.data())
    def test_matches_respelling_product(self, name, data):
        group = MIXED[name]
        cnf = cyclic_class(group, data.draw(spliced_words(group)))
        assert canonical_spelling(cnf, group) == respelling_reference(cnf,
                                                                      group)

    @pytest.mark.parametrize("group, max_len", [
        (S2Z, 4), (MIXED["S3*F2"], 3), (MIXED["S2*S2*Z"], 3)],
        ids=["S2*Z", "S3*F2", "S2*S2*Z"])
    def test_matches_respelling_product_on_every_class(self, monkeypatch,
                                                       group, max_len):
        # every leaf the enumeration keys, and every class it yields
        import sepstab.groups as groups
        keyed = []

        def spelling(cnf, group):
            keyed.append(cnf)
            return canonical_spelling(cnf, group)
        monkeypatch.setattr(groups, "canonical_spelling", spelling)
        classes = list(enumerate_elements(group, max_len))
        assert len(keyed) > len(classes) // 2
        for cnf in keyed + classes:
            assert canonical_spelling(cnf, group) == respelling_reference(
                cnf, group)

    def test_respells_every_surface_run(self):
        # the least rotation starts at a1 a1, and its second surface run
        # b2 a2 B2 A2 is a half-relator swap away from a1 b1 A1 B1
        cnf = cyclic_reduce(S2Z.parse_word("a1 a1 T1 b2 a2 B2 A2 T1"), S2Z)
        assert S2Z.format_word(canonical_spelling(cnf, S2Z)) == (
            "a1 a1 T1 a1 b1 A1 B1 T1")

    def test_empty_class(self):
        assert canonical_spelling(CyclicNormalForm(()), S2Z) == ()


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
                    cnf = cyclic_reduce(prefix, group)
                except TrivialElement:
                    continue
                if cnf.cyclic_length != length:
                    continue
                key = canonical_spelling(cnf, group)
                if key in seen:
                    continue
                seen.add(key)
                yield cyclic_reduce(key, group)
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

    @pytest.mark.parametrize("group, max_len", [
        (S2Z, 5), (MIXED["F3"], 5), (MIXED["S2*S2*Z"], 3),
        (MIXED["S3*F2"], 3)], ids=["S2*Z", "F3", "S2*S2*Z", "S3*F2"])
    def test_yields_cyclic_normal_forms(self, group, max_len):
        # swept_classes decides each class without reducing it again
        for cnf in enumerate_elements(group, max_len):
            assert cyclic_reduce(cnf.letters(), group) == cnf

    def test_only_necklaces_are_canonicalised(self, monkeypatch):
        # only cyclically reduced necklace leaves with a surface letter are
        # canonicalised; surface-free necklaces are yielded as their own
        # keys
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
        leaves = [w for w in reduced_necklaces(S2Z, 3)
                  if w[0] < low and (len(w) == 1 or w[-1] != inv(w[0]))]
        keys = set(keys)
        # one cyclic_reduce per such leaf, one more per yielded key
        assert sorted(tested) == sorted(leaves + list(keys))
        assert len(keys) == sum(1 for w in yielded if w[0] < low)
        t, T = low, inv(low)
        assert [w for w in yielded if w[0] >= low] == [
            (t,), (T,), (t, t), (T, T), (t, t, t), (T, T, T)]

    @pytest.mark.parametrize("max_len", [0, -2])
    def test_no_length_no_classes(self, max_len):
        for group in (F2, S2Z, MIXED["S2*S2*Z"]):
            assert list(enumerate_elements(group, max_len)) == []

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
        # class keys, not yielded letters: a mixed yield is
        # cyclic_reduce(key), which is spelled differently from its key in
        # 569 of the 1,977 classes of S2*Z <= 4 (ROADMAP item 6)
        for group, max_len in ((F2, 3), (S2Z, 4), (MIXED["S2*S2*Z"], 3)):
            keys = {canonical_spelling(c, group)
                    for c in enumerate_elements(group, max_len)}
            for k in keys:
                assert canonical_class(word_inverse(k), group) in keys, (
                    group.format_word(k))


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
                       "conjugacy classes twice (see ROADMAP item 10)")
    def test_one_representative_per_class(self):
        got = {S2Z.format_word(c.letters())
               for c in enumerate_elements(S2Z, 4)}
        assert [(u, v) for u, v, _ in DUPLICATE_CLASSES
                if u in got and v in got] == []
