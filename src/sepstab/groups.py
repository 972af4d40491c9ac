"""Words, normal forms and conjugacy enumeration in free products
G_1 * ... * G_k * F_r of closed-surface groups and a free group.

Letters are interned small integers.  Letter 2m is the m-th positive
generator, letter 2m+1 its inverse, so ``letter ^ 1`` inverts.  Words are
plain tuples of letters, which keeps the depth-bounded enumeration loops
cheap and makes words hashable value types.
"""

from __future__ import annotations

import itertools
import numbers
from typing import Iterator, NamedTuple, Optional, Sequence

Word = tuple  # tuple of int letters

MAX_LETTERS = 1 << 16  # GroupSpec refuses larger generating sets


class GroupError(Exception):
    pass


class UniquelyFreelyDecomposable(GroupError):
    """Exactly two surface factors and no free part is refused."""


class MixedFactors(GroupError):
    pass


class TrivialElement(GroupError):
    pass


class LetterOutOfRange(GroupError):
    pass


def inv(letter: int) -> int:
    return letter ^ 1


class GroupSpec:
    """A free product of surface groups (genus >= 2) and infinite-cyclic
    factors, with the standard symmetric generating set.

    ``surface_genera`` lists the genera of the surface factors;
    ``free_rank`` is the number of infinite-cyclic factors.  Factor ids run
    over ``range(n_factors)``, surface factors first: the k-th surface
    factor has fid k - 1 and the k-th free factor fid n_surface + k - 1, so
    ``fid < n_surface`` is the one test of "is a surface factor".

    A group with more than MAX_LETTERS letters is refused before any
    per-letter table is built.  Every per-group table is linear in the
    letters (Dehn's algorithm keeps 8g index entries per genus-g factor),
    so MAX_LETTERS bounds them all.
    """

    def __init__(self, surface_genera: Sequence[int] = (), free_rank: int = 0):
        if not isinstance(free_rank, numbers.Integral) or free_rank < 0:
            raise GroupError(f"free rank must be a non-negative integer, "
                             f"not {free_rank!r}")
        surface_genera = tuple(surface_genera)  # read twice below
        for g in surface_genera:
            if not isinstance(g, numbers.Integral):
                raise GroupError(f"surface genus must be an integer, "
                                 f"not {g!r}")
            if g < 2:
                raise GroupError("surface factors need genus >= 2")
        n_letters = 4 * sum(surface_genera) + 2 * free_rank
        if n_letters > MAX_LETTERS:
            raise GroupError(f"the group has {n_letters} letters; at most "
                             f"{MAX_LETTERS} are supported")
        self.surface_genera = tuple(int(g) for g in surface_genera)
        self.free_rank = free_rank = int(free_rank)
        self.n_surface = n_surface = len(self.surface_genera)
        self.n_factors = n_surface + free_rank
        if self.n_factors < 2:
            raise GroupError(
                "need a nontrivial free product: at least two factors "
                "(a lone surface group or a lone Z is out of scope)")
        if n_surface == 2 and free_rank == 0:
            raise UniquelyFreelyDecomposable(
                "two surface factors with no free part are refused; this "
                "group has an essentially unique free decomposition")

        # letter tables: 4g letters per surface factor, 2 per free factor;
        # _gen_base ends with n_letters
        sizes = [4 * g for g in self.surface_genera] + [2] * free_rank
        self._gen_base = [0, *itertools.accumulate(sizes)]
        self._letter_factor = [fid for fid, n in enumerate(sizes)
                               for _ in range(n)]
        self.n_letters = self._gen_base[-1]
        self._names = self._build_names()
        self._name_to_letter = {n: i for i, n in enumerate(self._names)}
        # convenience aliases: bare a, b, c ... for purely free groups
        self._aliases = {}
        if n_surface == 0 and free_rank <= 26:
            for k in range(free_rank):
                lo = chr(ord("a") + k)
                self._aliases[lo] = 2 * k
                self._aliases[lo.upper()] = 2 * k + 1
        self._relators = [self._build_relator(fid) for fid in range(n_surface)]
        self._dehn_tables = [_DehnTable(rel) for rel in self._relators]

    # -- naming ---------------------------------------------------------

    def _build_names(self) -> list[str]:
        names = []
        for fid, genus in enumerate(self.surface_genera):
            for j in range(1, genus + 1):
                for base in ("a", "b"):
                    if self.n_surface == 1:
                        pos = f"{base}{j}"
                    else:
                        pos = f"{base}{fid + 1}.{j}"
                    names.append(pos)
                    names.append(pos[0].upper() + pos[1:])
        for k in range(1, self.free_rank + 1):
            names.append(f"t{k}")
            names.append(f"T{k}")
        return names

    def letter_name(self, letter: int) -> str:
        if not 0 <= letter < self.n_letters:
            raise LetterOutOfRange(f"letter {letter}")
        if self._aliases:
            # purely free: display bare letters
            k, s = divmod(letter, 2)
            c = chr(ord("a") + k)
            return c.upper() if s else c
        return self._names[letter]

    def parse_word(self, text: str) -> Word:
        """Parse a whitespace-separated word; capital letters are inverses."""
        letters = []
        for tok in text.split():
            if tok in self._name_to_letter:
                letters.append(self._name_to_letter[tok])
            elif tok in self._aliases:
                letters.append(self._aliases[tok])
            else:
                raise LetterOutOfRange(f"unknown letter {tok!r}")
        return tuple(letters)

    def format_word(self, word: Word) -> str:
        if not word:
            return "1"
        return " ".join(self.letter_name(x) for x in word)

    # -- structure ------------------------------------------------------

    def check_letters(self, word: Word) -> None:
        """Raise LetterOutOfRange unless every letter of ``word`` is one
        of the group's; one C-level min and max per word."""
        if word and (min(word) < 0 or max(word) >= self.n_letters):
            bad = next(x for x in word if not 0 <= x < self.n_letters)
            raise LetterOutOfRange(f"letter {bad}")

    def letter_factor(self, letter: int) -> int:
        return self._letter_factor[letter]

    def gen_base(self, fid: int) -> int:
        """First letter id of factor ``fid``; ``n_letters`` at ``n_factors``."""
        return self._gen_base[fid]

    def factor_letters(self, fid: int) -> range:
        return range(self._gen_base[fid], self._gen_base[fid + 1])

    def relator(self, fid: int) -> Word:
        return self._relators[fid]

    def _build_relator(self, fid: int) -> Word:
        base = self._gen_base[fid]
        rel = []
        for j in range(self.surface_genera[fid]):
            a = base + 4 * j
            b = base + 4 * j + 2
            rel.extend([a, b, inv(a), inv(b)])
        return tuple(rel)

    def __repr__(self):
        parts = ([f"Surface(genus={g})" for g in self.surface_genera]
                 + ["Z"] * self.free_rank)
        return "GroupSpec(" + " * ".join(parts) + ")"


# ---------------------------------------------------------------------------
# free reduction


def free_reduce(word: Word) -> Word:
    out = []
    for x in word:
        if out and out[-1] == inv(x):
            out.pop()
        else:
            out.append(x)
    return tuple(out)


def cyclic_free_reduce(word: Word) -> Word:
    """The cyclically reduced free word conjugate to ``word``: free-reduce,
    then cancel inverse end letters."""
    w = free_reduce(word)
    while len(w) >= 2 and w[0] == inv(w[-1]):
        w = w[1:-1]
    return w


def word_inverse(word: Word) -> Word:
    return tuple(inv(x) for x in reversed(word))


def word_mul(*words: Word) -> Word:
    return free_reduce(tuple(itertools.chain.from_iterable(words)))


def least_period(word: Word) -> int:
    """The least p with word == word[:p] * (len(word) // p); 0 for ()."""
    n = len(word)
    return next((p for p in range(1, n + 1)
                 if n % p == 0 and word == word[:p] * (n // p)), n)


# ---------------------------------------------------------------------------
# Dehn's algorithm inside a surface factor


class _DehnTable:
    """One index of the 8g rotations of R and R^-1, keyed by their first
    two letters: a pair maps to (the doubled word r + r, offset k), and
    the rotation is rr[k:k + 4g].

    Piece lemma: each letter occurs once in R = [a1, b1] ... [ag, bg] and
    once in R^-1, followed by different letters, so a piece (a common
    prefix of two distinct rotations) has at most one letter.  An adjacent
    letter pair therefore fixes the rotation it starts, and a prefix of at
    least two letters is found at its first two; the constructor checks
    that the 8g pairs are distinct.  Genus >= 2 makes the presentation
    C'(1/6), so replacing a subword longer than half the relator by the
    inverse of its complement strictly shortens, and the empty word is
    reached exactly for trivial elements (Lyndon-Schupp V.4).
    """

    def __init__(self, relator: Word):
        self.length = length = len(relator)  # 4g
        self.letters = frozenset(relator)     # the factor's 4g letters
        self.half = length // 2               # 2g
        self.index: dict[Word, tuple[Word, int]] = {}
        for r in (relator, word_inverse(relator)):
            rr = r + r
            for k in range(length):
                self.index[rr[k:k + 2]] = (rr, k)
        if len(self.index) != 2 * length:
            raise GroupError("relator has a repeated letter pair, so its "
                             "pieces are longer than one letter")

    def matches(self, word: Word, m: int, start: int = 0,
                stop: Optional[int] = None) -> Iterator[tuple]:
        """(i, rr, k) for each start i in [start, stop) with word[i:i + m]
        == rr[k:k + m], a prefix of a rotation; 2 <= m <= 4g."""
        get = self.index.get
        for i in range(start, len(word) - m + 1 if stop is None else stop):
            hit = get(word[i:i + 2])
            if hit is not None:
                rr, k = hit
                if word[i:i + m] == rr[k:k + m]:
                    yield i, rr, k

    def reduce_once(self, word: Word) -> Optional[Word]:
        """Replace the first 2g + 1 letters that start a rotation by the
        inverse of the rest of it.  Where the match runs on, free reduction
        cancels the inverse against the rest of the match, so the result
        is that of replacing the longest match."""
        m, length = self.half + 1, self.length
        if len(word) < m:
            return None
        for i, rr, k in self.matches(word, m):
            return free_reduce(word[:i] + word_inverse(rr[k + m:k + length])
                               + word[i + m:])
        return None


def dehn_reduce(word: Word, group: GroupSpec, fid: int) -> Word:
    """Dehn-reduce a word lying in surface factor ``fid``."""
    if not 0 <= fid < group.n_surface:
        raise MixedFactors(f"factor {fid} is not a surface factor")
    table = group._dehn_tables[fid]
    if not table.letters.issuperset(word):
        x = next(x for x in word if x not in table.letters)
        # letter_name raises LetterOutOfRange outside [0, n_letters)
        raise MixedFactors(
            f"letter {group.letter_name(x)} is outside factor {fid}")
    w = free_reduce(word)
    while True:
        nxt = table.reduce_once(w)
        if nxt is None:
            return w
        w = nxt


_SPELL_CAP = 4096


def dehn_spellings(word: Word, group: GroupSpec, fid: int) -> set:
    """All minimal-length spellings reachable by half-relator swaps.

    A swap replaces a subword of exactly 2g letters that starts a rotation
    of R^{+-1} by the inverse of the rotation's other half; by the piece
    lemma (``_DehnTable``) the subword's first two letters fix the
    rotation.  Bounded closure; surface-group conjugacy in full is out of
    scope, so a rarely-hit cap only costs canonicality of ties, never
    correctness.
    """
    table = group._dehn_tables[fid]
    start = dehn_reduce(word, group, fid)
    half, length = table.half, table.length
    seen = {start}
    frontier = [start] if len(start) >= half else []
    while frontier and len(seen) < _SPELL_CAP:
        w = frontier.pop()
        n = len(w)
        for i, rr, k in table.matches(w, half):
            cand = free_reduce(w[:i] + word_inverse(rr[k + half:k + length])
                               + w[i + half:])
            if len(cand) == n and cand not in seen:
                seen.add(cand)
                frontier.append(cand)
    return seen


def dehn_canonical(word: Word, group: GroupSpec, fid: int) -> Word:
    """Lexicographically least minimal-length spelling."""
    return min(dehn_spellings(word, group, fid))


# ---------------------------------------------------------------------------
# syllable normal form


class CyclicNormalForm(NamedTuple):
    """Cyclic sequence of (factor id, reduced factor word) syllables.

    Cyclically adjacent syllables lie in distinct factors and no syllable
    is the factor identity; surface syllables are Dehn-reduced.
    """

    syllables: tuple  # tuple of (fid, Word)

    @property
    def cyclic_length(self) -> int:
        return sum(len(w) for _, w in self.syllables)

    def letters(self) -> Word:
        return tuple(itertools.chain.from_iterable(w for _, w in self.syllables))


def _reduce_syllable(word: Word, group: GroupSpec, fid: int) -> Word:
    """Dehn-reduce a surface syllable, free-reduce a free one."""
    if fid < group.n_surface:
        return dehn_reduce(word, group, fid)
    return free_reduce(word)


def _merge_syllables(sylls: list, group: GroupSpec) -> list:
    """Merge adjacent same-factor syllables, reduce each result and drop
    factor identities.

    A pass leaves adjacent syllables in distinct factors until it drops
    one, whose neighbours may then share a factor; so a pass repeats only
    after a syllable vanished.  Reducing an already reduced syllable
    returns it unchanged.
    """
    while True:
        out = []
        for fid, w in sylls:
            if out and out[-1][0] == fid:
                out[-1] = (fid, out[-1][1] + w)
            else:
                out.append((fid, w))
        sylls = [(fid, r) for fid, w in out
                 if (r := _reduce_syllable(w, group, fid))]
        if len(sylls) == len(out):
            return sylls


def normal_form(word: Word, group: GroupSpec) -> list:
    """Linear syllable decomposition (first/last may share a factor).

    Raises LetterOutOfRange for a letter outside the group."""
    group.check_letters(word)
    sylls = [(group.letter_factor(x), (x,)) for x in free_reduce(word)]
    return _merge_syllables(sylls, group)


def cyclic_reduce(word: Word, group: GroupSpec) -> CyclicNormalForm:
    """The cyclic normal form of the conjugacy class of ``word``
    (Lyndon-Schupp IV.1); raises TrivialElement for the identity.

    While the two end syllables share a factor, the last is merged into
    the first: their product is reduced once, and if it vanishes the
    middle syllables remain.  Adjacent syllables of a normal form lie in
    distinct factors, so ends that share one have a middle syllable
    between them, and the list never empties.  A lone surface syllable is
    then cyclically Dehn-reduced; it stays nonempty, as a nonempty
    Dehn-reduced word is nontrivial and so are its conjugates.
    """
    sylls = normal_form(word, group)
    if not sylls:
        raise TrivialElement("cannot cyclically reduce the identity")
    while len(sylls) >= 2 and sylls[0][0] == sylls[-1][0]:
        fid, last = sylls.pop()
        merged = _reduce_syllable(last + sylls[0][1], group, fid)
        if merged:
            sylls[0] = (fid, merged)
        else:
            del sylls[0]
    if len(sylls) == 1 and sylls[0][0] < group.n_surface:
        fid, w = sylls[0]
        sylls = [(fid, _cyclic_dehn_reduce(w, group, fid))]
    return CyclicNormalForm(tuple(sylls))


def _cyclic_dehn_reduce(word: Word, group: GroupSpec, fid: int) -> Word:
    """Dehn-reduce reading the word cyclically: a conjugate of the word
    in which no rotation holds more than half a relator rotation.

    Each round rotates the least reducible rotation w[k:] + w[:k] to the
    front and Dehn-reduces it.  w is Dehn-reduced at every round; with
    |w| = n >= m = 2g + 1 and s the first start in w + w of an m-letter
    rotation prefix, that k is s + m - n: a match inside w or its copy
    would reduce w, so every match straddles the seam, and rotation k
    holds the one at s iff s + m - n <= k <= s.
    """
    table = group._dehn_tables[fid]
    m = table.half + 1
    w = dehn_reduce(word, group, fid)
    while True:
        w = cyclic_free_reduce(w)
        n = len(w)
        if n < m:
            return w
        hit = next(table.matches(w + w, m, n - m + 1, n), None)
        if hit is None:
            return w
        k = hit[0] + m - n
        w = dehn_reduce(w[k:] + w[:k], group, fid)


# ---------------------------------------------------------------------------
# canonical conjugacy representatives and enumeration


def canonical_spelling(cnf: CyclicNormalForm, group: GroupSpec) -> Word:
    """Lexicographically least letter rotation, each maximal surface run
    of a rotation written as the least of its dehn_spellings.

    Every run of every rotation of a cyclic normal form is Dehn-reduced: a
    subword of a Dehn-reduced syllable, or a rotation of a cyclically
    Dehn-reduced lone syllable.  So each respelling of a run keeps its
    length, and the least spelling of a rotation is the concatenation of
    the least spellings of its runs.
    """
    letters = cnf.letters()
    return min((tuple(itertools.chain.from_iterable(
        min(dehn_spellings(w, group, fid)) if fid < group.n_surface else w
        for fid, w in _factor_runs(letters[k:] + letters[:k], group)))
        for k in range(len(letters))), default=())


def _factor_runs(letters: Word, group: GroupSpec) -> list:
    """Maximal same-factor runs of ``letters``, read linearly, as
    (fid, word) pairs."""
    runs = []
    for x in letters:
        fid = group.letter_factor(x)
        if runs and runs[-1][0] == fid:
            runs[-1] = (fid, runs[-1][1] + (x,))
        else:
            runs.append((fid, (x,)))
    return runs


def canonical_class(word: Word, group: GroupSpec) -> Word:
    return canonical_spelling(cyclic_reduce(word, group), group)


def enumerate_elements(group: GroupSpec, max_len: int) -> Iterator[CyclicNormalForm]:
    """Canonical representatives of the conjugacy classes of cyclic length
    <= max_len, shortest first.  Inverse pairs are both produced.

    The walk visits reduced necklaces only (Fredricksen-Kessler-Maiorana;
    Ruskey-Sawada for forbidden substrings).  Each prefix carries its FKM
    period p: an extension below prefix[m - p] is no prenecklace and is
    pruned, and a full-length leaf is a necklace iff p divides its length.
    This is exact.  A reduced word w of cyclic length |w| spells its cyclic
    normal form up to rotation, so its key (canonical_spelling) depends
    only on the rotation class, and every rotation of w is reduced since
    w[0] != w[-1]^-1.  The least rotation is a necklace with w's key that
    the walk reaches first, so classes come in the order of the full walk.
    A necklace whose last letter inverts its first is cyclically shorter.

    A surface-free necklace is yielded as its own representative, with no
    canonicalisation.  A necklace starts with its least letter and surface
    letters come first, so it is surface-free iff its first letter is.
    Without surface runs the key is simply the least rotation: the
    necklace itself, which no other necklace and no key with a surface
    letter shares.  Its maximal same-factor runs are its cyclic normal
    form: a free factor has the letters x and x^-1 only, and a necklace
    x ... x is a power of x, so no other syllable wraps round.

    canonical_spelling respells each linear run of a rotation on its own,
    so in mixed products some classes get two keys and are yielded twice
    (ROADMAP item 10; the strict xfail in tests/test_groups.py).
    """
    seen = set()
    n = group.n_letters
    free_low = group.gen_base(group.n_surface)
    for length in range(1, max_len + 1):
        stack = [((), 1)]
        while stack:
            prefix, p = stack.pop()
            m = len(prefix)
            if m == length:
                if length % p:
                    continue  # not a necklace: its least rotation came first
                if length > 1 and prefix[-1] == inv(prefix[0]):
                    continue  # cyclically shorter
                if prefix[0] >= free_low:
                    yield CyclicNormalForm(tuple(_factor_runs(prefix, group)))
                    continue
                try:
                    cnf = cyclic_reduce(prefix, group)
                except TrivialElement:
                    continue
                if cnf.cyclic_length != length:
                    continue  # already produced at a shorter length
                key = canonical_spelling(cnf, group)
                if key in seen:
                    continue
                seen.add(key)
                yield cyclic_reduce(key, group)
                continue
            low = prefix[m - p] if m else 0
            for x in range(n - 1, low - 1, -1):
                if m and inv(prefix[-1]) == x:
                    continue
                stack.append((prefix + (x,), p if m and x == low else m + 1))
