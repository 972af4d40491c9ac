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
from dataclasses import dataclass
from typing import Iterator, Optional, Sequence

Word = tuple  # tuple of int letters


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


def word_inverse(word: Word) -> Word:
    return tuple(inv(x) for x in reversed(word))


def word_mul(*words: Word) -> Word:
    return free_reduce(tuple(itertools.chain.from_iterable(words)))


# ---------------------------------------------------------------------------
# Dehn's algorithm inside a surface factor


class _DehnTable:
    """Lookup structure for subwords of cyclic rotations of R and R^-1.

    Genus >= 2 makes the presentation C'(1/6), so replacing any subword
    longer than half the relator by the inverse of its complement strictly
    shortens, and the empty word is reached exactly for trivial elements.
    """

    def __init__(self, relator: Word):
        self.relator = relator
        self.length = len(relator)        # 4g
        self.half = self.length // 2      # 2g
        rotations = set()
        for r in (relator, word_inverse(relator)):
            for k in range(self.length):
                rotations.add(r[k:] + r[:k])
        self.rotations = rotations
        # prefix -> full rotation, for prefixes strictly longer than half
        self.long_prefix: dict[Word, Word] = {}
        for rot in rotations:
            for m in range(self.half + 1, self.length + 1):
                self.long_prefix.setdefault(rot[:m], rot)
        # exactly-half prefixes, for length-preserving respelling
        self.half_swap: dict[Word, Word] = {}
        for rot in rotations:
            head, tail = rot[: self.half], rot[self.half:]
            self.half_swap.setdefault(head, word_inverse(tail))

    def reduce_once(self, word: Word) -> Optional[Word]:
        n = len(word)
        m = self.half + 1
        if n < m:
            return None
        for i in range(n - m + 1):
            probe = word[i:i + m]
            if probe in self.long_prefix:
                # extend the match as far as possible
                k = m
                while i + k < n and word[i:i + k + 1] in self.long_prefix:
                    k += 1
                rot = self.long_prefix[word[i:i + k]]
                replacement = word_inverse(rot[k:])
                return free_reduce(word[:i] + replacement + word[i + k:])
        return None


def dehn_reduce(word: Word, group: GroupSpec, fid: int) -> Word:
    """Dehn-reduce a word lying in surface factor ``fid``."""
    if not 0 <= fid < group.n_surface:
        raise MixedFactors(f"factor {fid} is not a surface factor")
    for x in word:
        if group.letter_factor(x) != fid:
            raise MixedFactors(
                f"letter {group.letter_name(x)} is outside factor {fid}")
    table = group._dehn_tables[fid]
    w = free_reduce(word)
    while True:
        nxt = table.reduce_once(w)
        if nxt is None:
            return w
        w = nxt


_SPELL_CAP = 4096


def dehn_spellings(word: Word, group: GroupSpec, fid: int) -> set:
    """All minimal-length spellings reachable by half-relator swaps.

    Bounded closure; surface-group conjugacy in full is out of scope, so a
    rarely-hit cap only costs canonicality of ties, never correctness.
    """
    table = group._dehn_tables[fid]
    start = dehn_reduce(word, group, fid)
    seen = {start}
    frontier = [start]
    half = table.half
    while frontier and len(seen) < _SPELL_CAP:
        w = frontier.pop()
        n = len(w)
        for i in range(n - half + 1):
            probe = w[i:i + half]
            swap = table.half_swap.get(probe)
            if swap is None:
                continue
            cand = free_reduce(w[:i] + swap + w[i + half:])
            if len(cand) == n and cand not in seen:
                seen.add(cand)
                frontier.append(cand)
    return seen


def dehn_canonical(word: Word, group: GroupSpec, fid: int) -> Word:
    """Lexicographically least minimal-length spelling."""
    return min(dehn_spellings(word, group, fid))


# ---------------------------------------------------------------------------
# syllable normal form


@dataclass(frozen=True)
class CyclicNormalForm:
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


def _merge_syllables(sylls: list, group: GroupSpec) -> list:
    """Merge adjacent same-factor syllables and drop factor identities."""
    changed = True
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
    return sylls


def normal_form(word: Word, group: GroupSpec) -> list:
    """Linear syllable decomposition (first/last may share a factor)."""
    sylls = [(group.letter_factor(x), (x,)) for x in free_reduce(word)]
    return _merge_syllables(sylls, group)


def cyclic_reduce(word: Word, group: GroupSpec):
    """Return (CyclicNormalForm, conjugator) with
    conjugator^-1 * cyclic * conjugator == word in the group."""
    sylls = normal_form(word, group)
    if not sylls:
        raise TrivialElement("cannot cyclically reduce the identity")
    conj: Word = ()
    while len(sylls) >= 2 and sylls[0][0] == sylls[-1][0]:
        fid, last = sylls[-1]
        # w = last^-1 * (last w last^-1) * last: rotate the tail to the front
        conj = word_mul(last, conj)
        sylls = _merge_syllables([(fid, last)] + sylls[:-1], group)
        if not sylls:
            raise TrivialElement("word is trivial in the group")
    # a single surface syllable must additionally be cyclically Dehn-reduced
    if len(sylls) == 1 and sylls[0][0] < group.n_surface:
        fid, w = sylls[0]
        w, extra = _cyclic_dehn_reduce(w, group, fid)
        conj = word_mul(extra, conj)
        if not w:
            raise TrivialElement("word is trivial in the group")
        sylls = [(fid, w)]
    return CyclicNormalForm(tuple(sylls)), conj


def _cyclic_dehn_reduce(word: Word, group: GroupSpec, fid: int):
    """Dehn-reduce reading the word cyclically; returns (word, conjugator)."""
    table = group._dehn_tables[fid]
    w = dehn_reduce(word, group, fid)
    conj: Word = ()
    changed = True
    while changed and w:
        changed = False
        # cyclic free reduction
        while len(w) >= 2 and w[0] == inv(w[-1]):
            conj = word_mul((w[-1],), conj)
            w = w[1:-1]
        n = len(w)
        if n > table.half:
            for k in range(1, n):
                rot = w[k:] + w[:k]
                red = dehn_reduce(rot, group, fid)
                if len(red) < n:
                    # w = w[:k] * rot * w[:k]^-1
                    conj = word_mul(word_inverse(w[:k]), conj)
                    w = red
                    changed = True
                    break
    return w, conj


# ---------------------------------------------------------------------------
# canonical conjugacy representatives and enumeration


def canonical_spelling(cnf: CyclicNormalForm, group: GroupSpec) -> Word:
    """Lexicographically least letter spelling over all cyclic rotations,
    minimizing surface syllables over their half-relator respellings."""
    letters = cnf.letters()
    if not letters:
        return ()
    best = None
    n = len(letters)
    for k in range(n):
        rot = letters[k:] + letters[:k]
        for spelled in _respell(rot, group):
            if best is None or spelled < best:
                best = spelled
    return best


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


def _respell(letters: Word, group: GroupSpec) -> Iterator[Word]:
    """Spellings of a rotation: product of per-syllable minimal respellings.

    Cross products are capped; ties beyond the cap keep the base spelling.
    """
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


def canonical_class(word: Word, group: GroupSpec) -> Word:
    cnf, _ = cyclic_reduce(word, group)
    return canonical_spelling(cnf, group)


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

    A surface-free necklace is yielded as its own representative, with no
    canonicalisation.  A necklace starts with its least letter and surface
    letters come first, so it is surface-free iff its first letter is.
    Without surface runs _respell is the identity, so the key is the least
    rotation: the necklace itself, which no other necklace and no key with
    a surface letter shares.  Its cyclic length is its length unless its
    last letter inverts its first.  Its maximal same-factor runs are its
    cyclic normal form: a free factor has the letters x and x^-1 only, and
    a necklace x ... x is a power of x, so no other syllable wraps round.

    canonical_spelling respells each linear run of a rotation on its own,
    so in mixed products some classes get two keys and are yielded twice
    (ROADMAP item 4; the strict xfail in tests/test_groups.py).
    """
    if max_len < 1:
        return
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
                if prefix[0] >= free_low:
                    if length > 1 and prefix[-1] == inv(prefix[0]):
                        continue  # cyclically shorter
                    yield CyclicNormalForm(tuple(_factor_runs(prefix, group)))
                    continue
                try:
                    cnf, _ = cyclic_reduce(prefix, group)
                except TrivialElement:
                    continue
                if cnf.cyclic_length != length:
                    continue  # already produced at a shorter length
                key = canonical_spelling(cnf, group)
                if key in seen:
                    continue
                seen.add(key)
                kcnf, _ = cyclic_reduce(key, group)
                yield kcnf
                continue
            low = prefix[m - p] if m else 0
            for x in range(n - 1, low - 1, -1):
                if m and inv(prefix[-1]) == x:
                    continue
                stack.append((prefix + (x,), p if m and x == low else m + 1))
