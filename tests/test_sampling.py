import mpmath
import pytest

from sepstab import sampling
from sepstab.gallery import build
from sepstab.groups import GroupSpec, cyclic_reduce, enumerate_elements, inv
from sepstab.hyperbolic import (MoebiusMap, Representation, classify,
                                fixed_points, loxodromic_with_axis)
from sepstab.pingpong import UnverifiedDisks, ping_pong_verify
from sepstab.sampling import (MEMBERSHIP_TOL, _Navigator, graphs_agree,
                              sample_mu, whitehead_graph_sampled,
                              whitehead_graph_sampled_for)
from sepstab.whitehead import MuSpec, whitehead_graph_combinatorial


def _reference():
    rep, disks = build("s2-times-z")
    ping_pong_verify(rep, disks)
    return rep, disks


REP, DISKS = _reference()
GRP = REP.group


def cnf_of(text):
    cnf, _ = cyclic_reduce(GRP.parse_word(text), GRP)
    return cnf


class TestSampling:
    def test_unverified_disks_rejected(self):
        rep, disks = build("s2-times-z")  # fresh, no certificate
        with pytest.raises(UnverifiedDisks):
            whitehead_graph_sampled(rep, disks, MuSpec(sampled_pairs=()), 3)

    def test_empty_mu_gives_empty_graph(self):
        wh = whitehead_graph_sampled(REP, DISKS, MuSpec(sampled_pairs=()), 3)
        assert all(not c.edges for c in wh.components)

    def test_points_off_the_key_grid(self):
        # infinite, nan and huge points have no 1e-12 key; they fall in no
        # bounded first-level disk, so their pairs are dropped
        far = (complex("inf"), complex("nan"), complex(1e300, -1e300))
        pairs = tuple((z, 0.5 + 0j) for z in far)
        wh = whitehead_graph_sampled(REP, DISKS, MuSpec(sampled_pairs=pairs),
                                     3)
        assert all(not c.edges for c in wh.components)

    def test_depth_zero_free_letter(self):
        wh = whitehead_graph_sampled_for(REP, DISKS, cnf_of("t1"), 0)
        ball = wh.component("ball")
        assert [(e.u.label(), e.v.label()) for e in ball.edges] == [
            ("Dt1-", "Dt1+")]
        assert not wh.component("surface0").edges

    def test_mu_pairs_swap_closed(self):
        mu = sample_mu(REP, cnf_of("a1 t1"), 2)
        pairs = set(mu.sampled_pairs)
        assert pairs and all((q, p) in pairs for p, q in pairs)

    def test_schottky_generators_depth_one(self):
        # axes of the generator pair at depth 1 already reproduce the
        # combinatorial graphs of the generators and their product
        rep, disks = build("schottky2")
        ping_pong_verify(rep, disks)
        grp = rep.group
        for text in ("a", "b", "a b"):
            cnf, _ = cyclic_reduce(grp.parse_word(text), grp)
            comb = whitehead_graph_combinatorial(cnf, grp)
            samp = whitehead_graph_sampled_for(rep, disks, cnf, 1)
            assert graphs_agree(comb, samp)

    def test_schottky_longer_words_need_rotation_depth(self):
        rep, disks = build("schottky2")
        ping_pong_verify(rep, disks)
        grp = rep.group
        for text in ("a b A B", "a a b", "a B a B"):
            cnf, _ = cyclic_reduce(grp.parse_word(text), grp)
            comb = whitehead_graph_combinatorial(cnf, grp)
            samp = whitehead_graph_sampled_for(rep, disks, cnf, 3)
            assert graphs_agree(comb, samp)

    @pytest.mark.parametrize("text", [
        "t1", "a1", "B1", "a1 a2", "a1 b1", "a1 t1", "t1 t1",
        "a1 t1 A1 T1", "a1 t1 b1 t1", "a1 t1 t1",
    ])
    def test_cross_construction_words(self, text):
        cnf = cnf_of(text)
        comb = whitehead_graph_combinatorial(cnf, GRP)
        samp = whitehead_graph_sampled_for(REP, DISKS, cnf, 3)
        assert graphs_agree(comb, samp)

    def test_cross_construction_full_length_two(self):
        for cnf in enumerate_elements(GRP, 2):
            comb = whitehead_graph_combinatorial(cnf, GRP)
            samp = whitehead_graph_sampled_for(REP, DISKS, cnf, 3)
            assert graphs_agree(comb, samp), GRP.format_word(cnf.letters())


# ---------------------------------------------------------------------------
# reference copies of the per-conjugate sampler and the memo-free navigator


def _conjugate_fixed_pairs(rep, cnf, depth):
    """Axis endpoints of every conjugate h g h^-1, |h| <= depth, each
    conjugate multiplied out from the generator images and solved on its
    own (repelling point first, by derivative modulus); both orders of
    every pair.  The arithmetic has 40 digits: in doubles the quadratic
    formula loses up to ~6e-9 relative on the s2-times-z axes whose
    endpoints lie ~1e-6 apart."""
    with mpmath.workdps(40):
        def mp(m):
            return tuple(mpmath.mpc(z) for z in (m.a, m.b, m.c, m.d))

        def mul(m, n):
            return (m[0] * n[0] + m[1] * n[2], m[0] * n[1] + m[1] * n[3],
                    m[2] * n[0] + m[3] * n[2], m[2] * n[1] + m[3] * n[3])

        g = mp(MoebiusMap.identity())
        for x in cnf.letters():
            g = mul(g, mp(rep.image(x)))
        out = []

        def dfs(word, h):
            a, b, c, d = mul(mul(h, g), (h[3], -h[1], -h[2], h[0]))
            disc = mpmath.sqrt((d - a) ** 2 + 4 * b * c)
            z1, z2 = (a - d + disc) / (2 * c), (a - d - disc) / (2 * c)
            if abs(c * z1 + d) > abs(c * z2 + d):
                z1, z2 = z2, z1
            pair = (complex(z1), complex(z2))
            out.extend([pair, pair[::-1]])
            if len(word) < depth:
                for x in range(rep.group.n_letters):
                    if not word or word[-1] != inv(x):
                        dfs(word + (x,), mul(h, mp(rep.image(x))))

        dfs((), mp(MoebiusMap.identity()))
    return out


def _unmatched(pairs, reference):
    """Pairs with no reference pair within 1e-9 * max(1, |z|) at both
    endpoints (a 1e-3 grid on the first endpoint finds the candidates)."""
    def cell(z):
        return round(z.real * 1e3), round(z.imag * 1e3)

    grid = {}
    for p, q in reference:
        grid.setdefault(cell(p), []).append((p, q))

    def near(z, w):
        return abs(z - w) <= 1e-9 * max(1.0, abs(z))

    missing = []
    for p, q in pairs:
        assert abs(p) < 1e5  # the grid stays finer than the tolerance
        i, j = cell(p)
        if not any(near(p, rp) and near(q, rq)
                   for di in (-1, 0, 1) for dj in (-1, 0, 1)
                   for rp, rq in grid.get((i + di, j + dj), ())):
            missing.append((p, q))
    return missing


def _prefix_without_memo(nav, fid, p, cap):
    """The uncached inverse-iteration loop of ``surface_prefix``."""
    fA, fbre, fbim, fC = nav._factor_forms[fid]
    prefix, q = [], p
    while True:
        x, y = q.real, q.imag
        if fA * (x * x + y * y) + 2.0 * (fbre * x + fbim * y) + fC > MEMBERSHIP_TOL:
            return tuple(prefix)
        if len(prefix) > cap:
            return None
        best, best_mat, best_val = None, None, MEMBERSHIP_TOL
        for letter, (A, bre, bim, C), mat in nav._nav[fid]:
            val = A * (x * x + y * y) + 2.0 * (bre * x + bim * y) + C
            if val < best_val:
                best, best_mat, best_val = letter, mat, val
        if best is None:
            return None
        prefix.append(best)
        a, b, c, d = best_mat
        denom = c * q + d
        if denom == 0:
            return None
        q = (a * q + b) / denom


def _schottky():
    rep, disks = build("schottky2")
    ping_pong_verify(rep, disks)
    return rep, disks


class TestEndpointsAsImagesOfFixedPoints:
    @pytest.mark.parametrize("name,texts,depths", [
        # proper powers, and the classes where walking h = h' g would have
        # moved the pair of h' by more than the tolerance
        ("s2-times-z", ("t1", "a1", "a1 a1", "t1 t1", "a1 t1", "a2 t1",
                        "A2 t1", "b2 T1", "a1 B2", "a1 b1 A1"), (3,)),
        ("schottky2", None, (0, 1, 2, 3)),
    ])
    def test_matches_conjugate_fixed_points(self, name, texts, depths):
        rep = REP if name == "s2-times-z" else _schottky()[0]
        grp = rep.group
        classes = (enumerate_elements(grp, 4) if texts is None else
                   [cyclic_reduce(grp.parse_word(t), grp)[0] for t in texts])
        for cnf in classes:
            for depth in depths:
                pairs = sample_mu(rep, cnf, depth).sampled_pairs
                reference = _conjugate_fixed_pairs(rep, cnf, depth)
                assert pairs
                assert not _unmatched(pairs, reference)
                assert not _unmatched(reference, pairs)

    def test_one_classification_and_one_fixed_point_solve(self, monkeypatch):
        calls = {"classify": 0, "fixed_points": 0}

        def counting(name, fn):
            def wrapped(m):
                calls[name] += 1
                return fn(m)
            return wrapped

        monkeypatch.setattr(sampling, "classify",
                            counting("classify", classify))
        monkeypatch.setattr(sampling, "fixed_points",
                            counting("fixed_points", fixed_points))
        for text in ("t1", "a1 t1", "a1 b1 A1 t1"):
            calls.update(classify=0, fixed_points=0)
            assert sample_mu(REP, cnf_of(text), 3).sampled_pairs
            assert calls == {"classify": 1, "fixed_points": 1}

    def test_pair_sent_to_infinity_is_dropped(self):
        # b has its pole at +1, an endpoint of a's axis: the depth-1 pair
        # b(fix a) is skipped, while a b(fix a) below it is still sampled
        grp = GroupSpec((), 2)
        a = loxodromic_with_axis(-1, 1, 2.0)
        b = MoebiusMap(2, 1, 1, -1)
        assert b.moebius(1) is None
        rep = Representation(grp, [a, b])
        cnf, _ = cyclic_reduce(grp.parse_word("a"), grp)
        pairs = sample_mu(rep, cnf, 2).sampled_pairs
        assert all(p is not None and q is not None for p, q in pairs)
        ab = rep.image(0) * rep.image(2)
        expected = [(ab.moebius(-1), ab.moebius(1))]
        assert not _unmatched(expected, pairs)
        lone = rep.image(2).moebius(-1)  # paired with b(1) = infinity
        assert all(abs(z - lone) > 1e-6 for pair in pairs for z in pair)

    def test_sampling_leaves_its_arguments_alone(self):
        rep, disks = build("s2-times-z")
        ping_pong_verify(rep, disks)
        rep_before, disks_before = dict(vars(rep)), dict(vars(disks))
        cnf = cnf_of("a1 t1")
        sample_mu(rep, cnf, 3)
        whitehead_graph_sampled_for(rep, disks, cnf, 3)
        assert vars(rep) == rep_before
        assert vars(disks) == disks_before


class TestStripMemo:
    CLASSES = (("s2-times-z", ("a1", "a1 t1", "a1 b1 A1", "a1 a2 t1")),
               ("schottky2", ("a b",)))

    def _lookups(self, cap):
        """(memoized, memo-free, graph cap) for every endpoint of the
        classes at depth 3; cap None stands for the cap
        ``whitehead_graph_sampled_for`` uses.  Sampling order strips onto
        known points; the reverse order meets points first as strips."""
        for name, texts in self.CLASSES:
            rep, disks = (REP, DISKS) if name == "s2-times-z" else _schottky()
            grp = rep.group
            for text in texts:
                cnf, _ = cyclic_reduce(grp.parse_word(text), grp)
                graph_cap = 3 + cnf.cyclic_length + 2
                points = [p for pair in sample_mu(rep, cnf, 3).sampled_pairs
                          for p in pair]
                for order in (points, points[::-1]):
                    nav = _Navigator(rep, disks, cap or graph_cap)
                    for p in order:
                        for fid in nav.surface_fids:
                            yield (nav.surface_prefix(fid, p),
                                   _prefix_without_memo(nav, fid, p, nav.cap),
                                   graph_cap)

    @pytest.mark.parametrize("cap", [0, 1, 2, None])
    def test_equals_memo_free_loop(self, cap):
        n = 0
        for memo, plain, _ in self._lookups(cap):
            assert memo == plain
            n += 1
        assert n > 10000

    def test_long_cap_differs_only_on_noise_length_prefixes(self):
        # On the limit circle of the factor the true prefix is infinite;
        # past the graph's cap, inverse iteration only amplifies rounding,
        # and a point 1e-12 away may leave the disk at another strip.
        def noise(word, graph_cap):
            return word is None or len(word) > graph_cap

        differ = 0
        # cap 16, about twice the largest graph cap of these classes
        for memo, plain, graph_cap in self._lookups(16):
            if memo != plain:
                differ += 1
                assert noise(memo, graph_cap) and noise(plain, graph_cap)
        assert differ  # the circle classes do reach this case
