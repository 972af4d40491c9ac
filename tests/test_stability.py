import math

import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from sepstab import stability
from sepstab.gallery import build
from sepstab.groups import GroupSpec, TrivialElement, cyclic_reduce
from sepstab.hyperbolic import (H3Point, MoebiusMap, Representation, apply,
                                dist, loxodromic_with_axis)
from sepstab.stability import (PathTooShort, StabilityError, StabilityParams,
                               qg_fit, stability_margin, sweep)

F2 = GroupSpec((), 2)


# ---------------------------------------------------------------------------
# references: the orbit path in global coordinates and the QG constants
# over all of its subsegments, which the local-frame sweep must match


def orbit_path(rep, cnf, powers, base):
    """Images of the prefixes of the letter sequence of g^powers at base."""
    letters = cnf.letters() * powers
    pts = [base]
    m = MoebiusMap.identity()
    for x in letters:
        m = (m * rep.image(x)).renormalized()
        pts.append(apply(m, base))
    return pts


def qg_constants(path, window, a_max=50.0):
    """(k_est, a_est, worst_ratio, argmin pair) over subsegments of a path."""
    if len(path) < 2:
        raise PathTooShort("need at least two points")
    tagged = [(j - i, dist(path[i], path[j]), (i, j))
              for i in range(len(path))
              for j in range(i + 1, min(i + window, len(path) - 1) + 1)]
    k_est, a_est, worst = qg_fit([(c, d) for c, d, _ in tagged], window,
                                 a_max)
    max_c = max(c for c, _, _ in tagged)
    threshold = max(1, min(window // 2, max_c // 2))
    best = argmin = None
    for c, d, ij in tagged:
        if c >= threshold and (best is None or d / c < best):
            best, argmin = d / c, ij
    return k_est, a_est, worst, argmin


class TestOrbitPath:
    def test_diagonal_heights(self):
        rep = Representation(F2, [MoebiusMap(2, 0, 0, 0.5),
                                  loxodromic_with_axis(2, 8, 3)])
        cnf, _ = cyclic_reduce((0,), F2)
        path = orbit_path(rep, cnf, 3, H3Point(0, 1))
        assert [round(p.t, 9) for p in path] == [1.0, 4.0, 16.0, 64.0]

    def test_two_points_for_single_power(self):
        rep, _ = build("schottky2")
        cnf, _ = cyclic_reduce((0,), F2)
        path = orbit_path(rep, cnf, 1, H3Point(0, 1))
        assert len(path) == 2

    def test_length_formula(self):
        rep, _ = build("schottky2")
        cnf, _ = cyclic_reduce(F2.parse_word("a b"), F2)
        path = orbit_path(rep, cnf, 5, H3Point(0, 1))
        assert len(path) == 5 * 2 + 1

    def test_equivariance_under_conjugation(self):
        from sepstab.groups import word_mul, word_inverse
        from sepstab.hyperbolic import apply, dist
        rep, _ = build("schottky2")
        h = F2.parse_word("b a")
        w = F2.parse_word("a b")
        hm = rep.evaluate(h)
        cnf, _ = cyclic_reduce(w, F2)
        base = H3Point(0, 1)
        path = orbit_path(rep, cnf, 3, base)
        conj_word = word_mul(h, w, word_inverse(h))
        cnf2, conj = cyclic_reduce(conj_word, F2)
        # the conjugate's path from the translated basepoint is the
        # translate of the path
        trans = orbit_path(rep, cnf, 3, base)
        for p, q in zip(path, trans):
            assert dist(p, q) < 1e-9


class TestQgConstants:
    def test_exact_geodesic(self):
        path = [H3Point(0, math.e ** i) for i in range(30)]
        k, a, worst, arg = qg_constants(path, 24)
        assert abs(k - 1.0) < 1e-9
        assert a == 0.0
        assert abs(worst - 1.0) < 1e-9

    def test_constant_path(self):
        path = [H3Point(0, 1.0)] * 12
        _, _, worst, _ = qg_constants(path, 24)
        assert worst == 0.0

    def test_too_short(self):
        with pytest.raises(PathTooShort):
            qg_constants([H3Point(0, 1)], 24)

    def test_envelope_dominates_samples(self):
        from sepstab.hyperbolic import dist
        rep, _ = build("schottky2")
        cnf, _ = cyclic_reduce(F2.parse_word("a b b"), F2)
        path = orbit_path(rep, cnf, 6, H3Point(0, 1))
        k, a, worst, _ = qg_constants(path, 24)
        n = len(path)
        for i in range(n):
            for j in range(i + 1, min(i + 24, n - 1) + 1):
                assert (j - i) <= k * dist(path[i], path[j]) + a + 1e-9

    def test_schottky_ab_regression_baseline(self):
        rep, _ = build("schottky2")
        cnf, _ = cyclic_reduce(F2.parse_word("a b"), F2)
        path = orbit_path(rep, cnf, 8, H3Point(0, 1))
        _, _, worst, _ = qg_constants(path, 24)
        assert worst > 0
        assert abs(worst - 3.6838864320533786) < 1e-6


def _all_offsets_pairs(rep, path, window, base):
    """Reference kernel: every offset of the whole path, no periodicity."""
    n = len(path)
    pairs = []
    for i in range(n):
        m = MoebiusMap.identity()
        for c in range(1, min(window, n - i) + 1):
            m = (m * rep.image(path[i + c - 1])).renormalized()
            pairs.append((c, dist(base, apply(m, base))))
    return pairs


def _fit(pairs, window, a_max=50.0):
    try:
        return qg_fit(pairs, window, a_max)
    except StabilityError:
        return "infeasible"


class TestPeriodicKernel:
    REPS = {name: build(name)[0] for name in ("schottky2", "s2-times-z")}

    @settings(max_examples=150, deadline=None)
    @given(st.sampled_from(sorted(REPS)), st.data(),
           st.integers(1, 5), st.integers(2, 30))
    @example("schottky2", None, 1, 30)       # n < W
    @example("s2-times-z", None, 3, 24)      # W <= n < |g| - 1 + W
    @example("schottky2", None, 5, 2)        # long path
    def test_one_period_matches_all_offsets(self, name, data, powers,
                                            window):
        rep = self.REPS[name]
        group = rep.group
        if data is None:
            word = {"schottky2": (0, 2, 2, 1, 3),
                    "s2-times-z": (0, 2, 8, 4, 8, 6, 8, 8)}[name]
        else:
            word = tuple(data.draw(st.lists(
                st.integers(0, group.n_letters - 1), min_size=1,
                max_size=8)))
        try:
            cnf, _ = cyclic_reduce(word, group)
        except TrivialElement:
            assume(False)
        letters = cnf.letters()
        base = H3Point(0, 1)
        n = len(letters) * powers
        half = len(letters) * max(1, powers // 2)
        rows = stability._qg_rows(rep, letters, n, window, base)
        pairs = stability._qg_pairs(rows, n)
        reference = _all_offsets_pairs(rep, letters * powers, window, base)
        assert set(pairs) == set(reference)
        assert _fit(pairs, window) == _fit(reference, window)
        assert _fit(stability._qg_pairs(rows, half), window) == _fit(
            _all_offsets_pairs(rep, letters * max(1, powers // 2), window,
                               base), window)

    @settings(max_examples=300, deadline=None)
    @given(st.lists(st.lists(st.tuples(
        st.integers(1, 40),
        st.one_of(st.sampled_from([0.0, 5e-324, 1e-13, 1e-12, 2e-12]),
                  st.floats(0.0, 60.0))), min_size=1, max_size=30),
        min_size=1, max_size=4),
        st.integers(2, 40), st.sampled_from([0.5, 3.0, 7.5, 50.0]))
    # the slope comes from the least d above ZERO_DIST of a c whose least d
    # is below it; the envelope's 1e-9 slack keeps that pair feasible
    @example([[(40, 1e-12), (40, 1.000000000001e-12)]], 40, 0.5)
    def test_least_state_fits_like_raw_pairs(self, chunks, window, a_max):
        least = {}
        for chunk in chunks:
            stability._fold_least(least, chunk)
        raw = [pair for chunk in chunks for pair in chunk]
        reduced = stability._least_pairs(least)
        assert len(reduced) <= 2 * len({c for c, _ in raw})
        assert _fit(reduced, window, a_max) == _fit(raw, window, a_max)

    @pytest.mark.parametrize("name,depth", [("schottky2", 4),
                                            ("s2-times-z", 2)])
    def test_dist_calls_bounded_by_one_period(self, monkeypatch, name,
                                              depth):
        calls = []

        def counting_dist(p, q):
            calls.append(None)
            return dist(p, q)
        monkeypatch.setattr(stability, "dist", counting_dist)
        rep, _ = build(name)
        params = StabilityParams(depth=depth)
        report = stability_margin(rep, params)
        swept = [r for r in report.records
                 if "non_loxodromic" not in r.flags]
        assert swept
        assert 0 < len(calls) <= sum(r.length * params.window for r in swept)


class TestStabilityMargin:
    def test_schottky_pass_small_depth(self):
        rep, _ = build("schottky2")
        report = stability_margin(rep, StabilityParams(depth=5))
        assert report.verdict == "pass"
        assert report.margin >= 0.02
        assert report.k_est <= 100 and report.a_est <= 50

    def test_pinched_fail_with_witness(self):
        rep, _ = build("pinched-a")
        report = stability_margin(rep, StabilityParams(depth=4))
        assert report.verdict == "fail"
        assert report.witness.spelling == "a"
        assert report.witness.kind == "parabolic"
        assert abs(report.witness.trace ** 2 - 4.0) < 1e-12

    def test_fail_witness_is_recheckable(self):
        from sepstab.separability import is_separable
        rep, _ = build("pinched-a")
        report = stability_margin(rep, StabilityParams(depth=4))
        w = rep.group.parse_word(report.witness.spelling)
        assert is_separable(w, rep.group).separable
        m = rep.evaluate(w)
        tr2 = m.trace() ** 2
        assert abs(tr2 - 4.0) <= 1e-12 and not m.is_identity()

    def test_basepoint_robustness(self):
        rep, _ = build("schottky2")
        params = StabilityParams(depth=4)
        a = stability_margin(rep, params, base=H3Point(0, 1))
        b = stability_margin(rep, params, base=H3Point(5 + 2j, 3))
        assert a.verdict == b.verdict == "pass"
        repP, _ = build("pinched-a")
        a = stability_margin(repP, params, base=H3Point(0, 1))
        b = stability_margin(repP, params, base=H3Point(5 + 2j, 3))
        assert a.verdict == b.verdict == "fail"

    def test_conjugation_invariance(self):
        import random
        from sepstab.hyperbolic import MoebiusMap
        rng = random.Random(5)
        rep, _ = build("schottky2")
        params = StabilityParams(depth=3)
        base_report = stability_margin(rep, params)
        ratios = {r.spelling: r.ratio for r in base_report.records}
        for _ in range(3):
            h = MoebiusMap(*(complex(rng.uniform(-2, 2), rng.uniform(-2, 2))
                             for _ in range(4)))
            conj_report = stability_margin(rep.conjugated(h), params)
            assert conj_report.verdict == base_report.verdict
            for r in conj_report.records:
                assert abs(r.ratio - ratios[r.spelling]) < 1e-9

    def test_monotone_in_depth(self):
        rep, _ = build("schottky2")
        shallow = stability_margin(rep, StabilityParams(depth=3))
        deep = stability_margin(rep, StabilityParams(depth=5))
        spell_shallow = {r.spelling for r in shallow.records}
        deep_ratios = {r.spelling: r.ratio for r in deep.records}
        for s in spell_shallow:
            assert deep_ratios[s] >= 0.02

    def test_unknown_elements_cannot_fail(self):
        # a mixed rep with all-loxodromic images: unknown-separability
        # elements may block with inconclusive but never produce fail
        rep, _ = build("s2-times-z")
        report = stability_margin(rep, StabilityParams(depth=3, margin=0.02))
        assert report.verdict in ("pass", "inconclusive")


class TestVerdictBranches:
    """F2 with b = loxodromic_with_axis(2, 8, 5) and a short translation a,
    swept at depth 2: each a reaches one verdict branch with witness a."""

    @pytest.mark.parametrize("p, q, lam, verdict, flags", [
        (-1, 3, 1.005, "fail", ("decreasing_qg",)),
        # the axis of a passes through the base point: no decreasing trend
        (-1, 1, 1.005, "inconclusive", ("below_margin",)),
        # |tr^2 - 4| ~ 4e-8
        (-1, 3, 1.0001, "inconclusive", ("parabolic_adjacent",
                                         "below_margin")),
    ])
    def test_branch(self, p, q, lam, verdict, flags):
        rep = Representation(F2, [loxodromic_with_axis(p, q, lam),
                                  loxodromic_with_axis(2, 8, 5)])
        report = stability_margin(rep, StabilityParams(depth=2))
        assert report.verdict == verdict
        assert report.witness.spelling == "a"
        assert report.witness.flags == flags


class TestSweep:
    def family(self):
        def build_rep(lam):
            return Representation(GroupSpec((), 2), [
                loxodromic_with_axis(-8.0, -2.0, lam),
                loxodromic_with_axis(2.0, 8.0, 5.0)])
        return build_rep

    def test_rows_and_error_isolation(self):
        rows = sweep(self.family(), [1.0, 2.0, 6.0],
                     StabilityParams(depth=4))
        assert len(rows) == 3
        assert rows[0][4] == "error" and "HyperbolicError" in rows[0][5]
        assert rows[1][4] == "pass" and rows[2][4] == "pass"

    def test_margins_nondecreasing_in_lambda(self):
        rows = sweep(self.family(), [2.0, 4.0, 6.0, 8.0, 10.0],
                     StabilityParams(depth=4))
        margins = [float(r[1]) for r in rows]
        assert all(b >= a - 1e-12 for a, b in zip(margins, margins[1:]))
        # frozen first-run values
        assert abs(margins[0] - 2 * math.log(2)) < 1e-9
        assert abs(margins[-1] - 2 * math.log(5)) < 1e-9

    def test_empty_grid(self):
        assert sweep(self.family(), []) == []
