import argparse
import math

import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from sepstab import stability
from sepstab.cli import _params_from_flags
from sepstab.gallery import build
from sepstab.groups import (GroupSpec, TrivialElement, cyclic_reduce,
                            least_period)
from sepstab.hyperbolic import (H3Point, HyperbolicError, MoebiusMap,
                                Representation, apply, dist,
                                loxodromic_with_axis)
from sepstab.separability import swept_classes
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
        cnf = cyclic_reduce((0,), F2)
        path = orbit_path(rep, cnf, 3, H3Point(0, 1))
        assert [round(p.t, 9) for p in path] == [1.0, 4.0, 16.0, 64.0]

    def test_two_points_for_single_power(self):
        rep, _ = build("schottky2")
        cnf = cyclic_reduce((0,), F2)
        path = orbit_path(rep, cnf, 1, H3Point(0, 1))
        assert len(path) == 2

    def test_length_formula(self):
        rep, _ = build("schottky2")
        cnf = cyclic_reduce(F2.parse_word("a b"), F2)
        path = orbit_path(rep, cnf, 5, H3Point(0, 1))
        assert len(path) == 5 * 2 + 1

    def test_equivariance_under_conjugation(self):
        # h rho h^-1 moves h o along the h-translate of rho's path at o:
        # (h P h^-1)(h o) = h (P o) for every prefix image P.  The path
        # runs 22 units from o, where distances are ill-conditioned in
        # floats, so the tolerance is 1e-5 against a largest error of
        # 2e-6 for this moderate h; h = rho(b a) would be off by 4.5.
        # Tracing from o instead of h o is off by 0.8.
        rep, _ = build("schottky2")
        h = MoebiusMap(1 + 2j, 0.3, -0.7j, 1)
        cnf = cyclic_reduce(F2.parse_word("a b"), F2)
        base = H3Point(0, 1)
        path = orbit_path(rep, cnf, 3, base)
        trans = orbit_path(rep.conjugated(h), cnf, 3, apply(h, base))
        assert len(trans) == len(path)
        for p, q in zip(path, trans):
            assert dist(apply(h, p), q) < 1e-5


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
        with pytest.raises(PathTooShort, match="no sampled pairs"):
            qg_fit([], 24, stability.A_MAX)

    def test_envelope_dominates_samples(self):
        from sepstab.hyperbolic import dist
        rep, _ = build("schottky2")
        cnf = cyclic_reduce(F2.parse_word("a b b"), F2)
        path = orbit_path(rep, cnf, 6, H3Point(0, 1))
        k, a, worst, _ = qg_constants(path, 24)
        n = len(path)
        for i in range(n):
            for j in range(i + 1, min(i + 24, n - 1) + 1):
                assert (j - i) <= k * dist(path[i], path[j]) + a + 1e-9

    def test_schottky_ab_regression_baseline(self):
        rep, _ = build("schottky2")
        cnf = cyclic_reduce(F2.parse_word("a b"), F2)
        path = orbit_path(rep, cnf, 8, H3Point(0, 1))
        _, _, worst, _ = qg_constants(path, 24)
        assert worst > 0
        assert abs(worst - 3.6838864320533786) < 1e-6


def pinched_phi(k):
    """pinched-a precomposed with the automorphism a -> a b^k, b -> b."""
    rep, disks = build("pinched-a")
    a, b = rep.generator_images()
    for _ in range(k):
        a = a * b
    return Representation(rep.group, [a, b]), disks


def _reference_rows(rep, letters, n, window):
    """Reference kernel: _qg_rows through MoebiusMap, apply and dist."""
    period = len(letters)
    images = [rep.image(x) for x in letters]
    o = stability.BASE_POINT
    rows = []
    for i in range(min(period, n)):
        m = MoebiusMap.identity()
        row = []
        for c in range(1, min(window, n - i) + 1):
            m = (m * images[(i + c - 1) % period]).renormalized()
            row.append(dist(o, apply(m, o)))
        rows.append(row)
    return rows


def _all_offsets_pairs(rep, path, window):
    """Reference: every offset of the whole path, no periodicity."""
    rows = _reference_rows(rep, path, len(path), window)
    return [(c, d) for row in rows for c, d in enumerate(row, 1)]


def _path_pairs(rows, n):
    """The (c, d) pairs of the length-n path, from the rows of a path of the
    same period that is at least n letters long."""
    return [(c, d) for i, row in enumerate(rows[:n])
            for c, d in enumerate(row[:n - i], 1)]


def _fit(pairs, window, a_max=50.0):
    try:
        return qg_fit(pairs, window, a_max)
    except StabilityError:
        return "infeasible"


def _outcome(kernel, *args):
    """A kernel's rows, or the type and message of what it raised."""
    try:
        return kernel(*args)
    except (HyperbolicError, OverflowError, ZeroDivisionError) as exc:
        return type(exc), str(exc)


class TestPeriodicKernel:
    # pinched-a o phi_5 rescales about 25k window products per sweep
    REPS = {name: build(name)[0]
            for name in ("schottky2", "s2-times-z", "pinched-a")}
    REPS["pinched-a-phi5"] = pinched_phi(5)[0]

    @settings(max_examples=200, deadline=None)
    @given(st.sampled_from(sorted(REPS)), st.data(),
           st.integers(1, 5), st.integers(2, 30))
    @example("schottky2", None, 1, 30)       # n < W
    @example("s2-times-z", None, 3, 24)      # W <= n < |g| - 1 + W
    @example("schottky2", None, 5, 2)        # long path
    @example("pinched-a-phi5", None, 5, 24)  # rescaled window products
    def test_one_period_matches_all_offsets(self, name, data, powers,
                                            window):
        rep = self.REPS[name]
        group = rep.group
        if data is None:
            word = {"schottky2": (0, 2, 2, 1, 3),
                    "s2-times-z": (0, 2, 8, 4, 8, 6, 8, 8),
                    "pinched-a-phi5": (1, 2, 2, 2, 2, 2, 2)}[name]
        else:
            word = tuple(data.draw(st.lists(
                st.integers(0, group.n_letters - 1), min_size=1,
                max_size=8)))
        try:
            cnf = cyclic_reduce(word, group)
        except TrivialElement:
            assume(False)
        letters = cnf.letters()
        n = len(letters) * powers
        half = len(letters) * max(1, powers // 2)
        rows = _outcome(stability._qg_rows, rep, letters, n, window)
        assert rows == _outcome(_reference_rows, rep, letters, n, window)
        assume(isinstance(rows, list))
        pairs = _path_pairs(rows, n)
        reference = _all_offsets_pairs(rep, letters * powers, window)
        assert set(pairs) == set(reference)
        fit = _fit(pairs, window)
        assert fit == _fit(reference, window)
        if fit == "infeasible":
            with pytest.raises(StabilityError):
                stability._fold_rows({}, rows, window)
        else:
            assert stability._fold_rows({}, rows, window) == fit[2]
        fit_half = _fit(_path_pairs(rows, half), window)
        assert fit_half == _fit(
            _all_offsets_pairs(rep, letters * max(1, powers // 2), window),
            window)
        # the sweep's half-power fit: each row cut to the shorter path
        cut = [row[:half - i] for i, row in enumerate(rows)]
        if fit_half == "infeasible":
            with pytest.raises(StabilityError):
                stability._fold_rows({}, cut, window)
        else:
            assert stability._fold_rows({}, cut, window) == fit_half[2]

    def test_singular_window_raises_like_reference(self):
        # pinched-a o phi_8: an 18-letter window of A b^5 has a computed
        # determinant of exactly 0 and cannot be renormalized
        rep, _ = pinched_phi(8)
        letters = rep.group.parse_word("A b b b b b")
        n = len(letters) * StabilityParams().powers
        expected = (HyperbolicError, "singular matrix")
        assert _outcome(_reference_rows, rep, letters, n, 24) == expected
        assert _outcome(stability._qg_rows, rep, letters, n, 24) == expected

    # each class skips the det_noise sum on a step whose |a|^2 or |b|^2
    # overflows there; x = cosh(dist) >= 1e300 makes the kernel square them
    @pytest.mark.parametrize("k, word, powers, window", [
        (14, "a a a b b", 16, 24), (14, "a a b a b", 16, 24),
        (18, "a a a B B", 16, 24), (17, "a a B A A b", 5, 30)])
    def test_skipped_noise_sum_raises_like_reference(self, k, word, powers,
                                                     window):
        rep, _ = pinched_phi(k)
        letters = rep.group.parse_word(word)
        n = len(letters) * powers
        expected = _outcome(_reference_rows, rep, letters, n, window)
        assert expected[0] is OverflowError
        assert _outcome(stability._qg_rows, rep, letters, n, window) == \
            expected

    # the short noise test fails and the full det_noise sum keeps the
    # product: on 2 steps of a1 b1 A1 t1 and 1 step of a a a b
    @pytest.mark.parametrize("name, word", [("s2-times-z", "a1 b1 A1 t1"),
                                            ("pinched-a", "a a a b")])
    def test_full_noise_sum_keeps_product(self, name, word):
        rep, _ = build(name)
        letters = rep.group.parse_word(word)
        n = len(letters) * 16
        assert stability._qg_rows(rep, letters, n, 24) == _reference_rows(
            rep, letters, n, 24)

    def test_overflowing_denominator_raises_like_reference(self):
        # det is inf, so the step skips DET_TOL; |d|^2 overflows in the
        # kernel's denominator, but the reference's det_noise fails first,
        # on |a| itself
        class Images:  # the one method both kernels call
            def image(self, letter):
                return MoebiusMap(complex(1.5e308, 1.5e308), 0, 0, 1e200,
                                  normalize=False)
        expected = (OverflowError, "absolute value too large")
        assert _outcome(_reference_rows, Images(), (0,), 2, 2) == expected
        assert _outcome(stability._qg_rows, Images(), (0,), 2, 2) == expected

    @settings(max_examples=500, deadline=None)
    @given(*[st.builds(complex, st.floats(-1e154, 1e154),
                       st.floats(-1e154, 1e154))] * 4)
    @example(0j, 0j, 5e-324j, 5e-324 + 0j)
    @example(1e154 + 1e154j, 0j, 1e-160 + 0j, 3.0 + 0j)
    @example(0j, 1.1e153 + 0j, 1e154 + 0j, 1e154 + 0j)
    def test_short_noise_bound_is_below_det_noise(self, a, b, c, d):
        # the kernel keeps a product on the short bound only because it
        # never exceeds MoebiusMap.det_noise
        try:
            short = (abs(d) ** 2 + abs(c) ** 2) * (16.0 * 2.3e-16)
            full = MoebiusMap(a, b, c, d, normalize=False).det_noise()
        except OverflowError:
            assume(False)
        assert short <= full

    @settings(max_examples=200, deadline=None)
    @given(st.lists(st.lists(st.lists(
        st.one_of(st.sampled_from([0.0, 5e-324, 1e-13, 1e-12, 2e-12]),
                  st.floats(0.0, 60.0)), min_size=1, max_size=56),
        min_size=1, max_size=3), min_size=1, max_size=3),
        st.integers(2, 60), st.sampled_from([0.5, 3.0, 7.5, 50.0]))
    # the slope comes from the least d above ZERO_DIST of a c whose least d
    # is below it; the envelope's 1e-9 slack keeps that pair feasible
    @example([[[60.0] * 39 + [1e-12], [60.0] * 39 + [1.000000000001e-12]]],
             40, 0.5)
    # a window of d = 0 past A_MAX: the class's own envelope is infeasible
    @example([[[0.0] * 55]], 56, 50.0)
    # the cap bites, but the slope of c = 52 lifts c = 51 under the envelope
    @example([[[1.0] * 50 + [1e-12, 1.000001e-12]]], 52, 50.0)
    def test_least_state_fits_like_raw_pairs(self, chunks, window, a_max):
        # each chunk is one class's rows; row lengths never grow with i
        least = {}
        raw = []
        for chunk in chunks:
            rows = sorted(chunk, key=len, reverse=True)
            pairs = [(c, d) for row in rows for c, d in enumerate(row, 1)]
            fit = _fit(pairs, window)
            if fit == "infeasible":
                with pytest.raises(StabilityError):
                    stability._fold_rows(least, rows, window)
            else:
                assert stability._fold_rows(least, rows, window) == fit[2]
            raw += pairs
        reduced = stability._least_pairs(least)
        assert len(reduced) <= 2 * len({c for c, _ in raw})
        assert _fit(reduced, window, a_max) == _fit(raw, window, a_max)

    @settings(max_examples=100, deadline=None)
    @given(st.sampled_from(sorted(REPS)), st.data(), st.integers(2, 3),
           st.integers(1, 3), st.integers(2, 30))
    def test_power_rows_are_prefixes_of_root_rows(self, name, data, k,
                                                  powers, window):
        # offset i >= |w| of the path of w^k reads the letters of offset
        # i - |w| over a window no longer, so it adds no (c, d) pair
        rep = self.REPS[name]
        word = tuple(data.draw(st.lists(
            st.integers(0, rep.group.n_letters - 1), min_size=1,
            max_size=6)))
        letters = word * k
        rows = _outcome(_reference_rows, rep, letters,
                        len(letters) * powers, window)
        assume(isinstance(rows, list))
        assert len(rows) == len(letters)
        for i in range(len(word), len(rows)):
            assert rows[i] == rows[i - len(word)][:len(rows[i])]

    @pytest.mark.parametrize("name,depth", [("schottky2", 4),
                                            ("s2-times-z", 2)])
    def test_window_products_bounded_by_one_period(self, monkeypatch, name,
                                                   depth):
        products = {}  # (period letters, n) -> window products

        def counting_rows(rep, letters, n, window):
            rows = qg_rows(rep, letters, n, window)
            products[letters, n] = sum(map(len, rows))
            return rows
        qg_rows = stability._qg_rows
        monkeypatch.setattr(stability, "_qg_rows", counting_rows)
        rep, _ = build(name)
        params = StabilityParams(depth=depth)
        report = stability_margin(rep, params)
        swept = [(rep.group.parse_word(r.spelling), r.length)
                 for r in report.records if "non_loxodromic" not in r.flags]
        assert swept
        assert 0 < sum(products.values()) <= sum(
            least_period(letters) * params.window for letters, _ in swept)
        # a power of a swept root whose path already spans p - 1 + W
        # letters makes no window product
        roots = {letters for letters, length in swept
                 if length * params.powers >= length - 1 + params.window}
        reused = [(letters, length) for letters, length in swept
                  if letters[:least_period(letters)] in roots
                  and least_period(letters) < length]
        for letters, length in reused:
            root = letters[:least_period(letters)]
            assert (root, length * params.powers) not in products
        assert bool(reused) == (name == "schottky2")

    @pytest.mark.parametrize("name, depth, powers, window", [
        ("schottky2", 16, 16, 24), ("pinched-a", 8, 16, 24),
        ("s2-times-z", 4, 16, 24), ("pinched-a-phi14", 8, 16, 24),
        # paths of 3 and 4 letter roots end inside W <= n < p - 1 + W
        ("schottky2", 8, 2, 6)])
    def test_records_match_full_period_rows(self, name, depth, powers,
                                            window):
        # the sweep before primitive periods and reuse: every class
        # measured over all |g| offsets of its own letters
        rep = pinched_phi(14)[0] if name == "pinched-a-phi14" else \
            build(name)[0]
        group = rep.group
        params = StabilityParams(depth=depth, powers=powers, window=window)
        report = stability_margin(rep, params)
        least = {}
        for r in report.records:
            if "non_loxodromic" in r.flags:
                continue
            letters = group.parse_word(r.spelling)
            rows = stability._qg_rows(rep, letters, r.length * powers,
                                      window)
            assert repr(stability._fold_rows(least, rows, window)) == \
                repr(r.worst_qg)
            if r.worst_qg_half is not None:
                half = r.length * max(1, powers // 2)
                assert repr(stability._fold_rows(
                    {}, [row[:half - i] for i, row in enumerate(rows)],
                    window)) == repr(r.worst_qg_half)
        k_est, a_est, _ = qg_fit(stability._least_pairs(least), window,
                                 stability.A_MAX)
        assert (repr(k_est), repr(a_est)) == (repr(report.k_est),
                                              repr(report.a_est))
        # the classes without a record are numeric errors on their own
        # letters too; in phi_14 they include the powers of a, whose root
        # raised and stored no rows
        recorded = {r.spelling for r in report.records}
        errors = []
        for cnf, _ in swept_classes(group, depth):
            letters = cnf.letters()
            if group.format_word(letters) in recorded:
                continue
            try:
                rep.evaluate(letters)
                stability._qg_rows(rep, letters, len(letters) * powers,
                                   window)
            except (HyperbolicError, OverflowError, ZeroDivisionError):
                errors.append(group.format_word(letters))
            else:
                raise AssertionError(group.format_word(letters))
        assert ({"a a", "a a a"} <= set(errors)) == (
            name == "pinched-a-phi14")

    @pytest.mark.parametrize("name, depth", [("schottky2", 3),
                                             ("s2-times-z", 2)])
    def test_window_past_every_path_sweeps_as_at_the_longest(self, name,
                                                             depth):
        # the rows read min(n, p - 1 + W) letters of each path, so a window
        # of 10**9 builds no longer path than W = L * N, the longest n
        rep, _ = build(name)
        wide, at_n = (stability_margin(rep, StabilityParams(
            depth=depth, window=window)) for window in (10 ** 9, depth * 16))
        assert wide.records and repr(wide.records) == repr(at_n.records)
        assert (wide.verdict, repr(wide.k_est), repr(wide.a_est)) == (
            at_n.verdict, repr(at_n.k_est), repr(at_n.a_est))

    @pytest.mark.parametrize("name, depth", [
        ("s2-times-z", 3), ("fuchsian-genus2", 2), ("pinched-a-phi14", 5)])
    def test_report_matches_reference_kernel(self, monkeypatch, name,
                                             depth):
        # repr compares every float bit for bit, NaN fields included
        rep = pinched_phi(14)[0] if name == "pinched-a-phi14" else \
            build(name)[0]
        params = StabilityParams(depth=depth)
        errors = []

        def reference_rows(*args):
            try:
                return _reference_rows(*args)
            except (HyperbolicError, OverflowError, ZeroDivisionError):
                errors.append(args[1])
                raise
        report = stability_margin(rep, params)
        monkeypatch.setattr(stability, "_qg_rows", reference_rows)
        assert repr(stability_margin(rep, params)) == repr(report)
        assert report.records
        # pinched-a o phi_14 reaches the numeric_error blockers
        assert bool(errors) == (name == "pinched-a-phi14")


class TestParams:
    @pytest.mark.parametrize("bad", [
        {"depth": 0}, {"powers": 1}, {"window": 1}, {"margin": 0.0},
        {"margin": -0.5}, {"margin": math.inf}, {"margin": math.nan}])
    def test_params_reject_bad_values(self, bad):
        with pytest.raises(StabilityError):
            StabilityParams(**bad)

    def test_flags_apply_to_fresh_params(self):
        group = GroupSpec((2,), 1)

        def flags(**given):
            return argparse.Namespace(**{
                k: given.get(k) for k in ("depth", "powers", "window",
                                          "margin")})
        params = _params_from_flags(flags(powers=3, margin=0.5), group)
        assert vars(params) == {"depth": 5, "powers": 3, "window": 24,
                                "margin": 0.5}
        assert vars(_params_from_flags(flags(), group)) == vars(
            StabilityParams.defaults_for(group))
        assert vars(_params_from_flags(flags(), F2))["depth"] == 8


class TestStabilityMargin:
    def test_schottky_pass_small_depth(self):
        rep, _ = build("schottky2")
        report = stability_margin(rep, StabilityParams(depth=5))
        assert report.verdict == "pass"
        assert report.margin >= 0.02
        assert report.k_est <= 100 and report.a_est <= 50

    def test_schottky_pass_at_depth_16(self):
        # the F2 sweep visits only the 544 separable classes of length <= 16
        rep, _ = build("schottky2")
        report = stability_margin(rep, StabilityParams(depth=16))
        assert report.verdict == "pass"
        assert (report.n_separable, report.n_unknown) == (544, 0)

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
        # conjugating by h measures the orbit of h^-1(BASE_POINT) = (5+2j, 3)
        h = MoebiusMap(1, -(5 + 2j), 0, 3)
        assert dist(apply(h.inverse(), stability.BASE_POINT),
                    H3Point(5 + 2j, 3)) < 1e-12
        params = StabilityParams(depth=4)
        for name, verdict in (("schottky2", "pass"), ("pinched-a", "fail")):
            rep, _ = build(name)
            a = stability_margin(rep, params)
            b = stability_margin(rep.conjugated(h), params)
            assert a.verdict == b.verdict == verdict

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

    def test_one_classification_per_class(self, monkeypatch):
        # translation_length reuses the sweep's kind instead of classifying
        from sepstab import hyperbolic
        calls = []

        def counting_classify(m):
            calls.append(m)
            return classify(m)
        classify = hyperbolic.classify
        monkeypatch.setattr(stability, "classify", counting_classify)
        monkeypatch.setattr(hyperbolic, "classify", counting_classify)
        rep, _ = build("schottky2")
        report = stability_margin(rep, StabilityParams(depth=3))
        assert report.records and len(calls) == len(report.records)

    def test_unknown_elements_cannot_fail(self):
        # a mixed rep with all-loxodromic images: unknown-separability
        # elements may block with inconclusive but never produce fail
        rep, _ = build("s2-times-z")
        report = stability_margin(rep, StabilityParams(depth=3, margin=0.02))
        assert report.verdict in ("pass", "inconclusive")


class TestNumericErrors:
    # at default depth, k = 7 used to raise HyperbolicError (a singular
    # window product in _qg_rows) and k = 10 OverflowError (from apply);
    # k = 4 ends in the parabolic band and k = 8-12 on numeric errors
    # (ROADMAP item 7)
    @pytest.mark.parametrize("k, flag", [
        (1, "non_loxodromic"), (2, "non_loxodromic"), (3, "non_loxodromic"),
        (4, "parabolic_adjacent"), (5, "non_loxodromic"),
        (6, "non_loxodromic"), (7, "non_loxodromic"), (8, "numeric_error"),
        (9, "numeric_error"), (10, "numeric_error"), (11, "numeric_error"),
        (12, "numeric_error")])
    def test_sweep_survives_large_entries(self, k, flag):
        rep, _ = pinched_phi(k)
        report = stability_margin(rep)
        assert report.verdict != "pass"
        assert flag in report.witness.flags

    @pytest.mark.parametrize("k", [7, 10])
    def test_cli_exits_without_traceback(self, k, tmp_path, capsys):
        from sepstab.cli import main
        from sepstab.repfile import RepFile, emit_rep
        rep, disks = pinched_phi(k)
        path = tmp_path / f"pinched-phi{k}.rep"
        path.write_text(emit_rep(RepFile(rep=rep, disks=disks)))
        code = main(["check-stability", str(path)])
        out, err = capsys.readouterr()
        assert code in (1, 2)
        assert "Traceback" not in err and "verdict: " in out

    def test_numeric_error_blocks_a_pass(self, monkeypatch):
        def singular(*args):
            raise HyperbolicError("singular matrix")
        monkeypatch.setattr(stability, "_qg_rows", singular)
        rep, _ = build("schottky2")
        report = stability_margin(rep, StabilityParams(depth=2))
        assert report.verdict == "inconclusive"
        assert report.witness.flags == ("numeric_error",)
        assert report.reason == (f"numeric error on {report.witness.spelling}"
                                 f": HyperbolicError: singular matrix")
        assert report.records == []

    def test_underflowing_window_product_raises(self):
        # |c|^2 + |d|^2 of a window product underflows to 0; 182 classes of
        # pinched-a∘φ_12 at L <= 8 do this, all of them not separable
        rep, _ = pinched_phi(12)
        with pytest.raises(ZeroDivisionError):
            stability._qg_rows(rep, rep.group.parse_word("a b A A b"),
                               5 * 16, 24)

    def test_nonfinite_window_determinant_raises(self):
        # a b = (inf, 0; 1e130, 0) has a NaN determinant; it used to be
        # divided by its square root into NaN entries
        rep = Representation(F2, [MoebiusMap(1e200, 0, 1, 1e-200),
                                  MoebiusMap(1e130, 0, 0, 1e-130)])
        for run in (lambda: stability._qg_rows(rep, (0, 2), 32, 24),
                    lambda: rep.evaluate((0, 2))):
            with pytest.raises(HyperbolicError,
                               match="determinant is not finite"):
                run()

    def test_zero_division_blocks_a_pass(self, monkeypatch, tmp_path,
                                         capsys):
        from sepstab.cli import main
        from sepstab.repfile import RepFile, emit_rep
        real = stability._qg_rows

        def underflow(rep, letters, n, window):
            if rep.group.format_word(letters) == "a":
                raise ZeroDivisionError("complex division by zero")
            return real(rep, letters, n, window)
        monkeypatch.setattr(stability, "_qg_rows", underflow)
        rep, disks = build("schottky2")
        report = stability_margin(rep, StabilityParams(depth=2))
        assert report.verdict == "inconclusive"
        assert report.witness.spelling == "a"
        assert report.witness.separability == "separable"
        assert report.witness.flags == ("numeric_error",)
        assert report.reason == ("numeric error on a: ZeroDivisionError: "
                                 "complex division by zero")
        assert "a" not in {r.spelling for r in report.records}

        path = tmp_path / "schottky2.rep"
        path.write_text(emit_rep(RepFile(rep=rep, disks=disks)))
        code = main(["check-stability", str(path), "--depth", "2"])
        out, err = capsys.readouterr()
        assert code == 2
        assert "Traceback" not in err and "verdict: inconclusive" in out


class TestVerdictBranches:
    """F2 with b = loxodromic_with_axis(2, 8, 5) and a short translation a,
    swept at depth 2: each a reaches one verdict branch, with witness a or,
    at the QG cap, with none."""

    @staticmethod
    def report(p, q, lam, margin=0.02):
        rep = Representation(F2, [loxodromic_with_axis(p, q, lam),
                                  loxodromic_with_axis(2, 8, 5)])
        return stability_margin(rep, StabilityParams(depth=2, margin=margin))

    @pytest.mark.parametrize("p, q, lam, verdict, flags", [
        (-1, 3, 1.005, "fail", ("decreasing_qg",)),
        # the axis of a passes through the base point: no decreasing trend
        (-1, 1, 1.005, "inconclusive", ("below_margin",)),
        # |tr^2 - 4| ~ 4e-8
        (-1, 3, 1.0001, "inconclusive", ("parabolic_adjacent",
                                         "below_margin")),
    ])
    def test_branch(self, p, q, lam, verdict, flags):
        report = self.report(p, q, lam)
        assert report.verdict == verdict
        assert report.witness.spelling == "a"
        assert report.witness.flags == flags

    def test_separable_in_parabolic_band(self):
        # at margin 1e-4, a's ratio (2.0e-4) and QG ratio (2.2e-4) clear the
        # margin, but |tr^2 - 4| ~ 4e-8 keeps it in the parabolic band
        report = self.report(-1, 3, 1.0001, margin=1e-4)
        assert report.verdict == "inconclusive"
        assert report.witness.spelling == "a"
        assert report.witness.flags == ("parabolic_adjacent",)
        assert report.reason == "separable element in the parabolic band"
        assert report.witness.ratio > 1e-4 and report.witness.worst_qg > 1e-4

    @staticmethod
    def unknown_for(monkeypatch, spellings=None):
        """Report the classes in ``spellings`` (all, if None) as unknown."""
        from sepstab import separability
        real = separability.swept_classes

        def patched(group, max_len):
            for cnf, status in real(group, max_len):
                if (spellings is None
                        or group.format_word(cnf.letters()) in spellings):
                    status = "unknown"
                yield cnf, status
        monkeypatch.setattr(separability, "swept_classes", patched)

    def test_unknown_non_loxodromic_blocks(self, monkeypatch):
        self.unknown_for(monkeypatch)
        report = stability_margin(build("pinched-a")[0],
                                  StabilityParams(depth=2))
        assert report.verdict == "inconclusive"
        assert report.witness.spelling == "a"
        assert report.witness.flags == ("non_loxodromic",)
        assert report.reason == ("unknown-separability element with a "
                                 "non-loxodromic image")
        assert (report.n_separable, report.n_unknown) == (0, 12)

    def test_first_fail_beats_an_earlier_blocker(self, monkeypatch):
        self.unknown_for(monkeypatch, {"a"})
        report = stability_margin(build("pinched-a")[0],
                                  StabilityParams(depth=2))
        assert report.verdict == "fail"
        assert report.witness.spelling == "A"
        assert report.witness.flags == ("non_loxodromic",)

    def test_unknown_below_margin_blocks(self, monkeypatch):
        self.unknown_for(monkeypatch)
        report = self.report(-1, 3, 1.005)
        assert report.verdict == "inconclusive"
        assert report.witness.spelling == "a"
        assert report.witness.flags == ("below_margin",)
        assert report.reason == "unknown-separability element below margin"
        # the trend fit is that of the whole path of a^(N/2)
        rep = Representation(F2, [loxodromic_with_axis(-1, 3, 1.005),
                                  loxodromic_with_axis(2, 8, 5)])
        params = StabilityParams()
        path = (0,) * (params.powers // 2)
        assert report.witness.worst_qg_half == qg_fit(
            _all_offsets_pairs(rep, path, params.window), params.window,
            stability.A_MAX)[2]

    @pytest.mark.parametrize("lam, k", [(1.002, "250.25"), (1.005, "100.25")])
    def test_qg_cap(self, lam, k):
        # at margin 1e-3 every ratio clears the margin; the global fit does
        # not, and the reason shows by how much
        report = self.report(-1, 1, lam, margin=1e-3)
        assert report.verdict == "inconclusive" and report.witness is None
        assert report.reason == (f"QG constants (K={k}, A=0) exceed the caps "
                                 f"(K_MAX=100, A_MAX=50)")


class TestSweep:
    def family(self):
        def build_rep(lam):
            return Representation(GroupSpec((), 2), [
                loxodromic_with_axis(-8.0, -2.0, lam),
                loxodromic_with_axis(2.0, 8.0, 5.0)])
        return build_rep

    def test_rows_and_error_isolation(self):
        rows = sweep(self.family(), [1.0, 2.0, 6.0, math.nan, math.inf],
                     StabilityParams(depth=4))
        assert len(rows) == 5
        assert rows[0][4] == "error" and "HyperbolicError" in rows[0][5]
        assert rows[1][4] == "pass" and rows[2][4] == "pass"
        for row, lam in zip(rows[3:], ("nan", "inf")):
            assert row[4] == "error" and f"lam = {lam}" in row[5]

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
