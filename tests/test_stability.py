import math

import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from sepstab import stability
from sepstab.gallery import build
from sepstab.groups import GroupSpec, TrivialElement, cyclic_reduce
from sepstab.hyperbolic import (H3Point, HyperbolicError, MoebiusMap,
                                Representation, apply, dist,
                                loxodromic_with_axis)
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
            cnf, _ = cyclic_reduce(word, group)
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

    @pytest.mark.parametrize("name,depth", [("schottky2", 4),
                                            ("s2-times-z", 2)])
    def test_window_products_bounded_by_one_period(self, monkeypatch, name,
                                                   depth):
        products = []

        def counting_rows(*args):
            rows = qg_rows(*args)
            products.append(sum(map(len, rows)))
            return rows
        qg_rows = stability._qg_rows
        monkeypatch.setattr(stability, "_qg_rows", counting_rows)
        rep, _ = build(name)
        params = StabilityParams(depth=depth)
        report = stability_margin(rep, params)
        swept = [r for r in report.records
                 if "non_loxodromic" not in r.flags]
        assert swept
        assert 0 < sum(products) <= sum(r.length * params.window
                                        for r in swept)


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

    @staticmethod
    def unknown_for(monkeypatch, spellings=None):
        """Report the classes in ``spellings`` (all, if None) as unknown."""
        from sepstab import separability
        real = separability.is_separable

        def patched(word, group):
            if spellings is None or group.format_word(word) in spellings:
                return separability.SeparabilityVerdict("unknown")
            return real(word, group)
        monkeypatch.setattr(separability, "is_separable", patched)

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
