"""Acceptance suite: one criterion per test, each printing a PASS line with
the measured quantities.  Run with `pytest tests/test_acceptance.py -v -s`.
"""

import math
import random
import subprocess
import sys
import time

import pytest

from sepstab.gallery import build
from sepstab.groups import (GroupSpec, canonical_class, cyclic_reduce,
                            enumerate_elements)
from sepstab.hyperbolic import (H3Point, MoebiusMap, apply, dist,
                                loxodromic_with_axis, translation_length)
from sepstab.pingpong import ping_pong_verify
from sepstab.sampling import graphs_agree, whitehead_graph_sampled_for
from sepstab.separability import is_separable_free, peak_reduce
from sepstab.stability import StabilityParams, stability_margin
from sepstab.whitehead import (is_strongly_connected, strong_cutpoints,
                               whitehead_graph_combinatorial)

F2 = GroupSpec((), 2)
F3 = GroupSpec((), 3)


def run_cli(*args):
    r = subprocess.run([sys.executable, "-m", "sepstab.cli", *args],
                       capture_output=True, text=True)
    return r.returncode, r.stdout, r.stderr


def _graph_defective(word, group):
    """The dichotomy side: some component not strongly connected, or with a
    strong cutpoint."""
    cnf = cyclic_reduce(word, group)
    wh = whitehead_graph_combinatorial(cnf, group)
    strong = is_strongly_connected(wh)
    if not all(strong.values()):
        return True
    return any(strong_cutpoints(wh).values())


def test_criterion_1_whitehead_dichotomy():
    """Every separable element's minimal-length graph is defective."""
    t0 = time.time()
    violations = []
    checked = separable = 0
    for group, max_len in ((F2, 8), (F3, 6)):
        for cnf in enumerate_elements(group, max_len):
            checked += 1
            verdict = is_separable_free(cnf.letters(), group)
            if not verdict.separable:
                continue
            separable += 1
            minimal, _ = peak_reduce(cnf.letters(), group.free_rank)
            if not _graph_defective(minimal, group):
                violations.append(group.format_word(minimal))
    elapsed = time.time() - t0
    assert not violations, f"violations: {violations[:5]}"
    assert elapsed < 300, f"runtime {elapsed:.0f}s exceeds 5 minutes"
    print(f"\nACCEPTANCE 1: PASS - dichotomy holds for {separable} separable "
          f"of {checked} classes (F2<=8, F3<=6), 0 violations, "
          f"{elapsed:.0f}s")


def _christoffel(p, q):
    n = p + q
    return tuple(0 if (i * p) // n > ((i - 1) * p) // n else 2
                 for i in range(1, n + 1))


def _signed_primitive(p, q):
    w = _christoffel(abs(p), abs(q))
    return tuple((0 if p >= 0 else 1) if x == 0 else (2 if q >= 0 else 3)
                 for x in w)


def _oracle_separable_classes(max_len):
    out = set()
    for p in range(-max_len, max_len + 1):
        for q in range(-max_len, max_len + 1):
            if (p, q) == (0, 0) or abs(p) + abs(q) > max_len:
                continue
            if math.gcd(abs(p), abs(q)) != 1:
                continue
            u = _signed_primitive(p, q)
            k = 1
            while k * len(u) <= max_len:
                out.add(canonical_class(u * k, F2))
                k += 1
    return out


def test_criterion_2_oracle_equivalence():
    """Free decision agrees with the brute-force factor-membership oracle
    (powers of primitive classes enumerated by coprime pairs) on all of
    F2 up to length six."""
    oracle = _oracle_separable_classes(6)
    total = disagreements = 0
    for cnf in enumerate_elements(F2, 6):
        total += 1
        key = cnf.letters()
        if is_separable_free(key, F2).separable != (key in oracle):
            disagreements += 1
    assert disagreements == 0
    print(f"\nACCEPTANCE 2: PASS - oracle agreement on {total} classes of "
          f"F2 length <= 6 (100%)")


def test_criterion_3_schottky_pass():
    """check-stability on the verified Schottky example passes at
    L=8, N=16 with margin >= 0.02 in under 60 seconds."""
    rep, disks = build("schottky2")
    cert = ping_pong_verify(rep, disks)
    assert cert.ok
    t0 = time.time()
    code, out, _ = run_cli("check-stability", "examples/schottky2")
    elapsed = time.time() - t0
    assert code == 0 and "verdict: pass" in out
    report = stability_margin(rep, StabilityParams(depth=8, powers=16))
    assert report.verdict == "pass"
    assert report.margin >= 0.02
    assert elapsed < 60, f"runtime {elapsed:.1f}s exceeds 60s"
    print(f"\nACCEPTANCE 3: PASS - schottky2 pass with margin "
          f"{report.margin:.4g} >= 0.02 at L=8 N=16 in {elapsed:.1f}s")


def test_criterion_4_pinched_fail():
    """check-stability on the pinched example fails with witness a,
    separable and parabolic to 1e-12."""
    code, out, _ = run_cli("check-stability", "examples/pinched-a")
    assert code == 1
    assert "witness: a" in out
    rep, _ = build("pinched-a")
    report = stability_margin(rep, StabilityParams(depth=8, powers=16))
    assert report.verdict == "fail"
    assert report.witness.spelling == "a"
    assert report.witness.kind == "parabolic"
    band = abs(report.witness.trace ** 2 - 4.0)
    assert band < 1e-12
    from sepstab.separability import is_separable
    assert is_separable(rep.group.parse_word("a"), rep.group).separable
    print(f"\nACCEPTANCE 4: PASS - pinched-a fails with witness a "
          f"(separable, parabolic, |tr^2-4| = {band:.2g} < 1e-12)")


def test_criterion_5_cross_construction_agreement():
    """Combinatorial and limit-set-sampled graphs agree for every class of
    cyclic length <= 4 in pi_1(S_2) * Z at sampling depth 3."""
    t0 = time.time()
    rep, disks = build("s2-times-z")
    cert = ping_pong_verify(rep, disks)
    assert cert.ok
    group = rep.group
    total = disagreements = 0
    for cnf in enumerate_elements(group, 4):
        total += 1
        comb = whitehead_graph_combinatorial(cnf, group)
        samp = whitehead_graph_sampled_for(rep, disks, cnf, 3)
        if not graphs_agree(comb, samp):
            disagreements += 1
    elapsed = time.time() - t0
    assert disagreements == 0
    print(f"\nACCEPTANCE 5: PASS - cross-construction agreement on {total} "
          f"classes (length <= 4, depth 3), 0 disagreements, {elapsed:.0f}s")


def test_criterion_6_numeric_kernel():
    """Translation-length homogeneity (tol 1e-6, k <= 8), metric isometry
    invariance (tol 1e-9, 1000 cases), Fuchsian relator residual < 1e-8."""
    m = loxodromic_with_axis(-3 + 0.5j, 4 - 1j, 2.7)
    l1 = translation_length(m)
    mk = m
    worst_h = 0.0
    for k in range(2, 9):
        mk = (mk * m).renormalized()
        worst_h = max(worst_h, abs(translation_length(mk) - k * l1))
    assert worst_h < 1e-6

    rng = random.Random(0)
    worst_i = 0.0
    for _ in range(1000):
        g = MoebiusMap(*(complex(rng.uniform(-2, 2), rng.uniform(-2, 2))
                         for _ in range(4)))
        p = H3Point(complex(rng.uniform(-5, 5), rng.uniform(-5, 5)),
                    rng.uniform(0.1, 5.0))
        q = H3Point(complex(rng.uniform(-5, 5), rng.uniform(-5, 5)),
                    rng.uniform(0.1, 5.0))
        worst_i = max(worst_i,
                      abs(dist(p, q) - dist(apply(g, p), apply(g, q))))
    assert worst_i < 1e-9

    rep, _ = build("fuchsian-genus2")
    residual = rep.relator_residuals()[0]
    assert residual < 1e-8
    print(f"\nACCEPTANCE 6: PASS - homogeneity err {worst_h:.2g} < 1e-6, "
          f"isometry err {worst_i:.2g} < 1e-9, relator residual "
          f"{residual:.2g} < 1e-8")


def test_criterion_7_conjugation_invariance():
    """Verdict and per-element translation ratios identical to 1e-9 under
    10 random conjugations of the Schottky example."""
    rng = random.Random(42)
    rep, _ = build("schottky2")
    params = StabilityParams(depth=8, powers=16)
    base = stability_margin(rep, params)
    ratios = {r.spelling: r.ratio for r in base.records}
    worst = 0.0

    def draw_conjugator():
        while True:  # reject near-singular draws; conjugation in PSL(2,C)
            vals = [complex(rng.uniform(-2, 2), rng.uniform(-2, 2))
                    for _ in range(4)]
            if abs(vals[0] * vals[3] - vals[1] * vals[2]) >= 0.5:
                return MoebiusMap(*vals)

    for _ in range(10):
        h = draw_conjugator()
        conj = stability_margin(rep.conjugated(h), params)
        assert conj.verdict == base.verdict
        assert len(conj.records) == len(base.records)
        for r in conj.records:
            worst = max(worst, abs(r.ratio - ratios[r.spelling]))
    assert worst < 1e-9
    print(f"\nACCEPTANCE 7: PASS - verdict and ratios invariant under 10 "
          f"conjugations (worst ratio drift {worst:.2g} < 1e-9)")


def test_criterion_8_determinism(tmp_path):
    """Two runs of every CLI acceptance command give byte-identical
    outputs."""
    def artifacts(run_dir):
        run_dir.mkdir()
        outputs = []
        cmds = [
            ("separable", "a b A B"),
            ("separable", "a b"),
            ("whitehead", "a a b b", "--dot", str(run_dir / "w.dot")),
            ("check-stability", "examples/schottky2",
             "--csv", str(run_dir / "s.csv")),
            ("check-stability", "examples/pinched-a"),
            ("sweep", "--grid", "2,5", "--depth", "4",
             "--csv", str(run_dir / "sw.csv")),
            ("examples", "--write", str(run_dir / "gallery")),
        ]
        for cmd in cmds:
            code, out, err = run_cli(*cmd)
            outputs.append((cmd[0], code,
                            out.replace(str(run_dir), "RUN"), err))
        for p in sorted(run_dir.rglob("*")):
            if p.is_file():
                outputs.append((str(p.relative_to(run_dir)), p.read_bytes()))
        return outputs

    first = artifacts(tmp_path / "run1")
    second = artifacts(tmp_path / "run2")
    assert first == second
    print(f"\nACCEPTANCE 8: PASS - {len(first)} outputs and artifacts "
          f"byte-identical across two runs")
