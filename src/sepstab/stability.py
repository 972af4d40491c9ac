"""Depth-bounded certification / refutation of separable-stability.

The exact condition quantifies over all separable elements and bi-infinite
geodesics; the checker truncates to conjugacy classes of cyclic length at
most L, traces the letter path of g^N from a basepoint, and measures

  * the translation-length margin: trans_len(rho(g)) / cyclic length, the
    effective compactness test (a separable element with a non-loxodromic
    image refutes stability outright);
  * quasi-geodesic constants of the orbit path over subsegments up to a
    window W; the fit over all classes must stay within K_MAX and A_MAX.

A Pass is therefore "certified at depth (L, N, W)", never more.  Elements
whose separability is Unknown are swept as well (a superset of the
separable set only strengthens a Pass) but can only block with
Inconclusive, never Fail.

Pair distances are computed in local frames, dist(x, rho(w[i:j]) x), so
window products stay short and no global drift accumulates.  The path of
g^N is periodic: offset i + |g| reads the same letters as offset i over a
window that is no longer, so its distances are a prefix of offset i's and
the sweep measures one period of offsets, |g| * W products per class.  The
fit at N // 2 powers folds the same rows cut to the shorter path, row i to
its first |g| * (N // 2) - i distances; it can therefore differ from the
fit at N powers only while |g| * (N // 2) < |g| - 1 + W (ROADMAP item 6).
The fit over all classes keeps, per window length c, only the least distance
and the least distance above ZERO_DIST, which determine qg_fit exactly.
"""

from __future__ import annotations

import cmath
from dataclasses import dataclass, field
from math import acosh
from typing import Callable, Dict, List, Optional, Sequence, Tuple

from sepstab import groups as G
from sepstab import separability as S
from sepstab.groups import GroupSpec, Word
from sepstab.hyperbolic import (DET_TOL, H3Point, HyperbolicError,
                                Representation, classify,
                                translation_length)

PARABOLIC_EXACT = 1e-12
PARABOLIC_FUZZY = 1e-6
TREND_TOL = 1e-9
ZERO_DIST = 1e-12         # qg_fit: a pair this close spans no distance
K_MAX = 100.0             # a pass needs the global QG fit within these caps
A_MAX = 50.0
BASE_POINT = H3Point(0.0, 1.0)  # orbit paths start here


class StabilityError(Exception):
    pass


class PathTooShort(StabilityError):
    pass


@dataclass
class StabilityParams:
    depth: int = 8            # L: max cyclic length of swept elements
    powers: int = 16          # N: powers of g traced
    window: int = 24          # W: subsegment length for QG checks
    margin: float = 0.02      # eps0: translation/QG ratio threshold

    def __post_init__(self):
        if self.depth < 1 or self.powers < 2 or self.window < 2:
            raise StabilityError("need depth >= 1, powers >= 2, window >= 2")
        if not 0 < self.margin < float("inf"):
            raise StabilityError("margin must be finite and positive")

    @staticmethod
    def defaults_for(group: GroupSpec) -> "StabilityParams":
        return StabilityParams(depth=5 if group.n_surface else 8)


@dataclass
class ElementRecord:
    spelling: str
    length: int
    separability: str            # "separable" | "unknown" (swept verdicts)
    trace: complex
    kind: str                    # classify() of the image
    trans_len: float
    ratio: float                 # trans_len / length
    worst_qg: float
    worst_qg_half: Optional[float] = None
    flags: Tuple[str, ...] = ()


@dataclass
class StabilityReport:
    params: StabilityParams
    verdict: str                          # "pass" | "fail" | "inconclusive"
    margin: float                         # min translation ratio
    k_est: float
    a_est: float
    records: List[ElementRecord] = field(default_factory=list)
    witness: Optional[ElementRecord] = None
    reason: str = ""
    n_separable: int = 0
    n_unknown: int = 0

    def exit_code(self) -> int:
        return {"pass": 0, "fail": 1, "inconclusive": 2}[self.verdict]

    def header(self) -> str:
        p = self.params
        return (f"separable-stability certified at depth "
                f"(L={p.depth}, N={p.powers}, W={p.window}); "
                f"margin threshold {p.margin}")


# ---------------------------------------------------------------------------
# quasi-geodesic constants


def _qg_rows(rep: Representation, letters: Word, n: int,
             window: int) -> List[List[float]]:
    """Row i holds dist(o, rho(path[i:i+c]) o), o = BASE_POINT, for
    c = 1..min(window, n - i), for the offsets i < min(|g|, n) of the
    length-n letter path of g^N whose period is ``letters``.

    Row i + |g| of the whole path would be a prefix of row i, so these
    rows hold every (c, d) pair of the path.

    One flat loop on (a, b, c, d) tuples of complex numbers.  Each window
    product repeats the IEEE operations of ``m * image`` followed by
    ``renormalized()``, and its distance those of dist(o, apply(m, o)) at
    o = (0, 1), where the zero coordinates of o drop out.  The rows
    therefore equal those of the MoebiusMap path bit for bit while the
    entries are finite, and the same errors are raised.
    """
    period = len(letters)
    images = [(m.a, m.b, m.c, m.d) for m in map(rep.image, letters)]
    path = images * (window // period + 2)  # covers i + c - 1 < |g| + W
    rows = []
    for i in range(min(period, n)):
        a, b, c, d = 1 + 0j, 0j, 0j, 1 + 0j  # MoebiusMap.identity()
        row = []
        for ia, ib, ic, id_ in path[i:i + min(window, n - i)]:
            a, b, c, d = (a * ia + b * ic, a * ib + b * id_,
                          c * ia + d * ic, c * ib + d * id_)
            det = a * d - b * c
            deviation = abs(det - 1.0)
            if not (deviation <= DET_TOL or deviation <= 16.0 * (
                    abs(a) ** 2 + abs(b) ** 2 + abs(c) ** 2 + abs(d) ** 2)
                    * 2.3e-16):  # MoebiusMap.renormalized / det_noise
                if det == 0:
                    raise HyperbolicError("singular matrix")
                s = cmath.sqrt(det)
                a, b, c, d = a / s, b / s, c / s, d / s
            denom = abs(d) ** 2 + abs(c) ** 2
            dz = abs((b * d.conjugate() + a * c.conjugate()) / denom)
            t = 1.0 / denom
            if not t > 0:
                raise HyperbolicError("height must be positive")
            dt = 1.0 - t
            row.append(acosh(max(1.0 + (dz * dz + dt * dt) / (2.0 * t),
                                 1.0)))
        rows.append(row)
    return rows


def _fold_rows(least: Dict[int, List[Optional[float]]],
               rows: Sequence[List[float]], window: int) -> float:
    """Fold the (c, d) pairs of ``rows`` into least[c] = [least d, least d
    above ZERO_DIST] and return qg_fit(pairs, window, A_MAX)[2], the worst
    ratio, in one pass over the rows.

    qg_fit over _least_pairs(least) equals qg_fit over every pair folded
    in, because IEEE division, multiplication and addition are monotone:
    min d / c is min(d / c); for c >= a the largest (c - a) / d is at the
    least d above ZERO_DIST (for c < a it is negative and cannot raise the
    fitted slope above 0); and the least d is the hardest feasibility case.

    The worst ratio starts, as min() does, from the first ratio in pair
    order, that of row 0 at the threshold c.  qg_fit over these pairs can
    only raise when its additive constant is capped at A_MAX, by a pair
    with d <= ZERO_DIST and c > A_MAX.  Otherwise each pair lies under the
    envelope, because the slope is at least (c - a) / d and the 1e-9 slack
    absorbs the rounding of k d + a while c < 2**21.  Outside those bounds
    the fit itself runs, so it raises exactly when qg_fit would.
    PathTooShort cannot arise, since row 0 of a nonempty path holds a pair.
    """
    max_c = len(rows[0])
    threshold = max(1, min(window // 2, max_c // 2))
    worst = rows[0][threshold - 1] / threshold
    top = 0  # largest c whose d is not above ZERO_DIST
    for row in rows:
        for c, d in enumerate(row, 1):
            cur = least.get(c)
            if cur is None:
                least[c] = cur = [d, None]
            elif d < cur[0]:
                cur[0] = d
            if d > ZERO_DIST:
                if cur[1] is None or d < cur[1]:
                    cur[1] = d
            elif c > top:
                top = c
            if c >= threshold:
                ratio = d / c
                if ratio < worst:
                    worst = ratio
    if top > A_MAX or max_c >= 1 << 21:
        pairs = [(c, d) for row in rows for c, d in enumerate(row, 1)]
        return qg_fit(pairs, window, A_MAX)[2]
    return worst


def _least_pairs(least: Dict[int, List[Optional[float]]]
                 ) -> List[Tuple[int, float]]:
    return [(c, d) for c, ds in least.items() for d in ds if d is not None]


def qg_fit(pairs: Sequence[Tuple[int, float]], window: int,
           a_max: float) -> Tuple[float, float, float]:
    """(k_est, a_est, worst_ratio) for c <= K d + A over sampled pairs.

    worst_ratio is min d/c over pairs with c at least half the effective
    window.  The envelope minimizes the additive constant first (the
    geodesic case then fits exactly as (1, 0)), then the slope, and is
    re-verified for feasibility.
    """
    if not pairs:
        raise PathTooShort("no sampled pairs")
    max_c = max(c for c, _ in pairs)
    threshold = max(1, min(window // 2, max_c // 2))
    ratios = [d / c for c, d in pairs if c >= threshold]
    worst = min(ratios) if ratios else 0.0
    a_est = min(max((c for c, d in pairs if d <= ZERO_DIST), default=0.0),
                a_max)
    k_candidates = [(c - a_est) / d for c, d in pairs if d > ZERO_DIST]
    k_est = max(k_candidates) if k_candidates else 0.0
    k_est = max(k_est, 0.0)
    for c, d in pairs:  # feasibility re-check of the fitted envelope
        if c > k_est * d + a_est + 1e-9:
            raise StabilityError("QG envelope fit is infeasible")
    return k_est, a_est, worst


# ---------------------------------------------------------------------------
# the margin checker


def stability_margin(rep: Representation,
                     params: Optional[StabilityParams] = None
                     ) -> StabilityReport:
    """Sweep separable (and separability-unknown) classes to the depth
    bound; verdict per the compactness margin and QG constants.

    Each class has at most one problem, a fail (certified, and
    non-loxodromic or decreasing_qg) or a blocker.  The verdict is the
    first fail, else the first blocker, else the K_MAX cap, else pass.
    """
    group = rep.group
    if params is None:
        params = StabilityParams.defaults_for(group)

    records: List[ElementRecord] = []
    problems: List[Tuple[str, str, ElementRecord]] = []  # verdict, reason, rec
    least: Dict[int, List[Optional[float]]] = {}
    n_sep = n_unk = 0

    for cnf in G.enumerate_elements(group, params.depth):
        letters = cnf.letters()
        status = S.is_separable(letters, group).status
        if status == "not_separable":
            continue
        certified = status == "separable"
        n_sep += certified
        n_unk += not certified
        spelling = group.format_word(letters)
        length = cnf.cyclic_length
        try:
            m = rep.evaluate(letters)
            kind = classify(m)
            band = abs(m.trace() ** 2 - 4.0)
            tl = translation_length(m, kind)
            flags = (["non_loxodromic"] if kind != "loxodromic" and (
                         band <= PARABOLIC_EXACT or kind != "parabolic")
                     else ["parabolic_adjacent"] if band < PARABOLIC_FUZZY
                     else [])
            rows = (None if "non_loxodromic" in flags else _qg_rows(
                rep, letters, length * params.powers, params.window))
        except (HyperbolicError, OverflowError, ZeroDivisionError) as exc:
            # no number of this class can be trusted, so it blocks a pass
            nan = float("nan")
            problems.append((
                "inconclusive",
                f"numeric error on {spelling}: {type(exc).__name__}: {exc}",
                ElementRecord(spelling, length, status, complex(nan, nan),
                              "unknown", nan, nan, nan,
                              flags=("numeric_error",))))
            continue

        ratio = tl / length
        worst, worst_half, problem = 0.0, None, None
        if rows is None:
            problem = (("fail", f"separable element {spelling} has a {kind} "
                                f"image") if certified else
                       ("inconclusive", "unknown-separability element with "
                                        "a non-loxodromic image"))
        else:
            worst = _fold_rows(least, rows, params.window)
            if worst < params.margin or ratio < params.margin:
                # the path of g^(N/2): row i cut to its first half - i pairs
                half = length * max(1, params.powers // 2)
                worst_half = _fold_rows(
                    {}, [row[:half - i] for i, row in enumerate(rows)],
                    params.window)
                if (certified and worst < params.margin
                        and worst < worst_half - TREND_TOL):
                    flags.append("decreasing_qg")
                    problem = ("fail", f"separable element {spelling} has QG "
                                       f"ratio {worst:.4g} below the margin "
                                       f"and decreasing across powers")
                else:
                    flags.append("below_margin")
                    problem = ("inconclusive",
                               "ratio below margin without a decreasing "
                               "trend" if certified else
                               "unknown-separability element below margin")
            elif certified and "parabolic_adjacent" in flags:
                problem = ("inconclusive",
                           "separable element in the parabolic band")

        rec = ElementRecord(spelling, length, status, m.trace(), kind, tl,
                            ratio, worst, worst_half, tuple(flags))
        records.append(rec)
        if problem is not None:
            problems.append((*problem, rec))

    margin = min((r.ratio for r in records), default=float("inf"))
    k_global, a_global, _ = (qg_fit(_least_pairs(least), params.window,
                                    A_MAX) if least else (0.0, 0.0, 0.0))
    # min keeps the first of equal keys: the first fail, else blocker
    problem = min(problems, key=lambda p: p[0] != "fail", default=None)
    if problem is not None:
        verdict, reason, witness = problem
    elif k_global > K_MAX:  # qg_fit already caps a_global at A_MAX
        verdict, witness = "inconclusive", None
        reason = (f"QG constants (K={k_global:.6g}, A={a_global:.6g}) "
                  f"exceed the caps (K_MAX={K_MAX:g}, A_MAX={A_MAX:g})")
    else:
        verdict, witness, reason = "pass", None, ""

    return StabilityReport(
        params=params, verdict=verdict, margin=margin,
        k_est=k_global, a_est=a_global, records=records, witness=witness,
        reason=reason, n_separable=n_sep, n_unknown=n_unk)


# ---------------------------------------------------------------------------
# CSV and sweeps

CSV_COLUMNS = ("element", "length", "separable", "trace_re", "trace_im",
               "trans_len", "ratio", "worst_qg", "verdict_flags")


def report_csv_rows(report: StabilityReport) -> List[List[str]]:
    rows = []
    for r in sorted(report.records, key=lambda r: (r.length, r.spelling)):
        rows.append([
            r.spelling, str(r.length), r.separability,
            repr(r.trace.real), repr(r.trace.imag), repr(r.trans_len),
            repr(r.ratio), repr(r.worst_qg), "|".join(r.flags)])
    return rows


SWEEP_COLUMNS = ("parameter", "margin", "k_est", "a_est", "verdict", "error")


def sweep(family: Callable[[float], Representation],
          grid: Sequence[float],
          params: Optional[StabilityParams] = None) -> List[List[str]]:
    """One row per grid point; per-point errors are recorded in-row and the
    sweep continues."""
    rows = []
    for value in grid:
        try:
            rep = family(value)
            report = stability_margin(rep, params)
            rows.append([repr(float(value)), repr(report.margin),
                         repr(report.k_est), repr(report.a_est),
                         report.verdict, ""])
        except Exception as exc:  # per-point isolation is the contract
            rows.append([repr(float(value)), "", "", "", "error",
                         f"{type(exc).__name__}: {exc}"])
    return rows
