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
Inconclusive, never Fail.  Matrices whose surface relator residual reaches
RELATOR_RESIDUAL_MAX, the bound the ping-pong certificate also reads, are
no representation of the group: the sweep still runs and reports its
records, but the verdict is Inconclusive.

Pair distances are computed in local frames, dist(x, rho(w[i:j]) x), so
window products stay short and no global drift accumulates.  The path of
g^N is periodic with the least period p of g's letters (p = |g| unless g
is spelled as a proper power r^k, then p = |r|): offset i + p reads the
same letters as offset i over a window that is no longer, so its distances
are a prefix of offset i's and the sweep measures one primitive period of
offsets, p * W products per class.  Rows depend on the path length n only
through min(n, p - 1 + W), so a proper power whose root was swept with
the same bound reuses the root's worst ratio, and makes no window
product.  The fit over all classes keeps, per window length c,
only the least distance and the least distance above ZERO_DIST, which
determine qg_fit exactly.

The QG ratios are read at the base point, so they move when the
representation is conjugated; a class below the margin therefore blocks
a Pass but never refutes one.  Only the trace decides a Fail.
"""

from __future__ import annotations

import cmath
from math import acosh
from typing import Callable, Dict, List, Optional, Sequence, Tuple

from sepstab import separability as S
from sepstab.groups import GroupSpec, Word, least_period
from sepstab.hyperbolic import (DET_TOL, RELATOR_RESIDUAL_MAX, H3Point,
                                HyperbolicError, Representation, classify,
                                translation_length)

PARABOLIC_EXACT = 1e-12
PARABOLIC_FUZZY = 1e-6
ZERO_DIST = 1e-12         # qg_fit: a pair this close spans no distance
K_MAX = 100.0             # a pass needs the global QG fit within these caps
A_MAX = 50.0
BASE_POINT = H3Point(0.0, 1.0)  # orbit paths start here


class StabilityError(Exception):
    pass


class PathTooShort(StabilityError):
    pass


def _repr(self) -> str:
    """The class name and every attribute, in the order __init__ sets them."""
    fields = ", ".join(f"{k}={v!r}" for k, v in vars(self).items())
    return f"{type(self).__name__}({fields})"


class StabilityParams:
    def __init__(self, depth: int = 8, powers: int = 16, window: int = 24,
                 margin: float = 0.02):
        if depth < 1 or powers < 2 or window < 2:
            raise StabilityError("need depth >= 1, powers >= 2, window >= 2")
        if not 0 < margin < float("inf"):
            raise StabilityError("margin must be finite and positive")
        self.depth = depth        # L: max cyclic length of swept elements
        self.powers = powers      # N: powers of g traced
        self.window = window      # W: subsegment length for QG checks
        self.margin = margin      # eps0: translation/QG ratio threshold

    __repr__ = _repr

    @staticmethod
    def defaults_for(group: GroupSpec) -> "StabilityParams":
        return StabilityParams(depth=5 if group.n_surface else 8)


class ElementRecord:
    def __init__(self, spelling: str, length: int, separability: str,
                 trace: complex, kind: str, trans_len: float, ratio: float,
                 worst_qg: float, flags: Tuple[str, ...] = ()):
        self.spelling = spelling
        self.length = length
        self.separability = separability  # "separable" | "unknown"
        self.trace = trace
        self.kind = kind                    # classify() of the image
        self.trans_len = trans_len
        self.ratio = ratio                  # trans_len / length
        self.worst_qg = worst_qg
        self.flags = flags

    # never set; perfbench/tracing.py reads it (ROADMAP item 5 drops both)
    worst_qg_half = None

    __repr__ = _repr


class StabilityReport:
    def __init__(self, params: StabilityParams, verdict: str, margin: float,
                 k_est: float, a_est: float,
                 records: Optional[List[ElementRecord]] = None,
                 witness: Optional[ElementRecord] = None, reason: str = "",
                 n_separable: int = 0, n_unknown: int = 0):
        self.params = params
        self.verdict = verdict    # "pass" | "fail" | "inconclusive"
        self.margin = margin      # min translation ratio
        self.k_est = k_est
        self.a_est = a_est
        self.records = [] if records is None else records
        self.witness = witness
        self.reason = reason
        self.n_separable = n_separable
        self.n_unknown = n_unknown

    __repr__ = _repr

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
    c = 1..min(window, n - i), for the offsets i < min(p, n) of the
    length-n letter path whose period is ``letters``, p = len(letters).

    Row i + p of the whole path would be a prefix of row i, so these rows
    hold every (c, d) pair of the path.

    One flat loop on (a, b, c, d) tuples of complex numbers.  Each window
    product repeats the IEEE operations of ``m * image`` followed by
    ``renormalized()``, and its distance those of dist(o, apply(m, o)) at
    o = (0, 1), where the zero coordinates of o drop out.  The rows
    therefore equal those of the MoebiusMap path bit for bit while the
    entries are finite, and the same errors are raised.

    The renormalization test runs in up to three steps.  A deviation
    |det - 1| within DET_TOL keeps the product, as ``renormalized`` does.
    A larger one is held first against denom * (16 * 2.3e-16), where
    denom = fl(|d|^2 + |c|^2) is the distance's own denominator, and only
    when that short test fails against ``det_noise``'s full sum
    fl(16 * fl(((|a|^2 + |b|^2) + |c|^2) + |d|^2) * 2.3e-16).

    Lemma: the short bound never exceeds the full one.  Rounding is
    monotone and the squares are >= 0, so with S = fl(|a|^2 + |b|^2),
    fl(S + |c|^2) >= |c|^2 and fl(fl(S + |c|^2) + |d|^2) >= fl(|c|^2 +
    |d|^2) = denom.  16 * 2.3e-16 is exact in binary, so 16 * sum * 2.3e-16
    and sum * (16 * 2.3e-16) are one real number rounded once (the full
    bound is inf if 16 * sum overflows), and rounding keeps the order.  A
    passed short test is therefore a passed full test: the product is
    kept exactly when ``renormalized`` keeps it.

    The guard.  The reference evaluates the full sum at every step past
    DET_TOL, and |a|^2 or |b|^2 raises OverflowError there once it passes
    1.8e308.  On a step that skipped the sum (``skipped``) the kernel
    raises that error too, before anything else of the step:

      * if the step raises, the handler first evaluates the full sum in
        the reference's order, and what it raises is the reference's
        error.  When denom overflowed, the sum squares the same |c| and
        |d| and must raise.  Otherwise the short test passed; if the sum
        raises nothing, the full test passes by the lemma, and the
        reference keeps the same product and raises the kernel's error
        from the same distance operations.
      * if the step ends with x = cosh(dist) below 1e300, neither square
        can overflow.  With D = |c|^2 + |d|^2 and N = a c' + b d' (' the
        conjugate), the Lagrange identity (|a|^2 + |b|^2) D = |N|^2 +
        |det|^2 and x = (|N|^2 + 1 + D^2) / (2 D), up to rounding, give
        |a|^2 + |b|^2 <= 2x + |det|^2 / D.  The passed short test bounds
        |det| by 1 + 3.7e-15 D plus a rounding error of a few ulps of
        |a||d| + |b||c| <= sqrt((|a|^2 + |b|^2) D), while 1/D <= 2x and
        D <= 2x; so |a|^2 + |b|^2 <= 9x < 1e301, and the rounding of N
        and x moves this by a few ulps.  A det that overflowed is inf or
        NaN and passes the short test only at denom = inf, where the
        step raises.  An overflow in N or x makes x inf, and an inf - inf
        in a product makes it NaN, so at x >= 1e300 or NaN the step
        evaluates |a|^2 + |b|^2, which raises where the reference does.
    """
    period = len(letters)
    images = [(m.a, m.b, m.c, m.d) for m in map(rep.image, letters)]
    # the rows read path[i + c - 1] for i + c <= min(n, p - 1 + W)
    path = images * -(-min(n, period - 1 + window) // period)
    rows = []
    for i in range(min(period, n)):
        a, b, c, d = 1 + 0j, 0j, 0j, 1 + 0j  # MoebiusMap.identity()
        row = []
        row_append = row.append
        for ia, ib, ic, id_ in path[i:i + min(window, n - i)]:
            a, b, c, d = (a * ia + b * ic, a * ib + b * id_,
                          c * ia + d * ic, c * ib + d * id_)
            det = a * d - b * c
            deviation = abs(det - 1.0)
            skipped = not deviation <= DET_TOL  # the reference sums here
            try:
                denom = abs(d) ** 2 + abs(c) ** 2
                if skipped and not deviation <= denom * (16.0 * 2.3e-16):
                    skipped = False  # the full sum, in the reference's order
                    if not deviation <= 16.0 * (
                            abs(a) ** 2 + abs(b) ** 2 + abs(c) ** 2
                            + abs(d) ** 2) * 2.3e-16:
                        if det == 0:
                            raise HyperbolicError("singular matrix")
                        if not cmath.isfinite(det):
                            raise HyperbolicError(
                                "determinant is not finite")
                        s = cmath.sqrt(det)
                        a, b, c, d = a / s, b / s, c / s, d / s
                        denom = abs(d) ** 2 + abs(c) ** 2
                dz = abs((b * d.conjugate() + a * c.conjugate()) / denom)
                t = 1.0 / denom
                if not t > 0:
                    raise HyperbolicError("height must be positive")
                dt = 1.0 - t
                x = 1.0 + (dz * dz + dt * dt) / (2.0 * t)
                if skipped and not x < 1e300:
                    abs(a) ** 2 + abs(b) ** 2  # may raise, as det_noise
            except (HyperbolicError, OverflowError, ZeroDivisionError):
                if skipped:
                    abs(a) ** 2 + abs(b) ** 2 + abs(c) ** 2 + abs(d) ** 2
                raise
            row_append(acosh(x if not x < 1.0 else 1.0))
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
    non-loxodromic) or a blocker.  The verdict is inconclusive when a
    surface relator residual is not below RELATOR_RESIDUAL_MAX (the
    matrices are then no representation of the group, whatever the sweep
    found), else the first fail, else the first blocker, else the K_MAX
    cap, else pass.

    ``measured`` maps (primitive period, min(n, p - 1 + W)) to the worst
    ratio of a class with 2p <= L, for a later power with the same key;
    its pairs are already folded into ``least``.  Classes come
    shortest first, so a root precedes its powers; a root that raised or
    is non-loxodromic stores nothing, and its powers measure their own.
    """
    group = rep.group
    if params is None:
        params = StabilityParams.defaults_for(group)

    records: List[ElementRecord] = []
    problems: List[Tuple[str, str, ElementRecord]] = []  # verdict, reason, rec
    least: Dict[int, List[Optional[float]]] = {}
    measured: Dict[Tuple[Word, int], float] = {}
    n_sep = n_unk = 0

    for cnf, status in S.swept_classes(group, params.depth):
        letters = cnf.letters()
        certified = status == "separable"
        n_sep += certified
        n_unk += not certified
        spelling = group.format_word(letters)
        length = cnf.cyclic_length
        period = letters[:least_period(letters)]
        n = length * params.powers
        key = (period, min(n, len(period) - 1 + params.window))
        known = measured.get(key)
        try:
            m = rep.evaluate(letters)
            kind = classify(m)
            band = abs(m.trace() ** 2 - 4.0)
            tl = translation_length(m, kind)
            flags = (["non_loxodromic"] if kind != "loxodromic" and (
                         band <= PARABOLIC_EXACT or kind != "parabolic")
                     else ["parabolic_adjacent"] if band < PARABOLIC_FUZZY
                     else [])
            rows = (None if "non_loxodromic" in flags or known is not None
                    else _qg_rows(rep, period, n, params.window))
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
        worst, problem = 0.0, None
        if "non_loxodromic" in flags:
            problem = (("fail", f"separable element {spelling} has a {kind} "
                                f"image") if certified else
                       ("inconclusive", "unknown-separability element with "
                                        "a non-loxodromic image"))
        else:
            worst = known
            if rows is not None:
                worst = _fold_rows(least, rows, params.window)
                if 2 * len(period) <= params.depth:
                    measured[key] = worst
            if worst < params.margin or ratio < params.margin:
                flags.append("below_margin")
                problem = ("inconclusive",
                           "separable element below margin" if certified else
                           "unknown-separability element below margin")
            elif certified and "parabolic_adjacent" in flags:
                problem = ("inconclusive",
                           "separable element in the parabolic band")

        rec = ElementRecord(spelling, length, status, m.trace(), kind, tl,
                            ratio, worst, tuple(flags))
        records.append(rec)
        if problem is not None:
            problems.append((*problem, rec))

    margin = min((r.ratio for r in records), default=float("inf"))
    k_global, a_global, _ = (qg_fit(_least_pairs(least), params.window,
                                    A_MAX) if least else (0.0, 0.0, 0.0))
    broken = next(((fid, r) for fid, r in rep.relator_residuals().items()
                   if not r < RELATOR_RESIDUAL_MAX), None)
    # min keeps the first of equal keys: the first fail, else blocker
    problem = min(problems, key=lambda p: p[0] != "fail", default=None)
    if broken is not None:
        verdict, witness = "inconclusive", None
        reason = (f"relator residual {broken[1]:.3g} of factor "
                  f"{broken[0] + 1} is not below {RELATOR_RESIDUAL_MAX:g}: "
                  f"the matrices are no representation of the group")
    elif problem is not None:
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
