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
fit at N // 2 powers reuses those rows, cut to the shorter path; it can
therefore differ from the fit at N powers only while
|g| * (N // 2) < |g| - 1 + W (see ROADMAP item 6).  The fit over all
classes keeps, per combinatorial length c, only the least distance and the
least distance above ZERO_DIST, which determine qg_fit exactly.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import (Callable, Dict, Iterable, List, Optional, Sequence,
                    Tuple)

from sepstab import groups as G
from sepstab import separability as S
from sepstab.groups import GroupSpec, Word
from sepstab.hyperbolic import (H3Point, MoebiusMap, Representation, apply,
                                classify, dist, translation_length)

PARABOLIC_EXACT = 1e-12
PARABOLIC_FUZZY = 1e-6
TREND_TOL = 1e-9
ZERO_DIST = 1e-12         # qg_fit: a pair this close spans no distance
K_MAX = 100.0             # a pass needs the global QG fit within these caps
A_MAX = 50.0


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
        if self.margin <= 0:
            raise StabilityError("margin must be positive")

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
    k_est: float = 0.0
    a_est: float = 0.0
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


def _qg_rows(rep: Representation, letters: Word, n: int, window: int,
             base: H3Point) -> List[List[float]]:
    """Row i holds dist(base, rho(path[i:i+c]) base) for c = 1..min(window,
    n - i), for the offsets i < min(|g|, n) of the length-n letter path of
    g^N whose period is ``letters``.

    Row i + |g| of the whole path would be a prefix of row i, so these
    rows hold every (c, d) pair of the path.
    """
    period = len(letters)
    images = [rep.image(x) for x in letters]
    rows = []
    for i in range(min(period, n)):
        m = MoebiusMap.identity()
        row = []
        for c in range(1, min(window, n - i) + 1):
            m = (m * images[(i + c - 1) % period]).renormalized()
            row.append(dist(base, apply(m, base)))
        rows.append(row)
    return rows


def _qg_pairs(rows: Sequence[List[float]], n: int) -> List[Tuple[int, float]]:
    """The (c, d) pairs of the length-n path, from the rows of a path of the
    same period that is at least n letters long."""
    return [(c, d) for i, row in enumerate(rows[:n])
            for c, d in enumerate(row[:n - i], 1)]


def _fold_least(least: Dict[int, List[Optional[float]]],
                pairs: Iterable[Tuple[int, float]]):
    """Fold pairs into least[c] = [least d, least d above ZERO_DIST].

    qg_fit over _least_pairs(least) equals qg_fit over every pair folded
    in, because IEEE division, multiplication and addition are monotone:
    min d / c is min(d / c); for c >= a the largest (c - a) / d is at the
    least d above ZERO_DIST (for c < a it is negative and cannot raise the
    fitted slope above 0); and the least d is the hardest feasibility case.
    """
    for c, d in pairs:
        cur = least.get(c)
        if cur is None:
            least[c] = cur = [d, None]
        elif d < cur[0]:
            cur[0] = d
        if d > ZERO_DIST and (cur[1] is None or d < cur[1]):
            cur[1] = d


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
                     params: Optional[StabilityParams] = None,
                     base: Optional[H3Point] = None) -> StabilityReport:
    """Sweep separable (and separability-unknown) classes to the depth
    bound; verdict per the compactness margin and QG constants."""
    group = rep.group
    if params is None:
        params = StabilityParams.defaults_for(group)
    if base is None:
        base = H3Point(0.0, 1.0)

    records: List[ElementRecord] = []
    fail_witness: Optional[ElementRecord] = None
    fail_reason = ""
    blockers: List[Tuple[ElementRecord, str]] = []
    least: Dict[int, List[Optional[float]]] = {}
    n_sep = n_unk = 0

    for cnf in G.enumerate_elements(group, params.depth):
        verdict = S.is_separable(cnf.letters(), group)
        if verdict.status == "not_separable":
            continue
        certified = verdict.status == "separable"
        if certified:
            n_sep += 1
        else:
            n_unk += 1
        letters = cnf.letters()
        length = cnf.cyclic_length
        m = rep.evaluate(letters)
        kind = classify(m)
        band = abs(m.trace() ** 2 - 4.0)
        tl = translation_length(m)
        ratio = tl / length
        flags: List[str] = []

        if kind != "loxodromic":
            if band <= PARABOLIC_EXACT or kind in ("identity", "elliptic"):
                flags.append("non_loxodromic")
            else:
                flags.append("parabolic_adjacent")
        elif band < PARABOLIC_FUZZY:
            flags.append("parabolic_adjacent")

        rec = ElementRecord(
            spelling=group.format_word(letters), length=length,
            separability=verdict.status, trace=m.trace(), kind=kind,
            trans_len=tl, ratio=ratio, worst_qg=0.0)

        if "non_loxodromic" in flags:
            rec.flags = tuple(flags)
            records.append(rec)
            if certified and fail_witness is None:
                fail_witness = rec
                fail_reason = (f"separable element {rec.spelling} has a "
                               f"{kind} image")
            elif not certified:
                blockers.append((rec, "unknown-separability element with a "
                                      "non-loxodromic image"))
            continue

        n = length * params.powers
        rows = _qg_rows(rep, letters, n, params.window, base)
        pairs = _qg_pairs(rows, n)
        _fold_least(least, pairs)
        k_est, a_est, worst = qg_fit(pairs, params.window, A_MAX)
        rec.k_est, rec.a_est, rec.worst_qg = k_est, a_est, worst

        if worst < params.margin or ratio < params.margin:
            half = length * max(1, params.powers // 2)
            _, _, worst_half = qg_fit(_qg_pairs(rows, half),
                                      params.window, A_MAX)
            rec.worst_qg_half = worst_half
            decreasing = worst < worst_half - TREND_TOL
            if certified and worst < params.margin and decreasing:
                flags.append("decreasing_qg")
                rec.flags = tuple(flags)
                records.append(rec)
                if fail_witness is None:
                    fail_witness = rec
                    fail_reason = (f"separable element {rec.spelling} has "
                                   f"QG ratio {worst:.4g} below the margin "
                                   f"and decreasing across powers")
                continue
            flags.append("below_margin")
            blockers.append((rec, "ratio below margin without a decreasing "
                                  "trend" if certified else
                                  "unknown-separability element below margin"))
        if "parabolic_adjacent" in flags and certified:
            blockers.append((rec, "separable element in the parabolic band"))
        rec.flags = tuple(flags)
        records.append(rec)

    margin = min((r.ratio for r in records), default=float("inf"))
    if least:
        k_global, a_global, _ = qg_fit(_least_pairs(least), params.window,
                                       A_MAX)
    else:
        k_global = a_global = 0.0

    if fail_witness is not None:
        verdict, reason, witness = "fail", fail_reason, fail_witness
    elif blockers:
        witness, reason = blockers[0]
        verdict = "inconclusive"
    elif k_global > K_MAX or a_global > A_MAX:
        verdict, witness = "inconclusive", None
        reason = (f"QG constants ({k_global:.3g}, {a_global:.3g}) exceed "
                  f"caps")
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
