"""Command-line interface.

Subcommands:

  separable <word>                decide separability; exit 0 separable,
                                  1 not separable, 2 unknown
  whitehead <word> [--dot PATH]   build and analyze the Whitehead graph
  check-stability <rep>           depth-bounded separable-stability check;
                                  exit 0 pass, 1 fail, 2 inconclusive
  sweep --family schottky-lambda  stability sweep over a parameter grid
  examples [--write DIR]          list or write the built-in gallery

Representations are file paths or gallery names (a path whose basename
matches a gallery entry is built in memory when the file does not exist).
Usage errors exit 64, data errors 65 (a malformed group, word or
representation, a word trivial in the group, invalid stability flags), I/O
errors 74 (a file that cannot be read or written).
All outputs are deterministic for fixed flags.
"""

from __future__ import annotations

import argparse
import contextlib
import os
import sys
from typing import List, Optional

from sepstab import gallery, repfile
from sepstab import groups as G
from sepstab import separability as S
from sepstab import stability as ST
from sepstab import whitehead as W
from sepstab.groups import GroupError, GroupSpec
from sepstab.hyperbolic import Representation, loxodromic_with_axis
from sepstab.pingpong import ping_pong_verify

EX_USAGE = 64
EX_DATA = 65
EX_IOERR = 74


class _CliError(Exception):
    def __init__(self, message: str, code: int = EX_DATA):
        super().__init__(message)
        self.code = code


def _group_from_flags(args) -> GroupSpec:
    genera = []
    if args.genera:
        try:
            genera = [int(x) for x in args.genera.split(",") if x]
        except ValueError:
            raise _CliError(f"bad --genera {args.genera!r}", EX_USAGE)
    rank = args.rank if args.rank is not None else (0 if genera else 2)
    return GroupSpec(tuple(genera), rank)


def _load_rep(arg: str):
    if os.path.isfile(arg):
        with open(arg, "rb") as fh:
            data = fh.read()
        try:
            rf = repfile.parse_rep(data.decode("utf-8"))
        except UnicodeDecodeError as exc:
            start = data.rfind(b"\n", 0, exc.start) + 1
            line = data.count(b"\n", 0, start) + 1
            raise _CliError(f"{arg}: line {line}, column "
                            f"{exc.start - start + 1}: not UTF-8 text", EX_DATA)
        except repfile.RepFileError as exc:
            raise _CliError(f"{arg}: {exc}", EX_DATA)
        return rf.rep, rf.disks, rf.meta.get("name", os.path.basename(arg))
    base = os.path.basename(arg)
    if base.endswith(".rep"):
        base = base[:-4]
    if base in gallery.BUILDERS:
        rep, disks = gallery.build(base)
        return rep, disks, base
    raise _CliError(f"no representation file or gallery entry {arg!r}",
                    EX_DATA)


def _parse_word(group: GroupSpec, text: str):
    word = group.parse_word(text)
    if not G.normal_form(word, group):
        raise _CliError("the trivial word is not classified", EX_DATA)
    return word


def _cmd_separable(args) -> int:
    group = _group_from_flags(args)
    word = _parse_word(group, args.word)
    verdict = S.is_separable(word, group)
    print(f"verdict: {verdict.status}")
    print(f"reason: {verdict.reason}")
    if verdict.status == "separable":
        if verdict.omitted_generator is not None:
            gen = group.letter_name(2 * verdict.omitted_generator)
            print(f"witness: minimal form {group.format_word(verdict.witness_word)} "
                  f"omits generator {gen} "
                  f"after {len(verdict.witness_moves)} moves")
        elif verdict.single_factor is not None:
            print(f"witness: lies in factor "
                  f"{W._disc_name(group, verdict.single_factor)}")
        elif verdict.omitted_factor is not None:
            print(f"witness: omits factor "
                  f"{W._disc_name(group, verdict.omitted_factor)}")
    return verdict.exit_code()


def _cmd_whitehead(args) -> int:
    group = _group_from_flags(args)
    word = _parse_word(group, args.word)
    cnf = G.cyclic_reduce(word, group)
    wh = W.whitehead_graph_combinatorial(cnf, group)
    strong = W.is_strongly_connected(wh)
    cuts = W.strong_cutpoints(wh)
    for comp in wh.components:
        flag = strong[comp.cid]
        cut_names = ",".join(v.label() for v in cuts[comp.cid]) or "-"
        print(f"{comp.cid}: vertices={len(comp.vertices)} "
              f"edges={len(comp.edges)} strongly_connected={flag} "
              f"strong_cutpoints={cut_names}")
    if args.dot:
        paths = _write_dot(wh, args.dot)
        for p in paths:
            print(f"wrote {p}")
    return 0


def _write_dot(wh: W.WhiteheadGraph, path: str) -> List[str]:
    components = wh.components
    if len(components) == 1:
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(W.emit_dot_component(components[0], wh.group))
        return [path]
    stem, ext = os.path.splitext(path)
    ext = ext or ".dot"
    out = []
    for comp in components:
        p = f"{stem}-{comp.cid}{ext}"
        with open(p, "w", encoding="utf-8") as fh:
            fh.write(W.emit_dot_component(comp, wh.group))
        out.append(p)
    return out


def _params_from_flags(args, group: GroupSpec) -> ST.StabilityParams:
    """The group's defaults with the given flags; validated like any
    ``StabilityParams`` (raises ``StabilityError``)."""
    given = {name: getattr(args, name)
             for name in ("depth", "powers", "window", "margin")
             if getattr(args, name) is not None}
    defaults = vars(ST.StabilityParams.defaults_for(group))
    return ST.StabilityParams(**{**defaults, **given})


def _cmd_check_stability(args) -> int:
    rep, disks, name = _load_rep(args.rep)
    params = _params_from_flags(args, rep.group)
    if disks is not None:
        cert = ping_pong_verify(rep, disks)
        status = "verified" if cert.ok else "FAILED"
        print(f"ping-pong certificate: {status}")
        if not cert.ok:
            for f in cert.failures:
                print(f"  {f}")
    report = ST.stability_margin(rep, params)
    print(report.header())
    print(f"representation: {name}")
    print(f"separable elements swept: {report.n_separable} "
          f"(+{report.n_unknown} of unknown separability)")
    if report.records:
        print(f"margin (min translation ratio): {report.margin:.6g}")
        print(f"QG fit: K={report.k_est:.6g} A={report.a_est:.6g}")
    if report.witness is not None:
        print(f"witness: {report.witness.spelling} "
              f"[{'|'.join(report.witness.flags)}]")
    if report.reason:
        print(f"reason: {report.reason}")
    print(f"verdict: {report.verdict}")
    if args.csv:
        _write_csv(args.csv, ST.CSV_COLUMNS, ST.report_csv_rows(report))
    return report.exit_code()


def _write_csv(path: str, header, rows) -> None:
    """Write a CSV to ``path`` and say so; to stdout when path is empty."""
    import csv
    with (open(path, "w", encoding="utf-8", newline="") if path
          else contextlib.nullcontext(sys.stdout)) as fh:
        w = csv.writer(fh)
        w.writerow(header)
        w.writerows(rows)
    if path:
        print(f"wrote {path}")


def _family(name: str):
    if name == "schottky-lambda":
        def build(lam: float) -> Representation:
            group = GroupSpec((), 2)
            return Representation(group, [
                loxodromic_with_axis(-8.0, -2.0, lam),
                loxodromic_with_axis(2.0, 8.0, 5.0)])
        return build
    raise _CliError(f"unknown family {name!r}", EX_USAGE)


def _cmd_sweep(args) -> int:
    family = _family(args.family)
    try:
        grid = [float(x) for x in args.grid.split(",") if x]
    except ValueError:
        raise _CliError(f"bad --grid {args.grid!r}", EX_USAGE)
    params = _params_from_flags(args, GroupSpec((), 2))
    _write_csv(args.csv, ST.SWEEP_COLUMNS, ST.sweep(family, grid, params))
    return 0


def _cmd_examples(args) -> int:
    names = sorted(gallery.BUILDERS)
    if not args.write:
        for n in names:
            print(n)
        return 0
    os.makedirs(args.write, exist_ok=True)
    for n in names:
        rep, disks = gallery.build(n)
        rf = repfile.RepFile(rep=rep, disks=disks, meta={"name": n})
        path = os.path.join(args.write, f"{n}.rep")
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(repfile.emit_rep(rf))
        print(f"wrote {path}")
    return 0


def build_parser() -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(
        prog="sepstab",
        description="separability certificates and separable-stability "
                    "checks for compression-body groups")
    sub = ap.add_subparsers(dest="command", required=True)

    def add_group_flags(p):
        p.add_argument("--genera", default="",
                       help="comma-separated surface genera, e.g. 2,3")
        p.add_argument("--rank", type=int, default=None,
                       help="free rank (default: 2 when no genera given)")

    p = sub.add_parser("separable", help="decide separability of a word")
    p.add_argument("word")
    add_group_flags(p)
    p.set_defaults(func=_cmd_separable)

    p = sub.add_parser("whitehead", help="build and analyze Whitehead graphs")
    p.add_argument("word")
    p.add_argument("--dot", default="", help="write DOT output here")
    add_group_flags(p)
    p.set_defaults(func=_cmd_whitehead)

    def add_stability_flags(p):
        p.add_argument("--depth", type=int, default=None)
        p.add_argument("--powers", type=int, default=None)
        p.add_argument("--window", type=int, default=None)
        p.add_argument("--margin", type=float, default=None)
        p.add_argument("--csv", default="", help="write per-element CSV here")

    p = sub.add_parser("check-stability",
                       help="certify or refute separable-stability at depth")
    p.add_argument("rep", help="representation file or gallery name")
    add_stability_flags(p)
    p.set_defaults(func=_cmd_check_stability)

    p = sub.add_parser("sweep", help="stability sweep over a family")
    p.add_argument("--family", default="schottky-lambda")
    p.add_argument("--grid", default="2,3,4,5,6,7,8,9,10")
    add_stability_flags(p)
    p.set_defaults(func=_cmd_sweep)

    p = sub.add_parser("examples", help="list or write gallery files")
    p.add_argument("--write", default="", help="write .rep files here")
    p.set_defaults(func=_cmd_examples)
    return ap


def main(argv: Optional[List[str]] = None) -> int:
    ap = build_parser()
    try:
        args = ap.parse_args(argv)
    except SystemExit as exc:
        return EX_USAGE if exc.code not in (0, None) else 0
    try:
        return args.func(args)
    except _CliError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return exc.code
    except (GroupError, ST.StabilityError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EX_DATA
    except OSError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EX_IOERR


if __name__ == "__main__":
    sys.exit(main())
