"""One workload in one fresh single-threaded process; started by run.py.

Prints one JSON line: the set-up time, the wall time of every pass, the
classes attempted and failed, the peak resident memory and, with --trace 1,
the per-layer metrics of the traced passes.  Nothing of sepstab is imported
before the set-up clock starts.
"""

import argparse
import json
import resource
import statistics
import sys
import time
import traceback
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def main(argv=None):
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--size", choices=("full", "tiny"), default="full")
    ap.add_argument("--setup-only", action="store_true")
    ap.add_argument("--spans", default=None)
    args = ap.parse_args(argv)
    sys.path.insert(0, str(ROOT / "src"))

    import probe
    with probe.SpeedProbe() as imported:
        from sepstab import (gallery, groups, pingpong,  # noqa: F401
                             sampling, separability, stability, whitehead)
        import workloads as W
        shipped = W.build_shipped(args.workload)
    spec = W.WORKLOADS[args.workload]
    kind, size = spec["kind"], spec["sizes"][args.size]
    h = W.choose_conjugator(shipped, args.seed)  # input generation, untimed
    with probe.SpeedProbe() as verified:
        inputs = shipped if h is None else [W.conjugate(rep, disks, h)
                                            for rep, disks in shipped]
        for rep, disks in inputs:
            pingpong.ping_pong_verify(rep, disks)
    setup_s = imported.scaled() + verified.scaled()
    setup_wall_s = imported.wall + verified.wall
    if args.setup_only:
        print(json.dumps({"setup_s": setup_s, "setup_wall_s": setup_wall_s}))
        return 0

    expected = W.load_expected(args.workload, args.size)
    classes = expected["classes"]

    def one_pass(span=None):
        """(the pass's SpeedProbe, failed classes)."""
        outcome = None
        with probe.SpeedProbe(span) as timed:
            try:
                outcome = W.run_pass(kind, size, inputs)
            except Exception:  # a pass that raises fails all of its classes
                traceback.print_exc()
        failed = (classes if outcome is None
                  else W.count_failures(kind, outcome, expected))
        return timed, failed

    result = {"setup_s": setup_s, "setup_wall_s": setup_wall_s,
              "classes": classes, "verdict_s": [], "wall_s": [],
              "attempted": 0, "failed": 0}
    tracer = None
    if args.trace:
        import tracing
        tracer = tracing.Tracer(args.workload)
        result.update(traced_s=[], layers=[])

    # closed loop, one caller: passes back to back until the next one is
    # predicted to end after the deadline (at least one)
    deadline = time.perf_counter() + args.seconds
    cycle = []
    while True:
        start = time.perf_counter()
        timed, failed = one_pass()
        result["wall_s"].append(timed.wall)
        result["verdict_s"].append(timed.scaled())
        result["attempted"] += classes
        result["failed"] += failed
        if tracer is not None:
            tracer.run = (f"{args.workload}/seed{args.seed}/"
                          f"pass{len(result['traced_s'])}")
            uninstall = tracing.install(tracer)
            try:
                with tracer.span("setup"):
                    for (rep, disks), name in zip(inputs, spec["reps"]):
                        gallery.build(name)
                        pingpong.ping_pong_verify(rep, disks)
                with tracer.span("verdict"):
                    timed, t_failed = one_pass(tracer.span)
            finally:
                uninstall()
            result["traced_s"].append(timed.scaled())
            result["attempted"] += classes
            result["failed"] += t_failed
            result["layers"].append(tracing.layer_metrics(
                tracer, tracer.run, timed.factor()))
        if failed:
            break
        cycle.append(time.perf_counter() - start)
        if time.perf_counter() + statistics.median(cycle) > deadline:
            break

    result["peak_rss_mb"] = (resource.getrusage(resource.RUSAGE_SELF)
                             .ru_maxrss / 1024.0)
    if tracer is not None and args.spans:
        tracer.write(args.spans)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
