"""sepstab benchmark: one workload, measured end to end or traced per layer.

    python3 perfbench/run.py --workload stability-free --seed 0 \
        --seconds 36 --trace 0

Run from the root of a source checkout.  The workload runs in a fresh
single-threaded worker process (closed loop, one caller, passes back to
back).  Seed 0 measures the gallery representations as shipped; any other
seed conjugates them by a seeded PSL(2,C) draw.  Every pass is checked
against the outputs recorded in perfbench/expected/.

--trace 0 prints the end-to-end metrics:
  verdict_s     median seconds of a pass, set-up excluded
  setup_s       median over fresh processes of the seconds to import
                sepstab, build the gallery representations and verify their
                ping-pong certificates
  peak_rss_mb   peak resident memory of the worker (ru_maxrss)
  correct_frac  classes agreeing with the recorded outputs / classes
                attempted, i.e. 1 - failed_frac
--trace 1 prints the per-layer metrics of the traced passes and the tracing
overhead: every traced pass follows an untraced one, and the overhead is
the median over these pairs of traced minus untraced seconds.  trace.pairs
says how many pairs it rests on; with one pair it is as noisy as a single
pass.

Every time above is wall seconds scaled to a reference host speed by the
in-process probe in probe.py, because the shared hosts this runs on drift
in speed by 20% and more within a minute; the unscaled wall seconds are
printed and kept in the result file as well.

The last line of standard output is one JSON object with the keys correct,
attempted, failed and metrics.  The machine record and the full result go
to .perfbench_out/ as well.  --size tiny exists for the benchmark's own
tests.
"""

import argparse
import hashlib
import json
import os
import platform
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT_DIR = ROOT / ".perfbench_out"
SETUP_SAMPLES = 10      # fresh set-up processes, after one warm-up
WORKER_TIMEOUT = 170.0  # seconds; the whole run must end within 180


def worker(args, *extra, timeout=WORKER_TIMEOUT):
    """Run the worker to completion; its last stdout line as JSON."""
    cmd = [sys.executable, str(HERE / "worker.py"),
           "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace),
           "--size", args.size, *extra]
    # a fixed hash seed keeps set and dict layouts, and so timings, alike
    env = dict(os.environ, PYTHONHASHSEED="0")
    proc = subprocess.run(cmd, cwd=ROOT, env=env, stdout=subprocess.PIPE,
                          timeout=timeout, text=True, check=True)
    return json.loads(proc.stdout.strip().splitlines()[-1])


def machine_record():
    cpu = platform.processor() or "unknown"
    try:
        with open("/proc/cpuinfo") as fh:
            cpu = next((line.split(":", 1)[1].strip() for line in fh
                        if line.startswith("model name")), cpu)
    except OSError:
        pass
    return {"nproc": os.cpu_count(), "cpu_model": cpu,
            "python": platform.python_version(),
            "commit": git_commit(), "source_sha256": source_digest()}


def git_commit():
    """HEAD of the checkout when it has its own .git, else None."""
    if not (ROOT / ".git").exists():
        return None  # never the HEAD of a repository the checkout sits in
    try:
        proc = subprocess.run(
            ["git", "--git-dir", str(ROOT / ".git"), "rev-parse", "HEAD"],
            cwd=ROOT, capture_output=True, text=True, timeout=10)
    except (OSError, subprocess.TimeoutExpired):
        return None
    return proc.stdout.strip() if proc.returncode == 0 else None


def source_digest():
    """sha256 over the measured sources; it names them also where the
    checkout has no git commit."""
    h = hashlib.sha256()
    for path in sorted((ROOT / "src").rglob("*.py")):
        h.update(str(path.relative_to(ROOT)).encode())
        h.update(path.read_bytes())
    return h.hexdigest()


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", required=True,
                    choices=("stability-free", "stability-mixed",
                             "cross-construction"))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), required=True)
    ap.add_argument("--size", choices=("full", "tiny"), default="full")
    args = ap.parse_args(argv)

    if not (ROOT / "src" / "sepstab" / "__init__.py").is_file():
        print(f"no sepstab sources under {ROOT / 'src'}", file=sys.stderr)
        return 2

    started = time.perf_counter()
    record = machine_record()
    record["loadavg_before"] = os.getloadavg()
    OUT_DIR.mkdir(exist_ok=True)
    stem = f"{args.workload}-{args.size}-seed{args.seed}-trace{args.trace}"
    try:
        worker(args, "--setup-only")  # warm-up: byte-code caches
        samples = [worker(args, "--setup-only")
                   for _ in range(SETUP_SAMPLES)]
        remaining = WORKER_TIMEOUT - (time.perf_counter() - started)
        res = worker(args, "--spans", str(OUT_DIR / f"spans-{stem}.json"),
                     timeout=remaining)
    except (subprocess.CalledProcessError, subprocess.TimeoutExpired,
            json.JSONDecodeError, IndexError) as exc:
        print(f"benchmark worker failed: {exc}", file=sys.stderr)
        return 1
    record["loadavg_after"] = os.getloadavg()
    setups = [s["setup_s"] for s in samples + [res]]
    setup_walls = [s["setup_wall_s"] for s in samples + [res]]

    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    # traced minus untraced seconds of each pair of passes
    overheads = [t - u for t, u in zip(res.get("traced_s") or [],
                                       res["verdict_s"])]
    if args.trace:
        layers = {name: statistics.median(row[name] for row in res["layers"])
                  for name in res["layers"][0]}
        layers["trace.verdict_s"] = statistics.median(res["traced_s"])
        layers["trace.overhead_s"] = statistics.median(overheads)
        layers["trace.pairs"] = len(overheads)
        values, section = layers, "per_layer"
    else:
        values = {
            "verdict_s": statistics.median(res["verdict_s"]),
            "setup_s": statistics.median(setups),
            "peak_rss_mb": res["peak_rss_mb"],
            "correct_frac": 1.0 - res["failed"] / res["attempted"],
        }
        section = "end_to_end"
    metrics = {m["name"]: {"value": values[m["name"]], "unit": m["unit"]}
               for m in bench[section]}

    full = {"workload": args.workload, "seed": args.seed,
            "size": args.size, "trace": args.trace, "machine": record,
            "passes": len(res["verdict_s"]), "verdict_s": res["verdict_s"],
            "wall_s": res["wall_s"], "traced_s": res.get("traced_s"),
            "trace_overheads_s": overheads,
            "setup_samples_s": setups, "setup_wall_samples_s": setup_walls,
            "classes_per_pass": res["classes"],
            "failed_frac": res["failed"] / res["attempted"],
            "metrics": metrics}
    with open(OUT_DIR / f"result-{stem}.json", "w") as fh:
        json.dump(full, fh, indent=1)

    for name, m in metrics.items():
        tag = " (computed)" if m["unit"].endswith("_computed") else ""
        print(f"{name:40s} {m['value']:.6g} {m['unit']}{tag}")
    print(f"failed_frac {full['failed_frac']:.6g} "
          f"({res['failed']} of {res['attempted']} classes, "
          f"{full['passes']} passes)")
    print(f"wall_s {statistics.median(res['wall_s']):.6g} "
          f"setup_wall_s {statistics.median(setup_walls):.6g} "
          f"(unscaled medians)")
    print("machine " + json.dumps(record))
    print(json.dumps({"correct": res["failed"] == 0,
                      "attempted": res["attempted"],
                      "failed": res["failed"], "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
