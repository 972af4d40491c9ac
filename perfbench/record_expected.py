"""Record the outputs the correctness gate compares against.

    python3 perfbench/record_expected.py [workload ...]

Runs each workload once at both sizes on the gallery as shipped (seed 0)
and writes perfbench/expected/<workload>.<size>.json.  Re-record only on a
commit whose outputs are known to be right: every later run is checked
against these files.
"""

import json
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

import workloads as W  # noqa: E402
from sepstab import groups, pingpong  # noqa: E402


def record(workload: str, size: str):
    spec = W.WORKLOADS[workload]
    inputs = W.build_shipped(workload)
    for rep, disks in inputs:
        pingpong.ping_pong_verify(rep, disks)
    params = spec["sizes"][size]
    outcome = W.run_pass(spec["kind"], params, inputs)
    depth = params.get("max_len", params["depth"])
    classes = sum(sum(1 for _ in groups.enumerate_elements(rep.group, depth))
                  for rep, _ in inputs)
    path = W.expected_path(workload, size)
    path.parent.mkdir(exist_ok=True)
    with open(path, "w") as fh:
        fh.write(dump({"workload": workload, "size": size, "params": params,
                       "classes": classes, "outcome": outcome}) + "\n")
    print(f"{path.name}: {classes} classes")


def dump(value, depth: int = 0) -> str:
    """JSON with one line per class, so a re-record diffs class by class:
    dicts and lists of dicts open one line per item, anything else is
    written on one line."""
    pad = " " * (depth + 1)
    if isinstance(value, dict) and value:
        items = [f"{pad}{json.dumps(k)}: {dump(v, depth + 1)}"
                 for k, v in sorted(value.items())]
        return "{\n" + ",\n".join(items) + "\n" + " " * depth + "}"
    if isinstance(value, list) and any(isinstance(v, dict) for v in value):
        items = [pad + dump(v, depth + 1) for v in value]
        return "[\n" + ",\n".join(items) + "\n" + " " * depth + "]"
    return json.dumps(value)


def main(names):
    for workload in names or W.WORKLOADS:
        for size in ("tiny", "full"):
            record(workload, size)


if __name__ == "__main__":
    main(sys.argv[1:])
