"""Print every benchmark metric by name, with its unit, direction,
workload and sample count, plus the git SHA, Python version and nproc.

    python3 perfbench/report.py [--seed N]

Run from the repository root.  Each workload of ``BENCHMARK.json`` runs
for its ``run_seconds`` in its own process, once untraced (end-to-end
metrics) and once traced (per-layer metrics).  Lines that ``run.py``
prints before its result (failures, the tail percentile, order-quality
references, tracing overhead) are echoed.
"""
from __future__ import annotations

import argparse
import json
import os
import platform
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def git_sha() -> str:
    try:
        return subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, check=True,
                              capture_output=True, text=True).stdout.strip()
    except (OSError, subprocess.CalledProcessError):
        return "unknown"


def main(argv=None) -> int:
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        spec = json.load(fh)
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--seed", type=int, default=1)
    args = p.parse_args(argv)
    better = {m["name"]: m["better"] for m in spec["end_to_end"] + spec["per_layer"]}

    print(f"# git {git_sha()}  python {platform.python_version()}  nproc {os.cpu_count()}")
    print(f"# seed {args.seed}  seconds {spec['run_seconds']}")
    print("workload\tmetric\tvalue\tunit\tbetter\tsamples")
    status = 0
    for workload in (w["name"] for w in spec["workloads"]):
        for trace in (0, 1):
            proc = subprocess.run(
                [sys.executable, os.path.join(HERE, "run.py"), "--workload", workload,
                 "--seed", str(args.seed), "--seconds", str(spec["run_seconds"]),
                 "--trace", str(trace)],
                cwd=ROOT, capture_output=True, text=True, timeout=900,
            )
            lines = proc.stdout.splitlines()
            if proc.returncode != 0 or not lines:
                print(f"# {workload} trace={trace} failed: {proc.stderr.strip()}")
                status = 1
                continue
            result = json.loads(lines[-1])
            samples: dict = {}
            for line in lines[:-1]:
                if line.startswith("# samples "):
                    samples = json.loads(line[len("# samples "):])
                else:
                    print(line)
            print(f"# {workload} trace={trace}: correct={result['correct']} "
                  f"attempted={result['attempted']} failed={result['failed']}")
            for name, m in result["metrics"].items():
                print(f"{workload}\t{name}\t{m['value']:.6g}\t{m['unit']}\t"
                      f"{better.get(name, '?')}\t{samples.get(name, '')}")
    return status


if __name__ == "__main__":
    sys.exit(main())
