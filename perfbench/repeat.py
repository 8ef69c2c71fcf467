"""Run the benchmark once per seed and summarise every metric.

    python3 perfbench/repeat.py --workload NAME [--seeds 1-10] [--seconds 10]
                                [--trace 0|1] [--json OUT]

Runs run.py sequentially, one process at a time, from the repository root.
For each metric it prints the median, the quartiles from
statistics.quantiles(values, n=4) and the spread (Q3 - Q1) / median, the
figures a change is compared by.  --json writes the runs and the summary.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent


def seed_list(text: str) -> list[int]:
    out = []
    for part in text.split(","):
        lo, _, hi = part.partition("-")
        out.extend(range(int(lo), int(hi or lo) + 1))
    return out


def summarise(runs: list[dict]) -> dict:
    summary = {}
    for name in runs[0]["metrics"]:
        values = [r["metrics"][name]["value"] for r in runs]
        med = statistics.median(values)
        q1, _q2, q3 = (
            statistics.quantiles(values, n=4) if len(values) > 1 else (med,) * 3
        )
        summary[name] = {
            "unit": runs[0]["metrics"][name]["unit"],
            "median": med,
            "q1": q1,
            "q3": q3,
            "spread": (q3 - q1) / med if med else 0.0,
        }
    return summary


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seeds", default="1-10")
    ap.add_argument("--seconds", default="10")
    ap.add_argument("--trace", default="0", choices=("0", "1"))
    ap.add_argument("--json", type=Path)
    args = ap.parse_args(argv)
    runs = []
    for seed in seed_list(args.seeds):
        cmd = [sys.executable, str(HERE / "run.py"), "--workload", args.workload,
               "--seed", str(seed), "--seconds", args.seconds, "--trace", args.trace]
        out = subprocess.run(cmd, cwd=HERE.parent, capture_output=True, text=True,
                             timeout=900, check=True)
        result = json.loads(out.stdout.strip().splitlines()[-1])
        result["seed"] = seed
        runs.append(result)
        print(f"seed {seed}: correct={result['correct']} "
              f"attempted={result['attempted']} failed={result['failed']}", flush=True)
    summary = summarise(runs)
    for name, s in summary.items():
        print(f"{name:44s} median {s['median']:<12.6g} q1 {s['q1']:<12.6g} "
              f"q3 {s['q3']:<12.6g} spread {s['spread']:.4f} {s['unit']}")
    if args.json:
        args.json.write_text(json.dumps(
            {"workload": args.workload, "seconds": args.seconds, "trace": args.trace,
             "runs": runs, "summary": summary}, indent=1))
    return 0 if all(r["correct"] for r in runs) else 1


if __name__ == "__main__":
    sys.exit(main())
