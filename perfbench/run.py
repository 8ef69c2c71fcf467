"""Closed-loop encode/decode benchmark on the Hermitian code ladder.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

One client in one thread runs the workload's seeded operation stream, each
call waiting for the previous one: encode a message (timed), check the
codeword, corrupt it, decode (timed), compare with what was sent.  Checks
run outside the timed regions; an exception, a decode that is not
"corrected" with the sent codeword, or an encode that is not a codeword
counts the operation as failed.

--trace 0 reports the end-to-end metrics.  Operations run for --seconds;
set-up (fields, code, the order bound where the workload includes it, one
warm-up operation) runs once before them and again at even intervals
between them, and an upper percentile of those set-up times is reported.

--trace 1 reports per-layer metrics.  It sets up once with the span
wrappers installed, runs a fixed number of operations untraced, runs the
same operations again traced, writes the spans under .perfbench_out/, and
reports per-operation self times, call counts and exact field-op counts.

The last line of standard output is one JSON object with the keys
correct, attempted, failed and metrics.  Run from the repository root; the
library is imported from src/ next to this directory.
"""

from __future__ import annotations

import argparse
import gc
import json
import math
import resource
import statistics
import sys
import time
import traceback
from collections import Counter
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
OUT = ROOT / ".perfbench_out"

sys.path.insert(0, str(SRC))
import spans  # noqa: E402
import workloads as wl  # noqa: E402

# (name, unit, better) of every end-to-end metric, as BENCHMARK.json lists them.
# The host this was tuned on alternates, every few seconds and for minutes
# at a time, between two speeds about 1.7x apart.  A run's median latency
# jumps to whichever speed held for most of the run and its mean moves with
# the mix, so between seeds decode_per_s, decode_ms_p50 and encode_ms_p50
# spread by up to 0.25-0.4.  High percentiles stay with the slower speed and
# spread by 0.05-0.1, so those are the gated metrics; the others are printed
# beside them.  Set-up time follows the same rule: set-ups are spread over
# the whole run, since back to back they span a few seconds and so see one
# speed only, and their p90 is setup_s.
END_TO_END = (
    ("decode_ms_tail", "ms", "lower"),
    ("encode_ms_p90", "ms", "lower"),
    ("ok_frac", "frac", "higher"),
    ("setup_s", "s", "lower"),
    ("peak_rss_mb", "MB", "lower"),
)
SETUP_PCT = 90


class Tally:
    """Outcome of a run of operations: latencies, failures, pattern mix."""

    def __init__(self):
        self.encode_s: list[float] = []
        self.decode_s: list[float] = []
        self.attempted = 0
        self.failed = 0
        self.patterns: Counter = Counter()
        self.failures: Counter = Counter()
        self.tracebacks: dict[str, str] = {}

    def fail(self, kind: str, tb: str | None = None) -> None:
        self.failed += 1
        self.failures[kind] += 1
        if tb is not None:
            self.tracebacks.setdefault(kind, tb)


def percentile(values, pct: float) -> float:
    """Linear interpolation between closest ranks (numpy's default)."""
    xs = sorted(values)
    k = (len(xs) - 1) * pct / 100
    lo = math.floor(k)
    hi = min(lo + 1, len(xs) - 1)
    return xs[lo] + (xs[hi] - xs[lo]) * (k - lo)


def setup(w, rec=None):
    """Build the workload's code from scratch and warm it up once.

    Returns the code and whether every set-up check passed.
    """
    spec = wl.build_code(w)
    ok = spec.n == w.n and spec.k == w.k
    if w.feng_rao_in_setup:
        ok = ok and wl.codes.feng_rao_bound(spec) == w.d_star
    warm = Tally()
    run_op(w, spec, wl.OpStream(w, spec, "warm-up").next_op(), warm, rec)
    return spec, ok and warm.failed == 0


def run_op(w, spec, op, tally, rec=None) -> float:
    """Encode, check, corrupt, decode, check; returns the timed seconds."""
    rec = rec if rec is not None else spans.Recorder()
    tally.attempted += 1
    tally.patterns[(op.e, op.r)] += 1
    try:
        t0 = time.perf_counter()
        with rec.span("encode"):
            cw = wl.encode(w, spec, op.message)
        t1 = time.perf_counter()
    except Exception:
        tally.fail("encode raised", traceback.format_exc())
        return time.perf_counter() - t0
    tally.encode_s.append(t1 - t0)
    with rec.paused():
        good = wl.codes.is_codeword(spec, cw)
    if w.systematic:
        good = good and all(cw[pt] == v for pt, v in op.message.items())
    if not good:
        tally.fail("encode output is not a codeword")
        return t1 - t0
    received = op.received(spec.field, cw)
    erased = op.erased_positions()
    try:
        t2 = time.perf_counter()
        with rec.span("decode"):
            result = wl.decoder.decode(spec, received, erased)
        t3 = time.perf_counter()
    except Exception:
        t3 = time.perf_counter()
        tally.decode_s.append(t3 - t2)
        tally.fail("decode raised", traceback.format_exc())
        return t1 - t0 + t3 - t2
    tally.decode_s.append(t3 - t2)
    if result.status != "corrected":
        tally.fail(f"decode {result.status}: {result.detail}")
    elif result.codeword != cw:
        tally.fail("decode returned another codeword")
    return t1 - t0 + t3 - t2


def describe(w, tally) -> list[str]:
    mix = " ".join(f"{e}/{r}:{c}" for (e, r), c in sorted(tally.patterns.items()))
    n_er = sum(c for (_e, r), c in tally.patterns.items() if r)
    lines = [
        f"# {w.name}: {tally.attempted} operations, {tally.failed} failed",
        f"# patterns errors/erasures:count  {mix}",
        f"# decode.erasure_share {n_er / max(1, tally.attempted):.4f}",
    ]
    for kind, c in tally.failures.most_common():
        lines.append(f"# failure x{c}: {kind}")
    for kind, tb in tally.tracebacks.items():
        lines.append(f"# first traceback of '{kind}':")
        lines.extend("#   " + ln for ln in tb.rstrip().splitlines())
    return lines


def timed_setup(w, setups: list):
    """One set-up from a collected heap; appends its time to setups."""
    gc.collect()
    t0 = time.perf_counter()
    spec, ok = setup(w)
    setups.append(time.perf_counter() - t0)
    return spec, ok


def untraced_run(w, seed: int, seconds: float):
    # the first set-up gives the code the operations run on; the other
    # w.setup_reps - 1 build throwaway codes at even intervals of the run
    setups: list[float] = []
    spec, setup_ok = timed_setup(w, setups)
    tally = Tally()
    stream = wl.OpStream(w, spec, seed)
    gc.collect()
    start = time.perf_counter()
    while (now := time.perf_counter() - start) < seconds:
        if now >= len(setups) * seconds / w.setup_reps:
            setup_ok = timed_setup(w, setups)[1] and setup_ok
        else:
            run_op(w, spec, stream.next_op(), tally)
    while len(setups) < w.setup_reps:
        setup_ok = timed_setup(w, setups)[1] and setup_ok
    decodes = tally.decode_s or [0.0]
    encodes = tally.encode_s or [0.0]
    n_ok = tally.attempted - tally.failed
    tail_above = sum(1 for x in decodes if x > percentile(decodes, w.tail_pct))
    metrics = {
        "decode_ms_tail": 1000 * percentile(decodes, w.tail_pct),
        "encode_ms_p90": 1000 * percentile(encodes, 90),
        "ok_frac": n_ok / tally.attempted,
        "setup_s": percentile(setups, SETUP_PCT),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
    }
    notes = describe(w, tally) + [
        f"# decode_ms_tail is p{w.tail_pct} of {len(tally.decode_s)} decodes, "
        f"{tail_above} above it",
        "# not gated: "
        f"decode_per_s {n_ok / sum(decodes) if n_ok else 0.0:.6g} 1/s, "
        f"decode_ms_p50 {1000 * statistics.median(decodes):.6g} ms, "
        f"encode_ms_p50 {1000 * statistics.median(encodes):.6g} ms, "
        f"fail_frac {tally.failed / tally.attempted:.6g}",
        f"# setup_s is p{SETUP_PCT} of {len(setups)} set-ups: "
        + " ".join(f"{s:.4f}" for s in setups),
    ]
    units = {name: unit for name, unit, _b in END_TO_END}
    notes += [f"{name} {metrics[name]:.6g} {units[name]}" for name in units]
    ok = setup_ok and tally.failed == 0
    return ok, tally.attempted, tally.failed, metrics, notes


def traced_run(w, seed: int, seconds: float):
    rec = spans.Recorder()
    with rec.installed():
        with rec.span("setup"):
            spec, setup_ok = setup(w, rec)
    # each operation runs untraced, then traced with the same inputs
    plain, traced, ratios = Tally(), Tally(), []
    stream = wl.OpStream(w, spec, seed)
    for _ in range(max(3, round(seconds * w.trace_ops_per_s))):
        op = stream.next_op()
        base = run_op(w, spec, op, plain)
        with rec.installed():
            ratios.append(run_op(w, spec, op, traced, rec) / base)
    rec.dump(OUT / f"{w.name}-seed{seed}-spans.json")

    stats = rec.stats()
    n_er = sum(c for (_e, r), c in traced.patterns.items() if r)
    stats["decode.erasure_share"] = n_er / traced.attempted
    stats["trace.overhead_frac"] = statistics.median(ratios) - 1
    metrics = {name: stats.get(name, 0.0) for name, _u, _b in spans.PER_LAYER}
    notes = describe(w, traced) + split_table(stats)
    attempted = plain.attempted + traced.attempted
    failed = plain.failed + traced.failed
    return setup_ok and failed == 0, attempted, failed, metrics, notes


def split_table(stats: dict) -> list[str]:
    """Self time per operation of every span, largest first, per op kind."""
    lines = []
    for kind in ("decode", "encode", "setup"):
        rows = [
            (v, key[len(kind) + 1 : -len(".self_ms")])
            for key, v in stats.items()
            if key.startswith(kind + ".") and key.endswith(".self_ms")
        ]
        total = sum(v for v, _n in rows)
        lines.append(f"# {kind} self time per operation ({total:.3f} ms in spans):")
        for v, name in sorted(rows, reverse=True):
            calls = stats[f"{kind}.{name}.calls"]
            lines.append(
                f"#   {name:32s} {v:12.3f} ms {100 * v / total:6.1f}%  "
                f"calls {calls:.2f}"
            )
    return lines


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=sorted(wl.WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    if args.seconds <= 0:
        ap.error("--seconds must be positive")
    if not wl.decoder.__file__.startswith(str(SRC)):
        print("error: avcodes was imported from outside src/", file=sys.stderr)
        return 2
    w = wl.WORKLOADS[args.workload]
    run = traced_run if args.trace else untraced_run
    ok, attempted, failed, metrics, notes = run(w, args.seed, args.seconds)
    units = {name: unit for name, unit, _b in END_TO_END + spans.PER_LAYER}
    for line in notes:
        print(line)
    print(
        json.dumps(
            {
                "correct": ok,
                "attempted": attempted,
                "failed": failed,
                "metrics": {
                    name: {"value": value, "unit": units[name]}
                    for name, value in metrics.items()
                },
            }
        )
    )
    return 0


if __name__ == "__main__":
    sys.exit(main())
