"""Self-test of the encode/decode benchmark.

    python3 perfbench/selftest.py [--workloads herm9-mixed,g16-erasures]

Checks, from the repository root:
  * each workload's code has its listed n and k, and the GF(9) build equals
    the library's Hermitian preset;
  * every (e, r) stratum keeps 2e + r <= d* - 1, and drawn operations carry
    exactly their pattern on distinct positions with nonzero error offsets;
  * d* equals feng_rao_bound for GF(9) and GF(16) (GF(64) c71 keeps the
    ROADMAP's 17: recomputing it takes about 120 s);
  * BENCHMARK.json lists the workloads and metrics run.py reports, and every
    per-layer span is one the wrappers record;
  * two traced runs with the same seed give identical `*.field.*` and
    `*.calls` values and both report correct.
Exits 1 when a check fails.
"""

from __future__ import annotations

import argparse
import json
import subprocess
import sys
from pathlib import Path

import run
import spans
import workloads as wl

FAILED: list[str] = []


def check(ok: bool, what: str) -> None:
    print(("ok    " if ok else "FAIL  ") + what)
    if not ok:
        FAILED.append(what)


def check_benchmark_json() -> None:
    doc = json.loads((run.ROOT / "BENCHMARK.json").read_text())
    names = [x["name"] for x in doc["workloads"]]
    check(set(names) <= set(wl.WORKLOADS), "BENCHMARK.json workloads exist")
    e2e = [(m["name"], m["unit"], m["better"]) for m in doc["end_to_end"]]
    check(e2e == [m[:3] for m in run.END_TO_END], "end_to_end metrics match run.py")
    layer = [(m["name"], m["unit"], m["better"]) for m in doc["per_layer"]]
    check(layer == list(spans.PER_LAYER), "per_layer metrics match spans.py")
    known = spans.span_names()
    unknown = [
        name
        for name, _u, _b in spans.PER_LAYER
        if name.count(".") == 3 and name.split(".", 1)[1].rsplit(".", 1)[0] not in known
    ]
    check(not unknown, f"per-layer spans are wrapped functions {unknown or ''}")


def check_codes(w) -> None:
    spec = wl.build_code(w)
    check((spec.n, spec.k) == (w.n, w.k), f"{w.name}: [n, k] = [{w.n}, {w.k}]")
    check(len(spec.psi) == w.s**3 - w.s, f"{w.name}: s^3 - s torus points")
    if w.name == "herm9-mixed":
        preset = wl.codes.hermitian_preset()
        same = (spec.psi, spec.r_set, spec.phi, spec.gb.pivots) == (
            preset.psi,
            preset.r_set,
            preset.phi,
            preset.gb.pivots,
        )
        check(same, f"{w.name}: code equals codes.hermitian_preset()")
    if w.n <= 60:
        d = wl.codes.feng_rao_bound(spec)
        check(d == w.d_star, f"{w.name}: feng_rao_bound {d} == d* {w.d_star}")
    bad = [p for st in w.strata for p in st if 2 * p[0] + p[1] > w.d_star - 1]
    check(not bad, f"{w.name}: every stratum keeps 2e + r <= d* - 1")
    stream = wl.OpStream(w, spec, 0)
    allowed = {p for st in w.strata for p in st}
    good = True
    for _ in range(200):
        op = stream.next_op()
        pts = [pt for pt, _v in op.errors + op.erasures]
        good = good and (op.e, op.r) in allowed
        good = good and (len(op.errors), len(op.erasures)) == (op.e, op.r)
        good = good and len(set(pts)) == len(pts) and set(pts) <= set(spec.psi)
        good = good and all(v != 0 for _pt, v in op.errors)
    check(good, f"{w.name}: 200 drawn operations match their patterns")


def traced_run(name: str, seed: int, seconds: float):
    """Result line and span skeleton (name, parent, ops) of one traced run."""
    cmd = [sys.executable, str(Path(run.__file__)), "--workload", name,
           "--seed", str(seed), "--seconds", str(seconds), "--trace", "1"]
    out = subprocess.run(cmd, cwd=run.ROOT, capture_output=True, text=True,
                         timeout=600, check=True)
    dump = json.loads((run.OUT / f"{name}-seed{seed}-spans.json").read_text())
    skeleton = [(s[0], s[1], s[4], s[5]) for s in dump["spans"]]
    return json.loads(out.stdout.strip().splitlines()[-1]), skeleton


def check_repeatable(w, seconds: float) -> None:
    (a, spans_a), (b, spans_b) = (traced_run(w.name, 7, seconds) for _ in range(2))
    check(a["correct"] and b["correct"], f"{w.name}: traced runs correct")
    keys = [
        k
        for k in a["metrics"]
        if k.endswith((".field.addsub", ".field.muldiv", ".calls"))
    ]
    diff = [k for k in keys if a["metrics"][k] != b["metrics"][k]]
    check(not diff, f"{w.name}: {len(keys)} field and call counts repeat {diff or ''}")
    check(
        spans_a == spans_b,
        f"{w.name}: {len(spans_a)} spans repeat with their parents and field ops",
    )


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workloads", default=",".join(wl.WORKLOADS))
    ap.add_argument("--seconds", type=float, default=2.0,
                    help="--seconds of each traced run")
    args = ap.parse_args(argv)
    check_benchmark_json()
    for name in args.workloads.split(","):
        w = wl.WORKLOADS[name]
        check_codes(w)
        check_repeatable(w, args.seconds)
    print(f"{len(FAILED)} checks failed")
    return 1 if FAILED else 0


if __name__ == "__main__":
    sys.exit(main())
