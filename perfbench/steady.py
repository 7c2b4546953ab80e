"""Steadiness self-check for the geobft benchmark.

Runs perfbench/run.py --trace 0 on every workload, --runs times, with a
new seed each round and the workload order reversed every other round.
For each end-to-end metric it reports the median, the quartiles
(statistics.quantiles, n=4) and the spread (q3 - q1) / median, and
compares the spread with the metric's bound in BENCHMARK.json. With
--against it also compares the medians with an earlier report.

    python3 perfbench/steady.py --runs 10 --seed-base 100

Exit code 1 when a run is not correct, when a spread other than set-up
time's exceeds its bound, or when a median is worse than the earlier
report's by more than the bound.
"""
from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))


def run_once(workload, seed, seconds) -> tuple[dict, str]:
    proc = subprocess.run(
        [sys.executable, os.path.join(HERE, "run.py"), "--workload", workload,
         "--seed", str(seed), "--seconds", str(seconds), "--trace", "0"],
        capture_output=True, text=True, timeout=600)
    if proc.returncode != 0:
        raise SystemExit(f"{workload} seed {seed}: exit {proc.returncode}\n{proc.stderr}")
    lines = proc.stdout.strip().splitlines()
    digest = next((ln.split()[2] for ln in lines if ln.strip().startswith("trace digest")), "")
    return json.loads(lines[-1]), digest


def summarize(values) -> dict:
    q1, q2, q3 = statistics.quantiles(values, n=4)
    med = statistics.median(values)
    return {"median": med, "q1": q1, "q3": q3,
            "spread": (q3 - q1) / med if med else float("inf"), "values": values}


def main(argv=None) -> int:
    with open("BENCHMARK.json") as fh:
        spec = json.load(fh)
    names = [w["name"] for w in spec["workloads"]]
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--runs", type=int, default=10)
    ap.add_argument("--seed-base", type=int, default=100)
    ap.add_argument("--seconds", type=int, default=spec["run_seconds"])
    ap.add_argument("--workloads", default=",".join(names))
    ap.add_argument("--out", default=os.path.join(".bench_build", "perfbench", "steady.json"))
    ap.add_argument("--against", help="an earlier report to compare medians with")
    args = ap.parse_args(argv)
    workloads = args.workloads.split(",")
    bounds = {m["name"]: m for m in spec["end_to_end"]}

    runs = {w: [] for w in workloads}
    ok = True
    for i in range(args.runs):
        seed = args.seed_base + i
        for w in (workloads if i % 2 == 0 else workloads[::-1]):
            result, digest = run_once(w, seed, args.seconds)
            runs[w].append({"seed": seed, "digest": digest, **result})
            values = " ".join(f"{k}={v['value']:.6g}" for k, v in result["metrics"].items())
            print(f"run {i} {w} seed {seed} correct {result['correct']} "
                  f"attempted {result['attempted']} failed {result['failed']} "
                  f"digest {digest} {values}", flush=True)
            ok &= bool(result["correct"]) and result["failed"] == 0

    earlier = None
    if args.against:
        with open(args.against) as fh:
            earlier = json.load(fh)["summary"]
    summary = {}
    for w in workloads:
        summary[w] = {}
        print(f"\n{w}: metric, median, q1, q3, spread, bound, spread/bound")
        for name, m in bounds.items():
            s = summarize([r["metrics"][name]["value"] for r in runs[w]])
            summary[w][name] = s
            note = ""
            if name != "setup_s" and s["spread"] > m["bound"]:
                note, ok = " SPREAD ABOVE BOUND", False
            elif s["spread"] > m["bound"] / 3:
                note = " (above a third of the bound)"
            if earlier is not None and name in earlier.get(w, {}):
                before = earlier[w][name]["median"]
                worse = (s["median"] - before) / before if m["better"] == "lower" \
                    else (before - s["median"]) / before
                note += f" vs earlier median {before:.6g}: {worse:+.3f}"
                if worse > m["bound"]:
                    note, ok = note + " WORSE THAN BOUND", False
            print(f"  {name:<16} {s['median']:>12.6g} {s['q1']:>12.6g} {s['q3']:>12.6g} "
                  f"{s['spread']:>8.4f} {m['bound']:>6} {s['spread'] / m['bound']:>6.2f}{note}")
    os.makedirs(os.path.dirname(args.out) or ".", exist_ok=True)
    with open(args.out, "w") as fh:
        json.dump({"runs": runs, "summary": summary}, fh, indent=1)
    print(f"\nreport: {args.out}  steady: {ok}")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
