"""geobft benchmark: host time, memory and modelled latency per workload.

Usage, from the root of a checkout:

    python3 perfbench/run.py --workload writes-rc --seed 1 --seconds 40 --trace 0

Each repetition runs in a fresh interpreter (perfbench/worker.py), one
at a time, so set-up includes the import of geobft and peak RSS belongs
to one run. Repetitions continue until --seconds is spent (at least
MIN_REPS), alternating PYTHONHASHSEED. Host times are reported as the
median over repetitions, scaled to the reference host speed
(calibrate.py); simulated figures repeat exactly and are checked to do
so.

--trace 0 prints the end-to-end metrics of BENCHMARK.json; --trace 1
alternates untraced and traced repetitions and prints the per-layer
metrics, measured by perfbench/tracer.py from outside the program, with
the tracing overhead. The span tables are written under .bench_build/.

The last line of standard output is one JSON object:
{"correct", "attempted", "failed", "metrics"}. The exit code is nonzero,
with no JSON line, when the program cannot be run at all; a run whose
outputs are wrong prints "correct": false and names what failed.
"""
from __future__ import annotations

import argparse
import json
import os
import subprocess
import sys
from statistics import median
from time import perf_counter

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)

import calibrate  # noqa: E402
from workloads import WORKLOADS, make_job  # noqa: E402

MIN_REPS = 3          # untraced repetitions per run
MIN_TRACED_PAIRS = 1  # untraced + traced pairs per traced run
MIN_STRONG_SAMPLES = 100
REP_TIMEOUT_S = 150
RUN_LIMIT_S = 150     # no repetition starts that would end after this


class BenchError(Exception):
    """The benchmark cannot run here (no program, no BENCHMARK.json, a crash)."""


def _child_env(root: str, hashseed: int) -> dict:
    env = dict(os.environ)
    src = os.path.join(root, "src")
    env["PYTHONPATH"] = src
    env["PYTHONHASHSEED"] = str(hashseed)
    return env


def run_rep(root: str, job: dict, traced: bool, hashseed: int) -> dict:
    payload = json.dumps({**job, "trace": traced})
    proc = subprocess.run([sys.executable, os.path.join(HERE, "worker.py")],
                          input=payload, capture_output=True, text=True, cwd=root,
                          env=_child_env(root, hashseed), timeout=REP_TIMEOUT_S)
    if proc.returncode != 0:
        raise BenchError(f"worker exited with {proc.returncode}:\n{proc.stderr[-2000:]}")
    lines = proc.stdout.strip().splitlines()
    if not lines:
        raise BenchError("worker printed no result")
    return json.loads(lines[-1])


def warm_up(root: str) -> None:
    """Compile bytecode and load the interpreter's files before timing."""
    code = "import geobft.runtime, geobft.audit, geobft.irmc.conformance"
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                          cwd=root, env=_child_env(root, 0), timeout=REP_TIMEOUT_S)
    if proc.returncode != 0:
        raise BenchError(f"cannot import geobft from {root}/src:\n{proc.stderr[-2000:]}")


def repeat(root, job, seconds, traced_pattern, min_reps):
    """Run repetitions until the time is spent; traced_pattern cycles."""
    reps = []
    start = perf_counter()
    longest = 0.0
    i = 0
    while True:
        traced = traced_pattern[i % len(traced_pattern)]
        t0 = perf_counter()
        r = run_rep(root, job, traced, hashseed=i)
        longest = max(longest, perf_counter() - t0)
        r["traced"] = traced
        r["hashseed"] = i
        reps.append(r)
        i += 1
        if i < len(traced_pattern):
            continue
        elapsed = perf_counter() - start
        if elapsed + longest > RUN_LIMIT_S:
            break  # the whole run must end within the driver's time limit
        if i >= min_reps and elapsed + longest > seconds:
            break
    return reps


def _ratio(a, b) -> float:
    return a / b if b else 0.0


# -- correctness ---------------------------------------------------------------

SIMULATED = ("digest", "records", "sends", "wan_msgs", "ops", "attempted", "failed",
             "strong_n", "strong_p50_ms", "strong_p90_ms", "weak_p50_ms")


def check(reps) -> list:
    """Problems that make the run's outputs wrong."""
    problems = []
    for r in reps:
        for f in r["failures"]:
            problems.append(f"verdict failed (hashseed {r['hashseed']}): {f}")
    first = reps[0]
    for r in reps[1:]:
        for key in SIMULATED:
            if r[key] != first[key]:
                problems.append(f"{key} differs between repetitions: {first[key]} "
                                f"(hashseed {first['hashseed']}, traced {first['traced']}) "
                                f"vs {r[key]} (hashseed {r['hashseed']}, traced {r['traced']})")
    if first["strong_n"] < MIN_STRONG_SAMPLES:
        problems.append(f"only {first['strong_n']} strong latency samples after warm-up "
                        f"(need {MIN_STRONG_SAMPLES})")
    return problems


# -- metrics -------------------------------------------------------------------

def end_to_end(reps, speed) -> dict:
    """Host times are medians scaled to the reference speed (calibrate.py)."""
    first = reps[0]
    return {
        "setup_s": median([r["setup_s"] for r in reps]) * speed,
        "sim_s": median([r["sim_s"] for r in reps]) * speed,
        "audit_s": median([r["audit_s"] for r in reps]) * speed,
        "ops_per_s": median([r["ops"] / (r["sim_s"] + r["audit_s"]) for r in reps]) / speed,
        "peak_rss_mb": median([r["peak_rss_mb"] for r in reps]),
        "strong_p50_ms": first["strong_p50_ms"],
        "strong_p90_ms": first["strong_p90_ms"],
        "wan_msgs_per_op": _ratio(first["wan_msgs"], first["ops"]),
    }


def per_layer(names, untraced, traced) -> dict:
    """Per-layer metrics from the traced repetitions (counts repeat exactly;
    times are medians)."""
    first = traced[0]
    rows = [r["spans"]["spans"] for r in traced]
    counts = first["spans"]["counts"]
    events = first.get("events", {})
    channel = first["channel"]
    is_conf = "per_variant" in first

    def calls(*span_names):
        return sum(rows[0].get(n, {}).get("calls", 0) for n in span_names)

    def self_s(*span_names):
        return median([sum(row.get(n, {}).get("self_s", 0.0) for n in span_names)
                       for row in rows])

    def total_s(name):
        return median([row.get(name, {}).get("total_s", 0.0) for row in rows])

    def layer_self(layer):
        return median([sum(v["self_s"] for v in row.values() if v["layer"] == layer)
                       for row in rows])

    sends = calls("Simulator.send")
    if is_conf:
        deliveries = {v: first["per_variant"].get(v, 0) for v in ("rc", "sc")}
    else:
        deliveries = {"rc": 0, "sc": 0, first["irmc"]: channel["deliveries"]}
    announces = calls("CheckpointComponent.on_announce")
    batches = counts.get("ordering.batches", 0)
    strong_broadcasts = _ratio(counts.get("client.write_sends", 0), first.get("n_e", 0))
    sim_t = median([r["sim_s"] for r in traced])
    sim_u = median([r["sim_s"] for r in untraced])
    m = {
        "codec.encode_calls": calls("canonical_encode"),
        "codec.encode_self_s": self_s("canonical_encode"),
        "codec.encodes_per_send": _ratio(calls("canonical_encode"), sends),
        "codec.decode_calls": calls("canonical_decode"),
        "codec.decode_self_s": self_s("canonical_decode"),
        "crypto.sign_calls": calls("CryptoProvider.sign"),
        "crypto.mac_calls": calls("CryptoProvider.mac"),
        "crypto.verify_calls": calls("CryptoProvider.valid_sig", "CryptoProvider.valid_mac"),
        "crypto.digest_calls": calls("hash_bytes"),
        "crypto.digests_per_send": _ratio(calls("hash_bytes"), sends),
        "crypto.self_s": layer_self("crypto"),
        "simnet.sends": sends,
        "simnet.wan_sends": first["wan_msgs"],
        "simnet.send_self_s": self_s("Simulator.send", "Node.net_send"),
        "simnet.timers": calls("Simulator.after"),
        "simnet.deliveries": calls("Node.handle_envelope"),
        "simnet.deliver_self_s": self_s("Node.handle_envelope"),
        "trace.add_calls": calls("TraceLog.add"),
        "trace.add_self_s": self_s("TraceLog.add"),
        "trace.records": first["records"],
        "trace.records_per_op": _ratio(first["records"], first["ops"]),
        "irmc.window_blocked_ms": _ratio(channel["blocked_ms"], channel["blocked_sends"]),
        "irmc.sc.collector_switches": channel["collector_switches"],
        "ordering.handle_calls": calls("MiniBft.handle"),
        "ordering.self_s": layer_self("ordering"),
        "ordering.batches": batches,
        "ordering.ops_per_batch": _ratio(counts.get("ordering.batched_ops", 0), batches),
        "ordering.view_changes": first.get("views", 0),
        "checkpoint.gossip_ticks": calls("CheckpointComponent._gossip"),
        "checkpoint.announces": announces,
        "checkpoint.self_s": layer_self("checkpoint"),
        "checkpoint.stable": events.get("cp_stable", 0),
        "checkpoint.transfers": events.get("cp_transfer", 0),
        "checkpoint.useful_announce_frac":
            _ratio(counts.get("checkpoint.useful_announces", 0), announces),
        "agreement.payloads": calls("AgreementReplica.on_payload"),
        "agreement.self_s": layer_self("agreement"),
        "execution.payloads": calls("ExecutionReplica.on_payload"),
        "execution.self_s": layer_self("execution"),
        "execution.weak_reads": calls("ExecutionReplica.on_weak_read"),
        "client.self_s": layer_self("client"),
        "client.retries": max(0.0, strong_broadcasts - first.get("strong_issued", 0)),
        "client.switches": events.get("client_switch", 0),
        "client.weak_p50_ms": first["weak_p50_ms"] or 0.0,
        "audit.trace_passes": first["spans"].get("trace_passes", 0),
        "metrics.collect_s": median([r["spans"].get("metrics_collect_s", 0.0)
                                     for r in traced]),
        "conformance.schedules": first["attempted"] if is_conf else 0,
        "conformance.deliveries": sum(deliveries.values()) if is_conf else 0,
        "conformance.audit_s":
            median([r["audit_s"] for r in traced]) if is_conf else 0.0,
        "tracing.overhead": _ratio(sim_t, sim_u),
        "tracing.root_self_frac": median([
            _ratio(r["spans"]["root_self_s"], r["sim_s"] + r["audit_s"]) for r in traced]),
    }
    for v, (send_cls, recv_cls) in {"rc": ("RcSender", "RcReceiver"),
                                    "sc": ("ScSender", "ScReceiver")}.items():
        m[f"irmc.{v}.send_calls"] = calls(f"{send_cls}.send")
        m[f"irmc.{v}.handle_calls"] = calls(f"{send_cls}.handle", f"{recv_cls}.handle")
        m[f"irmc.{v}.self_s"] = layer_self(f"irmc.{v}")
        m[f"irmc.{v}.deliveries"] = deliveries[v]
    m["irmc.rc.copies_per_delivery"] = _ratio(counts.get("irmc.rc.copies", 0),
                                              deliveries["rc"])
    m["irmc.sc.shares_per_delivery"] = _ratio(counts.get("irmc.sc.shares", 0),
                                              deliveries["sc"])
    for name in names:
        # one entry per audit.STANDARD_CHECKS member, named by the check
        if name.startswith("audit.") and name.endswith("_s"):
            m[name] = total_s(name[:-2])
    missing = [n for n in names if n not in m]
    if missing:
        raise BenchError(f"no measurement for per-layer metrics {missing}")
    return m


# -- output --------------------------------------------------------------------

def load_spec(root: str) -> dict:
    path = os.path.join(root, "BENCHMARK.json")
    try:
        with open(path) as fh:
            return json.load(fh)
    except OSError as err:
        raise BenchError(f"cannot read {path}: {err}") from None


def describe(workload, seed, reps, speed) -> None:
    first = reps[0]
    print(f"workload {workload}  seed {seed}  repetitions {len(reps)}")
    print(f"  host speed {speed:.5f} of the reference (calibrate.py); the host "
          f"times in the metrics are the measured ones below times this")
    for r in reps:
        print(f"  hashseed {r['hashseed']:>2} traced {int(r['traced'])}  "
              f"setup {r['setup_s']:.4f} s  sim {r['sim_s']:.4f} s  "
              f"audit {r['audit_s']:.4f} s  rss {r['peak_rss_mb']:.1f} MB  "
              f"digest {r['digest']}")
    print(f"  trace digest {first['digest']}  records {first['records']}  "
          f"sends {first['sends']}  wan messages {first['wan_msgs']}  "
          f"completed ops {first['ops']}")
    print(f"  failed_frac {_ratio(first['failed'], first['attempted']):.4f} "
          f"({first['failed']} failed of {first['attempted']} attempted)")
    print(f"  strong latency samples {first['strong_n']}")
    if first["weak_n"]:
        print(f"  weak_p50_ms {first['weak_p50_ms']} ms ({first['weak_n']} samples)")


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    root = os.getcwd()
    try:
        spec = load_spec(root)
        warm_up(root)
        job = make_job(args.workload, args.seed)
        pattern, min_reps = ((False, True), MIN_TRACED_PAIRS * 2) if args.trace \
            else ((False,), MIN_REPS)
        reps = repeat(root, job, args.seconds, pattern, min_reps)
        speed = calibrate.speed([r["cal_units"] for r in reps], [r["cal_s"] for r in reps])
        describe(args.workload, args.seed, reps, speed)
        problems = check(reps)
        untraced = [r for r in reps if not r["traced"]]
        traced = [r for r in reps if r["traced"]]
        if args.trace:
            table = per_layer([m["name"] for m in spec["per_layer"]], untraced, traced)
            metrics = spec["per_layer"]
            for r in traced:
                if r["spans"]["root_self_s"] > r["sim_s"] + r["audit_s"]:
                    problems.append(f"root-span self time {r['spans']['root_self_s']:.4f} s "
                                    f"exceeds traced sim_s + audit_s")
            write_spans(root, args, traced)
        else:
            table = end_to_end(untraced, speed)
            metrics = spec["end_to_end"]
    except BenchError as err:
        print(f"benchmark error: {err}", file=sys.stderr)
        return 2
    except subprocess.TimeoutExpired as err:
        print(f"benchmark error: repetition timed out after {err.timeout} s", file=sys.stderr)
        return 2
    out = {}
    for m in metrics:
        value = table[m["name"]]
        if value is None:
            problems.append(f"{m['name']}: no value")
            value = 0.0
        out[m["name"]] = {"value": value, "unit": m["unit"]}
        print(f"  {m['name']:<34} {value:>16.6g} {m['unit']}")
    if args.trace:
        print(f"  tracing overhead (traced sim_s / untraced sim_s): "
              f"{table['tracing.overhead']:.3f}")
    for p in problems:
        print(f"FAILED: {p}")
    result = {
        "correct": not problems,
        "attempted": sum(r["attempted"] for r in reps),
        "failed": sum(r["failed"] for r in reps),
        "metrics": out,
    }
    print(json.dumps(result))
    return 0


def write_spans(root, args, traced) -> None:
    out_dir = os.path.join(root, ".bench_build", "perfbench")
    os.makedirs(out_dir, exist_ok=True)
    path = os.path.join(out_dir, f"spans-{args.workload}-seed{args.seed}.json")
    with open(path, "w") as fh:
        json.dump([{"hashseed": r["hashseed"], "sim_s": r["sim_s"], "audit_s": r["audit_s"],
                    **r["spans"]} for r in traced], fh, indent=1)
    print(f"  span tables: {os.path.relpath(path, root)}")


if __name__ == "__main__":
    sys.exit(main())
