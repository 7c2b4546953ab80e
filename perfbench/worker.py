"""One measured repetition of one workload, in a fresh interpreter.

Reads a job (see workloads.make_job) as JSON on stdin and prints one JSON
result line. Host times use perf_counter; set-up starts before the first
geobft import, so it includes the import. With "trace" set, the layers
are wrapped by tracer.Tracer before the system is built, and the span
tables come back in the result. Calibration units (calibrate.py) run
before and after the measured work, in this process, and their time
comes back too.

Run it from the root of a checkout with ``src`` on PYTHONPATH.
"""
from __future__ import annotations

import hashlib
import json
import os
import resource
import sys
from time import perf_counter

STRONG = ("write", "read_strong")


def _peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def _check_import_root(mod) -> None:
    root = os.path.realpath(os.path.join(os.getcwd(), "src"))
    if not os.path.realpath(mod.__file__).startswith(root + os.sep):
        raise SystemExit(f"geobft imported from {mod.__file__}, not from {root}")


# -- trace summaries (outside every timed region) ------------------------------

def _channel_summary(records, correct) -> dict:
    """Deliveries, collector switches and flow-control blocking from a trace."""
    out = {"deliveries": 0, "collector_switches": 0,
           "blocked_ms": 0.0, "blocked_sends": 0}
    calls = {}
    for t, event, src, dst, kind, digest, data in list.__iter__(records):
        if event == "irmc_deliver" and src in correct:
            out["deliveries"] += 1
        elif event == "collector_switch" and src in correct:
            out["collector_switches"] += 1
        elif event == "ch_send_call" and src in correct:
            calls.setdefault((src, kind, data["sc"], data["p"]), t)
        elif event == "ch_send_done" and src in correct:
            t0 = calls.pop((src, kind, data["sc"], data["p"]), None)
            if t0 is not None:
                out["blocked_ms"] += t - t0
                out["blocked_sends"] += 1
    return out


def _scenario_summary(trace, cfg) -> dict:
    """Ops, resolution and latency samples by the rules check_liveness uses."""
    from geobft.core import ClientId
    plan = cfg.fault_plan
    clients = {f"c{i}" for i in range(len(cfg.clients))
               if plan.is_correct(ClientId(i))}
    correct_nodes = {str(n) for gid in cfg.all_group_ids()
                     for n in cfg.group_members(gid)
                     if plan.for_node(n) is None or plan.for_node(n).kind != "byzantine"}
    correct_nodes |= {str(n) for n in cfg.agreement_members()
                      if plan.for_node(n) is None or plan.for_node(n).kind != "byzantine"}
    strong_issued, strong_done = set(), set()
    weak_issued, weak_done = set(), set()
    strong_lat, weak_lat = [], []
    completed = 0
    events: dict = {}
    views = set()
    for t, event, src, dst, kind, digest, data in list.__iter__(trace.records):
        events[event] = events.get(event, 0) + 1
        if event == "view_change" and src in correct_nodes:
            views.add(data["view"])
        if src not in clients:
            continue
        if event == "client_issue":
            if kind == "read_weak":
                weak_issued.add((src, round(t, 6)))
            else:
                strong_issued.add((src, data["t_c"]))
        elif event == "client_accept":
            completed += 1
            if kind == "read_weak":
                weak_done.add((src, round(data["issued"], 6)))
                if t >= cfg.warmup_ms:
                    weak_lat.append(data["latency"])
            else:
                strong_done.add((src, data["t_c"]))
                if kind in STRONG and t >= cfg.warmup_ms:
                    strong_lat.append(data["latency"])
        elif event == "client_resubmit":
            strong_done.add((src, data["t_c"]))
        elif event == "client_escalate":
            weak_done.add((src, round(data["issued"], 6)))
    attempted = len(strong_issued) + len(weak_issued)
    resolved = len(strong_issued & strong_done) + len(weak_issued & weak_done)
    return {
        "attempted": attempted, "failed": attempted - resolved,
        "completed": completed, "strong_lat": strong_lat, "weak_lat": weak_lat,
        "strong_issued": len(strong_issued), "events": events,
        "views": len(views),
        "channel": _channel_summary(trace.records, correct_nodes),
    }


# -- scenario workloads ----------------------------------------------------------

def run_scenario(job) -> dict:
    tracer = None
    t0 = perf_counter()
    import geobft
    from geobft.audit import audit_trace
    from geobft.runtime import build
    from geobft.scenario import load_scenario
    if job["trace"]:
        from tracer import Tracer
        tracer = Tracer()
        hooks = _scenario_hooks(tracer)
        tracer.install(hooks)
        tracer.install_audit()
    cfg = load_scenario(job["spec"])
    system = build(cfg, job["seed"])
    setup_s = perf_counter() - t0
    _check_import_root(geobft)

    root0 = tracer.root_self() if tracer is not None else 0.0
    t1 = perf_counter()
    trace = system.run()
    sim_s = perf_counter() - t1

    passes = None
    if tracer is not None:
        from tracer import CountingList
        passes = trace.records = CountingList(trace.records)
    t2 = perf_counter()
    verdicts = audit_trace(trace, cfg, skip_liveness=cfg.fault_plan.beyond_threshold)
    audit_s = perf_counter() - t2

    spans = None
    if tracer is not None:
        spans = tracer.snapshot()
        spans["root_self_s"] = tracer.root_self() - root0
        spans["trace_passes"] = passes.passes
        from geobft.metrics import collect_latencies
        t3 = perf_counter()
        collect_latencies(trace, cfg, cfg.warmup_ms)
        spans["metrics_collect_s"] = perf_counter() - t3

    from geobft.metrics import nearest_rank
    summary = _scenario_summary(trace, cfg)
    strong, weak = summary.pop("strong_lat"), summary.pop("weak_lat")
    counters = system.sim.counters
    result = {
        "setup_s": setup_s, "sim_s": sim_s, "audit_s": audit_s,
        "peak_rss_mb": _peak_rss_mb(),
        "failures": sorted(f"{name}: {detail}" for name, (ok, detail)
                           in verdicts.items() if not ok),
        "digest": trace.digest(),
        "records": len(trace.records),
        "sends": sum(counters.msgs.values()),
        "wan_msgs": counters.wan_messages(),
        "strong_n": len(strong), "weak_n": len(weak),
        "strong_p50_ms": nearest_rank(strong, 50) if strong else None,
        "strong_p90_ms": nearest_rank(strong, 90) if strong else None,
        "weak_p50_ms": nearest_rank(weak, 50) if weak else None,
        "n_e": cfg.fault_params.execution_size,
        "irmc": cfg.irmc,
        **summary,
    }
    result["ops"] = result.pop("completed")
    if spans is not None:
        result["spans"] = spans
    return result


def _scenario_hooks(tracer) -> dict:
    from geobft.core import ClientId
    net_send = tracer.stat("Node.net_send", "simnet")
    seen_batches = set()

    def on_send(args):
        _, src, dst, env = args[:4]
        if isinstance(src, ClientId) and type(env.payload).__name__ == "Write":
            tracer.count("client.write_sends")

    def on_announce(args):
        cp = args[0]
        before = (cp.latest_stable(), cp.fetching, net_send.calls)

        def post():
            if (cp.latest_stable(), cp.fetching, net_send.calls) != before:
                tracer.count("checkpoint.useful_announces")
        return post

    def on_deliver(args):
        _, s, batch = args[:3]
        if s not in seen_batches:
            seen_batches.add(s)
            tracer.count("ordering.batches")
            tracer.count("ordering.batched_ops", len(batch))

    return {**_channel_hooks(tracer),
            "Simulator.send": on_send,
            "CheckpointComponent.on_announce": on_announce,
            "AgreementReplica.on_deliver": on_deliver}


def _channel_hooks(tracer) -> dict:
    """Count ChSend copies reaching rc receivers and ChShare messages
    reaching sc senders (the work behind each delivery)."""
    def counter(type_name, key):
        def hook(args):
            if type(args[2]).__name__ == type_name:
                tracer.count(key)
        return hook
    return {"RcReceiver.handle": counter("ChSend", "irmc.rc.copies"),
            "ScSender.handle": counter("ChShare", "irmc.sc.shares")}


# -- IRMC conformance workload ---------------------------------------------------

def run_conformance(job) -> dict:
    spec = job["spec"]
    tracer = None
    t0 = perf_counter()
    import geobft
    from geobft.irmc import VARIANTS
    from geobft.irmc import conformance as conf
    if job["trace"]:
        from tracer import Tracer
        tracer = Tracer()
        tracer.install(_channel_hooks(tracer))
    factories = {v: conf.make_factory(*VARIANTS[v]) for v in spec["variants"]}
    setup_s = perf_counter() - t0
    _check_import_root(geobft)

    from geobft.metrics import nearest_rank

    # audit_schedule and Simulator.run_until are looked up at call time, so
    # wrapping them here times each schedule's audit and reads its counters
    state = {"audit_s": 0.0, "excluded_s": 0.0, "wan": 0, "sends": 0, "records": 0}
    lat: list = []
    digests: list = []
    channel = {"deliveries": 0, "collector_switches": 0,
               "blocked_ms": 0.0, "blocked_sends": 0}
    per_variant: dict = {}  # variant -> deliveries at correct receivers
    original_audit = conf.audit_schedule
    original_run_until = conf.Simulator.run_until

    def audit_schedule(trace, cfg, correct_s, correct_r, outstanding, report):
        a0 = perf_counter()
        out = original_audit(trace, cfg, correct_s, correct_r, outstanding, report)
        a1 = perf_counter()
        state["audit_s"] += a1 - a0
        lat.extend(_delivery_latencies(trace.records, correct_s, correct_r))
        summary = _channel_summary(trace.records, {str(n) for n in correct_s | correct_r})
        for k, v in summary.items():
            channel[k] += v
        state["records"] += len(trace.records)
        # TraceLog.digest's definition, without the traced hash_bytes
        digests.append(hashlib.blake2b(repr(trace.records).encode(),
                                       digest_size=16).hexdigest())
        state["excluded_s"] += perf_counter() - a1
        return out

    def run_until(sim, t_end):
        original_run_until(sim, t_end)
        r0 = perf_counter()
        state["wan"] += sim.counters.wan_messages()
        state["sends"] += sum(sim.counters.msgs.values())
        state["excluded_s"] += perf_counter() - r0

    conf.audit_schedule = audit_schedule
    conf.Simulator.run_until = run_until
    attempted = failed = 0
    failures = []
    total_s = 0.0
    root0 = tracer.root_self() if tracer is not None else 0.0
    try:
        for variant in spec["variants"]:
            reported = 0
            for batch_seed, schedules in spec["batches"]:
                r0 = perf_counter()
                report = conf.run_conformance(factories[variant], spec["f_s"],
                                              spec["f_r"], batch_seed, schedules)
                total_s += perf_counter() - r0
                attempted += report.schedules
                reported += report.deliveries
                failed += len({f.split(":", 1)[0] for f in report.failures})
                failures += [f"{variant} {f}" for f in report.failures[:5]]
            per_variant[variant] = reported
    finally:
        conf.audit_schedule = original_audit
        conf.Simulator.run_until = original_run_until

    audit_s = state["audit_s"]
    sim_s = total_s - audit_s - state["excluded_s"]
    spans = None
    if tracer is not None:
        spans = tracer.snapshot()
        spans["root_self_s"] = tracer.root_self() - root0
    result = {
        "setup_s": setup_s, "sim_s": sim_s, "audit_s": audit_s,
        "peak_rss_mb": _peak_rss_mb(),
        "failures": failures,
        "digest": hashlib.blake2b("".join(digests).encode(), digest_size=16).hexdigest(),
        "records": state["records"], "sends": state["sends"], "wan_msgs": state["wan"],
        "attempted": attempted, "failed": failed, "ops": attempted - failed,
        "strong_n": len(lat),
        "strong_p50_ms": nearest_rank(lat, 50) if lat else None,
        "strong_p90_ms": nearest_rank(lat, 90) if lat else None,
        "weak_n": 0, "weak_p50_ms": None,
        "channel": channel, "per_variant": per_variant,
    }
    if spans is not None:
        result["spans"] = spans
    return result


def _delivery_latencies(records, correct_s, correct_r) -> list:
    """Simulated ms from the first correct send call of a (sc, p, content) to
    each correct receiver's delivery of it."""
    cs = {str(n) for n in correct_s}
    cr = {str(n) for n in correct_r}
    first: dict = {}
    out = []
    for t, event, src, dst, kind, digest, data in list.__iter__(records):
        if event == "ch_send_call" and src in cs:
            first.setdefault((data["sc"], data["p"], digest), t)
        elif event == "irmc_deliver" and src in cr:
            t0 = first.get((data["sc"], data["p"], digest))
            if t0 is not None:
                out.append(t - t0)
    return out


def main() -> int:
    job = json.load(sys.stdin)
    sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))
    import calibrate
    run = run_scenario if job["kind"] == "scenario" else run_conformance
    before = calibrate.measure()
    result = run(job)
    result["cal_s"] = before + calibrate.measure()
    result["cal_units"] = 2 * calibrate.UNITS_PER_SIDE
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
