"""Command-line entry point: run scenarios, audit traces, sweep seeds."""
from __future__ import annotations

import argparse
import sys

from .audit import audit_trace
from .harness import run_scenario
from .irmc import VARIANTS
from .scenario import MODES, ScenarioError, load_scenario, shipped_scenarios
from .simnet import TraceFormatError, read_trace


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="geobft",
        description="Deterministic simulator for geo-replicated BFT with "
                    "flow-controlled inter-regional message channels")
    sub = parser.add_subparsers(dest="command", required=True)

    run_p = sub.add_parser("run", help="run one scenario and audit the trace")
    run_p.add_argument("scenario", help="scenario path or shipped scenario name")
    run_p.add_argument("--seed", type=int, default=1)
    run_p.add_argument("--mode", choices=MODES)
    run_p.add_argument("--irmc", choices=tuple(VARIANTS))
    run_p.add_argument("--out", help="directory for the trace and report files")

    audit_p = sub.add_parser("audit", help="re-run the safety checkers on a trace")
    audit_p.add_argument("trace", help="trace file written by run")
    audit_p.add_argument("scenario", nargs="?",
                         help="scenario the trace came from (defaults to the "
                              "name recorded in the trace)")

    sweep_p = sub.add_parser("sweep", help="run a scenario across a seed range")
    sweep_p.add_argument("scenario")
    sweep_p.add_argument("--seeds", default="1..5",
                         help="inclusive range, e.g. 1..10")
    sweep_p.add_argument("--mode", choices=MODES)
    sweep_p.add_argument("--irmc", choices=tuple(VARIANTS))

    list_p = sub.add_parser("list", help="list shipped scenarios")

    args = parser.parse_args(argv)
    try:
        if args.command == "run":
            return _cmd_run(args)
        if args.command == "audit":
            return _cmd_audit(args)
        if args.command == "sweep":
            return _cmd_sweep(args)
    except (ScenarioError, TraceFormatError) as exc:
        sys.stderr.write(f"{exc}\n")
        return 2
    if args.command == "list":
        for name in shipped_scenarios():
            print(name)
        return 0
    return 2


def _cmd_run(args) -> int:
    system, report = run_scenario(args.scenario, args.seed, mode=args.mode,
                                  irmc=args.irmc, out_dir=args.out)
    sys.stdout.write(report.to_text())
    if not report.ok:
        failing = [n for n, (ok, _) in report.verdicts.items() if not ok]
        sys.stderr.write(f"safety verdicts failed: {', '.join(failing)}\n")
        _print_excerpt(system.sim.trace)
        return 1
    return 0


def _print_excerpt(trace, tail: int = 30) -> None:
    sys.stderr.write("trace tail:\n")
    for line in list(trace.lines())[-tail:]:
        sys.stderr.write("  " + line + "\n")


def _cmd_audit(args) -> int:
    trace = read_trace(args.trace)
    source = args.scenario
    if source is None:
        meta = next((r for r in trace.records if r[1] == "meta"), None)
        if meta is None:
            sys.stderr.write("trace carries no scenario name; pass one explicitly\n")
            return 2
        source = meta[6]["scenario"]
    cfg = load_scenario(source)
    verdicts = audit_trace(trace, cfg,
                           skip_liveness=cfg.fault_plan.beyond_threshold)
    ok = True
    for name, (passed, detail) in sorted(verdicts.items()):
        status = "PASS" if passed else "FAIL"
        print(f"[{status}] {name}" + (f": {detail}" if detail else ""))
        ok &= passed
    return 0 if ok else 1


def _cmd_sweep(args) -> int:
    lo, hi = args.seeds.split("..")
    digests = {}
    verdict_sets = set()
    status = 0
    for seed in range(int(lo), int(hi) + 1):
        system, report = run_scenario(args.scenario, seed, mode=args.mode,
                                      irmc=args.irmc)
        verdict_key = tuple(sorted((n, ok) for n, (ok, _) in report.verdicts.items()))
        verdict_sets.add(verdict_key)
        digests[seed] = report.trace_digest
        flag = "ok" if report.ok else "FAIL"
        print(f"seed {seed}: {flag}  completed={report.completed}  "
              f"wan/req={report.wan_per_request:.2f}  "
              f"trace={report.trace_digest[:12]}")
        if not report.ok:
            status = 1
    if len(verdict_sets) > 1:
        print("WARNING: safety verdicts differ across seeds")
        status = 1
    else:
        print(f"verdicts identical across {len(digests)} seeds")
    return status


if __name__ == "__main__":
    sys.exit(main())
