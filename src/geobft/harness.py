"""Run scenarios, audit their traces, and produce reports."""
from __future__ import annotations

from dataclasses import dataclass
from pathlib import Path
from typing import Optional

from .audit import AuditView, audit_view
from .metrics import MetricsReport, accept_latencies, nearest_rank
from .runtime import System, build
from .scenario import ScenarioConfig, load_scenario


def run_scenario(source, seed: int, mode: Optional[str] = None,
                 irmc: Optional[str] = None,
                 out_dir: Optional[str] = None) -> tuple[System, MetricsReport]:
    cfg = source if isinstance(source, ScenarioConfig) else load_scenario(source)
    system = build(cfg, seed, mode=mode, irmc=irmc)
    system.sim.trace.add(0.0, "meta", "-", "-", "scenario",
                         scenario=cfg.name, mode=mode or cfg.mode,
                         irmc=irmc or cfg.irmc, seed=seed)
    trace = system.run()
    report = MetricsReport(
        scenario=cfg.name,
        mode=mode or cfg.mode,
        irmc=irmc or cfg.irmc,
        seed=seed,
    )
    # one grouping of the records serves the report and the audit
    view = AuditView(trace, cfg)
    accepts = view.events("client_accept")
    report.latency = accept_latencies(accepts, cfg, cfg.warmup_ms)
    report.completed = len(accepts)
    report.reconfigurations = sorted({(t, kind, data["group"]) for
                                      t, _, _, _, kind, _, data
                                      in view.events("registry_update")})
    report.wan_messages = {kind: n for (kind, wan), n
                           in system.sim.counters.msgs.items() if wan}
    report.wan_bytes = system.sim.counters.wan_bytes()
    report.channel_wan = dict(system.sim.counters.channel_wan)
    report.verdicts = audit_view(view, skip_liveness=cfg.fault_plan.beyond_threshold)
    if out_dir is None:
        report.trace_digest = trace.digest()
    else:
        out = Path(out_dir)
        out.mkdir(parents=True, exist_ok=True)
        stem = f"{cfg.name}-{report.mode}-{report.irmc}-{seed}"
        report.trace_digest = trace.write(out / f"{stem}.trace")
        (out / f"{stem}.report.txt").write_text(report.to_text())
    return system, report


@dataclass
class LeaderCrashReport:
    crash_at_ms: float
    before: dict  # region -> p50
    after: dict
    shifts: dict  # region -> abs(after - before)

    def max_remote_shift(self, home_region: str) -> float:
        remote = {r: d for r, d in self.shifts.items() if r != home_region}
        return max(remote.values()) if remote else 0.0

    def to_text(self) -> str:
        lines = [f"leader crash at {self.crash_at_ms} ms",
                 "region,p50_before,p50_after,shift"]
        for region in sorted(self.shifts):
            lines.append(f"{region},{self.before[region]:.3f},"
                         f"{self.after[region]:.3f},{self.shifts[region]:.3f}")
        return "\n".join(lines) + "\n"


def leader_crash_report(trace, cfg, crash_at_ms: float,
                        settle_ms: float = 1000.0) -> LeaderCrashReport:
    """Steady-state write p50 per client region before and after the crash."""
    region_of = {f"c{i}": spec.region for i, spec in enumerate(cfg.clients)}
    pre: dict = {}   # region -> write latencies accepted before the crash
    post: dict = {}  # region -> those accepted once the system settled
    for t, _, src, _, kind, _, data in trace.events("client_accept"):
        region = region_of.get(src)
        if kind != "write" or region is None:
            continue
        if cfg.warmup_ms <= t <= crash_at_ms:
            pre.setdefault(region, []).append(data["latency"])
        if t >= crash_at_ms + settle_ms:
            post.setdefault(region, []).append(data["latency"])
    before, after, shifts = {}, {}, {}
    for region in sorted(pre.keys() & post.keys()):
        before[region] = nearest_rank(pre[region], 50)
        after[region] = nearest_rank(post[region], 50)
        shifts[region] = abs(after[region] - before[region])
    return LeaderCrashReport(crash_at_ms, before, after, shifts)


def smallest_wan_difference(cfg) -> float:
    """Smallest nonzero gap between any two inter-region one-way delays."""
    delays = sorted(set(cfg.topology.wan_ms.values()))
    gaps = [b - a for a, b in zip(delays, delays[1:]) if b > a]
    return min(gaps) if gaps else 0.0
