"""Run scenarios, audit their traces, and produce reports."""
from __future__ import annotations

from pathlib import Path
from typing import Optional

from .audit import AuditView, audit_view
from .metrics import MetricsReport, accept_latencies
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
