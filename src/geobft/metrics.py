"""Latency percentiles, wide-area traffic accounting, and the hop-sum
oracle that predicts write latency straight from the topology."""
from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Optional


def nearest_rank(values, q: float) -> float:
    """Nearest-rank percentile over completed requests only."""
    if not values:
        return float("nan")
    ordered = sorted(values)
    rank = max(1, math.ceil(q / 100.0 * len(ordered)))
    return ordered[rank - 1]


@dataclass
class MetricsReport:
    scenario: str
    mode: str
    irmc: str
    seed: int
    latency: dict = field(default_factory=dict)   # (region, kind) -> {n, p50, p90}
    wan_messages: dict = field(default_factory=dict)
    wan_bytes: int = 0
    channel_wan: dict = field(default_factory=dict)
    verdicts: dict = field(default_factory=dict)  # name -> (ok, detail)
    reconfigurations: list = field(default_factory=list)
    completed: int = 0
    trace_digest: str = ""

    @property
    def ok(self) -> bool:
        return all(ok for ok, _ in self.verdicts.values())

    @property
    def wan_per_request(self) -> float:
        """Wide-area messages per completed request (perfbench's
        wan_msgs_per_op); NaN when nothing completed."""
        if not self.completed:
            return float("nan")
        return sum(self.wan_messages.values()) / self.completed

    def to_text(self) -> str:
        lines = [f"scenario: {self.scenario}  mode: {self.mode}  irmc: {self.irmc}  "
                 f"seed: {self.seed}",
                 f"completed requests: {self.completed}",
                 f"trace digest: {self.trace_digest}",
                 "", "latency (ms, nearest-rank):",
                 "region,op,n,p50,p90"]
        for (region, kind), row in sorted(self.latency.items()):
            lines.append(f"{region},{kind},{row['n']},{row['p50']:.3f},{row['p90']:.3f}")
        lines.append("")
        lines.append("wide-area messages by kind:")
        for kind, n in sorted(self.wan_messages.items()):
            lines.append(f"  {kind}: {n}")
        lines.append(f"wide-area bytes: {self.wan_bytes}")
        lines.append(f"wide-area messages per completed request: "
                     f"{self.wan_per_request:.2f}")
        if self.channel_wan:
            lines.append("wide-area messages by channel:")
            for (channel, kind), n in sorted(self.channel_wan.items()):
                lines.append(f"  {channel} {kind}: {n}")
        if self.reconfigurations:
            lines.append("reconfiguration timeline:")
            for t, action, group in self.reconfigurations:
                lines.append(f"  {t:.1f} ms  {action} group {group}")
        lines.append("")
        lines.append("safety verdicts:")
        for name, (ok, detail) in sorted(self.verdicts.items()):
            status = "PASS" if ok else "FAIL"
            lines.append(f"  [{status}] {name}" + (f": {detail}" if detail else ""))
        return "\n".join(lines) + "\n"


def collect_latencies(trace, cfg, warmup_ms: float) -> dict:
    """(region, kind) -> {n, p50, p90} from client_accept events."""
    return accept_latencies(trace.events("client_accept"), cfg, warmup_ms)


def accept_latencies(accepts, cfg, warmup_ms: float) -> dict:
    """collect_latencies over the client_accept records already picked out."""
    region_of = {f"c{i}": spec.region for i, spec in enumerate(cfg.clients)}
    samples: dict = {}
    for t, event, src, dst, kind, digest, data in accepts:
        if t < warmup_ms:
            continue
        region = region_of.get(src)
        if region is None:
            continue
        samples.setdefault((region, kind), []).append(data["latency"])
    return {
        key: {"n": len(vals), "p50": nearest_rank(vals, 50),
              "p90": nearest_rank(vals, 90)}
        for key, vals in samples.items()
    }


# ---------------------------------------------------------------------------
# hop-sum oracle: plain arithmetic over the latency matrix, mirroring the
# request's path through the stages; no event queue involved
# ---------------------------------------------------------------------------

def _kth_smallest(values, k):
    return sorted(values)[k - 1]


def expected_write_latency(cfg, client_region: str, client_zone: int = 0,
                           mode: str = "spider") -> float:
    topo = cfg.topology
    f_a, f_e = cfg.fault_params.f_a, cfg.fault_params.f_e
    ag_region = cfg.agreement_region
    n_a = cfg.fault_params.agreement_size
    ag_zones = [i % topo.regions[ag_region] for i in range(n_a)]
    ag_place = [(ag_region, z) for z in ag_zones]

    # nearest group to the client, ties by lowest id
    groups = sorted(cfg.groups.items(),
                    key=lambda kv: (topo.latency((client_region, client_zone),
                                                 (kv[1], 0)), kv[0]))
    group_region = groups[0][1]
    n_e = cfg.fault_params.execution_size
    ex_place = [(group_region, i % topo.regions[group_region]) for i in range(n_e)]
    client = (client_region, client_zone)

    # client -> execution replicas -> request channel quorum at each acceptor
    t_exec = [topo.latency(client, e) for e in ex_place]
    t_req = []
    for a in ag_place:
        arrivals = [t_exec[i] + topo.latency(ex_place[i], a) for i in range(n_e)]
        t_req.append(_kth_smallest(arrivals, f_e + 1))

    if mode == "oracle":
        # the designated assigner stamps and broadcasts
        t_assign = min(t_req[0],
                       min(t_req[j] + topo.latency(ag_place[j], ag_place[0])
                           for j in range(1, n_a)))
        committed = [t_assign if j == 0
                     else t_assign + topo.latency(ag_place[0], ag_place[j])
                     for j in range(n_a)]
    else:
        # leader proposes on its own channel delivery or the fastest relay
        t_prop = min(t_req[0],
                     min(t_req[j] + topo.latency(ag_place[j], ag_place[0])
                         for j in range(1, n_a)))
        pp = [t_prop + (0.0 if j == 0 else topo.latency(ag_place[0], ag_place[j]))
              for j in range(n_a)]
        prepared = []
        for j in range(n_a):
            arrivals = [pp[i] + (0.0 if i == j else
                                 topo.latency(ag_place[i], ag_place[j]))
                        for i in range(n_a)]
            prepared.append(_kth_smallest(arrivals, 2 * f_a + 1))
        committed = []
        for j in range(n_a):
            arrivals = [prepared[i] + (0.0 if i == j else
                                       topo.latency(ag_place[i], ag_place[j]))
                        for i in range(n_a)]
            committed.append(_kth_smallest(arrivals, 2 * f_a + 1))

    # commit channel quorum at each execution replica, then the reply quorum
    t_commit = []
    for i, e in enumerate(ex_place):
        arrivals = [committed[j] + topo.latency(ag_place[j], e) for j in range(n_a)]
        t_commit.append(_kth_smallest(arrivals, f_a + 1))
    replies = [t_commit[i] + topo.latency(ex_place[i], client) for i in range(n_e)]
    return _kth_smallest(replies, f_e + 1)


def write_wan_stages(view, client_name: str, t_c: int) -> Optional[int]:
    """Counts the wide-area legs on one accepted write's path by locating the
    actual channel deliveries that carried it (request leg, then commit leg).
    `view` is the run's `audit.AuditView`."""
    c = int(client_name[1:])
    issue = s_assigned = None
    for t, event, src, dst, kind, digest, data in view.events("client_issue"):
        if src == client_name and kind == "write" and data.get("t_c") == t_c:
            issue = data
    for t, event, src, dst, kind, digest, data in view.events("execute"):
        if data.get("c") == c and data.get("t_c") == t_c:
            s_assigned = data["s"]
            break
    if issue is None or s_assigned is None:
        return None
    gid = issue["group"]
    req_kind, commit_kind, group_prefix = f"req{gid}", f"commit{gid}", f"ex{gid}:"
    req_delivered = commit_delivered = False
    for t, event, src, dst, kind, digest, data in view.events("irmc_deliver"):
        if kind == req_kind and data.get("sc") == c and data.get("p") == t_c:
            req_delivered = True
        elif kind == commit_kind and data.get("p") == s_assigned \
                and src.startswith(group_prefix):
            commit_delivered = True
    if not (req_delivered and commit_delivered):
        return None
    cfg = view.cfg
    group_region = cfg.groups.get(gid) or cfg.pending_groups.get(gid)
    crossing = group_region != cfg.agreement_region
    # each delivered channel leg crosses the WAN at most once by construction
    return (1 if crossing else 0) * 2
