"""Acceptance suite: one test per criterion, one printed verdict line each.

Shared scenario runs are cached per (name, mode, irmc) at module scope so
criteria that look at the same trace do not re-run the simulation.
"""
import time

from geobft.audit import AuditView, audit_trace, check_liveness
from geobft.harness import run_scenario
from geobft.irmc import RcReceiver, RcSender, ScReceiver, ScSender
from geobft.irmc.conformance import make_factory, run_conformance
from geobft.metrics import expected_write_latency, nearest_rank, write_wan_stages
from geobft.scenario import load_scenario, shipped_scenarios
from geobft.simnet import read_trace

SEED = 2
_cache = {}

HISTORY_VERDICTS = ("execute_equality", "realtime_order", "replay", "weak_reads")


def get_run(name, mode=None, irmc=None, seed=SEED):
    key = (name, mode, irmc, seed)
    if key not in _cache:
        _cache[key] = run_scenario(name, seed, mode=mode, irmc=irmc)
    return _cache[key]


def conclude(number, title, conditions):
    ok = all(c for c, _ in conditions)
    status = "PASS" if ok else "FAIL"
    print(f"\nACCEPTANCE {number} [{status}] {title}")
    for c, msg in conditions:
        if not c:
            print(f"  violated: {msg}")
    assert ok, [m for c, m in conditions if not c]


def test_criterion_01_irmc_conformance():
    conditions = []
    for variant, factory in (("rc", make_factory(RcSender, RcReceiver)),
                             ("sc", make_factory(ScSender, ScReceiver))):
        t0 = time.time()
        total_deliveries = 0
        for f, schedules in ((1, 600), (2, 400)):
            report = run_conformance(factory, f, f, seed=97 + f, schedules=schedules)
            conditions.append((report.ok,
                               f"{variant} f={f}: {report.failures[:3]}"))
            conditions.append((report.schedules == schedules,
                               f"{variant} f={f}: ran {report.schedules}"))
            total_deliveries += report.deliveries
        elapsed = time.time() - t0
        print(f"  {variant}: 1000 schedules, {total_deliveries} deliveries, "
              f"{elapsed:.1f}s")
        conditions.append((total_deliveries > 5000,
                           f"{variant}: too few deliveries ({total_deliveries})"))
    conclude(1, "IRMC conformance, 1000 randomized schedules per variant",
             conditions)


def safety_runs():
    """(scenario, irmc) of every run ACCEPTANCE 2 audits."""
    runs = [(name, None) for name in shipped_scenarios()]
    # the sender-side-collection channel in the full architecture, faults on
    return runs + [("threshold-faults", "sc"), ("four-regions-writes", "sc")]


def test_criterion_02_end_to_end_safety():
    conditions = []
    for name, irmc in safety_runs():
        _, report = get_run(name, irmc=irmc)
        label = name if irmc is None else f"{name}[{irmc}]"
        for verdict in HISTORY_VERDICTS:
            ok, detail = report.verdicts[verdict]
            conditions.append((ok, f"{label}/{verdict}: {detail}"))
        others = [v for v in report.verdicts if v not in HISTORY_VERDICTS]
        for verdict in others:
            ok, detail = report.verdicts[verdict]
            conditions.append((ok, f"{label}/{verdict}: {detail}"))
    conclude(2, "history checker verdicts across every shipped scenario",
             conditions)


def test_criterion_03_liveness():
    conditions = []
    threshold_scenarios = [n for n in shipped_scenarios()
                           if not load_scenario(n).fault_plan.beyond_threshold]
    for name in threshold_scenarios:
        _, report = get_run(name)
        ok, detail = report.verdicts["liveness"]
        conditions.append((ok, f"{name}: {detail}"))
    conditions.append((any("leader-crash" in n for n in threshold_scenarios),
                       "leader-crash scenario missing from liveness set"))
    conditions.append((any("lag-catchup" in n for n in threshold_scenarios),
                       "catch-up scenario missing from liveness set"))
    # the z=1 stall scenario is beyond threshold (a whole group partitioned)
    # but every client is attached to a healthy group and must still finish
    system, _ = get_run("flow-control-z1")
    v = check_liveness(AuditView(system.sim.trace, system.cfg))
    conditions.append((v.ok, f"flow-control-z1: {v.detail}"))
    conclude(3, "every correct-client request completes within the horizon",
             conditions)


def test_criterion_04_hop_structure():
    system, report = get_run("four-regions-writes")
    cfg = system.cfg
    trace = system.sim.trace
    conditions = []
    inter_zone = cfg.topology.inter_zone_ms
    local_bound = 4 * 2 * inter_zone + 3 * 2 * inter_zone  # hops + consensus
    for region in cfg.topology.regions:
        row = report.latency.get((region, "write"))
        conditions.append((row is not None, f"no write samples for {region}"))
        if row is None:
            continue
        oracle = expected_write_latency(cfg, region)
        conditions.append((abs(row["p50"] - oracle) <= 1.0,
                           f"{region}: p50 {row['p50']:.2f} vs oracle {oracle:.2f}"))
        print(f"  {region}: p50={row['p50']:.2f} oracle={oracle:.2f}")
    co_located = report.latency[(cfg.agreement_region, "write")]
    conditions.append((co_located["p50"] <= local_bound,
                       f"co-located p50 {co_located['p50']:.2f} exceeds "
                       f"intra-region bound {local_bound:.2f}"))
    # exact hop counting: two wide-area legs for remote writes, zero co-located
    remote_checked = local_checked = 0
    view = AuditView(trace, cfg)
    for t, event, src, dst, kind, digest, data in view.events("client_accept"):
        if kind != "write":
            continue
        idx = int(src[1:])
        region = cfg.clients[idx].region
        stages = write_wan_stages(view, src, data["t_c"])
        if stages is None:
            continue
        if region == cfg.agreement_region and local_checked < 10:
            conditions.append((stages == 0, f"{src} local write crossed WAN"))
            local_checked += 1
        elif region != cfg.agreement_region and remote_checked < 10:
            conditions.append((stages == 2,
                               f"{src} remote write used {stages} WAN legs"))
            remote_checked += 1
    conditions.append((remote_checked >= 10, "too few remote writes checked"))
    conditions.append((local_checked >= 10, "too few local writes checked"))
    conclude(4, "write latency equals the hop-sum oracle; two WAN legs exactly",
             conditions)


def test_criterion_05_flat_baseline_ordering():
    _, spider = get_run("four-regions-writes")
    _, flat = get_run("four-regions-writes", mode="flat-bft")
    cfg = load_scenario("four-regions-writes")
    leader_region = cfg.agreement_region  # flat replica 0 lives there too
    conditions = []
    for region in cfg.topology.regions:
        if region == leader_region:
            continue
        s = spider.latency.get((region, "write"))
        f = flat.latency.get((region, "write"))
        conditions.append((s is not None and f is not None,
                           f"{region}: missing samples"))
        if s and f:
            conditions.append((f["p50"] > s["p50"],
                               f"{region}: flat {f['p50']:.1f} !> spider {s['p50']:.1f}"))
            print(f"  {region}: spider={s['p50']:.1f} flat={f['p50']:.1f}")
    conclude(5, "flat-BFT remote p50 exceeds spider p50 in every non-leader region",
             conditions)


def leader_crash_shifts(trace, cfg, crash_at_ms, settle_ms) -> dict:
    """Region -> |write p50 once settled after the crash - write p50 before it|."""
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
    return {region: abs(nearest_rank(post[region], 50) - nearest_rank(pre[region], 50))
            for region in sorted(pre.keys() & post.keys())}


def max_remote_shift(shifts, home_region) -> float:
    return max((d for r, d in shifts.items() if r != home_region), default=0.0)


def smallest_wan_difference(cfg) -> float:
    """Smallest nonzero gap between any two inter-region one-way delays."""
    delays = sorted(set(cfg.topology.wan_ms.values()))
    return min((b - a for a, b in zip(delays, delays[1:])), default=0.0)


def test_criterion_06_leader_location_stability():
    cfg = load_scenario("leader-crash")
    spider_sys, spider_rep = get_run("leader-crash")
    flat_sys, flat_rep = get_run("leader-crash", mode="flat-bft")
    crash_at = 3500.0
    spider = leader_crash_shifts(spider_sys.sim.trace, cfg, crash_at, settle_ms=500.0)
    flat = leader_crash_shifts(flat_sys.sim.trace, cfg, crash_at, settle_ms=1500.0)
    spider_shift = max_remote_shift(spider, cfg.agreement_region)
    flat_shift = max_remote_shift(flat, cfg.agreement_region)
    min_diff = smallest_wan_difference(cfg)
    conditions = [
        (spider_rep.verdicts["liveness"][0], "spider run lost requests"),
        (spider_shift < 2.0, f"spider remote shift {spider_shift:.2f} >= 2ms"),
        (flat_shift >= min_diff, f"flat shift {flat_shift:.2f} < {min_diff:.2f}"),
    ]
    print(f"  spider shifts: {spider}")
    print(f"  flat shifts: {flat} (bound {min_diff:.1f})")
    conclude(6, "leader changes barely move spider latency; flat moves by a WAN step",
             conditions)


def _delivered_up_to(trace, node, t):
    best = 0
    for r in trace.records:
        if r[1] == "order_deliver" and r[2] == node and r[0] <= t:
            best = max(best, r[6]["s"])
    return best


def test_criterion_07_global_flow_control():
    stall_from, heal_at = 1500.0, 5000.0
    sys1, rep1 = get_run("flow-control-z1")
    t1 = sys1.sim.trace
    during = _delivered_up_to(t1, "ag0:0", heal_at) - _delivered_up_to(t1, "ag0:0", stall_from)
    transfers = [r for r in t1.records
                 if r[1] == "cp_transfer" and r[6].get("cross_group")
                 and r[3].startswith("ex4")]
    final_others = {r.s_n for gid in (1, 2, 3) for r in sys1.executions[gid]}
    caught_up = all(r.s_n == max(final_others) for r in sys1.executions[4])
    conditions = [
        (rep1.ok, "z=1 safety verdicts failed"),
        (during >= 60, f"z=1 agreement advanced only {during} during the stall"),
        (bool(transfers), "z=1 stalled group never fetched cross-group"),
        (caught_up, f"z=1 stalled group s_n "
                    f"{[r.s_n for r in sys1.executions[4]]} != {max(final_others)}"),
    ]
    print(f"  z=1: {during} sequences during stall, "
          f"{len(transfers)} cross-group transfers")

    sys0, rep0 = get_run("flow-control-z0")
    t0 = sys0.sim.trace
    at_stall_start = _delivered_up_to(t0, "ag0:0", stall_from)
    plateau = _delivered_up_to(t0, "ag0:0", heal_at)
    mid = _delivered_up_to(t0, "ag0:0", 3000.0)
    resumed = _delivered_up_to(t0, "ag0:0", 9000.0)
    commit_capacity = sys0.executions[4][0].commit_recv.cfg.capacity
    conditions += [
        (rep0.ok, "z=0 safety verdicts failed"),
        (plateau == mid, f"z=0 kept advancing during the stall ({mid}->{plateau})"),
        (plateau - at_stall_start <= commit_capacity,
         f"z=0 advanced {plateau - at_stall_start} past the stall, over the "
         f"window capacity {commit_capacity}"),
        (resumed > plateau + 20, f"z=0 never resumed ({plateau}->{resumed})"),
    ]
    print(f"  z=0: plateau at {plateau} (start {at_stall_start}), resumed to {resumed}")
    conclude(7, "z=1 rides out a stalled group; z=0 stalls at window exhaustion",
             conditions)


def test_criterion_08_reconfiguration():
    system, report = get_run("add-remove-group")
    trace = system.sim.trace
    cfg = system.cfg
    new_gid = 5
    members = [f"ex{new_gid}:{i}" for i in range(3)]
    conditions = [(report.ok, "safety verdicts failed")]
    # first commit receive at each new replica resolves TooOld
    for m in members:
        first = next((r for r in trace.records
                      if r[1] in ("ch_recv_msg", "ch_recv_tooold") and r[2] == m
                      and r[4] == f"commit{new_gid}"), None)
        conditions.append((first is not None and first[1] == "ch_recv_tooold",
                           f"{m}: first commit receive resolved {first and first[1]}"))
        transfers = [r for r in trace.records
                     if r[1] == "cp_transfer" and r[3] == m
                     and r[6].get("cross_group")]
        conditions.append((len(transfers) == 1,
                           f"{m}: {len(transfers)} cross-group fetches"))
    weak_served = [r for r in trace.records
                   if r[1] == "weak_serve" and r[2].startswith(f"ex{new_gid}:")]
    conditions.append((len(weak_served) > 0, "new group served no weak reads"))
    # clients attached to the removed group finish later requests elsewhere
    removal = next(r[0] for r in trace.records
                   if r[1] == "registry_update" and r[4] == "remove")
    switched = {r[2] for r in trace.records
                if r[1] == "client_switch" and r[0] >= removal}
    conditions.append((bool(switched), "no client left the removed group"))
    for c in sorted(switched):
        later = [r for r in trace.records
                 if r[1] == "client_accept" and r[2] == c and r[0] > removal]
        conditions.append((bool(later), f"{c} completed nothing after the removal"))
    print(f"  new group: {len(weak_served)} weak reads served, "
          f"clients switched after removal: {sorted(switched)}")
    conclude(8, "AddGroup catch-up via one cross-group checkpoint; RemoveGroup "
                "clients continue elsewhere", conditions)


def test_criterion_09_rc_vs_sc_economy():
    _, rc = get_run("rc-vs-sc", irmc="rc")
    _, sc = get_run("rc-vs-sc", irmc="sc")
    rc_sys, _ = _cache[("rc-vs-sc", None, "rc", SEED)]
    sc_sys, _ = _cache[("rc-vs-sc", None, "sc", SEED)]

    def delivered_positions(system, channel):
        return len({r[6]["p"] for r in system.sim.trace.records
                    if r[1] == "irmc_deliver" and r[4] == channel})

    chan = "commit2"
    rc_pos = delivered_positions(rc_sys, chan)
    sc_pos = delivered_positions(sc_sys, chan)
    rc_sends = rc.channel_wan.get((chan, "ChSend"), 0)
    sc_certs = sc.channel_wan.get((chan, "ChCert"), 0)
    sc_progress = sc.channel_wan.get((chan, "ChProgress"), 0)
    progress_ms = sc_sys.executions[2][0].commit_recv.cfg.progress_ms
    ticks = sc_sys.cfg.duration_ms / progress_ms
    progress_bound = int(ticks * 4 * 3) + 12
    conditions = [
        (rc_pos > 10, f"rc delivered only {rc_pos} positions"),
        (rc_sends == 12 * rc_pos,
         f"rc: {rc_sends} Sends for {rc_pos} positions (want exactly 12 each)"),
        (sc_certs == 3 * sc_pos,
         f"sc: {sc_certs} Certificates for {sc_pos} positions (want exactly 3 each)"),
        (sc_progress <= progress_bound,
         f"sc: {sc_progress} Progress messages exceed bound {progress_bound}"),
    ]
    print(f"  rc: {rc_sends} payload sends / {rc_pos} positions; "
          f"sc: {sc_certs} certificates / {sc_pos} positions "
          f"(+{sc_progress} progress)")
    conclude(9, "per payload: RC ships 12 wide-area messages, SC ships 3 "
                "certificates plus bounded Progress", conditions)


def test_criterion_10_checkpoint_equivalence():
    system, report = get_run("lag-catchup")
    trace = system.sim.trace
    conditions = [(report.verdicts["cp_equivalence"][0],
                   report.verdicts["cp_equivalence"][1])]
    # the comparison must not be vacuous: the partitioned replicas really
    # jumped via checkpoints and logged digests at the jump targets
    ag_jumps = [r for r in trace.records
                if r[1] == "cp_stable" and r[2] == "ag0:3" and r[4] == "ag"]
    ex_jumps = [r for r in trace.records
                if r[1] == "cp_transfer" and r[3] == "ex3:2"]
    ex_digests = [r for r in trace.records
                  if r[1] == "state_digest" and r[2] == "ex3:2"]
    conditions.append((bool(ag_jumps), "lagging agreement replica never adopted a checkpoint"))
    conditions.append((bool(ex_jumps), "lagging execution replica never transferred state"))
    conditions.append((bool(ex_digests), "no digest points logged at the lagging replica"))
    # and state digests at matched sequence numbers appeared on both paths
    matched = 0
    points = {}
    for r in trace.records:
        if r[1] == "state_digest" and r[4] == "ex" and r[2].startswith("ex3:"):
            points.setdefault(r[6]["s"], set()).add(r[2])
    for s, who in points.items():
        if "ex3:2" in who and len(who) > 1:
            matched += 1
    conditions.append((matched > 0, "no matched digest points between paths"))
    print(f"  {matched} matched digest points at the lagging execution replica")
    conclude(10, "checkpoint path and delivery path produce equal state digests",
             conditions)


def test_every_run_survives_write_read_audit(tmp_path):
    """Every shipped scenario's trace, and every other run cached above,
    reads back from its file with equal records, digest and verdicts."""
    for name, irmc in safety_runs():
        get_run(name, irmc=irmc)  # already cached when ACCEPTANCE 2 ran first
    path = tmp_path / "run.trace"
    for key in sorted(_cache, key=str):
        system, report = _cache[key]
        trace = system.sim.trace
        assert trace.write(path) == report.trace_digest, key
        loaded = read_trace(path)
        assert loaded.records == trace.records, key
        assert loaded.digest() == report.trace_digest, key
        skip = system.cfg.fault_plan.beyond_threshold
        assert audit_trace(loaded, system.cfg, skip_liveness=skip) == report.verdicts, key
    print(f"\n  {len(_cache)} runs survive write -> read -> audit")
