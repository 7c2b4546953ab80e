"""Harness-level properties: seed sweeps, report artifacts, loss recovery."""
import os
import subprocess
import sys
from pathlib import Path

import pytest

from geobft import cli
from geobft.audit import audit_trace
from geobft.harness import run_scenario
from geobft.irmc import VARIANTS
from geobft.irmc.base import Delivered, ReceiverEndpoint
from geobft.irmc.sc import ScSender
from geobft.runtime import build
from geobft.scenario import load_scenario, shipped_scenarios
from geobft.simnet import FaultPlan, NodeFault, TraceLog, read_trace
from tests.conftest import Channel


def test_ten_seed_sweep_identical_verdicts():
    verdict_sets = set()
    digests = set()
    for seed in range(1, 11):
        _, report = run_scenario("rc-vs-sc", seed)
        verdict_sets.add(tuple(sorted((k, ok) for k, (ok, _)
                                      in report.verdicts.items())))
        digests.add(report.trace_digest)
    assert len(verdict_sets) == 1
    assert all(ok for _, ok in next(iter(verdict_sets)))
    assert len(digests) == 10  # workloads genuinely differ per seed


# Behaviour guard: these runs cover MiniBFT catch-up (ObSeqInfo) and view
# change (ObNewView), checkpoint transfer (CpState), sc certificates (ChCert)
# and collector switches. A change that alters behaviour on purpose updates
# the literals and says which digests changed and why.
PINNED_DIGESTS = {
    # no checkpoint gossip timer: nodes whose first queued event was a
    # gossip tick take their event-order key at their next first event
    # agreement replicas move a request window as they take each request, so
    # the execution replicas' forward-time ChMove goes to none of them that
    # showed the move: 108 fewer ChMove cross the WAN (560 -> 452), and the
    # ch_move_call and win_move records of the agreement replicas come at
    # intake; the verdicts and the 22 completed requests are unchanged
    # an agreement replica shows a request move only once its intake waits
    # past the window it showed, and a forward moves only with a client's
    # first or a skipped counter: 198 fewer ChMove cross the WAN (452 ->
    # 254) and 184 fewer records (ch_move_call, win_move); the verdicts and
    # the 22 completed requests are unchanged (was 802f2968...)
    ("rc-vs-sc", "rc"): "e58eb6bb8d451ebe6f1f2c2143a2181f",
    # one view timer per MiniBFT replica: the two reachable replicas vote for
    # views 1-7 with a doubling timeout during the outage, not up to view 424,
    # and the healed pair joins view 7 at the next tick of their timers
    # sc claims go out on change and once per collector timeout, so the
    # collector switches after the heal come later (6,290/6,335 ms, not
    # 6,235/6,240 ms), with the same count
    # a partition no longer skips timers: the sc progress ticks of ag0:1 and
    # ag0:2 run through their partition (its claims drop there) and carry on
    # after the heal at 6,000 ms, so 558 more ChProgress cross the WAN (5,980
    # -> 6,538 messages) and 408 more net_drop records are left; the verdicts
    # and the 210 completed requests are unchanged
    # a registry query is asked again only after a round trip, so 26 fewer
    # RegistryQuery sends to the partitioned replicas leave net_drop records
    # (54 -> 28); every other record is unchanged
    # agreement replicas move a request window as they take each request: the
    # execution replicas' sc senders then see them past every claim, so 558
    # fewer ChProgress cross the WAN (3,786 -> 3,228), 30 more ChMove (1,374
    # -> 1,404) and 6 fewer ChCert (733 -> 727); the verdicts and the 210
    # completed requests are unchanged
    # request moves shown only when the intake waits past the shown window
    # (as rc-vs-sc): 522 fewer ChMove (1,404 -> 882), while the execution
    # replicas' claims now reach agreement replicas that took a request but
    # showed no move past it, so 330 more ChProgress (3,228 -> 3,558) and 4
    # more ChCert (727 -> 731); the verdicts and the 210 completed requests
    # are unchanged (was 0145e0ed...)
    # a window advance syncs the receivers still behind one progress period
    # (50 ms) later: the 42 syncs to the partitioned ag0:1 and ag0:2 leave
    # their net_drop records 50 ms later (first at 2,682.6 ms, not 2,632.6),
    # and 168 fewer ChMove cross the WAN (request syncs 192 -> 84, commit
    # syncs 96 -> 36); the record counts, the collector switches, the verdicts
    # and the 210 completed requests are unchanged (was ac2a22d4...)
    ("ag-outage", "sc"): "ee1789899fdd72b688e6b45ded939603",
    # the same cause as rc-vs-sc: 456 fewer ChMove cross the WAN (3,176 ->
    # 2,720); the verdicts, the timeline and the 357 completed requests are
    # unchanged
    # the same cause as rc-vs-sc: 810 fewer ChMove (2,720 -> 1,910); the
    # verdicts, the timeline and the 357 completed requests are unchanged
    # (was 802ba43a...)
    ("add-remove-group", "rc"): "f33af8062d946ab50e0d924883fedf96",
}

PINNED_TIMELINES = {
    ("add-remove-group", "rc"): [(2005.0, "add", 5), (6005.0, "remove", 2)],
}


@pytest.mark.parametrize("scenario,irmc", sorted(PINNED_DIGESTS))
def test_pinned_trace_digest(scenario, irmc, tmp_path):
    system, report = run_scenario(scenario, 1, irmc=irmc)
    assert report.trace_digest == PINNED_DIGESTS[(scenario, irmc)]
    assert report.reconfigurations == PINNED_TIMELINES.get((scenario, irmc), [])
    # the digest is over the written lines, so the file reproduces it
    trace = system.sim.trace
    trace.write(tmp_path / "run.trace")
    loaded = read_trace(tmp_path / "run.trace")
    assert loaded.digest() == report.trace_digest
    skip = system.cfg.fault_plan.beyond_threshold
    assert audit_trace(loaded, system.cfg, skip_liveness=skip) == report.verdicts


# Runs whose sends go through Byzantine adapters: an equivocating client and
# equivocate-send, garbage-inject, withhold and lying-collector replicas.
# The digest does not see authenticator bytes, so the WAN byte total is
# pinned beside it.
PINNED_ADAPTED = {
    # no checkpoint gossip timer (new event-order keys, no announces to the
    # withholding members); client c5's first registry answers arrive at the
    # instant of its retry timer and are now taken after it, so one more
    # query round crosses the WAN
    # a registry query is asked again only after a round trip: each resolve
    # sends 4 queries (c5 sent 16), so fewer registry bytes cross the WAN
    # (same digest; was 1619530, 1411292 and 1671423 for the three below)
    # agreement replicas move a request window as they take each request, so
    # the execution replicas' forward-time ChMove goes to none of them that
    # showed the move: 476 fewer ChMove cross the WAN (2,677 -> 2,201; was
    # a2dc9207..., 1608118)
    # request moves shown only when an intake waits past the shown window,
    # and forward moves only for first or skipped counters: 737 fewer ChMove
    # (2,201 -> 1,464; was 7cba6622..., 1559090)
    # syncs one progress period after a window advance, only to receivers
    # still behind: 235 fewer ChMove (request 322 -> 183, commit 171 -> 75);
    # same digest (was 1483179)
    ("spider", "rc"): ("2087108dc21ade6fc9cb9af7f6d61601", 1458686),
    # same digest; fewer sc progress claims cross the WAN (was 1848622)
    # the same cause as spider rc: 448 fewer ChMove, 326 fewer ChProgress to
    # agreement replicas that showed they took every claimed request, and 7
    # fewer ChCert (was 266ade0f..., 1401782)
    # the same cause as spider rc: 722 fewer ChMove and 3 fewer ChCert, and
    # 208 more ChProgress to agreement replicas that took a request but
    # showed no move past it; the withholding ag0:2 switches collector 25
    # times, not 4 (was 072a13bd..., 1314975)
    # the same cause as spider rc: 221 fewer ChMove (request 300 -> 175,
    # commit 162 -> 66); the withholding ag0:2 switches collector 24 times,
    # not 25, with the same 24 TooOlds (was 22898014..., 1257338)
    ("spider", "sc"): ("7b46f5f8d40093ab3c8416a3fbeba8b4", 1234287),
    # the same causes; 476 fewer ChMove (was 6c79e167..., 1660011)
    # the same cause as spider rc: 737 fewer ChMove (2,242 -> 1,505; was
    # 73039203..., 1610983)
    # the same cause as spider rc: 241 fewer ChMove (request 322 -> 183,
    # commit 180 -> 78); same digest (was 1535072)
    ("oracle", "rc"): ("5f4ba04c2906b468dd0e4a32b450f8b2", 1509943),
    # the equivocating client's rewritten requests take the flat client path
    ("flat-bft", "rc"): ("866aa714f3e1d1d221e790938679253d", 296447),
}


@pytest.mark.parametrize("mode,irmc", sorted(PINNED_ADAPTED))
def test_pinned_byzantine_send_paths(mode, irmc):
    _, report = run_scenario("threshold-faults", 1, mode=mode, irmc=irmc)
    assert (report.trace_digest, report.wan_bytes) == PINNED_ADAPTED[(mode, irmc)]
    assert report.ok, report.verdicts


@pytest.mark.parametrize("scenario,irmc,cls,tick,node,period,kind", [
    # the sc progress ticks of an agreement replica cut off 2,500-6,000 ms
    ("ag-outage", "sc", ScSender, "_progress_tick", "ag0:1", 50.0, "ChProgress"),
    # the retransmit ticks of an execution replica cut off 1,500-5,000 ms
    ("flow-control-z0", "rc", ReceiverEndpoint, "_retransmit", "ex4:0", 250.0, "ChMove"),
])
def test_partitioned_node_ticks_on_through_the_run(scenario, irmc, cls, tick, node, period,
                                                   kind, monkeypatch):
    """A partition cuts a node's links, not its clock: a periodic tick of a
    partitioned node runs at every period to the end of the run, and its
    sends reach the peers again after the heal."""
    ticks = []
    original = getattr(cls, tick)

    def logged(endpoint):
        if str(endpoint.node.nid) == node:
            ticks.append(endpoint.node.sim.now)
        original(endpoint)

    monkeypatch.setattr(cls, tick, logged)
    cfg = load_scenario(scenario)
    system = build(cfg, 1, irmc=irmc)
    sent = []
    send = system.sim.send

    def spy_send(src, dst, env, channel=None):
        if str(src) == node and type(env.payload).__name__ == kind:
            sent.append(system.sim.now)
        send(src, dst, env, channel)

    monkeypatch.setattr(system.sim, "send", spy_send)
    system.run()
    (fault,) = [f for nid, f in cfg.fault_plan.faults.items() if str(nid) == node]
    assert fault.kind == "partition"
    steps = int(cfg.duration_ms // period)
    assert sorted(set(ticks)) == [period * k for k in range(1, steps + 1)]
    assert any(t >= fault.until_ms for t in sent)


@pytest.mark.parametrize("scenario", shipped_scenarios())
def test_flat_bft_run_passes_every_auditor(scenario):
    """The paper's comparison point passes every auditor wherever the spider
    runs do (ACCEPTANCE 2 runs the same scenarios in spider mode). Flat
    replicas are agreement-role ids: the auditors count them as executors,
    tell a batch's requests apart by idx, and see their weak reads served."""
    _, report = run_scenario(scenario, 1, mode="flat-bft")
    assert report.ok, report.verdicts
    if scenario in ("four-regions-reads", "threshold-faults"):
        for check in ("replay", "weak_reads"):
            assert not report.verdicts[check][1].startswith("0 "), report.verdicts


@pytest.mark.parametrize("seed", range(2, 11))
def test_flat_bft_leader_crash_stays_live(seed):
    """One view timer per replica, doubling per fruitless view change,
    settles the view after the leader crash at every seed (seed 1 runs
    above), so no strong request is left unresolved."""
    _, report = run_scenario("leader-crash", seed, mode="flat-bft")
    assert report.ok, report.verdicts


def test_out_run_formats_the_trace_once(monkeypatch, tmp_path):
    """run --out hashes the lines as it writes them: one formatting pass."""
    formatted = []
    lines = TraceLog.lines

    def counted(trace):
        formatted.append(1)
        return lines(trace)

    monkeypatch.setattr(TraceLog, "lines", counted)
    system, report = run_scenario("rc-vs-sc", 1, irmc="rc", out_dir=tmp_path)
    assert len(formatted) == 1
    (path,) = tmp_path.glob("*.trace")
    assert report.trace_digest == PINNED_DIGESTS[("rc-vs-sc", "rc")]
    assert report.trace_digest == system.sim.trace.digest() == read_trace(path).digest()
    assert system.sim.trace.write(tmp_path / "again.trace") == report.trace_digest


def test_run_reads_the_trace_four_times(monkeypatch):
    """At most four; three today: the audit view's grouping (which the
    latencies, the accept count and the registry updates read too),
    check_agreement_safety, and the digest over the written lines."""
    passes = []

    class CountingList(list):
        def __iter__(self):
            passes.append(1)
            return super().__iter__()

    original = TraceLog.__init__

    def counted_init(self):
        original(self)
        self.records = CountingList()

    monkeypatch.setattr(TraceLog, "__init__", counted_init)
    _, report = run_scenario("rc-vs-sc", 1)
    assert report.completed > 0
    assert len(passes) <= 4


def test_run_writes_trace_and_report(tmp_path):
    _, report = run_scenario("rc-vs-sc", 3, out_dir=tmp_path)
    trace_file = tmp_path / "rc-vs-sc-spider-rc-3.trace"
    report_file = tmp_path / "rc-vs-sc-spider-rc-3.report.txt"
    assert trace_file.exists() and report_file.exists()
    text = report_file.read_text()
    assert "region,op,n,p50,p90" in text
    assert "[PASS]" in text


def test_report_is_pure_function_of_run():
    _, a = run_scenario("rc-vs-sc", 7)
    _, b = run_scenario("rc-vs-sc", 7)
    assert a.to_text() == b.to_text()


def test_report_and_sweep_show_wide_area_messages_per_request(capsys):
    _, report = run_scenario("rc-vs-sc", 2)
    per_request = sum(report.wan_messages.values()) / report.completed
    assert report.wan_per_request == per_request
    assert f"wide-area messages per completed request: {per_request:.2f}\n" \
        in report.to_text()
    assert cli.main(["sweep", "rc-vs-sc", "--seeds", "2..2"]) == 0
    (line, _) = capsys.readouterr().out.splitlines()
    assert f"  wan/req={per_request:.2f}  " in line


@pytest.mark.parametrize("variant", ["rc", "sc"])
def test_lossy_links_recover_with_retransmission(variant):
    from geobft.core import ReplicaId
    plan = FaultPlan()
    for i in range(3):
        plan.faults[ReplicaId("ex", 1, i)] = NodeFault(
            "lossy", at_ms=0.0, until_ms=400.0, rate=0.4)
    plan.beyond_threshold = True
    ch = Channel(variant, fault_plan=plan, seed=12)
    ch.cfg = ch.cfg.__class__(**{**ch.cfg.__dict__, "retransmit_ms": 50.0})
    # rebuild endpoints with retransmission enabled
    sender_cls, receiver_cls = VARIANTS[variant]
    for node in ch.nodes.values():
        cls = sender_cls if node.nid.role == "ex" else receiver_cls
        node.endpoint = cls(ch.cfg, node)
    got = {}
    for p in (1, 2):
        for node in ch.nodes.values():
            if node.nid.role == "ex":
                node.endpoint.send(0, p, b"m%d" % p)
            else:
                node.endpoint.receive(0, p, got.setdefault((node.nid, p), []).append)
    ch.run(3000)
    resolved = [outs for outs in got.values() if outs]
    assert len(resolved) == len(got)
    assert all(isinstance(outs[0], Delivered) for outs in resolved)


_SCENARIO_DIGEST = (
    "import sys\n"
    "from geobft.harness import run_scenario\n"
    "_, report = run_scenario(sys.argv[1], int(sys.argv[2]), mode=sys.argv[3],\n"
    "                         irmc=sys.argv[4])\n"
    "print(report.trace_digest)\n"
)
# one f=2 sc conformance schedule, whose senders pick progress-claim
# receivers from their move tables
_SCHEDULE_DIGEST = (
    "from geobft.irmc import ScReceiver, ScSender, conformance\n"
    "digests = []\n"
    "audit = conformance.audit_schedule\n"
    "def capture(trace, *args):\n"
    "    digests.append(trace.digest())\n"
    "    return audit(trace, *args)\n"
    "conformance.audit_schedule = capture\n"
    "factory = conformance.make_factory(ScSender, ScReceiver)\n"
    "assert conformance.run_schedule(factory, 2, 2, seed=1002) == []\n"
    "print(digests[0])\n"
)
_DIGEST_RUNS = {
    "rc": (_SCENARIO_DIGEST, "rc-vs-sc", "4", "spider", "rc"),
    "sc": (_SCENARIO_DIGEST, "rc-vs-sc", "4", "spider", "sc"),
    # retransmitted window moves go to the receivers behind them
    "flow-control-z0-rc": (_SCENARIO_DIGEST, "flow-control-z0", "2", "spider", "rc"),
    # lagging members catch up by checkpoint certificate and state transfer
    "lag-catchup-rc": (_SCENARIO_DIGEST, "lag-catchup", "1", "spider", "rc"),
    # flat replicas and the equivocating client share the contact path
    "threshold-faults-flat-bft": (_SCENARIO_DIGEST, "threshold-faults", "1",
                                  "flat-bft", "rc"),
    "sc-schedule-f2": (_SCHEDULE_DIGEST,),
}


@pytest.mark.parametrize("variant", sorted(_DIGEST_RUNS))
def test_trace_digest_independent_of_hash_seed(variant):
    """Same (scenario, seed), fresh interpreters with different string
    hashing: the traces must be byte-identical."""
    src = str(Path(__file__).resolve().parents[1] / "src")
    script, *args = _DIGEST_RUNS[variant]
    digests = set()
    for hashseed in ("1", "4242"):
        env = {**os.environ, "PYTHONHASHSEED": hashseed,
               "PYTHONPATH": src + os.pathsep + os.environ.get("PYTHONPATH", "")}
        out = subprocess.run([sys.executable, "-c", script, *args],
                             env=env, capture_output=True, text=True, check=True)
        digests.add(out.stdout.strip())
    assert len(digests) == 1 and "" not in digests, digests


def test_flow_control_stall_recovers_under_sc_channels():
    system, report = run_scenario("flow-control-z0", 2, irmc="sc")
    assert report.ok, report.verdicts
    deliv = [r for r in system.sim.trace.records
             if r[1] == "order_deliver" and r[2] == "ag0:0"]
    plateau = max(r[6]["s"] for r in deliv if r[0] <= 5000)
    final = max(r[6]["s"] for r in deliv)
    assert final > plateau + 20
