"""Checkpoint component: certification, monotone delivery, state transfer,
and catch-up by the next round's certificate."""
import pytest

from geobft.agreement import COMMIT_CAPACITY, AgreementReplica
from geobft.checkpoint import CheckpointComponent
from geobft.core import (
    BoundCrypto,
    CryptoProvider,
    GroupKey,
    ReplicaId,
    canonical_decode,
    hash_bytes,
)
from geobft.core.messages import Checkpoint, CpAnnounce, CpState
from geobft.harness import run_scenario
from geobft.protocol import ProtocolNode
from geobft.runtime import build
from geobft.scenario import load_scenario
from geobft.simnet import FaultPlan, NodeFault, Simulator, Topology


class CpHost(ProtocolNode):
    def __init__(self, nid, sim, crypto, members, f):
        super().__init__(nid, sim, crypto)
        self.stable_calls = []
        self.cp = CheckpointComponent("ex", 1, members, f, self,
                                      on_stable=lambda s, st: self.stable_calls.append((s, st)))

    def on_payload(self, src, env):
        self.route_checkpoint(src, env)


def build_group(n=3, f=1, seed=1, fault_plan=None):
    topo = Topology(regions={"X": n}, wan_ms={}, inter_zone_ms=1.0)
    sim = Simulator(topo, seed, fault_plan)
    provider = CryptoProvider()
    members = tuple(ReplicaId("ex", 1, i) for i in range(n))
    provider.register_group(GroupKey("ex", 1), members)
    hosts = []
    for i, nid in enumerate(members):
        host = CpHost(nid, sim, BoundCrypto(provider, nid), members, f)
        sim.register(nid, host, "X", i)
        hosts.append(host)
    return sim, hosts


def test_three_correct_checkpoints_become_stable_everywhere():
    sim, hosts = build_group()
    state = b"state-at-10"
    for host in hosts:
        host.cp.gen_cp(10, state)
    sim.run_until(100)
    for host in hosts:
        assert host.stable_calls == [(10, state)]


def test_wrong_digest_never_certifies():
    sim, hosts = build_group()
    state = b"state-at-10"
    hosts[0].cp.gen_cp(10, state)
    hosts[1].cp.gen_cp(10, state)
    hosts[2].cp.gen_cp(10, b"divergent")  # faulty snapshot
    sim.run_until(200)
    for host in hosts[:2]:
        assert host.stable_calls == [(10, state)]
        # the divergent digest never got f+1 votes
        assert all(st == state for _, st in host.stable_calls)


def test_older_checkpoint_superseded():
    sim, hosts = build_group()
    for host in hosts:
        host.cp.gen_cp(10, b"ten")
    sim.run_until(50)
    for host in hosts:
        host.cp.gen_cp(5, b"five")
    sim.run_until(150)
    for host in hosts:
        assert host.stable_calls == [(10, b"ten")]


def test_certificate_without_state_fetches_from_signer():
    sim, hosts = build_group()
    # host 2 never creates its own snapshot but hears the votes
    hosts[0].cp.gen_cp(10, b"ten")
    hosts[1].cp.gen_cp(10, b"ten")
    sim.run_until(300)
    assert hosts[2].stable_calls == [(10, b"ten")]
    transfers = [r for r in sim.trace.events("cp_transfer")]
    assert transfers


def test_own_snapshot_after_peers_certified_delivers_without_transfer():
    sim, hosts = build_group()
    a, b, c = hosts
    a.cp.gen_cp(10, b"ten")
    b.cp.gen_cp(10, b"ten")
    sim.run_until(1.5)  # c holds the certificate; its query is under way
    assert 10 in c.cp.stable and c.stable_calls == []
    c.cp.gen_cp(10, b"divergent")  # a snapshot off the certified digest waits
    assert c.stable_calls == []
    c.cp.gen_cp(10, b"ten")
    assert c.stable_calls == [(10, b"ten")]
    sim.run_until(100)
    assert c.stable_calls == [(10, b"ten")]
    assert sim.trace.events("cp_transfer") == []  # the late transfer is ignored


def test_lying_state_server_rejected_then_honest_one_serves():
    sim, hosts = build_group()
    hosts[0].cp.gen_cp(10, b"ten")
    hosts[1].cp.gen_cp(10, b"ten")
    sim.run_until(2)  # votes out, state not yet transferred to host 2
    cert = hosts[0].cp.stable[10][1]
    # a transfer whose state does not match the certified digest is dropped
    bad = CpState("ex", 1, 10, b"lies", cert)
    hosts[2].cp.on_state(hosts[0].nid, bad, hosts[2].group_members_of)
    assert hosts[2].stable_calls == []
    good = CpState("ex", 1, 10, b"ten", cert)
    hosts[2].cp.on_state(hosts[1].nid, good, hosts[2].group_members_of)
    assert hosts[2].stable_calls == [(10, b"ten")]


def test_fetch_polls_until_available():
    sim, hosts = build_group()
    hosts[2].cp.fetch_cp(8)
    sim.run_until(100)
    assert hosts[2].stable_calls == []
    for host in hosts[:2]:
        host.cp.gen_cp(10, b"ten")
    sim.run_until(400)
    assert hosts[2].stable_calls == [(10, b"ten")]


def test_fetch_started_in_a_partition_finishes_after_the_heal():
    """The fetch poll runs through the fetching replica's partition (its
    queries drop), so the first poll after the heal gets the state."""
    c_id = ReplicaId("ex", 1, 2)
    sim, hosts = build_group(
        fault_plan=FaultPlan({c_id: NodeFault("partition", 0.0, 60.0)}))
    for host in hosts[:2]:
        host.cp.gen_cp(10, b"ten")  # certified while c is cut off
    hosts[2].cp.fetch_cp(8)
    sim.run_until(55.0)
    assert hosts[2].stable_calls == [] and hosts[2].cp.fetching == 8
    sim.run_until(100.0)
    assert hosts[2].stable_calls == [(10, b"ten")]
    assert hosts[2].cp.fetching is None


def test_delivery_is_monotone_per_replica():
    sim, hosts = build_group()
    for host in hosts:
        host.cp.gen_cp(10, b"ten")
    sim.run_until(100)
    for host in hosts:
        host.cp.gen_cp(20, b"twenty")
    sim.run_until(200)
    for host in hosts:
        assert host.stable_calls == [(10, b"ten"), (20, b"twenty")]
        assert host.cp.latest_stable() == 20


# -- catch-up: by the next round's certificate, announces only to stale votes --

def announces(spy, since=0):
    """(src, dst) of every CpAnnounce sent after the first `since` sends."""
    return [(src, dst) for src, dst, env in spy.sent[since:]
            if isinstance(env.payload, CpAnnounce)]


def test_component_arms_no_timer_but_the_fetch_poll(monkeypatch):
    armed = []
    for name in ("after", "every"):
        arm = getattr(Simulator, name)

        def recording(sim, owner, delay, fn, arm=arm):
            armed.append(fn.__qualname__)
            arm(sim, owner, delay, fn)
        monkeypatch.setattr(Simulator, name, recording)
    sim, hosts = build_group()
    for host in hosts:
        host.cp.gen_cp(10, b"ten")
    sim.run_until(100)
    assert armed == []
    hosts[2].cp.fetch_cp(20)
    sim.run_until(160)
    assert armed and set(armed) == {"CheckpointComponent._poll"}


def test_no_announce_once_every_member_voted(net_spy):
    sim, hosts = build_group()
    spy = net_spy(sim)
    for host in hosts:
        host.cp.gen_cp(10, b"ten")
    sim.run_until(5)
    assert all(host.stable_calls == [(10, b"ten")] for host in hosts)
    sim.run_until(205)
    assert announces(spy) == []


def test_member_partitioned_through_a_round_adopts_the_next_by_certificate(net_spy):
    c_id = ReplicaId("ex", 1, 2)
    sim, hosts = build_group(
        fault_plan=FaultPlan({c_id: NodeFault("partition", 0.0, 50.0)}))
    spy = net_spy(sim)
    a, b, c = hosts
    a.cp.gen_cp(10, b"ten")
    b.cp.gen_cp(10, b"ten")
    sim.run_until(300)  # healed at 50: c hears of round 10 from no one
    assert c.stable_calls == []
    # c has not reached 20 itself: it holds the certificate, not the state
    a.cp.gen_cp(20, b"twenty")
    b.cp.gen_cp(20, b"twenty")
    sim.run_until(400)
    assert c.stable_calls == [(20, b"twenty")]
    assert [(r[3], r[6]["s"]) for r in sim.trace.events("cp_transfer")] == [(str(c_id), 20)]
    assert announces(spy) == []


def test_stale_vote_gets_one_announce_and_a_current_vote_none(net_spy):
    c_id = ReplicaId("ex", 1, 2)
    sim, hosts = build_group(
        fault_plan=FaultPlan({c_id: NodeFault("partition", 0.0, 50.0)}))
    spy = net_spy(sim)
    a, b, c = hosts
    for s, state in ((10, b"ten"), (20, b"twenty")):
        a.cp.gen_cp(s, state)
        b.cp.gen_cp(s, state)
    sim.run_until(60)
    # c reached 10 by itself after the heal: its vote is a round behind
    c.cp.gen_cp(10, b"ten")
    sim.run_until(100)
    sent = [(src, dst, env.payload) for src, dst, env in spy.sent
            if isinstance(env.payload, CpAnnounce)]
    assert sent == [(a.nid, c.nid, CpAnnounce("ex", 1, 20)),
                    (b.nid, c.nid, CpAnnounce("ex", 1, 20))]
    assert c.stable_calls == [(20, b"twenty")]  # queried on the announce
    since = len(spy.sent)
    # a vote at a's latest stable sequence, then a round everyone votes in
    c.send_signed(a.nid, Checkpoint("ex", 1, 20, hash_bytes(b"twenty")))
    sim.run_until(150)
    for host in hosts:
        host.cp.gen_cp(30, b"thirty")
    sim.run_until(250)
    assert all(host.stable_calls[-1] == (30, b"thirty") for host in hosts)
    assert announces(spy, since) == []


def test_unproven_stale_vote_gets_no_reply(net_spy):
    """A stale vote from a non-member, or a member's vote signed by someone
    else, is dropped before the stale-vote rule: no announce answers it."""
    sim, hosts = build_group()
    a, b, c = hosts
    outsider_id = ReplicaId("ex", 1, 3)
    provider = a.crypto.provider
    provider.register_principal(outsider_id)
    outsider = CpHost(outsider_id, sim, BoundCrypto(provider, outsider_id),
                      a.cp.members, 1)
    sim.register(outsider_id, outsider, "X", 0)
    for host in hosts:
        host.cp.gen_cp(20, b"twenty")
    sim.run_until(50)
    spy = net_spy(sim)
    vote = Checkpoint("ex", 1, 10, hash_bytes(b"ten"))
    outsider.send_signed(a.nid, vote)
    c.net_send((a.nid,), vote, lambda p: (outsider.crypto.sign(p),))
    sim.run_until(100)
    assert announces(spy) == []
    c.send_signed(a.nid, vote)  # the same vote, proven: one reply
    sim.run_until(150)
    assert announces(spy) == [(a.nid, c.nid)]


@pytest.mark.parametrize("scenario", ["leader-crash", "f2-sizing", "threshold-faults"])
def test_silent_members_get_no_announce(scenario):
    """A crashed leader and withholding members never vote, so nothing is
    announced to them."""
    system, report = run_scenario(scenario, 1, irmc="rc")
    assert system.sim.trace.events("cp_stable")
    assert [k for k in system.sim.counters.msgs if k[0] == "CpAnnounce"] == []
    assert report.ok, report.verdicts


def test_all_correct_run_sends_no_announce():
    system, report = run_scenario("four-regions-writes", 1, irmc="rc")
    trace = system.sim.trace
    assert trace.events("cp_stable")  # checkpoints did become stable
    assert [k for k in system.sim.counters.msgs if k[0] == "CpAnnounce"] == []
    assert [r for r in trace.events("net_drop") if r[4] == "CpAnnounce"] == []
    assert all(ok for ok, _ in report.verdicts.values())


@pytest.mark.parametrize("irmc", ["rc", "sc"])
def test_stable_agreement_history_is_the_delivered_tail(irmc, monkeypatch):
    """on_stable_agreement_cp moves the commit channels to s - min(s,
    COMMIT_CAPACITY) + 1 without decoding the state: it holds the history
    of exactly the sequences max(1, s - 31)..s. lag-catchup's replicas
    also jump to a transferred state."""
    stable = []
    on_stable = AgreementReplica.on_stable_agreement_cp

    def recording(replica, s, state):
        stable.append((s, state, s > replica.s_n))
        on_stable(replica, s, state)

    monkeypatch.setattr(AgreementReplica, "on_stable_agreement_cp", recording)
    run_scenario("lag-catchup", 1, irmc=irmc)
    assert any(jumped for _, _, jumped in stable)
    for s, state, _ in stable:
        cp_s, _, hist, _, _ = canonical_decode(state)
        assert cp_s == s
        assert [hs for hs, _ in hist] == list(range(max(1, s - COMMIT_CAPACITY + 1), s + 1))


def _parked_agreement_replica():
    """four-regions-writes with the checkpoint votes to agreement replica 3
    withheld until it parks sequence 21 (with no stable checkpoint its
    window is 1..AG_WIN) and its three peers hold stable checkpoint 30."""
    system = build(load_scenario("four-regions-writes"), 1)
    sim = system.sim
    x = system.agreement[3]
    held = []
    x.cp.on_checkpoint_msg = lambda src, msg, sig: held.append((src, msg, sig))
    processed = []
    process = x._process_delivery

    def recording(s, batch, done):
        processed.append(s)
        process(s, batch, done)

    x._process_delivery = recording
    for t in range(10, 2000, 10):
        sim.run_until(t)
        if x._parked and min(a.cp.latest_stable() for a in system.agreement[:3]) >= 30:
            break
    assert (x._parked[0], x.s_n, x.cp.latest_stable()) == (21, 20, 0)
    del x.cp.on_checkpoint_msg  # votes reach the component again
    return system, x, held, processed, t


def test_parked_delivery_resumes_when_the_window_moves():
    system, x, held, processed, t = _parked_agreement_replica()
    for vote in held:  # the withheld round-10 votes move the window first
        x.cp.on_checkpoint_msg(*vote)
    system.sim.run_until(t + 200)
    assert x._parked is None and 21 in processed
    assert [r for r in system.sim.trace.events("cp_transfer") if r[3] == str(x.nid)] == []
    assert x.s_n == max(a.s_n for a in system.agreement)


def test_parked_delivery_is_dropped_when_a_checkpoint_jump_covers_it():
    system, x, held, processed, t = _parked_agreement_replica()
    top = max(msg.s for _, msg, _ in held)
    for vote in held:  # only the newest round: x certifies it without state
        if vote[1].s == top:
            x.cp.on_checkpoint_msg(*vote)
    system.sim.run_until(t + 200)
    assert x._parked is None and 21 not in processed
    jumps = [r[6]["s"] for r in system.sim.trace.events("cp_transfer") if r[3] == str(x.nid)]
    assert jumps == [top] and top >= 30
    assert x.s_n == max(a.s_n for a in system.agreement)
