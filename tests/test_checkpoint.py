"""Checkpoint component: certification, monotone delivery, state transfer,
and gossip that reaches only the members behind."""
from collections import Counter

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
from geobft.simnet import Simulator, Topology


class CpHost(ProtocolNode):
    def __init__(self, nid, sim, crypto, members, f):
        super().__init__(nid, sim, crypto)
        self.stable_calls = []
        self.cp = CheckpointComponent("ex", 1, members, f, self,
                                      on_stable=lambda s, st: self.stable_calls.append((s, st)))

    def on_payload(self, src, env):
        self.route_checkpoint(src, env)


def build_group(n=3, f=1, seed=1):
    topo = Topology(regions={"X": n}, wan_ms={}, inter_zone_ms=1.0)
    sim = Simulator(topo, seed)
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


# -- gossip: announce only to the members not known to hold the checkpoint ---

def test_gossip_row_holds_the_other_members_in_member_order():
    # a node never shows itself a checkpoint: an entry for itself would
    # stay at 0 and count it behind every stable checkpoint
    sim, hosts = build_group()
    for host in hosts:
        assert list(host.cp.shown.items()) == [
            (m, 0) for m in host.cp.members if m is not host.nid]


def announces(spy, since=0):
    """(src, dst) of every CpAnnounce sent after the first `since` sends."""
    return [(src, dst) for src, dst, env in spy.sent[since:]
            if isinstance(env.payload, CpAnnounce)]


def test_no_announce_once_every_member_voted(net_spy):
    sim, hosts = build_group()
    spy = net_spy(sim)
    for host in hosts:
        host.cp.gen_cp(10, b"ten")
    sim.run_until(5)
    assert all(host.stable_calls == [(10, b"ten")] for host in hosts)
    sim.run_until(205)  # 20 gossip ticks per replica
    assert announces(spy) == []


def test_member_that_never_voted_is_announced_to_until_it_shows_the_checkpoint(net_spy):
    sim, hosts = build_group()
    spy = net_spy(sim)
    a, b, c = hosts
    a.cp.gen_cp(10, b"ten")
    b.cp.gen_cp(10, b"ten")
    sim.run_until(55)  # c holds 10 by transfer but never voted for it
    assert c.stable_calls == [(10, b"ten")]
    # ticks at 10..50: one announce per tick from each of a and b, all to c
    assert Counter(announces(spy)) == {(a.nid, c.nid): 5, (b.nid, c.nid): 5}
    # c shows 10 to a by an announce and to b by a (late) vote
    c.send_signed(a.nid, CpAnnounce("ex", 1, 10))
    c.send_signed(b.nid, Checkpoint("ex", 1, 10, hash_bytes(b"ten")))
    since = len(spy.sent)
    sim.run_until(205)
    assert announces(spy, since) == []


def announce_targets(net_spy, noise):
    """Announces of a group where c never votes, with noise(sim, hosts, outsider)
    injected at 5 ms; the outsider is registered but not a member."""
    sim, hosts = build_group()
    outsider_id = ReplicaId("ex", 1, 3)
    provider = hosts[0].crypto.provider
    provider.register_principal(outsider_id)
    outsider = CpHost(outsider_id, sim, BoundCrypto(provider, outsider_id),
                      hosts[0].cp.members, 1)
    sim.register(outsider_id, outsider, "X", 0)
    spy = net_spy(sim)
    hosts[0].cp.gen_cp(10, b"ten")
    hosts[1].cp.gen_cp(10, b"ten")
    sim.run_until(5)
    noise(sim, hosts, outsider)
    since = len(spy.sent)
    sim.run_until(105)
    return announces(spy, since)


def test_unproven_progress_does_not_change_announce_targets(net_spy):
    vote = Checkpoint("ex", 1, 10, hash_bytes(b"ten"))

    def noisy(sim, hosts, outsider):
        a, b, c = hosts
        for host in (a, b):
            # a non-member's announce and vote
            outsider.send_signed(host.nid, CpAnnounce("ex", 1, 10))
            outsider.send_signed(host.nid, vote)
            # a member's vote signed by someone else
            c.net_send((host.nid,), vote, lambda p: (outsider.crypto.sign(p),))

    expected = announce_targets(net_spy, lambda *_: None)
    assert expected and {dst for _, dst in expected} == {ReplicaId("ex", 1, 2)}
    assert announce_targets(net_spy, noisy) == expected


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
