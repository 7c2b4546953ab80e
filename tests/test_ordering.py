"""Agreement black-box contract for both implementations."""
import random

import pytest

from geobft.core import BoundCrypto, ClientId, CryptoProvider, ReplicaId
from geobft.core.messages import OracleSubmit, Request, Write
from geobft.ordering import MiniBft, SequencerOracle
from geobft.protocol import ProtocolNode
from geobft.simnet import FaultPlan, NodeFault, Simulator, Topology


class OrderHost(ProtocolNode):
    def __init__(self, nid, sim, crypto, authorized, make):
        super().__init__(nid, sim, crypto, authorized=authorized)
        self.ordering = make(self)
        self.delivered = []
        self.ordering.deliver_handler = self._deliver
        self.block_next = False
        self.release = None

    def _deliver(self, s, batch, done):
        self.delivered.append((s, batch))
        if self.block_next:
            self.release = done
        else:
            done()

    def on_payload(self, src, env):
        self.ordering.handle(src, env.payload, env.first_sig())


def build_group(kind="minibft", n=4, f=1, seed=1, plan=None, jitter=0.0,
                view_timeout=16.0):
    topo = Topology(regions={"X": n}, wan_ms={}, inter_zone_ms=1.0,
                    jitter_ms=jitter)
    sim = Simulator(topo, seed, plan)
    provider = CryptoProvider()
    members = tuple(ReplicaId("ag", 0, i) for i in range(n))
    client = ClientId(0)
    provider.register_principal(client)
    for nid in members:
        provider.register_principal(nid)

    hosts = []
    for i, nid in enumerate(members):
        def make(node):
            if kind == "oracle":
                return SequencerOracle(node, members, f)
            return MiniBft(node, members, f, view_timeout_ms=view_timeout)
        host = OrderHost(nid, sim, BoundCrypto(provider, nid), {client}, make)
        sim.register(nid, host, "X", i)
        hosts.append(host)
    return sim, hosts, provider, client


def make_request(provider, client, t_c, op=b"op"):
    w = Write(op, client, t_c)
    return Request(w, provider.sign(client, w), 1)


@pytest.mark.parametrize("kind", ["minibft", "oracle"])
def test_all_correct_replicas_deliver(kind):
    sim, hosts, provider, client = build_group(kind)
    req = make_request(provider, client, 1)
    for host in hosts:
        host.ordering.order(req)
    sim.run_until(500)
    for host in hosts:
        assert len(host.delivered) == 1
        s, batch = host.delivered[0]
        assert s == 1 and req in batch


@pytest.mark.parametrize("kind", ["minibft", "oracle"])
def test_invalid_authenticator_dropped(kind):
    sim, hosts, provider, client = build_group(kind)
    w = Write(b"op", client, 1)
    forged = Request(w, provider.sign(ReplicaId("ag", 0, 0), w), 1)
    for host in hosts:
        host.ordering.order(forged)
    sim.run_until(500)
    assert all(host.delivered == [] for host in hosts)


def test_concurrent_requests_same_relative_order():
    # A-Safety under randomized delivery jitter, many schedules
    for seed in range(20):
        sim, hosts, provider, client2 = build_group("minibft", seed=seed,
                                                    jitter=3.0)
        reqs = [make_request(provider, ClientId(0), t, b"op%d" % t)
                for t in range(1, 6)]
        rng = random.Random(seed)
        for req in reqs:
            for host in rng.sample(hosts, len(hosts)):
                host.after(rng.uniform(0, 10), lambda h=host, r=req: h.ordering.order(r))
        sim.run_until(2000)
        logs = [[(s, h.ordering.node.crypto.digest(b)) for s, b in h.delivered]
                for h in hosts]
        for log in logs[1:]:
            assert log == logs[0]
        assert len(logs[0]) >= 1


def test_duplicate_order_calls_deliver_once():
    sim, hosts, provider, client = build_group()
    req = make_request(provider, client, 1)
    for _ in range(3):
        for host in hosts:
            host.ordering.order(req)
    sim.run_until(500)
    for host in hosts:
        assert len(host.delivered) == 1


def test_blocking_deliver_holds_back_next():
    sim, hosts, provider, client = build_group()
    target = hosts[0]
    target.block_next = True
    for t in (1, 2):
        req = make_request(provider, client, t, b"op%d" % t)
        for host in hosts:
            host.ordering.order(req)
    sim.run_until(500)
    assert len(target.delivered) == 1  # second delivery waits on done()
    target.release()
    sim.run_until(600)
    assert len(target.delivered) == 2


def test_gc_forgets_and_reproposes_at_fresh_sequence():
    sim, hosts, provider, client = build_group()
    req = make_request(provider, client, 1)
    for host in hosts:
        host.ordering.order(req)
    sim.run_until(200)
    for host in hosts:
        host.ordering.gc(11)
    for host in hosts:
        host.ordering.order(req)
    sim.run_until(800)
    for host in hosts:
        later = [s for s, _ in host.delivered if s >= 11]
        assert later and min(s for s, _ in host.delivered[1:] or [(11, ())]) >= 11
        assert all(s >= 11 or (s, None) == (host.delivered[0][0], None)
                   for s, _ in host.delivered)


def test_leader_crash_view_change_resumes():
    plan = FaultPlan()
    plan.faults[ReplicaId("ag", 0, 0)] = NodeFault("crash", at_ms=100.0)
    sim, hosts, provider, client = build_group(plan=plan)
    pre = make_request(provider, client, 1)
    for host in hosts:
        host.ordering.order(pre)
    sim.run_until(90)
    before = {h.nid: list(h.delivered) for h in hosts[1:]}
    post = make_request(provider, client, 2, b"after-crash")
    sim.after(hosts[1].nid, 50, lambda: [h.ordering.order(post) for h in hosts[1:]])
    sim.run_until(2000)
    for host in hosts[1:]:
        assert host.ordering.view > 0
        # nothing already delivered changed value
        assert host.delivered[: len(before[host.nid])] == before[host.nid]
        assert any(post in batch for _, batch in host.delivered)


def test_no_view_change_under_correct_leader():
    sim, hosts, provider, client = build_group()
    for t in range(1, 8):
        req = make_request(provider, client, t, b"op%d" % t)
        for host in hosts:
            sim.after(host.nid, t * 5.0, lambda h=host, r=req: h.ordering.order(r))
    sim.run_until(3000)
    assert all(host.ordering.view == 0 for host in hosts)


def test_oracle_and_minibft_contract_equivalent_multisets():
    delivered = {}
    for kind in ("minibft", "oracle"):
        sim, hosts, provider, client = build_group(kind)
        for t in range(1, 6):
            req = make_request(provider, client, t, b"op%d" % t)
            for host in hosts:
                host.ordering.order(req)
        sim.run_until(1000)
        payloads = sorted(
            provider.sign(client, r.inner).digest.hex()
            for _, batch in hosts[0].delivered for r in batch)
        delivered[kind] = payloads
    assert delivered["minibft"] == delivered["oracle"]


def _votes(sim):
    """node -> [(time, view)] of its view_change_vote records."""
    votes = {}
    for t, kind, node, *_, data in sim.trace.records:
        if kind == "view_change_vote":
            votes.setdefault(node, []).append((t, data["view"]))
    return votes


def _crashed_at_start(*indices):
    plan = FaultPlan()
    for i in indices:
        plan.faults[ReplicaId("ag", 0, i)] = NodeFault("crash", at_ms=0.0)
    return plan


def _delivered_all(host, reqs):
    return sorted(r.inner.t_c for _, batch in host.delivered for r in batch) == \
        sorted(r.inner.t_c for r in reqs)


def test_one_view_change_vote_per_replica_not_per_pending_request():
    """Six requests pending behind a crashed leader share one view timer:
    each correct replica votes once, when it expires, and settles in view 1."""
    sim, hosts, provider, client = build_group(plan=_crashed_at_start(0))
    reqs = [make_request(provider, client, t, b"op%d" % t) for t in range(1, 7)]
    for host in hosts[1:]:
        for req in reqs:
            host.ordering.order(req)
    sim.run_until(1000)
    assert _votes(sim) == {str(h.nid): [(16.0, 1)] for h in hosts[1:]}
    for host in hosts[1:]:
        assert host.ordering.view == 1
        assert _delivered_all(host, reqs)


def test_purge_drops_covered_requests_and_times_the_next():
    """A checkpoint jump purges the pending requests it covers: the purged
    request is never ordered, and the view timer restarts on the next one."""
    sim, hosts, provider, client = build_group(plan=_crashed_at_start(0))
    covered, fresh = (make_request(provider, client, t, b"op%d" % t) for t in (1, 2))
    for host in hosts[1:]:
        host.ordering.order(covered)
        host.ordering.order(fresh)
    sim.run_until(5)
    for host in hosts[1:]:
        host.ordering.purge_pending(lambda req: req.inner.t_c > 1)
        assert list(host.ordering.pending.values()) == [fresh]
    sim.run_until(1000)
    assert _votes(sim) == {str(h.nid): [(21.0, 1)] for h in hosts[1:]}
    for host in hosts[1:]:
        assert [r for _, batch in host.delivered for r in batch] == [fresh]


def test_view_timer_doubles_past_a_crashed_next_leader():
    """n=7, f=2, the leaders of views 0 and 1 crashed: the replicas vote for
    view 1 one timeout after their requests arrive, for view 2 one doubled
    timeout later, and deliver in view 2. The vote for view 2 is also what
    a replica that voted into a dead view re-sends its way out with."""
    sim, hosts, provider, client = build_group(n=7, f=2, plan=_crashed_at_start(0, 1))
    reqs = [make_request(provider, client, t, b"op%d" % t) for t in range(1, 4)]
    for host in hosts[2:]:
        host.after(10.0, lambda h=host: [h.ordering.order(r) for r in reqs])
    sim.run_until(1000)
    assert _votes(sim) == {str(h.nid): [(26.0, 1), (58.0, 2)] for h in hosts[2:]}
    adopted = [t for t, kind, *_ in sim.trace.records if kind == "view_change"]
    assert len(adopted) == 5 and all(58.0 < t <= 60.0 for t in adopted)
    for host in hosts[2:]:
        assert host.ordering.view == 2
        assert _delivered_all(host, reqs)


@pytest.mark.parametrize("outsider", [ClientId(0), ReplicaId("ex", 1, 0)],
                         ids=["client", "execution-replica"])
def test_oracle_assigner_ignores_submits_from_non_members(outsider):
    """An OracleSubmit that does not come from an agreement member reaches
    the assigner and orders nothing, so no request bypasses the request
    channel's quorum."""
    sim, hosts, provider, client = build_group("oracle")
    provider.register_principal(outsider)
    sender = ProtocolNode(outsider, sim, BoundCrypto(provider, outsider))
    sim.register(outsider, sender, "X", 0)
    assigner = hosts[0]
    seen = []
    handle = assigner.ordering.handle
    assigner.ordering.handle = lambda src, msg, sig=None: (
        seen.append((src, type(msg))), handle(src, msg, sig))
    sender.send_signed(assigner.nid, OracleSubmit(make_request(provider, client, 1)))
    sim.run_until(500)
    assert seen == [(outsider, OracleSubmit)]
    assert all(host.delivered == [] for host in hosts)
    assert assigner.ordering.assigned == {}


def _feed(host, reqs, every_ms=5.0):
    """Order reqs at host, one every every_ms from t=every_ms on."""
    for i, req in enumerate(reqs, 1):
        host.after(i * every_ms, lambda r=req: host.ordering.order(r))


def test_leader_that_leaves_out_one_request_is_replaced():
    """A leader that commits other batches but never proposes one request
    does not keep its view: the timer times the oldest pending request, not
    any commit, so the correct replicas change view and deliver it."""
    sim, hosts, provider, client = build_group()
    victim = make_request(provider, client, 1, b"victim")
    others = [make_request(provider, client, t) for t in range(2, 22)]
    leader = hosts[0].ordering
    victim_d = leader.node.crypto.digest(victim)
    leader._hold = lambda d, r: None if d == victim_d else MiniBft._hold(leader, d, r)
    for host in hosts:
        host.ordering.order(victim)
        _feed(host, others)
    sim.run_until(1000)
    assert {t for t, view in _votes(sim)[str(hosts[1].nid)] if view == 1} == {16.0}
    for host in hosts[1:]:
        assert host.ordering.view >= 1
        assert _delivered_all(host, [victim] + others)


def test_follower_whose_timer_fires_early_votes_once():
    """A follower whose first timeout is too short votes once; the view's
    next commit of the request it timed drops that vote, so it does not go
    on voting alone for higher views while the view stays live."""
    sim, hosts, provider, client = build_group()
    hosts[3].ordering.timeout_ms = 2.5  # commits take 3 ms in this rig
    reqs = [make_request(provider, client, t) for t in range(1, 21)]
    for host in hosts:
        host.ordering.order(reqs[0])
        _feed(host, reqs[1:])
    sim.run_until(1000)
    assert _votes(sim) == {str(hosts[3].nid): [(2.5, 1)]}
    for host in hosts:
        assert host.ordering.view == 0 and host.ordering.vc_target == 0
        assert _delivered_all(host, reqs)


def test_view_is_adopted_soon_after_a_partition_heals():
    """Two of four replicas are cut off while the other two hold requests:
    those two vote for views 1-4 with a doubling timeout. Each tick of their
    view timer re-sends the vote to the peers whose vote they lack, so the
    healed replicas join within one view_timeout_ms of the heal, not at the
    next doubled expiry (496 ms)."""
    plan = FaultPlan()
    for i in (1, 2):
        plan.faults[ReplicaId("ag", 0, i)] = NodeFault("partition", 0.0, 300.0)
    sim, hosts, provider, client = build_group(plan=plan)
    reqs = [make_request(provider, client, t) for t in range(1, 4)]
    for host in (hosts[0], hosts[3]):
        for req in reqs:
            host.ordering.order(req)
    sim.run_until(1000)
    assert _votes(sim)[str(hosts[0].nid)][:4] == [(16.0, 1), (48.0, 2), (112.0, 3), (240.0, 4)]
    adopted = [t for t, kind, *_ in sim.trace.records if kind == "view_change"]
    assert len(adopted) == 4 and all(300.0 < t <= 300.0 + 16.0 + 3.0 for t in adopted)
    for host in hosts:
        assert host.ordering.view == 4
        assert _delivered_all(host, reqs)


def test_vote_cast_in_a_partition_reaches_the_peers_after_the_heal():
    """A replica partitioned through its view timeout votes there (the vote
    drops) and re-sends it on its own timer's next tick after the heal, so
    the peers hold it although none of them sends it anything."""
    lone = ReplicaId("ag", 0, 3)
    plan = FaultPlan({lone: NodeFault("partition", 0.0, 70.0)})
    sim, hosts, provider, client = build_group(plan=plan)
    hosts[3].ordering.order(make_request(provider, client, 1))
    sim.run_until(70.0)
    assert _votes(sim) == {str(lone): [(16.0, 1), (48.0, 2)]}
    assert all(host.ordering.vcs == {} for host in hosts[:3])
    # the timer ticks every view_timeout_ms while the vote is under way
    sim.run_until(80.0 + 1.0)
    assert all(set(host.ordering.vcs) == {2} and lone in host.ordering.vcs[2]
               for host in hosts[:3])
