"""Agreement black-box contract for both implementations."""
import random

import pytest

from geobft.core import BoundCrypto, ClientId, CryptoProvider, ReplicaId
from geobft.core.messages import Request, Write
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
