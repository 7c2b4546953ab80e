"""Simulator guarantees: determinism, latency model, conservation, faults."""
import pytest

from geobft.core import (
    BoundCrypto,
    ClientId,
    CryptoProvider,
    GroupKey,
    ReplicaId,
    canonical_encode,
)
from geobft.core.messages import ChSend, ChannelId, Envelope, Write
from geobft.simnet import FaultPlan, Node, NodeFault, Simulator
from tests.conftest import rebuilt, small_topology


class Echo(Node):
    def __init__(self, nid, sim, crypto):
        super().__init__(nid, sim, crypto)
        self.got = []

    def on_payload(self, src, env):
        self.got.append((self.sim.now, src, env.payload))


def build_pair(seed=1, plan=None, wan=10.0):
    sim = Simulator(small_topology(wan=wan), seed, plan)
    provider = CryptoProvider()
    a = ReplicaId("ex", 1, 0)
    b = ReplicaId("ag", 0, 0)
    for nid in (a, b):
        provider.register_principal(nid)
    na = Echo(a, sim, BoundCrypto(provider, a))
    nb = Echo(b, sim, BoundCrypto(provider, b))
    sim.register(a, na, "S", 0)
    sim.register(b, nb, "R", 0)
    return sim, na, nb


def test_one_way_latency_matches_matrix():
    sim, na, nb = build_pair(wan=25.0)
    na.send_signed(nb.nid, b"hello")
    sim.run_until(100)
    assert len(nb.got) == 1
    assert nb.got[0][0] == 25.0


def test_same_seed_identical_trace():
    def run(seed):
        sim = Simulator(small_topology(jitter=2.0), seed)
        provider = CryptoProvider()
        a, b = ReplicaId("ex", 1, 0), ReplicaId("ag", 0, 0)
        for nid in (a, b):
            provider.register_principal(nid)
        na, nb = Echo(a, sim, BoundCrypto(provider, a)), Echo(b, sim, BoundCrypto(provider, b))
        sim.register(a, na, "S", 0)
        sim.register(b, nb, "R", 0)
        for i in range(20):
            na.after(i * 3.0, lambda i=i: na.send_signed(nb.nid, b"m%d" % i))
        sim.run_until(500)
        return sim.trace.digest(), nb.got

    assert run(42) == run(42)
    assert run(42) != run(43)


def test_conservation_sends_equal_deliveries_plus_drops(net_spy):
    plan = FaultPlan()
    plan.faults[ReplicaId("ag", 0, 0)] = NodeFault("crash", at_ms=50.0)
    sim, na, nb = build_pair(plan=plan)
    spy = net_spy(sim, (na, nb))
    for i in range(10):
        na.after(i * 10.0, lambda i=i: na.send_signed(nb.nid, b"m%d" % i))
    sim.run_until(500)
    sends = len(spy.sent)
    drops = len(sim.trace.events("net_drop"))
    delivered = len(spy.delivered) + len(sim.trace.events("auth_reject"))
    assert sends == 10
    assert sends == drops + delivered
    assert len(nb.got) < 10


def test_crashed_node_stops_sending():
    plan = FaultPlan()
    plan.faults[ReplicaId("ex", 1, 0)] = NodeFault("crash", at_ms=30.0)
    sim, na, nb = build_pair(plan=plan)
    for i in range(10):
        na.after(i * 10.0, lambda i=i: na.send_signed(nb.nid, b"m%d" % i))
    sim.run_until(500)
    assert len(nb.got) == 3  # only the sends before the crash arrive


def test_partition_drops_within_interval_only():
    plan = FaultPlan()
    plan.faults[ReplicaId("ag", 0, 0)] = NodeFault("partition", at_ms=20.0,
                                                   until_ms=60.0)
    sim, na, nb = build_pair(plan=plan)
    for i in range(10):
        na.after(i * 10.0, lambda i=i: na.send_signed(nb.nid, b"m%d" % i))
    sim.run_until(500)
    times = [t for t, _, _ in nb.got]
    assert all(not (20.0 <= t < 60.0) for t in times)
    assert times  # traffic resumes after the partition heals


def test_partition_cuts_links_not_timers_and_crash_stops_both():
    """A periodic timer runs through a partition of its owner, whose sends
    drop meanwhile; a crash stops it for good."""
    fired = {}
    for kind in ("partition", "crash"):
        plan = FaultPlan()
        plan.faults[ReplicaId("ex", 1, 0)] = NodeFault(kind, at_ms=30.0, until_ms=100.0)
        sim, na, nb = build_pair(plan=plan)
        fired[kind] = []

        def tick(sim=sim, na=na, nb=nb, log=fired[kind]):
            log.append(sim.now)
            na.send_signed(nb.nid, b"tick")

        sim.every(na.nid, 20.0, tick)
        sim.run_until(400)
        if kind == "partition":
            # the sends at 40, 60 and 80 ms drop; the rest arrive 10 ms later
            assert [t for t, _, _ in nb.got] == [20.0 * k + 10.0 for k in range(1, 20)
                                                 if not 30.0 <= 20.0 * k < 100.0]
    assert fired == {"partition": [20.0 * k for k in range(1, 21)], "crash": [20.0]}


def test_byzantine_cannot_authenticate_as_another_principal():
    sim, na, nb = build_pair()
    # a node's crypto handle is pinned: payloads it rewrites carry its own
    # signature, and a signature forged for another signer fails verification
    from geobft.core.crypto import Sig
    fake = Sig(nb.nid, na.crypto.digest(b"forged"))
    ok = fake.signer == nb.nid and nb.crypto.valid_sig(b"forged", fake)
    assert ok  # structurally consistent records do verify
    tampered = Sig(nb.nid, na.crypto.digest(b"forged-other"))
    assert not (tampered.signer == nb.nid and nb.crypto.valid_sig(b"forged", tampered))


def test_invalid_authenticator_never_dispatched():
    sim, na, nb = build_pair()
    from geobft.core.crypto import Sig
    bad = Envelope(b"payload", (Sig(na.nid, b"wrong-digest-000"),))
    sim.send(na.nid, nb.nid, bad)
    sim.run_until(100)
    assert nb.got == []
    assert len(sim.trace.events("auth_reject")) == 1


def test_send_counts_full_envelope_encoding():
    """The size Simulator.send adds from stored bytes equals a full encode."""
    a, byz, b, c = (ReplicaId("ex", 1, 0), ReplicaId("ex", 1, 1),
                    ReplicaId("ag", 0, 0), ClientId(0))
    plan = FaultPlan()
    plan.faults[byz] = NodeFault("byzantine", strategy="equivocate-send")
    sim = Simulator(small_topology(), 1, plan)
    provider = CryptoProvider()
    group = GroupKey("ag", 0)
    provider.register_group(group, [b])
    nodes = {}
    for zone, nid in enumerate((a, byz, c)):
        provider.register_principal(nid)
        nodes[nid] = Echo(nid, sim, BoundCrypto(provider, nid))
        sim.register(nid, nodes[nid], "S", zone)
    nodes[b] = Echo(b, sim, BoundCrypto(provider, b))
    sim.register(b, nodes[b], "R", 0)

    sent = []
    send = sim.send

    def spy(src, dst, env, channel=None):
        before = sum(sim.counters.bytes.values())
        send(src, dst, env, channel)
        sent.append((env, sum(sim.counters.bytes.values()) - before))

    sim.send = spy
    payload = ChSend(ChannelId("req", 1), 0, 1, Write(b"put k v", c, 1))
    nodes[a].net_send((b,), payload, lambda p: ())
    nodes[a].send_signed(b, payload)
    nodes[c].net_send((b,), Write(b"op", c, 2),
                      lambda p: (nodes[c].crypto.mac(group, p),))
    nodes[a].net_send((b,), payload, lambda p: (nodes[a].crypto.sign(p),
                                                nodes[a].crypto.mac(b, p)))
    nodes[byz].send_signed(b, payload)
    # one envelope for both destinations: sized at the first send, read
    # from the message store at the second
    nodes[a].multicast_signed([a, b, c], payload)
    assert [len(env.auth) for env, _ in sent] == [0, 1, 1, 2, 1, 1, 1]
    assert sent[4][0].payload != payload  # rewritten by the adapter
    assert sent[5][0] is sent[6][0]
    for env, size in sent:
        assert size == len(canonical_encode(rebuilt(env)))
        assert env.wire_size() == len(canonical_encode(env))
    sim.run_until(100)
    assert len(nodes[b].got) == 6
    assert len(nodes[c].got) == 1


def test_send_counts_full_envelope_encoding_for_any_signer():
    """A Sig is sized from its signer's stored bytes: a client id, which
    encodes shorter than a replica id, a replica id with multi-digit group
    and index, and a group-scoped Mac beside a Sig all count a full encode."""
    client, wide, b = ClientId(3), ReplicaId("ex", 12, 345), ReplicaId("ag", 0, 0)
    sim = Simulator(small_topology(), 1)
    provider = CryptoProvider()
    group = GroupKey("ag", 0)
    provider.register_group(group, [b])
    nodes = {}
    for zone, nid in enumerate((client, wide)):
        provider.register_principal(nid)
        nodes[nid] = Echo(nid, sim, BoundCrypto(provider, nid))
        sim.register(nid, nodes[nid], "S", zone)
    nodes[b] = Echo(b, sim, BoundCrypto(provider, b))
    sim.register(b, nodes[b], "R", 0)

    sent = []
    send = sim.send

    def spy(src, dst, env, channel=None):
        before = sum(sim.counters.bytes.values())
        send(src, dst, env, channel)
        sent.append((env, sum(sim.counters.bytes.values()) - before))

    sim.send = spy
    write = Write(b"put k v", client, 1)
    nodes[client].send_signed(b, write)
    nodes[wide].send_signed(b, ChSend(ChannelId("req", 12), 0, 1, write))
    crypto = nodes[client].crypto
    nodes[client].net_send((b,), Write(b"op", client, 2),
                           lambda p: (crypto.sign(p), crypto.mac(group, p)))
    assert [[type(a).__name__ for a in env.auth] for env, _ in sent] == [
        ["Sig"], ["Sig"], ["Sig", "Mac"]]
    assert [env.auth[0].signer for env, _ in sent] == [client, wide, client]
    # ints encode at fixed width: the kind of id sets its length, not its digits
    assert len(canonical_encode(client)) < len(canonical_encode(b)) == len(canonical_encode(wide))
    for env, size in sent:
        assert size == env.wire_size() == len(canonical_encode(rebuilt(env)))
    sim.run_until(100)
    assert len(nodes[b].got) == 3


def build_group(plan=None, n=4):
    """n nodes in one region, one per zone."""
    sim = Simulator(small_topology(n_s=n), 1, plan)
    provider = CryptoProvider()
    nodes = []
    for i in range(n):
        nid = ReplicaId("ex", 1, i)
        provider.register_principal(nid)
        nodes.append(Echo(nid, sim, BoundCrypto(provider, nid)))
        sim.register(nid, nodes[-1], "S", i)
    return sim, nodes


def counted_signs(monkeypatch, node):
    signs = []
    sign = node.crypto.sign
    monkeypatch.setattr(node.crypto, "sign", lambda msg: signs.append(msg) or sign(msg))
    return signs


def test_correct_multicast_signs_once_and_shares_one_envelope(monkeypatch, net_spy):
    sim, nodes = build_group()
    spy = net_spy(sim)
    signs = counted_signs(monkeypatch, nodes[0])
    payload = ChSend(ChannelId("req", 1), 0, 1, b"m")
    nodes[0].multicast_signed([n.nid for n in nodes], payload)
    assert len(signs) == 1
    assert [(src, dst) for src, dst, _ in spy.sent] == \
        [(nodes[0].nid, n.nid) for n in nodes[1:]]
    assert len({id(env) for _, _, env in spy.sent}) == 1
    sim.run_until(100)
    assert [[p for _, _, p in n.got] for n in nodes] == [[]] + [[payload]] * 3


def test_equivocating_multicast_diverges_per_destination(monkeypatch, net_spy):
    plan = FaultPlan()
    plan.faults[ReplicaId("ex", 1, 0)] = NodeFault("byzantine", strategy="equivocate-send")
    sim, nodes = build_group(plan)
    spy = net_spy(sim)
    signs = counted_signs(monkeypatch, nodes[0])
    payload = ChSend(ChannelId("req", 1), 0, 1, b"m")
    nodes[0].multicast_signed([n.nid for n in nodes], payload)
    assert len(signs) == 3  # one per rewritten payload, none for the original
    envs = [env for _, _, env in spy.sent]
    assert [env.payload.payload for env in envs] == \
        [b"\x01equiv", b"\x00equiv", b"\x01equiv"]
    for env in envs:
        assert env.auth[0].signer == nodes[0].nid
        assert nodes[1].crypto.valid_sig(env.payload, env.auth[0])
    sim.run_until(100)
    assert [len(n.got) for n in nodes] == [0, 1, 1, 1]


def test_faulty_node_signs_once_per_envelope_it_sends(monkeypatch, net_spy):
    plan = FaultPlan()
    plan.faults[ReplicaId("ex", 1, 0)] = NodeFault("byzantine", strategy="lying-collector")
    plan.faults[ReplicaId("ex", 1, 1)] = NodeFault("byzantine", strategy="withhold")
    sim, nodes = build_group(plan)
    spy = net_spy(sim)
    lying, silent = nodes[0], nodes[1]
    lying_signs = counted_signs(monkeypatch, lying)
    silent_signs = counted_signs(monkeypatch, silent)
    payload = ChSend(ChannelId("req", 1), 0, 1, b"m")
    # a payload the adapter leaves unchanged is signed once, in one shared envelope
    lying.multicast_signed([n.nid for n in nodes], payload)
    assert lying_signs == [payload]
    assert len({id(env) for _, _, env in spy.sent}) == 1
    lying.send_signed(nodes[2].nid, payload)
    assert lying_signs == [payload, payload]
    # an authenticator over a payload the adapter leaves unchanged is kept
    lying.net_send((nodes[3].nid,), payload, lambda p: (lying.crypto.sign(p),))
    assert lying_signs == [payload] * 3
    # a withheld send is neither signed nor sent
    silent.multicast_signed([n.nid for n in nodes], payload)
    silent.send_signed(nodes[2].nid, payload)
    assert silent_signs == []
    assert len(spy.sent) == 5
    sim.run_until(100)
    assert [len(n.got) for n in nodes] == [0, 1, 2, 2]


def test_an_event_past_the_horizon_waits_for_the_next_run():
    sim, na, _ = build_pair()
    ticks = []
    na.every(10.0, lambda: ticks.append(sim.now))
    sim.run_until(25)
    sim.run_until(55)
    assert ticks == [10.0, 20.0, 30.0, 40.0, 50.0]


def test_trace_keeps_drops_and_rejects_but_no_per_message_records():
    plan = FaultPlan()
    plan.faults[ReplicaId("ag", 0, 0)] = NodeFault("crash", at_ms=50.0)
    sim, na, nb = build_pair(plan=plan)
    for i in range(4):
        na.after(i * 20.0, lambda i=i: na.send_signed(nb.nid, b"m%d" % i))
    from geobft.core.crypto import Sig
    sim.send(na.nid, nb.nid, Envelope(b"payload", (Sig(na.nid, b"wrong-digest-000"),)))
    sim.run_until(500)
    assert len(nb.got) == 2
    a, b = str(na.nid), str(nb.nid)
    assert sim.trace.records == [
        (10.0, "auth_reject", a, b, "bytes", "-", {}),
        (50.0, "net_drop", a, b, "bytes", "-", {}),
        (70.0, "net_drop", a, b, "bytes", "-", {}),
    ]


def counted_checks(monkeypatch, provider):
    """Lists that get one entry per valid_sig / valid_mac call on provider."""
    calls = {"sig": [], "mac": []}
    for kind in calls:
        check = getattr(provider, f"valid_{kind}")

        def counted(*args, _check=check, _seen=calls[kind]):
            _seen.append(args)
            return _check(*args)
        monkeypatch.setattr(provider, f"valid_{kind}", counted)
    return calls


def test_shared_signed_envelope_is_verified_once(monkeypatch, net_spy):
    sim, nodes = build_group(n=4)
    spy = net_spy(sim, nodes)
    checks = counted_checks(monkeypatch, nodes[0].crypto.provider)
    payload = ChSend(ChannelId("req", 1), 0, 1, b"m")
    nodes[0].multicast_signed([n.nid for n in nodes], payload)
    sim.run_until(100)
    assert len(checks["sig"]) == 1
    assert [(src, dst) for src, dst, _ in spy.delivered] == \
        [(nodes[0].nid, n.nid) for n in nodes[1:]]
    assert [len(n.got) for n in nodes] == [0, 1, 1, 1]


def test_envelope_with_a_mac_is_verified_by_each_receiver(monkeypatch, net_spy):
    sim, nodes = build_group(n=4)
    provider = nodes[0].crypto.provider
    group = GroupKey("ex", 1)
    provider.register_group(group, [n.nid for n in nodes])
    spy = net_spy(sim, nodes)
    checks = counted_checks(monkeypatch, provider)
    payload = ChSend(ChannelId("req", 1), 0, 1, b"m")
    crypto = nodes[0].crypto
    shared = (Envelope(payload, (crypto.mac(group, payload),)),
              Envelope(payload, (crypto.sign(payload), crypto.mac(group, payload))))
    for env in shared:
        for n in nodes[1:]:
            sim.send(nodes[0].nid, n.nid, env)
    sim.run_until(100)
    assert len(checks["mac"]) == 6
    assert len(checks["sig"]) == 3  # a Sig beside a Mac is checked with it
    assert len(spy.delivered) == 6


def test_bad_signature_is_rejected_at_every_receiver(monkeypatch, net_spy):
    from geobft.core.crypto import Sig
    sim, nodes = build_group(n=4)
    spy = net_spy(sim, nodes)
    checks = counted_checks(monkeypatch, nodes[0].crypto.provider)
    payload = ChSend(ChannelId("req", 1), 0, 1, b"m")
    bad = Envelope(payload, (Sig(nodes[0].nid, b"wrong-digest-000"),))
    for n in nodes[1:]:
        sim.send(nodes[0].nid, n.nid, bad)
    sim.run_until(100)
    assert len(checks["sig"]) == 3
    assert spy.delivered == []
    assert [n.got for n in nodes] == [[]] * 4
    assert [(r[1], r[3]) for r in sim.trace.records] == \
        [("auth_reject", str(n.nid)) for n in nodes[1:]]


def first_strong_request(net_spy, mode):
    """A one-client system, and (dst, env) of each send carrying its
    client's first strong request, in send order."""
    from geobft.core.crypto import Mac, Sig
    from geobft.runtime import build
    from geobft.scenario import load_scenario
    raw = {
        "name": "one-client", "mode": mode, "irmc": "rc", "duration_ms": 1000,
        "f_a": 1, "f_e": 1,
        "topology": {"regions": {"V": 4, "O": 3}, "wan_ms": {"V-O": 35}},
        "agreement_region": "V",
        "groups": [{"id": 1, "region": "O"}],
        "clients": [{"count": 1, "region": "O", "rate_per_s": 20}],
    }
    system = build(load_scenario(raw), 1)
    spy = net_spy(system.sim)
    system.sim.run_until(500)
    client = system.clients[0].nid
    sent = [(dst, env) for src, dst, env in spy.sent
            if src == client and type(env.payload) is Write and env.payload.t_c == 1]
    assert sent
    for _, env in sent:
        assert [type(a) for a in env.auth] == [Mac, Sig]
    return system, sent


@pytest.mark.parametrize("mode", ["spider", "flat-bft"])
def test_client_request_is_one_shared_envelope(net_spy, mode):
    """The client MACs for its group in both modes: an execution group in
    spider mode, the flat replica set in flat mode."""
    system, sent = first_strong_request(net_spy, mode)
    if mode == "spider":
        members, scope = tuple(n.nid for n in system.executions[1]), GroupKey("ex", 1)
    else:
        members, scope = tuple(n.nid for n in system.flat), GroupKey("ag", 0)
    first = sent[:len(members)]
    assert [dst for dst, _ in first] == list(members)
    assert len({id(env) for _, env in first}) == 1
    assert first[0][1].auth[0].scope == scope


def test_split_run_starts_each_node_once():
    """run_until starts a node once: a run split at several horizons sends
    and records what one run to the last horizon does."""
    from tests.conftest import Channel

    def run(horizons):
        plan = FaultPlan()
        plan.faults[ReplicaId("ex", 1, 0)] = NodeFault("byzantine",
                                                       strategy="garbage-inject")
        ch = Channel("rc", fault_plan=plan)
        for t in horizons:
            ch.sim.run_until(t)
        return ch.sim.counters.msgs, ch.sim.trace.digest()

    whole = run([1000.0])
    assert sum(whole[0].values()) == 40  # one garbage send per 25 ms
    assert run([250.0, 500.0, 750.0, 1000.0]) == whole


def test_same_instant_events_run_in_first_queue_order_of_owners():
    """Events due at one instant run owner by owner, in the order in which
    each owner first queued an event (not the order of registration), and
    one owner's events run in the order they were queued."""
    sim, na, nb = build_pair(wan=10.0)  # registers a, then b
    ran = []
    nb.on_payload = lambda src, env: ran.append(("deliver", env.payload))
    nb.after(10.0, lambda: ran.append("b1"))  # b queues first
    na.send_signed(nb.nid, b"x")              # a's first event: due at 10.0
    na.after(10.0, lambda: ran.append("a1"))
    nb.after(10.0, lambda: ran.append("b2"))
    na.after(5.0, lambda: ran.append("a0"))
    sim.run_until(20.0)
    assert ran == ["a0", "b1", "b2", ("deliver", b"x"), "a1"]


def test_counters_match_the_sends_they_count(net_spy):
    """msgs, bytes and channel_wan equal the totals recomputed from every
    send of a jittered sc run, sized by wire_size and placed by sim.place."""
    from tests.conftest import Channel

    ch = Channel("sc", jitter=2.0, retransmit_ms=30.0)
    spy = net_spy(ch.sim)
    for ep in ch.s_eps:
        for p in range(1, 7):
            ep.send(0, p, b"m%d" % p)
    for ep in ch.r_eps:
        for p in range(1, 7):
            ep.receive(0, p, lambda out, ep=ep, p=p: ep.move_window(0, p + 1))
    ch.run(600.0)

    msgs, size, chan = {}, {}, {}
    for src, dst, env in spy.sent:
        kind = type(env.payload).__name__
        wan = ch.sim.place(src)[0] != ch.sim.place(dst)[0]
        msgs[kind, wan] = msgs.get((kind, wan), 0) + 1
        size[kind, wan] = size.get((kind, wan), 0) + env.wire_size()
        if wan:
            key = (str(env.payload.channel), kind)
            chan[key] = chan.get(key, 0) + 1
    counters = ch.sim.counters
    assert {wan for _, wan in msgs} == {True, False}
    assert {"ChShare", "ChCert", "ChMove", "ChProgress"} <= {kind for kind, _ in msgs}
    assert counters.msgs == msgs
    assert counters.bytes == size
    assert counters.channel_wan == chan
    assert counters.wan_messages() == sum(n for (_, wan), n in msgs.items() if wan)
    assert counters.wan_bytes() == sum(n for (_, wan), n in size.items() if wan)
    assert all(ep.window(0).start == 7 for ep in ch.r_eps)


def test_register_rejects_a_place_outside_the_topology():
    sim, na, _ = build_pair()
    for region, zone in (("Q", 0), ("S", 4)):  # small_topology: S has zones 0-3
        with pytest.raises(ValueError, match="no place"):
            sim.register(ReplicaId("ex", 9, zone), na, region, zone)


def test_fault_plan_is_read_when_a_node_registers():
    """A node's fault is read once, when the simulator first meets its id."""
    plan = FaultPlan()
    sim, na, nb = build_pair(plan=plan)
    plan.faults[nb.nid] = NodeFault("crash", at_ms=0.0)  # too late: nb registered
    na.send_signed(nb.nid, b"hello")
    sim.run_until(100)
    assert len(nb.got) == 1
