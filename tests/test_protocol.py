"""End-to-end protocol behavior at small scale."""
import copy
import json

import pytest

from geobft.agreement import AgreementReplica
from geobft.application import PLACEHOLDER, RESUBMIT, get_op, put_op
from geobft.audit import AuditView, audit_trace, check_liveness
from geobft.core import ClientId, GroupKey, hash_bytes
from geobft.core.messages import AddGroup, ChMove, Envelope, ReadWeak, Request, Result, Write
from geobft.execution import ExecutionReplica
from geobft.harness import run_scenario
from geobft.irmc.base import SenderEndpoint
from geobft.protocol import MIN_RETRY_MS
from geobft.runtime import REQ_CAPACITY, build
from geobft.scenario import SCENARIO_DIR, load_scenario
from geobft.simnet import read_trace
from tests.conftest import NetSpy


def mini_scenario(**overrides):
    raw = {
        "name": "mini", "mode": "spider", "irmc": "rc", "duration_ms": 3000,
        "f_a": 1, "f_e": 1,
        "topology": {"regions": {"V": 4, "O": 3}, "wan_ms": {"V-O": 35}},
        "agreement_region": "V",
        "groups": [{"id": 1, "region": "V"}, {"id": 2, "region": "O"}],
        "clients": [
            {"count": 1, "region": "V", "rate_per_s": 8},
            {"count": 1, "region": "O", "rate_per_s": 8,
             "mix": {"write": 0.4, "read_strong": 0.4, "read_weak": 0.2}},
        ],
    }
    raw.update(overrides)
    return load_scenario(raw)


@pytest.fixture(scope="module")
def mini_run():
    cfg = mini_scenario()
    system = build(cfg, seed=4)
    trace = system.run()
    return cfg, system, trace


def test_every_write_executed_once_per_replica(mini_run):
    cfg, system, trace = mini_run
    per_replica = {}
    for t, event, src, dst, kind, digest, data in trace.records:
        if event == "execute":
            key = (data["c"], data["t_c"])
            assert key not in per_replica.setdefault(src, set())
            per_replica[src].add(key)


def test_duplicate_write_resends_cached_result(mini_run, net_spy):
    cfg, system, trace = mini_run
    replica = system.executions[1][0]
    client = system.clients[0]
    c = client.nid.index
    t_done = replica.u[c][0]
    w = Write(get_op("k0"), client.nid, t_done, True)
    # counting Result resends triggered by a retry of an executed request
    spy = net_spy(system.sim)
    env = Envelope(w, (client.crypto.mac(GroupKey("ex", 1), w),
                       client.crypto.sign(w)))
    executes_before = len(trace.events("execute"))
    replica.handle_envelope(client.nid, env)
    assert len(NetSpy.payloads(spy.sent, "Result", replica.nid)) == 1
    assert len(trace.events("execute")) == executes_before  # no re-execution


def test_bad_mac_changes_no_state(mini_run):
    cfg, system, trace = mini_run
    replica = system.executions[1][1]
    client = system.clients[0]
    w = Write(get_op("k1"), client.nid, 999)
    digest_before = hash_bytes(replica._state()[0])
    t_before = dict(replica.t)
    # MAC from the wrong principal
    env = Envelope(w, (client.crypto.mac(GroupKey("ex", 2), w),))
    replica.handle_envelope(client.nid, env)
    assert hash_bytes(replica._state()[0]) == digest_before
    assert replica.t == t_before


def test_unauthorized_client_discarded(mini_run):
    cfg, system, trace = mini_run
    replica = system.executions[1][0]
    ghost = ClientId(99)
    replica.crypto.provider.register_principal(ghost)
    w = Write(get_op("k1"), ghost, 1)
    env = Envelope(w, (replica.crypto.provider.mac(ghost, GroupKey("ex", 1), w),
                       replica.crypto.provider.sign(ghost, w)))
    t_before = dict(replica.t)
    replica.handle_envelope(ghost, env)
    assert replica.t == t_before


# case -> admitted by (agreement, execution, flat) replicas
ADMISSION = {
    "write": (True, True, True),
    # flat replicas order no reconfiguration
    "add-by-admin": (True, True, False),
    "add-by-client": (False, False, False),
    "unauthorized-client": (False, False, False),
    "foreign-signer": (False, False, False),
    "sig-over-other-message": (False, False, False),
    "no-sig": (False, False, False),
}
REPLICA_KINDS = ("agreement", "execution", "flat")


def admission_case(case, cfg, provider):
    """The (client request, signature) pair a case hands to the admission rule."""
    client, other, admin = ClientId(0), ClientId(1), cfg.admin_id
    ghost = ClientId(99)  # holds keys, but the scenario does not authorize it
    provider.register_principal(ghost)
    write = Write(get_op("k0"), client, 1)
    signed_by_self = {
        "write": write,
        "add-by-admin": AddGroup(5, "O", (), admin, 1),
        "add-by-client": AddGroup(5, "O", (), client, 1),
        "unauthorized-client": Write(get_op("k0"), ghost, 1),
    }
    if case in signed_by_self:
        inner = signed_by_self[case]
        return inner, provider.sign(inner.client, inner)
    return write, {
        "foreign-signer": provider.sign(other, write),
        "sig-over-other-message": provider.sign(client, Write(get_op("k1"), client, 1)),
        "no-sig": None,
    }[case]


@pytest.fixture(scope="module")
def admission_replicas():
    cfg = mini_scenario()
    spider = build(cfg, seed=4)
    flat = build(cfg, seed=4, mode="flat-bft")
    return cfg, {"agreement": spider.agreement[0],
                 "execution": spider.executions[1][0],
                 "flat": flat.flat[0]}


@pytest.mark.parametrize("kind", REPLICA_KINDS)
@pytest.mark.parametrize("case", sorted(ADMISSION))
def test_one_admission_rule_at_every_replica(admission_replicas, kind, case):
    cfg, replicas = admission_replicas
    replica = replicas[kind]
    inner, sig = admission_case(case, cfg, replica.crypto.provider)
    want = ADMISSION[case][REPLICA_KINDS.index(kind)]
    assert replica.admits(inner, sig) is want
    assert replica.validate_request(Request(inner, sig, 1)) is want
    assert replica.validate_request(inner) is False  # not wrapped for ordering


@pytest.mark.parametrize("mode", ["spider", "flat-bft"])
def test_contact_replica_needs_the_client_mac(mode):
    system = build(mini_scenario(), seed=4, mode=mode)
    replica = system.flat[0] if system.flat else system.executions[1][0]
    client = system.clients[0]
    scope = GroupKey(replica.nid.role, replica.nid.group)
    w = Write(get_op("k0"), client.nid, 1)
    r = ReadWeak(get_op("k0"), client.nid, 1)
    for msg in (w, r):
        replica.handle_envelope(client.nid, Envelope(msg, (client.crypto.sign(msg),)))
    assert replica.t == {}
    assert system.sim.trace.events("weak_serve") == []
    # the same requests with the client's MAC are taken
    for msg in (w, r):
        replica.handle_envelope(client.nid, Envelope(
            msg, (client.crypto.mac(scope, msg), client.crypto.sign(msg))))
    assert replica.t == {client.nid.index: 1}
    assert len(system.sim.trace.events("weak_serve")) == 1


def test_contact_replica_forwards_reconfiguration_only_from_admin():
    cfg = mini_scenario()
    system = build(cfg, seed=4)
    replica = system.executions[1][0]
    provider = replica.crypto.provider
    scope = GroupKey("ex", 1)

    def send_add_group(client):
        add = AddGroup(5, "O", (), client, 1)
        replica.handle_envelope(client, Envelope(
            add, (provider.mac(client, scope, add), provider.sign(client, add))))
        return [r for r in system.sim.trace.events("ch_send_call") if r[4] == "req1"]

    assert send_add_group(ClientId(0)) == [] and replica.t == {}
    assert len(send_add_group(cfg.admin_id)) == 1
    assert replica.t == {cfg.admin_id.index: 1}


def test_weak_read_on_quiet_key_absent_from_all_correct(mini_run, net_spy):
    cfg, system, trace = mini_run
    client = system.clients[1]
    msg = ReadWeak(get_op("never-written"), client.nid, 424242)
    replies = []
    spy = net_spy(system.sim)
    for replica in system.executions[2]:
        env = Envelope(msg, (client.crypto.mac(GroupKey("ex", 2), msg),))
        replica.handle_envelope(client.nid, env)
        replies.extend(NetSpy.payloads(spy.sent, "Result", replica.nid))
    assert len(replies) == 3


def test_strong_read_leaves_placeholder_at_other_groups(mini_run):
    cfg, system, trace = mini_run
    # client 1 (group 2) issued strong reads; group 1 replicas must hold
    # placeholders (or later writes) for that client, never read replies
    c = system.clients[1].nid.index
    read_tcs = [r[6]["t_c"] for r in trace.records
                if r[1] == "client_issue" and r[2] == "c1" and r[4] == "read_strong"]
    if not read_tcs:
        pytest.skip("workload produced no strong reads at this seed")
    executed_group1 = {(r[6]["c"], r[6]["t_c"]) for r in trace.records
                       if r[1] == "execute" and r[2].startswith("ex1:")
                       and r[4] == "read"}
    assert all((c, t) not in executed_group1 for t in read_tcs)


def test_resubmit_indicator_for_skipped_read(mini_run, net_spy):
    cfg, system, trace = mini_run
    replica = system.executions[1][0]
    client = system.clients[0]
    c = client.nid.index
    # simulate a checkpoint that skipped this client's group-specific read
    t_c = replica.u[c][0] + 1
    replica.u[c] = (t_c, PLACEHOLDER)
    replica.t[c] = t_c
    w = Write(get_op("k0"), client.nid, t_c, True)
    env = Envelope(w, (client.crypto.mac(GroupKey("ex", 1), w),
                       client.crypto.sign(w)))
    spy = net_spy(system.sim)
    replica.handle_envelope(client.nid, env)
    resubmits = NetSpy.payloads(spy.sent, "Result", replica.nid)
    assert resubmits  # and the last one carries the resubmit indicator
    assert resubmits[-1].resubmit
    assert replica.u[c] == (t_c, PLACEHOLDER)


def test_client_resubmits_a_strong_read_its_group_skipped(tmp_path):
    """f_e+1 replies with the resubmit indicator to an outstanding strong
    read: the client records client_resubmit, re-issues the read under its
    next counter, and liveness counts the first counter as resolved. The
    trace reads back from its file."""
    cfg = mini_scenario(clients=[{"count": 1, "region": "V", "rate_per_s": 8,
                                  "mix": {"read_strong": 1.0}}])
    system = build(cfg, seed=4)
    sim, client = system.sim, system.clients[0]
    while client.outstanding is None:
        sim.run_until(sim.now + 1.0)
    first, op = client.outstanding["t_c"], client.outstanding["inner"].op
    for replica in system.executions[client.group][:cfg.fault_params.f_e + 1]:
        replica.send_mac(client.nid, Result(client.nid, first, RESUBMIT, resubmit=True))
    trace = system.run()
    resubmit = [r for r in trace.records if r[1] == "client_resubmit"]
    assert [(r[2], r[4], r[6]) for r in resubmit] == [("c0", "read_strong", {"t_c": first})]
    again = next(r for r in trace.records if r[1] == "client_issue" and r[6]["t_c"] == first + 1)
    assert (again[0], again[4], again[6]["op"]) == (resubmit[0][0], "read_strong", op.hex())
    assert not [r for r in trace.events("client_accept") if r[6]["t_c"] == first]
    verdicts = audit_trace(trace, cfg)
    assert all(ok for ok, _ in verdicts.values()), verdicts
    # without its client_resubmit record, the first counter is unresolved
    unresolved = copy.copy(trace)
    unresolved.records = [r for r in trace.records if r[1] != "client_resubmit"]
    assert check_liveness(AuditView(unresolved, cfg)).detail == \
        f"1 strong requests unresolved, e.g. ('c0', {first})"
    path = tmp_path / "run.trace"
    trace.write(path)
    assert read_trace(path).records == trace.records


def test_registry_answers_need_quorum():
    cfg = mini_scenario()
    system = build(cfg, seed=6)
    system.run()
    client = system.clients[0]
    from geobft.core.messages import RegistryInfo
    calls = []
    client.registry.resolve(lambda v, g: calls.append((v, g)))
    nonce = client.registry.nonce
    ag = cfg.agreement_members()
    good = RegistryInfo(nonce, 0, ((1, "V", ()),))
    lie = RegistryInfo(nonce, 9, ((7, "X", ()),))
    client.registry.on_info(ag[0], lie)
    client.registry.on_info(ag[1], good)
    assert calls == []
    client.registry.on_info(ag[2], good)
    assert calls == [(0, ((1, "V", ()),))]


def test_registry_query_is_asked_again_only_after_a_round_trip(net_spy):
    """threshold-faults/rc seed 1: client c5 in region T is 75 ms from the
    agreement region. Its first query to the four agreement replicas is
    answered within the 150 ms round trip, so each resolve sends 4
    queries; a fixed 50 ms re-ask period sent 16."""
    system = build(load_scenario("threshold-faults"), 1, irmc="rc")
    spy = net_spy(system.sim)
    system.run()
    per_client: dict = {}  # sender -> nonce -> RegistryQuery sends
    for src, _, env in spy.sent:
        if type(env.payload).__name__ == "RegistryQuery":
            per = per_client.setdefault(src, {})
            per[env.payload.nonce] = per.get(env.payload.nonce, 0) + 1
    assert per_client[ClientId(5)] == {1: 4}
    assert all(n == 4 for per in per_client.values() for n in per.values())


def test_registry_query_from_a_cut_off_resolver_is_asked_again_every_10_ms(monkeypatch):
    """Client c0 sits in the agreement region, 1 ms from its farthest
    agreement replica, and is partitioned for its first 200 ms: its resolve
    is asked again every 10 ms (MIN_RETRY_MS), not every 3 ms, until the
    partition heals and the answers come in."""
    cfg = mini_scenario(duration_ms=600, faults=[
        {"node": "client:0", "kind": "partition", "at_ms": 0, "until_ms": 200}])
    system = build(cfg, seed=1)
    sent_at = []
    send = system.sim.send

    def timed_send(src, dst, env, channel=None):
        if src == ClientId(0) and type(env.payload).__name__ == "RegistryQuery":
            sent_at.append(system.sim.now)
        send(src, dst, env, channel)

    monkeypatch.setattr(system.sim, "send", timed_send)
    system.run()
    asks = sorted(set(sent_at))
    assert asks[0] < 20.0 and asks[-1] >= 200.0
    assert all(b - a >= MIN_RETRY_MS for a, b in zip(asks, asks[1:]))
    assert len(sent_at) == 4 * len(asks)
    client = next(c for c in system.clients if c.nid == ClientId(0))
    assert client.group is not None  # resolved once the partition healed


def test_add_then_remove_leaves_registry_unchanged():
    cfg = mini_scenario(
        duration_ms=5000,
        topology={"regions": {"V": 4, "O": 3, "S": 3},
                  "wan_ms": {"V-O": 35, "V-S": 60, "O-S": 45}},
        pending_groups=[{"id": 7, "region": "S"}],
        admin=[{"at_ms": 1000, "action": "add", "group": 7},
               {"at_ms": 1800, "action": "remove", "group": 7}],
    )
    system = build(cfg, seed=5)
    system.run()
    for replica in system.agreement:
        assert sorted(replica.registry) == [1, 2]
        assert replica.registry_version == 2
    assert system.admin.done_strong == 2


def test_remove_unknown_group_rejected_but_agreed():
    cfg = mini_scenario(
        duration_ms=4000,
        admin=[{"at_ms": 1000, "action": "remove", "group": 9}],
        pending_groups=[{"id": 9, "region": "O"}],
    )
    system = build(cfg, seed=5)
    trace = system.run()
    assert system.admin.done_strong == 1
    accepts = [r for r in trace.records
               if r[1] == "client_accept" and r[4] == "admin"]
    assert accepts and accepts[0][6]["reply"].startswith(b"err:".hex())


def test_spider_and_oracle_modes_reach_same_final_state():
    snapshots = {}
    for mode in ("spider", "oracle"):
        cfg = mini_scenario()
        system = build(cfg, seed=9, mode=mode)
        system.run()
        snaps = {r.app.snapshot() for reps in system.executions.values()
                 for r in reps}
        assert len(snaps) == 1
        snapshots[mode] = snaps.pop()
    assert snapshots["spider"] == snapshots["oracle"]


def test_agreement_replicas_move_request_windows_as_they_take_requests(monkeypatch):
    """An agreement replica shows a request move only when the position its
    intake waits for next lies past the window it showed last: after every
    intake its shown move is at least t_plus[c] - REQ_CAPACITY + 1, so the
    execution replicas can send that request, and it moves at every second
    request. A forward sends a ChMove only with a client's first counter at
    that replica or with a counter that skips one."""
    cfg = load_scenario("four-regions-writes")
    assert cfg.topology.jitter_ms == 0 and not cfg.fault_plan.faults
    system = build(cfg, seed=1, irmc="rc")
    forwarding = []  # (replica, c, t_c, last) of the forward under way
    moved = []       # the same, for each forward that sent a ChMove
    forwarded = 0
    send = system.sim.send

    def spy_send(src, dst, env, channel=None):
        if forwarding and type(env.payload) is ChMove:
            moved.append(forwarding[-1])
        send(src, dst, env, channel)

    def spy_move(endpoint, sc, p):
        if forwarding:
            moved.append(forwarding[-1])
        move(endpoint, sc, p)

    def spy_forward(replica, msg, sig, last):
        nonlocal forwarded
        forwarded += 1
        forwarding.append((replica.nid, msg.client.index, msg.t_c, last))
        forward(replica, msg, sig, last)
        forwarding.pop()

    pulled = set()
    takes = 0
    short = []  # (replica, c, shown move, t_plus[c]) where the move falls short

    def spy_intake(replica, gid, c):
        nonlocal takes
        if (replica.nid, gid, c) in pulled:  # an intake position resolved
            takes += 1
            shown = replica.req_recv[gid].moves_sent.get(c, 1)
            if shown < replica.t_plus[c] - REQ_CAPACITY + 1:
                short.append((str(replica.nid), c, shown, replica.t_plus[c]))
        pulled.add((replica.nid, gid, c))
        intake(replica, gid, c)

    forward, intake = ExecutionReplica.forward, AgreementReplica._intake_pull
    move = SenderEndpoint.move_window
    monkeypatch.setattr(system.sim, "send", spy_send)
    monkeypatch.setattr(SenderEndpoint, "move_window", spy_move)
    monkeypatch.setattr(ExecutionReplica, "forward", spy_forward)
    monkeypatch.setattr(AgreementReplica, "_intake_pull", spy_intake)
    system.run()
    assert forwarded > 100 and takes > 100
    assert short == []
    # every client's first counter at each of its contact replicas moved,
    # and no counter that follows the last one forwarded there did
    firsts = {(nid, c) for nid, c, t_c, last in moved if last is None}
    assert len(firsts) == len(cfg.clients) * cfg.fault_params.execution_size
    assert all(last is None or t_c > last + 1 for nid, c, t_c, last in moved)
    # the agreement replicas show about one move per two requests taken
    shown = [r for r in system.sim.trace.events("ch_move_call")
             if r[2].startswith("ag") and r[4].startswith("req")]
    assert takes / 2 - len(pulled) <= len(shown) <= takes / 2 + len(pulled)


@pytest.mark.parametrize("jitter_ms", [0.0, 1.0])
def test_no_request_send_blocks_in_a_fault_free_run(jitter_ms):
    """The agreement replicas show each move before the request that needs
    it is forwarded: every request-channel send returns at the instant it
    is called, with and without link jitter."""
    raw = json.loads((SCENARIO_DIR / "four-regions-writes.json").read_text())
    raw["topology"]["jitter_ms"] = jitter_ms
    system = build(load_scenario(raw), seed=1, irmc="rc")
    trace = system.run()
    called, done = {}, {}
    for event, table in (("ch_send_call", called), ("ch_send_done", done)):
        for t, _, src, _, kind, _, data in trace.events(event):
            if kind.startswith("req"):
                table[(src, kind, data["sc"], data["p"])] = t
    assert len(called) > 600
    assert done == called


def test_a_skipped_counter_moves_the_window_and_the_intake_takes_it():
    """Client c0 sends counter 1 to group 1, counter 2 to group 2 and
    counter 3 to group 1 again. Group 1's agreement-side window for c0
    still ends at 2, where its intake waits; the forward of 3 skips one, so
    it moves the sender window to 3. Every agreement replica's intake then
    resolves 2 as TooOld(3) and takes 3, and every replica executes it."""
    cfg = mini_scenario(issue_until_ms=0)
    system = build(cfg, seed=4)
    client = system.clients[0]
    c = client.nid.index

    def submit(t_c, gid):
        w = Write(put_op("k", b"v%d" % t_c), client.nid, t_c)
        for replica in system.executions[gid]:
            replica.handle_envelope(client.nid, Envelope(
                w, (client.crypto.mac(GroupKey("ex", gid), w), client.crypto.sign(w))))

    for at_ms, t_c, gid in ((100, 1, 1), (600, 2, 2), (1100, 3, 1)):
        system.sim.after(client.nid, at_ms, lambda t_c=t_c, gid=gid: submit(t_c, gid))
    trace = system.run()
    moves = {(r[2], r[4], r[6]["p"]) for r in trace.events("ch_move_call")
             if r[6]["side"] == "s" and r[4].startswith("req") and r[6]["sc"] == c}
    group1 = {str(r.nid) for r in system.executions[1]}
    assert moves == {(n, "req1", p) for n in group1 for p in (1, 3)} | {
        (str(r.nid), "req2", 2) for r in system.executions[2]}
    for replica in system.agreement:
        resolved = [(r[1], r[6]["p"]) for r in trace.records
                    if r[1] in ("ch_recv_tooold", "ch_recv_msg")
                    and r[2] == str(replica.nid) and r[4] == "req1" and r[6]["sc"] == c]
        assert resolved == [("ch_recv_msg", 1), ("ch_recv_tooold", 2), ("ch_recv_msg", 3)]
    executed = {(r[2], r[6]["t_c"]) for r in trace.events("execute") if r[6]["c"] == c}
    everyone = {str(r.nid) for reps in system.executions.values() for r in reps}
    assert executed == {(n, t_c) for n in everyone for t_c in (1, 2, 3)}


def test_first_request_move_names_the_subchannel_to_every_intake():
    """threshold-faults/sc seed 1: ex3:0, a collector of group 3's request
    channel, withholds everything. A receiver whose collector withholds
    learns of a new subchannel only from a certificate or a move, so the
    forward of a client's first counter at a replica still moves the
    window: without it ag0:0 and ag0:3 post no intake on client c4's
    subchannel of req3. Every correct agreement replica posts one on every
    subchannel, and c4's worst latency stays at 290.01 ms, its first
    request (issued before warm-up)."""
    system, report = run_scenario("threshold-faults", 1, mode="spider", irmc="sc")
    trace = system.sim.trace
    subchannels = {r[6]["sc"] for r in trace.events("ch_send_call") if r[4] == "req3"}
    assert subchannels == {4}
    correct = [str(r.nid) for r in system.agreement if str(r.nid) != "ag0:2"]
    asked = {(r[2], r[6]["sc"]) for r in trace.events("ch_recv_call") if r[4] == "req3"}
    assert {(n, sc) for n in correct for sc in subchannels} <= asked
    worst = max(r[6]["latency"] for r in trace.events("client_accept") if r[2] == "c4")
    assert worst == pytest.approx(290.01, abs=0.005)
    assert report.ok, report.verdicts
