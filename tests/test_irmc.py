"""Endpoint-level channel behavior for both implementations."""
import pytest

from geobft.core import ReplicaId
from geobft.core.messages import ChannelId, ChCert, ChMove, ChSend
from geobft.irmc.base import Delivered, TooOld
from geobft.simnet import FaultPlan, NodeFault
from tests.conftest import Channel, NetSpy


def collect(results):
    def cb(outcome):
        results.append(outcome)
    return cb


class TestRcDelivery:
    def test_quorum_of_two_delivers(self, rc_channel):
        ch = rc_channel
        for ep in ch.s_eps:
            ep.send(7, 1, b"m")
        got = []
        for ep in ch.r_eps:
            ep.receive(7, 1, collect(got))
        ch.run()
        assert len(got) == 4
        assert all(isinstance(o, Delivered) and o.payload == b"m" for o in got)

    def test_single_faulty_sender_never_delivers(self, rc_channel):
        ch = rc_channel
        ch.s_eps[0].send(7, 1, b"evil")
        got = []
        ch.r_eps[0].receive(7, 1, collect(got))
        ch.run()
        assert got == []

    def test_send_beyond_window_blocks_until_moves(self, rc_channel):
        ch = rc_channel
        done = []
        ch.s_eps[0].send(0, 50, b"x", on_complete=lambda: done.append(50))
        ch.run(200)
        assert done == []
        for ep in ch.r_eps:
            ep.move_window(0, 50)
        ch.run(400)
        assert done == [50]

    def test_equivocation_first_send_wins(self, rc_channel):
        ch = rc_channel
        recv = ch.r_eps[0]
        sender = ch.senders[0]
        recv.handle(sender, ChSend(ch.cfg.channel, 0, 1, b"first"))
        recv.handle(sender, ChSend(ch.cfg.channel, 0, 1, b"second"))
        slot = recv.store[0][1]
        assert slot[sender][1] == b"first"

    def test_faulty_client_split_quorums(self, rc_channel):
        # two correct senders forward different requests for the same slot; the
        # third (faulty) echoes one version to half the receivers, the other
        # version to the rest: receivers may deliver either, but each delivered
        # value was vouched for by a correct sender
        ch = rc_channel
        ch.s_eps[0].send(9, 1, b"R1")
        ch.s_eps[1].send(9, 1, b"R2")
        faulty = ch.nodes[ch.senders[2]]
        for i, r in enumerate(ch.receivers):
            payload = b"R1" if i % 2 == 0 else b"R2"
            faulty.send_signed(r, ChSend(ch.cfg.channel, 9, 1, payload))
        got = {}
        for i, ep in enumerate(ch.r_eps):
            ep.receive(9, 1, collect(got.setdefault(i, [])))
        ch.run()
        values = {outs[0].payload for outs in got.values() if outs}
        assert values and values <= {b"R1", b"R2"}


class TestRcMoves:
    def test_receiver_quorum_moves_sender_windows(self, rc_channel):
        ch = rc_channel
        for ep in ch.r_eps:
            ep.move_window(0, 11)
        ch.run()
        for ep in ch.s_eps:
            assert ep.window(0).start == 11
            assert ep.window(0).end == 11 + ch.cfg.capacity - 1

    def test_single_receiver_move_changes_nothing(self, rc_channel):
        ch = rc_channel
        ch.r_eps[0].move_window(0, 11)
        ch.run()
        for ep in ch.s_eps:
            assert ep.window(0).start == 1

    def test_sender_moves_resolve_pending_receive_too_old(self, rc_channel):
        ch = rc_channel
        got = []
        ch.r_eps[0].receive(3, 5, collect(got))
        ch.s_eps[0].move_window(3, 8)
        ch.s_eps[1].move_window(3, 8)
        ch.run()
        assert got == [TooOld(8)]
        assert ch.r_eps[0].window(3).start == 8

    def test_replayed_move_ignored(self, rc_channel):
        ch = rc_channel
        recv = ch.r_eps[0]
        sender = ch.senders[0]
        recv.handle(sender, ChMove(ch.cfg.channel, 0, 9))
        assert recv.sender_moves[0][sender] == 9
        recv.handle(sender, ChMove(ch.cfg.channel, 0, 4))
        assert recv.sender_moves[0][sender] == 9


class TestScDelivery:
    def test_one_certificate_per_receiver(self, sc_channel, net_spy):
        ch = sc_channel
        spy = net_spy(ch.sim, ch.nodes.values())
        for ep in ch.s_eps:
            ep.send(0, 1, b"m")
        got = []
        for ep in ch.r_eps:
            ep.receive(0, 1, collect(got))
        ch.run()
        assert len(got) == 4
        assert all(o.payload == b"m" for o in got)
        certs = NetSpy.payloads(spy.delivered, "ChCert")
        assert len(certs) == len(ch.receivers)

    def test_divergent_share_still_certifies(self, sc_channel):
        ch = sc_channel
        ch.s_eps[0].send(0, 1, b"m")
        ch.s_eps[1].send(0, 1, b"m")
        ch.s_eps[2].send(0, 1, b"different")
        got = []
        ch.r_eps[0].receive(0, 1, collect(got))
        ch.run()
        assert [o.payload for o in got] == [b"m"]

    def test_bad_inner_share_rejects_whole_certificate(self, sc_channel):
        ch = sc_channel
        recv = ch.r_eps[0]
        node = ch.nodes[ch.senders[0]]
        from geobft.core.messages import ChCert, ChShare
        sm_digest = node.crypto.digest(ChSend(ch.cfg.channel, 0, 1, b"m"))
        good = node.crypto.sign(ChShare(ch.cfg.channel, 0, 1, sm_digest))
        bad = node.crypto.sign(b"unrelated")
        cert = ChCert(ch.cfg.channel, 0, 1, b"m", (good, bad))
        recv._on_cert(ch.senders[0], cert)
        assert recv.delivered.get(0, {}).get(1) is None

    def test_certificate_on_a_foreign_channel_names_no_subchannel(self, sc_channel):
        recv = sc_channel.r_eps[0]
        named = []
        recv.on_new_subchannel = named.append
        recv.handle(sc_channel.senders[0], ChCert(ChannelId("req", 2), 7, 1, b"m", ()))
        assert recv._known_sc == set()
        assert named == []

    def test_trusted_progress_claim_is_second_largest(self, sc_channel):
        recv = sc_channel.r_eps[0]
        recv.progress_claims[0] = {sc_channel.senders[0]: 5,
                                   sc_channel.senders[1]: 5,
                                   sc_channel.senders[2]: 1}
        assert recv._trusted_claim(0) == 5
        recv.progress_claims[1] = {sc_channel.senders[0]: 9}
        assert recv._trusted_claim(1) == 0

    def test_withholding_collector_switched_after_timeout(self):
        from geobft.simnet import FaultPlan, NodeFault
        plan = FaultPlan()
        plan.faults[__import__("geobft.core", fromlist=["ReplicaId"]).ReplicaId("ex", 1, 0)] = \
            NodeFault("byzantine", strategy="lying-collector")
        ch = Channel("sc", fault_plan=plan, seed=5)
        for ep in ch.s_eps:
            ep.send(0, 1, b"m")
        got = {}
        for i, ep in enumerate(ch.r_eps):
            ep.receive(0, 1, collect(got.setdefault(i, [])))
        ch.run(4000)
        # receiver 0 initially selects sender 0 (the withholding collector)
        assert all(outs and outs[0].payload == b"m" for outs in got.values())
        switches = [r for r in ch.sim.trace.records if r[1] == "collector_switch"]
        assert switches

    def test_stale_move_counter_ignored(self, sc_channel):
        ch = sc_channel
        snd = ch.s_eps[0]
        r = ch.receivers[0]
        snd._on_move(r, ChMove(ch.cfg.channel, 0, 5, collector=0, counter=3))
        assert snd.recv_moves[0][r] == 5
        snd._on_move(r, ChMove(ch.cfg.channel, 0, 9, collector=0, counter=3))
        assert snd.recv_moves[0][r] == 5

    def test_receiver_move_quorum_advances_sender_windows(self, sc_channel):
        ch = sc_channel
        for ep in ch.r_eps:
            ep.move_window(0, 11)
        ch.run()
        for ep in ch.s_eps:
            assert ep.window(0).start == 11


class TestScProgressClaims:
    """A sender claims progress only to the receivers whose moves have not
    passed every claimed position, when its claims change and once per
    collector timeout while they do not."""

    @staticmethod
    def _certify(ch, positions=(1, 2)):
        for p in positions:
            for ep in ch.s_eps:
                ep.send(0, p, b"m%d" % p)
        ch.run(300)

    @staticmethod
    def _claims_to(ch, spy, ms=200.0):
        """Per receiver, the ChProgress sends it gets over the next ms."""
        del spy.sent[:]
        ch.sim.run_until(ch.sim.now + ms)
        got = {r: 0 for r in ch.receivers}
        for _, dst, env in spy.sent:
            if type(env.payload).__name__ == "ChProgress":
                got[dst] += 1
        return got

    def test_no_claim_once_every_receiver_moved_past(self, net_spy):
        ch = Channel("sc")
        spy = net_spy(ch.sim)
        self._certify(ch)
        assert all(n > 0 for n in self._claims_to(ch, spy).values())
        for ep in ch.r_eps:
            ep.move_window(0, 3)
        ch.run(ch.sim.now + 200)
        assert all(ep.window(0).start == 3 for ep in ch.s_eps)
        assert set(self._claims_to(ch, spy).values()) == {0}
        del spy.sent[:]
        for ep in ch.s_eps:
            ep._progress_tick()
        assert NetSpy.payloads(spy.sent, "ChProgress") == []

    def test_only_the_lagging_receiver_gets_the_claim(self, net_spy):
        # cut off, the last receiver never hears the senders' window move
        plan = FaultPlan()
        lagging = ReplicaId("ag", 0, 3)
        plan.faults[lagging] = NodeFault("partition", at_ms=0.0, until_ms=float("inf"))
        ch = Channel("sc", fault_plan=plan)
        spy = net_spy(ch.sim)
        self._certify(ch)
        for ep in ch.r_eps[:-1]:
            ep.move_window(0, 3)
        ch.run(ch.sim.now + 200)
        got = self._claims_to(ch, spy)
        assert got.pop(lagging) > 0
        assert set(got.values()) == {0}

    def test_inflated_move_silences_only_its_sender(self, net_spy):
        ch = Channel("sc")
        spy = net_spy(ch.sim)
        self._certify(ch)
        liar = ch.receivers[0]
        for ep in ch.s_eps:
            ep._on_move(liar, ChMove(ch.cfg.channel, 0, 1000, collector=0, counter=1))
        assert all(ep.window(0).start == 1 for ep in ch.s_eps)  # one move moves nothing
        got = self._claims_to(ch, spy)
        assert got.pop(liar) == 0
        assert all(n > 0 for n in got.values())

    @staticmethod
    def _claim_log(ch, patch):
        """(time, sender, receiver, pvec) per ChProgress send from now on."""
        log = []
        send = ch.sim.send

        def spy_send(src, dst, env, channel=None):
            if type(env.payload).__name__ == "ChProgress":
                log.append((ch.sim.now, src, dst, env.payload.pvec))
            send(src, dst, env, channel)

        patch(ch.sim, "send", spy_send)
        return log

    @staticmethod
    def _withholding_collector_plan():
        # ex1:0 collects for ag0:0 and withholds its certificates
        plan = FaultPlan()
        plan.faults[ReplicaId("ex", 1, 0)] = NodeFault("byzantine",
                                                       strategy="lying-collector")
        return plan

    @staticmethod
    def _switches(ch, nid):
        return [r[0] for r in ch.sim.trace.records
                if r[1] == "collector_switch" and r[2] == str(nid)]

    def test_unchanged_claim_goes_out_once_per_collector_timeout(self, monkeypatch):
        ch = Channel("sc")
        self._certify(ch)
        log = self._claim_log(ch, monkeypatch.setattr)
        ch.run(ch.sim.now + 10 * ch.cfg.collector_timeout_ms)
        assert {pvec for _, _, _, pvec in log} == {((0, 2),)}  # unchanged
        for s in ch.senders:
            for r in ch.receivers:  # no receiver moved: each stays behind
                times = [t for t, src, dst, _ in log if (src, dst) == (s, r)]
                assert len(times) >= 9
                gaps = [b - a for a, b in zip(times, times[1:])]
                assert min(gaps) >= ch.cfg.collector_timeout_ms

    def test_new_certificate_reaches_every_behind_receiver_at_the_next_tick(
            self, monkeypatch):
        ch = Channel("sc")
        self._certify(ch, positions=(1,))
        log = self._claim_log(ch, monkeypatch.setattr)
        for ep in ch.s_eps:
            ep.send(0, 2, b"m2")
        certified = {}
        end = ch.sim.now + 2 * ch.cfg.collector_timeout_ms
        while ch.sim.now < end:  # 1 ms steps find when each sender certifies 2
            ch.sim.run_until(ch.sim.now + 1.0)
            for s, ep in zip(ch.senders, ch.s_eps):
                if 2 in ep.certs.get(0, {}):
                    certified.setdefault(s, ch.sim.now)
        assert set(certified) == set(ch.senders)
        for s, t_cert in certified.items():
            for r in ch.receivers:
                sent = [(t, pvec) for t, src, dst, pvec in log
                        if (src, dst) == (s, r) and t > t_cert - 1.0]
                t_new, pvec = sent[0]
                assert pvec == ((0, 2),)
                assert t_new <= t_cert + ch.cfg.progress_ms
                # the news goes out once; the next is the refresh
                assert [t for t, _ in sent if t < t_new + ch.cfg.collector_timeout_ms] \
                    == [t_new]

    def test_claim_dropped_by_a_partition_comes_again_after_the_heal(self, monkeypatch):
        plan = self._withholding_collector_plan()
        r0 = ReplicaId("ag", 0, 0)
        heal = 400.0
        plan.faults[r0] = NodeFault("partition", at_ms=0.0, until_ms=heal)
        ch = Channel("sc", fault_plan=plan)
        log = self._claim_log(ch, monkeypatch.setattr)
        got = []
        ch.r_eps[0].receive(0, 1, collect(got))
        for ep in ch.s_eps:
            ep.send(0, 1, b"m")
        ch.run(1000)
        dropped = [r for r in ch.sim.trace.records
                   if r[1] == "net_drop" and r[3] == str(r0) and r[4] == "ChProgress"]
        assert dropped and all(r[0] < heal for r in dropped)
        assert any(t >= heal for t, _, dst, _ in log if dst == r0)
        switches = self._switches(ch, r0)
        assert switches
        assert heal < switches[0] <= (heal + 2 * ch.cfg.collector_timeout_ms
                                      + ch.cfg.progress_ms)
        assert [o.payload for o in got] == [b"m"]

    def test_collector_timer_expiring_in_a_partition_switches_again_after_the_heal(self):
        """The receiver's collector timer runs through its partition: it
        switches collectors there (its moves drop) and again after the heal,
        so a collector that holds the certificate reaches it."""
        plan = self._withholding_collector_plan()
        r0 = ReplicaId("ag", 0, 0)
        heal = 400.0
        plan.faults[r0] = NodeFault("partition", at_ms=50.0, until_ms=heal)
        ch = Channel("sc", fault_plan=plan)
        got = []
        ch.r_eps[0].receive(0, 1, collect(got))
        for ep in ch.s_eps:
            ep.send(0, 1, b"m")
        ch.run(1000)
        switches = self._switches(ch, r0)
        assert any(50.0 < t < heal for t in switches)
        assert any(t >= heal for t in switches)
        assert [o.payload for o in got] == [b"m"]

    def test_receiver_that_waits_on_claims_it_holds_times_out_at_once(self):
        ch = Channel("sc", fault_plan=self._withholding_collector_plan())
        self._certify(ch, positions=(1,))
        recv = ch.r_eps[0]
        assert recv._trusted_claim(0) >= 1  # f_s+1 claims held before it waits
        assert self._switches(ch, recv.node.nid) == []
        t_wait = ch.sim.now
        got = []
        recv.receive(0, 1, collect(got))
        ch.run(t_wait + ch.cfg.collector_timeout_ms)
        assert self._switches(ch, recv.node.nid) == [t_wait + ch.cfg.collector_timeout_ms]
        ch.run(t_wait + 2 * ch.cfg.collector_timeout_ms)
        assert [o.payload for o in got] == [b"m1"]


class TestWideAreaEconomy:
    @pytest.mark.parametrize("variant,payload_kind,per_payload", [
        ("rc", "ChSend", 12), ("sc", "ChCert", 3)])
    def test_payload_transmissions_per_delivery(self, variant, payload_kind,
                                                per_payload, net_spy):
        ch = Channel(variant, n_s=4, n_r=3, f_s=1, f_r=1, seed=9)
        spy = net_spy(ch.sim)
        positions = 3
        done = {}
        for p in range(1, positions + 1):
            for ep in ch.s_eps:
                ep.send(0, p, b"pay%d" % p)
            for i, ep in enumerate(ch.r_eps):
                ep.receive(0, p, collect(done.setdefault((i, p), [])))
        ch.run(1500)
        assert all(v for v in done.values())
        sent = NetSpy.payloads(spy.sent, payload_kind)
        assert len(sent) == per_payload * positions


@pytest.mark.parametrize("variant", ["rc", "sc"])
class TestSenderMoves:
    """A sender sends a window move only to the receivers whose shown move
    is below it, on the window's advance and on each retransmit tick."""

    @staticmethod
    def _moves_to(ch, spy):
        """Per receiver, the ChMove sends the senders made to it so far."""
        got = {r: 0 for r in ch.receivers}
        for src, dst, env in spy.sent:
            if src in ch.senders and type(env.payload) is ChMove:
                got[dst] += 1
        return got

    def test_no_sync_to_a_receiver_that_showed_the_move(self, variant, net_spy):
        ch = Channel(variant)
        spy = net_spy(ch.sim)
        r0, r1, r2, r3 = ch.receivers
        for ep in ch.r_eps[:2]:  # f_r+1 moves advance every sender window
            ep.move_window(0, 11)
        ch.run(500)
        assert all(ep.window(0).start == 11 for ep in ch.s_eps + ch.r_eps)
        assert self._moves_to(ch, spy) == {r0: 0, r1: 0, r2: 3, r3: 3}
        # every receiver has now shown 11: a retransmit pass sends no move
        del spy.sent[:]
        for ep in ch.s_eps:
            ep._retransmit()
        assert NetSpy.payloads(spy.sent, "ChMove") == []

    def test_partitioned_receiver_gets_the_move_and_resolves_too_old(self, variant,
                                                                    net_spy):
        lagging = ReplicaId("ag", 0, 3)
        plan = FaultPlan()
        plan.faults[lagging] = NodeFault("partition", at_ms=0.0, until_ms=250.0)
        ch = Channel(variant, fault_plan=plan, retransmit_ms=100.0)
        spy = net_spy(ch.sim)
        got = []
        ch.r_eps[3].receive(0, 5, collect(got))
        for ep in ch.r_eps[:3]:
            ep.move_window(0, 8)
        ch.run(50)
        first = self._moves_to(ch, spy)
        assert first[lagging] == 3
        assert first[ch.receivers[0]] == first[ch.receivers[1]] == 0
        del spy.sent[:]
        ch.run(1000)
        assert got == [TooOld(8)]  # a tick after the partition heals
        # ticks at 100, 200 and 300 ms from each of three senders
        assert self._moves_to(ch, spy) == {r: 9 if r == lagging else 0
                                           for r in ch.receivers}

    def test_inflated_move_silences_only_the_liar(self, variant, net_spy):
        ch = Channel(variant)
        spy = net_spy(ch.sim)
        liar, r1, r2, r3 = ch.receivers
        for ep in ch.s_eps:
            ep.handle(liar, ChMove(ch.cfg.channel, 0, 1000, collector=0, counter=1))
        ch.r_eps[1].move_window(0, 11)
        ch.run(500)
        assert all(ep.window(0).start == 11 for ep in ch.s_eps)
        assert self._moves_to(ch, spy) == {liar: 0, r1: 0, r2: 3, r3: 3}
        assert ch.r_eps[2].window(0).start == ch.r_eps[3].window(0).start == 11

    def test_tick_resends_moves_only_to_receivers_behind(self, variant, net_spy):
        lagging = ReplicaId("ag", 0, 3)
        plan = FaultPlan()
        plan.faults[lagging] = NodeFault("partition", at_ms=0.0, until_ms=float("inf"))
        ch = Channel(variant, fault_plan=plan, retransmit_ms=100.0)
        spy = net_spy(ch.sim)
        for ep in ch.r_eps[:3]:
            ep.move_window(0, 11)
        ch.run(1000)
        del spy.sent[:]
        ch.run(1500)  # ticks at 1100 ... 1500
        moves = self._moves_to(ch, spy)
        assert moves.pop(lagging) == 5 * len(ch.senders)
        assert set(moves.values()) == {0}
