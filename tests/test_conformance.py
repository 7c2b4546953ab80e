"""Randomized conformance schedules per variant (the full 1000-schedule
suites run in the acceptance module)."""
import copy
import hashlib

import pytest

from geobft.audit import AuditView, audit_view
from geobft.core.messages import ChCert, ChMove, ChProgress, ChSend
from geobft.harness import run_scenario
from geobft.irmc import RcReceiver, RcSender, ScReceiver, ScSender
from geobft.irmc import conformance
from geobft.irmc.conformance import make_factory, run_conformance, run_schedule
from geobft.simnet import Simulator

FACTORIES = {
    "rc": make_factory(RcSender, RcReceiver),
    "sc": make_factory(ScSender, ScReceiver),
}


@pytest.mark.parametrize("variant", ["rc", "sc"])
@pytest.mark.parametrize("f", [1, 2])
def test_conformance_sample(variant, f):
    report = run_conformance(FACTORIES[variant], f, f, seed=1000 + f,
                             schedules=60)
    assert report.ok, report.failures[:5]
    assert report.deliveries > 0
    assert report.too_olds > 0  # skip paths exercised


@pytest.mark.parametrize("variant", ["rc", "sc"])
def test_schedule_deterministic(variant):
    a = run_schedule(FACTORIES[variant], 1, 1, seed=777)
    b = run_schedule(FACTORIES[variant], 1, 1, seed=777)
    assert a == b


# Behaviour guard for the IRMC layer under every Byzantine strategy the
# schedules draw: (deliveries, TooOlds, failures, hash of the schedules'
# trace digests) of one f=2 batch. A change that alters channel behaviour
# on purpose updates the literals and says why.
#
# Data goes only to receivers not past it: an rc Send or an sc certificate
# for p skips each receiver whose shown move is above p (729 fewer ChSend,
# 8,717 -> 7,988, and 106 fewer ChCert, 1,070 -> 964). No trace digest of
# the 28 jitter-free schedules (of both variants) moves. In the jittered ones
# the skipped sends re-draw the jitter of every later send, which moves 27 of
# 32 digests, the sc deliveries and TooOlds (681/244 -> 680/246) and the
# counts below.
#
# A window advance syncs the receivers still behind one progress period (20 ms
# here) later, to the latest start. rc: no jitter-free digest moved; the fewer
# moves re-draw the jitter of later sends in 15 of 16 jittered schedules (was
# 1f0d8b94...). sc: 26 of 30 digests moved, and 154 fewer asks resolve: 153
# fewer TooOlds and one delivery fewer. No schedule gains a delivery (in
# 103289687 the re-drawn jitter only swaps which of ag0:1 and ag0:3 takes 6
# and which gets TooOld(8)). A correct receiver whose collector withholds
# delivers nothing until it switches, and used to walk the window one TooOld
# per advance (TooOld(2), (3), (4), (5), each a new ask); the one deferred
# sync takes it to the latest start at once (TooOld(5), then (9)). The one
# delivery fewer is jittered schedule 1001219867: ag0:1's certificate for 5
# now lands after the senders' skip move to 7 (was 680, 246, f2146098...).
PINNED_BATCH = {
    "rc": (944, 32, [], "e6619acba1e1660dcd57c2cb6e379be3"),
    # claims sent on change and refreshed once per collector timeout: the
    # skipped sends re-draw the jitter of every later send in each schedule
    "sc": (679, 93, [], "21005a819d3e68c68c48e278f08eca02"),
}
# ChProgress sends of the same batch: sc senders claim progress only to the
# receivers not known to be past every claim, when the claims change and once
# per collector timeout while they do not; rc has no progress claims.
# sc moved with the re-drawn jitter of its certificates sent only to
# receivers not past them (3,417 -> 3,420).
# sc moved with the deferred sync: a synced receiver shows its new window only
# after the sync reaches it, one progress period later, and the progress ticks
# of that period still claim to it (3,420 -> 3,474).
PINNED_PROGRESS_SENDS = {"rc": 0, "sc": 3474}
# ChMove sends of the same batch, both directions: a sender sends its window
# move only to the receivers whose shown move is below it. sc moved with the
# re-drawn jitter of its quieter claims (681 deliveries, not 676). Both moved
# with the re-drawn jitter of data sent only to receivers not past it (rc
# 11,089 -> 11,115, sc 11,100 -> 11,113), in jittered schedules only.
# Both fell with the deferred sync: it goes only to the receivers that have
# not moved within one progress period, once per period however often the
# window advanced, and a receiver it no longer moves announces no move back
# (rc 11,115 -> 7,604, sc 11,113 -> 6,897).
PINNED_MOVE_SENDS = {"rc": 7604, "sc": 6897}


@pytest.mark.parametrize("variant", sorted(PINNED_BATCH))
def test_pinned_conformance_batch(variant, monkeypatch):
    digests = []
    original = conformance.audit_schedule

    def audit(trace, *args):
        digests.append(trace.digest())
        return original(trace, *args)

    progress = []
    moves = []
    send = Simulator.send

    def counted_send(sim, src, dst, env, channel=None):
        if type(env.payload) is ChProgress:
            progress.append(dst)
        elif type(env.payload) is ChMove:
            moves.append(dst)
        send(sim, src, dst, env, channel)

    monkeypatch.setattr(conformance, "audit_schedule", audit)
    monkeypatch.setattr(Simulator, "send", counted_send)
    report = run_conformance(FACTORIES[variant], 2, 2, seed=1002, schedules=30)
    assert len(digests) == 30
    joined = hashlib.blake2b("".join(digests).encode(), digest_size=16).hexdigest()
    assert (report.deliveries, report.too_olds, report.failures, joined) == \
        PINNED_BATCH[variant]
    assert (len(progress), len(moves)) == \
        (PINNED_PROGRESS_SENDS[variant], PINNED_MOVE_SENDS[variant])


@pytest.mark.parametrize("variant", ["rc", "sc"])
@pytest.mark.parametrize("f", [1, 2])
def test_no_data_to_a_receiver_past_it(variant, f, monkeypatch):
    """A correct sender sends an rc Send or an sc certificate for p only to
    the receivers whose shown move at that sender is at most p: a correct
    receiver's window is at its own moves, and it drops what lies below."""
    past = []
    sent = []
    send = Simulator.send

    def checked_send(sim, src, dst, env, channel=None):
        msg = env.payload
        fault = sim.faults.for_node(src)
        if type(msg) in (ChSend, ChCert) and (fault is None or fault.kind != "byzantine"):
            sent.append(msg)
            shown = sim._nodes[src].endpoint.recv_moves[msg.sc].get(dst, 0)
            if shown > msg.p:
                past.append((str(src), str(dst), msg.sc, msg.p, shown))
        send(sim, src, dst, env, channel)

    monkeypatch.setattr(Simulator, "send", checked_send)
    report = run_conformance(FACTORIES[variant], f, f, seed=1000 + f, schedules=20)
    assert report.ok, report.failures[:5]
    assert sent
    assert past == []


@pytest.fixture(scope="module")
def schedule():
    """The audit inputs of one honest rc schedule (f=1, seed 1) that has a
    TooOld skipping past its position."""
    captured = []
    original = conformance.audit_schedule

    def capture(trace, cfg, correct_s, correct_r, outstanding, report):
        captured.append((trace, cfg, correct_s, correct_r, outstanding))
        return original(trace, cfg, correct_s, correct_r, outstanding, report)

    conformance.audit_schedule = capture
    try:
        assert run_schedule(FACTORIES["rc"], 1, 1, seed=1) == []
    finally:
        conformance.audit_schedule = original
    return captured[0]


def _audit(schedule, mutate):
    trace, cfg, correct_s, correct_r, outstanding = schedule
    mutated = copy.deepcopy(trace)
    mutate(mutated.records, {str(n) for n in correct_s | correct_r})
    return conformance.audit_schedule(mutated, cfg, correct_s, correct_r,
                                      dict(outstanding), None)


def _at_correct(records, correct, event):
    return next(i for i, r in enumerate(records) if r[1] == event
                and r[2] in correct)


def _unsent_delivery(records, correct):
    i = _at_correct(records, correct, "irmc_deliver")
    records[i] = records[i][:5] + ("0" * 32,) + records[i][6:]


def _quorum_too_small(records, correct):
    i = _at_correct(records, correct, "irmc_deliver")
    data = records[i][6]
    one = next(s for s in data["senders"].split(";") if s in correct)
    records[i] = records[i][:6] + ({**data, "senders": one},)


def _backward_window(records, correct):
    last = next(r for r in reversed(records) if r[1] == "win_move")
    records.append(last[:6] + ({**last[6], "start": last[6]["start"] - 1},))


def _tooold_before_its_moves(records, correct):
    """The first TooOld that skips a position, with every move of its
    subchannel to its new start or beyond put after it."""
    j = next(i for i, r in enumerate(records) if r[1] == "ch_recv_tooold"
             and r[2] in correct and r[6]["p"] < r[6]["new_start"])
    kind, sc, new_start = records[j][4], records[j][6]["sc"], records[j][6]["new_start"]
    backing = [i for i in range(j) if records[i][1] == "ch_move_call"
               and records[i][4] == kind and records[i][6]["sc"] == sc
               and records[i][6]["p"] >= new_start]
    assert backing
    moved = [records[i] for i in backing]
    for i in reversed(backing):
        del records[i]
    j -= len(backing)
    records[j + 1:j + 1] = moved


# (defect, the property it breaks, the full-run verdict of that property,
# what the violation says)
CHANNEL_DEFECTS = [
    (_unsent_delivery, "C1", "channel_quorums", "content never sent by a correct sender"),
    (_quorum_too_small, "C1", "channel_quorums", ": quorum 1"),
    (_backward_window, "MON", "window_monotonicity", "moved backwards"),
    (_tooold_before_its_moves, "C2", "tooold_moves", "without a correct move"),
]


@pytest.fixture(scope="module")
def ag_outage():
    """A full run whose agreement replicas get 4 TooOlds that skip a position."""
    system, report = run_scenario("ag-outage", 1)
    assert report.ok, report.verdicts
    return system.cfg, system.sim.trace


@pytest.mark.parametrize("defect, prop, verdict, says", CHANNEL_DEFECTS,
                         ids=["unsent-delivery", "quorum-too-small", "backward-window",
                              "tooold-before-its-moves"])
def test_both_callers_catch(schedule, ag_outage, defect, prop, verdict, says):
    """A seeded channel defect fails the shared contract property both in a
    conformance schedule's audit and in a full run's verdicts."""
    violations = _audit(schedule, defect)
    assert any(v.startswith(prop + " ") and says in v for v in violations), violations
    cfg, trace = ag_outage
    view = AuditView(trace, cfg)
    mutated = copy.copy(trace)
    mutated.records = list(trace.records)
    defect(mutated.records, view.correct_replicas)
    failed = {name: detail for name, (ok, detail)
              in audit_view(AuditView(mutated, cfg)).items() if not ok}
    assert list(failed) == [verdict], failed
    assert failed[verdict].startswith(prop + " ") and says in failed[verdict]


def test_audit_catches_unresolved_receive(schedule):
    def mutate(records, correct):
        del records[_at_correct(records, correct, "ch_recv_msg")]
    assert any(v.startswith("L1") and "stuck" in v
               for v in _audit(schedule, mutate))
