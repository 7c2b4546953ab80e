"""The IRMC contract's trace properties, for the conformance suite
(irmc/conformance.py) and the full-run audit (audit.py):

  C1  a delivery at a correct receiver carries an f_s+1 quorum with a
      correct contributor, and content that a correct sender sent
  C2  every TooOld at a correct receiver follows, in trace order, a
      move_window call at a correct endpoint to its new start or beyond
  L1  a position that f_s+1 correct senders sent identically, and whose
      send returned at f_s+1 of them, resolves (message or TooOld) at
      every correct receiver that asked for it
  L2  once f_r+1 correct receivers move to p, every correct send below
      p + capacity returns
  MON window starts never decrease at any endpoint

Each is a pure function of the records grouped by event (group_records),
the trace names of the correct nodes and, where it needs them, each
channel's (f_s, f_r, capacity) by its trace name, and returns its
violations (C1, C2 and MON also how many records or windows they
judged). Full runs check C1, C2 and MON only: L1 and L2 would need a
rule for the asks still outstanding when a channel closes or the run
ends.
"""
from __future__ import annotations

from collections import Counter, defaultdict

from ..core.quorum import backed_position

# C2 reads each TooOld against the moves before it, so they share one list
CHANNEL_LOG = ("ch_move_call", "ch_recv_tooold")


def group_records(records, logs=(CHANNEL_LOG,)) -> dict:
    """The records by event, in one pass and in trace order. The events of
    each tuple in logs share one list, which keeps their relative order."""
    by_event = defaultdict(list)
    for events in logs:
        by_event.update(dict.fromkeys(events, []))  # one list for them all
    for record in records:
        by_event[record[1]].append(record)
    return by_event


def correct_sends(by_event, correct) -> dict:
    """(kind, sc, p, digest) -> the correct senders that sent it, in order."""
    sent: dict = {}
    for t, event, src, dst, kind, digest, data in by_event.get("ch_send_call", ()):
        if src in correct:
            sent.setdefault((kind, data["sc"], data["p"], digest), {})[src] = None
    return sent


def c1(by_event, correct, channels, sent):
    """C1; sent holds each (kind, sc, p, digest) a correct sender sent.
    Each distinct contributor set of a channel is judged once."""
    violations, judged, n = [], {}, 0
    for t, event, src, dst, kind, digest, data in by_event.get("irmc_deliver", ()):
        if src not in correct:
            continue
        n += 1
        quorum = (kind, data["senders"])
        fault = judged.get(quorum)
        if fault is None:
            contributors = quorum[1].split(";")
            f_s = channels[kind][0] if kind in channels else None
            fault = judged[quorum] = (
                "not a channel of this run" if f_s is None
                else f"quorum {len(contributors)}" if len(contributors) <= f_s
                else "" if any(x in correct for x in contributors)
                else "no correct contributor")
        if not fault and (kind, data["sc"], data["p"], digest) not in sent:
            fault = "content never sent by a correct sender"
        if fault:
            violations.append(f"C1 {kind} sc={data['sc']} p={data['p']} at {src}: {fault}")
    return violations, n


def c2(by_event, correct):
    """C2 over every TooOld at a correct receiver."""
    violations, moved, n = [], {}, 0  # moved: (kind, sc) -> highest correct move
    for t, event, src, dst, kind, digest, data in by_event.get("ch_move_call", ()):
        if src not in correct:
            continue
        key = (kind, data["sc"])
        if event == "ch_move_call":
            if data["p"] > moved.get(key, 0):
                moved[key] = data["p"]
            continue
        n += 1
        new_start = data["new_start"]
        if data["p"] < new_start and moved.get(key, 0) < new_start:
            violations.append(f"C2 {kind} sc={key[1]} p={data['p']} at {src}: "
                              f"TooOld({new_start}) without a correct move")
    return violations, n


def mon(by_event):
    """MON over every window move, at correct and faulty endpoints alike."""
    violations, last = [], {}
    for t, event, src, dst, kind, digest, data in by_event.get("win_move", ()):
        key = (src, kind, data["sc"])
        if data["start"] < last.get(key, 0):
            violations.append(f"MON {kind} sc={data['sc']} at {src}: moved backwards")
        last[key] = data["start"]
    return violations, len(last)


def _positions(by_event, event, correct=None) -> dict:
    """(node, kind, sc, p) of each record of event, once each, in trace
    order; only the correct nodes' when correct is given."""
    return dict.fromkeys((r[2], r[4], r[6]["sc"], r[6]["p"]) for r in by_event.get(event, ())
                         if r[1] == event and (correct is None or r[2] in correct))


def l1_l2(by_event, correct, channels, sent) -> list:
    """L1's violations over every ask of a correct receiver, then L2's over
    every correct send; sent is correct_sends'."""
    returned = _positions(by_event, "ch_send_done", correct)
    n_returned = Counter(key[1:] for key in returned)
    settled = {(kind, sc, p) for (kind, sc, p, _), senders in sent.items()
               if min(len(senders), n_returned[(kind, sc, p)]) > channels[kind][0]}
    resolved = {**_positions(by_event, "ch_recv_msg"), **_positions(by_event, "ch_recv_tooold")}
    violations = [f"L1 {kind} sc={sc} p={p} at {r}: receiver stuck"
                  for r, kind, sc, p in _positions(by_event, "ch_recv_call", correct)
                  if (kind, sc, p) in settled and (r, kind, sc, p) not in resolved]
    moves = defaultdict(dict)  # (kind, sc) -> correct receiver -> highest move
    for t, event, src, dst, kind, digest, data in by_event.get("ch_move_call", ()):
        if event == "ch_move_call" and data["side"] == "r" and src in correct:
            row = moves[(kind, data["sc"])]
            row[src] = max(row.get(src, 0), data["p"])
    for (kind, sc, p, _), senders in sent.items():
        _, f_r, capacity = channels[kind]
        row = moves[(kind, sc)]
        if len(row) > f_r and p < backed_position(row, f_r, 0) + capacity:
            violations += [f"L2 {kind} sc={sc} p={p} at {snd}: send never returned"
                           for snd in senders if (snd, kind, sc, p) not in returned]
    return violations
