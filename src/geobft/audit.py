"""Trace auditors: execution/agreement safety, at-most-once execution,
request authenticity (an execute record holds its signed Write's op),
linearizability (real-time order plus replay on a reference
application), weak-read interval consistency, the IRMC contract's C1, C2
and MON (irmc/contract.py), and checkpoint-equivalence digests.

All checkers are pure functions of one AuditView, built once per audit in
a single pass over the trace: the records grouped by event (with the
order_deliver and cp_stable records in one trace-ordered list, and the
ch_move_call and ch_recv_tooold records in another), and the scenario facts
(fault plan, authorized clients). No checker reads the trace again, and
each judges a repeated fact once: a signed request once per distinct
(wr, sig) pair, a channel quorum once per distinct contributor set. The
linearization candidate is the agreement order, replayed once
(tests/test_audit.py cross-checks it against a brute-force search on tiny
histories).
"""
from __future__ import annotations

from bisect import bisect_right
from dataclasses import dataclass
from functools import cached_property
from operator import itemgetter

from .application import ABSENT, KvApplication, parse_op
from .core import ClientId, Sig, hash_bytes
from .core.codec import canonical_decode
from .core.messages import Write
from .irmc import contract
from .runtime import EndpointFactory


@dataclass
class Verdict:
    name: str
    ok: bool
    detail: str = ""


def _honest(plan, nid) -> bool:
    """Crashed or partitioned nodes stay honest; only byzantine ones lie."""
    fault = plan.for_node(nid)
    return fault is None or fault.kind != "byzantine"


class AuditView:
    """What every checker reads, computed once per audit. One pass over the
    trace groups the records by event (contract.group_records); the
    order_deliver and cp_stable records share one trace-ordered list
    (agreement_log, for the gap rule), as do the ch_move_call and
    ch_recv_tooold records (for C2). Then come the correct principals, the
    canonical execution order with its first conflict, and that order's
    replay, and each channel's thresholds by its trace name. The correct
    senders' channel sends are tabled on first use (correct_sends)."""

    def __init__(self, trace, cfg):
        self.cfg = cfg
        self.by_event = contract.group_records(
            trace.records, (("order_deliver", "cp_stable"), contract.CHANNEL_LOG))
        self.agreement_log = self.by_event["order_deliver"]
        plan = cfg.fault_plan
        self.correct_clients = {f"c{i}" for i in range(len(cfg.clients))
                                if plan.is_correct(ClientId(i))}
        self.correct_clients.add(str(cfg.admin_id))
        self.correct_ag = {str(r) for r in cfg.agreement_members() if _honest(plan, r)}
        # executors: execution-group members, and the agreement-role replicas
        # that execute in flat-bft mode (they never execute in spider or oracle)
        self.correct_replicas = self.correct_ag | {
            str(r) for gid in cfg.all_group_ids()
            for r in cfg.group_members(gid) if _honest(plan, r)}
        self.order, self.conflict = canonical_execution_order(
            self.events("execute"), self.correct_replicas)
        self.expected, self.history, self.unreadable_op = replay_reference(self.order)
        factory = EndpointFactory(cfg.irmc, cfg)  # each channel's (f_s, f_r, capacity)
        self.channels = {str(c.channel): (c.f_s, c.f_r, c.capacity)
                         for gid in cfg.all_group_ids()
                         for c in factory.channel_configs(gid, cfg.group_members(gid))}

    def events(self, name: str):
        """This event's records, in trace order (with the other events of
        its list, for an event of agreement_log or contract.CHANNEL_LOG)."""
        return self.by_event.get(name, ())

    @cached_property
    def correct_sends(self):
        """One scan of ch_send_call: (sent, commit, divergent). sent holds
        each (kind, sc, p, digest) a correct sender sent, in trace order
        (contract.correct_sends); commit maps each commit-channel (kind, p)
        to the first digest sent there (by correct agreement replicas, the
        commit channels' senders); divergent is the first (kind, p), in
        trace order, where another was sent."""
        sent = contract.correct_sends(self.by_event, self.correct_replicas)
        commit: dict = {}
        divergent = None
        for kind, sc, p, digest in sent:
            if kind.startswith("commit") and commit.setdefault((kind, p), digest) != digest \
                    and divergent is None:
                divergent = (kind, p)
        return sent, commit, divergent


def canonical_execution_order(executes, correct_replicas):
    """(s, idx) -> (c, t_c, op hex, kind) union over correct replicas,
    flagging any disagreement (the E-Safety core)."""
    order: dict = {}
    conflict = None
    per_replica_seen: dict = {}
    for t, event, src, dst, kind, digest, data in executes:
        if src not in correct_replicas:
            continue
        key = (data["s"], data.get("idx", 0))
        value = (data["c"], data["t_c"], data["op"], kind)
        held = order.get(key)
        if held is None:
            order[key] = value
        elif held != value and conflict is None:
            conflict = f"position {key}: {held} vs {value} at {src}"
        seen = per_replica_seen.setdefault(src, {})
        pair = (data["c"], data["t_c"])
        if pair in seen and conflict is None:
            conflict = f"{src} executed {pair} twice (positions {seen[pair]}, {key})"
        seen[pair] = key
    return order, conflict


def replay_reference(order):
    """Replays the canonical order; returns expected replies, key histories
    and the first position, if any, whose op is not hex (it is not replayed,
    and the replay verdict fails on it)."""
    app = KvApplication()
    expected: dict = {}
    history: dict = {}  # key -> list of (s, value)
    unreadable = None
    for key_pos in sorted(order):
        c, t_c, op_hex, kind = order[key_pos]
        try:
            op = bytes.fromhex(op_hex)
        except (TypeError, ValueError):
            if unreadable is None:
                unreadable = key_pos
            continue
        if kind == "read":
            reply = app.execute_readonly(op)
        else:
            reply = app.execute(op)
            decoded = parse_op(op)
            if decoded is not None and decoded[0] == "put":
                history.setdefault(decoded[1], []).append((key_pos[0], decoded[2]))
        expected[(c, t_c)] = reply
    return expected, history, unreadable


def _decoded(text):
    """The value a hex field of a trace record encodes, or None if the field
    is not the hex of a canonical encoding. A trace file is outside input."""
    try:
        return canonical_decode(bytes.fromhex(text))
    except (TypeError, ValueError):  # not a str, not hex, or a CodecError
        return None


def check_execute_equality(view) -> Verdict:
    placements: dict = {}
    for key, (c, t_c, op, kind) in sorted(view.order.items()):
        held = placements.get((c, t_c))
        if held is not None:
            return Verdict("execute_equality", False,
                           f"({c},{t_c}) executed at {held} and {key}")
        placements[(c, t_c)] = key
    if view.conflict:
        return Verdict("execute_equality", False, view.conflict)
    return Verdict("execute_equality", True, f"{len(view.order)} executed positions")


def check_agreement_safety(view) -> Verdict:
    """A-Safety and A-Order over the order_deliver trace of correct replicas.

    A gap is covered only by a cp_stable recorded before the jumping delivery
    in trace order (records can share a timestamp), so this checker walks the
    view's agreement_log, which keeps both events in trace order."""
    correct_ag = view.correct_ag
    per_s: dict = {}
    per_replica_last: dict = {}
    jumps: dict = {}
    for t, event, src, dst, kind, digest, data in view.agreement_log:
        if src not in correct_ag:
            continue
        if event == "cp_stable" and kind == "ag":
            jumps.setdefault(src, []).append(data["s"])
        if event != "order_deliver":
            continue
        s = data["s"]
        held = per_s.get(s)
        if held is None:
            per_s[s] = digest
        elif held != digest:
            return Verdict("agreement_safety", False,
                           f"sequence {s}: conflicting batches delivered")
        last = per_replica_last.get(src, 0)
        if s <= last:
            return Verdict("agreement_safety", False,
                           f"{src} delivered {s} after {last}")
        if s > last + 1:
            covered = any(cp >= s - 1 for cp in jumps.get(src, ()))
            if not covered:
                return Verdict("agreement_safety", False,
                               f"{src} gap {last}->{s} without checkpoint")
        per_replica_last[src] = s
    return Verdict("agreement_safety", True, f"{len(per_s)} sequences")


def check_validity(view) -> Verdict:
    """E-Validity: every executed request re-verifies against its authenticator,
    and the record's op, c and t_c are those of that signed Write.

    Correct replicas execute the same signed request, so each distinct
    (wr, sig) pair is decoded and checked once, and its Write's (op, c, t_c)
    kept; a pair that fails, fails at its first record in trace order."""
    cfg = view.cfg
    authorized = {i for i in range(len(cfg.clients))} | {cfg.admin_id.index}
    verified: dict = {}  # (wr, sig) -> its Write's (op hex, c, t_c)
    checked = 0
    for t, event, src, dst, kind, digest, data in view.events("execute"):
        if src not in view.correct_replicas:
            continue
        pair = (data.get("wr"), data.get("sig"))
        signed = verified.get(pair)
        if signed is None:
            if None in pair:
                return Verdict("validity", False,
                               f"execute at s={data['s']} carries no signed request")
            write, sig = _decoded(pair[0]), _decoded(pair[1])
            if type(write) is not Write or type(sig) is not Sig:
                return Verdict("validity", False,
                               f"execute by {src} at t={t} s={data['s']}: wr or sig "
                               f"is not the encoding of a Write or a Sig")
            if write.client.index not in authorized:
                return Verdict("validity", False, f"unauthorized client {write.client}")
            if sig.signer != write.client:
                return Verdict("validity", False, f"signer mismatch at s={data['s']}")
            if sig.digest != hash_bytes(bytes.fromhex(pair[0])):
                return Verdict("validity", False, f"bad signature at s={data['s']}")
            signed = verified[pair] = (write.op.hex(), write.client.index, write.t_c)
        if (data.get("op"), data.get("c"), data.get("t_c")) != signed:
            return Verdict("validity", False,
                           f"execute by {src} at t={t} s={data['s']}: op, c or t_c "
                           f"is not that of its signed Write")
        checked += 1
    return Verdict("validity", True, f"{checked} executions re-verified")


def check_realtime_order(view) -> Verdict:
    """Accepted-before-issued implies lower agreement sequence (E-Safety II core)."""
    seq_of = {}
    for key, (c, t_c, op, kind) in sorted(view.order.items()):
        seq_of.setdefault((c, t_c), key)
    strong = ("write", "read_strong", "admin")
    events = []
    for rank, what in enumerate(("issue", "accept")):
        for t, _, src, dst, kind, digest, data in view.events("client_" + what):
            if src in view.correct_clients and kind in strong:
                events.append((t, rank, what, src, data["t_c"]))
    # the sort is stable, so records of one event at one time keep trace order
    events.sort(key=lambda e: (e[0], e[1]))
    max_accepted = None
    for t, _, what, src, t_c in events:
        key = seq_of.get((int(src[1:]), t_c))
        if what == "accept":
            if key is not None and (max_accepted is None or key > max_accepted):
                max_accepted = key
        else:
            if key is not None and max_accepted is not None and key <= max_accepted:
                return Verdict("realtime_order", False,
                               f"{src} t_c={t_c} at {key} issued after accept of {max_accepted}")
    return Verdict("realtime_order", True, f"{len(events)} ordered events")


def check_replay(view) -> Verdict:
    """Every accepted strong reply equals the reply the replayed prefix computes."""
    if view.unreadable_op is not None:
        s, idx = view.unreadable_op
        t, _, src, _, _, _, data = next(
            r for r in view.events("execute") if r[2] in view.correct_replicas
            and (r[6]["s"], r[6].get("idx", 0)) == (s, idx))
        return Verdict("replay", False,
                       f"execute by {src} at t={t} s={s} idx={idx}: op {data['op']!r} "
                       f"is not hex")
    checked = 0
    for t, event, src, dst, kind, digest, data in view.events("client_accept"):
        if kind not in ("write", "read_strong") or src not in view.correct_clients:
            continue
        want = view.expected.get((int(src[1:]), data["t_c"]))
        if want is None:
            return Verdict("replay", False,
                           f"{src} accepted t_c={data['t_c']} never executed")
        if want.hex() != data["reply"]:
            return Verdict("replay", False,
                           f"{src} t_c={data['t_c']}: accepted {data['reply'][:16]} "
                           f"expected {want.hex()[:16]}")
        checked += 1
    return Verdict("replay", True, f"{checked} replies replayed")


def check_weak_reads(view) -> Verdict:
    """Weak replies match the serving group's state at a point inside the
    read's issue-response interval (one-copy serializability at desk scale)."""
    history = view.history

    def value_at_s(key, s):
        versions = history.get(key, ())  # (s, value), in s order
        i = bisect_right(versions, s, key=itemgetter(0))
        return versions[i - 1][1] if i else ABSENT

    serves: dict = {}  # (client, nonce) -> [(time, s_n)] by correct replicas
    for t, event, src, dst, kind, digest, data in view.events("weak_serve"):
        if src in view.correct_replicas:
            serves.setdefault((dst, data["nonce"]), []).append((t, data["s_n"]))
    weak_ops: dict = {}  # (client, issue time) -> key read
    for t, event, src, dst, kind, digest, data in view.events("client_issue"):
        if kind == "read_weak":
            op = _decoded(data.get("op"))
            if type(op) is not tuple or len(op) != 2 or op[0] != "get":
                return Verdict("weak_reads", False,
                               f"client_issue by {src} at t={t}: op is not the "
                               f"encoding of a get")
            weak_ops[(src, round(t, 6))] = op[1]
    checked = 0
    for t, event, src, dst, kind, digest, data in view.events("client_accept"):
        if kind != "read_weak" or src not in view.correct_clients:
            continue
        issued = round(data["issued"], 6)
        try:
            reply = bytes.fromhex(data["reply"])
        except (TypeError, ValueError):
            return Verdict("weak_reads", False,
                           f"client_accept by {src} at t={t}: reply "
                           f"{data['reply']!r} is not hex")
        key = weak_ops.get((src, issued))
        if key is None:
            continue
        if not any(issued <= ts <= t and value_at_s(key, s_n) == reply
                   for ts, s_n in serves.get((src, data["t_c"]), ())):
            return Verdict("weak_reads", False,
                           f"{src} weak read of {key} at {t:.1f}: reply matches no "
                           f"serving state in interval")
        checked += 1
    return Verdict("weak_reads", True, f"{checked} weak reads verified")


def _channel_verdict(name, judged, what) -> Verdict:
    """A verdict from a contract property: its first violation, or a count."""
    violations, n = judged
    if violations:
        return Verdict(name, False, violations[0])
    return Verdict(name, True, f"{n} {what}")


def check_channel_quorums(view) -> Verdict:
    """IRMC provenance (C1): every delivery carries an f_s+1 quorum including
    a correct sender that actually sent that content."""
    sent, _, _ = view.correct_sends
    return _channel_verdict("channel_quorums", contract.c1(
        view.by_event, view.correct_replicas, view.channels, sent), "deliveries vouched")


def check_tooold_moves(view) -> Verdict:
    """C2: every TooOld follows a correct move to its new window start."""
    return _channel_verdict("tooold_moves", contract.c2(
        view.by_event, view.correct_replicas), "TooOlds backed by an earlier move")


def check_commit_content(view) -> Verdict:
    """Monotone commit-channel content: the payload sent at a position is
    identical across all correct agreement replicas (the projection lemma)."""
    _, commit, divergent = view.correct_sends
    if divergent is not None:
        kind, p = divergent
        return Verdict("commit_content", False,
                       f"{kind} position {p}: divergent payloads "
                       f"from correct agreement replicas")
    return Verdict("commit_content", True, f"{len(commit)} positions compared")


def check_window_monotonicity(view) -> Verdict:
    """MON: no endpoint's window start ever falls."""
    return _channel_verdict("window_monotonicity", contract.mon(view.by_event), "windows")


def check_cp_equivalence(view) -> Verdict:
    """Checkpoint path and delivery path reach identical state digests."""
    ag_digests: dict = {}
    ex_full: dict = {}
    ex_projected: dict = {}
    for t, event, src, dst, kind, digest, data in view.events("state_digest"):
        if kind == "ag" and src in view.correct_ag:
            held = ag_digests.setdefault(data["s"], digest)
            if held != digest:
                return Verdict("cp_equivalence", False,
                               f"agreement state divergence at s={data['s']}")
        elif kind == "ex" and src in view.correct_replicas:
            group = src.split(":")[0]
            held = ex_full.setdefault((group, data["s"]), digest)
            if held != digest:
                return Verdict("cp_equivalence", False,
                               f"execution state divergence in {group} at s={data['s']}")
            proj = data["projected"]
            heldp = ex_projected.setdefault(data["s"], proj)
            if heldp != proj:
                return Verdict("cp_equivalence", False,
                               f"cross-group execution divergence at s={data['s']}")
    n = len(ag_digests) + len(ex_full)
    return Verdict("cp_equivalence", True, f"{n} digest points compared")


def check_liveness(view) -> Verdict:
    """Every correct-client request resolves within the horizon: a strong
    one, keyed by t_c, is accepted or resubmitted, and a weak read, keyed by
    its first issue time, is accepted or escalated."""
    issued = {False: {}, True: {}}  # weak? -> keys, in issue order
    done: set = set()  # (weak?, key)
    for event in ("client_issue", "client_accept", "client_resubmit", "client_escalate"):
        for t, _, src, dst, kind, digest, data in view.events(event):
            if src in view.correct_clients:
                weak = kind == "read_weak"
                at = data["t_c"] if not weak else round(
                    t if event == "client_issue" else data["issued"], 6)
                if event == "client_issue":
                    issued[weak][(src, at)] = None
                else:
                    done.add((weak, (src, at)))
    for weak, what in ((False, "strong requests"), (True, "weak reads")):
        missing = [k for k in issued[weak] if (weak, k) not in done]
        if missing:
            return Verdict("liveness", False,
                           f"{len(missing)} {what} unresolved, e.g. {missing[0]}")
    return Verdict("liveness", True,
                   f"{len(issued[False])} strong + {len(issued[True])} weak resolved")


STANDARD_CHECKS = (
    check_agreement_safety,
    check_execute_equality,
    check_validity,
    check_realtime_order,
    check_replay,
    check_weak_reads,
    check_channel_quorums,
    check_tooold_moves,
    check_commit_content,
    check_window_monotonicity,
    check_cp_equivalence,
    check_liveness,
)


def audit_trace(trace, cfg, skip_liveness: bool = False) -> dict:
    return audit_view(AuditView(trace, cfg), skip_liveness)


def _judge(check, view) -> Verdict:
    """check's verdict; a trace file is outside input, so a record that
    lacks a data field the check reads fails the check, naming the field."""
    try:
        return check(view)
    except KeyError as missing:
        return Verdict(check.__name__.removeprefix("check_"), False,
                       f"a record lacks the data field {missing}")


def audit_view(view: AuditView, skip_liveness: bool = False) -> dict:
    """Every standard check's verdict on a view already built."""
    verdicts = [_judge(check, view) for check in STANDARD_CHECKS
                if not (skip_liveness and check is check_liveness)]
    return {v.name: (v.ok, v.detail) for v in verdicts}
