"""Trace auditors: execution/agreement safety, at-most-once execution,
request authenticity (an execute record holds its signed Write's op),
linearizability (real-time order plus replay on a reference
application), weak-read interval consistency, channel quorum
provenance, window monotonicity, and checkpoint-equivalence digests.

All checkers are pure functions of one AuditView, built once per audit in
a single pass over the trace: the records grouped by event, the
order_deliver and cp_stable records in trace order, and the scenario facts
(fault plan, authorized clients). No checker reads the trace again, and
each judges a repeated fact once: a signed request once per distinct
(wr, sig) pair, a channel quorum once per distinct contributor set. The
linearization candidate is the agreement order, replayed once
(tests/test_audit.py cross-checks it against a brute-force search on tiny
histories).
"""
from __future__ import annotations

from collections import defaultdict
from dataclasses import dataclass
from functools import cached_property

from .application import ABSENT, KvApplication, parse_op
from .core import ClientId, Sig, hash_bytes
from .core.codec import canonical_decode
from .core.messages import Write


@dataclass
class Verdict:
    name: str
    ok: bool
    detail: str = ""

    def as_pair(self):
        return (self.ok, self.detail)


def _honest(plan, nid) -> bool:
    """Crashed or partitioned nodes stay honest; only byzantine ones lie."""
    fault = plan.for_node(nid)
    return fault is None or fault.kind != "byzantine"


class AuditView:
    """What every checker reads, computed once per audit. One pass over the
    trace groups the records by event and keeps the order_deliver and
    cp_stable records together in trace order (agreement_log, for the gap
    rule). Then come the correct principals, the canonical execution order
    with its first conflict, and that order's replay. The correct senders'
    channel sends are tabled on first use (correct_sends)."""

    def __init__(self, trace, cfg):
        self.trace = trace
        self.cfg = cfg
        by_event = self._by_event = defaultdict(list)
        agreement_log = self.agreement_log = []
        for record in trace.records:
            event = record[1]
            by_event[event].append(record)
            if event == "order_deliver" or event == "cp_stable":
                agreement_log.append(record)
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

    def events(self, name: str):
        """This event's records, in trace order."""
        return self._by_event.get(name, ())

    @cached_property
    def correct_sends(self):
        """One scan of ch_send_call: (sent, commit, divergent). sent holds
        each (kind, sc, p, digest) a correct sender sent; commit maps each
        commit-channel (kind, p) to the first digest a correct agreement
        replica sent there; divergent is the first (kind, p), in trace
        order, where a correct agreement replica sent another."""
        correct, correct_ag = self.correct_replicas, self.correct_ag
        sent: set = set()
        commit: dict = {}
        divergent = None
        for t, event, src, dst, kind, digest, data in self.events("ch_send_call"):
            if src not in correct:
                continue
            p = data["p"]
            sent.add((kind, data["sc"], p, digest))
            if src in correct_ag and kind.startswith("commit"):
                held = commit.setdefault((kind, p), digest)
                if held != digest and divergent is None:
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
    order = view.order
    seq_of = {}
    for key in sorted(order):
        c, t_c, op, kind = order[key]
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
        versions = history.get(key, ())
        value = None
        for vs, v in versions:
            if vs <= s:
                value = v
            else:
                break
        return value

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
        reply = bytes.fromhex(data["reply"])
        key = weak_ops.get((src, issued))
        if key is None:
            continue
        ok = False
        for ts, s_n in serves.get((src, data["t_c"]), ()):
            if not (issued <= ts <= t):
                continue
            want = value_at_s(key, s_n)
            if (want is None and reply == ABSENT) or want == reply:
                ok = True
                break
        if not ok:
            return Verdict("weak_reads", False,
                           f"{src} weak read of {key} at {t:.1f}: reply matches no "
                           f"serving state in interval")
        checked += 1
    return Verdict("weak_reads", True, f"{checked} weak reads verified")


def check_channel_quorums(view) -> Verdict:
    """IRMC provenance: every delivery carries an f_s+1 quorum including a
    correct sender that actually sent that content. Deliveries share a few
    contributor sets, so each distinct senders string is judged once."""
    params = view.cfg.fault_params
    correct = view.correct_replicas
    sent, _, _ = view.correct_sends
    quorums: dict = {}  # senders string -> (size, has a correct contributor)
    deliveries = 0
    for t, event, src, dst, kind, digest, data in view.events("irmc_deliver"):
        if src not in correct:
            continue
        senders = data["senders"]
        quorum = quorums.get(senders)
        if quorum is None:
            contributors = senders.split(";")
            quorum = quorums[senders] = (
                len(contributors), any(x in correct for x in contributors))
        size, vouched = quorum
        f_s = params.f_e if kind.startswith("req") else params.f_a
        if size < f_s + 1:
            return Verdict("channel_quorums", False,
                           f"{kind} p={data['p']}: quorum {size}")
        if not vouched:
            return Verdict("channel_quorums", False,
                           f"{kind} p={data['p']}: no correct contributor")
        if (kind, data["sc"], data["p"], digest) not in sent:
            return Verdict("channel_quorums", False,
                           f"{kind} p={data['p']}: content never sent by a correct sender")
        deliveries += 1
    return Verdict("channel_quorums", True, f"{deliveries} deliveries vouched")


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
    last: dict = {}
    for t, event, src, dst, kind, digest, data in view.events("win_move"):
        key = (src, kind, data["sc"])
        if data["start"] < last.get(key, 0):
            return Verdict("window_monotonicity", False,
                           f"{src} {kind} sc={data['sc']} moved backwards")
        last[key] = data["start"]
    return Verdict("window_monotonicity", True, f"{len(last)} windows")


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
    """Every correct-client request resolves within the horizon."""
    strong_issued: dict = {}
    strong_done: set = set()
    weak_issued: dict = {}  # weak reads are keyed by their first issue time
    weak_done: set = set()
    for event in ("client_issue", "client_accept", "client_resubmit", "client_escalate"):
        for t, _, src, dst, kind, digest, data in view.events(event):
            if src not in view.correct_clients:
                continue
            if event == "client_issue":
                if kind == "read_weak":
                    weak_issued[(src, round(t, 6))] = kind
                else:
                    strong_issued[(src, data["t_c"])] = kind
            elif event == "client_accept":
                if kind == "read_weak":
                    weak_done.add((src, round(data["issued"], 6)))
                else:
                    strong_done.add((src, data["t_c"]))
            elif event == "client_resubmit":
                strong_done.add((src, data["t_c"]))
            else:
                weak_done.add((src, round(data["issued"], 6)))
    missing = [k for k in strong_issued if k not in strong_done]
    if missing:
        return Verdict("liveness", False,
                       f"{len(missing)} strong requests unresolved, e.g. {missing[0]}")
    unresolved = [k for k in weak_issued if k not in weak_done]
    if unresolved:
        return Verdict("liveness", False,
                       f"{len(unresolved)} weak reads unresolved, e.g. {unresolved[0]}")
    return Verdict("liveness", True,
                   f"{len(strong_issued)} strong + {len(weak_issued)} weak resolved")


STANDARD_CHECKS = (
    check_agreement_safety,
    check_execute_equality,
    check_validity,
    check_realtime_order,
    check_replay,
    check_weak_reads,
    check_channel_quorums,
    check_commit_content,
    check_window_monotonicity,
    check_cp_equivalence,
    check_liveness,
)


def audit_trace(trace, cfg, skip_liveness: bool = False) -> dict:
    return audit_view(AuditView(trace, cfg), skip_liveness)


def audit_view(view: AuditView, skip_liveness: bool = False) -> dict:
    """Every standard check's verdict on a view already built."""
    verdicts = {}
    for check in STANDARD_CHECKS:
        if skip_liveness and check is check_liveness:
            continue
        v = check(view)
        verdicts[v.name] = v.as_pair()
    return verdicts
