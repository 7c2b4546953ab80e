"""The agreement black-box: order / deliver / gc.

Two implementations behind one contract. SequencerOracle is the test
oracle (a designated assigner stamps sequence numbers); MiniBFT is a
minimal three-phase leader-based protocol among the 3f_a+1 agreement
replicas of one region, whose view change runs on one view timer per
replica, not per request (PBFT: Castro & Liskov, OSDI 1999, section 4.5.2).

Delivery is blocking: the next (s, batch) is handed to the owner only
after the owner signals completion of the previous one, in order and
gap-free above the low-water mark set by gc(). A request is ordered only
if the owner node's validate_request admits it. MiniBFT's 2f+1 vote
quorums and its commit, prepare and view-change certificates are the
tally and certificate rules of core/quorum.py.
"""
from __future__ import annotations

from operator import itemgetter
from typing import Callable, Optional

from .core.messages import (
    ObCommit,
    ObFetch,
    ObNewView,
    ObPrePrepare,
    ObPrepare,
    ObSeqInfo,
    ObViewChange,
    OracleAssign,
    OracleSubmit,
    PreparedProof,
    VcRecord,
)
from .core.quorum import certificate_signers, tally

BATCH_CAP = 16  # requests per MiniBFT proposal
PIPELINE = 64   # MiniBFT proposals in flight above the low-water mark

# the payloads an owner hands to its ordering's handle()
ORDERING_MSGS = (ObPrePrepare, ObPrepare, ObCommit, ObViewChange, ObNewView,
                 ObFetch, ObSeqInfo, OracleSubmit, OracleAssign)

# vote type -> (its votes in a phase record, the flag its quorum sets)
_PHASES = {ObPrepare: ("prepares", "prepared"), ObCommit: ("commits", "committed")}
_VIEW_DIGEST = itemgetter(0, 1)  # a held vote (view, digest, sig) -> (view, digest)


class OrderingBase:
    """Shared in-order blocking delivery plumbing."""

    def __init__(self, node, members: tuple, f: int):
        self.node = node
        self.members = members
        self.f = f
        self.deliver_handler: Optional[Callable] = None  # fn(s, batch, done)
        self.ready: dict[int, tuple] = {}
        self.next_deliver = 1
        self.low_water = 0  # everything <= low_water is forgotten
        self._delivering = False

    def order(self, req) -> None:  # pragma: no cover
        raise NotImplementedError

    def gc(self, s_min: int) -> None:
        """After this call no sequence number below s_min is delivered."""
        if s_min <= self.low_water + 1:
            return
        self.low_water = s_min - 1
        self.next_deliver = max(self.next_deliver, s_min)
        for s in [s for s in self.ready if s < s_min]:
            del self.ready[s]

    def _mark_ready(self, s, batch):
        if s <= self.low_water or s in self.ready:
            return
        self.ready[s] = batch
        self._pump()

    def _pump(self):
        if self._delivering or self.deliver_handler is None:
            return
        batch = self.ready.get(self.next_deliver)
        if batch is None:
            return
        s = self.next_deliver
        self._delivering = True
        self.node.sim.trace.add(
            self.node.sim.now, "order_deliver", self.node.nid, "-", "ordering",
            self.node.crypto.digest(batch).hex(), s=s)

        def done():
            self._delivering = False
            self._pump()

        del self.ready[s]
        self.next_deliver = s + 1
        self.deliver_handler(s, batch, done)


class SequencerOracle(OrderingBase):
    """Single designated assigner; isolates architecture bugs from consensus bugs."""

    def __init__(self, node, members, f):
        super().__init__(node, members, f)
        self.assigner = members[0]
        self.next_s = 1
        self.assigned: dict[bytes, int] = {}

    def order(self, req):
        if not self.node.validate_request(req):
            return
        if self.node.nid == self.assigner:
            self._assign(req)
        else:
            self.node.send_signed(self.assigner, OracleSubmit(req))

    def _assign(self, req):
        digest = self.node.crypto.digest(req)
        if digest in self.assigned:
            return
        s = self.next_s
        self.next_s += 1
        self.assigned[digest] = s
        batch = (req,)
        self.node.multicast_signed(self.members, OracleAssign(s, batch))
        self._mark_ready(s, batch)

    def gc(self, s_min):
        super().gc(s_min)
        self.next_s = max(self.next_s, s_min)
        for d in [d for d, s in self.assigned.items() if s < s_min]:
            del self.assigned[d]

    def purge_pending(self, keep):
        pass

    def handle(self, src, msg, sig=None):
        if src not in self.members:
            return
        if isinstance(msg, OracleSubmit):
            if self.node.nid == self.assigner and self.node.validate_request(msg.req):
                self._assign(msg.req)
        elif isinstance(msg, OracleAssign):
            if src == self.assigner:
                self._mark_ready(msg.s, msg.batch)


class MiniBft(OrderingBase):
    """Leader-based three-phase ordering with view change.

    prepared  = accepted pre-prepare + 2f+1 matching Prepare votes
    committed = 2f+1 matching Commit votes in the proposal's view
    Votes are view-tagged; a replica's newest-view vote supersedes older ones.
    One view timer per replica (PBFT section 4.5.2) times the oldest pending
    request, else our view change under way (vc_target > view). A vote or a
    new view restarts it; so does the timed request leaving pending, which
    also drops our vote and resets the timeout to view_timeout_ms. Each
    expiry doubles the timeout and votes for max(view, vc_target) + 1. While
    our vote is under way the timer ticks every view_timeout_ms and re-sends
    it to the peers whose vote for that view we lack: a vote lost to a
    partition at either end, or to a lossy link, arrives within one tick of
    the heal, not at the next doubled expiry.
    """

    def __init__(self, node, members, f, view_timeout_ms=16.0):
        super().__init__(node, members, f)
        self.view = 0
        self.view_timeout_ms = view_timeout_ms
        self.next_s = 1
        self.phase: dict[int, dict] = {}
        self.pending: dict[bytes, object] = {}    # digest -> undecided request
        self.assigned: dict[bytes, int] = {}
        self.commit_certs: dict[int, tuple] = {}  # s -> (view, batch, sigs)
        self.vcs: dict[int, dict] = {}
        self.vc_target = 0
        self.timeout_ms = view_timeout_ms  # the view timer's current timeout
        self._timer: Optional[object] = None  # token of the running view timer
        self._timed = None  # digest of the request it times, None: our vote
        self._gap_probe = False

    def leader_of(self, view) -> object:
        return self.members[view % len(self.members)]

    @property
    def is_leader(self) -> bool:
        return self.leader_of(self.view) == self.node.nid

    # -- contract ------------------------------------------------------------

    def order(self, req):
        digest = self.node.crypto.digest(req)
        # a digest in pending or assigned was admitted here already
        if digest in self.pending or digest in self.assigned \
                or not self.node.validate_request(req):
            return
        self._hold(digest, req)
        if self.is_leader:
            self._propose()
        else:
            self.node.send_signed(self.leader_of(self.view), OracleSubmit(req))

    def gc(self, s_min):
        super().gc(s_min)
        self.next_s = max(self.next_s, s_min)
        for s in [s for s in self.phase if s < s_min]:
            del self.phase[s]
        for s in [s for s in self.commit_certs if s < s_min]:
            del self.commit_certs[s]
        for d in [d for d, s in self.assigned.items() if s < s_min]:
            del self.assigned[d]

    def purge_pending(self, keep: Callable) -> None:
        """Owner hook: drop pending requests already covered by a checkpoint."""
        for d in [d for d, req in self.pending.items() if not keep(req)]:
            del self.pending[d]
        self._check_progress()

    # -- normal case ----------------------------------------------------------

    def _propose(self):
        while self.pending and self.next_s <= self.low_water + PIPELINE:
            unassigned = [(d, r) for d, r in self.pending.items()
                          if d not in self.assigned]
            if not unassigned:
                return
            take = unassigned[:BATCH_CAP]
            batch = tuple(r for _, r in take)
            s = self.next_s
            self.next_s += 1
            for d, _ in take:
                self.assigned[d] = s
            self._broadcast_preprepare(s, batch)

    def _broadcast_preprepare(self, s, batch):
        pp = ObPrePrepare(self.view, s, batch)
        self.node.multicast_signed(self.members, pp)
        self._accept_preprepare(self.node.nid, pp, self.node.crypto.sign(pp))

    def _rec(self, s):
        return self.phase.setdefault(s, {
            "view": None, "batch": None, "digest": None, "pp_sig": None,
            "prepares": {}, "commits": {}, "prepared": False, "committed": False,
            "prepare_quorum": (),
        })

    def _accept_preprepare(self, src, msg, sig):
        if msg.view != self.view or src != self.leader_of(msg.view) \
                or msg.s <= self.low_water or sig is None or sig.signer != src:
            return
        rec = self._rec(msg.s)
        # at most one proposal accepted per (view, s), none over a commit
        if rec["committed"] or rec["batch"] is not None and rec["view"] >= msg.view:
            return
        reqs = [(self.node.crypto.digest(r), r) for r in msg.batch]
        if not all(d in self.pending or d in self.assigned
                   or self.node.validate_request(r) for d, r in reqs):
            return
        digest = self.node.crypto.digest(msg.batch)
        rec.update(view=msg.view, batch=msg.batch, digest=digest, pp_sig=sig,
                   prepared=False, prepare_quorum=())
        for d, r in reqs:
            self._hold(d, r)
            self.assigned[d] = msg.s
        self._vote(ObPrepare(msg.view, msg.s, digest))

    def _vote(self, msg):
        """Send our Prepare or Commit to the peers, then count it ourselves."""
        self.node.multicast_signed(self.members, msg)
        self._accept_vote(self.node.nid, msg, self.node.crypto.sign(msg))

    def _accept_vote(self, src, msg, sig):
        """Count a Prepare or Commit vote; 2f+1 matching votes in the
        proposal's view reach the phase. With 3f+1 voters at most one
        (view, digest) can hold 2f+1, so the tally's winner decides."""
        if msg.s <= self.low_water or sig is None or sig.signer != src:
            return
        votes_key, reached = _PHASES[type(msg)]
        rec = self._rec(msg.s)
        votes = rec[votes_key]
        held = votes.get(src)
        if held is None or held[0] < msg.view:
            votes[src] = (msg.view, msg.digest, sig)
        if rec[reached] or rec["digest"] is None:
            return
        q = 2 * self.f + 1
        won = tally(votes, q, key=_VIEW_DIGEST)
        if won is None or won[0] != (rec["view"], rec["digest"]):
            return
        rec[reached] = True
        sigs = tuple(votes[w][2] for w in sorted(won[1], key=str)[:q])
        if reached == "prepared":
            rec["prepare_quorum"] = sigs
            self._vote(ObCommit(rec["view"], msg.s, rec["digest"]))
        else:
            self._commit(msg.s, rec["view"], rec["batch"], sigs)
            self._probe_gaps()

    def _commit(self, s, view, batch, sigs):
        """Keep s's commit certificate, deliver s."""
        self.commit_certs[s] = (view, batch, sigs)
        for r in batch:
            self.pending.pop(self.node.crypto.digest(r), None)
        self._check_progress()
        self._mark_ready(s, batch)

    # -- catch-up on missed sequences ------------------------------------------

    def _probe_gaps(self):
        if self._gap_probe:
            return
        top = max(self.commit_certs, default=0)
        if top < self.next_deliver or self.next_deliver in self.ready or self._delivering:
            return
        self._gap_probe = True

        def probe():
            self._gap_probe = False
            top_now = max(self.commit_certs, default=0)
            if top_now >= self.next_deliver and self.next_deliver not in self.ready \
                    and not self._delivering:
                self.node.multicast_signed(self.members,
                                           ObFetch(self.next_deliver, top_now))
                self._probe_gaps()

        self.node.after(self.view_timeout_ms, probe)

    def _on_fetch(self, src, msg, sig=None):
        for s in range(msg.s_from, min(msg.s_to, msg.s_from + 256) + 1):
            cert = self.commit_certs.get(s)
            if cert is not None:
                view, batch, sigs = cert
                self.node.send_signed(src, ObSeqInfo(view, s, batch, sigs))

    def _on_seqinfo(self, src, msg, sig=None):
        if msg.s <= self.low_water or msg.s in self.ready or msg.s in self.commit_certs:
            return
        sigs = msg.commit_sigs
        want = ObCommit(msg.view, msg.s, self.node.crypto.digest(msg.batch))
        if self._certified((want, g) for g in sigs):
            self._commit(msg.s, msg.view, msg.batch, sigs)

    # -- view change ----------------------------------------------------------

    def _hold(self, digest, req):
        """Keep an admitted request pending; the view timer runs while one is."""
        self.pending.setdefault(digest, req)
        if self._timer is None:
            self._restart_timer()

    def _restart_timer(self):
        """Time the oldest pending request, else our vote under way, or stop."""
        self._timer = None
        self._timed = next(iter(self.pending), None)
        if self._timed is not None or self.vc_target > self.view:
            self._tick(self.timeout_ms)

    def _tick(self, left):
        step = min(left, self.view_timeout_ms) if self.vc_target > self.view else left
        token = self._timer = object()
        self.node.after(step, lambda: self._expired(token, left - step))

    def _expired(self, token, left):
        if token is not self._timer:
            return  # restarted or stopped since
        if left > 0:  # to the peers whose vote for our target we lack
            held = self.vcs.get(self.vc_target, {})
            self.node.multicast_signed([m for m in self.members if m not in held],
                                       self._vote_msg())
            self._tick(left)
        else:
            self.timeout_ms *= 2
            self._start_view_change(max(self.view, self.vc_target) + 1)

    def _check_progress(self):
        """The timed request left pending (or, if only our vote was timed, a
        batch committed): drop our vote, time the next at the base timeout."""
        if self._timed not in self.pending:
            self.vc_target = self.view
            self.timeout_ms = self.view_timeout_ms
            self._restart_timer()

    def _prepared_proofs(self):
        return tuple(PreparedProof(rec["view"], s, rec["batch"], rec["pp_sig"],
                                   rec["prepare_quorum"])
                     for s, rec in sorted(self.phase.items())
                     if rec["prepared"] and s > self.low_water)

    def _start_view_change(self, new_view):
        if new_view <= self.vc_target:
            return
        self.vc_target = new_view
        self._restart_timer()
        vc = self._vote_msg()
        sig = self.node.crypto.sign(vc)
        self.node.sim.trace.add(self.node.sim.now, "view_change_vote",
                                self.node.nid, "-", "ordering", view=new_view)
        self.node.multicast_signed(self.members, vc)
        self._on_view_change(self.node.nid, vc, sig)

    def _vote_msg(self):
        return ObViewChange(self.vc_target, self.low_water, self._prepared_proofs())

    def _on_view_change(self, src, msg, sig):
        if msg.view <= self.view or sig is None or sig.signer != src:
            return
        held = self.vcs.setdefault(msg.view, {})
        held.setdefault(src, VcRecord(msg, sig))
        # join the highest view f+1 peers already voted for, so stragglers
        # jump to the front instead of crawling through stale targets
        candidates = [v for v, by in self.vcs.items()
                      if v > max(self.view, self.vc_target) and len(by) >= self.f + 1]
        if candidates:
            self._start_view_change(max(candidates))
        if self.leader_of(msg.view) == self.node.nid and len(held) >= 2 * self.f + 1:
            self._emit_new_view(msg.view)

    def _valid_proof(self, proof: PreparedProof) -> bool:
        pp = ObPrePrepare(proof.view, proof.s, proof.batch)
        if proof.preprepare_sig.signer != self.leader_of(proof.view):
            return False
        if not self.node.crypto.valid_sig(pp, proof.preprepare_sig):
            return False
        prep = ObPrepare(proof.view, proof.s, self.node.crypto.digest(proof.batch))
        return self._certified((prep, sig) for sig in proof.prepare_sigs)

    def _certified(self, signed) -> bool:
        """(message, Sig) pairs form a 2f+1 certificate of distinct members."""
        return certificate_signers(signed, self.members, 2 * self.f + 1,
                                   self.node.crypto.valid_sig) is not None

    def _new_view_proposals(self, records):
        """Deterministic re-proposal set: highest-view valid proof per sequence,
        unprepared holes below the top filled with no-op batches."""
        best: dict[int, PreparedProof] = {}
        floor = max(r.vc.low_water for r in records)
        for rec in records:
            for proof in rec.vc.prepared:
                if proof.s <= floor or not self._valid_proof(proof):
                    continue
                cur = best.get(proof.s)
                if cur is None or proof.view > cur.view:
                    best[proof.s] = proof
        return floor, tuple((s, best[s].batch if s in best else ())
                            for s in range(floor + 1, max(best, default=floor) + 1))

    def _emit_new_view(self, view):
        if self.view >= view:
            return
        by = self.vcs[view]
        records = tuple(by[w] for w in sorted(by, key=str)[: 2 * self.f + 1])
        floor, proposals = self._new_view_proposals(records)
        nv = ObNewView(view, records, proposals)
        self.node.multicast_signed(self.members, nv)
        self._adopt_new_view(self.node.nid, nv)

    def _adopt_new_view(self, src, msg, sig=None):
        if msg.view <= self.view or src != self.leader_of(msg.view) \
                or any(rec.vc.view != msg.view for rec in msg.view_changes) \
                or not self._certified((rec.vc, rec.sig) for rec in msg.view_changes):
            return
        floor, expect = self._new_view_proposals(msg.view_changes)
        if expect != msg.proposals:
            return  # leader deviated from the deterministic re-proposal rule
        self.view = msg.view
        # drop a vote past this view, or this replica goes on voting alone
        self.vc_target = msg.view
        for stale in [v for v in self.vcs if v <= msg.view]:
            del self.vcs[stale]
        self.node.sim.trace.add(self.node.sim.now, "view_change", self.node.nid,
                                "-", "ordering", view=msg.view)
        proposed_seqs = {s for s, _ in msg.proposals}
        for d in [d for d, s in self.assigned.items()
                  if s not in self.commit_certs and s not in proposed_seqs]:
            del self.assigned[d]
        # abandoned proposals above the re-proposal top would leave holes:
        # proposing resumes contiguously (nothing can be committed above top)
        self.next_s = max([floor, *proposed_seqs, *self.commit_certs]) + 1
        if self.is_leader:
            # re-proposals are real pre-prepares in the new view
            for s, batch in msg.proposals:
                if not self.phase.get(s, {}).get("committed"):
                    self._broadcast_preprepare(s, batch)
            self._propose()
        else:
            for req in self.pending.values():
                self.node.send_signed(self.leader_of(msg.view), OracleSubmit(req))
        self._restart_timer()

    # -- dispatch ---------------------------------------------------------------

    def _on_submit(self, src, msg, sig):
        d = self.node.crypto.digest(msg.req)
        if d not in self.assigned and (
                d in self.pending or self.node.validate_request(msg.req)):
            self._hold(d, msg.req)
            if self.is_leader:
                self._propose()

    _handlers = {OracleSubmit: _on_submit, ObPrePrepare: _accept_preprepare,
                 ObPrepare: _accept_vote, ObCommit: _accept_vote,
                 ObViewChange: _on_view_change, ObNewView: _adopt_new_view,
                 ObFetch: _on_fetch, ObSeqInfo: _on_seqinfo}

    def handle(self, src, msg, sig=None):
        handler = self._handlers.get(type(msg))
        if handler is not None and src in self.members:
            handler(self, src, msg, sig)
