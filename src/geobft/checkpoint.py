"""Group-internal checkpoint component.

Creates, certifies, disseminates and fetches checkpoints. A checkpoint
is stable once f+1 group members sign matching digests (the tally and
certificate rules of core/quorum.py); delivery to the owner is monotone
and at most once per sequence number. Signatures, not MACs: group size
2f+1 makes MAC-based certificates unsound.

A member that missed a checkpoint round catches up by certificate (PBFT:
Castro & Liskov, OSDI 1999, section 4.3): the next round's f+1 matching
votes certify a sequence it holds no state for, and it fetches the state
from the signers. A vote below our latest stable checkpoint shows its
sender a full interval behind; it gets one CpAnnounce of that checkpoint
in reply, and the sender queries it. An announce is only a hint; a
transfer is still checked against its f+1 certificate.
"""
from __future__ import annotations

from operator import itemgetter
from typing import Callable, Iterable, Optional

from .core import hash_bytes
from .core.messages import Checkpoint, CpAnnounce, CpQuery, CpState
from .core.quorum import certificate_signers, is_certificate, tally

FETCH_POLL_MS = 25.0  # re-query period while fetching a checkpoint
RETAIN = 2            # own snapshots kept while awaiting certification


class CheckpointComponent:
    """One per replica; talks to group peers and serves cross-group fetches."""

    def __init__(self, scope: str, group: int, members: tuple, f: int, node,
                 on_stable: Callable[[int, bytes], None]):
        self.scope = scope
        self.group = group
        self.members = members
        self.f = f
        self.node = node
        self.on_stable = on_stable
        self.own_states: dict[int, bytes] = {}
        self.votes: dict[int, dict] = {}    # s -> signer -> (digest, Sig)
        self.stable: dict[int, tuple] = {}  # s -> (state|None, cert, digest)
        self.delivered_s = 0
        self.fetching: Optional[int] = None
        self._fetch_peers: list = []

    # -- creating ------------------------------------------------------------

    def gen_cp(self, s: int, state: bytes) -> None:
        """Create and distribute this replica's checkpoint message."""
        if s <= self.delivered_s:
            return  # superseded
        digest = hash_bytes(state)
        self.own_states[s] = state
        self.node.sim.trace.add(self.node.sim.now, "cp_gen", self.node.nid, "-",
                                self.scope, digest.hex(), s=s)
        if s in self.stable:
            # peers certified this sequence before our own snapshot finished
            held, cert, certified = self.stable[s]
            if held is None and certified == digest:
                self.stable[s] = (state, cert, certified)
                self._deliver(s)
            return
        msg = Checkpoint(self.scope, self.group, s, digest)
        sig = self.node.crypto.sign(msg)
        self.node.multicast_signed(self.members, msg)
        self._record_vote(s, self.node.nid, digest, sig)
        self._prune_own()

    def _prune_own(self):
        keep = sorted(self.own_states)[-RETAIN:]
        for s in [s for s in self.own_states if s not in keep]:
            del self.own_states[s]

    # -- certification -------------------------------------------------------

    def on_checkpoint_msg(self, src, msg: Checkpoint, sig) -> None:
        if src not in self.members or msg.group != self.group or msg.scope != self.scope:
            return
        if sig is None or sig.signer != src:
            return
        if msg.s < self.delivered_s:
            # the sender is a full interval behind: point it at our newest
            self.node.send_signed(src, CpAnnounce(self.scope, self.group,
                                                  self.delivered_s))
        self._record_vote(msg.s, src, msg.digest, sig)

    def _record_vote(self, s, signer, digest, sig):
        if s <= self.delivered_s or s in self.stable:
            return
        slot = self.votes.setdefault(s, {})
        if signer in slot:
            return  # one checkpoint message per member and sequence
        slot[signer] = (digest, sig)
        won = tally(slot, self.f + 1, key=itemgetter(0))
        if won is not None:
            self._certify(s, won[0], tuple(slot[w][1] for w in won[1]))

    def _certify(self, s, digest, cert):
        state = self.own_states.get(s)
        if state is not None and hash_bytes(state) != digest:
            state = None
        self.stable[s] = (state, cert, digest)
        if state is not None:
            self._deliver(s)
        else:
            # certificate without state: pull the bytes from any signer
            for sig in cert:
                if sig.signer != self.node.nid:
                    self.node.send_signed(sig.signer, CpQuery(self.scope, s))

    def _deliver(self, s):
        if s <= self.delivered_s:
            return
        state, cert, digest = self.stable[s]
        self.delivered_s = s
        signers = ";".join(str(g.signer) for g in cert)
        self.node.sim.trace.add(self.node.sim.now, "cp_stable", self.node.nid, "-",
                                self.scope, digest.hex(), s=s, signers=signers)
        for old in [x for x in self.stable if x < s]:
            del self.stable[old]
        for old in [x for x in self.votes if x <= s]:
            del self.votes[old]
        if self.fetching is not None and s >= self.fetching:
            self.fetching = None
        self.on_stable(s, state)

    # -- active fetch (owner fell behind) --------------------------------------

    def fetch_cp(self, s_min: int) -> None:
        """Seek a stable checkpoint with sequence >= s_min; polls until one exists."""
        if self.delivered_s >= s_min:
            return
        if self.fetching is not None and self.fetching >= s_min:
            return
        self.fetching = s_min
        self._fetch_peers = [p for p in self.members if p != self.node.nid]
        self.node.sim.trace.add(self.node.sim.now, "cp_fetch", self.node.nid, "-",
                                self.scope, s_min=s_min)
        self._poll()

    def add_fetch_peers(self, peers: Iterable) -> None:
        if self.fetching is None:
            return
        for p in peers:
            if p not in self._fetch_peers and p != self.node.nid:
                self._fetch_peers.append(p)
                self.node.send_signed(p, CpQuery(self.scope, self.fetching))

    def _poll(self):
        if self.fetching is None:
            return
        query = CpQuery(self.scope, self.fetching)
        for peer in self._fetch_peers:
            self.node.send_signed(peer, query)
        self.node.after(FETCH_POLL_MS, self._poll)

    # -- serving and applying transfers ----------------------------------------

    def on_query(self, src, msg: CpQuery) -> None:
        candidates = [s for s, (st, _, _) in self.stable.items()
                      if s >= msg.s_min and st is not None]
        if not candidates:
            return
        best = max(candidates)
        state, cert, _ = self.stable[best]
        self.node.send_signed(src, CpState(self.scope, self.group, best, state, cert))

    def on_state(self, src, msg: CpState, verify_members) -> None:
        """Validate a transferred checkpoint against its f+1-signed certificate."""
        if msg.scope != self.scope or msg.s <= self.delivered_s or not is_certificate(msg.cert):
            return
        members = verify_members(msg.group)
        if not members:
            return
        digest = hash_bytes(msg.state)
        want = Checkpoint(self.scope, msg.group, msg.s, digest)
        if certificate_signers(((want, sig) for sig in msg.cert), members,
                               self.f + 1, self.node.crypto.valid_sig) is None:
            return
        self.node.sim.trace.add(self.node.sim.now, "cp_transfer", src, self.node.nid,
                                self.scope, digest.hex(), s=msg.s,
                                cross_group=msg.group != self.group)
        self.stable[msg.s] = (msg.state, msg.cert, digest)
        self._deliver(msg.s)

    def on_announce(self, src, msg: CpAnnounce) -> None:
        if src not in self.members or msg.group != self.group:
            return
        if msg.s > self.delivered_s and self.fetching is None:
            self.node.send_signed(src, CpQuery(self.scope, msg.s))

    def latest_stable(self) -> int:
        return self.delivered_s
