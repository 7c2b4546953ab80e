"""Shared plumbing for protocol participants: payload dispatch, the one
rule for which client requests a replica admits, and the BFT
registry-resolution helper used by clients and execution replicas."""
from __future__ import annotations

from typing import Callable

from .core import AGREEMENT, AGREEMENT_GROUP, EXECUTION, GroupKey, Mac
from .core.messages import (
    AddGroup,
    Checkpoint,
    ChCert,
    ChMove,
    ChProgress,
    ChSend,
    ChShare,
    CpAnnounce,
    CpQuery,
    CpState,
    RegistryInfo,
    RegistryQuery,
    RemoveGroup,
    Request,
    Write,
)
from .core.quorum import tally
from .simnet import Node

CHANNEL_MSGS = (ChSend, ChMove, ChShare, ChCert, ChProgress)
CP_MSGS = (Checkpoint, CpAnnounce, CpQuery, CpState)


def group_key(group: int) -> GroupKey:
    """The key that names group id `group`: its MAC scope and member set."""
    return GroupKey(AGREEMENT if group == AGREEMENT_GROUP else EXECUTION, group)


class ProtocolNode(Node):
    """Routes verified payloads to channel endpoints and the checkpoint
    component, and admits client requests: only clients in `authorized`,
    and reconfiguration only from `admin` (None admits none)."""

    def __init__(self, nid, sim, crypto, authorized: frozenset = frozenset(),
                 admin: object = None):
        super().__init__(nid, sim, crypto)
        self.authorized = authorized
        self.admin = admin
        self.channels: dict = {}  # ChannelId -> endpoint
        self.cp = None

    def route_channel(self, src, env) -> bool:
        msg = env.payload
        if not isinstance(msg, CHANNEL_MSGS):
            return False
        endpoint = self.channels.get(msg.channel)
        if endpoint is not None:
            endpoint.handle(src, msg, env.first_sig())
        return True

    # -- client admission --------------------------------------------------------

    def admits(self, inner, sig) -> bool:
        """inner is a Write, or a reconfiguration by the admin, from an
        authorized client, and sig is that client's valid signature of it."""
        if isinstance(inner, (AddGroup, RemoveGroup)):
            if inner.client != self.admin:
                return False
        elif not isinstance(inner, Write):
            return False
        client = inner.client
        return client in self.authorized and sig is not None \
            and sig.signer == client and self.crypto.valid_sig(inner, sig)

    def validate_request(self, req) -> bool:
        """A Request the ordering may take: its client request is admitted."""
        return isinstance(req, Request) and self.admits(req.inner, req.inner_sig)

    def from_client(self, msg, env) -> bool:
        """msg.client is authorized and MACed env."""
        client = msg.client
        return client in self.authorized and \
            any(isinstance(a, Mac) and a.src == client for a in env.auth)

    def route_checkpoint(self, src, env) -> bool:
        msg = env.payload
        if self.cp is None or not isinstance(msg, CP_MSGS):
            return False
        if isinstance(msg, Checkpoint):
            self.cp.on_checkpoint_msg(src, msg, env.first_sig())
        elif isinstance(msg, CpAnnounce):
            self.cp.on_announce(src, msg)
        elif isinstance(msg, CpQuery):
            self.cp.on_query(src, msg)
        elif isinstance(msg, CpState):
            self.cp.on_state(src, msg, self.group_members_of)
        return True

    def group_members_of(self, group: int) -> tuple:
        """Membership oracle for validating transferred checkpoint certificates."""
        return tuple(self.crypto.provider.group_members(group_key(group)))


MIN_RETRY_MS = 10.0  # the shortest period of a re-ask: registry queries, client requests


class RegistryResolver:
    """Collects f_a+1 matching signed registry answers from agreement replicas.

    An unanswered query is asked again once a round trip to the farthest
    agreement replica has passed, jitter included: 2 * (its delay + the
    jitter bound), plus 1 ms, so that answers arriving at exactly the round
    trip are taken before the timer (events due at one instant run in
    owner order, not arrival order). Answers to the first ask come in
    within that time unless a message was lost, so an earlier re-ask would
    only repeat the query. The period is never below MIN_RETRY_MS:
    a resolver a few LAN milliseconds from every agreement replica would
    otherwise re-ask every few milliseconds for as long as it is cut off
    from them."""

    def __init__(self, node, ag_members: tuple, f_a: int):
        self.node = node
        self.ag_members = ag_members
        self.f_a = f_a
        self.nonce = 0
        self.answers: dict[int, dict] = {}
        self.waiting: dict[int, Callable] = {}

    def resolve(self, cb: Callable[[int, tuple], None]) -> None:
        """cb(version, groups) once f_a+1 agreement replicas agree."""
        self.nonce += 1
        nonce = self.nonce
        self.waiting[nonce] = cb
        self.answers[nonce] = {}
        self._ask(nonce)

    def _ask(self, nonce):
        if nonce not in self.waiting:
            return
        query = RegistryQuery(nonce)
        for peer in self.ag_members:
            self.node.send_mac(peer, query)
        sim, me = self.node.sim, self.node.nid
        farthest = max(sim.delay(me, peer) for peer in self.ag_members)
        period = 2.0 * (farthest + sim.topology.jitter_ms) + 1.0
        self.node.after(max(MIN_RETRY_MS, period), lambda: self._ask(nonce))

    def on_info(self, src, msg: RegistryInfo) -> None:
        if src not in self.ag_members or msg.nonce not in self.waiting:
            return
        held = self.answers[msg.nonce]
        held[src] = (msg.version, msg.groups)
        won = tally(held, self.f_a + 1)
        if won is not None:
            cb = self.waiting.pop(msg.nonce)
            del self.answers[msg.nonce]
            cb(*won[0])
