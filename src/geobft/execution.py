"""Execution replica state machine.

Admits and forwards client requests into the request channel, pulls
the committed order from the commit channel, executes against the
deterministic application with at-most-once semantics, replies when it
is the client's contact group, serves weak reads directly, and
checkpoints every K_E sequence numbers.
"""
from __future__ import annotations

from .application import KvApplication, PLACEHOLDER, RESUBMIT
from .checkpoint import CheckpointComponent
from .core import hash_bytes
from .core.codec import canonical_decode, canonical_encode
from .core.messages import (
    AddGroup,
    AdminItem,
    Execute,
    FullReq,
    Placeholder,
    ReadWeak,
    RegistryInfo,
    RemoveGroup,
    Request,
    Result,
    Write,
)
from .irmc.base import TooOld
from .protocol import ProtocolNode, RegistryResolver

K_E = 10  # execution checkpoint interval, in sequence numbers


class ExecutingNode(ProtocolNode):
    """A replica that runs the application, in a spider execution group or
    in the flat-bft baseline: it is a client's contact, executes each client
    counter at most once and serves weak reads from its current state."""

    def __init__(self, nid, sim, crypto, authorized: frozenset, admin: object = None):
        super().__init__(nid, sim, crypto, authorized, admin)
        self.app = KvApplication()
        self.s_n = 0                   # last executed sequence number
        self.t: dict[int, int] = {}    # client -> highest forwarded counter
        self.u: dict[int, tuple] = {}  # client -> (t_c, reply bytes)

    def route_client(self, src, env) -> bool:
        """Strong requests take the contact path; weak reads are served."""
        msg = env.payload
        if isinstance(msg, (Write, AddGroup, RemoveGroup)):
            self.on_write_request(src, msg, env)
        elif isinstance(msg, ReadWeak):
            self.on_weak_read(src, msg, env)
        else:
            return False
        return True

    def on_write_request(self, src, msg, env):
        """Writes, strong reads and admin reconfiguration requests: admit,
        answer a retry from the reply cache, forward a new counter."""
        sig = env.first_sig()
        if not (self.from_client(msg, env) and self.admits(msg, sig)):
            return
        c = msg.client.index
        if msg.t_c <= self.t.get(c, 0):
            held = self.u.get(c)
            if held is not None and held[0] == msg.t_c:
                if held[1] == PLACEHOLDER:
                    # skipped group-specific read: client must resubmit
                    self.send_mac(msg.client,
                                  Result(msg.client, msg.t_c, RESUBMIT, resubmit=True))
                else:
                    self.send_mac(msg.client, Result(msg.client, msg.t_c, held[1]))
            return  # silent on a retry with no result yet
        self.t[c] = msg.t_c
        self.forward(msg, sig)

    def forward(self, msg, sig):  # pragma: no cover
        raise NotImplementedError

    def execute_write(self, s: int, idx: int, write: Write, sig):
        """The reply, or None if write's counter already ran; the trace record
        carries what audit.check_validity re-verifies (wr, sig)."""
        c = write.client.index
        if write.t_c <= self.u.get(c, (0,))[0]:
            return None
        reply = self.app.execute_readonly(write.op) if write.read_only \
            else self.app.execute(write.op)
        self.u[c] = (write.t_c, reply)
        self.sim.trace.add(
            self.sim.now, "execute", self.nid, "-",
            "read" if write.read_only else "write",
            hash_bytes(reply).hex(), s=s, idx=idx, c=c, t_c=write.t_c,
            op=write.op.hex(), wr=canonical_encode(write).hex(),
            sig=canonical_encode(sig).hex())
        return reply

    def on_weak_read(self, src, msg: ReadWeak, env):
        if not self.from_client(msg, env):
            return
        reply = self.app.execute_readonly(msg.op)
        self.sim.trace.add(self.sim.now, "weak_serve", self.nid, msg.client, "read",
                           s_n=self.s_n, nonce=msg.nonce)
        self.send_mac(msg.client, Result(msg.client, msg.nonce, reply, weak=True))


class ExecutionReplica(ExecutingNode):
    def __init__(self, nid, sim, crypto, group: int, group_members: tuple,
                 authorized: frozenset, admin: object, f_e: int, f_a: int,
                 ag_members: tuple, endpoint_factory):
        super().__init__(nid, sim, crypto, authorized, admin)
        self.group = group
        self._pulling = False
        self.registry = RegistryResolver(self, ag_members, f_a)
        self.cp = CheckpointComponent(
            "ex", group, group_members, f_e, self,
            on_stable=self.on_stable_execution_cp)
        # same-instant timers fire in arming order: sender, receiver
        req_cfg, com_cfg = endpoint_factory.channel_configs(group, group_members)
        self.req_send = endpoint_factory.sender_cls(req_cfg, self)
        self.commit_recv = endpoint_factory.receiver_cls(com_cfg, self)
        self.channels[req_cfg.channel] = self.req_send
        self.channels[com_cfg.channel] = self.commit_recv

    def start(self):
        super().start()
        self._pull()

    # -- client-facing ---------------------------------------------------------

    def on_payload(self, src, env):
        if self.route_channel(src, env) or self.route_checkpoint(src, env) \
                or self.route_client(src, env):
            return
        if isinstance(env.payload, RegistryInfo):
            self.registry.on_info(src, env.payload)

    def forward(self, msg, sig):
        """Into the client's request subchannel, its window moved up to msg."""
        c = msg.client.index
        self.req_send.move_window(c, msg.t_c)
        self.req_send.send(c, msg.t_c, Request(msg, sig, self.group))

    # -- the committed order -----------------------------------------------------

    def _pull(self):
        if self._pulling:
            return
        self._pulling = True
        self.commit_recv.receive(0, self.s_n + 1, self._got)

    def _got(self, outcome):
        self._pulling = False
        if isinstance(outcome, TooOld):
            if outcome.start <= self.s_n + 1:
                self._pull()
            else:
                self._seek_checkpoint(outcome.start - 1)
            return
        payload = outcome.payload
        if not isinstance(payload, Execute) or payload.s != self.s_n + 1:
            # quorum vouched for a malformed batch; skip past it
            self.s_n += 1
            self._pull()
            return
        self._apply(payload)
        self._pull()

    def _apply(self, execute: Execute):
        s = execute.s
        for idx, item in enumerate(execute.items):
            if isinstance(item, FullReq):
                self._apply_full(s, idx, item)
            elif isinstance(item, Placeholder):
                c = item.client.index
                if item.t_c > self.u.get(c, (0,))[0]:
                    self.u[c] = (item.t_c, PLACEHOLDER)
            elif isinstance(item, AdminItem):
                self._apply_admin(item)
        self.s_n = s
        if s % K_E == 0:
            snapshot, projected = self._state()
            self.cp.gen_cp(s, snapshot)
            self._trace_state(snapshot, projected)

    def _apply_full(self, s, idx, item: FullReq):
        write = item.write
        reply = self.execute_write(s, idx, write, item.write_sig)
        if reply is not None and item.contact == self.group:
            self.send_mac(write.client, Result(write.client, write.t_c, reply))

    def _apply_admin(self, item: AdminItem):
        c = item.client.index
        if item.t_c <= self.u.get(c, (0,))[0]:
            return
        reply = b"ok:" + item.action.encode() if item.ok \
            else b"err:" + item.detail.encode()
        self.u[c] = (item.t_c, reply)
        if item.contact == self.group:
            self.send_mac(item.client, Result(item.client, item.t_c, reply))

    # -- checkpointing ------------------------------------------------------------

    def _state(self) -> tuple[bytes, bytes]:
        """The checkpoint state and its projection without the cached replies,
        which embed one encoding of the application state."""
        app_state = self.app.snapshot()
        u_sorted = sorted(self.u.items())
        return (canonical_encode((self.s_n, tuple((c, tc, r) for c, (tc, r) in u_sorted),
                                  app_state)),
                canonical_encode((self.s_n, tuple((c, tc) for c, (tc, _) in u_sorted),
                                  app_state)))

    def _trace_state(self, snapshot: bytes, projected: bytes):
        self.sim.trace.add(self.sim.now, "state_digest", self.nid, "-", "ex",
                           hash_bytes(snapshot).hex(), s=self.s_n,
                           projected=hash_bytes(projected).hex())

    def on_stable_execution_cp(self, s: int, state: bytes):
        self.commit_recv.move_window(0, s + 1)
        if s > self.s_n:
            self.s_n, u_sorted, app_bytes = canonical_decode(state)
            self.u = {c: (tc, r) for c, tc, r in u_sorted}
            self.app.restore(app_bytes)
            self._trace_state(*self._state())
        self._pull()

    def _seek_checkpoint(self, s_min: int):
        s_min = max(1, s_min)
        self.cp.fetch_cp(s_min)
        # widen the search across groups once the registry answers
        def with_registry(version, groups):
            peers = []
            for gid, region, members in groups:
                if gid != self.group:
                    peers.extend(members)
            self.cp.add_fetch_peers(peers)
        self.registry.resolve(with_registry)
