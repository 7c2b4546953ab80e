"""Agreement replica state machine.

Pulls client requests from per-client request subchannels. It shows a
move of a subchannel's window to t_plus[c] only when t_plus[c], the
position its intake waits for next, lies past the window it showed last:
a client has one strong request outstanding and REQ_CAPACITY is 2, so
that is every second request, and the execution replicas can send each
request without a move of their own. It hands the requests to the
ordering black-box, fans the committed order out through the commit
channels under global flow control (n_e - z completions), checkpoints
every K_A sequence numbers, anchors its delivery window at the latest
stable checkpoint, and maintains the execution-replica registry that
drives AddGroup/RemoveGroup reconfiguration.
"""
from __future__ import annotations

from typing import Optional

from .checkpoint import CheckpointComponent
from .core import hash_bytes
from .core.codec import canonical_decode, canonical_encode
from .core.messages import (
    AddGroup,
    AdminItem,
    ChannelId,
    Execute,
    FullReq,
    Placeholder,
    RegistryInfo,
    RegistryQuery,
    RemoveGroup,
    Request,
    Write,
)
from .irmc.base import TooOld
from .ordering import ORDERING_MSGS
from .protocol import ProtocolNode

K_A = 10              # agreement checkpoint interval, in sequence numbers
AG_WIN = 20           # delivery window above the latest stable checkpoint
COMMIT_CAPACITY = 32  # commit-channel window; also how much history a checkpoint keeps


class AgreementReplica(ProtocolNode):
    def __init__(self, nid, sim, crypto, members: tuple, f_a: int,
                 authorized: frozenset, admin: object, ordering_cls,
                 endpoint_factory, initial_groups: dict, z: int = 0):
        super().__init__(nid, sim, crypto, authorized, admin)
        self.z = z
        self.endpoint_factory = endpoint_factory

        self.s_n = 0
        self.t: dict[int, int] = {}
        self.t_plus: dict[int, int] = {}
        self.hist: list[tuple] = []  # ring of (s, annotated items)
        self.win_lo = 1
        self.registry: dict[int, tuple] = {}  # gid -> (region, members)
        self.registry_version = 0
        self.req_recv: dict[int, object] = {}
        self.commit_send: dict[int, object] = {}
        self._intakes: set = set()
        self._parked: Optional[tuple] = None

        self.ordering = ordering_cls(self, members, f_a)
        self.ordering.deliver_handler = self.on_deliver
        self.cp = CheckpointComponent(
            "ag", 0, members, f_a, self, on_stable=self.on_stable_agreement_cp)
        for gid, (region, group_members) in sorted(initial_groups.items()):
            self._open_group(gid, region, group_members)

    @property
    def win_hi(self) -> int:
        return self.win_lo + AG_WIN - 1

    # -- group wiring -------------------------------------------------------------

    def _open_group(self, gid: int, region: str, group_members: tuple):
        req_cfg, commit_cfg = self.endpoint_factory.channel_configs(gid, group_members)
        recv = self.endpoint_factory.receiver_cls(req_cfg, self)
        send = self.endpoint_factory.sender_cls(commit_cfg, self)
        recv.on_new_subchannel = lambda sc, g=gid: self._spawn_intake(g, sc)
        self.channels[req_cfg.channel] = recv
        self.channels[commit_cfg.channel] = send
        self.req_recv[gid] = recv
        self.commit_send[gid] = send
        self.registry[gid] = (region, tuple(group_members))

    def _close_group(self, gid: int):
        for cid in (ChannelId("req", gid), ChannelId("commit", gid)):
            ep = self.channels.pop(cid, None)
            if ep is not None:
                ep.close()
        self.req_recv.pop(gid, None)
        self.commit_send.pop(gid, None)
        self.registry.pop(gid, None)
        self._intakes = {(g, c) for (g, c) in self._intakes if g != gid}

    # -- client intake loops --------------------------------------------------------

    def _spawn_intake(self, gid: int, c: int):
        key = (gid, c)
        if key in self._intakes:
            return
        self._intakes.add(key)
        self._intake_pull(gid, c)

    def _intake_pull(self, gid: int, c: int):
        recv = self.req_recv.get(gid)
        if recv is None or recv.closed:
            self._intakes.discard((gid, c))
            return
        cursor = self.t_plus.get(c, 1)

        def got(outcome):
            if (gid, c) not in self._intakes:
                return
            if isinstance(outcome, TooOld):
                # client already sent a newer request: jump the cursor
                self.t_plus[c] = max(self.t_plus.get(c, 1), outcome.start)
            else:
                # the ordering admits the request itself (validate_request)
                req = outcome.payload
                if isinstance(req, Request) and req.inner.client.index == c \
                        and req.inner.t_c == cursor:
                    self.ordering.order(req)
                self.t_plus[c] = max(self.t_plus.get(c, 1), cursor + 1)
            # the intake never asks below t_plus again; it shows the senders
            # a move only once t_plus lies past the window it showed last,
            # so they can send the request it waits for
            if self.t_plus[c] > recv.window(c).end:
                recv.move_window(c, self.t_plus[c])
            self._intake_pull(gid, c)

        recv.receive(c, cursor, got)

    # -- ordered delivery -------------------------------------------------------------

    def on_deliver(self, s: int, batch: tuple, done):
        if s > self.win_hi:
            # checkpoint window full: park until the window shifts
            self._parked = (s, batch, done)
            self.sim.trace.add(self.sim.now, "deliver_parked", self.nid, "-",
                               "ordering", s=s)
            return
        self._process_delivery(s, batch, done)

    def _process_delivery(self, s: int, batch: tuple, done):
        items = self._annotate(s, batch)
        self.s_n = s
        self.hist.append((s, items))
        if len(self.hist) > COMMIT_CAPACITY:
            self.hist = self.hist[-COMMIT_CAPACITY:]
        self._fan_out(s, items, done)

    def _annotate(self, s: int, batch: tuple) -> tuple:
        """Fix admin outcomes and client counters; deterministic across replicas."""
        items = []
        for req in batch:
            inner = req.inner
            if isinstance(inner, Write):
                self._bump_client(inner.client.index, inner.t_c)
                items.append(FullReq(inner, req.inner_sig, req.group))
            elif isinstance(inner, AddGroup):
                ok, detail = self._apply_add(s, inner)
                items.append(AdminItem("add", inner.group, inner.region,
                                       inner.members, inner.client, inner.t_c,
                                       req.group, ok, detail))
                self._bump_client(inner.client.index, inner.t_c)
            elif isinstance(inner, RemoveGroup):
                ok, detail = self._apply_remove(inner)
                items.append(AdminItem("remove", inner.group, "", (),
                                       inner.client, inner.t_c,
                                       req.group, ok, detail))
                self._bump_client(inner.client.index, inner.t_c)
        return tuple(items)

    def _bump_client(self, c: int, t_c: int):
        self.t[c] = max(self.t.get(c, 0), t_c)
        self.t_plus[c] = max(self.t_plus.get(c, 1), t_c + 1)

    def _apply_add(self, s: int, msg: AddGroup):
        if msg.group in self.registry:
            return False, "exists"
        self._open_group(msg.group, msg.region, tuple(msg.members))
        self.registry_version += 1
        # fan-out to the new group starts at the next sequence; its replicas
        # discover the gap via TooOld and fetch a checkpoint cross-group
        self.commit_send[msg.group].move_window(0, s + 1)
        self.sim.trace.add(self.sim.now, "registry_update", self.nid, "-", "add",
                           group=msg.group, version=self.registry_version, s=s)
        return True, ""

    def _apply_remove(self, msg: RemoveGroup):
        if msg.group not in self.registry:
            return False, "unknown"
        self._close_group(msg.group)
        self.registry_version += 1
        self.sim.trace.add(self.sim.now, "registry_update", self.nid, "-", "remove",
                           group=msg.group, version=self.registry_version)
        return True, ""

    def _fan_out(self, s: int, items: tuple, done):
        groups = sorted(self.commit_send)
        need = max(len(groups) - self.z, 1) if groups else 0
        state = {"hits": 0, "fired": False}

        def proceed():
            if state["fired"]:
                return
            state["fired"] = True
            if s % K_A == 0:
                self.cp.gen_cp(s, self._snapshot())
                self._trace_state()
            done()

        def hit():
            state["hits"] += 1
            if state["hits"] >= need:
                proceed()

        if not groups:
            proceed()
            return
        for gid in groups:
            payload = Execute(s, self._project(items, gid))
            self.commit_send[gid].send(0, s, payload, on_complete=hit)

    @staticmethod
    def _project(items: tuple, gid: int) -> tuple:
        projected = []
        for item in items:
            if isinstance(item, FullReq) and item.write.read_only and item.contact != gid:
                projected.append(Placeholder(item.write.client, item.write.t_c))
            else:
                projected.append(item)
        return tuple(projected)

    # -- checkpoints -----------------------------------------------------------------

    def _snapshot(self) -> bytes:
        reg = tuple((gid, region, members)
                    for gid, (region, members) in sorted(self.registry.items()))
        return canonical_encode((
            self.s_n,
            tuple(sorted(self.t.items())),
            tuple(self.hist),
            reg,
            self.registry_version,
        ))

    def _trace_state(self):
        core = canonical_encode((self.s_n, tuple(sorted(self.t.items())),
                                 tuple(self.hist)))
        self.sim.trace.add(self.sim.now, "state_digest", self.nid, "-", "ag",
                           hash_bytes(core).hex(), s=self.s_n)

    def on_stable_agreement_cp(self, s: int, state: bytes):
        # the state's history is the tail of delivered sequences up to s, so
        # it holds min(s, COMMIT_CAPACITY) of them; decode only to jump
        for gid in sorted(self.commit_send):
            self.commit_send[gid].move_window(0, s - min(s, COMMIT_CAPACITY) + 1)
        self.ordering.gc(s + 1)
        if s > self.s_n:
            cp_s, t_items, hist, reg, version = canonical_decode(state)
            self._jump_to(s, t_items, hist, reg, version)
        self.win_lo = s + 1
        self._resume_parked()

    def _jump_to(self, s, t_items, hist, reg, version):
        self.t = dict(t_items)
        self.hist = list(hist)
        self.s_n = s
        for c, tc in t_items:
            self.t_plus[c] = max(self.t_plus.get(c, 1), tc + 1)
        # align the registry, then refill commit channels from hist
        want = {gid: (region, tuple(m)) for gid, region, m in reg}
        for gid in [g for g in list(self.registry) if g not in want]:
            self._close_group(gid)
        for gid, (region, group_members) in sorted(want.items()):
            if gid not in self.registry:
                self._open_group(gid, region, group_members)
        self.registry_version = version
        for hs, items in self.hist:
            for gid in sorted(self.commit_send):
                payload = Execute(hs, self._project(items, gid))
                self.commit_send[gid].send(0, hs, payload)
        self.ordering.purge_pending(self._still_relevant)
        self._trace_state()

    def _still_relevant(self, req) -> bool:
        inner = req.inner
        return inner.t_c > self.t.get(inner.client.index, 0)

    def _resume_parked(self):
        if self._parked is None:
            return
        s, batch, done = self._parked
        if s <= self.s_n:
            # the checkpoint jump already covers this delivery
            self._parked = None
            done()
        elif s <= self.win_hi:
            self._parked = None
            self._process_delivery(s, batch, done)

    # -- dispatch ---------------------------------------------------------------------

    def on_payload(self, src, env):
        msg = env.payload
        if self.route_channel(src, env) or self.route_checkpoint(src, env):
            return
        if isinstance(msg, ORDERING_MSGS):
            self.ordering.handle(src, msg, env.first_sig())
        elif isinstance(msg, RegistryQuery):
            reg = tuple((gid, region, members)
                        for gid, (region, members) in sorted(self.registry.items()))
            self.send_signed(src, RegistryInfo(msg.nonce, self.registry_version, reg))
