"""Client library: writes, strong reads, weak reads.

A client runs its scenario `ClientSpec` until the run's issue horizon.
Strong operations consume the client counter, go to every member of the
client's group under one MAC for that group, are resent every retry
period, and are accepted on f+1 matching replies. Weak reads run on an
independent loop (no counter obligations) and escalate to a strong read
after too many mismatching rounds. A spider client resolves groups
through the BFT registry and leaves an unresponsive group after bounded
retries.
"""
from __future__ import annotations

import random
from dataclasses import dataclass
from typing import Optional

from .application import RESUBMIT, get_op, put_op
from .core.messages import (
    AddGroup,
    ReadWeak,
    RegistryInfo,
    RemoveGroup,
    Result,
    Write,
)
from .core.quorum import tally
from .protocol import MIN_RETRY_MS, ProtocolNode, RegistryResolver, group_key
from .scenario import ClientSpec

RETRY_LIMIT = 4  # strong-request retries before a spider client switches group
WEAK_ROUNDS = 2  # mismatching weak-read rounds before escalating to a strong read
VALUE_SIZE = 32  # bytes of a written value
KEY_SPACE = 16   # keys k0..k15 that requests pick from


@dataclass
class AdminAction:
    at_ms: float
    action: str  # "add" or "remove"
    group: int
    region: str = ""
    members: tuple = ()


class ClientNode(ProtocolNode):
    def __init__(self, nid, sim, crypto, f_a: int, f_e: int, ag_members: tuple,
                 spec: ClientSpec, issue_until_ms: float, seed: int,
                 static_group: Optional[tuple] = None, admin_script: tuple = ()):
        super().__init__(nid, sim, crypto)
        self.ag_members = ag_members
        self.spec = spec
        self.issue_until_ms = issue_until_ms
        self.rng = random.Random((seed, nid.index, "wl").__repr__())
        self.static_group = static_group  # (gid, members, quorum) for flat mode
        self.admin_script = sorted(admin_script, key=lambda a: a.at_ms)
        self.registry = RegistryResolver(self, ag_members, f_a)

        self.t_c = 1
        self.group: Optional[int] = None
        self.group_members: tuple = ()
        self.quorum = f_e + 1
        self.groups_cache: tuple = ()
        self.outstanding: Optional[dict] = None
        self.queue: list = []
        self.weak_nonce = 0
        self.weak_current: Optional[dict] = None
        self.done_strong = 0

    # -- startup -------------------------------------------------------------------

    def start(self):
        super().start()
        for action in self.admin_script:
            self.after(action.at_ms, lambda a=action: self._enqueue_admin(a))
        self.after(self.spec.start_ms, self._boot)

    def _boot(self):
        if self.static_group is not None:
            gid, members, quorum = self.static_group
            self.group, self.group_members, self.quorum = gid, tuple(members), quorum
            self._begin()
        else:
            self.registry.resolve(self._first_registry)

    def _first_registry(self, version, groups):
        self.groups_cache = groups
        self._choose_group(exclude=None)
        self._begin()

    def _begin(self):
        if self.spec.strong_rate_per_s > 0:
            self._schedule_next_strong(first=True)
        if self.spec.weak_rate_per_s > 0:
            self._schedule_next_weak(first=True)

    def _choose_group(self, exclude):
        my_place = self.sim.place(self.nid)
        best = None
        for gid, region, members in self.groups_cache:
            if exclude is not None and gid == exclude and len(self.groups_cache) > 1:
                continue
            lat = self.sim.topology.latency(my_place, (region, 0))
            key = (lat, gid)
            if best is None or key < best[0]:
                best = (key, gid, members)
        if best is None:
            return
        self.group, self.group_members = best[1], tuple(best[2])

    # -- workload ------------------------------------------------------------------

    def _gap_ms(self, rate) -> float:
        return self.rng.expovariate(rate) * 1000.0

    def _schedule_next_strong(self, first=False):
        gap = self._gap_ms(self.spec.strong_rate_per_s)
        if first:
            gap = self.rng.uniform(0, 1000.0 / self.spec.strong_rate_per_s)
        self.after(gap, self._next_strong)

    def _next_strong(self):
        if self.sim.now > self.issue_until_ms:
            return
        # closed loop: at most one outstanding request per client
        if self.outstanding is None and not self.queue:
            key = f"k{self.rng.randrange(KEY_SPACE)}"
            if self.rng.random() < self.spec.write_fraction:
                value = bytes(self.rng.randrange(256)
                              for _ in range(VALUE_SIZE))
                op, read_only = put_op(key, value), False
            else:
                op, read_only = get_op(key), True
            self.queue.append((op, read_only, "workload"))
            self._pump_strong()
        self._schedule_next_strong()

    def _enqueue_admin(self, action: AdminAction):
        self.queue.append((action, None, "admin"))
        self._pump_strong()

    def _pump_strong(self):
        if self.outstanding is not None or not self.queue:
            return
        op, read_only, origin = self.queue.pop(0)
        self._issue_strong(op, read_only, origin)

    def _issue_strong(self, op, read_only, origin):
        t_c = self.t_c
        if origin == "admin":
            action = op
            if action.action == "add":
                inner = AddGroup(action.group, action.region, tuple(action.members),
                                 self.nid, t_c)
            else:
                inner = RemoveGroup(action.group, self.nid, t_c)
            kind = "admin"
        else:
            inner = Write(op, self.nid, t_c, read_only)
            kind = "read_strong" if read_only else "write"
        self.outstanding = {
            "inner": inner, "t_c": t_c, "kind": kind, "retries": 0,
            "tally": {}, "issued": self.sim.now, "origin": origin,
        }
        self.sim.trace.add(self.sim.now, "client_issue", self.nid, "-", kind,
                           t_c=t_c, group=self.group,
                           op=op.hex() if isinstance(op, bytes) else str(op))
        self._broadcast_strong()
        self._arm_retry(t_c)

    def _broadcast_strong(self):
        self._send_group(self.outstanding["inner"], signed=True)

    def _send_group(self, msg, signed: bool):
        """Send msg to every member of the current group under one MAC for
        that group, so one envelope serves every member in both modes; it
        stands in for a MAC vector with an entry per member. A strong
        request also carries a signature."""
        crypto, scope = self.crypto, group_key(self.group)

        def auth(p):
            mac = crypto.mac(scope, p)
            return (mac, crypto.sign(p)) if signed else (mac,)

        self.net_send(self.group_members, msg, auth)

    def _retry_period(self) -> float:
        if not self.group_members:
            return 50.0
        delay = self.sim.delay
        worst = max(delay(self.nid, m) for m in self.group_members)
        ag = max((delay(m, a) for m in self.group_members for a in self.ag_members),
                 default=0.0)
        return max(MIN_RETRY_MS, 2.0 * (2.0 * worst + 2.0 * ag) + 10.0)

    def _arm_retry(self, t_c):
        def fire():
            out = self.outstanding
            if out is None or out["t_c"] != t_c:
                return
            out["retries"] += 1
            if out["retries"] > RETRY_LIMIT and self.static_group is None:
                self._switch_group()
                return
            self._broadcast_strong()
            self._arm_retry(t_c)

        self.after(self._retry_period(), fire)

    def _switch_group(self):
        stuck = self.group
        self.sim.trace.add(self.sim.now, "client_switch", self.nid, "-", "group",
                           old=stuck)

        def with_registry(version, groups):
            out = self.outstanding
            if out is None:
                return
            self.groups_cache = groups
            self._choose_group(exclude=stuck)
            out["retries"] = 0
            out["tally"] = {}
            self._broadcast_strong()
            self._arm_retry(out["t_c"])

        self.registry.resolve(with_registry)

    # -- replies -------------------------------------------------------------------

    def on_payload(self, src, env):
        msg = env.payload
        if isinstance(msg, Result):
            if msg.weak:
                self._on_weak_reply(src, msg)
            else:
                self._on_strong_reply(src, msg)
        elif isinstance(msg, RegistryInfo):
            self.registry.on_info(src, msg)

    def _on_strong_reply(self, src, msg: Result):
        out = self.outstanding
        if out is None or msg.t_c != out["t_c"] or msg.client != self.nid:
            return
        if src in out["tally"]:
            return  # each replica may only contribute one reply
        out["tally"][src] = (msg.reply, msg.resubmit)
        won = tally(out["tally"], self.quorum)
        if won is not None:
            self._accept_strong(*won[0])

    def _accept_strong(self, reply, resubmit):
        out = self.outstanding
        self.outstanding = None
        self.t_c += 1
        if resubmit or reply == RESUBMIT:
            # the group skipped this read under global flow control; reissue
            self.sim.trace.add(self.sim.now, "client_resubmit", self.nid, "-",
                               out["kind"], t_c=out["t_c"])
            inner = out["inner"]
            self.queue.insert(0, (inner.op, True, out["origin"]))
        else:
            self.done_strong += 1
            self.sim.trace.add(self.sim.now, "client_accept", self.nid, "-",
                               out["kind"], t_c=out["t_c"],
                               latency=self.sim.now - out["issued"],
                               reply=reply.hex())
        self._pump_strong()

    # -- weak reads ------------------------------------------------------------------

    def _schedule_next_weak(self, first=False):
        gap = self._gap_ms(self.spec.weak_rate_per_s)
        if first:
            gap = self.rng.uniform(0, 1000.0 / self.spec.weak_rate_per_s)
        self.after(gap, self._next_weak)

    def _next_weak(self):
        if self.sim.now > self.issue_until_ms:
            return
        if self.weak_current is None and self.group_members:
            key = f"k{self.rng.randrange(KEY_SPACE)}"
            self.weak_current = {
                "op": get_op(key), "rounds": 0, "issued": self.sim.now,
            }
            self._weak_round()
        self._schedule_next_weak()

    def _weak_round(self):
        cur = self.weak_current
        if cur is None:
            return
        self.weak_nonce += 1
        nonce = self.weak_nonce
        cur["nonce"] = nonce
        cur["tally"] = {}
        if cur["rounds"] == 0:
            self.sim.trace.add(self.sim.now, "client_issue", self.nid, "-",
                               "read_weak", t_c=nonce, group=self.group,
                               op=cur["op"].hex())
        self._send_group(ReadWeak(cur["op"], self.nid, nonce), signed=False)
        self.after(self._weak_period(), lambda: self._weak_timeout(nonce))

    def _weak_period(self) -> float:
        worst = max(self.sim.delay(self.nid, m) for m in self.group_members)
        return 2.0 * worst + 5.0

    def _on_weak_reply(self, src, msg: Result):
        cur = self.weak_current
        if cur is None or msg.t_c != cur.get("nonce") or msg.client != self.nid:
            return
        replies = cur["tally"]
        if src in replies:
            return
        replies[src] = msg.reply
        won = tally(replies, self.quorum)
        if won is None:
            return
        self.sim.trace.add(self.sim.now, "client_accept", self.nid, "-",
                           "read_weak", t_c=msg.t_c,
                           latency=self.sim.now - cur["issued"],
                           reply=won[0].hex(), issued=cur["issued"])
        self.weak_current = None

    def _weak_timeout(self, nonce):
        cur = self.weak_current
        if cur is None or cur.get("nonce") != nonce:
            return
        cur["rounds"] += 1
        if cur["rounds"] > WEAK_ROUNDS:
            # stalled read: upgrade to a strongly consistent read
            self.sim.trace.add(self.sim.now, "client_escalate", self.nid, "-",
                               "read_weak", nonce=nonce, issued=cur["issued"])
            self.queue.insert(0, (cur["op"], True, "escalation"))
            self.weak_current = None
            self._pump_strong()
        else:
            self._weak_round()
