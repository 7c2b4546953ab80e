"""Flat BFT baseline: one replica per region, consensus over WAN links.

Reuses the MiniBFT ordering implementation with clients attached
directly to all replicas, giving the single-set-of-replicas comparison
point without a hierarchical protocol.
"""
from __future__ import annotations

from .core.messages import ReadWeak, Request, Result, Write
from .execution import ExecutingNode
from .ordering import MiniBft


class FlatBftReplica(ExecutingNode):
    def __init__(self, nid, sim, crypto, members: tuple, f: int,
                 authorized: frozenset, view_timeout_ms: float):
        super().__init__(nid, sim, crypto, authorized)
        self.ordering = MiniBft(self, members, f, self._validate,
                                view_timeout_ms=view_timeout_ms)
        self.ordering.deliver_handler = self._deliver

    def _validate(self, req) -> bool:
        return isinstance(req, Request) and isinstance(req.inner, Write) \
            and self._request_signed(req)

    def on_payload(self, src, env):
        msg = env.payload
        if isinstance(msg, Write):
            self._on_write(src, msg, env)
        elif isinstance(msg, ReadWeak):
            self.on_weak_read(src, msg, env)
        else:
            self.ordering.handle(src, msg, env.first_sig())

    def _on_write(self, src, msg: Write, env):
        if not self._client_auth_ok(msg, env, need_sig=True):
            return
        c = msg.client.index
        held = self.u.get(c)
        if held is not None and msg.t_c <= held[0]:
            if held[0] == msg.t_c:
                self.send_mac(msg.client, Result(msg.client, msg.t_c, held[1]))
            return
        self.ordering.order(Request(msg, env.first_sig(), 0))

    def _deliver(self, s, batch, done):
        for idx, req in enumerate(batch):
            write = req.inner
            reply = self.execute_write(s, idx, write, req.inner_sig)
            if reply is not None:
                self.send_mac(write.client, Result(write.client, write.t_c, reply))
        self.s_n = s
        if s % 16 == 0 and s > 16:
            # executed state doubles as the checkpoint at baseline scale; a
            # 16-sequence tail keeps gap-fetch possible while the proposal
            # pipeline (low_water + PIPELINE) never runs dry
            self.ordering.gc(s - 16)
        done()
