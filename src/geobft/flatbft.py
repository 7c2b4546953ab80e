"""Flat BFT baseline: one replica per region, consensus over WAN links.

Reuses the MiniBFT ordering implementation with clients attached
directly to all replicas, giving the single-set-of-replicas comparison
point without a hierarchical protocol.
"""
from __future__ import annotations

from .core.messages import Request, Result
from .execution import ExecutingNode
from .ordering import MiniBft


class FlatBftReplica(ExecutingNode):
    def __init__(self, nid, sim, crypto, members: tuple, f: int,
                 authorized: frozenset, view_timeout_ms: float):
        super().__init__(nid, sim, crypto, authorized)
        self.ordering = MiniBft(self, members, f, view_timeout_ms=view_timeout_ms)
        self.ordering.deliver_handler = self._deliver

    def on_payload(self, src, env):
        if not self.route_client(src, env):
            self.ordering.handle(src, env.payload, env.first_sig())

    def forward(self, msg, sig, last):
        self.ordering.order(Request(msg, sig, 0))

    def _deliver(self, s, batch, done):
        for idx, req in enumerate(batch):
            write = req.inner
            reply = self.execute_write(s, idx, write, req.inner_sig)
            if reply is not None:
                # an executed counter counts as forwarded: a late copy of
                # the request gets the cached reply, not a second ordering
                c = write.client.index
                self.t[c] = max(self.t.get(c, 0), write.t_c)
                self.send_mac(write.client, Result(write.client, write.t_c, reply))
        self.s_n = s
        if s % 16 == 0 and s > 16:
            # executed state doubles as the checkpoint at baseline scale; a
            # 16-sequence tail keeps gap-fetch possible while the proposal
            # pipeline (low_water + PIPELINE) never runs dry
            self.ordering.gc(s - 16)
        done()
