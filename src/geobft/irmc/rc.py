"""IRMC with receiver-side collection.

Every sender sends its signed Send to every receiver endpoint not past
the position (base.py); each receiver individually collects f_s+1
matching copies before a position becomes deliverable. Windows,
blocked sends and moves come from the shared endpoints in base.py.
"""
from __future__ import annotations

from operator import itemgetter

from ..core.messages import ChMove, ChSend
from ..core.quorum import behind, tally
from .base import ChannelConfig, ReceiverEndpoint, SenderEndpoint, drop_below


class RcSender(SenderEndpoint):
    def __init__(self, cfg: ChannelConfig, node):
        super().__init__(cfg, node)
        self.outbox: dict[int, dict] = {}  # sc -> p -> payload

    def _transmit(self, sc, p, m):
        self.outbox.setdefault(sc, {})[p] = m
        self._broadcast(behind(self.recv_moves[sc], p + 1),
                        ChSend(self.cfg.channel, sc, p, m))

    def handle(self, src, msg, sig=None):
        """Signed Move from a receiver endpoint."""
        if not self.closed and src in self.cfg.receivers and isinstance(msg, ChMove):
            self._receiver_moved(src, msg.sc, msg.p)

    def _gc(self, sc, start):
        drop_below(self.outbox, sc, start)

    def _resend(self):
        for sc, box in self.outbox.items():
            win = self.window(sc)
            moves = self.recv_moves[sc]
            for p, m in sorted(box.items()):
                if win.covers(p):
                    self._broadcast(behind(moves, p + 1),
                                    ChSend(self.cfg.channel, sc, p, m))


class RcReceiver(ReceiverEndpoint):
    def __init__(self, cfg: ChannelConfig, node):
        super().__init__(cfg, node)
        self.store: dict[int, dict] = {}  # sc -> p -> sender -> (digest, payload)

    def _announce(self, sc, p):
        self._broadcast(self.cfg.senders, ChMove(self.cfg.channel, sc, p))

    def _gc(self, sc, start):
        drop_below(self.store, sc, start)
        super()._gc(sc, start)

    def handle(self, src, msg, sig=None):
        if self.closed or src not in self.cfg.senders:
            return
        if isinstance(msg, ChSend):
            self._on_send(src, msg)
        elif isinstance(msg, ChMove):
            self._on_move(src, msg)

    def _on_send(self, src, msg):
        sc, p = msg.sc, msg.p
        self._note_subchannel(sc)
        if p < self.window(sc).start:
            return  # position already garbage-collected
        slot = self.store.setdefault(sc, {}).setdefault(p, {})
        if src in slot:
            return  # equivocation guard: first stored Send per sender wins
        slot[src] = (self.node.crypto.digest(msg.payload), msg.payload)
        self._try_deliver(sc, p)

    def _try_deliver(self, sc, p):
        if p in self.delivered.get(sc, {}):
            return
        slot = self.store.get(sc, {}).get(p, {})
        won = tally(slot, self.cfg.f_s + 1, key=itemgetter(0))
        if won is None:
            return
        digest, contributors = won
        self._deliver(sc, p, slot[contributors[0]][1], digest, contributors)
