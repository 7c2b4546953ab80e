"""IRMC with sender-side collection.

Senders exchange signed hashes of their Sends inside the sender group;
a collector assembles f_s+1 matching shares into one Certificate and
sends it to each receiver it collects for that has not moved past the
position (base.py). Progress claims let receivers police collectors
that withhold certificates and switch to a different one after a
timeout.

A sender claims progress only to the receivers behind some claim (for a
claimed (sc, p), behind(recv_moves[sc], p+1), the rule its window moves
follow), and only when its claim vector differs from the one it last
sent; an unchanged vector goes out again once collector_timeout_ms has
passed since the last claim send. That is news when it appears plus a
slow refresh to repair losses (Demers et al., PODC 1987). A correct
receiver waiting on q has not moved past q, so it is behind every claim
>= q, and:
- a new claim reaches every receiver behind it at the first tick after
  it appears;
- a claim that was dropped, by a partition at either end or a lossy
  link, is sent again at the first tick one collector timeout after the
  last claim send; a partitioned sender's ticks run on meanwhile;
- a receiver checks the claims it holds whenever claims arrive and
  whenever it starts to wait, so its collector timer starts as soon as
  f_s+1 senders claim a position it waits on.
Claims are hints: a receiver delivers only what a certificate proves.
Windows, blocked sends and moves come from the shared endpoints in
base.py; a receiver's moves also name its collector.
"""
from __future__ import annotations

from collections import defaultdict
from operator import itemgetter
from typing import Optional

from ..core.messages import ChCert, ChMove, ChProgress, ChSend, ChShare
from ..core.quorum import (
    backed_position, behind, certificate_signers, progress_row, show, tally)
from .base import ChannelConfig, ReceiverEndpoint, SenderEndpoint, drop_below


def _share_digest(crypto, channel, sc, p, payload) -> bytes:
    return crypto.digest(ChSend(channel, sc, p, payload))


class ScSender(SenderEndpoint):
    def __init__(self, cfg: ChannelConfig, node):
        # armed before the base class arms the retransmit timer: timers due
        # at the same instant fire in arming order, progress tick first
        node.every(cfg.progress_ms, self._progress_tick)
        super().__init__(cfg, node)
        self.my_index = cfg.senders.index(node.nid)
        self.peers = tuple(s for s in cfg.senders if s != node.nid)
        self.content: dict[int, dict] = {}   # sc -> p -> payload (own sends)
        self.shares: dict[int, dict] = {}    # sc -> p -> signer -> (digest, Sig)
        self.certs: dict[int, dict] = {}     # sc -> p -> ChCert
        self.move_counters = progress_row(cfg.receivers)  # highest Move counter
        self.collector_of: dict = {
            r: r.index % len(cfg.senders) for r in cfg.receivers
        }
        self._progress: Optional[ChProgress] = None  # the last claim sent
        self._refresh_at = 0.0  # when an unchanged claim may go out again

    def _transmit(self, sc, p, m):
        self.content.setdefault(sc, {})[p] = m
        digest = _share_digest(self.node.crypto, self.cfg.channel, sc, p, m)
        share = ChShare(self.cfg.channel, sc, p, digest)
        own = self.node.crypto.sign(share)
        self.shares.setdefault(sc, {}).setdefault(p, {})[self.node.nid] = (digest, own)
        self._broadcast(self.peers, share)
        self._try_assemble(sc, p)

    def _collected_by_me(self, sc, p) -> list:
        """The receivers this sender collects for that have not moved past p."""
        return [r for r in behind(self.recv_moves[sc], p + 1)
                if self.collector_of.get(r) == self.my_index]

    def handle(self, src, msg, sig=None):
        if self.closed:
            return
        if isinstance(msg, ChShare) and src in self.cfg.senders:
            self._on_share(src, msg, sig)
        elif isinstance(msg, ChMove) and src in self.cfg.receivers:
            self._on_move(src, msg)

    def _on_share(self, src, msg, sig):
        if sig is None or sig.signer != src:
            return
        sc, p = msg.sc, msg.p
        if p < self.window(sc).start:
            return
        slot = self.shares.setdefault(sc, {}).setdefault(p, {})
        if src in slot:
            return
        slot[src] = (msg.digest, sig)
        self._try_assemble(sc, p)

    def _try_assemble(self, sc, p):
        if p in self.certs.get(sc, {}):
            return
        slot = self.shares.get(sc, {}).get(p, {})
        own = slot.get(self.node.nid)
        if own is None:
            return  # cannot vouch without own matching content
        digest = own[0]
        payload = self.content[sc][p]
        q = self.cfg.f_s + 1
        # only f_s signers can be faulty, so no other digest holds q shares
        won = tally(slot, q, key=itemgetter(0))
        if won is None or won[0] != digest:
            return
        cert = ChCert(self.cfg.channel, sc, p, payload,
                      tuple(slot[s][1] for s in sorted(won[1], key=str)[:q]))
        self.certs.setdefault(sc, {})[p] = cert
        self._broadcast(self._collected_by_me(sc, p), cert)

    def _on_move(self, src, msg):
        if msg.counter is not None and not show(self.move_counters, src, msg.counter):
            return  # replayed Move
        newly_selected = False
        if msg.collector is not None:
            was = self.collector_of.get(src)
            self.collector_of[src] = msg.collector
            newly_selected = msg.collector == self.my_index and was != self.my_index
        self._receiver_moved(src, msg.sc, msg.p)
        if newly_selected:
            # catch the switching receiver up on every subchannel we can serve
            for sc_q in sorted(self.certs):
                self._send_queued(src, sc_q, self.window(sc_q).start)

    def _send_queued(self, dst, sc, from_p):
        for p in sorted(self.certs.get(sc, {})):
            if p >= from_p:
                self.node.send_signed(dst, self.certs[sc][p], channel=self._chan)

    def _gc(self, sc, start):
        for table in (self.content, self.shares, self.certs):
            drop_below(table, sc, start)

    def _progress_tick(self):
        if self.closed:
            return
        pvec = []
        for sc in sorted(self.certs):
            win = self.window(sc)
            p = win.start - 1
            held = self.certs[sc]
            while p + 1 in held:
                p += 1
            pvec.append((sc, p))
        # a receiver whose move passed every claim waits on none of them
        # ids are interned, so the list tests compare by identity, not hash
        waiting = [r for sc, p in pvec for r in behind(self.recv_moves[sc], p + 1)]
        if not waiting:
            return
        pvec = tuple(pvec)
        now = self.node.sim.now
        msg = self._progress
        if msg is None or msg.pvec != pvec:
            msg = self._progress = ChProgress(self.cfg.channel, pvec)
        elif now < self._refresh_at:
            return  # unchanged: the receivers behind it already had it
        self._refresh_at = now + self.cfg.collector_timeout_ms
        self._broadcast([r for r in self.cfg.receivers if r in waiting], msg)

    def _resend(self):
        me = self.node.nid
        for sc, held in self.content.items():
            win = self.window(sc)
            shares = self.shares[sc]
            for p in sorted(held):
                if win.covers(p):
                    digest = shares[p][me][0]
                    self._broadcast(self.peers, ChShare(self.cfg.channel, sc, p, digest))
        for sc, held in self.certs.items():
            win = self.window(sc)
            for p, cert in sorted(held.items()):
                if win.covers(p):
                    self._broadcast(self._collected_by_me(sc, p), cert)


class ScReceiver(ReceiverEndpoint):
    def __init__(self, cfg: ChannelConfig, node):
        super().__init__(cfg, node)
        self.my_index = cfg.receivers.index(node.nid)
        self.collector = self.my_index % len(cfg.senders)
        self.move_counter = 0
        self.progress_claims = defaultdict(lambda: progress_row(cfg.senders))  # sc -> row
        self._timer_pending = False

    def _announce(self, sc, p):
        self.move_counter += 1
        msg = ChMove(self.cfg.channel, sc, p, collector=self.collector,
                     counter=self.move_counter)
        self._broadcast(self.cfg.senders, msg)

    def handle(self, src, msg, sig=None):
        if self.closed or src not in self.cfg.senders:
            return
        if isinstance(msg, ChCert):
            self._on_cert(src, msg)
        elif isinstance(msg, ChProgress):
            self._on_progress(src, msg)
        elif isinstance(msg, ChMove):
            self._on_move(src, msg)

    def receive(self, sc, p, callback):
        super().receive(sc, p, callback)
        if (sc, p) in self.pending_recv:
            self._check_stall()  # it may wait on claims it already holds

    def _on_cert(self, src, msg):
        if msg.channel != self.cfg.channel:
            return
        sc, p = msg.sc, msg.p
        self._note_subchannel(sc)
        if p < self.window(sc).start:
            return
        if p in self.delivered.get(sc, {}):
            return
        digest = _share_digest(self.node.crypto, self.cfg.channel, sc, p, msg.payload)
        share = ChShare(self.cfg.channel, sc, p, digest)
        signers = certificate_signers(((share, sig) for sig in msg.shares),
                                      self.cfg.senders, self.cfg.f_s + 1,
                                      self.node.crypto.valid_sig)
        if signers is None:
            return  # one bad inner share rejects the whole certificate
        self._deliver(sc, p, msg.payload, self.node.crypto.digest(msg.payload), signers)

    def _on_progress(self, src, msg):
        if msg.channel != self.cfg.channel:
            return
        for sc, p in msg.pvec:
            show(self.progress_claims[sc], src, p)
        self._check_stall()

    def _trusted_claim(self, sc) -> int:
        return backed_position(self.progress_claims[sc], self.cfg.f_s, 0)

    def _stalled_subchannels(self):
        stalled = []
        for (sc, p) in self.pending_recv:
            if p <= self._trusted_claim(sc):
                stalled.append(sc)
        return sorted(set(stalled))

    def _check_stall(self):
        if self._timer_pending or not self._stalled_subchannels():
            return
        self._timer_pending = True
        self.node.after(self.cfg.collector_timeout_ms, self._collector_timeout)

    def _collector_timeout(self):
        self._timer_pending = False
        if self.closed:
            return
        stalled = self._stalled_subchannels()
        if not stalled:
            return
        self.collector = (self.collector + 1) % len(self.cfg.senders)
        self._trace("collector_switch", collector=self.collector)
        for sc in stalled:
            self._announce(sc, self.window(sc).start)
        self._check_stall()
