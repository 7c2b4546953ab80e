"""Shared language and flow control of inter-regional message channels.

Subchannel windows, send/receive outcome classification, blocked sends,
window moves in both directions and TooOld all live here, in
SenderEndpoint and ReceiverEndpoint. Each endpoint keeps one progress row
(core/quorum.py) per subchannel of the highest move each peer has shown,
and a window slides by the (f+1)-highest move in it. The two variants
differ only in how the f_s+1 quorum is collected (rc: at each receiver;
sc: at a sender-side collector) and in how a receiver move is announced
to the senders.

A sender sends its window moves only to the receivers behind them:
behind(recv_moves[sc], p) lists the receivers whose shown move is below
p. Its own move_window goes out at once. When receiver moves advance its
window, the sync to the receivers still behind goes out one progress
period later, once, to the window start then: receivers move on their
own, and those that move within the period need no sync. Every
retransmit tick re-sends the highest move sent. Its data for position p
(an rc Send, an sc certificate, sent or re-sent) goes only to
behind(recv_moves[sc], p + 1), the receivers not past p. Skipping the
others changes nothing at them. A correct receiver's window start is at
least every move it has announced (move_window advances the window, and
the sc collector switch announces window.start). backed_position ignores
an ask at or below current, so a sender move at or below a receiver's
shown move cannot change that receiver's window, its TooOld outcomes or
its pending receives; and both variants drop a Send or certificate below
the window start. A receiver that inflates its moves silences only
itself.

Receivers move as they consume, and show a move only when a sender needs
it. On the request channel an agreement replica's intake shows one only
once the position it waits for next lies past the window it showed last
(every second request: one strong request per client is outstanding and
the window holds two), and an execution replica's forward moves a sender
window only with a client's first counter there or a counter that skips
one. So a sender sends a receiver no data and no move below what it
showed, and each move a sender window needs comes before the request
that needs it.
"""
from __future__ import annotations

from collections import defaultdict
from dataclasses import dataclass
from typing import Callable, Optional

from ..core.messages import ChannelId, ChMove
from ..core.quorum import backed_position, behind, progress_row, show


@dataclass
class SubchannelWindow:
    """Contiguous position interval [start, start+capacity-1]; start never decreases."""

    start: int = 1
    capacity: int = 1

    @property
    def end(self) -> int:
        return self.start + self.capacity - 1

    def advance_to(self, p: int) -> bool:
        if p > self.start:
            self.start = p
            return True
        return False

    def covers(self, p: int) -> bool:
        return self.start <= p <= self.end


BLOCKED = "blocked"
DROP = "drop"
TRANSMIT = "transmit"


def classify_send(p: int, window: SubchannelWindow) -> str:
    if p > window.end:
        return BLOCKED
    if p < window.start:
        return DROP
    return TRANSMIT


@dataclass(frozen=True)
class TooOld:
    start: int


@dataclass(frozen=True)
class Delivered:
    payload: object


def drop_below(table: dict, sc: int, start: int) -> None:
    """Forget the positions of subchannel sc that lie below start."""
    held = table.get(sc)
    if held:
        for p in [p for p in held if p < start]:
            del held[p]


def classify_receive(p: int, window: SubchannelWindow) -> Optional[TooOld]:
    """TooOld when the window has passed p; otherwise the caller waits."""
    if p < window.start:
        return TooOld(window.start)
    return None


@dataclass(frozen=True)
class ChannelConfig:
    channel: ChannelId
    senders: tuple
    receivers: tuple
    f_s: int
    f_r: int
    capacity: int
    retransmit_ms: float = 0.0
    # sc senders' progress claim period; in both variants also the delay
    # of the sync a window advance sends to the receivers still behind
    progress_ms: float = 50.0
    collector_timeout_ms: float = 200.0


class EndpointBase:
    """State shared by all endpoint variants.

    An endpoint is owned by exactly one replica node; the node routes
    verified channel messages to handle() and gives the endpoint its
    authenticated transport and timers.
    """

    def __init__(self, cfg: ChannelConfig, node):
        self.cfg = cfg
        self.node = node
        self._chan = str(cfg.channel)  # names the channel in traces and counters
        self._me = str(node.nid)       # names the owning node in traces
        self.windows: dict[int, SubchannelWindow] = {}
        self.closed = False
        self.on_new_subchannel: Optional[Callable[[int], None]] = None
        self._known_sc: set[int] = set()
        self.moves_sent: dict[int, int] = {}  # sc -> highest move announced
        if cfg.retransmit_ms > 0:
            node.every(cfg.retransmit_ms, self._retransmit)

    def window(self, sc: int) -> SubchannelWindow:
        win = self.windows.get(sc)
        if win is None:
            win = self.windows[sc] = SubchannelWindow(1, self.cfg.capacity)
        return win

    def _note_subchannel(self, sc: int) -> None:
        if sc not in self._known_sc:
            self._known_sc.add(sc)
            if self.on_new_subchannel is not None:
                self.on_new_subchannel(sc)

    def _trace(self, event: str, digest: str = "-", **data) -> None:
        sim = self.node.sim
        sim.trace.add(sim.now, event, self._me, "-", self._chan, digest, **data)

    def _broadcast(self, dsts, msg) -> None:
        self.node.multicast_signed(dsts, msg, channel=self._chan)

    def close(self) -> None:
        self.closed = True


class SenderEndpoint(EndpointBase):
    """send(sc, p, m, on_complete) and move_window(sc, p) for any variant.

    A send beyond the window blocks until f_r+1 receiver moves advance
    it; a send below the window completes without transmitting. Variants
    supply _transmit(sc, p, m), _gc(sc, start) and _resend().
    """

    def __init__(self, cfg: ChannelConfig, node):
        super().__init__(cfg, node)
        self.recv_moves = defaultdict(lambda: progress_row(cfg.receivers))  # sc -> row
        self.pending: dict[int, list] = {}     # sc -> blocked (p, m, on_complete)
        self._sync_armed: set[int] = set()     # sc with a deferred sync pending

    def send(self, sc, p, m, on_complete=None):
        if self.closed:
            return
        self._trace("ch_send_call", self.node.crypto.digest(m).hex(), sc=sc, p=p)
        outcome = classify_send(p, self.window(sc))
        if outcome == BLOCKED:
            self.pending.setdefault(sc, []).append((p, m, on_complete))
            return
        if outcome != DROP:
            self._transmit(sc, p, m)
        self._complete(sc, p, on_complete)

    def _complete(self, sc, p, on_complete):
        self._trace("ch_send_done", sc=sc, p=p)
        if on_complete is not None:
            on_complete()

    def move_window(self, sc, p):
        if self.closed:
            return
        self._trace("ch_move_call", sc=sc, p=p, side="s")
        self._sync_receivers(sc, p)

    def _sync_receivers(self, sc, start):
        if start <= self.moves_sent.get(sc, 0):
            return
        self.moves_sent[sc] = start
        self._send_move(sc, start)

    def _send_move(self, sc, p):
        dsts = behind(self.recv_moves[sc], p)
        if dsts:
            self._broadcast(dsts, ChMove(self.cfg.channel, sc, p))

    def _receiver_moved(self, src, sc, p):
        """Receiver src asked for p; the window follows the f_r+1-highest ask."""
        held = self.recv_moves[sc]
        if not show(held, src, p):
            return  # stale or replayed
        win = self.window(sc)
        new_start = backed_position(held, self.cfg.f_r, win.start)
        if new_start > win.start:
            win.start = new_start
            self._trace("win_move", sc=sc, start=new_start)
            self._gc(sc, new_start)
            if sc not in self._sync_armed:
                self._sync_armed.add(sc)
                self.node.after(self.cfg.progress_ms, lambda: self._deferred_sync(sc))
            self._flush_pending(sc)

    def _deferred_sync(self, sc):
        """Tell the receivers still behind the window that it passed them.

        Quorum-backed by the receiver moves that advanced the window. It
        goes out one progress period after the first advance, to the
        latest start: the receivers that moved meanwhile need no sync."""
        self._sync_armed.discard(sc)
        if not self.closed:
            self._sync_receivers(sc, self.window(sc).start)

    def _flush_pending(self, sc):
        waiting = self.pending.get(sc)
        if not waiting:
            return
        win = self.window(sc)
        still = []
        for p, m, done in waiting:
            outcome = classify_send(p, win)
            if outcome == BLOCKED:
                still.append((p, m, done))
                continue
            if outcome != DROP:
                self._transmit(sc, p, m)
            self._complete(sc, p, done)
        self.pending[sc] = still

    def _retransmit(self):
        if self.closed:
            return
        self._resend()
        for sc, p in self.moves_sent.items():
            self._send_move(sc, p)

    def close(self) -> None:
        # blocked sends resolve as no-ops so fan-out joins cannot deadlock
        super().close()
        for waiting in self.pending.values():
            for _, _, done in waiting:
                if done is not None:
                    done()
            waiting.clear()


class ReceiverEndpoint(EndpointBase):
    """receive(sc, p, callback) and move_window(sc, p) for any variant.

    The window follows the receiver's own moves and the f_s+1-highest
    sender move (the conservative end of the range the channel permits);
    positions it passes resolve as TooOld. Variants supply
    _announce(sc, p) and call _deliver once a quorum vouches for p.
    """

    def __init__(self, cfg: ChannelConfig, node):
        super().__init__(cfg, node)
        self.delivered: dict[int, dict] = {}     # sc -> p -> payload
        self.pending_recv: dict[tuple, list] = {}  # (sc, p) -> callbacks
        self.sender_moves = defaultdict(lambda: progress_row(cfg.senders))  # sc -> row

    def receive(self, sc, p, callback):
        if self.closed:
            return
        self._trace("ch_recv_call", sc=sc, p=p)
        self._note_subchannel(sc)
        too_old = classify_receive(p, self.window(sc))
        if too_old is not None:
            self._resolve(sc, p, callback, too_old)
            return
        held = self.delivered.get(sc, {}).get(p)
        if held is not None:
            self._resolve(sc, p, callback, Delivered(held))
            return
        self.pending_recv.setdefault((sc, p), []).append(callback)

    def _resolve(self, sc, p, callback, outcome):
        if isinstance(outcome, TooOld):
            self._trace("ch_recv_tooold", sc=sc, p=p, new_start=outcome.start)
        else:
            self._trace("ch_recv_msg", sc=sc, p=p)
        callback(outcome)

    def _deliver(self, sc, p, payload, digest: bytes, senders):
        """Record p as delivered, vouched for by senders, and wake its readers."""
        self.delivered.setdefault(sc, {})[p] = payload
        self._trace("irmc_deliver", digest.hex(), sc=sc, p=p,
                    senders=";".join(str(s) for s in sorted(senders, key=str)))
        for cb in self.pending_recv.pop((sc, p), []):
            self._resolve(sc, p, cb, Delivered(payload))

    def move_window(self, sc, p):
        if self.closed:
            return
        self._trace("ch_move_call", sc=sc, p=p, side="r")
        if p > self.moves_sent.get(sc, 0):
            self.moves_sent[sc] = p
            self._announce(sc, p)
        if self.window(sc).advance_to(p):
            self._trace("win_move", sc=sc, start=p)
            self._gc(sc, p)

    def _on_move(self, src, msg):
        sc = msg.sc
        self._note_subchannel(sc)
        held = self.sender_moves[sc]
        if not show(held, src, msg.p):
            return
        win = self.window(sc)
        new_start = backed_position(held, self.cfg.f_s, win.start)
        if new_start > win.start:
            self.move_window(sc, new_start)

    def _gc(self, sc, start):
        drop_below(self.delivered, sc, start)
        for key in [k for k in self.pending_recv if k[0] == sc and k[1] < start]:
            for cb in self.pending_recv.pop(key):
                self._resolve(key[0], key[1], cb, TooOld(start))

    def _retransmit(self):
        if self.closed:
            return
        for sc, p in self.moves_sent.items():
            self._announce(sc, p)
