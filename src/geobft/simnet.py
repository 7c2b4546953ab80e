"""Seeded deterministic discrete-event simulator.

Virtual clock in milliseconds, region/zone topology with a latency
matrix, reliable-by-default point-to-point links, timers, a line-
oriented trace log and fault-injection adapters (crash, partition,
message loss, Byzantine output rewriting). Event order is a pure
function of (scenario, seed): ties break on (timestamp, sender order,
per-sender sequence).

Each fault kind has one rule. A crash stops its node from ``at_ms`` on:
its links and its timers. A partition cuts only its node's links while
it lasts (``send`` drops what the node sends, ``_deliver`` what it
receives); the node's timers keep running, so it retries through the
partition and its periodic ticks carry on after the heal.

The trace holds what explains a run, not every message: a send that
arrives and passes authentication leaves no record (``Counters`` keeps
the per-kind message and byte totals), while a dropped one leaves
``net_drop`` and a malformed or unauthenticated one ``auth_reject``. The trace digest is defined over
the written lines, so a trace read back from its file reproduces it.
``EVENTS`` is the trace format, each event's data keys and their types,
and ``read_trace`` rejects a record off it.
Every envelope a node sends is built and authenticated in one place,
``Node.net_send``: a correct node authenticates a payload once and hands
every destination the same ``Envelope`` (whose signatures the first
receiver's check verifies for all of them), and a Byzantine node
authenticates only what its adapter lets out.
"""
from __future__ import annotations

import hashlib
import heapq
import random
import re
from dataclasses import dataclass, field
from functools import lru_cache
from itertools import combinations
from typing import Callable, Optional

from .core import BoundCrypto, NodeId, Sig, hash_bytes
from .core.codec import well_formed
from .core.crypto import DIGEST_SIZE
from .core.messages import ChCert, ChSend, ChShare, ChannelId, Envelope, Write


@dataclass
class Topology:
    regions: dict  # region name -> zone count
    wan_ms: dict   # frozenset({a, b}) -> one-way delay
    inter_zone_ms: float = 1.0
    intra_zone_ms: float = 0.1
    jitter_ms: float = 0.0

    def latency(self, a: tuple, b: tuple) -> float:
        (ra, za), (rb, zb) = a, b
        if ra != rb:
            return self.wan_ms[frozenset((ra, rb))]
        return self.intra_zone_ms if za == zb else self.inter_zone_ms

    def validate(self) -> None:
        if any(zones < 1 for zones in self.regions.values()):
            raise ValueError("every region needs at least one zone")
        for name in ("inter_zone_ms", "intra_zone_ms", "jitter_ms"):
            if getattr(self, name) < 0:
                raise ValueError(f"{name} is negative")
        names = set(self.regions)
        for pair, delay in self.wan_ms.items():
            if not pair <= names:
                raise ValueError(f"latency entry {set(pair)} names unknown region")
            if len(pair) != 2:
                raise ValueError(f"latency entry {set(pair)} names one region twice")
            if delay < self.inter_zone_ms:
                raise ValueError("inter-region delay below intra-region delay")
        for a, b in combinations(sorted(names), 2):
            if frozenset((a, b)) not in self.wan_ms:
                raise ValueError(f"no WAN delay between {a} and {b}")


FAULT_KINDS = ("crash", "partition", "byzantine", "lossy")
BYZANTINE_STRATEGIES = ("withhold", "lying-collector", "equivocate-send",
                        "garbage-inject", "equivocating-client")


@dataclass
class NodeFault:
    kind: str  # one of FAULT_KINDS
    at_ms: float = 0.0
    until_ms: float = float("inf")
    strategy: Optional[str] = None
    rate: float = 0.0


@dataclass
class FaultPlan:
    faults: dict = field(default_factory=dict)  # NodeId -> NodeFault
    beyond_threshold: bool = False

    def for_node(self, nid) -> Optional[NodeFault]:
        return self.faults.get(nid)

    def is_correct(self, nid) -> bool:
        return nid not in self.faults


class TraceLog:
    """Append-only record of the events that explain a run, diffable across runs."""

    FIELDS = ("time", "event", "src", "dst", "kind", "digest", "data")

    def __init__(self):
        self.records: list[tuple] = []

    def add(self, time, event, src="-", dst="-", kind="-", digest="-", **data):
        self.records.append((round(time, 6), event, str(src), str(dst), kind, digest, data))

    def digest(self) -> str:
        """Hash of the bytes write() puts in a file, so read_trace reproduces it."""
        h = hashlib.blake2b(digest_size=DIGEST_SIZE)
        for line in self.lines():
            h.update(f"{line}\n".encode())
        return h.hexdigest()

    def lines(self):
        for time, event, src, dst, kind, digest, data in self.records:
            head = "|".join(map(_escape, (event, src, dst, kind, digest)))
            extra = ",".join(f"{k}={_fmt(v)}" for k, v in sorted(data.items()))
            yield f"{time}|{head}|{extra}"

    def write(self, path) -> str:
        """Write the trace file and return its digest(), hashed on the way,
        so a written trace is formatted once."""
        h = hashlib.blake2b(digest_size=DIGEST_SIZE)
        with open(path, "wb") as fh:
            for line in self.lines():
                raw = f"{line}\n".encode()
                h.update(raw)
                fh.write(raw)
        return h.hexdigest()

    def events(self, name: str):
        return [r for r in self.records if r[1] == name]


# The trace format: each event's data keys and their value types. A record
# holds exactly its event's keys; a key given as Only(kind, type) is held by
# that kind's records alone. float admits an int; HEX is a str of lowercase
# hex digit pairs (bytes.hex()). read_trace checks each record of a file
# against this table, so the auditors index a record's fields directly.
HEX = "hex"


@dataclass(frozen=True)
class Only:
    kind: str
    type: object


EVENTS = {
    "meta": {"scenario": str, "mode": str, "irmc": str, "seed": int},
    "net_drop": {},
    "auth_reject": {},
    # channel endpoints (irmc/base.py, irmc/sc.py)
    "ch_send_call": {"sc": int, "p": int},
    "ch_send_done": {"sc": int, "p": int},
    "ch_move_call": {"sc": int, "p": int, "side": str},
    "ch_recv_call": {"sc": int, "p": int},
    "ch_recv_msg": {"sc": int, "p": int},
    "ch_recv_tooold": {"sc": int, "p": int, "new_start": int},
    "irmc_deliver": {"sc": int, "p": int, "senders": str},
    "win_move": {"sc": int, "start": int},
    "collector_switch": {"collector": int},
    # ordering and agreement
    "order_deliver": {"s": int},
    "view_change_vote": {"view": int},
    "view_change": {"view": int},
    "deliver_parked": {"s": int},
    "registry_update": {"group": int, "version": int, "s": Only("add", int)},
    # checkpoints, and the state digests they are checked against
    "cp_gen": {"s": int},
    "cp_stable": {"s": int, "signers": str},
    "cp_fetch": {"s_min": int},
    "cp_transfer": {"s": int, "cross_group": bool},
    "state_digest": {"s": int, "projected": Only("ex", HEX)},
    # execution
    "execute": {"s": int, "idx": int, "c": int, "t_c": int,
                "op": HEX, "wr": HEX, "sig": HEX},
    "weak_serve": {"s_n": int, "nonce": int},
    # clients; an admin request's op is the repr of its action, not hex
    "client_issue": {"t_c": int, "group": int, "op": str},
    "client_switch": {"old": int},
    "client_resubmit": {"t_c": int},
    "client_accept": {"t_c": int, "latency": float, "reply": HEX,
                      "issued": Only("read_weak", float)},
    "client_escalate": {"nonce": int, "issued": float},
}

_HEX = re.compile("(?:[0-9a-f]{2})*")


@lru_cache(maxsize=1024)
def _shape(event: str, kind: str) -> dict:
    """The data keys, with their types, of a record of event and kind."""
    return {k: t.type if isinstance(t, Only) else t for k, t in EVENTS[event].items()
            if not isinstance(t, Only) or t.kind == kind}


def _typed(value, want) -> bool:
    if want is HEX:
        return type(value) is str and _HEX.fullmatch(value) is not None
    if want is float:
        return type(value) in (int, float)
    return type(value) is want


def _check_record(record) -> None:
    """Raises ValueError unless record holds what EVENTS gives its event and kind."""
    _, event, _, _, kind, _, data = record
    if event not in EVENTS:
        raise ValueError(f"unknown event {event!r}")
    shape = _shape(event, kind)
    if data.keys() != shape.keys():
        missing, extra = sorted(shape.keys() - data.keys()), sorted(data.keys() - shape.keys())
        raise ValueError(f"{event} record of kind {kind!r}"
                         + (f" lacks {', '.join(missing)}" if missing else "")
                         + (f" has no key {', '.join(extra)}" if extra else ""))
    for k, v in data.items():
        want = shape[k]
        if not _typed(v, want):
            raise ValueError(f"{event} {k}={v!r} is not {getattr(want, '__name__', want)}")


class TraceFormatError(ValueError):
    """A trace file line that TraceLog.write cannot have produced."""

    def __init__(self, lineno: int, reason):
        super().__init__(f"trace line {lineno}: {reason}")
        self.lineno = lineno


def read_trace(path) -> TraceLog:
    """Parse a trace file back into a TraceLog (inverse of TraceLog.write).

    Raises TraceFormatError, naming the line, on anything write() does not
    produce: a wrong field count, a data pair without "=", an unknown type
    tag, a value not in its written form, bytes that are not UTF-8, or a
    record off its EVENTS shape (an unknown event, a missing or extra key,
    a value of another type, or text that is not hex in a HEX field).
    """
    trace = TraceLog()
    with open(path, "rb") as fh:
        for lineno, raw in enumerate(fh, 1):
            try:
                record = _parse_line(raw.decode("utf-8").rstrip("\n"))
                _check_record(record)
            except ValueError as exc:  # UnicodeDecodeError is one too
                raise TraceFormatError(lineno, exc) from None
            trace.records.append(record)
    return trace


def _parse_line(line: str) -> tuple:
    fields = line.split("|")
    if len(fields) != len(TraceLog.FIELDS):
        raise ValueError(f"{len(fields)} fields, want {len(TraceLog.FIELDS)}")
    time, event, src, dst, kind, digest, extra = fields
    data = {}
    if extra:
        for pair in extra.split(","):
            k, eq, v = pair.partition("=")
            if not eq:
                raise ValueError(f"data pair {pair!r} has no '='")
            data[k] = _parse_value(v)
    head = map(_unescape, (event, src, dst, kind, digest))
    return (_written(time, int if _INTEGER.fullmatch(time) else float), *head, data)


# a written trace separates fields with "|", data pairs with "," and records
# with newlines, so strings carry those characters (and "%") as %XX escapes
_ESCAPES = {ord(c): f"%{ord(c):02X}" for c in "%,|\n\r"}
_ESCAPED = re.compile("%([0-9A-F]{2})")
# a time passed to TraceLog.add as an int is written without a fraction
_INTEGER = re.compile("-?[0-9]+")


def _escape(v) -> str:
    return str(v).translate(_ESCAPES)


def _unescape(s: str) -> str:
    if "%" not in s:
        return s
    return _ESCAPED.sub(lambda m: chr(int(m[1], 16)), s)


def _fmt(v):
    """Type-tagged so that parsing a trace file back is lossless."""
    if isinstance(v, bool):
        return f"b:{int(v)}"
    if isinstance(v, int):
        return f"i:{v}"
    if isinstance(v, float):
        return f"f:{v!r}"
    if isinstance(v, bytes):
        return f"s:{v.hex()}"
    return "s:" + _escape(v)


def _parse_value(v: str):
    tag, body = v[:2], v[2:]
    if tag == "s:":
        return _unescape(body)
    if tag == "i:":
        return _written(body, int)
    if tag == "f:":
        return _written(body, float)
    if tag == "b:" and body in ("0", "1"):
        return body == "1"
    raise ValueError(f"bad tagged value {v!r}")


def _written(text: str, kind):
    """kind(text), if that value is written as exactly text."""
    try:
        value = kind(text)
    except ValueError:
        value = None
    if value is None or str(value) != text:
        raise ValueError(f"bad {kind.__name__} {text!r}")
    return value


class Counters:
    """Message and byte accounting, split by WAN/local and channel."""

    def __init__(self):
        self._tally: dict = {}  # (payload type, wan, channel) -> [messages, bytes]

    def count(self, kind: str, wan: bool, size: int, channel: Optional[str]):
        key = (kind, wan, channel)
        tally = self._tally.get(key)
        if tally is None:
            self._tally[key] = [1, size]
        else:
            tally[0] += 1
            tally[1] += size

    def _totals(self, i: int) -> dict:
        out: dict = {}
        for (kind, wan, _), tally in self._tally.items():
            out[kind, wan] = out.get((kind, wan), 0) + tally[i]
        return out

    @property
    def msgs(self) -> dict:
        """(payload type, wan) -> messages sent."""
        return self._totals(0)

    @property
    def bytes(self) -> dict:
        """(payload type, wan) -> bytes sent."""
        return self._totals(1)

    @property
    def channel_wan(self) -> dict:
        """(channel str, payload type) -> WAN messages sent on that channel."""
        out: dict = {}
        for (kind, wan, channel), tally in self._tally.items():
            if wan and channel is not None:
                out[channel, kind] = out.get((channel, kind), 0) + tally[0]
        return out

    def wan_messages(self) -> int:
        return sum(t[0] for (_, wan, _), t in self._tally.items() if wan)

    def wan_bytes(self) -> int:
        return sum(t[1] for (_, wan, _), t in self._tally.items() if wan)


class _Entry:
    """What the simulator holds for one node id, found with one lookup per
    message end: the node, its place, its row of the delay table, its fault
    and its event-order slot (order key and last sequence number).

    An entry is made when the id registers or first queues a timer,
    whichever comes first, and reads the fault plan then. The order key is
    assigned when the id first queues an event. The node is called through
    its attributes at delivery time, so a handler patched on the instance
    after registration is the one that runs.
    """

    __slots__ = ("nid", "node", "place", "region", "index", "delays", "fault", "order", "seq")

    def __init__(self, nid, fault: Optional[NodeFault]):
        self.nid = nid
        self.node = self.place = self.region = self.index = self.delays = None
        self.fault = fault
        self.order = None
        self.seq = 0


class Simulator:
    def __init__(self, topology: Topology, seed: int, fault_plan: Optional[FaultPlan] = None):
        topology.validate()
        self.topology = topology
        self.rng = random.Random(seed)
        self.faults = fault_plan or FaultPlan()
        self.now = 0.0
        self.trace = TraceLog()
        self.counters = Counters()
        self._heap: list = []
        self._nodes: dict = {}    # registered NodeId -> node, in registration order
        self._entries: dict = {}  # NodeId -> _Entry
        self._owners = 0          # order keys assigned so far
        # one-way delay between every two (region, zone) places, by place index
        places = [(r, z) for r, zones in topology.regions.items() for z in range(zones)]
        self._place_index = {place: i for i, place in enumerate(places)}
        self._delays = [[topology.latency(a, b) for b in places] for a in places]
        self._jitter = topology.jitter_ms
        self._stopped = False
        self._started = 0  # registered nodes already started, in registration order

    # -- wiring ------------------------------------------------------------

    def register(self, nid: NodeId, node, region: str, zone: int) -> None:
        if nid in self._nodes:
            raise ValueError(f"duplicate node {nid}")
        place = (region, zone)
        index = self._place_index.get(place)
        if index is None:
            raise ValueError(f"{nid}: no place {region}:{zone} in the topology")
        entry = self._entry(nid)
        entry.node, entry.place, entry.region = node, place, region
        entry.index, entry.delays = index, self._delays[index]
        self._nodes[nid] = node

    def _entry(self, nid) -> _Entry:
        entry = self._entries.get(nid)
        if entry is None:
            entry = self._entries[nid] = _Entry(nid, self.faults.for_node(nid))
        return entry

    def place(self, nid) -> tuple:
        return self._entries[nid].place

    def delay(self, src, dst) -> float:
        """The base one-way delay from src to dst, before jitter: the entry
        of the delay table that send reads. Both must be registered."""
        return self._entries[src].delays[self._entries[dst].index]

    def nodes(self):
        return dict(self._nodes)

    # -- fault state -------------------------------------------------------

    @staticmethod
    def _crashed(f: NodeFault, at: float) -> bool:
        return f.kind == "crash" and at >= f.at_ms

    def _cut_off(self, f: NodeFault, at: float) -> bool:
        return self._crashed(f, at) or f.kind == "partition" and f.at_ms <= at < f.until_ms

    def _lossy_drop(self, f: NodeFault, at: float) -> bool:
        if f.kind != "lossy":
            return False
        return f.at_ms <= at < f.until_ms and self.rng.random() < f.rate

    # -- event plumbing ----------------------------------------------------
    #
    # A queued event is (time, order key, sequence number, fn, args); the
    # first three are unique, so fn(*args) runs without a closure per event.

    def _push(self, time: float, owner: _Entry, fn, args: tuple):
        order = owner.order
        if order is None:
            # keys are assigned on first use; construction order is deterministic
            order = owner.order = self._owners
            self._owners += 1
        owner.seq += 1
        heapq.heappush(self._heap, (time, order, owner.seq, fn, args))

    def send(self, src: NodeId, dst: NodeId, env: Envelope, channel: Optional[str] = None) -> None:
        """One-way transmission; applies crash/partition/loss at both ends."""
        now = self.now
        sender = self._entries[src]
        fault = sender.fault
        if fault is not None and (self._cut_off(fault, now)
                                  or self._lossy_drop(fault, now)):
            self.trace.add(now, "net_drop", src, dst, type(env.payload).__name__)
            return
        receiver = self._entries[dst]
        self.counters.count(type(env.payload).__name__, sender.region != receiver.region,
                            env.wire_size(), channel)
        delay = sender.delays[receiver.index]
        if self._jitter:
            delay += self.rng.random() * self._jitter
        self._push(now + delay, sender, self._deliver, (src, receiver, env))

    def _deliver(self, src, receiver: _Entry, env: Envelope) -> None:
        fault = receiver.fault
        if fault is not None and self._cut_off(fault, self.now):
            self.trace.add(self.now, "net_drop", src, receiver.nid, type(env.payload).__name__)
            return
        receiver.node.handle_envelope(src, env)

    def after(self, owner: NodeId, delay: float, fn: Callable[[], None]) -> None:
        """Timer owned by a node; skipped only if the owner has crashed when
        it fires. A partitioned owner's timers run, and its sends drop."""
        entry = self._entry(owner)
        self._push(self.now + delay, entry, self._fire, (entry, fn))

    def _fire(self, owner: _Entry, fn: Callable[[], None]) -> None:
        if owner.fault is None or not self._crashed(owner.fault, self.now):
            fn()

    def every(self, owner: NodeId, period: float, fn: Callable[[], None]) -> None:
        def tick():
            fn()
            self.after(owner, period, tick)

        self.after(owner, period, tick)

    def stop(self) -> None:
        self._stopped = True

    def run_until(self, t_end: float) -> None:
        """Run events up to t_end; nodes registered since the last call start first."""
        fresh = list(self._nodes.values())[self._started:]
        self._started += len(fresh)
        for node in fresh:
            start = getattr(node, "start", None)
            if start is not None:
                start()
        while self._heap and not self._stopped:
            if self._heap[0][0] > t_end:
                break  # left queued for a later run_until
            time, _, _, fn, args = heapq.heappop(self._heap)
            self.now = time
            fn(*args)
        self.now = t_end


class ByzantineAdapter:
    """Rewrites a faulty node's outgoing traffic; cannot forge other identities.
    strategy is one of BYZANTINE_STRATEGIES."""

    def __init__(self, strategy: str):
        self.strategy = strategy

    def adapt(self, dst, payload):
        """Return the payload to send (possibly mutated) or None to withhold."""
        s = self.strategy
        if s == "withhold":
            return None
        if s == "lying-collector":
            # withholds certificates; Progress claims still flow
            if isinstance(payload, ChCert):
                return None
            return payload
        if s == "equivocate-send":
            if isinstance(payload, ChSend):
                variant = bytes([dst_index(dst) % 2]) + b"equiv"
                return ChSend(payload.channel, payload.sc, payload.p, variant)
            if isinstance(payload, ChShare):
                digest = hash_bytes(b"equiv%d" % (dst_index(dst) % 2))
                return ChShare(payload.channel, payload.sc, payload.p, digest)
            return payload
        if s == "garbage-inject":
            if isinstance(payload, ChSend):
                return ChSend(payload.channel, payload.sc, payload.p, b"garbage")
            if isinstance(payload, ChShare):
                return ChShare(payload.channel, payload.sc, payload.p,
                               hash_bytes(b"garbage"))
            if isinstance(payload, ChCert):
                return None
            return payload
        if s == "equivocating-client":
            if isinstance(payload, Write):
                op = payload.op + b"/v%d" % (dst_index(dst) % 2)
                return Write(op, payload.client, payload.t_c, payload.read_only)
            return payload
        return payload


def dst_index(dst) -> int:
    return getattr(dst, "index", 0)


class Node:
    """Base class for every simulated principal."""

    def __init__(self, nid: NodeId, sim: Simulator, crypto: BoundCrypto):
        self.nid = nid
        self.sim = sim
        self.crypto = crypto
        fault = sim.faults.for_node(nid)
        self.adapter = None
        if fault is not None and fault.kind == "byzantine":
            self.adapter = ByzantineAdapter(fault.strategy)

    # -- sending -----------------------------------------------------------

    def net_send(self, dsts, payload, auth, channel=None):
        """Send payload to each of dsts in order, skipping this node; auth(p)
        gives the authenticators for a payload p.

        A correct node authenticates once and hands every destination the
        same envelope. A Byzantine adapter rewrites per destination, and
        the node authenticates only what the adapter lets out: nothing for
        a withheld send, one envelope per rewritten payload, and one shared
        envelope for every destination that gets the payload unchanged.
        """
        me, send, adapter = self.nid, self.sim.send, self.adapter
        same = None
        for dst in dsts:
            if dst == me:
                continue
            out = payload if adapter is None else adapter.adapt(dst, payload)
            if out is payload:
                if same is None:
                    same = Envelope(payload, auth(payload))
                send(me, dst, same, channel)
            elif out is not None:
                send(me, dst, Envelope(out, auth(out)), channel)

    def _signed(self, payload):
        return (self.crypto.sign(payload),)

    def send_signed(self, dst, payload, channel=None):
        self.net_send((dst,), payload, self._signed, channel)

    def multicast_signed(self, dsts, payload, channel=None):
        self.net_send(dsts, payload, self._signed, channel)

    def send_mac(self, dst, payload):
        self.net_send((dst,), payload, lambda p: (self.crypto.mac(dst, p),))

    def after(self, delay, fn):
        self.sim.after(self.nid, delay, fn)

    def every(self, period, fn):
        self.sim.every(self.nid, period, fn)

    # -- receiving ---------------------------------------------------------

    def handle_envelope(self, src, env: Envelope) -> None:
        """Admit an envelope that is well-formed (codec.well_formed: the
        payload and every authenticator hold what their annotations say)
        and whose every authenticator verifies, then dispatch it.

        A Sig verifies the same at every receiver that shares a crypto
        provider, so an envelope whose authenticators are all Sigs keeps
        its positive verdict as the provider that gave it (env._sigs_ok):
        a shared multicast envelope is checked once. A Mac names its
        verifier and is checked by each receiver (its shape verdict is kept,
        so only the first one checks that). A rejected envelope keeps no
        admission verdict and leaves one auth_reject per receiver.
        """
        provider = self.crypto.provider
        if env._sigs_ok is not provider:
            if not well_formed(env):
                self._reject(src, env)
                return
            all_sigs = True
            for a in env.auth:
                if not self._auth_ok(env.payload, a):
                    self._reject(src, env)
                    return
                all_sigs = all_sigs and type(a) is Sig
            if all_sigs:
                env.__dict__["_sigs_ok"] = provider
        self.on_payload(src, env)

    def _reject(self, src, env: Envelope) -> None:
        self.sim.trace.add(self.sim.now, "auth_reject", src, self.nid,
                           type(env.payload).__name__)

    def _auth_ok(self, payload, a) -> bool:
        """a is a Sig or a Mac: the envelope is well-formed."""
        if type(a) is Sig:
            return self.crypto.valid_sig(payload, a)
        return self.crypto.valid_mac(payload, a)

    def on_payload(self, src, env: Envelope) -> None:  # pragma: no cover
        raise NotImplementedError

    def start(self) -> None:
        if self.adapter is not None and self.adapter.strategy == "garbage-inject":
            self._inject_garbage()

    def _inject_garbage(self):
        def spam():
            peers = [n for n in self.sim.nodes() if n != self.nid]
            if peers:
                dst = peers[self.sim.rng.randrange(len(peers))]
                junk = bytes([self.sim.rng.randrange(256) for _ in range(8)])
                payload = ChSend(ChannelId("req", 0), 0, 1, junk)
                self.send_signed(dst, payload)
        self.every(25.0, spam)
