"""Seeded deterministic discrete-event simulator.

Virtual clock in milliseconds, region/zone topology with a latency
matrix, reliable-by-default point-to-point links, timers, a line-
oriented trace log and fault-injection adapters (crash, partition,
message loss, Byzantine output rewriting). Event order is a pure
function of (scenario, seed): ties break on (timestamp, sender order,
per-sender sequence).
"""
from __future__ import annotations

import heapq
import random
from dataclasses import dataclass, field
from typing import Callable, Optional

from .core import BoundCrypto, Mac, NodeId, Sig, hash_bytes
from .core.messages import ChCert, ChSend, ChShare, ChannelId, Envelope, Write


@dataclass
class Topology:
    regions: dict  # region name -> zone count
    wan_ms: dict   # frozenset({a, b}) -> one-way delay
    inter_zone_ms: float = 1.0
    intra_zone_ms: float = 0.1
    jitter_ms: float = 0.0
    proc_ms: float = 0.0  # fixed per-message handling cost at the receiver

    def latency(self, a: tuple, b: tuple) -> float:
        (ra, za), (rb, zb) = a, b
        if ra != rb:
            return self.wan_ms[frozenset((ra, rb))]
        return self.intra_zone_ms if za == zb else self.inter_zone_ms

    def validate(self) -> None:
        names = set(self.regions)
        for pair, delay in self.wan_ms.items():
            if not pair <= names:
                raise ValueError(f"latency entry {set(pair)} names unknown region")
            if delay < self.inter_zone_ms:
                raise ValueError("inter-region delay below intra-region delay")


@dataclass
class NodeFault:
    kind: str  # "crash" | "partition" | "byzantine" | "lossy"
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
    """Append-only record of every observable event, diffable across runs."""

    FIELDS = ("time", "event", "src", "dst", "kind", "digest", "data")

    def __init__(self):
        self.records: list[tuple] = []

    def add(self, time, event, src="-", dst="-", kind="-", digest="-", **data):
        self.records.append((round(time, 6), event, str(src), str(dst), kind, digest, data))

    def digest(self) -> str:
        h = hash_bytes(repr(self.records).encode())
        return h.hex()

    def lines(self):
        for time, event, src, dst, kind, digest, data in self.records:
            extra = ",".join(f"{k}={_fmt(v)}" for k, v in sorted(data.items()))
            yield f"{time}|{event}|{src}|{dst}|{kind}|{digest}|{extra}"

    def write(self, path) -> None:
        with open(path, "w") as fh:
            for line in self.lines():
                fh.write(line + "\n")

    def events(self, name: str):
        return [r for r in self.records if r[1] == name]


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
    return "s:" + str(v).replace("|", "/").replace(",", ";")


class Counters:
    """Message and byte accounting, split by WAN/local and channel."""

    def __init__(self):
        self.msgs: dict = {}
        self.bytes: dict = {}
        self.channel_wan: dict = {}  # (channel str, payload type) -> count

    def count(self, kind: str, wan: bool, size: int, channel: Optional[str]):
        key = (kind, wan)
        self.msgs[key] = self.msgs.get(key, 0) + 1
        self.bytes[key] = self.bytes.get(key, 0) + size
        if wan and channel is not None:
            ck = (channel, kind)
            self.channel_wan[ck] = self.channel_wan.get(ck, 0) + 1

    def wan_messages(self, kind=None) -> int:
        return sum(v for (k, wan), v in self.msgs.items()
                   if wan and (kind is None or k == kind))

    def wan_bytes(self) -> int:
        return sum(v for (_, wan), v in self.bytes.items() if wan)


class Simulator:
    def __init__(self, topology: Topology, seed: int, fault_plan: Optional[FaultPlan] = None):
        topology.validate()
        self.topology = topology
        self.seed = seed
        self.rng = random.Random(seed)
        self.faults = fault_plan or FaultPlan()
        self.now = 0.0
        self.trace = TraceLog()
        self.counters = Counters()
        self._heap: list = []
        self._nodes: dict = {}
        self._places: dict = {}
        self._slots: dict = {}  # owner -> [order key, last sequence number]
        self._stopped = False

    # -- wiring ------------------------------------------------------------

    def register(self, nid: NodeId, node, region: str, zone: int) -> None:
        if nid in self._nodes:
            raise ValueError(f"duplicate node {nid}")
        self._nodes[nid] = node
        self._places[nid] = (region, zone)

    def place(self, nid) -> tuple:
        return self._places[nid]

    def nodes(self):
        return dict(self._nodes)

    # -- fault state -------------------------------------------------------

    @staticmethod
    def _fault_down(f: Optional[NodeFault], at: float) -> bool:
        if f is None:
            return False
        if f.kind == "crash":
            return at >= f.at_ms
        if f.kind == "partition":
            return f.at_ms <= at < f.until_ms
        return False

    def _down(self, nid, at: float) -> bool:
        return self._fault_down(self.faults.for_node(nid), at)

    def _lossy_drop(self, f: Optional[NodeFault], at: float) -> bool:
        if f is None or f.kind != "lossy":
            return False
        return f.at_ms <= at < f.until_ms and self.rng.random() < f.rate

    # -- event plumbing ----------------------------------------------------

    def _push(self, time: float, owner, fn):
        slot = self._slots.get(owner)
        if slot is None:
            # keys are assigned on first use; construction order is deterministic
            slot = self._slots[owner] = [len(self._slots), 0]
        slot[1] += 1
        heapq.heappush(self._heap, (time, slot[0], slot[1], fn))

    def send(self, src: NodeId, dst: NodeId, env: Envelope, channel: Optional[str] = None) -> None:
        """One-way transmission; applies crash/partition/loss at both ends."""
        kind = type(env.payload).__name__
        fault = self.faults.for_node(src)
        if self._fault_down(fault, self.now) or self._lossy_drop(fault, self.now):
            self.trace.add(self.now, "net_drop", src, dst, kind)
            return
        src_place, dst_place = self._places[src], self._places[dst]
        wan = src_place[0] != dst_place[0]
        self.counters.count(kind, wan, env.wire_size(), channel)
        delay = self.topology.latency(src_place, dst_place) + self.topology.proc_ms
        if self.topology.jitter_ms:
            delay += self.rng.random() * self.topology.jitter_ms
        arrive = self.now + delay

        def deliver():
            if self._down(dst, self.now):
                self.trace.add(self.now, "net_drop", src, dst, kind)
                return
            self._nodes[dst].handle_envelope(src, env)

        self._push(arrive, src, deliver)

    def after(self, owner: NodeId, delay: float, fn: Callable[[], None]) -> None:
        """Timer owned by a node; silently skipped if the owner is down when it fires."""

        def fire():
            if self._down(owner, self.now):
                return
            fn()

        self._push(self.now + delay, owner, fire)

    def every(self, owner: NodeId, period: float, fn: Callable[[], None]) -> None:
        def tick():
            fn()
            self.after(owner, period, tick)

        self.after(owner, period, tick)

    def stop(self) -> None:
        self._stopped = True

    def run_until(self, t_end: float) -> None:
        for node in list(self._nodes.values()):
            start = getattr(node, "start", None)
            if start is not None:
                start()
        while self._heap and not self._stopped:
            time, _, _, fn = heapq.heappop(self._heap)
            if time > t_end:
                break
            self.now = time
            fn()
        self.now = t_end


class ByzantineAdapter:
    """Rewrites a faulty node's outgoing traffic; cannot forge other identities."""

    def __init__(self, strategy: str, rng: random.Random):
        self.strategy = strategy
        self.rng = rng

    def adapt(self, node, dst, payload):
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
            self.adapter = ByzantineAdapter(fault.strategy, sim.rng)

    # -- sending -----------------------------------------------------------

    def net_send(self, dst, payload, auth=(), channel=None):
        if self.adapter is not None:
            payload = self.adapter.adapt(self, dst, payload)
            if payload is None:
                return
            # a faulty node re-authenticates its rewritten payload as itself
            auth = tuple(self._reauth(a, payload) for a in auth)
        env = Envelope(payload, tuple(auth))
        self.sim.trace.add(self.sim.now, "net_send", self.nid, dst,
                           type(payload).__name__)
        self.sim.send(self.nid, dst, env, channel=channel)

    def _reauth(self, a, payload):
        if isinstance(a, Sig):
            return self.crypto.sign(payload)
        if isinstance(a, Mac):
            return self.crypto.mac(a.scope, payload)
        return a

    def send_signed(self, dst, payload, channel=None):
        self.net_send(dst, payload, (self.crypto.sign(payload),), channel=channel)

    def send_mac(self, dst, payload, scope=None, channel=None):
        self.net_send(dst, payload, (self.crypto.mac(scope or dst, payload),),
                      channel=channel)

    def after(self, delay, fn):
        self.sim.after(self.nid, delay, fn)

    def every(self, period, fn):
        self.sim.every(self.nid, period, fn)

    # -- receiving ---------------------------------------------------------

    def handle_envelope(self, src, env: Envelope) -> None:
        """Verify every attached authenticator structurally before dispatch."""
        for a in env.auth:
            if not self._auth_ok(env.payload, a):
                self.sim.trace.add(self.sim.now, "auth_reject", src, self.nid,
                                   type(env.payload).__name__)
                return
        self.sim.trace.add(self.sim.now, "deliver", src, self.nid,
                           type(env.payload).__name__)
        self.on_payload(src, env)

    def _auth_ok(self, payload, a) -> bool:
        if isinstance(a, Sig):
            return self.crypto.valid_sig(payload, a)
        if isinstance(a, Mac):
            return self.crypto.valid_mac(payload, a)
        return False

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
