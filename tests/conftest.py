import dataclasses

import pytest

from geobft.core import BoundCrypto, CryptoProvider, ReplicaId
from geobft.core.messages import ChannelId
from geobft.irmc import VARIANTS
from geobft.irmc.base import ChannelConfig
from geobft.irmc.conformance import ChannelNode
from geobft.simnet import FaultPlan, Simulator, Topology


def small_topology(wan=10.0, n_s=4, n_r=3, jitter=0.0):
    return Topology(regions={"S": n_s, "R": n_r},
                    wan_ms={frozenset(("S", "R")): wan},
                    inter_zone_ms=1.0, intra_zone_ms=0.1, jitter_ms=jitter)


class Channel:
    """One IRMC between scripted sender and receiver nodes, for endpoint tests."""

    def __init__(self, variant="rc", n_s=3, n_r=4, f_s=1, f_r=1, capacity=4,
                 seed=1, wan=10.0, fault_plan=None, progress_ms=20.0,
                 collector_timeout_ms=80.0, retransmit_ms=0.0, jitter=0.0):
        sender_cls, receiver_cls = VARIANTS[variant]
        self.sim = Simulator(small_topology(wan, n_s, n_r, jitter), seed,
                             fault_plan or FaultPlan())
        self.provider = CryptoProvider()
        self.senders = tuple(ReplicaId("ex", 1, i) for i in range(n_s))
        self.receivers = tuple(ReplicaId("ag", 0, i) for i in range(n_r))
        for nid in self.senders + self.receivers:
            self.provider.register_principal(nid)
        self.cfg = ChannelConfig(ChannelId("req", 1), self.senders, self.receivers,
                                 f_s, f_r, capacity=capacity,
                                 retransmit_ms=retransmit_ms,
                                 progress_ms=progress_ms,
                                 collector_timeout_ms=collector_timeout_ms)
        self.nodes = {}
        self.s_eps = []
        self.r_eps = []
        for i, nid in enumerate(self.senders):
            node = ChannelNode(nid, self.sim, BoundCrypto(self.provider, nid))
            self.sim.register(nid, node, "S", i)
            node.endpoint = sender_cls(self.cfg, node)
            self.nodes[nid] = node
            self.s_eps.append(node.endpoint)
        for i, nid in enumerate(self.receivers):
            node = ChannelNode(nid, self.sim, BoundCrypto(self.provider, nid))
            self.sim.register(nid, node, "R", i)
            node.endpoint = receiver_cls(self.cfg, node)
            self.nodes[nid] = node
            self.r_eps.append(node.endpoint)

    def run(self, ms=2000.0):
        self.sim.run_until(ms)


@pytest.fixture
def rc_channel():
    return Channel("rc")


@pytest.fixture
def sc_channel():
    return Channel("sc")


def rebuilt(value):
    """An equal value built anew, so that no part of it holds stored bytes or
    digests. Only plain tuples are rebuilt item by item: a node id is a
    tuple too, and is rebuilt as the dataclass it is."""
    if type(value) is tuple:
        return tuple(rebuilt(v) for v in value)
    if dataclasses.is_dataclass(value):
        return type(value)(*(rebuilt(getattr(value, f.name))
                             for f in dataclasses.fields(value)))
    return value


class NetSpy:
    """Observes a simulation's traffic from outside the program.

    Wraps ``sim.send`` and the ``handle_envelope`` of each watched node on
    the instances, through ``patch`` (monkeypatch.setattr). ``sent`` gets (src, dst, env) per ``Simulator.send``
    call; ``delivered`` gets (src, dst, env) per envelope a watched node
    accepted, i.e. one that left no ``auth_reject`` record.
    """

    def __init__(self, sim, nodes, patch):
        self.sent = []
        self.delivered = []
        send = sim.send

        def spy_send(src, dst, env, channel=None):
            self.sent.append((src, dst, env))
            send(src, dst, env, channel)

        patch(sim, "send", spy_send)
        records = sim.trace.records
        for node in nodes:
            self._watch(node, records, patch)

    def _watch(self, node, records, patch):
        handle = node.handle_envelope

        def spy_handle(src, env):
            n = len(records)
            handle(src, env)
            if len(records) == n or records[n][1] != "auth_reject":
                self.delivered.append((src, node.nid, env))

        patch(node, "handle_envelope", spy_handle)

    @staticmethod
    def payloads(entries, kind, src=None):
        """Payloads of the entries whose type is named kind, from src if given."""
        return [env.payload for s, _, env in entries
                if type(env.payload).__name__ == kind and (src is None or s == src)]


@pytest.fixture
def net_spy(monkeypatch):
    """NetSpy factory whose wrappers come off when the test ends."""
    return lambda sim, nodes=(): NetSpy(sim, nodes, monkeypatch.setattr)
