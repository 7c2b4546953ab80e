"""Outside-in span tracer for the geobft layers.

Spans are recorded from the benchmark's side: the public entry points of
each module are replaced by timing wrappers, at every place the name is
looked up (a function imported with ``from .core import hash_bytes`` is
bound in the importing module too, so it is replaced there as well).
Root spans are ``Node.handle_envelope`` and the callbacks handed to
``Simulator.after`` / ``Simulator.every``, named by ``__qualname__`` so
that private timer bodies (checkpoint gossip, sc progress ticks) are
measured without touching them. Callbacks handed to channel endpoints
(``receive`` callbacks, ``send`` completions) get spans too, so upcalls
are charged to the layer that owns them.

Spans are aggregated in memory per name (calls, total, self time, root
calls and root time) and per (parent, child) edge; self time is a span's
duration minus the time of its child spans. The tables are written out
when the benchmark ends.
"""
from __future__ import annotations

import importlib
import sys
from time import perf_counter

# module -> layer, for callbacks named by the module that defined them
_MODULE_LAYER = {
    "geobft.simnet": "simnet",
    "geobft.irmc.rc": "irmc.rc",
    "geobft.irmc.sc": "irmc.sc",
    "geobft.irmc.conformance": "conformance",
    "geobft.ordering": "ordering",
    "geobft.checkpoint": "checkpoint",
    "geobft.agreement": "agreement",
    "geobft.execution": "execution",
    "geobft.client": "client",
    "geobft.protocol": "protocol",
}

# (module, class or None, attribute, layer): the public entry points
_ENTRY_POINTS = [
    ("geobft.core.codec", None, "canonical_encode", "codec"),
    ("geobft.core.codec", None, "canonical_decode", "codec"),
    ("geobft.core.crypto", None, "hash_bytes", "crypto"),
    ("geobft.core.crypto", "CryptoProvider", "digest", "crypto"),
    ("geobft.core.crypto", "CryptoProvider", "sign", "crypto"),
    ("geobft.core.crypto", "CryptoProvider", "mac", "crypto"),
    ("geobft.core.crypto", "CryptoProvider", "valid_sig", "crypto"),
    ("geobft.core.crypto", "CryptoProvider", "valid_mac", "crypto"),
    ("geobft.simnet", "Simulator", "send", "simnet"),
    ("geobft.simnet", "Node", "net_send", "simnet"),
    ("geobft.simnet", "Node", "handle_envelope", "simnet"),
    ("geobft.simnet", "TraceLog", "add", "trace"),
    ("geobft.irmc.rc", "RcSender", "send", "irmc.rc"),
    ("geobft.irmc.rc", "RcSender", "move_window", "irmc.rc"),
    ("geobft.irmc.rc", "RcSender", "handle", "irmc.rc"),
    ("geobft.irmc.rc", "RcReceiver", "receive", "irmc.rc"),
    ("geobft.irmc.rc", "RcReceiver", "move_window", "irmc.rc"),
    ("geobft.irmc.rc", "RcReceiver", "handle", "irmc.rc"),
    ("geobft.irmc.sc", "ScSender", "send", "irmc.sc"),
    ("geobft.irmc.sc", "ScSender", "move_window", "irmc.sc"),
    ("geobft.irmc.sc", "ScSender", "handle", "irmc.sc"),
    ("geobft.irmc.sc", "ScReceiver", "receive", "irmc.sc"),
    ("geobft.irmc.sc", "ScReceiver", "move_window", "irmc.sc"),
    ("geobft.irmc.sc", "ScReceiver", "handle", "irmc.sc"),
    ("geobft.ordering", "MiniBft", "order", "ordering"),
    ("geobft.ordering", "MiniBft", "handle", "ordering"),
    ("geobft.ordering", "MiniBft", "gc", "ordering"),
    ("geobft.checkpoint", "CheckpointComponent", "gen_cp", "checkpoint"),
    ("geobft.checkpoint", "CheckpointComponent", "on_checkpoint_msg", "checkpoint"),
    ("geobft.checkpoint", "CheckpointComponent", "on_announce", "checkpoint"),
    ("geobft.checkpoint", "CheckpointComponent", "on_query", "checkpoint"),
    ("geobft.checkpoint", "CheckpointComponent", "on_state", "checkpoint"),
    ("geobft.checkpoint", "CheckpointComponent", "fetch_cp", "checkpoint"),
    ("geobft.agreement", "AgreementReplica", "on_payload", "agreement"),
    ("geobft.agreement", "AgreementReplica", "on_deliver", "agreement"),
    ("geobft.agreement", "AgreementReplica", "on_stable_agreement_cp", "agreement"),
    ("geobft.execution", "ExecutionReplica", "on_payload", "execution"),
    ("geobft.execution", "ExecutionReplica", "on_write_request", "execution"),
    ("geobft.execution", "ExecutionReplica", "on_weak_read", "execution"),
    ("geobft.execution", "ExecutionReplica", "on_stable_execution_cp", "execution"),
    ("geobft.client", "ClientNode", "on_payload", "client"),
    ("geobft.protocol", "RegistryResolver", "resolve", "protocol"),
    ("geobft.protocol", "RegistryResolver", "on_info", "protocol"),
    ("geobft.metrics", None, "collect_latencies", "metrics"),
]

# (module, class, method, index of the callback argument): spans for the
# callbacks these hand on; the index counts ``self`` as 0
_CALLBACK_ARGS = [
    ("geobft.simnet", "Simulator", "after", 3),
    ("geobft.simnet", "Simulator", "every", 3),
    ("geobft.irmc.rc", "RcSender", "send", 4),
    ("geobft.irmc.rc", "RcReceiver", "receive", 3),
    ("geobft.irmc.sc", "ScSender", "send", 4),
    ("geobft.irmc.sc", "ScReceiver", "receive", 3),
]


class Stat:
    __slots__ = ("layer", "calls", "total", "self", "root_calls", "root_total",
                 "root_self")

    def __init__(self, layer):
        self.layer = layer
        self.calls = 0
        self.total = 0.0
        self.self = 0.0
        self.root_calls = 0
        self.root_total = 0.0
        self.root_self = 0.0

    def row(self):
        return {"layer": self.layer, "calls": self.calls, "total_s": self.total,
                "self_s": self.self, "root_calls": self.root_calls,
                "root_total_s": self.root_total, "root_self_s": self.root_self}


class Tracer:
    def __init__(self):
        self.stats: dict[str, Stat] = {}
        self.edges: dict[tuple, int] = {}
        self._stack: list = []  # [name, child time] per open span
        self.counts: dict[str, int] = {}

    # -- spans ---------------------------------------------------------------

    def stat(self, name, layer) -> Stat:
        st = self.stats.get(name)
        if st is None:
            st = self.stats[name] = Stat(layer)
        return st

    def span(self, name: str, layer: str, fn, hook=None):
        """Wrap fn; hook(args) may return a function called after fn returns."""
        st = self.stat(name, layer)
        stack = self._stack
        edges = self.edges

        def wrapper(*args, **kwargs):
            frame = [name, 0.0]
            parent = stack[-1][0] if stack else None
            stack.append(frame)
            post = hook(args) if hook is not None else None
            t0 = perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                dt = perf_counter() - t0
                stack.pop()
                if post is not None:
                    post()
                st.calls += 1
                st.total += dt
                st.self += dt - frame[1]
                if parent is None:
                    st.root_calls += 1
                    st.root_total += dt
                    st.root_self += dt - frame[1]
                else:
                    stack[-1][1] += dt
                    key = (parent, name)
                    edges[key] = edges.get(key, 0) + 1

        wrapper.__wrapped__ = fn
        return wrapper

    def callback(self, fn):
        """Span for a callback handed to the simulator or a channel endpoint."""
        if fn is None or getattr(fn, "__wrapped__", None) is not None:
            return fn
        name = getattr(fn, "__qualname__", type(fn).__name__)
        layer = _MODULE_LAYER.get(getattr(fn, "__module__", ""), "other")
        return self.span(name, layer, fn)

    def root_self(self) -> float:
        """Self time summed over every root span so far."""
        return sum(st.root_self for st in self.stats.values())

    def count(self, key: str, n: int = 1) -> None:
        self.counts[key] = self.counts.get(key, 0) + n

    # -- installing ------------------------------------------------------------

    def install(self, hooks: dict) -> None:
        """Replace every entry point; hooks maps span name -> hook(args)."""
        for modname, clsname, attr, layer in _ENTRY_POINTS:
            mod = importlib.import_module(modname)
            owner = getattr(mod, clsname) if clsname else mod
            original = getattr(owner, attr)
            name = f"{clsname}.{attr}" if clsname else attr
            wrapped = self.span(name, layer, original, hooks.get(name))
            if clsname:
                setattr(owner, attr, wrapped)
            else:
                _rebind(original, wrapped)
        for modname, clsname, attr, index in _CALLBACK_ARGS:
            cls = getattr(importlib.import_module(modname), clsname)
            setattr(cls, attr, self._with_callback(getattr(cls, attr), index))
        # Simulator.after and .every are spans of their own as well, so that
        # their call counts give the number of timers armed
        sim = sys.modules["geobft.simnet"].Simulator
        for attr in ("after", "every"):
            setattr(sim, attr, self.span(f"Simulator.{attr}", "simnet",
                                         getattr(sim, attr)))

    def install_audit(self) -> None:
        """Spans for each entry of audit.STANDARD_CHECKS, bound where looked up."""
        audit = sys.modules["geobft.audit"]
        wrapped = []
        for check in audit.STANDARD_CHECKS:
            w = self.span("audit." + check.__name__.removeprefix("check_"),
                          "audit", check)
            _rebind(check, w)
            wrapped.append(w)
        audit.STANDARD_CHECKS = tuple(wrapped)

    def _with_callback(self, method, index):
        def wrapper(*args, **kwargs):
            if len(args) > index:
                args = args[:index] + (self.callback(args[index]),) + args[index + 1:]
            else:
                for key in ("fn", "callback", "on_complete"):
                    if key in kwargs:
                        kwargs[key] = self.callback(kwargs[key])
            return method(*args, **kwargs)

        wrapper.__wrapped__ = method
        return wrapper

    # -- reading ---------------------------------------------------------------

    def snapshot(self) -> dict:
        return {
            "spans": {name: st.row() for name, st in sorted(self.stats.items())},
            "edges": [[p, c, n] for (p, c), n in sorted(self.edges.items())],
            "counts": dict(sorted(self.counts.items())),
        }


def _rebind(original, wrapped) -> None:
    """Replace a module-level function in every geobft module that binds it."""
    for name, mod in list(sys.modules.items()):
        if mod is None or not (name == "geobft" or name.startswith("geobft.")):
            continue
        for attr, value in list(vars(mod).items()):
            if value is original:
                setattr(mod, attr, wrapped)


class CountingList(list):
    """A list that counts full iterations over it (trace passes)."""

    def __init__(self, items):
        super().__init__(items)
        self.passes = 0

    def __iter__(self):
        self.passes += 1
        return super().__iter__()
