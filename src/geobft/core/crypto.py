"""Simulated authentication primitives.

Authenticators are structural records binding a signer identity to the
hash of a message's canonical bytes. Verification compares that hash
with the message's own, so any tampered byte fails; forgery is
impossible because signing goes through a BoundCrypto handle pinned to
the owning principal. A real cipher suite can replace this provider
behind the same interface.

The digest of a registered message is computed once per instance and
kept beside its canonical bytes (see ``codec.message_store``), so the
sender's sign and every receiver's verify of one instance hash it once.
A rewritten message is a new instance with its own digest, which is why
messages must stay immutable.
"""
from __future__ import annotations

import hashlib
from dataclasses import dataclass
from typing import Iterable, Union

from .codec import canonical_encode, message_store, register_message
from .ids import NodeId


class ConfigurationError(Exception):
    """Key material requested for a principal the scenario never registered."""


@register_message(1)
@dataclass(frozen=True)
class GroupKey:
    """Names a replica group as a MAC-vector scope or signer set."""

    role: str
    group: int


@register_message(2)
@dataclass(frozen=True)
class Sig:
    signer: NodeId
    digest: bytes


@register_message(3)
@dataclass(frozen=True)
class Mac:
    """Stands in for both a single MAC and a MAC vector (group scope)."""

    src: NodeId
    scope: Union[NodeId, GroupKey]
    digest: bytes


DIGEST_SIZE = 16


def hash_bytes(data: bytes) -> bytes:
    return hashlib.blake2b(data, digest_size=DIGEST_SIZE).digest()


class CryptoProvider:
    """Registry of principals and groups plus sign/mac/verify operations."""

    def __init__(self):
        self._principals: set[NodeId] = set()
        self._groups: dict[GroupKey, frozenset] = {}

    def register_principal(self, node: NodeId) -> None:
        self._principals.add(node)

    def register_group(self, key: GroupKey, members: Iterable[NodeId]) -> None:
        members = frozenset(members)
        self._groups[key] = members
        self._principals |= members

    def group_members(self, key: GroupKey) -> frozenset:
        return self._groups.get(key, frozenset())

    def digest(self, msg) -> bytes:
        store = message_store(msg)
        if store is None:
            return hash_bytes(canonical_encode(msg))
        digest = store.get("_digest")
        if digest is None:
            digest = store["_digest"] = hash_bytes(canonical_encode(msg))
        return digest

    def sign(self, signer: NodeId, msg) -> Sig:
        if signer not in self._principals:
            raise ConfigurationError(f"unknown signer {signer}")
        return Sig(signer, self.digest(msg))

    def valid_sig(self, msg, sig: Sig) -> bool:
        """sig is a known principal's signature of msg; which principal may
        sign msg is the caller's check (compare sig.signer)."""
        if sig.signer not in self._principals:
            return False
        return sig.digest == self.digest(msg)

    def mac(self, src: NodeId, scope: Union[NodeId, GroupKey], msg) -> Mac:
        if src not in self._principals:
            raise ConfigurationError(f"unknown MAC source {src}")
        return Mac(src, scope, self.digest(msg))

    def valid_mac(self, msg, mac: Mac, verifier: NodeId) -> bool:
        if mac.src not in self._principals:
            return False
        if isinstance(mac.scope, GroupKey):
            if verifier not in self._groups.get(mac.scope, frozenset()):
                return False
        elif mac.scope != verifier:
            return False
        return mac.digest == self.digest(msg)


class BoundCrypto:
    """Per-node handle: can authenticate only as its own principal."""

    def __init__(self, provider: CryptoProvider, me: NodeId):
        self.provider = provider
        self.me = me

    def sign(self, msg) -> Sig:
        return self.provider.sign(self.me, msg)

    def mac(self, scope, msg) -> Mac:
        return self.provider.mac(self.me, scope, msg)

    def digest(self, msg) -> bytes:
        return self.provider.digest(msg)

    def valid_sig(self, msg, sig) -> bool:
        return self.provider.valid_sig(msg, sig)

    def valid_mac(self, msg, mac) -> bool:
        return self.provider.valid_mac(msg, mac, self.me)
