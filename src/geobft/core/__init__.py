from .codec import CodecError, canonical_decode, canonical_encode, register_message
from .crypto import (
    BoundCrypto,
    ConfigurationError,
    CryptoProvider,
    GroupKey,
    Mac,
    Sig,
    hash_bytes,
)
from .ids import (
    AGREEMENT,
    AGREEMENT_GROUP,
    EXECUTION,
    ClientId,
    FaultParams,
    NodeId,
    ReplicaId,
)
