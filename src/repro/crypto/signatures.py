"""Simulated digital signatures.

The slow path of BFT protocols (leader-change STOP-DATA proofs, state
transfer certificates, reconfiguration commands) uses digital signatures.
Real asymmetric crypto adds nothing to the behaviour being reproduced, so
this module simulates an EUF-CMA signature with an HMAC under the signer's
per-principal key: only the signer (and the trusted KeyStore, standing in
for the PKI) can produce a tag that verifies. The substitution is recorded
in DESIGN.md §4.

Signing and verifying compute that HMAC with
:func:`repro.crypto.mac.hmac_sha256_pads`: the key's inner and outer
SHA-256 pad states are prepared once per principal (per signer in a
:class:`Verifier`), so a tag never reruns the key schedule.
:class:`Signature` gets the registry's direct ``__dict__``-filling
``__init__`` (:func:`repro.wire.registry.install_direct_init`), because
one is built per signed message.
"""

from __future__ import annotations

import hmac
from dataclasses import dataclass

from repro.crypto.keys import KeyStore
from repro.crypto.mac import hmac_sha256_pads
from repro.perf import PERF
from repro.wire.registry import install_direct_init

SIGNATURE_SIZE = 32

#: (signing-key, payload-identity) -> (payload, tag). Seeded by the signer
#: and hit by every verifier sharing the KeyStore: the expected tag a
#: verifier recomputes is exactly the tag the signer produced, and the
#: signing-payload bytes object is shared across replicas. Only the
#: *expected* tag is cached — every caller still runs its own
#: ``compare_digest`` against the received tag, so forged or tampered
#: signatures fail exactly as before. Entries pin the payload object.
_SIG_CACHE: dict[tuple, tuple] = {}
_SIG_CACHE_LIMIT = 8192


def clear_signature_cache() -> None:
    _SIG_CACHE.clear()


def _remember(key: bytes, payload: bytes, tag: bytes) -> None:
    if len(_SIG_CACHE) >= _SIG_CACHE_LIMIT:
        _SIG_CACHE.clear()
    _SIG_CACHE[(key, id(payload))] = (payload, tag)


@install_direct_init
@dataclass(frozen=True)
class Signature:
    """A detached signature over some payload."""

    signer: str
    tag: bytes

    def __post_init__(self) -> None:
        if len(self.tag) != SIGNATURE_SIZE:
            raise ValueError(f"signature tag must be {SIGNATURE_SIZE} bytes")


class Signer:
    """Produces signatures on behalf of one principal."""

    def __init__(self, me: str, keystore: KeyStore) -> None:
        self.me = me
        self._key = keystore.signing_key(me)
        #: Pad-keyed HMAC function (key schedule run once).
        self._tag = hmac_sha256_pads(self._key)

    def sign(self, payload: bytes) -> Signature:
        tag = self._tag(payload)
        if PERF.mac_memo and type(payload) is bytes:
            _remember(self._key, payload, tag)
        return Signature(signer=self.me, tag=tag)


class Verifier:
    """Verifies signatures from any principal (stands in for a PKI)."""

    def __init__(self, keystore: KeyStore) -> None:
        self._keystore = keystore
        #: signer -> pad-keyed HMAC function, same trick as Authenticator.
        self._tags: dict[str, object] = {}

    def verify(self, signature: Signature, payload: bytes) -> bool:
        key = self._keystore.signing_key(signature.signer)
        if PERF.mac_memo and type(payload) is bytes:
            hit = _SIG_CACHE.get((key, id(payload)))
            if hit is not None and hit[0] is payload:
                return hmac.compare_digest(hit[1], signature.tag)
        tag = self._tags.get(signature.signer)
        if tag is None:
            tag = hmac_sha256_pads(key)
            self._tags[signature.signer] = tag
        expected = tag(payload)
        if PERF.mac_memo and type(payload) is bytes:
            _remember(key, payload, expected)
        return hmac.compare_digest(expected, signature.tag)
