"""Keys, DIDs, DID documents, signatures, and encrypted envelopes.

Ed25519 signs (deterministic 64-byte signatures), X25519 + ChaCha20-
Poly1305 encrypts. A wallet holds a single 32-byte seed: the signing key
is built from it directly and the key-agreement key is derived with a
domain-separated hash, so the two roles never share key material.

Envelope construction: a fresh 24-byte nonce is drawn per message and
HKDF-SHA256 stretches the X25519 shared secret (nonce as salt) into a
one-message AEAD key; the AEAD nonce is then fixed at zero. The envelope
header (sender/recipient key fingerprints) is bound as associated data,
so any tampering fails authentication rather than yielding plaintext.
The envelope primitives are imported on first use, so a process that only
signs and verifies does not load them. Signature verdicts, and the forked
helpers that split them over the CPUs, live in verdicts; callers import them
from there.
"""

import functools
from dataclasses import dataclass, replace

from cryptography.exceptions import InvalidTag
from cryptography.hazmat.primitives.asymmetric.ed25519 import Ed25519PrivateKey

from .errors import AuthFailure, ParseError, SeedLength
from .runtime import SystemRng
from .serialization import (
    INT,
    Record,
    b58decode,
    b58encode,
    encode_parts,
    expect_str,
    hex_codec,
    pairs_codec,
    parse_hex,
    sha256,
)
from .verdicts import MEMO_SIZE, verify

SEED_LEN = 32
PUBLIC_KEY_LEN = 32
SIGNATURE_LEN = 64
NONCE_LEN = 24
KEY_ID_LEN = 8

DID_METHOD = "sim"

_KA_DOMAIN = b"ssisim/key-agreement/v1"
_ENVELOPE_INFO = b"ssisim/envelope/v1"
_DOC_CONTEXT = "ssisim/did-document/v1"
_ZERO_AEAD_NONCE = b"\x00" * 12

_default_rng = SystemRng()


def key_fingerprint(public_key: bytes) -> str:
    """First 8 bytes of SHA-256 over the key, lowercase hex."""
    return sha256(public_key)[:KEY_ID_LEN].hex()


# --- key pairs ----------------------------------------------------------------


@dataclass(frozen=True)
class KeyPair:
    """Ed25519 keypair; private_key is the 32-byte seed."""

    public_key: bytes
    private_key: bytes
    key_id: str


# Key objects and DIDs are memoized per process, keyed by the key bytes: one
# issuer or writer key signs many times, and building an Ed25519 key from its
# seed is about half the cost of a signature. The public functions check lengths
# before a memo is consulted, so every wrong-length call raises.


def _seed(private_key: bytes) -> bytes:
    """The private key as hashable bytes; SeedLength unless it is SEED_LEN long."""
    if len(private_key) != SEED_LEN:
        raise SeedLength(f"private key must be {SEED_LEN} bytes")
    return bytes(private_key)


@functools.lru_cache(maxsize=MEMO_SIZE)
def _signing_key(seed: bytes) -> Ed25519PrivateKey:
    return Ed25519PrivateKey.from_private_bytes(seed)


def generate_keypair(seed: bytes) -> KeyPair:
    """Deterministically derive a keypair from a 32-byte seed."""
    if len(seed) != SEED_LEN:
        raise SeedLength(f"seed must be {SEED_LEN} bytes, got {len(seed)}")
    seed = bytes(seed)
    public = _signing_key(seed).public_key().public_bytes_raw()
    return KeyPair(public_key=public, private_key=seed, key_id=key_fingerprint(public))


def sign(private_key: bytes, message: bytes) -> bytes:
    return _signing_key(_seed(private_key)).sign(message)


@functools.lru_cache(maxsize=MEMO_SIZE)
def _key_agreement(seed: bytes) -> tuple:
    """(X25519 private key, its public bytes), derived from the signing seed."""
    from cryptography.hazmat.primitives.asymmetric.x25519 import X25519PrivateKey

    private = X25519PrivateKey.from_private_bytes(sha256(_KA_DOMAIN + seed))
    return private, private.public_key().public_bytes_raw()


def key_agreement_public(private_key: bytes) -> bytes:
    """X25519 public key derived from the signing seed."""
    return _key_agreement(_seed(private_key))[1]


# --- DIDs ---------------------------------------------------------------------


@dataclass(frozen=True)
class Did:
    """did:sim:<base58(sha256(public_key))>."""

    method: str
    identifier: str

    def __str__(self) -> str:
        return f"did:{self.method}:{self.identifier}"

    @classmethod
    @functools.lru_cache(maxsize=MEMO_SIZE)  # DIDs recur across a file; a ParseError is not cached
    def parse(cls, text: str) -> "Did":
        prefix = f"did:{DID_METHOD}:"
        if not text.startswith(prefix):
            raise ParseError(f"DID must start with {prefix!r}, got {text[:16]!r}")
        identifier = text[len(prefix):]
        if not identifier:
            raise ParseError("empty DID identifier")
        if len(b58decode(identifier)) != 32:
            raise ParseError("DID identifier must decode to 32 bytes")
        return cls(method=DID_METHOD, identifier=identifier)


DID = (str, lambda value, where: Did.parse(expect_str(value, where)))
# A key fingerprint (see key_fingerprint), held as its hex text.
KEY_ID = (str, lambda value, where: parse_hex(value, KEY_ID_LEN, where).hex())
SIGNATURE = hex_codec(SIGNATURE_LEN)


def derive_did(public_key: bytes) -> Did:
    """Pure function from a 32-byte public key to its DID."""
    if len(public_key) != PUBLIC_KEY_LEN:
        raise ParseError(f"public key must be {PUBLIC_KEY_LEN} bytes")
    return _did_of(bytes(public_key))


@functools.lru_cache(maxsize=MEMO_SIZE)
def _did_of(public_key: bytes) -> Did:
    return Did(method=DID_METHOD, identifier=b58encode(sha256(public_key)))


# --- DID documents --------------------------------------------------------------


@dataclass(frozen=True)
class DidDocument(Record):
    """Ledger-anchored binding of a DID to its keys and service endpoints."""

    did: Did
    verification_key: bytes
    key_agreement_key: bytes
    service_endpoints: tuple  # of (name, uri) pairs
    created_at: int
    controller_signature: bytes

    # Files carry the controller signature beside the document, not in its JSON,
    # so from_json_dict takes it as the keyword controller_signature=.
    JSON = (
        ("did", DID),
        ("verification_key", hex_codec(PUBLIC_KEY_LEN)),
        ("key_agreement_key", hex_codec(PUBLIC_KEY_LEN)),
        ("service_endpoints", pairs_codec("name", "uri")),
        ("created_at", INT),
    )

    def signing_payload(self) -> bytes:
        return encode_parts(
            _DOC_CONTEXT,
            str(self.did),
            self.verification_key,
            self.key_agreement_key,
            list(self.service_endpoints),
            self.created_at,
        )

    def self_certification_job(self) -> tuple | None:
        """The (key, payload, signature) that self-certifies the document, or None.

        None means the DID is not the one derived from the verification key;
        otherwise the document self-certifies iff verify(*job) holds.
        """
        if derive_did(self.verification_key) != self.did:
            return None
        return self.verification_key, self.signing_payload(), self.controller_signature

    def verify_self(self) -> bool:
        """Self-certification: signature under its own key, DID bound to it."""
        job = self.self_certification_job()
        return job is not None and verify(*job)


def make_did_document(keypair: KeyPair, service_endpoints=(), created_at: int = 0) -> DidDocument:
    """Build and self-sign a document for the keypair's DID."""
    unsigned = DidDocument(
        did=derive_did(keypair.public_key),
        verification_key=keypair.public_key,
        key_agreement_key=key_agreement_public(keypair.private_key),
        service_endpoints=tuple((str(n), str(u)) for n, u in service_endpoints),
        created_at=created_at,
        controller_signature=b"",
    )
    return replace(unsigned, controller_signature=sign(keypair.private_key,
                                                       unsigned.signing_payload()))


# --- envelopes ------------------------------------------------------------------


@dataclass(frozen=True)
class Envelope(Record):
    """Authenticated ciphertext addressed by key-agreement key fingerprints."""

    sender_key_id: str
    recipient_key_id: str
    nonce: bytes
    ciphertext: bytes

    JSON = (
        ("sender_key_id", KEY_ID),
        ("recipient_key_id", KEY_ID),
        ("nonce", hex_codec(NONCE_LEN)),
        ("ciphertext", hex_codec(None)),
    )


def _envelope_key(shared_secret: bytes, nonce: bytes, sender_public: bytes,
                  recipient_public: bytes) -> bytes:
    # The raw X25519 secret is symmetric between the two parties; baking the
    # ordered sender/recipient keys into the KDF makes the key directional, so
    # decrypting with swapped roles fails authentication.
    _, _, HKDF, SHA256 = _envelope_crypto()
    info = _ENVELOPE_INFO + sender_public + recipient_public
    return HKDF(algorithm=SHA256(), length=32, salt=nonce, info=info).derive(shared_secret)


@functools.cache
def _envelope_crypto() -> tuple:
    """(X25519PublicKey, ChaCha20Poly1305, HKDF, SHA256), imported on first use."""
    from cryptography.hazmat.primitives.asymmetric.x25519 import X25519PublicKey
    from cryptography.hazmat.primitives.ciphers.aead import ChaCha20Poly1305
    from cryptography.hazmat.primitives.hashes import SHA256
    from cryptography.hazmat.primitives.kdf.hkdf import HKDF

    return X25519PublicKey, ChaCha20Poly1305, HKDF, SHA256


def _envelope_aad(sender_key_id: str, recipient_key_id: str) -> bytes:
    return encode_parts(sender_key_id, recipient_key_id)


def encrypt_for(recipient_public: bytes, sender_private: bytes, plaintext: bytes,
                rng=None) -> Envelope:
    """Encrypt to the recipient's key-agreement key, authenticated as sender.

    recipient_public is an X25519 key (from a DID document); sender_private
    is the sender's signing seed, from which the sender's X25519 key derives.
    """
    X25519PublicKey, ChaCha20Poly1305, _, _ = _envelope_crypto()
    rng = rng or _default_rng
    sender_key, sender_public = _key_agreement(_seed(sender_private))
    shared = sender_key.exchange(X25519PublicKey.from_public_bytes(recipient_public))
    nonce = rng.randbytes(NONCE_LEN)
    sender_key_id = key_fingerprint(sender_public)
    recipient_key_id = key_fingerprint(recipient_public)
    key = _envelope_key(shared, nonce, sender_public, recipient_public)
    ciphertext = ChaCha20Poly1305(key).encrypt(
        _ZERO_AEAD_NONCE, plaintext, _envelope_aad(sender_key_id, recipient_key_id)
    )
    return Envelope(
        sender_key_id=sender_key_id,
        recipient_key_id=recipient_key_id,
        nonce=nonce,
        ciphertext=ciphertext,
    )


def decrypt(recipient_private: bytes, sender_public: bytes, envelope: Envelope) -> bytes:
    """Recover the plaintext or raise AuthFailure; never returns garbage."""
    X25519PublicKey, ChaCha20Poly1305, _, _ = _envelope_crypto()
    recipient_key, recipient_public = _key_agreement(_seed(recipient_private))
    try:
        shared = recipient_key.exchange(X25519PublicKey.from_public_bytes(sender_public))
        key = _envelope_key(shared, envelope.nonce, sender_public, recipient_public)
        return ChaCha20Poly1305(key).decrypt(
            _ZERO_AEAD_NONCE,
            envelope.ciphertext,
            _envelope_aad(envelope.sender_key_id, envelope.recipient_key_id),
        )
    except (InvalidTag, ValueError) as exc:
        raise AuthFailure("envelope failed authentication") from exc
