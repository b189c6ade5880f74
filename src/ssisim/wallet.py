"""Digital wallets: a DID, its keys, credentials, and opaque other data.

The wallet file is a single canonical JSON document, so save/load/save
round-trips are byte-identical. Loading cross-checks the stored DID,
key id, and key material against each other.
"""

from dataclasses import dataclass, field

from .credentials import Credential
from .errors import KeyMismatch
from .identity import (
    DID,
    KEY_ID,
    PUBLIC_KEY_LEN,
    SEED_LEN,
    Did,
    KeyPair,
    derive_did,
    generate_keypair,
)
from .serialization import BASE64, Record, hex_codec, list_codec, pairs_codec, record_codec


@dataclass
class Wallet(Record):
    did: Did
    public_key: bytes
    private_key: bytes
    key_id: str
    credentials: list = field(default_factory=list)
    other_data: list = field(default_factory=list)  # of (label, blob bytes)

    JSON = (
        ("did", DID),
        ("public_key", hex_codec(PUBLIC_KEY_LEN)),
        ("private_key", hex_codec(SEED_LEN)),
        ("key_id", KEY_ID),
        ("credentials", list_codec(record_codec(Credential))),
        ("other_data", pairs_codec("label", "blob", BASE64)),
    )

    def __post_init__(self):
        self.credentials = list(self.credentials)
        self.other_data = list(self.other_data)

    @property
    def keypair(self) -> KeyPair:
        return KeyPair(self.public_key, self.private_key, self.key_id)

    @classmethod
    def from_json_dict(cls, value, where: str = "wallet") -> "Wallet":
        wallet = super().from_json_dict(value, where)
        keypair = generate_keypair(wallet.private_key)
        if keypair.public_key != wallet.public_key:
            raise KeyMismatch("stored public key does not derive from the private key")
        if keypair.key_id != wallet.key_id:
            raise KeyMismatch("stored key id does not match the public key")
        if derive_did(wallet.public_key) != wallet.did:
            raise KeyMismatch("stored DID does not match the public key")
        return wallet

    def add_credential(self, credential: Credential) -> None:
        self.credentials.append(credential)


def wallet_create(seed: bytes) -> Wallet:
    keypair = generate_keypair(seed)
    return Wallet(did=derive_did(keypair.public_key), public_key=keypair.public_key,
                  private_key=keypair.private_key, key_id=keypair.key_id)


def wallet_save(wallet: Wallet) -> bytes:
    return wallet.to_bytes()


def wallet_load(data: bytes) -> Wallet:
    return Wallet.from_bytes(data)
