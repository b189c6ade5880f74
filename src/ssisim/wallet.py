"""Digital wallets: a DID, its keys, credentials, and opaque other data.

The wallet file is a single canonical JSON document, so save/load/save
round-trips are byte-identical. Loading cross-checks the stored DID,
key id, and key material against each other.
"""

import base64
from dataclasses import dataclass, field

from .credentials import Credential
from .errors import KeyMismatch, ParseError
from .identity import (
    Did,
    KeyPair,
    SEED_LEN,
    derive_did,
    generate_keypair,
)
from .serialization import (
    canonical_json_bytes,
    expect_list,
    expect_object,
    expect_str,
    list_codec,
    load_json,
    parse_hex,
    record_codec,
)

_dump_credentials, _load_credentials = list_codec(record_codec(Credential))


@dataclass
class Wallet:
    keypair: KeyPair
    did: Did
    credentials: list = field(default_factory=list)
    other_data: list = field(default_factory=list)  # of (label, blob bytes)

    def add_credential(self, credential: Credential) -> None:
        self.credentials.append(credential)

    def add_other_data(self, label: str, blob: bytes) -> None:
        self.other_data.append((str(label), bytes(blob)))


def wallet_create(seed: bytes) -> Wallet:
    keypair = generate_keypair(seed)
    return Wallet(keypair=keypair, did=derive_did(keypair.public_key))


def wallet_save(wallet: Wallet) -> bytes:
    return canonical_json_bytes({
        "did": str(wallet.did),
        "public_key": wallet.keypair.public_key.hex(),
        "private_key": wallet.keypair.private_key.hex(),
        "key_id": wallet.keypair.key_id,
        "credentials": _dump_credentials(wallet.credentials),
        "other_data": [
            {"label": label, "blob": base64.b64encode(blob).decode("ascii")}
            for label, blob in wallet.other_data
        ],
    })


def wallet_load(data: bytes) -> Wallet:
    obj = load_json(data)
    obj = expect_object(
        obj, ("did", "public_key", "private_key", "key_id", "credentials", "other_data"),
        "wallet",
    )
    private_key = parse_hex(obj["private_key"], SEED_LEN, "private_key")
    public_key = parse_hex(obj["public_key"], SEED_LEN, "public_key")
    key_id = parse_hex(obj["key_id"], 8, "key_id").hex()
    did = Did.parse(expect_str(obj["did"], "did"))
    keypair = generate_keypair(private_key)
    if keypair.public_key != public_key:
        raise KeyMismatch("stored public key does not derive from the private key")
    if keypair.key_id != key_id:
        raise KeyMismatch("stored key id does not match the public key")
    if derive_did(public_key) != did:
        raise KeyMismatch("stored DID does not match the public key")
    credentials = list(_load_credentials(obj["credentials"], "credentials"))
    other_data = []
    for i, item in enumerate(expect_list(obj["other_data"], "other_data")):
        item_obj = expect_object(item, ("label", "blob"), f"other_data[{i}]")
        blob_text = expect_str(item_obj["blob"], "blob")
        try:
            blob = base64.b64decode(blob_text, validate=True)
        except ValueError as exc:  # binascii.Error, or a character outside ASCII
            raise ParseError(f"other_data[{i}].blob: invalid base64: {exc}") from None
        if base64.b64encode(blob).decode("ascii") != blob_text:  # decoding skips pad bits
            raise ParseError(f"other_data[{i}].blob: non-canonical base64 {blob_text!r}")
        other_data.append((expect_str(item_obj["label"], "label"), blob))
    return Wallet(keypair=keypair, did=did, credentials=credentials, other_data=other_data)
