"""Credentials and selective-disclosure presentations (schemas are in ledger.py).

A credential commits to each attribute as hash(name, value, salt) and
signs the Merkle root of those commitments, so a presentation can reveal
any subset of attributes with their salts and proofs while the rest stay
hidden. Only the commitment root is ever anchored on the ledger.

This module holds the value types and pure constructions; the ledger-
facing issuer/holder/verifier operations live in engine.py.
"""

from dataclasses import dataclass

from .errors import ParseError, SchemaMismatch, UnknownAttribute, WrongHolderKey
from .identity import DID, SIGNATURE, Did, KeyPair, derive_did, sign
from .merkle import PathStep, leaf_hash, merkle_paths, merkle_root, verify_path
from .serialization import (
    HASH,
    INT,
    STR,
    Record,
    encode_parts,
    encode_rows,
    hex_codec,
    list_codec,
    pairs_codec,
    record_codec,
    sha256,
)

SALT_LEN = 16

_CREDENTIAL_CONTEXT = "ssisim/credential/v1"
_PRESENTATION_CONTEXT = "ssisim/presentation/v1"

SALT = hex_codec(SALT_LEN)


# --- credentials -----------------------------------------------------------------


def commitment_leaf(name: str, value: str, salt: bytes) -> bytes:
    return leaf_hash(encode_parts(name, value, salt))


def commitment_root(attributes, salts) -> bytes:
    leaves = [commitment_leaf(n, v, s) for (n, v), s in zip(attributes, salts)]
    return merkle_root(leaves)


def credential_id_for(schema_id: bytes, holder_did: Did, issuance_time: int,
                      root: bytes) -> bytes:
    return sha256(encode_parts(_CREDENTIAL_CONTEXT, schema_id, holder_did, issuance_time, root))


def credential_signing_payload(credential_id: bytes, schema_id: bytes, issuer_did: Did,
                               holder_did: Did, commitment_root: bytes,
                               issuance_time: int) -> bytes:
    return encode_parts(
        _CREDENTIAL_CONTEXT,
        credential_id,
        schema_id,
        issuer_did,
        holder_did,
        commitment_root,
        issuance_time,
    )


@dataclass(frozen=True)
class Credential(Record):
    credential_id: bytes
    schema_id: bytes
    issuer_did: Did
    holder_did: Did
    attributes: tuple  # of (name, value) pairs, in schema order
    salts: tuple  # one 16-byte salt per attribute
    commitment_root: bytes
    issuance_time: int
    issuer_signature: bytes

    JSON = (
        ("credential_id", HASH),
        ("schema_id", HASH),
        ("issuer_did", DID),
        ("holder_did", DID),
        ("attributes", pairs_codec("name", "value")),
        ("salts", list_codec(SALT)),
        ("commitment_root", HASH),
        ("issuance_time", INT),
        ("issuer_signature", SIGNATURE),
    )

    def signing_payload(self) -> bytes:
        return credential_signing_payload(
            self.credential_id, self.schema_id, self.issuer_did, self.holder_did,
            self.commitment_root, self.issuance_time,
        )

    @classmethod
    def from_json_dict(cls, value, where: str | None = None) -> "Credential":
        credential = super().from_json_dict(value, where)
        if len(credential.salts) != len(credential.attributes):
            raise ParseError("credential needs one salt per attribute")
        return credential


def build_credential(issuer: KeyPair, holder_did: Did, schema,
                     values: dict, rng, issuance_time: int) -> Credential:
    """Assemble and sign a credential; reads schema's fields, does not touch the ledger."""
    expected = set(schema.attribute_names)
    provided = set(values)
    if provided != expected:
        missing = sorted(expected - provided)
        extra = sorted(provided - expected)
        raise SchemaMismatch(f"values must cover schema exactly (missing={missing}, extra={extra})")
    attributes = tuple((name, str(values[name])) for name in schema.attribute_names)
    salts = tuple(rng.randbytes(SALT_LEN) for _ in attributes)
    root = commitment_root(attributes, salts)
    fields = dict(
        credential_id=credential_id_for(schema.schema_id, holder_did, issuance_time, root),
        schema_id=schema.schema_id,
        issuer_did=derive_did(issuer.public_key),
        holder_did=holder_did,
        commitment_root=root,
        issuance_time=issuance_time,
    )
    return Credential(**fields, attributes=attributes, salts=salts,
                      issuer_signature=sign(issuer.private_key,
                                            credential_signing_payload(**fields)))


def credential_commitments_ok(credential: Credential) -> bool:
    """Recompute the commitment root and credential id from the plaintext."""
    if len(credential.attributes) != len(credential.salts) or not credential.attributes:
        return False
    if commitment_root(credential.attributes, credential.salts) != credential.commitment_root:
        return False
    return credential.credential_id == credential_id_for(
        credential.schema_id, credential.holder_did, credential.issuance_time,
        credential.commitment_root,
    )


# --- presentations ----------------------------------------------------------------


@dataclass(frozen=True)
class RevealedAttribute(Record):
    name: str
    value: str
    salt: bytes
    merkle_path: tuple  # of PathStep

    JSON = (
        ("name", STR),
        ("value", STR),
        ("salt", SALT),
        ("merkle_path", list_codec(record_codec(PathStep))),
    )


def encodings_set_hash(encodings) -> bytes:
    """The revealed-set hash from each revealed attribute's encode_parts(name, value, salt).

    That one encoding is also its commitment leaf's preimage, so neither side encodes twice.
    """
    return sha256(encode_rows(encodings, 3))


def revealed_set_hash(revealed) -> bytes:
    """sha256(encode_parts([(name, value, salt), ...])) of the revealed attributes."""
    return encodings_set_hash([encode_parts(r.name, r.value, r.salt) for r in revealed])


def presentation_signing_payload(credential_id: bytes, revealed_hash: bytes,
                                 challenge: bytes) -> bytes:
    return encode_parts(_PRESENTATION_CONTEXT, credential_id, revealed_hash, challenge)


@dataclass(frozen=True)
class Presentation(Record):
    """Challenge-bound view of a credential revealing a chosen subset.

    issuance_time travels with the presentation because the copied issuer
    signature covers it; nothing else about the hidden attributes does.
    """

    credential_id: bytes
    schema_id: bytes
    issuer_did: Did
    holder_did: Did
    issuance_time: int
    revealed: tuple  # of RevealedAttribute
    issuer_signature: bytes
    challenge: bytes
    holder_signature: bytes

    JSON = (
        ("credential_id", HASH),
        ("schema_id", HASH),
        ("issuer_did", DID),
        ("holder_did", DID),
        ("issuance_time", INT),
        ("revealed", list_codec(record_codec(RevealedAttribute))),
        ("issuer_signature", SIGNATURE),
        ("challenge", HASH),
        ("holder_signature", SIGNATURE),
    )


def create_presentation(credential: Credential, reveal, challenge: bytes,
                        holder: KeyPair) -> Presentation:
    """Reveal exactly the requested attributes; everything else stays hidden."""
    if derive_did(holder.public_key) != credential.holder_did:
        raise WrongHolderKey("holder key does not match the credential's holder DID")
    names = [name for name, _ in credential.attributes]
    reveal = set(reveal)
    unknown = reveal - set(names)
    if unknown:
        raise UnknownAttribute(f"credential has no attribute(s) {sorted(unknown)}")
    encodings = [encode_parts(n, v, s) for (n, v), s in zip(credential.attributes, credential.salts)]
    shown = [i for i, name in enumerate(names) if name in reveal]
    paths = merkle_paths([leaf_hash(e) for e in encodings], shown)
    revealed = tuple(RevealedAttribute(name=names[i], value=credential.attributes[i][1],
                                       salt=credential.salts[i], merkle_path=path)
                     for i, path in zip(shown, paths))
    holder_signature = sign(
        holder.private_key,
        presentation_signing_payload(credential.credential_id,
                                     encodings_set_hash([encodings[i] for i in shown]),
                                     challenge),
    )
    return Presentation(
        credential_id=credential.credential_id,
        schema_id=credential.schema_id,
        issuer_did=credential.issuer_did,
        holder_did=credential.holder_did,
        issuance_time=credential.issuance_time,
        revealed=revealed,
        issuer_signature=credential.issuer_signature,
        challenge=challenge,
        holder_signature=holder_signature,
    )


def revealed_proofs_ok(presentation: Presentation, encodings, root: bytes) -> bool:
    """Every revealed attribute, given as its encoding, must authenticate against the root."""
    for r, encoding in zip(presentation.revealed, encodings, strict=True):
        if not verify_path(leaf_hash(encoding), r.merkle_path, root):
            return False
    return True


# --- verification reports ------------------------------------------------------


@dataclass(frozen=True)
class VerificationReport:
    """Ordered named checks; Accept iff all pass, else the first failure names the cause."""

    checks: tuple  # of (check_name, passed) pairs

    @property
    def accepted(self) -> bool:
        return self.reject_cause is None

    @property
    def reject_cause(self) -> str | None:
        for name, passed in self.checks:
            if not passed:
                return name
        return None

    @property
    def verdict(self) -> str:
        return "accept" if self.accepted else f"reject:{self.reject_cause}"

    def to_json_dict(self) -> dict:
        return {
            "verdict": self.verdict,
            "checks": [{"name": n, "pass": p} for n, p in self.checks],
        }
