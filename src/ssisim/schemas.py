"""Credential schemas: the named, versioned attribute lists an issuer anchors on the
registry and issues credentials against.

They live apart from credentials so that loading a ledger, whose define_schema
transactions carry them, loads neither credentials nor the Merkle tree.
"""

from dataclasses import dataclass

from .errors import ConfigError, DuplicateAttribute
from .identity import DID, Did
from .serialization import HASH, INT, MAX_INT, STR, Record, encode_parts, list_codec, sha256

_SCHEMA_CONTEXT = "ssisim/schema/v1"


@dataclass(frozen=True)
class CredentialSchema(Record):
    """Named, versioned attribute list; schema_id binds it to its issuer."""

    schema_id: bytes
    issuer_did: Did
    name: str
    version: int
    attribute_names: tuple

    JSON = (
        ("schema_id", HASH),
        ("issuer_did", DID),
        ("name", STR),
        ("version", INT),
        ("attribute_names", list_codec(STR)),
    )


def schema_id_for(issuer_did: Did, name: str, version: int, attribute_names) -> bytes:
    return sha256(
        encode_parts(_SCHEMA_CONTEXT, str(issuer_did), name, version, list(attribute_names))
    )


def make_schema(issuer_did: Did, name: str, version: int, attribute_names) -> CredentialSchema:
    """Validate and canonicalize attribute names (sorted order fixed here)."""
    if not 0 <= version <= MAX_INT:
        raise ConfigError(f"schema version {version} is outside [0, 2^64-1]")
    names = list(attribute_names)
    if not names:
        raise DuplicateAttribute("schema needs at least one attribute")
    if len(set(names)) != len(names):
        raise DuplicateAttribute(f"duplicate attribute names in {names}")
    names = tuple(sorted(names))
    return CredentialSchema(
        schema_id=schema_id_for(issuer_did, name, version, names),
        issuer_did=issuer_did,
        name=name,
        version=version,
        attribute_names=names,
    )


def schema_is_well_formed(schema: CredentialSchema) -> bool:
    names = schema.attribute_names
    if not names or len(set(names)) != len(names) or tuple(sorted(names)) != names:
        return False
    return schema.schema_id == schema_id_for(
        schema.issuer_did, schema.name, schema.version, names
    )
