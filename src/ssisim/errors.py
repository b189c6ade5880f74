"""The refusal vocabulary shared across the package.

Every domain error derives from SsiSimError so callers (and the CLI) can
distinguish contract violations from programming bugs. The chain and
certificate checks answer a Verdict instead of raising.
"""

from dataclasses import dataclass
from enum import Enum


@dataclass(frozen=True)
class Verdict:
    """Accepted, or refused for which cause (an enum of the checking module) and where."""

    ok: bool
    cause: Enum | None = None
    # A refused chain's first faulty block; a refused certificate's position in its
    # path (0 the certificate itself, 1 its issuing CA). None when accepted.
    index: int | None = None


class SsiSimError(Exception):
    """Base class for all domain errors raised by this package."""


# --- identity ---------------------------------------------------------------


class SeedLength(SsiSimError):
    """Key seed is not exactly 32 bytes."""


class AuthFailure(SsiSimError):
    """Envelope decryption failed authentication (wrong key or tampering)."""


# --- registry ledger --------------------------------------------------------


class EmptyWriterSet(SsiSimError):
    """Genesis requires at least one writer document."""


class NotPermissioned(SsiSimError):
    """Actor is outside the ledger's permissioned set for this operation."""


class EmptyBatch(SsiSimError):
    """A block must carry at least one transaction."""


class ClockExhausted(SsiSimError):
    """The ledger's clock is at 2^64-1, so it cannot take another block."""


class InvalidTransaction(SsiSimError):
    """A transaction failed validation against the current registry state."""

    def __init__(self, index: int, cause: str):
        super().__init__(f"transaction {index}: {cause}")
        self.index = index
        self.cause = cause


class ParseError(SsiSimError):
    """Serialized input does not match the documented canonical format."""


class FirstInvalid(SsiSimError):
    """Chain validation failed; carries the smallest failing block index."""

    def __init__(self, index: int, cause: str):
        super().__init__(f"block {index}: {cause}")
        self.index = index
        self.cause = cause


class UnknownDid(SsiSimError):
    """DID is not registered on the ledger."""


class UnknownSchema(SsiSimError):
    """Schema id is not defined on the ledger."""


# --- credential engine ------------------------------------------------------


class DuplicateAttribute(SsiSimError):
    """Schema attribute names must be nonempty and unique."""


class DuplicateSchema(InvalidTransaction):
    """An InvalidTransaction: a schema with this id is already anchored."""


class SchemaMismatch(SsiSimError):
    """Credential values do not cover the schema attributes exactly once."""


class NotSchemaOwner(SsiSimError):
    """Only the DID that defined a schema may issue against it."""


class UnknownAttribute(SsiSimError):
    """Requested reveal names an attribute the credential does not carry."""


class WrongHolderKey(SsiSimError):
    """A presenting key or a receiving agent does not match the credential's holder DID."""


class NotIssuer(InvalidTransaction):
    """An InvalidTransaction: only the anchoring issuer may revoke a credential."""


class UnknownCredential(InvalidTransaction):
    """An InvalidTransaction: the revoked credential id was never anchored on the ledger."""


class UnknownTransition(InvalidTransaction):
    """An InvalidTransaction: the credential is already revoked."""


# --- wallets and agents -----------------------------------------------------


class KeyMismatch(SsiSimError):
    """Stored wallet DID, key id, and key material are inconsistent."""


class StaleChallenge(SsiSimError):
    """DID-Auth challenge has expired."""


# --- CLI / scenarios --------------------------------------------------------


class ConfigError(SsiSimError):
    """Experiment or scenario configuration is invalid."""
