"""The verifiable data registry: a hash-chained, writer-signed transaction log.

The ledger is public-permissioned by default (anyone reads, only the
writer set appends); private-permissioned mode additionally gates reads
behind writer membership. The writer set is fixed at genesis and is
derived from the genesis block's own registration transactions, so the
exported file carries no bytes outside the hash-covered chain except the
mode flag.

Registry state (documents, schemas, anchors, revocations) is folded from
the chain on demand. The fold enforces transaction-level rules - above
all self-certification of DID registrations - and skips transactions
that violate them, so even a block signed by a legitimate writer cannot
hijack another entity's DID.
"""

from dataclasses import dataclass
from enum import Enum

from .credentials import HASH, SIGNATURE, CredentialSchema, schema_is_well_formed
from .errors import (
    EmptyBatch,
    EmptyWriterSet,
    FirstInvalid,
    InvalidTransaction,
    NotPermissioned,
    ParseError,
    UnknownDid,
    UnknownSchema,
)
from .identity import (
    DID,
    Did,
    DidDocument,
    KeyPair,
    SIGNATURE_LEN,
    derive_did,
    key_fingerprint,
    sign,
    verify,
)
from .runtime import LogicalClock
from .serialization import (
    INT,
    STR,
    Record,
    canonical_json_bytes,
    encode_bytes,
    encode_parts,
    expect_object,
    expect_str,
    list_codec,
    load_json,
    parse_hex,
    record_codec,
    sha256,
)

_TX_CONTEXT = "ssisim/tx/v1"
_BLOCK_CONTEXT = "ssisim/block/v1"

GENESIS_PREV_HASH = b"\x00" * 32
_GENESIS_SIGNATURE = b"\x00" * SIGNATURE_LEN


class LedgerMode(str, Enum):
    PUBLIC_PERMISSIONED = "public-permissioned"
    PRIVATE_PERMISSIONED = "private-permissioned"


class CredentialStatus(str, Enum):
    ACTIVE = "active"
    REVOKED = "revoked"
    UNKNOWN = "unknown"


class ChainFault(str, Enum):
    HASH_MISMATCH = "HashMismatch"
    LINK_BROKEN = "LinkBroken"
    BAD_WRITER = "BadWriter"
    BAD_SIGNATURE = "BadSignature"


@dataclass(frozen=True)
class ChainReport:
    ok: bool
    index: int | None = None
    cause: ChainFault | None = None

    def describe(self) -> str:
        if self.ok:
            return "Ok"
        return f"FirstInvalid(index={self.index}, cause={self.cause.value})"


# --- transactions ---------------------------------------------------------------
# Each kind owns its JSON form, its canonical bytes, its rule against the registry
# state (check: None if valid, else the cause) and its state change (apply).
# RegisterDid writes its JSON by hand: the file holds the signature beside the document.


@dataclass(frozen=True)
class RegisterDid:
    """Self-certified registration; the submitter signature is the document's own."""

    document: DidDocument

    kind = "register_did"

    @property
    def submitter_signature(self) -> bytes:
        return self.document.controller_signature

    def canonical_bytes(self) -> bytes:
        return (
            encode_parts(_TX_CONTEXT, self.kind)
            + encode_bytes(self.document.signing_payload())
            + encode_bytes(self.document.controller_signature)
        )

    def to_json_dict(self) -> dict:
        return {
            "kind": self.kind,
            "document": self.document.to_json_dict(),
            "controller_signature": self.document.controller_signature.hex(),
        }

    @classmethod
    def from_json_dict(cls, value, where: str | None = None) -> "RegisterDid":
        obj = expect_object(value, ("kind", "document", "controller_signature"), where or cls.kind)
        signature = parse_hex(obj["controller_signature"], SIGNATURE_LEN, "controller_signature")
        return cls(document=DidDocument.from_json_dict(obj["document"], "document",
                                                       controller_signature=signature))

    def check(self, state: "RegistryState") -> str | None:
        # verify_self binds the verification key to the DID, so a re-registration
        # that passes it necessarily keeps the original key.
        if not self.document.verify_self():
            return "self-certification failed"
        return None

    def apply(self, state: "RegistryState") -> None:
        did = str(self.document.did)
        old = state.documents.get(did)
        if old is not None:
            state.ka_index.pop(key_fingerprint(old.key_agreement_key), None)
        state.documents[did] = self.document
        state.ka_index[key_fingerprint(self.document.key_agreement_key)] = did


def anchor_credential_payload(credential_id: bytes, issuer_did: Did,
                              commitment_root: bytes) -> bytes:
    return encode_parts(_TX_CONTEXT, "anchor_credential", credential_id, str(issuer_did),
                        commitment_root)


def revoke_payload(credential_id: bytes, issuer_did: Did) -> bytes:
    return encode_parts(_TX_CONTEXT, "revoke", credential_id, str(issuer_did))


class _IssuerSigned(Record):
    """The kinds an issuer signs: the submitter signature is checked before the kind's rule."""

    def canonical_bytes(self) -> bytes:
        return self.signing_payload() + encode_bytes(self.submitter_signature)

    def check(self, state: "RegistryState") -> str | None:
        doc = state.documents.get(str(self.issuer_did))
        if doc is None:
            return "unknown submitter DID"
        if not verify(doc.verification_key, self.signing_payload(), self.submitter_signature):
            return "bad submitter signature"
        return self._rule(state)


@dataclass(frozen=True)
class DefineSchema(_IssuerSigned):
    schema: CredentialSchema
    submitter_signature: bytes

    kind = "define_schema"
    JSON = (("kind", STR), ("schema", record_codec(CredentialSchema)),
            ("submitter_signature", SIGNATURE))

    @property
    def issuer_did(self) -> Did:
        return self.schema.issuer_did

    def signing_payload(self) -> bytes:
        schema = self.schema
        return encode_parts(
            _TX_CONTEXT, self.kind, schema.schema_id, str(schema.issuer_did),
            schema.name, schema.version, list(schema.attribute_names),
        )

    def check(self, state: "RegistryState") -> str | None:
        if not schema_is_well_formed(self.schema):
            return "malformed schema"
        return super().check(state)

    def _rule(self, state: "RegistryState") -> str | None:
        if self.schema.schema_id in state.schemas:
            return "duplicate schema"
        return None

    def apply(self, state: "RegistryState") -> None:
        state.schemas[self.schema.schema_id] = self.schema


@dataclass(frozen=True)
class AnchorCredential(_IssuerSigned):
    credential_id: bytes
    issuer_did: Did
    commitment_root: bytes
    submitter_signature: bytes

    kind = "anchor_credential"
    JSON = (("kind", STR), ("credential_id", HASH), ("issuer_did", DID),
            ("commitment_root", HASH), ("submitter_signature", SIGNATURE))

    def signing_payload(self) -> bytes:
        return anchor_credential_payload(self.credential_id, self.issuer_did,
                                         self.commitment_root)

    def _rule(self, state: "RegistryState") -> str | None:
        if self.credential_id in state.anchors:
            return "duplicate anchor"
        return None

    def apply(self, state: "RegistryState") -> None:
        state.anchors[self.credential_id] = self


@dataclass(frozen=True)
class Revoke(_IssuerSigned):
    credential_id: bytes
    issuer_did: Did
    submitter_signature: bytes

    kind = "revoke"
    JSON = (("kind", STR), ("credential_id", HASH), ("issuer_did", DID),
            ("submitter_signature", SIGNATURE))

    def signing_payload(self) -> bytes:
        return revoke_payload(self.credential_id, self.issuer_did)

    def _rule(self, state: "RegistryState") -> str | None:
        anchor = state.anchors.get(self.credential_id)
        if anchor is None:
            return "unknown credential"
        if anchor.issuer_did != self.issuer_did:
            return "revoker is not the anchoring issuer"
        if self.credential_id in state.revoked:
            return "already revoked"
        return None

    def apply(self, state: "RegistryState") -> None:
        state.revoked.add(self.credential_id)


KINDS = {cls.kind: cls for cls in (RegisterDid, DefineSchema, AnchorCredential, Revoke)}


def parse_transaction(value, where: str = "transaction"):
    if not isinstance(value, dict) or "kind" not in value:
        raise ParseError(f"{where}: expected object with a 'kind' field")
    kind = value["kind"]
    cls = KINDS.get(kind) if isinstance(kind, str) else None
    if cls is None:
        raise ParseError(f"{where}: unknown transaction kind {kind!r}")
    return cls.from_json_dict(value, where)


TRANSACTION = (lambda tx: tx.to_json_dict(), parse_transaction)


def transaction_hash(tx) -> bytes:
    return sha256(tx.canonical_bytes())


def transactions_root(txs) -> bytes:
    return sha256(b"".join(transaction_hash(tx) for tx in txs))


# --- registry state --------------------------------------------------------------


class RegistryState:
    """Fold of all valid transactions; check() names why a transaction is not."""

    def __init__(self):
        self.documents: dict = {}       # did str -> DidDocument
        self.schemas: dict = {}         # schema_id bytes -> CredentialSchema
        self.anchors: dict = {}         # credential_id bytes -> AnchorCredential
        self.revoked: set = set()       # credential_id bytes
        self.ka_index: dict = {}        # key-agreement fingerprint -> did str

    def copy(self) -> "RegistryState":
        clone = RegistryState()
        clone.documents = dict(self.documents)
        clone.schemas = dict(self.schemas)
        clone.anchors = dict(self.anchors)
        clone.revoked = set(self.revoked)
        clone.ka_index = dict(self.ka_index)
        return clone

    def check(self, tx) -> str | None:
        """None if the transaction is valid against this state, else the cause."""
        if type(tx) not in KINDS.values():
            return f"unknown transaction type {type(tx).__name__}"
        return tx.check(self)


# --- blocks ----------------------------------------------------------------------


@dataclass(frozen=True)
class LedgerBlock(Record):
    index: int
    prev_hash: bytes
    timestamp: int
    transactions: tuple
    tx_root: bytes
    block_hash: bytes
    writer_did: Did
    writer_signature: bytes

    JSON = (
        ("index", INT),
        ("prev_hash", HASH),
        ("timestamp", INT),
        ("transactions", list_codec(TRANSACTION)),
        ("tx_root", HASH),
        ("block_hash", HASH),
        ("writer_did", DID),
        ("writer_signature", SIGNATURE),
    )


_dump_blocks, _load_blocks = list_codec(record_codec(LedgerBlock))


def block_hash_for(index: int, prev_hash: bytes, timestamp: int, tx_root: bytes) -> bytes:
    return sha256(encode_parts(_BLOCK_CONTEXT, index, prev_hash, timestamp, tx_root))


def build_block(index: int, prev_hash: bytes, timestamp: int, txs,
                writer_did: Did, writer_signature: bytes | None,
                writer_key: bytes | None = None) -> LedgerBlock:
    """Assemble a block; pass writer_key to sign, or a literal signature."""
    txs = tuple(txs)
    tx_root = transactions_root(txs)
    digest = block_hash_for(index, prev_hash, timestamp, tx_root)
    if writer_signature is None:
        writer_signature = sign(writer_key, digest)
    return LedgerBlock(
        index=index,
        prev_hash=prev_hash,
        timestamp=timestamp,
        transactions=txs,
        tx_root=tx_root,
        block_hash=digest,
        writer_did=writer_did,
        writer_signature=writer_signature,
    )


# --- the ledger ------------------------------------------------------------------


class Ledger:
    """Single-process chain; appends are serialized through this object."""

    def __init__(self, blocks, mode: LedgerMode, clock: LogicalClock):
        self.blocks: list = list(blocks)
        # The writer set is fixed at genesis: the DIDs its block registers.
        self.writer_set = {  # did str -> verification key bytes
            str(tx.document.did): tx.document.verification_key
            for tx in self.blocks[0].transactions if isinstance(tx, RegisterDid)
        }
        self.mode = mode
        self.clock = clock
        self._operator: KeyPair | None = None
        self._state = RegistryState()
        self._folded = 0

    # -- construction

    @classmethod
    def genesis(cls, writers, mode: LedgerMode = LedgerMode.PUBLIC_PERMISSIONED,
                clock: LogicalClock | None = None) -> "Ledger":
        """Start a chain whose genesis block registers the permissioned writers."""
        txs = [RegisterDid(document=doc) for doc in writers]
        if not txs:
            raise EmptyWriterSet("genesis requires at least one writer document")
        for i, tx in enumerate(txs):
            cause = tx.check(RegistryState())
            if cause is not None:
                raise InvalidTransaction(i, cause)
        clock = clock or LogicalClock(0)
        block = build_block(
            index=0,
            prev_hash=GENESIS_PREV_HASH,
            timestamp=clock.tick(),
            txs=txs,
            writer_did=txs[0].document.did,
            writer_signature=_GENESIS_SIGNATURE,
        )
        ledger = cls(blocks=[block], mode=mode, clock=clock)
        ledger._ensure_state()
        return ledger

    def attach_writer(self, writer: KeyPair) -> None:
        """Hold a writer key so submit() can seal blocks for engine operations."""
        did = str(derive_did(writer.public_key))
        if self.writer_set.get(did) != writer.public_key:
            raise NotPermissioned(f"{did} is not in the writer set")
        self._operator = writer

    # -- appends

    def append_block(self, txs, writer: KeyPair) -> LedgerBlock:
        txs = tuple(txs)
        writer_did = derive_did(writer.public_key)
        if self.writer_set.get(str(writer_did)) != writer.public_key:
            raise NotPermissioned(f"{writer_did} is not in the writer set")
        if not txs:
            raise EmptyBatch("a block needs at least one transaction")
        self._ensure_state()
        staged = self._state.copy()
        for i, tx in enumerate(txs):
            cause = staged.check(tx)
            if cause is not None:
                raise InvalidTransaction(i, cause)
            tx.apply(staged)
        last = self.blocks[-1]
        block = build_block(
            index=last.index + 1,
            prev_hash=last.block_hash,
            timestamp=self.clock.tick(),
            txs=txs,
            writer_did=writer_did,
            writer_signature=None,
            writer_key=writer.private_key,
        )
        self.blocks.append(block)
        self._state = staged
        self._folded = len(self.blocks)
        return block

    def submit(self, txs) -> LedgerBlock:
        """Seal a batch with the attached writer key."""
        if self._operator is None:
            raise NotPermissioned("no writer key attached to this ledger handle")
        return self.append_block(txs, self._operator)

    # -- validation

    def validate_chain(self) -> ChainReport:
        prev_hash = GENESIS_PREV_HASH
        for i, block in enumerate(self.blocks):
            # Both the tx root and the block hash must recompute: checking the
            # block hash from the stored root alone would let a stale root hide
            # transaction tampering, and vice versa.
            if transactions_root(block.transactions) != block.tx_root:
                return ChainReport(ok=False, index=i, cause=ChainFault.HASH_MISMATCH)
            recomputed = block_hash_for(block.index, block.prev_hash, block.timestamp,
                                        block.tx_root)
            if recomputed != block.block_hash:
                return ChainReport(ok=False, index=i, cause=ChainFault.HASH_MISMATCH)
            if block.index != i or block.prev_hash != prev_hash:
                return ChainReport(ok=False, index=i, cause=ChainFault.LINK_BROKEN)
            writer_key = self.writer_set.get(str(block.writer_did))
            if writer_key is None:
                return ChainReport(ok=False, index=i, cause=ChainFault.BAD_WRITER)
            if i == 0:
                # Genesis is sealed by construction, not by key: its writers are
                # being registered in this very block, so the signature slot is
                # pinned to zero and integrity rests on the chain above it.
                if block.writer_signature != _GENESIS_SIGNATURE:
                    return ChainReport(ok=False, index=i, cause=ChainFault.BAD_SIGNATURE)
            elif not verify(writer_key, block.block_hash, block.writer_signature):
                return ChainReport(ok=False, index=i, cause=ChainFault.BAD_SIGNATURE)
            prev_hash = block.block_hash
        return ChainReport(ok=True)

    # -- reads (public in public-permissioned mode)

    def resolve_did(self, did: Did, reader_did: Did | None = None) -> DidDocument:
        self._check_read_access(reader_did)
        self._ensure_state()
        doc = self._state.documents.get(str(did))
        if doc is None:
            raise UnknownDid(f"{did} is not registered")
        return doc

    def lookup_schema(self, schema_id: bytes, reader_did: Did | None = None) -> CredentialSchema:
        self._check_read_access(reader_did)
        self._ensure_state()
        schema = self._state.schemas.get(schema_id)
        if schema is None:
            raise UnknownSchema(f"schema {schema_id.hex()} is not defined")
        return schema

    def credential_status(self, credential_id: bytes,
                          reader_did: Did | None = None) -> CredentialStatus:
        self._check_read_access(reader_did)
        self._ensure_state()
        if credential_id not in self._state.anchors:
            return CredentialStatus.UNKNOWN
        if credential_id in self._state.revoked:
            return CredentialStatus.REVOKED
        return CredentialStatus.ACTIVE

    def credential_anchor(self, credential_id: bytes,
                          reader_did: Did | None = None) -> AnchorCredential | None:
        self._check_read_access(reader_did)
        self._ensure_state()
        return self._state.anchors.get(credential_id)

    def find_did_by_key_agreement(self, fingerprint: str,
                                  reader_did: Did | None = None) -> Did | None:
        self._check_read_access(reader_did)
        self._ensure_state()
        did = self._state.ka_index.get(fingerprint)
        return Did.parse(did) if did else None

    def _check_read_access(self, reader_did: Did | None) -> None:
        if self.mode is LedgerMode.PRIVATE_PERMISSIONED:
            if reader_did is None or str(reader_did) not in self.writer_set:
                raise NotPermissioned("private-permissioned ledger: reads require writer membership")

    def _ensure_state(self) -> None:
        # Invalid transactions are skipped, never applied: a writer-signed block
        # cannot smuggle a document that fails self-certification into the registry.
        while self._folded < len(self.blocks):
            for tx in self.blocks[self._folded].transactions:
                if self._state.check(tx) is None:
                    tx.apply(self._state)
            self._folded += 1

    # -- serialization

    def to_bytes(self) -> bytes:
        return canonical_json_bytes({
            "mode": self.mode.value,
            "blocks": _dump_blocks(self.blocks),
        })

    @classmethod
    def from_bytes(cls, data: bytes) -> "Ledger":
        obj = load_json(data)
        obj = expect_object(obj, ("mode", "blocks"), "ledger")
        mode_text = expect_str(obj["mode"], "mode")
        try:
            mode = LedgerMode(mode_text)
        except ValueError:
            raise ParseError(f"unknown ledger mode {mode_text!r}") from None
        blocks = _load_blocks(obj["blocks"], "blocks")
        if not blocks:
            raise ParseError("ledger has no blocks")
        ledger = cls(blocks=blocks, mode=mode, clock=LogicalClock(blocks[-1].timestamp))
        if not ledger.writer_set:
            raise ParseError("genesis block registers no writers")
        report = ledger.validate_chain()
        if not report.ok:
            raise FirstInvalid(report.index, report.cause.value)
        return ledger
