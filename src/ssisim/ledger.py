"""The verifiable data registry: a hash-chained, writer-signed transaction log.

The ledger is public-permissioned by default (anyone reads, only the
writer set appends); private-permissioned mode additionally gates reads
behind writer membership. The writer set is fixed at genesis and is
derived from the genesis block's own registration transactions, so the
exported file carries no bytes outside the hash-covered chain except the
mode flag.

Credential schemas are defined here too, as define_schema transactions
carry them: a ledger load needs neither credentials nor the Merkle tree.

Registry state (documents, key-agreement holders, schemas, anchors,
revocations) is resolved from the chain on demand. Transactions are indexed
by the keys they touch with dict operations and one hash per registration;
a read then checks just the candidates it needs, against the rules of a
linear replay of the chain, and memoizes each result. Transactions that
violate a rule - above all self-certification of DID registrations - are
skipped, so even a block signed by a legitimate writer cannot hijack
another entity's DID.
"""

import copy
from dataclasses import dataclass
from enum import Enum

from .errors import (
    ClockExhausted,
    ConfigError,
    DuplicateAttribute,
    DuplicateSchema,
    EmptyBatch,
    EmptyWriterSet,
    FirstInvalid,
    InvalidTransaction,
    NotIssuer,
    NotPermissioned,
    ParseError,
    UnknownCredential,
    UnknownDid,
    UnknownSchema,
    UnknownTransition,
    Verdict,
)
from .identity import (
    DID,
    SIGNATURE,
    Did,
    DidDocument,
    KeyPair,
    SIGNATURE_LEN,
    derive_did,
    key_fingerprint,
    sign,
)
from .runtime import LogicalClock
from .serialization import (
    HASH,
    INT,
    MAX_INT,
    STR,
    Record,
    check_canonical,
    complete_items,
    encode_bytes,
    encode_parts,
    expect_object,
    expect_str,
    list_codec,
    parse_hex,
    parse_json,
    record_codec,
    sha256,
)
from .verdicts import Split, verify, verify_each

_SCHEMA_CONTEXT = "ssisim/schema/v1"
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


# --- credential schemas ---------------------------------------------------------
# The named, versioned attribute lists an issuer anchors and issues credentials against.


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
        encode_parts(_SCHEMA_CONTEXT, issuer_did, name, version, list(attribute_names))
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


# --- transactions ---------------------------------------------------------------
# Each kind owns its JSON form, its canonical bytes, the (index, key) pairs the
# registry files it under (slots), the checks that depend only on the chain before
# it (cause: None if they pass, else why) and its rule against the current registry
# (rule, checked on append only). cause leaves the signature to its caller: its last
# step appends the (key, payload, signature) job to jobs, and the transaction is
# valid there only if that job verifies. If it does not, bad_signature is the cause.
# RegisterDid writes its JSON by hand: the file holds the signature beside the document.


@dataclass(frozen=True)
class RegisterDid:
    """Self-certified registration; the submitter signature is the document's own."""

    document: DidDocument

    kind = "register_did"
    bad_signature = "self-certification failed"

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

    def slots(self, state: "RegistryState") -> tuple:
        return ((state.documents, self.document.did),
                (state.key_agreements, key_fingerprint(self.document.key_agreement_key)))

    def cause(self, state: "RegistryState", position: int, jobs: list) -> str | None:
        # Self-certification binds the verification key to the DID, so a
        # re-registration that passes it necessarily keeps the original key.
        job = self.document.self_certification_job()
        if job is None:
            return self.bad_signature
        jobs.append(job)
        return None

    def rule(self, state: "RegistryState") -> str | None:
        return None


def anchor_credential_payload(credential_id: bytes, issuer_did: Did,
                              commitment_root: bytes) -> bytes:
    return encode_parts(_TX_CONTEXT, "anchor_credential", credential_id, issuer_did,
                        commitment_root)


def revoke_payload(credential_id: bytes, issuer_did: Did) -> bytes:
    return encode_parts(_TX_CONTEXT, "revoke", credential_id, issuer_did)


def define_schema_payload(schema: CredentialSchema) -> bytes:
    return encode_parts(_TX_CONTEXT, "define_schema", schema.schema_id, schema.issuer_did,
                        schema.name, schema.version, list(schema.attribute_names))


class _IssuerSigned(Record):
    """The kinds an issuer signs: valid only after the issuer's registration, under its key."""

    bad_signature = "bad submitter signature"

    def canonical_bytes(self) -> bytes:
        return self.signing_payload() + encode_bytes(self.submitter_signature)

    def cause(self, state: "RegistryState", position: int, jobs: list) -> str | None:
        # Every self-certified registration carries the key the DID is derived
        # from, so the first one fixes both "registered before" and the key.
        registration = state.registration(self.issuer_did)
        if registration is None or registration.position >= position:
            return "unknown submitter DID"
        key = registration.tx.document.verification_key
        jobs.append((key, self.signing_payload(), self.submitter_signature))
        return None


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
        return define_schema_payload(self.schema)

    def slots(self, state: "RegistryState") -> tuple:
        return ((state.schemas, self.schema.schema_id),)

    def cause(self, state: "RegistryState", position: int, jobs: list) -> str | None:
        if not schema_is_well_formed(self.schema):
            return "malformed schema"
        return super().cause(state, position, jobs)

    def rule(self, state: "RegistryState") -> str | None:
        if state.schema(self.schema.schema_id) is not None:
            return "duplicate schema"
        return None


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

    def slots(self, state: "RegistryState") -> tuple:
        return ((state.anchors, self.credential_id),)

    def rule(self, state: "RegistryState") -> str | None:
        if state.credential(self.credential_id)[0] is not None:
            return "duplicate anchor"
        return None


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

    def slots(self, state: "RegistryState") -> tuple:
        return ((state.revokes, self.credential_id),)

    def rule(self, state: "RegistryState") -> str | None:
        anchor, status = state.credential(self.credential_id)
        if anchor is None:
            return "unknown credential"
        if anchor.issuer_did != self.issuer_did:
            return "revoker is not the anchoring issuer"
        if status is CredentialStatus.REVOKED:
            return "already revoked"
        return None


KINDS = {cls.kind: cls for cls in (RegisterDid, DefineSchema, AnchorCredential, Revoke)}

# The rule causes append_block raises as their own InvalidTransaction subclass.
_REFUSALS = {
    "duplicate schema": DuplicateSchema,
    "unknown credential": UnknownCredential,
    "revoker is not the anchoring issuer": NotIssuer,
    "already revoked": UnknownTransition,
}


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


class _Entry:
    """One indexed transaction, its chain position and, once known, whether it is valid there."""

    __slots__ = ("position", "tx", "ok")

    def __init__(self, position: int, tx, ok: bool | None):
        self.position = position
        self.tx = tx
        self.ok = ok  # cause() is None and its job verifies there; None until a read needs it


class RegistryState:
    """Index of the chain's transactions by the keys they touch; reads resolve from it.

    Each list holds the candidates for one key in chain order; a transaction is filed
    under every key its slots() names. A read answers as a linear replay would - the
    latest self-certified registration, the first valid schema or anchor, a valid
    revoke by the anchoring issuer after that anchor, the DID holding a key-agreement
    fingerprint - and runs each candidate's checks at most once. A candidate's checks
    depend only on the chain before it, so appends never invalidate a memoized result.
    """

    def __init__(self):
        self.documents: dict = {}       # DID -> registrations
        self.key_agreements: dict = {}  # key-agreement fingerprint -> registrations carrying it
        self.schemas: dict = {}         # schema_id bytes -> schema definitions
        self.anchors: dict = {}         # credential_id bytes -> anchors
        self.revokes: dict = {}         # credential_id bytes -> revokes
        self.size = 0                   # transactions indexed: the next position

    def copy(self) -> "RegistryState":
        """Copies of the containers, sharing their candidate lists.

        Nothing in ssisim calls it; bench/baseline.py times it.
        """
        clone = RegistryState()
        clone.__dict__ = {name: copy.copy(value) for name, value in vars(self).items()}
        return clone

    def check(self, tx, jobs: list) -> str | None:
        """None if the transaction is valid at the end of the chain, else the cause.

        The signature is left out: a transaction that reaches its signature check
        appends that job to jobs instead, for the caller to verify.
        """
        if type(tx) not in KINDS.values():
            return f"unknown transaction type {type(tx).__name__}"
        return tx.cause(self, self.size, jobs) or tx.rule(self)

    # -- index

    def push(self, tx, ok: bool | None = None) -> None:
        """Index tx at the next position; pass ok=True if it was just checked there."""
        entry = _Entry(self.size, tx, ok)
        for index, key in tx.slots(self):
            index.setdefault(key, []).append(entry)
        self.size += 1

    def pop(self, tx) -> None:
        """Undo the push of tx, which must be the last one, and drop a list it empties."""
        for index, key in tx.slots(self):
            index[key].pop()
            if not index[key]:
                del index[key]
        self.size -= 1

    # -- resolution

    def _first_valid(self, entries) -> _Entry | None:
        """The first entry whose transaction is valid at its position; checks run once."""
        for entry in entries:
            if entry.ok is None:
                jobs = []
                entry.ok = (entry.tx.cause(self, entry.position, jobs) is None
                            and all(verify(*job) for job in jobs))
            if entry.ok:
                return entry
        return None

    def registration(self, did: str) -> _Entry | None:
        """The first registration of did that passes self-certification."""
        return self._first_valid(self.documents.get(did, ()))

    def document(self, did: str) -> DidDocument | None:
        """The latest registration of did that passes self-certification."""
        entry = self._first_valid(reversed(self.documents.get(did, ())))
        return entry.tx.document if entry else None

    def schema(self, schema_id: bytes) -> CredentialSchema | None:
        entry = self._first_valid(self.schemas.get(schema_id, ()))
        return entry.tx.schema if entry else None

    def credential(self, credential_id: bytes) -> tuple[AnchorCredential | None, CredentialStatus]:
        """The winning anchor, or None, and the credential's status: revoked iff a
        valid revoke by the anchoring issuer follows that anchor."""
        anchor = self._first_valid(self.anchors.get(credential_id, ()))
        if anchor is None:
            return None, CredentialStatus.UNKNOWN
        after = (entry for entry in self.revokes.get(credential_id, ())
                 if entry.position > anchor.position
                 and entry.tx.issuer_did == anchor.tx.issuer_did)
        if self._first_valid(after) is None:
            return anchor.tx, CredentialStatus.ACTIVE
        return anchor.tx, CredentialStatus.REVOKED

    def key_agreement_did(self, fingerprint: str) -> Did | None:
        """The DID holding fingerprint, as a linear replay finds it.

        The first valid registration carrying it claims it. Its DID holds it until a
        later valid registration of that DID carries another fingerprint; from there
        on, the next valid registration carrying it claims it. Only the candidates
        for fingerprint and the claiming DIDs' later registrations are checked.
        """
        candidates = self.key_agreements.get(fingerprint, ())
        claim = self._first_valid(candidates)
        while claim is not None:
            did = claim.tx.document.did
            release = self._first_valid(
                entry for entry in self.documents[did] if entry.position > claim.position
                and key_fingerprint(entry.tx.document.key_agreement_key) != fingerprint)
            if release is None:
                return did
            claim = self._first_valid(entry for entry in candidates
                                      if entry.position > release.position)
        return None


def require_document(state: RegistryState, did: Did) -> DidDocument:
    """The DID's document in state; UnknownDid if it holds none."""
    doc = state.document(did)
    if doc is None:
        raise UnknownDid(f"{did} is not registered")
    return doc


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


def _load_mode(value, where: str) -> LedgerMode:
    text = expect_str(value, where)
    try:
        return LedgerMode(text)
    except ValueError:
        raise ParseError(f"unknown ledger mode {text!r}") from None


@dataclass(frozen=True)
class LedgerFile(Record):
    """The ledger file: the mode flag, then the chain, which holds at least one block."""

    mode: LedgerMode
    blocks: tuple

    JSON = (("mode", (lambda mode: mode.value, _load_mode)),
            ("blocks", list_codec(record_codec(LedgerBlock))))

    @classmethod
    def from_json_dict(cls, value, where: str = "ledger") -> "LedgerFile":
        file = super().from_json_dict(value, where)
        if not file.blocks:
            raise ParseError("ledger has no blocks")
        return file


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


class _ChainClock(LogicalClock):
    """The clock of a loaded chain: running out of ticks is the chain's limit, not a setting."""

    def tick(self) -> int:
        if self.value >= MAX_INT:
            raise ClockExhausted(
                "the ledger's last block timestamp is 2^64-1, so it cannot take another block")
        return super().tick()


class Ledger:
    """Single-process chain; appends are serialized through this object."""

    def __init__(self, blocks, mode: LedgerMode, clock: LogicalClock):
        self.blocks: list = list(blocks)
        # The writer set is fixed at genesis: the DIDs its block registers.
        self.writer_set = {  # DID -> verification key bytes
            tx.document.did: tx.document.verification_key
            for tx in self.blocks[0].transactions if isinstance(tx, RegisterDid)
        }
        self.mode = mode
        self.clock = clock
        self._operator: KeyPair | None = None
        self._state = RegistryState()
        self._indexed = 0  # blocks pushed into _state

    # -- construction

    @classmethod
    def genesis(cls, writers, mode: LedgerMode = LedgerMode.PUBLIC_PERMISSIONED,
                clock: LogicalClock | None = None) -> "Ledger":
        """Start a chain whose genesis block registers the permissioned writers."""
        txs = [RegisterDid(document=doc) for doc in writers]
        if not txs:
            raise EmptyWriterSet("genesis requires at least one writer document")
        clock = clock or LogicalClock(0)
        block = build_block(
            index=0,
            prev_hash=GENESIS_PREV_HASH,
            timestamp=clock.tick(),
            txs=txs,
            writer_did=txs[0].document.did,
            writer_signature=_GENESIS_SIGNATURE,
        )
        return cls(blocks=[block], mode=mode, clock=clock)._checked()

    def attach_writer(self, writer: KeyPair) -> None:
        """Hold a writer key so submit() can seal blocks for engine operations."""
        self._writer_did(writer)
        self._operator = writer

    def _writer_did(self, writer: KeyPair) -> Did:
        """The writer's DID, if the writer set holds it under this key."""
        did = derive_did(writer.public_key)
        if self.writer_set.get(did) != writer.public_key:
            raise NotPermissioned(f"{did} is not in the writer set")
        return did

    # -- appends

    def _seal(self, txs: tuple, writer_did: Did, writer: KeyPair) -> LedgerBlock:
        """The next block: linked to the head, stamped by the clock, signed by the writer."""
        last = self.blocks[-1]
        return build_block(last.index + 1, last.block_hash, self.clock.tick(), txs,
                           writer_did, None, writer.private_key)

    def append_block(self, txs, writer: KeyPair) -> LedgerBlock:
        txs = tuple(txs)
        writer_did = self._writer_did(writer)
        if not txs:
            raise EmptyBatch("a block needs at least one transaction")
        state = self._index()
        # Two passes, as in validate_chain. Pass 1 checks each transaction but its
        # signature against the chain plus the ones staged before it, then indexes
        # it as valid, up to the first fault. Pass 2 verifies the signatures pass 1
        # reached as one verify_each batch, the faulting transaction's own included
        # if its rule failed, as a serial check reads the signature first. The first
        # bad one wins: it is at or before the fault, and any pass-1 result after it
        # may rest on it. A check that raises (a hand-built transaction with a key of
        # the wrong length) is such a fault too. Any failure pops the staged
        # transactions again.
        jobs = []  # the signature of transaction k is jobs[k]
        fault = None
        staged = 0
        try:
            for i, tx in enumerate(txs):
                try:
                    cause = state.check(tx, jobs)
                except Exception as exc:
                    fault = exc
                    break
                if cause is not None:
                    fault = _REFUSALS.get(cause, InvalidTransaction)(i, cause)
                    break
                state.push(tx, ok=True)
                staged += 1
            bad = verify_each(jobs).find(0)
            if bad >= 0:
                raise InvalidTransaction(bad, txs[bad].bad_signature)
            if fault is not None:
                raise fault
            block = self._seal(txs, writer_did, writer)
        except BaseException:
            for tx in reversed(txs[:staged]):
                state.pop(tx)
            raise
        self.blocks.append(block)
        self._indexed = len(self.blocks)
        return block

    def append_unchecked(self, txs, writer: KeyPair) -> LedgerBlock:
        """Seal txs with no registry check, as a stolen writer key can; reads skip invalid ones."""
        block = self._seal(tuple(txs), self._writer_did(writer), writer)
        self.blocks.append(block)
        return block

    def submit(self, txs) -> LedgerBlock:
        """Seal a batch with the attached writer key."""
        if self._operator is None:
            raise NotPermissioned("no writer key attached to this ledger handle")
        return self.append_block(txs, self._operator)

    # -- validation

    def validate_chain(self, started: Split | None = None) -> Verdict:
        """The first faulty block and why, as a walk in chain order checking each in full finds it.

        Pass 1 runs every check but the writer signatures, in chain order, up to
        the first fault. Pass 2 verifies the signatures of all the blocks before it
        as one verify_each batch, which spreads them over the CPUs; the first bad
        one comes earlier in the chain, so it wins. started, a start_verify on a
        guess at those signature jobs, lends its verdicts for the jobs up to the
        first one that differs from the guess; pass 2 checks the rest itself.
        """
        jobs = []  # (writer key, block hash, writer signature) of blocks 1.. before the fault
        prev_hash = GENESIS_PREV_HASH
        for i, block in enumerate(self.blocks):  # a ledger holds at least its genesis block
            cause = self._block_fault(i, block, prev_hash)
            if cause is not None:
                break
            if i > 0:
                jobs.append((self.writer_set[block.writer_did], block.block_hash,
                             block.writer_signature))
            prev_hash = block.block_hash
        bad = verify_each(jobs, started).find(0)
        if bad >= 0:
            return Verdict(ok=False, cause=ChainFault.BAD_SIGNATURE, index=bad + 1)
        return Verdict(ok=True) if cause is None else Verdict(ok=False, cause=cause, index=i)

    def _checked(self, started: Split | None = None) -> "Ledger":
        """This ledger, if its chain is valid; else FirstInvalid names the first faulty block."""
        verdict = self.validate_chain(started)
        if not verdict.ok:
            raise FirstInvalid(verdict.index, verdict.cause.value)
        return self

    def _block_fault(self, i: int, block: LedgerBlock, prev_hash: bytes) -> ChainFault | None:
        """Why block i, which should follow prev_hash, is faulty, writer signature aside."""
        # Both the tx root and the block hash must recompute: checking the
        # block hash from the stored root alone would let a stale root hide
        # transaction tampering, and vice versa.
        if transactions_root(block.transactions) != block.tx_root:
            return ChainFault.HASH_MISMATCH
        recomputed = block_hash_for(block.index, block.prev_hash, block.timestamp,
                                    block.tx_root)
        if recomputed != block.block_hash:
            return ChainFault.HASH_MISMATCH
        if block.index != i or block.prev_hash != prev_hash:
            return ChainFault.LINK_BROKEN
        if block.writer_did not in self.writer_set:
            return ChainFault.BAD_WRITER
        if i == 0:
            # Genesis is sealed by construction, not by key: its writers are
            # being registered in this very block, so the signature slot is
            # pinned to zero and integrity rests on the chain above it. Each
            # writer self-certifies instead, so no key can take a writer's DID.
            if block.writer_signature != _GENESIS_SIGNATURE:
                return ChainFault.BAD_SIGNATURE
            if not all(tx.document.verify_self() for tx in block.transactions
                       if isinstance(tx, RegisterDid)):
                return ChainFault.BAD_WRITER
        return None

    # -- reads (public in public-permissioned mode)

    def resolve_did(self, did: Did, reader_did: Did | None = None) -> DidDocument:
        return require_document(self.registry(reader_did), did)

    def lookup_schema(self, schema_id: bytes, reader_did: Did | None = None) -> CredentialSchema:
        schema = self.registry(reader_did).schema(schema_id)
        if schema is None:
            raise UnknownSchema(f"schema {schema_id.hex()} is not defined")
        return schema

    def credential_status(self, credential_id: bytes,
                          reader_did: Did | None = None) -> CredentialStatus:
        return self.registry(reader_did).credential(credential_id)[1]

    def credential_anchor(self, credential_id: bytes,
                          reader_did: Did | None = None) -> AnchorCredential | None:
        return self.registry(reader_did).credential(credential_id)[0]

    def registry(self, reader_did: Did | None = None) -> RegistryState:
        """The indexed registry state, once the reader may read it: a request takes it
        once and reads it directly, and its reads answer None for what is not there."""
        if self.mode is LedgerMode.PRIVATE_PERMISSIONED:
            if reader_did not in self.writer_set:
                raise NotPermissioned("private-permissioned ledger: reads require writer membership")
        return self._index()

    def _index(self) -> RegistryState:
        """The registry state with every block indexed, also ones appended to blocks directly."""
        # Indexing runs no check: reads skip invalid candidates, so a writer-signed
        # block cannot smuggle a document that fails self-certification into the registry.
        while self._indexed < len(self.blocks):
            for tx in self.blocks[self._indexed].transactions:
                if type(tx) in KINDS.values():
                    self._state.push(tx)
            self._indexed += 1
        return self._state

    # -- serialization

    def to_bytes(self) -> bytes:
        return LedgerFile(mode=self.mode, blocks=tuple(self.blocks)).to_bytes()

    @classmethod
    def from_bytes(cls, data: bytes, parsed=None, started: Split | None = None) -> "Ledger":
        """The ledger a file holds, once its chain is checked (see validate_chain).

        A caller that has already parsed data (serialization.parse_json, or json.loads
        of its UTF-8 text) passes the result as parsed, so the bytes are parsed once;
        it must re-dump to exactly data, or ParseError. It may also pass the check it
        started on the file's writer signatures. Bytes that do not parse are refused
        with where the last complete block ends, for a repair by hand. Both loads
        share this entry because the benchmark's tracer times every ledger load here.
        """
        if parsed is None:
            try:
                parsed = parse_json(data)
            except ParseError as exc:
                raise ParseError(f"{exc}; {_last_complete_block(data)}") from None
        file = LedgerFile.from_json_dict(check_canonical(parsed, data))
        ledger = cls(blocks=file.blocks, mode=file.mode,
                     clock=_ChainClock(file.blocks[-1].timestamp))
        if not ledger.writer_set:
            raise ParseError("genesis block registers no writers")
        return ledger._checked(started)


def _last_complete_block(data: bytes) -> str:
    """Which block of a ledger file that does not parse is the last whole one, and the
    byte offset where it ends: cut there and closed with "]}", the file holds the
    blocks up to it."""
    ends = complete_items(data, "blocks")
    if not ends:
        return "no block is complete"
    return (f"the last complete block is block {len(ends) - 1}, which ends at byte offset "
            f"{ends[-1]}")
