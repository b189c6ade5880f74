"""Issuer, holder, and verifier operations against the registry ledger.

Issuance anchors only the commitment root - attribute plaintext never
touches the ledger. Verification resolves everything it trusts (issuer
key, holder key, schema, anchor, status) from the ledger rather than
from the presentation itself: each verifier takes the registry state once,
through Ledger.registry and its one access check, and reads it directly.

Credentials and presentations ("claims") share each registry check:
_schema_known, _issuer_signed and signed_by, which take that registry
state and answer False for what it does not hold. An agent thus stores a
credential only if a full disclosure of it passes the presentation checks.

The three writes (define_schema, issue_credential's anchor, revoke_credential)
each sign their transaction kind's payload function over its fields and
build the transaction once, signature included.
"""

from .credentials import (
    Credential,
    Presentation,
    VerificationReport,
    build_credential,
    credential_commitments_ok,
    credential_signing_payload,
    encodings_set_hash,
    presentation_signing_payload,
    revealed_proofs_ok,
)
from .errors import NotSchemaOwner
from .identity import KeyPair, derive_did, sign
from .ledger import (
    AnchorCredential,
    CredentialSchema,
    CredentialStatus,
    DefineSchema,
    Ledger,
    RegistryState,
    Revoke,
    anchor_credential_payload,
    define_schema_payload,
    make_schema,
    require_document,
    revoke_payload,
)
from .runtime import SystemRng
from .serialization import encode_parts
from .verdicts import verify


def signed_by(registry: RegistryState, did, payload: bytes, signature: bytes) -> bool:
    """True iff the DID resolves in the registry and its key verifies the signature."""
    doc = registry.document(did)
    return doc is not None and verify(doc.verification_key, payload, signature)


def _schema_known(registry: RegistryState, claim, names_fit) -> bool:
    """True iff the claim's schema is defined, its issuer owns it and names_fit its names."""
    schema = registry.schema(claim.schema_id)
    return (schema is not None and schema.issuer_did == claim.issuer_did
            and names_fit(schema.attribute_names))


def _issuer_signed(registry: RegistryState, claim, anchor) -> bool:
    """True iff the claim's issuer made the anchor and signed the root it anchors."""
    return anchor is not None and anchor.issuer_did == claim.issuer_did and signed_by(
        registry, claim.issuer_did,
        credential_signing_payload(claim.credential_id, claim.schema_id, claim.issuer_did,
                                   claim.holder_did, anchor.commitment_root,
                                   claim.issuance_time),
        claim.issuer_signature,
    )


def define_schema(issuer: KeyPair, name: str, version: int, attribute_names,
                  ledger: Ledger) -> CredentialSchema:
    """Anchor a schema on the ledger; attribute order is canonicalized here."""
    issuer_did = derive_did(issuer.public_key)
    ledger.resolve_did(issuer_did, reader_did=issuer_did)
    schema = make_schema(issuer_did, name, version, attribute_names)
    ledger.submit([DefineSchema(
        schema=schema, submitter_signature=sign(issuer.private_key, define_schema_payload(schema)),
    )])
    return schema


def issue_credential(issuer: KeyPair, holder_did, schema: CredentialSchema, values: dict,
                     ledger: Ledger, rng=None) -> Credential:
    """Issue to a registered holder, dated by the ledger clock; anchor the commitment root."""
    issuer_did = derive_did(issuer.public_key)
    if schema.issuer_did != issuer_did:
        raise NotSchemaOwner(f"schema belongs to {schema.issuer_did}, not {issuer_did}")
    registry = ledger.registry(issuer_did)
    require_document(registry, issuer_did)
    require_document(registry, holder_did)
    credential = build_credential(issuer, holder_did, schema, values, rng or SystemRng(),
                                  issuance_time=ledger.clock.tick())
    fields = dict(credential_id=credential.credential_id, issuer_did=issuer_did,
                  commitment_root=credential.commitment_root)
    ledger.submit([AnchorCredential(
        **fields, submitter_signature=sign(issuer.private_key, anchor_credential_payload(**fields)),
    )])
    return credential


def verify_presentation(ledger: Ledger, presentation: Presentation,
                        expected_challenge: bytes, reader_did=None) -> VerificationReport:
    """Check a presentation against the registry; failures land in the report."""
    p = presentation
    registry = ledger.registry(reader_did)
    anchor, status = registry.credential(p.credential_id)
    revealed_names = {r.name for r in p.revealed}
    encodings = [encode_parts(r.name, r.value, r.salt) for r in p.revealed]
    holder_payload = presentation_signing_payload(
        p.credential_id, encodings_set_hash(encodings), expected_challenge)
    return VerificationReport(checks=(
        ("schema_known", _schema_known(registry, p, revealed_names.issubset)),
        ("status_active", status is CredentialStatus.ACTIVE),
        ("issuer_signature", _issuer_signed(registry, p, anchor)),
        ("merkle_proofs",
         anchor is not None and revealed_proofs_ok(p, encodings, anchor.commitment_root)),
        ("challenge_match", p.challenge == expected_challenge),
        ("holder_signature",
         signed_by(registry, p.holder_did, holder_payload, p.holder_signature)),
    ))


def verify_credential(ledger: Ledger, credential: Credential,
                      reader_did=None) -> VerificationReport:
    """A full disclosure's registry checks; commitment_root stands for its Merkle proofs."""
    c = credential
    names = tuple(n for n, _ in c.attributes)
    registry = ledger.registry(reader_did)
    anchor, status = registry.credential(c.credential_id)
    return VerificationReport(checks=(
        ("schema_known", _schema_known(registry, c, lambda fit: fit == names)),
        ("commitment_root", credential_commitments_ok(c)
         and anchor is not None and anchor.commitment_root == c.commitment_root
         and _issuer_signed(registry, c, anchor)),
        ("status_active", status is CredentialStatus.ACTIVE),
    ))


def revoke_credential(issuer: KeyPair, credential_id: bytes, ledger: Ledger) -> None:
    """Permanently flip the credential to Revoked; only the anchoring issuer may."""
    issuer_did = derive_did(issuer.public_key)
    ledger.resolve_did(issuer_did, reader_did=issuer_did)
    ledger.submit([Revoke(
        credential_id=credential_id, issuer_did=issuer_did,
        submitter_signature=sign(issuer.private_key, revoke_payload(credential_id, issuer_did)),
    )])


def tamper_check(credential: Credential, ledger: Ledger, reader_did=None) -> bool:
    """True iff commitments recompute and the issuer signature verifies."""
    if not credential_commitments_ok(credential):
        return False
    return signed_by(ledger.registry(reader_did), credential.issuer_did,
                     credential.signing_payload(), credential.issuer_signature)
