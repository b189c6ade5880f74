"""Issuer, holder, and verifier operations against the registry ledger.

Issuance anchors only the commitment root - attribute plaintext never
touches the ledger. Verification resolves everything it trusts (issuer
key, holder key, schema, anchor, status) from the ledger rather than
from the presentation itself. Every operation here, write or verify, takes
the registry state once, through Ledger.registry and its one access check,
and reads it directly; a write requires its issuer (and holder) through
ledger.require_document, which raises UnknownDid for a DID it does not hold.

A credential and a presentation ("claims") answer one list of claim checks,
_claim_checks: schema_known, status_active, issuer_signature and
merkle_proofs, read from that registry state, each False for what it does
not hold. A presentation's leaves are its revealed encodings, each proven by
its Merkle path against the anchored root, and verify_presentation adds
challenge_match and holder_signature. verify_credential answers the claim
checks of the credential's full disclosure: its names are its schema's, and
its leaves are all its encodings, whose recomputed root is both its own
commitment_root and the anchored root. An agent thus stores a credential
exactly when its full disclosure passes the claim checks.

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


def _claim_checks(registry: RegistryState, claim, names_fit, leaves_fit) -> tuple:
    """The four claim checks, in order: names_fit(the schema's attribute names) says
    whether the claim's names fit them, leaves_fit(the anchored root) whether its leaves
    authenticate against it."""
    anchor, status = registry.credential(claim.credential_id)
    schema = registry.schema(claim.schema_id)
    return (
        ("schema_known", schema is not None and schema.issuer_did == claim.issuer_did
         and names_fit(schema.attribute_names)),
        ("status_active", status is CredentialStatus.ACTIVE),
        # the issuer made the anchor and signed the root it anchors
        ("issuer_signature", anchor is not None and anchor.issuer_did == claim.issuer_did
         and signed_by(registry, claim.issuer_did, credential_signing_payload(
             claim.credential_id, claim.schema_id, claim.issuer_did, claim.holder_did,
             anchor.commitment_root, claim.issuance_time), claim.issuer_signature)),
        ("merkle_proofs", anchor is not None and leaves_fit(anchor.commitment_root)),
    )


def define_schema(issuer: KeyPair, name: str, version: int, attribute_names,
                  ledger: Ledger) -> CredentialSchema:
    """Anchor a schema on the ledger; attribute order is canonicalized here."""
    issuer_did = derive_did(issuer.public_key)
    require_document(ledger.registry(issuer_did), issuer_did)
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
    encodings = [encode_parts(r.name, r.value, r.salt) for r in p.revealed]
    holder_payload = presentation_signing_payload(
        p.credential_id, encodings_set_hash(encodings), expected_challenge)
    return VerificationReport(checks=(
        *_claim_checks(registry, p, {r.name for r in p.revealed}.issubset,
                       lambda root: revealed_proofs_ok(p, encodings, root)),
        ("challenge_match", p.challenge == expected_challenge),
        ("holder_signature",
         signed_by(registry, p.holder_did, holder_payload, p.holder_signature)),
    ))


def verify_credential(ledger: Ledger, credential: Credential,
                      reader_did=None) -> VerificationReport:
    """The claim checks of the credential's full disclosure (see the module docstring)."""
    c = credential
    names = tuple(n for n, _ in c.attributes)
    return VerificationReport(checks=_claim_checks(
        ledger.registry(reader_did), c, lambda fit: fit == names,
        lambda root: root == c.commitment_root and credential_commitments_ok(c)))


def revoke_credential(issuer: KeyPair, credential_id: bytes, ledger: Ledger) -> None:
    """Permanently flip the credential to Revoked; only the anchoring issuer may."""
    issuer_did = derive_did(issuer.public_key)
    require_document(ledger.registry(issuer_did), issuer_did)
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
