"""Issuer, holder, and verifier operations against the registry ledger.

Issuance anchors only the commitment root - attribute plaintext never
touches the ledger. Verification resolves everything it trusts (issuer
key, holder key, schema, anchor, status) from the ledger rather than
from the presentation itself.
"""

from dataclasses import replace

from .credentials import (
    Credential,
    CredentialSchema,
    Presentation,
    VerificationReport,
    build_credential,
    credential_commitments_ok,
    credential_signing_payload,
    make_schema,
    presentation_signing_payload,
    revealed_proofs_ok,
    revealed_set_hash,
)
from .errors import NotSchemaOwner, UnknownDid, UnknownSchema
from .identity import KeyPair, derive_did, sign, verify
from .ledger import (
    AnchorCredential,
    CredentialStatus,
    DefineSchema,
    Ledger,
    Revoke,
)
from .runtime import SystemRng


def _signed(issuer: KeyPair, unsigned):
    """The issuer-signed transaction with its submitter signature filled in."""
    return replace(unsigned,
                   submitter_signature=sign(issuer.private_key, unsigned.signing_payload()))


def _signature_ok(ledger: Ledger, did, payload: bytes, signature: bytes, reader_did) -> bool:
    """True iff the DID resolves on the ledger and its key verifies the signature."""
    try:
        doc = ledger.resolve_did(did, reader_did=reader_did)
    except UnknownDid:
        return False
    return verify(doc.verification_key, payload, signature)


def _schema(ledger: Ledger, schema_id: bytes, reader_did) -> CredentialSchema | None:
    """The anchored schema, or None if the schema is not defined."""
    try:
        return ledger.lookup_schema(schema_id, reader_did=reader_did)
    except UnknownSchema:
        return None


def define_schema(issuer: KeyPair, name: str, version: int, attribute_names,
                  ledger: Ledger) -> CredentialSchema:
    """Anchor a schema on the ledger; attribute order is canonicalized here."""
    issuer_did = derive_did(issuer.public_key)
    ledger.resolve_did(issuer_did, reader_did=issuer_did)
    schema = make_schema(issuer_did, name, version, attribute_names)
    tx = _signed(issuer, DefineSchema(schema=schema, submitter_signature=b""))
    ledger.submit([tx])
    return schema


def issue_credential(issuer: KeyPair, holder_did, schema: CredentialSchema, values: dict,
                     ledger: Ledger, rng=None) -> Credential:
    """Issue to a registered holder, dated by the ledger clock; anchor the commitment root."""
    issuer_did = derive_did(issuer.public_key)
    if schema.issuer_did != issuer_did:
        raise NotSchemaOwner(f"schema belongs to {schema.issuer_did}, not {issuer_did}")
    ledger.resolve_did(issuer_did, reader_did=issuer_did)
    ledger.resolve_did(holder_did, reader_did=issuer_did)
    credential = build_credential(issuer, holder_did, schema, values, rng or SystemRng(),
                                  issuance_time=ledger.clock.tick())
    tx = _signed(issuer, AnchorCredential(
        credential_id=credential.credential_id,
        issuer_did=issuer_did,
        commitment_root=credential.commitment_root,
        submitter_signature=b"",
    ))
    ledger.submit([tx])
    return credential


def verify_presentation(ledger: Ledger, presentation: Presentation,
                        expected_challenge: bytes, reader_did=None) -> VerificationReport:
    """Check a presentation against the registry; failures land in the report."""
    checks = []

    anchor, status = ledger.credential_record(presentation.credential_id, reader_did=reader_did)
    root = anchor.commitment_root if anchor is not None else None

    schema = _schema(ledger, presentation.schema_id, reader_did)
    revealed_names = {r.name for r in presentation.revealed}
    checks.append(("schema_known", schema is not None
                   and schema.issuer_did == presentation.issuer_did
                   and revealed_names <= set(schema.attribute_names)))

    checks.append(("status_active", status is CredentialStatus.ACTIVE))

    anchored_by_issuer = anchor is not None and anchor.issuer_did == presentation.issuer_did
    issuer_ok = anchored_by_issuer and _signature_ok(
        ledger, presentation.issuer_did,
        credential_signing_payload(
            presentation.credential_id, presentation.schema_id,
            presentation.issuer_did, presentation.holder_did,
            root, presentation.issuance_time,
        ),
        presentation.issuer_signature, reader_did,
    )
    checks.append(("issuer_signature", issuer_ok))

    checks.append(("merkle_proofs",
                   root is not None and revealed_proofs_ok(presentation, root)))

    checks.append(("challenge_match", presentation.challenge == expected_challenge))

    holder_ok = _signature_ok(
        ledger, presentation.holder_did,
        presentation_signing_payload(
            presentation.credential_id,
            revealed_set_hash(presentation.revealed),
            expected_challenge,
        ),
        presentation.holder_signature, reader_did,
    )
    checks.append(("holder_signature", holder_ok))

    return VerificationReport(checks=tuple(checks))


def verify_credential(ledger: Ledger, credential: Credential,
                      reader_did=None) -> VerificationReport:
    """Check a received credential against the registry; failures land in the report."""
    checks = []
    schema = _schema(ledger, credential.schema_id, reader_did)
    checks.append(("schema_known", schema is not None
                   and schema.attribute_names == tuple(n for n, _ in credential.attributes)))
    # tamper_check verifies the issuer signature against the ledger key; the anchor
    # must then carry this root and name this issuer.
    anchor, status = ledger.credential_record(credential.credential_id, reader_did=reader_did)
    checks.append(("commitment_root", tamper_check(credential, ledger, reader_did=reader_did)
                   and anchor is not None
                   and anchor.commitment_root == credential.commitment_root
                   and anchor.issuer_did == credential.issuer_did))
    checks.append(("status_active", status is CredentialStatus.ACTIVE))
    return VerificationReport(checks=tuple(checks))


def revoke_credential(issuer: KeyPair, credential_id: bytes, ledger: Ledger) -> None:
    """Permanently flip the credential to Revoked; only the anchoring issuer may."""
    issuer_did = derive_did(issuer.public_key)
    ledger.resolve_did(issuer_did, reader_did=issuer_did)
    tx = _signed(issuer, Revoke(
        credential_id=credential_id,
        issuer_did=issuer_did,
        submitter_signature=b"",
    ))
    ledger.submit([tx])


def tamper_check(credential: Credential, ledger: Ledger, reader_did=None) -> bool:
    """True iff commitments recompute and the issuer signature verifies."""
    if not credential_commitments_ok(credential):
        return False
    return _signature_ok(ledger, credential.issuer_did, credential.signing_payload(),
                         credential.issuer_signature, reader_did)
