"""Issuer, holder, and verifier operations against the registry ledger.

Issuance anchors only the commitment root - attribute plaintext never
touches the ledger. Verification resolves everything it trusts (issuer
key, holder key, schema, anchor, status) from the ledger rather than
from the presentation itself.

Credentials and presentations ("claims") share each registry check:
_schema_known, _issuer_signed and signed_by. An agent thus stores a
credential only if a full disclosure of it passes the presentation checks.
"""

from dataclasses import replace

from .credentials import (
    Credential,
    Presentation,
    VerificationReport,
    build_credential,
    credential_commitments_ok,
    credential_signing_payload,
    presentation_signing_payload,
    revealed_proofs_ok,
    revealed_set_hash,
)
from .errors import NotSchemaOwner, UnknownDid, UnknownSchema
from .identity import KeyPair, derive_did, sign
from .ledger import (
    AnchorCredential,
    CredentialSchema,
    CredentialStatus,
    DefineSchema,
    Ledger,
    Revoke,
    make_schema,
)
from .runtime import SystemRng
from .verdicts import verify


def _signed(issuer: KeyPair, unsigned):
    """The issuer-signed transaction with its submitter signature filled in."""
    return replace(unsigned,
                   submitter_signature=sign(issuer.private_key, unsigned.signing_payload()))


def signed_by(ledger: Ledger, did, payload: bytes, signature: bytes, reader_did) -> bool:
    """True iff the DID resolves on the ledger and its key verifies the signature."""
    try:
        doc = ledger.resolve_did(did, reader_did=reader_did)
    except UnknownDid:
        return False
    return verify(doc.verification_key, payload, signature)


def _schema_known(ledger: Ledger, claim, names_fit, reader_did) -> bool:
    """True iff the claim's schema is defined, its issuer owns it and names_fit its names."""
    try:
        schema = ledger.lookup_schema(claim.schema_id, reader_did=reader_did)
    except UnknownSchema:
        return False
    return schema.issuer_did == claim.issuer_did and names_fit(schema.attribute_names)


def _issuer_signed(ledger: Ledger, claim, anchor, reader_did) -> bool:
    """True iff the claim's issuer made the anchor and signed the root it anchors."""
    return anchor is not None and anchor.issuer_did == claim.issuer_did and signed_by(
        ledger, claim.issuer_did,
        credential_signing_payload(claim.credential_id, claim.schema_id, claim.issuer_did,
                                   claim.holder_did, anchor.commitment_root,
                                   claim.issuance_time),
        claim.issuer_signature, reader_did,
    )


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
    p = presentation
    anchor, status = ledger.credential_record(p.credential_id, reader_did=reader_did)
    revealed_names = {r.name for r in p.revealed}
    holder_payload = presentation_signing_payload(
        p.credential_id, revealed_set_hash(p.revealed), expected_challenge)
    return VerificationReport(checks=(
        ("schema_known", _schema_known(ledger, p, revealed_names.issubset, reader_did)),
        ("status_active", status is CredentialStatus.ACTIVE),
        ("issuer_signature", _issuer_signed(ledger, p, anchor, reader_did)),
        ("merkle_proofs",
         anchor is not None and revealed_proofs_ok(p, anchor.commitment_root)),
        ("challenge_match", p.challenge == expected_challenge),
        ("holder_signature",
         signed_by(ledger, p.holder_did, holder_payload, p.holder_signature, reader_did)),
    ))


def verify_credential(ledger: Ledger, credential: Credential,
                      reader_did=None) -> VerificationReport:
    """A full disclosure's registry checks; commitment_root stands for its Merkle proofs."""
    c = credential
    names = tuple(n for n, _ in c.attributes)
    anchor, status = ledger.credential_record(c.credential_id, reader_did=reader_did)
    return VerificationReport(checks=(
        ("schema_known", _schema_known(ledger, c, lambda fit: fit == names, reader_did)),
        ("commitment_root", credential_commitments_ok(c)
         and anchor is not None and anchor.commitment_root == c.commitment_root
         and _issuer_signed(ledger, c, anchor, reader_did)),
        ("status_active", status is CredentialStatus.ACTIVE),
    ))


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
    return signed_by(ledger, credential.issuer_did, credential.signing_payload(),
                     credential.issuer_signature, reader_did)
