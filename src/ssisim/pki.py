"""Minimal PKI baseline: root CA, one subordinate CA, VA database.

The hierarchy exists to be broken: the compromise harness in this module
contrasts what a stolen CA key buys an attacker (everything, including
the certificate database the CA maintains) with what a stolen ledger
writer key buys through appends (nothing, because registrations
self-certify). Appends are all the harness tries. The same key can re-seal
the chain's history, leaving a revoke out, and anyone can truncate a ledger
file; both still load until a verified head is pinned (ROADMAP item 3).
Both runs forge under one attacker key pair: the CA run binds every forged
certificate to it, the ledger run signs every forged document with it.
The CA run splits each window of forgeries over the CPUs once: each chunk
forges its certificates (one signature each) and checks them, and answers
one validity byte each.

Every signed record here is built once, signature included: a certificate
from certificate_payload over every field but its signature, as X.509
signs its tbsCertificate, and a forged DID document from identity's
did_document_payload, signed with the attacker's key.
"""

from dataclasses import asdict, dataclass, replace
from enum import Enum

from .errors import ConfigError, Verdict
from .identity import (
    DidDocument,
    KeyPair,
    derive_did,
    did_document_payload,
    generate_keypair,
    key_agreement_public,
    make_did_document,
    sign,
)
from .ledger import Ledger, RegisterDid, require_document
from .runtime import DeterministicRng, LogicalClock
from .serialization import encode_parts
from .verdicts import split_each, verify

_CERT_CONTEXT = "ssisim/certificate/v1"

CERT_LIFETIME_TICKS = 1000


# --- certificate objects ---------------------------------------------------------


def certificate_payload(serial: int, subject_name: str, subject_public_key: bytes,
                        issuer_name: str, not_before: int, not_after: int) -> bytes:
    """What the issuing CA signs, as X.509's tbsCertificate: every field but the signature."""
    return encode_parts(_CERT_CONTEXT, serial, subject_name, subject_public_key, issuer_name,
                        not_before, not_after)


@dataclass(frozen=True)
class Certificate:
    serial: int
    subject_name: str
    subject_public_key: bytes
    issuer_name: str
    not_before: int
    not_after: int
    issuer_signature: bytes

    def signing_payload(self) -> bytes:
        return certificate_payload(self.serial, self.subject_name, self.subject_public_key,
                                   self.issuer_name, self.not_before, self.not_after)


def issue_signed_certificate(issuer_name: str, issuer_key: KeyPair, serial: int,
                             subject_name: str, subject_public_key: bytes,
                             not_before: int, not_after: int) -> Certificate:
    fields = dict(serial=serial, subject_name=subject_name, subject_public_key=subject_public_key,
                  issuer_name=issuer_name, not_before=not_before, not_after=not_after)
    return Certificate(**fields, issuer_signature=sign(issuer_key.private_key,
                                                       certificate_payload(**fields)))


class CertStatus(str, Enum):
    VALID = "valid"
    REVOKED = "revoked"


class VerdictCause(str, Enum):
    CHAIN_BROKEN = "ChainBroken"
    NOT_YET_VALID = "NotYetValid"
    EXPIRED = "Expired"
    UNKNOWN_SERIAL = "UnknownSerial"
    REVOKED = "Revoked"


# --- hierarchy -------------------------------------------------------------------


@dataclass
class CaNode:
    name: str
    keypair: KeyPair
    certificate: Certificate


class CaHierarchy:
    """Root plus one subordinate; the VA database is fed only by CA issuance."""

    def __init__(self, root: CaNode, subordinate: CaNode):
        self.root = root
        self.subordinate = subordinate
        self.va: dict = {}          # serial -> CertStatus
        for node in (root, subordinate):
            self.va[node.certificate.serial] = CertStatus.VALID
        self._next_serial = max(root.certificate.serial, subordinate.certificate.serial) + 1

    def node_by_name(self, name: str) -> CaNode | None:
        if name == self.root.name:
            return self.root
        if name == self.subordinate.name:
            return self.subordinate
        return None

    def next_serial(self) -> int:
        serial = self._next_serial
        self._next_serial += 1
        return serial


def build_hierarchy(rng=None, clock: LogicalClock | None = None) -> CaHierarchy:
    """One root and one subordinate: the smallest hierarchy with a real chain."""
    rng = rng or DeterministicRng(b"\x00" * 32)
    clock = clock or LogicalClock(0)
    now = clock.now()
    root_key = generate_keypair(rng.randbytes(32))
    root_cert = issue_signed_certificate(
        "root-ca", root_key, serial=1, subject_name="root-ca",
        subject_public_key=root_key.public_key,
        not_before=now, not_after=now + CERT_LIFETIME_TICKS,
    )
    sub_key = generate_keypair(rng.randbytes(32))
    sub_cert = issue_signed_certificate(
        "root-ca", root_key, serial=2, subject_name="issuing-ca",
        subject_public_key=sub_key.public_key,
        not_before=now, not_after=now + CERT_LIFETIME_TICKS,
    )
    return CaHierarchy(
        root=CaNode(name="root-ca", keypair=root_key, certificate=root_cert),
        subordinate=CaNode(name="issuing-ca", keypair=sub_key, certificate=sub_cert),
    )


_CHAIN_BROKEN = Verdict(ok=False, cause=VerdictCause.CHAIN_BROKEN, index=0)


def verify_certificate(hierarchy: CaHierarchy, certificate: Certificate,
                       clock: LogicalClock) -> Verdict:
    """Valid iff the chain reaches the root, the window holds, and the VA agrees."""
    return verify_certificates(hierarchy, [certificate], clock)[0]


def verify_certificates(hierarchy: CaHierarchy, certificates: list[Certificate],
                        clock: LogicalClock) -> list[Verdict]:
    """verify_certificate's verdict on each certificate, in order.

    Each certificate's issuer signature is checked in turn, in this process,
    and each issuing CA's own certificate at most once per call, after the
    first certificate it signed passes that check. The root is the trust
    anchor; a subordinate's certificate must be signed by the root, inside
    its window and valid at the VA, and a certificate it issued gets the
    verdict on it when it is not valid (RFC 5280, section 6.1.3). A refusal's
    index is the refused certificate's position in the path: 0 for the
    certificate itself, 1 for its issuing CA.
    """
    now = clock.now()
    chained = {hierarchy.root.name: Verdict(ok=True)}  # CA name -> verdict on its certificate
    verdicts = []
    for cert in certificates:
        issuer = hierarchy.node_by_name(cert.issuer_name)
        if issuer is None or not verify(issuer.keypair.public_key, cert.signing_payload(),
                                        cert.issuer_signature):
            verdicts.append(_CHAIN_BROKEN)
            continue
        if issuer.name not in chained:
            ca = issuer.certificate
            verdict = (_window_and_status(hierarchy, ca, now)
                       if verify(hierarchy.root.keypair.public_key, ca.signing_payload(),
                                 ca.issuer_signature) else _CHAIN_BROKEN)
            chained[issuer.name] = verdict if verdict.ok else replace(verdict, index=1)
        path = chained[issuer.name]
        verdicts.append(_window_and_status(hierarchy, cert, now) if path.ok else path)
    return verdicts


def _window_and_status(hierarchy: CaHierarchy, certificate: Certificate, now: int) -> Verdict:
    """The verdict on a certificate whose chain reaches the root: its first failed check,
    at index 0."""
    status = hierarchy.va.get(certificate.serial)
    for failed, cause in ((now < certificate.not_before, VerdictCause.NOT_YET_VALID),
                          (now > certificate.not_after, VerdictCause.EXPIRED),
                          (status is None, VerdictCause.UNKNOWN_SERIAL),
                          (status is CertStatus.REVOKED, VerdictCause.REVOKED)):
        if failed:
            return Verdict(ok=False, cause=cause, index=0)
    return Verdict(ok=True)


# --- compromise harness -------------------------------------------------------------


@dataclass(frozen=True)
class CompromiseReport:
    scenario: str
    forged_accepted: int
    forged_rejected: int
    total_forgeries: int
    writers: int | None = None
    compromised: int | None = None

    def to_json_dict(self) -> dict:
        return {k: v for k, v in asdict(self).items() if v is not None}


@dataclass(frozen=True)
class CompromiseConfig:
    scenario: str  # "ca" or "ledger"
    forgeries: int
    writers: int = 3
    compromised: int = 1
    seed: bytes = b"\x00" * 32


def run_compromise_experiment(config: CompromiseConfig) -> CompromiseReport:
    if config.forgeries < 0:
        raise ConfigError("forgeries must be >= 0")
    if config.scenario == "ca":
        return _run_ca_compromise(config)
    if config.scenario == "ledger":
        return _run_ledger_compromise(config)
    raise ConfigError(f"unknown scenario {config.scenario!r} (expected 'ca' or 'ledger')")


# The CA run forges and checks this many certificates as one batch: enough for
# split_each to spread a run of 1,000 over the CPUs, few enough to bound the
# memory a run of any size holds at once.
_CHECK_WINDOW = 4096


def _run_ca_compromise(config: CompromiseConfig) -> CompromiseReport:
    """Attacker holds the issuing CA key, and with it the CA's database feed.

    Forged certificates follow the normal wire shape, and since the CA
    maintains the VA database, the attacker's issuance also plants the
    serial there. One attacker key pair, drawn right after the hierarchy as
    the ledger run draws its attacker, is the subject key of every forged
    certificate: whoever holds a CA key can bind any name to a key they
    hold. For each window, this process draws every forgery's serial and
    plants its VA entry; then the window is split over the CPUs once, and
    each chunk forges its certificates (one signature each) and checks them
    with verify_certificates, in the chunk's process. No forging or check
    draws from the rng or moves the clock, so the report and every
    certificate are those of forging and checking each forgery in turn.
    """
    rng = DeterministicRng(config.seed)
    clock = LogicalClock(0)
    hierarchy = build_hierarchy(rng=rng, clock=clock)
    stolen = hierarchy.subordinate
    attacker = generate_keypair(rng.randbytes(32))
    now = clock.now()

    def forge_and_check(orders) -> bytes:
        """1 for each (subject name, serial) whose forged certificate is valid, else 0."""
        forged = [issue_signed_certificate(
            stolen.name, stolen.keypair, serial=serial, subject_name=subject_name,
            subject_public_key=attacker.public_key,
            not_before=now, not_after=now + CERT_LIFETIME_TICKS,
        ) for subject_name, serial in orders]
        return bytes(v.ok for v in verify_certificates(hierarchy, forged, clock))

    accepted = 0
    for start in range(0, config.forgeries, _CHECK_WINDOW):
        orders = []
        for i in range(start, min(start + _CHECK_WINDOW, config.forgeries)):
            serial = hierarchy.next_serial()
            hierarchy.va[serial] = CertStatus.VALID
            orders.append((f"forged-subject-{i}", serial))
        accepted += sum(split_each(forge_and_check, orders))
    return CompromiseReport(
        scenario="ca-compromise",
        forged_accepted=accepted,
        forged_rejected=config.forgeries - accepted,
        total_forgeries=config.forgeries,
    )


def _run_ledger_compromise(config: CompromiseConfig) -> CompromiseReport:
    """Attacker controls k of n writers and appends forged re-registrations.

    The forged documents reuse each victim's DID and verification key but
    are signed with the attacker's key. A stolen writer key seals them with
    Ledger.append_unchecked, so they are block-valid, yet they fail
    self-certification at read time.
    """
    if config.writers < 1:
        raise ConfigError("ledger scenario needs at least one writer")
    if not 0 <= config.compromised <= config.writers:
        raise ConfigError("compromised writers must be between 0 and the writer count")
    rng = DeterministicRng(config.seed)
    clock = LogicalClock(0)
    writer_keys = [generate_keypair(rng.randbytes(32)) for _ in range(config.writers)]
    writer_docs = [make_did_document(k, created_at=clock.tick()) for k in writer_keys]
    ledger = Ledger.genesis(writer_docs, clock=clock)

    victims = [generate_keypair(rng.randbytes(32)) for _ in range(3)]
    for victim in victims:
        ledger.append_block([RegisterDid(make_did_document(victim, created_at=clock.tick()))],
                            writer_keys[-1])
    originals = [require_document(ledger.registry(), derive_did(v.public_key)) for v in victims]

    attacker = generate_keypair(rng.randbytes(32))
    accepted = 0
    # with no writer key stolen, no forgery reaches the chain
    for i in range(config.forgeries if config.compromised else 0):
        victim = victims[i % len(victims)]
        victim_did = derive_did(victim.public_key)
        forged_doc = _forged_document(victim, attacker, clock.tick())
        ledger.append_unchecked([RegisterDid(forged_doc)], writer_keys[i % config.compromised])
        if require_document(ledger.registry(), victim_did) != originals[i % len(victims)]:
            accepted += 1
    return CompromiseReport(
        scenario="ledger-writer-compromise",
        forged_accepted=accepted,
        forged_rejected=config.forgeries - accepted,
        total_forgeries=config.forgeries,
        writers=config.writers,
        compromised=config.compromised,
    )


def _forged_document(victim: KeyPair, attacker: KeyPair, created_at: int) -> DidDocument:
    """Victim's DID and verification key, attacker's endpoints and signature."""
    fields = dict(
        did=derive_did(victim.public_key),
        verification_key=victim.public_key,
        key_agreement_key=key_agreement_public(attacker.private_key),
        service_endpoints=(("agent", "https://attacker.example/agent"),),
        created_at=created_at,
    )
    return DidDocument(**fields, controller_signature=sign(attacker.private_key,
                                                           did_document_payload(**fields)))
