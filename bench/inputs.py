"""Seeded inputs for the benchmark workloads.

Everything here is a pure function of the workload seed: keys and salts come
from ``DeterministicRng``, times from ``LogicalClock`` and choices (holders,
attribute values, which credentials are revoked or presented) from
``random.Random``. Each generator returns digests of what it made, so two
commits can be shown to have run identical inputs.
"""

import hashlib
import random
from dataclasses import dataclass

from ssisim.credentials import build_credential, create_presentation
from ssisim.engine import define_schema, issue_credential, revoke_credential
from ssisim.identity import make_did_document, sign
from ssisim.ledger import (
    AnchorCredential,
    Ledger,
    RegisterDid,
    Revoke,
    anchor_credential_payload,
    revoke_payload,
)
from ssisim.runtime import DeterministicRng, LogicalClock
from ssisim.serialization import canonical_json_bytes
from ssisim.wallet import wallet_create, wallet_save

SCHEMA_NAME = "BenchMembership"
ATTRIBUTES = ("address", "birth_date", "member_id", "name", "tier")
REVEALED = 2  # attributes a holder reveals in each presentation
REVOKE_EVERY = 20  # cli-registry revokes one credential per this many issued


def seed_bytes(workload: str, seed: int) -> bytes:
    return hashlib.sha256(f"ssisim-bench/{workload}/{seed}".encode()).digest()


def attribute_values(pick: random.Random) -> dict:
    return {name: f"{name}-{pick.randrange(10**8):08d}" for name in ATTRIBUTES}


def _sha(*parts: bytes) -> str:
    digest = hashlib.sha256()
    for part in parts:
        digest.update(len(part).to_bytes(8, "big") + part)
    return digest.hexdigest()


@dataclass
class PresentationCase:
    presentation_json: bytes
    challenge: bytes
    expected: str  # "accept" or "reject:status_active"


@dataclass
class CliRegistry:
    """A ledger file as the CLI writes it, plus the files and requests for commands."""

    ledger: Ledger  # the folded in-memory ledger the file was written from
    ledger_bytes: bytes
    writer_wallet: bytes
    issuer_wallet: bytes
    schema_id: bytes
    presentations: list  # of PresentationCase
    issue_requests: list  # of (holder DID string, values dict)
    sample: tuple  # (holder KeyPair, active Credential) for single-call timings

    def digests(self) -> dict:
        requests = canonical_json_bytes([[did, values] for did, values in self.issue_requests])
        cases = [p.presentation_json + p.challenge + p.expected.encode()
                 for p in self.presentations]
        return {
            "ledger_sha256": _sha(self.ledger_bytes),
            "inputs_sha256": _sha(self.ledger_bytes, self.writer_wallet, self.issuer_wallet,
                                  requests, *cases),
        }


def _no_pause() -> None:
    pass


def build_cli_registry(seed: bytes, blocks: int = 2000, holders: int = 64,
                       accepted: int = 12, rejected: int = 4, issue_requests: int = 64,
                       pause=_no_pause) -> CliRegistry:
    """One writer, one issuer, `holders` holders, one schema, one anchor per block.

    Registrations, the schema and every anchor or revocation each get their
    own block, as the ``did-register``, ``schema-define`` and ``issue``
    commands write them. One credential in REVOKE_EVERY is revoked.
    `pause()` is called between stretches of work (the benchmark calibrates
    machine speed there).
    """
    rng = DeterministicRng(seed)
    pick = random.Random(seed)
    clock = LogicalClock(0)
    writer = wallet_create(rng.randbytes(32))
    issuer = wallet_create(rng.randbytes(32))
    holder_wallets = [wallet_create(rng.randbytes(32)) for _ in range(holders)]
    ledger = Ledger.genesis([make_did_document(writer.keypair, created_at=clock.tick())],
                            clock=clock)
    for wallet in [issuer, *holder_wallets]:
        doc = make_did_document(wallet.keypair, created_at=ledger.clock.tick())
        ledger.append_block([RegisterDid(doc)], writer.keypair)
    ledger.attach_writer(writer.keypair)
    schema = define_schema(issuer.keypair, SCHEMA_NAME, 1, ATTRIBUTES, ledger)

    issued = []  # (holder wallet, credential)
    active, revoked = [], []
    while len(ledger.blocks) < blocks:
        holder = pick.choice(holder_wallets)
        credential = issue_credential(issuer.keypair, holder.did, schema,
                                      attribute_values(pick), ledger, rng=rng)
        active.append(len(issued))
        issued.append((holder, credential))
        if len(issued) % REVOKE_EVERY == 0 and len(ledger.blocks) < blocks:
            victim = active.pop(pick.randrange(len(active)))
            revoke_credential(issuer.keypair, issued[victim][1].credential_id, ledger)
            revoked.append(victim)
            pause()

    cases = []
    for expected, chosen in (("accept", pick.sample(active, accepted)),
                             ("reject:status_active", pick.sample(revoked, rejected))):
        for index in chosen:
            holder, credential = issued[index]
            challenge = rng.randbytes(32)
            reveal = pick.sample(ATTRIBUTES, REVEALED)
            presentation = create_presentation(credential, reveal, challenge, holder.keypair)
            cases.append(PresentationCase(
                presentation_json=canonical_json_bytes(presentation.to_json_dict()),
                challenge=challenge,
                expected=expected,
            ))
    pick.shuffle(cases)
    sample_holder, sample_credential = issued[pick.choice(active)]

    return CliRegistry(
        ledger=ledger,
        ledger_bytes=ledger.to_bytes(),
        writer_wallet=wallet_save(writer),
        issuer_wallet=wallet_save(issuer),
        schema_id=schema.schema_id,
        presentations=cases,
        issue_requests=[(str(pick.choice(holder_wallets).did), attribute_values(pick))
                        for _ in range(issue_requests)],
        sample=(sample_holder.keypair, sample_credential),
    )


@dataclass
class WarmRegistry:
    """An in-process ledger with many anchors and presentations built beforehand."""

    ledger: Ledger
    issuer: object  # Wallet
    holder_dids: list
    schema: object  # CredentialSchema
    presentations: list  # of (Presentation, challenge, expected verdict)
    revocable: list  # credential ids of active anchors no presentation uses

    def digests(self) -> dict:
        cases = [canonical_json_bytes(p.to_json_dict()) + c + e.encode()
                 for p, c, e in self.presentations]
        return {
            "head_block_hash": self.ledger.blocks[-1].block_hash.hex(),
            "inputs_sha256": _sha(self.ledger.blocks[-1].block_hash, *cases,
                                  b"".join(self.revocable)),
        }


def _anchor(issuer, did, credential_id: bytes, root: bytes) -> AnchorCredential:
    return AnchorCredential(
        credential_id=credential_id, issuer_did=did, commitment_root=root,
        submitter_signature=sign(issuer.private_key,
                                 anchor_credential_payload(credential_id, did, root)),
    )


def _revoke(issuer, did, credential_id: bytes) -> Revoke:
    return Revoke(credential_id=credential_id, issuer_did=did,
                  submitter_signature=sign(issuer.private_key,
                                           revoke_payload(credential_id, did)))


def build_warm_registry(seed: bytes, anchors: int = 20000, per_block: int = 500,
                        presented: int = 256, presented_revoked: int = 64,
                        other_revoked: int = 936, holders: int = 64,
                        pause=_no_pause) -> WarmRegistry:
    """Fold `anchors` anchors, `per_block` per block, then revoke some in bulk.

    `presented` anchors belong to full credentials whose holders build a
    presentation each (revealing REVEALED of the attributes); the rest are
    anchors of credentials only their commitment root is known for.
    `pause()` is called between blocks.
    """
    rng = DeterministicRng(seed)
    pick = random.Random(seed)
    clock = LogicalClock(0)
    writer = wallet_create(rng.randbytes(32))
    issuer = wallet_create(rng.randbytes(32))
    holder_wallets = [wallet_create(rng.randbytes(32)) for _ in range(holders)]
    ledger = Ledger.genesis([make_did_document(writer.keypair, created_at=clock.tick())],
                            clock=clock)
    ledger.append_block([RegisterDid(make_did_document(w.keypair, created_at=clock.tick()))
                         for w in [issuer, *holder_wallets]], writer.keypair)
    ledger.attach_writer(writer.keypair)
    schema = define_schema(issuer.keypair, SCHEMA_NAME, 1, ATTRIBUTES, ledger)

    credentials = []
    for _ in range(presented):
        holder = pick.choice(holder_wallets)
        credential = build_credential(issuer.keypair, holder.did, schema,
                                      attribute_values(pick), rng, issuance_time=clock.tick())
        credentials.append((holder, credential))
    pause()
    entries = [(c.credential_id, c.commitment_root) for _, c in credentials]
    others = [rng.randbytes(32) for _ in range(anchors - presented)]
    entries += [(cid, rng.randbytes(32)) for cid in others]
    pick.shuffle(entries)
    for i in range(0, len(entries), per_block):
        ledger.append_block([_anchor(issuer.keypair, issuer.did, cid, root)
                             for cid, root in entries[i:i + per_block]], writer.keypair)
        pause()

    revoked_cases = set(pick.sample(range(presented), presented_revoked))
    pick.shuffle(others)
    revoked_ids = [credentials[i][1].credential_id for i in sorted(revoked_cases)]
    revoked_ids += others[:other_revoked]
    pick.shuffle(revoked_ids)
    revokes = [_revoke(issuer.keypair, issuer.did, cid) for cid in revoked_ids]
    for i in range(0, len(revokes), per_block):
        ledger.append_block(revokes[i:i + per_block], writer.keypair)
        pause()

    cases = []
    for i, (holder, credential) in enumerate(credentials):
        challenge = rng.randbytes(32)
        presentation = create_presentation(credential, pick.sample(ATTRIBUTES, REVEALED),
                                           challenge, holder.keypair)
        cases.append((presentation, challenge,
                      "reject:status_active" if i in revoked_cases else "accept"))
    return WarmRegistry(
        ledger=ledger,
        issuer=issuer,
        holder_dids=[w.did for w in holder_wallets],
        schema=schema,
        presentations=cases,
        revocable=others[other_revoked:],
    )


@dataclass
class FlowSeeds:
    """Per-flow seeds for the scenario and compromise runs of paper-flows."""

    healthcare: list
    government: list
    compromise: list

    def digests(self) -> dict:
        return {"inputs_sha256": _sha(*self.healthcare, *self.government, *self.compromise)}


def build_flow_seeds(seed: bytes, flows: int = 4096, compromises: int = 64) -> FlowSeeds:
    def derive(kind: str, count: int) -> list:
        return [hashlib.sha256(seed + kind.encode() + i.to_bytes(8, "big")).digest()
                for i in range(count)]

    return FlowSeeds(healthcare=derive("healthcare", flows),
                     government=derive("government", flows),
                     compromise=derive("compromise", compromises))
