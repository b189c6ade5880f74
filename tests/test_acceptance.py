"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line.

Run with `pytest tests/test_acceptance.py -v -s` to see the per-criterion
lines and timings.
"""

import random
import time
from contextlib import contextmanager
from dataclasses import replace

import pytest

from ssisim.agents import Agent, AuthResponse, MessageBus
from ssisim.credentials import create_presentation
from ssisim.engine import (
    define_schema,
    issue_credential,
    revoke_credential,
    verify_presentation,
)
from ssisim.errors import (
    FirstInvalid,
    ParseError,
    SsiSimError,
    UnknownDid,
    UnknownSchema,
    UnknownTransition,
)
from ssisim.identity import derive_did, generate_keypair, make_did_document, sign
from ssisim.ledger import (
    AnchorCredential,
    CredentialStatus,
    Ledger,
    RegisterDid,
    Revoke,
    anchor_credential_payload,
    revoke_payload,
)
from ssisim.pki import CompromiseConfig, run_compromise_experiment
from ssisim.runtime import DeterministicRng, LogicalClock
from ssisim.scenarios import HealthcareConfig, run_healthcare_scenario
from ssisim.serialization import canonical_json_bytes, sha256
from ssisim.wallet import wallet_create

from test_ledger import replay_registry

# Golden hash of the healthcare transcript under the default fixed seed and
# clock; regenerate deliberately if the canonical serialization ever changes.
HEALTHCARE_GOLDEN_SHA256 = "6b7feccbd7e6b23d2ad18aa4254af1b76d6c6a277318acbac8887220040222a4"


@contextmanager
def criterion(number: int, title: str, budget_seconds: float):
    start = time.perf_counter()
    try:
        yield
    except BaseException:
        print(f"\nACCEPTANCE {number} [{title}]: FAIL")
        raise
    elapsed = time.perf_counter() - start
    assert elapsed < budget_seconds, (
        f"criterion {number} took {elapsed:.2f}s, budget {budget_seconds}s")
    print(f"\nACCEPTANCE {number} [{title}]: PASS ({elapsed:.2f}s)")


def build_world(seed: bytes, attribute_names, schema_name="Acceptance"):
    """Ledger with operator writer, registered issuer and holder, one schema."""
    rng = DeterministicRng(seed)
    clock = LogicalClock(0)
    operator = generate_keypair(rng.randbytes(32))
    issuer = generate_keypair(rng.randbytes(32))
    holder = generate_keypair(rng.randbytes(32))
    ledger = Ledger.genesis([make_did_document(operator, created_at=clock.tick())],
                            clock=clock)
    ledger.attach_writer(operator)
    ledger.submit([
        RegisterDid(make_did_document(issuer, created_at=clock.tick())),
        RegisterDid(make_did_document(holder, created_at=clock.tick())),
    ])
    schema = define_schema(issuer, schema_name, 1, list(attribute_names), ledger)
    return rng, clock, ledger, operator, issuer, holder, schema


def test_criterion_1_ledger_tamper_exhaustiveness():
    """Every single-byte mutation of a serialized 4-block ledger is caught.

    Detection means the strict import path rejects the bytes: either the
    canonical parser (ParseError) or validate_chain (FirstInvalid).
    """
    with criterion(1, "ledger tamper exhaustiveness", 10.0):
        clock = LogicalClock(0)
        operator = generate_keypair(b"\x01" * 32)
        issuer = generate_keypair(b"\x02" * 32)
        issuer_did = derive_did(issuer.public_key)
        ledger = Ledger.genesis([make_did_document(operator, created_at=clock.tick())],
                                clock=clock)
        ledger.attach_writer(operator)
        ledger.submit([RegisterDid(make_did_document(issuer, created_at=clock.tick()))])
        schema = define_schema(issuer, "Tamper", 1, ["a", "b"], ledger)
        cid, root = b"\x03" * 32, b"\x04" * 32
        ledger.submit([AnchorCredential(
            credential_id=cid, issuer_did=issuer_did, commitment_root=root,
            submitter_signature=sign(issuer.private_key,
                                     anchor_credential_payload(cid, issuer_did, root)),
        )])
        data = ledger.to_bytes()
        assert len(ledger.blocks) == 4
        assert schema is not None

        undetected = []
        for position in range(len(data)):
            for mask in (0x01, 0xFF):
                mutated = data[:position] + bytes([data[position] ^ mask]) + data[position + 1:]
                try:
                    Ledger.from_bytes(mutated)
                except (ParseError, FirstInvalid):
                    continue
                undetected.append((position, mask))
        assert undetected == [], f"{len(undetected)} mutations survived: {undetected[:10]}"


def test_criterion_2_selective_disclosure_leak_freedom():
    """All 16 reveal subsets of a 4-attribute credential leak nothing and Accept."""
    with criterion(2, "selective disclosure leak-freedom", 1.0):
        names = ("alpha", "bravo", "charlie", "delta")
        values = {n: f"value<{n}>#{i}" for i, n in enumerate(names)}
        rng, clock, ledger, _, issuer, holder, schema = build_world(
            b"criterion-2".ljust(32, b"\x00"), names)
        credential = issue_credential(issuer, derive_did(holder.public_key), schema,
                                      values, ledger, rng=rng)
        challenge = rng.randbytes(32)
        salt_by_name = {name: salt.hex().encode()
                        for (name, _), salt in zip(credential.attributes, credential.salts)}
        for bitmap in range(16):
            reveal = [name for i, name in enumerate(schema.attribute_names) if bitmap >> i & 1]
            presentation = create_presentation(credential, reveal, challenge, holder)
            data = canonical_json_bytes(presentation.to_json_dict())
            for name in schema.attribute_names:
                if name in reveal:
                    assert values[name].encode() in data
                else:
                    assert values[name].encode() not in data
                    assert salt_by_name[name] not in data
            assert verify_presentation(ledger, presentation, challenge).accepted


def test_criterion_3_soundness_by_mutation():
    """Every attribute/salt/signature mutation of credential or presentation rejects."""
    with criterion(3, "soundness by mutation", 5.0):
        names = ("one", "two", "three")
        values = {n: f"value<{n}>" for n in names}
        rng, clock, ledger, _, issuer, holder, schema = build_world(
            b"criterion-3".ljust(32, b"\x00"), names)
        credential = issue_credential(issuer, derive_did(holder.public_key), schema,
                                      values, ledger, rng=rng)
        challenge = rng.randbytes(32)
        reveal = list(schema.attribute_names)

        def rejected(presentation):
            return not verify_presentation(ledger, presentation, challenge).accepted

        # credential-side mutations, honestly presented afterwards
        for i in range(len(credential.attributes)):
            attrs = tuple((n, v + "!") if j == i else (n, v)
                          for j, (n, v) in enumerate(credential.attributes))
            assert rejected(create_presentation(
                replace(credential, attributes=attrs), reveal, challenge, holder))
            salts = tuple(bytes([s[0] ^ 1]) + s[1:] if j == i else s
                          for j, s in enumerate(credential.salts))
            assert rejected(create_presentation(
                replace(credential, salts=salts), reveal, challenge, holder))
        broken_sig = credential.issuer_signature[:32] + bytes(
            [credential.issuer_signature[32] ^ 1]) + credential.issuer_signature[33:]
        assert rejected(create_presentation(
            replace(credential, issuer_signature=broken_sig), reveal, challenge, holder))

        # presentation-side mutations of an honest presentation
        honest = create_presentation(credential, reveal, challenge, holder)
        assert verify_presentation(ledger, honest, challenge).accepted
        for i, revealed in enumerate(honest.revealed):
            out = list(honest.revealed)
            out[i] = replace(revealed, value=revealed.value + "!")
            assert rejected(replace(honest, revealed=tuple(out)))
            out = list(honest.revealed)
            out[i] = replace(revealed, salt=bytes([revealed.salt[0] ^ 1]) + revealed.salt[1:])
            assert rejected(replace(honest, revealed=tuple(out)))
        for field in ("issuer_signature", "holder_signature"):
            signature = getattr(honest, field)
            for byte_index in range(len(signature)):
                mutated = (signature[:byte_index]
                           + bytes([signature[byte_index] ^ 1])
                           + signature[byte_index + 1:])
                assert rejected(replace(honest, **{field: mutated}))


def test_criterion_4_revocation_monotonicity():
    """500 randomized issue/present/revoke/verify runs never Accept after Revoke."""
    with criterion(4, "revocation monotonicity", 10.0):
        names = ("attr_a", "attr_b")
        rng, clock, ledger, _, issuer, holder, schema = build_world(
            b"criterion-4".ljust(32, b"\x00"), names)
        holder_did = derive_did(holder.public_key)
        rnd = random.Random(0xC4)
        final_state = {}
        for _ in range(500):
            credential = issue_credential(
                issuer, holder_did, schema,
                {"attr_a": "a", "attr_b": "b"}, ledger, rng=rng)
            revoked = False
            for op in rnd.choices(["present", "revoke"], k=rnd.randint(1, 5)):
                if op == "present":
                    challenge = rng.randbytes(32)
                    presentation = create_presentation(credential, names, challenge, holder)
                    report = verify_presentation(ledger, presentation, challenge)
                    assert report.accepted == (not revoked)
                    if revoked:
                        assert not report.accepted
                else:
                    if revoked:
                        with pytest.raises(UnknownTransition):
                            revoke_credential(issuer, credential.credential_id, ledger)
                    else:
                        revoke_credential(issuer, credential.credential_id, ledger)
                        revoked = True
            final_state[credential.credential_id] = (
                CredentialStatus.REVOKED if revoked else CredentialStatus.ACTIVE)

        # linear-replay oracle over the whole chain agrees with every status
        _, _, anchors, revoked_set = replay_registry(ledger)
        for credential_id, expected in final_state.items():
            assert credential_id in anchors
            oracle = (CredentialStatus.REVOKED if credential_id in revoked_set
                      else CredentialStatus.ACTIVE)
            assert oracle is expected
            assert ledger.credential_status(credential_id) is expected


def test_criterion_5_did_auth():
    """Honest responses pass; replays and wrong keys fail, over all 3-wallet pairings."""
    with criterion(5, "DID-Auth", 1.0):
        rng = DeterministicRng(b"criterion-5".ljust(32, b"\x00"))
        clock = LogicalClock(0)
        operator = generate_keypair(rng.randbytes(32))
        ledger = Ledger.genesis([make_did_document(operator, created_at=clock.tick())],
                                clock=clock)
        ledger.attach_writer(operator)
        bus = MessageBus()
        wallets = [wallet_create(rng.randbytes(32)) for _ in range(3)]
        ledger.submit([RegisterDid(make_did_document(w.keypair, created_at=clock.tick()))
                       for w in wallets])
        agents = [Agent(w, ledger, bus=bus, rng=rng, clock=clock) for w in wallets]
        for verifier in agents:
            for subject in agents:
                if verifier is subject:
                    continue
                challenge = verifier.did_auth_challenge(subject.did)
                response = subject.did_auth_respond(challenge)
                assert verifier.did_auth_check(response) is True
                assert verifier.did_auth_check(response) is False  # replay
                challenge = verifier.did_auth_challenge(subject.did)
                impostor = next(a for a in agents if a is not verifier and a is not subject)
                wrong_key = AuthResponse(
                    subject_did=subject.did,
                    nonce=challenge.nonce,
                    signature=impostor.did_auth_respond(challenge).signature,
                )
                assert verifier.did_auth_check(wrong_key) is False


def test_criterion_6_compromise_asymmetry():
    """CA compromise accepts 100% of forgeries; 1-of-n writer compromise accepts 0%."""
    with criterion(6, "compromise asymmetry", 5.0):
        for forgeries in (1, 5, 20, 50):
            ca = run_compromise_experiment(
                CompromiseConfig(scenario="ca", forgeries=forgeries))
            assert ca.forged_accepted == forgeries
            assert ca.forged_rejected == 0
            ledger_report = run_compromise_experiment(
                CompromiseConfig(scenario="ledger", forgeries=forgeries,
                                 writers=3, compromised=1))
            assert ledger_report.forged_accepted == 0
            assert ledger_report.forged_rejected == forgeries


def test_criterion_7_healthcare_fidelity():
    """Six transcript steps in the documented order, Accept, byte-stable golden."""
    with criterion(7, "healthcare scenario fidelity", 1.0):
        first = run_healthcare_scenario(HealthcareConfig())
        second = run_healthcare_scenario(HealthcareConfig())
        assert first.to_bytes() == second.to_bytes()
        assert sha256(first.to_bytes()).hex() == HEALTHCARE_GOLDEN_SHA256
        assert first.final_verdict == "accept"
        steps = first.steps
        assert [s["step"] for s in steps] == [1, 2, 3, 4, 5, 6]
        assert [s["action"] for s in steps] == [
            "request_credential",
            "anchor_schema_and_commitment",
            "issue_credential",
            "present_credential",
            "verify_presentation",
            "grant_access",
        ]
        patient = steps[0]["actor_did"]
        issuer_authority = steps[1]["actor_did"]
        provider = steps[4]["actor_did"]
        assert len({patient, issuer_authority, provider}) == 3
        assert [s["actor_did"] for s in steps] == [
            patient, issuer_authority, issuer_authority, patient, provider, provider,
        ]


def test_criterion_8_registry_read_oracle_equivalence():
    """resolve/lookup/status agree with linear replay on 200 randomized ledgers."""
    with criterion(8, "registry read oracle equivalence", 10.0):
        rnd = random.Random(0xC8)
        rng = DeterministicRng(b"criterion-8".ljust(32, b"\x00"))
        for round_number in range(200):
            clock = LogicalClock(0)
            operator = generate_keypair(rng.randbytes(32))
            ledger = Ledger.genesis([make_did_document(operator, created_at=clock.tick())],
                                    clock=clock)
            ledger.attach_writer(operator)
            actors = [generate_keypair(rng.randbytes(32)) for _ in range(3)]
            schema_ids, credential_ids = [], []
            attacker = generate_keypair(rng.randbytes(32))
            for _ in range(rnd.randint(3, 8)):
                op = rnd.choice(["register", "schema", "anchor", "revoke", "malicious"])
                actor = rnd.choice(actors)
                actor_did = derive_did(actor.public_key)
                try:
                    if op == "register":
                        ledger.submit([RegisterDid(
                            make_did_document(actor, created_at=clock.tick()))])
                    elif op == "schema":
                        schema_ids.append(define_schema(
                            actor, f"S{rnd.randint(0, 5)}", rnd.randint(1, 3),
                            ["x", "y"], ledger).schema_id)
                    elif op == "anchor":
                        cid, root = rng.randbytes(32), rng.randbytes(32)
                        ledger.submit([AnchorCredential(
                            credential_id=cid, issuer_did=actor_did,
                            commitment_root=root,
                            submitter_signature=sign(
                                actor.private_key,
                                anchor_credential_payload(cid, actor_did, root)))])
                        credential_ids.append((actor, cid))
                    elif op == "revoke" and credential_ids:
                        # usually the anchoring issuer, sometimes a wrong actor
                        anchor_actor, cid = rnd.choice(credential_ids)
                        revoker = anchor_actor if rnd.random() < 0.8 else actor
                        revoker_did = derive_did(revoker.public_key)
                        ledger.submit([Revoke(
                            credential_id=cid, issuer_did=revoker_did,
                            submitter_signature=sign(revoker.private_key,
                                                     revoke_payload(cid, revoker_did)))])
                    elif op == "malicious":
                        # writer-signed block carrying a forged re-registration;
                        # must be skipped identically by fold and replay
                        doc = make_did_document(attacker, created_at=clock.tick())
                        forged = replace(doc, did=actor_did)
                        ledger.append_unchecked([RegisterDid(forged)], operator)
                except SsiSimError:
                    pass
            docs, schemas, anchors, revoked = replay_registry(ledger)
            for actor in actors + [attacker]:
                did = derive_did(actor.public_key)
                if str(did) in docs:
                    assert ledger.resolve_did(did) == docs[str(did)]
                else:
                    with pytest.raises(UnknownDid):
                        ledger.resolve_did(did)
            for schema_id in schema_ids + [b"\xaa" * 32]:
                if schema_id in schemas:
                    assert ledger.lookup_schema(schema_id) == schemas[schema_id]
                else:
                    with pytest.raises(UnknownSchema):
                        ledger.lookup_schema(schema_id)
            for cid in [cid for _, cid in credential_ids] + [b"\xbb" * 32]:
                expected = (CredentialStatus.REVOKED if cid in revoked
                            else CredentialStatus.ACTIVE if cid in anchors
                            else CredentialStatus.UNKNOWN)
                assert ledger.credential_status(cid) is expected
