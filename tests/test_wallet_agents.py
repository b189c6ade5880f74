import json
import re
from dataclasses import replace

import pytest

from ssisim.agents import (
    CHALLENGE_TTL_TICKS,
    MAX_OUTSTANDING_CHALLENGES,
    Agent,
    AuthResponse,
    MessageBus,
)
from ssisim.credentials import build_credential
from ssisim.engine import define_schema, issue_credential, revoke_credential
from ssisim.errors import (
    AuthFailure,
    KeyMismatch,
    ParseError,
    StaleChallenge,
    UnknownDid,
    WrongHolderKey,
)
from ssisim.identity import (
    decrypt,
    derive_did,
    encrypt_for,
    key_agreement_public,
    make_did_document,
    sign,
)
from ssisim.ledger import AnchorCredential, RegisterDid
from ssisim.runtime import DeterministicRng
from ssisim.serialization import canonical_json_bytes
from ssisim.wallet import wallet_create, wallet_load, wallet_save

from conftest import seeded_keypair


class TestWalletFiles:
    def test_fresh_wallet_is_empty_and_consistent(self):
        wallet = wallet_create(b"\x31" * 32)
        assert wallet.credentials == []
        assert wallet.did == derive_did(wallet.keypair.public_key)

    def test_save_load_resave_is_byte_identical(self):
        wallet = wallet_create(b"\x32" * 32)
        wallet.other_data.append(("note", b"opaque blob \x00\x01"))
        data = wallet_save(wallet)
        assert wallet_save(wallet_load(data)) == data

    def test_roundtrip_with_a_stored_credential(self, ledger, issuer, holder, rng, clock):
        from ssisim.engine import define_schema, issue_credential

        schema = define_schema(issuer, "Stored", 1, ["k"], ledger)
        credential = issue_credential(issuer, derive_did(holder.public_key), schema,
                                      {"k": "v"}, ledger, rng=rng)
        wallet = wallet_create(holder.private_key)
        wallet.add_credential(credential)
        data = wallet_save(wallet)
        loaded = wallet_load(data)
        assert loaded.credentials == [credential]
        assert wallet_save(loaded) == data

    def test_did_edit_is_a_key_mismatch(self):
        other = wallet_create(b"\x34" * 32)
        obj = json.loads(wallet_save(wallet_create(b"\x33" * 32)))
        obj["did"] = str(other.did)
        with pytest.raises(KeyMismatch):
            wallet_load(canonical_json_bytes(obj))

    def test_every_top_level_field_tamper_is_caught(self):
        # field-tamper oracle: replacing any identity field with another
        # wallet's value must fail the load-time consistency checks
        wallet = wallet_create(b"\x35" * 32)
        donor = json.loads(wallet_save(wallet_create(b"\x36" * 32)))
        base = json.loads(wallet_save(wallet))
        for field in ("did", "public_key", "private_key", "key_id"):
            tampered = dict(base)
            tampered[field] = donor[field]
            with pytest.raises(KeyMismatch):
                wallet_load(canonical_json_bytes(tampered))
        for field, bad in (("credentials", [{"junk": 1}]), ("other_data", [{"junk": 1}])):
            tampered = dict(base)
            tampered[field] = bad
            with pytest.raises(ParseError):
                wallet_load(canonical_json_bytes(tampered))

    @pytest.mark.parametrize("blob, cause", [
        ("QR==", "non-canonical base64 'QR=='"),
        ("QUJ=", "non-canonical base64 'QUJ='"),
        ("\u00e9", "invalid base64"),
    ], ids=["pad bits set", "one pad char, bits set", "not ASCII"])
    def test_a_blob_save_would_not_write_back_is_a_parse_error(self, blob, cause):
        obj = json.loads(wallet_save(wallet_create(b"\x37" * 32)))
        obj["other_data"] = [{"label": "note", "blob": blob}]
        with pytest.raises(ParseError, match=re.escape(f"other_data[0].blob: {cause}")):
            wallet_load(canonical_json_bytes(obj))

    def test_a_label_with_a_lone_surrogate_is_a_parse_error(self):
        # such a wallet used to load, and then could never be saved
        wallet = wallet_create(b"\x38" * 32)
        wallet.other_data.append(("note", b""))
        data = wallet_save(wallet).replace(b'"note"', b'"\\ud800"')
        with pytest.raises(ParseError, match="lone surrogate"):
            wallet_load(data)

    def test_garbage_input_is_a_parse_error(self):
        for data in (b"", b"{}", b"not json"):
            with pytest.raises(ParseError):
                wallet_load(data)


@pytest.fixture
def world(operator, clock):
    """Three registered agents (alice, bob, carol) on one bus and ledger."""
    from ssisim.ledger import Ledger

    rng = DeterministicRng(b"agents-world".ljust(32, b"\x00"))
    led = Ledger.genesis([make_did_document(operator, created_at=clock.tick())], clock=clock)
    led.attach_writer(operator)
    bus = MessageBus()
    agents = {}
    wallets = {name: wallet_create(seeded_keypair(name.encode()).private_key)
               for name in ("alice", "bob", "carol")}
    led.submit([
        RegisterDid(make_did_document(w.keypair, created_at=clock.tick()))
        for w in wallets.values()
    ])
    for name, wallet in wallets.items():
        agents[name] = Agent(wallet, led, bus=bus, rng=rng, clock=clock)
    return led, bus, agents


class TestEnvelopeExchange:
    def test_send_appends_to_recipient_inbox(self, world):
        _, _, agents = world
        before = len(agents["bob"].inbox)
        agents["alice"].send_message(agents["bob"].did, "note", {"text": "hi"})
        assert len(agents["bob"].inbox) == before + 1

    def test_unregistered_recipient_fails(self, world):
        _, _, agents = world
        ghost = derive_did(seeded_keypair(b"ghost").public_key)
        with pytest.raises(UnknownDid):
            agents["alice"].send_message(ghost, "note", {"text": "hi"})

    def test_eavesdropper_cannot_decrypt(self, world):
        _, _, agents = world
        env = agents["alice"].send_message(agents["bob"].did, "note", {"text": "secret"})
        carol = agents["carol"]
        alice_ka = key_agreement_public(agents["alice"].wallet.keypair.private_key)
        with pytest.raises(AuthFailure):
            decrypt(carol.wallet.keypair.private_key, alice_ka, env)

    def test_inbox_is_fifo_and_lossless(self, world):
        _, _, agents = world
        for i in range(10):
            agents["alice"].send_message(agents["bob"].did, "note", {"n": i})
        seen = [agents["bob"].open_envelope(agents["bob"].inbox.popleft())["body"]["n"]
                for _ in range(10)]
        assert seen == list(range(10))

    def test_reregistration_cannot_take_the_senders_key_agreement_key(self, world):
        # carol re-registers with alice's key-agreement key, then with her own
        led, _, agents = world
        carol = agents["carol"].wallet.keypair
        alice_key = key_agreement_public(agents["alice"].wallet.keypair.private_key)
        doc = replace(make_did_document(carol, created_at=led.clock.tick()),
                      key_agreement_key=alice_key)
        led.submit([RegisterDid(replace(doc, controller_signature=sign(
            carol.private_key, doc.signing_payload())))])
        env = agents["alice"].send_message(agents["bob"].did, "note", {"n": 1})
        assert agents["bob"].open_envelope(env)["body"] == {"n": 1}
        assert led.registry().key_agreement_did(env.sender_key_id) == agents["alice"].did
        led.submit([RegisterDid(make_did_document(carol, created_at=led.clock.tick()))])
        env = agents["alice"].send_message(agents["bob"].did, "note", {"n": 2})
        assert agents["bob"].open_envelope(env)["body"] == {"n": 2}

    def test_an_envelope_from_an_unregistered_key_names_no_sender(self, world):
        _, _, agents = world
        bob = agents["bob"]
        bob_ka = key_agreement_public(bob.wallet.keypair.private_key)
        env = encrypt_for(bob_ka, seeded_keypair(b"ghost").private_key, b'{"body":{},"kind":"x"}')
        with pytest.raises(UnknownDid):
            bob.open_envelope(env)

    @pytest.mark.parametrize("plaintext", [
        b"[]", b'"note"', b'{"kind":"note"}', b'{"body":{},"extra":1,"kind":"note"}'])
    def test_a_plaintext_that_is_not_kind_and_body_is_a_parse_error(self, world, plaintext):
        _, _, agents = world
        bob_ka = key_agreement_public(agents["bob"].wallet.keypair.private_key)
        env = encrypt_for(bob_ka, agents["alice"].wallet.keypair.private_key, plaintext)
        with pytest.raises(ParseError, match="'kind' and 'body'"):
            agents["bob"].open_envelope(env)

    def test_no_message_carries_private_key_bytes(self, world):
        _, bus, agents = world
        envelopes = []
        for i in range(3):
            envelopes.append(agents["alice"].send_message(agents["bob"].did, "note", {"n": i}))
        secrets = [a.wallet.keypair.private_key for a in agents.values()]
        for env in envelopes:
            data = canonical_json_bytes(env.to_json_dict())
            for secret in secrets:
                assert secret not in data
                assert secret.hex().encode() not in data


class TestCredentialDelivery:
    def issue_to(self, led, agents, holder_name):
        issuer = agents["alice"].wallet.keypair
        schema = define_schema(issuer, "Badge", 1, ["level", "team"], led)
        return issue_credential(
            issuer, agents[holder_name].did, schema,
            {"level": "gold", "team": "identity"}, led,
            rng=DeterministicRng(b"issue".ljust(32, b"\x00")),
        )

    def test_valid_credential_is_accepted_and_stored(self, world):
        led, _, agents = world
        credential = self.issue_to(led, agents, "bob")
        agents["alice"].send_credential(agents["bob"].did, credential)
        report = agents["bob"].receive_credential(agents["bob"].inbox.popleft())
        assert report.accepted
        assert agents["bob"].wallet.credentials[-1] == credential

    def test_revoked_credential_is_rejected_on_status(self, world):
        led, _, agents = world
        credential = self.issue_to(led, agents, "bob")
        revoke_credential(agents["alice"].wallet.keypair, credential.credential_id, led)
        agents["alice"].send_credential(agents["bob"].did, credential)
        report = agents["bob"].receive_credential(agents["bob"].inbox.popleft())
        assert not report.accepted
        assert dict(report.checks)["status_active"] is False
        assert agents["bob"].wallet.credentials == []

    def test_credential_for_another_holder_is_not_stored(self, world):
        led, _, agents = world
        credential = self.issue_to(led, agents, "carol")
        agents["alice"].send_credential(agents["bob"].did, credential)
        with pytest.raises(WrongHolderKey):
            agents["bob"].receive_credential(agents["bob"].inbox.popleft())
        assert agents["bob"].wallet.credentials == []

    def test_credential_anchored_first_by_another_did_is_not_stored(self, world):
        # carol anchors the id with a zero root before alice can anchor it herself
        led, _, agents = world
        issuer = agents["alice"].wallet.keypair
        schema = define_schema(issuer, "Badge", 1, ["level", "team"], led)
        credential = build_credential(issuer, agents["bob"].did, schema,
                                      {"level": "gold", "team": "identity"},
                                      DeterministicRng(b"issue".ljust(32, b"\x00")),
                                      issuance_time=led.clock.tick())
        carol = agents["carol"].wallet.keypair
        unsigned = AnchorCredential(credential_id=credential.credential_id,
                                    issuer_did=agents["carol"].did,
                                    commitment_root=b"\x00" * 32, submitter_signature=b"")
        led.submit([replace(unsigned, submitter_signature=sign(
            carol.private_key, unsigned.signing_payload()))])
        agents["alice"].send_credential(agents["bob"].did, credential)
        report = agents["bob"].receive_credential(agents["bob"].inbox.popleft())
        assert report.verdict == "reject:issuer_signature"
        assert [name for name, passed in report.checks if not passed] == [
            "issuer_signature", "merkle_proofs"]
        assert agents["bob"].wallet.credentials == []

    def test_credential_under_a_schema_of_another_did_is_not_stored(self, world):
        # carol owns the schema; alice issues under it and anchors the credential herself
        led, _, agents = world
        issuer = agents["alice"].wallet.keypair
        schema = define_schema(agents["carol"].wallet.keypair, "Badge", 1, ["level", "team"], led)
        credential = build_credential(issuer, agents["bob"].did, schema,
                                      {"level": "gold", "team": "identity"},
                                      DeterministicRng(b"issue".ljust(32, b"\x00")),
                                      issuance_time=led.clock.tick())
        unsigned = AnchorCredential(credential_id=credential.credential_id,
                                    issuer_did=agents["alice"].did,
                                    commitment_root=credential.commitment_root,
                                    submitter_signature=b"")
        led.submit([replace(unsigned, submitter_signature=sign(
            issuer.private_key, unsigned.signing_payload()))])
        agents["alice"].send_credential(agents["bob"].did, credential)
        report = agents["bob"].receive_credential(agents["bob"].inbox.popleft())
        assert report.verdict == "reject:schema_known"
        assert [name for name, passed in report.checks if not passed] == ["schema_known"]
        assert agents["bob"].wallet.credentials == []

    def test_garbage_plaintext_is_a_parse_error(self, world):
        _, _, agents = world
        env = agents["alice"].send_message(agents["bob"].did, "credential", {"not": "a vc"})
        with pytest.raises(ParseError):
            agents["bob"].receive_credential(env)

    def test_a_message_of_another_kind_is_a_parse_error(self, world):
        _, _, agents = world
        env = agents["alice"].send_message(agents["bob"].did, "note", {"text": "hi"})
        with pytest.raises(ParseError, match="expected a credential message"):
            agents["bob"].receive_credential(env)
        assert agents["bob"].wallet.credentials == []

    def test_misaddressed_envelope_fails_authentication(self, world):
        led, _, agents = world
        credential = self.issue_to(led, agents, "bob")
        env = agents["alice"].send_credential(agents["bob"].did, credential)
        with pytest.raises(AuthFailure):
            agents["carol"].receive_credential(env)


class TestDidAuth:
    def test_honest_subject_passes(self, world):
        _, _, agents = world
        challenge = agents["bob"].did_auth_challenge(agents["alice"].did)
        response = agents["alice"].did_auth_respond(challenge)
        assert agents["bob"].did_auth_check(response) is True

    def test_replayed_response_fails(self, world):
        _, _, agents = world
        challenge = agents["bob"].did_auth_challenge(agents["alice"].did)
        response = agents["alice"].did_auth_respond(challenge)
        assert agents["bob"].did_auth_check(response) is True
        assert agents["bob"].did_auth_check(response) is False

    def test_wrong_wallet_response_fails(self, world):
        _, _, agents = world
        challenge = agents["bob"].did_auth_challenge(agents["alice"].did)
        response = agents["carol"].did_auth_respond(challenge)
        forged = type(response)(subject_did=agents["alice"].did, nonce=response.nonce,
                                signature=response.signature)
        assert agents["bob"].did_auth_check(forged) is False

    def test_another_did_cannot_answer_the_challenge(self, world):
        # bob challenges alice; carol's own valid signature under her own DID is refused
        # and leaves the nonce for alice
        _, _, agents = world
        bob = agents["bob"]
        challenge = bob.did_auth_challenge(agents["alice"].did)
        assert bob.did_auth_check(agents["carol"].did_auth_respond(challenge)) is False
        assert bob.did_auth_check(agents["alice"].did_auth_respond(challenge)) is True
        assert challenge.subject_did == agents["alice"].did

    def test_all_verifier_subject_pairings(self, world):
        # success iff the responder holds the key the ledger binds to the claimed DID
        _, _, agents = world
        names = list(agents)
        for verifier_name in names:
            for subject_name in names:
                if verifier_name == subject_name:
                    continue
                verifier, subject = agents[verifier_name], agents[subject_name]
                challenge = verifier.did_auth_challenge(subject.did)
                assert verifier.did_auth_check(subject.did_auth_respond(challenge)) is True
                challenge = verifier.did_auth_challenge(subject.did)
                impostor = next(a for n, a in agents.items()
                                if n not in (verifier_name, subject_name))
                forged_sig = impostor.did_auth_respond(challenge).signature
                assert verifier.did_auth_check(
                    AuthResponse(subject_did=subject.did, nonce=challenge.nonce,
                                 signature=forged_sig)) is False

    def test_expired_challenge_is_stale(self, world):
        _, _, agents = world
        bob = agents["bob"]
        challenge = bob.did_auth_challenge(agents["alice"].did)
        response = agents["alice"].did_auth_respond(challenge)
        for _ in range(CHALLENGE_TTL_TICKS + 1):
            bob.clock.tick()
        with pytest.raises(StaleChallenge):
            bob.did_auth_check(response)

    def test_a_new_challenge_drops_the_expired_ones(self, world):
        _, _, agents = world
        alice, bob = agents["alice"], agents["bob"]
        unanswered = [bob.did_auth_challenge(alice.did) for _ in range(1000)]
        for _ in range(CHALLENGE_TTL_TICKS + 200):
            bob.clock.tick()
        # still held, so still stale
        with pytest.raises(StaleChallenge):
            bob.did_auth_check(alice.did_auth_respond(unanswered[0]))
        fresh = bob.did_auth_challenge(alice.did)
        assert list(bob._outstanding) == [fresh.nonce]
        # a dropped nonce fails as one never issued does
        assert bob.did_auth_check(alice.did_auth_respond(unanswered[-1])) is False
        assert bob.did_auth_check(alice.did_auth_respond(fresh)) is True

    def test_a_full_agent_drops_its_oldest_challenge(self, world):
        _, _, agents = world
        alice, bob = agents["alice"], agents["bob"]
        held = [bob.did_auth_challenge(alice.did) for _ in range(MAX_OUTSTANDING_CHALLENGES + 2)]
        assert list(bob._outstanding) == [c.nonce for c in held[2:]]
        assert bob.did_auth_check(alice.did_auth_respond(held[1])) is False
        assert bob.did_auth_check(alice.did_auth_respond(held[2])) is True

    def test_unknown_nonce_fails(self, world):
        from ssisim.identity import sign

        _, _, agents = world
        alice = agents["alice"]
        fake = AuthResponse(subject_did=alice.did, nonce=b"\x00" * 32,
                            signature=sign(alice.wallet.keypair.private_key, b"whatever"))
        assert agents["bob"].did_auth_check(fake) is False
