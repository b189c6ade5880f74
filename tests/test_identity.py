import os
import re
import threading

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ssisim.errors import AuthFailure, ParseError, SeedLength
from ssisim.identity import (
    Did,
    derive_did,
    decrypt,
    encrypt_for,
    generate_keypair,
    key_agreement_public,
    make_did_document,
    sign,
    verify,
    verify_many,
)
from ssisim.runtime import DeterministicRng

from conftest import flip_bit

DID_RE = re.compile(r"^did:sim:[1-9A-HJ-NP-Za-km-z]+$")


class TestKeypairs:
    def test_fixed_seed_is_deterministic(self):
        k0 = generate_keypair(b"\x00" * 32)
        again = generate_keypair(b"\x00" * 32)
        assert (k0.public_key, k0.private_key, k0.key_id) == \
               (again.public_key, again.private_key, again.key_id)

    def test_distinct_seeds_differ(self):
        a = generate_keypair(b"\x00" * 32)
        b = generate_keypair(b"\x00" * 31 + b"\x01")
        assert a.public_key != b.public_key

    def test_seed_length_enforced(self):
        for n in (0, 31, 33):
            with pytest.raises(SeedLength):
                generate_keypair(b"\x00" * n)

    def test_thousand_random_seeds_give_thousand_keys(self):
        # uniqueness sweep with a set-membership oracle
        rng = DeterministicRng(b"uniqueness-sweep".ljust(32, b"\x00"))
        seen = set()
        for _ in range(1000):
            seen.add(generate_keypair(rng.randbytes(32)).public_key)
        assert len(seen) == 1000


class TestDids:
    def test_derivation_is_pure(self):
        key = generate_keypair(b"\x07" * 32).public_key
        assert str(derive_did(key)) == str(derive_did(key))

    def test_format_matches_base58_regex(self):
        rng = DeterministicRng(b"did-format".ljust(32, b"\x00"))
        for _ in range(50):
            did = derive_did(generate_keypair(rng.randbytes(32)).public_key)
            assert DID_RE.fullmatch(str(did))

    def test_collision_sweep_over_1000_pairs(self):
        rng = DeterministicRng(b"did-collisions".ljust(32, b"\x00"))
        dids = {
            str(derive_did(generate_keypair(rng.randbytes(32)).public_key))
            for _ in range(1000)
        }
        assert len(dids) == 1000

    def test_parse_format_roundtrip_is_byte_identical(self):
        did = derive_did(generate_keypair(b"\x09" * 32).public_key)
        assert str(Did.parse(str(did))) == str(did)

    def test_parse_rejects_bad_input(self):
        good = str(derive_did(generate_keypair(b"\x09" * 32).public_key))
        for bad in ("", "did:sim:", "did:other:abc", good[:-8], good + "0"):
            with pytest.raises(ParseError):
                Did.parse(bad)


class TestSignatures:
    def test_roundtrip(self):
        kp = generate_keypair(b"\x01" * 32)
        message = b"attribute disclosure approval"
        assert verify(kp.public_key, message, sign(kp.private_key, message))

    def test_empty_message_roundtrip(self):
        kp = generate_keypair(b"\x01" * 32)
        assert verify(kp.public_key, b"", sign(kp.private_key, b""))

    def test_signature_is_deterministic_and_64_bytes(self):
        kp = generate_keypair(b"\x02" * 32)
        s1 = sign(kp.private_key, b"msg")
        s2 = sign(kp.private_key, b"msg")
        assert s1 == s2
        assert len(s1) == 64

    def test_wrong_key_fails(self):
        kp, other = generate_keypair(b"\x03" * 32), generate_keypair(b"\x04" * 32)
        assert not verify(other.public_key, b"msg", sign(kp.private_key, b"msg"))

    def test_every_bit_flip_of_message_fails(self):
        # exhaustive bit-flip oracle on a short message
        kp = generate_keypair(b"\x05" * 32)
        message = b"short-msg-16byte"
        signature = sign(kp.private_key, message)
        for bit in range(8 * len(message)):
            mutated = bytearray(message)
            mutated[bit // 8] ^= 1 << (bit % 8)
            assert not verify(kp.public_key, bytes(mutated), signature)

    def test_malformed_signature_lengths_return_false(self):
        kp = generate_keypair(b"\x06" * 32)
        signature = sign(kp.private_key, b"msg")
        for n in range(65):
            truncated = signature[:n]
            if n == 64:
                truncated = signature[:-1] + bytes([signature[-1] ^ 1])
            assert not verify(kp.public_key, b"msg", truncated)

    @given(st.binary(min_size=0, max_size=512))
    @settings(max_examples=100)
    def test_sign_verify_property(self, message):
        kp = generate_keypair(b"\x0a" * 32)
        assert verify(kp.public_key, message, sign(kp.private_key, message))


class TestVerifyMany:
    """verify_many names the first failing job, whether or not a forked helper verified it."""

    @pytest.fixture(scope="class")
    def jobs(self):
        key = generate_keypair(b"\x05" * 32)
        messages = [i.to_bytes(4, "big") for i in range(300)]
        return [(key.public_key, m, sign(key.private_key, m)) for m in messages]

    @staticmethod
    def with_faults(jobs, bad_signatures=(), bad_keys=()):
        jobs = list(jobs)
        for i in bad_signatures:
            key, message, signature = jobs[i]
            jobs[i] = (key, message, flip_bit(signature))
        for i in bad_keys:
            key, message, signature = jobs[i]
            jobs[i] = (key[:31], message, signature)  # a malformed key
        return jobs

    @pytest.mark.parametrize("bad_signatures, bad_keys", [
        ((), ()),
        ((200,), ()),
        ((), (250,)),
        ((200,), (250,)),
        ((20,), (250,)),
        ((), (150, 299)),
    ])
    def test_faults_in_either_chunk_give_the_serial_answer(self, jobs, two_cpus,
                                                           bad_signatures, bad_keys):
        jobs = self.with_faults(jobs, bad_signatures, bad_keys)
        expected = min((*bad_signatures, *bad_keys), default=None)
        assert verify_many(jobs) == expected
        assert next((i for i, job in enumerate(jobs) if not verify(*job)), None) == expected
        assert len(two_cpus) == 1

    @pytest.mark.parametrize("failure", ["raises", "short", "garbage"])
    def test_a_failing_helper_changes_no_answer(self, jobs, two_cpus, monkeypatch, failure):
        real_write = os.write

        def write(fd, data):  # only the helpers write while verify_many runs
            if failure == "raises":
                raise OSError("pipe write failed")
            real_write(fd, data[:10] if failure == "short" else b"\x07" * len(data))
            return len(data)

        monkeypatch.setattr(os, "write", write)
        assert verify_many(jobs) is None
        assert verify_many(self.with_faults(jobs, bad_keys=(250,))) == 250
        assert len(two_cpus) == 2

    def test_a_failed_fork_changes_no_answer(self, jobs, two_cpus, monkeypatch):
        def fork():
            raise OSError("no process left")

        monkeypatch.setattr(os, "fork", fork)
        assert verify_many(self.with_faults(jobs, bad_keys=(250,))) == 250

    def test_few_jobs_or_other_threads_keep_it_in_process(self, jobs, two_cpus):
        assert verify_many(self.with_faults(jobs[:255], bad_signatures=(254,))) == 254
        stop = threading.Event()
        thread = threading.Thread(target=stop.wait)
        thread.start()
        try:
            assert verify_many(self.with_faults(jobs, bad_signatures=(254,))) == 254
        finally:
            stop.set()
            thread.join(timeout=10)
        assert not thread.is_alive()
        assert two_cpus == []


class TestEnvelopes:
    def setup_method(self):
        self.sender = generate_keypair(b"\x11" * 32)
        self.recipient = generate_keypair(b"\x12" * 32)
        self.recipient_ka = key_agreement_public(self.recipient.private_key)
        self.sender_ka = key_agreement_public(self.sender.private_key)

    def test_roundtrip(self):
        env = encrypt_for(self.recipient_ka, self.sender.private_key, b"hello")
        assert decrypt(self.recipient.private_key, self.sender_ka, env) == b"hello"

    def test_roundtrip_at_boundary_lengths(self):
        for n in (0, 1, 255, 65536):
            plaintext = bytes(i % 251 for i in range(n))
            env = encrypt_for(self.recipient_ka, self.sender.private_key, plaintext)
            assert decrypt(self.recipient.private_key, self.sender_ka, env) == plaintext

    def test_nonce_freshness(self):
        e1 = encrypt_for(self.recipient_ka, self.sender.private_key, b"same")
        e2 = encrypt_for(self.recipient_ka, self.sender.private_key, b"same")
        assert e1.nonce != e2.nonce
        assert e1.ciphertext != e2.ciphertext

    def test_wrong_recipient_key_fails_authentication(self):
        env = encrypt_for(self.recipient_ka, self.sender.private_key, b"secret")
        intruder = generate_keypair(b"\x13" * 32)
        with pytest.raises(AuthFailure):
            decrypt(intruder.private_key, self.sender_ka, env)

    def test_every_ciphertext_byte_tamper_fails(self):
        # exhaustive tamper oracle over a 64-byte message
        plaintext = bytes(range(64))
        env = encrypt_for(self.recipient_ka, self.sender.private_key, plaintext)
        for i in range(len(env.ciphertext)):
            tampered = bytearray(env.ciphertext)
            tampered[i] ^= 0x01
            broken = type(env)(
                sender_key_id=env.sender_key_id,
                recipient_key_id=env.recipient_key_id,
                nonce=env.nonce,
                ciphertext=bytes(tampered),
            )
            with pytest.raises(AuthFailure):
                decrypt(self.recipient.private_key, self.sender_ka, broken)

    def test_all_wrong_key_pairings_fail(self):
        # cross-pairing oracle over 3 keypairs: only the true (sender, recipient)
        # pairing decrypts; the other pairings all fail authentication
        keys = [generate_keypair(bytes([i]) * 32) for i in (1, 2, 3)]
        ka = [key_agreement_public(k.private_key) for k in keys]
        env = encrypt_for(ka[1], keys[0].private_key, b"to 1 from 0")
        pairings = [(r, s) for r in range(3) for s in range(3) if (s, r) != (0, 1)]
        assert len(pairings) >= 6
        for r, s in pairings:
            with pytest.raises(AuthFailure):
                decrypt(keys[r].private_key, ka[s], env)
        assert decrypt(keys[1].private_key, ka[0], env) == b"to 1 from 0"

    def test_json_roundtrip_and_strictness(self):
        from ssisim.identity import Envelope

        env = encrypt_for(self.recipient_ka, self.sender.private_key, b"wire format")
        assert Envelope.from_json_dict(env.to_json_dict()) == env
        bad = env.to_json_dict()
        bad["nonce"] = bad["nonce"][:-2]
        with pytest.raises(ParseError):
            Envelope.from_json_dict(bad)

    @given(st.binary(min_size=0, max_size=1024))
    @settings(max_examples=50)
    def test_roundtrip_property(self, plaintext):
        env = encrypt_for(self.recipient_ka, self.sender.private_key, plaintext)
        assert decrypt(self.recipient.private_key, self.sender_ka, env) == plaintext


class TestDidDocuments:
    def test_self_certification(self):
        kp = generate_keypair(b"\x21" * 32)
        doc = make_did_document(kp, (("agent", "https://a.example"),), created_at=7)
        assert doc.verify_self()
        assert doc.did == derive_did(kp.public_key)

    def test_foreign_signature_fails_self_certification(self):
        kp, other = generate_keypair(b"\x21" * 32), generate_keypair(b"\x22" * 32)
        doc = make_did_document(kp, created_at=7)
        forged = type(doc)(
            did=doc.did,
            verification_key=doc.verification_key,
            key_agreement_key=doc.key_agreement_key,
            service_endpoints=doc.service_endpoints,
            created_at=doc.created_at,
            controller_signature=sign(other.private_key, doc.signing_payload()),
        )
        assert not forged.verify_self()
