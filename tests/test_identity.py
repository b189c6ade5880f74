import ast
import hashlib
import itertools
import json
import os
import random
import re
import sys
import threading
import time
from collections import Counter
from dataclasses import fields, replace
from pathlib import Path

import pytest
from cryptography.hazmat.primitives.asymmetric.ed25519 import (
    Ed25519PrivateKey,
    Ed25519PublicKey,
)
from cryptography.hazmat.primitives.asymmetric import x25519
from cryptography.hazmat.primitives.asymmetric.x25519 import X25519PrivateKey
from hypothesis import given, settings
from hypothesis import strategies as st

import ssisim.agents
import ssisim.engine
import ssisim.identity
import ssisim.verdicts
from ssisim.agents import Agent, AuthChallenge, MessageBus
from ssisim.credentials import create_presentation
from ssisim.engine import (
    define_schema,
    issue_credential,
    revoke_credential,
    tamper_check,
    verify_credential,
    verify_presentation,
)
from ssisim.errors import (
    AuthFailure,
    KeyMismatch,
    NotPermissioned,
    NotSchemaOwner,
    ParseError,
    SeedLength,
    UnknownDid,
)
from ssisim.identity import (
    DID_METHOD,
    KEY_ID_LEN,
    SEED_LEN,
    Did,
    KeyPair,
    derive_did,
    decrypt,
    encrypt_for,
    generate_keypair,
    key_agreement_public,
    key_fingerprint,
    make_did_document,
    sign,
)
from ssisim.ledger import Ledger, LedgerMode, RegisterDid, make_schema
from ssisim.pki import CompromiseConfig, build_hierarchy, run_compromise_experiment
from ssisim.runtime import DeterministicRng, LogicalClock
from ssisim.scenarios import HealthcareConfig, run_scenario
from ssisim.serialization import b58encode, canonical_json_bytes
from ssisim.verdicts import split_each, start_split, verify, verify_each
from ssisim.wallet import wallet_create, wallet_load, wallet_save

from conftest import flip_bit, seeded_keypair, wait_until_ended

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
        recipient_ka = key_agreement_public(b"\x01" * 32)
        envelope = encrypt_for(recipient_ka, b"\x02" * 32, b"m")
        uses = (
            lambda key: sign(key, b"m"),
            key_agreement_public,
            lambda key: encrypt_for(recipient_ka, key, b"m"),
            lambda key: decrypt(key, recipient_ka, envelope),
        )
        for n in range(65):
            if n == SEED_LEN:
                continue
            for key in (b"\x00" * n, bytearray(n)):
                # twice: a rejected key must not be remembered either way
                for _ in range(2):
                    with pytest.raises(SeedLength, match=f"^seed must be 32 bytes, got {n}$"):
                        generate_keypair(key)
                    for use in uses:
                        with pytest.raises(SeedLength, match="^private key must be 32 bytes$"):
                            use(key)

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


class TestDidIsItsText:
    """A DID is held as its text: it equals and hashes like it, so every index keyed by
    DIDs answers the same for a DID and for its text."""

    def test_parsed_and_derived_dids_are_their_text(self, holder):
        derived = derive_did(holder.public_key)
        text = f"did:{DID_METHOD}:{b58encode(hashlib.sha256(holder.public_key).digest())}"
        parsed = Did.parse(text)
        for did in (derived, parsed):
            assert isinstance(did, str) and type(did) is Did
            assert did == text and hash(did) == hash(text)
            assert {did: 1}[text] == 1

    def test_registry_reads_answer_the_same_for_a_did_and_its_text(self, ledger, holder):
        did = derive_did(holder.public_key)
        text = str(did)
        state = ledger._index()
        assert state.registration(did) is state.registration(text) is not None
        assert ledger.resolve_did(did) == ledger.resolve_did(text) == ledger.resolve_did(
            Did.parse(text))
        ghost = str(derive_did(seeded_keypair(b"ghost").public_key))
        for unknown in (ghost, Did.parse(ghost)):
            with pytest.raises(UnknownDid, match=f"^{ghost} is not registered$"):
                ledger.resolve_did(unknown)

    def test_the_writer_set_admits_a_writer_registered_by_its_text(self, operator, clock):
        outsider = seeded_keypair(b"outsider")
        for did_of in (derive_did, lambda key: str(derive_did(key))):
            doc = make_did_document(operator, created_at=clock.tick())
            doc = replace(doc, did=did_of(operator.public_key))
            ledger = Ledger.genesis([doc], clock=clock)
            assert derive_did(operator.public_key) in ledger.writer_set
            ledger.append_block([RegisterDid(make_did_document(outsider))], operator)
            assert len(ledger.blocks) == 2
            with pytest.raises(NotPermissioned):
                ledger.append_block([RegisterDid(make_did_document(outsider))], outsider)

    def test_the_bus_delivers_to_a_did_and_to_its_text(self, ledger, holder, clock):
        bus = MessageBus()
        agent = Agent(wallet_create(holder.private_key), ledger, bus=bus,
                      rng=DeterministicRng(b"bus".ljust(32, b"\x00")), clock=clock)
        envelope = encrypt_for(key_agreement_public(holder.private_key), holder.private_key,
                               b"m")
        bus.deliver(agent.did, envelope)
        bus.deliver(str(agent.did), envelope)
        assert list(agent.inbox) == [envelope, envelope]

    def test_a_keypair_holds_two_keys_and_derives_its_key_id(self, holder):
        assert [field.name for field in fields(KeyPair)] == ["public_key", "private_key"]
        assert holder.key_id == key_fingerprint(holder.public_key)
        assert KeyPair(holder.public_key, holder.private_key) == holder

    def test_a_wallet_whose_key_id_disagrees_with_its_key_is_refused(self):
        obj = json.loads(wallet_save(wallet_create(b"\x3a" * 32)))
        obj["key_id"] = "00" * KEY_ID_LEN
        with pytest.raises(KeyMismatch, match="^stored key id does not match the public key$"):
            wallet_load(canonical_json_bytes(obj))


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


class TestVerifyEach:
    """verify_each gives every job its serial verdict, whether or not a forked helper checked it."""

    LENGTHS = (0, 1, 255, 256, 257, 600)
    # Each fault leaves a job that fails verify, except a bytearray message, which verifies.
    FAULTS = {
        "wrong-length key": lambda key, message, signature: (key[:31], message, signature),
        "flipped signature": lambda key, message, signature: (key, message,
                                                              flip_bit(signature)),
        "other message": lambda key, message, signature: (key, message + b"!", signature),
        "bytearray key": lambda key, message, signature: (bytearray(key), message, signature),
        "bytearray message": lambda key, message, signature: (key, bytearray(message),
                                                              signature),
    }

    @pytest.fixture(scope="class")
    def jobs(self):
        key = generate_keypair(b"\x06" * 32)
        messages = [b"each" + i.to_bytes(4, "big") for i in range(max(self.LENGTHS))]
        return [(key.public_key, m, sign(key.private_key, m)) for m in messages]

    @classmethod
    def faulted(cls, jobs, length, fault):
        """The first length jobs, with the fault at the first and last jobs and either
        side of the boundary between two chunks; and the set of faulted indexes."""
        jobs = list(jobs[:length])
        where = {0, length // 2 - 1, length // 2, length - 1} & set(range(length))
        for i in where:
            jobs[i] = cls.FAULTS[fault](*jobs[i])
        return jobs, where

    @pytest.mark.parametrize("length", LENGTHS)
    @pytest.mark.parametrize("fault", [None, *FAULTS])
    def test_verdicts_are_the_serial_ones(self, jobs, helpers, length, fault):
        jobs, where = self.faulted(jobs, length, fault) if fault else (jobs[:length], set())
        verdicts = verify_each(jobs)
        assert verdicts == bytes(verify(*job) for job in jobs)
        failing = set() if fault == "bytearray message" else where
        assert verdicts == bytes(i not in failing for i in range(length))
        if helpers is not None:
            assert len(helpers) == (length >= 256)

    @pytest.mark.parametrize("length", [256, 600])
    @pytest.mark.parametrize("failure", ["raises", "short", "garbage", "exits non-zero"])
    def test_a_failing_helper_changes_no_verdict(self, jobs, two_cpus, monkeypatch, length,
                                                 failure):
        parent, real, answered = os.getpid(), ssisim.verdicts._verdicts, []

        def verdicts(jobs):
            if os.getpid() == parent:  # each bite here waits until the helper has ended
                wait_until_ended(two_cpus[-1])
                return real(jobs)
            answered.append(real(jobs))  # the helper's own copy of the list
            if len(answered) > 10:  # it ends after ten answers
                if failure == "raises":
                    raise RuntimeError("helper failed")
                os._exit(3 if failure == "exits non-zero" else 0)
            if failure == "garbage":
                return b"\x07"
            # ten true answers, or ten well-formed wrong ones before it fails
            return answered[-1] if failure == "short" else bytes([1 - answered[-1][0]])

        monkeypatch.setattr(ssisim.verdicts, "_verdicts", verdicts)
        for fault in self.FAULTS:
            faulted, _ = self.faulted(jobs, length, fault)
            assert verify_each(faulted) == bytes(verify(*job) for job in faulted)
        assert len(two_cpus) == len(self.FAULTS)

    def test_a_failed_fork_changes_no_verdict(self, jobs, two_cpus, monkeypatch):
        def fork():
            raise OSError("no process left")

        monkeypatch.setattr(os, "fork", fork)
        faulted, where = self.faulted(jobs, 600, "flipped signature")
        assert verify_each(faulted) == bytes(i not in where for i in range(600))

    def test_other_threads_keep_it_in_process(self, jobs, two_cpus):
        few = jobs[:254] + [self.FAULTS["flipped signature"](*jobs[254])]
        assert verify_each(few).find(0) == 254  # the ledger's first-bad-signature read
        faulted, where = self.faulted(jobs, 600, "wrong-length key")
        stop = threading.Event()
        thread = threading.Thread(target=stop.wait)
        thread.start()
        try:
            assert verify_each(faulted) == bytes(i not in where for i in range(600))
        finally:
            stop.set()
            thread.join(timeout=10)
        assert not thread.is_alive()
        assert two_cpus == []


class TestSplitEach:
    """What split_each leaves behind when work fails in this process."""

    @staticmethod
    def parity(items):
        return bytes(item % 2 for item in items)

    def test_no_helper_is_left_when_work_raises_here(self, helpers):
        parent = os.getpid()

        def work(items):
            if os.getpid() == parent:
                raise RuntimeError("work failed")
            time.sleep(60)  # the helper is still running when this process fails
            return bytes(len(items))

        with pytest.raises(RuntimeError, match="work failed"):
            split_each(work, list(range(600)))
        assert split_each(self.parity, list(range(600))) == self.parity(range(600))
        if helpers is not None:  # two_cpus checks that each was reaped and its page closed
            assert len(helpers) == 2  # the split after the failed one forks again


def parity(items) -> bytes:
    return bytes(item % 2 for item in items)


def done_twice(log, items) -> tuple:
    """(How many times an item was done again, how many work calls this process made),
    from a log of "pid:item,item,..." lines, one a work call, that covers every item."""
    done, bites = Counter(), 0
    for line in log.read_text().split():
        pid, chunk = line.split(":")
        done.update(int(item) for item in chunk.split(","))
        bites += int(pid) == os.getpid()
    assert set(done) == set(items)
    return sum(done.values()) - len(items), bites


class TestStartSplit:
    """A split keeps no chunk of its own: its helper answers from the front, and join takes
    over, from the back and in halving bites, what the helper has not reached."""

    def test_join_meets_a_slow_helper(self, two_cpus, tmp_path):
        log, parent, items = tmp_path / "answered", os.getpid(), list(range(300))

        def work(chunk):  # the helper takes 2 ms an item; each call logs one line
            if os.getpid() != parent:
                time.sleep(0.002)
            with open(log, "a") as out:
                out.write(f"{os.getpid()}:{','.join(map(str, chunk))}\n")
            return parity(chunk)

        split = start_split(work, items)
        deadline = time.monotonic() + 30
        # 21 lines: the helper has written its first 20 answers
        while not log.exists() or len(log.read_text().split()) < 21:
            assert time.monotonic() < deadline
            time.sleep(0.002)
        assert split.join(items) == parity(items)
        (helper,) = two_cpus
        calls = {}
        for line in log.read_text().split():
            pid, chunk = line.split(":")
            calls.setdefault(int(pid), []).append([int(item) for item in chunk.split(",")])
        answered = [item for (item,) in calls[helper]]  # one item a call
        assert answered == items[:len(answered)]  # from the front, in order
        end = len(items)
        for bite in calls[parent]:  # contiguous bites from the back
            assert bite == items[end - len(bite):end]
            assert len(bite) <= max(1, (end - 20) // 2)  # at most half of the unanswered
            end -= len(bite)
        assert 20 <= end <= len(answered)  # together, every item once

    def test_join_halves_what_a_silent_helper_leaves(self, two_cpus):
        parent, items, bites = os.getpid(), list(range(300)), []

        def work(chunk):  # the helper would take a minute
            if os.getpid() != parent:
                time.sleep(60)
            bites.append(len(chunk))
            return parity(chunk)

        assert start_split(work, items).join(items) == parity(items)
        assert bites == [150, 75, 37, 19, 9, 5, 2, 1, 1, 1]
        assert len(two_cpus) == 1

    def test_join_marks_every_item_of_a_bite_taken(self, two_cpus):
        parent, items, marks = os.getpid(), list(range(300)), []

        def work(chunk):  # the helper answers nothing; this process reads its bite's slots
            if os.getpid() != parent:
                time.sleep(60)
            marks.append(split._page[chunk[0]:chunk[-1] + 1])
            return parity(chunk)

        split = start_split(work, items)
        assert split.join(items) == parity(items)
        # every slot of each bite is marked, so a helper inside its first item stops after it
        assert [mark.count(ssisim.verdicts._TAKEN) for mark in marks] == [
            150, 75, 37, 19, 9, 5, 2, 1, 1, 1]

    def test_a_resumed_helper_answers_nothing_inside_a_bite_taken_before(self, two_cpus,
                                                                          tmp_path):
        parent, items, here = os.getpid(), list(range(300)), []
        log, resume = tmp_path / "log", tmp_path / "resume"

        def work(chunk):
            if os.getpid() != parent:  # the helper pauses in its first item
                while not resume.exists():
                    time.sleep(0.001)
                with open(log, "a") as out:
                    out.write(f"{chunk[0]}\n")
            elif not here:  # the first bite, taken while the helper pauses, resumes it
                resume.touch()
                wait_until_ended(two_cpus[0])
            here.append(list(chunk))
            return parity(chunk)

        assert start_split(work, items).join(items) == parity(items)
        assert here == [items[150:]]
        assert [int(item) for item in log.read_text().split()] == items[:150]

    def test_no_more_than_one_item_a_bite_is_done_twice(self, two_cpus, tmp_path):
        key = generate_keypair(b"\x07" * 32)
        messages = [b"twice" + i.to_bytes(2, "big") for i in range(400)]
        jobs = [(key.public_key, m, sign(key.private_key, m)) for m in messages]
        log, parent, items = tmp_path / "calls", os.getpid(), list(range(400))

        def work(chunk):  # logs each call; this process is slowed, so the helper catches up
            with open(log, "a") as out:
                out.write(f"{os.getpid()}:{','.join(map(str, chunk))}\n")
            if os.getpid() == parent:
                time.sleep(0.0005 * len(chunk))
            return bytes(verify(*jobs[i]) for i in chunk)

        assert start_split(work, items).join(items) == b"\x01" * 400
        twice, bites = done_twice(log, items)
        assert twice <= bites
        assert len(two_cpus) == 1

    @pytest.mark.parametrize("joined", [
        [i + 1 for i in range(600)],                # every item differs
        list(range(300)) + [i + 1 for i in range(300, 600)],
        list(range(400)),
        list(range(700)),
        [],
    ])
    def test_a_helper_answers_only_for_the_items_it_started_on(self, two_cpus, joined):
        split = start_split(parity, list(range(600)))
        wait_until_ended(two_cpus[0])  # every answer of the helper is in the page
        assert split.join(joined) == parity(joined)

    def test_a_split_while_one_is_open_forks_its_own_helper(self, fork_log, two_cpus):
        items = list(range(600))
        early = start_split(parity, items)
        assert split_each(parity, items) == parity(items)
        assert fork_log.read_text().split() == [str(os.getpid())] * 2
        assert early.join(items) == parity(items)

    def test_two_open_splits_join_from_their_own_pages(self, fork_log, two_cpus):
        parent, here = os.getpid(), []

        def work(chunk):
            if os.getpid() == parent:
                here.append(list(chunk))
            return parity(chunk)

        first, second = list(range(600)), [i + 1 for i in range(600)]  # every answer differs
        early, late = start_split(work, first), start_split(work, second)
        for pid in two_cpus:
            wait_until_ended(pid)  # every answer of each helper is in its own page
        assert late.join(second) == parity(second)  # joined in the reverse order
        assert early.join(first) == parity(first)
        assert here == []  # neither join took a bite in process
        assert fork_log.read_text().split() == [str(parent)] * 2

    def test_a_closed_split_is_joined_in_process(self, two_cpus):
        parent, items = os.getpid(), list(range(600))

        def work(chunk):  # the helper would take a minute
            if os.getpid() != parent:
                time.sleep(60)
            return parity(chunk)

        split = start_split(work, items)
        split.close()  # two_cpus checks that the helper was reaped and its page closed
        assert len(two_cpus) == 1
        assert split.join(items) == parity(items)

    @pytest.mark.parametrize("length", [0, 255])
    def test_too_few_items_fork_nothing(self, two_cpus, length):
        items = list(range(length))
        assert start_split(parity, items).join(items) == parity(items)
        assert two_cpus == []


class TestFourCpus:
    """Three helpers, one on each third of 768 items; join walks their chunks in turn, and
    no helper forks."""

    ITEMS = list(range(768))

    def test_split_each_gives_the_serial_answers(self, fork_log, cpus):
        helpers = cpus(4)
        assert split_each(parity, self.ITEMS) == parity(self.ITEMS)
        assert len(helpers) == 3
        assert fork_log.read_text().split() == [str(os.getpid())] * 3

    @pytest.mark.parametrize("ended", [True, False])
    def test_a_join_that_differs_in_the_second_chunk(self, fork_log, cpus, ended):
        helpers, parent, here = cpus(4), os.getpid(), []

        def work(chunk):
            if os.getpid() == parent:
                here.append(list(chunk))
            return parity(chunk)

        joined = self.ITEMS[:300] + [item + 1 for item in self.ITEMS[300:]]
        split = start_split(work, self.ITEMS)
        for pid in helpers if ended else ():
            wait_until_ended(pid)  # every answer of the helper is in the page
        assert split.join(joined) == parity(joined)
        if ended:  # the helpers' answers count up to the first item that differs
            assert here == [joined[300:]]
        assert len(helpers) == 3
        assert fork_log.read_text().split() == [str(os.getpid())] * 3

    def test_a_middle_helper_that_exits_non_zero_changes_no_byte(self, fork_log, cpus):
        helpers, parent, here = cpus(4), os.getpid(), []

        def work(chunk):  # the middle helper gives ten wrong answers, then exits 3
            if os.getpid() == parent:
                here.append(list(chunk))
            elif 256 <= chunk[0] < 512:
                if chunk[0] >= 266:
                    os._exit(3)
                return bytes(1 - item % 2 for item in chunk)
            return parity(chunk)

        split = start_split(work, self.ITEMS)
        for pid in helpers:
            wait_until_ended(pid)
        assert split.join(self.ITEMS) == parity(self.ITEMS)
        assert here == [self.ITEMS[256:512]]  # the middle chunk, and only it, runs here
        assert len(helpers) == 3
        assert fork_log.read_text().split() == [str(os.getpid())] * 3


    def test_splits_with_more_processes_than_cores_give_the_serial_answers(self, cpus,
                                                                          tmp_path):
        helpers, parent, log = cpus(4), os.getpid(), tmp_path / "calls"

        def work(chunk):  # each helper answers at its own uneven pace
            if os.getpid() != parent:
                time.sleep(random.Random(os.getpid()).random() / 2000)
            with open(log, "a") as out:
                out.write(f"{os.getpid()}:{','.join(map(str, chunk))}\n")
            return parity(chunk)

        for _ in range(10):
            log.write_text("")
            assert start_split(work, self.ITEMS).join(self.ITEMS) == parity(self.ITEMS)
            twice, bites = done_twice(log, self.ITEMS)
            assert twice <= bites
        assert len(helpers) == 30


class TestOneForkPath:
    """Every fork goes through verdicts.start_split, as the README says."""

    SRC = Path(ssisim.identity.__file__).parent

    @classmethod
    def calls(cls, names):
        """(module, enclosing function, name) of every call in the package to a name in names."""
        found = []

        def visit(node, module, function):
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
                function = node.name
            if isinstance(node, ast.Call):
                func = node.func
                name = func.attr if isinstance(func, ast.Attribute) else getattr(func, "id", None)
                if name in names:
                    found.append((module, function, name))
            for child in ast.iter_child_nodes(node):
                visit(child, module, function)

        for path in sorted(cls.SRC.glob("*.py")):
            visit(ast.parse(path.read_text(encoding="utf-8")), path.stem, None)
        return found

    def test_only_fork_helper_forks(self):
        assert self.calls({"fork", "forkpty", "posix_spawn", "posix_spawnp"}) == [
            ("verdicts", "_fork_helper", "fork")]

    def test_only_start_split_starts_a_helper(self):
        assert self.calls({"_fork_helper"}) == [("verdicts", "start_split", "_fork_helper")]

    def test_only_these_functions_start_a_split(self):
        # no split is started from a split's work, so no helper forks
        assert sorted(self.calls({"split_each", "start_split", "verify_each",
                                  "start_verify"})) == [
            ("cli", "_read_early", "start_verify"),
            ("ledger", "_first_fault", "verify_each"),
            ("pki", "_run_ca_compromise", "split_each"),
            ("verdicts", "split_each", "start_split"),
            ("verdicts", "start_verify", "start_split"),
            ("verdicts", "verify_each", "split_each"),
        ]

    @classmethod
    def imports(cls) -> list:
        """(module, top-level name) of every module the package imports."""
        found = []
        for path in sorted(cls.SRC.glob("*.py")):
            for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
                if isinstance(node, ast.Import):
                    modules = [alias.name for alias in node.names]
                elif isinstance(node, ast.ImportFrom):
                    modules = [node.module or ""]
                else:
                    continue
                found += [(path.stem, module.split(".")[0]) for module in modules]
        return found

    def test_no_module_imports_another_way_to_start_a_process(self):
        assert not [found for found in self.imports()
                    if found[1] in {"multiprocessing", "concurrent", "subprocess"}]

    def test_only_verdicts_shares_a_page_with_a_helper_or_reads_its_end(self):
        assert [found for found in self.imports() if found[1] == "mmap"] == [
            ("verdicts", "mmap")]
        assert self.calls({"mmap", "waitid"}) == [
            ("verdicts", "start_split", "mmap"), ("verdicts", "_failed", "waitid")]


class TestOneNameHome:
    """Each name is imported from the module that defines it: no module re-exports another's."""

    @staticmethod
    def defined(tree) -> set:
        """The names a module binds at its top level by def, class or assignment."""
        names = set()
        for node in tree.body:
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                names.add(node.name)
            elif isinstance(node, (ast.Assign, ast.AnnAssign)):
                targets = node.targets if isinstance(node, ast.Assign) else [node.target]
                names |= {name.id for target in targets for name in ast.walk(target)
                          if isinstance(name, ast.Name)}
        return names

    def test_every_relative_import_names_a_definition_of_its_module(self):
        trees = {path.stem: ast.parse(path.read_text(encoding="utf-8"))
                 for path in sorted(TestOneForkPath.SRC.glob("*.py"))}
        defined = {module: self.defined(tree) for module, tree in trees.items()}
        borrowed = [f"{module}.py:{node.lineno}: {alias.name} from {node.module}"
                    for module, tree in trees.items() for node in ast.walk(tree)
                    if isinstance(node, ast.ImportFrom) and node.level == 1
                    for alias in node.names if alias.name not in defined[node.module]]
        assert borrowed == []


class TestOneTreeRule:
    """The Merkle tree's 0x00 / 0x01 domain separation is written in merkle alone: only it
    writes those one-byte prefixes, and only it and serialization hash with hashlib."""

    @staticmethod
    def prefix_bytes(src: Path) -> list:
        """(module, enclosing function) of each b"\\x00" or b"\\x01" in src not repeated by *."""
        found = []

        def visit(node, module, function):
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
                function = node.name
            repeated = isinstance(node, ast.BinOp) and isinstance(node.op, ast.Mult)
            for child in ast.iter_child_nodes(node):
                if (isinstance(child, ast.Constant) and child.value in (b"\x00", b"\x01")
                        and not repeated):
                    found.append((module, function))
                visit(child, module, function)

        for path in sorted(src.glob("*.py")):
            visit(ast.parse(path.read_text(encoding="utf-8")), path.stem, None)
        return found

    def test_only_serialization_and_merkle_import_hashlib(self):
        assert sorted(module for module, name in TestOneForkPath.imports()
                      if name == "hashlib") == ["merkle", "serialization"]

    def test_only_merkle_writes_the_tree_prefixes(self):
        # merkle's _LEAF and _NODE; b58encode strips leading zero bytes and hashes nothing
        assert self.prefix_bytes(TestOneForkPath.SRC) == [
            ("merkle", None), ("merkle", None), ("serialization", "b58encode")]

    def test_the_guard_sees_each_form(self, tmp_path):
        (tmp_path / "m.py").write_text(
            "def node(l, r):\n    return sha256(b'\\x01' + l + r)\n"
            "LEAF = b'\\x00'\nZEROS = b'\\x00' * 32\nPAD = b'\\x02'\nTAG = b'\\x01tag'\n")
        assert self.prefix_bytes(tmp_path) == [("m", "node"), ("m", None)]


class TestOneDidForm:
    """A DID is its text, so the package never turns one into text: no str() of a name or
    attribute called did or ending in _did, and none of a derive_did call."""

    @staticmethod
    def texts_of_dids(src: Path) -> list:
        """module.py:line of every str() in src whose one argument looks like a DID."""
        def name(node) -> str:
            return getattr(node, "id", None) or getattr(node, "attr", None) or ""

        def is_did(arg) -> bool:
            if isinstance(arg, ast.Call):
                return name(arg.func) == "derive_did"
            return name(arg) == "did" or name(arg).endswith("_did")

        return [f"{path.name}:{node.lineno}"
                for path in sorted(src.glob("*.py"))
                for node in ast.walk(ast.parse(path.read_text(encoding="utf-8")))
                if isinstance(node, ast.Call) and name(node.func) == "str"
                and len(node.args) == 1 and not node.keywords and is_did(node.args[0])]

    def test_no_str_of_a_did(self):
        assert self.texts_of_dids(TestOneForkPath.SRC) == []

    def test_the_guard_sees_each_form(self, tmp_path):
        (tmp_path / "m.py").write_text(
            "str(did)\nstr(doc.did)\nstr(self.writer_did)\nstr(derive_did(key))\n"
            "str(identity.derive_did(key))\nstr(name)\nstr(doc.did_count)\n"
            "str(derive_dids(key))\nstr(did, 'utf-8')\n")
        assert self.texts_of_dids(tmp_path) == [f"m.py:{line}" for line in range(1, 6)]

    def test_only_derive_did_builds_a_did_by_name(self):
        # Did.parse builds the other kind, as cls(text)
        assert TestOneForkPath.calls({"Did"}) == [("identity", "_did_of", "Did")]


class TestOneSignedRecordBuild:
    """A signed record is built once, from its kind's payload function, with its signature:
    no call passes a b"" placeholder to a keyword ending in _signature, and only pki (a
    refused CA's verdict index) and scenarios (the tamper demo) import dataclasses.replace."""

    @staticmethod
    def placeholders(src: Path) -> list:
        """module.py:line of every call in src passing b"" to a keyword ending in _signature."""
        return [f"{path.name}:{node.lineno}"
                for path in sorted(src.glob("*.py"))
                for node in ast.walk(ast.parse(path.read_text(encoding="utf-8")))
                if isinstance(node, ast.Call)
                for keyword in node.keywords
                if (keyword.arg or "").endswith("_signature")
                and isinstance(keyword.value, ast.Constant) and keyword.value.value == b""]

    def test_no_record_is_built_with_a_placeholder_signature(self):
        assert self.placeholders(TestOneForkPath.SRC) == []

    def test_the_guard_sees_each_form(self, tmp_path):
        (tmp_path / "m.py").write_text(
            "Doc(a=1, controller_signature=b'')\nTx(submitter_signature=b'')\n"
            "f(signature=b'')\nTx(submitter_signature=b'x')\nTx(b'')\n"
            "Tx(writer_signature=sig)\n")
        assert self.placeholders(tmp_path) == ["m.py:1", "m.py:2"]

    def test_only_pki_and_scenarios_import_replace(self):
        # from dataclasses import replace, or import dataclasses (which reaches it too)
        importing = [path.stem for path in sorted(TestOneForkPath.SRC.glob("*.py"))
                     for node in ast.walk(ast.parse(path.read_text(encoding="utf-8")))
                     if (isinstance(node, ast.ImportFrom) and node.module == "dataclasses"
                         and "replace" in {alias.name for alias in node.names})
                     or (isinstance(node, ast.Import)
                         and "dataclasses" in {alias.name for alias in node.names})]
        assert importing == ["pki", "scenarios"]


class TestOneRuleHome:
    """The registry rule errors belong to the ledger: its kinds' rule()s are their one check."""

    RULE_ERRORS = {"DuplicateSchema", "UnknownCredential", "NotIssuer", "UnknownTransition"}

    def test_only_the_ledger_names_the_rule_errors(self):
        naming = set()
        for path in TestOneForkPath.SRC.glob("*.py"):
            for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
                if isinstance(node, ast.ImportFrom):
                    names = {alias.name for alias in node.names}
                else:
                    names = {getattr(node, "id", None), getattr(node, "attr", None)}
                if names & self.RULE_ERRORS:
                    naming.add(path.stem)
        assert naming == {"ledger"}

    def test_no_module_builds_a_rule_error_by_name(self):
        # append_block builds them from the cause a rule() returns, through one table
        assert TestOneForkPath.calls(self.RULE_ERRORS) == []

    @staticmethod
    def rule_causes() -> set:
        """Every cause a kind's rule() in the ledger returns, evaluated where it is written."""
        import ssisim.ledger

        tree = ast.parse((TestOneForkPath.SRC / "ledger.py").read_text(encoding="utf-8"))
        returned = [node.value for rule in ast.walk(tree)
                    if isinstance(rule, ast.FunctionDef) and rule.name == "rule"
                    for node in ast.walk(rule) if isinstance(node, ast.Return)]
        return {eval(compile(ast.Expression(value), "ledger.py", "eval"), vars(ssisim.ledger))
                for value in returned} - {None}

    def test_each_rule_cause_is_written_once(self):
        # a cause written twice can be edited in one place only, which would turn a
        # typed refusal into a plain InvalidTransaction
        literals = Counter(node.value for path in TestOneForkPath.SRC.glob("*.py")
                           for node in ast.walk(ast.parse(path.read_text(encoding="utf-8")))
                           if isinstance(node, ast.Constant) and isinstance(node.value, str))
        causes = self.rule_causes()
        assert causes >= {"duplicate schema", "duplicate anchor", "unknown credential",
                          "revoker is not the anchoring issuer", "already revoked"}
        assert {cause: literals[cause] for cause in causes} == dict.fromkeys(causes, 1)


class TestOneIndexPath:
    """RegistryState files each transaction under the (index, key) pairs its kind's slots()
    names, so push and pop know no kind: they name none and ask no transaction its type."""

    def test_push_and_pop_reach_every_index_through_slots(self):
        from ssisim.ledger import KINDS

        tree = ast.parse((TestOneForkPath.SRC / "ledger.py").read_text(encoding="utf-8"))
        state = next(node for node in tree.body
                     if isinstance(node, ast.ClassDef) and node.name == "RegistryState")
        methods = {node.name: node for node in state.body if isinstance(node, ast.FunctionDef)}
        kinds = {cls.__name__ for cls in KINDS.values()} | {"KINDS", "type", "isinstance"}
        for name in ("push", "pop"):
            named = {getattr(node, "id", None) or getattr(node, "attr", None)
                     for node in ast.walk(methods[name])}
            assert named & kinds == set(), name
            assert "slots" in named


class TestOneFileCodec:
    """Files are read through Record.from_bytes or Ledger.from_bytes: only serialization
    parses JSON and checks keys."""

    def test_only_from_bytes_and_the_agents_parse_json(self):
        # the CLI parses a ledger file once, with json alone, before it imports the ledger
        # (see cli._read_early); Ledger.from_bytes checks that parse against the bytes
        assert TestOneForkPath.calls({"load_json", "parse_json", "check_canonical", "loads",
                                      "JSONDecoder"}) == [
            ("agents", "open_envelope", "load_json"),
            ("cli", "_read_early", "loads"),
            ("ledger", "from_bytes", "parse_json"),
            ("ledger", "from_bytes", "check_canonical"),
            ("serialization", "load_json", "check_canonical"),
            ("serialization", "load_json", "parse_json"),
            ("serialization", "parse_json", "loads"),
            ("serialization", "complete_items", "JSONDecoder"),
            ("serialization", "from_bytes", "load_json")]

    def test_only_serialization_and_register_did_check_keys(self):
        # the ledger's one call is RegisterDid.from_json_dict: its file form puts the
        # document's signature beside the document, which a Record table cannot declare
        assert TestOneForkPath.calls({"expect_object"}) == [
            ("ledger", "from_json_dict", "expect_object"),
            ("serialization", "load_pair", "expect_object"),
            ("serialization", "from_json_dict", "expect_object")]


class TestOneProcessExit:
    """Only the ssisim command's entry point turns the collector off or skips teardown.

    So no library caller, in process or under a test, runs with the collector off.
    """

    def test_only_cli_entry_touches_the_collector(self):
        assert TestOneForkPath.calls({"disable", "enable", "freeze", "collect"}) == [
            ("cli", "entry", "disable")]

    def test_only_cli_entry_and_the_fork_helper_exit_without_teardown(self):
        assert TestOneForkPath.calls({"_exit"}) == [
            ("cli", "entry", "_exit"), ("verdicts", "_fork_helper", "_exit")]


class TestNoUnreachableCode:
    """Every top-level function, class and assigned name in the package, and every method,
    class and assigned name a top-level class defines, is reached from the package, as
    vulture finds unused code: its name occurs (not in a docstring) outside its own
    definition where it can reach that definition. A top-level name is reached by a bare
    name in its own module, or in a module that imports it from there; a class's member
    by a name or an attribute anywhere, so a record field does not reach a function of
    its name. Dunder names are read by Python, and the CLI's commands by the decorator
    that registers them; annotated class fields are dataclass fields, which asdict and
    keyword arguments reach unseen. The rest of what is not reached is listed here with
    why it stays."""

    # Qualified name -> (why it stays, the ROADMAP item that reaches or removes it).
    ALLOWED = {
        "agents.Agent.did_auth_challenge": ("DID-Auth: acceptance criterion 5; no flow calls it",
                                            12),
        "agents.Agent.did_auth_respond": ("DID-Auth: acceptance criterion 5", 12),
        "agents.Agent.did_auth_check": ("DID-Auth: acceptance criterion 5", 12),
        "pki.verify_certificate": ("the benchmark's tracer wraps it", 1),
        "engine.tamper_check": ("the benchmark's workloads call it", 1),
        "ledger.Ledger.resolve_did": ("the benchmark's tracer wraps it", 1),
        "ledger.Ledger.lookup_schema": ("the benchmark's tracer wraps it", 1),
        "ledger.Ledger.credential_status": ("the benchmark's workloads call it", 1),
        "ledger.Ledger.credential_anchor": ("the benchmark's tracer wraps it", 1),
        "ledger.RegistryState.copy": ("the benchmark's baseline times it", 1),
        "merkle.merkle_path": ("the benchmark's tracer wraps it", 1),
        "scenarios.run_healthcare_scenario": ("the benchmark calls it", 1),
        "scenarios.run_government_scenario": ("the benchmark calls it", 1),
    }

    @staticmethod
    def defined(body) -> list:
        """(name, node) for each function, class and assigned name a body defines."""
        found = []
        for node in body:
            if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
                found.append((node.name, node))
            elif isinstance(node, ast.Assign):
                found += [(name.id, node) for target in node.targets
                          for name in ast.walk(target) if isinstance(name, ast.Name)]
        return found

    @classmethod
    def unreached(cls, sources=None) -> list:
        """The qualified names of what sources (module name -> source text, the package's
        by default) define and do not reach."""
        if sources is None:
            sources = {path.stem: path.read_text(encoding="utf-8")
                       for path in sorted(TestOneForkPath.SRC.glob("*.py"))}
        names = {}  # name -> (module, line) of each bare use: it reaches any definition
        members = {}  # name -> (module, line) of each use as an attribute: a member only
        imported = set()  # (importing module, defining module, name) of each relative import
        definitions = []  # (module, qualified name, name, node)
        for module, source in sources.items():
            tree = ast.parse(source)
            for node in ast.walk(tree):
                if isinstance(node, ast.Name):
                    names.setdefault(node.id, []).append((module, node.lineno))
                elif isinstance(node, ast.Attribute):
                    members.setdefault(node.attr, []).append((module, node.lineno))
                elif isinstance(node, ast.ImportFrom) and node.level == 1:
                    imported |= {(module, node.module, alias.name) for alias in node.names}
            for name, node in cls.defined(tree.body):
                definitions.append((module, name, name, node))
                if isinstance(node, ast.ClassDef):
                    definitions += [(module, f"{name}.{item_name}", item_name, item)
                                    for item_name, item in cls.defined(node.body)]
        found = []
        for module, qualname, name, node in definitions:
            if name.startswith("__") and name.endswith("__"):
                continue
            if any(getattr(getattr(decorator, "func", None), "id", None) == "_command"
                   for decorator in getattr(node, "decorator_list", ())):
                continue
            if "." in qualname:
                uses = names.get(name, []) + members.get(name, [])
            else:
                uses = [(where, line) for where, line in names.get(name, ())
                        if where == module or (where, module, name) in imported]
            if not any(where != module or not node.lineno <= line <= node.end_lineno
                       for where, line in uses):
                found.append(f"{module}.{qualname}")
        return found

    def test_every_definition_is_reached_or_listed_with_its_reason(self):
        assert sorted(self.unreached()) == sorted(self.ALLOWED)

    def test_a_field_of_a_name_does_not_reach_a_function_of_that_name(self):
        # credentials.RevealedAttribute has a merkle_path field; nothing calls the function
        assert "merkle.merkle_path" in self.unreached()
        sources = {
            "tree": "def path(): pass\ndef used(): pass\ndef local(): pass\nlocal()\n",
            "record": "from .tree import used\nclass Step:\n    path: tuple\n"
                      "def walk(step):\n    return step.path, used()\nwalk(Step())\n",
        }
        assert self.unreached(sources) == ["tree.path"]


class TestOneCredentialRead:
    """The package reads the registry through Ledger.registry alone, and a credential's
    anchor and status together, via RegistryState.credential. Ledger's four convenience
    reads are only for the benchmark; a missing DID or schema is an error in one place
    each, require_document and require_schema."""

    READS = {"resolve_did", "lookup_schema", "credential_anchor", "credential_status"}

    def test_no_module_but_the_ledger_calls_the_projections(self):
        calls = TestOneForkPath.calls(self.READS)
        assert [call for call in calls if call[0] != "ledger"] == []

    @staticmethod
    def raised(name) -> list:
        """(module, enclosing function, message constants) of each `raise name(...)`."""
        found = []

        def visit(node, module, function):
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
                function = node.name
            exc = node.exc if isinstance(node, ast.Raise) else None
            if isinstance(exc, ast.Call) and getattr(exc.func, "id", None) == name:
                texts = tuple(part.value for arg in exc.args for part in ast.walk(arg)
                              if isinstance(part, ast.Constant) and isinstance(part.value, str))
                found.append((module, function, texts))
            for child in ast.iter_child_nodes(node):
                visit(child, module, function)

        for path in sorted(TestOneForkPath.SRC.glob("*.py")):
            visit(ast.parse(path.read_text(encoding="utf-8")), path.stem, None)
        return found

    def test_only_require_schema_raises_unknown_schema(self):
        assert self.raised("UnknownSchema") == [
            ("ledger", "require_schema", ("schema ", " is not defined"))]

    def test_only_require_document_says_a_did_is_not_registered(self):
        unregistered = [(module, function) for module, function, texts
                        in self.raised("UnknownDid") if " is not registered" in texts]
        assert unregistered == [("ledger", "require_document")]


class TestOneVerifier:
    """Credentials and presentations answer one list of claim checks, defined once in the
    engine."""

    @staticmethod
    def engine_callers(name):
        return [function for module, function, _ in TestOneForkPath.calls({name})
                if module == "engine"]

    def test_only_schema_known_looks_up_a_schema(self):
        assert self.engine_callers("schema") == ["_claim_checks"]

    def test_only_issuer_signed_builds_the_issuer_payload(self):
        assert self.engine_callers("credential_signing_payload") == ["_claim_checks"]

    def test_only_the_claim_checks_read_a_credential(self):
        assert self.engine_callers("credential") == ["_claim_checks"]

    def test_only_signed_by_verifies_a_signature(self):
        assert self.engine_callers("verify") == ["signed_by"]

    def test_the_agents_check_did_auth_through_signed_by(self):
        tree = ast.parse(Path(ssisim.agents.__file__).read_text(encoding="utf-8"))
        imported = {alias.name for node in ast.walk(tree) if isinstance(node, ast.ImportFrom)
                    for alias in node.names}
        assert "verify" not in imported
        assert ("agents", "did_auth_check", "signed_by") in TestOneForkPath.calls({"signed_by"})

    def test_no_check_turns_a_missing_did_or_schema_error_into_a_verdict(self):
        # the registry answers None for what it does not hold; nothing catches the
        # errors that require_document and require_schema raise for their callers
        caught = []
        for path in sorted(TestOneForkPath.SRC.glob("*.py")):
            for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
                if isinstance(node, ast.ExceptHandler) and node.type is not None:
                    names = {getattr(name, "id", getattr(name, "attr", None))
                             for name in ast.walk(node.type)}
                    caught += [f"{path.stem}.py:{node.lineno}: {name}"
                               for name in sorted(names & {"UnknownDid", "UnknownSchema"})]
        assert caught == []


class TestOneRegistryRead:
    """Each request that reads the registry takes it once, by Ledger.registry, and reads it
    directly; on a private-permissioned ledger that one access check refuses a reader
    outside the writer set, before any read."""

    REFUSAL = "private-permissioned ledger: reads require writer membership"

    @staticmethod
    def requests(mode) -> dict:
        """name -> one of the five reading requests, each read by bob, on a ledger whose
        writers are the operator, the issuer and alice; bob registers after genesis, so
        bob's DID is outside the writer set."""
        clock, rng = LogicalClock(0), DeterministicRng(b"one-read".ljust(32, b"\x00"))
        operator, issuer, alice_key, bob_key = (
            seeded_keypair(tag) for tag in (b"operator", b"issuer", b"alice", b"bob"))
        led = Ledger.genesis([make_did_document(key, created_at=clock.tick())
                              for key in (operator, issuer, alice_key)], mode=mode, clock=clock)
        led.attach_writer(operator)
        led.submit([RegisterDid(make_did_document(bob_key, created_at=clock.tick()))])
        bus = MessageBus()
        alice, bob = (Agent(wallet_create(key.private_key), led, bus, rng, clock)
                      for key in (alice_key, bob_key))
        schema = define_schema(issuer, "Badge", 1, ["level", "since"], led)
        credential = issue_credential(issuer, alice.did, schema,
                                      {"level": "3", "since": "2020"}, led, rng=rng)
        presentation = create_presentation(credential, ["level"], b"\x09" * 32, alice_key)
        envelope = alice.send_message(bob.did, "note", {"n": 1})
        # planted, since a reader outside the writer set cannot issue a challenge
        challenge = AuthChallenge(verifier_did=bob.did, subject_did=alice.did,
                                  nonce=b"\x0a" * 32, issued_at=clock.now())
        bob._outstanding[challenge.nonce] = challenge
        response = alice.did_auth_respond(challenge)
        return {
            "verify_presentation": lambda: verify_presentation(
                led, presentation, b"\x09" * 32, reader_did=bob.did).accepted,
            "verify_credential": lambda: verify_credential(
                led, credential, reader_did=bob.did).accepted,
            "tamper_check": lambda: tamper_check(credential, led, reader_did=bob.did),
            "open_envelope": lambda: bob.open_envelope(envelope) == {"kind": "note",
                                                                     "body": {"n": 1}},
            "did_auth_check": lambda: bob.did_auth_check(response),
        }

    @pytest.fixture
    def taken(self, monkeypatch) -> list:
        """The reader_did of each Ledger.registry call from here on."""
        taken, real = [], Ledger.registry

        def registry(self, reader_did=None):
            taken.append(reader_did)
            return real(self, reader_did)

        monkeypatch.setattr(Ledger, "registry", registry)
        return taken

    def test_each_request_takes_the_registry_once(self, taken):
        for name, request in self.requests(LedgerMode.PUBLIC_PERMISSIONED).items():
            taken.clear()
            assert request() is True, name
            assert len(taken) == 1, name

    @pytest.mark.parametrize("name", ["verify_presentation", "verify_credential",
                                      "tamper_check", "open_envelope", "did_auth_check"])
    def test_a_reader_outside_the_writer_set_is_refused(self, name):
        request = self.requests(LedgerMode.PRIVATE_PERMISSIONED)[name]
        with pytest.raises(NotPermissioned) as excinfo:
            request()
        assert str(excinfo.value) == self.REFUSAL

    @staticmethod
    def writes(mode, registered: bool) -> dict:
        """name -> one of the four requests that require a registered DID before they act,
        each made by bob, whom the operator's genesis leaves outside the writer set. The DID
        required is bob's own (define_schema, revoke_credential) or alice's (send_message,
        did_auth_challenge); alice and bob are registered, and bob has defined a schema and
        issued to alice, only if registered is set."""
        clock, rng = LogicalClock(0), DeterministicRng(b"one-write".ljust(32, b"\x00"))
        operator, alice_key, bob_key = (
            seeded_keypair(tag) for tag in (b"operator", b"alice", b"bob"))
        led = Ledger.genesis([make_did_document(operator, created_at=clock.tick())],
                             mode=mode, clock=clock)
        led.attach_writer(operator)
        credential_id = b"\x0b" * 32
        if registered:
            led.submit([RegisterDid(make_did_document(key, created_at=clock.tick()))
                        for key in (alice_key, bob_key)])
            schema = define_schema(bob_key, "Badge", 1, ["level"], led)
            credential_id = issue_credential(bob_key, derive_did(alice_key.public_key), schema,
                                             {"level": "3"}, led, rng=rng).credential_id
        bus = MessageBus()
        alice, bob = (Agent(wallet_create(key.private_key), led, bus, rng, clock)
                      for key in (alice_key, bob_key))
        return {
            "define_schema": lambda: define_schema(bob_key, "Pass", 1, ["zone"], led),
            "revoke_credential": lambda: revoke_credential(bob_key, credential_id, led),
            "send_message": lambda: bob.send_message(alice.did, "note", {"n": 1}),
            "did_auth_challenge": lambda: bob.did_auth_challenge(alice.did),
        }

    WRITES = ["define_schema", "revoke_credential", "send_message", "did_auth_challenge"]

    @pytest.mark.parametrize("name", WRITES)
    def test_each_write_takes_the_registry_once_as_its_actor(self, name, taken):
        request = self.writes(LedgerMode.PUBLIC_PERMISSIONED, True)[name]
        taken.clear()
        request()
        assert taken == [derive_did(seeded_keypair(b"bob").public_key)]

    @pytest.mark.parametrize("name", WRITES)
    def test_a_write_outside_the_writer_set_is_refused_before_any_read(self, name):
        # the DID the write requires is not registered either, so a read first would
        # raise UnknownDid
        with pytest.raises(NotPermissioned) as excinfo:
            self.writes(LedgerMode.PRIVATE_PERMISSIONED, False)[name]()
        assert str(excinfo.value) == self.REFUSAL

    @pytest.mark.parametrize("name, required", [
        ("define_schema", b"bob"), ("revoke_credential", b"bob"),
        ("send_message", b"alice"), ("did_auth_challenge", b"alice")])
    def test_a_write_whose_did_is_not_registered_is_refused(self, name, required):
        with pytest.raises(UnknownDid) as excinfo:
            self.writes(LedgerMode.PUBLIC_PERMISSIONED, False)[name]()
        did = derive_did(seeded_keypair(required).public_key)
        assert str(excinfo.value) == f"{did} is not registered"

    def test_issuing_takes_the_registry_once(self, ledger, issuer, holder, rng, taken):
        schema = define_schema(issuer, "Badge", 1, ["level"], ledger)
        taken.clear()
        issue_credential(issuer, derive_did(holder.public_key), schema, {"level": "3"}, ledger,
                         rng=rng)
        assert taken == [derive_did(issuer.public_key)]

    def test_issuing_refuses_in_a_fixed_order(self, operator, issuer, rng):
        """Not the schema's owner, then a private ledger's reader outside the writer set,
        then an unregistered issuer, then an unregistered holder: each case below also
        meets every later refusal, so only the first may be raised."""
        stranger = seeded_keypair(b"stranger")
        issuer_did, stranger_did = derive_did(issuer.public_key), derive_did(stranger.public_key)
        ghost = derive_did(seeded_keypair(b"ghost").public_key)
        schema = make_schema(issuer_did, "Badge", 1, ["level"])

        def refusal(key, mode, issuer_registered):
            clock = LogicalClock(0)
            led = Ledger.genesis([make_did_document(operator, created_at=clock.tick())],
                                 mode=mode, clock=clock)
            led.attach_writer(operator)
            if issuer_registered:
                led.submit([RegisterDid(make_did_document(issuer, created_at=clock.tick()))])
            with pytest.raises((NotSchemaOwner, NotPermissioned, UnknownDid)) as excinfo:
                issue_credential(key, ghost, schema, {"level": "3"}, led, rng=rng)
            return type(excinfo.value), str(excinfo.value)

        private, public = LedgerMode.PRIVATE_PERMISSIONED, LedgerMode.PUBLIC_PERMISSIONED
        assert [refusal(stranger, private, False), refusal(issuer, private, False),
                refusal(issuer, public, False), refusal(issuer, public, True)] == [
            (NotSchemaOwner, f"schema belongs to {issuer_did}, not {stranger_did}"),
            (NotPermissioned, self.REFUSAL),
            (UnknownDid, f"{issuer_did} is not registered"),
            (UnknownDid, f"{ghost} is not registered"),
        ]


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


# Seeds that share long prefixes and suffixes, so a memo keyed on part of the
# key, on its length or on the call order answers with the wrong key.
MEMO_SEEDS = [
    b"\x00" * 32,
    b"\x00" * 31 + b"\x01",
    b"\x01" + b"\x00" * 31,
    bytes(range(32)),
]


def _fresh_key_agreement_public(seed: bytes) -> bytes:
    scalar = hashlib.sha256(b"ssisim/key-agreement/v1" + seed).digest()
    return X25519PrivateKey.from_private_bytes(scalar).public_key().public_bytes_raw()


class TestKeyMemo:
    """Keys and DIDs are built once per process and answer as if built on each call."""

    @given(st.lists(st.tuples(st.sampled_from(range(len(MEMO_SEEDS))) | st.binary(
        min_size=32, max_size=32), st.booleans(), st.binary(max_size=128)),
        min_size=2, max_size=12))
    @settings(max_examples=60)
    def test_memoized_keys_match_fresh_ones(self, steps):
        previous = None
        for which, as_bytearray, message in steps:
            seed = MEMO_SEEDS[which] if isinstance(which, int) else which
            key = bytearray(seed) if as_bytearray else seed
            fresh = Ed25519PrivateKey.from_private_bytes(seed)
            public = fresh.public_key().public_bytes_raw()
            assert generate_keypair(key).public_key == public
            assert sign(key, message) == fresh.sign(message)
            assert derive_did(bytearray(public) if as_bytearray else public) == \
                f"did:{DID_METHOD}:{b58encode(hashlib.sha256(public).digest())}"
            assert key_agreement_public(key) == _fresh_key_agreement_public(seed)
            if previous is not None:
                envelope = encrypt_for(_fresh_key_agreement_public(previous), key, message)
                assert decrypt(previous, _fresh_key_agreement_public(seed), envelope) == message
                if previous != seed:
                    with pytest.raises(AuthFailure):
                        decrypt(key, _fresh_key_agreement_public(previous), envelope)
            previous = seed

    def test_threads_sharing_the_memo_get_the_right_keys(self):
        seeds = MEMO_SEEDS + [bytes([i]) * 32 for i in range(2, 6)]
        expected = {seed: Ed25519PrivateKey.from_private_bytes(seed).sign(b"m") for seed in seeds}
        wrong = []

        def worker(offset):
            for i in range(200):
                seed = seeds[(offset + i) % len(seeds)]
                if i % 50 == 0:
                    ssisim.identity._signing_key.cache_clear()
                if sign(seed, b"m") != expected[seed]:
                    wrong.append(seed)

        run_in_threads(worker)
        assert wrong == []


def run_in_threads(worker, count=8):
    """worker(k) for k in range(count), each in its own thread, switching every microsecond."""
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        threads = [threading.Thread(target=worker, args=(k,)) for k in range(count)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=60)
    finally:
        sys.setswitchinterval(interval)
    assert not any(thread.is_alive() for thread in threads)


def _fresh_verdict(public_key, message, signature) -> bool:
    """verify's answer with no memo: Ed25519 on a key built for this call."""
    try:
        Ed25519PublicKey.from_public_bytes(public_key).verify(signature, message)
    except Exception:
        return False
    return True


# Keys whose seeds share prefixes and suffixes and messages that are prefixes of
# each other, so a memo keyed on part of a triple answers for another one.
VERDICT_TRIPLES = [
    (key.public_key, message, sign(key.private_key, message))
    for key in map(generate_keypair, MEMO_SEEDS[:3])
    for message in (b"", b"m", b"m" * 40)
]

# Each form an argument of verify may take, made from its bytes. bytes() of the
# int would be that many zero bytes, which the sweep's message is.
ARGUMENT_FORMS = {
    "bytes": bytes,
    "bytearray": bytearray,
    "memoryview(bytes)": memoryview,
    "memoryview(bytearray)": lambda value: memoryview(bytearray(value)),
    "str": lambda value: value.decode("latin-1"),
    "int": len,
    "None": lambda value: None,
}
BUFFER_FORMS = ("bytes", "bytearray", "memoryview(bytes)", "memoryview(bytearray)")


class TestVerdictMemo:
    """Verdicts are checked once per process and answer as if checked on each call."""

    @given(st.lists(st.tuples(st.integers(0, len(VERDICT_TRIPLES) - 1),
                              st.sampled_from([None, 0, 1, 2]), st.integers(0, 63),
                              st.integers(1, 255)), min_size=2, max_size=20))
    @settings(max_examples=80)
    def test_memoized_verdicts_match_fresh_ones(self, steps):
        for which, position, offset, mask in steps:
            triple = list(VERDICT_TRIPLES[which])
            if position is not None:  # one byte of the key, message or signature changed
                value = bytearray(triple[position] or b"\x00")
                value[offset % len(value)] ^= mask
                triple[position] = bytes(value)
            expected = _fresh_verdict(*triple)
            assert expected is (position is None)
            assert verify(*triple) is expected
            assert verify(*triple) is expected

    def test_argument_types_keep_their_verdicts(self):
        key = generate_keypair(b"\x31" * 32)
        message = bytes(5)
        signature = sign(key.private_key, message)
        assert verify(key.public_key, message, signature)  # now in the memo
        table = {}
        for forms in itertools.product(ARGUMENT_FORMS, repeat=3):
            args = [ARGUMENT_FORMS[form](value)
                    for form, value in zip(forms, (key.public_key, message, signature))]
            expected = _fresh_verdict(*args)
            table[forms] = verify(*args)
            assert table[forms] is expected, forms
            assert verify(*args) is expected, forms
        assert table["bytearray", "bytes", "bytes"] is False
        assert table["bytes", "bytearray", "bytes"] is True
        # a key verifies only as bytes, a message or signature as any buffer
        assert {forms for forms, ok in table.items() if ok} == {
            ("bytes", m, s) for m in BUFFER_FORMS for s in BUFFER_FORMS}

    def test_an_error_ed25519_did_not_decide_is_not_memoized(self, monkeypatch):
        key = generate_keypair(b"\x32" * 32)
        signature = sign(key.private_key, b"m")
        ssisim.verdicts._verdict.cache_clear()
        builds = []

        class OutOfMemoryOnce:
            @staticmethod
            def from_public_bytes(data):
                builds.append(data)
                if len(builds) == 1:
                    raise MemoryError
                return Ed25519PublicKey.from_public_bytes(data)

        monkeypatch.setattr(ssisim.verdicts, "Ed25519PublicKey", OutOfMemoryOnce)
        assert verify(key.public_key, b"m", signature) is False
        assert verify(key.public_key, b"m", signature) is True
        assert verify(key.public_key, b"m", signature) is True
        assert len(builds) == 2

    def test_threads_sharing_the_memo_get_the_right_verdicts(self):
        triples = VERDICT_TRIPLES + [(k, m, flip_bit(s)) for k, m, s in VERDICT_TRIPLES]
        expected = [_fresh_verdict(*triple) for triple in triples]
        wrong = []

        def worker(offset):
            for i in range(300):
                which = (offset + i) % len(triples)
                if i % 50 == 0:
                    ssisim.verdicts._verdict.cache_clear()
                if verify(*triples[which]) is not expected[which]:
                    wrong.append(which)

        run_in_threads(worker)
        assert wrong == []


class TestKeyBuildCounts:
    """The same key signing or opening envelopes again does not rebuild its key object,
    and the same signature checked again does no Ed25519 work."""

    class Counted:
        """Stands in for a key class in identity's namespace and counts its builds."""

        def __init__(self, real):
            self.real = real
            self.built = Counter()  # by the bytes a key was built from

        def from_private_bytes(self, data):
            self.built[bytes(data)] += 1
            return self.real.from_private_bytes(data)

        def from_public_bytes(self, data):
            self.built[bytes(data)] += 1
            return self.real.from_public_bytes(data)

    @pytest.fixture
    def builds(self, monkeypatch):
        """Counts of Ed25519 signing keys and X25519 keys built in identity and Ed25519
        verify keys built in verdicts, by the bytes built from; verify builds one verify
        key per Ed25519 check."""
        counted = {}
        # identity imports the X25519 class where it builds a key, from its module
        for owner, name in ((ssisim.identity, "Ed25519PrivateKey"),
                            (ssisim.verdicts, "Ed25519PublicKey"),
                            (x25519, "X25519PrivateKey")):
            counted[name] = self.Counted(getattr(owner, name))
            monkeypatch.setattr(owner, name, counted[name])
        # Start from an empty memo: keys other tests built would not be counted.
        for value in [*vars(ssisim.identity).values(), *vars(ssisim.verdicts).values()]:
            if hasattr(value, "cache_clear"):
                value.cache_clear()
        return {name: c.built for name, c in counted.items()}

    def test_one_issuer_builds_its_key_and_the_writers_once(self, ledger, operator, issuer,
                                                            holder, rng, clock, builds):
        schema = define_schema(issuer, "Counted", 1, ["a"], ledger)
        holder_did = derive_did(holder.public_key)
        credentials = [issue_credential(issuer, holder_did, schema, {"a": str(i)}, ledger,
                                        rng=rng) for i in range(20)]
        for credential in credentials[:5]:
            revoke_credential(issuer, credential.credential_id, ledger)
        # the issuer signs 46 times and the operator seals 26 blocks
        assert builds["Ed25519PrivateKey"] == {issuer.private_key: 1, operator.private_key: 1}

    def test_healthcare_builds_each_key_agreement_key_once(self, builds):
        run = run_scenario(HealthcareConfig())
        assert run.transcript.final_verdict == "accept"
        x25519 = builds["X25519PrivateKey"]
        # the operator and the three actors
        assert len(x25519) == 4
        assert set(x25519.values()) == {1}

    @pytest.mark.parametrize("forgeries", [10, 1000])
    def test_ca_compromise_builds_the_stolen_key_once(self, builds, monkeypatch, forgeries):
        # A forked helper would forge half the certificates where these counts cannot see it.
        monkeypatch.delattr(os, "fork")
        report = run_compromise_experiment(CompromiseConfig(scenario="ca", forgeries=forgeries))
        assert report.forged_accepted == forgeries
        # the same hierarchy and attacker again, from keys the run left in the memo
        rng = DeterministicRng(CompromiseConfig.seed)
        hierarchy = build_hierarchy(rng=rng)
        attacker = generate_keypair(rng.randbytes(32))
        # the root, the subordinate and the attacker, each built once, however many forgeries
        assert builds["Ed25519PrivateKey"] == {hierarchy.root.keypair.private_key: 1,
                                               hierarchy.subordinate.keypair.private_key: 1,
                                               attacker.private_key: 1}

    def test_ca_compromise_checks_the_stolen_keys_certificate_once(self, builds, monkeypatch):
        # A forked helper would check half the forgeries where these counts cannot see it.
        monkeypatch.delattr(os, "fork")
        report = run_compromise_experiment(CompromiseConfig(scenario="ca", forgeries=1000))
        assert report.forged_accepted == 1000
        hierarchy = build_hierarchy(rng=DeterministicRng(CompromiseConfig.seed))
        # every forgery is a new certificate under the stolen key; the stolen
        # key's own certificate is checked against the root's key once
        assert builds["Ed25519PublicKey"] == {hierarchy.subordinate.keypair.public_key: 1000,
                                              hierarchy.root.keypair.public_key: 1}

    def test_ledger_compromise_checks_each_signature_once(self, builds):
        report = run_compromise_experiment(CompromiseConfig(scenario="ledger", forgeries=100))
        assert report.forged_rejected == 100
        # 3 genesis writers, 3 victims' registrations and every forgery: none repeats
        assert sum(builds["Ed25519PublicKey"].values()) == 106

    def test_healthcare_checks_each_signature_once(self, builds):
        run = run_scenario(HealthcareConfig())
        assert run.transcript.final_verdict == "accept"
        # 10 checks, of which the verifier repeats 2 that the holder's agent made
        assert sum(builds["Ed25519PublicKey"].values()) == 8

    def test_verifying_a_presentation_again_does_no_ed25519_work(
            self, ledger, issuer, holder, rng, clock, builds, monkeypatch):
        schema = define_schema(issuer, "Counted", 1, ["a"], ledger)
        credential = issue_credential(issuer, derive_did(holder.public_key), schema,
                                      {"a": "1"}, ledger, rng=rng)
        presentation = create_presentation(credential, ["a"], b"\x07" * 32, holder)
        checks = []
        real_verify = ssisim.engine.verify
        monkeypatch.setattr(ssisim.engine, "verify",
                            lambda *args: checks.append(args) or real_verify(*args))
        verify_keys = builds["Ed25519PublicKey"]
        verify_keys.clear()
        assert verify_presentation(ledger, presentation, b"\x07" * 32).accepted
        # the issuer's and the holder's signatures; the registry checked the rest on append
        assert len(checks) == 2
        assert verify_keys == {issuer.public_key: 1, holder.public_key: 1}
        verify_keys.clear()
        assert verify_presentation(ledger, presentation, b"\x07" * 32).accepted
        # the issuer's and the holder's signatures are checked again, from the memo
        assert len(checks) == 4
        assert verify_keys == {}

