import json
import os
import random
from dataclasses import replace

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

import ssisim.ledger
from ssisim import cli, identity, verdicts
from ssisim.credentials import Credential, Presentation, RevealedAttribute, create_presentation
from ssisim.engine import define_schema, issue_credential
from ssisim.errors import (
    ClockExhausted,
    DuplicateSchema,
    EmptyBatch,
    EmptyWriterSet,
    FirstInvalid,
    InvalidTransaction,
    NotIssuer,
    NotPermissioned,
    ParseError,
    UnknownCredential,
    UnknownDid,
    UnknownSchema,
    UnknownTransition,
)
from ssisim.identity import (
    DidDocument,
    Envelope,
    derive_did,
    encrypt_for,
    generate_keypair,
    key_agreement_public,
    key_fingerprint,
    make_did_document,
    sign,
    verify,
)
from ssisim.ledger import (
    KINDS,
    AnchorCredential,
    GENESIS_PREV_HASH,
    ChainFault,
    CredentialSchema,
    CredentialStatus,
    DefineSchema,
    Ledger,
    LedgerBlock,
    LedgerMode,
    RegisterDid,
    Revoke,
    anchor_credential_payload,
    block_hash_for,
    build_block,
    make_schema,
    parse_transaction,
    revoke_payload,
    schema_is_well_formed,
    transactions_root,
)
from ssisim.merkle import PathStep
from ssisim.pki import CompromiseConfig, run_compromise_experiment
from ssisim.runtime import DeterministicRng, LogicalClock
from ssisim.scenarios import HealthcareConfig, run_scenario
from ssisim.serialization import canonical_json_bytes, parse_json

from conftest import (
    CHAIN_FAULTS,
    LONG_CHAIN_BLOCKS,
    flip_bit,
    hijacked_genesis_file,
    seeded_keypair,
    tampered,
    wait_until_ended,
    writer_jobs,
)


def signed_anchor(issuer, credential_id, root):
    issuer_did = derive_did(issuer.public_key)
    return AnchorCredential(
        credential_id=credential_id,
        issuer_did=issuer_did,
        commitment_root=root,
        submitter_signature=sign(issuer.private_key,
                                 anchor_credential_payload(credential_id, issuer_did, root)),
    )


def signed_revoke(actor, credential_id, issuer_did=None):
    issuer_did = issuer_did or derive_did(actor.public_key)
    return Revoke(
        credential_id=credential_id,
        issuer_did=issuer_did,
        submitter_signature=sign(actor.private_key, revoke_payload(credential_id, issuer_did)),
    )


class TestGenesis:
    def test_single_writer(self, operator, clock):
        led = Ledger.genesis([make_did_document(operator, created_at=clock.tick())], clock=clock)
        assert len(led.blocks) == 1
        block = led.blocks[0]
        assert block.index == 0
        assert block.prev_hash == b"\x00" * 32
        assert len(block.transactions) == 1

    def test_three_writers_three_registrations(self, clock):
        docs = [make_did_document(seeded_keypair(bytes([i]) * 3), created_at=clock.tick())
                for i in (1, 2, 3)]
        led = Ledger.genesis(docs, clock=clock)
        assert len(led.blocks[0].transactions) == 3
        assert len(led.writer_set) == 3

    def test_empty_writer_set_rejected(self):
        with pytest.raises(EmptyWriterSet):
            Ledger.genesis([])

    def test_writer_that_fails_self_certification_rejected(self, operator, clock):
        victim = seeded_keypair(b"victim")
        forged = replace(make_did_document(operator, created_at=clock.tick()),
                         did=derive_did(victim.public_key))
        with pytest.raises(FirstInvalid) as excinfo:
            Ledger.genesis([forged], clock=clock)
        assert (excinfo.value.index, excinfo.value.cause) == (0, "BadWriter")

    def test_determinism_under_fixed_clock(self, operator):
        def build():
            clock = LogicalClock(0)
            doc = make_did_document(operator, created_at=clock.tick())
            return Ledger.genesis([doc], clock=clock).to_bytes()

        assert build() == build()


class TestAppend:
    def test_valid_registration_extends_chain(self, ledger, operator, clock):
        newcomer = seeded_keypair(b"newcomer")
        before = len(ledger.blocks)
        ledger.append_block(
            [RegisterDid(make_did_document(newcomer, created_at=clock.tick()))], operator)
        assert len(ledger.blocks) == before + 1
        assert ledger.validate_chain().ok

    def test_non_writer_cannot_append(self, ledger, clock):
        outsider = seeded_keypair(b"outsider")
        before = ledger.to_bytes()
        with pytest.raises(NotPermissioned):
            ledger.append_block(
                [RegisterDid(make_did_document(outsider, created_at=clock.tick()))], outsider)
        assert ledger.to_bytes() == before

    def test_empty_batch_rejected(self, ledger, operator):
        with pytest.raises(EmptyBatch):
            ledger.append_block([], operator)

    def test_submit_without_a_writer_key_is_refused(self, operator, clock):
        led = Ledger.genesis([make_did_document(operator, created_at=clock.tick())], clock=clock)
        newcomer = make_did_document(seeded_keypair(b"newcomer"), created_at=clock.tick())
        with pytest.raises(NotPermissioned):
            led.submit([RegisterDid(newcomer)])
        assert len(led.blocks) == 1

    def test_an_object_of_no_known_kind_is_refused_and_leaves_nothing_indexed(
            self, ledger, operator, clock):
        newcomer = make_did_document(seeded_keypair(b"newcomer"), created_at=clock.tick())
        before = len(ledger.blocks), ledger._index().size
        with pytest.raises(InvalidTransaction) as excinfo:
            ledger.append_block([RegisterDid(newcomer), object()], operator)
        assert (excinfo.value.index, excinfo.value.cause) == (
            1, "unknown transaction type object")
        assert (len(ledger.blocks), ledger._index().size) == before
        with pytest.raises(UnknownDid):
            ledger.resolve_did(newcomer.did)

    def test_non_writer_cannot_append_unchecked(self, ledger, clock):
        outsider = seeded_keypair(b"outsider")
        before = ledger.to_bytes()
        with pytest.raises(NotPermissioned):
            ledger.append_unchecked(
                [RegisterDid(make_did_document(outsider, created_at=clock.tick()))], outsider)
        assert ledger.to_bytes() == before

    def test_unchecked_append_seals_what_a_checked_one_refuses(self, ledger, operator, issuer,
                                                              clock):
        forged = replace(make_did_document(seeded_keypair(b"impostor"), created_at=clock.tick()),
                         did=derive_did(issuer.public_key))
        block = ledger.append_unchecked([RegisterDid(forged)], operator)
        assert ledger.blocks[-1] is block
        assert block.writer_did == derive_did(operator.public_key)
        assert ledger.validate_chain().ok
        assert ledger.resolve_did(forged.did).verification_key == issuer.public_key

    def test_exhausted_clock_leaves_no_staged_transaction(self, operator):
        led = Ledger.genesis([make_did_document(operator)], clock=LogicalClock(2**64 - 2))
        led = Ledger.from_bytes(led.to_bytes())  # its clock is at 2^64-1 and cannot tick
        led.attach_writer(operator)
        newcomer = make_did_document(seeded_keypair(b"newcomer"))
        with pytest.raises(ClockExhausted):
            led.submit([RegisterDid(newcomer)])
        assert len(led.blocks) == 1
        with pytest.raises(UnknownDid):
            led.resolve_did(newcomer.did)

    def test_revoke_by_wrong_issuer_rejected(self, ledger, operator, issuer, holder):
        anchor = signed_anchor(issuer, b"\x01" * 32, b"\x02" * 32)
        ledger.submit([anchor])
        with pytest.raises(InvalidTransaction) as excinfo:
            ledger.submit([signed_revoke(holder, b"\x01" * 32)])
        assert "issuer" in excinfo.value.cause
        assert ledger.credential_status(b"\x01" * 32) is CredentialStatus.ACTIVE

    def test_reregistration_with_new_key_rejected(self, ledger, issuer, clock):
        impostor = seeded_keypair(b"impostor")
        issuer_did = derive_did(issuer.public_key)
        doc = make_did_document(impostor, created_at=clock.tick())
        forged = replace(doc, did=issuer_did)
        with pytest.raises(InvalidTransaction):
            ledger.submit([RegisterDid(forged)])

    def test_duplicate_anchor_rejected(self, ledger, issuer):
        ledger.submit([signed_anchor(issuer, b"\x03" * 32, b"\x04" * 32)])
        with pytest.raises(InvalidTransaction) as excinfo:
            ledger.submit([signed_anchor(issuer, b"\x03" * 32, b"\x04" * 32)])
        assert excinfo.value.cause == "duplicate anchor"

    def test_append_only_prefix_is_stable(self, ledger, operator, issuer, clock):
        prefix = [b.block_hash for b in ledger.blocks]
        ledger.submit([signed_anchor(issuer, b"\x05" * 32, b"\x06" * 32)])
        assert [b.block_hash for b in ledger.blocks[: len(prefix)]] == prefix

    def test_refused_batches_leave_the_index_as_they_found_it(self, ledger, issuer, clock):
        anchored = [signed_anchor(issuer, batch_credential_id(i), b"\x07" * 32) for i in range(3)]
        ledger.submit(anchored)
        issuer_did = derive_did(issuer.public_key)
        schemas = [DefineSchema(schema=make_schema(issuer_did, "S", version, ["x"]),
                                submitter_signature=b"") for version in (1, 2, 3)]
        batches = [
            [signed_anchor(issuer, batch_credential_id(i), b"\x07" * 32) for i in range(3, 103)],
            [signed_revoke(issuer, tx.credential_id) for tx in anchored],
            [replace(tx, submitter_signature=sign(issuer.private_key, tx.signing_payload()))
             for tx in schemas],
            [RegisterDid(make_did_document(seeded_keypair(b"newcomer%d" % i),
                                           created_at=clock.tick())) for i in range(3)],
        ]

        def index():
            state = ledger._index()
            return {name: {key: list(entries) for key, entries in getattr(state, name).items()}
                    for name in ("documents", "schemas", "anchors", "revokes")}

        before = index()
        for batch in batches:
            with pytest.raises(InvalidTransaction) as excinfo:
                ledger.submit([*batch, anchored[0]])
            assert excinfo.value.cause == "duplicate anchor"
            assert index() == before


def signed_schema(issuer):
    unsigned = DefineSchema(schema=make_schema(derive_did(issuer.public_key), "S", 1, ["x"]),
                            submitter_signature=b"")
    return replace(unsigned, submitter_signature=sign(issuer.private_key,
                                                      unsigned.signing_payload()))


class TestTypedRefusals:
    """Each registry rule lives in its kind's rule(); append_block raises its refusal type."""

    ISSUER, HOLDER = seeded_keypair(b"issuer"), seeded_keypair(b"holder")  # as `ledger` has
    CID = b"\x0c" * 32
    ANCHOR = signed_anchor(ISSUER, CID, b"\x01" * 32)
    # (submitted first, the refused transaction, its refusal type, its cause)
    RULES = {
        "duplicate schema": ([signed_schema(ISSUER)], signed_schema(ISSUER),
                             DuplicateSchema, "duplicate schema"),
        "unknown credential": ([], signed_revoke(ISSUER, CID),
                               UnknownCredential, "unknown credential"),
        "foreign issuer": ([ANCHOR], signed_revoke(HOLDER, CID),
                           NotIssuer, "revoker is not the anchoring issuer"),
        "second revoke": ([ANCHOR, signed_revoke(ISSUER, CID)], signed_revoke(ISSUER, CID),
                          UnknownTransition, "already revoked"),
    }

    @staticmethod
    def snapshot(ledger):
        """The chain bytes, the clock and every index list, to compare after a refusal."""
        state = ledger._index()
        return (ledger.to_bytes(), ledger.clock.value, state.size,
                {name: {key: list(entries) for key, entries in getattr(state, name).items()}
                 for name in ("documents", "schemas", "anchors", "revokes")})

    @pytest.mark.parametrize("via", ["append_block", "submit"])
    @pytest.mark.parametrize("staged", [0, 2])
    @pytest.mark.parametrize("rule", RULES)
    def test_a_broken_rule_raises_its_type(self, ledger, operator, rule, staged, via):
        submitted, refused, error, cause = self.RULES[rule]
        for tx in submitted:
            ledger.submit([tx])
        before = self.snapshot(ledger)
        batch = [signed_anchor(self.ISSUER, batch_credential_id(i), b"\x07" * 32)
                 for i in range(staged)] + [refused]
        append = (ledger.submit if via == "submit"
                  else lambda txs: ledger.append_block(txs, operator))
        with pytest.raises(InvalidTransaction) as excinfo:
            append(batch)
        assert type(excinfo.value) is error
        assert (excinfo.value.index, excinfo.value.cause) == (staged, cause)
        assert str(excinfo.value) == f"transaction {staged}: {cause}"
        assert self.snapshot(ledger) == before

    def test_other_refusals_stay_plain(self, ledger):
        schema = signed_schema(self.ISSUER)
        ledger.submit([self.ANCHOR, schema])
        refused = [
            (self.ANCHOR, "duplicate anchor"),
            (signed_revoke(seeded_keypair(b"stranger"), self.CID), "unknown submitter DID"),
            # a bad signature outranks the rule its transaction also breaks
            (replace(schema, submitter_signature=flip_bit(schema.submitter_signature)),
             "bad submitter signature"),
        ]
        for tx, cause in refused:
            with pytest.raises(InvalidTransaction) as excinfo:
                ledger.submit([tx])
            assert type(excinfo.value) is InvalidTransaction
            assert (excinfo.value.index, excinfo.value.cause) == (0, cause)


class TestValidateChain:
    def build_chain(self, n_extra=4):
        clock = LogicalClock(0)
        operator = seeded_keypair(b"operator")
        issuer = seeded_keypair(b"issuer")
        led = Ledger.genesis([make_did_document(operator, created_at=clock.tick())], clock=clock)
        led.attach_writer(operator)
        led.submit([RegisterDid(make_did_document(issuer, created_at=clock.tick()))])
        for i in range(n_extra - 1):
            led.submit([signed_anchor(issuer, bytes([i + 1]) * 32, bytes([i + 2]) * 32)])
        return led, operator, issuer

    def test_fresh_chain_is_ok(self):
        led, _, _ = self.build_chain(4)
        assert len(led.blocks) == 5
        assert led.validate_chain().ok

    def test_tampered_transaction_detected_at_its_block(self):
        led, _, issuer = self.build_chain(4)
        block = led.blocks[2]
        tx = block.transactions[0]
        tampered_tx = replace(tx, commitment_root=b"\xff" * 32)
        led.blocks[2] = replace(block, transactions=(tampered_tx,))
        report = led.validate_chain()
        assert not report.ok
        assert (report.index, report.cause) == (2, ChainFault.HASH_MISMATCH)

    def test_substituted_writer_signature_detected(self):
        led, _, _ = self.build_chain(4)
        stranger = seeded_keypair(b"stranger")
        block = led.blocks[3]
        led.blocks[3] = replace(
            block, writer_signature=sign(stranger.private_key, block.block_hash))
        report = led.validate_chain()
        assert not report.ok
        assert (report.index, report.cause) == (3, ChainFault.BAD_SIGNATURE)

    def test_foreign_writer_did_detected(self):
        led, _, _ = self.build_chain(4)
        stranger = seeded_keypair(b"stranger")
        block = led.blocks[3]
        led.blocks[3] = replace(block, writer_did=derive_did(stranger.public_key))
        report = led.validate_chain()
        assert not report.ok
        assert (report.index, report.cause) == (3, ChainFault.BAD_WRITER)

    def test_broken_link_detected(self):
        led, _, _ = self.build_chain(4)
        block = led.blocks[2]
        # keep the block internally consistent but point it at the wrong parent
        from ssisim.ledger import build_block

        led.blocks[2] = build_block(
            index=block.index, prev_hash=b"\x42" * 32, timestamp=block.timestamp,
            txs=block.transactions, writer_did=block.writer_did,
            writer_signature=block.writer_signature,
        )
        report = led.validate_chain()
        assert not report.ok
        assert (report.index, report.cause) == (2, ChainFault.LINK_BROKEN)

    def test_a_block_resealed_at_another_index_breaks_the_link(self):
        # The healthcare ledger's last block, re-sealed by its own writer at index + 5:
        # its hash, its link to its parent and its writer signature all verify.
        led = run_scenario(HealthcareConfig()).ledger
        last = led.blocks[-1]
        resealed = build_block(last.index + 5, last.prev_hash, last.timestamp,
                               last.transactions, last.writer_did, None,
                               led._operator.private_key)
        forged = Ledger([*led.blocks[:-1], resealed], led.mode, LogicalClock(0))
        report = forged.validate_chain()
        assert (report.index, report.cause) == (last.index, ChainFault.LINK_BROKEN)
        with pytest.raises(FirstInvalid) as excinfo:
            Ledger.from_bytes(forged.to_bytes())
        assert (excinfo.value.index, excinfo.value.cause) == (last.index, "LinkBroken")


class TestParallelChainCheck:
    """With a helper verifying part of the writer signatures, the report is still the serial one."""

    def test_long_chain_is_ok(self, long_chain, two_cpus):
        assert long_chain.validate_chain().ok
        assert len(two_cpus) == 1

    @pytest.mark.parametrize("signatures, roots, expected", CHAIN_FAULTS)
    def test_first_fault_in_chain_order_wins(self, long_chain, two_cpus, monkeypatch,
                                             signatures, roots, expected):
        led = tampered(long_chain, signatures, roots)
        report = led.validate_chain()
        assert (report.ok, report.index, report.cause) == (False, *expected)
        assert len(two_cpus) == 1
        monkeypatch.delattr(os, "fork")
        assert led.validate_chain() == report

    @pytest.mark.parametrize("signatures, roots, expected", CHAIN_FAULTS)
    def test_faults_are_found_with_every_clean_verdict_memoized(self, long_chain, two_cpus,
                                                                monkeypatch, signatures,
                                                                roots, expected):
        with monkeypatch.context() as serial:
            serial.delattr(os, "fork")
            assert long_chain.validate_chain().ok
            before = verdicts._verdict.cache_info()
            assert long_chain.validate_chain().ok
            after = verdicts._verdict.cache_info()
            # 399 writer signatures and the genesis writer's self-certification
            assert (after.hits - before.hits, after.misses) == (LONG_CHAIN_BLOCKS, before.misses)
        led = tampered(long_chain, signatures, roots)
        report = led.validate_chain()
        assert (report.ok, report.index, report.cause) == (False, *expected)
        assert len(two_cpus) == 1
        monkeypatch.delattr(os, "fork")
        assert led.validate_chain() == report


def garbled(jobs: list, at: int) -> list:
    key, message, signature = jobs[at]
    return jobs[:at] + [(key, message, flip_bit(signature))] + jobs[at + 1:]


class TestStartedChainCheck:
    """A check started on a guess at the writer-signature jobs lends validate_chain only the
    verdicts of jobs equal to its own, so no guess and no helper fault moves the report."""

    GUESSES = {
        "exact": lambda jobs: jobs,
        "shifted": lambda jobs: jobs[1:] + jobs[:1],
        "truncated": lambda jobs: jobs[:300],
        "garbled": lambda jobs: garbled(jobs, 150),
        "longer": lambda jobs: jobs + jobs[:5],
        "empty": lambda jobs: [],
    }

    @staticmethod
    def serial(led, monkeypatch):
        with monkeypatch.context() as serial:
            serial.delattr(os, "fork")
            return led.validate_chain()

    @pytest.mark.parametrize("guess", GUESSES)
    @pytest.mark.parametrize("signatures, roots, expected", CHAIN_FAULTS)
    def test_a_wrong_guess_changes_no_verdict(self, long_chain, two_cpus, monkeypatch, guess,
                                              signatures, roots, expected):
        led = tampered(long_chain, signatures, roots)
        report = led.validate_chain(verdicts.start_verify(self.GUESSES[guess](writer_jobs(led))))
        assert (report.ok, report.index, report.cause) == (False, *expected)
        assert len(two_cpus) == (guess != "empty")
        assert self.serial(led, monkeypatch) == report

    @pytest.mark.parametrize("guess", GUESSES)
    def test_a_wrong_guess_keeps_a_valid_chain_valid(self, long_chain, two_cpus, guess):
        assert long_chain.validate_chain(
            verdicts.start_verify(self.GUESSES[guess](writer_jobs(long_chain)))).ok

    @pytest.mark.parametrize("failure", ["writes a 2", "raises", "exits 0 early"])
    @pytest.mark.parametrize("signatures, roots, expected", CHAIN_FAULTS)
    def test_a_failing_helper_changes_no_verdict(self, long_chain, two_cpus, monkeypatch, failure,
                                                 signatures, roots, expected):
        led = tampered(long_chain, signatures, roots)
        parent, real, calls = os.getpid(), verdicts._verdicts, []

        def helper_verdicts(jobs):  # the helper fails from its 100th call on
            calls.append(jobs)
            if len(calls) >= 100 and os.getpid() != parent:
                if failure == "writes a 2":  # a 2 for every job from there on
                    return b"\x02"
                if failure == "raises":  # a well-formed wrong answer, then it raises
                    if len(calls) > 100:
                        raise OSError("helper failed")
                    return bytes([1 - real(jobs)[0]])
                os._exit(0)
            return real(jobs)

        with monkeypatch.context() as patched:
            patched.setattr(verdicts, "_verdicts", helper_verdicts)
            started = verdicts.start_verify(writer_jobs(led))
            wait_until_ended(two_cpus[0])  # so the fault is in the page before the join
        report = led.validate_chain(started)
        assert (report.ok, report.index, report.cause) == (False, *expected)
        assert self.serial(led, monkeypatch) == report


# The faults the oracle plants, each in one block after genesis: a flipped writer
# signature or tx root, a link to another parent under a hash and a writer signature
# that match it, or a writer DID outside the writer set.
PLANTED_FAULTS = ["signature", "root", "link", "writer"]


def planted(ledger, faults: dict) -> Ledger:
    """A copy of ledger, whose one writer is the operator, with faults[i] planted in block i."""
    operator, stranger = seeded_keypair(b"operator"), seeded_keypair(b"stranger")
    blocks = list(ledger.blocks)
    for i, fault in faults.items():
        block = blocks[i]
        if fault == "signature":
            blocks[i] = replace(block, writer_signature=flip_bit(block.writer_signature))
        elif fault == "root":
            blocks[i] = replace(block, tx_root=flip_bit(block.tx_root))
        elif fault == "link":
            blocks[i] = build_block(block.index, flip_bit(block.prev_hash), block.timestamp,
                                    block.transactions, block.writer_did, None,
                                    operator.private_key)
        else:
            blocks[i] = replace(block, writer_did=derive_did(stranger.public_key))
    return Ledger(blocks, ledger.mode, LogicalClock(0))


def serial_check(ledger) -> tuple | None:
    """(index, cause) of the first faulty block, as a walk in chain order finds it that
    checks each block in full, its writer signature included; None if all are valid."""
    prev_hash = GENESIS_PREV_HASH
    for i, block in enumerate(ledger.blocks):
        if (transactions_root(block.transactions) != block.tx_root
                or block_hash_for(block.index, block.prev_hash, block.timestamp,
                                  block.tx_root) != block.block_hash):
            return i, "HashMismatch"
        if block.index != i or block.prev_hash != prev_hash:
            return i, "LinkBroken"
        key = ledger.writer_set.get(block.writer_did)
        if key is None:
            return i, "BadWriter"
        if i == 0:
            if block.writer_signature != bytes(64):
                return i, "BadSignature"
            if not all(tx.document.verify_self() for tx in block.transactions):
                return i, "BadWriter"
        elif not verify(key, block.block_hash, block.writer_signature):
            return i, "BadSignature"
        prev_hash = block.block_hash
    return None


class TestSerialChainOracle:
    """validate_chain reports the fault a serial walk finds first, whatever faults are
    planted in the long chain: on two CPUs, with no fork, and joining a started check."""

    @staticmethod
    def report(verdict) -> tuple | None:
        return None if verdict.ok else (verdict.index, verdict.cause.value)

    @settings(max_examples=20, deadline=None,
              suppress_health_check=[HealthCheck.function_scoped_fixture])
    @given(faults=st.dictionaries(st.integers(1, LONG_CHAIN_BLOCKS - 1),
                                  st.sampled_from(PLANTED_FAULTS), max_size=4))
    def test_the_chain_check_matches_a_serial_walk(self, long_chain, two_cpus, monkeypatch,
                                                   faults):
        led = planted(long_chain, faults)
        expected = serial_check(led)
        built, real = [], ssisim.ledger.verify_each
        with monkeypatch.context() as patched:
            patched.setattr(ssisim.ledger, "verify_each",
                            lambda jobs: built.append(jobs) or real(jobs))
            assert self.report(led.validate_chain()) == expected
        assert len(built) == 1
        # writer_jobs reads each block's writer key, so it stops before a foreign writer
        known = min((i for i, fault in faults.items() if fault == "writer"),
                    default=len(led.blocks))
        known_jobs = writer_jobs(Ledger(led.blocks[:known], led.mode, LogicalClock(0)))
        started = verdicts.start_verify(known_jobs)
        assert self.report(led.validate_chain(started)) == expected
        with monkeypatch.context() as serial:
            serial.delattr(os, "fork")
            assert self.report(led.validate_chain()) == expected
        # The CLI's guess reads no writer key it does not know: it ends before the first
        # foreign writer, and it begins with the jobs the walk builds.
        guess = cli._guess_writer_jobs(json.loads(led.to_bytes()))
        assert guess == known_jobs
        assert guess[:len(built[0])] == built[0]


# A batch long enough that its append splits the submitter signatures between this
# process and a forked helper, and faults planted in it: (anchors whose signature is
# tampered, anchors an unregistered DID submits, anchors of the first anchor's
# credential again) -> the (index, cause) that a serial check, taking each
# transaction in full and in batch order, reports first.
BATCH_SIZE = 400
# (bad signatures, unknown submitters, duplicate anchors, registrations whose key has
# the wrong length, the refusal). Such a registration can only be built in code; its
# check raises ParseError, which a bad signature before it must still beat.
BATCH_FAULTS = [
    ((4,), (), (), (), (4, "bad submitter signature")),
    ((280,), (), (), (), (280, "bad submitter signature")),
    ((396,), (), (), (), (396, "bad submitter signature")),
    ((4, 396), (), (), (), (4, "bad submitter signature")),
    ((100,), (350,), (), (), (100, "bad submitter signature")),
    ((350,), (), (300,), (), (300, "duplicate anchor")),
    ((300,), (), (300,), (), (300, "bad submitter signature")),
    ((100,), (), (), (350,), (100, "bad submitter signature")),
    ((), (), (), (350,), ParseError),
]


def batch_credential_id(i):
    return i.to_bytes(2, "big") * 16


@pytest.fixture(scope="module")
def anchor_batch():
    """BATCH_SIZE valid anchors by the issuer that the ledger fixture registers."""
    issuer = seeded_keypair(b"issuer")
    return [signed_anchor(issuer, batch_credential_id(i), b"\x07" * 32)
            for i in range(BATCH_SIZE)]


def faulty_batch(batch, signatures=(), strangers=(), duplicates=(), malformed=()):
    txs = list(batch)
    for i in malformed:
        doc = make_did_document(seeded_keypair(b"newcomer"))
        txs[i] = RegisterDid(document=replace(doc, verification_key=doc.verification_key[:31]))
    for i in strangers:
        txs[i] = signed_anchor(seeded_keypair(b"stranger"), batch_credential_id(i), b"\x07" * 32)
    for i in duplicates:
        txs[i] = signed_anchor(seeded_keypair(b"issuer"), batch_credential_id(0), b"\x08" * 32)
    for i in signatures:
        txs[i] = replace(txs[i], submitter_signature=flip_bit(txs[i].submitter_signature))
    return txs


class TestParallelBatchCheck:
    """With a helper verifying part of a batch's signatures, the refusal is the serial one."""

    @staticmethod
    def observed(led, batch):
        """The blocks, the index size and every read that the batch could move."""
        keys = [seeded_keypair(tag) for tag in (b"operator", b"issuer", b"holder", b"stranger")]
        documents = []
        for key in keys:
            try:
                documents.append(led.resolve_did(derive_did(key.public_key)))
            except UnknownDid:
                documents.append(None)
        owners = [led.registry().key_agreement_did(
            key_fingerprint(key_agreement_public(key.private_key))) for key in keys]
        return (list(led.blocks), led._state.size, documents, owners,
                [led.credential_status(tx.credential_id) for tx in batch],
                [led.credential_anchor(tx.credential_id) for tx in batch])

    @staticmethod
    def refusal(led, txs):
        """(index, cause) of the InvalidTransaction refusing txs, or the type of a ParseError."""
        try:
            led.submit(txs)
        except InvalidTransaction as exc:
            return exc.index, exc.cause
        except ParseError as exc:
            return type(exc)
        pytest.fail("the faulty batch was sealed")

    @pytest.mark.parametrize("signatures, strangers, duplicates, malformed, expected",
                             BATCH_FAULTS)
    def test_first_fault_in_batch_order_wins(self, ledger, anchor_batch, two_cpus, monkeypatch,
                                             signatures, strangers, duplicates, malformed,
                                             expected):
        txs = faulty_batch(anchor_batch, signatures, strangers, duplicates, malformed)
        before = self.observed(ledger, anchor_batch)
        assert self.refusal(ledger, txs) == expected
        assert len(two_cpus) == 1
        assert self.observed(ledger, anchor_batch) == before
        monkeypatch.delattr(os, "fork")
        assert self.refusal(ledger, txs) == expected
        assert self.observed(ledger, anchor_batch) == before
        ledger.submit(anchor_batch)
        assert all(ledger.credential_status(tx.credential_id) is CredentialStatus.ACTIVE
                   for tx in anchor_batch)


class BatchModel:
    """A serial replay of checked appends: each transaction in full, in order, all or nothing."""

    def __init__(self):
        self.keys = {}  # did str -> the key of its first self-certified registration
        self.schemas = set()
        self.anchors = {}  # credential id -> issuer DID
        self.revoked = set()

    def append(self, txs):
        """The (index, cause) of the first invalid transaction, or None once all are applied."""
        keys, schemas = dict(self.keys), set(self.schemas)
        anchors, revoked = dict(self.anchors), set(self.revoked)
        for i, tx in enumerate(txs):
            if isinstance(tx, RegisterDid):
                if not tx.document.verify_self():
                    return i, "self-certification failed"
                keys.setdefault(str(tx.document.did), tx.document.verification_key)
                continue
            if isinstance(tx, DefineSchema) and not schema_is_well_formed(tx.schema):
                return i, "malformed schema"
            key = keys.get(str(tx.issuer_did))
            if key is None:
                return i, "unknown submitter DID"
            if not verify(key, tx.signing_payload(), tx.submitter_signature):
                return i, "bad submitter signature"
            if isinstance(tx, DefineSchema):
                if tx.schema.schema_id in schemas:
                    return i, "duplicate schema"
                schemas.add(tx.schema.schema_id)
            elif isinstance(tx, AnchorCredential):
                if tx.credential_id in anchors:
                    return i, "duplicate anchor"
                anchors[tx.credential_id] = tx.issuer_did
            elif tx.credential_id not in anchors:
                return i, "unknown credential"
            elif anchors[tx.credential_id] != tx.issuer_did:
                return i, "revoker is not the anchoring issuer"
            elif tx.credential_id in revoked:
                return i, "already revoked"
            else:
                revoked.add(tx.credential_id)
        self.keys, self.schemas, self.anchors, self.revoked = keys, schemas, anchors, revoked
        return None


# Valid anchors and revokes come twice, so that batches more often reach the revoke rules.
BATCH_OPS = ["register", "forged_register", "register_then_anchor", "anchor", "anchor",
             "forged_anchor", "anchor_then_revoke", "anchor_then_revoke", "revoke", "revoke",
             "forged_revoke", "schema", "malformed_schema"]


class TestBatchReference:
    """append_block seals or refuses a small batch exactly as a serial checker does."""

    OPERATOR, ISSUER, HOLDER, NEWCOMER, FORGER = (
        seeded_keypair(tag) for tag in (b"operator", b"issuer", b"holder", b"newcomer", b"forger"))

    def transactions(self, op, actor, target, cids, clock):
        """The transactions of one op; target 0 is a fresh credential id, 1 the latest one."""
        did = derive_did(actor.public_key)
        if target == 0 or op == "anchor_then_revoke":
            cids.append(len(cids).to_bytes(32, "big"))
        cid = cids[-1]
        if op in ("register", "forged_register", "register_then_anchor"):
            doc = make_did_document(actor, created_at=clock.tick())
            if op == "forged_register":
                doc = replace(doc, controller_signature=sign(self.FORGER.private_key,
                                                             doc.signing_payload()))
            txs = [RegisterDid(doc)]
            if op == "register_then_anchor":
                txs.append(signed_anchor(actor, cid, b"\x09" * 32))
            return txs
        signer = self.FORGER if op.startswith("forged") else actor
        if op in ("schema", "malformed_schema"):
            schema = make_schema(did, "S", 1 + target, ["x", "y"])
            if op == "malformed_schema":
                schema = replace(schema, attribute_names=schema.attribute_names[::-1])
            unsigned = DefineSchema(schema=schema, submitter_signature=b"")
            return [replace(unsigned, submitter_signature=sign(signer.private_key,
                                                               unsigned.signing_payload()))]
        anchor = AnchorCredential(
            credential_id=cid, issuer_did=did, commitment_root=b"\x09" * 32,
            submitter_signature=sign(signer.private_key,
                                     anchor_credential_payload(cid, did, b"\x09" * 32)))
        revoke = Revoke(credential_id=cid, issuer_did=did,
                        submitter_signature=sign(signer.private_key, revoke_payload(cid, did)))
        return {"anchor": [anchor], "forged_anchor": [anchor],
                "anchor_then_revoke": [anchor, revoke],
                "revoke": [revoke], "forged_revoke": [revoke]}[op]

    @settings(max_examples=100, deadline=None)
    @given(batches=st.lists(st.lists(st.tuples(st.sampled_from(BATCH_OPS), st.integers(0, 2),
                                               st.integers(0, 1)), min_size=1, max_size=8),
                            min_size=1, max_size=3))
    def test_outcome_matches_a_serial_check(self, batches):
        clock = LogicalClock(0)
        led = Ledger.genesis([make_did_document(self.OPERATOR, created_at=clock.tick())],
                             clock=clock)
        model = BatchModel()
        cids = []
        # The issuer has registered and anchored one credential, and the holder has
        # registered; the newcomer has not.
        base = [*self.transactions("register_then_anchor", self.ISSUER, 0, cids, clock),
                *self.transactions("register", self.HOLDER, 1, cids, clock)]
        assert model.append(base) is None
        led.append_block(base, self.OPERATOR)
        for ops in batches:
            txs = [tx for op, who, target in ops
                   for tx in self.transactions(
                       op, (self.ISSUER, self.HOLDER, self.NEWCOMER)[who], target, cids,
                       clock)][:8]
            height = len(led.blocks)
            try:
                outcome = led.append_block(txs, self.OPERATOR).transactions
            except InvalidTransaction as exc:
                outcome = (exc.index, exc.cause)
            assert outcome == (model.append(txs) or tuple(txs))
            assert len(led.blocks) == height + (outcome == tuple(txs))


class TestReads:
    def test_resolve_registered(self, ledger, issuer):
        doc = ledger.resolve_did(derive_did(issuer.public_key))
        assert doc.verification_key == issuer.public_key

    def test_resolve_unknown(self, ledger):
        from ssisim.errors import UnknownDid

        with pytest.raises(UnknownDid):
            ledger.resolve_did(derive_did(seeded_keypair(b"ghost").public_key))

    def test_reregistration_latest_wins(self, ledger, issuer, clock):
        issuer_did = derive_did(issuer.public_key)
        updated = make_did_document(
            issuer, (("agent", "https://new.example/agent"),), created_at=clock.tick())
        ledger.submit([RegisterDid(updated)])
        assert ledger.resolve_did(issuer_did).service_endpoints == updated.service_endpoints
        # replay oracle: last valid registration in transaction order wins
        last = None
        for block in ledger.blocks:
            for tx in block.transactions:
                if isinstance(tx, RegisterDid) and tx.document.did == issuer_did:
                    last = tx.document
        assert ledger.resolve_did(issuer_did) == last

    def test_schema_lookup_preserves_definition_order(self, ledger, issuer):
        schema = define_schema(issuer, "PatientID", 1, ["name", "dob", "patient_number"], ledger)
        found = ledger.lookup_schema(schema.schema_id)
        assert found.attribute_names == schema.attribute_names

    def test_unknown_schema(self, ledger):
        from ssisim.errors import UnknownSchema

        with pytest.raises(UnknownSchema):
            ledger.lookup_schema(b"\x00" * 32)

    def test_same_name_different_issuers_have_distinct_ids(self, ledger, issuer, holder):
        a = define_schema(issuer, "Badge", 1, ["level"], ledger)
        b = define_schema(holder, "Badge", 1, ["level"], ledger)
        assert a.schema_id != b.schema_id
        assert ledger.lookup_schema(a.schema_id).issuer_did == derive_did(issuer.public_key)
        assert ledger.lookup_schema(b.schema_id).issuer_did == derive_did(holder.public_key)

    def test_credential_status_lifecycle(self, ledger, issuer):
        cid = b"\x0c" * 32
        assert ledger.credential_status(cid) is CredentialStatus.UNKNOWN
        ledger.submit([signed_anchor(issuer, cid, b"\x0d" * 32)])
        assert ledger.credential_status(cid) is CredentialStatus.ACTIVE
        ledger.submit([signed_revoke(issuer, cid)])
        assert ledger.credential_status(cid) is CredentialStatus.REVOKED

    def test_revoked_is_terminal(self, ledger, issuer):
        cid = b"\x0e" * 32
        ledger.submit([signed_anchor(issuer, cid, b"\x0f" * 32)])
        ledger.submit([signed_revoke(issuer, cid)])
        with pytest.raises(InvalidTransaction):
            ledger.submit([signed_revoke(issuer, cid)])
        assert ledger.credential_status(cid) is CredentialStatus.REVOKED


class TestPrivateMode:
    def test_reads_gated_behind_writer_membership(self, operator, clock):
        doc = make_did_document(operator, created_at=clock.tick())
        led = Ledger.genesis([doc], mode=LedgerMode.PRIVATE_PERMISSIONED, clock=clock)
        with pytest.raises(NotPermissioned):
            led.resolve_did(doc.did)
        with pytest.raises(NotPermissioned):
            led.resolve_did(doc.did, reader_did=derive_did(seeded_keypair(b"zz").public_key))
        assert led.resolve_did(doc.did, reader_did=doc.did).did == doc.did

    def test_public_mode_reads_are_open(self, ledger, issuer):
        assert ledger.resolve_did(derive_did(issuer.public_key), reader_did=None)


class TestSerialization:
    def test_export_import_is_byte_identical(self, ledger):
        data = ledger.to_bytes()
        assert Ledger.from_bytes(data).to_bytes() == data

    def test_import_validates_the_chain(self, ledger):
        data = bytearray(ledger.to_bytes())
        # flip one hex digit inside the genesis block_hash value
        needle = b'"block_hash":"'
        pos = data.find(needle) + len(needle)
        data[pos] = ord("0") if data[pos] != ord("0") else ord("1")
        with pytest.raises(FirstInvalid):
            Ledger.from_bytes(bytes(data))

    def test_import_of_empty_file_is_a_parse_error(self):
        with pytest.raises(ParseError):
            Ledger.from_bytes(b"")

    def test_import_of_wrong_mode_is_a_parse_error(self, ledger):
        data = ledger.to_bytes().replace(b"public-permissioned", b"pudlic-permissioned")
        with pytest.raises(ParseError):
            Ledger.from_bytes(data)

    @pytest.mark.parametrize("other", ["a longer file", "one digit changed"])
    def test_a_parse_of_other_bytes_is_refused(self, ledger, operator, other):
        data = ledger.to_bytes()
        if other == "a longer file":
            longer = Ledger.from_bytes(data)
            longer.append_unchecked([RegisterDid(make_did_document(operator))], operator)
            other_bytes = longer.to_bytes()
        else:  # the same length, so only the bytes can tell the two apart
            at = data.index(b'"writer_signature":"', data.index(b'"index":1')) + 20
            other_bytes = data[:at] + (b"1" if data[at:at + 1] == b"0" else b"0") + data[at + 1:]
        for parsed in (json.loads(other_bytes), parse_json(other_bytes)):
            with pytest.raises(ParseError, match="^not canonical JSON: differs from its "
                                                 "canonical form at byte "):
                Ledger.from_bytes(data, parsed)
        assert Ledger.from_bytes(data, json.loads(data)).to_bytes() == data

    def test_writer_set_is_rebuilt_from_genesis(self, ledger):
        imported = Ledger.from_bytes(ledger.to_bytes())
        assert imported.writer_set == ledger.writer_set

    def test_genesis_writer_under_a_foreign_key_is_refused(self):
        with pytest.raises(FirstInvalid) as excinfo:
            Ledger.from_bytes(hijacked_genesis_file())
        assert (excinfo.value.index, excinfo.value.cause) == (0, "BadWriter")

    def test_imported_ledger_answers_reads(self, ledger, issuer):
        imported = Ledger.from_bytes(ledger.to_bytes())
        did = derive_did(issuer.public_key)
        assert imported.resolve_did(did) == ledger.resolve_did(did)

    def test_randomized_export_import_roundtrips(self):
        import random

        rnd = random.Random(7)
        rng = DeterministicRng(b"roundtrip".ljust(32, b"\x00"))
        for _ in range(10):
            clock = LogicalClock(rnd.randint(0, 100))
            operator = generate_keypair(rng.randbytes(32))
            led = Ledger.genesis([make_did_document(operator, created_at=clock.tick())],
                                 clock=clock)
            led.attach_writer(operator)
            for _ in range(rnd.randint(0, 5)):
                actor = generate_keypair(rng.randbytes(32))
                led.submit([RegisterDid(make_did_document(
                    actor, (("agent", f"https://{rnd.randint(0, 9)}.example"),),
                    created_at=clock.tick()))])
            data = led.to_bytes()
            assert Ledger.from_bytes(data).to_bytes() == data


class TestTransactionJson:
    @pytest.fixture
    def one_of_each_kind(self, ledger, issuer, holder, clock, rng):
        """One value of every transaction kind and every other JSON record type.

        Each comes with the parser for its JSON form.
        """
        schema = define_schema(issuer, "Badge", 1, ["level", "since"], ledger)
        txs = [
            RegisterDid(make_did_document(issuer, created_at=clock.tick())),
            ledger.blocks[-1].transactions[0],
            signed_anchor(issuer, b"\x07" * 32, b"\x08" * 32),
            signed_revoke(issuer, b"\x07" * 32),
        ]
        assert [tx.kind for tx in txs] == list(KINDS)
        credential = issue_credential(issuer, derive_did(holder.public_key), schema,
                                      {"level": "3", "since": "2020"}, ledger, rng=rng)
        presentation = create_presentation(credential, ["level"], b"\x09" * 32, holder)
        revealed = presentation.revealed[0]
        document = make_did_document(holder, (("agent", "https://h.example"),), created_at=5)
        envelope = encrypt_for(key_agreement_public(holder.private_key), issuer.private_key,
                               b"hello", rng=rng)
        records = [
            (schema, CredentialSchema.from_json_dict),
            (credential, Credential.from_json_dict),
            (revealed, RevealedAttribute.from_json_dict),
            (presentation, Presentation.from_json_dict),
            (revealed.merkle_path[0], PathStep.from_json_dict),
            (document, lambda value: DidDocument.from_json_dict(
                value, controller_signature=document.controller_signature)),
            (envelope, Envelope.from_json_dict),
            (ledger.blocks[-1], LedgerBlock.from_json_dict),
        ]
        return [(tx, parse_transaction) for tx in txs] + records

    def test_every_kind_roundtrips(self, one_of_each_kind):
        for value, parse in one_of_each_kind:
            parsed = parse(value.to_json_dict())
            assert type(parsed) is type(value)
            assert parsed == value
            assert (canonical_json_bytes(parsed.to_json_dict())
                    == canonical_json_bytes(value.to_json_dict()))
            if parse is parse_transaction:
                assert parsed.canonical_bytes() == value.canonical_bytes()

    @pytest.mark.parametrize("value", [
        None, [], {}, {"kind": "grant_admin"}, {"kind": ""}, {"kind": None}, {"kind": 7},
        {"kind": []}, {"kind": {}},
    ])
    def test_unknown_or_malformed_kind_is_a_parse_error(self, value):
        with pytest.raises(ParseError):
            parse_transaction(value)

    def test_missing_extra_or_reordered_keys_are_parse_errors(self, one_of_each_kind):
        for value, parse in one_of_each_kind:
            good = value.to_json_dict()
            keys = list(good)
            missing = {k: good[k] for k in keys[:-1]}
            extra = {**good, "note": "x"}
            # swap the last two keys; a transaction's "kind" stays first
            reordered = {k: good[k] for k in keys[:-2] + keys[:-3:-1]}
            for bad in (missing, extra, reordered):
                with pytest.raises(ParseError):
                    parse(bad)

    def test_kind_must_match_the_parsing_class(self, one_of_each_kind):
        anchor = next(value for value, _ in one_of_each_kind if isinstance(value, AnchorCredential))
        with pytest.raises(ParseError):
            AnchorCredential.from_json_dict({**anchor.to_json_dict(), "kind": "revoke"})


class TestKeyAgreementIndex:
    def test_reregistration_moves_the_fingerprint(self, ledger, issuer, clock):
        from ssisim.identity import key_agreement_public, key_fingerprint

        issuer_did = derive_did(issuer.public_key)
        fingerprint = key_fingerprint(key_agreement_public(issuer.private_key))
        assert ledger.registry().key_agreement_did(fingerprint) == issuer_did
        # latest-wins update keeps the same keys, so the index still resolves
        ledger.submit([RegisterDid(make_did_document(
            issuer, (("agent", "https://moved.example"),), created_at=clock.tick()))])
        assert ledger.registry().key_agreement_did(fingerprint) == issuer_did
        assert ledger.registry().key_agreement_did("00" * 8) is None


def replay_registry(ledger):
    """Brute-force linear replay of all transactions, independent of Ledger's fold."""
    from ssisim.identity import verify
    from ssisim.ledger import DefineSchema

    docs, schemas, anchors, revoked = {}, {}, {}, set()

    def signed_by_registered_issuer(issuer_did, tx):
        doc = docs.get(str(issuer_did))
        return doc is not None and verify(doc.verification_key, tx.signing_payload(),
                                          tx.submitter_signature)

    for block in ledger.blocks:
        for tx in block.transactions:
            if isinstance(tx, RegisterDid):
                doc = tx.document
                prior = docs.get(str(doc.did))
                if not doc.verify_self():
                    continue
                if prior is not None and prior.verification_key != doc.verification_key:
                    continue
                docs[str(doc.did)] = doc
            elif isinstance(tx, DefineSchema):
                if tx.schema.schema_id in schemas or not schema_is_well_formed(tx.schema):
                    continue
                if signed_by_registered_issuer(tx.schema.issuer_did, tx):
                    schemas[tx.schema.schema_id] = tx.schema
            elif isinstance(tx, AnchorCredential):
                if tx.credential_id in anchors:
                    continue
                if signed_by_registered_issuer(tx.issuer_did, tx):
                    anchors[tx.credential_id] = tx
            elif isinstance(tx, Revoke):
                anchor = anchors.get(tx.credential_id)
                if anchor is None or anchor.issuer_did != tx.issuer_did:
                    continue
                if tx.credential_id in revoked:
                    continue
                if signed_by_registered_issuer(tx.issuer_did, tx):
                    revoked.add(tx.credential_id)
    return docs, schemas, anchors, revoked


class TestReadOracleEquivalence:
    """Production reads must agree with a brute-force linear replay."""

    def test_reads_agree_with_replay_on_randomized_ledgers(self):
        import random

        from ssisim.errors import UnknownDid

        rnd = random.Random(20260810)
        rng = DeterministicRng(b"oracle-equivalence".ljust(32, b"\x00"))
        for _ in range(20):
            clock = LogicalClock(0)
            operator = generate_keypair(rng.randbytes(32))
            led = Ledger.genesis([make_did_document(operator, created_at=clock.tick())],
                                 clock=clock)
            led.attach_writer(operator)
            actors = [generate_keypair(rng.randbytes(32)) for _ in range(3)]
            known_credentials = []
            for _ in range(rnd.randint(3, 10)):
                op = rnd.choice(["register", "anchor", "revoke"])
                actor = rnd.choice(actors)
                try:
                    if op == "register":
                        led.submit([RegisterDid(
                            make_did_document(actor, created_at=clock.tick()))])
                    elif op == "anchor":
                        cid = rng.randbytes(32)
                        led.submit([signed_anchor(actor, cid, rng.randbytes(32))])
                        known_credentials.append((actor, cid))
                    elif op == "revoke" and known_credentials:
                        actor, cid = rnd.choice(known_credentials)
                        led.submit([signed_revoke(actor, cid)])
                except InvalidTransaction:
                    pass
            docs, schemas, anchors, revoked = replay_registry(led)
            for actor in actors:
                did = derive_did(actor.public_key)
                if str(did) in docs:
                    assert led.resolve_did(did) == docs[str(did)]
                else:
                    with pytest.raises(UnknownDid):
                        led.resolve_did(did)
            for _, cid in known_credentials:
                expected = (
                    CredentialStatus.REVOKED if cid in revoked
                    else CredentialStatus.ACTIVE if cid in anchors
                    else CredentialStatus.UNKNOWN
                )
                assert led.credential_status(cid) is expected


def replay_key_agreement(ledger):
    """Linear replay of the key-agreement index: the first DID to claim a fingerprint keeps it.

    A re-registration releases the fingerprint its DID holds, if any, and then holds its
    new one unless another DID already does.
    """
    holds, index = {}, {}  # did -> the fingerprint it holds; fingerprint -> did
    for block in ledger.blocks:
        for tx in block.transactions:
            if isinstance(tx, RegisterDid) and tx.document.verify_self():
                did = str(tx.document.did)
                index.pop(holds.pop(did, None), None)
                fingerprint = key_fingerprint(tx.document.key_agreement_key)
                if fingerprint not in index:
                    index[fingerprint] = did
                    holds[did] = fingerprint
    return index


class TestAdversarialOracle:
    """Reads agree with the replay on ledgers whose blocks skip append-time checks.

    Writer-signed blocks are sealed with ``Ledger.append_unchecked``, so forged signatures,
    anchors before their issuer's registration, duplicate and malformed schemas,
    stray revokes and failed re-registrations all reach the chain.
    """

    def random_txs(self, rnd, rng, actors, forger, schemas, cids, clock):
        """One to three transactions, each drawn from a menu of valid and invalid kinds."""
        txs = []
        for _ in range(rnd.randint(1, 3)):
            actor = rnd.choice(actors)
            did = derive_did(actor.public_key)
            # who signs an issuer-signed transaction: usually its issuer, sometimes a forger
            signer = actor if rnd.random() < 0.75 else forger
            op = rnd.choice(["register", "register", "forged_register", "foreign_key_register",
                             "moved_key_register", "taken_key_register",
                             "register_then_anchor", "schema",
                             "malformed_schema", "anchor", "anchor", "revoke", "revoke",
                             "revoke", "revoke_then_anchor"])
            if op in ("register", "register_then_anchor"):
                endpoint = (("agent", f"https://{rnd.randint(0, 9)}.example"),)
                txs.append(RegisterDid(make_did_document(actor, endpoint,
                                                         created_at=clock.tick())))
            if op == "forged_register":
                # the victim's DID and key, the forger's signature
                doc = make_did_document(actor, created_at=clock.tick())
                txs.append(RegisterDid(replace(doc, controller_signature=sign(
                    forger.private_key, doc.signing_payload()))))
            elif op in ("moved_key_register", "taken_key_register"):
                # self-certified, with the forger's or another actor's key-agreement key
                owner = forger if op == "moved_key_register" else rnd.choice(actors)
                doc = replace(make_did_document(actor, created_at=clock.tick()),
                              key_agreement_key=key_agreement_public(owner.private_key))
                txs.append(RegisterDid(replace(doc, controller_signature=sign(
                    actor.private_key, doc.signing_payload()))))
            elif op == "foreign_key_register":
                doc = make_did_document(forger, created_at=clock.tick())
                txs.append(RegisterDid(replace(doc, did=did)))
            elif op in ("schema", "malformed_schema"):
                schema = rnd.choice(schemas)
                if op == "malformed_schema":
                    # same id, attribute names out of canonical order
                    schema = replace(schema, attribute_names=schema.attribute_names[::-1])
                unsigned = DefineSchema(schema=schema, submitter_signature=b"")
                owner = next(a for a in actors
                             if derive_did(a.public_key) == schema.issuer_did)
                key = owner if signer is actor else forger
                txs.append(replace(unsigned, submitter_signature=sign(
                    key.private_key, unsigned.signing_payload())))
            elif op in ("anchor", "register_then_anchor", "revoke_then_anchor"):
                cid = rnd.choice(cids)
                root = rng.randbytes(32)
                if op == "revoke_then_anchor":
                    # a revoke counts only after the winning anchor, so this one never does
                    txs.append(Revoke(credential_id=cid, issuer_did=did,
                                      submitter_signature=sign(signer.private_key,
                                                               revoke_payload(cid, did))))
                txs.append(AnchorCredential(
                    credential_id=cid, issuer_did=did, commitment_root=root,
                    submitter_signature=sign(signer.private_key,
                                             anchor_credential_payload(cid, did, root))))
            elif op == "revoke":
                cid = rnd.choice(cids)
                txs.append(Revoke(credential_id=cid, issuer_did=did,
                                  submitter_signature=sign(signer.private_key,
                                                           revoke_payload(cid, did))))
        return txs

    def assert_reads_agree(self, led, dids, schema_ids, cids, fingerprints):
        docs, schemas, anchors, revoked = replay_registry(led)
        for did in dids:
            if str(did) in docs:
                assert led.resolve_did(did) == docs[str(did)]
            else:
                with pytest.raises(UnknownDid):
                    led.resolve_did(did)
        for schema_id in schema_ids:
            if schema_id in schemas:
                assert led.lookup_schema(schema_id) == schemas[schema_id]
            else:
                with pytest.raises(UnknownSchema):
                    led.lookup_schema(schema_id)
        for cid in cids:
            expected = (CredentialStatus.REVOKED if cid in revoked
                        else CredentialStatus.ACTIVE if cid in anchors
                        else CredentialStatus.UNKNOWN)
            assert led.registry().credential(cid) == (anchors.get(cid), expected)
            assert led.credential_anchor(cid) == anchors.get(cid)
            assert led.credential_status(cid) is expected
        index = replay_key_agreement(led)
        for fingerprint in fingerprints:
            expected = index.get(fingerprint)
            found = led.registry().key_agreement_did(fingerprint)
            assert (str(found) if found else None) == expected

    def test_reads_agree_with_replay_on_unchecked_blocks(self):
        rnd = random.Random(20261018)
        rng = DeterministicRng(b"adversarial-oracle".ljust(32, b"\x00"))
        for _ in range(40):
            clock = LogicalClock(0)
            operator = generate_keypair(rng.randbytes(32))
            led = Ledger.genesis([make_did_document(operator, created_at=clock.tick())],
                                 clock=clock)
            led.attach_writer(operator)
            actors = [generate_keypair(rng.randbytes(32)) for _ in range(3)]
            forger = generate_keypair(rng.randbytes(32))
            schemas = [make_schema(derive_did(a.public_key), "S", version, ["x", "y", "z"])
                       for a in actors for version in (1, 2)]
            cids = [rng.randbytes(32) for _ in range(3)]
            reads = (
                [derive_did(k.public_key) for k in [operator, forger, *actors]],
                [s.schema_id for s in schemas] + [b"\xaa" * 32],
                cids + [b"\xbb" * 32],
                [key_fingerprint(key_agreement_public(k.private_key))
                 for k in [operator, forger, *actors]],
            )
            for _ in range(rnd.randint(4, 14)):
                txs = self.random_txs(rnd, rng, actors, forger, schemas, cids, clock)
                if rnd.random() < 0.25:
                    try:
                        led.submit(txs)  # checked append: all or nothing
                    except InvalidTransaction:
                        pass
                else:
                    led.append_unchecked(txs, operator)
                if rnd.random() < 0.3:
                    self.assert_reads_agree(led, *reads)
            assert led.validate_chain().ok
            self.assert_reads_agree(led, *reads)
            self.assert_reads_agree(Ledger.from_bytes(led.to_bytes()), *reads)


class TestUncheckedAppends:
    """Forged re-registrations by a stolen writer key keep the chain valid and change no read."""

    @settings(max_examples=25, deadline=None)
    @given(writers=st.integers(1, 3), forgeries=st.lists(
        st.tuples(st.integers(0, 2), st.integers(0, 2),
                  st.sampled_from(["attacker_signature", "attacker_key"])),
        min_size=1, max_size=6))
    def test_forged_reregistrations_change_no_resolution(self, writers, forgeries):
        clock = LogicalClock(0)
        writer_keys = [seeded_keypair(b"writer-%d" % i) for i in range(writers)]
        led = Ledger.genesis([make_did_document(k, created_at=clock.tick()) for k in writer_keys],
                             clock=clock)
        victims = [seeded_keypair(b"victim-%d" % i) for i in range(3)]
        for victim in victims:
            led.append_block([RegisterDid(make_did_document(victim, created_at=clock.tick()))],
                             writer_keys[0])
        dids = [derive_did(v.public_key) for v in victims]
        originals = [led.resolve_did(did) for did in dids]
        attacker = seeded_keypair(b"attacker")
        for victim_index, writer_index, flavour in forgeries:
            victim = victims[victim_index]
            if flavour == "attacker_signature":
                # the victim's DID and key under the attacker's signature
                doc = make_did_document(victim, created_at=clock.tick())
                forged = replace(doc, controller_signature=sign(attacker.private_key,
                                                                doc.signing_payload()))
            else:
                # the attacker's own document under the victim's DID
                forged = replace(make_did_document(attacker, created_at=clock.tick()),
                                 did=dids[victim_index])
            led.append_unchecked([RegisterDid(forged)], writer_keys[writer_index % writers])
        assert led.validate_chain().ok
        assert [led.resolve_did(did) for did in dids] == originals
        data = led.to_bytes()
        loaded = Ledger.from_bytes(data)
        assert loaded.to_bytes() == data
        assert [loaded.resolve_did(did) for did in dids] == originals


class TestVerificationCounts:
    """Reads and appends run Ed25519 verifications for what they touch, not per block."""

    @staticmethod
    def build_file(blocks):
        """A ledger file: genesis, the issuer's registration, then one anchor or revoke a block.

        Every fourth anchor is revoked in the block after it.
        """
        clock = LogicalClock(0)
        operator, issuer = seeded_keypair(b"operator"), seeded_keypair(b"issuer")
        led = Ledger.genesis([make_did_document(operator, created_at=clock.tick())],
                             clock=clock)
        led.attach_writer(operator)
        led.submit([RegisterDid(make_did_document(issuer, created_at=clock.tick()))])
        for i in range(blocks):
            if len(led.blocks) == blocks:
                break
            cid = i.to_bytes(2, "big") * 16
            led.submit([signed_anchor(issuer, cid, b"\x01" * 32)])
            if i % 4 == 3 and len(led.blocks) < blocks:
                led.submit([signed_revoke(issuer, cid)])
        return led.to_bytes(), issuer, operator

    @pytest.fixture
    def counted(self, monkeypatch):
        """The arguments of every verification this process runs."""
        import ssisim.identity
        import ssisim.ledger
        import ssisim.verdicts

        calls = []
        real = ssisim.identity.verify

        def counted(*args):
            calls.append(args)
            return real(*args)

        monkeypatch.setattr(ssisim.identity, "verify", counted)
        monkeypatch.setattr(ssisim.ledger, "verify", counted)
        monkeypatch.setattr(ssisim.verdicts, "verify", counted)
        return calls

    @pytest.fixture
    def verifications(self, counted, monkeypatch):
        # Forked helpers would verify part of a long chain where this list cannot see it.
        monkeypatch.delattr(os, "fork")
        return counted

    def test_one_status_read_after_load_costs_the_same_on_any_length(self, verifications):
        per_read = []
        for blocks in (50, 400):
            data, _, _ = self.build_file(blocks)
            verifications.clear()
            led = Ledger.from_bytes(data)
            # the writer signatures of every block but genesis, and the genesis
            # writer's self-certification
            assert len(verifications) == blocks
            verifications.clear()
            assert led.credential_status((3).to_bytes(2, "big") * 16) is CredentialStatus.REVOKED
            per_read.append(len(verifications))
            verifications.clear()
        # the issuer's registration, the anchor and the revoke
        assert per_read == [3, 3]

    def test_each_engine_check_reads_the_credential_once(self, verifications, monkeypatch,
                                                         ledger, operator, issuer, holder, rng):
        import ssisim.engine
        from ssisim.engine import revoke_credential, verify_credential, verify_presentation

        from ssisim.ledger import RegistryState

        monkeypatch.setattr(ssisim.engine, "verify", identity.verify)  # the counting one
        reads, records = [], []  # RegistryState.credential and Ledger.registry calls

        def counting(cls, method, log):
            real = getattr(cls, method)

            def counted(self, *args, **kw):
                log.append(args[0] if args else None)
                return real(self, *args, **kw)

            monkeypatch.setattr(cls, method, counted)

        counting(RegistryState, "credential", reads)
        counting(Ledger, "registry", records)
        schema = define_schema(issuer, "Badge", 1, ["level", "since"], ledger)
        credential = issue_credential(issuer, derive_did(holder.public_key), schema,
                                      {"level": "3", "since": "2020"}, ledger, rng=rng)
        presentation = create_presentation(credential, ["level"], b"\x09" * 32, holder)
        data = ledger.to_bytes()
        checks = {
            "verify_presentation": lambda led: verify_presentation(
                led, presentation, b"\x09" * 32).accepted,
            "verify_credential": lambda led: verify_credential(led, credential).accepted,
            "revoke_credential": lambda led: revoke_credential(
                issuer, credential.credential_id, led) is None,
        }
        counts = {}
        for name, check in checks.items():
            led = Ledger.from_bytes(data)
            led.attach_writer(operator)
            verifications.clear()
            reads.clear()
            records.clear()
            assert check(led)
            assert reads == [credential.credential_id]
            # Each takes the registry once: a verifier as its reader, and a revoke to
            # resolve its issuer, since it reads the credential only in Revoke.rule, on append
            assert records == ([derive_did(issuer.public_key)] if name == "revoke_credential"
                               else [None])
            counts[name] = len(verifications)
        # Nothing is memoized on a fresh load. Each check verifies the issuer's
        # registration and the anchor. A presentation adds the schema, the issuer and
        # holder signatures and the holder's registration; a credential adds the schema
        # and the issuer signature; a revoke adds its own signature.
        assert counts == {"verify_presentation": 6, "verify_credential": 4,
                          "revoke_credential": 3}

    def test_a_refused_file_costs_what_the_valid_one_does(self, verifications):
        data, _, _ = self.build_file(150)
        bad = tampered(Ledger.from_bytes(data), signatures=(4,)).to_bytes()
        verifications.clear()
        with pytest.raises(FirstInvalid) as excinfo:
            Ledger.from_bytes(bad)
        assert (excinfo.value.index, excinfo.value.cause) == (4, "BadSignature")
        # every writer signature, also those after the bad one, and genesis
        assert len(verifications) == 150

    def test_ledger_compromise_checks_each_forgery_once(self, verifications):
        report = run_compromise_experiment(CompromiseConfig(scenario="ledger", forgeries=100))
        assert report.forged_rejected == 100
        # the 3 genesis writers self-certify, the 3 victims' registrations are checked
        # on append, and each forgery's resolve_did checks only the new registration
        assert len(verifications) == 3 + 3 + 100

    def test_a_key_agreement_lookup_checks_only_its_candidates(self, verifications):
        clock = LogicalClock(0)
        operator = seeded_keypair(b"operator")
        led = Ledger.genesis([make_did_document(operator, created_at=clock.tick())],
                             clock=clock)
        led.attach_writer(operator)
        holders = [seeded_keypair(b"holder-%d" % i) for i in range(24)]
        led.submit([RegisterDid(make_did_document(k, created_at=clock.tick()))
                    for k in holders])
        led = Ledger.from_bytes(led.to_bytes())  # every registration unchecked
        verifications.clear()
        # a fingerprint nobody carries has no candidate to check
        assert led.registry().key_agreement_did("00" * 8) is None
        assert verifications == []
        # one that is carried checks the one registration carrying it
        holder = holders[7]
        fingerprint = key_fingerprint(key_agreement_public(holder.private_key))
        assert led.registry().key_agreement_did(fingerprint) == derive_did(holder.public_key)
        assert [args[0] for args in verifications] == [holder.public_key]

    def test_submit_costs_the_same_on_any_length_and_copies_no_state(self, verifications,
                                                                     monkeypatch):
        from ssisim.ledger import RegistryState

        copies = []
        monkeypatch.setattr(RegistryState, "copy", lambda state: copies.append(state))
        per_submit = []
        for blocks in (50, 400):
            data, issuer, operator = self.build_file(blocks)
            led = Ledger.from_bytes(data)
            led.attach_writer(operator)
            verifications.clear()
            led.submit([signed_anchor(issuer, b"\xfe" * 32, b"\x02" * 32)])
            per_submit.append(len(verifications))
        # the issuer's registration and the new anchor's signature
        assert per_submit == [2, 2]
        assert copies == []

    def test_a_batch_verifies_each_submitter_signature_once(self, verifications, ledger,
                                                            anchor_batch):
        verifications.clear()
        ledger.submit(anchor_batch)
        assert [args[2] for args in verifications] == [
            tx.submitter_signature for tx in anchor_batch]
        verifications.clear()
        assert all(ledger.credential_status(tx.credential_id) is CredentialStatus.ACTIVE
                   for tx in anchor_batch)
        assert verifications == []

    def test_this_process_verifies_the_back_of_a_batch_in_halving_bites(
            self, counted, ledger, anchor_batch, two_cpus):
        counted.clear()
        ledger.submit(anchor_batch)
        assert len(two_cpus) == 1
        at = {tx.submitter_signature: i for i, tx in enumerate(anchor_batch)}
        here = [at[args[2]] for args in counted]
        # the helper verifies from the front; this process from the back, in contiguous
        # bites, each in order and at most half of what was unanswered when it was taken
        end = BATCH_SIZE
        while here:
            bite = end - here[0]
            assert 0 < bite <= max(1, end // 2)
            assert here[:bite] == list(range(here[0], end))
            here, end = here[bite:], here[0]
