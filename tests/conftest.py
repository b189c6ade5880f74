from dataclasses import replace

import pytest

from ssisim.identity import derive_did, generate_keypair, make_did_document
from ssisim.ledger import GENESIS_PREV_HASH, Ledger, LedgerMode, RegisterDid, build_block
from ssisim.runtime import DeterministicRng, LogicalClock


def seeded_keypair(tag: bytes):
    return generate_keypair(tag.ljust(32, b"\x00"))


def hijacked_genesis_file() -> bytes:
    """A ledger file whose genesis registers a victim's DID as a writer under the attacker's key.

    Loaded unchecked, it would let the attacker seal blocks as the victim's DID.
    """
    victim, attacker = seeded_keypair(b"victim"), seeded_keypair(b"attacker")
    forged = replace(make_did_document(attacker), did=derive_did(victim.public_key))
    genesis = build_block(0, GENESIS_PREV_HASH, 0, [RegisterDid(forged)], forged.did,
                          writer_signature=b"\x00" * 64)
    return Ledger([genesis], LedgerMode.PUBLIC_PERMISSIONED, LogicalClock(0)).to_bytes()


@pytest.fixture
def rng():
    return DeterministicRng(b"test-rng".ljust(32, b"\x00"))


@pytest.fixture
def clock():
    return LogicalClock(0)


@pytest.fixture
def operator():
    return seeded_keypair(b"operator")


@pytest.fixture
def issuer():
    return seeded_keypair(b"issuer")


@pytest.fixture
def holder():
    return seeded_keypair(b"holder")


@pytest.fixture
def ledger(operator, issuer, holder, clock):
    """Fresh chain with the operator as writer and issuer/holder registered."""
    led = Ledger.genesis([make_did_document(operator, created_at=clock.tick())], clock=clock)
    led.attach_writer(operator)
    led.submit([
        RegisterDid(make_did_document(issuer, created_at=clock.tick())),
        RegisterDid(make_did_document(holder, created_at=clock.tick())),
    ])
    return led
