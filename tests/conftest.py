import os
import time
from dataclasses import replace
from pathlib import Path

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


# A chain long enough that its check splits the writer signatures between this
# process and a forked helper, and faults planted in it: (blocks whose writer
# signature is tampered, blocks whose tx root is) -> the (index, cause) that a
# walk in chain order, checking each block in full, reports first.
LONG_CHAIN_BLOCKS = 400
CHAIN_FAULTS = [
    ((280,), (), (280, "BadSignature")),
    ((4,), (), (4, "BadSignature")),
    ((396,), (), (396, "BadSignature")),
    ((4, 396), (), (4, "BadSignature")),
    ((100,), (350,), (100, "BadSignature")),
    ((350,), (300,), (300, "HashMismatch")),
]


@pytest.fixture(scope="session")
def long_chain():
    clock = LogicalClock(0)
    operator = seeded_keypair(b"operator")
    doc = make_did_document(operator, created_at=clock.tick())
    led = Ledger.genesis([doc], clock=clock)
    while len(led.blocks) < LONG_CHAIN_BLOCKS:
        led.append_unchecked([RegisterDid(doc)], operator)
    return led


def tampered(ledger, signatures=(), roots=()) -> Ledger:
    """A copy of ledger with a bit flipped in the writer signature or the tx root of some blocks."""
    blocks = list(ledger.blocks)
    for i in signatures:
        blocks[i] = replace(blocks[i], writer_signature=flip_bit(blocks[i].writer_signature))
    for i in roots:
        blocks[i] = replace(blocks[i], tx_root=flip_bit(blocks[i].tx_root))
    return Ledger(blocks, ledger.mode, LogicalClock(0))


def flip_bit(data: bytes) -> bytes:
    return bytes([data[0] ^ 1]) + data[1:]


def writer_jobs(ledger) -> list:
    """The (writer key, block hash, writer signature) of each block after genesis."""
    return [(ledger.writer_set[str(block.writer_did)], block.block_hash, block.writer_signature)
            for block in ledger.blocks[1:]]


def wait_until_ended(pid: int) -> None:
    """Wait, without reaping it, until the child pid has exited."""
    deadline = time.monotonic() + 30
    while Path(f"/proc/{pid}/stat").read_text().rsplit(")", 1)[1].split()[0] != "Z":
        assert time.monotonic() < deadline, f"process {pid} is still running"
        time.sleep(0.005)


@pytest.fixture
def cpus(monkeypatch):
    """cpus(n) sets n CPUs as start_split sees them, and returns the pids of the helpers
    forked from the start of the test on.

    Afterwards every helper must have been reaped, and no fd or shared page left open.
    """
    real_fork = os.fork
    pids = []

    def fork():
        pid = real_fork()
        if pid:
            pids.append(pid)
        return pid

    def set_cpus(count: int) -> list:
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: set(range(count)),
                            raising=False)
        return pids

    monkeypatch.setattr(os, "fork", fork)
    open_fds, shared = len(os.listdir("/proc/self/fd")), shared_mappings()
    yield set_cpus
    for pid in pids:
        with pytest.raises(ChildProcessError):
            os.waitpid(pid, os.WNOHANG)
    assert len(os.listdir("/proc/self/fd")) == open_fds
    assert shared_mappings() == shared


def shared_mappings() -> list:
    """The lines of this process's memory map that a forked helper could write into."""
    return [line for line in Path("/proc/self/maps").read_text().splitlines()
            if line.split()[1] == "rw-s"]


@pytest.fixture
def two_cpus(cpus):
    """Two CPUs; holds the pids of the helpers forked (see cpus)."""
    return cpus(2)


@pytest.fixture
def fork_log(cpus, monkeypatch, tmp_path):
    """A file every fork appends its caller's pid to, a helper's fork too (see cpus)."""
    log = tmp_path / "forks"
    log.touch()
    counted_fork = os.fork

    def fork():
        with open(log, "a") as out:
            out.write(f"{os.getpid()}\n")
        return counted_fork()

    monkeypatch.setattr(os, "fork", fork)
    return log


@pytest.fixture(params=["two CPUs", "no fork"])
def helpers(request, monkeypatch):
    """The pids of the helpers forked under two CPUs (see cpus); None with os.fork removed."""
    if request.param == "no fork":
        monkeypatch.delattr(os, "fork")
        return None
    return request.getfixturevalue("two_cpus")
