"""Ed25519 signature verdicts, memoized per process and split over forked helpers.

This module imports only the standard library and cryptography's Ed25519, so
the CLI can start verifying a ledger file's writer signatures in a helper
before it loads the rest of the package. It is the one home of its public names:
the rest of the package imports them from here.
"""

import functools
import mmap
import os
import signal
import threading

from cryptography.exceptions import InvalidSignature
from cryptography.hazmat.primitives.asymmetric.ed25519 import Ed25519PublicKey

# The bound of every per-process memo in the package.
MEMO_SIZE = 4096


def verify(public_key: bytes, message: bytes, signature: bytes) -> bool:
    """True iff signature was made by the matching key over exactly message.

    Malformed keys or signatures return False, never raise.
    """
    try:
        # Other types keep their own verdicts (a bytearray key fails, a bytearray
        # message verifies), so only exact bytes reach the memo; the rest take
        # the same check unmemoized.
        if type(public_key) is type(message) is type(signature) is bytes:
            return _verdict(public_key, message, signature)
        return _verdict.__wrapped__(public_key, message, signature)
    except Exception:
        return False


# Verdicts are memoized per process, keyed by the exact (key, message, signature)
# bytes, as Bitcoin Core's signature cache is: a relying party meets the same
# certificate or signature again and again. Only what Ed25519 decides is kept;
# any other exception propagates uncached and verify maps it to False.
@functools.lru_cache(maxsize=MEMO_SIZE)
def _verdict(public_key: bytes, message: bytes, signature: bytes) -> bool:
    try:
        Ed25519PublicKey.from_public_bytes(public_key).verify(signature, message)
    except (InvalidSignature, ValueError):  # a bad signature or a wrong-length key
        return False
    return True


# Below two chunks of this size a forked helper costs more than it saves. os.fork
# of a ~40 MB process takes 1-3 ms, and the parent then takes a write fault on each
# page it touches again (15-20 ms for 10,000 pages); 128 verifications take 20-40 ms.
_MIN_CHUNK = 128


def _chunk_count(items: int) -> int:
    """How many CPUs a split of items uses, this process's included; below 2 it forks nothing."""
    if items < 2 * _MIN_CHUNK or not hasattr(os, "fork") or threading.active_count() > 1:
        return 1
    cpus = (len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity")
            else os.cpu_count() or 1)
    return min(cpus, items // _MIN_CHUNK)


# The bytes of a split's page that are not answers: a slot no one has answered
# yet, and each slot of a bite the join has taken (where the helper stops).
_UNANSWERED, _TAKEN = b"\xff", b"\xfe"


def split_each(work, items: list) -> bytes:
    """work(items), where work(chunk) gives one 0/1 byte per item of chunk, in order.

    The items are split by start_split and joined at once (see Split.join). When
    there is nothing to fork, work(items) runs here with no Split.
    """
    if _chunk_count(len(items)) > 1:
        return start_split(work, items).join(items)
    return work(items)


def start_split(work, items: list) -> "Split":
    """Start work(items) in forked helpers, for Split.join to finish or Split.close to drop.

    Given two chunks of _MIN_CHUNK items or more, a second CPU and os.fork in a
    single-threaded process, one helper per CPU but one is forked, each on its
    contiguous chunk of the items; this process keeps no chunk. A fork that
    fails ends the forking, so the helpers cover a prefix of the items and the
    rest runs here at the join. The helpers share one page with this process,
    one byte per item, and each answers into it one item at a time, so that
    join can take over what a helper has not reached. A split stays open
    until it is joined or closed, and splits may be open at once: each forks,
    joins and reaps its own helpers. A helper never forks: it calls work on
    one item at a time, and no work the package splits starts a split of its
    own. This is the only place the package forks.
    """
    split = Split(work, items)
    helpers = _chunk_count(len(items)) - 1
    try:
        if helpers:
            split._page = mmap.mmap(-1, len(items))
            split._page.write(_UNANSWERED * len(items))
        for k in range(helpers):
            start, stop = len(items) * k // helpers, len(items) * (k + 1) // helpers
            pid = _fork_helper(work, items, split._page, start, stop)
            if pid is None:
                break
            split._helpers.append((pid, start, stop))
    except BaseException:
        split.close()
        raise
    return split


class Split:
    """work over items, split by start_split into one contiguous chunk per helper.

    Each split holds its own helpers and page; one open beside another shares
    nothing with it.
    """

    def __init__(self, work, items: list):
        self._work = work
        self._items = items  # the items the split started on
        self._page = None    # the shared page, one byte per started item, if it forked
        self._helpers = []   # (pid, start, stop) of each helper's chunk, in order

    def join(self, items: list) -> bytes:
        """work(items), with the helpers' answers for the items up to the first one
        that differs from the started items; every other item runs here.

        This process takes each helper's chunk in turn. While the helper runs
        and some item below this process's bites is unanswered, it marks the
        back half of what is unanswered (at least one item) taken, so the helper
        stops there, and runs it in one work call; the two meet when nothing
        below the bites is unanswered. The items after the last helper's chunk
        run here. A helper's answers all count for nothing if one byte is not
        0 or 1, or if the helper ends, before the two meet, other than by exiting
        0; what it leaves unanswered runs here. Every helper is killed and
        reaped, and the split closed, before join returns.
        """
        try:
            same = len(items) if items is self._items else _agreeing(self._items, items)
            answer, done = [], 0
            for pid, start, stop in self._helpers:
                if start < same:
                    done = min(stop, same)
                    answer.append(self._collect(items, pid, start, done))
            answer.append(self._run(items, done, len(items)))
            return b"".join(answer)
        finally:
            self.close()

    def close(self) -> None:
        """Kill and reap every helper left; the split is then closed, and a join runs here."""
        for pid, _, _ in self._helpers:
            os.kill(pid, signal.SIGKILL)
            os.waitpid(pid, 0)
        if self._page is not None:
            self._page.close()
        self._items, self._helpers, self._page = (), [], None

    def _run(self, items: list, start: int, stop: int) -> bytes:
        return self._work(items[start:stop]) if start < stop else b""

    def _collect(self, items: list, pid, start: int, stop: int) -> bytes:
        """work(items[start:stop]), the helper answering from start up and this process
        from stop down, in bites of at most half of what is unanswered (see join).

        Page bytes from stop on are never read: the helper may still write there.
        This process keeps its own answers, since the helper may answer the first
        item of the last bite after it was taken.
        """
        page, end, bites = self._page, stop, b""
        while (at := page.find(_UNANSWERED, start, end)) >= 0 and _failed(pid) is None:
            bite = max(1, (end - at) // 2)
            end -= bite
            page[end:end + bite] = _TAKEN * bite
            bites = self._run(items, end, end + bite) + bites
        got = page[start:end].rstrip(_UNANSWERED)
        if _failed(pid) or not set(got) <= {0, 1}:
            got = b""
        return got + self._run(items, start + len(got), end) + bites


def _failed(pid: int) -> bool | None:
    """None while the helper pid runs; once it has ended, whether it ended other than
    by exiting 0. The helper is left for Split.close to reap."""
    ended = os.waitid(os.P_PID, pid, os.WEXITED | os.WNOHANG | os.WNOWAIT)
    return ended and (ended.si_code, ended.si_status) != (os.CLD_EXITED, 0)


def _agreeing(started: list, items: list) -> int:
    """How many of the leading items equal the started ones, position by position."""
    both = min(len(started), len(items))
    return next((i for i in range(both) if started[i] != items[i]), both)


def _fork_helper(work, items: list, page, start: int, stop: int) -> int | None:
    """The pid of a process that writes work([item]) into page for each of
    items[start:stop] in turn, up to the first slot that is not unanswered;
    None if fork fails."""
    try:
        pid = os.fork()
    except OSError:
        return None
    if pid == 0:
        code = 1
        try:
            for at in range(start, stop):
                if page[at:at + 1] != _UNANSWERED:
                    break
                page[at:at + 1] = work(items[at:at + 1])
            code = 0
        finally:
            os._exit(code)
    return pid


def verify_each(jobs: list, started: Split | None = None) -> bytes:
    """One 0/1 verdict per (public_key, message, signature) job, in order.

    The answer is bytes(verify(*job) for job in jobs) on any CPU count: the
    jobs are split over the CPUs by split_each. A split from start_verify is
    joined instead: its helpers' verdicts count for the jobs up to the first
    one that differs from the jobs it was started on.
    """
    if started is None:
        return split_each(_verdicts, jobs)
    return started.join(jobs)


def start_verify(jobs: list) -> Split:
    """verify_each(jobs) started in helpers, for verify_each(..., started=) to join."""
    return start_split(_verdicts, jobs)


def _verdicts(jobs) -> bytes:
    return bytes(verify(*job) for job in jobs)
