"""The three workloads: set-up, rounds of requests, and a check on every output.

Each workload sends requests from one client in a closed loop: the next
request starts only when the previous one has returned. A round is a fixed
multiset of requests in a seeded order, so every round has the same mix and
per-class statistics do not depend on how many rounds fit in the run. Runs
last ``--seconds``, except where a workload fixes its round count (traced
runs, so that call counts repeat exactly, and registry-warm).

Requests fall in three classes, which the end-to-end metrics are named by:

    workload       verify                    issue                     admin
    cli-registry   ``ssisim verify``         ``ssisim issue``          ``ssisim ledger-validate``
    registry-warm  ``verify_presentation``   ``issue_credential``      ``revoke_credential``
    paper-flows    healthcare flow           government flow           compromise pair

A compromise pair is ``run_compromise_experiment`` on ``ledger`` (3 writers,
1 compromised, 100 forgeries) and then on ``ca`` (1,000 forgeries).

On a shared virtual machine CPU speed can drift by 2x within seconds, and
the program's own code slows down with it. So the loop also runs a fixed
calibration task, which uses no ssisim code, after every CALIBRATE_EVERY_NS
of request time, and scales each request to reference speed by the
calibrations just before and just after it; see ``Calibration``.
"""

import contextlib
import hashlib
import io
import json
import os
import random
import shutil
import subprocess
import struct
import sys
import traceback
from dataclasses import dataclass
from hashlib import sha256
from pathlib import Path
from time import perf_counter, perf_counter_ns
from typing import Callable

from cryptography.hazmat.primitives.asymmetric.ed25519 import Ed25519PrivateKey

import ssisim.cli
from ssisim import engine, pki, scenarios
from ssisim.credentials import Credential
from ssisim.ledger import CredentialStatus
from ssisim.runtime import DeterministicRng

from .inputs import (
    attribute_values,
    build_cli_registry,
    build_flow_seeds,
    build_warm_registry,
    seed_bytes,
)

CLASSES = ("verify", "issue", "admin")
HEALTHCARE_GOLDEN_SHA256 = "6b7feccbd7e6b23d2ad18aa4254af1b76d6c6a277318acbac8887220040222a4"
SUBPROCESS_TIMEOUT_S = 120
CALIBRATE_EVERY_NS = 20_000_000
CALIBRATE_SHARE = 0.05  # calibration time per unit of request time it stands for
REFERENCE_MS = 1.0  # calibration task time that reported figures are scaled to

_CAL_KEY = Ed25519PrivateKey.from_private_bytes(b"\x05" * 32)
_CAL_SIGNATURE = _CAL_KEY.sign(b"calibration")
_CAL_TEXT = json.dumps([
    {"index": i, "digest": hashlib.sha256(str(i).encode()).hexdigest(), "items": [i, "x" * 24]}
    for i in range(300)
], separators=(",", ":"))


def calibration_task() -> None:
    """About 1 ms of JSON parsing, object churn, SHA-256 and Ed25519; no ssisim code."""
    records = json.loads(_CAL_TEXT)
    json.dumps(records, separators=(",", ":"))
    for record in records[:50]:
        hashlib.sha256(record["digest"].encode() + struct.pack(">Q", record["index"])).digest()
    public = _CAL_KEY.public_key()
    public.verify(_CAL_SIGNATURE, b"calibration")
    _CAL_KEY.sign(b"calibration")


class Calibration:
    """Time-weighted mean time of calibration_task over a stretch of measured work.

    After each stretch of timed work the task runs for CALIBRATE_SHARE of
    that stretch (at least once); its mean time there is weighted by the
    stretch's length. ``factor`` turns a wall time measured over that work
    into the time at reference speed, at which the task takes REFERENCE_MS.
    """

    def __init__(self):
        self.samples = 0
        self._weighted_ns = 0.0
        self._weight_ns = 0

    def sample(self, weight_ns: int) -> float:
        """Calibrate after `weight_ns` of timed work; returns that work's factor."""
        runs = 0
        t0 = perf_counter_ns()
        while True:
            calibration_task()
            runs += 1
            spent = perf_counter_ns() - t0
            if spent >= CALIBRATE_SHARE * weight_ns:
                break
        self._weighted_ns += spent / runs * weight_ns
        self._weight_ns += weight_ns
        self.samples += runs
        return REFERENCE_MS * 1e6 * runs / spent

    def mean_ms(self) -> float:
        return self._weighted_ns / self._weight_ns / 1e6

    def factor(self) -> float:
        return REFERENCE_MS / self.mean_ms()


class SetupTimer:
    """Set-up time at reference speed, calibrated around each stretch between pause() calls."""

    def __init__(self):
        self.calibration = Calibration()
        self.scaled_ns = 0.0
        self._factor = self.calibration.sample(CALIBRATE_EVERY_NS)
        self._mark = perf_counter_ns()

    def pause(self) -> None:
        work = perf_counter_ns() - self._mark
        factor = self.calibration.sample(work)
        self.scaled_ns += work * (self._factor + factor) / 2
        self._factor = factor
        self._mark = perf_counter_ns()


@dataclass
class Op:
    kind: str  # one of CLASSES
    call: Callable  # the timed request
    check: Callable  # check(result) -> bool, run untimed and untraced
    prepare: Callable | None = None  # untimed, before the call


class Tally:
    """Operations attempted and failed, over set-up checks and requests alike."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0

    def record(self, ok: bool, what: str = "") -> None:
        self.attempted += 1
        if not ok:
            self.failed += 1
            print(f"check failed: {what}", file=sys.stderr)


def execute(op: Op, tally: Tally, tracer=None) -> int:
    """Run one request and its check; returns the request's wall time in ns."""
    if op.prepare is not None:
        op.prepare()
    result, error = None, None
    if tracer is not None:
        tracer.active = True
    t0 = perf_counter_ns()
    try:
        result = op.call()
    except Exception:  # a request that raises is a failed operation, not a crash
        error = traceback.format_exc()
    t1 = perf_counter_ns()
    if tracer is not None:
        tracer.active = False
    ok = False
    if error is None:
        try:
            ok = bool(op.check(result))
        except Exception:
            error = traceback.format_exc()
    tally.record(ok, f"{op.kind} request\n{error or ''}")
    return t1 - t0


def run_rounds(workload, tally: Tally, seconds: float, rounds: int | None = None,
               tracer=None) -> tuple:
    """Closed loop over whole rounds, for `seconds` or, if given, exactly `rounds` rounds.

    With a time budget, a round starts only if the previous round's length
    still fits, so the loop ends close to the budget and never mid-round.
    Returns wall times in ns by class as measured, the same at reference
    speed (each scaled by the mean factor of the calibrations just before and
    just after it), and the Calibration.
    """
    samples = {kind: [] for kind in CLASSES}
    scaled = {kind: [] for kind in CLASSES}
    calibration = Calibration()
    factor = calibration.sample(CALIBRATE_EVERY_NS)
    window = []  # (kind, ns) of the requests since the last calibration
    pending = 0
    start = perf_counter()
    done = 0
    last = 0.0
    while True:
        if rounds is not None and done >= rounds:
            break
        if rounds is None and done > 0 and perf_counter() - start + last > seconds:
            break
        round_start = perf_counter()
        for op in workload.round():
            elapsed = execute(op, tally, tracer)
            samples[op.kind].append(elapsed)
            window.append((op.kind, elapsed))
            pending += elapsed
            if pending >= CALIBRATE_EVERY_NS:
                factor = _flush(window, factor, calibration.sample(pending), scaled)
                pending = 0
        last = perf_counter() - round_start
        done += 1
    if window:
        _flush(window, factor, calibration.sample(pending), scaled)
    return samples, scaled, calibration


def _flush(window: list, before: float, after: float, scaled: dict) -> float:
    for kind, elapsed in window:
        scaled[kind].append(elapsed * (before + after) / 2)
    window.clear()
    return after


# --- cli-registry ----------------------------------------------------------------


class CliRegistryWorkload:
    """Cold ``python -m ssisim.cli`` commands against a 1,000-block ledger file."""

    name = "cli-registry"
    setup_repeats = 3
    # A command costs about 0.5 s at this size, so a 30 s run holds 13 to 26
    # of each class; at 2,000 blocks it held 7 to 15, too few to average out
    # the per-command noise of a shared machine.
    LEDGER_BLOCKS = 1000
    what = {"verify": "ssisim verify (cold process)", "issue": "ssisim issue (cold process)",
            "admin": "ssisim ledger-validate (cold process)"}

    def __init__(self, seed: int, workdir: Path, in_process: bool):
        self.seed = seed_bytes(self.name, seed)
        self.pick = random.Random(self.seed + b"/loop")
        self.dir = workdir
        self.in_process = in_process
        src = Path(ssisim.__file__).resolve().parent.parent
        self.env = dict(os.environ, PYTHONPATH=str(src))
        self.base = workdir / "base.json"
        self.ledger_path = workdir / "ledger.json"
        self.out_path = workdir / "issued.vc.json"

    def setup(self, tally: Tally, pause) -> dict:
        self.reg = reg = build_cli_registry(self.seed, blocks=self.LEDGER_BLOCKS, pause=pause)
        self.base.write_bytes(reg.ledger_bytes)
        (self.dir / "writer.json").write_bytes(reg.writer_wallet)
        (self.dir / "issuer.json").write_bytes(reg.issuer_wallet)
        for i, case in enumerate(reg.presentations):
            (self.dir / f"p{i}.vp.json").write_bytes(case.presentation_json)
        self.cases = {
            expected: [i for i, c in enumerate(reg.presentations) if c.expected == expected]
            for expected in ("accept", "reject:status_active")
        }
        self.next_case = {expected: 0 for expected in self.cases}
        self.next_request = 0
        return reg.digests()

    def warm_up(self) -> list:
        return [self._verify("accept")]

    def round(self) -> list:
        ops = [self._verify("accept"), self._verify("reject:status_active"),
               self._issue(), self._validate()]
        self.pick.shuffle(ops)
        return ops

    def rounds(self, seconds: int, traced: bool) -> int | None:
        return max(1, seconds // 8) if traced else None

    def _command(self, argv: list):
        """Run one CLI command on a fresh copy of the ledger; returns (exit code, stdout)."""
        if self.in_process:
            out, err = io.StringIO(), io.StringIO()
            with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
                code = ssisim.cli.main(argv)
            return code, out.getvalue()
        proc = subprocess.run([sys.executable, "-m", "ssisim.cli", *argv], env=self.env,
                              capture_output=True, timeout=SUBPROCESS_TIMEOUT_S)
        return proc.returncode, proc.stdout.decode()

    def _fresh_copy(self) -> None:
        shutil.copyfile(self.base, self.ledger_path)

    def _verify(self, expected: str) -> Op:
        ring = self.cases[expected]
        index = ring[self.next_case[expected] % len(ring)]
        self.next_case[expected] += 1
        case = self.reg.presentations[index]
        argv = ["--ledger", str(self.ledger_path), "verify",
                "--presentation", str(self.dir / f"p{index}.vp.json"),
                "--challenge", case.challenge.hex()]

        def check(result):
            code, out = result
            return (code, json.loads(out)["verdict"]) == (0 if expected == "accept" else 2,
                                                          expected)

        return Op("verify", lambda: self._command(argv), check, self._fresh_copy)

    def _validate(self) -> Op:
        expected = {"result": "Ok", "blocks": len(self.reg.ledger.blocks)}
        argv = ["ledger-validate", str(self.ledger_path)]
        return Op("admin", lambda: self._command(argv),
                  lambda r: r[0] == 0 and json.loads(r[1]) == expected, self._fresh_copy)

    def _issue(self) -> Op:
        holder, values = self.reg.issue_requests[self.next_request % len(self.reg.issue_requests)]
        self.next_request += 1
        argv = ["--ledger", str(self.ledger_path), "issue",
                "--wallet", str(self.dir / "issuer.json"),
                "--writer-wallet", str(self.dir / "writer.json"),
                "--schema-id", self.reg.schema_id.hex(), "--holder-did", holder,
                *[arg for name in values for arg in ("--value", f"{name}={values[name]}")],
                "--out", str(self.out_path)]
        return Op("issue", lambda: self._command(argv),
                  lambda r: self._check_issued(r, holder, values), self._fresh_copy)

    def _check_issued(self, result, holder: str, values: dict) -> bool:
        """The credential verifies, and the rewritten file gained exactly its anchor."""
        code, out = result
        if code != 0:
            return False
        credential_id = json.loads(out)["credential_id"]
        credential = Credential.from_json_dict(json.loads(self.out_path.read_bytes()))
        if (credential.credential_id.hex() != credential_id
                or str(credential.holder_did) != holder
                or dict(credential.attributes) != values
                or not engine.tamper_check(credential, self.reg.ledger)):
            return False
        blocks = json.loads(self.ledger_path.read_bytes())["blocks"]
        if len(blocks) != len(self.reg.ledger.blocks) + 1:
            return False
        (tx,) = blocks[-1]["transactions"]
        return (tx["kind"], tx["credential_id"], tx["issuer_did"], tx["commitment_root"]) == (
            "anchor_credential", credential_id, str(credential.issuer_did),
            credential.commitment_root.hex())


# --- registry-warm ------------------------------------------------------------------


class RegistryWarmWorkload:
    """In-process issue, verify and revoke against an already folded 20k-anchor registry."""

    name = "registry-warm"
    setup_repeats = 2  # each set-up folds 20,000 anchors; two fit the run budget
    what = {"verify": "verify_presentation", "issue": "issue_credential",
            "admin": "revoke_credential"}

    def __init__(self, seed: int, workdir: Path, in_process: bool):
        self.seed = seed_bytes(self.name, seed)

    def setup(self, tally: Tally, pause) -> dict:
        self.reg = build_warm_registry(self.seed, pause=pause)
        self.pick = random.Random(self.seed + b"/loop")
        self.rng = DeterministicRng(sha256(self.seed + b"/issue").digest())
        self.order = list(range(len(self.reg.presentations)))
        self.pick.shuffle(self.order)
        self.next_case = 0
        self.revocable = list(self.reg.revocable)
        return self.reg.digests()

    def warm_up(self) -> list:
        return [op for _ in range(20) for op in self.round()]

    def round(self) -> list:
        ops = [self._verify() for _ in range(6)] + [self._issue() for _ in range(3)]
        ops.append(self._revoke())
        self.pick.shuffle(ops)
        return ops

    def rounds(self, seconds: int, traced: bool) -> int:
        # Every issue grows the registry, and issue and revoke cost grows with
        # it; a fixed round count makes every run end at the same size.
        return 100 * seconds

    def _verify(self) -> Op:
        presentation, challenge, expected = self.reg.presentations[
            self.order[self.next_case % len(self.order)]]
        self.next_case += 1
        return Op("verify",
                  lambda: engine.verify_presentation(self.reg.ledger, presentation, challenge),
                  lambda report: report.verdict == expected)

    def _issue(self) -> Op:
        holder = self.pick.choice(self.reg.holder_dids)
        values = attribute_values(self.pick)
        ledger = self.reg.ledger

        def check(credential):
            return (dict(credential.attributes) == values
                    and engine.tamper_check(credential, ledger)
                    and ledger.credential_status(credential.credential_id)
                    is CredentialStatus.ACTIVE)

        return Op("issue",
                  lambda: engine.issue_credential(self.reg.issuer.keypair, holder,
                                                  self.reg.schema, values, ledger, rng=self.rng),
                  check)

    def _revoke(self) -> Op:
        credential_id = self.revocable.pop()
        ledger = self.reg.ledger
        return Op("admin",
                  lambda: engine.revoke_credential(self.reg.issuer.keypair, credential_id, ledger),
                  lambda _: ledger.credential_status(credential_id) is CredentialStatus.REVOKED)


# --- paper-flows ------------------------------------------------------------------


class PaperFlowsWorkload:
    """The healthcare and government flows and the compromise experiment."""

    name = "paper-flows"
    setup_repeats = 3
    what = {"verify": "run_healthcare_scenario", "issue": "run_government_scenario",
            "admin": "run_compromise_experiment ledger/100 + ca/1000"}
    FLOWS_PER_ROUND = 64  # of each scenario, next to one compromise pair
    SETUP_FLOWS = 16  # default-seed runs of each scenario, so set-up time is not a few ticks

    def __init__(self, seed: int, workdir: Path, in_process: bool):
        self.seed = seed_bytes(self.name, seed)

    def setup(self, tally: Tally, pause) -> dict:
        """Derive the per-flow seeds; check the default-seed transcripts, SETUP_FLOWS times."""
        self.seeds = build_flow_seeds(self.seed)
        self.pick = random.Random(self.seed + b"/loop")
        self.counts = {"healthcare": 0, "government": 0, "compromise": 0}
        for _ in range(self.SETUP_FLOWS):
            golden = scenarios.run_healthcare_scenario(scenarios.HealthcareConfig())
            tally.record(sha256(golden.to_bytes()).hexdigest() == HEALTHCARE_GOLDEN_SHA256,
                         "default-seed healthcare transcript hash")
            government = scenarios.run_government_scenario(scenarios.GovernmentConfig())
            tally.record(government.final_verdict == "accept", "default-seed government verdict")
            pause()
        return self.seeds.digests()

    def warm_up(self) -> list:
        return [self._flow("healthcare"), self._flow("government")]

    def round(self) -> list:
        ops = [self._flow(kind) for kind in ("healthcare", "government")
               for _ in range(self.FLOWS_PER_ROUND)]
        self.pick.shuffle(ops)
        ops.append(self._compromise())
        return ops

    def rounds(self, seconds: int, traced: bool) -> int | None:
        return max(1, seconds // 5) if traced else None

    def _next_seed(self, kind: str) -> bytes:
        pool = getattr(self.seeds, kind)
        seed = pool[self.counts[kind] % len(pool)]
        self.counts[kind] += 1
        return seed

    def _flow(self, kind: str) -> Op:
        seed = self._next_seed(kind)
        if kind == "healthcare":
            config = scenarios.HealthcareConfig(seed=seed)
            return Op("verify", lambda: scenarios.run_healthcare_scenario(config), _six_step_accept)
        config = scenarios.GovernmentConfig(seed=seed)
        return Op("issue", lambda: scenarios.run_government_scenario(config), _six_step_accept)

    def _compromise(self) -> Op:
        seed = self._next_seed("compromise")
        ledger = pki.CompromiseConfig(scenario="ledger", forgeries=100, writers=3,
                                      compromised=1, seed=seed)
        ca = pki.CompromiseConfig(scenario="ca", forgeries=1000, seed=seed)

        def check(reports):
            ledger_report, ca_report = reports
            return ((ledger_report.forged_accepted, ledger_report.forged_rejected) == (0, 100)
                    and (ca_report.forged_accepted, ca_report.forged_rejected) == (1000, 0))

        return Op("admin", lambda: (pki.run_compromise_experiment(ledger),
                                    pki.run_compromise_experiment(ca)), check)


def _six_step_accept(transcript) -> bool:
    return transcript.final_verdict == "accept" and len(transcript.steps) == 6


WORKLOADS = {w.name: w for w in (CliRegistryWorkload, RegistryWarmWorkload, PaperFlowsWorkload)}
