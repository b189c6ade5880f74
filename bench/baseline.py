"""ROADMAP baseline rows, re-measured, and the probe that reaches every traced layer.

The baseline rows time single layers directly, with tracing off: Ed25519
sign and verify, ``derive_did``, canonical encoding, the Merkle root, load,
first-read fold and serialization of a 2,000-block ledger, a registry state
copy at 20,000 anchors, one issuance and one present-and-verify.

The probe is a short fixed path through every traced function. The traced
run ends with it so that every per-layer metric is measured on every
workload; its cost is reported as ``trace.probe_ms``.
"""

import contextlib
import io
import statistics
from hashlib import sha256
from time import perf_counter_ns

import ssisim.cli
from ssisim import credentials, engine, identity, ledger, merkle, pki, scenarios, serialization
from ssisim import wallet as wallet_mod
from ssisim.runtime import DeterministicRng

from .workloads import HEALTHCARE_GOLDEN_SHA256, Tally

ROWS = (
    "baseline.sign_us",
    "baseline.verify_us",
    "baseline.derive_did_us",
    "baseline.encode_parts_us",
    "baseline.merkle_root_us",
    "baseline.from_bytes_2k_ms",
    "baseline.first_read_fold_2k_ms",
    "baseline.to_bytes_2k_ms",
    "baseline.state_copy_20k_ms",
    "baseline.issue_credential_ms",
    "baseline.present_verify_ms",
)


def _per_call_us(fn, calls: int, batches: int = 5) -> float:
    """Median over batches of the mean per-call time, in microseconds."""
    per_call = []
    for _ in range(batches):
        t0 = perf_counter_ns()
        for _ in range(calls):
            fn()
        per_call.append((perf_counter_ns() - t0) / calls / 1000)
    return statistics.median(per_call)


def _once_ms(fn) -> tuple:
    t0 = perf_counter_ns()
    result = fn()
    return (perf_counter_ns() - t0) / 1e6, result


def measure(reg) -> dict:
    """Baseline rows on a cli-registry input set (`reg` is an inputs.CliRegistry)."""
    writer = wallet_mod.wallet_load(reg.writer_wallet).keypair
    issuer = wallet_mod.wallet_load(reg.issuer_wallet).keypair
    message = bytes(range(64))
    signature = identity.sign(writer.private_key, message)
    leaves = [merkle.leaf_hash(bytes([i])) for i in range(5)]
    rows = {
        "baseline.sign_us": _per_call_us(lambda: identity.sign(writer.private_key, message), 200),
        "baseline.verify_us": _per_call_us(
            lambda: identity.verify(writer.public_key, message, signature), 200),
        "baseline.derive_did_us": _per_call_us(lambda: identity.derive_did(writer.public_key),
                                               1000),
        "baseline.encode_parts_us": _per_call_us(
            lambda: serialization.encode_parts("ssisim/tx/v1", "anchor_credential", message[:32],
                                               "did:sim:" + "1" * 44, message[32:]), 1000),
        "baseline.merkle_root_us": _per_call_us(lambda: merkle.merkle_root(leaves), 1000),
    }

    loads, folds, dumps = [], [], []
    for _ in range(3):
        load_ms, loaded = _once_ms(lambda: ledger.Ledger.from_bytes(reg.ledger_bytes))
        fold_ms, _ = _once_ms(lambda: loaded.credential_status(bytes(32)))
        dump_ms, _ = _once_ms(loaded.to_bytes)
        loads.append(load_ms)
        folds.append(fold_ms)
        dumps.append(dump_ms)
    rows["baseline.from_bytes_2k_ms"] = statistics.median(loads)
    rows["baseline.first_read_fold_2k_ms"] = statistics.median(folds)
    rows["baseline.to_bytes_2k_ms"] = statistics.median(dumps)

    state = ledger.RegistryState()
    anchor = next(tx for block in loaded.blocks for tx in block.transactions
                  if isinstance(tx, ledger.AnchorCredential))
    state.anchors = {i.to_bytes(32, "big"): anchor for i in range(20000)}
    rows["baseline.state_copy_20k_ms"] = _per_call_us(state.copy, 5) / 1000

    loaded.attach_writer(writer)
    schema = loaded.lookup_schema(reg.schema_id)
    rng = DeterministicRng(bytes(32))
    holder_did = identity.Did.parse(reg.issue_requests[0][0])
    values = reg.issue_requests[0][1]
    rows["baseline.issue_credential_ms"] = _per_call_us(
        lambda: engine.issue_credential(issuer, holder_did, schema, values, loaded, rng=rng),
        10) / 1000

    holder, credential = reg.sample
    challenge = bytes(32)

    def present_and_verify():
        presentation = credentials.create_presentation(
            credential, [name for name, _ in credential.attributes[:2]], challenge, holder)
        return engine.verify_presentation(loaded, presentation, challenge)

    rows["baseline.present_verify_ms"] = _per_call_us(present_and_verify, 20) / 1000
    return rows


def probe(workdir, tally: Tally) -> None:
    """Call every traced function at least once, checking each result."""
    wallet = wallet_mod.wallet_create(b"\x07" * 32)
    loaded = wallet_mod.wallet_load(wallet_mod.wallet_save(wallet))
    tally.record(loaded.did == wallet.did, "probe: wallet round trip")

    golden = scenarios.run_healthcare_scenario(scenarios.HealthcareConfig())
    tally.record(sha256(golden.to_bytes()).hexdigest() == HEALTHCARE_GOLDEN_SHA256,
                 "probe: healthcare golden hash")
    revoked = scenarios.run_healthcare_scenario(
        scenarios.HealthcareConfig(revoke_before_presentation=True))
    tally.record(revoked.final_verdict == "reject:status_active", "probe: revoked healthcare")
    government = scenarios.run_government_scenario(scenarios.GovernmentConfig())
    tally.record(government.final_verdict == "accept", "probe: government verdict")

    ca = pki.run_compromise_experiment(pki.CompromiseConfig(scenario="ca", forgeries=3))
    tally.record(ca.forged_accepted == 3, "probe: ca compromise")
    forged = pki.run_compromise_experiment(pki.CompromiseConfig(scenario="ledger", forgeries=3))
    tally.record(forged.forged_accepted == 0, "probe: ledger compromise")

    chain = ledger.Ledger.genesis([identity.make_did_document(wallet.keypair, created_at=1)])
    path = workdir / "probe-ledger.json"
    path.write_bytes(chain.to_bytes())
    with contextlib.redirect_stdout(io.StringIO()) as out:
        code = ssisim.cli.main(["ledger-validate", str(path)])
    tally.record(code == 0 and '"Ok"' in out.getvalue(), "probe: ledger-validate")
