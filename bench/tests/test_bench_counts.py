"""Exact-count guards for the benchmark: machine-independent counts that must repeat.

Run with ``python -m pytest bench/tests`` from the repository root.
"""

import contextlib
import io
import json
from pathlib import Path

import pytest

import ssisim.cli
from bench import baseline, run
from bench.inputs import build_cli_registry, build_warm_registry, seed_bytes
from bench.tracer import SPAN_NAMES, Tracer
from bench.workloads import Tally
from ssisim import engine, pki
from ssisim.runtime import DeterministicRng

ROOT = Path(__file__).resolve().parents[2]


@pytest.fixture
def tracer():
    t = Tracer()
    t.install()
    yield t
    t.uninstall()


@contextlib.contextmanager
def recording(tracer):
    tracer.active = True
    try:
        yield
    finally:
        tracer.active = False


def calls(tracer, name):
    return tracer.per_function()[name][0]


@pytest.fixture(scope="module")
def small_warm():
    return build_warm_registry(seed_bytes("test", 1), anchors=300, per_block=100, presented=8,
                               presented_revoked=2, other_revoked=10, holders=4)


@pytest.fixture(scope="module")
def small_cli():
    return build_cli_registry(seed_bytes("test", 2), blocks=150, holders=4, accepted=2,
                              rejected=2, issue_requests=2)


def test_verify_presentation_runs_two_signature_checks(tracer, small_warm):
    for presentation, challenge, expected in small_warm.presentations:
        with recording(tracer):
            report = engine.verify_presentation(small_warm.ledger, presentation, challenge)
        assert report.verdict == expected
    assert calls(tracer, "identity.verify") == 2 * len(small_warm.presentations)
    assert calls(tracer, "ledger.RegistryState.check") == 0  # the registry is already folded


def test_cold_cli_verify_checks_every_block_and_transaction(tracer, small_cli, tmp_path):
    """(blocks - 1) writer signatures, one per transaction in the fold, then 2."""
    ledger_path = tmp_path / "ledger.json"
    ledger_path.write_bytes(small_cli.ledger_bytes)
    blocks = len(small_cli.ledger.blocks)
    txs = sum(len(b.transactions) for b in small_cli.ledger.blocks)
    for i, case in enumerate(small_cli.presentations):
        vp = tmp_path / f"{i}.vp.json"
        vp.write_bytes(case.presentation_json)
        before = calls(tracer, "identity.verify")
        with recording(tracer), contextlib.redirect_stdout(io.StringIO()) as out:
            code = ssisim.cli.main(["--ledger", str(ledger_path), "verify",
                                    "--presentation", str(vp),
                                    "--challenge", case.challenge.hex()])
        assert json.loads(out.getvalue())["verdict"] == case.expected
        assert code == (0 if case.expected == "accept" else 2)
        assert calls(tracer, "identity.verify") - before == (blocks - 1) + txs + 2


def test_state_copy_runs_once_per_append(tracer, small_warm):
    ledger = small_warm.ledger
    issuer = small_warm.issuer.keypair
    rng = DeterministicRng(bytes(32))
    values = {name: "x" for name in small_warm.schema.attribute_names}
    with recording(tracer):
        for holder in small_warm.holder_dids:
            engine.issue_credential(issuer, holder, small_warm.schema, values, ledger, rng=rng)
        for credential_id in small_warm.revocable[:3]:
            engine.revoke_credential(issuer, credential_id, ledger)
    appends = len(small_warm.holder_dids) + 3
    assert calls(tracer, "ledger.Ledger.append_block") == appends
    assert calls(tracer, "ledger.RegistryState.copy") == appends


def test_ledger_forgery_validation_grows_linearly(tracer):
    forgeries = 6
    with recording(tracer):
        report = pki.run_compromise_experiment(
            pki.CompromiseConfig(scenario="ledger", forgeries=forgeries))
    assert report.forged_accepted == 0
    per_check = tracer.child_counts("ledger.Ledger.validate_chain", "identity.verify")
    # genesis is unsigned; three victim blocks and the first forged block are checked
    assert per_check == [4 + i for i in range(forgeries)]


def test_probe_reaches_every_layer_with_repeatable_counts(tmp_path):
    runs = []
    for _ in range(2):
        tracer = Tracer()
        tracer.install()
        tally = Tally()
        try:
            with recording(tracer):
                baseline.probe(tmp_path, tally)
        finally:
            tracer.uninstall()
        assert tally.failed == 0
        runs.append({name: c for name, (c, _) in tracer.per_function().items()})
    assert runs[0] == runs[1]
    assert all(runs[0][name] > 0 for name in SPAN_NAMES)


def test_self_times_partition_the_root_spans(tracer, small_warm):
    presentation, challenge, _ = small_warm.presentations[0]
    with recording(tracer):
        engine.verify_presentation(small_warm.ledger, presentation, challenge)
    roots = [i for i in range(tracer.span_count()) if tracer.parent[i] < 0]
    assert roots == [0]
    assert sum(tracer.self_times_ns()) == tracer.end[0] - tracer.start[0]


def test_baseline_rows_match_their_names(small_cli):
    assert tuple(baseline.measure(small_cli)) == baseline.ROWS


def test_benchmark_json_lists_what_the_runner_reports():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert [(m["name"], m["unit"]) for m in spec["end_to_end"]] == run.END_TO_END
    assert [(m["name"], m["unit"], m["better"]) for m in spec["per_layer"]] == \
        run.per_layer_spec()
    assert sorted(w["name"] for w in spec["workloads"]) == sorted(
        ["cli-registry", "registry-warm", "paper-flows"])
